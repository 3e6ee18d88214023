//! Behavioural tests of the full simulator.

use super::*;
use crate::policy::PolicyKind;
use dgsched_des::time::SimTime;
use dgsched_grid::availability::Availability;
use dgsched_grid::checkpoint::CheckpointConfig;
use dgsched_grid::config::GridConfig;
use dgsched_grid::power::Heterogeneity;
use dgsched_workload::{
    BagOfTasks, BotId, BotType, Intensity, TaskId, TaskSpec, Workload, WorkloadSpec,
};
use rand::SeedableRng;

/// A reliable grid of `n` machines of equal `power`: no failures, no
/// checkpointing.
fn reliable_grid(n: usize, power: f64) -> dgsched_grid::Grid {
    let cfg = GridConfig {
        total_power: n as f64 * power,
        heterogeneity: Heterogeneity::Homogeneous { power },
        availability: Availability::Always,
        checkpoint: CheckpointConfig::disabled(),
        outages: None,
    };
    cfg.build(&mut rand::rngs::StdRng::seed_from_u64(0))
}

/// 4 reliable machines of power 10: task times easy to reason about.
fn tiny_grid() -> dgsched_grid::Grid {
    reliable_grid(4, 10.0)
}

/// Builds a workload by hand: `bags[i] = (arrival, task_works)`.
fn manual_workload(bags: &[(f64, &[f64])]) -> Workload {
    let bags = bags
        .iter()
        .enumerate()
        .map(|(i, (at, works))| BagOfTasks {
            id: BotId(i as u32),
            arrival: SimTime::new(*at),
            tasks: works
                .iter()
                .enumerate()
                .map(|(j, w)| TaskSpec {
                    id: TaskId(j as u32),
                    work: *w,
                })
                .collect(),
            granularity: 100.0,
        })
        .collect();
    Workload {
        bags,
        lambda: 1.0,
        label: "manual".into(),
    }
}

#[test]
fn single_bag_single_task() {
    let grid = tiny_grid();
    // One 1000-work task on a power-10 machine: 100 s of compute.
    let w = manual_workload(&[(0.0, &[1000.0])]);
    let r = simulate(&grid, &w, PolicyKind::FcfsShare, &SimConfig::with_seed(1));
    assert_eq!(r.completed, 1);
    assert!(!r.saturated);
    assert_eq!(r.bags.len(), 1);
    let b = &r.bags[0];
    assert_eq!(b.waiting, 0.0, "idle grid: dispatched immediately");
    assert!(
        (b.turnaround - 100.0).abs() < 1e-9,
        "turnaround {}",
        b.turnaround
    );
    assert!((r.end_time - 100.0).abs() < 1e-9);
}

#[test]
fn replication_kicks_in_on_spare_machines() {
    let grid = tiny_grid(); // 4 machines
                            // One bag, two tasks: 2 machines for primaries, and with threshold 2
                            // the two spare machines each take a replica.
    let w = manual_workload(&[(0.0, &[1000.0, 2000.0])]);
    let r = simulate(&grid, &w, PolicyKind::FcfsShare, &SimConfig::with_seed(1));
    assert_eq!(r.completed, 1);
    assert_eq!(r.counters.replicas_launched, 4, "2 primaries + 2 replicas");
    assert_eq!(
        r.counters.replicas_killed_sibling, 2,
        "each task's loser is killed"
    );
    // Identical powers: replicas finish in a dead heat with primaries; the
    // tie is broken by event order, but the work is only counted once.
    assert_eq!(r.counters.useful_work, 3000.0);
}

#[test]
fn fcfs_excl_replicates_without_limit() {
    let grid = tiny_grid(); // 4 machines
    let w = manual_workload(&[(0.0, &[1000.0])]);
    let r = simulate(&grid, &w, PolicyKind::FcfsExcl, &SimConfig::with_seed(1));
    // The single task is replicated onto all 4 machines.
    assert_eq!(r.counters.replicas_launched, 4);
    assert_eq!(r.counters.replicas_killed_sibling, 3);
}

#[test]
fn wqr_threshold_caps_replicas() {
    let grid = tiny_grid();
    let w = manual_workload(&[(0.0, &[1000.0])]);
    let cfg = SimConfig {
        replication_threshold: 3,
        ..SimConfig::with_seed(1)
    };
    let r = simulate(&grid, &w, PolicyKind::FcfsShare, &cfg);
    assert_eq!(
        r.counters.replicas_launched, 3,
        "threshold 3 ⇒ 3 replicas max"
    );
}

#[test]
fn fcfs_excl_starves_later_bags() {
    let grid = tiny_grid();
    // Bag 0: 4 long tasks (wall 500 each); bag 1: one short task arriving
    // early. Under FCFS-Excl bag 1 waits for all of bag 0.
    let w = manual_workload(&[(0.0, &[5000.0, 5000.0, 5000.0, 5000.0]), (1.0, &[10.0])]);
    let r = simulate(&grid, &w, PolicyKind::FcfsExcl, &SimConfig::with_seed(1));
    assert_eq!(r.completed, 2);
    let bag1 = r.bags.iter().find(|b| b.bag == 1).unwrap();
    assert!(
        bag1.waiting >= 499.0,
        "bag 1 must wait for bag 0: waited {}",
        bag1.waiting
    );
}

#[test]
fn fcfs_share_lets_later_bags_use_spares() {
    let grid = tiny_grid();
    // Threshold 1 keeps the two spare machines idle (no replication), so
    // bag 1's short task starts the moment it arrives under FCFS-Share.
    let w = manual_workload(&[(0.0, &[5000.0, 5000.0]), (1.0, &[10.0])]);
    let cfg = SimConfig {
        replication_threshold: 1,
        ..SimConfig::with_seed(1)
    };
    let r = simulate(&grid, &w, PolicyKind::FcfsShare, &cfg);
    let bag1 = r.bags.iter().find(|b| b.bag == 1).unwrap();
    assert_eq!(bag1.waiting, 0.0, "a spare machine was free");
    assert!((bag1.turnaround - 1.0).abs() < 1e-9, "10 work / power 10");
}

#[test]
fn share_serves_later_bag_sooner_than_excl() {
    let grid = tiny_grid();
    // Bag 0: one long (wall 500) and one short (wall 200) task; replicas
    // fill the spares. When the short task completes at t=200, FCFS-Share
    // hands a freed machine to bag 1, while FCFS-Excl keeps re-replicating
    // bag 0's long task until t=500.
    let w = manual_workload(&[(0.0, &[5000.0, 2000.0]), (1.0, &[10.0])]);
    let share = simulate(&grid, &w, PolicyKind::FcfsShare, &SimConfig::with_seed(1));
    let excl = simulate(&grid, &w, PolicyKind::FcfsExcl, &SimConfig::with_seed(1));
    let share_wait = share.bags.iter().find(|b| b.bag == 1).unwrap().waiting;
    let excl_wait = excl.bags.iter().find(|b| b.bag == 1).unwrap().waiting;
    assert!((share_wait - 199.0).abs() < 1e-6, "share wait {share_wait}");
    assert!((excl_wait - 499.0).abs() < 1e-6, "excl wait {excl_wait}");
}

#[test]
fn all_policies_complete_simple_workload() {
    let grid = tiny_grid();
    let w = manual_workload(&[
        (0.0, &[1000.0, 800.0, 600.0]),
        (50.0, &[500.0, 400.0]),
        (100.0, &[300.0]),
    ]);
    for kind in PolicyKind::all() {
        let r = simulate(&grid, &w, kind, &SimConfig::with_seed(3));
        assert_eq!(r.completed, 3, "{kind} must drain the workload");
        assert!(!r.saturated, "{kind} must not saturate");
        assert_eq!(r.bags.len(), 3);
        // Work conservation: every task completed exactly once.
        assert_eq!(r.counters.useful_work, 3600.0, "{kind}");
        for b in &r.bags {
            assert!(b.turnaround >= b.makespan);
            assert!((b.turnaround - (b.waiting + b.makespan)).abs() < 1e-9);
        }
    }
}

#[test]
fn deterministic_under_same_seed() {
    let cfg = GridConfig::paper(Heterogeneity::HET, Availability::LOW);
    let grid = cfg.build(&mut rand::rngs::StdRng::seed_from_u64(5));
    let spec = WorkloadSpec {
        bot_type: BotType {
            granularity: 2_000.0,
            app_size: 40_000.0,
            jitter: 0.5,
        },
        intensity: Intensity::Low,
        count: 8,
    };
    let w = spec.generate(&cfg, &mut rand::rngs::StdRng::seed_from_u64(6));
    let r1 = simulate(&grid, &w, PolicyKind::Rr, &SimConfig::with_seed(42));
    let r2 = simulate(&grid, &w, PolicyKind::Rr, &SimConfig::with_seed(42));
    assert_eq!(r1.end_time, r2.end_time);
    assert_eq!(r1.events, r2.events);
    assert_eq!(r1.counters, r2.counters);
    assert_eq!(r1.bags, r2.bags);
    // A different seed perturbs the failure trace, hence the outcome.
    let r3 = simulate(&grid, &w, PolicyKind::Rr, &SimConfig::with_seed(43));
    assert_ne!(r1.events, r3.events);
}

#[test]
fn failures_trigger_restarts_and_still_complete() {
    // Failure-heavy grid with checkpointing: tasks long enough that
    // machines fail mid-task.
    let cfg = GridConfig {
        total_power: 40.0,
        heterogeneity: Heterogeneity::Homogeneous { power: 10.0 },
        availability: Availability::LOW, // MTBF 1800 s
        checkpoint: CheckpointConfig::default(),
        outages: None,
    };
    let grid = cfg.build(&mut rand::rngs::StdRng::seed_from_u64(7));
    // 4 tasks × 50 000 work = wall 5000 s each ≫ MTBF.
    let w = manual_workload(&[(0.0, &[50_000.0, 50_000.0, 50_000.0, 50_000.0])]);
    let r = simulate(&grid, &w, PolicyKind::FcfsShare, &SimConfig::with_seed(11));
    assert_eq!(
        r.completed, 1,
        "bag must eventually finish despite failures"
    );
    assert!(r.counters.machine_failures > 0);
    assert!(
        r.counters.replicas_killed_failure > 0,
        "failures must have hit replicas"
    );
    assert!(
        r.counters.checkpoints_written > 0,
        "long tasks must checkpoint"
    );
    assert_eq!(r.counters.useful_work, 200_000.0);
}

#[test]
fn checkpointing_beats_no_checkpointing_under_failures() {
    // Tasks of wall 8000 s on a grid with MTBF 1800 s: without checkpoints
    // an attempt rarely survives to completion, with them progress is
    // monotone. A single run is noisy, so compare means over seeds.
    let mk = |ckpt: CheckpointConfig, seed: u64| {
        let cfg = GridConfig {
            total_power: 40.0,
            heterogeneity: Heterogeneity::Homogeneous { power: 10.0 },
            availability: Availability::LOW,
            checkpoint: ckpt,
            outages: None,
        };
        let grid = cfg.build(&mut rand::rngs::StdRng::seed_from_u64(7));
        let w = manual_workload(&[(0.0, &[80_000.0, 80_000.0])]);
        simulate(
            &grid,
            &w,
            PolicyKind::FcfsShare,
            &SimConfig::with_seed(seed),
        )
    };
    let mut with_sum = 0.0;
    let mut without_sum = 0.0;
    for seed in 0..12 {
        let with = mk(CheckpointConfig::default(), seed);
        let without = mk(CheckpointConfig::disabled(), seed);
        assert_eq!(with.completed, 1, "seed {seed}");
        assert_eq!(without.completed, 1, "seed {seed}");
        with_sum += with.mean_turnaround();
        without_sum += without.mean_turnaround();
    }
    assert!(
        with_sum < without_sum,
        "checkpointing {} vs bare {}",
        with_sum / 12.0,
        without_sum / 12.0
    );
}

#[test]
fn saturation_is_detected() {
    let grid = tiny_grid(); // capacity 40 work/s
                            // Offered load ≈ 100 work/s — hopeless. The run must stop at its
                            // horizon and be flagged.
    let bags: Vec<(f64, Vec<f64>)> = (0..50)
        .map(|i| (i as f64 * 100.0, vec![5_000.0, 5_000.0]))
        .collect();
    let borrowed: Vec<(f64, &[f64])> = bags.iter().map(|(t, v)| (*t, v.as_slice())).collect();
    let w = manual_workload(&borrowed);
    // Draining 500k work at 40 work/s needs 12 500 s; a horizon of 8 000 s
    // cannot be met even though arrivals end at 4 900 s.
    let cfg = SimConfig {
        horizon: Some(8_000.0),
        ..SimConfig::with_seed(1)
    };
    let r = simulate(&grid, &w, PolicyKind::Rr, &cfg);
    assert!(r.saturated, "overload must be flagged");
    assert!(r.completed < 50);
}

#[test]
fn overloaded_system_saturates() {
    // 30 bags of 4 000 work every 50 s on 40 work/s: ρ = 80/40 = 2.
    let bags: Vec<(f64, &[f64])> = (0..30)
        .map(|i| (i as f64 * 50.0, &[1_000.0; 4][..]))
        .collect();
    let w = manual_workload(&bags);
    let cfg = SimConfig {
        horizon: Some(2_000.0),
        ..SimConfig::with_seed(1)
    };
    let r = simulate(&tiny_grid(), &w, PolicyKind::Rr, &cfg);
    assert!(r.saturated, "ρ = 2 must saturate within the horizon");
}

#[test]
fn warmup_bags_excluded_from_metrics() {
    let grid = tiny_grid();
    let w = manual_workload(&[(0.0, &[100.0]), (50.0, &[100.0]), (90.0, &[100.0])]);
    let cfg = SimConfig {
        warmup_bags: 2,
        ..SimConfig::with_seed(1)
    };
    let r = simulate(&grid, &w, PolicyKind::FcfsShare, &cfg);
    assert_eq!(r.completed, 3);
    assert_eq!(r.bags.len(), 1, "only the post-warmup bag is measured");
    assert_eq!(r.bags[0].bag, 2);
}

#[test]
fn het_grid_runs_all_policies() {
    let cfg = GridConfig::paper(Heterogeneity::HET, Availability::MED);
    let grid = cfg.build(&mut rand::rngs::StdRng::seed_from_u64(9));
    let spec = WorkloadSpec {
        bot_type: BotType {
            granularity: 5_000.0,
            app_size: 100_000.0,
            jitter: 0.5,
        },
        intensity: Intensity::Medium,
        count: 6,
    };
    let w = spec.generate(&cfg, &mut rand::rngs::StdRng::seed_from_u64(10));
    for kind in PolicyKind::all() {
        let r = simulate(&grid, &w, kind, &SimConfig::with_seed(77));
        assert_eq!(r.completed, 6, "{kind}");
        assert!(!r.saturated, "{kind}");
        assert!(r.mean_turnaround() > 0.0);
        assert!(r.wasted_fraction() >= 0.0 && r.wasted_fraction() <= 1.0);
    }
}

#[test]
fn longest_first_task_order_runs() {
    let grid = tiny_grid();
    let w = manual_workload(&[(0.0, &[100.0, 900.0, 500.0, 300.0, 700.0])]);
    let cfg = SimConfig {
        task_order: TaskOrder::LongestFirst,
        ..SimConfig::with_seed(1)
    };
    let r = simulate(&grid, &w, PolicyKind::FcfsShare, &cfg);
    assert_eq!(r.completed, 1);
    // LPT on 4 identical machines with these tasks: makespan is bounded by
    // the longest task (90 s) since total work / machines = 62.5 < 90.
    assert!(
        (r.bags[0].makespan - 90.0).abs() < 1e-6,
        "makespan {}",
        r.bags[0].makespan
    );
}

#[test]
fn fastest_first_machine_order_prefers_fast_machines() {
    // Two machines: power 1 and power 10. A single task must land on the
    // fast one under FastestFirst.
    let cfg = GridConfig {
        total_power: 11.0,
        heterogeneity: Heterogeneity::Custom {
            dist: dgsched_des::dist::DistConfig::Constant { value: 1.0 },
        },
        availability: Availability::Always,
        checkpoint: CheckpointConfig::disabled(),
        outages: None,
    };
    // Hand-build the grid to control powers exactly.
    let mut grid = cfg.build(&mut rand::rngs::StdRng::seed_from_u64(1));
    grid.machines.truncate(2);
    grid.machines[1].power = 10.0;
    let w = manual_workload(&[(0.0, &[1000.0])]);
    // Threshold 1 so no replica is placed on the slow machine.
    let fast_cfg = SimConfig {
        machine_order: MachineOrder::FastestFirst,
        replication_threshold: 1,
        ..SimConfig::with_seed(1)
    };
    let r = simulate(&grid, &w, PolicyKind::FcfsShare, &fast_cfg);
    assert!(
        (r.bags[0].turnaround - 100.0).abs() < 1e-9,
        "ran on the power-10 machine"
    );
    let slow_cfg = SimConfig {
        machine_order: MachineOrder::Arbitrary,
        replication_threshold: 1,
        ..SimConfig::with_seed(1)
    };
    let r = simulate(&grid, &w, PolicyKind::FcfsShare, &slow_cfg);
    assert!(
        (r.bags[0].turnaround - 1000.0).abs() < 1e-9,
        "id order hits the slow machine"
    );
}

#[test]
fn fewest_failures_first_avoids_flaky_machines() {
    // Two machines: one reliable, one that has already failed repeatedly.
    // After warm-up, dispatch should prefer the reliable one.
    let cfg_grid = GridConfig {
        total_power: 20.0,
        heterogeneity: Heterogeneity::Homogeneous { power: 10.0 },
        availability: Availability::LOW,
        checkpoint: CheckpointConfig::default(),
        outages: None,
    };
    let grid = cfg_grid.build(&mut rand::rngs::StdRng::seed_from_u64(1));
    let bags: Vec<(f64, Vec<f64>)> = (0..20)
        .map(|i| (i as f64 * 3_000.0, vec![10_000.0]))
        .collect();
    let borrowed: Vec<(f64, &[f64])> = bags.iter().map(|(t, v)| (*t, v.as_slice())).collect();
    let w = manual_workload(&borrowed);
    let cfg = SimConfig {
        machine_order: MachineOrder::FewestFailuresFirst,
        replication_threshold: 1,
        ..SimConfig::with_seed(3)
    };
    let r = simulate(&grid, &w, PolicyKind::FcfsShare, &cfg);
    assert_eq!(r.completed, 20);
    // The heuristic must still complete and record consistent stats.
    let total_failures: u64 = r.machines.iter().map(|m| m.failures).sum();
    assert_eq!(total_failures, r.counters.machine_failures);
}

#[test]
fn dynamic_replication_switches_threshold() {
    // Stormy cutoff at 0 ⇒ any observed failure flips to the stormy
    // threshold; starting calm with threshold 1.
    let cfg_grid = GridConfig {
        total_power: 40.0,
        heterogeneity: Heterogeneity::Homogeneous { power: 10.0 },
        availability: Availability::LOW,
        checkpoint: CheckpointConfig::default(),
        outages: None,
    };
    let grid = cfg_grid.build(&mut rand::rngs::StdRng::seed_from_u64(3));
    let w = manual_workload(&[(0.0, &[30_000.0, 30_000.0])]);
    let dynamic = SimConfig {
        dynamic_replication: Some(DynamicReplication {
            calm: 1,
            stormy: 3,
            rate_cutoff: 0.0,
        }),
        ..SimConfig::with_seed(21)
    };
    let r = simulate(&grid, &w, PolicyKind::FcfsShare, &dynamic);
    assert_eq!(r.completed, 1);
    // Once failures are observed the threshold rises to 3: with only two
    // tasks and four machines, more than 2 replicas must have been launched
    // over the run.
    assert!(
        r.counters.replicas_launched > 2,
        "dynamic threshold should have spawned extra replicas: {}",
        r.counters.replicas_launched
    );
}

#[test]
fn slowdown_is_at_least_one_and_exact_for_solo_bag() {
    // A solo bag on an idle reliable grid finishes in exactly its ideal
    // makespan, 100 s in every case below, so its slowdown is exactly 1.
    let cases: [(usize, &[f64]); 4] = [
        (4, &[1000.0]),           // critical path 1000/10
        (4, &[100.0; 40]),        // work 4000/40 beats the path 100/10
        (4, &[1000.0, 10.0]),     // path 1000/10 beats the work 1010/20
        (100, &[1000.0, 1000.0]), // 2 tasks use 2 machines: 2000/20
    ];
    for (machines, works) in cases {
        let grid = reliable_grid(machines, 10.0);
        let w = manual_workload(&[(0.0, works)]);
        for policy in PolicyKind::all() {
            let r = simulate(&grid, &w, policy, &SimConfig::with_seed(1));
            assert!(
                (r.bags[0].slowdown - 1.0).abs() < 1e-9,
                "{policy} on {machines} machines, {} tasks: slowdown {}",
                works.len(),
                r.bags[0].slowdown
            );
            assert_eq!(r.bags[0].work, works.iter().sum::<f64>());
        }
    }

    let grid = tiny_grid(); // 4 × power 10

    // Queued bags have slowdown > 1.
    let w = manual_workload(&[
        (0.0, &[5000.0, 5000.0, 5000.0, 5000.0]),
        (1.0, &[5000.0, 5000.0, 5000.0, 5000.0]),
    ]);
    let r = simulate(&grid, &w, PolicyKind::FcfsExcl, &SimConfig::with_seed(1));
    for b in &r.bags {
        assert!(
            b.slowdown >= 1.0 - 1e-9,
            "bag {} slowdown {}",
            b.bag,
            b.slowdown
        );
    }
    let second = r.bags.iter().find(|b| b.bag == 1).unwrap();
    assert!(
        second.slowdown > 1.5,
        "queued bag must show slowdown: {}",
        second.slowdown
    );
    assert!(r.bags.iter().all(|b| b.slowdown <= r.max_slowdown()));
}

#[test]
fn simulated_makespan_respects_bound() {
    // No policy, replicas included, beats the bag's ideal makespan
    // (turnaround ÷ slowdown): work conservation and the critical path.
    let grid = reliable_grid(8, 10.0);
    for seed in 0..5u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let works: Vec<f64> = (0..12)
            .map(|_| rand::Rng::gen_range(&mut rng, 100.0..5000.0))
            .collect();
        let w = manual_workload(&[(0.0, &works)]);
        for policy in PolicyKind::all() {
            let r = simulate(&grid, &w, policy, &SimConfig::with_seed(seed));
            let b = &r.bags[0];
            let bound = b.turnaround / b.slowdown;
            assert!(
                b.makespan >= bound - 1e-9,
                "{policy} beat the bound: {} < {bound} (seed {seed})",
                b.makespan
            );
        }
    }
}

#[test]
fn machine_stats_match_counters() {
    let grid = tiny_grid();
    let w = manual_workload(&[(0.0, &[1000.0, 2000.0]), (10.0, &[1500.0])]);
    let r = simulate(&grid, &w, PolicyKind::FcfsShare, &SimConfig::with_seed(1));
    assert_eq!(r.machines.len(), 4);
    let sum: f64 = r.machines.iter().map(|m| m.busy_time).sum();
    assert!(
        (sum - r.counters.busy_time).abs() < 1e-9,
        "per-machine busy must sum to total"
    );
    assert!(
        r.machines.iter().all(|m| m.failures == 0),
        "reliable grid never fails"
    );
    for m in &r.machines {
        let f = m.busy_time / r.end_time;
        assert!((0.0..=1.0).contains(&f));
        assert_eq!(m.power, 10.0);
    }
}

#[test]
fn machine_failures_recorded_in_stats() {
    let cfg = GridConfig {
        total_power: 40.0,
        heterogeneity: Heterogeneity::Homogeneous { power: 10.0 },
        availability: Availability::LOW,
        checkpoint: CheckpointConfig::default(),
        outages: None,
    };
    let grid = cfg.build(&mut rand::rngs::StdRng::seed_from_u64(2));
    let w = manual_workload(&[(0.0, &[30_000.0, 30_000.0])]);
    let r = simulate(&grid, &w, PolicyKind::FcfsShare, &SimConfig::with_seed(3));
    let total_failures: u64 = r.machines.iter().map(|m| m.failures).sum();
    assert_eq!(total_failures, r.counters.machine_failures);
    assert!(total_failures > 0);
}

#[test]
fn outages_fail_machines_in_groups() {
    use dgsched_des::dist::DistConfig;
    use dgsched_grid::OutageConfig;
    // No per-machine failures: every failure comes from the outage process.
    let cfg = GridConfig {
        total_power: 100.0,
        heterogeneity: Heterogeneity::Homogeneous { power: 10.0 },
        availability: Availability::Always,
        checkpoint: CheckpointConfig::default(),
        outages: Some(OutageConfig {
            mtbo: 5_000.0,
            duration: DistConfig::Constant { value: 1_000.0 },
            fraction: 0.5,
        }),
    };
    let grid = cfg.build(&mut rand::rngs::StdRng::seed_from_u64(4));
    let w = manual_workload(&[(0.0, &[40_000.0, 40_000.0, 40_000.0, 40_000.0])]);
    let r = simulate(&grid, &w, PolicyKind::FcfsShare, &SimConfig::with_seed(5));
    assert_eq!(r.completed, 1, "bag must survive correlated outages");
    assert!(r.counters.outages > 0, "outages must have struck");
    assert!(
        r.counters.machine_failures >= r.counters.outages,
        "each outage fails ~half the machines"
    );
    let per_machine: u64 = r.machines.iter().map(|m| m.failures).sum();
    assert_eq!(per_machine, r.counters.machine_failures);
}

#[test]
fn outages_and_per_machine_failures_compose() {
    use dgsched_des::dist::DistConfig;
    use dgsched_grid::OutageConfig;
    let cfg = GridConfig {
        total_power: 60.0,
        heterogeneity: Heterogeneity::Homogeneous { power: 10.0 },
        availability: Availability::MED,
        checkpoint: CheckpointConfig::default(),
        outages: Some(OutageConfig {
            mtbo: 8_000.0,
            duration: DistConfig::NormalTrunc {
                mean: 1_800.0,
                sd: 300.0,
            },
            fraction: 0.4,
        }),
    };
    let grid = cfg.build(&mut rand::rngs::StdRng::seed_from_u64(6));
    let w = manual_workload(&[(0.0, &[30_000.0, 30_000.0]), (2_000.0, &[20_000.0])]);
    for kind in PolicyKind::all() {
        let r = simulate(&grid, &w, kind, &SimConfig::with_seed(7));
        assert_eq!(r.completed, 2, "{kind} under combined churn");
        assert!(!r.saturated);
    }
}

#[test]
fn correlated_outages_defeat_replication_without_checkpoints() {
    use dgsched_des::dist::DistConfig;
    use dgsched_grid::OutageConfig;
    // Replication (not checkpointing) is the only fault-tolerance here,
    // and that is exactly what correlation defeats: when both replicas die
    // together the task restarts from zero, whereas under independent
    // failures at the same average availability the sibling usually
    // survives. (With checkpointing enabled the two regimes are close —
    // progress persists either way — which is itself a finding.)
    let duration = 1_800.0;
    let correlated = GridConfig {
        total_power: 100.0,
        heterogeneity: Heterogeneity::Homogeneous { power: 10.0 },
        availability: Availability::Always,
        checkpoint: CheckpointConfig::disabled(),
        outages: Some(OutageConfig {
            mtbo: duration * 9.0,
            duration: DistConfig::Constant { value: duration },
            fraction: 1.0, // everything dies together
        }),
    };
    let independent = GridConfig {
        availability: Availability::Level { availability: 0.9 },
        outages: None,
        ..correlated
    };
    assert!(
        (correlated.effective_power() / independent.effective_power() - 1.0).abs() < 1e-9,
        "platforms must offer identical average capacity"
    );
    let run = |cfg: GridConfig, seed: u64| {
        let grid = cfg.build(&mut rand::rngs::StdRng::seed_from_u64(1));
        let w = manual_workload(&[(0.0, &[60_000.0, 60_000.0, 60_000.0, 60_000.0])]);
        simulate(
            &grid,
            &w,
            PolicyKind::FcfsShare,
            &SimConfig::with_seed(seed),
        )
        .mean_turnaround()
    };
    let mut corr_sum = 0.0;
    let mut ind_sum = 0.0;
    for seed in 0..10 {
        corr_sum += run(correlated, seed);
        ind_sum += run(independent, seed);
    }
    assert!(
        corr_sum > ind_sum,
        "correlated churn must hurt more: {corr_sum:.0} vs {ind_sum:.0}"
    );
}

#[test]
fn waiting_plus_makespan_equals_turnaround() {
    let cfg = GridConfig::paper(Heterogeneity::HOM, Availability::MED);
    let grid = cfg.build(&mut rand::rngs::StdRng::seed_from_u64(15));
    let spec = WorkloadSpec {
        bot_type: BotType {
            granularity: 10_000.0,
            app_size: 200_000.0,
            jitter: 0.5,
        },
        intensity: Intensity::High,
        count: 10,
    };
    let w = spec.generate(&cfg, &mut rand::rngs::StdRng::seed_from_u64(16));
    let r = simulate(&grid, &w, PolicyKind::LongIdle, &SimConfig::with_seed(17));
    for b in &r.bags {
        assert!((b.turnaround - (b.waiting + b.makespan)).abs() < 1e-6);
        assert!(b.waiting >= 0.0);
        assert!(b.makespan > 0.0);
    }
}
