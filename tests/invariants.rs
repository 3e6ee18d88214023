//! Scheduler invariants enforced over full traces by the library's
//! `CheckingObserver`: machines are never double-booked or used while
//! down, replica counts respect the threshold, FCFS-Excl really is
//! exclusive, kills and completions match occupants, checkpoints are
//! non-trivial, and traces are deterministic.

use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::{simulate_observed, CheckingObserver, SimConfig, TraceRecorder};
use dgsched_grid::{Availability, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec};
use rand::SeedableRng;

/// Runs `policy` under the checker and fails on any invariant violation.
fn run_with_invariants(policy: PolicyKind, threshold: u32, seed: u64) -> CheckingObserver {
    let grid_cfg = GridConfig::paper(Heterogeneity::HET, Availability::LOW);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let grid = grid_cfg.build(&mut rng);
    let workload = WorkloadSpec {
        bot_type: BotType {
            granularity: 20_000.0,
            app_size: 200_000.0,
            jitter: 0.5,
        },
        intensity: Intensity::Medium,
        count: 8,
    }
    .generate(&grid_cfg, &mut rng);
    let mut obs = if policy == PolicyKind::FcfsExcl {
        CheckingObserver::exclusive()
    } else {
        CheckingObserver::with_threshold(threshold)
    };
    let cfg = SimConfig {
        replication_threshold: threshold,
        ..SimConfig::with_seed(seed)
    };
    let r = simulate_observed(&grid, &workload, policy.create_seeded(seed), &cfg, &mut obs);
    assert_eq!(
        r.completed, 8,
        "{policy} must complete under invariant checking"
    );
    obs.assert_clean();
    assert_eq!(
        r.counters.replicas_launched, obs.dispatches,
        "observer saw every dispatch"
    );
    obs
}

#[test]
fn invariants_hold_for_all_policies() {
    for policy in PolicyKind::all_with_baselines() {
        for seed in [1, 2] {
            run_with_invariants(policy, 2, seed).assert_drained();
        }
    }
}

#[test]
fn invariants_hold_for_higher_thresholds() {
    for threshold in [1, 3, 4] {
        run_with_invariants(PolicyKind::FcfsShare, threshold, 3);
        run_with_invariants(PolicyKind::Rr, threshold, 3);
    }
}

/// Every policy stays clean on a second, busier failure-heavy platform.
#[test]
fn library_checker_agrees() {
    let grid_cfg = GridConfig::paper(Heterogeneity::HET, Availability::LOW);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let grid = grid_cfg.build(&mut rng);
    let workload = WorkloadSpec {
        bot_type: BotType {
            granularity: 15_000.0,
            app_size: 150_000.0,
            jitter: 0.5,
        },
        intensity: Intensity::High,
        count: 6,
    }
    .generate(&grid_cfg, &mut rng);
    for policy in PolicyKind::all_with_baselines() {
        let mut checker = if policy == PolicyKind::FcfsExcl {
            CheckingObserver::exclusive()
        } else {
            CheckingObserver::with_threshold(2)
        };
        let cfg = SimConfig::with_seed(6);
        let r = simulate_observed(
            &grid,
            &workload,
            policy.create_seeded(6),
            &cfg,
            &mut checker,
        );
        assert_eq!(r.completed, 6, "{policy}");
        checker.assert_clean();
        checker.assert_drained();
        assert_eq!(checker.dispatches, r.counters.replicas_launched, "{policy}");
    }
}

/// The correlated-outage path honours the same invariants: no machine is
/// double-failed, kills match occupants, and repairs restore machines that
/// were actually down.
#[test]
fn invariants_hold_under_correlated_outages() {
    use dgsched_des::dist::DistConfig;
    use dgsched_grid::{CheckpointConfig, GridConfig as GC, OutageConfig};
    let grid_cfg = GC {
        total_power: 200.0,
        heterogeneity: Heterogeneity::HET,
        availability: Availability::MED,
        checkpoint: CheckpointConfig::default(),
        outages: Some(OutageConfig {
            mtbo: 6_000.0,
            duration: DistConfig::NormalTrunc {
                mean: 1_200.0,
                sd: 200.0,
            },
            fraction: 0.6,
        }),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let grid = grid_cfg.build(&mut rng);
    let workload = WorkloadSpec {
        bot_type: BotType {
            granularity: 20_000.0,
            app_size: 120_000.0,
            jitter: 0.5,
        },
        intensity: Intensity::Medium,
        count: 6,
    }
    .generate(&grid_cfg, &mut rng);
    for policy in [
        PolicyKind::FcfsShare,
        PolicyKind::LongIdle,
        PolicyKind::FcfsExcl,
    ] {
        let mut checker = if policy == PolicyKind::FcfsExcl {
            CheckingObserver::exclusive()
        } else {
            CheckingObserver::with_threshold(2)
        };
        let cfg = SimConfig::with_seed(9);
        let r = simulate_observed(
            &grid,
            &workload,
            policy.create_seeded(9),
            &cfg,
            &mut checker,
        );
        assert_eq!(r.completed, 6, "{policy} under outages");
        assert!(r.counters.outages > 0, "outages must fire");
        checker.assert_clean();
        checker.assert_drained();
    }
}

#[test]
fn traces_are_deterministic_and_time_ordered() {
    let grid_cfg = GridConfig::paper(Heterogeneity::HOM, Availability::MED);
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let grid = grid_cfg.build(&mut rng);
    let workload = WorkloadSpec {
        bot_type: BotType {
            granularity: 10_000.0,
            app_size: 100_000.0,
            jitter: 0.5,
        },
        intensity: Intensity::Low,
        count: 5,
    }
    .generate(&grid_cfg, &mut rng);

    let record = || {
        let mut trace = TraceRecorder::new();
        let cfg = SimConfig::with_seed(4);
        simulate_observed(
            &grid,
            &workload,
            PolicyKind::LongIdle.create_seeded(4),
            &cfg,
            &mut trace,
        );
        trace
    };
    let a = record();
    let b = record();
    assert!(!a.is_empty());
    assert!(a.is_time_ordered(), "trace must be in event order");
    assert_eq!(a, b, "identical seeds must give identical event traces");
    // The trace must carry every lifecycle stage.
    let kinds: Vec<&str> = a
        .events
        .iter()
        .map(|e| match e {
            dgsched_core::sim::TraceEvent::Dispatch { .. } => "dispatch",
            dgsched_core::sim::TraceEvent::TaskComplete { .. } => "complete",
            dgsched_core::sim::TraceEvent::ReplicaKilled { .. } => "killed",
            dgsched_core::sim::TraceEvent::MachineFail { .. } => "fail",
            dgsched_core::sim::TraceEvent::MachineRepair { .. } => "repair",
            dgsched_core::sim::TraceEvent::BagArrival { .. } => "arrival",
            dgsched_core::sim::TraceEvent::BagComplete { .. } => "bag-complete",
            dgsched_core::sim::TraceEvent::CheckpointSaved { .. } => "checkpoint",
            dgsched_core::sim::TraceEvent::Outage { .. } => "outage",
        })
        .collect();
    for expected in [
        "dispatch",
        "complete",
        "arrival",
        "bag-complete",
        "fail",
        "repair",
    ] {
        assert!(kinds.contains(&expected), "trace lacks {expected} events");
    }
}

#[test]
fn trace_serde_round_trip() {
    let grid_cfg = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    let grid = grid_cfg.build(&mut rng);
    let workload = WorkloadSpec {
        bot_type: BotType {
            granularity: 5_000.0,
            app_size: 25_000.0,
            jitter: 0.5,
        },
        intensity: Intensity::Low,
        count: 2,
    }
    .generate(&grid_cfg, &mut rng);
    let mut trace = TraceRecorder::new();
    let cfg = SimConfig::with_seed(1);
    simulate_observed(&grid, &workload, PolicyKind::Rr.create(), &cfg, &mut trace);
    let json = serde_json::to_string(&trace).unwrap();
    let back: TraceRecorder = serde_json::from_str(&json).unwrap();
    assert_eq!(trace, back);
}
