//! Replica churn per policy on large homogeneous fleets: why FCFS-Excl
//! costs more wall time than the other policies as the fleet grows.
//!
//! Runs the benchmark's `fleet-sweep` tiers — 1 000 always-available Hom
//! machines × 50 bags × 5 replications, then 10 000 machines with lazy
//! availability × 5 bags of n·ln n tasks × 1 replication — under all
//! seven policies, and prints per policy the replicas launched, the
//! siblings killed, the popped events and the simulator's wall time per
//! launch and per event.
//!
//! ```text
//! cargo run --release -p dgsched-core --example replica_churn -- 2008
//! ```
//!
//! The optional argument is the base seed (default 2008).

use dgsched_core::experiment::{replication_inputs, Scenario, WorkloadKind};
use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::{simulate, SimConfig};
use dgsched_grid::{Availability, CheckpointConfig, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec};
use std::time::Instant;

/// One fleet tier under `policy`, sized as in the benchmark.
fn fleet(machines: usize, bags: usize, app_size: f64, lazy: bool, policy: PolicyKind) -> Scenario {
    Scenario {
        name: format!("fleet-{machines} {policy}"),
        grid: GridConfig {
            total_power: 10.0 * machines as f64,
            heterogeneity: Heterogeneity::HOM,
            availability: Availability::HIGH,
            checkpoint: CheckpointConfig::default(),
            outages: None,
        },
        workload: WorkloadKind::Single(WorkloadSpec {
            bot_type: BotType {
                granularity: 5_000.0,
                app_size,
                jitter: 0.5,
            },
            intensity: Intensity::Low,
            count: bags,
        }),
        policy,
        sim: SimConfig {
            lazy_availability: lazy,
            ..SimConfig::default()
        },
    }
}

fn main() {
    let seed: u64 = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("the base seed is an unsigned integer"),
        None => 2008,
    };
    let n = 10_000f64;
    let tiers = [
        (1_000, 50, 250_000.0, false, 5),
        (10_000, 5, 15_000.0 * n * n.ln() / 1_000f64.ln(), true, 1),
    ];
    for (machines, bags, app_size, lazy, reps) in tiers {
        println!("{machines} machines, {bags} bags, {reps} replication(s), seed {seed}");
        println!(
            "{:<11} {:>10} {:>10} {:>10} {:>8} {:>9} {:>8}",
            "policy", "launched", "sib-kills", "events", "wall s", "ns/launch", "ns/event"
        );
        for policy in PolicyKind::all_with_baselines() {
            let scenario = fleet(machines, bags, app_size, lazy, policy);
            let (mut launched, mut killed, mut events, mut wall) = (0, 0, 0, 0.0);
            for rep in 0..reps {
                let (grid, workload, cfg) = replication_inputs(&scenario, seed, rep);
                let start = Instant::now();
                let result = simulate(&grid, &workload, policy, &cfg);
                wall += start.elapsed().as_secs_f64();
                launched += result.counters.replicas_launched;
                killed += result.counters.replicas_killed_sibling;
                events += result.events;
            }
            println!(
                "{:<11} {launched:>10} {killed:>10} {events:>10} {wall:>8.3} {:>9.0} {:>8.0}",
                policy.paper_name(),
                wall * 1e9 / launched as f64,
                wall * 1e9 / events as f64,
            );
        }
        println!();
    }
}
