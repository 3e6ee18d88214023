//! Quickstart: simulate one multi-BoT workload on a desktop grid and print
//! per-bag and aggregate results.
//!
//! ```text
//! cargo run --release -p dgsched-core --example quickstart
//! ```

use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::{simulate, SimConfig};
use dgsched_grid::{Availability, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec};
use rand::SeedableRng;

fn main() {
    // 1. A desktop grid: ~100 heterogeneous machines totalling power 1000,
    //    75 % available, with a checkpoint server (the paper's Het-MedAvail).
    let grid_cfg = GridConfig::paper(Heterogeneity::HET, Availability::MED);
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let grid = grid_cfg.build(&mut rng);
    println!(
        "grid: {} machines, nominal power {:.0}, effective power {:.0}",
        grid.len(),
        grid.machines.iter().map(|m| m.power).sum::<f64>(),
        grid_cfg.effective_power()
    );

    // 2. A workload: 20 bags of 25 000 s-granularity tasks arriving as a
    //    Poisson stream sized for 50 % grid utilization.
    let spec = WorkloadSpec {
        bot_type: BotType::paper(25_000.0),
        intensity: Intensity::Low,
        count: 20,
    };
    let workload = spec.generate(&grid_cfg, &mut rng);
    println!(
        "workload: {} bags, {} tasks, λ = {:.2e} bags/s\n",
        workload.len(),
        workload.total_tasks(),
        workload.lambda
    );

    // 3. Schedule it with the LongIdle bag-selection policy on WQR-FT.
    let result = simulate(
        &grid,
        &workload,
        PolicyKind::LongIdle,
        &SimConfig::with_seed(42),
    );

    println!("bag  arrival(s)  waiting(s)  makespan(s)  turnaround(s)");
    for b in &result.bags {
        println!(
            "{:>3}  {:>10.0}  {:>10.0}  {:>11.0}  {:>13.0}",
            b.bag, b.arrival, b.waiting, b.makespan, b.turnaround
        );
    }
    println!(
        "\navg turnaround {:.0} s (waiting {:.0} + makespan {:.0})",
        result.mean_turnaround(),
        result.mean_waiting(),
        result.mean_makespan()
    );
    println!(
        "replicas launched {}, killed by failures {}, killed as siblings {}",
        result.counters.replicas_launched,
        result.counters.replicas_killed_failure,
        result.counters.replicas_killed_sibling
    );
    println!(
        "checkpoints written {}, wasted machine occupancy {:.1} %",
        result.counters.checkpoints_written,
        result.wasted_fraction() * 100.0
    );
}
