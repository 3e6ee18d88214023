//! Enterprise desktop grid capacity planning: how hard can we load the
//! company's desktops before turnaround degrades?
//!
//! Enterprise grids are the paper's HighAvail configuration ("a relatively
//! high stability", §4.3). This example fixes the platform and the
//! application type, sweeps the offered load from 30 % to 90 % utilization,
//! and reports how turnaround inflates relative to an unloaded grid — the
//! curve a capacity planner needs.
//!
//! ```text
//! cargo run --release -p dgsched-core --example enterprise_grid
//! ```

use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::{simulate, SimConfig};
use dgsched_des::time::SimTime;
use dgsched_grid::{Availability, GridConfig, Heterogeneity};
use dgsched_workload::{bag_demand, ArrivalModel, BotType, Workload};
use dgsched_workload::{BagOfTasks, BotId};
use rand::SeedableRng;

/// Builds a workload at an arbitrary utilization (the paper's three levels
/// are just special cases of λ = U / D).
fn workload_at(u: f64, bot_type: BotType, count: usize, grid: &GridConfig, seed: u64) -> Workload {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let lambda = u / bag_demand(bot_type.app_size, grid);
    let arrivals = ArrivalModel::Poisson.arrival_times(lambda, count, &mut rng);
    let bags = arrivals
        .into_iter()
        .enumerate()
        .map(|(i, at)| BagOfTasks {
            id: BotId(i as u32),
            arrival: SimTime::new(at),
            tasks: bot_type.generate_tasks(&mut rng),
            granularity: bot_type.granularity,
        })
        .collect();
    Workload {
        bags,
        lambda,
        label: format!("U={u}"),
    }
}

fn main() {
    let grid_cfg = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
    let bot_type = BotType::paper(5_000.0);
    let policy = PolicyKind::LongIdle;
    let bags = 40;

    // Baseline: a single bag on the empty grid ≈ pure makespan.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let grid = grid_cfg.build(&mut rng);
    let solo = workload_at(0.01, bot_type, 1, &grid_cfg, 99);
    let baseline = simulate(&grid, &solo, policy, &SimConfig::with_seed(1)).mean_turnaround();
    println!(
        "enterprise platform: Hom-HighAvail, g=5000 s, policy {}, unloaded turnaround {:.0} s\n",
        policy.paper_name(),
        baseline
    );

    println!("utilization  avg turnaround  slowdown vs unloaded");
    for u in [0.3, 0.5, 0.7, 0.8, 0.9] {
        let workload = workload_at(u, bot_type, bags, &grid_cfg, 7);
        let r = simulate(&grid, &workload, policy, &SimConfig::with_seed(7));
        let label = if r.saturated { " (saturated)" } else { "" };
        println!(
            "{:>10.0}%  {:>14.0}  {:>19.2}x{label}",
            u * 100.0,
            r.mean_turnaround(),
            r.mean_turnaround() / baseline
        );
    }
    println!(
        "\n→ the knee of this curve is the sustainable submission rate; past it\n  waiting time dominates turnaround (§3.3's motivation for LongIdle)."
    );
}
