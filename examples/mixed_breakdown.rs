//! E4's per-class breakdown: within one mixed-granularity stream, which
//! granularity classes suffer under which policy?
//!
//! Runs a uniform mix of the four paper granularities at high intensity
//! on the Hom-HighAvail platform — 120 bags, the first 10 excluded as
//! warm-up — for 5 replications under each of the five policies, and
//! prints each class's mean turnaround (the mean over replications of
//! each replication's per-class mean). The per-policy totals of the same
//! experiment are `experiments/e4-mixed.json`.
//!
//! ```text
//! cargo run --release -p dgsched-core --example mixed_breakdown -- 2008
//! ```
//!
//! The optional argument is the base seed (default 2008).

use dgsched_core::experiment::{run_replication, Scenario, Table, WorkloadKind};
use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::SimConfig;
use dgsched_des::stats::Welford;
use dgsched_grid::{Availability, GridConfig, Heterogeneity};
use dgsched_workload::{Intensity, MixSpec, PAPER_GRANULARITIES};
use std::collections::BTreeMap;

const BAGS: usize = 120;
const WARMUP: usize = 10;
const REPLICATIONS: u64 = 5;

fn main() {
    let seed: u64 = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("the base seed is an unsigned integer"),
        None => 2008,
    };
    let mut table = Table::new(vec!["policy", "g=1000", "g=5000", "g=25000", "g=125000"]);
    for policy in PolicyKind::all() {
        let scenario = Scenario {
            name: format!("breakdown {policy}"),
            grid: GridConfig::paper(Heterogeneity::HOM, Availability::HIGH),
            workload: WorkloadKind::Mixed(MixSpec::paper_uniform(Intensity::High, BAGS)),
            policy,
            sim: SimConfig {
                warmup_bags: WARMUP,
                ..SimConfig::default()
            },
        };
        let mut per_class: BTreeMap<u64, Welford> = BTreeMap::new();
        for rep in 0..REPLICATIONS {
            let r = run_replication(&scenario, seed, rep);
            for (g, w) in r.turnaround_by_granularity() {
                per_class.entry(g).or_default().push(w.mean());
            }
        }
        let mut row = vec![policy.paper_name().to_string()];
        for &g in &PAPER_GRANULARITIES {
            let cell = per_class.get(&(g as u64));
            row.push(cell.map_or_else(|| "—".into(), |w| format!("{:.0}", w.mean())));
        }
        table.push_row(row);
    }
    println!("## E4 — per-class mean turnaround within the mix (Hom-HighAvail, high intensity)\n");
    print!("{}", table.to_markdown());
    println!(
        "\n(uniform mix of granularities {{1000, 5000, 25000, 125000}}; \
         bags/run={BAGS}, warmup={WARMUP}, replications={REPLICATIONS}, seed={seed})"
    );
}
