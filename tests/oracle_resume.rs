//! Snapshot-resumed oracle evaluations are exact: on the regret battery's
//! platforms (Hom/Het × High/Low), every evaluation of seeded oracle
//! searches — the full replays that start each restart, the candidates
//! resumed from a neighbour's snapshot, and those whose run provably
//! equals their neighbour's — must serialise a `RunResult` byte-identical
//! to a full `simulate_replayed` of the same bag order.

use dgsched_core::experiment::{check_resumed_search, OracleConfig, Scenario, WorkloadKind};
use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::SimConfig;
use dgsched_grid::{Availability, CheckpointConfig, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec};

fn scenario(
    platform: &str,
    heterogeneity: Heterogeneity,
    availability: Availability,
    bags: usize,
) -> Scenario {
    Scenario {
        name: format!("resume {platform} {bags} bags"),
        grid: GridConfig {
            total_power: 80.0,
            heterogeneity,
            availability,
            checkpoint: CheckpointConfig::default(),
            outages: None,
        },
        workload: WorkloadKind::Single(WorkloadSpec {
            bot_type: BotType {
                granularity: 2_000.0,
                app_size: 16_000.0,
                jitter: 0.5,
            },
            intensity: Intensity::Medium,
            count: bags,
        }),
        policy: PolicyKind::Rr,
        sim: SimConfig::default(),
    }
}

#[test]
fn resumed_evaluations_equal_full_replays() {
    let ocfg = OracleConfig {
        restarts: 2,
        iters: 40,
        seed: 7,
        replications: 2,
    };
    let mut resumed = 0;
    for (het, heterogeneity) in [("Hom", Heterogeneity::HOM), ("Het", Heterogeneity::HET)] {
        for (avail, availability) in [("High", Availability::HIGH), ("Low", Availability::LOW)] {
            for bags in [5, 12] {
                let s = scenario(&format!("{het}-{avail}"), heterogeneity, availability, bags);
                for rep in 0..ocfg.replications {
                    let check = check_resumed_search(&s, 2008, rep, &ocfg)
                        .unwrap_or_else(|e| panic!("{} rep {rep}: {e}", s.name));
                    assert!(check.full >= u64::from(ocfg.restarts), "{check:?}");
                    resumed += check.resumed;
                }
            }
        }
    }
    assert!(resumed > 0, "no evaluation was resumed from a snapshot");
}
