//! The replication pool's contract: every sweep runs one pool, and the
//! pool keeps each scenario's batch plan exactly.
//!
//! * The replications computed are the batch plan up to the batch that
//!   holds the stopping index — `[0, min)`, then batches of the pool
//!   width — each computed once, whatever the width and however the
//!   workers interleave scenarios.
//! * Each scenario's journal records appear in replication order.
//! * With `DGSCHED_TRACE=1` every measured result carries its metrics.
//! * The oracle's jobs run on the same pool: every (environment,
//!   replication, restart) is journaled exactly once, each pair's
//!   restarts in restart order, and a resumed search computes only the
//!   restarts its journal is missing.
//!
//! `scripts/ci.sh` runs this file at pool widths 1, 2 and 4 and under the
//! `lockcheck` witness; the tests below also pin widths explicitly.

use dgsched_core::experiment::{
    run_matrix, run_matrix_journaled, run_matrix_journaled_with, run_matrix_regret,
    run_matrix_regret_journaled, run_replication, OracleConfig, RepGuard, Scenario, ScenarioResult,
    WorkloadKind,
};
use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::SimConfig;
use dgsched_des::stats::StoppingRule;
use dgsched_grid::{Availability, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

fn scenario(name: &str, policy: PolicyKind, app_size: f64) -> Scenario {
    Scenario {
        name: name.into(),
        grid: GridConfig {
            total_power: 100.0,
            heterogeneity: Heterogeneity::HET,
            availability: Availability::HIGH,
            checkpoint: Default::default(),
            outages: None,
        },
        workload: WorkloadKind::Single(WorkloadSpec {
            bot_type: BotType {
                granularity: 1_000.0,
                app_size,
                jitter: 0.5,
            },
            intensity: Intensity::Low,
            count: 6,
        }),
        policy,
        sim: SimConfig::default(),
    }
}

/// Five scenarios whose stopping indices differ: one saturates in its
/// first batch, the others stop wherever the loose precision target is
/// met, mid-batch or at the cap.
fn matrix() -> Vec<Scenario> {
    let mut hopeless = scenario("pool-hopeless", PolicyKind::FcfsExcl, 2.0e6);
    hopeless.sim.horizon = Some(5_000.0);
    vec![
        scenario("pool-rr", PolicyKind::Rr, 20_000.0),
        hopeless,
        scenario("pool-share", PolicyKind::FcfsShare, 20_000.0),
        scenario("pool-longidle", PolicyKind::LongIdle, 20_000.0),
        scenario("pool-sbf", PolicyKind::Sbf, 20_000.0),
    ]
}

fn rule() -> StoppingRule {
    StoppingRule {
        max_relative_error: 0.1,
        min_replications: 2,
        max_replications: 9,
        ..Default::default()
    }
}

/// The results' JSON without the metrics snapshots, which only the
/// `DGSCHED_TRACE` test below turns on (tests share the environment).
fn bare(results: &[ScenarioResult]) -> String {
    let mut results = results.to_vec();
    for r in &mut results {
        r.metrics = None;
    }
    serde_json::to_string(&results).unwrap()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dgsched-replication-pool");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}

/// How many replications the batch plan computes for a scenario that
/// stops at `stop`: every batch up to the one holding replication
/// `stop − 1`.
fn planned(rule: &StoppingRule, width: u64, stop: u64) -> u64 {
    let mut end = rule.min_replications;
    while end < stop {
        end = (end + width).min(rule.max_replications);
    }
    end
}

#[test]
fn computed_replications_are_the_batch_plan() {
    let scenarios = matrix();
    let rule = rule();
    let reference = run_matrix(&scenarios, 42, &rule);
    for width in [1usize, 2, 4] {
        let path = tmp(&format!("plan-w{width}"));
        let computed = Mutex::new(BTreeMap::<(String, u64), u32>::new());
        let out = rayon::with_num_threads(width, || {
            run_matrix_journaled_with(
                &scenarios,
                42,
                &rule,
                &path,
                false,
                RepGuard::default(),
                |s: &Scenario, seed: u64, rep: u64| {
                    *computed
                        .lock()
                        .unwrap()
                        .entry((s.name.clone(), rep))
                        .or_default() += 1;
                    run_replication(s, seed, rep)
                },
            )
        })
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(bare(&out.results), bare(&reference));
        let computed = computed.into_inner().unwrap();
        assert!(
            computed.values().all(|&n| n == 1),
            "a replication computed twice at width {width}: {computed:?}"
        );
        for r in &out.results {
            let reps: Vec<u64> = computed
                .keys()
                .filter(|(name, _)| *name == r.name)
                .map(|(_, rep)| *rep)
                .collect();
            let expect: Vec<u64> = (0..planned(&rule, width as u64, r.replications)).collect();
            assert_eq!(
                reps, expect,
                "{} stopped at {} at width {width}",
                r.name, r.replications
            );
        }
        assert_eq!(out.stats.records_written, computed.len() as u64);
    }
    // The matrix exercises a stop in the first batch, a stop before the
    // cap and a scenario run to the cap.
    let stops: Vec<u64> = reference.iter().map(|r| r.replications).collect();
    assert!(stops.contains(&rule.min_replications), "{stops:?}");
    assert!(
        stops
            .iter()
            .any(|&s| s > rule.min_replications && s < rule.max_replications),
        "{stops:?}"
    );
}

#[test]
fn journal_records_are_in_replication_order_per_scenario() {
    let scenarios = matrix();
    let path = tmp("order-w4");
    let out = rayon::with_num_threads(4, || {
        run_matrix_journaled(&scenarios, 42, &rule(), &path, false, RepGuard::default())
    })
    .unwrap();
    let journal = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut reps: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for line in journal.lines().skip(1) {
        let record: serde_json::Value = serde_json::from_str(line).unwrap();
        let name = record["scenario"].as_str().unwrap().to_string();
        reps.entry(name)
            .or_default()
            .push(record["rep"].as_u64().unwrap());
    }
    assert_eq!(reps.len(), scenarios.len());
    for (name, reps) in &reps {
        let in_order: Vec<u64> = (0..reps.len() as u64).collect();
        assert_eq!(reps, &in_order, "{name}'s records out of order");
    }
    let total: usize = reps.values().map(Vec::len).sum();
    assert_eq!(total as u64, out.stats.records_written);
}

/// The only test here that sets `DGSCHED_TRACE`; the others compare
/// results without their metrics.
#[test]
fn trace_toggle_attaches_metrics_at_every_width() {
    let scenarios = matrix();
    std::env::set_var("DGSCHED_TRACE", "1");
    let runs: Vec<Vec<ScenarioResult>> = [1usize, 2, 4]
        .iter()
        .map(|&w| rayon::with_num_threads(w, || run_matrix(&scenarios, 42, &rule())))
        .collect();
    std::env::remove_var("DGSCHED_TRACE");
    for results in &runs {
        for r in results {
            assert_eq!(
                r.metrics.is_some(),
                !r.saturated,
                "{}: a measured result carries its metrics, a saturated one none",
                r.name
            );
        }
        assert_eq!(
            serde_json::to_string(results).unwrap(),
            serde_json::to_string(&runs[0]).unwrap()
        );
    }
}

fn oracle_config() -> OracleConfig {
    OracleConfig {
        restarts: 3,
        iters: 6,
        seed: 9,
        replications: 2,
    }
}

/// Two environment groups: the matrix's four measured scenarios share
/// one platform, and one more scenario runs on a low-availability one.
fn oracle_matrix() -> Vec<Scenario> {
    let mut scenarios = matrix();
    scenarios.remove(1);
    let mut low = scenario("pool-low-rr", PolicyKind::Rr, 20_000.0);
    low.grid.availability = Availability::LOW;
    scenarios.push(low);
    scenarios
}

/// The journal's restart records as `(env, rep, restart)`, in file order.
fn restart_records(path: &PathBuf) -> Vec<(String, u64, u64)> {
    let journal = std::fs::read_to_string(path).unwrap();
    journal
        .lines()
        .skip(1)
        .map(|line| {
            let record: serde_json::Value = serde_json::from_str(line).unwrap();
            (
                record["env"].as_str().unwrap().to_string(),
                record["rep"].as_u64().unwrap(),
                record["outcome"]["restart"].as_u64().unwrap(),
            )
        })
        .collect()
}

#[test]
fn oracle_restarts_are_journaled_once_each_in_restart_order() {
    let scenarios = oracle_matrix();
    let (rule, ocfg) = (rule(), oracle_config());
    let reference = run_matrix_regret(&scenarios, 42, &rule, &ocfg);
    let pairs = 2 * ocfg.replications;
    for width in [1usize, 2, 4] {
        let path = tmp(&format!("oracle-w{width}"));
        let (results, stats) = rayon::with_num_threads(width, || {
            run_matrix_regret_journaled(&scenarios, 42, &rule, &ocfg, &path, false)
        })
        .unwrap();
        let records = restart_records(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(bare(&results), bare(&reference), "width {width}");
        assert_eq!(stats.restarts_written, pairs * u64::from(ocfg.restarts));
        let mut once = records.clone();
        once.sort();
        once.dedup();
        assert_eq!(
            once.len(),
            records.len(),
            "a restart journaled twice at width {width}"
        );
        assert_eq!(records.len() as u64, stats.restarts_written);
        let mut per_pair: BTreeMap<(String, u64), Vec<u64>> = BTreeMap::new();
        for (env, rep, restart) in records {
            per_pair.entry((env, rep)).or_default().push(restart);
        }
        assert_eq!(per_pair.len() as u64, pairs);
        for (pair, restarts) in &per_pair {
            let in_order: Vec<u64> = (0..u64::from(ocfg.restarts)).collect();
            assert_eq!(restarts, &in_order, "{pair:?} at width {width}");
        }
    }
}

#[test]
fn resumed_oracle_computes_only_the_missing_restarts() {
    let scenarios = oracle_matrix();
    let (rule, ocfg) = (rule(), oracle_config());
    let reference = run_matrix_regret(&scenarios, 42, &rule, &ocfg);
    let path = tmp("oracle-resume");
    let total = rayon::with_num_threads(4, || {
        run_matrix_regret_journaled(&scenarios, 42, &rule, &ocfg, &path, false)
    })
    .unwrap()
    .1
    .restarts_written;
    // Keep the header and every other restart record.
    let journal = std::fs::read_to_string(&path).unwrap();
    let kept: Vec<&str> = journal
        .lines()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, line)| line)
        .collect();
    std::fs::write(&path, kept.join("\n") + "\n").unwrap();
    let kept = restart_records(&path);
    let (results, stats) = rayon::with_num_threads(2, || {
        run_matrix_regret_journaled(&scenarios, 42, &rule, &ocfg, &path, true)
    })
    .unwrap();
    let after = restart_records(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(bare(&results), bare(&reference));
    assert_eq!(stats.restarts_replayed, kept.len() as u64);
    assert_eq!(stats.restarts_written, total - kept.len() as u64);
    // The fresh records are exactly the missing restarts.
    let mut fresh = after[kept.len()..].to_vec();
    fresh.extend(kept);
    fresh.sort();
    fresh.dedup();
    assert_eq!(fresh.len() as u64, total, "every restart journaled once");
}
