//! The replication pool's contract: every sweep runs one pool, and the
//! pool keeps each scenario's batch plan exactly.
//!
//! * The replications computed are the batch plan up to the batch that
//!   holds the stopping index — `[0, min)`, then batches of the pool
//!   width — each computed once, whatever the width and however the
//!   workers interleave scenarios.
//! * Each scenario's journal records appear in replication order.
//! * The oracle's jobs run on the same pool and journal into the same
//!   schema: every replication and every (environment, replication,
//!   restart) is journaled exactly once, each scenario's replications in
//!   replication order and each pair's restarts in restart order, and a
//!   resumed oracle run computes only the replications and restarts its
//!   journal is missing.
//!
//! `scripts/ci.sh` runs this file at pool widths 1, 2 and 4 and under the
//! `lockcheck` witness; the tests below also pin widths explicitly.

use dgsched_core::experiment::{
    run_matrix, run_matrix_journaled, run_matrix_journaled_with, run_matrix_regret,
    run_replication, run_sweep, JournalOutcome, OracleConfig, RepGuard, Scenario, ScenarioResult,
    SweepOptions, WorkloadKind,
};
use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::SimConfig;
use dgsched_des::stats::StoppingRule;
use dgsched_grid::{Availability, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
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

fn json(results: &[ScenarioResult]) -> String {
    serde_json::to_string(results).unwrap()
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
        assert_eq!(json(&out.results), json(&reference));
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

/// An oracle run of `oracle_matrix` journaled at `path`.
fn oracle_run(path: &Path, resume: bool) -> JournalOutcome {
    let ocfg = oracle_config();
    let opts = SweepOptions {
        journal: Some(path),
        resume,
        oracle: Some(&ocfg),
        ..SweepOptions::default()
    };
    run_sweep(&oracle_matrix(), 42, &rule(), opts, |_, _, _| {}).unwrap()
}

/// The journal's records of `kind`, in file order: `(env, rep, restart)`
/// of each restart record, `(scenario, rep, 0)` of each replication
/// record.
fn records(path: &Path, kind: &str) -> Vec<(String, u64, u64)> {
    let journal = std::fs::read_to_string(path).unwrap();
    let lines = journal.lines().skip(1);
    let values = lines.map(|line| serde_json::from_str::<serde_json::Value>(line).unwrap());
    values
        .filter(|record| record["kind"] == kind)
        .map(|record| match kind {
            "restart" => (
                record["env"].as_str().unwrap().to_string(),
                record["rep"].as_u64().unwrap(),
                record["outcome"]["restart"].as_u64().unwrap(),
            ),
            _ => (
                record["scenario"].as_str().unwrap().to_string(),
                record["rep"].as_u64().unwrap(),
                0,
            ),
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
        let out = rayon::with_num_threads(width, || oracle_run(&path, false));
        let (restarts, reps) = (records(&path, "restart"), records(&path, "rep"));
        std::fs::remove_file(&path).ok();
        assert_eq!(json(&out.results), json(&reference), "width {width}");
        let stats = out.stats;
        assert_eq!(stats.restarts_written, pairs * u64::from(ocfg.restarts));
        assert_eq!(restarts.len() as u64, stats.restarts_written);
        // The sweep half is journaled too: each scenario's batch plan, in
        // replication order.
        assert_eq!(reps.len() as u64, stats.records_written);
        for r in &reference {
            let mine: Vec<u64> = reps.iter().filter(|x| x.0 == r.name).map(|x| x.1).collect();
            let plan = planned(&rule, width as u64, r.replications);
            assert_eq!(
                mine,
                (0..plan).collect::<Vec<_>>(),
                "{} at width {width}",
                r.name
            );
        }
        let mut once = restarts.clone();
        once.sort();
        once.dedup();
        assert_eq!(
            once.len(),
            restarts.len(),
            "a restart journaled twice at width {width}"
        );
        let mut per_pair: BTreeMap<(String, u64), Vec<u64>> = BTreeMap::new();
        for (env, rep, restart) in restarts {
            per_pair.entry((env, rep)).or_default().push(restart);
        }
        assert_eq!(per_pair.len() as u64, pairs);
        for (pair, restarts) in &per_pair {
            let in_order: Vec<u64> = (0..u64::from(ocfg.restarts)).collect();
            assert_eq!(restarts, &in_order, "{pair:?} at width {width}");
        }
    }
}

/// A killed oracle run, resumed at another width, computes only the
/// replications and restarts its journal is missing.
#[test]
fn resumed_oracle_computes_only_the_missing_restarts() {
    let scenarios = oracle_matrix();
    let (rule, ocfg) = (rule(), oracle_config());
    let reference = run_matrix_regret(&scenarios, 42, &rule, &ocfg);
    let path = tmp("oracle-resume");
    let full = rayon::with_num_threads(4, || oracle_run(&path, false)).stats;
    // Keep the header and every other record, as if the run had died
    // with records of both kinds still to write.
    let journal = std::fs::read_to_string(&path).unwrap();
    let kept: Vec<&str> = journal
        .lines()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, line)| line)
        .collect();
    std::fs::write(&path, kept.join("\n") + "\n").unwrap();
    let (kept_restarts, kept_reps) = (records(&path, "restart"), records(&path, "rep"));
    assert!(!kept_restarts.is_empty() && !kept_reps.is_empty());
    let out = rayon::with_num_threads(2, || oracle_run(&path, true));
    let after = records(&path, "restart");
    std::fs::remove_file(&path).ok();
    assert_eq!(json(&out.results), json(&reference));
    let stats = out.stats;
    assert_eq!(stats.restarts_replayed, kept_restarts.len() as u64);
    assert_eq!(
        stats.restarts_written,
        full.restarts_written - kept_restarts.len() as u64
    );
    // Only each scenario's contiguous journaled prefix replays; the rest
    // of its replications are computed once more.
    let prefix = |name: &str| {
        let reps: Vec<u64> = kept_reps
            .iter()
            .filter(|r| r.0 == name)
            .map(|r| r.1)
            .collect();
        (0..).zip(&reps).take_while(|(i, rep)| i == *rep).count() as u64
    };
    let replayable: u64 = scenarios.iter().map(|s| prefix(&s.name)).sum();
    assert_eq!(stats.records_replayed, replayable);
    assert_eq!(
        stats.records_written,
        full.records_written - replayable,
        "only the missing replications run"
    );
    // The fresh records are exactly the missing restarts.
    let mut fresh = after[kept_restarts.len()..].to_vec();
    fresh.extend(kept_restarts);
    fresh.sort();
    fresh.dedup();
    assert_eq!(
        fresh.len() as u64,
        full.restarts_written,
        "every restart journaled once"
    );
}
