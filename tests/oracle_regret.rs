//! Hindsight-oracle regret battery: for every policy × platform cell the
//! oracle turnaround must lower-bound the best observed policy on the
//! same realized trace (so regret ≥ 0 holds cell-by-cell, not just on
//! average), and the search itself must be byte-identical across pool
//! widths and across resumed restarts — the regret numbers are published
//! artifacts and inherit the repo's determinism contract.

use dgsched_core::experiment::{
    oracle_replication, run_matrix_regret, run_sweep, JournalOutcome, OracleConfig, Scenario,
    SweepOptions, WorkloadKind,
};
use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::SimConfig;
use dgsched_des::stats::StoppingRule;
use dgsched_grid::{Availability, CheckpointConfig, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec};
use std::path::{Path, PathBuf};

fn small_grid(heterogeneity: Heterogeneity, availability: Availability) -> GridConfig {
    GridConfig {
        total_power: 80.0,
        heterogeneity,
        availability,
        checkpoint: CheckpointConfig::default(),
        outages: None,
    }
}

/// Hom/Het × High/Low — the paper's platform axis.
fn platforms() -> Vec<(&'static str, GridConfig)> {
    vec![
        (
            "Hom-High",
            small_grid(Heterogeneity::HOM, Availability::HIGH),
        ),
        ("Hom-Low", small_grid(Heterogeneity::HOM, Availability::LOW)),
        (
            "Het-High",
            small_grid(Heterogeneity::HET, Availability::HIGH),
        ),
        ("Het-Low", small_grid(Heterogeneity::HET, Availability::LOW)),
    ]
}

fn scenario(policy: PolicyKind, name: &str, grid: GridConfig) -> Scenario {
    Scenario {
        name: format!("oracle {name} {policy}"),
        grid,
        workload: WorkloadKind::Single(WorkloadSpec {
            bot_type: BotType {
                granularity: 2_000.0,
                app_size: 16_000.0,
                jitter: 0.5,
            },
            intensity: Intensity::Medium,
            count: 5,
        }),
        policy,
        sim: SimConfig::default(),
    }
}

fn two_reps() -> StoppingRule {
    StoppingRule {
        min_replications: 2,
        max_replications: 2,
        ..Default::default()
    }
}

fn tiny_oracle() -> OracleConfig {
    OracleConfig {
        restarts: 4,
        iters: 40,
        seed: 7,
        replications: 2,
    }
}

fn json(v: &impl serde::Serialize) -> String {
    serde_json::to_string(v).unwrap()
}

/// Per-replication, per-platform: the oracle never loses to any of the
/// seven policies replayed on the same trace — the ≤ that makes regret
/// non-negative by construction.
#[test]
fn oracle_bounds_every_policy_on_every_platform() {
    let ocfg = tiny_oracle();
    for (pname, grid) in platforms() {
        for rep in 0..ocfg.replications {
            let orep = oracle_replication(&scenario(PolicyKind::Rr, pname, grid), 2008, rep, &ocfg);
            assert_eq!(
                orep.policy_turnarounds.len(),
                7,
                "{pname}: all seven policies replayed"
            );
            assert!(orep.oracle_turnaround > 0.0, "{pname} rep {rep}");
            for (policy, t) in &orep.policy_turnarounds {
                if let Some(t) = t {
                    assert!(
                        orep.oracle_turnaround <= *t,
                        "{pname} rep {rep}: oracle {} beaten by {policy} {t}",
                        orep.oracle_turnaround
                    );
                }
            }
        }
    }
}

/// The full 7-policy × 4-platform matrix: every cell reports a regret
/// section with mean regret ≥ 0, and cells sharing a platform share the
/// oracle (the environment is policy-independent, so the search runs once
/// per platform).
#[test]
fn regret_is_nonnegative_across_the_full_matrix() {
    let scenarios: Vec<Scenario> = platforms()
        .into_iter()
        .flat_map(|(pname, grid)| {
            PolicyKind::all_with_baselines()
                .into_iter()
                .map(move |policy| scenario(policy, pname, grid))
        })
        .collect();
    assert_eq!(scenarios.len(), 28);
    let results = run_matrix_regret(&scenarios, 2008, &two_reps(), &tiny_oracle());
    for r in &results {
        let reg = r
            .regret
            .as_ref()
            .unwrap_or_else(|| panic!("{}: regret section missing", r.name));
        assert!(
            reg.regret.mean >= 0.0,
            "{}: mean regret {} < 0",
            r.name,
            reg.regret.mean
        );
        assert!(reg.oracle_turnaround.mean > 0.0, "{}", r.name);
        assert_eq!(reg.replications, 2, "{}", r.name);
        assert!(reg.measured_replications <= reg.replications, "{}", r.name);
        assert!(reg.search_evaluations > 0, "{}", r.name);
    }
    // Policies on the same platform share one oracle computation.
    for chunk in results.chunks(7) {
        let first = json(&chunk[0].regret.as_ref().unwrap().oracle_turnaround);
        for r in &chunk[1..] {
            assert_eq!(
                first,
                json(&r.regret.as_ref().unwrap().oracle_turnaround),
                "{}: oracle differs within its platform group",
                r.name
            );
        }
    }
}

/// The whole regret matrix — baseline sweep plus oracle search — is
/// byte-identical at pool widths 1 and 4.
#[test]
fn regret_matrix_is_byte_identical_across_pool_widths() {
    let scenarios: Vec<Scenario> = PolicyKind::all_with_baselines()
        .into_iter()
        .map(|p| {
            scenario(
                p,
                "Het-Low",
                small_grid(Heterogeneity::HET, Availability::LOW),
            )
        })
        .collect();
    let rule = two_reps();
    let ocfg = tiny_oracle();
    let w1 = rayon::with_num_threads(1, || run_matrix_regret(&scenarios, 2008, &rule, &ocfg));
    let w4 = rayon::with_num_threads(4, || run_matrix_regret(&scenarios, 2008, &rule, &ocfg));
    assert_eq!(
        json(&w1),
        json(&w4),
        "oracle search must not depend on pool width"
    );
}

fn journal_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dgsched-oracle-regret-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}.jsonl", std::process::id()))
}

/// The regret sweep journaled at `path`.
fn journaled(scenarios: &[Scenario], path: &Path, resume: bool) -> JournalOutcome {
    let ocfg = tiny_oracle();
    let opts = SweepOptions {
        journal: Some(path),
        resume,
        oracle: Some(&ocfg),
        ..SweepOptions::default()
    };
    run_sweep(scenarios, 2008, &two_reps(), opts, |_, _, _| {}).unwrap()
}

/// A search interrupted mid-restart and resumed — even at a different
/// pool width — folds to the same bytes as an uninterrupted run.
#[test]
fn resumed_restarts_are_byte_identical_even_across_widths() {
    let scenarios = vec![scenario(
        PolicyKind::Sbf,
        "Hom-High",
        small_grid(Heterogeneity::HOM, Availability::HIGH),
    )];
    let rule = two_reps();
    let ocfg = tiny_oracle();
    let straight = rayon::with_num_threads(4, || run_matrix_regret(&scenarios, 2008, &rule, &ocfg));

    // Full journaled run at width 4, then crash-truncate the journal to
    // the header plus three restart records.
    let path = journal_path("resume");
    std::fs::remove_file(&path).ok();
    let full = rayon::with_num_threads(4, || journaled(&scenarios, &path, false));
    let stats = full.stats;
    assert_eq!(
        stats.restarts_written,
        u64::from(ocfg.restarts) * ocfg.replications
    );
    assert_eq!(
        json(&full.results),
        json(&straight),
        "journaling is passive"
    );

    let text = std::fs::read_to_string(&path).unwrap();
    let restarts = text
        .lines()
        .skip(1)
        .filter(|l| l.contains("\"kind\":\"restart\""));
    let kept: Vec<&str> = text.lines().take(1).chain(restarts.take(3)).collect();
    std::fs::write(&path, kept.join("\n") + "\n").unwrap();

    // Resume at width 1: three restarts replay, the rest recompute.
    let resumed = rayon::with_num_threads(1, || journaled(&scenarios, &path, true));
    let stats = resumed.stats;
    assert_eq!(stats.resumes, 1);
    assert_eq!(stats.restarts_replayed, 3);
    assert_eq!(
        stats.restarts_written,
        u64::from(ocfg.restarts) * ocfg.replications - 3
    );
    assert_eq!(
        json(&resumed.results),
        json(&straight),
        "resumed search must be byte-identical to an uninterrupted one"
    );
    std::fs::remove_file(&path).ok();
}

/// A torn final record — half a JSON line, as a crash mid-append leaves —
/// is dropped on resume and the run still converges to the same bytes.
#[test]
fn torn_journal_tail_is_recovered() {
    let scenarios = vec![scenario(
        PolicyKind::Random,
        "Hom-Low",
        small_grid(Heterogeneity::HOM, Availability::LOW),
    )];
    let rule = two_reps();
    let ocfg = tiny_oracle();
    let straight = run_matrix_regret(&scenarios, 2008, &rule, &ocfg);

    let path = journal_path("torn");
    std::fs::remove_file(&path).ok();
    journaled(&scenarios, &path, false);
    let text = std::fs::read_to_string(&path).unwrap();
    let truncated = &text[..text.len() - text.len() / 3];
    std::fs::write(&path, truncated).unwrap();

    let resumed = journaled(&scenarios, &path, true);
    assert_eq!(resumed.stats.torn_tails, 1);
    assert_eq!(json(&resumed.results), json(&straight));
    std::fs::remove_file(&path).ok();
}
