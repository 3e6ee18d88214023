//! Crash-safety and resume-determinism of the replication journal.
//!
//! The contract under test: `run_matrix_journaled` produces
//! **byte-identical** `ScenarioResult` JSON whether the sweep ran straight
//! through, or was killed at an arbitrary byte of the journal and resumed
//! — any number of times, at any pool width. A crash is simulated by
//! truncating the journal file mid-record (exactly what a killed process
//! leaves behind); the resumed sweep must detect the torn tail, drop it,
//! replay the intact prefix and recompute the rest.
//!
//! The same holds for sweeps fed by the serve daemon's replication index,
//! which replay replications another sweep journaled: the index is
//! rebuilt from the journals on disk, so a killed sweep resumes from its
//! own journal plus every other journal in the directory.
//!
//! `scripts/ci.sh` runs this file at `DGSCHED_THREADS=1` and `=4`; the
//! in-process `rayon::with_num_threads` calls below add explicit widths on
//! top, so each CI invocation re-proves the equalities from a different
//! baseline.

use dgsched_core::experiment::{
    oracle_fingerprint, run_matrix, run_matrix_journaled, run_matrix_journaled_indexed,
    run_matrix_journaled_with, run_matrix_regret_journaled, sweep_fingerprint, JournalOutcome,
    OracleConfig, RepGuard, Scenario, WorkloadKind,
};
use dgsched_core::policy::PolicyKind;
use dgsched_core::serve::ResultCache;
use dgsched_core::sim::SimConfig;
use dgsched_des::stats::StoppingRule;
use dgsched_grid::{Availability, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn scenario(name: &str, policy: PolicyKind) -> Scenario {
    Scenario {
        name: name.into(),
        grid: GridConfig {
            total_power: 100.0,
            heterogeneity: Heterogeneity::HOM,
            availability: Availability::HIGH,
            checkpoint: Default::default(),
            outages: None,
        },
        workload: WorkloadKind::Single(WorkloadSpec {
            bot_type: BotType {
                granularity: 1_000.0,
                app_size: 20_000.0,
                jitter: 0.5,
            },
            intensity: Intensity::Low,
            count: 6,
        }),
        policy,
        sim: SimConfig::default(),
    }
}

fn matrix() -> Vec<Scenario> {
    vec![
        scenario("journal-a", PolicyKind::Rr),
        scenario("journal-b", PolicyKind::FcfsShare),
        scenario("journal-c", PolicyKind::LongIdle),
    ]
}

fn rule() -> StoppingRule {
    StoppingRule {
        min_replications: 3,
        max_replications: 6,
        ..Default::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dgsched-journal-resume");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}

#[test]
fn journaled_sweep_matches_plain_matrix_at_every_width() {
    let scenarios = matrix();
    let plain = serde_json::to_string(&run_matrix(&scenarios, 42, &rule())).unwrap();
    for width in [1usize, 4] {
        let path = tmp(&format!("plain-eq-{width}"));
        let out = rayon::with_num_threads(width, || {
            run_matrix_journaled(&scenarios, 42, &rule(), &path, false, RepGuard::default())
        })
        .unwrap();
        assert_eq!(
            serde_json::to_string(&out.results).unwrap(),
            plain,
            "journaled sweep diverged from run_matrix at width {width}"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn kill_and_resume_is_byte_identical_at_any_cut_point() {
    let scenarios = matrix();
    for width in [1usize, 4] {
        let path = tmp(&format!("kill-{width}"));
        let straight = rayon::with_num_threads(width, || {
            run_matrix_journaled(&scenarios, 42, &rule(), &path, false, RepGuard::default())
        })
        .unwrap();
        let reference = serde_json::to_string(&straight.results).unwrap();
        let full = std::fs::read(&path).unwrap();
        let total_records = full.iter().filter(|&&b| b == b'\n').count() - 1;
        assert!(total_records >= 9, "3 scenarios × ≥3 reps journaled");

        // Kill the sweep at assorted byte offsets: after the header, after
        // a few whole records, and twice mid-record (a torn tail). Every
        // resume must reproduce the straight-through bytes.
        let header_end = full.iter().position(|&b| b == b'\n').unwrap() + 1;
        let cuts = [
            header_end,
            header_end + 17, // torn first record
            full.len() / 2,  // torn middle record (with luck, mid-float)
            full.len() - 3,  // torn final record
        ];
        for (i, &cut) in cuts.iter().enumerate() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let resumed = rayon::with_num_threads(width, || {
                run_matrix_journaled(&scenarios, 42, &rule(), &path, true, RepGuard::default())
            })
            .unwrap();
            assert_eq!(
                serde_json::to_string(&resumed.results).unwrap(),
                reference,
                "resume after cut {i} (byte {cut}) diverged at width {width}"
            );
            assert_eq!(resumed.stats.resumes, 1);
            let intact_records = full[..cut]
                .iter()
                .filter(|&&b| b == b'\n')
                .count()
                .saturating_sub(1);
            assert_eq!(
                resumed.stats.records_replayed as usize, intact_records,
                "every intact record is replayed, nothing recomputed twice"
            );
            if cut > header_end && full[cut - 1] != b'\n' {
                assert_eq!(resumed.stats.torn_tails, 1, "cut {i} tore a record");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn repeated_kills_still_converge_to_the_same_bytes() {
    // Kill → resume → kill the resumed journal → resume again: the third
    // generation must still serialise the straight-through bytes.
    let scenarios = matrix();
    let path = tmp("rekill");
    let straight =
        run_matrix_journaled(&scenarios, 42, &rule(), &path, false, RepGuard::default()).unwrap();
    let reference = serde_json::to_string(&straight.results).unwrap();
    for _generation in 0..3 {
        let full = std::fs::read(&path).unwrap();
        let cut = full.len() * 2 / 3;
        std::fs::write(&path, &full[..cut]).unwrap();
        let resumed =
            run_matrix_journaled(&scenarios, 42, &rule(), &path, true, RepGuard::default())
                .unwrap();
        assert_eq!(serde_json::to_string(&resumed.results).unwrap(), reference);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn persistent_panic_is_isolated_to_its_scenario() {
    let scenarios = matrix();
    let rule = rule();
    for width in [1usize, 4] {
        let path = tmp(&format!("panic-{width}"));
        // Replication 1 of journal-b dies on every attempt; everything
        // else runs normally.
        let out = rayon::with_num_threads(width, || {
            run_matrix_journaled_with(
                &scenarios,
                42,
                &rule,
                &path,
                false,
                RepGuard::default(),
                |s: &Scenario, seed: u64, rep: u64| {
                    if s.name == "journal-b" && rep == 1 {
                        panic!("injected fault in {} rep {rep}", s.name);
                    }
                    dgsched_core::experiment::run_replication(s, seed, rep)
                },
            )
        })
        .unwrap();
        let by_name = |n: &str| out.results.iter().find(|r| r.name == n).unwrap();
        let b = by_name("journal-b");
        assert!(b.saturated, "a failed replication marks the scenario");
        assert_eq!(b.failed_replications, 1);
        assert_eq!(b.failure_reasons.len(), 1);
        assert!(
            b.failure_reasons[0].contains("injected fault"),
            "{:?}",
            b.failure_reasons
        );
        assert!(b.replication_means.is_empty(), "statistics dropped");
        // The sweep continued: the other scenarios match their plain runs.
        let plain = run_matrix(&scenarios, 42, &rule);
        for name in ["journal-a", "journal-c"] {
            let clean = plain.iter().find(|r| r.name == name).unwrap();
            assert_eq!(
                serde_json::to_string(by_name(name)).unwrap(),
                serde_json::to_string(clean).unwrap(),
                "{name} perturbed by journal-b's panic at width {width}"
            );
        }
        // One failing replication: first attempt panics, the retry panics,
        // then it is recorded as failed.
        assert_eq!(out.stats.replication_panics, 2);
        assert_eq!(out.stats.replication_retries, 1);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn transient_panic_is_retried_and_leaves_no_trace_in_the_results() {
    let scenarios = matrix();
    let rule = rule();
    let path = tmp("transient");
    let attempts = AtomicU64::new(0);
    let out = run_matrix_journaled_with(
        &scenarios,
        42,
        &rule,
        &path,
        false,
        RepGuard::default(),
        |s: &Scenario, seed: u64, rep: u64| {
            if s.name == "journal-a" && rep == 2 && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient fault");
            }
            dgsched_core::experiment::run_replication(s, seed, rep)
        },
    )
    .unwrap();
    let plain = serde_json::to_string(&run_matrix(&scenarios, 42, &rule)).unwrap();
    assert_eq!(
        serde_json::to_string(&out.results).unwrap(),
        plain,
        "a retried transient panic must not change any result byte"
    );
    assert_eq!(out.stats.replication_panics, 1);
    assert_eq!(out.stats.replication_retries, 1);
    assert_eq!(
        out.results
            .iter()
            .map(|r| r.failed_replications)
            .sum::<u64>(),
        0
    );
    std::fs::remove_file(&path).ok();
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dgsched-journal-index-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens the cache directory afresh — rebuilding the replication index
/// from the journals on disk, as a restarted daemon does — and runs an
/// index-fed sweep journaled under the sweep's fingerprint.
fn indexed_sweep(dir: &Path, scenarios: &[Scenario]) -> JournalOutcome {
    let cache = ResultCache::open(dir).expect("cache opens");
    let path = cache.journal_path(&sweep_fingerprint(scenarios, 42, &rule()).unwrap());
    run_matrix_journaled_indexed(
        scenarios,
        42,
        &rule(),
        &path,
        RepGuard::default(),
        cache.rep_index(),
        |_, _, _| {},
    )
    .expect("indexed sweep")
}

/// Record boundaries (the byte after each newline past the header) of a
/// journal, and a cut inside each record.
fn cut_points(full: &[u8]) -> Vec<usize> {
    let ends: Vec<usize> = full
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    let mut cuts = Vec::new();
    for pair in ends.windows(2) {
        cuts.push(pair[0]);
        cuts.push((pair[0] + pair[1]) / 2);
    }
    cuts
}

#[test]
fn index_fed_sweep_resumes_byte_identically_at_every_cut() {
    let extended = matrix();
    let base = &extended[..2];
    let reference = serde_json::to_string(&run_matrix(&extended, 42, &rule())).unwrap();
    for width in [1usize, 4] {
        let dir = tmp_dir(&format!("cuts-w{width}"));
        rayon::with_num_threads(width, || {
            indexed_sweep(&dir, base);
            let straight = indexed_sweep(&dir, &extended);
            assert_eq!(serde_json::to_string(&straight.results).unwrap(), reference);
            assert!(straight.stats.records_reused >= 6, "base scenarios reused");
            let path = dir.join(format!(
                "{}.journal.jsonl",
                sweep_fingerprint(&extended, 42, &rule()).unwrap()
            ));
            let full = std::fs::read(&path).unwrap();
            let records = full.iter().filter(|&&b| b == b'\n').count() as u64 - 1;
            assert_eq!(
                records, straight.stats.records_written,
                "reused records are not copied into the new journal"
            );
            for cut in cut_points(&full) {
                std::fs::write(&path, &full[..cut]).unwrap();
                let resumed = indexed_sweep(&dir, &extended);
                assert_eq!(
                    serde_json::to_string(&resumed.results).unwrap(),
                    reference,
                    "resume after a cut at byte {cut} diverged at width {width}"
                );
                let intact = full[..cut].iter().filter(|&&b| b == b'\n').count() as u64 - 1;
                let stats = resumed.stats;
                assert_eq!(stats.records_replayed, intact, "cut at byte {cut}");
                assert_eq!(stats.records_reused, straight.stats.records_reused);
                assert_eq!(
                    stats.records_written + intact,
                    straight.stats.records_written,
                    "nothing recomputed twice"
                );
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Removes the replication keys from a journal: the record format
/// written before keys existed.
fn strip_keys(journal: &[u8]) -> Vec<u8> {
    let mut text = String::from_utf8(journal.to_vec()).unwrap();
    while let Some(at) = text.find(",\"key\":\"") {
        let value_end = at + 8 + text[at + 8..].find('"').unwrap() + 1;
        text.replace_range(at..value_end, "");
    }
    text.into_bytes()
}

#[test]
fn journal_without_keys_still_resumes() {
    let scenarios = matrix();
    let reference = serde_json::to_string(&run_matrix(&scenarios, 42, &rule())).unwrap();
    let dir = tmp_dir("old-format");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "{}.journal.jsonl",
        sweep_fingerprint(&scenarios, 42, &rule()).unwrap()
    ));
    run_matrix_journaled(&scenarios, 42, &rule(), &path, false, RepGuard::default()).unwrap();
    let keyed = std::fs::read(&path).unwrap();
    let old = strip_keys(&keyed);
    assert!(old.len() < keyed.len() && !String::from_utf8_lossy(&old).contains("\"key\""));
    let cut = old.len() * 2 / 3;
    let intact = old[..cut].iter().filter(|&&b| b == b'\n').count() as u64 - 1;

    std::fs::write(&path, &old[..cut]).unwrap();
    let resumed =
        run_matrix_journaled(&scenarios, 42, &rule(), &path, true, RepGuard::default()).unwrap();
    assert_eq!(serde_json::to_string(&resumed.results).unwrap(), reference);
    assert_eq!(resumed.stats.records_replayed, intact);

    // Through the daemon's path: not indexed, but resumed all the same.
    std::fs::write(&path, &old[..cut]).unwrap();
    assert!(ResultCache::open(&dir).unwrap().rep_index().is_empty());
    let resumed = indexed_sweep(&dir, &scenarios);
    assert_eq!(serde_json::to_string(&resumed.results).unwrap(), reference);
    assert_eq!(resumed.stats.records_replayed, intact);
    assert_eq!(resumed.stats.records_reused, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_journal_is_left_out_of_the_index() {
    let scenarios = matrix();
    let dir = tmp_dir("corrupt");
    let intact = indexed_sweep(&dir, &scenarios);
    let journaled = intact.stats.records_written;
    let path = dir.join(format!(
        "{}.journal.jsonl",
        sweep_fingerprint(&scenarios, 42, &rule()).unwrap()
    ));
    // A copy damaged in the middle, under another fingerprint, a file
    // that is no journal at all, and the oracle restart journal the
    // daemon keeps under the same suffix: its records are no
    // replications, whatever its header says.
    let full = std::fs::read(&path).unwrap();
    let mid = full.len() / 2;
    let mut damaged = full[..mid].to_vec();
    damaged.extend_from_slice(b"\n{not json}\n");
    damaged.extend_from_slice(&full[mid..]);
    std::fs::write(dir.join("00ff.journal.jsonl"), damaged).unwrap();
    std::fs::write(dir.join("11ee.journal.jsonl"), b"\x00\xff garbage\n").unwrap();
    let ocfg = OracleConfig {
        restarts: 2,
        iters: 4,
        seed: 5,
        replications: 2,
    };
    let oracle = dir.join(format!(
        "{}.journal.jsonl",
        oracle_fingerprint(&scenarios, 42, &rule(), &ocfg).unwrap()
    ));
    let (_, stats) =
        run_matrix_regret_journaled(&scenarios, 42, &rule(), &ocfg, &oracle, false).unwrap();
    assert_eq!(stats.restarts_written, 4);
    let cache = ResultCache::open(&dir).expect("damaged journals do not fail open");
    assert_eq!(cache.rep_index().len(), journaled);
    assert_eq!(cache.pending_journals(), 4);
    std::fs::remove_dir_all(&dir).ok();
}
