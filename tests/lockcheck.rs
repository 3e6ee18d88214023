//! The lock-order witness's regression battery, plus the passivity
//! proof that the `lockcheck` feature cannot perturb results.
//!
//! Two halves:
//!
//! * `#[cfg(feature = "lockcheck")]` tests reconstruct the PR-5
//!   steal-loop deadlock shape — two threads acquiring each other's
//!   queue mutexes in opposite order — and assert the witness reports
//!   the cycle *deterministically* (a panic naming both acquisition
//!   sites) instead of hanging;
//! * an **unconditional** golden test pins the `run_matrix` JSON of a
//!   fixed mini-sweep to a recorded fingerprint. `cargo test` runs it
//!   with the feature off, `scripts/ci.sh` re-runs it with the feature
//!   on: both builds must produce the exact seed bytes, which is the
//!   observer-passivity-style argument that the witness is invisible to
//!   results (`dgsched-obs` proved its recorder the same way).

use dgsched_core::experiment::{fig1_panels, run_matrix, PanelSpec, Scenario};
use dgsched_core::policy::PolicyKind;
use dgsched_des::stats::StoppingRule;

/// The same scaled-down F1a slice `tests/parallel_determinism.rs` pins
/// across pool widths; here it is pinned across *feature* configurations.
fn mini_matrix() -> Vec<Scenario> {
    let panel: PanelSpec = fig1_panels().remove(0);
    assert_eq!(panel.label, "1a");
    let mut scenarios = panel.scenarios_for(&[1_000.0], &PolicyKind::all(), 4, 1);
    for s in &mut scenarios {
        if let dgsched_core::experiment::WorkloadKind::Single(spec) = &mut s.workload {
            spec.bot_type.app_size = 20.0 * spec.bot_type.granularity;
        }
    }
    scenarios
}

fn quick_rule() -> StoppingRule {
    StoppingRule {
        min_replications: 3,
        max_replications: 4,
        ..Default::default()
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of the mini-sweep's `run_matrix` JSON, recorded from the
/// seed (lockcheck-off) build. Any build configuration — feature off,
/// feature on, any pool width — must reproduce it bit-for-bit. If a
/// deliberate result-schema change moves this value, re-record it from a
/// lockcheck-OFF build only, so the constant always means "seed bytes".
const SEED_MATRIX_FNV1A64: u64 = 0x393F_B48B_E2E2_FD19;

#[test]
fn matrix_bytes_match_the_seed_fingerprint_at_widths_1_and_4() {
    for width in [1usize, 4] {
        let json = rayon::with_num_threads(width, || {
            serde_json::to_string_pretty(&run_matrix(&mini_matrix(), 42, &quick_rule()))
                .expect("matrix serialises")
        });
        assert!(json.contains("\"policy\""), "sweep produced no results");
        assert_eq!(
            fnv1a64(json.as_bytes()),
            SEED_MATRIX_FNV1A64,
            "run_matrix bytes diverged from the recorded seed fingerprint at \
             width {width} (lockcheck feature {}); the witness must be \
             result-passive",
            if cfg!(feature = "lockcheck") {
                "ON"
            } else {
                "off"
            }
        );
    }
}

#[cfg(feature = "lockcheck")]
mod witness {
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// The PR-5 hold-and-wait shape: worker 1 holds its own queue lock
    /// while stealing from worker 2's queue, and vice versa. Before the
    /// guard-drop fix this hung a real `parallel_determinism` run and
    /// was diagnosed via futex; the witness turns the same shape into a
    /// deterministic panic naming both acquisition sites.
    #[test]
    fn pr5_steal_loop_shape_is_reported_not_hung() {
        let queue_a = Arc::new(Mutex::new(vec![1u64]));
        let queue_b = Arc::new(Mutex::new(vec![2u64]));

        // Worker 1: own queue (a) held across the "steal" from b. Runs
        // to completion — it merely records the order a → b.
        {
            let (qa, qb) = (queue_a.clone(), queue_b.clone());
            let w1 = std::thread::spawn(move || {
                let own = qa.lock();
                let stolen = qb.lock();
                own.len() + stolen.len()
            });
            assert_eq!(w1.join().expect("worker 1 only records an order"), 2);
        }

        // Worker 2: the mirror image — own queue (b) held across the
        // steal from a. The witness must panic at the second acquisition
        // (before blocking), deterministically.
        let (qa, qb) = (queue_a.clone(), queue_b.clone());
        let w2 = std::thread::spawn(move || {
            let _own = qb.lock();
            let _stolen = qa.lock(); // b → a contradicts recorded a → b
        });
        let payload = w2
            .join()
            .expect_err("the inverted steal order must panic, not hang");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("lock acquisition order cycle"),
            "unexpected panic: {msg}"
        );
        // Both acquisition sites are named, and they are in this file.
        assert!(
            msg.matches("tests/lockcheck.rs").count() >= 2,
            "cycle report must name both acquisition sites:\n{msg}"
        );
        assert!(
            msg.contains("hold-and-wait"),
            "report should say what the bug class is:\n{msg}"
        );
    }

    /// The fixed steal loop's discipline — drop the own-queue guard
    /// before stealing — never trips the witness, even under real
    /// cross-thread contention.
    #[test]
    fn guard_drop_steal_discipline_is_clean() {
        let queues: Arc<Vec<Mutex<Vec<u64>>>> =
            Arc::new((0..4).map(|i| Mutex::new(vec![i])).collect());
        std::thread::scope(|s| {
            for me in 0..4usize {
                let queues = queues.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        // Own pop: guard is a statement temporary.
                        let own = queues[me].lock().pop();
                        // Steal with nothing held: no edges recorded.
                        let stolen =
                            own.or_else(|| (1..4).find_map(|d| queues[(me + d) % 4].lock().pop()));
                        if let Some(v) = stolen {
                            queues[me].lock().push(v);
                        }
                    }
                });
            }
        });
    }
}
