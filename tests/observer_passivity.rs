//! The telemetry subsystem must be *passive*: attaching any tracer — the
//! unbounded recorder, the fixed-capacity ring, or the full metrics
//! registry — must not perturb a single scheduling decision. For every
//! policy on every grid class, the instrumented run's `RunResult` must be
//! byte-identical to the plain (NullObserver) run, the ring's surviving
//! window must be exactly the recorder's tail, and the JSONL trace codec
//! must round-trip the real event stream losslessly with truncation
//! reported.

use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::{
    simulate, simulate_instrumented, simulate_observed, NullObserver, SimConfig, TraceRecorder,
    TraceRing,
};
use dgsched_des::time::SimTime;
use dgsched_grid::{Availability, CheckpointConfig, Grid, GridConfig, Heterogeneity};
use dgsched_obs::{read_jsonl, write_jsonl, TraceEvent};
use dgsched_workload::{BagOfTasks, BotId, TaskId, TaskSpec, Workload};
use rand::SeedableRng;
use std::collections::BTreeMap;

fn grid(het: Heterogeneity, avail: Availability) -> Grid {
    let cfg = GridConfig {
        total_power: 60.0,
        heterogeneity: het,
        availability: avail,
        checkpoint: CheckpointConfig::default(),
        outages: None,
    };
    cfg.build(&mut rand::rngs::StdRng::seed_from_u64(42))
}

/// Same mixed workload as the index-equivalence suite: equal-work ties, a
/// restart-prone long task and staggered arrivals, so every policy
/// exercises replication, restarts and sibling kills.
fn workload() -> Workload {
    let mk = |id: u32, at: f64, works: &[f64]| BagOfTasks {
        id: BotId(id),
        arrival: SimTime::new(at),
        tasks: works
            .iter()
            .enumerate()
            .map(|(i, &w)| TaskSpec {
                id: TaskId(i as u32),
                work: w,
            })
            .collect(),
        granularity: 10_000.0,
    };
    Workload {
        bags: vec![
            mk(0, 0.0, &[12_000.0, 8_000.0, 8_000.0, 15_000.0]),
            mk(1, 500.0, &[20_000.0, 5_000.0, 9_000.0]),
            mk(2, 1_500.0, &[30_000.0]),
            mk(3, 2_000.0, &[7_000.0, 7_000.0, 7_000.0, 7_000.0, 7_000.0]),
            mk(4, 4_000.0, &[18_000.0, 2_500.0]),
        ],
        lambda: 1e-3,
        label: "passivity".into(),
    }
}

fn result_json(r: &dgsched_core::sim::RunResult) -> String {
    serde_json::to_string(r).expect("result serialises")
}

/// Every counter the metrics registry keeps.
const COUNTERS: [&str; 11] = [
    "dispatches",
    "replications",
    "task_completions",
    "replicas_killed_failure",
    "replicas_killed_sibling",
    "machine_failures",
    "machine_repairs",
    "outages",
    "bag_arrivals",
    "bag_completions",
    "checkpoints_written",
];

/// The counters one traced event should bump, read off the trace alone.
fn counters_of(e: &TraceEvent) -> &'static [&'static str] {
    match e {
        TraceEvent::Dispatch {
            is_replication: true,
            ..
        } => &["dispatches", "replications"],
        TraceEvent::Dispatch { .. } => &["dispatches"],
        TraceEvent::TaskComplete { .. } => &["task_completions"],
        TraceEvent::ReplicaKilled {
            by_failure: true, ..
        } => &["replicas_killed_failure"],
        TraceEvent::ReplicaKilled { .. } => &["replicas_killed_sibling"],
        TraceEvent::MachineFail { .. } => &["machine_failures"],
        TraceEvent::MachineRepair { .. } => &["machine_repairs"],
        TraceEvent::Outage { .. } => &["outages"],
        TraceEvent::BagArrival { .. } => &["bag_arrivals"],
        TraceEvent::BagComplete { .. } => &["bag_completions"],
        TraceEvent::CheckpointSaved { .. } => &["checkpoints_written"],
    }
}

/// Attaching the recorder, the ring, or the metrics registry never changes
/// the `RunResult`, for all 7 policies across Hom/Het × High/Low grids.
#[test]
fn tracers_never_perturb_the_run() {
    let cfg = SimConfig::with_seed(2008);
    let wl = workload();
    for het in [Heterogeneity::HOM, Heterogeneity::HET] {
        for avail in [Availability::HIGH, Availability::LOW] {
            let g = grid(het, avail);
            for kind in PolicyKind::all_with_baselines() {
                let label = format!("{kind:?} on {het:?}/{avail:?}");
                let plain = result_json(&simulate(&g, &wl, kind, &cfg));

                // Observed run (tracer only, no metrics registry).
                let mut observed = TraceRecorder::new();
                let r =
                    simulate_observed(&g, &wl, kind.create_seeded(cfg.seed), &cfg, &mut observed);
                assert_eq!(result_json(&r), plain, "observed diverged: {label}");

                // Instrumented run: recorder + metrics registry.
                let mut rec = TraceRecorder::new();
                let (r, report) =
                    simulate_instrumented(&g, &wl, kind.create_seeded(cfg.seed), &cfg, &mut rec);
                assert_eq!(result_json(&r), plain, "instrumented diverged: {label}");
                assert!(rec.is_time_ordered(), "disordered trace: {label}");
                // The metrics registry rides the same seam, so the golden
                // trace the external tracer sees is unchanged too.
                assert_eq!(rec, observed, "trace diverged: {label}");
                // Every metrics counter equals an independent count of its
                // event kind in the recorded trace.
                let mut expected: BTreeMap<String, u64> =
                    COUNTERS.iter().map(|&n| (n.to_string(), 0)).collect();
                for e in &rec.events {
                    for &n in counters_of(e) {
                        *expected.get_mut(n).expect("listed counter") += 1;
                    }
                }
                assert_eq!(
                    report.metrics.counters, expected,
                    "metrics disagree with the trace: {label}"
                );

                // Instrumented run with the ring tracer: same result, and
                // the surviving window is exactly the recorder's tail.
                let mut ring = TraceRing::new(64);
                let (r, _) =
                    simulate_instrumented(&g, &wl, kind.create_seeded(cfg.seed), &cfg, &mut ring);
                assert_eq!(result_json(&r), plain, "ring diverged: {label}");
                let expect_dropped = rec.len().saturating_sub(64) as u64;
                assert_eq!(ring.dropped(), expect_dropped, "drop count: {label}");
                let tail: Vec<_> = rec.events[rec.len() - ring.len()..].to_vec();
                assert_eq!(ring.events(), tail, "ring window is not the tail: {label}");
            }
        }
    }
}

/// The JSONL trace codec round-trips a *real* simulation trace — not a
/// hand-built sample — and a truncated ring export says so.
#[test]
fn real_trace_round_trips_through_jsonl() {
    let cfg = SimConfig::with_seed(2008);
    let g = grid(Heterogeneity::HET, Availability::LOW);
    let wl = workload();

    let mut rec = TraceRecorder::new();
    let (_, _) = simulate_instrumented(
        &g,
        &wl,
        PolicyKind::LongIdle.create_seeded(cfg.seed),
        &cfg,
        &mut rec,
    );
    assert!(rec.len() > 100, "workload too small to exercise the codecs");

    let jsonl = write_jsonl(&rec.events, 0);
    let from_jsonl = read_jsonl(&jsonl).expect("jsonl decodes");
    assert_eq!(from_jsonl.events, rec.events);
    assert!(!from_jsonl.truncated());

    // Same run through a too-small ring: the export must carry the drop
    // count — truncation is reported, never silent.
    let mut ring = TraceRing::new(128);
    let (_, _) = simulate_instrumented(
        &g,
        &wl,
        PolicyKind::LongIdle.create_seeded(cfg.seed),
        &cfg,
        &mut ring,
    );
    assert!(ring.truncated());
    let t_jsonl = read_jsonl(&write_jsonl(&ring.events(), ring.dropped())).unwrap();
    assert_eq!(t_jsonl.dropped, ring.dropped());
    assert!(t_jsonl.truncated());
    assert_eq!(t_jsonl.events, ring.events());
}

/// The work a pure refactor of the kernel must not change: pending-event
/// set operation counts and processed events for one fixed run per policy.
/// A queue rewrite that keeps pop order keeps every one of these numbers;
/// a change that moves them changed the simulation, not just its speed.
#[test]
fn queue_work_is_pinned() {
    let cfg = SimConfig::with_seed(2008);
    let g = grid(Heterogeneity::HET, Availability::LOW);
    let wl = workload();
    let got: Vec<(String, [u64; 5])> = PolicyKind::all_with_baselines()
        .into_iter()
        .map(|kind| {
            let (r, report) = simulate_instrumented(
                &g,
                &wl,
                kind.create_seeded(cfg.seed),
                &cfg,
                &mut NullObserver,
            );
            let q = report.queue;
            let counts = [q.scheduled, q.cancelled, q.popped, q.max_pending, r.events];
            (format!("{kind:?}"), counts)
        })
        .collect();
    // (policy, [scheduled, cancelled, popped, max_pending, events]). The
    // values predate the 4-ary event heap; any queue that keeps pop order
    // reproduces them.
    let pinned = [
        ("FcfsExcl", [132, 40, 86, 16, 86]),
        ("FcfsShare", [111, 30, 75, 16, 75]),
        ("Rr", [116, 27, 83, 16, 83]),
        ("RrNrf", [104, 23, 75, 16, 75]),
        ("LongIdle", [120, 27, 87, 16, 87]),
        ("Random", [111, 29, 76, 16, 76]),
        ("Sbf", [110, 25, 79, 16, 79]),
    ];
    assert_eq!(got, pinned.map(|(name, counts)| (name.to_string(), counts)));
}
