//! Machine-readable simulator throughput: events per second for every
//! policy at two scales, plus replication-sweep wall-clock at 1 vs N
//! pool threads, written as JSON for regression tracking.
//!
//! ```text
//! cargo run --release -p dgsched-bench --bin bench_sim_json [--out BENCH_sim.json | --smoke]
//! ```
//!
//! `paper` is the study's own scale (100 machines); `large` is the
//! many-machine / many-bag regime where the scheduler's incremental
//! indices matter (a fleet that is mostly idle at any instant);
//! `huge-1k` / `huge-10k` is the scaling tier — grid and bags grow
//! together under lazy availability, and events/s per policy should hold
//! roughly flat across it. `--smoke` runs only the 10k tier and exits
//! non-zero if FCFS-Excl drops below a quarter of the policy-median
//! events/s (the CI guard for the replica-churn scaling cliff). The
//! `sweep` section times `run_matrix` over an F1a-derived scenario grid
//! sequentially and on the replication pool, and cross-checks that
//! both runs serialise byte-identically.

use dgsched_core::experiment::{
    fig1_panels, run_matrix, run_matrix_journaled, run_matrix_regret, OracleConfig, RepGuard,
    Scenario, WorkloadKind,
};
use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::{simulate, simulate_instrumented, NullObserver, SimConfig, TraceRing};
use dgsched_des::stats::StoppingRule;
use dgsched_grid::{Availability, CheckpointConfig, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec};
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

struct Scale {
    name: &'static str,
    grid: GridConfig,
    spec: WorkloadSpec,
    cfg: SimConfig,
}

#[derive(Serialize)]
struct BenchRow {
    scenario: &'static str,
    policy: &'static str,
    machines: usize,
    bags: usize,
    events: u64,
    elapsed_s: f64,
    events_per_s: f64,
}

/// One timed `run_matrix` execution at a fixed pool width.
#[derive(Serialize)]
struct SweepRun {
    threads: usize,
    wall_s: f64,
}

/// Replication-sweep throughput: the same F1a-derived scenario grid at
/// 1 thread and at the pool's default width.
#[derive(Serialize)]
struct SweepBench {
    scenarios: usize,
    replications_min: u64,
    replications_max: u64,
    cores: usize,
    runs: Vec<SweepRun>,
    /// wall(1 thread) / wall(widest run); ≈ 1.0 on a single-core host.
    speedup: f64,
    /// True when every timed run serialised byte-identical JSON — the
    /// determinism contract, re-checked on the bench workload itself.
    identical_json: bool,
}

/// Tracer overhead smoke: the same run plain, with the metrics registry,
/// and with the registry plus a ring tracer. The instrumented runs must
/// produce a byte-identical `RunResult` — the overhead contract is
/// "passive, and cheap enough to leave on while debugging".
#[derive(Serialize)]
struct OverheadBench {
    policy: &'static str,
    events: u64,
    plain_s: f64,
    metrics_s: f64,
    ring_s: f64,
    /// wall(metrics + ring tracer) / wall(plain).
    overhead_ratio: f64,
    /// True when all three runs serialised byte-identical results.
    identical_result: bool,
}

/// Journal overhead: the same matrix sweep with the crash-safe journal
/// off and on (one fsynced JSONL append per replication), plus a resumed
/// pass that replays every record instead of recomputing. Both journaled
/// runs must serialise byte-identical results to the plain sweep — the
/// journal's whole contract.
#[derive(Serialize)]
struct JournalBench {
    scenarios: usize,
    records: u64,
    plain_s: f64,
    journaled_s: f64,
    resume_s: f64,
    /// wall(journal on) / wall(journal off): the fsync tax, reported
    /// honestly — it is real I/O on every completed replication.
    overhead_ratio: f64,
    /// True when plain, journaled and resumed sweeps all serialised
    /// byte-identical scenario results.
    identical_result: bool,
}

/// One timed hindsight-oracle pass at a fixed pool width.
#[derive(Serialize)]
struct OracleRun {
    threads: usize,
    wall_s: f64,
    restarts_per_s: f64,
}

/// Hindsight-oracle search throughput: a small regret matrix (seven
/// policies on one platform, so the penalty search runs once and is
/// shared) timed at pool widths 1 and 4. Wall-clock covers the whole
/// `run_matrix_regret` pass — donor traces, seven policy replays per
/// replication, and the restart search — so restarts/s is a conservative
/// end-to-end figure, not a kernel microbenchmark.
#[derive(Serialize)]
struct OracleBench {
    scenarios: usize,
    replications: u64,
    restarts: u32,
    iters: u32,
    /// Restarts executed per timed run (env groups × replications × restarts).
    restarts_total: u64,
    runs: Vec<OracleRun>,
    /// True when both widths serialised byte-identical regret matrices —
    /// the oracle inherits the determinism contract.
    identical_result: bool,
}

#[derive(Serialize)]
struct BenchDoc {
    unit: &'static str,
    benchmarks: Vec<BenchRow>,
    sweep: SweepBench,
    overhead: OverheadBench,
    journal: JournalBench,
    oracle: OracleBench,
}

fn bench_oracle() -> OracleBench {
    let grid = GridConfig {
        total_power: 80.0,
        heterogeneity: Heterogeneity::HET,
        availability: Availability::LOW,
        checkpoint: CheckpointConfig::default(),
        outages: None,
    };
    let scenarios: Vec<Scenario> = PolicyKind::all_with_baselines()
        .into_iter()
        .map(|policy| Scenario {
            name: format!("oracle bench {policy}"),
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
        })
        .collect();
    let rule = StoppingRule {
        min_replications: 2,
        max_replications: 2,
        ..Default::default()
    };
    let ocfg = OracleConfig {
        restarts: 8,
        iters: 80,
        seed: 7,
        replications: 2,
    };
    // One platform → one environment group shared by all seven policies.
    let restarts_total = u64::from(ocfg.restarts) * ocfg.replications;

    let mut runs = Vec::new();
    let mut jsons = Vec::new();
    for threads in [1usize, 4] {
        let t0 = Instant::now();
        let results =
            rayon::with_num_threads(threads, || run_matrix_regret(&scenarios, 42, &rule, &ocfg));
        let wall_s = t0.elapsed().as_secs_f64();
        let restarts_per_s = restarts_total as f64 / wall_s;
        eprintln!(
            "oracle {:>2} threads  {:>6.2} s  {:>6.1} restarts/s",
            threads, wall_s, restarts_per_s
        );
        jsons.push(serde_json::to_string(&results).expect("oracle serialises"));
        runs.push(OracleRun {
            threads,
            wall_s,
            restarts_per_s,
        });
    }
    let identical_result = jsons.windows(2).all(|w| w[0] == w[1]);
    assert!(
        identical_result,
        "oracle search diverged across pool widths"
    );
    OracleBench {
        scenarios: scenarios.len(),
        replications: ocfg.replications,
        restarts: ocfg.restarts,
        iters: ocfg.iters,
        restarts_total,
        runs,
        identical_result,
    }
}

fn bench_journal() -> JournalBench {
    let scenarios = sweep_matrix();
    let rule = StoppingRule {
        min_replications: 5,
        max_replications: 10,
        ..Default::default()
    };
    let path = std::env::temp_dir().join(format!("dgsched-bench-{}.jsonl", std::process::id()));

    let t0 = Instant::now();
    let plain = run_matrix(&scenarios, 42, &rule);
    let plain_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let journaled = run_matrix_journaled(&scenarios, 42, &rule, &path, false, RepGuard::default())
        .expect("journaled sweep");
    let journaled_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let resumed = run_matrix_journaled(&scenarios, 42, &rule, &path, true, RepGuard::default())
        .expect("resumed sweep");
    let resume_s = t0.elapsed().as_secs_f64();
    std::fs::remove_file(&path).ok();

    let plain_json = serde_json::to_string(&plain).expect("serialises");
    let identical_result = plain_json == serde_json::to_string(&journaled.results).unwrap()
        && plain_json == serde_json::to_string(&resumed.results).unwrap();
    assert!(identical_result, "journaled sweep diverged from plain");
    assert_eq!(resumed.stats.records_written, 0, "resume recomputed work");
    let overhead_ratio = journaled_s / plain_s;
    eprintln!(
        "journal {} records  plain {:>6.2} s  journaled {:>6.2} s  resumed {:>6.2} s  ratio {:.3}",
        journaled.stats.records_written, plain_s, journaled_s, resume_s, overhead_ratio
    );
    JournalBench {
        scenarios: scenarios.len(),
        records: journaled.stats.records_written,
        plain_s,
        journaled_s,
        resume_s,
        overhead_ratio,
        identical_result,
    }
}

fn bench_overhead() -> OverheadBench {
    let scale = scales().remove(0); // the paper-scale configuration
    let grid = scale.grid.build(&mut rand::rngs::StdRng::seed_from_u64(1));
    let workload = scale
        .spec
        .generate(&scale.grid, &mut rand::rngs::StdRng::seed_from_u64(2));
    let kind = PolicyKind::LongIdle;
    let cfg = SimConfig::with_seed(7);

    let best_of = |f: &mut dyn FnMut() -> String| {
        let mut best = f64::INFINITY;
        let mut json = String::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            let j = f();
            let dt = t0.elapsed().as_secs_f64();
            if dt < best {
                best = dt;
                json = j;
            }
        }
        (best, json)
    };

    let warm = simulate(&grid, &workload, kind, &cfg);
    assert!(!warm.saturated, "overhead scenario saturated");
    let events = warm.events;

    let (plain_s, plain_json) = best_of(&mut || {
        serde_json::to_string(&simulate(&grid, &workload, kind, &cfg)).expect("serialises")
    });
    let (metrics_s, metrics_json) = best_of(&mut || {
        let mut null = NullObserver;
        let (r, _) = simulate_instrumented(
            &grid,
            &workload,
            kind.create_seeded(cfg.seed),
            &cfg,
            &mut null,
        );
        serde_json::to_string(&r).expect("serialises")
    });
    let (ring_s, ring_json) = best_of(&mut || {
        let mut ring = TraceRing::new(65_536);
        let (r, _) = simulate_instrumented(
            &grid,
            &workload,
            kind.create_seeded(cfg.seed),
            &cfg,
            &mut ring,
        );
        serde_json::to_string(&r).expect("serialises")
    });

    let identical_result = plain_json == metrics_json && plain_json == ring_json;
    assert!(identical_result, "instrumented runs diverged from plain");
    let overhead_ratio = ring_s / plain_s;
    eprintln!(
        "overhead {:<12} plain {:>7.1} ms  metrics {:>7.1} ms  +ring {:>7.1} ms  ratio {:.3}",
        kind.paper_name(),
        plain_s * 1e3,
        metrics_s * 1e3,
        ring_s * 1e3,
        overhead_ratio
    );
    OverheadBench {
        policy: kind.paper_name(),
        events,
        plain_s,
        metrics_s,
        ring_s,
        overhead_ratio,
        identical_result,
    }
}

/// The sweep workload: Fig. 1(a)'s panel (Hom-HighAvail, low intensity)
/// over two granularities and all five policies, scaled so one full
/// matrix takes seconds, not minutes.
fn sweep_matrix() -> Vec<Scenario> {
    let panel = fig1_panels().remove(0);
    let mut scenarios = panel.scenarios_for(&[1_000.0, 5_000.0], &PolicyKind::all(), 10, 2);
    for s in &mut scenarios {
        if let WorkloadKind::Single(spec) = &mut s.workload {
            spec.bot_type.app_size = 200.0 * spec.bot_type.granularity;
        }
    }
    scenarios
}

fn bench_sweep() -> SweepBench {
    let scenarios = sweep_matrix();
    let rule = StoppingRule {
        min_replications: 5,
        max_replications: 10,
        ..Default::default()
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // On a many-core host the second run is the pool's natural width; on
    // small hosts it is forced to 4 so the pool (and its determinism) is
    // exercised for real even when no speedup is physically possible.
    let widths = [1usize, rayon::current_num_threads().max(4)];
    let mut runs = Vec::new();
    let mut jsons = Vec::new();
    for &threads in &widths {
        let t0 = Instant::now();
        let results = rayon::with_num_threads(threads, || run_matrix(&scenarios, 42, &rule));
        let wall_s = t0.elapsed().as_secs_f64();
        eprintln!(
            "sweep  {:>2} threads  {:>6.2} s  ({} scenarios)",
            threads,
            wall_s,
            results.len()
        );
        jsons.push(serde_json::to_string(&results).expect("sweep serialises"));
        runs.push(SweepRun { threads, wall_s });
    }
    let identical_json = jsons.windows(2).all(|w| w[0] == w[1]);
    assert!(identical_json, "sweep results diverged across pool widths");
    let speedup = runs[0].wall_s / runs[runs.len() - 1].wall_s;
    SweepBench {
        scenarios: scenarios.len(),
        replications_min: rule.min_replications,
        replications_max: rule.max_replications,
        cores,
        runs,
        speedup,
        identical_json,
    }
}

fn scales() -> Vec<Scale> {
    vec![
        Scale {
            name: "paper",
            grid: GridConfig::paper(Heterogeneity::HET, Availability::MED),
            spec: WorkloadSpec {
                bot_type: BotType {
                    granularity: 5_000.0,
                    app_size: 500_000.0,
                    jitter: 0.5,
                },
                intensity: Intensity::Medium,
                count: 20,
            },
            cfg: SimConfig::with_seed(7),
        },
        Scale {
            name: "large",
            grid: GridConfig {
                total_power: 10_000.0, // 1000 Hom machines
                heterogeneity: Heterogeneity::HOM,
                availability: Availability::HIGH,
                checkpoint: CheckpointConfig::default(),
                outages: None,
            },
            spec: WorkloadSpec {
                bot_type: BotType {
                    granularity: 5_000.0,
                    app_size: 250_000.0,
                    jitter: 0.5,
                },
                intensity: Intensity::Low,
                count: 50,
            },
            cfg: SimConfig::with_seed(7),
        },
    ]
}

/// The scaling tier: machines and tasks-per-bag grow together (tasks/bag
/// ≈ machines), so the work available per dispatch round stays
/// proportional to the fleet and events/s should hold roughly flat from
/// 1k to 10k machines. Lazy availability is on — this is the
/// configuration the tier exists to exercise: the event queue carries
/// only busy machines, not the whole (mostly idle) fleet.
fn huge_scales() -> Vec<Scale> {
    let lazy_cfg = SimConfig {
        lazy_availability: true,
        ..SimConfig::with_seed(7)
    };
    [(1_000usize, "huge-1k"), (10_000, "huge-10k")]
        .into_iter()
        .map(|(n, name)| Scale {
            name,
            grid: GridConfig {
                total_power: 10.0 * n as f64, // n Hom machines
                heterogeneity: Heterogeneity::HOM,
                availability: Availability::HIGH,
                checkpoint: CheckpointConfig::default(),
                outages: None,
            },
            spec: WorkloadSpec {
                bot_type: BotType {
                    granularity: 5_000.0,
                    // Tasks per bag grow as n·ln n, not n: WQR's unlimited
                    // replication spends ≈ n·ln n launches draining each
                    // bag's tail (every free machine re-replicates the
                    // shrinking remainder), so bags must outgrow the fleet
                    // by the same harmonic factor for launches-per-event —
                    // and hence events/s — to stay flat across the tier.
                    app_size: 15_000.0 * n as f64 * (n as f64).ln() / 1_000.0_f64.ln(),
                    jitter: 0.5,
                },
                intensity: Intensity::Low,
                count: 10,
            },
            cfg: lazy_cfg,
        })
        .collect()
}

/// Times every policy at every scale: one warm-up, then best of three.
fn bench_rows(scales: &[Scale]) -> Vec<BenchRow> {
    let mut rows = Vec::new();
    for scale in scales {
        let grid = scale.grid.build(&mut rand::rngs::StdRng::seed_from_u64(1));
        let workload = scale
            .spec
            .generate(&scale.grid, &mut rand::rngs::StdRng::seed_from_u64(2));
        for kind in PolicyKind::all_with_baselines() {
            let warm = simulate(&grid, &workload, kind, &scale.cfg);
            assert!(
                !warm.saturated,
                "{}: {} saturated",
                scale.name,
                kind.paper_name()
            );
            let mut best = f64::INFINITY;
            let mut events = 0u64;
            for _ in 0..3 {
                let t0 = Instant::now();
                let r = simulate(&grid, &workload, kind, &scale.cfg);
                let dt = t0.elapsed().as_secs_f64();
                if dt < best {
                    best = dt;
                    events = r.events;
                }
            }
            let eps = events as f64 / best;
            eprintln!(
                "{:<8} {:<12} {:>9} events  {:>8.1} ms  {:>12.0} events/s",
                scale.name,
                kind.paper_name(),
                events,
                best * 1e3,
                eps
            );
            rows.push(BenchRow {
                scenario: scale.name,
                policy: kind.paper_name(),
                machines: grid.len(),
                bags: workload.len(),
                events,
                elapsed_s: best,
                events_per_s: eps,
            });
        }
    }
    rows
}

/// Per-policy events/s across the scaling tier, with the 10k/1k ratio —
/// the flat-scaling check at a glance.
fn print_scaling_summary(rows: &[BenchRow]) {
    let scales: Vec<&str> = {
        let mut v = Vec::new();
        for r in rows {
            if !v.contains(&r.scenario) {
                v.push(r.scenario);
            }
        }
        v
    };
    eprintln!("scaling summary (events/s per policy):");
    for kind in PolicyKind::all_with_baselines() {
        let eps: Vec<f64> = scales
            .iter()
            .filter_map(|&s| {
                rows.iter()
                    .find(|r| r.scenario == s && r.policy == kind.paper_name())
                    .map(|r| r.events_per_s)
            })
            .collect();
        if eps.is_empty() {
            continue;
        }
        let cells: Vec<String> = scales
            .iter()
            .zip(&eps)
            .map(|(s, e)| format!("{s} {e:>10.0}"))
            .collect();
        let ratio = eps.last().unwrap() / eps[0];
        eprintln!(
            "  {:<12} {}  ratio {:.2}",
            kind.paper_name(),
            cells.join("  "),
            ratio
        );
    }
}

/// `--smoke`: the CI gate. Runs only the 10k scaling tier and fails when
/// FCFS-Excl falls below a quarter of the policy-median events/s — the
/// regression guard for the replica-churn cliff this tier was built to
/// keep dead.
fn smoke() -> ! {
    let tier = huge_scales().pop().expect("huge tier exists");
    let rows = bench_rows(&[tier]);
    // The gate compares FCFS-Excl against the *other* policies, so the
    // reference median must exclude its own row — otherwise a uniform
    // slowdown of everything-but-Excl drags the median down with it and
    // the gate goes blind. True median: mean of the two middle elements
    // when the count is even.
    let mut eps: Vec<f64> = rows
        .iter()
        .filter(|r| r.policy != PolicyKind::FcfsExcl.paper_name())
        .map(|r| r.events_per_s)
        .collect();
    assert!(!eps.is_empty(), "smoke tier has non-Excl policies");
    eps.sort_by(f64::total_cmp);
    let median = if eps.len() % 2 == 1 {
        eps[eps.len() / 2]
    } else {
        0.5 * (eps[eps.len() / 2 - 1] + eps[eps.len() / 2])
    };
    let excl = rows
        .iter()
        .find(|r| r.policy == PolicyKind::FcfsExcl.paper_name())
        .expect("FCFS-Excl row");
    let floor = 0.25 * median;
    eprintln!(
        "smoke: FCFS-Excl {:.0} events/s, policy median {:.0}, floor {:.0}",
        excl.events_per_s, median, floor
    );
    if excl.events_per_s < floor {
        eprintln!("smoke FAILED: FCFS-Excl is below 25% of the policy median");
        std::process::exit(1);
    }
    eprintln!("smoke ok");
    std::process::exit(0);
}

fn main() {
    let mut out_path = String::from("BENCH_sim.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--smoke" => smoke(),
            other => {
                eprintln!("unknown flag {other}; usage: bench_sim_json [--out PATH | --smoke]");
                std::process::exit(1);
            }
        }
    }

    let mut rows = bench_rows(&scales());
    let huge = bench_rows(&huge_scales());
    print_scaling_summary(&huge);
    rows.extend(huge);
    let doc = BenchDoc {
        unit: "events/s",
        benchmarks: rows,
        sweep: bench_sweep(),
        overhead: bench_overhead(),
        journal: bench_journal(),
        oracle: bench_oracle(),
    };
    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&doc).expect("serialises"),
    )
    .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
