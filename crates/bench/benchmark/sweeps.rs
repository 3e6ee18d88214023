//! The sweep workloads — `paper-sweep`, `fleet-sweep`, `oracle-regret` —
//! and the re-drive that splits a sweep's time into layers.
//!
//! A *pass* is one call of the library's matrix runner per batch at pool
//! width 2; the untraced run times as many passes as fit in `--seconds`.
//! The traced run times one pass at width 2, then plain width-1 passes
//! and width-1 passes with a span around every `run_scenario` (and every
//! `oracle_replication`), and finally re-drives every replication the
//! pass reported through `replication_inputs` and `simulate` to time
//! those two layers and read the simulator's counters.

use crate::calib::calibrated_rounds;
use crate::spans::{self, Tracer};
use crate::{
    end_to_end, fnv1a64, measure_setup, op_metrics, pin_gate, timed, Ctx, Run, Scale, WIDTH,
};
use dgsched_core::experiment::{
    canonical_sweep_bytes, fig1_panels, fig2_panels, oracle_replication, replication_inputs,
    run_matrix, run_matrix_regret, run_replication_traced, run_scenario, sweep_fingerprint,
    OracleConfig, Scenario, ScenarioResult, WorkloadKind,
};
use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::{
    simulate, simulate_instrumented, simulate_replayed, NullObserver, SimConfig, TraceEnv,
};
use dgsched_des::stats::StoppingRule;
use dgsched_grid::{Availability, CheckpointConfig, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec, PAPER_GRANULARITIES};
use std::collections::BTreeMap;

/// One matrix-runner call: scenarios under one stopping rule, scored
/// against the hindsight oracle when `oracle` is set.
pub struct Batch {
    pub scenarios: Vec<Scenario>,
    pub rule: StoppingRule,
    pub oracle: Option<OracleConfig>,
}

pub fn fixed_reps(n: u64) -> StoppingRule {
    StoppingRule {
        min_replications: n,
        max_replications: n,
        ..StoppingRule::default()
    }
}

/// One panel of each of the paper's figures — 1b and 2b, the
/// heterogeneous platform at low intensity under high and low
/// availability — × four granularities × five policies: 40 scenarios on
/// the 100-machine platforms, at the sizes of the figure binaries'
/// `--scale quick` preset: 40 bags per run (4 of them warm-up) and the
/// paper's 95 % / 2.5 % stopping rule between 3 and 5 replications. All
/// eight panels at these sizes take about 4.5 s a pass at width 2, too
/// long for a run to time several; two take about 1.3 s. The Fig. 2 panel
/// is where failures, checkpoints and restarts do their work.
fn paper(scale: Scale) -> Vec<Batch> {
    let (grans, bags, warmup, rule): (&[f64], _, _, _) = match scale {
        Scale::Full => (&PAPER_GRANULARITIES, 40, 4, (3, 5)),
        Scale::Toy => (&[25_000.0], 4, 0, (2, 3)),
    };
    let scenarios = [&fig1_panels()[1], &fig2_panels()[1]]
        .into_iter()
        .flat_map(|p| p.scenarios_for(grans, &PolicyKind::all(), bags, warmup))
        .collect();
    vec![Batch {
        scenarios,
        rule: StoppingRule {
            min_replications: rule.0,
            max_replications: rule.1,
            ..StoppingRule::default()
        },
        oracle: None,
    }]
}

/// How many results of a pass used each replication count, as
/// `count×replications` pairs: whether the stopping rule ended scenarios
/// before its cap.
fn replication_counts(results: &[ScenarioResult]) -> String {
    let mut counts = BTreeMap::new();
    for r in results {
        *counts.entry(r.replications).or_insert(0u32) += 1;
    }
    let parts: Vec<String> = counts
        .iter()
        .map(|(reps, n)| format!("{n}×{reps}"))
        .collect();
    parts.join(" ")
}

/// A homogeneous, always-available fleet of `machines` under every
/// policy (10 power units per machine, as in the paper's Hom platforms).
fn hom_fleet(machines: usize, bags: usize, app_size: f64, lazy: bool) -> Vec<Scenario> {
    PolicyKind::all_with_baselines()
        .into_iter()
        .map(|policy| Scenario {
            name: format!("fleet-{machines} {policy}"),
            grid: GridConfig {
                total_power: 10.0 * machines as f64,
                heterogeneity: Heterogeneity::HOM,
                availability: Availability::HIGH,
                checkpoint: CheckpointConfig::default(),
                outages: None,
            },
            workload: WorkloadKind::Single(WorkloadSpec {
                bot_type: BotType {
                    granularity: 5_000.0,
                    app_size,
                    jitter: 0.5,
                },
                intensity: Intensity::Low,
                count: bags,
            }),
            policy,
            sim: SimConfig {
                lazy_availability: lazy,
                ..SimConfig::default()
            },
        })
        .collect()
}

/// Two fleet tiers under all seven policies, with fixed replications:
/// 1 000 machines × 50 bags (the tier where FCFS-Excl is an outlier), and
/// 10 000 machines with lazy availability and bags of n·ln n tasks — the
/// sizing `bench_sim_json` uses so replica churn per event stays flat as
/// the fleet grows. Failures are nearly absent here; per-event cost
/// depends on fleet size instead.
fn fleet(scale: Scale) -> Vec<Batch> {
    let (large, large_bags, large_reps, huge, huge_bags) = match scale {
        Scale::Full => (1_000, 50, 5, 10_000usize, 5),
        Scale::Toy => (200, 10, 2, 1_000, 4),
    };
    let n = huge as f64;
    vec![
        Batch {
            scenarios: hom_fleet(large, large_bags, 250_000.0, false),
            rule: fixed_reps(large_reps),
            oracle: None,
        },
        Batch {
            scenarios: hom_fleet(huge, huge_bags, 15_000.0 * n * n.ln() / 1_000f64.ln(), true),
            rule: fixed_reps(1),
            oracle: None,
        },
    ]
}

/// The `dgsched demo` platform (Het-MedAvail, g = 25 000, U = 0.5, 60
/// bags) under all seven policies: one environment group, so each oracle
/// replication captures one trace, replays the seven policies on it and
/// runs one permutation search shared by all seven cells. Replications
/// are fixed so that every seed asks for the same amount of work.
fn oracle(scale: Scale) -> Vec<Batch> {
    let (bags, warmup, reps, ocfg) = match scale {
        Scale::Full => (60, 5, 5, (4, 24, 2)),
        Scale::Toy => (12, 1, 2, (2, 8, 1)),
    };
    let scenarios = PolicyKind::all_with_baselines()
        .into_iter()
        .map(|policy| Scenario {
            name: format!("demo: Het-MedAvail g=25000 U=0.5 {policy}"),
            grid: GridConfig::paper(Heterogeneity::HET, Availability::MED),
            workload: WorkloadKind::Single(WorkloadSpec {
                bot_type: BotType::paper(25_000.0),
                intensity: Intensity::Low,
                count: bags,
            }),
            policy,
            sim: SimConfig {
                warmup_bags: warmup,
                ..SimConfig::default()
            },
        })
        .collect();
    vec![Batch {
        scenarios,
        rule: fixed_reps(reps),
        oracle: Some(OracleConfig {
            restarts: ocfg.0,
            iters: ocfg.1,
            seed: 0,
            replications: ocfg.2,
        }),
    }]
}

/// Set-up: builds the workload's matrix and checks it the way `dgsched
/// run` and the daemon do before any work starts — every scenario
/// validated, the canonical request bytes and fingerprint computed — then
/// realizes replication 0's grid and workload once per distinct
/// environment and validates the generated workload.
fn prepare(workload: &str, scale: Scale, seed: u64) -> Result<Vec<Batch>, String> {
    let batches = match workload {
        "paper-sweep" => paper(scale),
        "fleet-sweep" => fleet(scale),
        _ => oracle(scale),
    };
    for b in &batches {
        for s in &b.scenarios {
            s.validate()?;
        }
        canonical_sweep_bytes(&b.scenarios, seed, &b.rule).map_err(|e| e.to_string())?;
        sweep_fingerprint(&b.scenarios, seed, &b.rule).map_err(|e| e.to_string())?;
        let mut seen: Vec<&Scenario> = Vec::new();
        for s in &b.scenarios {
            let same_env =
                |t: &&Scenario| t.grid == s.grid && t.workload == s.workload && t.sim == s.sim;
            if seen.iter().any(same_env) {
                continue;
            }
            seen.push(s);
            let (grid, workload, _) = replication_inputs(s, seed, 0);
            workload.validate()?;
            if grid.is_empty() || workload.len() != s.workload.count() {
                return Err(format!(
                    "{}: realized inputs do not match the scenario",
                    s.name
                ));
            }
        }
    }
    Ok(batches)
}

/// One pass at the current pool width: every batch, results in order.
fn pass(batches: &[Batch], seed: u64) -> Vec<ScenarioResult> {
    batches
        .iter()
        .flat_map(|b| match &b.oracle {
            Some(o) => run_matrix_regret(&b.scenarios, seed, &b.rule, o),
            None => run_matrix(&b.scenarios, seed, &b.rule),
        })
        .collect()
}

fn to_json(results: &[ScenarioResult]) -> Vec<u8> {
    serde_json::to_vec(results).expect("results serialise")
}

/// `results` as the plain runner reports them (no regret section).
fn without_regret(results: &[ScenarioResult]) -> Vec<u8> {
    let plain: Vec<ScenarioResult> = results
        .iter()
        .map(|r| ScenarioResult {
            regret: None,
            ..r.clone()
        })
        .collect();
    to_json(&plain)
}

/// Gates every result of a pass: one per scenario, in order, measured
/// (not saturated, no failed replication), replications within the rule,
/// a finite positive turnaround, and — under the oracle — a regret
/// section with mean ≥ 0 from a search that evaluated something.
fn check_results(run: &mut Run, batches: &[Batch], results: &[ScenarioResult]) {
    let expected: Vec<(&Scenario, &Batch)> = batches
        .iter()
        .flat_map(|b| b.scenarios.iter().map(move |s| (s, b)))
        .collect();
    run.gate(results.len() == expected.len(), || {
        format!("{} results for {} scenarios", results.len(), expected.len())
    });
    for ((s, b), r) in expected.iter().zip(results) {
        let reps = b.rule.min_replications..=b.rule.max_replications;
        let ok = r.name == s.name
            && !r.saturated
            && r.failed_replications == 0
            && reps.contains(&r.replications)
            && r.turnaround.mean.is_finite()
            && r.turnaround.mean > 0.0;
        run.gate(ok, || {
            format!(
                "{}: saturated {}, failed replications {}, replications {}, turnaround {}",
                r.name, r.saturated, r.failed_replications, r.replications, r.turnaround.mean
            )
        });
        if let Some(o) = &b.oracle {
            let ok = r.regret.as_ref().is_some_and(|g| {
                g.regret.mean >= 0.0 && g.search_evaluations > 0 && g.replications == o.replications
            });
            run.gate(ok, || {
                format!("{}: missing or negative regret section", r.name)
            });
        }
    }
}

pub fn run(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let (setup_cost, prepared) =
        measure_setup(|_| prepare(ctx.workload, ctx.scale, ctx.seed), drop);
    let batches = match prepared {
        Ok(b) => b,
        Err(e) => {
            run.gate(false, || format!("invalid inputs: {e}"));
            return run;
        }
    };
    rayon::with_num_threads(WIDTH, || {
        let (cold_s, first) = timed(|| pass(&batches, ctx.seed));
        check_results(&mut run, &batches, &first);
        eprintln!("scenarios × replications: {}", replication_counts(&first));
        let first_json = to_json(&first);
        pin_gate(&mut run, ctx, &fnv1a64(&first_json));
        if ctx.trace {
            traced(ctx, &mut run, &batches, cold_s, &first);
            return;
        }
        let window = calibrated_rounds(ctx.seconds, 3, || {
            let (dt, results) = timed(|| pass(&batches, ctx.seed));
            let same = to_json(&results) == first_json;
            run.op(same, || {
                "a pass serialised differently from the first".into()
            });
            vec![dt]
        });
        // The matrix runner and the single-scenario runner must agree.
        let b = &batches[0];
        let single = run_scenario(&b.scenarios[0], ctx.seed, &b.rule);
        run.gate(to_json(&[single]) == without_regret(&first[..1]), || {
            "run_scenario disagrees with the matrix runner".into()
        });
        end_to_end(&mut run, setup_cost, &window);
    });
    run
}

/// The traced run: a width-2 pass; plain and span-wrapped width-1 passes
/// for the tracing overhead; then, at width 1, each library call once
/// more followed at once by the re-drive of what it computed, so a
/// layer's time and the time of the call it sits in are measured moments
/// apart — the host's speed drifts over seconds.
fn traced(ctx: &Ctx, run: &mut Run, batches: &[Batch], cold_s: f64, reference: &[ScenarioResult]) {
    let seed = ctx.seed;
    let reference_json = to_json(reference);
    run.values.set("experiment.cold_pass_s", cold_s);
    let (t2, r2) = timed(|| pass(batches, seed));
    run.op(to_json(&r2) == reference_json, || {
        "a pass serialised differently from the first".into()
    });
    op_metrics(&mut run.values, &[t2]);
    // Plain and span-wrapped width-1 passes, alternated five times; the
    // fastest of each kind is its cost, so a disturbed pass does not read
    // as tracing overhead.
    let (mut t1, mut tw) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let (dt, r1) = rayon::with_num_threads(1, || timed(|| pass(batches, seed)));
        t1 = t1.min(dt);
        run.gate(to_json(&r1) == reference_json, || {
            "the width-1 pass differs from the width-2 pass".into()
        });
        let (dt, ()) =
            rayon::with_num_threads(1, || timed(|| wrapped_pass(&Tracer::new(), batches, seed)));
        tw = tw.min(dt);
    }
    run.values
        .set("experiment.parallel_efficiency", t1 / (WIDTH as f64 * t2));
    run.values.set("trace.overhead_ratio", tw / t1);

    let tracer = Tracer::new();
    let items: Vec<Redrive<'_>> = batches
        .iter()
        .flat_map(|b| b.scenarios.iter().map(move |s| (s, &b.rule)))
        .zip(reference)
        .map(|((scenario, rule), result)| Redrive {
            scenario,
            result,
            rule: Some(rule),
        })
        .collect();
    rayon::with_num_threads(1, || {
        redrive(&tracer, run, &items, seed);
        if let Some(b) = batches.iter().find(|b| b.oracle.is_some()) {
            oracle_redrive(&tracer, run, b, seed, reference);
        }
    });
    let spans = tracer.finish();
    sim_layers(&mut run.values, &spans);
    let v = &mut run.values;
    v.set(
        "experiment.run_scenario_s",
        spans::total(&spans, "run_scenario"),
    );
    // What run_scenario spends beyond building inputs and simulating:
    // the fold, the stopping rule, the pool. A difference of two
    // measurements, so it can read slightly negative within noise.
    let fold =
        v.get("experiment.run_scenario_s") - v.get("experiment.inputs_s") - v.get("sim.simulate_s");
    v.set("experiment.fold_s", fold);
    let replication_s = spans::total(&spans, "oracle_replication");
    v.set("oracle.replication_s", replication_s);
    v.set("sim.trace_capture_s", spans::total(&spans, "trace_capture"));
    v.set("sim.replay_s", spans::total(&spans, "replay"));
    let search_s = replication_s - spans::total(&spans, "oracle_redrive");
    v.set("oracle.search_s", search_s);
    if search_s > 0.0 {
        v.set("oracle.evals_per_s", v.get("oracle.evaluations") / search_s);
    }
    crate::save_spans(ctx, run, &spans);
}

/// A width-1 pass with a span around each library call: `run_scenario`
/// per scenario and, for an oracle batch, `oracle_replication` per
/// replication — the work of a plain pass, one span per call.
fn wrapped_pass(tracer: &Tracer, batches: &[Batch], seed: u64) {
    tracer.span("pass", None, None, |pass| {
        for b in batches {
            for (i, s) in b.scenarios.iter().enumerate() {
                tracer.span("run_scenario", Some(pass), Some(i as u64), |_| {
                    std::hint::black_box(run_scenario(s, seed, &b.rule))
                });
            }
            if let Some(o) = &b.oracle {
                for rep in 0..o.replications {
                    tracer.span("oracle_replication", Some(pass), Some(rep), |_| {
                        std::hint::black_box(oracle_replication(&b.scenarios[0], seed, rep, o))
                    });
                }
            }
        }
    })
}

/// For each oracle replication: `oracle_replication` in a span, then its
/// non-search steps re-driven with spans — capture the donor's trace,
/// rebuild the inputs, extract the fault timeline, replay all seven
/// policies on it. What `oracle_replication` spends beyond these is the
/// permutation search. Every oracle batch here is one environment group,
/// whose first scenario is the donor, as in the library's own regret pass.
fn oracle_redrive(
    tracer: &Tracer,
    run: &mut Run,
    batch: &Batch,
    seed: u64,
    reference: &[ScenarioResult],
) {
    let (donor, ocfg) = (&batch.scenarios[0], batch.oracle.as_ref());
    let reps = ocfg.map_or(0, |o| o.replications);
    let mut oracle_reps = Vec::new();
    for rep in 0..reps {
        oracle_reps.push(tracer.span("oracle_replication", None, Some(rep), |_| {
            oracle_replication(donor, seed, rep, ocfg.expect("an oracle batch"))
        }));
        tracer.span("oracle_redrive", None, Some(rep), |id| {
            let (_, trace) = tracer.span("trace_capture", Some(id), Some(rep), |_| {
                run_replication_traced(donor, seed, rep)
            });
            let (grid, workload, cfg) = tracer.span("oracle.inputs", Some(id), Some(rep), |_| {
                replication_inputs(donor, seed, rep)
            });
            let env = tracer.span("trace_env", Some(id), Some(rep), |_| {
                TraceEnv::from_trace(&trace.events, grid.len())
            });
            for kind in PolicyKind::all_with_baselines() {
                tracer.span("replay", Some(id), Some(rep), |_| {
                    simulate_replayed(&grid, &workload, kind.create_seeded(cfg.seed), &cfg, &env)
                });
            }
        });
    }
    let evaluations: u64 = oracle_reps.iter().map(|r| r.search.evaluations).sum();
    let reported = reference[0].regret.as_ref().map(|g| g.search_evaluations);
    run.gate(reported == Some(evaluations), || {
        format!("traced search evaluated {evaluations} candidates, the sweep reported {reported:?}")
    });
    let wins = oracle_reps
        .iter()
        .filter(|r| r.incumbent == "search")
        .count();
    run.values.set("oracle.evaluations", evaluations as f64);
    run.values.set(
        "oracle.search_win_ratio",
        wins as f64 / oracle_reps.len().max(1) as f64,
    );
}

/// Layer totals of a re-drive (see [`redrive`]).
pub fn sim_layers(values: &mut crate::metrics::Values, spans: &[spans::Span]) {
    let simulate_s = spans::total(spans, "simulate");
    values.set("experiment.inputs_s", spans::total(spans, "inputs"));
    values.set("sim.simulate_s", simulate_s);
    if simulate_s > 0.0 {
        values.set("sim.events_per_s", values.get("sim.events") / simulate_s);
    }
}

/// Per-policy simulated events and simulate-call seconds.
type PolicyLoad = BTreeMap<&'static str, (u64, f64)>;

/// One scenario to re-drive, with the result a sweep reported for it.
pub struct Redrive<'a> {
    pub scenario: &'a Scenario,
    pub result: &'a ScenarioResult,
    /// When set, `run_scenario` runs first under this rule, in a span of
    /// its own, and must reproduce `result`.
    pub rule: Option<&'a StoppingRule>,
}

/// Re-drives every replication each item's result reported through the
/// runner's own public steps — `replication_inputs`, then `simulate` —
/// with spans around both, and records the simulator's counters. Each
/// re-driven replication must reproduce the turnaround the sweep reported
/// for it. Replication 0 of each scenario then runs once more
/// instrumented (untimed) for the event-queue counts.
pub fn redrive(tracer: &Tracer, run: &mut Run, items: &[Redrive<'_>], seed: u64) {
    let mut load = PolicyLoad::new();
    let mut busy_useful = (0.0, 0.0);
    tracer.span("redrive", None, None, |root| {
        for (i, item) in items.iter().enumerate() {
            let (s, r) = (item.scenario, item.result);
            if let Some(rule) = item.rule {
                let again = tracer.span("run_scenario", Some(root), Some(i as u64), |_| {
                    run_scenario(s, seed, rule)
                });
                run.gate(
                    to_json(&[again]) == without_regret(std::slice::from_ref(r)),
                    || format!("{}: run_scenario disagrees with the matrix runner", s.name),
                );
            }
            tracer.span("scenario", Some(root), Some(i as u64), |sid| {
                for rep in 0..r.replications {
                    let (dt, res) = tracer.span("replication", Some(sid), Some(rep), |rid| {
                        let (grid, workload, cfg) =
                            tracer.span("inputs", Some(rid), Some(rep), |_| {
                                replication_inputs(s, seed, rep)
                            });
                        tracer.span("simulate", Some(rid), Some(rep), |_| {
                            timed(|| simulate(&grid, &workload, s.policy, &cfg))
                        })
                    });
                    let entry = load.entry(s.policy.paper_name()).or_default();
                    entry.0 += res.events;
                    entry.1 += dt;
                    let v = &mut run.values;
                    let c = &res.counters;
                    v.add("experiment.replications", 1.0);
                    v.add("sim.events", res.events as f64);
                    v.add("sim.replicas_launched", c.replicas_launched as f64);
                    v.add(
                        "sim.replicas_killed_sibling",
                        c.replicas_killed_sibling as f64,
                    );
                    v.add(
                        "sim.replicas_killed_failure",
                        c.replicas_killed_failure as f64,
                    );
                    v.add("sim.machine_failures", c.machine_failures as f64);
                    v.add("sim.checkpoints_written", c.checkpoints_written as f64);
                    busy_useful.0 += c.killed_occupancy;
                    busy_useful.1 += c.busy_time;
                    let reported = r.replication_means.get(rep as usize).copied();
                    let reproduced = res.saturated || reported == Some(res.mean_turnaround());
                    run.op(reproduced, || {
                        format!("{} replication {rep}: re-driven turnaround differs", s.name)
                    });
                }
            });
        }
    });
    let v = &mut run.values;
    for (policy, (events, secs)) in &load {
        v.set(&format!("sim.events_per_s.{policy}"), *events as f64 / secs);
    }
    let launched = v.get("sim.replicas_launched");
    let killed = v.get("sim.replicas_killed_sibling") + v.get("sim.replicas_killed_failure");
    if launched > 0.0 {
        v.set("sim.replica_yield", (launched - killed) / launched);
    }
    let (killed_occupancy, busy) = busy_useful;
    if busy > 0.0 {
        v.set("sim.busy_useful_ratio", 1.0 - killed_occupancy / busy);
    }
    for s in items.iter().map(|item| item.scenario) {
        let (grid, workload, cfg) = replication_inputs(s, seed, 0);
        let mut null = NullObserver;
        let policy = s.policy.create_seeded(cfg.seed);
        let (_, report) = simulate_instrumented(&grid, &workload, policy, &cfg, &mut null);
        let q = &report.queue;
        v.add("des.queue.scheduled", q.scheduled as f64);
        v.add("des.queue.cancelled", q.cancelled as f64);
        v.add("des.queue.popped", q.popped as f64);
        let max = v.get("des.queue.max_pending").max(q.max_pending as f64);
        v.set("des.queue.max_pending", max);
    }
}
