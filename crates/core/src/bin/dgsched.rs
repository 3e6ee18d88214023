//! `dgsched` — command-line front end to the simulator.
//!
//! ```text
//! dgsched demo                          # print a sample scenario JSON
//! dgsched run scenario.json             # run it (replications + CI) and report
//! dgsched run experiments/fig1.json     # run a sweep request, as POST /sweep would
//! dgsched run experiments/e12-regret.json  # run an oracle request, as POST /oracle would
//! dgsched serve --addr 127.0.0.1:7700   # sweep service with a result cache
//! dgsched gen --size pareto:alpha=1.5,min=8e5 --arrivals mmpp:ratio=9,frac=0.1,len=25 \
//!             -o scenario.json          # trace-realistic scenario (heavy tails)
//! dgsched gen -g 25000 -u low -n 50 --workload w.json   # also save a sampled workload
//! dgsched summarize w.json              # describe a saved workload
//! ```
//!
//! Scenario files are the serde form of [`dgsched_core::experiment::Scenario`];
//! `run` also takes a sweep request, the serde form of
//! [`dgsched_core::serve::SweepRequest`], or an oracle request, the serde
//! form of [`dgsched_core::serve::OracleRequest`] (the files under
//! `experiments/`).
//!
//! Exit codes: `0` success, `1` runtime failure (bad file, failed sweep,
//! bind error), `2` usage error (unknown flag, missing value).

use dgsched_core::experiment::{
    oracle_fingerprint, pivot_table, run_replication_instrumented, run_sweep, sweep_fingerprint,
    OracleConfig, Scenario, ScenarioResult, SweepOptions, WorkloadKind,
};
use dgsched_core::policy::PolicyKind;
use dgsched_core::serve::{
    self_check, validate_oracle, validate_scenarios, OracleRequest, ServeConfig, Server,
    SweepRequest, SweepResponse,
};
use dgsched_core::sim::Gantt;
use dgsched_core::sim::SimConfig;
use dgsched_core::sim::{TraceRecorder, TraceRing};
use dgsched_des::stats::StoppingRule;
use dgsched_grid::{Availability, GridConfig, Heterogeneity};
use dgsched_workload::{
    ArrivalModel, BotType, Intensity, RealisticSpec, SizeModel, TaskJitter, Workload, WorkloadSpec,
    WorkloadSummary,
};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  dgsched demo\n  dgsched run <scenario.json|sweep.json|oracle.json> [--seed N] [--min-reps N]\n               [--max-reps N] [--journal <file.jsonl> [--resume]]\n  dgsched serve [--addr HOST:PORT] [--cache-dir DIR] [--slots N]\n                [--threads N] [--check]\n  dgsched trace <scenario.json> [--seed N] [--rep N] [--out trace.jsonl]\n                [--ring N] [--metrics] [--gantt]\n  dgsched gen [-g N] [-u low|medium|high] [-n bags] [--size SPEC] [--jitter SPEC]\n              [--arrivals SPEC] [--policy NAME] [--het] [--avail high|med|low]\n              [--warmup N] [--name NAME] [-o scenario.json]\n              [--workload w.json] [--seed N]\n  dgsched summarize <workload.json>\n\ngen:\n  emits a trace-realistic scenario JSON (stdout or -o) that `dgsched\n  run` and the serve daemon accept unmodified; the workload is\n  regenerated per replication from the embedded spec, so the file is\n  pure configuration and byte-identical for a fixed flag set\n  --size SPEC       per-bag application size distribution:\n                    fixed[:app_size=X] (default, X=2.5e6)\n                    pareto:alpha=A,min=M[,cap=C]   (heavy tail, A > 1)\n                    zipf:exponent=E,ranks=K,base=B (discrete ladder)\n  --jitter SPEC     per-task work around the granularity:\n                    uniform[:half_width=H] (default, H=0.5)\n                    lognormal:sigma=S      (mean-preserving, S in (0,4])\n  --arrivals SPEC   submission stream shape (mean rate is always U/D):\n                    poisson (default)\n                    hyperexp:cv=C            (bursty renewal, C >= 1)\n                    diurnal:period=P,amplitude=A  (day/night cycle)\n                    mmpp:ratio=R,frac=F,len=L     (2-state bursts)\n  --policy NAME     bag-selection policy (default long-idle)\n  --het             heterogeneous platform (default homogeneous)\n  --avail LEVEL     availability class high|med|low (default high)\n  --workload FILE   also materialise one sampled workload with --seed N\n                    (default 1) and save it as a workload JSON\n\nrun:\n  takes one scenario (stdout: its result JSON) or a sweep request, the\n  body of POST /sweep such as experiments/fig1.json (stdout: the exact\n  bytes /sweep answers; stderr: progress and one table of the results);\n  a body with an 'oracle' key is an oracle request, the body of POST\n  /oracle such as experiments/e12-regret.json: the sweep plus each\n  policy's hindsight regret ((policy - oracle) / oracle with a CI);\n  --seed, --min-reps and --max-reps override the file's values\n\njournal:\n  --journal FILE    append each completed replication (and oracle search\n                    restart) to FILE (fsynced JSONL) so a killed run loses\n                    at most the work in flight\n  --resume          replay the journal's intact records instead of\n                    recomputing them; the final JSON is byte-identical to\n                    an uninterrupted run\n\nserve:\n  --addr HOST:PORT  listen address (default 127.0.0.1:7700; port 0 binds\n                    an ephemeral port, reported on stdout)\n  --cache-dir DIR   state directory for the result cache and journals\n                    (default: per-instance temp dir); results are keyed\n                    by sweep fingerprint and cache hits are byte-identical\n  --slots N         concurrent sweep slots, fair-shared across tenants\n                    round-robin (default 1)\n  --threads N       pool width for each sweep (default: DGSCHED_THREADS /\n                    RAYON_NUM_THREADS / all cores)\n  --check           self-test: bind, round-trip a demo sweep twice, verify\n                    the second is a byte-identical cache hit, then send it\n                    plus one scenario and verify the journaled\n                    replications are reused, exit"
    );
    exit(2)
}

/// Usage error: consistent prefix, pointer at the help text, exit 2.
fn fail(msg: &str) -> ! {
    eprintln!("dgsched: {msg} (run 'dgsched' with no arguments for usage)");
    exit(2)
}

/// Runtime failure: consistent prefix, exit 1.
fn die(msg: &str) -> ! {
    eprintln!("dgsched: {msg}");
    exit(1)
}

fn demo_scenario() -> Scenario {
    Scenario {
        name: "demo: Het-MedAvail g=25000 U=0.5 LongIdle".into(),
        grid: GridConfig::paper(Heterogeneity::HET, Availability::MED),
        workload: WorkloadKind::Single(WorkloadSpec {
            bot_type: BotType::paper(25_000.0),
            intensity: Intensity::Low,
            count: 60,
        }),
        policy: PolicyKind::LongIdle,
        sim: SimConfig {
            warmup_bags: 5,
            ..SimConfig::default()
        },
    }
}

type Args = std::iter::Peekable<std::vec::IntoIter<String>>;

/// The value of `flag`, or a usage error naming the flag.
fn flag_value(args: &mut Args, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
}

fn parse_u64(args: &mut Args, flag: &str) -> u64 {
    flag_value(args, flag)
        .parse()
        .unwrap_or_else(|_| fail(&format!("{flag} takes a number")))
}

fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")))
}

fn parse_scenario(data: &str) -> Scenario {
    let scenario: Scenario =
        serde_json::from_str(data).unwrap_or_else(|e| die(&format!("invalid scenario file: {e}")));
    if let Err(e) = scenario.validate() {
        die(&format!("invalid scenario file: {e}"))
    }
    scenario
}

fn load_scenario(path: &str) -> Scenario {
    parse_scenario(&read_file(path))
}

/// Loads what `dgsched run` accepts: one scenario, a sweep request (the
/// body of `POST /sweep`, told apart by its `scenarios` key) or an oracle
/// request (the body of `POST /oracle`, which has an `oracle` key too),
/// split into its sweep and its search knobs. A scenario comes back as a
/// one-scenario request with the defaults, and `true` marks it as one.
fn load_run_file(path: &str) -> (SweepRequest, Option<OracleConfig>, bool) {
    let data = read_file(path);
    let value = serde_json::from_str::<serde_json::Value>(&data).ok();
    let fields = value
        .as_ref()
        .and_then(|v| v.as_object())
        .unwrap_or_default();
    let has = |key: &str| fields.iter().any(|(k, _)| k == key);
    if !has("scenarios") {
        let request = SweepRequest {
            scenarios: vec![parse_scenario(&data)],
            base_seed: 2008,
            rule: StoppingRule::default(),
            tenant: None,
        };
        return (request, None, true);
    }
    let kind = if has("oracle") { "oracle" } else { "sweep" };
    let invalid = |e: &dyn std::fmt::Display| -> ! { die(&format!("invalid {kind} request: {e}")) };
    let (request, ocfg) = if has("oracle") {
        let request: OracleRequest = serde_json::from_str(&data).unwrap_or_else(|e| invalid(&e));
        let (request, ocfg) = request.into_parts();
        (request, Some(ocfg))
    } else {
        let request = serde_json::from_str(&data).unwrap_or_else(|e| invalid(&e));
        (request, None)
    };
    let valid = validate_scenarios(&request.scenarios)
        .and_then(|()| ocfg.as_ref().map_or(Ok(()), validate_oracle));
    if let Err(e) = valid {
        invalid(&e)
    }
    (request, ocfg, false)
}

fn cmd_run(mut args: Args) {
    let path = args
        .next()
        .unwrap_or_else(|| fail("run needs a scenario file"));
    let (mut seed, mut min_reps, mut max_reps) = (None, None, None);
    let mut journal: Option<String> = None;
    let mut resume = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => seed = Some(parse_u64(&mut args, "--seed")),
            "--min-reps" => min_reps = Some(parse_u64(&mut args, "--min-reps")),
            "--max-reps" => max_reps = Some(parse_u64(&mut args, "--max-reps")),
            "--journal" => journal = Some(flag_value(&mut args, "--journal")),
            "--resume" => resume = true,
            _ => fail(&format!("unknown flag {flag:?} for 'run'")),
        }
    }
    if resume && journal.is_none() {
        fail("--resume requires --journal")
    }
    let (mut req, ocfg, single) = load_run_file(&path);
    req.base_seed = seed.unwrap_or(req.base_seed);
    let rule = &mut req.rule;
    rule.min_replications = min_reps.unwrap_or(rule.min_replications);
    rule.max_replications = max_reps.unwrap_or(rule.max_replications);
    let (scenarios, seed, rule) = (&req.scenarios, req.base_seed, &req.rule);
    if single {
        eprintln!("running '{}' (seed {seed})...", scenarios[0].name);
    } else {
        eprintln!("running {} scenarios (seed {seed})...", scenarios.len());
    }
    let progress = |done, total, name: &str| {
        if !single {
            eprintln!("[{done}/{total}] {name}");
        }
    };
    let opts = SweepOptions {
        journal: journal.as_deref().map(Path::new),
        resume,
        oracle: ocfg.as_ref(),
        ..SweepOptions::default()
    };
    let jpath = journal.as_deref().unwrap_or_default();
    let outcome = run_sweep(scenarios, seed, rule, opts, progress)
        .unwrap_or_else(|e| die(&format!("journal {jpath}: {e}")));
    let stats = outcome.stats;
    if journal.is_some() {
        let (written, replayed) = (stats.restarts_written, stats.restarts_replayed);
        let restarts = format!("; {written} restarts written, {replayed} replayed");
        let notes = [
            (ocfg.is_some(), restarts.as_str()),
            (stats.resumes > 0, " (resumed)"),
            (stats.torn_tails > 0, ", torn tail truncated"),
            (
                stats.replication_panics > 0,
                ", replication panics isolated",
            ),
        ];
        let notes: String = notes.iter().filter(|n| n.0).map(|n| n.1).collect();
        let (written, replayed) = (stats.records_written, stats.records_replayed);
        eprintln!("journal {jpath}: {written} written, {replayed} replayed{notes}");
    }
    if single {
        report_scenario(&outcome.results[0]);
    } else {
        report_sweep(&req, ocfg.as_ref(), outcome.results);
    }
}

/// One scenario's result: pretty JSON on stdout, a summary on stderr.
fn report_scenario(result: &ScenarioResult) {
    println!(
        "{}",
        serde_json::to_string_pretty(result).expect("result serialises")
    );
    if result.failed_replications > 0 {
        eprintln!(
            "note: {} of {} replications failed: {}",
            result.failed_replications,
            result.replications,
            result.failure_reasons.join("; ")
        );
    } else if result.saturated {
        eprintln!(
            "note: {} of {} replications saturated — the configuration is overloaded",
            result.saturated_replications, result.replications
        );
    } else {
        eprintln!(
            "mean turnaround {:.0} s ± {:.0} ({} replications)",
            result.turnaround.mean, result.turnaround.half_width, result.replications
        );
    }
}

/// A sweep's result: on stdout the exact bytes `POST /sweep` (or, with
/// `ocfg`, `POST /oracle`) answers for the same request, on stderr the
/// results pivoted into one table.
fn report_sweep(req: &SweepRequest, ocfg: Option<&OracleConfig>, results: Vec<ScenarioResult>) {
    // `run` clamps no events, so this is the key a daemon without a
    // clamp caches the request under.
    let (scenarios, seed, rule) = (&req.scenarios, req.base_seed, &req.rule);
    let fingerprint = match ocfg {
        Some(ocfg) => oracle_fingerprint(scenarios, seed, rule, ocfg),
        None => sweep_fingerprint(scenarios, seed, rule),
    }
    .unwrap_or_else(|e| die(&format!("cannot fingerprint the sweep: {e}")));
    let table = pivot_table(&results);
    let response = SweepResponse {
        fingerprint,
        results,
    };
    let bytes = serde_json::to_vec(&response).expect("response serialises");
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_all(&bytes).and_then(|()| stdout.flush()) {
        die(&format!("cannot write the result: {e}"))
    }
    eprint!("\n{}", table.to_markdown());
}

fn cmd_serve(mut args: Args) {
    let mut cfg = ServeConfig::default();
    let mut check = false;
    let mut addr_given = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => {
                cfg.addr = flag_value(&mut args, "--addr");
                addr_given = true;
            }
            "--cache-dir" => {
                cfg.cache_dir = Some(PathBuf::from(flag_value(&mut args, "--cache-dir")))
            }
            "--slots" => cfg.slots = parse_u64(&mut args, "--slots") as usize,
            "--threads" => cfg.width = Some(parse_u64(&mut args, "--threads") as usize),
            "--check" => check = true,
            _ => fail(&format!("unknown flag {flag:?} for 'serve'")),
        }
    }
    if check {
        // The self-test defaults to an ephemeral port so it never
        // collides with a daemon already running on the default one.
        let addr = if addr_given {
            cfg.addr.as_str()
        } else {
            "127.0.0.1:0"
        };
        match self_check(addr) {
            Ok(summary) => {
                println!("serve self-check: {summary}");
                return;
            }
            Err(e) => die(&format!("serve self-check failed: {e}")),
        }
    }
    let server =
        Server::bind(&cfg).unwrap_or_else(|e| die(&format!("cannot bind {}: {e}", cfg.addr)));
    let addr = server.local_addr();
    // Machine-readable startup line: tooling (and the integration tests)
    // parse the bound address from here, which is what makes `--addr
    // 127.0.0.1:0` usable.
    println!("{{\"event\":\"listening\",\"addr\":\"{addr}\"}}");
    std::io::stdout().flush().ok();
    eprintln!(
        "dgsched serve: listening on {addr} ({} cached sweeps warm)",
        server.warmed_entries()
    );
    if let Err(e) = server.run() {
        die(&format!("serve: {e}"))
    }
}

fn cmd_trace(mut args: Args) {
    let path = args
        .next()
        .unwrap_or_else(|| fail("trace needs a scenario file"));
    let mut seed = 2008u64;
    let mut rep = 0u64;
    let mut out: Option<String> = None;
    let mut ring: Option<usize> = None;
    let mut metrics = false;
    let mut gantt = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => seed = parse_u64(&mut args, "--seed"),
            "--rep" => rep = parse_u64(&mut args, "--rep"),
            "--out" => out = Some(flag_value(&mut args, "--out")),
            "--ring" => {
                let n = parse_u64(&mut args, "--ring");
                if n == 0 {
                    fail("--ring takes a non-zero capacity")
                }
                ring = Some(n as usize);
            }
            "--metrics" => metrics = true,
            "--gantt" => gantt = true,
            _ => fail(&format!("unknown flag {flag:?} for 'trace'")),
        }
    }
    let scenario = load_scenario(&path);
    // One replication with the chosen tracer riding the metrics registry;
    // the RunResult is byte-identical to an untraced run of the same
    // (seed, rep) pair.
    let (result, report, events, dropped) = match ring {
        Some(capacity) => {
            let mut ring = TraceRing::new(capacity);
            let (result, report) = run_replication_instrumented(&scenario, seed, rep, &mut ring);
            (result, report, ring.events(), ring.dropped())
        }
        None => {
            let mut rec = TraceRecorder::new();
            let (result, report) = run_replication_instrumented(&scenario, seed, rep, &mut rec);
            (result, report, rec.events, 0u64)
        }
    };
    eprintln!(
        "replication {rep}: {} events, {} bags completed, mean turnaround {:.0} s",
        events.len(),
        result.completed,
        result.mean_turnaround()
    );
    if dropped > 0 {
        eprintln!("ring full: dropped the oldest {dropped} events (window keeps the tail)");
    }
    if metrics {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serialises")
        );
    }
    // The one trace format: JSONL, whose header carries the drop count,
    // so a ring's truncated window never reads as a complete run.
    let jsonl = || dgsched_obs::write_jsonl(&events, dropped);
    match out {
        Some(out) => {
            std::fs::write(&out, jsonl())
                .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
            eprintln!("wrote JSONL trace to {out}");
        }
        None if !gantt && !metrics => print!("{}", jsonl()),
        None => {}
    }
    let trace = TraceRecorder { events };
    if gantt {
        print!("{}", Gantt::from_trace(&trace).render(100, 20));
    }
}

/// Parses a `kind[:key=value[,key=value...]]` distribution spec into the
/// kind tag and its parameter list. Keys stay ordered as written so error
/// messages and `--help` examples line up.
fn spec_parts(flag: &str, text: &str) -> (String, Vec<(String, f64)>) {
    let (kind, rest) = match text.split_once(':') {
        Some((k, r)) => (k, r),
        None => (text, ""),
    };
    let mut params = Vec::new();
    if !rest.is_empty() {
        for pair in rest.split(',') {
            let (key, value) = pair
                .split_once('=')
                .unwrap_or_else(|| fail(&format!("{flag}: expected key=value, got {pair:?}")));
            let value: f64 = value
                .parse()
                .unwrap_or_else(|_| fail(&format!("{flag}: {key} takes a number, got {value:?}")));
            params.push((key.to_string(), value));
        }
    }
    (kind.to_string(), params)
}

/// Pulls `key` out of the parsed parameter list, or `None` if absent.
fn spec_take(params: &mut Vec<(String, f64)>, key: &str) -> Option<f64> {
    params
        .iter()
        .position(|(k, _)| k == key)
        .map(|i| params.remove(i).1)
}

/// Pulls `key` or dies with a usage error naming the flag.
fn spec_need(flag: &str, params: &mut Vec<(String, f64)>, key: &str) -> f64 {
    spec_take(params, key).unwrap_or_else(|| fail(&format!("{flag}: {key}=... is required")))
}

/// Dies if the user passed parameters the kind does not understand.
fn spec_done(flag: &str, kind: &str, params: Vec<(String, f64)>) {
    if let Some((key, _)) = params.first() {
        fail(&format!("{flag}: unknown parameter {key:?} for {kind:?}"))
    }
}

fn parse_size(text: &str) -> SizeModel {
    let (kind, mut params) = spec_parts("--size", text);
    let model = match kind.as_str() {
        "fixed" => SizeModel::Fixed {
            app_size: spec_take(&mut params, "app_size")
                .unwrap_or(dgsched_workload::PAPER_APP_SIZE),
        },
        "pareto" => SizeModel::Pareto {
            alpha: spec_need("--size", &mut params, "alpha"),
            min: spec_need("--size", &mut params, "min"),
            cap: spec_take(&mut params, "cap"),
        },
        "zipf" => {
            let ranks = spec_need("--size", &mut params, "ranks");
            if !(ranks.is_finite() && ranks >= 1.0 && ranks.fract() == 0.0) {
                fail(&format!("--size: ranks takes a whole number, got {ranks}"))
            }
            SizeModel::Zipf {
                exponent: spec_need("--size", &mut params, "exponent"),
                ranks: ranks as u32,
                base: spec_need("--size", &mut params, "base"),
            }
        }
        other => fail(&format!("--size takes fixed|pareto|zipf, got {other:?}")),
    };
    spec_done("--size", &kind, params);
    model
}

fn parse_jitter(text: &str) -> TaskJitter {
    let (kind, mut params) = spec_parts("--jitter", text);
    let jitter = match kind.as_str() {
        "uniform" => TaskJitter::Uniform {
            half_width: spec_take(&mut params, "half_width").unwrap_or(0.5),
        },
        "lognormal" => TaskJitter::Lognormal {
            sigma: spec_need("--jitter", &mut params, "sigma"),
        },
        other => fail(&format!("--jitter takes uniform|lognormal, got {other:?}")),
    };
    spec_done("--jitter", &kind, params);
    jitter
}

fn parse_arrivals(text: &str) -> ArrivalModel {
    let (kind, mut params) = spec_parts("--arrivals", text);
    let model = match kind.as_str() {
        "poisson" => ArrivalModel::Poisson,
        "hyperexp" => ArrivalModel::Hyperexponential {
            cv: spec_need("--arrivals", &mut params, "cv"),
        },
        "diurnal" => ArrivalModel::Diurnal {
            period: spec_need("--arrivals", &mut params, "period"),
            amplitude: spec_need("--arrivals", &mut params, "amplitude"),
        },
        "mmpp" => ArrivalModel::Mmpp {
            burst_ratio: spec_need("--arrivals", &mut params, "ratio"),
            burst_frac: spec_need("--arrivals", &mut params, "frac"),
            burst_len: spec_need("--arrivals", &mut params, "len"),
        },
        other => fail(&format!(
            "--arrivals takes poisson|hyperexp|diurnal|mmpp, got {other:?}"
        )),
    };
    spec_done("--arrivals", &kind, params);
    model
}

/// Short tag for the default scenario name, one per distribution axis.
fn size_tag(size: &SizeModel) -> &'static str {
    match size {
        SizeModel::Fixed { .. } => "fixed",
        SizeModel::Pareto { .. } => "pareto",
        SizeModel::Zipf { .. } => "zipf",
    }
}

fn arrivals_tag(model: &ArrivalModel) -> &'static str {
    match model {
        ArrivalModel::Poisson => "poisson",
        ArrivalModel::Hyperexponential { .. } => "hyperexp",
        ArrivalModel::Diurnal { .. } => "diurnal",
        ArrivalModel::Mmpp { .. } => "mmpp",
    }
}

fn cmd_gen(mut args: Args) {
    let mut granularity = 5_000.0f64;
    let mut intensity = Intensity::Low;
    let mut count = 60usize;
    let mut size = SizeModel::paper();
    let mut jitter = TaskJitter::paper();
    let mut arrivals = ArrivalModel::Poisson;
    let mut policy = PolicyKind::LongIdle;
    let mut het = false;
    let mut avail = Availability::HIGH;
    let mut warmup = 5usize;
    let mut name: Option<String> = None;
    let mut out: Option<String> = None;
    let mut workload_out: Option<String> = None;
    let mut seed = 1u64;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "-g" | "--granularity" => {
                granularity = flag_value(&mut args, "-g")
                    .parse()
                    .unwrap_or_else(|_| fail("-g takes a number"))
            }
            "-u" | "--intensity" => {
                intensity = match flag_value(&mut args, "-u").as_str() {
                    "low" => Intensity::Low,
                    "medium" => Intensity::Medium,
                    "high" => Intensity::High,
                    other => fail(&format!("-u takes low|medium|high, got {other:?}")),
                }
            }
            "-n" | "--count" => {
                count = flag_value(&mut args, "-n")
                    .parse()
                    .unwrap_or_else(|_| fail("-n takes a number"))
            }
            "--size" => size = parse_size(&flag_value(&mut args, "--size")),
            "--jitter" => jitter = parse_jitter(&flag_value(&mut args, "--jitter")),
            "--arrivals" => arrivals = parse_arrivals(&flag_value(&mut args, "--arrivals")),
            "--policy" => {
                let text = flag_value(&mut args, "--policy");
                policy = serde_json::from_str(&format!("\"{text}\""))
                    .unwrap_or_else(|_| fail(&format!("unknown policy {text:?}")));
            }
            "--het" => het = true,
            "--avail" => {
                avail = match flag_value(&mut args, "--avail").as_str() {
                    "high" => Availability::HIGH,
                    "med" => Availability::MED,
                    "low" => Availability::LOW,
                    other => fail(&format!("--avail takes high|med|low, got {other:?}")),
                }
            }
            "--warmup" => warmup = parse_u64(&mut args, "--warmup") as usize,
            "--name" => name = Some(flag_value(&mut args, "--name")),
            "-o" | "--out" => out = Some(flag_value(&mut args, "-o")),
            "--workload" => workload_out = Some(flag_value(&mut args, "--workload")),
            "--seed" => seed = parse_u64(&mut args, "--seed"),
            _ => fail(&format!("unknown flag {flag:?} for 'gen'")),
        }
    }
    let spec = RealisticSpec {
        granularity,
        size,
        task_jitter: jitter,
        arrivals,
        intensity,
        count,
    };
    let heterogeneity = if het {
        Heterogeneity::HET
    } else {
        Heterogeneity::HOM
    };
    let name = name.unwrap_or_else(|| {
        format!(
            "realistic {} g={} U={} size={} jitter={} arrivals={}",
            if het { "het" } else { "hom" },
            granularity,
            intensity.utilization(),
            size_tag(&spec.size),
            match spec.task_jitter {
                TaskJitter::Uniform { .. } => "uniform",
                TaskJitter::Lognormal { .. } => "lognormal",
            },
            arrivals_tag(&spec.arrivals),
        )
    });
    let scenario = Scenario {
        name,
        grid: GridConfig::paper(heterogeneity, avail),
        workload: WorkloadKind::Realistic(spec),
        policy,
        sim: SimConfig {
            warmup_bags: warmup,
            ..SimConfig::default()
        },
    };
    // The scenario check covers the spec, the grid and the sim knobs, so
    // -o never writes a file `run` would reject.
    if let Err(e) = scenario.validate() {
        fail(&e)
    }
    let json = serde_json::to_string_pretty(&scenario).expect("scenario serialises");
    match &out {
        Some(path) => {
            std::fs::write(path, json.as_bytes())
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            eprintln!("wrote scenario '{}' to {path}", scenario.name);
        }
        None => println!("{json}"),
    }
    if let Some(path) = &workload_out {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let w = scenario.workload.generate(&scenario.grid, &mut rng);
        w.save(Path::new(path))
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!(
            "wrote {} bags / {} tasks (seed {seed}) to {path}",
            w.len(),
            w.total_tasks()
        );
    }
}

fn cmd_summarize(mut args: Args) {
    let path = args
        .next()
        .unwrap_or_else(|| fail("summarize needs a workload file"));
    let w = Workload::load(Path::new(&path))
        .unwrap_or_else(|e| die(&format!("cannot load {path}: {e}")));
    let s = WorkloadSummary::of(&w);
    println!(
        "{}",
        serde_json::to_string_pretty(&s).expect("summary serialises")
    );
}

fn main() {
    let mut args = std::env::args()
        .skip(1)
        .collect::<Vec<_>>()
        .into_iter()
        .peekable();
    match args.next().as_deref() {
        Some("demo") => {
            println!(
                "{}",
                serde_json::to_string_pretty(&demo_scenario()).expect("scenario serialises")
            );
        }
        Some("run") => cmd_run(args),
        Some("serve") => cmd_serve(args),
        Some("trace") => cmd_trace(args),
        Some("gen") => cmd_gen(args),
        Some("summarize") => cmd_summarize(args),
        Some(other) => fail(&format!("unknown command {other:?}")),
        None => usage(),
    }
}
