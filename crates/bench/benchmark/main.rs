//! The repository benchmark: the paper's sweep, a large-fleet sweep, the
//! hindsight oracle and the sweep service, each timed end to end, plus a
//! traced mode that breaks the time down by layer. See README.md beside
//! this file for the workloads, the metrics and how to read them.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, one result line
//! benchmark --seed N [--seconds S] [--trace 0|1] [--out FILE]  every workload, one child each
//! benchmark --check [--seed N]                                 toy sizes, every gate, < 20 s
//! benchmark compare PARENT.json... -- CHANGE.json... [--spec BENCHMARK.json]
//! ```
//!
//! The last line of standard output of a single-workload run is one JSON
//! object with exactly the keys `correct`, `attempted`, `failed` and
//! `metrics`; everything else goes to standard error. The process exits
//! non-zero when any correctness gate failed.

mod calib;
mod compare;
mod metrics;
mod serve;
mod spans;
mod stats;
mod sweeps;
mod sys;

use metrics::{result_line, Values, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "paper-sweep",
    "fleet-sweep",
    "oracle-regret",
    "serve-hit",
    "serve-miss",
    "serve-overlap",
];

/// Pool width of every sweep and of the daemon: the host the baselines
/// were recorded on has two cores, and a fixed width keeps the numbers
/// comparable across hosts with more.
pub const WIDTH: usize = 2;

/// Where runs leave spans, layer tables and the daemon's cache directory,
/// relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// Input size: the measured configuration, or the toy one `--check` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl Ctx {
    /// Path of a per-run artifact: `<out>/<workload>.<suffix>`.
    pub fn artifact(&self, suffix: &str) -> PathBuf {
        Path::new(OUT_DIR).join(format!("{}.{suffix}", self.workload))
    }
}

/// Outcome of one run: operation counts, correctness failures, metrics.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Run {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// A correctness check over the run as a whole; counts as a failure
    /// when it does not hold.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("FAILED: {msg}");
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Runs `setup` at least five times, and again until a second has gone
/// into it or 51 samples exist, timing one run of the calibration
/// kernel on the same thread just before each sample. Returns the median
/// of set-up time ÷ kernel time — the set-up's cost in kernel runs — and
/// the last result. Earlier results go to `discard`. The raw median goes
/// to standard error.
pub fn measure_setup<T>(mut setup: impl FnMut(usize) -> T, mut discard: impl FnMut(T)) -> (f64, T) {
    let (mut ratios, mut raw) = (Vec::new(), Vec::new());
    let mut last = None;
    while ratios.len() < 5 || (raw.iter().sum::<f64>() < 1.0 && ratios.len() < 51) {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let kernel = calib::kernel_time();
        let (dt, value) = timed(|| setup(ratios.len()));
        ratios.push(dt / kernel);
        raw.push(dt);
        last = Some(value);
    }
    eprintln!(
        "{} set-ups: median {:.4} ms raw",
        raw.len(),
        stats::median(&raw) * 1e3
    );
    (
        stats::median(&ratios),
        last.expect("set-up ran at least once"),
    )
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Records the end-to-end metrics of an untraced run, both at the
/// reference speed of [`calib::REFERENCE_S`]: the set-up cost from
/// [`measure_setup`], and the median latency of the measured window over
/// the window's median calibration (see [`calib::calibrated_rounds`]).
/// The raw numbers go to standard error, and are per-layer numbers of the
/// traced run.
pub fn end_to_end(run: &mut Run, setup_cost: f64, window: &calib::Window) {
    let p50 = stats::median(&window.latencies);
    let calibration = stats::median(&window.calibrations);
    eprintln!(
        "{} operations: median {:.4} ms, calibration {:.4} ms, set-up {:.2} kernel runs",
        window.latencies.len(),
        p50 * 1e3,
        calibration * 1e3,
        setup_cost
    );
    let v = &mut run.values;
    v.set("setup_s", setup_cost * calib::REFERENCE_S);
    v.set("p50_ms", p50 / calibration * calib::REFERENCE_S * 1e3);
}

/// Records the process's peak memory, the calibration kernel's time, how
/// many operations were timed, their median latency, and the highest
/// percentile of it with at least ten samples beyond it (0 when none
/// has).
pub fn op_metrics(values: &mut Values, latencies: &[f64]) {
    if let Some(mib) = sys::peak_rss_mib() {
        values.set("mem.peak_rss_mb", mib);
    }
    values.set("calib.ms", calib::calibrate() * 1e3);
    values.set("op.count", latencies.len() as f64);
    values.set("op.p50_ms", stats::median(latencies) * 1e3);
    if let Some(p) = stats::tail_percentile(latencies.len()) {
        values.set("op.tail_pct", p);
        values.set("op.tail_ms", stats::percentile(latencies, p) * 1e3);
    }
}

/// Writes a traced run's spans (JSONL) and layer table next to each other
/// under the output directory, and prints the table.
pub fn save_spans(ctx: &Ctx, run: &mut Run, spans: &[spans::Span]) {
    let (jsonl, table) = (ctx.artifact("spans.jsonl"), ctx.artifact("layers.txt"));
    let written = spans::write(spans, &jsonl, &table);
    run.gate(written.is_ok(), || {
        format!("cannot write {}: {written:?}", jsonl.display())
    });
    eprint!("{}", spans::render_table(&spans::layer_table(spans)));
    eprintln!("spans: {}  layers: {}", jsonl.display(), table.display());
}

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
pub fn fnv1a64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The seed whose result digests are pinned below.
const PINNED_SEED: u64 = 2008;

/// FNV-1a digests of each workload's reference output at seed 2008:
/// `(workload, scale, digest)`. A change that alters what the simulator
/// computes for these inputs must re-pin them deliberately.
const PINNED: &[(&str, Scale, &str)] = &[
    ("paper-sweep", Scale::Full, "c3a63612099cf29d"),
    ("fleet-sweep", Scale::Full, "c55bbcc8e08dc7c1"),
    ("oracle-regret", Scale::Full, "79ea63fad58fd0e9"),
    ("serve-hit", Scale::Full, "a35fed05acba61d1"),
    ("serve-miss", Scale::Full, "24daf067db317d49"),
    ("serve-overlap", Scale::Full, "5e95481ec0d257ae"),
    ("paper-sweep", Scale::Toy, "4678ed1d5c083a04"),
    ("fleet-sweep", Scale::Toy, "393ed02d8d7b28ae"),
    ("oracle-regret", Scale::Toy, "a55d5a1532bb8e80"),
    ("serve-hit", Scale::Toy, "14c5b096ae3b5be5"),
    ("serve-miss", Scale::Toy, "52e2d5d6dfede15d"),
    ("serve-overlap", Scale::Toy, "4617574c526b8711"),
];

/// Checks `digest` against the pin for this workload and scale when the
/// run uses the pinned seed.
pub fn pin_gate(run: &mut Run, ctx: &Ctx, digest: &str) {
    eprintln!(
        "digest {} {:?} seed {}: {digest}",
        ctx.workload, ctx.scale, ctx.seed
    );
    if ctx.seed != PINNED_SEED {
        return;
    }
    let pin = PINNED
        .iter()
        .find(|(w, s, _)| *w == ctx.workload && *s == ctx.scale)
        .map(|p| p.2);
    run.gate(pin == Some(digest), || {
        format!("result digest {digest} differs from the pinned {pin:?}")
    });
}

fn run_workload(ctx: &Ctx) -> Run {
    if ctx.workload.starts_with("serve-") {
        serve::run(ctx)
    } else {
        sweeps::run(ctx)
    }
}

/// Runs one workload in this process and prints its result line.
fn single(ctx: &Ctx) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let mut run = run_workload(ctx);
    let table = if ctx.trace { PER_LAYER } else { END_TO_END };
    if !ctx.trace {
        for (name, _) in END_TO_END {
            run.gate(run.values.has(name), || {
                format!("metric {name} was not measured")
            });
        }
    }
    let line = result_line(
        run.correct(),
        run.attempted.max(1),
        run.failed,
        run.values.to_json(table),
    );
    println!("{line}");
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--check`: every workload at toy size, untraced and traced.
fn check(seed: u64) -> ExitCode {
    let mut ok = true;
    for &workload in WORKLOADS {
        for trace in [false, true] {
            let ctx = Ctx {
                workload,
                seed,
                seconds: 0.2,
                trace,
                scale: Scale::Toy,
            };
            eprintln!("check {workload} trace={trace}");
            ok &= single(&ctx) == ExitCode::SUCCESS;
        }
    }
    eprintln!("check: {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a child process of its own (so peak RSS and
/// allocator state are the workload's), collected into one document.
fn all(seed: u64, seconds: f64, trace: bool, out: Option<&Path>) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut results = Vec::new();
    for &workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let line = output.as_ref().ok().and_then(|o| {
            ok &= o.status.success();
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            text.lines().last().map(str::to_string)
        });
        let parsed = line
            .as_deref()
            .and_then(|l| serde_json::from_str::<Value>(l).ok());
        match parsed {
            Some(v) => results.push((workload.to_string(), v)),
            None => {
                ok = false;
                eprintln!("{workload}: no result line");
            }
        }
    }
    let doc = Value::Object(vec![
        ("seed".into(), Value::U64(seed)),
        ("seconds".into(), Value::F64(seconds)),
        ("trace".into(), Value::Bool(trace)),
        ("workloads".into(), Value::Object(results)),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("results serialise");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    println!(
        "{}",
        serde_json::to_string(&doc).expect("results serialise")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const USAGE: &str =
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       benchmark --check [--seed N]
       benchmark compare PARENT.json... -- CHANGE.json... [--spec BENCHMARK.json]";

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    calib::prepare();
    let mut workload = None;
    let mut seed = PINNED_SEED;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut out = None;
    let mut check_mode = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let parsed: Result<(), String> = match flag.as_str() {
            "--workload" => value().and_then(|v| {
                workload = WORKLOADS.iter().copied().find(|w| w == v);
                workload
                    .map(|_| ())
                    .ok_or_else(|| format!("unknown workload {v}; one of {}", WORKLOADS.join(", ")))
            }),
            "--seed" => value().and_then(|v| {
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes an integer, got {v}"))?;
                Ok(())
            }),
            "--seconds" => value().and_then(|v| match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => {
                    seconds = s;
                    Ok(())
                }
                _ => Err(format!("--seconds takes a positive number, got {v}")),
            }),
            "--trace" => value().and_then(|v| {
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {v}")),
                };
                Ok(())
            }),
            "--out" => value().map(|v| out = Some(PathBuf::from(v))),
            "--check" => {
                check_mode = true;
                Ok(())
            }
            other => Err(format!("unknown argument {other}")),
        };
        if let Err(msg) = parsed {
            return usage(&msg);
        }
    }
    if check_mode {
        return check(seed);
    }
    if workload.is_some() && out.is_some() {
        return usage("--out collects every workload; leave out --workload");
    }
    match workload {
        Some(workload) => single(&Ctx {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Full,
        }),
        None => all(seed, seconds, trace, out.as_deref()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), "cbf29ce484222325");
        assert_eq!(fnv1a64(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn setup_is_sampled_at_least_five_times() {
        let mut discarded = 0;
        let (cost, last) = measure_setup(|i| i, |_| discarded += 1);
        assert!(cost >= 0.0);
        assert!(last >= 4, "five or more samples, got {}", last + 1);
        assert_eq!(discarded, last);
    }
}
