//! Black-box tests of `dgsched gen`: seed determinism, pool-width
//! independence, and usage errors that fire before any file is written.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_dgsched")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dgsched-gen-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// The heavy-tail flag set used throughout: Pareto sizes, lognormal
/// jitter, MMPP arrivals — every new distribution axis at once.
const HEAVY_TAIL_FLAGS: &[&str] = &[
    "-g",
    "5000",
    "-n",
    "12",
    "--size",
    "pareto:alpha=1.5,min=8e5,cap=1e8",
    "--jitter",
    "lognormal:sigma=1",
    "--arrivals",
    "mmpp:ratio=9,frac=0.1,len=25",
];

fn gen_stdout(threads: &str) -> Vec<u8> {
    let out = Command::new(bin())
        .arg("gen")
        .args(HEAVY_TAIL_FLAGS)
        .env("DGSCHED_THREADS", threads)
        .output()
        .expect("gen");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn gen_is_byte_identical_across_pool_widths() {
    // Scenario emission is pure configuration — no sampling happens, so
    // the JSON must not depend on the worker pool width at all.
    let narrow = gen_stdout("1");
    let wide = gen_stdout("4");
    assert_eq!(narrow, wide, "gen output depends on DGSCHED_THREADS");
    assert_eq!(narrow, gen_stdout("1"), "gen output is not reproducible");
    let json: serde_json::Value = serde_json::from_slice(&narrow).expect("gen emits JSON");
    assert_eq!(json["workload"]["kind"], "realistic");
    assert_eq!(json["workload"]["size"]["kind"], "pareto");
    assert_eq!(json["workload"]["arrivals"]["kind"], "mmpp");
}

#[test]
fn gen_materialized_workload_is_seed_deterministic() {
    let gen_to = |name: &str, seed: &str, threads: &str| {
        let path = tmp(name);
        let out = Command::new(bin())
            .arg("gen")
            .args(HEAVY_TAIL_FLAGS)
            .args(["-o", tmp("mat-scenario.json").to_str().unwrap()])
            .args(["--workload", path.to_str().unwrap(), "--seed", seed])
            .env("DGSCHED_THREADS", threads)
            .output()
            .expect("gen --workload");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(&path).expect("materialized workload")
    };
    let a = gen_to("w-a.json", "9", "1");
    let b = gen_to("w-b.json", "9", "4");
    assert_eq!(a, b, "workload sampling depends on the pool width");
    let c = gen_to("w-c.json", "10", "1");
    assert_ne!(a, c, "a different seed must sample a different workload");
    // The materialized file is a loadable workload: summarize accepts it.
    let out = Command::new(bin())
        .args(["summarize", tmp("w-a.json").to_str().unwrap()])
        .output()
        .expect("summarize");
    assert!(out.status.success());
    let json: serde_json::Value = serde_json::from_slice(&out.stdout).expect("summary JSON");
    assert_eq!(json["bags"], 12);
}

#[test]
fn generated_scenario_runs_and_oracles_unmodified() {
    // A cheap realistic scenario (small fixed sizes, bursty arrivals +
    // lognormal jitter) so run + oracle stay fast.
    let path = tmp("run-scenario.json");
    let out = Command::new(bin())
        .args([
            "gen",
            "-g",
            "25000",
            "-n",
            "6",
            "--jitter",
            "lognormal:sigma=0.5",
            "--arrivals",
            "mmpp:ratio=4,frac=0.2,len=10",
            "--warmup",
            "0",
            "-o",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("gen");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let run = || {
        let out = Command::new(bin())
            .args([
                "run",
                path.to_str().unwrap(),
                "--min-reps",
                "2",
                "--max-reps",
                "2",
            ])
            .output()
            .expect("run");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8")
    };
    let first = run();
    assert_eq!(first, run(), "realistic scenario runs must reproduce");
    let json: serde_json::Value = serde_json::from_str(&first).expect("run JSON");
    assert_eq!(json["replications"], 2);
    assert!(json["turnaround"]["mean"].as_f64().unwrap() > 0.0);

    let scenario = std::fs::read_to_string(&path).unwrap();
    let body = format!(
        "{{\"scenarios\":[{scenario}],\"oracle\":{{\"restarts\":2,\"iters\":10,\"replications\":1}}}}"
    );
    let body_path = tmp("gen-oracle-request.json");
    std::fs::write(&body_path, body).unwrap();
    let out = Command::new(bin())
        .args([
            "run",
            body_path.to_str().unwrap(),
            "--min-reps",
            "1",
            "--max-reps",
            "1",
        ])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json: serde_json::Value = serde_json::from_slice(&out.stdout).expect("oracle JSON");
    assert!(
        json["results"][0]["regret"]["regret"]["mean"]
            .as_f64()
            .unwrap()
            >= 0.0
    );
}

#[test]
fn gen_rejects_bad_specs_with_usage_errors() {
    // Every case names both output files: a rejected spec must fail with a
    // usage error before anything is written. The granularity cases used
    // to hang the workload fill loop (the running sum of task work never
    // reaches the application size) or emit an empty workload.
    let scenario = tmp("never-written-scenario.json");
    let workload = tmp("never-written-workload.json");
    for path in [&scenario, &workload] {
        let _ = std::fs::remove_file(path);
    }
    let expect_usage = |flags: &[&str]| {
        let out = Command::new(bin())
            .arg("gen")
            .args(flags)
            .args(["-o", scenario.to_str().unwrap()])
            .args(["--workload", workload.to_str().unwrap()])
            .output()
            .expect("gen");
        assert_eq!(
            out.status.code(),
            Some(2),
            "flags {flags:?}: stderr {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    expect_usage(&["--size", "pareto:alpha=1.5"]); // min missing
    expect_usage(&["--size", "pareto:alpha=0.5,min=1e6"]); // infinite mean
    expect_usage(&["--size", "cauchy"]); // unknown kind
    expect_usage(&["--size", "fixed:app_size=1e6,bogus=1"]); // unknown key
    expect_usage(&["--jitter", "lognormal:sigma=0"]);
    expect_usage(&["--arrivals", "hyperexp:cv=0.5"]);
    expect_usage(&["--arrivals", "mmpp:ratio=9,frac=0.1"]); // len missing
    expect_usage(&["--arrivals", "diurnal:period=86400,amplitude=2"]);
    expect_usage(&["--policy", "frobnicate"]);
    expect_usage(&["-g", "0"]);
    expect_usage(&["-g", "-5000"]);
    expect_usage(&["-g", "NaN"]);
    expect_usage(&["-g", "inf"]);
    expect_usage(&["-n", "0"]);
    for path in [&scenario, &workload] {
        assert!(
            !path.exists(),
            "rejected specs must not write {}",
            path.display()
        );
    }
}

#[test]
fn gen_cv_one_is_accepted_end_to_end() {
    // Regression companion to the scenario-level cv=1 fix: the CLI path
    // must accept the Poisson-degenerate hyperexponential as well.
    let path = tmp("cv1.json");
    let out = Command::new(bin())
        .args([
            "gen",
            "-n",
            "4",
            "--arrivals",
            "hyperexp:cv=1",
            "--workload",
            path.to_str().unwrap(),
            "-o",
            tmp("cv1-scenario.json").to_str().unwrap(),
        ])
        .output()
        .expect("gen");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = Command::new(bin())
        .args(["summarize", path.to_str().unwrap()])
        .output()
        .expect("summarize");
    assert!(out.status.success());
}
