//! Black-box tests of the `dgsched` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_dgsched")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dgsched-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn demo_emits_parseable_scenario() {
    let out = Command::new(bin()).arg("demo").output().expect("run demo");
    assert!(out.status.success());
    let json: serde_json::Value = serde_json::from_slice(&out.stdout).expect("demo output is JSON");
    assert_eq!(json["policy"], "long-idle");
    assert!(json["grid"]["total_power"].as_f64().unwrap() > 0.0);
}

#[test]
fn run_executes_demo_scenario() {
    let demo = Command::new(bin()).arg("demo").output().expect("demo");
    let path = tmp("scenario.json");
    std::fs::write(&path, &demo.stdout).expect("write scenario");
    let out = Command::new(bin())
        .args([
            "run",
            path.to_str().unwrap(),
            "--min-reps",
            "2",
            "--max-reps",
            "2",
            "--seed",
            "5",
        ])
        .output()
        .expect("run scenario");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json: serde_json::Value = serde_json::from_slice(&out.stdout).expect("run output is JSON");
    assert_eq!(json["replications"], 2);
    assert!(json["turnaround"]["mean"].as_f64().unwrap() > 0.0);
    assert_eq!(json["saturated"], false);
}

#[test]
fn gen_and_summarize_workload() {
    let path = tmp("workload.json");
    let out = Command::new(bin())
        .args([
            "gen",
            "-g",
            "5000",
            "-u",
            "low",
            "-n",
            "8",
            "-o",
            tmp("workload-scenario.json").to_str().unwrap(),
            "--workload",
            path.to_str().unwrap(),
            "--seed",
            "3",
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
    let json: serde_json::Value = serde_json::from_slice(&out.stdout).expect("summary is JSON");
    assert_eq!(json["bags"], 8);
    assert!(json["mean_task_work"].as_f64().unwrap() > 2000.0);
}

#[test]
fn trace_emits_parseable_trace_and_gantt() {
    let demo = Command::new(bin()).arg("demo").output().expect("demo");
    let scenario = tmp("trace-scenario.json");
    std::fs::write(&scenario, &demo.stdout).expect("write scenario");
    let trace_path = tmp("trace.jsonl");
    let out = Command::new(bin())
        .args([
            "trace",
            scenario.to_str().unwrap(),
            "--out",
            trace_path.to_str().unwrap(),
            "--gantt",
        ])
        .output()
        .expect("trace");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let gantt = String::from_utf8_lossy(&out.stdout);
    assert!(gantt.contains("machines"), "gantt header missing: {gantt}");
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let trace = dgsched_obs::read_jsonl(&text).expect("the trace file is JSONL");
    assert!(!trace.truncated());
    let kinds: Vec<serde_json::Value> = text
        .lines()
        .skip(1)
        .map(|line| serde_json::from_str::<serde_json::Value>(line).unwrap()["kind"].clone())
        .collect();
    assert!(kinds.len() > 100, "trace too small: {}", kinds.len());
    assert!(kinds.iter().any(|k| k == "dispatch"));
    assert!(kinds.iter().any(|k| k == "bag_complete"));
    // With neither --gantt nor --metrics, stdout is the same trace.
    let out = Command::new(bin())
        .args(["trace", scenario.to_str().unwrap()])
        .output()
        .expect("trace");
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).unwrap(), text);
}

/// A ring-truncated trace says so in its file: the header counts the
/// window's events and the dropped ones, so the file never reads as a
/// complete run.
#[test]
fn ring_trace_file_reports_its_drop_count() {
    let demo = Command::new(bin()).arg("demo").output().expect("demo");
    let scenario = tmp("ring-scenario.json");
    std::fs::write(&scenario, &demo.stdout).expect("write scenario");
    let trace_path = tmp("ring-trace.jsonl");
    let out = Command::new(bin())
        .args(["trace", scenario.to_str().unwrap(), "--ring", "50"])
        .args(["--out", trace_path.to_str().unwrap()])
        .output()
        .expect("trace");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let header: serde_json::Value =
        serde_json::from_str(text.lines().next().expect("a header line")).unwrap();
    assert_eq!(header["events"], 50);
    assert!(
        header["dropped"].as_u64().expect("a drop count") > 0,
        "{header:?}"
    );
    let trace = dgsched_obs::read_jsonl(&text).expect("the trace file is JSONL");
    assert_eq!(trace.events.len(), 50);
    assert!(trace.truncated());
    // The removed formats are usage errors now.
    for flag in ["--jsonl", "--bin"] {
        let out = Command::new(bin())
            .args(["trace", scenario.to_str().unwrap(), flag, "x"])
            .output()
            .expect("trace");
        assert_eq!(out.status.code(), Some(2), "{flag}");
    }
}

/// An oracle request (the `POST /oracle` body) around one scenario file.
fn oracle_body(scenario: &[u8], oracle: &str) -> Vec<u8> {
    let scenario = String::from_utf8_lossy(scenario);
    format!("{{\"scenarios\":[{scenario}],\"oracle\":{oracle}}}").into_bytes()
}

#[test]
fn oracle_reports_regret_section() {
    let demo = Command::new(bin()).arg("demo").output().expect("demo");
    let body = tmp("oracle-request.json");
    let knobs = r#"{"restarts":2,"iters":10,"replications":1}"#;
    std::fs::write(&body, oracle_body(&demo.stdout, knobs)).expect("write request");
    let body = body.to_str().unwrap();
    let out = Command::new(bin())
        .args(["run", body, "--min-reps", "1", "--max-reps", "1"])
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(
        stderr.contains(", regret "),
        "the table shows regret: {stderr}"
    );
    let json: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("oracle output is JSON");
    let regret = &json["results"][0]["regret"];
    assert!(
        regret["oracle_turnaround"]["mean"].as_f64().unwrap() > 0.0,
        "regret section missing: {}",
        serde_json::to_string(&json).unwrap()
    );
    assert!(regret["regret"]["mean"].as_f64().unwrap() >= 0.0);
    assert_eq!(regret["replications"], 1);

    // --resume without --journal is a usage error, a zero-restart search
    // a refused request.
    let out = Command::new(bin())
        .args(["run", body, "--resume"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    let zero = tmp("oracle-zero.json");
    std::fs::write(&zero, oracle_body(&demo.stdout, r#"{"restarts":0}"#)).unwrap();
    let out = Command::new(bin())
        .args(["run", zero.to_str().unwrap()])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = Command::new(bin()).arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let out = Command::new(bin()).output().expect("run");
    assert!(!out.status.success());
    let out = Command::new(bin())
        .args(["run", "/nonexistent/scenario.json"])
        .output()
        .expect("run");
    assert!(!out.status.success());
}

#[test]
fn run_is_deterministic_across_invocations() {
    let demo = Command::new(bin()).arg("demo").output().expect("demo");
    let path = tmp("det-scenario.json");
    std::fs::write(&path, &demo.stdout).expect("write scenario");
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
        assert!(out.status.success());
        String::from_utf8(out.stdout).expect("utf8")
    };
    assert_eq!(
        run(),
        run(),
        "same scenario + default seed must reproduce exactly"
    );
}

#[test]
fn run_with_journal_resumes_byte_identically() {
    let demo = Command::new(bin()).arg("demo").output().expect("demo");
    let scenario = tmp("journal-scenario.json");
    std::fs::write(&scenario, &demo.stdout).expect("write scenario");
    let journal = tmp("run.journal.jsonl");
    std::fs::remove_file(&journal).ok();
    let run = |resume: bool| {
        let mut args = vec![
            "run",
            scenario.to_str().unwrap(),
            "--min-reps",
            "2",
            "--max-reps",
            "2",
            "--journal",
            journal.to_str().unwrap(),
        ];
        if resume {
            args.push("--resume");
        }
        let out = Command::new(bin()).args(&args).output().expect("run");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8(out.stdout).expect("utf8"),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (first, stderr1) = run(false);
    assert!(stderr1.contains("written"), "journal stats reported");
    // The journal now holds both replications; a resumed invocation must
    // replay them (recomputing nothing) and print the same bytes.
    let (second, stderr2) = run(true);
    assert_eq!(first, second, "resume changed the result JSON");
    assert!(
        stderr2.contains("2 replayed") && stderr2.contains("resumed"),
        "stderr: {stderr2}"
    );
    // --resume without --journal is a usage error.
    let out = Command::new(bin())
        .args(["run", scenario.to_str().unwrap(), "--resume"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    std::fs::remove_file(&journal).ok();
}
