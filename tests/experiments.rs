//! The experiment files under `experiments/`: each is a `POST /sweep`
//! body that `dgsched run` runs. The tests check that every file is a
//! valid sweep request, that the figure files hold exactly the panels the
//! library defines (the panels the benchmark's `paper-sweep` runs), that
//! E1's file covers the configurations the paper omits, that every file
//! runs end to end once shrunk, and that `dgsched run` prints the bytes
//! the daemon answers for the same file, journaled or not.

use dgsched_core::experiment::{fig1_panels, fig2_panels, run_matrix, PanelSpec, WorkloadKind};
use dgsched_core::serve::{
    http_request, validate_scenarios, HttpResponse, ServeConfig, Server, SweepRequest,
    SweepResponse,
};
use dgsched_des::stats::StoppingRule;
use dgsched_grid::Availability;
use dgsched_workload::Intensity;
use std::path::{Path, PathBuf};
use std::process::Command;

fn experiments_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments")
}

fn load(name: &str) -> SweepRequest {
    let path = experiments_dir().join(name);
    let data = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_slice(&data).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Every experiment file, by name.
fn all_files() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(experiments_dir())
        .expect("experiments/ exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    names
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dgsched-experiments-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The file shrunk to at most `bags` bags (one of them warm-up) and one
/// replication, so the whole matrix runs in moments.
fn shrunk(mut req: SweepRequest, bags: usize) -> SweepRequest {
    for s in &mut req.scenarios {
        let count = match &mut s.workload {
            WorkloadKind::Single(spec) | WorkloadKind::Bursty { spec, .. } => &mut spec.count,
            WorkloadKind::Mixed(mix) => &mut mix.count,
            WorkloadKind::Realistic(spec) => &mut spec.count,
        };
        *count = (*count).min(bags);
        s.sim.warmup_bags = s.sim.warmup_bags.min(1);
    }
    req.rule = StoppingRule {
        min_replications: 1,
        max_replications: 1,
        ..req.rule
    };
    req
}

#[test]
fn every_file_is_a_valid_sweep_request() {
    let names = all_files();
    assert_eq!(names.len(), 16, "{names:?}");
    for name in &names {
        let req = load(name);
        validate_scenarios(&req.scenarios).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(req.tenant.is_none(), "{name} names a tenant");
    }
}

#[test]
fn figure_files_match_the_library_panels() {
    let default = (120, 10, 5, 15);
    let paper = (300, 20, 5, 30);
    for (name, panels, (bags, warmup, min, max)) in [
        ("fig1.json", fig1_panels(), default),
        ("fig2.json", fig2_panels(), default),
        ("fig1-paper.json", fig1_panels(), paper),
        ("fig2-paper.json", fig2_panels(), paper),
    ] {
        let expected = SweepRequest {
            scenarios: panels
                .iter()
                .flat_map(|p: &PanelSpec| p.scenarios(bags, warmup))
                .collect(),
            base_seed: 2008,
            rule: StoppingRule {
                min_replications: min,
                max_replications: max,
                ..StoppingRule::default()
            },
            tenant: None,
        };
        assert_eq!(
            serde_json::to_string(&load(name)).unwrap(),
            serde_json::to_string(&expected).unwrap(),
            "{name} drifted from its panels"
        );
    }
}

#[test]
fn extended_panels_cover_the_omitted_grid() {
    let req = load("extended.json");
    // A panel is a (platform, intensity) pair; each expands to 4
    // granularities × 5 policies.
    let mut panels: Vec<(String, usize)> = Vec::new();
    let mut cells = Vec::new();
    for s in &req.scenarios {
        let WorkloadKind::Single(spec) = &s.workload else {
            panic!("{}: not a single-class workload", s.name)
        };
        let key = serde_json::to_string(&(&s.grid, spec.intensity)).unwrap();
        match panels.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => panels.push((key, 1)),
        }
        cells.push((s.grid.availability, spec.intensity));
    }
    // 2 het × (3 Med intensities + 2 medium-on-High/Low) = 10.
    assert_eq!(panels.len(), 10);
    assert!(panels.iter().all(|(_, n)| *n == 20), "{panels:?}");
    assert!(cells.iter().any(|(a, _)| *a == Availability::MED));
    for avail in [Availability::HIGH, Availability::LOW] {
        assert!(cells
            .iter()
            .any(|(a, i)| *a == avail && *i == Intensity::Medium));
    }
}

#[test]
fn every_file_runs_end_to_end_when_shrunk() {
    for name in all_files() {
        let req = shrunk(load(&name), 6);
        validate_scenarios(&req.scenarios).unwrap_or_else(|e| panic!("{name}: {e}"));
        let results = run_matrix(&req.scenarios, req.base_seed, &req.rule);
        assert_eq!(results.len(), req.scenarios.len(), "{name}");
        for (s, r) in req.scenarios.iter().zip(&results) {
            assert_eq!(r.name, s.name, "{name}");
            assert_eq!(r.replications, 1, "{name}: {}", r.name);
            assert_eq!(r.failed_replications, 0, "{name}: {}", r.name);
        }
    }
}

/// `dgsched run FILE` with extra arguments: (stdout bytes, stderr text).
fn cli_run(file: &Path, extra: &[&str]) -> (Vec<u8>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dgsched"))
        .arg("run")
        .arg(file)
        .args(extra)
        .output()
        .expect("run dgsched");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "stderr: {stderr}");
    (out.stdout, stderr)
}

/// `POST /sweep` of `body` to an in-process daemon caching under `dir`.
fn post_sweep(dir: &Path, body: &[u8]) -> HttpResponse {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: Some(dir.join("cache")),
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = server.spawn();
    let response =
        http_request(&handle.addr().to_string(), "POST", "/sweep", &[], body).expect("POST /sweep");
    handle.shutdown();
    response
}

#[test]
fn cli_prints_the_bytes_the_daemon_serves() {
    let dir = tmp_dir("cli");
    let req = shrunk(load("e9-burstiness.json"), 8);
    let body = serde_json::to_vec(&req).unwrap();
    let file = dir.join("e9-small.json");
    std::fs::write(&file, &body).unwrap();

    let served = post_sweep(&dir, &body);
    assert_eq!(
        served.status,
        200,
        "{}",
        String::from_utf8_lossy(&served.body)
    );
    let response: SweepResponse = serde_json::from_slice(&served.body).unwrap();
    assert_eq!(response.results.len(), req.scenarios.len());

    let (plain, stderr) = cli_run(&file, &[]);
    assert_eq!(plain, served.body, "plain run differs from /sweep");
    assert!(stderr.contains("[9/9] "), "progress lines: {stderr}");
    assert!(stderr.contains("| cv=4 "), "pivot table: {stderr}");

    let journal = dir.join("e9.journal.jsonl");
    let journal = journal.to_str().unwrap();
    let (first, stderr) = cli_run(&file, &["--journal", journal]);
    assert_eq!(first, served.body, "journaled run differs from /sweep");
    assert!(stderr.contains("9 written, 0 replayed"), "{stderr}");
    let (resumed, stderr) = cli_run(&file, &["--journal", journal, "--resume"]);
    assert_eq!(resumed, served.body, "resumed run differs from /sweep");
    assert!(stderr.contains("9 replayed (resumed)"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_rejects_what_the_daemon_rejects() {
    let dir = tmp_dir("reject");
    let good = shrunk(load("e9-burstiness.json"), 8);
    let mut duplicate = good.clone();
    duplicate.scenarios[1].name = duplicate.scenarios[0].name.clone();
    let mut invalid = good.clone();
    let WorkloadKind::Single(spec) = &mut invalid.scenarios[2].workload else {
        panic!("cv=1 is a plain Poisson stream")
    };
    spec.bot_type.granularity = -1.0;
    let empty = SweepRequest {
        scenarios: Vec::new(),
        ..good
    };
    for (case, req) in [
        ("duplicate", duplicate),
        ("invalid", invalid),
        ("empty", empty),
    ] {
        let body = serde_json::to_vec(&req).unwrap();
        let served = post_sweep(&dir, &body);
        assert_eq!(served.status, 400, "{case}");
        let error: serde_json::Value = serde_json::from_slice(&served.body).unwrap();
        let error = error["error"].as_str().unwrap().to_string();
        let file = dir.join(format!("{case}.json"));
        std::fs::write(&file, &body).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_dgsched"))
            .arg("run")
            .arg(&file)
            .output()
            .expect("run dgsched");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
        assert!(out.stdout.is_empty(), "{case}: work started");
        assert!(stderr.contains(&error), "{case}: {stderr} lacks {error:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
