//! Integration tests for `dgsched serve`: the daemon is spawned as a
//! real child process (so pool width is controlled by `DGSCHED_THREADS`
//! in its environment, exactly as deployed) and exercised over its TCP
//! socket.
//!
//! The two properties under test are the service's whole story:
//!
//! 1. **Dedupe**: concurrent identical requests produce byte-identical
//!    responses from exactly one sweep execution (proven by the
//!    `serve_sweeps_executed` counter, not by timing).
//! 2. **Crash recovery**: a daemon SIGKILLed mid-sweep loses at most the
//!    replication in flight; a restarted daemon answers the re-issued
//!    request byte-identically to an uninterrupted run, resuming from
//!    the journal rather than starting over.
//!
//! A third rides on the journal: a sweep that shares scenarios with one
//! journaled earlier — even by a daemon since killed — computes only the
//! replications it is missing, and still answers byte-identically.
//!
//! All three must hold at pool width 1 and width 4 — the determinism
//! contract says width never changes bytes.

use dgsched_core::experiment::{
    oracle_fingerprint, run_matrix, run_matrix_journaled, run_matrix_regret, sweep_fingerprint,
    OracleConfig, RepGuard, Scenario, WorkloadKind,
};
use dgsched_core::policy::PolicyKind;
use dgsched_core::serve::protocol::header_value;
use dgsched_core::serve::{
    http_request, http_request_streaming, HttpResponse, OracleRequest, SweepRequest, SweepResponse,
};
use dgsched_core::sim::SimConfig;
use dgsched_des::stats::StoppingRule;
use dgsched_grid::{Availability, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, MixSpec, WorkloadSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_dgsched")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dgsched-serve-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A spawned daemon child; killed on drop so a failing assertion never
/// leaks a process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `dgsched serve` on an ephemeral port with the given pool
    /// width and cache directory, and parses the bound address from the
    /// machine-readable `listening` line on stdout.
    fn start(cache_dir: &Path, width: &str) -> Daemon {
        Daemon::start_with(cache_dir, width, &[])
    }

    /// [`start`](Self::start) with extra environment variables.
    fn start_with(cache_dir: &Path, width: &str, env: &[(&str, &str)]) -> Daemon {
        let mut child = Command::new(bin())
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--cache-dir",
                cache_dir.to_str().expect("utf-8 temp path"),
            ])
            .env("DGSCHED_THREADS", width)
            .envs(env.iter().copied())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn dgsched serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listening line");
        let value: serde_json::Value = serde_json::from_str(&line)
            .unwrap_or_else(|e| panic!("bad listening line {line:?}: {e}"));
        assert_eq!(value["event"], "listening");
        let addr = value["addr"].as_str().expect("addr string").to_string();
        Daemon { child, addr }
    }

    fn post(&self, route: &str, body: &[u8]) -> HttpResponse {
        http_request(&self.addr, "POST", route, &[], body).expect("POST")
    }

    fn metrics(&self) -> serde_json::Value {
        let resp = http_request(&self.addr, "GET", "/metrics", &[], b"").expect("GET /metrics");
        assert_eq!(resp.status, 200);
        serde_json::from_slice(&resp.body).expect("metrics JSON")
    }

    fn counter(&self, name: &str) -> u64 {
        self.metrics()["counters"][name]
            .as_u64()
            .unwrap_or_else(|| panic!("counter {name} missing"))
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // Consume self without running Drop twice.
        std::mem::forget(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A sweep sized to take long enough (a second or two, even in release
/// builds) that a SIGKILL reliably lands mid-sweep and two concurrent
/// requests reliably overlap: six scenarios, more than any tested pool
/// width, so work always remains after the first scenario completes.
fn slow_request() -> Vec<u8> {
    let scenario = |name: &str, granularity: f64, policy: PolicyKind| Scenario {
        name: name.to_string(),
        grid: GridConfig {
            total_power: 100.0,
            heterogeneity: Heterogeneity::HOM,
            availability: Availability::HIGH,
            checkpoint: Default::default(),
            outages: None,
        },
        workload: WorkloadKind::Single(WorkloadSpec {
            bot_type: BotType {
                granularity,
                app_size: 120_000.0,
                jitter: 0.5,
            },
            intensity: Intensity::Medium,
            count: 60,
        }),
        policy,
        sim: SimConfig::default(),
    };
    let request = SweepRequest {
        scenarios: vec![
            scenario("it: g=1000 RR", 1_000.0, PolicyKind::Rr),
            scenario("it: g=1000 Share", 1_000.0, PolicyKind::FcfsShare),
            scenario("it: g=2000 RR", 2_000.0, PolicyKind::Rr),
            scenario("it: g=2000 LongIdle", 2_000.0, PolicyKind::LongIdle),
            scenario("it: g=4000 RR", 4_000.0, PolicyKind::Rr),
            scenario("it: g=4000 Share", 4_000.0, PolicyKind::FcfsShare),
        ],
        base_seed: 2008,
        rule: StoppingRule {
            min_replications: 3,
            max_replications: 3,
            ..StoppingRule::default()
        },
        tenant: None,
    };
    serde_json::to_vec(&request).expect("request serialises")
}

/// Two concurrent identical requests: byte-identical responses, exactly
/// one sweep executed. The counters prove the second request was served
/// by the first's flight (or its freshly cached result), never by a
/// second computation.
fn concurrent_identical_requests_dedupe_at(width: &str) {
    let dir = tmp_dir(&format!("dedupe-w{width}"));
    let daemon = Daemon::start(&dir, width);
    let body = Arc::new(slow_request());
    let addr = daemon.addr.clone();
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let body = body.clone();
            let addr = addr.clone();
            std::thread::spawn(move || {
                let resp = http_request(&addr, "POST", "/sweep", &[], &body).expect("POST /sweep");
                assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                resp.body
            })
        })
        .collect();
    let bodies: Vec<Vec<u8>> = workers
        .into_iter()
        .map(|w| w.join().expect("worker"))
        .collect();
    assert_eq!(
        bodies[0], bodies[1],
        "concurrent identical requests must serve identical bytes"
    );
    assert_eq!(
        daemon.counter("serve_sweeps_executed"),
        1,
        "two identical requests must execute exactly one sweep"
    );
    let hits = daemon.counter("serve_cache_hits");
    let waits = daemon.counter("serve_single_flight_waits");
    assert_eq!(
        hits + waits,
        1,
        "the duplicate must be served by the flight or the fresh cache \
         (hits {hits}, waits {waits})"
    );
    // A third request long after completion is a plain cache hit, still
    // the same bytes.
    let third = daemon.post("/sweep", &body);
    assert_eq!(third.status, 200);
    assert_eq!(third.body, bodies[0], "cache hit changed bytes");
    assert_eq!(daemon.counter("serve_sweeps_executed"), 1);
    daemon.kill();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_identical_requests_dedupe_width_1() {
    concurrent_identical_requests_dedupe_at("1");
}

#[test]
fn concurrent_identical_requests_dedupe_width_4() {
    concurrent_identical_requests_dedupe_at("4");
}

/// SIGKILL the daemon mid-sweep; a restarted daemon on the same cache
/// directory must answer the re-issued request byte-identically to an
/// uninterrupted daemon's answer, resuming from the journal (proven by
/// the replay counters) instead of recomputing from scratch.
fn kill_resume_is_byte_identical_at(width: &str) {
    let body = slow_request();

    // Reference: an uninterrupted daemon computes the canonical bytes.
    let ref_dir = tmp_dir(&format!("killref-w{width}"));
    let reference = Daemon::start(&ref_dir, width);
    let expected = reference.post("/sweep", &body);
    assert_eq!(expected.status, 200);
    reference.kill();
    std::fs::remove_dir_all(&ref_dir).ok();

    // Victim: start the same sweep in streaming mode and SIGKILL the
    // daemon after the first progress event — at least one scenario is
    // journaled, at least one is still in flight (6 scenarios > width).
    let dir = tmp_dir(&format!("kill-w{width}"));
    let victim = Daemon::start(&dir, width);
    let (status, _headers, mut stream) =
        http_request_streaming(&victim.addr, "POST", "/sweep?stream=1", &[], &body)
            .expect("streaming request");
    assert_eq!(status, 200);
    let mut line = String::new();
    stream.read_line(&mut line).expect("first progress event");
    let event: serde_json::Value = serde_json::from_str(&line).expect("progress JSON");
    assert_eq!(event["event"], "progress", "unexpected first event: {line}");
    victim.kill();

    // Restart on the same state directory: the journal survived, the
    // response never completed.
    let restarted = Daemon::start(&dir, width);
    assert!(
        restarted.counter("serve_pending_journals") >= 1,
        "the killed sweep's journal must be visible at startup"
    );
    let resumed = restarted.post("/sweep", &body);
    assert_eq!(resumed.status, 200);
    assert_eq!(
        resumed.body, expected.body,
        "resumed response must be byte-identical to an uninterrupted run"
    );
    assert!(
        restarted.counter("serve_journal_replayed") >= 1,
        "the resumed sweep must replay journaled replications"
    );
    assert!(
        restarted.counter("serve_journal_resumes") >= 1,
        "the journal must report a resume"
    );
    restarted.kill();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_resume_is_byte_identical_width_1() {
    kill_resume_is_byte_identical_at("1");
}

#[test]
fn kill_resume_is_byte_identical_width_4() {
    kill_resume_is_byte_identical_at("4");
}

/// The `--check` self-test exits 0 and reports the byte-identical hit;
/// this is what CI runs as its cheapest liveness probe.
#[test]
fn serve_check_self_test_passes() {
    let out = Command::new(bin())
        .args(["serve", "--check"])
        .output()
        .expect("run serve --check");
    assert!(
        out.status.success(),
        "serve --check failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("byte-identical hit"), "{stdout}");
}

/// One hostile body must not take the daemon down: 100 000 nested `[`
/// (far under the body limit) would overflow a handler thread's stack —
/// aborting every tenant's sweeps with it — if the decoder recursed
/// without bound. It is answered 400, and the same daemon keeps serving.
#[test]
fn deeply_nested_request_is_rejected_and_the_daemon_survives() {
    let dir = tmp_dir("deep-nesting");
    let daemon = Daemon::start(&dir, "1");
    let body = vec![b'['; 100_000];
    let resp = daemon.post("/sweep", &body);
    assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
    assert!(
        String::from_utf8_lossy(&resp.body).contains("nesting"),
        "{}",
        String::from_utf8_lossy(&resp.body)
    );
    assert_eq!(daemon.counter("serve_bad_requests"), 1);
    daemon.kill();
    std::fs::remove_dir_all(&dir).ok();
}

/// A small cell, milliseconds per replication.
fn small_scenario(name: &str, policy: PolicyKind) -> Scenario {
    Scenario {
        name: name.to_string(),
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

/// A sweep, a daemon restart on the same directory, then the same sweep
/// plus one scenario: a miss that computes only the new scenario, reusing
/// the replications the killed daemon journaled, and answers exactly what
/// `run_matrix` answers.
fn overlap_reuse_survives_a_restart_at(width: &str) {
    let dir = tmp_dir(&format!("overlap-w{width}"));
    let fixed = StoppingRule {
        min_replications: 3,
        max_replications: 3,
        ..StoppingRule::default()
    };
    let base = SweepRequest {
        scenarios: vec![
            small_scenario("overlap: RR", PolicyKind::Rr),
            small_scenario("overlap: SBF", PolicyKind::Sbf),
        ],
        base_seed: 2008,
        rule: fixed,
        tenant: None,
    };
    let mut extended = base.clone();
    extended
        .scenarios
        .push(small_scenario("overlap: LongIdle", PolicyKind::LongIdle));

    let first = Daemon::start(&dir, width);
    let base_body = serde_json::to_vec(&base).unwrap();
    let base_resp = first.post("/sweep", &base_body);
    assert_eq!(base_resp.status, 200);
    first.kill();

    let daemon = Daemon::start(&dir, width);
    let body = serde_json::to_vec(&extended).unwrap();
    let resp = daemon.post("/sweep", &body);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(header_value(&resp.headers, "x-dgsched-cache"), Some("miss"));
    for (name, want) in [
        ("serve_replications_reused", 6),
        ("serve_sweeps_executed", 1),
        ("serve_cache_misses", 1),
        ("serve_cache_hits", 0),
        ("serve_journal_replayed", 0),
    ] {
        assert_eq!(daemon.counter(name), want, "{name} at width {width}");
    }
    let parsed: SweepResponse = serde_json::from_slice(&resp.body).unwrap();
    let expected = SweepResponse {
        fingerprint: parsed.fingerprint.clone(),
        results: run_matrix(&extended.scenarios, extended.base_seed, &extended.rule),
    };
    assert_eq!(
        resp.body,
        serde_json::to_vec(&expected).unwrap(),
        "an index-fed answer must equal run_matrix byte for byte"
    );
    let base_parsed: SweepResponse = serde_json::from_slice(&base_resp.body).unwrap();
    assert_eq!(
        serde_json::to_vec(&parsed.results[..2]).unwrap(),
        serde_json::to_vec(&base_parsed.results).unwrap()
    );
    daemon.kill();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overlap_reuse_survives_a_restart_width_1() {
    overlap_reuse_survives_a_restart_at("1");
}

#[test]
fn overlap_reuse_survives_a_restart_width_4() {
    overlap_reuse_survives_a_restart_at("4");
}

/// A client that sends a 1 MiB header line is answered 400 once the line
/// passes the head-line limit, instead of being buffered whole; the same
/// daemon keeps serving.
#[test]
fn oversized_header_line_is_rejected_and_the_daemon_survives() {
    let dir = tmp_dir("long-header");
    let daemon = Daemon::start(&dir, "1");
    let stream = TcpStream::connect(&daemon.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    // The daemon stops reading at the limit, so the rest of the line may
    // never be accepted: send it from a thread that ignores the error.
    let sender = std::thread::spawn(move || {
        let mut head = b"POST /sweep HTTP/1.1\r\nx-pad: ".to_vec();
        head.resize(head.len() + (1 << 20), b'a');
        head.extend_from_slice(b"\r\ncontent-length: 0\r\n\r\n");
        let _ = writer.write_all(&head);
    });
    let mut reply = Vec::new();
    // A reset after the answer arrived is expected; the bytes read so far
    // are kept.
    let _ = BufReader::new(stream).read_to_end(&mut reply);
    sender.join().expect("sender thread");
    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    assert!(text.contains("limit"), "{text}");
    let health = http_request(&daemon.addr, "GET", "/healthz", &[], b"").expect("GET /healthz");
    assert_eq!(health.status, 200);
    assert_eq!(daemon.counter("serve_bad_requests"), 1);
    daemon.kill();
    std::fs::remove_dir_all(&dir).ok();
}

/// Usage errors in the serve subcommand follow the CLI convention:
/// unknown flags exit 2 with a pointer at the usage text.
#[test]
fn serve_rejects_unknown_flags() {
    let out = Command::new(bin())
        .args(["serve", "--frobnicate"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

/// Posts `body` to `route` and runs `cli`: the daemon answers 400 with an
/// error containing `message`, and the command exits 1 printing the same
/// error after `dgsched: ` and `prefix`.
fn assert_refused_alike(
    daemon: &Daemon,
    route: &str,
    body: &[u8],
    mut cli: Command,
    prefix: &str,
    message: &str,
) {
    let resp = daemon.post(route, body);
    let text = String::from_utf8_lossy(&resp.body);
    assert_eq!(resp.status, 400, "{text}");
    let error: serde_json::Value = serde_json::from_slice(&resp.body).expect("error JSON");
    let error = error["error"].as_str().expect("error string");
    assert!(error.contains(message), "{error}");
    let out = cli.output().expect("run dgsched");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.trim_end(), format!("dgsched: {prefix}{error}"));
}

/// Oracle knobs past their caps are refused before any work starts, by
/// the daemon (400) and by `dgsched run` of the same body (exit 1) with
/// the same message: a trillion replications would otherwise be
/// allocated as pool cells up front, and an allocation failure aborts the
/// daemon. A restart count past `u32` does not decode, on either side.
#[test]
fn oversized_oracle_knobs_are_rejected_before_any_work() {
    let dir = tmp_dir("oracle-caps");
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = small_scenario("caps", PolicyKind::Rr);
    let daemon = Daemon::start(&dir.join("cache"), "1");
    let knobs = |replications, restarts| OracleConfig {
        replications,
        restarts,
        ..OracleConfig::default()
    };
    let body = |oracle| {
        let request = OracleRequest {
            scenarios: vec![scenario.clone()],
            base_seed: 2008,
            rule: StoppingRule::default(),
            oracle,
            tenant: None,
        };
        serde_json::to_string(&request).unwrap()
    };
    let prefix = "invalid oracle request: ";
    let too_wide = body(knobs(3, 8)).replace("\"restarts\":8", "\"restarts\":4294967297");
    let cases = [
        (
            body(knobs(1_000_000_000_000, 8)),
            prefix,
            "oracle.replications must be at most 4096 (got 1000000000000)",
        ),
        (
            body(knobs(3, 4_000_000_000)),
            prefix,
            "oracle.restarts must be at most 4096 (got 4000000000)",
        ),
        (
            body(knobs(3, 0)),
            prefix,
            "oracle.restarts must be non-zero",
        ),
        (too_wide, "", prefix),
    ];
    for (i, (body, prefix, message)) in cases.into_iter().enumerate() {
        let path = dir.join(format!("request{i}.json"));
        std::fs::write(&path, &body).unwrap();
        let mut cli = Command::new(bin());
        cli.arg("run").arg(&path);
        assert_refused_alike(&daemon, "/oracle", body.as_bytes(), cli, prefix, message);
        assert_eq!(daemon.counter("serve_bad_requests"), i as u64 + 1);
    }
    assert_eq!(daemon.counter("serve_sweeps_executed"), 0);
    let health = http_request(&daemon.addr, "GET", "/healthz", &[], b"").expect("GET /healthz");
    assert_eq!(health.status, 200);
    daemon.kill();
    std::fs::remove_dir_all(&dir).ok();
}

/// `dgsched run FILE`'s stdout.
fn cli_stdout(file: &Path) -> Vec<u8> {
    let out = Command::new(bin())
        .arg("run")
        .arg(file)
        .output()
        .expect("run dgsched");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Two small scenarios under a fixed two-replication rule.
fn small_request() -> SweepRequest {
    SweepRequest {
        scenarios: vec![
            small_scenario("small: RR", PolicyKind::Rr),
            small_scenario("small: SBF", PolicyKind::Sbf),
        ],
        base_seed: 2008,
        rule: StoppingRule {
            min_replications: 2,
            max_replications: 2,
            ..StoppingRule::default()
        },
        tenant: None,
    }
}

/// `req` as an oracle request with a small search.
fn small_oracle(req: &SweepRequest, replications: u64) -> OracleRequest {
    OracleRequest {
        scenarios: req.scenarios.clone(),
        base_seed: req.base_seed,
        rule: req.rule,
        oracle: OracleConfig {
            restarts: 2,
            iters: 6,
            seed: 3,
            replications,
        },
        tenant: None,
    }
}

/// The instrumentation environment toggle is gone: a daemon started
/// with `DGSCHED_TRACE=1` caches and serves the bytes `dgsched run`
/// prints, so no cache entry depends on an environment no key covers.
#[test]
fn trace_environment_does_not_change_served_bytes() {
    let dir = tmp_dir("trace-env");
    std::fs::create_dir_all(&dir).unwrap();
    let body = serde_json::to_vec(&small_request()).unwrap();
    let file = dir.join("request.json");
    std::fs::write(&file, &body).unwrap();
    let daemon = Daemon::start_with(&dir.join("cache"), "1", &[("DGSCHED_TRACE", "1")]);
    let served = daemon.post("/sweep", &body);
    assert_eq!(served.status, 200);
    assert_eq!(served.body, cli_stdout(&file));
    daemon.kill();
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal the daemon cannot resume — damaged before its last line, or
/// an oracle restart journal of the older two-schema layout — is moved
/// aside to `<fp>.journal.jsonl.unreadable` and the request computed
/// afresh, instead of failing every request for that fingerprint.
/// `dgsched run --resume` still refuses such a file.
#[test]
fn unreadable_journal_is_moved_aside_and_recomputed() {
    let dir = tmp_dir("unreadable");
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    let req = small_request();
    let (s, seed, rule) = (&req.scenarios, req.base_seed, &req.rule);
    let oracle = small_oracle(&req, 1);
    let journal = |fp: String| cache.join(format!("{fp}.journal.jsonl"));
    let sweep_journal = journal(sweep_fingerprint(s, seed, rule).unwrap());
    let oracle_journal = journal(oracle_fingerprint(s, seed, rule, &oracle.oracle).unwrap());
    // The sweep's own journal with a corrupt middle line, and the oracle's
    // as the older layout wrote it.
    run_matrix_journaled(s, seed, rule, &sweep_journal, false, RepGuard::default()).unwrap();
    let text = std::fs::read_to_string(&sweep_journal).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines[2] = "{not json}";
    let damaged = lines.join("\n") + "\n";
    let old =
        "{\"kind\":\"header\",\"version\":1,\"fingerprint\":\"00\",\"code_version\":\"0.1.0\"}\n\
               {\"kind\":\"restart\",\"env\":\"00\",\"rep\":0,\"outcome\":{}}\n";
    let copy = dir.join("damaged.jsonl");
    for (path, bytes) in [
        (&sweep_journal, &*damaged),
        (&oracle_journal, old),
        (&copy, &*damaged),
    ] {
        std::fs::write(path, bytes).unwrap();
    }
    let daemon = Daemon::start(&cache, "1");
    for (route, body, path, bytes) in [
        (
            "/sweep",
            serde_json::to_vec(&req).unwrap(),
            &sweep_journal,
            &*damaged,
        ),
        (
            "/oracle",
            serde_json::to_vec(&oracle).unwrap(),
            &oracle_journal,
            old,
        ),
    ] {
        let file = dir.join("request.json");
        std::fs::write(&file, &body).unwrap();
        let served = daemon.post(route, &body);
        assert_eq!(
            served.status,
            200,
            "{}",
            String::from_utf8_lossy(&served.body)
        );
        assert_eq!(served.body, cli_stdout(&file), "{route}");
        let mut aside = path.clone().into_os_string();
        aside.push(".unreadable");
        assert_eq!(std::fs::read_to_string(&aside).unwrap(), bytes, "{route}");
        assert!(path.exists(), "{route}: the recomputed run journals afresh");
        let out = Command::new(bin())
            .arg("run")
            .arg(&file)
            .args(["--journal", copy.to_str().unwrap(), "--resume"])
            .output()
            .expect("run dgsched");
        assert_eq!(out.status.code(), Some(1), "{route}: --resume refuses it");
    }
    daemon.kill();
    std::fs::remove_dir_all(&dir).ok();
}

/// An oracle run is a sweep plus a regret pass: `/oracle` after `/sweep`
/// over the same scenarios reuses every journaled replication, and still
/// answers what a fresh computation answers.
#[test]
fn oracle_reuses_the_replications_a_sweep_journaled() {
    let dir = tmp_dir("oracle-reuse");
    let daemon = Daemon::start(&dir, "2");
    let req = small_request();
    assert_eq!(
        daemon
            .post("/sweep", &serde_json::to_vec(&req).unwrap())
            .status,
        200
    );
    let oracle = small_oracle(&req, 2);
    let resp = daemon.post("/oracle", &serde_json::to_vec(&oracle).unwrap());
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(daemon.counter("serve_replications_reused"), 4);
    let parsed: SweepResponse = serde_json::from_slice(&resp.body).unwrap();
    let fresh = SweepResponse {
        fingerprint: parsed.fingerprint,
        results: run_matrix_regret(&req.scenarios, req.base_seed, &req.rule, &oracle.oracle),
    };
    assert_eq!(resp.body, serde_json::to_vec(&fresh).unwrap());
    daemon.kill();
    std::fs::remove_dir_all(&dir).ok();
}

/// Workloads and grids that generation cannot build are refused before
/// any work starts, by the daemon (400) and `dgsched run` (exit 1) alike.
/// Each used to pass validation, then abort the process on a failed
/// allocation (6e14 tasks, 1e19 machines) or panic (no bags).
#[test]
fn unbuildable_workloads_are_rejected_before_any_work() {
    let dir = tmp_dir("volume-caps");
    std::fs::create_dir_all(&dir).unwrap();
    let daemon = Daemon::start(&dir.join("cache"), "1");
    let [mut huge_bag, mut no_bags, mut huge_grid] =
        [(); 3].map(|_| small_scenario("caps", PolicyKind::Rr));
    if let WorkloadKind::Single(spec) = &mut huge_bag.workload {
        spec.bot_type.app_size = 1e17; // 1e14 tasks per bag
    }
    no_bags.workload = WorkloadKind::Mixed(MixSpec::paper_uniform(Intensity::Low, 0));
    huge_grid.grid.total_power = 1e20;
    let cases = [
        (huge_bag, "workload expects 6e14 tasks"),
        (no_bags, "count must be at least 1"),
        (huge_grid, "grid expects 1e19 machines"),
    ];
    for (i, (scenario, message)) in cases.into_iter().enumerate() {
        let request = SweepRequest {
            scenarios: vec![scenario],
            base_seed: 2008,
            rule: StoppingRule::default(),
            tenant: None,
        };
        let body = serde_json::to_vec(&request).unwrap();
        let path = dir.join(format!("request{i}.json"));
        std::fs::write(&path, &body).unwrap();
        let mut cli = Command::new(bin());
        cli.arg("run").arg(&path);
        let prefix = "invalid sweep request: ";
        assert_refused_alike(&daemon, "/sweep", &body, cli, prefix, message);
        assert_eq!(daemon.counter("serve_bad_requests"), i as u64 + 1);
    }
    assert_eq!(daemon.counter("serve_sweeps_executed"), 0);
    let health = http_request(&daemon.addr, "GET", "/healthz", &[], b"").expect("GET /healthz");
    assert_eq!(health.status, 200);
    daemon.kill();
    std::fs::remove_dir_all(&dir).ok();
}
