//! The service workloads — `serve-hit`, `serve-miss`, `serve-overlap` —
//! against an in-process daemon (`Server::bind(..).spawn()`, pool width
//! 2, one admission slot) over loopback.
//!
//! Clients run closed loops: a sweep client is a script that waits for
//! each answer before sending the next request. Set-up brings up a daemon
//! on a fresh cache directory and fills it with two sweeps, a small one
//! and the large Fig. 1-shaped matrix, so every workload runs against the
//! same warm cache.
//!
//! The traced run replays the wire bytes of each request kind through
//! the daemon's own steps — parse, decode, validate, fingerprint, cache
//! lookup, response write — on a copy of the daemon's cache directory,
//! and for misses also times the sweep with and without its journal.

use crate::calib::calibrated_rounds;
use crate::spans::{self, Tracer};
use crate::sweeps::{fixed_reps, redrive, sim_layers, Redrive};
use crate::{
    end_to_end, fnv1a64, measure_setup, op_metrics, pin_gate, stats, timed, Ctx, Run, Scale, WIDTH,
};
use dgsched_core::experiment::{
    canonical_sweep_bytes, fig1_panels, run_matrix, run_matrix_journaled, sweep_fingerprint,
    RepGuard, Scenario, WorkloadKind,
};
use dgsched_core::policy::PolicyKind;
use dgsched_core::serve::protocol::{read_http_request, write_http_response};
use dgsched_core::serve::{
    CacheLookup, ResultCache, ServeConfig, Server, ServerHandle, SweepRequest, SweepResponse,
};
use dgsched_core::sim::SimConfig;
use dgsched_grid::{Availability, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec, PAPER_GRANULARITIES};
use serde_json::Value;
use std::io::{self, BufRead, BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Closed-loop client threads of `serve-hit`.
const CLIENTS: usize = 2;
/// Every 10th `serve-hit` request asks for the large matrix.
const LARGE_EVERY: u64 = 10;
/// Every 10th `serve-miss` operation is a single-flight pair instead of a
/// plain miss.
const PAIR_EVERY: u64 = 10;
/// Length of a round of requests between two calibrations.
const ROUND_S: f64 = 0.1;
/// Replays of each request kind in a traced run.
const REPLAYS: u64 = 20;

/// One cell of the paper's Hom-HighAvail platform, at the figure
/// binaries' `--scale quick` sizes (40 bags, 4 of them warm-up): large
/// enough that a miss is mostly simulation, not its fsyncs and thread
/// hand-offs, whose cost moves with the disk and the scheduler. `key`
/// only names the scenario: it changes the sweep's fingerprint, not what
/// it computes.
fn cell(scale: Scale, policy: PolicyKind, granularity: f64, key: u64) -> Scenario {
    let (bags, warmup) = match scale {
        Scale::Full => (40, 4),
        Scale::Toy => (8, 1),
    };
    Scenario {
        name: format!("Hom-HighAvail g={granularity} {policy} #{key}"),
        grid: GridConfig::paper(Heterogeneity::HOM, Availability::HIGH),
        workload: WorkloadKind::Single(WorkloadSpec {
            bot_type: BotType::paper(granularity),
            intensity: Intensity::Low,
            count: bags,
        }),
        policy,
        sim: SimConfig {
            warmup_bags: warmup,
            ..SimConfig::default()
        },
    }
}

fn reps(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 5,
        Scale::Toy => 2,
    }
}

fn request(scenarios: Vec<Scenario>, base_seed: u64, replications: u64) -> SweepRequest {
    SweepRequest {
        scenarios,
        base_seed,
        rule: fixed_reps(replications),
        tenant: None,
    }
}

/// The question a script asks: two policies on one cell, fixed
/// replications. Distinct keys are distinct sweeps of identical work, so
/// every operation of a run costs the same.
fn small(scale: Scale, seed: u64, key: u64) -> SweepRequest {
    let scenarios = [PolicyKind::Rr, PolicyKind::FcfsShare]
        .map(|p| cell(scale, p, 25_000.0, key))
        .to_vec();
    request(scenarios, seed, reps(scale))
}

/// A single-flight leader: four granularities × two policies, long
/// enough that its follower always arrives while it runs.
fn leader(scale: Scale, seed: u64, key: u64) -> SweepRequest {
    let scenarios = PAPER_GRANULARITIES
        .iter()
        .flat_map(|&g| [PolicyKind::Rr, PolicyKind::FcfsShare].map(|p| cell(scale, p, g, key)))
        .collect();
    request(scenarios, seed, reps(scale))
}

/// The large cached answer: Fig. 1's four panels × four granularities ×
/// five policies (80 scenarios) at a few bags each, cheap to compute but
/// with a response body an order of magnitude larger than `small`'s.
fn large(scale: Scale, seed: u64) -> SweepRequest {
    let panels = match scale {
        Scale::Full => 4,
        Scale::Toy => 1,
    };
    let scenarios = fig1_panels()
        .into_iter()
        .take(panels)
        .flat_map(|p| p.scenarios(3, 0))
        .collect();
    request(scenarios, seed, 2)
}

/// `base` plus one more policy on the same cell: a sweep that overlaps a
/// cached one in all but one scenario.
fn overlap(scale: Scale, base: &SweepRequest, key: u64) -> SweepRequest {
    let mut scenarios = base.scenarios.clone();
    scenarios.push(cell(scale, PolicyKind::LongIdle, 25_000.0, key));
    request(scenarios, base.base_seed, base.rule.max_replications)
}

/// The exact bytes a client sends for `POST target` with `req` as body.
fn wire(target: &str, req: &SweepRequest) -> Vec<u8> {
    let body = serde_json::to_vec(req).expect("a sweep request serialises");
    let mut out = format!(
        "POST {target} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(&body);
    out
}

/// A parsed response.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Reply {
    /// The `x-dgsched-cache` disposition.
    fn cache(&self) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == "x-dgsched-cache")
            .map(|(_, v)| v.as_str())
    }
}

/// One request on its own connection: sends `wire`, reads the response
/// head, calls `on_head`, then reads the body to the server's close.
fn exchange(addr: &str, wire: &[u8], on_head: impl FnOnce()) -> Result<Reply, String> {
    let io = || -> io::Result<Reply> {
        let mut stream = TcpStream::connect(addr)?;
        stream.write_all(wire)?;
        let mut reader = BufReader::new(stream);
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let line = line.trim_end().to_string();
            if line.is_empty() {
                break;
            }
            lines.push(line);
        }
        on_head();
        let mut body = Vec::new();
        reader.read_to_end(&mut body)?;
        let status = lines
            .first()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let headers = lines
            .iter()
            .skip(1)
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        Ok(Reply {
            status,
            headers,
            body,
        })
    };
    io().map_err(|e| format!("request to {addr} failed: {e}"))
}

/// The disposition and response bytes of a streamed sweep's final line.
fn stream_result(body: &[u8]) -> Option<(String, &[u8])> {
    let last = body.split(|&b| b == b'\n').rev().find(|l| !l.is_empty())?;
    let rest = last.strip_prefix(b"{\"event\":\"result\",\"cache\":\"")?;
    let quote = rest.iter().position(|&b| b == b'"')?;
    let cache = String::from_utf8_lossy(&rest[..quote]).into_owned();
    let response = rest[quote..]
        .strip_prefix(b"\",\"response\":")?
        .strip_suffix(b"}")?;
    Some((cache, response))
}

fn parse_response(body: &[u8]) -> Result<SweepResponse, String> {
    serde_json::from_slice(body).map_err(|e| format!("unparsable sweep response: {e}"))
}

/// A running daemon with its warm set.
struct Daemon {
    handle: ServerHandle,
    addr: String,
    dir: PathBuf,
    small_wire: Vec<u8>,
    small_body: Vec<u8>,
    large_wire: Vec<u8>,
    large_body: Vec<u8>,
}

/// Sweeps the set-up computes into every daemon's cache.
const FILLS: u64 = 2;

/// Set-up: bind a daemon on a fresh cache directory, open the cache, and
/// compute the small and the large sweep into it.
fn start(ctx: &Ctx, k: usize) -> Result<Daemon, String> {
    let dir = ctx.artifact(&format!("{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: Some(dir.clone()),
        slots: 1,
        width: Some(WIDTH),
        guard: RepGuard::default(),
    })
    .map_err(|e| format!("cannot start the daemon: {e}"))?;
    let handle = server.spawn();
    let addr = handle.addr().to_string();
    let fill = |wire: &[u8]| -> Result<Vec<u8>, String> {
        let r = exchange(&addr, wire, || ())?;
        if r.status != 200 || r.cache() != Some("miss") {
            return Err(format!("fill: status {}, cache {:?}", r.status, r.cache()));
        }
        Ok(r.body)
    };
    let small_wire = wire("/sweep", &small(ctx.scale, ctx.seed, 0));
    let large_wire = wire("/sweep", &large(ctx.scale, ctx.seed));
    match fill(&small_wire).and_then(|s| Ok((s, fill(&large_wire)?))) {
        Ok((small_body, large_body)) => Ok(Daemon {
            handle,
            addr,
            dir,
            small_wire,
            small_body,
            large_wire,
            large_body,
        }),
        Err(e) => {
            handle.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
            Err(e)
        }
    }
}

fn stop(d: Daemon) {
    d.handle.shutdown();
    let _ = std::fs::remove_dir_all(&d.dir);
}

/// The daemon's `/metrics` counters.
fn counters(addr: &str) -> Result<Value, String> {
    let get = b"GET /metrics HTTP/1.1\r\nhost: localhost\r\ncontent-length: 0\r\nconnection: close\r\n\r\n";
    let r = exchange(addr, get, || ())?;
    let v: Value = serde_json::from_slice(&r.body).map_err(|e| format!("/metrics: {e}"))?;
    Ok(v["counters"].clone())
}

/// What one request did.
struct Op {
    kind: &'static str,
    latency: f64,
    error: Option<String>,
}

fn with_span<R>(tracer: Option<&Tracer>, name: &str, req: u64, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, None, Some(req), |_| f()),
        None => f(),
    }
}

/// Sends `wire` and times it, in a span named `kind` when traced.
fn send(
    d: &Daemon,
    tracer: Option<&Tracer>,
    kind: &'static str,
    i: u64,
    wire: &[u8],
) -> (f64, Result<Reply, String>) {
    timed(|| with_span(tracer, kind, i, || exchange(&d.addr, wire, || ())))
}

/// What the loops sent, for the checks against the daemon's counters.
#[derive(Default)]
struct Sent {
    hits: u64,
    computed: u64,
    follower_waits: u64,
    follower_hits: u64,
    /// The first computed request (a plain miss, or an overlap request)
    /// and its answer: cross-checked against the library after the run,
    /// and the digest pinned for the workload.
    first_computed: Option<(SweepRequest, Vec<u8>)>,
}

/// The request kinds whose latency the end-to-end metrics report.
fn primary(workload: &str) -> &'static [&'static str] {
    match workload {
        "serve-hit" => &["hit.small", "hit.large"],
        "serve-miss" => &["miss"],
        _ => &["overlap"],
    }
}

fn latencies(ops: &[Op], kinds: &[&str]) -> Vec<f64> {
    ops.iter()
        .filter(|o| kinds.contains(&o.kind))
        .map(|o| o.latency)
        .collect()
}

/// One measured result per scenario, in request order.
fn measured(resp: &SweepResponse, req: &SweepRequest) -> bool {
    resp.results.len() == req.scenarios.len()
        && resp.results.iter().zip(&req.scenarios).all(|(r, s)| {
            r.name == s.name && !r.saturated && r.replications == req.rule.max_replications
        })
}

/// The operation loop of one run. Operation `i` names its scenarios with
/// key `i + 1`, so no two operations of a run send the same sweep.
struct Loop<'a> {
    ctx: &'a Ctx,
    d: &'a Daemon,
    next: AtomicU64,
}

impl Loop<'_> {
    /// Runs operations until `seconds` have passed and at least
    /// `min_ops` primary ones ran; returns every request made.
    fn run(
        &self,
        seconds: f64,
        min_ops: usize,
        tracer: Option<&Tracer>,
        sent: &mut Sent,
    ) -> Vec<Op> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let workload = self.ctx.workload;
        if workload == "serve-hit" {
            let per_client = min_ops.div_ceil(CLIENTS);
            let ops: Vec<Op> = std::thread::scope(|s| {
                let clients: Vec<_> = (0..CLIENTS)
                    .map(|_| {
                        s.spawn(|| {
                            let mut ops = Vec::new();
                            while ops.len() < per_client || Instant::now() < deadline {
                                ops.push(self.hit(tracer));
                            }
                            ops
                        })
                    })
                    .collect();
                clients
                    .into_iter()
                    .flat_map(|c| c.join().expect("a client thread panicked"))
                    .collect()
            });
            sent.hits += ops.len() as u64;
            return ops;
        }
        let mut ops = Vec::new();
        while latencies(&ops, primary(workload)).len() < min_ops || Instant::now() < deadline {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            match workload {
                "serve-miss" if i % PAIR_EVERY == PAIR_EVERY - 1 => {
                    ops.extend(self.pair(i, tracer, sent))
                }
                "serve-miss" => ops.push(self.miss(i, tracer, sent)),
                _ => ops.extend(self.overlap(i, tracer, sent)),
            }
        }
        ops
    }

    /// A warm hit on the small or (every 10th) the large cached sweep;
    /// the answer must be the cached bytes.
    fn hit(&self, tracer: Option<&Tracer>) -> Op {
        let (d, i) = (self.d, self.next.fetch_add(1, Ordering::Relaxed));
        let (kind, wire, want) = if i % LARGE_EVERY == LARGE_EVERY - 1 {
            ("hit.large", &d.large_wire, &d.large_body)
        } else {
            ("hit.small", &d.small_wire, &d.small_body)
        };
        let (latency, reply) = send(d, tracer, kind, i, wire);
        let error = match reply {
            Err(e) => Some(e),
            Ok(r) if r.status != 200 || r.cache() != Some("hit") || &r.body != want => {
                Some(format!(
                    "{kind} {i}: status {}, cache {:?}, body {} bytes, cached {}",
                    r.status,
                    r.cache(),
                    r.body.len(),
                    want.len()
                ))
            }
            Ok(_) => None,
        };
        Op {
            kind,
            latency,
            error,
        }
    }

    /// A cold miss; the answer must parse to one measured result per
    /// scenario.
    fn miss(&self, i: u64, tracer: Option<&Tracer>, sent: &mut Sent) -> Op {
        let req = small(self.ctx.scale, self.ctx.seed, i + 1);
        let wire = wire("/sweep", &req);
        let (latency, reply) = send(self.d, tracer, "miss", i, &wire);
        sent.computed += 1;
        let checked = reply.and_then(|r| {
            let resp = parse_response(&r.body)?;
            if r.status != 200 || r.cache() != Some("miss") || !measured(&resp, &req) {
                return Err(format!(
                    "miss {i}: status {}, cache {:?}",
                    r.status,
                    r.cache()
                ));
            }
            if sent.first_computed.is_none() {
                sent.first_computed = Some((req, r.body));
            }
            Ok(())
        });
        Op {
            kind: "miss",
            latency,
            error: checked.err(),
        }
    }

    /// A single-flight pair: the leader streams, and the follower sends
    /// the identical request once the leader's stream head has arrived.
    /// The follower must never compute: it waits for the leader — or, if
    /// the leader already finished, hits the cache — and receives the
    /// leader's exact bytes.
    fn pair(&self, i: u64, tracer: Option<&Tracer>, sent: &mut Sent) -> [Op; 2] {
        let req = leader(self.ctx.scale, self.ctx.seed, i + 1);
        let (leader_wire, follower_wire) = (wire("/sweep?stream=1", &req), wire("/sweep", &req));
        let (go, ready) = mpsc::channel::<()>();
        let ((lead_latency, lead), follow) = std::thread::scope(|s| {
            let follower = s.spawn(move || {
                ready.recv().ok()?;
                Some(send(self.d, tracer, "follower", i, &follower_wire))
            });
            let lead = timed(|| {
                with_span(tracer, "leader", i, || {
                    exchange(&self.d.addr, &leader_wire, || {
                        let _ = go.send(());
                    })
                })
            });
            // A leader that failed before its head arrived never woke the
            // follower; hanging up releases it.
            drop(go);
            (lead, follower.join().expect("the follower thread panicked"))
        });
        sent.computed += 1;
        let streamed = lead.as_ref().ok().and_then(|r| stream_result(&r.body));
        let lead_error = match (&lead, &streamed) {
            (Err(e), _) => Some(e.clone()),
            (Ok(r), Some((cache, bytes))) if r.status == 200 && cache == "miss" => {
                parse_response(bytes).err()
            }
            (Ok(r), _) => Some(format!(
                "leader {i}: status {}, no miss result line",
                r.status
            )),
        };
        let (follow_latency, follow_error) = match follow {
            None => (
                0.0,
                Some(format!("follower {i}: the leader's head never came")),
            ),
            Some((dt, Err(e))) => (dt, Some(e)),
            Some((dt, Ok(r))) => {
                match r.cache() {
                    Some("wait") => sent.follower_waits += 1,
                    Some("hit") => sent.follower_hits += 1,
                    _ => {}
                }
                let same = streamed.as_ref().map(|s| s.1) == Some(&r.body[..]);
                let ok = r.status == 200 && matches!(r.cache(), Some("wait" | "hit")) && same;
                let error = (!ok).then(|| {
                    format!(
                        "follower {i}: status {}, cache {:?}, leader's bytes {same}",
                        r.status,
                        r.cache()
                    )
                });
                (dt, error)
            }
        };
        [
            Op {
                kind: "leader",
                latency: lead_latency,
                error: lead_error,
            },
            Op {
                kind: "follower",
                latency: follow_latency,
                error: follow_error,
            },
        ]
    }

    /// A cold base sweep, then the same sweep with one scenario added.
    /// Both are misses today; the shared scenarios must come back
    /// byte-identical to the base answer.
    fn overlap(&self, i: u64, tracer: Option<&Tracer>, sent: &mut Sent) -> [Op; 2] {
        let base = small(self.ctx.scale, self.ctx.seed, i + 1);
        let ext = overlap(self.ctx.scale, &base, i + 1);
        let (base_wire, ext_wire) = (wire("/sweep", &base), wire("/sweep", &ext));
        let (base_latency, base_reply) = send(self.d, tracer, "overlap.base", i, &base_wire);
        let (latency, ext_reply) = send(self.d, tracer, "overlap", i, &ext_wire);
        sent.computed += 2;
        let checked = |reply: Result<Reply, String>, req: &SweepRequest| {
            let r = reply?;
            let resp = parse_response(&r.body)?;
            if r.status != 200 || r.cache() != Some("miss") || !measured(&resp, req) {
                return Err(format!(
                    "overlap {i}: status {}, cache {:?}",
                    r.status,
                    r.cache()
                ));
            }
            Ok((resp, r.body))
        };
        let shared =
            |r: &SweepResponse| serde_json::to_vec(&r.results[..base.scenarios.len()]).ok();
        let error = match (checked(base_reply, &base), checked(ext_reply, &ext)) {
            (Ok((b, _)), Ok((e, body))) => {
                if sent.first_computed.is_none() {
                    sent.first_computed = Some((ext, body));
                }
                (shared(&b) != shared(&e))
                    .then(|| format!("overlap {i}: shared scenarios differ from the base answer"))
            }
            (Err(e), _) | (_, Err(e)) => Some(e),
        };
        [
            Op {
                kind: "overlap.base",
                latency: base_latency,
                error: None,
            },
            Op {
                kind: "overlap",
                latency,
                error,
            },
        ]
    }
}

fn record(run: &mut Run, ops: &[Op]) {
    for op in ops {
        run.op(op.error.is_none(), || op.error.clone().unwrap_or_default());
    }
}

pub fn run(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let discard = |d: Result<Daemon, String>| {
        if let Ok(d) = d {
            stop(d)
        }
    };
    let (setup_cost, started) = measure_setup(|k| start(ctx, k), discard);
    let d = match started {
        Ok(d) => d,
        Err(e) => {
            run.gate(false, || e);
            return run;
        }
    };
    let lp = Loop {
        ctx,
        d: &d,
        next: AtomicU64::new(0),
    };
    let mut sent = Sent::default();
    let kinds = primary(ctx.workload);
    // Warm-up: connections, handler threads, allocator arenas.
    let warm_ops = if ctx.workload == "serve-hit" { 20 } else { 2 };
    record(&mut run, &lp.run(0.0, warm_ops, None, &mut sent));
    if ctx.trace {
        traced(ctx, &mut run, &lp, &mut sent);
    } else {
        let mut ops = Vec::new();
        let window = calibrated_rounds(ctx.seconds, 10, || {
            let round = lp.run(ROUND_S, 1, None, &mut sent);
            let primary = latencies(&round, kinds);
            ops.extend(round);
            primary
        });
        record(&mut run, &ops);
        end_to_end(&mut run, setup_cost, &window);
    }
    daemon_gates(ctx, &mut run, &d, &sent);
    stop(d);
    run
}

/// Checks the daemon's own account of the run, the first miss against
/// the library's answer, and the pinned digest.
fn daemon_gates(ctx: &Ctx, run: &mut Run, d: &Daemon, sent: &Sent) {
    match counters(&d.addr) {
        Ok(c) => {
            let expect = [
                ("serve_sweeps_executed", FILLS + sent.computed),
                ("serve_cache_hits", sent.hits + sent.follower_hits),
                ("serve_single_flight_waits", sent.follower_waits),
                ("serve_bad_requests", 0),
            ];
            for (name, want) in expect {
                let got = c[name].as_u64();
                run.gate(got == Some(want), || {
                    format!("/metrics {name} = {got:?}, expected {want}")
                });
            }
        }
        Err(e) => run.gate(false, || e),
    }
    if let Some((req, body)) = &sent.first_computed {
        let results = rayon::with_num_threads(WIDTH, || {
            run_matrix(&req.scenarios, req.base_seed, &req.rule)
        });
        let direct =
            sweep_fingerprint(&req.scenarios, req.base_seed, &req.rule).map(|fingerprint| {
                serde_json::to_vec(&SweepResponse {
                    fingerprint,
                    results,
                })
                .expect("a sweep response serialises")
            });
        run.gate(direct.as_ref().ok() == Some(body), || {
            "the daemon's answer differs from run_matrix".into()
        });
    }
    let reference = match &sent.first_computed {
        Some((_, body)) => body,
        None => &d.large_body,
    };
    pin_gate(run, ctx, &fnv1a64(reference));
}

/// The traced run: half the time untraced, half with a span around every
/// request (the ratio of their medians is the tracing overhead), then the
/// replay of the workload's request kind through the daemon's layers.
fn traced(ctx: &Ctx, run: &mut Run, lp: &Loop<'_>, sent: &mut Sent) {
    let kinds = primary(ctx.workload);
    let plain = lp.run(ctx.seconds / 2.0, 10, None, sent);
    let tracer = Tracer::new();
    let (wall, ops) = timed(|| lp.run(ctx.seconds / 2.0, 10, Some(&tracer), sent));
    record(run, &plain);
    record(run, &ops);
    let lat = latencies(&ops, kinds);
    let v = &mut run.values;
    let p50 = stats::median(&lat);
    v.set(
        "trace.overhead_ratio",
        p50 / stats::median(&latencies(&plain, kinds)),
    );
    op_metrics(v, &lat);
    v.set("serve.ops_per_s", lat.len() as f64 / wall);
    for (metric, kind) in [
        ("serve.large_hit_p50_ms", "hit.large"),
        ("serve.follower_p50_ms", "follower"),
    ] {
        let l = latencies(&ops, &[kind]);
        if !l.is_empty() {
            v.set(metric, stats::median(&l) * 1e3);
        }
    }
    match counters(&lp.d.addr) {
        Ok(c) => {
            let n = |name: &str| c[name].as_f64().unwrap_or(0.0);
            let (hits, misses) = (n("serve_cache_hits"), n("serve_cache_misses"));
            v.set("serve.cache_hits", hits);
            v.set("serve.cache_misses", misses);
            v.set("serve.single_flight_waits", n("serve_single_flight_waits"));
            v.set("serve.sweeps_executed", n("serve_sweeps_executed"));
            v.set("serve.hit_ratio", hits / (hits + misses).max(1.0));
        }
        Err(e) => run.gate(false, || e),
    }
    let small_p50 = stats::median(&latencies(&ops, &[kinds[0]]));
    replay(ctx, run, lp.d, &tracer);
    let spans = tracer.finish();
    sim_layers(&mut run.values, &spans);
    layer_values(ctx, &mut run.values, &spans, small_p50);
    crate::save_spans(ctx, run, &spans);
}

/// The replay: opens a copy of the daemon's cache directory, then runs
/// the workload's request kinds through the daemon's layers.
fn replay(ctx: &Ctx, run: &mut Run, d: &Daemon, tracer: &Tracer) {
    let copy = ctx.artifact(&format!("{}-replay", std::process::id()));
    if let Err(e) = copy_dir(&d.dir, &copy) {
        run.gate(false, || format!("cannot copy the cache directory: {e}"));
        return;
    }
    let cache = match tracer.span("cache.open", None, None, |_| ResultCache::open(&copy)) {
        Ok(c) => c,
        Err(e) => {
            run.gate(false, || format!("cannot open the cache copy: {e}"));
            return;
        }
    };
    if ctx.workload == "serve-hit" {
        front(
            tracer,
            run,
            &cache,
            "small",
            &d.small_wire,
            Some(&d.small_body),
        );
        front(
            tracer,
            run,
            &cache,
            "large",
            &d.large_wire,
            Some(&d.large_body),
        );
    } else {
        // A sweep no operation sent, so the lookup misses.
        let fresh = small(ctx.scale, ctx.seed, u64::MAX);
        let req = match ctx.workload {
            "serve-miss" => fresh,
            _ => overlap(ctx.scale, &fresh, u64::MAX),
        };
        front(tracer, run, &cache, "small", &wire("/sweep", &req), None);
        compute(tracer, run, &cache, &copy, &req);
    }
    let _ = std::fs::remove_dir_all(&copy);
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Replays `wire` `REPLAYS` times through parse, decode, validate,
/// fingerprint and cache lookup, then the response write, each in a span
/// named `<layer>.<size>`. `cached` is the body the lookup must find, or
/// `None` when it must miss; the write sends the cached body, or the
/// request's own computed answer.
fn front(
    tracer: &Tracer,
    run: &mut Run,
    cache: &ResultCache,
    size: &str,
    wire: &[u8],
    cached: Option<&[u8]>,
) {
    for k in 0..REPLAYS {
        let replayed = tracer.span(&format!("replay.{size}"), None, Some(k), |id| {
            let layer = |name: &str| format!("{name}.{size}");
            let req = tracer
                .span(&layer("http.parse"), Some(id), Some(k), |_| {
                    read_http_request(&mut Cursor::new(wire))
                })
                .map_err(|e| e.to_string())?;
            let sweep: SweepRequest = tracer
                .span(&layer("decode"), Some(id), Some(k), |_| {
                    serde_json::from_slice(&req.body)
                })
                .map_err(|e| e.to_string())?;
            tracer.span(&layer("validate"), Some(id), Some(k), |_| {
                sweep.scenarios.iter().try_for_each(Scenario::validate)
            })?;
            let (canonical, fingerprint) = tracer
                .span(&layer("fingerprint"), Some(id), Some(k), |_| {
                    let (s, seed, rule) = (&sweep.scenarios, sweep.base_seed, &sweep.rule);
                    Ok::<_, io::Error>((
                        canonical_sweep_bytes(s, seed, rule)?,
                        sweep_fingerprint(s, seed, rule)?,
                    ))
                })
                .map_err(|e| e.to_string())?;
            let found = tracer.span(&layer("cache.lookup"), Some(id), Some(k), |_| {
                cache.lookup(&fingerprint, &canonical)
            });
            let body = match (found, cached) {
                (CacheLookup::Hit(entry), Some(want)) if entry.response == want => {
                    entry.response.clone()
                }
                (CacheLookup::Miss, None) => b"{}".to_vec(),
                _ => return Err(format!("replayed {size} lookup found the wrong entry")),
            };
            if cached.is_some() {
                write(tracer, Some(id), k, size, &fingerprint, &body)?;
            }
            Ok(())
        });
        run.op(replayed.is_ok(), || replayed.err().unwrap_or_default());
    }
}

/// `write_http_response` of `body` into memory, in a span.
fn write(
    tracer: &Tracer,
    parent: Option<u64>,
    k: u64,
    size: &str,
    fingerprint: &str,
    body: &[u8],
) -> Result<(), String> {
    tracer.span(&format!("http.write.{size}"), parent, Some(k), |_| {
        let headers = [
            ("x-dgsched-cache", "hit"),
            ("x-dgsched-fingerprint", fingerprint),
        ];
        let mut out = Vec::with_capacity(body.len() + 256);
        write_http_response(&mut out, 200, "application/json", &headers, body)
            .map_err(|e| e.to_string())
    })
}

/// Plain and journaled sweeps of each kind, alternated, in a traced run.
/// The journal costs about a millisecond against sweeps of 12–20 ms, so
/// it is read from the fastest of each kind (see [`layer_values`]).
const SWEEP_REPEATS: u64 = 10;

/// The miss path after the lookup: the sweep with and without its
/// journal (their difference is the journal's append + fsync cost), the
/// cache insert, the response write, and the re-drive of the sweep's
/// replications.
fn compute(tracer: &Tracer, run: &mut Run, cache: &ResultCache, dir: &Path, req: &SweepRequest) {
    let (s, seed, rule) = (&req.scenarios, req.base_seed, &req.rule);
    let journal = dir.join("replay.journal.jsonl");
    let mut results = Vec::new();
    for k in 0..SWEEP_REPEATS {
        let _ = std::fs::remove_file(&journal);
        results = tracer.span("sweep", None, Some(k), |_| {
            rayon::with_num_threads(WIDTH, || run_matrix(s, seed, rule))
        });
        let journaled = tracer.span("sweep.journaled", None, Some(k), |_| {
            rayon::with_num_threads(WIDTH, || {
                run_matrix_journaled(s, seed, rule, &journal, false, RepGuard::default())
            })
        });
        let same = journaled.as_ref().is_ok_and(|j| {
            serde_json::to_vec(&j.results).ok() == serde_json::to_vec(&results).ok()
        });
        run.op(same, || {
            "the journaled sweep differs from the plain one".into()
        });
        if let Ok(j) = journaled {
            run.values
                .set("experiment.journal.records", j.stats.records_written as f64);
        }
    }
    let keyed = canonical_sweep_bytes(s, seed, rule)
        .and_then(|c| Ok((c, sweep_fingerprint(s, seed, rule)?)));
    let Ok((canonical, fingerprint)) = keyed else {
        run.gate(false, || "the replayed request has no fingerprint".into());
        return;
    };
    let body = serde_json::to_vec(&SweepResponse {
        fingerprint: fingerprint.clone(),
        results: results.clone(),
    })
    .expect("a sweep response serialises");
    let inserted = tracer.span("cache.insert", None, None, |_| {
        cache.insert(&fingerprint, &canonical, body.clone())
    });
    run.gate(inserted.is_ok(), || {
        format!("replayed cache insert failed: {inserted:?}")
    });
    for k in 0..REPLAYS {
        let written = write(tracer, None, k, "small", &fingerprint, &body);
        run.op(written.is_ok(), || written.err().unwrap_or_default());
    }
    let items: Vec<Redrive<'_>> = s
        .iter()
        .zip(&results)
        .map(|(scenario, result)| Redrive {
            scenario,
            result,
            rule: None,
        })
        .collect();
    redrive(tracer, run, &items, seed);
}

/// Median duration of the spans named `name` (0 when there are none).
fn median_of(spans: &[spans::Span], name: &str) -> f64 {
    let d = spans::durations(spans, name);
    if d.is_empty() {
        0.0
    } else {
        stats::median(&d)
    }
}

/// Per-layer values from the replay spans. `p50` is the median latency
/// of the workload's small request kind, the end-to-end number the
/// layers below it add up towards.
fn layer_values(ctx: &Ctx, v: &mut crate::metrics::Values, spans: &[spans::Span], p50: f64) {
    let us = |name: &str| median_of(spans, name) * 1e6;
    for (metric, span) in [
        ("serve.http.parse_us", "http.parse.small"),
        ("serve.http.write_us", "http.write.small"),
        ("serve.decode_us.small", "decode.small"),
        ("serve.decode_us.large", "decode.large"),
        ("serve.validate_us", "validate.small"),
        ("experiment.fingerprint_us.small", "fingerprint.small"),
        ("experiment.fingerprint_us.large", "fingerprint.large"),
        ("serve.cache.lookup_us", "cache.lookup.small"),
    ] {
        v.set(metric, us(span));
    }
    v.set("serve.cache.open_s", spans::total(spans, "cache.open"));
    let front_us: f64 = [
        "http.parse.small",
        "decode.small",
        "validate.small",
        "fingerprint.small",
        "cache.lookup.small",
        "http.write.small",
    ]
    .iter()
    .map(|n| us(n))
    .sum();
    if ctx.workload == "serve-hit" {
        v.set("serve.hit.unattributed_us", p50 * 1e6 - front_us);
        return;
    }
    let (sweep, journaled) = (
        median_of(spans, "sweep"),
        median_of(spans, "sweep.journaled"),
    );
    let insert_ms = median_of(spans, "cache.insert") * 1e3;
    v.set("serve.sweep_ms", sweep * 1e3);
    v.set("serve.cache.insert_ms", insert_ms);
    // Fastest journaled − fastest plain sweep: a sweep the host slowed
    // does not read as journal time.
    let fastest = |name: &str| stats::sorted(&spans::durations(spans, name))[0];
    let records = v.get("experiment.journal.records");
    if records > 0.0 {
        v.set(
            "experiment.journal.append_ms",
            (fastest("sweep.journaled") - fastest("sweep")) / records * 1e3,
        );
    }
    v.set(
        "serve.miss.unattributed_ms",
        p50 * 1e3 - front_us / 1e3 - journaled * 1e3 - insert_ms,
    );
}
