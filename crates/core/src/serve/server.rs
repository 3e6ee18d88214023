//! The daemon: accept loop, request routing, and the sweep execution
//! path that ties cache, single-flight, admission and journal together.
//!
//! Lifecycle of a `POST /sweep` (a `POST /oracle` takes the same path,
//! unstreamed, in its own key space and with the oracle attached):
//!
//! ```text
//! parse + validate ─▶ fingerprint ─▶ cache probe ──hit──▶ cached bytes
//!   (+ event clamp)                      │miss
//!                                  single-flight ──follower──▶ leader's bytes
//!                                        │leader
//!                                  fair-share admission (slot)
//!                                        │
//!                        journaled sweep: per scenario, replay the longer
//!                        of its own journal prefix and the replication
//!                        index's, compute the rest, append + index them
//!                                        │
//!                        cache insert ─▶ publish ─▶ response bytes
//! ```
//!
//! Every response body for the same canonical request is byte-identical
//! — computed, replayed from a journal after a crash, assembled from
//! replications other sweeps journaled, or served from the cache —
//! because the underlying sweep is deterministic at any pool width and
//! the cache stores the serialised bytes themselves. A sweep that reuses
//! replications is still a miss: it runs, and it counts in
//! `serve_sweeps_executed`; `serve_replications_reused` counts what it
//! did not have to compute.

use super::admission::Admission;
use super::cache::{CacheEntry, CacheLookup, ResultCache};
use super::protocol::{
    header_value, http_request, read_http_request, validate_oracle, validate_scenarios,
    write_http_response, write_http_stream_head, HttpRequest, OracleRequest, StreamEvent,
    SweepRequest, SweepResponse,
};
use super::single_flight::{FlightRole, LeaderToken, SingleFlight};
use crate::experiment::{
    canonical_oracle_bytes, canonical_sweep_bytes, fingerprint_canonical, fixed_rule, run_sweep,
    JournalStats, KeySpace, RepGuard, Scenario, SweepOptions,
};
use crate::policy::PolicyKind;
use dgsched_des::time::SimTime;
use dgsched_obs::{MetricsRegistry, MetricsSnapshot};
use parking_lot::Mutex;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7700`; port `0` binds an
    /// ephemeral port (reported by [`Server::local_addr`] and the
    /// `listening` line on stdout).
    pub addr: String,
    /// State directory for the result cache and sweep journals. `None`
    /// uses a per-instance directory under the system temp dir — still
    /// crash-safe within the instance, but not warm across restarts.
    pub cache_dir: Option<PathBuf>,
    /// Concurrent sweep slots for fair-share admission (default 1: one
    /// sweep at a time owns the whole pool).
    pub slots: usize,
    /// Pool-width override applied around each sweep; `None` inherits
    /// the environment (`DGSCHED_THREADS` / `RAYON_NUM_THREADS`).
    pub width: Option<usize>,
    /// Per-replication resource guard for admitted sweeps. A
    /// `max_events` clamp is part of every served sweep's fingerprint.
    pub guard: RepGuard,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7700".to_string(),
            cache_dir: None,
            slots: 1,
            width: None,
            guard: RepGuard::default(),
        }
    }
}

/// Monotonic counters of everything the daemon did, exported as a
/// [`MetricsSnapshot`] on `GET /metrics`. The integration tests read
/// `serve_sweeps_executed`, `serve_cache_hits` and
/// `serve_single_flight_waits` to prove the dedupe story.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    requests: AtomicU64,
    sweep_requests: AtomicU64,
    oracle_requests: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_collisions: AtomicU64,
    single_flight_waits: AtomicU64,
    sweeps_executed: AtomicU64,
    sweeps_failed: AtomicU64,
    journal_replayed: AtomicU64,
    journal_resumes: AtomicU64,
    replications_reused: AtomicU64,
    bad_requests: AtomicU64,
}

impl ServeMetrics {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the counters (plus the cache's open-time numbers) in the
    /// standard snapshot shape.
    fn snapshot(&self, cache: &ResultCache) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        let counters = [
            ("serve_requests", &self.requests),
            ("serve_sweep_requests", &self.sweep_requests),
            ("serve_oracle_requests", &self.oracle_requests),
            ("serve_cache_hits", &self.cache_hits),
            ("serve_cache_misses", &self.cache_misses),
            ("serve_cache_collisions", &self.cache_collisions),
            ("serve_single_flight_waits", &self.single_flight_waits),
            ("serve_sweeps_executed", &self.sweeps_executed),
            ("serve_sweeps_failed", &self.sweeps_failed),
            ("serve_journal_replayed", &self.journal_replayed),
            ("serve_journal_resumes", &self.journal_resumes),
            ("serve_replications_reused", &self.replications_reused),
            ("serve_bad_requests", &self.bad_requests),
        ];
        let counters = counters.map(|(name, c)| (name, c.load(Ordering::Relaxed)));
        let cache_counts = [
            ("serve_cache_warm_entries", cache.warmed()),
            ("serve_pending_journals", cache.pending_journals()),
        ];
        for (name, value) in counters.into_iter().chain(cache_counts) {
            let id = reg.counter(name);
            reg.add(id, value);
        }
        reg.snapshot(SimTime::new(0.0))
    }
}

struct ServerInner {
    cache: ResultCache,
    flight: SingleFlight,
    admission: Admission,
    metrics: ServeMetrics,
    width: Option<usize>,
    guard: RepGuard,
    local_addr: SocketAddr,
    shutdown: AtomicBool,
}

/// A bound daemon, not yet accepting. [`run`](Server::run) blocks the
/// caller; [`spawn`](Server::spawn) accepts on a background thread (the
/// self-test and in-process tests use this).
pub struct Server {
    listener: TcpListener,
    inner: Arc<ServerInner>,
}

/// Handle of a [`spawn`](Server::spawn)ed daemon.
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<ServerInner>,
    join: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the daemon thread. In-flight
    /// connection handlers finish on their own threads.
    pub fn shutdown(self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Poke the accept loop awake so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.join.join();
    }
}

impl Server {
    /// Binds the listener and opens (warming) the result cache.
    pub fn bind(cfg: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let state_dir = cfg.cache_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "dgsched-serve-{}-{}",
                std::process::id(),
                local_addr.port()
            ))
        });
        let cache = ResultCache::open(&state_dir)?;
        Ok(Server {
            listener,
            inner: Arc::new(ServerInner {
                cache,
                flight: SingleFlight::new(),
                admission: Admission::new(cfg.slots),
                metrics: ServeMetrics::default(),
                width: cfg.width,
                guard: cfg.guard,
                local_addr,
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Entries warmed from the cache directory at bind time.
    pub fn warmed_entries(&self) -> u64 {
        self.inner.cache.warmed()
    }

    /// Accepts connections until shutdown, one handler thread per
    /// connection. A handler that panics kills only its own connection
    /// (and resolves its single-flight followers with an error).
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let inner = self.inner.clone();
            thread::spawn(move || {
                let _ = handle_connection(&inner, stream);
            });
        }
        Ok(())
    }

    /// Runs the accept loop on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let inner = self.inner.clone();
        let join = thread::spawn(move || {
            let _ = self.run();
        });
        ServerHandle { addr, inner, join }
    }
}

fn json_error(status: u16, msg: &str) -> (u16, Vec<u8>) {
    let mut body = b"{\"error\":".to_vec();
    body.extend_from_slice(&serde_json::to_vec(msg).expect("string serialises"));
    body.push(b'}');
    (status, body)
}

fn handle_connection(inner: &Arc<ServerInner>, stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let request = match read_http_request(&mut reader) {
        Ok(r) => r,
        Err(e) => {
            ServeMetrics::bump(&inner.metrics.bad_requests);
            let (status, body) = json_error(400, &format!("malformed request: {e}"));
            return write_http_response(&mut writer, status, "application/json", &[], &body);
        }
    };
    ServeMetrics::bump(&inner.metrics.requests);
    match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => {
            write_http_response(&mut writer, 200, "application/json", &[], b"{\"ok\":true}")
        }
        ("GET", "/metrics") => {
            let body = serde_json::to_vec(&inner.metrics.snapshot(&inner.cache))
                .expect("snapshot serialises");
            write_http_response(&mut writer, 200, "application/json", &[], &body)
        }
        ("POST", "/shutdown") => {
            write_http_response(&mut writer, 200, "application/json", &[], b"{\"ok\":true}")?;
            inner.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(inner.local_addr);
            Ok(())
        }
        ("POST", "/sweep") => handle_run(inner, &request, &mut writer, false),
        ("POST", "/oracle") => handle_run(inner, &request, &mut writer, true),
        _ => {
            ServeMetrics::bump(&inner.metrics.bad_requests);
            let (status, body) = json_error(404, "no such endpoint");
            write_http_response(&mut writer, status, "application/json", &[], &body)
        }
    }
}

/// How the response body was obtained; sent as the `x-dgsched-cache`
/// header and on the streamed result line.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CacheDisposition {
    Miss,
    Hit,
    Wait,
    Collision,
}

impl CacheDisposition {
    fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Miss => "miss",
            CacheDisposition::Hit => "hit",
            CacheDisposition::Wait => "wait",
            CacheDisposition::Collision => "collision",
        }
    }
}

/// Writer shared between the response path and the sweep's progress
/// callback. Progress writes ignore errors: a client that hung up must
/// not abort the sweep — the result still lands in the cache.
struct SweepConnection<'a> {
    writer: Mutex<&'a mut BufWriter<TcpStream>>,
    streaming: bool,
    /// Set once the streaming head has been written — after this point
    /// errors can no longer be reported as an HTTP status.
    head_sent: AtomicBool,
}

impl SweepConnection<'_> {
    fn send_stream_head(&self, fingerprint: &str) {
        if !self.streaming || self.head_sent.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut w = self.writer.lock();
        let _ = write_http_stream_head(
            &mut **w,
            "application/x-ndjson",
            &[("x-dgsched-fingerprint", fingerprint)],
        );
    }

    fn send_progress(&self, done: usize, total: usize, scenario: &str) {
        // Plain connections get one framed response at the end; progress
        // lines are a streaming-only concept (and must follow the head).
        if !self.streaming || !self.head_sent.load(Ordering::SeqCst) {
            return;
        }
        let event = StreamEvent::Progress {
            done: done as u64,
            total: total as u64,
            scenario: scenario.to_string(),
        };
        let mut line = serde_json::to_vec(&event).expect("event serialises");
        line.push(b'\n');
        let mut w = self.writer.lock();
        let _ = w.write_all(&line);
        let _ = w.flush();
    }

    /// Sends the final payload: the whole plain response, or the
    /// terminal `result` JSONL line with the cached bytes embedded
    /// verbatim.
    fn send_result(
        &self,
        fingerprint: &str,
        disposition: CacheDisposition,
        entry: &CacheEntry,
    ) -> io::Result<()> {
        let mut w = self.writer.lock();
        if self.streaming {
            drop(w);
            self.send_stream_head(fingerprint);
            let mut w = self.writer.lock();
            let mut line = format!(
                "{{\"event\":\"result\",\"cache\":\"{}\",\"response\":",
                disposition.as_str()
            )
            .into_bytes();
            line.extend_from_slice(&entry.response);
            line.extend_from_slice(b"}\n");
            w.write_all(&line)?;
            w.flush()
        } else {
            write_http_response(
                &mut **w,
                200,
                "application/json",
                &[
                    ("x-dgsched-cache", disposition.as_str()),
                    ("x-dgsched-fingerprint", fingerprint),
                ],
                &entry.response,
            )
        }
    }

    fn send_error(&self, status: u16, msg: &str) -> io::Result<()> {
        let mut w = self.writer.lock();
        if self.streaming && self.head_sent.load(Ordering::SeqCst) {
            // Head already on the wire: report the error as a terminal
            // JSONL line instead of a status.
            let mut line = b"{\"event\":\"error\",\"error\":".to_vec();
            line.extend_from_slice(&serde_json::to_vec(msg).expect("string serialises"));
            line.extend_from_slice(b"}\n");
            w.write_all(&line)?;
            w.flush()
        } else {
            let (status, body) = json_error(status, msg);
            write_http_response(&mut **w, status, "application/json", &[], &body)
        }
    }
}

/// `POST /sweep`, and `POST /oracle` when `oracle`: an oracle request is
/// a sweep request plus the hindsight-oracle search knobs, answered
/// unstreamed and cached in the tagged oracle key space. Both run through
/// the sweep core journaled under their fingerprint, so a killed daemon
/// resumes either byte-identically, and both feed and read the
/// replication index.
fn handle_run(
    inner: &Arc<ServerInner>,
    request: &HttpRequest,
    writer: &mut BufWriter<TcpStream>,
    oracle: bool,
) -> io::Result<()> {
    let m = &inner.metrics;
    ServeMetrics::bump(if oracle {
        &m.oracle_requests
    } else {
        &m.sweep_requests
    });
    let kind = if oracle { "oracle" } else { "sweep" };
    let streaming = !oracle
        && (request.query_flag("stream")
            || header_value(&request.headers, "accept") == Some("application/x-ndjson"));
    let conn = SweepConnection {
        writer: Mutex::new(writer),
        streaming,
        head_sent: AtomicBool::new(false),
    };
    let parsed = match oracle {
        true => serde_json::from_slice::<OracleRequest>(&request.body)
            .map(|r| r.into_parts())
            .map(|(r, ocfg)| (r, Some(ocfg))),
        false => serde_json::from_slice::<SweepRequest>(&request.body).map(|r| (r, None)),
    };
    let (req, ocfg) = match parsed {
        Ok(r) => r,
        Err(e) => {
            ServeMetrics::bump(&m.bad_requests);
            return conn.send_error(400, &format!("invalid {kind} request: {e}"));
        }
    };
    let valid = validate_scenarios(&req.scenarios)
        .and_then(|()| ocfg.as_ref().map_or(Ok(()), validate_oracle));
    if let Err(msg) = valid {
        ServeMetrics::bump(&m.bad_requests);
        return conn.send_error(400, &msg);
    }
    let (scenarios, seed, rule) = (&req.scenarios, req.base_seed, &req.rule);
    let canonical = match &ocfg {
        Some(o) => canonical_oracle_bytes(scenarios, seed, rule, o),
        None => canonical_sweep_bytes(scenarios, seed, rule),
    };
    let canonical = match canonical {
        Ok(b) => b,
        Err(e) => return conn.send_error(500, &e.to_string()),
    };
    // The event clamp is part of what the daemon computes, so a daemon
    // restarted with a different clamp must not serve (or resume) the
    // old answers; the default, no clamp, keeps the plain sweep key. The
    // oracle runs unclamped.
    let guard = if oracle {
        RepGuard::default()
    } else {
        inner.guard
    };
    let space = match (oracle, guard.max_events) {
        (true, _) => KeySpace::Oracle,
        (false, None) => KeySpace::Sweep,
        (false, Some(max_events)) => KeySpace::ClampedSweep(max_events),
    };
    let fingerprint = fingerprint_canonical(space, &canonical);
    let job = Job {
        kind,
        tenant: req.tenant.as_deref().unwrap_or("anonymous"),
        fingerprint: &fingerprint,
        canonical: &canonical,
    };
    // Journaled, the run resumes any journal a crashed instance left and
    // reuses indexed replications.
    let run = |journal: Option<&Path>| -> io::Result<(Vec<u8>, JournalStats)> {
        let opts = SweepOptions {
            journal,
            resume: true,
            guard,
            index: journal.map(|_| inner.cache.rep_index()),
            oracle: ocfg.as_ref(),
        };
        let progress = |done, total, name: &str| conn.send_progress(done, total, name);
        let outcome = run_sweep(scenarios, seed, rule, opts, progress)?;
        let response = SweepResponse {
            fingerprint: fingerprint.clone(),
            results: outcome.results,
        };
        let bytes = serde_json::to_vec(&response).expect("response serialises");
        Ok((bytes, outcome.stats))
    };
    serve_job(inner, &conn, &job, run)
}

/// The request-specific half of a `/sweep` or `/oracle` request that the
/// shared path needs besides its runner.
struct Job<'a> {
    /// `"sweep"` or `"oracle"`: the prefix of a failure message.
    kind: &'static str,
    /// Fair-share admission bucket.
    tenant: &'a str,
    fingerprint: &'a str,
    canonical: &'a [u8],
}

/// The path every computing request takes once parsed and fingerprinted:
/// cache probe, single-flight, then the leader or the collision path.
/// `run` computes the response bytes, journaled at the given path
/// (leader) or unjournaled (collision).
fn serve_job<R>(
    inner: &Arc<ServerInner>,
    conn: &SweepConnection<'_>,
    job: &Job<'_>,
    run: R,
) -> io::Result<()>
where
    R: Fn(Option<&Path>) -> io::Result<(Vec<u8>, JournalStats)>,
{
    let fingerprint = job.fingerprint;
    match inner.cache.lookup(fingerprint, job.canonical) {
        CacheLookup::Hit(entry) => {
            ServeMetrics::bump(&inner.metrics.cache_hits);
            return conn.send_result(fingerprint, CacheDisposition::Hit, &entry);
        }
        CacheLookup::Collision => {
            ServeMetrics::bump(&inner.metrics.cache_collisions);
            return run_collision(inner, conn, job, run);
        }
        CacheLookup::Miss => {}
    }
    ServeMetrics::bump(&inner.metrics.cache_misses);

    match inner.flight.join(fingerprint) {
        FlightRole::Follower(Ok(entry)) => {
            ServeMetrics::bump(&inner.metrics.single_flight_waits);
            if entry.request == job.canonical {
                conn.send_result(fingerprint, CacheDisposition::Wait, &entry)
            } else {
                // A fingerprint collision raced the leader; compute this
                // request's own answer, uncached.
                ServeMetrics::bump(&inner.metrics.cache_collisions);
                run_collision(inner, conn, job, run)
            }
        }
        FlightRole::Follower(Err(msg)) => {
            ServeMetrics::bump(&inner.metrics.single_flight_waits);
            conn.send_error(500, &format!("{} failed: {msg}", job.kind))
        }
        FlightRole::Leader(token) => run_leader(inner, conn, job, token, run),
    }
}

/// Runs `run` under a fair-share slot at the configured pool width,
/// counting it as executed.
fn run_admitted<T>(
    inner: &ServerInner,
    conn: &SweepConnection<'_>,
    job: &Job<'_>,
    run: impl FnOnce() -> T,
) -> T {
    let permit = inner.admission.admit(job.tenant);
    conn.send_stream_head(job.fingerprint);
    ServeMetrics::bump(&inner.metrics.sweeps_executed);
    let out = match inner.width {
        Some(w) => rayon::with_num_threads(w, run),
        None => run(),
    };
    drop(permit);
    out
}

/// The leader path: admission, the journaled run (under the
/// fingerprint's journal), cache insert, publish.
fn run_leader<R>(
    inner: &Arc<ServerInner>,
    conn: &SweepConnection<'_>,
    job: &Job<'_>,
    token: LeaderToken,
    run: R,
) -> io::Result<()>
where
    R: Fn(Option<&Path>) -> io::Result<(Vec<u8>, JournalStats)>,
{
    let (fingerprint, canonical) = (job.fingerprint, job.canonical);
    // Double-check the cache under leadership: a previous leader may
    // have inserted between our probe and our join.
    if let CacheLookup::Hit(entry) = inner.cache.lookup(fingerprint, canonical) {
        ServeMetrics::bump(&inner.metrics.cache_hits);
        inner.flight.finish(token, Ok(entry.clone()));
        return conn.send_result(fingerprint, CacheDisposition::Hit, &entry);
    }
    let journal_path = inner.cache.journal_path(fingerprint);
    let computed = run_admitted(inner, conn, job, || {
        run(Some(&journal_path)).or_else(|e| {
            // A journal this build cannot resume — damaged before its
            // last line, or written under another schema — would refuse
            // every request for its fingerprint: move it aside, under a
            // name nothing globs, and compute afresh.
            if e.kind() != io::ErrorKind::InvalidData || !journal_path.exists() {
                return Err(e);
            }
            let mut aside = journal_path.clone().into_os_string();
            aside.push(".unreadable");
            std::fs::rename(&journal_path, aside)?;
            run(Some(&journal_path))
        })
    });
    match computed {
        Ok((response, stats)) => {
            let m = &inner.metrics;
            let replayed = stats.records_replayed + stats.restarts_replayed;
            m.journal_replayed.fetch_add(replayed, Ordering::Relaxed);
            m.journal_resumes
                .fetch_add(stats.resumes, Ordering::Relaxed);
            let reused = stats.records_reused;
            m.replications_reused.fetch_add(reused, Ordering::Relaxed);
            match inner.cache.insert(fingerprint, canonical, response) {
                Ok(entry) => {
                    inner.flight.finish(token, Ok(entry.clone()));
                    conn.send_result(fingerprint, CacheDisposition::Miss, &entry)
                }
                Err(e) => {
                    let msg = format!("result computed but cache write failed: {e}");
                    ServeMetrics::bump(&inner.metrics.sweeps_failed);
                    inner.flight.finish(token, Err(msg.clone()));
                    conn.send_error(500, &msg)
                }
            }
        }
        Err(e) => {
            ServeMetrics::bump(&inner.metrics.sweeps_failed);
            let msg = e.to_string();
            inner.flight.finish(token, Err(msg.clone()));
            conn.send_error(500, &format!("{} failed: {msg}", job.kind))
        }
    }
}

/// The fingerprint-collision path (2⁻¹²⁸ odds, or a corrupted store):
/// compute this request's answer under admission, as the leader would
/// (the daemon's clamp included) but without touching the stored entry,
/// the journal keyed by the colliding fingerprint or the index.
fn run_collision<R>(
    inner: &Arc<ServerInner>,
    conn: &SweepConnection<'_>,
    job: &Job<'_>,
    run: R,
) -> io::Result<()>
where
    R: Fn(Option<&Path>) -> io::Result<(Vec<u8>, JournalStats)>,
{
    match run_admitted(inner, conn, job, || run(None)) {
        Ok((response, _)) => {
            let entry = CacheEntry {
                request: Vec::new(),
                response,
            };
            conn.send_result(job.fingerprint, CacheDisposition::Collision, &entry)
        }
        Err(e) => {
            ServeMetrics::bump(&inner.metrics.sweeps_failed);
            conn.send_error(500, &format!("{} failed: {e}", job.kind))
        }
    }
}

/// A tiny, fast scenario pair for the `serve --check` self-test: small
/// bags, two replications, milliseconds of compute.
pub(super) fn check_request() -> SweepRequest {
    SweepRequest {
        scenarios: vec![
            Scenario::small("check: RR", PolicyKind::Rr),
            Scenario::small("check: FCFS-Share", PolicyKind::FcfsShare),
        ],
        base_seed: 2008,
        rule: fixed_rule(2),
        tenant: Some("self-check".to_string()),
    }
}

/// `dgsched serve --check`: bind (an ephemeral port unless `addr` pins
/// one), round-trip a demo sweep twice and verify the second response is
/// a byte-identical cache hit, then send the sweep plus one scenario and
/// verify it is a miss that reuses all 4 journaled replications and
/// answers the shared scenarios byte-identically. Returns a
/// human-readable summary, or a description of the first discrepancy.
pub fn self_check(addr: &str) -> Result<String, String> {
    let cfg = ServeConfig {
        addr: addr.to_string(),
        ..ServeConfig::default()
    };
    let server = Server::bind(&cfg).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let addr = server.local_addr().to_string();
    let handle = server.spawn();
    let outcome = (|| {
        let body = serde_json::to_vec(&check_request()).expect("request serialises");
        let first = http_request(&addr, "POST", "/sweep", &[], &body)
            .map_err(|e| format!("first request failed: {e}"))?;
        if first.status != 200 {
            return Err(format!(
                "first request: status {} body {}",
                first.status,
                String::from_utf8_lossy(&first.body)
            ));
        }
        if header_value(&first.headers, "x-dgsched-cache") != Some("miss") {
            return Err("first request was not a cache miss".to_string());
        }
        let second = http_request(&addr, "POST", "/sweep", &[], &body)
            .map_err(|e| format!("second request failed: {e}"))?;
        if header_value(&second.headers, "x-dgsched-cache") != Some("hit") {
            return Err("second request was not a cache hit".to_string());
        }
        if first.body != second.body {
            return Err("cache hit served different bytes than the computed response".to_string());
        }
        let mut overlap = check_request();
        let shared = overlap.scenarios.len();
        overlap
            .scenarios
            .push(Scenario::small("check: LongIdle", PolicyKind::LongIdle));
        let body = serde_json::to_vec(&overlap).expect("request serialises");
        let third = http_request(&addr, "POST", "/sweep", &[], &body)
            .map_err(|e| format!("overlap request failed: {e}"))?;
        if third.status != 200 || header_value(&third.headers, "x-dgsched-cache") != Some("miss") {
            return Err(format!(
                "overlap request: status {}, cache {:?}",
                third.status,
                header_value(&third.headers, "x-dgsched-cache")
            ));
        }
        let metrics = http_request(&addr, "GET", "/metrics", &[], b"")
            .map_err(|e| format!("metrics request failed: {e}"))?;
        let snap: MetricsSnapshot = serde_json::from_slice(&metrics.body)
            .map_err(|e| format!("metrics do not parse: {e}"))?;
        let reused = snap.counters.get("serve_replications_reused").copied();
        if reused != Some(4) {
            return Err(format!(
                "overlap request reused {reused:?} replications, expected 4"
            ));
        }
        let results = |bytes: &[u8]| -> Result<Vec<u8>, String> {
            let resp: SweepResponse = serde_json::from_slice(bytes)
                .map_err(|e| format!("response does not parse: {e}"))?;
            let shared = resp
                .results
                .get(..shared)
                .ok_or("response lacks scenarios")?;
            Ok(serde_json::to_vec(shared).expect("results serialise"))
        };
        if results(&first.body)? != results(&third.body)? {
            return Err("overlap request answered the shared scenarios differently".to_string());
        }
        if let Err(e) = http_request(&addr, "POST", "/shutdown", &[], b"") {
            return Err(format!("shutdown failed: {e}"));
        }
        Ok(format!(
            "round-trip ok at {addr}: miss then byte-identical hit ({} bytes), \
             then an overlapping miss reusing 4 replications",
            first.body.len()
        ))
    })();
    match &outcome {
        // /shutdown already stopped the accept loop on success; make
        // sure it stops on failure too, then join either way.
        Ok(_) => {
            let _ = handle.join.join();
        }
        Err(_) => handle.shutdown(),
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dgsched-serve-unit-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The response's `x-dgsched-cache` disposition.
    fn cache(resp: &crate::serve::HttpResponse) -> Option<&str> {
        header_value(&resp.headers, "x-dgsched-cache")
    }

    fn spawn_server(dir: &Path) -> ServerHandle {
        spawn_guarded(dir, RepGuard::default())
    }

    fn spawn_guarded(dir: &Path, guard: RepGuard) -> ServerHandle {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: Some(dir.to_path_buf()),
            guard,
            ..ServeConfig::default()
        })
        .expect("bind");
        server.spawn()
    }

    #[test]
    fn health_metrics_and_unknown_routes() {
        let dir = tmp_dir("routes");
        let handle = spawn_server(&dir);
        let addr = handle.addr().to_string();
        let health = http_request(&addr, "GET", "/healthz", &[], b"").unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(health.body, b"{\"ok\":true}");
        let metrics = http_request(&addr, "GET", "/metrics", &[], b"").unwrap();
        let snap: MetricsSnapshot = serde_json::from_slice(&metrics.body).unwrap();
        assert_eq!(snap.counters["serve_sweeps_executed"], 0);
        let missing = http_request(&addr, "GET", "/frobnicate", &[], b"").unwrap();
        assert_eq!(missing.status, 404);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_validates_before_running() {
        let dir = tmp_dir("validate");
        let handle = spawn_server(&dir);
        let addr = handle.addr().to_string();
        let empty = http_request(&addr, "POST", "/sweep", &[], br#"{"scenarios":[]}"#).unwrap();
        assert_eq!(empty.status, 400);
        let garbage = http_request(&addr, "POST", "/sweep", &[], b"not json").unwrap();
        assert_eq!(garbage.status, 400);
        // Duplicate names are a journal hazard: rejected up front.
        let mut req = check_request();
        req.scenarios[1].name = req.scenarios[0].name.clone();
        let body = serde_json::to_vec(&req).unwrap();
        let dup = http_request(&addr, "POST", "/sweep", &[], &body).unwrap();
        assert_eq!(dup.status, 400);
        assert!(String::from_utf8_lossy(&dup.body).contains("unique"));
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oracle_round_trip_caches_and_reports_regret() {
        let dir = tmp_dir("oracle");
        let handle = spawn_server(&dir);
        let addr = handle.addr().to_string();
        let sweep = check_request();
        let req = OracleRequest {
            scenarios: sweep.scenarios.clone(),
            base_seed: sweep.base_seed,
            rule: sweep.rule,
            oracle: crate::experiment::OracleConfig {
                restarts: 2,
                iters: 10,
                seed: 1,
                replications: 2,
            },
            tenant: Some("self-check".to_string()),
        };
        let body = serde_json::to_vec(&req).unwrap();
        let first = http_request(&addr, "POST", "/oracle", &[], &body).unwrap();
        assert_eq!(
            first.status,
            200,
            "{}",
            String::from_utf8_lossy(&first.body)
        );
        assert_eq!(cache(&first), Some("miss"));
        let resp: SweepResponse = serde_json::from_slice(&first.body).unwrap();
        assert_eq!(resp.results.len(), 2);
        for r in &resp.results {
            let reg = r.regret.as_ref().expect("regret section");
            assert!(reg.regret.mean >= 0.0, "{}", r.name);
        }
        let second = http_request(&addr, "POST", "/oracle", &[], &body).unwrap();
        assert_eq!(cache(&second), Some("hit"));
        assert_eq!(first.body, second.body, "cache hit must be byte-identical");
        // The oracle key space is tagged: the same scenarios submitted as
        // a plain sweep still miss (and compute their own entry).
        let sweep_body = serde_json::to_vec(&check_request()).unwrap();
        let sres = http_request(&addr, "POST", "/sweep", &[], &sweep_body).unwrap();
        assert_eq!(cache(&sres), Some("miss"));
        // Bad search knobs are rejected up front.
        let mut bad = req;
        bad.oracle.restarts = 0;
        let bad_body = serde_json::to_vec(&bad).unwrap();
        let rejected = http_request(&addr, "POST", "/oracle", &[], &bad_body).unwrap();
        assert_eq!(rejected.status, 400);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A request file torn by a power cut is not warmed: the next
    /// identical sweep is a miss that re-inserts the entry, and later
    /// ones hit, instead of reading as a collision forever.
    #[test]
    fn torn_request_file_is_a_miss_then_a_hit() {
        let dir = tmp_dir("torn-request");
        let body = serde_json::to_vec(&check_request()).unwrap();
        let post = |addr: &str| http_request(addr, "POST", "/sweep", &[], &body).unwrap();
        let handle = spawn_server(&dir);
        let first = post(&handle.addr().to_string());
        assert_eq!(cache(&first), Some("miss"));
        handle.shutdown();

        let request_file = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.to_string_lossy().ends_with(".request.json"))
            .expect("the insert wrote a request file");
        let full = std::fs::read(&request_file).unwrap();
        std::fs::write(&request_file, &full[..full.len() / 2]).unwrap();

        let handle = spawn_server(&dir);
        let addr = handle.addr().to_string();
        let again = post(&addr);
        assert_eq!(cache(&again), Some("miss"));
        assert_eq!(again.body, first.body);
        assert_eq!(std::fs::read(&request_file).unwrap(), full, "re-inserted");
        let third = post(&addr);
        assert_eq!(cache(&third), Some("hit"));
        assert_eq!(third.body, first.body);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A daemon restarted on the same directory with a different event
    /// clamp computes under its own clamp: neither the cached response
    /// nor the journaled replications of the unclamped sweep are served.
    #[test]
    fn event_clamp_is_part_of_the_served_key() {
        let dir = tmp_dir("clamp");
        let body = serde_json::to_vec(&check_request()).unwrap();
        let post = |addr: &str| http_request(addr, "POST", "/sweep", &[], &body).unwrap();
        let handle = spawn_server(&dir);
        let plain = post(&handle.addr().to_string());
        assert_eq!(cache(&plain), Some("miss"));
        handle.shutdown();

        let tiny = RepGuard {
            max_events: Some(10),
        };
        let handle = spawn_guarded(&dir, tiny);
        let addr = handle.addr().to_string();
        let clamped = post(&addr);
        assert_eq!(clamped.status, 200);
        assert_eq!(cache(&clamped), Some("miss"));
        let resp: SweepResponse = serde_json::from_slice(&clamped.body).unwrap();
        assert!(
            resp.results.iter().all(|r| r.saturated),
            "10 events cannot drain 6 bags"
        );
        let metrics = http_request(&addr, "GET", "/metrics", &[], b"").unwrap();
        let snap: MetricsSnapshot = serde_json::from_slice(&metrics.body).unwrap();
        assert_eq!(snap.counters["serve_replications_reused"], 0);
        assert_eq!(snap.counters["serve_journal_replayed"], 0);
        handle.shutdown();

        // Unclamped again: the original answer is still a hit.
        let handle = spawn_server(&dir);
        let again = post(&handle.addr().to_string());
        assert_eq!(cache(&again), Some("hit"));
        assert_eq!(again.body, plain.body);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A clamped daemon's collision path computes under its clamp, as
    /// its leader path does: a stored request file that no longer matches
    /// its fingerprint makes the request a collision, answered with the
    /// bytes the leader computed.
    #[test]
    fn collision_path_honours_the_event_clamp() {
        let dir = tmp_dir("clamped-collision");
        let tiny = RepGuard {
            max_events: Some(10),
        };
        let body = serde_json::to_vec(&check_request()).unwrap();
        let post = |addr: &str| http_request(addr, "POST", "/sweep", &[], &body).unwrap();
        let handle = spawn_guarded(&dir, tiny);
        let leader = post(&handle.addr().to_string());
        assert_eq!(cache(&leader), Some("miss"));
        handle.shutdown();
        let fingerprint = header_value(&leader.headers, "x-dgsched-fingerprint").unwrap();
        std::fs::write(dir.join(format!("{fingerprint}.request.json")), b"{}").unwrap();

        let handle = spawn_guarded(&dir, tiny);
        let collided = post(&handle.addr().to_string());
        assert_eq!(cache(&collided), Some("collision"));
        assert_eq!(
            collided.body, leader.body,
            "the clamp applies on both paths"
        );
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn self_check_passes_end_to_end() {
        let summary = self_check("127.0.0.1:0").expect("self-check");
        assert!(summary.contains("byte-identical hit"), "{summary}");
    }

    #[test]
    fn streamed_and_plain_responses_embed_the_same_result() {
        let dir = tmp_dir("stream");
        let handle = spawn_server(&dir);
        let addr = handle.addr().to_string();
        let body = serde_json::to_vec(&check_request()).unwrap();
        let plain = http_request(&addr, "POST", "/sweep", &[], &body).unwrap();
        assert_eq!(plain.status, 200);
        let streamed = http_request(&addr, "POST", "/sweep?stream=1", &[], &body).unwrap();
        // Cache hit in stream mode: a single terminal result line whose
        // embedded response is exactly the plain body.
        let text = String::from_utf8(streamed.body).unwrap();
        let line = text.lines().last().expect("result line");
        let value: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(value["event"], "result");
        assert_eq!(value["cache"], "hit");
        let embedded = serde_json::to_string(&value["response"]).unwrap();
        let plain_value: serde_json::Value = serde_json::from_slice(&plain.body).unwrap();
        assert_eq!(embedded, serde_json::to_string(&plain_value).unwrap());
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
