//! Crash-safe replication journal: resumable sweeps over an append-only
//! JSONL store, and the one sweep core every runner goes through.
//!
//! A long matrix sweep is hours of compute whose only durable artifact,
//! until now, was the final JSON — a crash at replication 4 999 of 5 000
//! lost everything. The journal makes each completed replication durable
//! the moment it finishes:
//!
//! * line 1 is a **header** that fingerprints the run — a 128-bit
//!   digest of the canonical JSON of `(scenarios, base_seed, rule)` (plus
//!   the oracle's knobs in an oracle run) and the code and journal-schema
//!   versions — so a journal can never be replayed against a different
//!   experiment;
//! * every following line is one completed [`RepSummary`]
//!   (`{"kind":"rep","scenario":…,"rep":…,"key":…,"summary":…}`),
//!   appended and `fsync`ed before the result can influence anything
//!   downstream. `key` is the replication key (see [`RepIndex`]);
//! * an oracle run also journals each completed search restart
//!   (`{"kind":"restart","env":…,"rep":…,"outcome":…}`), keyed by
//!   environment digest, oracle replication and restart.
//!
//! ## One core
//!
//! [`run_sweep`] is the sweep core: [`run_matrix`](super::run_matrix),
//! [`run_matrix_regret`](super::run_matrix_regret), the journaled runners,
//! `dgsched run` and the serve daemon all run through it, with or without
//! a journal, an index, a guard and the oracle. Every replication runs
//! inside the same isolation wrapper, journaled or not.
//!
//! ## Resume = replay through the same fold
//!
//! On `--resume`, the journaled records form, per scenario, a contiguous
//! prefix of replication summaries. [`run_matrix_journaled`] feeds that
//! prefix — and then freshly-computed replications — through the *same*
//! replication pool and batch plan the plain runner uses: batch sizes and
//! the stopping index are decided from the summaries alone, never from
//! whether a summary was replayed or recomputed. Each scenario's fresh
//! records are appended in replication order, a batch at a time, so its
//! records in the file always form a prefix of its replications, however
//! the pool interleaves scenarios. Because [`Welford`] state
//! round-trips bit-for-bit through the journal
//! (`crates/des/src/stats/welford.rs`), the final matrix JSON is
//! **byte-identical** whether the sweep ran straight through or was
//! killed and resumed any number of times, at any pool width
//! (`tests/journal_resume.rs` pins this). Journaled restarts are folded
//! in instead of recomputed; a restart is a pure function of its key, so
//! a resumed oracle run is byte-identical too.
//!
//! ## Failure state machine
//!
//! Each replication moves through:
//!
//! ```text
//! run ──ok──────────────────────────▶ clean / saturated summary ─▶ journal
//!  │                                       ▲
//!  └─panic─▶ retry (once) ──ok─────────────┘
//!                │
//!                └─panic─▶ failed-with-reason summary ──────────▶ journal
//! ```
//!
//! A failed replication is recorded, marks its scenario unusable (same
//! reporting path as saturation, plus `failed_replications` /
//! `failure_reasons` on the result), and the sweep **continues** with the
//! remaining scenarios — one poisoned cell no longer aborts the matrix.
//! The file itself is a [`RecordLog`]: a crash mid-append can tear only
//! the final line, which the log truncates away on open, and that
//! replication simply re-runs.
//!
//! ## Reuse across sweeps
//!
//! Replication `r` of a scenario is a function of `(scenario, base_seed,
//! r)` and the event clamp alone, never of the stopping rule, of the
//! other scenarios in the sweep or of the oracle. A [`RepIndex`] maps each
//! replication key (that triple minus `r`) to the journaled replications
//! of every sweep it has seen, oracle runs included, so a sweep that
//! overlaps an earlier one takes the longer of its own journal prefix and
//! the index's as its replay prefix and computes only the rest. The serve
//! daemon keeps one index per cache directory; `dgsched run --journal`
//! uses none.
//!
//! [`Welford`]: dgsched_des::stats::Welford

use super::record_log::{self, invalid, RecordLog};
use super::regret::{OracleConfig, OraclePass};
use super::runner::{
    run_pool, run_replication_capped, Job, Output, Record, RepSummary, ScenarioResult,
};
use super::scenario::Scenario;
use crate::sim::RunResult;
use dgsched_des::stats::StoppingRule;
use dgsched_oracle::RestartOutcome;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Journal schema version; folded into the fingerprint, so a journal
/// written by an incompatible schema refuses to resume. v2 widened the
/// fingerprint from 64 to 128 bits (see [`sweep_fingerprint`]).
pub(super) const JOURNAL_VERSION: u32 = 2;

/// Per-replication resource guard.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepGuard {
    /// Clamp on the per-replication event budget (never raises the
    /// scenario's own `event_limit`). Deterministic: the clamp is part of
    /// the effective configuration, and a tripped budget takes the
    /// ordinary saturation path.
    pub max_events: Option<u64>,
}

/// What the journal did during one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalStats {
    /// Replication records appended (and fsynced) this run.
    pub records_written: u64,
    /// Replications served from this sweep's own journal instead of
    /// recomputed.
    pub records_replayed: u64,
    /// Replications taken from the [`RepIndex`] (journaled by another
    /// sweep) instead of recomputed.
    pub records_reused: u64,
    /// 1 when an existing journal was resumed, else 0.
    pub resumes: u64,
    /// Torn tail records truncated away on open.
    pub torn_tails: u64,
    /// Replication attempts that panicked (includes retried attempts).
    pub replication_panics: u64,
    /// Panicked replications that were retried.
    pub replication_retries: u64,
    /// Oracle search restart records appended (and fsynced) this run.
    pub restarts_written: u64,
    /// Oracle search restarts served from the journal instead of
    /// recomputed.
    pub restarts_replayed: u64,
}

/// Result of a sweep: the scenario results (identical to what
/// [`run_matrix`](super::run_matrix) or
/// [`run_matrix_regret`](super::run_matrix_regret) would produce) plus
/// journal accounting.
#[derive(Debug, Clone)]
pub struct JournalOutcome {
    /// One result per scenario, in input order.
    pub results: Vec<ScenarioResult>,
    /// What the journal did.
    pub stats: JournalStats,
}

/// One line of the journal file.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub(super) enum JournalLine {
    /// First line: identifies the sweep this journal belongs to.
    Header {
        version: u32,
        /// Hex 128-bit digest of the canonical sweep configuration.
        fingerprint: String,
        code_version: String,
        base_seed: u64,
        scenarios: u64,
        rule: StoppingRule,
    },
    /// One completed replication.
    Rep(RepLine),
    /// One completed search restart of an oracle run: restart
    /// `outcome.restart` of oracle replication `rep` on the environment
    /// with digest `env`.
    Restart {
        env: String,
        rep: u64,
        outcome: RestartOutcome,
    },
}

/// The record of one completed replication.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(super) struct RepLine {
    scenario: String,
    rep: u64,
    /// Replication key ([`rep_key`]). Absent from journals written
    /// before keys existed: such records resume their own sweep but are
    /// never indexed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    key: Option<String>,
    summary: RepSummary,
}

impl JournalLine {
    /// `(version, fingerprint)` when this line is the header.
    pub(super) fn header(&self) -> Option<(u32, &str)> {
        match self {
            JournalLine::Header {
                version,
                fingerprint,
                ..
            } => Some((*version, fingerprint)),
            _ => None,
        }
    }
}

/// Two FNV-1a-style streams over `bytes`, advanced together: xor the
/// byte into each, multiply each by its own odd constant. Parameterised
/// over (offset basis, multiplier) per stream so the pair forms a wide
/// digest; one loop lets the two multiply chains overlap.
fn fnv1a64_pair(mut h: [u64; 2], bytes: &[u8]) -> [u64; 2] {
    const PRIMES: [u64; 2] = [0x100_0000_01b3, 0x9e37_79b9_7f4a_7c15];
    for &b in bytes {
        h[0] = (h[0] ^ b as u64).wrapping_mul(PRIMES[0]);
        h[1] = (h[1] ^ b as u64).wrapping_mul(PRIMES[1]);
    }
    h
}

/// 128-bit content digest as 32 hex chars: two independent FNV-1a-style
/// streams (the standard FNV-1a 64 parameters, and a second stream with
/// a different basis and multiplier) over the length-prefixed input. A
/// single 64-bit FNV is fine for "did the config change?" but too
/// collision-weak to *address* a result cache with — birthday
/// collisions at ~2^32 keys, and FNV has known short-input weaknesses.
/// The length prefix removes extension ambiguity; the second stream
/// pushes accidental collision odds to ~2^-128 per pair.
pub(crate) fn digest128_hex(bytes: &[u8]) -> String {
    let bases = [0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0145];
    let prefixed = fnv1a64_pair(bases, &(bytes.len() as u64).to_le_bytes());
    let [lo, hi] = fnv1a64_pair(prefixed, bytes);
    format!("{hi:016x}{lo:016x}")
}

/// The key space a fingerprint addresses. Each space tags the hashed
/// bytes differently, so sweep, oracle and replication fingerprints can
/// never collide in a shared cache.
#[derive(Clone, Copy)]
pub(crate) enum KeySpace {
    Sweep,
    /// A sweep served under a [`RepGuard::max_events`] clamp: the clamp
    /// changes what the sweep computes, so it joins the tag.
    ClampedSweep(u64),
    Oracle,
    /// One scenario's replications (see [`rep_key`]).
    Rep,
}

/// 128-bit hex fingerprint of already-built canonical bytes (from
/// [`canonical_sweep_bytes`] or [`canonical_oracle_bytes`]): the digest
/// of the key-space tag, the journal-schema and crate versions, then the
/// bytes. Callers that hold the canonical bytes hash them here instead
/// of serialising the request a second time.
pub(crate) fn fingerprint_canonical(space: KeySpace, canonical: &[u8]) -> String {
    let space = match space {
        KeySpace::Sweep => String::new(),
        KeySpace::ClampedSweep(max_events) => format!("max_events={max_events}|"),
        KeySpace::Oracle => "oracle|".to_string(),
        KeySpace::Rep => "rep|".to_string(),
    };
    let mut tagged =
        format!("{space}v{JOURNAL_VERSION}|{}|", env!("CARGO_PKG_VERSION")).into_bytes();
    tagged.extend_from_slice(canonical);
    digest128_hex(&tagged)
}

/// Canonical byte encoding of a sweep configuration: the `serde_json`
/// serialisation of the `(scenarios, base_seed, rule)` tuple. Both the
/// journal fingerprint and the sweep service's stored-request
/// verification are computed over exactly these bytes, so "same
/// fingerprint" and "same canonical bytes" can be cross-checked.
pub fn canonical_sweep_bytes(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
) -> io::Result<Vec<u8>> {
    serde_json::to_vec(&(scenarios, base_seed, rule))
        .map_err(|e| invalid(format!("sweep configuration does not serialise: {e}")))
}

/// 128-bit hex fingerprint of the sweep configuration. The fingerprint
/// is over the canonical serialised form plus the journal-schema and
/// crate versions, so anything that changes what the sweep would
/// compute — a scenario knob, the seed, the stopping rule, the schema —
/// changes the fingerprint. It is strong enough to key a
/// content-addressed cache, but cache consumers must still verify the
/// stored canonical bytes match before serving (see
/// [`serve`](crate::serve)).
pub fn sweep_fingerprint(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
) -> io::Result<String> {
    let cfg = canonical_sweep_bytes(scenarios, base_seed, rule)?;
    Ok(fingerprint_canonical(KeySpace::Sweep, &cfg))
}

/// Canonical byte encoding of an oracle computation: the `serde_json`
/// serialisation of the `(scenarios, base_seed, rule, oracle)` tuple —
/// the sweep configuration plus the search knobs, since both determine
/// the regret numbers.
pub fn canonical_oracle_bytes(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    ocfg: &super::regret::OracleConfig,
) -> io::Result<Vec<u8>> {
    serde_json::to_vec(&(scenarios, base_seed, (rule, ocfg)))
        .map_err(|e| invalid(format!("oracle configuration does not serialise: {e}")))
}

/// 128-bit hex fingerprint of an oracle computation, tagged distinctly
/// from sweep fingerprints so the two key spaces can never collide in a
/// shared cache. Keys the serve daemon's `/oracle` cache and an oracle
/// run's journal header.
pub fn oracle_fingerprint(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    ocfg: &super::regret::OracleConfig,
) -> io::Result<String> {
    let cfg = canonical_oracle_bytes(scenarios, base_seed, rule, ocfg)?;
    Ok(fingerprint_canonical(KeySpace::Oracle, &cfg))
}

/// Replication key of a scenario: the [`KeySpace::Rep`] fingerprint of
/// the serialised `(scenario, base_seed, max_events)`, everything a
/// replication's summary depends on besides its index. The name is part
/// of the scenario and so of the key: keys and sweep fingerprints come
/// from one encoding, and two sweeps share replications only when they
/// name the same scenario the same way.
fn rep_key(scenario: &Scenario, base_seed: u64, max_events: Option<u64>) -> io::Result<String> {
    let bytes = serde_json::to_vec(&(scenario, base_seed, max_events))
        .map_err(|e| invalid(format!("scenario does not serialise: {e}")))?;
    Ok(fingerprint_canonical(KeySpace::Rep, &bytes))
}

/// In-memory index of journaled replications, by replication key (the
/// fingerprint of a scenario, base seed and event clamp) and then
/// replication index, gathered from any number of journals. It feeds
/// [`run_sweep`] through [`SweepOptions::index`]: a sweep whose
/// scenario was journaled by an earlier sweep replays those replications
/// instead of recomputing them. Memory grows with the number of
/// replications indexed.
#[derive(Default)]
pub struct RepIndex {
    reps: Mutex<BTreeMap<String, BTreeMap<u64, RepSummary>>>,
}

impl RepIndex {
    /// Indexes every keyed replication record of the journal at `path`,
    /// a sweep's or an oracle run's. A file that is not a journal of this
    /// schema (a restart journal an older build wrote, say), or is
    /// damaged anywhere but its final line, is an error and indexes
    /// nothing.
    pub fn load_journal(&self, path: &Path) -> io::Result<()> {
        let (lines, _) = record_log::parse(&std::fs::read(path)?, None)?;
        let mut reps = self.reps.lock();
        for line in lines {
            if let JournalLine::Rep(r) = line {
                if let Some(key) = r.key {
                    reps.entry(key).or_default().insert(r.rep, r.summary);
                }
            }
        }
        Ok(())
    }

    /// Replications indexed, over all keys.
    pub fn len(&self) -> u64 {
        self.reps.lock().values().map(|r| r.len() as u64).sum()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.reps.lock().is_empty()
    }

    /// The contiguous run of replications `0, 1, …` indexed under `key`.
    fn prefix(&self, key: &str) -> Vec<RepSummary> {
        self.reps
            .lock()
            .get(key)
            .map(contiguous)
            .unwrap_or_default()
    }

    fn insert(&self, key: &str, rep: u64, summary: &RepSummary) {
        self.reps
            .lock()
            .entry(key.to_string())
            .or_default()
            .insert(rep, summary.clone());
    }
}

/// Per-sweep context the isolation wrapper reads: the configuration,
/// and the counts the parallel workers bump.
struct SweepCtx {
    base_seed: u64,
    stats: Mutex<JournalStats>,
}

/// The replications `0, 1, …` of `reps` up to the first gap. Only a
/// contiguous prefix is replayable: replication r is replayable iff
/// every replication before it is at hand too, because the sweep absorbs
/// in index order.
fn contiguous(reps: &BTreeMap<u64, RepSummary>) -> Vec<RepSummary> {
    reps.iter()
        .enumerate()
        .take_while(|(i, (rep, _))| **rep == *i as u64)
        .map(|(_, (_, summary))| summary.clone())
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

/// Runs one replication inside the isolation wrapper: panics are caught
/// on the worker (the pool never sees them), retried once, then recorded
/// as a failed-with-reason summary.
fn run_rep_isolated<R>(scenario: &Scenario, rep: u64, ctx: &SweepCtx, rep_runner: &R) -> RepSummary
where
    R: Fn(&Scenario, u64, u64) -> RunResult + Sync,
{
    let mut retried = false;
    loop {
        match catch_unwind(AssertUnwindSafe(|| {
            RepSummary::of(&rep_runner(scenario, ctx.base_seed, rep))
        })) {
            Ok(summary) => return summary,
            Err(payload) => {
                ctx.stats.lock().replication_panics += 1;
                let reason = panic_message(payload.as_ref()).to_string();
                if !retried {
                    retried = true;
                    ctx.stats.lock().replication_retries += 1;
                    continue;
                }
                return RepSummary::failure(format!(
                    "replication {rep} panicked twice; last payload: {reason}"
                ));
            }
        }
    }
}

/// What a scenario replays: replications `0..summaries.len()`, of which
/// the first `journaled` come from the sweep's own journal and the rest
/// from the [`RepIndex`]; and the key its fresh records carry.
struct Replay {
    key: Option<String>,
    summaries: Vec<RepSummary>,
    journaled: usize,
}

/// What a sweep runs with besides its scenarios, seed and rule. The
/// default is a plain [`run_matrix`](super::run_matrix): no journal, no
/// index, no guard, no oracle.
#[derive(Clone, Copy, Default)]
pub struct SweepOptions<'a> {
    /// Journal file: every fresh replication, and every fresh search
    /// restart of an oracle run, is appended and fsynced before it is
    /// used. Scenario names must then be unique (the journal keys records
    /// by name).
    pub journal: Option<&'a Path>,
    /// Resume the journal instead of overwriting it, as
    /// [`run_matrix_journaled`] does.
    pub resume: bool,
    /// Per-replication resource guard.
    pub guard: RepGuard,
    /// Replication index: each scenario replays the index's prefix where
    /// it is longer than the journal's, and fresh replications join the
    /// index once durable. Replications taken from it are counted in
    /// [`JournalStats::records_reused`] and not copied into this journal:
    /// the journal they came from stays where the index read it.
    pub index: Option<&'a RepIndex>,
    /// Score every non-saturated result against the hindsight oracle, as
    /// [`run_matrix_regret`](super::run_matrix_regret) does. The journal
    /// header then carries the [`oracle_fingerprint`].
    pub oracle: Option<&'a OracleConfig>,
}

/// Runs a sweep with `opts`, reporting scenario completions through
/// `progress` (called with `(done, total, name)`, `done` strictly
/// increasing, reporting never blocking the sweep — the contract of
/// [`run_matrix_with_progress`](super::run_matrix_with_progress)).
///
/// Whatever the options, the results are byte-identical to a
/// straight-through [`run_matrix`](super::run_matrix) (or
/// [`run_matrix_regret`](super::run_matrix_regret) under the oracle) of
/// the same sweep; only I/O errors of the journal fail it.
pub fn run_sweep<F>(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    opts: SweepOptions<'_>,
    progress: F,
) -> io::Result<JournalOutcome>
where
    F: Fn(usize, usize, &str) + Send + Sync,
{
    let max_events = opts.guard.max_events;
    run_core(
        scenarios,
        base_seed,
        rule,
        opts,
        &move |s: &Scenario, seed: u64, rep: u64| run_replication_capped(s, seed, rep, max_events),
        &progress,
    )
}

/// [`run_matrix`](super::run_matrix) with a crash-safe journal at `path`.
///
/// With `resume = false` any existing journal at `path` is overwritten.
/// With `resume = true` an existing journal is verified against this
/// sweep's fingerprint (mismatch is an error), its torn tail — if a crash
/// left one — is truncated away, and every journaled replication is
/// replayed instead of recomputed; the remainder runs and is appended.
/// The results are byte-identical to a straight-through
/// [`run_matrix`](super::run_matrix) of the same sweep.
pub fn run_matrix_journaled(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    path: &Path,
    resume: bool,
    guard: RepGuard,
) -> io::Result<JournalOutcome> {
    let opts = SweepOptions {
        journal: Some(path),
        resume,
        guard,
        ..SweepOptions::default()
    };
    run_sweep(scenarios, base_seed, rule, opts, |_, _, _| {})
}

/// [`run_matrix_journaled`] with the replication runner injected — the
/// seam the fault-injection tests use. Not part of the stable API.
#[doc(hidden)]
pub fn run_matrix_journaled_with<R>(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    path: &Path,
    resume: bool,
    guard: RepGuard,
    rep_runner: R,
) -> io::Result<JournalOutcome>
where
    R: Fn(&Scenario, u64, u64) -> RunResult + Sync,
{
    let opts = SweepOptions {
        journal: Some(path),
        resume,
        guard,
        ..SweepOptions::default()
    };
    run_core(scenarios, base_seed, rule, opts, &rep_runner, &|_, _, _| {})
}

/// Restart records read back: `(environment digest, oracle replication,
/// outcome)`.
pub(super) type Restarts = Vec<(String, u64, RestartOutcome)>;

/// The sweep core behind every runner: the scenarios' batch plans, and
/// the oracle's pairs under `opts.oracle`, on one replication pool.
fn run_core<R>(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    opts: SweepOptions<'_>,
    rep_runner: &R,
    progress: &(dyn Fn(usize, usize, &str) + Send + Sync),
) -> io::Result<JournalOutcome>
where
    R: Fn(&Scenario, u64, u64) -> RunResult + Sync,
{
    let SweepOptions {
        journal,
        resume,
        guard,
        index,
        oracle,
    } = opts;
    let mut log = None;
    let mut journaled: BTreeMap<String, BTreeMap<u64, RepSummary>> = BTreeMap::new();
    let mut restarts: Restarts = Vec::new();
    if let Some(path) = journal {
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "scenario names must be unique: the journal keys records by name",
            ));
        }
        let header = JournalLine::Header {
            version: JOURNAL_VERSION,
            fingerprint: match oracle {
                Some(ocfg) => oracle_fingerprint(scenarios, base_seed, rule, ocfg)?,
                None => sweep_fingerprint(scenarios, base_seed, rule)?,
            },
            code_version: env!("CARGO_PKG_VERSION").to_string(),
            base_seed,
            scenarios: scenarios.len() as u64,
            rule: *rule,
        };
        let (opened, records) = RecordLog::open(path, &header, resume)?;
        for line in records {
            match line {
                JournalLine::Rep(r) => {
                    let reps = journaled.entry(r.scenario).or_default();
                    reps.insert(r.rep, r.summary);
                }
                JournalLine::Restart { env, rep, outcome } => restarts.push((env, rep, outcome)),
                JournalLine::Header { .. } => {}
            }
        }
        log = Some(opened);
    }
    // Keys exist only for a journal or an index to hold.
    let keyed = log.is_some() || index.is_some();
    let mut replays = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        let key = match keyed {
            true => Some(rep_key(scenario, base_seed, guard.max_events)?),
            false => None,
        };
        let own = journaled
            .remove(&scenario.name)
            .map(|reps| contiguous(&reps))
            .unwrap_or_default();
        let indexed = match (index, &key) {
            (Some(index), Some(key)) => index.prefix(key),
            _ => Vec::new(),
        };
        let journaled = own.len();
        let summaries = if indexed.len() > journaled {
            indexed
        } else {
            own
        };
        replays.push(Replay {
            key,
            summaries,
            journaled,
        });
    }
    let oracle = oracle.map(|ocfg| OraclePass::new(scenarios, base_seed, ocfg, restarts));
    let ctx = SweepCtx {
        base_seed,
        stats: Mutex::default(),
    };
    let replicate = |job: Job| {
        let Job::Rep(i, rep) = job else {
            let oracle = oracle.as_ref().expect("oracle jobs run with the oracle");
            return oracle.run(job);
        };
        Output::Rep(match replays[i].summaries.get(rep as usize) {
            Some(summary) => {
                let mut stats = ctx.stats.lock();
                if (rep as usize) < replays[i].journaled {
                    stats.records_replayed += 1;
                } else {
                    stats.records_reused += 1;
                }
                summary.clone()
            }
            None => run_rep_isolated(&scenarios[i], rep, &ctx, rep_runner),
        })
    };
    // Fresh records are appended, and fresh replications indexed once
    // durable. Replayed summaries and restarts already have a durable
    // record, in this journal or in the one the index read them from.
    let record = |record: Record<'_>| {
        let Some(log) = &log else { return };
        match record {
            Record::Rep(i, rep, summary) if rep as usize >= replays[i].summaries.len() => {
                let key = replays[i].key.as_deref();
                let line = JournalLine::Rep(RepLine {
                    scenario: scenarios[i].name.clone(),
                    rep,
                    key: key.map(str::to_string),
                    summary: summary.clone(),
                });
                if let (true, Some(index), Some(key)) = (log.append(&line), index, key) {
                    index.insert(key, rep, summary);
                }
            }
            Record::Rep(..) => {}
            Record::Restart(p, outcome) => {
                let fresh = oracle.as_ref().and_then(|o| o.fresh(p, outcome));
                if fresh.is_some_and(|line| log.append(&line)) {
                    ctx.stats.lock().restarts_written += 1;
                }
            }
        }
    };
    let (mut results, oracle_reps) = run_pool(
        scenarios,
        rule,
        oracle.as_ref(),
        progress,
        replicate,
        record,
    );
    let mut stats = ctx.stats.into_inner();
    if let Some(oracle) = &oracle {
        oracle.attach(&mut results, &oracle_reps, rule.level);
        stats.restarts_replayed = oracle.replayed();
    }
    if let Some(log) = &log {
        stats.records_written = log.finish()? - stats.restarts_written;
        stats.resumes = log.resumes;
        stats.torn_tails = log.torn_tails;
    }
    Ok(JournalOutcome { results, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::runner::run_matrix;
    use crate::experiment::scenario::fixed_rule;
    use crate::policy::PolicyKind;

    fn rule() -> StoppingRule {
        StoppingRule {
            min_replications: 3,
            max_replications: 5,
            ..Default::default()
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dgsched-journal-unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn journaled_matches_plain_run_matrix() {
        let scenarios = vec![Scenario::small("a", PolicyKind::Rr)];
        let path = tmp("plain");
        let out = run_matrix_journaled(&scenarios, 11, &rule(), &path, false, RepGuard::default())
            .unwrap();
        let plain = run_matrix(&scenarios, 11, &rule());
        assert_eq!(
            serde_json::to_string(&out.results).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "journaling must not perturb results"
        );
        assert_eq!(out.stats.records_written, plain[0].replications);
        assert_eq!(out.stats.resumes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_replays_instead_of_recomputing() {
        let scenarios = vec![Scenario::small("a", PolicyKind::Rr)];
        let path = tmp("resume");
        let first =
            run_matrix_journaled(&scenarios, 11, &rule(), &path, false, RepGuard::default())
                .unwrap();
        let second =
            run_matrix_journaled(&scenarios, 11, &rule(), &path, true, RepGuard::default())
                .unwrap();
        assert_eq!(
            serde_json::to_string(&first.results).unwrap(),
            serde_json::to_string(&second.results).unwrap()
        );
        assert_eq!(second.stats.resumes, 1);
        assert_eq!(second.stats.records_written, 0, "everything replayed");
        assert_eq!(second.stats.records_replayed, first.stats.records_written);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_refuses_to_resume() {
        let scenarios = vec![Scenario::small("a", PolicyKind::Rr)];
        let path = tmp("fingerprint");
        run_matrix_journaled(&scenarios, 11, &rule(), &path, false, RepGuard::default()).unwrap();
        let err = run_matrix_journaled(&scenarios, 12, &rule(), &path, true, RepGuard::default())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fingerprint"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_scenario_names_are_rejected() {
        let scenarios = vec![
            Scenario::small("a", PolicyKind::Rr),
            Scenario::small("a", PolicyKind::Rr),
        ];
        let path = tmp("dup");
        let err = run_matrix_journaled(&scenarios, 11, &rule(), &path, false, RepGuard::default())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn event_budget_guard_trips_saturation() {
        let scenarios = vec![Scenario::small("a", PolicyKind::Rr)];
        let path = tmp("guard");
        let guard = RepGuard {
            max_events: Some(10),
        };
        let out = run_matrix_journaled(&scenarios, 11, &rule(), &path, false, guard).unwrap();
        assert!(out.results[0].saturated, "10 events cannot drain 6 bags");
        assert!(out.results[0].saturated_replications > 0);
        assert_eq!(out.results[0].failed_replications, 0);
        std::fs::remove_file(&path).ok();
    }

    fn json(results: &[ScenarioResult]) -> String {
        serde_json::to_string(results).unwrap()
    }

    /// Runs an index-fed sweep into a fresh journal, as the daemon does,
    /// checks it against `run_matrix` byte for byte, and returns its
    /// journal stats.
    fn indexed(
        name: &str,
        scenarios: &[Scenario],
        seed: u64,
        rule: &StoppingRule,
        guard: RepGuard,
        index: &RepIndex,
    ) -> JournalStats {
        let path = tmp(name);
        std::fs::remove_file(&path).ok();
        let opts = SweepOptions {
            journal: Some(&path),
            resume: true,
            guard,
            index: Some(index),
            oracle: None,
        };
        let out = run_sweep(scenarios, seed, rule, opts, |_, _, _| {}).unwrap();
        std::fs::remove_file(&path).ok();
        // The guards these tests use never trip: results stay plain.
        assert_eq!(json(&out.results), json(&run_matrix(scenarios, seed, rule)));
        out.stats
    }

    #[test]
    fn index_fed_sweeps_compute_only_missing_replications() {
        for width in [1usize, 4] {
            rayon::with_num_threads(width, || {
                let index = RepIndex::default();
                let base = vec![
                    Scenario::small("a", PolicyKind::Rr),
                    Scenario::small("b", PolicyKind::Sbf),
                ];
                let tag = |what: &str| format!("index-{what}-w{width}");
                let stats = indexed(
                    &tag("base"),
                    &base,
                    11,
                    &fixed_rule(3),
                    RepGuard::default(),
                    &index,
                );
                assert_eq!((stats.records_written, stats.records_reused), (6, 0));
                assert_eq!(index.len(), 6);
                // One scenario added: only its replications run.
                let mut overlap = base.clone();
                overlap.push(Scenario::small("c", PolicyKind::LongIdle));
                let stats = indexed(
                    &tag("overlap"),
                    &overlap,
                    11,
                    &fixed_rule(3),
                    RepGuard::default(),
                    &index,
                );
                assert_eq!((stats.records_written, stats.records_reused), (3, 6));
                assert_eq!(stats.records_replayed, 0);
                // The cap raised from 3 to 5: only replications 3 and 4 run.
                let stats = indexed(
                    &tag("cap"),
                    &base,
                    11,
                    &fixed_rule(5),
                    RepGuard::default(),
                    &index,
                );
                assert_eq!((stats.records_written, stats.records_reused), (4, 6));
                assert_eq!(index.len(), 13);
            });
        }
    }

    #[test]
    fn index_reuse_needs_the_same_seed_clamp_and_name() {
        for width in [1usize, 4] {
            rayon::with_num_threads(width, || {
                let index = RepIndex::default();
                let base = vec![Scenario::small("a", PolicyKind::Rr)];
                let tag = |what: &str| format!("keys-{what}-w{width}");
                let clean = RepGuard::default();
                indexed(&tag("base"), &base, 11, &fixed_rule(3), clean, &index);
                let stats = indexed(&tag("seed"), &base, 12, &fixed_rule(3), clean, &index);
                assert_eq!((stats.records_written, stats.records_reused), (3, 0));
                let clamp = RepGuard {
                    max_events: Some(u64::MAX),
                };
                let stats = indexed(&tag("clamp"), &base, 11, &fixed_rule(3), clamp, &index);
                assert_eq!((stats.records_written, stats.records_reused), (3, 0));
                let renamed = vec![Scenario::small("a2", PolicyKind::Rr)];
                let stats = indexed(&tag("name"), &renamed, 11, &fixed_rule(3), clean, &index);
                assert_eq!((stats.records_written, stats.records_reused), (3, 0));
                assert_eq!(index.len(), 12);
            });
        }
    }

    #[test]
    fn torn_header_means_fresh_start_is_required() {
        let path = tmp("torn-header");
        std::fs::write(&path, "{\"kind\":\"head").unwrap();
        let scenarios = vec![Scenario::small("a", PolicyKind::Rr)];
        // The torn line is the only line, so it is dropped and the file
        // treated as empty — but an empty resume cannot verify a header,
        // so the journal is rewritten from scratch.
        let out = run_matrix_journaled(&scenarios, 11, &rule(), &path, true, RepGuard::default())
            .unwrap();
        assert_eq!(out.stats.records_replayed, 0);
        assert!(out.stats.records_written > 0);
        std::fs::remove_file(&path).ok();
    }
}
