//! Per-policy regret against the hindsight oracle.
//!
//! The paper's knowledge-free policies are only ever compared to each
//! other; this module measures how far each one is from *optimal on the
//! realized trace*. For every replication it captures the environment
//! timeline (machine up/down transitions, correlated outages) of the
//! finished run, replays every candidate schedule against that exact
//! timeline through [`TraceEnv`], and reports
//!
//! ```text
//! regret = (policy turnaround − oracle turnaround) / oracle turnaround
//! ```
//!
//! with confidence intervals across replications.
//!
//! ## The oracle
//!
//! The oracle turnaround of a replication is the minimum over two
//! searches of the same replayed environment:
//!
//! * **the policy incumbents** — all seven knowledge-free policies
//!   replayed against the captured timeline (the environment streams are
//!   policy-independent, so these replays equal each policy's live run at
//!   the same seeds). Taking their minimum makes `oracle ≤ best observed`
//!   — and therefore `regret ≥ 0` — true *by construction*;
//! * **a penalty-function local search** (`dgsched-oracle`) over fixed
//!   bag-priority schedules: each candidate permutation is evaluated by
//!   replaying a [`FixedPriority`] policy against the same timeline, with
//!   infeasible candidates (saturated or incomplete replays) graded by a
//!   large penalty plus distance-to-feasible terms so the search can
//!   descend through them. A candidate's replay resumes from a snapshot
//!   of its neighbour's run taken before the two can first differ (see
//!   [`ResumedReplay`]). Restarts are independent; results fold
//!   deterministically, so the oracle is byte-identical at any pool
//!   width.
//!
//! Scenarios sharing `(grid, workload, sim)` share their environment —
//! the oracle is computed once per environment group and attached to
//! every policy's [`ScenarioResult`] in the group.
//!
//! ## On the replication pool
//!
//! A regret sweep is one run of the sweep core
//! ([`run_sweep`](super::run_sweep) with an oracle): its scenarios'
//! replications run, journal and resume exactly as a plain sweep's do.
//! Besides them, each (environment group, oracle replication) pair is a
//! pool cell with two steps. The first is the trace capture. The second
//! is the seven policy replays and every search restart, all sharing the
//! captured timeline, so the workers share one pair's search job by job
//! instead of one worker holding a whole pair. The worker that completes
//! the second step journals the pair's fresh restarts in restart order,
//! then folds.
//!
//! ## Journaled restarts
//!
//! A journaled oracle run makes each search restart durable before its
//! replication folds, as a `restart` record of the sweep journal keyed by
//! `(environment digest, replication, restart)`. Because a restart is a
//! pure function of its key and [`fold`] is order-insensitive, a resumed
//! search is byte-identical to an uninterrupted one.

use super::journal::{digest128_hex, run_sweep, JournalLine, Restarts, SweepOptions};
use super::runner::{
    replication_inputs, reportable_ci, run_replication_traced, Job, Output, ScenarioResult,
};
use super::scenario::Scenario;
use crate::policy::{BagSelection, PolicyKind, View};
use crate::sim::{
    advance_replayed, resume_replayed, simulate_replayed, simulate_replayed_snapshots,
    ReplaySnapshot, RunResult, SimConfig, SnapshotRun, TraceEnv,
};
use dgsched_des::stats::{ConfidenceInterval, StoppingRule, Welford};
use dgsched_des::time::SimTime;
use dgsched_grid::Grid;
use dgsched_oracle::{fold, run_restart, Objective, RestartOutcome, SearchConfig, SplitMix64};
use dgsched_workload::{BotId, Workload};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Knobs of the oracle computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OracleConfig {
    /// Independent search restarts per replication.
    #[serde(default = "default_restarts")]
    pub restarts: u32,
    /// Move proposals per restart (each proposal is one evaluation: a
    /// trace replay, resumed from a neighbour's snapshot where exact).
    #[serde(default = "default_iters")]
    pub iters: u32,
    /// Seed of the search streams (independent of the simulation seeds).
    #[serde(default)]
    pub seed: u64,
    /// Replications the oracle evaluates (a fixed count, not the sweep's
    /// stopping rule: every replay of replication `r` reuses the timeline
    /// captured at `r`, so the regret sample is paired by construction).
    #[serde(default = "default_replications")]
    pub replications: u64,
}

fn default_restarts() -> u32 {
    8
}

fn default_iters() -> u32 {
    120
}

fn default_replications() -> u64 {
    3
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            restarts: default_restarts(),
            iters: default_iters(),
            seed: 0,
            replications: default_replications(),
        }
    }
}

/// The `regret` section of a [`ScenarioResult`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegretSection {
    /// Oracle turnaround across replications.
    pub oracle_turnaround: ConfidenceInterval,
    /// Relative regret `(policy − oracle) / oracle` across the
    /// replications where this policy completed its run.
    pub regret: ConfidenceInterval,
    /// Replications the oracle evaluated.
    pub replications: u64,
    /// Replications that contributed a regret observation (the policy's
    /// replay completed; saturated replications carry no turnaround).
    pub measured_replications: u64,
    /// Cost evaluations of each replication's winning restart (the one
    /// [`fold`] picked), summed over replications. Restarts that lost the
    /// fold are not counted, so the search evaluated about `restarts`
    /// times this many orders in all.
    pub search_evaluations: u64,
    /// Search restarts per replication.
    pub restarts: u32,
    /// Move proposals per restart.
    pub iters: u32,
    /// Search seed.
    pub seed: u64,
}

/// Serve-order priorities frozen at construction: the bag at rank 0 is
/// always preferred when dispatchable, then rank 1, … — the oracle's
/// candidate schedule shape. Knowledge-free policies react to the run;
/// the hindsight search instead *picks the reaction sequence up front*,
/// which is exactly what makes it an offline optimizer.
struct FixedPriority {
    /// `rank[bag] = position` — lower serves first.
    rank: Vec<u32>,
}

impl FixedPriority {
    /// From a search permutation: `perm[pos] = bag` served at priority
    /// `pos`.
    fn from_perm(perm: &[u32]) -> Self {
        let mut rank = vec![u32::MAX; perm.len()];
        for (pos, &bag) in perm.iter().enumerate() {
            rank[bag as usize] = pos as u32;
        }
        FixedPriority { rank }
    }
}

impl BagSelection for FixedPriority {
    fn name(&self) -> &'static str {
        "Oracle-Fixed"
    }

    fn select(&mut self, view: &View<'_>) -> Option<BotId> {
        view.active()
            .iter()
            .copied()
            .filter(|&b| view.dispatchable(b))
            .min_by_key(|b| self.rank.get(b.index()).copied().unwrap_or(u32::MAX))
    }
}

/// Penalty base dwarfing any realizable turnaround, so every infeasible
/// candidate costs more than every feasible one.
const PENALTY_BASE: f64 = 1e12;

/// The search's objective: mean turnaround when the replay drains the
/// workload, otherwise a penalty graded by how many bags were left
/// incomplete (primary) and how late the run ended (secondary), so local
/// search can walk through infeasible space toward feasibility.
fn penalized_cost(r: &RunResult) -> f64 {
    let incomplete = r.total.saturating_sub(r.completed);
    if r.saturated || incomplete > 0 {
        PENALTY_BASE * (1.0 + incomplete as f64) + r.end_time
    } else {
        r.mean_turnaround()
    }
}

/// Snapshots kept per evaluated order: the state of its run before the
/// first event at or after each of this many evenly spaced bag arrivals.
const SNAPSHOTS: usize = 16;

/// The search objective on one replication's timeline: the penalized cost
/// of replaying a [`FixedPriority`] order, resumed from a snapshot of an
/// already-evaluated neighbour instead of replayed from t = 0.
///
/// **Why resuming is exact.** `FixedPriority` dispatches the
/// lowest-ranked active dispatchable bag, so two orders make the same
/// choice whenever no two active bags have their relative rank flipped
/// between them. Let `T` be the earliest instant at which the base
/// order's run has both bags of a flipped pair active (their
/// `[arrival, completion]` intervals overlap; `T` is the later arrival).
/// Before `T` every selection agrees, so both runs process the same
/// events in the same order with the same ids, and any snapshot the base
/// run took before its first event at or after an instant `≤ T` is a
/// snapshot of the candidate's run too. When no flipped pair is ever
/// co-active, the runs are identical outright.
struct ResumedReplay<'a> {
    grid: &'a Grid,
    workload: &'a Workload,
    cfg: &'a SimConfig,
    env: &'a TraceEnv,
    /// Snapshot instants: ascending, distinct bag arrivals.
    instants: Vec<SimTime>,
}

/// What replaying one order leaves for its neighbours: its result, each
/// bag's completion instant, and the snapshots of its run taken so far.
/// A full replay snapshots at every instant. A resumed one inherits its
/// base's snapshots up to where it resumed, and takes later ones only
/// when a neighbour first needs them, by continuing its run from the
/// latest one: most candidates are rejected and never need any.
struct Replayed<'a> {
    perm: Vec<u32>,
    result: RunResult,
    completions: Vec<f64>,
    snapshots: RefCell<Vec<Rc<ReplaySnapshot<'a>>>>,
    /// The run ended before the next snapshot instant.
    ended: Cell<bool>,
    /// The run was resumed from a neighbour's snapshot.
    resumed: bool,
}

impl<'a> ResumedReplay<'a> {
    fn new(grid: &'a Grid, workload: &'a Workload, cfg: &'a SimConfig, env: &'a TraceEnv) -> Self {
        let n = workload.len();
        let k = SNAPSHOTS.min(n);
        let mut instants: Vec<SimTime> = (0..k).map(|i| workload.bags[i * n / k].arrival).collect();
        instants.dedup();
        ResumedReplay {
            grid,
            workload,
            cfg,
            env,
            instants,
        }
    }

    fn policy(perm: &[u32]) -> Box<dyn BagSelection> {
        Box::new(FixedPriority::from_perm(perm))
    }

    /// Replays `perm` from t = 0.
    fn full(&self, perm: &[u32]) -> Rc<Replayed<'a>> {
        let run = simulate_replayed_snapshots(
            self.grid,
            self.workload,
            Self::policy(perm),
            self.cfg,
            self.env,
            &self.instants,
        );
        let ended = run.snapshots.len() < self.instants.len();
        Replayed::new(perm, run, Vec::new(), ended, false)
    }

    /// Replays `perm`, resuming from the latest snapshot of `base`'s run
    /// taken no later than the first instant the two runs can differ.
    fn near(&self, perm: &[u32], base: &[u32], memo: &Rc<Replayed<'a>>) -> Rc<Replayed<'a>> {
        let diverge = self.divergence(perm, base, &memo.completions);
        if diverge == f64::INFINITY {
            return Rc::clone(memo);
        }
        let want = self.instants.partition_point(|t| t.as_secs() <= diverge);
        let Some(k) = self.snapshots_upto(memo, want).checked_sub(1) else {
            return self.full(perm);
        };
        let inherited = memo.snapshots.borrow()[..=k].to_vec();
        let run = resume_replayed(&inherited[k], Self::policy(perm));
        Replayed::new(perm, run, inherited, false, true)
    }

    /// Makes sure `memo` holds its first `want` snapshots, continuing its
    /// run from its latest one as needed; returns how many it holds (fewer
    /// when its run ended first).
    fn snapshots_upto(&self, memo: &Replayed<'a>, want: usize) -> usize {
        let mut snapshots = memo.snapshots.borrow_mut();
        let have = snapshots.len();
        if have < want && !memo.ended.get() {
            let Some(last) = snapshots.last() else {
                return 0;
            };
            let more = advance_replayed(last, Self::policy(&memo.perm), &self.instants[have..want]);
            memo.ended.set(more.len() < want - have);
            snapshots.extend(more.into_iter().map(Rc::new));
        }
        snapshots.len().min(want)
    }

    /// The earliest instant at which `base`'s run has both bags of a pair
    /// whose relative order `perm` flips active; `∞` when there is none.
    fn divergence(&self, perm: &[u32], base: &[u32], completions: &[f64]) -> f64 {
        // Positions outside the first..last differing position hold the
        // same bag in both orders, so only pairs inside can flip.
        let Some(lo) = perm.iter().zip(base).position(|(a, b)| a != b) else {
            return f64::INFINITY;
        };
        let hi = perm
            .iter()
            .zip(base)
            .rposition(|(a, b)| a != b)
            .expect("lo exists");
        let rank = FixedPriority::from_perm(perm).rank;
        let arrival = |b: u32| self.workload.bags[b as usize].arrival.as_secs();
        let window = &base[lo..=hi];
        let mut first = f64::INFINITY;
        for (i, &a) in window.iter().enumerate() {
            for &b in &window[i + 1..] {
                // `a` precedes `b` in `base`; the pair flips when `perm`
                // ranks `b` first.
                if rank[b as usize] < rank[a as usize] {
                    let start = arrival(a).max(arrival(b));
                    if start <= completions[a as usize].min(completions[b as usize]) {
                        first = first.min(start);
                    }
                }
            }
        }
        first
    }
}

impl<'a> Replayed<'a> {
    /// `run`'s memo: the `inherited` snapshots, then those `run` took.
    fn new(
        perm: &[u32],
        run: SnapshotRun<'a>,
        mut inherited: Vec<Rc<ReplaySnapshot<'a>>>,
        ended: bool,
        resumed: bool,
    ) -> Rc<Self> {
        inherited.extend(run.snapshots.into_iter().map(Rc::new));
        Rc::new(Replayed {
            perm: perm.to_vec(),
            result: run.result,
            completions: run.completions,
            snapshots: RefCell::new(inherited),
            ended: Cell::new(ended),
            resumed,
        })
    }
}

impl<'a> Objective for ResumedReplay<'a> {
    type Memo = Rc<Replayed<'a>>;

    fn evaluate(&self, perm: &[u32]) -> (f64, Self::Memo) {
        let memo = self.full(perm);
        (penalized_cost(&memo.result), memo)
    }

    fn evaluate_near(&self, perm: &[u32], base: &[u32], memo: &Self::Memo) -> (f64, Self::Memo) {
        let memo = self.near(perm, base, memo);
        (penalized_cost(&memo.result), memo)
    }
}

/// The oracle's view of one replication.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OracleReplication {
    /// Replication index.
    pub rep: u64,
    /// The oracle turnaround: `min(best search schedule, best replayed
    /// policy)` on this replication's timeline.
    pub oracle_turnaround: f64,
    /// `"search"` when the local search beat every policy incumbent, else
    /// the winning policy's paper name.
    pub incumbent: String,
    /// The search winner (cost is the penalized objective).
    pub search: RestartOutcome,
    /// Per-policy replayed mean turnaround; `None` when that policy's
    /// replay saturated or left bags incomplete.
    pub policy_turnarounds: Vec<(String, Option<f64>)>,
}

/// The per-replication search seed: one mix over `(seed, rep)` so
/// replications search independent streams.
fn rep_search_seed(seed: u64, rep: u64) -> u64 {
    SplitMix64::new(seed ^ rep.wrapping_mul(0x2545_F491_4F6C_DD1D)).next_u64()
}

/// The search of replication `rep`.
fn search_config(ocfg: &OracleConfig, rep: u64) -> SearchConfig {
    SearchConfig {
        restarts: ocfg.restarts,
        iters: ocfg.iters,
        seed: rep_search_seed(ocfg.seed, rep),
        stall_kick: 24,
    }
}

/// How the evaluations of a [`check_resumed_search`] ran.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeCheck {
    /// Evaluations checked.
    pub evaluations: u64,
    /// Evaluations replayed from t = 0.
    pub full: u64,
    /// Evaluations resumed from a snapshot.
    pub resumed: u64,
    /// Evaluations whose run provably equals their base's, so nothing ran.
    pub reused: u64,
}

/// Runs replication `rep`'s oracle search (restarts in order, on this
/// thread) and checks every evaluation against a full `simulate_replayed`
/// of the same order: the two [`RunResult`]s must serialise to the same
/// bytes. `Err` names the first evaluation that differs.
#[doc(hidden)]
pub fn check_resumed_search(
    scenario: &Scenario,
    base_seed: u64,
    rep: u64,
    ocfg: &OracleConfig,
) -> Result<ResumeCheck, String> {
    struct Checked<'a, 'r> {
        inner: &'r ResumedReplay<'a>,
        stats: RefCell<ResumeCheck>,
        error: RefCell<Option<String>>,
    }
    impl<'a> Checked<'a, '_> {
        /// Counts one evaluation of `perm` and compares its result with a
        /// full replay.
        fn check(&self, perm: &[u32], memo: &Replayed<'a>, count: impl FnOnce(&mut ResumeCheck)) {
            let mut stats = self.stats.borrow_mut();
            stats.evaluations += 1;
            count(&mut stats);
            let r = self.inner;
            let full = simulate_replayed(
                r.grid,
                r.workload,
                ResumedReplay::policy(perm),
                r.cfg,
                r.env,
            );
            let bytes = |r: &RunResult| serde_json::to_string(r).expect("run results serialise");
            let mut error = self.error.borrow_mut();
            if error.is_none() && bytes(&memo.result) != bytes(&full) {
                *error = Some(format!(
                    "evaluation {} of order {perm:?} differs from its full replay",
                    stats.evaluations
                ));
            }
        }
    }
    impl<'a> Objective for Checked<'a, '_> {
        type Memo = Rc<Replayed<'a>>;

        fn evaluate(&self, perm: &[u32]) -> (f64, Self::Memo) {
            let (cost, memo) = self.inner.evaluate(perm);
            self.check(perm, &memo, |s| s.full += 1);
            (cost, memo)
        }

        fn evaluate_near(
            &self,
            perm: &[u32],
            base: &[u32],
            memo: &Self::Memo,
        ) -> (f64, Self::Memo) {
            let (cost, next) = self.inner.evaluate_near(perm, base, memo);
            let reused = Rc::ptr_eq(&next, memo);
            self.check(perm, &next, |s| match (reused, next.resumed) {
                (true, _) => s.reused += 1,
                (false, true) => s.resumed += 1,
                (false, false) => s.full += 1,
            });
            (cost, next)
        }
    }

    let c = Captured::new(scenario, base_seed, rep);
    let inner = ResumedReplay::new(&c.grid, &c.workload, &c.cfg, &c.env);
    let checked = Checked {
        inner: &inner,
        stats: RefCell::new(ResumeCheck::default()),
        error: RefCell::new(None),
    };
    let scfg = search_config(ocfg, rep);
    for r in 0..scfg.restarts {
        run_restart(c.workload.len(), r, &scfg, &checked);
    }
    match checked.error.into_inner() {
        Some(e) => Err(e),
        None => Ok(checked.stats.into_inner()),
    }
}

/// One replication's captured timeline and the inputs every replay of it
/// runs on: the donor's trace is captured once (the extracted timeline is
/// policy-independent), then shared by the seven policy replays and
/// every search restart.
pub(crate) struct Captured {
    grid: Grid,
    workload: Workload,
    cfg: SimConfig,
    env: TraceEnv,
}

impl Captured {
    /// Captures replication `rep` of `scenario`.
    fn new(scenario: &Scenario, base_seed: u64, rep: u64) -> Self {
        let (_, trace) = run_replication_traced(scenario, base_seed, rep);
        let (grid, workload, cfg) = replication_inputs(scenario, base_seed, rep);
        let env = TraceEnv::from_trace(&trace.events, grid.len());
        Captured {
            grid,
            workload,
            cfg,
            env,
        }
    }

    /// `kind`'s paper name and replayed mean turnaround; `None` when the
    /// replay saturated or left bags incomplete.
    fn replay(&self, kind: PolicyKind) -> (String, Option<f64>) {
        let (grid, workload, cfg) = (&self.grid, &self.workload, &self.cfg);
        let r = simulate_replayed(grid, workload, kind.create_seeded(cfg.seed), cfg, &self.env);
        let t = if r.saturated || r.completed < r.total {
            None
        } else {
            Some(r.mean_turnaround())
        };
        (kind.paper_name().to_string(), t)
    }

    /// Restart `r` of the search `scfg`.
    fn restart(&self, scfg: &SearchConfig, r: u32) -> RestartOutcome {
        let objective = ResumedReplay::new(&self.grid, &self.workload, &self.cfg, &self.env);
        run_restart(self.workload.len(), r, scfg, &objective)
    }
}

/// Folds replication `rep`'s policy replays and search restarts into the
/// oracle's view of it.
fn fold_replication(
    rep: u64,
    policy_turnarounds: Vec<(String, Option<f64>)>,
    outcomes: Vec<RestartOutcome>,
) -> OracleReplication {
    let search = fold(outcomes).expect("restarts >= 1");
    let best_policy = policy_turnarounds
        .iter()
        .filter_map(|(name, t)| t.map(|t| (name.as_str(), t)))
        .min_by(|a, b| a.1.total_cmp(&b.1));
    // When nothing drained the workload on this timeline, the penalized
    // search objective is reported as-is; regret stays undefined (no
    // policy contributes a measured replication either).
    let search_feasible = search.cost < PENALTY_BASE;
    let (incumbent, oracle_turnaround) = match best_policy {
        Some((name, t)) if !search_feasible || t <= search.cost => (name.to_string(), t),
        _ => ("search".to_string(), search.cost),
    };
    OracleReplication {
        rep,
        oracle_turnaround,
        incumbent,
        search,
        policy_turnarounds,
    }
}

/// Computes the oracle for one replication of a scenario's environment,
/// on this thread.
///
/// Captures the replication's trace (the donor policy is the scenario's
/// own — the extracted timeline is policy-independent), replays all seven
/// knowledge-free policies as incumbents, then runs the permutation
/// search's restarts in order. A regret sweep runs the same steps as
/// replication-pool jobs.
pub fn oracle_replication(
    scenario: &Scenario,
    base_seed: u64,
    rep: u64,
    ocfg: &OracleConfig,
) -> OracleReplication {
    let captured = Captured::new(scenario, base_seed, rep);
    let scfg = search_config(ocfg, rep);
    let policies = PolicyKind::all_with_baselines().map(|kind| captured.replay(kind));
    let outcomes = (0..scfg.restarts).map(|r| captured.restart(&scfg, r));
    fold_replication(rep, policies.to_vec(), outcomes.collect())
}

/// Canonical digest of a scenario's environment half: scenarios with
/// equal digests share grids, workloads, fault timelines — and therefore
/// oracle values — at every replication.
fn env_key(scenario: &Scenario) -> String {
    let bytes = serde_json::to_vec(&(&scenario.grid, &scenario.workload, &scenario.sim))
        .expect("scenario halves serialise");
    digest128_hex(&bytes)
}

/// Attaches a [`RegretSection`] to `result` from the environment group's
/// oracle replications.
fn attach_regret(
    result: &mut ScenarioResult,
    policy: &str,
    oracle_reps: &[OracleReplication],
    ocfg: &OracleConfig,
    level: f64,
) {
    if result.saturated {
        return; // an unmeasurable scenario reports no statistics at all
    }
    let mut oracle_w = Welford::new();
    let mut regret_w = Welford::new();
    let mut evaluations = 0u64;
    for orep in oracle_reps {
        oracle_w.push(orep.oracle_turnaround);
        evaluations += orep.search.evaluations;
        let mine = orep
            .policy_turnarounds
            .iter()
            .find(|(name, _)| name == policy)
            .and_then(|(_, t)| *t);
        if let Some(t) = mine {
            if orep.oracle_turnaround > 0.0 {
                regret_w.push((t - orep.oracle_turnaround) / orep.oracle_turnaround);
            }
        }
    }
    result.regret = Some(RegretSection {
        oracle_turnaround: reportable_ci(&oracle_w, level),
        regret: reportable_ci(&regret_w, level),
        replications: oracle_reps.len() as u64,
        measured_replications: regret_w.count(),
        search_evaluations: evaluations,
        restarts: ocfg.restarts,
        iters: ocfg.iters,
        seed: ocfg.seed,
    });
}

/// The oracle's share of a regret sweep's pool run. Scenarios are grouped
/// by environment digest (sorted: deterministic order) so each timeline
/// is captured and searched exactly once, then shared by all policies in
/// the group. Each (group, replication) pair is one pool cell, in
/// group-then-replication order; its jobs run here.
pub(crate) struct OraclePass<'a> {
    scenarios: &'a [Scenario],
    base_seed: u64,
    ocfg: &'a OracleConfig,
    /// Environment digests with their member scenarios, the first of
    /// which is the group's trace donor.
    groups: Vec<(String, Vec<usize>)>,
    /// Restarts a resumed journal holds, by pair and restart.
    journaled: BTreeMap<(usize, u32), RestartOutcome>,
    /// How many of them were used.
    replayed: AtomicU64,
}

impl<'a> OraclePass<'a> {
    /// The pass over `scenarios`, folding in the journaled `restarts`
    /// that belong to one of its pairs instead of recomputing them.
    pub(crate) fn new(
        scenarios: &'a [Scenario],
        base_seed: u64,
        ocfg: &'a OracleConfig,
        restarts: Restarts,
    ) -> Self {
        let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, s) in scenarios.iter().enumerate() {
            groups.entry(env_key(s)).or_default().push(i);
        }
        let groups: Vec<(String, Vec<usize>)> = groups.into_iter().collect();
        let journaled = restarts
            .into_iter()
            .filter(|(_, rep, _)| *rep < ocfg.replications)
            .filter_map(|(env, rep, outcome)| {
                let g = groups.iter().position(|(key, _)| *key == env)?;
                let p = g * ocfg.replications as usize + rep as usize;
                Some(((p, outcome.restart), outcome))
            })
            .collect();
        OraclePass {
            scenarios,
            base_seed,
            ocfg,
            groups,
            journaled,
            replayed: AtomicU64::new(0),
        }
    }

    /// Pool cells: one per (environment group, replication).
    pub(crate) fn pairs(&self) -> usize {
        self.groups.len() * self.ocfg.replications as usize
    }

    /// Search restarts per pair.
    pub(crate) fn restarts(&self) -> u32 {
        self.ocfg.restarts
    }

    /// Pair `p`'s environment digest, trace donor and replication.
    fn pair(&self, p: usize) -> (&str, &Scenario, u64) {
        let reps = self.ocfg.replications as usize;
        let (key, members) = &self.groups[p / reps];
        (key, &self.scenarios[members[0]], (p % reps) as u64)
    }

    /// Runs one oracle job. A journaled restart is looked up, not
    /// recomputed.
    pub(crate) fn run(&self, job: Job) -> Output {
        match job {
            Job::Capture(p) => {
                let (_, donor, rep) = self.pair(p);
                Output::Capture(Arc::new(Captured::new(donor, self.base_seed, rep)))
            }
            Job::Replay(captured, kind) => {
                let (policy, turnaround) = captured.replay(kind);
                Output::Replay(policy, turnaround)
            }
            Job::Restart(p, captured, r) => Output::Restart(match self.journaled.get(&(p, r)) {
                Some(outcome) => {
                    self.replayed.fetch_add(1, Ordering::Relaxed);
                    outcome.clone()
                }
                None => captured.restart(&search_config(self.ocfg, self.pair(p).2), r),
            }),
            Job::Rep(..) => unreachable!("the sweep core runs the replications"),
        }
    }

    /// The journal record of pair `p`'s restart `outcome`, unless the
    /// journal holds it already.
    pub(crate) fn fresh(&self, p: usize, outcome: &RestartOutcome) -> Option<JournalLine> {
        if self.journaled.contains_key(&(p, outcome.restart)) {
            return None;
        }
        let (env, _, rep) = self.pair(p);
        Some(JournalLine::Restart {
            env: env.to_string(),
            rep,
            outcome: outcome.clone(),
        })
    }

    /// Journaled restarts folded in instead of recomputed.
    pub(crate) fn replayed(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Folds pair `p`'s completed replays and restarts.
    pub(crate) fn fold(
        &self,
        p: usize,
        policy_turnarounds: Vec<(String, Option<f64>)>,
        outcomes: Vec<RestartOutcome>,
    ) -> OracleReplication {
        fold_replication(self.pair(p).2, policy_turnarounds, outcomes)
    }

    /// Attaches each group's oracle replications, in pair order, to the
    /// results of its member scenarios.
    pub(crate) fn attach(
        &self,
        results: &mut [ScenarioResult],
        oracle_reps: &[OracleReplication],
        level: f64,
    ) {
        let reps = self.ocfg.replications as usize;
        for (g, (_, members)) in self.groups.iter().enumerate() {
            let group_reps = &oracle_reps[g * reps..(g + 1) * reps];
            for &i in members {
                let policy = results[i].policy.clone();
                attach_regret(&mut results[i], &policy, group_reps, self.ocfg, level);
            }
        }
    }
}

/// [`run_matrix`](super::run_matrix) plus a [`RegretSection`] on every
/// non-saturated result. The base sweep is untouched — turnaround,
/// waiting, makespan and the stopping index are byte-identical to a plain
/// `run_matrix` of the same scenarios. [`run_sweep`] with
/// [`SweepOptions::oracle`] set is the same run, journaled or indexed.
pub fn run_matrix_regret(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    ocfg: &OracleConfig,
) -> Vec<ScenarioResult> {
    let opts = SweepOptions {
        oracle: Some(ocfg),
        ..SweepOptions::default()
    };
    run_sweep(scenarios, base_seed, rule, opts, |_, _, _| {})
        .expect("a sweep without a journal or an index does no I/O")
        .results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::scenario::{fixed_rule, WorkloadKind};
    use crate::sim::SimConfig;
    use dgsched_grid::{Availability, GridConfig, Heterogeneity};
    use dgsched_workload::{BotType, Intensity, WorkloadSpec};

    fn small_scenario(policy: PolicyKind) -> Scenario {
        Scenario {
            name: format!("regret {policy}"),
            grid: GridConfig {
                total_power: 80.0,
                heterogeneity: Heterogeneity::HOM,
                availability: Availability::HIGH,
                checkpoint: Default::default(),
                outages: None,
            },
            workload: WorkloadKind::Single(WorkloadSpec {
                bot_type: BotType {
                    granularity: 2_000.0,
                    app_size: 16_000.0,
                    jitter: 0.5,
                },
                intensity: Intensity::Medium,
                count: 5,
            }),
            policy,
            sim: SimConfig::default(),
        }
    }

    fn tiny_oracle() -> OracleConfig {
        OracleConfig {
            restarts: 2,
            iters: 10,
            seed: 5,
            replications: 2,
        }
    }

    #[test]
    fn fixed_priority_serves_lowest_rank_first() {
        // perm [2,0,1]: bag 2 has rank 0, bag 0 rank 1, bag 1 rank 2.
        let fp = FixedPriority::from_perm(&[2, 0, 1]);
        assert_eq!(fp.rank, vec![1, 2, 0]);
    }

    #[test]
    fn penalty_grades_by_incompleteness_then_end_time() {
        let mk = |completed: usize, saturated: bool, end_time: f64| RunResult {
            policy: "t".into(),
            bags: Vec::new(),
            machines: Vec::new(),
            completed,
            total: 4,
            saturated,
            end_time,
            events: 0,
            counters: Default::default(),
        };
        let clean = penalized_cost(&mk(4, false, 100.0));
        assert_eq!(clean, 0.0, "no measured bags -> welford mean 0");
        let one_missing = penalized_cost(&mk(3, false, 100.0));
        let two_missing = penalized_cost(&mk(2, false, 100.0));
        let two_missing_later = penalized_cost(&mk(2, false, 900.0));
        assert!(clean < one_missing);
        assert!(one_missing < two_missing);
        assert!(two_missing < two_missing_later);
        assert!(penalized_cost(&mk(4, true, 50.0)) >= PENALTY_BASE);
    }

    #[test]
    fn oracle_never_beats_is_beaten_by_best_policy() {
        let orep = oracle_replication(&small_scenario(PolicyKind::Rr), 2008, 0, &tiny_oracle());
        let best = orep
            .policy_turnarounds
            .iter()
            .filter_map(|(_, t)| *t)
            .fold(f64::INFINITY, f64::min);
        assert!(
            orep.oracle_turnaround <= best,
            "oracle {} > best policy {best}",
            orep.oracle_turnaround
        );
        assert!(orep.oracle_turnaround > 0.0);
    }

    #[test]
    fn env_groups_share_oracle_values() {
        let scenarios: Vec<Scenario> = [PolicyKind::Rr, PolicyKind::Sbf, PolicyKind::LongIdle]
            .into_iter()
            .map(small_scenario)
            .collect();
        let rule = fixed_rule(2);
        let results = run_matrix_regret(&scenarios, 2008, &rule, &tiny_oracle());
        let oracles: Vec<String> = results
            .iter()
            .map(|r| serde_json::to_string(&r.regret.as_ref().unwrap().oracle_turnaround).unwrap())
            .collect();
        assert_eq!(oracles[0], oracles[1]);
        assert_eq!(oracles[1], oracles[2]);
        for r in &results {
            let reg = r.regret.as_ref().unwrap();
            assert!(reg.regret.mean >= 0.0, "{}: {}", r.name, reg.regret.mean);
            assert_eq!(reg.replications, 2);
        }
    }

    #[test]
    fn regret_section_stays_off_the_wire_when_absent() {
        let rule = fixed_rule(2);
        let plain = super::super::runner::run_matrix(
            std::slice::from_ref(&small_scenario(PolicyKind::Rr)),
            2008,
            &rule,
        );
        let text = serde_json::to_string(&plain).unwrap();
        assert!(
            !text.contains("\"regret\":"),
            "absent regret must not change the wire format: {text}"
        );
        let back: Vec<ScenarioResult> = serde_json::from_str(&text).unwrap();
        assert!(back[0].regret.is_none());
    }

    #[test]
    fn journaled_regret_resumes_byte_identically() {
        let scenarios = vec![small_scenario(PolicyKind::Rr)];
        let rule = fixed_rule(2);
        let ocfg = tiny_oracle();
        let dir = std::env::temp_dir().join("dgsched-oracle-journal-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("resume-{}.jsonl", std::process::id()));
        let run = |seed: u64, resume: bool| {
            let opts = SweepOptions {
                journal: Some(&path),
                resume,
                oracle: Some(&ocfg),
                ..SweepOptions::default()
            };
            run_sweep(&scenarios, seed, &rule, opts, |_, _, _| {})
        };

        let first = run(2008, false).unwrap();
        let stats1 = first.stats;
        assert_eq!(stats1.restarts_written, 2 * 2, "restarts × replications");
        assert_eq!(stats1.records_written, 2, "the sweep half is journaled");
        assert_eq!(stats1.resumes, 0);

        let second = run(2008, true).unwrap();
        let stats2 = second.stats;
        assert_eq!(stats2.resumes, 1);
        assert_eq!(stats2.records_written + stats2.restarts_written, 0);
        assert_eq!((stats2.records_replayed, stats2.restarts_replayed), (2, 4));
        let json = |r: &[ScenarioResult]| serde_json::to_string(r).unwrap();
        assert_eq!(
            json(&first.results),
            json(&second.results),
            "resumed search must be byte-identical"
        );

        let plain = run_matrix_regret(&scenarios, 2008, &rule, &ocfg);
        assert_eq!(
            json(&first.results),
            json(&plain),
            "journaling must not perturb results"
        );

        let wrong_seed = run(2009, true).unwrap_err();
        assert!(wrong_seed.to_string().contains("fingerprint"));
        std::fs::remove_file(&path).ok();
    }
}
