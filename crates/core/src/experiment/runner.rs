//! The experiment runner: independent replications, sequential stopping on
//! the 95 % / 2.5 % rule of §4.3, and the pool every parallel loop runs
//! on.
//!
//! Replication `r` of every scenario draws its grid, workload and failure
//! traces from seed streams keyed by `(base_seed, r)` only — *not* by
//! policy — so policies are compared under common random numbers.
//!
//! ## One pool per run
//!
//! Every sweep — [`run_matrix`], [`run_scenario`], the journaled runners
//! and the regret runners — runs on one pool of
//! `rayon::current_num_threads()` workers, spawned once per run. The
//! pool's unit of work is a `Job`, one of a closed set: a sweep
//! replication, an oracle trace capture, a policy replay, or a search
//! restart. Jobs come from *cells*, each following a fixed plan of steps:
//!
//! * a sweep scenario's plan is its batch plan: replications `[0, min)`,
//!   then batches of the pool width up to the cap, the next batch opened
//!   only once the last is absorbed without the stopping rule ending the
//!   scenario;
//! * an oracle (environment group, replication) pair's plan is its trace
//!   capture, then its seven policy replays and its search restarts on
//!   the captured timeline (see the regret module).
//!
//! The workers pull jobs from every cell's open step, lowest cell first
//! (the oracle's pairs, then the scenarios), so no cell's step holds the
//! pool behind a barrier while other cells' work waits. The worker that
//! completes a step records its outputs (a journal appends fresh ones, in
//! replication or restart order, durable before use), folds them, and
//! opens the cell's next step or finishes it.
//!
//! ## Thread-count invariance
//!
//! Every statistical decision is kept independent of how work lands on
//! threads:
//!
//! * replication `r` is always seeded from `(base_seed, r)`, wherever it
//!   executes;
//! * workers return per-replication [`Welford`] partials which are merged
//!   ([`Welford::merge`]) into the scenario accumulators in
//!   replication-index order;
//! * the stopping rule is evaluated after each *absorbed* replication, in
//!   index order, so the stopping index is a pure function of the
//!   replication results — the batch width is only a speculation knob:
//!   replications past the stopping index are discarded, never absorbed.
//!
//! Which replications are computed depends on the width (the batch plan
//! does) but never on timing: nothing is started speculatively because a
//! worker is idle. Consequently `run_matrix` produces byte-identical JSON
//! at any pool width (`tests/parallel_determinism.rs` pins this), and at
//! width 1 the single worker runs cells one after another, in order,
//! exactly as a plain loop would.

use super::regret::{Captured, OraclePass, OracleReplication};
use super::scenario::Scenario;
use crate::policy::PolicyKind;
use crate::sim::{simulate, RunResult, SimConfig, SimReport};
use dgsched_des::rng::StreamSeeder;
use dgsched_des::stats::{ConfidenceInterval, StoppingRule, Welford};
use dgsched_obs::MetricsSnapshot;
use dgsched_oracle::RestartOutcome;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Aggregated result of one scenario across replications.
///
/// Every field is finite, whatever happened during the run. A saturated
/// scenario carries **no** partial statistics: observations gathered
/// before (or speculatively after) the saturating replication are
/// dropped wholesale, the CIs are reported as `mean 0.0 ± 0.0` over 0
/// draws, and `replication_means` is empty. Consumers must gate on
/// [`saturated`](Self::saturated) — the paper's "bar beyond the frame" —
/// before reading the statistics, exactly as the report table does.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Policy name.
    pub policy: String,
    /// Turnaround mean and CI over replication means.
    pub turnaround: ConfidenceInterval,
    /// Waiting-time mean and CI.
    pub waiting: ConfidenceInterval,
    /// Makespan mean and CI.
    pub makespan: ConfidenceInterval,
    /// Mean wasted-occupancy fraction across replications.
    pub wasted_fraction: f64,
    /// Replications absorbed into the result (speculative replications
    /// past the stopping index are not counted).
    pub replications: u64,
    /// Replications that saturated (hit horizon / event budget).
    pub saturated_replications: u64,
    /// True when the scenario is reported as saturated (the paper's "bar
    /// beyond the frame"): any replication failed to drain the workload.
    pub saturated: bool,
    /// Per-replication turnaround means (for post-hoc analysis); empty
    /// when `saturated`.
    pub replication_means: Vec<f64>,
    /// Named-metric snapshot of replication 0, present only when
    /// instrumentation was requested (the `DGSCHED_TRACE` environment
    /// toggle). `None` serialises to nothing, keeping uninstrumented
    /// output byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics: Option<MetricsSnapshot>,
    /// Replications that *failed* (panicked twice in the journaled
    /// runner's isolation wrapper). Failure marks the scenario
    /// [`saturated`](Self::saturated) — the statistics are equally
    /// unusable — and this count says why. Zero serialises to nothing,
    /// keeping healthy output byte-identical to pre-journal runs.
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub failed_replications: u64,
    /// One reason per failed replication, in replication order. Empty
    /// serialises to nothing.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub failure_reasons: Vec<String>,
    /// Hindsight-oracle regret, present only when the sweep ran through
    /// [`run_matrix_regret`](super::run_matrix_regret). `None` serialises
    /// to nothing, keeping plain sweeps byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub regret: Option<super::regret::RegretSection>,
}

fn u64_is_zero(n: &u64) -> bool {
    *n == 0
}

/// True when the `DGSCHED_TRACE` environment toggle requests instrumented
/// runs (set to anything except `0`, `false` or the empty string).
pub fn obs_enabled() -> bool {
    match std::env::var("DGSCHED_TRACE") {
        Ok(v) => !matches!(v.as_str(), "" | "0" | "false"),
        Err(_) => false,
    }
}

/// Runs one replication of a scenario.
///
/// Grid, workload and simulator streams derive from `(base_seed, rep)`;
/// the policy does not influence them.
pub fn run_replication(scenario: &Scenario, base_seed: u64, rep: u64) -> RunResult {
    run_replication_capped(scenario, base_seed, rep, None)
}

/// The deterministic inputs of replication `rep`: the realized grid, the
/// generated workload, and the effective [`SimConfig`]. Every
/// `run_replication*` entry builds exactly these, so callers that need to
/// re-drive a recorded replication (trace replay, the hindsight oracle)
/// get byte-identical inputs from the same `(base_seed, rep)` key.
pub fn replication_inputs(
    scenario: &Scenario,
    base_seed: u64,
    rep: u64,
) -> (dgsched_grid::Grid, dgsched_workload::Workload, SimConfig) {
    let seeder = StreamSeeder::new(base_seed).subdomain("rep", rep);
    let mut grid_rng = seeder.stream("grid", 0);
    let grid = scenario.grid.build(&mut grid_rng);
    let mut wl_rng = seeder.stream("workload", 0);
    let workload = scenario.workload.generate(&scenario.grid, &mut wl_rng);
    let cfg = SimConfig {
        seed: seeder.stream_seed("sim", 0),
        ..scenario.sim
    };
    (grid, workload, cfg)
}

/// [`run_replication`] with an optional extra event budget: the journal's
/// per-replication guard clamps the configured `event_limit` (never
/// raises it), so a runaway replication trips the ordinary saturation
/// path. The clamp is part of the effective configuration — deterministic
/// and independent of wall-clock speed.
pub(crate) fn run_replication_capped(
    scenario: &Scenario,
    base_seed: u64,
    rep: u64,
    max_events: Option<u64>,
) -> RunResult {
    let (grid, workload, mut cfg) = replication_inputs(scenario, base_seed, rep);
    if let Some(m) = max_events {
        cfg.event_limit = m.min(cfg.event_limit);
    }
    simulate(&grid, &workload, scenario.policy, &cfg)
}

/// [`run_replication`] with full event tracing — identical seeding, so the
/// trace reflects exactly the run that `run_replication` would produce.
pub fn run_replication_traced(
    scenario: &Scenario,
    base_seed: u64,
    rep: u64,
) -> (RunResult, crate::sim::TraceRecorder) {
    let (grid, workload, cfg) = replication_inputs(scenario, base_seed, rep);
    let mut trace = crate::sim::TraceRecorder::new();
    let policy = scenario.policy.create_seeded(cfg.seed);
    let result = crate::sim::simulate_observed(&grid, &workload, policy, &cfg, &mut trace);
    (result, trace)
}

/// [`run_replication`] with the metrics registry (and, under the `timing`
/// feature, profiling spans) attached — identical seeding, identical
/// [`RunResult`], plus the [`SimReport`]. Attach any extra `observer`
/// (e.g. a ring tracer) to ride the same run; pass a
/// [`NullObserver`](crate::sim::NullObserver) when only the report is
/// wanted.
pub fn run_replication_instrumented(
    scenario: &Scenario,
    base_seed: u64,
    rep: u64,
    observer: &mut dyn crate::sim::SimObserver,
) -> (RunResult, SimReport) {
    let (grid, workload, cfg) = replication_inputs(scenario, base_seed, rep);
    let policy = scenario.policy.create_seeded(cfg.seed);
    crate::sim::simulate_instrumented(&grid, &workload, policy, &cfg, observer)
}

/// A confidence interval that always serialises cleanly. With fewer than
/// two usable replications — a saturated scenario has zero —
/// [`ConfidenceInterval::from_welford`] reports an infinite half-width,
/// which the JSON writer emits as `null` and a reader then rejects when
/// parsing back into an `f64`. Reports clamp it to `0.0`; the
/// `saturated` flag, not the interval, is what marks the result as off
/// the chart.
pub(crate) fn reportable_ci(w: &Welford, level: f64) -> ConfidenceInterval {
    let mut ci = ConfidenceInterval::from_welford(w, level);
    if !ci.half_width.is_finite() {
        ci.half_width = 0.0;
    }
    ci
}

/// Per-replication statistics, computed on the worker that ran the
/// replication: the fork half of the fork/join reduction. Each metric is
/// a single-observation [`Welford`] (empty when the replication
/// saturated) so the join half is a plain [`Welford::merge`] fold.
///
/// This is also the journal's record payload, so it carries stable serde:
/// a journaled summary replayed on resume is indistinguishable from one
/// recomputed live (Welford round-trips bit-for-bit).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct RepSummary {
    pub(crate) saturated: bool,
    /// `Some(reason)` when the replication panicked past its retry in the
    /// journaled runner; the plain runner never sets it. Absent from the
    /// wire format when `None`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub(crate) failed: Option<String>,
    pub(crate) turnaround: Welford,
    pub(crate) waiting: Welford,
    pub(crate) makespan: Welford,
    pub(crate) wasted: Welford,
    pub(crate) mean_turnaround: f64,
}

impl RepSummary {
    pub(crate) fn of(r: &RunResult) -> Self {
        let mut s = RepSummary {
            saturated: r.saturated,
            ..Default::default()
        };
        if !r.saturated {
            s.mean_turnaround = r.mean_turnaround();
            s.turnaround.push(s.mean_turnaround);
            s.waiting.push(r.mean_waiting());
            s.makespan.push(r.mean_makespan());
            s.wasted.push(r.wasted_fraction());
        }
        s
    }

    /// The failed-replication record: no statistics, a reason, and the
    /// same "this scenario cannot be measured" effect as saturation.
    pub(crate) fn failure(reason: String) -> Self {
        RepSummary {
            failed: Some(reason),
            ..Default::default()
        }
    }
}

/// The join half of the reduction: scenario-level accumulators fed by
/// merging [`RepSummary`] partials in replication-index order.
#[derive(Debug, Default)]
pub(crate) struct ScenarioAccum {
    turnaround: Welford,
    waiting: Welford,
    makespan: Welford,
    wasted: Welford,
    means: Vec<f64>,
    saturated_reps: u64,
    failed_reps: u64,
    failure_reasons: Vec<String>,
}

impl ScenarioAccum {
    fn absorb(&mut self, s: &RepSummary) {
        if let Some(reason) = &s.failed {
            self.failed_reps += 1;
            self.failure_reasons.push(reason.clone());
        } else if s.saturated {
            self.saturated_reps += 1;
        } else {
            self.turnaround.merge(&s.turnaround);
            self.waiting.merge(&s.waiting);
            self.makespan.merge(&s.makespan);
            self.wasted.merge(&s.wasted);
            self.means.push(s.mean_turnaround);
        }
    }

    /// True when the scenario cannot be measured: a replication saturated
    /// or failed. Either way more replications cannot help and the sweep
    /// stops the scenario.
    fn unusable(&self) -> bool {
        self.saturated_reps > 0 || self.failed_reps > 0
    }

    /// Packages the accumulated state. A saturated (or failed) scenario
    /// reports no partial statistics: whatever clean observations the
    /// sweep gathered are dropped, so consumers can never mistake a
    /// fragment of a diverging scenario for a measured mean.
    fn into_result(
        mut self,
        scenario: &Scenario,
        rule: &StoppingRule,
        replications: u64,
    ) -> ScenarioResult {
        let saturated = self.unusable();
        if saturated {
            self.turnaround = Welford::new();
            self.waiting = Welford::new();
            self.makespan = Welford::new();
            self.wasted = Welford::new();
            self.means = Vec::new();
        }
        ScenarioResult {
            name: scenario.name.clone(),
            policy: scenario.policy.paper_name().to_string(),
            turnaround: reportable_ci(&self.turnaround, rule.level),
            waiting: reportable_ci(&self.waiting, rule.level),
            makespan: reportable_ci(&self.makespan, rule.level),
            wasted_fraction: self.wasted.mean(),
            replications,
            saturated_replications: self.saturated_reps,
            saturated,
            replication_means: self.means,
            metrics: None,
            failed_replications: self.failed_reps,
            failure_reasons: self.failure_reasons,
            regret: None,
        }
    }
}

/// The batch that follows `next_rep` in a scenario's batch plan: the
/// minimum first, then pool-width batches (speculative: absorption may
/// stop mid-batch) up to the cap. Empty once the cap is reached.
fn next_batch(rule: &StoppingRule, next_rep: u64, width: u64) -> Range<u64> {
    let size = if next_rep < rule.min_replications {
        rule.min_replications - next_rep
    } else {
        rule.max_replications.saturating_sub(next_rep).min(width)
    };
    next_rep..next_rep + size
}

/// Absorbs the batch starting at `start` in replication order,
/// re-evaluating the stopping rule after every replication, so the
/// stopping index — and therefore the result — cannot depend on the batch
/// width. A saturated (or failed) replication means the scenario is
/// operationally unstable; more replications cannot tighten anything
/// meaningful. Returns the stopping index once the rule stops the
/// scenario; summaries past it are discarded.
fn absorb_batch(
    acc: &mut ScenarioAccum,
    rule: &StoppingRule,
    start: u64,
    summaries: &[RepSummary],
) -> Option<u64> {
    for (done, s) in (start + 1..).zip(summaries) {
        acc.absorb(s);
        if done >= rule.min_replications
            && (acc.unusable() || done >= rule.max_replications || rule.satisfied(&acc.turnaround))
        {
            return Some(done);
        }
    }
    None
}

/// A pool job: the closed set of work the pool runs.
#[derive(Clone)]
pub(crate) enum Job {
    /// Replication `rep` of sweep scenario `i`.
    Rep(usize, u64),
    /// Oracle pair `p`'s trace capture.
    Capture(usize),
    /// An oracle pair's replay of one policy on its captured timeline.
    Replay(Arc<Captured>, PolicyKind),
    /// Oracle pair `p`'s search restart `r` on its captured timeline.
    Restart(usize, Arc<Captured>, u32),
}

impl Job {
    /// A replication job's scenario and replication.
    pub(crate) fn rep(&self) -> (usize, u64) {
        match self {
            Job::Rep(i, rep) => (*i, *rep),
            _ => unreachable!("a sweep cell runs only replication jobs"),
        }
    }
}

/// What a [`Job`] yields, variant for variant.
pub(crate) enum Output {
    Rep(RepSummary),
    Capture(Arc<Captured>),
    /// The policy's paper name and its replayed mean turnaround.
    Replay(String, Option<f64>),
    Restart(RestartOutcome),
}

/// A completed step's output that a journal may need, handed to the
/// `record` hook in job order before the step is folded.
pub(crate) enum Record<'r> {
    /// Replication `rep` of scenario `i`.
    Rep(usize, u64, &'r RepSummary),
    /// A search restart of oracle pair `p`.
    Restart(usize, &'r RestartOutcome),
}

/// One pool cell: a sweep scenario on its batch plan, or an oracle pair
/// on its two steps.
#[derive(Default)]
struct Cell {
    /// The open step's jobs; those from `next` on are not handed out yet.
    jobs: Vec<Job>,
    next: usize,
    /// The open step's outputs by job position, as workers deliver them.
    outs: Vec<Option<Output>>,
    /// A sweep cell's absorbed batches. Taken out by the worker that
    /// completes the open batch, and put back when it opens the next one.
    acc: ScenarioAccum,
}

impl Cell {
    fn new(jobs: Vec<Job>, acc: ScenarioAccum) -> Self {
        Cell {
            outs: jobs.iter().map(|_| None).collect(),
            jobs,
            next: 0,
            acc,
        }
    }
}

/// Nothing that can panic runs under the pool lock, so it cannot be
/// poisoned.
const POISONED: &str = "the pool lock is never held across a panic";

struct PoolState {
    /// The oracle pairs' cells, then the sweep scenarios'.
    cells: Vec<Cell>,
    /// Cells whose open step has jobs left to hand out. Workers claim
    /// from the lowest, so a cell's next step goes ahead of later cells'
    /// work and cells finish roughly in order.
    claimable: BTreeSet<usize>,
    /// Cells not finished yet.
    unfinished: usize,
    results: Vec<Option<ScenarioResult>>,
    oracle_reps: Vec<Option<OracleReplication>>,
    /// The first panic payload: once set, no worker claims again.
    panic: Option<Box<dyn Any + Send>>,
}

/// The pool behind every sweep and every oracle pass: `width` workers,
/// spawned once, pull jobs from every cell's open step. A step is folded
/// by the worker that completes it, so a cell waiting on its last job
/// holds no one else up.
struct Pool<'a, R, D> {
    scenarios: &'a [Scenario],
    base_seed: u64,
    rule: &'a StoppingRule,
    oracle: Option<&'a OraclePass<'a>>,
    /// Oracle pairs, whose cells come first.
    pairs: usize,
    obs: bool,
    width: u64,
    run: R,
    record: D,
    sink: ProgressSink<'a>,
    /// A std lock, which the `lockcheck` witness cannot see, so it is
    /// held only to claim a job, deliver an output, or open or close a
    /// step: never across a job, a journal append (`record`),
    /// [`finish`](Self::finish) or a progress callback.
    state: Mutex<PoolState>,
    wake: Condvar,
}

impl<R, D> Pool<'_, R, D>
where
    R: Fn(Job) -> Output + Sync,
    D: Fn(Record<'_>) + Sync,
{
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().expect(POISONED)
    }

    /// The next job, lowest cell first, with its cell and position;
    /// blocks while every open step is handed out but cells remain
    /// unfinished. `None` when the run is over or a worker panicked.
    fn claim(&self) -> Option<(usize, usize, Job)> {
        let mut state = self.lock();
        loop {
            if state.panic.is_some() || state.unfinished == 0 {
                return None;
            }
            if let Some(&c) = state.claimable.first() {
                let cell = &mut state.cells[c];
                let slot = cell.next;
                cell.next += 1;
                let job = cell.jobs[slot].clone();
                if cell.next == cell.jobs.len() {
                    state.claimable.remove(&c);
                }
                return Some((c, slot, job));
            }
            state = self.wake.wait(state).expect(POISONED);
        }
    }

    /// Files one output; when it completes its step, returns the step's
    /// jobs, their outputs in job order and the cell's accumulator.
    fn deliver(
        &self,
        c: usize,
        slot: usize,
        out: Output,
    ) -> Option<(Vec<Job>, Vec<Output>, ScenarioAccum)> {
        let mut state = self.lock();
        let cell = &mut state.cells[c];
        cell.outs[slot] = Some(out);
        if cell.outs.iter().any(Option::is_none) {
            return None;
        }
        let outs = std::mem::take(&mut cell.outs).into_iter().flatten();
        let jobs = std::mem::take(&mut cell.jobs);
        Some((jobs, outs.collect(), std::mem::take(&mut cell.acc)))
    }

    /// Opens cell `c`'s next step.
    fn open(&self, c: usize, jobs: Vec<Job>, acc: ScenarioAccum) {
        let cell = Cell::new(jobs, acc);
        let mut state = self.lock();
        state.cells[c] = cell;
        state.claimable.insert(c);
        self.wake.notify_all();
    }

    /// Files a finished cell's result and counts the cell finished.
    fn close(&self, file: impl FnOnce(&mut PoolState)) {
        let mut state = self.lock();
        file(&mut state);
        state.unfinished -= 1;
        if state.unfinished == 0 {
            self.wake.notify_all();
        }
    }

    /// One worker: claims jobs until the run is over.
    fn work(&self) {
        while let Some((c, slot, job)) = self.claim() {
            let out = (self.run)(job);
            let Some((jobs, outs, acc)) = self.deliver(c, slot, out) else {
                continue;
            };
            match c.checked_sub(self.pairs) {
                Some(i) => self.absorb(c, i, &jobs, outs, acc),
                None => self.advance_pair(c, outs),
            }
        }
    }

    /// Scenario `i`'s completed batch: its summaries are recorded in
    /// replication order (the journal makes fresh ones durable before
    /// they can influence a published number) and absorbed, then the
    /// scenario's next batch opens or the scenario finishes.
    fn absorb(&self, c: usize, i: usize, jobs: &[Job], outs: Vec<Output>, mut acc: ScenarioAccum) {
        let (_, start) = jobs[0].rep();
        let summaries: Vec<RepSummary> = outs
            .into_iter()
            .map(|out| match out {
                Output::Rep(summary) => summary,
                _ => unreachable!("a sweep cell runs only replications"),
            })
            .collect();
        for (rep, s) in (start..).zip(&summaries) {
            (self.record)(Record::Rep(i, rep, s));
        }
        let stop = absorb_batch(&mut acc, self.rule, start, &summaries);
        let next_rep = start + summaries.len() as u64;
        let batch = match stop {
            Some(_) => next_rep..next_rep,
            None => next_batch(self.rule, next_rep, self.width),
        };
        if batch.is_empty() {
            let result = self.finish(i, acc, stop.unwrap_or(next_rep));
            self.close(|state| state.results[i] = Some(result));
        } else {
            self.open(c, batch.map(|rep| Job::Rep(i, rep)).collect(), acc);
        }
    }

    /// Oracle pair `p`'s completed step. Its capture opens its policy
    /// replays and search restarts, which share the captured timeline.
    /// Once those are done, its restarts are recorded in restart order,
    /// durable before use, and everything folds into the pair's oracle
    /// replication.
    fn advance_pair(&self, p: usize, outs: Vec<Output>) {
        let oracle = self.oracle.expect("oracle cells run with the oracle");
        let (mut turnarounds, mut outcomes) = (Vec::new(), Vec::new());
        for out in outs {
            match out {
                Output::Capture(captured) => {
                    let replays = PolicyKind::all_with_baselines()
                        .map(|kind| Job::Replay(Arc::clone(&captured), kind));
                    let restarts =
                        (0..oracle.restarts()).map(|r| Job::Restart(p, Arc::clone(&captured), r));
                    let jobs = replays.into_iter().chain(restarts).collect();
                    return self.open(p, jobs, ScenarioAccum::default());
                }
                Output::Replay(policy, turnaround) => turnarounds.push((policy, turnaround)),
                Output::Restart(outcome) => {
                    (self.record)(Record::Restart(p, &outcome));
                    outcomes.push(outcome);
                }
                Output::Rep(_) => unreachable!("an oracle cell runs no replications"),
            }
        }
        let orep = oracle.fold(p, turnarounds, outcomes);
        self.close(|state| state.oracle_reps[p] = Some(orep));
    }

    /// Packages scenario `i`'s finished sweep and reports it, attaching
    /// the instrumented replay of replication 0 when observation was
    /// requested. The replay uses the same seeds as the measured run, so
    /// the snapshot is pure addition, never a perturbation.
    fn finish(&self, i: usize, acc: ScenarioAccum, replications: u64) -> ScenarioResult {
        let scenario = &self.scenarios[i];
        let mut result = acc.into_result(scenario, self.rule, replications);
        if self.obs && !result.saturated {
            let mut null = crate::sim::NullObserver;
            let (_, report) = run_replication_instrumented(scenario, self.base_seed, 0, &mut null);
            result.metrics = Some(report.metrics);
        }
        self.sink.complete(&scenario.name);
        result
    }

    /// [`work`](Self::work) with a panic caught and parked for the
    /// caller, waking every waiting worker so the pool drains.
    fn run_worker(&self) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.work())) {
            self.lock().panic.get_or_insert(payload);
            self.wake.notify_all();
        }
    }
}

/// Runs every scenario's batch plan, and every pair of `oracle`, on one
/// pool of `rayon::current_num_threads()` workers (the caller and
/// `width − 1` spawned threads). Returns one result per scenario, in
/// input order, and one oracle replication per pair, in pair order.
///
/// `run` computes (or replays) a job. `record` is called for every
/// output of a completed step that a journal may need, in job order,
/// before the step is folded: a batch's summaries in replication order,
/// a pair's restarts in restart order. Progress is reported as in
/// [`run_matrix_with_progress`]. A panic in any of them stops the pool
/// and is re-raised on the caller with its payload once every worker has
/// returned.
///
/// The oracle's cells come first: a capture gates its pair's seven
/// replays and every restart, so claiming captures early keeps the tail
/// of the run short.
pub(crate) fn run_pool<R, D>(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    oracle: Option<&OraclePass<'_>>,
    progress: &(dyn Fn(usize, usize, &str) + Send + Sync),
    run: R,
    record: D,
) -> (Vec<ScenarioResult>, Vec<OracleReplication>)
where
    R: Fn(Job) -> Output + Sync,
    D: Fn(Record<'_>) + Sync,
{
    let width = rayon::current_num_threads().max(1);
    let pairs = oracle.map_or(0, OraclePass::pairs);
    let first = next_batch(rule, 0, width as u64);
    let mut cells: Vec<Cell> = (0..pairs)
        .map(|p| Cell::new(vec![Job::Capture(p)], ScenarioAccum::default()))
        .collect();
    if !first.is_empty() {
        cells.extend((0..scenarios.len()).map(|i| {
            let jobs = first.clone().map(|rep| Job::Rep(i, rep)).collect();
            Cell::new(jobs, ScenarioAccum::default())
        }));
    }
    let pool = Pool {
        scenarios,
        base_seed,
        rule,
        oracle,
        pairs,
        // Read the instrumentation toggle once for the whole sweep: the
        // environment is ambient mutable state, and consulting it per
        // scenario would let a mid-sweep change produce a chimera result
        // (some scenarios instrumented, some not).
        obs: obs_enabled(),
        width: width as u64,
        run,
        record,
        sink: ProgressSink::new(scenarios.len(), progress),
        state: Mutex::new(PoolState {
            claimable: (0..cells.len()).collect(),
            unfinished: cells.len(),
            cells,
            results: scenarios.iter().map(|_| None).collect(),
            oracle_reps: (0..pairs).map(|_| None).collect(),
            panic: None,
        }),
        wake: Condvar::new(),
    };
    if first.is_empty() {
        // A rule that asks for no replications: the sweep has nothing to
        // run.
        for i in 0..scenarios.len() {
            let result = pool.finish(i, ScenarioAccum::default(), 0);
            pool.lock().results[i] = Some(result);
        }
    }
    if pool.lock().unfinished > 0 {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (1..width)
                .map(|_| scope.spawn(|| rayon::with_num_threads(width, || pool.run_worker())))
                .collect();
            pool.run_worker();
            for worker in workers {
                worker.join().expect("workers catch their own panics");
            }
        });
    }
    let state = pool.state.into_inner().expect(POISONED);
    if let Some(payload) = state.panic {
        resume_unwind(payload);
    }
    let done = "every cell finishes once";
    (
        state.results.into_iter().map(|r| r.expect(done)).collect(),
        state
            .oracle_reps
            .into_iter()
            .map(|r| r.expect(done))
            .collect(),
    )
}

/// Runs a scenario with the sequential stopping rule, replications in
/// parallel batches sized to the pool width.
pub fn run_scenario(scenario: &Scenario, base_seed: u64, rule: &StoppingRule) -> ScenarioResult {
    let mut results = run_matrix(std::slice::from_ref(scenario), base_seed, rule);
    results.pop().expect("one result per scenario")
}

/// Monotone, non-blocking completion reporting: workers queue
/// completed-scenario names and whoever holds the reporter lock (the
/// running `done` count) drains the queue, so `done` is strictly
/// increasing across callback invocations and reporting never blocks the
/// sweep — a worker that finishes while another worker is inside the
/// (possibly slow) callback hands its completion to that worker's drain
/// loop instead of waiting.
struct ProgressSink<'a> {
    total: usize,
    pending: parking_lot::Mutex<VecDeque<String>>,
    done: parking_lot::Mutex<usize>,
    callback: &'a (dyn Fn(usize, usize, &str) + Send + Sync),
}

impl<'a> ProgressSink<'a> {
    fn new(total: usize, callback: &'a (dyn Fn(usize, usize, &str) + Send + Sync)) -> Self {
        ProgressSink {
            total,
            pending: Default::default(),
            done: Default::default(),
            callback,
        }
    }

    /// Queues one completed scenario and drains the queue unless another
    /// worker already holds the reporter lock (that worker will pick the
    /// entry up — its post-drop re-check closes the race).
    fn complete(&self, name: &str) {
        self.pending.lock().push_back(name.to_string());
        loop {
            let Some(mut done) = self.done.try_lock() else {
                break;
            };
            loop {
                let name = self.pending.lock().pop_front();
                let Some(name) = name else { break };
                *done += 1;
                (self.callback)(*done, self.total, &name);
            }
            drop(done);
            // A completion queued between our final pop and the drop
            // would otherwise go unreported until the next finish.
            if self.pending.lock().is_empty() {
                break;
            }
        }
    }
}

/// Runs a list of scenarios on one replication pool, reporting
/// completion through `progress` (called with `(done, total, name)` after
/// each scenario finishes).
///
/// `done` is strictly increasing across calls and `name` is the
/// scenario completed by the `done`-th finish. Reporting never blocks
/// the sweep (see [`ProgressSink`]).
pub fn run_matrix_with_progress<F>(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    progress: F,
) -> Vec<ScenarioResult>
where
    F: Fn(usize, usize, &str) + Send + Sync,
{
    let replicate = |job: Job| {
        let (i, rep) = job.rep();
        Output::Rep(RepSummary::of(&run_replication(
            &scenarios[i],
            base_seed,
            rep,
        )))
    };
    run_pool(
        scenarios,
        base_seed,
        rule,
        None,
        &progress,
        replicate,
        |_| {},
    )
    .0
}

/// [`run_matrix_with_progress`] without progress reporting.
pub fn run_matrix(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
) -> Vec<ScenarioResult> {
    run_matrix_with_progress(scenarios, base_seed, rule, |_, _, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::scenario::WorkloadKind;
    use crate::experiment::OracleConfig;
    use parking_lot::Mutex;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn small_scenario(policy: PolicyKind) -> Scenario {
        Scenario::small(&format!("test {policy}"), policy)
    }

    fn quick_rule() -> StoppingRule {
        StoppingRule {
            min_replications: 3,
            max_replications: 5,
            ..Default::default()
        }
    }

    fn summary(saturated: bool, mean: f64) -> RepSummary {
        let mut s = RepSummary {
            saturated,
            ..Default::default()
        };
        if !saturated {
            s.mean_turnaround = mean;
            s.turnaround.push(mean);
            s.waiting.push(mean / 2.0);
            s.makespan.push(mean * 2.0);
            s.wasted.push(0.1);
        }
        s
    }

    #[test]
    fn replication_is_deterministic_and_crn() {
        let s = small_scenario(PolicyKind::Rr);
        let a = run_replication(&s, 99, 0);
        let b = run_replication(&s, 99, 0);
        assert_eq!(a.bags, b.bags);
        // Same (seed, rep) with a different policy sees the same workload
        // and failure streams: arrivals match bag-by-bag (completion order
        // may differ, so look bags up by id).
        let s2 = small_scenario(PolicyKind::LongIdle);
        let c = run_replication(&s2, 99, 0);
        let arrival = |r: &RunResult, id: u32| {
            r.bags
                .iter()
                .find(|x| x.bag == id)
                .expect("bag completed")
                .arrival
        };
        assert_eq!(arrival(&a, 0), arrival(&c, 0));
        // Different reps differ.
        let d = run_replication(&s, 99, 1);
        assert_ne!(arrival(&a, 0), arrival(&d, 0));
    }

    #[test]
    fn scenario_runs_to_stopping_rule() {
        let s = small_scenario(PolicyKind::FcfsShare);
        let rule = quick_rule();
        let r = run_scenario(&s, 7, &rule);
        assert!(r.replications >= 3 && r.replications <= 5);
        assert!(!r.saturated);
        assert!(r.turnaround.mean > 0.0);
        assert_eq!(r.replication_means.len() as u64, r.replications);
        assert!(r.turnaround.half_width.is_finite());
        assert!(r.waiting.mean >= 0.0);
        assert!(r.makespan.mean > 0.0);
    }

    #[test]
    fn saturated_scenario_is_flagged_early() {
        let mut s = small_scenario(PolicyKind::FcfsExcl);
        // Make the system hopeless: huge bags, tight horizon.
        if let WorkloadKind::Single(spec) = &mut s.workload {
            spec.bot_type.app_size = 2.0e6;
            spec.count = 10;
        }
        s.sim.horizon = Some(5_000.0);
        let rule = quick_rule();
        let r = run_scenario(&s, 7, &rule);
        assert!(r.saturated);
        assert!(r.saturated_replications > 0);
        assert_eq!(
            r.replications, rule.min_replications,
            "stops at the first batch"
        );
    }

    #[test]
    fn saturated_result_serialises_and_roundtrips() {
        // All replications saturate, so the Welford accumulators stay
        // empty. The raw CI half-width would be infinite — which our JSON
        // writer emits as `null`, unreadable as f64 — so the result must
        // come out clamped, finite, and roundtrippable.
        let mut s = small_scenario(PolicyKind::Rr);
        if let WorkloadKind::Single(spec) = &mut s.workload {
            spec.bot_type.app_size = 2.0e6;
            spec.count = 10;
        }
        s.sim.horizon = Some(5_000.0);
        let r = run_scenario(&s, 7, &quick_rule());
        assert!(r.saturated);
        assert_eq!(r.replication_means.len(), 0);
        for ci in [&r.turnaround, &r.waiting, &r.makespan] {
            assert!(ci.mean.is_finite() && ci.half_width.is_finite());
            assert_eq!(ci.n, 0);
        }
        assert!(r.wasted_fraction.is_finite());
        let json = serde_json::to_string(&r).expect("saturated result serialises");
        assert!(!json.contains("null"), "no field degraded to null: {json}");
        let back: ScenarioResult = serde_json::from_str(&json).expect("roundtrips");
        assert!(back.saturated);
        assert_eq!(back.turnaround.half_width, 0.0);
    }

    #[test]
    fn saturated_batch_drops_partial_statistics() {
        // A sweep that mixes clean and saturated replications must not
        // leak the clean observations into a `saturated: true` result.
        let s = small_scenario(PolicyKind::Rr);
        let rule = quick_rule();
        let mut acc = ScenarioAccum::default();
        for rep in [
            summary(false, 100.0),
            summary(false, 120.0),
            summary(true, 0.0),
        ] {
            acc.absorb(&rep);
        }
        assert_eq!(acc.saturated_reps, 1);
        assert_eq!(acc.means.len(), 2, "clean reps absorbed before the stop");
        let r = acc.into_result(&s, &rule, 3);
        assert!(r.saturated);
        assert_eq!(r.saturated_replications, 1);
        assert_eq!(r.replications, 3);
        assert!(
            r.replication_means.is_empty(),
            "partial statistics must be dropped on saturation"
        );
        for ci in [&r.turnaround, &r.waiting, &r.makespan] {
            assert_eq!(ci.n, 0);
            assert_eq!(ci.mean, 0.0);
            assert_eq!(ci.half_width, 0.0);
        }
        assert_eq!(r.wasted_fraction, 0.0);
    }

    #[test]
    fn merge_fold_matches_streaming_pushes() {
        // The fork/join reduction (singleton Welford + ordered merge) must
        // agree with plain streaming pushes to fp tolerance.
        let means = [100.0, 120.0, 95.0, 110.0, 130.0, 105.0];
        let mut acc = ScenarioAccum::default();
        let mut streamed = Welford::new();
        for &m in &means {
            acc.absorb(&summary(false, m));
            streamed.push(m);
        }
        assert_eq!(acc.turnaround.count(), streamed.count());
        assert!((acc.turnaround.mean() - streamed.mean()).abs() < 1e-12);
        assert!((acc.turnaround.variance() - streamed.variance()).abs() < 1e-9);
    }

    #[test]
    fn instrumented_replication_is_a_perfect_twin() {
        let s = small_scenario(PolicyKind::FcfsShare);
        let plain = run_replication(&s, 42, 0);
        let mut null = crate::sim::NullObserver;
        let (instrumented, report) = run_replication_instrumented(&s, 42, 0, &mut null);
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&instrumented).unwrap(),
            "metrics attachment must not change the run"
        );
        let m = &report.metrics;
        assert_eq!(m.counters["dispatches"], plain.counters.replicas_launched);
        assert_eq!(m.counters["bag_completions"], plain.completed as u64);
        assert_eq!(m.per_bag.len(), plain.completed);
        let util = m.gauges["machine_utilization"];
        assert!(util > 0.0 && util <= 1.0, "utilization in (0,1]: {util}");
        assert!(report.queue.scheduled >= plain.events);
        assert!(report.queue.popped <= report.queue.scheduled);
        assert!(report.queue.max_pending > 0);
        // Per-bag turnarounds agree with the measured bag metrics.
        for bm in &plain.bags {
            let obs = m
                .per_bag
                .iter()
                .find(|o| o.bag == bm.bag)
                .expect("observed bag");
            assert!((obs.turnaround - bm.turnaround).abs() < 1e-9);
            assert!((obs.arrival - bm.arrival).abs() < 1e-9);
        }
        if !cfg!(feature = "timing") {
            assert!(report.spans.is_empty(), "spans must stay off by default");
        }
    }

    #[test]
    fn scenario_result_is_invariant_to_pool_width() {
        let s = small_scenario(PolicyKind::FcfsShare);
        let rule = quick_rule();
        let runs: Vec<String> = [1usize, 2, 4]
            .iter()
            .map(|&w| {
                rayon::with_num_threads(w, || {
                    serde_json::to_string(&run_scenario(&s, 7, &rule)).unwrap()
                })
            })
            .collect();
        assert_eq!(runs[0], runs[1], "1 vs 2 threads");
        assert_eq!(runs[0], runs[2], "1 vs 4 threads");
    }

    #[test]
    fn matrix_runs_all_and_reports_progress() {
        let scenarios: Vec<Scenario> = [PolicyKind::Rr, PolicyKind::FcfsShare]
            .map(small_scenario)
            .to_vec();
        let count = AtomicUsize::new(0);
        let results = run_matrix_with_progress(&scenarios, 3, &quick_rule(), |d, t, _| {
            assert!(d <= t);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(results.len(), 2);
        assert_eq!(count.load(Ordering::Relaxed), 2);
        let names: Vec<&str> = results.iter().map(|r| r.policy.as_str()).collect();
        assert!(names.contains(&"RR") && names.contains(&"FCFS-Share"));
    }

    #[test]
    fn progress_done_is_monotone_under_threads() {
        let scenarios: Vec<Scenario> = [
            PolicyKind::Rr,
            PolicyKind::FcfsShare,
            PolicyKind::LongIdle,
            PolicyKind::FcfsExcl,
        ]
        .map(small_scenario)
        .to_vec();
        let seen = Mutex::new(Vec::new());
        let results = rayon::with_num_threads(4, || {
            run_matrix_with_progress(&scenarios, 3, &quick_rule(), |d, t, name| {
                assert_eq!(t, 4);
                seen.lock().push((d, name.to_string()));
            })
        });
        assert_eq!(results.len(), 4);
        let seen = seen.into_inner();
        assert_eq!(seen.len(), 4, "every completion reported exactly once");
        let dones: Vec<usize> = seen.iter().map(|(d, _)| *d).collect();
        assert_eq!(dones, vec![1, 2, 3, 4], "done is strictly increasing");
        let mut names: Vec<String> = seen.into_iter().map(|(_, n)| n).collect();
        names.sort();
        let mut expect: Vec<String> = scenarios.iter().map(|s| s.name.clone()).collect();
        expect.sort();
        assert_eq!(names, expect, "each scenario reported once");
    }

    /// Runs `scenarios` (and `oracle`'s pairs) on the pool at widths 1, 2
    /// and 4 with the job `fails` picks panicking with `message`, and
    /// checks that the panic reaches the caller with its payload and that
    /// no spawned worker outlives the run.
    fn assert_panic_reaches_the_caller(
        scenarios: &[Scenario],
        oracle: Option<&OraclePass<'_>>,
        fails: impl Fn(&Job) -> bool + Sync,
        message: &str,
    ) {
        // Counts down when a spawned worker thread exits.
        struct Exit(Arc<AtomicUsize>);
        impl Drop for Exit {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static EXIT: RefCell<Option<Exit>> = const { RefCell::new(None) };
        }
        let caller = std::thread::current().id();
        for width in [1usize, 2, 4] {
            let live = Arc::new(AtomicUsize::new(0));
            let job = |job: Job| {
                if std::thread::current().id() != caller {
                    EXIT.with(|exit| {
                        exit.borrow_mut().get_or_insert_with(|| {
                            live.fetch_add(1, Ordering::SeqCst);
                            Exit(Arc::clone(&live))
                        });
                    });
                }
                if fails(&job) {
                    panic!("{message}");
                }
                match oracle {
                    Some(oracle) => oracle.run(job),
                    None => {
                        let (i, rep) = job.rep();
                        Output::Rep(RepSummary::of(&run_replication(&scenarios[i], 3, rep)))
                    }
                }
            };
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                rayon::with_num_threads(width, || {
                    run_pool(
                        scenarios,
                        3,
                        &quick_rule(),
                        oracle,
                        &|_, _, _| {},
                        job,
                        |_| {},
                    )
                })
            }));
            let payload = caught.expect_err("the panic reaches the caller");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, message, "width {width}");
            assert_eq!(
                live.load(Ordering::SeqCst),
                0,
                "a worker thread outlived the run at width {width}"
            );
        }
    }

    #[test]
    fn a_panicking_replication_reaches_the_caller_and_stops_the_pool() {
        let scenarios: Vec<Scenario> = [PolicyKind::Rr, PolicyKind::FcfsShare, PolicyKind::Sbf]
            .map(small_scenario)
            .to_vec();
        assert_panic_reaches_the_caller(
            &scenarios,
            None,
            |job| matches!(job, Job::Rep(1, 1)),
            "replication 1 of scenario 1 failed",
        );
    }

    #[test]
    fn a_panicking_oracle_job_reaches_the_caller_and_stops_the_pool() {
        let scenarios: Vec<Scenario> = [PolicyKind::Rr, PolicyKind::Sbf]
            .map(small_scenario)
            .to_vec();
        let ocfg = OracleConfig {
            restarts: 3,
            iters: 4,
            seed: 1,
            replications: 2,
        };
        let oracle = OraclePass::new(&scenarios, 3, &ocfg, None);
        assert_panic_reaches_the_caller(
            &scenarios,
            Some(&oracle),
            |job| matches!(job, Job::Replay(_, PolicyKind::LongIdle)),
            "the LongIdle replay failed",
        );
        assert_panic_reaches_the_caller(
            &scenarios,
            Some(&oracle),
            |job| matches!(job, Job::Restart(1, _, 2)),
            "restart 2 of pair 1 failed",
        );
    }

    #[test]
    fn every_oracle_job_runs_once_at_any_width() {
        // Two environment groups (two grid classes) of two policies each.
        let mut scenarios: Vec<Scenario> = [PolicyKind::Rr, PolicyKind::Sbf]
            .map(small_scenario)
            .to_vec();
        for policy in [PolicyKind::Rr, PolicyKind::Sbf] {
            let mut s = small_scenario(policy);
            s.name = format!("low {policy}");
            s.grid.availability = dgsched_grid::Availability::LOW;
            scenarios.push(s);
        }
        let ocfg = OracleConfig {
            restarts: 3,
            iters: 4,
            seed: 1,
            replications: 2,
        };
        let oracle = OraclePass::new(&scenarios, 3, &ocfg, None);
        assert_eq!(oracle.pairs(), 4);
        let mut runs = Vec::new();
        for width in [1usize, 2, 4] {
            let ran = Mutex::new(BTreeMap::<(char, usize, u32), u32>::new());
            let job = |job: Job| {
                let key = match &job {
                    Job::Rep(i, rep) => ('s', *i, *rep as u32),
                    Job::Capture(p) => ('c', *p, 0),
                    Job::Replay(_, kind) => ('p', 0, *kind as u32),
                    Job::Restart(p, _, r) => ('r', *p, *r),
                };
                *ran.lock().entry(key).or_default() += 1;
                oracle.run(job)
            };
            let restarts = Mutex::new(Vec::new());
            let record = |record: Record<'_>| {
                if let Record::Restart(p, outcome) = record {
                    restarts.lock().push((p, outcome.restart));
                }
            };
            let (results, oracle_reps) = rayon::with_num_threads(width, || {
                run_pool(
                    &scenarios,
                    3,
                    &quick_rule(),
                    Some(&oracle),
                    &|_, _, _| {},
                    job,
                    record,
                )
            });
            let ran = ran.into_inner();
            for p in 0..4 {
                assert_eq!(ran[&('c', p, 0)], 1, "capture of pair {p} at width {width}");
                for r in 0..3 {
                    assert_eq!(
                        ran[&('r', p, r)],
                        1,
                        "restart {r} of pair {p} at width {width}"
                    );
                }
            }
            let replays: u32 = ran.iter().filter(|(k, _)| k.0 == 'p').map(|(_, n)| n).sum();
            assert_eq!(
                replays,
                4 * 7,
                "one replay per pair and policy at width {width}"
            );
            let mut recorded = restarts.into_inner();
            recorded.sort_unstable();
            let expect: Vec<(usize, u32)> =
                (0..4).flat_map(|p| (0..3).map(move |r| (p, r))).collect();
            assert_eq!(
                recorded, expect,
                "each restart recorded once at width {width}"
            );
            runs.push(serde_json::to_string(&(results, oracle_reps)).unwrap());
        }
        assert_eq!(runs[0], runs[1], "1 vs 2 threads");
        assert_eq!(runs[0], runs[2], "1 vs 4 threads");
    }
}
