//! Run state, event routing and the public `simulate*` entry points.
//!
//! The driver owns everything a run needs — machine and bag state, the
//! incremental indices, the RNG streams — and routes each event to the
//! dispatch / lifecycle / fault subsystems. The scheduling semantics live
//! in those modules; this one only wires them together.

use super::config::{MachineOrder, SimConfig};
use super::events::Event;
use super::indices::{FreeMachineIndex, TaskReplicaIndex};
use super::metrics::{BagMetrics, Counters, MachineStats, MetricsObserver, RunResult};
use super::observer::{Fanout, NullObserver, SimObserver};
use super::replay::{ReplayState, TraceEnv};
use crate::policy::{BagSelection, PolicyKind};
use crate::state::{BagRt, Machines, ReplicaId, ReplicaSlab};
use dgsched_des::engine::QueueOps;
use dgsched_des::engine::{Control, Engine, Handler, RunOutcome, Scheduler};
use dgsched_des::event::EventId;
use dgsched_des::rng::StreamSeeder;
use dgsched_des::time::SimTime;
use dgsched_grid::availability::UpDownSampler;
use dgsched_grid::checkpoint::{CheckpointSampler, CheckpointStore};
use dgsched_grid::outage::OutageSampler;
use dgsched_grid::{Grid, MachineId};
use dgsched_obs::{MetricsSnapshot, Profiler, SpanId, SpanStats};
use dgsched_workload::{BotId, Workload};
use serde::{Deserialize, Serialize};

/// Everything a run needs besides the policy (split so the policy can
/// borrow a read-only view while the driver stays mutable).
#[derive(Clone)]
pub(super) struct SimState {
    pub(super) machines: Machines,
    pub(super) bags: Vec<BagRt>,
    /// Incomplete, arrived bags in arrival order.
    pub(super) active: Vec<BotId>,
    pub(super) slab: ReplicaSlab,
    pub(super) store: CheckpointStore,
    /// Free machines, iterable in the configured machine order. Maintained
    /// on every dispatch / free / fail / repair (in reference mode too, so
    /// both modes exercise the same mutation paths).
    pub(super) free: FreeMachineIndex,
    /// Running replicas per task (keyed by checkpoint key), for sibling
    /// kills. Bounded by the machine count.
    pub(super) task_replicas: TaskReplicaIndex,
    /// Scratch buffer for sibling kills, reused across completions.
    pub(super) sibling_scratch: Vec<ReplicaId>,
    /// Next bag's offset into the checkpoint store's key space.
    pub(super) next_ckpt_base: usize,
    /// Young's checkpoint interval (wall seconds), `inf` disables.
    pub(super) tau: f64,
    pub(super) ckpt: CheckpointSampler,
    pub(super) avail: Option<UpDownSampler>,
    pub(super) outage: Option<OutageSampler>,
    pub(super) outage_rng: rand::rngs::StdRng,
    pub(super) completed_bags: usize,
    pub(super) counters: Counters,
    pub(super) measured: Vec<BagMetrics>,
    /// Cumulative machine power, machines sorted fastest-first — the
    /// usable-power table for the per-bag ideal-makespan (slowdown) bound.
    pub(super) power_prefix: Vec<f64>,
}

/// `'a` borrows the run's inputs, `'o` the observer.
pub(super) struct Driver<'a, 'o> {
    pub(super) state: SimState,
    pub(super) policy: Box<dyn BagSelection>,
    pub(super) workload: &'a Workload,
    pub(super) cfg: SimConfig,
    pub(super) saturated: bool,
    pub(super) observer: &'o mut dyn SimObserver,
    /// Full-scan mode: selection bypasses the incremental indices (the
    /// indices are still maintained, just not consulted). Used to validate
    /// index equivalence.
    pub(super) reference: bool,
    /// Lazy availability is in force: idle machines carry no fail/repair
    /// events; their renewal state lives in `machines.cycle_end` and is
    /// fast-forwarded on demand (see `SimConfig::lazy_availability`).
    pub(super) lazy: bool,
    /// Trace replay is in force: fault handlers consume the recorded
    /// timeline instead of drawing from the availability/outage RNG
    /// streams (see [`super::replay`]). Mutually exclusive with `lazy`.
    pub(super) replay: Option<ReplayState<'a>>,
    /// Wall-clock profiling spans. All recording compiles to nothing
    /// unless the `timing` feature is on.
    pub(super) prof: Profiler,
    pub(super) span_round: SpanId,
    pub(super) span_dispatch: SpanId,
}

impl Handler<Event> for Driver<'_, '_> {
    fn handle(&mut self, event: Event, sched: &mut Scheduler<'_, Event>) -> Control {
        match event {
            Event::BagArrival(i) => {
                self.bag_arrival(i, sched);
                Control::Continue
            }
            Event::MachineFail(m) => {
                self.machine_fail(m, sched);
                Control::Continue
            }
            Event::MachineRepair(m) => {
                self.machine_repair(m, sched);
                Control::Continue
            }
            Event::Replica(rid) => self.replica_event(rid, sched),
            Event::Outage => {
                self.outage(sched);
                Control::Continue
            }
        }
    }
}

/// Derives a generous simulated-time cap for saturation detection: ten
/// times the span a stable system would need to drain the workload.
///
/// A grid with no effective power (validation rejects these up front, but
/// `simulate` can be handed a hand-built [`Grid`] directly) would make the
/// division NaN/∞; such runs fall back to an *infinite* horizon — the
/// engine treats it as "no time cap" and the event budget remains the
/// saturation guard — rather than feeding NaN into the event queue.
fn auto_horizon(grid: &Grid, workload: &Workload) -> f64 {
    let last_arrival = workload
        .bags
        .last()
        .map(|b| b.arrival.as_secs())
        .unwrap_or(0.0);
    let power = grid.config.effective_power();
    if !(power.is_finite() && power > 0.0) {
        return f64::INFINITY;
    }
    let drain = workload.total_work() / power;
    let horizon = 10.0 * (last_arrival + drain) + 1e6;
    if horizon.is_finite() {
        horizon
    } else {
        f64::INFINITY
    }
}

/// Runs one simulation of `workload` on `grid` under `policy`.
///
/// The returned [`RunResult`] contains per-bag metrics for completed,
/// post-warmup bags and run-wide counters. A run that cannot drain the
/// workload within its horizon or event budget is flagged `saturated`.
pub fn simulate(
    grid: &Grid,
    workload: &Workload,
    policy: PolicyKind,
    cfg: &SimConfig,
) -> RunResult {
    let boxed = policy.create_seeded(cfg.seed);
    simulate_with(grid, workload, boxed, cfg)
}

/// [`simulate`] with a caller-constructed policy (custom implementations of
/// [`BagSelection`] welcome).
pub fn simulate_with(
    grid: &Grid,
    workload: &Workload,
    policy: Box<dyn BagSelection>,
    cfg: &SimConfig,
) -> RunResult {
    let mut observer = NullObserver;
    simulate_observed(grid, workload, policy, cfg, &mut observer)
}

/// Instrumentation collected alongside a [`RunResult`] by
/// [`simulate_instrumented`]: the named-metric snapshot, the kernel's
/// event-queue operation counts and (with the `timing` feature) wall-clock
/// profiling spans.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimReport {
    /// Counters, gauges, time-weighted series and per-bag turnarounds.
    pub metrics: MetricsSnapshot,
    /// Pending-event-set operation counts for the run.
    pub queue: QueueOps,
    /// Wall-clock spans (scheduler round, dispatch, event-queue pop).
    /// Empty unless the build enables the `timing` feature.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub spans: Vec<SpanStats>,
}

/// [`simulate_observed`] plus a [`MetricsObserver`] riding the same seam:
/// returns the ordinary [`RunResult`] (identical to the uninstrumented
/// run) together with a [`SimReport`]. `observer` still receives every
/// callback, so a tracer can be attached at the same time.
pub fn simulate_instrumented(
    grid: &Grid,
    workload: &Workload,
    policy: Box<dyn BagSelection>,
    cfg: &SimConfig,
    observer: &mut dyn SimObserver,
) -> (RunResult, SimReport) {
    let mut metrics = MetricsObserver::new();
    let mut fan = Fanout(observer, &mut metrics);
    let (result, mut report) = run_reported(grid, workload, policy, cfg, &mut fan, false, None);
    report.metrics = metrics.finish(SimTime::new(result.end_time), result.machines.len());
    (result, report)
}

/// [`simulate_with`] plus an observer that receives every dispatch,
/// completion, kill, failure, repair, arrival and checkpoint (see
/// [`SimObserver`]); used for tracing and invariant checking.
pub fn simulate_observed(
    grid: &Grid,
    workload: &Workload,
    policy: Box<dyn BagSelection>,
    cfg: &SimConfig,
    observer: &mut dyn SimObserver,
) -> RunResult {
    run(grid, workload, policy, cfg, observer, false)
}

/// [`simulate_observed`] in reference mode: every scheduling decision is
/// recomputed with naive full scans instead of the incremental indices.
/// Slower, but structurally independent of the index bookkeeping — the
/// equivalence tests replay scenarios in both modes and require identical
/// traces.
pub fn simulate_observed_reference(
    grid: &Grid,
    workload: &Workload,
    policy: Box<dyn BagSelection>,
    cfg: &SimConfig,
    observer: &mut dyn SimObserver,
) -> RunResult {
    run(grid, workload, policy, cfg, observer, true)
}

/// Replays `policy` against the recorded fault timeline `env` instead of
/// the live availability/outage RNG streams (see [`super::replay`]).
///
/// Replaying the policy whose run produced the trace reproduces its
/// original [`RunResult`] byte-identically; replaying a *different*
/// policy yields the run that policy would have produced under the same
/// seed, because the environment streams are policy-independent. This is
/// the evaluation seam of the hindsight oracle.
///
/// # Panics
/// Panics when `env` was extracted for a different machine count, when
/// `cfg` requests lazy availability (traces must be captured and replayed
/// in eager mode — the default), or when the replay diverges from the
/// recorded timeline.
pub fn simulate_replayed(
    grid: &Grid,
    workload: &Workload,
    policy: Box<dyn BagSelection>,
    cfg: &SimConfig,
    env: &TraceEnv,
) -> RunResult {
    let mut observer = NullObserver;
    simulate_replayed_observed(grid, workload, policy, cfg, env, &mut observer)
}

/// [`simulate_replayed`] with an observer attached (e.g. to re-capture
/// the replayed run's trace).
pub fn simulate_replayed_observed(
    grid: &Grid,
    workload: &Workload,
    policy: Box<dyn BagSelection>,
    cfg: &SimConfig,
    env: &TraceEnv,
    observer: &mut dyn SimObserver,
) -> RunResult {
    check_replay_inputs(grid, cfg, env);
    run_reported(grid, workload, policy, cfg, observer, false, Some(env)).0
}

fn check_replay_inputs(grid: &Grid, cfg: &SimConfig, env: &TraceEnv) {
    assert_eq!(
        env.machines(),
        grid.len(),
        "trace environment does not match the grid"
    );
    assert!(
        !cfg.lazy_availability,
        "trace replay requires eager availability (lazy traces reorder fault records)"
    );
}

/// A replayed run paused before its first event at or after some instant:
/// the engine, the run state and the trace cursors — everything but the
/// policy and the observer, which a resumed run supplies afresh.
#[derive(Clone)]
pub(crate) struct ReplaySnapshot<'a> {
    engine: Engine<Event>,
    state: SimState,
    cursors: ReplayState<'a>,
    workload: &'a Workload,
    cfg: SimConfig,
}

/// A replayed run together with the snapshots it took on the way.
pub(crate) struct SnapshotRun<'a> {
    pub(crate) result: RunResult,
    /// Per bag, in id order: its completion instant, `f64::INFINITY` when
    /// it never completed.
    pub(crate) completions: Vec<f64>,
    /// One snapshot per requested instant, in order, until the run ended.
    pub(crate) snapshots: Vec<ReplaySnapshot<'a>>,
}

/// [`simulate_replayed`] that also snapshots the run before its first
/// event at or after each of the ascending instants `at`.
pub(crate) fn simulate_replayed_snapshots<'a>(
    grid: &Grid,
    workload: &'a Workload,
    policy: Box<dyn BagSelection>,
    cfg: &SimConfig,
    env: &'a TraceEnv,
    at: &[SimTime],
) -> SnapshotRun<'a> {
    check_replay_inputs(grid, cfg, env);
    let mut observer = NullObserver;
    let (mut engine, mut driver) =
        start(grid, workload, policy, cfg, &mut observer, false, Some(env));
    let (snapshots, ended) = take_snapshots(&mut engine, &mut driver, at);
    conclude(engine, driver, ended, snapshots)
}

/// Continues `from` under `policy` to the end of the run.
///
/// The result equals a full replay of `policy` exactly when `policy`
/// would have made every decision the snapshotted run made before the
/// snapshot: the caller's proof obligation.
pub(crate) fn resume_replayed<'a>(
    from: &ReplaySnapshot<'a>,
    policy: Box<dyn BagSelection>,
) -> SnapshotRun<'a> {
    let mut observer = NullObserver;
    let (engine, driver) = restore(from, policy, &mut observer);
    conclude(engine, driver, None, Vec::new())
}

/// Continues `from` under `policy` only as far as the ascending instants
/// `at` (all later than `from`'s), snapshotting before the first event at
/// or after each; fewer snapshots when the run ends first.
pub(crate) fn advance_replayed<'a>(
    from: &ReplaySnapshot<'a>,
    policy: Box<dyn BagSelection>,
    at: &[SimTime],
) -> Vec<ReplaySnapshot<'a>> {
    let mut observer = NullObserver;
    let (mut engine, mut driver) = restore(from, policy, &mut observer);
    take_snapshots(&mut engine, &mut driver, at).0
}

fn restore<'a, 'o>(
    from: &ReplaySnapshot<'a>,
    policy: Box<dyn BagSelection>,
    observer: &'o mut dyn SimObserver,
) -> (Engine<Event>, Driver<'a, 'o>) {
    let (prof, span_round, span_dispatch) = profiler();
    let driver = Driver {
        state: from.state.clone(),
        policy,
        workload: from.workload,
        cfg: from.cfg,
        saturated: false,
        observer,
        reference: false,
        lazy: false,
        replay: Some(from.cursors.clone()),
        prof,
        span_round,
        span_dispatch,
    };
    (from.engine.clone(), driver)
}

/// Runs to before the first event at or after each instant in turn and
/// snapshots there; the outcome is `Some` when the run ended first.
fn take_snapshots<'a>(
    engine: &mut Engine<Event>,
    driver: &mut Driver<'a, '_>,
    at: &[SimTime],
) -> (Vec<ReplaySnapshot<'a>>, Option<RunOutcome>) {
    let mut snapshots = Vec::with_capacity(at.len());
    for &t in at {
        if let Some(outcome) = engine.run_until(driver, t) {
            return (snapshots, Some(outcome));
        }
        snapshots.push(ReplaySnapshot {
            engine: engine.clone(),
            state: driver.state.clone(),
            cursors: driver.replay.clone().expect("a replayed run"),
            workload: driver.workload,
            cfg: driver.cfg,
        });
    }
    (snapshots, None)
}

/// Runs to the end (unless `ended` says the run is over) and settles.
fn conclude<'a>(
    mut engine: Engine<Event>,
    mut driver: Driver<'a, '_>,
    ended: Option<RunOutcome>,
    snapshots: Vec<ReplaySnapshot<'a>>,
) -> SnapshotRun<'a> {
    let outcome = ended.unwrap_or_else(|| engine.run(&mut driver));
    let mut completions: Vec<f64> = driver
        .state
        .bags
        .iter()
        .map(|b| b.completed_at.map_or(f64::INFINITY, SimTime::as_secs))
        .collect();
    completions.resize(driver.workload.len(), f64::INFINITY);
    let (result, _) = finish(&engine, driver, outcome);
    SnapshotRun {
        result,
        completions,
        snapshots,
    }
}

fn run(
    grid: &Grid,
    workload: &Workload,
    policy: Box<dyn BagSelection>,
    cfg: &SimConfig,
    observer: &mut dyn SimObserver,
    reference: bool,
) -> RunResult {
    run_reported(grid, workload, policy, cfg, observer, reference, None).0
}

fn run_reported(
    grid: &Grid,
    workload: &Workload,
    policy: Box<dyn BagSelection>,
    cfg: &SimConfig,
    observer: &mut dyn SimObserver,
    reference: bool,
    replay: Option<&TraceEnv>,
) -> (RunResult, SimReport) {
    let (mut engine, mut driver) = start(grid, workload, policy, cfg, observer, reference, replay);
    let outcome = engine.run(&mut driver);
    finish(&engine, driver, outcome)
}

/// Builds the engine and driver of a run, with arrivals and first faults
/// primed.
fn start<'a, 'o>(
    grid: &Grid,
    workload: &'a Workload,
    policy: Box<dyn BagSelection>,
    cfg: &SimConfig,
    observer: &'o mut dyn SimObserver,
    reference: bool,
    replay: Option<&'a TraceEnv>,
) -> (Engine<Event>, Driver<'a, 'o>) {
    assert!(!grid.is_empty(), "cannot schedule on an empty grid");
    assert!(!workload.is_empty(), "cannot simulate an empty workload");
    workload.validate().expect("invalid workload");
    assert!(
        cfg.replication_threshold >= 1,
        "replication threshold must be at least 1"
    );

    let seeder = StreamSeeder::new(cfg.seed);
    let avail = grid.config.availability.sampler();
    let ckpt = grid.config.checkpoint.sampler();
    let tau = grid
        .config
        .checkpoint
        .interval_for_mtbf(grid.config.machine_mtbf());

    let mut machines = Machines::with_capacity(grid.len());
    for m in &grid.machines {
        machines.push(
            m.power,
            seeder.stream("machine-avail", u64::from(m.id.0)),
            seeder.stream("machine-xfer", u64::from(m.id.0)),
        );
    }

    let powers: Vec<f64> = grid.machines.iter().map(|m| m.power).collect();
    let mut free = FreeMachineIndex::new(&powers, cfg.machine_order);
    for i in 0..machines.len() {
        free.insert(MachineId(i as u32));
    }
    let power_prefix = {
        let mut sorted = powers;
        sorted.sort_by(|a, b| b.total_cmp(a));
        sorted
            .iter()
            .scan(0.0, |acc, p| {
                *acc += p;
                Some(*acc)
            })
            .collect()
    };

    let mut engine: Engine<Event> = Engine::new();
    engine.set_event_limit(cfg.event_limit);
    let horizon = cfg.horizon.unwrap_or_else(|| auto_horizon(grid, workload));
    engine.set_horizon(SimTime::new(horizon));

    let (prof, span_round, span_dispatch) = profiler();

    // Lazy availability needs a failure process to elide, and is off under
    // the two knobs that consume failure observations the moment they
    // happen (their observation order is exactly what laziness reorders).
    // Replay is eager by construction: every recorded transition is a real
    // event, so the replayed run must materialise them eagerly too.
    let lazy = cfg.lazy_availability
        && avail.is_some()
        && replay.is_none()
        && cfg.machine_order != MachineOrder::FewestFailuresFirst
        && cfg.dynamic_replication.is_none();
    if replay.is_some() {
        assert!(
            horizon.is_finite(),
            "trace replay needs a finite horizon so sentinel events never fire"
        );
    }

    let mut driver = Driver {
        state: SimState {
            machines,
            bags: Vec::with_capacity(workload.len()),
            active: Vec::new(),
            slab: ReplicaSlab::new(),
            store: CheckpointStore::new(),
            free,
            task_replicas: TaskReplicaIndex::default(),
            sibling_scratch: Vec::new(),
            next_ckpt_base: 0,
            tau,
            ckpt,
            avail,
            outage: grid.config.outages.map(|o| o.sampler()),
            outage_rng: seeder.stream("outages", 0),
            completed_bags: 0,
            counters: Counters::default(),
            measured: Vec::new(),
            power_prefix,
        },
        policy,
        workload,
        cfg: *cfg,
        saturated: false,
        observer,
        reference,
        lazy,
        replay: replay.map(ReplayState::new),
        prof,
        span_round,
        span_dispatch,
    };

    // Prime arrivals and, on failing grids, every machine's first failure.
    for bag in &workload.bags {
        engine.prime(bag.arrival, Event::BagArrival(bag.id.0));
    }
    if let Some(rp) = driver.replay.as_ref() {
        // Replay: the same priming structure as the eager branch below —
        // one pending failure per machine, one outage — but at recorded
        // instants (sentinels when the trace holds none), so event-id
        // allocation matches the live run exactly.
        if driver.state.avail.is_some() {
            for i in 0..driver.state.machines.len() {
                let at = rp.next_personal_fail(i);
                driver.state.machines.hot[i].next_transition =
                    engine.prime(at, Event::MachineFail(MachineId(i as u32)));
            }
        }
        if driver.state.outage.is_some() {
            engine.prime(rp.next_outage(), Event::Outage);
        }
    } else if let Some(avail) = driver.state.avail {
        if driver.lazy {
            // No events yet: record each machine's first up-window end and
            // reconstruct from there on demand. Same draws, same order, as
            // the eager priming below — trajectories are identical.
            for i in 0..driver.state.machines.len() {
                driver.state.machines.hot[i].cycle_end =
                    avail.next_up(&mut driver.state.machines.avail_rng[i]);
            }
        } else {
            for i in 0..driver.state.machines.len() {
                let up = avail.next_up(&mut driver.state.machines.avail_rng[i]);
                driver.state.machines.hot[i].next_transition =
                    engine.prime(SimTime::new(up), Event::MachineFail(MachineId(i as u32)));
            }
        }
    }
    if driver.replay.is_none() {
        if let Some(outage) = driver.state.outage {
            let gap = outage.next_gap(&mut driver.state.outage_rng);
            engine.prime(SimTime::new(gap), Event::Outage);
        }
    }

    (engine, driver)
}

/// The profiler of a run and its two driver spans.
fn profiler() -> (Profiler, SpanId, SpanId) {
    let mut prof = Profiler::new();
    let span_round = prof.span("scheduler_round");
    let span_dispatch = prof.span("dispatch");
    (prof, span_round, span_dispatch)
}

/// Settles a finished run into its result and report.
fn finish(
    engine: &Engine<Event>,
    mut driver: Driver<'_, '_>,
    outcome: RunOutcome,
) -> (RunResult, SimReport) {
    let workload = driver.workload;
    driver.saturated =
        !matches!(outcome, RunOutcome::Stopped) || driver.state.completed_bags < workload.len();

    // Lazy mode: settle every idle machine's elided failures up to the end
    // of the run so the reported failure counts match the eager ones.
    // Machines with a materialised transition (busy, or known-down) advance
    // through events and must not be double-walked.
    if driver.lazy {
        if let Some(avail) = driver.state.avail {
            let t = engine.now().as_secs();
            let ms = &mut driver.state.machines;
            let mut settled = 0;
            for i in 0..ms.len() {
                if ms.hot[i].next_transition == EventId::NONE {
                    let (rng, h) = (&mut ms.avail_rng[i], &mut ms.hot[i]);
                    let f = avail.fast_forward(rng, &mut h.up, &mut h.cycle_end, t);
                    ms.failures[i] += f;
                    settled += f;
                }
            }
            driver.state.counters.machine_failures += settled;
        }
    }

    let policy_name = driver.policy.name().to_string();
    let ms = &driver.state.machines;
    let machines = (0..ms.len())
        .map(|i| MachineStats {
            machine: i as u32,
            power: ms.hot[i].power,
            busy_time: ms.hot[i].busy_time,
            failures: ms.failures[i],
        })
        .collect();
    driver.prof.absorb("event_queue_pop", engine.pop_span());
    let spans = if driver.prof.is_empty() {
        Vec::new()
    } else {
        driver.prof.stats()
    };
    let result = RunResult {
        policy: policy_name,
        bags: driver.state.measured,
        machines,
        completed: driver.state.completed_bags,
        total: workload.len(),
        saturated: driver.saturated,
        end_time: engine.now().as_secs(),
        events: engine.processed(),
        counters: driver.state.counters,
    };
    let report = SimReport {
        metrics: MetricsSnapshot::default(),
        queue: engine.queue_ops(),
        spans,
    };
    (result, report)
}
