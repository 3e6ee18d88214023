//! Generic discrete-event simulation driver.
//!
//! The [`Engine`] owns the clock and the pending-event set (a
//! [`BinaryHeapQueue`]); domain logic lives in a [`Handler`] that receives
//! events in time order and schedules follow-ups through the [`Scheduler`]
//! facade. This split keeps the hot loop monomorphised and allocation-free
//! while letting the grid simulator stay oblivious to queue internals.

use crate::event::EventId;
use crate::profile::{stamp, SpanTimes};
use crate::queue::{BinaryHeapQueue, PendingEvents};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Operation counts against the pending-event set, maintained by the
/// engine.
///
/// These are plain counters (not wall-clock spans), so they are always on:
/// incrementing an integer per queue call is free next to the queue call
/// itself, and the counts show how deep the queue runs and which policies
/// are cancellation-heavy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueOps {
    /// Events inserted (priming and in-run scheduling).
    pub scheduled: u64,
    /// Cancellations that hit a still-pending event.
    pub cancelled: u64,
    /// Events popped and handed to the handler (or dropped at the horizon).
    pub popped: u64,
    /// High-water mark of live pending events.
    pub max_pending: u64,
}

/// Scheduling facade handed to the [`Handler`] during event processing.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut BinaryHeapQueue<E>,
    ops: &'a mut QueueOps,
}

impl<E> Scheduler<'_, E> {
    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire `delay` seconds from now.
    ///
    /// # Panics
    /// Panics if `delay` is negative (the past is immutable).
    #[inline]
    pub fn schedule_in(&mut self, delay: f64, payload: E) -> EventId {
        assert!(
            delay >= 0.0,
            "cannot schedule an event in the past (delay={delay})"
        );
        let id = self.queue.schedule(self.now + delay, payload);
        self.ops.scheduled += 1;
        self.ops.max_pending = self.ops.max_pending.max(self.queue.len() as u64);
        id
    }

    /// Schedules `payload` at an absolute time `at >= now`.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past (at={at}, now={})",
            self.now
        );
        let id = self.queue.schedule(at, payload);
        self.ops.scheduled += 1;
        self.ops.max_pending = self.ops.max_pending.max(self.queue.len() as u64);
        id
    }

    /// Cancels a pending event; returns `true` if it was still pending.
    #[inline]
    pub fn cancel(&mut self, id: EventId) -> bool {
        let hit = self.queue.cancel(id);
        self.ops.cancelled += u64::from(hit);
        hit
    }

    /// Number of live pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Outcome of handling one event: continue or stop the run early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep processing events.
    Continue,
    /// Stop after this event (e.g. termination condition reached).
    Stop,
}

/// Domain logic driven by the engine.
pub trait Handler<E> {
    /// Handles one event at its firing time. Schedule follow-up events via
    /// `sched`.
    fn handle(&mut self, event: E, sched: &mut Scheduler<'_, E>) -> Control;
}

/// Why the run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pending-event set drained.
    Drained,
    /// The handler requested a stop.
    Stopped,
    /// The event budget was exhausted before draining (see
    /// [`Engine::set_event_limit`]); usually indicates saturation.
    EventLimit,
    /// The time horizon was reached.
    Horizon,
}

/// The simulation engine: clock + pending-event set + run loop.
///
/// Cloning an engine paused by [`Engine::run_until`] forks the run: the
/// clone and the original each continue exactly as the uninterrupted run
/// would, given handlers in equal states.
#[derive(Debug, Clone)]
pub struct Engine<E> {
    now: SimTime,
    queue: BinaryHeapQueue<E>,
    processed: u64,
    event_limit: u64,
    horizon: SimTime,
    ops: QueueOps,
    pop_span: SpanTimes,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with an empty pending-event set.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: BinaryHeapQueue::new(),
            processed: 0,
            event_limit: u64::MAX,
            horizon: SimTime::FAR_FUTURE,
            ops: QueueOps::default(),
            pop_span: SpanTimes::default(),
        }
    }

    /// Caps the number of processed events; the run ends with
    /// [`RunOutcome::EventLimit`] when exceeded.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Caps simulated time; events after `horizon` are not processed.
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = horizon;
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Queue operation counts accumulated so far (see [`QueueOps`]).
    pub fn queue_ops(&self) -> QueueOps {
        self.ops
    }

    /// Wall-clock time spent inside `queue.pop()` during [`Engine::run`].
    /// All zero unless the `timing` feature is enabled.
    pub fn pop_span(&self) -> SpanTimes {
        self.pop_span
    }

    /// Schedules an event before the run starts (or between runs).
    pub fn prime(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(at >= self.now, "cannot prime an event in the past");
        let id = self.queue.schedule(at, payload);
        self.ops.scheduled += 1;
        self.ops.max_pending = self.ops.max_pending.max(self.queue.len() as u64);
        id
    }

    /// Runs the handler until the queue drains, the handler stops the run,
    /// or a budget is exhausted.
    pub fn run<H: Handler<E>>(&mut self, handler: &mut H) -> RunOutcome {
        loop {
            if self.processed >= self.event_limit {
                return RunOutcome::EventLimit;
            }
            #[allow(clippy::let_unit_value, reason = "unit Stamp without `timing`")]
            let t = stamp();
            let popped = self.queue.pop();
            self.pop_span.record(t);
            let Some((time, _id, payload)) = popped else {
                return RunOutcome::Drained;
            };
            self.ops.popped += 1;
            debug_assert!(
                time >= self.now,
                "event queue returned an event from the past"
            );
            if time > self.horizon {
                // Leave the clock at the horizon; the event is dropped.
                self.now = self.horizon;
                return RunOutcome::Horizon;
            }
            self.now = time;
            self.processed += 1;
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
                ops: &mut self.ops,
            };
            if handler.handle(payload, &mut sched) == Control::Stop {
                return RunOutcome::Stopped;
            }
        }
    }

    /// [`Engine::run`] that pauses before the first event at or after
    /// `until`. Returns `None` when paused there, or the outcome when the
    /// run ended first.
    ///
    /// Pausing only peeks at the queue (which settles the root exactly as
    /// the next pop would), so a later `run` or `run_until` — on this
    /// engine or on a clone — continues the uninterrupted run: the same
    /// events, ids, counts and queue layout.
    pub fn run_until<H: Handler<E>>(
        &mut self,
        handler: &mut H,
        until: SimTime,
    ) -> Option<RunOutcome> {
        loop {
            if self.processed >= self.event_limit {
                return Some(RunOutcome::EventLimit);
            }
            if self.queue.peek_time().is_some_and(|t| t >= until) {
                return None;
            }
            #[allow(clippy::let_unit_value, reason = "unit Stamp without `timing`")]
            let t = stamp();
            let popped = self.queue.pop();
            self.pop_span.record(t);
            let Some((time, _id, payload)) = popped else {
                return Some(RunOutcome::Drained);
            };
            self.ops.popped += 1;
            if time > self.horizon {
                self.now = self.horizon;
                return Some(RunOutcome::Horizon);
            }
            self.now = time;
            self.processed += 1;
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
                ops: &mut self.ops,
            };
            if handler.handle(payload, &mut sched) == Control::Stop {
                return Some(RunOutcome::Stopped);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A handler that models a tiny birth process: each event spawns one
    /// follow-up a fixed delay later, up to a population cap.
    struct Birth {
        spawned: u32,
        cap: u32,
        log: Vec<f64>,
    }

    impl Handler<u32> for Birth {
        fn handle(&mut self, event: u32, sched: &mut Scheduler<'_, u32>) -> Control {
            self.log.push(sched.now().as_secs());
            if self.spawned < self.cap {
                self.spawned += 1;
                sched.schedule_in(1.5, event + 1);
            }
            Control::Continue
        }
    }

    #[test]
    fn drains_in_time_order() {
        let mut engine = Engine::new();
        engine.prime(SimTime::new(0.0), 0);
        let mut h = Birth {
            spawned: 0,
            cap: 4,
            log: Vec::new(),
        };
        assert_eq!(engine.run(&mut h), RunOutcome::Drained);
        assert_eq!(h.log, vec![0.0, 1.5, 3.0, 4.5, 6.0]);
        assert_eq!(engine.processed(), 5);
        assert_eq!(engine.now().as_secs(), 6.0);
    }

    #[test]
    fn event_limit_reports_saturation() {
        let mut engine = Engine::new();
        engine.set_event_limit(3);
        engine.prime(SimTime::new(0.0), 0);
        let mut h = Birth {
            spawned: 0,
            cap: u32::MAX,
            log: Vec::new(),
        };
        assert_eq!(engine.run(&mut h), RunOutcome::EventLimit);
        assert_eq!(h.log.len(), 3);
    }

    #[test]
    fn horizon_stops_clock() {
        let mut engine = Engine::new();
        engine.set_horizon(SimTime::new(4.0));
        engine.prime(SimTime::new(0.0), 0);
        let mut h = Birth {
            spawned: 0,
            cap: u32::MAX,
            log: Vec::new(),
        };
        assert_eq!(engine.run(&mut h), RunOutcome::Horizon);
        assert_eq!(engine.now().as_secs(), 4.0);
        assert_eq!(h.log, vec![0.0, 1.5, 3.0]);
    }

    struct Stopper;
    impl Handler<u32> for Stopper {
        fn handle(&mut self, event: u32, _sched: &mut Scheduler<'_, u32>) -> Control {
            if event >= 1 {
                Control::Stop
            } else {
                Control::Continue
            }
        }
    }

    #[test]
    fn handler_can_stop() {
        let mut engine = Engine::new();
        engine.prime(SimTime::new(0.0), 0);
        engine.prime(SimTime::new(1.0), 1);
        engine.prime(SimTime::new(2.0), 2);
        assert_eq!(engine.run(&mut Stopper), RunOutcome::Stopped);
        assert_eq!(engine.now().as_secs(), 1.0);
    }

    #[test]
    fn queue_ops_are_counted() {
        let mut engine = Engine::new();
        engine.prime(SimTime::new(0.0), 0);
        let mut h = Birth {
            spawned: 0,
            cap: 4,
            log: Vec::new(),
        };
        engine.run(&mut h);
        let ops = engine.queue_ops();
        // 1 primed + 4 spawned, all popped; nothing cancelled; at most one
        // event is ever pending in the birth process.
        assert_eq!(ops.scheduled, 5);
        assert_eq!(ops.popped, 5);
        assert_eq!(ops.cancelled, 0);
        assert_eq!(ops.max_pending, 1);
        if !cfg!(feature = "timing") {
            assert!(engine.pop_span().is_empty());
        }
    }

    #[test]
    fn cancellations_count_only_hits() {
        struct Canceller(Option<EventId>);
        impl Handler<u32> for Canceller {
            fn handle(&mut self, _event: u32, sched: &mut Scheduler<'_, u32>) -> Control {
                if let Some(id) = self.0.take() {
                    assert!(sched.cancel(id));
                    assert!(!sched.cancel(id)); // second try misses
                }
                Control::Continue
            }
        }
        let mut engine = Engine::new();
        engine.prime(SimTime::new(0.0), 0);
        let doomed = engine.prime(SimTime::new(5.0), 1);
        assert_eq!(
            engine.run(&mut Canceller(Some(doomed))),
            RunOutcome::Drained
        );
        let ops = engine.queue_ops();
        assert_eq!(ops.scheduled, 2);
        assert_eq!(ops.cancelled, 1);
        assert_eq!(ops.popped, 1);
        assert_eq!(ops.max_pending, 2);
    }

    /// Each event logs itself and, while below `cap`, schedules two
    /// follow-ups one second later (and every fourth one a third at the
    /// same instant), and cancels the previous event's second follow-up:
    /// runs full of same-time ties, tombstones and a vacant root that the
    /// next schedule overwrites.
    #[derive(Debug, Clone, Default)]
    struct Ties {
        next: u32,
        cap: u32,
        doomed: Option<EventId>,
        log: Vec<(f64, u32)>,
    }

    impl Handler<u32> for Ties {
        fn handle(&mut self, event: u32, sched: &mut Scheduler<'_, u32>) -> Control {
            self.log.push((sched.now().as_secs(), event));
            if self.next < self.cap {
                if let Some(id) = self.doomed.take() {
                    sched.cancel(id);
                }
                if event.is_multiple_of(4) {
                    sched.schedule_in(0.0, self.next);
                }
                sched.schedule_in(1.0, self.next + 1);
                self.doomed = Some(sched.schedule_in(1.0, self.next + 2));
                self.next += 3;
            }
            Control::Continue
        }
    }

    #[test]
    fn paused_clone_continues_through_same_time_ties() {
        let fresh = || {
            let mut engine = Engine::new();
            engine.prime(SimTime::ZERO, 0);
            engine.prime(SimTime::new(2.0), 1);
            let ties = Ties {
                next: 2,
                cap: 300,
                ..Ties::default()
            };
            (engine, ties)
        };
        let observed = |engine: &Engine<u32>, ties: &Ties, outcome: RunOutcome| {
            let kernel = if cfg!(feature = "timing") {
                format!("{:?} {:?}", engine.processed(), engine.queue_ops())
            } else {
                format!("{engine:?}")
            };
            format!("{outcome:?} {kernel} {ties:?}")
        };
        let (mut engine, mut ties) = fresh();
        let outcome = engine.run(&mut ties);
        let uninterrupted = observed(&engine, &ties, outcome);

        // Integer instants hold several pending events at once.
        for until in [1.0, 2.0, 3.0, 7.0, 7.5] {
            let (mut engine, mut ties) = fresh();
            assert_eq!(engine.run_until(&mut ties, SimTime::new(until)), None);
            assert!(ties.log.iter().all(|&(t, _)| t < until));
            let (mut fork, mut fork_ties) = (engine.clone(), ties.clone());
            let outcome = engine.run(&mut ties);
            assert_eq!(
                observed(&engine, &ties, outcome),
                uninterrupted,
                "t={until}"
            );
            let outcome = fork.run(&mut fork_ties);
            assert_eq!(
                observed(&fork, &fork_ties, outcome),
                uninterrupted,
                "t={until}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn scheduling_in_past_panics() {
        struct Bad;
        impl Handler<u32> for Bad {
            fn handle(&mut self, _event: u32, sched: &mut Scheduler<'_, u32>) -> Control {
                sched.schedule_in(-1.0, 0);
                Control::Continue
            }
        }
        let mut engine = Engine::new();
        engine.prime(SimTime::new(5.0), 0);
        engine.run(&mut Bad);
    }
}
