//! Observation hooks into the running simulation.
//!
//! A [`SimObserver`] receives a callback at every semantically meaningful
//! transition. The production path uses the no-op [`NullObserver`] (fully
//! inlined away); tests attach invariant checkers, and the tracers from
//! `dgsched-obs` ([`TraceRecorder`], [`TraceRing`]) capture a structured,
//! serde-able trace for debugging and for the determinism test-suite.
//!
//! The event schema and the tracer buffers live in `dgsched-obs` (which
//! knows nothing about this trait); this module implements the trait for
//! them so the dependency arrow keeps pointing downward.

use dgsched_des::time::SimTime;
use dgsched_grid::MachineId;
use dgsched_workload::{BotId, TaskId};

pub use dgsched_obs::{TraceEvent, TraceRecorder, TraceRing};

/// Receiver of simulation transitions.
///
/// All methods default to no-ops so observers implement only what they
/// need.
#[allow(
    unused_variables,
    reason = "the default no-op bodies ignore their arguments; implementors keep the names"
)]
pub trait SimObserver {
    /// A replica of `(bag, task)` was dispatched on `machine`;
    /// `is_replication` is true when the task already had a running
    /// replica (WQR extra copy rather than first dispatch/restart).
    fn on_dispatch(
        &mut self,
        now: SimTime,
        bag: BotId,
        task: TaskId,
        machine: MachineId,
        is_replication: bool,
    ) {
    }

    /// `(bag, task)` completed on `machine`.
    fn on_task_complete(&mut self, now: SimTime, bag: BotId, task: TaskId, machine: MachineId) {}

    /// A replica of `(bag, task)` on `machine` was killed; `by_failure`
    /// distinguishes machine failures from sibling kills.
    fn on_replica_killed(
        &mut self,
        now: SimTime,
        bag: BotId,
        task: TaskId,
        machine: MachineId,
        by_failure: bool,
    ) {
    }

    /// `machine` failed.
    fn on_machine_fail(&mut self, now: SimTime, machine: MachineId) {}

    /// `machine` was repaired.
    fn on_machine_repair(&mut self, now: SimTime, machine: MachineId) {}

    /// A correlated outage struck the grid; per-machine
    /// [`on_machine_fail`](SimObserver::on_machine_fail) callbacks for the
    /// hit machines follow at the same timestamp.
    fn on_outage(&mut self, now: SimTime, duration: f64) {}

    /// A bag arrived.
    fn on_bag_arrival(&mut self, now: SimTime, bag: BotId) {}

    /// A bag completed.
    fn on_bag_complete(&mut self, now: SimTime, bag: BotId) {}

    /// A checkpoint of `(bag, task)` holding `work` reference-seconds was
    /// stored at the server.
    fn on_checkpoint_saved(&mut self, now: SimTime, bag: BotId, task: TaskId, work: f64) {}
}

/// The no-op observer used by the plain `simulate` entry points.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SimObserver for NullObserver {}

/// Mutable references observe by forwarding, so combinators like
/// [`Fanout`] can wrap borrowed observers.
impl<T: SimObserver + ?Sized> SimObserver for &mut T {
    fn on_dispatch(
        &mut self,
        now: SimTime,
        bag: BotId,
        task: TaskId,
        machine: MachineId,
        is_replication: bool,
    ) {
        (**self).on_dispatch(now, bag, task, machine, is_replication);
    }

    fn on_task_complete(&mut self, now: SimTime, bag: BotId, task: TaskId, machine: MachineId) {
        (**self).on_task_complete(now, bag, task, machine);
    }

    fn on_replica_killed(
        &mut self,
        now: SimTime,
        bag: BotId,
        task: TaskId,
        machine: MachineId,
        by_failure: bool,
    ) {
        (**self).on_replica_killed(now, bag, task, machine, by_failure);
    }

    fn on_machine_fail(&mut self, now: SimTime, machine: MachineId) {
        (**self).on_machine_fail(now, machine);
    }

    fn on_machine_repair(&mut self, now: SimTime, machine: MachineId) {
        (**self).on_machine_repair(now, machine);
    }

    fn on_outage(&mut self, now: SimTime, duration: f64) {
        (**self).on_outage(now, duration);
    }

    fn on_bag_arrival(&mut self, now: SimTime, bag: BotId) {
        (**self).on_bag_arrival(now, bag);
    }

    fn on_bag_complete(&mut self, now: SimTime, bag: BotId) {
        (**self).on_bag_complete(now, bag);
    }

    fn on_checkpoint_saved(&mut self, now: SimTime, bag: BotId, task: TaskId, work: f64) {
        (**self).on_checkpoint_saved(now, bag, task, work);
    }
}

/// Forwards every callback to two observers in order (e.g. a tracer plus
/// the metrics collector). Nest for wider fan-outs.
#[derive(Debug, Default, Clone)]
pub struct Fanout<A: SimObserver, B: SimObserver>(pub A, pub B);

impl<A: SimObserver, B: SimObserver> SimObserver for Fanout<A, B> {
    fn on_dispatch(
        &mut self,
        now: SimTime,
        bag: BotId,
        task: TaskId,
        machine: MachineId,
        is_replication: bool,
    ) {
        self.0.on_dispatch(now, bag, task, machine, is_replication);
        self.1.on_dispatch(now, bag, task, machine, is_replication);
    }

    fn on_task_complete(&mut self, now: SimTime, bag: BotId, task: TaskId, machine: MachineId) {
        self.0.on_task_complete(now, bag, task, machine);
        self.1.on_task_complete(now, bag, task, machine);
    }

    fn on_replica_killed(
        &mut self,
        now: SimTime,
        bag: BotId,
        task: TaskId,
        machine: MachineId,
        by_failure: bool,
    ) {
        self.0
            .on_replica_killed(now, bag, task, machine, by_failure);
        self.1
            .on_replica_killed(now, bag, task, machine, by_failure);
    }

    fn on_machine_fail(&mut self, now: SimTime, machine: MachineId) {
        self.0.on_machine_fail(now, machine);
        self.1.on_machine_fail(now, machine);
    }

    fn on_machine_repair(&mut self, now: SimTime, machine: MachineId) {
        self.0.on_machine_repair(now, machine);
        self.1.on_machine_repair(now, machine);
    }

    fn on_outage(&mut self, now: SimTime, duration: f64) {
        self.0.on_outage(now, duration);
        self.1.on_outage(now, duration);
    }

    fn on_bag_arrival(&mut self, now: SimTime, bag: BotId) {
        self.0.on_bag_arrival(now, bag);
        self.1.on_bag_arrival(now, bag);
    }

    fn on_bag_complete(&mut self, now: SimTime, bag: BotId) {
        self.0.on_bag_complete(now, bag);
        self.1.on_bag_complete(now, bag);
    }

    fn on_checkpoint_saved(&mut self, now: SimTime, bag: BotId, task: TaskId, work: f64) {
        self.0.on_checkpoint_saved(now, bag, task, work);
        self.1.on_checkpoint_saved(now, bag, task, work);
    }
}

/// Implements [`SimObserver`] for a tracer type by building the
/// [`TraceEvent`] for each callback and handing it to `$push`.
macro_rules! impl_trace_observer {
    ($ty:ty, $me:ident, $ev:ident, $push:expr) => {
        impl SimObserver for $ty {
            fn on_dispatch(
                &mut self,
                now: SimTime,
                bag: BotId,
                task: TaskId,
                machine: MachineId,
                is_replication: bool,
            ) {
                let $me = self;
                let $ev = TraceEvent::Dispatch {
                    at: now.as_secs(),
                    bag: bag.0,
                    task: task.0,
                    machine: machine.0,
                    is_replication,
                };
                $push;
            }

            fn on_task_complete(
                &mut self,
                now: SimTime,
                bag: BotId,
                task: TaskId,
                machine: MachineId,
            ) {
                let $me = self;
                let $ev = TraceEvent::TaskComplete {
                    at: now.as_secs(),
                    bag: bag.0,
                    task: task.0,
                    machine: machine.0,
                };
                $push;
            }

            fn on_replica_killed(
                &mut self,
                now: SimTime,
                bag: BotId,
                task: TaskId,
                machine: MachineId,
                by_failure: bool,
            ) {
                let $me = self;
                let $ev = TraceEvent::ReplicaKilled {
                    at: now.as_secs(),
                    bag: bag.0,
                    task: task.0,
                    machine: machine.0,
                    by_failure,
                };
                $push;
            }

            fn on_machine_fail(&mut self, now: SimTime, machine: MachineId) {
                let $me = self;
                let $ev = TraceEvent::MachineFail {
                    at: now.as_secs(),
                    machine: machine.0,
                };
                $push;
            }

            fn on_machine_repair(&mut self, now: SimTime, machine: MachineId) {
                let $me = self;
                let $ev = TraceEvent::MachineRepair {
                    at: now.as_secs(),
                    machine: machine.0,
                };
                $push;
            }

            fn on_outage(&mut self, now: SimTime, duration: f64) {
                let $me = self;
                let $ev = TraceEvent::Outage {
                    at: now.as_secs(),
                    duration,
                };
                $push;
            }

            fn on_bag_arrival(&mut self, now: SimTime, bag: BotId) {
                let $me = self;
                let $ev = TraceEvent::BagArrival {
                    at: now.as_secs(),
                    bag: bag.0,
                };
                $push;
            }

            fn on_bag_complete(&mut self, now: SimTime, bag: BotId) {
                let $me = self;
                let $ev = TraceEvent::BagComplete {
                    at: now.as_secs(),
                    bag: bag.0,
                };
                $push;
            }

            fn on_checkpoint_saved(&mut self, now: SimTime, bag: BotId, task: TaskId, work: f64) {
                let $me = self;
                let $ev = TraceEvent::CheckpointSaved {
                    at: now.as_secs(),
                    bag: bag.0,
                    task: task.0,
                    work,
                };
                $push;
            }
        }
    };
}

impl_trace_observer!(TraceRecorder, me, ev, me.events.push(ev));
impl_trace_observer!(TraceRing, me, ev, me.push(ev));
