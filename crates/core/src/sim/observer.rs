//! Observation hooks into the running simulation.
//!
//! At every semantically meaningful transition the driver hands a
//! [`TraceEvent`] to its [`SimObserver`]. The driver holds the observer as
//! `&mut dyn SimObserver`, so each transition costs one virtual call; the
//! production path passes the no-op [`NullObserver`]. The run's metrics
//! collector, the invariant checker and the tracers from `dgsched-obs`
//! ([`TraceRecorder`], [`TraceRing`]) all receive the same events.
//!
//! The event schema and the tracer buffers live in `dgsched-obs` (which
//! knows nothing about this trait); this module implements the trait for
//! them so the dependency arrow keeps pointing downward.

pub use dgsched_obs::{TraceEvent, TraceRecorder, TraceRing};

/// Receiver of simulation transitions.
pub trait SimObserver {
    /// One transition, in simulation order. The default ignores it.
    fn observe(&mut self, _event: TraceEvent) {}
}

/// The no-op observer used by the plain `simulate` entry points.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SimObserver for NullObserver {}

/// Mutable references observe by forwarding, so combinators like
/// [`Fanout`] can wrap borrowed observers.
impl<T: SimObserver + ?Sized> SimObserver for &mut T {
    fn observe(&mut self, event: TraceEvent) {
        (**self).observe(event);
    }
}

/// Forwards every event to two observers in order (e.g. a tracer plus
/// the metrics collector). Nest for wider fan-outs.
#[derive(Debug, Default, Clone)]
pub struct Fanout<A: SimObserver, B: SimObserver>(pub A, pub B);

impl<A: SimObserver, B: SimObserver> SimObserver for Fanout<A, B> {
    fn observe(&mut self, event: TraceEvent) {
        self.0.observe(event);
        self.1.observe(event);
    }
}

impl SimObserver for TraceRecorder {
    fn observe(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

impl SimObserver for TraceRing {
    fn observe(&mut self, event: TraceEvent) {
        self.push(event);
    }
}
