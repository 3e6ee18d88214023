//! The multi-BoT desktop-grid simulator.
//!
//! ## Layout
//!
//! The simulator is split into private subsystems around `driver`'s
//! `Driver` / `SimState` pair: `dispatch` runs the scheduling round (bag
//! selection, replica launch, bag arrival), `lifecycle` handles replica
//! milestones through task and bag completion, `faults` handles machine
//! failure / repair and correlated outages, and `indices` holds the
//! incrementally maintained structures the hot path reads.
//!
//! ## Index invariants
//!
//! Scheduling triggers do not scan the grid or the bags; they read indices
//! that every state change keeps exact:
//!
//! * the **free-machine index** contains exactly the machines with
//!   `up && replica.is_none()`, iterable in the configured
//!   [`MachineOrder`] (ascending id, power-rank, or failure buckets). A
//!   free machine's failure count never changes, so the
//!   `FewestFailuresFirst` buckets are sound without rebalancing.
//! * each bag's **replica-count buckets** hold its running tasks keyed by
//!   replica count, so `View::dispatchable` / `View::can_replicate` and
//!   the WQR replication candidate are O(log) instead of a task scan;
//! * each bag's **restart max-deque** tracks the longest-waiting restart
//!   (the restart queue is strictly FIFO and all pending waits grow at the
//!   same rate), so `View::max_pending_wait` reads queue heads only;
//! * each bag's **remaining work** is decremented at completion for SBF.
//!
//! Custom [`BagSelection`](crate::policy::BagSelection) policies consume
//! these through the read-only query methods on
//! [`View`](crate::policy::View) (`dispatchable`, `can_replicate`,
//! `max_pending_wait`, `remaining_work`) — never by scanning bag state —
//! so they are O(active bags) per selection at worst.
//!
//! [`simulate_observed_reference`] replays a scenario with every decision
//! recomputed by naive full scans; `tests/index_equivalence.rs` requires
//! its traces to match the indexed mode bit-for-bit.

mod check;
mod config;
mod dispatch;
mod driver;
mod events;
mod faults;
mod gantt;
pub(crate) mod indices;
mod lifecycle;
mod metrics;
mod observer;
mod replay;

#[cfg(test)]
mod tests;

pub use check::CheckingObserver;
pub use config::{DynamicReplication, MachineOrder, SimConfig, TaskOrder};
pub(crate) use driver::{
    advance_replayed, resume_replayed, simulate_replayed_snapshots, ReplaySnapshot, SnapshotRun,
};
pub use driver::{
    simulate, simulate_instrumented, simulate_observed, simulate_observed_reference,
    simulate_replayed, simulate_replayed_observed, simulate_with, SimReport,
};
pub use events::Event;
pub use gantt::Gantt;
pub use metrics::{BagMetrics, Counters, MachineStats, MetricsObserver, RunResult};
pub use observer::{Fanout, NullObserver, SimObserver, TraceEvent, TraceRecorder, TraceRing};
pub use replay::TraceEnv;
