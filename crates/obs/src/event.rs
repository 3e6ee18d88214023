//! The structured trace-event schema.
//!
//! The simulator emits one [`TraceEvent`] per semantically meaningful
//! transition; every observer (tracer, metrics collector, invariant
//! checker) receives the same value. The serde shape (`kind` tag,
//! snake_case variants, field order) is a compatibility contract: the
//! golden-trace tests fingerprint the serialised form, so any change here
//! is a semantic version change.

use serde::{Deserialize, Serialize};

/// One simulator transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum TraceEvent {
    /// Replica dispatched.
    Dispatch {
        /// Event time (seconds).
        at: f64,
        /// Owning bag.
        bag: u32,
        /// Task within the bag.
        task: u32,
        /// Executing machine.
        machine: u32,
        /// WQR extra copy rather than first dispatch/restart.
        is_replication: bool,
    },
    /// Task completed.
    TaskComplete {
        /// Event time (seconds).
        at: f64,
        /// Owning bag.
        bag: u32,
        /// Task within the bag.
        task: u32,
        /// Machine the winning replica ran on.
        machine: u32,
    },
    /// Replica killed.
    ReplicaKilled {
        /// Event time (seconds).
        at: f64,
        /// Owning bag.
        bag: u32,
        /// Task within the bag.
        task: u32,
        /// Machine the replica ran on.
        machine: u32,
        /// Killed by a machine failure (vs sibling kill).
        by_failure: bool,
    },
    /// Machine failed.
    MachineFail {
        /// Event time (seconds).
        at: f64,
        /// The machine.
        machine: u32,
    },
    /// Machine repaired.
    MachineRepair {
        /// Event time (seconds).
        at: f64,
        /// The machine.
        machine: u32,
    },
    /// Bag arrived.
    BagArrival {
        /// Event time (seconds).
        at: f64,
        /// The bag.
        bag: u32,
    },
    /// Bag completed.
    BagComplete {
        /// Event time (seconds).
        at: f64,
        /// The bag.
        bag: u32,
    },
    /// Checkpoint stored.
    CheckpointSaved {
        /// Event time (seconds).
        at: f64,
        /// Owning bag.
        bag: u32,
        /// Task within the bag.
        task: u32,
        /// Work saved (reference-seconds).
        work: f64,
    },
    /// A correlated outage struck the grid; the per-machine failures it
    /// causes follow as individual [`TraceEvent::MachineFail`] events at
    /// the same timestamp.
    Outage {
        /// Event time (seconds).
        at: f64,
        /// Sampled outage duration (seconds).
        duration: f64,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> f64 {
        match *self {
            TraceEvent::Dispatch { at, .. }
            | TraceEvent::TaskComplete { at, .. }
            | TraceEvent::ReplicaKilled { at, .. }
            | TraceEvent::MachineFail { at, .. }
            | TraceEvent::MachineRepair { at, .. }
            | TraceEvent::BagArrival { at, .. }
            | TraceEvent::BagComplete { at, .. }
            | TraceEvent::CheckpointSaved { at, .. }
            | TraceEvent::Outage { at, .. } => at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_shape_is_stable() {
        // The golden-trace fingerprint depends on this exact rendering.
        let ev = TraceEvent::Dispatch {
            at: 1.5,
            bag: 2,
            task: 3,
            machine: 4,
            is_replication: false,
        };
        assert_eq!(
            serde_json::to_string(&ev).unwrap(),
            r#"{"kind":"dispatch","at":1.5,"bag":2,"task":3,"machine":4,"is_replication":false}"#
        );
        let back: TraceEvent =
            serde_json::from_str(r#"{"kind":"outage","at":9.0,"duration":120.0}"#).unwrap();
        assert_eq!(
            back,
            TraceEvent::Outage {
                at: 9.0,
                duration: 120.0
            }
        );
    }

    #[test]
    fn at_covers_every_variant() {
        let evs = [
            TraceEvent::MachineFail {
                at: 1.0,
                machine: 0,
            },
            TraceEvent::MachineRepair {
                at: 2.0,
                machine: 0,
            },
            TraceEvent::BagArrival { at: 3.0, bag: 0 },
            TraceEvent::BagComplete { at: 4.0, bag: 0 },
            TraceEvent::Outage {
                at: 5.0,
                duration: 1.0,
            },
            TraceEvent::CheckpointSaved {
                at: 6.0,
                bag: 0,
                task: 0,
                work: 10.0,
            },
        ];
        let ats: Vec<f64> = evs.iter().map(|e| e.at()).collect();
        assert_eq!(ats, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }
}
