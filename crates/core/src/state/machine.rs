//! Per-machine runtime state: a packed hot record per machine, plus cold
//! columns.
//!
//! The scheduler touches machine state on every dispatch, completion,
//! kill, failure and repair — always for *one* machine at a random index.
//! An array-of-structs layout put two `StdRng` states (~136 bytes each)
//! between every pair of hot fields, so each touch dragged ~350 bytes
//! through cache; a fully columnar layout fixed that but spread the five
//! fields a single event reads across five separate arrays — five cache
//! lines per touch on a large grid. [`MachineHot`] packs exactly the
//! per-event fields into one record (one line per touch), while the RNG
//! streams — used only on checkpoint transfers and fault events — and the
//! failure counts stay in cold columns of their own.
//!
//! `power` is duplicated: the copy inside [`MachineHot`] serves the
//! per-launch read, and the one-time builders (`FreeMachineIndex`, the
//! power prefix) collect their own slice. Powers never change after
//! construction, so the copies cannot diverge.

use super::replica::ReplicaId;
use dgsched_des::event::EventId;
use rand::rngs::StdRng;

/// The per-event fields of one machine, packed so a dispatch, kill or
/// fault touches a single cache line.
#[derive(Debug, Clone, Copy)]
pub struct MachineHot {
    /// Relative computing power (copied from the grid description).
    pub power: f64,
    /// Accumulated busy wall-seconds (occupied by a replica while up).
    pub busy_time: f64,
    /// Lazy availability only: absolute end time of the machine's current
    /// up or down window (`up` tells which). `INFINITY` under the eager
    /// default, where pending fail/repair events carry this instead.
    pub cycle_end: f64,
    /// The machine's pending fail-or-repair event (cancelled when a
    /// correlated outage overrides the machine's own cycle).
    pub next_transition: EventId,
    /// The replica currently occupying the machine, if any.
    pub replica: Option<ReplicaId>,
    /// True when the machine is up (not failed).
    pub up: bool,
}

/// Runtime state of every machine: hot records indexed by machine id,
/// cold columns alongside.
#[derive(Debug, Clone)]
pub struct Machines {
    /// Per-event state, one packed record per machine.
    pub hot: Vec<MachineHot>,
    /// Number of failures suffered (the `FewestFailuresFirst` sort key).
    pub failures: Vec<u64>,
    /// Private availability streams (keep the fail/repair trace identical
    /// across scheduling policies — common random numbers). Cold.
    pub avail_rng: Vec<StdRng>,
    /// Private checkpoint-transfer streams. Cold.
    pub xfer_rng: Vec<StdRng>,
}

impl Machines {
    /// An empty container with room for `n` machines.
    pub fn with_capacity(n: usize) -> Self {
        Machines {
            hot: Vec::with_capacity(n),
            failures: Vec::with_capacity(n),
            avail_rng: Vec::with_capacity(n),
            xfer_rng: Vec::with_capacity(n),
        }
    }

    /// Adds one machine, up and idle, with its private RNG streams.
    pub fn push(&mut self, power: f64, avail_rng: StdRng, xfer_rng: StdRng) {
        self.hot.push(MachineHot {
            power,
            busy_time: 0.0,
            cycle_end: f64::INFINITY,
            next_transition: EventId::NONE,
            replica: None,
            up: true,
        });
        self.failures.push(0);
        self.avail_rng.push(avail_rng);
        self.xfer_rng.push(xfer_rng);
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// True when the container holds no machines.
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// True when machine `i` can accept a replica right now.
    pub fn is_free(&self, i: usize) -> bool {
        let h = &self.hot[i];
        h.up && h.replica.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn free_means_up_and_unoccupied() {
        let mut ms = Machines::with_capacity(1);
        ms.push(10.0, StdRng::seed_from_u64(0), StdRng::seed_from_u64(1));
        assert_eq!(ms.len(), 1);
        assert!(ms.is_free(0));
        ms.hot[0].up = false;
        assert!(!ms.is_free(0));
        ms.hot[0].up = true;
        ms.hot[0].replica = Some(ReplicaId { idx: 0, gen: 0 });
        assert!(!ms.is_free(0));
    }
}
