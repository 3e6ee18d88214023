//! Replica slab: the unit of execution the simulator schedules events for.
//!
//! A replica is one attempt to run one task on one machine. Replicas are
//! stored in a generational slab so that stale event references (a bug, but
//! a cheap one to guard against) can never alias a recycled slot.
//! The slab packs each slot as one contiguous record rather than
//! splitting fields into per-column arrays: the dominant operations on a
//! replica are `insert` (launch) and `remove` (completion / kill), and both
//! touch *every* field of a single slot at a random index. A columnar
//! layout turns that one logical access into eight cache lines; the packed
//! record is one or two. Field reads between launch and death
//! (`set_phase`, `machine`, …) land on the same line the insert just
//! wrote, so they lose nothing.

use dgsched_des::event::EventId;
use dgsched_des::time::SimTime;
use dgsched_grid::MachineId;
use dgsched_workload::{BotId, TaskId};

/// Handle to a replica in the [`ReplicaSlab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicaId {
    /// Slot index.
    pub idx: u32,
    /// Generation of the slot at allocation time.
    pub gen: u32,
}

/// What the replica is doing, and what its one outstanding event means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplicaPhase {
    /// Fetching a checkpoint from the server; the event is retrieve-done.
    Retrieving {
        /// Work already saved at the server that execution will resume from.
        resume_work: f64,
    },
    /// Computing; the event is either checkpoint-begin or completion.
    Computing {
        /// When this compute burst began.
        since: SimTime,
        /// Work completed before this burst (checkpointed or in-memory).
        base_work: f64,
        /// True when the outstanding event is a checkpoint-begin rather
        /// than task completion.
        next_is_checkpoint: bool,
    },
    /// Writing a checkpoint; the event is write-done.
    Checkpointing {
        /// Work completed at the moment the write began.
        work_at_write: f64,
    },
}

/// One replica's fields, by value — the record [`ReplicaSlab::insert`]
/// stores and [`ReplicaSlab::remove`] hands back.
#[derive(Debug, Clone, Copy)]
pub struct Replica {
    /// Owning bag.
    pub bag: BotId,
    /// Task within the bag.
    pub task: TaskId,
    /// Machine executing it.
    pub machine: MachineId,
    /// Current phase (encodes the meaning of `event`).
    pub phase: ReplicaPhase,
    /// The replica's single outstanding event.
    pub event: EventId,
    /// Dispatch time (for accounting).
    pub started: SimTime,
}

impl Replica {
    /// Work this replica has completed (beyond what was saved before it
    /// started) if inspected at `now` — used for waste accounting when the
    /// replica is killed.
    pub fn work_in_progress(&self, now: SimTime, power: f64) -> f64 {
        match self.phase {
            ReplicaPhase::Retrieving { .. } => 0.0,
            ReplicaPhase::Computing {
                since, base_work, ..
            } => base_work + now.since(since) * power,
            ReplicaPhase::Checkpointing { work_at_write } => work_at_write,
        }
    }
}

/// One slab slot: generation stamp, occupancy, and the packed record.
#[derive(Debug, Clone, Copy)]
struct Slot {
    gen: u32,
    occupied: bool,
    rep: Replica,
}

/// Generational slab of replicas, one packed record per slot.
#[derive(Debug, Clone, Default)]
pub struct ReplicaSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

impl ReplicaSlab {
    /// An empty slab.
    pub fn new() -> Self {
        ReplicaSlab::default()
    }

    /// Number of live replicas.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no replicas are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Resolves a handle to its slot, panicking on a stale or dead one.
    fn slot(&self, id: ReplicaId) -> usize {
        let i = id.idx as usize;
        assert_eq!(self.slots[i].gen, id.gen, "stale replica handle");
        debug_assert!(self.slots[i].occupied, "handle to an empty replica slot");
        i
    }

    /// True when `id` refers to a live replica.
    pub fn contains(&self, id: ReplicaId) -> bool {
        let i = id.idx as usize;
        self.slots
            .get(i)
            .is_some_and(|s| s.gen == id.gen && s.occupied)
    }

    /// Inserts a replica, returning its handle.
    pub fn insert(&mut self, replica: Replica) -> ReplicaId {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let s = &mut self.slots[idx as usize];
            debug_assert!(!s.occupied);
            s.occupied = true;
            s.rep = replica;
            ReplicaId { idx, gen: s.gen }
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                occupied: true,
                rep: replica,
            });
            ReplicaId { idx, gen: 0 }
        }
    }

    /// Removes a replica, invalidating its handle.
    ///
    /// # Panics
    /// Panics if the handle is stale or the slot is empty.
    pub fn remove(&mut self, id: ReplicaId) -> Replica {
        let i = self.slot(id);
        let s = &mut self.slots[i];
        assert!(s.occupied, "removing an empty replica slot");
        s.occupied = false;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(id.idx);
        self.live -= 1;
        s.rep
    }

    /// The owning bag of a live replica.
    pub fn bag(&self, id: ReplicaId) -> BotId {
        self.slots[self.slot(id)].rep.bag
    }

    /// The task a live replica is running.
    pub fn task(&self, id: ReplicaId) -> TaskId {
        self.slots[self.slot(id)].rep.task
    }

    /// The machine a live replica occupies.
    pub fn machine(&self, id: ReplicaId) -> MachineId {
        self.slots[self.slot(id)].rep.machine
    }

    /// A live replica's current phase.
    pub fn phase(&self, id: ReplicaId) -> ReplicaPhase {
        self.slots[self.slot(id)].rep.phase
    }

    /// A live replica's phase, or `None` when the handle is stale.
    pub fn try_phase(&self, id: ReplicaId) -> Option<ReplicaPhase> {
        self.contains(id)
            .then(|| self.slots[id.idx as usize].rep.phase)
    }

    /// Re-phases a live replica.
    pub fn set_phase(&mut self, id: ReplicaId, phase: ReplicaPhase) {
        let i = self.slot(id);
        self.slots[i].rep.phase = phase;
    }

    /// Points a live replica at its next outstanding event.
    pub fn set_event(&mut self, id: ReplicaId, event: EventId) {
        let i = self.slot(id);
        self.slots[i].rep.event = event;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica() -> Replica {
        Replica {
            bag: BotId(0),
            task: TaskId(0),
            machine: MachineId(0),
            phase: ReplicaPhase::Retrieving { resume_work: 0.0 },
            event: EventId::NONE,
            started: SimTime::ZERO,
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut slab = ReplicaSlab::new();
        assert!(slab.is_empty());
        let id = slab.insert(replica());
        assert_eq!(slab.len(), 1);
        assert!(slab.contains(id));
        assert_eq!(slab.bag(id), BotId(0));
        assert_eq!(slab.machine(id), MachineId(0));
        let r = slab.remove(id);
        assert_eq!(r.bag, BotId(0));
        assert!(slab.is_empty());
        assert!(!slab.contains(id), "removed handle must be stale");
        assert!(slab.try_phase(id).is_none());
    }

    #[test]
    fn recycled_slot_gets_new_generation() {
        let mut slab = ReplicaSlab::new();
        let a = slab.insert(replica());
        slab.remove(a);
        let b = slab.insert(replica());
        assert_eq!(a.idx, b.idx, "slot should be recycled");
        assert_ne!(a.gen, b.gen, "generation must differ");
        assert!(!slab.contains(a));
        assert!(slab.contains(b));
    }

    #[test]
    #[should_panic]
    fn removing_stale_handle_panics() {
        let mut slab = ReplicaSlab::new();
        let a = slab.insert(replica());
        slab.remove(a);
        slab.insert(replica());
        slab.remove(a);
    }

    #[test]
    fn phase_and_event_updates_land_in_the_slot() {
        let mut slab = ReplicaSlab::new();
        let id = slab.insert(replica());
        slab.set_phase(
            id,
            ReplicaPhase::Checkpointing {
                work_at_write: 450.0,
            },
        );
        slab.set_event(id, EventId::NONE);
        assert_eq!(
            slab.phase(id),
            ReplicaPhase::Checkpointing {
                work_at_write: 450.0
            }
        );
    }

    #[test]
    fn work_in_progress_by_phase() {
        let mut r = replica();
        let now = SimTime::new(100.0);
        assert_eq!(r.work_in_progress(now, 10.0), 0.0);
        r.phase = ReplicaPhase::Computing {
            since: SimTime::new(40.0),
            base_work: 200.0,
            next_is_checkpoint: false,
        };
        assert_eq!(r.work_in_progress(now, 10.0), 200.0 + 600.0);
        r.phase = ReplicaPhase::Checkpointing {
            work_at_write: 450.0,
        };
        assert_eq!(r.work_in_progress(now, 10.0), 450.0);
    }
}
