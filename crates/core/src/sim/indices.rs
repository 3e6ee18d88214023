//! Incrementally maintained indices for the scheduling round.
//!
//! Every scheduling trigger used to rebuild its free-machine list with an
//! O(machines) scan (plus a sort for non-arbitrary orders) and look sibling
//! replicas up through a hash map. These structures replace both with
//! event-driven maintenance:
//!
//! * [`FreeMachineIndex`] — the set of machines that can accept a replica,
//!   updated on dispatch / free / fail / repair. `first()` returns the next
//!   machine in the configured [`MachineOrder`] without scanning or
//!   sorting. Invariant: a machine is in the index iff `up && replica ==
//!   None`, and its failure count (the `FewestFailuresFirst` sort key) never
//!   changes while it is in the index — failures only happen to `up`
//!   machines, which leave the index at that instant.
//! * [`TaskReplicaIndex`] — running replicas per task, keyed by the task's
//!   dense run-wide checkpoint key. Lists keep their attach order, which is
//!   the sibling-kill order determinism depends on.

use super::config::MachineOrder;
use crate::state::bitset::BitSet;
use crate::state::ReplicaId;
use dgsched_grid::MachineId;
use std::collections::{BTreeMap, BTreeSet};

/// Min-replica-count bucket queue: the running tasks of one bag, bucketed
/// by their current replica count so the least-replicated task (WQR's
/// replication candidate, ties broken by lowest task id) is found in O(1).
///
/// Replaces a `BTreeMap<u32, BTreeSet<u32>>`: under an unbounded
/// replication threshold (FCFS-Excl) every freed machine replicates some
/// running task, and each launch/kill used to pay two tree rebalances.
/// Here a count change flips two bits and nudges a monotone minimum
/// pointer; the pointer only walks forward over buckets emptied since the
/// last query, so maintenance is amortised O(1) per replica event
/// (the classic bucket-queue argument: the pointer can only retreat when
/// a count drops below it, which itself is a paid O(1) update).
///
/// Storage follows the counts in use, not the deepest count reached.
/// FCFS-Excl drives counts into the thousands, but the tasks of a bag
/// occupy only a few distinct counts at a time. A count owns a bag-sized
/// [`BitSet`] only while some task has it; the remove that empties a
/// bucket hands its set, all-zero again, to a spare list, and the next
/// count to need a set takes it from there without clearing it. Because
/// `bump` removes before it inserts, a task stepping alone from `c` to
/// `c ± 1` reuses the set it just emptied. Sets in storage never exceed
/// the high-water mark of distinct live counts; per depth only an 8-byte
/// [`Bucket`] header remains.
#[derive(Debug, Default, Clone)]
pub(crate) struct ReplicaCountBuckets {
    /// `buckets[c]` describes the tasks with exactly `c` running replicas
    /// (`c ≥ 1`; index 0 is never populated).
    buckets: Vec<Bucket>,
    /// Set storage, assigned to counts through [`Bucket::set`].
    sets: Vec<BitSet>,
    /// Indices into `sets` of the sets no count holds; each is all-zero.
    spare: Vec<u32>,
    /// Smallest index of a non-empty bucket (meaningless while `len == 0`).
    min_count: u32,
    /// Total tasks bucketed.
    len: usize,
    /// Task-id capacity each new set is created with.
    tasks: usize,
}

/// One replica count's bucket: how many tasks have that count, and which
/// set of [`ReplicaCountBuckets::sets`] holds them (`NIL` while empty).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    len: u32,
    set: u32,
}

const EMPTY_BUCKET: Bucket = Bucket { len: 0, set: NIL };

impl ReplicaCountBuckets {
    /// Builds an empty bucket queue for a bag of `tasks` tasks.
    pub fn new(tasks: usize) -> Self {
        ReplicaCountBuckets {
            tasks,
            ..Self::default()
        }
    }

    /// Moves `task` from bucket `from` to bucket `to` (0 meaning absent on
    /// that side). Counts change by one replica at a time, so buckets are
    /// grown lazily one index past the current deepest.
    pub fn bump(&mut self, task: u32, from: u32, to: u32) {
        if from > 0 {
            let bucket = &mut self.buckets[from as usize];
            let was = self.sets[bucket.set as usize].remove(task as usize);
            debug_assert!(was, "task was bucketed at its old count");
            bucket.len -= 1;
            if bucket.len == 0 {
                // The set is all-zero again: keep it for the next count.
                self.spare.push(bucket.set);
                bucket.set = NIL;
            }
            self.len -= 1;
        }
        if to > 0 {
            if self.buckets.len() <= to as usize {
                self.buckets.resize(to as usize + 1, EMPTY_BUCKET);
            }
            let bucket = &mut self.buckets[to as usize];
            if bucket.set == NIL {
                bucket.set = self.spare.pop().unwrap_or_else(|| {
                    self.sets.push(BitSet::with_capacity(self.tasks));
                    (self.sets.len() - 1) as u32
                });
                debug_assert!(self.sets[bucket.set as usize].is_empty());
            }
            bucket.len += 1;
            self.sets[bucket.set as usize].insert(task as usize);
            if self.len == 0 || to < self.min_count {
                self.min_count = to;
            }
            self.len += 1;
        }
        if self.len == 0 {
            self.min_count = 0;
        } else {
            // Restore the invariant: `min_count` points at a non-empty
            // bucket. The walk is paid for by the bumps that emptied the
            // buckets it skips.
            while self.buckets[self.min_count as usize].len == 0 {
                self.min_count += 1;
            }
        }
    }

    /// The smallest replica count of any bucketed task, if any.
    pub fn min_count(&self) -> Option<u32> {
        (self.len > 0).then_some(self.min_count)
    }

    /// The lowest-id task at the smallest replica count, with that count.
    pub fn min_task(&self) -> Option<(u32, u32)> {
        if self.len == 0 {
            return None;
        }
        let set = self.buckets[self.min_count as usize].set;
        let task = self.sets[set as usize]
            .first()
            .expect("min_count bucket is never empty");
        Some((self.min_count, task as u32))
    }

    /// Sets holding storage, and how many of them are spare.
    #[cfg(test)]
    fn storage(&self) -> (usize, usize) {
        (self.sets.len(), self.spare.len())
    }
}

/// The set of free machines, iterable in the configured [`MachineOrder`]
/// without per-round scanning, sorting or allocation.
///
/// Order contracts (each reproduces the order the old per-round
/// `Vec`-collect-and-sort produced, bit for bit):
///
/// * `Arbitrary` — ascending machine id;
/// * `FastestFirst` — descending power, ties ascending id (the rank
///   permutation is computed once at build: powers never change);
/// * `FewestFailuresFirst` — ascending observed failure count, ties
///   ascending id. Sound incrementally because a free machine's failure
///   count is frozen: failures strike `up` machines, which leave the index
///   in the same event.
#[derive(Debug, Clone)]
pub(crate) struct FreeMachineIndex {
    order: MachineOrder,
    by_id: BitSet,
    len: usize,
    /// `FastestFirst` only: machine id per power rank and its inverse.
    machine_of_rank: Vec<u32>,
    rank_of_machine: Vec<u32>,
    by_rank: BitSet,
    /// `FewestFailuresFirst` only: observed failure count per machine and
    /// the free machines bucketed by it.
    failures: Vec<u64>,
    buckets: BTreeMap<u64, BTreeSet<u32>>,
}

impl FreeMachineIndex {
    /// Builds an empty index for `powers.len()` machines.
    pub fn new(powers: &[f64], order: MachineOrder) -> Self {
        let n = powers.len();
        let (machine_of_rank, rank_of_machine, by_rank) = if order == MachineOrder::FastestFirst {
            let mut ids: Vec<u32> = (0..n as u32).collect();
            // Stable sort: power descending, ties keep ascending id.
            ids.sort_by(|a, b| powers[*b as usize].total_cmp(&powers[*a as usize]));
            let mut rank_of = vec![0u32; n];
            for (rank, &id) in ids.iter().enumerate() {
                rank_of[id as usize] = rank as u32;
            }
            (ids, rank_of, BitSet::with_capacity(n))
        } else {
            (Vec::new(), Vec::new(), BitSet::default())
        };
        FreeMachineIndex {
            order,
            by_id: BitSet::with_capacity(n),
            len: 0,
            machine_of_rank,
            rank_of_machine,
            by_rank,
            failures: vec![0; n],
            buckets: BTreeMap::new(),
        }
    }

    /// Number of free machines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when `id` is currently free.
    pub fn contains(&self, id: MachineId) -> bool {
        self.by_id.contains(id.index())
    }

    /// Marks `id` free (machine repaired, or its replica finished/killed).
    pub fn insert(&mut self, id: MachineId) {
        let i = id.index();
        let fresh = self.by_id.insert(i);
        debug_assert!(fresh, "machine {id} inserted while already free");
        self.len += 1;
        match self.order {
            MachineOrder::Arbitrary => {}
            MachineOrder::FastestFirst => {
                self.by_rank.insert(self.rank_of_machine[i] as usize);
            }
            MachineOrder::FewestFailuresFirst => {
                self.buckets
                    .entry(self.failures[i])
                    .or_default()
                    .insert(i as u32);
            }
        }
    }

    /// Marks `id` busy or down.
    pub fn remove(&mut self, id: MachineId) {
        let i = id.index();
        let was = self.by_id.remove(i);
        debug_assert!(was, "machine {id} removed while not free");
        self.len -= 1;
        match self.order {
            MachineOrder::Arbitrary => {}
            MachineOrder::FastestFirst => {
                self.by_rank.remove(self.rank_of_machine[i] as usize);
            }
            MachineOrder::FewestFailuresFirst => {
                let count = self.failures[i];
                let bucket = self.buckets.get_mut(&count).expect("machine was indexed");
                bucket.remove(&(i as u32));
                if bucket.is_empty() {
                    self.buckets.remove(&count);
                }
            }
        }
    }

    /// Records one more observed failure of `id`. Must be called while the
    /// machine is not in the index (a failing machine is down).
    pub fn note_failure(&mut self, id: MachineId) {
        debug_assert!(
            !self.contains(id),
            "failure of a machine still indexed as free"
        );
        self.failures[id.index()] += 1;
    }

    /// The next free machine in the configured order, if any.
    pub fn first(&self) -> Option<MachineId> {
        match self.order {
            MachineOrder::Arbitrary => self.by_id.first().map(|i| MachineId(i as u32)),
            MachineOrder::FastestFirst => self
                .by_rank
                .first()
                .map(|rank| MachineId(self.machine_of_rank[rank])),
            MachineOrder::FewestFailuresFirst => self
                .buckets
                .values()
                .next()
                .map(|set| MachineId(*set.iter().next().expect("buckets hold no empty sets"))),
        }
    }
}

/// Sentinel for "no slot / no key" in the intrusive replica lists, and
/// for "no set" in a replica-count [`Bucket`].
const NIL: u32 = u32::MAX;

/// A task's list endpoints: first and last attached slot (`NIL` when
/// empty). Kept as one record so the per-key random access attach and
/// detach both make touches a single cacheline, not two parallel arrays.
#[derive(Debug, Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
}

const EMPTY_ENDS: Ends = Ends {
    head: NIL,
    tail: NIL,
};

/// One replica slot's intrusive links plus the attach bookkeeping, packed
/// into 16 bytes so a link update is one line instead of four scattered
/// array hits (`prev` / `next` are `NIL` at the list ends).
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
    /// Generation of the handle attached at this slot, to reconstruct
    /// [`ReplicaId`]s on drain and ignore stale detaches.
    gen: u32,
    /// Whether the slot is currently attached to any list.
    attached: bool,
}

const FREE_LINK: Link = Link {
    prev: NIL,
    next: NIL,
    gen: 0,
    attached: false,
};

/// Running replicas per task, keyed by the task's dense checkpoint key.
///
/// The per-task lists are intrusive doubly-linked lists threaded through
/// a slot-indexed array: a replica occupies exactly one list at a time,
/// so one [`Link`] record per slot suffices. `detach` — the path a
/// machine failure takes for every killed replica — is an O(1) unlink
/// instead of the `Vec::remove` scan it used to be, and nothing here
/// allocates after the arrays reach the run's high-water mark.
/// Traversal follows `next` from the head, which is attach order — the
/// order sibling replicas are killed in when a task completes, which the
/// golden traces depend on.
#[derive(Debug, Clone, Default)]
pub(crate) struct TaskReplicaIndex {
    /// List endpoints per checkpoint key.
    ends: Vec<Ends>,
    /// Intrusive links per replica slot.
    links: Vec<Link>,
}

impl TaskReplicaIndex {
    /// Grows the key space to at least `keys` entries.
    pub fn ensure(&mut self, keys: usize) {
        if self.ends.len() < keys {
            self.ends.resize(keys, EMPTY_ENDS);
        }
    }

    /// Grows the per-slot link array to cover slot `idx`.
    fn ensure_slot(&mut self, idx: usize) {
        if self.links.len() <= idx {
            self.links.resize(idx + 1, FREE_LINK);
        }
    }

    /// Registers a running replica of the task at `key`, at the tail.
    pub fn attach(&mut self, key: usize, rid: ReplicaId) {
        let i = rid.idx as usize;
        self.ensure_slot(i);
        debug_assert!(!self.links[i].attached, "replica attached twice");
        let t = self.ends[key].tail;
        self.links[i] = Link {
            prev: t,
            next: NIL,
            gen: rid.gen,
            attached: true,
        };
        if t == NIL {
            self.ends[key].head = rid.idx;
        } else {
            self.links[t as usize].next = rid.idx;
        }
        self.ends[key].tail = rid.idx;
    }

    /// Unregisters a replica (no-op if it is not listed — the completing
    /// task's list is drained before its siblings are killed).
    pub fn detach(&mut self, key: usize, rid: ReplicaId) {
        let i = rid.idx as usize;
        let Some(link) = self.links.get(i).copied() else {
            return;
        };
        if !link.attached || link.gen != rid.gen {
            return;
        }
        self.links[i].attached = false;
        let (p, n) = (link.prev, link.next);
        if p == NIL {
            self.ends[key].head = n;
        } else {
            self.links[p as usize].next = n;
        }
        if n == NIL {
            self.ends[key].tail = p;
        } else {
            self.links[n as usize].prev = p;
        }
    }

    /// Empties the task's list into `out`, in attach order.
    pub fn take_into(&mut self, key: usize, out: &mut Vec<ReplicaId>) {
        let mut cur = self.ends[key].head;
        while cur != NIL {
            let i = cur as usize;
            debug_assert!(self.links[i].attached);
            self.links[i].attached = false;
            out.push(ReplicaId {
                idx: cur,
                gen: self.links[i].gen,
            });
            cur = self.links[i].next;
        }
        self.ends[key] = EMPTY_ENDS;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(index: &mut FreeMachineIndex) -> Vec<u32> {
        // Drain in order, then restore.
        let mut out = Vec::new();
        while let Some(m) = index.first() {
            out.push(m.0);
            index.remove(m);
        }
        for &i in &out {
            index.insert(MachineId(i));
        }
        out
    }

    #[test]
    fn arbitrary_is_ascending_id() {
        let powers = [5.0, 1.0, 9.0, 3.0];
        let mut idx = FreeMachineIndex::new(&powers, MachineOrder::Arbitrary);
        for i in [3u32, 0, 2] {
            idx.insert(MachineId(i));
        }
        assert_eq!(ids(&mut idx), vec![0, 2, 3]);
        assert_eq!(idx.len(), 3);
        assert!(idx.contains(MachineId(2)));
        idx.remove(MachineId(2));
        assert!(!idx.contains(MachineId(2)));
        assert_eq!(ids(&mut idx), vec![0, 3]);
    }

    #[test]
    fn fastest_first_orders_by_power_then_id() {
        // Machines 1 and 3 tie on power: id order breaks the tie.
        let powers = [5.0, 9.0, 2.0, 9.0];
        let mut idx = FreeMachineIndex::new(&powers, MachineOrder::FastestFirst);
        for i in 0..4 {
            idx.insert(MachineId(i));
        }
        assert_eq!(ids(&mut idx), vec![1, 3, 0, 2]);
    }

    #[test]
    fn fewest_failures_reorders_as_failures_accrue() {
        let powers = [1.0; 3];
        let mut idx = FreeMachineIndex::new(&powers, MachineOrder::FewestFailuresFirst);
        for i in 0..3 {
            idx.insert(MachineId(i));
        }
        assert_eq!(ids(&mut idx), vec![0, 1, 2]);
        // Machine 0 fails (leaves the index) twice, machine 1 once.
        idx.remove(MachineId(0));
        idx.note_failure(MachineId(0));
        idx.note_failure(MachineId(0));
        idx.insert(MachineId(0));
        idx.remove(MachineId(1));
        idx.note_failure(MachineId(1));
        idx.insert(MachineId(1));
        assert_eq!(ids(&mut idx), vec![2, 1, 0]);
    }

    #[test]
    fn count_buckets_track_minimum() {
        let mut b = ReplicaCountBuckets::new(8);
        assert_eq!(b.min_task(), None);
        assert_eq!(b.min_count(), None);
        b.bump(3, 0, 1);
        b.bump(5, 0, 1);
        assert_eq!(b.min_task(), Some((1, 3)), "lowest id wins ties");
        // Task 3 gains replicas: 1 → 2 → 3.
        b.bump(3, 1, 2);
        b.bump(3, 2, 3);
        assert_eq!(b.min_task(), Some((1, 5)));
        // Task 5 leaves (stopped): the pointer walks forward to count 3.
        b.bump(5, 1, 0);
        assert_eq!(b.min_task(), Some((3, 3)));
        assert_eq!(b.min_count(), Some(3));
        // A new task at count 1 pulls the minimum back down.
        b.bump(0, 0, 1);
        assert_eq!(b.min_task(), Some((1, 0)));
        // Empty out entirely.
        b.bump(0, 1, 0);
        b.bump(3, 3, 0);
        assert_eq!(b.min_task(), None);
        // Refill after empty: min pointer resets correctly.
        b.bump(7, 0, 2);
        assert_eq!(b.min_task(), Some((2, 7)));
    }

    /// Replica counts of a few tasks driven one step at a time, checking
    /// the bucket minimum and the storage bound after every step.
    struct CountWalk {
        b: ReplicaCountBuckets,
        counts: Vec<u32>,
        spare_high: usize,
        held_high: usize,
    }

    impl CountWalk {
        fn new(tasks: usize) -> Self {
            CountWalk {
                b: ReplicaCountBuckets::new(tasks),
                counts: vec![0; tasks],
                spare_high: 0,
                held_high: 0,
            }
        }

        fn step(&mut self, task: usize, to: u32) {
            self.b.bump(task as u32, self.counts[task], to);
            self.counts[task] = to;
            let live: BTreeSet<u32> = self.counts.iter().copied().filter(|&c| c > 0).collect();
            let (held, spare) = self.b.storage();
            self.spare_high = self.spare_high.max(spare);
            self.held_high = self.held_high.max(held);
            assert!(
                held <= live.len() + self.spare_high,
                "{held} sets held for {} live counts",
                live.len()
            );
            let expect = (0..self.counts.len())
                .filter(|&t| self.counts[t] > 0)
                .min_by_key(|&t| (self.counts[t], t))
                .map(|t| (self.counts[t], t as u32));
            assert_eq!(self.b.min_task(), expect);
        }

        fn walk(&mut self, task: usize, to: u32) {
            while self.counts[task] != to {
                let c = self.counts[task];
                self.step(task, if c < to { c + 1 } else { c - 1 });
            }
        }
    }

    #[test]
    fn count_bucket_storage_follows_live_counts() {
        // One task to count 10 000 and back: each step empties the bucket
        // it leaves, and the next count reuses that set.
        let mut w = CountWalk::new(16);
        w.walk(7, 10_000);
        w.walk(7, 0);
        assert_eq!(w.held_high, 1, "one live count needs one set");
        assert_eq!(w.b.min_task(), None);
        // Two tasks leapfrog: the one behind climbs one past the other.
        w.step(3, 1);
        w.step(9, 1);
        for _ in 0..2_000 {
            let (behind, ahead) = if w.counts[3] <= w.counts[9] {
                (3, 9)
            } else {
                (9, 3)
            };
            w.walk(behind, w.counts[ahead] + 1);
        }
        assert!(w.counts[3] > 1_000 && w.counts[9] > 1_000);
        assert_eq!(w.held_high, 2, "two live counts need two sets");
        w.walk(3, 0);
        w.walk(9, 0);
        assert_eq!(w.b.storage(), (2, 2), "emptied sets stay as spares");
        assert_eq!(w.b.min_count(), None);
    }

    #[test]
    fn task_replicas_keep_attach_order() {
        let rid = |idx| ReplicaId { idx, gen: 0 };
        let mut t = TaskReplicaIndex::default();
        t.ensure(2);
        t.attach(0, rid(5));
        t.attach(0, rid(3));
        t.attach(0, rid(9));
        t.detach(0, rid(3));
        let mut order = Vec::new();
        t.take_into(0, &mut order);
        assert_eq!(order.iter().map(|r| r.idx).collect::<Vec<_>>(), [5, 9]);
        // Detaching from an already-drained list is a no-op.
        t.detach(0, rid(5));
        order.clear();
        t.take_into(0, &mut order);
        assert!(order.is_empty());
    }

    #[test]
    fn task_replicas_detach_head_middle_tail() {
        let rid = |idx| ReplicaId { idx, gen: 1 };
        let mut t = TaskReplicaIndex::default();
        t.ensure(1);
        for i in 0..5 {
            t.attach(0, rid(i));
        }
        t.detach(0, rid(0)); // head
        t.detach(0, rid(2)); // middle
        t.detach(0, rid(4)); // tail
                             // A stale generation never unlinks a live entry.
        t.detach(0, ReplicaId { idx: 1, gen: 0 });
        let mut order = Vec::new();
        t.take_into(0, &mut order);
        assert_eq!(order.iter().map(|r| r.idx).collect::<Vec<_>>(), [1, 3]);
        assert!(order.iter().all(|r| r.gen == 1));
        // Slots freed by the drain can be re-attached, to any key.
        t.attach(0, rid(2));
        order.clear();
        t.take_into(0, &mut order);
        assert_eq!(order.iter().map(|r| r.idx).collect::<Vec<_>>(), [2]);
    }
}
