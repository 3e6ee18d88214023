//! Pending-event set implementations.
//!
//! Two priority queues are provided:
//!
//! * [`BinaryHeapQueue`] — a 4-ary min-heap of 24-byte `Copy` nodes keyed
//!   by `(time, id)`, payloads in a slot slab, the popped root reused by
//!   the next schedule, dense id-bitmap bookkeeping and lazy cancellation
//!   plus tombstone compaction. The queue the engine runs on:
//!   cache-friendly and cheap even under the kill-relaunch storms of
//!   aggressive replication policies.
//! * [`BTreeQueue`] — an ordered-map queue with *eager* cancellation
//!   (O(log n) true removal, no tombstones). The reference implementation
//!   the heap is property-tested against.
//!
//! Both honour the same contract, captured by [`PendingEvents`]: events pop
//! in non-decreasing time order, ties break in insertion (FIFO) order, and
//! cancelled events never pop.

use crate::event::EventId;
use crate::time::SimTime;
use std::collections::BTreeMap;

/// Common interface of the pending-event set.
pub trait PendingEvents<E> {
    /// Schedules `payload` to fire at `time`, returning a cancellation handle.
    fn schedule(&mut self, time: SimTime, payload: E) -> EventId;

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. this call removed it), `false` if it had already
    /// fired or been cancelled.
    fn cancel(&mut self, id: EventId) -> bool;

    /// Removes and returns the earliest pending event.
    fn pop(&mut self) -> Option<(SimTime, EventId, E)>;

    /// Firing time of the earliest pending event, if any.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Number of live (non-cancelled) pending events.
    fn len(&self) -> usize;

    /// True when no live events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Dense bitmap over sequentially issued event ids. Ids are allocated from
/// a counter, so a bit vector indexed by id replaces a hash set: O(1)
/// membership with no hashing, one bit per id ever issued.
#[derive(Debug, Clone, Default)]
struct IdBits {
    words: Vec<u64>,
}

impl IdBits {
    /// Sets the bit for `id`, growing the map as needed.
    #[inline]
    fn set(&mut self, id: u64) {
        let w = (id >> 6) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (id & 63);
    }

    /// True when the bit for `id` is set. Out-of-range ids (never issued,
    /// or the `EventId::NONE` sentinel) read as unset.
    #[inline]
    fn get(&self, id: u64) -> bool {
        self.words
            .get((id >> 6) as usize)
            .is_some_and(|&w| w >> (id & 63) & 1 == 1)
    }

    /// Clears the bit for `id`; returns whether it was set.
    #[inline]
    fn clear(&mut self, id: u64) -> bool {
        match self.words.get_mut((id >> 6) as usize) {
            Some(w) => {
                let mask = 1 << (id & 63);
                let was = *w & mask != 0;
                *w &= !mask;
                was
            }
            None => false,
        }
    }
}

/// Raw bits of a scheduled time, which must be non-negative.
#[inline]
fn time_bits(t: SimTime) -> u64 {
    let secs = t.as_secs();
    debug_assert!(
        secs >= 0.0,
        "event queues require non-negative times (got {secs})"
    );
    secs.to_bits()
}

/// Order key of raw time bits. With the sign bit cleared, the bits of a
/// non-negative time order like the time itself, and `-0.0` keys as `+0.0`,
/// just as `SimTime`'s `==` has it. (Raw, `-0.0` would sort after `+∞`.)
#[inline]
fn time_key(bits: u64) -> u64 {
    bits & !(1 << 63)
}

/// A heap node: the event's raw time bits, its id and the slab slot that
/// holds its payload. Small and `Copy`, so a sift moves 24 bytes per level.
#[derive(Debug, Clone, Copy)]
struct Node {
    time: u64,
    id: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 24);

impl Node {
    /// Queue order in one compare: time, then id (insertion order). Ids
    /// are unique, so no two keys tie and pop order is fully determined.
    #[inline]
    fn key(&self) -> u128 {
        u128::from(time_key(self.time)) << 64 | u128::from(self.id)
    }
}

/// 4-ary min-heap pending-event set with a payload slab, dense id-bitmap
/// bookkeeping and compacted lazy cancellation.
///
/// Heap nodes are 24-byte `Copy` records ordered by `(time, id)`; payloads
/// stay put in a slot slab. The root `pop` hands out is not removed at
/// once: it stays *vacant* in place until the next `schedule` overwrites
/// it and sifts the new node down, so a handler's usual pop-then-schedule
/// costs one sift instead of two. Cancellation clears the id's pending
/// bit and leaves a tombstone; when tombstones outnumber live events by
/// more than 64 the heap is rebuilt without them, so resident nodes stay
/// at most `2·live + 65` (the extra one is the vacant root).
///
/// The name predates the 4-ary layout and is kept for the API.
#[derive(Debug, Clone)]
pub struct BinaryHeapQueue<E> {
    heap: Vec<Node>,
    /// `heap[0]` was already popped and awaits overwrite or removal.
    vacant: bool,
    /// Payload slab indexed by `Node::slot`; `None` marks a free slot.
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    /// Ids scheduled but not yet popped or cancelled. A resident node
    /// (other than the vacant root) whose bit is clear is a tombstone.
    pending: IdBits,
    next_id: u64,
    /// Live (non-cancelled) pending events.
    live: usize,
    /// Tombstones still resident in `heap`.
    dead: usize,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with capacity for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeapQueue {
            heap: Vec::with_capacity(cap),
            vacant: false,
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            pending: IdBits::default(),
            next_id: 0,
            live: 0,
            dead: 0,
        }
    }

    /// Takes the payload out of `slot` and returns the slot to the free list.
    #[inline]
    fn release(&mut self, slot: u32) -> E {
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("a resident node owns its slot")
    }

    /// Moves `node` into the hole at `pos` and sifts it down. With all four
    /// children present the smallest is picked by compares alone, no branches.
    #[inline]
    fn sift_down(&mut self, mut pos: usize, node: Node) {
        let key = node.key();
        let len = self.heap.len();
        loop {
            let first = 4 * pos + 1;
            let child = if first + 3 < len {
                let c = &self.heap[first..first + 4];
                let a = usize::from(c[1].key() < c[0].key());
                let b = 2 + usize::from(c[3].key() < c[2].key());
                first + if c[b].key() < c[a].key() { b } else { a }
            } else if first < len {
                (first..len)
                    .min_by_key(|&c| self.heap[c].key())
                    .expect("range is non-empty")
            } else {
                break;
            };
            if key < self.heap[child].key() {
                break;
            }
            self.heap[pos] = self.heap[child];
            pos = child;
        }
        self.heap[pos] = node;
    }

    /// Moves `node` into the hole at `pos` and sifts it up.
    #[inline]
    fn sift_up(&mut self, mut pos: usize, node: Node) {
        let key = node.key();
        while pos > 0 {
            let parent = (pos - 1) / 4;
            if self.heap[parent].key() < key {
                break;
            }
            self.heap[pos] = self.heap[parent];
            pos = parent;
        }
        self.heap[pos] = node;
    }

    /// Drops the vacant root, refilling the hole from the last node.
    fn remove_root(&mut self) {
        self.vacant = false;
        let last = self.heap.pop().expect("the vacant root is resident");
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
    }

    /// Settles the root on the earliest live event, discarding the vacant
    /// root and any tombstones in front of it.
    #[inline]
    fn live_root(&mut self) -> Option<Node> {
        loop {
            if self.vacant {
                self.remove_root();
            }
            let root = *self.heap.first()?;
            if self.pending.get(root.id) {
                return Some(root);
            }
            drop(self.release(root.slot));
            self.dead -= 1;
            self.vacant = true;
        }
    }

    /// Rebuilds the heap without tombstones. Keys are unique, so pop order
    /// is unchanged; only the dead weight goes.
    fn compact(&mut self) {
        let mut nodes = std::mem::take(&mut self.heap);
        if std::mem::take(&mut self.vacant) {
            nodes.swap_remove(0);
        }
        nodes.retain(|n| {
            let keep = self.pending.get(n.id);
            if !keep {
                self.free.push(n.slot);
                self.slots[n.slot as usize] = None;
            }
            keep
        });
        self.heap = nodes;
        self.dead = 0;
        for pos in (0..self.heap.len().div_ceil(4)).rev() {
            self.sift_down(pos, self.heap[pos]);
        }
    }
}

impl<E> PendingEvents<E> for BinaryHeapQueue<E> {
    fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.set(id);
        self.live += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                self.slots.push(Some(payload));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        let node = Node {
            time: time_bits(time),
            id,
            slot,
        };
        if std::mem::take(&mut self.vacant) {
            self.sift_down(0, node);
        } else {
            self.heap.push(node);
            self.sift_up(self.heap.len() - 1, node);
        }
        EventId(id)
    }

    fn cancel(&mut self, id: EventId) -> bool {
        // Only ids that are still pending may be cancelled; ids that already
        // fired (or were cancelled, or were never issued) have a clear bit.
        if self.pending.clear(id.0) {
            self.live -= 1;
            self.dead += 1;
            if self.dead > self.live + 64 {
                self.compact();
            }
            true
        } else {
            false
        }
    }

    fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        let root = self.live_root()?;
        self.pending.clear(root.id);
        self.live -= 1;
        self.vacant = true;
        let payload = self.release(root.slot);
        Some((
            SimTime::new(f64::from_bits(root.time)),
            EventId(root.id),
            payload,
        ))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.live_root()
            .map(|root| SimTime::new(f64::from_bits(root.time)))
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// Ordered-map pending-event set with eager cancellation.
///
/// Keys are `(time-key, id)`: scheduled times are non-NaN and non-negative,
/// so the IEEE-754 bit pattern of the time with its sign cleared orders
/// correctly (and ties `-0.0` with `+0.0`) and gives a fully `Ord` key. Cancellation removes the entry outright —
/// no tombstones, so memory is exactly proportional to live events.
pub struct BTreeQueue<E> {
    map: BTreeMap<(u64, u64), (SimTime, E)>,
    /// id → key, so `cancel` can find the entry.
    index: BTreeMap<u64, (u64, u64)>,
    next_id: u64,
}

impl<E> Default for BTreeQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BTreeQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BTreeQueue {
            map: BTreeMap::new(),
            index: BTreeMap::new(),
            next_id: 0,
        }
    }
}

impl<E> PendingEvents<E> for BTreeQueue<E> {
    fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        let key = (time_key(time_bits(time)), id.0);
        self.map.insert(key, (time, payload));
        self.index.insert(id.0, key);
        id
    }

    fn cancel(&mut self, id: EventId) -> bool {
        match self.index.remove(&id.0) {
            Some(key) => {
                let removed = self.map.remove(&key);
                debug_assert!(removed.is_some(), "index out of sync");
                true
            }
            None => false,
        }
    }

    fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        let (key, (time, payload)) = self.map.pop_first()?;
        self.index.remove(&key.1);
        Some((time, EventId(key.1), payload))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.map.first_key_value().map(|(_, (t, _))| *t)
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<Q: PendingEvents<u32>>(mut q: Q) {
        assert!(q.is_empty());
        let a = q.schedule(SimTime::new(5.0), 5);
        let _b = q.schedule(SimTime::new(1.0), 1);
        let c = q.schedule(SimTime::new(3.0), 3);
        assert_eq!(q.len(), 3);
        assert!(q.cancel(c));
        assert!(!q.cancel(c), "double cancel must be a no-op");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        assert_eq!(q.pop().map(|(t, _, p)| (t.as_secs(), p)), Some((1.0, 1)));
        assert_eq!(q.pop().map(|(t, _, p)| (t.as_secs(), p)), Some((5.0, 5)));
        assert!(!q.cancel(a), "cancelling a fired event must return false");
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn heap_contract() {
        exercise(BinaryHeapQueue::new());
    }

    #[test]
    fn btree_contract() {
        exercise(BTreeQueue::new());
    }

    #[test]
    fn btree_fifo_ties() {
        fifo_ties(BTreeQueue::new());
    }

    #[test]
    fn btree_cancel_is_eager() {
        let mut q = BTreeQueue::new();
        let ids: Vec<_> = (0..100)
            .map(|i| q.schedule(SimTime::new(i as f64), i))
            .collect();
        for id in &ids[..50] {
            assert!(q.cancel(*id));
        }
        assert_eq!(q.len(), 50);
        // Internals hold exactly the live events (no tombstones).
        assert_eq!(q.map.len(), 50);
        assert_eq!(q.index.len(), 50);
        assert_eq!(q.pop().unwrap().2, 50);
    }

    fn fifo_ties<Q: PendingEvents<u32>>(mut q: Q) {
        for i in 0..10 {
            q.schedule(SimTime::new(7.0), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn heap_fifo_ties() {
        fifo_ties(BinaryHeapQueue::new());
    }

    #[test]
    fn heap_interleaved_schedule_pop() {
        let mut q = BinaryHeapQueue::new();
        q.schedule(SimTime::new(10.0), 10);
        assert_eq!(q.pop().unwrap().2, 10);
        q.schedule(SimTime::new(2.0), 2);
        q.schedule(SimTime::new(1.0), 1);
        assert_eq!(q.pop().unwrap().2, 1);
        q.schedule(SimTime::new(0.5), 0);
        assert_eq!(q.pop().unwrap().2, 0);
        assert_eq!(q.pop().unwrap().2, 2);
    }

    #[test]
    fn cancel_none_sentinel_is_noop() {
        let mut q = BinaryHeapQueue::<u32>::new();
        assert!(!q.cancel(EventId::NONE));
        let mut b = BTreeQueue::<u32>::new();
        assert!(!b.cancel(EventId::NONE));
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = BinaryHeapQueue::new();
        let head = q.schedule(SimTime::new(1.0), 1);
        q.schedule(SimTime::new(2.0), 2);
        q.cancel(head);
        assert_eq!(q.peek_time(), Some(SimTime::new(2.0)));
    }

    #[test]
    fn heap_coalesced_batches_interleave_with_singletons() {
        let mut q = BinaryHeapQueue::new();
        // Two same-time runs separated by earlier singletons: the runs
        // must pop as one FIFO sequence after the singletons.
        for i in 0..5 {
            q.schedule(SimTime::new(3.0), i);
        }
        q.schedule(SimTime::new(1.0), 100);
        for i in 5..10 {
            q.schedule(SimTime::new(3.0), i);
        }
        q.schedule(SimTime::new(2.0), 200);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec![100, 200, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn heap_cancel_inside_batch() {
        let mut q = BinaryHeapQueue::new();
        let ids: Vec<_> = (0..6).map(|i| q.schedule(SimTime::new(4.0), i)).collect();
        q.schedule(SimTime::new(9.0), 99);
        assert!(q.cancel(ids[0]));
        assert!(q.cancel(ids[3]));
        assert!(q.cancel(ids[5]));
        assert_eq!(q.peek_time(), Some(SimTime::new(4.0)));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 4, 99]);
    }

    #[test]
    fn heap_compaction_preserves_order_and_counts() {
        let mut q = BinaryHeapQueue::new();
        let mut live = Vec::new();
        let mut dead = Vec::new();
        for i in 0..1000u32 {
            // Clustered times force ties; cancel ~90% to trip compaction.
            let id = q.schedule(SimTime::new((i % 17) as f64), i);
            if i % 10 == 0 {
                live.push((i % 17, i));
            } else {
                dead.push(id);
            }
        }
        for id in dead {
            assert!(q.cancel(id));
        }
        assert_eq!(q.len(), live.len());
        live.sort(); // (time, insertion order) — ids ascend with i
        let order: Vec<(u32, u32)> =
            std::iter::from_fn(|| q.pop().map(|(t, _, p)| (t.as_secs() as u32, p))).collect();
        assert_eq!(order, live);
        assert!(q.is_empty());
    }

    #[test]
    fn signed_zero_ties_pop_in_id_order() {
        fn check<Q: PendingEvents<u32>>(mut q: Q) {
            q.schedule(SimTime::new(1.0), 9);
            for i in 0..6 {
                let t = if i % 2 == 0 { -0.0 } else { 0.0 };
                q.schedule(SimTime::new(t), i);
            }
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
            assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 9]);
        }
        check(BinaryHeapQueue::new());
        check(BTreeQueue::new());
    }

    #[test]
    fn heap_residency_stays_bounded_through_cancel_storms() {
        let mut q = BinaryHeapQueue::new();
        let mut ids = Vec::new();
        for i in 0..2000u32 {
            ids.push(q.schedule(SimTime::new(f64::from(i % 97)), i));
        }
        // Leave a vacant root behind, as the engine does between events.
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(0));
        // Cancel all but every 16th event, in a scattered order.
        for k in 0..ids.len() {
            let id = ids[(k * 7919) % ids.len()];
            if id.raw() % 16 != 0 {
                assert!(q.cancel(id));
            }
            assert!(
                q.heap.len() <= 2 * q.len() + 65,
                "{} resident nodes for {} live events",
                q.heap.len(),
                q.len()
            );
        }
        assert_eq!(q.len(), 124);
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(popped.len(), 124);
        assert!(popped.iter().all(|p| p % 16 == 0));
    }

    /// Randomised cross-check: the heap queue must agree with the eager
    /// BTree reference under interleaved schedule/cancel/pop/peek.
    #[test]
    fn heap_matches_btree_reference() {
        let mut heap = BinaryHeapQueue::new();
        let mut btree = BTreeQueue::new();
        let mut ids = Vec::new();
        // xorshift64: deterministic, no external RNG needed.
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for step in 0..20_000u32 {
            match rnd() % 10 {
                0..=4 => {
                    // Coarse times produce frequent ties (FIFO tie paths).
                    let t = SimTime::new((rnd() % 64) as f64);
                    let a = heap.schedule(t, step);
                    let b = btree.schedule(t, step);
                    assert_eq!(a, b, "id streams must align");
                    ids.push(a);
                }
                5..=7 => {
                    if !ids.is_empty() {
                        let id = ids[(rnd() as usize) % ids.len()];
                        assert_eq!(heap.cancel(id), btree.cancel(id));
                    }
                }
                8 => {
                    assert_eq!(heap.peek_time(), btree.peek_time());
                }
                _ => {
                    assert_eq!(heap.pop(), btree.pop());
                }
            }
            assert_eq!(heap.len(), btree.len());
        }
        loop {
            let (a, b) = (heap.pop(), btree.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
