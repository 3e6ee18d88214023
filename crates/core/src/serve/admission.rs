//! Fair-share admission: bounded sweep slots, handed out round-robin
//! across tenants instead of first-come-whole-pool.
//!
//! Without admission control, the first client to submit a large matrix
//! owns the replication pool until it drains — every later tenant
//! queues behind the whole sweep. The admission queue bounds how many
//! sweeps run concurrently (`slots`, default 1: one sweep at a time gets
//! the whole pool, the paper-sweep sweet spot) and, when sweeps are
//! waiting, grants the next slot to the next *tenant* in round-robin
//! order, so a tenant with one queued sweep is never starved by a tenant
//! with fifty. Within a tenant, requests run in arrival order.
//!
//! The grant decision is a pure function of the queue state
//! ([`AdmissionState::grant_next`]), unit-tested synchronously; the
//! blocking shell around it is a `Mutex`/`Condvar` pair.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Condvar, Mutex};

/// The queue state: who is waiting, in what per-tenant order, and which
/// tickets have been granted a slot.
#[derive(Debug, Default)]
struct AdmissionState {
    slots: usize,
    running: usize,
    next_ticket: u64,
    /// Per-tenant FIFO of waiting tickets.
    queues: BTreeMap<String, VecDeque<u64>>,
    /// Tenants with waiting tickets, in round-robin grant order: the
    /// front tenant receives the next free slot, then rotates to the
    /// back (or leaves, if its queue drained — it rejoins at the back on
    /// its next arrival, which is exactly the round-robin contract).
    rotation: VecDeque<String>,
    /// Tickets granted a slot whose owner has not yet observed it.
    /// Ordered so any future enumeration (e.g. `/metrics`) is
    /// deterministic; the set is tiny, so the tree costs nothing.
    granted: BTreeSet<u64>,
}

impl AdmissionState {
    fn new(slots: usize) -> Self {
        AdmissionState {
            slots: slots.max(1),
            ..AdmissionState::default()
        }
    }

    /// Queues one arrival for `tenant`, returning its ticket.
    fn enqueue(&mut self, tenant: &str) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let queue = self.queues.entry(tenant.to_string()).or_default();
        if queue.is_empty() {
            self.rotation.push_back(tenant.to_string());
        }
        queue.push_back(ticket);
        ticket
    }

    /// Grants free slots to waiting tickets, one tenant per rotation
    /// step. Returns the tickets granted by this call, in grant order.
    fn grant_next(&mut self) -> Vec<u64> {
        let mut granted = Vec::new();
        while self.running < self.slots {
            let Some(tenant) = self.rotation.pop_front() else {
                break;
            };
            let queue = self
                .queues
                .get_mut(&tenant)
                .expect("rotation lists only tenants with queues");
            let ticket = queue
                .pop_front()
                .expect("rotation lists only non-empty queues");
            if queue.is_empty() {
                self.queues.remove(&tenant);
            } else {
                self.rotation.push_back(tenant);
            }
            self.running += 1;
            self.granted.insert(ticket);
            granted.push(ticket);
        }
        granted
    }

    /// Releases one slot (a permit was dropped).
    fn release(&mut self) {
        self.running -= 1;
    }
}

/// The blocking fair-share admission queue.
#[derive(Debug)]
pub struct Admission {
    state: Mutex<AdmissionState>,
    cv: Condvar,
}

/// A held sweep slot; dropping it releases the slot and wakes the next
/// grantee.
#[derive(Debug)]
pub struct Permit<'a> {
    admission: &'a Admission,
}

fn lock(m: &Mutex<AdmissionState>) -> std::sync::MutexGuard<'_, AdmissionState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Admission {
    /// An admission queue with `slots` concurrent sweep slots (clamped
    /// to ≥ 1).
    pub fn new(slots: usize) -> Self {
        Admission {
            state: Mutex::new(AdmissionState::new(slots)),
            cv: Condvar::new(),
        }
    }

    /// Blocks until this request is granted a sweep slot under the
    /// round-robin discipline. Requests without a tenant should pass a
    /// shared bucket name (the server uses `"anonymous"`).
    pub fn admit(&self, tenant: &str) -> Permit<'_> {
        let mut state = lock(&self.state);
        let ticket = state.enqueue(tenant);
        // This grant pass may hand slots to *older* waiting tickets (and
        // possibly not ours); wake their owners before blocking, or a
        // grant could sit unobserved until the next release.
        if !state.grant_next().is_empty() {
            self.cv.notify_all();
        }
        while !state.granted.remove(&ticket) {
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        Permit { admission: self }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.admission.state);
        state.release();
        state.grant_next();
        drop(state);
        self.admission.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Drives the pure grant logic through a contended scenario:
    /// one slot, tenant `a` queues three sweeps before tenant `b`'s
    /// first — fair-share interleaves them instead of draining `a`.
    #[test]
    fn round_robin_interleaves_tenants() {
        let mut st = AdmissionState::new(1);
        let a0 = st.enqueue("a");
        let granted = st.grant_next();
        assert_eq!(granted, vec![a0], "empty system grants immediately");
        let a1 = st.enqueue("a");
        let a2 = st.enqueue("a");
        let b0 = st.enqueue("b");
        assert!(st.grant_next().is_empty(), "slot is busy");
        let mut order = Vec::new();
        for _ in 0..3 {
            st.release();
            order.extend(st.grant_next());
        }
        // a went to the back of the rotation after a1, so b0 runs before
        // a2 despite arriving later: round-robin, not FIFO.
        assert_eq!(order, vec![a1, b0, a2]);
    }

    #[test]
    fn within_a_tenant_order_is_fifo() {
        let mut st = AdmissionState::new(1);
        let t0 = st.enqueue("t");
        let t1 = st.enqueue("t");
        let t2 = st.enqueue("t");
        assert_eq!(st.grant_next(), vec![t0]);
        st.release();
        assert_eq!(st.grant_next(), vec![t1]);
        st.release();
        assert_eq!(st.grant_next(), vec![t2]);
    }

    #[test]
    fn multiple_slots_grant_breadth_first() {
        let mut st = AdmissionState::new(2);
        let a0 = st.enqueue("a");
        let a1 = st.enqueue("a");
        let b0 = st.enqueue("b");
        // Two slots: one to each tenant before a's second sweep.
        assert_eq!(st.grant_next(), vec![a0, b0]);
        st.release();
        assert_eq!(st.grant_next(), vec![a1]);
    }

    /// The blocking shell: with one slot, concurrency never exceeds one,
    /// and every admit eventually returns.
    #[test]
    fn permits_bound_concurrency() {
        let admission = Arc::new(Admission::new(1));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let admission = admission.clone();
                let running = running.clone();
                let peak = peak.clone();
                std::thread::spawn(move || {
                    let tenant = if i % 2 == 0 { "even" } else { "odd" };
                    let _permit = admission.admit(tenant);
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    running.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1, "one slot, one sweep");
    }
}
