//! Single-flight deduplication: concurrent identical requests share one
//! computation.
//!
//! The first request for a fingerprint becomes the **leader** and runs
//! the sweep; every concurrent duplicate becomes a **follower** and
//! blocks on the leader's flight until it publishes a result. A leader
//! that dies without publishing (a panicking handler thread) publishes
//! an error from its token's `Drop`, so followers can never hang on a
//! dead flight.
//!
//! Built on `std::sync` (the vendored `parking_lot` has no `Condvar`).
//! Lock poisoning is recovered with `into_inner`: the state protected by
//! these mutexes is a plain value slot, always valid. Because these are
//! std locks, the `lockcheck` witness in `vendor/parking_lot` does not
//! see them — the condvar wait/relock cycle could not be tracked
//! soundly anyway; the flight map is a leaf lock (nothing is acquired
//! while it is held), which is the deadlock-freedom argument here.

use super::cache::CacheEntry;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};

/// What a flight resolves to: the cache entry the leader computed, or
/// the error message it failed with.
pub type FlightResult = Result<Arc<CacheEntry>, String>;

#[derive(Default)]
struct Flight {
    slot: Mutex<Option<FlightResult>>,
    cv: Condvar,
}

// Ordered on purpose: `/metrics` (and any future flight enumeration)
// must see in-flight fingerprints in deterministic key order, per
// `clippy.toml`'s `HashMap` rule.
type FlightMap = Mutex<BTreeMap<String, Arc<Flight>>>;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The in-flight request table.
#[derive(Default)]
pub struct SingleFlight {
    inflight: Arc<FlightMap>,
}

/// What `join` decided for this request.
pub enum FlightRole {
    /// This request runs the sweep; it must call
    /// [`SingleFlight::finish`] (or drop the token, which publishes an
    /// error) exactly once.
    Leader(LeaderToken),
    /// A concurrent leader already ran the sweep; here is its result,
    /// waited for.
    Follower(FlightResult),
}

/// Proof of leadership for one fingerprint; publishing the result
/// consumes it.
pub struct LeaderToken {
    fingerprint: String,
    flight: Arc<Flight>,
    inflight: Arc<FlightMap>,
    finished: bool,
}

impl LeaderToken {
    fn publish(&mut self, result: FlightResult) {
        if self.finished {
            return;
        }
        self.finished = true;
        // Remove from the table before waking followers: a request
        // arriving after the wake must re-probe the cache (which the
        // leader filled before publishing) instead of joining a
        // completed flight.
        lock(&self.inflight).remove(&self.fingerprint);
        *lock(&self.flight.slot) = Some(result);
        self.flight.cv.notify_all();
    }
}

impl Drop for LeaderToken {
    fn drop(&mut self) {
        // A leader that unwinds without finishing still resolves its
        // followers — with an error, never a hang.
        self.publish(Err(
            "sweep leader failed before publishing a result".to_string()
        ));
    }
}

impl SingleFlight {
    /// An empty table.
    pub fn new() -> Self {
        SingleFlight::default()
    }

    /// Joins the flight for `fingerprint`: the first caller becomes the
    /// leader, everyone else blocks until the leader publishes.
    pub fn join(&self, fingerprint: &str) -> FlightRole {
        let flight = {
            let mut map = lock(&self.inflight);
            match map.get(fingerprint) {
                Some(flight) => flight.clone(),
                None => {
                    let flight = Arc::new(Flight::default());
                    map.insert(fingerprint.to_string(), flight.clone());
                    return FlightRole::Leader(LeaderToken {
                        fingerprint: fingerprint.to_string(),
                        flight,
                        inflight: self.inflight.clone(),
                        finished: false,
                    });
                }
            }
        };
        let mut slot = lock(&flight.slot);
        while slot.is_none() {
            slot = flight.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
        FlightRole::Follower(slot.clone().expect("loop exits only when resolved"))
    }

    /// Publishes the leader's result and wakes every follower.
    pub fn finish(&self, mut token: LeaderToken, result: FlightResult) {
        token.publish(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn entry(bytes: &[u8]) -> Arc<CacheEntry> {
        Arc::new(CacheEntry {
            request: b"req".to_vec(),
            response: bytes.to_vec(),
        })
    }

    #[test]
    fn followers_receive_the_leaders_result() {
        let sf = Arc::new(SingleFlight::new());
        let FlightRole::Leader(token) = sf.join("fp") else {
            panic!("first join must lead");
        };
        let followers: Vec<_> = (0..3)
            .map(|_| {
                let sf = sf.clone();
                thread::spawn(move || match sf.join("fp") {
                    FlightRole::Follower(r) => r.unwrap().response.clone(),
                    FlightRole::Leader(_) => panic!("duplicate leader"),
                })
            })
            .collect();
        // Give the followers time to block on the flight.
        thread::sleep(Duration::from_millis(20));
        sf.finish(token, Ok(entry(b"answer")));
        for f in followers {
            assert_eq!(f.join().unwrap(), b"answer");
        }
        // The flight is gone: the next join leads again.
        assert!(matches!(sf.join("fp"), FlightRole::Leader(_)));
    }

    #[test]
    fn dropped_leader_resolves_followers_with_an_error() {
        let sf = Arc::new(SingleFlight::new());
        let FlightRole::Leader(token) = sf.join("fp") else {
            panic!("first join must lead");
        };
        let sf2 = sf.clone();
        let follower = thread::spawn(move || match sf2.join("fp") {
            FlightRole::Follower(r) => r,
            FlightRole::Leader(_) => panic!("duplicate leader"),
        });
        thread::sleep(Duration::from_millis(20));
        drop(token); // leader dies without publishing
        let err = follower.join().unwrap().unwrap_err();
        assert!(err.contains("leader failed"), "{err}");
    }

    #[test]
    fn distinct_fingerprints_fly_independently() {
        let sf = SingleFlight::new();
        let FlightRole::Leader(a) = sf.join("aa") else {
            panic!("aa leads");
        };
        let FlightRole::Leader(b) = sf.join("bb") else {
            panic!("bb must lead its own flight");
        };
        sf.finish(a, Ok(entry(b"ra")));
        sf.finish(b, Ok(entry(b"rb")));
    }
}
