//! In-memory tracers: the unbounded [`TraceRecorder`] and the
//! fixed-capacity [`TraceRing`].
//!
//! Both store [`TraceEvent`]s in record order. The recorder grows without
//! bound and is what tests and the golden-trace suite use; the ring is the
//! production-debugging tracer — it pre-allocates its full capacity once,
//! overwrites its oldest events when full, and counts every overwrite so
//! exports can report truncation instead of hiding it.

use crate::event::TraceEvent;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Records every transition into a vector.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecorder {
    /// The recorded transitions in event order.
    pub events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Number of recorded transitions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Timestamps are non-decreasing (sanity check used by tests).
    pub fn is_time_ordered(&self) -> bool {
        self.events.windows(2).all(|w| w[0].at() <= w[1].at())
    }
}

/// A fixed-capacity ring buffer of trace events.
///
/// All memory is allocated up front; pushing into a full ring evicts the
/// oldest event and increments the drop counter. The surviving window is
/// always the *most recent* `capacity` events, in record order.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceRing {
    /// An empty ring holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring tracer needs a non-zero capacity");
        TraceRing {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    /// Copies the surviving window into a vector, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf.iter().cloned().collect()
    }

    /// Number of events currently held (at most the capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full. Zero means the ring saw
    /// the complete run.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// True when at least one event was evicted.
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: f64) -> TraceEvent {
        TraceEvent::BagArrival { at, bag: at as u32 }
    }

    #[test]
    fn ring_keeps_most_recent_window() {
        let mut ring = TraceRing::new(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.push(ev(i as f64));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert!(ring.truncated());
        let ats: Vec<f64> = ring.events().iter().map(|e| e.at()).collect();
        assert_eq!(ats, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn ring_under_capacity_drops_nothing() {
        let mut ring = TraceRing::new(10);
        for i in 0..4 {
            ring.push(ev(i as f64));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 0);
        assert!(!ring.truncated());
        assert_eq!(ring.events().len(), 4);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_is_rejected() {
        let _ = TraceRing::new(0);
    }

    #[test]
    fn recorder_shape_is_stable() {
        let rec = TraceRecorder {
            events: vec![ev(0.0)],
        };
        assert_eq!(
            serde_json::to_string(&rec).unwrap(),
            r#"{"events":[{"kind":"bag_arrival","at":0.0,"bag":0}]}"#
        );
    }
}
