//! Named profiling spans over the kernel's zero-cost timing primitives.
//!
//! A [`Profiler`] owns a fixed set of spans registered at construction.
//! Instrumented code brackets a region with [`dgsched_des::profile::stamp`]
//! and [`Profiler::record`]; without the `timing` feature both compile to
//! nothing, so a profiler can live permanently inside a hot structure at
//! zero cost.

use dgsched_des::profile::{SpanTimes, Stamp};
use serde::{Deserialize, Serialize};

/// Handle of a registered span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// A fixed set of named wall-clock spans.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    spans: Vec<(&'static str, SpanTimes)>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Registers a span.
    pub fn span(&mut self, name: &'static str) -> SpanId {
        debug_assert!(
            self.spans.iter().all(|(n, _)| *n != name),
            "duplicate span '{name}'"
        );
        self.spans.push((name, SpanTimes::default()));
        SpanId(self.spans.len() - 1)
    }

    /// Closes a region opened with [`dgsched_des::profile::stamp`].
    /// Compiled to nothing without the `timing` feature (not even the
    /// span-table index survives).
    #[inline(always)]
    pub fn record(&mut self, id: SpanId, start: Stamp) {
        #[cfg(feature = "timing")]
        self.spans[id.0].1.record(start);
        #[cfg(not(feature = "timing"))]
        let _ = (id, start);
    }

    /// Folds an externally collected [`SpanTimes`] in under `name`
    /// (e.g. the engine's queue-pop span, measured inside `dgsched-des`).
    pub fn absorb(&mut self, name: &'static str, times: SpanTimes) {
        self.spans.push((name, times));
    }

    /// Renders every span, in registration order.
    pub fn stats(&self) -> Vec<SpanStats> {
        self.spans
            .iter()
            .map(|(name, t)| SpanStats {
                name: (*name).to_string(),
                count: t.count,
                total_ns: t.total_ns,
                max_ns: t.max_ns,
            })
            .collect()
    }

    /// True when no span recorded anything (always true without
    /// `timing`).
    pub fn is_empty(&self) -> bool {
        self.spans.iter().all(|(_, t)| t.is_empty())
    }
}

/// Serialisable rendering of one span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanStats {
    /// Span name.
    pub name: String,
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Longest single entry, nanoseconds.
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsched_des::profile::stamp;

    #[test]
    fn spans_register_and_render_in_order() {
        let mut prof = Profiler::new();
        let round = prof.span("scheduler_round");
        let dispatch = prof.span("dispatch");
        #[allow(clippy::let_unit_value, reason = "unit Stamp without `timing`")]
        let t = stamp();
        prof.record(dispatch, t);
        #[allow(clippy::let_unit_value, reason = "unit Stamp without `timing`")]
        let t = stamp();
        prof.record(round, t);
        prof.absorb("engine_pop", SpanTimes::default());
        let stats = prof.stats();
        let names: Vec<&str> = stats.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["scheduler_round", "dispatch", "engine_pop"]);
        if cfg!(feature = "timing") {
            assert_eq!(stats[0].count, 1);
            assert_eq!(stats[1].count, 1);
            assert!(!prof.is_empty());
        } else {
            assert!(prof.is_empty(), "spans must be no-ops without `timing`");
            assert!(stats.iter().all(|s| s.count == 0 && s.total_ns == 0));
        }
    }
}
