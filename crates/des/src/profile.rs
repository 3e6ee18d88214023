//! Zero-cost wall-clock profiling primitives.
//!
//! The kernel's hot paths are instrumented with [`stamp`] /
//! [`SpanTimes::record`] pairs. With the `timing` cargo feature disabled
//! (the default), [`Stamp`] is the unit type and both functions are empty
//! `#[inline(always)]` bodies — the instrumentation compiles to nothing,
//! which is what lets the production path promise byte-identical output
//! *and* identical machine code. With `timing` enabled, each pair costs
//! two `Instant::now` reads and updates count / total / max nanoseconds.

/// An opaque start-of-span marker. Unit when profiling is compiled out.
#[cfg(feature = "timing")]
pub type Stamp = std::time::Instant;

/// An opaque start-of-span marker. Unit when profiling is compiled out.
#[cfg(not(feature = "timing"))]
pub type Stamp = ();

/// Marks the start of a span.
#[inline(always)]
#[must_use]
pub fn stamp() -> Stamp {
    #[cfg(feature = "timing")]
    {
        std::time::Instant::now()
    }
}

/// Count / total / max wall-clock nanoseconds of one span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTimes {
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Longest single entry, nanoseconds.
    pub max_ns: u64,
}

impl SpanTimes {
    /// Closes a span opened with [`stamp`].
    #[cfg(feature = "timing")]
    #[inline(always)]
    pub fn record(&mut self, start: Stamp) {
        let ns = start.elapsed().as_nanos() as u64;
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Closes a span opened with [`stamp`]. A no-op without the `timing`
    /// feature.
    #[cfg(not(feature = "timing"))]
    #[inline(always)]
    pub fn record(&mut self, _start: Stamp) {}

    /// True when nothing was recorded (always true without `timing`).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_or_is_noop() {
        let mut span = SpanTimes::default();
        #[allow(clippy::let_unit_value)] // unit Stamp without `timing`
        let t = stamp();
        span.record(t);
        if cfg!(feature = "timing") {
            assert_eq!(span.count, 1);
            assert!(span.max_ns <= span.total_ns);
        } else {
            assert!(span.is_empty());
            assert_eq!(span, SpanTimes::default());
        }
    }
}
