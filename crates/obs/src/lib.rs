//! Observability toolkit for the desktop-grid simulator.
//!
//! This crate holds everything needed to *watch* a simulation without
//! changing it:
//!
//! * [`TraceEvent`] — the structured event schema (dispatch, completion,
//!   kill, failure, repair, outage, arrival, checkpoint): the simulator
//!   emits one per transition, and every observer, tracer and codec
//!   shares it;
//! * [`TraceRecorder`] — an unbounded in-order recorder, and
//!   [`TraceRing`] — a fixed-capacity ring buffer that overwrites its
//!   oldest events and reports how many were dropped;
//! * [`write_jsonl`] / [`read_jsonl`] — the JSONL trace codec, whose
//!   header carries the drop count so truncation is never silent;
//! * [`MetricsRegistry`] / [`MetricsSnapshot`] — monotonic counters,
//!   gauges and time-weighted accumulators keyed by static names,
//!   snapshotted in deterministic (sorted) order;
//! * [`Profiler`] / [`SpanStats`] — named wall-clock spans built on
//!   [`dgsched_des::profile`], compiled to true no-ops unless the
//!   `timing` feature is enabled.
//!
//! The crate deliberately knows nothing about the simulator's observer
//! trait: `dgsched-core`'s one-method `SimObserver` takes a
//! [`TraceEvent`], and core implements it for the recorder and ring
//! types, keeping the dependency arrow pointing downward
//! (core → obs → des).

mod event;
mod export;
mod metrics;
mod ring;
mod span;

pub use event::TraceEvent;
pub use export::{read_jsonl, write_jsonl, TraceCodecError, TraceFile, TRACE_FORMAT_VERSION};
pub use metrics::{
    BagObservation, CounterId, GaugeId, MetricsRegistry, MetricsSnapshot, SeriesId, SeriesSummary,
};
pub use ring::{TraceRecorder, TraceRing};
pub use span::{Profiler, SpanId, SpanStats};

// Re-export the zero-cost timing primitives so instrumented crates need
// only one observability dependency.
pub use dgsched_des::profile::{stamp, SpanTimes, Stamp};
