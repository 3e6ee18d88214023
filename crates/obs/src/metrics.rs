//! The metrics registry: counters, gauges and time-weighted series keyed
//! by static names.
//!
//! Hot-path updates go through integer ids handed out at registration, so
//! recording a sample is an array index — no hashing, no allocation.
//! [`MetricsRegistry::snapshot`] renders everything into a serialisable
//! [`MetricsSnapshot`] whose maps are sorted by name, making the JSON form
//! deterministic.

use dgsched_des::stats::TimeWeighted;
use dgsched_des::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Handle of a registered monotonic counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle of a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle of a registered time-weighted series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// Counters, gauges and time-weighted accumulators for one run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    series: Vec<(&'static str, TimeWeighted)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers a monotonic counter starting at zero.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        debug_assert!(
            self.counters.iter().all(|(n, _)| *n != name),
            "duplicate counter '{name}'"
        );
        self.counters.push((name, 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers a gauge starting at zero.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        debug_assert!(
            self.gauges.iter().all(|(n, _)| *n != name),
            "duplicate gauge '{name}'"
        );
        self.gauges.push((name, 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers a time-weighted series starting at `value` at time
    /// `start`.
    pub fn series(&mut self, name: &'static str, start: SimTime, value: f64) -> SeriesId {
        debug_assert!(
            self.series.iter().all(|(n, _)| *n != name),
            "duplicate series '{name}'"
        );
        self.series.push((name, TimeWeighted::new(start, value)));
        SeriesId(self.series.len() - 1)
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].1 += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Adds `delta` to a time-weighted series at time `now`.
    #[inline]
    pub fn series_add(&mut self, id: SeriesId, now: SimTime, delta: f64) {
        self.series[id.0].1.add(now, delta);
    }

    /// Freezes everything into a deterministic, serialisable snapshot.
    /// Series are finalised at time `now`.
    pub fn snapshot(&self, now: SimTime) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|&(n, v)| (n.to_string(), v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|&(n, v)| (n.to_string(), v))
                .collect(),
            series: self
                .series
                .iter()
                .map(|(n, tw)| {
                    (
                        n.to_string(),
                        SeriesSummary {
                            time_average: tw.time_average(now),
                            max: tw.max(),
                            last: tw.current(),
                            integral: tw.integral_to(now),
                        },
                    )
                })
                .collect(),
            per_bag: Vec::new(),
            spans: Vec::new(),
        }
    }
}

/// Time-weighted series rendered for a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesSummary {
    /// Time-average of the signal over the run.
    pub time_average: f64,
    /// Largest level ever observed.
    pub max: f64,
    /// Level at snapshot time.
    pub last: f64,
    /// Integral of the signal over the run (level-seconds).
    pub integral: f64,
}

/// Per-bag record carried by a snapshot (filled in by the simulator's
/// metrics observer).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BagObservation {
    /// Bag id.
    pub bag: u32,
    /// Arrival time (seconds).
    pub arrival: f64,
    /// Completion − arrival (seconds).
    pub turnaround: f64,
}

/// A frozen, serialisable view of a [`MetricsRegistry`] plus whatever
/// per-bag records and profiling spans the instrumented run collected.
///
/// Maps are `BTreeMap`s: the JSON rendering is byte-deterministic for a
/// deterministic simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Time-weighted series by name.
    pub series: BTreeMap<String, SeriesSummary>,
    /// Per-bag turnaround records, in completion order.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub per_bag: Vec<BagObservation>,
    /// Wall-clock profiling spans (all zero unless the `timing` feature
    /// is enabled in the instrumented build).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub spans: Vec<crate::span::SpanStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_series() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("dispatches");
        let g = reg.gauge("machine_utilization");
        let s = reg.series("busy_machines", SimTime::ZERO, 0.0);
        reg.inc(c);
        reg.add(c, 2);
        reg.set_gauge(g, 0.75);
        reg.series_add(s, SimTime::new(2.0), 3.0); // 3 busy from t=2
        reg.series_add(s, SimTime::new(6.0), -1.0); // 2 busy from t=6

        let snap = reg.snapshot(SimTime::new(10.0));
        assert_eq!(snap.counters["dispatches"], 3);
        assert_eq!(snap.gauges["machine_utilization"], 0.75);
        let busy = &snap.series["busy_machines"];
        // integral = 0*2 + 3*4 + 2*4 = 20 over [0,10]
        assert_eq!(busy.integral, 20.0);
        assert_eq!(busy.time_average, 2.0);
        assert_eq!(busy.max, 3.0);
        assert_eq!(busy.last, 2.0);
    }

    #[test]
    fn snapshot_json_is_sorted_and_round_trips() {
        let mut reg = MetricsRegistry::new();
        let b = reg.counter("b_second");
        let a = reg.counter("a_first");
        reg.inc(b);
        reg.add(a, 5);
        let snap = reg.snapshot(SimTime::ZERO);
        let json = serde_json::to_string(&snap).unwrap();
        let a_pos = json.find("a_first").unwrap();
        let b_pos = json.find("b_second").unwrap();
        assert!(a_pos < b_pos, "snapshot keys must be sorted: {json}");
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn duplicate_names_are_rejected() {
        let mut reg = MetricsRegistry::new();
        let _ = reg.counter("x");
        let _ = reg.counter("x");
    }
}
