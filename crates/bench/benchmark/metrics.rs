//! The metric names the benchmark reports, with their units, and the
//! result line that carries them.
//!
//! `BENCHMARK.json` lists the same names (a unit test keeps the two in
//! step); it also holds each end-to-end metric's direction and regression
//! bound, which `benchmark compare` reads from there.

use serde_json::Value;
use std::collections::BTreeMap;

/// What a user of each workload sees, printed on every untraced run, at
/// the reference speed of [`crate::calib::REFERENCE_S`].
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("p50_ms", "ms")];

/// Per-layer numbers from a traced run (`--trace 1`). A layer the
/// workload never enters reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mem.peak_rss_mb", "MiB"),
    ("calib.ms", "ms"),
    ("op.count", "count"),
    ("op.p50_ms", "ms"),
    ("op.tail_ms", "ms"),
    ("op.tail_pct", "%"),
    ("trace.overhead_ratio", "ratio"),
    ("experiment.cold_pass_s", "s"),
    ("experiment.run_scenario_s", "s"),
    ("experiment.inputs_s", "s"),
    ("experiment.fold_s", "s"),
    ("experiment.replications", "count"),
    ("experiment.parallel_efficiency", "ratio"),
    ("experiment.fingerprint_us.small", "us"),
    ("experiment.fingerprint_us.large", "us"),
    ("experiment.journal.append_ms", "ms"),
    ("experiment.journal.records", "count"),
    ("sim.simulate_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.events_per_s.FCFS-Excl", "1/s"),
    ("sim.events_per_s.FCFS-Share", "1/s"),
    ("sim.events_per_s.RR", "1/s"),
    ("sim.events_per_s.RR-NRF", "1/s"),
    ("sim.events_per_s.LongIdle", "1/s"),
    ("sim.events_per_s.Random", "1/s"),
    ("sim.events_per_s.SBF", "1/s"),
    ("sim.replicas_launched", "count"),
    ("sim.replicas_killed_sibling", "count"),
    ("sim.replica_yield", "ratio"),
    ("sim.machine_failures", "count"),
    ("sim.replicas_killed_failure", "count"),
    ("sim.checkpoints_written", "count"),
    ("sim.busy_useful_ratio", "ratio"),
    ("sim.trace_capture_s", "s"),
    ("sim.replay_s", "s"),
    ("des.queue.scheduled", "count"),
    ("des.queue.cancelled", "count"),
    ("des.queue.popped", "count"),
    ("des.queue.max_pending", "count"),
    ("oracle.replication_s", "s"),
    ("oracle.search_s", "s"),
    ("oracle.evaluations", "count"),
    ("oracle.evals_per_s", "1/s"),
    ("oracle.search_win_ratio", "ratio"),
    ("serve.http.parse_us", "us"),
    ("serve.http.write_us", "us"),
    ("serve.decode_us.small", "us"),
    ("serve.decode_us.large", "us"),
    ("serve.validate_us", "us"),
    ("serve.cache.lookup_us", "us"),
    ("serve.cache.open_s", "s"),
    ("serve.cache.insert_ms", "ms"),
    ("serve.sweep_ms", "ms"),
    ("serve.hit.unattributed_us", "us"),
    ("serve.miss.unattributed_ms", "ms"),
    ("serve.large_hit_p50_ms", "ms"),
    ("serve.follower_p50_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.single_flight_waits", "count"),
    ("serve.sweeps_executed", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.ops_per_s", "1/s"),
];

/// Metric values of one run, keyed by registered name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

fn registered(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .copied()
}

impl Values {
    /// Records `value` under `name`, which must be a registered metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = registered(name).unwrap_or_else(|| panic!("unregistered metric {name}"));
        self.0.insert(key, value);
    }

    /// Adds `value` to the metric (starting from 0).
    pub fn add(&mut self, name: &str, value: f64) {
        let now = self.get(name);
        self.set(name, now + value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The `metrics` object of the result line: every metric of `table`,
    /// in table order, as `{"value": v, "unit": u}`.
    pub fn to_json(&self, table: &[(&str, &str)]) -> Value {
        Value::Object(
            table
                .iter()
                .map(|(name, unit)| {
                    let v = Value::Object(vec![
                        ("value".into(), Value::F64(self.get(name))),
                        ("unit".into(), Value::Str(unit.to_string())),
                    ]);
                    (name.to_string(), v)
                })
                .collect(),
        )
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metrics),
    ]);
    serde_json::to_string(&line).expect("a result line serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(spec: &Value, key: &str) -> Vec<(String, String)> {
        spec[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let name = m["name"].as_str().expect("name").to_string();
                (name, m["unit"].as_str().expect("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let spec: Value = serde_json::from_str(include_str!("../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&spec, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&spec, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut v = Values::default();
        v.set("setup_s", 0.25);
        v.add("p50_ms", 1.5);
        v.add("p50_ms", 1.0);
        let line = result_line(true, 3, 0, v.to_json(END_TO_END));
        let back: Value = serde_json::from_str(&line).expect("parses");
        let keys: Vec<&str> = back
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back["metrics"]["p50_ms"]["value"], 2.5);
        assert_eq!(back["metrics"]["setup_s"]["unit"], "s");
        assert_eq!(back["metrics"].as_object().map(|m| m.len()), Some(2));
    }

    #[test]
    #[should_panic(expected = "unregistered metric")]
    fn unknown_names_are_rejected() {
        Values::default().set("no.such.metric", 1.0);
    }
}
