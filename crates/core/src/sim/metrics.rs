//! Run-level metrics and counters, plus the [`MetricsObserver`] that
//! builds a named-metric snapshot from the observer events alone.

use super::observer::{SimObserver, TraceEvent};
use dgsched_des::stats::Welford;
use dgsched_des::time::SimTime;
use dgsched_obs::{BagObservation, CounterId, MetricsRegistry, MetricsSnapshot, SeriesId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Metrics of one completed bag.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BagMetrics {
    /// Bag index in the workload.
    pub bag: u32,
    /// Granularity class of the bag.
    pub granularity: f64,
    /// Submission time (seconds).
    pub arrival: f64,
    /// Completion − arrival.
    pub turnaround: f64,
    /// First dispatch − arrival (queue waiting time of the bag).
    pub waiting: f64,
    /// Completion − first dispatch.
    pub makespan: f64,
    /// Total work of the bag (reference-seconds).
    pub work: f64,
    /// Turnaround divided by the bag's ideal makespan on the empty grid:
    /// the larger of the work-conservation bound (work ÷ the summed power
    /// of the bag's |tasks| fastest machines) and the critical-path bound
    /// (largest task ÷ the fastest machine's power). ≥ 1 by construction;
    /// large values mean the bag was starved.
    pub slowdown: f64,
}

/// Event/work counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Counters {
    /// Replicas dispatched (including restarts and extra replicas).
    pub replicas_launched: u64,
    /// Replicas killed by machine failures.
    pub replicas_killed_failure: u64,
    /// Sibling replicas killed because another replica won.
    pub replicas_killed_sibling: u64,
    /// Checkpoints successfully written.
    pub checkpoints_written: u64,
    /// Wall-seconds spent writing checkpoints.
    pub checkpoint_time: f64,
    /// Wall-seconds spent retrieving checkpoints.
    pub retrieve_time: f64,
    /// Machine failures observed (including outage-induced ones).
    pub machine_failures: u64,
    /// Correlated outage events that struck the grid.
    pub outages: u64,
    /// Reference-seconds of work delivered by completed tasks.
    pub useful_work: f64,
    /// Wall-seconds of machine occupancy by replicas that were killed
    /// (the price knowledge-free replication pays for information).
    pub killed_occupancy: f64,
    /// Wall-seconds of machine occupancy, total.
    pub busy_time: f64,
}

/// Per-machine summary of one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineStats {
    /// Machine id.
    pub machine: u32,
    /// Relative computing power.
    pub power: f64,
    /// Wall-seconds the machine was occupied by a replica.
    pub busy_time: f64,
    /// Failures suffered during the run.
    pub failures: u64,
}

/// Result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Policy name the run used.
    pub policy: String,
    /// Per-bag records for completed, post-warmup bags, in completion order.
    pub bags: Vec<BagMetrics>,
    /// Per-machine occupancy and failure summary.
    pub machines: Vec<MachineStats>,
    /// Bags completed (including warmup ones).
    pub completed: usize,
    /// Bags submitted.
    pub total: usize,
    /// True when the run hit its horizon or event budget before draining —
    /// the paper's "turnaround grew beyond any reasonable limit".
    pub saturated: bool,
    /// Simulated end time (seconds).
    pub end_time: f64,
    /// Events processed.
    pub events: u64,
    /// Work/overhead counters.
    pub counters: Counters,
}

impl RunResult {
    fn welford_of<F: Fn(&BagMetrics) -> f64>(&self, f: F) -> Welford {
        self.bags.iter().map(f).collect()
    }

    /// Mean turnaround over measured bags (`NaN`-free: 0 when empty).
    pub fn mean_turnaround(&self) -> f64 {
        self.welford_of(|b| b.turnaround).mean()
    }

    /// Mean queue waiting time over measured bags.
    pub fn mean_waiting(&self) -> f64 {
        self.welford_of(|b| b.waiting).mean()
    }

    /// Mean makespan over measured bags.
    pub fn mean_makespan(&self) -> f64 {
        self.welford_of(|b| b.makespan).mean()
    }

    /// Largest slowdown any measured bag suffered.
    pub fn max_slowdown(&self) -> f64 {
        self.bags.iter().map(|b| b.slowdown).fold(0.0, f64::max)
    }

    /// Mean turnaround per granularity class — the per-type view a mixed
    /// workload needs (ordered by granularity; the map key is the f64 bit
    /// pattern-stable decimal rendering of the granularity).
    pub fn turnaround_by_granularity(&self) -> BTreeMap<u64, Welford> {
        let mut map: BTreeMap<u64, Welford> = BTreeMap::new();
        for b in &self.bags {
            map.entry(b.granularity as u64)
                .or_default()
                .push(b.turnaround);
        }
        map
    }

    /// Fraction of total machine occupancy that belonged to replicas which
    /// were eventually killed (replication + failure waste).
    pub fn wasted_fraction(&self) -> f64 {
        if self.counters.busy_time == 0.0 {
            0.0
        } else {
            self.counters.killed_occupancy / self.counters.busy_time
        }
    }
}

/// A [`SimObserver`] that folds the event stream into a
/// [`MetricsRegistry`]: named monotonic counters, time-weighted
/// busy-machine / active-bag series, and per-bag turnaround records.
///
/// It derives everything from the observer seam alone — it never reads
/// simulator state — which is what makes it attachable to any run
/// (including reference-mode replays) without changing the run.
#[derive(Debug, Clone)]
pub struct MetricsObserver {
    registry: MetricsRegistry,
    c_dispatches: CounterId,
    c_replications: CounterId,
    c_task_completions: CounterId,
    c_killed_failure: CounterId,
    c_killed_sibling: CounterId,
    c_machine_failures: CounterId,
    c_machine_repairs: CounterId,
    c_outages: CounterId,
    c_bag_arrivals: CounterId,
    c_bag_completions: CounterId,
    c_checkpoints: CounterId,
    s_busy: SeriesId,
    s_active_bags: SeriesId,
    /// Arrival time per bag id (bags arrive in id order).
    arrivals: Vec<f64>,
    per_bag: Vec<BagObservation>,
}

impl Default for MetricsObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsObserver {
    /// A fresh observer with every metric registered at zero.
    pub fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        MetricsObserver {
            c_dispatches: registry.counter("dispatches"),
            c_replications: registry.counter("replications"),
            c_task_completions: registry.counter("task_completions"),
            c_killed_failure: registry.counter("replicas_killed_failure"),
            c_killed_sibling: registry.counter("replicas_killed_sibling"),
            c_machine_failures: registry.counter("machine_failures"),
            c_machine_repairs: registry.counter("machine_repairs"),
            c_outages: registry.counter("outages"),
            c_bag_arrivals: registry.counter("bag_arrivals"),
            c_bag_completions: registry.counter("bag_completions"),
            c_checkpoints: registry.counter("checkpoints_written"),
            s_busy: registry.series("busy_machines", SimTime::ZERO, 0.0),
            s_active_bags: registry.series("active_bags", SimTime::ZERO, 0.0),
            registry,
            arrivals: Vec::new(),
            per_bag: Vec::new(),
        }
    }

    /// Freezes the run into a [`MetricsSnapshot`] at `end` for a grid of
    /// `machines` machines. Adds the derived `machine_utilization` gauge
    /// (busy machine-seconds over offered machine-seconds).
    pub fn finish(&self, end: SimTime, machines: usize) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot(end);
        let offered = machines as f64 * end.as_secs();
        let busy_integral = snap
            .series
            .get("busy_machines")
            .map(|s| s.integral)
            .unwrap_or(0.0);
        let utilization = if offered > 0.0 {
            busy_integral / offered
        } else {
            0.0
        };
        snap.gauges
            .insert("machine_utilization".to_string(), utilization);
        snap.per_bag = self.per_bag.clone();
        snap
    }
}

impl SimObserver for MetricsObserver {
    fn observe(&mut self, event: TraceEvent) {
        let now = SimTime::new(event.at());
        match event {
            TraceEvent::Dispatch { is_replication, .. } => {
                self.registry.inc(self.c_dispatches);
                if is_replication {
                    self.registry.inc(self.c_replications);
                }
                self.registry.series_add(self.s_busy, now, 1.0);
            }
            TraceEvent::TaskComplete { .. } => {
                self.registry.inc(self.c_task_completions);
                self.registry.series_add(self.s_busy, now, -1.0);
            }
            TraceEvent::ReplicaKilled { by_failure, .. } => {
                self.registry.inc(if by_failure {
                    self.c_killed_failure
                } else {
                    self.c_killed_sibling
                });
                self.registry.series_add(self.s_busy, now, -1.0);
            }
            TraceEvent::MachineFail { .. } => self.registry.inc(self.c_machine_failures),
            TraceEvent::MachineRepair { .. } => self.registry.inc(self.c_machine_repairs),
            TraceEvent::Outage { .. } => self.registry.inc(self.c_outages),
            TraceEvent::BagArrival { at, bag } => {
                self.registry.inc(self.c_bag_arrivals);
                self.registry.series_add(self.s_active_bags, now, 1.0);
                let idx = bag as usize;
                if self.arrivals.len() <= idx {
                    self.arrivals.resize(idx + 1, f64::NAN);
                }
                self.arrivals[idx] = at;
            }
            TraceEvent::BagComplete { at, bag } => {
                self.registry.inc(self.c_bag_completions);
                self.registry.series_add(self.s_active_bags, now, -1.0);
                let arrival = self.arrivals.get(bag as usize).copied().unwrap_or(f64::NAN);
                self.per_bag.push(BagObservation {
                    bag,
                    arrival,
                    turnaround: at - arrival,
                });
            }
            TraceEvent::CheckpointSaved { .. } => self.registry.inc(self.c_checkpoints),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(t: f64, w: f64) -> BagMetrics {
        BagMetrics {
            bag: 0,
            granularity: 1000.0,
            arrival: 0.0,
            turnaround: t,
            waiting: w,
            makespan: t - w,
            work: 1000.0,
            slowdown: t / 50.0,
        }
    }

    #[test]
    fn aggregates() {
        let r = RunResult {
            policy: "RR".into(),
            bags: vec![bag(100.0, 10.0), bag(200.0, 30.0)],
            machines: vec![],
            completed: 2,
            total: 2,
            saturated: false,
            end_time: 500.0,
            events: 42,
            counters: Counters {
                killed_occupancy: 25.0,
                busy_time: 100.0,
                ..Counters::default()
            },
        };
        assert_eq!(r.mean_turnaround(), 150.0);
        assert_eq!(r.mean_waiting(), 20.0);
        assert_eq!(r.mean_makespan(), 130.0);
        assert_eq!(r.wasted_fraction(), 0.25);
        assert_eq!(r.max_slowdown(), 4.0);
    }

    #[test]
    fn per_granularity_breakdown() {
        let mut b1 = bag(100.0, 10.0);
        b1.granularity = 1000.0;
        let mut b2 = bag(300.0, 10.0);
        b2.granularity = 5000.0;
        let mut b3 = bag(200.0, 10.0);
        b3.granularity = 1000.0;
        let r = RunResult {
            policy: "RR".into(),
            bags: vec![b1, b2, b3],
            machines: vec![],
            completed: 3,
            total: 3,
            saturated: false,
            end_time: 1.0,
            events: 1,
            counters: Counters::default(),
        };
        let by_g = r.turnaround_by_granularity();
        assert_eq!(by_g.len(), 2);
        assert_eq!(by_g[&1000].count(), 2);
        assert_eq!(by_g[&1000].mean(), 150.0);
        assert_eq!(by_g[&5000].mean(), 300.0);
    }

    #[test]
    fn metrics_observer_folds_callbacks() {
        let mut obs = MetricsObserver::new();
        for event in [
            TraceEvent::BagArrival { at: 0.0, bag: 0 },
            TraceEvent::Dispatch {
                at: 0.0,
                bag: 0,
                task: 0,
                machine: 0,
                is_replication: false,
            },
            TraceEvent::Dispatch {
                at: 2.0,
                bag: 0,
                task: 1,
                machine: 1,
                is_replication: true,
            },
            TraceEvent::ReplicaKilled {
                at: 4.0,
                bag: 0,
                task: 1,
                machine: 1,
                by_failure: false,
            },
            TraceEvent::TaskComplete {
                at: 8.0,
                bag: 0,
                task: 0,
                machine: 0,
            },
            TraceEvent::CheckpointSaved {
                at: 5.0,
                bag: 0,
                task: 0,
                work: 100.0,
            },
            TraceEvent::Outage {
                at: 6.0,
                duration: 50.0,
            },
            TraceEvent::MachineFail {
                at: 6.0,
                machine: 1,
            },
            TraceEvent::MachineRepair {
                at: 7.0,
                machine: 1,
            },
            TraceEvent::BagComplete { at: 8.0, bag: 0 },
        ] {
            obs.observe(event);
        }

        let snap = obs.finish(SimTime::new(10.0), 2);
        assert_eq!(snap.counters["dispatches"], 2);
        assert_eq!(snap.counters["replications"], 1);
        assert_eq!(snap.counters["task_completions"], 1);
        assert_eq!(snap.counters["replicas_killed_sibling"], 1);
        assert_eq!(snap.counters["replicas_killed_failure"], 0);
        assert_eq!(snap.counters["machine_failures"], 1);
        assert_eq!(snap.counters["machine_repairs"], 1);
        assert_eq!(snap.counters["outages"], 1);
        assert_eq!(snap.counters["checkpoints_written"], 1);
        assert_eq!(snap.counters["bag_arrivals"], 1);
        assert_eq!(snap.counters["bag_completions"], 1);
        // busy: 1 over [0,2], 2 over [2,4], 1 over [4,8], 0 over [8,10]
        let busy = &snap.series["busy_machines"];
        assert_eq!(busy.integral, 2.0 + 4.0 + 4.0);
        assert_eq!(busy.max, 2.0);
        // utilization = 10 busy machine-seconds / (2 machines * 10 s)
        assert_eq!(snap.gauges["machine_utilization"], 0.5);
        assert_eq!(snap.per_bag.len(), 1);
        assert_eq!(snap.per_bag[0].turnaround, 8.0);
        assert_eq!(snap.series["active_bags"].last, 0.0);
    }

    #[test]
    fn empty_run_is_zeroes() {
        let r = RunResult {
            policy: "RR".into(),
            bags: vec![],
            machines: vec![],
            completed: 0,
            total: 5,
            saturated: true,
            end_time: 0.0,
            events: 0,
            counters: Counters::default(),
        };
        assert_eq!(r.mean_turnaround(), 0.0);
        assert_eq!(r.wasted_fraction(), 0.0);
    }
}
