//! A checking observer that validates scheduler invariants over a live
//! simulation — the library-grade version of the test suite's shadow
//! state. Attach it via [`super::simulate_observed`] to vet a custom
//! policy implementation:
//!
//! * machines are never double-booked, never dispatched while down;
//! * completed tasks are never re-dispatched or completed twice;
//! * per-task replica counts never exceed the configured threshold;
//! * an exclusive policy only ever serves the oldest active bag;
//! * kills and completions always match the machine's actual occupant;
//! * checkpoints are non-trivial.
//!
//! Violations are collected rather than panicking, so a failing policy can
//! be diagnosed from a full run.

use super::observer::{SimObserver, TraceEvent};
use dgsched_des::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Collects invariant violations over a run.
#[derive(Debug, Default)]
pub struct CheckingObserver {
    /// Replica-count ceiling to enforce (`None` = unlimited, for
    /// FCFS-Excl-style policies).
    threshold: Option<u32>,
    /// Require every dispatch to target the oldest active bag.
    exclusive: bool,
    machine_busy: BTreeMap<u32, (u32, u32)>,
    machine_down: BTreeSet<u32>,
    replica_counts: BTreeMap<(u32, u32), u32>,
    active_bags: Vec<u32>,
    completed_tasks: BTreeSet<(u32, u32)>,
    /// Human-readable violations, in occurrence order.
    violations: Vec<String>,
    /// Dispatches observed (for cross-checking against run counters).
    pub dispatches: u64,
}

impl CheckingObserver {
    /// A checker enforcing a replica threshold (the standard WQR-FT case).
    pub fn with_threshold(threshold: u32) -> Self {
        CheckingObserver {
            threshold: Some(threshold),
            ..Default::default()
        }
    }

    /// A checker for an exclusive policy (unlimited replicas, oldest bag
    /// only).
    pub fn exclusive() -> Self {
        CheckingObserver {
            threshold: None,
            exclusive: true,
            ..Default::default()
        }
    }

    fn violate(&mut self, msg: String) {
        self.violations.push(msg);
    }

    /// A replica of `(bag, task)` left `machine` by `how` (completion or
    /// kill): the machine must have held exactly that replica.
    fn release(&mut self, now: SimTime, how: &str, bag: u32, task: u32, machine: u32) {
        match self.machine_busy.remove(&machine) {
            Some(occ) if occ == (bag, task) => {}
            occ => self.violate(format!(
                "{now}: {how} of bag{bag}/t{task} on m{machine}, occupant {occ:?}"
            )),
        }
        if let Some(c) = self.replica_counts.get_mut(&(bag, task)) {
            *c = c.saturating_sub(1);
        }
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// True when no violation was recorded (residual state is
    /// [`assert_drained`](Self::assert_drained)'s concern).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the full violation list if any invariant was broken.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "scheduler invariants violated:\n{}",
            self.violations.join("\n")
        );
    }

    /// End-of-run residue check: no machine still booked, no bag still
    /// active. Call after the run drains (not after a saturated run).
    pub fn assert_drained(&self) {
        assert!(
            self.machine_busy.is_empty(),
            "machines still booked after drain: {:?}",
            self.machine_busy
        );
        assert!(
            self.active_bags.is_empty(),
            "bags still active after drain: {:?}",
            self.active_bags
        );
    }
}

impl SimObserver for CheckingObserver {
    fn observe(&mut self, event: TraceEvent) {
        let now = SimTime::new(event.at());
        match event {
            TraceEvent::BagArrival { bag, .. } => self.active_bags.push(bag),
            TraceEvent::BagComplete { bag, .. } => {
                let before = self.active_bags.len();
                self.active_bags.retain(|&b| b != bag);
                if self.active_bags.len() + 1 != before {
                    self.violate(format!("{now}: completion of unknown bag{bag}"));
                }
            }
            TraceEvent::Dispatch {
                bag, task, machine, ..
            } => {
                self.dispatches += 1;
                if self.machine_busy.contains_key(&machine) {
                    self.violate(format!("{now}: machine m{machine} double-booked"));
                }
                if self.machine_down.contains(&machine) {
                    self.violate(format!("{now}: dispatch onto failed machine m{machine}"));
                }
                if self.completed_tasks.contains(&(bag, task)) {
                    self.violate(format!(
                        "{now}: dispatch of completed task bag{bag}/t{task}"
                    ));
                }
                if self.exclusive && Some(bag) != self.active_bags.first().copied() {
                    self.violate(format!(
                        "{now}: exclusive policy served non-oldest bag{bag}"
                    ));
                }
                let count = {
                    let c = self.replica_counts.entry((bag, task)).or_insert(0);
                    *c += 1;
                    *c
                };
                if let Some(thr) = self.threshold {
                    if count > thr {
                        self.violate(format!(
                            "{now}: task bag{bag}/t{task} has {count} replicas (threshold {thr})"
                        ));
                    }
                }
                self.machine_busy.insert(machine, (bag, task));
            }
            TraceEvent::TaskComplete {
                bag, task, machine, ..
            } => {
                self.release(now, "completion", bag, task, machine);
                if !self.completed_tasks.insert((bag, task)) {
                    self.violate(format!("{now}: task bag{bag}/t{task} completed twice"));
                }
            }
            TraceEvent::ReplicaKilled {
                bag, task, machine, ..
            } => self.release(now, "kill", bag, task, machine),
            TraceEvent::MachineFail { machine, .. } => {
                if !self.machine_down.insert(machine) {
                    self.violate(format!("{now}: double failure of m{machine}"));
                }
            }
            TraceEvent::MachineRepair { machine, .. } => {
                if !self.machine_down.remove(&machine) {
                    self.violate(format!("{now}: repair of healthy m{machine}"));
                }
                if self.machine_busy.contains_key(&machine) {
                    self.violate(format!("{now}: m{machine} repaired while still booked"));
                }
            }
            TraceEvent::CheckpointSaved {
                bag, task, work, ..
            } => {
                if work <= 0.0 {
                    self.violate(format!("{now}: empty checkpoint for bag{bag}/t{task}"));
                }
            }
            TraceEvent::Outage { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(bag: u32) -> TraceEvent {
        TraceEvent::BagArrival { at: 0.0, bag }
    }

    fn dispatch(at: f64, bag: u32, task: u32, machine: u32) -> TraceEvent {
        TraceEvent::Dispatch {
            at,
            bag,
            task,
            machine,
            is_replication: false,
        }
    }

    fn run(c: &mut CheckingObserver, events: &[TraceEvent]) {
        for &ev in events {
            c.observe(ev);
        }
    }

    #[test]
    fn clean_checker_reports_clean() {
        let c = CheckingObserver::with_threshold(2);
        assert!(c.is_clean());
        c.assert_clean();
        c.assert_drained();
    }

    #[test]
    fn double_booking_is_caught() {
        let mut c = CheckingObserver::with_threshold(2);
        run(
            &mut c,
            &[arrival(0), dispatch(0.0, 0, 0, 3), dispatch(1.0, 0, 1, 3)],
        );
        assert!(!c.is_clean());
        assert!(c.violations()[0].contains("double-booked"));
    }

    #[test]
    fn threshold_breach_is_caught() {
        let mut c = CheckingObserver::with_threshold(1);
        run(
            &mut c,
            &[arrival(0), dispatch(0.0, 0, 0, 0), dispatch(0.0, 0, 0, 1)],
        );
        assert!(c.violations().iter().any(|v| v.contains("threshold")));
    }

    #[test]
    fn exclusive_violation_is_caught() {
        let mut c = CheckingObserver::exclusive();
        run(&mut c, &[arrival(0), arrival(1), dispatch(0.0, 1, 0, 0)]);
        assert!(c.violations().iter().any(|v| v.contains("non-oldest")));
    }

    #[test]
    #[should_panic(expected = "scheduler invariants violated")]
    fn assert_clean_panics_on_violation() {
        let mut c = CheckingObserver::with_threshold(2);
        // Repair of a healthy machine.
        c.observe(TraceEvent::MachineRepair {
            at: 0.0,
            machine: 0,
        });
        c.assert_clean();
    }

    #[test]
    fn dispatch_on_down_machine_is_caught() {
        let mut c = CheckingObserver::with_threshold(2);
        run(
            &mut c,
            &[
                arrival(0),
                TraceEvent::MachineFail {
                    at: 0.0,
                    machine: 0,
                },
                dispatch(1.0, 0, 0, 0),
            ],
        );
        assert!(c.violations().iter().any(|v| v.contains("failed machine")));
    }

    #[test]
    fn completion_of_unknown_bag_is_a_violation() {
        let mut c = CheckingObserver::with_threshold(2);
        c.observe(TraceEvent::BagComplete { at: 1.0, bag: 7 });
        assert!(c.violations().iter().any(|v| v.contains("unknown bag7")));
    }
}
