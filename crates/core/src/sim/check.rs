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

use super::observer::SimObserver;
use dgsched_des::time::SimTime;
use dgsched_grid::MachineId;
use dgsched_workload::{BotId, TaskId};
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

    /// Violations recorded so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// True when no violation was recorded and no residual state remains.
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
    fn on_bag_arrival(&mut self, _now: SimTime, bag: BotId) {
        self.active_bags.push(bag.0);
    }

    fn on_bag_complete(&mut self, _now: SimTime, bag: BotId) {
        let before = self.active_bags.len();
        self.active_bags.retain(|&b| b != bag.0);
        if self.active_bags.len() != before - 1 {
            self.violate(format!("completion of unknown bag {bag}"));
        }
    }

    fn on_dispatch(
        &mut self,
        now: SimTime,
        bag: BotId,
        task: TaskId,
        machine: MachineId,
        _is_replication: bool,
    ) {
        self.dispatches += 1;
        if self.machine_busy.contains_key(&machine.0) {
            self.violate(format!("{now}: machine {machine} double-booked"));
        }
        if self.machine_down.contains(&machine.0) {
            self.violate(format!("{now}: dispatch onto failed machine {machine}"));
        }
        if self.completed_tasks.contains(&(bag.0, task.0)) {
            self.violate(format!("{now}: dispatch of completed task {bag}/{task}"));
        }
        if self.exclusive && Some(bag.0) != self.active_bags.first().copied() {
            self.violate(format!(
                "{now}: exclusive policy served non-oldest bag {bag}"
            ));
        }
        let count = {
            let c = self.replica_counts.entry((bag.0, task.0)).or_insert(0);
            *c += 1;
            *c
        };
        if let Some(thr) = self.threshold {
            if count > thr {
                self.violate(format!(
                    "{now}: task {bag}/{task} has {count} replicas (threshold {thr})"
                ));
            }
        }
        self.machine_busy.insert(machine.0, (bag.0, task.0));
    }

    fn on_task_complete(&mut self, now: SimTime, bag: BotId, task: TaskId, machine: MachineId) {
        match self.machine_busy.remove(&machine.0) {
            Some(occ) if occ == (bag.0, task.0) => {}
            occ => self.violate(format!(
                "{now}: completion of {bag}/{task} on {machine}, occupant {occ:?}"
            )),
        }
        if let Some(c) = self.replica_counts.get_mut(&(bag.0, task.0)) {
            *c = c.saturating_sub(1);
        }
        if !self.completed_tasks.insert((bag.0, task.0)) {
            self.violate(format!("{now}: task {bag}/{task} completed twice"));
        }
    }

    fn on_replica_killed(
        &mut self,
        now: SimTime,
        bag: BotId,
        task: TaskId,
        machine: MachineId,
        _by_failure: bool,
    ) {
        match self.machine_busy.remove(&machine.0) {
            Some(occ) if occ == (bag.0, task.0) => {}
            occ => self.violate(format!(
                "{now}: kill of {bag}/{task} on {machine}, occupant {occ:?}"
            )),
        }
        if let Some(c) = self.replica_counts.get_mut(&(bag.0, task.0)) {
            *c = c.saturating_sub(1);
        }
    }

    fn on_machine_fail(&mut self, now: SimTime, machine: MachineId) {
        if !self.machine_down.insert(machine.0) {
            self.violate(format!("{now}: double failure of {machine}"));
        }
    }

    fn on_machine_repair(&mut self, now: SimTime, machine: MachineId) {
        if !self.machine_down.remove(&machine.0) {
            self.violate(format!("{now}: repair of healthy {machine}"));
        }
        if self.machine_busy.contains_key(&machine.0) {
            self.violate(format!("{now}: {machine} repaired while still booked"));
        }
    }

    fn on_checkpoint_saved(&mut self, now: SimTime, bag: BotId, task: TaskId, work: f64) {
        if work <= 0.0 {
            self.violate(format!("{now}: empty checkpoint for {bag}/{task}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        c.on_bag_arrival(SimTime::ZERO, BotId(0));
        c.on_dispatch(SimTime::ZERO, BotId(0), TaskId(0), MachineId(3), false);
        c.on_dispatch(SimTime::new(1.0), BotId(0), TaskId(1), MachineId(3), false);
        assert!(!c.is_clean());
        assert!(c.violations()[0].contains("double-booked"));
    }

    #[test]
    fn threshold_breach_is_caught() {
        let mut c = CheckingObserver::with_threshold(1);
        c.on_bag_arrival(SimTime::ZERO, BotId(0));
        c.on_dispatch(SimTime::ZERO, BotId(0), TaskId(0), MachineId(0), false);
        c.on_dispatch(SimTime::ZERO, BotId(0), TaskId(0), MachineId(1), true);
        assert!(c.violations().iter().any(|v| v.contains("threshold")));
    }

    #[test]
    fn exclusive_violation_is_caught() {
        let mut c = CheckingObserver::exclusive();
        c.on_bag_arrival(SimTime::ZERO, BotId(0));
        c.on_bag_arrival(SimTime::ZERO, BotId(1));
        c.on_dispatch(SimTime::ZERO, BotId(1), TaskId(0), MachineId(0), false);
        assert!(c.violations().iter().any(|v| v.contains("non-oldest")));
    }

    #[test]
    #[should_panic(expected = "scheduler invariants violated")]
    fn assert_clean_panics_on_violation() {
        let mut c = CheckingObserver::with_threshold(2);
        c.on_machine_repair(SimTime::ZERO, MachineId(0)); // repair of healthy machine
        c.assert_clean();
    }

    #[test]
    fn dispatch_on_down_machine_is_caught() {
        let mut c = CheckingObserver::with_threshold(2);
        c.on_bag_arrival(SimTime::ZERO, BotId(0));
        c.on_machine_fail(SimTime::ZERO, MachineId(0));
        c.on_dispatch(SimTime::new(1.0), BotId(0), TaskId(0), MachineId(0), false);
        assert!(c.violations().iter().any(|v| v.contains("failed machine")));
    }
}
