//! Machine failure, repair and correlated-outage handling.
//!
//! Fault events are where the free-machine index learns about
//! availability: a failing free machine leaves the index (and its failure
//! count — the `FewestFailuresFirst` key — is bumped only once it is out),
//! a repaired machine re-enters it.

use super::driver::Driver;
use super::events::Event;
use super::observer::TraceEvent;
use dgsched_des::engine::Scheduler;
use dgsched_des::event::EventId;
use dgsched_grid::MachineId;

impl Driver<'_, '_> {
    /// A correlated outage: every up machine is hit independently with the
    /// configured probability; hit machines fail together and all come
    /// back when the outage ends. A hit machine's own pending transition
    /// is cancelled; its personal failure cycle restarts at repair.
    pub(super) fn outage(&mut self, sched: &mut Scheduler<'_, Event>) {
        let now = sched.now();
        let outage = self.state.outage.expect("outage event without a config");
        self.state.counters.outages += 1;
        let duration = match self.replay.as_mut() {
            Some(rp) => rp.consume_outage(now.as_secs()),
            None => outage.duration(&mut self.state.outage_rng),
        };
        // Announced before the per-machine failures so the trace stays
        // time-ordered with the outage ahead of its same-timestamp kills.
        self.observer.observe(TraceEvent::Outage {
            at: now.as_secs(),
            duration,
        });
        // Lazy availability: settle every idle machine's renewal state
        // *before* the hit loop. The hit draw below is consumed only for
        // up machines, so up-ness must be exact here or the outage stream
        // would diverge from the eager schedule.
        if self.lazy {
            let avail = self.state.avail.expect("lazy mode needs a failure process");
            for i in 0..self.state.machines.len() {
                if self.state.machines.hot[i].next_transition != EventId::NONE {
                    continue; // busy or known-down: events keep it current
                }
                let mid = MachineId(i as u32);
                let ms = &mut self.state.machines;
                let (rng, h) = (&mut ms.avail_rng[i], &mut ms.hot[i]);
                let f = avail.fast_forward(rng, &mut h.up, &mut h.cycle_end, now.as_secs());
                ms.failures[i] += f;
                self.state.counters.machine_failures += f;
                if !self.state.machines.hot[i].up {
                    // Down all along: surface the failure and materialise
                    // the repair at its closed-form window end.
                    self.observer.observe(TraceEvent::MachineFail {
                        at: now.as_secs(),
                        machine: mid.0,
                    });
                    self.state.free.remove(mid);
                    let ev = sched.schedule_in(
                        self.state.machines.hot[i].cycle_end - now.as_secs(),
                        Event::MachineRepair(mid),
                    );
                    self.state.machines.hot[i].next_transition = ev;
                }
            }
        }
        let mut any_killed = false;
        for i in 0..self.state.machines.len() {
            let mid = MachineId(i as u32);
            if !self.state.machines.hot[i].up {
                continue;
            }
            // The hit draw is consumed only for up machines; under replay
            // the trace's kill record stands in for the Bernoulli draw.
            let hit = match self.replay.as_mut() {
                Some(rp) => rp.outage_hits(i, now.as_secs()),
                None => outage.hits(&mut self.state.outage_rng),
            };
            if !hit {
                continue;
            }
            self.observer.observe(TraceEvent::MachineFail {
                at: now.as_secs(),
                machine: mid.0,
            });
            if self.state.machines.is_free(i) {
                self.state.free.remove(mid);
            }
            self.state.machines.hot[i].up = false;
            self.state.machines.failures[i] += 1;
            let victim = self.state.machines.hot[i].replica;
            self.state.free.note_failure(mid);
            self.state.counters.machine_failures += 1;
            // Override the machine's own cycle for the outage window.
            let pending = self.state.machines.hot[i].next_transition;
            sched.cancel(pending);
            let ev = match self.replay.as_ref() {
                // The recorded repair instant is exactly `now + duration`
                // as the live run computed it; rescheduling the recorded
                // value keeps the timestamp bit-identical.
                Some(rp) => sched.schedule_at(rp.next_repair(i), Event::MachineRepair(mid)),
                None => sched.schedule_in(duration, Event::MachineRepair(mid)),
            };
            self.state.machines.hot[i].next_transition = ev;
            if self.lazy {
                self.state.machines.hot[i].cycle_end = now.as_secs() + duration;
            }
            if let Some(rid) = victim {
                self.kill_replica(rid, true, sched);
                self.state.counters.replicas_killed_failure += 1;
                any_killed = true;
            }
        }
        match self.replay.as_ref() {
            Some(rp) => {
                sched.schedule_at(rp.next_outage(), Event::Outage);
            }
            None => {
                let gap = outage.next_gap(&mut self.state.outage_rng);
                sched.schedule_in(gap, Event::Outage);
            }
        }
        if any_killed {
            self.dispatch_all(sched);
        }
    }

    /// Lazy availability: gives a busy machine a real fail event only when
    /// the failure lands at or before the replica's next milestone at
    /// `deadline` (absolute seconds). A later failure cannot act before
    /// the milestone handler runs and re-checks on reschedule, so keeping
    /// it virtual is free — and spares the event queue one far-future
    /// schedule/cancel pair per launch, which is most of them on a
    /// high-availability grid.
    pub(super) fn materialize_fail_before(
        &mut self,
        machine: MachineId,
        deadline: f64,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if !self.lazy {
            return;
        }
        let i = machine.index();
        if self.state.machines.hot[i].next_transition != EventId::NONE
            || self.state.machines.hot[i].cycle_end > deadline
        {
            return;
        }
        let delay = self.state.machines.hot[i].cycle_end - sched.now().as_secs();
        let ev = sched.schedule_in(delay, Event::MachineFail(machine));
        self.state.machines.hot[i].next_transition = ev;
    }

    pub(super) fn machine_fail(&mut self, mid: MachineId, sched: &mut Scheduler<'_, Event>) {
        let now = sched.now();
        let i = mid.index();
        self.observer.observe(TraceEvent::MachineFail {
            at: now.as_secs(),
            machine: mid.0,
        });
        if self.state.machines.is_free(i) {
            self.state.free.remove(mid);
        }
        debug_assert!(
            self.state.machines.hot[i].up,
            "failure of a machine that is already down"
        );
        self.state.machines.hot[i].up = false;
        self.state.machines.failures[i] += 1;
        let victim = self.state.machines.hot[i].replica;
        self.state.free.note_failure(mid);
        self.state.counters.machine_failures += 1;
        let ev = if let Some(rp) = self.replay.as_mut() {
            rp.consume_personal_fail(i, now.as_secs());
            sched.schedule_at(rp.next_repair(i), Event::MachineRepair(mid))
        } else {
            let avail = self
                .state
                .avail
                .expect("failing grid has an availability process");
            let down = avail.next_down(&mut self.state.machines.avail_rng[i]);
            let ev = sched.schedule_in(down, Event::MachineRepair(mid));
            if self.lazy {
                self.state.machines.hot[i].cycle_end = now.as_secs() + down;
            }
            ev
        };
        self.state.machines.hot[i].next_transition = ev;
        if let Some(rid) = victim {
            self.kill_replica(rid, true, sched);
            self.state.counters.replicas_killed_failure += 1;
            // The victim task is pending again; idle machines may take it.
            self.dispatch_all(sched);
        }
    }

    pub(super) fn machine_repair(&mut self, mid: MachineId, sched: &mut Scheduler<'_, Event>) {
        self.observer.observe(TraceEvent::MachineRepair {
            at: sched.now().as_secs(),
            machine: mid.0,
        });
        let i = mid.index();
        debug_assert!(
            !self.state.machines.hot[i].up,
            "repair of a machine that is up"
        );
        debug_assert!(self.state.machines.hot[i].replica.is_none());
        self.state.machines.hot[i].up = true;
        self.state.free.insert(mid);
        // Resume the machine's own failure cycle (absent when only the
        // correlated-outage process can take machines down).
        if let Some(rp) = self.replay.as_mut() {
            rp.consume_repair(i, sched.now().as_secs());
            if self.state.avail.is_some() {
                let at = rp.next_personal_fail(i);
                let ev = sched.schedule_at(at, Event::MachineFail(mid));
                self.state.machines.hot[i].next_transition = ev;
            } else {
                self.state.machines.hot[i].next_transition = EventId::NONE;
            }
        } else if let Some(avail) = self.state.avail {
            let up = avail.next_up(&mut self.state.machines.avail_rng[i]);
            if self.lazy {
                // The machine is idle again: record the window end, no
                // fail event until something occupies it.
                self.state.machines.hot[i].cycle_end = sched.now().as_secs() + up;
                self.state.machines.hot[i].next_transition = EventId::NONE;
            } else {
                let ev = sched.schedule_in(up, Event::MachineFail(mid));
                self.state.machines.hot[i].next_transition = ev;
            }
        } else {
            self.state.machines.hot[i].next_transition = EventId::NONE;
        }
        self.dispatch_all(sched);
    }
}

#[cfg(test)]
mod tests {
    //! The correlated-outage path, checked through the observer seam: a
    //! trace replay proves every hit machine kills its replica exactly
    //! once, counters advance in lockstep with the trace, and repaired
    //! machines re-enter the free index and resume their own availability
    //! cycle.

    use crate::policy::PolicyKind;
    use crate::sim::{simulate_observed, RunResult, SimConfig, TraceEvent, TraceRecorder};
    use dgsched_des::dist::DistConfig;
    use dgsched_des::time::SimTime;
    use dgsched_grid::availability::Availability;
    use dgsched_grid::checkpoint::CheckpointConfig;
    use dgsched_grid::config::GridConfig;
    use dgsched_grid::power::Heterogeneity;
    use dgsched_grid::{Grid, OutageConfig};
    use dgsched_workload::{BagOfTasks, BotId, TaskId, TaskSpec, Workload};
    use rand::SeedableRng;

    fn outage_grid(availability: Availability, fraction: f64) -> Grid {
        let cfg = GridConfig {
            total_power: 80.0,
            heterogeneity: Heterogeneity::Homogeneous { power: 10.0 },
            availability,
            checkpoint: CheckpointConfig::disabled(),
            outages: Some(OutageConfig {
                mtbo: 4_000.0,
                duration: DistConfig::Constant { value: 800.0 },
                fraction,
            }),
        };
        cfg.build(&mut rand::rngs::StdRng::seed_from_u64(11))
    }

    fn long_workload() -> Workload {
        let tasks = (0..16)
            .map(|j| TaskSpec {
                id: TaskId(j),
                work: 20_000.0,
            })
            .collect();
        Workload {
            bags: vec![BagOfTasks {
                id: BotId(0),
                arrival: SimTime::new(0.0),
                tasks,
                granularity: 2000.0,
            }],
            lambda: 1.0,
            label: "outage-test".into(),
        }
    }

    fn traced_run(grid: &Grid, seed: u64) -> (RunResult, TraceRecorder) {
        let mut trace = TraceRecorder::new();
        let policy = PolicyKind::FcfsShare.create_seeded(seed);
        let r = simulate_observed(
            grid,
            &long_workload(),
            policy,
            &SimConfig::with_seed(seed),
            &mut trace,
        );
        (r, trace)
    }

    /// Replays a trace against per-machine up/busy state. Every assertion
    /// here is an "exactly once" guarantee: a double kill, a dispatch on a
    /// down machine or a repair of an up machine all fail the replay.
    fn replay(trace: &TraceRecorder, machines: usize) {
        let mut up = vec![true; machines];
        let mut busy = vec![false; machines];
        assert!(trace.is_time_ordered());
        for ev in &trace.events {
            match *ev {
                TraceEvent::Dispatch { machine, .. } => {
                    let m = machine as usize;
                    assert!(up[m], "dispatch on a down machine");
                    assert!(!busy[m], "dispatch on an occupied machine");
                    busy[m] = true;
                }
                TraceEvent::TaskComplete { machine, .. } => {
                    let m = machine as usize;
                    assert!(up[m] && busy[m], "completion without a running replica");
                    busy[m] = false;
                }
                TraceEvent::ReplicaKilled {
                    machine,
                    by_failure,
                    ..
                } => {
                    let m = machine as usize;
                    assert!(busy[m], "kill without a running replica (double kill?)");
                    if by_failure {
                        assert!(!up[m], "failure kill on a machine still up");
                    } else {
                        assert!(up[m], "sibling kill on a down machine");
                    }
                    busy[m] = false;
                }
                TraceEvent::MachineFail { machine, .. } => {
                    let m = machine as usize;
                    assert!(up[m], "failure of a machine already down");
                    up[m] = false;
                }
                TraceEvent::MachineRepair { machine, .. } => {
                    let m = machine as usize;
                    assert!(!up[m], "repair of a machine already up");
                    assert!(!busy[m], "repaired machine still holds a replica");
                    up[m] = true;
                }
                _ => {}
            }
        }
    }

    fn count<F: Fn(&TraceEvent) -> bool>(trace: &TraceRecorder, f: F) -> u64 {
        trace.events.iter().filter(|e| f(e)).count() as u64
    }

    #[test]
    fn outage_kills_each_hit_replica_exactly_once() {
        let grid = outage_grid(Availability::Always, 1.0);
        let (r, trace) = traced_run(&grid, 21);
        assert!(r.counters.outages > 0, "outages must strike");
        assert!(r.counters.replicas_killed_failure > 0);
        replay(&trace, grid.len());
    }

    #[test]
    fn counters_advance_with_the_trace() {
        let grid = outage_grid(Availability::Always, 0.6);
        let (r, trace) = traced_run(&grid, 22);
        replay(&trace, grid.len());
        assert_eq!(
            r.counters.outages,
            count(&trace, |e| matches!(e, TraceEvent::Outage { .. }))
        );
        assert_eq!(
            r.counters.machine_failures,
            count(&trace, |e| matches!(e, TraceEvent::MachineFail { .. }))
        );
        assert_eq!(
            r.counters.replicas_killed_failure,
            count(&trace, |e| matches!(
                e,
                TraceEvent::ReplicaKilled {
                    by_failure: true,
                    ..
                }
            ))
        );
        assert_eq!(
            r.counters.replicas_launched,
            count(&trace, |e| matches!(e, TraceEvent::Dispatch { .. }))
        );
    }

    #[test]
    fn outage_only_failures_happen_at_outage_instants() {
        // Availability::Always: the outage process is the only source of
        // failures, and the outage record precedes its same-time kills.
        let grid = outage_grid(Availability::Always, 1.0);
        let (_, trace) = traced_run(&grid, 23);
        let mut last_outage = f64::NEG_INFINITY;
        for ev in &trace.events {
            match *ev {
                TraceEvent::Outage { at, .. } => last_outage = at,
                TraceEvent::MachineFail { at, .. } => {
                    assert_eq!(
                        at, last_outage,
                        "every failure must coincide with the announced outage"
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn repaired_machines_reenter_free_index() {
        let grid = outage_grid(Availability::Always, 1.0);
        let (r, trace) = traced_run(&grid, 24);
        assert_eq!(r.completed, 1, "bag must finish despite outages");
        // Some machine must be dispatched to again after a repair — i.e.
        // the repair put it back into the free index.
        let redispatched = (0..grid.len() as u32).any(|m| {
            let repair = trace.events.iter().position(
                |e| matches!(e, TraceEvent::MachineRepair { machine, .. } if *machine == m),
            );
            match repair {
                None => false,
                Some(i) => trace.events[i..]
                    .iter()
                    .any(|e| matches!(e, TraceEvent::Dispatch { machine, .. } if *machine == m)),
            }
        });
        assert!(redispatched, "no repaired machine ever ran work again");
    }

    #[test]
    fn outage_repair_resumes_personal_availability_cycle() {
        // Both fault processes on: after an outage-induced repair, the
        // machine's own up/down cycle must continue (a later failure at a
        // non-outage instant).
        let grid = outage_grid(Availability::LOW, 0.8);
        let (_, trace) = traced_run(&grid, 25);
        let outage_times: Vec<f64> = trace
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Outage { at, .. } => Some(at),
                _ => None,
            })
            .collect();
        assert!(!outage_times.is_empty());
        let resumed = (0..grid.len() as u32).any(|m| {
            let mut seen_outage_fail = false;
            let mut seen_repair_after = false;
            for ev in &trace.events {
                match *ev {
                    TraceEvent::MachineFail { at, machine } if machine == m => {
                        if outage_times.contains(&at) {
                            seen_outage_fail = true;
                        } else if seen_repair_after {
                            return true; // personal cycle fired post-repair
                        }
                    }
                    TraceEvent::MachineRepair { machine, .. }
                        if machine == m && seen_outage_fail =>
                    {
                        seen_repair_after = true;
                    }
                    _ => {}
                }
            }
            false
        });
        assert!(
            resumed,
            "no machine resumed its own failure cycle after an outage repair"
        );
    }
}
