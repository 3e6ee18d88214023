//! The scheduling round: bag selection and replica dispatch.
//!
//! A round runs whenever a machine becomes free (completion, sibling kill,
//! repair) or a bag arrives. Each free machine — taken from the
//! [`FreeMachineIndex`](super::indices::FreeMachineIndex) in the configured
//! machine order — performs one bag-selection / task-selection step; the
//! round ends when the policy declines a machine or no free machine
//! remains.

use super::config::{MachineOrder, TaskOrder};
use super::driver::{Driver, SimState};
use super::events::Event;
use super::observer::TraceEvent;
use crate::policy::View;
use crate::state::{BagRt, Replica, ReplicaPhase};
use dgsched_des::engine::Scheduler;
use dgsched_des::event::EventId;
use dgsched_des::time::SimTime;
use dgsched_grid::MachineId;
use dgsched_workload::{BotId, TaskId};

impl SimState {
    /// Naive twin of the free-machine index: scans and sorts every machine
    /// per call, exactly as the pre-index scheduler did. Reference mode
    /// dispatches from this list.
    pub(super) fn free_machine_ids_scan(&self, order: MachineOrder) -> Vec<MachineId> {
        let mut ids: Vec<MachineId> = (0..self.machines.len())
            .filter(|&i| self.machines.is_free(i))
            .map(|i| MachineId(i as u32))
            .collect();
        match order {
            MachineOrder::Arbitrary => {}
            MachineOrder::FastestFirst => ids.sort_by(|a, b| {
                self.machines.hot[b.index()]
                    .power
                    .total_cmp(&self.machines.hot[a.index()].power)
            }),
            MachineOrder::FewestFailuresFirst => {
                ids.sort_by_key(|m| self.machines.failures[m.index()]);
            }
        }
        debug_assert_eq!(
            ids.len(),
            self.free.len(),
            "free index out of sync with machines"
        );
        ids
    }
}

impl Driver<'_, '_> {
    /// The replication threshold in force right now: the policy's override
    /// of either the static configured value or the failure-adaptive one.
    pub(super) fn effective_threshold(&self, now: SimTime) -> u32 {
        let base = match self.cfg.dynamic_replication {
            None => self.cfg.replication_threshold,
            Some(d) => {
                // Knowledge-free adaptation: rate of failures the scheduler
                // itself has witnessed, per machine.
                let elapsed = now.as_secs().max(1.0);
                let per_machine = self.state.counters.machine_failures as f64
                    / (elapsed * self.state.machines.len() as f64);
                if per_machine > d.rate_cutoff {
                    d.stormy
                } else {
                    d.calm
                }
            }
        };
        self.policy.replication_threshold(base)
    }

    /// One bag-selection + task-selection round for every free machine.
    /// A single pass suffices: dispatching never makes an undispatchable
    /// bag dispatchable (it consumes pending tasks and raises replica
    /// counts). Iterating the live index equals iterating a snapshot:
    /// a dispatch removes only the machine just used, and nothing becomes
    /// free mid-round.
    pub(super) fn dispatch_all(&mut self, sched: &mut Scheduler<'_, Event>) {
        #[allow(clippy::let_unit_value, reason = "unit Stamp without `timing`")]
        let round_started = dgsched_obs::stamp();
        let now = sched.now();
        let threshold = self.effective_threshold(now);
        if self.reference {
            for mid in self.state.free_machine_ids_scan(self.cfg.machine_order) {
                if !self.validate_free(mid, now, sched) {
                    continue;
                }
                if !self.dispatch_one(mid, now, threshold, sched) {
                    break;
                }
            }
        } else {
            while let Some(mid) = self.state.free.first() {
                if !self.validate_free(mid, now, sched) {
                    continue;
                }
                if !self.dispatch_one(mid, now, threshold, sched) {
                    break;
                }
            }
        }
        self.prof.record(self.span_round, round_started);
    }

    /// Lazy availability: confirm an allegedly-free machine really is up
    /// before handing it to the policy. Idle machines carry no fail/repair
    /// events, so their recorded window may be stale; this fast-forwards
    /// the renewal state to `now`. A machine discovered down leaves the
    /// free index and gets a repair event at the closed-form end of its
    /// current down window — the instant the eager schedule would have
    /// repaired it. Always true under the eager default.
    fn validate_free(
        &mut self,
        mid: MachineId,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
    ) -> bool {
        if !self.lazy {
            return true;
        }
        let i = mid.index();
        let t = now.as_secs();
        if self.state.machines.hot[i].cycle_end > t {
            debug_assert!(
                self.state.machines.hot[i].up,
                "free index holds a down machine"
            );
            return true;
        }
        let avail = self.state.avail.expect("lazy mode needs a failure process");
        let ms = &mut self.state.machines;
        let (rng, h) = (&mut ms.avail_rng[i], &mut ms.hot[i]);
        let f = avail.fast_forward(rng, &mut h.up, &mut h.cycle_end, t);
        ms.failures[i] += f;
        self.state.counters.machine_failures += f;
        if self.state.machines.hot[i].up {
            return true;
        }
        // Down right now: the elided failure surfaces at observation time.
        self.observer.observe(TraceEvent::MachineFail {
            at: now.as_secs(),
            machine: mid.0,
        });
        self.state.free.remove(mid);
        let ev = sched.schedule_in(
            self.state.machines.hot[i].cycle_end - t,
            Event::MachineRepair(mid),
        );
        self.state.machines.hot[i].next_transition = ev;
        false
    }

    /// One selection step for one free machine; `false` ends the round.
    fn dispatch_one(
        &mut self,
        mid: MachineId,
        now: SimTime,
        threshold: u32,
        sched: &mut Scheduler<'_, Event>,
    ) -> bool {
        let chosen = {
            let view = if self.reference {
                View::new_reference(now, &self.state.active, &self.state.bags, threshold)
            } else {
                View::new(now, &self.state.active, &self.state.bags, threshold)
            };
            self.policy.select(&view)
        };
        let Some(bag_id) = chosen else { return false };
        let bag = &mut self.state.bags[bag_id.index()];
        let (task, is_replication) = match bag.pop_pending() {
            Some(t) => (Some(t), false),
            None => {
                let cand = if self.reference {
                    bag.replication_candidate_scan(threshold)
                } else {
                    bag.replication_candidate(threshold)
                };
                (cand, true)
            }
        };
        let Some(task) = task else {
            debug_assert!(false, "policy selected an undispatchable bag {bag_id}");
            return false;
        };
        self.launch(bag_id, task, mid, is_replication, sched);
        true
    }

    pub(super) fn launch(
        &mut self,
        bag: BotId,
        task: TaskId,
        machine: MachineId,
        is_replication: bool,
        sched: &mut Scheduler<'_, Event>,
    ) {
        #[allow(clippy::let_unit_value, reason = "unit Stamp without `timing`")]
        let launch_started = dgsched_obs::stamp();
        let now = sched.now();
        self.observer.observe(TraceEvent::Dispatch {
            at: now.as_secs(),
            bag: bag.0,
            task: task.0,
            machine: machine.0,
            is_replication,
        });
        self.state.bags[bag.index()].note_replica_started(task, now);
        let t = &self.state.bags[bag.index()].tasks[task.index()];
        let ckpt_key = t.ckpt_key;
        // `has_checkpoint` lives on the task record this path already
        // touched; only a genuinely checkpointed task pays the store read.
        let saved = if self.state.ckpt.enabled() && t.has_checkpoint {
            self.state.store.saved_work(ckpt_key)
        } else {
            0.0
        };
        let rid = self.state.slab.insert(Replica {
            bag,
            task,
            machine,
            phase: ReplicaPhase::Retrieving { resume_work: saved },
            event: EventId::NONE,
            started: now,
        });
        self.state.machines.hot[machine.index()].replica = Some(rid);
        self.state.free.remove(machine);
        self.state.task_replicas.attach(ckpt_key, rid);
        self.state.counters.replicas_launched += 1;
        if saved > 0.0 {
            let ckpt = self.state.ckpt;
            let cost = ckpt.retrieve_cost(&mut self.state.machines.xfer_rng[machine.index()]);
            self.state.counters.retrieve_time += cost;
            let ev = sched.schedule_in(cost, Event::Replica(rid));
            self.state.slab.set_event(rid, ev);
            self.materialize_fail_before(machine, now.as_secs() + cost, sched);
        } else {
            self.start_computing(rid, 0.0, sched);
        }
        self.prof.record(self.span_dispatch, launch_started);
    }

    pub(super) fn bag_arrival(&mut self, index: u32, sched: &mut Scheduler<'_, Event>) {
        let bag = &self.workload.bags[index as usize];
        debug_assert_eq!(bag.id.0, index);
        debug_assert_eq!(
            self.state.bags.len(),
            index as usize,
            "arrivals must be in id order"
        );
        let ckpt_base = self.state.next_ckpt_base;
        self.state.next_ckpt_base += bag.len();
        let mut rt = BagRt::new(bag, ckpt_base);
        if self.cfg.task_order == TaskOrder::LongestFirst {
            let tasks = &rt.tasks;
            rt.pending_fresh
                .make_contiguous()
                .sort_by(|a, b| tasks[b.index()].work.total_cmp(&tasks[a.index()].work));
        }
        self.state.store.ensure(ckpt_base + bag.len());
        self.state.task_replicas.ensure(ckpt_base + bag.len());
        self.state.bags.push(rt);
        self.state.active.push(bag.id);
        self.policy.on_bag_arrival(bag.id);
        self.observer.observe(TraceEvent::BagArrival {
            at: sched.now().as_secs(),
            bag: bag.id.0,
        });
        self.dispatch_all(sched);
    }
}
