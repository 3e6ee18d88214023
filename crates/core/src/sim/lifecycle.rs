//! Replica lifecycle: compute / checkpoint milestones, task completion,
//! bag completion and replica kills.
//!
//! Every state change that frees or occupies a machine also updates the
//! free-machine and task-replica indices, keeping them exact between
//! events (see `sim::indices` for the invariants).

use super::driver::Driver;
use super::events::Event;
use super::metrics::BagMetrics;
use crate::state::{ReplicaId, ReplicaPhase};
use dgsched_des::engine::{Control, Scheduler};
use dgsched_des::event::EventId;
use dgsched_des::time::SimTime;
use dgsched_workload::BotId;

impl Driver<'_, '_> {
    /// Enters (or re-enters) the computing phase with `base` work already
    /// in hand, scheduling the next milestone: checkpoint-begin if Young's
    /// interval elapses before completion, completion otherwise.
    pub(super) fn start_computing(
        &mut self,
        rid: ReplicaId,
        base: f64,
        sched: &mut Scheduler<'_, Event>,
    ) {
        let now = sched.now();
        let (bag, task) = (self.state.slab.bag(rid), self.state.slab.task(rid));
        let machine = self.state.slab.machine(rid);
        let work = self.state.bags[bag.index()].tasks[task.index()].work;
        let power = self.state.machines.hot[machine.index()].power;
        let remaining = (work - base).max(0.0);
        let t_done = remaining / power;
        let tau = self.state.tau;
        let (delay, next_is_checkpoint) = if tau < t_done {
            (tau, true)
        } else {
            (t_done, false)
        };
        let ev = sched.schedule_in(delay, Event::Replica(rid));
        self.state.slab.set_phase(
            rid,
            ReplicaPhase::Computing {
                since: now,
                base_work: base,
                next_is_checkpoint,
            },
        );
        self.state.slab.set_event(rid, ev);
        self.materialize_fail_before(machine, now.as_secs() + delay, sched);
    }

    /// Handles a replica milestone according to its phase.
    pub(super) fn replica_event(
        &mut self,
        rid: ReplicaId,
        sched: &mut Scheduler<'_, Event>,
    ) -> Control {
        let now = sched.now();
        let Some(phase) = self.state.slab.try_phase(rid) else {
            // Killed replicas cancel their events; a stale pop means a
            // cancellation was missed.
            debug_assert!(false, "event for a dead replica");
            return Control::Continue;
        };
        match phase {
            ReplicaPhase::Retrieving { resume_work } => {
                self.start_computing(rid, resume_work, sched);
                Control::Continue
            }
            ReplicaPhase::Computing {
                since,
                base_work,
                next_is_checkpoint: true,
            } => {
                let machine = self.state.slab.machine(rid);
                let power = self.state.machines.hot[machine.index()].power;
                let work_now = base_work + now.since(since) * power;
                let ckpt = self.state.ckpt;
                let cost = ckpt.save_cost(&mut self.state.machines.xfer_rng[machine.index()]);
                self.state.counters.checkpoint_time += cost;
                let ev = sched.schedule_in(cost, Event::Replica(rid));
                self.state.slab.set_phase(
                    rid,
                    ReplicaPhase::Checkpointing {
                        work_at_write: work_now,
                    },
                );
                self.state.slab.set_event(rid, ev);
                self.materialize_fail_before(machine, now.as_secs() + cost, sched);
                Control::Continue
            }
            ReplicaPhase::Computing {
                next_is_checkpoint: false,
                ..
            } => self.complete_task(rid, sched),
            ReplicaPhase::Checkpointing { work_at_write } => {
                let (bag, task) = (self.state.slab.bag(rid), self.state.slab.task(rid));
                let t = &mut self.state.bags[bag.index()].tasks[task.index()];
                let key = t.ckpt_key;
                t.has_checkpoint = true;
                self.state.store.save(key, work_at_write);
                self.state.counters.checkpoints_written += 1;
                self.observer
                    .on_checkpoint_saved(now, bag, task, work_at_write);
                self.start_computing(rid, work_at_write, sched);
                Control::Continue
            }
        }
    }

    /// A replica finished its task: kill siblings, book metrics, and
    /// re-dispatch freed machines. Stops the run when the last bag drains.
    pub(super) fn complete_task(
        &mut self,
        rid: ReplicaId,
        sched: &mut Scheduler<'_, Event>,
    ) -> Control {
        let now = sched.now();
        let r = self.state.slab.remove(rid);
        let (bag_id, task_id) = (r.bag, r.task);
        self.observer
            .on_task_complete(now, bag_id, task_id, r.machine);
        self.state.machines.hot[r.machine.index()].replica = None;
        self.state.machines.hot[r.machine.index()].busy_time += now.since(r.started);
        self.state.counters.busy_time += now.since(r.started);
        // A completing machine is up by construction: failures kill their
        // replica first.
        if self.lazy {
            // Back to idle: drop the materialised fail event. The window
            // end stays recorded in `cycle_end` for on-demand validation.
            let mi = r.machine.index();
            sched.cancel(self.state.machines.hot[mi].next_transition);
            self.state.machines.hot[mi].next_transition = EventId::NONE;
        }
        self.state.free.insert(r.machine);

        let (work, ckpt_key) = {
            let bag = &mut self.state.bags[bag_id.index()];
            let task = &mut bag.tasks[task_id.index()];
            let pair = (task.work, task.ckpt_key);
            task.has_checkpoint = false;
            bag.note_task_completed(task_id, now);
            pair
        };
        self.state.counters.useful_work += work;
        self.state.store.discard(ckpt_key);

        // Kill sibling replicas of the completed task, in attach order. The
        // scratch buffer sidesteps borrowing the index during the kills.
        let mut sibs = std::mem::take(&mut self.state.sibling_scratch);
        sibs.clear();
        self.state.task_replicas.take_into(ckpt_key, &mut sibs);
        for &sib in &sibs {
            if sib == rid {
                continue;
            }
            self.kill_replica(sib, false, sched);
            self.state.counters.replicas_killed_sibling += 1;
        }
        self.state.sibling_scratch = sibs;

        if self.state.bags[bag_id.index()].is_complete() {
            self.finish_bag(now, bag_id);
            if self.state.completed_bags == self.workload.len() {
                return Control::Stop;
            }
        }
        self.dispatch_all(sched);
        Control::Continue
    }

    pub(super) fn finish_bag(&mut self, now: SimTime, bag_id: BotId) {
        self.state.completed_bags += 1;
        self.state.active.retain(|&b| b != bag_id);
        self.policy.on_bag_complete(bag_id);
        self.observer.on_bag_complete(now, bag_id);
        let bag = &mut self.state.bags[bag_id.index()];
        if (bag_id.index()) >= self.cfg.warmup_bags {
            let work: f64 = bag.tasks.iter().map(|t| t.work).sum();
            let largest = bag.tasks.iter().map(|t| t.work).fold(0.0f64, f64::max);
            // Ideal empty-grid makespan: work over the power the bag could
            // actually use (its |tasks| fastest machines), or the critical
            // path on the fastest machine — whichever binds.
            let usable_idx = bag.tasks.len().min(self.state.power_prefix.len()) - 1;
            let usable_power = self.state.power_prefix[usable_idx];
            let fastest = self.state.power_prefix[0];
            let ideal = (work / usable_power).max(largest / fastest);
            let turnaround = bag.turnaround().expect("bag is complete");
            self.state.measured.push(BagMetrics {
                bag: bag_id.0,
                granularity: bag.granularity,
                arrival: bag.arrival.as_secs(),
                turnaround,
                waiting: bag.waiting().expect("bag was dispatched"),
                makespan: bag.makespan().expect("bag is complete"),
                work,
                slowdown: turnaround / ideal,
            });
        }
        bag.release();
    }

    /// Kills a replica (machine failure or sibling kill): cancels its
    /// outstanding event, releases the machine slot, books the occupancy as
    /// waste, and re-queues the task if this was its last replica.
    pub(super) fn kill_replica(
        &mut self,
        rid: ReplicaId,
        by_failure: bool,
        sched: &mut Scheduler<'_, Event>,
    ) {
        let now = sched.now();
        let r = self.state.slab.remove(rid);
        self.observer
            .on_replica_killed(now, r.bag, r.task, r.machine, by_failure);
        sched.cancel(r.event);
        let mi = r.machine.index();
        debug_assert_eq!(self.state.machines.hot[mi].replica, Some(rid));
        self.state.machines.hot[mi].replica = None;
        let occupancy = now.since(r.started);
        self.state.machines.hot[mi].busy_time += occupancy;
        self.state.counters.busy_time += occupancy;
        self.state.counters.killed_occupancy += occupancy;
        // Sibling kills free an up machine; failure kills leave it down.
        if self.state.machines.hot[mi].up {
            if self.lazy {
                // Back to idle: the materialised fail event goes away
                // (failure kills keep theirs — it became the repair).
                sched.cancel(self.state.machines.hot[mi].next_transition);
                self.state.machines.hot[mi].next_transition = EventId::NONE;
            }
            self.state.free.insert(r.machine);
        }

        let ckpt_key = self.state.bags[r.bag.index()].tasks[r.task.index()].ckpt_key;
        self.state.task_replicas.detach(ckpt_key, rid);
        // Task/bag bookkeeping; a task losing its last replica re-enters the
        // pending queue with restart priority.
        self.state.bags[r.bag.index()].note_replica_stopped(r.task, now);
    }
}
