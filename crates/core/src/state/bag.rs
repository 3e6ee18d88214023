//! Per-bag runtime state: the scheduler's queue for one BoT application.

use super::task::{TaskPhase, TaskRt};
use crate::sim::indices::ReplicaCountBuckets;
use dgsched_des::time::SimTime;
use dgsched_workload::{BagOfTasks, BotId, TaskId};
use std::collections::VecDeque;

/// Runtime state of one bag: its tasks, its pending queues and its
/// completion bookkeeping.
///
/// The pending queue is split in two: *restarts* (tasks whose last replica
/// failed — they resume from a checkpoint and are served first, matching
/// WQR-FT's restart priority) and *fresh* tasks never dispatched, served in
/// arrival order (WorkQueue's arbitrary order).
///
/// Alongside the queues the bag maintains three incremental indices so the
/// per-probe policy queries are O(1)/O(log) instead of task scans:
///
/// * `running_by_count` — running tasks bucketed by replica count, backing
///   [`Self::replication_candidate`] and [`Self::can_replicate`];
/// * `restart_wait` — a monotone max-deque over the FIFO restart queue,
///   backing the restart arm of [`Self::max_pending_wait`];
/// * `remaining_work` — the sum of incomplete tasks' work, backing
///   [`Self::remaining_work`] (SBF's criterion).
///
/// Each index has a `_scan` twin that recomputes the answer from the task
/// vector; the reference simulator mode and the equivalence tests use the
/// twins to cross-check the incremental forms.
#[derive(Debug, Clone)]
pub struct BagRt {
    /// This bag's id.
    pub id: BotId,
    /// Submission time.
    pub arrival: SimTime,
    /// Granularity class (reporting only).
    pub granularity: f64,
    /// Task runtime states, indexed by [`TaskId`].
    pub tasks: Vec<TaskRt>,
    /// Failed tasks awaiting a restart replica (served first).
    pub(crate) pending_restarts: VecDeque<TaskId>,
    /// Never-dispatched tasks in arrival order.
    pub(crate) pending_fresh: VecDeque<TaskId>,
    /// Number of completed tasks.
    pub done: usize,
    /// Number of tasks; kept when [`Self::release`] drops `tasks`.
    total: usize,
    /// Total running replicas across the bag's tasks.
    pub running_replicas: u32,
    /// When the bag's first replica was dispatched.
    pub first_dispatch: Option<SimTime>,
    /// When the bag's last task completed.
    pub completed_at: Option<SimTime>,
    /// Tasks with at least one running replica, bucketed by replica count
    /// in a min-bucket queue (O(1) least-replicated lookup).
    running_by_count: ReplicaCountBuckets,
    /// Monotone max-deque over `pending_restarts` (a subsequence of it, in
    /// queue order, strictly decreasing in waiting time): the front is the
    /// longest-waiting restart. Valid because the restart queue is strictly
    /// FIFO and all pending waits grow at the same rate.
    restart_wait: VecDeque<TaskId>,
    /// Work of the tasks not yet `Done`, kept up to date on completion.
    remaining_work: f64,
}

impl BagRt {
    /// Builds runtime state from a submitted bag; `ckpt_base` is the bag's
    /// offset into the run-wide checkpoint store.
    pub fn new(bag: &BagOfTasks, ckpt_base: usize) -> Self {
        let tasks: Vec<TaskRt> = bag
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| TaskRt::new(t.work, bag.arrival, ckpt_base + i))
            .collect();
        BagRt {
            id: bag.id,
            arrival: bag.arrival,
            granularity: bag.granularity,
            pending_fresh: (0..tasks.len() as u32).map(TaskId).collect(),
            pending_restarts: VecDeque::new(),
            done: 0,
            total: tasks.len(),
            running_replicas: 0,
            first_dispatch: None,
            completed_at: None,
            running_by_count: ReplicaCountBuckets::new(tasks.len()),
            restart_wait: VecDeque::new(),
            remaining_work: tasks.iter().map(|t| t.work).sum(),
            tasks,
        }
    }

    /// Number of tasks.
    pub fn total_tasks(&self) -> usize {
        self.total
    }

    /// True when every task has completed.
    pub fn is_complete(&self) -> bool {
        self.done == self.total
    }

    /// Drops a completed bag's per-task storage: its tasks, pending
    /// queues, replica-count buckets and restart deque. Nothing reads them
    /// once the last task is done and its siblings are killed; keeping
    /// them would make every later snapshot of the run copy them. The
    /// completion scalars (`done`, `first_dispatch`, `completed_at`) stay,
    /// so [`Self::is_complete`], [`Self::turnaround`], [`Self::waiting`]
    /// and [`Self::makespan`] still answer.
    pub(crate) fn release(&mut self) {
        debug_assert!(self.is_complete() && self.running_replicas == 0);
        self.tasks = Vec::new();
        self.pending_restarts = VecDeque::new();
        self.pending_fresh = VecDeque::new();
        self.running_by_count = ReplicaCountBuckets::default();
        self.restart_wait = VecDeque::new();
    }

    /// True when the bag has a task waiting to be dispatched.
    pub fn has_pending(&self) -> bool {
        !self.pending_restarts.is_empty() || !self.pending_fresh.is_empty()
    }

    /// True when the bag has at least one running replica.
    pub fn has_running(&self) -> bool {
        self.running_replicas > 0
    }

    /// Pops the next pending task: restarts first, then fresh arrivals.
    pub fn pop_pending(&mut self) -> Option<TaskId> {
        if let Some(t) = self.pending_restarts.pop_front() {
            if self.restart_wait.front() == Some(&t) {
                self.restart_wait.pop_front();
            }
            Some(t)
        } else {
            self.pending_fresh.pop_front()
        }
    }

    /// Re-queues a task whose last replica failed (back of the restart
    /// queue — FIFO among restarts) and folds it into the max-deque.
    pub(crate) fn push_restart(&mut self, task: TaskId, now: SimTime) {
        debug_assert!(self.tasks[task.index()].phase == TaskPhase::Pending);
        let w = self.tasks[task.index()].waiting_time(now);
        while let Some(&back) = self.restart_wait.back() {
            if self.tasks[back.index()].waiting_time(now) <= w {
                self.restart_wait.pop_back();
            } else {
                break;
            }
        }
        self.restart_wait.push_back(task);
        self.pending_restarts.push_back(task);
    }

    /// The running task with the fewest replicas strictly below `threshold`
    /// (WQR's replication candidate), ties broken by lowest task id.
    pub fn replication_candidate(&self, threshold: u32) -> Option<TaskId> {
        let (count, task) = self.running_by_count.min_task()?;
        if count >= threshold {
            return None;
        }
        Some(TaskId(task))
    }

    /// True when [`Self::replication_candidate`] would return a task.
    pub fn can_replicate(&self, threshold: u32) -> bool {
        self.running_by_count
            .min_count()
            .is_some_and(|count| count < threshold)
    }

    /// Largest waiting time among pending tasks at `now` (LongIdle's
    /// criterion); `None` when nothing is pending.
    ///
    /// Fresh tasks all share the waiting time `now − arrival`; the restart
    /// arm reads the max-deque front instead of scanning the queue.
    pub fn max_pending_wait(&self, now: SimTime) -> Option<f64> {
        let fresh = if self.pending_fresh.is_empty() {
            None
        } else {
            Some(now.since(self.arrival))
        };
        let restart = self
            .restart_wait
            .front()
            .map(|t| self.tasks[t.index()].waiting_time(now));
        match (fresh, restart) {
            (None, r) => r,
            (f, None) => f,
            (Some(f), Some(r)) => Some(f.max(r)),
        }
    }

    /// Total work of the tasks not yet complete (SBF's criterion).
    pub fn remaining_work(&self) -> f64 {
        self.remaining_work
    }

    /// Naive twin of [`Self::replication_candidate`]: full task scan.
    pub fn replication_candidate_scan(&self, threshold: u32) -> Option<TaskId> {
        (0..self.tasks.len() as u32)
            .map(TaskId)
            .filter(|t| {
                let r = self.tasks[t.index()].running_replicas;
                r > 0 && r < threshold
            })
            .min_by_key(|t| (self.tasks[t.index()].running_replicas, t.index()))
    }

    /// Naive twin of [`Self::can_replicate`]: full task scan.
    pub fn can_replicate_scan(&self, threshold: u32) -> bool {
        self.tasks
            .iter()
            .any(|t| t.running_replicas > 0 && t.running_replicas < threshold)
    }

    /// Naive twin of [`Self::max_pending_wait`]: folds over the restart
    /// queue instead of reading the max-deque.
    pub fn max_pending_wait_scan(&self, now: SimTime) -> Option<f64> {
        let fresh = if self.pending_fresh.is_empty() {
            None
        } else {
            Some(now.since(self.arrival))
        };
        let restart = self
            .pending_restarts
            .iter()
            .map(|t| self.tasks[t.index()].waiting_time(now))
            .fold(None, |acc: Option<f64>, w| {
                Some(acc.map_or(w, |a| a.max(w)))
            });
        match (fresh, restart) {
            (None, r) => r,
            (f, None) => f,
            (Some(f), Some(r)) => Some(f.max(r)),
        }
    }

    /// Naive twin of [`Self::remaining_work`]: sums incomplete tasks.
    pub fn remaining_work_scan(&self) -> f64 {
        self.tasks
            .iter()
            .filter(|t| t.phase != TaskPhase::Done)
            .map(|t| t.work)
            .sum()
    }

    /// Moves `task` between replica-count buckets after its count changed
    /// from `from` to `to` (0 meaning absent).
    fn bump_count(&mut self, task: TaskId, from: u32, to: u32) {
        self.running_by_count.bump(task.index() as u32, from, to);
    }

    /// Marks a task as having gained a running replica, maintaining the
    /// replica-count buckets.
    pub fn note_replica_started(&mut self, task: TaskId, now: SimTime) {
        let old = self.tasks[task.index()].running_replicas;
        self.tasks[task.index()].replica_started(now);
        self.bump_count(task, old, old + 1);
        self.running_replicas += 1;
        if self.first_dispatch.is_none() {
            self.first_dispatch = Some(now);
        }
    }

    /// Marks a replica of `task` as stopped without completing it; returns
    /// `true` when the task went back to pending (and was re-queued here).
    pub fn note_replica_stopped(&mut self, task: TaskId, now: SimTime) -> bool {
        let old = self.tasks[task.index()].running_replicas;
        let requeue = self.tasks[task.index()].replica_stopped(now);
        self.bump_count(task, old, old - 1);
        self.running_replicas -= 1;
        if requeue {
            self.push_restart(task, now);
        }
        requeue
    }

    /// Marks `task` complete (its winning replica finished); the caller is
    /// responsible for killing sibling replicas (each kill then flows
    /// through [`Self::note_replica_stopped`], which will see `Done` and
    /// not requeue).
    ///
    /// A completed task with surviving siblings stays bucketed until the
    /// kills drain its count — never observable by policies, because the
    /// kills happen within the same event, before any dispatch runs.
    pub fn note_task_completed(&mut self, task: TaskId, now: SimTime) {
        let old = self.tasks[task.index()].running_replicas;
        self.tasks[task.index()].completed();
        self.bump_count(task, old, old - 1);
        self.running_replicas -= 1;
        self.remaining_work -= self.tasks[task.index()].work;
        self.done += 1;
        if self.is_complete() {
            self.completed_at = Some(now);
        }
    }

    /// Turnaround time (completion − arrival), if complete.
    pub fn turnaround(&self) -> Option<f64> {
        self.completed_at.map(|c| c.since(self.arrival))
    }

    /// Queue waiting time of the bag (first dispatch − arrival).
    pub fn waiting(&self) -> Option<f64> {
        self.first_dispatch.map(|d| d.since(self.arrival))
    }

    /// Makespan (completion − first dispatch), if complete.
    pub fn makespan(&self) -> Option<f64> {
        match (self.first_dispatch, self.completed_at) {
            (Some(d), Some(c)) => Some(c.since(d)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsched_workload::TaskSpec;

    fn bag3() -> BagRt {
        let bag = BagOfTasks {
            id: BotId(0),
            arrival: SimTime::new(10.0),
            tasks: (0..3)
                .map(|i| TaskSpec {
                    id: TaskId(i),
                    work: 100.0,
                })
                .collect(),
            granularity: 100.0,
        };
        BagRt::new(&bag, 0)
    }

    #[test]
    fn fresh_bag_layout() {
        let b = bag3();
        assert_eq!(b.total_tasks(), 3);
        assert!(b.has_pending());
        assert!(!b.has_running());
        assert!(!b.is_complete());
        assert_eq!(b.tasks[2].ckpt_key, 2);
        assert_eq!(b.max_pending_wait(SimTime::new(15.0)), Some(5.0));
        assert_eq!(b.remaining_work(), 300.0);
    }

    #[test]
    fn pop_order_restarts_first() {
        let mut b = bag3();
        let first = b.pop_pending().unwrap();
        assert_eq!(first, TaskId(0));
        b.note_replica_started(first, SimTime::new(12.0));
        // Task 0 fails: back to pending with restart priority.
        b.note_replica_stopped(first, SimTime::new(20.0));
        assert_eq!(
            b.pop_pending(),
            Some(TaskId(0)),
            "restart outranks fresh tasks"
        );
        assert_eq!(b.pop_pending(), Some(TaskId(1)));
    }

    #[test]
    fn replication_candidate_prefers_fewest_replicas() {
        let mut b = bag3();
        for _ in 0..3 {
            let t = b.pop_pending().unwrap();
            b.note_replica_started(t, SimTime::new(11.0));
        }
        // Replicate task 0 → it now has 2 replicas.
        b.note_replica_started(TaskId(0), SimTime::new(12.0));
        assert_eq!(b.replication_candidate(2), Some(TaskId(1)));
        assert_eq!(b.replication_candidate_scan(2), Some(TaskId(1)));
        assert!(b.can_replicate(2));
        assert!(b.can_replicate_scan(2));
        // With threshold 1 nothing qualifies.
        assert!(!b.can_replicate(1));
        assert!(!b.can_replicate_scan(1));
        assert_eq!(b.replication_candidate(1), None);
        assert_eq!(b.replication_candidate_scan(1), None);
    }

    #[test]
    fn completion_flow() {
        let mut b = bag3();
        let now = SimTime::new(11.0);
        for _ in 0..3 {
            let t = b.pop_pending().unwrap();
            b.note_replica_started(t, now);
        }
        b.note_task_completed(TaskId(0), SimTime::new(50.0));
        assert_eq!(b.remaining_work(), 200.0);
        assert_eq!(b.remaining_work_scan(), 200.0);
        b.note_task_completed(TaskId(1), SimTime::new(60.0));
        assert!(!b.is_complete());
        b.note_task_completed(TaskId(2), SimTime::new(70.0));
        assert!(b.is_complete());
        assert_eq!(b.turnaround(), Some(60.0));
        assert_eq!(b.waiting(), Some(1.0));
        assert_eq!(b.makespan(), Some(59.0));
        assert!(!b.has_running());
        assert_eq!(b.remaining_work(), 0.0);
    }

    #[test]
    fn sibling_kill_after_completion_keeps_done() {
        let mut b = bag3();
        let t = b.pop_pending().unwrap();
        b.note_replica_started(t, SimTime::new(11.0));
        b.note_replica_started(t, SimTime::new(12.0)); // replica 2
        b.note_task_completed(t, SimTime::new(20.0));
        // Sibling killed afterwards: no requeue, count stays consistent.
        assert!(!b.note_replica_stopped(t, SimTime::new(20.0)));
        assert_eq!(b.done, 1);
        assert_eq!(b.running_replicas, 0);
        assert!(!b.has_running());
        assert!(!b.can_replicate(2));
    }

    #[test]
    fn max_pending_wait_covers_restarts() {
        let mut b = bag3();
        let t = b.pop_pending().unwrap();
        b.note_replica_started(t, SimTime::new(10.0)); // waited 0
        b.note_replica_stopped(t, SimTime::new(100.0)); // restart, waiting again
                                                        // Fresh tasks have waited now−10; restart has waited now−100.
        let w = b.max_pending_wait(SimTime::new(150.0)).unwrap();
        assert_eq!(w, 140.0, "fresh tasks dominate here");
        assert_eq!(b.max_pending_wait_scan(SimTime::new(150.0)), Some(w));
        // Pop both fresh tasks; only the restart remains.
        while b.pending_fresh.pop_front().is_some() {}
        let w = b.max_pending_wait(SimTime::new(150.0)).unwrap();
        assert_eq!(w, 50.0);
        assert_eq!(b.max_pending_wait_scan(SimTime::new(150.0)), Some(w));
    }

    #[test]
    fn restart_max_deque_tracks_queue_churn() {
        let mut b = bag3();
        // Run all three tasks, then fail them at different times so their
        // accumulated waits differ: task 0 waited 0, task 1 waited 0, but
        // they restart at different instants.
        for _ in 0..3 {
            let t = b.pop_pending().unwrap();
            b.note_replica_started(t, SimTime::new(10.0));
        }
        b.note_replica_stopped(TaskId(1), SimTime::new(20.0)); // waiting since 20
        b.note_replica_stopped(TaskId(0), SimTime::new(40.0)); // waiting since 40
        b.note_replica_stopped(TaskId(2), SimTime::new(50.0)); // waiting since 50
        let now = SimTime::new(60.0);
        assert_eq!(b.max_pending_wait(now), b.max_pending_wait_scan(now));
        assert_eq!(b.max_pending_wait(now), Some(40.0));
        // Pop the longest-waiting restart (task 1, at the queue front).
        assert_eq!(b.pop_pending(), Some(TaskId(1)));
        assert_eq!(b.max_pending_wait(now), b.max_pending_wait_scan(now));
        assert_eq!(b.max_pending_wait(now), Some(20.0));
        // Requeue it with a fresh run/fail cycle: it re-enters at the back.
        b.note_replica_started(TaskId(1), now);
        b.note_replica_stopped(TaskId(1), SimTime::new(65.0));
        let later = SimTime::new(80.0);
        assert_eq!(b.max_pending_wait(later), b.max_pending_wait_scan(later));
    }
}
