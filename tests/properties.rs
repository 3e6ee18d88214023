//! Property-based tests on the kernel data structures and the simulator's
//! global invariants.

use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::{simulate, SimConfig};
use dgsched_core::state::BagRt;
use dgsched_des::event::EventId;
use dgsched_des::queue::{BTreeQueue, BinaryHeapQueue, PendingEvents};
use dgsched_des::stats::Welford;
use dgsched_des::time::SimTime;
use dgsched_grid::{Availability, CheckpointConfig, GridConfig, Heterogeneity};
use dgsched_workload::{BagOfTasks, BotId, TaskId, TaskSpec, Workload};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Operations a queue fuzzer can apply.
#[derive(Debug, Clone)]
enum Op {
    Schedule(f64),
    Pop,
    PeekTime,
    CancelNth(usize),
    /// Pop, then schedule a follow-up `delay` after the popped time: the
    /// DES handler pattern, which refills the heap's just-vacated root.
    PopThenSchedule(f64),
}

/// Schedule times: a small grid (with both zeros, which tie) so FIFO ties
/// are common, plus a continuous range.
fn time_strategy() -> impl Strategy<Value = f64> {
    const GRID: [f64; 6] = [-0.0, 0.0, 0.5, 1.0, 2.0, 1e6];
    prop_oneof![
        (0usize..GRID.len()).prop_map(|i| GRID[i]),
        (0usize..GRID.len()).prop_map(|i| GRID[i]),
        0.0f64..1e6,
    ]
}

/// Follow-up delays, all `>= 0.0` (which `-0.0` is) as the engine demands.
fn delay_strategy() -> impl Strategy<Value = f64> {
    const DELAYS: [f64; 5] = [-0.0, 0.0, 0.5, 1.0, 1e3];
    (0usize..DELAYS.len()).prop_map(|i| DELAYS[i])
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        time_strategy().prop_map(Op::Schedule),
        Just(Op::Pop),
        Just(Op::PeekTime),
        (0usize..64).prop_map(Op::CancelNth),
        delay_strategy().prop_map(Op::PopThenSchedule),
    ]
}

/// A scheduling burst followed by a cancel-dominated mix: tombstones pile
/// up past `live + 64`, so the heap compacts mid-run.
fn cancel_storm_strategy() -> impl Strategy<Value = Vec<Op>> {
    let storm = prop_oneof![
        (0usize..1 << 16).prop_map(Op::CancelNth),
        (0usize..1 << 16).prop_map(Op::CancelNth),
        (0usize..1 << 16).prop_map(Op::CancelNth),
        time_strategy().prop_map(Op::Schedule),
        Just(Op::PeekTime),
        delay_strategy().prop_map(Op::PopThenSchedule),
    ];
    (
        proptest::collection::vec(time_strategy().prop_map(Op::Schedule), 150..250),
        proptest::collection::vec(storm, 200..400),
    )
        .prop_map(|(mut burst, storm)| {
            burst.extend(storm);
            burst
        })
}

/// The two queues under test plus a naive reference holding live entries
/// only, as `(time, seq)`; `seq` is also the payload. Both queues issue
/// ids from one sequential counter, so one id list serves.
struct Fuzz {
    heap: BinaryHeapQueue<u64>,
    btree: BTreeQueue<u64>,
    reference: Vec<(f64, u64)>,
    ids: Vec<EventId>,
}

impl Fuzz {
    fn new() -> Self {
        Fuzz {
            heap: BinaryHeapQueue::new(),
            btree: BTreeQueue::new(),
            reference: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Index of the reference's earliest entry: least time (`-0.0` equals
    /// `+0.0` here), then least sequence number.
    fn reference_front(&self) -> Option<usize> {
        self.reference
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("no NaN"))
            .map(|(i, _)| i)
    }

    fn schedule(&mut self, t: f64) {
        let seq = self.ids.len() as u64;
        let id = self.heap.schedule(SimTime::new(t), seq);
        assert_eq!(self.btree.schedule(SimTime::new(t), seq), id, "btree id");
        self.ids.push(id);
        self.reference.push((t, seq));
    }

    /// Pops both queues, checks them against the reference and
    /// returns the popped time.
    fn pop(&mut self) -> Option<f64> {
        let expected = self.reference_front().map(|i| self.reference.remove(i));
        let got = [("heap", self.heap.pop()), ("btree", self.btree.pop())];
        for (name, popped) in got {
            let popped = popped.map(|(t, id, p)| (t.as_secs().to_bits(), id, p));
            // Bit-exact: a queue hands back the time it was given.
            let want = expected.map(|(t, seq)| (t.to_bits(), self.ids[seq as usize], seq));
            assert_eq!(popped, want, "{name} pop");
        }
        expected.map(|(t, _)| t)
    }

    fn peek_time(&mut self) {
        let expected = self.reference_front().map(|i| self.reference[i].0);
        assert_eq!(self.heap.peek_time().map(SimTime::as_secs), expected);
        assert_eq!(self.btree.peek_time().map(SimTime::as_secs), expected);
    }

    fn cancel_nth(&mut self, n: usize) {
        let id = if self.reference.is_empty() {
            // Exercise the dead-handle path instead: cancelling a consumed
            // or already-cancelled id must return false.
            match self.ids.first() {
                Some(&id) => id,
                None => return,
            }
        } else {
            let (_, seq) = self.reference.remove(n % self.reference.len());
            let id = self.ids[seq as usize];
            assert!(self.heap.cancel(id), "heap cancel of live id");
            assert!(self.btree.cancel(id), "btree cancel of live id");
            id
        };
        // A second (or dead-handle) cancel must be a no-op.
        assert!(!self.heap.cancel(id), "heap cancel of dead id");
        assert!(!self.btree.cancel(id), "btree cancel of dead id");
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Schedule(t) => self.schedule(t),
            Op::Pop => {
                self.pop();
            }
            Op::PeekTime => self.peek_time(),
            Op::CancelNth(n) => self.cancel_nth(n),
            Op::PopThenSchedule(delay) => {
                if let Some(t) = self.pop() {
                    self.schedule(t + delay);
                }
            }
        }
        let live = self.reference.len();
        assert_eq!(self.heap.len(), live, "heap live count");
        assert_eq!(self.btree.len(), live, "btree live count");
    }
}

/// Replays ops against both queues and a naive sorted reference,
/// asserting identical observable behaviour, then drains them.
fn check_queues(ops: Vec<Op>) {
    let mut fuzz = Fuzz::new();
    for op in ops {
        fuzz.apply(op);
    }
    while fuzz.pop().is_some() {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn queues_match_reference(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        check_queues(ops);
    }

    #[test]
    fn queues_match_reference_through_cancel_storms(ops in cancel_storm_strategy()) {
        check_queues(ops);
    }

    #[test]
    fn welford_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
        let w: Welford = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((w.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
        prop_assert_eq!(w.count(), xs.len() as u64);
    }

    #[test]
    fn welford_merge_any_split(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..100),
        split in 0usize..100,
    ) {
        let k = split % xs.len();
        let seq: Welford = xs.iter().copied().collect();
        let mut a: Welford = xs[..k].iter().copied().collect();
        let b: Welford = xs[k..].iter().copied().collect();
        a.merge(&b);
        prop_assert!((a.mean() - seq.mean()).abs() < 1e-9 * (1.0 + seq.mean().abs()));
        prop_assert!((a.variance() - seq.variance()).abs() < 1e-7 * (1.0 + seq.variance()));
    }

    /// The simulator conserves work and replicas for arbitrary small
    /// workloads on a failing grid.
    #[test]
    fn simulator_work_conservation(
        seed in 0u64..1000,
        n_bags in 1usize..5,
        tasks_per_bag in 1usize..6,
        work in 100.0f64..20_000.0,
        policy_idx in 0usize..5,
    ) {
        let grid_cfg = GridConfig {
            total_power: 60.0,
            heterogeneity: Heterogeneity::UniformRange { lo: 4.0, hi: 16.0 },
            availability: Availability::MED,
            checkpoint: CheckpointConfig::default(),
            outages: None,
        };
        let mut grid_rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let grid = grid_cfg.build(&mut grid_rng);
        let bags: Vec<BagOfTasks> = (0..n_bags)
            .map(|i| BagOfTasks {
                id: BotId(i as u32),
                arrival: SimTime::new(i as f64 * 500.0),
                tasks: (0..tasks_per_bag)
                    .map(|j| TaskSpec { id: TaskId(j as u32), work })
                    .collect(),
                granularity: work,
            })
            .collect();
        let workload = Workload { bags, lambda: 1.0, label: "prop".into() };
        let policy = PolicyKind::all()[policy_idx];
        let r = simulate(&grid, &workload, policy, &SimConfig::with_seed(seed));
        prop_assert_eq!(r.completed, n_bags, "all bags complete");
        prop_assert!(!r.saturated);
        let total_work = (n_bags * tasks_per_bag) as f64 * work;
        prop_assert!((r.counters.useful_work - total_work).abs() < 1e-6);
        prop_assert_eq!(
            r.counters.replicas_launched,
            (n_bags * tasks_per_bag) as u64
                + r.counters.replicas_killed_failure
                + r.counters.replicas_killed_sibling
        );
        prop_assert!(r.counters.killed_occupancy <= r.counters.busy_time + 1e-9);
        // Turnarounds decompose.
        for b in &r.bags {
            prop_assert!((b.turnaround - (b.waiting + b.makespan)).abs() < 1e-6);
            prop_assert!(b.waiting >= 0.0);
        }
    }
}

/// One move of a replica-count walk over a bag's tasks.
#[derive(Debug, Clone)]
enum CountOp {
    /// One more running replica (a task at count 0 enters).
    Up(usize),
    /// One fewer running replica (a no-op at count 0).
    Down(usize),
    /// Stop every running replica: the task leaves the index.
    Leave(usize),
    /// Climb `depth` replicas, then come back down when `back` is set.
    Excursion(usize, u32, bool),
}

fn count_op_strategy() -> impl Strategy<Value = CountOp> {
    let excursion = |(t, depth, back): (usize, u32, u32)| CountOp::Excursion(t, depth, back == 1);
    prop_oneof![
        (0usize..64).prop_map(CountOp::Up),
        (0usize..64).prop_map(CountOp::Up),
        (0usize..64).prop_map(CountOp::Down),
        (0usize..64).prop_map(CountOp::Down),
        (0usize..64).prop_map(CountOp::Leave),
        (0usize..64, 1_000u32..1_500, 0u32..2).prop_map(excursion),
    ]
}

/// A bag's replica-count index checked against a
/// `BTreeMap<count, BTreeSet<task>>` model after every single count change.
struct CountWalk {
    bag: BagRt,
    counts: Vec<u32>,
    model: BTreeMap<u32, BTreeSet<u32>>,
    now: f64,
}

impl CountWalk {
    fn new(tasks: usize) -> Self {
        let bag = BagOfTasks {
            id: BotId(0),
            arrival: SimTime::ZERO,
            tasks: (0..tasks)
                .map(|i| TaskSpec {
                    id: TaskId(i as u32),
                    work: 1_000.0,
                })
                .collect(),
            granularity: 1_000.0,
        };
        CountWalk {
            bag: BagRt::new(&bag, 0),
            counts: vec![0; tasks],
            model: BTreeMap::new(),
            now: 0.0,
        }
    }

    fn step(&mut self, task: usize, up: bool) {
        let from = self.counts[task];
        let to = if up { from + 1 } else { from - 1 };
        self.now += 1.0;
        let now = SimTime::new(self.now);
        if up {
            self.bag.note_replica_started(TaskId(task as u32), now);
        } else {
            self.bag.note_replica_stopped(TaskId(task as u32), now);
        }
        self.counts[task] = to;
        if from > 0 {
            let bucket = self.model.get_mut(&from).expect("task was modelled");
            bucket.remove(&(task as u32));
            if bucket.is_empty() {
                self.model.remove(&from);
            }
        }
        if to > 0 {
            self.model.entry(to).or_default().insert(task as u32);
        }
        self.check();
    }

    /// `min_task` is the replication candidate under an unlimited
    /// threshold; `min_count` is the threshold at which replication opens.
    fn check(&self) {
        let unlimited = u32::MAX;
        let candidate = self.bag.replication_candidate(unlimited);
        assert_eq!(candidate, self.bag.replication_candidate_scan(unlimited));
        match self.model.iter().next() {
            None => {
                assert_eq!(candidate, None);
                assert!(!self.bag.can_replicate(unlimited));
            }
            Some((&min_count, tasks)) => {
                let min_task = *tasks.iter().next().expect("model holds no empty sets");
                assert_eq!(
                    candidate,
                    Some(TaskId(min_task)),
                    "lowest id at the minimum"
                );
                assert!(!self.bag.can_replicate(min_count), "min_count {min_count}");
                assert!(
                    self.bag.can_replicate(min_count + 1),
                    "min_count {min_count}"
                );
                assert_eq!(self.bag.replication_candidate(min_count), None);
            }
        }
    }

    fn apply(&mut self, op: CountOp) {
        let n = self.counts.len();
        match op {
            CountOp::Up(t) => self.step(t % n, true),
            CountOp::Down(t) => {
                if self.counts[t % n] > 0 {
                    self.step(t % n, false);
                }
            }
            CountOp::Leave(t) => {
                while self.counts[t % n] > 0 {
                    self.step(t % n, false);
                }
            }
            CountOp::Excursion(t, depth, back) => {
                for _ in 0..depth {
                    self.step(t % n, true);
                }
                if back {
                    for _ in 0..depth {
                        self.step(t % n, false);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random walks of replica counts (tasks entering and leaving, ±1
    /// steps, excursions past count 1 000) keep the bucket index's
    /// minimum, its lowest-id tie-break and its scan twin on the model.
    #[test]
    fn replica_count_index_matches_model(
        tasks in 1usize..40,
        ops in proptest::collection::vec(count_op_strategy(), 1..120),
    ) {
        let mut walk = CountWalk::new(tasks);
        for op in ops {
            walk.apply(op);
        }
        for t in 0..tasks {
            walk.apply(CountOp::Leave(t));
        }
        prop_assert!(walk.model.is_empty());
    }
}
