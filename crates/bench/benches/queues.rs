//! P1: pending-event-set micro-benchmarks of the engine's 4-ary heap.
//!
//! The classic "hold" pattern (pop one, schedule one at a random offset)
//! models a steady-state simulator; pure fill/drain models workload priming;
//! the cancel-heavy mix models replica kills.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dgsched_des::queue::{BinaryHeapQueue, PendingEvents};
use dgsched_des::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn hold(queue: &mut BinaryHeapQueue<u64>, rng: &mut StdRng, ops: usize) {
    let mut max_t: f64 = 0.0;
    for _ in 0..ops {
        let (t, _, _) = queue.pop().expect("queue never empties in hold");
        let nt = t.as_secs() + rng.gen_range(0.5..1.5);
        max_t = max_t.max(nt);
        queue.schedule(SimTime::new(nt), black_box(1));
    }
}

fn bench_hold(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_hold");
    for &size in &[64usize, 1024, 16384] {
        group.throughput(Throughput::Elements(10_000));
        group.bench_with_input(BenchmarkId::new("binary_heap", size), &size, |b, &n| {
            b.iter_batched(
                || {
                    let mut q = BinaryHeapQueue::new();
                    let mut rng = StdRng::seed_from_u64(1);
                    for _ in 0..n {
                        q.schedule(SimTime::new(rng.gen_range(0.0..100.0)), 1u64);
                    }
                    (q, StdRng::seed_from_u64(2))
                },
                |(mut q, mut rng)| hold(&mut q, &mut rng, 10_000),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_fill_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_fill_drain");
    let n = 10_000usize;
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("binary_heap", |b| {
        b.iter(|| {
            let mut q = BinaryHeapQueue::new();
            let mut rng = StdRng::seed_from_u64(3);
            for i in 0..n {
                q.schedule(SimTime::new(rng.gen_range(0.0..1e6)), i as u64);
            }
            while let Some(x) = q.pop() {
                black_box(x);
            }
        })
    });
    group.finish();
}

fn bench_cancellation(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_cancel_heavy");
    // Replica kills cancel ~half of scheduled events in failure-heavy runs.
    let n = 10_000usize;
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("binary_heap", |b| {
        b.iter(|| {
            let mut q = BinaryHeapQueue::new();
            let mut rng = StdRng::seed_from_u64(4);
            let ids: Vec<_> = (0..n)
                .map(|i| q.schedule(SimTime::new(rng.gen_range(0.0..1e4)), i as u64))
                .collect();
            for id in ids.iter().step_by(2) {
                q.cancel(*id);
            }
            while let Some(x) = q.pop() {
                black_box(x);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hold, bench_fill_drain, bench_cancellation);
criterion_main!(benches);
