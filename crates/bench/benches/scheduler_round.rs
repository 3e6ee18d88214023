//! P3: scheduling-round cost — what the incremental indices buy.
//!
//! Two axes, matching the hot-path complexity claims in `sim`'s module
//! doc: selection cost versus the number of active bags (policy `select`
//! over a hand-built `View`), and end-to-end event throughput versus the
//! number of machines (mostly idle, so a naive scheduler would pay a
//! per-round scan of the whole fleet).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgsched_core::policy::{PolicyKind, View};
use dgsched_core::sim::{simulate, SimConfig};
use dgsched_core::state::BagRt;
use dgsched_des::time::SimTime;
use dgsched_grid::{Availability, CheckpointConfig, GridConfig, Heterogeneity};
use dgsched_workload::{BagOfTasks, BotId, BotType, Intensity, TaskId, TaskSpec, WorkloadSpec};
use rand::SeedableRng;
use std::hint::black_box;

/// Builds `n` bags in mixed states: every bag has tasks running, a third
/// still have pending work, and the rest are in the replication regime —
/// the states `select` has to distinguish.
fn build_bags(n: usize) -> (Vec<BotId>, Vec<BagRt>) {
    let now = SimTime::new(0.0);
    let mut bags = Vec::with_capacity(n);
    let mut active = Vec::with_capacity(n);
    for i in 0..n {
        let tasks: Vec<TaskSpec> = (0..8)
            .map(|t| TaskSpec {
                id: TaskId(t),
                work: 10_000.0 + (t as f64) * 500.0,
            })
            .collect();
        let bag = BagOfTasks {
            id: BotId(i as u32),
            arrival: SimTime::new(i as f64),
            tasks,
            granularity: 10_000.0,
        };
        let mut rt = BagRt::new(&bag, i * 8);
        let started = if i % 3 == 0 { 4 } else { 8 };
        for _ in 0..started {
            let t = rt.pop_pending().expect("fresh bag has pending tasks");
            rt.note_replica_started(t, now);
        }
        active.push(bag.id);
        bags.push(rt);
    }
    (active, bags)
}

fn bench_select_bags(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_bags");
    for &n in &[10usize, 100, 1000] {
        let (active, bags) = build_bags(n);
        for kind in [PolicyKind::Rr, PolicyKind::LongIdle, PolicyKind::Sbf] {
            let mut policy = kind.create_seeded(7);
            group.bench_with_input(BenchmarkId::new(kind.paper_name(), n), &n, |b, _| {
                b.iter(|| {
                    let view = View::new(SimTime::new(5_000.0), &active, &bags, 2);
                    black_box(policy.select(black_box(&view)))
                })
            });
        }
    }
    group.finish();
}

fn bench_idle_machines(c: &mut Criterion) {
    // A fixed small workload on ever-larger grids: beyond ~100 machines
    // the fleet is mostly idle, so per-event cost must stay flat if the
    // scheduling round is not scanning free machines.
    let mut group = c.benchmark_group("idle_machines");
    group.sample_size(10);
    for &machines in &[100usize, 1_000, 4_000] {
        let grid_cfg = GridConfig {
            total_power: 10.0 * machines as f64,
            heterogeneity: Heterogeneity::HOM,
            availability: Availability::HIGH,
            checkpoint: CheckpointConfig::default(),
            outages: None,
        };
        let grid = grid_cfg.build(&mut rand::rngs::StdRng::seed_from_u64(1));
        let workload = WorkloadSpec {
            bot_type: BotType {
                granularity: 5_000.0,
                app_size: 200_000.0,
                jitter: 0.5,
            },
            intensity: Intensity::Low,
            count: 10,
        }
        .generate(&grid_cfg, &mut rand::rngs::StdRng::seed_from_u64(2));
        group.bench_with_input(BenchmarkId::from_parameter(machines), &machines, |b, _| {
            b.iter(|| {
                let r = simulate(
                    black_box(&grid),
                    black_box(&workload),
                    PolicyKind::LongIdle,
                    &SimConfig::with_seed(7),
                );
                assert!(!r.saturated);
                black_box(r.events)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_select_bags, bench_idle_machines);
criterion_main!(benches);
