//! Allocation bound of the replica-churn regime, end to end.
//!
//! FCFS-Excl gives the whole fleet to the running bag under an unlimited
//! replication threshold, so replica counts climb towards
//! machines ÷ running tasks as a bag drains. The per-bag replica-count
//! index must size its storage by the counts in use at a time, not by the
//! deepest count a bag reached: one bag-sized bitset per depth made this
//! replication allocate 23 059 times. A counting global allocator measures
//! the simulation on the test thread only, and the run's result is pinned
//! so the bound is not bought with a different schedule.

use dgsched_core::experiment::{replication_inputs, Scenario, WorkloadKind};
use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::{simulate, SimConfig};
use dgsched_grid::{Availability, CheckpointConfig, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the allocations made on threads that opted in with [`COUNTING`].
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// Statistics only: `Relaxed` publishes nothing else.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it touches only
// atomics and a const-initialised thread-local, and so never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// FNV-1a over the serialised result.
fn fingerprint(json: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[test]
fn fcfs_excl_churn_allocates_by_counts_in_use() {
    let scenario = Scenario {
        name: "alloc-bound".into(),
        grid: GridConfig {
            total_power: 40_000.0,
            heterogeneity: Heterogeneity::HOM,
            availability: Availability::HIGH,
            checkpoint: CheckpointConfig::default(),
            outages: None,
        },
        workload: WorkloadKind::Single(WorkloadSpec {
            bot_type: BotType {
                granularity: 5_000.0,
                app_size: 5_000.0 * 5_000.0,
                jitter: 0.5,
            },
            intensity: Intensity::Low,
            count: 3,
        }),
        policy: PolicyKind::FcfsExcl,
        sim: SimConfig {
            lazy_availability: true,
            ..SimConfig::default()
        },
    };
    let (grid, workload, cfg) = replication_inputs(&scenario, 2008, 0);
    assert_eq!(grid.len(), 4_000);
    assert!(workload.bags.iter().all(|b| b.tasks.len() >= 4_000));

    COUNTING.with(|c| c.set(true));
    let result = simulate(&grid, &workload, PolicyKind::FcfsExcl, &cfg);
    COUNTING.with(|c| c.set(false));
    let (allocs, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let json = serde_json::to_string(&result).expect("result serialises");
    println!(
        "allocations {allocs}, bytes {bytes}, launched {}, fingerprint {:#018x}",
        result.counters.replicas_launched,
        fingerprint(&json)
    );

    // The schedule of the per-depth index, unchanged.
    assert_eq!(result.counters.replicas_launched, 106_689);
    assert_eq!(fingerprint(&json), 0xb03e_37f2_228e_3b16);
    // The per-depth index made 23 059 allocations (12.0 MB) here; sized
    // by the counts in use, the whole run makes about 200.
    assert!(allocs < 1_000, "{allocs} allocations");
}
