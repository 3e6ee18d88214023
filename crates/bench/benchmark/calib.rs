//! Calibration: how fast the host is right now.
//!
//! The host this benchmark was designed on is shared. Neighbours slow it
//! in phases lasting from seconds to minutes, so the two sets of runs a
//! regression gate compares can fall in phases of different speed (raw
//! medians of consecutive sets moved by up to 22 % there). Between rounds
//! of operations the benchmark therefore times a fixed calibration
//! kernel, and reports its end-to-end numbers scaled by the run's median
//! calibration to one reference speed. Set-up samples, which run on one
//! thread, are each scaled by a run of the kernel on that thread: the two
//! virtual CPUs of such a host need not be equally fast.
//!
//! The kernel mimics what the simulator spends its time on — popping a
//! binary heap of timestamped events, chasing pointers and writing state
//! across a working set of about a megabyte — so that it slows in the
//! phases the simulator slows in; it tracks them only in part (README.md,
//! "Measurement noise"). It uses no code of the repository. Its memory is
//! allocated once, at the start of the process before any workload code
//! runs ([`prepare`]), and reused, so a run of it never calls the
//! allocator, and where its memory lies does not depend on how the code
//! under test allocated.

use crate::{timed, WIDTH};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::Instant;

/// Events one kernel run processes: about two milliseconds on the host
/// the baselines were recorded on.
const EVENTS: u64 = 12_000;

/// Slots of the pointer chain: 2^18 × 4 bytes = 1 MiB.
const CHAIN_SLOTS: usize = 1 << 18;

/// Events pending in the kernel's heap at any time.
const PENDING: u64 = 4096;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A single random cycle through all slots (Sattolo's shuffle), built on
/// first use.
fn chain() -> &'static [u32] {
    static CHAIN: OnceLock<Vec<u32>> = OnceLock::new();
    CHAIN.get_or_init(|| {
        let mut next: Vec<u32> = (0..CHAIN_SLOTS as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1d;
        for i in (1..CHAIN_SLOTS).rev() {
            let j = (xorshift(&mut x) % i as u64) as usize;
            next.swap(i, j);
        }
        next
    })
}

/// One thread's working memory for the kernel.
struct Scratch {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    state: Vec<u64>,
    burst: Vec<u64>,
}

/// `WIDTH` scratch slots, allocated on first use; slot `i` serves the
/// `i`-th thread of [`calibrate`], slot 0 also [`kernel_time`].
fn scratch() -> &'static [Mutex<Scratch>] {
    static SCRATCH: OnceLock<Vec<Mutex<Scratch>>> = OnceLock::new();
    SCRATCH.get_or_init(|| {
        (0..WIDTH)
            .map(|_| {
                Mutex::new(Scratch {
                    heap: BinaryHeap::with_capacity(PENDING as usize),
                    state: vec![0; CHAIN_SLOTS / 2],
                    burst: Vec::with_capacity(8),
                })
            })
            .collect()
    })
}

fn kernel(slot: usize) -> u64 {
    let chain = chain();
    let mut guard = scratch()[slot]
        .lock()
        .expect("a calibration thread panicked");
    let Scratch { heap, state, burst } = &mut *guard;
    heap.clear();
    for i in 0..PENDING {
        heap.push(Reverse((i * 7919 % PENDING, i)));
    }
    let (mut x, mut p, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u32, 0u64);
    for _ in 0..EVENTS {
        let Reverse((t, id)) = heap.pop().expect("every pop is followed by a push");
        let r = xorshift(&mut x);
        p = chain[p as usize];
        let slot = (r as usize ^ p as usize) & (state.len() - 1);
        state[slot] = state[slot].wrapping_add(id);
        burst.clear();
        burst.resize((r % 8) as usize + 1, t);
        acc = acc.wrapping_add(burst.iter().sum::<u64>());
        heap.push(Reverse((t + 1 + r % 64, id)));
    }
    acc ^ u64::from(p)
}

/// Allocates the kernel's memory; `main` calls it before any workload
/// code runs.
pub fn prepare() {
    chain();
    scratch();
}

/// Seconds one run of the kernel takes on the calling thread, using
/// scratch slot `slot`.
fn kernel_time_on(slot: usize) -> f64 {
    prepare();
    timed(|| std::hint::black_box(kernel(slot))).0
}

/// Seconds one run of the kernel takes on the calling thread.
pub fn kernel_time() -> f64 {
    kernel_time_on(0)
}

/// The host's speed right now: seconds the kernel takes on `WIDTH`
/// threads started together (the slowest thread's time), best of three.
/// Call it with nothing else of the benchmark running, so it measures the
/// host and not the workload.
pub fn calibrate() -> f64 {
    (0..3)
        .map(|_| {
            let start = Barrier::new(WIDTH);
            std::thread::scope(|s| {
                let threads: Vec<_> = (0..WIDTH)
                    .map(|slot| {
                        let start = &start;
                        s.spawn(move || {
                            start.wait();
                            kernel_time_on(slot)
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("the calibration kernel panicked"))
                    .fold(0.0, f64::max)
            })
        })
        .fold(f64::INFINITY, f64::min)
}

/// The kernel's time at the reference speed every end-to-end number is
/// scaled to: about what it takes on the host the baselines were recorded
/// on, in a quiet phase.
pub const REFERENCE_S: f64 = 0.002;

/// The measured window of a run: each operation's latency, and the
/// calibrations taken between rounds of operations, in seconds.
#[derive(Default)]
pub struct Window {
    pub latencies: Vec<f64>,
    pub calibrations: Vec<f64>,
}

/// Calibrations per second of measured operations.
const CALIBRATIONS_PER_S: f64 = 10.0;

/// Runs rounds until `seconds` have passed and at least `min_ops`
/// operations were timed; `round` runs some operations and returns their
/// latencies. The host is calibrated before the first round, and after
/// every round once per 100 ms the round took (at least once), with none
/// of the round's operations running: a long sweep pass and a short round
/// of requests get the same density of calibrations.
pub fn calibrated_rounds(
    seconds: f64,
    min_ops: usize,
    mut round: impl FnMut() -> Vec<f64>,
) -> Window {
    let start = Instant::now();
    let mut w = Window {
        calibrations: vec![calibrate()],
        ..Window::default()
    };
    while w.latencies.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let (dt, latencies) = timed(&mut round);
        w.latencies.extend(latencies);
        let n = (dt * CALIBRATIONS_PER_S).round().max(1.0) as usize;
        w.calibrations.extend((0..n).map(|_| calibrate()));
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_is_one_cycle_through_every_slot() {
        let chain = chain();
        let (mut p, mut steps) = (0u32, 0usize);
        loop {
            p = chain[p as usize];
            steps += 1;
            if p == 0 {
                break;
            }
        }
        assert_eq!(steps, CHAIN_SLOTS);
    }

    #[test]
    fn the_kernel_is_deterministic_and_calibration_positive() {
        assert_eq!(kernel(0), kernel(0));
        assert_eq!(kernel(0), kernel(WIDTH - 1));
        assert!(calibrate() > 0.0);
    }
}
