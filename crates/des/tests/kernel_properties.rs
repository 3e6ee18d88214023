//! Property tests of the DES kernel: distributions honour their supports
//! and moments, the gamma implementation matches identities, the stream
//! seeder never collides on realistic inputs, and the engine preserves
//! causality for random event programs.

use dgsched_des::dist::{gamma, ln_gamma, weibull_scale_for_mean, DistConfig};
use dgsched_des::engine::{Control, Engine, Handler, Scheduler};
use dgsched_des::rng::StreamSeeder;
use dgsched_des::stats::Welford;
use dgsched_des::time::SimTime;
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gamma_recurrence_holds(x in 0.5f64..20.0) {
        // Γ(x+1) = x·Γ(x)
        let lhs = gamma(x + 1.0);
        let rhs = x * gamma(x);
        prop_assert!((lhs - rhs).abs() <= 1e-8 * rhs.abs().max(1.0));
    }

    #[test]
    fn ln_gamma_is_log_of_gamma(x in 0.1f64..30.0) {
        prop_assert!((ln_gamma(x) - gamma(x).ln()).abs() < 1e-8);
    }

    #[test]
    fn weibull_scale_inverts_mean(shape in 0.2f64..8.0, mean in 1.0f64..1e6) {
        let scale = weibull_scale_for_mean(shape, mean);
        let cfg = DistConfig::Weibull { shape, scale };
        prop_assert!((cfg.mean() - mean).abs() / mean < 1e-9);
    }

    #[test]
    fn samplers_respect_support(
        seed in 0u64..1000,
        lo in 0.0f64..100.0,
        width in 0.1f64..100.0,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let uniform = DistConfig::Uniform { lo, hi: lo + width }.sampler();
        for _ in 0..100 {
            let x = uniform.sample(&mut rng);
            prop_assert!(x >= lo && x < lo + width);
        }
        let exp = DistConfig::Exponential { mean: 5.0 }.sampler();
        for _ in 0..100 {
            prop_assert!(exp.sample(&mut rng) >= 0.0);
        }
        let weib = DistConfig::Weibull { shape: 0.7, scale: 10.0 }.sampler();
        for _ in 0..100 {
            prop_assert!(weib.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn stream_seeds_do_not_collide(master in 0u64..u64::MAX, n in 2u64..64) {
        let s = StreamSeeder::new(master);
        let mut seen = std::collections::HashSet::new();
        for label in ["a", "b", "machine-avail", "workload"] {
            for i in 0..n {
                prop_assert!(
                    seen.insert(s.stream_seed(label, i)),
                    "collision at {label}/{i}"
                );
            }
        }
    }

    #[test]
    fn welford_min_max_bound_mean(xs in proptest::collection::vec(-1e5f64..1e5, 1..100)) {
        let w: Welford = xs.iter().copied().collect();
        prop_assert!(w.min() <= w.mean() + 1e-9);
        prop_assert!(w.mean() <= w.max() + 1e-9);
    }
}

/// A random event program: each event may schedule up to two follow-ups at
/// random non-negative offsets. The engine must deliver every event at a
/// time ≥ its predecessor's.
#[derive(Debug, Clone)]
struct Program {
    offsets: Vec<(f64, f64)>,
    fanout_until: usize,
}

struct CausalityCheck {
    program: Program,
    handled: usize,
    last_time: SimTime,
    monotone: bool,
}

impl Handler<usize> for CausalityCheck {
    fn handle(&mut self, depth: usize, sched: &mut Scheduler<'_, usize>) -> Control {
        if sched.now() < self.last_time {
            self.monotone = false;
        }
        self.last_time = sched.now();
        self.handled += 1;
        if depth < self.program.fanout_until {
            let (a, b) = self.program.offsets[depth % self.program.offsets.len()];
            sched.schedule_in(a, depth + 1);
            sched.schedule_in(b, depth + 1);
        }
        Control::Continue
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn engine_delivers_monotone_time(
        offsets in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..8),
        fanout_until in 1usize..8,
    ) {
        let program = Program { offsets, fanout_until };
        let mut engine = Engine::new();
        engine.prime(SimTime::ZERO, 0usize);
        let mut check = CausalityCheck {
            program,
            handled: 0,
            last_time: SimTime::ZERO,
            monotone: true,
        };
        engine.run(&mut check);
        prop_assert!(check.monotone, "time went backwards");
        // Binary fan-out until depth d: 2^(d+1) − 1 events.
        prop_assert_eq!(check.handled as u64, (1u64 << (fanout_until + 1)) - 1);
        prop_assert_eq!(engine.processed(), check.handled as u64);
    }
}
