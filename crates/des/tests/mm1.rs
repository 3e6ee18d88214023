//! Kernel validation against queueing theory: an M/M/1 queue built on the
//! engine must reproduce the analytic mean response time
//! `W = 1 / (μ − λ)` and mean queue length `L = ρ / (1 − ρ)`.
//!
//! This exercises the entire kernel stack — engine, event queue,
//! distributions, RNG streams, and the statistics — against closed-form
//! ground truth, independently of the grid domain.

use dgsched_des::dist::DistConfig;
use dgsched_des::engine::{Control, Engine, Handler, RunOutcome, Scheduler};
use dgsched_des::rng::StreamSeeder;
use dgsched_des::stats::{TimeWeighted, Welford};
use dgsched_des::time::SimTime;
use rand::rngs::StdRng;

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival,
    Departure,
}

#[derive(Debug, Clone)]
struct Mm1 {
    arrivals_rng: StdRng,
    service_rng: StdRng,
    interarrival: dgsched_des::dist::Sampler,
    service: dgsched_des::dist::Sampler,
    queue: Vec<SimTime>, // arrival times of waiting + in-service customers
    response: Welford,
    in_system: TimeWeighted,
    served: u64,
    target: u64,
    warmup: u64,
}

impl Mm1 {
    fn new(lambda: f64, mu: f64, target: u64, seed: u64) -> Self {
        let seeder = StreamSeeder::new(seed);
        Mm1 {
            arrivals_rng: seeder.stream("arrivals", 0),
            service_rng: seeder.stream("service", 0),
            interarrival: DistConfig::Exponential { mean: 1.0 / lambda }.sampler(),
            service: DistConfig::Exponential { mean: 1.0 / mu }.sampler(),
            queue: Vec::new(),
            response: Welford::new(),
            in_system: TimeWeighted::new(SimTime::ZERO, 0.0),
            served: 0,
            target,
            warmup: target / 10,
        }
    }
}

impl Handler<Ev> for Mm1 {
    fn handle(&mut self, ev: Ev, sched: &mut Scheduler<'_, Ev>) -> Control {
        let now = sched.now();
        match ev {
            Ev::Arrival => {
                self.queue.push(now);
                self.in_system.set(now, self.queue.len() as f64);
                if self.queue.len() == 1 {
                    let s = self.service.sample(&mut self.service_rng);
                    sched.schedule_in(s, Ev::Departure);
                }
                let gap = self.interarrival.sample(&mut self.arrivals_rng);
                sched.schedule_in(gap, Ev::Arrival);
                Control::Continue
            }
            Ev::Departure => {
                let arrived = self.queue.remove(0);
                self.in_system.set(now, self.queue.len() as f64);
                self.served += 1;
                if self.served > self.warmup {
                    self.response.push(now.since(arrived));
                }
                if !self.queue.is_empty() {
                    let s = self.service.sample(&mut self.service_rng);
                    sched.schedule_in(s, Ev::Departure);
                }
                if self.served >= self.target {
                    Control::Stop
                } else {
                    Control::Continue
                }
            }
        }
    }
}

fn run_mm1(lambda: f64, mu: f64, customers: u64, seed: u64) -> (f64, f64, f64) {
    let mut engine = Engine::new();
    let mut model = Mm1::new(lambda, mu, customers, seed);
    engine.prime(SimTime::ZERO, Ev::Arrival);
    engine.run(&mut model);
    (
        model.response.mean(),
        model.in_system.time_average(engine.now()),
        engine.now().as_secs(),
    )
}

#[test]
fn mm1_mean_response_time_matches_theory() {
    let (lambda, mu) = (0.7, 1.0);
    let expected_w = 1.0 / (mu - lambda); // 3.333…
    let mut err_sum = 0.0;
    let reps = 5;
    for seed in 0..reps {
        let (w, _, _) = run_mm1(lambda, mu, 200_000, seed);
        err_sum += (w - expected_w) / expected_w;
    }
    let bias = err_sum / reps as f64;
    assert!(
        bias.abs() < 0.05,
        "W biased by {:.1}% (expected {expected_w})",
        bias * 100.0
    );
}

#[test]
fn mm1_mean_queue_length_matches_theory() {
    let (lambda, mu) = (0.5, 1.0);
    let rho = lambda / mu;
    let expected_l = rho / (1.0 - rho); // 1.0
    let (_, l, _) = run_mm1(lambda, mu, 300_000, 42);
    assert!(
        (l - expected_l).abs() / expected_l < 0.05,
        "L = {l}, expected {expected_l}"
    );
}

#[test]
fn utilization_approaches_rho() {
    // Little's-law cross-check: λ·W should equal the time-average number in
    // system.
    let (lambda, mu) = (0.6, 1.0);
    let (w, l, _) = run_mm1(lambda, mu, 300_000, 3);
    let little = lambda * w;
    assert!(
        (little - l).abs() / l < 0.06,
        "Little's law: λW={little} vs L={l}"
    );
}

/// Everything observable about a finished run: the engine's clock,
/// counts and pending-event set (heap layout, event ids, the vacant root)
/// and the model's statistics. Without the `timing` feature the engine's
/// `Debug` holds it all; with it, wall-clock spans differ run to run, so
/// only the deterministic parts are compared.
fn observed(engine: &Engine<Ev>, model: &Mm1, outcome: RunOutcome) -> String {
    let kernel = if cfg!(feature = "timing") {
        format!(
            "{:?} {} {:?}",
            engine.now(),
            engine.processed(),
            engine.queue_ops()
        )
    } else {
        format!("{engine:?}")
    };
    format!("{outcome:?} {kernel} {model:?}")
}

#[test]
fn paused_clone_continues_like_the_uninterrupted_run() {
    let fresh = || {
        let mut engine = Engine::new();
        engine.prime(SimTime::ZERO, Ev::Arrival);
        (engine, Mm1::new(0.8, 1.0, 2_000, 11))
    };
    let (mut engine, mut model) = fresh();
    let outcome = engine.run(&mut model);
    let uninterrupted = observed(&engine, &model, outcome);

    for until in [0.0, 1.0, 250.0, 1_000.0] {
        let (mut engine, mut model) = fresh();
        assert_eq!(engine.run_until(&mut model, SimTime::new(until)), None);
        assert!(engine.processed() < 2_000, "paused at t={until}");
        let (mut fork, mut fork_model) = (engine.clone(), model.clone());
        let outcome = engine.run(&mut model);
        assert_eq!(
            observed(&engine, &model, outcome),
            uninterrupted,
            "original, t={until}"
        );
        let outcome = fork.run(&mut fork_model);
        assert_eq!(
            observed(&fork, &fork_model, outcome),
            uninterrupted,
            "clone, t={until}"
        );
    }

    // Past the end of the run, run_until finishes it like run does.
    let (mut engine, mut model) = fresh();
    let outcome = engine.run_until(&mut model, SimTime::FAR_FUTURE);
    assert_eq!(outcome, Some(RunOutcome::Stopped));
    assert_eq!(
        observed(&engine, &model, RunOutcome::Stopped),
        uninterrupted
    );
}
