//! Machine availability: the alternating up/down renewal process.
//!
//! §4.1 of the paper: machines fail and are repaired; *availability* is the
//! long-run fraction of time a machine is up, `MTBF / (MTBF + MTTR)`.
//! Fault (up) durations follow a Weibull distribution (Nurmi, Brevik &
//! Wolski, the paper's ref \[12\]); repair (down) durations are Normal with
//! mean 1800 s and sd 300 s. Three levels are studied: ≈98 % (High),
//! 75 % (Med) and 50 % (Low), obtained by tuning the fault-time mean.

use dgsched_des::dist::{DistConfig, Sampler};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Default Weibull shape for machine up-times. Nurmi et al. fit machine
/// availability with shape < 1 (heavy tail, bursty failures); 0.7 is a
/// representative value from their enterprise traces.
pub const DEFAULT_WEIBULL_SHAPE: f64 = 0.7;

/// Default repair-time distribution: Normal(1800, 300) truncated positive;
/// 99 % of the mass falls in [900, 2700] as the paper notes.
pub const DEFAULT_REPAIR: DistConfig = DistConfig::NormalTrunc {
    mean: 1800.0,
    sd: 300.0,
};

/// An availability preset or a custom up/down process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Availability {
    /// Machines never fail (useful for isolating scheduling effects).
    Always,
    /// Target long-run availability with the default Weibull/Normal shapes.
    Level {
        /// Desired long-run availability in (0, 1).
        availability: f64,
    },
    /// Fully custom up/down distributions.
    Custom {
        /// Distribution of up (time-to-failure) durations.
        up: DistConfig,
        /// Distribution of down (repair) durations.
        down: DistConfig,
    },
}

impl Availability {
    /// The paper's `HighAvail` level (≈ 98 %).
    pub const HIGH: Availability = Availability::Level { availability: 0.98 };
    /// The paper's `MedAvail` level (75 %).
    pub const MED: Availability = Availability::Level { availability: 0.75 };
    /// The paper's `LowAvail` level (50 %).
    pub const LOW: Availability = Availability::Level { availability: 0.50 };

    /// The up/down distributions realising this preset.
    ///
    /// For [`Availability::Level`], MTTR is fixed at the default repair mean
    /// and MTBF is solved from `a = MTBF / (MTBF + MTTR)`; the Weibull scale
    /// is then matched to that MTBF at the default shape.
    pub fn processes(&self) -> Option<(DistConfig, DistConfig)> {
        match *self {
            Availability::Always => None,
            Availability::Level { availability } => {
                assert!(
                    (0.0..1.0).contains(&availability) && availability > 0.0,
                    "availability must be in (0,1), got {availability}"
                );
                let mttr = DEFAULT_REPAIR.mean();
                let mtbf = availability * mttr / (1.0 - availability);
                Some((
                    DistConfig::weibull_with_mean(DEFAULT_WEIBULL_SHAPE, mtbf),
                    DEFAULT_REPAIR,
                ))
            }
            Availability::Custom { up, down } => Some((up, down)),
        }
    }

    /// Long-run availability implied by the configuration.
    pub fn long_run_availability(&self) -> f64 {
        match self.processes() {
            None => 1.0,
            Some((up, down)) => {
                let mtbf = up.mean();
                let mttr = down.mean();
                mtbf / (mtbf + mttr)
            }
        }
    }

    /// Mean time between failures (∞ for `Always`).
    pub fn mtbf(&self) -> f64 {
        match self.processes() {
            None => f64::INFINITY,
            Some((up, _)) => up.mean(),
        }
    }

    /// Compiles per-machine samplers (call once per machine with its own
    /// RNG stream). Returns `None` when machines never fail.
    pub fn sampler(&self) -> Option<UpDownSampler> {
        self.processes().map(|(up, down)| UpDownSampler {
            up: up.sampler(),
            down: down.sampler(),
        })
    }
}

/// Compiled samplers for one machine's alternating renewal process.
#[derive(Debug, Clone, Copy)]
pub struct UpDownSampler {
    up: Sampler,
    down: Sampler,
}

impl UpDownSampler {
    /// Draws the next up (working) duration.
    pub fn next_up<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.up.sample(rng)
    }

    /// Draws the next down (repair) duration.
    pub fn next_down<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.down.sample(rng)
    }

    /// Advances one machine's renewal state to time `t`, consuming up/down
    /// draws until the current window covers `t`. On entry `up` and
    /// `cycle_end` describe the machine's current window (up-ness and the
    /// absolute time it ends); on exit they describe the window containing
    /// `t`. Returns the number of failures (up→down transitions) consumed.
    ///
    /// Because each machine owns a private RNG stream and windows are
    /// drawn strictly in cycle order, reconstructing state on demand here
    /// yields exactly the trajectory an eagerly-evented machine walks —
    /// the basis of the simulator's lazy-availability mode.
    pub fn fast_forward<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        up: &mut bool,
        cycle_end: &mut f64,
        t: f64,
    ) -> u64 {
        let mut failures = 0;
        while *cycle_end <= t {
            if *up {
                *cycle_end += self.next_down(rng);
                *up = false;
                failures += 1;
            } else {
                *cycle_end += self.next_up(rng);
                *up = true;
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Walks the renewal process for `horizon` seconds and returns the
    /// fraction of time spent up.
    fn empirical_availability<R: Rng + ?Sized>(
        s: &UpDownSampler,
        horizon: f64,
        rng: &mut R,
    ) -> f64 {
        let mut t = 0.0;
        let mut up_time = 0.0;
        while t < horizon {
            let up = s.next_up(rng).min(horizon - t);
            up_time += up;
            t += up;
            if t >= horizon {
                break;
            }
            t += s.next_down(rng);
        }
        up_time / horizon
    }

    #[test]
    fn preset_long_run_values() {
        assert!((Availability::HIGH.long_run_availability() - 0.98).abs() < 1e-12);
        assert!((Availability::MED.long_run_availability() - 0.75).abs() < 1e-12);
        assert!((Availability::LOW.long_run_availability() - 0.50).abs() < 1e-12);
        assert_eq!(Availability::Always.long_run_availability(), 1.0);
    }

    #[test]
    fn mtbf_solved_from_target() {
        // a = 0.98, MTTR = 1800 ⇒ MTBF = 0.98·1800/0.02 = 88 200.
        assert!((Availability::HIGH.mtbf() - 88_200.0).abs() < 1e-6);
        assert!((Availability::MED.mtbf() - 5_400.0).abs() < 1e-9);
        assert!((Availability::LOW.mtbf() - 1_800.0).abs() < 1e-9);
        assert_eq!(Availability::Always.mtbf(), f64::INFINITY);
    }

    #[test]
    fn empirical_availability_matches_target() {
        for (level, target) in [
            (Availability::HIGH, 0.98),
            (Availability::MED, 0.75),
            (Availability::LOW, 0.50),
        ] {
            let s = level.sampler().unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            // Long horizon: renewal-reward converges slowly for shape 0.7.
            let a = empirical_availability(&s, 3e8, &mut rng);
            assert!((a - target).abs() < 0.02, "target {target}: empirical {a}");
        }
    }

    #[test]
    fn fast_forward_matches_eager_replay() {
        let s = Availability::LOW.sampler().unwrap();
        // Eager walk: materialise every window boundary from one stream.
        let mut eager = rand::rngs::StdRng::seed_from_u64(99);
        let mut boundaries = Vec::new(); // (window_end, up_during_window)
        let mut t = s.next_up(&mut eager);
        let mut up = true;
        while t < 50_000.0 {
            boundaries.push((t, up));
            t += if up {
                s.next_down(&mut eager)
            } else {
                s.next_up(&mut eager)
            };
            up = !up;
        }
        boundaries.push((t, up));
        // Lazy walk from an identically seeded stream, probed at a few
        // points, must land in the same windows with the same fail counts.
        let mut lazy = rand::rngs::StdRng::seed_from_u64(99);
        let mut lup = true;
        let mut lend = s.next_up(&mut lazy);
        let mut total_fails = 0;
        for probe in [1_000.0, 12_000.0, 12_000.0, 33_333.3, 49_999.0] {
            total_fails += s.fast_forward(&mut lazy, &mut lup, &mut lend, probe);
            let (end, wup) = *boundaries
                .iter()
                .find(|&&(end, _)| end > probe)
                .expect("probe within horizon");
            assert_eq!(lend, end, "window end diverged at probe {probe}");
            assert_eq!(lup, wup, "up-ness diverged at probe {probe}");
        }
        let expected: u64 = boundaries
            .iter()
            .filter(|&&(end, up)| end <= 49_999.0 && up)
            .count() as u64;
        assert_eq!(total_fails, expected, "failure count diverged");
    }

    #[test]
    fn always_has_no_sampler() {
        assert!(Availability::Always.sampler().is_none());
        assert!(Availability::Always.processes().is_none());
    }

    #[test]
    fn custom_processes_pass_through() {
        let up = DistConfig::Exponential { mean: 100.0 };
        let down = DistConfig::Constant { value: 25.0 };
        let a = Availability::Custom { up, down };
        assert!((a.long_run_availability() - 0.8).abs() < 1e-12);
        assert_eq!(a.mtbf(), 100.0);
    }

    #[test]
    fn serde_round_trip() {
        let a = Availability::MED;
        let json = serde_json::to_string(&a).unwrap();
        let back: Availability = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
