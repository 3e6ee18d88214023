//! Arrival-rate derivation and the arrival processes.
//!
//! §4.2 of the paper: arrivals are Poisson with rate λ chosen so that the
//! grid operates at a target utilization `U`. With `D` the computing demand
//! of one bag (its total work divided by the effective power of the grid),
//! the operational law `U = λ·D` gives `λ = U / D`. `D` accounts for the
//! availability of resources and the cost/frequency of checkpoints.

use dgsched_grid::config::GridConfig;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The three workload intensities evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Intensity {
    /// U = 50 %.
    Low,
    /// U = 75 %.
    Medium,
    /// U = 90 %.
    High,
}

impl Intensity {
    /// The target utilization for this intensity.
    pub fn utilization(self) -> f64 {
        match self {
            Intensity::Low => 0.50,
            Intensity::Medium => 0.75,
            Intensity::High => 0.90,
        }
    }
}

impl std::fmt::Display for Intensity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Intensity::Low => "low",
            Intensity::Medium => "medium",
            Intensity::High => "high",
        };
        f.write_str(s)
    }
}

/// Computing demand `D` of one bag on the given grid: the grid-time one bag
/// occupies, i.e. total work over the grid's effective delivered power
/// (§4.2: nominal power scaled by availability and checkpoint overhead).
pub fn bag_demand(app_size: f64, grid: &GridConfig) -> f64 {
    assert!(app_size > 0.0, "application size must be positive");
    app_size / grid.effective_power()
}

/// Arrival rate λ = U / D for a target utilization.
pub fn lambda_for(intensity: Intensity, app_size: f64, grid: &GridConfig) -> f64 {
    intensity.utilization() / bag_demand(app_size, grid)
}

/// Inter-arrival models for the submission stream.
///
/// The paper uses Poisson arrivals; real desktop-grid submission logs are
/// burstier (users submit campaigns) and diurnal (humans sleep). All
/// models keep the same long-run mean rate λ, so the `λ = U / D`
/// utilization derivation is unchanged — only the *shape* of the stream
/// varies:
///
/// * [`Poisson`](ArrivalModel::Poisson) — the paper's renewal process;
/// * [`Hyperexponential`](ArrivalModel::Hyperexponential) — renewal gaps
///   with an inflated coefficient of variation;
/// * [`Diurnal`](ArrivalModel::Diurnal) — non-homogeneous Poisson with a
///   sinusoidal day/night rate cycle (sampled by thinning);
/// * [`Mmpp`](ArrivalModel::Mmpp) — a 2-state Markov-modulated Poisson
///   process: sustained bursts at an elevated rate separated by calm
///   stretches.
///
/// The last two are *time-varying*: a well-defined gap sequence needs the
/// absolute clock (and, for MMPP, the phase), so sequences must be drawn
/// through [`ArrivalModel::sampler`] / [`ArrivalModel::arrival_times`].
/// [`ArrivalModel::next_gap`] remains the stateless entry for the renewal
/// models; for the time-varying ones it returns the *first* gap of a
/// fresh process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ArrivalModel {
    /// Exponential gaps (CV = 1) — the paper's model.
    Poisson,
    /// Balanced-means two-phase hyperexponential with the given
    /// coefficient of variation (≥ 1): bursts of close arrivals separated
    /// by long gaps, same mean rate. `cv = 1` is the Poisson degenerate
    /// case (both phases collapse to rate λ).
    Hyperexponential {
        /// Target coefficient of variation of the gaps (must be ≥ 1).
        cv: f64,
    },
    /// Non-homogeneous Poisson with rate
    /// `λ(t) = λ·(1 + amplitude·sin(2πt/period))`: a sinusoidal diurnal
    /// cycle whose average over one period is exactly λ.
    Diurnal {
        /// Cycle length in seconds (e.g. 86 400 for a day).
        period: f64,
        /// Relative swing of the rate, in `[0, 1]` (1 ⇒ the trough rate
        /// touches zero).
        amplitude: f64,
    },
    /// 2-state Markov-modulated Poisson process: a *burst* state with
    /// rate `burst_ratio`× the calm state's, occupied `burst_frac` of the
    /// time, with exponentially distributed sojourns. Rates are
    /// normalised so the long-run mean rate is λ.
    Mmpp {
        /// Ratio of burst rate to calm rate (≥ 1).
        burst_ratio: f64,
        /// Long-run fraction of time spent in the burst state (in (0, 1)).
        burst_frac: f64,
        /// Mean burst sojourn, in units of the mean inter-arrival time
        /// `1/λ` (> 0) — scale-free, so one spec fits any rate.
        burst_len: f64,
    },
}

/// One exponential draw of the given rate.
fn exp_gap<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() / rate
}

impl ArrivalModel {
    /// Checks parameters for NaN/∞ and out-of-range values; call on any
    /// model read from JSON before sampling.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ArrivalModel::Poisson => Ok(()),
            ArrivalModel::Hyperexponential { cv } => {
                if !(cv.is_finite() && cv >= 1.0) {
                    return Err(format!(
                        "hyperexponential cv must be finite and >= 1, got {cv}"
                    ));
                }
                Ok(())
            }
            ArrivalModel::Diurnal { period, amplitude } => {
                if !(period.is_finite() && period > 0.0) {
                    return Err(format!(
                        "diurnal period must be finite and > 0, got {period}"
                    ));
                }
                if !(amplitude.is_finite() && (0.0..=1.0).contains(&amplitude)) {
                    return Err(format!(
                        "diurnal amplitude must be in [0, 1], got {amplitude}"
                    ));
                }
                Ok(())
            }
            ArrivalModel::Mmpp {
                burst_ratio,
                burst_frac,
                burst_len,
            } => {
                if !(burst_ratio.is_finite() && burst_ratio >= 1.0) {
                    return Err(format!(
                        "mmpp burst_ratio must be finite and >= 1, got {burst_ratio}"
                    ));
                }
                if !(burst_frac.is_finite() && burst_frac > 0.0 && burst_frac < 1.0) {
                    return Err(format!(
                        "mmpp burst_frac must be in (0, 1), got {burst_frac}"
                    ));
                }
                if !(burst_len.is_finite() && burst_len > 0.0) {
                    return Err(format!(
                        "mmpp burst_len must be finite and > 0, got {burst_len}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// Draws one inter-arrival gap for rate `lambda`.
    ///
    /// For the renewal models (Poisson, hyperexponential) every gap is
    /// identically distributed and this is the whole process. For the
    /// time-varying models this is the *first* gap of a fresh process
    /// (clock at 0, MMPP phase drawn from its stationary law); sequences
    /// must come from [`ArrivalModel::sampler`].
    pub fn next_gap<R: Rng + ?Sized>(&self, lambda: f64, rng: &mut R) -> f64 {
        match *self {
            ArrivalModel::Poisson => exp_gap(lambda, rng),
            ArrivalModel::Hyperexponential { cv } => {
                assert!(cv >= 1.0, "hyperexponential needs CV >= 1, got {cv}");
                // Balanced-means H2: choose phase with prob p, rates 2pλ
                // and 2(1−p)λ; squared CV = 2/(4p(1−p)) − 1. At cv = 1,
                // p = 1/2 and both phases are exactly rate λ (Poisson).
                let c2 = cv * cv;
                let p = 0.5 * (1.0 + ((c2 - 1.0) / (c2 + 1.0)).sqrt());
                if rng.gen::<f64>() < p {
                    exp_gap(2.0 * p * lambda, rng)
                } else {
                    exp_gap(2.0 * (1.0 - p) * lambda, rng)
                }
            }
            ArrivalModel::Diurnal { .. } | ArrivalModel::Mmpp { .. } => {
                let mut fresh = self.sampler(lambda, rng);
                fresh.next_arrival(rng)
            }
        }
    }

    /// Creates the stateful gap sampler for this model at rate `lambda`.
    /// The RNG initialises the MMPP phase from its stationary law; the
    /// renewal and diurnal models draw nothing here.
    pub fn sampler<R: Rng + ?Sized>(&self, lambda: f64, rng: &mut R) -> ArrivalSampler {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "arrival rate must be positive and finite, got {lambda}"
        );
        self.validate().expect("invalid arrival model");
        let mmpp_burst = match *self {
            ArrivalModel::Mmpp { burst_frac, .. } => rng.gen::<f64>() < burst_frac,
            _ => false,
        };
        ArrivalSampler {
            model: *self,
            lambda,
            t: 0.0,
            mmpp_burst,
        }
    }

    /// Generates the first `n` arrival instants at rate `lambda`.
    pub fn arrival_times<R: Rng + ?Sized>(&self, lambda: f64, n: usize, rng: &mut R) -> Vec<f64> {
        let mut sampler = self.sampler(lambda, rng);
        (0..n).map(|_| sampler.next_arrival(rng)).collect()
    }
}

/// The stateful arrival-instant generator behind [`ArrivalModel`]: carries
/// the absolute clock (diurnal thinning) and the current MMPP phase.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalSampler {
    model: ArrivalModel,
    lambda: f64,
    /// Absolute time of the last arrival produced.
    t: f64,
    /// Current MMPP phase (true = burst); unused by other models.
    mmpp_burst: bool,
}

impl ArrivalSampler {
    /// Draws the next arrival instant (strictly increasing).
    pub fn next_arrival<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let lambda = self.lambda;
        match self.model {
            ArrivalModel::Poisson | ArrivalModel::Hyperexponential { .. } => {
                self.t += self.model.next_gap(lambda, rng);
            }
            ArrivalModel::Diurnal { period, amplitude } => {
                // Thinning (Lewis–Shedler): candidates at the peak rate,
                // accepted with probability λ(t)/λmax.
                let peak = lambda * (1.0 + amplitude);
                loop {
                    self.t += exp_gap(peak, rng);
                    let phase = 2.0 * std::f64::consts::PI * (self.t / period);
                    let rate = lambda * (1.0 + amplitude * phase.sin());
                    if rng.gen::<f64>() * peak < rate {
                        break;
                    }
                }
            }
            ArrivalModel::Mmpp {
                burst_ratio,
                burst_frac,
                burst_len,
            } => {
                // Rates normalised to mean λ: π·λb + (1−π)·λc = λ.
                let calm = lambda / (burst_frac * burst_ratio + (1.0 - burst_frac));
                let burst = burst_ratio * calm;
                // Mean sojourns: burst_len/λ in burst, scaled to hit the
                // stationary occupancy π = burst_frac.
                let sojourn_burst = burst_len / lambda;
                let sojourn_calm = sojourn_burst * (1.0 - burst_frac) / burst_frac;
                // Competing exponentials: arrival vs phase switch.
                loop {
                    let (rate, sojourn) = if self.mmpp_burst {
                        (burst, sojourn_burst)
                    } else {
                        (calm, sojourn_calm)
                    };
                    let to_arrival = exp_gap(rate, rng);
                    let to_switch = exp_gap(1.0 / sojourn, rng);
                    if to_arrival <= to_switch {
                        self.t += to_arrival;
                        break;
                    }
                    self.t += to_switch;
                    self.mmpp_burst = !self.mmpp_burst;
                }
            }
        }
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsched_grid::availability::Availability;
    use dgsched_grid::power::Heterogeneity;
    use rand::SeedableRng;

    #[test]
    fn intensity_levels() {
        assert_eq!(Intensity::Low.utilization(), 0.50);
        assert_eq!(Intensity::Medium.utilization(), 0.75);
        assert_eq!(Intensity::High.utilization(), 0.90);
        assert_eq!(Intensity::High.to_string(), "high");
    }

    #[test]
    fn demand_scales_with_availability() {
        let high = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
        let low = GridConfig::paper(Heterogeneity::HOM, Availability::LOW);
        let d_high = bag_demand(2.5e6, &high);
        let d_low = bag_demand(2.5e6, &low);
        assert!(d_low > d_high, "lower availability ⇒ larger demand");
        // d_high ≈ 2.5e6 / 931.4 ≈ 2684 s
        assert!((d_high - 2684.0).abs() < 10.0, "d_high={d_high}");
    }

    #[test]
    fn lambda_is_utilization_over_demand() {
        let grid = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
        let d = bag_demand(2.5e6, &grid);
        let l = lambda_for(Intensity::High, 2.5e6, &grid);
        assert!((l - 0.9 / d).abs() < 1e-15);
    }

    #[test]
    fn empirical_rate_matches_lambda() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let times = ArrivalModel::Poisson.arrival_times(0.01, 20_000, &mut rng);
        assert_eq!(times.len(), 20_000);
        assert!(
            times.windows(2).all(|w| w[1] > w[0]),
            "arrivals must be monotone"
        );
        let rate = times.len() as f64 / times.last().unwrap();
        assert!((rate - 0.01).abs() / 0.01 < 0.03, "rate={rate}");
    }

    #[test]
    fn hyperexponential_preserves_rate_and_inflates_cv() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for &cv in &[1.5, 3.0, 5.0] {
            let model = ArrivalModel::Hyperexponential { cv };
            let gaps: Vec<f64> = (0..100_000)
                .map(|_| model.next_gap(0.01, &mut rng))
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            assert!(
                (mean - 100.0).abs() / 100.0 < 0.05,
                "cv={cv}: mean gap {mean}"
            );
            let var =
                gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / (gaps.len() - 1) as f64;
            let emp_cv = var.sqrt() / mean;
            assert!(
                (emp_cv - cv).abs() / cv < 0.1,
                "cv={cv}: empirical {emp_cv}"
            );
        }
    }

    #[test]
    fn arrival_times_monotone_for_both_models() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for model in [
            ArrivalModel::Poisson,
            ArrivalModel::Hyperexponential { cv: 4.0 },
        ] {
            let times = model.arrival_times(0.1, 500, &mut rng);
            assert!(times.windows(2).all(|w| w[1] > w[0]), "{model:?}");
        }
    }

    #[test]
    #[should_panic]
    fn hyperexponential_rejects_cv_below_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let _ = ArrivalModel::Hyperexponential { cv: 0.5 }.next_gap(1.0, &mut rng);
    }

    #[test]
    fn hyperexponential_cv_one_is_poisson_degenerate() {
        // Regression: scenario validation accepts cv = 1.0 and the
        // balanced-means formula is well-defined there (p = 1/2, both
        // phase rates exactly λ) — it must sample, not panic, and keep
        // the Poisson mean and CV.
        let model = ArrivalModel::Hyperexponential { cv: 1.0 };
        assert!(model.validate().is_ok());
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let gaps: Vec<f64> = (0..100_000)
            .map(|_| model.next_gap(0.01, &mut rng))
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 100.0).abs() / 100.0 < 0.02, "mean gap {mean}");
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / (gaps.len() - 1) as f64;
        let emp_cv = var.sqrt() / mean;
        assert!((emp_cv - 1.0).abs() < 0.05, "empirical CV {emp_cv}");
    }

    #[test]
    fn arrival_model_validate() {
        assert!(ArrivalModel::Poisson.validate().is_ok());
        assert!(ArrivalModel::Hyperexponential { cv: 4.0 }
            .validate()
            .is_ok());
        assert!(ArrivalModel::Hyperexponential { cv: 0.9 }
            .validate()
            .is_err());
        assert!(ArrivalModel::Hyperexponential { cv: f64::NAN }
            .validate()
            .is_err());
        assert!(ArrivalModel::Diurnal {
            period: 86_400.0,
            amplitude: 0.8
        }
        .validate()
        .is_ok());
        assert!(ArrivalModel::Diurnal {
            period: 0.0,
            amplitude: 0.5
        }
        .validate()
        .is_err());
        assert!(ArrivalModel::Diurnal {
            period: 100.0,
            amplitude: 1.5
        }
        .validate()
        .is_err());
        assert!(ArrivalModel::Mmpp {
            burst_ratio: 9.0,
            burst_frac: 0.1,
            burst_len: 25.0
        }
        .validate()
        .is_ok());
        assert!(ArrivalModel::Mmpp {
            burst_ratio: 0.5,
            burst_frac: 0.1,
            burst_len: 25.0
        }
        .validate()
        .is_err());
        assert!(ArrivalModel::Mmpp {
            burst_ratio: 9.0,
            burst_frac: 1.0,
            burst_len: 25.0
        }
        .validate()
        .is_err());
        assert!(ArrivalModel::Mmpp {
            burst_ratio: 9.0,
            burst_frac: 0.1,
            burst_len: f64::INFINITY
        }
        .validate()
        .is_err());
    }

    #[test]
    fn diurnal_preserves_mean_rate_and_modulates() {
        let model = ArrivalModel::Diurnal {
            period: 10_000.0,
            amplitude: 0.9,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let times = model.arrival_times(0.01, 50_000, &mut rng);
        assert!(times.windows(2).all(|w| w[1] > w[0]), "monotone");
        let rate = times.len() as f64 / times.last().unwrap();
        assert!((rate - 0.01).abs() / 0.01 < 0.03, "mean rate {rate}");
        // The first half-period (sin > 0) must be busier than the second.
        let in_peak = times.iter().filter(|&&t| (t % 10_000.0) < 5_000.0).count() as f64;
        let frac = in_peak / times.len() as f64;
        assert!(frac > 0.6, "peak-half fraction {frac} — no modulation?");
    }

    #[test]
    fn mmpp_preserves_mean_rate_and_bursts() {
        let model = ArrivalModel::Mmpp {
            burst_ratio: 9.0,
            burst_frac: 0.1,
            burst_len: 25.0,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(52);
        let times = model.arrival_times(0.01, 100_000, &mut rng);
        assert!(times.windows(2).all(|w| w[1] > w[0]), "monotone");
        let rate = times.len() as f64 / times.last().unwrap();
        assert!((rate - 0.01).abs() / 0.01 < 0.05, "mean rate {rate}");
        // Burstiness: the gap CV must clearly exceed the Poisson 1.0.
        let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / (gaps.len() - 1) as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 1.3, "gap CV {cv} — not bursty");
    }

    #[test]
    fn samplers_are_seed_deterministic() {
        for model in [
            ArrivalModel::Poisson,
            ArrivalModel::Hyperexponential { cv: 3.0 },
            ArrivalModel::Diurnal {
                period: 5_000.0,
                amplitude: 0.7,
            },
            ArrivalModel::Mmpp {
                burst_ratio: 5.0,
                burst_frac: 0.2,
                burst_len: 10.0,
            },
        ] {
            let mut a = rand::rngs::StdRng::seed_from_u64(77);
            let mut b = rand::rngs::StdRng::seed_from_u64(77);
            assert_eq!(
                model.arrival_times(0.02, 200, &mut a),
                model.arrival_times(0.02, 200, &mut b),
                "{model:?}"
            );
        }
    }
}
