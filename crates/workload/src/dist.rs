//! Heavy-tail size and task-work distributions for trace-realistic
//! workloads.
//!
//! The paper fixes every bag's total work to one application size and
//! jitters task work uniformly by ±50 %. Mined desktop-grid submission
//! logs (Guazzone et al., PAPERS.md) instead show heavy-tailed bag sizes —
//! a few campaigns carry most of the work — and multiplicative task-work
//! dispersion. This module provides both axes as validated, seeded,
//! serde-stable distributions:
//!
//! * [`SizeModel`] — the per-bag application size: the paper's fixed
//!   value, a (optionally truncated) Pareto, or a Zipf ladder of discrete
//!   size classes;
//! * [`TaskJitter`] — per-task work around the granularity: the paper's
//!   uniform band or a mean-preserving lognormal.
//!
//! Every model exposes an analytic [`SizeModel::mean`] so arrival rates
//! can still be derived from a target utilization via `λ = U / D`
//! (see [`crate::arrival`]): the demand term uses the distribution mean
//! instead of the fixed application size.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Distribution of a bag's application size (total work, in
/// reference-seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SizeModel {
    /// Every bag carries exactly `app_size` of work — the paper's model.
    Fixed {
        /// Total work per bag.
        app_size: f64,
    },
    /// Pareto (type I) sizes: `P(X > x) = (min/x)^alpha` for `x ≥ min`.
    /// `alpha` must exceed 1 so the mean is finite; `alpha ∈ (1, 2]` is
    /// the empirically observed heavy-tail regime (infinite variance).
    /// An optional `cap` truncates the tail (inverse-CDF of the
    /// conditional law, not clamping, so no probability mass piles up at
    /// the cap).
    Pareto {
        /// Tail exponent (> 1).
        alpha: f64,
        /// Smallest possible size (> 0).
        min: f64,
        /// Optional upper truncation point (> min). `None` leaves the
        /// tail unbounded.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        cap: Option<f64>,
    },
    /// Zipf ladder of discrete size classes: size `base·k` for rank
    /// `k ∈ 1..=ranks` with `P(k) ∝ k^{-exponent}`. Models a catalogue of
    /// application types whose popularity follows a power law.
    Zipf {
        /// Popularity exponent (> 0).
        exponent: f64,
        /// Number of size classes (≥ 1, ≤ 100 000).
        ranks: u32,
        /// Size of rank 1; rank `k` has size `base·k`.
        base: f64,
    },
}

impl SizeModel {
    /// The paper's fixed application size as a [`SizeModel`].
    pub fn paper() -> Self {
        SizeModel::Fixed {
            app_size: crate::bot_type::PAPER_APP_SIZE,
        }
    }

    /// Checks parameters for values that would hang generation or poison
    /// statistics (NaN/∞, non-positive sizes, infinite-mean tails).
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SizeModel::Fixed { app_size } => {
                if !(app_size.is_finite() && app_size > 0.0) {
                    return Err(format!("fixed size must be finite and > 0, got {app_size}"));
                }
            }
            SizeModel::Pareto { alpha, min, cap } => {
                if !(alpha.is_finite() && alpha > 1.0) {
                    return Err(format!(
                        "pareto alpha must be finite and > 1 (finite mean), got {alpha}"
                    ));
                }
                if !(min.is_finite() && min > 0.0) {
                    return Err(format!("pareto min must be finite and > 0, got {min}"));
                }
                if let Some(cap) = cap {
                    if !(cap.is_finite() && cap > min) {
                        return Err(format!(
                            "pareto cap must be finite and > min ({min}), got {cap}"
                        ));
                    }
                }
            }
            SizeModel::Zipf {
                exponent,
                ranks,
                base,
            } => {
                if !(exponent.is_finite() && exponent > 0.0) {
                    return Err(format!(
                        "zipf exponent must be finite and > 0, got {exponent}"
                    ));
                }
                if !(1..=100_000).contains(&ranks) {
                    return Err(format!("zipf ranks must be in 1..=100000, got {ranks}"));
                }
                if !(base.is_finite() && base > 0.0) {
                    return Err(format!("zipf base must be finite and > 0, got {base}"));
                }
            }
        }
        Ok(())
    }

    /// Analytic mean size — the demand term of the `λ = U / D` derivation.
    pub fn mean(&self) -> f64 {
        match *self {
            SizeModel::Fixed { app_size } => app_size,
            SizeModel::Pareto { alpha, min, cap } => match cap {
                None => alpha * min / (alpha - 1.0),
                // Truncated Pareto mean: ∫ x·f(x) over [min, cap] with the
                // renormalised density.
                Some(cap) => {
                    let z = 1.0 - (min / cap).powf(alpha);
                    let integral = alpha * min.powf(alpha) / (alpha - 1.0)
                        * (min.powf(1.0 - alpha) - cap.powf(1.0 - alpha));
                    integral / z
                }
            },
            SizeModel::Zipf {
                exponent,
                ranks,
                base,
            } => {
                let mut num = 0.0;
                let mut den = 0.0;
                for k in 1..=ranks {
                    let w = (k as f64).powf(-exponent);
                    den += w;
                    num += w * k as f64;
                }
                base * num / den
            }
        }
    }

    /// Draws one bag size by inverse-CDF transform (one uniform per draw,
    /// so streams are seed-deterministic and reproducible).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            SizeModel::Fixed { app_size } => app_size,
            SizeModel::Pareto { alpha, min, cap } => {
                let u: f64 = rng.gen(); // [0, 1)
                match cap {
                    None => min / (1.0 - u).powf(1.0 / alpha),
                    Some(cap) => {
                        // Inverse CDF of the truncated law: scale the
                        // uniform into the untruncated CDF's [0, F(cap)).
                        let z = 1.0 - (min / cap).powf(alpha);
                        min / (1.0 - u * z).powf(1.0 / alpha)
                    }
                }
            }
            SizeModel::Zipf {
                exponent,
                ranks,
                base,
            } => {
                let total: f64 = (1..=ranks).map(|k| (k as f64).powf(-exponent)).sum();
                let mut x = rng.gen::<f64>() * total;
                for k in 1..=ranks {
                    let w = (k as f64).powf(-exponent);
                    if x < w {
                        return base * k as f64;
                    }
                    x -= w;
                }
                base * ranks as f64
            }
        }
    }
}

/// Distribution of one task's work around the bag's granularity `g`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum TaskJitter {
    /// Uniform in `[g·(1 − half_width), g·(1 + half_width))` — the
    /// paper's ±50 % band at `half_width = 0.5`.
    Uniform {
        /// Half-width of the band as a fraction of `g` (in `[0, 1)`).
        half_width: f64,
    },
    /// Mean-preserving lognormal: `g·exp(σZ − σ²/2)` with `Z` standard
    /// normal, so the mean task work stays `g` while the dispersion is
    /// multiplicative (occasional tasks an order of magnitude larger).
    Lognormal {
        /// Log-scale standard deviation (in `(0, 4]`).
        sigma: f64,
    },
}

impl TaskJitter {
    /// The paper's ±50 % uniform band.
    pub fn paper() -> Self {
        TaskJitter::Uniform { half_width: 0.5 }
    }

    /// Checks parameters for NaN/∞ and out-of-range values.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            TaskJitter::Uniform { half_width } => {
                if !(half_width.is_finite() && (0.0..1.0).contains(&half_width)) {
                    return Err(format!(
                        "uniform jitter half_width must be in [0, 1), got {half_width}"
                    ));
                }
            }
            TaskJitter::Lognormal { sigma } => {
                if !(sigma.is_finite() && sigma > 0.0 && sigma <= 4.0) {
                    return Err(format!(
                        "lognormal jitter sigma must be in (0, 4], got {sigma}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Draws one task's work for granularity `g` (mean `g` under both
    /// models).
    // Called once per task by `fill_tasks`; without the hint, relinking
    // unrelated code has flipped LLVM's decision to inline it there.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, g: f64, rng: &mut R) -> f64 {
        match *self {
            TaskJitter::Uniform { half_width } => {
                if half_width == 0.0 {
                    g
                } else {
                    rng.gen_range(g * (1.0 - half_width)..g * (1.0 + half_width))
                }
            }
            TaskJitter::Lognormal { sigma } => {
                let normal = rand_distr::Normal::new(0.0, 1.0).expect("unit normal");
                let z = rand_distr::Distribution::sample(&normal, rng);
                g * (sigma * z - 0.5 * sigma * sigma).exp()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample_mean(model: &SizeModel, n: usize, seed: u64) -> f64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| model.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn fixed_is_degenerate() {
        let m = SizeModel::Fixed { app_size: 2.5e6 };
        assert!(m.validate().is_ok());
        assert_eq!(m.mean(), 2.5e6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(m.sample(&mut rng), 2.5e6);
    }

    #[test]
    fn pareto_mean_matches_analytic() {
        // α=3 converges fast enough for a tight sample-mean check.
        let m = SizeModel::Pareto {
            alpha: 3.0,
            min: 1_000.0,
            cap: None,
        };
        assert!((m.mean() - 1_500.0).abs() < 1e-9);
        let emp = sample_mean(&m, 200_000, 5);
        assert!((emp - 1_500.0).abs() / 1_500.0 < 0.02, "empirical {emp}");
    }

    #[test]
    fn truncated_pareto_bounded_and_mean_consistent() {
        let m = SizeModel::Pareto {
            alpha: 1.5,
            min: 1_000.0,
            cap: Some(50_000.0),
        };
        assert!(m.validate().is_ok());
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = m.sample(&mut rng);
            assert!((1_000.0..=50_000.0).contains(&x), "out of range: {x}");
        }
        let emp = sample_mean(&m, 200_000, 9);
        let analytic = m.mean();
        assert!(
            (emp - analytic).abs() / analytic < 0.03,
            "empirical {emp} vs analytic {analytic}"
        );
        // Truncation lowers the mean below the unbounded law's.
        let unbounded = SizeModel::Pareto {
            alpha: 1.5,
            min: 1_000.0,
            cap: None,
        };
        assert!(analytic < unbounded.mean());
    }

    #[test]
    fn pareto_tail_follows_power_law() {
        // P(X > t) = (min/t)^α: check the empirical survival at one decade.
        let m = SizeModel::Pareto {
            alpha: 2.0,
            min: 1_000.0,
            cap: None,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let n = 200_000;
        let over = (0..n).filter(|_| m.sample(&mut rng) > 10_000.0).count();
        let frac = over as f64 / n as f64;
        assert!((frac - 0.01).abs() < 0.002, "tail fraction {frac}");
    }

    #[test]
    fn zipf_ladder_mean_and_support() {
        let m = SizeModel::Zipf {
            exponent: 1.0,
            ranks: 4,
            base: 100.0,
        };
        // Weights 1, 1/2, 1/3, 1/4 → mean = 100·4/(25/12) = 192.
        assert!((m.mean() - 192.0).abs() < 1e-9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let x = m.sample(&mut rng);
            assert!([100.0, 200.0, 300.0, 400.0].contains(&x), "{x}");
        }
        let emp = sample_mean(&m, 100_000, 13);
        assert!((emp - 192.0).abs() / 192.0 < 0.02, "empirical {emp}");
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        for m in [
            SizeModel::Fixed { app_size: 0.0 },
            SizeModel::Fixed { app_size: f64::NAN },
            SizeModel::Pareto {
                alpha: 1.0,
                min: 1.0,
                cap: None,
            },
            SizeModel::Pareto {
                alpha: 2.0,
                min: -1.0,
                cap: None,
            },
            SizeModel::Pareto {
                alpha: 2.0,
                min: 10.0,
                cap: Some(5.0),
            },
            SizeModel::Zipf {
                exponent: 0.0,
                ranks: 4,
                base: 1.0,
            },
            SizeModel::Zipf {
                exponent: 1.0,
                ranks: 0,
                base: 1.0,
            },
            SizeModel::Zipf {
                exponent: 1.0,
                ranks: 4,
                base: f64::INFINITY,
            },
        ] {
            assert!(m.validate().is_err(), "{m:?} must be rejected");
        }
    }

    #[test]
    fn lognormal_jitter_is_mean_preserving() {
        let j = TaskJitter::Lognormal { sigma: 1.0 };
        assert!(j.validate().is_ok());
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let n = 400_000;
        let mean = (0..n).map(|_| j.sample(1_000.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1_000.0).abs() / 1_000.0 < 0.02, "mean {mean}");
    }

    #[test]
    fn uniform_jitter_matches_paper_band() {
        let j = TaskJitter::paper();
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        for _ in 0..1_000 {
            let w = j.sample(1_000.0, &mut rng);
            assert!((500.0..1500.0).contains(&w), "{w}");
        }
        let exact = TaskJitter::Uniform { half_width: 0.0 };
        assert_eq!(exact.sample(1_000.0, &mut rng), 1_000.0);
    }

    #[test]
    fn jitter_validation_rejects_bad_parameters() {
        for j in [
            TaskJitter::Uniform { half_width: 1.0 },
            TaskJitter::Uniform {
                half_width: f64::NAN,
            },
            TaskJitter::Uniform { half_width: -0.1 },
            TaskJitter::Lognormal { sigma: 0.0 },
            TaskJitter::Lognormal { sigma: 5.0 },
            TaskJitter::Lognormal { sigma: f64::NAN },
        ] {
            assert!(j.validate().is_err(), "{j:?} must be rejected");
        }
    }

    #[test]
    fn serde_round_trip() {
        let models = [
            SizeModel::paper(),
            SizeModel::Pareto {
                alpha: 1.5,
                min: 8.0e5,
                cap: Some(2.5e8),
            },
            SizeModel::Zipf {
                exponent: 1.2,
                ranks: 32,
                base: 1.0e5,
            },
        ];
        for m in models {
            let json = serde_json::to_string(&m).unwrap();
            let back: SizeModel = serde_json::from_str(&json).unwrap();
            assert_eq!(m, back);
        }
        for j in [TaskJitter::paper(), TaskJitter::Lognormal { sigma: 1.5 }] {
            let json = serde_json::to_string(&j).unwrap();
            let back: TaskJitter = serde_json::from_str(&json).unwrap();
            assert_eq!(j, back);
        }
        // Pareto without a cap serialises without the field.
        let open = SizeModel::Pareto {
            alpha: 2.0,
            min: 1.0,
            cap: None,
        };
        assert!(!serde_json::to_string(&open).unwrap().contains("cap"));
    }
}
