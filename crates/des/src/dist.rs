//! Serde-able random-variate configurations.
//!
//! Scenario files describe stochastic inputs declaratively; [`DistConfig`]
//! is the bridge between those descriptions and `rand_distr` samplers. Each
//! variant knows its analytic mean, which the workload calculator uses to
//! derive arrival rates without sampling.

use rand::Rng;
use rand_distr::{Distribution, Exp, Normal, Uniform, Weibull};
use serde::{Deserialize, Serialize};

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
/// Accurate to ~1e-13 over the positive reals, ample for moment matching.
pub fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula keeps the approximation in its sweet spot.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Gamma function via [`ln_gamma`].
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// Solves the Weibull scale λ so that a Weibull(k, λ) has the given mean:
/// `E[X] = λ·Γ(1 + 1/k)` ⇒ `λ = mean / Γ(1 + 1/k)`.
pub fn weibull_scale_for_mean(shape: f64, mean: f64) -> f64 {
    assert!(shape > 0.0 && mean > 0.0, "shape and mean must be positive");
    mean / gamma(1.0 + 1.0 / shape)
}

/// A distribution over non-negative reals, as written in scenario files.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum DistConfig {
    /// A degenerate (deterministic) value.
    Constant {
        /// The value returned by every draw.
        value: f64,
    },
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Exponential with the given mean (rate = 1/mean).
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Normal truncated to positive values by resampling; `sd == 0` behaves
    /// like `Constant`.
    NormalTrunc {
        /// Mean of the untruncated normal.
        mean: f64,
        /// Standard deviation of the untruncated normal.
        sd: f64,
    },
    /// Weibull with shape `k` and scale `lambda`.
    Weibull {
        /// Shape parameter `k`.
        shape: f64,
        /// Scale parameter `lambda`.
        scale: f64,
    },
}

impl DistConfig {
    /// A Weibull with the given shape, scaled so its mean is `mean`.
    pub fn weibull_with_mean(shape: f64, mean: f64) -> Self {
        DistConfig::Weibull {
            shape,
            scale: weibull_scale_for_mean(shape, mean),
        }
    }

    /// The analytic mean of the distribution.
    ///
    /// For `NormalTrunc` this is the mean of the *untruncated* normal; with
    /// the parameters used in this project (mean ≥ 6 sd) the truncation bias
    /// is below 1e-9 and is ignored.
    pub fn mean(&self) -> f64 {
        match *self {
            DistConfig::Constant { value } => value,
            DistConfig::Uniform { lo, hi } => 0.5 * (lo + hi),
            DistConfig::Exponential { mean } => mean,
            DistConfig::NormalTrunc { mean, .. } => mean,
            DistConfig::Weibull { shape, scale } => scale * gamma(1.0 + 1.0 / shape),
        }
    }

    /// Validates parameters, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            DistConfig::Constant { value } if value < 0.0 => {
                Err(format!("constant must be non-negative, got {value}"))
            }
            DistConfig::Uniform { lo, hi } if lo.is_nan() || hi.is_nan() || lo > hi || lo < 0.0 => {
                Err(format!("uniform bounds invalid: [{lo}, {hi})"))
            }
            DistConfig::Exponential { mean } if mean <= 0.0 => {
                Err(format!("exponential mean must be positive, got {mean}"))
            }
            DistConfig::NormalTrunc { sd, .. } if sd < 0.0 => {
                Err(format!("normal sd must be non-negative, got {sd}"))
            }
            DistConfig::NormalTrunc { mean, .. } if mean <= 0.0 => Err(format!(
                "truncated normal mean must be positive, got {mean}"
            )),
            DistConfig::Weibull { shape, scale } if shape <= 0.0 || scale <= 0.0 => Err(format!(
                "weibull parameters must be positive: shape={shape}, scale={scale}"
            )),
            _ => Ok(()),
        }
    }

    /// Compiles the config into a reusable sampler.
    pub fn sampler(&self) -> Sampler {
        self.validate().expect("invalid distribution config");
        match *self {
            DistConfig::Constant { value } => Sampler::Constant(value),
            DistConfig::Uniform { lo, hi } => {
                if lo == hi {
                    Sampler::Constant(lo)
                } else {
                    Sampler::Uniform(Uniform::new(lo, hi))
                }
            }
            DistConfig::Exponential { mean } => {
                Sampler::Exp(Exp::new(1.0 / mean).expect("validated above"))
            }
            DistConfig::NormalTrunc { mean, sd } => {
                if sd == 0.0 {
                    Sampler::Constant(mean)
                } else {
                    Sampler::NormalTrunc(Normal::new(mean, sd).expect("validated above"))
                }
            }
            DistConfig::Weibull { shape, scale } => {
                Sampler::Weibull(Weibull::new(scale, shape).expect("validated above"))
            }
        }
    }

    /// Draws one sample (convenience; compile a [`Sampler`] in hot loops).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sampler().sample(rng)
    }
}

/// A compiled sampler; cheap to sample repeatedly.
#[derive(Debug, Clone, Copy)]
pub enum Sampler {
    /// Degenerate value.
    Constant(f64),
    /// Uniform over an interval.
    Uniform(Uniform<f64>),
    /// Exponential.
    Exp(Exp<f64>),
    /// Normal, resampled until positive.
    NormalTrunc(Normal<f64>),
    /// Weibull.
    Weibull(Weibull<f64>),
}

impl Sampler {
    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Sampler::Constant(v) => *v,
            Sampler::Uniform(d) => d.sample(rng),
            Sampler::Exp(d) => d.sample(rng),
            Sampler::NormalTrunc(d) => {
                // Rejection keeps the left tail out; parameters in this
                // project make rejection astronomically rare.
                loop {
                    let x = d.sample(rng);
                    if x > 0.0 {
                        return x;
                    }
                }
            }
            Sampler::Weibull(d) => d.sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn empirical_mean(cfg: DistConfig, n: usize) -> f64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let s = cfg.sampler();
        (0..n).map(|_| s.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(3)=2, Γ(1/2)=√π, Γ(5)=24
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma(3.0) - 2.0).abs() < 1e-9);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-9);
        assert!((gamma(5.0) - 24.0).abs() < 1e-8);
    }

    #[test]
    fn weibull_moment_matching() {
        for &shape in &[0.5, 0.7, 1.0, 2.0, 3.5] {
            for &mean in &[100.0, 1800.0, 88_200.0] {
                let cfg = DistConfig::weibull_with_mean(shape, mean);
                assert!(
                    (cfg.mean() - mean).abs() / mean < 1e-10,
                    "shape={shape} mean={mean}: analytic mean {}",
                    cfg.mean()
                );
            }
        }
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let cfg = DistConfig::weibull_with_mean(1.0, 50.0);
        if let DistConfig::Weibull { scale, .. } = cfg {
            assert!((scale - 50.0).abs() < 1e-9);
        } else {
            unreachable!();
        }
    }

    #[test]
    fn empirical_means_track_analytic() {
        let cases = [
            DistConfig::Constant { value: 42.0 },
            DistConfig::Uniform {
                lo: 240.0,
                hi: 720.0,
            },
            DistConfig::Exponential { mean: 300.0 },
            DistConfig::NormalTrunc {
                mean: 1800.0,
                sd: 300.0,
            },
            DistConfig::weibull_with_mean(0.7, 5400.0),
        ];
        for cfg in cases {
            let m = empirical_mean(cfg, 200_000);
            let rel = (m - cfg.mean()).abs() / cfg.mean();
            assert!(
                rel < 0.02,
                "{cfg:?}: empirical {m} vs analytic {}",
                cfg.mean()
            );
        }
        // The up-time sampler's shape, not only its mean: the coefficient
        // of variation of Weibull(k) is sqrt(Γ(1 + 2/k) / Γ(1 + 1/k)² − 1),
        // about 1.46 at k = 0.7 (1.26 at k = 0.8, 1.76 at k = 0.6).
        let k = 0.7;
        let s = DistConfig::weibull_with_mean(k, 5400.0).sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut w = crate::stats::Welford::new();
        for _ in 0..200_000 {
            w.push(s.sample(&mut rng));
        }
        let cv = w.std_dev() / w.mean();
        let analytic = (gamma(1.0 + 2.0 / k) / gamma(1.0 + 1.0 / k).powi(2) - 1.0).sqrt();
        assert!(
            (cv - analytic).abs() / analytic < 0.03,
            "Weibull({k}) CV: empirical {cv} vs analytic {analytic}"
        );
    }

    #[test]
    fn truncated_normal_is_positive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let s = DistConfig::NormalTrunc { mean: 1.0, sd: 5.0 }.sampler();
        for _ in 0..10_000 {
            assert!(s.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn validation_rejects_bad_params() {
        assert!(DistConfig::Uniform { lo: 5.0, hi: 1.0 }.validate().is_err());
        assert!(DistConfig::Exponential { mean: 0.0 }.validate().is_err());
        assert!(DistConfig::Weibull {
            shape: -1.0,
            scale: 1.0
        }
        .validate()
        .is_err());
        assert!(DistConfig::NormalTrunc {
            mean: -5.0,
            sd: 1.0
        }
        .validate()
        .is_err());
        assert!(DistConfig::Constant { value: -1.0 }.validate().is_err());
        assert!(DistConfig::Uniform { lo: 1.0, hi: 2.0 }.validate().is_ok());
    }

    #[test]
    fn serde_round_trip() {
        let cfg = DistConfig::Weibull {
            shape: 0.7,
            scale: 123.4,
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: DistConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        assert!(json.contains("weibull"));
    }

    #[test]
    fn uniform_degenerate_interval() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let s = DistConfig::Uniform { lo: 7.0, hi: 7.0 }.sampler();
        assert_eq!(s.sample(&mut rng), 7.0);
    }
}
