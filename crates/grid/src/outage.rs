//! Correlated outages: grid-wide events that take down many machines at
//! once (power failures, campus network cuts, the nightly reboot window).
//!
//! The paper's availability model fails machines *independently*; real
//! desktop grids also exhibit correlated churn, which replication handles
//! much worse — two replicas do not help when both machines die together.
//! [`OutageConfig`] adds a Poisson process of outage events, each knocking
//! out a random fraction of the currently-up machines for a random
//! duration, on top of (or instead of) the per-machine process.

use dgsched_des::dist::{DistConfig, Sampler};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the correlated-outage process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutageConfig {
    /// Mean time between outage events, seconds (exponential gaps).
    pub mtbo: f64,
    /// Outage duration distribution.
    pub duration: DistConfig,
    /// Probability that a given up machine is hit by a given outage.
    pub fraction: f64,
}

impl OutageConfig {
    /// Validates parameters.
    pub fn validate(&self) -> Result<(), String> {
        // `mtbo <= 0.0` alone lets NaN through (every comparison with NaN
        // is false) — demand finiteness explicitly.
        if !(self.mtbo.is_finite() && self.mtbo > 0.0) {
            return Err(format!(
                "outage mtbo (mean time between outages) must be finite and positive, got {}",
                self.mtbo
            ));
        }
        if !(self.fraction.is_finite() && self.fraction > 0.0 && self.fraction <= 1.0) {
            return Err(format!(
                "outage fraction must be in (0, 1], got {}",
                self.fraction
            ));
        }
        self.duration.validate()
    }

    /// Long-run fraction of machine-time lost to outages:
    /// `fraction · E[duration] / (mtbo + E[duration])` — each machine is
    /// hit by a `fraction`-thinned version of the outage process.
    pub fn unavailability(&self) -> f64 {
        let d = self.duration.mean();
        self.fraction * d / (self.mtbo + d)
    }

    /// Compiles the samplers.
    pub fn sampler(&self) -> OutageSampler {
        self.validate().expect("invalid outage config");
        OutageSampler {
            gap: DistConfig::Exponential { mean: self.mtbo }.sampler(),
            duration: self.duration.sampler(),
            fraction: self.fraction,
        }
    }
}

/// Compiled outage samplers.
#[derive(Debug, Clone, Copy)]
pub struct OutageSampler {
    gap: Sampler,
    duration: Sampler,
    fraction: f64,
}

impl OutageSampler {
    /// Time until the next outage event.
    pub fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.gap.sample(rng)
    }

    /// Duration of an outage.
    pub fn duration<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.duration.sample(rng)
    }

    /// Whether a particular machine is hit by this outage.
    pub fn hits<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cfg() -> OutageConfig {
        OutageConfig {
            mtbo: 10_000.0,
            duration: DistConfig::NormalTrunc {
                mean: 1_800.0,
                sd: 300.0,
            },
            fraction: 0.5,
        }
    }

    #[test]
    fn unavailability_formula() {
        // 0.5 · 1800 / (10000 + 1800) ≈ 0.0763
        assert!((cfg().unavailability() - 0.5 * 1800.0 / 11_800.0).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(cfg().validate().is_ok());
        assert!(OutageConfig { mtbo: 0.0, ..cfg() }.validate().is_err());
        assert!(OutageConfig {
            fraction: 0.0,
            ..cfg()
        }
        .validate()
        .is_err());
        assert!(OutageConfig {
            fraction: 1.5,
            ..cfg()
        }
        .validate()
        .is_err());
        assert!(OutageConfig {
            fraction: 1.0,
            ..cfg()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn sampler_statistics() {
        let s = cfg().sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 50_000;
        let mean_gap: f64 = (0..n).map(|_| s.next_gap(&mut rng)).sum::<f64>() / n as f64;
        assert!(
            (mean_gap - 10_000.0).abs() / 10_000.0 < 0.02,
            "gap {mean_gap}"
        );
        let hits = (0..n).filter(|_| s.hits(&mut rng)).count();
        assert!((hits as f64 / n as f64 - 0.5).abs() < 0.02);
        let d = s.duration(&mut rng);
        assert!(d > 0.0);
    }
}
