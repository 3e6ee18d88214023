//! Machine-power (heterogeneity) presets.
//!
//! §4.1 of the paper: the grid's *total* power is fixed (1000) and machines
//! are added until their powers sum to it. Two presets are evaluated:
//!
//! * **Hom** — every machine has power 10 (⇒ exactly 100 machines);
//! * **Het** — powers uniform in [2.3, 17.7] (mean 10 ⇒ ≈ 100 machines),
//!   the range used by Cirne et al. and adopted by the paper.

use dgsched_des::dist::DistConfig;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How individual machine powers are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Heterogeneity {
    /// All machines have the same power (paper's `Hom`, value 10).
    Homogeneous {
        /// Power of every machine.
        power: f64,
    },
    /// Powers uniform in `[lo, hi]` (paper's `Het`, [2.3, 17.7]).
    UniformRange {
        /// Lower bound of machine power.
        lo: f64,
        /// Upper bound of machine power.
        hi: f64,
    },
    /// Arbitrary distribution of machine power.
    Custom {
        /// Distribution machine powers are drawn from.
        dist: DistConfig,
    },
}

impl Heterogeneity {
    /// The paper's `Hom` level: every machine has power 10.
    pub const HOM: Heterogeneity = Heterogeneity::Homogeneous { power: 10.0 };
    /// The paper's `Het` level: power uniform in [2.3, 17.7].
    pub const HET: Heterogeneity = Heterogeneity::UniformRange { lo: 2.3, hi: 17.7 };

    /// Mean machine power under this preset.
    pub fn mean_power(&self) -> f64 {
        match *self {
            Heterogeneity::Homogeneous { power } => power,
            Heterogeneity::UniformRange { lo, hi } => 0.5 * (lo + hi),
            Heterogeneity::Custom { dist } => dist.mean(),
        }
    }

    /// Draws one machine power.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Heterogeneity::Homogeneous { power } => power,
            Heterogeneity::UniformRange { lo, hi } => rng.gen_range(lo..=hi),
            Heterogeneity::Custom { dist } => dist.sample(rng),
        }
    }

    /// Generates machine powers until their sum reaches `total_power`
    /// (§4.1: "repeatedly adding machines until the sum of their computing
    /// power reached the total computing power value").
    ///
    /// The final machine is kept even if it overshoots slightly, mirroring
    /// the paper's construction; the overshoot is bounded by one machine's
    /// power.
    pub fn generate_powers<R: Rng + ?Sized>(&self, total_power: f64, rng: &mut R) -> Vec<f64> {
        assert!(total_power > 0.0, "total power must be positive");
        let mut powers = Vec::with_capacity((total_power / self.mean_power()).ceil() as usize + 1);
        let mut sum = 0.0;
        while sum < total_power {
            let p = self.sample(rng);
            assert!(p > 0.0, "machine power must be positive, got {p}");
            powers.push(p);
            sum += p;
        }
        powers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn hom_gives_exactly_100_machines() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let powers = Heterogeneity::HOM.generate_powers(1000.0, &mut rng);
        assert_eq!(powers.len(), 100);
        assert!(powers.iter().all(|&p| p == 10.0));
    }

    #[test]
    fn het_gives_about_100_machines() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let powers = Heterogeneity::HET.generate_powers(1000.0, &mut rng);
        // Mean power 10 ⇒ expect ~100; allow generous slack for one seed.
        assert!(
            (80..=125).contains(&powers.len()),
            "{} machines",
            powers.len()
        );
        assert!(powers.iter().all(|&p| (2.3..=17.7).contains(&p)));
        let sum: f64 = powers.iter().sum();
        assert!((1000.0..1000.0 + 17.7).contains(&sum));
    }

    #[test]
    fn mean_power_presets() {
        assert_eq!(Heterogeneity::HOM.mean_power(), 10.0);
        assert!((Heterogeneity::HET.mean_power() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn custom_dist_is_respected() {
        let het = Heterogeneity::Custom {
            dist: DistConfig::Constant { value: 25.0 },
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let powers = het.generate_powers(100.0, &mut rng);
        assert_eq!(powers.len(), 4);
        assert_eq!(het.mean_power(), 25.0);
    }

    #[test]
    fn total_power_reached() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for het in [Heterogeneity::HOM, Heterogeneity::HET] {
            let powers = het.generate_powers(500.0, &mut rng);
            let sum: f64 = powers.iter().sum();
            assert!(sum >= 500.0);
            // Removing the last machine must drop below the target.
            let sum_but_last: f64 = powers[..powers.len() - 1].iter().sum();
            assert!(sum_but_last < 500.0);
        }
    }
}
