//! Grid configuration: the six operational platforms of §4.1 and the
//! builder that materialises them into concrete machine sets.

use crate::availability::Availability;
use crate::checkpoint::CheckpointConfig;
use crate::machine::{Machine, MachineId};
use crate::outage::OutageConfig;
use crate::power::Heterogeneity;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Declarative description of a desktop grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridConfig {
    /// Sum of machine powers the builder targets (paper: 1000).
    pub total_power: f64,
    /// How machine powers are drawn.
    pub heterogeneity: Heterogeneity,
    /// Machine availability behaviour.
    pub availability: Availability,
    /// Checkpoint server behaviour.
    pub checkpoint: CheckpointConfig,
    /// Optional correlated-outage process on top of the per-machine
    /// availability model (see [`OutageConfig`]).
    #[serde(default)]
    pub outages: Option<OutageConfig>,
}

impl GridConfig {
    /// The paper's total computing power.
    pub const PAPER_TOTAL_POWER: f64 = 1000.0;

    /// The most machines (`total_power` ÷ mean machine power) a grid may
    /// ask for: a hundred times the largest fleet benchmarked, 10 000. The
    /// builder allocates up front, and a failed allocation aborts.
    pub const MAX_MACHINES: usize = 1_000_000;

    /// One of the six platforms of §4.1 by name, e.g. `Hom`+`HighAvail`.
    pub fn paper(heterogeneity: Heterogeneity, availability: Availability) -> Self {
        GridConfig {
            total_power: Self::PAPER_TOTAL_POWER,
            heterogeneity,
            availability,
            checkpoint: CheckpointConfig::default(),
            outages: None,
        }
    }

    /// All six named configurations in the paper's order.
    pub fn paper_suite() -> Vec<(String, GridConfig)> {
        let mut out = Vec::new();
        for (hname, het) in [("Hom", Heterogeneity::HOM), ("Het", Heterogeneity::HET)] {
            for (aname, avail) in [
                ("HighAvail", Availability::HIGH),
                ("MedAvail", Availability::MED),
                ("LowAvail", Availability::LOW),
            ] {
                out.push((format!("{hname}-{aname}"), GridConfig::paper(het, avail)));
            }
        }
        out
    }

    /// Checks the configuration for values that would poison a run with
    /// NaN/∞ or hang the builder (e.g. non-finite powers from JSON, a
    /// power of 0 that never reaches the total). Call after
    /// deserialisation; `serde` alone accepts any number the format can
    /// carry.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.total_power.is_finite() && self.total_power > 0.0) {
            return Err(format!(
                "grid total_power must be finite and > 0, got {}",
                self.total_power
            ));
        }
        match self.heterogeneity {
            Heterogeneity::Homogeneous { power } => {
                if !(power.is_finite() && power > 0.0) {
                    return Err(format!("machine power must be finite and > 0, got {power}"));
                }
            }
            Heterogeneity::UniformRange { lo, hi } => {
                if !(lo.is_finite() && hi.is_finite() && lo > 0.0 && lo <= hi) {
                    return Err(format!(
                        "machine power range must satisfy 0 < lo <= hi and be finite, got [{lo}, {hi}]"
                    ));
                }
            }
            Heterogeneity::Custom { dist } => {
                let mean = dist.mean();
                if !(mean.is_finite() && mean > 0.0) {
                    return Err(format!(
                        "custom machine-power distribution must have a finite positive mean, got {mean}"
                    ));
                }
            }
        }
        let machines = self.total_power / self.heterogeneity.mean_power();
        if !(machines.is_finite() && machines <= Self::MAX_MACHINES as f64) {
            return Err(format!(
                "grid expects {machines:e} machines (total_power over the mean machine \
                 power), more than the {} allowed",
                Self::MAX_MACHINES
            ));
        }
        if let Some(o) = &self.outages {
            o.validate()?;
        }
        // The simulator derives its auto-horizon from total_work /
        // effective_power: a grid that delivers no long-run power (zero
        // availability, checkpoint efficiency 0, outages eating every
        // cycle) would propagate a NaN/∞ horizon into the engine. Reject
        // it here with a diagnosis instead.
        let ep = self.effective_power();
        if !(ep.is_finite() && ep > 0.0) {
            return Err(format!(
                "grid delivers no effective power ({ep}): availability, checkpoint \
                 efficiency or outage configuration leaves no usable cycles, so no \
                 workload can ever drain"
            ));
        }
        Ok(())
    }

    /// Materialises the machine set (powers drawn from `rng`).
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Grid {
        let powers = self.heterogeneity.generate_powers(self.total_power, rng);
        let machines = powers
            .into_iter()
            .enumerate()
            .map(|(i, power)| Machine {
                id: MachineId(i as u32),
                power,
            })
            .collect();
        Grid {
            machines,
            config: *self,
        }
    }

    /// Mean time between failures as one machine experiences it, combining
    /// the per-machine process with its share of correlated outages:
    /// rates add, so `1/MTBF = 1/MTBF_avail + fraction/MTBO`.
    pub fn machine_mtbf(&self) -> f64 {
        let avail_rate = 1.0 / self.availability.mtbf(); // 0 for Always
        let outage_rate = self.outages.map(|o| o.fraction / o.mtbo).unwrap_or(0.0);
        let rate = avail_rate + outage_rate;
        if rate == 0.0 {
            f64::INFINITY
        } else {
            1.0 / rate
        }
    }

    /// Long-run power the grid delivers to applications: nominal power ×
    /// availability × checkpoint efficiency. This is the denominator of the
    /// paper's demand calculation (§4.2). The checkpoint interval (and so
    /// its efficiency) is driven by the combined [`Self::machine_mtbf`].
    pub fn effective_power(&self) -> f64 {
        let avail = self.availability.long_run_availability();
        let eff = self.checkpoint.efficiency_for_mtbf(self.machine_mtbf());
        let outage_up = 1.0 - self.outages.map(|o| o.unavailability()).unwrap_or(0.0);
        self.total_power * avail * eff * outage_up
    }
}

/// A materialised grid: concrete machines plus the config they came from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Grid {
    /// The machines, densely indexed by [`MachineId`].
    pub machines: Vec<Machine>,
    /// The configuration this grid was built from.
    pub config: GridConfig,
}

impl Grid {
    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// True when the grid has no machines.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn paper_suite_has_six_configs() {
        let suite = GridConfig::paper_suite();
        assert_eq!(suite.len(), 6);
        let names: Vec<&str> = suite.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "Hom-HighAvail",
                "Hom-MedAvail",
                "Hom-LowAvail",
                "Het-HighAvail",
                "Het-MedAvail",
                "Het-LowAvail"
            ]
        );
    }

    #[test]
    fn build_hom_high() {
        let cfg = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let grid = cfg.build(&mut rng);
        assert_eq!(grid.len(), 100);
        let total: f64 = grid.machines.iter().map(|m| m.power).sum();
        assert_eq!(total, 1000.0);
        assert!(grid.machines.iter().all(|m| m.power == 10.0));
    }

    #[test]
    fn effective_power_ordering() {
        let high = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH).effective_power();
        let med = GridConfig::paper(Heterogeneity::HOM, Availability::MED).effective_power();
        let low = GridConfig::paper(Heterogeneity::HOM, Availability::LOW).effective_power();
        assert!(high > med && med > low);
        // HighAvail: 1000 × 0.98 × (9204/(9204+480)) ≈ 931.4
        assert!((high - 931.4).abs() < 1.0, "high={high}");
        // LowAvail: 1000 × 0.50 × (1314.5/(1314.5+480)) ≈ 366.3
        assert!((low - 366.3).abs() < 1.0, "low={low}");
    }

    #[test]
    fn no_failures_no_checkpoint_full_power() {
        let cfg = GridConfig {
            total_power: 500.0,
            heterogeneity: Heterogeneity::HOM,
            availability: Availability::Always,
            checkpoint: CheckpointConfig::disabled(),
            outages: None,
        };
        assert_eq!(cfg.effective_power(), 500.0);
    }

    #[test]
    fn validate_rejects_bad_powers() {
        let mut cfg = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
        assert!(cfg.validate().is_ok());
        cfg.total_power = f64::NAN;
        assert!(cfg.validate().unwrap_err().contains("total_power"));
        cfg.total_power = 0.0;
        assert!(cfg.validate().is_err());
        cfg.total_power = 1000.0;
        cfg.heterogeneity = Heterogeneity::Homogeneous {
            power: f64::INFINITY,
        };
        assert!(cfg.validate().unwrap_err().contains("machine power"));
        cfg.heterogeneity = Heterogeneity::UniformRange { lo: 5.0, hi: 2.0 };
        assert!(cfg.validate().is_err());
        cfg.heterogeneity = Heterogeneity::UniformRange {
            lo: 2.0,
            hi: f64::NAN,
        };
        assert!(cfg.validate().is_err());
        // A NaN smuggled in through JSON (`null`) is exactly what validate
        // is for — serde itself happily accepts any representable number.
        cfg.heterogeneity = Heterogeneity::HET;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_oversized_fleets() {
        let mut cfg = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
        cfg.total_power = 10.0 * GridConfig::MAX_MACHINES as f64;
        assert!(cfg.validate().is_ok());
        // The expected count divides by the preset's mean power.
        cfg.heterogeneity = Heterogeneity::UniformRange { lo: 1.0, hi: 3.0 };
        assert!(cfg.validate().unwrap_err().contains("5e6 machines"));
        cfg.total_power = 1e20;
        assert!(cfg.validate().unwrap_err().contains("5e19 machines"));
    }

    #[test]
    fn validate_rejects_zero_effective_power() {
        // An outage process that takes every machine down all the time
        // leaves effective_power() at 0 — the auto-horizon would divide by
        // it and hand the engine a NaN/∞ cap. validate must name the
        // problem instead.
        let mut cfg = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
        cfg.outages = Some(crate::outage::OutageConfig {
            mtbo: 1.0,
            duration: dgsched_des::dist::DistConfig::Constant { value: f64::MAX },
            fraction: 1.0,
        });
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("effective power"), "{err}");
    }

    #[test]
    fn validate_rejects_bad_outage_parameters() {
        let mut cfg = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
        cfg.outages = Some(crate::outage::OutageConfig {
            mtbo: f64::NAN,
            duration: dgsched_des::dist::DistConfig::Constant { value: 60.0 },
            fraction: 0.5,
        });
        assert!(cfg.validate().unwrap_err().contains("mtbo"));
        cfg.outages = Some(crate::outage::OutageConfig {
            mtbo: 3600.0,
            duration: dgsched_des::dist::DistConfig::Constant { value: 60.0 },
            fraction: 1.5,
        });
        assert!(cfg.validate().unwrap_err().contains("fraction"));
    }

    #[test]
    fn serde_round_trip() {
        let cfg = GridConfig::paper(Heterogeneity::HET, Availability::LOW);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: GridConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
