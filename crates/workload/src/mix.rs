//! Mixed-granularity workloads — the paper's first future-work direction
//! (§5): "workloads in which BoT of different types (i.e., characterized by
//! different task granularities) will simultaneously be submitted to the
//! scheduler".
//!
//! A [`MixSpec`] draws each arriving bag's type from a weighted set; the
//! overall arrival rate is still derived from a target utilization, using
//! the *mixture-average* application size for the demand term.

use crate::arrival::{bag_demand, ArrivalModel, Intensity};
use crate::bot::{BagOfTasks, BotId};
use crate::bot_type::BotType;
use crate::generator::validate_volume;
use crate::workload::Workload;
use dgsched_des::time::SimTime;
use dgsched_grid::config::GridConfig;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One component of a workload mixture.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixComponent {
    /// The BoT type of this component.
    pub bot_type: BotType,
    /// Relative weight (probability ∝ weight).
    pub weight: f64,
}

/// A mixed workload: bags drawn from a weighted set of types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixSpec {
    /// The mixture components (at least one, positive weights).
    pub components: Vec<MixComponent>,
    /// Target grid utilization.
    pub intensity: Intensity,
    /// Number of bags to generate.
    pub count: usize,
}

impl MixSpec {
    /// A uniform mixture of the four paper granularities.
    pub fn paper_uniform(intensity: Intensity, count: usize) -> Self {
        MixSpec {
            components: BotType::paper_suite()
                .into_iter()
                .map(|bot_type| MixComponent {
                    bot_type,
                    weight: 1.0,
                })
                .collect(),
            intensity,
            count,
        }
    }

    /// Checks that there is a component, that each has a valid BoT type
    /// and a finite positive weight, and the volume at the largest
    /// component's tasks per bag ([`crate::MAX_EXPECTED_TASKS`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.components.is_empty() {
            return Err("mixture needs at least one component".into());
        }
        for (i, c) in self.components.iter().enumerate() {
            c.bot_type
                .validate()
                .map_err(|e| format!("mix component {i}: {e}"))?;
            if !(c.weight.is_finite() && c.weight > 0.0) {
                return Err(format!(
                    "mix component {i}: weight must be finite and > 0, got {}",
                    c.weight
                ));
            }
        }
        let per_bag = self.components.iter().map(|c| c.bot_type.expected_tasks());
        validate_volume(self.count, per_bag.fold(0.0, f64::max))
    }

    /// Mixture-average application size (expected work per arriving bag).
    pub fn mean_app_size(&self) -> f64 {
        let total_w: f64 = self.components.iter().map(|c| c.weight).sum();
        self.components
            .iter()
            .map(|c| c.weight * c.bot_type.app_size)
            .sum::<f64>()
            / total_w
    }

    /// Draws one component index proportionally to weight.
    fn pick<R: Rng + ?Sized>(&self, rng: &mut R) -> &BotType {
        let total: f64 = self.components.iter().map(|c| c.weight).sum();
        let mut x = rng.gen_range(0.0..total);
        for c in &self.components {
            if x < c.weight {
                return &c.bot_type;
            }
            x -= c.weight;
        }
        &self
            .components
            .last()
            .expect("mixture has at least one component")
            .bot_type
    }

    /// Generates the mixed workload for a grid with the paper's Poisson
    /// arrivals.
    pub fn generate<R: Rng + ?Sized>(&self, grid: &GridConfig, rng: &mut R) -> Workload {
        self.validate().expect("invalid mixture");
        let demand = bag_demand(self.mean_app_size(), grid);
        let lambda = self.intensity.utilization() / demand;
        let arrivals = ArrivalModel::Poisson.arrival_times(lambda, self.count, rng);
        let bags = arrivals
            .into_iter()
            .enumerate()
            .map(|(i, at)| {
                let ty = *self.pick(rng);
                BagOfTasks {
                    id: BotId(i as u32),
                    arrival: SimTime::new(at),
                    tasks: ty.generate_tasks(rng),
                    granularity: ty.granularity,
                }
            })
            .collect();
        Workload {
            bags,
            lambda,
            label: format!("mix U={}", self.intensity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsched_grid::availability::Availability;
    use dgsched_grid::power::Heterogeneity;
    use rand::SeedableRng;

    fn grid() -> GridConfig {
        GridConfig::paper(Heterogeneity::HOM, Availability::HIGH)
    }

    #[test]
    fn uniform_mix_covers_all_granularities() {
        let spec = MixSpec::paper_uniform(Intensity::Low, 200);
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let w = spec.generate(&grid(), &mut rng);
        assert!(w.validate().is_ok());
        for g in [1_000.0, 5_000.0, 25_000.0, 125_000.0] {
            let n = w.bags.iter().filter(|b| b.granularity == g).count();
            assert!(n > 20, "granularity {g} appeared only {n} times");
        }
    }

    #[test]
    fn weights_bias_the_draw() {
        let spec = MixSpec {
            components: vec![
                MixComponent {
                    bot_type: BotType::paper(1_000.0),
                    weight: 9.0,
                },
                MixComponent {
                    bot_type: BotType::paper(125_000.0),
                    weight: 1.0,
                },
            ],
            intensity: Intensity::Low,
            count: 500,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let w = spec.generate(&grid(), &mut rng);
        let small = w.bags.iter().filter(|b| b.granularity == 1_000.0).count();
        assert!(small > 400, "expected ~450 small bags, got {small}");
    }

    #[test]
    fn mean_app_size_weighted() {
        let spec = MixSpec {
            components: vec![
                MixComponent {
                    bot_type: BotType {
                        granularity: 10.0,
                        app_size: 100.0,
                        jitter: 0.0,
                    },
                    weight: 1.0,
                },
                MixComponent {
                    bot_type: BotType {
                        granularity: 10.0,
                        app_size: 300.0,
                        jitter: 0.0,
                    },
                    weight: 3.0,
                },
            ],
            intensity: Intensity::Low,
            count: 1,
        };
        assert!((spec.mean_app_size() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_empty_and_oversized_mixtures() {
        // The largest component's 2 500 tasks per bag set the total.
        let mut spec = MixSpec::paper_uniform(Intensity::Low, 4_000);
        assert!(spec.validate().is_ok());
        spec.count += 1;
        assert!(spec.validate().unwrap_err().contains("1.00025e7 tasks"));
        spec.components.clear();
        let err = spec.validate().unwrap_err();
        assert_eq!(err, "mixture needs at least one component");
    }

    #[test]
    fn same_app_size_matches_single_type_lambda() {
        // A "mixture" of identical types must reproduce the plain generator's λ.
        let single = crate::generator::WorkloadSpec {
            bot_type: BotType::paper(5_000.0),
            intensity: Intensity::High,
            count: 5,
        };
        let mix = MixSpec {
            components: vec![MixComponent {
                bot_type: BotType::paper(5_000.0),
                weight: 2.0,
            }],
            intensity: Intensity::High,
            count: 5,
        };
        let mut r1 = rand::rngs::StdRng::seed_from_u64(1);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(1);
        let w1 = single.generate(&grid(), &mut r1);
        let w2 = mix.generate(&grid(), &mut r2);
        assert!((w1.lambda - w2.lambda).abs() < 1e-15);
    }
}
