//! Workload generation: combining BoT types, arrival processes and grids
//! into the 12 workloads of §4.2 (and arbitrary custom ones).

use crate::arrival::{bag_demand, lambda_for, ArrivalModel, Intensity};
use crate::bot::{BagOfTasks, BotId};
use crate::bot_type::{fill_tasks, BotType};
use crate::dist::{SizeModel, TaskJitter};
use crate::workload::Workload;
use dgsched_des::time::SimTime;
use dgsched_grid::config::GridConfig;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The most tasks (bags × expected tasks per bag) one workload may ask
/// for: ten times the paper-scale figures' 750 000. Generation allocates
/// task lists up front, and a failed allocation aborts the process.
pub const MAX_EXPECTED_TASKS: usize = 10_000_000;

/// Checks a workload's bag count (at least one) and its expected task
/// total, `count × tasks_per_bag`, against [`MAX_EXPECTED_TASKS`].
pub(crate) fn validate_volume(count: usize, tasks_per_bag: f64) -> Result<(), String> {
    if count == 0 {
        return Err("count must be at least 1".into());
    }
    let total = count as f64 * tasks_per_bag;
    if !(total.is_finite() && total <= MAX_EXPECTED_TASKS as f64) {
        return Err(format!(
            "workload expects {total:e} tasks ({count} bags × {tasks_per_bag:e}), \
             more than the {MAX_EXPECTED_TASKS} allowed"
        ));
    }
    Ok(())
}

/// Declarative workload description: one BoT type at one intensity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// The application type every bag is drawn from.
    pub bot_type: BotType,
    /// Target grid utilization.
    pub intensity: Intensity,
    /// Number of bags to generate.
    pub count: usize,
}

impl WorkloadSpec {
    /// Checks the BoT type, the bag count and the expected task total
    /// ([`MAX_EXPECTED_TASKS`]) of a spec read from JSON.
    pub fn validate(&self) -> Result<(), String> {
        self.bot_type.validate()?;
        validate_volume(self.count, self.bot_type.expected_tasks())
    }

    /// Generates the workload for a given grid (the grid determines the
    /// effective power and hence λ) with the paper's Poisson arrivals.
    pub fn generate<R: Rng + ?Sized>(&self, grid: &GridConfig, rng: &mut R) -> Workload {
        self.generate_with(ArrivalModel::Poisson, grid, rng)
    }

    /// [`WorkloadSpec::generate`] with an explicit arrival model (e.g.
    /// bursty hyperexponential gaps at the same mean rate).
    pub fn generate_with<R: Rng + ?Sized>(
        &self,
        model: ArrivalModel,
        grid: &GridConfig,
        rng: &mut R,
    ) -> Workload {
        self.validate().expect("invalid workload spec");
        let lambda = lambda_for(self.intensity, self.bot_type.app_size, grid);
        let arrivals = model.arrival_times(lambda, self.count, rng);
        let bags = arrivals
            .into_iter()
            .enumerate()
            .map(|(i, at)| BagOfTasks {
                id: BotId(i as u32),
                arrival: SimTime::new(at),
                tasks: self.bot_type.generate_tasks(rng),
                granularity: self.bot_type.granularity,
            })
            .collect();
        Workload {
            bags,
            lambda,
            label: format!("g={} U={}", self.bot_type.granularity, self.intensity),
        }
    }
}

/// Declarative trace-realistic workload: heavy-tailed per-bag sizes,
/// configurable task-work jitter and a time-varying arrival process,
/// each axis independently selectable (the paper's model is the all-
/// defaults corner: fixed size, ±50 % uniform jitter, Poisson arrivals).
///
/// The arrival rate is still derived from the target utilization via
/// `λ = U / D`, with the demand term computed from the *mean* of the size
/// distribution, so a heavy-tail stream offers the same long-run load as
/// the paper stream it replaces — only its variability differs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RealisticSpec {
    /// Mean task work in reference-seconds (the granularity class).
    pub granularity: f64,
    /// Distribution of per-bag application sizes.
    pub size: SizeModel,
    /// Distribution of per-task work around the granularity.
    pub task_jitter: TaskJitter,
    /// Shape of the submission stream (mean rate is always λ).
    pub arrivals: ArrivalModel,
    /// Target grid utilization.
    pub intensity: Intensity,
    /// Number of bags to generate.
    pub count: usize,
}

impl RealisticSpec {
    /// Checks every axis for NaN/∞/out-of-range parameters. Call on any
    /// spec read from JSON before generating.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.granularity.is_finite() && self.granularity > 0.0) {
            return Err(format!(
                "granularity must be finite and > 0, got {}",
                self.granularity
            ));
        }
        self.size.validate().map_err(|e| format!("size: {e}"))?;
        self.task_jitter
            .validate()
            .map_err(|e| format!("task_jitter: {e}"))?;
        self.arrivals
            .validate()
            .map_err(|e| format!("arrivals: {e}"))?;
        validate_volume(self.count, self.size.mean() / self.granularity)
    }

    /// The arrival rate λ = U / D(mean size) this spec induces on `grid`.
    pub fn lambda(&self, grid: &GridConfig) -> f64 {
        self.intensity.utilization() / bag_demand(self.size.mean(), grid)
    }

    /// Generates the workload for a given grid. Seed-deterministic: the
    /// stream is a pure function of (`self`, `grid`, the RNG state).
    pub fn generate<R: Rng + ?Sized>(&self, grid: &GridConfig, rng: &mut R) -> Workload {
        self.validate().expect("invalid realistic spec");
        let lambda = self.lambda(grid);
        let mut arrivals = self.arrivals.sampler(lambda, rng);
        let bags = (0..self.count)
            .map(|i| {
                let at = arrivals.next_arrival(rng);
                let app_size = self.size.sample(rng);
                BagOfTasks {
                    id: BotId(i as u32),
                    arrival: SimTime::new(at),
                    tasks: fill_tasks(self.granularity, app_size, &self.task_jitter, rng),
                    granularity: self.granularity,
                }
            })
            .collect();
        Workload {
            bags,
            lambda,
            label: format!(
                "realistic g={} U={} {}",
                self.granularity,
                self.intensity,
                match self.size {
                    SizeModel::Fixed { .. } => "fixed",
                    SizeModel::Pareto { .. } => "pareto",
                    SizeModel::Zipf { .. } => "zipf",
                }
            ),
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
    fn generates_valid_workload() {
        let spec = WorkloadSpec {
            bot_type: BotType::paper(25_000.0),
            intensity: Intensity::Low,
            count: 20,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let w = spec.generate(&grid(), &mut rng);
        assert_eq!(w.len(), 20);
        assert!(w.validate().is_ok());
        assert!(w.label.contains("25000"));
        // Every bag carries ~app_size of work.
        for bag in &w.bags {
            assert!(bag.total_work() >= spec.bot_type.app_size);
            assert!(bag.total_work() < spec.bot_type.app_size + 2.0 * 25_000.0);
        }
    }

    #[test]
    fn workload_spec_validation_caps_the_expected_task_total() {
        let mut spec = WorkloadSpec {
            bot_type: BotType::paper(1_000.0),
            intensity: Intensity::Low,
            count: 4_000, // 4 000 × 2 500 = MAX_EXPECTED_TASKS exactly
        };
        assert!(spec.validate().is_ok());
        spec.count += 1;
        assert!(spec.validate().unwrap_err().contains("1.00025e7 tasks"));
    }

    #[test]
    fn lambda_reflects_intensity() {
        let spec_low = WorkloadSpec {
            bot_type: BotType::paper(5_000.0),
            intensity: Intensity::Low,
            count: 5,
        };
        let spec_high = WorkloadSpec {
            intensity: Intensity::High,
            ..spec_low
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let w_low = spec_low.generate(&grid(), &mut rng);
        let w_high = spec_high.generate(&grid(), &mut rng);
        assert!((w_high.lambda / w_low.lambda - 0.9 / 0.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let spec = WorkloadSpec {
            bot_type: BotType::paper(1_000.0),
            intensity: Intensity::Medium,
            count: 3,
        };
        let w1 = spec.generate(&grid(), &mut rand::rngs::StdRng::seed_from_u64(7));
        let w2 = spec.generate(&grid(), &mut rand::rngs::StdRng::seed_from_u64(7));
        assert_eq!(w1, w2);
    }

    fn heavy_tail_spec(count: usize) -> RealisticSpec {
        RealisticSpec {
            granularity: 5_000.0,
            size: SizeModel::Pareto {
                alpha: 1.5,
                min: 1.0e6,
                cap: Some(1.0e8),
            },
            task_jitter: TaskJitter::Lognormal { sigma: 1.0 },
            arrivals: ArrivalModel::Mmpp {
                burst_ratio: 9.0,
                burst_frac: 0.1,
                burst_len: 25.0,
            },
            intensity: Intensity::Low,
            count,
        }
    }

    #[test]
    fn realistic_spec_generates_valid_workload() {
        let spec = heavy_tail_spec(40);
        assert!(spec.validate().is_ok());
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        let w = spec.generate(&grid(), &mut rng);
        assert_eq!(w.len(), 40);
        assert!(w.validate().is_ok(), "{:?}", w.validate());
        // Every bag reaches its sampled size; sizes are heavy-tailed so
        // bag totals must differ (unlike the paper's fixed app size).
        for bag in &w.bags {
            assert!(bag.total_work() >= 1.0e6);
        }
        let totals: Vec<f64> = w.bags.iter().map(|b| b.total_work()).collect();
        let min = totals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = totals.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1.5, "sizes not dispersed: {min}..{max}");
    }

    #[test]
    fn realistic_spec_lambda_uses_mean_size() {
        let spec = heavy_tail_spec(5);
        let g = grid();
        let expected = spec.intensity.utilization() / bag_demand(spec.size.mean(), &g);
        assert!((spec.lambda(&g) - expected).abs() < 1e-15);
    }

    #[test]
    fn realistic_paper_corner_matches_workload_spec_lambda() {
        // The paper's workload in this vocabulary: fixed size, uniform
        // ±50 % jitter, Poisson arrivals.
        let realistic = RealisticSpec {
            granularity: 25_000.0,
            size: SizeModel::paper(),
            task_jitter: TaskJitter::paper(),
            arrivals: ArrivalModel::Poisson,
            intensity: Intensity::High,
            count: 5,
        };
        let classic = WorkloadSpec {
            bot_type: BotType::paper(25_000.0),
            intensity: Intensity::High,
            count: 5,
        };
        let g = grid();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let w = realistic.generate(&g, &mut rng);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let c = classic.generate(&g, &mut rng);
        assert!((w.lambda - c.lambda).abs() < 1e-15);
    }

    #[test]
    fn realistic_spec_is_seed_deterministic() {
        let spec = heavy_tail_spec(10);
        let w1 = spec.generate(&grid(), &mut rand::rngs::StdRng::seed_from_u64(8));
        let w2 = spec.generate(&grid(), &mut rand::rngs::StdRng::seed_from_u64(8));
        assert_eq!(w1, w2);
    }

    #[test]
    fn realistic_spec_validation_rejects_bad_axes() {
        let mut s = heavy_tail_spec(10);
        s.granularity = 0.0;
        assert!(s.validate().is_err());
        let mut s = heavy_tail_spec(10);
        s.size = SizeModel::Pareto {
            alpha: 0.5,
            min: 1.0,
            cap: None,
        };
        assert!(s.validate().unwrap_err().contains("size"));
        let mut s = heavy_tail_spec(10);
        s.arrivals = ArrivalModel::Hyperexponential { cv: 0.5 };
        assert!(s.validate().unwrap_err().contains("arrivals"));
        let mut s = heavy_tail_spec(10);
        s.count = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn realistic_spec_serde_round_trip() {
        let s = heavy_tail_spec(12);
        let json = serde_json::to_string(&s).unwrap();
        let back: RealisticSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
