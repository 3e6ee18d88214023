//! Scenario descriptions: one cell of the paper's evaluation matrix.

use crate::policy::PolicyKind;
use crate::sim::SimConfig;
use dgsched_des::stats::StoppingRule;
use dgsched_grid::{Availability, GridConfig, Heterogeneity};
use dgsched_workload::{ArrivalModel, BotType, Intensity, MixSpec, RealisticSpec, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// The workload half of a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum WorkloadKind {
    /// A single-granularity stream (the paper's 12 workloads).
    Single(WorkloadSpec),
    /// A mixed-granularity stream (future work §5).
    Mixed(MixSpec),
    /// A single-granularity stream with bursty (hyperexponential)
    /// arrivals at the same mean rate — the burstiness ablation.
    /// `cv = 1` is the Poisson degenerate case.
    Bursty {
        /// The underlying workload description.
        spec: WorkloadSpec,
        /// Coefficient of variation of the inter-arrival gaps (≥ 1).
        cv: f64,
    },
    /// A trace-realistic stream: heavy-tail per-bag sizes, configurable
    /// task jitter and a time-varying arrival process (`dgsched gen`).
    Realistic(RealisticSpec),
}

impl WorkloadKind {
    /// Number of bags the workload will contain.
    pub fn count(&self) -> usize {
        match self {
            WorkloadKind::Single(s) => s.count,
            WorkloadKind::Mixed(m) => m.count,
            WorkloadKind::Bursty { spec, .. } => spec.count,
            WorkloadKind::Realistic(r) => r.count,
        }
    }

    /// Checks granularity/size parameters for NaN/∞/non-positive values
    /// that would hang the fill construction or poison every statistic,
    /// and the bag count and task volume that generation would allocate.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            WorkloadKind::Single(s) => s.validate(),
            WorkloadKind::Mixed(m) => m.validate(),
            WorkloadKind::Bursty { spec, cv } => {
                spec.validate()?;
                if !(cv.is_finite() && *cv >= 1.0) {
                    return Err(format!("bursty cv must be finite and >= 1, got {cv}"));
                }
                Ok(())
            }
            WorkloadKind::Realistic(r) => r.validate(),
        }
    }

    /// Generates the workload for `grid` with the given RNG.
    pub fn generate<R: rand::Rng + ?Sized>(
        &self,
        grid: &GridConfig,
        rng: &mut R,
    ) -> dgsched_workload::Workload {
        match self {
            WorkloadKind::Single(s) => s.generate(grid, rng),
            WorkloadKind::Mixed(m) => m.generate(grid, rng),
            WorkloadKind::Bursty { spec, cv } => {
                spec.generate_with(ArrivalModel::Hyperexponential { cv: *cv }, grid, rng)
            }
            WorkloadKind::Realistic(r) => r.generate(grid, rng),
        }
    }
}

/// One simulated configuration: platform × workload × policy × knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable name (used in tables and logs).
    pub name: String,
    /// The grid configuration (machines are re-materialised per
    /// replication so Het platforms vary across replications).
    pub grid: GridConfig,
    /// The workload description.
    pub workload: WorkloadKind,
    /// The bag-selection policy under test.
    pub policy: PolicyKind,
    /// Simulator knobs; the seed field is overridden per replication.
    pub sim: SimConfig,
}

impl Scenario {
    /// Validates the grid and workload halves together. Run this on every
    /// scenario read from JSON before simulating: `serde` accepts any
    /// number the wire format can carry (including `null` → NaN-shaped
    /// holes), and a non-finite power or granularity surfaces only much
    /// later as a hung builder or an all-NaN report.
    pub fn validate(&self) -> Result<(), String> {
        self.grid
            .validate()
            .map_err(|e| format!("scenario '{}': {e}", self.name))?;
        self.workload
            .validate()
            .map_err(|e| format!("scenario '{}': {e}", self.name))?;
        self.sim
            .validate()
            .map_err(|e| format!("scenario '{}': {e}", self.name))?;
        Ok(())
    }

    /// A small, fast cell: 6 bags of 20 tasks at low intensity on the
    /// Hom-HighAvail platform. The `serve --check` self-test sweeps it
    /// under [`fixed_rule`]`(2)`, and unit tests use both as fixtures.
    pub(crate) fn small(name: &str, policy: PolicyKind) -> Scenario {
        Scenario {
            name: name.into(),
            grid: GridConfig {
                total_power: 100.0,
                heterogeneity: Heterogeneity::HOM,
                availability: Availability::HIGH,
                checkpoint: Default::default(),
                outages: None,
            },
            workload: WorkloadKind::Single(WorkloadSpec {
                bot_type: BotType {
                    granularity: 1_000.0,
                    app_size: 20_000.0,
                    jitter: 0.5,
                },
                intensity: Intensity::Low,
                count: 6,
            }),
            policy,
            sim: SimConfig::default(),
        }
    }
}

/// The stopping rule that runs exactly `reps` replications.
pub(crate) fn fixed_rule(reps: u64) -> StoppingRule {
    StoppingRule {
        min_replications: reps,
        max_replications: reps,
        ..StoppingRule::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsched_grid::{Availability, Heterogeneity};
    use dgsched_workload::{BotType, Intensity};
    use rand::SeedableRng;

    #[test]
    fn workload_kind_generate_and_count() {
        let grid = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
        let single = WorkloadKind::Single(WorkloadSpec {
            bot_type: BotType::paper(25_000.0),
            intensity: Intensity::Low,
            count: 4,
        });
        assert_eq!(single.count(), 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(single.generate(&grid, &mut rng).len(), 4);

        let mixed = WorkloadKind::Mixed(MixSpec::paper_uniform(Intensity::Low, 6));
        assert_eq!(mixed.count(), 6);
        assert_eq!(mixed.generate(&grid, &mut rng).len(), 6);
    }

    #[test]
    fn validate_flags_bad_granularity() {
        let mut s = Scenario {
            name: "probe".into(),
            grid: GridConfig::paper(Heterogeneity::HOM, Availability::HIGH),
            workload: WorkloadKind::Single(WorkloadSpec {
                bot_type: BotType::paper(25_000.0),
                intensity: Intensity::Low,
                count: 4,
            }),
            policy: PolicyKind::Rr,
            sim: SimConfig::default(),
        };
        assert!(s.validate().is_ok());
        if let WorkloadKind::Single(spec) = &mut s.workload {
            spec.bot_type.granularity = f64::NAN;
        }
        let err = s.validate().unwrap_err();
        assert!(
            err.contains("probe") && err.contains("granularity"),
            "{err}"
        );
        s.workload = WorkloadKind::Bursty {
            spec: WorkloadSpec {
                bot_type: BotType::paper(1_000.0),
                intensity: Intensity::Low,
                count: 4,
            },
            cv: 0.5,
        };
        assert!(s.validate().unwrap_err().contains("cv"));
        s.grid.total_power = f64::INFINITY;
        assert!(s.validate().unwrap_err().contains("total_power"));
    }

    #[test]
    fn every_workload_kind_rejects_empty_and_oversized_workloads() {
        // Each used to validate, then panic in generation (no bags) or
        // abort the process allocating 1e17 task slots up front.
        let bot = r#"{"granularity":1,"app_size":SIZE,"jitter":0.5}"#;
        for template in [
            r#"{"kind":"single","bot_type":BOT,"intensity":"low","count":N}"#,
            r#"{"kind":"mixed","components":[{"bot_type":BOT,"weight":1}],"intensity":"low","count":N}"#,
            r#"{"kind":"bursty","spec":{"bot_type":BOT,"intensity":"low","count":N},"cv":2}"#,
            r#"{"kind":"realistic","granularity":1,"size":{"kind":"fixed","app_size":SIZE},"task_jitter":{"kind":"uniform","half_width":0.5},"arrivals":{"kind":"poisson"},"intensity":"low","count":N}"#,
        ] {
            let kind = |count: &str, size: &str| {
                let json = template.replace("BOT", bot).replace("SIZE", size);
                serde_json::from_str::<WorkloadKind>(&json.replace('N', count)).unwrap()
            };
            assert!(kind("2", "1e3").validate().is_ok(), "{template}");
            let err = kind("0", "1e3").validate().unwrap_err();
            assert_eq!(err, "count must be at least 1", "{template}");
            let err = kind("1", "1e17").validate().unwrap_err();
            assert!(err.contains("1e17 tasks"), "{err}");
        }
    }

    #[test]
    fn realistic_kind_counts_validates_and_generates() {
        use dgsched_workload::{SizeModel, TaskJitter};
        let grid = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
        let spec = RealisticSpec {
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
            count: 8,
        };
        let kind = WorkloadKind::Realistic(spec);
        assert_eq!(kind.count(), 8);
        assert!(kind.validate().is_ok());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let w = kind.generate(&grid, &mut rng);
        assert_eq!(w.len(), 8);
        assert!(w.validate().is_ok());
        // Bad axes are caught at the scenario layer, not deep in a sweep.
        let mut bad = spec;
        bad.size = SizeModel::Fixed { app_size: f64::NAN };
        assert!(WorkloadKind::Realistic(bad).validate().is_err());
        // Serde round-trips through the scenario envelope.
        let json = serde_json::to_string(&kind).unwrap();
        let back: WorkloadKind = serde_json::from_str(&json).unwrap();
        assert_eq!(kind, back);
    }

    #[test]
    fn bursty_cv_one_validates_and_generates() {
        // Regression: `cv = 1.0` passed validation but panicked in
        // `ArrivalModel::next_gap` (which asserted cv > 1). It is the
        // Poisson degenerate case and must generate cleanly.
        let kind = WorkloadKind::Bursty {
            spec: WorkloadSpec {
                bot_type: BotType::paper(25_000.0),
                intensity: Intensity::Low,
                count: 6,
            },
            cv: 1.0,
        };
        assert!(kind.validate().is_ok());
        let grid = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let w = kind.generate(&grid, &mut rng);
        assert_eq!(w.len(), 6);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn scenario_serde_round_trip() {
        let s = Scenario {
            name: "Hom-HighAvail g=1000 U=0.5 RR".into(),
            grid: GridConfig::paper(Heterogeneity::HOM, Availability::HIGH),
            workload: WorkloadKind::Single(WorkloadSpec {
                bot_type: BotType::paper(1_000.0),
                intensity: Intensity::Low,
                count: 100,
            }),
            policy: PolicyKind::Rr,
            sim: SimConfig::default(),
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
