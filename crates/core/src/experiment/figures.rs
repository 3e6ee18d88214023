//! The paper's figures as scenario matrices.
//!
//! Fig. 1 reports the four high-availability panels, Fig. 2 the four
//! low-availability ones; each panel sweeps the four task granularities for
//! all five policies with average turnaround time as the metric. The
//! medium-availability / medium-intensity combinations the paper summarises
//! as "do not significantly differ" are the sweep request
//! `experiments/extended.json`.

use super::scenario::{Scenario, WorkloadKind};
use crate::policy::PolicyKind;
use crate::sim::SimConfig;
use dgsched_grid::{Availability, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec, PAPER_GRANULARITIES};
use serde::{Deserialize, Serialize};

/// One panel of a figure: a (heterogeneity, availability, intensity) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanelSpec {
    /// Panel label, e.g. `"1a"`.
    pub label: String,
    /// Descriptive name, e.g. `"Hom-HighAvail, low intensity"`.
    pub title: String,
    /// Machine heterogeneity of the platform.
    pub heterogeneity: Heterogeneity,
    /// Availability level of the platform.
    pub availability: Availability,
    /// Workload intensity.
    pub intensity: Intensity,
}

fn panel(
    label: &str,
    het: Heterogeneity,
    het_name: &str,
    avail: Availability,
    avail_name: &str,
    intensity: Intensity,
) -> PanelSpec {
    PanelSpec {
        label: label.to_string(),
        title: format!("{het_name}-{avail_name}, {intensity} intensity"),
        heterogeneity: het,
        availability: avail,
        intensity,
    }
}

/// Fig. 1: the four high-availability panels (a)–(d).
pub fn fig1_panels() -> Vec<PanelSpec> {
    vec![
        panel(
            "1a",
            Heterogeneity::HOM,
            "Hom",
            Availability::HIGH,
            "HighAvail",
            Intensity::Low,
        ),
        panel(
            "1b",
            Heterogeneity::HET,
            "Het",
            Availability::HIGH,
            "HighAvail",
            Intensity::Low,
        ),
        panel(
            "1c",
            Heterogeneity::HOM,
            "Hom",
            Availability::HIGH,
            "HighAvail",
            Intensity::High,
        ),
        panel(
            "1d",
            Heterogeneity::HET,
            "Het",
            Availability::HIGH,
            "HighAvail",
            Intensity::High,
        ),
    ]
}

/// Fig. 2: the four low-availability panels (a)–(d).
pub fn fig2_panels() -> Vec<PanelSpec> {
    vec![
        panel(
            "2a",
            Heterogeneity::HOM,
            "Hom",
            Availability::LOW,
            "LowAvail",
            Intensity::Low,
        ),
        panel(
            "2b",
            Heterogeneity::HET,
            "Het",
            Availability::LOW,
            "LowAvail",
            Intensity::Low,
        ),
        panel(
            "2c",
            Heterogeneity::HOM,
            "Hom",
            Availability::LOW,
            "LowAvail",
            Intensity::High,
        ),
        panel(
            "2d",
            Heterogeneity::HET,
            "Het",
            Availability::LOW,
            "LowAvail",
            Intensity::High,
        ),
    ]
}

impl PanelSpec {
    /// The grid configuration of this panel.
    pub fn grid(&self) -> GridConfig {
        GridConfig::paper(self.heterogeneity, self.availability)
    }

    /// Expands the panel into scenarios: every paper granularity × every
    /// policy, `bags` bags per run, `warmup` bags excluded from metrics.
    pub fn scenarios(&self, bags: usize, warmup: usize) -> Vec<Scenario> {
        self.scenarios_for(&PAPER_GRANULARITIES, &PolicyKind::all(), bags, warmup)
    }

    /// Expands the panel for explicit granularities and policies.
    pub fn scenarios_for(
        &self,
        granularities: &[f64],
        policies: &[PolicyKind],
        bags: usize,
        warmup: usize,
    ) -> Vec<Scenario> {
        let grid = self.grid();
        let mut out = Vec::with_capacity(granularities.len() * policies.len());
        for &g in granularities {
            for &policy in policies {
                out.push(Scenario {
                    name: format!("{} g={g} {policy}", self.title),
                    grid,
                    workload: WorkloadKind::Single(WorkloadSpec {
                        bot_type: BotType::paper(g),
                        intensity: self.intensity,
                        count: bags,
                    }),
                    policy,
                    sim: SimConfig {
                        warmup_bags: warmup,
                        ..SimConfig::default()
                    },
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_panels_match_paper_layout() {
        let f1 = fig1_panels();
        assert_eq!(f1.len(), 4);
        assert_eq!(f1[0].label, "1a");
        assert!(f1[0].title.contains("Hom-HighAvail"));
        assert!(f1[3].title.contains("Het-HighAvail"));
        assert_eq!(f1[2].intensity, Intensity::High);
        let f2 = fig2_panels();
        assert_eq!(f2.len(), 4);
        assert!(f2.iter().all(|p| p.availability == Availability::LOW));
    }

    #[test]
    fn panel_expands_to_twenty_scenarios() {
        let p = &fig1_panels()[0];
        let scenarios = p.scenarios(100, 10);
        assert_eq!(scenarios.len(), 4 * 5);
        assert!(scenarios.iter().all(|s| s.workload.count() == 100));
        assert!(scenarios.iter().all(|s| s.sim.warmup_bags == 10));
        // All five policies appear for each granularity.
        let rr = scenarios
            .iter()
            .filter(|s| s.policy == PolicyKind::Rr)
            .count();
        assert_eq!(rr, 4);
    }
}
