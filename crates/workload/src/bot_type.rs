//! BoT application types: the paper's four granularity classes.
//!
//! §4.2: a BoT type is characterised by its *granularity* — the mean
//! execution time of its tasks on a reference machine of power 1. Actual
//! task work is uniform in `[X − 50 %, X + 50 %]`. All bags have the same
//! fixed *application size* (total work); tasks are added until their work
//! sums to it.
//!
//! The OCR of the paper drops two of the four granularity values and the
//! application size; DESIGN.md §3 reconstructs them as
//! {1000, 5000, 25000, 125000} s and 2.5 × 10⁶ reference-seconds.

use crate::dist::TaskJitter;
use crate::task::{TaskId, TaskSpec};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The reconstructed fixed application size (total work per bag) in
/// reference-seconds.
pub const PAPER_APP_SIZE: f64 = 2.5e6;

/// The reconstructed granularity ladder of §4.2, in reference-seconds.
pub const PAPER_GRANULARITIES: [f64; 4] = [1_000.0, 5_000.0, 25_000.0, 125_000.0];

/// A BoT application type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BotType {
    /// Mean task work in reference-seconds.
    pub granularity: f64,
    /// Total work per bag in reference-seconds.
    pub app_size: f64,
    /// Half-width of the uniform work jitter as a fraction of granularity
    /// (paper: 0.5, i.e. work ∈ [0.5X, 1.5X]).
    pub jitter: f64,
}

impl BotType {
    /// A paper-style type with the given granularity (app size 2.5e6,
    /// ±50 % jitter).
    pub fn paper(granularity: f64) -> Self {
        BotType {
            granularity,
            app_size: PAPER_APP_SIZE,
            jitter: 0.5,
        }
    }

    /// All four paper types, smallest granularity first.
    pub fn paper_suite() -> Vec<BotType> {
        PAPER_GRANULARITIES
            .iter()
            .map(|&g| BotType::paper(g))
            .collect()
    }

    /// Expected number of tasks per bag.
    pub fn expected_tasks(&self) -> f64 {
        self.app_size / self.granularity
    }

    /// Checks for values that would make generation hang or produce
    /// NaN/∞ task works. Call after deserialisation; the generation
    /// methods only `assert!` in debug terms of the same conditions.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.granularity.is_finite() && self.granularity > 0.0) {
            return Err(format!(
                "granularity must be finite and > 0, got {}",
                self.granularity
            ));
        }
        if !(self.app_size.is_finite() && self.app_size > 0.0) {
            return Err(format!(
                "app_size must be finite and > 0, got {}",
                self.app_size
            ));
        }
        if !(self.jitter.is_finite() && (0.0..1.0).contains(&self.jitter)) {
            return Err(format!("jitter must be in [0, 1), got {}", self.jitter));
        }
        Ok(())
    }

    /// Generates a bag's task list: tasks are appended until their work sums
    /// to the application size (§4.2's fill construction; the final task is
    /// kept even if it overshoots).
    pub fn generate_tasks<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<TaskSpec> {
        assert!((0.0..1.0).contains(&self.jitter), "jitter must be in [0,1)");
        fill_tasks(
            self.granularity,
            self.app_size,
            &TaskJitter::Uniform {
                half_width: self.jitter,
            },
            rng,
        )
    }
}

/// §4.2's fill construction for an arbitrary jitter model: tasks are
/// appended, each drawing its work from `jitter` around `granularity`,
/// until the work sums to `app_size` (the final task is kept even if it
/// overshoots). This is the shared core of [`BotType::generate_tasks`]
/// and the heavy-tail generator.
pub fn fill_tasks<R: Rng + ?Sized>(
    granularity: f64,
    app_size: f64,
    jitter: &TaskJitter,
    rng: &mut R,
) -> Vec<TaskSpec> {
    assert!(
        granularity.is_finite() && granularity > 0.0,
        "granularity must be positive and finite, got {granularity}"
    );
    assert!(
        app_size.is_finite() && app_size > 0.0,
        "application size must be positive and finite, got {app_size}"
    );
    let mut tasks = Vec::with_capacity((app_size / granularity).ceil() as usize + 1);
    let mut sum = 0.0;
    while sum < app_size {
        let work = jitter.sample(granularity, rng);
        tasks.push(TaskSpec {
            id: TaskId(tasks.len() as u32),
            work,
        });
        sum += work;
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn paper_suite_matches_reconstruction() {
        let suite = BotType::paper_suite();
        assert_eq!(suite.len(), 4);
        let gs: Vec<f64> = suite.iter().map(|t| t.granularity).collect();
        assert_eq!(gs, vec![1_000.0, 5_000.0, 25_000.0, 125_000.0]);
        // Task-count regimes quoted in §4.3: ≫ 100 machines at low
        // granularity, ≤ 100 at high.
        assert_eq!(suite[0].expected_tasks(), 2_500.0);
        assert_eq!(suite[1].expected_tasks(), 500.0);
        assert_eq!(suite[2].expected_tasks(), 100.0);
        assert_eq!(suite[3].expected_tasks(), 20.0);
    }

    #[test]
    fn tasks_fill_app_size() {
        let ty = BotType::paper(5_000.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let tasks = ty.generate_tasks(&mut rng);
        let total: f64 = tasks.iter().map(|t| t.work).sum();
        assert!(total >= ty.app_size);
        let but_last: f64 = tasks[..tasks.len() - 1].iter().map(|t| t.work).sum();
        assert!(but_last < ty.app_size);
        // Dense, ordered ids.
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.id.index(), i);
        }
    }

    #[test]
    fn work_within_jitter_band() {
        let ty = BotType::paper(1_000.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for t in ty.generate_tasks(&mut rng) {
            assert!((500.0..1500.0).contains(&t.work), "work {}", t.work);
        }
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let ty = BotType {
            granularity: 100.0,
            app_size: 1_000.0,
            jitter: 0.0,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let tasks = ty.generate_tasks(&mut rng);
        assert_eq!(tasks.len(), 10);
        assert!(tasks.iter().all(|t| t.work == 100.0));
    }

    #[test]
    fn task_count_concentrates_near_expectation() {
        let ty = BotType::paper(25_000.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for _ in 0..20 {
            let n = ty.generate_tasks(&mut rng).len();
            assert!((90..=115).contains(&n), "{n} tasks");
        }
    }
}
