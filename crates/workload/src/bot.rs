//! Bag-of-Tasks applications.

use crate::task::TaskSpec;
use dgsched_des::time::SimTime;
use serde::{Deserialize, Serialize};

/// Identifies a bag within one workload (dense, in arrival order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BotId(pub u32);

impl BotId {
    /// Index into per-bag vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Arrival order: compares the raw ids. Written by hand because a derived
/// `PartialOrd` calls the `partial_cmp` that `clippy.toml` disallows.
impl Ord for BotId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for BotId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Display for BotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bag{}", self.0)
    }
}

/// A Bag-of-Tasks application as submitted to the scheduler: a set of
/// completely independent tasks arriving together at `arrival`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BagOfTasks {
    /// This bag's id (arrival order within the workload).
    pub id: BotId,
    /// Submission time.
    pub arrival: SimTime,
    /// The tasks; `tasks[i].id == TaskId(i)`.
    pub tasks: Vec<TaskSpec>,
    /// Granularity class this bag was generated from (for reporting).
    pub granularity: f64,
}

impl BagOfTasks {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the bag has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total work across tasks, in reference-seconds.
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.work).sum()
    }

    /// Validates internal consistency (dense ids, positive work).
    pub fn validate(&self) -> Result<(), String> {
        if self.tasks.is_empty() {
            return Err(format!("{} has no tasks", self.id));
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if t.id.index() != i {
                return Err(format!("{}: task id {} at position {i}", self.id, t.id));
            }
            #[allow(
                clippy::neg_cmp_op_on_partial_ord,
                reason = "`!(work > 0.0)` is true for zero, negatives AND NaN; clippy's \
                          preferred `partial_cmp` spelling is exactly the NaN-swallowing \
                          form this replaces"
            )]
            if !(t.work > 0.0) {
                let why = if t.work.is_nan() {
                    "NaN work (rejected: NaN would poison every turnaround statistic)"
                } else {
                    "non-positive work"
                };
                return Err(format!("{}: task {} has {why} ({})", self.id, t.id, t.work));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn bag() -> BagOfTasks {
        BagOfTasks {
            id: BotId(0),
            arrival: SimTime::new(5.0),
            tasks: vec![
                TaskSpec {
                    id: TaskId(0),
                    work: 10.0,
                },
                TaskSpec {
                    id: TaskId(1),
                    work: 20.0,
                },
            ],
            granularity: 15.0,
        }
    }

    #[test]
    fn totals() {
        let b = bag();
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.total_work(), 30.0);
        assert!(b.validate().is_ok());
    }

    #[test]
    fn validation_catches_problems() {
        let mut b = bag();
        b.tasks[1].id = TaskId(5);
        assert!(b.validate().is_err());
        let mut b = bag();
        b.tasks[0].work = 0.0;
        assert!(b.validate().is_err());
        let mut b = bag();
        b.tasks[0].work = f64::NAN;
        let err = b.validate().expect_err("NaN work must be rejected");
        assert!(err.contains("NaN"), "error must name the NaN cause: {err}");
        let mut b = bag();
        b.tasks[0].work = -1.0;
        assert!(b.validate().is_err());
        let mut b = bag();
        b.tasks.clear();
        assert!(b.validate().is_err());
    }
}
