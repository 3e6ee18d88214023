//! Task identity and description.

use serde::{Deserialize, Serialize};

/// Identifies a task *within its bag* (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl TaskId {
    /// Index into per-task vectors of the owning bag.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A task: an independent unit of computation inside a bag.
///
/// `work` is the task's total computation in *reference-seconds* — its
/// execution time on a machine of power 1 (the paper's granularity unit).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// This task's id within its bag.
    pub id: TaskId,
    /// Total work in reference-seconds (> 0).
    pub work: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(TaskId(4).to_string(), "t4");
        assert_eq!(TaskId(4).index(), 4);
    }

    #[test]
    fn serde_round_trip() {
        let t = TaskSpec {
            id: TaskId(1),
            work: 1234.5,
        };
        let json = serde_json::to_string(&t).unwrap();
        let back: TaskSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
