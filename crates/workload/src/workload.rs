//! A complete workload: the bag stream one simulation run consumes.

use crate::bot::BagOfTasks;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// An ordered stream of bags, plus the metadata used to generate it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Bags in arrival order; `bags[i].id == BotId(i)`.
    pub bags: Vec<BagOfTasks>,
    /// Arrival rate the stream was generated with (bags per second).
    pub lambda: f64,
    /// Human-readable description (e.g. "g=25000 U=0.9").
    pub label: String,
}

impl Workload {
    /// Number of bags.
    pub fn len(&self) -> usize {
        self.bags.len()
    }

    /// True when there are no bags.
    pub fn is_empty(&self) -> bool {
        self.bags.is_empty()
    }

    /// Total work across all bags, in reference-seconds.
    pub fn total_work(&self) -> f64 {
        self.bags.iter().map(|b| b.total_work()).sum()
    }

    /// Total number of tasks across all bags.
    pub fn total_tasks(&self) -> usize {
        self.bags.iter().map(|b| b.len()).sum()
    }

    /// Saves the workload as JSON (floats round-trip exactly, so a saved
    /// workload replays bit-identically).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string(self).expect("workload serialises");
        std::fs::write(path, json)
    }

    /// Loads a workload saved by [`Workload::save`], validating it.
    pub fn load(path: &Path) -> std::io::Result<Workload> {
        let data = std::fs::read_to_string(path)?;
        let w: Workload = serde_json::from_str(&data)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        w.validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(w)
    }

    /// Validates ordering and per-bag consistency.
    pub fn validate(&self) -> Result<(), String> {
        for (i, bag) in self.bags.iter().enumerate() {
            if bag.id.index() != i {
                return Err(format!("bag id {} at position {i}", bag.id));
            }
            bag.validate()?;
            if i > 0 && bag.arrival < self.bags[i - 1].arrival {
                return Err(format!("{} arrives before its predecessor", bag.id));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bot::BotId;
    use crate::task::{TaskId, TaskSpec};
    use dgsched_des::time::SimTime;

    fn tiny() -> Workload {
        let mk = |i: u32, at: f64| BagOfTasks {
            id: BotId(i),
            arrival: SimTime::new(at),
            tasks: vec![TaskSpec {
                id: TaskId(0),
                work: 100.0,
            }],
            granularity: 100.0,
        };
        Workload {
            bags: vec![mk(0, 1.0), mk(1, 2.0)],
            lambda: 0.5,
            label: "tiny".into(),
        }
    }

    #[test]
    fn totals_and_validation() {
        let w = tiny();
        assert_eq!(w.len(), 2);
        assert_eq!(w.total_tasks(), 2);
        assert_eq!(w.total_work(), 200.0);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn validation_rejects_unordered_arrivals() {
        let mut w = tiny();
        w.bags[1].arrival = SimTime::new(0.5);
        assert!(w.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_ids() {
        let mut w = tiny();
        w.bags[1].id = BotId(7);
        assert!(w.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let w = tiny();
        let json = serde_json::to_string(&w).unwrap();
        let back: Workload = serde_json::from_str(&json).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("dgsched-workload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.json");
        let w = tiny();
        w.save(&path).unwrap();
        let back = Workload::load(&path).unwrap();
        assert_eq!(w, back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_invalid_workload() {
        let dir = std::env::temp_dir().join("dgsched-workload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        let mut w = tiny();
        w.bags[1].arrival = SimTime::new(0.1); // out of order
        std::fs::write(&path, serde_json::to_string(&w).unwrap()).unwrap();
        assert!(Workload::load(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
