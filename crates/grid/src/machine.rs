//! Static machine description.
//!
//! Runtime state (busy/idle, the replica being executed) belongs to the
//! simulator; this crate describes the platform itself.

use serde::{Deserialize, Serialize};

/// Identifies a machine within one grid (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MachineId(pub u32);

impl MachineId {
    /// Index into per-machine vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A machine: an independently-owned desktop PC donating cycles.
///
/// `power` follows the paper's convention: a dimensionless speed directly
/// proportional to delivered computing rate (a machine with power 10 runs a
/// task twice as fast as one with power 5). Task work is measured in
/// *reference-seconds* — seconds on a machine with power 1 — so wall-clock
/// compute time is `work / power`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// This machine's id.
    pub id: MachineId,
    /// Relative computing power (> 0).
    pub power: f64,
}

impl Machine {
    /// Wall-clock seconds this machine needs for `work` reference-seconds.
    #[inline]
    pub fn wall_time_for(&self, work: f64) -> f64 {
        work / self.power
    }

    /// Reference-seconds of work done in `wall` seconds on this machine.
    #[inline]
    pub fn work_done_in(&self, wall: f64) -> f64 {
        wall * self.power
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_scales_wall_time() {
        let m = Machine {
            id: MachineId(0),
            power: 10.0,
        };
        assert_eq!(m.wall_time_for(1000.0), 100.0);
        assert_eq!(m.work_done_in(100.0), 1000.0);
    }

    #[test]
    fn work_wall_round_trip() {
        let m = Machine {
            id: MachineId(3),
            power: 2.3,
        };
        let work = 5417.0;
        let back = m.work_done_in(m.wall_time_for(work));
        assert!((back - work).abs() < 1e-9);
    }

    #[test]
    fn id_display_and_index() {
        assert_eq!(MachineId(7).to_string(), "m7");
        assert_eq!(MachineId(7).index(), 7);
    }
}
