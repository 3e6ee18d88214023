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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display_and_index() {
        assert_eq!(MachineId(7).to_string(), "m7");
        assert_eq!(MachineId(7).index(), 7);
    }
}
