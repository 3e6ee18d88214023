//! # dgsched-core — multi-BoT scheduling on Desktop Grids
//!
//! Reproduction of Anglano & Canonico, *"Scheduling Algorithms for Multiple
//! Bag-of-Task Applications on Desktop Grids: a Knowledge-Free Approach"*
//! (2008): the five knowledge-free bag-selection policies ([`policy`]),
//! the WQR-FT execution model they sit on, a discrete-event grid simulator
//! ([`sim`]) and an experiment runner that regenerates the paper's figures
//! ([`experiment`]).
//!
//! ## Quick start
//!
//! ```
//! use dgsched_core::policy::PolicyKind;
//! use dgsched_core::sim::{simulate, SimConfig};
//! use dgsched_grid::{Availability, GridConfig, Heterogeneity};
//! use dgsched_workload::{BotType, Intensity, WorkloadSpec};
//! use rand::SeedableRng;
//!
//! let grid_cfg = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let grid = grid_cfg.build(&mut rng);
//! let workload = WorkloadSpec {
//!     bot_type: BotType::paper(25_000.0),
//!     intensity: Intensity::Low,
//!     count: 5,
//! }
//! .generate(&grid_cfg, &mut rng);
//!
//! let result = simulate(&grid, &workload, PolicyKind::FcfsShare, &SimConfig::with_seed(1));
//! assert_eq!(result.completed, 5);
//! assert!(!result.saturated);
//! assert!(result.mean_turnaround() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod experiment;
pub mod policy;
pub mod serve;
pub mod sim;
pub mod state;
