//! # dgsched-grid — the Desktop Grid substrate
//!
//! Models the platform of Anglano & Canonico (2008), §4.1: independently
//! owned machines of heterogeneous power that fail and recover without
//! notice, plus the checkpoint server the WQR-FT scheduler relies on.
//!
//! * [`machine`] — machine descriptions (id, relative power);
//! * [`power`] — heterogeneity presets (`Hom`, `Het`) and the
//!   fill-to-total-power construction;
//! * [`availability`] — the alternating Weibull/Normal renewal process and
//!   the High/Med/Low calibration;
//! * [`checkpoint`] — Young's interval, transfer costs, the checkpoint
//!   store;
//! * [`config`] — the six named platforms and the grid builder.
//!
//! ## Example
//!
//! ```
//! use dgsched_grid::config::GridConfig;
//! use dgsched_grid::power::Heterogeneity;
//! use dgsched_grid::availability::Availability;
//! use rand::SeedableRng;
//!
//! let cfg = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let grid = cfg.build(&mut rng);
//! assert_eq!(grid.len(), 100);            // Hom: 100 machines of power 10
//! assert!(cfg.effective_power() < 1000.0); // failures + checkpoints
//! ```

#![warn(missing_docs)]

pub mod availability;
pub mod checkpoint;
pub mod config;
pub mod machine;
pub mod outage;
pub mod power;

pub use availability::Availability;
pub use checkpoint::CheckpointConfig;
pub use config::{Grid, GridConfig};
pub use machine::MachineId;
pub use outage::OutageConfig;
pub use power::Heterogeneity;
