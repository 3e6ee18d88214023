//! # dgsched-workload — Bag-of-Task workload substrate
//!
//! Implements §4.2 of Anglano & Canonico (2008): BoT applications defined
//! by task granularity and a fixed application size, arriving as a Poisson
//! stream whose rate is derived from a target grid utilization via the
//! operational law `λ = U / D`.
//!
//! * [`task`], [`bot`] — tasks and bags;
//! * [`bot_type`] — the four granularity classes and the fill-to-app-size
//!   task construction;
//! * [`arrival`] — demand/λ derivation and the arrival processes
//!   (Poisson, hyperexponential, diurnal, 2-state MMPP);
//! * [`dist`] — heavy-tail size distributions (Pareto/Zipf) and task-work
//!   jitter models (uniform/lognormal) for trace-realistic streams;
//! * [`generator`] — the 12 paper workloads and the trace-realistic
//!   [`RealisticSpec`] generator;
//! * [`mix`] — mixed-granularity workloads (the paper's future work §5).
//!
//! ## Example
//!
//! ```
//! use dgsched_workload::{BotType, Intensity, WorkloadSpec};
//! use dgsched_grid::{Availability, GridConfig, Heterogeneity};
//! use rand::SeedableRng;
//!
//! let grid = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
//! let spec = WorkloadSpec {
//!     bot_type: BotType::paper(25_000.0),
//!     intensity: Intensity::Low,
//!     count: 10,
//! };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let workload = spec.generate(&grid, &mut rng);
//! assert_eq!(workload.len(), 10);
//! workload.validate().unwrap();
//! ```

#![warn(missing_docs)]

pub mod arrival;
pub mod bot;
pub mod bot_type;
pub mod dist;
pub mod generator;
pub mod mix;
pub mod summary;
pub mod task;
pub mod workload;

pub use arrival::{bag_demand, ArrivalModel, Intensity};
pub use bot::{BagOfTasks, BotId};
pub use bot_type::{BotType, PAPER_APP_SIZE, PAPER_GRANULARITIES};
pub use dist::{SizeModel, TaskJitter};
pub use generator::{RealisticSpec, WorkloadSpec, MAX_EXPECTED_TASKS};
pub use mix::MixSpec;
pub use summary::WorkloadSummary;
pub use task::{TaskId, TaskSpec};
pub use workload::Workload;
