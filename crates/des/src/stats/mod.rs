//! Output-analysis toolkit: streaming moments, confidence intervals,
//! stopping rules and time-weighted signals.

mod ci;
mod timeweighted;
mod welford;

pub use ci::{normal_quantile, t_critical, ConfidenceInterval, StoppingRule};
pub use timeweighted::TimeWeighted;
pub use welford::Welford;
