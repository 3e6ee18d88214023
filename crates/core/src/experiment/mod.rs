//! Experiment infrastructure: scenario descriptions, the replication
//! runner with the paper's sequential stopping rule, figure definitions
//! and table emitters.

mod figures;
mod journal;
mod record_log;
mod regret;
mod runner;
mod scenario;
mod table;

pub use figures::{fig1_panels, fig2_panels, PanelSpec};
pub use journal::{
    canonical_oracle_bytes, canonical_sweep_bytes, oracle_fingerprint, run_matrix_journaled,
    run_matrix_journaled_indexed, run_matrix_journaled_with, run_matrix_journaled_with_progress,
    sweep_fingerprint, JournalOutcome, JournalStats, RepGuard, RepIndex,
};
pub(crate) use journal::{fingerprint_canonical, KeySpace};
pub(crate) use record_log::sync_dir;
pub use regret::{
    check_resumed_search, oracle_replication, run_matrix_regret, run_matrix_regret_journaled,
    OracleConfig, OracleJournalStats, OracleReplication, RegretSection, ResumeCheck,
};
pub use runner::{
    obs_enabled, replication_inputs, run_matrix, run_matrix_with_progress, run_replication,
    run_replication_instrumented, run_replication_traced, run_scenario, ScenarioResult,
};
pub(crate) use scenario::fixed_rule;
pub use scenario::{Scenario, WorkloadKind};
pub use table::{format_cell, pivot_table, Table};
