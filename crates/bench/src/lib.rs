//! # `mca-bench` — experiment harness
//!
//! The paper's claim tables ([`claims`]: one registry, printed by the
//! `experiments` binary and committed as `EXPERIMENTS.md`), the committed
//! artifacts ([`artifacts`]), the scenario/sweep service ([`sweep`],
//! [`mod@serve`]) and the profiling harness ([`profile`]). Host time is
//! tracked by the repository's benchmark (`benchmark/`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary_bench;
pub mod artifacts;
pub mod claims;
pub mod flip_audit;
pub mod golden;
pub mod profile;
pub mod repair_bench;
pub mod scenario_run;
pub mod serve;
pub mod sweep;

pub use claims::{claim_tables, CLAIM_TRIALS};
pub use golden::{golden_pipeline_json, golden_trials_json, golden_trials_json_observed};
pub use profile::{
    default_profile_scenario, profile_scenario, profile_table, ProfileRun, ResolveCost,
    COVERAGE_GATE, PROFILE_SEED,
};
pub use scenario_run::{
    run_scenario, scenario_flood_trial, scenario_flood_trial_observed, ScenarioTrial,
};
pub use serve::{pending_inputs, serve, serve_once, ServeConfig, ServeReport};
pub use sweep::{run_sweep, run_sweep_file, SweepConfig, SweepError, SweepSummary};

/// Verbosity of the `experiments` binary's progress stream (stderr).
/// Set once via the global `--log-level {off,summary,verbose}` flag;
/// tables (stdout) are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum LogLevel {
    /// No progress output: stdout carries the results (`artifacts` prints
    /// only its failures), stderr only errors.
    Off,
    /// End-of-run summaries (`[wrote ...]`, `[... done in Ns]`) — the default.
    #[default]
    Summary,
    /// Summaries plus per-table timing lines.
    Verbose,
}

impl LogLevel {
    /// Parses a `--log-level` argument.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "off" => Some(LogLevel::Off),
            "summary" => Some(LogLevel::Summary),
            "verbose" => Some(LogLevel::Verbose),
            _ => None,
        }
    }
}

static LOG_LEVEL: std::sync::OnceLock<LogLevel> = std::sync::OnceLock::new();

/// Pins the progress verbosity for the process (first caller wins; later
/// calls are ignored, mirroring how thread-pool pinning behaves).
pub fn set_log_level(level: LogLevel) {
    let _ = LOG_LEVEL.set(level);
}

/// The pinned progress verbosity ([`LogLevel::Summary`] until
/// [`set_log_level`] runs).
pub fn log_level() -> LogLevel {
    LOG_LEVEL.get().copied().unwrap_or_default()
}
