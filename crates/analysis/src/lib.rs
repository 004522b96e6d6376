//! # `mca-analysis` — experiment harness utilities
//!
//! Statistics ([`stats`]), markdown/CSV table rendering ([`table`]), and
//! seeded trial sweeps ([`sweep`]) shared by the `experiments` binary and
//! the integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stats;
pub mod sweep;
pub mod table;

pub use stats::Summary;
pub use sweep::{run_trials, trial_seed, KeyedTrial, TrialKey, TrialOutcome};
pub use table::Table;
