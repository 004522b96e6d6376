//! # `mca-analysis` — experiment harness utilities
//!
//! Statistics ([`stats`]), markdown/CSV table rendering ([`table`]), and
//! trial keys and seeds ([`sweep`]) shared by the trial runners, the
//! `experiments` binary and the integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stats;
pub mod sweep;
pub mod table;

pub use stats::Summary;
pub use sweep::{trial_seed, KeyedTrial, TrialKey, TrialOutcome};
pub use table::Table;
