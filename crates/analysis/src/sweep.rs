//! Trial identity and seeds.
//!
//! Every experiment reports the median over several independent seeds.
//! [`trial_seed`] derives them deterministically from a master seed, and
//! [`TrialKey`] names one trial, so every table in `EXPERIMENTS.md` and
//! every sweep record is reproducible bit-for-bit. The runners that
//! execute trials live in `mca-scenario`.

use crate::stats::Summary;

/// The stable identity of one trial: a scenario id plus the seed it runs
/// under. Every trial in this workspace is a pure function of its key, so
/// the key is the unit of caching, journaling, and resume — two runs of
/// the same key produce bit-identical results regardless of thread count
/// or interleaving.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrialKey {
    /// The scenario this trial runs (the scenario's unique name).
    pub scenario_id: String,
    /// The seed the trial is executed under.
    pub seed: u64,
}

impl TrialKey {
    /// Builds a key from a scenario id and seed.
    pub fn new(scenario_id: impl Into<String>, seed: u64) -> Self {
        Self {
            scenario_id: scenario_id.into(),
            seed,
        }
    }

    /// Renders the key as one journal line: `scenario_id <TAB> seed`.
    ///
    /// The format is append-only and line-oriented so a sweep journal can
    /// be written with one flushed line per completed trial and replayed
    /// by streaming lines back through [`TrialKey::parse_journal_line`].
    pub fn journal_line(&self) -> String {
        format!("{}\t{}", self.scenario_id, self.seed)
    }

    /// Parses one journal line produced by [`TrialKey::journal_line`].
    ///
    /// Returns `None` on malformed input (no tab, or a non-numeric seed) —
    /// a truncated trailing line from an interrupted writer parses as
    /// `None` and is treated as not-yet-journaled by resume logic.
    pub fn parse_journal_line(line: &str) -> Option<Self> {
        let (id, seed) = line.rsplit_once('\t')?;
        let seed = seed.parse::<u64>().ok()?;
        if id.is_empty() {
            return None;
        }
        Some(Self::new(id, seed))
    }
}

impl std::fmt::Display for TrialKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.scenario_id, self.seed)
    }
}

/// One keyed trial result: the [`TrialKey`] it was computed from plus the
/// trial's output. This is what streams out of a keyed runner, in key
/// enumeration order.
#[derive(Debug, Clone)]
pub struct KeyedTrial<T> {
    /// The key this result is a pure function of.
    pub key: TrialKey,
    /// The trial's output.
    pub result: T,
}

/// The outcome of a batch of trials of one configuration.
#[derive(Debug, Clone)]
pub struct TrialOutcome<T> {
    /// Raw per-trial results, in seed order.
    pub results: Vec<T>,
    /// Per-trial seeds used (derived from the master seed).
    pub seeds: Vec<u64>,
}

impl<T> TrialOutcome<T> {
    /// Summarizes a numeric projection of the results.
    ///
    /// # Panics
    ///
    /// Panics if there are no results.
    pub fn summarize<F: Fn(&T) -> f64>(&self, f: F) -> Summary {
        let v: Vec<f64> = self.results.iter().map(f).collect();
        Summary::of(&v)
    }

    /// Fraction of results satisfying `pred`.
    pub fn fraction<F: Fn(&T) -> bool>(&self, pred: F) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results.iter().filter(|r| pred(r)).count() as f64 / self.results.len() as f64
    }
}

/// Derives the seed for trial `i` from `master` (SplitMix64 step — distinct,
/// well-mixed streams for any master).
pub fn trial_seed(master: u64, i: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn seeds_distinct_and_deterministic() {
        let a: Vec<u64> = (0..100).map(|i| trial_seed(7, i)).collect();
        let b: Vec<u64> = (0..100).map(|i| trial_seed(7, i)).collect();
        assert_eq!(a, b);
        let set: HashSet<u64> = a.iter().copied().collect();
        assert_eq!(set.len(), 100, "trial seeds must be distinct");
        let other: Vec<u64> = (0..100).map(|i| trial_seed(8, i)).collect();
        assert_ne!(a, other);
    }

    #[test]
    fn summarize_and_fraction() {
        let out = TrialOutcome {
            results: vec![4.0, 1.0, 3.0],
            seeds: vec![1, 2, 3],
        };
        assert_eq!(out.summarize(|&x| x).median(), 3.0);
        assert_eq!(out.fraction(|&x| x >= 3.0), 2.0 / 3.0);
        let none = TrialOutcome::<f64> {
            results: vec![],
            seeds: vec![],
        };
        assert_eq!(none.fraction(|_| true), 0.0);
    }

    #[test]
    fn journal_line_round_trips() {
        let k = TrialKey::new("dense-16ch", 42);
        let line = k.journal_line();
        assert_eq!(line, "dense-16ch\t42");
        assert_eq!(TrialKey::parse_journal_line(&line), Some(k.clone()));
        assert_eq!(format!("{k}"), "dense-16ch#42");
        // Malformed lines (truncated writer, junk) parse as None.
        assert_eq!(TrialKey::parse_journal_line("no-tab"), None);
        assert_eq!(TrialKey::parse_journal_line("name\tnot-a-seed"), None);
        assert_eq!(TrialKey::parse_journal_line("\t7"), None);
        assert_eq!(TrialKey::parse_journal_line(""), None);
    }
}
