//! Keyed execution of (scenario × seed) trial matrices.
//!
//! The unit of work is a [`TrialKey`] — `(scenario_id, seed)` — and every
//! trial is a pure function of its key, so results are bit-identical
//! regardless of thread count or schedule. A [`TrialSet`] enumerates keys
//! lazily (scenario-major: all seeds of scenario 0, then scenario 1, …)
//! without materializing a job list, and execution streams results into a
//! [`TrialSink`] *in enumeration order* as they complete. That ordered
//! stream is what makes checkpoint/resume free: a journal of completed
//! keys is always a prefix of the enumeration, and re-running the set with
//! that prefix skipped produces the same remaining records byte for byte.
//!
//! [`run_seeded_rows`] runs the same batch loop over rows that each derive
//! their own seeds from a master seed: the paper's claim tables, where a
//! row is one arm of a table rather than a named scenario.

use crate::spec::Scenario;
use mca_analysis::{trial_seed, KeyedTrial, TrialKey, TrialOutcome};
use rayon::prelude::*;
use std::ops::Range;

/// Trials per parallel batch during streaming execution.
///
/// Execution proceeds batch by batch: each batch is resolved across the
/// worker pool, then emitted to the sink sequentially in enumeration
/// order. The batch size bounds how much completed-but-unemitted work can
/// exist at once; it has no effect on results or on the emitted byte
/// stream (trials are pure functions of their keys).
const EMIT_BATCH: usize = 64;

/// The one trial executor: runs `trial(i)` for every `i` in `range`,
/// [`EMIT_BATCH`] indices at a time (across the worker pool when
/// `parallel`), and hands each result to `emit` in index order.
fn run_batched<T, F, E>(range: Range<usize>, parallel: bool, trial: F, mut emit: E)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    E: FnMut(usize, T),
{
    let mut next = range.start;
    while next < range.end {
        let batch = next..(next + EMIT_BATCH).min(range.end);
        let results: Vec<T> = if parallel {
            batch.clone().into_par_iter().map(&trial).collect()
        } else {
            batch.clone().map(&trial).collect()
        };
        for (i, result) in batch.clone().zip(results) {
            emit(i, result);
        }
        next = batch.end;
    }
}

/// Runs `trials` seeds of every row as one enumeration, row-major, and
/// returns each row's results in seed order.
///
/// Row `r`'s trial `i` is `trial(r, trial_seed(masters[r], i))`, so a row
/// keeps its own seed schedule whatever rows surround it, while the pool
/// sees every trial of every row at once. `trial` must be a pure function
/// of its arguments; the results are identical with `parallel` on or off.
///
/// # Examples
///
/// ```
/// use mca_analysis::trial_seed;
/// use mca_scenario::run_seeded_rows;
///
/// let rows = run_seeded_rows(&[7, 8], 3, true, |row, seed| (row, seed));
/// assert_eq!(rows[1].results[2], (1, trial_seed(8, 2)));
/// assert_eq!(rows[1].seeds, [0, 1, 2].map(|i| trial_seed(8, i)));
/// ```
pub fn run_seeded_rows<T, F>(
    masters: &[u64],
    trials: usize,
    parallel: bool,
    trial: F,
) -> Vec<TrialOutcome<T>>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let mut rows: Vec<TrialOutcome<T>> = masters
        .iter()
        .map(|&master| TrialOutcome {
            results: Vec::with_capacity(trials),
            seeds: (0..trials as u64).map(|i| trial_seed(master, i)).collect(),
        })
        .collect();
    let seeds: Vec<u64> = rows.iter().flat_map(|r| r.seeds.clone()).collect();
    run_batched(
        0..seeds.len(),
        parallel,
        |i| trial(i / trials, seeds[i]),
        |i, result| rows[i / trials].results.push(result),
    );
    rows
}

/// Validation errors raised when assembling a [`TrialSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialSetError {
    /// Two scenarios in the set share a name. Keys would collide: results
    /// could not be attributed, journals could not be replayed.
    DuplicateScenarioName(String),
}

impl std::fmt::Display for TrialSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrialSetError::DuplicateScenarioName(name) => write!(
                f,
                "duplicate scenario name {name:?}: trial keys must be unique \
                 (rename one of the scenarios)"
            ),
        }
    }
}

impl std::error::Error for TrialSetError {}

/// A streaming consumer of keyed trial results.
///
/// The runner calls [`TrialSink::record`] once per trial, strictly in key
/// enumeration order, as soon as each trial's batch has resolved. Sinks
/// therefore see a deterministic stream and can write it out (JSONL,
/// journal lines) without any reordering buffer.
pub trait TrialSink<T> {
    /// Accepts the next completed trial. Called in enumeration order.
    fn record(&mut self, trial: KeyedTrial<T>);
}

/// The ordered-collection sink: buffers every trial in enumeration order.
#[derive(Debug, Clone)]
pub struct CollectSink<T> {
    /// Every recorded trial, in key enumeration order.
    pub trials: Vec<KeyedTrial<T>>,
}

impl<T> CollectSink<T> {
    /// An empty sink.
    pub fn new() -> Self {
        CollectSink { trials: Vec::new() }
    }
}

impl<T> Default for CollectSink<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TrialSink<T> for CollectSink<T> {
    fn record(&mut self, trial: KeyedTrial<T>) {
        self.trials.push(trial);
    }
}

/// Any closure over a [`KeyedTrial`] is a sink.
impl<T, F: FnMut(KeyedTrial<T>)> TrialSink<T> for F {
    fn record(&mut self, trial: KeyedTrial<T>) {
        self(trial)
    }
}

/// A validated (scenario × seed) matrix with lazily enumerated keys.
///
/// Keys are ordered scenario-major: trial `i` runs scenario `i / seeds`
/// under seed `i % seeds`. Every scenario runs under the *same* seed list,
/// giving paired comparisons across scenarios. Scenario names are
/// validated unique at construction, so a [`TrialKey`] identifies exactly
/// one trial of the set.
///
/// # Examples
///
/// ```
/// use mca_scenario::{CollectSink, DeploymentSpec, Scenario, TrialSet};
///
/// let scenario = Scenario::builder("tiny")
///     .deployment(DeploymentSpec::Line { n: 3, spacing: 1.0 })
///     .build();
/// let set = TrialSet::with_derived_seeds(vec![scenario], 7, 4).unwrap();
/// assert_eq!(set.len(), 4);
/// let mut sink = CollectSink::new();
/// set.run_streaming(false, |s, seed| (s.len(), seed), &mut sink);
/// assert_eq!(sink.trials.len(), 4);
/// assert_eq!(sink.trials[0].key.scenario_id, "tiny");
/// ```
#[derive(Debug, Clone)]
pub struct TrialSet {
    scenarios: Vec<Scenario>,
    seeds: Vec<u64>,
}

impl TrialSet {
    /// Builds a set from explicit scenarios and seeds, validating that
    /// scenario names are unique.
    pub fn new(scenarios: Vec<Scenario>, seeds: Vec<u64>) -> Result<Self, TrialSetError> {
        for (i, s) in scenarios.iter().enumerate() {
            if scenarios[..i].iter().any(|p| p.name == s.name) {
                return Err(TrialSetError::DuplicateScenarioName(s.name.clone()));
            }
        }
        Ok(TrialSet { scenarios, seeds })
    }

    /// Builds a set whose seed list is derived from `master` via
    /// [`trial_seed`]: seed `i` is `trial_seed(master, i)`.
    pub fn with_derived_seeds(
        scenarios: Vec<Scenario>,
        master: u64,
        trials: usize,
    ) -> Result<Self, TrialSetError> {
        let seeds = (0..trials as u64).map(|i| trial_seed(master, i)).collect();
        TrialSet::new(scenarios, seeds)
    }

    /// The scenarios of the set, in enumeration order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The per-scenario seed list (shared by every scenario).
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Total number of trials (`scenarios × seeds`).
    pub fn len(&self) -> usize {
        self.scenarios.len() * self.seeds.len()
    }

    /// Whether the set contains no trials.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scenario and seed of trial `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn pair(&self, i: usize) -> (&Scenario, u64) {
        let (si, ti) = (i / self.seeds.len(), i % self.seeds.len());
        (&self.scenarios[si], self.seeds[ti])
    }

    /// The key of trial `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn key_at(&self, i: usize) -> TrialKey {
        let (s, seed) = self.pair(i);
        TrialKey::new(s.name.clone(), seed)
    }

    /// Lazily enumerates every key of the set, in execution order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = TrialKey> + '_ {
        (0..self.len()).map(|i| self.key_at(i))
    }

    /// The enumeration index of `key`, if it names a trial of this set.
    pub fn position(&self, key: &TrialKey) -> Option<usize> {
        let si = self
            .scenarios
            .iter()
            .position(|s| s.name == key.scenario_id)?;
        let ti = self.seeds.iter().position(|&s| s == key.seed)?;
        Some(si * self.seeds.len() + ti)
    }

    /// Runs every trial of the set, streaming results into `sink` in
    /// enumeration order.
    ///
    /// `trial` must be a pure function of its arguments. With `parallel`
    /// set, each fixed-size batch of trials resolves across the worker
    /// pool; emission order (and therefore every byte a sink writes) is
    /// identical either way.
    pub fn run_streaming<T, F, S>(&self, parallel: bool, trial: F, sink: &mut S)
    where
        T: Send,
        F: Fn(&Scenario, u64) -> T + Sync,
        S: TrialSink<T> + ?Sized,
    {
        self.run_range(0..self.len(), parallel, trial, sink)
    }

    /// Runs the trials whose enumeration indices fall in `range` (clamped
    /// to the set), streaming results into `sink` in enumeration order.
    ///
    /// This is the resume primitive: a sweep that has journaled its first
    /// `k` trials re-runs as `run_range(k..len, …)` and the emitted stream
    /// continues exactly where the interrupted run stopped.
    pub fn run_range<T, F, S>(&self, range: Range<usize>, parallel: bool, trial: F, sink: &mut S)
    where
        T: Send,
        F: Fn(&Scenario, u64) -> T + Sync,
        S: TrialSink<T> + ?Sized,
    {
        let end = range.end.min(self.len());
        run_batched(
            range.start.min(end)..end,
            parallel,
            |i| {
                let (s, seed) = self.pair(i);
                trial(s, seed)
            },
            |i, result| {
                sink.record(KeyedTrial {
                    key: self.key_at(i),
                    result,
                })
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeploymentSpec;

    fn tiny(name: &str, n: usize) -> Scenario {
        Scenario::builder(name)
            .deployment(DeploymentSpec::Uniform { n, side: 5.0 })
            .build()
    }

    #[test]
    fn seeded_rows_run_as_one_enumeration_with_their_own_seeds() {
        // 5 rows x 30 trials: every 64-trial batch straddles a row boundary.
        // Two rows share a master, as the arms of one table may.
        let masters = [1200, 7, 1200, u64::MAX, 0];
        let f = |row: usize, seed: u64| (row, seed.rotate_left(17) ^ 0x5EED);
        for parallel in [false, true] {
            let rows = run_seeded_rows(&masters, 30, parallel, f);
            assert_eq!(rows.len(), masters.len());
            for (row, (out, &master)) in rows.iter().zip(&masters).enumerate() {
                let seeds: Vec<u64> = (0..30).map(|i| trial_seed(master, i)).collect();
                let expect: Vec<_> = seeds.iter().map(|&s| f(row, s)).collect();
                assert_eq!(out.seeds, seeds, "row {row} (parallel: {parallel})");
                assert_eq!(out.results, expect, "row {row} (parallel: {parallel})");
            }
        }
        let empty = run_seeded_rows(&masters, 0, true, f);
        assert!(empty
            .iter()
            .all(|r| r.results.is_empty() && r.seeds.is_empty()));
    }

    #[test]
    fn keys_enumerate_scenario_major_and_lazily() {
        let set = TrialSet::new(vec![tiny("a", 2), tiny("b", 2)], vec![10, 20]).unwrap();
        assert_eq!(set.len(), 4);
        let keys: Vec<TrialKey> = set.keys().collect();
        assert_eq!(keys[0], TrialKey::new("a", 10));
        assert_eq!(keys[1], TrialKey::new("a", 20));
        assert_eq!(keys[2], TrialKey::new("b", 10));
        assert_eq!(keys[3], TrialKey::new("b", 20));
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(set.key_at(i), *k);
            assert_eq!(set.position(k), Some(i));
        }
        assert_eq!(set.position(&TrialKey::new("c", 10)), None);
        assert_eq!(set.position(&TrialKey::new("a", 30)), None);
    }

    #[test]
    fn duplicate_scenario_names_are_rejected() {
        let err = TrialSet::new(vec![tiny("same", 2), tiny("same", 3)], vec![1]).unwrap_err();
        assert_eq!(err, TrialSetError::DuplicateScenarioName("same".into()));
        assert!(err.to_string().contains("\"same\""), "{err}");
    }

    #[test]
    fn streaming_emits_in_enumeration_order_under_parallelism() {
        let set =
            TrialSet::with_derived_seeds(vec![tiny("a", 3), tiny("b", 3), tiny("c", 3)], 9, 50)
                .unwrap();
        let mut seq_stream = Vec::new();
        set.run_streaming(
            false,
            |s, seed| format!("{}:{seed}", s.name),
            &mut |t: KeyedTrial<String>| seq_stream.push(t.result),
        );
        let mut par_stream = Vec::new();
        set.run_streaming(
            true,
            |s, seed| format!("{}:{seed}", s.name),
            &mut |t: KeyedTrial<String>| par_stream.push(t.result),
        );
        assert_eq!(seq_stream.len(), set.len());
        assert_eq!(
            seq_stream, par_stream,
            "emission order must not depend on schedule"
        );
    }

    #[test]
    fn run_range_resumes_exactly_where_a_prefix_stopped() {
        let set = TrialSet::with_derived_seeds(vec![tiny("a", 2), tiny("b", 2)], 4, 7).unwrap();
        let trial = |s: &Scenario, seed: u64| (s.name.clone(), seed);
        let mut full = CollectSink::new();
        set.run_streaming(true, trial, &mut full);
        // Interrupt after k trials, then resume from k: the concatenation
        // must equal the uninterrupted stream, for every split point.
        for k in 0..=set.len() {
            let mut head = CollectSink::new();
            set.run_range(0..k, true, trial, &mut head);
            let mut tail = CollectSink::new();
            set.run_range(k..set.len(), true, trial, &mut tail);
            assert_eq!(head.trials.len(), k);
            let glued: Vec<_> = head.trials.iter().chain(&tail.trials).collect();
            for (a, b) in glued.iter().zip(&full.trials) {
                assert_eq!(a.key, b.key);
                assert_eq!(a.result, b.result);
            }
            assert_eq!(glued.len(), full.trials.len());
        }
    }

    #[test]
    fn empty_sets_and_out_of_range_are_safe() {
        let set = TrialSet::new(vec![tiny("a", 2)], vec![]).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.keys().count(), 0);
        let mut sink = CollectSink::<u64>::new();
        set.run_streaming(true, |_, seed| seed, &mut sink);
        assert!(sink.trials.is_empty());
        let set = TrialSet::new(vec![tiny("a", 2)], vec![1, 2]).unwrap();
        let mut sink = CollectSink::<u64>::new();
        set.run_range(5..99, true, |_, seed| seed, &mut sink);
        assert!(sink.trials.is_empty());
    }
}
