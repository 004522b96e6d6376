//! Golden trial metrics for the scenario catalog — the CI determinism
//! gate's ground truth.
//!
//! `experiments golden-trials --write` runs every catalog scenario through
//! the flood max-aggregation workload ([`crate::scenario_flood_trial`])
//! for a fixed set of seeds and commits the resulting metrics to
//! `scenarios/GOLDEN_trials.json`. The CI determinism job re-runs the same
//! trials under `MCA_FORCE_PAR=1` — which forces a shard grid onto every
//! engine and zeroes the pooling bar, so every multi-unit slot runs on
//! the work-stealing pool — and
//! `experiments golden-trials` (check mode) exits non-zero unless the
//! regenerated metrics match the committed bytes exactly. Floats are
//! rendered with shortest-round-trip formatting, so byte equality is bit
//! equality: any pooled or sharded unit that flips a single ULP anywhere
//! in a trial fails the gate.

use crate::scenario_run::{scenario_flood_trial, scenario_flood_trial_observed, ScenarioTrial};
use mca_scenario::builtin_scenarios;

/// Seeds every catalog scenario is pinned at.
pub const GOLDEN_SEEDS: [u64; 2] = [1, 2];

/// Renders the golden trial metrics for the whole catalog.
pub fn golden_trials_json() -> String {
    render_golden(scenario_flood_trial)
}

/// Renders the same golden metrics with an `mca-obs` recorder attached to
/// every trial. Must be byte-identical to [`golden_trials_json`] — the
/// obs determinism test pins this against the committed file under
/// `MCA_FORCE_PAR=1`.
pub fn golden_trials_json_observed() -> String {
    render_golden(|scenario, seed| scenario_flood_trial_observed(scenario, seed).0)
}

fn render_golden(trial: impl Fn(&mca_scenario::Scenario, u64) -> ScenarioTrial) -> String {
    let mut entries = Vec::new();
    for entry in builtin_scenarios() {
        for seed in GOLDEN_SEEDS {
            entries.push(golden_trial_entry(
                &entry.scenario.name,
                seed,
                &trial(&entry.scenario, seed),
            ));
        }
    }
    format!(
        concat!(
            "{{\n  \"golden\": \"scenario flood trials\",\n",
            "  \"contract\": \"bit-identical under MCA_FORCE_PAR=1 (forced shard grid + zero pooling bar)\",\n",
            "  \"trials\": [\n{}\n  ]\n}}\n"
        ),
        entries.join(",\n")
    )
}

/// One golden line: the bit-comparable metrics of `(scenario, seed)`.
fn golden_trial_entry(name: &str, seed: u64, t: &ScenarioTrial) -> String {
    format!(
        concat!(
            "    {{\"scenario\": \"{}\", \"seed\": {}, \"coverage\": {:?}, ",
            "\"full_coverage\": {}, \"receptions\": {}, \"busy_failures\": {}, ",
            "\"env_drops\": {}, \"slots\": {}}}"
        ),
        name,
        seed,
        t.coverage,
        t.full_coverage,
        t.receptions,
        t.busy_failures,
        t.env_drops,
        t.slots,
    )
}

/// Checks the committed golden file at `path` against freshly computed
/// metrics. Returns `Ok(())` on an exact byte match, or a description of
/// the first divergence.
pub fn check_golden_trials(path: &str) -> Result<(), String> {
    let committed = std::fs::read_to_string(path).map_err(|e| {
        format!("cannot read {path}: {e} (run `experiments golden-trials --write`?)")
    })?;
    let fresh = golden_trials_json();
    if committed == fresh {
        return Ok(());
    }
    for (i, (a, b)) in committed.lines().zip(fresh.lines()).enumerate() {
        if a != b {
            return Err(format!(
                "{path}:{}: committed metrics diverge\n  committed: {a}\n  computed:  {b}",
                i + 1
            ));
        }
    }
    Err(format!(
        "{path}: committed metrics diverge in length ({} vs {} bytes)",
        committed.len(),
        fresh.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_entries_are_byte_stable() {
        // One cheap scenario, regenerated twice: the byte-for-byte replay
        // property that check mode (and the CI determinism gate) rests on.
        // Full-catalog coverage runs in CI via `experiments golden-trials`.
        let entry = &builtin_scenarios()[0];
        let name = &entry.scenario.name;
        let a = golden_trial_entry(
            name,
            GOLDEN_SEEDS[0],
            &scenario_flood_trial(&entry.scenario, GOLDEN_SEEDS[0]),
        );
        let b = golden_trial_entry(
            name,
            GOLDEN_SEEDS[0],
            &scenario_flood_trial(&entry.scenario, GOLDEN_SEEDS[0]),
        );
        assert_eq!(a, b);
        assert!(a.contains("\"scenario\": \"static-uniform\""), "{a}");
        assert!(a.contains("\"receptions\": "), "{a}");
    }
}
