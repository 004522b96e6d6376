//! Golden trial metrics for the scenario catalog — the determinism
//! gate's ground truth.
//!
//! [`golden_trials_json`] runs every catalog scenario through the flood
//! max-aggregation workload ([`crate::scenario_flood_trial`]) for a fixed
//! set of seeds and renders the resulting metrics as the committed
//! `scenarios/GOLDEN_trials.json` (an [`crate::artifacts`] entry). The CI
//! determinism job re-renders it under `MCA_FORCE_PAR=1` — which forces a
//! shard grid onto every engine and zeroes the pooling bar, so every
//! multi-unit slot runs on the work-stealing pool — and `experiments
//! artifacts` exits non-zero unless the metrics match the committed bytes
//! exactly. Floats are rendered with shortest-round-trip formatting, so
//! byte equality is bit equality: any pooled or sharded unit that flips a
//! single ULP anywhere in a trial fails the gate.

use crate::scenario_run::{scenario_flood_trial, scenario_flood_trial_observed, ScenarioTrial};
use mca_scenario::builtin_scenarios;

/// Seeds every catalog scenario is pinned at.
pub const GOLDEN_SEEDS: [u64; 2] = [1, 2];

/// Renders the golden trial metrics for the whole catalog.
pub fn golden_trials_json() -> String {
    render_golden(scenario_flood_trial)
}

/// Renders the same golden metrics with an `mca-obs` recorder attached to
/// every trial. Must be byte-identical to [`golden_trials_json`] —
/// `tests/pool_determinism.rs` pins this against the committed file under
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
