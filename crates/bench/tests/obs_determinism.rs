//! Observability can never perturb outcomes — the determinism contract of
//! `docs/OBSERVABILITY.md`, pinned against the committed goldens.
//!
//! With a recorder attached to every engine, the catalog's golden trials
//! must stay *byte-identical* to `scenarios/GOLDEN_trials.json`, under
//! `MCA_FORCE_PAR=1` (forced shard grid + zero pooling bar) and a pinned
//! worker count.
//! Lives in its own test binary: the force-par override is read once per
//! process, so it must be set before the first `Engine` is built and
//! would leak into unrelated tests otherwise.

use mca_bench::{golden_trials_json_observed, scenario_flood_trial_observed};
use mca_scenario::builtin_scenarios;

#[test]
fn observed_goldens_stay_byte_identical_under_forced_fanout() {
    std::env::set_var("MCA_FORCE_PAR", "1");
    rayon::set_num_threads(2);

    // The recorder really is live (an empty one would make the byte
    // comparison vacuous).
    let entry = &builtin_scenarios()[0];
    let (_, rec) = scenario_flood_trial_observed(&entry.scenario, 1);
    assert!(!rec.is_empty(), "an attached recorder must record spans");

    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/GOLDEN_trials.json"
    ))
    .expect("committed goldens exist");
    let observed = golden_trials_json_observed();
    assert_eq!(
        observed, committed,
        "recorded trials diverge from the committed goldens"
    );
}
