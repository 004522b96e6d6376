//! The permanent Fast-vs-Exact flip audit (`mca_bench::flip_audit`).
//!
//! Fast mode may decode differently from Exact mode only where a
//! listener's SINR margin lies inside the bound the resolver publishes for
//! that listener. This test holds whole runs to that: every Fast catalog
//! world at the golden seeds plus one `dense-engine`-shaped slot, every
//! listen resolved in both modes, every flip tested against its own bound
//! — and the integer results equal to the committed
//! `scenarios/GOLDEN_flips.json` byte for byte, so a change to the Fast
//! index cannot move a decode without moving that file under review.

use mca_bench::flip_audit::{audit_all, check_flip_audit, golden_flips_json, DENSE_SLOT};

#[test]
fn every_flip_is_inside_its_bound_and_the_counts_are_the_committed_ones() {
    let runs = audit_all();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/GOLDEN_flips.json");
    let committed = std::fs::read_to_string(path).expect("committed flip audit");
    if let Err(e) = check_flip_audit(&runs, &committed) {
        panic!("{e}");
    }
    assert_eq!(
        golden_flips_json(&runs),
        committed,
        "regenerate with `experiments flip-audit --write` and show the old -> new table"
    );

    // The audited runs are the golden trials: what Fast mode decoded here
    // is what the committed trial metrics count as receptions.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/GOLDEN_trials.json");
    let trials = std::fs::read_to_string(path).expect("committed golden trials");
    for run in runs.iter().filter(|r| r.run != DENSE_SLOT) {
        let key = format!("\"scenario\": \"{}\", \"seed\": {},", run.run, run.seed);
        let line = trials
            .lines()
            .find(|l| l.contains(&key))
            .unwrap_or_else(|| panic!("no golden trial for {key}"));
        assert!(
            line.contains(&format!("\"receptions\": {},", run.decodes)),
            "`{}` seed {}: audited {} decodes, golden trial says {line}",
            run.run,
            run.seed,
            run.decodes
        );
    }

    // The hierarchy's price: on the dense slot the published bound stays a
    // few percent of what a listener senses.
    let slot = runs.iter().find(|r| r.run == DENSE_SLOT).expect("slot run");
    assert!(
        slot.mean_bound_ppm() <= 30_000,
        "mean bound {} ppm of total power",
        slot.mean_bound_ppm()
    );
}
