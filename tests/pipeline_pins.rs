//! Pipeline-level pins for the active-set engine: `build_structure`,
//! `aggregate` and `color_nodes` slot totals and output digests on three
//! seeded worlds, recorded at the last commit whose engine polled every node
//! every slot. Roster, wake queue and `quiet_until` hints change which nodes
//! the engine *asks*, never what a run *does* — so every number in the
//! committed `scenarios/GOLDEN_pipeline.json` is the poll-everyone engine's,
//! to the bit. `mca_bench::golden_pipeline_json` is the one renderer.

use std::path::Path;

#[test]
fn pipeline_slot_totals_and_outputs_are_the_poll_everyone_engines() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/GOLDEN_pipeline.json");
    let committed = std::fs::read_to_string(&path).expect("scenarios/GOLDEN_pipeline.json");
    assert_eq!(mca_bench::golden_pipeline_json(), committed);
}
