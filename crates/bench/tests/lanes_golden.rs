//! The lane walk is what produces the goldens — the bit-exactness contract
//! of `docs/EXECUTION_MODEL.md`, pinned against the committed file.
//!
//! The in-crate proptests pin the lane walk to the scalar reference walks
//! one listener at a time; this pins it over whole runs. The catalog's
//! golden trials, regenerated in-process through the one production path —
//! the listener-lane batch walk, padded remainders included — under
//! `MCA_FORCE_PAR=1` (forced shard grid, zero pooling bar) and a pinned
//! worker count, must be the committed `scenarios/GOLDEN_trials.json`
//! byte for byte.
//!
//! Lives in its own test binary: the force-par override is read once per
//! process, so it must be set before the first `Engine` is built and
//! would leak into unrelated tests otherwise.

use mca_bench::golden_trials_json;

#[test]
fn lane_kernels_never_move_a_golden_byte_under_forced_fanout() {
    std::env::set_var("MCA_FORCE_PAR", "1");
    rayon::set_num_threads(2);
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/GOLDEN_trials.json"
    ))
    .expect("committed goldens exist");
    assert_eq!(
        golden_trials_json(),
        committed,
        "lane-walk trials diverge from the committed goldens"
    );
}
