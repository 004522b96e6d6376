//! Scheduling-stress determinism suite for the persistent work-stealing
//! pool: the committed golden metrics (`scenarios/GOLDEN_trials.json`)
//! must come out **byte-identical** whatever the pool looks like —
//! any worker count, any steal schedule, any interleaving of unit
//! execution — and with an `mca-obs` recorder attached to every engine.
//! The determinism contract is architectural (per-listener
//! outcomes are pure functions of the channel's transmitter set, and the
//! merge is ordered channel-major/shard-minor), so scheduling is free to
//! be greedy; these tests are the teeth behind that claim.
//!
//! All tests force the parallel path (`MCA_FORCE_PAR=1`, read once per
//! process) and serialize through one lock because thread count and the
//! steal-stress capacity are process-global pool configuration.

use mca_bench::artifacts::{registry, Artifact, Outcome};
use mca_bench::{golden_trials_json_observed, scenario_flood_trial_observed};
use mca_scenario::builtin_scenarios;
use proptest::prelude::*;
use std::path::Path;
use std::sync::Mutex;

const GOLDEN: &str = "scenarios/GOLDEN_trials.json";

static POOL_CONFIG_LOCK: Mutex<()> = Mutex::new(());

fn config_guard() -> std::sync::MutexGuard<'static, ()> {
    // `MCA_FORCE_PAR` is latched on first engine construction; setting it
    // before taking the guard guarantees every test in this binary runs
    // the forced-parallel configuration regardless of scheduling order.
    std::env::set_var("MCA_FORCE_PAR", "1");
    POOL_CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Renders `artifact` on the live pool configuration and byte-compares it
/// against the committed file.
fn settle(artifact: &Artifact) -> Outcome {
    artifact.settle(Path::new(env!("CARGO_MANIFEST_DIR")), false)
}

/// The registered goldens, checked on the live pool configuration.
fn check_goldens() -> Outcome {
    let goldens = registry().into_iter().find(|a| a.path == GOLDEN);
    settle(&goldens.expect("the goldens are a registered artifact"))
}

fn assert_goldens(what: &str) {
    let outcome = check_goldens();
    assert!(outcome.is_ok(), "goldens diverged ({what}): {outcome}");
}

#[test]
fn goldens_byte_identical_at_every_thread_count() {
    let _g = config_guard();
    for threads in [1usize, 2, 4, 8] {
        rayon::set_num_threads(threads);
        assert_goldens(&format!("{threads} threads"));
    }
    rayon::set_num_threads(0);
}

#[test]
fn goldens_byte_identical_under_injected_steal_storm() {
    let _g = config_guard();
    // Capacity 1 funnels every submission through worker 0's one-slot
    // deque and the shared injector: workers 1..n make progress only by
    // stealing, so unit execution order bears no resemblance to
    // submission order. The bytes must not care.
    rayon::set_num_threads(8);
    rayon::set_test_deque_capacity(1);
    let steals_before = rayon::pool_stats().steals;
    assert_goldens("8 threads, deque capacity 1");
    rayon::set_test_deque_capacity(0);
    assert!(
        rayon::pool_stats().steals > steals_before,
        "the capacity funnel must actually manufacture steals"
    );
    rayon::set_num_threads(0);
}

#[test]
fn observed_goldens_byte_identical_under_forced_fanout() {
    // Observability never perturbs outcomes (`docs/OBSERVABILITY.md`).
    let _g = config_guard();
    rayon::set_num_threads(2);
    // The recorder really is live (an empty one would make the byte
    // comparison vacuous).
    let (_, rec) = scenario_flood_trial_observed(&builtin_scenarios()[0].scenario, 1);
    assert!(!rec.is_empty(), "an attached recorder must record spans");
    let outcome = settle(&Artifact::new(GOLDEN, || Ok(golden_trials_json_observed())));
    rayon::set_num_threads(0);
    assert!(outcome.is_ok(), "recorded trials diverged: {outcome}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// Random pool shapes: a drawn worker count and deque capacity give
    /// a different greedy schedule (and a different steal pattern) every
    /// case, and every case must reproduce the committed bytes.
    #[test]
    fn goldens_byte_identical_under_random_pool_shapes(
        threads in 1usize..9,
        cap in 0usize..4,
    ) {
        let _g = config_guard();
        rayon::set_num_threads(threads);
        rayon::set_test_deque_capacity(cap);
        let r = check_goldens();
        rayon::set_test_deque_capacity(0);
        rayon::set_num_threads(0);
        prop_assert!(
            r.is_ok(),
            "goldens diverged at {} threads, cap {}: {}", threads, cap, r
        );
    }
}
