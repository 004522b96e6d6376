//! Golden trial metrics for the scenario catalog — the determinism
//! gate's ground truth — and the golden paper pipeline.
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
//!
//! [`golden_pipeline_json`] renders `scenarios/GOLDEN_pipeline.json`: the
//! slot totals and output digests of `build_structure`, `aggregate` and
//! `color_nodes` on three seeded worlds, as the engine that polled every
//! node every slot produced them (commit `290111a`). Roster, wake queue
//! and `quiet_until` hints change which nodes the engine *asks*, never
//! what a run *does*, so these numbers may never move without a stated
//! reason.

use crate::scenario_run::{scenario_flood_trial, scenario_flood_trial_observed, ScenarioTrial};
use mca_core::{
    aggregate, build_structure, color_nodes, AlgoConfig, InterclusterMode, MaxAgg, NetworkEnv,
    StructureConfig, SubstrateMode,
};
use mca_geom::Deployment;
use mca_scenario::builtin_scenarios;
use mca_sinr::SinrParams;
use rand::{rngs::SmallRng, SeedableRng};

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

/// The pipeline worlds: `(n, side, channels, substrate, seed)`.
const PIPELINE_WORLDS: [(usize, f64, u16, SubstrateMode, u64); 3] = [
    (260, 14.0, 8, SubstrateMode::Distributed, 21),
    (200, 12.0, 4, SubstrateMode::Oracle, 5),
    (320, 11.0, 1, SubstrateMode::Oracle, 33),
];

/// FNV-1a over the `Debug` rendering — floats print shortest-round-trip,
/// so equal digests mean equal bits.
fn digest<T: std::fmt::Debug>(value: &T) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Renders the build/aggregate/colour slot totals and output digests of
/// every pipeline world.
pub fn golden_pipeline_json() -> String {
    let worlds: Vec<String> = PIPELINE_WORLDS
        .iter()
        .map(|&(n, side, channels, substrate, seed)| {
            let params = SinrParams::default();
            let mut rng = SmallRng::seed_from_u64(seed);
            let deploy = Deployment::uniform(n, side, &mut rng);
            let env = NetworkEnv::new(params, &deploy);
            let algo = AlgoConfig::practical(channels, &params, n);
            let mut cfg = StructureConfig::new(algo, seed);
            cfg.substrate = substrate;
            let structure = build_structure(&env, &cfg);
            let inputs: Vec<i64> = (0..n).map(|i| (i as i64 * 131) % 7919).collect();
            let d_hat = env.comm_graph().diameter_approx() + 2;
            let agg = aggregate(
                &env,
                &structure,
                &algo,
                MaxAgg,
                &inputs,
                InterclusterMode::Flood,
                d_hat,
                seed ^ 0xA66,
            );
            let colors = color_nodes(&env, &structure, &algo, seed ^ 0xC01);
            format!(
                concat!(
                    "    {{\"n\": {}, \"side\": {:?}, \"channels\": {}, \"substrate\": \"{:?}\", ",
                    "\"seed\": {},\n     \"build_slots\": {}, \"structure_digest\": {}, ",
                    "\"aggregate_slots\": {}, \"values_digest\": {}, ",
                    "\"color_slots\": {}, \"colors_digest\": {}}}"
                ),
                n,
                side,
                channels,
                substrate,
                seed,
                structure.report.total_slots(),
                digest(&(&structure.records, structure.phi, &structure.report)),
                agg.total_slots(),
                digest(&(&agg.values, agg.undelivered, agg.tree_losses)),
                colors.total_slots(),
                digest(&(&colors.colors, colors.uncolored)),
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n  \"golden\": \"paper pipeline slot totals and output digests\",\n",
            "  \"contract\": \"the poll-everyone engine's numbers (commit 290111a); ",
            "digests are FNV-1a over the Debug rendering\",\n",
            "  \"worlds\": [\n{}\n  ]\n}}\n"
        ),
        worlds.join(",\n")
    )
}
