//! Pipeline-level pins for the active-set engine: `build_structure`,
//! `aggregate` and `color_nodes` slot totals and outputs on three seeded
//! worlds, recorded at the last commit whose engine polled every node every
//! slot. Roster, wake queue and `quiet_until` hints change which nodes the
//! engine *asks*, never what a run *does* — so every number below is the
//! poll-everyone engine's, to the bit.

use multichannel_adhoc::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

/// FNV-1a over the `Debug` rendering — floats print shortest-round-trip,
/// so equal digests mean equal bits.
fn digest<T: std::fmt::Debug>(value: &T) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `(build slots, records digest, aggregate slots, values digest,
/// colouring slots, colours digest)` of the whole pipeline on one world.
fn pipeline(
    n: usize,
    side: f64,
    channels: u16,
    substrate: SubstrateMode,
    seed: u64,
) -> (u64, u64, u64, u64, u64, u64) {
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
    (
        structure.report.total_slots(),
        digest(&(&structure.records, structure.phi, &structure.report)),
        agg.total_slots(),
        digest(&(&agg.values, agg.undelivered, agg.tree_losses)),
        colors.total_slots(),
        digest(&(&colors.colors, colors.uncolored)),
    )
}

#[test]
fn pipeline_slot_totals_and_outputs_are_the_poll_everyone_engines() {
    let worlds = [
        (260, 14.0, 8, SubstrateMode::Distributed, 21),
        (200, 12.0, 4, SubstrateMode::Oracle, 5),
        (320, 11.0, 1, SubstrateMode::Oracle, 33),
    ];
    let got = worlds
        .map(|(n, side, channels, substrate, seed)| pipeline(n, side, channels, substrate, seed));
    assert_eq!(got, PINS);
}

/// Recorded at commit 290111a (poll-everyone engine).
#[rustfmt::skip]
const PINS: [(u64, u64, u64, u64, u64, u64); 3] = [
    (16582, 5406905191279025547, 10701, 16320080411763196514, 3374, 6996095480545031777),
    (14776, 5617267544686511886, 13336, 4031193206920217106, 5215, 11886676129208842202),
    (17911, 4386584732104994418, 14760, 11566823538980353842, 5986, 13962623447253395968),
];
