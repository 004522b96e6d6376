//! End-to-end integration tests: full pipeline on random deployments.

use multichannel_adhoc::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

fn setup(
    n: usize,
    side: f64,
    channels: u16,
    substrate: SubstrateMode,
    seed: u64,
) -> (
    NetworkEnv,
    AggregationStructure,
    AlgoConfig,
    StructureConfig,
) {
    let params = SinrParams::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let deploy = Deployment::uniform(n, side, &mut rng);
    let env = NetworkEnv::new(params, &deploy);
    let algo = AlgoConfig::practical(channels, &params, n);
    let mut cfg = StructureConfig::new(algo, seed);
    cfg.substrate = substrate;
    let structure = build_structure(&env, &cfg);
    (env, structure, algo, cfg)
}

#[test]
fn max_aggregation_is_exact_with_distributed_substrate() {
    let (env, structure, algo, cfg) = setup(220, 13.0, 8, SubstrateMode::Distributed, 2);
    audit_structure(&env, &structure, cfg.cluster_radius).assert_sound();
    let inputs: Vec<i64> = (0..220).map(|i| (i as i64 * 131) % 7919).collect();
    let expect = *inputs.iter().max().unwrap();
    let d_hat = env.comm_graph().diameter_approx() + 2;
    let out = aggregate(
        &env,
        &structure,
        &algo,
        MaxAgg,
        &inputs,
        InterclusterMode::Flood,
        d_hat,
        11,
    );
    assert_eq!(out.undelivered, 0);
    let holders = out.values.iter().filter(|v| **v == Some(expect)).count();
    assert!(
        holders * 10 >= 220 * 9,
        "only {holders}/220 learned the max"
    );
}

#[test]
fn exact_sum_counts_every_node() {
    let (env, structure, algo, _) = setup(180, 12.0, 4, SubstrateMode::Oracle, 3);
    let inputs = vec![1i64; 180];
    let d_hat = env.comm_graph().diameter_approx() + 2;
    let out = aggregate(
        &env,
        &structure,
        &algo,
        SumAgg,
        &inputs,
        InterclusterMode::Exact { sink: NodeId(7) },
        d_hat,
        5,
    );
    assert_eq!(out.undelivered, 0, "lost inputs");
    assert_eq!(out.tree_losses, 0, "lost subtrees");
    assert_eq!(out.values[7], Some(180), "sink must see the exact count");
}

#[test]
fn average_aggregation_matches_ground_truth() {
    let (env, structure, algo, _) = setup(160, 11.0, 8, SubstrateMode::Oracle, 7);
    let temps: Vec<f64> = (0..160).map(|i| 15.0 + (i % 13) as f64).collect();
    let truth = temps.iter().sum::<f64>() / 160.0;
    let inputs: Vec<AvgValue> = temps.iter().map(|&t| AvgValue::sample(t)).collect();
    let d_hat = env.comm_graph().diameter_approx() + 2;
    let out = aggregate(
        &env,
        &structure,
        &algo,
        AvgAgg,
        &inputs,
        InterclusterMode::Exact { sink: NodeId(0) },
        d_hat,
        9,
    );
    let got = out.values[0].as_ref().and_then(|v| v.mean()).unwrap();
    assert!((got - truth).abs() < 1e-9, "avg {got} vs truth {truth}");
}

#[test]
fn fm_sketch_census_rides_the_flood() {
    let (env, structure, algo, _) = setup(200, 12.0, 8, SubstrateMode::Oracle, 13);
    let inputs: Vec<FmValue> = (0..200).map(|i| FmValue::of_item(i as u64)).collect();
    let d_hat = env.comm_graph().diameter_approx() + 2;
    let out = aggregate(
        &env,
        &structure,
        &algo,
        FmSketch,
        &inputs,
        InterclusterMode::Flood,
        d_hat,
        15,
    );
    let est = out.values[0].as_ref().unwrap().estimate();
    assert!(
        est > 100.0 && est < 400.0,
        "census {est} too far from n = 200"
    );
}

#[test]
fn coloring_is_proper_end_to_end() {
    let (env, structure, algo, _) = setup(200, 12.0, 8, SubstrateMode::Distributed, 17);
    let out = color_nodes(&env, &structure, &algo, 17);
    assert_eq!(out.uncolored, 0);
    let colors: Vec<u32> = out.colors.iter().map(|c| c.unwrap()).collect();
    let g = env.comm_graph();
    assert_eq!(g.coloring_violation(&colors), None);
    assert!(
        out.palette_size() <= 12 * (g.max_degree() + 1),
        "palette {} vs Δ {}",
        out.palette_size(),
        g.max_degree()
    );
}

#[test]
fn determinism_same_seed_same_everything() {
    let run = || {
        let (env, structure, algo, _) = setup(120, 10.0, 4, SubstrateMode::Distributed, 23);
        let inputs: Vec<i64> = (0..120).map(|i| i as i64).collect();
        let d_hat = env.comm_graph().diameter_approx() + 2;
        let out = aggregate(
            &env,
            &structure,
            &algo,
            MaxAgg,
            &inputs,
            InterclusterMode::Flood,
            d_hat,
            29,
        );
        let col = color_nodes(&env, &structure, &algo, 29);
        (
            structure.report.total_slots(),
            structure.phi,
            [out.follower_slots, out.tree_slots, out.inter_slots],
            out.values.clone(),
            [col.p1_slots, col.p2_slots, col.p3_slots, col.p4_slots],
            col.colors,
        )
    };
    let first = run();
    assert_eq!(first, run(), "whole pipeline must replay bit-for-bit");
    // The per-procedure split that `GOLDEN_pipeline.json` (totals only)
    // does not pin: aggregation's follower / tree / inter-cluster slots and
    // colouring's four procedures.
    assert_eq!(
        first.2,
        [2291, 100, 5801],
        "aggregate's per-procedure slots moved"
    );
    assert_eq!(
        first.4,
        [2102, 100, 25, 251],
        "color_nodes' per-procedure slots moved"
    );
}

#[test]
fn single_channel_network_still_works() {
    // F = 1 degrades gracefully to a single-channel algorithm.
    let (env, structure, algo, _) = setup(150, 10.0, 1, SubstrateMode::Oracle, 31);
    let inputs: Vec<i64> = (0..150).map(|i| i as i64 % 97).collect();
    let expect = *inputs.iter().max().unwrap();
    let d_hat = env.comm_graph().diameter_approx() + 2;
    let out = aggregate(
        &env,
        &structure,
        &algo,
        MaxAgg,
        &inputs,
        InterclusterMode::Flood,
        d_hat,
        37,
    );
    assert_eq!(out.values[0], Some(expect));
}
