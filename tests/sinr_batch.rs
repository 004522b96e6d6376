//! Cross-crate properties of the batched SINR resolution path.
//!
//! The contracts under test (see `mca_sinr::resolve_batch`):
//! 1. `resolve_channel` (now routed through `ChannelResolver`) is, in the
//!    default `Exact` mode, bit-for-bit the per-listener scalar reference;
//! 2. `Fast` mode never flips a decode whose SINR margin exceeds the
//!    resolver's published per-listener error bound;
//! 3. scenario runs are bit-identical at every worker count and shard
//!    grid, end to end, mobility and fading included.

use multichannel_adhoc::prelude::*;
use multichannel_adhoc::radio::{Action, Observation};
use multichannel_adhoc::sinr::{resolve_channel, resolve_listener};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `resolve_channel` == scalar `resolve_listener`, outcome for outcome,
    /// bitwise (floats included), through the public facade.
    #[test]
    fn routed_resolve_channel_is_bitwise_scalar(
        raw in proptest::collection::vec((-25.0..25.0f64, -25.0..25.0f64), 0..40),
        lraw in proptest::collection::vec((-25.0..25.0f64, -25.0..25.0f64), 1..12),
    ) {
        let params = SinrParams::default();
        let txs: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let listeners: Vec<Point> = lraw.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let batch = resolve_channel(&params, &txs, &listeners);
        prop_assert_eq!(batch.len(), listeners.len());
        for (i, &l) in listeners.iter().enumerate() {
            prop_assert_eq!(batch[i], resolve_listener(&params, &txs, l));
        }
    }

    /// Fast mode through the facade: decisions differ from the scalar
    /// reference only when the margin is inside the published bound.
    #[test]
    fn fast_mode_margin_contract(
        raw in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 20..60),
        lx in 0.0..100.0f64,
        ly in 0.0..100.0f64,
    ) {
        let params = SinrParams::default().with_resolve(ResolveMode::fast());
        let txs: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let l = Point::new(lx, ly);
        let resolver = ChannelResolver::new(&params, &txs);
        let (fast, bound, _) = resolver.resolve_with_bound(l, 0.0);
        let scalar = resolve_listener(&params, &txs, l);
        if fast.decoded != scalar.decoded {
            // Recompute the true strongest signal and interference.
            let powers: Vec<f64> = txs.iter().map(|t| params.received_power_sq(t.dist_sq(l))).collect();
            let sig = powers.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let interference: f64 = powers.iter().sum::<f64>() - sig;
            // Ulp-scale slack: the near field is summed in cell order,
            // so totals differ from the scalar scan by rounding even when
            // the interval bound is 0.
            let slack = bound + 1e-9 * (params.noise + interference);
            let robust_yes = params.decodes(sig, interference + slack);
            let robust_no = !params.decodes(sig, (interference - slack).max(0.0));
            prop_assert!(!robust_yes && !robust_no,
                "decode flip outside the error bound {bound}");
        }
    }
}

/// Random multi-channel chatter that records every observation verbatim.
struct Recorder {
    channels: u16,
    log: Vec<(u64, String)>,
}

impl Protocol for Recorder {
    type Msg = u64;
    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<u64> {
        let ch = Channel(rng.gen_range(0..self.channels));
        if rng.gen_bool(0.35) {
            Action::Transmit {
                channel: ch,
                msg: slot,
            }
        } else {
            Action::Listen { channel: ch }
        }
    }
    fn observe(&mut self, slot: u64, obs: Observation<u64>, _rng: &mut SmallRng) {
        // Debug-format keeps the full float bits relevant for comparison.
        self.log.push((slot, format!("{obs:?}")));
    }
}

fn dynamic_scenario() -> Scenario {
    Scenario::builder("par-biteq")
        .deployment(DeploymentSpec::Uniform { n: 60, side: 14.0 })
        .mobility(MobilitySpec::RandomWaypoint {
            speed_min: 0.05,
            speed_max: 0.2,
            pause: 2,
        })
        .fading(FadingSpec::interference(0.05, 0.2, 40.0))
        .channels(5)
        .build()
}

fn run_scenario(threads: usize, shards: u16) -> (Metrics, Vec<Vec<(u64, String)>>) {
    rayon::set_num_threads(threads);
    let mut scenario = dynamic_scenario();
    scenario.shards = shards;
    let mut sim = ScenarioSim::new(&scenario, 11, |_, _| Recorder {
        channels: 5,
        log: Vec::new(),
    });
    sim.run(150);
    rayon::set_num_threads(0);
    let metrics = sim.metrics().clone();
    let logs = sim
        .into_engine()
        .into_protocols()
        .into_iter()
        .map(|r| r.log)
        .collect();
    (metrics, logs)
}

use multichannel_adhoc::radio::Metrics;

#[test]
fn scenario_runs_bit_identical_across_threads_and_shards() {
    let (m_ref, l_ref) = run_scenario(1, 0);
    assert!(m_ref.receptions > 0, "the workload should deliver traffic");
    for threads in [1, 2, 4, 8] {
        for shards in [0, 4] {
            let (m, l) = run_scenario(threads, shards);
            let arm = format!("{threads} threads, shards {shards}");
            assert_eq!(m_ref, m, "metrics diverged at {arm}");
            assert_eq!(l_ref, l, "an observation diverged at {arm}");
        }
    }
}

#[test]
fn fast_engine_agrees_with_exact_on_a_robust_workload() {
    // A well-separated line: every link decodes with a huge margin, so
    // Exact and Fast must agree exactly on what was heard.
    let run = |mode: ResolveMode| {
        let n = 64usize;
        let positions: Vec<Point> = (0..n).map(|i| Point::new(i as f64 * 3.0, 0.0)).collect();
        let protocols: Vec<Recorder> = (0..n)
            .map(|_| Recorder {
                channels: 2,
                log: Vec::new(),
            })
            .collect();
        let params = SinrParams::default().with_resolve(mode);
        let mut e = Engine::new(params, positions, protocols, 5);
        e.run(80);
        let receptions = e.metrics().receptions;
        let heard: Vec<Vec<(u64, String)>> = e
            .into_protocols()
            .into_iter()
            .map(|r| {
                r.log
                    .into_iter()
                    .filter(|(_, s)| s.starts_with("Received"))
                    .map(|(slot, s)| {
                        // Keep only the sender identity: Fast's carrier-sense
                        // floats legitimately differ within the error bound.
                        let from = s.split("from: ").nth(1).map(|t| t[..8].to_string());
                        (slot, from.unwrap_or(s))
                    })
                    .collect()
            })
            .collect();
        (receptions, heard)
    };
    let exact = run(ResolveMode::Exact);
    let fast = run(ResolveMode::fast());
    assert_eq!(exact, fast, "decode sets diverged on a robust topology");
}
