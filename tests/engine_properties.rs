//! Engine-level properties exercised through the public API: physical-layer
//! invariants that must hold for any protocol.

use multichannel_adhoc::prelude::*;
use multichannel_adhoc::radio::{Action, Metrics, Observation, Protocol};
use multichannel_adhoc::sinr::resolve_listener;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random chatter: every node picks a random channel and transmits or
/// listens at random; listeners record every decode. A `crowd` share of
/// the channel picks lands on channels 0 and 1 (0 = uniform).
struct Chatter {
    channels: u16,
    crowd: f64,
    p: f64,
    decodes: Vec<(u64, NodeId)>,
    tx_count: u64,
}

impl Protocol for Chatter {
    type Msg = u64;
    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<u64> {
        let ch = if self.crowd > 0.0 && rng.gen_bool(self.crowd) {
            Channel(rng.gen_range(0..self.channels.min(2)))
        } else {
            Channel(rng.gen_range(0..self.channels))
        };
        if rng.gen_bool(self.p) {
            self.tx_count += 1;
            Action::Transmit {
                channel: ch,
                msg: slot,
            }
        } else {
            Action::Listen { channel: ch }
        }
    }
    fn observe(&mut self, slot: u64, obs: Observation<u64>, _rng: &mut SmallRng) {
        if let Observation::Received(r) = obs {
            self.decodes.push((slot, r.from));
        }
    }
}

fn chatter_net(n: usize, side: f64, channels: u16, p: f64, seed: u64) -> Engine<Chatter> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let deploy = Deployment::uniform(n, side, &mut rng);
    let protocols = (0..n)
        .map(|_| Chatter {
            channels,
            crowd: 0.0,
            p,
            decodes: Vec::new(),
            tx_count: 0,
        })
        .collect();
    Engine::new(SinrParams::default(), deploy.into_points(), protocols, seed)
}

#[test]
fn at_most_one_decode_per_listener_per_slot() {
    let mut engine = chatter_net(60, 10.0, 4, 0.3, 3);
    engine.run(200);
    for p in engine.protocols() {
        let mut slots: Vec<u64> = p.decodes.iter().map(|&(s, _)| s).collect();
        let before = slots.len();
        slots.dedup();
        assert_eq!(before, slots.len(), "a listener decoded twice in one slot");
    }
}

#[test]
fn metrics_are_consistent() {
    let mut engine = chatter_net(80, 12.0, 4, 0.25, 5);
    engine.run(300);
    let m = engine.metrics();
    assert_eq!(m.slots, 300);
    let tx_from_protocols: u64 = engine.protocols().iter().map(|p| p.tx_count).sum();
    assert_eq!(m.transmissions, tx_from_protocols);
    let rx_from_protocols: u64 = engine
        .protocols()
        .iter()
        .map(|p| p.decodes.len() as u64)
        .sum();
    assert_eq!(m.receptions, rx_from_protocols);
    let per_channel: u64 = m.tx_per_channel.iter().sum();
    assert_eq!(per_channel, m.transmissions);
}

#[test]
fn decodes_match_offline_sinr_resolution() {
    // Replay a slot by hand: whatever the engine delivered must equal the
    // direct physical-layer computation.
    let params = SinrParams::default();
    let mut rng = SmallRng::seed_from_u64(11);
    let deploy = Deployment::uniform(40, 9.0, &mut rng);
    let positions = deploy.points().to_vec();
    // A fixed transmitter set: even indices transmit on channel 0.
    let txs: Vec<usize> = (0..40).step_by(2).collect();
    let tx_pos: Vec<Point> = txs.iter().map(|&i| positions[i]).collect();
    for &listener in &[1usize, 3, 17, 39] {
        let out = resolve_listener(&params, &tx_pos, positions[listener]);
        if let Some(k) = out.decoded {
            // Decoded index must be the strongest transmitter.
            let best = tx_pos
                .iter()
                .enumerate()
                .max_by(|a, b| {
                    let da = a.1.dist(positions[listener]);
                    let db = b.1.dist(positions[listener]);
                    db.partial_cmp(&da).unwrap()
                })
                .unwrap()
                .0;
            assert_eq!(k, best);
            assert!(out.sinr >= params.beta);
        }
    }
}

#[test]
fn determinism_with_faults() {
    use multichannel_adhoc::radio::{FaultPlan, JamSpec};
    let run = || {
        let mut faults = FaultPlan::none();
        faults.crash_at(3, 50);
        faults.jam(JamSpec::Random {
            t: 1,
            total: 4,
            power: 20.0,
            seed: 99,
        });
        let mut engine = chatter_net(50, 10.0, 4, 0.3, 7).with_faults(faults);
        engine.run(150);
        (
            engine.metrics().transmissions,
            engine.metrics().receptions,
            engine.metrics().busy_failures,
        )
    };
    assert_eq!(run(), run());
}

/// One scripted lifecycle/motion event: at `slot`, either crash `node`
/// (kind 0), have `node` start crashed and join (kind 1), or nudge
/// `node` by `(dx, dy)` (kind 2). Crash/join events are installed on the
/// [`FaultPlan`] before the run; motion events are applied through
/// `positions_mut` in the step loop — in both cases identically for
/// every engine configuration under comparison.
type ScriptEvent = (u64, u8, u32, f64, f64);

/// Per-node observable state after a scripted run: the verbatim decode
/// log plus the transmit count.
type NodeLog = (Vec<(u64, NodeId)>, u64);

/// Runs a scripted chatter world — 90% of the nodes crowded onto
/// channels 0 and 1, the rest spread thin — and returns everything
/// observable: full metrics plus each node's verbatim decode log and tx
/// count.
fn run_scripted(
    positions: &[Point],
    channels: u16,
    p: f64,
    seed: u64,
    script: &[ScriptEvent],
    shards: u16,
    slots: u64,
) -> (Metrics, Vec<NodeLog>) {
    use multichannel_adhoc::radio::FaultPlan;
    let n = positions.len();
    let mut faults = FaultPlan::none();
    for &(slot, kind, node, _, _) in script {
        let node = node % n as u32;
        match kind {
            0 => {
                faults.crash_at(node, slot);
            }
            1 => {
                faults.crash_at(node, 0).join_at(node, slot);
            }
            _ => {}
        }
    }
    let protocols = (0..n)
        .map(|_| Chatter {
            channels,
            crowd: 0.9,
            p,
            decodes: Vec::new(),
            tx_count: 0,
        })
        .collect();
    let mut engine = Engine::new(SinrParams::default(), positions.to_vec(), protocols, seed)
        .with_faults(faults)
        .with_shards(shards);
    for slot in 0..slots {
        for &(at, kind, node, dx, dy) in script {
            if kind == 2 && at == slot {
                let i = (node % n as u32) as usize;
                let p0 = engine.positions()[i];
                engine.positions_mut()[i] = Point::new(p0.x + dx, p0.y + dy);
            }
        }
        engine.step();
    }
    let metrics = engine.metrics().clone();
    let logs = engine
        .into_protocols()
        .into_iter()
        .map(|c| (c.decodes, c.tx_count))
        .collect();
    (metrics, logs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    /// Phase-overlap stress: in a pooled slot the Phase-1-derived
    /// feedback and the light channels' units run on the slot thread
    /// while the heavy units are in flight. Channels 0 and 1 carry ~1000
    /// nodes each — enough that their units clear the pooling bar as one
    /// unit or as a shard grid — and the others a few dozen, so every
    /// slot mixes pooled and inline units. A run with random
    /// crash/join/motion interleavings must be bit-identical — metrics
    /// and every node's decode log — to the unsharded one-thread run at
    /// every (shards, threads) pair, even when a tiny test deque capacity
    /// forces near-every task to be stolen; and the multi-worker arms
    /// must really have used the pool.
    #[test]
    fn overlapped_pipeline_matches_sequential_under_random_churn(
        seed in 0u64..10_000,
        channels in 3u16..6,
        p in 0.45f64..0.65,
        script in proptest::collection::vec(
            (1u64..12, 0u8..3, 0u32..2400, -1.5f64..1.5, -1.5f64..1.5),
            0..10,
        ),
    ) {
        const SLOTS: u64 = 12;
        let mut rng = SmallRng::seed_from_u64(seed);
        let deploy = Deployment::uniform(2400, 49.0, &mut rng);
        let positions = deploy.into_points();

        // Reference: no sharding, single-threaded pool (every unit runs
        // inline).
        rayon::set_num_threads(1);
        let baseline = run_scripted(&positions, channels, p, seed, &script, 0, SLOTS);

        // Each thread count with a steal funnel of a different severity
        // (0 = normal submission).
        for shards in [0u16, 4] {
            for (threads, cap) in [(1usize, 0usize), (2, 0), (4, 1), (8, 2)] {
                rayon::set_num_threads(threads);
                rayon::set_test_deque_capacity(cap);
                let tasks = rayon::pool_stats().tasks;
                let run = run_scripted(&positions, channels, p, seed, &script, shards, SLOTS);
                let pooled = rayon::pool_stats().tasks > tasks;
                rayon::set_test_deque_capacity(0);
                prop_assert_eq!(
                    &baseline.0, &run.0,
                    "metrics diverged at shards {}, {} threads (cap {})", shards, threads, cap
                );
                prop_assert_eq!(
                    &baseline.1, &run.1,
                    "decode logs diverged at shards {}, {} threads (cap {})", shards, threads, cap
                );
                prop_assert!(
                    threads == 1 || pooled,
                    "the pool was bypassed at shards {}, {} threads (cap {})", shards, threads, cap
                );
            }
        }
        rayon::set_num_threads(0);
    }
}

#[test]
fn more_channels_mean_fewer_collisions_at_fixed_traffic() {
    let busy = |channels: u16| {
        let mut engine = chatter_net(120, 6.0, channels, 0.3, 13);
        engine.run(300);
        engine.metrics().busy_failures
    };
    let one = busy(1);
    let eight = busy(8);
    assert!(
        eight < one,
        "8 channels ({eight} busy failures) vs 1 ({one})"
    );
}
