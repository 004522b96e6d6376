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
            assert_eq!(k as usize, best);
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
    let mut engine =
        Engine::new(SinrParams::default(), positions.to_vec(), protocols, seed).with_faults(faults);
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

/// Runs `f` with the pool pinned to `workers` threads, then restores the
/// automatic width. The width is process-global, so the tests that pin it
/// take turns.
fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    static POOL_CONFIG: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _turn = POOL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    rayon::set_num_threads(workers);
    let out = f();
    rayon::set_num_threads(0);
    out
}

/// The 64-byte message node `node` sends in `slot`: its first word names
/// both, so a delivered copy can be checked against the one sent.
fn stamp(node: u32, slot: u64) -> [u64; 8] {
    let word = u64::from(node) << 32 | slot;
    std::array::from_fn(|k| word.wrapping_mul(2 * k as u64 + 1))
}

/// Transmits its [`stamp`] with probability 0.3, idles with 0.1 and
/// listens otherwise, 60% of the time on channel 0 and else on any of the
/// three; keeps every decode verbatim.
///
/// A sleeper (`block` set) instead listens on channel 0 in its block —
/// slots `2b` and `2b + 1` of every eight — and idles outside it without
/// drawing from its RNG. It records that it slept, and promises quiet
/// until its next block only once it has: no promise may cover the
/// `Slept` that changes its state.
#[derive(Clone, Debug, PartialEq)]
struct Stamper {
    id: u32,
    block: Option<u64>,
    slept: bool,
    heard: Vec<(u64, NodeId, [u64; 8], u64)>,
}

impl Stamper {
    fn in_block(b: u64, slot: u64) -> bool {
        (slot / 2) % 4 == b
    }
}

impl Protocol for Stamper {
    type Msg = [u64; 8];
    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<[u64; 8]> {
        if let Some(b) = self.block {
            return if Self::in_block(b, slot) {
                Action::Listen {
                    channel: Channel(0),
                }
            } else {
                Action::Idle
            };
        }
        let channel = Channel(if rng.gen_bool(0.6) {
            0
        } else {
            rng.gen_range(0..3)
        });
        match rng.gen_range(0..10u8) {
            0..=2 => Action::Transmit {
                channel,
                msg: stamp(self.id, slot),
            },
            3 => Action::Idle,
            _ => Action::Listen { channel },
        }
    }
    fn observe(&mut self, slot: u64, obs: Observation<[u64; 8]>, _rng: &mut SmallRng) {
        match obs {
            Observation::Received(r) => self.heard.push((slot, r.from, r.msg, r.signal.to_bits())),
            Observation::Slept => self.slept = true,
            _ => {}
        }
    }

    fn quiet_until(&self, slot: u64) -> Option<u64> {
        let b = self.block.filter(|_| self.slept)?;
        (slot + 1..).find(|&u| Self::in_block(b, u))
    }
}

/// A message is looked up through its transmitter's index among the
/// slot's transmissions, not stored per node: with 64-byte messages on
/// three channels, crash-stops and late joins, every `Received` carries
/// its sender's own message of that slot, and metrics and every node's
/// end state equal the poll-everyone reference engine's, at 1, 2 and 8
/// pool workers. Channel 0 is crowded enough to shard from two workers
/// on and to pool, so its sharded units are part of what is compared, and
/// so are the sleepers (every fourth node) that idle, get `Slept` and
/// park on their quiet promise in a pooled slot.
#[test]
fn received_messages_are_their_senders_under_churn() {
    use multichannel_adhoc::radio::reference::ReferenceEngine;
    use multichannel_adhoc::radio::FaultPlan;
    const SLOTS: u64 = 16;
    let n = 1500;
    let mut rng = SmallRng::seed_from_u64(21);
    let positions = Deployment::uniform(n, 30.0, &mut rng).into_points();
    let mut faults = FaultPlan::none();
    for node in (0..n as u32).step_by(7) {
        faults.crash_at(node, rng.gen_range(1..SLOTS));
    }
    for node in (3..n as u32).step_by(11) {
        faults.join_at(node, rng.gen_range(1..SLOTS));
    }
    let protocols: Vec<Stamper> = (0..n as u32)
        .map(|id| Stamper {
            id,
            block: (id % 4 == 1).then_some(u64::from(id / 4) % 4),
            slept: false,
            heard: Vec::new(),
        })
        .collect();
    let params = SinrParams::default();
    let mut reference = ReferenceEngine::new(params, positions.clone(), protocols.clone(), 5);
    reference.faults = faults.clone();
    for _ in 0..SLOTS {
        reference.step();
    }
    let heard: usize = reference.protocols.iter().map(|p| p.heard.len()).sum();
    assert!(heard > 100, "only {heard} decodes");
    let slept = reference.protocols.iter().filter(|p| p.slept).count();
    assert!(slept > 300, "only {slept} sleepers slept");
    for workers in [1, 2, 8] {
        let (engine, sharded, pooled) = with_workers(workers, || {
            use multichannel_adhoc::obs::SpanKind;
            let mut engine = Engine::new(params, positions.clone(), protocols.clone(), 5)
                .with_faults(faults.clone());
            engine.attach_obs(multichannel_adhoc::obs::Recorder::new());
            engine.run(SLOTS);
            let spans = engine.obs().expect("attached above").spans();
            let seen = |kind| spans.iter().any(|s| s.kind == kind);
            let (sharded, pooled) = (seen(SpanKind::Halo), seen(SpanKind::Pool));
            (engine, sharded, pooled)
        });
        assert!(workers == 1 || sharded, "{workers} workers never sharded");
        assert!(workers == 1 || pooled, "{workers} workers never pooled");
        for p in engine.protocols() {
            for &(slot, from, msg, _) in &p.heard {
                assert_eq!(msg, stamp(from.0, slot), "node {} slot {slot}", p.id);
            }
        }
        assert_eq!(engine.metrics(), &reference.metrics, "{workers} workers");
        assert_eq!(
            engine.protocols(),
            &reference.protocols[..],
            "{workers} workers"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    /// Phase-overlap stress: in a pooled slot the Phase-1-derived
    /// feedback and the light channels' units run on the slot thread
    /// while the heavy units are in flight. Channels 0 and 1 carry ~1000
    /// nodes each — enough that the engine shards them at two workers or
    /// more and their units clear the pooling bar — and the others a few
    /// dozen, so every slot mixes pooled and inline units. A run with
    /// random crash/join/motion interleavings must be bit-identical —
    /// metrics and every node's decode log — to the one-thread
    /// (unsharded) run at every worker count, even when a tiny test deque
    /// capacity forces near-every task to be stolen; and the multi-worker
    /// arms must really have used the pool.
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

        // Reference: single-threaded pool (every channel one unit, every
        // unit inline).
        let baseline =
            with_workers(1, || run_scripted(&positions, channels, p, seed, &script, SLOTS));

        // Each thread count (from two workers on, channels 0 and 1 shard)
        // with a steal funnel of a different severity (0 = normal
        // submission).
        for (threads, cap) in [(2usize, 0usize), (4, 1), (8, 2)] {
            let (run, pooled) = with_workers(threads, || {
                rayon::set_test_deque_capacity(cap);
                let tasks = rayon::pool_stats().tasks;
                let run = run_scripted(&positions, channels, p, seed, &script, SLOTS);
                let pooled = rayon::pool_stats().tasks > tasks;
                rayon::set_test_deque_capacity(0);
                (run, pooled)
            });
            prop_assert_eq!(
                &baseline.0, &run.0,
                "metrics diverged at {} threads (cap {})", threads, cap
            );
            prop_assert_eq!(
                &baseline.1, &run.1,
                "decode logs diverged at {} threads (cap {})", threads, cap
            );
            prop_assert!(pooled, "the pool was bypassed at {} threads (cap {})", threads, cap);
        }
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
