//! Shard-boundary correctness of the sharded engine.
//!
//! The contract under test (see `docs/EXECUTION_MODEL.md`): sharding is an
//! *execution* knob — for any shard count and worker count, under churn
//! and motion, every observation a protocol makes is bit-for-bit what the
//! unsharded one-thread engine delivers. The proptests place
//! transmitters at arbitrary positions (including exactly on shard edges
//! and inside halo rings) and interleave churn; the deterministic tests
//! pin transmitters *exactly* onto the partition lines, where any
//! off-by-one in halo classification would first bite.

use multichannel_adhoc::obs::SpanKind;
use multichannel_adhoc::prelude::*;
use multichannel_adhoc::radio::shard::{effective_shards, ShardMap};
use multichannel_adhoc::radio::{Action, Metrics, Observation, Protocol};
use multichannel_adhoc::sinr::ResolveMode;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random multi-channel chatter recording every observation verbatim,
/// floats included — the payload for bit-identity comparisons.
struct Recorder {
    channels: u16,
    p_tx: f64,
    heard: Vec<(u64, u32, u64, f64, f64, f64)>,
    noise: Vec<(u64, f64)>,
}

impl Recorder {
    fn new(channels: u16, p_tx: f64) -> Self {
        Recorder {
            channels,
            p_tx,
            heard: Vec::new(),
            noise: Vec::new(),
        }
    }
}

impl Protocol for Recorder {
    type Msg = u64;
    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<u64> {
        let ch = Channel(rng.gen_range(0..self.channels));
        if rng.gen_bool(self.p_tx) {
            Action::Transmit {
                channel: ch,
                msg: slot,
            }
        } else {
            Action::Listen { channel: ch }
        }
    }
    fn observe(&mut self, slot: u64, obs: Observation<u64>, _r: &mut SmallRng) {
        match obs {
            Observation::Received(r) => {
                self.heard
                    .push((slot, r.from.0, r.msg, r.signal, r.sinr, r.total_power))
            }
            Observation::Noise { total_power } => self.noise.push((slot, total_power)),
            _ => {}
        }
    }
}

type Logs = Vec<(Vec<(u64, u32, u64, f64, f64, f64)>, Vec<(u64, f64)>)>;

/// The pool's worker count is process-global; runs that pin it take turns.
static POOL_CONFIG: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `slots` slots of chatter over `positions` on a `threads`-worker
/// pool with the given shard grid, churn, and a deterministic motion
/// schedule (node `slot % n` drifts a little each slot — enough to cross
/// shard boundaries and stretch the listeners' box). Returns the full
/// metrics, every node's verbatim observation log, and whether pool
/// workers executed any task during the run.
#[allow(clippy::too_many_arguments)]
fn run_chatter(
    positions: &[Point],
    channels: u16,
    mode: ResolveMode,
    faults: FaultPlan,
    shards: u16,
    threads: usize,
    slots: u64,
    moving: bool,
) -> (Metrics, Logs, bool) {
    let _turn = POOL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    rayon::set_num_threads(threads);
    let tasks = rayon::pool_stats().tasks;
    let params = SinrParams::default().with_resolve(mode);
    let protocols = (0..positions.len())
        .map(|_| Recorder::new(channels, 0.4))
        .collect();
    let mut engine = Engine::new(params, positions.to_vec(), protocols, 9)
        .with_faults(faults)
        .with_shards(shards);
    for slot in 0..slots {
        if moving && !positions.is_empty() {
            // Deterministic drift, identical across configurations: one
            // node nudges diagonally per slot.
            let i = (slot as usize) % positions.len();
            let p = engine.positions()[i];
            engine.positions_mut()[i] = Point::new(p.x + 0.9, p.y + 0.7);
        }
        engine.step();
    }
    let pooled = rayon::pool_stats().tasks > tasks;
    rayon::set_num_threads(0);
    let metrics = engine.metrics().clone();
    let logs = engine
        .into_protocols()
        .into_iter()
        .map(|r| (r.heard, r.noise))
        .collect();
    (metrics, logs, pooled)
}

/// A world large enough that single-channel sharding actually engages
/// (listeners comfortably beyond the engagement threshold) — and, from
/// ~1500 nodes, that its shard units clear the engine's pooling bar —
/// with corner pins so the shard partition's bounding box — and therefore its edge
/// coordinates — are exactly known.
fn pinned_world(n: usize, side: f64, shards: u16) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(77);
    let mut positions = vec![Point::new(0.0, 0.0), Point::new(side, side)];
    // Transmitters exactly on every interior shard edge, and in the halo
    // ring just inside/outside of each.
    let step = side / f64::from(shards);
    for k in 1..shards {
        let x = f64::from(k) * step;
        positions.push(Point::new(x, side * 0.25));
        positions.push(Point::new(side * 0.75, x));
        positions.push(Point::new(x + 1e-9, side * 0.5));
        positions.push(Point::new(x - 1e-9, side * 0.35));
    }
    while positions.len() < n {
        positions.push(Point::new(
            rng.gen_range(0.0..side),
            rng.gen_range(0.0..side),
        ));
    }
    positions
}

#[test]
fn shard_edge_transmitters_heard_identically_exact_and_fast() {
    for mode in [ResolveMode::Exact, ResolveMode::fast()] {
        let positions = pinned_world(1500, 32.0, 4);
        let (m_ref, l_ref, _) =
            run_chatter(&positions, 1, mode, FaultPlan::none(), 0, 1, 20, false);
        for (shards, threads) in [(4, 1), (4, 2), (3, 4), (7, 8)] {
            let (m, l, pooled) = run_chatter(
                &positions,
                1,
                mode,
                FaultPlan::none(),
                shards,
                threads,
                20,
                false,
            );
            let arm = format!("shards={shards}, threads={threads}, mode={mode:?}");
            assert_eq!(m_ref, m, "metrics diverged ({arm})");
            assert_eq!(l_ref, l, "an observation diverged ({arm})");
            assert!(threads == 1 || pooled, "the pool was bypassed ({arm})");
        }
    }
}

/// A listener's shard is read off the position staged for it in the very
/// slot it is resolved in: drag a block of nodes across the plane (out of
/// the deployment's box, so every grid line moves) between two slots, and
/// the slot after already resolves as many `Unit`s as the grid over its
/// listeners' *current* positions has occupied cells — observations equal
/// to the unsharded run's throughout.
#[test]
fn sharded_units_follow_the_positions_staged_in_the_same_slot() {
    let positions = pinned_world(600, 32.0, 4);
    let engine = |shards: u16| {
        let protocols = (0..positions.len())
            .map(|_| Recorder::new(1, 0.4))
            .collect();
        Engine::new(SinrParams::default(), positions.clone(), protocols, 3).with_shards(shards)
    };
    let (mut sharded, mut plain) = (engine(4), engine(0));
    sharded.attach_obs(multichannel_adhoc::obs::Recorder::new());
    let mut occupied_per_slot = Vec::new();
    for slot in 0..4u64 {
        if slot == 1 {
            for e in [&mut sharded, &mut plain] {
                for p in e.positions_mut().iter_mut().filter(|p| p.x < 8.0) {
                    *p = Point::new(p.x + 100.0, 31.0 - p.y);
                }
            }
        }
        sharded.step();
        plain.step();
        // Who listened this slot: whoever logged a reception or noise.
        let listeners: Vec<Point> = sharded
            .protocols()
            .iter()
            .zip(sharded.positions())
            .filter(|(r, _)| {
                r.heard.last().is_some_and(|h| h.0 == slot)
                    || r.noise.last().is_some_and(|n| n.0 == slot)
            })
            .map(|(_, &p)| p)
            .collect();
        let s_eff = effective_shards(sharded.shards(), listeners.len());
        assert!(s_eff >= 2, "slot {slot}: the channel must shard");
        let bounds = BoundingBox::from_points(listeners.iter().copied()).unwrap();
        let grid = ShardMap::over(s_eff, bounds);
        let mut cells: Vec<u16> = listeners.iter().map(|&p| grid.locate(p)).collect();
        cells.sort_unstable();
        cells.dedup();
        let spans = sharded.obs().unwrap().spans();
        let units = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Unit && s.slot == slot)
            .count();
        assert_eq!(units, cells.len(), "slot {slot}: units vs occupied cells");
        occupied_per_slot.push(cells.len());
    }
    // The move empties whole columns of the stretched grid: were the
    // partition not re-read, the counts above could not all have held.
    assert!(occupied_per_slot[1] < occupied_per_slot[0]);
    assert_eq!(sharded.metrics(), plain.metrics());
    for (a, b) in sharded.protocols().iter().zip(plain.protocols()) {
        assert_eq!((&a.heard, &a.noise), (&b.heard, &b.noise));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole property: for random worlds, shard counts, worker counts,
    /// resolve modes, churn interleavings, and motion, the sharded
    /// engine's observations are bit-for-bit the unsharded one-thread
    /// engine's.
    #[test]
    fn sharded_runs_are_bit_identical_to_unsharded(
        raw in proptest::collection::vec((0.0..50.0f64, 0.0..50.0f64), 280..400),
        shards in 2u16..7,
        threads_log2 in 0u32..4,
        channels in 1u16..3,
        fastmode in 0u8..2,
        moving in 0u8..2,
        churn in proptest::collection::vec((0u32..280, 0u64..40, 0u8..2), 0..12),
    ) {
        let moving = moving == 1;
        let positions: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut faults = FaultPlan::none();
        for &(node, slot, is_crash) in &churn {
            if is_crash == 1 {
                faults.crash_at(node, slot);
            } else {
                faults.join_at(node, slot);
            }
        }
        let mode = if fastmode == 1 { ResolveMode::fast() } else { ResolveMode::Exact };
        let (m_ref, l_ref, _) = run_chatter(
            &positions, channels, mode, faults.clone(), 0, 1, 40, moving,
        );
        let (m_shard, l_shard, _) = run_chatter(
            &positions, channels, mode, faults, shards, 1 << threads_log2, 40, moving,
        );
        prop_assert_eq!(m_ref, m_shard);
        prop_assert_eq!(l_ref, l_shard);
    }
}
