//! Shard-boundary correctness of the sharded engine.
//!
//! The contract under test (see `docs/EXECUTION_MODEL.md`): the shard
//! grid is an *execution* choice — the engine derives it from the pool's
//! width ([`unit_grid`]), so a one-worker engine resolves every channel
//! whole and a wider one shards the big channels, and for any worker
//! count, under churn and motion, every observation a protocol makes is
//! bit-for-bit what the one-thread engine delivers. The proptests place
//! transmitters at arbitrary positions (including exactly on shard edges
//! and inside halo rings) and interleave churn; the deterministic tests
//! pin transmitters *exactly* onto the partition lines, where any
//! off-by-one in halo classification would first bite. Every test pins
//! its worker counts, so each shards on any host, one core included.

use multichannel_adhoc::obs::SpanKind;
use multichannel_adhoc::prelude::*;
use multichannel_adhoc::radio::shard::{unit_grid, ShardMap};
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

/// Whether `MCA_FORCE_PAR=1` is set: the engine then lays a 4 × 4 grid
/// over every channel of 512 listeners or more, at any worker count.
fn forced_par() -> bool {
    std::env::var("MCA_FORCE_PAR").is_ok_and(|v| v == "1")
}

/// The pool's worker count is process-global; runs that pin it take turns.
static POOL_CONFIG: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` with the pool pinned to `threads` workers, taking turns with
/// every other run that pins it.
fn with_workers<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _turn = POOL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    rayon::set_num_threads(threads);
    let out = f();
    rayon::set_num_threads(0);
    out
}

/// What a run's schedule did: whether pool workers executed any task, and
/// whether any channel resolved as several shard units.
struct Schedule {
    pooled: bool,
    sharded: bool,
}

/// Runs `slots` slots of chatter over `positions` on a `threads`-worker
/// pool with the given churn and a deterministic motion schedule (node
/// `slot % n` drifts a little each slot — enough to cross shard
/// boundaries and stretch the listeners' box). Returns the full metrics,
/// every node's verbatim observation log, and what the schedule did.
fn run_chatter(
    positions: &[Point],
    channels: u16,
    mode: ResolveMode,
    faults: FaultPlan,
    threads: usize,
    slots: u64,
    moving: bool,
) -> (Metrics, Logs, Schedule) {
    with_workers(threads, || {
        chatter_on_pinned_pool(positions, channels, mode, faults, slots, moving)
    })
}

fn chatter_on_pinned_pool(
    positions: &[Point],
    channels: u16,
    mode: ResolveMode,
    faults: FaultPlan,
    slots: u64,
    moving: bool,
) -> (Metrics, Logs, Schedule) {
    let tasks = rayon::pool_stats().tasks;
    let params = SinrParams::default().with_resolve(mode);
    let protocols = (0..positions.len())
        .map(|_| Recorder::new(channels, 0.4))
        .collect();
    let mut engine = Engine::new(params, positions.to_vec(), protocols, 9).with_faults(faults);
    engine.attach_obs(multichannel_adhoc::obs::Recorder::new());
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
    let spans = engine.obs().expect("attached above").spans();
    let sharded = spans.iter().any(|s| s.kind == SpanKind::Halo);
    let metrics = engine.metrics().clone();
    let logs = engine
        .into_protocols()
        .into_iter()
        .map(|r| (r.heard, r.noise))
        .collect();
    (metrics, logs, Schedule { pooled, sharded })
}

/// A world large enough that, at two workers or more, the engine shards
/// its one channel and the shard units clear its pooling bar (~1500
/// nodes), with corner pins so the shard partition's bounding box — and
/// therefore its edge coordinates — are exactly known.
fn pinned_world(n: usize, side: f64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(77);
    let mut positions = vec![Point::new(0.0, 0.0), Point::new(side, side)];
    // Transmitters exactly on every interior shard edge of every grid the
    // engine may derive here, and in the halo ring just inside/outside of
    // each.
    for shards in 2..=8u16 {
        let step = side / f64::from(shards);
        for k in 1..shards {
            let x = f64::from(k) * step;
            positions.push(Point::new(x, side * 0.25));
            positions.push(Point::new(side * 0.75, x));
            positions.push(Point::new(x + 1e-9, side * 0.5));
            positions.push(Point::new(x - 1e-9, side * 0.35));
        }
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
        let positions = pinned_world(1500, 32.0);
        let (m_ref, l_ref, one) = run_chatter(&positions, 1, mode, FaultPlan::none(), 1, 20, false);
        assert_eq!(one.sharded, forced_par(), "one worker ({mode:?})");
        for threads in [2, 4, 8] {
            let (m, l, schedule) =
                run_chatter(&positions, 1, mode, FaultPlan::none(), threads, 20, false);
            let arm = format!("threads={threads}, mode={mode:?}");
            assert_eq!(m_ref, m, "metrics diverged ({arm})");
            assert_eq!(l_ref, l, "an observation diverged ({arm})");
            assert!(schedule.sharded, "the channel was not sharded ({arm})");
            assert!(schedule.pooled, "the pool was bypassed ({arm})");
        }
    }
}

/// A listener's shard is read off the position staged for it in the very
/// slot it is resolved in: drag a block of nodes across the plane (out of
/// the deployment's box, so every grid line moves) between two slots, and
/// the slot after already resolves as many `Unit`s as the grid the engine
/// derives at two workers ([`unit_grid`]) over its listeners' *current*
/// positions has occupied cells — observations equal to the one-worker
/// (unsharded) run's throughout.
#[test]
fn sharded_units_follow_the_positions_staged_in_the_same_slot() {
    const WORKERS: usize = 2;
    let positions = pinned_world(1500, 32.0);
    let engine = || {
        let protocols = (0..positions.len())
            .map(|_| Recorder::new(1, 0.4))
            .collect();
        Engine::new(SinrParams::default(), positions.clone(), protocols, 3)
    };
    let (mut sharded, mut plain) = (engine(), engine());
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
        with_workers(WORKERS, || sharded.step());
        with_workers(1, || plain.step());
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
        // Exact mode: a listener costs one evaluation per transmitter, and
        // every node that did not listen transmitted.
        let transmitters = positions.len() - listeners.len();
        let side = if forced_par() {
            4
        } else {
            unit_grid(WORKERS, listeners.len(), transmitters)
        };
        assert!(side >= 4, "slot {slot}: the channel must shard finely");
        let bounds = BoundingBox::from_points(listeners.iter().copied()).unwrap();
        let grid = ShardMap::over(side, bounds);
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

    /// Tentpole property: for random worlds, worker counts, resolve
    /// modes, churn interleavings, and motion, the observations of an
    /// engine whose channels shard (two workers or more, channels of
    /// ~600 nodes or more) are bit-for-bit the one-thread engine's, which
    /// resolves every channel whole.
    #[test]
    fn sharded_runs_are_bit_identical_to_unsharded(
        raw in proptest::collection::vec((0.0..50.0f64, 0.0..50.0f64), 1300..1600),
        threads_log2 in 1u32..4,
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
            &positions, channels, mode, faults.clone(), 1, 40, moving,
        );
        let (m_shard, l_shard, schedule) = run_chatter(
            &positions, channels, mode, faults, 1 << threads_log2, 40, moving,
        );
        prop_assert!(schedule.sharded, "no channel was sharded");
        prop_assert_eq!(m_ref, m_shard);
        prop_assert_eq!(l_ref, l_shard);
    }
}
