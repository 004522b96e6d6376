//! Layer probes: small timed calls into one layer's public functions on
//! inputs cut from a workload's own world, so a per-layer figure is
//! comparable across workloads (`sinr.resolve_exact_ns_per_listener` on
//! the 50 000-node world and on a 160-node sweep world are the same
//! measurement on different inputs).

use super::median_ns;
use mca_core::aggregate::intercluster::{FloodCfg, FloodCombine};
use mca_core::{MaxAgg, Tdma};
use mca_geom::{Point, SpatialGrid};
use mca_radio::{Action, Engine, Observation, Protocol};
use mca_sinr::{ChannelResolver, ResolveMode, SinrParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Tasks per `rayon::scope` in the round-trip probe.
pub const SCOPE_TASKS: usize = 4096;
/// Most listeners an Exact-mode probe resolves (the scan is
/// listeners × transmitters).
const MAX_EXACT_LISTENERS: usize = 2048;
/// Times each probe repeats; the median is reported.
const REPEATS: usize = 5;

/// A protocol that does nothing: the engine's fixed per-slot cost, and
/// the world clock of the maintenance workload.
pub struct Idle;

impl Protocol for Idle {
    type Msg = ();
    fn act(&mut self, _slot: u64, _rng: &mut SmallRng) -> Action<()> {
        Action::Idle
    }
    fn observe(&mut self, _slot: u64, _obs: Observation<()>, _rng: &mut SmallRng) {}
}

/// The flood configuration `mca_bench::scenario_flood_trial` runs a
/// scenario of `channels` channels and `max_slots` slots under (that
/// function keeps it private; the byte-identity check of the sweep
/// workload's traced pass pins this copy to it).
pub fn flood_cfg(channels: u16, max_slots: u64) -> FloodCfg {
    let tail_rounds = (max_slots / 4).min(100);
    FloodCfg {
        q: 0.2,
        flood_rounds: max_slots.saturating_sub(tail_rounds),
        tail_rounds,
        tdma: Tdma::new(1, 1),
        hop_channels: channels,
    }
}

/// One flood protocol per node, each flooding its own id.
pub fn flood_protocols(n: usize, cfg: FloodCfg) -> Vec<FloodCombine<MaxAgg>> {
    (0..n)
        .map(|i| FloodCombine::dominator(MaxAgg, cfg, 0, i as i64))
        .collect()
}

/// Wall nanoseconds per task of a `rayon::scope` over no-op tasks:
/// submit, steal/run, and join.
pub fn scope_roundtrip_ns_per_task() -> f64 {
    median_ns(REPEATS, || {
        rayon::scope(|s| {
            for i in 0..SCOPE_TASKS {
                s.spawn(move || {
                    black_box(i);
                });
            }
        });
    }) / SCOPE_TASKS as f64
}

/// What the `geom` and `sinr` layers cost on one world.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResolveProbe {
    /// `SpatialGrid::build` over the transmitter set, per point.
    pub grid_build_ns_per_point: f64,
    /// `ChannelResolver::new` under the world's own resolve mode, per
    /// transmitter.
    pub index_build_ns_per_tx: f64,
    /// `resolve_batch_into` in Fast mode, per listener.
    pub fast_ns_per_listener: f64,
    /// `resolve_batch_into` in Exact mode, per listener.
    pub exact_ns_per_listener: f64,
    /// Transmitters in the probe's slot.
    pub transmitters: usize,
    /// Listeners in the probe's slot.
    pub listeners: usize,
}

impl ResolveProbe {
    /// The per-listener cost under `mode`.
    pub fn ns_per_listener(&self, mode: ResolveMode) -> f64 {
        match mode {
            ResolveMode::Exact => self.exact_ns_per_listener,
            ResolveMode::Fast { .. } => self.fast_ns_per_listener,
        }
    }
}

/// Cuts one slot's transmitter and listener sets from `points` — each
/// node transmits with probability `tx_prob`, everyone else listens, all
/// on one channel — and times index build and batch resolution on them.
pub fn resolve_probe(
    params: &SinrParams,
    points: &[Point],
    tx_prob: f64,
    seed: u64,
) -> ResolveProbe {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut tx, mut rx) = (Vec::new(), Vec::new());
    for &p in points {
        if rng.gen_bool(tx_prob) {
            tx.push(p);
        } else {
            rx.push(p);
        }
    }
    if tx.is_empty() || rx.is_empty() {
        return ResolveProbe::default();
    }
    let grid_ns = median_ns(REPEATS, || {
        black_box(SpatialGrid::build(&tx, params.transmission_range()));
    });
    let index_ns = median_ns(REPEATS, || {
        black_box(ChannelResolver::new(params, &tx).len());
    });
    let resolve_ns = |mode: ResolveMode, listeners: &[Point]| {
        let p = params.with_resolve(mode);
        let resolver = ChannelResolver::new(&p, &tx);
        let mut out = Vec::with_capacity(listeners.len());
        median_ns(REPEATS, || {
            resolver.resolve_batch_into(listeners, 0.0, &mut out);
            black_box(out.len());
        }) / listeners.len() as f64
    };
    let exact_rx = &rx[..rx.len().min(MAX_EXACT_LISTENERS)];
    ResolveProbe {
        grid_build_ns_per_point: grid_ns / tx.len() as f64,
        index_build_ns_per_tx: index_ns / tx.len() as f64,
        fast_ns_per_listener: resolve_ns(ResolveMode::fast(), &rx),
        exact_ns_per_listener: resolve_ns(ResolveMode::Exact, exact_rx),
        transmitters: tx.len(),
        listeners: rx.len(),
    }
}

/// What the `radio` layer costs on one world.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineProbe {
    /// `Engine::new`, per node.
    pub engine_new_ns_per_node: f64,
    /// `Engine::step` under the idle protocol, per node and slot: gather,
    /// stage and deliver with no traffic.
    pub fixed_ns_per_node_slot: f64,
    /// `Engine::step` under the flood protocol, per slot.
    pub flood_step_ns_per_slot: f64,
    /// Flood run: listens, receptions, busy failures.
    pub listens: u64,
    /// Successful decodes of the flood run.
    pub receptions: u64,
    /// Busy failures of the flood run.
    pub busy_failures: u64,
}

/// Builds an engine the way the workload does (`configure` applies its
/// shard/parallel settings) and times construction, `slots` idle slots
/// and — when `flood_channels` is given — `slots` flood slots.
pub fn engine_probe(
    params: SinrParams,
    points: &[Point],
    seed: u64,
    slots: u64,
    flood_channels: Option<u16>,
    configure: impl Fn(Engine<Idle>) -> Engine<Idle>,
) -> EngineProbe {
    let n = points.len().max(1) as f64;
    let idle = || (0..points.len()).map(|_| Idle).collect::<Vec<_>>();
    let new_ns = median_ns(REPEATS, || {
        black_box(Engine::new(params, points.to_vec(), idle(), seed).len());
    });
    let mut engine = configure(Engine::new(params, points.to_vec(), idle(), seed));
    engine.step();
    let t = Instant::now();
    engine.run(slots);
    let fixed_ns = t.elapsed().as_nanos() as f64 / slots.max(1) as f64;
    let mut probe = EngineProbe {
        engine_new_ns_per_node: new_ns / n,
        fixed_ns_per_node_slot: fixed_ns / n,
        ..EngineProbe::default()
    };
    if let Some(channels) = flood_channels {
        let cfg = flood_cfg(channels, slots * 8);
        let mut engine = Engine::new(
            params,
            points.to_vec(),
            flood_protocols(points.len(), cfg),
            seed,
        );
        engine.step();
        let before = engine.metrics().clone();
        let t = Instant::now();
        engine.run(slots);
        probe.flood_step_ns_per_slot = t.elapsed().as_nanos() as f64 / slots.max(1) as f64;
        let after = engine.metrics();
        probe.listens = after.listens - before.listens;
        probe.receptions = after.receptions - before.receptions;
        probe.busy_failures = after.busy_failures - before.busy_failures;
    }
    probe
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
