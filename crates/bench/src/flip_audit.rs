//! The Fast-vs-Exact flip audit behind `experiments flip-audit` and the
//! committed `scenarios/GOLDEN_flips.json`.
//!
//! Fast mode publishes a contract (`mca_sinr::resolve_batch` module docs):
//! a listener's decode may differ from Exact mode's only where its SINR
//! margin lies inside the bound `resolve_with_bound` returns for that very
//! listener. `mca-sinr`'s proptests hold single listeners to it; this
//! module holds *whole runs* to it. A Fast world is run as configured
//! under the flood workload of [`crate::scenario_flood_trial`]; every
//! listen the engine resolved against a transmitter is resolved again
//! here in both modes, every listener whose decode differs is listed, and
//! each such flip's Exact margin is tested against its own bound — a flip
//! whose margin survives the bound in either direction is *outside* it
//! and fails the audit.
//!
//! The integer results of the audited runs are committed as
//! `scenarios/GOLDEN_flips.json` next to the golden trial metrics
//! ([`golden_flips`], an [`crate::artifacts`] entry): a change to the
//! Fast index moves them, and the table of old → new counts is the
//! evidence such a change is reviewed on. Fast and Exact outcomes
//! are bit-identical at every thread count, shard grid and vector width,
//! so the counts are too.

use crate::scenario_run::flood_cfg;
use mca_analysis::Table;
use mca_core::aggregate::intercluster::FloodCombine;
use mca_core::MaxAgg;
use mca_geom::Point;
use mca_radio::{Action, Channel, Observation, Protocol};
use mca_scenario::{builtin_scenarios, DeploymentSpec, Scenario, ScenarioSim};
use mca_sinr::{ChannelResolver, ListenOutcome, ResolveMode, SinrParams, WalkStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeds every Fast catalog world is audited at (the golden trials' own).
pub const AUDIT_SEEDS: [u64; 2] = crate::golden::GOLDEN_SEEDS;

/// The name the one-slot world goes by on the command line and in the
/// committed file: a `dense-engine`-shaped slot, 50 000 nodes at 4 per
/// unit², every node transmitting with probability 0.2 on one channel.
pub const DENSE_SLOT: &str = "dense-slot";
const DENSE_SLOT_NODES: usize = 50_000;
const DENSE_SLOT_SEED: u64 = 13;
/// The flood's transmit probability — what makes a sampled slot
/// `dense-engine`-shaped.
pub const SLOT_TX_PROB: f64 = 0.2;

/// One listener whose Fast decode differs from its Exact decode.
#[derive(Debug, Clone, PartialEq)]
pub struct Flip {
    /// Slot of the listen.
    pub slot: u64,
    /// Channel of the listen.
    pub channel: u16,
    /// Where the listener stood.
    pub listener: Point,
    /// Fast mode's decoded transmitter (index into the channel's set).
    pub fast: Option<u32>,
    /// Exact mode's decoded transmitter.
    pub exact: Option<u32>,
    /// Exact SINR of the strongest transmitter — its distance from `β` is
    /// the margin the flip crossed.
    pub sinr: f64,
    /// The listener's published interference bound.
    pub bound: f64,
    /// Whether the margin is inside the bound (the contract).
    pub inside_bound: bool,
}

/// The audit of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlipAudit {
    /// Catalog name of the world, or [`DENSE_SLOT`].
    pub run: String,
    /// Trial seed.
    pub seed: u64,
    /// Listens resolved against at least one transmitter.
    pub listens: u64,
    /// Of those, the ones Fast mode decoded.
    pub decodes: u64,
    /// Every listener whose decode differs between the modes.
    pub flips: Vec<Flip>,
    /// Largest `bound ÷ total power` over the listens, in parts per
    /// million (floored).
    pub max_bound_ppm: u64,
    /// Σ `bound ÷ total power` over the listens.
    bound_share_sum: f64,
    /// What the reference walk evaluated, summed over the listens that
    /// went through an index.
    pub walk: WalkStats,
    /// Listens that went through an index.
    pub walked: u64,
}

impl FlipAudit {
    /// Flips whose margin is not inside their bound — must be 0.
    pub fn flips_outside_bound(&self) -> u64 {
        self.flips.iter().filter(|f| !f.inside_bound).count() as u64
    }

    /// What Exact mode decoded of the same listens: Fast's decodes with
    /// every flip undone. A change to the Fast index cannot move it.
    pub fn exact_decodes(&self) -> u64 {
        let gained = self.flips.iter().filter(|f| f.exact.is_some()).count() as u64;
        let lost = self.flips.iter().filter(|f| f.fast.is_some()).count() as u64;
        self.decodes + gained - lost
    }

    /// Mean `bound ÷ total power` over the listens, in parts per million
    /// (floored).
    pub fn mean_bound_ppm(&self) -> u64 {
        if self.listens == 0 {
            return 0;
        }
        (self.bound_share_sum / self.listens as f64 * 1e6) as u64
    }

    /// Mean `(near, node)` evaluations of the reference walk per indexed
    /// listen, or `None` when no channel of the run built an index.
    pub fn evals_per_listen(&self) -> Option<(f64, f64)> {
        (self.walked > 0).then(|| {
            let n = self.walked as f64;
            (self.walk.near as f64 / n, self.walk.nodes as f64 / n)
        })
    }

    /// The committed line of this run: integers only.
    pub fn golden_line(&self) -> String {
        format!(
            concat!(
                "    {{\"run\": \"{}\", \"seed\": {}, \"listens\": {}, \"decodes\": {}, ",
                "\"exact_decodes\": {}, \"flips\": {}, \"flips_outside_bound\": {}, ",
                "\"max_bound_ppm\": {}, \"mean_bound_ppm\": {}}}"
            ),
            self.run,
            self.seed,
            self.listens,
            self.decodes,
            self.exact_decodes(),
            self.flips.len(),
            self.flips_outside_bound(),
            self.max_bound_ppm,
            self.mean_bound_ppm(),
        )
    }

    /// Resolves one channel-slot in both modes and books every listener.
    /// `params` are the channel's Fast-mode parameters (jamming already in
    /// the noise floor), `extra` its environmental interference.
    fn audit_channel(
        &mut self,
        slot: u64,
        channel: u16,
        params: &SinrParams,
        tx: &[Point],
        rx: &[Point],
        extra: f64,
    ) {
        let exact_params = params.with_resolve(ResolveMode::Exact);
        let exact = ChannelResolver::new(&exact_params, tx);
        let mut exact_out: Vec<ListenOutcome> = Vec::new();
        exact.resolve_batch_into(rx, extra, &mut exact_out);
        let fast = ChannelResolver::new(params, tx);
        self.listens += rx.len() as u64;
        if !fast.is_fast() {
            // No index: Fast mode ran the exact scan itself.
            self.decodes += exact_out.iter().filter(|o| o.decoded.is_some()).count() as u64;
            return;
        }
        for (&l, out_e) in rx.iter().zip(&exact_out) {
            let (out_f, bound, stats) = fast.resolve_with_bound(l, extra);
            self.walk.near += stats.near;
            self.walk.nodes += stats.nodes;
            self.walked += 1;
            self.decodes += u64::from(out_f.decoded.is_some());
            let share = bound / out_f.total_power;
            self.bound_share_sum += share;
            self.max_bound_ppm = self.max_bound_ppm.max((share * 1e6) as u64);
            if out_f.decoded == out_e.decoded {
                continue;
            }
            // The margin test of `mca-sinr`'s proptests, on the exact
            // scan's own figures: the flip is inside the bound iff moving
            // the interference by it (plus ulp-scale slack for the
            // near field's cell-order sum) can cross `β` either way.
            let (sig, total) = tx.iter().fold((f64::NEG_INFINITY, extra), |(s, t), p| {
                let pw = params.received_power_sq(p.dist_sq(l));
                (s.max(pw), t + pw)
            });
            let interference = total - sig;
            let slack = bound + 1e-9 * (params.noise + interference);
            let robust_yes = params.decodes(sig, interference + slack);
            let robust_no = !params.decodes(sig, (interference - slack).max(0.0));
            self.flips.push(Flip {
                slot,
                channel,
                listener: l,
                fast: out_f.decoded,
                exact: out_e.decoded,
                sinr: params.sinr(sig, interference),
                bound,
                inside_bound: !robust_yes && !robust_no,
            });
        }
    }
}

/// A protocol wrapper that remembers its node's last action. It forwards
/// no polling hint, so the engine polls the node every slot (by the
/// hints' own contract that changes nothing the node does) and every
/// action of the run passes through [`Protocol::act`].
struct Tap<P> {
    inner: P,
    /// `(slot, channel, transmitted)` of the last non-idle action.
    last: Option<(u64, Channel, bool)>,
}

impl<P: Protocol> Protocol for Tap<P> {
    type Msg = P::Msg;

    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<P::Msg> {
        let action = self.inner.act(slot, rng);
        if let Some(ch) = action.channel() {
            self.last = Some((slot, ch, action.is_transmit()));
        }
        action
    }

    fn observe(&mut self, slot: u64, obs: Observation<P::Msg>, rng: &mut SmallRng) {
        self.inner.observe(slot, obs, rng);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

/// Audits a whole run of `scenario` at trial `seed`: the flood workload,
/// stepped as configured (resolve mode, environment), with every
/// resolved channel-slot re-resolved in both modes.
///
/// # Panics
///
/// Panics if the decodes counted here are not the engine's own — the
/// audit would then be looking at different listens than the run.
pub fn audit_scenario(scenario: &Scenario, seed: u64) -> FlipAudit {
    let cfg = flood_cfg(scenario.channels, scenario.max_slots);
    let mut sim = ScenarioSim::new(scenario, seed, |i, _| Tap {
        inner: FloodCombine::dominator(MaxAgg, cfg, 0, i as i64),
        last: None,
    });
    let mut audit = FlipAudit {
        run: scenario.name.clone(),
        seed,
        ..FlipAudit::default()
    };
    let channels = scenario.channels as usize;
    let mut tx: Vec<Vec<Point>> = vec![Vec::new(); channels];
    let mut rx: Vec<Vec<Point>> = vec![Vec::new(); channels];
    while sim.slot() < scenario.max_slots && !sim.engine().all_done() {
        let slot = sim.slot();
        sim.step();
        tx.iter_mut().chain(rx.iter_mut()).for_each(Vec::clear);
        for (tap, &p) in sim.protocols().iter().zip(sim.positions()) {
            match tap.last {
                Some((s, ch, true)) if s == slot => tx[ch.0 as usize].push(p),
                Some((s, ch, false)) if s == slot => rx[ch.0 as usize].push(p),
                _ => {}
            }
        }
        let engine = sim.engine();
        for ch in 0..channels {
            if tx[ch].is_empty() || rx[ch].is_empty() {
                continue;
            }
            // The engine's own staging: jamming raises the noise floor,
            // fading adds interference.
            let mut params = scenario.params;
            params.noise += engine.faults().jam_power(ch as u16, slot);
            let extra = engine
                .channel_conditions()
                .get(ch)
                .map_or(0.0, |c| c.extra_interference);
            audit.audit_channel(slot, ch as u16, &params, &tx[ch], &rx[ch], extra);
        }
    }
    let m = sim.metrics();
    assert_eq!(
        audit.decodes,
        m.receptions + m.env_drops,
        "the audit of `{}` seed {seed} did not see the engine's decodes",
        scenario.name
    );
    audit
}

/// Cuts one slot from `points` the way the flood would: every node
/// transmits with probability [`SLOT_TX_PROB`], everyone else listens,
/// all on one channel. Returns `(transmitters, listeners)`.
pub fn sample_slot(points: &[Point], seed: u64) -> (Vec<Point>, Vec<Point>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    points
        .iter()
        .copied()
        .partition(|_| rng.gen_bool(SLOT_TX_PROB))
}

/// What one listen of a [`sample_slot`] of `scenario` costs the resolver
/// in power evaluations: the reference walk's `(near, node)` counts,
/// averaged over (at most 2048 of) the slot's listeners, with the slot's
/// transmitter count. `None` when the slot has nobody to listen or nobody
/// to hear.
pub fn sampled_walk(scenario: &Scenario, seed: u64) -> Option<(f64, f64, usize)> {
    let (tx, rx) = sample_slot(scenario.deployment_for(seed).points(), seed);
    let resolver = ChannelResolver::new(&scenario.params, &tx);
    let walked = &rx[..rx.len().min(2048)];
    if tx.is_empty() || walked.is_empty() {
        return None;
    }
    let (near, nodes) = walked.iter().fold((0, 0), |(near, nodes), &l| {
        let stats = resolver.resolve_with_bound(l, 0.0).2;
        (near + stats.near, nodes + stats.nodes)
    });
    let n = walked.len() as f64;
    Some((near as f64 / n, nodes as f64 / n, tx.len()))
}

/// Audits the [`DENSE_SLOT`] world: one slot, every listener.
pub fn audit_dense_slot() -> FlipAudit {
    let n = DENSE_SLOT_NODES;
    let world = Scenario::builder(DENSE_SLOT)
        .deployment(DeploymentSpec::Uniform {
            n,
            side: (n as f64 / 4.0).sqrt(),
        })
        .sinr(SinrParams::default().with_resolve(ResolveMode::fast()))
        .build();
    let deployment = world.deployment_for(DENSE_SLOT_SEED);
    let (tx, rx) = sample_slot(deployment.points(), DENSE_SLOT_SEED);
    let mut audit = FlipAudit {
        run: DENSE_SLOT.to_string(),
        seed: DENSE_SLOT_SEED,
        ..FlipAudit::default()
    };
    audit.audit_channel(0, 0, &world.params, &tx, &rx, 0.0);
    audit
}

/// Every committed run, in file order: each catalog world that resolves
/// in Fast mode at each of [`AUDIT_SEEDS`], then the dense slot.
pub fn audit_all() -> Vec<FlipAudit> {
    let mut runs = Vec::new();
    let catalog = builtin_scenarios();
    let fast = |s: &&Scenario| s.params.resolve != ResolveMode::Exact;
    for world in catalog.iter().map(|e| &e.scenario).filter(fast) {
        runs.extend(AUDIT_SEEDS.map(|seed| audit_scenario(world, seed)));
    }
    runs.push(audit_dense_slot());
    runs
}

/// Renders `scenarios/GOLDEN_flips.json` from a fresh [`audit_all`], or
/// names the first flip outside its bound.
pub fn golden_flips() -> Result<String, String> {
    let runs = audit_all();
    flips_inside_bounds(&runs)?;
    let lines: Vec<String> = runs.iter().map(FlipAudit::golden_line).collect();
    Ok(format!(
        concat!(
            "{{\n  \"golden\": \"Fast-vs-Exact flip audit\",\n",
            "  \"contract\": \"every flip's Exact margin inside its listener's published bound; ",
            "counts identical at every thread count, shard grid and vector width\",\n",
            "  \"runs\": [\n{}\n  ]\n}}\n"
        ),
        lines.join(",\n")
    ))
}

/// The audit's gate: no flip of `runs` outside its bound. Names the first
/// that is.
pub fn flips_inside_bounds(runs: &[FlipAudit]) -> Result<(), String> {
    for run in runs {
        if let Some(f) = run.flips.iter().find(|f| !f.inside_bound) {
            return Err(format!(
                "`{}` seed {}: flip outside its bound: {f:?}",
                run.run, run.seed
            ));
        }
    }
    Ok(())
}

/// Renders audited runs as markdown: one row per run, then every flip.
pub fn flip_audit_table(runs: &[FlipAudit]) -> String {
    let mut table = Table::new(
        "flip audit: Fast vs Exact decodes over whole runs",
        [
            "run",
            "seed",
            "listens",
            "decodes",
            "exact decodes",
            "flips",
            "outside bound",
            "max bound/power ppm",
            "mean bound/power ppm",
            "near evals/listen",
            "node evals/listen",
        ],
    );
    let mut flips = Table::new(
        "flips",
        [
            "run", "seed", "slot", "channel", "listener", "fast", "exact", "sinr", "bound",
            "inside",
        ],
    );
    for run in runs {
        let (near, nodes) = run
            .evals_per_listen()
            .map_or(("-".into(), "-".into()), |(near, nodes)| {
                (format!("{near:.1}"), format!("{nodes:.1}"))
            });
        table.row([
            run.run.clone(),
            run.seed.to_string(),
            run.listens.to_string(),
            run.decodes.to_string(),
            run.exact_decodes().to_string(),
            run.flips.len().to_string(),
            run.flips_outside_bound().to_string(),
            run.max_bound_ppm.to_string(),
            run.mean_bound_ppm().to_string(),
            near,
            nodes,
        ]);
        for f in &run.flips {
            flips.row([
                run.run.clone(),
                run.seed.to_string(),
                f.slot.to_string(),
                f.channel.to_string(),
                format!("({:.3}, {:.3})", f.listener.x, f.listener.y),
                format!("{:?}", f.fast),
                format!("{:?}", f.exact),
                format!("{:.6}", f.sinr),
                format!("{:.3e}", f.bound),
                f.inside_bound.to_string(),
            ]);
        }
    }
    format!("{table}\n{flips}")
}
