//! `paper-pipeline`: the paper's own pipeline on the E1/E2 dense regime —
//! `n = 1200` nodes on a `sqrt(n/8)` square, cluster radius 1.5,
//! practical constants; for `F ∈ {1, 8}`: communication graph →
//! `build_structure` → `audit_structure` → `aggregate` (max, flood
//! inter-cluster mode) → `color_nodes` (at `F = 8`).
//!
//! It drives the same `mca-radio`/`mca-sinr` layers the opposite way to
//! `dense-engine`: ~10^5 tiny Exact-mode slots at tens of microseconds
//! each, where `mca-core`'s protocol state machines and the engine's
//! fixed per-slot cost dominate. It is also the only workload whose
//! *simulated* statistics are the paper's headline (aggregation slots at
//! `F = 1` over `F = 8`, Theorem 22), so a speed-only change that moves
//! them is caught.

use super::probes::{self, ratio};
use super::{shares, Checks, Ctx, Metrics, RepKind, RunStats, Workload};
use crate::spec::PAPER_PIPELINE;
use crate::trace::{self, ROOT};
use mca_core::{
    aggregate, audit_structure, build_structure, color_nodes, AlgoConfig, AuditTolerances,
    Constants, InterclusterMode, MaxAgg, NetworkEnv, StructureConfig,
};
use mca_geom::Deployment;
use mca_radio::rng::derive_seed;
use mca_sinr::{NodeKnowledge, SinrParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use std::time::Instant;

/// Worlds per repetition: two independent deployments halve the
/// seed-to-seed swing of the simulated slot counts (one world's total has
/// a standard deviation of 8%). Four were no steadier on the reference
/// host: they halve the samples each step gets in the window.
const WORLDS: u64 = 2;
/// Channel counts the pipeline runs at.
const CHANNELS: [u16; 2] = [1, 8];
/// Nodes per unit area (the E1/E2 dense regime).
const DENSITY: f64 = 8.0;
/// Dominating/cluster radius of the regime.
const CLUSTER_RADIUS: f64 = 1.5;
/// Slots each engine probe runs.
const PROBE_SLOTS: u64 = 300;
/// Candidate deployments set-up draws before it gives up on a seed.
const MAX_CANDIDATES: u64 = 32;

/// What one `(world, F)` pipeline produced.
#[derive(Debug, Clone, PartialEq)]
struct PipelineResult {
    channels: u16,
    build_slots: u64,
    agg_slots: u64,
    /// Colouring slots (`F = 8` only).
    color_slots: u64,
    /// First audit violation, if any.
    audit_violation: Option<String>,
    sink_holds_max: bool,
    /// `None` where colouring did not run.
    coloring_proper: Option<bool>,
}

/// The workload's state.
pub struct PaperPipeline {
    params: SinrParams,
    worlds: Vec<(u64, NetworkEnv)>,
    /// Candidate worlds set-up drew and rejected.
    rejected: u64,
    /// Results of the first repetition; later ones must repeat them.
    first: Vec<PipelineResult>,
    reps: u64,
    diverged: u64,
}

fn deploy(n: usize, seed: u64) -> Deployment {
    let mut rng = SmallRng::seed_from_u64(seed);
    Deployment::uniform(n, (n as f64 / DENSITY).sqrt(), &mut rng)
}

fn inputs(n: usize) -> Vec<i64> {
    (0..n).map(|i| (i as i64 * 7919) % 100_000).collect()
}

fn configs(env: &NetworkEnv, channels: u16, seed: u64) -> (AlgoConfig, StructureConfig) {
    let algo = AlgoConfig::new(
        channels,
        NodeKnowledge::exact(&env.params, env.len()),
        Constants::practical(),
    );
    let mut cfg = StructureConfig::new(algo, seed);
    cfg.cluster_radius = CLUSTER_RADIUS;
    (algo, cfg)
}

/// Whether the structures the pipeline will build on `env` pass the
/// whole audit.
///
/// The paper's guarantees hold on a w.h.p. event, and the seed, not the
/// benchmark, picks the worlds: in about 4 of 100 of them a CSA
/// coordinator never settles and keeps its last-phase size estimate (2
/// for 69 members, say), and where the estimate is more than ~20x low the
/// colouring's follower schedule is too short and leaves nodes
/// uncoloured after four times the usual slots. Set-up therefore keeps
/// only worlds on that event; the repetitions hold them to it.
fn audits_clean(env: &NetworkEnv, seed: u64) -> bool {
    CHANNELS.iter().all(|&f| {
        let (_, cfg) = configs(env, f, seed);
        let structure = build_structure(env, &cfg);
        audit_structure(env, &structure, cfg.cluster_radius)
            .check(&AuditTolerances::default())
            .is_ok()
    })
}

/// The candidates this process's worlds are, out of `0..MAX_CANDIDATES`.
/// They are a function of the seed, so the first set-up finds them and
/// the later ones (the harness sets up several times and reports the
/// median) build the same worlds without screening again: `setup_s` is
/// the program's set-up, not the benchmark's choice of inputs.
static PICKED: OnceLock<Vec<u64>> = OnceLock::new();

/// Draws candidate worlds from `seed` until [`WORLDS`] of them audit clean.
fn pick_worlds(params: SinrParams, n: usize, seed: u64) -> Result<Vec<u64>, String> {
    let mut picked = Vec::new();
    for candidate in 0..MAX_CANDIDATES {
        let world_seed = derive_seed(seed, candidate);
        let env = NetworkEnv::new(params, &deploy(n, world_seed));
        if audits_clean(&env, world_seed) {
            picked.push(candidate);
            if picked.len() as u64 == WORLDS {
                return Ok(picked);
            }
        }
    }
    Err(format!(
        "only {} of {MAX_CANDIDATES} candidate worlds audit clean",
        picked.len()
    ))
}

/// Times the layer calls of one repetition: each is a span and a step.
struct Steps<'a, 't> {
    spans: &'a mut trace::Local<'t>,
    parent: trace::SpanId,
    tag: u32,
    seconds: Vec<f64>,
}

impl Steps<'_, '_> {
    fn run<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.spans.start(name, self.parent, self.tag);
        let t = Instant::now();
        let out = f();
        self.seconds.push(t.elapsed().as_secs_f64());
        self.spans.end(open);
        out
    }
}

/// Runs the pipeline on one world, one step per layer call.
fn pipeline(env: &NetworkEnv, seed: u64, steps: &mut Steps<'_, '_>) -> Vec<PipelineResult> {
    let n = env.len();
    let graph = steps.run("geom.comm_graph", || env.comm_graph());
    let d_hat = graph.diameter_approx() + 2;
    let inputs = inputs(n);
    let expect = inputs.iter().copied().max();
    CHANNELS
        .iter()
        .map(|&f| {
            let (algo, cfg) = configs(env, f, seed);
            let structure = steps.run("core.build_structure", || build_structure(env, &cfg));
            let audit = steps.run("core.audit", || {
                audit_structure(env, &structure, cfg.cluster_radius)
            });
            let out = steps.run("core.aggregate", || {
                aggregate(
                    env,
                    &structure,
                    &algo,
                    MaxAgg,
                    &inputs,
                    InterclusterMode::Flood,
                    d_hat,
                    seed ^ 0xA66,
                )
            });
            let coloring = (f == CHANNELS[1])
                .then(|| steps.run("core.color", || color_nodes(env, &structure, &algo, seed)));
            PipelineResult {
                channels: f,
                build_slots: structure.report.total_slots(),
                agg_slots: out.total_slots(),
                color_slots: coloring.as_ref().map_or(0, |c| c.total_slots()),
                audit_violation: audit.check(&AuditTolerances::default()).err(),
                sink_holds_max: out.values[0] == expect,
                coloring_proper: coloring.map(|c| {
                    let colors: Vec<u32> = c.colors.iter().map(|x| x.unwrap_or(u32::MAX)).collect();
                    c.uncolored == 0 && graph.coloring_violation(&colors).is_none()
                }),
            }
        })
        .collect()
}

impl PaperPipeline {
    fn slots_where(&self, f: u16, pick: impl Fn(&PipelineResult) -> u64) -> u64 {
        self.first
            .iter()
            .filter(|r| r.channels == f)
            .map(pick)
            .sum()
    }
}

impl Workload for PaperPipeline {
    const NAME: &'static str = PAPER_PIPELINE;
    const POOLED: bool = false;

    fn setup(ctx: &Ctx<'_>) -> Result<Self, String> {
        let params = SinrParams::default();
        let n = if ctx.smoke { 600 } else { 1200 };
        let picked = match PICKED.get() {
            Some(picked) => picked,
            None => {
                let picked = pick_worlds(params, n, ctx.seed)?;
                PICKED.get_or_init(|| picked)
            }
        };
        let worlds = picked
            .iter()
            .map(|&candidate| {
                let seed = derive_seed(ctx.seed, candidate);
                (seed, NetworkEnv::new(params, &deploy(n, seed)))
            })
            .collect();
        // Warm-up: the whole pipeline once on a small world.
        let warm = NetworkEnv::new(
            params,
            &deploy(n / 8, derive_seed(ctx.seed, MAX_CANDIDATES)),
        );
        let mut spans = ctx.tracer.local();
        let mut steps = Steps {
            spans: &mut spans,
            parent: ROOT,
            tag: 0,
            seconds: Vec::new(),
        };
        std::hint::black_box(pipeline(&warm, ctx.seed, &mut steps));
        Ok(PaperPipeline {
            params,
            worlds,
            rejected: picked.last().map_or(0, |last| last + 1 - WORLDS),
            first: Vec::new(),
            reps: 0,
            diverged: 0,
        })
    }

    fn rep(&mut self, ctx: &Ctx<'_>, _kind: RepKind, tag: u32) -> Result<Vec<f64>, String> {
        let mut spans = ctx.tracer.local();
        let rep = spans.start("bench.rep", ROOT, tag);
        let mut results = Vec::new();
        let mut steps = Steps {
            spans: &mut spans,
            parent: rep.id,
            tag,
            seconds: Vec::new(),
        };
        for (seed, env) in &self.worlds {
            results.extend(pipeline(env, *seed, &mut steps));
        }
        let steps_s = steps.seconds;
        spans.end(rep);
        self.reps += 1;
        if self.first.is_empty() {
            self.first = results;
        } else if self.first != results {
            self.diverged += 1;
        }
        Ok(steps_s)
    }

    fn check(&mut self, _ctx: &Ctx<'_>, checks: &mut Checks) {
        checks.attempt(self.first.len() as u64 * self.reps);
        for (i, r) in self.first.iter().enumerate() {
            let what = format!("world {} at F={}", i / CHANNELS.len(), r.channels);
            if let Some(v) = &r.audit_violation {
                checks.fail(1, format!("{what}: audit violation: {v}"));
            }
            checks.require(r.sink_holds_max, || {
                format!("{what}: the sink does not hold the true maximum")
            });
            checks.require(r.coloring_proper != Some(false), || {
                format!("{what}: the colouring is not proper")
            });
        }
        checks.require(self.diverged == 0, || {
            format!(
                "{} repetitions did not repeat the first one's results",
                self.diverged
            )
        });
    }

    fn report(&mut self, ctx: &Ctx<'_>, run: &RunStats, out: &mut Metrics) {
        if self.rejected > 0 {
            out.notes.push(format!(
                "set-up drew and dropped {} candidate world(s) whose structures miss the audit's w.h.p. event",
                self.rejected
            ));
        }
        let (f1, f8) = (CHANNELS[0], CHANNELS[1]);
        let build8 = self.slots_where(f8, |r| r.build_slots);
        let (agg1, agg8) = (
            self.slots_where(f1, |r| r.agg_slots),
            self.slots_where(f8, |r| r.agg_slots),
        );
        let color8 = self.slots_where(f8, |r| r.color_slots);
        out.set("sim_slots", (build8 + agg8 + color8) as f64, 1);
        out.set("sim_speedup", ratio(agg1 as f64, agg8 as f64), 1);
        if !ctx.traced {
            return;
        }
        out.set("core.build_slots", build8 as f64, 1);
        out.set("core.agg_slots_f1", agg1 as f64, 1);
        out.set("core.agg_slots_f8", agg8 as f64, 1);
        out.set("core.color_slots", color8 as f64, 1);

        // Per-call times from the traced repetitions' spans.
        let spans = ctx.tracer.spans();
        let traced_reps = run.traced_reps.len().max(1) as f64;
        let totals = trace::totals_by_name(&spans);
        let per_rep_ms = |name: &str| {
            totals.get(name).map_or((0.0, 0), |t| {
                (t.total_ns as f64 / 1e6 / traced_reps, t.count as usize)
            })
        };
        for (metric, span) in [
            ("core.build_structure_ms", "core.build_structure"),
            ("core.aggregate_ms", "core.aggregate"),
            ("core.color_ms", "core.color"),
            ("core.audit_ms", "core.audit"),
        ] {
            let (ms, count) = per_rep_ms(span);
            out.set(metric, ms, count);
        }
        let n = self.worlds[0].1.len();
        let (graph_ms, graphs) = per_rep_ms("geom.comm_graph");
        out.set(
            "geom.comm_graph_ns_per_node",
            graph_ms * 1e6 / (WORLDS as f64 * n as f64),
            graphs,
        );
        let all_slots =
            self.slots_where(f1, |r| r.build_slots + r.agg_slots) + build8 + agg8 + color8;
        let protocol_ms = per_rep_ms("core.build_structure").0
            + per_rep_ms("core.aggregate").0
            + per_rep_ms("core.color").0;
        out.set(
            "core.host_ns_per_sim_slot",
            ratio(protocol_ms * 1e6, all_slots as f64),
            all_slots as usize,
        );

        let (seed, env) = &self.worlds[0];
        let deploy_ns = super::median_ns(5, || {
            std::hint::black_box(deploy(n, *seed).len());
        });
        out.set("geom.deploy_ns_per_node", deploy_ns / n as f64, n);
        let algo = AlgoConfig::new(
            f8,
            NodeKnowledge::exact(&self.params, n),
            Constants::practical(),
        );
        let rp = probes::resolve_probe(&self.params, &env.positions, algo.density_tx_prob(), *seed);
        out.set(
            "geom.grid_build_ns_per_point",
            rp.grid_build_ns_per_point,
            rp.transmitters,
        );
        out.set(
            "sinr.index_build_ns_per_tx",
            rp.index_build_ns_per_tx,
            rp.transmitters,
        );
        out.set(
            "sinr.resolve_fast_ns_per_listener",
            rp.fast_ns_per_listener,
            rp.listeners,
        );
        out.set(
            "sinr.resolve_exact_ns_per_listener",
            rp.exact_ns_per_listener,
            rp.listeners,
        );
        // The pipeline's engines live inside `mca-core`; from outside, the
        // radio layer is probed with the flood protocol on the same world.
        let ep = probes::engine_probe(
            self.params,
            &env.positions,
            *seed,
            PROBE_SLOTS,
            Some(f8),
            |e| e,
        );
        out.set(
            "radio.step_ns_per_slot",
            ep.flood_step_ns_per_slot,
            PROBE_SLOTS as usize,
        );
        out.set(
            "radio.fixed_ns_per_node_slot",
            ep.fixed_ns_per_node_slot,
            PROBE_SLOTS as usize,
        );
        out.set("radio.engine_new_ns_per_node", ep.engine_new_ns_per_node, n);
        out.set(
            "radio.rx_per_listen",
            ratio(ep.receptions as f64, ep.listens as f64),
            ep.listens as usize,
        );
        out.set(
            "radio.busy_share",
            ratio(ep.busy_failures as f64, ep.listens as f64),
            ep.listens as usize,
        );

        // Spans stop at `mca-core`'s public functions: the engine and
        // resolver work nested inside them is charged to `core` until
        // spans inside the program exist.
        let by_layer: Vec<(&'static str, f64)> = trace::self_ns_by_layer(&spans)
            .into_iter()
            .filter(|(layer, _)| *layer != "bench")
            .map(|(layer, ns)| (layer, ns as f64))
            .collect();
        out.layer_shares = shares(&by_layer);
    }
}
