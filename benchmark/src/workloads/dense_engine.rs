//! `dense-engine`: one static 50 000-node world at 4 nodes per unit²,
//! 16 channels, Fast-mode reception, an 8×8 shard grid with parallel
//! (channel × shard) units, under the flood protocol of
//! `scenario_flood_trial`, stepped slot by slot with every slot timed.
//!
//! Nearly all of a slot is `mca-sinr` index build and lane resolution
//! dispatched as pool units; `mca-serde`, `mca-obs`, the sweep sink and
//! the structure code of `mca-core` do nothing here. A kernel, resolver
//! cache or unit-scheduling change must move this workload.

use super::probes::{self, flood_cfg, ratio};
use super::{shares, Checks, Ctx, Metrics, RepKind, RunStats, Workload};
use crate::spec::DENSE_ENGINE;
use crate::trace::ROOT;
use mca_core::aggregate::intercluster::FloodCombine;
use mca_core::MaxAgg;
use mca_radio::Metrics as EngineMetrics;
use mca_scenario::{DeploymentSpec, Scenario, ScenarioSim};
use mca_sinr::{ResolveMode, SinrParams};
use std::time::Instant;

/// Slots per repetition; four repetitions give the 200 samples `p95`
/// needs.
const SLOTS_PER_REP: u64 = 50;
/// Slots compared against the sequential unsharded reference engine.
const REFERENCE_SLOTS: u64 = 10;
/// Slot budget of the world: the flood phase outlasts any run, so every
/// slot does the same kind of work.
const MAX_SLOTS: u64 = 1_000_000;
/// Slots the idle-protocol probe runs.
const PROBE_SLOTS: u64 = 10;

/// The workload's state: the world, its running simulation, and what
/// the repetitions observed.
pub struct DenseEngine {
    scenario: Scenario,
    sim: ScenarioSim<FloodCombine<MaxAgg>>,
    slots_per_rep: u64,
    /// Milliseconds of every slot of the untraced repetitions.
    slot_ms: Vec<f64>,
    /// Engine metrics after slot `REFERENCE_SLOTS` of the run.
    at_reference: Option<EngineMetrics>,
    /// Listens per repetition.
    listens_per_rep: Vec<u64>,
    slots_stepped: u64,
}

fn world(n: usize) -> Scenario {
    Scenario::builder(DENSE_ENGINE)
        .deployment(DeploymentSpec::Uniform {
            n,
            side: (n as f64 / 4.0).sqrt(),
        })
        .sinr(SinrParams::default().with_resolve(ResolveMode::fast()))
        .channels(16)
        .max_slots(MAX_SLOTS)
        .par_channels(true)
        .shards(8)
        .par_shards(true)
        .build()
}

fn simulate(scenario: &Scenario, seed: u64) -> ScenarioSim<FloodCombine<MaxAgg>> {
    let cfg = flood_cfg(scenario.channels, scenario.max_slots);
    ScenarioSim::new(scenario, seed, |i, _| {
        FloodCombine::dominator(MaxAgg, cfg, 0, i as i64)
    })
}

impl Workload for DenseEngine {
    const NAME: &'static str = DENSE_ENGINE;
    const POOLED: bool = true;

    fn setup(ctx: &Ctx<'_>) -> Result<Self, String> {
        let scenario = world(if ctx.smoke { 4_000 } else { 50_000 });
        let mut sim = simulate(&scenario, ctx.seed);
        // Warm-up: slot 0 builds the shard map and sizes every buffer.
        sim.step();
        Ok(DenseEngine {
            scenario,
            sim,
            slots_per_rep: if ctx.smoke { 12 } else { SLOTS_PER_REP },
            slot_ms: Vec::new(),
            at_reference: None,
            listens_per_rep: Vec::new(),
            slots_stepped: 0,
        })
    }

    fn rep(&mut self, ctx: &Ctx<'_>, kind: RepKind, tag: u32) -> Result<Vec<f64>, String> {
        let mut spans = ctx.tracer.local();
        let mut steps_s = Vec::with_capacity(self.slots_per_rep as usize);
        let listens0 = self.sim.metrics().listens;
        let rep = spans.start("bench.rep", ROOT, tag);
        for _ in 0..self.slots_per_rep {
            let step = spans.start("radio.step", rep.id, tag);
            let t = Instant::now();
            self.sim.step();
            let slot_s = t.elapsed().as_secs_f64();
            spans.end(step);
            steps_s.push(slot_s);
            if kind == RepKind::Timed {
                self.slot_ms.push(slot_s * 1e3);
            }
            if self.sim.slot() == REFERENCE_SLOTS {
                self.at_reference = Some(self.sim.metrics().clone());
            }
        }
        spans.end(rep);
        self.slots_stepped += self.slots_per_rep;
        if kind == RepKind::Timed {
            self.listens_per_rep
                .push(self.sim.metrics().listens - listens0);
        }
        Ok(steps_s)
    }

    fn check(&mut self, ctx: &Ctx<'_>, checks: &mut Checks) {
        checks.attempt(self.slots_stepped);
        let m = self.sim.metrics();
        checks.require(
            m.receptions + m.busy_failures + m.silent_listens == m.listens,
            || {
                format!(
                    "listen accounting broken: {} receptions + {} busy + {} silent != {} listens",
                    m.receptions, m.busy_failures, m.silent_listens, m.listens
                )
            },
        );
        // The reference: the same world on a sequential, unsharded engine
        // with a one-thread pool must count the same first slots.
        let mut plain = self.scenario.clone();
        plain.shards = 0;
        plain.par_shards = false;
        plain.par_channels = false;
        rayon::set_num_threads(1);
        let mut reference = simulate(&plain, ctx.seed);
        reference.run(REFERENCE_SLOTS);
        rayon::set_num_threads(ctx.threads);
        match &self.at_reference {
            Some(seen) if seen == reference.metrics() => {}
            Some(seen) => checks.fail(
                REFERENCE_SLOTS,
                format!(
                    "first {REFERENCE_SLOTS} slots differ from the unsharded 1-thread engine: {seen:?} vs {:?}",
                    reference.metrics()
                ),
            ),
            None => checks.fail(1, format!("the run never reached slot {REFERENCE_SLOTS}")),
        }
    }

    fn report(&mut self, ctx: &Ctx<'_>, run: &RunStats, out: &mut Metrics) {
        out.set("sim_slots", self.slots_per_rep as f64, 1);
        out.set_percentile("slot_ms_p50", &self.slot_ms, 50.0);
        out.set_percentile("slot_ms_p95", &self.slot_ms, 95.0);
        if !ctx.traced {
            return;
        }
        let n = self.scenario.len();

        let q = flood_cfg(self.scenario.channels, MAX_SLOTS).q;
        let points = self.sim.positions().to_vec();
        let deploy_ns = super::median_ns(3, || {
            std::hint::black_box(self.scenario.deployment_for(ctx.seed).len());
        });
        out.set("geom.deploy_ns_per_node", deploy_ns / n as f64, n);
        let rp = probes::resolve_probe(&self.scenario.params, &points, q, ctx.seed);
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

        let listens = self.listens_per_rep.iter().copied().min().unwrap_or(0) as f64;
        out.set(
            "sinr.listener_resolutions",
            listens,
            self.listens_per_rep.len(),
        );
        // Every slot rebuilds one channel's index over that slot's
        // transmitters (the flood hops all nodes onto one channel).
        let tx_per_rep = self.slots_per_rep as f64 * rp.transmitters as f64;
        let sinr_ns = listens * rp.ns_per_listener(self.scenario.params.resolve)
            + tx_per_rep * rp.index_build_ns_per_tx;
        let cpu_ns = run.cpu_s() * 1e9;
        out.set("sinr.share_est", ratio(sinr_ns, cpu_ns), 1);

        let scenario = &self.scenario;
        let ep = probes::engine_probe(scenario.params, &points, ctx.seed, PROBE_SLOTS, None, |e| {
            e.with_par_channels(scenario.par_channels)
                .with_shards(scenario.shards)
                .with_par_shards(scenario.par_shards)
        });
        let slot_ns = run.wall_s() * 1e9 / self.slots_per_rep as f64;
        out.set("radio.step_ns_per_slot", slot_ns, self.slot_ms.len());
        out.set(
            "radio.fixed_ns_per_node_slot",
            ep.fixed_ns_per_node_slot,
            PROBE_SLOTS as usize,
        );
        out.set("radio.engine_new_ns_per_node", ep.engine_new_ns_per_node, n);
        let m = self.sim.metrics();
        out.set(
            "radio.rx_per_listen",
            ratio(m.receptions as f64, m.listens as f64),
            m.listens as usize,
        );
        out.set(
            "radio.busy_share",
            ratio(m.busy_failures as f64, m.listens as f64),
            m.listens as usize,
        );

        // From outside, a slot is one `radio.step` span; the probes split
        // its CPU time into resolution (sinr) and the rest (radio).
        let sinr_ns = sinr_ns.min(cpu_ns);
        out.layer_shares = shares(&[("sinr", sinr_ns), ("radio", cpu_ns - sinr_ns)]);
    }
}
