//! `churn-repair`: the catalog's `mobile-churn` world scaled to 600
//! nodes (same density, slow waypoint mobility, 15% late joins, 10%
//! crashes) under a maintenance epoch every 25 slots: build the §5
//! structure once, then per epoch `drain_events` → `observe` → `repair` →
//! `audit().check()`, each `repair` timed.
//!
//! `mca-core::maintain` does nearly all of the work, the engine is only a
//! world clock under an idle protocol, and `mca-sinr` runs inside the
//! repair phases on masked live subsets — a third use of the resolver
//! that no other workload makes.

use super::probes::{self, ratio, Idle};
use super::{shares, Checks, Ctx, Metrics, RepKind, RunStats, Workload};
use crate::spec::CHURN_REPAIR;
use crate::trace::{self, ROOT};
use mca_core::{
    AggregationStructure, AlgoConfig, MaintainConfig, NetworkEnv, RepairKind, StructureConfig,
    StructureMaintainer,
};
use mca_radio::rng::derive_seed;
use mca_scenario::{
    ChurnSpec, DeploymentSpec, EnvironmentModel, MaintenanceSpec, MobilitySpec, Scenario,
    ScenarioSim, World,
};
use std::time::Instant;

/// Slots between maintenance epochs.
const EPOCH_SLOTS: u64 = 25;
/// Epochs per repetition (1250 slots); repetitions restart the same
/// world, so two of them give the 100 repairs `p90` needs.
const EPOCHS_PER_REP: u64 = 50;
/// Nodes per unit area of the catalog's `mobile-churn` world.
const DENSITY: f64 = 120.0 / 144.0;
/// Slots the environment-stepping probe runs.
const ENV_PROBE_SLOTS: u64 = 500;
/// Slots each engine probe runs.
const ENGINE_PROBE_SLOTS: u64 = 300;

/// What one repetition's epochs added up to; repetitions must agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct RepTally {
    epochs: u64,
    clean_epochs: u64,
    repair_slots: u64,
    fallbacks: u64,
}

/// The workload's state.
pub struct ChurnRepair {
    scenario: Scenario,
    cfg: StructureConfig,
    mcfg: MaintainConfig,
    alive0: Vec<bool>,
    /// The structure every repetition starts from.
    built: AggregationStructure,
    maintainer_build_ms: f64,
    /// Milliseconds of every `repair` of the untraced repetitions.
    repair_ms: Vec<f64>,
    /// Milliseconds of every post-repair audit of the same repetitions.
    audit_ms: Vec<f64>,
    tallies: Vec<RepTally>,
    first_violation: Option<String>,
}

fn world(n: usize, slots: u64) -> Scenario {
    let joins_until = slots * 9 / 25;
    Scenario::builder(CHURN_REPAIR)
        .deployment(DeploymentSpec::Uniform {
            n,
            side: (n as f64 / DENSITY).sqrt(),
        })
        .mobility(MobilitySpec::RandomWaypoint {
            speed_min: 0.003,
            speed_max: 0.01,
            pause: 10,
        })
        .churn(ChurnSpec::Random {
            join_fraction: 0.15,
            join_window: (1, joins_until),
            crash_fraction: 0.1,
            crash_window: (joins_until, slots),
        })
        .channels(4)
        .max_slots(slots)
        .maintenance(MaintenanceSpec {
            every: EPOCH_SLOTS,
            handover_hysteresis: MaintenanceSpec::DEFAULT_HYSTERESIS,
            rebuild_threshold: MaintenanceSpec::DEFAULT_REBUILD_THRESHOLD,
        })
        .build()
}

impl ChurnRepair {
    fn env_at(&self, positions: &[mca_geom::Point]) -> NetworkEnv {
        NetworkEnv {
            params: self.scenario.params,
            positions: positions.to_vec(),
        }
    }

    /// Runs the world for `slots` slots from its initial state; returns
    /// the wall seconds of each epoch (its slots, repair and audit).
    fn run_epochs(
        &mut self,
        ctx: &Ctx<'_>,
        slots: u64,
        kind: Option<RepKind>,
        tag: u32,
    ) -> Vec<f64> {
        let seed = ctx.seed;
        let mut spans = ctx.tracer.local();
        let rep = spans.start("bench.rep", ROOT, tag);
        let mut maintainer = spans.span("core.maintainer_adopt", rep.id, tag, |_, _| {
            StructureMaintainer::adopt(self.built.clone(), self.cfg, self.mcfg, self.alive0.clone())
        });
        let tolerances = maintainer.tolerances();
        let mut sim = spans.span("scenario.sim_new", rep.id, tag, |_, _| {
            ScenarioSim::new(&self.scenario, seed, |_, _| Idle)
        });
        sim.engine_mut().watch_events(maintainer.move_threshold());
        let mut tally = RepTally::default();
        let mut violation = None;
        let (mut repair_ms, mut audit_ms, mut epochs_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut epoch_start = Instant::now();
        // `run_epochs` runs the slots between callbacks itself, so the
        // world-clock span opens where one callback ends and closes where
        // the next begins.
        let mut clock = spans.start("scenario.run_slots", rep.id, tag);
        tally.epochs = sim.run_epochs(slots, |sim, epoch| {
            spans.end(clock);
            let events = spans.start("core.observe", rep.id, tag);
            for event in sim.engine_mut().drain_events() {
                maintainer.observe(&event);
            }
            spans.end(events);
            let env = self.env_at(sim.positions());
            let repair = spans.start("core.repair", rep.id, tag);
            let t = Instant::now();
            let report = maintainer.repair(&env, derive_seed(seed, 0xE70C ^ epoch));
            repair_ms.push(t.elapsed().as_secs_f64() * 1e3);
            spans.end(repair);
            tally.repair_slots += report.total_slots();
            tally.fallbacks += (report.kind == RepairKind::Rebuilt) as u64;
            let audit = spans.start("core.repair_audit", rep.id, tag);
            let t = Instant::now();
            let verdict = maintainer.audit(&env).check(&tolerances);
            audit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            spans.end(audit);
            match verdict {
                Ok(()) => tally.clean_epochs += 1,
                Err(msg) => {
                    violation.get_or_insert(format!("epoch {epoch}: {msg}"));
                }
            }
            epochs_s.push(epoch_start.elapsed().as_secs_f64());
            epoch_start = Instant::now();
            clock = spans.start("scenario.run_slots", rep.id, tag);
        });
        spans.end(clock);
        spans.end(rep);
        if kind == Some(RepKind::Timed) {
            self.repair_ms.extend(repair_ms);
            self.audit_ms.extend(audit_ms);
        }
        if kind.is_some() {
            self.tallies.push(tally);
            if self.first_violation.is_none() {
                self.first_violation = violation;
            }
        }
        epochs_s
    }
}

impl Workload for ChurnRepair {
    const NAME: &'static str = CHURN_REPAIR;
    const POOLED: bool = false;

    fn setup(ctx: &Ctx<'_>) -> Result<Self, String> {
        let (n, epochs) = if ctx.smoke {
            (150, 8)
        } else {
            (600, EPOCHS_PER_REP)
        };
        let scenario = world(n, epochs * EPOCH_SLOTS);
        let maintenance = scenario
            .maintenance
            .expect("the world sets a maintenance policy");
        let algo = AlgoConfig::practical(scenario.channels, &scenario.params, n);
        let cfg = StructureConfig::new(algo, derive_seed(ctx.seed, 0xB01D));
        let mcfg = MaintainConfig {
            handover_hysteresis: maintenance.handover_hysteresis,
            rebuild_threshold: maintenance.rebuild_threshold,
            ..MaintainConfig::default()
        };
        let faults = scenario.faults_for(ctx.seed);
        let alive0: Vec<bool> = (0..n as u32).map(|i| !faults.is_absent(i, 0)).collect();
        let env0 = NetworkEnv {
            params: scenario.params,
            positions: scenario.deployment_for(ctx.seed).into_points(),
        };
        let t = Instant::now();
        let built = StructureMaintainer::build(&env0, cfg, mcfg, Some(&alive0))
            .structure()
            .clone();
        let maintainer_build_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut w = ChurnRepair {
            scenario,
            cfg,
            mcfg,
            alive0,
            built,
            maintainer_build_ms,
            repair_ms: Vec::new(),
            audit_ms: Vec::new(),
            tallies: Vec::new(),
            first_violation: None,
        };
        // Warm-up: the first two epochs.
        w.run_epochs(ctx, 2 * EPOCH_SLOTS, None, 0);
        Ok(w)
    }

    fn rep(&mut self, ctx: &Ctx<'_>, kind: RepKind, tag: u32) -> Result<Vec<f64>, String> {
        Ok(self.run_epochs(ctx, self.scenario.max_slots, Some(kind), tag))
    }

    fn check(&mut self, _ctx: &Ctx<'_>, checks: &mut Checks) {
        let Some(first) = self.tallies.first().copied() else {
            return checks.fail(1, "no repetition ran");
        };
        for (i, tally) in self.tallies.iter().enumerate() {
            checks.attempt(tally.epochs);
            let dirty = tally.epochs - tally.clean_epochs;
            if dirty > 0 {
                let why = self.first_violation.clone().unwrap_or_default();
                checks.fail(
                    dirty,
                    format!("repetition {i}: {dirty} epochs failed the audit ({why})"),
                );
            }
            checks.require(*tally == first, || {
                format!("repetition {i} did not repeat the first one: {tally:?} vs {first:?}")
            });
        }
    }

    fn report(&mut self, ctx: &Ctx<'_>, _run: &RunStats, out: &mut Metrics) {
        let tally = self.tallies.first().copied().unwrap_or_default();
        out.set("sim_slots", tally.repair_slots as f64, 1);
        out.set_percentile("repair_ms_p50", &self.repair_ms, 50.0);
        out.set_percentile("repair_ms_p90", &self.repair_ms, 90.0);
        if !ctx.traced {
            return;
        }
        let n = self.scenario.len();
        out.set("core.maintainer_build_ms", self.maintainer_build_ms, 1);
        let mean = |xs: &[f64]| ratio(xs.iter().sum(), xs.len() as f64);
        out.set(
            "core.repair_ms_per_epoch",
            mean(&self.repair_ms),
            self.repair_ms.len(),
        );
        out.set(
            "core.repair_audit_ms",
            mean(&self.audit_ms),
            self.audit_ms.len(),
        );
        out.set(
            "core.repair_slots",
            tally.repair_slots as f64,
            tally.epochs as usize,
        );
        out.set(
            "core.rebuild_fallbacks",
            tally.fallbacks as f64,
            tally.epochs as usize,
        );

        let seed = ctx.seed;
        let scenario = &self.scenario;
        let deploy_ns = super::median_ns(5, || {
            std::hint::black_box(scenario.deployment_for(seed).len());
        });
        out.set("geom.deploy_ns_per_node", deploy_ns / n as f64, n);
        let sim_new_ns = super::median_ns(5, || {
            std::hint::black_box(ScenarioSim::new(scenario, seed, |_, _| Idle).slot());
        });
        out.set("scenario.sim_new_ns_per_node", sim_new_ns / n as f64, n);

        // Environment stepping exactly as `ScenarioSim::step` does it,
        // without the engine slot that follows.
        let points = scenario.deployment_for(seed).into_points();
        let idle = (0..n).map(|_| Idle).collect();
        let mut engine = mca_radio::Engine::new(scenario.params, points.clone(), idle, seed)
            .with_faults(scenario.faults_for(seed));
        let (mut env, mut env_rng) = scenario.environment_for(seed);
        let t = Instant::now();
        for slot in 0..ENV_PROBE_SLOTS {
            let (positions, conditions, faults) = engine.env_parts();
            env.step(
                slot,
                &mut World {
                    positions,
                    conditions,
                    faults,
                    rng: &mut env_rng,
                },
            );
        }
        let env_ns = t.elapsed().as_nanos() as f64;
        out.set(
            "scenario.env_step_ns_per_node_slot",
            env_ns / (ENV_PROBE_SLOTS as f64 * n as f64),
            ENV_PROBE_SLOTS as usize,
        );

        let rp = probes::resolve_probe(
            &scenario.params,
            &points,
            self.cfg.algo.density_tx_prob(),
            seed,
        );
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
        // Repair phases run their engines inside `mca-core`; the radio
        // layer is probed with the flood protocol on the initial world.
        let ep = probes::engine_probe(
            scenario.params,
            &points,
            seed,
            ENGINE_PROBE_SLOTS,
            Some(scenario.channels),
            |e| e,
        );
        out.set(
            "radio.step_ns_per_slot",
            ep.flood_step_ns_per_slot,
            ENGINE_PROBE_SLOTS as usize,
        );
        out.set(
            "radio.fixed_ns_per_node_slot",
            ep.fixed_ns_per_node_slot,
            ENGINE_PROBE_SLOTS as usize,
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

        // As in `paper-pipeline`, engine and resolver work nested inside
        // `repair` is charged to `core` until spans inside the program
        // exist; `scenario.run_slots` is the idle world clock.
        let spans = ctx.tracer.spans();
        let by_layer: Vec<(&'static str, f64)> = trace::self_ns_by_layer(&spans)
            .into_iter()
            .filter(|(layer, _)| *layer != "bench")
            .map(|(layer, ns)| (layer, ns as f64))
            .collect();
        out.layer_shares = shares(&by_layer);
    }
}
