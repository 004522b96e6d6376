//! Incremental structure repair vs full rebuild, across the churn/mobility
//! catalog worlds — the harness behind claim table M1 of `EXPERIMENTS.md`.
//!
//! For each (scenario, seed) the harness builds the §5 aggregation
//! structure over the initial live set, then drives the scenario in
//! maintenance epochs ([`ScenarioSim::run_epochs`]) twice over the same
//! bit-identical world evolution:
//!
//! * **maintained arm** — a [`StructureMaintainer`] subscribes to the
//!   engine's crash/join/motion events and repairs incrementally each
//!   epoch; the structure must pass the masked audit (attachment certified
//!   against the handover hysteresis) at *every* epoch;
//! * **rebuild arm** — the structure is rebuilt from scratch over the
//!   current live set each epoch, the cost any maintenance-free driver
//!   would pay to stay fresh.
//!
//! Both costs are simulated protocol slots — the same currency as
//! [`BuildReport`](mca_core::BuildReport) — so the headline number,
//! `repair/rebuild = repair slots / rebuild slots`, is
//! implementation-independent. [`m1_repair`] renders the table, or names
//! every world that failed its acceptance gate (audits clean, repair
//! strictly cheaper than rebuild); `experiments artifacts` fails on it.

use mca_analysis::Table;
use mca_core::{
    AlgoConfig, MaintainConfig, NetworkEnv, RepairKind, StructureConfig, StructureMaintainer,
};
use mca_radio::rng::derive_seed;
use mca_radio::{Action, NodeEvent, Observation, Protocol};
use mca_scenario::{
    builtin_scenarios, CollectSink, KeyedTrial, MaintenanceSpec, Scenario, ScenarioSim, TrialSet,
};
use rand::rngs::SmallRng;

/// The catalog worlds the bench runs, in order. `churn` and
/// `waypoint-mobility` have no committed `[maintenance]` table, so the
/// bench applies [`DEFAULT_MAINTENANCE`]; the maintenance-enabled worlds
/// (`churn-maintained`, `mobile-churn`) run under their committed policy.
pub const REPAIR_BENCH_WORLDS: [&str; 4] = [
    "churn",
    "churn-maintained",
    "waypoint-mobility",
    "mobile-churn",
];

/// Policy applied to worlds without a committed `[maintenance]` table.
pub const DEFAULT_MAINTENANCE: MaintenanceSpec = MaintenanceSpec::every(100);

/// A protocol that does nothing: the world-clock payload for maintenance
/// runs, where the interesting traffic happens inside the repair phases.
struct Idle;

impl Protocol for Idle {
    type Msg = ();
    fn act(&mut self, _slot: u64, _rng: &mut SmallRng) -> Action<()> {
        Action::Idle
    }
    fn observe(&mut self, _slot: u64, _obs: Observation<()>, _rng: &mut SmallRng) {}
}

/// One (scenario, seed) trial of both arms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepairTrial {
    /// Maintenance epochs executed.
    pub epochs: u64,
    /// Slots of the shared initial build (identical in both arms).
    pub initial_build_slots: u64,
    /// Total repair slots across epochs (maintained arm).
    pub repair_slots: u64,
    /// Total rebuild slots across epochs (rebuild arm).
    pub rebuild_slots: u64,
    /// Epochs whose post-repair masked audit was clean / total epochs.
    pub clean_epochs: u64,
    /// Epochs where the maintainer fell back to a full rebuild.
    pub fallback_rebuilds: u64,
    /// Seekers re-homed onto surviving dominators, across epochs.
    pub rehomed: usize,
    /// Hysteresis handovers, across epochs.
    pub handovers: usize,
    /// Fresh dominators from MIS patches, across epochs.
    pub new_dominators: usize,
    /// Clusters retired by dominator crashes, across epochs.
    pub retired_clusters: usize,
    /// First audit violation, if any epoch was not clean.
    pub first_violation: Option<String>,
}

/// The per-epoch cadence the bench uses for `scenario` (committed policy,
/// or the default).
pub fn maintenance_for(scenario: &Scenario) -> MaintenanceSpec {
    scenario.maintenance.unwrap_or(DEFAULT_MAINTENANCE)
}

/// The structure both arms of a `(scenario, seed)` trial build.
pub(crate) fn structure_config(scenario: &Scenario, seed: u64) -> StructureConfig {
    let algo = AlgoConfig::practical(scenario.channels, &scenario.params, scenario.len().max(2));
    StructureConfig::new(algo, derive_seed(seed, 0xB01D))
}

/// Runs one (scenario, seed) trial: both arms over the same world.
pub fn repair_trial(scenario: &Scenario, seed: u64) -> RepairTrial {
    let mut scenario = scenario.clone();
    let maintenance = maintenance_for(&scenario);
    scenario.maintenance = Some(maintenance);
    let n = scenario.len();
    let cfg = structure_config(&scenario, seed);
    let mcfg = MaintainConfig {
        handover_hysteresis: maintenance.handover_hysteresis,
        rebuild_threshold: maintenance.rebuild_threshold,
        ..MaintainConfig::default()
    };
    let faults = scenario.faults_for(seed);
    let alive0: Vec<bool> = (0..n as u32).map(|i| !faults.is_absent(i, 0)).collect();
    let deploy = scenario.deployment_for(seed);
    let env0 = NetworkEnv {
        params: scenario.params,
        positions: deploy.points().to_vec(),
    };
    // --- Maintained arm. ---
    let mut maintainer = StructureMaintainer::build(&env0, cfg, mcfg, Some(&alive0));
    let move_threshold = maintainer.move_threshold();
    let initial_build_slots = maintainer.structure().report.total_slots();
    let tolerances = maintainer.tolerances();
    let mut trial = RepairTrial {
        initial_build_slots,
        ..RepairTrial::default()
    };
    let mut sim = ScenarioSim::new(&scenario, seed, |_, _| Idle);
    sim.engine_mut().watch_events(move_threshold);
    let max_slots = scenario.max_slots;
    trial.epochs = sim.run_epochs(max_slots, |sim, epoch| {
        for event in sim.engine_mut().drain_events() {
            maintainer.observe(&event);
        }
        let env_now = NetworkEnv {
            params: scenario.params,
            positions: sim.positions().to_vec(),
        };
        let report = maintainer.repair(&env_now, derive_seed(seed, 0xE70C ^ epoch));
        trial.repair_slots += report.total_slots();
        trial.rehomed += report.rehomed;
        trial.handovers += report.handovers;
        trial.new_dominators += report.new_dominators;
        trial.retired_clusters += report.retired_clusters;
        if report.kind == RepairKind::Rebuilt {
            trial.fallback_rebuilds += 1;
        }
        match maintainer.audit(&env_now).check(&tolerances) {
            Ok(()) => trial.clean_epochs += 1,
            Err(msg) => {
                if trial.first_violation.is_none() {
                    trial.first_violation = Some(format!("epoch {epoch}: {msg}"));
                }
            }
        }
    });

    // --- Rebuild arm: the same world, rebuilt from scratch each epoch. ---
    let mut sim = ScenarioSim::new(&scenario, seed, |_, _| Idle);
    sim.engine_mut().watch_events(move_threshold);
    let mut alive = alive0.clone();
    sim.run_epochs(max_slots, |sim, epoch| {
        for event in sim.engine_mut().drain_events() {
            match event {
                NodeEvent::Joined { node, .. } => alive[node.index()] = true,
                NodeEvent::Crashed { node, .. } => alive[node.index()] = false,
                NodeEvent::Moved { .. } => {}
            }
        }
        if alive.iter().any(|&a| a) {
            let env_now = NetworkEnv {
                params: scenario.params,
                positions: sim.positions().to_vec(),
            };
            let mut cfg_epoch = cfg;
            cfg_epoch.seed = derive_seed(seed, 0x4EB0 ^ epoch);
            let rebuilt = mca_core::build_structure_masked(&env_now, &cfg_epoch, Some(&alive));
            trial.rebuild_slots += rebuilt.report.total_slots();
        }
    });
    trial
}

/// M1 — incremental repair vs full rebuild on [`REPAIR_BENCH_WORLDS`]:
/// seeds `1..=max(trials, 3)` of every world as one [`TrialSet`], every
/// cell summed over the seeds. `Err` names every world whose gate failed:
/// an epoch that did not audit clean, or repair not strictly cheaper than
/// rebuild.
pub fn m1_repair(trials: usize) -> Result<Vec<Table>, String> {
    let catalog = builtin_scenarios();
    let worlds = REPAIR_BENCH_WORLDS.iter().map(|&name| {
        catalog
            .iter()
            .find(|e| e.scenario.name == name)
            .unwrap_or_else(|| panic!("catalog world `{name}` missing"))
            .scenario
            .clone()
    });
    let seeds = trials.max(3);
    let set = TrialSet::new(worlds.collect(), (1..=seeds as u64).collect())
        .expect("catalog names are unique");
    let mut sink = CollectSink::new();
    set.run_streaming(true, repair_trial, &mut sink);

    let mut t = Table::new(
        format!(
            "M1: incremental repair vs full rebuild -- seeds 1-{seeds} summed, \
             every epoch audits clean"
        ),
        [
            "world",
            "seeds",
            "epochs",
            "initial build slots",
            "repair slots",
            "rebuild slots",
            "repair/rebuild",
            "rehomed",
            "handovers",
            "new dominators",
            "retired clusters",
            "fallback rebuilds",
        ],
    );
    let mut failed = Vec::new();
    for (world, runs) in set.scenarios().iter().zip(sink.trials.chunks(seeds)) {
        let mut sum = RepairTrial::default();
        for KeyedTrial { key, result: r } in runs {
            sum.epochs += r.epochs;
            sum.clean_epochs += r.clean_epochs;
            sum.initial_build_slots += r.initial_build_slots;
            sum.repair_slots += r.repair_slots;
            sum.rebuild_slots += r.rebuild_slots;
            sum.rehomed += r.rehomed;
            sum.handovers += r.handovers;
            sum.new_dominators += r.new_dominators;
            sum.retired_clusters += r.retired_clusters;
            sum.fallback_rebuilds += r.fallback_rebuilds;
            if r.clean_epochs != r.epochs && sum.first_violation.is_none() {
                let seed = key.seed;
                sum.first_violation = r
                    .first_violation
                    .as_ref()
                    .map(|v| format!("seed {seed}, {v}"));
            }
        }
        let audits_clean = sum.clean_epochs == sum.epochs;
        if !(audits_clean && sum.repair_slots < sum.rebuild_slots) {
            failed.push(format!(
                "`{}`: repair {} vs rebuild {} slots, first audit violation {:?}",
                world.name, sum.repair_slots, sum.rebuild_slots, sum.first_violation
            ));
            continue;
        }
        t.row([
            world.name.clone(),
            seeds.to_string(),
            sum.epochs.to_string(),
            sum.initial_build_slots.to_string(),
            sum.repair_slots.to_string(),
            sum.rebuild_slots.to_string(),
            format!(
                "{:.3}",
                sum.repair_slots as f64 / sum.rebuild_slots.max(1) as f64
            ),
            sum.rehomed.to_string(),
            sum.handovers.to_string(),
            sum.new_dominators.to_string(),
            sum.retired_clusters.to_string(),
            sum.fallback_rebuilds.to_string(),
        ]);
    }
    if failed.is_empty() {
        Ok(vec![t])
    } else {
        Err(failed.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(name: &str) -> Scenario {
        builtin_scenarios()
            .into_iter()
            .find(|e| e.scenario.name == name)
            .unwrap()
            .scenario
    }

    #[test]
    fn churn_world_repairs_cheaper_than_rebuild_and_audit_clean() {
        let t = repair_trial(&world("churn"), 1);
        assert!(t.epochs >= 4, "expected 4 epochs of 100 slots: {t:?}");
        assert_eq!(
            t.clean_epochs, t.epochs,
            "audit violation: {:?}",
            t.first_violation
        );
        assert!(
            t.repair_slots < t.rebuild_slots,
            "repair ({}) must undercut rebuild ({})",
            t.repair_slots,
            t.rebuild_slots
        );
        assert!(t.retired_clusters > 0, "node 0 crashes at slot 200: {t:?}");
    }

    #[test]
    fn mobile_churn_world_holds_the_gate() {
        let t = repair_trial(&world("mobile-churn"), 1);
        assert_eq!(
            t.clean_epochs, t.epochs,
            "audit violation: {:?}",
            t.first_violation
        );
        assert!(t.repair_slots < t.rebuild_slots, "{t:?}");
        assert!(t.handovers > 0, "mobility must force handovers: {t:?}");
    }

    #[test]
    fn policy_defaults_agree_across_layers() {
        // mca-core and mca-scenario cannot reference each other, so their
        // copies of the default maintenance policy are pinned here, where
        // both are visible.
        let core = MaintainConfig::default();
        let spec = MaintenanceSpec::every(1);
        assert_eq!(core.handover_hysteresis, spec.handover_hysteresis);
        assert_eq!(core.rebuild_threshold, spec.rebuild_threshold);
    }

    #[test]
    fn trials_are_deterministic() {
        let s = world("churn");
        assert_eq!(repair_trial(&s, 3), repair_trial(&s, 3));
    }
}
