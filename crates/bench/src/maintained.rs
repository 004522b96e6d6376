//! Maintained worlds: the §5 aggregation structure kept sound by a
//! [`StructureMaintainer`] while a world churns, moves or is attacked — the
//! harness behind claim tables M1 and M2 of `EXPERIMENTS.md`.
//!
//! Every arm is one run of one loop (`run_arm`): build the structure over
//! the slot-0 live set, build the maintainer from the world's
//! [`MaintenanceSpec`], step one [`ScenarioSim`] in maintenance epochs with
//! the engine's crash/join/motion events watched, and at every epoch drain
//! the events into the maintainer, repair, and audit the structure
//! (attachment certified against the handover hysteresis).
//!
//! **M1** ([`m1_repair`]) — incremental repair vs full rebuild on the
//! churn/mobility worlds. The same run also rebuilds the structure from
//! scratch over the current live set each epoch, the cost any
//! maintenance-free driver would pay to stay fresh, so both arms read one
//! event stream. Both costs are simulated protocol slots — the currency of
//! [`BuildReport`](mca_core::BuildReport) — so `repair/rebuild` is
//! implementation-independent. Gate: every epoch audits clean and repair is
//! strictly cheaper than rebuild.
//!
//! **M2** ([`m2_adversary`]) — reactive vs proactive repair under
//! adversaries that damage the network *below* the lifecycle event stream:
//! the tracking jammer destroys decodes around the densest cluster,
//! correlated fading blacks out channel neighborhoods, and duty-cycled
//! sleep darkens beacons on a schedule. None of them crashes a node, so the
//! events-only `reactive` arm never hears about the damage: its structure
//! stays geometrically valid while real delivery rates rot. The `proactive`
//! arm also attaches a [`DegradationDetector`] and feeds its
//! [`DetectionEvent`]s into [`StructureMaintainer::observe_detection`], so
//! flagged members re-home and flagged dominators step down before any
//! audit could notice. The two arms are two engine runs of the same
//! `(scenario, seed)`; detection is observation-only, so their engine
//! metrics must match bit for bit, and every trial checks it. Headline
//! numbers: time-to-detect (degradation onset to detector flag) and
//! time-to-repair (onset to the first epoch that acts on a flag), against
//! the reactive arm's, censored at the horizon. Gate: both arms audit clean
//! at every epoch, the two worlds match, and the proactive arm detects,
//! acts, and beats the censored reactive time-to-repair strictly.
//!
//! Both tables run seeds `1..=max(trials, 3)` of every world as one
//! [`TrialSet`] and sum each arm over the seeds (`ArmRun::merge`). A
//! failed gate names every world that failed it, and `experiments
//! artifacts` fails on it.

use mca_analysis::Table;
use mca_core::{
    build_structure_masked, AlgoConfig, MaintainConfig, NetworkEnv, RepairKind, RepairReport,
    StructureConfig, StructureMaintainer,
};
use mca_geom::Point;
use mca_radio::rng::derive_seed;
use mca_radio::{
    Action, Channel, ChannelCondition, DegradationDetector, DetectionEvent, DetectorConfig,
    NodeEvent, Observation, Protocol,
};
use mca_scenario::{
    builtin_scenarios, AdversarySpec, CollectSink, DeploymentSpec, MaintenanceSpec, Scenario,
    ScenarioSim, TrialSet,
};
use rand::rngs::SmallRng;

/// M1's catalog worlds, in order. `waypoint-mobility` has no committed
/// `[maintenance]` table, so it runs under [`DEFAULT_MAINTENANCE`]; the
/// others run under their committed policy. (The catalog's `churn` world
/// is `churn-maintained` without the table, whose policy equals the
/// default, so its row would repeat `churn-maintained` cell for cell.)
pub const M1_WORLDS: [&str; 3] = ["churn-maintained", "waypoint-mobility", "mobile-churn"];

/// M2's worlds, in order: two catalog worlds and the in-code
/// correlated-fading world ([`correlated_fading_world`]).
pub const M2_WORLDS: [&str; 3] = ["tracking-jammer", "duty-cycle", "correlated-fading"];

/// Policy applied to worlds without a committed `[maintenance]` table.
pub const DEFAULT_MAINTENANCE: MaintenanceSpec = MaintenanceSpec::every(100);

/// The correlated-fading bench world: the catalog adversary base (120
/// nodes, 12 × 12, 4 channels, maintenance every 50 slots) under a
/// Gilbert–Elliot chain whose bad state bleeds into adjacent channels
/// and deep-fades everything on a bad channel.
pub fn correlated_fading_world() -> Scenario {
    Scenario::builder("correlated-fading")
        .deployment(DeploymentSpec::Uniform { n: 120, side: 12.0 })
        .adversary(AdversarySpec::CorrelatedFading {
            p_degrade: 0.02,
            p_recover: 0.08,
            correlation: 0.75,
            bad: ChannelCondition::dropped(120.0),
        })
        .channels(4)
        .max_slots(400)
        .maintenance(MaintenanceSpec::every(50))
        .build()
}

/// The worlds named `names`, in order: catalog worlds, and the in-code
/// [`correlated_fading_world`].
fn worlds(names: &[&str]) -> Vec<Scenario> {
    let mut all: Vec<Scenario> = builtin_scenarios()
        .into_iter()
        .map(|e| e.scenario)
        .collect();
    all.push(correlated_fading_world());
    names
        .iter()
        .map(|&name| {
            let world = all.iter().find(|s| s.name == name);
            world
                .unwrap_or_else(|| panic!("bench world `{name}` missing"))
                .clone()
        })
        .collect()
}

/// The structure a `(scenario, seed)` trial builds.
fn structure_config(scenario: &Scenario, seed: u64) -> StructureConfig {
    let algo = AlgoConfig::practical(scenario.channels, &scenario.params, scenario.len().max(2));
    StructureConfig::new(algo, derive_seed(seed, 0xB01D))
}

/// A node of the world-clock payload. M1's worlds are idle: the
/// interesting traffic happens inside the repair phases. M2's worlds are a
/// beacon mesh ([`mesh`]): beacons transmit every slot on their channel and
/// every other node listens on its nearest beacon's channel, so a
/// listener's per-slot decode outcome is exactly the per-link SINR evidence
/// the detector consumes, and adversary damage surfaces as EWMA decay
/// within slots.
#[derive(Debug, Clone, Copy)]
enum Payload {
    Idle,
    Beacon(Channel),
    Listener(Channel),
}

impl Protocol for Payload {
    type Msg = u32;
    fn act(&mut self, _slot: u64, _rng: &mut SmallRng) -> Action<u32> {
        match *self {
            Payload::Idle => Action::Idle,
            Payload::Beacon(channel) => Action::Transmit { channel, msg: 0 },
            Payload::Listener(channel) => Action::Listen { channel },
        }
    }
    fn observe(&mut self, _slot: u64, _obs: Observation<u32>, _rng: &mut SmallRng) {}
}

/// The beacon layout for a world of `n` nodes and `channels` channels:
/// `2 · channels` beacon ids spread evenly over the id space, beacon `j`
/// on channel `j % channels`. Co-channel beacon pairs land half the id
/// space apart, which under the catalog duty-cycle stride keeps their
/// sleep windows disjoint — every channel always has an awake beacon, so
/// every listen stays contested and keeps feeding the detector.
fn beacon_layout(n: usize, channels: u16) -> Vec<(usize, u16)> {
    let b = (2 * channels as usize).min(n.max(1));
    let stride = (n / b).max(1);
    (0..b).map(|j| (j * stride, j as u16 % channels)).collect()
}

/// The beacon-mesh roles of a deployment.
fn mesh(positions: &[Point], channels: u16) -> Vec<Payload> {
    let beacons = beacon_layout(positions.len(), channels);
    positions
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if let Some(&(_, ch)) = beacons.iter().find(|&&(id, _)| id == i) {
                return Payload::Beacon(Channel(ch));
            }
            let nearest = beacons
                .iter()
                .min_by(|&&(a, _), &&(b, _)| {
                    let da = p.dist_sq(positions[a]);
                    let db = p.dist_sq(positions[b]);
                    da.partial_cmp(&db).unwrap().then(a.cmp(&b))
                })
                .map(|&(_, ch)| ch)
                .unwrap_or(0);
            Payload::Listener(Channel(nearest))
        })
        .collect()
}

/// What a run does beside the events-fed repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// M1: an idle world, also rebuilt from scratch over its live set
    /// every epoch.
    RepairVsRebuild,
    /// M2: a beacon-mesh world repaired from lifecycle events alone.
    Reactive,
    /// M2: the same world with a [`DegradationDetector`] attached, whose
    /// detections feed the repair.
    Proactive,
}

/// One run of [`run_arm`], or an arm's sum over seeds ([`ArmRun::merge`]).
#[derive(Debug, Clone, Default, PartialEq)]
struct ArmRun {
    /// Maintenance epochs executed.
    epochs: u64,
    /// Epochs whose post-repair masked audit was clean.
    clean_epochs: u64,
    /// Slots of the initial build.
    initial_build_slots: u64,
    /// Every epoch's repair report, merged ([`RepairReport::merge`]).
    repairs: RepairReport,
    /// Epochs where the maintainer fell back to a full rebuild.
    fallback_rebuilds: u64,
    /// Slots of M1's from-scratch rebuilds, across epochs (`0` in M2).
    rebuild_slots: u64,
    /// Degradation flags raised by the detector (M2's proactive arm).
    detections: u64,
    /// Detector recoveries consumed (M2's proactive arm).
    recoveries: u64,
    /// Onset-to-flag latency (slots) at the first epoch that acted on a
    /// flag; the horizon when censored. Over seeds, the worst seed's.
    time_to_detect: u64,
    /// Onset-to-repair latency (slots) at the first epoch that acted on a
    /// flag; the horizon when censored. Over seeds, the worst seed's.
    time_to_repair: u64,
    /// Whether no epoch acted on a flag, so the latencies are censored at
    /// the horizon. Over seeds, whether any seed was censored.
    censored: bool,
    /// Trials whose engine metrics differed from the reactive run's of the
    /// same world (M2's proactive arm): detection must never perturb the
    /// world.
    perturbed_worlds: u64,
    /// First audit violation, if any epoch was not clean.
    first_violation: Option<String>,
}

impl ArmRun {
    /// Sums `other` into `self`: counters add (the repair reports through
    /// [`RepairReport::merge`]), the latencies keep the worst, a censored
    /// run censors the sum, and the first violation stays.
    fn merge(&mut self, other: &ArmRun) {
        self.epochs += other.epochs;
        self.clean_epochs += other.clean_epochs;
        self.initial_build_slots += other.initial_build_slots;
        self.repairs.merge(&other.repairs);
        self.fallback_rebuilds += other.fallback_rebuilds;
        self.rebuild_slots += other.rebuild_slots;
        self.detections += other.detections;
        self.recoveries += other.recoveries;
        self.time_to_detect = self.time_to_detect.max(other.time_to_detect);
        self.time_to_repair = self.time_to_repair.max(other.time_to_repair);
        self.censored |= other.censored;
        self.perturbed_worlds += other.perturbed_worlds;
        if self.first_violation.is_none() {
            self.first_violation.clone_from(&other.first_violation);
        }
    }

    /// Whether every epoch audited clean.
    fn audits_clean(&self) -> bool {
        self.clean_epochs == self.epochs
    }
}

/// Runs one arm of a `(scenario, seed)` trial; returns its record and the
/// engine's receptions, busy failures and environment drops (the world
/// fingerprint M2 compares across arms).
fn run_arm(scenario: &Scenario, seed: u64, arm: Arm) -> (ArmRun, [u64; 3]) {
    let maintenance = scenario.maintenance.unwrap_or(DEFAULT_MAINTENANCE);
    let scenario = &Scenario {
        maintenance: Some(maintenance),
        ..scenario.clone()
    };
    let n = scenario.len();
    let horizon = scenario.max_slots;
    let cfg = structure_config(scenario, seed);
    let faults = scenario.faults_for(seed);
    // Sleepers are alive — duty cycling is not crash-stop, so the
    // structure keeps covering them (lifecycle absence only).
    let mut alive: Vec<bool> = (0..n as u32)
        .map(|i| !faults.is_lifecycle_absent(i, 0))
        .collect();
    let env0 = NetworkEnv {
        params: scenario.params,
        positions: scenario.deployment_for(seed).points().to_vec(),
    };
    let mcfg = MaintainConfig {
        handover_hysteresis: maintenance.handover_hysteresis,
        rebuild_threshold: maintenance.rebuild_threshold,
    };
    let mut maintainer = StructureMaintainer::build(&env0, cfg, mcfg, Some(&alive));
    let tolerances = maintainer.tolerances();
    let payload = match arm {
        Arm::RepairVsRebuild => vec![Payload::Idle; n],
        Arm::Reactive | Arm::Proactive => mesh(&env0.positions, scenario.channels),
    };
    let mut sim = ScenarioSim::new(scenario, seed, |i, _| payload[i]);
    sim.engine_mut().watch_events(maintainer.move_threshold());
    if arm == Arm::Proactive {
        sim.engine_mut()
            .attach_detector(DegradationDetector::new(n, DetectorConfig::default()));
    }
    let mut run = ArmRun {
        initial_build_slots: maintainer.structure().report.total_slots(),
        time_to_detect: horizon,
        time_to_repair: horizon,
        censored: true,
        ..ArmRun::default()
    };
    run.epochs = sim.run_epochs(horizon, |sim, epoch| {
        for event in sim.engine_mut().drain_events() {
            match event {
                NodeEvent::Joined { node, .. } => alive[node.index()] = true,
                NodeEvent::Crashed { node, .. } => alive[node.index()] = false,
                NodeEvent::Moved { .. } => {}
            }
            maintainer.observe(&event);
        }
        for event in sim.engine_mut().drain_detections() {
            if matches!(event, DetectionEvent::Degraded { .. }) {
                run.detections += 1;
            } else {
                run.recoveries += 1;
            }
            maintainer.observe_detection(&event);
        }
        let env = NetworkEnv {
            params: scenario.params,
            positions: sim.positions().to_vec(),
        };
        let report = maintainer.repair_at(&env, derive_seed(seed, 0xE70C ^ epoch), sim.slot());
        if report.kind == RepairKind::Rebuilt {
            run.fallback_rebuilds += 1;
        }
        // The first epoch that acted on a flag pins the headline latencies.
        if report.proactive_rehomes + report.proactive_demotions > 0 && run.censored {
            run.time_to_detect = report.time_to_detect;
            run.time_to_repair = report.time_to_repair;
            run.censored = false;
        }
        run.repairs.merge(&report);
        match maintainer.audit(&env).check(&tolerances) {
            Ok(()) => run.clean_epochs += 1,
            Err(msg) => {
                if run.first_violation.is_none() {
                    run.first_violation = Some(format!("seed {seed}, epoch {epoch}: {msg}"));
                }
            }
        }
        // M1's rebuild arm: the same world, rebuilt from scratch over the
        // live set the events track.
        if arm == Arm::RepairVsRebuild && alive.iter().any(|&a| a) {
            let mut cfg_epoch = cfg;
            cfg_epoch.seed = derive_seed(seed, 0x4EB0 ^ epoch);
            let rebuilt = build_structure_masked(&env, &cfg_epoch, Some(&alive));
            run.rebuild_slots += rebuilt.report.total_slots();
        }
    });
    let m = sim.metrics();
    (run, [m.receptions, m.busy_failures, m.env_drops])
}

/// M2's trial: the reactive and the proactive arm over the same world,
/// each its own engine run.
fn adversary_trial(scenario: &Scenario, seed: u64) -> [ArmRun; 2] {
    let (reactive, world) = run_arm(scenario, seed, Arm::Reactive);
    let (mut proactive, world_proactive) = run_arm(scenario, seed, Arm::Proactive);
    proactive.perturbed_worlds = u64::from(world != world_proactive);
    [reactive, proactive]
}

/// Runs seeds `1..=max(trials, 3)` of every world as one [`TrialSet`];
/// returns the seed count and each world with its arms summed over its
/// seeds.
fn sum_over_seeds<const A: usize>(
    worlds: Vec<Scenario>,
    trials: usize,
    trial: impl Fn(&Scenario, u64) -> [ArmRun; A] + Sync,
) -> (usize, Vec<(Scenario, [ArmRun; A])>) {
    let seeds = trials.max(3);
    let set = TrialSet::new(worlds, (1..=seeds as u64).collect())
        .expect("the bench worlds are named apart");
    let mut sink = CollectSink::new();
    set.run_streaming(true, trial, &mut sink);
    let sums = set
        .scenarios()
        .iter()
        .zip(sink.trials.chunks(seeds))
        .map(|(world, runs)| {
            let mut sum = std::array::from_fn(|_| ArmRun::default());
            for run in runs {
                for (arm, r) in sum.iter_mut().zip(&run.result) {
                    arm.merge(r);
                }
            }
            (world.clone(), sum)
        })
        .collect();
    (seeds, sums)
}

/// The table, or every failed world's reason.
fn gated(table: Table, failed: Vec<String>) -> Result<Vec<Table>, String> {
    if failed.is_empty() {
        Ok(vec![table])
    } else {
        Err(failed.join("\n"))
    }
}

/// M1 — incremental repair vs full rebuild on [`M1_WORLDS`], every cell
/// summed over the seeds. `Err` names every world whose gate failed: an
/// epoch that did not audit clean, or repair not strictly cheaper than
/// rebuild.
pub fn m1_repair(trials: usize) -> Result<Vec<Table>, String> {
    let (seeds, sums) = sum_over_seeds(worlds(&M1_WORLDS), trials, |s, seed| {
        [run_arm(s, seed, Arm::RepairVsRebuild).0]
    });
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
    for (world, [sum]) in &sums {
        let repair_slots = sum.repairs.total_slots();
        if !(sum.audits_clean() && repair_slots < sum.rebuild_slots) {
            failed.push(format!(
                "`{}`: repair {repair_slots} vs rebuild {} slots, first audit violation {:?}",
                world.name, sum.rebuild_slots, sum.first_violation
            ));
            continue;
        }
        t.row([
            world.name.clone(),
            seeds.to_string(),
            sum.epochs.to_string(),
            sum.initial_build_slots.to_string(),
            repair_slots.to_string(),
            sum.rebuild_slots.to_string(),
            format!(
                "{:.3}",
                repair_slots as f64 / sum.rebuild_slots.max(1) as f64
            ),
            sum.repairs.rehomed.to_string(),
            sum.repairs.handovers.to_string(),
            sum.repairs.new_dominators.to_string(),
            sum.repairs.retired_clusters.to_string(),
            sum.fallback_rebuilds.to_string(),
        ]);
    }
    gated(t, failed)
}

/// M2 — reactive vs proactive repair on [`M2_WORLDS`], one row per arm,
/// counts summed over the seeds and latencies the worst seed's. `Err`
/// names every world whose gate failed: both arms audit clean everywhere,
/// the two arms' worlds matched bit for bit, and the proactive arm
/// detected *and acted*, its worst-case time-to-repair strictly under the
/// reactive arm's (censored at the horizon — reactive never repairs this
/// damage at all).
pub fn m2_adversary(trials: usize) -> Result<Vec<Table>, String> {
    let (seeds, sums) = sum_over_seeds(worlds(&M2_WORLDS), trials, adversary_trial);
    let mut t = Table::new(
        format!(
            "M2: reactive vs proactive repair under adversaries -- seeds 1-{seeds}, \
             counts summed, latencies worst seed; audits clean, both arms' worlds identical"
        ),
        [
            "world",
            "arm",
            "seeds",
            "horizon",
            "epochs",
            "clean epochs",
            "detections",
            "recoveries",
            "rehomes",
            "demotions",
            "deferred",
            "fallback rebuilds",
            "time to detect",
            "time to repair",
            "censored",
        ],
    );
    let mut failed = Vec::new();
    for (world, [r, p]) in &sums {
        let worlds_identical = p.perturbed_worlds == 0;
        if !(r.audits_clean()
            && p.audits_clean()
            && worlds_identical
            && p.detections > 0
            && !p.censored
            && p.time_to_repair < r.time_to_repair)
        {
            let first_violation = r.first_violation.as_ref().or(p.first_violation.as_ref());
            failed.push(format!(
                "`{}`: worlds identical {worlds_identical}, proactive {p:?} vs reactive {r:?}, first audit violation {first_violation:?}",
                world.name
            ));
            continue;
        }
        for (name, arm) in [("reactive", r), ("proactive", p)] {
            t.row([
                world.name.clone(),
                name.to_string(),
                seeds.to_string(),
                world.max_slots.to_string(),
                arm.epochs.to_string(),
                arm.clean_epochs.to_string(),
                arm.detections.to_string(),
                arm.recoveries.to_string(),
                arm.repairs.proactive_rehomes.to_string(),
                arm.repairs.proactive_demotions.to_string(),
                arm.repairs.deferred_flags.to_string(),
                arm.fallback_rebuilds.to_string(),
                arm.time_to_detect.to_string(),
                arm.time_to_repair.to_string(),
                if arm.censored { "yes" } else { "no" }.to_string(),
            ]);
        }
    }
    gated(t, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(name: &str) -> Scenario {
        worlds(&[name]).remove(0)
    }

    fn m1_run(name: &str, seed: u64) -> ArmRun {
        run_arm(&world(name), seed, Arm::RepairVsRebuild).0
    }

    #[test]
    fn churn_world_repairs_cheaper_than_rebuild_and_audit_clean() {
        let t = m1_run("churn-maintained", 1);
        assert!(t.epochs >= 4, "expected 4 epochs of 100 slots: {t:?}");
        assert!(t.audits_clean(), "audit violation: {:?}", t.first_violation);
        assert!(
            t.repairs.total_slots() < t.rebuild_slots,
            "repair ({}) must undercut rebuild ({})",
            t.repairs.total_slots(),
            t.rebuild_slots
        );
        assert!(
            t.repairs.retired_clusters > 0,
            "node 0 crashes at slot 200: {t:?}"
        );
    }

    #[test]
    fn mobile_churn_world_holds_the_gate() {
        let t = m1_run("mobile-churn", 1);
        assert!(t.audits_clean(), "audit violation: {:?}", t.first_violation);
        assert!(t.repairs.total_slots() < t.rebuild_slots, "{t:?}");
        assert!(
            t.repairs.handovers > 0,
            "mobility must force handovers: {t:?}"
        );
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
        assert_eq!(m1_run("churn-maintained", 3), m1_run("churn-maintained", 3));
        let s = world("tracking-jammer");
        assert_eq!(adversary_trial(&s, 2), adversary_trial(&s, 2));
    }

    #[test]
    fn tracking_jammer_is_detected_and_repaired_before_the_horizon() {
        let [r, p] = adversary_trial(&world("tracking-jammer"), 1);
        assert_eq!(p.perturbed_worlds, 0, "detection perturbed the world");
        assert!(p.detections > 0, "{p:?}");
        assert!(!p.censored, "no epoch acted on a flag: {p:?}");
        assert!(p.time_to_repair < r.time_to_repair, "{p:?} vs {r:?}");
        assert!(r.censored, "reactive arm cannot see jamming");
        assert!(p.audits_clean(), "audit violation: {:?}", p.first_violation);
        assert!(r.audits_clean(), "audit violation: {:?}", r.first_violation);
    }

    #[test]
    fn duty_cycle_sleep_is_invisible_to_the_reactive_arm() {
        let [r, p] = adversary_trial(&world("duty-cycle"), 1);
        // No crash/join events exist, so the reactive arm never acts and
        // both latencies stay censored; the proactive arm flags the
        // listeners dark beacons strand and repairs inside the horizon.
        assert!(r.censored, "{r:?}");
        assert!(p.detections > 0, "{p:?}");
        assert!(!p.censored, "{p:?}");
        assert!(p.audits_clean(), "audit violation: {:?}", p.first_violation);
    }

    #[test]
    fn correlated_fading_flags_recover_when_channels_heal() {
        let [_, p] = adversary_trial(&world("correlated-fading"), 1);
        assert!(p.detections > 0, "{p:?}");
        assert!(
            p.recoveries > 0,
            "fade episodes end, so flags must clear: {p:?}"
        );
        assert!(!p.censored, "{p:?}");
        assert!(p.audits_clean(), "audit violation: {:?}", p.first_violation);
    }
}
