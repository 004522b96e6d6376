//! Adversarial environments: reactive vs proactive repair — the harness
//! behind claim table M2 of `EXPERIMENTS.md`.
//!
//! Three adversaries damage the network *below* the lifecycle event
//! stream: the tracking jammer destroys decodes around the densest
//! cluster, correlated fading blacks out channel neighborhoods, and
//! duty-cycled sleep darkens beacons on a schedule. None of them crashes
//! a node, so a maintainer subscribed only to crash/join/motion events
//! (`reactive` arm) never hears about the damage — its structure stays
//! geometrically valid while real delivery rates rot. The `proactive` arm
//! additionally attaches a [`DegradationDetector`] to the engine and
//! feeds its [`DetectionEvent`]s into
//! [`StructureMaintainer::observe_detection`], so flagged members re-home
//! and flagged dominators step down *before* any audit could notice.
//!
//! Both arms drive the **same** `(scenario, seed)` world: repair is
//! maintainer-side bookkeeping and detection is observation-only, so the
//! two engine runs must be bit-identical — each trial asserts it
//! ([`AdversaryTrial::world_identical`]) by comparing engine metrics.
//!
//! The workload is a beacon mesh: `2F` nodes spread across the id space
//! transmit every slot (two per channel, phase-staggered under duty
//! cycling so every channel stays contested), and every other node
//! listens on the channel of its nearest beacon. A listener's per-slot
//! decode outcome is exactly the per-link SINR evidence the detector
//! consumes, so adversary damage surfaces as EWMA decay within slots.
//!
//! Headline numbers per adversary: **time-to-detect** (degradation onset
//! to detector flag) and **time-to-repair** (onset to the first repair
//! epoch that acts on a flag), against the reactive arm whose
//! time-to-repair is censored at the horizon — the damage is never
//! repaired. The acceptance gate requires every proactive arm to detect,
//! act, audit clean at every epoch, and beat the censored reactive
//! time-to-repair strictly; [`m2_adversary`] names every world that does
//! not, and `experiments artifacts` fails on it.

use crate::repair_bench::{maintenance_for, structure_config};
use mca_analysis::Table;
use mca_core::{MaintainConfig, NetworkEnv, RepairKind, StructureMaintainer};
use mca_geom::Point;
use mca_radio::rng::derive_seed;
use mca_radio::{
    Action, Channel, ChannelCondition, DegradationDetector, DetectionEvent, DetectorConfig,
    Observation, Protocol,
};
use mca_scenario::{
    builtin_scenarios, AdversarySpec, CollectSink, DeploymentSpec, KeyedTrial, MaintenanceSpec,
    Scenario, ScenarioSim, TrialSet,
};
use rand::rngs::SmallRng;

/// The adversary worlds the bench runs, in order: two catalog worlds and
/// the in-code correlated-fading world ([`correlated_fading_world`]).
pub const ADVERSARY_BENCH_WORLDS: [&str; 3] =
    ["tracking-jammer", "duty-cycle", "correlated-fading"];

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

/// A beacon-mesh node: beacons transmit every slot on their assigned
/// channel; everyone else listens on the channel of its nearest beacon.
struct BeaconMesh {
    /// `Some(channel)` for a beacon; `None` for a listener.
    tx: Option<Channel>,
    /// The listening channel (nearest beacon's channel).
    listen: Channel,
}

impl Protocol for BeaconMesh {
    type Msg = u32;
    fn act(&mut self, _slot: u64, _rng: &mut SmallRng) -> Action<u32> {
        match self.tx {
            Some(channel) => Action::Transmit { channel, msg: 0 },
            None => Action::Listen {
                channel: self.listen,
            },
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

/// Builds the per-node [`BeaconMesh`] roles from the deployment.
fn mesh_roles(positions: &[Point], channels: u16) -> Vec<BeaconMesh> {
    let beacons = beacon_layout(positions.len(), channels);
    positions
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if let Some(&(_, ch)) = beacons.iter().find(|&&(id, _)| id == i) {
                return BeaconMesh {
                    tx: Some(Channel(ch)),
                    listen: Channel(ch),
                };
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
            BeaconMesh {
                tx: None,
                listen: Channel(nearest),
            }
        })
        .collect()
}

/// One arm's outcome over a single `(scenario, seed)` trial.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ArmOutcome {
    /// Maintenance epochs executed.
    pub epochs: u64,
    /// Epochs whose post-repair masked audit was clean.
    pub clean_epochs: u64,
    /// Degradation flags raised by the detector (proactive arm only).
    pub detections: u64,
    /// Detector recoveries consumed (proactive arm only).
    pub recoveries: u64,
    /// Flagged members pre-emptively re-homed.
    pub proactive_rehomes: u64,
    /// Flagged dominators pre-emptively demoted.
    pub proactive_demotions: u64,
    /// Flag actions deferred by per-node backoff.
    pub deferred: u64,
    /// Epochs that fell back to a full rebuild.
    pub fallback_rebuilds: u64,
    /// Onset-to-flag latency (slots) at the first acting epoch;
    /// `horizon` when censored (no epoch ever acted).
    pub time_to_detect: u64,
    /// Onset-to-repair latency (slots) at the first acting epoch;
    /// `horizon` when censored.
    pub time_to_repair: u64,
    /// Whether the latencies are censored at the horizon.
    pub censored: bool,
}

/// Both arms of one `(scenario, seed)` trial.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryTrial {
    /// Events-only maintenance: blind to SINR-level damage.
    pub reactive: ArmOutcome,
    /// Detector-fed maintenance: flags drive pre-emptive repair.
    pub proactive: ArmOutcome,
    /// Whether the two arms' engine metrics matched bit-for-bit — the
    /// detection-never-perturbs-outcomes contract, checked per trial.
    pub world_identical: bool,
    /// First audit violation from either arm, if any.
    pub first_violation: Option<String>,
}

/// Runs one arm. `proactive` toggles the detector attachment and the
/// detection-fed repair path; everything else is shared, so the world
/// evolution is bit-identical between arms.
fn run_arm(
    scenario: &Scenario,
    seed: u64,
    proactive: bool,
    violation: &mut Option<String>,
) -> (ArmOutcome, (u64, u64, u64)) {
    let n = scenario.len();
    let horizon = scenario.max_slots;
    let maintenance = maintenance_for(scenario);
    let cfg = structure_config(scenario, seed);
    let mcfg = MaintainConfig {
        handover_hysteresis: maintenance.handover_hysteresis,
        rebuild_threshold: maintenance.rebuild_threshold,
        ..MaintainConfig::default()
    };
    let faults = scenario.faults_for(seed);
    // Sleepers are alive — duty cycling is not crash-stop, so the
    // structure keeps covering them (lifecycle absence only).
    let alive0: Vec<bool> = (0..n as u32)
        .map(|i| !faults.is_lifecycle_absent(i, 0))
        .collect();
    let deploy = scenario.deployment_for(seed);
    let positions = deploy.points().to_vec();
    let env0 = NetworkEnv {
        params: scenario.params,
        positions: positions.clone(),
    };
    let mut maintainer = StructureMaintainer::build(&env0, cfg, mcfg, Some(&alive0));
    let move_threshold = maintainer.move_threshold();
    let tolerances = maintainer.tolerances();
    let mut roles = mesh_roles(&positions, scenario.channels);
    let mut sim = ScenarioSim::new(scenario, seed, |i, _| {
        std::mem::replace(
            &mut roles[i],
            BeaconMesh {
                tx: None,
                listen: Channel::FIRST,
            },
        )
    });
    sim.engine_mut().watch_events(move_threshold);
    if proactive {
        sim.engine_mut()
            .attach_detector(DegradationDetector::new(n, DetectorConfig::default()));
    }
    let mut arm = ArmOutcome {
        time_to_detect: horizon,
        time_to_repair: horizon,
        censored: true,
        ..ArmOutcome::default()
    };
    arm.epochs = sim.run_epochs(horizon, |sim, epoch| {
        for event in sim.engine_mut().drain_events() {
            maintainer.observe(&event);
        }
        if proactive {
            for event in sim.engine_mut().drain_detections() {
                if matches!(event, DetectionEvent::Degraded { .. }) {
                    arm.detections += 1;
                } else {
                    arm.recoveries += 1;
                }
                maintainer.observe_detection(&event);
            }
        }
        let env_now = NetworkEnv {
            params: scenario.params,
            positions: sim.positions().to_vec(),
        };
        let now = sim.slot();
        let repair_seed = derive_seed(seed, 0xE70C ^ epoch);
        let report = if proactive {
            maintainer.repair_at(&env_now, repair_seed, now)
        } else {
            maintainer.repair(&env_now, repair_seed)
        };
        let acted = (report.proactive_rehomes + report.proactive_demotions) as u64;
        arm.proactive_rehomes += report.proactive_rehomes as u64;
        arm.proactive_demotions += report.proactive_demotions as u64;
        arm.deferred += report.deferred_flags as u64;
        if report.kind == RepairKind::Rebuilt {
            arm.fallback_rebuilds += 1;
        }
        // First-response latency: the first epoch that acted on a flag
        // pins the headline onset→flag / onset→repair numbers.
        if acted > 0 && arm.censored {
            arm.time_to_detect = report.time_to_detect;
            arm.time_to_repair = report.time_to_repair;
            arm.censored = false;
        }
        match maintainer.audit(&env_now).check(&tolerances) {
            Ok(()) => arm.clean_epochs += 1,
            Err(msg) => {
                if violation.is_none() {
                    let arm_name = if proactive { "proactive" } else { "reactive" };
                    *violation = Some(format!("{arm_name} arm, epoch {epoch}: {msg}"));
                }
            }
        }
    });
    let m = sim.metrics();
    (arm, (m.receptions, m.busy_failures, m.env_drops))
}

/// Runs both arms of one `(scenario, seed)` trial over the same world.
pub fn adversary_trial(scenario: &Scenario, seed: u64) -> AdversaryTrial {
    let mut first_violation = None;
    let (reactive, world_r) = run_arm(scenario, seed, false, &mut first_violation);
    let (proactive, world_p) = run_arm(scenario, seed, true, &mut first_violation);
    AdversaryTrial {
        reactive,
        proactive,
        world_identical: world_r == world_p,
        first_violation,
    }
}

/// The bench worlds: the two catalog adversary worlds plus the in-code
/// correlated-fading world.
pub fn adversary_bench_worlds() -> Vec<Scenario> {
    let catalog = builtin_scenarios();
    ADVERSARY_BENCH_WORLDS
        .iter()
        .map(|&name| {
            catalog
                .iter()
                .find(|e| e.scenario.name == name)
                .map(|e| e.scenario.clone())
                .unwrap_or_else(correlated_fading_world)
        })
        .collect()
}

/// Sums `t` into `acc`; the latencies keep the worst seed, and a censored
/// seed censors the sum.
fn fold(acc: &mut ArmOutcome, t: &ArmOutcome) {
    acc.epochs += t.epochs;
    acc.clean_epochs += t.clean_epochs;
    acc.detections += t.detections;
    acc.recoveries += t.recoveries;
    acc.proactive_rehomes += t.proactive_rehomes;
    acc.proactive_demotions += t.proactive_demotions;
    acc.deferred += t.deferred;
    acc.fallback_rebuilds += t.fallback_rebuilds;
    acc.time_to_detect = acc.time_to_detect.max(t.time_to_detect);
    acc.time_to_repair = acc.time_to_repair.max(t.time_to_repair);
    acc.censored |= t.censored;
}

/// M2 — reactive vs proactive repair on the adversary worlds: seeds
/// `1..=max(trials, 3)` of every world as one [`TrialSet`], one row per
/// arm, counts summed over the seeds and latencies the worst seed's. `Err`
/// names every world whose gate failed: both arms audit clean everywhere,
/// the two arms' worlds matched bit for bit, and the proactive arm
/// detected *and acted*, its worst-case time-to-repair strictly under the
/// reactive arm's (censored at the horizon — reactive never repairs this
/// damage at all).
pub fn m2_adversary(trials: usize) -> Result<Vec<Table>, String> {
    let seeds = trials.max(3);
    let set = TrialSet::new(adversary_bench_worlds(), (1..=seeds as u64).collect())
        .expect("the adversary worlds are named apart");
    let mut sink = CollectSink::new();
    set.run_streaming(true, adversary_trial, &mut sink);

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
    for (world, runs) in set.scenarios().iter().zip(sink.trials.chunks(seeds)) {
        let (mut r, mut p) = (ArmOutcome::default(), ArmOutcome::default());
        let (mut worlds_identical, mut first_violation) = (true, None);
        for KeyedTrial { key, result } in runs {
            fold(&mut r, &result.reactive);
            fold(&mut p, &result.proactive);
            worlds_identical &= result.world_identical;
            if first_violation.is_none() {
                let seed = key.seed;
                first_violation = result
                    .first_violation
                    .as_ref()
                    .map(|v| format!("seed {seed}, {v}"));
            }
        }
        let audits_clean = r.clean_epochs == r.epochs && p.clean_epochs == p.epochs;
        if !(audits_clean
            && worlds_identical
            && p.detections > 0
            && !p.censored
            && p.time_to_repair < r.time_to_repair)
        {
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
                arm.proactive_rehomes.to_string(),
                arm.proactive_demotions.to_string(),
                arm.deferred.to_string(),
                arm.fallback_rebuilds.to_string(),
                arm.time_to_detect.to_string(),
                arm.time_to_repair.to_string(),
                if arm.censored { "yes" } else { "no" }.to_string(),
            ]);
        }
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
        adversary_bench_worlds()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap()
    }

    #[test]
    fn tracking_jammer_is_detected_and_repaired_before_the_horizon() {
        let t = adversary_trial(&world("tracking-jammer"), 1);
        assert!(t.world_identical, "detection perturbed the world: {t:?}");
        assert!(t.proactive.detections > 0, "{t:?}");
        assert!(!t.proactive.censored, "no epoch acted on a flag: {t:?}");
        assert!(
            t.proactive.time_to_repair < t.reactive.time_to_repair,
            "{t:?}"
        );
        assert!(t.reactive.censored, "reactive arm cannot see jamming");
        assert_eq!(
            t.proactive.clean_epochs, t.proactive.epochs,
            "audit violation: {:?}",
            t.first_violation
        );
        assert_eq!(t.reactive.clean_epochs, t.reactive.epochs);
    }

    #[test]
    fn duty_cycle_sleep_is_invisible_to_the_reactive_arm() {
        let t = adversary_trial(&world("duty-cycle"), 1);
        // No crash/join events exist, so the reactive arm never acts and
        // both latencies stay censored; the proactive arm flags the
        // listeners dark beacons strand and repairs inside the horizon.
        assert!(t.reactive.censored, "{t:?}");
        assert!(t.proactive.detections > 0, "{t:?}");
        assert!(!t.proactive.censored, "{t:?}");
        assert_eq!(
            t.proactive.clean_epochs, t.proactive.epochs,
            "audit violation: {:?}",
            t.first_violation
        );
    }

    #[test]
    fn correlated_fading_flags_recover_when_channels_heal() {
        let t = adversary_trial(&world("correlated-fading"), 1);
        assert!(t.proactive.detections > 0, "{t:?}");
        assert!(
            t.proactive.recoveries > 0,
            "fade episodes end, so flags must clear: {t:?}"
        );
        assert!(!t.proactive.censored, "{t:?}");
        assert_eq!(
            t.proactive.clean_epochs, t.proactive.epochs,
            "audit violation: {:?}",
            t.first_violation
        );
    }

    #[test]
    fn trials_are_deterministic() {
        let s = world("tracking-jammer");
        assert_eq!(adversary_trial(&s, 2), adversary_trial(&s, 2));
    }
}
