//! The built-in scenario catalog.
//!
//! Eleven reference worlds spanning the dynamic-environment feature matrix —
//! each one exercises a different axis (density, mobility model, channel
//! dynamics, adversaries, churn). Each is committed under `scenarios/`,
//! headed by its [`CatalogEntry::blurb`] as a comment block; `experiments
//! artifacts` holds the files to the code byte for byte and `--write`
//! regenerates them, so the catalog can never drift from the code.

use crate::spec::{
    AdversarySpec, ChurnSpec, DeploymentSpec, DutyCycleSpec, FadingSpec, MaintenanceSpec,
    MobilitySpec, Scenario,
};
use mca_radio::{FaultPlan, JamSpec};
use mca_sinr::ResolveMode;

/// One catalog entry: a scenario plus the explanation committed above it.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The world itself. Its `name` doubles as the exported file stem.
    pub scenario: Scenario,
    /// What the scenario demonstrates (written into the file header).
    pub blurb: &'static str,
}

impl CatalogEntry {
    /// The file name this entry exports to (`<name>.toml`, `-` for
    /// spaces).
    pub fn file_name(&self) -> String {
        format!("{}.toml", self.scenario.name.replace(' ', "-"))
    }

    /// The exported file contents: the blurb as a `#` comment block,
    /// then the canonical TOML.
    pub fn file_contents(&self) -> String {
        let mut out = String::new();
        for line in self.blurb.lines() {
            if line.is_empty() {
                out.push_str("#\n");
            } else {
                out.push_str("# ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out.push('\n');
        out.push_str(&self.scenario.to_toml());
        out
    }
}

/// The eleven built-in worlds, in catalog order.
pub fn builtin_scenarios() -> Vec<CatalogEntry> {
    vec![
        static_uniform(),
        dense_cluster(),
        sharded_dense(),
        waypoint_mobility(),
        convoy(),
        fading_jammer(),
        tracking_jammer(),
        duty_cycle(),
        churn(),
        churn_maintained(),
        mobile_churn(),
    ]
}

fn static_uniform() -> CatalogEntry {
    CatalogEntry {
        scenario: Scenario::builder("static-uniform")
            .deployment(DeploymentSpec::Uniform { n: 60, side: 30.0 })
            .channels(4)
            .max_slots(400)
            .build(),
        blurb: "static-uniform: the baseline world.\n\
                60 nodes placed i.i.d. uniform on a 30 x 30 plane (R_T = 8, so the\n\
                network is multi-hop but well connected), 4 channels, no mobility,\n\
                fading, faults, or churn. Every other catalog scenario is this world\n\
                with one axis changed, so comparisons isolate that axis.",
    }
}

fn dense_cluster() -> CatalogEntry {
    CatalogEntry {
        scenario: Scenario::builder("dense-cluster")
            .deployment(DeploymentSpec::Uniform { n: 300, side: 6.0 })
            .channels(8)
            .max_slots(400)
            .resolve_mode(ResolveMode::fast())
            .build(),
        blurb: "dense-cluster: the paper's dense regime (PAPER.md section 5-6).\n\
                300 nodes on a 6 x 6 plane -- nearly a clique at R_T = 8, the regime\n\
                where multi-channel aggregation earns its F-fold speedup (Theorem 22).\n\
                Dense per-channel groups make this the stress case for the SINR\n\
                resolver, so the scenario also turns on the grid-batched fast resolve\n\
                mode (decode outcomes match the exact path within the published\n\
                error bound). At 300 nodes every channel's work stays below the\n\
                engine's pooling bar, so slots resolve inline on the slot thread.",
    }
}

fn sharded_dense() -> CatalogEntry {
    CatalogEntry {
        scenario: Scenario::builder("sharded-dense")
            .deployment(DeploymentSpec::Uniform {
                n: 2000,
                side: 22.0,
            })
            .channels(8)
            .max_slots(300)
            .resolve_mode(ResolveMode::fast())
            .build(),
        blurb: "sharded-dense: the dense regime at engine scale, resolved in shards.\n\
                2000 nodes at 4 nodes per unit area -- per-channel groups of hundreds\n\
                of transmitters, the workload the sharded engine targets. The engine\n\
                picks each channel's shard grid itself, from the pool's width, the\n\
                channel's listener count and its index's work estimate: one unit on\n\
                one worker, a grid of (channel x shard) units on two or more, which\n\
                resolve independently -- as pool tasks whenever a slot has two or\n\
                more units past the engine's pooling bar, inline otherwise -- with the\n\
                grid-batched fast resolver underneath. The grid is an execution\n\
                choice, not physics: trial metrics are bit-identical under any\n\
                thread count -- the contract the CI determinism job (MCA_FORCE_PAR=1)\n\
                pins against the committed golden trial metrics.",
    }
}

fn waypoint_mobility() -> CatalogEntry {
    CatalogEntry {
        scenario: Scenario::builder("waypoint-mobility")
            .deployment(DeploymentSpec::Uniform { n: 60, side: 30.0 })
            .mobility(MobilitySpec::RandomWaypoint {
                speed_min: 0.2,
                speed_max: 0.4,
                pause: 5,
            })
            .channels(4)
            .max_slots(400)
            .build(),
        blurb: "waypoint-mobility: independent random-waypoint motion.\n\
                The baseline world, but every node roams: pick a waypoint uniformly\n\
                in the area, travel at 0.2-0.4 distance units per slot, pause 5\n\
                slots, repeat. At R_T = 8 a node crosses a transmission range in\n\
                ~20-40 slots, so links churn within a protocol run -- the regime the\n\
                ROADMAP's structure-maintenance work targets.",
    }
}

fn convoy() -> CatalogEntry {
    CatalogEntry {
        scenario: Scenario::builder("convoy")
            .deployment(DeploymentSpec::Uniform { n: 60, side: 30.0 })
            .mobility(MobilitySpec::Convoy {
                groups: 4,
                speed: 0.3,
                spread: 3.0,
                pause: 10,
            })
            .channels(4)
            .max_slots(400)
            .build(),
        blurb: "convoy: reference-point group mobility.\n\
                60 nodes split into 4 convoys; each convoy's center roams like a\n\
                waypoint walker at 0.3 units/slot while members hold a formation\n\
                offset of at most 3.0 around it. Intra-convoy links are stable while\n\
                convoy-to-convoy connectivity comes and goes -- the classic MANET\n\
                group-mobility pattern (cf. the UDP/AODV measurement studies in\n\
                PAPERS.md).",
    }
}

fn fading_jammer() -> CatalogEntry {
    let mut faults = FaultPlan::none();
    faults.jam(JamSpec::Random {
        t: 1,
        total: 4,
        power: 100.0,
        seed: 0xBAD,
    });
    CatalogEntry {
        scenario: Scenario::builder("fading-jammer")
            .deployment(DeploymentSpec::Uniform { n: 60, side: 30.0 })
            .fading(FadingSpec::interference(0.05, 0.15, 500.0))
            .faults(faults)
            .channels(4)
            .max_slots(400)
            .build(),
        blurb: "fading-jammer: hostile channel dynamics.\n\
                Two channel adversities compose: (1) Gilbert-Elliot fading -- each\n\
                channel flips good->bad with probability 0.05 and bad->good with 0.15\n\
                per slot (stationary ~25% bad), a bad channel adding 500.0 of\n\
                interference power at every listener; (2) a t-disrupted jammer\n\
                (Dolev et al., DISC'11 model) hitting 1 of the 4 channels per slot\n\
                with 100.0 interference power, channel choice keyed to seed 0xBAD.\n\
                Exercises frequency-hopping robustness of the section-6 protocols.",
    }
}

fn tracking_jammer() -> CatalogEntry {
    CatalogEntry {
        scenario: Scenario::builder("tracking-jammer")
            .deployment(DeploymentSpec::Uniform { n: 120, side: 12.0 })
            .adversary(AdversarySpec::TrackingJammer {
                epoch: 25,
                radius: 3.0,
                speed: 0.2,
                channel: None,
            })
            .channels(4)
            .max_slots(400)
            .maintenance(MaintenanceSpec::every(50))
            .build(),
        blurb: "tracking-jammer: a mobile adversary that hunts the densest cluster.\n\
                120 nodes packed on a 12 x 12 plane; every 25 slots the jammer\n\
                re-targets the live node with the most neighbors within 3.0 units\n\
                (computed deterministically from the engine's own position state --\n\
                no randomness), glides toward it at 0.2 units/slot, and destroys\n\
                every reception within its 3.0 blast radius on all channels.\n\
                Victims still sense jammer energy, so per-link SINR health decays\n\
                before any structural audit would fail -- the world the\n\
                degradation detector and proactive repair arm of\n\
                EXPERIMENTS.md table M2 are measured on.",
    }
}

fn duty_cycle() -> CatalogEntry {
    CatalogEntry {
        scenario: Scenario::builder("duty-cycle")
            .deployment(DeploymentSpec::Uniform { n: 120, side: 12.0 })
            .duty_cycle(DutyCycleSpec {
                period: 40,
                on: 30,
                stride: 7,
                nodes: None,
            })
            .channels(4)
            .max_slots(400)
            .maintenance(MaintenanceSpec::every(50))
            .build(),
        blurb: "duty-cycle: periodic power-down, distinct from crash-stop.\n\
                Every node sleeps 10 of every 40 slots on a per-node phase\n\
                (phase = 7i mod 40), so at any slot ~25% of the network is dark\n\
                but nobody is dead: sleepers keep their protocol state and return\n\
                on schedule, so the lifecycle event stream stays silent and\n\
                reactive repair never fires. Links to sleeping members fade in\n\
                and out instead -- exactly the degradation signature the EWMA\n\
                detector flags and proactive repair re-homes around\n\
                (EXPERIMENTS.md table M2, duty-cycle rows).",
    }
}

fn churn() -> CatalogEntry {
    let mut faults = FaultPlan::none();
    faults.crash_at(0, 200);
    CatalogEntry {
        scenario: Scenario::builder("churn")
            .deployment(DeploymentSpec::Uniform { n: 60, side: 30.0 })
            .churn(ChurnSpec::Random {
                join_fraction: 0.25,
                join_window: (1, 100),
                crash_fraction: 0.1,
                crash_window: (150, 350),
            })
            .faults(faults)
            .channels(4)
            .max_slots(400)
            .build(),
        blurb: "churn: nodes arrive late and crash mid-run.\n\
                A quarter of the nodes power on at a uniform slot in [1, 100), 10%\n\
                crash-stop at a uniform slot in [150, 350), and node 0 (often a\n\
                dominator/sink in structure experiments) is scripted to crash at slot\n\
                200 via the explicit fault plan the random churn composes with.\n\
                Which nodes churn is drawn from the trial seed, so every trial is\n\
                reproducible.",
    }
}

fn churn_maintained() -> CatalogEntry {
    let mut faults = FaultPlan::none();
    faults.crash_at(0, 200);
    CatalogEntry {
        scenario: Scenario::builder("churn-maintained")
            .deployment(DeploymentSpec::Uniform { n: 60, side: 30.0 })
            .churn(ChurnSpec::Random {
                join_fraction: 0.25,
                join_window: (1, 100),
                crash_fraction: 0.1,
                crash_window: (150, 350),
            })
            .faults(faults)
            .channels(4)
            .max_slots(400)
            .maintenance(MaintenanceSpec::every(100))
            .build(),
        blurb: "churn-maintained: the churn world with a maintenance policy.\n\
                Same churn process as `churn` (a quarter of the nodes join late,\n\
                10% crash mid-run, node 0 scripted to crash at slot 200), plus a\n\
                [maintenance] table: structure-driving harnesses repair the section-5\n\
                overlay every 100 slots -- re-homing orphans of crashed dominators,\n\
                admitting late joiners, re-electing reporters in dirty clusters --\n\
                instead of letting it rot or rebuilding from scratch.\n\
                EXPERIMENTS.md table M1 measures exactly that comparison.",
    }
}

fn mobile_churn() -> CatalogEntry {
    CatalogEntry {
        scenario: Scenario::builder("mobile-churn")
            .deployment(DeploymentSpec::Uniform { n: 120, side: 12.0 })
            .mobility(MobilitySpec::RandomWaypoint {
                speed_min: 0.003,
                speed_max: 0.01,
                pause: 10,
            })
            .churn(ChurnSpec::Random {
                join_fraction: 0.15,
                join_window: (1, 150),
                crash_fraction: 0.1,
                crash_window: (150, 400),
            })
            .channels(4)
            .max_slots(400)
            .maintenance(MaintenanceSpec {
                every: 50,
                handover_hysteresis: 1.25,
                rebuild_threshold: 0.5,
            })
            .build(),
        blurb: "mobile-churn: mobility and churn composed, under maintenance.\n\
                120 nodes packed on a 12 x 12 plane (clusters actually have members\n\
                at r_c = 1), roaming at 0.003-0.01 units/slot -- a node drifts\n\
                ~0.15-0.5 units per 50-slot epoch, so boundary members hand over\n\
                every epoch but repair keeps pace with the drift (at waypoint-world\n\
                speeds the whole membership would churn between epochs and the\n\
                maintainer would rightly fall back to rebuilds) -- while 15% join\n\
                late and 10% crash. The [maintenance] table repairs every 50 slots\n\
                with a 1.25x handover hysteresis: the headline world for\n\
                incremental structure repair vs full rebuild\n\
                (EXPERIMENTS.md table M1).",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_radio::{Action, Channel, Observation, Protocol};
    use rand::{rngs::SmallRng, Rng};

    #[test]
    fn catalog_has_eleven_distinct_named_entries() {
        let entries = builtin_scenarios();
        assert_eq!(entries.len(), 11);
        let mut names: Vec<&str> = entries.iter().map(|e| e.scenario.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11, "names must be unique");
    }

    /// Every node on channel `slot % channels`, one in five transmitting:
    /// the one-channel-a-slot traffic of the flood the golden trials run.
    struct HopAll(u16);

    impl Protocol for HopAll {
        type Msg = ();
        fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<()> {
            let channel = Channel((slot % u64::from(self.0)) as u16);
            if rng.gen_bool(0.2) {
                Action::Transmit { channel, msg: () }
            } else {
                Action::Listen { channel }
            }
        }
        fn observe(&mut self, _slot: u64, _obs: Observation<()>, _rng: &mut SmallRng) {}
    }

    /// Sharded-engine coverage: at two workers the engine lays a grid of
    /// 2 × 2 or finer over every channel `sharded-dense` resolves, so its
    /// slots run as several (channel × shard) units.
    #[test]
    fn sharded_dense_channels_shard_at_two_workers() {
        let entry = builtin_scenarios()
            .into_iter()
            .find(|e| e.scenario.name == "sharded-dense")
            .expect("in the catalog");
        let channels = entry.scenario.channels;
        rayon::set_num_threads(2);
        let mut sim = crate::ScenarioSim::new(&entry.scenario, 1, |_, _| HopAll(channels));
        sim.engine_mut().attach_obs(mca_obs::Recorder::new());
        sim.run(u64::from(channels));
        rayon::set_num_threads(0);
        let spans = sim.obs().expect("attached above").spans();
        for slot in 0..u64::from(channels) {
            let units = spans
                .iter()
                .filter(|s| s.kind == mca_obs::SpanKind::Unit && s.slot == slot)
                .count();
            assert!(units >= 2, "slot {slot} resolved as {units} unit(s)");
        }
    }

    #[test]
    fn every_entry_round_trips() {
        for entry in builtin_scenarios() {
            let text = entry.scenario.to_toml();
            let back = Scenario::from_toml_str(&text).unwrap();
            assert_eq!(back, entry.scenario, "{}", entry.scenario.name);
        }
    }

    #[test]
    fn file_contents_parse_with_comment_header() {
        for entry in builtin_scenarios() {
            let back = Scenario::from_toml_str(&entry.file_contents())
                .unwrap_or_else(|e| panic!("{}: {e}", entry.scenario.name));
            assert_eq!(back, entry.scenario);
            assert!(entry.file_contents().starts_with("# "));
            assert!(entry.file_name().ends_with(".toml"));
        }
    }

    #[test]
    fn catalog_covers_the_feature_matrix() {
        let entries = builtin_scenarios();
        assert!(entries
            .iter()
            .any(|e| matches!(e.scenario.mobility, MobilitySpec::RandomWaypoint { .. })));
        assert!(entries
            .iter()
            .any(|e| matches!(e.scenario.mobility, MobilitySpec::Convoy { .. })));
        assert!(entries.iter().any(|e| e.scenario.fading.is_some()));
        assert!(entries
            .iter()
            .any(|e| !matches!(e.scenario.churn, ChurnSpec::None)));
        assert!(entries.iter().any(|e| !e.scenario.faults.is_trivial()));
        // Maintenance coverage: one churn-only and one mobility+churn world.
        assert!(entries.iter().any(|e| e.scenario.maintenance.is_some()
            && matches!(e.scenario.mobility, MobilitySpec::Static)));
        assert!(entries.iter().any(|e| e.scenario.maintenance.is_some()
            && !matches!(e.scenario.mobility, MobilitySpec::Static)
            && !matches!(e.scenario.churn, ChurnSpec::None)));
        // Adversary coverage: one world per adversary family, plus a
        // duty-cycled sleep world.
        assert!(entries.iter().any(|e| matches!(
            e.scenario.adversary,
            Some(AdversarySpec::TrackingJammer { .. })
        )));
        assert!(entries.iter().any(|e| e.scenario.duty_cycle.is_some()));
    }
}
