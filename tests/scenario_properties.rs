//! Determinism and equivalence properties of the `mca-scenario` subsystem.
//!
//! The contracts under test (see `mca-scenario` docs):
//! 1. a trial is a pure function of `(scenario, seed)` — metrics, final
//!    positions, trajectories, and protocol results all replay exactly;
//! 2. a static scenario is bit-identical to driving the plain `Engine`;
//! 3. a parallel `TrialSet` run returns exactly the sequential results;
//! 4. the dynamic-environment knobs (fading, churn, mobility) actually
//!    change what protocols experience, deterministically.

use multichannel_adhoc::core::aggregate::intercluster::{FloodCfg, FloodCombine};
use multichannel_adhoc::core::{MaxAgg, Tdma};
use multichannel_adhoc::prelude::*;

fn flood_cfg(channels: u16) -> FloodCfg {
    FloodCfg {
        q: 0.2,
        flood_rounds: 150,
        tail_rounds: 30,
        tdma: Tdma::new(1, 1),
        hop_channels: channels,
    }
}

fn flood_protocol(i: usize, channels: u16) -> FloodCombine<MaxAgg> {
    FloodCombine::dominator(MaxAgg, flood_cfg(channels), 0, i as i64)
}

/// A mobile, fading, churning scenario exercising every dynamic knob.
fn stress_scenario() -> Scenario {
    Scenario::builder("stress")
        .deployment(DeploymentSpec::Uniform { n: 40, side: 14.0 })
        .mobility(MobilitySpec::RandomWaypoint {
            speed_min: 0.05,
            speed_max: 0.25,
            pause: 3,
        })
        .fading(FadingSpec::interference(0.02, 0.15, 200.0))
        .churn(ChurnSpec::Random {
            join_fraction: 0.2,
            join_window: (1, 40),
            crash_fraction: 0.1,
            crash_window: (60, 120),
        })
        .channels(4)
        .max_slots(200)
        .build()
}

/// Runs one trial, sampling the trajectory every 10 slots.
fn run_trial(
    scenario: &Scenario,
    seed: u64,
) -> (
    Vec<i64>,
    multichannel_adhoc::radio::Metrics,
    Vec<Vec<Point>>,
) {
    let mut sim = ScenarioSim::new(scenario, seed, |i, _| flood_protocol(i, scenario.channels));
    let mut trajectory = Vec::new();
    for s in 0..scenario.max_slots {
        if s % 10 == 0 {
            trajectory.push(sim.positions().to_vec());
        }
        sim.step();
    }
    let values: Vec<i64> = sim.protocols().iter().map(|p| *p.value()).collect();
    (values, sim.metrics().clone(), trajectory)
}

#[test]
fn same_scenario_and_seed_replays_bit_for_bit() {
    let scenario = stress_scenario();
    let (va, ma, ta) = run_trial(&scenario, 42);
    let (vb, mb, tb) = run_trial(&scenario, 42);
    assert_eq!(va, vb, "protocol outcomes must replay");
    assert_eq!(ma, mb, "metrics must replay");
    assert_eq!(ta, tb, "trajectories must replay");

    let (vc, mc, tc) = run_trial(&scenario, 43);
    assert!(
        va != vc || ma != mc || ta != tc,
        "a different seed should produce a different run"
    );
}

#[test]
fn static_scenario_matches_plain_engine_exactly() {
    // Same world, built both ways: a declarative static scenario and a
    // hand-driven plain Engine.
    let seed = 7u64;
    let scenario = Scenario::builder("static-equivalence")
        .deployment(DeploymentSpec::Uniform { n: 35, side: 12.0 })
        .channels(4)
        .max_slots(150)
        .build();
    let points = scenario.deployment_for(seed).into_points();

    let mut sim = ScenarioSim::new(&scenario, seed, |i, _| flood_protocol(i, 4));
    sim.run(150);

    let protocols: Vec<FloodCombine<MaxAgg>> =
        (0..points.len()).map(|i| flood_protocol(i, 4)).collect();
    let mut engine = Engine::new(SinrParams::default(), points, protocols, seed);
    engine.run(150);

    assert_eq!(sim.metrics(), engine.metrics(), "metrics bit-identical");
    assert_eq!(
        sim.positions(),
        engine.positions(),
        "no node may have moved"
    );
    let sim_values: Vec<i64> = sim.protocols().iter().map(|p| *p.value()).collect();
    let eng_values: Vec<i64> = engine.protocols().iter().map(|p| *p.value()).collect();
    assert_eq!(sim_values, eng_values, "protocol states bit-identical");
}

#[test]
fn parallel_runner_matches_sequential_exactly() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let scenarios = vec![
        stress_scenario(),
        Scenario::builder("static")
            .deployment(DeploymentSpec::Uniform { n: 30, side: 10.0 })
            .channels(4)
            .max_slots(120)
            .build(),
    ];
    let set = TrialSet::with_derived_seeds(scenarios, 99, 8).unwrap();
    let trial = |s: &Scenario, seed: u64| {
        let mut sim = ScenarioSim::new(s, seed, |i, _| flood_protocol(i, s.channels));
        sim.run(s.max_slots.min(120));
        let vals: Vec<i64> = sim.protocols().iter().map(|p| *p.value()).collect();
        (vals, sim.metrics().receptions, sim.positions().to_vec())
    };
    let (mut par, mut seq) = (CollectSink::new(), CollectSink::new());
    set.run_streaming(true, trial, &mut par);
    set.run_streaming(false, trial, &mut seq);
    assert_eq!(par.trials.len(), 16);
    assert_eq!(par.trials.len(), seq.trials.len());
    for (a, b) in par.trials.iter().zip(&seq.trials) {
        assert_eq!(a.key, b.key);
        assert_eq!(
            a.result, b.result,
            "parallel schedule must not change results (threads={threads})"
        );
    }
}

#[test]
fn fading_degrades_reception_deterministically() {
    let base = Scenario::builder("clean")
        .deployment(DeploymentSpec::Uniform { n: 30, side: 8.0 })
        .channels(2)
        .build();
    let faded = Scenario::builder("faded")
        .deployment(DeploymentSpec::Uniform { n: 30, side: 8.0 })
        .fading(FadingSpec::dropping(0.3, 0.2, 1.0))
        .channels(2)
        .build();
    let run = |s: &Scenario, seed: u64| {
        let mut sim = ScenarioSim::new(s, seed, |i, _| flood_protocol(i, 2));
        sim.run(150);
        (sim.metrics().receptions, sim.metrics().env_drops)
    };
    let (clean_rx, clean_drops) = run(&base, 5);
    let (faded_rx, faded_drops) = run(&faded, 5);
    assert_eq!(clean_drops, 0);
    assert!(faded_drops > 0, "bad channels must drop receptions");
    assert!(
        faded_rx < clean_rx,
        "fading must reduce receptions: {faded_rx} vs {clean_rx}"
    );
    assert_eq!(
        run(&faded, 5),
        (faded_rx, faded_drops),
        "and stay deterministic"
    );
}

#[test]
fn churned_nodes_join_late_and_crash() {
    let scenario = Scenario::builder("churn")
        .deployment(DeploymentSpec::Uniform { n: 20, side: 6.0 })
        .churn(ChurnSpec::Explicit {
            joins: vec![(1, 50)],
            crashes: vec![(2, 30)],
        })
        .channels(1)
        .build();
    let mut sim = ScenarioSim::new(&scenario, 11, |i, _| flood_protocol(i, 1));
    sim.run(29);
    let faults = sim.engine().faults().clone();
    assert!(!faults.has_joined(1, 29));
    assert!(!faults.is_crashed(2, 29));
    sim.run(70);
    // Node 1 joined at 50: by now it has flooded its own value at least
    // once, so transmissions include it; the crashed node stopped at 30.
    assert!(faults.is_crashed(2, 99));
    assert!(faults.has_joined(1, 99));
    // A late joiner still learns the flood maximum (19) after joining.
    let v1 = *sim.protocols()[1].value();
    assert!(v1 >= 1, "late joiner retains at least its own value");
}

#[test]
fn mobility_moves_nodes_within_area() {
    let scenario = Scenario::builder("mobile")
        .deployment(DeploymentSpec::Uniform { n: 25, side: 10.0 })
        .mobility(MobilitySpec::RandomWaypoint {
            speed_min: 0.1,
            speed_max: 0.4,
            pause: 0,
        })
        .build();
    let area = scenario.effective_area();
    let mut sim = ScenarioSim::new(&scenario, 13, |i, _| flood_protocol(i, 1));
    let start = sim.positions().to_vec();
    for _ in 0..300 {
        sim.step();
        assert!(sim.positions().iter().all(|p| area.contains(*p)));
    }
    let moved = sim
        .positions()
        .iter()
        .zip(&start)
        .filter(|(a, b)| a.dist(**b) > 0.5)
        .count();
    assert!(moved > 10, "most nodes should have moved; only {moved} did");
}

#[test]
fn convoy_keeps_groups_tight() {
    let scenario = Scenario::builder("convoy")
        .deployment(DeploymentSpec::Uniform { n: 24, side: 20.0 })
        .mobility(MobilitySpec::Convoy {
            groups: 3,
            speed: 0.3,
            spread: 1.5,
            pause: 0,
        })
        .build();
    let mut sim = ScenarioSim::new(&scenario, 17, |i, _| flood_protocol(i, 1));
    sim.run(100);
    // Members of the same group (i % 3) sit within 2*spread of each other.
    let pos = sim.positions();
    for g in 0..3 {
        let members: Vec<Point> = (g..24).step_by(3).map(|i| pos[i]).collect();
        for a in &members {
            for b in &members {
                assert!(
                    a.dist(*b) <= 3.0 + 1e-9,
                    "group {g} scattered: {}",
                    a.dist(*b)
                );
            }
        }
    }
}
