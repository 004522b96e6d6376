//! Running arbitrary scenario files end-to-end.
//!
//! `experiments --scenario path.toml` needs a workload that is meaningful
//! on *any* world a user writes — static or mobile, faded or jammed,
//! churning or not. The flood-combine max-aggregation backbone (the same
//! protocol E16 uses) fits: every node floods its id, the network
//! aggregates the maximum, and coverage/reception metrics summarize how
//! the environment treated the traffic.
//!
//! A trial is a pure function of `(scenario, seed)`, so
//! [`scenario_flood_trial`] doubles as the acceptance oracle for TOML
//! round-trips: a deserialized scenario must produce a [`ScenarioTrial`]
//! bit-identical to its in-code original.

use mca_analysis::Table;
use mca_core::aggregate::intercluster::{FloodCfg, FloodCombine};
use mca_core::{MaxAgg, Tdma};
use mca_scenario::{run_seeded_rows, Scenario, ScenarioSim};

/// The metrics of one scenario trial, comparable bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioTrial {
    /// Fraction of live nodes that ended holding the global maximum.
    pub coverage: f64,
    /// Whether every live node held the global maximum.
    pub full_coverage: bool,
    /// Successful decodes across the run.
    pub receptions: u64,
    /// Listen slots that sensed energy but decoded nothing.
    pub busy_failures: u64,
    /// Receptions suppressed by the environment (deep fades).
    pub env_drops: u64,
    /// Slots executed.
    pub slots: u64,
}

/// The flood configuration used for a scenario of `channels` channels and
/// `max_slots` slots: the last quarter (capped at 100 slots) is the quiet
/// tail, and the flood hops over every channel of the world.
pub(crate) fn flood_cfg(channels: u16, max_slots: u64) -> FloodCfg {
    let tail_rounds = (max_slots / 4).min(100);
    FloodCfg {
        q: 0.2,
        flood_rounds: max_slots.saturating_sub(tail_rounds),
        tail_rounds,
        tdma: Tdma::new(1, 1),
        hop_channels: channels,
    }
}

/// Runs the flood-combine max-aggregation workload over `scenario` for
/// trial `seed`. Pure in `(scenario, seed)`: identical inputs give a
/// bit-identical [`ScenarioTrial`].
pub fn scenario_flood_trial(scenario: &Scenario, seed: u64) -> ScenarioTrial {
    flood_trial_inner(scenario, seed, false).0
}

/// [`scenario_flood_trial`] with an `mca-obs` recorder force-attached to
/// the engine, returning the trial alongside the detached recorder.
///
/// Recording is observation-only: the returned [`ScenarioTrial`] is
/// bit-identical to [`scenario_flood_trial`]'s for the same inputs (the
/// workspace determinism suite pins this).
pub fn scenario_flood_trial_observed(
    scenario: &Scenario,
    seed: u64,
) -> (ScenarioTrial, mca_obs::Recorder) {
    let (trial, rec) = flood_trial_inner(scenario, seed, true);
    (trial, rec.unwrap_or_default())
}

fn flood_trial_inner(
    scenario: &Scenario,
    seed: u64,
    observe: bool,
) -> (ScenarioTrial, Option<mca_obs::Recorder>) {
    let n = scenario.len();
    let cfg = flood_cfg(scenario.channels, scenario.max_slots);
    let mut sim = ScenarioSim::new(scenario, seed, |i, _| {
        FloodCombine::dominator(MaxAgg, cfg, 0, i as i64)
    });
    if observe && sim.obs().is_none() {
        sim.engine_mut().attach_obs(mca_obs::Recorder::new());
    }
    sim.run_until_done(scenario.max_slots);
    let recorder = if observe { sim.take_obs() } else { None };
    let faults = scenario.faults_for(seed);
    let slots = sim.slot();
    // The achievable maximum is the highest id that ever *participated*:
    // a node whose join never happened inside the run (or that crashed
    // before joining) cannot have contributed its id to the flood.
    let joins: std::collections::HashMap<u32, u64> = faults.join_events().into_iter().collect();
    let crashes: std::collections::HashMap<u32, u64> = faults.crash_events().into_iter().collect();
    let participated = |i: u32| {
        let join = joins.get(&i).copied().unwrap_or(0);
        let crash = crashes.get(&i).copied().unwrap_or(u64::MAX);
        join < slots && crash > join
    };
    let expect = (0..n as u32)
        .filter(|&i| participated(i))
        .map(|i| i as i64)
        .max()
        .unwrap_or(0);
    // Nodes that are crashed (or never joined) by the end cannot be
    // expected to hold the maximum; score only the live ones.
    let mut live = 0usize;
    let mut holders = 0usize;
    for (i, p) in sim.protocols().iter().enumerate() {
        if faults.is_absent(i as u32, slots.saturating_sub(1)) {
            continue;
        }
        live += 1;
        if *p.value() == expect {
            holders += 1;
        }
    }
    let metrics = sim.metrics();
    let trial = ScenarioTrial {
        coverage: if live == 0 {
            0.0
        } else {
            holders as f64 / live as f64
        },
        full_coverage: live > 0 && holders == live,
        receptions: metrics.receptions,
        busy_failures: metrics.busy_failures,
        env_drops: metrics.env_drops,
        slots,
    };
    (trial, recorder)
}

/// Runs `trials` seeded trials of `scenario` and tabulates the outcome —
/// the harness behind `experiments --scenario`.
pub fn run_scenario(scenario: &Scenario, trials: usize) -> Table {
    let out = run_seeded_rows(&[0x5CE], trials, true, |_, seed| {
        scenario_flood_trial(scenario, seed)
    })
    .remove(0);
    let mut t = Table::new(
        format!(
            "scenario `{}`: flood max-aggregation -- n={}, F={}, {} slot budget",
            scenario.name,
            scenario.len(),
            scenario.channels,
            scenario.max_slots
        ),
        [
            "trials",
            "coverage (median)",
            "full coverage",
            "receptions",
            "env drops",
            "slots",
        ],
    );
    t.row([
        trials.to_string(),
        format!("{:.0}%", out.summarize(|r| r.coverage).median() * 100.0),
        format!("{:.0}%", out.fraction(|r| r.full_coverage) * 100.0),
        format!("{:.0}", out.summarize(|r| r.receptions as f64).median()),
        format!("{:.0}", out.summarize(|r| r.env_drops as f64).median()),
        format!("{:.0}", out.summarize(|r| r.slots as f64).median()),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_scenario::builtin_scenarios;

    #[test]
    fn trial_is_deterministic_in_scenario_and_seed() {
        let s = &builtin_scenarios()[0].scenario;
        assert_eq!(scenario_flood_trial(s, 7), scenario_flood_trial(s, 7));
    }

    #[test]
    fn static_uniform_flood_mostly_covers() {
        let s = &builtin_scenarios()[0].scenario;
        let t = scenario_flood_trial(s, 1);
        assert!(t.coverage > 0.5, "coverage {:.2} too low", t.coverage);
        assert!(t.receptions > 0);
        assert_eq!(t.env_drops, 0, "static world has no environment drops");
    }

    #[test]
    fn absent_top_id_does_not_zero_coverage() {
        // Node n-1 never joins inside the slot budget: the achievable
        // maximum is the top id among actual participants, and the live
        // nodes converging on it must count as full coverage.
        use mca_geom::Point;
        use mca_radio::FaultPlan;
        use mca_scenario::DeploymentSpec;
        let mut faults = FaultPlan::none();
        faults.join_at(4, 1_000_000);
        let s = mca_scenario::Scenario::builder("late-top-id")
            .deployment(DeploymentSpec::Explicit(
                (0..5).map(|i| Point::new(i as f64, 0.0)).collect(),
            ))
            .faults(faults)
            .channels(1)
            .max_slots(400)
            .build();
        let t = scenario_flood_trial(&s, 1);
        assert!(
            t.full_coverage,
            "live nodes converged on id 3 but were scored against 4: {t:?}"
        );
    }

    #[test]
    fn run_scenario_emits_one_row() {
        let s = &builtin_scenarios()[0].scenario;
        let table = format!("{}", run_scenario(s, 2));
        assert!(table.contains("static-uniform"), "{table}");
    }
}
