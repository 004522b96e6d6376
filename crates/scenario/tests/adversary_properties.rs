//! Adversary-world properties: TOML round-trips for the `[adversary]` /
//! `[duty_cycle]` tables, and bit-determinism of adversarial simulations
//! under `MCA_FORCE_PAR=1`.
//!
//! Lives in its own test binary: the force-par override is read once per
//! process, so it must be set before the first `Engine` is built and
//! would leak into unrelated tests otherwise. Every test here sets it at
//! entry, so whichever runs first still forces the fan-out for all.

use mca_radio::{Action, Channel, ChannelCondition, Observation, Protocol};
use mca_scenario::{AdversarySpec, DeploymentSpec, DutyCycleSpec, Scenario, ScenarioSim};
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::SmallRng;

fn force_par() {
    std::env::set_var("MCA_FORCE_PAR", "1");
}

fn tracking_jammer_for(
    epoch: u64,
    radius: f64,
    speed: f64,
    chan_sel: u16,
    channels: u16,
) -> AdversarySpec {
    AdversarySpec::TrackingJammer {
        epoch,
        radius,
        speed,
        // chan_sel doubles as the Some/None switch: half the draws jam
        // one (in-range) channel, the other half jam the whole spectrum.
        channel: chan_sel.is_multiple_of(2).then_some(chan_sel % channels),
    }
}

fn correlated_fading_for(p0: f64, p1: f64, corr: f64, power: f64, drop: bool) -> AdversarySpec {
    AdversarySpec::CorrelatedFading {
        p_degrade: p0,
        p_recover: p1,
        correlation: corr,
        bad: ChannelCondition {
            extra_interference: power,
            drop,
        },
    }
}

fn duty_cycle_for(period: u64, on_frac: u64, stride: u64, nodes_sel: u64) -> DutyCycleSpec {
    DutyCycleSpec {
        period,
        on: (on_frac % period).max(1),
        stride,
        nodes: nodes_sel
            .is_multiple_of(2)
            .then_some((nodes_sel % 64) as usize),
    }
}

// ---------------------------------------------------------------------------
// Property: the adversary and duty-cycle tables round-trip through TOML.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn adversary_and_duty_cycle_round_trip_through_toml(
        (sel, chan_sel, channels) in (0u8..3, 0u16..100, 1u16..9),
        (epoch, radius, speed) in (1u64..200, 0.1..6.0f64, 0.0..1.5f64),
        (p0, p1, corr) in (0.0..=1.0f64, 0.0..=1.0f64, 0.0..=1.0f64),
        (power, drop) in (0.0..200.0f64, 0u8..2),
        (period, on_frac, stride, nodes_sel) in (1u64..80, 0u64..80, 0u64..20, 0u64..100),
    ) {
        let adversary = match sel {
            0 => tracking_jammer_for(epoch, radius, speed, chan_sel, channels),
            1 => correlated_fading_for(p0, p1, corr, power, drop == 1),
            _ => correlated_fading_for(p0, p1, corr, 0.0, true),
        };
        let scenario = Scenario::builder("adversary-prop")
            .deployment(DeploymentSpec::Uniform { n: 30, side: 8.0 })
            .adversary(adversary)
            .duty_cycle(duty_cycle_for(period, on_frac, stride, nodes_sel))
            .channels(channels)
            .max_slots(100)
            .build();

        let text = scenario.to_toml();
        let back = Scenario::from_toml_str(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n--- TOML ---\n{text}")))?;
        prop_assert_eq!(&back, &scenario, "emitted TOML:\n{}", text);
        prop_assert_eq!(back.to_toml(), text, "second emission drifted");
    }
}

// ---------------------------------------------------------------------------
// Property: adversarial trials are bit-deterministic under forced fan-out.
// ---------------------------------------------------------------------------

/// A fixed beacon mesh (the adversary bench's workload in miniature):
/// every fifth node transmits each slot, the rest listen, so the jammer
/// always has traffic to destroy and sleepers always have slots to miss.
struct Beacon {
    tx: Option<Channel>,
    listen: Channel,
    heard: u64,
}

impl Protocol for Beacon {
    type Msg = u32;
    fn act(&mut self, _slot: u64, _rng: &mut SmallRng) -> Action<u32> {
        match self.tx {
            Some(channel) => Action::Transmit { channel, msg: 0 },
            None => Action::Listen {
                channel: self.listen,
            },
        }
    }
    fn observe(&mut self, _slot: u64, obs: Observation<u32>, _rng: &mut SmallRng) {
        if matches!(obs, Observation::Received(_)) {
            self.heard += 1;
        }
    }
}

fn beacon_for(i: usize, channels: u16) -> Beacon {
    Beacon {
        tx: i
            .is_multiple_of(5)
            .then_some(Channel((i / 5) as u16 % channels)),
        listen: Channel(i as u16 % channels),
        heard: 0,
    }
}

/// Runs `scenario` to completion and fingerprints everything the
/// environment decided: engine metrics plus each node's reception count.
fn fingerprint(scenario: &Scenario, seed: u64) -> (u64, u64, u64, Vec<u64>) {
    let channels = scenario.channels;
    let mut sim = ScenarioSim::new(scenario, seed, |i, _| beacon_for(i, channels));
    sim.run(scenario.max_slots);
    let m = sim.metrics();
    let (rx, busy, drops) = (m.receptions, m.busy_failures, m.env_drops);
    let heard = sim.protocols().iter().map(|p| p.heard).collect();
    (rx, busy, drops, heard)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random tracking-jammer worlds replay bit-identically with the
    /// parallel fan-out forced on — the jammer draws no randomness and
    /// shard order never leaks into outcomes.
    #[test]
    fn tracking_jammer_worlds_replay_bit_identically_under_forced_par(
        (n, channels, seed) in (20usize..50, 2u16..5, 0u64..u64::MAX),
        (epoch, radius, speed) in (5u64..40, 0.5..3.0f64, 0.0..0.6f64),
        chan_sel in 0u16..100,
    ) {
        force_par();
        let scenario = Scenario::builder("tj-prop")
            .deployment(DeploymentSpec::Uniform { n, side: 8.0 })
            .adversary(tracking_jammer_for(epoch, radius, speed, chan_sel, channels))
            .channels(channels)
            .max_slots(120)
            .build();
        prop_assert_eq!(fingerprint(&scenario, seed), fingerprint(&scenario, seed));
    }

    /// Random duty-cycle worlds likewise: the sleep schedule is a pure
    /// function of `(period, on, stride)`, so forced-par replays agree
    /// down to each node's per-slot reception history.
    #[test]
    fn duty_cycle_worlds_replay_bit_identically_under_forced_par(
        (n, channels, seed) in (20usize..50, 2u16..5, 0u64..u64::MAX),
        (period, on_frac, stride) in (4u64..48, 1u64..48, 1u64..11),
    ) {
        force_par();
        let scenario = Scenario::builder("dc-prop")
            .deployment(DeploymentSpec::Uniform { n, side: 8.0 })
            .duty_cycle(duty_cycle_for(period, on_frac, stride, 1))
            .channels(channels)
            .max_slots(120)
            .build();
        prop_assert_eq!(fingerprint(&scenario, seed), fingerprint(&scenario, seed));
    }
}
