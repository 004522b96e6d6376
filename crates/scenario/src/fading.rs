//! Gilbert–Elliot per-channel fading.
//!
//! Each channel is an independent two-state Markov chain: *good* (clear)
//! or *bad* (degraded). Per slot, a good channel turns bad with probability
//! `p_degrade` and a bad one recovers with probability `p_recover`. The bad
//! state applies a [`ChannelCondition`] — extra interference at every
//! listener and/or outright reception drops — composing with any static
//! [`FaultPlan`](mca_radio::FaultPlan) jamming, which the engine adds
//! separately. This is the channel-quality model used for multi-channel
//! diversity MAC protocols (cf. Wang et al., *A Multi-Channel Diversity
//! Based MAC Protocol for Power-Constrained Cognitive Ad Hoc Networks*).

use crate::environment::{EnvironmentModel, World};
use mca_radio::ChannelCondition;
use rand::Rng;

/// Independent Gilbert–Elliot fading over a block of channels.
pub struct GilbertElliot {
    p_degrade: f64,
    p_recover: f64,
    bad: ChannelCondition,
    states: Vec<bool>, // true = bad
}

impl GilbertElliot {
    /// A fading process over `channels` channels, all starting *good*.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(channels: u16, p_degrade: f64, p_recover: f64, bad: ChannelCondition) -> Self {
        assert!((0.0..=1.0).contains(&p_degrade), "p_degrade out of range");
        assert!((0.0..=1.0).contains(&p_recover), "p_recover out of range");
        GilbertElliot {
            p_degrade,
            p_recover,
            bad,
            states: vec![false; channels as usize],
        }
    }

    /// Which channels are currently in the bad state.
    pub fn bad_channels(&self) -> impl Iterator<Item = u16> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i as u16)
    }
}

impl EnvironmentModel for GilbertElliot {
    fn step(&mut self, _slot: u64, world: &mut World<'_>) {
        if world.conditions.len() < self.states.len() {
            world
                .conditions
                .resize(self.states.len(), ChannelCondition::CLEAR);
        }
        for (c, bad) in self.states.iter_mut().enumerate() {
            let flip = if *bad {
                world.rng.gen_bool(self.p_recover)
            } else {
                world.rng.gen_bool(self.p_degrade)
            };
            if flip {
                *bad = !*bad;
            }
            world.conditions[c] = if *bad {
                self.bad
            } else {
                ChannelCondition::CLEAR
            };
        }
    }

    fn is_static(&self) -> bool {
        self.p_degrade == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_geom::Point;
    use mca_radio::FaultPlan;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run_states(p_degrade: f64, p_recover: f64, slots: u64, seed: u64) -> (u64, u64) {
        let mut env =
            GilbertElliot::new(4, p_degrade, p_recover, ChannelCondition::interfered(10.0));
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut positions: Vec<Point> = Vec::new();
        let mut conds = Vec::new();
        let mut faults = FaultPlan::none();
        let (mut bad_slots, mut total) = (0u64, 0u64);
        for s in 0..slots {
            env.step(
                s,
                &mut World {
                    positions: &mut positions,
                    conditions: &mut conds,
                    faults: &mut faults,
                    rng: &mut rng,
                },
            );
            for c in &conds {
                total += 1;
                if !c.is_clear() {
                    bad_slots += 1;
                }
            }
        }
        (bad_slots, total)
    }

    #[test]
    fn stationary_fraction_roughly_matches() {
        let (bad, total) = run_states(0.05, 0.15, 4000, 1);
        let frac = bad as f64 / total as f64;
        let expect = 0.05 / 0.20;
        assert!(
            (frac - expect).abs() < 0.07,
            "bad fraction {frac:.3} vs stationary {expect:.3}"
        );
    }

    #[test]
    fn zero_degrade_never_goes_bad() {
        let (bad, _) = run_states(0.0, 0.5, 500, 2);
        assert_eq!(bad, 0);
        let env = GilbertElliot::new(2, 0.0, 0.5, ChannelCondition::dropped(0.0));
        assert!(env.is_static());
    }

    #[test]
    fn conditions_vector_sized_to_channels() {
        let mut env = GilbertElliot::new(6, 0.5, 0.5, ChannelCondition::dropped(1.0));
        let mut rng = SmallRng::seed_from_u64(3);
        let mut positions: Vec<Point> = Vec::new();
        let mut conds = Vec::new();
        let mut faults = FaultPlan::none();
        env.step(
            0,
            &mut World {
                positions: &mut positions,
                conditions: &mut conds,
                faults: &mut faults,
                rng: &mut rng,
            },
        );
        assert_eq!(conds.len(), 6);
        assert!(env.bad_channels().all(|c| c < 6));
    }
}
