//! Adversarial environment processes.
//!
//! Two active adversaries beyond the benign mobility/fading/churn models:
//!
//! * [`TrackingJammer`] — a mobile spatial jammer that re-targets the
//!   densest live cluster every epoch and glides toward it, maintaining a
//!   [`ZoneJam`] over the engine's fault plan. Targeting is a pure
//!   function of the engine's own position and liveness state — no
//!   randomness — so the adversary replays bit-for-bit and "worst-case"
//!   means worst case, not unlucky.
//! * [`CorrelatedFading`] — Gilbert–Elliot fading whose bad state bleeds
//!   into adjacent channels with a configurable correlation, modeling
//!   wideband interferers that defeat naive channel diversity: when one
//!   channel turns bad, its spectral neighbors tend to follow.
//!
//! The third adversary of the robustness suite — duty-cycled sleep
//! schedules — is not an environment process at all: it compiles into
//! per-node [`SleepSchedule`](mca_radio::SleepSchedule)s on the fault plan
//! (see [`DutyCycleSpec`](crate::DutyCycleSpec)), distinct from crash-stop
//! churn in that sleepers return with their state and never appear in the
//! lifecycle event stream.

use crate::environment::{EnvironmentModel, World};
use mca_geom::Point;
use mca_radio::{ChannelCondition, ZoneJam};
use rand::Rng;

/// A mobile jammer that chases the densest live cluster.
///
/// Every `epoch` slots it scans the world: each live node scores the
/// number of live nodes within the blast `radius` of its position, and the
/// highest-scoring position (ties to the smallest node id) becomes the new
/// target. The jammer then glides toward the target at `speed` per slot,
/// dragging a [`ZoneJam`] of the same radius with it, so receptions decode
/// only outside the moving blast zone.
pub struct TrackingJammer {
    epoch: u64,
    radius: f64,
    speed: f64,
    channel: Option<u16>,
    pos: Option<Point>,
    target: Point,
    jam: Option<usize>,
}

impl TrackingJammer {
    /// A jammer re-targeting every `epoch` slots, jamming `radius` around
    /// itself on `channel` (`None` = every channel), moving `speed`
    /// distance units per slot.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is 0 or `radius`/`speed` are not finite and
    /// non-negative.
    pub fn new(epoch: u64, radius: f64, speed: f64, channel: Option<u16>) -> Self {
        assert!(epoch > 0, "retarget epoch must be positive");
        assert!(radius.is_finite() && radius >= 0.0, "radius must be ≥ 0");
        assert!(speed.is_finite() && speed >= 0.0, "speed must be ≥ 0");
        TrackingJammer {
            epoch,
            radius,
            speed,
            channel,
            pos: None,
            target: Point::ORIGIN,
            jam: None,
        }
    }

    /// The jammer's current position (none before the first slot).
    pub fn position(&self) -> Option<Point> {
        self.pos
    }

    /// The cluster center currently being chased.
    pub fn target(&self) -> Point {
        self.target
    }

    /// The densest live position: maximizes live neighbors within the
    /// blast radius, ties to the smallest node id.
    fn densest(&self, slot: u64, world: &World<'_>) -> Option<Point> {
        let r2 = self.radius * self.radius;
        // One absence query per node, not one per pair.
        let live: Vec<Point> = world
            .positions
            .iter()
            .enumerate()
            .filter(|&(i, _)| !world.faults.is_absent(i as u32, slot))
            .map(|(_, &p)| p)
            .collect();
        let mut best: Option<(usize, Point)> = None;
        for &p in &live {
            let score = live.iter().filter(|q| p.dist_sq(**q) <= r2).count();
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, p));
            }
        }
        best.map(|(_, p)| p)
    }
}

impl EnvironmentModel for TrackingJammer {
    fn step(&mut self, slot: u64, world: &mut World<'_>) {
        if slot.is_multiple_of(self.epoch) {
            if let Some(t) = self.densest(slot, world) {
                self.target = t;
            }
        }
        let mut pos = self.pos.unwrap_or(self.target);
        let d = pos.dist(self.target);
        if d > 0.0 {
            let step = self.speed.min(d);
            pos = Point::new(
                pos.x + (self.target.x - pos.x) / d * step,
                pos.y + (self.target.y - pos.y) / d * step,
            );
        }
        self.pos = Some(pos);
        match self.jam {
            Some(idx) => world.faults.zone_jams_mut()[idx].center = pos,
            None => {
                self.jam = Some(world.faults.zone_jam(ZoneJam {
                    center: pos,
                    radius: self.radius,
                    channel: self.channel,
                    from: 0,
                    to: u64::MAX,
                }));
            }
        }
    }
}

/// Gilbert–Elliot fading with cross-channel correlation.
///
/// Each channel runs the usual two-state chain (good→bad with
/// `p_degrade`, bad→good with `p_recover`), but whenever a channel flips
/// to bad, each spectrally adjacent channel is infected with probability
/// `correlation` in the same slot (ascending channel order, lower neighbor
/// before upper, so the draw sequence is fixed). Infected channels recover
/// through their own chain. `correlation = 0` reduces to independent
/// [`GilbertElliot`](crate::GilbertElliot) fading.
pub struct CorrelatedFading {
    p_degrade: f64,
    p_recover: f64,
    correlation: f64,
    bad: ChannelCondition,
    states: Vec<bool>, // true = bad
}

impl CorrelatedFading {
    /// A correlated fading process over `channels` channels, all starting
    /// *good*.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn new(
        channels: u16,
        p_degrade: f64,
        p_recover: f64,
        correlation: f64,
        bad: ChannelCondition,
    ) -> Self {
        assert!((0.0..=1.0).contains(&p_degrade), "p_degrade out of range");
        assert!((0.0..=1.0).contains(&p_recover), "p_recover out of range");
        assert!(
            (0.0..=1.0).contains(&correlation),
            "correlation out of range"
        );
        CorrelatedFading {
            p_degrade,
            p_recover,
            correlation,
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

impl EnvironmentModel for CorrelatedFading {
    fn step(&mut self, _slot: u64, world: &mut World<'_>) {
        let n = self.states.len();
        if world.conditions.len() < n {
            world.conditions.resize(n, ChannelCondition::CLEAR);
        }
        // Pass 1: independent chain flips.
        let mut turned_bad = vec![false; n];
        for (c, bad) in self.states.iter_mut().enumerate() {
            let flip = if *bad {
                world.rng.gen_bool(self.p_recover)
            } else {
                world.rng.gen_bool(self.p_degrade)
            };
            if flip {
                *bad = !*bad;
                turned_bad[c] = *bad;
            }
        }
        // Pass 2: fresh bad states bleed into adjacent channels.
        if self.correlation > 0.0 {
            for c in turned_bad
                .iter()
                .enumerate()
                .filter_map(|(c, &t)| t.then_some(c))
            {
                if c > 0 && !self.states[c - 1] && world.rng.gen_bool(self.correlation) {
                    self.states[c - 1] = true;
                }
                if c + 1 < n && !self.states[c + 1] && world.rng.gen_bool(self.correlation) {
                    self.states[c + 1] = true;
                }
            }
        }
        for (c, &bad) in self.states.iter().enumerate() {
            world.conditions[c] = if bad {
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
    use mca_radio::FaultPlan;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn step_env(
        env: &mut dyn EnvironmentModel,
        slot: u64,
        positions: &mut [Point],
        conditions: &mut Vec<ChannelCondition>,
        faults: &mut FaultPlan,
        rng: &mut SmallRng,
    ) {
        env.step(
            slot,
            &mut World {
                positions,
                conditions,
                faults,
                rng,
            },
        );
    }

    #[test]
    fn tracking_jammer_locks_onto_the_densest_cluster() {
        // A tight trio on the right, a lone node on the left.
        let mut positions = vec![
            Point::new(-10.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.5, 0.0),
            Point::new(10.0, 0.5),
        ];
        let mut conds = Vec::new();
        let mut faults = FaultPlan::none();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut jam = TrackingJammer::new(10, 2.0, 100.0, None);
        step_env(
            &mut jam,
            0,
            &mut positions,
            &mut conds,
            &mut faults,
            &mut rng,
        );
        let pos = jam.position().unwrap();
        assert!(pos.x > 9.0, "jammer parks on the trio, got {pos:?}");
        assert_eq!(faults.zone_jams().len(), 1);
        assert!(faults.zone_drop(Point::new(10.0, 0.0), 0, 0));
        assert!(!faults.zone_drop(Point::new(-10.0, 0.0), 0, 0));
    }

    #[test]
    fn tracking_jammer_glides_and_retargets_each_epoch() {
        let mut positions = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.0)];
        let mut conds = Vec::new();
        let mut faults = FaultPlan::none();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut jam = TrackingJammer::new(5, 1.0, 0.5, None);
        step_env(
            &mut jam,
            0,
            &mut positions,
            &mut conds,
            &mut faults,
            &mut rng,
        );
        let start = jam.position().unwrap();
        // The cluster walks away; the jammer only re-aims at epoch slots
        // and covers at most `speed` per slot.
        for p in positions.iter_mut() {
            p.x += 8.0;
        }
        step_env(
            &mut jam,
            1,
            &mut positions,
            &mut conds,
            &mut faults,
            &mut rng,
        );
        assert_eq!(
            jam.target(),
            Point::new(start.x, 0.0),
            "no mid-epoch re-aim"
        );
        for slot in 2..40 {
            step_env(
                &mut jam,
                slot,
                &mut positions,
                &mut conds,
                &mut faults,
                &mut rng,
            );
        }
        let end = jam.position().unwrap();
        assert!(
            end.dist(Point::new(8.0, 0.0)) < 0.4,
            "jammer caught up: {end:?}"
        );
        // The fault plan still holds exactly one jam, tracking the glide.
        assert_eq!(faults.zone_jams().len(), 1);
        assert_eq!(faults.zone_jams()[0].center, end);
    }

    #[test]
    fn tracking_jammer_ignores_absent_nodes() {
        // The "dense" pair is crashed; the lone live node is the target.
        let mut positions = vec![
            Point::new(5.0, 5.0),
            Point::new(5.1, 5.0),
            Point::new(-3.0, 0.0),
        ];
        let mut conds = Vec::new();
        let mut faults = FaultPlan::none();
        faults.crash_at(0, 0).crash_at(1, 0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut jam = TrackingJammer::new(4, 1.0, 100.0, None);
        step_env(
            &mut jam,
            0,
            &mut positions,
            &mut conds,
            &mut faults,
            &mut rng,
        );
        assert_eq!(jam.target(), Point::new(-3.0, 0.0));
    }

    #[test]
    fn correlated_fading_spreads_to_neighbors() {
        // correlation 1: any fresh bad channel drags both neighbors down.
        let mut env = CorrelatedFading::new(8, 0.3, 0.0, 1.0, ChannelCondition::dropped(1.0));
        let mut positions: Vec<Point> = Vec::new();
        let mut conds = Vec::new();
        let mut faults = FaultPlan::none();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut seen_first = false;
        for slot in 0..40 {
            step_env(
                &mut env,
                slot,
                &mut positions,
                &mut conds,
                &mut faults,
                &mut rng,
            );
            let bad: Vec<u16> = env.bad_channels().collect();
            if bad.is_empty() || seen_first {
                continue;
            }
            seen_first = true;
            // With p = 1 bleeding and no recovery, every origin drags both
            // spectral neighbors down in the same slot, so the very first
            // non-empty bad set is a union of runs each at least 2 wide.
            let mut run = 1;
            for w in bad.windows(2) {
                if w[1] == w[0] + 1 {
                    run += 1;
                } else {
                    assert!(run >= 2, "isolated bad channel in {bad:?}");
                    run = 1;
                }
            }
            assert!(run >= 2, "isolated bad channel in {bad:?}");
        }
        assert!(seen_first, "degradation never fired");
        // With p_recover = 0 and 40 slots of p=0.3 degradation, the whole
        // band is bad.
        assert_eq!(env.bad_channels().count(), 8);
    }

    #[test]
    fn zero_correlation_matches_independent_fading() {
        // Statistically: with correlation 0 the per-slot draw sequence is
        // exactly one gen_bool per channel, the same as GilbertElliot —
        // verify state-by-state equality on a shared RNG stream.
        let mut corr = CorrelatedFading::new(6, 0.2, 0.3, 0.0, ChannelCondition::dropped(1.0));
        let mut plain = crate::GilbertElliot::new(6, 0.2, 0.3, ChannelCondition::dropped(1.0));
        let mut positions: Vec<Point> = Vec::new();
        let (mut c1, mut c2) = (Vec::new(), Vec::new());
        let (mut f1, mut f2) = (FaultPlan::none(), FaultPlan::none());
        let mut r1 = SmallRng::seed_from_u64(9);
        let mut r2 = SmallRng::seed_from_u64(9);
        for slot in 0..200 {
            step_env(&mut corr, slot, &mut positions, &mut c1, &mut f1, &mut r1);
            step_env(&mut plain, slot, &mut positions, &mut c2, &mut f2, &mut r2);
            assert_eq!(c1, c2, "slot {slot}");
        }
    }

    #[test]
    #[should_panic(expected = "correlation")]
    fn out_of_range_correlation_is_rejected() {
        CorrelatedFading::new(4, 0.1, 0.1, 1.5, ChannelCondition::CLEAR);
    }
}
