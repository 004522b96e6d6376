//! Failure injection: crash-stop nodes and jammed channels.
//!
//! Extensions beyond the paper's fault-free model, motivated by its related
//! work on disrupted channels (Dolev et al., DISC'11, cited as \[9\]): an
//! adversary may disrupt up to `t` channels per slot. Experiments A2 uses
//! these to probe the robustness of the aggregation structure.

use crate::rng::mix64;
use mca_geom::Point;
use std::sync::atomic::{AtomicU64, Ordering};

/// A channel-jamming specification.
#[derive(Debug, Clone, PartialEq)]
pub enum JamSpec {
    /// Jam a fixed channel for the slot interval `[from, to)` with the given
    /// interference power at every listener.
    Fixed {
        /// Channel index to jam.
        channel: u16,
        /// First jammed slot.
        from: u64,
        /// One past the last jammed slot.
        to: u64,
        /// Interference power added at every listener on the channel.
        power: f64,
    },
    /// Each slot, jam `t` channels chosen pseudo-randomly (seeded, hence
    /// reproducible) out of `total` channels — the *t-disrupted* adversary.
    Random {
        /// Number of channels disrupted per slot.
        t: u16,
        /// Total number of channels the adversary picks from.
        total: u16,
        /// Interference power added on disrupted channels.
        power: f64,
        /// Adversary seed.
        seed: u64,
    },
}

impl JamSpec {
    /// Jamming power this spec contributes on `channel` at `slot`.
    pub fn power_at(&self, channel: u16, slot: u64) -> f64 {
        match *self {
            JamSpec::Fixed {
                channel: ch,
                from,
                to,
                power,
            } => {
                if ch == channel && slot >= from && slot < to {
                    power
                } else {
                    0.0
                }
            }
            JamSpec::Random {
                t,
                total,
                power,
                seed,
            } => {
                if total == 0 || channel >= total {
                    return 0.0;
                }
                // Rank channels by a per-slot hash; the t smallest are jammed.
                // This gives exactly t distinct disrupted channels per slot.
                let my_rank = mix64(seed ^ mix64(slot) ^ (channel as u64) << 32);
                let mut smaller = 0u16;
                for c in 0..total {
                    if c == channel {
                        continue;
                    }
                    let r = mix64(seed ^ mix64(slot) ^ (c as u64) << 32);
                    if r < my_rank || (r == my_rank && c < channel) {
                        smaller += 1;
                    }
                }
                if smaller < t {
                    power
                } else {
                    0.0
                }
            }
        }
    }
}

/// A periodic per-node power-down schedule.
///
/// Distinct from crash-stop: a sleeping node is powered off for the back
/// half of every period (it neither transmits, listens, nor observes, like
/// an absent node) but **returns with its protocol state intact** and does
/// not count as a lifecycle transition — see
/// [`FaultPlan::is_lifecycle_absent`]. Models duty-cycled radios saving
/// energy on a fixed phase/period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SleepSchedule {
    /// Cycle length in slots.
    pub period: u64,
    /// Slots awake at the start of each cycle; the remaining
    /// `period - on` slots are spent asleep. `on >= period` never sleeps.
    pub on: u64,
    /// Phase offset in slots (staggers schedules across nodes).
    pub phase: u64,
}

impl SleepSchedule {
    /// Whether the schedule has the node powered down at `slot`.
    pub fn asleep_at(&self, slot: u64) -> bool {
        self.period > 0 && self.on < self.period && (slot + self.phase) % self.period >= self.on
    }

    /// The first slot at or after `slot` the schedule has the node awake —
    /// `None` if it never wakes (`on == 0`).
    pub fn next_awake(&self, slot: u64) -> Option<u64> {
        if !self.asleep_at(slot) {
            return Some(slot);
        }
        if self.on == 0 {
            return None;
        }
        slot.checked_add(self.period - (slot + self.phase) % self.period)
    }
}

/// A spatially-scoped jammer: receptions decoded by listeners inside
/// `radius` of `center` during `[from, to)` are destroyed (a deep fade at
/// the victim — the energy was still sensed, so the listener observes a
/// busy channel). Unlike [`JamSpec`], which degrades a whole channel
/// everywhere, a zone jam follows a *position* — the mechanism behind the
/// mobile tracking jammer in `mca-scenario`, which rewrites `center` each
/// epoch to sit on the densest live cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneJam {
    /// Jammer position.
    pub center: Point,
    /// Blast radius: listeners strictly within this distance are hit.
    pub radius: f64,
    /// Restrict the jam to one channel (`None` hits every channel).
    pub channel: Option<u16>,
    /// First jammed slot.
    pub from: u64,
    /// One past the last jammed slot.
    pub to: u64,
}

impl ZoneJam {
    /// Whether a listener at `pos` on `channel` is inside the jam at `slot`.
    pub fn hits(&self, pos: Point, channel: u16, slot: u64) -> bool {
        slot >= self.from
            && slot < self.to
            && self.channel.is_none_or(|c| c == channel)
            && pos.dist_sq(self.center) < self.radius * self.radius
    }
}

/// A plan of faults injected into a run.
///
/// Presence (crash slots, join slots, sleep schedules) is stored densely,
/// indexed by node id, so the per-node queries the engine asks every slot
/// are one bounds-checked load each. The vectors grow lazily to the
/// largest node id that has an entry; two plans with the same entries are
/// equal whatever their vector lengths.
#[derive(Clone, Default)]
pub struct FaultPlan {
    crashes: Vec<Option<u64>>,
    joins: Vec<Option<u64>>,
    jams: Vec<JamSpec>,
    sleeps: Vec<Option<SleepSchedule>>,
    zone_jams: Vec<ZoneJam>,
    /// See [`FaultPlan::lifecycle_epoch`]. Not part of equality.
    epoch: u64,
}

/// Source of [`FaultPlan::lifecycle_epoch`] stamps: process-unique, so
/// equal stamps imply equal presence entries even across plans that
/// replaced one another wholesale (`*engine.faults_mut() = other`).
/// `Relaxed` suffices — the value publishes nothing but its own uniqueness.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Stores `value` at `node`, growing the dense vector to cover it.
fn set_entry<T: Clone>(entries: &mut Vec<Option<T>>, node: u32, value: T) {
    let i = node as usize;
    if entries.len() <= i {
        entries.resize(i + 1, None);
    }
    entries[i] = Some(value);
}

/// The `(node, entry)` pairs of a dense vector, in node order.
fn entries<T: Copy>(entries: &[Option<T>]) -> Vec<(u32, T)> {
    entries
        .iter()
        .enumerate()
        .filter_map(|(i, e)| e.map(|e| (i as u32, e)))
        .collect()
}

/// Dense-vector equality up to trailing empty entries.
fn same_entries<T: PartialEq>(a: &[Option<T>], b: &[Option<T>]) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    short == &long[..short.len()] && long[short.len()..].iter().all(Option::is_none)
}

impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        same_entries(&self.crashes, &other.crashes)
            && same_entries(&self.joins, &other.joins)
            && same_entries(&self.sleeps, &other.sleeps)
            && self.jams == other.jams
            && self.zone_jams == other.zone_jams
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("crashes", &self.crash_events())
            .field("joins", &self.join_events())
            .field("jams", &self.jams)
            .field("sleeps", &self.sleep_schedules())
            .field("zone_jams", &self.zone_jams)
            .finish()
    }
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan that keeps every node with `alive[i] == false` out of the
    /// run (crash-stopped from slot 0) — one pass over the mask instead of
    /// one [`FaultPlan::crash_at`] per absent node.
    pub fn from_alive_mask(alive: &[bool]) -> Self {
        FaultPlan {
            crashes: alive.iter().map(|&a| (!a).then_some(0)).collect(),
            epoch: fresh_epoch(),
            ..FaultPlan::default()
        }
    }

    /// Crash-stops node `node` from slot `slot` onward (it neither
    /// transmits nor listens after that).
    pub fn crash_at(&mut self, node: u32, slot: u64) -> &mut Self {
        set_entry(&mut self.crashes, node, slot);
        self.epoch = fresh_epoch();
        self
    }

    /// Delays node `node`'s join until slot `slot`: before that it is not
    /// part of the network (it neither transmits, listens, nor observes).
    /// Models churn — devices powering on after the run has started.
    pub fn join_at(&mut self, node: u32, slot: u64) -> &mut Self {
        set_entry(&mut self.joins, node, slot);
        self.epoch = fresh_epoch();
        self
    }

    /// Adds a jamming spec.
    pub fn jam(&mut self, spec: JamSpec) -> &mut Self {
        self.jams.push(spec);
        self
    }

    /// Puts node `node` on a duty-cycle sleep schedule (replacing any
    /// previous schedule for the node).
    pub fn sleep(&mut self, node: u32, schedule: SleepSchedule) -> &mut Self {
        set_entry(&mut self.sleeps, node, schedule);
        self.epoch = fresh_epoch();
        self
    }

    /// Adds a zone jam and returns its index, so an environment model that
    /// owns the jammer can re-target it later via
    /// [`FaultPlan::zone_jams_mut`].
    pub fn zone_jam(&mut self, jam: ZoneJam) -> usize {
        self.zone_jams.push(jam);
        self.zone_jams.len() - 1
    }

    /// A stamp that changes whenever a presence entry does
    /// ([`FaultPlan::crash_at`], [`FaultPlan::join_at`],
    /// [`FaultPlan::sleep`]): two plans — or one plan at two times — with
    /// equal stamps have identical crash, join and sleep entries. It lets
    /// the engine tell "someone borrowed the plan mutably" (a tracking
    /// jammer re-aiming its zone every slot) from "who is present changed",
    /// and re-derive its polling roster only on the latter. Clones share
    /// their original's stamp; it is not part of equality.
    pub fn lifecycle_epoch(&self) -> u64 {
        self.epoch
    }

    /// The slot `node` crash-stops at, if it has one.
    pub(crate) fn crash_slot(&self, node: u32) -> Option<u64> {
        self.crashes.get(node as usize).copied().flatten()
    }

    /// The slot a late joiner `node` powers on at, if its join is delayed.
    pub(crate) fn join_slot(&self, node: u32) -> Option<u64> {
        self.joins.get(node as usize).copied().flatten()
    }

    /// `node`'s duty-cycle schedule, if it has one.
    pub(crate) fn sleep_schedule(&self, node: u32) -> Option<SleepSchedule> {
        self.sleeps.get(node as usize).copied().flatten()
    }

    /// Whether `node` is crashed at `slot`.
    pub fn is_crashed(&self, node: u32, slot: u64) -> bool {
        self.crash_slot(node).is_some_and(|s| slot >= s)
    }

    /// Whether `node` has joined the network by `slot` (true unless a
    /// [`FaultPlan::join_at`] entry delays it).
    pub fn has_joined(&self, node: u32, slot: u64) -> bool {
        self.join_slot(node).is_none_or(|s| slot >= s)
    }

    /// Whether `node` is powered down by a duty-cycle schedule at `slot`.
    pub fn is_asleep(&self, node: u32, slot: u64) -> bool {
        self.sleep_schedule(node).is_some_and(|s| s.asleep_at(slot))
    }

    /// Whether `node`'s *lifecycle* keeps it out of `slot` — crashed, or
    /// not yet joined. Excludes duty-cycle sleep: a sleeping node is a
    /// temporary power-down that returns with state, not a membership
    /// change, so lifecycle observers
    /// ([`crate::Engine::watch_events`]) do not report it.
    pub fn is_lifecycle_absent(&self, node: u32, slot: u64) -> bool {
        self.is_crashed(node, slot) || !self.has_joined(node, slot)
    }

    /// Whether `node` takes no part in `slot` — crashed, not yet joined,
    /// or asleep on its duty cycle.
    pub fn is_absent(&self, node: u32, slot: u64) -> bool {
        self.is_lifecycle_absent(node, slot) || self.is_asleep(node, slot)
    }

    /// Total jamming power on `channel` at `slot`.
    pub fn jam_power(&self, channel: u16, slot: u64) -> f64 {
        self.jams.iter().map(|j| j.power_at(channel, slot)).sum()
    }

    /// Whether any zone jam destroys receptions for a listener at `pos` on
    /// `channel` at `slot`.
    pub fn zone_drop(&self, pos: Point, channel: u16, slot: u64) -> bool {
        self.zone_jams.iter().any(|z| z.hits(pos, channel, slot))
    }

    /// Whether the plan injects anything at all.
    pub fn is_trivial(&self) -> bool {
        self.crashes.iter().all(Option::is_none)
            && self.joins.iter().all(Option::is_none)
            && self.jams.is_empty()
            && self.sleeps.iter().all(Option::is_none)
            && self.zone_jams.is_empty()
    }

    /// The scheduled crash-stops as `(node, slot)` pairs, sorted by node —
    /// a deterministic view for serialization and reporting.
    pub fn crash_events(&self) -> Vec<(u32, u64)> {
        entries(&self.crashes)
    }

    /// The scheduled late joins as `(node, slot)` pairs, sorted by node.
    pub fn join_events(&self) -> Vec<(u32, u64)> {
        entries(&self.joins)
    }

    /// The jamming specs, in insertion order.
    pub fn jams(&self) -> &[JamSpec] {
        &self.jams
    }

    /// The duty-cycle schedules as `(node, schedule)` pairs, sorted by
    /// node — a deterministic view for serialization and reporting.
    pub fn sleep_schedules(&self) -> Vec<(u32, SleepSchedule)> {
        entries(&self.sleeps)
    }

    /// The zone jams, in insertion order.
    pub fn zone_jams(&self) -> &[ZoneJam] {
        &self.zone_jams
    }

    /// Mutable zone jams — how a tracking-jammer environment model
    /// re-targets the jam it installed between slots.
    pub fn zone_jams_mut(&mut self) -> &mut [ZoneJam] {
        &mut self.zone_jams
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_plan() {
        let p = FaultPlan::none();
        assert!(p.is_trivial());
        assert!(!p.is_crashed(0, 100));
        assert_eq!(p.jam_power(0, 100), 0.0);
    }

    #[test]
    fn crash_takes_effect_at_slot() {
        let mut p = FaultPlan::none();
        p.crash_at(3, 10);
        assert!(!p.is_crashed(3, 9));
        assert!(p.is_crashed(3, 10));
        assert!(p.is_crashed(3, 11));
        assert!(!p.is_crashed(4, 11));
        assert!(!p.is_trivial());
    }

    #[test]
    fn join_takes_effect_at_slot() {
        let mut p = FaultPlan::none();
        p.join_at(2, 5);
        assert!(!p.has_joined(2, 4));
        assert!(p.is_absent(2, 4));
        assert!(p.has_joined(2, 5));
        assert!(!p.is_absent(2, 5));
        // Nodes without an entry are joined from slot 0.
        assert!(p.has_joined(0, 0));
        assert!(!p.is_trivial());
    }

    #[test]
    fn join_then_crash_lifecycle() {
        let mut p = FaultPlan::none();
        p.join_at(7, 10);
        p.crash_at(7, 20);
        assert!(p.is_absent(7, 9), "not yet joined");
        assert!(!p.is_absent(7, 15), "alive between join and crash");
        assert!(p.is_absent(7, 20), "crashed");
    }

    #[test]
    fn fixed_jam_window() {
        let spec = JamSpec::Fixed {
            channel: 2,
            from: 5,
            to: 8,
            power: 1.5,
        };
        assert_eq!(spec.power_at(2, 4), 0.0);
        assert_eq!(spec.power_at(2, 5), 1.5);
        assert_eq!(spec.power_at(2, 7), 1.5);
        assert_eq!(spec.power_at(2, 8), 0.0);
        assert_eq!(spec.power_at(1, 6), 0.0);
    }

    #[test]
    fn random_jam_hits_exactly_t_channels() {
        let spec = JamSpec::Random {
            t: 3,
            total: 16,
            power: 2.0,
            seed: 99,
        };
        for slot in 0..50 {
            let jammed: Vec<u16> = (0..16).filter(|&c| spec.power_at(c, slot) > 0.0).collect();
            assert_eq!(jammed.len(), 3, "slot {slot}: {jammed:?}");
        }
        // Different slots jam different sets (overwhelmingly likely).
        let s0: Vec<u16> = (0..16).filter(|&c| spec.power_at(c, 0) > 0.0).collect();
        let any_diff = (1..20).any(|s| {
            let v: Vec<u16> = (0..16).filter(|&c| spec.power_at(c, s) > 0.0).collect();
            v != s0
        });
        assert!(any_diff);
    }

    #[test]
    fn random_jam_out_of_range_channel() {
        let spec = JamSpec::Random {
            t: 2,
            total: 4,
            power: 2.0,
            seed: 1,
        };
        assert_eq!(spec.power_at(10, 0), 0.0);
    }

    #[test]
    fn event_views_are_sorted_and_complete() {
        let mut p = FaultPlan::none();
        p.crash_at(9, 30);
        p.crash_at(2, 10);
        p.join_at(5, 4);
        p.jam(JamSpec::Fixed {
            channel: 1,
            from: 0,
            to: 5,
            power: 1.0,
        });
        assert_eq!(p.crash_events(), vec![(2, 10), (9, 30)]);
        assert_eq!(p.join_events(), vec![(5, 4)]);
        assert_eq!(p.jams().len(), 1);
    }

    #[test]
    fn sleep_schedule_cycles_and_staggers() {
        let s = SleepSchedule {
            period: 10,
            on: 6,
            phase: 0,
        };
        for slot in 0..6 {
            assert!(!s.asleep_at(slot), "slot {slot} should be awake");
        }
        for slot in 6..10 {
            assert!(s.asleep_at(slot), "slot {slot} should be asleep");
        }
        assert!(!s.asleep_at(10), "next cycle starts awake");
        // Phase shifts the window; on >= period never sleeps.
        let shifted = SleepSchedule {
            period: 10,
            on: 6,
            phase: 4,
        };
        assert!(shifted.asleep_at(2));
        assert!(!shifted.asleep_at(6));
        let always_on = SleepSchedule {
            period: 10,
            on: 10,
            phase: 3,
        };
        assert!((0..40).all(|s| !always_on.asleep_at(s)));
    }

    #[test]
    fn next_awake_is_the_first_awake_slot() {
        for (period, on, phase) in [(10, 6, 0), (10, 6, 4), (7, 1, 3), (5, 5, 2), (0, 0, 0)] {
            let s = SleepSchedule { period, on, phase };
            for slot in 0..40 {
                let expect = (slot..slot + 40).find(|&u| !s.asleep_at(u));
                assert_eq!(s.next_awake(slot), expect, "{s:?} at {slot}");
            }
        }
        let never = SleepSchedule {
            period: 4,
            on: 0,
            phase: 1,
        };
        assert_eq!(never.next_awake(9), None);
    }

    #[test]
    fn alive_mask_plan_equals_crash_at_loop() {
        let alive = [true, false, true, true, false, true, true];
        let mut looped = FaultPlan::none();
        for (i, &a) in alive.iter().enumerate() {
            if !a {
                looped.crash_at(i as u32, 0);
            }
        }
        let masked = FaultPlan::from_alive_mask(&alive);
        // Equal although the dense vectors differ in length (7 vs 5).
        assert_eq!(masked, looped);
        assert_eq!(masked.crash_events(), vec![(1, 0), (4, 0)]);
        assert!(masked.is_crashed(4, 0) && !masked.is_crashed(6, 99));
        assert!(FaultPlan::from_alive_mask(&[true; 4]).is_trivial());
        assert_eq!(FaultPlan::from_alive_mask(&[true; 4]), FaultPlan::none());
    }

    #[test]
    fn lifecycle_epoch_moves_exactly_with_presence_entries() {
        let mut p = FaultPlan::none();
        let e0 = p.lifecycle_epoch();
        p.jam(JamSpec::Fixed {
            channel: 0,
            from: 0,
            to: 1,
            power: 1.0,
        });
        let z = p.zone_jam(ZoneJam {
            center: Point::new(0.0, 0.0),
            radius: 1.0,
            channel: None,
            from: 0,
            to: 9,
        });
        p.zone_jams_mut()[z].radius = 2.0;
        assert_eq!(p.lifecycle_epoch(), e0, "jams are not presence");
        p.crash_at(1, 5);
        let e1 = p.lifecycle_epoch();
        assert_ne!(e1, e0);
        let clone = p.clone();
        assert_eq!(clone.lifecycle_epoch(), e1);
        p.join_at(2, 3);
        let e2 = p.lifecycle_epoch();
        p.sleep(
            0,
            SleepSchedule {
                period: 2,
                on: 1,
                phase: 0,
            },
        );
        assert!(e2 != e1 && p.lifecycle_epoch() != e2);
        // Another plan never reuses a stamp, and the stamp is not part of
        // equality.
        let mut q = clone.clone();
        q.crash_at(1, 5);
        assert_ne!(q.lifecycle_epoch(), e1);
        assert_eq!(q, clone);
    }

    #[test]
    fn sleep_is_absent_but_not_lifecycle_absent() {
        let mut p = FaultPlan::none();
        p.sleep(
            4,
            SleepSchedule {
                period: 8,
                on: 4,
                phase: 0,
            },
        );
        assert!(!p.is_trivial());
        assert!(!p.is_absent(4, 3));
        assert!(p.is_absent(4, 5));
        assert!(p.is_asleep(4, 5));
        assert!(
            !p.is_lifecycle_absent(4, 5),
            "sleep is not a membership change"
        );
        // A crash still counts for both views.
        p.crash_at(4, 100);
        assert!(p.is_lifecycle_absent(4, 100));
        assert!(p.is_absent(4, 100));
        assert_eq!(p.sleep_schedules().len(), 1);
        assert_eq!(p.sleep_schedules()[0].0, 4);
    }

    #[test]
    fn zone_jam_hits_by_position_channel_and_window() {
        let mut p = FaultPlan::none();
        let idx = p.zone_jam(ZoneJam {
            center: Point::new(5.0, 5.0),
            radius: 2.0,
            channel: Some(1),
            from: 10,
            to: 20,
        });
        assert_eq!(idx, 0);
        assert!(!p.is_trivial());
        let inside = Point::new(5.5, 5.0);
        let outside = Point::new(8.0, 5.0);
        assert!(p.zone_drop(inside, 1, 10));
        assert!(!p.zone_drop(inside, 1, 9), "before the window");
        assert!(!p.zone_drop(inside, 1, 20), "after the window");
        assert!(!p.zone_drop(inside, 0, 15), "other channel");
        assert!(!p.zone_drop(outside, 1, 15), "out of range");
        // Re-targeting moves the blast zone.
        p.zone_jams_mut()[0].center = Point::new(8.0, 5.0);
        assert!(p.zone_drop(outside, 1, 15));
        assert!(!p.zone_drop(inside, 1, 15));
        // An all-channel jam hits every channel.
        p.zone_jams_mut()[0].channel = None;
        assert!(p.zone_drop(outside, 7, 15));
    }

    #[test]
    fn plan_sums_jammers() {
        let mut p = FaultPlan::none();
        p.jam(JamSpec::Fixed {
            channel: 0,
            from: 0,
            to: 10,
            power: 1.0,
        });
        p.jam(JamSpec::Fixed {
            channel: 0,
            from: 5,
            to: 10,
            power: 2.0,
        });
        assert_eq!(p.jam_power(0, 3), 1.0);
        assert_eq!(p.jam_power(0, 7), 3.0);
    }
}
