//! The reference semantics the optimized [`Engine`](crate::Engine) is
//! checked against: a poll-everyone engine with no roster, wake queue,
//! channel groups, shards, index arena, lanes or pool, and a harness
//! that checks a protocol's [`Protocol::quiet_until`] and
//! [`Protocol::listen_until`] promises.
//!
//! Test support, kept out of the rendered docs: nothing here is fast, and
//! nothing in the production engine calls it.

use crate::condition::ChannelCondition;
use crate::detect::DegradationDetector;
use crate::fault::FaultPlan;
use crate::ids::NodeId;
use crate::message::{Action, Observation};
use crate::metrics::Metrics;
use crate::node::Protocol;
use crate::rng::derive_rng;
use mca_geom::Point;
use mca_obs::ChannelSlotRecord;
use mca_sinr::{resolve_listener_ext, ListenOutcome, SinrParams};
use rand::rngs::SmallRng;
use std::collections::BTreeMap;

/// One slot = visit every node, ask the plan, call `act`; resolve each
/// listener by scanning the same-channel transmitters in ascending id
/// order; hand every present node its observation. Exact-mode semantics.
pub struct ReferenceEngine<P: Protocol> {
    /// Physical parameters.
    pub params: SinrParams,
    /// Node positions.
    pub positions: Vec<Point>,
    /// Protocol states.
    pub protocols: Vec<P>,
    /// Per-node RNG streams, derived exactly as the engine derives them.
    pub rngs: Vec<SmallRng>,
    /// The fault plan in force.
    pub faults: FaultPlan,
    /// Per-channel conditions (channels past the end are clear).
    pub conditions: Vec<ChannelCondition>,
    /// Slots executed so far.
    pub slot: u64,
    /// Run metrics so far.
    pub metrics: Metrics,
    /// The degradation detector, if any. It samples every contested
    /// listen (on a channel with at least one transmitter) in the order
    /// the engine owes its own: by slot, then channel, then listener id.
    pub detector: Option<DegradationDetector>,
    /// The per-channel outcome stream the engine owes a recorder: per
    /// slot, the channels somebody listened on in ascending order, then
    /// the transmit-only ones.
    pub channel_records: Vec<ChannelSlotRecord>,
}

impl<P: Protocol> ReferenceEngine<P> {
    /// Same inputs, same RNG derivation as [`Engine::new`](crate::Engine::new).
    pub fn new(params: SinrParams, positions: Vec<Point>, protocols: Vec<P>, seed: u64) -> Self {
        assert_eq!(positions.len(), protocols.len());
        ReferenceEngine {
            params,
            rngs: (0..positions.len())
                .map(|i| derive_rng(seed, i as u64))
                .collect(),
            positions,
            protocols,
            faults: FaultPlan::none(),
            conditions: Vec::new(),
            slot: 0,
            metrics: Metrics::new(),
            detector: None,
            channel_records: Vec::new(),
        }
    }

    /// Executes one slot.
    pub fn step(&mut self) {
        let slot = self.slot;
        let n = self.protocols.len();
        // One outcome record per channel in use, in channel order.
        let mut records: BTreeMap<u16, ChannelSlotRecord> = BTreeMap::new();
        let blank = |channel| ChannelSlotRecord {
            slot,
            channel,
            tx: 0,
            listens: 0,
            rx: 0,
            busy: 0,
            env: 0,
        };
        // Phase 1: `None` = not asked (absent or done).
        let mut actions: Vec<Option<Action<P::Msg>>> = Vec::with_capacity(n);
        for i in 0..n {
            let asked = !self.faults.is_absent(i as u32, slot) && !self.protocols[i].is_done();
            let action = asked.then(|| self.protocols[i].act(slot, &mut self.rngs[i]));
            match &action {
                Some(Action::Transmit { channel, .. }) => {
                    self.metrics.record_tx(channel.index());
                    records.entry(channel.0).or_insert(blank(channel.0)).tx += 1;
                }
                Some(Action::Listen { channel }) => {
                    self.metrics.listens += 1;
                    records.entry(channel.0).or_insert(blank(channel.0)).listens += 1;
                }
                Some(Action::Idle) | None => self.metrics.idles += 1,
            }
            actions.push(action);
        }
        // Phase 2: every node that acted observes exactly once.
        let mut samples: Vec<(u16, u32, bool)> = Vec::new();
        for i in 0..n {
            let obs = match &actions[i] {
                None => continue,
                Some(Action::Idle) if self.protocols[i].is_done() => continue,
                Some(Action::Idle) => Observation::Slept,
                Some(Action::Transmit { .. }) => Observation::Sent,
                Some(Action::Listen { channel }) => {
                    let m = &self.metrics;
                    let before = [m.receptions, m.busy_failures, m.env_drops];
                    let (obs, contested) = self.listen(i, channel.0, &actions);
                    let m = &self.metrics;
                    let rec = records.get_mut(&channel.0).expect("tallied in phase 1");
                    rec.rx += (m.receptions - before[0]) as u32;
                    rec.busy += (m.busy_failures - before[1]) as u32;
                    rec.env += (m.env_drops - before[2]) as u32;
                    if contested {
                        samples.push((channel.0, i as u32, obs.reception().is_some()));
                    }
                    obs
                }
            };
            self.protocols[i].observe(slot, obs, &mut self.rngs[i]);
        }
        // Visited by listener id; stable, so each channel keeps that order.
        samples.sort_by_key(|&(channel, _, _)| channel);
        if let Some(det) = self.detector.as_mut() {
            for (_, node, delivered) in samples {
                det.sample(node, slot, delivered);
            }
        }
        let listened = records.values().filter(|r| r.listens > 0);
        let transmit_only = records.values().filter(|r| r.listens == 0);
        self.channel_records.extend(listened.chain(transmit_only));
        self.slot += 1;
        self.metrics.slots += 1;
    }

    /// What listener `li` on channel `ch` experiences this slot, and
    /// whether the listen was contested (somebody transmitted on `ch`).
    fn listen(
        &mut self,
        li: usize,
        ch: u16,
        actions: &[Option<Action<P::Msg>>],
    ) -> (Observation<P::Msg>, bool) {
        let slot = self.slot;
        let senders: Vec<(usize, &P::Msg)> = actions
            .iter()
            .enumerate()
            .filter_map(|(i, a)| match a {
                Some(Action::Transmit { channel, msg }) if channel.0 == ch => Some((i, msg)),
                _ => None,
            })
            .collect();
        let tx_pos: Vec<Point> = senders.iter().map(|&(i, _)| self.positions[i]).collect();
        // Jamming folds into the noise floor; fading adds interference.
        let mut params = self.params;
        let jam = self.faults.jam_power(ch, slot);
        if jam > 0.0 {
            params.noise += jam;
        }
        let cond = self
            .conditions
            .get(ch as usize)
            .copied()
            .unwrap_or(ChannelCondition::CLEAR);
        let pos = self.positions[li];
        let mut outcome = resolve_listener_ext(&params, &tx_pos, pos, cond.extra_interference);
        // Deep fade, then zone jam: each destroys a decode and counts once.
        for dropped in [cond.drop, self.faults.zone_drop(pos, ch, slot)] {
            if dropped && outcome.decoded.is_some() {
                self.metrics.env_drops += 1;
                outcome = ListenOutcome {
                    decoded: None,
                    signal: 0.0,
                    sinr: 0.0,
                    total_power: outcome.total_power,
                };
            }
        }
        let obs = Observation::from_outcome(&outcome, |j| {
            (NodeId(senders[j].0 as u32), senders[j].1.clone())
        });
        match &obs {
            Observation::Received(_) => self.metrics.receptions += 1,
            Observation::Noise { total_power } if *total_power > 0.0 => {
                self.metrics.busy_failures += 1
            }
            _ => self.metrics.silent_listens += 1,
        }
        (obs, !senders.is_empty())
    }
}

/// A random thing a listener may experience, for [`assert_hints_sound`]
/// feeds: silence, noise, or `msg` decoded from one of `nodes` senders at a
/// random strength.
pub fn random_observation<M>(rng: &mut SmallRng, nodes: u32, msg: M) -> Observation<M> {
    use rand::Rng;
    match rng.gen_range(0..4u8) {
        0 => Observation::Noise { total_power: 0.0 },
        1 => Observation::Noise {
            total_power: rng.gen_range(0.0..2.0),
        },
        _ => {
            let signal = rng.gen_range(0.001..4.0);
            Observation::Received(crate::message::Reception {
                from: NodeId(rng.gen_range(0..nodes)),
                msg,
                signal,
                sinr: rng.gen_range(1.0..50.0),
                total_power: signal * rng.gen_range(1.0..1.5),
            })
        }
    }
}

/// Checks the [`Protocol::quiet_until`] and [`Protocol::listen_until`]
/// contracts along one run of `proto`.
///
/// Drives `proto` for `slots` slots the way the engine would: `act`, then
/// the observation `feed` chooses for the action (it gets the slot, the
/// action and the harness RNG — return receptions, noise, whatever the
/// protocol should cope with; `Sent`/`Slept` are supplied for
/// transmit/idle). After every slot it asks the hint the engine would ask
/// — `quiet_until` if the node idled; `listen_until` if it transmitted or
/// listened, and `quiet_until` after all if that gave no window reaching
/// past the next slot — and walks a clone through every slot of the
/// promised window:
/// the ghost must idle (resp. listen on the promised channel) without
/// touching its RNG and come out of each `Slept` (resp. each `Noise`, of
/// random power) unchanged (`Debug` rendering and `is_done`).
///
/// # Panics
///
/// Panics on the first broken promise.
pub fn assert_hints_sound<P, F>(mut proto: P, seed: u64, slots: u64, mut feed: F)
where
    P: Protocol + Clone + std::fmt::Debug,
    F: FnMut(u64, &Action<P::Msg>, &mut SmallRng) -> Observation<P::Msg>,
{
    use rand::Rng;
    let mut rng = derive_rng(seed, 0);
    let mut env_rng = derive_rng(seed, 1);
    let mut noise_rng = derive_rng(seed, 2);
    for slot in 0..slots {
        if proto.is_done() {
            return;
        }
        let action = proto.act(slot, &mut rng);
        let obs = match &action {
            Action::Idle if proto.is_done() => continue,
            Action::Idle => Observation::Slept,
            Action::Transmit { .. } => Observation::Sent,
            Action::Listen { .. } => feed(slot, &action, &mut env_rng),
        };
        proto.observe(slot, obs, &mut rng);
        // Like the engine, ask only a node that is still running: after a
        // transmission or a listen first for a standing window, and for a
        // quiet one if there is none.
        if proto.is_done() {
            continue;
        }
        let standing = match action {
            Action::Idle => None,
            _ => proto
                .listen_until(slot)
                .filter(|&(_, until)| until > slot + 1),
        };
        let hint = match standing {
            Some((c, until)) => Some((Some(c), until)),
            None => proto.quiet_until(slot).map(|until| (None, until)),
        };
        let Some((channel, until)) = hint else {
            continue;
        };
        let (mut ghost, mut ghost_rng) = (proto.clone(), rng.clone());
        let before = format!("{ghost:?}");
        // Walking a bounded stretch keeps far-future promises testable.
        for u in slot + 1..until.min(slot + 1 + 4096) {
            let a = ghost.act(u, &mut ghost_rng);
            let obs = match channel {
                None => {
                    assert!(
                        matches!(a, Action::Idle),
                        "slot {u}: acted inside the quiet window ({slot}, {until})"
                    );
                    Observation::Slept
                }
                Some(channel) => {
                    assert!(
                        matches!(a, Action::Listen { channel: c } if c == channel),
                        "slot {u}: did not listen on {channel:?} inside ({slot}, {until})"
                    );
                    let busy = noise_rng.gen_bool(0.5);
                    Observation::Noise {
                        total_power: if busy {
                            noise_rng.gen_range(0.0..2.0)
                        } else {
                            0.0
                        },
                    }
                }
            };
            ghost.observe(u, obs, &mut ghost_rng);
            assert_eq!(ghost_rng, rng, "slot {u}: drew from the RNG in its window");
            assert_eq!(format!("{ghost:?}"), before, "slot {u}: state moved");
            assert!(!ghost.is_done(), "slot {u}: finished inside its window");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::DetectorConfig;
    use crate::fault::{JamSpec, SleepSchedule, ZoneJam};
    use crate::ids::Channel;
    use crate::Engine;
    use mca_obs::SpanKind;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Transmits, listens or idles at random inside its TDMA block, does
    /// nothing outside it, folds everything it observes (float bits
    /// included) into a digest, draws randomness in `act` and on every
    /// reception, and finishes at the first in-block slot at or after
    /// `finish_at`.
    ///
    /// With `stands` set it also goes *waiting* now and then, after a slot
    /// it transmitted or listened in: until a slot and on a channel both
    /// read off its digest it only listens there, across its own blocks
    /// too, deaf to noise; a reception folds in as ever (RNG draw
    /// included) and then, by the message, ends the wait, finishes the
    /// node, moves the window, or changes nothing.
    #[derive(Clone, Debug, PartialEq)]
    struct Probe {
        phi: u64,
        spr: u64,
        colour: u64,
        channels: u16,
        finish_at: u64,
        done: bool,
        hints: bool,
        stands: bool,
        wait: Option<(Channel, u64)>,
        digest: u64,
    }

    impl Probe {
        fn in_block(&self, slot: u64) -> bool {
            (slot / self.spr) % self.phi == self.colour
        }

        fn fold(&mut self, x: u64) {
            self.digest = (self.digest ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        }

        fn fold_reception(&mut self, r: crate::message::Reception<u64>, rng: &mut SmallRng) {
            let salt: u64 = rng.gen();
            for x in [u64::from(r.from.0), r.msg, salt] {
                self.fold(x);
            }
            for x in [r.signal, r.sinr, r.total_power] {
                self.fold(x.to_bits());
            }
        }

        /// The wait in force at `slot`, if any.
        fn waiting(&self, slot: u64) -> Option<(Channel, u64)> {
            self.wait.filter(|&(_, until)| slot < until)
        }

        /// A `(channel, until)` read off the digest: windows of 0..48
        /// slots, so some are too short to stand in and some span blocks.
        fn window(&self, slot: u64) -> (Channel, u64) {
            let channel = Channel((self.digest >> 8) as u16 % self.channels);
            (channel, slot + 1 + (self.digest >> 24) % 48)
        }
    }

    impl Protocol for Probe {
        type Msg = u64;

        fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<u64> {
            if let Some((channel, _)) = self.waiting(slot) {
                return Action::Listen { channel };
            }
            self.wait = None;
            if !self.in_block(slot) {
                return Action::Idle;
            }
            let channel = Channel(rng.gen_range(0..self.channels));
            match rng.gen_range(0..4u8) {
                0 => Action::Idle,
                1 => Action::Transmit {
                    channel,
                    msg: rng.gen(),
                },
                _ => Action::Listen { channel },
            }
        }

        fn observe(&mut self, slot: u64, obs: Observation<u64>, rng: &mut SmallRng) {
            if self.waiting(slot).is_some() {
                if let Observation::Received(r) = obs {
                    let msg = r.msg;
                    self.fold_reception(r, rng);
                    match msg % 4 {
                        0 => self.wait = None,
                        1 => self.done = true,
                        2 => self.wait = Some(self.window(slot)),
                        _ => {}
                    }
                }
                return;
            }
            if !self.in_block(slot) {
                return;
            }
            let slept = matches!(obs, Observation::Slept);
            match obs {
                Observation::Received(r) => self.fold_reception(r, rng),
                Observation::Noise { total_power } => self.fold(total_power.to_bits()),
                Observation::Sent => self.fold(1),
                Observation::Slept => self.fold(2),
            }
            self.done = slot >= self.finish_at;
            if self.stands && !slept && self.digest.is_multiple_of(3) {
                self.wait = Some(self.window(slot));
            }
        }

        fn is_done(&self) -> bool {
            self.done
        }

        fn quiet_until(&self, slot: u64) -> Option<u64> {
            (self.hints && self.wait.is_none())
                .then(|| (slot + 1..).find(|&u| self.in_block(u)))
                .flatten()
        }

        fn listen_until(&self, _slot: u64) -> Option<(Channel, u64)> {
            self.wait
        }
    }

    /// What the harness does to both engines between two slots.
    #[derive(Clone, Debug)]
    enum Op {
        /// `faults_mut().crash_at` / `join_at` / `sleep`.
        Crash(u32, u64),
        Join(u32, u64),
        Sleep(u32, SleepSchedule),
        /// `env_parts()` without a lifecycle change: move a node, fade a
        /// channel, re-aim the zone jam.
        Env(u32, Point, u16, ChannelCondition),
        /// `env_parts()` with one.
        EnvCrash(u32, u64),
        /// `protocols_mut()` un-finishing a node.
        Unfinish(u32, u64),
        /// `*faults_mut() = plan`: wholesale replacement by a clone that
        /// crashed one more node.
        Replace(u32, u64),
    }

    struct Case {
        positions: Vec<Point>,
        protocols: Vec<Probe>,
        faults: FaultPlan,
        /// Pool workers the engine runs on: one resolves every channel
        /// as a single unit, two shard the channels big enough.
        workers: usize,
        slots: u64,
        script: Vec<(u64, Op)>,
    }

    /// A quarter of the cases are *wide*: up to 640 nodes on one channel,
    /// so that channel-slots with a full lane of transmitters and a full
    /// lane of listeners — the resolver's widest Exact batches — are
    /// common. A sixteenth are *crowded*: 1000–1600 nodes on one
    /// channel, every one acting every slot, on two workers, so that the
    /// channel carries the work ([`crate::shard::unit_grid`]) for which it
    /// is bucketed into shard units. The rest spread at most 64 nodes over
    /// 1–4 channels.
    fn case(seed: u64) -> Case {
        let mut g = SmallRng::seed_from_u64(seed);
        let kind = g.gen_range(0..16u8);
        let (n, channels) = match kind {
            0 => (g.gen_range(1000..=1600usize), 1),
            1..=4 => (g.gen_range(65..=640usize), 1),
            _ => (g.gen_range(1..=64usize), g.gen_range(1..=4u16)),
        };
        // Crowded runs are the costly ones, and sharding needs no depth.
        let slots = g.gen_range(30..=if kind == 0 { 40 } else { 120u64 });
        let side = (n as f64).sqrt() * g.gen_range(0.5..3.0);
        let point = |g: &mut SmallRng| Point::new(g.gen_range(0.0..side), g.gen_range(0.0..side));
        let positions: Vec<Point> = (0..n).map(|_| point(&mut g)).collect();
        let phi = if kind == 0 { 1 } else { g.gen_range(1..=5u64) };
        let spr = g.gen_range(1..=3u64);
        let protocols = (0..n)
            .map(|_| Probe {
                phi,
                spr,
                colour: g.gen_range(0..phi),
                channels,
                finish_at: g.gen_range(0..slots * 3 / 2),
                done: false,
                hints: g.gen_bool(0.7),
                stands: g.gen_bool(0.7),
                wait: None,
                digest: 0,
            })
            .collect();
        let node = |g: &mut SmallRng| g.gen_range(0..n as u32);
        let schedule = |g: &mut SmallRng| {
            let period = g.gen_range(1..=8u64);
            SleepSchedule {
                period,
                on: g.gen_range(0..=period),
                phase: g.gen_range(0..16),
            }
        };
        let mut faults = FaultPlan::none();
        for _ in 0..n / 6 {
            faults.crash_at(node(&mut g), g.gen_range(0..slots));
            faults.join_at(node(&mut g), g.gen_range(0..slots));
            faults.sleep(node(&mut g), schedule(&mut g));
        }
        if g.gen_bool(0.5) {
            faults.jam(JamSpec::Fixed {
                channel: g.gen_range(0..channels),
                from: g.gen_range(0..slots),
                to: slots,
                power: g.gen_range(0.0..0.01),
            });
        }
        if g.gen_bool(0.5) {
            faults.jam(JamSpec::Random {
                t: 1,
                total: channels,
                power: g.gen_range(0.0..0.01),
                seed: g.gen(),
            });
        }
        faults.zone_jam(ZoneJam {
            center: point(&mut g),
            radius: side / 3.0,
            channel: g.gen_bool(0.5).then(|| g.gen_range(0..channels)),
            from: g.gen_range(0..slots),
            to: slots,
        });
        let script = (0..g.gen_range(0..12))
            .map(|_| {
                let at = g.gen_range(0..slots);
                let later = at + g.gen_range(0..20u64);
                let op = match g.gen_range(0..7u8) {
                    0 => Op::Crash(node(&mut g), later),
                    1 => Op::Join(node(&mut g), later),
                    2 => Op::Sleep(node(&mut g), schedule(&mut g)),
                    3 => Op::Env(
                        node(&mut g),
                        point(&mut g),
                        g.gen_range(0..channels),
                        if g.gen_bool(0.5) {
                            ChannelCondition::interfered(g.gen_range(0.0..0.01))
                        } else {
                            ChannelCondition::dropped(g.gen_range(0.0..0.01))
                        },
                    ),
                    4 => Op::EnvCrash(node(&mut g), later),
                    5 => Op::Unfinish(node(&mut g), later),
                    _ => Op::Replace(node(&mut g), later),
                };
                (at, op)
            })
            .collect();
        Case {
            positions,
            protocols,
            faults,
            workers: if kind == 0 || g.gen_bool(0.5) { 2 } else { 1 },
            slots,
            script,
        }
    }

    fn apply(op: &Op, e: &mut Engine<Probe>, r: &mut ReferenceEngine<Probe>) {
        match *op {
            Op::Crash(node, at) => {
                e.faults_mut().crash_at(node, at);
                r.faults.crash_at(node, at);
            }
            Op::Join(node, at) => {
                e.faults_mut().join_at(node, at);
                r.faults.join_at(node, at);
            }
            Op::Sleep(node, schedule) => {
                e.faults_mut().sleep(node, schedule);
                r.faults.sleep(node, schedule);
            }
            Op::Env(node, to, ch, cond) => {
                let (positions, conditions, faults) = e.env_parts();
                for (positions, conditions, faults) in [
                    (positions, conditions, faults),
                    (&mut r.positions[..], &mut r.conditions, &mut r.faults),
                ] {
                    positions[node as usize] = to;
                    conditions.resize(ch as usize + 1, ChannelCondition::CLEAR);
                    conditions[ch as usize] = cond;
                    faults.zone_jams_mut()[0].center = to;
                }
            }
            Op::EnvCrash(node, at) => {
                e.env_parts().2.crash_at(node, at);
                r.faults.crash_at(node, at);
            }
            Op::Unfinish(node, finish_at) => {
                for p in [
                    &mut e.protocols_mut()[node as usize],
                    &mut r.protocols[node as usize],
                ] {
                    p.done = false;
                    p.finish_at = finish_at;
                }
            }
            Op::Replace(node, at) => {
                let mut plan = r.faults.clone();
                plan.crash_at(node, at);
                *e.faults_mut() = plan.clone();
                r.faults = plan;
            }
        }
    }

    /// Whole runs of the roster/wake-queue/standing-list engine against
    /// the poll-everyone oracle: equal metrics and equal detection
    /// streams after every slot (the detector samples in listener order,
    /// so event order within a slot is compared), equal final protocol
    /// states, equal per-node RNG states and equal per-channel outcome
    /// streams. One run per proptest case (`PROPTEST_CASES` deepens it),
    /// on the pool width the case pins, so which channels shard follows
    /// from the case alone and not from the host's core count; a plain
    /// loop, because the run as a whole owes five more things:
    /// it must have reached channel-slots with at least a lane of
    /// transmitters *and* a lane of listeners, channel-slots big enough
    /// to be bucketed into shard units (a `Halo` span each), so that
    /// sharding after a scripted move is part of what is compared, parks
    /// beyond the wake wheel (8 slots in this build), so that the
    /// overflow heap and the migration out of it are, slots that
    /// resolve two channels or more, so that several channels' ranges
    /// share the staging arena, and a slot that drained two detection
    /// events or more, so that their order is.
    #[test]
    fn reference_oracle_matches_the_active_set_engine() {
        let (mut full_lane_channel_slots, mut sharded_units, mut parks_far) = (0, 0, 0);
        let (mut shared_arena_slots, mut ordered_detection_slots) = (0, 0);
        for i in 0..u64::from(ProptestConfig::default().cases) {
            let seed: u64 = proptest::test_rng(i).gen();
            let c = case(seed);
            crate::engine::tests::with_workers(c.workers, || {
                let params = SinrParams::default();
                let mut e = Engine::new(params, c.positions.clone(), c.protocols.clone(), seed)
                    .with_faults(c.faults.clone());
                let n = c.positions.len();
                e.attach_detector(DegradationDetector::new(n, DetectorConfig::default()));
                e.attach_obs(mca_obs::Recorder::new());
                let mut r = ReferenceEngine::new(params, c.positions, c.protocols, seed);
                r.faults = c.faults;
                r.detector = Some(DegradationDetector::new(n, DetectorConfig::default()));
                for slot in 0..c.slots {
                    for (_, op) in c.script.iter().filter(|(at, _)| *at == slot) {
                        apply(op, &mut e, &mut r);
                    }
                    e.step();
                    r.step();
                    assert_eq!(e.metrics(), &r.metrics, "seed {seed} slot {slot}");
                    let detected = e.drain_detections();
                    let owed = r.detector.as_mut().expect("attached above").drain();
                    assert_eq!(detected, owed, "seed {seed} slot {slot}");
                    ordered_detection_slots += usize::from(detected.len() >= 2);
                }
                assert_eq!(e.protocols(), &r.protocols[..], "seed {seed}");
                assert_eq!(e.rngs(), &r.rngs[..], "seed {seed}");
                let rec = e.obs().expect("attached above");
                assert_eq!(rec.channel_records(), &r.channel_records[..], "seed {seed}");
                let halos = rec.spans().iter().filter(|s| s.kind == SpanKind::Halo);
                sharded_units += halos.count();
                let far = rec.counters().into_iter().find(|(k, _)| *k == "parks_far");
                parks_far += far.map_or(0, |(_, v)| v);
                let lane = mca_sinr::lanes::LANE_WIDTH as u32;
                full_lane_channel_slots += r
                    .channel_records
                    .iter()
                    .filter(|c| c.tx >= lane && c.listens >= lane)
                    .count();
                shared_arena_slots += r
                    .channel_records
                    .chunk_by(|a, b| a.slot == b.slot)
                    .filter(|slot| slot.iter().filter(|c| c.tx > 0 && c.listens > 0).count() >= 2)
                    .count();
            });
        }
        assert!(
            full_lane_channel_slots > 0,
            "no case resolved a full lane of listeners against a full lane of transmitters"
        );
        assert!(
            sharded_units > 0,
            "no case bucketed a channel into shard units"
        );
        assert!(parks_far > 0, "no case parked a node beyond the wake wheel");
        assert!(
            shared_arena_slots > 0,
            "no case resolved two channels in one slot"
        );
        assert!(
            ordered_detection_slots > 0,
            "no slot drained two detection events"
        );
    }

    /// A [`Probe`] that stretches its promises: quiet through its next
    /// block, or waiting one slot past the end of its wait.
    #[derive(Clone, Debug)]
    struct Liar(Probe);

    impl Protocol for Liar {
        type Msg = u64;
        fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<u64> {
            self.0.act(slot, rng)
        }
        fn observe(&mut self, slot: u64, obs: Observation<u64>, rng: &mut SmallRng) {
            self.0.observe(slot, obs, rng)
        }
        fn quiet_until(&self, slot: u64) -> Option<u64> {
            self.0
                .quiet_until(slot)
                .map(|t| t + self.0.phi * self.0.spr)
        }
        fn listen_until(&self, slot: u64) -> Option<(Channel, u64)> {
            self.0.listen_until(slot).map(|(c, t)| (c, t + 1))
        }
    }

    #[test]
    fn reference_hint_harness_accepts_the_probe_and_rejects_a_liar() {
        let probe = |hints, stands| Probe {
            phi: 3,
            spr: 2,
            colour: 1,
            channels: 2,
            finish_at: 150,
            done: false,
            hints,
            stands,
            wait: None,
            digest: 0,
        };
        let feed = |_: u64, _: &Action<u64>, g: &mut SmallRng| {
            let msg = g.gen();
            random_observation(g, 4, msg)
        };
        for seed in 0..16 {
            assert_hints_sound(probe(true, true), seed, 200, feed);
        }
        // One lie at a time: the other hint is switched off.
        for (hints, stands, lie) in [(true, false, "quiet"), (false, true, "listen")] {
            let lied = std::panic::catch_unwind(|| {
                assert_hints_sound(Liar(probe(hints, stands)), 1, 200, feed);
            });
            assert!(lied.is_err(), "a {lie} promise past its end must fail");
        }
    }

    /// A φ = 4 TDMA with one-slot blocks: every node acts in its block and
    /// promises quiet until the next one, so after the first slot (which
    /// polls everyone) a node is polled once per block — in the slot it
    /// acts, where it is asked `quiet_until` right after its `Sent` or
    /// listen outcome, not again in the slot after only to idle. Metrics,
    /// end states and RNG states are the poll-everyone engine's on any
    /// pool width.
    #[test]
    fn reference_tdma_node_is_polled_once_per_block() {
        const PHI: u64 = 4;
        let mut g = SmallRng::seed_from_u64(5);
        let n = 40;
        let positions: Vec<Point> = (0..n)
            .map(|_| Point::new(g.gen_range(0.0..6.0), g.gen_range(0.0..6.0)))
            .collect();
        let protocols: Vec<Probe> = (0..n)
            .map(|v| Probe {
                phi: PHI,
                spr: 1,
                colour: v % PHI,
                channels: 2,
                finish_at: u64::MAX,
                done: false,
                hints: true,
                stands: false,
                wait: None,
                digest: 0,
            })
            .collect();
        let slots = 4 * PHI;
        let owed: u64 = (0..slots)
            .map(|slot| {
                let acting = protocols.iter().filter(|p| slot == 0 || p.in_block(slot));
                acting.count() as u64
            })
            .sum();
        for workers in [1, 2, 8] {
            crate::engine::tests::with_workers(workers, || {
                let params = SinrParams::default();
                let mut e = Engine::new(params, positions.clone(), protocols.clone(), 9);
                e.attach_obs(mca_obs::Recorder::new());
                let mut r = ReferenceEngine::new(params, positions.clone(), protocols.clone(), 9);
                e.run(slots);
                for _ in 0..slots {
                    r.step();
                }
                assert!(e.metrics().transmissions > 0 && e.metrics().listens > 0);
                assert_eq!(e.metrics(), &r.metrics, "{workers} workers");
                assert_eq!(e.protocols(), &r.protocols[..], "{workers} workers");
                assert_eq!(e.rngs(), &r.rngs[..], "{workers} workers");
                let rec = e.obs().expect("attached above");
                let counters = rec.counters().into_iter();
                let polled = counters
                    .filter(|(k, _)| *k == "nodes_polled")
                    .map(|(_, v)| v);
                assert_eq!(polled.sum::<u64>(), owed, "{workers} workers");
            });
        }
    }

    #[test]
    fn reference_node_reenabled_after_being_dropped_is_polled_again() {
        let probe = Probe {
            phi: 1,
            spr: 1,
            colour: 0,
            channels: 1,
            finish_at: 0,
            done: false,
            hints: true,
            stands: true,
            wait: None,
            digest: 0,
        };
        let mut e = Engine::new(
            SinrParams::default(),
            vec![Point::ORIGIN, Point::new(1.0, 0.0)],
            vec![probe.clone(), probe],
            3,
        );
        e.run(4);
        assert!(e.all_done(), "both finish in slot 0 and are dropped");
        let busy = |e: &Engine<Probe>| e.metrics().transmissions + e.metrics().listens;
        let (before, digest) = (busy(&e), e.protocols()[1].digest);
        let node = &mut e.protocols_mut()[1];
        node.done = false;
        node.finish_at = 40;
        e.run(30);
        assert!(!e.all_done());
        assert!(busy(&e) > before, "the revived node acts again");
        assert_ne!(e.protocols()[1].digest, digest, "and observes again");
        assert_eq!(e.metrics().idles + busy(&e), 2 * e.metrics().slots);
    }
}
