//! The synchronous multi-channel simulation engine.
//!
//! One [`Engine::step`] is one slot: every live node picks an action
//! (transmit/listen/idle on a channel of its choice); the engine resolves
//! each channel independently under the SINR rule and hands every node its
//! observation. Nodes on different channels never interact — the defining
//! property of the multi-channel model.
//!
//! [`Engine`] is a generic shell over the non-generic [`SlotCore`]: per
//! protocol type it compiles only the `act` and `observe` loops and the two
//! hint calls; everything in between runs in the core's phases.

use crate::condition::ChannelCondition;
use crate::detect::{DegradationDetector, DetectionEvent};
use crate::events::{EventWatch, NodeEvent};
use crate::fault::FaultPlan;
use crate::ids::{Channel, NodeId};
use crate::message::{Action, Observation};
use crate::metrics::Metrics;
use crate::node::Protocol;
use crate::rng::derive_rng;
use crate::slot::{Hints, SlotCore};
use mca_geom::Point;
use mca_sinr::SinrParams;
use rand::rngs::SmallRng;

/// The simulation engine driving one protocol instance per node.
///
/// # Examples
///
/// ```
/// use mca_radio::{Action, Channel, Engine, Observation, Protocol};
/// use mca_geom::Point;
/// use mca_sinr::SinrParams;
/// use rand::rngs::SmallRng;
///
/// struct Beacon { heard: bool, id: u32 }
/// impl Protocol for Beacon {
///     type Msg = u32;
///     fn act(&mut self, _s: u64, _r: &mut SmallRng) -> Action<u32> {
///         if self.id == 0 {
///             Action::Transmit { channel: Channel::FIRST, msg: 7 }
///         } else {
///             Action::Listen { channel: Channel::FIRST }
///         }
///     }
///     fn observe(&mut self, _s: u64, obs: Observation<u32>, _r: &mut SmallRng) {
///         if obs.reception().is_some() { self.heard = true; }
///     }
/// }
///
/// let positions = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
/// let protocols = vec![Beacon { heard: false, id: 0 }, Beacon { heard: false, id: 1 }];
/// let mut engine = Engine::new(SinrParams::default(), positions, protocols, 42);
/// engine.step();
/// assert!(engine.protocols()[1].heard);
/// ```
pub struct Engine<P: Protocol> {
    protocols: Vec<P>,
    rngs: Vec<SmallRng>,
    /// This slot's transmitted messages, in act (ascending node) order —
    /// a transmitter's action record in the core holds the index of its
    /// own. Emptied by the act loop; room for `n` from the start.
    msgs: Vec<P::Msg>,
    core: SlotCore,
}

/// `p`'s [`Protocol::listen_until`] answer at `slot`, kept only if `p` is
/// not done and the window reaches past the next slot; the core decides
/// whether the plan lets the node stand ([`crate::slot::Hints`]).
fn listen_hint<P: Protocol>(p: &P, slot: u64) -> Option<(Channel, u64)> {
    p.listen_until(slot)
        .filter(|&(_, until)| until > slot + 1 && !p.is_done())
}

/// `p`'s [`Protocol::quiet_until`] answer at `slot`, kept only if the
/// window reaches past the next slot.
fn quiet_hint<P: Protocol>(p: &P, slot: u64) -> Option<u64> {
    p.quiet_until(slot).filter(|&t| t > slot + 1)
}

impl<P: Protocol> Engine<P> {
    /// Creates an engine over `positions` with one protocol per node.
    ///
    /// Each node receives an independent RNG stream derived from
    /// `master_seed`, so a run is a pure function of
    /// `(params, positions, protocols, master_seed, faults)`.
    ///
    /// # Panics
    ///
    /// Panics if `positions` and `protocols` differ in length.
    pub fn new(
        params: SinrParams,
        positions: Vec<Point>,
        protocols: Vec<P>,
        master_seed: u64,
    ) -> Self {
        assert_eq!(
            positions.len(),
            protocols.len(),
            "one protocol per position required"
        );
        let rngs = (0..positions.len())
            .map(|i| derive_rng(master_seed, i as u64))
            .collect();
        Engine {
            protocols,
            rngs,
            msgs: Vec::with_capacity(positions.len()),
            core: SlotCore::new(params, positions),
        }
    }

    /// Installs a fault plan (builder-style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.core.faults = faults;
        self.core.roster.stale = true;
        self
    }

    // This and the next two are kept only because the frozen `benchmark/`
    // crate calls them; removed when the benchmark is next re-baselined.
    // The engine derives each channel's shard grid itself
    // (`shard::unit_grid`).
    #[doc(hidden)]
    pub fn with_par_channels(self, _par: bool) -> Self {
        self
    }

    #[doc(hidden)]
    pub fn with_shards(self, _s: u16) -> Self {
        self
    }

    #[doc(hidden)]
    pub fn with_par_shards(self, _par: bool) -> Self {
        self
    }

    /// The fault plan in force.
    pub fn faults(&self) -> &FaultPlan {
        &self.core.faults
    }

    /// Mutable access to the fault plan — lets an environment model inject
    /// churn (crashes, late joins) while the run is in progress.
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.core.faults
    }

    /// The dynamic per-channel conditions (empty = every channel clear).
    pub fn channel_conditions(&self) -> &[ChannelCondition] {
        &self.core.conditions
    }

    /// Split borrow of everything a dynamic environment may mutate between
    /// slots: node positions, per-channel conditions (index `i` governs
    /// channel `i`; channels past the end of the vector are clear), and the
    /// fault plan. One call, so an environment model can hold all three at
    /// once.
    pub fn env_parts(&mut self) -> (&mut [Point], &mut Vec<ChannelCondition>, &mut FaultPlan) {
        let core = &mut self.core;
        (&mut core.positions, &mut core.conditions, &mut core.faults)
    }

    /// Starts watching node lifecycle transitions: every subsequent
    /// [`Engine::step`] detects crashes, joins, and motion beyond
    /// `move_threshold` (Euclidean drift from the last reported anchor) and
    /// queues them as [`NodeEvent`]s for [`Engine::drain_events`].
    ///
    /// Presence is anchored at the current slot, so only transitions *after*
    /// the call are reported — a maintainer that bootstrapped its own view
    /// of the initial world sees exactly the changes it missed.
    ///
    /// # Panics
    ///
    /// Panics if `move_threshold` is not positive and finite.
    pub fn watch_events(&mut self, move_threshold: f64) {
        self.core.watch_events(move_threshold);
    }

    /// Takes all [`NodeEvent`]s queued since the last drain (empty unless
    /// [`Engine::watch_events`] was enabled). Events appear in observation
    /// order: by slot, and within a slot by node id.
    pub fn drain_events(&mut self) -> Vec<NodeEvent> {
        let watch = self.core.watch.as_mut();
        watch.map(EventWatch::drain).unwrap_or_default()
    }

    /// Attaches a SINR degradation detector: every subsequent
    /// [`Engine::step`] folds each contested listen outcome (a listen on a
    /// channel with at least one transmitter) into the detector's per-node
    /// health scores, queueing [`DetectionEvent`]s for
    /// [`Engine::drain_detections`]. Detection is observation only —
    /// outcomes, metrics, and RNG draws are bit-identical with or without
    /// a detector attached.
    ///
    /// # Panics
    ///
    /// Panics if `detector` was built for a node count other than the
    /// engine's.
    pub fn attach_detector(&mut self, detector: DegradationDetector) {
        assert!(
            detector.nodes() == self.len(),
            "a degradation detector over {} nodes cannot watch a {}-node engine",
            detector.nodes(),
            self.len()
        );
        self.core.detector = Some(detector);
    }

    /// Takes all [`DetectionEvent`]s queued since the last drain (empty
    /// unless a detector is attached).
    pub fn drain_detections(&mut self) -> Vec<DetectionEvent> {
        let detector = self.core.detector.as_mut();
        detector.map(DegradationDetector::drain).unwrap_or_default()
    }

    /// Attaches an observability recorder: every subsequent
    /// [`Engine::step`] records per-phase spans (gather, staging, each
    /// (channel × shard) resolve unit with its halo construction, merge,
    /// delivery, event drain), a per-channel outcome record per active
    /// channel, and counters. Recording is observation
    /// only: trial outcomes are bit-identical with or without a recorder,
    /// under any execution schedule.
    pub fn attach_obs(&mut self, rec: mca_obs::Recorder) {
        self.core.obs = Some(rec);
    }

    /// The observability recorder, if one is attached.
    pub fn obs(&self) -> Option<&mca_obs::Recorder> {
        self.core.obs.as_ref()
    }

    /// Mutable access to the attached observability recorder.
    pub fn obs_mut(&mut self) -> Option<&mut mca_obs::Recorder> {
        self.core.obs.as_mut()
    }

    /// Detaches and returns the observability recorder.
    pub fn take_obs(&mut self) -> Option<mca_obs::Recorder> {
        self.core.obs.take()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.protocols.len()
    }

    /// Whether the engine has no nodes.
    pub fn is_empty(&self) -> bool {
        self.protocols.is_empty()
    }

    /// The global slot counter (slots executed so far).
    pub fn slot(&self) -> u64 {
        self.core.slot
    }

    /// Node positions.
    pub fn positions(&self) -> &[Point] {
        &self.core.positions
    }

    /// Mutable node positions — mobility models move nodes between slots.
    /// The SINR layer reads positions fresh every slot, so moving a node
    /// takes effect at the next [`Engine::step`].
    pub fn positions_mut(&mut self) -> &mut [Point] {
        &mut self.core.positions
    }

    /// Run metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// The per-node protocol states.
    pub fn protocols(&self) -> &[P] {
        &self.protocols
    }

    /// Mutable access to protocol states (for harness-driven phase
    /// stitching). The caller may un-finish a node or void a
    /// [`Protocol::quiet_until`] or [`Protocol::listen_until`] promise, so
    /// the next slot polls every node again.
    pub fn protocols_mut(&mut self) -> &mut [P] {
        self.core.roster.stale = true;
        &mut self.protocols
    }

    /// Consumes the engine, returning the protocol states.
    pub fn into_protocols(self) -> Vec<P> {
        self.protocols
    }

    /// Whether every node's protocol reports done.
    pub fn all_done(&self) -> bool {
        self.protocols.iter().all(|p| p.is_done())
    }

    /// Executes one slot: the core's phases in order, with `act` after
    /// `open` and `observe` after `book` — the only two places a protocol
    /// is called. Booking every channel before observing any is
    /// bit-identical to delivering channel by channel: each node observes
    /// at most once per slot, with its own RNG stream, its hint moves only
    /// its own roster entry, and `book` reads no protocol, RNG or roster
    /// state an `observe` or a hint writes.
    pub fn step(&mut self) {
        self.core.open();
        self.act();
        self.core.group();
        self.core.stage();
        self.core.resolve();
        self.core.book();
        self.observe();
        self.core.admit();
        self.core.close();
    }

    /// Phase 1: asks every roster node that can act for its action, in
    /// ascending id order (which fixes each channel's transmitter order).
    /// Whoever is not on the roster idles or listens on its standing
    /// channel without being asked. A node that is not asked leaves the
    /// roster, so its action record is never read this slot.
    fn act(&mut self) {
        let Engine {
            protocols,
            rngs,
            msgs,
            core,
        } = self;
        let slot = core.slot;
        msgs.clear();
        let mut kept = 0;
        for r in 0..core.roster.live.len() {
            let node = core.roster.live[r];
            let i = node as usize;
            // A node that is done now gets no call that could undo it.
            if protocols[i].is_done() || !core.poll(node) {
                continue;
            }
            core.roster.live[kept] = node;
            kept += 1;
            match protocols[i].act(slot, &mut rngs[i]) {
                Action::Transmit { channel, msg } => {
                    core.sends(channel, node);
                    msgs.push(msg);
                }
                Action::Listen { channel } => core.listens(channel, node),
                Action::Idle => core.idles(node),
            }
        }
        core.roster.live.truncate(kept);
    }

    /// The protocol half of delivery, once every channel is booked: in
    /// ascending channel order, each listener is handed its booked outcome
    /// and each transmitter its `Sent`, and each node is asked
    /// [`Protocol::listen_until`] right after. A polled node that is not
    /// done and leaves no standing window is asked
    /// [`Protocol::quiet_until`] next, and a quiet window parks it in the
    /// wake queue at once: a TDMA node that acts in one slot of its block
    /// is not polled again the next slot only to idle and promise it. Then
    /// every polled node that idled and is not done gets `Slept` and is
    /// asked `quiet_until` the same way; a slot in which no polled node
    /// idled skips that pass in O(1).
    fn observe(&mut self) {
        let Engine {
            protocols,
            rngs,
            msgs,
            core,
        } = self;
        let slot = core.slot;
        let (channels, mut hints) = core.deliveries();
        // Hands `node` its observation, then files its `listen_until`, or
        // for a polled node with none, its `quiet_until`.
        let mut tell = |hints: &mut Hints, node: u32, obs, stood: Option<u16>| {
            let i = node as usize;
            let p = &mut protocols[i];
            p.observe(slot, obs, &mut rngs[i]);
            let hint = listen_hint(p, slot);
            if hint.is_some() || stood.is_some() {
                hints.file(node, stood, hint);
            } else if let Some(until) = quiet_hint(p, slot).filter(|_| !p.is_done()) {
                // Asked before `is_done`, so a protocol that never promises
                // quiet pays nothing here.
                hints.roster.leave(node, until);
            }
        };
        for d in channels {
            for (&li, outcome) in d.rx.iter().zip(d.outcomes) {
                // A standing listener is told only what it waits for, and
                // stays only if it goes on waiting for the same.
                let stands = hints.roster.stands(li);
                if stands && outcome.decoded.is_none() {
                    continue;
                }
                let obs = Observation::from_outcome(outcome, |j| {
                    let (from, msg) = d.sender(j);
                    (NodeId(from), msgs[msg].clone())
                });
                tell(&mut hints, li, obs, stands.then_some(d.ch));
            }
            // A silent channel's polled listeners sense what it carries; the
            // standing ones promised it changes nothing.
            let total_power = d.silence;
            for &li in d.rx.iter().filter(|_| d.outcomes.is_empty()) {
                tell(&mut hints, li, Observation::Noise { total_power }, None);
            }
            // Transmitters learn nothing.
            for &ti in d.tx {
                tell(&mut hints, ti, Observation::Sent, None);
            }
        }
        // Idlers sleep. `Slept` hangs on the node's own action, state and
        // RNG stream alone, so it may come after every channel's delivery.
        for r in 0..core.idler_scan() {
            let Some(node) = core.idler(r) else { continue };
            let i = node as usize;
            let p = &mut protocols[i];
            if p.is_done() {
                continue;
            }
            p.observe(slot, Observation::Slept, &mut rngs[i]);
            if let Some(until) = quiet_hint(p, slot) {
                core.roster.leave(node, until);
            }
        }
    }

    /// Executes exactly `slots` slots.
    pub fn run(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step();
        }
    }

    /// Steps until every protocol is done or `max_slots` is reached.
    /// Returns `true` if all protocols finished.
    pub fn run_until_done(&mut self, max_slots: u64) -> bool {
        while self.core.slot < max_slots {
            if self.all_done() {
                return true;
            }
            self.step();
        }
        self.all_done()
    }

    /// Steps until `pred(protocols)` holds or `max_slots` is reached.
    /// Returns `true` if the predicate became true.
    pub fn run_until<F: FnMut(&[P]) -> bool>(&mut self, max_slots: u64, mut pred: F) -> bool {
        while self.core.slot < max_slots {
            if pred(&self.protocols) {
                return true;
            }
            self.step();
        }
        pred(&self.protocols)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::{JamSpec, ZoneJam};
    use mca_obs::SpanKind;

    impl<P: Protocol> Engine<P> {
        /// The per-node RNG streams (for the oracle comparison).
        pub(crate) fn rngs(&self) -> &[SmallRng] {
            &self.rngs
        }

        /// The slot machinery, for the tests that read its arenas.
        pub(crate) fn core(&self) -> &SlotCore {
            &self.core
        }

        /// The last slot's transmitted messages, for the same tests.
        pub(crate) fn msgs(&self) -> &Vec<P::Msg> {
            &self.msgs
        }
    }

    /// Runs `f` with the pool pinned to `workers` threads, then restores
    /// the automatic width. The width is process-global and steers the
    /// shard grid, so tests that pin it, or read the grid it yields, take
    /// turns.
    pub(crate) fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
        static POOL_CONFIG: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _turn = POOL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
        rayon::set_num_threads(workers);
        let out = f();
        rayon::set_num_threads(0);
        out
    }

    /// Transmits `msg` on `channel` in every slot.
    struct Talker {
        channel: Channel,
        msg: u32,
    }
    impl Protocol for Talker {
        type Msg = u32;
        fn act(&mut self, _s: u64, _r: &mut SmallRng) -> Action<u32> {
            Action::Transmit {
                channel: self.channel,
                msg: self.msg,
            }
        }
        fn observe(&mut self, _s: u64, obs: Observation<u32>, _r: &mut SmallRng) {
            assert!(
                matches!(obs, Observation::Sent),
                "transmitters learn nothing"
            );
        }
    }

    /// Listens on `channel`, recording every decode.
    struct Ear {
        channel: Channel,
        heard: Vec<(NodeId, u32)>,
        noise_slots: u32,
    }
    impl Ear {
        fn new(channel: Channel) -> Self {
            Ear {
                channel,
                heard: Vec::new(),
                noise_slots: 0,
            }
        }
    }
    impl Protocol for Ear {
        type Msg = u32;
        fn act(&mut self, _s: u64, _r: &mut SmallRng) -> Action<u32> {
            Action::Listen {
                channel: self.channel,
            }
        }
        fn observe(&mut self, _s: u64, obs: Observation<u32>, _r: &mut SmallRng) {
            match obs {
                Observation::Received(r) => self.heard.push((r.from, r.msg)),
                Observation::Noise { .. } => self.noise_slots += 1,
                _ => {}
            }
        }
    }

    /// Either Talker or Ear — engines are homogeneous in `P`.
    enum Role {
        Talk(Talker),
        Hear(Ear),
    }
    impl Protocol for Role {
        type Msg = u32;
        fn act(&mut self, s: u64, r: &mut SmallRng) -> Action<u32> {
            match self {
                Role::Talk(t) => t.act(s, r),
                Role::Hear(e) => e.act(s, r),
            }
        }
        fn observe(&mut self, s: u64, obs: Observation<u32>, r: &mut SmallRng) {
            match self {
                Role::Talk(t) => t.observe(s, obs, r),
                Role::Hear(e) => e.observe(s, obs, r),
            }
        }
    }

    fn two_node_setup(listener_channel: Channel) -> Engine<Role> {
        let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 99,
            }),
            Role::Hear(Ear::new(listener_channel)),
        ];
        Engine::new(SinrParams::default(), positions, protocols, 7)
    }

    #[test]
    fn same_channel_delivers() {
        let mut e = two_node_setup(Channel::FIRST);
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard, vec![(NodeId(0), 99)]),
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().receptions, 1);
        assert_eq!(e.metrics().transmissions, 1);
    }

    #[test]
    fn cross_channel_isolated() {
        // Listener on channel 1 hears nothing from a channel-0 transmitter —
        // not even noise (channels are non-overlapping).
        let mut e = two_node_setup(Channel(1));
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => {
                assert!(ear.heard.is_empty());
                assert_eq!(ear.noise_slots, 1);
            }
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().silent_listens, 1);
    }

    #[test]
    fn collision_blocks_decoding() {
        let positions = vec![
            Point::new(-2.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 0.0),
        ];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 1,
            }),
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 2,
            }),
            Role::Hear(Ear::new(Channel::FIRST)),
        ];
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7);
        e.step();
        match &e.protocols()[2] {
            Role::Hear(ear) => assert!(ear.heard.is_empty(), "equidistant colliders must jam"),
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().busy_failures, 1);
    }

    #[test]
    fn crashed_node_is_silent() {
        let mut e = two_node_setup(Channel::FIRST);
        let mut faults = FaultPlan::none();
        faults.crash_at(0, 0);
        e = Engine::new(
            SinrParams::default(),
            e.positions().to_vec(),
            vec![
                Role::Talk(Talker {
                    channel: Channel::FIRST,
                    msg: 99,
                }),
                Role::Hear(Ear::new(Channel::FIRST)),
            ],
            7,
        )
        .with_faults(faults);
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => assert!(ear.heard.is_empty()),
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().transmissions, 0);
    }

    #[test]
    fn jamming_kills_marginal_link() {
        // Transmitter at distance 6 of R_T=8: decodes fine without jamming,
        // fails under a strong jammer.
        let positions = vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0)];
        let mk = || {
            vec![
                Role::Talk(Talker {
                    channel: Channel::FIRST,
                    msg: 5,
                }),
                Role::Hear(Ear::new(Channel::FIRST)),
            ]
        };
        let mut clean = Engine::new(SinrParams::default(), positions.clone(), mk(), 7);
        clean.step();
        match &clean.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard.len(), 1),
            _ => unreachable!(),
        }

        let mut faults = FaultPlan::none();
        faults.jam(JamSpec::Fixed {
            channel: 0,
            from: 0,
            to: 100,
            power: 1000.0,
        });
        let mut jammed = Engine::new(SinrParams::default(), positions, mk(), 7).with_faults(faults);
        jammed.step();
        match &jammed.protocols()[1] {
            Role::Hear(ear) => assert!(ear.heard.is_empty()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn late_join_keeps_node_silent_until_slot() {
        let mut faults = FaultPlan::none();
        faults.join_at(0, 3);
        let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 42,
            }),
            Role::Hear(Ear::new(Channel::FIRST)),
        ];
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7).with_faults(faults);
        e.run(3);
        match &e.protocols()[1] {
            Role::Hear(ear) => assert!(ear.heard.is_empty(), "talker not yet joined"),
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().transmissions, 0);
        e.step(); // slot 3: joined
        match &e.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard, vec![(NodeId(0), 42)]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn channel_condition_interference_kills_marginal_link() {
        // Same geometry as the jamming test: distance 6 of R_T = 8.
        let positions = vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0)];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 5,
            }),
            Role::Hear(Ear::new(Channel::FIRST)),
        ];
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7);
        e.env_parts()
            .1
            .push(crate::ChannelCondition::interfered(1000.0));
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => {
                assert!(ear.heard.is_empty());
                assert_eq!(ear.noise_slots, 1, "interference is sensed, not silent");
            }
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().busy_failures, 1);
        assert_eq!(e.metrics().env_drops, 0);
    }

    #[test]
    fn channel_condition_drop_suppresses_decode() {
        let mut e = two_node_setup(Channel::FIRST);
        e.env_parts().1.push(crate::ChannelCondition::dropped(0.0));
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => {
                assert!(ear.heard.is_empty(), "deep fade drops the decode");
                assert_eq!(ear.noise_slots, 1, "energy still sensed");
            }
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().env_drops, 1);
        // Clearing the condition restores reception.
        e.env_parts().1.clear();
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard, vec![(NodeId(0), 99)]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn moving_a_node_changes_reception() {
        let mut e = two_node_setup(Channel::FIRST);
        // Move the listener far out of range before the first slot.
        e.positions_mut()[1] = Point::new(500.0, 0.0);
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => assert!(ear.heard.is_empty()),
            _ => unreachable!(),
        }
        // Move it back within range.
        e.positions_mut()[1] = Point::new(2.0, 0.0);
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard, vec![(NodeId(0), 99)]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn runtime_crash_injection_via_faults_mut() {
        let mut e = two_node_setup(Channel::FIRST);
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard.len(), 1),
            _ => unreachable!(),
        }
        let next = e.slot();
        e.faults_mut().crash_at(0, next);
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard.len(), 1, "crashed mid-run"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut e = two_node_setup(Channel::FIRST);
            e.run(10);
            match &e.protocols()[1] {
                Role::Hear(ear) => ear.heard.clone(),
                _ => unreachable!(),
            }
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_done_stops_early() {
        struct OneShot {
            sent: bool,
        }
        impl Protocol for OneShot {
            type Msg = ();
            fn act(&mut self, _s: u64, _r: &mut SmallRng) -> Action<()> {
                Action::Idle
            }
            fn observe(&mut self, _s: u64, _o: Observation<()>, _r: &mut SmallRng) {
                self.sent = true;
            }
            fn is_done(&self) -> bool {
                self.sent
            }
        }
        let mut e = Engine::new(
            SinrParams::default(),
            vec![Point::ORIGIN],
            vec![OneShot { sent: false }],
            1,
        );
        assert!(e.run_until_done(100));
        assert!(e.slot() < 100, "should stop well before the cap");
    }

    /// Random multi-channel chatter recording every observation verbatim,
    /// floats included — the payload for bit-identity comparisons. A
    /// `crowd` share of the channel picks lands on channels 0 and 1, the
    /// rest spread over all channels.
    struct Hopper {
        channels: u16,
        crowd: f64,
        heard: Vec<(u64, u32, u64, f64, f64, f64)>,
        noise: Vec<(u64, f64)>,
    }
    impl Protocol for Hopper {
        type Msg = u64;
        fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<u64> {
            use rand::Rng;
            let ch = if rng.gen_bool(self.crowd) {
                Channel(rng.gen_range(0..self.channels.min(2)))
            } else {
                Channel(rng.gen_range(0..self.channels))
            };
            if rng.gen_bool(0.6) {
                Action::Transmit {
                    channel: ch,
                    msg: slot,
                }
            } else {
                Action::Listen { channel: ch }
            }
        }
        fn observe(&mut self, slot: u64, obs: Observation<u64>, _r: &mut SmallRng) {
            match obs {
                Observation::Received(r) => {
                    self.heard
                        .push((slot, r.from.0, r.msg, r.signal, r.sinr, r.total_power))
                }
                Observation::Noise { total_power } => self.noise.push((slot, total_power)),
                _ => {}
            }
        }
    }

    fn hopper_net(n: usize, channels: u16, crowd: f64, params: SinrParams) -> Engine<Hopper> {
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        let side = (n as f64 / 4.0).sqrt() * 2.0;
        let positions: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect();
        let protocols = (0..n)
            .map(|_| Hopper {
                channels,
                crowd,
                heard: Vec::new(),
                noise: Vec::new(),
            })
            .collect();
        Engine::new(params, positions, protocols, 9)
    }

    #[test]
    fn one_schedule_bit_identical_across_threads_shards_and_steal_stress() {
        // 90% of 2400 nodes crowd onto channels 0 and 1 — ~650
        // transmitters × ~430 listeners each, so at two workers or more
        // they shard into a 3×3 grid whose units clear the pooling bar —
        // while channels 2..6 carry a few dozen nodes and stay inline:
        // every slot mixes pooled and inline units. Each threads arm must
        // replay the one-thread (unsharded) run bit-for-bit — including
        // when the stress hook funnels every task through one deque so the
        // other workers only progress by stealing — and every multi-worker
        // arm must really have sharded and used the pool. The capacity
        // change is process-global, but it only steers scheduling, never
        // outcomes, so racing sibling tests stay correct.
        let run = |threads: usize, cap: usize| {
            with_workers(threads, || {
                rayon::set_test_deque_capacity(cap);
                let tasks0 = rayon::pool_stats().tasks;
                let mut e = hopper_net(2400, 6, 0.9, SinrParams::default());
                e.attach_obs(mca_obs::Recorder::new());
                e.run(12);
                let pooled = rayon::pool_stats().tasks > tasks0;
                rayon::set_test_deque_capacity(0);
                let rec = e.obs().expect("attached above");
                let sharded = rec.spans().iter().any(|s| s.kind == SpanKind::Halo);
                let metrics = e.metrics().clone();
                let logs: Vec<_> = e
                    .into_protocols()
                    .into_iter()
                    .map(|h| (h.heard, h.noise))
                    .collect();
                (pooled && sharded, metrics, logs)
            })
        };
        let (_, m_ref, l_ref) = run(1, 0);
        for (threads, cap) in [(1usize, 0usize), (2, 0), (4, 1), (8, 2)] {
            let (pooled, m, l) = run(threads, cap);
            let arm = format!("{threads} threads, deque cap {cap}");
            assert_eq!(m_ref, m, "metrics diverged: {arm}");
            assert_eq!(l_ref, l, "an observation diverged: {arm}");
            assert!(
                threads == 1 || pooled,
                "the pool or the grid was bypassed: {arm}"
            );
        }
    }

    #[test]
    fn fast_resolve_mode_runs_through_the_engine() {
        use mca_sinr::ResolveMode;
        // Dense enough that every channel's transmitter set comfortably
        // exceeds the resolver's grid threshold (16), so the Fast grid
        // path — not its exact-scan fallback — is what runs.
        let mut e = hopper_net(
            400,
            2,
            0.0,
            SinrParams::default().with_resolve(ResolveMode::fast()),
        );
        e.run(50);
        let m = e.metrics();
        let tx_per_channel_slot = m.transmissions as f64 / (m.slots as f64 * 2.0);
        assert!(
            tx_per_channel_slot > 32.0,
            "workload too thin to exercise the grid: {tx_per_channel_slot:.1} tx/channel/slot"
        );
        // The per-slot accounting debug_assert in `step` has already
        // checked reception bookkeeping; sanity-check traffic flowed.
        assert!(m.listens > 0);
        assert!(m.receptions > 0);
    }

    #[test]
    fn sparse_channel_ids_use_dense_groups() {
        // A very large channel id must work (groups vec grows to cover it)
        // and keep delivering.
        let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel(900),
                msg: 5,
            }),
            Role::Hear(Ear::new(Channel(900))),
        ];
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7);
        e.run(3);
        match &e.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard.len(), 3),
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().receptions, 3);

        // Channels 0, 7 and 300 at once: nodes 3 and 6 change role or
        // channel every slot (channel 300 has two transmitters in odd
        // slots), and nodes 2 and 7 stand on channel 7 through slots 1..=5,
        // merging into its polled listener (node 4) whenever node 3
        // transmits there. After every slot each active channel's ranges
        // hold exactly, and in ascending order, the ids the script puts on
        // it — the lists the per-channel vectors used to hold.
        let positions = (0..8).map(|i| Point::new(f64::from(i), 0.0)).collect();
        let protocols = (0..8).map(|id| Scripted { id }).collect();
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7);
        e.attach_obs(mca_obs::Recorder::new());
        for slot in 0..8 {
            e.step();
            let mut owed = std::collections::BTreeMap::<u16, (Vec<u32>, Vec<u32>)>::new();
            for id in 0..8 {
                match Scripted::script(id, slot) {
                    Action::Transmit { channel, .. } => {
                        owed.entry(channel.0).or_default().0.push(id)
                    }
                    Action::Listen { channel } => owed.entry(channel.0).or_default().1.push(id),
                    Action::Idle => {}
                }
            }
            // Off a transmitter's channel a standing listener is not listed.
            let (tx7, rx7) = owed.get_mut(&7).expect("node 4 always listens on 7");
            if tx7.is_empty() && (1..=5).contains(&slot) {
                rx7.retain(|&id| id == 4);
            }
            let lists: Vec<(u16, Vec<u32>, Vec<u32>)> = e
                .core()
                .lists()
                .into_iter()
                .map(|(ch, tx, rx)| (ch, tx.to_vec(), rx.to_vec()))
                .collect();
            for (_, tx, rx) in &lists {
                assert!(tx.is_sorted() && rx.is_sorted(), "slot {slot}: {lists:?}");
            }
            let owed: Vec<_> = owed
                .into_iter()
                .map(|(ch, (tx, rx))| (ch, tx, rx))
                .collect();
            assert_eq!(lists, owed, "slot {slot}");
        }
        let counters = e.obs().unwrap().counters();
        let standing = counters.iter().find(|(k, _)| *k == "nodes_standing");
        assert_eq!(standing, Some(&("nodes_standing", 2 * 5)));
    }

    /// Node `id` of the sparse-channel world ([`Scripted::script`]).
    struct Scripted {
        id: u32,
    }
    impl Scripted {
        fn script(id: u32, slot: u64) -> Action<u32> {
            let even = slot.is_multiple_of(2);
            let (transmit, listen) = (
                |ch| Action::Transmit {
                    channel: Channel(ch),
                    msg: id,
                },
                |ch| Action::Listen {
                    channel: Channel(ch),
                },
            );
            match id {
                0 => transmit(0),
                1 => listen(0),
                2 | 4 | 7 => listen(7),
                3 if even => transmit(7),
                3 => listen(300),
                5 => transmit(300),
                _ if even => listen(300),
                _ => transmit(300),
            }
        }
    }
    impl Protocol for Scripted {
        type Msg = u32;
        fn act(&mut self, slot: u64, _r: &mut SmallRng) -> Action<u32> {
            Scripted::script(self.id, slot)
        }
        fn observe(&mut self, _s: u64, _obs: Observation<u32>, _r: &mut SmallRng) {}
        fn listen_until(&self, slot: u64) -> Option<(Channel, u64)> {
            (matches!(self.id, 2 | 7) && slot < 6).then_some((Channel(7), 6))
        }
    }

    #[test]
    fn watch_surfaces_crash_join_and_motion() {
        let mut faults = FaultPlan::none();
        faults.crash_at(0, 2);
        faults.join_at(1, 3);
        let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 1,
            }),
            Role::Hear(Ear::new(Channel::FIRST)),
        ];
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7).with_faults(faults);
        e.watch_events(1.0);
        e.run(2); // slots 0, 1: no transitions
        assert_eq!(e.drain_events(), vec![]);
        e.step(); // slot 2: node 0 crashes
        assert_eq!(
            e.drain_events(),
            vec![NodeEvent::Crashed {
                node: NodeId(0),
                slot: 2
            }]
        );
        // Move node 1 past the threshold before its join: the Moved event
        // must not fire for an absent node, and the join re-anchors it.
        e.positions_mut()[1] = Point::new(5.0, 0.0);
        e.step(); // slot 3: node 1 joins at its new position
        let events = e.drain_events();
        assert_eq!(
            events,
            vec![NodeEvent::Joined {
                node: NodeId(1),
                slot: 3
            }]
        );
        // Now drift it: one Moved event per threshold crossing.
        e.positions_mut()[1] = Point::new(6.5, 0.0);
        e.step();
        let events = e.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0],
            NodeEvent::Moved {
                node: NodeId(1),
                slot: 4,
                from: Point::new(5.0, 0.0),
                to: Point::new(6.5, 0.0),
            }
        );
        assert_eq!(events[0].node(), NodeId(1));
        assert_eq!(events[0].slot(), 4);
        // Sub-threshold drift stays silent.
        e.positions_mut()[1] = Point::new(6.9, 0.0);
        e.step();
        assert_eq!(e.drain_events(), vec![]);
    }

    #[test]
    fn watch_is_opt_in_and_anchors_at_install() {
        let mut e = two_node_setup(Channel::FIRST);
        e.step();
        assert_eq!(e.drain_events(), vec![], "no watch installed");
        // Install mid-run, then inject a crash: only the post-install
        // transition is reported.
        e.watch_events(0.5);
        let next = e.slot();
        e.faults_mut().crash_at(0, next);
        e.step();
        assert_eq!(
            e.drain_events(),
            vec![NodeEvent::Crashed {
                node: NodeId(0),
                slot: next
            }]
        );
    }

    #[test]
    fn zone_jam_drops_only_inside_blast_radius() {
        // Talker at the origin, one ear in the blast zone, one outside.
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(-2.0, 0.0),
        ];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 9,
            }),
            Role::Hear(Ear::new(Channel::FIRST)),
            Role::Hear(Ear::new(Channel::FIRST)),
        ];
        let mut faults = FaultPlan::none();
        faults.zone_jam(ZoneJam {
            center: Point::new(2.0, 0.0),
            radius: 1.0,
            channel: None,
            from: 0,
            to: u64::MAX,
        });
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7).with_faults(faults);
        e.step();
        match (&e.protocols()[1], &e.protocols()[2]) {
            (Role::Hear(hit), Role::Hear(clear)) => {
                assert!(
                    hit.heard.is_empty(),
                    "victim inside the zone decodes nothing"
                );
                assert_eq!(hit.noise_slots, 1, "the energy is still sensed");
                assert_eq!(clear.heard.len(), 1, "outside the zone life goes on");
            }
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().env_drops, 1);
        assert_eq!(e.metrics().receptions, 1);
    }

    #[test]
    fn sleeping_node_is_silent_but_not_lifecycle_churn() {
        use crate::fault::SleepSchedule;
        let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 3,
            }),
            Role::Hear(Ear::new(Channel::FIRST)),
        ];
        let mut faults = FaultPlan::none();
        // Awake slots {0,1}, asleep {2,3}, awake again at 4.
        faults.sleep(
            0,
            SleepSchedule {
                period: 4,
                on: 2,
                phase: 0,
            },
        );
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7).with_faults(faults);
        e.watch_events(10.0);
        e.run(5);
        match &e.protocols()[1] {
            Role::Hear(ear) => {
                assert_eq!(ear.heard.len(), 3, "slots 0, 1, 4 deliver");
            }
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().transmissions, 3);
        assert_eq!(
            e.drain_events(),
            vec![],
            "duty-cycle sleep is not crash/join churn"
        );
    }

    #[test]
    fn detector_flags_zone_jammed_listener_then_recovers() {
        use crate::detect::{DegradationDetector, DetectionEvent, DetectorConfig};
        let mk = || {
            let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
            let protocols = vec![
                Role::Talk(Talker {
                    channel: Channel::FIRST,
                    msg: 1,
                }),
                Role::Hear(Ear::new(Channel::FIRST)),
            ];
            let mut faults = FaultPlan::none();
            // The jam arrives at slot 20 and lifts at slot 60.
            faults.zone_jam(ZoneJam {
                center: Point::new(2.0, 0.0),
                radius: 1.0,
                channel: None,
                from: 20,
                to: 60,
            });
            Engine::new(SinrParams::default(), positions, protocols, 7).with_faults(faults)
        };
        let mut plain = mk();
        let mut watched = mk();
        watched.attach_detector(DegradationDetector::new(2, DetectorConfig::default()));
        plain.run(100);
        watched.run(100);
        assert_eq!(
            plain.metrics(),
            watched.metrics(),
            "detection is observation only"
        );
        let events = watched.drain_detections();
        assert_eq!(events.len(), 2, "{events:?}");
        match events[0] {
            DetectionEvent::Degraded {
                node, slot, since, ..
            } => {
                assert_eq!(node, NodeId(1));
                assert_eq!(since, 20, "onset pinned to the jam's arrival");
                assert!(slot < 40, "flagged well before the jam lifts");
            }
            _ => panic!("expected Degraded first"),
        }
        match events[1] {
            DetectionEvent::Recovered { node, slot, .. } => {
                assert_eq!(node, NodeId(1));
                assert!(slot >= 60, "recovery only after the jam lifts");
            }
            _ => panic!("expected Recovered second"),
        }
        assert!(!watched.core().detector.as_ref().unwrap().is_flagged(1));
    }

    #[test]
    #[should_panic(expected = "a degradation detector over 2 nodes cannot watch a 3-node engine")]
    fn detector_sized_for_another_engine_is_refused_at_attach() {
        use crate::detect::{DegradationDetector, DetectorConfig};
        let positions = vec![Point::ORIGIN, Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let protocols = (0..3).map(|_| Ear::new(Channel::FIRST)).collect();
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7);
        e.attach_detector(DegradationDetector::new(2, DetectorConfig::default()));
    }

    #[test]
    #[should_panic(expected = "one protocol per position")]
    fn mismatched_lengths_panic() {
        let _ = Engine::new(
            SinrParams::default(),
            vec![Point::ORIGIN],
            Vec::<Role>::new(),
            1,
        );
    }

    #[test]
    fn obs_recorder_never_perturbs_outcomes() {
        let mut plain = two_node_setup(Channel::FIRST);
        let mut observed = two_node_setup(Channel::FIRST);
        observed.attach_obs(mca_obs::Recorder::new());
        plain.run(5);
        observed.run(5);
        assert_eq!(plain.metrics(), observed.metrics());
        assert!(observed.take_obs().is_some());
        assert!(observed.obs().is_none());
    }

    #[test]
    fn obs_counts_what_phase_one_touched() {
        // Node 0 crashes at slot 2, node 1 joins at slot 3: polled 1, 1,
        // 0, 1 over four slots; node 1 waits in the wake queue for three.
        let mut faults = FaultPlan::none();
        faults.crash_at(0, 2);
        faults.join_at(1, 3);
        let mut e = two_node_setup(Channel::FIRST).with_faults(faults);
        e.attach_obs(mca_obs::Recorder::new());
        e.run(4);
        let counters = e.obs().unwrap().counters();
        let get = |name| counters.iter().find(|(k, _)| *k == name).map(|&(_, v)| v);
        assert_eq!(get("nodes_polled"), Some(3));
        assert_eq!(get("nodes_parked"), Some(3));
        assert_eq!(get("nodes_woken"), Some(1));
        assert_eq!(get("parks_far"), Some(0));
        assert_eq!(e.metrics().idles, 2 * 4 - 3);
    }

    /// Node 0 transmits every third slot and idles in between; node 1
    /// waits on the first channel until slot 5.
    enum Pair {
        Blink,
        Wait { heard: u32, noise: u32 },
    }
    impl Protocol for Pair {
        type Msg = u32;
        fn act(&mut self, slot: u64, _r: &mut SmallRng) -> Action<u32> {
            let channel = Channel::FIRST;
            match self {
                Pair::Blink if slot.is_multiple_of(3) => Action::Transmit { channel, msg: 1 },
                Pair::Blink => Action::Idle,
                Pair::Wait { .. } => Action::Listen { channel },
            }
        }
        fn observe(&mut self, _s: u64, obs: Observation<u32>, _r: &mut SmallRng) {
            if let Pair::Wait { heard, noise } = self {
                match obs {
                    Observation::Received(_) => *heard += 1,
                    _ => *noise += 1,
                }
            }
        }
        fn listen_until(&self, _slot: u64) -> Option<(Channel, u64)> {
            matches!(self, Pair::Wait { .. }).then_some((Channel::FIRST, 5))
        }
    }

    #[test]
    fn standing_listener_is_counted_every_slot_and_told_only_what_it_decodes() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let protocols = vec![Pair::Blink, Pair::Wait { heard: 0, noise: 0 }];
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7);
        e.attach_obs(mca_obs::Recorder::new());
        e.run(6);
        // Slot 0: heard, then standing through slots 1..=4 (a second
        // decode in slot 3, silence in 1, 2 and 4 — not delivered); polled
        // again in slot 5, where the silence is delivered.
        match &e.protocols()[1] {
            Pair::Wait { heard, noise } => assert_eq!((*heard, *noise), (2, 1)),
            Pair::Blink => unreachable!(),
        }
        let m = e.metrics();
        assert_eq!((m.listens, m.receptions, m.silent_listens), (6, 2, 4));
        assert_eq!((m.transmissions, m.idles), (2, 4));
        let rec = e.obs().unwrap();
        let counters = rec.counters();
        let get = |name| counters.iter().find(|(k, _)| *k == name).map(|&(_, v)| v);
        assert_eq!(get("nodes_polled"), Some(2 + 4 + 2));
        assert_eq!(get("nodes_standing"), Some(4));
        assert_eq!(get("channels_silent"), Some(4));
        assert_eq!(get("nodes_parked"), Some(0));
        // One record per slot, silent or not, the standing listener in
        // its `listens`; a unit span only where there was a transmitter.
        let chans = rec.channel_records();
        let stream: Vec<_> = chans.iter().map(|c| (c.tx, c.listens, c.rx)).collect();
        let silent = (0, 1, 0);
        assert_eq!(
            stream,
            [(1, 1, 1), silent, silent, (1, 1, 1), silent, silent]
        );
        let units = rec.spans().iter().filter(|s| s.kind == SpanKind::Unit);
        assert_eq!(units.count(), 2);
    }

    #[test]
    fn obs_records_phase_spans_and_channel_stream() {
        let mut e = two_node_setup(Channel::FIRST);
        e.attach_obs(mca_obs::Recorder::new());
        e.run(3);
        let rec = e.obs().unwrap();
        // Six phase spans per slot plus at least one unit span.
        let slots = rec
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Slot)
            .count();
        assert_eq!(slots, 3);
        assert!(rec.spans().iter().any(|s| s.kind == SpanKind::Unit));
        // One active channel per slot, everyone on Channel::FIRST.
        let chans = rec.channel_records();
        assert_eq!(chans.len(), 3);
        assert!(chans
            .iter()
            .all(|c| c.channel == 0 && c.tx == 1 && c.listens == 1));
        // Phase spans account for (nearly) the whole slot.
        let report = rec.report();
        assert!(report.slot_coverage().unwrap() > 0.5);
        // The JSONL dump validates against the schema.
        for line in rec.to_jsonl().lines() {
            mca_obs::validate_jsonl_line(line).unwrap_or_else(|err| panic!("{err}: {line}"));
        }
    }
}
