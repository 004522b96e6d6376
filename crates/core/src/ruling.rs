//! The `(r, 2r)`-ruling set algorithm (paper §4).
//!
//! Rounds of three slots:
//!
//! 1. **HELLO** — each active node transmits `HELLO` with probability `p`;
//! 2. **ACK** — a node with a *clear reception* (Definition 4) of a HELLO
//!    from an `r`-neighbor answers `ACK` with probability `p`;
//! 3. **IN** — a node whose HELLO was acked by an `r`-neighbor joins the set
//!    `S`, announces `IN`, and halts; active nodes that hear `IN` from an
//!    `r`-neighbor halt as dominated (Lemma 5).
//!
//! Nodes still active after all rounds join `S` (Lemma 6 shows `r`-neighbors
//! survive together only with probability `n^{-3}`).
//!
//! `p` starts at `start`, doubles per quiet round and halves per busy one
//! (sensed power above the clear-reception threshold), within
//! `[start, p_cap]`. This carrier-sense ramp stands in for the
//! Scheideler–Richa–Santi black box \[28\] (deviation #1): the paper's fixed
//! `1/(2µ)` (`start = p_cap`) presumes constant density and starves
//! elections wherever many participants share a `4r`-ball. Every caller
//! gets its configuration from [`RulingConfig::election`].

use crate::config::AlgoConfig;
use crate::schedule::Tdma;
use mca_radio::{Action, Channel, NodeId, Observation, Protocol};
use mca_sinr::SinrParams;
use rand::rngs::SmallRng;
use rand::Rng;

/// Messages of the ruling-set protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RulingMsg {
    /// Candidacy beacon.
    Hello {
        /// Sender.
        from: NodeId,
        /// Group (cluster) scope, if restricted.
        group: Option<NodeId>,
    },
    /// Acknowledgement of a clearly received HELLO.
    Ack {
        /// The HELLO sender being acknowledged.
        to: NodeId,
        /// Group scope.
        group: Option<NodeId>,
    },
    /// Set-membership announcement; `r`-neighbors halt on hearing it.
    In {
        /// The node that joined the set.
        from: NodeId,
        /// Group scope.
        group: Option<NodeId>,
    },
}

impl RulingMsg {
    fn group(&self) -> Option<NodeId> {
        match *self {
            RulingMsg::Hello { group, .. }
            | RulingMsg::Ack { group, .. }
            | RulingMsg::In { group, .. } => group,
        }
    }
}

/// What happens to a node still active when the rounds run out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutRule {
    /// Join the set unconditionally (the paper's §4 default — needed for
    /// maximality, safe when the round count carries the full union bound).
    Join,
    /// Join only if the whole run was locally silent (no clear-threshold
    /// interference sensed, no group message received): an isolated node
    /// can safely self-elect, a contended one cannot. This keeps lone
    /// nodes from starving without risking near-colliding joins.
    JoinIfQuiet,
}

/// How many 3-slot rounds an election runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Lemma 6's `⌈γ·ln n̂⌉` ([`AlgoConfig::ruling_rounds`]).
    Lemma6,
    /// [`HANDSHAKE_BATCHES`] Lemma 6 budgets: a cluster-channel round elects
    /// only if its HELLO and its ACK are both lone (~`λ²·e^{-2λ}`).
    Handshake,
    /// Lemma 6's budget, but at least `per_log2·⌈log₂ n̂⌉` rounds: room for
    /// the ramp to climb from a network-wide floor of `λ/n̂`.
    Ramp {
        /// Rounds per `⌈log₂ n̂⌉`.
        per_log2: u64,
    },
}

/// Lemma 6 budgets in a [`Budget::Handshake`] election.
pub const HANDSHAKE_BATCHES: u64 = 3;

/// What a caller knows about one election; [`RulingConfig::election`]
/// derives the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Election {
    /// Independence/domination radius `r`.
    pub radius: f64,
    /// How many participants may contend in one `r`-ball: the ramp's floor
    /// is `min(λ/contenders, p_cap)`.
    pub contenders: u64,
    /// Round budget.
    pub budget: Budget,
    /// Channel the protocol operates on.
    pub channel: Channel,
    /// Restrict participation to one group (cluster): other groups'
    /// messages only count as sensed interference.
    pub group: Option<NodeId>,
    /// TDMA schedule; `slots_per_round` must be [`SLOTS_PER_ROUND`].
    pub tdma: Tdma,
    /// This node's TDMA color (clusters act only in their own block).
    pub color: u16,
    /// Behavior at the round cap.
    pub timeout: TimeoutRule,
}

impl Election {
    /// A network-wide election: the first channel, no group, no TDMA.
    pub fn network(radius: f64, contenders: u64, budget: Budget, timeout: TimeoutRule) -> Self {
        Election {
            radius,
            contenders,
            budget,
            channel: Channel::FIRST,
            group: None,
            tdma: Tdma::trivial(SLOTS_PER_ROUND),
            color: 0,
            timeout,
        }
    }
}

/// Configuration of one ruling-set execution, built by
/// [`RulingConfig::election`]. `params` are the conservative SINR
/// parameters nodes compute with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RulingConfig {
    radius: f64,
    start: f64,
    busy_threshold: f64,
    p_cap: f64,
    rounds: u64,
    channel: Channel,
    group: Option<NodeId>,
    tdma: Tdma,
    color: u16,
    params: SinrParams,
    timeout: TimeoutRule,
}

impl RulingConfig {
    /// The configuration of one election under `algo`: `p` ramps within
    /// `[min(λ/contenders, p_cap), p_cap]`, a slot is busy at the
    /// node-known clear-reception threshold for the radius, and the
    /// budget's rounds run.
    pub fn election(algo: &AlgoConfig, e: Election) -> Self {
        let params = algo.node_params();
        let rounds = match e.budget {
            Budget::Lemma6 => algo.ruling_rounds(),
            Budget::Handshake => HANDSHAKE_BATCHES * algo.ruling_rounds(),
            Budget::Ramp { per_log2 } => algo
                .ruling_rounds()
                .max(per_log2 * algo.know.log2_n() as u64),
        };
        RulingConfig {
            radius: e.radius,
            start: (algo.consts.lambda / e.contenders as f64).min(algo.consts.p_cap),
            busy_threshold: params.clear_threshold_for(e.radius),
            p_cap: algo.consts.p_cap,
            rounds,
            channel: e.channel,
            group: e.group,
            tdma: e.tdma,
            color: e.color,
            params,
            timeout: e.timeout,
        }
    }

    /// Slots a phase running this election needs: every round of every
    /// color block, plus one round of slack.
    pub fn slot_cap(&self) -> u64 {
        self.tdma.slots_for_rounds(self.rounds) + SLOTS_PER_ROUND as u64
    }
}

/// Slots per protocol round (HELLO, ACK, IN).
pub const SLOTS_PER_ROUND: u16 = 3;

/// Terminal outcome of a node in the ruling set protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RulingOutcome {
    /// Joined the set via an acked HELLO election.
    Elected,
    /// Joined the set at timeout (never dominated, never elected).
    TimedOut,
    /// Halted on hearing `IN` from `by` at estimated distance `dist`.
    Dominated {
        /// The set member that dominated this node.
        by: NodeId,
        /// RSSI distance estimate to it.
        dist: f64,
    },
    /// Did not participate, or did not join under
    /// [`TimeoutRule::JoinIfQuiet`].
    Passive,
}

impl RulingOutcome {
    /// Whether the node ended up in the ruling set.
    pub fn in_set(&self) -> bool {
        matches!(self, RulingOutcome::Elected | RulingOutcome::TimedOut)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Passive,
    Active,
    /// Listens and acknowledges clear HELLOs but never competes (used by
    /// dominators so that lone cluster members can still be elected).
    Helper,
    /// Will announce IN in the next slot-2 of its block, then halt in-set.
    Joining,
    InSet {
        timed_out: bool,
    },
    Dominated {
        by: NodeId,
        dist: f64,
    },
}

/// The per-node ruling-set protocol state machine.
#[derive(Debug, Clone)]
pub struct RulingSet {
    cfg: RulingConfig,
    me: NodeId,
    status: Status,
    p: f64,
    // Per-round scratch.
    sent_hello: bool,
    clear_hello: Option<NodeId>,
    got_ack: bool,
    busy_seen: bool,
    rounds_done: u64,
    halt_round: Option<u64>,
    heard_in: bool,
    /// Whether any round sensed clear-threshold interference or a group
    /// message (quietness tracking for `TimeoutRule::JoinIfQuiet`).
    ever_disturbed: bool,
}

impl RulingSet {
    /// An active participant.
    ///
    /// # Panics
    ///
    /// Panics if the TDMA schedule's slot count differs from
    /// [`SLOTS_PER_ROUND`] or the probabilities break `0 < start ≤ p_cap ≤ 1`.
    pub fn new(me: NodeId, cfg: RulingConfig) -> Self {
        assert_eq!(
            cfg.tdma.slots_per_round(),
            SLOTS_PER_ROUND,
            "ruling set needs 3 slots per round"
        );
        assert!(
            cfg.start > 0.0 && cfg.start <= cfg.p_cap && cfg.p_cap <= 1.0,
            "probabilities must satisfy 0 < start <= p_cap <= 1"
        );
        assert!(cfg.radius > 0.0, "radius must be positive");
        RulingSet {
            cfg,
            me,
            status: Status::Active,
            p: cfg.start,
            sent_hello: false,
            clear_hello: None,
            got_ack: false,
            busy_seen: false,
            rounds_done: 0,
            halt_round: None,
            heard_in: false,
            ever_disturbed: false,
        }
    }

    /// A non-participant (terminates immediately, stays silent).
    pub fn passive(me: NodeId, cfg: RulingConfig) -> Self {
        let mut s = RulingSet::new(me, cfg);
        s.status = Status::Passive;
        s
    }

    /// An ACK-only helper: listens and acknowledges clear HELLOs at the
    /// configuration's start probability, which it never ramps, and never
    /// competes for membership. Dominators help this way during cluster
    /// elections, so clusters with a single member can still elect it.
    pub fn helper(me: NodeId, mut cfg: RulingConfig) -> Self {
        cfg.p_cap = cfg.start;
        let mut s = RulingSet::new(me, cfg);
        s.status = Status::Helper;
        s
    }

    /// Terminal outcome (meaningful once [`Protocol::is_done`] is true; a
    /// still-active node reports [`RulingOutcome::Passive`]).
    pub fn outcome(&self) -> RulingOutcome {
        match self.status {
            Status::InSet { timed_out: true } => RulingOutcome::TimedOut,
            Status::InSet { timed_out: false } => RulingOutcome::Elected,
            Status::Dominated { by, dist } => RulingOutcome::Dominated { by, dist },
            Status::Passive | Status::Active | Status::Joining | Status::Helper => {
                RulingOutcome::Passive
            }
        }
    }

    /// Whether this node is in the ruling set.
    pub fn in_set(&self) -> bool {
        matches!(self.status, Status::InSet { .. })
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Round at which the node halted, if it has.
    pub fn halt_round(&self) -> Option<u64> {
        self.halt_round
    }

    /// Current transmission probability (for contention instrumentation).
    pub fn current_prob(&self) -> f64 {
        self.p
    }

    /// Whether an `IN` announcement from this node's group was heard on its
    /// channel within the radius (helpers use this to detect that the
    /// channel elected a member).
    pub fn heard_in(&self) -> bool {
        self.heard_in
    }

    fn group_matches(&self, msg: &RulingMsg) -> bool {
        msg.group() == self.cfg.group
    }

    fn within_radius(&self, signal: f64) -> bool {
        // Signal at distance r, with a 2% tolerance for parameter slack.
        signal >= self.cfg.params.received_power(self.cfg.radius) * 0.98
    }

    fn sense_busy(&mut self, interference: f64) {
        if interference >= self.cfg.busy_threshold {
            self.busy_seen = true;
        }
    }

    fn end_round(&mut self) {
        self.rounds_done += 1;
        if matches!(self.status, Status::Helper) && self.rounds_done >= self.cfg.rounds {
            self.status = Status::Passive;
            return;
        }
        self.p = if self.busy_seen {
            (self.p / 2.0).max(self.cfg.start)
        } else {
            (self.p * 2.0).min(self.cfg.p_cap)
        };
        self.sent_hello = false;
        self.clear_hello = None;
        self.got_ack = false;
        self.busy_seen = false;
        if self.rounds_done >= self.cfg.rounds && matches!(self.status, Status::Active) {
            let join = match self.cfg.timeout {
                TimeoutRule::Join => true,
                TimeoutRule::JoinIfQuiet => !self.ever_disturbed,
            };
            self.status = if join {
                // Timeout: enter the set without announcement (paper §4).
                Status::InSet { timed_out: true }
            } else {
                Status::Passive
            };
            self.halt_round = Some(self.rounds_done);
        }
    }
}

impl Protocol for RulingSet {
    type Msg = RulingMsg;

    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<RulingMsg> {
        let Some(ts) = self.cfg.tdma.my_slot(slot, self.cfg.color) else {
            return Action::Idle;
        };
        let ch = self.cfg.channel;
        match (ts.slot_in_round, self.status) {
            (0 | 2, Status::Helper) | (2, Status::Active) => Action::Listen { channel: ch },
            (0, Status::Active) => {
                if rng.gen_bool(self.p.min(1.0)) {
                    self.sent_hello = true;
                    Action::Transmit {
                        channel: ch,
                        msg: RulingMsg::Hello {
                            from: self.me,
                            group: self.cfg.group,
                        },
                    }
                } else {
                    Action::Listen { channel: ch }
                }
            }
            (1, Status::Active | Status::Helper) => {
                if let Some(h) = self.clear_hello {
                    if rng.gen_bool(self.p.min(1.0)) {
                        return Action::Transmit {
                            channel: ch,
                            msg: RulingMsg::Ack {
                                to: h,
                                group: self.cfg.group,
                            },
                        };
                    }
                }
                Action::Listen { channel: ch }
            }
            (2, Status::Joining) => Action::Transmit {
                channel: ch,
                msg: RulingMsg::In {
                    from: self.me,
                    group: self.cfg.group,
                },
            },
            _ => Action::Idle,
        }
    }

    fn observe(&mut self, slot: u64, obs: Observation<RulingMsg>, _rng: &mut SmallRng) {
        let Some(ts) = self.cfg.tdma.my_slot(slot, self.cfg.color) else {
            return;
        };
        // Quietness tracking for JoinIfQuiet: evidence of a transmitter
        // within ~2r (a competitor that could conflict with a self-join)
        // counts as a disturbance. Far-field traffic does not — otherwise
        // isolated nodes in a busy network could never self-elect.
        let competitor_power = self.cfg.params.received_power(2.0 * self.cfg.radius);
        match &obs {
            Observation::Received(r)
                if (self.group_matches(&r.msg) || r.signal >= competitor_power) =>
            {
                self.ever_disturbed = true;
            }
            Observation::Noise { total_power } if *total_power >= competitor_power => {
                self.ever_disturbed = true;
            }
            _ => {}
        }
        match ts.slot_in_round {
            0 => {
                if let Observation::Received(r) = &obs {
                    // A decode means the channel was locally clean up to the
                    // residual interference — sense that residue, not the
                    // decoded signal itself.
                    self.sense_busy(r.sensed_interference());
                    if self.group_matches(&r.msg)
                        && matches!(r.msg, RulingMsg::Hello { .. })
                        && r.is_clear(&self.cfg.params, self.cfg.radius)
                    {
                        if let RulingMsg::Hello { from, .. } = r.msg {
                            self.clear_hello = Some(from);
                        }
                    }
                } else if let Observation::Noise { total_power } = obs {
                    self.sense_busy(total_power);
                }
            }
            1 => {
                if self.sent_hello {
                    if let Observation::Received(r) = &obs {
                        if self.group_matches(&r.msg) && self.within_radius(r.signal) {
                            if let RulingMsg::Ack { to, .. } = r.msg {
                                if to == self.me {
                                    self.got_ack = true;
                                }
                            }
                        }
                    }
                }
                // Decide whether to announce IN next slot.
                if matches!(self.status, Status::Active) && self.sent_hello && self.got_ack {
                    self.status = Status::Joining;
                }
            }
            2 => {
                match self.status {
                    Status::Joining => {
                        // IN transmitted this slot; join and halt.
                        self.status = Status::InSet { timed_out: false };
                        self.halt_round = Some(self.rounds_done);
                    }
                    Status::Active => {
                        if let Observation::Received(r) = &obs {
                            if self.group_matches(&r.msg) && self.within_radius(r.signal) {
                                if let RulingMsg::In { from, .. } = r.msg {
                                    let dist = r.distance_estimate(&self.cfg.params);
                                    self.status = Status::Dominated { by: from, dist };
                                    self.halt_round = Some(self.rounds_done);
                                    self.heard_in = true;
                                }
                            }
                        }
                    }
                    Status::Helper => {
                        if let Observation::Received(r) = &obs {
                            if self.group_matches(&r.msg)
                                && self.within_radius(r.signal)
                                && matches!(r.msg, RulingMsg::In { .. })
                            {
                                self.heard_in = true;
                            }
                        }
                    }
                    _ => {}
                }
                if !matches!(self.status, Status::Passive) {
                    self.end_round();
                }
            }
            _ => unreachable!("3 slots per round"),
        }
    }

    fn is_done(&self) -> bool {
        matches!(
            self.status,
            Status::Passive | Status::InSet { .. } | Status::Dominated { .. }
        )
    }

    /// `act` and `observe` both open with the `my_slot` gate: outside its own
    /// color block the node is a no-op.
    fn quiet_until(&self, slot: u64) -> Option<u64> {
        self.cfg.tdma.next_my_slot(slot, self.cfg.color)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_geom::Point;
    use mca_radio::Engine;
    use mca_sinr::SinrParams;

    /// The paper's fixed `p = 1/4` (`start = p_cap`).
    fn base_cfg(radius: f64, rounds: u64) -> RulingConfig {
        RulingConfig {
            radius,
            start: 0.25,
            busy_threshold: f64::INFINITY,
            p_cap: 0.25,
            rounds,
            channel: Channel::FIRST,
            group: None,
            tdma: Tdma::trivial(SLOTS_PER_ROUND),
            color: 0,
            params: SinrParams::default(),
            timeout: TimeoutRule::Join,
        }
    }

    fn run(positions: Vec<Point>, cfg: RulingConfig, seed: u64) -> Vec<RulingSet> {
        let n = positions.len();
        let protocols: Vec<RulingSet> = (0..n)
            .map(|i| RulingSet::new(NodeId(i as u32), cfg))
            .collect();
        let mut engine = Engine::new(SinrParams::default(), positions, protocols, seed);
        engine.run_until_done(cfg.slot_cap());
        engine.into_protocols()
    }

    /// Each caller's election inputs give exactly the start, cap, busy
    /// threshold, budget, timeout and helper ACK probability that its
    /// committed tables were produced with.
    #[test]
    fn election_reproduces_each_callers_former_config() {
        let default = SinrParams::default();
        for (n_hat, k, size, f) in [
            (64usize, 2u64, 6u64, 1u16),
            (300, 37, 60, 8),
            (1200, 150, 95, 16),
            (4096, 400, 500, 4),
        ] {
            let algo = AlgoConfig::practical(f, &default, n_hat);
            let (lambda, p_cap) = (algo.consts.lambda, algo.consts.p_cap);
            let node = algo.node_params();
            let r = node.transmission_range() / 4.0;
            let check = |cfg: RulingConfig, start: f64, busy: f64, rounds: u64, t: TimeoutRule| {
                assert_eq!(
                    (
                        cfg.start,
                        cfg.p_cap,
                        cfg.busy_threshold,
                        cfg.rounds,
                        cfg.timeout
                    ),
                    (start, p_cap, busy, rounds, t),
                    "n̂ = {n_hat}, k = {k}, size = {size}, F = {f}"
                );
                assert_eq!(cfg.params, node);
                assert_eq!(cfg.slot_cap(), cfg.tdma.slots_for_rounds(rounds) + 3);
            };
            // Network-wide MIS (`mis.rs`).
            let per_log2 = crate::mis::ROUNDS_PER_LOG2;
            let mis = Election::network(
                r,
                n_hat as u64,
                Budget::Ramp { per_log2 },
                TimeoutRule::Join,
            );
            check(
                RulingConfig::election(&algo, mis),
                (lambda / n_hat as f64).max(1e-9),
                node.clear_threshold_for(r),
                algo.ruling_rounds().max(48 * algo.know.log2_n() as u64),
                TimeoutRule::Join,
            );
            // Single-channel colouring baseline.
            let phase =
                Election::network(r, n_hat as u64, Budget::Lemma6, TimeoutRule::JoinIfQuiet);
            check(
                RulingConfig::election(&algo, phase),
                (lambda / n_hat.max(2) as f64).min(0.25),
                node.clear_threshold_for(r),
                algo.ruling_rounds(),
                TimeoutRule::JoinIfQuiet,
            );
            // E5: `k` constant-density participants in a field of `2^exp`.
            let exp = 6 + f as u64;
            let e5_algo = AlgoConfig::practical(1, &default, 1 << exp);
            let e5 = Election::network(3.0, k, Budget::Ramp { per_log2: 60 }, TimeoutRule::Join);
            let cfg = RulingConfig::election(&e5_algo, e5);
            assert_eq!(cfg.params, default);
            assert_eq!(
                (cfg.start, cfg.p_cap, cfg.busy_threshold, cfg.rounds),
                (
                    0.5 / k as f64,
                    0.25,
                    default.clear_threshold_for(3.0),
                    60 * exp
                )
            );
            // Per-channel cluster elections: reporters spread `size` over
            // `f_v` channels, CSA-small's leaders `Δ̂ = size` over `F`.
            let cluster = |contenders| Election {
                radius: 2.0 * r,
                contenders,
                budget: Budget::Handshake,
                channel: Channel(f - 1),
                group: Some(NodeId(7)),
                tdma: Tdma::new(3, SLOTS_PER_ROUND),
                color: 2,
                timeout: TimeoutRule::JoinIfQuiet,
            };
            for fv in [algo.cluster_channels(size), f] {
                let m_hat = size.div_ceil(fv as u64).max(1);
                check(
                    RulingConfig::election(&algo, cluster(2 * m_hat)),
                    (lambda / (2.0 * m_hat as f64)).min(p_cap),
                    node.clear_threshold_for(2.0 * r),
                    algo.ruling_rounds() * 3,
                    TimeoutRule::JoinIfQuiet,
                );
            }
            let helper = RulingSet::helper(NodeId(0), RulingConfig::election(&algo, cluster(2)));
            assert_eq!(helper.current_prob(), (lambda / 2.0).min(p_cap));
            assert_eq!(helper.cfg.p_cap, helper.cfg.start, "a helper never ramps");
        }
    }

    #[test]
    fn isolated_node_times_out_into_set() {
        let out = run(vec![Point::ORIGIN], base_cfg(1.0, 5), 1);
        assert!(out[0].is_done());
        assert_eq!(out[0].outcome(), RulingOutcome::TimedOut);
        assert!(out[0].in_set());
    }

    #[test]
    fn passive_node_does_nothing() {
        let cfg = base_cfg(1.0, 5);
        let p = RulingSet::passive(NodeId(0), cfg);
        assert!(p.is_done());
        assert_eq!(p.outcome(), RulingOutcome::Passive);
        assert!(!p.in_set());
    }

    #[test]
    fn close_pair_elects_exactly_one() {
        // Two nodes 0.5 apart with r = 1: with enough rounds, one is elected
        // and the other dominated, w.h.p.
        let mut elected_total = 0;
        for seed in 0..10 {
            let out = run(
                vec![Point::ORIGIN, Point::new(0.5, 0.0)],
                base_cfg(1.0, 60),
                seed,
            );
            let in_set: Vec<bool> = out.iter().map(|o| o.in_set()).collect();
            let dominated = out
                .iter()
                .filter(|o| matches!(o.outcome(), RulingOutcome::Dominated { .. }))
                .count();
            let members = in_set.iter().filter(|&&b| b).count();
            assert!(members >= 1, "at least one node must join");
            if members == 1 {
                elected_total += 1;
                assert_eq!(dominated, 1);
            }
        }
        assert!(
            elected_total >= 8,
            "independence should hold in most runs, got {elected_total}/10"
        );
    }

    #[test]
    fn dominated_node_records_its_dominator() {
        for seed in 0..5 {
            let out = run(
                vec![Point::ORIGIN, Point::new(0.4, 0.0)],
                base_cfg(1.0, 60),
                seed,
            );
            for o in &out {
                if let RulingOutcome::Dominated { by, dist } = o.outcome() {
                    assert_ne!(by, o.me);
                    assert!((dist - 0.4).abs() < 0.05, "distance estimate {dist}");
                }
            }
        }
    }

    #[test]
    fn far_pair_both_join() {
        // Nodes 5 apart with r = 1 never interact at election level; both
        // should end in the set (independent since far apart).
        let out = run(
            vec![Point::ORIGIN, Point::new(5.0, 0.0)],
            base_cfg(1.0, 30),
            3,
        );
        assert!(out[0].in_set() && out[1].in_set());
    }

    #[test]
    fn ruling_set_is_independent_and_dominating_on_line() {
        // 20 nodes spaced 0.3 apart, r = 1.0. A fixed p = 1/4 would keep
        // contention far above the clear-reception threshold (the very
        // failure mode the paper's ramped probabilities avoid), so this uses
        // the adaptive carrier-sense policy of the dominating-set substrate.
        let positions: Vec<Point> = (0..20).map(|i| Point::new(0.3 * i as f64, 0.0)).collect();
        for seed in 0..5 {
            let mut cfg = base_cfg(1.0, 300);
            cfg.start = 0.01;
            cfg.busy_threshold = SinrParams::default().clear_threshold();
            let out = run(positions.clone(), cfg, seed);
            let members: Vec<usize> = (0..20).filter(|&i| out[i].in_set()).collect();
            assert!(!members.is_empty());
            // Domination: everyone in set or dominated.
            for o in &out {
                assert!(o.is_done());
                assert!(o.in_set() || matches!(o.outcome(), RulingOutcome::Dominated { .. }));
            }
            // Independence (allowing rare violations from timeout joins):
            let mut violations = 0;
            for (ai, &a) in members.iter().enumerate() {
                for &b in &members[ai + 1..] {
                    if positions[a].dist(positions[b]) <= 1.0 {
                        violations += 1;
                    }
                }
            }
            assert!(
                violations <= 1,
                "seed {seed}: {violations} independence violations among {members:?}"
            );
        }
    }

    #[test]
    fn group_filter_separates_elections() {
        // Two co-located pairs in different groups, same channel: each group
        // elects its own member independently; cross-group HELLOs are noise.
        let positions = vec![
            Point::ORIGIN,
            Point::new(0.2, 0.0),
            Point::new(0.1, 0.1),
            Point::new(0.3, 0.1),
        ];
        let mut cfg_a = base_cfg(1.0, 80);
        cfg_a.group = Some(NodeId(100));
        let mut cfg_b = base_cfg(1.0, 80);
        cfg_b.group = Some(NodeId(200));
        let protocols = vec![
            RulingSet::new(NodeId(0), cfg_a),
            RulingSet::new(NodeId(1), cfg_a),
            RulingSet::new(NodeId(2), cfg_b),
            RulingSet::new(NodeId(3), cfg_b),
        ];
        let mut engine = Engine::new(SinrParams::default(), positions, protocols, 5);
        engine.run_until_done(cfg_a.slot_cap());
        let out = engine.into_protocols();
        let group_a_members = out[..2].iter().filter(|o| o.in_set()).count();
        let group_b_members = out[2..].iter().filter(|o| o.in_set()).count();
        assert!(group_a_members >= 1);
        assert!(group_b_members >= 1);
        // A dominated node's dominator must be in its own group.
        for (i, o) in out.iter().enumerate() {
            if let RulingOutcome::Dominated { by, .. } = o.outcome() {
                let same_group = (i < 2) == (by.index() < 2);
                assert!(same_group, "node {i} dominated by {by} across groups");
            }
        }
    }

    #[test]
    fn adaptive_policy_ramps_up_when_quiet() {
        let mut cfg = base_cfg(1.0, 10);
        cfg.start = 0.01;
        let out = run(vec![Point::ORIGIN], cfg, 2);
        // With no traffic the probability should have doubled to the cap.
        assert!((out[0].current_prob() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tdma_color_gating_keeps_node_silent_in_other_blocks() {
        let mut cfg = base_cfg(1.0, 4);
        cfg.tdma = Tdma::new(2, SLOTS_PER_ROUND);
        cfg.color = 1;
        let mut node = RulingSet::new(NodeId(0), cfg);
        let mut rng = mca_radio::rng::derive_rng(0, 0);
        // Slots 0..3 belong to color 0: node must idle.
        for s in 0..3 {
            assert!(matches!(node.act(s, &mut rng), Action::Idle));
        }
        // Slot 3 starts color 1's block: node acts (listen or transmit).
        assert!(!matches!(node.act(3, &mut rng), Action::Idle));
    }

    #[test]
    #[should_panic(expected = "3 slots per round")]
    fn wrong_tdma_rejected() {
        let mut cfg = base_cfg(1.0, 4);
        cfg.tdma = Tdma::trivial(2);
        RulingSet::new(NodeId(0), cfg);
    }

    #[test]
    fn quiet_hints_are_sound() {
        use mca_radio::reference::{assert_hints_sound, random_observation};
        use rand::Rng;
        for seed in 0..24u64 {
            let phi = 2 + (seed % 4) as u16;
            let mut cfg = base_cfg(1.0, 30);
            cfg.tdma = Tdma::new(phi, SLOTS_PER_ROUND);
            cfg.color = (seed % phi as u64) as u16;
            cfg.group = (seed % 2 == 0).then_some(NodeId(0));
            for p in [
                RulingSet::new(NodeId(1), cfg),
                RulingSet::helper(NodeId(1), cfg),
                RulingSet::passive(NodeId(1), cfg),
            ] {
                assert_hints_sound(p, seed, 600, |_, _, g| {
                    let (who, group) = (NodeId(g.gen_range(1..4)), cfg.group);
                    let msg = match g.gen_range(0..3u8) {
                        0 => RulingMsg::Hello { from: who, group },
                        1 => RulingMsg::Ack { to: who, group },
                        _ => RulingMsg::In { from: who, group },
                    };
                    random_observation(g, 8, msg)
                });
            }
        }
    }
}
