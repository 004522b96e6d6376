//! Aggregation from followers to reporters (paper §6, first procedure;
//! Lemmas 18–21).
//!
//! Phases of `Γ + 1` rounds, `Γ = γ₂·ln n`. In each data round an
//! undelivered follower picks one of its cluster's `f_v` channels uniformly
//! at random, transmits its value with probability `p_u` (slot 0) and
//! listens for the reporter's acknowledgement (slot 1); once acked it
//! halts. The reporter on each channel acknowledges and accumulates. The
//! dominator eavesdrops on the first channel; in the notify round (slot 2)
//! it broadcasts `BACKOFF` iff it heard at least `Ω = ω₂·ln n` messages in
//! the phase — followers double `p_u` exactly when no backoff arrives,
//! which maintains the Bounded Contention invariant
//! (`P_c(v) ≤ λ·f_v`, Definition 17 / Lemma 19).

use crate::aggfun::Aggregate;
use crate::schedule::Tdma;
use mca_radio::{Action, Channel, NodeId, Observation, Protocol};
use rand::rngs::SmallRng;
use rand::Rng;

/// Messages of the follower-aggregation procedure.
#[derive(Debug, Clone, PartialEq)]
pub enum FollowerMsg<V> {
    /// A follower's payload.
    Data {
        /// The follower's cluster.
        cluster: NodeId,
        /// Partial aggregate (a single input at this stage).
        value: V,
    },
    /// Reporter acknowledgement.
    Ack {
        /// The follower being acknowledged.
        to: NodeId,
        /// Cluster scope.
        cluster: NodeId,
    },
    /// Dominator backoff signal (phase had enough traffic).
    Backoff {
        /// Cluster scope.
        cluster: NodeId,
    },
}

/// Slots per round: data, ack, control.
pub const SLOTS_PER_ROUND: u16 = 3;

/// Shared configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FollowerCfg {
    /// Data rounds per phase (`Γ = γ₂·ln n`).
    pub rounds_per_phase: u64,
    /// Backoff threshold (`Ω = ω₂·ln n` receptions per phase).
    pub backoff_threshold: u64,
    /// Contention target `λ`.
    pub lambda: f64,
    /// TDMA schedule (`slots_per_round` = 3).
    pub tdma: Tdma,
    /// Hard cap on phases (schedule length).
    pub max_phases: u64,
}

impl FollowerCfg {
    fn rounds_per_phase_total(&self) -> u64 {
        self.rounds_per_phase + 1
    }

    /// Total protocol rounds in the schedule.
    pub fn total_rounds(&self) -> u64 {
        self.max_phases * self.rounds_per_phase_total()
    }
}

/// Role-specific state.
#[derive(Debug, Clone)]
enum AggRole<A: Aggregate> {
    Follower {
        cluster: NodeId,
        fv: u16,
        value: A::Value,
        pu: f64,
        /// Channel used this round (slot-0 transmission), for the slot-1
        /// ack listen.
        tx_channel: Option<Channel>,
        /// Reporter that acknowledged us.
        delivered: Option<NodeId>,
        /// Backoff heard in the current notify round.
        backoff_heard: bool,
    },
    Reporter {
        cluster: NodeId,
        channel: Channel,
        collected: A::Value,
        follower_ids: Vec<NodeId>,
        /// Follower to acknowledge in slot 1.
        pending_ack: Option<NodeId>,
    },
    Dominator {
        cluster: NodeId,
        count_phase: u64,
        total_heard: u64,
        /// Serve as channel-0 reporter (set when the dominator observed no
        /// reporter election on the first channel).
        collect: bool,
        collected: A::Value,
        follower_ids: Vec<NodeId>,
        pending_ack: Option<NodeId>,
    },
    Passive,
}

/// Per-node protocol for the follower→reporter procedure.
#[derive(Debug, Clone)]
pub struct FollowerAgg<A: Aggregate> {
    agg: A,
    cfg: FollowerCfg,
    me: NodeId,
    color: u16,
    role: AggRole<A>,
    finished: bool,
}

impl<A: Aggregate> FollowerAgg<A> {
    /// A follower holding `value`, in a cluster with `fv` channels and
    /// initial probability `pu` (`λ·f_v/|Ĉ_v|`).
    #[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
    pub fn follower(
        agg: A,
        cfg: FollowerCfg,
        me: NodeId,
        cluster: NodeId,
        color: u16,
        fv: u16,
        value: A::Value,
        pu: f64,
    ) -> Self {
        assert!(fv >= 1 && pu > 0.0 && pu <= 1.0);
        FollowerAgg {
            agg,
            cfg,
            me,
            color,
            role: AggRole::Follower {
                cluster,
                fv,
                value,
                pu,
                tx_channel: None,
                delivered: None,
                backoff_heard: false,
            },
            finished: false,
        }
    }

    /// The reporter of `channel`, seeded with its own input `value`.
    pub fn reporter(
        agg: A,
        cfg: FollowerCfg,
        me: NodeId,
        cluster: NodeId,
        color: u16,
        channel: Channel,
        value: A::Value,
    ) -> Self {
        FollowerAgg {
            agg,
            cfg,
            me,
            color,
            role: AggRole::Reporter {
                cluster,
                channel,
                collected: value,
                follower_ids: Vec::new(),
                pending_ack: None,
            },
            finished: false,
        }
    }

    /// The cluster's dominator (contention monitor), seeded with its own
    /// input. With `collect`, it additionally serves as the channel-0
    /// reporter (rescue for clusters whose elections all failed).
    pub fn dominator(agg: A, cfg: FollowerCfg, me: NodeId, color: u16, collect: bool) -> Self {
        let cluster = me;
        let identity = agg.identity();
        FollowerAgg {
            agg,
            cfg,
            me,
            color,
            role: AggRole::Dominator {
                cluster,
                count_phase: 0,
                total_heard: 0,
                collect,
                collected: identity,
                follower_ids: Vec::new(),
                pending_ack: None,
            },
            finished: false,
        }
    }

    /// A node outside the procedure.
    pub fn passive(agg: A, cfg: FollowerCfg, me: NodeId) -> Self {
        FollowerAgg {
            agg,
            cfg,
            me,
            color: 0,
            role: AggRole::Passive,
            finished: true,
        }
    }

    /// Whether a follower has delivered its value (always true for other
    /// roles).
    pub fn is_delivered(&self) -> bool {
        match &self.role {
            AggRole::Follower { delivered, .. } => delivered.is_some(),
            _ => true,
        }
    }

    /// The reporter a follower delivered to.
    pub fn delivered_to(&self) -> Option<NodeId> {
        match &self.role {
            AggRole::Follower { delivered, .. } => *delivered,
            _ => None,
        }
    }

    /// A reporter's accumulated value and the followers it heard
    /// (also available for dominators serving as channel-0 reporters).
    pub fn reporter_state(&self) -> Option<(&A::Value, &[NodeId])> {
        match &self.role {
            AggRole::Reporter {
                collected,
                follower_ids,
                ..
            } => Some((collected, follower_ids)),
            AggRole::Dominator {
                collect: true,
                collected,
                follower_ids,
                ..
            } => Some((collected, follower_ids)),
            _ => None,
        }
    }

    /// A follower's current transmission probability (contention trace).
    pub fn current_pu(&self) -> Option<f64> {
        match &self.role {
            AggRole::Follower { pu, delivered, .. } if delivered.is_none() => Some(*pu),
            _ => None,
        }
    }

    /// The cluster this node participates in.
    pub fn cluster(&self) -> Option<NodeId> {
        match &self.role {
            AggRole::Follower { cluster, .. }
            | AggRole::Reporter { cluster, .. }
            | AggRole::Dominator { cluster, .. } => Some(*cluster),
            AggRole::Passive => None,
        }
    }

    fn phase_pos(&self, round: u64) -> (u64, u64) {
        let span = self.cfg.rounds_per_phase_total();
        (round / span, round % span)
    }
}

impl<A: Aggregate> Protocol for FollowerAgg<A> {
    type Msg = FollowerMsg<A::Value>;

    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<Self::Msg> {
        let Some(ts) = self.cfg.tdma.my_slot(slot, self.color) else {
            return Action::Idle;
        };
        if ts.round >= self.cfg.total_rounds() {
            return Action::Idle;
        }
        let (_, rip) = self.phase_pos(ts.round);
        let notify = rip == self.cfg.rounds_per_phase;
        match (&mut self.role, ts.slot_in_round) {
            (
                AggRole::Follower {
                    cluster,
                    fv,
                    value,
                    pu,
                    tx_channel,
                    delivered,
                    ..
                },
                0,
            ) => {
                *tx_channel = None;
                if notify || delivered.is_some() {
                    return Action::Idle;
                }
                if rng.gen_bool(*pu) {
                    let ch = Channel(rng.gen_range(0..*fv));
                    *tx_channel = Some(ch);
                    Action::Transmit {
                        channel: ch,
                        msg: FollowerMsg::Data {
                            cluster: *cluster,
                            value: value.clone(),
                        },
                    }
                } else {
                    Action::Idle
                }
            }
            (
                AggRole::Follower {
                    tx_channel: Some(ch),
                    ..
                },
                1,
            ) => Action::Listen { channel: *ch },
            (
                AggRole::Follower {
                    tx_channel: None, ..
                },
                1,
            ) => Action::Idle,
            (AggRole::Follower { delivered, .. }, 2) => {
                if notify && delivered.is_none() {
                    Action::Listen {
                        channel: Channel::FIRST,
                    }
                } else {
                    Action::Idle
                }
            }
            (AggRole::Reporter { channel, .. }, 0) => {
                if notify {
                    Action::Idle
                } else {
                    Action::Listen { channel: *channel }
                }
            }
            (
                AggRole::Reporter {
                    cluster,
                    channel,
                    pending_ack,
                    ..
                },
                1,
            ) => match pending_ack.take() {
                Some(to) => Action::Transmit {
                    channel: *channel,
                    msg: FollowerMsg::Ack {
                        to,
                        cluster: *cluster,
                    },
                },
                None => Action::Idle,
            },
            (AggRole::Dominator { .. }, 0) => {
                if notify {
                    Action::Idle
                } else {
                    Action::Listen {
                        channel: Channel::FIRST,
                    }
                }
            }
            (
                AggRole::Dominator {
                    cluster,
                    collect: true,
                    pending_ack,
                    ..
                },
                1,
            ) => match pending_ack.take() {
                Some(to) => Action::Transmit {
                    channel: Channel::FIRST,
                    msg: FollowerMsg::Ack {
                        to,
                        cluster: *cluster,
                    },
                },
                None => Action::Idle,
            },
            (
                AggRole::Dominator {
                    cluster,
                    count_phase,
                    ..
                },
                2,
            ) => {
                if notify {
                    let fire = *count_phase >= self.cfg.backoff_threshold;
                    *count_phase = 0;
                    if fire {
                        return Action::Transmit {
                            channel: Channel::FIRST,
                            msg: FollowerMsg::Backoff { cluster: *cluster },
                        };
                    }
                }
                Action::Idle
            }
            _ => Action::Idle,
        }
    }

    fn observe(&mut self, slot: u64, obs: Observation<Self::Msg>, _rng: &mut SmallRng) {
        let Some(ts) = self.cfg.tdma.my_slot(slot, self.color) else {
            return;
        };
        if ts.round >= self.cfg.total_rounds() {
            self.finished = true;
            return;
        }
        let (_, rip) = self.phase_pos(ts.round);
        let notify = rip == self.cfg.rounds_per_phase;
        let lambda = self.cfg.lambda;
        let me = self.me;
        match (&mut self.role, ts.slot_in_round) {
            (
                AggRole::Reporter {
                    cluster,
                    collected,
                    follower_ids,
                    pending_ack,
                    ..
                },
                0,
            ) => {
                if let Observation::Received(r) = &obs {
                    if let FollowerMsg::Data { cluster: c, value } = &r.msg {
                        if c == cluster && !follower_ids.contains(&r.from) {
                            follower_ids.push(r.from);
                            *collected = self.agg.combine(collected, value);
                            *pending_ack = Some(r.from);
                        } else if c == cluster {
                            // Duplicate (our previous ack was lost): ack
                            // again without recombining.
                            *pending_ack = Some(r.from);
                        }
                    }
                }
            }
            (
                AggRole::Follower {
                    cluster, delivered, ..
                },
                1,
            ) => {
                if let Observation::Received(r) = &obs {
                    if let FollowerMsg::Ack { to, cluster: c } = &r.msg {
                        // Several followers may have transmitted and be
                        // listening; only the addressed one is delivered.
                        if *c == *cluster && *to == me && delivered.is_none() {
                            *delivered = Some(r.from);
                        }
                    }
                }
            }
            (
                AggRole::Follower {
                    pu,
                    delivered,
                    backoff_heard,
                    cluster,
                    ..
                },
                2,
            ) if notify && delivered.is_none() => {
                if let Observation::Received(r) = &obs {
                    if matches!(&r.msg, FollowerMsg::Backoff { cluster: c } if c == cluster) {
                        *backoff_heard = true;
                    }
                }
                if !*backoff_heard {
                    *pu = (*pu * 2.0).min(lambda / 2.0);
                }
                *backoff_heard = false;
            }
            (
                AggRole::Dominator {
                    cluster,
                    count_phase,
                    total_heard,
                    collect,
                    collected,
                    follower_ids,
                    pending_ack,
                },
                0,
            ) => {
                if let Observation::Received(r) = &obs {
                    if let FollowerMsg::Data { cluster: c, value } = &r.msg {
                        if c == cluster {
                            *count_phase += 1;
                            *total_heard += 1;
                            if *collect {
                                if !follower_ids.contains(&r.from) {
                                    follower_ids.push(r.from);
                                    *collected = self.agg.combine(collected, value);
                                }
                                *pending_ack = Some(r.from);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        if ts.slot_in_round == 2 && ts.round + 1 >= self.cfg.total_rounds() {
            self.finished = true;
        }
    }

    fn is_done(&self) -> bool {
        self.finished
            || matches!(
                &self.role,
                AggRole::Follower {
                    delivered: Some(_),
                    ..
                }
            )
    }

    /// `act` and `observe` both open with the `my_slot` gate: outside its own
    /// color block the node is a no-op.
    fn quiet_until(&self, slot: u64) -> Option<u64> {
        self.cfg.tdma.next_my_slot(slot, self.color)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggfun::{MaxAgg, SumAgg};
    use mca_geom::Point;
    use mca_radio::Engine;
    use mca_sinr::SinrParams;

    fn cfg(phases: u64) -> FollowerCfg {
        FollowerCfg {
            rounds_per_phase: 40,
            backoff_threshold: 3,
            lambda: 0.5,
            tdma: Tdma::new(1, SLOTS_PER_ROUND),
            max_phases: phases,
        }
    }

    /// One cluster: dominator + 1 reporter per channel + m followers.
    fn run_cluster(m: usize, fv: u16, seed: u64) -> (Vec<FollowerAgg<SumAgg>>, u64) {
        let c = cfg(40);
        let mut positions = vec![Point::ORIGIN];
        let mut protocols = vec![FollowerAgg::dominator(SumAgg, c, NodeId(0), 0, false)];
        for ch in 0..fv {
            positions.push(Point::unit(ch as f64) * 0.3);
            protocols.push(FollowerAgg::reporter(
                SumAgg,
                c,
                NodeId(1 + ch as u32),
                NodeId(0),
                0,
                Channel(ch),
                0, // reporters carry no input in this test
            ));
        }
        for i in 0..m {
            let theta = i as f64 / m as f64 * std::f64::consts::TAU;
            positions.push(Point::unit(theta) * (0.5 + 0.4 * ((i % 5) as f64 / 5.0)));
            let pu = (0.5 * fv as f64 / m as f64).min(0.25);
            protocols.push(FollowerAgg::follower(
                SumAgg,
                c,
                NodeId(1 + fv as u32 + i as u32),
                NodeId(0),
                0,
                fv,
                1, // each follower contributes 1 => sum = m
                pu,
            ));
        }
        let mut engine = Engine::new(SinrParams::default(), positions, protocols, seed);
        let max = c.tdma.slots_for_rounds(c.total_rounds());
        engine.run_until(max, |ps: &[FollowerAgg<SumAgg>]| {
            ps.iter().all(|p| p.is_delivered())
        });
        let slots = engine.slot();
        (engine.into_protocols(), slots)
    }

    #[test]
    fn all_followers_deliver_and_sum_is_exact() {
        for (m, fv, seed) in [(20usize, 2u16, 1u64), (60, 4, 2), (10, 1, 3)] {
            let (out, _slots) = run_cluster(m, fv, seed);
            assert!(
                out.iter().all(|p| p.is_delivered()),
                "m={m} fv={fv}: undelivered followers remain"
            );
            let total: i64 = out
                .iter()
                .filter_map(|p| p.reporter_state().map(|(v, _)| *v))
                .sum();
            assert_eq!(total, m as i64, "m={m} fv={fv}: wrong aggregate");
            // No follower is double-counted across reporters.
            let mut all_ids: Vec<NodeId> = out
                .iter()
                .filter_map(|p| p.reporter_state().map(|(_, ids)| ids.to_vec()))
                .flatten()
                .collect();
            let before = all_ids.len();
            all_ids.sort_unstable();
            all_ids.dedup();
            assert_eq!(before, all_ids.len(), "duplicate follower deliveries");
        }
    }

    #[test]
    fn more_channels_deliver_faster() {
        let (_, slow) = run_cluster(80, 1, 5);
        let (_, fast) = run_cluster(80, 8, 5);
        assert!(
            fast < slow,
            "8 channels ({fast} slots) should beat 1 channel ({slow} slots)"
        );
    }

    #[test]
    fn max_aggregate_reaches_reporters() {
        let c = cfg(40);
        let positions = vec![
            Point::ORIGIN,
            Point::new(0.3, 0.0),
            Point::new(0.0, 0.5),
            Point::new(0.5, 0.5),
        ];
        let protocols = vec![
            FollowerAgg::dominator(MaxAgg, c, NodeId(0), 0, false),
            FollowerAgg::reporter(MaxAgg, c, NodeId(1), NodeId(0), 0, Channel::FIRST, 5),
            FollowerAgg::follower(MaxAgg, c, NodeId(2), NodeId(0), 0, 1, 42, 0.2),
            FollowerAgg::follower(MaxAgg, c, NodeId(3), NodeId(0), 0, 1, 7, 0.2),
        ];
        let mut engine = Engine::new(SinrParams::default(), positions, protocols, 9);
        let max = c.tdma.slots_for_rounds(c.total_rounds());
        engine.run_until(max, |ps: &[FollowerAgg<MaxAgg>]| {
            ps.iter().all(|p| p.is_delivered())
        });
        let out = engine.into_protocols();
        let (v, ids) = out[1].reporter_state().unwrap();
        assert_eq!(*v, 42);
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn passive_node_is_done() {
        let p = FollowerAgg::passive(SumAgg, cfg(1), NodeId(0));
        assert!(p.is_done());
        assert!(p.is_delivered());
    }

    #[test]
    fn contention_stays_bounded() {
        // Lemma 19 check at protocol scale: followers' total probability per
        // channel never exceeds lambda (after the initial setting).
        let c = cfg(40);
        let m = 50;
        let fv = 2u16;
        let mut positions = vec![Point::ORIGIN];
        let mut protocols = vec![FollowerAgg::dominator(SumAgg, c, NodeId(0), 0, false)];
        for ch in 0..fv {
            positions.push(Point::unit(ch as f64) * 0.3);
            protocols.push(FollowerAgg::reporter(
                SumAgg,
                c,
                NodeId(1 + ch as u32),
                NodeId(0),
                0,
                Channel(ch),
                0,
            ));
        }
        for i in 0..m {
            let theta = i as f64 / m as f64 * std::f64::consts::TAU;
            positions.push(Point::unit(theta) * 0.7);
            protocols.push(FollowerAgg::follower(
                SumAgg,
                c,
                NodeId(1 + fv as u32 + i as u32),
                NodeId(0),
                0,
                fv,
                1,
                (0.5 * fv as f64 / m as f64).min(0.25),
            ));
        }
        let mut engine = Engine::new(SinrParams::default(), positions, protocols, 11);
        let max = c.tdma.slots_for_rounds(c.total_rounds());
        let mut worst: f64 = 0.0;
        let chunk = c.tdma.slots_for_rounds(c.rounds_per_phase + 1);
        while engine.slot() < max {
            engine.run(chunk);
            let contention: f64 = engine
                .protocols()
                .iter()
                .filter_map(|p| p.current_pu())
                .sum();
            worst = worst.max(contention / fv as f64);
            if engine.protocols().iter().all(|p| p.is_delivered()) {
                break;
            }
        }
        assert!(
            worst <= 0.5 + 1e-9,
            "contention per channel exceeded lambda: {worst}"
        );
    }

    #[test]
    fn quiet_hints_are_sound() {
        use mca_radio::reference::{assert_hints_sound, random_observation};
        for seed in 0..24u64 {
            let phi = 2 + (seed % 4) as u16;
            let mut c = cfg(3);
            c.tdma = Tdma::new(phi, SLOTS_PER_ROUND);
            let (color, cluster, me) = ((seed % phi as u64) as u16, NodeId(0), NodeId(5));
            for p in [
                FollowerAgg::follower(SumAgg, c, me, cluster, color, 2, 1, 0.25),
                FollowerAgg::reporter(SumAgg, c, me, cluster, color, Channel(1), 0),
                FollowerAgg::dominator(SumAgg, c, cluster, color, seed % 2 == 0),
                FollowerAgg::passive(SumAgg, c, me),
            ] {
                assert_hints_sound(p, seed, 1500, |_, _, g| {
                    let cluster = NodeId(g.gen_range(0..2));
                    let who = NodeId(g.gen_range(4..8));
                    let msg = match g.gen_range(0..3u8) {
                        0 => FollowerMsg::Data { cluster, value: 1 },
                        1 => FollowerMsg::Ack { to: who, cluster },
                        _ => FollowerMsg::Backoff { cluster },
                    };
                    random_observation(g, 8, msg)
                });
            }
        }
    }
}
