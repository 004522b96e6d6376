//! Deterministic convergecast on the reporter tree (paper §6, second
//! procedure; Lemma 16) with the Appendix-A auxiliary-node takeover.
//!
//! Rounds proceed from the deepest tree level upward; in the round for
//! depth `d`, reporters at depth `d` transmit their partial aggregate to
//! their parent on the *parent's* channel — odd heap positions in the first
//! send slot, even in the second (the paper's third/fourth slot rule), each
//! followed by an acknowledgement slot.
//!
//! If a sender receives no ack, the parent position is vacant (its channel
//! elected no reporter — possible in the Appendix-A setting). Per the
//! paper, the child then "functions as its parent": the odd child (or the
//! even child when it has no odd sibling) adopts the parent position, acks
//! its sibling in the same round, and transmits at the parent's scheduled
//! round. Under the cluster TDMA, each transmission is the only one in its
//! cluster on its channel, so Lemma 9 makes the schedule deterministic.

use crate::aggfun::Aggregate;
use crate::schedule::Tdma;
use crate::tree::HeapTree;
use mca_radio::{Action, Channel, NodeId, Observation, Protocol};
use rand::rngs::SmallRng;

/// Messages of the convergecast.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeMsg<V> {
    /// A partial aggregate travelling to the parent position.
    Up {
        /// Cluster scope.
        cluster: NodeId,
        /// Heap position of the sender.
        from_pos: u16,
        /// Partial aggregate of the sender's subtree.
        value: V,
    },
    /// Parent acknowledgement.
    Ack {
        /// Cluster scope.
        cluster: NodeId,
        /// Heap position being acknowledged.
        to_pos: u16,
    },
}

/// Slots per round: send-odd, ack-odd, send-even, ack-even.
pub const SLOTS_PER_ROUND: u16 = 4;

/// Configuration shared by a cluster's participants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeCfg {
    /// Number of channel positions (`f_v`).
    pub fv: u16,
    /// TDMA schedule (`slots_per_round` = 4).
    pub tdma: Tdma,
}

impl TreeCfg {
    /// The tree geometry.
    pub fn tree(&self) -> HeapTree {
        HeapTree::new(self.fv)
    }

    /// Convergecast rounds.
    pub fn rounds(&self) -> u64 {
        self.tree().rounds() as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TreeRole {
    /// The dominator (heap position 0).
    Dominator,
    /// A reporter currently acting as heap position `pos ≥ 1`.
    Reporter {
        pos: u16,
        sent: bool,
    },
    Passive,
}

/// Per-node convergecast state machine.
#[derive(Debug, Clone)]
pub struct TreeCast<A: Aggregate> {
    agg: A,
    cfg: TreeCfg,
    cluster: NodeId,
    color: u16,
    role: TreeRole,
    value: A::Value,
    /// Per-child contributions, keyed by the sender's (possibly taken-over)
    /// heap position — retained for the coloring algorithm's range split.
    child_values: Vec<(u16, A::Value)>,
    /// Positions this node has occupied, in order (original first); length
    /// > 1 records takeovers of vacant parents.
    chain: Vec<u16>,
    /// Ack to send in the upcoming ack slot, if any.
    pending_ack: Option<u16>,
    /// Whether this node transmitted in the current round's send slot and
    /// is awaiting the matching ack.
    awaiting_ack: bool,
    /// Whether the value was delivered upward (acked).
    delivered: bool,
    finished: bool,
}

impl<A: Aggregate> TreeCast<A> {
    /// The dominator, seeded with its own input value.
    pub fn dominator(agg: A, cfg: TreeCfg, cluster: NodeId, color: u16, value: A::Value) -> Self {
        TreeCast {
            agg,
            cfg,
            cluster,
            color,
            role: TreeRole::Dominator,
            value,
            child_values: Vec::new(),
            chain: vec![0],
            pending_ack: None,
            awaiting_ack: false,
            delivered: false,
            finished: false,
        }
    }

    /// The reporter elected on channel `pos − 1`, seeded with the value it
    /// collected from its followers.
    pub fn reporter(
        agg: A,
        cfg: TreeCfg,
        cluster: NodeId,
        color: u16,
        pos: u16,
        value: A::Value,
    ) -> Self {
        assert!(pos >= 1 && pos <= cfg.fv, "heap position out of range");
        TreeCast {
            agg,
            cfg,
            cluster,
            color,
            role: TreeRole::Reporter { pos, sent: false },
            value,
            child_values: Vec::new(),
            chain: vec![pos],
            pending_ack: None,
            awaiting_ack: false,
            delivered: false,
            finished: false,
        }
    }

    /// A node outside the procedure.
    pub fn passive(agg: A, cfg: TreeCfg, cluster: NodeId) -> Self {
        let identity = agg.identity();
        TreeCast {
            agg,
            cfg,
            cluster,
            color: 0,
            role: TreeRole::Passive,
            value: identity,
            child_values: Vec::new(),
            chain: Vec::new(),
            pending_ack: None,
            awaiting_ack: false,
            delivered: false,
            finished: true,
        }
    }

    /// The accumulated value (the cluster aggregate, at the dominator, once
    /// the protocol finished).
    pub fn value(&self) -> &A::Value {
        &self.value
    }

    /// Whether a reporter's value reached its parent.
    pub fn is_delivered(&self) -> bool {
        self.delivered
    }

    /// Current heap position (tracks takeovers).
    pub fn position(&self) -> Option<u16> {
        match self.role {
            TreeRole::Dominator => Some(0),
            TreeRole::Reporter { pos, .. } => Some(pos),
            TreeRole::Passive => None,
        }
    }

    /// Per-child contributions received, keyed by sender position.
    pub fn child_values(&self) -> &[(u16, A::Value)] {
        &self.child_values
    }

    /// The positions this node occupied, original first (takeover chain).
    pub fn chain(&self) -> &[u16] {
        &self.chain
    }
}

impl<A: Aggregate> Protocol for TreeCast<A> {
    type Msg = TreeMsg<A::Value>;

    fn act(&mut self, slot: u64, _rng: &mut SmallRng) -> Action<Self::Msg> {
        let Some(ts) = self.cfg.tdma.my_slot(slot, self.color) else {
            return Action::Idle;
        };
        if ts.round >= self.cfg.rounds() {
            return Action::Idle;
        }
        let tree = self.cfg.tree();
        let depth_now = tree.max_depth() - ts.round as u16;
        match self.role {
            TreeRole::Dominator => {
                // Listen while depth-1 children transmit; ack in ack slots.
                if depth_now == 1 {
                    match ts.slot_in_round {
                        0 | 2 => Action::Listen {
                            channel: Channel::FIRST,
                        },
                        _ => match self.pending_ack.take() {
                            Some(p) => Action::Transmit {
                                channel: Channel::FIRST,
                                msg: TreeMsg::Ack {
                                    cluster: self.cluster,
                                    to_pos: p,
                                },
                            },
                            None => Action::Idle,
                        },
                    }
                } else {
                    Action::Idle
                }
            }
            TreeRole::Reporter { pos, sent } => {
                let my_depth = tree.depth(pos);
                let parent_ch = tree.channel_of(tree.parent(pos));
                let own_ch = tree.channel_of(pos);
                if my_depth == depth_now && !sent {
                    // My turn to transmit to the parent.
                    let first = tree.is_first_subslot(pos);
                    match (ts.slot_in_round, first) {
                        (0, true) | (2, false) => {
                            self.awaiting_ack = true;
                            Action::Transmit {
                                channel: parent_ch,
                                msg: TreeMsg::Up {
                                    cluster: self.cluster,
                                    from_pos: pos,
                                    value: self.value.clone(),
                                },
                            }
                        }
                        (1, true) | (3, false) => Action::Listen { channel: parent_ch },
                        _ => Action::Idle,
                    }
                } else if my_depth + 1 == depth_now && tree.children(pos).next().is_some() {
                    // My children transmit this round: listen + ack on my
                    // own channel.
                    match ts.slot_in_round {
                        0 | 2 => Action::Listen { channel: own_ch },
                        _ => match self.pending_ack.take() {
                            Some(p) => Action::Transmit {
                                channel: own_ch,
                                msg: TreeMsg::Ack {
                                    cluster: self.cluster,
                                    to_pos: p,
                                },
                            },
                            None => Action::Idle,
                        },
                    }
                } else {
                    Action::Idle
                }
            }
            TreeRole::Passive => Action::Idle,
        }
    }

    fn observe(&mut self, slot: u64, obs: Observation<Self::Msg>, _rng: &mut SmallRng) {
        let Some(ts) = self.cfg.tdma.my_slot(slot, self.color) else {
            return;
        };
        if ts.round >= self.cfg.rounds() {
            self.finished = true;
            return;
        }
        let tree = self.cfg.tree();
        // Parent-side: accumulate decoded Up messages.
        if let Observation::Received(r) = &obs {
            match &r.msg {
                TreeMsg::Up {
                    cluster,
                    from_pos,
                    value,
                } if *cluster == self.cluster => {
                    let my_pos = self.position().unwrap_or(u16::MAX);
                    if my_pos != u16::MAX
                        && *from_pos >= 1
                        && tree.parent(*from_pos) == my_pos
                        && !self.child_values.iter().any(|(p, _)| p == from_pos)
                    {
                        self.child_values.push((*from_pos, value.clone()));
                        self.value = self.agg.combine(&self.value, value);
                        self.pending_ack = Some(*from_pos);
                    }
                }
                TreeMsg::Ack { cluster, to_pos }
                    if *cluster == self.cluster
                        && self.awaiting_ack
                        && Some(*to_pos) == self.position() =>
                {
                    self.awaiting_ack = false;
                    self.delivered = true;
                    if let TreeRole::Reporter { pos, .. } = self.role {
                        self.role = TreeRole::Reporter { pos, sent: true };
                    }
                }
                _ => {}
            }
        }
        // Missing-ack handling at the end of an ack slot: take over the
        // vacant parent position if the rule allows.
        if self.awaiting_ack
            && matches!(ts.slot_in_round, 1 | 3)
            && matches!(obs, Observation::Received(_) | Observation::Noise { .. })
        {
            self.awaiting_ack = false;
            if let TreeRole::Reporter { pos, .. } = self.role {
                let parent = tree.parent(pos);
                // The odd child claims the vacant parent; the even child
                // only when it has no odd sibling. Position 0 (the
                // dominator) is never vacant.
                let may_take = parent >= 1 && (pos % 2 == 1 || !tree.odd_sibling_exists(pos));
                if may_take {
                    self.role = TreeRole::Reporter {
                        pos: parent,
                        sent: false,
                    };
                    self.chain.push(parent);
                } else {
                    // Undeliverable; surfaced via `is_delivered`.
                    self.role = TreeRole::Reporter { pos, sent: true };
                }
            }
        }
        if ts.slot_in_round == 3 && ts.round + 1 >= self.cfg.rounds() {
            self.finished = true;
        }
    }

    fn is_done(&self) -> bool {
        self.finished
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
    use crate::aggfun::SumAgg;
    use mca_geom::Point;
    use mca_radio::Engine;
    use mca_sinr::SinrParams;

    /// Builds a cluster with the dominator at the origin and reporters on a
    /// small circle; `present[k-1]` controls whether position `k` is filled.
    fn run_tree(present: &[bool], seed: u64) -> (i64, u64) {
        let fv = present.len() as u16;
        let cfg = TreeCfg {
            fv,
            tdma: Tdma::new(1, SLOTS_PER_ROUND),
        };
        let mut positions = vec![Point::ORIGIN];
        // Dominator's own input = 1000.
        let mut protocols = vec![TreeCast::dominator(SumAgg, cfg, NodeId(0), 0, 1000)];
        for (i, &here) in present.iter().enumerate() {
            if here {
                let theta = i as f64;
                positions.push(Point::unit(theta) * 0.5);
                // Reporter at position i+1 carries value 2^(i+1).
                protocols.push(TreeCast::reporter(
                    SumAgg,
                    cfg,
                    NodeId(0),
                    0,
                    (i + 1) as u16,
                    1 << (i + 1),
                ));
            }
        }
        let mut engine = Engine::new(SinrParams::default(), positions, protocols, seed);
        engine.run_until_done(cfg.tdma.slots_for_rounds(cfg.rounds()) + 4);
        let slots = engine.slot();
        let out = engine.into_protocols();
        (*out[0].value(), slots)
    }

    #[test]
    fn full_tree_aggregates_exactly() {
        for fv in [1usize, 2, 3, 4, 7] {
            let present = vec![true; fv];
            let (total, _) = run_tree(&present, 42);
            let expect: i64 = 1000 + (1..=fv).map(|k| 1i64 << k).sum::<i64>();
            assert_eq!(total, expect, "fv={fv}");
        }
    }

    #[test]
    fn convergecast_time_matches_lemma_16() {
        // rounds = max_depth; slots = 4·rounds (ack slots double Lemma 16's
        // 2·⌊log(fv+1)⌋ sends).
        let present = vec![true; 7];
        let (_, slots) = run_tree(&present, 1);
        let cfg = TreeCfg {
            fv: 7,
            tdma: Tdma::new(1, SLOTS_PER_ROUND),
        };
        assert_eq!(cfg.rounds(), 3);
        assert!(slots <= cfg.tdma.slots_for_rounds(3) + 4);
    }

    #[test]
    fn vacant_parent_taken_over_by_odd_child() {
        // fv=3, position 1 vacant: position 3 (odd child of 1) must take
        // over and deliver; position 2's value flows through it as well.
        let (total, _) = run_tree(&[false, true, true], 3);
        assert_eq!(total, 1000 + 4 + 8);
    }

    #[test]
    fn vacant_parent_even_child_without_sibling() {
        // fv=2, position 1 vacant: position 2 (even, no odd sibling) takes
        // over.
        let (total, _) = run_tree(&[false, true], 4);
        assert_eq!(total, 1000 + 4);
    }

    #[test]
    fn vacant_leaf_is_harmless() {
        // fv=3, position 3 vacant: 1 and 2 still aggregate.
        let (total, _) = run_tree(&[true, true, false], 5);
        assert_eq!(total, 1000 + 2 + 4);
    }

    #[test]
    fn deep_chain_of_vacancies() {
        // fv=7: only positions 7 and 5 filled. 7 (odd) climbs through the
        // vacant 3 and reaches the dominator; 5 (odd child of 2) climbs to
        // 2, where — as an even position whose odd sibling 3 is vacant at
        // its own send round — delivery depends on the interleaving.
        let (total, _) = run_tree(&[false, false, false, false, true, false, true], 6);
        // Position 7 carries 128, position 5 carries 32; 1000 is the
        // dominator's own. Never double-count; 7 must arrive.
        assert!(
            total == 1000 + 128 + 32 || total == 1000 + 128,
            "unexpected total {total}"
        );
    }

    #[test]
    fn passive_done_immediately() {
        let cfg = TreeCfg {
            fv: 2,
            tdma: Tdma::new(1, SLOTS_PER_ROUND),
        };
        let p = TreeCast::passive(SumAgg, cfg, NodeId(0));
        assert!(p.is_done());
    }

    #[test]
    #[should_panic(expected = "heap position out of range")]
    fn bad_position_rejected() {
        let cfg = TreeCfg {
            fv: 2,
            tdma: Tdma::new(1, SLOTS_PER_ROUND),
        };
        let _ = TreeCast::reporter(SumAgg, cfg, NodeId(0), 0, 5, 0);
    }

    #[test]
    fn quiet_hints_are_sound() {
        use mca_radio::reference::{assert_hints_sound, random_observation};
        use rand::Rng;
        for seed in 0..24u64 {
            let phi = 2 + (seed % 4) as u16;
            let cfg = TreeCfg {
                fv: 7,
                tdma: Tdma::new(phi, SLOTS_PER_ROUND),
            };
            let (color, cluster) = ((seed % phi as u64) as u16, NodeId(0));
            for p in [
                TreeCast::dominator(SumAgg, cfg, cluster, color, 1000),
                TreeCast::reporter(SumAgg, cfg, cluster, color, 1 + (seed % 7) as u16, 3),
                TreeCast::passive(SumAgg, cfg, cluster),
            ] {
                assert_hints_sound(p, seed, 400, |_, _, g| {
                    let cluster = NodeId(g.gen_range(0..2));
                    let pos = g.gen_range(1..8);
                    let msg = if g.gen_bool(0.5) {
                        TreeMsg::Up {
                            cluster,
                            from_pos: pos,
                            value: 7,
                        }
                    } else {
                        TreeMsg::Ack {
                            cluster,
                            to_pos: pos,
                        }
                    };
                    random_observation(g, 8, msg)
                });
            }
        }
    }
}
