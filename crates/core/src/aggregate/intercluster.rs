//! Inter-cluster aggregation on the dominator backbone (paper §6, third
//! procedure; `DESIGN.md` substitution #2).
//!
//! Two modes:
//!
//! * [`FloodCombine`] — the paper's sketch ("flooding with continuous
//!   constant-probability transmissions"): every dominator repeatedly
//!   broadcasts its current partial aggregate with constant probability and
//!   combines everything it hears. For **idempotent** aggregates (max, min,
//!   or, FM sketches) the global value propagates at constant speed per hop,
//!   giving `O(D + log n)` rounds; a dissemination tail delivers the result
//!   to every node (dominatees listen throughout).
//! * [`TreeExact`] — exact aggregation for duplicate-sensitive functions
//!   (sum, count, average): a beacon flood from the sink's dominator builds
//!   BFS levels and parent pointers, level-windows upcast child values with
//!   per-child deduplication, and a result flood broadcasts the total —
//!   `O(D·log n + D + log n)` as documented (the paper's `O(D + log n)`
//!   exact variant relies on \[2\]'s precomputation with power control).
//!
//! Both run on the first channel under the cluster-color TDMA.

use crate::aggfun::Aggregate;
use crate::schedule::Tdma;
use mca_radio::{Action, Channel, NodeId, Observation, Protocol};
use rand::rngs::SmallRng;
use rand::Rng;

// ---------------------------------------------------------------------------
// Flood-and-combine (idempotent aggregates).
// ---------------------------------------------------------------------------

/// Message of the flood: a partial aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodMsg<V>(pub V);

/// Configuration of the flood.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodCfg {
    /// Per-round broadcast probability `q`.
    pub q: f64,
    /// Flood rounds (`c_flood·(D̂ + ln n)`), after which dominators hold the
    /// global value w.h.p.
    pub flood_rounds: u64,
    /// Additional dissemination rounds for dominatees to pick the value up.
    pub tail_rounds: u64,
    /// TDMA schedule (1 slot per round).
    pub tdma: Tdma,
    /// Channel-hopping width: `0` or `1` pins the flood to the first
    /// channel (the paper's sketch); `h > 1` hops over channels
    /// `0..h` on a shared slot-keyed pseudo-random sequence. All nodes
    /// derive the same channel from the synchronized slot counter, so
    /// connectivity is unaffected — but an adversary jamming any *fixed*
    /// subset of `t < h` channels now hits only `t/h` of the slots
    /// (the jamming-resilience extension the paper cites as \[9\]).
    pub hop_channels: u16,
}

impl FloodCfg {
    /// Total rounds.
    pub fn total_rounds(&self) -> u64 {
        self.flood_rounds + self.tail_rounds
    }

    /// The flood channel for `slot` (shared hop sequence).
    pub fn channel_for(&self, slot: u64) -> Channel {
        if self.hop_channels <= 1 {
            return Channel::FIRST;
        }
        let h = mca_radio::rng::mix64(slot ^ 0x480F_F00D);
        Channel((h % self.hop_channels as u64) as u16)
    }
}

/// Flood-and-combine participant.
#[derive(Debug, Clone)]
pub struct FloodCombine<A: Aggregate> {
    agg: A,
    cfg: FloodCfg,
    color: u16,
    /// Dominators broadcast; everyone combines.
    is_dominator: bool,
    value: A::Value,
    heard_any: bool,
    finished: bool,
}

impl<A: Aggregate> FloodCombine<A> {
    /// A dominator holding its cluster aggregate.
    pub fn dominator(agg: A, cfg: FloodCfg, color: u16, value: A::Value) -> Self {
        assert!(
            agg.is_idempotent(),
            "flood-and-combine requires an idempotent aggregate"
        );
        assert!(cfg.q > 0.0 && cfg.q <= 0.5);
        FloodCombine {
            agg,
            cfg,
            color,
            is_dominator: true,
            value,
            heard_any: false,
            finished: false,
        }
    }

    /// A listener (dominatee): combines everything it hears.
    pub fn listener(agg: A, cfg: FloodCfg, color: u16) -> Self {
        let identity = agg.identity();
        FloodCombine {
            agg,
            cfg,
            color,
            is_dominator: false,
            value: identity,
            heard_any: false,
            finished: false,
        }
    }

    /// The node's current combined value.
    pub fn value(&self) -> &A::Value {
        &self.value
    }

    /// Whether the node heard at least one flood message.
    pub fn heard_any(&self) -> bool {
        self.heard_any || self.is_dominator
    }
}

impl<A: Aggregate> Protocol for FloodCombine<A> {
    type Msg = FloodMsg<A::Value>;

    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<Self::Msg> {
        let channel = self.cfg.channel_for(slot);
        // Listening is passive: the TDMA only gates *transmissions*, so
        // everyone (dominators of other colors included) listens outside
        // their block — otherwise differently-colored dominators could
        // never hear each other.
        let Some(ts) = self.cfg.tdma.my_slot(slot, self.color) else {
            if !self.finished {
                return Action::Listen { channel };
            }
            return Action::Idle;
        };
        if ts.round >= self.cfg.total_rounds() {
            return Action::Idle;
        }
        if self.is_dominator && rng.gen_bool(self.cfg.q) {
            Action::Transmit {
                channel,
                msg: FloodMsg(self.value.clone()),
            }
        } else {
            Action::Listen { channel }
        }
    }

    fn observe(&mut self, slot: u64, obs: Observation<Self::Msg>, _rng: &mut SmallRng) {
        if let Observation::Received(r) = &obs {
            self.value = self.agg.combine(&self.value, &r.msg.0);
            self.heard_any = true;
        }
        let d = self.cfg.tdma.decompose(slot);
        if d.round >= self.cfg.total_rounds() {
            self.finished = true;
        }
    }

    fn is_done(&self) -> bool {
        self.finished
    }

    fn listen_until(&self, slot: u64) -> Option<(Channel, u64)> {
        // A hopping flood changes channel every slot: nothing to stand on.
        if self.finished || self.cfg.hop_channels > 1 {
            return None;
        }
        // Before the last round ends a silent slot teaches nothing; from
        // there on any observation finishes the node.
        let end = self.cfg.tdma.slots_for_rounds(self.cfg.total_rounds());
        let sender = self.is_dominator.then_some(self.color);
        Some((
            Channel::FIRST,
            listen_window_end(&self.cfg.tdma, slot, sender, end),
        ))
    }
}

/// Where the listen-only window that opens after `slot` closes, for the
/// two backbone protocols ([`Protocol::listen_until`]): a dominator
/// (`sender` = its colour) flips its coin again in its next own block;
/// everyone else — and a dominator whose colour has no block — listens
/// straight through to `end`, the first slot past the last round.
fn listen_window_end(tdma: &Tdma, slot: u64, sender: Option<u16>, end: u64) -> u64 {
    sender
        .and_then(|color| tdma.next_my_slot(slot, color))
        .map_or(end, |mine| mine.min(end))
}

// ---------------------------------------------------------------------------
// Exact tree upcast (duplicate-sensitive aggregates).
// ---------------------------------------------------------------------------

/// Messages of the exact mode.
#[derive(Debug, Clone, PartialEq)]
pub enum ExactMsg<V> {
    /// BFS beacon carrying the sender's level.
    Level {
        /// Sender's BFS level (sink's dominator = 0).
        level: u32,
    },
    /// A subtree aggregate for the parent.
    Up {
        /// The parent this is addressed to.
        to: NodeId,
        /// Subtree total.
        value: V,
    },
    /// The finished global aggregate, flooded to everyone.
    Result {
        /// The global value.
        value: V,
    },
}

/// Configuration of the exact mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactCfg {
    /// Per-round transmit probability `q`.
    pub q: f64,
    /// Rounds of the level-building beacon flood (`c_flood·(D̂ + ln n)`).
    pub level_rounds: u64,
    /// Upcast window per level (`c·ln n`).
    pub window: u64,
    /// Schedule bound on the number of levels (`D̂ + 1`).
    pub max_levels: u32,
    /// Rounds of the result flood.
    pub result_rounds: u64,
    /// TDMA schedule (1 slot per round).
    pub tdma: Tdma,
}

impl ExactCfg {
    /// Total rounds of the exact mode.
    pub fn total_rounds(&self) -> u64 {
        self.level_rounds + self.max_levels as u64 * self.window + self.result_rounds
    }

    /// Which stage a round falls into.
    fn stage(&self, round: u64) -> ExactStage {
        if round < self.level_rounds {
            ExactStage::Levels
        } else if round < self.level_rounds + self.max_levels as u64 * self.window {
            let w = (round - self.level_rounds) / self.window;
            // Windows serve levels deepest-first: window w hosts level
            // max_levels - w.
            ExactStage::Upcast {
                level: self.max_levels - w as u32,
            }
        } else {
            ExactStage::Result
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExactStage {
    Levels,
    Upcast { level: u32 },
    Result,
}

/// Exact-mode participant.
#[derive(Debug, Clone)]
pub struct TreeExact<A: Aggregate> {
    agg: A,
    cfg: ExactCfg,
    me: NodeId,
    color: u16,
    is_dominator: bool,
    /// BFS level (0 = the sink's dominator/root).
    level: Option<u32>,
    parent: Option<NodeId>,
    /// Own subtree value (starts as the cluster aggregate).
    value: A::Value,
    /// Children whose subtree values were already combined.
    children_heard: Vec<NodeId>,
    /// The global result once known.
    result: Option<A::Value>,
    finished: bool,
}

impl<A: Aggregate> TreeExact<A> {
    /// A dominator holding its cluster aggregate; `is_root` marks the
    /// sink's dominator.
    pub fn dominator(
        agg: A,
        cfg: ExactCfg,
        me: NodeId,
        color: u16,
        value: A::Value,
        is_root: bool,
    ) -> Self {
        TreeExact {
            agg,
            cfg,
            me,
            color,
            is_dominator: true,
            level: is_root.then_some(0),
            parent: None,
            value,
            children_heard: Vec::new(),
            result: None,
            finished: false,
        }
    }

    /// A dominatee: listens for the result flood.
    pub fn listener(agg: A, cfg: ExactCfg, me: NodeId, color: u16) -> Self {
        let identity = agg.identity();
        TreeExact {
            agg,
            cfg,
            me,
            color,
            is_dominator: false,
            level: None,
            parent: None,
            value: identity,
            children_heard: Vec::new(),
            result: None,
            finished: false,
        }
    }

    /// The global result, once adopted.
    pub fn result(&self) -> Option<&A::Value> {
        self.result.as_ref()
    }

    /// The node's BFS level (diagnostics).
    pub fn level(&self) -> Option<u32> {
        self.level
    }
}

impl<A: Aggregate> Protocol for TreeExact<A> {
    type Msg = ExactMsg<A::Value>;

    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<Self::Msg> {
        // As above: TDMA gates transmissions only; listening is universal.
        let Some(ts) = self.cfg.tdma.my_slot(slot, self.color) else {
            if !self.finished {
                return Action::Listen {
                    channel: Channel::FIRST,
                };
            }
            return Action::Idle;
        };
        if ts.round >= self.cfg.total_rounds() {
            return Action::Idle;
        }
        let ch = Channel::FIRST;
        if !self.is_dominator {
            return Action::Listen { channel: ch };
        }
        match self.cfg.stage(ts.round) {
            ExactStage::Levels => match self.level {
                Some(level) if rng.gen_bool(self.cfg.q) => Action::Transmit {
                    channel: ch,
                    msg: ExactMsg::Level { level },
                },
                _ => Action::Listen { channel: ch },
            },
            ExactStage::Upcast { level } => {
                if self.level == Some(level) && level > 0 {
                    if let Some(parent) = self.parent {
                        if rng.gen_bool(self.cfg.q) {
                            return Action::Transmit {
                                channel: ch,
                                msg: ExactMsg::Up {
                                    to: parent,
                                    value: self.value.clone(),
                                },
                            };
                        }
                    }
                }
                Action::Listen { channel: ch }
            }
            ExactStage::Result => {
                // The root's subtree total is the global aggregate.
                if self.level == Some(0) && self.result.is_none() {
                    self.result = Some(self.value.clone());
                }
                match &self.result {
                    Some(v) if rng.gen_bool(self.cfg.q) => Action::Transmit {
                        channel: ch,
                        msg: ExactMsg::Result { value: v.clone() },
                    },
                    _ => Action::Listen { channel: ch },
                }
            }
        }
    }

    fn observe(&mut self, slot: u64, obs: Observation<Self::Msg>, _rng: &mut SmallRng) {
        if let Observation::Received(r) = &obs {
            match &r.msg {
                ExactMsg::Level { level } => {
                    if self.is_dominator && self.level.is_none() {
                        self.level = Some(level + 1);
                        self.parent = Some(r.from);
                    }
                }
                ExactMsg::Up { to, value } => {
                    if self.is_dominator && *to == self.me && !self.children_heard.contains(&r.from)
                    {
                        self.children_heard.push(r.from);
                        self.value = self.agg.combine(&self.value, value);
                    }
                }
                ExactMsg::Result { value } => {
                    if self.result.is_none() {
                        self.result = Some(value.clone());
                    }
                }
            }
        }
        let d = self.cfg.tdma.decompose(slot);
        if d.round >= self.cfg.total_rounds() {
            self.finished = true;
        }
    }

    fn is_done(&self) -> bool {
        self.finished
    }

    fn listen_until(&self, slot: u64) -> Option<(Channel, u64)> {
        // As in the flood: silence teaches nothing before the last round
        // ends, and a dominator acts (and may draw) only in its own block.
        if self.finished {
            return None;
        }
        let end = self.cfg.tdma.slots_for_rounds(self.cfg.total_rounds());
        let sender = self.is_dominator.then_some(self.color);
        Some((
            Channel::FIRST,
            listen_window_end(&self.cfg.tdma, slot, sender, end),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggfun::{MaxAgg, SumAgg};
    use mca_geom::Point;
    use mca_radio::Engine;
    use mca_sinr::SinrParams;

    /// A line of `k` dominators spaced 5 apart (R_T = 8): multi-hop backbone.
    fn dominator_line(k: usize) -> Vec<Point> {
        (0..k).map(|i| Point::new(5.0 * i as f64, 0.0)).collect()
    }

    #[test]
    fn flood_combines_max_across_hops() {
        let k = 8;
        let cfg = FloodCfg {
            q: 0.25,
            flood_rounds: 200,
            tail_rounds: 40,
            tdma: Tdma::new(1, 1),
            hop_channels: 0,
        };
        let positions = dominator_line(k);
        let protocols: Vec<FloodCombine<MaxAgg>> = (0..k)
            .map(|i| FloodCombine::dominator(MaxAgg, cfg, 0, (i as i64) * 10))
            .collect();
        let mut engine = Engine::new(SinrParams::default(), positions, protocols, 3);
        engine.run_until_done(cfg.total_rounds() + 1);
        for (i, p) in engine.protocols().iter().enumerate() {
            assert_eq!(*p.value(), 70, "dominator {i} missed the max");
        }
    }

    #[test]
    fn flood_reaches_listeners() {
        let cfg = FloodCfg {
            q: 0.25,
            flood_rounds: 120,
            tail_rounds: 40,
            tdma: Tdma::new(1, 1),
            hop_channels: 0,
        };
        let positions = vec![Point::ORIGIN, Point::new(3.0, 0.0), Point::new(6.0, 0.0)];
        let protocols = vec![
            FloodCombine::dominator(MaxAgg, cfg, 0, 99),
            FloodCombine::listener(MaxAgg, cfg, 0),
            FloodCombine::dominator(MaxAgg, cfg, 0, 5),
        ];
        let mut engine = Engine::new(SinrParams::default(), positions, protocols, 5);
        engine.run_until_done(cfg.total_rounds() + 1);
        assert_eq!(*engine.protocols()[1].value(), 99);
        assert!(engine.protocols()[1].heard_any());
    }

    #[test]
    #[should_panic(expected = "idempotent")]
    fn flood_rejects_duplicate_sensitive_aggregates() {
        let cfg = FloodCfg {
            q: 0.25,
            flood_rounds: 10,
            tail_rounds: 0,
            tdma: Tdma::new(1, 1),
            hop_channels: 0,
        };
        let _ = FloodCombine::dominator(SumAgg, cfg, 0, 1);
    }

    #[test]
    fn flood_listen_hints_are_sound() {
        use mca_radio::reference::{assert_hints_sound, random_observation};
        for seed in 0..30u64 {
            let phi = 1 + (seed % 5) as u16;
            let cfg = FloodCfg {
                q: 0.25,
                flood_rounds: 24,
                tail_rounds: 8,
                tdma: Tdma::new(phi, 1 + (seed % 2) as u16),
                hop_channels: if seed % 6 == 5 { 3 } else { 0 },
            };
            // One colour past the palette: a node that never has a block.
            let color = (seed % (u64::from(phi) + 1)) as u16;
            let end = cfg.tdma.slots_for_rounds(cfg.total_rounds());
            for p in [
                FloodCombine::dominator(MaxAgg, cfg, color, 5),
                FloodCombine::listener(MaxAgg, cfg, color),
            ] {
                // A hopping flood has no channel to stand on; a pinned one
                // stands from the first slot, a dominatee to the very end.
                let first = p.listen_until(0);
                assert_eq!(first.is_none(), cfg.hop_channels > 1);
                if !p.is_dominator && cfg.hop_channels <= 1 {
                    assert_eq!(first, Some((Channel::FIRST, end)));
                }
                assert_hints_sound(p, seed, end + 5, |_, _, g| {
                    let value = g.gen_range(0..100);
                    random_observation(g, 8, FloodMsg(value))
                });
            }
        }
    }

    fn exact_cfg(max_levels: u32) -> ExactCfg {
        ExactCfg {
            q: 0.25,
            level_rounds: 150,
            window: 60,
            max_levels,
            result_rounds: 150,
            tdma: Tdma::new(1, 1),
        }
    }

    #[test]
    fn exact_sum_on_a_line() {
        let k = 6;
        let cfg = exact_cfg(k as u32 + 1);
        let positions = dominator_line(k);
        let protocols: Vec<TreeExact<SumAgg>> = (0..k)
            .map(|i| TreeExact::dominator(SumAgg, cfg, NodeId(i as u32), 0, 1 << i, i == 0))
            .collect();
        let mut engine = Engine::new(SinrParams::default(), positions, protocols, 7);
        engine.run_until(cfg.total_rounds() + 1, |ps: &[TreeExact<SumAgg>]| {
            ps.iter().all(|p| p.result().is_some())
        });
        let expect: i64 = (0..k).map(|i| 1i64 << i).sum();
        for (i, p) in engine.protocols().iter().enumerate() {
            assert_eq!(p.result(), Some(&expect), "dominator {i} got wrong sum");
        }
    }

    #[test]
    fn exact_levels_follow_hops() {
        let k = 5;
        let cfg = exact_cfg(k as u32 + 1);
        let positions = dominator_line(k);
        let protocols: Vec<TreeExact<SumAgg>> = (0..k)
            .map(|i| TreeExact::dominator(SumAgg, cfg, NodeId(i as u32), 0, 1, i == 0))
            .collect();
        let mut engine = Engine::new(SinrParams::default(), positions, protocols, 9);
        engine.run(cfg.level_rounds + 1);
        for (i, p) in engine.protocols().iter().enumerate() {
            let l = p.level().unwrap_or(u32::MAX);
            assert!(
                l as usize <= i.max(1),
                "dominator {i} has level {l}, expected at most {i}"
            );
        }
    }

    #[test]
    fn exact_listen_hints_are_sound() {
        use mca_radio::reference::{assert_hints_sound, random_observation};
        for seed in 0..30u64 {
            let phi = 1 + (seed % 5) as u16;
            let cfg = ExactCfg {
                q: 0.25,
                level_rounds: 10,
                window: 4,
                max_levels: 3,
                result_rounds: 10,
                tdma: Tdma::new(phi, 1),
            };
            let color = (seed % (u64::from(phi) + 1)) as u16;
            let end = cfg.tdma.slots_for_rounds(cfg.total_rounds());
            let me = NodeId(1);
            for p in [
                TreeExact::dominator(SumAgg, cfg, me, color, 7, true),
                TreeExact::dominator(SumAgg, cfg, me, color, 7, false),
                TreeExact::listener(SumAgg, cfg, me, color),
            ] {
                if !p.is_dominator {
                    assert_eq!(p.listen_until(0), Some((Channel::FIRST, end)));
                }
                assert_hints_sound(p, seed, end + 5, |_, _, g| {
                    let msg = match g.gen_range(0..3u8) {
                        0 => ExactMsg::Level {
                            level: g.gen_range(0..3),
                        },
                        1 => ExactMsg::Up {
                            to: NodeId(g.gen_range(0..3)),
                            value: g.gen_range(0..50),
                        },
                        _ => ExactMsg::Result {
                            value: g.gen_range(0..50),
                        },
                    };
                    random_observation(g, 4, msg)
                });
            }
        }
    }

    #[test]
    fn exact_result_reaches_listener() {
        let cfg = exact_cfg(3);
        let positions = vec![Point::ORIGIN, Point::new(5.0, 0.0), Point::new(2.0, 1.0)];
        let protocols = vec![
            TreeExact::dominator(SumAgg, cfg, NodeId(0), 0, 10, true),
            TreeExact::dominator(SumAgg, cfg, NodeId(1), 0, 32, false),
            TreeExact::listener(SumAgg, cfg, NodeId(2), 0),
        ];
        let mut engine = Engine::new(SinrParams::default(), positions, protocols, 11);
        engine.run_until(cfg.total_rounds() + 1, |ps: &[TreeExact<SumAgg>]| {
            ps.iter().all(|p| p.result().is_some())
        });
        assert_eq!(engine.protocols()[2].result(), Some(&42));
    }
}
