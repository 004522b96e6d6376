//! The node coloring algorithm (paper §7, Theorem 24).
//!
//! Dominators of cluster color `i` hand out node colors from the residue
//! class `{k·φ + i : k = 0, 1, 2, …}`, so adjacent clusters (whose
//! dominators are within `R_{ε/2}` and therefore differently colored) can
//! never collide. Within a cluster, four procedures assign distinct `k`:
//!
//! 1. followers register their IDs with the reporters: a call to the §6
//!    follower phase that [`aggregate`](crate::structure::aggregate) runs, with a
//!    zero Sum input, keeping the follower-id lists the reporters collect;
//! 2. subtree *counts* converge up the reporter tree: a call to the §6
//!    tree phase, each holder starting from `1 + own followers` and
//!    keeping its per-child counts;
//! 3. disjoint *color ranges* cascade back down the tree ([`RangeCast`]);
//! 4. each reporter announces one follower color per round on its own
//!    channel ([`AssignColors`]).
//!
//! Procedures run sequentially (`DESIGN.md` deviation #3); the paper
//! interleaves them in four slots per round with identical asymptotics.

use crate::aggfun::SumAgg;
use crate::config::AlgoConfig;
use crate::knowledge::Role;
use crate::schedule::Tdma;
use crate::structure::{all_done, follower_phase, tree_phase, AggregationStructure, NetworkEnv};
use crate::tree::HeapTree;
use mca_radio::rng::derive_seed;
use mca_radio::{Action, Channel, NodeId, Observation, Protocol};
use rand::rngs::SmallRng;

// ---------------------------------------------------------------------------
// Procedure 3: color ranges down the tree.
// ---------------------------------------------------------------------------

/// A range assignment for one child position: colors `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeAssign {
    /// Child heap position the range is for.
    pub pos: u16,
    /// First color index (inclusive).
    pub lo: u64,
    /// One past the last color index.
    pub hi: u64,
}

/// Message of the range downcast.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeMsg {
    /// Cluster scope.
    pub cluster: NodeId,
    /// Up to two child assignments.
    pub assigns: Vec<RangeAssign>,
}

/// The range-downcast protocol (one slot per round; round `r` lets depth-`r`
/// holders transmit to depth-`r+1` children on their own channel).
#[derive(Debug, Clone)]
pub struct RangeCast {
    fv: u16,
    tdma: Tdma,
    cluster: NodeId,
    color: u16,
    /// Positions this node represents (takeover chain from procedure 2).
    serve: Vec<u16>,
    /// Number of own followers.
    n_followers: u64,
    /// Per-child subtree counts from procedure 2.
    child_counts: Vec<(u16, u64)>,
    /// The range received for the topmost served position.
    range: Option<(u64, u64)>,
    /// Assignment plan: ranges for external children (computed on arrival).
    plan: Vec<RangeAssign>,
    /// This node's own color index.
    own_index: Option<u64>,
    passive: bool,
    finished: bool,
}

impl RangeCast {
    /// A participant serving positions `serve` (chain from procedure 2,
    /// original first), with `n_followers` own followers and the child
    /// counts recorded during the count convergecast. The dominator serves
    /// position 0 and seeds `total` as its range.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        fv: u16,
        tdma: Tdma,
        cluster: NodeId,
        color: u16,
        serve: Vec<u16>,
        n_followers: u64,
        child_counts: Vec<(u16, u64)>,
        total_if_root: Option<u64>,
    ) -> Self {
        assert!(
            !serve.is_empty(),
            "a participant serves at least one position"
        );
        assert_eq!(tdma.slots_per_round(), 1, "range cast uses 1-slot rounds");
        let mut rc = RangeCast {
            fv: fv.max(1),
            tdma,
            cluster,
            color,
            serve,
            n_followers,
            child_counts,
            range: None,
            plan: Vec::new(),
            own_index: None,
            passive: false,
            finished: false,
        };
        if let Some(total) = total_if_root {
            rc.accept_range(0, total);
        }
        rc
    }

    /// A node outside the procedure.
    pub fn passive(fv: u16, tdma: Tdma, cluster: NodeId) -> Self {
        RangeCast {
            fv: fv.max(1),
            tdma,
            cluster,
            color: 0,
            serve: vec![1],
            n_followers: 0,
            child_counts: Vec::new(),
            range: None,
            plan: Vec::new(),
            own_index: None,
            passive: true,
            finished: true,
        }
    }

    fn tree(&self) -> HeapTree {
        HeapTree::new(self.fv)
    }

    /// Topmost (shallowest) served position — where the range arrives.
    fn top(&self) -> u16 {
        *self.serve.last().unwrap()
    }

    /// Consumes an incoming range: fixes the own color index, follower
    /// block, and the per-external-child plan.
    fn accept_range(&mut self, lo: u64, hi: u64) {
        if self.range.is_some() {
            return;
        }
        self.range = Some((lo, hi));
        self.own_index = Some(lo);
        let mut cursor = lo + 1 + self.n_followers;
        let mut kids = self.child_counts.clone();
        kids.sort_unstable_by_key(|&(p, _)| p);
        for (pos, count) in kids {
            let hi_child = (cursor + count).min(hi);
            self.plan.push(RangeAssign {
                pos,
                lo: cursor,
                hi: hi_child,
            });
            cursor = hi_child;
        }
    }

    /// The color index this node took for itself.
    pub fn own_index(&self) -> Option<u64> {
        self.own_index
    }

    /// Colors reserved for this node's followers: `[base, base + n)`.
    pub fn follower_base(&self) -> Option<u64> {
        self.range.map(|(lo, _)| lo + 1)
    }

    /// Total rounds of the downcast: one per depth.
    pub fn rounds(&self) -> u64 {
        self.tree().max_depth() as u64
    }
}

impl Protocol for RangeCast {
    type Msg = RangeMsg;

    fn act(&mut self, slot: u64, _rng: &mut SmallRng) -> Action<RangeMsg> {
        if self.passive {
            return Action::Idle;
        }
        let Some(ts) = self.tdma.my_slot(slot, self.color) else {
            return Action::Idle;
        };
        if ts.round >= self.rounds() {
            return Action::Idle;
        }
        let tree = self.tree();
        let depth_now = ts.round as u16; // depth-`round` holders transmit
                                         // Transmit ranges for external children of any served position at
                                         // that position's depth.
        if self.range.is_some() {
            for &q in &self.serve {
                if tree.depth(q) == depth_now {
                    let assigns: Vec<RangeAssign> = self
                        .plan
                        .iter()
                        .filter(|a| a.pos / 2 == q)
                        .copied()
                        .collect();
                    if !assigns.is_empty() {
                        return Action::Transmit {
                            channel: tree.channel_of(q),
                            msg: RangeMsg {
                                cluster: self.cluster,
                                assigns,
                            },
                        };
                    }
                }
            }
        }
        // Listen for our own range: the parent of our topmost position
        // transmits at depth(top) − 1 on its own channel.
        let top = self.top();
        if self.range.is_none() && top >= 1 && tree.depth(top) == depth_now + 1 {
            return Action::Listen {
                channel: tree.channel_of(tree.parent(top)),
            };
        }
        Action::Idle
    }

    fn observe(&mut self, slot: u64, obs: Observation<RangeMsg>, _rng: &mut SmallRng) {
        let Some(ts) = self.tdma.my_slot(slot, self.color) else {
            return;
        };
        if let Observation::Received(r) = &obs {
            if r.msg.cluster == self.cluster {
                let top = self.top();
                if let Some(a) = r.msg.assigns.iter().find(|a| a.pos == top) {
                    self.accept_range(a.lo, a.hi);
                }
            }
        }
        if ts.round + 1 >= self.rounds() {
            self.finished = true;
        }
    }

    fn is_done(&self) -> bool {
        self.finished
    }

    /// Outside its own color block `act` idles (passive or gated) and
    /// `observe` returns at the `my_slot` gate.
    fn quiet_until(&self, slot: u64) -> Option<u64> {
        self.tdma.next_my_slot(slot, self.color)
    }
}

// ---------------------------------------------------------------------------
// Procedure 4: announce follower colors.
// ---------------------------------------------------------------------------

/// Message assigning a color index to one follower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignMsg {
    /// Cluster scope.
    pub cluster: NodeId,
    /// The follower being colored.
    pub follower: NodeId,
    /// Its within-cluster color index.
    pub index: u64,
}

/// The color-announcement protocol: reporters (and rescue dominators) send
/// one assignment per round on their own channel, twice each for
/// robustness; followers listen on the channel of their reporter.
#[derive(Debug, Clone)]
pub struct AssignColors {
    tdma: Tdma,
    cluster: NodeId,
    color: u16,
    /// Sender state: the queue of `(follower, index)` pairs.
    queue: Vec<(NodeId, u64)>,
    channel: Channel,
    /// Listener state.
    me: NodeId,
    listening: bool,
    my_index: Option<u64>,
    rounds_cap: u64,
    finished: bool,
}

impl AssignColors {
    /// A sender (reporter or rescue dominator) on `channel`.
    #[allow(clippy::too_many_arguments)]
    pub fn sender(
        tdma: Tdma,
        cluster: NodeId,
        color: u16,
        channel: Channel,
        queue: Vec<(NodeId, u64)>,
        rounds_cap: u64,
    ) -> Self {
        AssignColors {
            tdma,
            cluster,
            color,
            queue,
            channel,
            me: NodeId(u32::MAX),
            listening: false,
            my_index: None,
            rounds_cap,
            finished: false,
        }
    }

    /// A follower listening on its reporter's `channel`.
    pub fn listener(
        tdma: Tdma,
        cluster: NodeId,
        color: u16,
        channel: Channel,
        me: NodeId,
        rounds_cap: u64,
    ) -> Self {
        AssignColors {
            tdma,
            cluster,
            color,
            queue: Vec::new(),
            channel,
            me,
            listening: true,
            my_index: None,
            rounds_cap,
            finished: false,
        }
    }

    /// A node outside the procedure.
    pub fn passive(tdma: Tdma, cluster: NodeId) -> Self {
        let mut p = AssignColors::sender(tdma, cluster, 0, Channel::FIRST, Vec::new(), 0);
        p.finished = true;
        p
    }

    /// The color index this listener received.
    pub fn my_index(&self) -> Option<u64> {
        self.my_index
    }
}

impl Protocol for AssignColors {
    type Msg = AssignMsg;

    fn act(&mut self, slot: u64, _rng: &mut SmallRng) -> Action<AssignMsg> {
        let Some(ts) = self.tdma.my_slot(slot, self.color) else {
            return Action::Idle;
        };
        if ts.round >= self.rounds_cap {
            return Action::Idle;
        }
        if self.listening {
            if self.my_index.is_none() {
                return Action::Listen {
                    channel: self.channel,
                };
            }
            return Action::Idle;
        }
        // Senders: each assignment goes out twice (even/odd repetition).
        let idx = (ts.round / 2) as usize;
        if idx < self.queue.len() {
            let (follower, index) = self.queue[idx];
            Action::Transmit {
                channel: self.channel,
                msg: AssignMsg {
                    cluster: self.cluster,
                    follower,
                    index,
                },
            }
        } else {
            Action::Idle
        }
    }

    fn observe(&mut self, slot: u64, obs: Observation<AssignMsg>, _rng: &mut SmallRng) {
        let Some(ts) = self.tdma.my_slot(slot, self.color) else {
            return;
        };
        if self.listening {
            if let Observation::Received(r) = &obs {
                if r.msg.cluster == self.cluster && r.msg.follower == self.me {
                    self.my_index = Some(r.msg.index);
                }
            }
            if self.my_index.is_some() {
                self.finished = true;
            }
        } else if (ts.round / 2) as usize >= self.queue.len() {
            self.finished = true;
        }
        if ts.round + 1 >= self.rounds_cap {
            self.finished = true;
        }
    }

    fn is_done(&self) -> bool {
        self.finished
    }

    /// `act` and `observe` both open with the `my_slot` gate: outside its own
    /// color block the node is a no-op.
    fn quiet_until(&self, slot: u64) -> Option<u64> {
        self.tdma.next_my_slot(slot, self.color)
    }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

/// Result of the coloring algorithm.
#[derive(Debug, Clone)]
pub struct ColoringOutcome {
    /// Final color per node (`k·φ + cluster_color`); `None` when the node
    /// never received one (counted in `uncolored`).
    pub colors: Vec<Option<u32>>,
    /// Slots of procedure 1 (ID registration).
    pub p1_slots: u64,
    /// Slots of procedure 2 (count convergecast).
    pub p2_slots: u64,
    /// Slots of procedure 3 (range downcast).
    pub p3_slots: u64,
    /// Slots of procedure 4 (assignments).
    pub p4_slots: u64,
    /// Nodes without a color at the end.
    pub uncolored: usize,
}

impl ColoringOutcome {
    /// Total slots over the four procedures.
    pub fn total_slots(&self) -> u64 {
        self.p1_slots + self.p2_slots + self.p3_slots + self.p4_slots
    }

    /// Number of distinct colors used.
    pub fn palette_size(&self) -> usize {
        let mut seen: Vec<u32> = self.colors.iter().flatten().copied().collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }
}

/// Runs the §7 coloring over a built structure (Theorem 24).
pub fn color_nodes(
    env: &NetworkEnv,
    structure: &AggregationStructure,
    algo: &AlgoConfig,
    seed: u64,
) -> ColoringOutcome {
    let n = env.len();
    let phi = structure.phi.max(1) as u32;
    let records = &structure.records;

    // --- Procedure 1: followers register IDs (the count is irrelevant). ---
    let (p1, p1_slots, _) = follower_phase(
        env,
        structure,
        algo,
        SumAgg,
        |_| 0,
        derive_seed(seed, 0xC0102),
    );
    let own_followers = |i: usize| p1[i].reporter_state().map_or(0, |(_, ids)| ids.len());

    // --- Procedure 2: subtree counts up the tree. ---
    let (p2, p2_slots) = tree_phase(
        env,
        structure,
        SumAgg,
        |i| 1 + own_followers(i) as i64,
        derive_seed(seed, 0xC0103),
    );

    // --- Procedure 3: ranges down the tree. ---
    let max_fv = records
        .iter()
        .filter_map(|r| r.cluster_channels)
        .max()
        .unwrap_or(1);
    let rc_tdma = Tdma::new(phi as u16, 1);
    let protocols: Vec<RangeCast> = (0..n)
        .map(|i| {
            let r = &records[i];
            let color = r.cluster_color.unwrap_or(0);
            let fv = r.cluster_channels.unwrap_or(1);
            let followers = own_followers(i) as u64;
            let child_counts: Vec<(u16, u64)> = p2[i]
                .child_values()
                .iter()
                .map(|&(p, v)| (p, v.max(0) as u64))
                .collect();
            match (r.role, r.cluster) {
                (Role::Dominator, Some(c)) => {
                    let total = (*p2[i].value()).max(1) as u64;
                    RangeCast::new(
                        fv,
                        rc_tdma,
                        c,
                        color,
                        vec![0],
                        followers,
                        child_counts,
                        Some(total),
                    )
                }
                (Role::Reporter { .. }, Some(c)) => RangeCast::new(
                    fv,
                    rc_tdma,
                    c,
                    color,
                    p2[i].chain().to_vec(),
                    followers,
                    child_counts,
                    None,
                ),
                _ => RangeCast::passive(fv, rc_tdma, r.cluster.unwrap_or(NodeId(i as u32))),
            }
        })
        .collect();
    let rcap = rc_tdma.slots_for_rounds(HeapTree::new(max_fv).max_depth() as u64 + 1) + 1;
    let (p3, p3_slots) = env.run_phase(protocols, None, derive_seed(seed, 0xC0104), rcap, all_done);

    // --- Procedure 4: announce follower colors. ---
    let a_tdma = Tdma::new(phi as u16, 1);
    // Senders: reporters (and rescue dominators) with their follower queues.
    let max_queue = (0..n).map(own_followers).max().unwrap_or(0) as u64;
    let rounds_cap = 2 * max_queue + 4;
    let protocols: Vec<AssignColors> = (0..n)
        .map(|i| {
            let r = &records[i];
            let color = r.cluster_color.unwrap_or(0);
            match (r.role, r.cluster) {
                (Role::Dominator | Role::Reporter { .. }, Some(c)) => {
                    let queue: Vec<(NodeId, u64)> =
                        match (p1[i].reporter_state(), p3[i].follower_base()) {
                            (Some((_, ids)), Some(base)) => ids
                                .iter()
                                .enumerate()
                                .map(|(k, &f)| (f, base + k as u64))
                                .collect(),
                            _ => Vec::new(),
                        };
                    let channel = match r.role {
                        Role::Reporter { heap_pos } => Channel(heap_pos - 1),
                        _ => Channel::FIRST,
                    };
                    AssignColors::sender(a_tdma, c, color, channel, queue, rounds_cap)
                }
                (Role::Follower, Some(c)) => {
                    // Listen on the channel of the reporter we delivered to.
                    let ch = p1[i]
                        .delivered_to()
                        .and_then(|rep| match records[rep.index()].role {
                            Role::Reporter { heap_pos } => Some(Channel(heap_pos - 1)),
                            Role::Dominator => Some(Channel::FIRST),
                            _ => None,
                        })
                        .unwrap_or(Channel::FIRST);
                    AssignColors::listener(a_tdma, c, color, ch, NodeId(i as u32), rounds_cap)
                }
                _ => AssignColors::passive(a_tdma, NodeId(i as u32)),
            }
        })
        .collect();
    let (p4, p4_slots) = env.run_phase(
        protocols,
        None,
        derive_seed(seed, 0xC0105),
        a_tdma.slots_for_rounds(rounds_cap) + 1,
        all_done,
    );

    // --- Assemble final colors: k·φ + cluster_color. ---
    let mut colors: Vec<Option<u32>> = vec![None; n];
    for i in 0..n {
        let r = &records[i];
        let Some(ccolor) = r.cluster_color else {
            continue;
        };
        let k = match r.role {
            Role::Dominator | Role::Reporter { .. } => p3[i].own_index(),
            Role::Follower => p4[i].my_index(),
            Role::Undecided => None,
        };
        colors[i] = k.map(|k| (k as u32) * phi + ccolor as u32);
    }
    let uncolored = colors.iter().filter(|c| c.is_none()).count();

    ColoringOutcome {
        colors,
        p1_slots,
        p2_slots,
        p3_slots,
        p4_slots,
        uncolored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{build_structure, StructureConfig, SubstrateMode};
    use mca_geom::Deployment;
    use mca_sinr::SinrParams;
    use rand::{rngs::SmallRng, SeedableRng};

    fn run_coloring(
        n: usize,
        side: f64,
        channels: u16,
        seed: u64,
    ) -> (NetworkEnv, ColoringOutcome) {
        let params = SinrParams::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let deploy = Deployment::uniform(n, side, &mut rng);
        let env = NetworkEnv::new(params, &deploy);
        let algo = AlgoConfig::practical(channels, &params, n);
        let mut cfg = StructureConfig::new(algo, seed);
        cfg.substrate = SubstrateMode::Oracle;
        let s = build_structure(&env, &cfg);
        let out = color_nodes(&env, &s, &algo, seed);
        (env, out)
    }

    #[test]
    fn coloring_is_proper_on_comm_graph() {
        let (env, out) = run_coloring(200, 14.0, 8, 41);
        assert_eq!(out.uncolored, 0, "uncolored nodes remain");
        let g = env.comm_graph();
        let colors: Vec<u32> = out.colors.iter().map(|c| c.unwrap()).collect();
        assert_eq!(
            g.coloring_violation(&colors),
            None,
            "adjacent nodes share a color"
        );
    }

    #[test]
    fn palette_is_linear_in_max_degree() {
        let (env, out) = run_coloring(250, 12.0, 8, 43);
        assert_eq!(out.uncolored, 0);
        let delta = env.comm_graph().max_degree();
        let palette = out.palette_size();
        assert!(
            palette <= 12 * (delta + 1),
            "palette {palette} vs Δ = {delta}"
        );
    }

    #[test]
    fn all_colors_distinct_within_cluster_range() {
        // Colors are distinct across any adjacent pair; globally the count
        // of nodes per color stays small on a dense instance.
        let (_, out) = run_coloring(120, 6.0, 4, 47);
        assert_eq!(out.uncolored, 0);
        let mut counts = std::collections::HashMap::new();
        for c in out.colors.iter().flatten() {
            *counts.entry(*c).or_insert(0usize) += 1;
        }
        // On a 6x6 field with R_eps = 4 most nodes are mutually adjacent;
        // no color should repeat more than a handful of times.
        let max_reuse = counts.values().max().copied().unwrap_or(0);
        assert!(max_reuse <= 4, "color reused {max_reuse} times");
    }

    #[test]
    fn range_cast_plan_partitions() {
        // Unit check: a node with 3 followers and children of sizes 5 and 2
        // splits [10, 21) into itself=10, followers 11..14, kids [14,19),[19,21).
        let tdma = Tdma::new(1, 1);
        let rc = RangeCast::new(
            3,
            tdma,
            NodeId(0),
            0,
            vec![1],
            3,
            vec![(3, 2), (2, 5)],
            Some(11),
        );
        // total_if_root treats this as the root with range [0, 11).
        assert_eq!(rc.own_index(), Some(0));
        assert_eq!(rc.follower_base(), Some(1));
        let plan = rc.plan.clone();
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan[0],
            RangeAssign {
                pos: 2,
                lo: 4,
                hi: 9
            }
        );
        assert_eq!(
            plan[1],
            RangeAssign {
                pos: 3,
                lo: 9,
                hi: 11
            }
        );
    }

    #[test]
    fn coloring_slot_accounting() {
        let (_, out) = run_coloring(80, 8.0, 4, 53);
        assert_eq!(
            out.total_slots(),
            out.p1_slots + out.p2_slots + out.p3_slots + out.p4_slots
        );
        assert!(out.p1_slots > 0 && out.p4_slots > 0);
    }

    #[test]
    fn quiet_hints_are_sound() {
        use mca_radio::reference::{assert_hints_sound, random_observation};
        use rand::Rng;
        for seed in 0..24u64 {
            let phi = 2 + (seed % 4) as u16;
            let tdma = Tdma::new(phi, 1);
            let (color, cluster, me) = ((seed % phi as u64) as u16, NodeId(0), NodeId(9));
            for p in [
                RangeCast::new(
                    7,
                    tdma,
                    cluster,
                    color,
                    vec![0],
                    2,
                    vec![(1, 3), (2, 4)],
                    Some(10),
                ),
                RangeCast::new(7, tdma, cluster, color, vec![3, 1], 1, vec![(2, 2)], None),
                RangeCast::passive(7, tdma, cluster),
            ] {
                assert_hints_sound(p, seed, 200, |_, _, g| {
                    let msg = RangeMsg {
                        cluster: NodeId(g.gen_range(0..2)),
                        assigns: vec![RangeAssign {
                            pos: g.gen_range(1..8),
                            lo: 1,
                            hi: g.gen_range(2..9),
                        }],
                    };
                    random_observation(g, 8, msg)
                });
            }
            for p in [
                AssignColors::sender(
                    tdma,
                    cluster,
                    color,
                    Channel(1),
                    vec![(me, 4), (NodeId(3), 5)],
                    12,
                ),
                AssignColors::listener(tdma, cluster, color, Channel(1), me, 12),
                AssignColors::passive(tdma, cluster),
            ] {
                assert_hints_sound(p, seed, 200, |_, _, g| {
                    let msg = AssignMsg {
                        cluster: NodeId(g.gen_range(0..2)),
                        follower: NodeId(g.gen_range(8..11)),
                        index: g.gen_range(0..9),
                    };
                    random_observation(g, 8, msg)
                });
            }
        }
    }
}
