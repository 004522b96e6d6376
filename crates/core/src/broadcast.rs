//! Broadcast on the aggregation structure: single-source and
//! multiple-message.
//!
//! The paper's introduction motivates channels with broadcast (references
//! \[9\] and \[4\]). The structure answers both variants:
//!
//! * **Single-source broadcast** ([`broadcast`]) *is* an aggregation: the
//!   source holds `Some(message)`, everyone else `None`, and the network
//!   aggregates with [`BcastAgg`] (idempotent max over at most one real
//!   value) — one `O(D + Δ/F + log n·log log n)` run delivers the message
//!   to every node (Theorem 22).
//!
//! * **Multiple-message broadcast** ([`broadcast_many`]) disseminates `k`
//!   messages from arbitrary sources to all nodes. Messages are *not*
//!   compressible — each transmission carries exactly one message (the
//!   one-packet-per-slot constraint of the model) — so the structure is
//!   used differently: sources first *hoist* their message to their
//!   cluster's dominator over the TDMA schedule (decay contention
//!   resolution), then the dominator backbone runs randomized *gossip*
//!   (each dominator repeatedly broadcasts a uniformly random held
//!   message) while all cluster members listen in. Every node must receive
//!   `k` distinct packets, so `Ω(k)` rounds per node are unavoidable no
//!   matter how many channels exist — the same receive-bottleneck that
//!   limits the information-exchange speedup of the paper's reference
//!   \[37\]. The measured shape (`O(k + D + log n)` gossip rounds, no
//!   channel speedup on the `k` term) is exactly this fundamental limit;
//!   contrast with the linear speedup of the compressible case.

use crate::aggfun::Aggregate;
use crate::config::AlgoConfig;
use crate::schedule::Tdma;
use crate::structure::{aggregate, AggregationStructure, InterclusterMode, NetworkEnv};
use mca_radio::{Action, Channel, NodeId, Observation, Protocol};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Single-source broadcast as an aggregation.
// ---------------------------------------------------------------------------

/// A broadcast message tagged with its source.
///
/// Ordered by `(src, payload)` so that a set of sourced messages has a
/// deterministic maximum — with a single source, the maximum *is* the
/// message, which is how [`BcastAgg`] turns broadcast into an idempotent
/// aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sourced {
    /// The originating node.
    pub src: NodeId,
    /// The message payload (an opaque word; larger payloads are carried by
    /// indexing into application storage).
    pub payload: u64,
}

/// The broadcast aggregate: maximum over at most one real value.
///
/// `None` is the identity; with exactly one source the network-wide
/// maximum is that source's message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BcastAgg;

impl Aggregate for BcastAgg {
    type Value = Option<Sourced>;

    fn identity(&self) -> Option<Sourced> {
        None
    }

    fn combine(&self, a: &Option<Sourced>, b: &Option<Sourced>) -> Option<Sourced> {
        (*a).max(*b)
    }

    fn is_idempotent(&self) -> bool {
        true
    }
}

/// Result of a single-source broadcast.
#[derive(Debug, Clone)]
pub struct BroadcastOutcome {
    /// The message each node ended with (`None` = never reached).
    pub received: Vec<Option<Sourced>>,
    /// Nodes that hold the source's message.
    pub coverage: usize,
    /// Slots of the follower→reporter procedure.
    pub follower_slots: u64,
    /// Slots of the reporter-tree convergecast.
    pub tree_slots: u64,
    /// Slots of the inter-cluster flood.
    pub inter_slots: u64,
}

impl BroadcastOutcome {
    /// Total slots across the three procedures.
    pub fn total_slots(&self) -> u64 {
        self.follower_slots + self.tree_slots + self.inter_slots
    }
}

/// Broadcasts `payload` from `source` to every node (paper Theorem 22
/// applied to the [`BcastAgg`] aggregate).
///
/// # Examples
///
/// ```no_run
/// use mca_core::{broadcast, build_structure, AlgoConfig, NetworkEnv, StructureConfig};
/// use mca_geom::Deployment;
/// use mca_radio::NodeId;
/// use mca_sinr::SinrParams;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let params = SinrParams::default();
/// let mut rng = SmallRng::seed_from_u64(1);
/// let deploy = Deployment::uniform(100, 10.0, &mut rng);
/// let env = NetworkEnv::new(params, &deploy);
/// let algo = AlgoConfig::practical(4, &params, 100);
/// let structure = build_structure(&env, &StructureConfig::new(algo, 1));
/// let d_hat = env.comm_graph().diameter_approx() + 2;
/// let out = broadcast(&env, &structure, &algo, NodeId(3), 0xFEED, d_hat, 7);
/// println!("{} of 100 nodes reached", out.coverage);
/// ```
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn broadcast(
    env: &NetworkEnv,
    structure: &AggregationStructure,
    algo: &AlgoConfig,
    source: NodeId,
    payload: u64,
    d_hat: u32,
    seed: u64,
) -> BroadcastOutcome {
    let n = env.len();
    assert!(source.index() < n, "source {source} out of range");
    let msg = Sourced {
        src: source,
        payload,
    };
    let inputs: Vec<Option<Sourced>> = (0..n)
        .map(|i| (i == source.index()).then_some(msg))
        .collect();
    let out = aggregate(
        env,
        structure,
        algo,
        BcastAgg,
        &inputs,
        InterclusterMode::Flood,
        d_hat,
        seed,
    );
    let received: Vec<Option<Sourced>> = out.values.iter().map(|v| v.and_then(|x| x)).collect();
    let coverage = received.iter().filter(|v| **v == Some(msg)).count();
    BroadcastOutcome {
        received,
        coverage,
        follower_slots: out.follower_slots,
        tree_slots: out.tree_slots,
        inter_slots: out.inter_slots,
    }
}

// ---------------------------------------------------------------------------
// Multiple-message broadcast: hoist + backbone gossip.
// ---------------------------------------------------------------------------

/// Messages of the hoist/gossip protocols.
#[derive(Debug, Clone, PartialEq, Eq)]
enum GossipMsg {
    /// A data message (hoist slot 0, or gossip).
    Data(Sourced),
    /// Dominator acknowledgement of a hoisted message (hoist slot 1).
    Ack(Sourced),
}

/// Hoist phase: sources deliver their message to their cluster dominator.
///
/// Two slots per TDMA round on the first channel: sources transmit with a
/// decaying probability in slot 0 (a "decay" sweep — probability halves
/// each round of a sweep, then resets — resolves unknown per-cluster
/// source counts); the dominator echoes what it decoded in slot 1, and an
/// acknowledged source halts.
#[derive(Debug, Clone)]
struct HoistCast {
    cfg: HoistCfg,
    color: u16,
    role: HoistRole,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct HoistCfg {
    /// Rounds per decay sweep (probability halves each round in a sweep).
    sweep_len: u32,
    /// Total TDMA rounds.
    rounds: u64,
    tdma: Tdma,
}

#[derive(Debug, Clone)]
enum HoistRole {
    /// A source still trying to deliver `msg`.
    Source { msg: Sourced, delivered: bool },
    /// The cluster head, collecting; `pending` echoes in slot 1.
    Dominator {
        collected: BTreeSet<Sourced>,
        pending: Option<Sourced>,
    },
    /// Everyone else sits the phase out.
    Bystander,
}

impl HoistCast {
    const SLOTS_PER_ROUND: u16 = 2;

    fn source(cfg: HoistCfg, color: u16, msg: Sourced) -> Self {
        HoistCast {
            cfg,
            color,
            role: HoistRole::Source {
                msg,
                delivered: false,
            },
        }
    }

    fn dominator(cfg: HoistCfg, color: u16) -> Self {
        HoistCast {
            cfg,
            color,
            role: HoistRole::Dominator {
                collected: BTreeSet::new(),
                pending: None,
            },
        }
    }

    fn bystander(cfg: HoistCfg) -> Self {
        HoistCast {
            cfg,
            color: 0,
            role: HoistRole::Bystander,
        }
    }

    fn collected(&self) -> Option<&BTreeSet<Sourced>> {
        match &self.role {
            HoistRole::Dominator { collected, .. } => Some(collected),
            _ => None,
        }
    }

    fn is_delivered(&self) -> bool {
        match &self.role {
            HoistRole::Source { delivered, .. } => *delivered,
            _ => true,
        }
    }
}

impl Protocol for HoistCast {
    type Msg = GossipMsg;

    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<GossipMsg> {
        let Some(d) = self.cfg.tdma.my_slot(slot, self.color) else {
            return Action::Idle;
        };
        if d.round >= self.cfg.rounds {
            return Action::Idle;
        }
        match (&mut self.role, d.slot_in_round) {
            (HoistRole::Source { msg, delivered }, 0) if !*delivered => {
                // Decay: transmit with probability 2^{-(1 + round mod sweep)}.
                let step = (d.round % self.cfg.sweep_len as u64) as i32;
                let p = 0.5f64.powi(1 + step);
                if rng.gen_bool(p) {
                    Action::Transmit {
                        channel: Channel::FIRST,
                        msg: GossipMsg::Data(*msg),
                    }
                } else {
                    Action::Idle
                }
            }
            (HoistRole::Source { delivered, .. }, 1) if !*delivered => Action::Listen {
                channel: Channel::FIRST,
            },
            (HoistRole::Dominator { .. }, 0) => Action::Listen {
                channel: Channel::FIRST,
            },
            (HoistRole::Dominator { pending, .. }, 1) => match pending.take() {
                Some(m) => Action::Transmit {
                    channel: Channel::FIRST,
                    msg: GossipMsg::Ack(m),
                },
                None => Action::Idle,
            },
            _ => Action::Idle,
        }
    }

    fn observe(&mut self, _slot: u64, obs: Observation<GossipMsg>, _rng: &mut SmallRng) {
        let Some(rec) = obs.reception() else { return };
        match (&mut self.role, &rec.msg) {
            (
                HoistRole::Dominator {
                    collected, pending, ..
                },
                GossipMsg::Data(m),
            ) => {
                collected.insert(*m);
                *pending = Some(*m);
            }
            (HoistRole::Source { msg, delivered }, GossipMsg::Ack(m)) if m == msg => {
                *delivered = true;
            }
            _ => {}
        }
    }

    fn is_done(&self) -> bool {
        matches!(
            &self.role,
            HoistRole::Source {
                delivered: true,
                ..
            }
        )
    }

    /// `act` opens with the `my_slot` gate and `observe` ignores everything
    /// but a reception, so outside its own color block the node is a no-op.
    fn quiet_until(&self, slot: u64) -> Option<u64> {
        self.cfg.tdma.next_my_slot(slot, self.color)
    }
}

/// Gossip phase: dominators broadcast uniformly random held messages under
/// the TDMA; every node listens on the first channel and collects.
#[derive(Debug, Clone)]
struct GossipCast {
    cfg: GossipCfg,
    color: u16,
    is_dominator: bool,
    held: BTreeSet<Sourced>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct GossipCfg {
    /// Per-round transmission probability `q`.
    q: f64,
    /// Total TDMA rounds.
    rounds: u64,
    tdma: Tdma,
}

impl GossipCast {
    fn new(cfg: GossipCfg, color: u16, is_dominator: bool, held: BTreeSet<Sourced>) -> Self {
        assert!(
            cfg.q > 0.0 && cfg.q <= 0.5,
            "gossip probability out of range"
        );
        GossipCast {
            cfg,
            color,
            is_dominator,
            held,
        }
    }

    fn held(&self) -> &BTreeSet<Sourced> {
        &self.held
    }
}

impl Protocol for GossipCast {
    type Msg = GossipMsg;

    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<GossipMsg> {
        let d = self.cfg.tdma.decompose(slot);
        if d.round >= self.cfg.rounds {
            return Action::Idle;
        }
        let my_block = d.active_color == self.color;
        if self.is_dominator && my_block && !self.held.is_empty() && rng.gen_bool(self.cfg.q) {
            let idx = rng.gen_range(0..self.held.len());
            let msg = *self
                .held
                .iter()
                .nth(idx)
                .expect("index drawn within set size");
            return Action::Transmit {
                channel: Channel::FIRST,
                msg: GossipMsg::Data(msg),
            };
        }
        Action::Listen {
            channel: Channel::FIRST,
        }
    }

    fn observe(&mut self, _slot: u64, obs: Observation<GossipMsg>, _rng: &mut SmallRng) {
        if let Some(rec) = obs.reception() {
            if let GossipMsg::Data(m) = &rec.msg {
                self.held.insert(*m);
            }
        }
    }
}

/// Result of a multiple-message broadcast.
#[derive(Debug, Clone)]
pub struct GossipOutcome {
    /// Number of the `k` input messages each node ended with.
    pub delivered: Vec<usize>,
    /// Nodes holding **all** `k` messages.
    pub full_coverage: usize,
    /// Sources whose message never reached their dominator (lost inputs).
    pub unhoisted: usize,
    /// Slots of the hoist phase.
    pub hoist_slots: u64,
    /// Slots of the gossip phase.
    pub gossip_slots: u64,
}

impl GossipOutcome {
    /// Total slots across both phases.
    pub fn total_slots(&self) -> u64 {
        self.hoist_slots + self.gossip_slots
    }

    /// Fraction of `(node, message)` pairs delivered.
    pub fn delivery_fraction(&self, k: usize) -> f64 {
        if k == 0 || self.delivered.is_empty() {
            return 1.0;
        }
        let total: usize = self.delivered.iter().sum();
        total as f64 / (k * self.delivered.len()) as f64
    }
}

/// Disseminates `messages` (source, payload pairs) to every node.
///
/// Sources hoist their message to their cluster dominator (decay
/// contention resolution under the TDMA), then the dominator backbone
/// gossips for `O(k + D + log n)` rounds while all members listen.
///
/// # Examples
///
/// ```no_run
/// use mca_core::{broadcast_many, build_structure, AlgoConfig, NetworkEnv, StructureConfig};
/// use mca_geom::Deployment;
/// use mca_radio::NodeId;
/// use mca_sinr::SinrParams;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let params = SinrParams::default();
/// let mut rng = SmallRng::seed_from_u64(1);
/// let deploy = Deployment::uniform(150, 10.0, &mut rng);
/// let env = NetworkEnv::new(params, &deploy);
/// let algo = AlgoConfig::practical(4, &params, 150);
/// let structure = build_structure(&env, &StructureConfig::new(algo, 1));
/// let d_hat = env.comm_graph().diameter_approx() + 2;
/// let msgs = [(NodeId(3), 30), (NodeId(70), 700)];
/// let out = broadcast_many(&env, &structure, &algo, &msgs, d_hat, 9);
/// println!("{} nodes hold both messages", out.full_coverage);
/// ```
///
/// # Panics
///
/// Panics if any source id is out of range or a source appears twice
/// (the model grants one packet per node per slot; a node with several
/// messages should send them in separate calls).
pub fn broadcast_many(
    env: &NetworkEnv,
    structure: &AggregationStructure,
    algo: &AlgoConfig,
    messages: &[(NodeId, u64)],
    d_hat: u32,
    seed: u64,
) -> GossipOutcome {
    let n = env.len();
    let k = messages.len();
    let mut by_source: std::collections::HashMap<usize, Sourced> = std::collections::HashMap::new();
    for &(src, payload) in messages {
        assert!(src.index() < n, "source {src} out of range");
        let prev = by_source.insert(src.index(), Sourced { src, payload });
        assert!(prev.is_none(), "source {src} holds two messages");
    }
    let phi = structure.phi.max(1);
    let records = &structure.records;

    // --- Phase 1: hoist sources' messages to their dominators. ---
    let sweep_len = (algo.know.log2_n() as u32 + 2).max(2);
    let hoist_cfg = HoistCfg {
        sweep_len,
        // Enough sweeps for k messages plus the w.h.p. tail: each sweep
        // delivers at least one contender per cluster with constant
        // probability.
        rounds: (sweep_len as u64) * (k as u64 + algo.ln_n().ceil() as u64 + 2),
        tdma: Tdma::new(phi, HoistCast::SLOTS_PER_ROUND),
    };
    let protocols: Vec<HoistCast> = (0..n)
        .map(|i| {
            let r = &records[i];
            let color = r.cluster_color.unwrap_or(0);
            match (by_source.get(&i), r.role.is_dominator(), r.cluster) {
                // Dominator sources collect their own message in place.
                (Some(_), true, _) | (None, true, _) => HoistCast::dominator(hoist_cfg, color),
                (Some(m), false, Some(_)) => HoistCast::source(hoist_cfg, color, *m),
                _ => HoistCast::bystander(hoist_cfg),
            }
        })
        .collect();
    let (hoisted, hoist_slots) = env.run_phase(
        protocols,
        None,
        mca_radio::rng::derive_seed(seed, 0xB0A57),
        hoist_cfg.tdma.slots_for_rounds(hoist_cfg.rounds) + 1,
        |_, ps| ps.iter().all(|p| p.is_delivered()),
    );
    let unhoisted = hoisted.iter().filter(|p| !p.is_delivered()).count();

    // --- Phase 2: backbone gossip. ---
    let gossip_cfg = GossipCfg {
        q: algo.consts.flood_prob,
        rounds: (algo.consts.c_flood * (k as f64 + 1.0) * (d_hat as f64 + algo.ln_n())).ceil()
            as u64,
        tdma: Tdma::new(phi, 1),
    };
    let protocols: Vec<GossipCast> = (0..n)
        .map(|i| {
            let r = &records[i];
            let color = r.cluster_color.unwrap_or(0);
            let mut held: BTreeSet<Sourced> = hoisted[i].collected().cloned().unwrap_or_default();
            // A dominator that is itself a source starts with its message.
            if let Some(m) = by_source.get(&i) {
                if r.role.is_dominator() {
                    held.insert(*m);
                }
            }
            GossipCast::new(gossip_cfg, color, r.role.is_dominator(), held)
        })
        .collect();
    let want: BTreeSet<Sourced> = by_source.values().copied().collect();
    let (out, gossip_slots) = env.run_phase(
        protocols,
        None,
        mca_radio::rng::derive_seed(seed, 0xB0A58),
        gossip_cfg.tdma.slots_for_rounds(gossip_cfg.rounds) + 1,
        |_, ps| ps.iter().all(|p| p.held().is_superset(&want)),
    );

    let delivered: Vec<usize> = out
        .iter()
        .map(|p| p.held().intersection(&want).count())
        .collect();
    let full_coverage = delivered.iter().filter(|&&c| c == k).count();

    GossipOutcome {
        delivered,
        full_coverage,
        unhoisted,
        hoist_slots,
        gossip_slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{build_structure, StructureConfig, SubstrateMode};
    use mca_geom::Deployment;
    use mca_sinr::SinrParams;
    use rand::{rngs::SmallRng, SeedableRng};

    fn setup(
        n: usize,
        side: f64,
        channels: u16,
        seed: u64,
    ) -> (NetworkEnv, AggregationStructure, AlgoConfig) {
        let params = SinrParams::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let deploy = Deployment::uniform(n, side, &mut rng);
        let env = NetworkEnv::new(params, &deploy);
        let algo = AlgoConfig::practical(channels, &params, n);
        let mut cfg = StructureConfig::new(algo, seed);
        cfg.substrate = SubstrateMode::Oracle;
        let s = build_structure(&env, &cfg);
        (env, s, algo)
    }

    #[test]
    fn bcast_agg_laws() {
        let agg = BcastAgg;
        let vals = [
            None,
            Some(Sourced {
                src: NodeId(1),
                payload: 10,
            }),
            Some(Sourced {
                src: NodeId(2),
                payload: 5,
            }),
        ];
        for a in &vals {
            assert_eq!(agg.combine(a, &agg.identity()), *a);
            assert_eq!(agg.combine(a, a), *a);
            for b in &vals {
                assert_eq!(agg.combine(a, b), agg.combine(b, a));
                for c in &vals {
                    assert_eq!(
                        agg.combine(a, &agg.combine(b, c)),
                        agg.combine(&agg.combine(a, b), c)
                    );
                }
            }
        }
    }

    #[test]
    fn single_source_reaches_almost_everyone() {
        let (env, s, algo) = setup(150, 12.0, 8, 201);
        let d_hat = env.comm_graph().diameter_approx() + 2;
        let out = broadcast(&env, &s, &algo, NodeId(17), 0xFEED, d_hat, 9);
        assert!(
            out.coverage * 10 >= 150 * 9,
            "coverage {}/150 too low",
            out.coverage
        );
        assert_eq!(
            out.received[42],
            Some(Sourced {
                src: NodeId(17),
                payload: 0xFEED
            })
        );
    }

    #[test]
    fn broadcast_from_dominator_works() {
        let (env, s, algo) = setup(100, 10.0, 4, 203);
        let dominator = s.dominators()[0];
        let d_hat = env.comm_graph().diameter_approx() + 2;
        let out = broadcast(&env, &s, &algo, dominator, 1, d_hat, 5);
        assert!(out.coverage * 10 >= 100 * 9);
    }

    #[test]
    fn gossip_delivers_all_messages() {
        let (env, s, algo) = setup(120, 10.0, 4, 205);
        let messages: Vec<(NodeId, u64)> =
            vec![(NodeId(3), 30), (NodeId(40), 40), (NodeId(99), 99)];
        let d_hat = env.comm_graph().diameter_approx() + 2;
        let out = broadcast_many(&env, &s, &algo, &messages, d_hat, 13);
        assert_eq!(out.unhoisted, 0, "a source failed to hoist");
        assert!(
            out.full_coverage * 10 >= 120 * 9,
            "full coverage {}/120 too low (delivery {:.2})",
            out.full_coverage,
            out.delivery_fraction(3)
        );
    }

    #[test]
    fn gossip_with_empty_message_set_is_trivial() {
        let (env, s, algo) = setup(60, 8.0, 2, 207);
        let out = broadcast_many(&env, &s, &algo, &[], 4, 1);
        assert_eq!(out.unhoisted, 0);
        assert_eq!(out.full_coverage, 60);
        assert!((out.delivery_fraction(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "holds two messages")]
    fn duplicate_source_rejected() {
        let (env, s, algo) = setup(40, 7.0, 2, 209);
        let _ = broadcast_many(&env, &s, &algo, &[(NodeId(1), 1), (NodeId(1), 2)], 4, 1);
    }

    #[test]
    fn quiet_hints_are_sound() {
        use mca_radio::reference::{assert_hints_sound, random_observation};
        for seed in 0..24u64 {
            let phi = 2 + (seed % 4) as u16;
            let cfg = HoistCfg {
                sweep_len: 4,
                rounds: 40,
                tdma: Tdma::new(phi, HoistCast::SLOTS_PER_ROUND),
            };
            let color = (seed % phi as u64) as u16;
            let mine = Sourced {
                src: NodeId(3),
                payload: 9,
            };
            for p in [
                HoistCast::source(cfg, color, mine),
                HoistCast::dominator(cfg, color),
                HoistCast::bystander(cfg),
            ] {
                assert_hints_sound(p, seed, 600, |_, _, g| {
                    let m = Sourced {
                        src: NodeId(g.gen_range(3..5)),
                        payload: 9,
                    };
                    let msg = if g.gen_bool(0.5) {
                        GossipMsg::Data(m)
                    } else {
                        GossipMsg::Ack(m)
                    };
                    random_observation(g, 8, msg)
                });
            }
        }
    }
}
