//! End-to-end construction and use of the aggregation structure
//! (paper §5 + §6): the library's top-level API.
//!
//! [`build_structure`] runs the phase pipeline — dominating set, dominator
//! coloring, cluster announce, cluster-size approximation, reporter
//! election — carrying only *locally learned* per-node knowledge
//! ([`NodeRecord`]) between phases (the paper's synchronized phase
//! switching). [`aggregate`] then runs the three procedures of §6 on the
//! structure.
//!
//! Every phase reports its slot count so experiments can decompose
//! Theorem 22's `O(D + Δ/F + log n log log n)` into its terms.

use crate::aggfun::Aggregate;
use crate::aggregate::follower::{self, FollowerAgg, FollowerCfg};
use crate::aggregate::intercluster::{ExactCfg, FloodCfg, FloodCombine, TreeExact};
use crate::aggregate::treecast::{self, TreeCast, TreeCfg};
use crate::cluster;
use crate::config::AlgoConfig;
use crate::knowledge::{NodeRecord, Role};
use crate::schedule::Tdma;
use crate::stages;
use mca_geom::{CommGraph, Deployment, Point};
use mca_radio::rng::derive_seed;
use mca_radio::{Channel, Engine, NodeId, Protocol};
use mca_sinr::SinrParams;

/// The simulated network: true physics plus node positions.
#[derive(Debug, Clone)]
pub struct NetworkEnv {
    /// Ground-truth physical parameters.
    pub params: SinrParams,
    /// Node positions (index = node id).
    pub positions: Vec<Point>,
}

impl NetworkEnv {
    /// Wraps a deployment.
    pub fn new(params: SinrParams, deployment: &Deployment) -> Self {
        NetworkEnv {
            params,
            positions: deployment.points().to_vec(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the network is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The communication graph `G` at radius `R_ε` (ground truth for
    /// experiments; protocols never see it).
    pub fn comm_graph(&self) -> CommGraph {
        CommGraph::build(&self.positions, self.params.r_eps())
    }

    /// Runs one protocol phase: a fresh engine over this network with one
    /// protocol per node, master seed `seed`, and every node outside
    /// `alive` absent (crash-stopped from slot 0). The engine steps until
    /// `stop(slot, protocols)` holds or `cap` slots have run; `stop` is
    /// asked before every slot and once more at the cap. Returns the
    /// protocols' end states and the number of slots run.
    pub fn run_phase<P: Protocol>(
        &self,
        protocols: Vec<P>,
        alive: Option<&[bool]>,
        seed: u64,
        cap: u64,
        mut stop: impl FnMut(u64, &[P]) -> bool,
    ) -> (Vec<P>, u64) {
        let mut engine = Engine::new(self.params, self.positions.clone(), protocols, seed)
            .with_faults(stages::absence_plan(alive));
        while !stop(engine.slot(), engine.protocols()) && engine.slot() < cap {
            engine.step();
        }
        let slots = engine.slot();
        (engine.into_protocols(), slots)
    }
}

/// The stop rule of a phase that runs until every protocol is done.
pub fn all_done<P: Protocol>(_slot: u64, protocols: &[P]) -> bool {
    protocols.iter().all(Protocol::is_done)
}

/// How the dominating-set substrate is obtained (`DESIGN.md` #1, A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubstrateMode {
    /// The distributed CAND/JOIN/DOM protocol (default).
    #[default]
    Distributed,
    /// Centrally computed greedy (ablation: factors the substrate out).
    Oracle,
}

/// Configuration of structure construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructureConfig {
    /// Algorithm constants and knowledge.
    pub algo: AlgoConfig,
    /// Master seed.
    pub seed: u64,
    /// Substrate mode.
    pub substrate: SubstrateMode,
    /// Dominating/cluster radius. The paper's `r_c` is extremely small once
    /// its constants are instantiated; the practical default is
    /// `ε·R_T/4` (the second term of the paper's own `r_c` definition),
    /// with cluster separation still enforced at `R_{ε/2}` by the coloring.
    pub cluster_radius: f64,
    /// Known upper bound `Δ̂` on cluster sizes for the CSA (defaults to
    /// `n̂`).
    pub delta_hat: Option<u64>,
}

impl StructureConfig {
    /// Sensible defaults for `algo` and `seed`.
    pub fn new(algo: AlgoConfig, seed: u64) -> Self {
        let p = algo.node_params();
        StructureConfig {
            algo,
            seed,
            substrate: SubstrateMode::Distributed,
            cluster_radius: p.eps * p.transmission_range() / 4.0,
            delta_hat: None,
        }
    }

    pub(crate) fn delta_hat(&self) -> u64 {
        self.delta_hat
            .unwrap_or(self.algo.know.n_bound as u64)
            .max(2)
    }
}

/// Per-phase slot accounting of the construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildReport {
    /// Dominating-set slots (0 for the oracle substrate).
    pub dominate_slots: u64,
    /// Dominator-coloring slots.
    pub coloring_slots: u64,
    /// Announce/attach slots.
    pub announce_slots: u64,
    /// Cluster-size-approximation slots.
    pub csa_slots: u64,
    /// Reporter-election slots.
    pub election_slots: u64,
    /// Number of clusters.
    pub clusters: usize,
    /// Measured TDMA color count `φ`.
    pub phi: u16,
    /// Nodes left without a cluster (coverage holes; should be 0).
    pub unclustered: usize,
    /// Dominating-set timeout self-joins (quality metric).
    pub timeout_joins: usize,
    /// Cluster members whose CSA estimate had to be back-filled from their
    /// dominator (missed notify receptions; quality metric).
    pub estimate_fills: usize,
    /// Cluster channels that elected a reporter / total cluster channels.
    pub channels_filled: usize,
    /// Total cluster channels across clusters.
    pub channels_total: usize,
}

impl BuildReport {
    /// Total construction slots.
    pub fn total_slots(&self) -> u64 {
        self.dominate_slots
            + self.coloring_slots
            + self.announce_slots
            + self.csa_slots
            + self.election_slots
    }
}

/// The constructed aggregation structure.
#[derive(Debug, Clone)]
pub struct AggregationStructure {
    /// Per-node knowledge records.
    pub records: Vec<NodeRecord>,
    /// TDMA color count.
    pub phi: u16,
    /// Construction accounting.
    pub report: BuildReport,
    /// Cluster → members index (`members[d]` lists the members of the
    /// cluster headed by node `d`, dominator included). Maintained by
    /// [`AggregationStructure::rebuild_members_index`].
    members: Vec<Vec<NodeId>>,
}

impl AggregationStructure {
    /// Assembles a structure from finished records, building the members
    /// index.
    pub fn new(records: Vec<NodeRecord>, phi: u16, report: BuildReport) -> Self {
        let mut s = AggregationStructure {
            records,
            phi,
            report,
            members: Vec::new(),
        };
        s.rebuild_members_index();
        s
    }

    /// Ids of all dominators.
    pub fn dominators(&self) -> Vec<NodeId> {
        self.records
            .iter()
            .filter(|r| r.role.is_dominator())
            .map(|r| r.id)
            .collect()
    }

    /// Members (including the dominator) of `cluster` — `O(members)` via
    /// the precomputed index (previously a full-record scan per call).
    ///
    /// The index reflects `records` as of the last
    /// [`AggregationStructure::rebuild_members_index`]; mutating `records`
    /// directly leaves it stale until the next rebuild. Between a
    /// mutation and a rebuild the index is a *superset* under the
    /// maintenance layer's detach-then-rebuild discipline (entries are
    /// never missing, only possibly ex-members), which is why
    /// `StructureMaintainer` re-validates each entry's `cluster` field
    /// instead of trusting the list — do the same, or rebuild first, if
    /// you mutate `records` yourself.
    pub fn members_of(&self, cluster: NodeId) -> &[NodeId] {
        self.members
            .get(cluster.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Recomputes the cluster → members index from `records`. Call after
    /// mutating `records` directly; [`build_structure`] and the
    /// [`crate::maintain`] repair operations keep it fresh themselves.
    pub fn rebuild_members_index(&mut self) {
        let n = self.records.len();
        self.members.iter_mut().for_each(Vec::clear);
        self.members.resize_with(n, Vec::new);
        for r in &self.records {
            if let Some(c) = r.cluster {
                self.members[c.index()].push(r.id);
            }
        }
    }
}

/// Builds the aggregation structure (paper §5; Theorem 10) over the whole
/// network. Equivalent to [`build_structure_masked`] with every node live.
pub fn build_structure(env: &NetworkEnv, cfg: &StructureConfig) -> AggregationStructure {
    build_structure_masked(env, cfg, None)
}

/// Builds the aggregation structure over the live subset of the network:
/// nodes with `alive[i] = false` (crashed, or not yet joined) are absent
/// from every phase engine and end up outside the structure (blank
/// records). The construction is the stage pipeline of [`crate::stages`] —
/// dominating set, coloring + announce/attach, cluster-size approximation,
/// reporter election — which the [`crate::maintain`] layer re-invokes
/// piecewise for incremental repair.
pub fn build_structure_masked(
    env: &NetworkEnv,
    cfg: &StructureConfig,
    alive: Option<&[bool]>,
) -> AggregationStructure {
    build_structure_observed(env, cfg, alive, None)
}

/// [`build_structure_masked`] with an observability recorder: each stage
/// records a wall-clock span (`build_dominate` … `build_election` under a
/// `build` root) and a typed event carrying its slot cost, attributed to
/// the stage's slot offset within the build. Recording never influences
/// the construction — the returned structure is identical with `obs =
/// None`.
pub fn build_structure_observed(
    env: &NetworkEnv,
    cfg: &StructureConfig,
    alive: Option<&[bool]>,
    mut obs: Option<&mut mca_obs::Recorder>,
) -> AggregationStructure {
    use mca_obs::{EventKind, SpanKind, Stopwatch};
    let n = env.len();
    assert!(n > 0, "cannot build a structure over an empty network");
    if let Some(a) = alive {
        assert_eq!(a.len(), n, "one liveness flag per node required");
    }
    let timing = obs.is_some();
    let sw_build = Stopwatch::start_if(timing);
    let mut report = BuildReport::default();
    let mut records: Vec<NodeRecord> = (0..n).map(|i| NodeRecord::new(NodeId(i as u32))).collect();
    let live = |i: usize| alive.is_none_or(|a| a[i]);

    // --- Phase 1: dominating set / clustering. ---
    let sw = Stopwatch::start_if(timing);
    let active: Vec<bool> = (0..n).map(live).collect();
    let dominating = stages::dominating_stage(env, cfg, &active, cfg.seed);
    report.dominate_slots = dominating.slots;
    report.timeout_joins = dominating.timeout_joins;
    if let Some(rec) = obs.as_deref_mut() {
        rec.span(SpanKind::BuildDominate, 0, 0, 0, sw.elapsed_ns());
        rec.event(
            EventKind::StageDominate,
            0,
            0,
            dominating.slots,
            dominating.timeout_joins as u64,
        );
    }
    let mut offset = dominating.slots;

    // --- Phase 2+3: dominator coloring + announce/attach. ---
    let sw = Stopwatch::start_if(timing);
    let clusters = cluster::build_clusters(env, cfg, &dominating, cfg.seed, alive);
    report.coloring_slots = clusters.coloring_slots;
    report.announce_slots = clusters.announce_slots;
    report.phi = clusters.phi;
    // Coverage holes are only meaningful among live nodes.
    report.unclustered = (0..n)
        .filter(|&i| live(i) && clusters.membership[i].is_none())
        .count();
    for (i, rec) in records.iter_mut().enumerate() {
        // None = coverage hole: stays out of the structure (counted).
        if let Some((dom, color, dist)) = clusters.membership[i] {
            if dom == NodeId(i as u32) {
                rec.make_dominator();
            } else {
                rec.make_member(dom, dist);
            }
            rec.cluster_color = Some(color);
        }
    }
    report.clusters = records.iter().filter(|r| r.role.is_dominator()).count();
    if let Some(rec) = obs.as_deref_mut() {
        rec.span(SpanKind::BuildCluster, offset, 0, 0, sw.elapsed_ns());
        rec.event(
            EventKind::StageColor,
            offset,
            0,
            clusters.coloring_slots,
            clusters.phi as u64,
        );
        rec.event(
            EventKind::StageAnnounce,
            offset + clusters.coloring_slots,
            0,
            clusters.announce_slots,
            report.unclustered as u64,
        );
    }
    offset += clusters.coloring_slots + clusters.announce_slots;

    // --- Phase 4: cluster-size approximation (Lemma 14 dispatch). ---
    let sw = Stopwatch::start_if(timing);
    let csa = stages::csa_stage(env, cfg, &mut records, clusters.phi, cfg.seed, alive);
    report.csa_slots = csa.slots;
    report.estimate_fills = csa.estimate_fills;
    if let Some(rec) = obs.as_deref_mut() {
        rec.span(SpanKind::BuildCsa, offset, 0, 0, sw.elapsed_ns());
        rec.event(
            EventKind::StageCsa,
            offset,
            0,
            csa.slots,
            csa.estimate_fills as u64,
        );
    }
    offset += csa.slots;

    // --- Phase 5: reporter election + implicit tree (Lemmas 15–16). ---
    let sw = Stopwatch::start_if(timing);
    report.election_slots =
        stages::election_stage(env, cfg, &mut records, clusters.phi, None, cfg.seed, alive);
    let (filled, total) = stages::channel_accounting(&records);
    report.channels_filled = filled;
    report.channels_total = total;
    if let Some(rec) = obs {
        rec.span(SpanKind::BuildElection, offset, 0, 0, sw.elapsed_ns());
        rec.event(
            EventKind::StageElection,
            offset,
            0,
            report.election_slots,
            filled as u64,
        );
        rec.span(SpanKind::Build, 0, 0, 0, sw_build.elapsed_ns());
    }

    AggregationStructure::new(records, clusters.phi, report)
}

/// How the inter-cluster procedure runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterclusterMode {
    /// Flood-and-combine (`O(D + log n)`), idempotent aggregates only.
    Flood,
    /// Exact tree upcast (duplicate-sensitive aggregates welcome).
    Exact {
        /// The node whose dominator roots the tree (the data sink).
        sink: NodeId,
    },
}

/// Outcome of a full aggregation run.
#[derive(Debug, Clone)]
pub struct AggregateOutcome<V> {
    /// Final value at each node (`None` if the node never learned it).
    pub values: Vec<Option<V>>,
    /// Slots of the follower→reporter procedure.
    pub follower_slots: u64,
    /// Slots of the reporter-tree convergecast.
    pub tree_slots: u64,
    /// Slots of the inter-cluster procedure.
    pub inter_slots: u64,
    /// Followers whose value never reached a reporter (lost inputs).
    pub undelivered: usize,
    /// Reporter-tree values that failed to reach the dominator.
    pub tree_losses: usize,
    /// Peak of `P_c(v)/f_v` observed (Lemma 19 trace; ≤ λ wanted).
    pub contention_peak: f64,
}

impl<V> AggregateOutcome<V> {
    /// Total slots across the three procedures.
    pub fn total_slots(&self) -> u64 {
        self.follower_slots + self.tree_slots + self.inter_slots
    }
}

/// Runs data aggregation (paper §6, Theorem 22) over a built structure.
///
/// `inputs[i]` is node `i`'s initial value; `d_hat` bounds the backbone hop
/// diameter (knowledge the paper's round bounds presuppose — pass the
/// communication-graph diameter plus slack).
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub fn aggregate<A: Aggregate>(
    env: &NetworkEnv,
    structure: &AggregationStructure,
    algo: &AlgoConfig,
    agg: A,
    inputs: &[A::Value],
    mode: InterclusterMode,
    d_hat: u32,
    seed: u64,
) -> AggregateOutcome<A::Value> {
    let n = env.len();
    assert_eq!(inputs.len(), n, "one input per node required");
    let phi = structure.phi.max(1);

    // --- Procedure 1: followers → reporters. ---
    let (fprotocols, follower_slots, contention_peak) = follower_phase(
        env,
        structure,
        algo,
        agg.clone(),
        |i| inputs[i].clone(),
        derive_seed(seed, 0xF0110),
    );
    let undelivered = fprotocols.iter().filter(|p| !p.is_delivered()).count();

    // --- Procedure 2: reporter-tree convergecast. ---
    // A dominator adds what it collected as the channel-0 reporter to its
    // own input; a reporter's collection already holds its own.
    let start = |i: usize| match (structure.records[i].role, fprotocols[i].reporter_state()) {
        (Role::Dominator, Some((v, _))) => agg.combine(&inputs[i], v),
        (_, Some((v, _))) => v.clone(),
        (_, None) => inputs[i].clone(),
    };
    let (tprotocols, tree_slots) = tree_phase(
        env,
        structure,
        agg.clone(),
        start,
        derive_seed(seed, 0xF0111),
    );
    let tree_losses = (0..n)
        .filter(|&i| {
            matches!(structure.records[i].role, Role::Reporter { .. })
                && !tprotocols[i].is_delivered()
                && tprotocols[i].position() != Some(0)
        })
        .count();
    // Cluster aggregates now sit at the dominators.
    let cluster_value: Vec<Option<A::Value>> = (0..n)
        .map(|i| {
            structure.records[i]
                .role
                .is_dominator()
                .then(|| tprotocols[i].value().clone())
        })
        .collect();

    // --- Procedure 3: inter-cluster dissemination. ---
    let (values, inter_slots): (Vec<Option<A::Value>>, u64) = match mode {
        InterclusterMode::Flood => {
            let fl = FloodCfg {
                q: algo.consts.flood_prob,
                flood_rounds: (algo.consts.c_flood * (d_hat as f64 + algo.ln_n())).ceil() as u64,
                tail_rounds: algo.announce_rounds(),
                tdma: Tdma::new(phi, 1),
                hop_channels: 0,
            };
            let protocols: Vec<FloodCombine<A>> = (0..n)
                .map(|i| {
                    let color = structure.records[i].cluster_color.unwrap_or(0);
                    match &cluster_value[i] {
                        Some(v) => FloodCombine::dominator(agg.clone(), fl, color, v.clone()),
                        None => FloodCombine::listener(agg.clone(), fl, color),
                    }
                })
                .collect();
            let (out, slots) = env.run_phase(
                protocols,
                None,
                derive_seed(seed, 0xF0112),
                fl.tdma.slots_for_rounds(fl.total_rounds()) + 1,
                all_done,
            );
            (
                out.iter()
                    .map(|p| p.heard_any().then(|| p.value().clone()))
                    .collect(),
                slots,
            )
        }
        InterclusterMode::Exact { sink } => {
            let root_cluster = structure.records[sink.index()]
                .cluster
                .unwrap_or(NodeId(sink.0));
            let ex = ExactCfg {
                q: algo.consts.flood_prob,
                level_rounds: (algo.consts.c_flood * (d_hat as f64 + algo.ln_n())).ceil() as u64,
                window: algo.announce_rounds(),
                max_levels: d_hat + 1,
                result_rounds: (algo.consts.c_flood * (d_hat as f64 + algo.ln_n())).ceil() as u64,
                tdma: Tdma::new(phi, 1),
            };
            let protocols: Vec<TreeExact<A>> = (0..n)
                .map(|i| {
                    let color = structure.records[i].cluster_color.unwrap_or(0);
                    match &cluster_value[i] {
                        Some(v) => TreeExact::dominator(
                            agg.clone(),
                            ex,
                            NodeId(i as u32),
                            color,
                            v.clone(),
                            NodeId(i as u32) == root_cluster,
                        ),
                        None => TreeExact::listener(agg.clone(), ex, NodeId(i as u32), color),
                    }
                })
                .collect();
            let (out, slots) = env.run_phase(
                protocols,
                None,
                derive_seed(seed, 0xF0113),
                ex.tdma.slots_for_rounds(ex.total_rounds()) + 1,
                |_, ps| ps.iter().all(|p| p.result().is_some()),
            );
            (out.iter().map(|p| p.result().cloned()).collect(), slots)
        }
    };

    AggregateOutcome {
        values,
        follower_slots,
        tree_slots,
        inter_slots,
        undelivered,
        tree_losses,
        contention_peak,
    }
}

/// §6 procedure 1, followers → reporters, over a built structure: each
/// follower delivers `input(i)` to a reporter of its cluster. Returns the
/// protocols' end states, the slots run, and the peak of `P_c(v)/f_v`
/// sampled once per super-round (Lemma 19). [`aggregate`] runs it with the
/// inputs, and [`crate::coloring::color_nodes`] (§7 procedure 1) with a
/// zero count to register follower ids.
pub(crate) fn follower_phase<A: Aggregate>(
    env: &NetworkEnv,
    structure: &AggregationStructure,
    algo: &AlgoConfig,
    agg: A,
    input: impl Fn(usize) -> A::Value,
    seed: u64,
) -> (Vec<FollowerAgg<A>>, u64, f64) {
    let phi = structure.phi.max(1);
    let lambda = algo.consts.lambda;
    let records = &structure.records;
    let fcfg = FollowerCfg {
        rounds_per_phase: algo.agg_rounds_per_phase(),
        backoff_threshold: algo.agg_backoff_threshold(),
        lambda,
        tdma: Tdma::new(phi, follower::SLOTS_PER_ROUND),
        max_phases: 24
            + 2 * (algo.know.log2_n() as u64)
            + algo.know.n_bound as u64
                / ((algo.channels as u64) * algo.agg_rounds_per_phase().max(1)),
    };
    let protocols: Vec<FollowerAgg<A>> = records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let id = NodeId(i as u32);
            let color = r.cluster_color.unwrap_or(0);
            match (r.role, r.cluster) {
                (Role::Dominator, Some(_)) => {
                    FollowerAgg::dominator(agg.clone(), fcfg, id, color, r.serves_channel0)
                }
                (Role::Reporter { heap_pos }, Some(c)) => FollowerAgg::reporter(
                    agg.clone(),
                    fcfg,
                    id,
                    c,
                    color,
                    Channel(heap_pos - 1),
                    input(i),
                ),
                (Role::Follower, Some(c)) => {
                    let fv = r.cluster_channels.unwrap_or(1);
                    let est = r.cluster_size_est.unwrap_or(1).max(1);
                    let pu = (lambda * fv as f64 / est as f64).clamp(1e-6, lambda / 2.0);
                    FollowerAgg::follower(agg.clone(), fcfg, id, c, color, fv, input(i), pu)
                }
                _ => FollowerAgg::passive(agg.clone(), fcfg, id),
            }
        })
        .collect();
    // Sample the Lemma-19 contention invariant once per super-round while
    // running to (slot-accurate) completion of all deliveries.
    let sample_every = fcfg.tdma.slots_per_super_round().max(1);
    let mut contention_peak: f64 = 0.0;
    let mut since_sample = 0u64;
    let cap = fcfg.tdma.slots_for_rounds(fcfg.total_rounds());
    let (out, slots) = env.run_phase(protocols, None, seed, cap, |_, ps: &[FollowerAgg<A>]| {
        since_sample += 1;
        if since_sample >= sample_every {
            since_sample = 0;
            let mut by_cluster: std::collections::HashMap<NodeId, f64> =
                std::collections::HashMap::new();
            for p in ps {
                if let (Some(pu), Some(c)) = (p.current_pu(), p.cluster()) {
                    *by_cluster.entry(c).or_default() += pu;
                }
            }
            for (c, total) in by_cluster {
                let fv = records[c.index()].cluster_channels.unwrap_or(1).max(1) as f64;
                contention_peak = contention_peak.max(total / fv);
            }
        }
        ps.iter().all(|p| p.is_delivered())
    });
    (out, slots, contention_peak)
}

/// §6 procedure 2, the reporter-tree convergecast, over a built structure:
/// every dominator and reporter starts from `start(i)` and the cluster's
/// combined value converges at its dominator. Returns the protocols' end
/// states and the slots run. [`aggregate`] starts from the collected
/// inputs, and [`crate::coloring::color_nodes`] (§7 procedure 2) from
/// `1 + own followers` to count subtrees.
pub(crate) fn tree_phase<A: Aggregate>(
    env: &NetworkEnv,
    structure: &AggregationStructure,
    agg: A,
    start: impl Fn(usize) -> A::Value,
    seed: u64,
) -> (Vec<TreeCast<A>>, u64) {
    let phi = structure.phi.max(1);
    let tcfg_of = |fv: u16| TreeCfg {
        fv: fv.max(1),
        tdma: Tdma::new(phi, treecast::SLOTS_PER_ROUND),
    };
    let records = &structure.records;
    let max_fv = records
        .iter()
        .filter_map(|r| r.cluster_channels)
        .max()
        .unwrap_or(1);
    let protocols: Vec<TreeCast<A>> = records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let color = r.cluster_color.unwrap_or(0);
            let tcfg = tcfg_of(r.cluster_channels.unwrap_or(1));
            match (r.role, r.cluster) {
                (Role::Dominator, Some(c)) => {
                    TreeCast::dominator(agg.clone(), tcfg, c, color, start(i))
                }
                (Role::Reporter { heap_pos }, Some(c)) => {
                    TreeCast::reporter(agg.clone(), tcfg, c, color, heap_pos, start(i))
                }
                _ => TreeCast::passive(
                    agg.clone(),
                    tcfg_of(1),
                    r.cluster.unwrap_or(NodeId(i as u32)),
                ),
            }
        })
        .collect();
    let cap = tcfg_of(max_fv)
        .tdma
        .slots_for_rounds(tcfg_of(max_fv).rounds())
        + treecast::SLOTS_PER_ROUND as u64;
    env.run_phase(protocols, None, seed, cap, all_done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggfun::{MaxAgg, SumAgg};
    use crate::validate::audit_structure;
    use rand::{rngs::SmallRng, SeedableRng};

    fn setup(
        n: usize,
        side: f64,
        channels: u16,
        seed: u64,
    ) -> (NetworkEnv, AggregationStructure, StructureConfig) {
        let params = SinrParams::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let deploy = Deployment::uniform(n, side, &mut rng);
        let env = NetworkEnv::new(params, &deploy);
        let algo = AlgoConfig::practical(channels, &params, n);
        let mut cfg = StructureConfig::new(algo, seed);
        cfg.substrate = SubstrateMode::Oracle;
        let s = build_structure(&env, &cfg);
        (env, s, cfg)
    }

    #[test]
    fn flood_aggregation_finds_global_max() {
        let (env, s, cfg) = setup(200, 14.0, 8, 21);
        audit_structure(&env, &s, cfg.cluster_radius).assert_sound();
        let inputs: Vec<i64> = (0..200).map(|i| (i as i64 * 37) % 1000).collect();
        let expect = *inputs.iter().max().unwrap();
        let d_hat = env.comm_graph().diameter_approx() + 2;
        let out = aggregate(
            &env,
            &s,
            &cfg.algo,
            MaxAgg,
            &inputs,
            InterclusterMode::Flood,
            d_hat,
            99,
        );
        assert_eq!(out.undelivered, 0, "followers failed to deliver");
        assert_eq!(out.tree_losses, 0, "tree convergecast lost values");
        let holders = out
            .values
            .iter()
            .filter(|v| v.as_ref() == Some(&expect))
            .count();
        assert!(
            holders * 10 >= 200 * 9,
            "only {holders}/200 nodes learned the max"
        );
        // Definition 17 is stated with the true |C_v|; p_u uses the CSA
        // estimate, so the peak can exceed λ by the estimate's constant
        // factor (documented; E9 reports the measured peak).
        assert!(
            out.contention_peak <= 3.0 * cfg.algo.consts.lambda,
            "contention peak {} too high",
            out.contention_peak
        );
    }

    #[test]
    fn exact_aggregation_sums_all_inputs() {
        let (env, s, cfg) = setup(150, 12.0, 4, 23);
        let inputs: Vec<i64> = vec![1; 150];
        let d_hat = env.comm_graph().diameter_approx() + 2;
        let out = aggregate(
            &env,
            &s,
            &cfg.algo,
            SumAgg,
            &inputs,
            InterclusterMode::Exact { sink: NodeId(0) },
            d_hat,
            77,
        );
        assert_eq!(out.undelivered, 0);
        assert_eq!(out.tree_losses, 0);
        // Every node should learn the exact count of nodes.
        for (i, v) in out.values.iter().enumerate() {
            assert_eq!(*v, Some(150), "node {i} got {v:?}");
        }
    }

    #[test]
    fn more_channels_speed_up_aggregation() {
        // Dense deployment: clusters well above c₁·ln n members, so the
        // Δ/F term dominates and f_v > 1 for F = 8.
        let params = SinrParams::default();
        let mut rng = SmallRng::seed_from_u64(31);
        let deploy = Deployment::uniform(300, 5.0, &mut rng);
        let env = NetworkEnv::new(params, &deploy);
        let run = |channels: u16| {
            let algo = AlgoConfig::practical(channels, &params, 300);
            let mut cfg = StructureConfig::new(algo, 31);
            cfg.substrate = SubstrateMode::Oracle;
            let s = build_structure(&env, &cfg);
            let inputs: Vec<i64> = (0..300).map(|i| i as i64).collect();
            let d_hat = env.comm_graph().diameter_approx() + 2;
            let out = aggregate(
                &env,
                &s,
                &algo,
                MaxAgg,
                &inputs,
                InterclusterMode::Flood,
                d_hat,
                55,
            );
            out.follower_slots
        };
        let f1 = run(1);
        let f8 = run(8);
        assert!(
            f8 * 3 < f1 * 2,
            "8 channels ({f8} slots) should be at least 1.5x faster than 1 ({f1} slots)"
        );
    }
}
