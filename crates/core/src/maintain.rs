//! The structure *lifecycle*: incremental maintenance of the §5 overlay
//! under churn and mobility.
//!
//! [`build_structure`](crate::structure::build_structure) produces a
//! snapshot of a world that, since the dynamic-environment subsystem
//! landed, keeps changing underneath it: dominators crash and orphan their
//! members, late joiners appear with no cluster, mobile members drift out
//! of their dominator's radius, and mobile dominators drift into color
//! conflicts. A [`StructureMaintainer`] owns the structure plus the dirty
//! state accumulated from engine [`NodeEvent`]s and repairs it
//! *incrementally* — each repair confined to the affected neighborhood and
//! run as slot-consuming protocol phases, so repair cost is measured in the
//! same currency as the original build:
//!
//! * **re-homing** — orphans, joiners, and handover members run a
//!   two-slot ANNOUNCE/JOIN protocol (see [`RehomeMsg`]) against nearby
//!   surviving dominators: they attach to the nearest announcer within
//!   `r_c` and confirm with a JOIN beacon their new dominator hears;
//! * **MIS patch** — seekers no surviving dominator covers re-run the
//!   dominating-set stage among themselves (everyone else absent), exactly
//!   the local re-clustering the paper's substrate would perform;
//! * **recoloring patch** — fresh dominators (and moved dominators caught
//!   in a same-color conflict) claim colors against the committed palette
//!   beaconed by established neighbors
//!   ([`stages::color_patch_stage`]);
//! * **local re-election** — clusters whose membership changed re-run
//!   reporter election under the cluster-color TDMA, everyone else keeping
//!   their reporters.
//!
//! When churn outruns locality — more than
//! [`MaintainConfig::rebuild_threshold`] of the live network needs
//! re-homing — the maintainer falls back to a full masked rebuild, which is
//! also the baseline claim table M1 of `EXPERIMENTS.md` measures against.
//!
//! After every repair the structure must satisfy
//! [`audit_structure_masked`]
//! scoped to the live nodes (with attachment certified against the
//! handover hysteresis); the proptests in `tests/maintain_properties.rs`
//! enforce exactly that.

use crate::knowledge::{NodeRecord, Role};
use crate::stages::{self, ColorSeat};
use crate::structure::{
    all_done, build_structure_masked, build_structure_observed, AggregationStructure, NetworkEnv,
    StructureConfig,
};
use crate::validate::{audit_structure_masked, AuditTolerances, StructureAudit};
use mca_geom::SpatialGrid;
use mca_radio::rng::derive_seed;
use mca_radio::{Action, Channel, DetectionEvent, NodeEvent, NodeId, Observation, Protocol};
use mca_sinr::SinrParams;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Maintenance policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintainConfig {
    /// Handover hysteresis `h ≥ 1`: a member is re-homed once its distance
    /// to its dominator exceeds `h · r_c`. Larger values trade attachment
    /// slack for fewer handovers.
    pub handover_hysteresis: f64,
    /// Fraction of the live network that may need re-homing before the
    /// maintainer gives up on locality and rebuilds from scratch.
    pub rebuild_threshold: f64,
    /// Motion watch granularity, as a fraction of the cluster radius: the
    /// engine reports motion only on drifts beyond
    /// `move_threshold · r_c` from the last anchor
    /// ([`Engine::watch_events`](mca_radio::Engine::watch_events) — pass
    /// [`StructureMaintainer::move_threshold`]). Between a pair's events
    /// its true distance can exceed what the maintainer last acted on by
    /// up to four anchors' worth, which
    /// [`StructureMaintainer::tolerances`] accounts for.
    pub move_threshold: f64,
    /// Epochs a node waits after its first proactive action before it can
    /// be acted on again while still flagged; each further action doubles
    /// the wait (bounded exponential backoff, capped at
    /// [`MaintainConfig::backoff_cap`]). A recovery notice resets the
    /// node's backoff. Keeps a transiently faded link from thrashing
    /// handovers epoch after epoch.
    pub backoff_base: u64,
    /// Upper bound on the proactive backoff wait, in epochs.
    pub backoff_cap: u64,
}

impl Default for MaintainConfig {
    fn default() -> Self {
        MaintainConfig {
            handover_hysteresis: 1.25,
            rebuild_threshold: 0.5,
            move_threshold: 0.05,
            backoff_base: 1,
            backoff_cap: 16,
        }
    }
}

/// What a [`StructureMaintainer::repair`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairKind {
    /// Nothing was dirty; no slots were spent.
    #[default]
    Clean,
    /// Local repair operations ran.
    Repaired,
    /// Churn exceeded the rebuild threshold; the structure was rebuilt
    /// from scratch over the live set.
    Rebuilt,
}

/// Per-repair accounting, in the same slot currency as
/// [`BuildReport`](crate::structure::BuildReport).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RepairReport {
    /// What the repair did.
    pub kind: RepairKind,
    /// Slots of the ANNOUNCE/JOIN re-homing phases (both passes).
    pub rehome_slots: u64,
    /// Slots of the local dominating-set (MIS) patch.
    pub patch_slots: u64,
    /// Slots of the recoloring patch.
    pub color_slots: u64,
    /// Slots of the scoped reporter re-election.
    pub election_slots: u64,
    /// Slots of a full rebuild (only when `kind == Rebuilt`).
    pub rebuild_slots: u64,
    /// Nodes that needed a (new) dominator this epoch.
    pub seekers: usize,
    /// Seekers that re-attached to a surviving dominator.
    pub rehomed: usize,
    /// Members re-homed because they drifted beyond the hysteresis radius.
    pub handovers: usize,
    /// Fresh dominators elected by the MIS patch.
    pub new_dominators: usize,
    /// Seekers that ended as singleton dominators after every protocol
    /// avenue failed (orchestrator fallback; quality metric).
    pub forced_singletons: usize,
    /// Clusters retired because their dominator crashed.
    pub retired_clusters: usize,
    /// Clusters merged because mobility pushed two dominators within the
    /// independence radius (the smaller cluster demotes and is absorbed).
    pub merged_clusters: usize,
    /// Clusters whose membership changed (re-elected this epoch).
    pub dirty_clusters: usize,
    /// Moved dominators recolored out of a same-color conflict.
    pub recolored: usize,
    /// Duplicate reporters demoted after a re-election (the election's
    /// at-most-one guarantee is whp; the dominator spots a duplicate on its
    /// channel and keeps the smaller id).
    pub reporter_dedups: usize,
    /// Reporters appointed by their dominator after a channel's randomized
    /// election came up empty (the channel-fill counterpart of the build's
    /// `serves_channel0` rescue).
    pub reporter_appointments: usize,
    /// JOIN confirmations dominators decoded during re-homing (dominator-
    /// side knowledge of membership changes; quality metric).
    pub join_confirms: usize,
    /// Flagged members pre-emptively re-homed this epoch, before any audit
    /// could fail (SINR-triggered proactive repair).
    pub proactive_rehomes: usize,
    /// Flagged dominators demoted into scoped re-election this epoch.
    pub proactive_demotions: usize,
    /// Flagged nodes whose proactive action was deferred by the bounded
    /// exponential backoff ([`MaintainConfig::backoff_base`]).
    pub deferred_flags: usize,
    /// Recovery notices consumed this epoch (flags cleared without action).
    pub recovered_flags: usize,
    /// Worst detection latency (slots from degradation onset to the
    /// detector flagging it) over the flags acted on this epoch; `0` when
    /// none were acted on.
    pub time_to_detect: u64,
    /// Worst repair latency (slots from degradation onset to the repair
    /// epoch that acted on it) over the flags acted on this epoch; `0`
    /// when none were acted on. Requires the caller to supply the current
    /// slot via [`StructureMaintainer::repair_at`].
    pub time_to_repair: u64,
}

impl RepairReport {
    /// Total slots this repair consumed.
    pub fn total_slots(&self) -> u64 {
        self.rehome_slots
            + self.patch_slots
            + self.color_slots
            + self.election_slots
            + self.rebuild_slots
    }

    /// Folds another epoch's report into this one, element-wise — the
    /// same accumulation idiom as `Metrics::merge` with its per-channel
    /// vectors: slot and node counters add, the two latency fields keep
    /// the worst case, and `kind` keeps the most severe outcome
    /// (`Rebuilt > Repaired > Clean`).
    pub fn merge(&mut self, other: &RepairReport) {
        self.kind = match (self.kind, other.kind) {
            (RepairKind::Rebuilt, _) | (_, RepairKind::Rebuilt) => RepairKind::Rebuilt,
            (RepairKind::Repaired, _) | (_, RepairKind::Repaired) => RepairKind::Repaired,
            (RepairKind::Clean, RepairKind::Clean) => RepairKind::Clean,
        };
        self.rehome_slots += other.rehome_slots;
        self.patch_slots += other.patch_slots;
        self.color_slots += other.color_slots;
        self.election_slots += other.election_slots;
        self.rebuild_slots += other.rebuild_slots;
        self.seekers += other.seekers;
        self.rehomed += other.rehomed;
        self.handovers += other.handovers;
        self.new_dominators += other.new_dominators;
        self.forced_singletons += other.forced_singletons;
        self.retired_clusters += other.retired_clusters;
        self.merged_clusters += other.merged_clusters;
        self.dirty_clusters += other.dirty_clusters;
        self.recolored += other.recolored;
        self.reporter_dedups += other.reporter_dedups;
        self.reporter_appointments += other.reporter_appointments;
        self.join_confirms += other.join_confirms;
        self.proactive_rehomes += other.proactive_rehomes;
        self.proactive_demotions += other.proactive_demotions;
        self.deferred_flags += other.deferred_flags;
        self.recovered_flags += other.recovered_flags;
        self.time_to_detect = self.time_to_detect.max(other.time_to_detect);
        self.time_to_repair = self.time_to_repair.max(other.time_to_repair);
    }
}

// ---------------------------------------------------------------------------
// The re-homing protocol
// ---------------------------------------------------------------------------

/// Messages of the re-homing phase (two-slot rounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RehomeMsg {
    /// ANNOUNCE slot: "I am a dominator with cluster color `color`."
    Announce {
        /// The announcing dominator's cluster color.
        color: u16,
    },
    /// JOIN slot: "I attached to dominator `to`."
    Join {
        /// The dominator joined.
        to: NodeId,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct RehomeCfg {
    /// Attach radius (`r_c`).
    radius: f64,
    /// Anchor announce probability (`1/(2µ)`).
    p_announce: f64,
    /// Seeker join-confirm probability.
    p_join: f64,
    /// Two-slot rounds.
    rounds: u64,
    /// Conservative node-side parameters (RSSI distance filter).
    params: SinrParams,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RehomeRole {
    /// A surviving dominator announcing and collecting JOIN confirms.
    Anchor { color: u16 },
    /// A node looking for a dominator.
    Seeker,
    /// Not involved (kept absent by the stage fault plan).
    Out,
}

/// The ANNOUNCE/JOIN re-homing protocol: anchors beacon their identity and
/// color on even slots; seekers attach to the nearest anchor within the
/// radius and confirm on odd slots, so the dominator side learns its
/// membership grew without any orchestrator back-channel.
#[derive(Debug, Clone)]
struct RehomeProtocol {
    cfg: RehomeCfg,
    me: NodeId,
    role: RehomeRole,
    /// Seeker: best anchor so far `(dominator, color, distance)`.
    best: Option<(NodeId, u16, f64)>,
    /// Anchor: JOIN confirmations decoded for this anchor.
    joins_heard: u32,
    rounds_done: u64,
    finished: bool,
}

impl RehomeProtocol {
    fn new(me: NodeId, role: RehomeRole, cfg: RehomeCfg) -> Self {
        RehomeProtocol {
            cfg,
            me,
            role,
            best: None,
            joins_heard: 0,
            rounds_done: 0,
            finished: role == RehomeRole::Out,
        }
    }

    fn attachment(&self) -> Option<(NodeId, u16, f64)> {
        self.best
    }
}

impl Protocol for RehomeProtocol {
    type Msg = RehomeMsg;

    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<RehomeMsg> {
        let join_slot = slot % 2 == 1;
        match self.role {
            RehomeRole::Anchor { color } => {
                if join_slot {
                    Action::Listen {
                        channel: Channel::FIRST,
                    }
                } else if rng.gen_bool(self.cfg.p_announce) {
                    Action::Transmit {
                        channel: Channel::FIRST,
                        msg: RehomeMsg::Announce { color },
                    }
                } else {
                    Action::Idle
                }
            }
            RehomeRole::Seeker => {
                if !join_slot {
                    Action::Listen {
                        channel: Channel::FIRST,
                    }
                } else if let Some((to, _, _)) = self.best {
                    if rng.gen_bool(self.cfg.p_join) {
                        Action::Transmit {
                            channel: Channel::FIRST,
                            msg: RehomeMsg::Join { to },
                        }
                    } else {
                        Action::Idle
                    }
                } else {
                    Action::Idle
                }
            }
            RehomeRole::Out => Action::Idle,
        }
    }

    fn observe(&mut self, slot: u64, obs: Observation<RehomeMsg>, _rng: &mut SmallRng) {
        if let Observation::Received(r) = &obs {
            match (self.role, r.msg) {
                (RehomeRole::Seeker, RehomeMsg::Announce { color }) => {
                    let dist = r.distance_estimate(&self.cfg.params);
                    if dist <= self.cfg.radius * 1.02
                        && self.best.is_none_or(|(_, _, bd)| dist < bd)
                    {
                        self.best = Some((r.from, color, dist));
                    }
                }
                (RehomeRole::Anchor { .. }, RehomeMsg::Join { to }) if to == self.me => {
                    self.joins_heard += 1;
                }
                _ => {}
            }
        }
        if slot % 2 == 1 {
            self.rounds_done += 1;
            if self.rounds_done >= self.cfg.rounds {
                self.finished = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.finished
    }
}

// ---------------------------------------------------------------------------
// The maintainer
// ---------------------------------------------------------------------------

/// Owns an [`AggregationStructure`] and keeps it sound while the network
/// churns and moves. Feed it engine [`NodeEvent`]s with
/// [`StructureMaintainer::observe`], then call
/// [`StructureMaintainer::repair`] at the maintenance cadence.
#[derive(Debug, Clone)]
pub struct StructureMaintainer {
    cfg: StructureConfig,
    mcfg: MaintainConfig,
    structure: AggregationStructure,
    alive: Vec<bool>,
    /// Nodes needing a (new) dominator: orphans of crashed dominators,
    /// late joiners, handover candidates.
    seekers: BTreeSet<u32>,
    /// Cluster heads whose membership changed since the last repair.
    dirty: BTreeSet<u32>,
    /// Nodes with undigested motion events.
    movers: BTreeSet<u32>,
    /// Clusters retired (dominator crashed) since the last repair.
    retired: usize,
    /// Repair epochs executed (distinguishes per-epoch RNG streams).
    epochs: u64,
    /// Observability recorder ([`StructureMaintainer::attach_obs`]);
    /// repairs emit one typed event per action class per epoch.
    obs: Option<mca_obs::Recorder>,
    /// Cumulative repair slots before the current epoch (event/span slot
    /// attribution).
    repair_slots: u64,
    /// Scratch grid over live dominator positions, reused across repairs
    /// (allocation-free steady state via [`SpatialGrid::rebuild`]).
    grid: SpatialGrid,
    grid_doms: Vec<u32>,
    grid_pts: Vec<mca_geom::Point>,
    /// Nodes the degradation detector currently flags
    /// ([`StructureMaintainer::observe_detection`]); cleared on recovery.
    flagged: BTreeSet<u32>,
    /// Per flagged node: `(since, detect_slot)` from the Degraded event,
    /// for time-to-detect / time-to-repair attribution.
    flag_meta: HashMap<u32, (u64, u64)>,
    /// Per-node proactive backoff: `(level, retry_epoch)` — the node is
    /// not acted on again before `retry_epoch`.
    backoff: HashMap<u32, (u32, u64)>,
    /// Recovery notices consumed since the last repair.
    recovered: usize,
    /// World slot of the in-flight [`StructureMaintainer::repair_at`] call.
    now: Option<u64>,
}

impl StructureMaintainer {
    /// Builds the structure over the live subset of `env` and wraps it in a
    /// maintainer. `alive = None` means every node is present.
    pub fn build(
        env: &NetworkEnv,
        cfg: StructureConfig,
        mcfg: MaintainConfig,
        alive: Option<&[bool]>,
    ) -> Self {
        let structure = build_structure_masked(env, &cfg, alive);
        let alive = alive
            .map(<[bool]>::to_vec)
            .unwrap_or_else(|| vec![true; env.len()]);
        Self::adopt(structure, cfg, mcfg, alive)
    }

    /// Wraps an already-built structure. `alive[i]` must reflect the world
    /// the structure was built over.
    pub fn adopt(
        structure: AggregationStructure,
        cfg: StructureConfig,
        mcfg: MaintainConfig,
        alive: Vec<bool>,
    ) -> Self {
        assert_eq!(structure.records.len(), alive.len());
        assert!(
            mcfg.handover_hysteresis >= 1.0,
            "hysteresis below 1 would re-home nodes the build considers attached"
        );
        StructureMaintainer {
            cfg,
            mcfg,
            structure,
            alive,
            seekers: BTreeSet::new(),
            dirty: BTreeSet::new(),
            movers: BTreeSet::new(),
            retired: 0,
            epochs: 0,
            obs: None,
            repair_slots: 0,
            grid: SpatialGrid::build(&[], 1.0),
            grid_doms: Vec::new(),
            grid_pts: Vec::new(),
            flagged: BTreeSet::new(),
            flag_meta: HashMap::new(),
            backoff: HashMap::new(),
            recovered: 0,
            now: None,
        }
    }

    /// The maintained structure.
    pub fn structure(&self) -> &AggregationStructure {
        &self.structure
    }

    /// Liveness per node (joined and not crashed, as observed).
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Repair epochs executed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Attaches an observability recorder: every subsequent
    /// [`StructureMaintainer::repair`] records a wall-clock span and one
    /// typed event per repair action class (re-home, MIS patch, recolor,
    /// merge, re-election, rebuild) with slot/epoch attribution, and a
    /// full rebuild records its stage breakdown. Recording never
    /// influences the repair.
    pub fn attach_obs(&mut self, rec: mca_obs::Recorder) {
        self.obs = Some(rec);
    }

    /// The observability recorder, if one is attached.
    pub fn obs(&self) -> Option<&mca_obs::Recorder> {
        self.obs.as_ref()
    }

    /// Detaches and returns the observability recorder.
    pub fn take_obs(&mut self) -> Option<mca_obs::Recorder> {
        self.obs.take()
    }

    /// Whether any dirty state is pending (a repair would do work).
    pub fn is_dirty(&self) -> bool {
        !self.seekers.is_empty()
            || !self.dirty.is_empty()
            || !self.movers.is_empty()
            || !self.flagged.is_empty()
    }

    /// Digests one detector transition
    /// ([`Engine::drain_detections`](mca_radio::Engine::drain_detections))
    /// into proactive-repair state: a degradation flags the node for
    /// pre-emptive action at the next repair epoch, a recovery clears the
    /// flag and resets the node's backoff without any repair work.
    pub fn observe_detection(&mut self, event: &DetectionEvent) {
        match *event {
            DetectionEvent::Degraded {
                node, slot, since, ..
            } => {
                if self.alive[node.index()] {
                    self.flagged.insert(node.0);
                    self.flag_meta.insert(node.0, (since, slot));
                }
            }
            DetectionEvent::Recovered { node, .. } => {
                if self.flagged.remove(&node.0) {
                    self.flag_meta.remove(&node.0);
                    self.backoff.remove(&node.0);
                    self.recovered += 1;
                }
            }
        }
    }

    /// Nodes currently flagged by the detector and awaiting (or backing
    /// off from) proactive action, ascending.
    pub fn flagged_nodes(&self) -> Vec<u32> {
        self.flagged.iter().copied().collect()
    }

    /// Whether node `node` is currently flagged as degraded.
    pub fn is_flagged(&self, node: u32) -> bool {
        self.flagged.contains(&node)
    }

    /// The engine watch threshold (absolute distance) this maintainer's
    /// policy expects — pass to
    /// [`Engine::watch_events`](mca_radio::Engine::watch_events).
    pub fn move_threshold(&self) -> f64 {
        self.mcfg.move_threshold * self.cfg.cluster_radius
    }

    /// The audit tolerances this maintainer certifies against: attachment
    /// within the handover hysteresis, plus the motion the event watch can
    /// leave unseen between two nodes' anchors (4 thresholds), times the
    /// build's RSSI slack.
    pub fn tolerances(&self) -> AuditTolerances {
        AuditTolerances {
            attach_ratio: (self.mcfg.handover_hysteresis + 4.0 * self.mcfg.move_threshold) * 1.05,
            ..AuditTolerances::default()
        }
    }

    /// Audits the maintained structure over the live subset of `env`.
    pub fn audit(&self, env: &NetworkEnv) -> StructureAudit {
        audit_structure_masked(
            env,
            &self.structure,
            self.cfg.cluster_radius,
            Some(&self.alive),
        )
    }

    /// Digests one engine event into dirty state. O(1) except for a
    /// dominator crash, which is O(members) via the cluster index.
    pub fn observe(&mut self, event: &NodeEvent) {
        match *event {
            NodeEvent::Joined { node, .. } => {
                let i = node.index();
                self.alive[i] = true;
                self.structure.records[i] = NodeRecord::new(node);
                self.seekers.insert(node.0);
            }
            NodeEvent::Crashed { node, .. } => {
                let i = node.index();
                self.alive[i] = false;
                self.seekers.remove(&node.0);
                self.movers.remove(&node.0);
                // A crash supersedes any degradation flag: the lifecycle
                // path below repairs harder than the proactive one would.
                self.flagged.remove(&node.0);
                self.flag_meta.remove(&node.0);
                self.backoff.remove(&node.0);
                let rec = &self.structure.records[i];
                if rec.role.is_dominator() {
                    // Cluster retired: orphan every surviving member.
                    self.dirty.remove(&node.0);
                    self.retired += 1;
                    let members: Vec<NodeId> = self.structure.members_of(node).to_vec();
                    for m in members {
                        if m == node || !self.alive[m.index()] {
                            continue;
                        }
                        if self.structure.records[m.index()].cluster == Some(node) {
                            detach(&mut self.structure.records[m.index()]);
                            self.seekers.insert(m.0);
                        }
                    }
                } else if let Some(c) = rec.cluster {
                    // A member (possibly a reporter) died: its cluster's
                    // census and elections are stale.
                    if self.alive[c.index()] {
                        self.dirty.insert(c.0);
                    }
                }
                self.structure.records[i] = NodeRecord::new(node);
            }
            NodeEvent::Moved { node, .. } => {
                if self.alive[node.index()] {
                    self.movers.insert(node.0);
                }
            }
        }
    }

    /// Runs one maintenance epoch against the current world (`env` carries
    /// the up-to-date positions): digests pending motion into handovers and
    /// color conflicts, then repairs — re-homing, MIS patch, recoloring,
    /// census refresh, scoped re-election — or rebuilds if churn exceeded
    /// the threshold. `seed` must vary per epoch (it parameterizes every
    /// protocol phase of the repair).
    pub fn repair(&mut self, env: &NetworkEnv, seed: u64) -> RepairReport {
        use mca_obs::{EventKind, SpanKind, Stopwatch};
        let sw = Stopwatch::start_if(self.obs.is_some());
        let before = self.repair_slots;
        let report = self.repair_inner(env, seed);
        self.repair_slots = before + report.total_slots();
        if let Some(rec) = self.obs.as_mut() {
            let epoch = self.epochs;
            rec.span(SpanKind::Repair, before, 0, 0, sw.elapsed_ns());
            let acted = (report.proactive_rehomes + report.proactive_demotions) as u64;
            if acted > 0 {
                rec.event(EventKind::DetectDegraded, before, epoch, 0, acted);
            }
            if report.recovered_flags > 0 {
                rec.event(
                    EventKind::DetectRecovered,
                    before,
                    epoch,
                    0,
                    report.recovered_flags as u64,
                );
            }
            match report.kind {
                RepairKind::Clean => rec.event(EventKind::RepairClean, before, epoch, 0, 1),
                RepairKind::Rebuilt => rec.event(
                    EventKind::RepairRebuild,
                    before,
                    epoch,
                    report.rebuild_slots,
                    1,
                ),
                RepairKind::Repaired => {
                    // One event per action class that did anything.
                    let actions: [(EventKind, u64, u64); 6] = [
                        (
                            EventKind::RepairProactive,
                            0,
                            (report.proactive_rehomes + report.proactive_demotions) as u64,
                        ),
                        (EventKind::RepairMerge, 0, report.merged_clusters as u64),
                        (
                            EventKind::RepairRehome,
                            report.rehome_slots,
                            report.rehomed as u64,
                        ),
                        (
                            EventKind::RepairMisPatch,
                            report.patch_slots,
                            report.new_dominators as u64,
                        ),
                        (
                            EventKind::RepairRecolor,
                            report.color_slots,
                            report.recolored as u64,
                        ),
                        (
                            EventKind::RepairElection,
                            report.election_slots,
                            report.reporter_appointments as u64,
                        ),
                    ];
                    for (kind, slots, count) in actions {
                        if slots > 0 || count > 0 {
                            rec.event(kind, before, epoch, slots, count);
                        }
                    }
                }
            }
        }
        report
    }

    /// [`StructureMaintainer::repair`] with the current world slot
    /// supplied, so proactive actions can report
    /// [`RepairReport::time_to_repair`] — the slot distance from
    /// degradation onset (the detector's `since`) to this repair epoch.
    /// Plain `repair` leaves that field `0` (the maintainer has no clock
    /// of its own).
    pub fn repair_at(&mut self, env: &NetworkEnv, seed: u64, now: u64) -> RepairReport {
        self.now = Some(now);
        let report = self.repair(env, seed);
        self.now = None;
        report
    }

    /// The uninstrumented repair body (see [`StructureMaintainer::repair`]).
    fn repair_inner(&mut self, env: &NetworkEnv, seed: u64) -> RepairReport {
        let n = env.len();
        assert_eq!(n, self.structure.records.len());
        self.epochs += 1;
        let mut report = RepairReport {
            retired_clusters: std::mem::take(&mut self.retired),
            ..RepairReport::default()
        };

        // --- Digest motion: handovers and dominator color conflicts. ---
        let hyst = self.mcfg.handover_hysteresis.max(1.0) * self.cfg.cluster_radius;
        let mut recolor: BTreeSet<u32> = BTreeSet::new();
        self.refresh_dominator_grid(env);
        let node_params = self.cfg.algo.node_params();
        let r_sep =
            (2.0 * self.cfg.cluster_radius + node_params.r_eps()).max(node_params.r_eps_half());
        let movers: Vec<u32> = std::mem::take(&mut self.movers).into_iter().collect();

        // Cluster merges: mobility can push two dominators inside the
        // independence radius, eroding the density invariant the whole
        // TDMA rests on. The smaller cluster's dominator demotes (ties
        // break to the smaller id, mirroring the protocols' own rule) and
        // its population re-homes — usually straight into the absorber.
        let mut demoted: BTreeSet<u32> = BTreeSet::new();
        for &v in &movers {
            let vi = v as usize;
            if !self.alive[vi]
                || demoted.contains(&v)
                || !self.structure.records[vi].role.is_dominator()
            {
                continue;
            }
            let mut nearest: Option<(u32, f64)> = None;
            self.grid.for_each_within(
                &self.grid_pts,
                env.positions[vi],
                self.cfg.cluster_radius,
                |k| {
                    let u = self.grid_doms[k];
                    if u == v
                        || demoted.contains(&u)
                        || !self.structure.records[u as usize].role.is_dominator()
                    {
                        return;
                    }
                    let d = env.positions[u as usize].dist(env.positions[vi]);
                    if nearest.is_none_or(|(_, bd)| d < bd) {
                        nearest = Some((u, d));
                    }
                },
            );
            let Some((u, _)) = nearest else {
                continue;
            };
            let (mv, mu) = (
                self.live_member_count(NodeId(v)),
                self.live_member_count(NodeId(u)),
            );
            let loser = if mv < mu || (mv == mu && u < v) { v } else { u };
            let winner = if loser == v { u } else { v };
            for m in self.live_members(NodeId(loser)) {
                if m.0 != loser {
                    detach(&mut self.structure.records[m.index()]);
                    self.seekers.insert(m.0);
                }
            }
            detach(&mut self.structure.records[loser as usize]);
            self.seekers.insert(loser);
            self.dirty.remove(&loser);
            self.dirty.insert(winner);
            demoted.insert(loser);
            report.merged_clusters += 1;
        }
        if !demoted.is_empty() {
            self.structure.rebuild_members_index();
            self.refresh_dominator_grid(env);
        }

        for v in movers {
            let vi = v as usize;
            if !self.alive[vi] {
                continue;
            }
            let rec = &self.structure.records[vi];
            if rec.role.is_dominator() {
                // Members left behind by a moving dominator.
                for m in self.live_members(NodeId(v)) {
                    if m.0 == v {
                        continue;
                    }
                    if env.positions[m.index()].dist(env.positions[vi]) > hyst {
                        detach(&mut self.structure.records[m.index()]);
                        self.seekers.insert(m.0);
                        self.dirty.insert(v);
                        report.handovers += 1;
                    }
                }
                // Same-color dominator now within the separation radius:
                // the larger id of the pair yields (whether or not it is
                // the one that moved), mirroring the coloring protocol's
                // own healing rule.
                let my_color = self.structure.records[vi].cluster_color;
                if my_color.is_some() {
                    self.grid
                        .for_each_within(&self.grid_pts, env.positions[vi], r_sep, |k| {
                            let other = self.grid_doms[k];
                            if other != v
                                && self.structure.records[other as usize].cluster_color == my_color
                            {
                                recolor.insert(other.max(v));
                            }
                        });
                }
            } else if let Some(c) = rec.cluster {
                if !self.alive[c.index()] || env.positions[vi].dist(env.positions[c.index()]) > hyst
                {
                    detach(&mut self.structure.records[vi]);
                    self.seekers.insert(v);
                    if self.alive[c.index()] {
                        self.dirty.insert(c.0);
                    }
                    report.handovers += 1;
                }
            }
        }

        // --- Proactive digest: act on detector flags before any audit
        // fails. A flagged member pre-emptively re-homes; a flagged
        // dominator demotes and its cluster re-homes plus re-elects, all
        // through the same seeker machinery the reactive paths use. Each
        // action arms a bounded exponential backoff on the node so a
        // transient fade cannot thrash handovers; the flag itself only
        // clears on a detector recovery notice.
        report.recovered_flags = std::mem::take(&mut self.recovered);
        let epoch = self.epochs;
        let mut proactive_demoted = false;
        for f in self.flagged.iter().copied().collect::<Vec<u32>>() {
            let fi = f as usize;
            if !self.alive[fi] {
                continue;
            }
            if let Some(&(_, until)) = self.backoff.get(&f) {
                if epoch < until {
                    report.deferred_flags += 1;
                    continue;
                }
            }
            if self.structure.records[fi].role.is_dominator() {
                for m in self.live_members(NodeId(f)) {
                    if m.0 != f {
                        detach(&mut self.structure.records[m.index()]);
                        self.seekers.insert(m.0);
                    }
                }
                detach(&mut self.structure.records[fi]);
                self.seekers.insert(f);
                self.dirty.remove(&f);
                proactive_demoted = true;
                report.proactive_demotions += 1;
            } else {
                if let Some(c) = self.structure.records[fi].cluster {
                    if self.alive[c.index()] {
                        self.dirty.insert(c.0);
                    }
                }
                detach(&mut self.structure.records[fi]);
                self.seekers.insert(f);
                report.proactive_rehomes += 1;
            }
            if let Some(&(since, detect_slot)) = self.flag_meta.get(&f) {
                report.time_to_detect =
                    report.time_to_detect.max(detect_slot.saturating_sub(since));
                if let Some(now) = self.now {
                    report.time_to_repair = report.time_to_repair.max(now.saturating_sub(since));
                }
            }
            let level = self.backoff.get(&f).map_or(0, |&(l, _)| l);
            let wait = self
                .mcfg
                .backoff_base
                .saturating_mul(1u64 << level.min(16))
                .clamp(1, self.mcfg.backoff_cap.max(1));
            self.backoff
                .insert(f, (level.saturating_add(1), epoch + wait));
        }
        if proactive_demoted {
            self.structure.rebuild_members_index();
            self.refresh_dominator_grid(env);
        }

        let live_count = self.live_count();
        report.seekers = self.seekers.len();
        if self.seekers.is_empty()
            && self.dirty.is_empty()
            && recolor.is_empty()
            && report.retired_clusters == 0
        {
            return report;
        }

        // --- Rebuild fallback: churn outran locality. ---
        if live_count == 0
            || self.seekers.len() as f64 > self.mcfg.rebuild_threshold * live_count as f64
        {
            let mut cfg = self.cfg;
            cfg.seed = derive_seed(seed, 0x4EB1);
            self.structure =
                build_structure_observed(env, &cfg, Some(&self.alive), self.obs.as_mut());
            self.seekers.clear();
            self.dirty.clear();
            report.kind = RepairKind::Rebuilt;
            report.rebuild_slots = self.structure.report.total_slots();
            return report;
        }
        report.kind = RepairKind::Repaired;

        // --- R1: re-home seekers onto surviving dominators. ---
        let seekers: Vec<u32> = std::mem::take(&mut self.seekers).into_iter().collect();
        let (attached, mut uncovered, confirms, slots) =
            self.rehome(env, &seekers, derive_seed(seed, 0x4E01));
        report.rehome_slots += slots;
        report.join_confirms += confirms;
        report.rehomed += attached;

        // --- R2: MIS patch among uncovered seekers. ---
        let mut new_doms: Vec<u32> = Vec::new();
        if !uncovered.is_empty() {
            let mut active = vec![false; n];
            for &u in &uncovered {
                active[u as usize] = true;
            }
            let patch =
                stages::dominating_stage(env, &self.cfg, &active, derive_seed(seed, 0x4E02));
            report.patch_slots += patch.slots;
            for &u in &uncovered {
                if patch.is_dominator[u as usize] {
                    self.structure.records[u as usize].make_dominator();
                    self.dirty.insert(u);
                    new_doms.push(u);
                }
            }
            report.new_dominators = new_doms.len();
            uncovered.retain(|u| !patch.is_dominator[*u as usize]);
        }

        // --- R3: recoloring patch (fresh dominators + moved conflicts). ---
        if !new_doms.is_empty() || !recolor.is_empty() {
            let claimants: BTreeSet<u32> = new_doms
                .iter()
                .copied()
                .chain(recolor.iter().copied())
                .collect();
            for &c in &recolor {
                self.structure.records[c as usize].cluster_color = None;
                self.dirty.insert(c);
            }
            let seats: Vec<ColorSeat> = (0..n)
                .map(|i| {
                    if claimants.contains(&(i as u32)) {
                        ColorSeat::Claimant
                    } else if self.alive[i] && self.structure.records[i].role.is_dominator() {
                        match self.structure.records[i].cluster_color {
                            Some(c) => ColorSeat::Committed(c),
                            None => ColorSeat::Out,
                        }
                    } else {
                        ColorSeat::Out
                    }
                })
                .collect();
            let patch = stages::color_patch_stage(
                env,
                &self.cfg,
                &seats,
                None,
                derive_seed(seed, 0x4E03),
                0xC0102,
            );
            report.color_slots += patch.slots;
            report.recolored = recolor.len();
            let mut next_fresh = self
                .structure
                .records
                .iter()
                .filter_map(|r| r.cluster_color)
                .max()
                .map_or(0, |c| c + 1)
                .max(self.structure.phi);
            for &c in &claimants {
                let color = match patch.colors[c as usize] {
                    Some(col) => col,
                    None => {
                        // Uncommitted within the round budget: fresh unique
                        // color, exactly as the build's cap fallback.
                        let col = next_fresh;
                        next_fresh += 1;
                        col
                    }
                };
                self.structure.records[c as usize].cluster_color = Some(color);
                self.structure.phi = self.structure.phi.max(color + 1);
            }
            // Separation exceeds the decode range by a thin annulus (r_sep
            // can top R_T), so a claimant may commit a color it could never
            // have heard conflicts against. Certify each patch color
            // centrally and bump survivors to fresh colors — the same
            // orchestrator fallback the build applies past its cap.
            self.refresh_dominator_grid(env);
            for &c in &claimants {
                let my_color = self.structure.records[c as usize].cluster_color;
                let mut conflicted = false;
                self.grid
                    .for_each_within(&self.grid_pts, env.positions[c as usize], r_sep, |k| {
                        let other = self.grid_doms[k];
                        if other != c
                            && self.structure.records[other as usize].cluster_color == my_color
                        {
                            conflicted = true;
                        }
                    });
                if conflicted {
                    self.structure.records[c as usize].cluster_color = Some(next_fresh);
                    self.structure.phi = self.structure.phi.max(next_fresh + 1);
                    next_fresh += 1;
                }
            }
        }

        // --- R4: admit remaining seekers to the now-colored patch
        // dominators (second ANNOUNCE/JOIN pass). ---
        if !uncovered.is_empty() {
            let (attached, still, confirms, slots) =
                self.rehome(env, &uncovered, derive_seed(seed, 0x4E04));
            report.rehome_slots += slots;
            report.join_confirms += confirms;
            report.rehomed += attached;
            // Every protocol avenue failed (isolated node, lost announces):
            // it heads its own singleton cluster with a fresh color.
            for u in still {
                let rec = &mut self.structure.records[u as usize];
                rec.make_dominator();
                let color = self.structure.phi;
                rec.cluster_color = Some(color);
                self.structure.phi += 1;
                self.dirty.insert(u);
                report.forced_singletons += 1;
            }
        }

        // --- R5: census refresh for dirty clusters. The dominator heard
        // its JOINers (R1/R4) and missed its dead members' heartbeats; the
        // ledger below is that knowledge, applied cluster-wide. ---
        self.structure.rebuild_members_index();
        self.dirty.retain(|&d| {
            self.alive[d as usize] && self.structure.records[d as usize].role.is_dominator()
        });
        let dirty: Vec<u32> = self.dirty.iter().copied().collect();
        for &d in &dirty {
            let members: Vec<NodeId> = self.structure.members_of(NodeId(d)).to_vec();
            let est = (members.len() as u64).max(1);
            let fv = self.cfg.algo.cluster_channels(est);
            let color = self.structure.records[d as usize].cluster_color;
            for m in members {
                let rec = &mut self.structure.records[m.index()];
                rec.cluster_size_est = Some(est);
                rec.cluster_channels = Some(fv);
                rec.cluster_color = color;
            }
        }
        report.dirty_clusters = dirty.len();

        // --- R6: scoped reporter re-election for dirty clusters. ---
        if !dirty.is_empty() {
            let scope: HashSet<NodeId> = dirty.iter().map(|&d| NodeId(d)).collect();
            report.election_slots += stages::election_stage(
                env,
                &self.cfg,
                &mut self.structure.records,
                self.structure.phi,
                Some(&scope),
                derive_seed(seed, 0x4E05),
                Some(&self.alive),
            );
        }
        self.dirty.clear();
        // Reporter certification (dominator-side bookkeeping, no slots):
        // the election's at-most-one-per-channel guarantee is whp, and the
        // channel-fill guarantee likewise — repeated epochs compound both
        // exposures, and a deficit can even come in from the initial build.
        // Every dominator can see both failures on its own channels (a
        // duplicate the moment both reporters serve one channel, a hole as
        // the silence behind the build's `serves_channel0` rescue), so the
        // sweep runs over every live cluster: duplicates demote (smaller id
        // stays), holes get an appointed member — preferring one already
        // listening on the channel, falling back to any spare follower.
        let (dedups, appointments) = self.certify_reporters();
        report.reporter_dedups += dedups;
        report.reporter_appointments += appointments;

        // --- Bookkeeping: the structure-level accounting experiments read.
        self.structure.rebuild_members_index();
        self.structure.report.phi = self.structure.phi;
        self.structure.report.clusters = self
            .structure
            .records
            .iter()
            .enumerate()
            .filter(|(i, r)| self.alive[*i] && r.role.is_dominator())
            .count();
        self.structure.report.unclustered = self
            .structure
            .records
            .iter()
            .enumerate()
            .filter(|(i, r)| self.alive[*i] && r.cluster.is_none())
            .count();
        let (filled, total) = stages::channel_accounting(&self.structure.records);
        self.structure.report.channels_filled = filled;
        self.structure.report.channels_total = total;
        report
    }

    /// Runs one ANNOUNCE/JOIN re-homing pass for `seekers`. Anchors are the
    /// live dominators within reach of any seeker; everyone else is absent.
    /// Returns `(attached, still_uncovered, join_confirms, slots)` and
    /// applies successful attachments to the records.
    fn rehome(
        &mut self,
        env: &NetworkEnv,
        seekers: &[u32],
        seed: u64,
    ) -> (usize, Vec<u32>, usize, u64) {
        if seekers.is_empty() {
            return (0, Vec::new(), 0, 0);
        }
        self.refresh_dominator_grid(env);
        // The affected neighborhood: anchors a seeker could attach to, with
        // margin for RSSI slack. A detector-flagged dominator cannot
        // reliably decode JOINs, so the first pass offers only clean
        // dominators; seekers left over then salvage-attach to flagged
        // dominators in reach — a hard exclusion would strand whole jammed
        // neighborhoods into adjacent forced singletons and break dominator
        // independence.
        let reach = 1.5 * self.cfg.cluster_radius;
        let nearby = |this: &Self, set: &[u32], want_flagged: bool| -> BTreeSet<u32> {
            let mut anchors = BTreeSet::new();
            for &s in set {
                this.grid
                    .for_each_within(&this.grid_pts, env.positions[s as usize], reach, |k| {
                        let u = this.grid_doms[k];
                        if this.flagged.contains(&u) == want_flagged {
                            anchors.insert(u);
                        }
                    });
            }
            anchors
        };
        let clean = nearby(self, seekers, false);
        let (attached, still, confirms, slots) =
            self.rehome_pass(env, seekers, &clean, derive_seed(seed, 0x4E40));
        if still.is_empty() {
            return (attached, still, confirms, slots);
        }
        let flagged = nearby(self, &still, true);
        if flagged.is_empty() {
            return (attached, still, confirms, slots);
        }
        let (attached2, still2, confirms2, slots2) =
            self.rehome_pass(env, &still, &flagged, derive_seed(seed, 0x4E41));
        (
            attached + attached2,
            still2,
            confirms + confirms2,
            slots + slots2,
        )
    }

    /// One simulated announce/join pass of [`StructureMaintainer::rehome`]
    /// over a fixed anchor set, with `engine_seed` as the engine's RNG
    /// seed. Returns `(attached, leftover_seekers, confirms, slots)`.
    fn rehome_pass(
        &mut self,
        env: &NetworkEnv,
        seekers: &[u32],
        anchors: &BTreeSet<u32>,
        engine_seed: u64,
    ) -> (usize, Vec<u32>, usize, u64) {
        let n = env.len();
        let algo = &self.cfg.algo;
        let seeker_set: BTreeSet<u32> = seekers.iter().copied().collect();
        let cfg = RehomeCfg {
            radius: self.cfg.cluster_radius,
            p_announce: algo.density_tx_prob(),
            p_join: algo.density_tx_prob(),
            rounds: algo.announce_rounds(),
            params: algo.node_params(),
        };
        let mut participates = vec![false; n];
        let protocols: Vec<RehomeProtocol> = (0..n)
            .map(|i| {
                let id = NodeId(i as u32);
                let role = if seeker_set.contains(&(i as u32)) {
                    RehomeRole::Seeker
                } else if anchors.contains(&(i as u32)) {
                    RehomeRole::Anchor {
                        color: self.structure.records[i].cluster_color.unwrap_or(0),
                    }
                } else {
                    RehomeRole::Out
                };
                participates[i] = role != RehomeRole::Out;
                RehomeProtocol::new(id, role, cfg)
            })
            .collect();
        let (out, slots) = env.run_phase(
            protocols,
            Some(&participates),
            engine_seed,
            2 * cfg.rounds + 2,
            all_done,
        );

        let mut attached = 0;
        let mut still = Vec::new();
        let mut confirms = 0;
        for p in &out {
            if let RehomeRole::Anchor { .. } = p.role {
                confirms += p.joins_heard as usize;
            }
        }
        for &s in seekers {
            match out[s as usize].attachment() {
                Some((dom, color, dist)) => {
                    let rec = &mut self.structure.records[s as usize];
                    rec.make_member(dom, dist);
                    rec.cluster_color = Some(color);
                    self.dirty.insert(dom.0);
                    attached += 1;
                }
                None => still.push(s),
            }
        }
        (attached, still, confirms, slots)
    }

    /// Reporter certification over every live cluster: demotes duplicate
    /// reporters per channel (smaller id stays) and appoints members onto
    /// electable channels left without one. Returns
    /// `(dedups, appointments)`. Pure record bookkeeping — see the call
    /// site in [`StructureMaintainer::repair`] for why the dominator
    /// legitimately knows both conditions.
    fn certify_reporters(&mut self) -> (usize, usize) {
        let n = self.structure.records.len();
        let mut dedups = 0;
        let mut appointments = 0;
        let mut seen: HashSet<(NodeId, u16)> = HashSet::new();
        for i in 0..n {
            if !self.alive[i] || !self.structure.records[i].role.is_reporter() {
                continue;
            }
            let rec = &self.structure.records[i];
            let (Some(c), Some(ch)) = (rec.cluster, rec.channel) else {
                continue;
            };
            if !seen.insert((c, ch.0)) {
                self.structure.records[i].role = Role::Follower;
                dedups += 1;
            }
        }
        let heads: Vec<u32> = (0..n as u32)
            .filter(|&d| {
                self.alive[d as usize] && self.structure.records[d as usize].role.is_dominator()
            })
            .collect();
        for d in heads {
            let head = NodeId(d);
            let members: Vec<NodeId> = self
                .live_members(head)
                .into_iter()
                .filter(|m| *m != head)
                .collect();
            if members.is_empty() {
                continue;
            }
            let fv = self.structure.records[d as usize]
                .cluster_channels
                .unwrap_or(1);
            let electable = (fv as usize).min(members.len()) as u16;
            for ch in 0..electable {
                let filled = members.iter().any(|m| {
                    let r = &self.structure.records[m.index()];
                    r.role.is_reporter() && r.channel == Some(Channel(ch))
                });
                if filled {
                    continue;
                }
                let pick = members
                    .iter()
                    .find(|m| {
                        let r = &self.structure.records[m.index()];
                        !r.role.is_reporter() && r.channel == Some(Channel(ch))
                    })
                    .or_else(|| {
                        members
                            .iter()
                            .find(|m| !self.structure.records[m.index()].role.is_reporter())
                    });
                if let Some(&m) = pick {
                    let rec = &mut self.structure.records[m.index()];
                    rec.role = Role::Reporter { heap_pos: ch + 1 };
                    rec.channel = Some(Channel(ch));
                    appointments += 1;
                }
            }
        }
        (dedups, appointments)
    }

    /// Live members currently attached to `head` (index entries are
    /// re-validated against the records, so a stale index is harmless).
    fn live_members(&self, head: NodeId) -> Vec<NodeId> {
        self.structure
            .members_of(head)
            .iter()
            .copied()
            .filter(|m| {
                self.alive[m.index()] && self.structure.records[m.index()].cluster == Some(head)
            })
            .collect()
    }

    /// Number of live members attached to `head`, allocation-free.
    fn live_member_count(&self, head: NodeId) -> usize {
        self.structure
            .members_of(head)
            .iter()
            .filter(|m| {
                self.alive[m.index()] && self.structure.records[m.index()].cluster == Some(head)
            })
            .count()
    }

    /// Rebuilds the reused grid over the current live dominator positions.
    fn refresh_dominator_grid(&mut self, env: &NetworkEnv) {
        self.grid_doms.clear();
        self.grid_pts.clear();
        for (i, r) in self.structure.records.iter().enumerate() {
            if self.alive[i] && r.role.is_dominator() {
                self.grid_doms.push(i as u32);
                self.grid_pts.push(env.positions[i]);
            }
        }
        self.grid
            .rebuild(&self.grid_pts, self.cfg.cluster_radius.max(1e-9));
    }
}

/// Clears a record's membership (the node keeps existing but belongs to no
/// cluster until re-homed).
fn detach(rec: &mut NodeRecord) {
    rec.role = Role::Undecided;
    rec.cluster = None;
    rec.dominator_dist = None;
    rec.cluster_color = None;
    rec.cluster_size_est = None;
    rec.cluster_channels = None;
    rec.channel = None;
    rec.reporter = None;
    rec.serves_channel0 = false;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlgoConfig;
    use crate::structure::SubstrateMode;
    use mca_geom::Deployment;
    use rand::SeedableRng;

    fn world(n: usize, side: f64, seed: u64) -> (NetworkEnv, StructureConfig) {
        let params = SinrParams::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let deploy = Deployment::uniform(n, side, &mut rng);
        let env = NetworkEnv::new(params, &deploy);
        let algo = AlgoConfig::practical(4, &params, n);
        let mut cfg = StructureConfig::new(algo, seed);
        cfg.substrate = SubstrateMode::Oracle;
        (env, cfg)
    }

    fn crash(m: &mut StructureMaintainer, node: u32, slot: u64) {
        m.observe(&NodeEvent::Crashed {
            node: NodeId(node),
            slot,
        });
    }

    #[test]
    fn clean_world_repairs_for_free() {
        let (env, cfg) = world(120, 11.0, 3);
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
        assert!(!m.is_dirty());
        let report = m.repair(&env, 77);
        assert_eq!(report.kind, RepairKind::Clean);
        assert_eq!(report.total_slots(), 0);
        m.audit(&env).assert_sound_with(&m.tolerances());
    }

    #[test]
    fn dominator_crash_is_repaired_audit_clean() {
        let (env, cfg) = world(150, 11.0, 5);
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
        m.audit(&env).assert_sound();
        // Crash the dominator with the most members.
        let victim = m
            .structure()
            .dominators()
            .into_iter()
            .max_by_key(|&d| m.structure().members_of(d).len())
            .unwrap();
        let orphans = m.structure().members_of(victim).len() - 1;
        crash(&mut m, victim.0, 10);
        assert!(m.is_dirty());
        let report = m.repair(&env, 91);
        assert_eq!(report.kind, RepairKind::Repaired);
        assert_eq!(report.retired_clusters, 1);
        assert_eq!(report.seekers, orphans);
        assert!(report.total_slots() > 0, "repair must consume slots");
        m.audit(&env).assert_sound_with(&m.tolerances());
        // The crashed node is fully out of the structure.
        assert!(m.structure().records[victim.index()].cluster.is_none());
    }

    #[test]
    fn member_crash_refreshes_census() {
        let (env, cfg) = world(150, 11.0, 7);
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
        let victim = m
            .structure()
            .records
            .iter()
            .find(|r| !r.role.is_dominator() && r.cluster.is_some())
            .map(|r| r.id)
            .unwrap();
        let head = m.structure().records[victim.index()].cluster.unwrap();
        let before = m.structure().members_of(head).len();
        crash(&mut m, victim.0, 10);
        let report = m.repair(&env, 13);
        assert_eq!(report.kind, RepairKind::Repaired);
        assert_eq!(m.structure().members_of(head).len(), before - 1);
        m.audit(&env).assert_sound_with(&m.tolerances());
    }

    #[test]
    fn late_joiner_is_admitted() {
        let (env, cfg) = world(130, 11.0, 9);
        let mut alive = vec![true; 130];
        alive[17] = false;
        alive[18] = false;
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), Some(&alive));
        assert!(m.structure().records[17].cluster.is_none());
        m.observe(&NodeEvent::Joined {
            node: NodeId(17),
            slot: 50,
        });
        m.observe(&NodeEvent::Joined {
            node: NodeId(18),
            slot: 51,
        });
        let report = m.repair(&env, 23);
        assert_eq!(report.kind, RepairKind::Repaired);
        assert_eq!(report.seekers, 2);
        assert!(m.structure().records[17].cluster.is_some());
        assert!(m.structure().records[18].cluster.is_some());
        m.audit(&env).assert_sound_with(&m.tolerances());
    }

    #[test]
    fn handover_rehomes_drifted_member() {
        let (env, cfg) = world(140, 11.0, 11);
        let radius = cfg.cluster_radius;
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
        // Teleport a member far from its dominator (next to another one).
        let (victim, head) = m
            .structure()
            .records
            .iter()
            .find(|r| !r.role.is_dominator() && r.cluster.is_some())
            .map(|r| (r.id, r.cluster.unwrap()))
            .unwrap();
        let target = m
            .structure()
            .dominators()
            .into_iter()
            .max_by(|a, b| {
                let da = env.positions[a.index()].dist(env.positions[head.index()]);
                let db = env.positions[b.index()].dist(env.positions[head.index()]);
                da.partial_cmp(&db).unwrap()
            })
            .unwrap();
        let mut env2 = env.clone();
        env2.positions[victim.index()] = mca_geom::Point::new(
            env.positions[target.index()].x + 0.3 * radius,
            env.positions[target.index()].y,
        );
        m.observe(&NodeEvent::Moved {
            node: victim,
            slot: 60,
            from: env.positions[victim.index()],
            to: env2.positions[victim.index()],
        });
        let report = m.repair(&env2, 31);
        assert_eq!(report.kind, RepairKind::Repaired);
        assert_eq!(report.handovers, 1);
        let new_head = m.structure().records[victim.index()].cluster;
        assert!(
            new_head.is_some() && new_head != Some(head),
            "member must re-home"
        );
        m.audit(&env2).assert_sound_with(&m.tolerances());
    }

    #[test]
    fn mass_churn_triggers_rebuild() {
        let (env, cfg) = world(100, 10.0, 13);
        let mcfg = MaintainConfig {
            rebuild_threshold: 0.2,
            ..MaintainConfig::default()
        };
        let mut m = StructureMaintainer::build(&env, cfg, mcfg, None);
        // Crash every dominator: nearly everyone becomes a seeker.
        for d in m.structure().dominators() {
            crash(&mut m, d.0, 10);
        }
        let report = m.repair(&env, 41);
        assert_eq!(report.kind, RepairKind::Rebuilt);
        assert!(report.rebuild_slots > 0);
        m.audit(&env).assert_sound_with(&m.tolerances());
    }

    #[test]
    fn repairs_are_deterministic_in_seed() {
        let (env, cfg) = world(120, 11.0, 17);
        let run = || {
            let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
            let victim = m.structure().dominators()[0];
            crash(&mut m, victim.0, 10);
            let report = m.repair(&env, 55);
            (report, m.structure().records.clone())
        };
        let (r1, s1) = run();
        let (r2, s2) = run();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn obs_recorder_never_perturbs_repairs() {
        let run = |observe: bool| {
            let (env, cfg) = world(120, 11.0, 5);
            let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
            if observe {
                m.attach_obs(mca_obs::Recorder::new());
            }
            crash(&mut m, 3, 10);
            crash(&mut m, 17, 10);
            let report = m.repair(&env, 99);
            (report, m.structure().records.clone())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn obs_repair_emits_typed_events() {
        use mca_obs::EventKind;
        let (env, cfg) = world(120, 11.0, 3);
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
        m.attach_obs(mca_obs::Recorder::new());
        let clean = m.repair(&env, 77);
        assert_eq!(clean.kind, RepairKind::Clean);
        let victim = m.structure().dominators()[0];
        crash(&mut m, victim.0, 4);
        let repaired = m.repair(&env, 78);
        let rec = m.obs().unwrap();
        let kinds: Vec<EventKind> = rec.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::RepairClean));
        // The crash orphans cluster members; either they re-home or the
        // MIS patch promotes replacements — both must be attributed.
        if repaired.kind == RepairKind::Repaired {
            assert!(
                kinds.contains(&EventKind::RepairRehome)
                    || kinds.contains(&EventKind::RepairMisPatch)
            );
        }
        // Epoch attribution matches the maintainer's counter.
        assert!(rec.events().iter().all(|e| e.epoch >= 1 && e.epoch <= 2));
        // Two repair spans, one per epoch.
        let spans = rec
            .spans()
            .iter()
            .filter(|s| s.kind == mca_obs::SpanKind::Repair)
            .count();
        assert_eq!(spans, 2);
    }

    fn degraded(node: u32, slot: u64, since: u64) -> DetectionEvent {
        DetectionEvent::Degraded {
            node: NodeId(node),
            slot,
            score: 0.2,
            since,
        }
    }

    fn recovered(node: u32, slot: u64) -> DetectionEvent {
        DetectionEvent::Recovered {
            node: NodeId(node),
            slot,
            score: 0.9,
        }
    }

    /// A live member (not a dominator) of a multi-member cluster.
    fn some_member(m: &StructureMaintainer) -> u32 {
        m.structure()
            .records
            .iter()
            .position(|r| !r.role.is_dominator() && r.cluster.is_some_and(|c| c != r.id))
            .expect("world has at least one attached member") as u32
    }

    #[test]
    fn proactive_member_rehome_is_audit_clean_with_latencies() {
        let (env, cfg) = world(150, 11.0, 7);
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
        let victim = some_member(&m);
        m.observe_detection(&degraded(victim, 30, 20));
        assert!(m.is_dirty() && m.is_flagged(victim));
        let report = m.repair_at(&env, 123, 40);
        assert_eq!(report.kind, RepairKind::Repaired);
        assert_eq!(report.proactive_rehomes, 1);
        assert_eq!(report.proactive_demotions, 0);
        assert_eq!(report.time_to_detect, 10, "flag slot 30 - onset 20");
        assert_eq!(report.time_to_repair, 20, "repair slot 40 - onset 20");
        m.audit(&env).assert_sound_with(&m.tolerances());
        // The flag persists (no recovery notice yet) — only the backoff
        // keeps the next epochs from re-acting.
        assert!(m.is_flagged(victim));
    }

    #[test]
    fn plain_repair_reports_zero_time_to_repair() {
        let (env, cfg) = world(150, 11.0, 7);
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
        m.observe_detection(&degraded(some_member(&m), 30, 20));
        let report = m.repair(&env, 123);
        assert_eq!(report.time_to_detect, 10);
        assert_eq!(report.time_to_repair, 0, "no clock without repair_at");
    }

    #[test]
    fn flagged_dominator_demotes_into_scoped_reelection() {
        let (env, cfg) = world(150, 11.0, 5);
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
        let victim = m
            .structure()
            .dominators()
            .into_iter()
            .max_by_key(|&d| m.structure().members_of(d).len())
            .unwrap();
        let orphans = m.structure().members_of(victim).len() - 1;
        m.observe_detection(&degraded(victim.0, 50, 44));
        let report = m.repair_at(&env, 91, 60);
        assert_eq!(report.kind, RepairKind::Repaired);
        assert_eq!(report.proactive_demotions, 1);
        assert!(
            report.seekers > orphans,
            "the demoted dominator and its members all re-home"
        );
        // The victim may be re-promoted by the MIS patch (an uncovered
        // seeker is a natural MIS point), and members with no clean
        // dominator in reach may salvage-attach back to it — but the
        // cluster was broken up, re-homed with clean-anchors-first
        // preference, and the structure must still audit sound. The flag
        // survives (only a detector recovery clears it), so the backoff
        // now owns the retry cadence.
        assert!(m.is_flagged(victim.0), "only Recovered clears a flag");
        m.audit(&env).assert_sound_with(&m.tolerances());
    }

    #[test]
    fn backoff_defers_reflagged_nodes_then_rearms() {
        let (env, cfg) = world(150, 11.0, 7);
        let mcfg = MaintainConfig {
            backoff_base: 4,
            ..MaintainConfig::default()
        };
        let mut m = StructureMaintainer::build(&env, cfg, mcfg, None);
        let victim = some_member(&m);
        m.observe_detection(&degraded(victim, 30, 20));
        let first = m.repair(&env, 1);
        assert_eq!(first.proactive_rehomes, 1);
        // Epochs 2..=4 sit inside the backoff window: the still-flagged
        // node is deferred, not thrashed.
        for seed in 2..=4 {
            let r = m.repair(&env, seed);
            assert_eq!(r.proactive_rehomes, 0, "epoch {seed} must defer");
            assert_eq!(r.deferred_flags, 1);
        }
        // Epoch 5 re-arms (and doubles the next wait).
        let again = m.repair(&env, 5);
        assert_eq!(again.proactive_rehomes, 1);
        assert_eq!(again.deferred_flags, 0);
        m.audit(&env).assert_sound_with(&m.tolerances());
    }

    #[test]
    fn recovery_notice_clears_flag_without_repair_work() {
        let (env, cfg) = world(150, 11.0, 7);
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
        let victim = some_member(&m);
        m.observe_detection(&degraded(victim, 30, 20));
        m.repair(&env, 1);
        assert!(m.is_flagged(victim));
        m.observe_detection(&recovered(victim, 90));
        assert!(!m.is_flagged(victim));
        let report = m.repair(&env, 2);
        assert_eq!(report.recovered_flags, 1);
        assert_eq!(report.proactive_rehomes, 0);
        // Backoff was reset: a fresh degradation acts immediately.
        m.observe_detection(&degraded(victim, 120, 110));
        let report = m.repair(&env, 3);
        assert_eq!(report.proactive_rehomes, 1);
        assert_eq!(report.deferred_flags, 0);
        m.audit(&env).assert_sound_with(&m.tolerances());
    }

    #[test]
    fn flagged_dominators_are_last_resort_anchors() {
        let (env, cfg) = world(150, 11.0, 5);
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
        // Flag a few dominators (few enough to stay under the rebuild
        // threshold): the proactive digest demotes them, clean dominators
        // get the first re-home pass, and flagged ones only salvage the
        // stragglers — a hard exclusion would strand jammed neighborhoods
        // into adjacent forced singletons. Net effect: flagged clusters
        // lose most of their membership while the audit stays sound.
        let victims: Vec<NodeId> = m.structure().dominators().into_iter().take(3).collect();
        let before: usize = victims
            .iter()
            .map(|&d| m.structure().members_of(d).len().saturating_sub(1))
            .sum();
        for &d in &victims {
            m.observe_detection(&degraded(d.0, 10, 5));
        }
        let report = m.repair(&env, 7);
        assert_eq!(report.kind, RepairKind::Repaired);
        assert_eq!(report.proactive_demotions, 3);
        m.audit(&env).assert_sound_with(&m.tolerances());
        let after = m
            .structure()
            .records
            .iter()
            .enumerate()
            .filter(|&(i, r)| {
                r.cluster
                    .is_some_and(|c| c.index() != i && victims.contains(&c))
            })
            .count();
        assert!(
            after < before.max(1),
            "flagged clusters kept {after} of {before} members"
        );
    }

    #[test]
    fn crash_supersedes_degradation_flag() {
        let (env, cfg) = world(150, 11.0, 5);
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
        let victim = some_member(&m);
        m.observe_detection(&degraded(victim, 30, 20));
        crash(&mut m, victim, 35);
        assert!(!m.is_flagged(victim));
        let report = m.repair(&env, 9);
        assert_eq!(report.proactive_rehomes, 0);
        m.audit(&env).assert_sound_with(&m.tolerances());
    }

    #[test]
    fn repair_report_merge_is_element_wise() {
        let a = RepairReport {
            kind: RepairKind::Repaired,
            rehome_slots: 10,
            seekers: 3,
            rehomed: 2,
            proactive_rehomes: 1,
            time_to_detect: 4,
            time_to_repair: 9,
            ..RepairReport::default()
        };
        let b = RepairReport {
            kind: RepairKind::Rebuilt,
            rebuild_slots: 50,
            seekers: 5,
            deferred_flags: 2,
            time_to_detect: 7,
            time_to_repair: 6,
            ..RepairReport::default()
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.kind, RepairKind::Rebuilt, "max-severity kind");
        assert_eq!(merged.rehome_slots, 10);
        assert_eq!(merged.rebuild_slots, 50);
        assert_eq!(merged.total_slots(), 60);
        assert_eq!(merged.seekers, 8);
        assert_eq!(merged.rehomed, 2);
        assert_eq!(merged.proactive_rehomes, 1);
        assert_eq!(merged.deferred_flags, 2);
        assert_eq!(merged.time_to_detect, 7, "latencies keep the worst case");
        assert_eq!(merged.time_to_repair, 9);
        let mut clean = RepairReport::default();
        clean.merge(&RepairReport::default());
        assert_eq!(clean.kind, RepairKind::Clean);
    }
}
