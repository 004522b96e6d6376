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
//!   ([`stages::color_patch_stage`]); a claimant that fails to commit gets
//!   a fresh color above every color in force, including those claimed in
//!   the same patch ([`stages::fill_fresh_colors`]);
//! * **local re-election** — clusters whose membership changed re-run
//!   reporter election under the cluster-color TDMA, everyone else keeping
//!   their reporters.
//!
//! Every path that breaks a node out of its cluster — a dominator crash, a
//! merge, a handover, a proactive action — goes through one helper that
//! detaches the node and queues it as a seeker; a dissolved cluster is that
//! helper applied to each live member.
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

/// Motion watch granularity, as a fraction of the cluster radius: the
/// engine reports motion only on drifts beyond `MOVE_THRESHOLD · r_c` from
/// the last anchor ([`StructureMaintainer::move_threshold`]). Between a
/// pair's events its true distance can exceed what the maintainer last
/// acted on by up to four anchors' worth, which
/// [`StructureMaintainer::tolerances`] accounts for.
const MOVE_THRESHOLD: f64 = 0.05;

/// Epochs a node waits after its first proactive action before it can be
/// acted on again while still flagged; each further action doubles the wait
/// (bounded exponential backoff, capped at [`BACKOFF_CAP`]). A recovery
/// notice resets the node's backoff. Keeps a transiently faded link from
/// thrashing handovers epoch after epoch.
const BACKOFF_BASE: u64 = 1;

/// Upper bound on the proactive backoff wait, in epochs.
const BACKOFF_CAP: u64 = 16;

/// Maintenance policy: the two knobs a scenario's `[maintenance]` table
/// sets. The motion watch granularity (5 % of the cluster radius) and the
/// proactive backoff (1 epoch, doubling per action, capped at 16) are
/// fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintainConfig {
    /// Handover hysteresis `h ≥ 1`: a member is re-homed once its distance
    /// to its dominator exceeds `h · r_c`. Larger values trade attachment
    /// slack for fewer handovers.
    pub handover_hysteresis: f64,
    /// Fraction of the live network that may need re-homing before the
    /// maintainer gives up on locality and rebuilds from scratch.
    pub rebuild_threshold: f64,
}

impl Default for MaintainConfig {
    fn default() -> Self {
        MaintainConfig {
            handover_hysteresis: 1.25,
            rebuild_threshold: 0.5,
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
    /// exponential backoff (one epoch after the first action, doubling per
    /// further action, capped at 16).
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
    /// Anchor announce and seeker join-confirm probability (`1/(2µ)`).
    p: f64,
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
            finished: role == RehomeRole::Out,
        }
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
                } else if rng.gen_bool(self.cfg.p) {
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
                    if rng.gen_bool(self.cfg.p) {
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

    /// Finishes after the last round's JOIN slot: the phase's engine
    /// starts at slot 0, so slot `2·rounds − 1` is the last one.
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
        if slot + 1 >= 2 * self.cfg.rounds {
            self.finished = true;
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
        MOVE_THRESHOLD * self.cfg.cluster_radius
    }

    /// The audit tolerances this maintainer certifies against: attachment
    /// within the handover hysteresis, plus the motion the event watch can
    /// leave unseen between two nodes' anchors (4 thresholds), times the
    /// build's RSSI slack.
    pub fn tolerances(&self) -> AuditTolerances {
        AuditTolerances {
            attach_ratio: (self.mcfg.handover_hysteresis + 4.0 * MOVE_THRESHOLD) * 1.05,
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
                self.unseat(node.0);
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
                    self.retired += 1;
                    self.demote(node.0);
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
        self.repair_epoch(env, seed, None)
    }

    /// [`StructureMaintainer::repair`] with the current world slot
    /// supplied, so proactive actions can report
    /// [`RepairReport::time_to_repair`] — the slot distance from
    /// degradation onset (the detector's `since`) to this repair epoch.
    /// Plain `repair` leaves that field `0` (the maintainer has no clock
    /// of its own).
    pub fn repair_at(&mut self, env: &NetworkEnv, seed: u64, now: u64) -> RepairReport {
        self.repair_epoch(env, seed, Some(now))
    }

    /// One instrumented repair epoch: the repair body plus its span and
    /// one typed event per action class on the attached recorder.
    fn repair_epoch(&mut self, env: &NetworkEnv, seed: u64, now: Option<u64>) -> RepairReport {
        use mca_obs::{EventKind, SpanKind, Stopwatch};
        let sw = Stopwatch::start_if(self.obs.is_some());
        let before = self.repair_slots;
        let report = self.repair_inner(env, seed, now);
        self.repair_slots = before + report.total_slots();
        if let Some(rec) = self.obs.as_mut() {
            let (r, epoch) = (&report, self.epochs);
            rec.span(SpanKind::Repair, before, 0, 0, sw.elapsed_ns());
            let acted = (r.proactive_rehomes + r.proactive_demotions) as u64;
            let outcome = match r.kind {
                RepairKind::Clean => vec![(EventKind::RepairClean, 0, 1)],
                RepairKind::Rebuilt => vec![(EventKind::RepairRebuild, r.rebuild_slots, 1)],
                RepairKind::Repaired => vec![
                    (EventKind::RepairProactive, 0, acted),
                    (EventKind::RepairMerge, 0, r.merged_clusters as u64),
                    (EventKind::RepairRehome, r.rehome_slots, r.rehomed as u64),
                    (
                        EventKind::RepairMisPatch,
                        r.patch_slots,
                        r.new_dominators as u64,
                    ),
                    (EventKind::RepairRecolor, r.color_slots, r.recolored as u64),
                    (
                        EventKind::RepairElection,
                        r.election_slots,
                        r.reporter_appointments as u64,
                    ),
                ],
            };
            let detector = [
                (EventKind::DetectDegraded, 0, acted),
                (EventKind::DetectRecovered, 0, r.recovered_flags as u64),
            ];
            // The detector's transitions, then the outcome: one event per
            // class that did anything.
            for (kind, slots, count) in detector.into_iter().chain(outcome) {
                if slots > 0 || count > 0 {
                    rec.event(kind, before, epoch, slots, count);
                }
            }
        }
        report
    }

    /// The uninstrumented repair body (see [`StructureMaintainer::repair`]);
    /// `now` is the world slot [`StructureMaintainer::repair_at`] supplies.
    fn repair_inner(&mut self, env: &NetworkEnv, seed: u64, now: Option<u64>) -> RepairReport {
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
                self.live_members(NodeId(v)).len(),
                self.live_members(NodeId(u)).len(),
            );
            let loser = if mv < mu || (mv == mu && u < v) { v } else { u };
            let winner = if loser == v { u } else { v };
            self.demote(loser);
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
                    if m.0 != v && env.positions[m.index()].dist(env.positions[vi]) > hyst {
                        self.unseat(m.0);
                        report.handovers += 1;
                    }
                }
                // Same-color dominator now within the separation radius:
                // the larger id of the pair yields (whether or not it is
                // the one that moved), mirroring the coloring protocol's
                // own healing rule.
                self.for_each_color_conflict(env, v, |other| {
                    recolor.insert(other.max(v));
                });
            } else if let Some(c) = rec.cluster {
                if !self.alive[c.index()] || env.positions[vi].dist(env.positions[c.index()]) > hyst
                {
                    self.unseat(v);
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
            if !self.alive[f as usize] {
                continue;
            }
            if let Some(&(_, until)) = self.backoff.get(&f) {
                if epoch < until {
                    report.deferred_flags += 1;
                    continue;
                }
            }
            if self.structure.records[f as usize].role.is_dominator() {
                self.demote(f);
                proactive_demoted = true;
                report.proactive_demotions += 1;
            } else {
                self.unseat(f);
                report.proactive_rehomes += 1;
            }
            if let Some(&(since, detect_slot)) = self.flag_meta.get(&f) {
                report.time_to_detect =
                    report.time_to_detect.max(detect_slot.saturating_sub(since));
                if let Some(now) = now {
                    report.time_to_repair = report.time_to_repair.max(now.saturating_sub(since));
                }
            }
            let level = self.backoff.get(&f).map_or(0, |&(l, _)| l);
            let wait = (BACKOFF_BASE << level.min(16)).min(BACKOFF_CAP);
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
        let mut uncovered = self.rehome(env, &seekers, derive_seed(seed, 0x4E01), &mut report);

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
                    let rec = &self.structure.records[i];
                    match rec.cluster_color {
                        _ if claimants.contains(&(i as u32)) => ColorSeat::Claimant,
                        Some(c) if self.alive[i] && rec.role.is_dominator() => {
                            ColorSeat::Committed(c)
                        }
                        _ => ColorSeat::Out,
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
            // Uncommitted within the round budget: fresh unique colors above
            // every color in force, exactly as the build's cap fallback.
            let mut colors: Vec<Option<u16>> = claimants
                .iter()
                .map(|&c| patch.colors[c as usize])
                .collect();
            self.structure.phi = stages::fill_fresh_colors(&mut colors, self.structure.phi);
            for (&c, color) in claimants.iter().zip(colors) {
                self.structure.records[c as usize].cluster_color = color;
            }
            // Separation exceeds the decode range by a thin annulus (r_sep
            // can top R_T), so a claimant may commit a color it could never
            // have heard conflicts against. Certify each patch color
            // centrally and bump survivors to fresh colors — the same
            // orchestrator fallback the build applies past its cap.
            self.refresh_dominator_grid(env);
            for &c in &claimants {
                let mut conflicted = false;
                self.for_each_color_conflict(env, c, |_| conflicted = true);
                if conflicted {
                    self.structure.records[c as usize].cluster_color = Some(self.fresh_color());
                }
            }
        }

        // --- R4: admit remaining seekers to the now-colored patch
        // dominators (second ANNOUNCE/JOIN pass). ---
        if !uncovered.is_empty() {
            let still = self.rehome(env, &uncovered, derive_seed(seed, 0x4E04), &mut report);
            // Every protocol avenue failed (isolated node, lost announces):
            // it heads its own singleton cluster with a fresh color.
            for u in still {
                let color = self.fresh_color();
                let rec = &mut self.structure.records[u as usize];
                rec.make_dominator();
                rec.cluster_color = Some(color);
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

        // --- Bookkeeping: the structure-level accounting experiments read,
        // counted by the same function the build uses.
        let s = &mut self.structure;
        s.rebuild_members_index();
        s.report.phi = s.phi;
        stages::recount(&mut s.report, &s.records, Some(&self.alive));
        report
    }

    /// Runs one ANNOUNCE/JOIN re-homing pass for `seekers`. Anchors are the
    /// live dominators within reach of any seeker; everyone else is absent.
    /// Applies successful attachments to the records, adds the pass's
    /// slots, attachments and JOIN confirmations to `report`, and returns
    /// the seekers still uncovered.
    fn rehome(
        &mut self,
        env: &NetworkEnv,
        seekers: &[u32],
        seed: u64,
        report: &mut RepairReport,
    ) -> Vec<u32> {
        if seekers.is_empty() {
            return Vec::new();
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
        let still = self.rehome_pass(env, seekers, &clean, derive_seed(seed, 0x4E40), report);
        if still.is_empty() {
            return still;
        }
        let flagged = nearby(self, &still, true);
        if flagged.is_empty() {
            return still;
        }
        self.rehome_pass(env, &still, &flagged, derive_seed(seed, 0x4E41), report)
    }

    /// One simulated announce/join pass of [`StructureMaintainer::rehome`]
    /// over a fixed anchor set, with `engine_seed` as the engine's RNG
    /// seed. Adds into `report` and returns the leftover seekers.
    fn rehome_pass(
        &mut self,
        env: &NetworkEnv,
        seekers: &[u32],
        anchors: &BTreeSet<u32>,
        engine_seed: u64,
        report: &mut RepairReport,
    ) -> Vec<u32> {
        let n = env.len();
        let algo = &self.cfg.algo;
        let seeker_set: BTreeSet<u32> = seekers.iter().copied().collect();
        let cfg = RehomeCfg {
            radius: self.cfg.cluster_radius,
            p: algo.density_tx_prob(),
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
        report.rehome_slots += slots;
        report.join_confirms += out.iter().map(|p| p.joins_heard as usize).sum::<usize>();
        let mut still = Vec::new();
        for &s in seekers {
            match out[s as usize].best {
                Some((dom, color, dist)) => {
                    let rec = &mut self.structure.records[s as usize];
                    rec.make_member(dom, dist);
                    rec.cluster_color = Some(color);
                    self.dirty.insert(dom.0);
                    report.rehomed += 1;
                }
                None => still.push(s),
            }
        }
        still
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

    /// Detaches node `v` from its cluster and queues it as a seeker; a
    /// live cluster it leaves is marked dirty. The one path by which a node
    /// leaves a cluster without crashing.
    fn unseat(&mut self, v: u32) {
        let rec = &mut self.structure.records[v as usize];
        if let Some(c) = rec.cluster.filter(|c| self.alive[c.index()]) {
            self.dirty.insert(c.0);
        }
        rec.detach();
        self.seekers.insert(v);
    }

    /// Dissolves `head`'s cluster: every live member (the head too, unless
    /// it crashed) is unseated, and the cluster leaves the dirty set.
    fn demote(&mut self, head: u32) {
        for m in self.live_members(NodeId(head)) {
            self.unseat(m.0);
        }
        self.dirty.remove(&head);
    }

    /// Calls `f` with every live dominator other than `v` that holds `v`'s
    /// cluster color within the separation radius of `v` (none if `v` is
    /// uncolored). Reads the dominator grid as last refreshed.
    fn for_each_color_conflict(&self, env: &NetworkEnv, v: u32, mut f: impl FnMut(u32)) {
        let color = self.structure.records[v as usize].cluster_color;
        if color.is_none() {
            return;
        }
        let r_sep = self.cfg.separation_radius();
        self.grid
            .for_each_within(&self.grid_pts, env.positions[v as usize], r_sep, |k| {
                let other = self.grid_doms[k];
                if other != v && self.structure.records[other as usize].cluster_color == color {
                    f(other);
                }
            });
    }

    /// A fresh color: `φ`, which then grows by one.
    fn fresh_color(&mut self) -> u16 {
        let color = self.structure.phi;
        self.structure.phi += 1;
        color
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
        let mut timed = m.clone();
        let report = m.repair(&env, 123);
        assert_eq!(report.time_to_detect, 10);
        assert_eq!(report.time_to_repair, 0, "no clock without repair_at");
        // The clock changes the report's `time_to_repair` and nothing else:
        // the same seed repairs the same structure either way.
        let timed_report = timed.repair_at(&env, 123, 40);
        assert_eq!(timed_report.time_to_repair, 20);
        assert_eq!(
            RepairReport {
                time_to_repair: 0,
                ..timed_report
            },
            report
        );
        assert_eq!(timed.structure().records, m.structure().records);
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
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
        let victim = some_member(&m);
        m.observe_detection(&degraded(victim, 30, 20));
        // The still-flagged node is acted on, then waits 1, 2 and 4 epochs
        // (BACKOFF_BASE doubling per action) before each retry.
        for epoch in 1..=8 {
            let r = m.repair(&env, epoch);
            let acts = [1, 2, 4, 8].contains(&epoch);
            assert_eq!(r.proactive_rehomes, usize::from(acts), "epoch {epoch}");
            assert_eq!(r.deferred_flags, usize::from(!acts), "epoch {epoch}");
        }
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

    /// FNV-1a over the `Debug` rendering (floats print shortest
    /// round-trip, so equal digests mean equal bits).
    fn digest<T: std::fmt::Debug>(value: &T) -> u64 {
        format!("{value:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Moves `node` to `to` in `env` and reports it to the maintainer.
    fn teleport(m: &mut StructureMaintainer, env: &mut NetworkEnv, node: u32, to: mca_geom::Point) {
        let from = env.positions[node as usize];
        env.positions[node as usize] = to;
        m.observe(&NodeEvent::Moved {
            node: NodeId(node),
            slot: 0,
            from,
            to,
        });
    }

    /// One seeded world through every repair path: a dominator crash, a
    /// member crash and a late join; a dominator moved onto another
    /// (merge); a dominator moved within the separation radius but outside
    /// `r_c` of a same-coloured one (recolour); a flagged member and a
    /// flagged dominator. Every epoch's report and the records are pinned,
    /// so a refactor of the repair path must reproduce them bit for bit.
    #[test]
    fn scripted_repair_run_is_pinned() {
        let (mut env, cfg) = world(150, 11.0, 5);
        let (r_c, r_sep) = (cfg.cluster_radius, cfg.separation_radius());
        let mut alive = vec![true; 150];
        alive[40] = false;
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), Some(&alive));
        let heads = |m: &StructureMaintainer| -> Vec<u32> {
            m.structure().dominators().iter().map(|d| d.0).collect()
        };
        let mut reports = Vec::new();
        let mut epoch = |m: &mut StructureMaintainer, env: &NetworkEnv, seed: u64, now: u64| {
            reports.push(m.repair_at(env, seed, now));
            m.audit(env).assert_sound_with(&m.tolerances());
        };

        // Epoch 1: the largest cluster's dominator crashes, a member of
        // another cluster crashes, and node 40 joins late.
        let big = *heads(&m)
            .iter()
            .max_by_key(|&&d| m.structure().members_of(NodeId(d)).len())
            .unwrap();
        let member = (0..150u32)
            .find(|&i| {
                let r = &m.structure().records[i as usize];
                !r.role.is_dominator() && r.cluster.is_some_and(|c| c.0 != big)
            })
            .unwrap();
        crash(&mut m, big, 10);
        crash(&mut m, member, 10);
        m.observe(&NodeEvent::Joined {
            node: NodeId(40),
            slot: 10,
        });
        epoch(&mut m, &env, 101, 20);

        // Epoch 2: the first dominator lands next to the second (merge).
        let hs = heads(&m);
        let (a, b) = (hs[0], hs[1]);
        let pb = env.positions[b as usize];
        teleport(
            &mut m,
            &mut env,
            a,
            mca_geom::Point::new(pb.x + 0.3 * r_c, pb.y),
        );
        epoch(&mut m, &env, 102, 40);

        // Epoch 3: a dominator lands between r_c and r_sep of a
        // same-coloured one, clear of every other dominator (recolour).
        let hs = heads(&m);
        let color = |d: u32| m.structure().records[d as usize].cluster_color;
        let spot = hs
            .iter()
            .flat_map(|&c| hs.iter().map(move |&d| (c, d)))
            .filter(|&(c, d)| c != d && color(c) == color(d))
            .find_map(|(c, d)| {
                let pd = env.positions[d as usize];
                (0..8).find_map(|k| {
                    let t = k as f64 * std::f64::consts::FRAC_PI_4;
                    let dist = 0.5 * (r_c + r_sep);
                    let to = mca_geom::Point::new(pd.x + dist * t.cos(), pd.y + dist * t.sin());
                    let clear = hs
                        .iter()
                        .all(|&o| o == c || env.positions[o as usize].dist(to) > 1.2 * r_c);
                    clear.then_some((c, to))
                })
            });
        let (c, to) = spot.expect("a same-coloured pair with a clear spot");
        teleport(&mut m, &mut env, c, to);
        epoch(&mut m, &env, 103, 60);

        // Epoch 4: a member and a dominator are flagged.
        let flagged_member = some_member(&m);
        let flagged_head = *heads(&m).last().unwrap();
        m.observe_detection(&degraded(flagged_member, 200, 190));
        m.observe_detection(&degraded(flagged_head, 201, 185));
        epoch(&mut m, &env, 104, 220);
        // Epochs 5 and 6: the flags stay up. Epoch 5 acts on both again
        // (one epoch's wait), epoch 6 defers both (two epochs' wait).
        epoch(&mut m, &env, 105, 240);
        epoch(&mut m, &env, 106, 260);

        assert_eq!(
            [big, member, a, b, c, flagged_member, flagged_head],
            [27, 1, 0, 7, 0, 2, 149],
            "the script picked other nodes"
        );
        use RepairKind::{Clean, Repaired};
        let pinned = [
            RepairReport {
                kind: Repaired,
                rehome_slots: 724,
                color_slots: 564,
                election_slots: 576,
                seekers: 6,
                rehomed: 4,
                new_dominators: 2,
                retired_clusters: 1,
                dirty_clusters: 4,
                reporter_appointments: 1,
                join_confirms: 53,
                ..RepairReport::default()
            },
            RepairReport {
                kind: Repaired,
                rehome_slots: 724,
                color_slots: 622,
                election_slots: 432,
                seekers: 9,
                rehomed: 8,
                handovers: 5,
                new_dominators: 1,
                merged_clusters: 1,
                dirty_clusters: 3,
                join_confirms: 86,
                ..RepairReport::default()
            },
            RepairReport {
                kind: Repaired,
                rehome_slots: 724,
                color_slots: 532,
                election_slots: 432,
                seekers: 4,
                rehomed: 3,
                handovers: 4,
                new_dominators: 1,
                dirty_clusters: 4,
                recolored: 1,
                join_confirms: 41,
                ..RepairReport::default()
            },
            RepairReport {
                kind: Repaired,
                rehome_slots: 1086,
                color_slots: 532,
                election_slots: 576,
                seekers: 5,
                rehomed: 4,
                new_dominators: 1,
                dirty_clusters: 4,
                join_confirms: 48,
                proactive_rehomes: 1,
                proactive_demotions: 1,
                time_to_detect: 16,
                time_to_repair: 35,
                ..RepairReport::default()
            },
            RepairReport {
                kind: Repaired,
                rehome_slots: 724,
                color_slots: 441,
                election_slots: 288,
                seekers: 3,
                rehomed: 2,
                new_dominators: 1,
                dirty_clusters: 2,
                reporter_appointments: 1,
                join_confirms: 26,
                proactive_rehomes: 1,
                proactive_demotions: 1,
                time_to_detect: 16,
                time_to_repair: 55,
                ..RepairReport::default()
            },
            RepairReport {
                kind: Clean,
                deferred_flags: 2,
                ..RepairReport::default()
            },
        ];
        for (e, (got, want)) in reports.iter().zip(&pinned).enumerate() {
            assert_eq!(got, want, "epoch {} report moved", e + 1);
        }
        assert_eq!(reports.len(), pinned.len());
        assert_eq!(m.structure().phi, 34);
        assert_eq!(digest(&m.structure().records), 0xc6b4_17e7_8c79_6af0);
        // The script reaches every repair path at least once.
        let total = reports.iter().fold(RepairReport::default(), |mut t, r| {
            t.merge(r);
            t
        });
        for (name, count) in [
            ("merged_clusters", total.merged_clusters),
            ("handovers", total.handovers),
            ("recolored", total.recolored),
            ("proactive_demotions", total.proactive_demotions),
            ("retired_clusters", total.retired_clusters),
            ("new_dominators", total.new_dominators),
        ] {
            assert!(count > 0, "no epoch exercised {name}");
        }
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
