//! Span and event taxonomies: a closed set of kinds with a static parent
//! tree, so self time and coverage can be computed without runtime stack
//! tracking.

/// What a span measures. The taxonomy is closed and carries a static
/// parent tree ([`SpanKind::parent`]): engine phases nest under
/// [`SpanKind::Slot`], resolve units under [`SpanKind::Resolve`], build
/// stages under [`SpanKind::Build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One whole engine slot ([`crate::Recorder::span`] attrs: none).
    Slot,
    /// Lifecycle watch and scratch clearing at the top of a slot.
    EventDrain,
    /// Phase 1: protocol `act` gather plus the active-channel sort.
    Gather,
    /// Phase 2a: staging transmitter/listener positions per channel.
    Stage,
    /// Phase 2b: resolving all (channel × shard) units (attrs: `a` =
    /// active channel count).
    Resolve,
    /// One (channel × shard) resolve unit (attrs: `a` = channel, `b` =
    /// unit index within the channel).
    Unit,
    /// Halo construction for one resolve unit (attrs as [`SpanKind::Unit`]).
    Halo,
    /// The deterministic shard-major scatter merge of unit outputs
    /// (attrs: `a` = unit count; recorded on the unit-parallel path).
    Merge,
    /// Time the slot thread spent helping/waiting on the work-stealing
    /// pool while resolve units were in flight (attrs: `a` = unit count;
    /// recorded on the pooled pipeline path).
    Pool,
    /// Phase 2c: observation delivery, idle/tx feedback.
    Deliver,
    /// One whole `build_structure` run.
    Build,
    /// Build phase 1: dominating set (attrs: none; `slot` = slot offset
    /// within the build).
    BuildDominate,
    /// Build phases 2–3: dominator coloring + announce/attach.
    BuildCluster,
    /// Build phase 4: cluster-size approximation.
    BuildCsa,
    /// Build phase 5: reporter election.
    BuildElection,
    /// One `StructureMaintainer::repair` epoch (attrs: none; `slot` =
    /// cumulative repair slots before the epoch).
    Repair,
}

/// Every span kind, in a fixed report order.
pub const SPAN_KINDS: [SpanKind; 16] = [
    SpanKind::Slot,
    SpanKind::EventDrain,
    SpanKind::Gather,
    SpanKind::Stage,
    SpanKind::Resolve,
    SpanKind::Unit,
    SpanKind::Halo,
    SpanKind::Merge,
    SpanKind::Pool,
    SpanKind::Deliver,
    SpanKind::Build,
    SpanKind::BuildDominate,
    SpanKind::BuildCluster,
    SpanKind::BuildCsa,
    SpanKind::BuildElection,
    SpanKind::Repair,
];

impl SpanKind {
    /// Stable snake_case name (the JSONL `"k"` field).
    pub const fn name(self) -> &'static str {
        match self {
            SpanKind::Slot => "slot",
            SpanKind::EventDrain => "event_drain",
            SpanKind::Gather => "gather",
            SpanKind::Stage => "stage",
            SpanKind::Resolve => "resolve",
            SpanKind::Unit => "unit",
            SpanKind::Halo => "halo",
            SpanKind::Merge => "merge",
            SpanKind::Pool => "pool",
            SpanKind::Deliver => "deliver",
            SpanKind::Build => "build",
            SpanKind::BuildDominate => "build_dominate",
            SpanKind::BuildCluster => "build_cluster",
            SpanKind::BuildCsa => "build_csa",
            SpanKind::BuildElection => "build_election",
            SpanKind::Repair => "repair",
        }
    }

    /// Parses a JSONL `"k"` value back into a kind.
    pub fn from_name(name: &str) -> Option<SpanKind> {
        SPAN_KINDS.into_iter().find(|k| k.name() == name)
    }

    /// The kind this kind nests under in the static span tree (`None`
    /// for roots). A kind's *self* time is its total minus its children's
    /// totals.
    pub const fn parent(self) -> Option<SpanKind> {
        match self {
            SpanKind::Slot | SpanKind::Build | SpanKind::Repair => None,
            SpanKind::EventDrain
            | SpanKind::Gather
            | SpanKind::Stage
            | SpanKind::Resolve
            | SpanKind::Deliver => Some(SpanKind::Slot),
            SpanKind::Unit | SpanKind::Merge | SpanKind::Pool => Some(SpanKind::Resolve),
            SpanKind::Halo => Some(SpanKind::Unit),
            SpanKind::BuildDominate
            | SpanKind::BuildCluster
            | SpanKind::BuildCsa
            | SpanKind::BuildElection => Some(SpanKind::Build),
        }
    }

    /// The root-to-kind path, `;`-joined — one folded-stack frame line.
    pub fn folded_path(self) -> String {
        match self.parent() {
            None => self.name().to_string(),
            Some(p) => format!("{};{}", p.folded_path(), self.name()),
        }
    }
}

/// What a typed event reports: a `build_structure` stage completing, or
/// one class of `StructureMaintainer` repair action within an epoch.
/// Each event carries slot attribution, the protocol slots the action
/// cost, and an action-specific count (see each variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// Dominating-set stage done (`count` = timeout joins).
    StageDominate,
    /// Dominator coloring done (`count` = palette size Φ).
    StageColor,
    /// Announce/attach done (`count` = uncovered live nodes).
    StageAnnounce,
    /// Cluster-size approximation done (`count` = estimate fills).
    StageCsa,
    /// Reporter election done (`count` = channels filled).
    StageElection,
    /// A repair epoch found nothing to do (`count` = 1).
    RepairClean,
    /// Seekers re-homed onto surviving dominators (`count` = attached).
    RepairRehome,
    /// MIS patch promoted new dominators (`count` = new dominators).
    RepairMisPatch,
    /// Conflicting dominators recolored (`count` = recolored).
    RepairRecolor,
    /// Clusters merged after dominator convergence (`count` = merges).
    RepairMerge,
    /// Scoped reporter re-election ran (`count` = appointments).
    RepairElection,
    /// Churn exceeded the threshold; full rebuild (`count` = 1).
    RepairRebuild,
    /// Degradation detections consumed by a repair epoch (`count` =
    /// flagged nodes acted on).
    DetectDegraded,
    /// Recovery notices consumed by a repair epoch (`count` = nodes whose
    /// link health recovered).
    DetectRecovered,
    /// Proactive repair acted before any audit failure: flagged members
    /// pre-emptively re-homed and flagged dominators demoted into scoped
    /// re-election (`count` = nodes acted on).
    RepairProactive,
}

/// Every event kind, in a fixed report order.
pub const EVENT_KINDS: [EventKind; 15] = [
    EventKind::StageDominate,
    EventKind::StageColor,
    EventKind::StageAnnounce,
    EventKind::StageCsa,
    EventKind::StageElection,
    EventKind::RepairClean,
    EventKind::RepairRehome,
    EventKind::RepairMisPatch,
    EventKind::RepairRecolor,
    EventKind::RepairMerge,
    EventKind::RepairElection,
    EventKind::RepairRebuild,
    EventKind::DetectDegraded,
    EventKind::DetectRecovered,
    EventKind::RepairProactive,
];

impl EventKind {
    /// Stable snake_case name (the JSONL `"k"` field).
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::StageDominate => "stage_dominate",
            EventKind::StageColor => "stage_color",
            EventKind::StageAnnounce => "stage_announce",
            EventKind::StageCsa => "stage_csa",
            EventKind::StageElection => "stage_election",
            EventKind::RepairClean => "repair_clean",
            EventKind::RepairRehome => "repair_rehome",
            EventKind::RepairMisPatch => "repair_mis_patch",
            EventKind::RepairRecolor => "repair_recolor",
            EventKind::RepairMerge => "repair_merge",
            EventKind::RepairElection => "repair_election",
            EventKind::RepairRebuild => "repair_rebuild",
            EventKind::DetectDegraded => "detect_degraded",
            EventKind::DetectRecovered => "detect_recovered",
            EventKind::RepairProactive => "repair_proactive",
        }
    }

    /// Parses a JSONL `"k"` value back into a kind.
    pub fn from_name(name: &str) -> Option<EventKind> {
        EVENT_KINDS.into_iter().find(|k| k.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for k in SPAN_KINDS {
            assert_eq!(SpanKind::from_name(k.name()), Some(k));
        }
        for k in EVENT_KINDS {
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        let mut names: Vec<&str> = SPAN_KINDS.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SPAN_KINDS.len());
    }

    #[test]
    fn parent_tree_is_acyclic_and_rooted() {
        for k in SPAN_KINDS {
            let mut cur = k;
            let mut depth = 0;
            while let Some(p) = cur.parent() {
                cur = p;
                depth += 1;
                assert!(depth <= 4, "span tree too deep at {:?}", k);
            }
            assert!(matches!(
                cur,
                SpanKind::Slot | SpanKind::Build | SpanKind::Repair
            ));
        }
    }

    #[test]
    fn folded_paths() {
        assert_eq!(SpanKind::Slot.folded_path(), "slot");
        assert_eq!(SpanKind::Halo.folded_path(), "slot;resolve;unit;halo");
        assert_eq!(SpanKind::BuildCsa.folded_path(), "build;build_csa");
    }
}
