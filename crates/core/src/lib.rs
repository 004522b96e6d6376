//! # `mca-core` — the paper's algorithms
//!
//! Reproduction of the algorithmic contribution of Halldórsson–Wang–Yu,
//! *Leveraging Multiple Channels in Ad Hoc Networks* (PODC 2015):
//! ruling sets, the hierarchical aggregation structure, data aggregation
//! with linear channel speedup, and node coloring — all as distributed
//! protocols executed on the `mca-radio` SINR simulator.
//!
//! Top-level entry points live in [`structure`]:
//! build the aggregation structure, then run aggregation or coloring on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggfun;
pub mod aggregate;
pub mod broadcast;
pub mod cluster;
pub mod coloring;
pub mod config;
pub mod csa;
pub mod csa_small;
pub mod dominate;
pub mod greedy_color;
pub mod knowledge;
pub mod leader;
pub mod maintain;
pub mod mis;
pub mod reporter;
pub mod ruling;
pub mod schedule;
pub mod stages;
pub mod structure;
pub mod tree;
pub mod validate;

pub use aggfun::{Aggregate, AvgAgg, AvgValue, FmSketch, FmValue, MaxAgg, MinAgg, OrAgg, SumAgg};
pub use broadcast::{
    broadcast, broadcast_many, BcastAgg, BroadcastOutcome, GossipOutcome, Sourced,
};
pub use coloring::{color_nodes, ColoringOutcome};
pub use config::{AlgoConfig, Constants};
pub use knowledge::{NodeRecord, Role};
pub use leader::{elect_leader, Candidate, LeaderAgg, LeaderOutcome};
pub use maintain::{MaintainConfig, RepairKind, RepairReport, StructureMaintainer};
pub use mis::{maximal_independent_set, ruling_set, MisConfig, MisOutcome};
pub use ruling::{ProbPolicy, RulingConfig, RulingMsg, RulingOutcome, RulingSet};
pub use schedule::{Tdma, TdmaSlot};
pub use structure::{
    aggregate, build_structure, build_structure_masked, build_structure_observed, AggregateOutcome,
    AggregationStructure, BuildReport, InterclusterMode, NetworkEnv, StructureConfig,
    SubstrateMode,
};
pub use validate::{audit_structure, audit_structure_masked, AuditTolerances, StructureAudit};
