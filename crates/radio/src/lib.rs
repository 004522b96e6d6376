//! # `mca-radio` — synchronous multi-channel SINR network simulator
//!
//! Executes distributed node programs under the model of
//! Halldórsson–Wang–Yu (PODC 2015), §2:
//!
//! * time is slotted and synchronized; per slot each node transmits or
//!   listens on **one** of `F` channels (or idles), and learns nothing about
//!   other channels;
//! * reception follows the SINR rule (Eq. 1), resolved by `mca-sinr`;
//! * listeners have receiver-side carrier sense (total power; signal power
//!   and SINR on success); transmitters get **no** feedback;
//! * nodes have unique ids, independent RNG streams, and only local state —
//!   the engine never leaks topology to protocols.
//!
//! Implement [`Protocol`] for a node program, then drive it with
//! [`Engine`]. Fault injection (crash-stop nodes, late joins, jammed
//! channels per the *t-disrupted* adversary) is available through
//! [`FaultPlan`].
//!
//! A slot costs what its acting nodes cost: Phase 1 polls a roster of the
//! nodes that can still act — crash-stopped and finished nodes leave it
//! for good; late joiners, duty-cycle sleepers and nodes that promised
//! quiet through [`Protocol::quiet_until`] wait in one wake queue; nodes
//! that promised through [`Protocol::listen_until`] to only listen wait on
//! their channel's standing list — and counts everyone else as idle or
//! listening arithmetically. A channel nobody transmits on is booked, not
//! resolved, and a standing listener is handed only what it decodes. All
//! of it is bit-identical to polling every node
//! (`docs/EXECUTION_MODEL.md`, "Phase 1: who gets polled").
//!
//! The slot splits at the protocol boundary: [`Engine`] compiles per
//! protocol type only the loops that ask for actions and hand out each
//! [`Observation`]; grouping, staging, resolution and the *booking* of
//! every channel ([`Metrics`], fades, jams, detector samples, outcome
//! records) are non-generic phases, run before any node observes.
//!
//! Reception is resolved per channel by the batched
//! [`ChannelResolver`](mca_sinr::ChannelResolver) (mode selected via
//! [`SinrParams::resolve`](mca_sinr::SinrParams)): the engine stages every
//! channel's transmitter/listener positions once per slot into one arena
//! (at most one entry per node, however many channels there are), builds
//! every resolving channel's spatial index into one
//! [`mca_sinr::IndexArena`] (emptied every slot, so it too holds `O(n)`),
//! and resolves the resulting (channel × shard) units — a big
//! channel's listeners bucketed by a [`ShardMap`] grid over the positions
//! staged for them, its side derived per channel by
//! [`shard::unit_grid`] from the pool's width, the listener count and
//! the index's work estimate — inline on the slot thread, or as tasks on
//! the work-stealing pool when a slot has at least two units past
//! [`POOL_UNIT_WORK`]. The engine decides both per slot; there is no
//! flag and no setting. Every schedule is **bit-identical**: per-listener
//! outcomes are pure functions of the channel's transmitter set, so shard
//! grid and thread count never change a result (the `MCA_FORCE_PAR=1`
//! override CI uses to prove it; see `docs/EXECUTION_MODEL.md`).
//!
//! The engine also exposes dynamic-environment hooks used by the
//! `mca-scenario` crate: [`Engine::positions_mut`] (mobility),
//! [`Engine::env_parts`] (per-channel fading via [`ChannelCondition`],
//! with positions and plan), and [`Engine::faults_mut`] (runtime churn).
//! With none of these touched, a run is bit-identical to the static
//! engine of the original reproduction.
//!
//! For structure maintenance, [`Engine::watch_events`] surfaces lifecycle
//! transitions — crashes, late joins, and motion beyond a drift threshold —
//! as [`NodeEvent`]s that a maintainer drains with [`Engine::drain_events`]
//! instead of polling the fault plan and position vector. Orthogonally,
//! [`Engine::attach_detector`] installs a [`DegradationDetector`] that
//! watches per-slot delivery outcomes and flags SINR-level damage — jammed
//! zones, correlated deep fades, duty-cycled dominators — the structural
//! audit cannot see, as [`DetectionEvent`]s drained with
//! [`Engine::drain_detections`]. It samples in channel order, then
//! listener order, so its event stream is as deterministic as the run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod condition;
mod detect;
mod engine;
mod events;
mod fault;
mod ids;
mod message;
mod metrics;
mod node;
#[doc(hidden)]
pub mod reference;
pub mod rng;
mod roster;
pub mod shard;
mod slot;

pub use condition::ChannelCondition;
pub use detect::{DegradationDetector, DetectionEvent, DetectorConfig};
pub use engine::Engine;
pub use events::NodeEvent;
pub use fault::{FaultPlan, JamSpec, SleepSchedule, ZoneJam};
pub use ids::{Channel, NodeId};
pub use message::{Action, Observation, Reception};
pub use metrics::Metrics;
pub use node::Protocol;
pub use shard::ShardMap;
pub use slot::POOL_UNIT_WORK;
