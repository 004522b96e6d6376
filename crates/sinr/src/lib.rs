//! # `mca-sinr` — the SINR physical layer
//!
//! Implements the interference model of Halldórsson–Wang–Yu (PODC 2015), §2:
//!
//! * [`SinrParams`] — ground-truth `α, β, N, P, ε` with every derived radius
//!   the construction needs (`R_T`, `R_ε`, `R_{ε/2}`, cluster radius `r_c`,
//!   Lemma 2's constant `t`, Definition 4's clear-reception threshold `T_s`);
//! * [`NodeKnowledge`] — what *nodes* know: intervals for `α, β, N` and a
//!   polynomial bound on `n` (nodes never see exact parameters or topology);
//! * [`resolve_listener`]/[`resolve_channel`] — per-slot reception per
//!   Eq. (1), including the receiver-side carrier-sense readings (total
//!   received power, and SINR + signal strength on success);
//! * [`ChannelResolver`] — the batched per-channel resolver the engine hot
//!   path runs on, with [`ResolveMode::Exact`] (bit-for-bit the scalar
//!   reference) and [`ResolveMode::Fast`] (hierarchical near/far split:
//!   exact near field, far field aggregated node by node up a quadtree
//!   pyramid under one opening rule, all
//!   error-bounded — see [`resolve_batch`] for the `α > 2` tail-bound
//!   derivation). An [`IndexArena`] holds the spatial indexes of many
//!   channels of one slot, each named by an [`IndexSpan`];
//!   [`TaskResolver`] is the per-shard-task view the engine's sharded
//!   resolve units go through (bit-identical to the resolver);
//! * [`lanes`] — SIMD-friendly structure-of-arrays power kernels with a
//!   deterministic reduction order, bit-identical to the scalar reference
//!   walks (the resolvers' one production path);
//! * [`is_clear_reception`] — Definition 4;
//! * [`bounds`] — closed forms of Lemmas 2–3 plus the far-field tail bounds
//!   for validation experiments.
//!
//! # Examples
//!
//! ```
//! use mca_sinr::{resolve_listener, SinrParams};
//! use mca_geom::Point;
//!
//! let params = SinrParams::default(); // R_T = 8
//! let out = resolve_listener(&params, &[Point::new(3.0, 0.0)], Point::ORIGIN);
//! assert!(out.decoded.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod lanes;
mod params;
mod resolve;
pub mod resolve_batch;

pub use params::{NodeKnowledge, ParamInterval, PowerKernel, ResolveMode, SinrParams};
pub use resolve::{
    is_clear_reception, resolve_channel, resolve_listener, resolve_listener_ext, ListenOutcome,
};
pub use resolve_batch::{ChannelResolver, IndexArena, IndexSpan, TaskResolver, WalkStats};
