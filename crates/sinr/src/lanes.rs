//! SIMD listener lanes: batched power kernels with listeners in the lanes.
//!
//! The per-listener hot loop of reception resolution sums
//! `received_power_sq` over a span of transmitters: a running sum plus an
//! argmax, a loop-carried dependence the compiler cannot vectorize one
//! listener at a time. The kernels here turn the loop on its side — the
//! lanes of a vector hold [`LANE_WIDTH`] *listeners*, and one transmitter
//! (or one aggregated rectangle) at a time is broadcast against them —
//! without changing a single output bit:
//!
//! 1. **Listeners are lanes; everything else is a broadcast scalar.** A
//!    batch's listeners arrive as `[f64; LANE_WIDTH]` coordinate arrays.
//!    What they are evaluated against — a transmitter, a rectangle, a
//!    center, a count — enters each kernel as a scalar, so it is read from
//!    wherever its owner already stores it: the exact scan folds over the
//!    caller's `&[Point]`, rectangle and center scalars come straight off
//!    the index's nodes. The one coordinate copy is the
//!    index's per-cell CSR `xs`/`ys` — a *gather* of the transmitters into
//!    cell order, which no other structure holds.
//! 2. **Lane-wise evaluation, lane-wise reduction.** Per transmitter, `dx`,
//!    `dy`, `d² = dx² + dy²` and the power `P/(d²)^{α/2}` are computed
//!    element-wise into stack arrays — straight-line max/sqrt/mul/div code
//!    the autovectorizer compiles to packed `f64` SIMD
//!    ([`PowerKernel::eval_lanes`]) — and one vector add advances every
//!    lane's running total, one compare-and-select every lane's argmax.
//!
//! # The deterministic reduction-order contract
//!
//! A conventional SIMD sum keeps `LANE_WIDTH` partial accumulators of
//! *one* sum and reduces them horizontally at the end — which reassociates
//! the floating-point sum and changes the result by rounding. Here no two
//! lanes ever meet: lane `l` is listener `l`'s own serial chain, folding
//! the **same values in the same architectural order** as the scalar
//! reference (`total += p_0; total += p_1; …`), and every element's power
//! is produced by the same IEEE operation sequence (exactly-rounded at any
//! vector width, no FMA contraction — Rust never contracts by default).
//! Lane resolution is therefore **bit-for-bit** the scalar resolution, not
//! merely close: goldens stay byte-identical at every thread/shard
//! configuration and every vector width, which the proptests in
//! `tests/lane_kernels.rs`, the forced-parallel golden re-run and the
//! baseline-ISA CI leg prove.
//!
//! The masked kernels lean on one precondition: every power they fold is
//! **strictly positive and finite**, so that `pw · 0.0 == +0.0` exactly
//! (an infinite power would make it NaN). Powers peak at the near-field
//! clamp, `P/min_dist^α`, and parameters whose peak overflows are rejected
//! where they enter (the `SinrParams` constructors and the scenario
//! decoder), so no kernel ever sees one.
//!
//! # When lanes engage
//!
//! Always: there is no toggle, and which kernel runs is read off the
//! resolver alone. With a spatial index (Fast mode) the batch walk folds
//! near cells through [`accumulate_span_lanes`] and aggregated rectangles
//! through [`rect_metrics_lanes`]/[`far_terms_lanes`]; without one (Exact
//! mode, or a set the grid cannot help) every batch — any transmitter
//! count, any listener count, a lone listener included — folds the whole
//! set through [`accumulate_scan_lanes`]. The scalar walks these are
//! pinned against ([`crate::resolve_listener`] and
//! [`crate::ChannelResolver::resolve_with_bound`]) survive only as test
//! references. See `docs/EXECUTION_MODEL.md`.

// The kernels mirror the scalar accumulator state as flat `&mut`
// parameters and walk the fixed-size lane arrays by index: that is the
// exact shape the autovectorizer was measured against (see
// docs/EXECUTION_MODEL.md); the argument-count and range-loop lints would
// trade it for unverified codegen on the hottest loop in the workspace.
#![allow(clippy::too_many_arguments, clippy::needless_range_loop)]

use crate::params::PowerKernel;
use mca_geom::Point;

/// Elements processed per vector chunk. Eight `f64`s fill one AVX-512
/// register, two AVX2 registers, or four SSE2/NEON registers — wide
/// enough that the autovectorizer unrolls profitably on all of them.
pub const LANE_WIDTH: usize = 8;

/// The widest packed-`f64` instruction set this binary was compiled for —
/// recorded in bench artifacts so timings read honestly across hosts.
pub fn simd_level() -> &'static str {
    if cfg!(target_feature = "avx512f") {
        "avx512"
    } else if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else if cfg!(target_arch = "aarch64") {
        "neon"
    } else {
        "none"
    }
}

/// Rectangle metrics across listener lanes: one rectangle (bounds,
/// center, transmitter count — scalars), [`LANE_WIDTH`] *listeners*. Element `l` is bitwise the scalar
/// `rect.dist_sq_to(listener_l)` and the scalar aggregated term
/// `count · P/d(center, listener_l)^α` — the same `max`/`min` clamp and
/// subtract/square/add sequences, with [`PowerKernel::eval_lanes`]
/// element-wise bitwise [`PowerKernel::eval`], and the `count` multiply a
/// single exactly-rounded (commutative) operation.
///
/// This is what lets the batched resolver walk the index **once** for
/// LANE_WIDTH listeners: each lane carries one listener's accumulator
/// chain, so a vector add advances LANE_WIDTH independent serial
/// reduction chains — in each lane's own scalar order — in one
/// instruction.
#[inline(always)]
pub fn rect_metrics_lanes(
    kernel: &PowerKernel,
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
    cx: f64,
    cy: f64,
    count: f64,
    lxs: &[f64; LANE_WIDTH],
    lys: &[f64; LANE_WIDTH],
) -> ([f64; LANE_WIDTH], [f64; LANE_WIDTH]) {
    let mut d_min = [0.0f64; LANE_WIDTH];
    let mut d_center = [0.0f64; LANE_WIDTH];
    for l in 0..LANE_WIDTH {
        let px = lxs[l].max(min_x).min(max_x);
        let py = lys[l].max(min_y).min(max_y);
        let dx = px - lxs[l];
        let dy = py - lys[l];
        d_min[l] = dx * dx + dy * dy;
        let ex = cx - lxs[l];
        let ey = cy - lys[l];
        d_center[l] = ex * ex + ey * ey;
    }
    let mut terms = kernel.eval_lanes(d_center);
    for l in 0..LANE_WIDTH {
        terms[l] *= count;
    }
    (d_min, terms)
}

/// Near-field fold of one CSR span against [`LANE_WIDTH`] listeners at
/// once: transmitter `j` (coordinates `xs[j]`/`ys[j]`, original index
/// `ids[j]` — broadcast scalars) is evaluated against the listener lanes,
/// and one masked vector add advances all LANE_WIDTH `total` chains.
///
/// All lane state is `f64` so the whole loop is packed-double SIMD:
/// `mask` is `1.0`/`0.0` and applied by multiplication (`pw · 1.0 == pw`
/// and `pw · 0.0 == +0.0` exactly, for the strictly positive finite
/// powers this folds), and the argmax index rides in a `f64` lane —
/// exact, and order-isomorphic to the integer, for any index below 2⁵³.
/// Mixing `usize`/`bool` lanes here demotes the loop to scalar selects
/// (measured).
///
/// Per lane `l`, the value sequence is exactly the scalar near loop over
/// `l`'s own near cells: elements arrive in the same CSR order, masked-out
/// elements contribute `+0.0` (an exact identity on the non-negative
/// accumulator), and the argmax update has the scalar loop's truth table —
/// greater, or equal with a smaller id, and only on unmasked lanes — so
/// `total`/`best_pow`/`best` are bit-for-bit the per-listener fold. This
/// is the structural win of listener batching: the near fold is a serial
/// dependency chain per listener (~4-cycle add latency each), and one
/// vector add here advances eight such chains in the time the scalar code
/// advances one.
///
/// The predicate is written with `&`/`|` and two selects, never `&&`/`||`:
/// a short-circuit operator is a branch per lane, and wherever
/// transmitters compete for strongest those branches are coin flips
/// (measured on one 50k-node slot: 134–158 ms with them, 113–118 ms
/// without — within a tenth of the bare sqrt/div evaluation loop).
#[inline(always)]
pub fn accumulate_span_lanes(
    kernel: &PowerKernel,
    xs: &[f64],
    ys: &[f64],
    ids: &[u32],
    lxs: &[f64; LANE_WIDTH],
    lys: &[f64; LANE_WIDTH],
    mask: &[f64; LANE_WIDTH],
    total: &mut [f64; LANE_WIDTH],
    best_pow: &mut [f64; LANE_WIDTH],
    best: &mut [f64; LANE_WIDTH],
) {
    for ((&x, &y), &id) in xs.iter().zip(ys).zip(ids) {
        let mut d = [0.0f64; LANE_WIDTH];
        for l in 0..LANE_WIDTH {
            let dx = x - lxs[l];
            let dy = y - lys[l];
            d[l] = dx * dx + dy * dy;
        }
        let pw = kernel.eval_lanes(d);
        let i = f64::from(id);
        for l in 0..LANE_WIDTH {
            total[l] += pw[l] * mask[l];
        }
        for l in 0..LANE_WIDTH {
            let gt = pw[l] > best_pow[l];
            let tie = (pw[l] == best_pow[l]) & (i < best[l]);
            let upd = (mask[l] != 0.0) & (gt | tie);
            best_pow[l] = if upd { pw[l] } else { best_pow[l] };
            best[l] = if upd { i } else { best[l] };
        }
    }
}

/// The exact scan against [`LANE_WIDTH`] listeners at once: every
/// transmitter of the set (`tx[j]`, a broadcast scalar pair), whatever
/// its size. Transmitter `j` *is* id `j`, every lane takes every
/// transmitter, and the ids ascend, so this is [`accumulate_span_lanes`]
/// with its mask and its tie clause gone: one vector add per transmitter
/// advances all LANE_WIDTH `total` chains, and the argmax is one
/// strict-`>` compare and select (first strongest wins). Per lane the
/// value sequence is the scalar `resolve_listener_ext` scan's, bit for
/// bit.
#[inline(always)]
pub fn accumulate_scan_lanes(
    kernel: &PowerKernel,
    tx: &[Point],
    lxs: &[f64; LANE_WIDTH],
    lys: &[f64; LANE_WIDTH],
    total: &mut [f64; LANE_WIDTH],
    best_pow: &mut [f64; LANE_WIDTH],
    best: &mut [f64; LANE_WIDTH],
) {
    for (j, t) in tx.iter().enumerate() {
        let mut d = [0.0f64; LANE_WIDTH];
        for l in 0..LANE_WIDTH {
            let dx = t.x - lxs[l];
            let dy = t.y - lys[l];
            d[l] = dx * dx + dy * dy;
        }
        let pw = kernel.eval_lanes(d);
        let id = j as f64;
        for l in 0..LANE_WIDTH {
            total[l] += pw[l];
        }
        for l in 0..LANE_WIDTH {
            let upd = pw[l] > best_pow[l];
            best_pow[l] = if upd { pw[l] } else { best_pow[l] };
            best[l] = if upd { id } else { best[l] };
        }
    }
}

/// Far-only variant of [`rect_metrics_lanes`]: just the aggregated center
/// term, no rectangle clamp. For a node already known to be beyond its
/// opening radius for **every** lane of the batch (a shard task's
/// candidate list rules it out), the rectangle distance can steer no
/// branch. Element `l` is bitwise the scalar
/// `count · P/d(center, listener_l)^α`.
#[inline(always)]
pub fn far_terms_lanes(
    kernel: &PowerKernel,
    cx: f64,
    cy: f64,
    count: f64,
    lxs: &[f64; LANE_WIDTH],
    lys: &[f64; LANE_WIDTH],
) -> [f64; LANE_WIDTH] {
    let mut d_center = [0.0f64; LANE_WIDTH];
    for l in 0..LANE_WIDTH {
        let ex = cx - lxs[l];
        let ey = cy - lys[l];
        d_center[l] = ex * ex + ey * ey;
    }
    let mut terms = kernel.eval_lanes(d_center);
    for l in 0..LANE_WIDTH {
        terms[l] *= count;
    }
    terms
}
