//! SIMD listener lanes: batched structure-of-arrays power kernels.
//!
//! The per-listener hot loop of the batched resolver sums
//! `received_power_sq` over a span of transmitters. Done one `Point` at a
//! time, the compiler cannot vectorize it: the array-of-structs layout
//! interleaves `x` and `y`, and the running sum + argmax form a loop-carried
//! dependence. This module restructures the kernel so it *does* vectorize —
//! without changing a single output bit:
//!
//! 1. **SoA inputs.** Callers pass separate `xs`/`ys` coordinate slices
//!    (the resolver's spatial index stores a per-cell CSR copy of them;
//!    the engine stages per-channel transmitter coordinates directly into
//!    SoA buffers, so no per-slot transpose happens anywhere).
//! 2. **Lane-wise evaluation, sequential reduction.** Each
//!    [`LANE_WIDTH`]-element chunk computes `dx`, `dy`, `d² = dx² + dy²`,
//!    and the power `P/(d²)^{α/2}` element-wise into stack arrays —
//!    straight-line max/sqrt/mul/div code the autovectorizer compiles to
//!    packed `f64` SIMD ([`PowerKernel::eval_lanes`]). The *accumulation*
//!    of those lane values into the running total and argmax then happens
//!    in a scalar loop over the chunk, in ascending index order.
//!
//! # The deterministic reduction-order contract
//!
//! Step 2 is the whole trick. A conventional SIMD sum keeps `LANE_WIDTH`
//! partial accumulators and reduces them horizontally at the end — which
//! reassociates the floating-point sum and changes the result by rounding.
//! Here the chunked reduction adds the **same values in the same
//! architectural order** as the scalar reference (`total += p_0; total +=
//! p_1; …`), the remainder is handled by the scalar kernel itself, and
//! every element's power is produced by the same IEEE operation sequence
//! (exactly-rounded at any vector width, no FMA contraction — Rust never
//! contracts by default). Lane resolution is therefore **bit-for-bit**
//! the scalar resolution, not merely close: goldens stay byte-identical
//! at every thread/shard configuration, which the proptests in
//! `tests/lane_kernels.rs` and the forced-parallel golden re-run prove.
//! What the lanes buy is the *element-wise math* (distance and power, the
//! actual hot work); the in-order adds are a few scalar cycles per lane.
//!
//! # When lanes engage
//!
//! Always: there is no toggle. The batched resolver's one production walk
//! is built on these kernels, and the scalar walks it is pinned against
//! ([`crate::resolve_listener`] and
//! [`crate::ChannelResolver::resolve_with_bound`]) survive only as test
//! references. See `docs/EXECUTION_MODEL.md`.

// The kernels mirror the scalar accumulator state as flat `&mut`
// parameters and walk the fixed-size lane arrays by index: that is the
// exact shape the autovectorizer was measured against (see
// docs/EXECUTION_MODEL.md); the argument-count and range-loop lints would
// trade it for unverified codegen on the hottest loop in the workspace.
#![allow(clippy::too_many_arguments, clippy::needless_range_loop)]

use crate::params::PowerKernel;

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

/// Whole-set accumulation over identity-indexed SoA coordinates (the
/// exact-scan path): element `k` *is* transmitter `k`. Ascending order
/// with a strict `>` argmax — bitwise the scalar reference
/// `resolve_listener_ext` scan (first strongest wins).
#[inline(always)]
pub fn accumulate_identity(
    kernel: &PowerKernel,
    xs: &[f64],
    ys: &[f64],
    lx: f64,
    ly: f64,
    total: &mut f64,
    best_pow: &mut f64,
    best: &mut usize,
) {
    debug_assert_eq!(xs.len(), ys.len());
    let mut cxs = xs.chunks_exact(LANE_WIDTH);
    let mut cys = ys.chunks_exact(LANE_WIDTH);
    let mut k = 0;
    for (sx, sy) in (&mut cxs).zip(&mut cys) {
        let sx: &[f64; LANE_WIDTH] = sx.try_into().expect("exact chunk");
        let sy: &[f64; LANE_WIDTH] = sy.try_into().expect("exact chunk");
        let mut d = [0.0f64; LANE_WIDTH];
        for j in 0..LANE_WIDTH {
            let dx = sx[j] - lx;
            let dy = sy[j] - ly;
            d[j] = dx * dx + dy * dy;
        }
        let p = kernel.eval_lanes(d);
        for j in 0..LANE_WIDTH {
            let pj = p[j];
            *total += pj;
            if pj > *best_pow {
                *best_pow = pj;
                *best = k + j;
            }
        }
        k += LANE_WIDTH;
    }
    for j in k..xs.len() {
        let dx = xs[j] - lx;
        let dy = ys[j] - ly;
        let pj = kernel.eval(dx * dx + dy * dy);
        *total += pj;
        if pj > *best_pow {
            *best_pow = pj;
            *best = j;
        }
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
#[allow(clippy::too_many_arguments)]
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
/// accumulator), and the argmax update uses the identical
/// greater-or-tie-on-smaller-index predicate, so `total`/`best_pow`/`best`
/// are bit-for-bit the per-listener fold. This is the structural win of
/// listener batching: the near fold is a serial dependency chain per
/// listener (~4-cycle add latency each), and one vector add here advances
/// eight such chains in the time the scalar code advances one.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
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
            let upd =
                mask[l] != 0.0 && (pw[l] > best_pow[l] || (pw[l] == best_pow[l] && i < best[l]));
            best_pow[l] = if upd { pw[l] } else { best_pow[l] };
            best[l] = if upd { i } else { best[l] };
        }
    }
}

/// Whole-set fold of a transmitter set smaller than one lane against
/// [`LANE_WIDTH`] listeners at once — the exact scan's answer to sets the
/// transmitter-lane fold ([`accumulate_identity`]) has no full chunk for.
/// Transmitter `j` *is* id `j`, every lane takes every transmitter, and
/// the ids ascend, so this is [`accumulate_span_lanes`] with its mask and
/// its tie clause gone: one vector add per transmitter advances all
/// LANE_WIDTH `total` chains, and the argmax is one strict-`>` compare
/// and select — which, unlike that kernel's short-circuit predicate,
/// compiles without a branch per lane (on colliding transmitters those
/// branches are coin flips: measured 2× the time per evaluation). Per
/// lane the value sequence is the scalar `resolve_listener_ext` scan's.
#[inline(always)]
pub fn accumulate_few_lanes(
    kernel: &PowerKernel,
    xs: &[f64],
    ys: &[f64],
    lxs: &[f64; LANE_WIDTH],
    lys: &[f64; LANE_WIDTH],
    total: &mut [f64; LANE_WIDTH],
    best_pow: &mut [f64; LANE_WIDTH],
    best: &mut [f64; LANE_WIDTH],
) {
    for (j, (&x, &y)) in xs.iter().zip(ys).enumerate() {
        let mut d = [0.0f64; LANE_WIDTH];
        for l in 0..LANE_WIDTH {
            let dx = x - lxs[l];
            let dy = y - lys[l];
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
/// term, no rectangle clamp. For a block (or cell) already known to be
/// beyond the near cutoff for **every** lane of the batch, the rectangle
/// distance can steer no branch — this drops half the vector work from
/// the dominant all-far cell scan. Element `l` is bitwise the scalar
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SinrParams;

    fn kernel(alpha: f64) -> PowerKernel {
        SinrParams::with_range(alpha, 1.5, 1.0, 8.0, 0.5).power_kernel()
    }

    /// Deterministic pseudo-random coordinates without pulling rand in.
    fn coords(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 50.0
        };
        (
            (0..n).map(|_| next()).collect(),
            (0..n).map(|_| next()).collect(),
        )
    }

    fn scalar_identity(
        k: &PowerKernel,
        xs: &[f64],
        ys: &[f64],
        lx: f64,
        ly: f64,
    ) -> (f64, f64, usize) {
        let (mut total, mut best_pow, mut best) = (0.0, f64::NEG_INFINITY, 0usize);
        for j in 0..xs.len() {
            let dx = xs[j] - lx;
            let dy = ys[j] - ly;
            let p = k.eval(dx * dx + dy * dy);
            total += p;
            if p > best_pow {
                best_pow = p;
                best = j;
            }
        }
        (total, best_pow, best)
    }

    #[test]
    fn identity_accumulation_is_bitwise_scalar_for_all_remainders() {
        for alpha in [2.5, 3.0, 4.0, 5.0, 6.0] {
            let k = kernel(alpha);
            // Lengths straddling every remainder class of LANE_WIDTH.
            for n in 0..=2 * LANE_WIDTH + 3 {
                let (xs, ys) = coords(n, n as u64 + 1);
                let (st, sp, sb) = scalar_identity(&k, &xs, &ys, 3.0, -2.0);
                let (mut t, mut p, mut b) = (0.0, f64::NEG_INFINITY, 0usize);
                accumulate_identity(&k, &xs, &ys, 3.0, -2.0, &mut t, &mut p, &mut b);
                assert_eq!(t.to_bits(), st.to_bits(), "α={alpha} n={n}");
                assert_eq!(p.to_bits(), sp.to_bits(), "α={alpha} n={n}");
                assert_eq!(b, sb, "α={alpha} n={n}");
            }
        }
    }
}
