//! Bitwise contracts of the SIMD lane kernels (`mca_sinr::lanes`),
//! exercised through the public facade over random geometry.
//!
//! Every property here is *exact* equality on float bits, not tolerance:
//! the lane kernels' whole value proposition is that they produce the
//! scalar reference walks' bytes. The properties cover:
//!
//! 1. [`PowerKernel::eval_lanes`] is element-wise bitwise
//!    [`PowerKernel::eval`] on every α path (integer fast paths and the
//!    general `powf` arm alike);
//! 2. the transposed listener-lane fold (`accumulate_span_lanes`) equals
//!    eight independent scalar accumulator chains, masks included;
//! 3. the single-listener SoA fold (`accumulate_identity`) equals the
//!    scalar walk, including `chunks_exact` remainders of every size;
//! 4. batched resolution (`resolve_batch_into` / `resolve_indexed_into`)
//!    is bitwise the per-listener `resolve` and the scalar reference walk
//!    (`resolve_with_bound`), in Exact and Fast modes, for any batch
//!    length (padded remainder lanes included);
//! 5. below one lane of transmitters the Exact batch rides listener lanes
//!    and is still bitwise the scalar `resolve_listener_ext`.
//!
//! [`PowerKernel::eval_lanes`]: multichannel_adhoc::sinr::PowerKernel::eval_lanes
//! [`PowerKernel::eval`]: multichannel_adhoc::sinr::PowerKernel::eval

use multichannel_adhoc::geom::{BoundingBox, Point};
use multichannel_adhoc::sinr::lanes::{
    accumulate_identity, accumulate_span_lanes, far_terms_lanes, rect_metrics_lanes, LANE_WIDTH,
};
use multichannel_adhoc::sinr::{resolve_listener_ext, ChannelResolver, ResolveMode, SinrParams};
use proptest::prelude::*;

/// α values spanning every `PowerKernel` dispatch arm: the cubic,
/// quartic, quintic, and sextic integer fast paths plus fractional
/// exponents that fall through to `powf`. (The vendored proptest has no
/// `prop_oneof!`; an index pick over a fractional draw does the same.)
fn alpha_strategy() -> impl Strategy<Value = f64> {
    (0usize..5, 2.1..6.9f64).prop_map(|(arm, frac)| match arm {
        0 => 3.0,
        1 => 4.0,
        2 => 5.0,
        3 => 6.0,
        _ => frac,
    })
}

fn params_for(alpha: f64, fast: bool) -> SinrParams {
    let p = SinrParams::with_range(alpha, 1.5, 1.0, 8.0, 0.5);
    if fast {
        p.with_resolve(ResolveMode::fast())
    } else {
        p
    }
}

/// Splits a generated point list into the lane SoA arrays.
fn to_lanes(pts: &[(f64, f64)]) -> ([f64; LANE_WIDTH], [f64; LANE_WIDTH]) {
    let mut lxs = [0.0; LANE_WIDTH];
    let mut lys = [0.0; LANE_WIDTH];
    for l in 0..LANE_WIDTH {
        lxs[l] = pts[l].0;
        lys[l] = pts[l].1;
    }
    (lxs, lys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: the vector power kernel is element-wise bitwise the
    /// scalar one, for every α dispatch arm.
    #[test]
    fn eval_lanes_is_elementwise_eval(
        alpha in alpha_strategy(),
        d_raw in proptest::collection::vec(0.0..5_000.0f64, LANE_WIDTH),
    ) {
        let kernel = params_for(alpha, false).power_kernel();
        let d_sq: [f64; LANE_WIDTH] = d_raw.as_slice().try_into().unwrap();
        let lanes = kernel.eval_lanes(d_sq);
        for (j, &d) in d_sq.iter().enumerate() {
            prop_assert_eq!(lanes[j].to_bits(), kernel.eval(d).to_bits(),
                "lane {} diverged at alpha {}", j, alpha);
        }
    }

    /// Property 2: the cross-lane near fold advances eight scalar
    /// accumulator chains exactly — masked lanes are untouched (the
    /// `·0.0 → +0.0` additive identity), active lanes fold in element
    /// order with the first-strongest-wins tie-break on transmitter id.
    #[test]
    fn span_lanes_fold_is_eight_scalar_chains(
        alpha in alpha_strategy(),
        pts in proptest::collection::vec((0.0..60.0f64, 0.0..60.0f64), 0..40),
        lpts in proptest::collection::vec((0.0..60.0f64, 0.0..60.0f64), LANE_WIDTH),
        mask_bits in proptest::collection::vec(0u8..2, LANE_WIDTH),
        id_base in 0u32..1_000,
    ) {
        let kernel = params_for(alpha, false).power_kernel();
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        // Non-contiguous ids: the tie-break runs on original indices.
        let ids: Vec<u32> = (0..pts.len() as u32).map(|k| id_base + 3 * k).collect();
        let (lxs, lys) = to_lanes(&lpts);
        let mut mask = [0.0; LANE_WIDTH];
        for l in 0..LANE_WIDTH {
            mask[l] = f64::from(mask_bits[l]);
        }

        let mut total = [0.25; LANE_WIDTH];
        let mut best_pow = [f64::NEG_INFINITY; LANE_WIDTH];
        let mut best = [0.0f64; LANE_WIDTH];
        accumulate_span_lanes(
            &kernel, &xs, &ys, &ids, &lxs, &lys, &mask,
            &mut total, &mut best_pow, &mut best,
        );

        // Scalar reference: one independent chain per lane, same walk.
        for l in 0..LANE_WIDTH {
            let mut t = 0.25;
            let mut bp = f64::NEG_INFINITY;
            let mut b = 0.0f64;
            for (k, &(x, y)) in pts.iter().enumerate() {
                let dx = x - lxs[l];
                let dy = y - lys[l];
                let pw = kernel.eval(dx * dx + dy * dy);
                t += pw * mask[l];
                let i = f64::from(ids[k]);
                if mask[l] != 0.0 && (pw > bp || (pw == bp && i < b)) {
                    bp = pw;
                    b = i;
                }
            }
            prop_assert_eq!(total[l].to_bits(), t.to_bits(), "total lane {}", l);
            prop_assert_eq!(best_pow[l].to_bits(), bp.to_bits(), "best_pow lane {}", l);
            prop_assert_eq!(best[l].to_bits(), b.to_bits(), "best lane {}", l);
        }
    }

    /// Property 2b: the listener-lane rect/far kernels equal the scalar
    /// clamp-and-evaluate per lane.
    #[test]
    fn rect_and_far_lanes_match_scalar(
        alpha in alpha_strategy(),
        rect in (0.0..30.0f64, 0.0..30.0f64, 0.1..20.0f64, 0.1..20.0f64),
        count in 1.0..50.0f64,
        lpts in proptest::collection::vec((-10.0..70.0f64, -10.0..70.0f64), LANE_WIDTH),
    ) {
        let kernel = params_for(alpha, false).power_kernel();
        let (min_x, min_y, w, h) = rect;
        let (max_x, max_y) = (min_x + w, min_y + h);
        let (cx, cy) = ((min_x + max_x) / 2.0, (min_y + max_y) / 2.0);
        let (lxs, lys) = to_lanes(&lpts);
        let (d_min, terms) =
            rect_metrics_lanes(&kernel, min_x, min_y, max_x, max_y, cx, cy, count, &lxs, &lys);
        let far = far_terms_lanes(&kernel, cx, cy, count, &lxs, &lys);
        for l in 0..LANE_WIDTH {
            let px = lxs[l].max(min_x).min(max_x);
            let py = lys[l].max(min_y).min(max_y);
            let (dx, dy) = (px - lxs[l], py - lys[l]);
            prop_assert_eq!(d_min[l].to_bits(), (dx * dx + dy * dy).to_bits());
            let (ex, ey) = (cx - lxs[l], cy - lys[l]);
            let term = kernel.eval(ex * ex + ey * ey) * count;
            prop_assert_eq!(terms[l].to_bits(), term.to_bits());
            prop_assert_eq!(far[l].to_bits(), term.to_bits());
        }
    }

    /// Property 3: the single-listener SoA fold equals the scalar walk
    /// for every length (the `chunks_exact` remainder sweep).
    #[test]
    fn identity_fold_matches_scalar_walk(
        alpha in alpha_strategy(),
        pts in proptest::collection::vec((0.0..60.0f64, 0.0..60.0f64), 0..26),
        lpt in (0.0..60.0f64, 0.0..60.0f64),
    ) {
        let kernel = params_for(alpha, false).power_kernel();
        let (lx, ly) = lpt;
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        let mut total = 0.0;
        let mut best_pow = f64::NEG_INFINITY;
        let mut best = usize::MAX;
        accumulate_identity(&kernel, &xs, &ys, lx, ly, &mut total, &mut best_pow, &mut best);
        let mut t = 0.0;
        let mut bp = f64::NEG_INFINITY;
        let mut b = usize::MAX;
        for (k, &(x, y)) in pts.iter().enumerate() {
            let dx = x - lx;
            let dy = y - ly;
            let pw = kernel.eval(dx * dx + dy * dy);
            t += pw;
            if pw > bp || (pw == bp && k < b) {
                bp = pw;
                b = k;
            }
        }
        prop_assert_eq!(total.to_bits(), t.to_bits());
        prop_assert_eq!(best_pow.to_bits(), bp.to_bits());
        prop_assert_eq!(best, b);
    }

    /// Property 4: batched resolution is bitwise the per-listener walk and
    /// the scalar reference walk — Exact and Fast, slice and indexed entry
    /// points, any batch length (including sub-lane batches and odd
    /// remainders, which ride a padded batch).
    #[test]
    fn batched_resolution_is_bitwise_per_listener(
        alpha in alpha_strategy(),
        fast_bit in 0u8..2,
        pts in proptest::collection::vec((0.0..80.0f64, 0.0..80.0f64), 16..90),
        lraw in proptest::collection::vec((0.0..80.0f64, 0.0..80.0f64), 1..30),
        extra in 0.0..2.0f64,
    ) {
        let params = params_for(alpha, fast_bit == 1);
        let txs: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let listeners: Vec<Point> = lraw.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let resolver = ChannelResolver::new(&params, &txs);
        let mut batch = Vec::new();
        resolver.resolve_batch_into(&listeners, extra, &mut batch);
        prop_assert_eq!(batch.len(), listeners.len());
        for (k, &l) in listeners.iter().enumerate() {
            for one in [resolver.resolve(l, extra), resolver.resolve_with_bound(l, extra).0] {
                prop_assert_eq!(batch[k].decoded, one.decoded);
                prop_assert_eq!(batch[k].total_power.to_bits(), one.total_power.to_bits());
                prop_assert_eq!(batch[k].signal.to_bits(), one.signal.to_bits());
                prop_assert_eq!(batch[k].sinr.to_bits(), one.sinr.to_bits());
            }
        }
        // The indexed entry point sees the same world through keys.
        let keys: Vec<u32> = (0..listeners.len() as u32).rev().collect();
        let mut indexed = vec![batch[0]; keys.len()];
        resolver.resolve_indexed_into(&listeners, &keys, extra, &mut indexed);
        for (j, &k) in keys.iter().enumerate() {
            prop_assert_eq!(indexed[j], batch[k as usize]);
        }
        // Task-scoped batches agree too (candidate-pruned walk).
        let bbox = BoundingBox::from_points(listeners.iter().copied()).unwrap();
        let task = resolver.task(bbox);
        let mut task_out = Vec::new();
        task.resolve_batch_into(&listeners, extra, &mut task_out);
        for (k, o) in batch.iter().enumerate() {
            prop_assert_eq!(&task_out[k], o);
        }
    }

    /// Property 5: with fewer than `LANE_WIDTH` transmitters (none
    /// included) the index-free batch takes eight listeners per pass
    /// through the listener lanes; every outcome stays bitwise the scalar
    /// reference — for any batch length (1..=17 covers sub-lane, exact and
    /// ragged batches), with and without environmental interference, in
    /// Exact mode and in Fast mode's small-set fallback, and with two
    /// transmitters on one spot (the tie must go to the earlier one).
    #[test]
    fn few_transmitter_batches_are_bitwise_scalar(
        alpha in alpha_strategy(),
        fast_bit in 0u8..2,
        pts in proptest::collection::vec((0.0..30.0f64, 0.0..30.0f64), 0..LANE_WIDTH),
        twin in 0u8..2,
        lraw in proptest::collection::vec((0.0..30.0f64, 0.0..30.0f64), 1..18),
        extra in (0u8..2, 0.0..2.0f64),
    ) {
        let params = params_for(alpha, fast_bit == 1);
        let mut txs: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        if twin == 1 && (1..LANE_WIDTH - 1).contains(&txs.len()) {
            txs.push(txs[0]);
        }
        let listeners: Vec<Point> = lraw.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let extra = if extra.0 == 1 { extra.1 } else { 0.0 };
        let resolver = ChannelResolver::new(&params, &txs);
        prop_assert!(!resolver.is_fast());
        let mut batch = Vec::new();
        resolver.resolve_batch_into(&listeners, extra, &mut batch);
        let keys: Vec<u32> = (0..listeners.len() as u32).rev().collect();
        let mut indexed = vec![batch[0]; keys.len()];
        resolver.resolve_indexed_into(&listeners, &keys, extra, &mut indexed);
        for (k, &l) in listeners.iter().enumerate() {
            let one = resolve_listener_ext(&params, &txs, l, extra);
            for got in [batch[k], indexed[listeners.len() - 1 - k]] {
                prop_assert_eq!(got.decoded, one.decoded);
                prop_assert_eq!(got.total_power.to_bits(), one.total_power.to_bits());
                prop_assert_eq!(got.signal.to_bits(), one.signal.to_bits());
                prop_assert_eq!(got.sinr.to_bits(), one.sinr.to_bits());
            }
        }
    }
}
