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
//! 2. the listener-lane near fold (`accumulate_span_lanes`) equals eight
//!    independent scalar accumulator chains, masks included — over
//!    continuous geometry, and over lattice geometry with shuffled ids,
//!    where powers tie and the tie clause and the mask meet;
//! 3. batched resolution (`resolve_batch_into` / `resolve_indexed_into` /
//!    `resolve_subset_into`) is bitwise the per-listener `resolve` and the scalar reference walk
//!    (`resolve_with_bound`), in Exact and Fast modes, for any batch
//!    length (padded remainder lanes included);
//! 4. without an index the batch rides the listener lanes of the exact
//!    scan (`accumulate_scan_lanes`) at every transmitter count and batch
//!    length, and is still bitwise the scalar `resolve_listener_ext`;
//! 5. the lane-wide threshold both batch walks end in (`decide_lanes`,
//!    crate-private, so reached through them) is the scalar `decide` on
//!    the lanes random geometry does not reach: SINR equal to β to the
//!    bit, a lone transmitter (zero interference), a Fast-mode lane with
//!    no near-field candidate (`best_pow = −∞`, whose SINR is NaN), all
//!    mixed with ordinary lanes in chunks that end in a padded one.
//!
//! [`PowerKernel::eval_lanes`]: multichannel_adhoc::sinr::PowerKernel::eval_lanes
//! [`PowerKernel::eval`]: multichannel_adhoc::sinr::PowerKernel::eval

use multichannel_adhoc::geom::{BoundingBox, Point};
use multichannel_adhoc::sinr::lanes::{
    accumulate_span_lanes, far_terms_lanes, rect_metrics_lanes, LANE_WIDTH,
};
use multichannel_adhoc::sinr::{
    resolve_listener_ext, ChannelResolver, IndexArena, ListenOutcome, ResolveMode, SinrParams,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use std::hint::black_box;

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

    /// Property 3: batched resolution is bitwise the per-listener walk and
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
        let identity: Vec<u32> = (0..listeners.len() as u32).collect();
        let mut task_out = vec![batch[0]; listeners.len()];
        task.resolve_subset_into(&listeners, &identity, &identity, extra, &mut task_out);
        for (k, o) in batch.iter().enumerate() {
            prop_assert_eq!(&task_out[k], o);
        }
    }
}

proptest! {
    // Cheap cases over small worlds, and many shapes to reach: every
    // remainder class of transmitter count × batch length, ties from both
    // sides under every mask.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Property 2c: the half of the near fold's predicate that continuous
    /// geometry never reaches — ties and masks together. Transmitters and
    /// listeners sit on a small integer lattice (equidistant transmitters
    /// are the norm, as on every grid deployment), ids arrive in a
    /// shuffled order (so a tie is met from both sides: `id < best_id`
    /// true and false), and the fold runs over several spans with a mask
    /// each, as the batch walk's cells do — random masks, an all-zero one,
    /// and, half the time per lane, one that masks off the span holding
    /// that lane's strongest transmitter. The accumulators start either
    /// empty (`−∞`) or at a power some lattice transmitter ties, under an
    /// id in the middle of the range. Bit for bit the scalar loop with its
    /// short-circuit predicate.
    #[test]
    fn span_lanes_ties_and_masks_match_the_short_circuit_loop(
        alpha in alpha_strategy(),
        spans in proptest::collection::vec(
            (
                proptest::collection::vec((0u8..6, 0u8..6, 0u32..u32::MAX), 0..8),
                proptest::collection::vec(0u8..2, LANE_WIDTH),
            ),
            1..4,
        ),
        lraw in proptest::collection::vec((0u8..6, 0u8..6), LANE_WIDTH),
        zeroed_span in 0usize..6,
        seeded in (0u8..2, 0u8..6, 0u8..6),
    ) {
        let kernel = params_for(alpha, false).power_kernel();
        let lpts: Vec<(f64, f64)> = lraw.iter().map(|&(x, y)| (f64::from(x), f64::from(y))).collect();
        let (lxs, lys) = to_lanes(&lpts);
        // Shuffled, non-contiguous ids: each transmitter's rank under its
        // random key, in walk order.
        let keys: Vec<u32> = spans.iter().flat_map(|(txs, _)| txs.iter().map(|t| t.2)).collect();
        let mut by_key: Vec<usize> = (0..keys.len()).collect();
        by_key.sort_by_key(|&k| (keys[k], k));
        let mut ids = vec![0u32; keys.len()];
        for (rank, &k) in by_key.iter().enumerate() {
            ids[k] = 7 + 3 * rank as u32;
        }
        let (seed_tie, sx, sy) = seeded;
        let mid_id = f64::from(7 + 3 * (keys.len() as u32 / 2)) + 1.0;
        let mut total = [0.25; LANE_WIDTH];
        let mut best_pow = [f64::NEG_INFINITY; LANE_WIDTH];
        let mut best = [0.0f64; LANE_WIDTH];
        if seed_tie == 1 {
            for l in 0..LANE_WIDTH {
                let (dx, dy) = (f64::from(sx) - lxs[l], f64::from(sy) - lys[l]);
                best_pow[l] = kernel.eval(dx * dx + dy * dy);
                best[l] = mid_id;
            }
        }
        let (mut t, mut bp, mut b) = (total, best_pow, best);

        let mut at = 0;
        for (si, (txs, mask_bits)) in spans.iter().enumerate() {
            let xs: Vec<f64> = txs.iter().map(|t| f64::from(t.0)).collect();
            let ys: Vec<f64> = txs.iter().map(|t| f64::from(t.1)).collect();
            let span_ids = &ids[at..at + txs.len()];
            at += txs.len();
            let mut mask = [0.0; LANE_WIDTH];
            if si != zeroed_span {
                for l in 0..LANE_WIDTH {
                    mask[l] = f64::from(mask_bits[l]);
                }
            }
            accumulate_span_lanes(
                &kernel, &xs, &ys, span_ids, &lxs, &lys, &mask,
                &mut total, &mut best_pow, &mut best,
            );
            // Scalar reference: one chain per lane, the predicate as the
            // scalar walk writes it.
            for l in 0..LANE_WIDTH {
                for k in 0..txs.len() {
                    let (dx, dy) = (xs[k] - lxs[l], ys[k] - lys[l]);
                    let pw = kernel.eval(dx * dx + dy * dy);
                    t[l] += pw * mask[l];
                    let i = f64::from(span_ids[k]);
                    if mask[l] != 0.0 && (pw > bp[l] || (pw == bp[l] && i < b[l])) {
                        bp[l] = pw;
                        b[l] = i;
                    }
                }
            }
        }
        for l in 0..LANE_WIDTH {
            prop_assert_eq!(total[l].to_bits(), t[l].to_bits(), "total lane {}", l);
            prop_assert_eq!(best_pow[l].to_bits(), bp[l].to_bits(), "best_pow lane {}", l);
            prop_assert_eq!(best[l].to_bits(), b[l].to_bits(), "best lane {}", l);
        }
    }

    /// Property 4: without an index every batch rides the listener lanes
    /// of the exact scan, whatever its shape — no transmitters to five
    /// lanes of them, one listener to a ragged fourth chunk — and every
    /// outcome stays bitwise the scalar reference: with and without
    /// environmental interference, in Exact mode and in Fast mode's
    /// no-index fallback (an all-near world), through the slice and the
    /// indexed entry points, a task's, and the one-listener `resolve`,
    /// from a resolver built fresh and from a `cached` one alike. Twin
    /// transmitters (two on one spot) and lattice worlds (equidistant
    /// transmitters everywhere) hold the argmax to first-strongest-wins.
    #[test]
    fn exact_batches_are_bitwise_scalar_at_every_size(
        alpha in alpha_strategy(),
        fast_bit in 0u8..2,
        pts in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 0..41),
        shape in 0u8..3,
        lraw in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..31),
        extra in (0u8..2, 0.0..2.0f64),
    ) {
        let params = params_for(alpha, fast_bit == 1);
        // Fast mode builds no index over a world whose diagonal fits inside
        // its cutoff (1.5 · R_T = 12): keep those worlds that small.
        let side = if fast_bit == 1 { 8.0 } else { 30.0 };
        let place = |&(x, y): &(f64, f64)| match shape {
            2 => Point::new((x * 6.0).floor(), (y * 6.0).floor()),
            _ => Point::new(x * side, y * side),
        };
        let mut txs: Vec<Point> = pts.iter().map(place).collect();
        if shape == 1 && !txs.is_empty() {
            let twin = txs[0];
            txs.insert(txs.len() / 2 + 1, twin);
        }
        let listeners: Vec<Point> = lraw.iter().map(place).collect();
        let extra = if extra.0 == 1 { extra.1 } else { 0.0 };
        // A resolver built fresh and one lent an arena the set earned no
        // index in: without an index they are the same scan.
        let mut arena = IndexArena::new();
        let index = arena.build(&params, &txs);
        prop_assert!(index.is_none());
        for resolver in [
            ChannelResolver::new(&params, &txs),
            ChannelResolver::with_index(&params, &txs, &arena, index),
        ] {
            prop_assert!(!resolver.is_fast());
            let task = resolver.task(BoundingBox::from_points(listeners.iter().copied()).unwrap());
            let keys: Vec<u32> = (0..listeners.len() as u32).rev().collect();
            let mut batch = Vec::new();
            let mut indexed = vec![ListenOutcome::SILENT; keys.len()];
            let mut task_batch = indexed.clone();
            let mut task_indexed = indexed.clone();
            let identity: Vec<u32> = (0..listeners.len() as u32).collect();
            resolver.resolve_batch_into(&listeners, extra, &mut batch);
            task.resolve_subset_into(&listeners, &identity, &identity, extra, &mut task_batch);
            resolver.resolve_indexed_into(&listeners, &keys, extra, &mut indexed);
            task.resolve_subset_into(&listeners, &identity, &keys, extra, &mut task_indexed);
            for (k, &l) in listeners.iter().enumerate() {
                let one = resolve_listener_ext(&params, &txs, l, extra);
                let back = listeners.len() - 1 - k;
                for got in [
                    batch[k],
                    task_batch[k],
                    indexed[back],
                    task_indexed[back],
                    resolver.resolve(l, extra),
                    task.resolve(l, extra),
                ] {
                    prop_assert_eq!(got.decoded, one.decoded);
                    prop_assert_eq!(got.total_power.to_bits(), one.total_power.to_bits());
                    prop_assert_eq!(got.signal.to_bits(), one.signal.to_bits());
                    prop_assert_eq!(got.sinr.to_bits(), one.sinr.to_bits());
                }
            }
        }
    }
}

/// Several channels of one slot share one [`IndexArena`] — the engine's
/// arrangement. Three Fast-mode sets of different size and extent (so
/// different grids and node counts) are built into it one after another,
/// with an Exact-mode set between them that appends nothing; only then
/// are the resolvers sliced, and every batch through a lent index is
/// bitwise what a resolver built fresh on the same set returns (the lane
/// walk, an index on both sides). The next slot clears the arena and
/// builds the same sets again into the buffers it already holds.
#[test]
fn several_channels_share_one_index_arena() {
    let params = params_for(4.0, true);
    let exact = params_for(4.0, false);
    let world = |seed: u64, n: usize, w: f64, h: f64| -> Vec<Point> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..w), rng.gen_range(0.0..h)))
            .collect()
    };
    let channels = [
        (params, world(1, 400, 120.0, 120.0)),
        (exact, world(4, 300, 90.0, 90.0)),
        (params, world(2, 900, 200.0, 150.0)),
        (params, world(5, 160, 60.0, 200.0)),
    ];
    let listeners = world(3, 61, 200.0, 200.0);
    let mut arena = IndexArena::new();
    let mut room = (0, 0);
    for slot in 0..2 {
        arena.clear();
        let spans: Vec<_> = channels.iter().map(|(p, tx)| arena.build(p, tx)).collect();
        let fast: Vec<bool> = spans.iter().map(Option::is_some).collect();
        assert_eq!(fast, [true, false, true, true], "slot {slot}");
        for (ch, ((p, tx), span)) in channels.iter().zip(spans).enumerate() {
            let resolver = ChannelResolver::with_index(p, tx, &arena, span);
            let fresh = ChannelResolver::new(p, tx);
            assert_eq!(resolver.is_fast(), fresh.is_fast());
            assert_eq!(resolver.node_count(), fresh.node_count());
            let (mut got, mut want) = (Vec::new(), Vec::new());
            resolver.resolve_batch_into(&listeners, 0.25, &mut got);
            fresh.resolve_batch_into(&listeners, 0.25, &mut want);
            for (g, w) in got.iter().zip(&want) {
                assert_bitwise(g, w).unwrap_or_else(|e| panic!("slot {slot}, channel {ch}: {e:?}"));
            }
        }
        if slot == 0 {
            room = arena.capacity();
        } else {
            assert_eq!(arena.capacity(), room, "the second slot grew the arena");
        }
    }
}

fn assert_bitwise(
    got: &ListenOutcome,
    want: &ListenOutcome,
) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(got.decoded, want.decoded);
    prop_assert_eq!(got.total_power.to_bits(), want.total_power.to_bits());
    prop_assert_eq!(got.signal.to_bits(), want.signal.to_bits());
    prop_assert_eq!(got.sinr.to_bits(), want.sinr.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Property 5, Exact scan: one transmitter at the origin under
    /// `α = 4, β = 2, N = 1` and a power that puts the threshold at
    /// distance 2 *exactly* for the drawn environmental interference `e`
    /// (`P = 32·(1 + e)`: power `2·(1 + e)` at `d⁴ = 16`, SINR
    /// `2·(1 + e)/(1 + e)`, every step exact in binary). Listeners sit on
    /// the threshold circle's four axis points (SINR == β: decodes), a
    /// hair inside and outside it, or anywhere; with `e = 0` the
    /// interference of every lane is exactly zero. The inputs pass
    /// through `black_box`, so no build folds the threshold at compile
    /// time.
    #[test]
    fn threshold_lanes_match_the_scalar_decide_on_the_threshold(
        e in 0u8..3,
        spots in proptest::collection::vec((0u8..8, -6.0..6.0f64, -6.0..6.0f64), 1..30),
    ) {
        let extra = [0.0, 1.0, 3.0][e as usize];
        let params = SinrParams::new(4.0, 2.0, 1.0, 32.0 * (1.0 + extra), 0.5);
        let txs = black_box(vec![Point::ORIGIN]);
        let listeners: Vec<Point> = spots
            .iter()
            .map(|&(kind, x, y)| match kind {
                0 => Point::new(2.0, 0.0),
                1 => Point::new(0.0, -2.0),
                2 => Point::new(-2.0, 0.0),
                3 => Point::new(0.0, 2.0),
                4 => Point::new(2.0 - f64::EPSILON, 0.0),
                5 => Point::new(2.0 + 2.0 * f64::EPSILON, 0.0),
                _ => Point::new(x, y),
            })
            .collect();
        let listeners = black_box(listeners);
        let resolver = ChannelResolver::new(&params, &txs);
        let mut batch = Vec::new();
        resolver.resolve_batch_into(&listeners, black_box(extra), &mut batch);
        for (k, &l) in listeners.iter().enumerate() {
            let one = resolve_listener_ext(&params, &txs, l, extra);
            assert_bitwise(&batch[k], &one)?;
            if spots[k].0 < 4 {
                prop_assert_eq!(one.decoded, Some(0));
                prop_assert_eq!(one.sinr.to_bits(), params.beta.to_bits());
            }
        }
    }

    /// Property 5, Fast walk: a 5 × 5 lattice of transmitters (wider than
    /// the cutoff, so the index is built) and a batch that mixes listeners
    /// among them with listeners hundreds of units away, for whom no cell
    /// opens: their lanes reach the threshold with `best_pow = −∞` and must
    /// come out exactly as the scalar walk's hand-written no-decode
    /// outcome, beside lanes that decode, in full and padded chunks alike.
    #[test]
    fn threshold_lanes_keep_the_no_candidate_outcome_in_fast_mode(
        alpha in alpha_strategy(),
        spots in proptest::collection::vec((0u8..2, 0.0..1.0f64, 0.0..1.0f64), 1..30),
        extra in (0u8..2, 0.0..2.0f64),
    ) {
        let params = params_for(alpha, true);
        let txs: Vec<Point> = (0..25).map(|i| Point::new(f64::from(i % 5) * 4.0, f64::from(i / 5) * 4.0)).collect();
        let txs = black_box(txs);
        let listeners: Vec<Point> = spots
            .iter()
            .map(|&(far, x, y)| match far {
                1 => Point::new(200.0 + 100.0 * x, 200.0 + 100.0 * y),
                _ => Point::new(16.0 * x, 16.0 * y),
            })
            .collect();
        let listeners = black_box(listeners);
        let extra = if extra.0 == 1 { extra.1 } else { 0.0 };
        let resolver = ChannelResolver::new(&params, &txs);
        prop_assert!(resolver.is_fast());
        let mut batch = Vec::new();
        resolver.resolve_batch_into(&listeners, black_box(extra), &mut batch);
        for (k, &l) in listeners.iter().enumerate() {
            assert_bitwise(&batch[k], &resolver.resolve_with_bound(l, extra).0)?;
            if spots[k].0 == 1 {
                prop_assert_eq!(batch[k].decoded, None);
                prop_assert_eq!((batch[k].signal, batch[k].sinr), (0.0, 0.0));
                prop_assert!(batch[k].total_power > extra);
            }
        }
    }
}
