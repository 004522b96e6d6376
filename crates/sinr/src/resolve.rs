//! Per-slot, per-channel reception resolution.
//!
//! Given the set of transmitters on a channel and a listener, decide what
//! the listener decodes (Eq. 1) and what its carrier-sense hardware reports
//! (total received power; SINR and signal strength on success). Since
//! `β ≥ 1`, at most one transmitter can decode per listener per slot — the
//! strongest-signal candidate is the only one that can pass the threshold.

use crate::lanes::LANE_WIDTH;
use crate::params::SinrParams;
use mca_geom::Point;

/// What one listener experienced in one slot on one channel: 32 bytes, a
/// `u32` index beside three `f64`s, so an engine's outcome buffer — one
/// per listener of every resolved channel — costs 32 B per listener.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ListenOutcome {
    /// Index (into the transmitter slice passed to the resolver) of the
    /// decoded transmitter, if any. A channel never holds more than
    /// `u32::MAX` transmitters: an engine's node ids are `u32`.
    pub decoded: Option<u32>,
    /// Received power of the decoded signal (0 if none decoded).
    pub signal: f64,
    /// SINR of the decoded signal (0 if none decoded).
    pub sinr: f64,
    /// Total received power summed over *all* transmitters on the channel
    /// (excluding ambient noise) — the carrier-sense reading.
    pub total_power: f64,
}

impl ListenOutcome {
    /// Outcome of a slot with no transmitter on the channel.
    pub const SILENT: ListenOutcome = ListenOutcome {
        decoded: None,
        signal: 0.0,
        sinr: 0.0,
        total_power: 0.0,
    };

    /// Interference sensed alongside the decoded signal: total power minus
    /// the decoded signal (the quantity Definition 4 compares against `T_s`).
    /// Equals `total_power` when nothing decoded.
    pub fn sensed_interference(&self) -> f64 {
        (self.total_power - self.signal).max(0.0)
    }
}

/// Resolves one listener against the transmitters on its channel.
///
/// `tx_positions` are the positions of the transmitters currently on the
/// channel; `listener` is the listener's position. The listener must not be
/// transmitting (half-duplex — enforced by the engine).
pub fn resolve_listener(
    params: &SinrParams,
    tx_positions: &[Point],
    listener: Point,
) -> ListenOutcome {
    resolve_listener_ext(params, tx_positions, listener, 0.0)
}

/// [`resolve_listener`] with an additional per-channel interference term.
///
/// `extra_interference` models power on the channel that comes from outside
/// the simulated transmitter set — a faded (Gilbert–Elliot *bad*-state)
/// channel, co-channel traffic from a neighboring network, or a jammer whose
/// energy the listener's carrier sense should see. It is added to both the
/// SINR denominator and `total_power`, so carrier-sensing protocols observe
/// the degraded channel instead of mistaking it for silence.
pub fn resolve_listener_ext(
    params: &SinrParams,
    tx_positions: &[Point],
    listener: Point,
    extra_interference: f64,
) -> ListenOutcome {
    debug_assert!(extra_interference >= 0.0, "interference cannot be negative");
    if tx_positions.is_empty() {
        if extra_interference <= 0.0 {
            return ListenOutcome::SILENT;
        }
        return ListenOutcome {
            decoded: None,
            signal: 0.0,
            sinr: 0.0,
            total_power: extra_interference,
        };
    }
    let mut total = extra_interference;
    let mut best = 0usize;
    let mut best_pow = f64::NEG_INFINITY;
    for (i, &t) in tx_positions.iter().enumerate() {
        let p = params.received_power_sq(t.dist_sq(listener));
        total += p;
        if p > best_pow {
            best_pow = p;
            best = i;
        }
    }
    decide(params, best, best_pow, total)
}

/// Applies the Eq. 1 threshold to a scanned candidate: `best`/`best_pow` is
/// the strongest transmitter (earliest index on power ties) and `total` the
/// carrier-sense sum *including* the candidate. The scalar reference walks
/// (the scan above, Fast mode's in `ChannelResolver`) end here; the batch
/// walks end in [`decide_lanes`], which is this function lane by lane.
#[inline]
pub(crate) fn decide(params: &SinrParams, best: usize, best_pow: f64, total: f64) -> ListenOutcome {
    let interference = total - best_pow;
    let sinr = params.sinr(best_pow, interference);
    if sinr >= params.beta {
        ListenOutcome {
            decoded: Some(best as u32),
            signal: best_pow,
            sinr,
            total_power: total,
        }
    } else {
        ListenOutcome {
            decoded: None,
            signal: 0.0,
            sinr: 0.0,
            total_power: total,
        }
    }
}

/// [`decide`] for [`LANE_WIDTH`] listeners at once — the epilogue of both
/// batch walks. `out[l]` (one per listener of the chunk; a padded chunk has
/// fewer than a lane of them) is bitwise `decide(params, best[l] as usize,
/// best_pow[l], total[l])`: [`threshold_lanes`] applies the threshold to
/// all lanes in packed arithmetic, and each outcome is put together from
/// its answers without a jump.
///
/// Never inlined, and the accumulators arrive by value: copies leaving
/// through a call boundary are what keeps the walks' own `[f64; LANE_WIDTH]`
/// state in vector registers. Inlined, the eight scalar consumers here
/// make LLVM split the accumulators into scalars for the whole fold; by
/// reference, the escaping arrays live in memory through it (both
/// measured — see `docs/EXECUTION_MODEL.md`, "Codegen lessons").
#[inline(never)]
pub(crate) fn decide_lanes(
    params: &SinrParams,
    best: [f64; LANE_WIDTH],
    best_pow: [f64; LANE_WIDTH],
    total: [f64; LANE_WIDTH],
    out: &mut [ListenOutcome],
) {
    let (decodes, signal, sinr) = threshold_lanes(params.noise, params.beta, best_pow, total);
    for (l, o) in out.iter_mut().enumerate().take(LANE_WIDTH) {
        *o = ListenOutcome {
            decoded: (decodes[l] != 0.0).then_some(best[l] as u32),
            signal: signal[l],
            sinr: sinr[l],
            total_power: total[l],
        };
    }
}

/// The Eq. 1 threshold across listener lanes: per lane `(1.0, best_pow,
/// sinr)` where the candidate decodes and `(0.0, 0.0, 0.0)` where it does
/// not. Lane `l` runs [`decide`]'s operations in [`decide`]'s order —
/// `interference = total − best_pow`, `sinr = best_pow / (noise +
/// interference)`, `sinr ≥ β` — so its values are that function's bit for
/// bit, and the eight divisions are one packed instruction (or four on
/// SSE2). The answers are *selected*, never multiplied by a mask: a
/// Fast-mode lane that met no near-field transmitter arrives with
/// `best_pow = −∞`, its SINR is `−∞ / ∞ = NaN`, `NaN ≥ β` is false and the
/// selects store zeros — the no-decode outcome the scalar walk writes out
/// by hand — where `NaN · 0.0` would have stored NaN.
///
/// A function of its own, never inlined, because its three arrays leave
/// through memory: contiguous stores are what LLVM's SLP vectorizer grows
/// a packed tree from, and the strided `ListenOutcome` stores of the
/// caller are not.
#[inline(never)]
fn threshold_lanes(
    noise: f64,
    beta: f64,
    best_pow: [f64; LANE_WIDTH],
    total: [f64; LANE_WIDTH],
) -> ([f64; LANE_WIDTH], [f64; LANE_WIDTH], [f64; LANE_WIDTH]) {
    let mut decodes = [0.0f64; LANE_WIDTH];
    let mut signal = [0.0f64; LANE_WIDTH];
    let mut sinr = [0.0f64; LANE_WIDTH];
    for l in 0..LANE_WIDTH {
        let interference = total[l] - best_pow[l];
        let s = best_pow[l] / (noise + interference);
        let ok = s >= beta;
        decodes[l] = if ok { 1.0 } else { 0.0 };
        signal[l] = if ok { best_pow[l] } else { 0.0 };
        sinr[l] = if ok { s } else { 0.0 };
    }
    (decodes, signal, sinr)
}

/// Batch resolution of many listeners against the same transmitter set.
///
/// Routed through [`ChannelResolver`](crate::ChannelResolver), the single
/// batched resolution code path (the engine uses the same resolver): with
/// the default [`ResolveMode::Exact`](crate::ResolveMode::Exact) the result
/// is bit-for-bit what per-listener [`resolve_listener`] calls produce.
pub fn resolve_channel(
    params: &SinrParams,
    tx_positions: &[Point],
    listeners: &[Point],
) -> Vec<ListenOutcome> {
    let resolver = crate::ChannelResolver::new(params, tx_positions);
    let mut out = Vec::with_capacity(listeners.len());
    resolver.resolve_batch_into(listeners, 0.0, &mut out);
    out
}

/// Whether `outcome` is a *clear reception* for radius `r` (Definition 4):
/// the decoded sender is within `r` (judged by signal strength, i.e. the
/// RSSI distance estimate) and the sensed interference is at most the
/// radius-dependent threshold `T_s(r)`
/// (see [`SinrParams::clear_threshold_for`]).
pub fn is_clear_reception(params: &SinrParams, outcome: &ListenOutcome, r: f64) -> bool {
    match outcome.decoded {
        None => false,
        Some(_) => {
            outcome.signal >= params.received_power(r)
                && outcome.sensed_interference() <= params.clear_threshold_for(r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p() -> SinrParams {
        SinrParams::default() // R_T = 8
    }

    #[test]
    fn silence_when_no_transmitters() {
        let out = resolve_listener(&p(), &[], Point::ORIGIN);
        assert_eq!(out, ListenOutcome::SILENT);
        assert_eq!(out.sensed_interference(), 0.0);
    }

    #[test]
    fn lone_transmitter_in_range_decodes() {
        let params = p();
        let out = resolve_listener(&params, &[Point::new(3.0, 0.0)], Point::ORIGIN);
        assert_eq!(out.decoded, Some(0));
        assert!(out.sinr >= params.beta);
        assert!((out.signal - params.received_power(3.0)).abs() < 1e-12);
        assert!((out.total_power - out.signal).abs() < 1e-12);
    }

    #[test]
    fn lone_transmitter_out_of_range_fails() {
        let params = p();
        let out = resolve_listener(&params, &[Point::new(9.0, 0.0)], Point::ORIGIN);
        assert_eq!(out.decoded, None);
        assert!(out.total_power > 0.0, "carrier sense still reads power");
    }

    #[test]
    fn extra_interference_degrades_and_is_sensed() {
        let params = p();
        // Marginal link at distance 6 of R_T = 8: decodes when clean.
        let sender = [Point::new(6.0, 0.0)];
        let clean = resolve_listener_ext(&params, &sender, Point::ORIGIN, 0.0);
        assert_eq!(clean.decoded, Some(0));
        assert_eq!(clean, resolve_listener(&params, &sender, Point::ORIGIN));
        // Strong extra interference kills the decode but shows up in
        // carrier sense.
        let faded = resolve_listener_ext(&params, &sender, Point::ORIGIN, 1000.0);
        assert_eq!(faded.decoded, None);
        assert!(faded.total_power > clean.total_power);
        // An empty channel with extra interference reads busy, not silent.
        let busy = resolve_listener_ext(&params, &[], Point::ORIGIN, 2.5);
        assert_eq!(busy.decoded, None);
        assert_eq!(busy.total_power, 2.5);
        assert_eq!(
            resolve_listener_ext(&params, &[], Point::ORIGIN, 0.0),
            ListenOutcome::SILENT
        );
    }

    #[test]
    fn symmetric_colliders_jam_each_other() {
        // Two equally strong transmitters: SINR = sig/(N + sig) < 1 <= beta.
        let params = p();
        let txs = [Point::new(-2.0, 0.0), Point::new(2.0, 0.0)];
        let out = resolve_listener(&params, &txs, Point::ORIGIN);
        assert_eq!(out.decoded, None);
    }

    #[test]
    fn capture_effect_near_transmitter_wins() {
        // A very close transmitter is decoded despite a distant concurrent one.
        let params = p();
        let txs = [Point::new(0.5, 0.0), Point::new(7.9, 0.0)];
        let out = resolve_listener(&params, &txs, Point::ORIGIN);
        assert_eq!(out.decoded, Some(0));
        // And the far transmitter is *not* decodable at a midpoint-ish
        // listener that hears the near one loudly.
        let out2 = resolve_listener(&params, &txs, Point::new(6.0, 0.0));
        // near tx at distance 5.5, far tx at distance 1.9: far one wins there
        assert_eq!(out2.decoded, Some(1));
    }

    #[test]
    fn total_power_counts_everyone() {
        let params = p();
        let txs = [
            Point::new(1.0, 0.0),
            Point::new(0.0, 2.0),
            Point::new(-3.0, 0.0),
        ];
        let out = resolve_listener(&params, &txs, Point::ORIGIN);
        let expect: f64 = [1.0, 2.0, 3.0]
            .iter()
            .map(|&d| params.received_power(d))
            .sum();
        assert!((out.total_power - expect).abs() < 1e-9);
    }

    #[test]
    fn batch_matches_single() {
        let params = p();
        let txs = [Point::new(1.0, 1.0), Point::new(4.0, 4.0)];
        let listeners = [Point::ORIGIN, Point::new(5.0, 5.0), Point::new(100.0, 0.0)];
        let batch = resolve_channel(&params, &txs, &listeners);
        for (i, &l) in listeners.iter().enumerate() {
            assert_eq!(batch[i], resolve_listener(&params, &txs, l));
        }
    }

    #[test]
    fn clear_reception_requires_proximity_and_quiet() {
        let params = p();
        let r = 1.0;
        // Close sender, no interference: clear.
        let close = resolve_listener(&params, &[Point::new(0.8, 0.0)], Point::ORIGIN);
        assert!(is_clear_reception(&params, &close, r));
        // Decodable but beyond r: not clear.
        let far = resolve_listener(&params, &[Point::new(2.0, 0.0)], Point::ORIGIN);
        assert_eq!(far.decoded, Some(0));
        assert!(!is_clear_reception(&params, &far, r));
        // Close sender but a loud 4r-neighborhood interferer: not clear.
        let jammed = resolve_listener(
            &params,
            &[Point::new(0.8, 0.0), Point::new(0.0, 3.0)],
            Point::ORIGIN,
        );
        if jammed.decoded.is_some() {
            assert!(!is_clear_reception(&params, &jammed, r));
        }
        // Silence is never a clear reception.
        assert!(!is_clear_reception(&params, &ListenOutcome::SILENT, r));
    }

    #[test]
    fn clear_reception_threshold_excludes_4r_neighbors() {
        // Definition 4's claim: interference <= T_s implies no transmitter
        // within 4r. Verify the contrapositive numerically: a single
        // transmitter at distance exactly 4r produces interference > T_s.
        let params = p();
        let r = params.transmission_range() / 8.0;
        let interferer_power = params.received_power(4.0 * r);
        assert!(
            interferer_power > params.clear_threshold(),
            "a 4r-neighbor must be detectable: {} vs {}",
            interferer_power,
            params.clear_threshold()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn at_most_one_decode_and_it_is_strongest(
            raw in proptest::collection::vec((-20.0..20.0f64, -20.0..20.0f64), 1..12),
            lx in -20.0..20.0f64,
            ly in -20.0..20.0f64,
        ) {
            let params = p();
            let txs: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let l = Point::new(lx, ly);
            let out = resolve_listener(&params, &txs, l);
            if let Some(i) = out.decoded {
                // Decoded transmitter has the (weakly) strongest signal.
                let pi = params.received_power(txs[i as usize].dist(l));
                for t in &txs {
                    prop_assert!(params.received_power(t.dist(l)) <= pi + 1e-12);
                }
                // And its SINR clears the threshold.
                prop_assert!(out.sinr >= params.beta);
            }
            // Total power is the sum of individual powers.
            let sum: f64 = txs.iter().map(|t| params.received_power(t.dist(l))).sum();
            prop_assert!((out.total_power - sum).abs() < 1e-6 * (1.0 + sum));
        }

        /// The lane-wide threshold is the scalar one, lane by lane and bit
        /// by bit: random powers, totals and environmental interference
        /// under random `β` and `N`, a lane on the threshold exactly (`β`
        /// in eighths, `N` a power of two and the interference a multiple
        /// of it, so `best_pow / (N + interference)` rounds nowhere), a
        /// lone transmitter (interference exactly zero), a lane that met
        /// no candidate (`best_pow = −∞`), and a chunk shorter than a lane.
        #[test]
        fn decide_lanes_is_decide_lane_by_lane(
            beta8 in 8u32..32,
            noise_exp in -3i32..4,
            lanes in proptest::collection::vec(
                (0u8..5, 1e-6..1e6f64, 0.0..1e6f64, 0.0..10.0f64, 0u32..5, 0u32..1000),
                LANE_WIDTH,
            ),
            len in 1usize..=LANE_WIDTH,
        ) {
            let mut params = p();
            params.beta = f64::from(beta8) / 8.0;
            params.noise = 2f64.powi(noise_exp);
            let mut best = [0.0; LANE_WIDTH];
            let mut best_pow = [0.0; LANE_WIDTH];
            let mut total = [0.0; LANE_WIDTH];
            for (l, &(kind, pow, others, extra, m, id)) in lanes.iter().enumerate() {
                best[l] = f64::from(id);
                (best_pow[l], total[l]) = match kind {
                    // On the threshold: SINR == β with every step exact.
                    0 => {
                        let m = f64::from(m);
                        let pow = params.beta * params.noise * (1.0 + m);
                        (pow, pow + m * params.noise)
                    }
                    // A lone transmitter, no environment: zero interference.
                    1 => (pow, pow),
                    // No near-field candidate; the total is the far estimate.
                    2 => (f64::NEG_INFINITY, extra + others),
                    _ => (pow, extra + pow + others),
                };
            }
            let (best, best_pow, total) = std::hint::black_box((best, best_pow, total));
            let mut out = vec![ListenOutcome::SILENT; len];
            decide_lanes(&params, best, best_pow, total, &mut out);
            for (l, got) in out.iter().enumerate() {
                let want = decide(&params, best[l] as usize, best_pow[l], total[l]);
                prop_assert_eq!(got.decoded, want.decoded);
                prop_assert_eq!(got.signal.to_bits(), want.signal.to_bits());
                prop_assert_eq!(got.sinr.to_bits(), want.sinr.to_bits());
                prop_assert_eq!(got.total_power.to_bits(), want.total_power.to_bits());
                match lanes[l].0 {
                    0 => prop_assert_eq!(got.sinr.to_bits(), params.beta.to_bits()),
                    2 => prop_assert_eq!((got.decoded, got.sinr), (None, 0.0)),
                    _ => {}
                }
            }
        }

        #[test]
        fn adding_interferer_never_creates_decode(
            d in 0.5..7.5f64,
            ix in -20.0..20.0f64,
            iy in -20.0..20.0f64,
        ) {
            let params = p();
            let sender = Point::new(d, 0.0);
            let jam = Point::new(ix, iy);
            let alone = resolve_listener(&params, &[sender], Point::ORIGIN);
            let jammed = resolve_listener(&params, &[sender, jam], Point::ORIGIN);
            // If the pair decodes the original sender, it surely decoded alone.
            if jammed.decoded == Some(0) {
                prop_assert_eq!(alone.decoded, Some(0));
                prop_assert!(jammed.sinr <= alone.sinr + 1e-9);
            }
        }
    }
}
