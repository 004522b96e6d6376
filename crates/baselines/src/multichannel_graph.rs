//! Graph-model multichannel baseline (Daum et al. \[4\]-flavored).
//!
//! The paper's related work compares against multichannel algorithms in
//! *graph-based* interference models, where a listener receives iff
//! **exactly one** neighbor (within `R_ε`) transmits on its channel —
//! no SINR, no far-field interference, no capture. This module provides a
//! miniature graph-model simulator plus a channel-hashed flood-combine
//! aggregation on it, so experiment T1 can report how the model choice
//! changes the picture.

use mca_geom::Point;
use mca_radio::rng::derive_rng;
use rand::Rng;

/// Outcome of a graph-model run.
#[derive(Debug, Clone)]
pub struct GraphModelOutcome {
    /// Per-node final value.
    pub values: Vec<i64>,
    /// Slots until every node held the global max (or the cap).
    pub slots: u64,
}

/// Flood-combine max-aggregation in the graph model with `channels`
/// channels: each slot, every node hops to a random channel and transmits
/// its current value with probability `q`; listeners receive iff exactly
/// one transmitting neighbor chose their channel.
pub fn run_graph_flood(
    positions: &[Point],
    radius: f64,
    inputs: &[i64],
    channels: u16,
    q: f64,
    max_slots: u64,
    seed: u64,
) -> GraphModelOutcome {
    assert_eq!(positions.len(), inputs.len());
    assert!(channels >= 1 && q > 0.0 && q <= 1.0);
    assert!(
        radius.is_finite() && radius > 0.0,
        "radius must be positive"
    );
    let n = positions.len();
    let r_sq = radius * radius;
    let mut values = inputs.to_vec();
    let expect = *inputs.iter().max().unwrap_or(&0);
    let mut missing = values.iter().filter(|&&v| v != expect).count();
    let mut rng = derive_rng(seed, 0x6AF);

    // Per slot: the listeners with their channels, and the transmitters
    // bucketed by channel. A transmitter's value cannot change within its
    // slot (only listeners update), so listeners read `values` directly.
    let mut listeners: Vec<(usize, u16)> = Vec::with_capacity(n);
    let mut senders: Vec<Vec<usize>> = vec![Vec::new(); channels as usize];
    for slot in 0..max_slots {
        if missing == 0 {
            return GraphModelOutcome {
                values,
                slots: slot,
            };
        }
        listeners.clear();
        senders.iter_mut().for_each(Vec::clear);
        for i in 0..n {
            let ch = rng.gen_range(0..channels);
            if rng.gen_bool(q) {
                senders[ch as usize].push(i);
            } else {
                listeners.push((i, ch));
            }
        }
        // Graph-model resolution: exactly one transmitting neighbor (within
        // `radius`, the communication graph's predicate) on the listened
        // channel delivers.
        for &(i, ch) in &listeners {
            let mut near = senders[ch as usize]
                .iter()
                .filter(|&&j| positions[j].dist_sq(positions[i]) <= r_sq);
            if let (Some(&j), None) = (near.next(), near.next()) {
                if values[i] != expect && values[j] == expect {
                    missing -= 1;
                }
                values[i] = values[i].max(values[j]);
            }
        }
    }
    GraphModelOutcome {
        values,
        slots: max_slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_geom::Deployment;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn graph_flood_converges() {
        let mut rng = SmallRng::seed_from_u64(5);
        let d = Deployment::uniform(100, 12.0, &mut rng);
        let inputs: Vec<i64> = (0..100).map(|i| i as i64).collect();
        let out = run_graph_flood(d.points(), 4.0, &inputs, 4, 0.2, 20_000, 3);
        assert!(out.values.iter().all(|&v| v == 99), "flood must converge");
        assert!(out.slots < 20_000);
    }

    #[test]
    fn more_channels_reduce_collisions_in_dense_graphs() {
        let mut rng = SmallRng::seed_from_u64(7);
        let d = Deployment::uniform(200, 5.0, &mut rng); // dense: big cliques
        let inputs: Vec<i64> = (0..200).map(|i| i as i64).collect();
        let one = run_graph_flood(d.points(), 4.0, &inputs, 1, 0.2, 200_000, 3).slots;
        let eight = run_graph_flood(d.points(), 4.0, &inputs, 8, 0.2, 200_000, 3).slots;
        assert!(
            eight < one,
            "8 channels ({eight}) should beat 1 channel ({one}) in dense graphs"
        );
    }

    #[test]
    fn already_converged_costs_zero() {
        let d = Deployment::line(5, 3.0);
        let inputs = vec![7i64; 5];
        let out = run_graph_flood(d.points(), 3.5, &inputs, 2, 0.3, 100, 1);
        assert_eq!(out.slots, 0);
    }
}
