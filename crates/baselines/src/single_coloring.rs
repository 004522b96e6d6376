//! Single-channel node coloring baseline (`O(Δ·log n)`-flavored).
//!
//! The comparison point for Theorem 24: repeatedly extract an
//! `R_ε`-independent set with the §4 ruling set on one channel and give
//! phase `i`'s set the color `i` (Derbel–Talbi / Moscibroda–Wattenhofer
//! style). Same-color nodes are non-adjacent by construction, so the
//! coloring is proper on the communication graph; the number of phases —
//! and hence the round count — grows linearly with `Δ`.

use mca_core::ruling::{self, ProbPolicy, RulingConfig, RulingSet};
use mca_core::structure::{all_done, NetworkEnv};
use mca_core::{AlgoConfig, Tdma};
use mca_geom::Point;
use mca_radio::{Channel, NodeId};
use mca_sinr::SinrParams;

/// Outcome of the baseline coloring.
#[derive(Debug, Clone)]
pub struct ColoringBaselineOutcome {
    /// Color per node.
    pub colors: Vec<Option<u32>>,
    /// Total slots.
    pub slots: u64,
    /// Phases (≈ colors) used.
    pub phases: u32,
}

impl ColoringBaselineOutcome {
    /// Number of distinct colors.
    pub fn palette_size(&self) -> usize {
        let mut v: Vec<u32> = self.colors.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v.len()
    }
}

/// Runs the single-channel baseline coloring.
///
/// `max_phases` caps the phase loop (set it to a small multiple of `Δ̂`);
/// leftover nodes get fresh unique colors.
pub fn run_single_coloring(
    params: &SinrParams,
    positions: &[Point],
    algo: &AlgoConfig,
    max_phases: u32,
    seed: u64,
) -> ColoringBaselineOutcome {
    let n = positions.len();
    let env = NetworkEnv {
        params: *params,
        positions: positions.to_vec(),
    };
    let node_params = algo.node_params();
    // r must satisfy the ruling set's r <= R_T/2; R_eps does at eps = 1/2.
    let r = node_params
        .r_eps()
        .min(node_params.transmission_range() / 2.0);
    let mut colors: Vec<Option<u32>> = vec![None; n];
    let mut uncolored: Vec<usize> = (0..n).collect();
    let mut slots = 0u64;
    let mut phase = 0u32;
    while !uncolored.is_empty() && phase < max_phases {
        let rcfg = RulingConfig {
            radius: r,
            prob: ProbPolicy::Adaptive {
                start: (algo.consts.lambda / algo.know.n_bound.max(2) as f64).min(0.25),
                busy_threshold: node_params.clear_threshold_for(r),
            },
            p_cap: algo.consts.p_cap,
            rounds: algo.ruling_rounds(),
            channel: Channel::FIRST,
            group: None,
            tdma: Tdma::trivial(ruling::SLOTS_PER_ROUND),
            color: 0,
            params: node_params,
            timeout_join: ruling::TimeoutRule::JoinIfQuiet,
        };
        let protocols: Vec<RulingSet> = (0..n)
            .map(|i| {
                if colors[i].is_none() {
                    RulingSet::new(NodeId(i as u32), rcfg)
                } else {
                    RulingSet::passive(NodeId(i as u32), rcfg)
                }
            })
            .collect();
        let (out, phase_slots) = env.run_phase(
            protocols,
            None,
            mca_radio::rng::derive_seed(seed, 0xB_C010 + phase as u64),
            rcfg.tdma.slots_for_rounds(rcfg.rounds) + 3,
            all_done,
        );
        slots += phase_slots;
        uncolored.retain(|&i| {
            if out[i].in_set() {
                colors[i] = Some(phase);
                false
            } else {
                true
            }
        });
        phase += 1;
    }
    // Fresh unique colors for leftovers (correctness preserved).
    let next = colors.iter().flatten().copied().max().map_or(0, |c| c + 1);
    let mut fresh = next..;
    for slot in colors.iter_mut().filter(|c| c.is_none()) {
        *slot = fresh.next();
    }
    ColoringBaselineOutcome {
        colors,
        slots,
        phases: phase,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_geom::{CommGraph, Deployment};
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn baseline_coloring_is_proper() {
        let params = SinrParams::default();
        let mut rng = SmallRng::seed_from_u64(11);
        let d = Deployment::uniform(120, 12.0, &mut rng);
        let algo = AlgoConfig::practical(1, &params, 120);
        let out = run_single_coloring(&params, d.points(), &algo, 256, 5);
        let colors: Vec<u32> = out.colors.iter().map(|c| c.unwrap()).collect();
        // Proper at the ruling-set radius (min(R_eps, R_T/2) = 4 here).
        let g = CommGraph::build(d.points(), 4.0);
        assert_eq!(g.coloring_violation(&colors), None);
    }

    #[test]
    fn denser_needs_more_phases() {
        let params = SinrParams::default();
        let run = |n: usize, side: f64| {
            let mut rng = SmallRng::seed_from_u64(13);
            let d = Deployment::uniform(n, side, &mut rng);
            let algo = AlgoConfig::practical(1, &params, n);
            run_single_coloring(&params, d.points(), &algo, 512, 9).phases
        };
        let sparse = run(60, 30.0);
        let dense = run(120, 6.0);
        assert!(
            dense > sparse,
            "dense ({dense} phases) should exceed sparse ({sparse})"
        );
    }
}
