//! Network-wide ruling sets and maximal independent sets (paper §4).
//!
//! The §4 algorithm is **two-phase**: first a constant-density
//! `r`-dominating set (Scheideler et al. \[28\], Lemma 7), then the
//! HELLO/ACK/IN ruling-set protocol *among the dominators* — the constant
//! density is what makes the paper's `1/(2µ)` transmission probability and
//! `γ·ln n` round budget sufficient (Lemma 6). The result is an
//! `(r, 2r)`-ruling set of all nodes: members are `r`-independent and
//! every node has a member within `2r`.
//!
//! Two entry points:
//!
//! * [`ruling_set`] — the faithful two-phase pipeline; works at **any**
//!   input density (the first phase normalizes it), `O(log n)` rounds.
//! * [`maximal_independent_set`] — phase two alone over all nodes, which
//!   yields a *maximal* `r`-independent set (`r`-dominating, i.e. a true
//!   MIS of the `r`-disk graph). Lemma 6's analysis presumes
//!   constant-density participants; at high density the unconditional
//!   timeout join can violate independence — measured in `EXPERIMENTS.md`
//!   E15, and exactly why the paper runs phase one first.
//!
//! The paper's related work compares against MIS in multichannel radio
//! networks (reference \[4\], Daum et al., PODC 2013); this module is the
//! SINR-model counterpart built from the paper's own toolbox.

use crate::config::AlgoConfig;
use crate::ruling::{Budget, Election, RulingConfig, RulingOutcome, RulingSet, TimeoutRule};
use crate::stages;
use crate::structure::{all_done, NetworkEnv, SubstrateMode};
use mca_radio::NodeId;

/// The ruling phase's rounds per `⌈log₂ n̂⌉` ([`Budget::Ramp`]): the ramp
/// starts at the network-wide floor `λ/n̂` and takes `Θ(log n̂)` rounds to
/// reach the local contention (calibrated on E5 and E15).
pub(crate) const ROUNDS_PER_LOG2: u64 = 48;

/// Configuration of a ruling-set / MIS computation. The ruling phase
/// always runs the paper's [`TimeoutRule::Join`] (required for
/// maximality) over a [`Budget::Ramp`] budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MisConfig {
    /// Independence radius `r` (must be `≤ R_T/2`, the §4 clear-reception
    /// precondition).
    pub radius: f64,
    /// How the phase-one dominating set is obtained ([`ruling_set`] only).
    pub substrate: SubstrateMode,
}

impl MisConfig {
    /// The paper's §4 settings at radius `r`.
    pub fn new(radius: f64) -> Self {
        MisConfig {
            radius,
            substrate: SubstrateMode::Distributed,
        }
    }
}

/// Result of a ruling-set / MIS computation.
#[derive(Debug, Clone)]
pub struct MisOutcome {
    /// Independence radius `r`.
    pub radius: f64,
    /// Domination radius the construction guarantees (`r` for the direct
    /// MIS, `2r` for the two-phase ruling set).
    pub domination_radius: f64,
    /// Per-node membership.
    pub in_set: Vec<bool>,
    /// Per-node terminal outcome of the ruling phase (participants only;
    /// phase-one dominatees report `Dominated`).
    pub outcomes: Vec<RulingOutcome>,
    /// Ruling-phase round in which each participant halted.
    pub halt_round: Vec<Option<u64>>,
    /// Phase-one (dominating set) slots; 0 for the direct MIS.
    pub dominate_slots: u64,
    /// Phase-two (ruling set) slots.
    pub ruling_slots: u64,
}

impl MisOutcome {
    /// Total slots across phases.
    pub fn total_slots(&self) -> u64 {
        self.dominate_slots + self.ruling_slots
    }

    /// Ids of the set members.
    pub fn members(&self) -> Vec<NodeId> {
        self.in_set
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| m.then_some(NodeId(i as u32)))
            .collect()
    }

    /// Number of `r`-independence violations (member pairs within `r`),
    /// given the ground-truth positions. Zero w.h.p. per Lemma 6.
    pub fn independence_violations(&self, positions: &[mca_geom::Point]) -> usize {
        let members = self.members();
        let mut v = 0;
        for (a, &i) in members.iter().enumerate() {
            for &j in &members[a + 1..] {
                if positions[i.index()].dist(positions[j.index()]) <= self.radius {
                    v += 1;
                }
            }
        }
        v
    }

    /// Number of nodes with no member within [`MisOutcome::domination_radius`]
    /// (coverage holes), given the ground-truth positions.
    pub fn domination_holes(&self, positions: &[mca_geom::Point]) -> usize {
        let members = self.members();
        positions
            .iter()
            .enumerate()
            .filter(|&(i, p)| {
                !self.in_set[i]
                    && !members
                        .iter()
                        .any(|m| positions[m.index()].dist(*p) <= self.domination_radius)
            })
            .count()
    }
}

fn check_radius(algo: &AlgoConfig, radius: f64) -> f64 {
    let r_max = algo.node_params().transmission_range() / 2.0;
    assert!(
        radius > 0.0 && radius <= r_max,
        "radius {radius} outside (0, R_T/2 = {r_max}]"
    );
    r_max
}

/// Runs the ruling phase over `participants` (phase two of §4).
fn run_ruling_phase(
    env: &NetworkEnv,
    algo: &AlgoConfig,
    cfg: &MisConfig,
    participants: &[bool],
    seed: u64,
) -> (Vec<RulingSet>, u64) {
    let n = env.len();
    // Any of the `n̂` participants may contend: the ramp's floor is `λ/n̂`.
    let rcfg = RulingConfig::election(
        algo,
        Election::network(
            cfg.radius,
            algo.know.n_bound as u64,
            Budget::Ramp {
                per_log2: ROUNDS_PER_LOG2,
            },
            TimeoutRule::Join,
        ),
    );
    let protocols: Vec<RulingSet> = (0..n)
        .map(|i| {
            if participants[i] {
                RulingSet::new(NodeId(i as u32), rcfg)
            } else {
                RulingSet::passive(NodeId(i as u32), rcfg)
            }
        })
        .collect();
    env.run_phase(
        protocols,
        None,
        mca_radio::rng::derive_seed(seed, 0x3315),
        rcfg.slot_cap(),
        all_done,
    )
}

/// Computes an `(r, 2r)`-ruling set with the paper's full two-phase §4
/// algorithm: a constant-density `r`-dominating set, then the ruling
/// protocol among the dominators. `O(log n)` rounds at any input density.
///
/// # Examples
///
/// ```no_run
/// use mca_core::mis::{ruling_set, MisConfig};
/// use mca_core::{AlgoConfig, NetworkEnv};
/// use mca_geom::Deployment;
/// use mca_sinr::SinrParams;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let params = SinrParams::default();
/// let mut rng = SmallRng::seed_from_u64(1);
/// let deploy = Deployment::uniform(400, 15.0, &mut rng);
/// let env = NetworkEnv::new(params, &deploy);
/// let algo = AlgoConfig::practical(4, &params, 400);
/// let r = params.transmission_range() / 4.0;
/// let out = ruling_set(&env, &algo, MisConfig::new(r), 7);
/// assert_eq!(out.independence_violations(&env.positions), 0);
/// ```
///
/// # Panics
///
/// Panics if the network is empty or `cfg.radius` exceeds `R_T/2`.
pub fn ruling_set(env: &NetworkEnv, algo: &AlgoConfig, cfg: MisConfig, seed: u64) -> MisOutcome {
    let n = env.len();
    assert!(n > 0, "cannot compute a ruling set over an empty network");
    check_radius(algo, cfg.radius);

    // --- Phase 1: constant-density r-dominating set (Lemma 7). ---
    let phase1 = stages::dominating_set(env, algo, cfg.substrate, cfg.radius, None, seed, 0x3314);

    // --- Phase 2: ruling set among the (constant-density) dominators. ---
    let (out, ruling_slots) = run_ruling_phase(env, algo, &cfg, &phase1.is_dominator, seed);

    MisOutcome {
        radius: cfg.radius,
        domination_radius: 2.0 * cfg.radius,
        in_set: out.iter().map(|p| p.in_set()).collect(),
        outcomes: out.iter().map(|p| p.outcome()).collect(),
        halt_round: out.iter().map(|p| p.halt_round()).collect(),
        dominate_slots: phase1.slots,
        ruling_slots,
    }
}

/// Computes a maximal `r`-independent set over **all** nodes (phase two of
/// §4 network-wide): members are `r`-independent w.h.p. and `r`-dominate
/// every node — an MIS of the `r`-disk graph.
///
/// Lemma 6's guarantee assumes constant-density participants; on dense
/// inputs prefer [`ruling_set`] (this function must ramp probabilities up
/// from `λ/n̂` and pays a longer default budget, and its timeout join can
/// still collide at very high density — see `EXPERIMENTS.md` E15).
///
/// # Panics
///
/// Panics if the network is empty or `cfg.radius` exceeds `R_T/2`.
pub fn maximal_independent_set(
    env: &NetworkEnv,
    algo: &AlgoConfig,
    cfg: MisConfig,
    seed: u64,
) -> MisOutcome {
    let n = env.len();
    assert!(n > 0, "cannot compute an MIS over an empty network");
    check_radius(algo, cfg.radius);
    let participants = vec![true; n];
    let (out, ruling_slots) = run_ruling_phase(env, algo, &cfg, &participants, seed);

    MisOutcome {
        radius: cfg.radius,
        domination_radius: cfg.radius,
        in_set: out.iter().map(|p| p.in_set()).collect(),
        outcomes: out.iter().map(|p| p.outcome()).collect(),
        halt_round: out.iter().map(|p| p.halt_round()).collect(),
        dominate_slots: 0,
        ruling_slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_geom::Deployment;
    use mca_sinr::SinrParams;
    use rand::{rngs::SmallRng, SeedableRng};

    fn env_of(n: usize, side: f64, seed: u64) -> (NetworkEnv, AlgoConfig) {
        let params = SinrParams::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let deploy = Deployment::uniform(n, side, &mut rng);
        let env = NetworkEnv::new(params, &deploy);
        let algo = AlgoConfig::practical(4, &params, n);
        (env, algo)
    }

    #[test]
    fn mis_is_independent_and_dominating() {
        let (env, algo) = env_of(300, 15.0, 42);
        let r = env.params.transmission_range() / 4.0;
        let out = maximal_independent_set(&env, &algo, MisConfig::new(r), 8);
        assert_eq!(
            out.independence_violations(&env.positions),
            0,
            "members within r of each other"
        );
        assert_eq!(
            out.domination_holes(&env.positions),
            0,
            "node with no member within r"
        );
        assert!(!out.members().is_empty());
    }

    #[test]
    fn two_phase_ruling_set_handles_high_density() {
        // 800 nodes crowded into a small field: the direct MIS regime the
        // docs warn about; the two-phase pipeline must stay sound.
        let (env, algo) = env_of(800, 10.0, 43);
        let r = env.params.transmission_range() / 4.0;
        let out = ruling_set(&env, &algo, MisConfig::new(r), 13);
        assert_eq!(out.independence_violations(&env.positions), 0);
        assert_eq!(
            out.domination_holes(&env.positions),
            0,
            "2r-domination must cover everyone"
        );
        assert!(out.dominate_slots > 0, "phase one must have run");
    }

    #[test]
    fn oracle_substrate_skips_phase_one_slots() {
        let (env, algo) = env_of(150, 12.0, 44);
        let r = env.params.transmission_range() / 4.0;
        let mut cfg = MisConfig::new(r);
        cfg.substrate = SubstrateMode::Oracle;
        let out = ruling_set(&env, &algo, cfg, 13);
        assert_eq!(out.dominate_slots, 0);
        assert_eq!(out.independence_violations(&env.positions), 0);
        assert_eq!(out.domination_holes(&env.positions), 0);
    }

    #[test]
    fn singleton_network_elects_itself() {
        let (env, algo) = env_of(1, 1.0, 3);
        let r = env.params.transmission_range() / 4.0;
        let out = maximal_independent_set(&env, &algo, MisConfig::new(r), 1);
        assert_eq!(out.members(), vec![NodeId(0)]);
    }

    #[test]
    fn sparse_network_all_join() {
        // Nodes farther than r apart: all are independent, all must join.
        let params = SinrParams::default();
        let r = params.transmission_range() / 4.0;
        let positions: Vec<mca_geom::Point> = (0..10)
            .map(|i| mca_geom::Point::new(i as f64 * (3.0 * r), 0.0))
            .collect();
        let env = NetworkEnv { params, positions };
        let algo = AlgoConfig::practical(2, &params, 10);
        let out = maximal_independent_set(&env, &algo, MisConfig::new(r), 5);
        assert_eq!(out.members().len(), 10, "isolated nodes must all join");
        assert_eq!(out.independence_violations(&env.positions), 0);
    }

    #[test]
    #[should_panic(expected = "outside (0, R_T/2")]
    fn radius_above_half_range_rejected() {
        let (env, algo) = env_of(10, 5.0, 1);
        let r = env.params.transmission_range(); // too large
        let _ = maximal_independent_set(&env, &algo, MisConfig::new(r), 1);
    }
}
