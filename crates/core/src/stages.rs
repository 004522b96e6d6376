//! The §5 construction pipeline, decomposed into reusable stages.
//!
//! [`build_structure`](crate::structure::build_structure) used to be a
//! monolith; these stage functions are its pieces, factored out so the
//! structure *lifecycle* layer ([`crate::maintain`]) can re-invoke them
//! locally — a dominating-set patch among orphaned nodes, a recoloring
//! patch around fresh dominators, a reporter re-election confined to the
//! clusters a repair touched — instead of rebuilding from scratch.
//!
//! Every stage accepts a liveness mask (`alive`): nodes that are not part
//! of the network (crashed, or not yet joined) are absent from the stage
//! engines — they neither transmit, listen, nor observe — exactly as the
//! engine's own [`FaultPlan`] semantics dictate. `alive = None` means
//! everyone participates, and each stage is then bit-identical to the
//! corresponding block of the original monolithic build.
//!
//! All stages report their slot count, so repair cost is measured in the
//! same currency as construction cost.

use crate::config::AlgoConfig;
use crate::csa::{CsaConfig, CsaProtocol, CsaRole};
use crate::csa_small::run_csa_small;
use crate::dominate::{self, DominateConfig, DominateProtocol, DominatingOutcome};
use crate::greedy_color::{ClaimCfg, GreedyColor};
use crate::knowledge::{NodeRecord, Role};
use crate::reporter::{elect_per_channel, ElectionSeat, Spread};
use crate::schedule::Tdma;
use crate::structure::{all_done, BuildReport, NetworkEnv, StructureConfig, SubstrateMode};
use mca_radio::{Channel, FaultPlan, NodeId};
use std::collections::{HashMap, HashSet};

/// A fault plan that keeps every node not marked alive out of a stage
/// engine (crash-stopped from slot 0). `alive = None` is the trivial plan.
pub fn absence_plan(alive: Option<&[bool]>) -> FaultPlan {
    alive.map_or_else(FaultPlan::none, FaultPlan::from_alive_mask)
}

/// Whether node `i` is live under an optional mask.
pub(crate) fn is_live(alive: Option<&[bool]>, i: usize) -> bool {
    alive.is_none_or(|a| a[i])
}

/// Phase 1 — the dominating-set substrate over the nodes with
/// `active[i] = true` (everyone else is absent). For the full build
/// `active` is the liveness mask; for a repair patch it is the uncovered
/// orphans, which elect dominators among themselves only.
pub fn dominating_stage(
    env: &NetworkEnv,
    cfg: &StructureConfig,
    active: &[bool],
    seed: u64,
) -> DominatingOutcome {
    assert_eq!(
        active.len(),
        env.len(),
        "one participation flag per node required"
    );
    dominating_set(
        env,
        &cfg.algo,
        cfg.substrate,
        cfg.cluster_radius,
        Some(active),
        seed,
        0xD011,
    )
}

/// A constant-density `radius`-dominating set over the `active` nodes
/// (all of them for `None`), centrally or by the distributed protocol,
/// whose engine seed is `seed` derived with `tag`. The build's stage and
/// the §4 ruling set's phase 1 ([`crate::mis::ruling_set`]) both run it.
pub(crate) fn dominating_set(
    env: &NetworkEnv,
    algo: &AlgoConfig,
    substrate: SubstrateMode,
    radius: f64,
    active: Option<&[bool]>,
    seed: u64,
    tag: u64,
) -> DominatingOutcome {
    match substrate {
        SubstrateMode::Oracle => dominate::oracle_masked(&env.positions, radius, seed, active),
        SubstrateMode::Distributed => {
            let mut dc = DominateConfig::from_algo(algo);
            dc.radius = radius;
            dc.busy_threshold = algo.node_params().received_power(2.0 * radius);
            let protocols: Vec<DominateProtocol> = (0..env.len())
                .map(|i| DominateProtocol::new(NodeId(i as u32), dc))
                .collect();
            let (out, slots) = env.run_phase(
                protocols,
                active,
                mca_radio::rng::derive_seed(seed, tag),
                dc.rounds * dominate::SLOTS_PER_ROUND as u64 + 3,
                all_done,
            );
            dominate::collect(&out, slots)
        }
    }
}

/// Outcome of the cluster-size-approximation stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CsaStageOutcome {
    /// Slots consumed.
    pub slots: u64,
    /// Estimates back-filled from the cluster's coordinator (missed notify
    /// receptions; quality metric).
    pub estimate_fills: usize,
}

/// Phase 4 — cluster-size approximation (Lemma 14 dispatch between the
/// large-`Δ̂` single-channel and small-`Δ̂` multi-channel variants).
/// Writes `cluster_size_est` and `cluster_channels` into `records` for
/// every live clustered node.
pub fn csa_stage(
    env: &NetworkEnv,
    cfg: &StructureConfig,
    records: &mut [NodeRecord],
    phi: u16,
    seed: u64,
    alive: Option<&[bool]>,
) -> CsaStageOutcome {
    let n = env.len();
    assert_eq!(records.len(), n);
    let algo = &cfg.algo;
    let mut out = CsaStageOutcome::default();
    if algo.channels > 1 && algo.csa_small_applies(cfg.delta_hat()) {
        let seats: Vec<Option<ElectionSeat>> = (0..n)
            .map(|i| {
                if !is_live(alive, i) {
                    return None;
                }
                match (records[i].cluster, records[i].cluster_color) {
                    (Some(c), Some(col)) => Some(ElectionSeat {
                        cluster: c,
                        color: col,
                        size_est: cfg.delta_hat(),
                        is_dominator: records[i].role.is_dominator(),
                    }),
                    _ => None,
                }
            })
            .collect();
        let small = run_csa_small(
            env,
            &seats,
            algo,
            phi,
            cfg.cluster_radius,
            cfg.delta_hat(),
            mca_radio::rng::derive_seed(seed, 0xC5B),
        );
        out.slots = small.total_slots();
        // Back-fill members that missed the broadcast from their dominator.
        for (i, rec) in records.iter_mut().enumerate() {
            if !is_live(alive, i) {
                continue;
            }
            let Some(c) = rec.cluster else {
                continue;
            };
            let est = match small.estimate[i] {
                Some(e) => e,
                None => {
                    out.estimate_fills += 1;
                    small.estimate[c.index()].unwrap_or(2)
                }
            };
            rec.cluster_size_est = Some(est.max(1));
            rec.cluster_channels = Some(algo.cluster_channels(est.max(1)));
        }
        return out;
    }
    let csa_cfg = CsaConfig {
        delta_hat: cfg.delta_hat(),
        lambda: algo.consts.lambda,
        rounds_per_phase: algo.csa_rounds_per_phase(),
        settle_threshold: algo.csa_settle_threshold(),
        channel: Channel::FIRST,
        tdma: Tdma::new(phi.max(1), 1),
    };
    let protocols: Vec<CsaProtocol> = (0..n)
        .map(|i| {
            if !is_live(alive, i) {
                return CsaProtocol::new(CsaRole::Passive, NodeId(i as u32), 0, csa_cfg);
            }
            match (records[i].role, records[i].cluster) {
                (Role::Dominator, Some(c)) => CsaProtocol::new(
                    CsaRole::Coordinator,
                    c,
                    records[i].cluster_color.unwrap_or(0),
                    csa_cfg,
                ),
                (_, Some(c)) => CsaProtocol::new(
                    CsaRole::Member,
                    c,
                    records[i].cluster_color.unwrap_or(0),
                    csa_cfg,
                ),
                _ => CsaProtocol::new(CsaRole::Passive, NodeId(i as u32), 0, csa_cfg),
            }
        })
        .collect();
    let (csa_out, slots) = env.run_phase(
        protocols,
        alive,
        mca_radio::rng::derive_seed(seed, 0xC5A),
        csa_cfg.tdma.slots_for_rounds(csa_cfg.total_rounds()) + 1,
        |_, ps| ps.iter().all(|p| p.is_satisfied()),
    );
    out.slots = slots;
    // Coordinator estimates per cluster (for back-filling members that
    // missed the notify; counted as a quality metric).
    let mut estimates: HashMap<NodeId, u64> = HashMap::new();
    for (i, p) in csa_out.iter().enumerate() {
        if let Some(est) = p.coordinator_estimate() {
            estimates.insert(NodeId(i as u32), est);
        }
    }
    for i in 0..n {
        if !is_live(alive, i) {
            continue;
        }
        let Some(c) = records[i].cluster else {
            continue;
        };
        let est = match records[i].role {
            Role::Dominator => csa_out[i].coordinator_estimate(),
            _ => csa_out[i].member_estimate(),
        };
        let est = match est {
            Some(e) => e,
            None => {
                out.estimate_fills += 1;
                // A coordinator that never settled presides over a cluster
                // too small to clear the threshold in any phase — the
                // last-phase estimate is the right order of magnitude.
                estimates
                    .get(&c)
                    .copied()
                    .unwrap_or_else(|| csa_cfg.estimate_for_phase(csa_cfg.phases() - 1))
            }
        };
        records[i].cluster_size_est = Some(est.max(1));
        records[i].cluster_channels = Some(algo.cluster_channels(est.max(1)));
    }
    out
}

/// Phase 5 — reporter election, optionally confined to the clusters in
/// `scope` (everyone else sits the election out, keeping whatever reporter
/// state they had). In-scope clusters first have their reporter state
/// cleared, then the election outcome is applied: reporter roles, channel
/// choices, and the dominator's channel-0 rescue flag. Returns the slots
/// consumed.
pub fn election_stage(
    env: &NetworkEnv,
    cfg: &StructureConfig,
    records: &mut [NodeRecord],
    phi: u16,
    scope: Option<&HashSet<NodeId>>,
    seed: u64,
    alive: Option<&[bool]>,
) -> u64 {
    let n = env.len();
    assert_eq!(records.len(), n);
    let in_scope = |c: NodeId| scope.is_none_or(|s| s.contains(&c));
    for rec in records.iter_mut() {
        let Some(c) = rec.cluster else {
            continue;
        };
        if !in_scope(c) {
            continue;
        }
        if rec.role.is_reporter() {
            rec.role = Role::Follower;
        }
        rec.channel = None;
        rec.serves_channel0 = false;
    }
    let seats: Vec<Option<ElectionSeat>> = (0..n)
        .map(|i| {
            if !is_live(alive, i) {
                return None;
            }
            let r = &records[i];
            match (r.cluster, r.cluster_color, r.cluster_size_est) {
                (Some(c), Some(col), Some(est)) if in_scope(c) => Some(ElectionSeat {
                    cluster: c,
                    color: col,
                    size_est: est,
                    is_dominator: r.role.is_dominator(),
                }),
                _ => None,
            }
        })
        .collect();
    // A scoped election only schedules the participating clusters, so the
    // TDMA palette compresses to their colors: same-color clusters stay
    // mutually separated (that is what sharing a color certifies), distinct
    // colors stay distinct, and the round length drops from `phi` to the
    // number of colors actually electing.
    let (seats, phi) = if scope.is_some() {
        let mut dense: std::collections::BTreeMap<u16, u16> = std::collections::BTreeMap::new();
        for s in seats.iter().flatten() {
            let next = dense.len() as u16;
            dense.entry(s.color).or_insert(next);
        }
        let compressed: Vec<Option<ElectionSeat>> = seats
            .into_iter()
            .map(|s| {
                s.map(|mut seat| {
                    seat.color = dense[&seat.color];
                    seat
                })
            })
            .collect();
        let phi = (dense.len() as u16).max(1);
        (compressed, phi)
    } else {
        (seats, phi)
    };
    let (algo, r_c) = (&cfg.algo, cfg.cluster_radius);
    let election = elect_per_channel(env, &seats, algo, phi, r_c, Spread::Reporters, seed);
    for (i, rec) in records.iter_mut().enumerate() {
        if seats[i].is_none() {
            continue;
        }
        rec.channel = election.channel[i];
        if election.elected[i] {
            let heap_pos = election.channel[i].map(|c| c.0 + 1).unwrap_or(1);
            rec.role = Role::Reporter { heap_pos };
        }
        if rec.role.is_dominator() && !election.heard_in[i] {
            rec.serves_channel0 = true;
        }
    }
    election.slots
}

/// A node's part in a [`color_patch_stage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColorSeat {
    /// A fresh dominator that needs a color.
    Claimant,
    /// An established dominator beaconing its committed color so claimants
    /// keep clear of the palette in force.
    Committed(u16),
    /// Not part of the patch (silent).
    Out,
}

/// Outcome of a recoloring patch.
#[derive(Debug, Clone)]
pub struct ColorPatchOutcome {
    /// Committed color per claimant (`None` for non-claimants, and for the
    /// rare claimant that failed to commit within the round budget —
    /// callers assign those a fresh unique color with
    /// [`fill_fresh_colors`]).
    pub colors: Vec<Option<u16>>,
    /// Slots consumed.
    pub slots: u64,
}

/// A local recoloring patch: `Claimant` seats run the claim-based greedy
/// coloring while `Committed` seats anchor the existing palette, so fresh
/// colors respect the `R_{ε/2}` separation against established dominators
/// without re-running the global coloring phase. The build's dominator
/// coloring ([`crate::cluster::build_clusters`]) is the same phase with every
/// dominator a claimant and nobody committed. Nodes outside `alive` are
/// absent; `tag` derives the engine seed from `seed` (`0xC0100` for the
/// build, `0xC0102` for a repair patch).
pub fn color_patch_stage(
    env: &NetworkEnv,
    cfg: &StructureConfig,
    seats: &[ColorSeat],
    alive: Option<&[bool]>,
    seed: u64,
    tag: u64,
) -> ColorPatchOutcome {
    let n = env.len();
    assert_eq!(seats.len(), n, "one color seat per node required");
    let algo = &cfg.algo;
    let node_params = algo.node_params();
    let r_sep = cfg.separation_radius();
    let claim_cfg = ClaimCfg {
        radius: r_sep,
        p: algo.density_tx_prob(),
        busy_threshold: node_params.received_power(1.5 * r_sep),
        p_committed: algo.density_tx_prob() / 2.0,
        stable_tx: 6,
        rounds: algo.announce_rounds() * 8,
        params: node_params,
    };
    let protocols: Vec<GreedyColor> = seats
        .iter()
        .enumerate()
        .map(|(i, seat)| match *seat {
            ColorSeat::Claimant => GreedyColor::new(NodeId(i as u32), claim_cfg),
            ColorSeat::Committed(c) => GreedyColor::committed(NodeId(i as u32), claim_cfg, c),
            ColorSeat::Out => GreedyColor::passive(NodeId(i as u32), claim_cfg),
        })
        .collect();
    // Run until every claimant committed, then a healing tail in which
    // residual same-color conflicts resolve via the Committed beacons.
    let tail = 2 * algo.announce_rounds();
    let mut committed_at = None;
    let (out, slots) = env.run_phase(
        protocols,
        alive,
        mca_radio::rng::derive_seed(seed, tag),
        claim_cfg.rounds,
        |slot, ps: &[GreedyColor]| {
            let claimed = |(p, s): (&GreedyColor, &ColorSeat)| {
                *s != ColorSeat::Claimant || p.color().is_some()
            };
            if committed_at.is_none() && ps.iter().zip(seats).all(claimed) {
                committed_at = Some(slot);
            }
            committed_at.is_some_and(|at| slot >= at + tail)
        },
    );
    let colors = out
        .iter()
        .zip(seats)
        .map(|(p, s)| match s {
            ColorSeat::Claimant => p.color(),
            _ => None,
        })
        .collect();
    ColorPatchOutcome { colors, slots }
}

/// Gives every claimant that failed to commit (`None` in `colors`, one
/// entry per claimant) a fresh unique color, and returns the color count
/// `φ` afterwards. Every committed color is folded into `floor` (the
/// current `φ`) first, so a fresh color never repeats one committed in the
/// same patch; the uncommitted then take the next colors in order.
pub fn fill_fresh_colors(colors: &mut [Option<u16>], floor: u16) -> u16 {
    let mut phi = colors
        .iter()
        .flatten()
        .fold(floor, |phi, &c| phi.max(c + 1));
    for color in colors.iter_mut().filter(|c| c.is_none()) {
        *color = Some(phi);
        phi += 1;
    }
    phi
}

/// Recounts the structure-level tallies of `report` from finished
/// `records`: the clusters, the live nodes without one, and the channel
/// fill — `channels_filled` counts cluster channels with an elected
/// reporter, `channels_total` the electable ones (`min(f_v, members)` per
/// cluster; a channel can only be filled if the cluster has a member to
/// elect). The build and every repair epoch count through it.
pub fn recount(report: &mut BuildReport, records: &[NodeRecord], alive: Option<&[bool]>) {
    let live = |i: usize| is_live(alive, i);
    report.clusters = records.iter().filter(|r| r.role.is_dominator()).count();
    report.unclustered = (0..records.len())
        .filter(|&i| live(i) && records[i].cluster.is_none())
        .count();
    let mut filled: HashSet<(NodeId, u16)> = HashSet::new();
    for rec in records.iter().filter(|r| r.role.is_reporter()) {
        if let (Some(c), Some(ch)) = (rec.cluster, rec.channel) {
            filled.insert((c, ch.0));
        }
    }
    let mut member_count: HashMap<NodeId, usize> = HashMap::new();
    for r in records.iter() {
        if let (Some(c), false) = (r.cluster, r.role.is_dominator()) {
            *member_count.entry(c).or_default() += 1;
        }
    }
    report.channels_filled = filled.len();
    report.channels_total = records
        .iter()
        .filter(|r| r.role.is_dominator())
        .map(|r| {
            let fv = r.cluster_channels.unwrap_or(1) as usize;
            let members = member_count.get(&r.id).copied().unwrap_or(0);
            fv.min(members)
        })
        .sum();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlgoConfig;
    use mca_geom::{Deployment, Point};
    use mca_sinr::SinrParams;
    use rand::{rngs::SmallRng, SeedableRng};

    fn env_and_cfg(n: usize, side: f64, seed: u64) -> (NetworkEnv, StructureConfig) {
        let params = SinrParams::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let deploy = Deployment::uniform(n, side, &mut rng);
        let env = NetworkEnv::new(params, &deploy);
        let algo = AlgoConfig::practical(4, &params, n);
        let mut cfg = StructureConfig::new(algo, seed);
        cfg.substrate = SubstrateMode::Oracle;
        (env, cfg)
    }

    #[test]
    fn absence_plan_matches_mask() {
        let plan = absence_plan(Some(&[true, false, true]));
        assert!(!plan.is_absent(0, 100));
        assert!(plan.is_absent(1, 0));
        assert!(!plan.is_absent(2, 0));
        assert!(absence_plan(None).is_trivial());
    }

    #[test]
    fn dominating_stage_respects_participation() {
        let (env, cfg) = env_and_cfg(80, 9.0, 3);
        let mut active = vec![true; 80];
        active[..40].fill(false);
        let out = dominating_stage(&env, &cfg, &active, 3);
        for i in 0..40 {
            assert!(!out.is_dominator[i], "inactive node {i} became dominator");
            assert!(out.dominator_of[i].is_none());
        }
        // Active half is fully covered.
        for i in 40..80 {
            assert!(out.dominator_of[i].is_some(), "active node {i} uncovered");
        }
    }

    #[test]
    fn color_patch_respects_committed_anchors() {
        // A claimant between two committed anchors (colors 0 and 1) within
        // r_sep must pick a third color.
        let params = SinrParams::default();
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(1.5, 0.0),
        ];
        let env = NetworkEnv { params, positions };
        let algo = AlgoConfig::practical(4, &params, 16);
        let cfg = StructureConfig::new(algo, 5);
        let seats = vec![
            ColorSeat::Committed(0),
            ColorSeat::Committed(1),
            ColorSeat::Claimant,
        ];
        let out = color_patch_stage(&env, &cfg, &seats, None, 9, 0xC0102);
        assert!(out.slots > 0, "the patch must consume slots");
        assert_eq!(out.colors[0], None, "anchors report no new color");
        let c = out.colors[2].expect("claimant must commit");
        assert!(c >= 2, "claimant took an anchored color: {c}");
    }

    #[test]
    fn recount_agrees_with_the_audit() {
        let (env, cfg) = env_and_cfg(150, 10.0, 11);
        let mut alive = vec![true; 150];
        alive[..10].fill(false);
        let s = crate::structure::build_structure_masked(&env, &cfg, Some(&alive));
        let audit =
            crate::validate::audit_structure_masked(&env, &s, cfg.cluster_radius, Some(&alive));
        assert_eq!(s.report.clusters, audit.clusters);
        assert_eq!(s.report.unclustered, audit.unclustered);
        assert!(s.report.channels_filled <= s.report.channels_total);
        let mut again = s.report;
        recount(&mut again, &s.records, Some(&alive));
        assert_eq!(again, s.report, "recounting finished records is idempotent");
    }

    #[test]
    fn fresh_colors_clear_every_color_claimed_in_the_patch() {
        // One claimant commits the current φ = 5, one fails to commit: the
        // fresh color must clear 5, not repeat it.
        let mut colors = [Some(5), None, Some(2)];
        assert_eq!(fill_fresh_colors(&mut colors, 5), 7);
        assert_eq!(colors, [Some(5), Some(6), Some(2)]);
        // Below the floor nothing moves but the uncommitted, in order.
        let mut colors = [None, Some(1), None];
        assert_eq!(fill_fresh_colors(&mut colors, 4), 6);
        assert_eq!(colors, [Some(4), Some(1), Some(5)]);
        // The build's cap fallback: floor 0, nothing claimed.
        let mut colors: [Option<u16>; 0] = [];
        assert_eq!(fill_fresh_colors(&mut colors, 0), 0);
    }
}
