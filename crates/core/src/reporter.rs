//! Reporter election (paper §5.2.2, Lemma 15).
//!
//! Every cluster member knows the CSA size estimate `|Ĉ_v|`, hence computes
//! the same channel count `f_v = min{⌈|Ĉ_v|/(c₁·ln n)⌉, F}`, picks one of
//! the first `f_v` channels uniformly at random, and runs the §4 ruling set
//! *within its cluster on its channel* with radius `2·r_c` (any two cluster
//! members are within `2·r_c`, so the set has at most one member per
//! channel — the *reporter*). Elections across clusters run simultaneously
//! under the cluster-color TDMA; elections across channels of one cluster
//! run in parallel on their channels.
//!
//! The transmission probability is `λ/(2·m̂)` with `m̂ = ⌈|Ĉ_v|/f_v⌉`, the
//! expected per-channel population — the contention-correct instantiation
//! of the paper's `1/(2µ)` (which presumes constant density; see
//! `DESIGN.md` deviation #8).

use crate::config::AlgoConfig;
use crate::ruling::{self, ProbPolicy, RulingConfig, RulingOutcome, RulingSet};
use crate::schedule::Tdma;
use crate::structure::{all_done, NetworkEnv};
use mca_radio::{Channel, NodeId};

/// Per-node input to the election: what the node learned so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectionSeat {
    /// The node's cluster (dominator id).
    pub cluster: NodeId,
    /// The cluster's TDMA color.
    pub color: u16,
    /// CSA size estimate shared by the cluster.
    pub size_est: u64,
    /// Whether this node is the cluster's dominator (doesn't run).
    pub is_dominator: bool,
}

/// Result of the reporter-election phase.
#[derive(Debug, Clone, PartialEq)]
pub struct ElectionOutcome {
    /// Per node: the channel it selected (members only).
    pub channel: Vec<Option<Channel>>,
    /// Per node: elected reporter on its channel?
    pub is_reporter: Vec<bool>,
    /// Per node (meaningful for dominators): whether an `IN` announcement
    /// was heard on the first channel — i.e. the dominator observed that
    /// channel 0 elected a reporter. Dominators that heard none serve as
    /// channel-0 reporters during aggregation (rescue for clusters whose
    /// elections all failed).
    pub dominator_heard_in: Vec<bool>,
    /// Slots consumed.
    pub slots: u64,
}

impl ElectionOutcome {
    /// Reporters of `cluster`, as `(channel, node)` pairs.
    pub fn reporters_of(
        &self,
        cluster: NodeId,
        seats: &[Option<ElectionSeat>],
    ) -> Vec<(Channel, NodeId)> {
        (0..self.is_reporter.len())
            .filter(|&i| self.is_reporter[i] && seats[i].is_some_and(|s| s.cluster == cluster))
            .map(|i| (self.channel[i].unwrap(), NodeId(i as u32)))
            .collect()
    }
}

/// Runs the election. `seats[i] = None` for nodes outside any cluster
/// (they stay silent). `phi` is the TDMA color count; `cluster_radius` the
/// dominating radius actually used (the election radius is twice it).
pub fn elect_reporters(
    env: &NetworkEnv,
    seats: &[Option<ElectionSeat>],
    cfg: &AlgoConfig,
    phi: u16,
    cluster_radius: f64,
    seed: u64,
) -> ElectionOutcome {
    let n = env.len();
    assert_eq!(seats.len(), n);
    assert!(cluster_radius > 0.0);
    let node_params = cfg.node_params();
    let tdma = Tdma::new(phi.max(1), ruling::SLOTS_PER_ROUND);
    // Elections need both a lone HELLO *and* a lone ACK on the channel, so
    // the per-round success rate is ~λ²·e^{-2λ}; three γ·ln n batches push
    // the per-channel failure probability into the noise.
    let rounds = cfg.ruling_rounds() * 3;
    let mut rng = mca_radio::rng::derive_rng(seed, 0xE1EC7);

    let mut channel: Vec<Option<Channel>> = vec![None; n];
    let protocols: Vec<RulingSet> = (0..n)
        .map(|i| {
            let make_passive = |ch: Channel, color: u16, group: NodeId| RulingConfig {
                radius: 2.0 * cluster_radius,
                prob: ProbPolicy::Fixed(0.25),
                p_cap: cfg.consts.p_cap,
                rounds,
                channel: ch,
                group: Some(group),
                tdma,
                color,
                params: node_params,
                timeout_join: ruling::TimeoutRule::JoinIfQuiet,
            };
            match seats[i] {
                Some(seat) if seat.is_dominator => {
                    // The dominator helps elections on the first channel by
                    // acknowledging clear HELLOs (it never competes); this
                    // lets single-member clusters elect their reporter.
                    let mut rcfg = make_passive(Channel::FIRST, seat.color, seat.cluster);
                    rcfg.prob = ProbPolicy::Fixed((cfg.consts.lambda / 2.0).min(cfg.consts.p_cap));
                    RulingSet::helper(NodeId(i as u32), rcfg)
                }
                Some(seat) if !seat.is_dominator => {
                    let fv = cfg.cluster_channels(seat.size_est);
                    let ch = Channel(
                        (mca_radio::rng::mix64(mca_radio::rng::derive_seed(seed, i as u64) ^ 0xC4A)
                            % fv as u64) as u16,
                    );
                    channel[i] = Some(ch);
                    let m_hat = (seat.size_est.div_ceil(fv as u64)).max(1);
                    let p = (cfg.consts.lambda / (2.0 * m_hat as f64)).min(cfg.consts.p_cap);
                    let mut rcfg = make_passive(ch, seat.color, seat.cluster);
                    // CSA estimates are only constant-factor accurate, so a
                    // fixed probability can undershoot badly on small
                    // clusters; the carrier-sense ramp self-corrects.
                    rcfg.prob = ProbPolicy::Adaptive {
                        start: p,
                        busy_threshold: node_params.clear_threshold_for(2.0 * cluster_radius),
                    };
                    RulingSet::new(NodeId(i as u32), rcfg)
                }
                _ => {
                    // Dominators and unclustered nodes sit out.
                    let rcfg = make_passive(Channel::FIRST, 0, NodeId(i as u32));
                    RulingSet::passive(NodeId(i as u32), rcfg)
                }
            }
        })
        .collect();
    // Consume rng so the borrow checker sees it used (channel choice uses
    // hashing to stay independent of construction order).
    let _ = rand::Rng::gen::<u64>(&mut rng);

    let (out, slots) = env.run_phase(
        protocols,
        None,
        mca_radio::rng::derive_seed(seed, 0xE1EC8),
        tdma.slots_for_rounds(rounds) + ruling::SLOTS_PER_ROUND as u64,
        all_done,
    );

    ElectionOutcome {
        channel,
        is_reporter: out
            .iter()
            .map(|p| matches!(p.outcome(), RulingOutcome::Elected))
            .collect(),
        dominator_heard_in: out.iter().map(|p| p.heard_in()).collect(),
        slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_geom::Point;
    use mca_sinr::SinrParams;
    use std::collections::HashMap;

    /// One tight cluster of `m` members around a dominator, `size_est = m`.
    fn one_cluster(
        m: usize,
        est: u64,
        channels: u16,
        seed: u64,
    ) -> (ElectionOutcome, Vec<Option<ElectionSeat>>, AlgoConfig) {
        let params = SinrParams::default();
        let cfg = AlgoConfig::practical(channels, &params, (m + 1).max(64));
        let mut positions = vec![Point::ORIGIN];
        let mut seats = vec![Some(ElectionSeat {
            cluster: NodeId(0),
            color: 0,
            size_est: est,
            is_dominator: true,
        })];
        for i in 0..m {
            let theta = i as f64 / m as f64 * std::f64::consts::TAU;
            positions.push(Point::unit(theta) * (0.2 + 0.7 * (i % 7) as f64 / 7.0));
            seats.push(Some(ElectionSeat {
                cluster: NodeId(0),
                color: 0,
                size_est: est,
                is_dominator: false,
            }));
        }
        let env = NetworkEnv { params, positions };
        let out = elect_reporters(&env, &seats, &cfg, 1, 1.0, seed);
        (out, seats, cfg)
    }

    #[test]
    fn at_most_one_reporter_per_channel() {
        for seed in 0..5 {
            let (out, seats, _) = one_cluster(60, 60, 8, seed);
            let mut per_channel: HashMap<Channel, usize> = HashMap::new();
            for i in 0..seats.len() {
                if out.is_reporter[i] {
                    *per_channel.entry(out.channel[i].unwrap()).or_default() += 1;
                }
            }
            for (ch, count) in &per_channel {
                assert!(
                    *count <= 1,
                    "seed {seed}: channel {ch} has {count} reporters"
                );
            }
        }
    }

    #[test]
    fn most_channels_get_a_reporter() {
        let mut elected = 0usize;
        let mut total = 0usize;
        for seed in 0..5 {
            let (out, seats, cfg) = one_cluster(60, 60, 8, seed);
            let fv = cfg.cluster_channels(60);
            total += fv as usize;
            let mut seen = std::collections::HashSet::new();
            for i in 0..seats.len() {
                if out.is_reporter[i] {
                    seen.insert(out.channel[i].unwrap());
                }
            }
            elected += seen.len();
        }
        assert!(
            elected * 10 >= total * 7,
            "only {elected}/{total} channels got reporters"
        );
    }

    #[test]
    fn dominator_never_reporter() {
        let (out, _, _) = one_cluster(30, 30, 4, 1);
        assert!(!out.is_reporter[0]);
        assert!(out.channel[0].is_none());
    }

    #[test]
    fn channels_respect_fv() {
        let (out, seats, cfg) = one_cluster(50, 50, 16, 2);
        let fv = cfg.cluster_channels(50);
        for i in 1..seats.len() {
            let ch = out.channel[i].unwrap();
            assert!(ch.0 < fv, "channel {ch} out of f_v = {fv}");
        }
    }

    #[test]
    fn single_channel_cluster() {
        // Tiny cluster: f_v = 1, everyone on channel 0, one reporter.
        let (out, seats, _) = one_cluster(6, 6, 8, 3);
        for i in 1..seats.len() {
            assert_eq!(out.channel[i], Some(Channel::FIRST));
        }
        let reporters = out.is_reporter.iter().filter(|&&r| r).count();
        assert!(reporters <= 1);
    }

    #[test]
    fn reporters_of_lists_cluster_reporters() {
        let (out, seats, _) = one_cluster(40, 40, 8, 4);
        let reps = out.reporters_of(NodeId(0), &seats);
        for (ch, node) in &reps {
            assert!(out.is_reporter[node.index()]);
            assert_eq!(out.channel[node.index()], Some(*ch));
        }
    }
}
