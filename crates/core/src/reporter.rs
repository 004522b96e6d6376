//! Per-channel cluster elections: the reporter election (paper §5.2.2,
//! Lemma 15) and CSA-small's leader election (Appendix A, procedure 1) are
//! one procedure, [`elect_per_channel`], told apart by a [`Spread`].
//!
//! Each cluster member hashes itself onto one of its cluster's first `f`
//! channels and runs the §4 ruling set within its cluster on that channel,
//! at radius `2·r_c` (any two members are within `2·r_c`, so each channel
//! elects at most one). The dominator never competes: it acks clear HELLOs
//! on the first channel, so a one-member cluster can still elect. Clusters
//! run under the cluster-color TDMA, a cluster's channels in parallel.
//!
//! A reporter election spreads the CSA estimate `|Ĉ_v|` over `f_v`
//! channels ([`AlgoConfig::cluster_channels`]); CSA-small spreads its bound
//! `Δ̂` over all `F`. Members start their ramp at `λ/(2·m̂)`, `m̂ = ⌈size/f⌉`
//! the expected per-channel population: the paper's `1/(2µ)` presumes
//! constant density (deviation #8). The dominator acks at `λ/2`, the same
//! rule at `m̂ = 1`.

use crate::config::AlgoConfig;
use crate::ruling::{self, Budget, Election, RulingConfig, RulingOutcome, RulingSet, TimeoutRule};
use crate::schedule::Tdma;
use crate::structure::{all_done, NetworkEnv};
use mca_radio::rng::{derive_seed, mix64};
use mca_radio::{Channel, NodeId};

/// Per-node input to the election: what the node learned so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectionSeat {
    /// The node's cluster (dominator id).
    pub cluster: NodeId,
    /// The cluster's TDMA color.
    pub color: u16,
    /// CSA size estimate shared by the cluster (the reporter election
    /// spreads members by it; CSA-small, which computes it, spreads by its
    /// bound `Δ̂` instead).
    pub size_est: u64,
    /// Whether this node is the cluster's dominator (doesn't run).
    pub is_dominator: bool,
}

/// Result of a per-channel cluster election.
#[derive(Debug, Clone, PartialEq)]
pub struct ElectionOutcome {
    /// Per node: the channel it selected (members only).
    pub channel: Vec<Option<Channel>>,
    /// Per node: elected on its channel (a reporter, or CSA-small's
    /// channel leader)?
    pub elected: Vec<bool>,
    /// Per node (meaningful for dominators): whether an `IN` announcement
    /// was heard on the first channel — i.e. the dominator observed that
    /// channel 0 elected a member. Dominators that heard none serve as
    /// channel-0 reporters during aggregation (rescue for clusters whose
    /// elections all failed).
    pub heard_in: Vec<bool>,
    /// Slots consumed.
    pub slots: u64,
}

impl ElectionOutcome {
    /// Elected members of `cluster`, as `(channel, node)` pairs.
    pub fn reporters_of(
        &self,
        cluster: NodeId,
        seats: &[Option<ElectionSeat>],
    ) -> Vec<(Channel, NodeId)> {
        (0..self.elected.len())
            .filter(|&i| self.elected[i] && seats[i].is_some_and(|s| s.cluster == cluster))
            .map(|i| (self.channel[i].unwrap(), NodeId(i as u32)))
            .collect()
    }
}

/// Who runs a per-channel election, which fixes how members spread over
/// channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spread {
    /// The reporter election: each cluster spreads its CSA estimate over
    /// its `f_v` channels.
    Reporters,
    /// CSA-small's leader election: every cluster spreads the bound `Δ̂`
    /// over all `F` channels.
    Leaders {
        /// The cluster-size bound `Δ̂`.
        delta_hat: u64,
    },
}

/// Runs one per-channel election in every cluster (see the module docs).
/// `seats[i] = None` for nodes outside any cluster (they stay silent).
/// `phi` is the TDMA color count; `cluster_radius` the dominating radius
/// actually used (the election radius is twice it).
pub fn elect_per_channel(
    env: &NetworkEnv,
    seats: &[Option<ElectionSeat>],
    algo: &AlgoConfig,
    phi: u16,
    cluster_radius: f64,
    spread: Spread,
    seed: u64,
) -> ElectionOutcome {
    let n = env.len();
    assert_eq!(seats.len(), n);
    assert!(cluster_radius > 0.0);
    let tdma = Tdma::new(phi.max(1), ruling::SLOTS_PER_ROUND);
    // Salts of `seed` that keep the two elections' draws apart.
    let [channel_salt, run_salt] = match spread {
        Spread::Reporters => [0xC4A, 0xE1EC8],
        Spread::Leaders { .. } => [0x5CA1, 0x5CA11],
    };
    // `m̂` expected members of one channel count as `2·m̂` contenders.
    let config = |m_hat: u64, channel: Channel, color: u16, group: NodeId| {
        RulingConfig::election(
            algo,
            Election {
                radius: 2.0 * cluster_radius,
                contenders: 2 * m_hat,
                budget: Budget::Handshake,
                channel,
                group: Some(group),
                tdma,
                color,
                timeout: TimeoutRule::JoinIfQuiet,
            },
        )
    };
    let mut channel: Vec<Option<Channel>> = vec![None; n];
    let protocols: Vec<RulingSet> = (0..n)
        .map(|i| {
            let me = NodeId(i as u32);
            match seats[i] {
                Some(seat) if seat.is_dominator => {
                    RulingSet::helper(me, config(1, Channel::FIRST, seat.color, seat.cluster))
                }
                Some(seat) => {
                    let (f, size) = match spread {
                        Spread::Reporters => (algo.cluster_channels(seat.size_est), seat.size_est),
                        Spread::Leaders { delta_hat } => (algo.channels, delta_hat),
                    };
                    // Hashing keeps the choice independent of construction
                    // order.
                    let ch = Channel(
                        (mix64(derive_seed(seed, i as u64) ^ channel_salt) % f as u64) as u16,
                    );
                    channel[i] = Some(ch);
                    let m_hat = size.div_ceil(f as u64).max(1);
                    RulingSet::new(me, config(m_hat, ch, seat.color, seat.cluster))
                }
                None => RulingSet::passive(me, config(1, Channel::FIRST, 0, me)),
            }
        })
        .collect();
    let cap = config(1, Channel::FIRST, 0, NodeId(0)).slot_cap();
    let (out, slots) = env.run_phase(protocols, None, derive_seed(seed, run_salt), cap, all_done);
    ElectionOutcome {
        channel,
        elected: out
            .iter()
            .map(|p| matches!(p.outcome(), RulingOutcome::Elected))
            .collect(),
        heard_in: out.iter().map(|p| p.heard_in()).collect(),
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
        let out = elect_per_channel(&env, &seats, &cfg, 1, 1.0, Spread::Reporters, seed);
        (out, seats, cfg)
    }

    #[test]
    fn at_most_one_reporter_per_channel() {
        for seed in 0..5 {
            let (out, seats, _) = one_cluster(60, 60, 8, seed);
            let mut per_channel: HashMap<Channel, usize> = HashMap::new();
            for i in 0..seats.len() {
                if out.elected[i] {
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
                if out.elected[i] {
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
        assert!(!out.elected[0]);
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
        let reporters = out.elected.iter().filter(|&&r| r).count();
        assert!(reporters <= 1);
    }

    #[test]
    fn reporters_of_lists_cluster_reporters() {
        let (out, seats, _) = one_cluster(40, 40, 8, 4);
        let reps = out.reporters_of(NodeId(0), &seats);
        for (ch, node) in &reps {
            assert!(out.elected[node.index()]);
            assert_eq!(out.channel[node.index()], Some(*ch));
        }
    }
}
