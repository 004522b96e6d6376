//! Cluster-Size Approximation, small-`Δ̂` variant
//! (paper Appendix A; Lemma 13) — `O(log n · log log n)` rounds when
//! `Δ̂ ≤ F·log^c n`.
//!
//! Four procedures per cluster:
//!
//! 1. every dominatee picks one of the `F` channels uniformly at random and
//!    each channel elects a *leader*: the per-channel cluster election of
//!    the reporters ([`elect_per_channel`] with [`Spread::Leaders`]), which
//!    plans for `Δ̂/F` members per channel;
//! 2. each channel runs the CSA of §5.2.1 with the leader as coordinator
//!    and the much smaller bound `Δ̂' = Θ(Δ̂/F)` — hence the `log log n`;
//! 3. leaders aggregate their per-channel counts to the dominator over the
//!    binary tree on channel positions, with the ack/takeover mechanism
//!    covering channels that got no nodes ("auxiliary nodes");
//! 4. the dominator broadcasts the summed estimate on the first channel.

use crate::aggfun::SumAgg;
use crate::aggregate::treecast::{self, TreeCast, TreeCfg};
use crate::config::AlgoConfig;
use crate::csa::{CsaConfig, CsaProtocol, CsaRole};
use crate::reporter::{elect_per_channel, ElectionSeat, Spread};
use crate::schedule::Tdma;
use crate::structure::{all_done, NetworkEnv};
use mca_radio::{Action, Channel, NodeId, Observation, Protocol};
use rand::rngs::SmallRng;
use rand::Rng;

/// Procedure-4 broadcast message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeMsg {
    /// Cluster scope.
    pub cluster: NodeId,
    /// The cluster-size estimate.
    pub size: u64,
}

/// Procedure 4: the dominator repeatedly broadcasts the estimate on the
/// first channel; members listen until they have it.
#[derive(Debug, Clone)]
struct BroadcastSize {
    cluster: NodeId,
    color: u16,
    tdma: Tdma,
    p: f64,
    rounds: u64,
    /// `Some(size)` marks the sender (dominator).
    sending: Option<u64>,
    received: Option<u64>,
    passive: bool,
    finished: bool,
}

impl Protocol for BroadcastSize {
    type Msg = SizeMsg;

    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<SizeMsg> {
        if self.passive {
            return Action::Idle;
        }
        let Some(ts) = self.tdma.my_slot(slot, self.color) else {
            // Listening is passive; members may listen in any block.
            if self.sending.is_none() && self.received.is_none() {
                return Action::Listen {
                    channel: Channel::FIRST,
                };
            }
            return Action::Idle;
        };
        if ts.round >= self.rounds {
            return Action::Idle;
        }
        match self.sending {
            Some(size) if rng.gen_bool(self.p) => Action::Transmit {
                channel: Channel::FIRST,
                msg: SizeMsg {
                    cluster: self.cluster,
                    size,
                },
            },
            Some(_) => Action::Idle,
            None => {
                if self.received.is_none() {
                    Action::Listen {
                        channel: Channel::FIRST,
                    }
                } else {
                    Action::Idle
                }
            }
        }
    }

    fn observe(&mut self, slot: u64, obs: Observation<SizeMsg>, _rng: &mut SmallRng) {
        if let Observation::Received(r) = &obs {
            if r.msg.cluster == self.cluster && self.received.is_none() {
                self.received = Some(r.msg.size);
            }
        }
        if self.tdma.decompose(slot).round >= self.rounds {
            self.finished = true;
        }
    }

    fn is_done(&self) -> bool {
        self.finished || (self.sending.is_none() && self.received.is_some() && !self.passive)
    }

    fn listen_until(&self, _slot: u64) -> Option<(Channel, u64)> {
        // A member still missing its size listens in every block until the
        // last round ends; silence changes nothing before that.
        let waiting =
            !self.passive && !self.finished && self.sending.is_none() && self.received.is_none();
        waiting.then(|| (Channel::FIRST, self.tdma.slots_for_rounds(self.rounds)))
    }
}

/// Outcome of the small-`Δ̂` CSA.
#[derive(Debug, Clone)]
pub struct CsaSmallOutcome {
    /// Estimate each node ended with (`None` = missed; back-fill upstream).
    pub estimate: Vec<Option<u64>>,
    /// Leader-election slots (procedure 1).
    pub election_slots: u64,
    /// Per-channel CSA slots (procedure 2).
    pub channel_csa_slots: u64,
    /// Count-aggregation slots (procedure 3).
    pub tree_slots: u64,
    /// Broadcast slots (procedure 4).
    pub broadcast_slots: u64,
}

impl CsaSmallOutcome {
    /// Total slots over the four procedures.
    pub fn total_slots(&self) -> u64 {
        self.election_slots + self.channel_csa_slots + self.tree_slots + self.broadcast_slots
    }
}

/// Runs the small-`Δ̂` CSA (Lemma 13) over clustered nodes.
///
/// `delta_hat` is the (small) bound on cluster sizes — the caller checks
/// the `Δ̂ ≤ F·log² n` crossover via
/// [`AlgoConfig::csa_small_applies`].
pub fn run_csa_small(
    env: &NetworkEnv,
    seats: &[Option<ElectionSeat>],
    algo: &AlgoConfig,
    phi: u16,
    cluster_radius: f64,
    delta_hat: u64,
    seed: u64,
) -> CsaSmallOutcome {
    let n = env.len();
    assert_eq!(seats.len(), n);
    let f_total = algo.channels;
    let phi = phi.max(1);

    // --- Procedure 1: channel choice + per-channel leader election. ---
    let spread = Spread::Leaders { delta_hat };
    let elect = elect_per_channel(env, seats, algo, phi, cluster_radius, spread, seed);
    let (channel_of, is_leader, election_slots) = (elect.channel, elect.elected, elect.slots);

    // --- Procedure 2: per-channel CSA with the leader as coordinator. ---
    let delta_channel = (2 * delta_hat.div_ceil(f_total as u64)).max(4);
    let c_tdma = Tdma::new(phi, 1);
    let csa_cfg_for = |ch: Channel| CsaConfig {
        delta_hat: delta_channel,
        lambda: algo.consts.lambda,
        rounds_per_phase: algo.csa_rounds_per_phase(),
        settle_threshold: algo.csa_settle_threshold(),
        channel: ch,
        tdma: c_tdma,
    };
    let protocols: Vec<CsaProtocol> = (0..n)
        .map(|i| match (seats[i], channel_of[i]) {
            (Some(seat), Some(ch)) if !seat.is_dominator => {
                let role = if is_leader[i] {
                    CsaRole::Coordinator
                } else {
                    CsaRole::Member
                };
                CsaProtocol::new(role, seat.cluster, seat.color, csa_cfg_for(ch))
            }
            _ => CsaProtocol::new(
                CsaRole::Passive,
                NodeId(i as u32),
                0,
                csa_cfg_for(Channel::FIRST),
            ),
        })
        .collect();
    let (channel_csa, channel_csa_slots) = env.run_phase(
        protocols,
        None,
        mca_radio::rng::derive_seed(seed, 0x5CA12),
        c_tdma.slots_for_rounds(csa_cfg_for(Channel::FIRST).total_rounds()) + 1,
        |_, ps| ps.iter().all(|p| p.is_satisfied()),
    );

    // --- Procedure 3: aggregate per-channel counts over the channel tree. ---
    let t_cfg = TreeCfg {
        fv: f_total,
        tdma: Tdma::new(phi, treecast::SLOTS_PER_ROUND),
    };
    let protocols: Vec<TreeCast<SumAgg>> = (0..n)
        .map(|i| match (seats[i], channel_of[i]) {
            (Some(seat), _) if seat.is_dominator => {
                // The dominator counts itself.
                TreeCast::dominator(SumAgg, t_cfg, seat.cluster, seat.color, 1)
            }
            (Some(seat), Some(ch)) if is_leader[i] => {
                let count = channel_csa[i].coordinator_estimate().unwrap_or(1).max(1);
                TreeCast::reporter(
                    SumAgg,
                    t_cfg,
                    seat.cluster,
                    seat.color,
                    ch.0 + 1,
                    count as i64,
                )
            }
            (Some(seat), _) => TreeCast::passive(SumAgg, t_cfg, seat.cluster),
            _ => TreeCast::passive(SumAgg, t_cfg, NodeId(i as u32)),
        })
        .collect();
    let (tree, tree_slots) = env.run_phase(
        protocols,
        None,
        mca_radio::rng::derive_seed(seed, 0x5CA13),
        t_cfg.tdma.slots_for_rounds(t_cfg.rounds()) + 4,
        all_done,
    );

    // --- Procedure 4: dominator broadcasts the summed estimate. ---
    let b_tdma = Tdma::new(phi, 1);
    let b_rounds = algo.announce_rounds();
    let protocols: Vec<BroadcastSize> = (0..n)
        .map(|i| match seats[i] {
            Some(seat) => BroadcastSize {
                cluster: seat.cluster,
                color: seat.color,
                tdma: b_tdma,
                p: algo.density_tx_prob(),
                rounds: b_rounds,
                sending: seat.is_dominator.then(|| (*tree[i].value()).max(1) as u64),
                received: None,
                passive: false,
                finished: false,
            },
            None => BroadcastSize {
                cluster: NodeId(i as u32),
                color: 0,
                tdma: b_tdma,
                p: 0.1,
                rounds: 0,
                sending: None,
                received: None,
                passive: true,
                finished: true,
            },
        })
        .collect();
    let (bcast, broadcast_slots) = env.run_phase(
        protocols,
        None,
        mca_radio::rng::derive_seed(seed, 0x5CA14),
        b_tdma.slots_for_rounds(b_rounds) + 1,
        all_done,
    );

    let estimate: Vec<Option<u64>> = (0..n)
        .map(|i| match seats[i] {
            Some(seat) if seat.is_dominator => Some((*tree[i].value()).max(1) as u64),
            Some(_) => bcast[i].received,
            None => None,
        })
        .collect();

    CsaSmallOutcome {
        estimate,
        election_slots,
        channel_csa_slots,
        tree_slots,
        broadcast_slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_geom::Point;
    use mca_sinr::SinrParams;

    /// One cluster of `m` members packed around a dominator at the origin.
    fn run_one(m: usize, channels: u16, seed: u64) -> (CsaSmallOutcome, usize) {
        let params = SinrParams::default();
        let algo = AlgoConfig::practical(channels, &params, (m + 1).max(64));
        let mut positions = vec![Point::ORIGIN];
        let delta_hat = (m as u64).max(4);
        let seat = |is_dominator| ElectionSeat {
            cluster: NodeId(0),
            color: 0,
            size_est: delta_hat,
            is_dominator,
        };
        let mut seats = vec![Some(seat(true))];
        for i in 0..m {
            let theta = i as f64 / m as f64 * std::f64::consts::TAU;
            positions.push(Point::unit(theta) * (0.3 + 0.5 * ((i % 4) as f64 / 4.0)));
            seats.push(Some(seat(false)));
        }
        let env = NetworkEnv { params, positions };
        let out = run_csa_small(&env, &seats, &algo, 1, 1.0, delta_hat, seed);
        (out, m + 1)
    }

    #[test]
    fn estimate_within_constant_factor() {
        for (m, f, seed) in [(24usize, 8u16, 1u64), (48, 8, 2), (12, 4, 3)] {
            let (out, true_size) = run_one(m, f, seed);
            let est = out.estimate[0].expect("dominator must have an estimate");
            let ratio = est as f64 / true_size as f64;
            assert!(
                (0.2..=6.0).contains(&ratio),
                "m={m} F={f}: estimate {est} vs true {true_size} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn members_learn_the_estimate() {
        let (out, _) = run_one(30, 8, 5);
        let est = out.estimate[0].unwrap();
        let mut missed = 0;
        for e in &out.estimate[1..] {
            match e {
                Some(v) => assert_eq!(*v, est),
                None => missed += 1,
            }
        }
        assert!(missed <= 2, "{missed} members missed the broadcast");
    }

    #[test]
    fn listen_hints_are_sound() {
        use mca_radio::reference::{assert_hints_sound, random_observation};
        for seed in 0..24u64 {
            let phi = 1 + (seed % 4) as u16;
            let tdma = Tdma::new(phi, 1);
            let rounds = 12;
            let end = tdma.slots_for_rounds(rounds);
            let node = |sending| BroadcastSize {
                cluster: NodeId(0),
                color: (seed % u64::from(phi)) as u16,
                tdma,
                p: 0.3,
                rounds,
                sending,
                received: None,
                passive: false,
                finished: false,
            };
            // Only a member still missing its size stands; the sender
            // idles off its block and draws inside it.
            assert_eq!(node(None).listen_until(0), Some((Channel::FIRST, end)));
            assert_eq!(node(Some(9)).listen_until(0), None);
            for p in [node(None), node(Some(9))] {
                // Mostly other clusters' sizes, so the member keeps waiting.
                assert_hints_sound(p, seed, end + 3, |_, _, g| {
                    let msg = SizeMsg {
                        cluster: NodeId(g.gen_range(0..6)),
                        size: g.gen_range(1..40),
                    };
                    random_observation(g, 6, msg)
                });
            }
        }
    }

    #[test]
    fn slots_accounted() {
        let (out, _) = run_one(16, 4, 7);
        assert_eq!(
            out.total_slots(),
            out.election_slots + out.channel_csa_slots + out.tree_slots + out.broadcast_slots
        );
        assert!(out.election_slots > 0 && out.broadcast_slots > 0);
    }

    #[test]
    fn empty_channels_are_bridged_by_takeover() {
        // Few members, many channels: several channels stay empty, yet the
        // aggregation over the channel tree still reaches the dominator.
        let (out, true_size) = run_one(6, 16, 9);
        let est = out.estimate[0].unwrap();
        assert!(
            est >= 1 && est <= 4 * true_size as u64,
            "estimate {est} vs true {true_size}"
        );
    }
}
