//! Local information exchange — the incompressible contrast case
//! (paper reference \[37\], Yu et al., INFOCOM 2015).
//!
//! The paper positions itself against the only prior multichannel SINR
//! work: \[37\] solves *local information exchange* (every node must learn
//! the distinct message of every neighbor) and achieves only **sub-linear**
//! speedup, using at most `O(√(Δ/log n))` channels effectively. The
//! deeper reason exchange cannot parallelize linearly is a *receive
//! bottleneck*: a node decodes at most one packet per slot no matter how
//! many channels exist, and it must receive `Δ` distinct packets — so
//! `Δ` slots are a per-node lower bound, independent of `F`. Aggregation
//! escapes the bottleneck because its function is *compressible* (packets
//! merge); exchange is not.
//!
//! This module implements a multichannel random-access (channel-hopping
//! ALOHA) exchange protocol on the full SINR simulator so the limit can
//! be *measured*, and the measurement is stark: completion time is **flat
//! in `F`**. Adding channels multiplies the network's aggregate decode
//! throughput, but each listener taps one channel per slot, so its
//! per-slot collection rate is the single-channel ALOHA rate (`≈ 1/e`
//! tokens per slot at the optimal load) no matter how many channels
//! exist. Beating that requires the *coordination* machinery of \[37\]
//! (and even that saturates at `O(√(Δ/log n))` effective channels);
//! beating the `Θ(Δ)` floor requires the task to be compressible, which
//! exchange is not. [`ExchangeConfig::cap_channels_like_37`] exposes the
//! \[37\] channel cap for side-by-side tables.
//!
//! The experiment `E14` in `EXPERIMENTS.md` contrasts the measured
//! exchange curve with the aggregation curve of `E1`: same deployment,
//! same simulator — compressibility is exactly what the linear channel
//! speedup of the paper buys.

use mca_core::NetworkEnv;
use mca_radio::{Action, Channel, NodeId, Observation, Protocol};
use mca_sinr::SinrParams;
use rand::rngs::SmallRng;
use rand::Rng;

/// Configuration of the exchange protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeConfig {
    /// Channels available to the protocol.
    pub channels: u16,
    /// Per-slot transmission probability (classic ALOHA sweet spot is
    /// `Θ(F/Δ)`; the harness sets `c·F/n̂` capped at 1/2).
    pub tx_prob: f64,
    /// Slot cap.
    pub max_slots: u64,
}

impl ExchangeConfig {
    /// A reasonable default: `F` channels, `min(1/2, 1.5·F/n̂)`
    /// transmission probability, and a `12·n̂·ln n̂` slot cap.
    pub fn new(channels: u16, n_bound: usize) -> Self {
        let n = n_bound.max(2) as f64;
        ExchangeConfig {
            channels: channels.max(1),
            tx_prob: (1.5 * channels as f64 / n).min(0.5),
            max_slots: (12.0 * n * n.ln()).ceil() as u64,
        }
    }

    /// Restricts the channel budget to `⌊√(Δ̂/ln n̂)⌋` — the effective
    /// channel count of the paper's reference \[37\] — keeping everything
    /// else equal. Returns the capped configuration and the cap itself.
    pub fn cap_channels_like_37(mut self, delta_hat: usize, n_bound: usize) -> (Self, u16) {
        let ln_n = (n_bound.max(2) as f64).ln();
        let cap = ((delta_hat.max(1) as f64 / ln_n).sqrt().floor() as u16).max(1);
        let n = n_bound.max(2) as f64;
        self.channels = self.channels.min(cap);
        self.tx_prob = (1.5 * self.channels as f64 / n).min(0.5);
        (self, cap)
    }
}

/// One node of the exchange: transmit own token / collect others'.
#[derive(Debug, Clone)]
pub struct ExchangeNode {
    me: NodeId,
    cfg: ExchangeConfig,
    /// Tokens heard, indexed by node id (dense: the task is single-hop).
    heard: Vec<bool>,
    heard_count: usize,
    /// Slot at which the node had heard all `n−1` tokens (harness-side
    /// ground truth; the protocol itself cannot detect completion).
    complete_at: Option<u64>,
    needed: usize,
}

impl ExchangeNode {
    /// A participant among `n` nodes.
    pub fn new(me: NodeId, n: usize, cfg: ExchangeConfig) -> Self {
        let needed = n.saturating_sub(1);
        ExchangeNode {
            me,
            cfg,
            heard: vec![false; n],
            heard_count: 0,
            // A singleton has nothing to collect.
            complete_at: (needed == 0).then_some(0),
            needed,
        }
    }

    /// Tokens collected so far (excluding the node's own).
    pub fn heard_count(&self) -> usize {
        self.heard_count
    }

    /// Slot at which the node completed, if it did.
    pub fn complete_at(&self) -> Option<u64> {
        self.complete_at
    }

    /// Fraction of the required tokens collected.
    pub fn coverage(&self) -> f64 {
        if self.needed == 0 {
            1.0
        } else {
            self.heard_count as f64 / self.needed as f64
        }
    }
}

impl Protocol for ExchangeNode {
    type Msg = NodeId;

    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<NodeId> {
        if slot >= self.cfg.max_slots {
            return Action::Idle;
        }
        let channel = Channel(rng.gen_range(0..self.cfg.channels));
        if rng.gen_bool(self.cfg.tx_prob) {
            Action::Transmit {
                channel,
                msg: self.me,
            }
        } else {
            Action::Listen { channel }
        }
    }

    fn observe(&mut self, slot: u64, obs: Observation<NodeId>, _rng: &mut SmallRng) {
        if let Some(rec) = obs.reception() {
            let idx = rec.msg.index();
            if idx < self.heard.len() && idx != self.me.index() && !self.heard[idx] {
                self.heard[idx] = true;
                self.heard_count += 1;
                if self.heard_count >= self.needed && self.complete_at.is_none() {
                    self.complete_at = Some(slot);
                }
            }
        }
    }

    // No `is_done` override: a node cannot detect that *others* still need
    // its token, so it keeps transmitting until the slot cap. The harness
    // stops the run once every node has completed (ground-truth predicate).
}

/// Result of an exchange run.
#[derive(Debug, Clone)]
pub struct ExchangeOutcome {
    /// Per-node completion slot (`None` = hit the cap incomplete).
    pub complete_at: Vec<Option<u64>>,
    /// Per-node fraction of required tokens collected.
    pub coverage: Vec<f64>,
    /// Slots consumed (last completion, or the cap).
    pub slots: u64,
}

impl ExchangeOutcome {
    /// Nodes that collected every token.
    pub fn completed(&self) -> usize {
        self.complete_at.iter().filter(|c| c.is_some()).count()
    }

    /// Median completion slot over completed nodes (`None` if nobody
    /// finished).
    pub fn median_completion(&self) -> Option<u64> {
        let mut done: Vec<u64> = self.complete_at.iter().filter_map(|c| *c).collect();
        if done.is_empty() {
            return None;
        }
        done.sort_unstable();
        Some(done[done.len() / 2])
    }

    /// Mean coverage over all nodes.
    pub fn mean_coverage(&self) -> f64 {
        if self.coverage.is_empty() {
            return 1.0;
        }
        self.coverage.iter().sum::<f64>() / self.coverage.len() as f64
    }
}

/// Runs local information exchange over `positions` (a single-hop
/// instance: the harness deploys all nodes within mutual range).
///
/// # Panics
///
/// Panics if `positions` is empty.
pub fn run_info_exchange(
    params: &SinrParams,
    positions: &[mca_geom::Point],
    cfg: ExchangeConfig,
    seed: u64,
) -> ExchangeOutcome {
    let n = positions.len();
    assert!(n > 0, "exchange needs at least one node");
    let protocols: Vec<ExchangeNode> = (0..n)
        .map(|i| ExchangeNode::new(NodeId(i as u32), n, cfg))
        .collect();
    let env = NetworkEnv {
        params: *params,
        positions: positions.to_vec(),
    };
    let (out, slots) = env.run_phase(protocols, None, seed, cfg.max_slots, |_, ps| {
        ps.iter().all(|p| p.complete_at().is_some())
    });
    ExchangeOutcome {
        complete_at: out.iter().map(|p| p.complete_at()).collect(),
        coverage: out.iter().map(|p| p.coverage()).collect(),
        slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_geom::{Deployment, Point};
    use rand::SeedableRng;

    fn clique(n: usize, seed: u64) -> (SinrParams, Vec<Point>) {
        let params = SinrParams::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        // All nodes within a disk of radius r_eps/4: mutual range.
        let d = Deployment::disk(n, params.r_eps() / 4.0, &mut rng);
        (params, d.points().to_vec())
    }

    #[test]
    fn exchange_completes_on_small_clique() {
        let (params, pos) = clique(30, 1);
        let cfg = ExchangeConfig::new(1, 30);
        let out = run_info_exchange(&params, &pos, cfg, 7);
        assert_eq!(out.completed(), 30, "coverage {:.2}", out.mean_coverage());
    }

    #[test]
    fn completion_respects_receive_floor() {
        // A node must decode n−1 distinct packets, one per slot at best.
        let (params, pos) = clique(40, 2);
        let cfg = ExchangeConfig::new(8, 40);
        let out = run_info_exchange(&params, &pos, cfg, 9);
        for c in out.complete_at.iter().flatten() {
            assert!(
                *c >= 39,
                "completion at slot {c} beats the Δ = 39 receive floor"
            );
        }
    }

    #[test]
    fn channels_do_not_speed_up_incompressible_exchange() {
        // The receive bottleneck in action: a listener taps one channel per
        // slot, so its per-slot collection rate is the single-channel ALOHA
        // rate no matter how many channels exist — completion time is flat
        // in F (contrast with the linear aggregation speedup of E1).
        let (params, pos) = clique(60, 3);
        let t1 = run_info_exchange(&params, &pos, ExchangeConfig::new(1, 60), 11)
            .median_completion()
            .expect("F=1 run should complete");
        let t8 = run_info_exchange(&params, &pos, ExchangeConfig::new(8, 60), 11)
            .median_completion()
            .expect("F=8 run should complete");
        assert!(t1 >= 59 && t8 >= 59, "the Δ receive floor binds both");
        let ratio = t1 as f64 / t8 as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "exchange should be flat in F, got t1={t1}, t8={t8}"
        );
    }

    #[test]
    fn channel_cap_of_37_applies() {
        let (cfg, cap) = ExchangeConfig::new(32, 100).cap_channels_like_37(99, 100);
        // √(99/ln 100) ≈ √21.5 ≈ 4.
        assert_eq!(cap, 4);
        assert_eq!(cfg.channels, 4);
        let (cfg2, _) = ExchangeConfig::new(2, 100).cap_channels_like_37(99, 100);
        assert_eq!(cfg2.channels, 2, "cap only ever lowers the budget");
    }

    #[test]
    fn singleton_is_trivially_complete() {
        let (params, pos) = clique(1, 4);
        let out = run_info_exchange(&params, &pos, ExchangeConfig::new(4, 1), 1);
        assert_eq!(out.completed(), 1);
        assert!((out.mean_coverage() - 1.0).abs() < 1e-12);
    }
}
