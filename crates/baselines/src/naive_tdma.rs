//! Naive deterministic TDMA baseline: `Θ(n·D)` flood-combine.
//!
//! The simplest correct scheme: a frame of `n` slots gives every node one
//! exclusive slot (by id); a lone transmitter always decodes within `R_T`,
//! so each frame advances every value by at least one hop. After `D + 1`
//! frames every node holds the global (idempotent) aggregate. No
//! randomness and no knowledge beyond `n` and the diameter bound `d_hat`,
//! so no node can tell when to stop early: the scheme always runs all
//! `n · (d_hat + 2)` slots. That grows as `n · D`,
//! against the paper's `D + Δ/F + log n · log log n`; on table T1's small
//! one-cluster world (n = 400, D = 2) the paper's constants still
//! dominate, and the naive scheme finishes first.

use mca_core::structure::{all_done, NetworkEnv};
use mca_geom::Point;
use mca_radio::{Action, Channel, NodeId, Observation, Protocol};
use mca_sinr::SinrParams;
use rand::rngs::SmallRng;

/// Per-node state of the round-robin flood.
#[derive(Debug, Clone)]
pub struct NaiveTdma {
    me: NodeId,
    n: u32,
    frames: u32,
    value: i64,
    finished: bool,
}

impl NaiveTdma {
    /// A node holding input `value`, in a network of `n` nodes, running
    /// `frames` frames.
    pub fn new(me: NodeId, n: u32, frames: u32, value: i64) -> Self {
        assert!(n > 0 && frames > 0);
        NaiveTdma {
            me,
            n,
            frames,
            value,
            finished: false,
        }
    }

    /// The node's current combined value.
    pub fn value(&self) -> i64 {
        self.value
    }
}

impl Protocol for NaiveTdma {
    type Msg = i64;

    fn act(&mut self, slot: u64, _rng: &mut SmallRng) -> Action<i64> {
        if slot >= self.n as u64 * self.frames as u64 {
            return Action::Idle;
        }
        if slot % self.n as u64 == self.me.0 as u64 {
            Action::Transmit {
                channel: Channel::FIRST,
                msg: self.value,
            }
        } else {
            Action::Listen {
                channel: Channel::FIRST,
            }
        }
    }

    fn observe(&mut self, slot: u64, obs: Observation<i64>, _rng: &mut SmallRng) {
        if let Observation::Received(r) = &obs {
            self.value = self.value.max(r.msg);
        }
        if slot + 1 >= self.n as u64 * self.frames as u64 {
            self.finished = true;
        }
    }

    fn is_done(&self) -> bool {
        self.finished
    }
}

/// Runs the naive TDMA max-flood to its own end, `n · (d_hat + 2)` slots
/// (no node can tell earlier that everyone holds the maximum); returns
/// per-node values and slots used.
pub fn run_naive_tdma(
    params: &SinrParams,
    positions: &[Point],
    inputs: &[i64],
    d_hat: u32,
    seed: u64,
) -> (Vec<i64>, u64) {
    let n = positions.len() as u32;
    let frames = d_hat + 2;
    let protocols: Vec<NaiveTdma> = (0..n)
        .map(|i| NaiveTdma::new(NodeId(i), n, frames, inputs[i as usize]))
        .collect();
    let env = NetworkEnv {
        params: *params,
        positions: positions.to_vec(),
    };
    let (out, slots) = env.run_phase(protocols, None, seed, n as u64 * frames as u64, all_done);
    (out.iter().map(|p| p.value()).collect(), slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_geom::Deployment;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn everyone_learns_the_max() {
        let mut rng = SmallRng::seed_from_u64(2);
        let d = Deployment::uniform(50, 12.0, &mut rng);
        let inputs: Vec<i64> = (0..50).map(|i| i as i64 * 3).collect();
        let (values, slots) = run_naive_tdma(&SinrParams::default(), d.points(), &inputs, 8, 1);
        assert!(values.iter().all(|&v| v == 147));
        assert!(slots >= 50, "at least one frame must pass");
    }

    #[test]
    fn runs_every_frame_even_when_the_max_spreads_at_once() {
        // Node 0 holds the maximum of a one-hop world: everyone holds it
        // after slot 0, yet no node can know that, so all frames run.
        let mut rng = SmallRng::seed_from_u64(3);
        let d = Deployment::uniform(40, 2.0, &mut rng);
        let inputs: Vec<i64> = (0..40).map(|i| 100 - i as i64).collect();
        let (values, slots) = run_naive_tdma(&SinrParams::default(), d.points(), &inputs, 3, 1);
        assert!(values.iter().all(|&v| v == 100));
        assert_eq!(slots, 40 * (3 + 2));
    }

    #[test]
    fn slots_scale_with_n() {
        let params = SinrParams::default();
        let run = |n: usize| {
            let d = Deployment::line(n, 3.0);
            let inputs: Vec<i64> = (0..n).map(|i| i as i64).collect();
            run_naive_tdma(&params, d.points(), &inputs, n as u32, 1).1
        };
        let small = run(10);
        let big = run(40);
        assert!(big > 4 * small, "big {big} vs small {small}");
    }

    #[test]
    fn deterministic() {
        let d = Deployment::line(8, 3.0);
        let inputs: Vec<i64> = (0..8).map(|i| i as i64).collect();
        let a = run_naive_tdma(&SinrParams::default(), d.points(), &inputs, 8, 1);
        let b = run_naive_tdma(&SinrParams::default(), d.points(), &inputs, 8, 2);
        assert_eq!(a.0, b.0, "seed must not matter for a deterministic scheme");
        assert_eq!(a.1, b.1);
    }
}
