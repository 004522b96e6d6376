//! Single-channel aggregation baseline (Li et al. \[24\]-flavored,
//! `O(D + Δ)` up to log factors).
//!
//! The classical single-channel approach the paper compares against:
//! a BFS-level flood from the sink builds the aggregation tree, then level
//! windows upcast values with decay-style random access and per-child
//! acknowledgements — all on **one** channel. Its round count grows
//! linearly in `Δ` (every neighbor of a bottleneck parent must be serviced
//! serially), which is exactly the term the multichannel structure divides
//! by `F`.

use mca_core::{NetworkEnv, Tdma};
use mca_geom::Point;
use mca_radio::{Action, Channel, NodeId, Observation, Protocol};
use mca_sinr::SinrParams;
use rand::rngs::SmallRng;
use rand::Rng;

/// Messages of the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineMsg {
    /// BFS beacon with the sender's level.
    Level(u32),
    /// Value upcast to a parent.
    Up {
        /// Addressed parent.
        to: NodeId,
        /// Subtree aggregate (max-combine for this baseline).
        value: i64,
    },
    /// Final result flood.
    Result(i64),
}

/// Configuration of the single-channel baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineCfg {
    /// Flood rounds for level building and the result broadcast.
    pub flood_rounds: u64,
    /// Upcast window per level, `c·(Δ̂ + ln n)` — the `Δ` bottleneck.
    pub window: u64,
    /// Level schedule bound.
    pub max_levels: u32,
    /// Transmit probability during floods.
    pub q: f64,
    /// Decay floor for upcast probabilities.
    pub p_min: f64,
}

impl BaselineCfg {
    /// Total protocol rounds (2 slots each in the upcast stage).
    pub fn total_rounds(&self) -> u64 {
        self.flood_rounds + self.max_levels as u64 * self.window + self.flood_rounds
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Levels,
    Upcast { level: u32 },
    Result,
}

/// Per-node state of the single-channel baseline (max aggregation).
#[derive(Debug, Clone)]
pub struct SingleChannelAgg {
    cfg: BaselineCfg,
    me: NodeId,
    is_sink: bool,
    level: Option<u32>,
    parent: Option<NodeId>,
    value: i64,
    children_heard: Vec<NodeId>,
    /// Upcast transmission probability (`1/Δ̂`).
    p_up: f64,
    result: Option<i64>,
    finished: bool,
}

impl SingleChannelAgg {
    /// A node holding input `value`; `is_sink` roots the tree.
    pub fn new(cfg: BaselineCfg, me: NodeId, value: i64, is_sink: bool) -> Self {
        SingleChannelAgg {
            cfg,
            me,
            is_sink,
            level: is_sink.then_some(0),
            parent: None,
            value,
            children_heard: Vec::new(),
            p_up: cfg.p_min.clamp(1e-6, 0.25),
            result: None,
            finished: false,
        }
    }

    /// The global result, once known.
    pub fn result(&self) -> Option<i64> {
        self.result
    }

    fn stage(&self, round: u64) -> Stage {
        if round < self.cfg.flood_rounds {
            Stage::Levels
        } else if round < self.cfg.flood_rounds + self.cfg.max_levels as u64 * self.cfg.window {
            let w = (round - self.cfg.flood_rounds) / self.cfg.window;
            Stage::Upcast {
                level: self.cfg.max_levels - w as u32,
            }
        } else {
            Stage::Result
        }
    }
}

/// One slot per round (no acknowledgements: the classic decay protocol
/// transmits redundantly and parents deduplicate by child id).
pub const SLOTS_PER_ROUND: u16 = 1;

impl Protocol for SingleChannelAgg {
    type Msg = BaselineMsg;

    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<BaselineMsg> {
        let tdma = Tdma::trivial(SLOTS_PER_ROUND);
        let ts = tdma.decompose(slot);
        if ts.round >= self.cfg.total_rounds() {
            return Action::Idle;
        }
        let ch = Channel::FIRST;
        match (self.stage(ts.round), ts.slot_in_round) {
            (Stage::Levels, 0) => match self.level {
                Some(l) if rng.gen_bool(self.cfg.q) => Action::Transmit {
                    channel: ch,
                    msg: BaselineMsg::Level(l),
                },
                _ => Action::Listen { channel: ch },
            },
            (Stage::Upcast { level }, 0) => {
                if let (true, Some(parent)) = (self.level == Some(level), self.parent) {
                    // Fixed probability 1/Δ̂: every child gets a fair share
                    // of the window regardless of capture bias.
                    if rng.gen_bool(self.p_up) {
                        return Action::Transmit {
                            channel: ch,
                            msg: BaselineMsg::Up {
                                to: parent,
                                value: self.value,
                            },
                        };
                    }
                }
                Action::Listen { channel: ch }
            }
            (Stage::Result, 0) => {
                if self.is_sink && self.result.is_none() {
                    self.result = Some(self.value);
                }
                match self.result {
                    Some(v) if rng.gen_bool(self.cfg.q) => Action::Transmit {
                        channel: ch,
                        msg: BaselineMsg::Result(v),
                    },
                    _ => Action::Listen { channel: ch },
                }
            }
            _ => Action::Listen { channel: ch },
        }
    }

    fn observe(&mut self, slot: u64, obs: Observation<BaselineMsg>, _rng: &mut SmallRng) {
        let tdma = Tdma::trivial(SLOTS_PER_ROUND);
        let ts = tdma.decompose(slot);
        if let Observation::Received(r) = &obs {
            match &r.msg {
                BaselineMsg::Level(l) => {
                    if self.level.is_none() {
                        self.level = Some(l + 1);
                        self.parent = Some(r.from);
                    }
                }
                BaselineMsg::Up { to, value } => {
                    if *to == self.me && !self.children_heard.contains(&r.from) {
                        self.children_heard.push(r.from);
                        self.value = self.value.max(*value);
                    }
                }
                BaselineMsg::Result(v) => {
                    if self.result.is_none() {
                        self.result = Some(*v);
                    }
                }
            }
        }
        if ts.round >= self.cfg.total_rounds() {
            self.finished = true;
        }
    }

    fn is_done(&self) -> bool {
        self.finished
    }
}

/// Outcome of a baseline run.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Result per node.
    pub results: Vec<Option<i64>>,
    /// Slots until every node knew the result (or the cap).
    pub slots: u64,
}

/// Runs the single-channel max-aggregation baseline.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub fn run_single_channel(
    params: &SinrParams,
    positions: &[Point],
    inputs: &[i64],
    sink: NodeId,
    d_hat: u32,
    delta_hat: u64,
    n_bound: usize,
    seed: u64,
) -> BaselineOutcome {
    assert_eq!(positions.len(), inputs.len());
    let ln_n = (n_bound.max(2) as f64).ln();
    let cfg = BaselineCfg {
        flood_rounds: (6.0 * (d_hat as f64 + ln_n)).ceil() as u64,
        // Each of up to Δ̂ children of a bottleneck parent needs its own
        // successful slot against ~Δ̂ competitors at probability 1/Δ̂, so
        // covering everyone w.h.p. costs Θ(Δ̂·ln n) rounds per level — the
        // classical single-channel local-broadcast bound, and the very term
        // the multichannel structure divides by F.
        window: (4.0 * delta_hat as f64 * ln_n).ceil() as u64 + 8,
        max_levels: d_hat + 1,
        q: 0.2,
        p_min: 1.0 / (delta_hat.max(4) as f64),
    };
    let protocols: Vec<SingleChannelAgg> = (0..positions.len())
        .map(|i| SingleChannelAgg::new(cfg, NodeId(i as u32), inputs[i], NodeId(i as u32) == sink))
        .collect();
    let env = NetworkEnv {
        params: *params,
        positions: positions.to_vec(),
    };
    let (out, slots) = env.run_phase(
        protocols,
        None,
        seed,
        cfg.total_rounds() * SLOTS_PER_ROUND as u64,
        |_, ps| ps.iter().all(|p| p.result().is_some()),
    );
    BaselineOutcome {
        results: out.iter().map(|p| p.result()).collect(),
        slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_geom::Deployment;
    use rand::SeedableRng;

    #[test]
    fn finds_max_on_small_network() {
        let mut rng = SmallRng::seed_from_u64(3);
        let d = Deployment::uniform(60, 10.0, &mut rng);
        let inputs: Vec<i64> = (0..60).map(|i| (i * 13 % 100) as i64).collect();
        let expect = *inputs.iter().max().unwrap();
        let out = run_single_channel(
            &SinrParams::default(),
            d.points(),
            &inputs,
            NodeId(0),
            4,
            60,
            60,
            7,
        );
        let holders = out.results.iter().filter(|r| **r == Some(expect)).count();
        assert!(holders * 10 >= 60 * 8, "only {holders}/60 got the max");
    }

    #[test]
    fn line_network_propagates() {
        let d = Deployment::line(12, 3.0);
        let inputs: Vec<i64> = (0..12).map(|i| i as i64).collect();
        let out = run_single_channel(
            &SinrParams::default(),
            d.points(),
            &inputs,
            NodeId(0),
            12,
            4,
            12,
            5,
        );
        assert_eq!(out.results[0], Some(11), "sink must see the max");
    }

    #[test]
    fn slots_grow_with_density() {
        let run = |n: usize, side: f64, delta_hat: u64, seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let d = Deployment::uniform(n, side, &mut rng);
            let inputs = vec![1i64; n];
            run_single_channel(
                &SinrParams::default(),
                d.points(),
                &inputs,
                NodeId(0),
                6,
                delta_hat,
                n,
                seed,
            )
            .slots
        };
        let sparse = run(60, 14.0, 20, 1);
        let dense = run(240, 7.0, 200, 1);
        assert!(
            dense > sparse,
            "denser network ({dense}) should need more slots than sparse ({sparse})"
        );
    }
}
