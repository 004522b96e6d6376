//! Claim-based greedy dominator coloring.
//!
//! The §5.1.2 construction colors dominators by repeated ruling sets, which
//! certifies separation through Definition 4's *clear receptions* — at
//! `r = R_{ε/2}` those require near-silence within `4r`, so elections
//! serialize globally and the measured `φ` balloons (see `DESIGN.md`
//! deviation #9). This protocol achieves the same guarantee — same-color
//! dominators separated by `R_{ε/2}` — with ordinary receptions:
//!
//! * every uncommitted dominator repeatedly *claims* the smallest color it
//!   has not heard a `R_{ε/2}`-neighbor claim or commit;
//! * hearing a conflicting claim from a neighbor forces a re-claim
//!   (ties broken by node id: the smaller id keeps the color);
//! * after transmitting its unchanged claim `STABLE_TX` times (so all
//!   neighbors heard it w.h.p.), the dominator commits and thereafter
//!   beacons `Committed` at the constant-density probability.
//!
//! Dominators have constant density, so contention is bounded and the whole
//! coloring finishes in `O(φ·log n)` rounds with `φ` close to the local
//! optimum — typically 3–6× fewer colors than the ruling-set phase loop
//! produces, which divides the TDMA overhead of every later phase.

use mca_radio::{Action, Channel, NodeId, Observation, Protocol};
use mca_sinr::SinrParams;
use rand::rngs::SmallRng;
use rand::Rng;

/// Messages of the greedy coloring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimMsg {
    /// A tentative claim on a color.
    Claim {
        /// Claimed color.
        color: u16,
        /// Claimant id (tie-breaking).
        id: NodeId,
    },
    /// A committed color announcement.
    Committed {
        /// Committed color.
        color: u16,
        /// Owner id (conflict self-healing: the larger id yields).
        id: NodeId,
    },
}

/// Configuration of the greedy coloring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClaimCfg {
    /// Separation radius (`R_{ε/2}`): colors of senders within this radius
    /// are excluded.
    pub radius: f64,
    /// Initial claim transmission probability; adapted by carrier sense
    /// (halve when interference above `busy_threshold` is sensed, double on
    /// quiet rounds, capped at 0.25) so claims actually decode.
    pub p: f64,
    /// Sensed-power level that counts as a busy round.
    pub busy_threshold: f64,
    /// Beacon probability after commitment.
    pub p_committed: f64,
    /// Transmissions of an unchanged claim required before committing.
    pub stable_tx: u32,
    /// Total rounds (1 slot each).
    pub rounds: u64,
    /// Conservative node-side parameters (RSSI distance filter).
    pub params: SinrParams,
}

/// Per-node state of the greedy coloring.
#[derive(Debug, Clone)]
pub struct GreedyColor {
    cfg: ClaimCfg,
    me: NodeId,
    /// Current adapted transmission probability.
    p: f64,
    /// Signal strength at `cfg.radius`, with a 2% tolerance for parameter
    /// slack: a sender at least this strong is an `R_{ε/2}`-neighbor.
    radius_signal: f64,
    /// Colors heard claimed-or-committed by `R_{ε/2}`-neighbors.
    used: Vec<bool>,
    claim: u16,
    tx_since_change: u32,
    committed: Option<u16>,
    committed_round: Option<u64>,
    passive: bool,
    finished: bool,
}

impl GreedyColor {
    /// An active dominator.
    pub fn new(me: NodeId, cfg: ClaimCfg) -> Self {
        assert!(cfg.radius > 0.0 && cfg.p > 0.0 && cfg.p <= 0.5);
        assert!(cfg.stable_tx >= 1 && cfg.rounds >= 1);
        GreedyColor {
            p: cfg.p,
            radius_signal: cfg.params.received_power(cfg.radius) * 0.98,
            cfg,
            me,
            used: vec![false; 64],
            claim: 0,
            tx_since_change: 0,
            committed: None,
            committed_round: None,
            passive: false,
            finished: false,
        }
    }

    /// A non-dominator (silent).
    pub fn passive(me: NodeId, cfg: ClaimCfg) -> Self {
        let mut g = GreedyColor::new(me, cfg);
        g.passive = true;
        g.finished = true;
        g
    }

    /// An already-committed dominator: it only beacons its color so fresh
    /// claimants keep clear of the palette in force — the anchor role of a
    /// local recoloring patch during structure repair.
    pub fn committed(me: NodeId, cfg: ClaimCfg, color: u16) -> Self {
        let mut g = GreedyColor::new(me, cfg);
        g.committed = Some(color);
        g
    }

    /// The committed color, if any.
    pub fn color(&self) -> Option<u16> {
        self.committed
    }

    /// Round at which the node committed.
    pub fn committed_round(&self) -> Option<u64> {
        self.committed_round
    }

    fn mark_used(&mut self, c: u16) {
        if self.used.len() <= c as usize {
            self.used.resize(c as usize + 1, false);
        }
        self.used[c as usize] = true;
    }

    fn smallest_free(&self) -> u16 {
        self.used
            .iter()
            .position(|&u| !u)
            .unwrap_or(self.used.len()) as u16
    }

    fn within_radius(&self, signal: f64) -> bool {
        signal >= self.radius_signal
    }
}

impl Protocol for GreedyColor {
    type Msg = ClaimMsg;

    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<ClaimMsg> {
        if self.passive || slot >= self.cfg.rounds {
            return Action::Idle;
        }
        match self.committed {
            Some(color) => {
                // Beacons stay under MIMD control so steady-state beacon
                // traffic cannot drown late deciders.
                if rng.gen_bool(self.p.min(2.0 * self.cfg.p_committed)) {
                    Action::Transmit {
                        channel: Channel::FIRST,
                        msg: ClaimMsg::Committed { color, id: self.me },
                    }
                } else {
                    Action::Listen {
                        channel: Channel::FIRST,
                    }
                }
            }
            None => {
                if rng.gen_bool(self.p) {
                    self.tx_since_change += 1;
                    Action::Transmit {
                        channel: Channel::FIRST,
                        msg: ClaimMsg::Claim {
                            color: self.claim,
                            id: self.me,
                        },
                    }
                } else {
                    Action::Listen {
                        channel: Channel::FIRST,
                    }
                }
            }
        }
    }

    fn observe(&mut self, slot: u64, obs: Observation<ClaimMsg>, _rng: &mut SmallRng) {
        // Carrier-sense MIMD keeps local contention at decodable levels
        // (committed nodes keep adapting: their beacons share the channel).
        if !self.passive {
            let busy = match &obs {
                Observation::Received(r) => r.sensed_interference() >= self.cfg.busy_threshold,
                Observation::Noise { total_power } => *total_power >= self.cfg.busy_threshold,
                _ => false,
            };
            if busy {
                self.p = (self.p / 2.0).max(self.cfg.p / 8.0);
            } else if matches!(obs, Observation::Noise { .. } | Observation::Received(_)) {
                self.p = (self.p * 2.0).min(0.25);
            }
        }
        if let Observation::Received(r) = &obs {
            if self.within_radius(r.signal) {
                match r.msg {
                    ClaimMsg::Committed { color, id } => {
                        self.mark_used(color);
                        match self.committed {
                            // Conflict self-healing: two committed owners of
                            // one color within R_{ε/2} — the larger id
                            // returns to claiming a fresh color.
                            Some(mine) if mine == color && id < self.me => {
                                self.committed = None;
                                self.claim = self.smallest_free();
                                self.tx_since_change = 0;
                            }
                            None if color == self.claim => {
                                self.claim = self.smallest_free();
                                self.tx_since_change = 0;
                            }
                            _ => {}
                        }
                    }
                    ClaimMsg::Claim { color, id } => {
                        if self.committed.is_none() && color == self.claim {
                            // Tie-break: the smaller id keeps the color.
                            if id < self.me {
                                self.mark_used(color);
                                self.claim = self.smallest_free();
                                self.tx_since_change = 0;
                            }
                        } else if self.committed.is_none() {
                            // A neighbor is converging on that color; avoid
                            // it unless it is ours by tie-break.
                            if id < self.me || color != self.claim {
                                self.mark_used(color);
                            }
                        }
                    }
                }
            }
        }
        if self.committed.is_none() && self.tx_since_change >= self.cfg.stable_tx {
            self.committed = Some(self.claim);
            self.committed_round = Some(slot);
        }
        if slot + 1 >= self.cfg.rounds {
            self.finished = true;
        }
    }

    fn is_done(&self) -> bool {
        // Committed nodes keep beaconing until the schedule ends so that
        // late deciders avoid their color.
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_geom::{Deployment, Point};
    use mca_radio::Engine;
    use rand::SeedableRng;

    fn cfg(rounds: u64) -> ClaimCfg {
        ClaimCfg {
            radius: 6.0,
            p: 1.0 / 12.0,
            busy_threshold: SinrParams::default().received_power(9.0),
            p_committed: 1.0 / 24.0,
            stable_tx: 6,
            rounds,
            params: SinrParams::default(),
        }
    }

    fn run(positions: Vec<Point>, rounds: u64, seed: u64) -> Vec<GreedyColor> {
        let protocols: Vec<GreedyColor> = (0..positions.len())
            .map(|i| GreedyColor::new(NodeId(i as u32), cfg(rounds)))
            .collect();
        let mut engine = Engine::new(SinrParams::default(), positions, protocols, seed);
        engine.run_until_done(rounds + 1);
        engine.into_protocols()
    }

    #[test]
    fn lone_node_takes_color_zero() {
        let out = run(vec![Point::ORIGIN], 200, 1);
        assert_eq!(out[0].color(), Some(0));
    }

    #[test]
    fn nearby_pair_gets_distinct_colors() {
        for seed in 0..10 {
            let out = run(vec![Point::ORIGIN, Point::new(3.0, 0.0)], 400, seed);
            let (a, b) = (out[0].color(), out[1].color());
            assert!(a.is_some() && b.is_some(), "seed {seed}: uncommitted");
            assert_ne!(a, b, "seed {seed}: conflict");
        }
    }

    #[test]
    fn separation_holds_on_random_dominator_sets() {
        // Constant-density dominator-like sets: separation >= 1.5.
        let mut total_conflicts = 0;
        for seed in 0..5 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let d = Deployment::uniform(400, 30.0, &mut rng);
            let dom = crate::dominate::oracle(d.points(), 1.5, seed);
            let positions: Vec<Point> = dom
                .dominators()
                .iter()
                .map(|n| d.points()[n.index()])
                .collect();
            let out = run(positions.clone(), 4000, seed);
            for (i, a) in out.iter().enumerate() {
                assert!(a.color().is_some(), "node {i} uncommitted");
                for (j, b) in out.iter().enumerate().skip(i + 1) {
                    if positions[i].dist(positions[j]) <= 6.0 && a.color() == b.color() {
                        total_conflicts += 1;
                    }
                }
            }
        }
        assert_eq!(total_conflicts, 0, "same-color neighbors within R_eps/2");
    }

    #[test]
    fn palette_is_near_local_density() {
        let mut rng = SmallRng::seed_from_u64(3);
        let d = Deployment::uniform(300, 24.0, &mut rng);
        let dom = crate::dominate::oracle(d.points(), 1.5, 3);
        let positions: Vec<Point> = dom
            .dominators()
            .iter()
            .map(|n| d.points()[n.index()])
            .collect();
        let k = positions.len();
        let out = run(positions.clone(), 4000, 3);
        let phi = out
            .iter()
            .filter_map(|g| g.color())
            .max()
            .map_or(0, |c| c + 1);
        // Local density bound: dominators within any 6-ball.
        let grid = mca_geom::SpatialGrid::build(&positions, 6.0);
        let dens = grid.max_ball_occupancy(&positions, 6.0);
        assert!(
            (phi as usize) <= 2 * dens + 2,
            "palette {phi} vs local density {dens} ({k} dominators)"
        );
    }

    #[test]
    fn passive_is_done() {
        let p = GreedyColor::passive(NodeId(0), cfg(10));
        assert!(p.is_done());
        assert_eq!(p.color(), None);
    }
}
