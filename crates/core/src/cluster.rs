//! Cluster coloring and the cluster announce/attach phase (paper §5.1.2).
//!
//! *Coloring*: dominators are colored so that any two within `R_{ε/2}` get
//! different colors. Instead of §5.1.2's phases of ruling sets (Lemma 8),
//! every dominator claims a color in the claim-based greedy of
//! [`crate::greedy_color`] (`DESIGN.md` deviation #9), run as the
//! [`stages::color_patch_stage`] with every dominator a claimant. We report
//! the `φ` actually used.
//!
//! *Announce*: colored dominators beacon `(id, color)` with the
//! constant-density probability; every other node attaches to the nearest
//! announcing dominator within `r_c` (preferring the dominator that
//! recruited it in the dominating-set phase) and learns the cluster color.

use crate::dominate::DominatingOutcome;
use crate::stages::{self, ColorSeat};
use crate::structure::{all_done, NetworkEnv, StructureConfig};
use mca_radio::{Action, Channel, NodeId, Observation, Protocol};
use mca_sinr::SinrParams;
use rand::rngs::SmallRng;
use rand::Rng;

/// Message of the announce phase. The sender's identity travels in the
/// frame header (surfaced as `Reception::from`), so the payload only needs
/// the color.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnounceMsg {
    /// "I am a dominator with cluster color `color`."
    Announce {
        /// The announcing dominator's cluster color.
        color: u16,
    },
}

/// Role in the announce phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnounceRole {
    /// A colored dominator broadcasting its identity.
    Dominator {
        /// The dominator's cluster color.
        color: u16,
    },
    /// A node listening for a dominator to attach to; carries the dominator
    /// that recruited it during the dominating-set phase, if any.
    Listener {
        /// Preferred dominator (from the dominating-set phase).
        prior: Option<NodeId>,
    },
}

/// Configuration of the announce phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnounceConfig {
    /// Attach radius (`r_c`).
    pub radius: f64,
    /// Dominator broadcast probability (`1/(2µ)`).
    pub p: f64,
    /// Number of one-slot rounds.
    pub rounds: u64,
    /// Conservative node-side parameters.
    pub params: SinrParams,
}

/// The announce/attach protocol.
#[derive(Debug, Clone)]
pub struct AnnounceProtocol {
    cfg: AnnounceConfig,
    role: AnnounceRole,
    /// Best candidate so far: (dominator, color, distance estimate).
    best: Option<(NodeId, u16, f64)>,
    /// Whether `best` is the prior dominator (sticky once found).
    locked: bool,
    rounds_done: u64,
    finished: bool,
}

impl AnnounceProtocol {
    /// Creates a participant with the given role.
    pub fn new(role: AnnounceRole, cfg: AnnounceConfig) -> Self {
        assert!(cfg.radius > 0.0 && cfg.p > 0.0 && cfg.p <= 1.0 && cfg.rounds > 0);
        AnnounceProtocol {
            cfg,
            role,
            best: None,
            locked: false,
            rounds_done: 0,
            finished: false,
        }
    }

    /// The attachment this listener settled on: `(dominator, color, dist)`.
    pub fn attachment(&self) -> Option<(NodeId, u16, f64)> {
        self.best
    }
}

impl Protocol for AnnounceProtocol {
    type Msg = AnnounceMsg;

    fn act(&mut self, _slot: u64, rng: &mut SmallRng) -> Action<AnnounceMsg> {
        match self.role {
            AnnounceRole::Dominator { color } => {
                if rng.gen_bool(self.cfg.p) {
                    Action::Transmit {
                        channel: Channel::FIRST,
                        msg: AnnounceMsg::Announce { color },
                    }
                } else {
                    Action::Idle
                }
            }
            AnnounceRole::Listener { .. } => Action::Listen {
                channel: Channel::FIRST,
            },
        }
    }

    fn observe(&mut self, _slot: u64, obs: Observation<AnnounceMsg>, _rng: &mut SmallRng) {
        if let (AnnounceRole::Listener { prior }, Observation::Received(r)) = (self.role, &obs) {
            let AnnounceMsg::Announce { color, .. } = r.msg;
            let dist = r.distance_estimate(&self.cfg.params);
            if dist <= self.cfg.radius * 1.02 {
                let from = r.from;
                if Some(from) == prior {
                    self.best = Some((from, color, dist));
                    self.locked = true;
                } else if !self.locked && self.best.is_none_or(|(_, _, bd)| dist < bd) {
                    self.best = Some((from, color, dist));
                }
            }
        }
        self.rounds_done += 1;
        if self.rounds_done >= self.cfg.rounds {
            self.finished = true;
        }
    }

    fn is_done(&self) -> bool {
        self.finished
    }
}

/// Result of the full clustering pipeline step.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// Color per node (only dominators have one).
    pub dominator_color: Vec<Option<u16>>,
    /// Number of colors used (the measured `φ`).
    pub phi: u16,
    /// Per node: `(dominator, cluster color, distance)`; dominators map to
    /// themselves.
    pub membership: Vec<Option<(NodeId, u16, f64)>>,
    /// Slots spent coloring.
    pub coloring_slots: u64,
    /// Slots spent announcing/attaching.
    pub announce_slots: u64,
}

impl ClusterOutcome {
    /// Nodes with no cluster after the phase (coverage holes).
    pub fn unclustered(&self) -> usize {
        self.membership.iter().filter(|m| m.is_none()).count()
    }
}

/// Runs dominator coloring followed by announce/attach.
///
/// The coloring is the claim-based greedy of [`stages::color_patch_stage`]
/// with every dominator a claimant (the paper's `φ` is a constant given
/// the density bound; we measure it). `alive` masks out nodes that are
/// not part of the network (crashed, or not yet joined): they are absent
/// from both phase engines and end the phase unclustered.
pub fn build_clusters(
    env: &NetworkEnv,
    cfg: &StructureConfig,
    dominating: &DominatingOutcome,
    seed: u64,
    alive: Option<&[bool]>,
) -> ClusterOutcome {
    assert!(cfg.cluster_radius > 0.0, "attach radius must be positive");
    let n = env.len();
    assert_eq!(dominating.is_dominator.len(), n);
    let algo = &cfg.algo;

    // --- Dominator coloring: claim-based greedy (DESIGN.md deviation #9).
    // Same-color separation at R_{eps/2} with ordinary receptions; the
    // ruling-set phase loop of §5.1.2 serializes under Definition 4's
    // clear-reception threshold and inflates φ (and with it the TDMA
    // overhead of every later phase).
    let seats: Vec<ColorSeat> = dominating
        .is_dominator
        .iter()
        .map(|&d| {
            if d {
                ColorSeat::Claimant
            } else {
                ColorSeat::Out
            }
        })
        .collect();
    let coloring = stages::color_patch_stage(env, cfg, &seats, alive, seed, 0xC0100);
    let mut color = coloring.colors;

    // Any dominator still uncolored after the cap gets a fresh unique color:
    // correctness (separation) is preserved at the cost of a larger phi.
    let next_fresh = color.iter().flatten().copied().max().map_or(0, |c| c + 1);
    let uncolored: Vec<usize> = (0..n)
        .filter(|&i| dominating.is_dominator[i] && color[i].is_none())
        .collect();
    for (c, &i) in (next_fresh..).zip(&uncolored) {
        color[i] = Some(c);
    }
    let phi = color.iter().flatten().copied().max().map_or(1, |c| c + 1);

    // --- Announce/attach. ---
    let acfg = AnnounceConfig {
        radius: cfg.cluster_radius,
        p: algo.density_tx_prob(),
        rounds: algo.announce_rounds(),
        params: algo.node_params(),
    };
    let protocols: Vec<AnnounceProtocol> = (0..n)
        .map(|i| match color[i] {
            Some(c) => AnnounceProtocol::new(AnnounceRole::Dominator { color: c }, acfg),
            None => AnnounceProtocol::new(
                AnnounceRole::Listener {
                    prior: dominating.dominator_of[i].map(|(d, _)| d),
                },
                acfg,
            ),
        })
        .collect();
    let (out, announce_slots) = env.run_phase(
        protocols,
        alive,
        mca_radio::rng::derive_seed(seed, 0xA110),
        acfg.rounds + 1,
        all_done,
    );

    let membership: Vec<Option<(NodeId, u16, f64)>> = (0..n)
        .map(|i| match color[i] {
            Some(c) => Some((NodeId(i as u32), c, 0.0)),
            None => out[i].attachment(),
        })
        .collect();

    ClusterOutcome {
        dominator_color: color,
        phi,
        membership,
        coloring_slots: coloring.slots,
        announce_slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlgoConfig;
    use crate::dominate;
    use mca_geom::{Deployment, Point};
    use mca_radio::Engine;
    use rand::SeedableRng;

    fn setup(n: usize, side: f64, seed: u64) -> (SinrParams, Vec<Point>, DominatingOutcome) {
        let params = SinrParams::default();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let d = Deployment::uniform(n, side, &mut rng);
        let dom = dominate::oracle(d.points(), 1.0, seed);
        (params, d.points().to_vec(), dom)
    }

    /// Clusters of radius 1.0 over `positions`.
    fn clusters(
        params: SinrParams,
        positions: &[Point],
        dom: &DominatingOutcome,
        channels: u16,
        seed: u64,
    ) -> ClusterOutcome {
        let env = NetworkEnv {
            params,
            positions: positions.to_vec(),
        };
        let algo = AlgoConfig::practical(channels, &params, positions.len().max(4));
        let mut cfg = StructureConfig::new(algo, seed);
        cfg.cluster_radius = 1.0;
        build_clusters(&env, &cfg, dom, seed, None)
    }

    #[test]
    fn coloring_separates_nearby_dominators() {
        let (params, positions, dom) = setup(150, 12.0, 4);
        let out = clusters(params, &positions, &dom, 4, 9);
        let r_sep = params.r_eps_half();
        // All dominators colored.
        for (i, &is_dom) in dom.is_dominator.iter().enumerate() {
            if is_dom {
                assert!(out.dominator_color[i].is_some(), "dominator {i} uncolored");
            }
        }
        // Same color => separated by R_{eps/2} (tolerate none; it's whp).
        let mut violations = 0;
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                if let (Some(ci), Some(cj)) = (out.dominator_color[i], out.dominator_color[j]) {
                    if ci == cj && positions[i].dist(positions[j]) <= r_sep {
                        violations += 1;
                    }
                }
            }
        }
        assert!(
            violations <= 1,
            "{violations} same-color pairs within R_eps/2"
        );
        assert!(out.phi >= 1);
    }

    #[test]
    fn attach_finds_nearby_cluster() {
        let (params, positions, dom) = setup(200, 15.0, 5);
        let out = clusters(params, &positions, &dom, 4, 11);
        assert_eq!(out.unclustered(), 0, "every node should attach");
        for (i, m) in out.membership.iter().enumerate() {
            let (dm, color, _) = m.unwrap();
            // The dominator is a real dominator with that color.
            assert!(dom.is_dominator[dm.index()]);
            assert_eq!(out.dominator_color[dm.index()], Some(color));
            // Within the attach radius (oracle used 1.0).
            assert!(
                positions[i].dist(positions[dm.index()]) <= 1.05,
                "node {i} attached at distance {}",
                positions[i].dist(positions[dm.index()])
            );
        }
    }

    #[test]
    fn single_dominator_network() {
        let params = SinrParams::default();
        let positions = vec![Point::ORIGIN, Point::new(0.5, 0.0), Point::new(0.0, 0.5)];
        let dom = dominate::oracle(&positions, 1.0, 1);
        let out = clusters(params, &positions, &dom, 2, 2);
        assert_eq!(out.phi, 1);
        assert_eq!(out.unclustered(), 0);
        let cluster_ids: Vec<NodeId> = out.membership.iter().map(|m| m.unwrap().0).collect();
        assert!(cluster_ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn announce_prefers_prior_dominator() {
        // Listener equidistant-ish from two dominators, prior = the farther
        // one: it must stick with the prior.
        let params = SinrParams::default();
        let positions = vec![
            Point::new(0.0, 0.0),  // dominator A
            Point::new(1.4, 0.0),  // dominator B
            Point::new(0.75, 0.0), // listener (closer to B by a hair)
        ];
        let acfg = AnnounceConfig {
            radius: 1.0,
            p: 0.3,
            rounds: 200,
            params,
        };
        let protocols = vec![
            AnnounceProtocol::new(AnnounceRole::Dominator { color: 0 }, acfg),
            AnnounceProtocol::new(AnnounceRole::Dominator { color: 1 }, acfg),
            AnnounceProtocol::new(
                AnnounceRole::Listener {
                    prior: Some(NodeId(0)),
                },
                acfg,
            ),
        ];
        let mut engine = Engine::new(params, positions, protocols, 3);
        engine.run_until_done(201);
        let (dom, color, _) = engine.protocols()[2].attachment().unwrap();
        assert_eq!(dom, NodeId(0));
        assert_eq!(color, 0);
    }
}
