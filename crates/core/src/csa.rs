//! Cluster-Size Approximation, large-`Δ̂` variant (paper §5.2.1, Lemma 12).
//!
//! The stage is divided into `⌈log₂ Δ̂⌉` phases of `γ₁·ln n + 1` one-slot
//! rounds. In data rounds of phase `j` (0-based) every unsettled member
//! transmits with probability `p_j = (λ/Δ̂)·2^j` — the probability doubles
//! each phase. The coordinator (the cluster's dominator; a channel leader in
//! the Appendix-A variant) counts receptions from its own group; when a
//! phase delivers at least `ω₁·ln n` of them it settles the estimate
//! `|Ĉ| = ⌈Δ̂/2^j⌉` and announces it in every subsequent notify round
//! (the last round of each phase). Members adopt the estimate and halt.
//!
//! The protocol is parameterized by group id and channel so the small-`Δ̂`
//! variant (`csa_small`) can run one instance per channel with the elected
//! leader as coordinator.

use crate::schedule::Tdma;
use mca_radio::{Action, Channel, NodeId, Observation, Protocol};
use mca_sinr::SinrParams;
use rand::rngs::SmallRng;
use rand::Rng;

/// Messages of the CSA protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsaMsg {
    /// A member's presence beacon, tagged with its group.
    Data {
        /// Group (cluster / channel-group) id.
        group: NodeId,
    },
    /// The coordinator's settled estimate.
    Estimate {
        /// Group id the estimate belongs to.
        group: NodeId,
        /// The size estimate.
        size: u64,
    },
}

/// CSA configuration (shared by all participants of a group).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsaConfig {
    /// Known upper bound `Δ̂` on the group size.
    pub delta_hat: u64,
    /// Contention target `λ`.
    pub lambda: f64,
    /// Data rounds per phase (`γ₁·ln n`).
    pub rounds_per_phase: u64,
    /// Settle threshold (`ω₁·ln n` receptions in one phase).
    pub settle_threshold: u64,
    /// Channel the group operates on.
    pub channel: Channel,
    /// TDMA schedule (1 slot per round).
    pub tdma: Tdma,
    /// Conservative node-side parameters (unused today; kept for parity with
    /// the other phases and future distance filtering).
    pub params: SinrParams,
}

impl CsaConfig {
    /// Number of phases: `max(1, ⌈log₂ Δ̂⌉)`.
    pub fn phases(&self) -> u64 {
        let d = self.delta_hat.max(2);
        (64 - (d - 1).leading_zeros()) as u64
    }

    /// Total protocol rounds.
    pub fn total_rounds(&self) -> u64 {
        self.phases() * (self.rounds_per_phase + 1)
    }

    /// Transmission probability in (0-based) phase `j`, capped at `λ/2`.
    pub fn prob(&self, phase: u64) -> f64 {
        let p = self.lambda / self.delta_hat.max(1) as f64 * 2f64.powi(phase.min(62) as i32);
        p.min(self.lambda / 2.0)
    }

    /// The estimate settled in (0-based) phase `j`: `⌈Δ̂/2^j⌉`.
    pub fn estimate_for_phase(&self, phase: u64) -> u64 {
        let div = 1u64 << phase.min(63);
        self.delta_hat.div_ceil(div).max(1)
    }
}

/// Role of a participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsaRole {
    /// Counts receptions and announces the estimate (dominator / leader).
    Coordinator,
    /// Beacons presence, adopts the announced estimate.
    Member,
    /// Does not participate.
    Passive,
}

/// Per-node CSA state machine.
#[derive(Debug, Clone)]
pub struct CsaProtocol {
    cfg: CsaConfig,
    role: CsaRole,
    group: NodeId,
    color: u16,
    count_this_phase: u64,
    settled: Option<u64>,
    settle_phase: Option<u64>,
    member_estimate: Option<u64>,
    rounds_done: u64,
    finished: bool,
}

impl CsaProtocol {
    /// Creates a participant of `group` with TDMA color `color`.
    pub fn new(role: CsaRole, group: NodeId, color: u16, cfg: CsaConfig) -> Self {
        assert_eq!(cfg.tdma.slots_per_round(), 1, "CSA uses 1-slot rounds");
        assert!(cfg.lambda > 0.0 && cfg.lambda <= 0.5);
        assert!(cfg.rounds_per_phase >= 1 && cfg.settle_threshold >= 1);
        CsaProtocol {
            cfg,
            role,
            group,
            color,
            count_this_phase: 0,
            settled: None,
            settle_phase: None,
            member_estimate: None,
            rounds_done: 0,
            finished: matches!(role, CsaRole::Passive),
        }
    }

    /// Phase (0-based) and whether the round is the notify round.
    fn phase_of(&self, round: u64) -> (u64, bool) {
        let span = self.cfg.rounds_per_phase + 1;
        (round / span, round % span == self.cfg.rounds_per_phase)
    }

    /// The coordinator's settled estimate.
    pub fn coordinator_estimate(&self) -> Option<u64> {
        self.settled
    }

    /// The phase in which the coordinator settled.
    pub fn settle_phase(&self) -> Option<u64> {
        self.settle_phase
    }

    /// The estimate a member received.
    pub fn member_estimate(&self) -> Option<u64> {
        self.member_estimate
    }

    /// Whether this participant has what it came for (coordinator settled /
    /// member informed). Used for early termination measurements.
    pub fn is_satisfied(&self) -> bool {
        match self.role {
            CsaRole::Coordinator => self.settled.is_some(),
            CsaRole::Member => self.member_estimate.is_some(),
            CsaRole::Passive => true,
        }
    }
}

impl Protocol for CsaProtocol {
    type Msg = CsaMsg;

    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<CsaMsg> {
        let Some(ts) = self.cfg.tdma.my_slot(slot, self.color) else {
            return Action::Idle;
        };
        if ts.round >= self.cfg.total_rounds() {
            return Action::Idle;
        }
        let (phase, notify) = self.phase_of(ts.round);
        let ch = self.cfg.channel;
        match self.role {
            CsaRole::Coordinator => {
                if notify {
                    if let Some(size) = self.settled {
                        return Action::Transmit {
                            channel: ch,
                            msg: CsaMsg::Estimate {
                                group: self.group,
                                size,
                            },
                        };
                    }
                    Action::Listen { channel: ch }
                } else {
                    Action::Listen { channel: ch }
                }
            }
            CsaRole::Member => {
                if notify {
                    Action::Listen { channel: ch }
                } else if self.member_estimate.is_none() && rng.gen_bool(self.cfg.prob(phase)) {
                    Action::Transmit {
                        channel: ch,
                        msg: CsaMsg::Data { group: self.group },
                    }
                } else {
                    Action::Listen { channel: ch }
                }
            }
            CsaRole::Passive => Action::Idle,
        }
    }

    fn observe(&mut self, slot: u64, obs: Observation<CsaMsg>, _rng: &mut SmallRng) {
        let Some(ts) = self.cfg.tdma.my_slot(slot, self.color) else {
            return;
        };
        if ts.round >= self.cfg.total_rounds() {
            self.finished = true;
            return;
        }
        let (phase, notify) = self.phase_of(ts.round);
        match self.role {
            CsaRole::Coordinator => {
                if notify {
                    // Phase boundary: settle or reset.
                    if self.settled.is_none() && self.count_this_phase >= self.cfg.settle_threshold
                    {
                        self.settled = Some(self.cfg.estimate_for_phase(phase));
                        self.settle_phase = Some(phase);
                    }
                    self.count_this_phase = 0;
                } else if let Observation::Received(r) = &obs {
                    if matches!(r.msg, CsaMsg::Data { group } if group == self.group) {
                        self.count_this_phase += 1;
                    }
                }
            }
            CsaRole::Member => {
                if notify {
                    if let Observation::Received(r) = &obs {
                        if let CsaMsg::Estimate { group, size } = r.msg {
                            if group == self.group {
                                self.member_estimate = Some(size);
                            }
                        }
                    }
                }
            }
            CsaRole::Passive => {}
        }
        self.rounds_done = ts.round + 1;
        if self.rounds_done >= self.cfg.total_rounds() {
            self.finished = true;
        }
    }

    fn is_done(&self) -> bool {
        self.finished
    }

    /// `act` and `observe` both open with the `my_slot` gate: outside its own
    /// color block the node is a no-op.
    fn quiet_until(&self, slot: u64) -> Option<u64> {
        self.cfg.tdma.next_my_slot(slot, self.color)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_geom::Point;
    use mca_radio::Engine;
    use mca_sinr::SinrParams;

    fn cfg(delta_hat: u64, phi: u16) -> CsaConfig {
        CsaConfig {
            delta_hat,
            lambda: 0.5,
            rounds_per_phase: 40,
            settle_threshold: 10,
            channel: Channel::FIRST,
            tdma: Tdma::new(phi, 1),
            params: SinrParams::default(),
        }
    }

    #[test]
    fn config_arithmetic() {
        let c = cfg(1024, 1);
        assert_eq!(c.phases(), 10);
        assert_eq!(c.total_rounds(), 10 * 41);
        assert!((c.prob(0) - 0.5 / 1024.0).abs() < 1e-12);
        assert!((c.prob(9) - 0.25).abs() < 1e-12);
        // Cap at lambda/2.
        assert!((c.prob(40) - 0.25).abs() < 1e-12);
        assert_eq!(c.estimate_for_phase(0), 1024);
        assert_eq!(c.estimate_for_phase(9), 2);
    }

    #[test]
    fn phases_of_small_delta() {
        assert_eq!(cfg(1, 1).phases(), 1);
        assert_eq!(cfg(2, 1).phases(), 1);
        assert_eq!(cfg(3, 1).phases(), 2);
        assert_eq!(cfg(4, 1).phases(), 2);
        assert_eq!(cfg(5, 1).phases(), 3);
    }

    /// One cluster: dominator at origin, `m` members packed around it.
    fn run_single_cluster(m: usize, delta_hat: u64, seed: u64) -> (Option<u64>, Vec<Option<u64>>) {
        let c = cfg(delta_hat, 1);
        let mut positions = vec![Point::ORIGIN];
        let mut protocols = vec![CsaProtocol::new(CsaRole::Coordinator, NodeId(0), 0, c)];
        for i in 0..m {
            let theta = i as f64 / m as f64 * std::f64::consts::TAU;
            positions.push(Point::unit(theta) * 0.8);
            protocols.push(CsaProtocol::new(CsaRole::Member, NodeId(0), 0, c));
        }
        let mut engine = Engine::new(SinrParams::default(), positions, protocols, seed);
        let max = c.tdma.slots_for_rounds(c.total_rounds()) + 1;
        engine.run_until(max, |ps| ps.iter().all(|p| p.is_satisfied()));
        let out = engine.into_protocols();
        (
            out[0].coordinator_estimate(),
            out[1..].iter().map(|p| p.member_estimate()).collect(),
        )
    }

    #[test]
    fn estimates_within_constant_factor() {
        for (m, seed) in [(8usize, 1u64), (32, 2), (100, 3)] {
            let (est, members) = run_single_cluster(m, 512, seed);
            let est = est.unwrap_or_else(|| panic!("m={m}: coordinator never settled"));
            let ratio = est as f64 / m as f64;
            assert!(
                (0.2..=8.0).contains(&ratio),
                "m={m}: estimate {est} off by {ratio}"
            );
            // Every member learned the estimate.
            for (i, me) in members.iter().enumerate() {
                assert_eq!(*me, Some(est), "member {i} missed the estimate");
            }
        }
    }

    #[test]
    fn larger_clusters_settle_earlier() {
        // Bigger clusters reach the contention window in earlier phases.
        let run_phase = |m: usize| {
            let c = cfg(512, 1);
            let mut positions = vec![Point::ORIGIN];
            let mut protocols = vec![CsaProtocol::new(CsaRole::Coordinator, NodeId(0), 0, c)];
            for i in 0..m {
                let theta = i as f64 / m as f64 * std::f64::consts::TAU;
                positions.push(Point::unit(theta) * 0.5);
                protocols.push(CsaProtocol::new(CsaRole::Member, NodeId(0), 0, c));
            }
            let mut engine = Engine::new(SinrParams::default(), positions, protocols, 5);
            let max = c.tdma.slots_for_rounds(c.total_rounds()) + 1;
            engine.run_until(max, |ps| ps.iter().all(|p| p.is_satisfied()));
            engine.protocols()[0].settle_phase().expect("must settle")
        };
        let big = run_phase(128);
        let small = run_phase(8);
        assert!(
            big < small,
            "big cluster settled at phase {big}, small at {small}"
        );
    }

    #[test]
    fn passive_is_done_immediately() {
        let p = CsaProtocol::new(CsaRole::Passive, NodeId(0), 0, cfg(16, 1));
        assert!(p.is_done());
        assert!(p.is_satisfied());
    }

    #[test]
    fn group_filter_blocks_foreign_estimates() {
        // Two co-located groups on the same channel and color: members must
        // only adopt their own coordinator's estimate. Group 1 has 3 members,
        // group 2 has 24; estimates should differ.
        let c = cfg(64, 1);
        let mut positions = vec![Point::ORIGIN, Point::new(0.1, 0.0)];
        let mut protocols = vec![
            CsaProtocol::new(CsaRole::Coordinator, NodeId(0), 0, c),
            CsaProtocol::new(CsaRole::Coordinator, NodeId(1), 0, c),
        ];
        for i in 0..3 {
            positions.push(Point::new(0.0, 0.2 + 0.1 * i as f64));
            protocols.push(CsaProtocol::new(CsaRole::Member, NodeId(0), 0, c));
        }
        for i in 0..24 {
            positions.push(Point::new(0.5 + 0.01 * i as f64, -0.3));
            protocols.push(CsaProtocol::new(CsaRole::Member, NodeId(1), 0, c));
        }
        let mut engine = Engine::new(SinrParams::default(), positions, protocols, 7);
        let max = c.tdma.slots_for_rounds(c.total_rounds()) + 1;
        engine.run_until(max, |ps| ps.iter().all(|p| p.is_satisfied()));
        let out = engine.into_protocols();
        let est0 = out[0].coordinator_estimate();
        let est1 = out[1].coordinator_estimate();
        if let (Some(e0), Some(e1)) = (est0, est1) {
            for p in &out[2..5] {
                assert!(p.member_estimate().is_none() || p.member_estimate() == Some(e0));
            }
            for p in &out[5..] {
                assert!(p.member_estimate().is_none() || p.member_estimate() == Some(e1));
            }
        }
    }

    #[test]
    fn tdma_color_respected() {
        // Color-1 node in a phi=2 schedule must idle during color-0 blocks.
        let c = cfg(16, 2);
        let mut p = CsaProtocol::new(CsaRole::Member, NodeId(0), 1, c);
        let mut rng = mca_radio::rng::derive_rng(0, 0);
        assert!(matches!(p.act(0, &mut rng), Action::Idle)); // color 0 block
        assert!(!matches!(p.act(1, &mut rng), Action::Idle)); // color 1 block
    }

    #[test]
    fn quiet_hints_are_sound() {
        use mca_radio::reference::{assert_hints_sound, random_observation};
        for seed in 0..24u64 {
            let phi = 2 + (seed % 4) as u16;
            let c = cfg(8, phi);
            for role in [CsaRole::Coordinator, CsaRole::Member, CsaRole::Passive] {
                let p = CsaProtocol::new(role, NodeId(0), (seed % phi as u64) as u16, c);
                assert_hints_sound(p, seed, 900, |_, _, g| {
                    let group = NodeId(g.gen_range(0..2));
                    let msg = if g.gen_bool(0.5) {
                        CsaMsg::Data { group }
                    } else {
                        CsaMsg::Estimate {
                            group,
                            size: g.gen_range(1..9),
                        }
                    };
                    random_observation(g, 9, msg)
                });
            }
        }
    }
}
