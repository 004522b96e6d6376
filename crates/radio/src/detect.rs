//! SINR-level degradation detection: per-node EWMA link health.
//!
//! The per-epoch structural audit in `mca-core` proves the aggregation
//! structure is *shaped* right — every member attached, clusters colored,
//! censuses consistent — but it cannot see SINR-level damage: a jammed or
//! deep-faded cluster still audits clean while none of its members can
//! decode a thing. The [`DegradationDetector`] closes that gap from the
//! engine's own delivery outcomes (the same per-channel
//! tx/listens/rx/busy/env stream `mca-obs` records): every slot a node
//! listens on a *contested* channel (one with at least one transmitter),
//! the detector folds the delivery verdict into a per-node exponentially
//! weighted moving average and flags nodes whose delivery rate decays past
//! a threshold — *before* any audit could fail — as typed
//! [`DetectionEvent`]s for a maintainer to act on proactively.
//!
//! The detector is observation-only, like the `mca-obs` recorder: attaching
//! one never perturbs engine outcomes, RNG draws, or metrics, so arms with
//! and without a detector run bit-identical worlds.

use crate::ids::NodeId;

/// Tuning for the [`DegradationDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// EWMA smoothing factor in `(0, 1]`: weight of the newest sample.
    /// Larger reacts faster but flags transient fades more readily.
    pub alpha: f64,
    /// Flag a node when its health score falls strictly below this.
    pub degrade_below: f64,
    /// Clear a flagged node when its score rises strictly above this.
    /// Keeping `recover_above > degrade_below` gives the detector
    /// hysteresis so a score hovering at the threshold does not flap.
    pub recover_above: f64,
    /// Samples a node must accumulate before it can be flagged — a cold
    /// node with two unlucky slots is not a degraded link.
    pub warmup: u32,
}

impl DetectorConfig {
    fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha <= 1.0,
            "alpha must be in (0, 1], got {}",
            self.alpha
        );
        assert!(
            (0.0..=1.0).contains(&self.degrade_below) && (0.0..=1.0).contains(&self.recover_above),
            "thresholds must be probabilities"
        );
        assert!(
            self.recover_above >= self.degrade_below,
            "recover_above {} must not sit below degrade_below {}",
            self.recover_above,
            self.degrade_below
        );
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            alpha: 0.25,
            degrade_below: 0.35,
            recover_above: 0.75,
            warmup: 8,
        }
    }
}

/// A health-state transition observed by the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectionEvent {
    /// The node's delivery health decayed below the degrade threshold.
    Degraded {
        /// The flagged node.
        node: NodeId,
        /// Slot the score crossed the threshold.
        slot: u64,
        /// The health score at the crossing.
        score: f64,
        /// Slot of the first failed delivery in the current losing streak —
        /// the detector's best estimate of degradation onset, so
        /// `slot - since` is the detection latency.
        since: u64,
    },
    /// A previously flagged node's health recovered above the clear
    /// threshold (e.g. the jammer moved on, or the fade lifted).
    Recovered {
        /// The recovered node.
        node: NodeId,
        /// Slot the score crossed the recovery threshold.
        slot: u64,
        /// The health score at the crossing.
        score: f64,
    },
}

impl DetectionEvent {
    /// The node this event concerns.
    pub fn node(&self) -> NodeId {
        match *self {
            DetectionEvent::Degraded { node, .. } | DetectionEvent::Recovered { node, .. } => node,
        }
    }

    /// The slot the event was observed at.
    pub fn slot(&self) -> u64 {
        match *self {
            DetectionEvent::Degraded { slot, .. } | DetectionEvent::Recovered { slot, .. } => slot,
        }
    }
}

/// Per-node EWMA delivery-health tracking over contested listen slots.
#[derive(Debug, Clone)]
pub struct DegradationDetector {
    cfg: DetectorConfig,
    /// Per-node health score in `[0, 1]`; starts optimistic at 1.0.
    scores: Vec<f64>,
    /// Contested listen slots sampled so far (saturating).
    samples: Vec<u32>,
    /// Whether the node is currently flagged as degraded.
    flagged: Vec<bool>,
    /// Slot of the first failed sample in the current losing streak.
    fail_since: Vec<Option<u64>>,
    /// Transitions observed since the last drain.
    events: Vec<DetectionEvent>,
}

impl DegradationDetector {
    /// A detector over `n` nodes.
    pub fn new(n: usize, cfg: DetectorConfig) -> Self {
        cfg.validate();
        DegradationDetector {
            cfg,
            scores: vec![1.0; n],
            samples: vec![0; n],
            flagged: vec![false; n],
            fail_since: vec![None; n],
            events: Vec::new(),
        }
    }

    /// Folds one contested listen outcome into node `node`'s health:
    /// `delivered` is whether the listener decoded a message this slot.
    /// Only call for slots where the node listened on a channel with at
    /// least one transmitter — an uncontested silent listen is no evidence
    /// either way.
    pub fn sample(&mut self, node: u32, slot: u64, delivered: bool) {
        let i = node as usize;
        let x = if delivered { 1.0 } else { 0.0 };
        self.scores[i] = self.cfg.alpha * x + (1.0 - self.cfg.alpha) * self.scores[i];
        self.samples[i] = self.samples[i].saturating_add(1);
        if delivered {
            if !self.flagged[i] {
                self.fail_since[i] = None;
            }
        } else if self.fail_since[i].is_none() {
            self.fail_since[i] = Some(slot);
        }
        if !self.flagged[i]
            && self.samples[i] >= self.cfg.warmup
            && self.scores[i] < self.cfg.degrade_below
        {
            self.flagged[i] = true;
            self.events.push(DetectionEvent::Degraded {
                node: NodeId(node),
                slot,
                score: self.scores[i],
                since: self.fail_since[i].unwrap_or(slot),
            });
        } else if self.flagged[i] && self.scores[i] > self.cfg.recover_above {
            self.flagged[i] = false;
            self.fail_since[i] = None;
            self.events.push(DetectionEvent::Recovered {
                node: NodeId(node),
                slot,
                score: self.scores[i],
            });
        }
    }

    /// The number of nodes the detector tracks.
    pub(crate) fn nodes(&self) -> usize {
        self.scores.len()
    }

    /// Takes the transitions observed since the last drain.
    pub fn drain(&mut self) -> Vec<DetectionEvent> {
        std::mem::take(&mut self.events)
    }

    /// Transitions queued for the next drain.
    pub fn pending(&self) -> usize {
        self.events.len()
    }

    /// Node `node`'s current health score.
    pub fn score(&self, node: u32) -> f64 {
        self.scores[node as usize]
    }

    /// Whether node `node` is currently flagged as degraded.
    pub fn is_flagged(&self, node: u32) -> bool {
        self.flagged[node as usize]
    }

    /// Currently flagged nodes, ascending.
    pub fn flagged_nodes(&self) -> Vec<u32> {
        (0..self.flagged.len() as u32)
            .filter(|&i| self.flagged[i as usize])
            .collect()
    }

    /// The detector's configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DetectorConfig {
        DetectorConfig::default()
    }

    #[test]
    fn healthy_node_is_never_flagged() {
        let mut d = DegradationDetector::new(2, cfg());
        for slot in 0..100 {
            d.sample(0, slot, true);
        }
        assert!(!d.is_flagged(0));
        assert!(d.drain().is_empty());
        assert!(d.score(0) > 0.99);
    }

    #[test]
    fn sustained_failures_flag_before_total_silence() {
        let mut d = DegradationDetector::new(1, cfg());
        // Warm up healthy, then a jammer arrives at slot 50.
        for slot in 0..50 {
            d.sample(0, slot, true);
        }
        let mut flagged_at = None;
        for slot in 50..200 {
            d.sample(0, slot, false);
            if d.is_flagged(0) && flagged_at.is_none() {
                flagged_at = Some(slot);
            }
        }
        let flagged_at = flagged_at.expect("sustained failures must flag");
        // alpha=0.25: score falls below 0.35 within a handful of slots.
        assert!(flagged_at < 60, "flagged at {flagged_at}");
        let events = d.drain();
        assert_eq!(events.len(), 1);
        match events[0] {
            DetectionEvent::Degraded {
                node, slot, since, ..
            } => {
                assert_eq!(node, NodeId(0));
                assert_eq!(slot, flagged_at);
                assert_eq!(since, 50, "onset is the first failed sample");
            }
            _ => panic!("expected Degraded"),
        }
    }

    #[test]
    fn warmup_suppresses_cold_start_flags() {
        let mut d = DegradationDetector::new(1, cfg());
        // Fewer than `warmup` samples never flag, however bad.
        for slot in 0..7 {
            d.sample(0, slot, false);
        }
        assert!(!d.is_flagged(0));
        d.sample(0, 7, false);
        assert!(d.is_flagged(0), "flag arrives with the warmup-th sample");
    }

    #[test]
    fn recovery_emits_and_rearms() {
        let mut d = DegradationDetector::new(1, cfg());
        for slot in 0..30 {
            d.sample(0, slot, false);
        }
        assert!(d.is_flagged(0));
        for slot in 30..80 {
            d.sample(0, slot, true);
        }
        assert!(!d.is_flagged(0), "healthy streak recovers the node");
        let events = d.drain();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], DetectionEvent::Degraded { .. }));
        assert!(matches!(events[1], DetectionEvent::Recovered { .. }));
        // A second episode re-flags with a fresh onset estimate.
        for slot in 80..120 {
            d.sample(0, slot, false);
        }
        match d.drain()[0] {
            DetectionEvent::Degraded { since, .. } => assert_eq!(since, 80),
            _ => panic!("expected Degraded"),
        }
    }

    #[test]
    fn hysteresis_band_does_not_flap() {
        let mut d = DegradationDetector::new(1, cfg());
        for slot in 0..30 {
            d.sample(0, slot, false);
        }
        assert!(d.is_flagged(0));
        // Alternating outcomes hold the score mid-band: no recovery, and
        // no duplicate degraded events.
        for slot in 30..130 {
            d.sample(0, slot, slot % 2 == 0);
        }
        assert!(d.is_flagged(0));
        assert_eq!(d.drain().len(), 1, "one Degraded, nothing else");
    }

    #[test]
    fn flagged_nodes_view_is_sorted() {
        let mut d = DegradationDetector::new(4, cfg());
        for slot in 0..30 {
            d.sample(3, slot, false);
            d.sample(1, slot, false);
            d.sample(2, slot, true);
        }
        assert_eq!(d.flagged_nodes(), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_is_rejected() {
        DegradationDetector::new(
            1,
            DetectorConfig {
                alpha: 0.0,
                ..DetectorConfig::default()
            },
        );
    }
}
