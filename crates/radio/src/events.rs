//! Node lifecycle events surfaced by the engine.
//!
//! Structure-maintenance layers (see `mca-core`'s `maintain` module) need to
//! know *when the world changed* — a node crashed, a late joiner powered on,
//! a mobile node drifted — without re-scanning the whole fault plan and
//! position vector every slot. [`Engine::watch_events`](crate::Engine::watch_events)
//! turns on an observer that detects these transitions as part of the normal
//! step and queues them as [`NodeEvent`]s; a maintainer drains the queue with
//! [`Engine::drain_events`](crate::Engine::drain_events) at whatever cadence
//! it repairs on, instead of polling.

use crate::ids::NodeId;
use mca_geom::Point;

/// One lifecycle transition observed by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeEvent {
    /// The node joined the network at `slot` (it was absent the slot
    /// before — a late joiner, per [`FaultPlan::join_at`](crate::FaultPlan::join_at)).
    Joined {
        /// The node that appeared.
        node: NodeId,
        /// First slot the node participates in.
        slot: u64,
    },
    /// The node crash-stopped at `slot` (present the slot before, absent
    /// from `slot` on).
    Crashed {
        /// The node that disappeared.
        node: NodeId,
        /// First slot the node is absent.
        slot: u64,
    },
    /// The node's position drifted more than the watch threshold from the
    /// last reported anchor. Continuous motion produces a stream of these,
    /// one per threshold crossing — coarse-grained, so a subscriber is not
    /// flooded with per-slot micro-motion.
    Moved {
        /// The node that moved.
        node: NodeId,
        /// Slot at which the threshold crossing was observed.
        slot: u64,
        /// The previous anchor position.
        from: Point,
        /// The position at the crossing (the new anchor).
        to: Point,
    },
}

impl NodeEvent {
    /// The node this event concerns.
    pub fn node(&self) -> NodeId {
        match *self {
            NodeEvent::Joined { node, .. }
            | NodeEvent::Crashed { node, .. }
            | NodeEvent::Moved { node, .. } => node,
        }
    }

    /// The slot the event was observed at.
    pub fn slot(&self) -> u64 {
        match *self {
            NodeEvent::Joined { slot, .. }
            | NodeEvent::Crashed { slot, .. }
            | NodeEvent::Moved { slot, .. } => slot,
        }
    }
}

/// The engine-side observer state behind [`NodeEvent`] detection: last-known
/// presence, per-node position anchors, and the pending event queue.
#[derive(Debug, Clone)]
pub(crate) struct EventWatch {
    /// Whether each node was present (joined and not crashed) at the last
    /// observed slot.
    present: Vec<bool>,
    /// Position each node's motion is measured against; reset on every
    /// [`NodeEvent::Moved`] emission and on (re)join.
    anchors: Vec<Point>,
    /// Drift (Euclidean distance from the anchor) that triggers a
    /// [`NodeEvent::Moved`] event.
    move_threshold: f64,
    /// Events observed since the last drain.
    events: Vec<NodeEvent>,
}

impl EventWatch {
    pub(crate) fn new(present: Vec<bool>, anchors: Vec<Point>, move_threshold: f64) -> Self {
        assert!(
            move_threshold.is_finite() && move_threshold > 0.0,
            "move threshold must be positive and finite, got {move_threshold}"
        );
        EventWatch {
            present,
            anchors,
            move_threshold,
            events: Vec::new(),
        }
    }

    /// Observes slot `slot`: `absent(i)` is the fault-plan verdict for the
    /// slot, `positions` the (possibly environment-mutated) positions.
    pub(crate) fn observe<F: Fn(usize) -> bool>(
        &mut self,
        slot: u64,
        positions: &[Point],
        absent: F,
    ) {
        for (i, &pos) in positions.iter().enumerate() {
            let now = !absent(i);
            let was = self.present[i];
            if now && !was {
                self.events.push(NodeEvent::Joined {
                    node: NodeId(i as u32),
                    slot,
                });
                // A (re)joining node anchors at its current position.
                self.anchors[i] = pos;
            } else if !now && was {
                self.events.push(NodeEvent::Crashed {
                    node: NodeId(i as u32),
                    slot,
                });
            }
            self.present[i] = now;
            if now {
                let anchor = self.anchors[i];
                if pos.dist_sq(anchor) > self.move_threshold * self.move_threshold {
                    self.events.push(NodeEvent::Moved {
                        node: NodeId(i as u32),
                        slot,
                        from: anchor,
                        to: pos,
                    });
                    self.anchors[i] = pos;
                }
            }
        }
    }

    pub(crate) fn drain(&mut self) -> Vec<NodeEvent> {
        std::mem::take(&mut self.events)
    }
}
