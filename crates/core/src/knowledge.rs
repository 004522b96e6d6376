//! Per-node knowledge carried between construction phases.
//!
//! The pipeline of §5 runs as a sequence of synchronized phases; what a node
//! carries from one phase to the next is exactly what it *learned locally*
//! (its role, dominator, cluster color, size estimate, channel, …). The
//! orchestrator in [`crate::structure`] moves these records between phase
//! protocols without ever injecting global information.

use mca_radio::{Channel, NodeId};

/// A node's role in the aggregation structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// Not yet determined (before the dominating-set phase completes).
    #[default]
    Undecided,
    /// Cluster head: local leader, tree root, backbone member.
    Dominator,
    /// Cluster member elected reporter on a channel; `heap_pos` is its
    /// 1-based position in the reporter tree (= channel index + 1).
    Reporter {
        /// 1-based heap position in the cluster's reporter tree.
        heap_pos: u16,
    },
    /// Ordinary cluster member.
    Follower,
}

impl Role {
    /// Whether the node heads a cluster.
    pub fn is_dominator(&self) -> bool {
        matches!(self, Role::Dominator)
    }

    /// Whether the node is a reporter.
    pub fn is_reporter(&self) -> bool {
        matches!(self, Role::Reporter { .. })
    }
}

/// Everything a node has learned during structure construction.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// The node's own id.
    pub id: NodeId,
    /// Role in the structure.
    pub role: Role,
    /// Cluster identifier = the dominator's node id (self for dominators).
    pub cluster: Option<NodeId>,
    /// RSSI-estimated distance to the dominator (dominators: 0).
    pub dominator_dist: Option<f64>,
    /// Cluster color from §5.1.2 (same color ⇒ clusters `R_{ε/2}`-separated).
    pub cluster_color: Option<u16>,
    /// Constant-factor estimate of the cluster size (CSA output).
    pub cluster_size_est: Option<u64>,
    /// Number of channels `f_v` the cluster uses (derived from the size
    /// estimate; identical at every cluster member).
    pub cluster_channels: Option<u16>,
    /// The channel this node selected within its cluster.
    pub channel: Option<Channel>,
    /// The reporter this follower delivered its data to (aggregation phase).
    pub reporter: Option<NodeId>,
    /// Dominators only: whether this dominator observed no reporter
    /// election on the first channel and therefore serves as its cluster's
    /// channel-0 reporter during aggregation.
    pub serves_channel0: bool,
    /// Final node color (coloring algorithm of §7).
    pub color: Option<u32>,
}

impl NodeRecord {
    /// A fresh record for node `id`.
    pub fn new(id: NodeId) -> Self {
        NodeRecord {
            id,
            role: Role::Undecided,
            cluster: None,
            dominator_dist: None,
            cluster_color: None,
            cluster_size_est: None,
            cluster_channels: None,
            channel: None,
            reporter: None,
            serves_channel0: false,
            color: None,
        }
    }

    /// Marks the node a dominator (cluster = self).
    pub fn make_dominator(&mut self) {
        self.role = Role::Dominator;
        self.cluster = Some(self.id);
        self.dominator_dist = Some(0.0);
    }

    /// Marks the node a member of `dominator`'s cluster at estimated
    /// distance `dist`.
    pub fn make_member(&mut self, dominator: NodeId, dist: f64) {
        self.role = Role::Follower;
        self.cluster = Some(dominator);
        self.dominator_dist = Some(dist);
    }

    /// Clears everything the node learned about its cluster (it keeps
    /// existing, and keeps its §7 color, but belongs to no cluster until
    /// re-homed).
    pub fn detach(&mut self) {
        *self = NodeRecord {
            color: self.color,
            ..NodeRecord::new(self.id)
        };
    }

    /// Whether the node completed clustering (has a cluster).
    pub fn is_clustered(&self) -> bool {
        self.cluster.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_record_is_blank() {
        let r = NodeRecord::new(NodeId(3));
        assert_eq!(r.role, Role::Undecided);
        assert!(!r.is_clustered());
        assert!(r.color.is_none());
    }

    #[test]
    fn dominator_transition() {
        let mut r = NodeRecord::new(NodeId(3));
        r.make_dominator();
        assert!(r.role.is_dominator());
        assert_eq!(r.cluster, Some(NodeId(3)));
        assert_eq!(r.dominator_dist, Some(0.0));
    }

    #[test]
    fn member_transition() {
        let mut r = NodeRecord::new(NodeId(4));
        r.make_member(NodeId(1), 0.7);
        assert_eq!(r.role, Role::Follower);
        assert_eq!(r.cluster, Some(NodeId(1)));
        assert!(r.is_clustered());
    }

    #[test]
    fn role_queries() {
        assert!(Role::Dominator.is_dominator());
        assert!(!Role::Follower.is_dominator());
        assert!(Role::Reporter { heap_pos: 2 }.is_reporter());
        assert!(!Role::Undecided.is_reporter());
    }
}
