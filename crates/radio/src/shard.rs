//! Spatial sharding of the simulation plane.
//!
//! A [`ShardMap`] partitions the deployment's bounding box into an `S×S`
//! grid of shards and maintains a node→shard assignment. The engine's
//! sharded Phase 2 ([`Engine::with_shards`](crate::Engine::with_shards))
//! groups each channel's listeners by shard and resolves the resulting
//! (channel × shard) units independently — inline, or across the pool's
//! threads when the slot's units are big enough
//! ([`POOL_UNIT_WORK`](crate::POOL_UNIT_WORK)) — merging outcomes in
//! deterministic shard-major order.
//!
//! # The assignment is a hint, never an input to physics
//!
//! Reception is resolved per listener by a pure function of the channel's
//! transmitter set (`mca-sinr`'s `ChannelResolver`/`TaskResolver`), so
//! *which* shard a listener is grouped under affects cache locality and
//! parallel granularity — never a single output bit. That is what lets the
//! assignment be maintained **incrementally** off the engine's
//! [`NodeEvent`](crate::NodeEvent) stream (motion beyond a threshold,
//! joins) instead of being recomputed from positions every slot: a node
//! that has drifted sub-threshold is simply resolved under its last
//! shard's task, whose halo classification is computed from the task's
//! *actual* listener bounding box and therefore stays sound.

use mca_geom::{BoundingBox, Point};

/// Hard cap on shards per axis (the scratch the engine's bucketing pass
/// keeps is `S² + 1` counters).
pub const MAX_SHARDS_PER_AXIS: u16 = 64;

/// Target minimum listeners per resolve unit: a channel's shard grid is
/// coarsened (see [`effective_shards`]) until the *expected* unit size
/// reaches this, so per-unit scheduling overhead (bucketing, bounding
/// box, halo classification) stays amortized. A channel therefore shards
/// at all only with at least `4 · MIN_UNIT_RX` listeners (the smallest
/// count whose effective grid reaches 2×2); below that it resolves as a
/// single unit. Execution-only: whether and how finely sharding engages
/// never changes an outcome.
pub const MIN_UNIT_RX: usize = 32;

/// Effective shards per axis for a channel with `rx` listeners: the
/// configured `s`, coarsened so `rx / s_eff²` stays at or above
/// [`MIN_UNIT_RX`]. Returns 1 (a single unit) for small channels. A pure
/// function of the two counts — which grid a channel resolves under is
/// an execution choice and never changes an outcome.
pub fn effective_shards(s: u16, rx: usize) -> u16 {
    let cap = ((rx / MIN_UNIT_RX) as f64).sqrt() as u16;
    s.min(cap).max(1)
}

/// An `S×S` spatial partition of the plane with a per-node assignment.
///
/// # Examples
///
/// ```
/// use mca_radio::ShardMap;
/// use mca_geom::Point;
///
/// let positions = vec![Point::new(0.0, 0.0), Point::new(9.0, 9.0)];
/// let map = ShardMap::new(2, &positions);
/// assert_eq!(map.shards(), 2);
/// assert_ne!(map.shard_of(0), map.shard_of(1));
/// ```
#[derive(Debug, Clone)]
pub struct ShardMap {
    s: u16,
    bounds: BoundingBox,
    inv_w: f64,
    inv_h: f64,
    assign: Vec<u16>,
}

impl ShardMap {
    /// Partitions the bounding box of `positions` into `s × s` shards and
    /// assigns every node to the shard containing its position.
    ///
    /// # Panics
    ///
    /// Panics if `s` is 0 or exceeds [`MAX_SHARDS_PER_AXIS`], or if any
    /// position is non-finite.
    pub fn new(s: u16, positions: &[Point]) -> Self {
        assert!(
            (1..=MAX_SHARDS_PER_AXIS).contains(&s),
            "shard count per axis must lie in 1..={MAX_SHARDS_PER_AXIS}, got {s}"
        );
        for (i, p) in positions.iter().enumerate() {
            assert!(p.is_finite(), "node {i} has a non-finite position");
        }
        let bounds = BoundingBox::from_points(positions.iter().copied())
            .unwrap_or_else(|| BoundingBox::square(1.0));
        // Degenerate extents (all nodes colinear or coincident) still get a
        // well-defined partition: every inverse stays finite.
        let inv_w = f64::from(s) / bounds.width().max(f64::MIN_POSITIVE);
        let inv_h = f64::from(s) / bounds.height().max(f64::MIN_POSITIVE);
        let mut map = ShardMap {
            s,
            bounds,
            inv_w,
            inv_h,
            assign: Vec::new(),
        };
        map.assign = positions.iter().map(|&p| map.locate(p)).collect();
        map
    }

    /// Shards per axis (`S`; the partition has `S²` shards).
    pub fn shards(&self) -> u16 {
        self.s
    }

    /// Total number of shards (`S²`).
    pub fn shard_count(&self) -> usize {
        usize::from(self.s) * usize::from(self.s)
    }

    /// Number of assigned nodes.
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// Whether no nodes are assigned.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// The partitioned area (the deployment bounding box at build time).
    pub fn bounds(&self) -> BoundingBox {
        self.bounds
    }

    /// Shard side lengths `(width, height)`.
    pub fn shard_size(&self) -> (f64, f64) {
        (
            self.bounds.width().max(f64::MIN_POSITIVE) / f64::from(self.s),
            self.bounds.height().max(f64::MIN_POSITIVE) / f64::from(self.s),
        )
    }

    /// The shard id containing `p` (positions outside the bounds clamp to
    /// the nearest boundary shard).
    pub fn locate(&self, p: Point) -> u16 {
        let s = usize::from(self.s);
        let cx = (((p.x - self.bounds.min().x) * self.inv_w) as usize).min(s - 1);
        let cy = (((p.y - self.bounds.min().y) * self.inv_h) as usize).min(s - 1);
        (cy * s + cx) as u16
    }

    /// The node's current shard assignment.
    #[inline]
    pub fn shard_of(&self, node: u32) -> u16 {
        self.assign[node as usize]
    }

    /// The node's shard under a coarsened `s_eff × s_eff` view of this
    /// map's grid (`s_eff ≤ S`; see [`effective_shards`]): full-grid
    /// columns/rows merge evenly into coarse ones, so nearby shards stay
    /// nearby.
    #[inline]
    pub fn coarse_shard_of(&self, node: u32, s_eff: u16) -> u16 {
        debug_assert!((1..=self.s).contains(&s_eff));
        let sid = self.assign[node as usize];
        let (sx, sy) = (sid % self.s, sid / self.s);
        (sy * s_eff / self.s) * s_eff + sx * s_eff / self.s
    }

    /// Reassigns `node` to the shard containing `p` — the incremental
    /// update applied when the engine observes a
    /// [`NodeEvent::Moved`](crate::NodeEvent::Moved) or
    /// [`NodeEvent::Joined`](crate::NodeEvent::Joined) for it.
    pub fn reassign(&mut self, node: u32, p: Point) {
        let sid = self.locate(p);
        self.assign[node as usize] = sid;
    }

    /// The rectangle of shard `sid` (edge shards conceptually extend
    /// beyond the bounds; this is the in-bounds rectangle).
    pub fn rect(&self, sid: u16) -> BoundingBox {
        let s = usize::from(self.s);
        let (w, h) = self.shard_size();
        let (cx, cy) = (usize::from(sid) % s, usize::from(sid) / s);
        let min = Point::new(
            self.bounds.min().x + cx as f64 * w,
            self.bounds.min().y + cy as f64 * h,
        );
        BoundingBox::new(min, Point::new(min.x + w, min.y + h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn partition_covers_and_clamps() {
        let mut rng = SmallRng::seed_from_u64(5);
        let positions: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)))
            .collect();
        let map = ShardMap::new(4, &positions);
        assert_eq!(map.len(), 200);
        assert_eq!(map.shard_count(), 16);
        for (i, &p) in positions.iter().enumerate() {
            let sid = map.shard_of(i as u32);
            assert!(usize::from(sid) < 16);
            assert_eq!(sid, map.locate(p));
            // The in-bounds rectangle of the assigned shard contains the
            // point up to boundary ties (locate uses half-open cells).
            let r = map.rect(sid).inflated(1e-9);
            assert!(r.contains(p), "node {i} at {p:?} outside shard {sid}");
        }
        // Points far outside clamp to boundary shards.
        assert_eq!(map.locate(Point::new(-100.0, -100.0)), 0);
        assert_eq!(map.locate(Point::new(1e6, 1e6)), 15);
    }

    #[test]
    fn reassign_follows_motion() {
        let positions = vec![Point::new(1.0, 1.0), Point::new(9.0, 9.0)];
        let mut map = ShardMap::new(2, &positions);
        let before = map.shard_of(0);
        map.reassign(0, Point::new(9.0, 9.0));
        assert_ne!(map.shard_of(0), before);
        assert_eq!(map.shard_of(0), map.shard_of(1));
    }

    #[test]
    fn degenerate_geometries_are_fine() {
        // Single node, coincident nodes, a perfect line: all partition.
        for positions in [
            vec![Point::new(3.0, 3.0)],
            vec![Point::new(1.0, 1.0); 5],
            (0..10).map(|i| Point::new(i as f64, 2.0)).collect(),
        ] {
            let map = ShardMap::new(3, &positions);
            for i in 0..positions.len() {
                assert!(usize::from(map.shard_of(i as u32)) < 9);
            }
        }
        let empty = ShardMap::new(2, &[]);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "shard count per axis")]
    fn zero_shards_rejected() {
        ShardMap::new(0, &[]);
    }
}
