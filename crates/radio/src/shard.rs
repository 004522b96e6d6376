//! Spatial sharding of a channel's listeners.
//!
//! A [`ShardMap`] slices a bounding box into an `S×S` grid of shards. The
//! engine's Phase 2 lays one over the box of each big channel's staged
//! listener positions, every slot, groups the listeners by the cell they
//! stand in and resolves the resulting (channel × shard) units
//! independently — inline, or across the pool's threads when the slot's
//! units are big enough ([`POOL_UNIT_WORK`]) — merging outcomes in
//! deterministic shard-major order. Nobody configures the grid:
//! [`unit_grid`] derives it per channel from the pool's width, the
//! channel's listener count and its index's work estimate.
//!
//! # The partition is a hint, never an input to physics
//!
//! Reception is resolved per listener by a pure function of the channel's
//! transmitter set (`mca-sinr`'s `ChannelResolver`/`TaskResolver`), so
//! *which* shard a listener is grouped under affects cache locality and
//! parallel granularity — never a single output bit. A unit's halo
//! classification is computed from the bounding box of the listeners it
//! actually holds, not from its cell's rectangle, so it is sound wherever
//! the grid lines fall. That is also why nothing about the partition is
//! kept: a listener's shard is a function of the position the slot staged
//! for it, read off when the channel is bucketed and forgotten after, and
//! why the grid may follow the worker count.

use crate::POOL_UNIT_WORK;
use mca_geom::{BoundingBox, Point};

/// Hard cap on shards per axis (the scratch the engine's bucketing pass
/// keeps is `S² + 1` counters).
pub const MAX_SHARDS_PER_AXIS: u16 = 64;

/// Target minimum listeners per resolve unit, so per-unit overhead
/// (bucketing, bounding box, halo classification) stays amortized: a
/// channel shards only from `4 · MIN_UNIT_RX` listeners up.
pub const MIN_UNIT_RX: usize = 32;

/// Shards per axis for one channel of one slot: `rx` listeners at an
/// estimated `work_per_listener` power evaluations each, on a pool of
/// `workers` threads. One worker gets one unit: a grid buys no locality,
/// only a parallel grain. Otherwise the side is the smallest of
/// `√(32 · workers)` (cells enough for stealing to balance; 8 at two
/// workers), `√(rx / MIN_UNIT_RX)` and `√(rx · work_per_listener /
/// POOL_UNIT_WORK)` (every unit worth a pool task), clamped to
/// `1..=MAX_SHARDS_PER_AXIS`. An execution choice only: the grid never
/// changes an outcome.
pub fn unit_grid(workers: usize, rx: usize, work_per_listener: usize) -> u16 {
    if workers <= 1 {
        return 1;
    }
    // The floor of a square root is monotone: the smallest side is the
    // side of the smallest cell count.
    let cells = (32 * workers)
        .min(rx / MIN_UNIT_RX)
        .min(rx.saturating_mul(work_per_listener) / POOL_UNIT_WORK);
    cells.isqrt().clamp(1, usize::from(MAX_SHARDS_PER_AXIS)) as u16
}

/// An `S×S` grid over a bounding box: dimensions, bounds and the two
/// per-axis scale factors [`ShardMap::locate`] multiplies by.
///
/// # Examples
///
/// ```
/// use mca_radio::ShardMap;
/// use mca_geom::{BoundingBox, Point};
///
/// let map = ShardMap::over(2, BoundingBox::new(Point::new(0.0, 0.0), Point::new(9.0, 9.0)));
/// assert_eq!(map.shard_count(), 4);
/// assert_eq!(map.locate(Point::new(1.0, 1.0)), 0);
/// assert_eq!(map.locate(Point::new(8.0, 8.0)), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ShardMap {
    s: u16,
    bounds: BoundingBox,
    inv_w: f64,
    inv_h: f64,
}

impl ShardMap {
    /// Slices `bounds` into `s × s` shards.
    ///
    /// A degenerate axis (every point on one line, or on one spot) has no
    /// extent to slice: its scale factor is 0, so every point lands in its
    /// first column or row. Both factors are finite whatever the bounds —
    /// `s / extent` overflows for a vanishing extent, and `0 · ∞` in
    /// [`ShardMap::locate`] would be NaN.
    ///
    /// # Panics
    ///
    /// Panics if `s` is 0 or exceeds [`MAX_SHARDS_PER_AXIS`].
    pub fn over(s: u16, bounds: BoundingBox) -> Self {
        assert!(
            (1..=MAX_SHARDS_PER_AXIS).contains(&s),
            "shard count per axis must lie in 1..={MAX_SHARDS_PER_AXIS}, got {s}"
        );
        let inverse = |extent: f64| {
            let inv = f64::from(s) / extent;
            if inv.is_finite() {
                inv
            } else {
                0.0
            }
        };
        ShardMap {
            s,
            bounds,
            inv_w: inverse(bounds.width()),
            inv_h: inverse(bounds.height()),
        }
    }

    /// Total number of shards (`S²`).
    pub fn shard_count(&self) -> usize {
        usize::from(self.s) * usize::from(self.s)
    }

    /// The shard id containing `p` (positions outside the bounds clamp to
    /// the nearest boundary shard).
    pub fn locate(&self, p: Point) -> u16 {
        let s = usize::from(self.s);
        let cx = (((p.x - self.bounds.min().x) * self.inv_w) as usize).min(s - 1);
        let cy = (((p.y - self.bounds.min().y) * self.inv_h) as usize).min(s - 1);
        (cy * s + cx) as u16
    }

    /// The rectangle of shard `sid` (edge shards conceptually extend
    /// beyond the bounds; this is the in-bounds rectangle).
    pub fn rect(&self, sid: u16) -> BoundingBox {
        let s = usize::from(self.s);
        let w = self.bounds.width() / f64::from(self.s);
        let h = self.bounds.height() / f64::from(self.s);
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

    fn over_points(s: u16, points: &[Point]) -> ShardMap {
        ShardMap::over(s, BoundingBox::from_points(points.iter().copied()).unwrap())
    }

    #[test]
    fn partition_covers_and_clamps() {
        let mut rng = SmallRng::seed_from_u64(5);
        let positions: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)))
            .collect();
        let map = over_points(4, &positions);
        assert_eq!(map.shard_count(), 16);
        for (i, &p) in positions.iter().enumerate() {
            let sid = map.locate(p);
            assert!(usize::from(sid) < 16);
            // The in-bounds rectangle of the located shard contains the
            // point up to boundary ties (locate uses half-open cells).
            let r = map.rect(sid).inflated(1e-9);
            assert!(r.contains(p), "node {i} at {p:?} outside shard {sid}");
        }
        // Points far outside clamp to boundary shards.
        assert_eq!(map.locate(Point::new(-100.0, -100.0)), 0);
        assert_eq!(map.locate(Point::new(1e6, 1e6)), 15);
    }

    #[test]
    fn degenerate_geometries_are_fine() {
        // An axis without extent has one column (or row), the first, and
        // the other axis still slices: a line from 0 to 10 with one point
        // at the middle of every cell. `S = 3` is the largest grid whose
        // `S / f64::MIN_POSITIVE` stays finite; the sizes straddle it.
        for s in [2u16, 3, 4, 8, 64] {
            let mids: Vec<f64> = (0..s)
                .map(|c| (f64::from(c) + 0.5) * 10.0 / f64::from(s))
                .collect();
            let along: Vec<f64> = [0.0, 10.0].into_iter().chain(mids).collect();
            let cell = |k: usize| match k {
                0 => 0,
                1 => s - 1,
                _ => k as u16 - 2,
            };
            // A horizontal line, a vertical one, and a vertical one whose
            // width is too small to divide by.
            let line = |place: fn(f64) -> Point| along.iter().map(|&t| place(t)).collect();
            let lines: [(Vec<Point>, u16); 3] = [
                (line(|t| Point::new(t, 2.0)), 1),
                (line(|t| Point::new(-3.0, t)), s),
                (
                    line(|t| Point::new(if t < 10.0 { 0.0 } else { 5e-324 }, t)),
                    s,
                ),
            ];
            for (line, stride) in lines {
                let map = over_points(s, &line);
                for (k, &p) in line.iter().enumerate() {
                    assert_eq!(map.locate(p), cell(k) * stride, "S = {s}, {p:?}");
                }
            }
            for spot in [vec![Point::new(3.0, 3.0)], vec![Point::new(1.0, 1.0); 5]] {
                let map = over_points(s, &spot);
                assert_eq!(map.locate(spot[0]), 0, "S = {s}");
                // Clamping still holds around a grid of one point.
                assert_eq!(map.locate(Point::new(-7.0, 9.0)), 0, "S = {s}");
            }
        }
    }

    #[test]
    fn unit_grid_follows_workers_listeners_and_work() {
        for (workers, rx, wpl, grid) in [
            // One worker: one unit, however big the channel.
            (1, 40_000, 850, 1),
            (1, 1_000_000, 10_000, 1),
            // `dense-engine`'s channel (≈ 40 000 listeners at ≈ 850
            // evaluations each): the worker term binds.
            (2, 40_000, 850, 8),
            (4, 40_000, 850, 11),
            (8, 40_000, 850, 16),
            (1024, 1_000_000, 10_000, MAX_SHARDS_PER_AXIS),
            // The listener term binds: 32 listeners per unit.
            (8, 4 * MIN_UNIT_RX, 1 << 20, 2),
            (8, 4 * MIN_UNIT_RX - 1, 1 << 20, 1),
            (8, 9 * MIN_UNIT_RX, 1 << 20, 3),
            // The work term binds: a pool task's worth per unit.
            (8, POOL_UNIT_WORK, 9, 3),
            (8, POOL_UNIT_WORK, 4, 2),
            (8, POOL_UNIT_WORK, 3, 1),
            (8, usize::MAX, usize::MAX, 16),
            (2, 0, 0, 1),
        ] {
            assert_eq!(
                unit_grid(workers, rx, wpl),
                grid,
                "{workers} × {rx} × {wpl}"
            );
        }
        // Under `4 · POOL_UNIT_WORK` of work, a channel is one unit at any
        // width and any split of its work into listeners.
        for workers in [2, 8, 64] {
            for rx in [128, 500, 4 * POOL_UNIT_WORK - 1] {
                let wpl = (4 * POOL_UNIT_WORK - 1) / rx;
                assert_eq!(unit_grid(workers, rx, wpl), 1, "{workers} × {rx} × {wpl}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "shard count per axis")]
    fn zero_shards_rejected() {
        ShardMap::over(0, BoundingBox::square(1.0));
    }
}
