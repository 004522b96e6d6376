//! Axis-aligned bounding boxes for deployments and spatial indexing.

use crate::point::Point;

/// An axis-aligned bounding box `[min_x, max_x] × [min_y, max_y]`.
///
/// # Examples
///
/// ```
/// use mca_geom::{BoundingBox, Point};
/// let bb = BoundingBox::from_points([Point::new(0.0, 1.0), Point::new(2.0, -1.0)]).unwrap();
/// assert!(bb.contains(Point::new(1.0, 0.0)));
/// assert_eq!(bb.width(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    min: Point,
    max: Point,
}

impl BoundingBox {
    /// Creates a box from two opposite corners (in any order).
    pub fn new(a: Point, b: Point) -> Self {
        BoundingBox {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The square `[0, side] × [0, side]`.
    pub fn square(side: f64) -> Self {
        BoundingBox::new(Point::ORIGIN, Point::new(side, side))
    }

    /// Smallest box containing all `points`, or `None` if empty.
    pub fn from_points<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut bb = BoundingBox::new(first, first);
        for p in it {
            bb.expand(p);
        }
        Some(bb)
    }

    /// Grows the box to include `p`.
    pub fn expand(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Returns a copy grown by `margin` on every side.
    pub fn inflated(&self, margin: f64) -> Self {
        BoundingBox {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// Lower-left corner.
    pub fn min(&self) -> Point {
        self.min
    }

    /// Upper-right corner.
    pub fn max(&self) -> Point {
        self.max
    }

    /// Horizontal extent.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Vertical extent.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the box.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point of the box.
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Whether `p` lies inside the box (boundary inclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The nearest point of the box to `p` (identity for interior points).
    /// Mobility models use this to keep moving nodes inside the deployment
    /// area.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Squared distance from `p` to the nearest point of the box
    /// (0 for interior points). The interference engine classifies grid
    /// cells as near/far by this against a squared cutoff radius.
    #[inline]
    pub fn dist_sq_to(&self, p: Point) -> f64 {
        self.clamp(p).dist_sq(p)
    }

    /// Squared distance from `p` to the farthest point of the box (one of
    /// the four corners). Together with [`BoundingBox::dist_sq_to`] this
    /// brackets the distance from `p` to *any* point inside the box —
    /// the interval the batched SINR resolver's far-field error bound is
    /// built from.
    #[inline]
    pub fn max_dist_sq_to(&self, p: Point) -> f64 {
        let dx = (p.x - self.min.x).abs().max((p.x - self.max.x).abs());
        let dy = (p.y - self.min.y).abs().max((p.y - self.max.y).abs());
        dx * dx + dy * dy
    }

    /// Squared distance between the nearest points of this box and `other`
    /// (0 when they intersect). For any `p` in `other`,
    /// `self.dist_sq_to(p) >= self.dist_sq_to_box(other)` — the monotonicity
    /// the sharded resolver's per-task halo classification relies on: a
    /// block farther than a threshold from a whole listener bounding box is
    /// farther than that threshold from every listener in it.
    #[inline]
    pub fn dist_sq_to_box(&self, other: &BoundingBox) -> f64 {
        let dx = (other.min.x - self.max.x)
            .max(self.min.x - other.max.x)
            .max(0.0);
        let dy = (other.min.y - self.max.y)
            .max(self.min.y - other.max.y)
            .max(0.0);
        dx * dx + dy * dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn corners_normalized() {
        let bb = BoundingBox::new(Point::new(2.0, -1.0), Point::new(-3.0, 4.0));
        assert_eq!(bb.min(), Point::new(-3.0, -1.0));
        assert_eq!(bb.max(), Point::new(2.0, 4.0));
        assert_eq!(bb.width(), 5.0);
        assert_eq!(bb.height(), 5.0);
        assert_eq!(bb.area(), 25.0);
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(BoundingBox::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [
            Point::new(1.0, 1.0),
            Point::new(-2.0, 3.0),
            Point::new(0.5, -4.0),
        ];
        let bb = BoundingBox::from_points(pts).unwrap();
        for p in pts {
            assert!(bb.contains(p));
        }
    }

    #[test]
    fn square_and_center() {
        let bb = BoundingBox::square(10.0);
        assert_eq!(bb.center(), Point::new(5.0, 5.0));
        assert!(bb.contains(Point::new(0.0, 0.0)));
        assert!(bb.contains(Point::new(10.0, 10.0)));
        assert!(!bb.contains(Point::new(10.0001, 5.0)));
    }

    #[test]
    fn inflate_contains_boundary_neighborhood() {
        let bb = BoundingBox::square(1.0).inflated(0.5);
        assert!(bb.contains(Point::new(-0.5, -0.5)));
        assert!(bb.contains(Point::new(1.5, 1.5)));
    }

    #[test]
    fn clamp_projects_onto_box() {
        let bb = BoundingBox::square(2.0);
        assert_eq!(bb.clamp(Point::new(1.0, 1.5)), Point::new(1.0, 1.5));
        assert_eq!(bb.clamp(Point::new(-1.0, 3.0)), Point::new(0.0, 2.0));
        assert_eq!(bb.clamp(Point::new(5.0, -2.0)), Point::new(2.0, 0.0));
        let clamped = bb.clamp(Point::new(9.0, 9.0));
        assert!(bb.contains(clamped));
    }

    #[test]
    fn box_to_box_distance() {
        let a = BoundingBox::square(1.0);
        let b = BoundingBox::new(Point::new(4.0, 0.0), Point::new(5.0, 1.0));
        assert_eq!(a.dist_sq_to_box(&b), 9.0);
        assert_eq!(b.dist_sq_to_box(&a), 9.0);
        // Overlapping and touching boxes are at distance 0.
        let c = BoundingBox::new(Point::new(0.5, 0.5), Point::new(2.0, 2.0));
        assert_eq!(a.dist_sq_to_box(&c), 0.0);
        let d = BoundingBox::new(Point::new(1.0, 0.0), Point::new(2.0, 1.0));
        assert_eq!(a.dist_sq_to_box(&d), 0.0);
        // Diagonal separation combines both axes.
        let e = BoundingBox::new(Point::new(4.0, 5.0), Point::new(6.0, 7.0));
        assert_eq!(a.dist_sq_to_box(&e), 9.0 + 16.0);
        // Monotonicity vs point distance: points inside b are no closer
        // than the box-to-box distance.
        for p in [Point::new(4.0, 0.5), Point::new(5.0, 1.0)] {
            assert!(a.dist_sq_to(p) >= a.dist_sq_to_box(&b));
        }
    }

    proptest! {
        #[test]
        fn expand_is_monotone(xs in proptest::collection::vec((-100.0..100.0f64, -100.0..100.0f64), 1..50)) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let bb = BoundingBox::from_points(pts.iter().copied()).unwrap();
            for p in &pts {
                prop_assert!(bb.contains(*p));
            }
            prop_assert!(bb.area() >= 0.0);
        }
    }
}
