//! Planar points and basic vector arithmetic.
//!
//! All node positions in the simulator are [`Point`]s in the Euclidean
//! plane, matching the paper's model ("nodes … are positioned arbitrarily
//! on a plane", §2). Distances are Euclidean; the SINR crate raises them to
//! the path-loss exponent.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point (or vector) in the Euclidean plane.
///
/// # Examples
///
/// ```
/// use mca_geom::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.dist(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Cheaper than [`Point::dist`]; prefer it for comparisons against a
    /// squared radius.
    #[inline]
    pub fn dist_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean norm (distance from the origin).
    #[inline]
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Midpoint of the segment between `self` and `other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Point on the unit circle at angle `theta` (radians).
    #[inline]
    pub fn unit(theta: f64) -> Point {
        Point::new(theta.cos(), theta.sin())
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.x, self.y)
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_of_345_triangle() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert!((a.dist(b) - 5.0).abs() < 1e-12);
        assert!((a.dist_sq(b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn origin_is_default() {
        assert_eq!(Point::default(), Point::ORIGIN);
        assert_eq!(Point::ORIGIN.norm(), 0.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(a / 2.0, Point::new(0.5, 1.0));
        assert_eq!(-a, Point::new(-1.0, -2.0));
    }

    #[test]
    fn midpoint_and_lerp_agree() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert_eq!(a.midpoint(b), a.lerp(b, 0.5));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }

    #[test]
    fn unit_circle_points() {
        let p = Point::unit(0.0);
        assert!((p.x - 1.0).abs() < 1e-12 && p.y.abs() < 1e-12);
        let q = Point::unit(std::f64::consts::FRAC_PI_2);
        assert!(q.x.abs() < 1e-12 && (q.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conversions_roundtrip() {
        let p: Point = (1.5, -2.5).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.5, -2.5));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Point::ORIGIN).is_empty());
        assert!(!format!("{:?}", Point::ORIGIN).is_empty());
    }

    fn arb_point() -> impl Strategy<Value = Point> {
        (-1e4..1e4f64, -1e4..1e4f64).prop_map(|(x, y)| Point::new(x, y))
    }

    proptest! {
        #[test]
        fn dist_symmetric(a in arb_point(), b in arb_point()) {
            prop_assert!((a.dist(b) - b.dist(a)).abs() < 1e-9);
        }

        #[test]
        fn dist_nonnegative_and_identity(a in arb_point(), b in arb_point()) {
            prop_assert!(a.dist(b) >= 0.0);
            prop_assert!(a.dist(a) == 0.0);
        }

        #[test]
        fn triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
            prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-9);
        }

        #[test]
        fn dist_sq_consistent(a in arb_point(), b in arb_point()) {
            let d = a.dist(b);
            prop_assert!((d * d - a.dist_sq(b)).abs() < 1e-6 * (1.0 + a.dist_sq(b)));
        }
    }
}
