//! 2-D points with the handful of vector operations the simulator needs.

use std::ops::{Add, Div, Mul, Sub};

/// A point (or displacement) in the 2-D sensing field, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// X coordinate in meters.
    pub x: f64,
    /// Y coordinate in meters.
    pub y: f64,
}

impl Point2 {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2::new(0.0, 0.0);

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point2) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the square root when
    /// only comparisons are needed, e.g. in range queries).
    #[inline]
    pub fn distance_squared(self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean norm when interpreting the point as a displacement vector.
    #[inline]
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    ///
    /// Used to place an RV partway along a route leg.
    #[inline]
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        Point2::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Midpoint between `self` and `other`.
    #[inline]
    pub fn midpoint(self, other: Point2) -> Point2 {
        self.lerp(other, 0.5)
    }

    /// Arithmetic mean of a non-empty set of points (e.g. a cluster
    /// centroid). Returns `None` for an empty slice.
    pub fn centroid(points: &[Point2]) -> Option<Point2> {
        if points.is_empty() {
            return None;
        }
        let mut acc = Point2::ORIGIN;
        for p in points {
            acc = acc + *p;
        }
        Some(acc / points.len() as f64)
    }

    /// True when every coordinate is finite (not NaN/∞).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn mul(self, rhs: f64) -> Point2 {
        Point2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn div(self, rhs: f64) -> Point2 {
        Point2::new(self.x / rhs, self.y / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(4.0, 6.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert!((a.distance_squared(b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point2::new(-3.5, 7.25);
        assert_eq!(p.distance(p), 0.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, -4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.midpoint(b), Point2::new(5.0, -2.0));
    }

    #[test]
    fn centroid_of_square_is_center() {
        let pts = [
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(2.0, 2.0),
            Point2::new(0.0, 2.0),
        ];
        let c = Point2::centroid(&pts).unwrap();
        assert!((c.x - 1.0).abs() < 1e-12 && (c.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_empty_is_none() {
        assert!(Point2::centroid(&[]).is_none());
    }

    #[test]
    fn vector_ops() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, 5.0);
        assert_eq!(a + b, Point2::new(4.0, 7.0));
        assert_eq!(b - a, Point2::new(2.0, 3.0));
        assert_eq!(a * 2.0, Point2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point2::new(1.5, 2.5));
        assert!((Point2::new(3.0, 4.0).norm() - 5.0).abs() < 1e-12);
    }
}
