//! The square sensing field of the paper's network model (§II-A).

use crate::Point2;
use rand::Rng;

/// A square sensing field with side length `side` meters and its lower-left
/// corner at the origin. The base station sits at the field center (§II-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Field {
    side: f64,
}

impl Field {
    /// Creates a field with the given side length (meters).
    ///
    /// # Panics
    /// Panics if `side` is not strictly positive and finite.
    pub fn new(side: f64) -> Self {
        assert!(
            side.is_finite() && side > 0.0,
            "field side must be positive, got {side}"
        );
        Self { side }
    }

    /// Side length in meters.
    #[inline]
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Field area `S_a = L²` in m².
    #[inline]
    pub fn area(&self) -> f64 {
        self.side * self.side
    }

    /// The field center, where the base station is located.
    #[inline]
    pub fn center(&self) -> Point2 {
        Point2::new(self.side / 2.0, self.side / 2.0)
    }

    /// Whether `p` lies inside the field (inclusive of the boundary).
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= 0.0 && p.y >= 0.0 && p.x <= self.side && p.y <= self.side
    }

    /// Samples a single uniformly random location in the field.
    pub fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Point2 {
        Point2::new(
            rng.gen_range(0.0..=self.side),
            rng.gen_range(0.0..=self.side),
        )
    }

    /// Deploys `n` sensors uniformly at random over the field (§II-B random
    /// sensor deployment).
    pub fn deploy_uniform<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Point2> {
        (0..n).map(|_| self.random_point(rng)).collect()
    }

    /// Clamps a point onto the field, used to keep mobile entities inside.
    pub fn clamp(&self, p: Point2) -> Point2 {
        Point2::new(p.x.clamp(0.0, self.side), p.y.clamp(0.0, self.side))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn center_and_area() {
        let f = Field::new(200.0);
        assert_eq!(f.center(), Point2::new(100.0, 100.0));
        assert_eq!(f.area(), 40_000.0);
    }

    #[test]
    fn deployment_is_inside_and_deterministic() {
        let f = Field::new(200.0);
        let mut a = rand::rngs::StdRng::seed_from_u64(42);
        let mut b = rand::rngs::StdRng::seed_from_u64(42);
        let pa = f.deploy_uniform(100, &mut a);
        let pb = f.deploy_uniform(100, &mut b);
        assert_eq!(pa, pb);
        assert!(pa.iter().all(|p| f.contains(*p)));
    }

    #[test]
    fn clamp_pulls_points_inside() {
        let f = Field::new(10.0);
        assert_eq!(f.clamp(Point2::new(-1.0, 20.0)), Point2::new(0.0, 10.0));
        let inside = Point2::new(3.0, 4.0);
        assert_eq!(f.clamp(inside), inside);
    }

    #[test]
    #[should_panic(expected = "field side must be positive")]
    fn zero_side_panics() {
        Field::new(0.0);
    }
}
