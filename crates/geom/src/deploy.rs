//! Sensor deployment strategies.
//!
//! §II-B of the paper argues for uniform random deployment (low labor
//! cost, feasible from the air) over deterministic placement, citing the
//! coverage-optimal lattices of \[16\]–\[18\]. Both families are implemented
//! here so the trade-off is measurable instead of rhetorical:
//!
//! * [`Deployment::UniformRandom`] — the paper's choice;
//! * [`Deployment::Grid`] — a square lattice (the simplest deterministic
//!   scheme);
//! * [`Deployment::Hex`] — the hexagonal (triangular-lattice) placement
//!   that achieves optimal disk coverage \[20\];
//! * [`Deployment::Jittered`] — grid cells with uniform jitter, a common
//!   compromise between the two (aerial drop along flight lines).

use crate::{Field, Point2};
use rand::Rng;

/// How sensors are placed on the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// Uniformly random positions (§II-B, the paper's model).
    UniformRandom,
    /// Square lattice sized to hold the requested count.
    Grid,
    /// Hexagonal lattice (rows offset by half a pitch) — the optimal
    /// coverage pattern.
    Hex,
    /// Square lattice with each point jittered uniformly within its cell.
    Jittered,
}

impl Deployment {
    /// Places exactly `n` sensors on `field`.
    ///
    /// Lattice layouts compute the smallest pitch that yields at least `n`
    /// points and then keep the first `n` in row-major order, so counts
    /// that are not perfect squares still work.
    pub fn place<R: Rng + ?Sized>(&self, field: &Field, n: usize, rng: &mut R) -> Vec<Point2> {
        match self {
            Deployment::UniformRandom => field.deploy_uniform(n, rng),
            Deployment::Grid => lattice(field, n, 0.0, |_| 0.0, rng),
            Deployment::Hex => lattice(field, n, 0.5, |_| 0.0, rng),
            Deployment::Jittered => {
                // Jitter up to ±40 % of the pitch in each axis.
                lattice(field, n, 0.0, |pitch| pitch * 0.4, rng)
            }
        }
    }
}

/// Row-major lattice with optional odd-row offset (fraction of the pitch)
/// and per-point uniform jitter radius.
fn lattice<R: Rng + ?Sized>(
    field: &Field,
    n: usize,
    row_offset_frac: f64,
    jitter: impl Fn(f64) -> f64,
    rng: &mut R,
) -> Vec<Point2> {
    if n == 0 {
        return Vec::new();
    }
    let side = field.side();
    // Smallest k×k-ish lattice holding n points.
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let pitch_x = side / cols as f64;
    let pitch_y = side / rows as f64;
    let j = jitter(pitch_x.min(pitch_y));
    let mut out = Vec::with_capacity(n);
    'rows: for r in 0..rows {
        for c in 0..cols {
            if out.len() == n {
                break 'rows;
            }
            let offset = if r % 2 == 1 {
                row_offset_frac * pitch_x
            } else {
                0.0
            };
            let mut p = Point2::new(
                (c as f64 + 0.5) * pitch_x + offset,
                (r as f64 + 0.5) * pitch_y,
            );
            if j > 0.0 {
                p.x += rng.gen_range(-j..=j);
                p.y += rng.gen_range(-j..=j);
            }
            out.push(field.clamp(p));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn field() -> Field {
        Field::new(100.0)
    }

    #[test]
    fn all_strategies_place_exactly_n_inside_the_field() {
        let f = field();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for d in [
            Deployment::UniformRandom,
            Deployment::Grid,
            Deployment::Hex,
            Deployment::Jittered,
        ] {
            for n in [0usize, 1, 7, 100, 137] {
                let pts = d.place(&f, n, &mut rng);
                assert_eq!(pts.len(), n, "{d:?} n={n}");
                assert!(pts.iter().all(|p| f.contains(*p)), "{d:?} left the field");
            }
        }
    }

    #[test]
    fn grid_is_deterministic_and_evenly_spaced() {
        let f = field();
        let mut a = rand::rngs::StdRng::seed_from_u64(1);
        let mut b = rand::rngs::StdRng::seed_from_u64(2);
        let pa = Deployment::Grid.place(&f, 25, &mut a);
        let pb = Deployment::Grid.place(&f, 25, &mut b);
        assert_eq!(pa, pb, "grid placement must ignore the RNG");
        // 5×5 lattice on 100 m: pitch 20, first point at (10, 10).
        assert_eq!(pa[0], Point2::new(10.0, 10.0));
        assert_eq!(pa[6], Point2::new(30.0, 30.0));
    }

    #[test]
    fn hex_offsets_odd_rows() {
        let f = field();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let pts = Deployment::Hex.place(&f, 25, &mut rng);
        // Row 0 starts at x = 10; row 1 is shifted by half the 20 m pitch.
        assert_eq!(pts[0].x, 10.0);
        assert_eq!(pts[5].x, 20.0);
    }

    #[test]
    fn lattices_cover_better_than_random_on_average() {
        // Deterministic placement needs fewer sensors for the same worst
        // gap — measure the largest nearest-sensor distance over a probe
        // grid (a coverage proxy).
        let f = field();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let worst_gap = |pts: &[Point2]| -> f64 {
            let mut worst: f64 = 0.0;
            for gx in 0..20 {
                for gy in 0..20 {
                    let q = Point2::new(gx as f64 * 5.0 + 2.5, gy as f64 * 5.0 + 2.5);
                    let d = pts
                        .iter()
                        .map(|p| p.distance(q))
                        .fold(f64::INFINITY, f64::min);
                    worst = worst.max(d);
                }
            }
            worst
        };
        let grid = worst_gap(&Deployment::Grid.place(&f, 100, &mut rng));
        // Random is noisy; average a few draws.
        let mut random_sum = 0.0;
        for _ in 0..5 {
            random_sum += worst_gap(&Deployment::UniformRandom.place(&f, 100, &mut rng));
        }
        let random = random_sum / 5.0;
        assert!(
            grid < random,
            "grid worst gap {grid:.1} m should beat random {random:.1} m"
        );
    }
}
