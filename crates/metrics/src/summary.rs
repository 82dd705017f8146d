//! Summary statistics over a slice of samples.

/// Mean / std-dev / min / max / count of a sample set, e.g. across seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for a single sample).
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Half-width of the ~95 % confidence interval of the mean
    /// (`1.96·σ/√n`; 0 for a single sample). Normal approximation — fine
    /// for the seed counts experiments use.
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        1.96 * self.std_dev / (self.count as f64).sqrt()
    }

    /// Formats `mean ± ci95` with the given precision.
    pub fn display_ci(&self, precision: usize) -> String {
        format!(
            "{:.p$} ± {:.p$}",
            self.mean,
            self.ci95_half_width(),
            p = precision
        )
    }

    /// Summarizes `samples`. Returns `None` for an empty slice.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Self {
            count: samples.len(),
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.count, 8);
    }

    #[test]
    fn single_sample_has_zero_std() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.mean, 3.5);
    }

    #[test]
    fn empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn ci95_shrinks_with_sample_count() {
        let few = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        let many = Summary::of(&[1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0]).unwrap();
        assert!(many.ci95_half_width() < few.ci95_half_width());
        assert_eq!(Summary::of(&[5.0]).unwrap().ci95_half_width(), 0.0);
        assert!(few.display_ci(2).contains("±"));
    }

    proptest! {
        #[test]
        fn prop_bounds_hold(samples in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let s = Summary::of(&samples).unwrap();
            prop_assert!(s.min <= s.mean + 1e-6);
            prop_assert!(s.mean <= s.max + 1e-6);
            prop_assert!(s.std_dev >= 0.0);
        }
    }
}
