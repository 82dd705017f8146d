//! Time-stamped sample accumulation.

/// A time series of `(time, value)` samples with time-weighted averaging.
///
/// The simulator samples slow-moving quantities (coverage ratio, alive
/// count) on a fixed tick; [`TimeSeries::time_weighted_mean`] integrates the
/// piecewise-constant signal so irregular sampling still averages correctly.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a series from previously captured [`TimeSeries::times`] /
    /// [`TimeSeries::values`] slices (simulation-snapshot restore). The
    /// restored series is bit-identical to the captured one.
    ///
    /// # Panics
    /// Panics when the lengths differ, any sample is non-finite, or times
    /// decrease — the same constraints [`TimeSeries::push`] enforces.
    pub fn from_samples(times: Vec<f64>, values: Vec<f64>) -> Self {
        assert_eq!(
            times.len(),
            values.len(),
            "times and values must pair up 1:1"
        );
        assert!(
            times.iter().chain(&values).all(|v| v.is_finite()),
            "samples must be finite"
        );
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "time must be non-decreasing"
        );
        Self { times, values }
    }

    /// Appends a sample. Times must be non-decreasing.
    ///
    /// # Panics
    /// Panics when `time` precedes the previous sample or inputs are not
    /// finite.
    pub fn push(&mut self, time: f64, value: f64) {
        assert!(
            time.is_finite() && value.is_finite(),
            "samples must be finite"
        );
        if let Some(&last) = self.times.last() {
            assert!(time >= last, "time must be non-decreasing: {time} < {last}");
        }
        self.times.push(time);
        self.values.push(value);
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no samples were recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sample times.
    #[inline]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Last value, if any.
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Unweighted arithmetic mean of the sample values.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Time-weighted mean treating the signal as piecewise constant: each
    /// sample holds from its timestamp until the next. The final sample gets
    /// zero weight (its holding interval is unknown), so at least two
    /// samples are needed; otherwise falls back to [`TimeSeries::mean`].
    pub fn time_weighted_mean(&self) -> f64 {
        if self.times.len() < 2 {
            return self.mean();
        }
        let total = self.times[self.times.len() - 1] - self.times[0];
        if total <= 0.0 {
            return self.mean();
        }
        let mut acc = 0.0;
        for w in 0..self.times.len() - 1 {
            acc += self.values[w] * (self.times[w + 1] - self.times[w]);
        }
        acc / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_is_nan() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert!(s.mean().is_nan());
        assert!(s.time_weighted_mean().is_nan());
    }

    #[test]
    fn uniform_sampling_matches_plain_mean() {
        let mut s = TimeSeries::new();
        for (i, v) in [1.0, 2.0, 3.0, 4.0].iter().enumerate() {
            s.push(i as f64, *v);
        }
        // Time-weighted drops the last sample's weight: mean of 1,2,3.
        assert!((s.time_weighted_mean() - 2.0).abs() < 1e-12);
        assert!((s.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn irregular_sampling_weights_by_duration() {
        let mut s = TimeSeries::new();
        s.push(0.0, 10.0); // holds 1 s
        s.push(1.0, 0.0); // holds 9 s
        s.push(10.0, 99.0); // terminal, zero weight
        assert!((s.time_weighted_mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_samples_round_trips() {
        let mut s = TimeSeries::new();
        s.push(0.0, 1.0);
        s.push(2.0, 3.0);
        let copy = TimeSeries::from_samples(s.times().to_vec(), s.values().to_vec());
        assert_eq!(copy.times(), s.times());
        assert_eq!(copy.values(), s.values());
        assert_eq!(copy.time_weighted_mean(), s.time_weighted_mean());
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn from_samples_rejects_length_mismatch() {
        let _ = TimeSeries::from_samples(vec![0.0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel() {
        let mut s = TimeSeries::new();
        s.push(5.0, 1.0);
        s.push(4.0, 1.0);
    }
}
