//! The paper's §V evaluation metrics.

use crate::TimeSeries;

/// Accumulates everything the paper's figures report during one simulation
/// run.
///
/// Counters (`record_*`) are event-driven; ratio-type quantities are sampled
/// on the simulator tick (`sample`) and averaged time-weighted.
#[derive(Debug, Clone, Default)]
pub struct EvalMetrics {
    travel_distance_m: f64,
    travel_energy_j: f64,
    recharged_j: f64,
    recharge_visits: u64,
    coverage: TimeSeries,
    nonfunctional: TimeSeries,
    operational: TimeSeries,
}

impl EvalMetrics {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records RV travel of `meters` costing `joules` of RV battery.
    pub fn record_travel(&mut self, meters: f64, joules: f64) {
        assert!(
            meters >= 0.0 && joules >= 0.0,
            "travel must be non-negative"
        );
        self.travel_distance_m += meters;
        self.travel_energy_j += joules;
    }

    /// Records `joules` of energy delivered into a sensor's battery
    /// (callable incrementally during a charging session).
    pub fn record_recharge_energy(&mut self, joules: f64) {
        assert!(joules >= 0.0, "recharge must be non-negative");
        self.recharged_j += joules;
    }

    /// Records one completed sensor service (an RV finished charging one
    /// node).
    pub fn record_service(&mut self) {
        self.recharge_visits += 1;
    }

    /// Records a full single-shot recharge: `joules` delivered in one
    /// completed service.
    pub fn record_recharge(&mut self, joules: f64) {
        self.record_recharge_energy(joules);
        self.record_service();
    }

    /// Periodic sample at simulation time `t` (seconds):
    /// * `coverage_ratio` — fraction of present targets currently monitored
    ///   by a live active sensor (1.0 when no targets are present),
    /// * `nonfunctional_frac` — fraction of all sensors with depleted
    ///   batteries,
    /// * `operational` — count of sensors with non-depleted batteries.
    pub fn sample(
        &mut self,
        t: f64,
        coverage_ratio: f64,
        nonfunctional_frac: f64,
        operational: usize,
    ) {
        self.coverage.push(t, coverage_ratio);
        self.nonfunctional.push(t, nonfunctional_frac);
        self.operational.push(t, operational as f64);
    }

    /// Total RV travel distance (m).
    pub fn travel_distance_m(&self) -> f64 {
        self.travel_distance_m
    }

    /// Total RV travel energy (J).
    pub fn travel_energy_j(&self) -> f64 {
        self.travel_energy_j
    }

    /// Total energy recharged into sensors (J).
    pub fn recharged_j(&self) -> f64 {
        self.recharged_j
    }

    /// Number of individual sensor recharges performed.
    pub fn recharge_visits(&self) -> u64 {
        self.recharge_visits
    }

    /// The sampled coverage-ratio series (simulation-snapshot access).
    pub fn coverage_series(&self) -> &TimeSeries {
        &self.coverage
    }

    /// The sampled nonfunctional-fraction series.
    pub fn nonfunctional_series(&self) -> &TimeSeries {
        &self.nonfunctional
    }

    /// The sampled operational-sensor-count series.
    pub fn operational_series(&self) -> &TimeSeries {
        &self.operational
    }

    /// Rebuilds an accumulator from previously captured state — the
    /// counters plus the three sampled series. Restoring and continuing to
    /// sample is bit-identical to never having paused.
    ///
    /// # Panics
    /// Panics on negative counters (the `record_*` methods could never
    /// have produced them).
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        travel_distance_m: f64,
        travel_energy_j: f64,
        recharged_j: f64,
        recharge_visits: u64,
        coverage: TimeSeries,
        nonfunctional: TimeSeries,
        operational: TimeSeries,
    ) -> Self {
        assert!(
            travel_distance_m >= 0.0 && travel_energy_j >= 0.0 && recharged_j >= 0.0,
            "metric counters must be non-negative"
        );
        Self {
            travel_distance_m,
            travel_energy_j,
            recharged_j,
            recharge_visits,
            coverage,
            nonfunctional,
            operational,
        }
    }

    /// Finalizes the paper-facing report.
    pub fn report(&self) -> EvalReport {
        let coverage = self.coverage.time_weighted_mean();
        let nonfunctional = self.nonfunctional.time_weighted_mean();
        let avg_operational = self.operational.time_weighted_mean();
        EvalReport {
            travel_distance_m: self.travel_distance_m,
            travel_energy_mj: self.travel_energy_j * 1e-6,
            recharged_mj: self.recharged_j * 1e-6,
            objective_mj: (self.recharged_j - self.travel_energy_j) * 1e-6,
            coverage_ratio_pct: coverage * 100.0,
            missing_rate_pct: (1.0 - coverage) * 100.0,
            nonfunctional_pct: nonfunctional * 100.0,
            recharging_cost_m_per_sensor: if avg_operational > 0.0 {
                self.travel_distance_m / avg_operational
            } else {
                f64::INFINITY
            },
            recharge_visits: self.recharge_visits,
        }
    }
}

/// Final per-run metrics matching the paper's figure axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    /// Total RV travel distance (m).
    pub travel_distance_m: f64,
    /// Total RV traveling energy (MJ) — Figs. 4, 5, 6(a).
    pub travel_energy_mj: f64,
    /// Total energy recharged into the network (MJ) — Fig. 7(a).
    pub recharged_mj: f64,
    /// Eq. (2) objective: recharged − traveling energy (MJ) — Fig. 7(b).
    pub objective_mj: f64,
    /// Time-weighted average target coverage ratio (%) — Fig. 6(b).
    pub coverage_ratio_pct: f64,
    /// Target missing rate (%) = 100 − coverage — Fig. 5.
    pub missing_rate_pct: f64,
    /// Time-weighted average share of nonfunctional sensors (%) — Fig. 6(c).
    pub nonfunctional_pct: f64,
    /// Recharging cost: travel distance ÷ avg. operational sensors
    /// (m/sensor) — Fig. 6(d).
    pub recharging_cost_m_per_sensor: f64,
    /// Number of individual sensor recharges performed.
    pub recharge_visits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = EvalMetrics::new();
        m.record_travel(100.0, 560.0);
        m.record_travel(50.0, 280.0);
        m.record_recharge(5_000.0);
        assert_eq!(m.travel_distance_m(), 150.0);
        assert_eq!(m.travel_energy_j(), 840.0);
        assert_eq!(m.recharged_j(), 5_000.0);
        assert_eq!(m.recharge_visits(), 1);
    }

    #[test]
    fn report_derives_paper_metrics() {
        let mut m = EvalMetrics::new();
        m.record_travel(1_000.0, 5_600.0);
        m.record_recharge(1.0e6);
        // Constant signals over two samples.
        m.sample(0.0, 0.95, 0.02, 100);
        m.sample(100.0, 0.95, 0.02, 100);
        let r = m.report();
        assert!((r.coverage_ratio_pct - 95.0).abs() < 1e-9);
        assert!((r.missing_rate_pct - 5.0).abs() < 1e-9);
        assert!((r.nonfunctional_pct - 2.0).abs() < 1e-9);
        assert!((r.recharging_cost_m_per_sensor - 10.0).abs() < 1e-9);
        assert!((r.objective_mj - (1.0e6 - 5_600.0) * 1e-6).abs() < 1e-12);
    }

    #[test]
    fn restore_round_trips_and_reports_identically() {
        let mut m = EvalMetrics::new();
        m.record_travel(1_000.0, 5_600.0);
        m.record_recharge(1.0e6);
        m.sample(0.0, 0.9, 0.1, 90);
        m.sample(60.0, 0.8, 0.2, 80);
        let copy = EvalMetrics::restore(
            m.travel_distance_m(),
            m.travel_energy_j(),
            m.recharged_j(),
            m.recharge_visits(),
            m.coverage_series().clone(),
            m.nonfunctional_series().clone(),
            m.operational_series().clone(),
        );
        assert_eq!(copy.report(), m.report());
    }

    #[test]
    fn zero_operational_gives_infinite_cost() {
        let mut m = EvalMetrics::new();
        m.record_travel(10.0, 56.0);
        m.sample(0.0, 0.0, 1.0, 0);
        m.sample(10.0, 0.0, 1.0, 0);
        assert!(m.report().recharging_cost_m_per_sensor.is_infinite());
    }
}
