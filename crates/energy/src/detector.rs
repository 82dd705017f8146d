//! Sensing detector energy model (the paper's PIR motion detector [26]).

/// Current-draw model of the sensing detector.
///
/// The paper's PIR module draws an average of 10 mA at 3 V while actively
/// monitoring and 170 µA when idle. A sensor can monitor at most one target
/// at a time (§II-A), so "active" is a single boolean state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorModel {
    /// Supply voltage (V).
    pub voltage: f64,
    /// Average current while actively monitoring (A).
    pub active_a: f64,
    /// Idle current (A).
    pub idle_a: f64,
}

impl DetectorModel {
    /// Datasheet constants of the paper's PIR detector at 3 V.
    pub const fn pir() -> Self {
        Self {
            voltage: 3.0,
            active_a: 10e-3,
            idle_a: 170e-6,
        }
    }

    /// Power (W) while actively monitoring a target.
    #[inline]
    pub fn active_power(&self) -> f64 {
        self.active_a * self.voltage
    }

    /// Power (W) while idle.
    #[inline]
    pub fn idle_power(&self) -> f64 {
        self.idle_a * self.voltage
    }
}

impl Default for DetectorModel {
    fn default() -> Self {
        Self::pir()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pir_datasheet_constants() {
        let d = DetectorModel::pir();
        assert!((d.active_power() - 0.030).abs() < 1e-12);
        assert!((d.idle_power() - 0.000_51).abs() < 1e-12);
        // Active sensing dominates idle by ~59×, which is what makes
        // round-robin activation worth n_c× in §III-C.
        assert!(d.active_power() / d.idle_power() > 50.0);
    }
}
