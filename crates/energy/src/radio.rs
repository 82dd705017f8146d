//! Radio energy model (the paper's TI CC2480 [25]).

/// Current-draw model of a packet radio.
///
/// The paper's CC2480 enters a `< 5 µA` low-power mode when idle and draws
/// 27 mA at 3 V while transmitting or receiving; ZigBee's nominal PHY rate
/// is 250 kbit/s. Per-packet energies follow directly from the time on air.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioModel {
    /// Supply voltage (V).
    pub voltage: f64,
    /// Idle / sleep current (A).
    pub idle_a: f64,
    /// Transmit current (A).
    pub tx_a: f64,
    /// Receive current (A).
    pub rx_a: f64,
    /// PHY bit rate (bit/s).
    pub bitrate_bps: f64,
}

impl RadioModel {
    /// Datasheet constants of the TI CC2480 at a 3 V supply.
    pub const fn cc2480() -> Self {
        Self {
            voltage: 3.0,
            idle_a: 5e-6,
            tx_a: 27e-3,
            rx_a: 27e-3,
            bitrate_bps: 250_000.0,
        }
    }

    /// Idle power (W).
    #[inline]
    pub fn idle_power(&self) -> f64 {
        self.idle_a * self.voltage
    }

    /// Transmit power (W) while the radio is on air.
    #[inline]
    pub fn tx_power(&self) -> f64 {
        self.tx_a * self.voltage
    }

    /// Receive power (W) while the radio is listening to a packet.
    #[inline]
    pub fn rx_power(&self) -> f64 {
        self.rx_a * self.voltage
    }

    /// Time on air (s) of a packet of `bytes` payload.
    #[inline]
    pub fn packet_airtime(&self, bytes: usize) -> f64 {
        (bytes as f64) * 8.0 / self.bitrate_bps
    }

    /// Energy (J) above idle to transmit one packet of `bytes`.
    #[inline]
    pub fn tx_energy(&self, bytes: usize) -> f64 {
        (self.tx_power() - self.idle_power()) * self.packet_airtime(bytes)
    }

    /// Energy (J) above idle to receive one packet of `bytes`.
    #[inline]
    pub fn rx_energy(&self, bytes: usize) -> f64 {
        (self.rx_power() - self.idle_power()) * self.packet_airtime(bytes)
    }
}

impl Default for RadioModel {
    fn default() -> Self {
        Self::cc2480()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units;

    #[test]
    fn cc2480_datasheet_constants() {
        let r = RadioModel::cc2480();
        assert!((r.idle_power() - units::power_w_ua(5.0, 3.0)).abs() < 1e-15);
        assert!((r.tx_power() - units::power_w(27.0, 3.0)).abs() < 1e-15);
        assert!((r.rx_power() - r.tx_power()).abs() < 1e-15);
    }

    #[test]
    fn packet_airtime_and_energy() {
        let r = RadioModel::cc2480();
        // 20-byte paper packet: 160 bits at 250 kbit/s = 0.64 ms.
        let t = r.packet_airtime(20);
        assert!((t - 0.64e-3).abs() < 1e-12);
        // Tx energy ≈ 81 mW × 0.64 ms ≈ 51.8 µJ (minus tiny idle power).
        let e = r.tx_energy(20);
        assert!(e > 5.0e-5 && e < 5.3e-5, "tx energy {e}");
        assert!(r.rx_energy(20) > 0.0);
    }

    #[test]
    fn zero_byte_packet_costs_nothing() {
        let r = RadioModel::cc2480();
        assert_eq!(r.tx_energy(0), 0.0);
        assert_eq!(r.rx_energy(0), 0.0);
    }
}
