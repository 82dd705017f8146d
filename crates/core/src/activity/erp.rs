//! §III-B Energy Request Control via the Energy Request Percentage.

/// The Energy Request Percentage controller.
///
/// The **ERP** (`K ∈ [0, 1]`) is "the maximum allowable percentage of
/// sensors in a cluster that have battery energy fallen below the recharge
/// threshold without sending any recharge request" (§III-B). A cluster
/// holds its members' requests back until the below-threshold fraction
/// reaches `K`, then releases them all at once as a single aggregated
/// cluster demand — so one RV visit serves the whole cluster instead of
/// repeated trips (worst-case travel drops from `2·n_c·dist·e_m` to
/// `2·n_c/max(n_c·K, 1)·dist·e_m`).
///
/// `K = 0` reproduces the prior-work behaviour (\[7\]–\[10\]): every sensor
/// requests the moment it crosses the threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErpController {
    k: f64,
}

impl ErpController {
    /// Creates a controller with ERP value `k`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ k ≤ 1`.
    pub fn new(k: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&k) && k.is_finite(),
            "ERP must be in [0,1], got {k}"
        );
        Self { k }
    }

    /// The configured ERP value.
    #[inline]
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Whether a cluster of `cluster_size` members with `pending` of them
    /// below the recharge threshold should release its requests now.
    ///
    /// With `K = 0` any pending member triggers a release; with `K = 1` the
    /// cluster waits for every member.
    pub fn should_release(&self, pending: usize, cluster_size: usize) -> bool {
        assert!(
            pending <= cluster_size,
            "pending {pending} > cluster size {cluster_size}"
        );
        if pending == 0 {
            return false;
        }
        pending as f64 >= self.k * cluster_size as f64 - 1e-9
    }

    /// §III-B analysis: the worst-case RV traveling energy to serve a
    /// cluster of `n_c` members at distance `dist` from the base under this
    /// controller, with RV motion cost `e_m` (J/m). For `K = 0` this is the
    /// prior-work `2·n_c·dist·e_m` (one round trip per member).
    pub fn worst_case_travel_energy(&self, n_c: usize, dist: f64, e_m: f64) -> f64 {
        assert!(n_c >= 1, "cluster must be non-empty");
        let trips = n_c as f64 / (self.k * n_c as f64).max(1.0);
        2.0 * trips * dist * e_m
    }
}

impl Default for ErpController {
    /// The paper's example operating point, `K = 0.6` (§V-A).
    fn default() -> Self {
        Self::new(0.6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn k_zero_releases_on_first_pending() {
        let c = ErpController::new(0.0);
        assert!(!c.should_release(0, 10));
        assert!(c.should_release(1, 10));
    }

    #[test]
    fn k_one_waits_for_all() {
        let c = ErpController::new(1.0);
        assert!(!c.should_release(9, 10));
        assert!(c.should_release(10, 10));
    }

    #[test]
    fn k_06_releases_at_sixty_percent() {
        let c = ErpController::new(0.6);
        assert!(!c.should_release(5, 10));
        assert!(c.should_release(6, 10));
    }

    #[test]
    fn exact_threshold_is_inclusive() {
        // 3/6 = 0.5 with K = 0.5 must release (floating-point slack).
        let c = ErpController::new(0.5);
        assert!(c.should_release(3, 6));
        assert!(!c.should_release(2, 6));
    }

    #[test]
    fn travel_energy_analysis_matches_paper() {
        // K = 1 cuts worst-case travel to 1/n_c of the K = 0 baseline.
        let base = ErpController::new(0.0).worst_case_travel_energy(8, 100.0, 5.6);
        let full = ErpController::new(1.0).worst_case_travel_energy(8, 100.0, 5.6);
        assert!((base / full - 8.0).abs() < 1e-9);
        // Baseline is 2·n_c·dist·e_m.
        assert!((base - 2.0 * 8.0 * 100.0 * 5.6).abs() < 1e-9);
    }

    #[test]
    fn singleton_cluster_always_full_trip() {
        // max(n_c·K, 1) floors at 1: a singleton costs one round trip at
        // any K.
        for k in [0.0, 0.5, 1.0] {
            let e = ErpController::new(k).worst_case_travel_energy(1, 50.0, 5.6);
            assert!((e - 2.0 * 50.0 * 5.6).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "ERP must be in")]
    fn out_of_range_k_panics() {
        ErpController::new(1.5);
    }

    proptest! {
        #[test]
        fn prop_release_is_monotone_in_pending(
            k in 0.0f64..=1.0,
            size in 1usize..50,
        ) {
            let c = ErpController::new(k);
            let mut released = false;
            for pending in 0..=size {
                let now = c.should_release(pending, size);
                // Once released, more pending sensors never un-release.
                prop_assert!(!released || now);
                released = now;
            }
            // Everyone pending always releases.
            prop_assert!(c.should_release(size, size));
        }

        #[test]
        fn prop_higher_k_never_travels_more(
            n_c in 1usize..30,
            dist in 1.0f64..300.0,
        ) {
            // Larger ERP ⇒ fewer trips ⇒ travel energy non-increasing in K.
            let mut prev = f64::INFINITY;
            for i in 0..=10 {
                let k = i as f64 / 10.0;
                let e = ErpController::new(k).worst_case_travel_energy(n_c, dist, 5.6);
                prop_assert!(e <= prev + 1e-9);
                prev = e;
            }
        }
    }
}
