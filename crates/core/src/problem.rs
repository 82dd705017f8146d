//! The recharge-scheduling problem surface shared by all schedulers.

use crate::{ClusterId, RvId, SensorId};
use wrsn_geom::Point2;

/// One entry of the base station's recharge node list `R` (§II-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RechargeRequest {
    /// The requesting sensor.
    pub sensor: SensorId,
    /// Its (fixed) position.
    pub position: Point2,
    /// Energy demand `d_i` (J): battery capacity minus current level.
    pub demand: f64,
    /// The cluster the sensor belongs to, if any. Requests sharing a
    /// cluster are aggregated into one scheduling *site* (§IV-C) and served
    /// in a single RV visit.
    pub cluster: Option<ClusterId>,
    /// Set when the sensor (or its cluster) is critically low: critical
    /// sites are prioritized as route destinations (§III-C).
    pub critical: bool,
}

/// Scheduling-relevant state of one RV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RvState {
    /// The vehicle.
    pub id: RvId,
    /// Current position.
    pub position: Point2,
    /// Usable energy budget (J) for this tour: served demand plus travel
    /// cost must fit inside it (capacity constraint (7)).
    pub available_energy: f64,
}

/// Everything a [`crate::scheduling::RechargePolicy`] needs to plan routes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleInput {
    /// The pending recharge node list.
    pub requests: Vec<RechargeRequest>,
    /// RVs available for dispatch.
    pub rvs: Vec<RvState>,
    /// Base station position (tours nominally start/end here).
    pub base: Point2,
    /// RV travel cost rate `e_m` (J/m). Paper: 5.6.
    pub cost_per_m: f64,
}

/// A planned route for one RV: the requests to serve, in visit order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RvRoute {
    /// The vehicle executing the route.
    pub rv: RvId,
    /// Indices into [`ScheduleInput::requests`], in visit order.
    pub stops: Vec<usize>,
}

impl ScheduleInput {
    /// Travel distance (m) of `route` starting from the RV's current
    /// position through all stops (no return leg).
    pub fn route_travel_m(&self, route: &RvRoute) -> f64 {
        let rv = self.rv(route.rv);
        let mut prev = rv.position;
        let mut total = 0.0;
        for &s in &route.stops {
            let p = self.requests[s].position;
            total += prev.distance(p);
            prev = p;
        }
        total
    }

    /// Total demand (J) served by `route`.
    pub fn route_demand(&self, route: &RvRoute) -> f64 {
        route.stops.iter().map(|&s| self.requests[s].demand).sum()
    }

    /// Recharge profit of `route` (Eq. 2 contribution): served demand minus
    /// travel energy including the return to base.
    pub fn route_profit(&self, route: &RvRoute) -> f64 {
        let travel = self.route_travel_m(route)
            + route
                .stops
                .last()
                .map_or(0.0, |&s| self.requests[s].position.distance(self.base));
        self.route_demand(route) - self.cost_per_m * travel
    }

    /// The state of RV `id`.
    ///
    /// # Panics
    /// Panics when `id` is not in `rvs`.
    pub fn rv(&self, id: RvId) -> &RvState {
        self.rvs
            .iter()
            .find(|r| r.id == id)
            .expect("route references unknown RV")
    }

    /// Validates a plan: stops in range, no request served twice, no RV
    /// routed twice, and every route within its RV's energy budget
    /// (demand + travel + return leg). Returns a human-readable violation.
    pub fn validate_plan(&self, routes: &[RvRoute]) -> Result<(), String> {
        let mut served = vec![false; self.requests.len()];
        let mut used_rv = Vec::new();
        for route in routes {
            if used_rv.contains(&route.rv) {
                return Err(format!("{} routed twice", route.rv));
            }
            used_rv.push(route.rv);
            for &s in &route.stops {
                if s >= self.requests.len() {
                    return Err(format!("stop {s} out of range"));
                }
                if served[s] {
                    return Err(format!("request {s} served twice"));
                }
                served[s] = true;
            }
            let rv = self.rv(route.rv);
            let travel = self.route_travel_m(route)
                + route
                    .stops
                    .last()
                    .map_or(0.0, |&s| self.requests[s].position.distance(self.base));
            let need = self.route_demand(route) + self.cost_per_m * travel;
            if need > rv.available_energy + 1e-6 {
                return Err(format!(
                    "{} exceeds energy budget: needs {need:.1} J, has {:.1} J",
                    route.rv, rv.available_energy
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> ScheduleInput {
        ScheduleInput {
            requests: vec![
                RechargeRequest {
                    sensor: SensorId(0),
                    position: Point2::new(10.0, 0.0),
                    demand: 100.0,
                    cluster: None,
                    critical: false,
                },
                RechargeRequest {
                    sensor: SensorId(1),
                    position: Point2::new(20.0, 0.0),
                    demand: 200.0,
                    cluster: None,
                    critical: false,
                },
            ],
            rvs: vec![RvState {
                id: RvId(0),
                position: Point2::new(0.0, 0.0),
                available_energy: 1_000.0,
            }],
            base: Point2::new(0.0, 0.0),
            cost_per_m: 1.0,
        }
    }

    #[test]
    fn route_metrics() {
        let inp = input();
        let route = RvRoute {
            rv: RvId(0),
            stops: vec![0, 1],
        };
        assert!((inp.route_travel_m(&route) - 20.0).abs() < 1e-9);
        assert!((inp.route_demand(&route) - 300.0).abs() < 1e-9);
        // Profit: 300 − 1.0·(20 travel + 20 return) = 260.
        assert!((inp.route_profit(&route) - 260.0).abs() < 1e-9);
    }

    #[test]
    fn validate_accepts_feasible_plan() {
        let inp = input();
        let plan = vec![RvRoute {
            rv: RvId(0),
            stops: vec![1, 0],
        }];
        assert!(inp.validate_plan(&plan).is_ok());
    }

    #[test]
    fn validate_rejects_double_service() {
        let inp = input();
        let plan = vec![RvRoute {
            rv: RvId(0),
            stops: vec![0, 0],
        }];
        assert!(inp
            .validate_plan(&plan)
            .unwrap_err()
            .contains("served twice"));
    }

    #[test]
    fn validate_rejects_budget_violation() {
        let mut inp = input();
        inp.rvs[0].available_energy = 100.0; // demand alone exceeds this
        let plan = vec![RvRoute {
            rv: RvId(0),
            stops: vec![0, 1],
        }];
        assert!(inp
            .validate_plan(&plan)
            .unwrap_err()
            .contains("energy budget"));
    }

    #[test]
    fn empty_route_is_free() {
        let inp = input();
        let route = RvRoute {
            rv: RvId(0),
            stops: vec![],
        };
        assert_eq!(inp.route_travel_m(&route), 0.0);
        assert_eq!(inp.route_profit(&route), 0.0);
        assert!(inp.validate_plan(&[route]).is_ok());
    }
}
