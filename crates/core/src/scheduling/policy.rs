//! The scheduler trait and the paper's named scheme selector.

use crate::{RvRoute, ScheduleInput};

/// A recharge route scheduler: turns the current recharge node list and RV
/// fleet state into per-RV routes.
///
/// Implementations must return routes that pass
/// [`ScheduleInput::validate_plan`]: stops index into `input.requests`,
/// no request is served twice, and each route fits its RV's energy budget.
/// RVs without a route (or with an empty route) stay idle.
pub trait RechargePolicy {
    /// Plans routes for the given input.
    fn plan(&self, input: &ScheduleInput) -> Vec<RvRoute>;

    /// Short scheme name for reports ("greedy", "partition", …).
    fn name(&self) -> &'static str;
}

/// The three schemes the paper evaluates, plus the single-RV Algorithm 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Algorithm 2 baseline.
    Greedy,
    /// Algorithm 3 for a single RV.
    Insertion,
    /// §IV-D-1 Partition-Scheme (K-means groups, one per RV).
    Partition,
    /// §IV-D-2 Combined-Scheme (global sequential insertion).
    Combined,
    /// Extension: Clarke–Wright savings (classic VRP baseline the paper
    /// never compared against).
    Savings,
    /// Extension: urgency-weighted Combined-Scheme in the spirit of the
    /// paper's battery-deadline reference \[10\].
    Deadline,
}

impl SchedulerKind {
    /// All paper-evaluated multi-RV schemes, in the order the figures list
    /// them.
    pub const EVALUATED: [SchedulerKind; 3] = [
        SchedulerKind::Greedy,
        SchedulerKind::Partition,
        SchedulerKind::Combined,
    ];

    /// Instantiates the scheduler. `seed` only affects
    /// [`SchedulerKind::Partition`] (K-means initialization).
    pub fn build(self, seed: u64) -> Box<dyn RechargePolicy + Send + Sync> {
        match self {
            SchedulerKind::Greedy => Box::new(super::GreedyPolicy),
            SchedulerKind::Insertion => Box::new(super::InsertionPolicy),
            SchedulerKind::Partition => Box::new(super::PartitionPolicy::new(seed)),
            SchedulerKind::Combined => Box::new(super::CombinedPolicy),
            SchedulerKind::Savings => Box::new(super::SavingsPolicy),
            SchedulerKind::Deadline => Box::new(super::DeadlinePolicy::default()),
        }
    }

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Greedy => "Greedy",
            SchedulerKind::Insertion => "Insertion",
            SchedulerKind::Partition => "Partition-Scheme",
            SchedulerKind::Combined => "Combined-Scheme",
            SchedulerKind::Savings => "Clarke-Wright",
            SchedulerKind::Deadline => "Deadline-Aware",
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_their_named_policy() {
        assert_eq!(SchedulerKind::Greedy.build(0).name(), "greedy");
        assert_eq!(SchedulerKind::Insertion.build(0).name(), "insertion");
        assert_eq!(SchedulerKind::Partition.build(0).name(), "partition");
        assert_eq!(SchedulerKind::Combined.build(0).name(), "combined");
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(SchedulerKind::Partition.to_string(), "Partition-Scheme");
        assert_eq!(SchedulerKind::EVALUATED.len(), 3);
    }
}
