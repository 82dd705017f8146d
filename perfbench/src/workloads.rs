//! The workloads' inputs, built from the benchmark seed alone. The
//! program only ever receives the configs and `JobSpec`s made here.

use crate::harness::SplitMix;
use wrsn_bench::ExpOptions;
use wrsn_core::SchedulerKind;
use wrsn_sim::batch::JobSpec;
use wrsn_sim::{ActivityConfig, SimConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One `paper_defaults()` run (Combined-Scheme, ERC K=0.6 + RR).
    PaperRun,
    /// The fig4 grid at quick scale, in-process and on 2 local shards.
    Sweep,
    /// Record one paper-scale run, then materialize seeded-random ticks.
    Store,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PaperRun, Workload::Sweep, Workload::Store];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRun => "paper_run",
            Workload::Sweep => "sweep",
            Workload::Store => "store",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Simulated days of each sweep job (`--quick` fig scale).
pub const SWEEP_DAYS: f64 = 12.0;
/// Seeds per fig4 grid point: 12 points × 2 seeds = 24 jobs per pass.
pub const SWEEP_SEEDS: u64 = 2;

/// World seeds per `paper_run` or `store` run. Single seeds of the paper
/// config differ in planning work by up to 1.5× in speed, so each run
/// measures a panel of them; the first is the benchmark seed itself.
pub const ENGINE_PANEL: usize = 4;

/// The world seeds a `paper_run` or `store` run cycles through.
pub fn world_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix::new(seed ^ 0x454e_4749_4e45);
    std::iter::once(seed)
        .chain((1..ENGINE_PANEL).map(|_| rng.next_u64() >> 16))
        .collect()
}

/// The paper's §V configuration, as every fig binary runs it.
pub fn paper_config() -> SimConfig {
    SimConfig::paper_defaults()
}

/// The four fig4 activity-management cases.
const FIG4_CASES: [(&str, ActivityConfig); 4] = [
    (
        "No ERC - Full time",
        ActivityConfig {
            round_robin: false,
            erp: None,
        },
    ),
    (
        "No ERC - With RR",
        ActivityConfig {
            round_robin: true,
            erp: None,
        },
    ),
    (
        "With ERC - Full time",
        ActivityConfig {
            round_robin: false,
            erp: Some(0.6),
        },
    ),
    (
        "With ERC - With RR",
        ActivityConfig {
            round_robin: true,
            erp: Some(0.6),
        },
    ),
];

/// The fig4 grid (`SchedulerKind::EVALUATED` × the four activity cases) at
/// `ExpOptions` quick scale, `SWEEP_SEEDS` seeds per point drawn from the
/// benchmark seed. Labels follow `wrsn_bench::grid_jobs`.
pub fn sweep_jobs(seed: u64) -> Vec<JobSpec> {
    let base = ExpOptions {
        quick: true,
        days: SWEEP_DAYS,
        ..ExpOptions::default()
    }
    .base_config();
    let mut rng = SplitMix::new(seed ^ 0x5357_4545_5031);
    let seeds: Vec<u64> = (0..SWEEP_SEEDS).map(|_| rng.next_u64() >> 16).collect();
    let mut jobs = Vec::new();
    for scheduler in SchedulerKind::EVALUATED {
        for (case, activity) in FIG4_CASES {
            let mut cfg = base.clone();
            cfg.scheduler = scheduler;
            cfg.activity = activity;
            for &s in &seeds {
                jobs.push(JobSpec::new(
                    format!("{scheduler}|{case}/seed={s}"),
                    &cfg,
                    s,
                ));
            }
        }
    }
    jobs
}

/// The workload's job list — what the runner layers (batch, journal,
/// shard, store) are driven with. `paper_run` and `store` are one job each
/// (the panel's first seed);
/// a re-executed shard worker rebuilds exactly this list from its argv.
pub fn jobs(w: Workload, seed: u64) -> Vec<JobSpec> {
    match w {
        Workload::PaperRun | Workload::Store => {
            vec![JobSpec::new(
                format!("paper/seed={seed}"),
                &paper_config(),
                seed,
            )]
        }
        Workload::Sweep => sweep_jobs(seed),
    }
}

/// Ticks a run of `cfg` takes to finish.
pub fn run_ticks(cfg: &SimConfig) -> u64 {
    (cfg.duration_s / cfg.tick_s).ceil() as u64
}

/// `n` seeded-random ticks in `0..=last` for `StoredRun::materialize`.
pub fn query_ticks(seed: u64, last: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix::new(seed ^ 0x5354_4f52_4551);
    (0..n).map(|_| rng.below_incl(last)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_sim::journal::grid_hash;

    #[test]
    fn same_seed_same_grid_hash_and_ticks() {
        for seed in [0, 1, 41, 1_000_003] {
            assert_eq!(grid_hash(&sweep_jobs(seed)), grid_hash(&sweep_jobs(seed)));
            assert_eq!(
                query_ticks(seed, 172_800, 256),
                query_ticks(seed, 172_800, 256)
            );
            for w in Workload::ALL {
                assert_eq!(grid_hash(&jobs(w, seed)), grid_hash(&jobs(w, seed)));
            }
        }
        assert_ne!(grid_hash(&sweep_jobs(1)), grid_hash(&sweep_jobs(2)));
        assert_ne!(query_ticks(1, 172_800, 64), query_ticks(2, 172_800, 64));
        assert_eq!(world_seeds(5), world_seeds(5));
        assert_eq!(world_seeds(5)[0], 5);
        let mut panel = world_seeds(5);
        panel.sort_unstable();
        panel.dedup();
        assert_eq!(panel.len(), ENGINE_PANEL);
    }

    #[test]
    fn sweep_is_the_fig4_grid_at_quick_scale() {
        let jobs = sweep_jobs(3);
        assert_eq!(jobs.len(), 3 * 4 * SWEEP_SEEDS as usize);
        assert!(jobs.iter().all(|j| j.config.num_sensors == 125));
        assert!(jobs.iter().all(|j| j.config.duration_days == SWEEP_DAYS));
        let mut labels: Vec<_> = jobs.iter().map(|j| j.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), jobs.len(), "labels are unique");
    }

    #[test]
    fn paper_run_is_the_paper_horizon() {
        assert_eq!(run_ticks(&paper_config()), 172_800);
    }

    #[test]
    fn query_ticks_stay_in_range() {
        assert!(query_ticks(9, 100, 500).iter().all(|&t| t <= 100));
    }
}
