//! Untraced end-to-end runs (`--trace 0`). Each workload repeats its unit
//! of work until `--seconds` have passed (and at least a minimum number of
//! times) and checks every output.
//!
//! The contract makes every end-to-end metric appear on every workload, so
//! the metrics are defined by role:
//!
//! | metric        | paper_run             | sweep                         | store                |
//! |---------------|-----------------------|-------------------------------|----------------------|
//! | `setup_s`     | `World::new`          | grid + journal/fabric dirs    | `World::new` + run dir |
//! | `ticks_per_s` | engine run            | in-process journaled pass     | `RunRecorder` record |
//! | `op_p50_ms`   | one simulated hour    | sharded pass wall per job     | one `materialize`    |
//! | `peak_rss_mb` | VmHWM after the first run / pass pair / one cycle per world seed |
//!
//! Every timed value is a median over the repetitions of the whole run:
//! engine runs and recordings per world seed of the panel, hours per hour of
//! each world seed, queries and sweep passes pooled, set-ups pooled.

use crate::harness::{self, median, percentile, tail_percentile, Report, Scratch};
use crate::workloads::{self, run_ticks, Workload};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wrsn_sim::batch::{run_supervised, JobPanic, JobSpec, SupervisorOptions};
use wrsn_sim::journal::Journal;
use wrsn_sim::shard::{run_sharded, ShardOptions};
use wrsn_sim::store::{RecordOptions, RunRecorder, StoredRun};
use wrsn_sim::{SimConfig, SimOutcome, World};

/// Set-up is repeated at least this often so `setup_s` is a median.
const MIN_SETUPS: usize = 25;
/// Materialize queries per store run: enough for a p95 with ten samples
/// beyond it.
pub const MIN_QUERIES: usize = 200;
/// Materialize queries per store cycle; a store run has at least
/// `ENGINE_PANEL` cycles, so at least `MIN_QUERIES` queries.
const QUERIES_PER_CYCLE: usize = 64;
const _: () = assert!(QUERIES_PER_CYCLE * workloads::ENGINE_PANEL >= MIN_QUERIES);
/// Materialized worlds checked byte-for-byte against a live twin.
pub const TWIN_SAMPLES: usize = 8;

/// Repeats `body` until `seconds` have passed and it ran `min` times.
fn repeat(seconds: u64, min: usize, mut body: impl FnMut(usize)) {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut i = 0;
    while i < min || start.elapsed() < budget {
        body(i);
        i += 1;
    }
}

/// Per-repetition values, for reading the spread inside one run.
fn list(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the workload's end-to-end measurement into `report`.
pub fn run(w: Workload, seed: u64, seconds: u64, scratch: &mut Scratch, report: &mut Report) {
    match w {
        Workload::PaperRun => engine(&workloads::paper_config(), seed, seconds, report),
        Workload::Sweep => sweep(seed, seconds, scratch, report),
        Workload::Store => store(seed, seconds, scratch, report),
    }
    report.line(format!("metric error_rate {} ratio", report.error_rate()));
}

/// Ticks per timed slice of an engine run: one simulated hour (60
/// one-minute ticks).
const HOUR_TICKS: u64 = 60;

/// Median of the values each repetition of an identical unit of work took,
/// per world seed: on a shared machine other tenants slow whole stretches
/// of a run, and the median over repetitions spread across the run keeps
/// one slow stretch from setting the result.
fn seed_medians(per_seed: &[Vec<f64>]) -> Vec<f64> {
    per_seed.iter().filter_map(|xs| median(xs)).collect()
}

/// `paper_run`: whole single-threaded runs to `finished()`, cycling through
/// the `ENGINE_PANEL` world seeds, timed one simulated hour at a time.
fn engine(cfg: &SimConfig, seed: u64, seconds: u64, report: &mut Report) {
    let ticks = run_ticks(cfg);
    let seeds = workloads::world_seeds(seed);
    let mut setup = Vec::new();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    // hours[k][h]: wall seconds of hour `h` of world seed `k`, one per run.
    let mut hours: Vec<Vec<Vec<f64>>> = vec![Vec::new(); seeds.len()];
    let mut first_fnv: Vec<Option<u64>> = vec![None; seeds.len()];
    let mut rss = None;
    repeat(seconds, 2 * seeds.len(), |i| {
        let k = i % seeds.len();
        let t = Instant::now();
        let mut world = World::new(cfg, seeds[k]);
        setup.push(t.elapsed().as_secs_f64());
        let mut wall = 0.0;
        let mut stepped = 0u64;
        for hour in 0.. {
            if world.finished() {
                break;
            }
            let t = Instant::now();
            for _ in 0..HOUR_TICKS {
                if world.finished() {
                    break;
                }
                world.step();
                stepped += 1;
            }
            let secs = t.elapsed().as_secs_f64();
            wall += secs;
            match hours[k].get_mut(hour) {
                Some(reps) => reps.push(secs),
                None => hours[k].push(vec![secs]),
            }
        }
        walls[k].push(wall);
        let invariants = world.check_invariants();
        report.op(invariants.is_ok() && stepped == ticks, || {
            format!("run {i}: {stepped}/{ticks} ticks, invariants {invariants:?}")
        });
        let fnv = harness::fnv1a(&world.save_snapshot());
        let first = *first_fnv[k].get_or_insert(fnv);
        report.op(fnv == first, || {
            format!("run {i}: snapshot fnv {fnv:016x} != the seed's first run's {first:016x}")
        });
        rss = rss.or_else(harness::peak_rss_mb);
    });
    while setup.len() < MIN_SETUPS {
        let t = Instant::now();
        std::hint::black_box(World::new(cfg, seed));
        setup.push(t.elapsed().as_secs_f64());
    }
    let run_walls = seed_medians(&walls);
    let rate = (ticks * seeds.len() as u64) as f64 / run_walls.iter().sum::<f64>();
    let hours_ms: Vec<f64> = hours
        .iter()
        .flat_map(|h| seed_medians(h))
        .map(|s| s * 1e3)
        .collect();
    let tail = tail_percentile(hours_ms.len()).unwrap_or(50.0);
    let runs: Vec<f64> = walls.iter().flatten().map(|w| ticks as f64 / w).collect();
    let fnvs: Vec<u8> = first_fnv
        .iter()
        .flat_map(|f| f.unwrap_or(0).to_le_bytes())
        .collect();
    report.line(format!(
        "budget threads=1 nproc={}; {} runs of {ticks} ticks, {} sensors, world seeds {seeds:?}",
        harness::nproc(),
        runs.len(),
        cfg.num_sensors
    ));
    report.line(format!("output_fnv {:016x}", harness::fnv1a(&fnvs)));
    report.line(format!(
        "metric ticks_per_s {rate} 1/s (median run of each world seed)"
    ));
    report.line(format!("  per run {}", list(&runs)));
    report.line(format!(
        "metric hour_p50_ms {} ms; hour_p{tail}_ms {} ms (n={} hours, median run of each)",
        median(&hours_ms).unwrap_or(0.0),
        percentile(&hours_ms, tail).unwrap_or(0.0),
        hours_ms.len()
    ));
    report.metric("setup_s", median(&setup).unwrap_or(f64::NAN), "s");
    report.metric("ticks_per_s", rate, "1/s");
    report.metric("op_p50_ms", median(&hours_ms).unwrap_or(f64::NAN), "ms");
    report.metric("peak_rss_mb", rss.unwrap_or(f64::NAN), "MB");
}

/// The runner budget: in-process workers and shard backpressure, both
/// within `nproc` threads.
pub fn runner_options(jobs: usize) -> (SupervisorOptions, ShardOptions) {
    let nproc = harness::nproc();
    let sup = SupervisorOptions {
        workers: std::num::NonZeroUsize::new(nproc.min(jobs).max(1)),
        ..SupervisorOptions::default()
    };
    let shards = ShardOptions {
        shards: 2.min(jobs).max(1),
        max_inflight: 2.min(nproc).min(jobs).max(1),
        ..ShardOptions::default()
    };
    (sup, shards)
}

pub fn budget_line(sup: &SupervisorOptions, shards: &ShardOptions) -> String {
    let nproc = harness::nproc();
    format!(
        "budget nproc={nproc} inproc_workers={} shards={} max_inflight={} threads_per_worker={}",
        sup.workers.map_or(0, |w| w.get()),
        shards.shards,
        shards.max_inflight,
        (nproc / shards.max_inflight).max(1)
    )
}

/// Outcomes rendered for bit-exact comparison: `{:?}` prints every f64 in
/// its shortest round-trip form, so equal text means equal bits.
pub fn outcome_text(outcomes: &[Result<SimOutcome, JobPanic>]) -> Vec<String> {
    outcomes.iter().map(|o| format!("{o:?}")).collect()
}

/// Counts each job of a pass as one operation; a `JobPanic` fails it.
pub fn count_jobs(report: &mut Report, pass: &str, outcomes: &[Result<SimOutcome, JobPanic>]) {
    for o in outcomes {
        report.op(o.is_ok(), || format!("{pass}: {}", o.as_ref().unwrap_err()));
    }
}

/// Creates one sweep pass's inputs: the seeded job list, a fresh
/// `Journal` and an empty fabric directory.
fn sweep_setup(seed: u64, scratch: &mut Scratch) -> (Vec<JobSpec>, Journal, PathBuf, PathBuf) {
    let jobs = workloads::sweep_jobs(seed);
    let journal_dir = scratch.fresh("journal").expect("scratch journal dir");
    let journal = Journal::create(&journal_dir, &jobs).expect("create sweep journal");
    let fabric_dir = scratch.fresh("fabric").expect("scratch fabric dir");
    (jobs, journal, journal_dir, fabric_dir)
}

/// `sweep`: the fig4 grid through `run_supervised` + `Journal`, then
/// through `run_sharded` on 2 local shards; outcomes must match bit for bit.
fn sweep(seed: u64, seconds: u64, scratch: &mut Scratch, report: &mut Report) {
    let mut setup = Vec::new();
    let mut inproc_rates = Vec::new();
    let mut sharded_ms_per_job = Vec::new();
    let mut reference: Option<Vec<String>> = None;
    let mut rss = None;
    repeat(seconds, 3, |rep| {
        let t = Instant::now();
        let (jobs, journal, journal_dir, fabric_dir) = sweep_setup(seed, scratch);
        setup.push(t.elapsed().as_secs_f64());

        let (sup, shard_opts) = runner_options(jobs.len());
        let ticks: u64 = jobs.iter().map(|j| run_ticks(&j.config)).sum();
        let t = Instant::now();
        let inproc = run_supervised(&jobs, &sup, Some(&journal));
        inproc_rates.push(ticks as f64 / t.elapsed().as_secs_f64());
        count_jobs(report, "in-process", &inproc);

        let t = Instant::now();
        let sharded = run_sharded(&jobs, &sup, &fabric_dir, &shard_opts, false);
        sharded_ms_per_job.push(ms(t.elapsed()) / jobs.len() as f64);
        let sharded = sharded.unwrap_or_else(|e| {
            report.op(false, || format!("rep {rep}: run_sharded: {e}"));
            Vec::new()
        });
        count_jobs(report, "sharded", &sharded);

        let a = outcome_text(&inproc);
        report.op(a == outcome_text(&sharded), || {
            format!("rep {rep}: sharded outcomes differ from in-process")
        });
        let r = reference.get_or_insert_with(|| a.clone());
        report.op(*r == a, || format!("rep {rep}: outcomes differ from rep 0"));
        let _ = std::fs::remove_dir_all(&journal_dir);
        let _ = std::fs::remove_dir_all(&fabric_dir);
        rss = rss.or_else(harness::peak_rss_mb);
    });
    while setup.len() < MIN_SETUPS {
        let t = Instant::now();
        let (_, _, journal_dir, fabric_dir) = sweep_setup(seed, scratch);
        setup.push(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(journal_dir);
        let _ = std::fs::remove_dir_all(fabric_dir);
    }
    let jobs = workloads::sweep_jobs(seed);
    let (sup, shard_opts) = runner_options(jobs.len());
    let ticks_per_job = run_ticks(&jobs[0].config) as f64;
    let inproc = median(&inproc_rates).unwrap_or(f64::NAN);
    let sharded = median(&sharded_ms_per_job).unwrap_or(f64::NAN);
    let fnv = reference.map_or(0, |r| harness::fnv1a(r.concat().as_bytes()));
    report.line(budget_line(&sup, &shard_opts));
    report.line(format!(
        "{} passes of {} jobs each way",
        inproc_rates.len(),
        jobs.len()
    ));
    report.line(format!("output_fnv {fnv:016x}"));
    report.line(format!(
        "metric inproc_jobs_per_s {} 1/s; ticks/s per pass {}",
        inproc / ticks_per_job,
        list(&inproc_rates)
    ));
    report.line(format!(
        "metric sharded_jobs_per_s {} 1/s; ms/job per pass {}",
        1e3 / sharded,
        list(&sharded_ms_per_job)
    ));
    report.metric("setup_s", median(&setup).unwrap_or(f64::NAN), "s");
    report.metric("ticks_per_s", inproc, "1/s");
    report.metric("op_p50_ms", sharded, "ms");
    report.metric("peak_rss_mb", rss.unwrap_or(f64::NAN), "MB");
}

/// Byte-compares materialized worlds at `ticks` (sorted) against one live
/// twin stepped forward once, outside any timed section. Returns the
/// snapshots' combined fingerprint.
pub fn check_twin(
    run: &StoredRun,
    cfg: &SimConfig,
    seed: u64,
    trace_cap: usize,
    ticks: &[u64],
    report: &mut Report,
) -> u64 {
    let mut ticks = ticks.to_vec();
    ticks.sort_unstable();
    ticks.dedup();
    let mut twin = World::new(cfg, seed);
    twin.enable_trace(trace_cap);
    let mut at = 0u64;
    let mut fp = Vec::new();
    for &t in &ticks {
        while at < t {
            twin.step();
            at += 1;
        }
        let live = twin.save_snapshot();
        fp.extend_from_slice(&harness::fnv1a(&live).to_le_bytes());
        let ok = run.materialize(t).is_ok_and(|w| w.save_snapshot() == live);
        report.op(ok, || {
            format!("materialize({t}) differs from the live twin")
        });
    }
    harness::fnv1a(&fp)
}

/// Records one run of `cfg` into `dir` with `RunRecorder` and checks the
/// final world's invariants; returns the recorded ticks.
pub fn record(dir: &Path, cfg: &SimConfig, seed: u64, opts: &RecordOptions) -> Result<u64, String> {
    let mut rec =
        RunRecorder::create(dir, cfg.clone(), seed, opts.clone()).map_err(|e| e.to_string())?;
    while !rec.finished() {
        rec.step().map_err(|e| e.to_string())?;
    }
    rec.seal().map_err(|e| e.to_string())?;
    rec.world().check_invariants()?;
    Ok(rec.tick())
}

/// `store`: cycles of (record one paper-scale run with `RunRecorder`,
/// `StoredRun::open` it, `materialize` `QUERIES_PER_CYCLE` seeded-random
/// ticks), cycling through the `ENGINE_PANEL` world seeds. The first
/// cycle's recording is also checked against a live twin.
fn store(seed: u64, seconds: u64, scratch: &mut Scratch, report: &mut Report) {
    let opts = RecordOptions::default();
    let cfg = workloads::paper_config();
    let seeds = workloads::world_seeds(seed);
    let mut setup = Vec::new();
    let mut record_walls: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut recorded_ticks = vec![0u64; seeds.len()];
    let mut lat_ms = Vec::new();
    let mut bytes = 0;
    let mut fnv = 0;
    let mut rss = None;
    repeat(seconds, seeds.len(), |cycle| {
        let k = cycle % seeds.len();
        let t = Instant::now();
        std::hint::black_box(World::new(&cfg, seeds[k]));
        let dir = scratch.fresh("run").expect("scratch run dir");
        setup.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let recorded = record(&dir, &cfg, seeds[k], &opts);
        let wall = t.elapsed().as_secs_f64();
        report.op(recorded.is_ok(), || format!("record {cycle}: {recorded:?}"));
        if let Ok(n) = recorded {
            recorded_ticks[k] = n;
            record_walls[k].push(wall);
        }
        bytes = harness::dir_bytes(&dir);

        match StoredRun::open(&dir) {
            Ok(run) => {
                let queries = workloads::query_ticks(seeds[k], run.last_tick(), QUERIES_PER_CYCLE);
                for &tick in &queries {
                    let t = Instant::now();
                    let got = run.materialize(tick);
                    lat_ms.push(ms(t.elapsed()));
                    report.op(got.is_ok(), || {
                        format!("materialize({tick}): {:?}", got.err())
                    });
                }
                if cycle == 0 {
                    fnv = check_twin(
                        &run,
                        &cfg,
                        seeds[k],
                        opts.trace_cap,
                        &queries[..TWIN_SAMPLES],
                        report,
                    );
                }
            }
            Err(e) => report.op(false, || format!("StoredRun::open: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
        if cycle + 1 == seeds.len() {
            rss = harness::peak_rss_mb();
        }
    });
    while setup.len() < MIN_SETUPS {
        let t = Instant::now();
        std::hint::black_box(World::new(&cfg, seed));
        let dir = scratch.fresh("run").expect("scratch run dir");
        setup.push(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(dir);
    }
    let rate =
        recorded_ticks.iter().sum::<u64>() as f64 / seed_medians(&record_walls).iter().sum::<f64>();
    let recordings: Vec<f64> = record_walls
        .iter()
        .zip(&recorded_ticks)
        .flat_map(|(ws, &n)| ws.iter().map(move |w| n as f64 / w))
        .collect();
    let tail = tail_percentile(lat_ms.len()).unwrap_or(50.0);
    report.line(format!(
        "budget threads=1 nproc={}; {} recordings of ~{bytes} bytes, world seeds {seeds:?}, {} queries",
        harness::nproc(),
        recordings.len(),
        lat_ms.len()
    ));
    report.line(format!("output_fnv {fnv:016x}"));
    report.line(format!(
        "metric record_ticks_per_s {rate} 1/s (median recording of each world seed)"
    ));
    report.line(format!("  per recording {}", list(&recordings)));
    report.line(format!(
        "metric materialize_p50_ms {} ms; materialize_p{tail}_ms {} ms (n={})",
        median(&lat_ms).unwrap_or(0.0),
        percentile(&lat_ms, tail).unwrap_or(0.0),
        lat_ms.len()
    ));
    report.metric("setup_s", median(&setup).unwrap_or(f64::NAN), "s");
    report.metric("ticks_per_s", rate, "1/s");
    report.metric("op_p50_ms", median(&lat_ms).unwrap_or(f64::NAN), "ms");
    report.metric("peak_rss_mb", rss.unwrap_or(f64::NAN), "MB");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_job(label: &str) -> JobSpec {
        let mut cfg = SimConfig::small(0.05);
        cfg.num_sensors = 30;
        cfg.num_targets = 2;
        JobSpec::new(label, &cfg, 1)
    }

    #[test]
    fn error_rate_counts_a_deliberately_failing_job() {
        let mut broken = tiny_job("broken");
        broken.config.tick_s = f64::NAN; // rejected by SimConfig::validate
        let jobs = [tiny_job("ok"), broken];
        let sup = SupervisorOptions {
            retries: 0,
            ..SupervisorOptions::default()
        };
        let outcomes = run_supervised(&jobs, &sup, None);
        let mut report = Report::default();
        count_jobs(&mut report, "test", &outcomes);
        assert_eq!((report.attempted, report.failed), (2, 1));
        assert_eq!(report.error_rate(), 0.5);
        assert!(!report.correct());
        assert!(report.json().contains("\"correct\":false"));
    }

    #[test]
    fn outcome_text_tells_bit_different_outcomes_apart() {
        let jobs = [tiny_job("a")];
        let a = run_supervised(&jobs, &SupervisorOptions::default(), None);
        let b = run_supervised(&jobs, &SupervisorOptions::default(), None);
        assert_eq!(outcome_text(&a), outcome_text(&b));
        let mut c = a.clone();
        let out = c[0].as_mut().unwrap();
        out.total_drained_j = f64::from_bits(out.total_drained_j.to_bits() ^ 1);
        assert_ne!(outcome_text(&a), outcome_text(&c));
    }
}
