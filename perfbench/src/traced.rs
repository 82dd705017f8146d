//! The traced run (`--trace 1`): the workload's job list is pushed through
//! every layer once, each call wrapped in a coarse span taken from the
//! benchmark's own code, and the per-layer metrics are read off the spans.
//! Nothing inside the program is instrumented; the engine's phase split
//! comes from the public `World::step_timed` (pinned bitwise ≡ `step`).
//!
//! Every workload reports every per-layer metric, so the layers a workload
//! does not stress still run on its own inputs (e.g. `paper_run` also
//! records its one job into a store); the ones it exists to stress are the
//! numbers to read from it (README.md, "Per-layer metrics").

use crate::e2e::{self, check_twin, count_jobs, outcome_text, runner_options, MIN_QUERIES};
use crate::harness::{self, median, percentile, Report, Scratch, Tracer};
use crate::workloads::{self, Workload};
use wrsn_sim::batch::{run_supervised, JobSpec};
use wrsn_sim::journal::Journal;
use wrsn_sim::shard::run_sharded;
use wrsn_sim::store::{RecordOptions, StoredRun};
use wrsn_sim::{StepTimings, World};

/// Materialize queries in the traced run of the non-store workloads.
const FEW_QUERIES: usize = 50;
/// Encode/decode repetitions for the snapshot medians.
const CODEC_REPS: usize = 5;

/// Per-phase sums plus the per-tick totals kept for percentiles.
#[derive(Default)]
struct PhaseHistogram {
    sum: StepTimings,
    tick_ns: Vec<f64>,
}

impl PhaseHistogram {
    fn add(&mut self, t: &StepTimings) {
        let s = &mut self.sum;
        s.mobility_ns += t.mobility_ns;
        s.activity_ns += t.activity_ns;
        s.faults_ns += t.faults_ns;
        s.routing_ns += t.routing_ns;
        s.drain_ns += t.drain_ns;
        s.dispatch_ns += t.dispatch_ns;
        s.fleet_ns += t.fleet_ns;
        s.sample_ns += t.sample_ns;
        self.tick_ns.push(t.total_ns() as f64);
    }

    fn buckets(&self) -> [(&'static str, u64); 8] {
        let s = &self.sum;
        [
            ("dispatch", s.dispatch_ns),
            ("drain", s.drain_ns),
            ("mobility", s.mobility_ns),
            ("routing", s.routing_ns),
            ("activity", s.activity_ns),
            ("faults", s.faults_ns),
            ("fleet", s.fleet_ns),
            ("sample", s.sample_ns),
        ]
    }
}

pub fn run(w: Workload, seed: u64, scratch: &mut Scratch, report: &mut Report) {
    let jobs = workloads::jobs(w, seed);
    let queries = if w == Workload::Store {
        MIN_QUERIES
    } else {
        FEW_QUERIES
    };
    let mut tr = Tracer::default();
    tr.span(w.name(), |tr| {
        let (serial, last_world) = engine_layer(tr, &jobs, report);
        snapshot_layer(tr, &last_world, report);
        runner_layers(tr, &jobs, &serial, scratch, report);
        store_layer(tr, &jobs[0], seed, queries, scratch, report);
    });
    let mut err = std::io::stderr().lock();
    let _ = tr.write_jsonl(&mut err);
}

/// Each job serially, untraced (`World::run`) and then phase-timed
/// (`World::step_timed`); both must end in the same snapshot bytes.
/// Returns the serial outcomes' text and the last traced world.
fn engine_layer(tr: &mut Tracer, jobs: &[JobSpec], report: &mut Report) -> (Vec<String>, World) {
    let mut hist = PhaseHistogram::default();
    let mut serial = Vec::new();
    let (mut plans, mut deaths, mut alive, mut board_max) = (0u64, 0u64, 0usize, 0usize);
    let mut last = None;
    for job in jobs {
        let mut plain = World::new(&job.config, job.seed);
        let (outcome, _) = tr.span("engine.run", |_| plain.run());
        let plain_bytes = plain.save_snapshot();
        serial.push(format!(
            "{:?}",
            Ok::<_, wrsn_sim::batch::JobPanic>(outcome.clone())
        ));

        let mut timed = World::new(&job.config, job.seed);
        let every = (job.config.sample_every_s / job.config.tick_s)
            .round()
            .max(1.0) as u64;
        tr.span("engine.step_timed", |_| {
            let mut tick = 0u64;
            while !timed.finished() {
                hist.add(&timed.step_timed());
                tick += 1;
                if tick.is_multiple_of(every) {
                    board_max = board_max.max(timed.board().released_count());
                }
            }
        });
        let same = timed.save_snapshot() == plain_bytes;
        report.op(same, || {
            format!("{}: step_timed snapshot != run snapshot", job.label)
        });
        let inv = timed.check_invariants();
        report.op(inv.is_ok(), || format!("{}: invariants {inv:?}", job.label));
        plans += outcome.plans;
        deaths += outcome.deaths;
        alive += outcome.final_alive;
        last = Some(timed);
    }

    let traced_s = tr.total_s("engine.step_timed");
    let plain_s = tr.total_s("engine.run");
    let mut attributed = 0.0;
    let mut largest = ("", 0.0);
    for (name, ns) in hist.buckets() {
        let s = ns as f64 * 1e-9;
        attributed += s;
        if s > largest.1 {
            largest = (name, s);
        }
        report.metric(&format!("engine.{name}_s"), s, "s");
    }
    report.metric("engine.unattributed_s", traced_s - attributed, "s");
    report.metric(
        "engine.tick_p50_us",
        median(&hist.tick_ns).unwrap_or(0.0) * 1e-3,
        "us",
    );
    report.metric(
        "engine.tick_p99_us",
        percentile(&hist.tick_ns, 99.0).unwrap_or(0.0) * 1e-3,
        "us",
    );
    report.metric("engine.plans", plans as f64, "count");
    report.metric("engine.deaths", deaths as f64, "count");
    report.metric("engine.final_alive", alive as f64, "count");
    report.metric("engine.board_released_max", board_max as f64, "count");
    report.metric("engine.jobs_serial_s", plain_s, "s");
    report.metric("trace_overhead", traced_s / plain_s, "ratio");
    report.line(format!(
        "largest engine bucket: {} ({:.1} % of the traced wall {traced_s:.3} s; {} ticks; \
         unattributed {:.1} %)",
        largest.0,
        100.0 * largest.1 / traced_s,
        hist.tick_ns.len(),
        100.0 * (traced_s - attributed) / traced_s
    ));
    (serial, last.expect("every workload has at least one job"))
}

/// `World::save_snapshot` / `World::resume` on the final world.
fn snapshot_layer(tr: &mut Tracer, world: &World, report: &mut Report) {
    let mut enc_ms = Vec::new();
    let mut dec_ms = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..CODEC_REPS {
        let (b, s) = tr.span("snapshot.encode", |_| world.save_snapshot());
        enc_ms.push(s * 1e3);
        bytes = b;
    }
    for _ in 0..CODEC_REPS {
        let (decoded, s) = tr.span("snapshot.decode", |_| World::resume(&bytes));
        dec_ms.push(s * 1e3);
        let same = decoded.as_ref().is_ok_and(|w| w.save_snapshot() == bytes);
        report.op(same, || {
            "snapshot decode/encode round trip differs".to_string()
        });
    }
    report.metric("snapshot.encode_ms", median(&enc_ms).unwrap_or(0.0), "ms");
    report.metric("snapshot.decode_ms", median(&dec_ms).unwrap_or(0.0), "ms");
    report.metric("snapshot.bytes", bytes.len() as f64, "bytes");
}

/// `run_supervised` without and with a `Journal`, then `run_sharded`; all
/// three must reproduce the serial outcomes bit for bit.
fn runner_layers(
    tr: &mut Tracer,
    jobs: &[JobSpec],
    serial: &[String],
    scratch: &mut Scratch,
    report: &mut Report,
) {
    let (sup, shard_opts) = runner_options(jobs.len());
    report.line(e2e::budget_line(&sup, &shard_opts));
    let check = |report: &mut Report, pass: &str, out: &[_]| {
        count_jobs(report, pass, out);
        let same = outcome_text(out) == serial;
        report.op(same, || {
            format!("{pass}: outcomes differ from the serial runs")
        });
    };

    let (plain, batch_s) = tr.span("batch.run_supervised", |_| run_supervised(jobs, &sup, None));
    check(report, "batch", &plain);

    let journal_dir = scratch.fresh("journal").expect("scratch journal dir");
    let journal = Journal::create(&journal_dir, jobs).expect("create journal");
    let (journaled, journal_s) = tr.span("journal.run_supervised", |_| {
        run_supervised(jobs, &sup, Some(&journal))
    });
    check(report, "journal", &journaled);

    let fabric_dir = scratch.fresh("fabric").expect("scratch fabric dir");
    let (sharded, shard_s) = tr.span("shard.run_sharded", |_| {
        run_sharded(jobs, &sup, &fabric_dir, &shard_opts, false)
    });
    match sharded {
        Ok(out) => check(report, "shard", &out),
        Err(e) => report.op(false, || format!("run_sharded: {e}")),
    }
    report.metric("batch.supervised_s", batch_s, "s");
    report.metric("journal.supervised_s", journal_s, "s");
    report.metric("shard.sharded_s", shard_s, "s");
    report.metric("shard.overhead_s", shard_s - journal_s, "s");
    report.line(format!(
        "sharded / journaled in-process wall: {:.2}x",
        shard_s / journal_s
    ));
    let _ = std::fs::remove_dir_all(journal_dir);
    let _ = std::fs::remove_dir_all(fabric_dir);
}

/// Plain run with the recorder's trace cap, the recording itself, then
/// `StoredRun::open` and `materialize` at seeded-random ticks.
fn store_layer(
    tr: &mut Tracer,
    job: &JobSpec,
    seed: u64,
    queries: usize,
    scratch: &mut Scratch,
    report: &mut Report,
) {
    let opts = RecordOptions::default();
    let (_, engine_s) = tr.span("store.engine_run", |_| {
        let mut w = World::new(&job.config, job.seed);
        w.enable_trace(opts.trace_cap);
        w.run()
    });
    let dir = scratch.fresh("run").expect("scratch run dir");
    let (recorded, record_s) = tr.span("store.record", |_| {
        e2e::record(&dir, &job.config, job.seed, &opts)
    });
    report.op(recorded.is_ok(), || format!("record: {recorded:?}"));
    report.metric("store.engine_s", engine_s, "s");
    report.metric("store.record_s", record_s, "s");
    report.metric(
        "store.bytes_written",
        harness::dir_bytes(&dir) as f64,
        "bytes",
    );

    let (opened, open_s) = tr.span("store.open", |_| StoredRun::open(&dir));
    let mut replay_mean = 0.0;
    match opened {
        Ok(run) => {
            let ticks = workloads::query_ticks(seed, run.last_tick(), queries);
            let snaps: Vec<u64> = run.snapshots().iter().map(|m| m.tick).collect();
            let mut lat_ms = Vec::new();
            for &t in &ticks {
                let (got, s) = tr.span("store.materialize", |_| run.materialize(t));
                lat_ms.push(s * 1e3);
                report.op(got.is_ok(), || format!("materialize({t}): {:?}", got.err()));
            }
            replay_mean = ticks
                .iter()
                .map(|&t| (t - snaps.iter().copied().filter(|&s| s <= t).max().unwrap_or(0)) as f64)
                .sum::<f64>()
                / ticks.len() as f64;
            tr.span("check.twin", |_| {
                check_twin(
                    &run,
                    &job.config,
                    job.seed,
                    opts.trace_cap,
                    &ticks[..e2e::TWIN_SAMPLES],
                    report,
                )
            });
            report.line(format!(
                "materialize p50 {:.3} ms over {} queries",
                median(&lat_ms).unwrap_or(0.0),
                lat_ms.len()
            ));
        }
        Err(e) => report.op(false, || format!("StoredRun::open: {e}")),
    }
    report.metric("store.open_ms", open_s * 1e3, "ms");
    report.metric("store.replay_ticks_mean", replay_mean, "ticks");
    let _ = std::fs::remove_dir_all(dir);
}
