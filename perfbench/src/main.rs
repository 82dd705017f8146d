//! `perfbench` — the wrsn repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_run --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `paper_run`, `sweep`, `store` (see README.md).
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the separate
//! traced run reporting the per-layer metrics and writing its spans to
//! stderr as JSON lines. Human-readable lines go to stdout first; the last
//! stdout line is one JSON object `{"correct","attempted","failed",
//! "metrics"}`. The process exits non-zero when any output check fails.

mod e2e;
mod harness;
mod traced;
mod workloads;

use harness::{Args, Report, Scratch};
use std::process::ExitCode;
use workloads::Workload;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload `{}`; one of: paper_run, sweep, store",
            args.workload
        );
        return ExitCode::from(2);
    };

    // A re-executed shard worker: rebuild the identical seeded job list
    // and run the assigned shard; `run_sharded` exits the process.
    if std::env::var_os(wrsn_sim::shard::WORKER_ENV).is_some() {
        let jobs = workloads::jobs(workload, args.seed);
        let (sup, shard_opts) = e2e::runner_options(jobs.len());
        let _ = wrsn_sim::shard::run_sharded(&jobs, &sup, "", &shard_opts, false);
        unreachable!("run_sharded exits in a worker process");
    }

    let mut scratch = match Scratch::create(workload.name()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut report = Report::default();
    if args.trace {
        traced::run(workload, args.seed, &mut scratch, &mut report);
    } else {
        e2e::run(workload, args.seed, args.seconds, &mut scratch, &mut report);
    }
    drop(scratch);

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in report.lines() {
        println!("  {line}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
