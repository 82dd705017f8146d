//! Measurement plumbing shared by every workload: argument parsing, the
//! per-invocation scratch directory, order statistics, the peak-RSS
//! reader, output fingerprints, coarse spans, and the result printer.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Command-line arguments: `--workload NAME --seed N --seconds N --trace 0|1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = 0u64;
        let mut seconds = 10u64;
        let mut trace = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = parse_num(&flag, &value()?)?,
                "--seconds" => seconds = parse_num(&flag, &value()?)?.max(1),
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    }
                }
                other => {
                    return Err(format!(
                        "unknown flag `{other}`; usage: --workload NAME --seed N --seconds N --trace 0|1"
                    ))
                }
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

fn parse_num(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} takes a whole number, not `{v}`"))
}

/// A fresh per-invocation scratch directory inside the working directory,
/// `.perfbench_scratch/<workload>-<pid>-<n>`, removed (with the parent, if
/// it is then empty) when dropped. `n` is the first free counter value, so
/// two invocations never share a directory.
pub struct Scratch {
    root: PathBuf,
    next: u32,
}

const SCRATCH_PARENT: &str = ".perfbench_scratch";

impl Scratch {
    pub fn create(workload: &str) -> std::io::Result<Self> {
        let parent = Path::new(SCRATCH_PARENT);
        std::fs::create_dir_all(parent)?;
        let pid = std::process::id();
        for n in 0u32.. {
            let root = parent.join(format!("{workload}-{pid}-{n}"));
            match std::fs::create_dir(&root) {
                Ok(()) => return Ok(Self { root, next: 0 }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
        unreachable!("u32 counter exhausted")
    }

    /// A new, empty subdirectory `<what>-<counter>` of the scratch root.
    pub fn fresh(&mut self, what: &str) -> std::io::Result<PathBuf> {
        let dir = self.root.join(format!("{what}-{}", self.next));
        self.next += 1;
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        let _ = std::fs::remove_dir(SCRATCH_PARENT);
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

// --- Order statistics -------------------------------------------------------

/// Nearest-rank percentile `p` (0–100, to 0.1) of `samples`, or `None`
/// when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples, in integer
/// per-mille arithmetic so that e.g. p99.9 of 10 000 is exactly 9 990.
fn rank(n: usize, p: f64) -> usize {
    ((p * 10.0).round() as usize * n).div_ceil(1000)
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Number of samples strictly beyond the nearest-rank `p` percentile.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, so a reported tail rests on more than a few points.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
}

// --- Process facts ----------------------------------------------------------

/// `VmHWM` (peak resident set) in kB from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// This process's peak resident set in MB, or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

// --- Determinism helpers ----------------------------------------------------

/// 64-bit FNV-1a, the output fingerprint two commits' runs are diffed by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: a tiny seeded generator for benchmark inputs (query ticks,
/// sweep seeds), kept here so inputs never depend on the program's RNG.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..=hi`.
    pub fn below_incl(&mut self, hi: u64) -> u64 {
        self.next_u64() % (hi + 1)
    }
}

// --- Spans ------------------------------------------------------------------

/// One coarse span: a timed call into a layer's public entry point.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder. Spans nest through [`Tracer::span`]'s closure;
/// [`Tracer::write_jsonl`] writes them all out once the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`; returns its result and wall
    /// seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Summed wall seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// One JSON object per span: `{"id","name","start_ns","end_ns","parent"}`.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

// --- Result -----------------------------------------------------------------

/// What one invocation reports: operation counts, the contract metrics
/// (last stdout line) and human-readable lines printed before it.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, String)>,
    lines: Vec<String>,
}

impl Report {
    /// A metric of the final JSON line (`BENCHMARK.json` names).
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// A human-readable line (workload-specific metric names, fingerprints,
    /// budgets, sample counts), printed before the JSON line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Counts one operation, failed or not, and notes why it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let why = what();
            eprintln!("perfbench: FAILED: {why}");
            self.lines.push(format!("failure: {why}"));
        }
    }

    /// Failed operations ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Correct when something ran, nothing failed, and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The contract's last line: `{"correct","attempted","failed","metrics"}`.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                m,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 57, 100, 200, 999, 1000, 12_345] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&xs), Some(100.0));
        assert_eq!(percentile(&xs, 95.0), Some(190.0));
        assert_eq!(percentile(&xs, 100.0), Some(200.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn rss_reader_parses_proc_status() {
        let sample =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(sample), Some(5120));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        let live = std::fs::read_to_string("/proc/self/status").expect("Linux /proc");
        assert!(parse_vm_hwm_kb(&live).is_some_and(|kb| kb > 0));
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn args_round_trip_and_reject_junk() {
        let a = Args::parse(
            [
                "--workload",
                "sweep",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(a.workload, "sweep");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(Args::parse(["--bogus".to_string()]).is_err());
        assert!(Args::parse(["--seed", "1"].map(String::from)).is_err());
        assert!(Args::parse(["--workload", "x", "--trace", "2"].map(String::from)).is_err());
    }

    #[test]
    fn scratch_dirs_are_never_shared_and_are_removed() {
        let mut a = Scratch::create("selftest").unwrap();
        let mut b = Scratch::create("selftest").unwrap();
        assert_ne!(a.root, b.root);
        let (da, db) = (a.fresh("run").unwrap(), b.fresh("run").unwrap());
        assert_ne!(da, db);
        assert_ne!(da, a.fresh("run").unwrap());
        std::fs::write(da.join("f"), b"x").unwrap();
        let root = a.root.clone();
        drop(a);
        assert!(!root.exists());
        assert!(db.exists());
        drop(b);
        assert!(!db.exists());
    }

    #[test]
    fn report_json_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.op(true, String::new);
        r.metric("setup_s", 0.25, "s");
        let j = r.json();
        assert!(j.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{"));
        assert!(j.contains("\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}"));
    }
}
