//! Corruption fuzzing for every on-disk and on-wire format: the run
//! store's event log, the fabric wire and the world snapshot.
//!
//! One harness runs over both framed formats (DESIGN.md, "Framed codec")
//! and asserts the union of their damage contracts — whatever bytes
//! arrive, the decoder never panics, and:
//!
//! * a cut on a frame boundary decodes clean, a cut anywhere else torn;
//! * frames that end before a flipped byte survive intact, and a flip
//!   never decodes clean;
//! * the decoded records are always a prefix of the original stream,
//!   compared by their re-framed bytes;
//! * only header damage is a hard error.
//!
//! Format-specific damage (materializing through a damaged log, falling
//! back past a corrupt snapshot link, frames arriving in pieces off a
//! socket, foreign files where a log should be) is tested below it.

mod common;

use common::TempDir;
use wrsn_sim::batch::JobSpec;
use wrsn_sim::codec::{Tail, Unframed};
use wrsn_sim::fabric::wire::{self, Assign, Msg};
use wrsn_sim::journal::grid_hash;
use wrsn_sim::snapshot::SnapshotError;
use wrsn_sim::store::{log, snap_file_name, RecordOptions, RunRecorder, StoredRun, LOG_FILE};
use wrsn_sim::{SimConfig, World};

/// Tiny deterministic RNG so the fuzz positions are reproducible.
struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

// --- The harness ---------------------------------------------------------

/// One framed format under test: a clean sample stream, its decoder and
/// its per-record framer.
struct Format<T> {
    bytes: Vec<u8>,
    decode: fn(&[u8]) -> Result<Unframed<T>, SnapshotError>,
    frame: fn(&T) -> Vec<u8>,
}

impl<T> Format<T> {
    /// Decodes `input` (a damaged copy of the sample) past an intact
    /// header and checks that the result is a prefix of the sample.
    fn decode_prefix(&self, input: &[u8], full: &Unframed<T>, what: &str) -> Unframed<T> {
        let decoded = (self.decode)(input).unwrap_or_else(|e| panic!("{what}: {e}"));
        let n = decoded.records.len();
        assert_eq!(decoded.ends, full.ends[..n], "{what}: frame ends moved");
        let mut reframed = self.bytes[..12].to_vec();
        for rec in &decoded.records {
            reframed.extend_from_slice(&(self.frame)(rec));
        }
        let end = decoded.ends.last().map_or(12, |&e| e as usize);
        assert!(reframed == self.bytes[..end], "{what}: not a prefix");
        decoded
    }

    fn fuzz(&self, flips: usize, seed: u64) {
        let bytes = &self.bytes;
        let full = self.decode_prefix(bytes, &(self.decode)(bytes).unwrap(), "full");
        assert_eq!(full.tail, Tail::Clean);
        assert_eq!(*full.ends.last().unwrap(), bytes.len() as u64);

        for cut in 0..bytes.len() {
            if cut < 12 {
                let err = (self.decode)(&bytes[..cut]).err();
                assert!(
                    matches!(err, Some(SnapshotError::Truncated)),
                    "cut at {cut}"
                );
                continue;
            }
            let what = format!("cut at {cut}");
            let decoded = self.decode_prefix(&bytes[..cut], &full, &what);
            let on_boundary = cut == 12 || full.ends.contains(&(cut as u64));
            let want = if on_boundary { Tail::Clean } else { Tail::Torn };
            assert_eq!(decoded.tail, want, "{what}");
        }

        let mut rng = XorShift(seed);
        for _ in 0..flips {
            let pos = rng.below(bytes.len());
            let bit = 1u8 << rng.below(8);
            let mut damaged = bytes.clone();
            damaged[pos] ^= bit;
            let what = format!("flip at byte {pos} bit {bit:#04x}");
            if pos < 12 {
                let err = (self.decode)(&damaged).err();
                let header = match err {
                    Some(SnapshotError::BadMagic) => pos < 8,
                    Some(SnapshotError::UnsupportedVersion(_)) => pos >= 8,
                    _ => false,
                };
                assert!(header, "{what}: {err:?}");
                continue;
            }
            let decoded = self.decode_prefix(&damaged, &full, &what);
            let intact = full.ends.iter().filter(|&&e| e <= pos as u64).count();
            assert!(
                decoded.records.len() >= intact,
                "{what}: lost intact frames"
            );
            assert!(decoded.tail.is_damaged(), "{what}: not detected");
        }

        for _ in 0..100 {
            let mut noisy = bytes.clone();
            noisy.extend((0..40).map(|_| rng.next() as u8));
            let decoded = self.decode_prefix(&noisy, &full, "noise tail");
            assert_eq!(decoded.ends, full.ends, "noise tail ate a frame");
            assert!(decoded.tail.is_damaged(), "noise tail must be flagged");
        }

        let err = (self.decode)(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").err();
        assert!(matches!(err, Some(SnapshotError::BadMagic)), "{err:?}");
        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&9000u32.to_le_bytes());
        let err = (self.decode)(&future).err();
        assert!(matches!(err, Some(SnapshotError::UnsupportedVersion(9000))));
    }
}

// --- Sample streams ------------------------------------------------------

fn chaos_config() -> SimConfig {
    let mut cfg = SimConfig::small(0.25);
    cfg.num_sensors = 40;
    cfg.num_targets = 2;
    cfg.num_rvs = 1;
    cfg.field_side = 50.0;
    cfg.initial_soc = (0.3, 1.0);
    cfg.min_batch_demand_j = 10e3;
    cfg.faults.rv_breakdowns_per_day = 6.0;
    cfg.faults.rv_repair_s = (600.0, 1_800.0);
    cfg.faults.uplink_loss = 0.3;
    cfg.faults.transients_per_day = 4.0;
    cfg
}

/// Records one complete chaos run into a temp dir private to `test`.
fn record(test: &str, snap_every: u64) -> TempDir {
    let dir = TempDir::new(&format!("codec-fuzz-{test}"));
    let opts = RecordOptions {
        snap_every,
        trace_cap: 512,
        label: test.into(),
    };
    let mut rec = RunRecorder::create(&*dir, chaos_config(), 7, opts).expect("create");
    rec.run().expect("record");
    dir
}

/// A realistic two-way conversation worth of messages, including a full
/// `Assign` (the largest, deepest-nested frame the protocol has).
fn sample_msgs() -> Vec<Msg> {
    let jobs: Vec<JobSpec> = (0..3)
        .map(|i| {
            let mut cfg = SimConfig::small(0.25);
            cfg.num_sensors = 12 + i;
            JobSpec::new(format!("fuzz-job-{i}"), &cfg, 90 + i as u64)
        })
        .collect();
    vec![
        Msg::Assign(Box::new(Assign {
            shard: 3,
            attempt: 1,
            grid_hash: grid_hash(&jobs),
            threads: 2,
            retries: 3,
            retry_backoff_s: 0.2,
            timeout_s: -1.0,
            sim_time_cap_s: 7200.0,
            stall: false,
            abort_after_ms: 0,
            jobs,
            prior_journal: "meta {\"v\":1}\ndone {\"index\":0}\n".into(),
        })),
        Msg::Accept { shard: 3 },
        Msg::Heartbeat { counter: 1 },
        Msg::JournalLines {
            text: "done {\"index\":1}\n".into(),
        },
        Msg::Heartbeat { counter: 2 },
        Msg::Done {
            ok: true,
            error: String::new(),
        },
    ]
}

fn wire_format() -> Format<Msg> {
    let mut bytes = wire::header_bytes();
    for msg in sample_msgs() {
        bytes.extend_from_slice(&wire::frame(&msg));
    }
    Format {
        bytes,
        decode: wire::decode_stream,
        frame: wire::frame,
    }
}

// --- Every format --------------------------------------------------------

#[test]
fn event_log_survives_truncation_flips_and_noise() {
    let dir = record("log", 60);
    Format {
        bytes: std::fs::read(dir.join(LOG_FILE)).expect("log"),
        decode: log::decode,
        frame: log::frame,
    }
    .fuzz(500, 0x9E37_79B9_7F4A_7C15);
}

#[test]
fn fabric_wire_survives_truncation_flips_and_noise() {
    wire_format().fuzz(500, 0x5eed_fab0);
}

#[test]
fn every_strict_snapshot_prefix_is_an_error() {
    let mut cfg = SimConfig::small(0.05);
    cfg.num_sensors = 8;
    cfg.num_targets = 1;
    let mut w = World::new(&cfg, 3);
    for _ in 0..20 {
        w.step();
    }
    let blob = w.save_snapshot();
    assert!(World::resume(&blob).is_ok());
    for cut in 0..blob.len() {
        assert!(
            World::resume(&blob[..cut]).is_err(),
            "prefix of {cut} bytes"
        );
    }
}

// --- Format-specific damage ----------------------------------------------

#[test]
fn damaged_log_still_materializes_the_longest_valid_prefix() {
    let dir = record("prefix", 40);
    let log_path = dir.join(LOG_FILE);
    let mut damaged = std::fs::read(&log_path).expect("log");
    // Flip one byte about 70% in: everything before stays queryable.
    let pos = damaged.len() * 7 / 10;
    damaged[pos] ^= 0x20;
    std::fs::write(&log_path, &damaged).expect("write damage");

    let run = StoredRun::open(&*dir).expect("open survives damage");
    assert!(run.tail().is_damaged(), "damage must be flagged");
    assert!(run.end_tick().is_none(), "the end mark is past the damage");
    let last = run.last_tick();
    assert!(last > 0, "a healthy prefix must remain");

    // Materialization through the surviving prefix still honors the
    // byte-identity contract.
    let tick = last / 2;
    let world = run.materialize(tick).expect("materialize prefix");
    let mut live = World::new(world.config(), run.seed());
    live.enable_trace(run.trace_cap() as usize);
    for _ in 0..tick {
        live.step();
    }
    assert_eq!(
        world.save_snapshot(),
        live.save_snapshot(),
        "prefix materialization diverged from the live run"
    );
}

#[test]
fn corrupt_snapshot_file_falls_back_to_an_earlier_link() {
    let dir = record("snapfall", 30);
    let run = StoredRun::open(&*dir).expect("open");
    let links = run.snapshots().to_vec();
    assert!(links.len() >= 3, "need a chain to test fallback");
    // Corrupt the second-to-last link's file; materializing just after it
    // must fall back to the link before and replay further.
    let victim = links[links.len() - 2];
    let path = dir.join(snap_file_name(victim.tick));
    let mut blob = std::fs::read(&path).expect("snap");
    let mid = blob.len() / 2;
    blob[mid] ^= 0xFF;
    std::fs::write(&path, &blob).expect("corrupt snap");

    let tick = victim.tick + 1;
    let world = run.materialize(tick).expect("fallback materialization");
    let mut live = World::new(world.config(), run.seed());
    live.enable_trace(run.trace_cap() as usize);
    for _ in 0..tick {
        live.step();
    }
    assert_eq!(
        world.save_snapshot(),
        live.save_snapshot(),
        "fallback materialization diverged"
    );

    // Deleting the file entirely behaves the same as corrupting it.
    std::fs::remove_file(&path).expect("remove snap");
    let world = run.materialize(tick).expect("materialize without the link");
    assert_eq!(world.save_snapshot(), live.save_snapshot());

    // With every link gone there is nothing to replay from: a clean
    // error, not a panic.
    for link in &links {
        std::fs::remove_file(dir.join(snap_file_name(link.tick))).ok();
    }
    assert!(run.materialize(tick).is_err());
}

#[test]
fn foreign_and_empty_files_are_not_event_logs() {
    let dir = TempDir::new("codec-fuzz-alien");
    // Empty file.
    std::fs::write(dir.join(LOG_FILE), b"").expect("write");
    assert!(StoredRun::open(&*dir).is_err());
    // A JSONL journal is not an event log.
    std::fs::write(dir.join(LOG_FILE), b"{\"kind\":\"start\"}\n").expect("write");
    assert!(StoredRun::open(&*dir).is_err());
    // A WRSNSNAP snapshot is not an event log either.
    let mut w = World::new(&chaos_config(), 1);
    w.step();
    std::fs::write(dir.join(LOG_FILE), w.save_snapshot()).expect("write");
    assert!(StoredRun::open(&*dir).is_err());
}

/// A socket reader sees the stream grow in arbitrary chunks; every
/// prefix must decode to a monotonically growing frame prefix (partial
/// frames held back, complete ones released — no rollback, no
/// reordering, no spurious corruption).
#[test]
fn interleaved_partial_wire_frames_decode_monotonically() {
    let format = wire_format();
    let full = (format.decode)(&format.bytes).expect("full decode");
    let mut rng = XorShift(0xfeed_beef);

    for _trial in 0..50 {
        let mut have = 12usize; // the header always arrives first
        let mut last = 0usize;
        while have < format.bytes.len() {
            have = (have + 1 + rng.below(97)).min(format.bytes.len());
            let decoded = format.decode_prefix(&format.bytes[..have], &full, "partial");
            assert!(
                decoded.records.len() >= last,
                "a longer prefix decoded fewer frames"
            );
            assert!(
                !matches!(decoded.tail, Tail::Corrupt(_)),
                "partial delivery misread as corruption at {have} bytes"
            );
            last = decoded.records.len();
        }
        assert_eq!(
            last,
            full.records.len(),
            "the complete stream must fully decode"
        );
    }
}
