//! Golden byte pins for every persisted or transmitted format.
//!
//! The round-trip and fuzz suites only prove that a codec agrees with
//! itself; a change to a length prefix or a field order would pass them.
//! These pins fix the bytes themselves. Each frame is `len | payload |
//! fnv1a(payload)`, so pinning every frame's length and stored checksum
//! pins its payload; the 12-byte stream header is pinned verbatim. The
//! grid and config hashes are FNV-1a literals too.

use wrsn_core::{RvId, SensorId};
use wrsn_sim::batch::JobSpec;
use wrsn_sim::fabric::wire::{self, Assign, Msg};
use wrsn_sim::journal::grid_hash;
use wrsn_sim::store::{LogRecord, LogWriter, LOG_FILE};
use wrsn_sim::{SimConfig, TraceEvent};

/// Splits `bytes` (header already removed) into `(payload len, stored
/// checksum)` per frame, asserting the frames tile the input exactly.
fn frame_pins(mut bytes: &[u8]) -> Vec<(u32, u64)> {
    let mut pins = Vec::new();
    while !bytes.is_empty() {
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap());
        let end = 4 + len as usize;
        let sum = u64::from_le_bytes(bytes[end..end + 8].try_into().unwrap());
        pins.push((len, sum));
        bytes = &bytes[end + 8..];
    }
    pins
}

fn three_jobs() -> Vec<JobSpec> {
    (0..3)
        .map(|i| {
            let mut cfg = SimConfig::small(0.25);
            cfg.num_sensors = 20 + i;
            JobSpec::new(format!("pin-{i}"), &cfg, 100 + i as u64)
        })
        .collect()
}

#[test]
fn event_log_frames_are_pinned() {
    let dir = std::env::temp_dir().join(format!("wrsn-golden-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(LOG_FILE);
    let meta = LogRecord::Meta {
        config_hash: 0x0123_4567_89AB_CDEF,
        seed: 42,
        tick_s: 60.0,
        snap_every: 250,
        trace_cap: 4096,
        label: "fig4/erp=0.50".into(),
    };
    let mut w = LogWriter::create(&path, &meta).unwrap();
    for rec in [
        LogRecord::Event {
            tick: 17,
            event: TraceEvent::Dispatch {
                t: 1020.0,
                rv: RvId(2),
                stops: 5,
                demand_j: 12_345.5,
            },
        },
        LogRecord::Event {
            tick: 18,
            event: TraceEvent::SensorDepleted {
                t: 1080.0,
                sensor: SensorId(311),
            },
        },
        LogRecord::Sample {
            tick: 60,
            t: 3600.0,
            coverage: 0.9375,
            nonfunctional: 0.0625,
            alive: 498.0,
        },
        LogRecord::Snap {
            tick: 250,
            bytes: 81_920,
            hash: 0xFEED_FACE_CAFE_BEEF,
        },
        LogRecord::End { tick: 172_800 },
    ] {
        w.push(&rec);
    }
    w.flush().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(bytes[..12], *b"WRSNEVTL\x01\x00\x00\x00");
    assert_eq!(
        frame_pins(&bytes[12..]),
        vec![
            (62, 0x9de31dedfecd132c),
            (38, 0xe90e7ac53eba797b),
            (22, 0x4f0d72d0dfb6dc38),
            (41, 0x837947628148e55c),
            (25, 0x73f7bcdf786361d7),
            (9, 0xf80e165b6c7860bc),
        ]
    );
}

#[test]
fn fabric_wire_frames_are_pinned() {
    let jobs = three_jobs();
    let msgs = [
        Msg::Assign(Box::new(Assign {
            shard: 1,
            attempt: 2,
            grid_hash: grid_hash(&jobs),
            threads: 4,
            retries: 3,
            retry_backoff_s: 0.5,
            timeout_s: -1.0,
            sim_time_cap_s: 86_400.0,
            stall: false,
            abort_after_ms: 250,
            jobs,
            prior_journal: "{\"kind\":\"meta\"}\n".into(),
        })),
        Msg::Accept { shard: 1 },
        Msg::Refuse {
            reason: "grid hash mismatch".into(),
        },
        Msg::Heartbeat { counter: 9 },
        Msg::JournalLines {
            text: "{\"kind\":\"done\",\"index\":0}\n".into(),
        },
        Msg::Done {
            ok: true,
            error: String::new(),
        },
    ];
    let header = wire::header_bytes();
    assert_eq!(header, b"WRSNFAB1\x01\x00\x00\x00");
    let mut frames = Vec::new();
    for msg in &msgs {
        frames.extend_from_slice(&wire::frame(msg));
    }
    assert_eq!(
        frame_pins(&frames),
        vec![
            (1424, 0xa447ff309cf14eba),
            (9, 0x7194f3e59ae47dcd),
            (27, 0x748118c0ab8d3ae3),
            (9, 0x903fd6e91b94bafb),
            (35, 0xfd0f8c135ce0eba3),
            (10, 0x8203b81825013a33),
        ]
    );
}

#[test]
fn grid_and_config_hashes_are_pinned() {
    assert_eq!(grid_hash(&three_jobs()), 0x64bdd0b5bd353b59);
    assert_eq!(
        SimConfig::paper_defaults().content_hash(),
        0x98f074e15d25c1e9
    );
}
