//! Wire codec for the multi-machine sweep fabric (DESIGN.md §4i).
//!
//! Each direction of an agent connection is one `WRSNFAB1` stream of the
//! shared [`crate::codec`]: a header once, then checksummed frames, with
//! the same torn/corrupt damage model as the run store's event log
//! (DESIGN.md, "Framed codec"). The coordinator opens with an
//! [`Msg::Assign`] carrying the shard's job slice (configs via the
//! snapshot codec), the supervision knobs, and the prior shard journal
//! text for resume; the agent answers [`Msg::Accept`] or [`Msg::Refuse`],
//! then streams [`Msg::Heartbeat`] leases and complete
//! [`Msg::JournalLines`] until a final [`Msg::Done`].
//!
//! The blocking `MsgReader` used on live sockets funnels through the
//! same frame parser as the pure [`decode_stream`], so the fuzz suite over
//! byte buffers covers the socket path too.

use std::io::{Read, Write};

use crate::batch::JobSpec;
use crate::codec::{self, Dec, Enc, SnapshotError, Step, Unframed};
use crate::snapshot;

/// Magic bytes opening each direction of an agent connection.
pub const WIRE_MAGIC: [u8; 8] = *b"WRSNFAB1";
/// Bumped on any incompatible change to the frame payloads.
pub const WIRE_VERSION: u32 = 1;

/// A shard assignment: everything an agent needs to run one shard's job
/// slice under the same supervision contract as a local worker.
#[derive(Debug, Clone)]
pub struct Assign {
    /// Global shard index (for directory naming and log lines).
    pub shard: u64,
    /// Zero-based attempt number. Part of the agent's work-dir name: an
    /// abandoned earlier attempt (its link severed mid-run) may still be
    /// writing its own journal, so a retry must never share its files.
    pub attempt: u32,
    /// `journal::grid_hash` of `jobs` — the agent recomputes it over the
    /// decoded slice and refuses on mismatch, catching any codec drift
    /// the per-frame checksum cannot.
    pub grid_hash: u64,
    /// Worker threads for the supervised run (0 = agent's default).
    pub threads: u64,
    /// Per-job retry budget ([`crate::batch::SupervisorOptions::retries`]).
    pub retries: u32,
    /// Per-job retry backoff in seconds.
    pub retry_backoff_s: f64,
    /// Per-job watchdog timeout in seconds (`<= 0` = none).
    pub timeout_s: f64,
    /// Simulated-time cap in seconds (`<= 0` = none).
    pub sim_time_cap_s: f64,
    /// Chaos order: accept, then go silent (no heartbeats, no work) so
    /// the coordinator's lease watchdog has something to reap.
    pub stall: bool,
    /// Chaos order: sever the connection this many ms after accepting
    /// (0 = never) — a deterministic stand-in for an agent crash.
    pub abort_after_ms: u64,
    /// The shard's job slice.
    pub jobs: Vec<JobSpec>,
    /// Complete-line prefix of the coordinator's shard journal from
    /// earlier attempts; the agent seeds its journal with it so finished
    /// jobs are not re-run (and not re-streamed).
    pub prior_journal: String,
}

/// One fabric message. `Assign` flows coordinator → agent; everything
/// else flows agent → coordinator.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Shard assignment (boxed: it dwarfs the other variants).
    Assign(Box<Assign>),
    /// The agent took the shard and will start streaming.
    Accept { shard: u64 },
    /// The agent cannot take the shard (version/hash mismatch, bad work
    /// dir); the coordinator falls back to local execution.
    Refuse { reason: String },
    /// Liveness lease: a counter that increases while the shard runs.
    Heartbeat { counter: u64 },
    /// A chunk of *complete* journal lines (always `\n`-terminated) to
    /// append to the coordinator's shard journal.
    JournalLines { text: String },
    /// Terminal verdict for the assignment.
    Done { ok: bool, error: String },
}

impl Msg {
    /// Short tag name for log lines and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Assign(_) => "assign",
            Msg::Accept { .. } => "accept",
            Msg::Refuse { .. } => "refuse",
            Msg::Heartbeat { .. } => "heartbeat",
            Msg::JournalLines { .. } => "journal_lines",
            Msg::Done { .. } => "done",
        }
    }
}

fn encode_msg(e: &mut Enc, msg: &Msg) {
    match msg {
        Msg::Assign(a) => {
            e.u8(0);
            e.u64(a.shard);
            e.u32(a.attempt);
            e.u64(a.grid_hash);
            e.u64(a.threads);
            e.u32(a.retries);
            e.f64(a.retry_backoff_s);
            e.f64(a.timeout_s);
            e.f64(a.sim_time_cap_s);
            e.bool(a.stall);
            e.u64(a.abort_after_ms);
            e.len(a.jobs.len());
            for job in &a.jobs {
                e.str(&job.label);
                e.u64(job.seed);
                snapshot::encode_config(e, &job.config);
            }
            e.str(&a.prior_journal);
        }
        Msg::Accept { shard } => {
            e.u8(1);
            e.u64(*shard);
        }
        Msg::Refuse { reason } => {
            e.u8(2);
            e.str(reason);
        }
        Msg::Heartbeat { counter } => {
            e.u8(3);
            e.u64(*counter);
        }
        Msg::JournalLines { text } => {
            e.u8(4);
            e.str(text);
        }
        Msg::Done { ok, error } => {
            e.u8(5);
            e.bool(*ok);
            e.str(error);
        }
    }
}

/// Decodes one frame payload. Any failure (bad tag, short payload,
/// trailing garbage, non-UTF-8 strings) is a decode error the caller
/// maps onto [`codec::Tail::Corrupt`].
fn decode_msg(payload: &[u8]) -> Result<Msg, SnapshotError> {
    let mut d = Dec::new(payload);
    let msg = match d.u8()? {
        0 => {
            let shard = d.u64()?;
            let attempt = d.u32()?;
            let grid_hash = d.u64()?;
            let threads = d.u64()?;
            let retries = d.u32()?;
            let retry_backoff_s = d.f64()?;
            let timeout_s = d.f64()?;
            let sim_time_cap_s = d.f64()?;
            let stall = d.bool()?;
            let abort_after_ms = d.u64()?;
            let n_jobs = d.len()?;
            let mut jobs = Vec::with_capacity(n_jobs);
            for _ in 0..n_jobs {
                let label = d.str()?;
                let seed = d.u64()?;
                let config = snapshot::decode_config(&mut d)?;
                jobs.push(JobSpec {
                    label,
                    config,
                    seed,
                });
            }
            let prior_journal = d.str()?;
            Msg::Assign(Box::new(Assign {
                shard,
                attempt,
                grid_hash,
                threads,
                retries,
                retry_backoff_s,
                timeout_s,
                sim_time_cap_s,
                stall,
                abort_after_ms,
                jobs,
                prior_journal,
            }))
        }
        1 => Msg::Accept { shard: d.u64()? },
        2 => Msg::Refuse { reason: d.str()? },
        3 => Msg::Heartbeat { counter: d.u64()? },
        4 => Msg::JournalLines { text: d.str()? },
        5 => Msg::Done {
            ok: d.bool()?,
            error: d.str()?,
        },
        t => return Err(SnapshotError::Corrupt(format!("bad message tag {t}"))),
    };
    d.finish()?;
    Ok(msg)
}

/// The per-direction stream header (magic + version).
pub fn header_bytes() -> Vec<u8> {
    codec::header(&WIRE_MAGIC, WIRE_VERSION).buf
}

/// Frames one message exactly as `MsgWriter` sends it.
pub fn frame(msg: &Msg) -> Vec<u8> {
    let mut e = Enc::new();
    codec::frame(&mut e, |e| encode_msg(e, msg));
    e.buf
}

/// Decodes a whole direction's bytes into the longest valid prefix.
///
/// Errors only for damage to the header (short, foreign, or
/// future-versioned) — there is no prefix to salvage then. Everything
/// after it degrades into [`Unframed::tail`].
pub fn decode_stream(bytes: &[u8]) -> Result<Unframed<Msg>, SnapshotError> {
    codec::unframe(bytes, &WIRE_MAGIC, WIRE_VERSION, decode_msg)
}

/// Blocking frame reader for live sockets, built on the same
/// [`codec::step`] parser as [`decode_stream`]. `Ok(None)` means a clean
/// EOF at a frame boundary; any torn/corrupt/IO condition is an `Err`
/// with a reason — the caller maps it onto the dead-shard path, never a
/// panic.
pub(crate) struct MsgReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    pos: usize,
    saw_header: bool,
}

impl<R: Read> MsgReader<R> {
    pub(crate) fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::with_capacity(8192),
            pos: 0,
            saw_header: false,
        }
    }

    fn fill(&mut self) -> Result<usize, String> {
        // Compact consumed bytes so the buffer stays bounded by one frame.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let mut chunk = [0u8; 8192];
        let n = self
            .inner
            .read(&mut chunk)
            .map_err(|e| format!("read failed: {e}"))?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    pub(crate) fn next_msg(&mut self) -> Result<Option<Msg>, String> {
        loop {
            let have = &self.buf[self.pos..];
            if !self.saw_header {
                if have.len() >= codec::HEADER_LEN {
                    match codec::check_header(have, &WIRE_MAGIC, WIRE_VERSION) {
                        Err(SnapshotError::UnsupportedVersion(v)) => {
                            return Err(format!(
                                "peer speaks fabric protocol v{v}, expected v{WIRE_VERSION}"
                            ))
                        }
                        Err(_) => return Err("peer did not send the fabric header".into()),
                        Ok(()) => {}
                    }
                    self.pos += codec::HEADER_LEN;
                    self.saw_header = true;
                    continue;
                }
            } else {
                match codec::step(have) {
                    Step::Frame(payload, used) => {
                        let msg = decode_msg(payload)
                            .map_err(|e| format!("corrupt frame: frame payload: {e}"))?;
                        self.pos += used;
                        return Ok(Some(msg));
                    }
                    Step::Corrupt(why) => return Err(format!("corrupt frame: {why}")),
                    Step::Need => {}
                }
            }
            if self.fill()? == 0 {
                return if self.saw_header && self.pos == self.buf.len() {
                    Ok(None)
                } else {
                    Err("connection closed mid-frame".into())
                };
            }
        }
    }
}

/// Frame writer for live sockets: sends the header exactly once, with
/// the first frame, then one checksummed frame per message, flushing
/// each so heartbeats are never sat on by a buffer.
pub(crate) struct MsgWriter<W: Write> {
    inner: W,
    /// Bytes not yet written: the header until the first send, then empty
    /// between sends.
    buf: Enc,
}

impl<W: Write> MsgWriter<W> {
    pub(crate) fn new(inner: W) -> Self {
        Self {
            inner,
            buf: codec::header(&WIRE_MAGIC, WIRE_VERSION),
        }
    }

    pub(crate) fn send(&mut self, msg: &Msg) -> std::io::Result<()> {
        codec::frame(&mut self.buf, |e| encode_msg(e, msg));
        let sent = self.inner.write_all(&self.buf.buf);
        self.buf.buf.clear();
        sent?;
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;

    fn sample_jobs() -> Vec<JobSpec> {
        (0..3)
            .map(|i| {
                let mut cfg = SimConfig::small(0.25);
                cfg.num_sensors = 10 + i;
                JobSpec::new(format!("job-{i}"), &cfg, 40 + i as u64)
            })
            .collect()
    }

    fn sample_assign() -> Msg {
        let jobs = sample_jobs();
        Msg::Assign(Box::new(Assign {
            shard: 2,
            attempt: 1,
            grid_hash: crate::journal::grid_hash(&jobs),
            threads: 3,
            retries: 4,
            retry_backoff_s: 0.25,
            timeout_s: -1.0,
            sim_time_cap_s: 3600.0,
            stall: false,
            abort_after_ms: 0,
            jobs,
            prior_journal: "meta line\ndone line\n".into(),
        }))
    }

    fn all_msgs() -> Vec<Msg> {
        vec![
            sample_assign(),
            Msg::Accept { shard: 2 },
            Msg::Refuse {
                reason: "busy".into(),
            },
            Msg::Heartbeat { counter: 7 },
            Msg::JournalLines {
                text: "{\"kind\":\"done\"}\n".into(),
            },
            Msg::Done {
                ok: false,
                error: "agent runner panicked".into(),
            },
        ]
    }

    fn stream_of(msgs: &[Msg]) -> Vec<u8> {
        let mut bytes = header_bytes();
        for m in msgs {
            bytes.extend_from_slice(&frame(m));
        }
        bytes
    }

    #[test]
    fn every_message_round_trips_through_the_stream_codec() {
        let msgs = all_msgs();
        let bytes = stream_of(&msgs);
        let decoded = decode_stream(&bytes).expect("decode");
        assert_eq!(decoded.tail, codec::Tail::Clean);
        assert_eq!(decoded.records.len(), msgs.len());
        for (got, want) in decoded.records.iter().zip(&msgs) {
            assert_eq!(got.kind(), want.kind());
            // Re-encoding must reproduce the exact frame bytes.
            assert_eq!(frame(got), frame(want));
        }
    }

    #[test]
    fn assign_preserves_jobs_and_grid_hash() {
        let bytes = stream_of(&[sample_assign()]);
        let decoded = decode_stream(&bytes).expect("decode");
        let Msg::Assign(a) = &decoded.records[0] else {
            panic!("expected assign");
        };
        assert_eq!(a.jobs.len(), 3);
        assert_eq!(a.jobs[1].label, "job-1");
        assert_eq!(a.jobs[1].seed, 41);
        assert_eq!(a.jobs[1].config.num_sensors, 11);
        assert_eq!(crate::journal::grid_hash(&a.jobs), a.grid_hash);
        assert_eq!(a.prior_journal, "meta line\ndone line\n");
    }

    #[test]
    fn header_damage_is_a_hard_error() {
        assert!(matches!(
            decode_stream(b"WRSN"),
            Err(SnapshotError::Truncated)
        ));
        let mut foreign = stream_of(&[Msg::Heartbeat { counter: 1 }]);
        foreign[0] = b'X';
        assert!(matches!(
            decode_stream(&foreign),
            Err(SnapshotError::BadMagic)
        ));
        let mut future = stream_of(&[]);
        future[8] = 99;
        assert!(matches!(
            decode_stream(&future),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn msg_reader_walks_a_stream_and_reports_clean_eof() {
        let msgs = all_msgs();
        let bytes = stream_of(&msgs);
        let mut reader = MsgReader::new(&bytes[..]);
        for want in &msgs {
            let got = reader.next_msg().expect("read").expect("msg");
            assert_eq!(got.kind(), want.kind());
        }
        assert!(reader.next_msg().expect("eof").is_none());
    }

    #[test]
    fn msg_reader_flags_torn_and_corrupt_streams() {
        let bytes = stream_of(&[Msg::Heartbeat { counter: 1 }]);
        // Torn mid-frame.
        let mut reader = MsgReader::new(&bytes[..bytes.len() - 3]);
        assert!(reader.next_msg().unwrap_err().contains("mid-frame"));
        // Flipped payload bit (payload starts after the 12-byte header
        // and the frame's 4-byte length).
        let mut flipped = bytes.clone();
        flipped[17] ^= 0x40;
        let mut reader = MsgReader::new(&flipped[..]);
        assert!(reader.next_msg().unwrap_err().contains("corrupt"));
        // Foreign header.
        let mut reader = MsgReader::new(&b"NOTAFAB!"[..]);
        assert!(reader.next_msg().is_err());
    }
}
