//! The byte format shared by every persisted or transmitted artifact: the
//! `WRSNSNAP` world snapshot, the run store's `WRSNEVTL` event log and
//! the sweep fabric's `WRSNFAB1` wire (DESIGN.md, "Framed codec").
//!
//! Everything is little-endian and std-only. Every stream opens with a
//! 12-byte header, and the log and the wire then carry a sequence of
//! checksummed frames:
//!
//! ```text
//! [ magic (8 bytes) | version u32 ]                       header, once
//! [ len u32 | payload (len bytes) | fnv1a(payload) u64 ]  frame, repeated
//! ```
//!
//! `unframe` decodes a whole framed stream into its longest valid
//! prefix. Only header damage is a hard error (there is no prefix to
//! salvage); everything after it degrades into a [`Tail`]:
//!
//! * input that ends mid-frame (a crash or a severed link mid-write) is
//!   [`Tail::Torn`];
//! * a frame whose length exceeds `MAX_FRAME` (16 MiB), whose checksum
//!   does not match, or whose payload does not decode is
//!   [`Tail::Corrupt`] (a bit flip that grows a length field past the end
//!   of the input reads as torn instead; either way the prefix before it
//!   stands);
//! * input that ends exactly on a frame boundary is [`Tail::Clean`].

/// Why a snapshot, log or wire stream could not be decoded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The blob ended before the expected data did.
    Truncated,
    /// The leading bytes are not the format's magic — not ours at all.
    BadMagic,
    /// The blob was written by an incompatible format version.
    UnsupportedVersion(
        /// The version found in the header.
        u32,
    ),
    /// Structurally invalid content (bad enum tag, inconsistent lengths,
    /// header hash that doesn't match the embedded config, …).
    Corrupt(String),
    /// Filesystem error from the path-based helpers.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::BadMagic => write!(f, "not a WRSN snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {})",
                    crate::snapshot::VERSION
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

pub(crate) type Result<T> = std::result::Result<T, SnapshotError>;

/// Byte length of every stream header (magic + version).
pub(crate) const HEADER_LEN: usize = 12;

/// Sanity bound on one frame's payload: no legitimate record comes close,
/// so a bit-flipped length above it is corruption, reported at once
/// instead of being chased to the end of the input (or buffered off a
/// socket).
pub(crate) const MAX_FRAME: usize = 1 << 24;

// --- FNV-1a 64 -----------------------------------------------------------

/// Streaming FNV-1a 64: writing several slices hashes the same as one
/// [`fnv1a`] call over their concatenation.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit over `bytes`: the frame checksum, the snapshot-link hash
/// and the basis of every content hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

// --- Primitive encoder ---------------------------------------------------

#[derive(Debug)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Self {
        Self {
            buf: Vec::with_capacity(4096),
        }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

// --- Primitive decoder ---------------------------------------------------

pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length prefix — additionally bounded by the remaining bytes (every
    /// element costs at least one byte), so a corrupt length can never
    /// trigger an absurd allocation.
    pub(crate) fn len(&mut self) -> Result<usize> {
        let v = self.u64()?;
        let v = usize::try_from(v).map_err(|_| SnapshotError::Truncated)?;
        if v > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(v)
    }

    /// A plain count — a value that does *not* prefix that many encoded
    /// elements (a trace cap, a dispatch's stop count), so it may
    /// legitimately exceed the remaining bytes.
    pub(crate) fn count(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Truncated)
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bad bool byte {b}"))),
        }
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> Result<String> {
        let n = self.len()?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| SnapshotError::Corrupt("string field is not UTF-8".into()))
    }

    pub(crate) fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// --- Header and frames ---------------------------------------------------

/// Starts an encoder holding a stream header.
pub(crate) fn header(magic: &[u8; 8], version: u32) -> Enc {
    let mut e = Enc::new();
    e.buf.extend_from_slice(magic);
    e.u32(version);
    e
}

/// Checks a stream header: a foreign magic is [`SnapshotError::BadMagic`],
/// another version [`SnapshotError::UnsupportedVersion`], and input that
/// ends inside the header [`SnapshotError::Truncated`].
pub(crate) fn check_header(bytes: &[u8], magic: &[u8; 8], version: u32) -> Result<()> {
    let mut d = Dec::new(bytes);
    if d.take(magic.len())? != magic {
        return Err(SnapshotError::BadMagic);
    }
    match d.u32()? {
        v if v == version => Ok(()),
        v => Err(SnapshotError::UnsupportedVersion(v)),
    }
}

/// Appends one frame to `e`: a length slot, the payload `body` writes,
/// then the payload's checksum.
pub(crate) fn frame(e: &mut Enc, body: impl FnOnce(&mut Enc)) {
    let at = e.buf.len();
    e.u32(0);
    body(e);
    let len = (e.buf.len() - at - 4) as u32;
    e.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    let sum = fnv1a(&e.buf[at + 4..]);
    e.u64(sum);
}

/// One parser step over the bytes after a header.
pub(crate) enum Step<'a> {
    /// No complete frame yet (possibly zero bytes).
    Need,
    /// A checksum-verified payload and the total bytes its frame used.
    Frame(&'a [u8], usize),
    /// A frame that is definitely damaged.
    Corrupt(String),
}

pub(crate) fn step(bytes: &[u8]) -> Step<'_> {
    if bytes.len() < 4 {
        return Step::Need;
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Step::Corrupt(format!("frame length {len} exceeds the {MAX_FRAME} bound"));
    }
    if bytes.len() - 4 < len + 8 {
        return Step::Need;
    }
    let payload = &bytes[4..4 + len];
    let stored = u64::from_le_bytes(bytes[4 + len..12 + len].try_into().unwrap());
    if fnv1a(payload) != stored {
        return Step::Corrupt(format!("frame fails its checksum (stored {stored:#018x})"));
    }
    Step::Frame(payload, 12 + len)
}

/// How a framed stream ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tail {
    /// Every byte parsed; the stream ends exactly on a frame boundary.
    Clean,
    /// The stream ends mid-frame — a crash or severed link mid-write.
    /// The prefix stands.
    Torn,
    /// A frame failed its length bound, checksum or payload decode (bit
    /// flip, mixed files). The prefix before it stands; the reason is
    /// attached.
    Corrupt(String),
}

impl Tail {
    /// Whether the tail carries damage (torn or corrupt).
    pub fn is_damaged(&self) -> bool {
        !matches!(self, Tail::Clean)
    }
}

/// A decoded framed stream: the longest valid record prefix, each
/// record's end offset, and how the stream ended.
#[derive(Debug)]
pub struct Unframed<T> {
    /// The valid prefix, in stream order.
    pub records: Vec<T>,
    /// `ends[i]` is the byte offset just after record `i`'s frame.
    pub ends: Vec<u64>,
    /// How decoding stopped.
    pub tail: Tail,
}

/// Decodes a whole framed stream into its longest valid prefix, running
/// `decode` on each checksum-verified payload in order.
///
/// Errors only for damage to the header; everything after it degrades
/// into [`Unframed::tail`].
pub(crate) fn unframe<T>(
    bytes: &[u8],
    magic: &[u8; 8],
    version: u32,
    mut decode: impl FnMut(&[u8]) -> Result<T>,
) -> Result<Unframed<T>> {
    check_header(bytes, magic, version)?;
    let mut records = Vec::new();
    let mut ends = Vec::new();
    let mut pos = HEADER_LEN;
    let tail = loop {
        if pos == bytes.len() {
            break Tail::Clean;
        }
        let why = match step(&bytes[pos..]) {
            Step::Need => break Tail::Torn,
            Step::Corrupt(why) => why,
            Step::Frame(payload, used) => match decode(payload) {
                Ok(rec) => {
                    pos += used;
                    records.push(rec);
                    ends.push(pos as u64);
                    continue;
                }
                Err(e) => e.to_string(),
            },
        };
        break Tail::Corrupt(format!("frame at offset {pos}: {why}"));
    };
    Ok(Unframed {
        records,
        ends,
        tail,
    })
}
