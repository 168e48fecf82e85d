//! Versioned binary snapshots of classification state: the canonical-form
//! memo, the accumulated sweep histograms, and a resumable sweep cursor.
//!
//! A sweep campaign larger than one process lifetime needs its state to
//! survive the process. A [`SweepSnapshot`] captures everything a sweep has
//! learned — every `canonical key → Complexity` verdict, the orbit and
//! whole-universe histograms, the bit-sliced lane statistics, and a per-shard
//! *watermark* (the next configuration mask each shard has yet to visit) — in
//! one dense little-endian byte stream (format version 2):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "RTLCLSNP"                 ┐
//! 8       4     format version (u32, 2)           │ immutable prefix:
//! 12      2     δ                                 │ fixed for the whole
//! 14      2     |Σ|                               │ campaign
//! 16      1     engine kind (0 scalar,            │
//!               1 bit-sliced)                     ┘
//! 17      …     per entry: key length (u16),      ┐ canonical-form memo,
//!               key words (u16 each), tag (u8),   │ append-only, in
//!               and for Polynomial the exponent   │ commit order
//!               (u32)                             ┘
//! …       16·r  per range: next, hi (u64 each;    ┐
//!               next == hi ⇒ done)                │
//! …       8·13  orbit histogram                   │ footer: every field a
//! …       8·13  universe histogram                │ checkpoint rewrites
//! …       8·4   lane statistics                   │ (13 = 5 classes + 8
//! …       4     shard-range count r (u32)         │ poly-exponent buckets)
//! …       8     memo entry count (u64)            ┘
//! last    8     FNV-1a 64 digest of every preceding byte
//! ```
//!
//! The order is what makes a checkpoint cheap. During a sweep the prefix never
//! changes and the memo only grows, so a [`SnapshotWriter`] keeps the encoded
//! prefix and entries together with the running FNV-1a state over them:
//! a checkpoint encodes and hashes only the entries committed since the last
//! one, then the small footer, and streams the file out. Both counts sit at
//! the very end, so a reader finds the footer from the end of the file.
//!
//! Version 1 files (written before the append-only layout) are still read:
//! the same prefix, then range count, ranges, both histograms, lane
//! statistics, memo entry count, and the entries, with the same digest
//! trailer. Every write produces version 2.
//!
//! The digest makes truncated or bit-flipped files a clean
//! [`SnapshotError`], never a silently wrong histogram; writes go through a
//! temp file plus `rename` ([`SnapshotWriter::save`]), so a reader — or a
//! resumed sweep — observes either the previous checkpoint or the new one,
//! never a torn mix, even if the writer is SIGKILLed mid-write. Everything is
//! hand-rolled over `std::fs`/`std::io`, mirroring the CLI's hand-rolled JSON:
//! the workspace stays dependency-free.

use std::fmt;
use std::io::{self, Write};
use std::path::Path;

use crate::classifier::Complexity;
use crate::engine::{
    CanonicalKey, ComplexityHistogram, SweepLaneStats, SweepOutcome, POLY_EXPONENT_BUCKETS,
};

/// First eight bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RTLCLSNP";

/// On-disk format version every write produces. Readers also accept the
/// earlier version 1 layout and reject anything else.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Length of the immutable prefix shared by every version: magic, version,
/// δ, |Σ|, and engine kind.
const PREFIX_LEN: usize = SNAPSHOT_MAGIC.len() + 4 + 2 + 2 + 1;

/// Bytes of a version-2 footer besides its ranges: both histograms, the lane
/// statistics, the range count, and the memo entry count.
const FOOTER_FIXED_LEN: usize = 8 * (2 * (5 + POLY_EXPONENT_BUCKETS) + 4) + 4 + 8;

/// Which sweep engine produced (and should resume) a snapshot. Stored in the
/// cursor so `--resume` never mixes block-boundary watermarks of one engine
/// with the commit granularity of the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// One scalar decision per canonical representative.
    Scalar,
    /// 64 configuration masks per block over a `SlicedUniverse`.
    Bitsliced,
}

impl EngineKind {
    /// Stable CLI / JSON name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Scalar => "scalar",
            EngineKind::Bitsliced => "bitsliced",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            EngineKind::Scalar => 0,
            EngineKind::Bitsliced => 1,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(EngineKind::Scalar),
            1 => Some(EngineKind::Bitsliced),
            _ => None,
        }
    }
}

/// One shard's remaining work: the configuration masks `next..hi`. `next` is
/// the shard's *watermark* — everything below it is already folded into the
/// snapshot's histograms and memo. `next == hi` means the shard is done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskRange {
    /// First mask not yet accounted for.
    pub next: u64,
    /// One past the shard's last mask.
    pub hi: u64,
}

impl MaskRange {
    /// Number of masks still to visit.
    pub fn remaining(&self) -> u64 {
        self.hi.saturating_sub(self.next)
    }

    /// `true` once the watermark has reached the range's end.
    pub fn is_done(&self) -> bool {
        self.next >= self.hi
    }
}

/// Where a sweep campaign stands: which family, which engine, and each
/// shard's watermark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCursor {
    /// The family's δ.
    pub delta: u16,
    /// The family's |Σ|.
    pub num_labels: u16,
    /// Engine the campaign runs on.
    pub engine: EngineKind,
    /// Per-shard watermarked mask ranges. Completed ranges stay in the list
    /// (with `next == hi`), so the shard count is stable across restarts.
    pub ranges: Vec<MaskRange>,
}

impl SweepCursor {
    /// Total masks not yet accounted for, over all shards.
    pub fn remaining_masks(&self) -> u64 {
        self.ranges.iter().map(MaskRange::remaining).sum()
    }

    /// `true` once every shard's watermark has reached its end.
    pub fn is_complete(&self) -> bool {
        self.ranges.iter().all(MaskRange::is_done)
    }
}

/// A checkpoint of a sweep campaign: cursor, accumulated outcome, and the
/// canonical-form memo of everything classified so far. See the module
/// documentation for the byte layout.
#[derive(Debug, Clone)]
pub struct SweepSnapshot {
    /// Family parameters, engine, and per-shard watermarks.
    pub cursor: SweepCursor,
    /// Histograms and lane statistics accumulated below the watermarks.
    pub outcome: SweepOutcome,
    /// `canonical key → Complexity` for every orbit accounted so far.
    pub memo: Vec<(CanonicalKey, Complexity)>,
}

/// Why a snapshot could not be read or written.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's format version is neither 1 nor [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u32),
    /// The file ends before a complete record (no digest to check against).
    Truncated,
    /// The trailing digest does not match the content — truncation or
    /// corruption after the header.
    ChecksumMismatch,
    /// The digest matches but a field is out of range (a writer bug).
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected 1 to {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::ChecksumMismatch => {
                write!(f, "snapshot digest mismatch (truncated or corrupted file)")
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a 64 over `bytes` — the digest in a snapshot's trailer. Public so
/// tests (and external tooling) can craft or verify files.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64 hash whose state after the preceding bytes is
/// `hash`.
fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The format version of a snapshot file's bytes, read from its header
/// without validating the rest (load it with [`SweepSnapshot::from_bytes`]
/// for that). What `rtlcl snapshot info` reports.
pub fn format_version(bytes: &[u8]) -> Result<u32, SnapshotError> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let at = SNAPSHOT_MAGIC.len();
    Ok(u32::from_le_bytes(
        bytes[at..at + 4].try_into().expect("a four-byte slice"),
    ))
}

/// Complexity → on-disk tag. `Polynomial` is followed by its `u32` exponent.
fn complexity_tag(c: Complexity) -> u8 {
    match c {
        Complexity::Unsolvable => 0,
        Complexity::Constant => 1,
        Complexity::LogStar => 2,
        Complexity::Log => 3,
        Complexity::Polynomial { .. } => 4,
    }
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_histogram(out: &mut Vec<u8>, h: &ComplexityHistogram) {
    push_u64(out, h.constant);
    push_u64(out, h.log_star);
    push_u64(out, h.log);
    push_u64(out, h.polynomial);
    for &k in &h.poly_k {
        push_u64(out, k);
    }
    push_u64(out, h.unsolvable);
}

/// Little-endian reader over a byte slice; every read checks bounds so a
/// short file surfaces as [`SnapshotError::Truncated`], never a panic.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.at.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn histogram(&mut self) -> Result<ComplexityHistogram, SnapshotError> {
        let mut h = ComplexityHistogram {
            constant: self.u64()?,
            log_star: self.u64()?,
            log: self.u64()?,
            polynomial: self.u64()?,
            ..ComplexityHistogram::default()
        };
        for k in &mut h.poly_k {
            *k = self.u64()?;
        }
        h.unsolvable = self.u64()?;
        Ok(h)
    }

    fn ranges(&mut self, count: usize) -> Result<Vec<MaskRange>, SnapshotError> {
        if count > self.remaining() / 16 {
            return Err(SnapshotError::Malformed("range count"));
        }
        let mut ranges = Vec::with_capacity(count);
        for _ in 0..count {
            let next = self.u64()?;
            let hi = self.u64()?;
            if next > hi {
                return Err(SnapshotError::Malformed("range watermark past end"));
            }
            ranges.push(MaskRange { next, hi });
        }
        Ok(ranges)
    }

    fn outcome(&mut self) -> Result<SweepOutcome, SnapshotError> {
        Ok(SweepOutcome {
            orbits: self.histogram()?,
            problems: self.histogram()?,
            lanes: SweepLaneStats {
                blocks: self.u64()?,
                fixpoint_rounds: self.u64()?,
                live_lane_rounds: self.u64()?,
                scalar_fallbacks: self.u64()?,
            },
        })
    }

    /// `count` memo entries, which must use up the rest of the reader.
    fn memo(&mut self, count: u64) -> Result<Vec<(CanonicalKey, Complexity)>, SnapshotError> {
        // Each entry is at least 3 bytes (empty key + tag); a count beyond
        // that bound cannot be real even with a valid digest.
        if count > (self.remaining() / 3) as u64 {
            return Err(SnapshotError::Malformed("memo count"));
        }
        let mut memo = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let key_len = self.u16()? as usize;
            let mut words = Vec::with_capacity(key_len);
            for _ in 0..key_len {
                words.push(self.u16()?);
            }
            let complexity = match self.u8()? {
                0 => Complexity::Unsolvable,
                1 => Complexity::Constant,
                2 => Complexity::LogStar,
                3 => Complexity::Log,
                4 => Complexity::Polynomial {
                    exponent: self.u32()? as usize,
                },
                _ => return Err(SnapshotError::Malformed("complexity tag")),
            };
            memo.push((CanonicalKey::from_words(words), complexity));
        }
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed("trailing bytes"));
        }
        Ok(memo)
    }
}

/// Cursor ranges, outcome, and memo: the parts of a snapshot after the
/// prefix.
type SnapshotBody = (
    Vec<MaskRange>,
    SweepOutcome,
    Vec<(CanonicalKey, Complexity)>,
);

/// Version 1 after the prefix (read-only): range count, ranges, outcome,
/// memo count, entries.
fn parse_v1(mut r: Reader<'_>) -> Result<SnapshotBody, SnapshotError> {
    let range_count = r.u32()? as usize;
    let ranges = r.ranges(range_count)?;
    let outcome = r.outcome()?;
    let memo_count = r.u64()?;
    let memo = r.memo(memo_count)?;
    Ok((ranges, outcome, memo))
}

/// Version 2 after the prefix: entries, then the footer, whose last twelve
/// bytes are the range and entry counts.
fn parse_v2(r: Reader<'_>) -> Result<SnapshotBody, SnapshotError> {
    let body = r.bytes;
    let counts_at = body
        .len()
        .checked_sub(12)
        .filter(|&at| at >= r.at)
        .ok_or(SnapshotError::Truncated)?;
    let mut counts = Reader {
        bytes: body,
        at: counts_at,
    };
    let range_count = counts.u32()? as usize;
    let memo_count = counts.u64()?;
    let footer_at = range_count
        .checked_mul(16)
        .and_then(|n| n.checked_add(FOOTER_FIXED_LEN))
        .and_then(|len| body.len().checked_sub(len))
        .filter(|&at| at >= r.at)
        .ok_or(SnapshotError::Malformed("range count"))?;
    let mut footer = Reader {
        bytes: &body[..counts_at],
        at: footer_at,
    };
    let ranges = footer.ranges(range_count)?;
    let outcome = footer.outcome()?;
    let mut entries = Reader {
        bytes: &body[..footer_at],
        at: r.at,
    };
    let memo = entries.memo(memo_count)?;
    Ok((ranges, outcome, memo))
}

impl SweepSnapshot {
    /// A fresh campaign over the given family/engine: empty histograms, empty
    /// memo, every watermark at its range's start.
    pub fn fresh(delta: u16, num_labels: u16, engine: EngineKind, ranges: Vec<MaskRange>) -> Self {
        SweepSnapshot {
            cursor: SweepCursor {
                delta,
                num_labels,
                engine,
                ranges,
            },
            outcome: SweepOutcome::default(),
            memo: Vec::new(),
        }
    }

    /// A writer holding this snapshot's prefix and memo.
    fn writer(&self) -> SnapshotWriter {
        let mut writer = SnapshotWriter::new(&self.cursor);
        writer.extend(&self.memo);
        writer
    }

    /// Serializes to the on-disk byte layout, digest included.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.writer().to_bytes(&self.cursor, &self.outcome)
    }

    /// Parses and validates a snapshot of either version: magic, digest,
    /// version, then fields.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < SNAPSHOT_MAGIC.len() + 8 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        if fnv1a64(body) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut r = Reader {
            bytes: body,
            at: SNAPSHOT_MAGIC.len(),
        };
        let version = r.u32()?;
        if version != 1 && version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let delta = r.u16()?;
        let num_labels = r.u16()?;
        let engine = EngineKind::from_u8(r.u8()?).ok_or(SnapshotError::Malformed("engine kind"))?;
        let (ranges, outcome, memo) = if version == 1 {
            parse_v1(r)?
        } else {
            parse_v2(r)?
        };
        Ok(SweepSnapshot {
            cursor: SweepCursor {
                delta,
                num_labels,
                engine,
                ranges,
            },
            outcome,
            memo,
        })
    }

    /// Writes the snapshot atomically: serialize to `<path>.tmp` in the same
    /// directory, then `rename` over `path`. A reader never observes a
    /// partial file.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        self.writer().save(path, &self.cursor, &self.outcome)?;
        Ok(())
    }

    /// Reads and validates a snapshot file.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

/// The one snapshot writer: every snapshot file — [`SweepSnapshot::save`],
/// the engine's memo flush, and a sweep's periodic and final checkpoints —
/// is written through it.
///
/// It keeps the encoded prefix and memo entries, plus the running FNV-1a
/// state over them. [`Self::extend`] encodes and hashes only the entries it
/// is given, and [`Self::save`] hashes only the footer, so a sweep that
/// checkpoints repeatedly pays for each entry once instead of once per write.
#[derive(Debug, Clone)]
pub struct SnapshotWriter {
    /// The prefix followed by every entry appended so far, in chunks that
    /// are filled but never reallocated, so a growing memo is never copied.
    chunks: Vec<Vec<u8>>,
    /// Total length of `chunks`.
    len: usize,
    /// FNV-1a 64 state after `chunks`.
    hash: u64,
    /// Entries appended so far.
    entries: u64,
}

impl SnapshotWriter {
    /// A writer with no entries for the campaign of `cursor`, whose δ, |Σ|,
    /// and engine make the prefix. The prefix is fixed: every later
    /// [`Self::save`] must pass a cursor of the same campaign.
    pub fn new(cursor: &SweepCursor) -> Self {
        let prefix = prefix(cursor);
        SnapshotWriter {
            hash: fnv1a64(&prefix),
            chunks: vec![prefix.to_vec()],
            len: PREFIX_LEN,
            entries: 0,
        }
    }

    /// Appends memo entries: encodes and hashes only these.
    pub fn extend(&mut self, entries: &[(CanonicalKey, Complexity)]) {
        let needed: usize = entries
            .iter()
            .map(|(k, c)| 2 + 2 * k.as_words().len() + if complexity_tag(*c) == 4 { 5 } else { 1 })
            .sum();
        let last = self.chunks.last().expect("the prefix chunk");
        if last.capacity() - last.len() < needed {
            // At least a quarter of the bytes so far: the chunk count stays
            // logarithmic in the file size.
            self.chunks
                .push(Vec::with_capacity(needed.max(self.len / 4)));
        }
        let chunk = self.chunks.last_mut().expect("the prefix chunk");
        let start = chunk.len();
        for (key, complexity) in entries {
            let words = key.as_words();
            push_u16(chunk, words.len() as u16);
            for &w in words {
                push_u16(chunk, w);
            }
            chunk.push(complexity_tag(*complexity));
            if let Complexity::Polynomial { exponent } = *complexity {
                push_u32(chunk, exponent as u32);
            }
        }
        debug_assert_eq!(chunk.len() - start, needed);
        self.hash = fnv1a64_extend(self.hash, &chunk[start..]);
        self.len += needed;
        self.entries += entries.len() as u64;
    }

    /// Footer for `cursor` and `outcome`, digest included.
    fn footer(&self, cursor: &SweepCursor, outcome: &SweepOutcome) -> Vec<u8> {
        debug_assert_eq!(
            prefix(cursor),
            self.chunks[0][..PREFIX_LEN],
            "a writer's cursor must keep its campaign"
        );
        let mut out = Vec::with_capacity(16 * cursor.ranges.len() + FOOTER_FIXED_LEN + 8);
        for range in &cursor.ranges {
            push_u64(&mut out, range.next);
            push_u64(&mut out, range.hi);
        }
        push_histogram(&mut out, &outcome.orbits);
        push_histogram(&mut out, &outcome.problems);
        push_u64(&mut out, outcome.lanes.blocks);
        push_u64(&mut out, outcome.lanes.fixpoint_rounds);
        push_u64(&mut out, outcome.lanes.live_lane_rounds);
        push_u64(&mut out, outcome.lanes.scalar_fallbacks);
        push_u32(&mut out, cursor.ranges.len() as u32);
        push_u64(&mut out, self.entries);
        let digest = fnv1a64_extend(self.hash, &out);
        push_u64(&mut out, digest);
        out
    }

    /// The complete file for `cursor` and `outcome`, as [`Self::save`]
    /// writes it.
    pub fn to_bytes(&self, cursor: &SweepCursor, outcome: &SweepOutcome) -> Vec<u8> {
        let footer = self.footer(cursor, outcome);
        let mut out = Vec::with_capacity(self.len + footer.len());
        for chunk in &self.chunks {
            out.extend_from_slice(chunk);
        }
        out.extend_from_slice(&footer);
        out
    }

    /// Writes the file for `cursor` and `outcome` atomically: stream it to
    /// `<path>.tmp` in the same directory, then `rename` over `path`. A
    /// reader never observes a partial file.
    pub fn save(
        &self,
        path: &Path,
        cursor: &SweepCursor,
        outcome: &SweepOutcome,
    ) -> io::Result<()> {
        let footer = self.footer(cursor, outcome);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut file = std::fs::File::create(&tmp)?;
        for chunk in &self.chunks {
            file.write_all(chunk)?;
        }
        file.write_all(&footer)?;
        drop(file);
        std::fs::rename(&tmp, path)
    }
}

/// The immutable prefix of `cursor`'s campaign.
fn prefix(cursor: &SweepCursor) -> [u8; PREFIX_LEN] {
    let mut out = [0u8; PREFIX_LEN];
    out[..8].copy_from_slice(&SNAPSHOT_MAGIC);
    out[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out[12..14].copy_from_slice(&cursor.delta.to_le_bytes());
    out[14..16].copy_from_slice(&cursor.num_labels.to_le_bytes());
    out[16] = cursor.engine.to_u8();
    out
}

/// What [`load_or_quarantine`] found at a checkpoint path.
#[derive(Debug)]
pub enum LoadOutcome {
    /// The file parsed and validated; here is the snapshot.
    Loaded(Box<SweepSnapshot>),
    /// The file was damaged (digest mismatch or truncation) and has been
    /// renamed out of the way so a fresh campaign can take its place.
    Quarantined {
        /// Where the damaged file now lives (`<path>.corrupt`).
        to: std::path::PathBuf,
        /// What was wrong with it.
        error: SnapshotError,
    },
}

/// Loads a snapshot, quarantining damaged files instead of hard-failing.
///
/// Damage — [`SnapshotError::ChecksumMismatch`] or [`SnapshotError::Truncated`]
/// — means the bytes *were* a snapshot but didn't survive intact (a torn disk,
/// a partial copy); the file is renamed to `<path>.corrupt` (clobbering any
/// previous quarantine of the same path) and reported as
/// [`LoadOutcome::Quarantined`] so the caller can continue with a fresh
/// campaign. Everything else stays a hard error: [`SnapshotError::BadMagic`]
/// says the file was never a snapshot (renaming it could destroy an unrelated
/// file the user pointed at by mistake), an unsupported version or malformed
/// field is a software mismatch worth stopping for, and I/O errors (including
/// a missing file) are the caller's policy to decide.
pub fn load_or_quarantine(path: &Path) -> Result<LoadOutcome, SnapshotError> {
    match SweepSnapshot::load(path) {
        Ok(snap) => Ok(LoadOutcome::Loaded(Box::new(snap))),
        Err(error @ (SnapshotError::ChecksumMismatch | SnapshotError::Truncated)) => {
            let mut to = path.as_os_str().to_owned();
            to.push(".corrupt");
            let to = std::path::PathBuf::from(to);
            std::fs::rename(path, &to)?;
            Ok(LoadOutcome::Quarantined { to, error })
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepSnapshot {
        let mut outcome = SweepOutcome::default();
        outcome.orbits.add(Complexity::Constant, 3);
        outcome
            .orbits
            .add(Complexity::Polynomial { exponent: 2 }, 1);
        outcome.problems.add(Complexity::Constant, 11);
        outcome
            .problems
            .add(Complexity::Polynomial { exponent: 2 }, 6);
        outcome.lanes.blocks = 2;
        outcome.lanes.fixpoint_rounds = 9;
        outcome.lanes.live_lane_rounds = 77;
        outcome.lanes.scalar_fallbacks = 1;
        SweepSnapshot {
            cursor: SweepCursor {
                delta: 2,
                num_labels: 3,
                engine: EngineKind::Bitsliced,
                ranges: vec![
                    MaskRange { next: 40, hi: 40 },
                    MaskRange { next: 55, hi: 64 },
                ],
            },
            outcome,
            memo: vec![
                (
                    CanonicalKey::from_words(vec![2, 2, 0, 1, 1]),
                    Complexity::Constant,
                ),
                (
                    CanonicalKey::from_words(vec![2, 3, 1, 0, 2]),
                    Complexity::Polynomial { exponent: 2 },
                ),
                (
                    CanonicalKey::from_words(vec![2, 1, 0]),
                    Complexity::Unsolvable,
                ),
            ],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = SweepSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.cursor, snap.cursor);
        assert_eq!(back.outcome, snap.outcome);
        assert_eq!(back.memo, snap.memo);
        // Serialization is deterministic.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = SweepSnapshot::fresh(1, 2, EngineKind::Scalar, vec![]);
        let back = SweepSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert!(back.cursor.is_complete());
        assert_eq!(back.cursor.remaining_masks(), 0);
        assert!(back.memo.is_empty());
        assert_eq!(back.outcome, SweepOutcome::default());
    }

    #[test]
    fn cursor_progress_accounting() {
        let snap = sample();
        assert_eq!(snap.cursor.remaining_masks(), 9);
        assert!(!snap.cursor.is_complete());
        assert!(snap.cursor.ranges[0].is_done());
        assert_eq!(snap.cursor.ranges[1].remaining(), 9);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().to_bytes();
        bytes[2] ^= 0x40;
        assert!(matches!(
            SweepSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn rejects_bit_flips_anywhere_past_the_magic() {
        let good = sample().to_bytes();
        // Header, cursor, histogram, memo, digest: one flipped bit each.
        for &at in &[9usize, 13, 30, good.len() / 2, good.len() - 3] {
            let mut bytes = good.clone();
            bytes[at] ^= 1;
            assert!(
                matches!(
                    SweepSnapshot::from_bytes(&bytes),
                    Err(SnapshotError::ChecksumMismatch)
                ),
                "flip at {at}"
            );
        }
    }

    #[test]
    fn rejects_truncation() {
        let bytes = sample().to_bytes();
        // Too short to even carry magic + digest.
        assert!(matches!(
            SweepSnapshot::from_bytes(&bytes[..10]),
            Err(SnapshotError::Truncated)
        ));
        // Any strict prefix long enough to parse headers still fails the
        // digest (the trailing 8 bytes are now content, not the digest).
        for cut in [bytes.len() - 1, bytes.len() - 9, bytes.len() / 2] {
            assert!(
                matches!(
                    SweepSnapshot::from_bytes(&bytes[..cut]),
                    Err(SnapshotError::ChecksumMismatch)
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn rejects_unsupported_version_with_a_valid_digest() {
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let body_len = bytes.len() - 8;
        let digest = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&digest.to_le_bytes());
        assert!(matches!(
            SweepSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn rejects_malformed_fields_behind_a_recomputed_digest() {
        // Engine kind 7 with a freshly valid digest: Malformed, not a panic.
        let mut bytes = sample().to_bytes();
        bytes[16] = 7;
        let body_len = bytes.len() - 8;
        let digest = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&digest.to_le_bytes());
        assert!(matches!(
            SweepSnapshot::from_bytes(&bytes),
            Err(SnapshotError::Malformed("engine kind"))
        ));
    }

    /// `bytes` with the digest recomputed over its body.
    fn redigest(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_len = bytes.len() - 8;
        let digest = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&digest.to_le_bytes());
        bytes
    }

    #[test]
    fn rejects_inconsistent_footer_counts_behind_a_recomputed_digest() {
        let good = sample().to_bytes();
        let counts_at = good.len() - 8 - 12;
        let with_counts = |ranges: u32, entries: u64| {
            let mut bytes = good.clone();
            bytes[counts_at..counts_at + 4].copy_from_slice(&ranges.to_le_bytes());
            bytes[counts_at + 4..counts_at + 12].copy_from_slice(&entries.to_le_bytes());
            SweepSnapshot::from_bytes(&redigest(bytes))
        };
        assert!(with_counts(2, 3).is_ok());
        // One range more or less moves the footer onto other fields.
        for ranges in [1, 3, u32::MAX] {
            assert!(
                matches!(with_counts(ranges, 3), Err(SnapshotError::Malformed(_))),
                "{ranges} ranges"
            );
        }
        // Too few entries leave bytes over; too many run out of them.
        for entries in [0, 2, 4, u64::MAX] {
            assert!(
                matches!(
                    with_counts(2, entries),
                    Err(SnapshotError::Malformed(_) | SnapshotError::Truncated)
                ),
                "{entries} entries"
            );
        }
        // A body too short to hold the counts at all.
        let mut short = good[..PREFIX_LEN].to_vec();
        short.extend_from_slice(&[0; 8]);
        assert!(matches!(
            SweepSnapshot::from_bytes(&redigest(short)),
            Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn save_is_atomic_and_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("rtlcl-snapshot-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.rtlcl");
        let snap = sample();
        snap.save(&path).unwrap();
        // The temp file is gone; only the renamed target remains.
        assert!(!dir.join("state.rtlcl.tmp").exists());
        let back = SweepSnapshot::load(&path).unwrap();
        assert_eq!(back.memo, snap.memo);
        // Overwriting is atomic too: the second save replaces the first.
        let fresh = SweepSnapshot::fresh(2, 3, EngineKind::Bitsliced, vec![]);
        fresh.save(&path).unwrap();
        assert!(SweepSnapshot::load(&path).unwrap().memo.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_renames_damaged_files_and_spares_foreign_ones() {
        let dir =
            std::env::temp_dir().join(format!("rtlcl-quarantine-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.rtlcl");

        // A digest-damaged snapshot is renamed to `<path>.corrupt`.
        let mut bytes = sample().to_bytes();
        let len = bytes.len();
        bytes[len / 2] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        match load_or_quarantine(&path).unwrap() {
            LoadOutcome::Quarantined { to, error } => {
                assert!(matches!(error, SnapshotError::ChecksumMismatch));
                assert_eq!(to, dir.join("state.rtlcl.corrupt"));
                assert!(to.exists());
                assert!(!path.exists());
            }
            other => panic!("expected quarantine, got {other:?}"),
        }

        // A truncated snapshot (too short for even magic + digest) likewise.
        std::fs::write(&path, &sample().to_bytes()[..10]).unwrap();
        assert!(matches!(
            load_or_quarantine(&path).unwrap(),
            LoadOutcome::Quarantined {
                error: SnapshotError::Truncated,
                ..
            }
        ));

        // A file that was never a snapshot is NOT renamed: BadMagic stays a
        // hard error and the file stays put.
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        assert!(matches!(
            load_or_quarantine(&path),
            Err(SnapshotError::BadMagic)
        ));
        assert!(path.exists());

        // A valid file loads.
        sample().save(&path).unwrap();
        assert!(matches!(
            load_or_quarantine(&path).unwrap(),
            LoadOutcome::Loaded(_)
        ));

        // A missing file is an Io error, the caller's policy to handle.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            load_or_quarantine(&path),
            Err(SnapshotError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
