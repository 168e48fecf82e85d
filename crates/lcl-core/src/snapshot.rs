//! Versioned binary snapshots of classification state: the canonical-form
//! memo, the accumulated sweep histograms, and a resumable sweep cursor.
//!
//! A sweep campaign larger than one process lifetime needs its state to
//! survive the process. A [`SweepSnapshot`] captures everything a sweep has
//! learned — every `canonical key → Complexity` verdict, the orbit and
//! whole-universe histograms, the bit-sliced lane statistics, and a per-shard
//! *watermark* (the next configuration mask each shard has yet to visit) — in
//! one dense little-endian byte stream (format version 3): an immutable
//! prefix, then an append-only log of checkpoint *segments*.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "RTLCLSNP"                 ┐
//! 8       4     format version (u32, 3)           │ immutable prefix:
//! 12      2     δ                                 │ fixed for the whole
//! 14      2     |Σ|                               │ campaign
//! 16      1     engine kind (0 scalar,            │
//!               1 bit-sliced)                     ┘
//! 17      …     segment 1, segment 2, …
//!
//! per segment:
//! 0       8     segment length in bytes, header   ┐ header
//!               and digest included (u64)         │
//! 8       4     shard-range count r (u32)         │
//! 12      8     FNV-1a 64 of the twelve bytes     ┘
//!               above: the header check
//! 20      …     per entry: key length (u16),      ┐ the memo entries
//!               key words (u16 each), tag (u8),   │ committed since the
//!               and for Polynomial the exponent   │ previous segment
//!               (u32)                             ┘
//! …       16·r  per range: next, hi (u64 each;    ┐
//!               next == hi ⇒ done)                │
//! …       8·13  orbit histogram                   │ footer: the whole
//! …       8·13  universe histogram                │ cursor and outcome
//! …       8·4   lane statistics                   │ (13 = 5 classes + 8
//! …       4     shard-range count r (u32)         │ poly-exponent buckets)
//! …       8     memo entry count of the file      ┘ so far (u64)
//! last    8     FNV-1a 64 digest of every preceding byte of the file
//! ```
//!
//! A segment's state is the whole snapshot at that point: its footer, and
//! every entry of it and of the segments before it. A reader scans forward
//! and returns the state at the last complete segment.
//!
//! The log is what makes a checkpoint cheap. A [`SnapshotWriter`] writes the
//! first checkpoint of a sweep as the whole file — one segment, streamed to
//! `<path>.tmp` and renamed over `path` — and keeps the file open. Every later
//! checkpoint appends one segment: the entries committed since the previous
//! one, the small footer, and a digest that continues the running FNV-1a
//! state, so no earlier byte is written, encoded, or hashed again.
//!
//! **Torn tail versus damage.** A checkpoint killed mid-append leaves a file
//! that ends inside its last segment's header or body. That is a *torn
//! tail*: the reader loads the previous segment, so a crash loses at most the
//! uncommitted tail, as with temp file plus rename. A complete header whose
//! check fails, or a complete segment whose digest fails, is *damage*:
//! [`SnapshotError::ChecksumMismatch`], which [`load_or_quarantine`] moves
//! aside. A file that ends inside its first segment has no state to fall
//! back on and is [`SnapshotError::Truncated`].
//!
//! **Loading.** A version 3 load walks the segment headers first, then
//! checks the chained digests on a second thread while the calling thread
//! decodes the entries, so a load costs about the longer of the two (the
//! digest) instead of their sum. Errors are still reported in segment
//! order, as a front-to-back reader meets them — within a segment its
//! header, its digest, then its fields: a damaged segment is a
//! [`SnapshotError::ChecksumMismatch`] even when a later segment holds a
//! malformed field, and a malformed field wins over damage behind it.
//!
//! Versions 1 and 2 are still read, never written; both end with one FNV-1a
//! 64 digest of every preceding byte. Version 2 is the prefix, then the memo
//! entries, then the footer above. Version 1 is the prefix, then range
//! count, ranges, both histograms, lane statistics, memo entry count, and
//! the entries.
//!
//! **Which writes replace the file.** [`SweepSnapshot::save`], the engine's
//! memo flush, and a sweep call's first checkpoint go through temp file plus
//! `rename`, so a reader observes either the previous file or the new one,
//! never a torn mix. The one exception is a sweep resumed from the file it
//! checkpoints to: [`SweepSnapshot::load`] of a version 3 file records where
//! the file's last complete segment ends, and when the sweep's first
//! checkpoint finds the file and the memo still as loaded, it cuts any torn
//! tail off with `set_len` and appends, like every later checkpoint. Anything
//! else — a snapshot from [`SweepSnapshot::from_bytes`], a version 1 or 2
//! file, a memo or file changed since the load, another path — takes the
//! temp file plus `rename` route. Everything is hand-rolled over
//! `std::fs`/`std::io`, mirroring the CLI's hand-rolled JSON: the workspace
//! stays dependency-free.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::classifier::Complexity;
use crate::engine::{
    CanonicalKey, ComplexityHistogram, SweepLaneStats, SweepOutcome, POLY_EXPONENT_BUCKETS,
};

/// First eight bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RTLCLSNP";

/// On-disk format version every write produces. Readers also accept the
/// earlier versions 1 and 2 and reject anything else.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Length of the immutable prefix shared by every version: magic, version,
/// δ, |Σ|, and engine kind.
const PREFIX_LEN: usize = SNAPSHOT_MAGIC.len() + 4 + 2 + 2 + 1;

/// Bytes of a footer besides its ranges: both histograms, the lane
/// statistics, the range count, and the memo entry count.
const FOOTER_FIXED_LEN: usize = 8 * (2 * (5 + POLY_EXPONENT_BUCKETS) + 4) + 4 + 8;

/// Bytes of a version-3 segment header: length, range count, and check.
const SEGMENT_HEADER_LEN: usize = 8 + 4 + 8;

/// Encoded bytes a segment writer buffers before hashing and writing them.
const WRITE_CHUNK: usize = 1 << 16;

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
    /// The version 3 file this snapshot was loaded from, which a sweep
    /// checkpointing to the same path may append to. Set only by
    /// [`Self::load`]; build snapshots with [`Self::fresh`] or
    /// [`Self::from_bytes`].
    pub(crate) origin: Option<SnapshotOrigin>,
}

/// Where a loaded snapshot came from: the file, the encoder state at its last
/// complete segment, that segment's digest, and the memo as loaded (its
/// length and [`MemoFingerprint`]). A sweep appends to the file only while
/// all of these still hold.
#[derive(Debug, Clone)]
pub(crate) struct SnapshotOrigin {
    path: PathBuf,
    encoder: SegmentEncoder,
    digest: [u8; 8],
    memo_len: usize,
    fingerprint: MemoFingerprint,
}

impl SnapshotOrigin {
    /// The file the snapshot was loaded from.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// `true` when `memo` still has the length and `fingerprint` the value
    /// they had at the load.
    pub(crate) fn holds(&self, memo_len: usize, fingerprint: MemoFingerprint) -> bool {
        self.memo_len == memo_len && self.fingerprint == fingerprint
    }
}

/// A running 64-bit fingerprint of memo entries, in order. Each entry's key
/// length, verdict and key words (four per step) are folded into one word
/// with a rotate and xor per step, and that word into the fingerprint with a
/// rotate, xor and multiply, which is one-to-one in the word: a change to
/// any one entry always changes the fingerprint. It tells whether a loaded
/// memo was changed before a sweep appends to the file it came from; it is
/// not stored on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoFingerprint(u64);

impl Default for MemoFingerprint {
    fn default() -> Self {
        MemoFingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl MemoFingerprint {
    /// Folds in one entry.
    pub(crate) fn push(&mut self, key: &CanonicalKey, complexity: Complexity) {
        let exponent = match complexity {
            Complexity::Polynomial { exponent } => exponent as u64,
            _ => 0,
        };
        let words = key.as_words();
        let mut entry =
            words.len() as u64 | u64::from(complexity_tag(complexity)) << 16 | exponent << 24;
        let mut chunks = words.chunks_exact(4);
        for c in &mut chunks {
            let x = u64::from(c[0])
                | u64::from(c[1]) << 16
                | u64::from(c[2]) << 32
                | u64::from(c[3]) << 48;
            entry = entry.rotate_left(23) ^ x;
        }
        for &w in chunks.remainder() {
            entry = entry.rotate_left(23) ^ u64::from(w);
        }
        self.0 = (self.0.rotate_left(5) ^ entry).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// How a snapshot file's bytes were laid out, as
/// [`SweepSnapshot::from_bytes_with_layout`] found them. What
/// `rtlcl snapshot info` reports besides the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotLayout {
    /// The file's format version.
    pub version: u32,
    /// Complete segments read; a version 1 or 2 file counts as one.
    pub segments: usize,
    /// Bytes after the last complete segment: a checkpoint append cut
    /// short. Always 0 for versions 1 and 2.
    pub torn_tail_bytes: usize,
}

/// Why a snapshot could not be read or written.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's format version is neither 1, 2, nor [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u32),
    /// The file ends before a complete record: before its digest (versions 1
    /// and 2) or inside its first segment (version 3).
    Truncated,
    /// A digest or segment-header check does not match the content —
    /// corruption, or truncation of a version 1 or 2 file.
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
/// for that).
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

/// Encoded length of one memo entry.
fn entry_len(key: &CanonicalKey, complexity: Complexity) -> usize {
    let tail = match complexity {
        Complexity::Polynomial { .. } => 5,
        _ => 1,
    };
    2 + 2 * key.as_words().len() + tail
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

fn push_entry(out: &mut Vec<u8>, key: &CanonicalKey, complexity: Complexity) {
    let words = key.as_words();
    push_u16(out, words.len() as u16);
    for &w in words {
        push_u16(out, w);
    }
    out.push(complexity_tag(complexity));
    if let Complexity::Polynomial { exponent } = complexity {
        push_u32(out, exponent as u32);
    }
}

/// The footer of a snapshot whose memo holds `entries` entries.
fn push_footer(out: &mut Vec<u8>, cursor: &SweepCursor, outcome: &SweepOutcome, entries: u64) {
    for range in &cursor.ranges {
        push_u64(out, range.next);
        push_u64(out, range.hi);
    }
    push_histogram(out, &outcome.orbits);
    push_histogram(out, &outcome.problems);
    push_u64(out, outcome.lanes.blocks);
    push_u64(out, outcome.lanes.fixpoint_rounds);
    push_u64(out, outcome.lanes.live_lane_rounds);
    push_u64(out, outcome.lanes.scalar_fallbacks);
    push_u32(out, cursor.ranges.len() as u32);
    push_u64(out, entries);
}

/// The header of a segment of `len` bytes over `ranges` shard ranges.
fn segment_header(len: u64, ranges: u32) -> [u8; SEGMENT_HEADER_LEN] {
    let mut out = [0u8; SEGMENT_HEADER_LEN];
    out[..8].copy_from_slice(&len.to_le_bytes());
    out[8..12].copy_from_slice(&ranges.to_le_bytes());
    let check = fnv1a64(&out[..12]);
    out[12..].copy_from_slice(&check.to_le_bytes());
    out
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

    /// Appends `count` memo entries to `memo`; they must use up the rest of
    /// the reader.
    fn memo(
        &mut self,
        count: u64,
        memo: &mut Vec<(CanonicalKey, Complexity)>,
        fingerprint: &mut MemoFingerprint,
    ) -> Result<(), SnapshotError> {
        // Each entry is at least 3 bytes (empty key + tag); a count beyond
        // that bound cannot be real even with a valid digest.
        if count > (self.remaining() / 3) as u64 {
            return Err(SnapshotError::Malformed("memo count"));
        }
        memo.reserve(count as usize);
        for _ in 0..count {
            let key_len = self.u16()? as usize;
            let words = self
                .take(2 * key_len)?
                .chunks_exact(2)
                .map(|w| u16::from_le_bytes([w[0], w[1]]))
                .collect();
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
            let key = CanonicalKey::from_words(words);
            fingerprint.push(&key, complexity);
            memo.push((key, complexity));
        }
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed("trailing bytes"));
        }
        Ok(())
    }

    /// A footer of `range_count` ranges that uses up the rest of the reader:
    /// ranges, outcome, and the memo entry count it records.
    fn footer(
        &mut self,
        range_count: usize,
    ) -> Result<(Vec<MaskRange>, SweepOutcome, u64), SnapshotError> {
        let ranges = self.ranges(range_count)?;
        let outcome = self.outcome()?;
        if self.u32()? as usize != range_count {
            return Err(SnapshotError::Malformed("range count"));
        }
        let entries = self.u64()?;
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed("trailing bytes"));
        }
        Ok((ranges, outcome, entries))
    }
}

/// Bytes of a footer over `range_count` ranges, if that fits a `usize`.
fn footer_len(range_count: usize) -> Option<usize> {
    range_count
        .checked_mul(16)
        .and_then(|n| n.checked_add(FOOTER_FIXED_LEN))
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
    let mut memo = Vec::new();
    r.memo(memo_count, &mut memo, &mut MemoFingerprint::default())?;
    Ok((ranges, outcome, memo))
}

/// Version 2 after the prefix (read-only): entries, then the footer, whose
/// last twelve bytes are the range and entry counts.
fn parse_v2(r: Reader<'_>) -> Result<SnapshotBody, SnapshotError> {
    let body = r.bytes;
    let counts_at = body
        .len()
        .checked_sub(12)
        .filter(|&at| at >= r.at)
        .ok_or(SnapshotError::Truncated)?;
    let range_count = Reader {
        bytes: body,
        at: counts_at,
    }
    .u32()? as usize;
    let footer_at = footer_len(range_count)
        .and_then(|len| body.len().checked_sub(len))
        .filter(|&at| at >= r.at)
        .ok_or(SnapshotError::Malformed("range count"))?;
    let (ranges, outcome, memo_count) = Reader {
        bytes: body,
        at: footer_at,
    }
    .footer(range_count)?;
    let mut memo = Vec::new();
    Reader {
        bytes: &body[..footer_at],
        at: r.at,
    }
    .memo(memo_count, &mut memo, &mut MemoFingerprint::default())?;
    Ok((ranges, outcome, memo))
}

/// Where a version 3 file's last complete segment ends: the encoder state
/// after it, its digest, and the fingerprint of the memo up to it.
struct LogEnd {
    encoder: SegmentEncoder,
    digest: [u8; 8],
    fingerprint: MemoFingerprint,
}

/// One complete version 3 segment: where it starts, its length (header and
/// digest included), and its range count.
struct Segment {
    at: usize,
    len: usize,
    range_count: usize,
}

/// The complete segments of a version 3 file, found from their headers
/// alone, up to the end of the file or a torn tail. The walk stops early at a
/// header that is damaged (its check fails) or impossible (a length too short
/// for its footer); that error comes back with the segments before it.
fn segments_v3(bytes: &[u8]) -> (Vec<Segment>, Option<SnapshotError>) {
    let mut segments = Vec::new();
    let mut at = PREFIX_LEN;
    while let Some(header) = bytes.get(at..at + SEGMENT_HEADER_LEN) {
        let word = |at: usize, len: usize| {
            let mut bytes = [0u8; 8];
            bytes[..len].copy_from_slice(&header[at..at + len]);
            u64::from_le_bytes(bytes)
        };
        let (len, range_count, check) = (word(0, 8), word(8, 4) as usize, word(12, 8));
        if fnv1a64(&header[..12]) != check {
            return (segments, Some(SnapshotError::ChecksumMismatch));
        }
        let Some(footer_len) = footer_len(range_count) else {
            return (segments, Some(SnapshotError::Malformed("range count")));
        };
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if len < SEGMENT_HEADER_LEN + footer_len + 8 {
            return (segments, Some(SnapshotError::Malformed("segment length")));
        }
        if bytes.len() - at < len {
            break; // the file ends inside this segment: a torn tail
        }
        segments.push(Segment {
            at,
            len,
            range_count,
        });
        at += len;
    }
    (segments, None)
}

/// Checks the chained digest of every segment in file order: the running
/// FNV-1a state after the last one, or the index of the first whose digest
/// fails.
fn verify_segments(bytes: &[u8], segments: &[Segment]) -> Result<u64, usize> {
    let mut hash = fnv1a64(&bytes[..PREFIX_LEN]);
    for (i, segment) in segments.iter().enumerate() {
        let (content, digest) =
            bytes[segment.at..segment.at + segment.len].split_at(segment.len - 8);
        hash = fnv1a64_extend(hash, content);
        if hash.to_le_bytes() != digest {
            return Err(i);
        }
        hash = fnv1a64_extend(hash, digest);
    }
    Ok(hash)
}

/// Decodes one segment without its digest: appends its entries to `memo`
/// and returns its footer's state.
fn decode_segment(
    content: &[u8],
    range_count: usize,
    memo: &mut Vec<(CanonicalKey, Complexity)>,
    fingerprint: &mut MemoFingerprint,
) -> Result<(Vec<MaskRange>, SweepOutcome), SnapshotError> {
    let footer_at = content.len() - footer_len(range_count).expect("checked by the walk");
    let (ranges, outcome, entries) = Reader {
        bytes: content,
        at: footer_at,
    }
    .footer(range_count)?;
    let new = entries
        .checked_sub(memo.len() as u64)
        .ok_or(SnapshotError::Malformed("memo count"))?;
    Reader {
        bytes: &content[..footer_at],
        at: SEGMENT_HEADER_LEN,
    }
    .memo(new, memo, fingerprint)?;
    Ok((ranges, outcome))
}

/// Version 3: the segments after the prefix, up to the end of the file or a
/// torn tail. `bytes` is the whole file.
///
/// The chained digests are checked on a second thread while this one
/// decodes the entries. The keys are allocated here, not on the second
/// thread: allocated there, they landed in that thread's allocator arena,
/// and classify-serve's peak RSS rose from 23 to 38 MB. Errors are reported
/// in segment order, as a front-to-back reader would meet them: a segment's
/// header, then its digest, then its fields. So a bad digest wins over a
/// malformed field in the same or a later segment, and a malformed field
/// over a bad digest or header behind it.
fn parse_v3(bytes: &[u8]) -> Result<(SnapshotBody, SnapshotLayout, LogEnd), SnapshotError> {
    let (segments, walk_error) = segments_v3(bytes);
    let mut memo = Vec::new();
    let mut fingerprint = MemoFingerprint::default();
    let mut state = None;
    let mut decode = || {
        segments.iter().enumerate().try_for_each(|(i, segment)| {
            let content = &bytes[segment.at..segment.at + segment.len - 8];
            decode_segment(content, segment.range_count, &mut memo, &mut fingerprint)
                .map(|decoded| state = Some(decoded))
                .map_err(|e| (i, e))
        })
    };
    let verify = || verify_segments(bytes, &segments);
    let (verified, decoded) = std::thread::scope(|scope| {
        match std::thread::Builder::new().spawn_scoped(scope, verify) {
            Ok(handle) => {
                let decoded = decode();
                let verified = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                (verified, decoded)
            }
            // No thread to spare: the same checks, one after the other.
            Err(_) => (verify(), decode()),
        }
    });
    let hash = match (verified, decoded) {
        (Err(bad), Err((malformed, _))) if bad <= malformed => {
            return Err(SnapshotError::ChecksumMismatch)
        }
        (Err(_), Ok(())) => return Err(SnapshotError::ChecksumMismatch),
        (_, Err((_, e))) => return Err(e),
        (Ok(hash), Ok(())) => hash,
    };
    if let Some(e) = walk_error {
        return Err(e);
    }
    let (ranges, outcome) = state.ok_or(SnapshotError::Truncated)?;
    let last = segments.last().expect("a state comes from a segment");
    let at = last.at + last.len;
    let layout = SnapshotLayout {
        version: 3,
        segments: segments.len(),
        torn_tail_bytes: bytes.len() - at,
    };
    let end = LogEnd {
        encoder: SegmentEncoder {
            len: at as u64,
            hash,
            entries: memo.len() as u64,
        },
        digest: bytes[at - 8..at].try_into().expect("an eight-byte slice"),
        fingerprint,
    };
    Ok(((ranges, outcome, memo), layout, end))
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
            origin: None,
        }
    }

    /// Serializes to the on-disk byte layout: the prefix and one segment
    /// holding the whole memo.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        SegmentEncoder::start(&mut out, &self.cursor)
            .and_then(|mut encoder| {
                encoder.write_segment(&mut out, &self.memo, &self.cursor, &self.outcome)
            })
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Parses and validates a snapshot of any readable version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Ok(Self::from_bytes_with_layout(bytes)?.0)
    }

    /// [`Self::from_bytes`], also reporting how the file was laid out.
    /// Checks the magic, then a version 3 file segment by segment (header
    /// check, digest, fields; see [`crate::snapshot`]), or any other
    /// version's one trailing digest, then its version, then its fields.
    pub fn from_bytes_with_layout(bytes: &[u8]) -> Result<(Self, SnapshotLayout), SnapshotError> {
        let (snapshot, layout, _) = Self::decode(bytes)?;
        Ok((snapshot, layout))
    }

    /// [`Self::from_bytes_with_layout`], plus where a version 3 file's last
    /// complete segment ends.
    fn decode(bytes: &[u8]) -> Result<(Self, SnapshotLayout, Option<LogEnd>), SnapshotError> {
        if bytes.len() < SNAPSHOT_MAGIC.len() + 8 {
            return Err(SnapshotError::Truncated);
        }
        let version = format_version(bytes)?;
        let ((ranges, outcome, memo), layout, end) = if version == 3 {
            if bytes.len() < PREFIX_LEN {
                return Err(SnapshotError::Truncated);
            }
            let (body, layout, end) = parse_v3(bytes)?;
            (body, layout, Some(end))
        } else {
            let body = &bytes[..bytes.len() - 8];
            let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
            if fnv1a64(body) != stored {
                return Err(SnapshotError::ChecksumMismatch);
            }
            if body.len() < PREFIX_LEN {
                return Err(SnapshotError::Truncated);
            }
            let r = Reader {
                bytes: body,
                at: PREFIX_LEN,
            };
            let parsed = match version {
                1 => parse_v1(r)?,
                2 => parse_v2(r)?,
                _ => return Err(SnapshotError::UnsupportedVersion(version)),
            };
            let layout = SnapshotLayout {
                version,
                segments: 1,
                torn_tail_bytes: 0,
            };
            (parsed, layout, None)
        };
        let mut r = Reader {
            bytes,
            at: SNAPSHOT_MAGIC.len() + 4,
        };
        let delta = r.u16()?;
        let num_labels = r.u16()?;
        let engine = EngineKind::from_u8(r.u8()?).ok_or(SnapshotError::Malformed("engine kind"))?;
        let snapshot = SweepSnapshot {
            cursor: SweepCursor {
                delta,
                num_labels,
                engine,
                ranges,
            },
            outcome,
            memo,
            origin: None,
        };
        Ok((snapshot, layout, end))
    }

    /// Writes the snapshot atomically: serialize to `<path>.tmp` in the same
    /// directory, then `rename` over `path`. A reader never observes a
    /// partial file.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        SnapshotWriter::create(path, &self.memo, &self.cursor, &self.outcome)?;
        Ok(())
    }

    /// Reads and validates a snapshot file. A version 3 snapshot remembers
    /// the file, so that a sweep checkpointing to the same path appends to
    /// it instead of rewriting it (see [`crate::snapshot`]).
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        let (mut snapshot, _, end) = Self::decode(&bytes)?;
        snapshot.origin = end.map(|end| SnapshotOrigin {
            path: path.to_path_buf(),
            encoder: end.encoder,
            digest: end.digest,
            memo_len: snapshot.memo.len(),
            fingerprint: end.fingerprint,
        });
        Ok(snapshot)
    }
}

/// The version 3 prefix of `cursor`'s campaign: magic, version, δ, |Σ|, and
/// engine kind.
fn prefix_of(cursor: &SweepCursor) -> [u8; PREFIX_LEN] {
    let mut prefix = [0u8; PREFIX_LEN];
    prefix[..8].copy_from_slice(&SNAPSHOT_MAGIC);
    prefix[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    prefix[12..14].copy_from_slice(&cursor.delta.to_le_bytes());
    prefix[14..16].copy_from_slice(&cursor.num_labels.to_le_bytes());
    prefix[16] = cursor.engine.to_u8();
    prefix
}

/// Encodes a version 3 file: the prefix, then one segment per
/// [`Self::write_segment`]. It carries what the next segment depends on
/// besides its own entries and footer — the file length, the running FNV-1a
/// 64 state over every byte so far, and the entry count — so a segment costs
/// only its own bytes, however long the file already is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEncoder {
    len: u64,
    hash: u64,
    entries: u64,
}

impl SegmentEncoder {
    /// Writes the prefix of `cursor`'s campaign — its δ, |Σ|, and engine,
    /// fixed for every later segment — and returns the encoder after it.
    pub fn start<W: Write>(out: &mut W, cursor: &SweepCursor) -> io::Result<Self> {
        let prefix = prefix_of(cursor);
        out.write_all(&prefix)?;
        Ok(SegmentEncoder {
            len: PREFIX_LEN as u64,
            hash: fnv1a64(&prefix),
            entries: 0,
        })
    }

    /// Bytes of the file encoded so far.
    pub fn file_len(&self) -> u64 {
        self.len
    }

    /// Writes one segment: `entries` (the memo entries committed since the
    /// previous segment), then the footer of `cursor` and `outcome`, then
    /// the chained digest. The cursor must keep the campaign of
    /// [`Self::start`]. On error the encoder is unchanged and `out` may hold
    /// part of the segment.
    pub fn write_segment<'a, W, I>(
        &mut self,
        out: &mut W,
        entries: I,
        cursor: &SweepCursor,
        outcome: &SweepOutcome,
    ) -> io::Result<()>
    where
        W: Write,
        I: IntoIterator<Item = &'a (CanonicalKey, Complexity)>,
        I::IntoIter: Clone,
    {
        let entries = entries.into_iter();
        let (count, entry_bytes) = entries.clone().fold((0u64, 0usize), |(n, len), (k, c)| {
            (n + 1, len + entry_len(k, *c))
        });
        let footer_len = footer_len(cursor.ranges.len()).expect("a footer fits in memory");
        let len = SEGMENT_HEADER_LEN + entry_bytes + footer_len + 8;
        let mut buf = Vec::with_capacity(len.min(2 * WRITE_CHUNK));
        buf.extend_from_slice(&segment_header(len as u64, cursor.ranges.len() as u32));
        let mut hash = self.hash;
        let mut flush = |buf: &mut Vec<u8>, hash: &mut u64| {
            *hash = fnv1a64_extend(*hash, buf);
            let written = out.write_all(buf);
            buf.clear();
            written
        };
        for (key, complexity) in entries {
            push_entry(&mut buf, key, *complexity);
            if buf.len() >= WRITE_CHUNK {
                flush(&mut buf, &mut hash)?;
            }
        }
        push_footer(&mut buf, cursor, outcome, self.entries + count);
        flush(&mut buf, &mut hash)?;
        buf.extend_from_slice(&hash.to_le_bytes());
        flush(&mut buf, &mut hash)?;
        self.len += len as u64;
        self.hash = hash;
        self.entries += count;
        Ok(())
    }
}

/// The one snapshot file writer: every snapshot file — [`SweepSnapshot::save`],
/// the engine's memo flush, and a sweep's checkpoints — is written through
/// it.
///
/// [`Self::create`] writes the whole file as one segment through a temp file
/// and `rename`, and keeps the file open; `reopen` opens the file a snapshot
/// was loaded from at its last complete segment instead; [`Self::append`]
/// adds one segment through the handle. The writer holds only the handle and
/// the [`SegmentEncoder`] state, never the encoded memo.
#[derive(Debug)]
pub struct SnapshotWriter {
    file: File,
    encoder: SegmentEncoder,
}

impl SnapshotWriter {
    /// Writes the file for `entries` (the whole memo), `cursor`, and
    /// `outcome` atomically: stream it to `<path>.tmp` in the same
    /// directory, then `rename` over `path`. A reader never observes a
    /// partial file, and whatever the path held before — a torn tail
    /// included — is replaced.
    pub fn create<'a, I>(
        path: &Path,
        entries: I,
        cursor: &SweepCursor,
        outcome: &SweepOutcome,
    ) -> io::Result<Self>
    where
        I: IntoIterator<Item = &'a (CanonicalKey, Complexity)>,
        I::IntoIter: Clone,
    {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut file = File::create(&tmp)?;
        let mut encoder = SegmentEncoder::start(&mut file, cursor)?;
        encoder.write_segment(&mut file, entries, cursor, outcome)?;
        std::fs::rename(&tmp, path)?;
        Ok(SnapshotWriter { file, encoder })
    }

    /// Opens the file `origin` was loaded from for appending after its last
    /// complete segment, cutting off whatever follows it (a torn tail). Only
    /// when the file still starts with the prefix of `cursor`'s campaign and
    /// still holds the loaded segment's digest where that segment ends;
    /// `None` otherwise, or on any I/O error, and the caller then creates the
    /// file afresh. The caller checks that the memo is still the loaded one.
    pub(crate) fn reopen(origin: &SnapshotOrigin, cursor: &SweepCursor) -> Option<Self> {
        let end = origin.encoder.len;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&origin.path)
            .ok()?;
        if file.metadata().ok()?.len() < end {
            return None;
        }
        let mut prefix = [0u8; PREFIX_LEN];
        file.read_exact(&mut prefix).ok()?;
        let mut digest = [0u8; 8];
        file.seek(SeekFrom::Start(end - 8)).ok()?;
        file.read_exact(&mut digest).ok()?;
        if prefix != prefix_of(cursor) || digest != origin.digest {
            return None;
        }
        file.set_len(end).ok()?;
        file.seek(SeekFrom::Start(end)).ok()?;
        Some(SnapshotWriter {
            file,
            encoder: origin.encoder,
        })
    }

    /// Appends one segment: `entries` (the memo entries committed since the
    /// previous write), then the footer of `cursor` and `outcome`. Nothing
    /// written earlier is touched. A crash mid-append leaves a torn tail,
    /// which readers skip; a failed append is cut off the file (best effort)
    /// so the next one starts at the last complete segment.
    pub fn append<'a, I>(
        &mut self,
        entries: I,
        cursor: &SweepCursor,
        outcome: &SweepOutcome,
    ) -> io::Result<()>
    where
        I: IntoIterator<Item = &'a (CanonicalKey, Complexity)>,
        I::IntoIter: Clone,
    {
        let written = self
            .encoder
            .write_segment(&mut self.file, entries, cursor, outcome);
        if written.is_err() {
            let _ = self.file.set_len(self.encoder.len);
            let _ = self.file.seek(SeekFrom::Start(self.encoder.len));
        }
        written
    }
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
/// a partial copy). A version 3 file whose last checkpoint append was cut
/// short is not damaged: it loads the previous segment. A damaged file is
/// renamed to `<path>.corrupt` (clobbering any
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
            origin: None,
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
        // A file cut anywhere inside its only segment (or right after the
        // prefix) has no complete state to fall back on.
        for cut in [
            bytes.len() - 1,
            bytes.len() - 9,
            bytes.len() / 2,
            PREFIX_LEN,
            PREFIX_LEN + SEGMENT_HEADER_LEN - 1,
            PREFIX_LEN + SEGMENT_HEADER_LEN,
        ] {
            assert!(
                matches!(
                    SweepSnapshot::from_bytes(&bytes[..cut]),
                    Err(SnapshotError::Truncated)
                ),
                "cut at {cut}"
            );
        }
    }

    /// `sample()` after its first memo entry: one orbit, one range advanced.
    fn sample_after_one_entry() -> SweepSnapshot {
        let mut snap = sample();
        snap.memo.truncate(1);
        snap.cursor.ranges[0].next = 7;
        snap.outcome = SweepOutcome::default();
        snap.outcome.orbits.add(Complexity::Constant, 1);
        snap.outcome.problems.add(Complexity::Constant, 6);
        snap
    }

    /// `sample()` written as two segments: the state after its first entry,
    /// then the rest. Returns the file and the first segment's end.
    fn two_segments() -> (Vec<u8>, usize) {
        let (early, last) = (sample_after_one_entry(), sample());
        let mut bytes = Vec::new();
        let mut encoder = SegmentEncoder::start(&mut bytes, &early.cursor).unwrap();
        encoder
            .write_segment(&mut bytes, &early.memo, &early.cursor, &early.outcome)
            .unwrap();
        let boundary = bytes.len();
        assert_eq!(encoder.file_len(), boundary as u64);
        encoder
            .write_segment(&mut bytes, &last.memo[1..], &last.cursor, &last.outcome)
            .unwrap();
        assert_eq!(encoder.file_len(), bytes.len() as u64);
        (bytes, boundary)
    }

    #[test]
    fn appended_segments_load_to_the_last_complete_one() {
        let (bytes, boundary) = two_segments();
        let (early, last) = (sample_after_one_entry(), sample());
        // The first segment is the one-shot file of its state.
        assert_eq!(bytes[..boundary], early.to_bytes()[..]);
        let (back, layout) = SweepSnapshot::from_bytes_with_layout(&bytes).unwrap();
        assert_eq!(back.cursor, last.cursor);
        assert_eq!(back.outcome, last.outcome);
        assert_eq!(back.memo, last.memo);
        assert_eq!(
            layout,
            SnapshotLayout {
                version: 3,
                segments: 2,
                torn_tail_bytes: 0
            }
        );
        // A file cut inside the second segment, header or body, loads the
        // first: a torn tail.
        for cut in boundary..bytes.len() {
            let (back, layout) = SweepSnapshot::from_bytes_with_layout(&bytes[..cut]).unwrap();
            assert_eq!(back.cursor, early.cursor, "cut at {cut}");
            assert_eq!(back.outcome, early.outcome, "cut at {cut}");
            assert_eq!(back.memo, early.memo, "cut at {cut}");
            assert_eq!(
                (layout.segments, layout.torn_tail_bytes),
                (1, cut - boundary)
            );
        }
    }

    #[test]
    fn damage_in_any_complete_segment_is_a_checksum_mismatch() {
        let (bytes, boundary) = two_segments();
        for at in PREFIX_LEN..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[at] ^= 0x10;
            assert!(
                matches!(
                    SweepSnapshot::from_bytes(&damaged),
                    Err(SnapshotError::ChecksumMismatch)
                ),
                "flip at {at}"
            );
        }
        // A complete second header with a bad check is damage, even though
        // the segment behind it is cut short.
        let mut torn = bytes[..boundary + SEGMENT_HEADER_LEN + 1].to_vec();
        torn[boundary + 3] ^= 1;
        assert!(matches!(
            SweepSnapshot::from_bytes(&torn),
            Err(SnapshotError::ChecksumMismatch)
        ));
    }

    /// `sample()` written as three segments, one entry each: the file and
    /// each segment's start.
    fn three_segments() -> (Vec<u8>, [usize; 3]) {
        let last = sample();
        let mut bytes = Vec::new();
        let mut encoder = SegmentEncoder::start(&mut bytes, &last.cursor).unwrap();
        let mut starts = [0; 3];
        for (i, start) in starts.iter_mut().enumerate() {
            *start = bytes.len();
            encoder
                .write_segment(&mut bytes, &last.memo[i..=i], &last.cursor, &last.outcome)
                .unwrap();
        }
        (bytes, starts)
    }

    /// `bytes` with every segment's digest chained anew, so that only the
    /// damage done after this call shows as damage.
    fn rechain(mut bytes: Vec<u8>) -> Vec<u8> {
        let (segments, _) = segments_v3(&bytes);
        let mut hash = fnv1a64(&bytes[..PREFIX_LEN]);
        for segment in &segments {
            let digest_at = segment.at + segment.len - 8;
            hash = fnv1a64_extend(hash, &bytes[segment.at..digest_at]);
            bytes[digest_at..digest_at + 8].copy_from_slice(&hash.to_le_bytes());
            hash = fnv1a64_extend(hash, &hash.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn errors_are_reported_in_segment_order() {
        let (bytes, starts) = three_segments();
        assert_eq!(
            SweepSnapshot::from_bytes(&bytes).unwrap().memo,
            sample().memo
        );
        let ends = [starts[1], starts[2], bytes.len()];
        // A malformed field: segment `i`'s first range watermark past its
        // end, behind digests chained anew.
        let malformed = |bytes: &mut Vec<u8>, i: usize| {
            let footer_at = ends[i] - 8 - footer_len(2).unwrap();
            bytes[footer_at..footer_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            *bytes = rechain(std::mem::take(bytes));
        };
        let bad_digest = |bytes: &mut Vec<u8>, i: usize| bytes[ends[i] - 1] ^= 1;
        let bad_header = |bytes: &mut Vec<u8>, i: usize| bytes[starts[i] + 9] ^= 1;
        // A header that checks but whose length cannot hold its footer.
        let short_segment = |bytes: &mut Vec<u8>, i: usize| {
            let header = segment_header(SEGMENT_HEADER_LEN as u64, 2);
            bytes[starts[i]..starts[i] + SEGMENT_HEADER_LEN].copy_from_slice(&header);
        };
        let load = |bytes: &[u8]| SweepSnapshot::from_bytes(bytes).map(|_| ());

        // A bad digest in segment 2 hides a malformed field in segment 3.
        let mut damaged = bytes.clone();
        malformed(&mut damaged, 2);
        assert!(matches!(
            load(&damaged),
            Err(SnapshotError::Malformed("range watermark past end"))
        ));
        bad_digest(&mut damaged, 1);
        assert!(matches!(
            load(&damaged),
            Err(SnapshotError::ChecksumMismatch)
        ));
        // A malformed field in segment 1 hides a bad digest in segment 2.
        let mut damaged = bytes.clone();
        malformed(&mut damaged, 0);
        bad_digest(&mut damaged, 1);
        assert!(matches!(
            load(&damaged),
            Err(SnapshotError::Malformed("range watermark past end"))
        ));
        // Within one segment, the digest comes first.
        let mut damaged = bytes.clone();
        malformed(&mut damaged, 1);
        bad_digest(&mut damaged, 1);
        assert!(matches!(
            load(&damaged),
            Err(SnapshotError::ChecksumMismatch)
        ));
        // A bad header after complete segments is still the header's error,
        // and a malformed field before it wins.
        let mut damaged = bytes.clone();
        bad_header(&mut damaged, 2);
        assert!(matches!(
            load(&damaged),
            Err(SnapshotError::ChecksumMismatch)
        ));
        malformed(&mut damaged, 1);
        assert!(matches!(
            load(&damaged),
            Err(SnapshotError::Malformed("range watermark past end"))
        ));
        let mut damaged = bytes.clone();
        short_segment(&mut damaged, 2);
        assert!(matches!(
            load(&damaged),
            Err(SnapshotError::Malformed("segment length"))
        ));
        malformed(&mut damaged, 1);
        assert!(matches!(
            load(&damaged),
            Err(SnapshotError::Malformed("range watermark past end"))
        ));
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
    fn load_records_the_origin_of_version_3_files_only() {
        let dir = std::env::temp_dir().join(format!("rtlcl-origin-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.rtlcl");
        let (bytes, boundary) = two_segments();
        // A torn tail: the origin ends at the last complete segment.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let snap = SweepSnapshot::load(&path).unwrap();
        let origin = snap
            .origin
            .as_ref()
            .expect("a version 3 file records its origin");
        assert_eq!(origin.path(), path);
        assert_eq!(origin.encoder.file_len(), boundary as u64);
        assert_eq!(origin.digest[..], bytes[boundary - 8..boundary]);
        let mut fingerprint = MemoFingerprint::default();
        for (key, c) in &snap.memo {
            fingerprint.push(key, *c);
        }
        assert!(origin.holds(snap.memo.len(), fingerprint));
        assert!(!origin.holds(snap.memo.len() + 1, fingerprint));
        // Bytes alone have no origin; neither has a version 1 or 2 file.
        assert!(SweepSnapshot::from_bytes(&bytes).unwrap().origin.is_none());
        let mut v2 = bytes[..PREFIX_LEN].to_vec();
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        let early = sample_after_one_entry();
        for (key, c) in &early.memo {
            push_entry(&mut v2, key, *c);
        }
        push_footer(
            &mut v2,
            &early.cursor,
            &early.outcome,
            early.memo.len() as u64,
        );
        let digest = fnv1a64(&v2);
        v2.extend_from_slice(&digest.to_le_bytes());
        std::fs::write(&path, &v2).unwrap();
        let old = SweepSnapshot::load(&path).unwrap();
        assert_eq!(old.memo, early.memo);
        assert!(old.origin.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memo_fingerprint_depends_on_every_entry_and_their_order() {
        let memo = sample().memo;
        let of = |entries: &[(CanonicalKey, Complexity)]| {
            let mut fingerprint = MemoFingerprint::default();
            for (key, c) in entries {
                fingerprint.push(key, *c);
            }
            fingerprint
        };
        let whole = of(&memo);
        let mut swapped = memo.clone();
        swapped.swap(0, 2);
        assert_ne!(of(&swapped), whole);
        let mut exponent = memo.clone();
        exponent[1].1 = Complexity::Polynomial { exponent: 3 };
        assert_ne!(of(&exponent), whole);
        let mut word = memo.clone();
        word[0].0 = CanonicalKey::from_words(vec![2, 2, 0, 1, 2]);
        assert_ne!(of(&word), whole);
        assert_ne!(of(&memo[..2]), whole);
        assert_eq!(of(&memo), whole);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
