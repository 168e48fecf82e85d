//! The batch classification engine: canonical forms, memoization, and parallel
//! sweeps over whole problem families.
//!
//! The PODC 2021 classifier decides one problem at a time; the follow-up
//! "Efficient Classification of Local Problems in Regular Trees" (Balliu et al.,
//! 2022) shows what becomes possible once the decision procedure is fast enough
//! to sweep entire problem families. This module provides that workload:
//!
//! * [`canonical_form`] — a label-permutation-invariant key for a problem. Two
//!   problems that differ only by renaming labels share a key, and the
//!   complexity class is invariant under renaming, so the key is a sound
//!   memoization handle.
//! * [`ClassificationEngine`] — a thread-safe classifier front end with a
//!   canonical-form memo cache, a sequential batch API, and a parallel batch
//!   API ([`ClassificationEngine::classify_batch`]) that fans work out over
//!   `std::thread::scope` workers (the workspace builds without external
//!   crates, so no rayon; the work-stealing loop below is a few lines).
//!
//! Batch results are always identical to running [`crate::classify`] on each
//! problem individually — the engine tests assert this over the whole catalog
//! and over large random families.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::bitslice::{
    classify_block_sliced, BitSliceScratch, LaneVerdict, LaneWidth, SlicedUniverse,
};
use crate::classifier::{
    classify_complexity_with, classify_with_config, ClassifierConfig, Complexity,
};
use crate::problem::LclProblem;
use crate::scratch::ClassifyScratch;
use crate::snapshot::{
    MaskRange, MemoFingerprint, SnapshotError, SnapshotOrigin, SnapshotWriter, SweepCursor,
    SweepSnapshot,
};

/// A label-permutation-invariant fingerprint of a problem.
///
/// The encoding is `[delta, k, c₀ …]` where `k` is the number of labels used in
/// configurations and the configurations are relabeled through the permutation
/// of used labels that minimizes the sorted encoding. Labels that appear in no
/// configuration are irrelevant to the complexity class (they are never
/// self-sustaining and never enter a certificate), so they are excluded; two
/// problems with the same configurations but different orphan labels share a
/// key on purpose.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalKey(Vec<u16>);

impl CanonicalKey {
    /// The raw 16-bit words of the key — the flat `[delta, k, rows…]`
    /// encoding. Opaque outside serialization: the snapshot layer writes
    /// these verbatim and rebuilds the key with [`Self::from_words`].
    pub fn as_words(&self) -> &[u16] {
        &self.0
    }

    /// Rebuilds a key from [`Self::as_words`] output. The words are trusted —
    /// keys only meet other keys, so a mangled word vector can only fail to
    /// match, never misclassify.
    pub fn from_words(words: Vec<u16>) -> Self {
        CanonicalKey(words)
    }
}

/// Number of used labels up to which the canonicalizer tries every permutation.
/// Beyond this, it falls back to the identity relabeling (still dense), which
/// dedups exact duplicates but not renamings. `8! = 40320` permutations of an
/// 18-configuration problem is well under a millisecond; `9!` starts to rival
/// the classification itself on easy problems.
pub const MAX_CANONICAL_LABELS: usize = 8;

/// Computes the [`CanonicalKey`] of a problem. See the type's documentation for
/// what the key identifies.
///
/// Each configuration is packed into one `u128` (δ + 1 slots of 16 bits, which
/// covers δ ≤ 7; larger δ skips the permutation search), so trying a
/// permutation is a relabel-and-sort over a flat `Vec<u128>` with no per-row
/// allocation.
pub fn canonical_form(problem: &LclProblem) -> CanonicalKey {
    let used = problem.used_labels();
    let k = used.len();
    let delta = problem.delta();
    let slots = delta + 1;

    // Rows in dense indices (used label -> 0..k by ascending index), once.
    let rows_dense: Vec<Vec<u16>> = problem
        .configurations()
        .iter()
        .map(|c| {
            let mut row = Vec::with_capacity(slots);
            row.push(used.rank(c.parent()) as u16);
            row.extend(c.children().iter().map(|&l| used.rank(l) as u16));
            row
        })
        .collect();

    // Encodes all rows under one relabeling into `out` (packed, sorted).
    let encode_packed = |perm: &[u16], out: &mut Vec<u128>| {
        out.clear();
        let mut children = [0u16; 8];
        for row in &rows_dense {
            for (slot, &d) in row[1..].iter().enumerate() {
                children[slot] = perm[d as usize];
            }
            children[..delta].sort_unstable();
            let mut packed = perm[row[0] as usize] as u128;
            for &c in &children[..delta] {
                packed = (packed << 16) | c as u128;
            }
            out.push(packed);
        }
        out.sort_unstable();
    };

    let identity: Vec<u16> = (0..k as u16).collect();
    let mut best: Vec<u128> = Vec::with_capacity(rows_dense.len());
    if slots <= 8 && k <= MAX_CANONICAL_LABELS && k > 1 {
        encode_packed(&identity, &mut best);
        let mut candidate: Vec<u128> = Vec::with_capacity(rows_dense.len());
        let mut perm = identity.clone();
        permute(&mut perm, 0, &mut |perm| {
            encode_packed(perm, &mut candidate);
            if candidate < best {
                std::mem::swap(&mut best, &mut candidate);
            }
        });
    } else if slots <= 8 {
        encode_packed(&identity, &mut best);
    } else {
        // δ ≥ 8: rows don't fit one u128; use the lossless flat encoding under
        // the identity relabeling (exact dedup only, no renaming dedup).
        let mut rows: Vec<Vec<u16>> = rows_dense
            .iter()
            .map(|row| {
                let mut r = row.clone();
                r[1..].sort_unstable();
                r
            })
            .collect();
        rows.sort_unstable();
        let mut flat: Vec<u16> = Vec::with_capacity(2 + rows.len() * slots);
        flat.push(delta as u16);
        flat.push(k as u16);
        for row in &rows {
            flat.extend_from_slice(row);
        }
        return CanonicalKey(flat);
    }

    canonical_key_from_packed_rows(delta, k, &best)
}

/// Builds a [`CanonicalKey`] from the winning packed-row encoding: the sorted
/// `u128` rows of the minimizing relabeling, each packing `delta + 1` 16-bit
/// slots (parent highest, children ascending) as [`canonical_form`]'s
/// permutation search produces them. The key is these rows unpacked, which is
/// what the mask-direct fast path in `lcl-problems`' `CanonicalFamily` spells
/// directly.
fn canonical_key_from_packed_rows(
    delta: usize,
    num_used: usize,
    sorted_packed: &[u128],
) -> CanonicalKey {
    let slots = delta + 1;
    let mut flat: Vec<u16> = Vec::with_capacity(2 + sorted_packed.len() * slots);
    flat.push(delta as u16);
    flat.push(num_used as u16);
    for &packed in sorted_packed {
        for slot in (0..slots).rev() {
            flat.push((packed >> (16 * slot)) as u16);
        }
    }
    CanonicalKey(flat)
}

/// Calls `visit` with every permutation of `items[at..]` (Heap-style recursion).
fn permute(items: &mut [u16], at: usize, visit: &mut impl FnMut(&[u16])) {
    if at == items.len() {
        visit(items);
        return;
    }
    for i in at..items.len() {
        items.swap(at, i);
        permute(items, at + 1, visit);
        items.swap(at, i);
    }
}

/// Number of independent shards of the engine's canonical-form memo. A power
/// of two (the shard index is a hash masked with `MEMO_SHARDS − 1`), sized so
/// that end-of-sweep merges from `available_parallelism` workers and the
/// daemon's concurrent `/classify` traffic rarely collide on one lock.
const MEMO_SHARDS: usize = 16;

/// The engine's memo cache, split into [`MEMO_SHARDS`] independently locked
/// maps keyed by a hash of the canonical key. Point lookups and inserts take
/// exactly one shard lock; bulk merges bucket their entries first and take
/// each destination lock once — so concurrent workers draining private memos
/// stall each other only on the (rare) shard they both touch, not on one
/// global mutex.
#[derive(Debug)]
struct ShardedMemo {
    shards: Vec<Mutex<HashMap<CanonicalKey, Complexity>>>,
}

impl ShardedMemo {
    fn new() -> Self {
        ShardedMemo {
            shards: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// FNV-1a over the key's raw words — cheap, stable across processes, and
    /// independent of `HashMap`'s seeded hasher, so shard assignment is
    /// deterministic.
    fn shard_of(key: &CanonicalKey) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in key.as_words() {
            h ^= u64::from(w);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h as usize) & (MEMO_SHARDS - 1)
    }

    fn get(&self, key: &CanonicalKey) -> Option<Complexity> {
        self.shards[Self::shard_of(key)]
            .lock()
            .expect("engine cache poisoned")
            .get(key)
            .copied()
    }

    fn insert(&self, key: CanonicalKey, value: Complexity) -> Option<Complexity> {
        self.shards[Self::shard_of(&key)]
            .lock()
            .expect("engine cache poisoned")
            .insert(key, value)
    }

    /// Bulk merge: buckets `entries` by shard, then takes each destination
    /// lock exactly once.
    fn extend<E>(&self, entries: E)
    where
        E: IntoIterator<Item = (CanonicalKey, Complexity)>,
    {
        let mut buckets: Vec<Vec<(CanonicalKey, Complexity)>> =
            (0..MEMO_SHARDS).map(|_| Vec::new()).collect();
        for (key, value) in entries {
            buckets[Self::shard_of(&key)].push((key, value));
        }
        for (shard, bucket) in self.shards.iter().zip(buckets) {
            if !bucket.is_empty() {
                shard.lock().expect("engine cache poisoned").extend(bucket);
            }
        }
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("engine cache poisoned").len())
            .sum()
    }

    /// Every entry, sorted by key — deterministic regardless of shard count
    /// and hash-map iteration order.
    fn export_sorted(&self) -> Vec<(CanonicalKey, Complexity)> {
        let mut entries: Vec<(CanonicalKey, Complexity)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("engine cache poisoned");
            entries.extend(shard.iter().map(|(k, &c)| (k.clone(), c)));
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
    }
}

/// A sweep's index over its starting memo, borrowing the keys. It keeps the
/// default hasher: the memo may come from a snapshot file.
type BaselineIndex<'m> = HashMap<&'m CanonicalKey, Complexity>;

/// Statistics of an engine's lifetime, taken with [`ClassificationEngine::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Number of problems answered from the canonical-form cache.
    pub cache_hits: usize,
    /// Number of problems that ran the full decision procedure.
    pub cache_misses: usize,
}

impl EngineStats {
    /// Total problems classified through the engine.
    pub fn total(&self) -> usize {
        self.cache_hits + self.cache_misses
    }
}

/// A thread-safe, memoizing front end to the classifier, built for sweeping
/// problem families.
///
/// ```
/// use lcl_core::engine::ClassificationEngine;
/// use lcl_core::{classify, Complexity, LclProblem};
///
/// let engine = ClassificationEngine::new();
/// let mis: LclProblem = "1:aa\n1:ab\n1:bb\na:bb\nb:b1\nb:11\n".parse().unwrap();
/// let renamed: LclProblem = "2:xx\n2:xy\n2:yy\nx:yy\ny:y2\ny:22\n".parse().unwrap();
/// assert_eq!(engine.classify(&mis), Complexity::Constant);
/// // The renamed copy is answered from the cache via its canonical form.
/// assert_eq!(engine.classify(&renamed), Complexity::Constant);
/// assert_eq!(engine.stats().cache_hits, 1);
/// ```
#[derive(Debug)]
pub struct ClassificationEngine {
    config: ClassifierConfig,
    canonicalize: bool,
    cache: ShardedMemo,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl Default for ClassificationEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ClassificationEngine {
    /// An engine with the default [`ClassifierConfig`].
    pub fn new() -> Self {
        Self::with_config(ClassifierConfig::default())
    }

    /// An engine with an explicit configuration; the configuration is threaded
    /// into every report the engine produces.
    pub fn with_config(config: ClassifierConfig) -> Self {
        ClassificationEngine {
            config,
            canonicalize: true,
            cache: ShardedMemo::new(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Disables (or re-enables) canonical-form memoization. With memoization off
    /// every call runs the full decision procedure; useful for benchmarking the
    /// raw classifier.
    pub fn set_memoization(&mut self, on: bool) {
        self.canonicalize = on;
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ClassifierConfig {
        &self.config
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Classifies one problem, answering from the canonical-form cache when a
    /// renaming-equivalent problem has been classified before. Cache misses run
    /// the zero-allocation decision path on the calling thread's scratch.
    pub fn classify(&self, problem: &LclProblem) -> Complexity {
        crate::scratch::with_thread_scratch(|scratch| self.classify_with(problem, scratch))
    }

    /// [`Self::classify`] with an explicit [`ClassifyScratch`]: what the batch
    /// workers and the sweep driver use (one scratch per worker thread, so
    /// cache misses never contend on anything but the memo map).
    pub fn classify_with(&self, problem: &LclProblem, scratch: &mut ClassifyScratch) -> Complexity {
        if !self.canonicalize {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return classify_complexity_with(problem, scratch);
        }
        let key = canonical_form(problem);
        if let Some(hit) = self.cache.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        let complexity = classify_complexity_with(problem, scratch);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.cache.insert(key, complexity);
        complexity
    }

    /// Classifies one problem and returns the full report (certificates, pruning
    /// trace). Full reports are label-specific, so they are never cached; the
    /// complexity verdict still populates the cache for later [`Self::classify`]
    /// calls (and a verdict already in the cache counts as a hit).
    pub fn classify_full(&self, problem: &LclProblem) -> crate::ClassificationReport {
        let report = classify_with_config(problem, &self.config);
        if self.canonicalize {
            let key = canonical_form(problem);
            if self.cache.insert(key, report.complexity).is_some() {
                self.hits.fetch_add(1, Ordering::Relaxed);
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        report
    }

    /// Classifies every problem on the calling thread, in order.
    pub fn classify_batch_sequential(&self, problems: &[LclProblem]) -> Vec<Complexity> {
        problems.iter().map(|p| self.classify(p)).collect()
    }

    /// Classifies every problem using all available cores, sharing the memo
    /// cache across workers. The result at index `i` is the classification of
    /// `problems[i]`, identical to what [`crate::classify`] returns for it.
    /// Each worker owns a private [`ClassifyScratch`], so cache misses allocate
    /// nothing once the buffers are warm.
    pub fn classify_batch(&self, problems: &[LclProblem]) -> Vec<Complexity> {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(problems.len().max(1));
        if workers <= 1 || problems.len() <= 1 {
            return self.classify_batch_sequential(problems);
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Complexity>>> =
            problems.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = ClassifyScratch::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= problems.len() {
                            break;
                        }
                        let complexity = self.classify_with(&problems[i], &mut scratch);
                        *slots[i].lock().expect("result slot poisoned") = Some(complexity);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every index was processed")
            })
            .collect()
    }

    /// Snapshot view of the canonical-form memo: every cached
    /// `key → Complexity`, sorted by key so exports are deterministic
    /// regardless of hash-map iteration order.
    pub fn export_memo(&self) -> Vec<(CanonicalKey, Complexity)> {
        self.cache.export_sorted()
    }

    /// Merges memo entries (e.g. a loaded [`SweepSnapshot`]'s memo) into the
    /// cache: the warm-boot path. Every later classification of a covered
    /// problem — under any label renaming — is answered as a cache hit.
    pub fn import_memo<E>(&self, entries: E)
    where
        E: IntoIterator<Item = (CanonicalKey, Complexity)>,
    {
        self.cache.extend(entries);
    }

    /// Number of canonical forms currently memoized.
    pub fn memo_len(&self) -> usize {
        self.cache.len()
    }

    /// The engine's memo as a memo-only [`SweepSnapshot`]: an empty, complete
    /// cursor (no sweep campaign attached) carrying every cached verdict.
    /// This is the daemon's persistence format — the same file format and
    /// digest as sweep checkpoints, readable by `rtlcl snapshot info` and
    /// [`Self::warm_boot`].
    pub fn memo_snapshot(&self) -> SweepSnapshot {
        SweepSnapshot {
            cursor: SweepCursor {
                delta: 0,
                num_labels: 0,
                engine: crate::snapshot::EngineKind::Scalar,
                ranges: Vec::new(),
            },
            outcome: SweepOutcome::default(),
            memo: self.export_memo(),
            origin: None,
        }
    }

    /// Atomically writes [`Self::memo_snapshot`] to `path` (temp file +
    /// rename, like every snapshot write but a sweep's later checkpoints).
    /// Returns the number of memo entries flushed.
    pub fn save_memo(&self, path: &Path) -> Result<usize, SnapshotError> {
        let snapshot = self.memo_snapshot();
        snapshot.save(path)?;
        Ok(snapshot.memo.len())
    }

    /// Loads a snapshot from `path` and merges its memo into the cache — the
    /// restart path of a long-lived engine. Any snapshot works (a daemon memo
    /// flush or a sweep checkpoint; only the memo is taken). Returns the
    /// number of entries imported.
    pub fn warm_boot(&self, path: &Path) -> Result<usize, SnapshotError> {
        let snapshot = SweepSnapshot::load(path)?;
        let count = snapshot.memo.len();
        self.import_memo(snapshot.memo);
        Ok(count)
    }

    /// Resumable, checkpointing sweep over a canonical-first problem stream:
    /// the backbone of the `rtlcl sweep` workload ("classify the entire
    /// (δ, Σ) universe"), one scalar decision per orbit.
    ///
    /// `state` is where the campaign stands — [`SweepSnapshot::fresh`] for a
    /// new sweep, or a loaded checkpoint to continue one. The snapshot's
    /// cursor is authoritative: `shard_of(range)` must yield the canonical
    /// orbit stream of the masks `range.next..range.hi`
    /// (`CanonicalFamily::orbits_in`) — exactly one representative per
    /// label-permutation orbit, each with its orbit size — and the stored
    /// ranges, not a new shard split, define the work, so a campaign can be
    /// resumed under any worker count and still commit the exact same chunks.
    /// Ranges are pulled by up to `available_parallelism` workers over
    /// `std::thread::scope`.
    ///
    /// Workers classify privately and fold finished chunks (every
    /// `min(64, orbit_limit)` orbits) into the shared state under one lock:
    /// histograms, new memo entries, and the range's watermark advance
    /// together, so every intermediate checkpoint is a consistent prefix of
    /// the sweep. With [`SweepCheckpoint::path`] set, the state is written
    /// every [`SweepCheckpoint::every_orbits`] processed orbits and once more
    /// at the end, each later write appending a segment with the new entries
    /// (see [`crate::snapshot`]). The first write appends too when `state`
    /// was loaded ([`SweepSnapshot::load`]) from that same path and neither
    /// the file nor `state.memo` has changed since, cutting off any torn
    /// tail first; otherwise it replaces the file atomically (temp file +
    /// rename). Either way a leg writes only its own entries and, at most
    /// once, the memo it started from. Killing the process at any instant
    /// loses at most the uncommitted tail, and
    /// `state = SweepSnapshot::load(path)?` continues to histograms identical
    /// to an uninterrupted run. [`SweepCheckpoint::default`] keeps the whole
    /// campaign in memory.
    ///
    /// Orbits whose canonical key is already in `state.memo` are answered
    /// from it without running the decision procedure (the warm-boot
    /// re-sweep path; they count as engine cache hits). The lookups borrow
    /// the memo; it is neither copied nor imported. Returns the final
    /// snapshot — `state.memo` followed by the entries this call classified,
    /// in commit order — and whether the cursor completed;
    /// [`SweepCheckpoint::orbit_limit`] stops early with a valid, resumable
    /// snapshot.
    ///
    /// Afterwards the engine cache is warm for the entries this call
    /// classified. Entries that arrived in `state.memo` belong to the
    /// caller: a caller that wants [`Self::classify`] to answer them as hits
    /// warms the engine with [`Self::import_memo`] (the daemon seeds its
    /// campaigns from [`Self::export_memo`], so its cache already holds
    /// them).
    pub fn sweep_resumable<I, F>(
        &self,
        state: SweepSnapshot,
        shard_of: F,
        ckpt: &SweepCheckpoint<'_>,
    ) -> Result<(SweepSnapshot, bool), SnapshotError>
    where
        I: Iterator<Item = OrbitProblem>,
        F: Fn(MaskRange) -> I + Sync,
    {
        // Commit granularity: small enough that an orbit limit stops promptly,
        // large enough that the shared lock stays cold.
        let chunk_cap = ckpt.orbit_limit.map_or(64, |limit| limit.clamp(1, 64));
        self.sweep_ranges(state, ckpt, |scratch: &mut ClassifyScratch, w, range| {
            let baseline = w.baseline;
            for item in shard_of(range) {
                let key = self.canonicalize.then(|| canonical_form(&item.problem));
                let complexity = match key.as_ref().and_then(|k| baseline.get(k)) {
                    Some(&hit) => {
                        w.hits += 1;
                        hit
                    }
                    None => {
                        let c = classify_complexity_with(&item.problem, scratch);
                        w.misses += 1;
                        if let Some(k) = key {
                            w.chunk_memo.push((k, c));
                        }
                        c
                    }
                };
                w.record(complexity, item.orbit_size);
                if w.orbits >= chunk_cap && w.commit(item.mask + 1) {
                    return true;
                }
            }
            false
        })
    }

    /// Bit-sliced sibling of [`Self::sweep_resumable`] (see there for the
    /// cursor/checkpoint/warm-boot contract): the canonical stream arrives as
    /// [`MaskBlock`]s of ≤ [`crate::bitslice::LANES`] configuration masks
    /// over one shared [`SlicedUniverse`], and every block runs
    /// [`crate::bitslice::classify_block_sliced`] — all lanes of one `u64`
    /// in lockstep — instead of that many scalar decisions. `_width` is
    /// always [`LaneWidth::W64`], the one lane width.
    ///
    /// `blocks_of(range)` must yield the blocks of `range.next..range.hi`
    /// (`CanonicalFamily::blocks_in` at 64 lanes); commits happen once per
    /// block, using its [`MaskBlock::next_mask`] watermark. Block formation
    /// depends only on the starting mask, so an interrupted-and-resumed
    /// campaign classifies the exact same block sequence as an uninterrupted
    /// one — lane statistics included. `problem_of(mask)` materializes one
    /// lane's problem — only called for the rare scalar-fallback lanes
    /// ([`LaneVerdict::NeedsPolyExponent`], the exact polynomial-exponent
    /// descent). `key_of(mask)` is the lane's canonical memo key, identical
    /// to [`canonical_form`] of the materialized problem (`CanonicalFamily`
    /// computes it mask-directly); it is only called when memoization is on.
    /// Blocks whose lanes are all covered by `state.memo` are answered from
    /// it without classification (such blocks add nothing to the lane
    /// statistics). Like there, the engine cache is warmed with only the
    /// entries this call classified.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_resumable_bitsliced<I, F, P, K>(
        &self,
        universe: &SlicedUniverse,
        _width: LaneWidth,
        state: SweepSnapshot,
        blocks_of: F,
        problem_of: P,
        key_of: K,
        ckpt: &SweepCheckpoint<'_>,
    ) -> Result<(SweepSnapshot, bool), SnapshotError>
    where
        I: Iterator<Item = MaskBlock>,
        F: Fn(MaskRange) -> I + Sync,
        P: Fn(u64) -> LclProblem + Sync,
        K: Fn(u64) -> CanonicalKey + Sync,
    {
        type Buffers = (
            ClassifyScratch,
            BitSliceScratch,
            Vec<LaneVerdict>,
            Vec<CanonicalKey>,
        );
        self.sweep_ranges(state, ckpt, |buffers: &mut Buffers, w, range| {
            let (scratch, sliced, verdicts, keys) = buffers;
            let baseline = w.baseline;
            for block in blocks_of(range) {
                debug_assert_eq!(block.masks.len(), block.orbit_sizes.len());
                keys.clear();
                if self.canonicalize {
                    keys.extend(block.masks.iter().map(|&m| key_of(m)));
                }
                let all_hit = !keys.is_empty()
                    && !baseline.is_empty()
                    && keys.iter().all(|k| baseline.contains_key(k));
                if all_hit {
                    for (key, &orbit_size) in keys.iter().zip(&block.orbit_sizes) {
                        w.hits += 1;
                        w.record(baseline[key], orbit_size);
                    }
                } else {
                    let stats = classify_block_sliced(universe, &block.masks, sliced, verdicts);
                    w.chunk.lanes.blocks += 1;
                    w.chunk.lanes.fixpoint_rounds += stats.fixpoint_rounds;
                    w.chunk.lanes.live_lane_rounds += stats.live_lane_rounds;
                    for (j, &mask) in block.masks.iter().enumerate() {
                        let computed = match verdicts[j] {
                            LaneVerdict::Decided(c) => c,
                            LaneVerdict::NeedsPolyExponent => {
                                w.chunk.lanes.scalar_fallbacks += 1;
                                let problem = problem_of(mask);
                                let sustaining = crate::solvability::solvable_labels(&problem);
                                Complexity::Polynomial {
                                    exponent: crate::scratch::poly_exponent_masked(
                                        &problem, sustaining, scratch,
                                    ),
                                }
                            }
                        };
                        let mut complexity = computed;
                        if self.canonicalize {
                            match baseline.get(&keys[j]) {
                                Some(&known) => {
                                    w.hits += 1;
                                    complexity = known;
                                }
                                None => {
                                    w.misses += 1;
                                    let key =
                                        std::mem::replace(&mut keys[j], CanonicalKey(Vec::new()));
                                    w.chunk_memo.push((key, computed));
                                }
                            }
                        } else {
                            w.misses += 1;
                        }
                        w.record(complexity, block.orbit_sizes[j]);
                    }
                }
                if w.commit(block.next_mask) {
                    return true;
                }
            }
            false
        })
    }

    /// The one driver behind both resumable sweeps. Up to
    /// `available_parallelism` workers, each with its own `S` buffers, claim
    /// the cursor's pending ranges in order and hand each to
    /// `sweep_range`, which classifies the range's stream into its
    /// [`SweepWorker`] and commits at its engine's granularity. It returns
    /// `true` when a commit raised the stop flag: the committed watermark
    /// stands and the rest of the range stays pending. Otherwise the driver
    /// commits the uncommitted tail with the range's end as the watermark,
    /// which also accounts the trailing non-canonical masks.
    ///
    /// The starting memo is taken out of `state` and looked up through an
    /// index that borrows it; the same pass fingerprints it when `state`
    /// was loaded from the checkpoint path, so the first checkpoint can
    /// append. It goes back in front of the new entries at the end.
    fn sweep_ranges<S, R>(
        &self,
        mut state: SweepSnapshot,
        ckpt: &SweepCheckpoint<'_>,
        sweep_range: R,
    ) -> Result<(SweepSnapshot, bool), SnapshotError>
    where
        S: Default,
        R: Fn(&mut S, &mut SweepWorker<'_, '_>, MaskRange) -> bool + Sync,
    {
        let mut memo = std::mem::take(&mut state.memo);
        let origin = state
            .origin
            .take()
            .filter(|origin| ckpt.path == Some(origin.path()));
        let mut fingerprint = origin.as_ref().map(|_| MemoFingerprint::default());
        let mut baseline = BaselineIndex::default();
        if self.canonicalize {
            baseline.reserve(memo.len());
        }
        for (key, complexity) in &memo {
            if let Some(fingerprint) = &mut fingerprint {
                fingerprint.push(key, *complexity);
            }
            if self.canonicalize {
                baseline.insert(key, *complexity);
            }
        }
        let origin = origin.filter(|origin| {
            fingerprint.is_some_and(|fingerprint| origin.holds(memo.len(), fingerprint))
        });
        let (shared, ranges) = ResumeShared::start(state, &memo, origin);
        let pending = ranges.iter().filter(|r| !r.is_done()).count();
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(pending.max(1));
        if pending > 0 {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let mut buffers = S::default();
                        let mut worker = SweepWorker {
                            shared: &shared,
                            ckpt,
                            baseline: &baseline,
                            range: 0,
                            chunk: SweepOutcome::default(),
                            chunk_memo: Vec::new(),
                            orbits: 0,
                            hits: 0,
                            misses: 0,
                        };
                        while !shared.stop.load(Ordering::Relaxed) {
                            let ri = shared.next_range.fetch_add(1, Ordering::Relaxed);
                            if ri >= ranges.len() {
                                break;
                            }
                            let range = ranges[ri];
                            if range.is_done() {
                                continue;
                            }
                            worker.range = ri;
                            if sweep_range(&mut buffers, &mut worker, range) {
                                break;
                            }
                            worker.commit(range.hi);
                        }
                        self.hits.fetch_add(worker.hits, Ordering::Relaxed);
                        self.misses.fetch_add(worker.misses, Ordering::Relaxed);
                    });
                }
            });
        }
        drop(baseline);
        let (mut snapshot, completed) = self.finish_resumable(shared, ckpt)?;
        memo.append(&mut snapshot.memo);
        snapshot.memo = memo;
        Ok((snapshot, completed))
    }

    /// Drains the shared state of a resumable sweep: surfaces deferred write
    /// errors, writes the final checkpoint, and warms the engine cache with
    /// the entries this call classified. Returns the final snapshot with
    /// only those entries as its memo, and whether the cursor completed.
    fn finish_resumable(
        &self,
        shared: ResumeShared<'_>,
        ckpt: &SweepCheckpoint<'_>,
    ) -> Result<(SweepSnapshot, bool), SnapshotError> {
        let mut committed = shared
            .committed
            .into_inner()
            .expect("resumable sweep state poisoned");
        if let Some(e) = committed.write_error.take() {
            return Err(SnapshotError::Io(e));
        }
        if let Some(path) = ckpt.path {
            committed.checkpoint(path)?;
        }
        if self.canonicalize {
            self.cache.extend(committed.new_memo.iter().cloned());
        }
        let completed = committed.cursor.is_complete();
        Ok((
            SweepSnapshot {
                cursor: committed.cursor,
                outcome: committed.outcome,
                memo: committed.new_memo,
                origin: None,
            },
            completed,
        ))
    }
}

/// Checkpoint policy of a resumable sweep ([`ClassificationEngine::sweep_resumable`],
/// [`ClassificationEngine::sweep_resumable_bitsliced`]).
///
/// A resumed campaign ends with the histograms, lane statistics and memo
/// entries of an uninterrupted one, but the file's bytes repeat only for a
/// cursor with one range: the memo entries are written in commit order, and
/// workers on several ranges commit in an order that varies between runs.
#[derive(Debug, Clone, Copy)]
pub struct SweepCheckpoint<'a> {
    /// Snapshot file. The sweep's first write appends to it when the
    /// starting snapshot was loaded from this path and neither the file nor
    /// the memo changed since; otherwise it replaces the file atomically
    /// (temp file + rename). The later writes, during the sweep and at the
    /// end, append to it. `None` keeps the campaign in memory only.
    pub path: Option<&'a Path>,
    /// Processed orbits between two checkpoint writes (clamped to ≥ 1).
    pub every_orbits: u64,
    /// Stop pulling work after this many processed orbits, leaving a valid,
    /// resumable snapshot — the hook behind bounded-budget campaigns and the
    /// resume-equivalence tests. Workers stop at the next commit boundary, so
    /// slightly more orbits than the limit may be processed.
    pub orbit_limit: Option<u64>,
}

impl Default for SweepCheckpoint<'_> {
    fn default() -> Self {
        SweepCheckpoint {
            path: None,
            every_orbits: 4096,
            orbit_limit: None,
        }
    }
}

impl ResumeCommitted<'_> {
    /// Writes the committed state to `path`. The call's first write either
    /// appends one segment with everything committed so far to the file the
    /// starting snapshot was loaded from (`origin`, already checked against
    /// the path and the memo; the writer checks the file and cuts off any
    /// torn tail), or replaces the file with one segment holding the
    /// baseline and everything committed so far (temp file + rename, which
    /// also drops any torn tail). Each later write appends one segment with
    /// only the entries committed since the previous write. Either way the
    /// file holds the memo in the order of the returned snapshot (baseline,
    /// then new entries in commit order).
    fn checkpoint(&mut self, path: &Path) -> std::io::Result<()> {
        if self.writer.is_none() {
            self.writer = self
                .origin
                .take()
                .and_then(|origin| SnapshotWriter::reopen(&origin, &self.cursor));
        }
        let new = &self.new_memo[self.logged..];
        match &mut self.writer {
            Some(writer) => writer.append(new, &self.cursor, &self.outcome)?,
            None => {
                let entries = self.baseline.iter().chain(new);
                self.writer = Some(SnapshotWriter::create(
                    path,
                    entries,
                    &self.cursor,
                    &self.outcome,
                )?);
            }
        }
        self.logged = self.new_memo.len();
        Ok(())
    }
}

/// Shared state of one resumable sweep call.
struct ResumeShared<'a> {
    committed: Mutex<ResumeCommitted<'a>>,
    stop: AtomicBool,
    next_range: AtomicUsize,
}

/// Everything committed so far, guarded by one lock so histograms, memo, and
/// watermarks only ever advance together (each checkpoint is a consistent
/// prefix of the sweep).
struct ResumeCommitted<'a> {
    cursor: SweepCursor,
    outcome: SweepOutcome,
    /// Memo the starting snapshot carried; immutable during the sweep
    /// (lookups go through an index built before the workers start).
    baseline: &'a [(CanonicalKey, Complexity)],
    /// Entries classified by this call, in commit order.
    new_memo: Vec<(CanonicalKey, Complexity)>,
    /// The file the starting snapshot was loaded from, while the first
    /// checkpoint may still append to it.
    origin: Option<SnapshotOrigin>,
    /// Checkpoint file writer, opened by the first write and appended to by
    /// every later one.
    writer: Option<SnapshotWriter>,
    /// Entries of `new_memo` already written to `writer`.
    logged: usize,
    /// Orbits processed by this call (classified or answered from the memo).
    processed: u64,
    /// Orbits processed since the last checkpoint write.
    since_write: u64,
    /// First checkpoint-write failure; stops the sweep and is surfaced at the
    /// end (the in-memory result is still consistent).
    write_error: Option<std::io::Error>,
}

impl<'a> ResumeShared<'a> {
    fn start(
        state: SweepSnapshot,
        baseline: &'a [(CanonicalKey, Complexity)],
        origin: Option<SnapshotOrigin>,
    ) -> (Self, Vec<MaskRange>) {
        let ranges = state.cursor.ranges.clone();
        (
            ResumeShared {
                committed: Mutex::new(ResumeCommitted {
                    cursor: state.cursor,
                    outcome: state.outcome,
                    baseline,
                    new_memo: Vec::new(),
                    origin,
                    writer: None,
                    logged: 0,
                    processed: 0,
                    since_write: 0,
                    write_error: None,
                }),
                stop: AtomicBool::new(false),
                next_range: AtomicUsize::new(0),
            },
            ranges,
        )
    }

    /// Folds one finished chunk into the shared state under the lock:
    /// histograms, memo entries, and the range's watermark advance together;
    /// then applies the orbit-limit stop and the periodic checkpoint write.
    fn commit(
        &self,
        ckpt: &SweepCheckpoint<'_>,
        range: usize,
        watermark: u64,
        chunk: &SweepOutcome,
        chunk_memo: &mut Vec<(CanonicalKey, Complexity)>,
        orbits: u64,
    ) {
        let mut c = self
            .committed
            .lock()
            .expect("resumable sweep state poisoned");
        c.outcome.merge(chunk);
        c.new_memo.append(chunk_memo);
        let slot = &mut c.cursor.ranges[range];
        if watermark > slot.next {
            slot.next = watermark;
        }
        c.processed += orbits;
        c.since_write += orbits;
        if ckpt.orbit_limit.is_some_and(|limit| c.processed >= limit) {
            self.stop.store(true, Ordering::Relaxed);
        }
        if let Some(path) = ckpt.path {
            if c.write_error.is_none() && c.since_write >= ckpt.every_orbits.max(1) {
                c.since_write = 0;
                if let Err(e) = c.checkpoint(path) {
                    c.write_error = Some(e);
                    self.stop.store(true, Ordering::Relaxed);
                }
            }
        }
    }
}

/// One worker of the sweep driver: the chunk it is filling for the range it
/// holds, and its memo hit and miss counts.
struct SweepWorker<'a, 'm> {
    shared: &'a ResumeShared<'m>,
    ckpt: &'a SweepCheckpoint<'a>,
    /// The starting snapshot's memo, keyed for lookups.
    baseline: &'a BaselineIndex<'m>,
    /// Index of the held range in the cursor.
    range: usize,
    /// Histograms and lane statistics since the last commit.
    chunk: SweepOutcome,
    /// Memo entries classified since the last commit.
    chunk_memo: Vec<(CanonicalKey, Complexity)>,
    /// Orbits recorded since the last commit.
    orbits: u64,
    hits: usize,
    misses: usize,
}

impl SweepWorker<'_, '_> {
    /// Counts one orbit of the given class into the chunk.
    fn record(&mut self, complexity: Complexity, orbit_size: u64) {
        self.chunk.orbits.add(complexity, 1);
        self.chunk.problems.add(complexity, orbit_size);
        self.orbits += 1;
    }

    /// Commits the chunk with the held range's watermark at `watermark` and
    /// starts a new chunk. Returns `true` when the sweep must stop.
    fn commit(&mut self, watermark: u64) -> bool {
        self.shared.commit(
            self.ckpt,
            self.range,
            watermark,
            &self.chunk,
            &mut self.chunk_memo,
            self.orbits,
        );
        self.chunk = SweepOutcome::default();
        self.orbits = 0;
        self.shared.stop.load(Ordering::Relaxed)
    }
}

/// One unit of a bit-sliced sweep: up to [`crate::bitslice::LANES`]
/// canonical configuration masks over one shared [`SlicedUniverse`], with
/// the orbit size of each mask's representative (parallel arrays, one lane
/// per mask).
#[derive(Debug, Clone, Default)]
pub struct MaskBlock {
    /// The configuration masks, one lane each.
    pub masks: Vec<u64>,
    /// `orbit_sizes[j]` is the label-permutation orbit size of `masks[j]`.
    pub orbit_sizes: Vec<u64>,
    /// Resume watermark once this block is committed: the first mask of the
    /// enumeration *after* this block (resuming from it reproduces the
    /// remaining block sequence exactly).
    pub next_mask: u64,
}

/// One item of a canonical-first sweep: a representative problem together with
/// the size of its label-permutation orbit (how many members of the full
/// universe it stands for).
#[derive(Debug, Clone)]
pub struct OrbitProblem {
    /// The representative's configuration mask in its family's enumeration —
    /// the resume watermark is `mask + 1` once the orbit is committed.
    pub mask: u64,
    /// The orbit's representative.
    pub problem: LclProblem,
    /// Number of distinct problems in the orbit.
    pub orbit_size: u64,
}

/// Number of per-exponent buckets kept for `Polynomial` verdicts: exponents
/// `1..POLY_EXPONENT_BUCKETS` get their own bucket, everything at or above
/// the last index is pooled into the final `poly_{POLY_EXPONENT_BUCKETS}+`
/// bucket (a depth-8 chain needs at least 8 labels, beyond every family the
/// sweeps enumerate).
pub const POLY_EXPONENT_BUCKETS: usize = 8;

/// Display names of the per-exponent buckets, aligned with
/// [`ComplexityHistogram::poly_k`].
const POLY_BUCKET_NAMES: [&str; POLY_EXPONENT_BUCKETS] = [
    "poly_1", "poly_2", "poly_3", "poly_4", "poly_5", "poly_6", "poly_7", "poly_8+",
];

/// Counts per complexity class (the four classes of the paper plus
/// unsolvable). `Polynomial` verdicts are counted both in the pooled
/// `polynomial` total (matching [`Complexity::short_name`]) and in the
/// per-exponent `poly_k` buckets for their exact Θ(n^{1/k}) exponent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComplexityHistogram {
    /// O(1) problems.
    pub constant: u64,
    /// Θ(log* n) problems.
    pub log_star: u64,
    /// Θ(log n) problems.
    pub log: u64,
    /// Θ(n^{1/k}) problems, pooled over every exponent.
    pub polynomial: u64,
    /// Θ(n^{1/k}) problems by exact exponent: index `k − 1`, with every
    /// exponent ≥ [`POLY_EXPONENT_BUCKETS`] pooled into the last bucket.
    pub poly_k: [u64; POLY_EXPONENT_BUCKETS],
    /// Unsolvable problems.
    pub unsolvable: u64,
}

impl ComplexityHistogram {
    /// Adds `weight` problems of the given class.
    pub fn add(&mut self, complexity: Complexity, weight: u64) {
        match complexity {
            Complexity::Constant => self.constant += weight,
            Complexity::LogStar => self.log_star += weight,
            Complexity::Log => self.log += weight,
            Complexity::Polynomial { exponent } => {
                self.polynomial += weight;
                self.poly_k[exponent.clamp(1, POLY_EXPONENT_BUCKETS) - 1] += weight;
            }
            Complexity::Unsolvable => self.unsolvable += weight,
        }
    }

    /// Adds every count of `other`.
    pub fn merge(&mut self, other: &ComplexityHistogram) {
        self.constant += other.constant;
        self.log_star += other.log_star;
        self.log += other.log;
        self.polynomial += other.polynomial;
        for (mine, theirs) in self.poly_k.iter_mut().zip(other.poly_k.iter()) {
            *mine += theirs;
        }
        self.unsolvable += other.unsolvable;
    }

    /// Total count over all classes.
    pub fn total(&self) -> u64 {
        self.constant + self.log_star + self.log + self.polynomial + self.unsolvable
    }

    /// The counts keyed by [`Complexity::short_name`], in complexity order.
    /// Per-exponent polynomial counts are in [`Self::poly_exponent_entries`].
    pub fn entries(&self) -> [(&'static str, u64); 5] {
        [
            ("O(1)", self.constant),
            ("log*", self.log_star),
            ("log", self.log),
            ("poly", self.polynomial),
            ("unsolvable", self.unsolvable),
        ]
    }

    /// The per-exponent polynomial buckets, `poly_1` (Θ(n)) through
    /// `poly_8+`, in exponent order. Their sum equals `polynomial`.
    pub fn poly_exponent_entries(&self) -> [(&'static str, u64); POLY_EXPONENT_BUCKETS] {
        let mut out = [("", 0u64); POLY_EXPONENT_BUCKETS];
        for (slot, (name, &count)) in out
            .iter_mut()
            .zip(POLY_BUCKET_NAMES.iter().zip(self.poly_k.iter()))
        {
            *slot = (name, count);
        }
        out
    }
}

/// Lane-utilization statistics of a bit-sliced sweep
/// ([`ClassificationEngine::sweep_resumable_bitsliced`]); all-zero for scalar
/// sweeps. Watched so lane-packing regressions (sparser blocks, more scalar
/// fallbacks) show up in `rtlcl sweep` output instead of only in wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepLaneStats {
    /// Number of blocks classified (each ≤ 64 lanes).
    pub blocks: u64,
    /// Total fixed-point rounds (trim + pruning) across all blocks.
    pub fixpoint_rounds: u64,
    /// Sum over those rounds of the live lanes entering each round.
    pub live_lane_rounds: u64,
    /// Lanes that fell back to the scalar polynomial-exponent descent.
    pub scalar_fallbacks: u64,
}

impl SweepLaneStats {
    /// Average number of live lanes per fixed-point round (0.0 when no
    /// rounds ran — e.g. a scalar sweep).
    pub fn avg_live_lanes(&self) -> f64 {
        if self.fixpoint_rounds == 0 {
            0.0
        } else {
            self.live_lane_rounds as f64 / self.fixpoint_rounds as f64
        }
    }

    /// Adds every count of `other`.
    pub fn merge(&mut self, other: &SweepLaneStats) {
        self.blocks += other.blocks;
        self.fixpoint_rounds += other.fixpoint_rounds;
        self.live_lane_rounds += other.live_lane_rounds;
        self.scalar_fallbacks += other.scalar_fallbacks;
    }
}

/// The outcome of a sweep ([`ClassificationEngine::sweep_resumable`]):
/// per-class counts of the canonical representatives (`orbits`) and of the
/// full universe they stand for (`problems`, each orbit weighted by its
/// size).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepOutcome {
    /// One count per canonical representative (= per label-permutation orbit).
    pub orbits: ComplexityHistogram,
    /// Counts over the whole universe: each orbit contributes its size.
    pub problems: ComplexityHistogram,
    /// Lane utilization (zero unless the sweep ran bit-sliced).
    pub lanes: SweepLaneStats,
}

impl SweepOutcome {
    /// Merges another outcome (shard results are disjoint, so addition).
    pub fn merge(&mut self, other: &SweepOutcome) {
        self.orbits.merge(&other.orbits);
        self.problems.merge(&other.problems);
        self.lanes.merge(&other.lanes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify;

    fn problem(text: &str) -> LclProblem {
        text.parse().unwrap()
    }

    #[test]
    fn canonical_form_is_renaming_invariant() {
        let a = problem("1:22\n2:11\n");
        let b = problem("x:yy\ny:xx\n");
        assert_eq!(canonical_form(&a), canonical_form(&b));
        let c = problem("1:12\n2:11\n");
        assert_ne!(canonical_form(&a), canonical_form(&c));
    }

    #[test]
    fn canonical_form_ignores_orphan_labels() {
        let a = problem("1:11\n");
        let b = problem("1:11\nlabels: z w\n");
        assert_eq!(canonical_form(&a), canonical_form(&b));
        // Complexity really is the same, so sharing a key is sound.
        assert_eq!(classify(&a).complexity, classify(&b).complexity);
    }

    #[test]
    fn canonical_form_distinguishes_delta() {
        let a = problem("1:1\n");
        let b = problem("1:11\n");
        assert_ne!(canonical_form(&a), canonical_form(&b));
    }

    #[test]
    fn canonical_form_handles_nontrivial_permutations() {
        // MIS with two different namings and different textual orders.
        let a = problem("1:aa\n1:ab\n1:bb\na:bb\nb:b1\nb:11\n");
        let b = problem("y:y2\ny:22\nx:yy\n2:xx\n2:xy\n2:yy\n");
        assert_eq!(canonical_form(&a), canonical_form(&b));
    }

    #[test]
    fn engine_memoizes_renamed_problems() {
        let engine = ClassificationEngine::new();
        assert_eq!(
            engine.classify(&problem("1:22\n2:11\n")),
            Complexity::Polynomial { exponent: 1 }
        );
        assert_eq!(
            engine.classify(&problem("a:bb\nb:aa\n")),
            Complexity::Polynomial { exponent: 1 }
        );
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.total(), 2);
    }

    #[test]
    fn engine_without_memoization_reclassifies() {
        let mut engine = ClassificationEngine::new();
        engine.set_memoization(false);
        let p = problem("1:22\n2:11\n");
        engine.classify(&p);
        engine.classify(&p);
        assert_eq!(engine.stats().cache_hits, 0);
        assert_eq!(engine.stats().cache_misses, 2);
    }

    #[test]
    fn batch_matches_sequential_classify() {
        let texts = [
            "1:22\n2:11\n",
            "1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n",
            "1:aa\n1:ab\n1:bb\na:bb\nb:b1\nb:11\n",
            "1 : 1 2\n2 : 1 1\n",
            "a : b b\nb : c c\n",
            "x : x x\n",
        ];
        let problems: Vec<LclProblem> = texts.iter().map(|t| problem(t)).collect();
        let expected: Vec<Complexity> = problems.iter().map(|p| classify(p).complexity).collect();
        let engine = ClassificationEngine::new();
        assert_eq!(engine.classify_batch_sequential(&problems), expected);
        let engine = ClassificationEngine::new();
        assert_eq!(engine.classify_batch(&problems), expected);
    }

    #[test]
    fn classify_full_populates_the_cache() {
        let engine = ClassificationEngine::new();
        let p = problem("1:aa\n1:ab\n1:bb\na:bb\nb:b1\nb:11\n");
        let report = engine.classify_full(&p);
        assert_eq!(report.complexity, Complexity::Constant);
        assert_eq!(engine.classify(&p), Complexity::Constant);
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn empty_batch() {
        let engine = ClassificationEngine::new();
        assert!(engine.classify_batch(&[]).is_empty());
    }

    #[test]
    fn memo_snapshot_round_trips_through_warm_boot() {
        let dir = std::env::temp_dir().join(format!("rtlcl-memo-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("memo.rtlcl");

        let engine = ClassificationEngine::new();
        engine.classify(&problem("1:22\n2:11\n"));
        engine.classify(&problem("1:aa\n1:ab\n1:bb\na:bb\nb:b1\nb:11\n"));
        assert_eq!(engine.save_memo(&path).unwrap(), 2);

        // The memo-only snapshot has a complete, empty cursor: `snapshot info`
        // and `load` treat it like any finished campaign.
        let snap = engine.memo_snapshot();
        assert!(snap.cursor.is_complete());
        assert_eq!(snap.cursor.remaining_masks(), 0);
        assert_eq!(snap.memo.len(), 2);

        // A fresh engine warm-boots from it and answers renamed copies from
        // the cache without reclassifying.
        let fresh = ClassificationEngine::new();
        assert_eq!(fresh.warm_boot(&path).unwrap(), 2);
        assert_eq!(fresh.memo_len(), 2);
        assert_eq!(
            fresh.classify(&problem("a:bb\nb:aa\n")),
            Complexity::Polynomial { exponent: 1 }
        );
        assert_eq!(fresh.stats().cache_hits, 1);
        assert_eq!(fresh.stats().cache_misses, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_baseline_seeded_sweep_warms_the_engine_with_only_its_new_entries() {
        let texts = [
            "1:22\n2:11\n",
            "1:aa\n1:ab\n1:bb\na:bb\nb:b1\nb:11\n",
            "x : x x\n",
        ];
        let problems: Vec<LclProblem> = texts.iter().map(|t| problem(t)).collect();
        let orbits_in = |range: MaskRange| {
            (range.next..range.hi).map(|mask| OrbitProblem {
                mask,
                problem: problems[mask as usize].clone(),
                orbit_size: 1,
            })
        };
        // The first problem's verdict arrives in the starting memo.
        let baseline = (
            canonical_form(&problems[0]),
            classify(&problems[0]).complexity,
        );
        let mut state = SweepSnapshot::fresh(
            2,
            3,
            crate::snapshot::EngineKind::Scalar,
            vec![MaskRange { next: 0, hi: 3 }],
        );
        state.memo = vec![baseline.clone()];

        let engine = ClassificationEngine::new();
        let (snap, completed) = engine
            .sweep_resumable(state, orbits_in, &SweepCheckpoint::default())
            .unwrap();
        assert!(completed);
        assert_eq!(snap.memo.len(), 3);
        assert_eq!(snap.memo[0], baseline);
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(engine.stats().cache_misses, 2);
        // Only the two entries the sweep classified warm the cache.
        assert_eq!(engine.memo_len(), 2);
        assert!(snap.memo[1..]
            .iter()
            .all(|(key, c)| engine.cache.get(key) == Some(*c)));
        assert_eq!(engine.cache.get(&baseline.0), None);
    }

    #[test]
    fn histogram_pools_large_poly_exponents_into_the_last_bucket() {
        // Exponents at or above POLY_EXPONENT_BUCKETS are clamped into the
        // final bucket, which therefore reads "poly_8+" — not "poly_8".
        let mut h = ComplexityHistogram::default();
        h.add(Complexity::Polynomial { exponent: 1 }, 2);
        h.add(Complexity::Polynomial { exponent: 8 }, 3);
        h.add(Complexity::Polynomial { exponent: 9 }, 5);
        h.add(Complexity::Polynomial { exponent: 100 }, 7);
        assert_eq!(h.polynomial, 17);
        assert_eq!(h.poly_k[0], 2);
        assert_eq!(h.poly_k[POLY_EXPONENT_BUCKETS - 1], 15);
        assert_eq!(h.poly_k[1..POLY_EXPONENT_BUCKETS - 1], [0; 6]);
        let entries = h.poly_exponent_entries();
        assert_eq!(entries[0], ("poly_1", 2));
        assert_eq!(entries[POLY_EXPONENT_BUCKETS - 1], ("poly_8+", 15));
        assert_eq!(h.poly_k.iter().sum::<u64>(), h.polynomial);
    }
}
