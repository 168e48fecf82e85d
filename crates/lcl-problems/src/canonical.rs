//! Canonical-first enumeration of complete (δ, Σ) problem families: exactly one
//! representative per label-permutation orbit, generated *before* any problem
//! is built or classified.
//!
//! [`crate::random::enumerate_problems`] walks the full universe — one problem
//! per subset of the configuration universe, `2^u` of them — and leaves
//! deduplication to the classification engine's canonical-form memo, which
//! still pays one `LclProblem` construction and one `canonical_form` per
//! member. The [`CanonicalFamily`] here works at the level of packed
//! configuration **masks** instead: a label permutation π induces a permutation
//! of universe indices, so the orbit of a problem is the orbit of its `u64`
//! mask under at most `|Σ|! − 1` precomputed index permutations. A mask is the
//! orbit's *canonical representative* iff it is the numeric minimum of its
//! orbit (the standard orderly-generation / lex-min canonicity test), which
//! costs a few word operations per permutation with early exit — so the whole
//! non-canonical bulk of the universe (up to a `|Σ|!` fraction) is discarded
//! without ever constructing a problem, let alone classifying one.
//!
//! Orbit sizes come for free from the orbit–stabilizer theorem: `|orbit| =
//! |Σ|! / #{π : π(M) = M}`. They let a sweep reconstruct exact whole-universe
//! histograms from the representatives alone, which the differential tests
//! (`tests/canonical_sweep.rs`) pin against brute-force
//! `canonical_form`-dedup of [`crate::random::enumerate_problems`].
//!
//! **Permutation-image tables.** Canonicity, orbit sizes and the canonical
//! key all need the image of one mask under every permutation. Since a
//! permutation maps each configuration to one configuration, the image of a
//! mask is the OR of the images of its parts, so [`CanonicalFamily::new`]
//! tabulates the parts: the mask is cut into w-bit *chunks*, and for every
//! permutation, chunk position and non-zero chunk value the tables hold the
//! image, once as a mask (non-identity permutations) and once in packed-row
//! rank order (every permutation, for the key; see
//! [`CanonicalFamily::canonical_key_of`]). A mask's image is then one lookup
//! per non-zero chunk, with the chunk entries computed once per mask and
//! shared by all permutations. The width is not an option: it is the widest,
//! up to 8 bits, whose tables fit a fixed budget of 512 KiB — 8 bits and
//! about 0.5 MB for (δ=2, 4 labels), 5 bits for (1, 5), single bits for the
//! 720- and 5,040-permutation (1, 6) and (1, 7), where a lookup per set bit
//! is all the budget allows ((1, 7) takes 3.9 MB even so). Each entry costs
//! one OR to build: the entry of a value is the entry of its highest bit
//! alone OR the entry of the value without that bit, built before it.
//!
//! The sweep's canonical filter takes 64-mask windows at once
//! ([`CanonicalFamily::blocks_in`]): a lane that survives has met
//! every permutation, so the filter counts its stabilizer on the way and the
//! blocks it feeds carry orbit sizes at no extra lookup.
//!
//! Sharding for the parallel sweep driver
//! (`lcl_core::engine::ClassificationEngine::sweep_resumable`) partitions the
//! mask space into contiguous ranges ([`CanonicalFamily::ranges`]); the
//! canonicity filter runs inside each range, so no pass over the universe is
//! needed up front. [`CanonicalFamily::sweep`] wires the family's streams,
//! problems and keys into the driver, and [`CanonicalFamily::try_new`]
//! checks the bounds a family and its sweep snapshot need before building
//! anything, so every front-end admits the same families.

use std::ops::BitOr;

use lcl_core::bitslice::{LaneWidth, SlicedUniverse};
use lcl_core::engine::{
    canonical_form, CanonicalKey, ClassificationEngine, MaskBlock, OrbitProblem, SweepCheckpoint,
};
use lcl_core::snapshot::{EngineKind, MaskRange, SnapshotError, SweepSnapshot};
use lcl_core::LclProblem;

use crate::random::{configuration_universe, problem_from_universe};

/// Number of labels up to which all `|Σ|!` permutations are enumerated. The
/// configuration-mask limit of 63 keeps realistic families far below this
/// (δ = 2 caps at 4 labels, δ = 1 at 7), but the bound makes the permutation
/// table construction's cost explicit.
pub const MAX_CANONICAL_ENUM_LABELS: usize = 8;

/// Bytes the permutation-image tables of one family may take. The chunk
/// width is the widest, up to [`MAX_CHUNK_BITS`], whose tables fit; a family
/// whose tables do not fit even at one bit — only (1, 7), at 3.9 MB — takes
/// one-bit chunks.
const TABLE_BUDGET_BYTES: usize = 512 << 10;

/// Widest mask chunk the image tables index: a byte, 255 entries per chunk
/// position.
const MAX_CHUNK_BITS: usize = 8;

/// A complete (δ, Σ) problem family viewed through its label-permutation
/// orbits. See the module documentation.
#[derive(Debug, Clone)]
pub struct CanonicalFamily {
    delta: usize,
    num_labels: usize,
    universe: Vec<(usize, Vec<usize>)>,
    /// Bits per mask chunk (w), derived from the family against
    /// [`TABLE_BUDGET_BYTES`].
    chunk_bits: u32,
    /// Entries per table row: ⌈u / w⌉ chunk positions times 2^w − 1 non-zero
    /// chunk values. Chunk value `v` at position `c` is entry
    /// `c · (2^w − 1) + v − 1` (see [`chunk_entries`]).
    row_len: usize,
    /// One row per non-identity label permutation: each entry is the image
    /// of its chunk value as a configuration mask.
    mask_images: Vec<u64>,
    /// One row per label permutation, identity first: each entry is the
    /// image of its chunk value in packed-row rank order, every
    /// configuration as the bit `1 << (63 − rank)` of its packed row in the
    /// ascending packed order (see [`Self::canonical_key_of`]). Empty when
    /// δ + 1 > 8 slots (rows don't fit a `u128`).
    ord_images: Vec<u64>,
    /// One row: each entry is the set of labels its chunk value's
    /// configurations mention (bit per label).
    chunk_labels: Vec<u16>,
    /// Per packed-row rank, the δ + 1 key words of that row — parent, then
    /// children ascending, as `canonical_form` spells rows. Empty iff
    /// `ord_images` is.
    rank_words: Vec<u16>,
    /// The table entries of every window offset `j < 64` (see
    /// [`Self::window`]), computed once: offset `j`'s are
    /// `lane_entries[lane_starts[j]..lane_starts[j + 1]]`, one per non-zero
    /// chunk of `j` (up to six at one-bit chunks).
    lane_entries: Vec<u16>,
    lane_starts: [u16; 65],
}

/// One 64-mask window of the canonical filter (see
/// [`CanonicalFamily::window`]).
struct Window {
    /// Bit `j` set iff `base + j` is canonical.
    survivors: u64,
    /// For surviving lanes, the non-identity permutations fixing the mask.
    fixed: [u16; 64],
}

/// The table entries of one mask's non-zero chunks, computed once and looked
/// up under every permutation.
struct ChunkEntries {
    at: [u16; 64],
    len: usize,
}

impl ChunkEntries {
    fn as_slice(&self) -> &[u16] {
        &self.at[..self.len]
    }

    /// The mask's image under the permutation whose table row is `row`.
    fn image(&self, row: &[u64]) -> u64 {
        self.as_slice()
            .iter()
            .fold(0, |image, &e| image | row[e as usize])
    }
}

/// The number of configurations of the (δ, `num_labels`) family, once every
/// bound a [`CanonicalFamily`] and its sweep snapshot need holds: positive δ
/// and |Σ|, |Σ| ≤ [`MAX_CANONICAL_ENUM_LABELS`], at most 63 configurations
/// (a mask is a `u64`) and δ within the snapshot cursor's `u16`. The count,
/// `|Σ| · C(δ + |Σ| − 1, δ)`, saturates: a huge δ fails without building
/// anything.
///
/// # Errors
///
/// The first bound the family breaks.
pub fn family_universe_len(delta: usize, num_labels: usize) -> Result<usize, String> {
    if delta == 0 || num_labels == 0 {
        return Err("a family needs positive δ and label count".into());
    }
    if num_labels > MAX_CANONICAL_ENUM_LABELS {
        return Err(format!(
            "{num_labels} labels exceeds the canonical enumeration limit of \
             {MAX_CANONICAL_ENUM_LABELS}"
        ));
    }
    // Multisets of size δ over |Σ| symbols, built as the product of
    // (δ + i) / i for i < |Σ|: every prefix is a binomial, so each division
    // is exact until the product saturates.
    let mut multisets: u128 = 1;
    for i in 1..num_labels as u128 {
        multisets = multisets.saturating_mul(delta as u128 + i) / i;
        if multisets > u64::MAX as u128 {
            multisets = u128::MAX;
            break;
        }
    }
    let universe = multisets.saturating_mul(num_labels as u128);
    if universe > 63 {
        return Err(format!(
            "the (δ={delta}, {num_labels} labels) universe has {universe} possible \
             configurations; at most 63 fit an exhaustive sweep"
        ));
    }
    if delta > u16::MAX as usize {
        return Err(format!(
            "δ = {delta} exceeds the sweep snapshot's limit of {}",
            u16::MAX
        ));
    }
    Ok(universe as usize)
}

impl CanonicalFamily {
    /// Builds the orbit view of the (δ, `num_labels`) family.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::try_new`] rejects the family.
    pub fn new(delta: usize, num_labels: usize) -> Self {
        Self::try_new(delta, num_labels).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the orbit view of the (δ, `num_labels`) family, or names the
    /// first bound of [`family_universe_len`] it breaks.
    pub fn try_new(delta: usize, num_labels: usize) -> Result<Self, String> {
        let u = family_universe_len(delta, num_labels)?;
        let universe = configuration_universe(delta, num_labels);
        debug_assert_eq!(universe.len(), u);
        let perms = index_permutations(&universe, num_labels);
        // Rows pack into a u128 (δ + 1 ≤ 8 slots): the key has a fast path.
        let packs = delta < 8;
        let rows = perms.len() + if packs { perms.len() + 1 } else { 0 };
        let chunk_bits = chunk_bits(u, rows);
        let row_len = u.div_ceil(chunk_bits as usize) * ((1 << chunk_bits) - 1);

        let mut mask_images = Vec::with_capacity(perms.len() * row_len);
        for perm in &perms {
            push_row(&mut mask_images, u, chunk_bits, |i| 1u64 << perm[i]);
        }
        let mut chunk_labels = Vec::with_capacity(row_len);
        push_row(&mut chunk_labels, u, chunk_bits, |i| {
            let (parent, children) = &universe[i];
            children
                .iter()
                .fold(1u16 << parent, |bits, &c| bits | 1 << c)
        });

        let (mut ord_images, mut rank_words) = (Vec::new(), Vec::new());
        if packs {
            // Identity packed rows (universe children are already
            // non-decreasing) and their ascending rank order.
            let packed: Vec<u128> = universe
                .iter()
                .map(|(parent, children)| {
                    children
                        .iter()
                        .fold(*parent as u128, |packed, &c| (packed << 16) | c as u128)
                })
                .collect();
            let mut order: Vec<usize> = (0..u).collect();
            order.sort_unstable_by_key(|&i| packed[i]);
            let mut ord_bit = vec![0u64; u];
            for (rank, &i) in order.iter().enumerate() {
                ord_bit[i] = 1u64 << (63 - rank);
                let (parent, children) = &universe[i];
                rank_words.push(*parent as u16);
                rank_words.extend(children.iter().map(|&c| c as u16));
            }
            ord_images.reserve((perms.len() + 1) * row_len);
            push_row(&mut ord_images, u, chunk_bits, |i| ord_bit[i]);
            for perm in &perms {
                push_row(&mut ord_images, u, chunk_bits, |i| {
                    ord_bit[perm[i] as usize]
                });
            }
        }

        let (mut lane_entries, mut lane_starts) = (Vec::new(), [0u16; 65]);
        for j in 0..64 {
            lane_entries.extend(chunk_entries(chunk_bits, j as u64).map(|e| e as u16));
            lane_starts[j + 1] = lane_entries.len() as u16;
        }

        Ok(CanonicalFamily {
            delta,
            num_labels,
            universe,
            chunk_bits,
            row_len,
            mask_images,
            ord_images,
            chunk_labels,
            rank_words,
            lane_entries,
            lane_starts,
        })
    }

    /// The family's δ.
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// The family's |Σ|.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Number of possible configurations (mask bits).
    pub fn universe_len(&self) -> usize {
        self.universe.len()
    }

    /// Total number of problems in the family, `2^universe_len`.
    pub fn family_size(&self) -> u64 {
        1u64 << self.universe.len()
    }

    /// The table entries of `mask`'s non-zero chunks, collected for lookups
    /// under many permutations.
    fn chunk_entries(&self, mask: u64) -> ChunkEntries {
        let mut entries = ChunkEntries {
            at: [0; 64],
            len: 0,
        };
        for e in chunk_entries(self.chunk_bits, mask) {
            entries.at[entries.len] = e as u16;
            entries.len += 1;
        }
        entries
    }

    /// `true` iff `mask` is its orbit's canonical representative (the numeric
    /// minimum over all label permutations). One lookup per non-zero chunk
    /// per permutation, early exit on the first smaller image.
    pub fn is_canonical(&self, mask: u64) -> bool {
        let entries = self.chunk_entries(mask);
        self.mask_images
            .chunks_exact(self.row_len)
            .all(|row| entries.image(row) >= mask)
    }

    /// The enumeration front of the wide-lane sweeps, a batched canonicity
    /// test: the canonical masks of the 64-mask window at the 64-aligned
    /// `base` (equivalent to 64 [`Self::is_canonical`] calls; offsets past
    /// the family's end are clear), with their orbit sizes.
    ///
    /// `base` and an offset `j < 64` share no bit, so the image of `base + j`
    /// is the image of `base` OR the image of `j`: each permutation looks
    /// `base` up once and each surviving offset in the ⌈6 / w⌉ chunks it
    /// spans (one at w ≥ 6; the offsets' entries are computed once, in
    /// [`Self::new`]), and is retired early once every lane of the window is
    /// dead. A surviving lane has met every permutation, so counting the
    /// images equal to it on the way gives its stabilizer, and so its orbit
    /// size, for one compare per permutation.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if `base` is not 64-aligned.
    fn window(&self, base: u64) -> Window {
        debug_assert_eq!(base & 63, 0, "window base must be 64-aligned");
        let mut window = Window {
            survivors: 0,
            fixed: [0; 64],
        };
        if base >= self.family_size() {
            return window;
        }
        let len = (self.family_size() - base).min(64);
        window.survivors = if len == 64 { !0u64 } else { (1u64 << len) - 1 };
        let base_entries = self.chunk_entries(base);
        for row in self.mask_images.chunks_exact(self.row_len) {
            let hi_image = base_entries.image(row);
            let mut lanes = window.survivors;
            while lanes != 0 {
                let j = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                let mask = base + j as u64;
                let lane = &self.lane_entries
                    [self.lane_starts[j] as usize..self.lane_starts[j + 1] as usize];
                let image = lane
                    .iter()
                    .fold(hi_image, |image, &e| image | row[e as usize]);
                if image < mask {
                    window.survivors &= !(1u64 << j);
                }
                window.fixed[j] += u16::from(image == mask);
            }
            if window.survivors == 0 {
                break;
            }
        }
        window
    }

    /// `|Σ|!`, the number of label permutations.
    fn permutations(&self) -> usize {
        self.mask_images.len() / self.row_len + 1
    }

    /// The number of distinct problems in the orbit of `mask`, via
    /// orbit–stabilizer: `|Σ|!` divided by the number of permutations fixing
    /// the mask.
    pub fn orbit_size(&self, mask: u64) -> u64 {
        let entries = self.chunk_entries(mask);
        let stabilizer = 1 + self
            .mask_images
            .chunks_exact(self.row_len)
            .filter(|row| entries.image(row) == mask)
            .count();
        (self.permutations() / stabilizer) as u64
    }

    /// Materializes the problem with the given configuration mask (identical
    /// mask semantics to [`crate::random::FamilyIter::problem_at`]).
    pub fn problem_at(&self, mask: u64) -> LclProblem {
        problem_from_universe(self.delta, self.num_labels, &self.universe, |i| {
            mask & (1u64 << i) != 0
        })
    }

    /// The canonical representative masks, ascending.
    pub fn canonical_masks(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.family_size()).filter(|&m| self.is_canonical(m))
    }

    /// Enumerates one [`OrbitProblem`] per orbit (ascending representative
    /// mask). Only canonical masks are materialized into problems.
    pub fn enumerate(&self) -> impl Iterator<Item = OrbitProblem> + '_ {
        self.canonical_masks().map(move |m| OrbitProblem {
            mask: m,
            problem: self.problem_at(m),
            orbit_size: self.orbit_size(m),
        })
    }

    /// The non-empty members of the `shards`-way contiguous mask partition of
    /// the family, as watermarked [`MaskRange`]s with every watermark at its
    /// range's start — the cursor of a fresh sweep campaign
    /// (`SweepSnapshot::fresh`), which the sweep driver fans out over worker
    /// threads. The union of [`Self::orbits_in`] over the ranges is exactly
    /// [`Self::enumerate`]; ranges may be uneven in orbits (canonical masks
    /// cluster towards small values). Requesting more shards than the family
    /// has masks yields one range per mask and no empty ranges, so `len()` is
    /// the *effective* shard count (≤ `shards`, and ≤ the family size).
    pub fn ranges(&self, shards: usize) -> Vec<MaskRange> {
        let size = self.family_size();
        let shards = shards.max(1) as u64;
        let per_shard = size.div_ceil(shards);
        (0..shards)
            .map(|s| {
                let lo = per_shard.saturating_mul(s).min(size);
                let hi = lo.saturating_add(per_shard).min(size);
                MaskRange { next: lo, hi }
            })
            .filter(|r| r.next < r.hi)
            .collect()
    }

    /// The canonical orbit stream of one watermarked mask range — the input
    /// of `ClassificationEngine::sweep_resumable` — resumable from any
    /// watermark: the stream of `MaskRange { next, hi }` is exactly the
    /// unvisited tail of the stream of `MaskRange { lo, hi }` once masks
    /// below `next` are done.
    pub fn orbits_in(&self, range: MaskRange) -> impl Iterator<Item = OrbitProblem> + '_ {
        (range.next..range.hi)
            .filter(|&m| self.is_canonical(m))
            .map(move |m| OrbitProblem {
                mask: m,
                problem: self.problem_at(m),
                orbit_size: self.orbit_size(m),
            })
    }

    /// The family's dense configuration table as a
    /// [`SlicedUniverse`] for the bit-sliced sweep path: entry `i` is the
    /// configuration behind mask bit `i`, so a family mask is directly a lane
    /// mask for `lcl_core::bitslice`.
    pub fn sliced_universe(&self) -> SlicedUniverse {
        let mut sliced = SlicedUniverse::new(self.delta, self.num_labels);
        for (parent, children) in &self.universe {
            sliced.push_config(*parent, children);
        }
        sliced
    }

    /// [`Self::orbits_in`]'s stream as [`MaskBlock`]s — the resumable input
    /// of `ClassificationEngine::sweep_resumable_bitsliced`, which takes
    /// `lanes = 64`. No problem is materialized; lanes carry only the mask
    /// and its orbit size, and candidate masks are canonicity-filtered in
    /// 64-mask windows through `Self::window`. Block formation
    /// is a function of the starting mask and `lanes` alone (≤ `lanes`
    /// canonical masks are taken in ascending order), so resuming from a
    /// committed block's [`MaskBlock::next_mask`] at the same lane count
    /// reproduces the remaining block sequence of an uninterrupted run
    /// exactly — lane statistics included.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn blocks_in(
        &self,
        range: MaskRange,
        lanes: usize,
    ) -> impl Iterator<Item = MaskBlock> + '_ {
        assert!(lanes > 0, "a block must hold at least one lane");
        BlockIter {
            family: self,
            next: range.next,
            hi: range.hi,
            lanes,
            window_base: u64::MAX,
            window: Window {
                survivors: 0,
                fixed: [0; 64],
            },
        }
    }

    /// The canonical-form memo key of the problem at `mask`, identical to
    /// `canonical_form(&self.problem_at(mask))` but computed mask-directly on
    /// the fast path — no problem construction and no per-permutation row
    /// re-sort.
    ///
    /// The fast path applies when rows pack (δ + 1 ≤ 8 slots) and the mask
    /// *uses every label* (then `canonical_form`'s dense re-ranking is the
    /// identity, and its permutation search over used labels is exactly the
    /// family's permutation group — including the trivial k = 1 group). The
    /// minimizing relabeling is found by comparing masks, not sorted row
    /// lists: order each configuration by its packed row, give it the bit
    /// `1 << (63 − rank)`, and the OR of a mask's bits compares masks exactly
    /// as their ascending packed-row lists compare lexicographically — the
    /// list whose first differing row is *smaller* owns the *higher* bit, so
    /// lex-smallest list ⟺ numerically greatest ordered mask. The tables hold
    /// every permutation's images in that order, so the search is one lookup
    /// per non-zero chunk per permutation, and the key is spelled from the
    /// winning ordered mask's set bits, highest first, one row of words per
    /// rank. Masks that leave some label unused (rare: their configurations
    /// all avoid one label) fall back to materializing the problem.
    pub fn canonical_key_of(&self, mask: u64) -> CanonicalKey {
        let entries = self.chunk_entries(mask);
        let used = entries
            .as_slice()
            .iter()
            .fold(0u16, |used, &e| used | self.chunk_labels[e as usize]);
        if self.ord_images.is_empty() || used != (1u16 << self.num_labels) - 1 {
            return canonical_form(&self.problem_at(mask));
        }
        let best = self
            .ord_images
            .chunks_exact(self.row_len)
            .map(|row| entries.image(row))
            .max()
            .expect("the identity row");
        let slots = self.delta + 1;
        let mut words = Vec::with_capacity(2 + slots * best.count_ones() as usize);
        words.extend([self.delta as u16, self.num_labels as u16]);
        let mut bits = best;
        while bits != 0 {
            let rank = bits.leading_zeros() as usize;
            words.extend_from_slice(&self.rank_words[rank * slots..][..slots]);
            bits ^= 1u64 << (63 - rank);
        }
        CanonicalKey::from_words(words)
    }

    /// Runs one leg of a sweep campaign over this family from `state` on
    /// `engine`, with the engine its cursor names: `sweep_resumable` over
    /// [`Self::orbits_in`], or `sweep_resumable_bitsliced` over
    /// [`Self::blocks_in`] at 64 lanes with [`Self::problem_at`] and
    /// [`Self::canonical_key_of`]. `ClassificationEngine::sweep_resumable`
    /// states the checkpoint, budget and resume contract; the error is a
    /// failed checkpoint write.
    pub fn sweep(
        &self,
        engine: &ClassificationEngine,
        state: SweepSnapshot,
        ckpt: &SweepCheckpoint<'_>,
    ) -> Result<(SweepSnapshot, bool), SnapshotError> {
        assert_eq!(
            (
                state.cursor.delta as usize,
                state.cursor.num_labels as usize
            ),
            (self.delta, self.num_labels),
            "the cursor sweeps another family"
        );
        match state.cursor.engine {
            EngineKind::Scalar => engine.sweep_resumable(state, |r| self.orbits_in(r), ckpt),
            EngineKind::Bitsliced => {
                let width = LaneWidth::default();
                engine.sweep_resumable_bitsliced(
                    &self.sliced_universe(),
                    width,
                    state,
                    |r| self.blocks_in(r, width.lanes()),
                    |mask| self.problem_at(mask),
                    |mask| self.canonical_key_of(mask),
                    ckpt,
                )
            }
        }
    }
}

/// For every non-identity label permutation, the induced permutation of
/// universe indices: `table[i]` is the image of configuration `i`.
fn index_permutations(universe: &[(usize, Vec<usize>)], num_labels: usize) -> Vec<Vec<u32>> {
    // A configuration's base-|Σ| code: parent, then children ascending.
    let code = |parent: usize, children: &[usize]| {
        children.iter().fold(parent as u64, |code, &c| {
            code * num_labels as u64 + c as u64
        })
    };
    let mut index_of: Vec<(u64, u32)> = universe
        .iter()
        .enumerate()
        .map(|(i, (parent, children))| (code(*parent, children), i as u32))
        .collect();
    index_of.sort_unstable();
    let mut tables = Vec::new();
    let mut image_children = Vec::new();
    let mut perm: Vec<usize> = (0..num_labels).collect();
    permute(&mut perm, 0, &mut |perm| {
        if perm.iter().enumerate().all(|(i, &p)| i == p) {
            return; // identity fixes every mask; skip it
        }
        let table: Vec<u32> = universe
            .iter()
            .map(|(parent, children)| {
                image_children.clear();
                image_children.extend(children.iter().map(|&c| perm[c]));
                image_children.sort_unstable();
                let image = code(perm[*parent], &image_children);
                let at = index_of
                    .binary_search_by_key(&image, |&(code, _)| code)
                    .expect("the image of a configuration is a configuration");
                index_of[at].1
            })
            .collect();
        tables.push(table);
    });
    tables
}

/// The table entries of `mask`'s non-zero `bits`-bit chunks, lowest chunk
/// first: chunk value `v` at position `c` is entry `c · (2^bits − 1) + v − 1`.
fn chunk_entries(bits: u32, mask: u64) -> impl Iterator<Item = usize> {
    let span = (1usize << bits) - 1;
    let (mut rest, mut at) = (mask, 0usize);
    std::iter::from_fn(move || {
        while rest != 0 {
            let value = rest as usize & span;
            rest >>= bits;
            at += span;
            if value != 0 {
                return Some(at - span + value - 1);
            }
        }
        None
    })
}

/// Bytes of `rows` image-table rows of 8-byte entries over a `u`-bit mask cut
/// into `bits`-bit chunks.
fn table_bytes(u: usize, bits: usize, rows: usize) -> usize {
    rows * u.div_ceil(bits) * ((1 << bits) - 1) * 8
}

/// The chunk width of a family with a `u`-bit mask and `rows` image-table
/// rows: the widest, up to [`MAX_CHUNK_BITS`] and `u`, within
/// [`TABLE_BUDGET_BYTES`], else one bit.
fn chunk_bits(u: usize, rows: usize) -> u32 {
    (1..=MAX_CHUNK_BITS.min(u))
        .rev()
        .find(|&bits| table_bytes(u, bits, rows) <= TABLE_BUDGET_BYTES)
        .unwrap_or(1) as u32
}

/// Appends one table row over a `u`-bit mask in `bits`-bit chunks: for every
/// chunk position and non-zero chunk value, in [`chunk_entries`]
/// order, the OR of `image(i)` over the configurations `i` the value holds.
/// One OR per entry: the values with highest bit `b` are that bit alone, then
/// the values below `b`, already in the row, each ORed with it.
fn push_row<T>(row: &mut Vec<T>, u: usize, bits: u32, image: impl Fn(usize) -> T)
where
    T: Copy + Default + BitOr<Output = T>,
{
    for chunk in 0..u.div_ceil(bits as usize) {
        let start = row.len();
        for b in 0..bits as usize {
            let i = chunk * bits as usize + b;
            let bit = if i < u { image(i) } else { T::default() };
            let below = (1 << b) - 1;
            row.push(bit);
            row.extend_from_within(start..start + below);
            let end = row.len();
            for entry in &mut row[end - below..] {
                *entry = *entry | bit;
            }
        }
    }
}

/// Iterator of [`MaskBlock`]s over one shard's canonical masks; see
/// [`CanonicalFamily::blocks_in`]. Candidates and their orbit sizes come from
/// the batched [`CanonicalFamily::window`] (cached across blocks, so a window
/// split by a block boundary is not re-filtered).
struct BlockIter<'a> {
    family: &'a CanonicalFamily,
    next: u64,
    hi: u64,
    /// Maximum number of masks per block (the sweep's lane count).
    lanes: usize,
    /// 64-aligned base of the cached window (`u64::MAX` = none).
    window_base: u64,
    /// The cached window.
    window: Window,
}

impl Iterator for BlockIter<'_> {
    type Item = MaskBlock;

    fn next(&mut self) -> Option<MaskBlock> {
        let mut block = MaskBlock::default();
        while self.next < self.hi && block.masks.len() < self.lanes {
            let base = self.next & !63;
            if base != self.window_base {
                self.window_base = base;
                self.window = self.family.window(base);
            }
            let off = (self.next - base) as u32;
            let remaining = self.window.survivors >> off;
            if remaining == 0 {
                // Window exhausted: skip to the next one in a single step.
                self.next = (base + 64).min(self.hi);
                continue;
            }
            let lane = remaining.trailing_zeros() + off;
            let candidate = base + u64::from(lane);
            if candidate >= self.hi {
                self.next = self.hi;
                break;
            }
            let stabilizer = 1 + self.window.fixed[lane as usize] as usize;
            block.masks.push(candidate);
            block
                .orbit_sizes
                .push((self.family.permutations() / stabilizer) as u64);
            self.next = candidate + 1;
        }
        block.next_mask = self.next;
        if block.masks.is_empty() {
            None
        } else {
            Some(block)
        }
    }
}

/// Calls `visit` with every permutation of `items[at..]` (Heap-style recursion).
fn permute(items: &mut [usize], at: usize, visit: &mut impl FnMut(&[usize])) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-bit reference the image tables replace: the image of a
    /// configuration mask under one index permutation, bit by bit.
    fn apply(table: &[u32], mask: u64) -> u64 {
        let mut out = 0u64;
        let mut bits = mask;
        while bits != 0 {
            out |= 1u64 << table[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        out
    }

    /// The family's non-identity index permutations, for [`apply`].
    fn perm_tables(family: &CanonicalFamily) -> Vec<Vec<u32>> {
        index_permutations(&family.universe, family.num_labels)
    }

    #[test]
    fn permutation_tables_are_permutations() {
        let family = CanonicalFamily::new(2, 3);
        let tables = perm_tables(&family);
        assert_eq!(tables.len(), 5); // 3! − 1
        for table in &tables {
            let mut seen = vec![false; family.universe_len()];
            for &i in table {
                assert!(!seen[i as usize]);
                seen[i as usize] = true;
            }
        }
    }

    #[test]
    fn orbit_sizes_sum_to_the_family_size() {
        for (delta, labels) in [(1, 2), (2, 2), (1, 3), (2, 3)] {
            let family = CanonicalFamily::new(delta, labels);
            let total: u64 = family.canonical_masks().map(|m| family.orbit_size(m)).sum();
            assert_eq!(total, family.family_size(), "(δ={delta}, k={labels})");
        }
    }

    #[test]
    fn empty_and_full_masks_are_canonical_fixed_points() {
        let family = CanonicalFamily::new(2, 2);
        assert!(family.is_canonical(0));
        assert_eq!(family.orbit_size(0), 1);
        let full = family.family_size() - 1;
        assert!(family.is_canonical(full));
        assert_eq!(family.orbit_size(full), 1);
    }

    #[test]
    fn orbit_members_share_the_representative() {
        // For every mask of the (2, 2) family, the minimum over its permuted
        // images is canonical, and exactly one member of each orbit is.
        let family = CanonicalFamily::new(2, 2);
        let tables = perm_tables(&family);
        let mut canonical_members = 0u64;
        for mask in 0..family.family_size() {
            let min = tables
                .iter()
                .map(|t| apply(t, mask))
                .chain(std::iter::once(mask))
                .min()
                .unwrap();
            assert!(family.is_canonical(min), "mask {mask}");
            if family.is_canonical(mask) {
                canonical_members += 1;
            }
        }
        assert_eq!(canonical_members, family.canonical_masks().count() as u64);
    }

    #[test]
    fn single_label_family_is_all_canonical() {
        let family = CanonicalFamily::new(2, 1);
        assert_eq!(family.universe_len(), 1);
        assert_eq!(
            family.canonical_masks().count() as u64,
            family.family_size()
        );
        assert!(family.enumerate().all(|o| o.orbit_size == 1));
    }

    #[test]
    fn ranges_partition_the_stream() {
        // Drive `orbits_in` over `ranges()` and compare the concatenated
        // output against `enumerate()`, so a regression in the range
        // arithmetic cannot hide.
        let family = CanonicalFamily::new(2, 3);
        let all: Vec<(String, u64)> = family
            .enumerate()
            .map(|o| (o.problem.to_text(), o.orbit_size))
            .collect();
        assert!(!all.is_empty());
        for shards in [1usize, 2, 3, 7] {
            let sharded: Vec<(String, u64)> = family
                .ranges(shards)
                .into_iter()
                .flat_map(|r| family.orbits_in(r))
                .map(|o| (o.problem.to_text(), o.orbit_size))
                .collect();
            assert_eq!(sharded, all, "{shards} shards");
        }
    }

    #[test]
    #[should_panic(expected = "at most 63 fit an exhaustive sweep")]
    fn oversized_universe_panics() {
        CanonicalFamily::new(2, 5); // 5 · C(6,2) = 75 > 63 configurations
    }

    #[test]
    fn try_new_names_the_first_broken_bound() {
        let err = |delta, labels| CanonicalFamily::try_new(delta, labels).unwrap_err();
        assert_eq!(err(0, 2), "a family needs positive δ and label count");
        assert_eq!(err(2, 0), "a family needs positive δ and label count");
        assert_eq!(
            err(1, 9),
            "9 labels exceeds the canonical enumeration limit of 8"
        );
        assert_eq!(
            err(2, 5),
            "the (δ=2, 5 labels) universe has 75 possible configurations; \
             at most 63 fit an exhaustive sweep"
        );
        // Saturating: no universe is built, however large δ is.
        assert_eq!(
            err(usize::MAX, 8),
            format!(
                "the (δ={}, 8 labels) universe has {} possible configurations; \
                 at most 63 fit an exhaustive sweep",
                usize::MAX,
                u128::MAX
            )
        );
        // One label has one configuration at every δ, so only the snapshot
        // cursor's u16 bounds δ.
        assert_eq!(
            err(65_536, 1),
            "δ = 65536 exceeds the sweep snapshot's limit of 65535"
        );
        assert_eq!(family_universe_len(65_535, 1), Ok(1));
        assert_eq!(family_universe_len(2, 4), Ok(40));
        assert_eq!(family_universe_len(1, 7), Ok(49));
        let family = CanonicalFamily::try_new(2, 3).expect("(2, 3) fits");
        assert_eq!(family.universe_len(), 18);
    }

    #[test]
    fn blocks_partition_the_canonical_stream() {
        let family = CanonicalFamily::new(2, 3);
        let all: Vec<(u64, u64)> = family
            .canonical_masks()
            .map(|m| (m, family.orbit_size(m)))
            .collect();
        for lanes in [1usize, 5, 64] {
            for shards in [1usize, 2, 3, 7] {
                let mut blocked: Vec<(u64, u64)> = Vec::new();
                for range in family.ranges(shards) {
                    for block in family.blocks_in(range, lanes) {
                        assert!(!block.masks.is_empty());
                        assert!(block.masks.len() <= lanes);
                        assert_eq!(block.masks.len(), block.orbit_sizes.len());
                        blocked.extend(block.masks.iter().copied().zip(block.orbit_sizes));
                    }
                }
                assert_eq!(blocked, all, "{shards} shards, {lanes} lanes");
            }
        }
    }

    #[test]
    fn window_survivors_match_is_canonical() {
        for (delta, labels) in [(2, 1), (1, 2), (2, 2), (1, 3), (2, 3)] {
            let family = CanonicalFamily::new(delta, labels);
            let mut base = 0u64;
            while base < family.family_size() {
                let batched = family.window(base).survivors;
                for j in 0..64u64 {
                    let expected = base + j < family.family_size() && family.is_canonical(base + j);
                    assert_eq!(
                        batched & (1 << j) != 0,
                        expected,
                        "(δ={delta}, k={labels}) base {base} offset {j}"
                    );
                }
                base += 64;
            }
            // Past the family's end the window is empty.
            let past = family.family_size().div_ceil(64) * 64;
            assert_eq!(family.window(past).survivors, 0);
        }
    }

    #[test]
    fn ranges_are_nonempty_and_tile_the_family() {
        let family = CanonicalFamily::new(2, 3);
        for shards in [1usize, 2, 7, 1000] {
            let ranges = family.ranges(shards);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= shards);
            assert_eq!(ranges[0].next, 0);
            assert_eq!(ranges.last().unwrap().hi, family.family_size());
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].hi, pair[1].next, "{shards} shards");
            }
            assert!(ranges.iter().all(|r| !r.is_done()));
        }
        // More shards than masks: one range per mask, never an empty range.
        let tiny = CanonicalFamily::new(2, 1);
        assert_eq!(tiny.family_size(), 2);
        assert_eq!(tiny.ranges(64).len(), 2);
        assert_eq!(tiny.ranges(0).len(), 1);
    }

    #[test]
    fn orbit_streams_resume_as_the_tail_of_the_full_stream() {
        let family = CanonicalFamily::new(2, 2);
        let full: Vec<u64> = family.canonical_masks().collect();
        let hi = family.family_size();
        for watermark in [0u64, 1, 17, 1000, hi - 1, hi] {
            let tail: Vec<u64> = family
                .orbits_in(MaskRange {
                    next: watermark,
                    hi,
                })
                .map(|o| o.mask)
                .collect();
            let expected: Vec<u64> = full.iter().copied().filter(|&m| m >= watermark).collect();
            assert_eq!(tail, expected, "watermark {watermark}");
        }
    }

    #[test]
    fn block_streams_resume_from_every_next_mask_watermark() {
        let family = CanonicalFamily::new(2, 3);
        let whole = MaskRange {
            next: 0,
            hi: family.family_size(),
        };
        for lanes in [64usize, 256] {
            let blocks: Vec<MaskBlock> = family.blocks_in(whole, lanes).collect();
            assert!(blocks.len() > 2);
            assert_eq!(blocks.last().unwrap().next_mask, whole.hi);
            // Resuming from a committed block's watermark must reproduce the
            // next block exactly (blocks_in is lazy, so one block is cheap).
            for pair in blocks.windows(2) {
                let mut resumed = family.blocks_in(
                    MaskRange {
                        next: pair[0].next_mask,
                        hi: whole.hi,
                    },
                    lanes,
                );
                assert_eq!(
                    resumed.next().map(|b| (b.masks, b.next_mask)),
                    Some((pair[1].masks.clone(), pair[1].next_mask)),
                    "resumed at watermark {} with {lanes} lanes",
                    pair[0].next_mask
                );
            }
        }
    }

    #[test]
    fn sliced_universe_mirrors_the_mask_bits() {
        let family = CanonicalFamily::new(2, 3);
        let sliced = family.sliced_universe();
        assert_eq!(sliced.len(), family.universe_len());
        assert_eq!(sliced.delta(), 2);
        assert_eq!(sliced.num_labels(), 3);
    }

    #[test]
    fn mask_direct_canonical_keys_match_canonical_form() {
        // Every mask of small full families — exercises both the full-used
        // fast path and the unused-label fallback.
        for (delta, labels) in [(2, 2), (1, 3)] {
            let family = CanonicalFamily::new(delta, labels);
            for mask in 0..family.family_size() {
                assert_eq!(
                    family.canonical_key_of(mask),
                    canonical_form(&family.problem_at(mask)),
                    "(δ={delta}, k={labels}) mask {mask}"
                );
            }
        }
        // Random masks of the sweep benchmark's (2, 3) universe.
        let family = CanonicalFamily::new(2, 3);
        let mut rng = lcl_rand::SplitMix64::seed_from_u64(0xC0FFEE);
        for _ in 0..2000 {
            let mask = rng.next_u64() & (family.family_size() - 1);
            assert_eq!(
                family.canonical_key_of(mask),
                canonical_form(&family.problem_at(mask)),
                "mask {mask}"
            );
        }
        // The (2, 4) campaign window — 4,096 masks from 2^27 — and seeded
        // random masks of the whole (2, 4) family.
        let family = CanonicalFamily::new(2, 4);
        let window = (1u64 << 27)..(1u64 << 27) + 4096;
        let random: Vec<u64> = (0..2000)
            .map(|_| rng.next_u64() & (family.family_size() - 1))
            .collect();
        for mask in window.chain(random) {
            assert_eq!(
                family.canonical_key_of(mask),
                canonical_form(&family.problem_at(mask)),
                "(δ=2, k=4) mask {mask}"
            );
        }
    }

    /// `|Σ| · C(δ + |Σ| − 1, δ)`: the size of the (δ, |Σ|) configuration
    /// universe, without building it.
    fn universe_len(delta: usize, labels: usize) -> usize {
        (1..labels).fold(labels, |n, i| n * (delta + i) / i)
    }

    /// Every (δ, |Σ|) that [`CanonicalFamily::new`] accepts with δ ≤
    /// `max_delta`, with its universe size.
    fn accepted_families(max_delta: usize) -> Vec<(usize, usize, usize)> {
        let mut families = Vec::new();
        for labels in 1..=MAX_CANONICAL_ENUM_LABELS {
            for delta in 1..=max_delta {
                let u = universe_len(delta, labels);
                if u > 63 {
                    break;
                }
                families.push((delta, labels, u));
            }
        }
        families
    }

    #[test]
    fn no_family_allocates_more_than_four_mib_of_image_tables() {
        // Beyond δ = 64 only |Σ| = 1 is accepted, with one configuration.
        for (delta, labels, u) in accepted_families(64) {
            let perms = (1..=labels).product::<usize>() - 1;
            let rows = perms + if delta < 8 { perms + 1 } else { 0 };
            let bits = chunk_bits(u, rows);
            let bytes = table_bytes(u, bits as usize, rows) + table_bytes(u, bits as usize, 1) / 4;
            assert!(bytes <= 4 << 20, "(δ={delta}, k={labels}): {bytes} bytes");
            if delta > 7 {
                continue; // building the universe walks |Σ|^δ child tuples
            }
            let family = CanonicalFamily::new(delta, labels);
            assert_eq!(family.universe_len(), u);
            assert_eq!(family.chunk_bits, bits);
            let allocated = 8 * (family.mask_images.len() + family.ord_images.len())
                + 2 * family.chunk_labels.len();
            assert_eq!(allocated, bytes, "(δ={delta}, k={labels})");
        }
        // The widths the module documentation names.
        for (delta, labels, bits) in [(2, 4, 8), (1, 5, 5), (1, 6, 1), (1, 7, 1)] {
            assert_eq!(CanonicalFamily::new(delta, labels).chunk_bits, bits);
        }
    }

    #[test]
    fn image_tables_match_the_per_bit_reference_at_every_chunk_width() {
        // Per chunk width the budget selects, the family with the most
        // permutations (then the widest mask).
        let mut by_width: Vec<(u32, usize, usize, usize, usize)> = Vec::new();
        for (delta, labels, u) in accepted_families(7) {
            let family = CanonicalFamily::new(delta, labels);
            let perms = family.mask_images.len() / family.row_len;
            let candidate = (family.chunk_bits, perms, u, delta, labels);
            match by_width.iter_mut().find(|c| c.0 == family.chunk_bits) {
                Some(best) if (best.1, best.2) >= (perms, u) => {}
                Some(best) => *best = candidate,
                None => by_width.push(candidate),
            }
        }
        assert!(by_width.len() >= 4, "widths {by_width:?}");
        let mut rng = lcl_rand::SplitMix64::seed_from_u64(0x7AB1E5);
        for (bits, perms, _, delta, labels) in by_width {
            let family = CanonicalFamily::new(delta, labels);
            let tables = perm_tables(&family);
            let at = format!("(δ={delta}, k={labels}, w={bits})");
            // Fewer samples where every check walks thousands of permutations.
            let samples = if perms > 1000 { 8 } else { 200 };
            let masks: Vec<u64> = (0..samples)
                .map(|_| rng.next_u64() & (family.family_size() - 1))
                .chain([0, family.family_size() - 1])
                .collect();
            for mask in masks {
                let images: Vec<u64> = tables.iter().map(|t| apply(t, mask)).collect();
                assert_eq!(
                    family.is_canonical(mask),
                    images.iter().all(|&image| image >= mask),
                    "{at} mask {mask}"
                );
                let fixed = images.iter().filter(|&&image| image == mask).count();
                assert_eq!(
                    family.orbit_size(mask),
                    ((perms + 1) / (fixed + 1)) as u64,
                    "{at} mask {mask}"
                );
                assert_eq!(
                    family.canonical_key_of(mask),
                    canonical_form(&family.problem_at(mask)),
                    "{at} mask {mask}"
                );
                // The mask's window, through the batched filter and through
                // the blocks that carry its orbit sizes.
                let base = mask & !63;
                let survivors = family.window(base).survivors;
                let hi = (base + 64).min(family.family_size());
                let blocked: Vec<(u64, u64)> = family
                    .blocks_in(MaskRange { next: base, hi }, 64)
                    .flat_map(|block| block.masks.into_iter().zip(block.orbit_sizes))
                    .collect();
                let mut expected_blocks = Vec::new();
                for m in base..hi {
                    let images: Vec<u64> = tables.iter().map(|t| apply(t, m)).collect();
                    let canonical = images.iter().all(|&image| image >= m);
                    assert_eq!(survivors >> (m - base) & 1 == 1, canonical, "{at} mask {m}");
                    if canonical {
                        let fixed = images.iter().filter(|&&image| image == m).count();
                        expected_blocks.push((m, ((perms + 1) / (fixed + 1)) as u64));
                    }
                }
                let past_end = survivors.checked_shr((hi - base) as u32).unwrap_or(0);
                assert_eq!(past_end, 0, "{at} window {base}");
                assert_eq!(blocked, expected_blocks, "{at} window {base}");
            }
        }
    }
}
