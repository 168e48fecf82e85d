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
//! Sharding for the parallel sweep driver
//! (`lcl_core::engine::ClassificationEngine::sweep_resumable`) partitions the
//! mask space into contiguous ranges ([`CanonicalFamily::ranges`]); the
//! canonicity filter runs inside each range, so no pass over the universe is
//! needed up front.

use std::collections::HashMap;

use lcl_core::bitslice::SlicedUniverse;
use lcl_core::engine::{
    canonical_form, canonical_key_from_packed_rows, CanonicalKey, MaskBlock, OrbitProblem,
};
use lcl_core::snapshot::MaskRange;
use lcl_core::LclProblem;

use crate::random::{configuration_universe, problem_from_universe};

/// Number of labels up to which all `|Σ|!` permutations are enumerated. The
/// configuration-mask limit of 63 keeps realistic families far below this
/// (δ = 2 caps at 4 labels, δ = 1 at 7), but the bound makes the permutation
/// table construction's cost explicit.
pub const MAX_CANONICAL_ENUM_LABELS: usize = 8;

/// A complete (δ, Σ) problem family viewed through its label-permutation
/// orbits. See the module documentation.
#[derive(Debug, Clone)]
pub struct CanonicalFamily {
    delta: usize,
    num_labels: usize,
    universe: Vec<(usize, Vec<usize>)>,
    /// For every non-identity label permutation, the induced permutation of
    /// universe indices: `table[i]` is the image of configuration `i`.
    perm_tables: Vec<Vec<u32>>,
    /// Per permutation table, the images of the 64 low-offset masks
    /// `0..64`: `low_images[t][j] = apply(table, j)` (zero where `j` is not a
    /// valid mask of the universe). [`Self::apply`] distributes over disjoint
    /// bits, so for a 64-aligned base `b` the image of `b + j` is
    /// `apply(table, b) | low_images[t][j]` — one table walk per base serves a
    /// whole 64-mask window in [`Self::canonical_survivors`].
    low_images: Vec<[u64; 64]>,
    /// Per configuration, the set of labels it mentions (bit per label).
    config_label_bits: Vec<u16>,
    /// Per configuration, its identity-relabeling packed row — parent in the
    /// high 16-bit slot, children ascending — as `canonical_form` packs rows.
    /// Empty when δ + 1 > 8 slots (rows don't fit a `u128`).
    packed_id: Vec<u128>,
    /// Configuration indices ascending by packed row (empty iff `packed_id`
    /// is).
    packed_order: Vec<u32>,
    /// Per configuration, the bit `1 << (63 − rank)` of its packed row in the
    /// ascending packed order; the OR over a mask's configurations orders
    /// masks by their *sorted packed-row lists* (see [`Self::canonical_key_of`]).
    ord_bit: Vec<u64>,
}

impl CanonicalFamily {
    /// Builds the orbit view of the (δ, `num_labels`) family.
    ///
    /// # Panics
    ///
    /// Panics if the configuration universe exceeds 63 entries (the family
    /// would not fit a `u64` mask; same bound as
    /// [`crate::random::enumerate_problems`]) or if `num_labels` exceeds
    /// [`MAX_CANONICAL_ENUM_LABELS`].
    pub fn new(delta: usize, num_labels: usize) -> Self {
        assert!(delta >= 1 && num_labels >= 1);
        assert!(
            num_labels <= MAX_CANONICAL_ENUM_LABELS,
            "canonical enumeration tries all {num_labels}! label permutations; \
             {MAX_CANONICAL_ENUM_LABELS} labels is the supported limit"
        );
        let universe = configuration_universe(delta, num_labels);
        assert!(
            universe.len() <= 63,
            "family over {} possible configurations is too large to enumerate",
            universe.len()
        );
        let index_of: HashMap<&(usize, Vec<usize>), u32> = universe
            .iter()
            .enumerate()
            .map(|(i, c)| (c, i as u32))
            .collect();

        let mut perm_tables = Vec::new();
        let mut perm: Vec<usize> = (0..num_labels).collect();
        permute(&mut perm, 0, &mut |perm| {
            if perm.iter().enumerate().all(|(i, &p)| i == p) {
                return; // identity fixes every mask; skip it
            }
            let table: Vec<u32> = universe
                .iter()
                .map(|(parent, children)| {
                    let mut image_children: Vec<usize> =
                        children.iter().map(|&c| perm[c]).collect();
                    image_children.sort_unstable();
                    index_of[&(perm[*parent], image_children)]
                })
                .collect();
            perm_tables.push(table);
        });
        let low_images: Vec<[u64; 64]> = perm_tables
            .iter()
            .map(|table| {
                let mut low = [0u64; 64];
                for (j, slot) in low.iter_mut().enumerate() {
                    if j >> universe.len().min(63) == 0 {
                        *slot = Self::apply(table, j as u64);
                    }
                }
                low
            })
            .collect();

        let config_label_bits: Vec<u16> = universe
            .iter()
            .map(|(parent, children)| {
                children
                    .iter()
                    .fold(1u16 << parent, |bits, &c| bits | 1 << c)
            })
            .collect();
        // Identity packed rows + their rank order, for the mask-direct
        // canonical key (only when rows fit a u128: δ + 1 ≤ 8 slots).
        let packed_id: Vec<u128> = if delta < 8 {
            universe
                .iter()
                .map(|(parent, children)| {
                    // Universe children are already non-decreasing.
                    children
                        .iter()
                        .fold(*parent as u128, |packed, &c| (packed << 16) | c as u128)
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut ord_bit = vec![0u64; universe.len()];
        let mut packed_order = Vec::new();
        if !packed_id.is_empty() {
            packed_order = (0..universe.len() as u32).collect();
            packed_order.sort_unstable_by_key(|&i| packed_id[i as usize]);
            for (rank, &i) in packed_order.iter().enumerate() {
                ord_bit[i as usize] = 1u64 << (63 - rank);
            }
        }

        CanonicalFamily {
            delta,
            num_labels,
            universe,
            perm_tables,
            low_images,
            config_label_bits,
            packed_id,
            packed_order,
            ord_bit,
        }
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

    /// The image of a configuration mask under one precomputed permutation.
    fn apply(table: &[u32], mask: u64) -> u64 {
        let mut out = 0u64;
        let mut bits = mask;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            out |= 1u64 << table[i];
            bits &= bits - 1;
        }
        out
    }

    /// `true` iff `mask` is its orbit's canonical representative (the numeric
    /// minimum over all label permutations). A few word operations per
    /// permutation, early exit on the first smaller image.
    pub fn is_canonical(&self, mask: u64) -> bool {
        self.perm_tables
            .iter()
            .all(|table| Self::apply(table, mask) >= mask)
    }

    /// Batched canonicity test: the bitmap of offsets `j` (bit `j` set) such
    /// that `base + j` is canonical, over the 64-mask window starting at the
    /// 64-aligned `base`. Offsets past the family's end are clear.
    ///
    /// This is the enumeration front of the wide-lane sweeps: instead of up
    /// to `|Σ|! − 1` table walks per candidate mask, each permutation walks
    /// the table once for the shared high bits (`apply(table, base)`) and
    /// tests the surviving offsets with one precomputed-OR and one compare
    /// each, retiring a permutation early once every lane of the window is
    /// dead. Equivalent to 64 [`Self::is_canonical`] calls.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if `base` is not 64-aligned.
    pub fn canonical_survivors(&self, base: u64) -> u64 {
        debug_assert_eq!(base & 63, 0, "window base must be 64-aligned");
        if base >= self.family_size() {
            return 0;
        }
        let window = (self.family_size() - base).min(64);
        let mut surviving = if window == 64 {
            !0u64
        } else {
            (1u64 << window) - 1
        };
        for (table, low_images) in self.perm_tables.iter().zip(&self.low_images) {
            let hi_image = Self::apply(table, base);
            let mut lanes = surviving;
            while lanes != 0 {
                let j = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                if hi_image | low_images[j] < base + j as u64 {
                    surviving &= !(1u64 << j);
                }
            }
            if surviving == 0 {
                break;
            }
        }
        surviving
    }

    /// The number of distinct problems in the orbit of `mask`, via
    /// orbit–stabilizer: `|Σ|!` divided by the number of permutations fixing
    /// the mask.
    pub fn orbit_size(&self, mask: u64) -> u64 {
        let stabilizer = 1 + self
            .perm_tables
            .iter()
            .filter(|table| Self::apply(table, mask) == mask)
            .count();
        ((self.perm_tables.len() + 1) / stabilizer) as u64
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
    /// 64-mask windows through [`Self::canonical_survivors`]. Block formation
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
            window_bits: 0,
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
    /// lex-smallest list ⟺ numerically greatest ordered mask. The key is then
    /// unpacked from the winning mask's rows in packed order. Masks that leave
    /// some label unused (rare: their configurations all avoid one label) fall
    /// back to materializing the problem.
    pub fn canonical_key_of(&self, mask: u64) -> CanonicalKey {
        let used = {
            let mut bits = mask;
            let mut used = 0u16;
            while bits != 0 {
                used |= self.config_label_bits[bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
            used
        };
        let full_used = (1u16 << self.num_labels) - 1;
        if self.packed_id.is_empty() || used != full_used {
            return canonical_form(&self.problem_at(mask));
        }
        let ordkey = |m: u64| {
            let mut bits = m;
            let mut key = 0u64;
            while bits != 0 {
                key |= self.ord_bit[bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
            key
        };
        let mut best_mask = mask;
        let mut best_key = ordkey(mask);
        for table in &self.perm_tables {
            let image = Self::apply(table, mask);
            let key = ordkey(image);
            if key > best_key {
                best_key = key;
                best_mask = image;
            }
        }
        // Ascending packed rows of the winning mask: walk the configurations
        // in packed order, keeping the ones the mask contains.
        let mut rows: Vec<u128> = Vec::with_capacity(best_mask.count_ones() as usize);
        for &i in &self.packed_order {
            if best_mask & (1u64 << i) != 0 {
                rows.push(self.packed_id[i as usize]);
            }
        }
        canonical_key_from_packed_rows(self.delta, self.num_labels, &rows)
    }
}

/// Iterator of [`MaskBlock`]s over one shard's canonical masks; see
/// [`CanonicalFamily::blocks`]. Candidates are filtered through the batched
/// [`CanonicalFamily::canonical_survivors`] window (cached across blocks, so
/// a window split by a block boundary is not re-filtered).
struct BlockIter<'a> {
    family: &'a CanonicalFamily,
    next: u64,
    hi: u64,
    /// Maximum number of masks per block (the sweep's lane count).
    lanes: usize,
    /// 64-aligned base of the cached survivor window (`u64::MAX` = none).
    window_base: u64,
    /// Survivor bitmap of the cached window.
    window_bits: u64,
}

impl Iterator for BlockIter<'_> {
    type Item = MaskBlock;

    fn next(&mut self) -> Option<MaskBlock> {
        let mut block = MaskBlock::default();
        while self.next < self.hi && block.masks.len() < self.lanes {
            let base = self.next & !63;
            if base != self.window_base {
                self.window_base = base;
                self.window_bits = self.family.canonical_survivors(base);
            }
            let off = (self.next - base) as u32;
            let remaining = self.window_bits >> off;
            if remaining == 0 {
                // Window exhausted: skip to the next one in a single step.
                self.next = (base + 64).min(self.hi);
                continue;
            }
            let candidate = base + u64::from(remaining.trailing_zeros() + off);
            if candidate >= self.hi {
                self.next = self.hi;
                break;
            }
            block.masks.push(candidate);
            block.orbit_sizes.push(self.family.orbit_size(candidate));
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

    #[test]
    fn permutation_tables_are_permutations() {
        let family = CanonicalFamily::new(2, 3);
        assert_eq!(family.perm_tables.len(), 5); // 3! − 1
        for table in &family.perm_tables {
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
        let mut canonical_members = 0u64;
        for mask in 0..family.family_size() {
            let min = family
                .perm_tables
                .iter()
                .map(|t| CanonicalFamily::apply(t, mask))
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
    #[should_panic(expected = "too large to enumerate")]
    fn oversized_universe_panics() {
        CanonicalFamily::new(2, 5); // 5 · C(6,2) = 75 > 63 configurations
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
    fn canonical_survivors_match_is_canonical_windows() {
        for (delta, labels) in [(2, 1), (1, 2), (2, 2), (1, 3), (2, 3)] {
            let family = CanonicalFamily::new(delta, labels);
            let mut base = 0u64;
            while base < family.family_size() {
                let batched = family.canonical_survivors(base);
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
            assert_eq!(family.canonical_survivors(past), 0);
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
    }
}
