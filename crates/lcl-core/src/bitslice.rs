//! Bit-sliced classification: 64 problems of one (δ, Σ) universe in
//! lockstep.
//!
//! Every problem of a complete (δ, Σ) family is a subset of one shared
//! configuration universe — a `u64` mask over at most 63 possible
//! configurations (see `lcl_problems::canonical::CanonicalFamily`). The masked
//! kernels in [`crate::scratch`] classify one such mask at a time; this module
//! transposes a **block of up to [`LANES`] masks** (one `u64` [`LaneWord`])
//! so that the same fixed-point iterations run on all of them
//! simultaneously, one bit lane per problem:
//!
//! * per universe configuration `i`, a lane word whose bit `j` says "problem
//!   `j` contains configuration `i`" (the transposed successor table
//!   [`BitSliceScratch`] builds from a block),
//! * per label `l`, a lane word whose bit `j` says "label `l` is still allowed
//!   in problem `j`" — the same trick [`crate::label_set::LabelSet`] plays per
//!   label, lifted one axis.
//!
//! Every stage of the decision procedure is then a short loop over word-wide
//! AND/OR operations shared by all lanes of the block. The kernels are
//! generic over [`LaneWord`], and the sweep engine instantiates them at
//! `u64` only. The stages:
//!
//! * [`prune_fixpoint_sliced`] — Algorithm 2's pruning loop (trim +
//!   flexibility), lane-parallel, with a per-lane iteration counter;
//! * [`flexible_states_sliced`] — Algorithm 1 via lane-parallel boolean matrix
//!   powers of the masked path automaton: a state is flexible iff it carries
//!   closed walks of two consecutive lengths, which by Wielandt's primitivity
//!   bound happens within `(k−1)² + 1` powers for a k-label universe (each
//!   power is a k×k boolean matrix product whose entries are 64-lane words);
//! * [`exists_builder_sliced`] — the decision form of Algorithm 3: one entry
//!   fixed point per candidate subset, entries bit-sliced as "lane has derived
//!   root-set T" words, so a whole block shares each δ-tuple enumeration;
//! * [`classify_block_sliced`] — the full verdict dispatch mirroring
//!   [`crate::classifier::classify_complexity_with`], including the Algorithm
//!   4/5 subset searches (run as lane-peeled existence sweeps over the
//!   subsets of Σ).
//!
//! # The lanes-per-problem invariant
//!
//! All lanes of a block must be problems over the **same** universe with the
//! **full** declared label set Σ = `{0, …, num_labels−1}` (what
//! `problem_from_universe` produces for every family member: labels with no
//! configurations are declared but unused). Verdicts depend only on the
//! configuration mask, so a lane is fully described by its `u64`.
//!
//! # Lane peeling and scalar fallback
//!
//! Lanes whose verdict is decided retire their bit from the live mask after
//! every stage (unsolvable after the trim, polynomial after the pruning
//! fixpoint, constant/log*/log after the subset searches), so later — more
//! expensive — stages only run while undecided lanes remain. One stage
//! genuinely diverges per lane and falls back to the scalar kernels: the exact
//! Θ(n^{1/k}) exponent descent (Lemmas 5.28–5.29) when the per-lane pruning
//! iteration count exceeds 1 ([`LaneVerdict::NeedsPolyExponent`]; the caller
//! resolves such lanes with [`crate::scratch::poly_exponent_masked`], which
//! requires materializing the one problem). Everything else — including the
//! log*/constant searches, whose per-lane winning subsets differ but whose
//! *verdicts* are pure existence questions — stays bit-sliced.

use crate::classifier::Complexity;

/// Number of problems classified per block: the lanes of one `u64`
/// [`LaneWord`].
pub const LANES: usize = 64;

/// A machine word holding one bit lane per problem — the element type every
/// bit-sliced kernel operates on. `u64` (64 lanes) is its one impl. All
/// methods are branch-free except the queries (`is_zero`, `test_bit`,
/// `for_each_lane`).
pub trait LaneWord: Copy + Eq + Send + Sync + std::fmt::Debug + 'static {
    /// Number of bit lanes (problems per block) this word carries.
    const LANES: usize;
    /// The word with every lane clear.
    const ZERO: Self;

    /// The word with the low `n` lanes set (`n == LANES` gives all ones).
    ///
    /// # Panics
    ///
    /// May panic (in debug builds) when `n > LANES`.
    fn lanes_mask(n: usize) -> Self;
    /// Lane-wise AND.
    fn and(self, other: Self) -> Self;
    /// Lane-wise OR.
    fn or(self, other: Self) -> Self;
    /// Lane-wise AND-NOT: the lanes of `self` not set in `other`.
    fn andnot(self, other: Self) -> Self;
    /// `true` iff no lane is set.
    fn is_zero(self) -> bool;
    /// Number of set lanes.
    fn count_lanes(self) -> u32;
    /// Sets lane `j`.
    fn set_bit(&mut self, j: usize);
    /// `true` iff lane `j` is set.
    fn test_bit(self, j: usize) -> bool;
    /// Calls `f(j)` for every set lane index `j`, in ascending order.
    fn for_each_lane(self, f: impl FnMut(usize));
}

impl LaneWord for u64 {
    const LANES: usize = 64;
    const ZERO: Self = 0;

    #[inline]
    fn lanes_mask(n: usize) -> Self {
        debug_assert!(n <= 64);
        if n >= 64 {
            !0
        } else {
            (1u64 << n) - 1
        }
    }

    #[inline]
    fn and(self, other: Self) -> Self {
        self & other
    }

    #[inline]
    fn or(self, other: Self) -> Self {
        self | other
    }

    #[inline]
    fn andnot(self, other: Self) -> Self {
        self & !other
    }

    #[inline]
    fn is_zero(self) -> bool {
        self == 0
    }

    #[inline]
    fn count_lanes(self) -> u32 {
        self.count_ones()
    }

    #[inline]
    fn set_bit(&mut self, j: usize) {
        *self |= 1u64 << j;
    }

    #[inline]
    fn test_bit(self, j: usize) -> bool {
        self >> j & 1 != 0
    }

    #[inline]
    fn for_each_lane(self, mut f: impl FnMut(usize)) {
        let mut bits = self;
        while bits != 0 {
            f(bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// The lane width of the bit-sliced sweep engine: one `u64` word, 64
/// problems per kernel pass. It is the only width; the type stays a
/// parameter of `ClassificationEngine::sweep_resumable_bitsliced` so that
/// callers written against it keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneWidth {
    /// 64 lanes (`u64`).
    #[default]
    W64,
}

impl LaneWidth {
    /// Number of lanes (problems per block) at this width.
    pub fn lanes(self) -> usize {
        LANES
    }
}

/// Maximum number of labels a sliced universe supports. The 63-configuration
/// mask limit keeps realistic families far below this (δ = 2 caps at 4 labels,
/// δ = 1 at 7), matching `MAX_CANONICAL_ENUM_LABELS` on the enumeration side.
pub const MAX_SLICE_LABELS: usize = 8;

/// The dense shared configuration table of a (δ, Σ) universe, in the exact
/// order the family's configuration masks index (bit `i` of a mask ↔ entry `i`
/// here). Built once per family and shared by every block.
#[derive(Debug, Clone)]
pub struct SlicedUniverse {
    delta: usize,
    num_labels: usize,
    /// Parent label index per configuration.
    parents: Vec<u8>,
    /// Child label indices, flattened: configuration `i` owns
    /// `children[i*delta .. (i+1)*delta]`.
    children: Vec<u8>,
    /// Per configuration, the set of labels it mentions (bit per label).
    label_bits: Vec<u16>,
    /// Per configuration, whether the parent repeats among the children (the
    /// "special configuration" predicate of Algorithm 5).
    special: Vec<bool>,
    /// Configuration indices grouped by parent label.
    by_parent: Vec<Vec<u32>>,
    /// The non-empty subsets of Σ in ascending (size, bitmask) order — the
    /// enumeration order of Algorithms 4–5 (`2^k − 1` entries).
    subsets_by_size: Vec<u16>,
}

impl SlicedUniverse {
    /// An empty universe over `num_labels` labels; populate it with
    /// [`Self::push_config`] in mask-bit order.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is zero or `num_labels` is outside
    /// `1..=MAX_SLICE_LABELS`.
    pub fn new(delta: usize, num_labels: usize) -> Self {
        assert!(delta >= 1, "delta must be positive");
        assert!(
            (1..=MAX_SLICE_LABELS).contains(&num_labels),
            "sliced universes support 1..={MAX_SLICE_LABELS} labels, got {num_labels}"
        );
        let mut subsets_by_size: Vec<u16> = (1..1u16 << num_labels).collect();
        subsets_by_size.sort_unstable_by_key(|&s| (s.count_ones(), s));
        SlicedUniverse {
            delta,
            num_labels,
            parents: Vec::new(),
            children: Vec::new(),
            label_bits: Vec::new(),
            special: Vec::new(),
            by_parent: vec![Vec::new(); num_labels],
            subsets_by_size,
        }
    }

    /// Appends one configuration and returns its mask-bit index.
    ///
    /// # Panics
    ///
    /// Panics when the universe is full (63 configurations, the mask limit),
    /// when `children.len() != delta`, or on an out-of-range label index.
    pub fn push_config(&mut self, parent: usize, children: &[usize]) -> usize {
        assert!(
            self.len() < 63,
            "a sliced universe holds at most 63 configurations"
        );
        assert_eq!(
            children.len(),
            self.delta,
            "configuration arity must equal delta"
        );
        assert!(parent < self.num_labels);
        let index = self.len();
        let mut bits = 1u16 << parent;
        let mut special = false;
        for &c in children {
            assert!(c < self.num_labels);
            bits |= 1 << c;
            special |= c == parent;
            self.children.push(c as u8);
        }
        self.parents.push(parent as u8);
        self.label_bits.push(bits);
        self.special.push(special);
        self.by_parent[parent].push(index as u32);
        index
    }

    /// Number of configurations (= mask bits).
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// `true` when no configuration has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// The universe's δ.
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// The universe's |Σ|.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// The children of configuration `i`.
    fn children_of(&self, i: usize) -> &[u8] {
        &self.children[i * self.delta..(i + 1) * self.delta]
    }
}

/// Per-lane outcome of [`classify_block_sliced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneVerdict {
    /// The verdict was fully decided in lockstep.
    Decided(Complexity),
    /// The lane is polynomial with ≥ 2 pruning iterations: the exact exponent
    /// needs the scalar trim/flexible-SCC descent
    /// ([`crate::scratch::poly_exponent_masked`]) on the materialized problem.
    NeedsPolyExponent,
}

/// Fixed-point statistics of one block, for the sweep's lane-utilization
/// report: `live_lane_rounds / fixpoint_rounds` is the average number of live
/// (not yet converged or retired) lanes per fixed-point round, over both the
/// solvability trim and the pruning loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Total trim + pruning fixed-point rounds executed for the block.
    pub fixpoint_rounds: u64,
    /// Sum over those rounds of the number of live lanes entering the round.
    pub live_lane_rounds: u64,
}

/// Reusable per-worker buffers for the bit-sliced kernels: the transposed
/// configuration table of the current block plus every lane-word the stages
/// iterate on, generic over the [`LaneWord`] `W` (`u64`: 64 lanes per
/// block). All buffers grow to the universe's size on first use and are
/// reused; a warmed scratch serves every further block without touching the
/// allocator (pinned by `crates/lcl-core/tests/zero_alloc.rs`).
#[derive(Debug)]
pub struct BitSliceScratch<W: LaneWord = u64> {
    /// Transposed block: per configuration, the lanes containing it.
    config_lanes: Vec<W>,
    /// `config_lanes` restricted to the current allowed-label sets.
    config_active: Vec<W>,
    /// Per label, the lanes in which it is currently allowed.
    allowed: [W; MAX_SLICE_LABELS],
    /// Per label, the lanes in which it survived the solvability trim.
    sustaining: [W; MAX_SLICE_LABELS],
    /// Per label, the lanes in which it is flexible (Algorithm 1 output).
    flex: [W; MAX_SLICE_LABELS],
    /// Lane-parallel adjacency of the masked path automaton.
    succ: [[W; MAX_SLICE_LABELS]; MAX_SLICE_LABELS],
    /// Current boolean matrix power of `succ`.
    pow: [[W; MAX_SLICE_LABELS]; MAX_SLICE_LABELS],
    /// Next power (double buffer).
    pow_next: [[W; MAX_SLICE_LABELS]; MAX_SLICE_LABELS],
    /// Diagonal of the previous power.
    diag_prev: [W; MAX_SLICE_LABELS],
    /// Per-lane pruning iteration count (Algorithm 2's `k`), `W::LANES` long.
    iterations: Vec<u32>,
    /// Algorithm 3 entries without the special-leaf flag: per root-label set
    /// `T` (indexed by label bitmask), the lanes that derived `(T, false)`.
    present: Vec<W>,
    /// Entries with the special-leaf flag set: lanes that derived `(T, true)`.
    present_flagged: Vec<W>,
    /// Per label, the lanes producing it from the current δ-tuple.
    produced: [W; MAX_SLICE_LABELS],
    /// Configurations lying inside the current subset.
    subset_configs: Vec<u32>,
    /// Non-empty subsets of the current subset (odometer symbols).
    sub_list: Vec<u16>,
    /// Odometer over `sub_list` indices, one digit per child slot.
    tuple: [u32; MAX_SLICE_LABELS],
}

impl<W: LaneWord> Default for BitSliceScratch<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: LaneWord> BitSliceScratch<W> {
    /// Creates an empty scratch. Buffers grow on first use and are reused.
    pub fn new() -> Self {
        BitSliceScratch {
            config_lanes: Vec::new(),
            config_active: Vec::new(),
            allowed: [W::ZERO; MAX_SLICE_LABELS],
            sustaining: [W::ZERO; MAX_SLICE_LABELS],
            flex: [W::ZERO; MAX_SLICE_LABELS],
            succ: [[W::ZERO; MAX_SLICE_LABELS]; MAX_SLICE_LABELS],
            pow: [[W::ZERO; MAX_SLICE_LABELS]; MAX_SLICE_LABELS],
            pow_next: [[W::ZERO; MAX_SLICE_LABELS]; MAX_SLICE_LABELS],
            diag_prev: [W::ZERO; MAX_SLICE_LABELS],
            iterations: Vec::new(),
            present: Vec::new(),
            present_flagged: Vec::new(),
            produced: [W::ZERO; MAX_SLICE_LABELS],
            subset_configs: Vec::new(),
            sub_list: Vec::new(),
            tuple: [0; MAX_SLICE_LABELS],
        }
    }

    /// Sizes every universe-dependent buffer (allocation-free once warm).
    fn prepare(&mut self, universe: &SlicedUniverse) {
        self.config_lanes.clear();
        self.config_lanes.resize(universe.len(), W::ZERO);
        self.config_active.clear();
        self.config_active.resize(universe.len(), W::ZERO);
        if self.iterations.len() < W::LANES {
            self.iterations.resize(W::LANES, 0);
        }
        let entry_space = 1usize << universe.num_labels;
        if self.present.len() < entry_space {
            self.present.resize(entry_space, W::ZERO);
            self.present_flagged.resize(entry_space, W::ZERO);
        }
    }

    /// Transposes `masks` into `config_lanes`: bit `j` of `config_lanes[i]`
    /// says "lane `j`'s mask contains configuration `i`".
    fn transpose(&mut self, universe: &SlicedUniverse, masks: &[u64]) {
        for lanes in &mut self.config_lanes {
            *lanes = W::ZERO;
        }
        for (j, &mask) in masks.iter().enumerate() {
            debug_assert_eq!(
                mask >> universe.len(),
                0,
                "mask uses bits outside the universe"
            );
            let mut bits = mask;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                self.config_lanes[i].set_bit(j);
                bits &= bits - 1;
            }
        }
    }

    /// `config_active[i] = config_lanes[i]` restricted to lanes in which every
    /// label of configuration `i` is in `allowed`.
    fn refresh_active(&mut self, universe: &SlicedUniverse) {
        for (i, active) in self.config_active.iter_mut().enumerate() {
            let mut lanes = self.config_lanes[i];
            let mut labels = universe.label_bits[i];
            while labels != 0 {
                let l = labels.trailing_zeros() as usize;
                lanes = lanes.and(self.allowed[l]);
                labels &= labels - 1;
            }
            *active = lanes;
        }
    }
}

/// Algorithm 1, bit-sliced: computes the flexible labels of every lane's
/// problem restricted to the lane's current `allowed` sets (read from
/// `scratch.allowed`, written to `scratch.flex`).
///
/// A label `a` is flexible iff the masked path automaton has closed walks of
/// two consecutive lengths through `a` (closed walks stay inside `a`'s SCC, so
/// consecutive lengths force period 1, and any closed walk witnesses a cycle;
/// conversely a primitive SCC of m ≤ k states has all-positive diagonal from
/// Wielandt's exponent `(m−1)² + 1` on). Checking walk lengths `1 ..= (k−1)²+1`
/// therefore decides every lane exactly, as k×k boolean matrix powers whose
/// entries are `W::LANES`-lane words.
pub fn flexible_states_sliced<W: LaneWord>(
    universe: &SlicedUniverse,
    scratch: &mut BitSliceScratch<W>,
) {
    let k = universe.num_labels;
    let delta = universe.delta;
    scratch.refresh_active(universe);
    for row in scratch.succ.iter_mut().take(k) {
        row[..k].fill(W::ZERO);
    }
    for (i, &active) in scratch.config_active.iter().enumerate() {
        if active.is_zero() {
            continue;
        }
        let from = universe.parents[i] as usize;
        for &child in &universe.children[i * delta..(i + 1) * delta] {
            let slot = &mut scratch.succ[from][child as usize];
            *slot = slot.or(active);
        }
    }
    for a in 0..k {
        scratch.pow[a][..k].copy_from_slice(&scratch.succ[a][..k]);
        scratch.diag_prev[a] = scratch.succ[a][a];
        scratch.flex[a] = W::ZERO;
    }
    // Wielandt bound for the largest possible SCC (all k labels).
    let max_walk = (k - 1) * (k - 1) + 1;
    for _ in 1..=max_walk {
        for a in 0..k {
            for b in 0..k {
                let mut lanes = W::ZERO;
                for m in 0..k {
                    lanes = lanes.or(scratch.pow[a][m].and(scratch.succ[m][b]));
                }
                scratch.pow_next[a][b] = lanes;
            }
        }
        for a in 0..k {
            let diag = scratch.pow_next[a][a];
            scratch.flex[a] = scratch.flex[a].or(scratch.diag_prev[a].and(diag));
            scratch.diag_prev[a] = diag;
        }
        std::mem::swap(&mut scratch.pow, &mut scratch.pow_next);
    }
    for a in 0..k {
        scratch.flex[a] = scratch.flex[a].and(scratch.allowed[a]);
    }
}

/// The solvability trim (greatest self-sustaining label set), bit-sliced:
/// starting from the full Σ in every live lane, repeatedly drops labels with
/// no continuation inside the surviving set. Writes the per-label fixpoint
/// lanes to `scratch.sustaining`; a lane is solvable iff some label survives.
fn trim_sliced<W: LaneWord>(
    universe: &SlicedUniverse,
    scratch: &mut BitSliceScratch<W>,
    live: W,
    stats: &mut BlockStats,
) {
    let k = universe.num_labels;
    for l in 0..k {
        scratch.allowed[l] = live;
    }
    let mut working = live;
    while !working.is_zero() {
        stats.fixpoint_rounds += 1;
        stats.live_lane_rounds += u64::from(working.count_lanes());
        scratch.refresh_active(universe);
        let mut changed = W::ZERO;
        for l in 0..k {
            let mut continued = W::ZERO;
            for &i in &universe.by_parent[l] {
                continued = continued.or(scratch.config_active[i as usize]);
            }
            let next = scratch.allowed[l].and(continued);
            changed = changed.or(scratch.allowed[l].andnot(next));
            scratch.allowed[l] = next;
        }
        // A lane with no change is at its fixpoint for good (the trim step is
        // a deterministic monotone function of the lane's allowed sets).
        working = working.and(changed);
    }
    scratch.sustaining[..k].copy_from_slice(&scratch.allowed[..k]);
}

/// Algorithm 2's pruning loop, bit-sliced: iterates [`flexible_states_sliced`]
/// to a fixed point in every live lane, counting each lane's non-empty pruning
/// iterations in `scratch.iterations` (the fixpoint label lanes stay in
/// `scratch.allowed`). Mirrors [`crate::scratch::prune_fixpoint_masked`]
/// per lane.
pub fn prune_fixpoint_sliced<W: LaneWord>(
    universe: &SlicedUniverse,
    scratch: &mut BitSliceScratch<W>,
    live: W,
    stats: &mut BlockStats,
) {
    let k = universe.num_labels;
    for l in 0..k {
        scratch.allowed[l] = live;
    }
    if scratch.iterations.len() < W::LANES {
        scratch.iterations.resize(W::LANES, 0);
    }
    scratch.iterations.fill(0);
    let mut working = live;
    while !working.is_zero() {
        stats.fixpoint_rounds += 1;
        stats.live_lane_rounds += u64::from(working.count_lanes());
        flexible_states_sliced(universe, scratch);
        let mut removed = W::ZERO;
        for l in 0..k {
            removed = removed.or(scratch.allowed[l].andnot(scratch.flex[l]));
            scratch.allowed[l] = scratch.flex[l];
        }
        removed = removed.and(working);
        let iterations = &mut scratch.iterations;
        removed.for_each_lane(|j| iterations[j] += 1);
        working = removed;
    }
}

/// `true` iff `children` can be matched one-to-one onto the slot sets (child
/// `c` fits slot `s` iff bit `c` of `slots[s]` is set) — the lane-independent
/// twin of [`crate::configuration::children_match_slots`] on label indices.
fn children_fit_slots(children: &[u8], slots: &[u16]) -> bool {
    match children.len() {
        1 => slots[0] & (1 << children[0]) != 0,
        2 => {
            let (c0, c1) = (1u16 << children[0], 1u16 << children[1]);
            (slots[0] & c0 != 0 && slots[1] & c1 != 0) || (slots[0] & c1 != 0 && slots[1] & c0 != 0)
        }
        _ => fit_backtrack(children, slots, 0, 0),
    }
}

fn fit_backtrack(children: &[u8], slots: &[u16], at: usize, used: u32) -> bool {
    if at == children.len() {
        return true;
    }
    let want = 1u16 << children[at];
    for (s, &slot) in slots.iter().enumerate() {
        if used & (1 << s) == 0
            && slot & want != 0
            && fit_backtrack(children, slots, at + 1, used | (1 << s))
        {
            return true;
        }
    }
    false
}

/// The decision form of Algorithm 3, bit-sliced: for each lane in `active`,
/// does the lane's problem restricted to `subset` (a label bitmask) admit a
/// certificate builder — with the special label `target` producible on a leaf
/// when one is given? Returns the success lanes. Mirrors
/// [`crate::scratch::exists_builder_masked`] per lane: same entry space
/// (root-label set × special-leaf flag), same fixed point, evaluated for the
/// whole block per δ-tuple.
///
/// `target`, when given, must be a member of `subset`.
pub fn exists_builder_sliced<W: LaneWord>(
    universe: &SlicedUniverse,
    scratch: &mut BitSliceScratch<W>,
    subset: u16,
    target: Option<usize>,
    active: W,
) -> W {
    debug_assert_ne!(subset, 0);
    debug_assert!(target.is_none_or(|t| subset & (1 << t) != 0));
    let delta = universe.delta;

    // The restriction must have at least one configuration (Algorithm 3 on an
    // empty configuration set finds nothing), and only configurations inside
    // the subset participate at all.
    scratch.subset_configs.clear();
    let mut has_config = W::ZERO;
    for (i, &bits) in universe.label_bits.iter().enumerate() {
        if bits & !subset == 0 {
            scratch.subset_configs.push(i as u32);
            has_config = has_config.or(scratch.config_lanes[i]);
        }
    }
    let active = active.and(has_config);
    if active.is_zero() {
        return W::ZERO;
    }

    // Seed entries: one singleton per subset label, flagged iff it is the
    // target. A singleton subset is therefore decided immediately (the seed
    // entry *is* the wanted entry).
    if subset.count_ones() == 1 {
        return active;
    }
    let mut sub = subset;
    scratch.sub_list.clear();
    while sub != 0 {
        scratch.sub_list.push(sub);
        let lanes_slot = sub as usize;
        scratch.present[lanes_slot] = W::ZERO;
        scratch.present_flagged[lanes_slot] = W::ZERO;
        sub = (sub - 1) & subset;
    }
    let mut labels = subset;
    while labels != 0 {
        let l = labels.trailing_zeros() as usize;
        if target == Some(l) {
            scratch.present_flagged[1 << l] = active;
        } else {
            scratch.present[1 << l] = active;
        }
        labels &= labels - 1;
    }

    let symbols = scratch.sub_list.len();
    let mut success = W::ZERO;
    let mut remaining = active;
    loop {
        let mut added = false;
        scratch.tuple[..delta].fill(0);
        'tuples: loop {
            // Availability per lane: all slots present (any flag), all slots
            // present unflagged, and some slot present flagged.
            let mut all_any = remaining;
            let mut all_unflagged = remaining;
            let mut some_flagged = W::ZERO;
            let mut slots = [0u16; MAX_SLICE_LABELS];
            for (slot, &digit) in slots.iter_mut().zip(&scratch.tuple[..delta]) {
                let t = scratch.sub_list[digit as usize];
                *slot = t;
                let plain = scratch.present[t as usize];
                let flagged = scratch.present_flagged[t as usize];
                all_any = all_any.and(plain.or(flagged));
                all_unflagged = all_unflagged.and(plain);
                some_flagged = some_flagged.or(flagged);
            }
            let all_flagged = all_any.and(some_flagged);
            if !all_any.is_zero() {
                // Lanes producing each parent from this tuple.
                let k = universe.num_labels;
                scratch.produced[..k].fill(W::ZERO);
                for &ci in &scratch.subset_configs {
                    let i = ci as usize;
                    if children_fit_slots(universe.children_of(i), &slots[..delta]) {
                        let slot = &mut scratch.produced[universe.parents[i] as usize];
                        *slot = slot.or(scratch.config_lanes[i]);
                    }
                }
                // Group lanes by their exact produced set and insert entries.
                for si in 0..symbols {
                    let t = scratch.sub_list[si];
                    let mut exact_unflagged = all_unflagged;
                    let mut exact_flagged = all_flagged;
                    let mut bits = subset;
                    while bits != 0 {
                        let l = bits.trailing_zeros() as usize;
                        let produced = scratch.produced[l];
                        if t & (1 << l) != 0 {
                            exact_unflagged = exact_unflagged.and(produced);
                            exact_flagged = exact_flagged.and(produced);
                        } else {
                            exact_unflagged = exact_unflagged.andnot(produced);
                            exact_flagged = exact_flagged.andnot(produced);
                        }
                        bits &= bits - 1;
                    }
                    let new_unflagged = exact_unflagged.andnot(scratch.present[t as usize]);
                    if !new_unflagged.is_zero() {
                        scratch.present[t as usize] = scratch.present[t as usize].or(new_unflagged);
                        added = true;
                    }
                    let new_flagged = exact_flagged.andnot(scratch.present_flagged[t as usize]);
                    if !new_flagged.is_zero() {
                        scratch.present_flagged[t as usize] =
                            scratch.present_flagged[t as usize].or(new_flagged);
                        added = true;
                    }
                }
            }
            // Advance the δ-digit odometer over the subset symbols.
            let mut pos = 0;
            loop {
                if pos == delta {
                    break 'tuples;
                }
                scratch.tuple[pos] += 1;
                if (scratch.tuple[pos] as usize) < symbols {
                    break;
                }
                scratch.tuple[pos] = 0;
                pos += 1;
            }
        }
        // Wanted entry: the full subset, flagged iff a target was required.
        let wanted = if target.is_some() {
            scratch.present_flagged[subset as usize]
        } else {
            scratch.present[subset as usize]
        };
        let won = wanted.and(remaining);
        success = success.or(won);
        remaining = remaining.andnot(won);
        if !added || remaining.is_zero() {
            return success;
        }
    }
}

/// Lanes (within `eligible`) in which `subset` is self-sustaining: every
/// subset label heads some configuration of the lane lying fully inside the
/// subset.
fn self_sustaining_lanes<W: LaneWord>(
    universe: &SlicedUniverse,
    scratch: &BitSliceScratch<W>,
    subset: u16,
    eligible: W,
) -> W {
    let mut lanes = eligible;
    let mut labels = subset;
    while labels != 0 && !lanes.is_zero() {
        let l = labels.trailing_zeros() as usize;
        let mut continued = W::ZERO;
        for &i in &universe.by_parent[l] {
            if universe.label_bits[i as usize] & !subset == 0 {
                continued = continued.or(scratch.config_lanes[i as usize]);
            }
        }
        lanes = lanes.and(continued);
        labels &= labels - 1;
    }
    lanes
}

/// Classifies a block of up to `W::LANES` configuration masks in lockstep,
/// mirroring [`crate::classifier::classify_complexity_with`] on every lane
/// (same decision order: solvability, pruning fixpoint, Algorithm 4,
/// Algorithm 5). `verdicts` is resized to `masks.len()`; every lane is either
/// fully decided or flagged [`LaneVerdict::NeedsPolyExponent`] for the scalar
/// exponent descent (see the module docs on fallback). Returns the block's
/// fixed-point statistics.
///
/// # Panics
///
/// Panics if `masks` has more than `W::LANES` entries.
pub fn classify_block_sliced<W: LaneWord>(
    universe: &SlicedUniverse,
    masks: &[u64],
    scratch: &mut BitSliceScratch<W>,
    verdicts: &mut Vec<LaneVerdict>,
) -> BlockStats {
    assert!(
        masks.len() <= W::LANES,
        "a block holds at most {} masks at this lane width",
        W::LANES
    );
    let mut stats = BlockStats::default();
    verdicts.clear();
    verdicts.resize(masks.len(), LaneVerdict::Decided(Complexity::Unsolvable));
    if masks.is_empty() {
        return stats;
    }
    let all = W::lanes_mask(masks.len());
    let k = universe.num_labels;
    scratch.prepare(universe);
    scratch.transpose(universe, masks);

    // Stage 1: solvability trim. Lanes with no sustaining label are
    // unsolvable and retire.
    trim_sliced(universe, scratch, all, &mut stats);
    let mut sustain_any = W::ZERO;
    for l in 0..k {
        sustain_any = sustain_any.or(scratch.sustaining[l]);
    }
    let mut live = all.and(sustain_any);

    // Stage 2: pruning fixpoint. Lanes whose fixpoint is empty are polynomial
    // and retire (exponent 1 when pruning took at most one iteration, scalar
    // descent otherwise).
    prune_fixpoint_sliced(universe, scratch, live, &mut stats);
    let mut fix_any = W::ZERO;
    for l in 0..k {
        fix_any = fix_any.or(scratch.allowed[l]);
    }
    let poly = live.andnot(fix_any);
    {
        let iterations = &scratch.iterations;
        poly.for_each_lane(|j| {
            verdicts[j] = if iterations[j] <= 1 {
                LaneVerdict::Decided(Complexity::Polynomial { exponent: 1 })
            } else {
                LaneVerdict::NeedsPolyExponent
            };
        });
    }
    live = live.andnot(poly);

    // Stage 3: Algorithm 4 as a lane-peeled existence sweep — a lane is
    // O(log* n)-solvable iff *some* subset of Σ is self-sustaining in it and
    // admits a builder. Self-sustaining subsets are automatically subsets of
    // the lane's greatest self-sustaining set, so no per-lane subset spaces
    // are needed; decided lanes retire their bit.
    let mut log_star_found = W::ZERO;
    let mut undecided = live;
    for si in 0..universe.subsets_by_size.len() {
        if undecided.is_zero() {
            break;
        }
        let subset = universe.subsets_by_size[si];
        let eligible = self_sustaining_lanes(universe, scratch, subset, undecided);
        if eligible.is_zero() {
            continue;
        }
        let won = exists_builder_sliced(universe, scratch, subset, None, eligible);
        log_star_found = log_star_found.or(won);
        undecided = undecided.andnot(won);
    }
    live.andnot(log_star_found)
        .for_each_lane(|j| verdicts[j] = LaneVerdict::Decided(Complexity::Log));

    // Stage 4: Algorithm 5, same sweep shape, only over lanes already known
    // O(log* n) that contain a special configuration at all; per subset, one
    // builder run per distinct special parent.
    let mut special_any = W::ZERO;
    for (i, &is_special) in universe.special.iter().enumerate() {
        if is_special {
            special_any = special_any.or(scratch.config_lanes[i]);
        }
    }
    let mut constant_found = W::ZERO;
    let mut undecided = log_star_found.and(special_any);
    for si in 0..universe.subsets_by_size.len() {
        if undecided.is_zero() {
            break;
        }
        let subset = universe.subsets_by_size[si];
        let eligible = self_sustaining_lanes(universe, scratch, subset, undecided);
        if eligible.is_zero() {
            continue;
        }
        // Lanes holding a special configuration with parent `p` inside the
        // subset, per parent.
        let mut parents = subset;
        while parents != 0 {
            let p = parents.trailing_zeros() as usize;
            parents &= parents - 1;
            let mut special_p = W::ZERO;
            for &i in &universe.by_parent[p] {
                let i = i as usize;
                if universe.special[i] && universe.label_bits[i] & !subset == 0 {
                    special_p = special_p.or(scratch.config_lanes[i]);
                }
            }
            let candidates = eligible.and(special_p).and(undecided);
            if candidates.is_zero() {
                continue;
            }
            let won = exists_builder_sliced(universe, scratch, subset, Some(p), candidates);
            constant_found = constant_found.or(won);
            undecided = undecided.andnot(won);
        }
    }
    log_star_found.for_each_lane(|j| {
        verdicts[j] = if constant_found.test_bit(j) {
            LaneVerdict::Decided(Complexity::Constant)
        } else {
            LaneVerdict::Decided(Complexity::LogStar)
        };
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LclProblem, ProblemBuilder};
    use crate::scratch::{
        exists_builder_masked, flexible_states_masked, prune_fixpoint_masked, ClassifyScratch,
    };
    use crate::{classify_complexity_with, Complexity, Label, LabelSet};

    /// The (δ=2, 2-label) configuration universe in family mask order
    /// (child multiset outer, parent inner — the order of
    /// `lcl_problems::random::configuration_universe`).
    fn two_label_universe_list() -> Vec<(usize, [usize; 2])> {
        let mut list = Vec::new();
        for children in [[0, 0], [0, 1], [1, 1]] {
            for parent in 0..2 {
                list.push((parent, children));
            }
        }
        list
    }

    fn two_label_sliced() -> SlicedUniverse {
        let mut u = SlicedUniverse::new(2, 2);
        for (parent, children) in two_label_universe_list() {
            u.push_config(parent, &children);
        }
        u
    }

    /// The problem with the given configuration mask, labels a=0, b=1 both
    /// always declared (the lanes-per-problem invariant).
    fn problem_at(mask: u64) -> LclProblem {
        let names = ["a", "b"];
        let mut b = ProblemBuilder::new(2);
        b.label("a");
        b.label("b");
        for (i, (p, cs)) in two_label_universe_list().into_iter().enumerate() {
            if mask & (1 << i) != 0 {
                b.configuration(names[p], &[names[cs[0]], names[cs[1]]]);
            }
        }
        b.build()
    }

    fn label_set(mask: u16) -> LabelSet {
        let mut out = LabelSet::EMPTY;
        let mut bits = mask;
        while bits != 0 {
            out.insert(Label(bits.trailing_zeros() as u16));
            bits &= bits - 1;
        }
        out
    }

    #[test]
    fn sliced_flexible_states_match_masked_kernel_exhaustively() {
        let universe = two_label_sliced();
        let masks: Vec<u64> = (0..64).collect();
        let mut sliced = BitSliceScratch::<u64>::new();
        sliced.prepare(&universe);
        sliced.transpose(&universe, &masks);
        let mut scalar = ClassifyScratch::new();
        for allowed_bits in 0u16..4 {
            for l in 0..2 {
                sliced.allowed[l] = if allowed_bits & (1 << l) != 0 { !0 } else { 0 };
            }
            flexible_states_sliced(&universe, &mut sliced);
            for (j, &mask) in masks.iter().enumerate() {
                let expected =
                    flexible_states_masked(&problem_at(mask), label_set(allowed_bits), &mut scalar);
                for l in 0..2u16 {
                    assert_eq!(
                        sliced.flex[l as usize] & (1 << j) != 0,
                        expected.contains(Label(l)),
                        "mask {mask}, allowed {allowed_bits:#b}, label {l}"
                    );
                }
            }
        }
    }

    #[test]
    fn sliced_prune_fixpoint_matches_masked_kernel_exhaustively() {
        let universe = two_label_sliced();
        let masks: Vec<u64> = (0..64).collect();
        let mut sliced = BitSliceScratch::<u64>::new();
        sliced.prepare(&universe);
        sliced.transpose(&universe, &masks);
        let mut stats = BlockStats::default();
        prune_fixpoint_sliced(&universe, &mut sliced, !0, &mut stats);
        let mut scalar = ClassifyScratch::new();
        for (j, &mask) in masks.iter().enumerate() {
            let (fixpoint, iterations) = prune_fixpoint_masked(&problem_at(mask), &mut scalar);
            for l in 0..2u16 {
                assert_eq!(
                    sliced.allowed[l as usize] & (1 << j) != 0,
                    fixpoint.contains(Label(l)),
                    "mask {mask}, label {l}"
                );
            }
            assert_eq!(
                sliced.iterations[j] as usize, iterations,
                "mask {mask}: iteration count"
            );
        }
        assert!(stats.fixpoint_rounds > 0);
    }

    #[test]
    fn sliced_builder_matches_masked_kernel_exhaustively() {
        let universe = two_label_sliced();
        let masks: Vec<u64> = (0..64).collect();
        let mut sliced = BitSliceScratch::<u64>::new();
        sliced.prepare(&universe);
        sliced.transpose(&universe, &masks);
        let mut scalar = ClassifyScratch::new();
        for subset in 1u16..4 {
            let targets: Vec<Option<usize>> = std::iter::once(None)
                .chain((0..2).filter(|&t| subset & (1 << t) != 0).map(Some))
                .collect();
            for target in targets {
                let won = exists_builder_sliced(&universe, &mut sliced, subset, target, !0);
                for (j, &mask) in masks.iter().enumerate() {
                    let expected = exists_builder_masked(
                        &problem_at(mask),
                        label_set(subset),
                        target.map(|t| Label(t as u16)),
                        &mut scalar,
                    );
                    assert_eq!(
                        won & (1 << j) != 0,
                        expected,
                        "mask {mask}, subset {subset:#b}, target {target:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn block_classification_matches_scalar_exhaustively() {
        let universe = two_label_sliced();
        let masks: Vec<u64> = (0..64).collect();
        let mut sliced = BitSliceScratch::<u64>::new();
        let mut verdicts = Vec::new();
        let stats = classify_block_sliced(&universe, &masks, &mut sliced, &mut verdicts);
        assert!(stats.fixpoint_rounds > 0);
        assert!(stats.live_lane_rounds >= stats.fixpoint_rounds);
        let mut scalar = ClassifyScratch::new();
        for (j, &mask) in masks.iter().enumerate() {
            let problem = problem_at(mask);
            let expected = classify_complexity_with(&problem, &mut scalar);
            let got = match verdicts[j] {
                LaneVerdict::Decided(c) => c,
                LaneVerdict::NeedsPolyExponent => {
                    let sustaining = crate::solvability::solvable_labels(&problem);
                    Complexity::Polynomial {
                        exponent: crate::scratch::poly_exponent_masked(
                            &problem,
                            sustaining,
                            &mut scalar,
                        ),
                    }
                }
            };
            assert_eq!(got, expected, "mask {mask}");
        }
    }

    #[test]
    fn partial_and_duplicate_blocks_agree_with_full_blocks() {
        let universe = two_label_sliced();
        let mut sliced = BitSliceScratch::<u64>::new();
        let mut verdicts = Vec::new();
        // A short block with duplicate lanes: verdicts are per-lane, so
        // duplicates must agree, and lane count < 64 must work.
        let masks = [5u64, 63, 5, 0, 42];
        classify_block_sliced(&universe, &masks, &mut sliced, &mut verdicts);
        assert_eq!(verdicts.len(), masks.len());
        assert_eq!(verdicts[0], verdicts[2]);
        let mut scalar = ClassifyScratch::new();
        for (j, &mask) in masks.iter().enumerate() {
            let expected = classify_complexity_with(&problem_at(mask), &mut scalar);
            assert_eq!(verdicts[j], LaneVerdict::Decided(expected), "mask {mask}");
        }
        // The empty block is a no-op.
        let stats = classify_block_sliced(&universe, &[], &mut sliced, &mut verdicts);
        assert_eq!(verdicts.len(), 0);
        assert_eq!(stats, BlockStats::default());
    }

    #[test]
    fn lane_word_bit_operations_are_consistent() {
        fn check<W: LaneWord>() {
            assert!(W::ZERO.is_zero());
            assert_eq!(W::ZERO.count_lanes(), 0);
            assert_eq!(W::lanes_mask(0), W::ZERO);
            let full = W::lanes_mask(W::LANES);
            assert_eq!(full.count_lanes() as usize, W::LANES);
            for &n in &[1usize, W::LANES / 2, W::LANES - 1, W::LANES] {
                let mask = W::lanes_mask(n);
                assert_eq!(mask.count_lanes() as usize, n, "lanes_mask({n})");
                let mut seen = Vec::new();
                mask.for_each_lane(|j| seen.push(j));
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "lanes_mask({n})");
                for j in 0..W::LANES {
                    assert_eq!(mask.test_bit(j), j < n, "lanes_mask({n}) bit {j}");
                }
            }
            let mut word = W::ZERO;
            for j in [0, W::LANES / 2, W::LANES - 1] {
                word.set_bit(j);
                assert!(word.test_bit(j));
            }
            assert_eq!(word.count_lanes(), 3.min(W::LANES as u32));
            assert_eq!(word.or(full), full);
            assert_eq!(word.and(full), word);
            assert_eq!(word.andnot(word), W::ZERO);
            assert_eq!(full.andnot(word).count_lanes() as usize, W::LANES - 3);
        }
        check::<u64>();
    }
}
