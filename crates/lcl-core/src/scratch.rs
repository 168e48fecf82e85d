//! Reusable scratch buffers and masked decision kernels — the zero-allocation
//! classification hot path.
//!
//! # The scratch-buffer contract
//!
//! A cache-miss classification through [`crate::classifier::classify_complexity_with`]
//! performs **no `LclProblem` clone and no per-subset problem reconstruction**:
//! every stage of the decision procedure (the solvability fixed point, Algorithm
//! 2's pruning loop, and the subset searches of Algorithms 4–5) operates on the
//! *parent* problem's dense configuration tables, restricted by **masking** with a
//! [`LabelSet`] instead of materializing a restricted [`LclProblem`]. The only
//! mutable state the kernels need — dense successor/predecessor tables for the
//! masked path-form automaton, BFS queues, and the entry and derivation lists
//! of Algorithm 3's fixed point — lives in a [`ClassifyScratch`] that callers
//! thread through the stages.
//!
//! The contract is *amortized* zero allocation: the buffers grow to a
//! high-water mark on the first classifications and are then reused (`clear()`
//! retains capacity), so a warmed-up scratch serves every further cache-miss
//! classification without touching the allocator. The
//! `crates/lcl-core/tests/zero_alloc.rs` integration test pins this down with a
//! counting global allocator.
//!
//! Three ways to get a scratch:
//!
//! * [`ClassifyScratch::new`] — own one explicitly and pass it to
//!   [`crate::classifier::classify_complexity_with`] (what the engine's batch
//!   workers and the sweep driver do: one scratch per worker thread, no sharing,
//!   no locks);
//! * [`with_thread_scratch`] — borrow the calling thread's lazily initialized
//!   scratch (what the plain [`crate::classify_complexity`] wrapper and the
//!   full-report certificate searches use);
//! * implicitly via [`crate::classify`] / [`crate::classify_complexity`], which
//!   route through the thread-local.
//!
//! # Masked kernels
//!
//! * [`flexible_states_masked`] — Algorithm 1 (path-flexible states of the
//!   restriction to `allowed`) without building the restriction or an
//!   [`crate::automaton::Automaton`];
//! * [`prune_fixpoint_masked`] — Algorithm 2's pruning loop as a pure
//!   [`LabelSet`] iteration; agrees with
//!   [`crate::log_certificate::find_log_certificate`] on the fixpoint labels and
//!   the iteration count `k` (asserted by differential tests below);
//! * [`exists_builder_masked`] — Algorithm 3, the one implementation: does
//!   the restriction to `subset` admit a certificate builder (optionally
//!   producing the special label on a leaf)? It stops at the first success
//!   entry and records each derived entry's δ child indices in the scratch,
//!   so [`extract_builder`] can hand the report path the winning
//!   [`CertificateBuilder`] without a second search. The recording buffer
//!   obeys the same high-water reuse as the others.
//! * [`trim_masked`] — Lemma 5.28's `trim`: the greatest subset of `allowed`
//!   in which every label heads a configuration lying fully inside the subset
//!   (equals `solvable_labels(problem.restrict_to(allowed))` without the
//!   restriction);
//! * [`poly_exponent_masked`] — the exact Θ(n^{1/k}) exponent of a
//!   polynomial-region problem: the depth of the longest trim/flexible-SCC
//!   descent (Lemma 5.29), run as an explicit DFS over [`LabelSet`] frames so
//!   the batch hot path stays allocation-free. The report path's
//!   [`crate::poly::find_poly_certificate`] materializes the witnessing chain;
//!   differential tests assert the two agree on the exponent.

use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::ops::Range;

use crate::builder::{CertificateBuilder, Derivation, RootSetEntry};
use crate::configuration::children_match_slots;
use crate::label::Label;
use crate::label_set::LabelSet;
use crate::problem::LclProblem;

/// Reusable buffers for the masked decision kernels. See the module
/// documentation for the ownership contract.
#[derive(Debug, Default)]
pub struct ClassifyScratch {
    /// Masked-automaton successors, indexed by `allowed.rank(state)`.
    succ: Vec<LabelSet>,
    /// Masked-automaton predecessors, same indexing.
    pred: Vec<LabelSet>,
    /// BFS levels for the period computation (`i64::MIN` = unvisited).
    level: Vec<i64>,
    /// BFS queue for the period computation.
    queue: VecDeque<Label>,
    /// Algorithm 3's entry list: producible root-label sets plus the
    /// special-leaf flag. After a successful run its last entry is the
    /// success entry.
    entries: Vec<(LabelSet, bool)>,
    /// The δ child-entry indices of every derived entry, in entry order
    /// (the singletons at the front of `entries` have none).
    derivations: Vec<usize>,
    /// The special label of the last [`exists_builder_masked`] run.
    builder_target: Option<Label>,
    /// Whether the last [`exists_builder_masked`] run found a builder, i.e.
    /// whether [`extract_builder`] has one to read.
    builder_found: bool,
    /// Dedup set over `entries` (bitmask + flag).
    seen: HashSet<(u128, bool)>,
    /// Odometer over entry indices (one digit per child slot).
    tuple: Vec<usize>,
    /// The root-label sets selected by the current odometer state.
    slot_sets: Vec<LabelSet>,
    /// Flexible SCCs collected by [`flexible_sccs_masked`] (arena-style: the
    /// exponent DFS truncates back to each call's start index).
    sccs: Vec<LabelSet>,
    /// Open frames of the exponent DFS.
    poly_frames: Vec<PolyFrame>,
    /// Trimmed child sets of the open frames (arena-style, truncated on pop).
    poly_children: Vec<LabelSet>,
}

/// One open frame of the exponent DFS: the trimmed child sets it still has to
/// descend into, and the best depth found below it so far.
#[derive(Debug, Clone, Copy)]
struct PolyFrame {
    /// Start of this frame's children in `poly_children`.
    children_start: u32,
    /// End of this frame's children in `poly_children`.
    children_end: u32,
    /// Next child to descend into.
    next: u32,
    /// `max(1, 1 + depth(child))` over the children processed so far.
    best: u32,
}

impl ClassifyScratch {
    /// Creates an empty scratch. Buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<ClassifyScratch> = RefCell::new(ClassifyScratch::new());
}

/// Runs `f` with the calling thread's scratch. The closure must not re-enter
/// `with_thread_scratch` (the kernels never do; they take the scratch as an
/// explicit parameter).
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut ClassifyScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// Reflexive-transitive closure of `start` under `adj` (dense over `allowed`),
/// staying inside `allowed`. Pure bitset frontier expansion, no allocation.
fn reach(start: Label, adj: &[LabelSet], allowed: LabelSet) -> LabelSet {
    let mut seen = LabelSet::singleton(start);
    let mut frontier = seen;
    while !frontier.is_empty() {
        let mut next = LabelSet::EMPTY;
        for u in frontier {
            next |= adj[allowed.rank(u)];
        }
        next &= allowed;
        frontier = next - seen;
        seen |= frontier;
    }
    seen
}

fn gcd_i64(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd_i64(b, a % b)
    }
}

/// The period (gcd of cycle lengths) of the strongly connected component `comp`
/// of the masked automaton, via BFS layering — the masked twin of
/// [`crate::automaton::Automaton`]'s period computation.
fn component_period(comp: LabelSet, allowed: LabelSet, scratch: &mut ClassifyScratch) -> usize {
    let start = comp.first().expect("non-empty component");
    for u in comp {
        scratch.level[allowed.rank(u)] = i64::MIN;
    }
    scratch.level[allowed.rank(start)] = 0;
    scratch.queue.clear();
    scratch.queue.push_back(start);
    let mut gcd: i64 = 0;
    while let Some(u) = scratch.queue.pop_front() {
        let lu = scratch.level[allowed.rank(u)];
        for v in scratch.succ[allowed.rank(u)] & comp {
            let lv = scratch.level[allowed.rank(v)];
            if lv == i64::MIN {
                scratch.level[allowed.rank(v)] = lu + 1;
                scratch.queue.push_back(v);
            } else {
                gcd = gcd_i64(gcd, (lu + 1 - lv).abs());
            }
        }
    }
    gcd.max(0) as usize
}

/// Fills the masked successor/predecessor tables (and sizes the BFS level
/// buffer) for the path-form automaton of the restriction to `allowed`.
fn build_masked_tables(problem: &LclProblem, allowed: LabelSet, scratch: &mut ClassifyScratch) {
    let n = allowed.len();
    scratch.succ.clear();
    scratch.succ.resize(n, LabelSet::EMPTY);
    scratch.pred.clear();
    scratch.pred.resize(n, LabelSet::EMPTY);
    scratch.level.clear();
    scratch.level.resize(n, i64::MIN);
    // Per-parent configuration ranges: configurations whose parent is already
    // outside the mask are never touched (the exponent DFS calls this on
    // ever-smaller sets, where most parents are masked out).
    for parent in allowed {
        let from = allowed.rank(parent);
        for i in problem.parent_config_range(parent) {
            if !problem.configuration_label_set(i).is_subset(allowed) {
                continue;
            }
            for &child in problem.configurations()[i].children() {
                scratch.succ[from].insert(child);
                scratch.pred[allowed.rank(child)].insert(parent);
            }
        }
    }
}

/// Algorithm 1, masked: the path-flexible states of the restriction of
/// `problem` to `allowed`, computed directly on the parent problem's dense
/// tables. Equivalent to
/// `Automaton::of(&problem.restrict_to(allowed)).flexible_states()` without
/// building either the restriction or the automaton.
pub fn flexible_states_masked(
    problem: &LclProblem,
    allowed: LabelSet,
    scratch: &mut ClassifyScratch,
) -> LabelSet {
    if allowed.is_empty() {
        return LabelSet::EMPTY;
    }
    build_masked_tables(problem, allowed, scratch);

    let mut assigned = LabelSet::EMPTY;
    let mut flexible = LabelSet::EMPTY;
    for v in allowed {
        if assigned.contains(v) {
            continue;
        }
        let fwd = reach(v, &scratch.succ, allowed);
        let bwd = reach(v, &scratch.pred, allowed);
        let comp = fwd & bwd;
        assigned |= comp;
        let has_cycle = comp.len() > 1 || scratch.succ[allowed.rank(v)].contains(v);
        if has_cycle && component_period(comp, allowed, scratch) == 1 {
            flexible |= comp;
        }
    }
    flexible
}

/// Lemma 5.29's flexible-SCC enumeration, masked: appends every flexible
/// (period-1, cycle-containing) strongly connected component of the masked
/// automaton of the restriction to `allowed` onto `scratch.sccs` and returns
/// the appended range. Callers truncate `scratch.sccs` back to `range.start`
/// once done, so the buffer acts as a stack arena for the exponent DFS.
fn flexible_sccs_masked(
    problem: &LclProblem,
    allowed: LabelSet,
    scratch: &mut ClassifyScratch,
) -> Range<usize> {
    let start = scratch.sccs.len();
    if allowed.is_empty() {
        return start..start;
    }
    build_masked_tables(problem, allowed, scratch);
    let mut assigned = LabelSet::EMPTY;
    for v in allowed {
        if assigned.contains(v) {
            continue;
        }
        let fwd = reach(v, &scratch.succ, allowed);
        let bwd = reach(v, &scratch.pred, allowed);
        let comp = fwd & bwd;
        assigned |= comp;
        let has_cycle = comp.len() > 1 || scratch.succ[allowed.rank(v)].contains(v);
        if has_cycle && component_period(comp, allowed, scratch) == 1 {
            scratch.sccs.push(comp);
        }
    }
    start..scratch.sccs.len()
}

/// Lemma 5.28's `trim`, masked: the greatest subset `T ⊆ allowed` such that
/// every label of `T` heads a configuration whose labels all lie in `T`.
/// Equals `solvable_labels(&problem.restrict_to(allowed))` without
/// materializing the restriction; a pure [`LabelSet`] iteration, no scratch.
pub fn trim_masked(problem: &LclProblem, allowed: LabelSet) -> LabelSet {
    let mut cur = allowed & problem.labels();
    loop {
        // Per-parent configuration ranges with first-match early exit — the
        // same shape as `solvable_labels`, restricted to the mask.
        let next: LabelSet = cur
            .iter()
            .filter(|&l| problem.has_continuation_within(l, cur))
            .collect();
        if next == cur {
            return cur;
        }
        cur = next;
    }
}

/// The exact Θ(n^{1/k}) exponent of a polynomial-region problem — the depth of
/// the longest trim/flexible-SCC descent starting from the self-sustaining
/// label set (the `max_depth` recursion over Lemmas 5.28–5.29):
///
/// * `depth(S) = max(1, max over flexible SCCs C of M(Π|S) with trim(C) ≠ ∅
///   of 1 + depth(trim(C)))` for trimmed non-empty `S`;
/// * the exponent is `depth(trim(Σ))`.
///
/// The caller guarantees the problem is in the polynomial region (solvable,
/// Algorithm 2 fixpoint empty); `sustaining` is the precomputed
/// [`crate::solvable_labels`] set. In that region every flexible SCC is a
/// *proper* subset of its level (a full-set flexible SCC would be a
/// certificate for O(log n)), so the descent strictly shrinks and terminates.
///
/// Runs as an explicit DFS over scratch frames: no recursion, no allocation
/// once the arenas are warm. Agrees with the chain materialized by
/// [`crate::poly::find_poly_certificate`].
pub fn poly_exponent_masked(
    problem: &LclProblem,
    sustaining: LabelSet,
    scratch: &mut ClassifyScratch,
) -> usize {
    debug_assert!(!sustaining.is_empty(), "polynomial problems are solvable");
    debug_assert_eq!(sustaining, trim_masked(problem, problem.labels()));
    scratch.poly_frames.clear();
    scratch.poly_children.clear();
    scratch.sccs.clear();
    push_poly_frame(problem, sustaining, scratch);
    loop {
        let frame = *scratch.poly_frames.last().expect("frame stack non-empty");
        if frame.next < frame.children_end {
            scratch.poly_frames.last_mut().expect("checked").next += 1;
            let child = scratch.poly_children[frame.next as usize];
            push_poly_frame(problem, child, scratch);
            continue;
        }
        scratch.poly_frames.pop();
        scratch
            .poly_children
            .truncate(frame.children_start as usize);
        match scratch.poly_frames.last_mut() {
            Some(parent) => parent.best = parent.best.max(1 + frame.best),
            None => return frame.best as usize,
        }
    }
}

/// Opens a DFS frame for the trimmed non-empty set `set`: enumerates the
/// flexible SCCs of its masked automaton and stores the non-empty trims of the
/// proper ones as the frame's children.
fn push_poly_frame(problem: &LclProblem, set: LabelSet, scratch: &mut ClassifyScratch) {
    let scc_range = flexible_sccs_masked(problem, set, scratch);
    let children_start = scratch.poly_children.len();
    for i in scc_range.clone() {
        let comp = scratch.sccs[i];
        if comp == set {
            // A trimmed set that is one flexible SCC is a certificate for
            // O(log n) solvability — unreachable in the polynomial region.
            debug_assert!(false, "log-certificate restriction inside the poly descent");
            continue;
        }
        if comp.len() == 1 {
            // A flexible singleton has a self-loop; a non-empty trim would
            // need the all-self configuration, making Π|{l} a certificate for
            // O(log n) — impossible in the polynomial region. Skipping the
            // trim here is the hot-path shortcut for the (common) problems
            // whose flexible SCCs are all singletons.
            debug_assert!(trim_masked(problem, comp).is_empty());
            continue;
        }
        let trimmed = trim_masked(problem, comp);
        if !trimmed.is_empty() {
            scratch.poly_children.push(trimmed);
        }
    }
    scratch.sccs.truncate(scc_range.start);
    scratch.poly_frames.push(PolyFrame {
        children_start: children_start as u32,
        children_end: scratch.poly_children.len() as u32,
        next: children_start as u32,
        best: 1,
    });
}

/// Algorithm 2's pruning loop, masked: iterates [`flexible_states_masked`] to a
/// fixed point and returns `(fixpoint labels, number of non-empty pruning
/// iterations)`. Agrees with [`crate::log_certificate::find_log_certificate`]
/// on both components (the restriction of a problem is fully determined by the
/// surviving label set, so comparing label sets is equivalent to comparing
/// restricted problems).
pub fn prune_fixpoint_masked(
    problem: &LclProblem,
    scratch: &mut ClassifyScratch,
) -> (LabelSet, usize) {
    let mut allowed = problem.labels();
    let mut iterations = 0usize;
    loop {
        let flexible = flexible_states_masked(problem, allowed, scratch);
        if flexible == allowed {
            return (allowed, iterations);
        }
        if !(allowed - flexible).is_empty() {
            iterations += 1;
        }
        allowed = flexible;
    }
}

/// Algorithm 3, masked: `true` iff the restriction of `problem` to `subset`
/// admits a certificate builder — with the special label `target` producible
/// on a certificate leaf when one is given. Iterates the parent problem's
/// configurations under a subset mask instead of building
/// `problem.restrict_to(subset)`, and returns at the first success entry.
///
/// Every derived entry's δ child indices are recorded in the scratch, so
/// after a `true` answer [`extract_builder`] turns the run into the
/// [`CertificateBuilder`] of Lemma 6.9 without a second search.
pub fn exists_builder_masked(
    problem: &LclProblem,
    subset: LabelSet,
    target: Option<Label>,
    scratch: &mut ClassifyScratch,
) -> bool {
    scratch.builder_target = target;
    scratch.builder_found = false;
    scratch.entries.clear();
    scratch.derivations.clear();
    // `restrict_to` intersects with the active label set; mirror that here so
    // the equivalence holds for any subset, not just subsets of Σ(Π).
    let subset = subset & problem.labels();
    if subset.is_empty() {
        return false;
    }
    if let Some(t) = target {
        if !subset.contains(t) {
            return false;
        }
    }
    // The restricted problem must have at least one configuration (Algorithm 3
    // on an empty configuration set finds nothing).
    let any_config = problem
        .configurations()
        .iter()
        .enumerate()
        .any(|(i, _)| problem.configuration_label_set(i).is_subset(subset));
    if !any_config {
        return false;
    }

    let delta = problem.delta();
    let wanted = (subset, target.is_some());
    let ClassifyScratch {
        entries,
        derivations,
        builder_found,
        seen,
        tuple,
        slot_sets,
        ..
    } = scratch;
    seen.clear();
    for label in subset {
        let entry = (LabelSet::singleton(label), Some(label) == target);
        seen.insert((entry.0.bits(), entry.1));
        entries.push(entry);
        if entry == wanted {
            *builder_found = true;
            return true;
        }
    }

    // Fixed-point loop: repeatedly try every δ-tuple of existing entries.
    loop {
        let mut added = false;
        let snapshot_len = entries.len();
        tuple.clear();
        tuple.resize(delta, 0);
        'tuples: loop {
            slot_sets.clear();
            for &i in tuple.iter() {
                slot_sets.push(entries[i].0);
            }
            let mut produced = LabelSet::EMPTY;
            for (ci, config) in problem.configurations().iter().enumerate() {
                if !problem.configuration_label_set(ci).is_subset(subset) {
                    continue;
                }
                if produced.contains(config.parent()) {
                    continue;
                }
                if children_match_slots(config.children(), slot_sets) {
                    produced.insert(config.parent());
                }
            }
            if !produced.is_empty() {
                let flag = tuple.iter().any(|&i| entries[i].1);
                if seen.insert((produced.bits(), flag)) {
                    entries.push((produced, flag));
                    derivations.extend_from_slice(tuple);
                    if (produced, flag) == wanted {
                        *builder_found = true;
                        return true;
                    }
                    added = true;
                }
            }
            // Advance the tuple (odometer over `snapshot_len` symbols).
            let mut pos = 0;
            loop {
                if pos == delta {
                    break 'tuples;
                }
                tuple[pos] += 1;
                if tuple[pos] < snapshot_len {
                    break;
                }
                tuple[pos] = 0;
                pos += 1;
            }
        }
        if !added {
            return false;
        }
    }
}

/// Lemma 6.9's input, read off the scratch: the [`CertificateBuilder`] of the
/// last [`exists_builder_masked`] run on `problem`, or `None` when that run
/// found no builder. Its entries end at the success entry.
pub fn extract_builder(
    problem: &LclProblem,
    scratch: &ClassifyScratch,
) -> Option<CertificateBuilder> {
    if !scratch.builder_found {
        return None;
    }
    let delta = problem.delta();
    let singletons = scratch.entries.len() - scratch.derivations.len() / delta;
    let entries = scratch
        .entries
        .iter()
        .map(|&(labels, has_special_leaf)| RootSetEntry {
            labels,
            has_special_leaf,
        })
        .collect();
    let derivations = (0..scratch.entries.len())
        .map(|i| {
            let first = i.checked_sub(singletons)? * delta;
            Some(Derivation {
                child_indices: scratch.derivations[first..first + delta].to_vec(),
            })
        })
        .collect();
    Some(CertificateBuilder {
        delta,
        target: scratch.builder_target,
        entries,
        derivations,
        success_index: scratch.entries.len() - 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::Automaton;
    use crate::builder::reference::find_unrestricted_certificate_cut;
    use crate::classifier::{classify, classify_complexity_with};
    use crate::log_certificate::find_log_certificate;
    use crate::problem::ProblemBuilder;

    fn problem(text: &str) -> LclProblem {
        text.parse().unwrap()
    }

    /// Every problem over δ = 2 and two labels: the exhaustive differential
    /// workload for the masked kernels.
    fn full_two_label_family() -> Vec<LclProblem> {
        let names = ["a", "b"];
        // All (parent, sorted child pair) configurations: 2 × 3 = 6.
        let universe: Vec<(usize, [usize; 2])> = (0..2)
            .flat_map(|p| [(p, [0, 0]), (p, [0, 1]), (p, [1, 1])])
            .collect();
        (0u32..1 << universe.len())
            .map(|mask| {
                let mut b = ProblemBuilder::new(2);
                b.label("a");
                b.label("b");
                for (i, (p, cs)) in universe.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        b.configuration(names[*p], &[names[cs[0]], names[cs[1]]]);
                    }
                }
                b.build()
            })
            .collect()
    }

    #[test]
    fn masked_flexible_states_match_automaton_on_restrictions() {
        let mut scratch = ClassifyScratch::new();
        for p in full_two_label_family() {
            for allowed in p.labels().subsets() {
                let masked = flexible_states_masked(&p, allowed, &mut scratch);
                let rebuilt = Automaton::of(&p.restrict_to(allowed)).flexible_states();
                assert_eq!(
                    masked,
                    rebuilt,
                    "problem {:?}, allowed {allowed}",
                    p.to_text()
                );
            }
        }
    }

    #[test]
    fn masked_prune_matches_find_log_certificate() {
        let mut scratch = ClassifyScratch::new();
        let extra = [
            "a : b b\nb : a a\n1 : 1 2\n2 : 1 1\n",
            crate::test_fixtures::SECTION_8_DEPTH_TWO,
            "1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n",
        ];
        let mut all = full_two_label_family();
        all.extend(extra.iter().map(|t| problem(t)));
        for p in all {
            let (fixpoint, iterations) = prune_fixpoint_masked(&p, &mut scratch);
            let analysis = find_log_certificate(&p);
            assert_eq!(fixpoint, analysis.fixpoint.labels(), "{}", p.to_text());
            assert_eq!(iterations, analysis.iterations(), "{}", p.to_text());
        }
    }

    /// Runs the masked kernel on `(subset, target)` and checks both its answer
    /// and the extracted builder against the reference Algorithm 3 on the
    /// restriction, cut at its success entry.
    fn assert_kernel_matches_reference(
        p: &LclProblem,
        subset: LabelSet,
        target: Option<Label>,
        scratch: &mut ClassifyScratch,
    ) {
        let expected = find_unrestricted_certificate_cut(&p.restrict_to(subset), target);
        let found = exists_builder_masked(p, subset, target, scratch);
        let context = format!(
            "problem {:?}, subset {subset}, target {target:?}",
            p.to_text()
        );
        assert_eq!(found, expected.is_some(), "{context}");
        assert_eq!(extract_builder(p, scratch), expected, "{context}");
    }

    #[test]
    fn masked_builder_decision_and_extraction_match_restricted_search() {
        let mut scratch = ClassifyScratch::new();
        let mut all = full_two_label_family();
        all.extend(
            [
                "1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n",
                "1 : a a\n1 : a b\n1 : b b\na : b b\nb : b 1\nb : 1 1\n",
                "1 : b b b\n1 : b b a\n1 : b a a\n1 : a a a\nb : 1 1 1\nb : 1 1 b\nb : 1 b b\na : b b b\n",
                crate::test_fixtures::SECTION_8_DEPTH_TWO,
            ]
            .iter()
            .map(|t| problem(t)),
        );
        for p in all {
            for subset in p.labels().subsets() {
                assert_kernel_matches_reference(&p, subset, None, &mut scratch);
                for t in subset {
                    assert_kernel_matches_reference(&p, subset, Some(t), &mut scratch);
                }
            }
            // Subsets reaching outside Σ(Π) behave like their intersection
            // with Σ(Π), mirroring `restrict_to`.
            let widened = p.labels() | LabelSet::singleton(Label(100));
            assert_kernel_matches_reference(&p, widened, None, &mut scratch);
        }
    }

    #[test]
    fn scratch_classification_matches_full_classifier_exhaustively() {
        let mut scratch = ClassifyScratch::new();
        for p in full_two_label_family() {
            assert_eq!(
                classify_complexity_with(&p, &mut scratch),
                classify(&p).complexity,
                "{}",
                p.to_text()
            );
        }
    }

    #[test]
    fn trim_masked_matches_solvable_labels_of_restrictions() {
        for p in full_two_label_family() {
            for subset in p.labels().subsets() {
                assert_eq!(
                    trim_masked(&p, subset),
                    crate::solvability::solvable_labels(&p.restrict_to(subset)),
                    "problem {:?}, subset {subset}",
                    p.to_text()
                );
            }
        }
    }

    #[test]
    fn masked_flexible_sccs_match_automaton_components() {
        let mut scratch = ClassifyScratch::new();
        for p in full_two_label_family() {
            for allowed in p.labels().subsets() {
                let range = flexible_sccs_masked(&p, allowed, &mut scratch);
                let mut masked: Vec<LabelSet> = scratch.sccs[range.clone()].to_vec();
                scratch.sccs.truncate(range.start);
                masked.sort_by_key(|s| s.first());
                let mut rebuilt: Vec<LabelSet> = Automaton::of(&p.restrict_to(allowed))
                    .components()
                    .into_iter()
                    .filter(|c| c.has_cycle && c.period == 1)
                    .map(|c| c.states)
                    .collect();
                rebuilt.sort_by_key(|s| s.first());
                assert_eq!(
                    masked,
                    rebuilt,
                    "problem {:?}, allowed {allowed}",
                    p.to_text()
                );
            }
        }
    }

    #[test]
    fn masked_exponent_matches_certificate_chain_on_deep_problems() {
        let mut scratch = ClassifyScratch::new();
        let deep = [
            // Θ(n): 2-coloring on trees and paths.
            "1:22\n2:11\n",
            "1:2\n2:1\n",
            // Θ(√n): the Section 8 construction with k = 2.
            crate::test_fixtures::SECTION_8_DEPTH_TWO,
        ];
        for text in deep {
            let p = problem(text);
            let cert = crate::poly::find_poly_certificate(&p).expect("polynomial problem");
            let sustaining = crate::solvability::solvable_labels(&p);
            assert_eq!(
                poly_exponent_masked(&p, sustaining, &mut scratch),
                cert.exponent(),
                "{text}"
            );
        }
    }
}
