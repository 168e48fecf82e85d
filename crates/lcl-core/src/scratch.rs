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
//! masked path-form automaton, BFS queues, the pruning trace, the exponent
//! DFS's frames and chain, and the entry and derivation lists of Algorithm 3's
//! fixed point — lives in a [`ClassifyScratch`] that callers thread through
//! the stages.
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
//!   full report's kernel runs use);
//! * implicitly via [`crate::classify`] / [`crate::classify_complexity`], which
//!   route through the thread-local.
//!
//! # Masked kernels
//!
//! * [`flexible_states_masked`] — Algorithm 1 (path-flexible states of the
//!   restriction to `allowed`) without building the restriction or an
//!   [`crate::automaton::Automaton`];
//! * [`prune_fixpoint_masked`] — Algorithm 2's pruning loop as a pure
//!   [`LabelSet`] iteration, the one implementation. It records the removed
//!   sets Σ₁, …, Σ_k in the scratch, so
//!   [`crate::log_certificate::find_log_certificate`] extracts the pruning
//!   trace from the decision run;
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
//!   polynomial-region problem, the one implementation of the
//!   trim/flexible-SCC descent (Lemma 5.29): an explicit DFS over
//!   [`LabelSet`] frames, so the batch hot path stays allocation-free. It
//!   records its deepest chain in the scratch, from which
//!   [`crate::poly::find_poly_certificate`] extracts the certificate;
//! * `max_flexibility_masked` — Definition 4.8's flexibility of a flexible
//!   SCC, for the certificates the report extracts.
//!
//! The `reference` modules of [`crate::log_certificate`], [`crate::poly`] and
//! [`crate::builder`] keep the naive materializing versions of Algorithms 2
//! and 3 and of the descent as test oracles (feature `reference`), and
//! [`crate::automaton`]'s keeps Kosaraju's SCCs and the full closed-walk
//! flexibility DP, the oracle for the SCC walk and the flexibility routine
//! the masked kernels share with [`crate::automaton::Automaton`].

use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::ops::Range;

use crate::automaton::{primitive_flexibility, reach};
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
    /// The pruning trace of the last [`prune_fixpoint_masked`] run: the
    /// non-empty label sets Σ₁, …, Σ_k its iterations removed, in order.
    pub(crate) pruned_sets: Vec<LabelSet>,
    /// Open frames of the exponent DFS.
    poly_frames: Vec<PolyFrame>,
    /// Children of the open frames as `(trim(C), C)` pairs, one per flexible
    /// SCC `C` with a non-empty trim (arena-style, truncated on pop).
    poly_children: Vec<(LabelSet, LabelSet)>,
    /// The chain of the last [`poly_exponent_masked`] run: the levels
    /// `(S_i, C_i)` of its deepest descent, outermost first, with `C_k` empty.
    /// Its length is the exponent.
    pub(crate) poly_chain: Vec<(LabelSet, LabelSet)>,
}

/// One open frame of the exponent DFS: its trimmed label set and the child
/// sets it still has to descend into.
#[derive(Debug, Clone, Copy)]
struct PolyFrame {
    /// The trimmed label set `S` of this frame.
    labels: LabelSet,
    /// The flexible SCC whose trim the frame is descending into (empty
    /// before the first descent).
    scc: LabelSet,
    /// Start of this frame's children in `poly_children`.
    children_start: u32,
    /// End of this frame's children in `poly_children`.
    children_end: u32,
    /// Next child to descend into.
    next: u32,
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
    // The same SCC walk as `flexible_sccs_masked`, OR-ing the flexible SCCs
    // in place: the pruning loop's hot path, where a push and drain per call
    // cost about 3% of a batch decision.
    build_masked_tables(problem, allowed, scratch);
    let mut assigned = LabelSet::EMPTY;
    let mut flexible = LabelSet::EMPTY;
    for v in allowed {
        if assigned.contains(v) {
            continue;
        }
        let comp = reach(v, &scratch.succ, allowed) & reach(v, &scratch.pred, allowed);
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

/// Definition 4.8, masked: the maximum flexibility over the states of `scc`,
/// a flexible SCC of the masked automaton of the restriction to `allowed`
/// (0 when `scc` is empty). Equals the maximum of
/// `Automaton::of(&problem.restrict_to(allowed)).flexibility(l)` over
/// `l ∈ scc` without building either.
pub(crate) fn max_flexibility_masked(
    problem: &LclProblem,
    allowed: LabelSet,
    scc: LabelSet,
    scratch: &mut ClassifyScratch,
) -> usize {
    if scc.is_empty() {
        return 0;
    }
    build_masked_tables(problem, allowed, scratch);
    let succ = &scratch.succ;
    scc.iter()
        .map(|state| primitive_flexibility(state, scc, |u| succ[allowed.rank(u)]))
        .max()
        .expect("scc is non-empty")
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
/// once the arenas are warm. Children are visited in least-label order of
/// their SCCs, and whenever the frame stack grows past the deepest chain seen
/// so far it is copied into the scratch's chain. The recorded chain is thus
/// the first deepest descent, the first maximum at every level, which
/// [`crate::poly::find_poly_certificate`] turns into the certificate.
pub fn poly_exponent_masked(
    problem: &LclProblem,
    sustaining: LabelSet,
    scratch: &mut ClassifyScratch,
) -> usize {
    debug_assert!(!sustaining.is_empty(), "polynomial problems are solvable");
    debug_assert_eq!(sustaining, trim_masked(problem, problem.labels()));
    scratch.poly_frames.clear();
    scratch.poly_children.clear();
    scratch.poly_chain.clear();
    scratch.sccs.clear();
    push_poly_frame(problem, sustaining, scratch);
    while let Some(frame) = scratch.poly_frames.last().copied() {
        if frame.next < frame.children_end {
            let (child, scc) = scratch.poly_children[frame.next as usize];
            let top = scratch.poly_frames.last_mut().expect("checked");
            top.next += 1;
            top.scc = scc;
            push_poly_frame(problem, child, scratch);
        } else {
            scratch.poly_frames.pop();
            scratch
                .poly_children
                .truncate(frame.children_start as usize);
        }
    }
    scratch.poly_chain.len()
}

/// Opens a DFS frame for the trimmed non-empty set `set`: enumerates the
/// flexible SCCs of its masked automaton and stores the non-empty trims of the
/// proper ones as the frame's children. A stack deeper than the recorded chain
/// becomes the new chain.
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
            scratch.poly_children.push((trimmed, comp));
        }
    }
    scratch.sccs.truncate(scc_range.start);
    scratch.poly_frames.push(PolyFrame {
        labels: set,
        scc: LabelSet::EMPTY,
        children_start: children_start as u32,
        children_end: scratch.poly_children.len() as u32,
        next: children_start as u32,
    });
    if scratch.poly_frames.len() > scratch.poly_chain.len() {
        scratch.poly_chain.clear();
        let chain = scratch.poly_frames.iter().map(|f| (f.labels, f.scc));
        scratch.poly_chain.extend(chain);
    }
}

/// Algorithm 2's pruning loop, masked: iterates [`flexible_states_masked`] to a
/// fixed point and returns `(fixpoint labels, number of non-empty pruning
/// iterations)`. The removed sets Σ₁, …, Σ_k stay in the scratch, so
/// [`crate::log_certificate::find_log_certificate`] reads the pruning trace
/// off this run (the restriction of a problem is fully determined by the
/// surviving label set).
pub fn prune_fixpoint_masked(
    problem: &LclProblem,
    scratch: &mut ClassifyScratch,
) -> (LabelSet, usize) {
    scratch.pruned_sets.clear();
    let mut allowed = problem.labels();
    loop {
        let flexible = flexible_states_masked(problem, allowed, scratch);
        if flexible == allowed {
            return (allowed, scratch.pruned_sets.len());
        }
        scratch.pruned_sets.push(allowed - flexible);
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
    use crate::automaton::{reference as automaton_reference, Automaton};
    use crate::builder::reference::find_unrestricted_certificate_cut;
    use crate::classifier::{classify, classify_complexity_with};
    use crate::log_certificate::reference::find_log_certificate;
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
                let rebuilt =
                    automaton_reference::flexible_states(&Automaton::of(&p.restrict_to(allowed)));
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
    fn masked_prune_matches_reference_log_certificate() {
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
            assert_eq!(scratch.pruned_sets, analysis.pruned_sets, "{}", p.to_text());
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
                let automaton = Automaton::of(&p.restrict_to(allowed));
                let mut rebuilt: Vec<LabelSet> = automaton_reference::components(&automaton)
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
    fn masked_max_flexibility_matches_automaton() {
        let mut scratch = ClassifyScratch::new();
        let mut all = full_two_label_family();
        all.extend(
            [
                "a : b b\nb : a a\n1 : 1 2\n2 : 1 1\n",
                "1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n",
                crate::test_fixtures::SECTION_8_DEPTH_TWO,
            ]
            .iter()
            .map(|t| problem(t)),
        );
        for p in all {
            for allowed in p.labels().subsets() {
                let automaton = Automaton::of(&p.restrict_to(allowed));
                for comp in automaton_reference::components(&automaton) {
                    if !comp.has_cycle || comp.period != 1 {
                        continue;
                    }
                    let expected = comp
                        .states
                        .iter()
                        .map(|l| automaton_reference::flexibility(&automaton, l).expect("flexible"))
                        .max();
                    assert_eq!(
                        Some(max_flexibility_masked(
                            &p,
                            allowed,
                            comp.states,
                            &mut scratch
                        )),
                        expected,
                        "problem {:?}, allowed {allowed}, scc {}",
                        p.to_text(),
                        comp.states
                    );
                }
            }
        }
    }

    #[test]
    fn masked_exponent_matches_reference_chain_on_deep_problems() {
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
            let cert = crate::poly::reference::find_poly_certificate(&p).expect("polynomial");
            let sustaining = crate::solvability::solvable_labels(&p);
            assert_eq!(
                poly_exponent_masked(&p, sustaining, &mut scratch),
                cert.exponent(),
                "{text}"
            );
            let chain: Vec<(LabelSet, LabelSet)> =
                cert.levels.iter().map(|l| (l.labels, l.scc)).collect();
            assert_eq!(scratch.poly_chain, chain, "{text}");
        }
    }
}
