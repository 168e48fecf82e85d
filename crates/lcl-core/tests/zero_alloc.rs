//! Allocation-counter proof of the scratch-buffer contract (see the `scratch`
//! module docs): once a `ClassifyScratch`'s buffers are warm, a cache-miss
//! decision-only classification performs **zero** heap allocations — hence in
//! particular zero `LclProblem` clones and zero per-subset problem
//! reconstructions. Algorithm 3 records every derivation on this path (the
//! report path extracts its builders from that record), so the pin covers the
//! derivation buffer's reuse too.
//!
//! The file contains exactly one test so no sibling test thread can allocate
//! concurrently and pollute the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lcl_core::bitslice::{classify_block_sliced, BitSliceScratch, SlicedUniverse};
use lcl_core::{classify, classify_complexity_with, ClassifyScratch, Complexity, LclProblem};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn warm_scratch_classification_performs_zero_allocations() {
    // One representative per complexity class, plus the Figure 2 combination
    // and an iterated-pruning problem, so every decision stage (solvability
    // fixed point, masked pruning, Algorithm 4 subset search, Algorithm 5
    // special search) runs on the measured pass.
    let texts = [
        // O(1): MIS (Section 1.3).
        "1 : a a\n1 : a b\n1 : b b\na : b b\nb : b 1\nb : 1 1\n",
        // Θ(log* n): 3-coloring (Section 1.2).
        "1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n",
        // O(1) at δ = 3: MIS on ternary trees. Its Algorithm 3 runs record the
        // most derivations (three child indices per entry) of this set.
        "1 : b b b\n1 : b b a\n1 : b a a\n1 : a a a\n\
         b : 1 1 1\nb : 1 1 b\nb : 1 b b\na : b b b\n",
        // Θ(log* n) at δ = 3: 3-coloring on ternary trees.
        "1 : 2 2 2\n1 : 2 2 3\n1 : 2 3 3\n1 : 3 3 3\n\
         2 : 1 1 1\n2 : 1 1 3\n2 : 1 3 3\n2 : 3 3 3\n\
         3 : 1 1 1\n3 : 1 1 2\n3 : 1 2 2\n3 : 2 2 2\n",
        // Θ(log n): branch 2-coloring (Section 1.4).
        "1 : 1 2\n2 : 1 1\n",
        // Θ(log n) after one pruning iteration: Figure 2's Π₀.
        "a : b b\nb : a a\n1 : 1 2\n2 : 1 1\n",
        // Θ(n): 2-coloring (exponent 1 — the poly descent with no flexible SCC).
        "1:22\n2:11\n",
        // Θ(√n): the Section 8 construction with k = 2, so the exponent DFS
        // actually descends through a flexible-SCC trim.
        "a1 : b1 b1\nb1 : a1 a1\n\
         a2 : b2 b2\na2 : a1 b1\na2 : a1 x1\na2 : b1 x1\na2 : a1 a1\na2 : b1 b1\na2 : x1 x1\n\
         b2 : a2 a2\nb2 : a1 b1\nb2 : a1 x1\nb2 : b1 x1\nb2 : a1 a1\nb2 : b1 b1\nb2 : x1 x1\n\
         x1 : a1 a1\nx1 : a1 b1\nx1 : b1 b1\nx1 : a2 a1\nx1 : a2 b1\nx1 : b2 a1\nx1 : b2 b1\nx1 : x1 a1\nx1 : x1 b1\n",
        // Unsolvable: a chain of dead ends.
        "a : b b\nb : c c\n",
    ];
    let problems: Vec<LclProblem> = texts.iter().map(|t| t.parse().unwrap()).collect();
    let expected: Vec<Complexity> = problems.iter().map(|p| classify(p).complexity).collect();

    let mut scratch = ClassifyScratch::new();
    // Warm-up: grows every scratch buffer to its high-water mark for this
    // problem set.
    for problem in &problems {
        classify_complexity_with(problem, &mut scratch);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for (problem, want) in problems.iter().zip(expected.iter()) {
        let got = classify_complexity_with(problem, &mut scratch);
        assert_eq!(got, *want);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "a warmed-up cache-miss classification must not touch the allocator \
         (no problem clones, no per-subset restrictions, no buffer growth)"
    );

    // Same contract for the bit-sliced block path: once a `BitSliceScratch`
    // (and the verdict vector) is warm, classifying a full 64-lane block
    // allocates nothing. Same test fn so no sibling test thread can pollute
    // the global counter. The (δ=2, 2-label) universe in family mask order.
    let mut universe = SlicedUniverse::new(2, 2);
    for children in [[0usize, 0], [0, 1], [1, 1]] {
        for parent in 0..2 {
            universe.push_config(parent, &children);
        }
    }
    let masks: Vec<u64> = (0..64).collect();
    let mut sliced = BitSliceScratch::<u64>::new();
    let mut verdicts = Vec::new();
    classify_block_sliced(&universe, &masks, &mut sliced, &mut verdicts); // warm-up
    let warm = verdicts.clone();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    classify_block_sliced(&universe, &masks, &mut sliced, &mut verdicts);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(verdicts, warm);
    assert_eq!(
        after - before,
        0,
        "a warmed-up bit-sliced block classification must not touch the \
         allocator (transposition, fixed points, and subset searches all run \
         in the reusable scratch)"
    );
}
