//! Allocation-counter proof of the flat solver scratch contract: once a
//! [`SolveScratch`]'s buffers are warm, the per-level solver passes — the
//! certificate block fill, the MIS port-code propagation, the Π_k partition
//! iterations, and the flat Cole–Vishkin rounds — perform **zero** heap
//! allocations.
//!
//! The file contains exactly one test so no sibling test thread can allocate
//! concurrently and pollute the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lcl_algorithms::flat::{
    certificate_fill_pass, mis_code_pass, pi_k_partition_pass, SolveScratch,
};
use lcl_core::classify;
use lcl_sim::flat::{chain_color_reduction_flat, CvScratch};
use lcl_sim::IdAssignment;
use lcl_trees::FlatTree;

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
fn warm_scratch_level_passes_perform_zero_allocations() {
    // Sequential scratch: sharding spawns threads, which (legitimately)
    // allocates; the per-level pass itself must not.
    let mut scratch = SolveScratch::with_workers(1);
    let tree = FlatTree::random_full(2, 2_001, 5);
    let idx = tree.level_index();
    let ids = IdAssignment::sequential_len(tree.len());
    // The flat Cole–Vishkin run keeps its own buffers: the solvers record its
    // round count in closed form and never run it.
    let mut cv = CvScratch::new();

    let mis = lcl_problems::mis::mis_binary();
    let cert = classify(&mis).log_star_certificate().unwrap().unwrap();

    // Warm-up: grows every scratch buffer to its high-water mark.
    assert!(certificate_fill_pass(&cert, &idx, &mut scratch));
    mis_code_pass(&idx, &mut scratch);
    pi_k_partition_pass(&tree, &idx, 2, &mut scratch);
    chain_color_reduction_flat(&tree, &ids, 1, &mut cv);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(certificate_fill_pass(&cert, &idx, &mut scratch));
    mis_code_pass(&idx, &mut scratch);
    pi_k_partition_pass(&tree, &idx, 2, &mut scratch);
    chain_color_reduction_flat(&tree, &ids, 1, &mut cv);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "a warmed-up per-level solver pass must not touch the allocator"
    );
}
