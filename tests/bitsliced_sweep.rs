//! Differential acceptance tests for the bit-sliced sweep engine:
//!
//! * block verdicts must match `classify_complexity_with` lane-for-lane —
//!   exhaustively over the full (δ=2, 2-label) universe and over ≥512 seeded
//!   random 64-lane blocks of the (δ=2, 3-label) universe (verdict *and*
//!   exact polynomial exponent);
//! * `sweep_resumable_bitsliced` must produce the same orbit and
//!   whole-universe histograms as the scalar `sweep_resumable`, for every
//!   tested universe, independent of the shard count;
//! * a bit-sliced sweep must leave the engine cache warm for the whole family
//!   (the mask-direct canonical keys must hit for every member).

use lcl_rand::SplitMix64;
use rooted_tree_lcl::core::bitslice::{classify_block_sliced, BitSliceScratch, LaneVerdict};
use rooted_tree_lcl::core::scratch::poly_exponent_masked;
use rooted_tree_lcl::core::{
    classify_complexity_with, solvable_labels, ClassificationEngine, ClassifyScratch, Complexity,
    EngineKind, SweepCheckpoint, SweepOutcome, SweepSnapshot,
};
use rooted_tree_lcl::problems::canonical::CanonicalFamily;
use rooted_tree_lcl::problems::random::enumerate_problems;

/// Resolves one lane's verdict to a full complexity, applying the scalar
/// polynomial-exponent fallback exactly as the sweep driver does.
fn resolve(
    family: &CanonicalFamily,
    mask: u64,
    verdict: LaneVerdict,
    scratch: &mut ClassifyScratch,
) -> Complexity {
    match verdict {
        LaneVerdict::Decided(c) => c,
        LaneVerdict::NeedsPolyExponent => {
            let problem = family.problem_at(mask);
            let sustaining = solvable_labels(&problem);
            Complexity::Polynomial {
                exponent: poly_exponent_masked(&problem, sustaining, scratch),
            }
        }
    }
}

#[test]
fn bitsliced_blocks_match_scalar_over_the_full_two_label_universe() {
    let family = CanonicalFamily::new(2, 2);
    let universe = family.sliced_universe();
    let masks: Vec<u64> = (0..family.family_size()).collect();
    let mut sliced = BitSliceScratch::<u64>::new();
    let mut verdicts = Vec::new();
    let mut scratch = ClassifyScratch::new();
    for chunk in masks.chunks(64) {
        classify_block_sliced(&universe, chunk, &mut sliced, &mut verdicts);
        for (j, &mask) in chunk.iter().enumerate() {
            let got = resolve(&family, mask, verdicts[j], &mut scratch);
            let expected = classify_complexity_with(&family.problem_at(mask), &mut scratch);
            assert_eq!(got, expected, "mask {mask}");
        }
    }
}

#[test]
fn bitsliced_blocks_match_scalar_on_seeded_random_three_label_blocks() {
    let family = CanonicalFamily::new(2, 3);
    let universe = family.sliced_universe();
    assert_eq!(universe.len(), 18);
    let mut rng = SplitMix64::seed_from_u64(0xB17_511CE);
    let mut sliced = BitSliceScratch::<u64>::new();
    let mut verdicts = Vec::new();
    let mut scratch = ClassifyScratch::new();
    for block_index in 0..512 {
        let masks: Vec<u64> = (0..64)
            .map(|_| rng.next_u64() & (family.family_size() - 1))
            .collect();
        classify_block_sliced(&universe, &masks, &mut sliced, &mut verdicts);
        for (j, &mask) in masks.iter().enumerate() {
            let got = resolve(&family, mask, verdicts[j], &mut scratch);
            let expected = classify_complexity_with(&family.problem_at(mask), &mut scratch);
            assert_eq!(got, expected, "block {block_index}, mask {mask}");
        }
    }
}

/// A complete in-memory sweep of the (δ, labels) family on `kind`, split
/// into `shards` mask ranges.
fn sweep(
    kind: EngineKind,
    delta: usize,
    labels: usize,
    shards: usize,
) -> (ClassificationEngine, SweepOutcome) {
    let family = CanonicalFamily::new(delta, labels);
    let engine = ClassificationEngine::new();
    let state = SweepSnapshot::fresh(delta as u16, labels as u16, kind, family.ranges(shards));
    let ckpt = SweepCheckpoint::default();
    let (snap, completed) = family
        .sweep(&engine, state, &ckpt)
        .expect("in-memory sweep cannot hit snapshot I/O");
    assert!(completed);
    (engine, snap.outcome)
}

#[test]
fn bitsliced_sweep_histograms_match_the_scalar_sweep_at_every_width() {
    for (delta, labels) in [(1, 2), (2, 2), (1, 3), (2, 3)] {
        let family = CanonicalFamily::new(delta, labels);
        let (_, scalar) = sweep(EngineKind::Scalar, delta, labels, 3);
        let (_, bitsliced) = sweep(EngineKind::Bitsliced, delta, labels, 3);
        assert_eq!(
            bitsliced.orbits, scalar.orbits,
            "orbit histogram (δ={delta}, k={labels})"
        );
        assert_eq!(
            bitsliced.problems, scalar.problems,
            "universe histogram (δ={delta}, k={labels})"
        );
        assert_eq!(bitsliced.problems.total(), family.family_size());
        assert!(bitsliced.lanes.blocks > 0);
        assert!(bitsliced.lanes.avg_live_lanes() > 0.0);
    }
}

#[test]
fn bitsliced_sweep_histograms_are_independent_of_shard_count_and_width() {
    let (_, one) = sweep(EngineKind::Bitsliced, 2, 3, 1);
    for shards in [2usize, 4, 9] {
        let (_, many) = sweep(EngineKind::Bitsliced, 2, 3, shards);
        // Lane statistics legitimately vary with block packing at shard
        // boundaries; the histograms must not.
        assert_eq!(one.orbits, many.orbits, "{shards} shards");
        assert_eq!(one.problems, many.problems, "{shards} shards");
    }
}

#[test]
fn bitsliced_sweep_leaves_the_engine_cache_warm_for_the_whole_family() {
    let (engine, outcome) = sweep(EngineKind::Bitsliced, 2, 2, 2);
    let swept = engine.stats();
    assert_eq!(swept.cache_hits, 0);
    assert_eq!(swept.cache_misses as u64, outcome.orbits.total());

    // The mask-direct keys must make every member of the universe — canonical
    // or not — a cache hit.
    let problems: Vec<_> = enumerate_problems(2, 2).collect();
    for p in &problems {
        engine.classify(p);
    }
    let after = engine.stats();
    assert_eq!(
        after.cache_misses, swept.cache_misses,
        "no new decision runs"
    );
    assert_eq!(after.cache_hits, problems.len());
}
