//! Differential acceptance tests for the canonical-first sweep subsystem:
//!
//! * orbit counts and orbit sizes of `CanonicalFamily` must match brute-force
//!   `canonical_form` dedup of the fully enumerated universe;
//! * sweep histograms (orbit-weighted) must match `classify_batch` over the
//!   full universe, and the orbit histogram must match dedup-then-classify;
//! * the sweep leaves the engine cache warm for every member of the family;
//! * completed sweeps on both engines report the orbit totals of Burnside's
//!   lemma, computed here from the configurations alone.

use std::collections::HashMap;

use rooted_tree_lcl::core::engine::{ComplexityHistogram, SweepOutcome};
use rooted_tree_lcl::core::{
    canonical_form, classify, CanonicalKey, ClassificationEngine, EngineKind, SweepCheckpoint,
    SweepSnapshot,
};
use rooted_tree_lcl::problems::canonical::CanonicalFamily;
use rooted_tree_lcl::problems::random::enumerate_problems;

/// Universes small enough to brute-force in a debug test run.
const TINY_UNIVERSES: [(usize, usize); 3] = [(1, 2), (2, 2), (1, 3)];

/// Brute force: enumerate the whole family, key every member by its canonical
/// form, count members per orbit.
fn brute_force_orbits(delta: usize, labels: usize) -> HashMap<CanonicalKey, u64> {
    let mut orbits: HashMap<CanonicalKey, u64> = HashMap::new();
    for p in enumerate_problems(delta, labels) {
        *orbits.entry(canonical_form(&p)).or_insert(0) += 1;
    }
    orbits
}

#[test]
fn canonical_enumeration_matches_brute_force_dedup() {
    for (delta, labels) in TINY_UNIVERSES {
        let family = CanonicalFamily::new(delta, labels);
        let brute = brute_force_orbits(delta, labels);

        let mut seen_keys: HashMap<CanonicalKey, u64> = HashMap::new();
        let mut total = 0u64;
        for orbit in family.enumerate() {
            let key = canonical_form(&orbit.problem);
            let previous = seen_keys.insert(key, orbit.orbit_size);
            assert!(
                previous.is_none(),
                "two representatives share a canonical form (δ={delta}, k={labels})"
            );
            total += orbit.orbit_size;
        }
        assert_eq!(
            seen_keys.len(),
            brute.len(),
            "orbit count mismatch (δ={delta}, k={labels})"
        );
        assert_eq!(
            total,
            family.family_size(),
            "orbit sizes must cover the universe (δ={delta}, k={labels})"
        );
        for (key, size) in &seen_keys {
            assert_eq!(
                brute.get(key),
                Some(size),
                "orbit size mismatch (δ={delta}, k={labels})"
            );
        }
    }
}

#[test]
fn delta2_three_label_orbit_count_matches_brute_force() {
    // The full (δ=2, 3-label) universe of 2^18 problems — the sweep benchmark's
    // workload. Counting-only here; the per-orbit histogram equality is covered
    // by the sweep tests below and by `benches/sweep.rs` on the full universe.
    let family = CanonicalFamily::new(2, 3);
    let brute = brute_force_orbits(2, 3);
    let mut reps = 0usize;
    let mut covered = 0u64;
    for mask in family.canonical_masks() {
        reps += 1;
        covered += family.orbit_size(mask);
    }
    assert_eq!(reps, brute.len());
    assert_eq!(covered, family.family_size());
    assert_eq!(brute.values().sum::<u64>(), family.family_size());
}

fn baseline_histogram(delta: usize, labels: usize) -> ComplexityHistogram {
    let problems: Vec<_> = enumerate_problems(delta, labels).collect();
    let engine = ClassificationEngine::new();
    let mut histogram = ComplexityHistogram::default();
    for c in engine.classify_batch(&problems) {
        histogram.add(c, 1);
    }
    histogram
}

/// A complete in-memory sweep of the (δ, labels) family on `kind`, split
/// into `shards` mask ranges.
fn sweep_on(
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

fn sweep(delta: usize, labels: usize, shards: usize) -> (ClassificationEngine, SweepOutcome) {
    sweep_on(EngineKind::Scalar, delta, labels, shards)
}

/// The base-`base` digits of `code`, least significant first.
fn digits(code: usize, base: usize, len: usize) -> Vec<usize> {
    (0..len).map(|i| code / base.pow(i as u32) % base).collect()
}

/// The configurations of the (δ, labels) family: a parent label and a sorted
/// child multiset each. Shares no code with `CanonicalFamily`.
fn configurations(delta: usize, labels: usize) -> Vec<(usize, Vec<usize>)> {
    (0..labels.pow(delta as u32))
        .map(|code| digits(code, labels, delta))
        .filter(|children| children.windows(2).all(|w| w[0] <= w[1]))
        .flat_map(|children| (0..labels).map(move |parent| (parent, children.clone())))
        .collect()
}

/// The number of label-permutation orbits of configuration sets in the
/// (δ, labels) family, by Burnside's lemma: the average over every
/// permutation g of Σ of 2^(cycles of g on the configurations). Shares no
/// code with `CanonicalFamily`.
fn burnside_orbits(delta: usize, labels: usize) -> u64 {
    let configs = configurations(delta, labels);
    let perms: Vec<Vec<usize>> = (0..labels.pow(labels as u32))
        .map(|code| digits(code, labels, labels))
        .filter(|p| {
            let mut seen = p.clone();
            seen.sort_unstable();
            seen.dedup();
            seen.len() == labels
        })
        .collect();
    let mut fixed_sets = 0u64;
    for perm in &perms {
        let image: Vec<usize> = configs
            .iter()
            .map(|(parent, children)| {
                let mut mapped: Vec<usize> = children.iter().map(|&c| perm[c]).collect();
                mapped.sort_unstable();
                let target = (perm[*parent], mapped);
                configs.iter().position(|c| *c == target).expect("closed")
            })
            .collect();
        let mut visited = vec![false; configs.len()];
        let mut cycles = 0u32;
        for start in 0..configs.len() {
            if !visited[start] {
                cycles += 1;
                let mut i = start;
                while !visited[i] {
                    visited[i] = true;
                    i = image[i];
                }
            }
        }
        fixed_sets += 1u64 << cycles;
    }
    assert_eq!(fixed_sets % perms.len() as u64, 0);
    fixed_sets / perms.len() as u64
}

#[test]
fn sweep_histograms_match_classify_batch_over_the_full_universe() {
    for (delta, labels) in TINY_UNIVERSES {
        let baseline = baseline_histogram(delta, labels);
        let (_, outcome) = sweep(delta, labels, 3);
        assert_eq!(
            outcome.problems, baseline,
            "universe histogram mismatch (δ={delta}, k={labels})"
        );
        assert_eq!(
            outcome.problems.total(),
            1u64 << configurations(delta, labels).len()
        );

        // Orbit histogram: classify one member per canonical form.
        let mut dedup: HashMap<CanonicalKey, rooted_tree_lcl::core::Complexity> = HashMap::new();
        for p in enumerate_problems(delta, labels) {
            dedup
                .entry(canonical_form(&p))
                .or_insert_with(|| classify(&p).complexity);
        }
        let mut orbit_histogram = ComplexityHistogram::default();
        for &c in dedup.values() {
            orbit_histogram.add(c, 1);
        }
        assert_eq!(
            outcome.orbits, orbit_histogram,
            "orbit histogram mismatch (δ={delta}, k={labels})"
        );
    }
}

#[test]
fn sweep_outcome_is_independent_of_shard_count() {
    let (_, one) = sweep(2, 2, 1);
    for shards in [2usize, 4, 9] {
        let (_, many) = sweep(2, 2, shards);
        assert_eq!(one, many, "{shards} shards");
    }
}

#[test]
fn sweep_leaves_the_engine_cache_warm_for_the_whole_family() {
    let (engine, outcome) = sweep(2, 2, 2);
    let swept = engine.stats();
    assert_eq!(
        swept.cache_hits, 0,
        "a canonical stream never repeats an orbit"
    );
    assert_eq!(swept.cache_misses as u64, outcome.orbits.total());

    // Every member of the full universe — canonical or not — now hits.
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

#[test]
fn completed_sweeps_report_the_burnside_orbit_totals() {
    for (delta, labels, orbits) in [
        (1, 2, 10),
        (2, 2, 36),
        (3, 2, 136),
        (1, 3, 104),
        (2, 3, 44_224),
        (1, 4, 3_044),
    ] {
        assert_eq!(
            burnside_orbits(delta, labels),
            orbits,
            "(δ={delta}, k={labels})"
        );
        for kind in [EngineKind::Scalar, EngineKind::Bitsliced] {
            let (_, outcome) = sweep_on(kind, delta, labels, 3);
            assert_eq!(
                outcome.orbits.total(),
                orbits,
                "(δ={delta}, k={labels}, {} engine)",
                kind.name()
            );
        }
    }
    // The (δ=2, 4-label) census is far too large to sweep; its total is
    // pinned as arithmetic only.
    assert_eq!(burnside_orbits(2, 4), 45_817_315_584);
}
