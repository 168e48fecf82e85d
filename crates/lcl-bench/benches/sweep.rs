//! Exhaustive-universe classification: canonical-first sweep vs the
//! enumerate-everything + `classify_batch` baseline.
//!
//! The workload is the one the sweep subsystem exists for: classify *every*
//! problem of a (δ, Σ) family. The baseline materializes all `2^u` problems
//! and pushes them through the memoized engine, which still pays one
//! `LclProblem` construction and one `canonical_form` per member before the
//! memo can collapse the orbit. The canonical-first sweep filters the
//! configuration-mask space down to one representative per label-permutation
//! orbit first (cheap `u64` permutation tests, up to a |Σ|! reduction), builds
//! and classifies only those, and reconstructs the whole-universe histogram
//! through the orbit sizes — a structural win that holds on a single-core
//! runner.
//!
//! The bit-sliced engine goes one level further: same canonical stream, but
//! 64 orbit representatives per block run the decision fixed points in
//! lockstep as the bits of one `u64` (`lcl_core::bitslice`), with mask-direct
//! canonical memo keys — no `LclProblem` is even built except for the rare
//! scalar polynomial-exponent fallback.
//!
//! The bench asserts, on the full (δ=2, 3-label) universe of 2^18 problems:
//!
//! 1. the canonical-first sweep is faster than enumerate + `classify_batch`;
//! 2. the bit-sliced sweep is faster than the scalar canonical-first sweep
//!    (ratio recorded as `bitsliced_vs_canonical_first`);
//! 3. both sweep histograms **exactly** match the enumerate+dedup baseline.
//!
//! Both sweeps run on the one resumable sweep driver, in memory (no
//! checkpoint file). Also recorded as metrics: the batched canonical filter's
//! full-universe scan rate (`canonical_filter_masks_per_sec`) and the
//! bit-sliced sweep's classification rate (`bitsliced_orbits_per_sec`).
//!
//! Checkpoint cost: the same bit-sliced sweep writing a checkpoint file every
//! 500 orbits, against it in memory. Their median time ratio is recorded as
//! `checkpointed_vs_in_memory` (cost, so lower is better; each case carries
//! its min/max/samples), and CI fails when the committed ratio reaches 2.0.
//!
//! Resume cost: the last quarter of the orbits as one campaign leg, loaded
//! and resumed from the checkpoint of everything before it, against the same
//! leg from an empty memo. Their median time ratio is recorded as
//! `resumed_leg_vs_fresh_leg` (cost, lower is better), and CI fails when the
//! committed ratio reaches 2.0.
//!
//! Campaign stages: the canonical filter and the key derivation of one
//! (δ=2, 4-label) campaign slice, recorded as `d2_l4_filter_masks_per_sec`
//! and `d2_l4_keys_per_sec`.

use std::path::Path;
use std::time::Instant;

use lcl_bench::harness::{black_box, Bench, BenchReport};
use lcl_core::engine::ComplexityHistogram;
use lcl_core::{
    CanonicalKey, ClassificationEngine, Complexity, EngineKind, MaskRange, SweepCheckpoint,
    SweepOutcome, SweepSnapshot, LANES,
};
use lcl_problems::canonical::CanonicalFamily;
use lcl_problems::random::enumerate_problems;

fn baseline_histogram(delta: usize, labels: usize) -> ComplexityHistogram {
    let problems: Vec<_> = enumerate_problems(delta, labels).collect();
    let engine = ClassificationEngine::new();
    let results = engine.classify_batch(&problems);
    let mut histogram = ComplexityHistogram::default();
    for c in results {
        histogram.add(c, 1);
    }
    histogram
}

fn sweep_histogram(delta: usize, labels: usize, shards: usize) -> ComplexityHistogram {
    let family = CanonicalFamily::new(delta, labels);
    campaign(&family, EngineKind::Scalar, shards, Vec::new(), None)
        .outcome
        .problems
}

fn bitsliced_outcome(delta: usize, labels: usize, shards: usize) -> SweepOutcome {
    let family = CanonicalFamily::new(delta, labels);
    campaign(&family, EngineKind::Bitsliced, shards, Vec::new(), None).outcome
}

/// Full-universe scan rate of the batched canonical filter: how fast
/// `CanonicalFamily::blocks_in` streams canonical representatives when it tests
/// 64-mask windows at once (one image of the window's base per permutation,
/// ORed with one table lookup per surviving offset, instead of one
/// `is_canonical` per mask).
fn canonical_filter_masks_per_sec(delta: usize, labels: usize) -> f64 {
    let family = CanonicalFamily::new(delta, labels);
    let mut best = f64::MAX;
    for _ in 0..5 {
        let start = Instant::now();
        let mut orbits = 0u64;
        for block in family.blocks_in(family.ranges(1)[0], 64) {
            orbits += block.masks.len() as u64;
        }
        black_box(orbits);
        best = best.min(start.elapsed().as_secs_f64());
    }
    family.family_size() as f64 / best.max(1e-12)
}

/// Orbits between two writes of a checkpointed bench campaign.
const CHECKPOINT_EVERY: u64 = 500;

/// One full campaign over the family on the given engine, booted from the
/// given memo (empty = cold boot, a completed campaign's memo = warm boot).
/// With `checkpoint`, it writes a checkpoint there every
/// [`CHECKPOINT_EVERY`] orbits and at the end; without, it stays in memory.
fn campaign(
    family: &CanonicalFamily,
    kind: EngineKind,
    shards: usize,
    memo: Vec<(CanonicalKey, Complexity)>,
    checkpoint: Option<&Path>,
) -> SweepSnapshot {
    let engine = ClassificationEngine::new();
    let mut state = SweepSnapshot::fresh(
        family.delta() as u16,
        family.num_labels() as u16,
        kind,
        family.ranges(shards),
    );
    state.memo = memo;
    let ckpt = SweepCheckpoint {
        path: checkpoint,
        every_orbits: CHECKPOINT_EVERY,
        orbit_limit: None,
    };
    let (snap, completed) = family
        .sweep(&engine, state, &ckpt)
        .expect("campaign checkpoint written");
    assert!(completed, "an unlimited campaign runs to completion");
    snap
}

/// Warm-boot acceptance: re-sweeping a universe with the memo of a finished
/// campaign must beat sweeping it cold, and produce the identical histogram.
/// Both run the scalar engine, which is where the memo pays: a hit skips a
/// whole scalar decision, whereas the bit-sliced lanes classify 64 orbits for
/// less than the lookups would cost.
fn run_warm_boot(report: &mut BenchReport, delta: usize, labels: usize, samples: usize) {
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let family = CanonicalFamily::new(delta, labels);

    let cold_snap = campaign(&family, EngineKind::Scalar, shards, Vec::new(), None);
    let warm_snap = campaign(
        &family,
        EngineKind::Scalar,
        shards,
        cold_snap.memo.clone(),
        None,
    );
    assert_eq!(
        warm_snap.outcome.problems, cold_snap.outcome.problems,
        "warm-booted re-sweep must reproduce the cold histogram exactly"
    );
    let memo = cold_snap.memo;

    let mut bench = Bench::new(&format!(
        "resumable re-sweep (δ={delta}, {labels}-label) universe"
    ));
    let cold_label = "cold boot (empty memo)";
    let warm_label = "warm boot (completed campaign's memo)";
    bench.case_samples(cold_label, samples, || {
        black_box(campaign(&family, EngineKind::Scalar, shards, Vec::new(), None).outcome)
    });
    bench.case_samples(warm_label, samples, || {
        black_box(campaign(&family, EngineKind::Scalar, shards, memo.clone(), None).outcome)
    });
    let cold = bench.median_of(cold_label).expect("case ran");
    let warm = bench.median_of(warm_label).expect("case ran");
    let speedup = report.add_ratio(&format!("warm_vs_cold_d{delta}_l{labels}"), cold, warm);
    println!("warm-boot speedup over a cold re-sweep: {speedup:.2}x");
    assert!(
        warm < cold,
        "warm-booted re-sweep ({warm:?}) should beat the cold sweep ({cold:?}) \
         on the full (δ={delta}, {labels}-label) universe"
    );
    println!();
    report.add_group(bench);
}

/// Checkpoint cost: the bit-sliced sweep of the whole universe writing a
/// checkpoint file every [`CHECKPOINT_EVERY`] orbits, against the same sweep
/// in memory. The file must load to the sweep's outcome.
fn run_checkpoint_cost(report: &mut BenchReport, delta: usize, labels: usize, samples: usize) {
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let family = CanonicalFamily::new(delta, labels);
    let dir = std::env::temp_dir().join(format!("rtlcl-bench-checkpoint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let path = dir.join("sweep.ckpt");

    let in_memory = campaign(&family, EngineKind::Bitsliced, shards, Vec::new(), None);
    let checkpointed = campaign(
        &family,
        EngineKind::Bitsliced,
        shards,
        Vec::new(),
        Some(&path),
    );
    assert_eq!(checkpointed.outcome.problems, in_memory.outcome.problems);
    let on_disk = SweepSnapshot::load(&path).expect("the checkpoint loads");
    assert_eq!(on_disk.outcome, checkpointed.outcome);
    assert_eq!(on_disk.memo.len(), checkpointed.memo.len());

    let mut bench = Bench::new(&format!(
        "bit-sliced (δ={delta}, {labels}-label) sweep, checkpoint cost"
    ));
    let memory_label = "in memory";
    let file_label = &format!("checkpoint every {CHECKPOINT_EVERY} orbits");
    bench.case_samples(memory_label, samples, || {
        black_box(campaign(&family, EngineKind::Bitsliced, shards, Vec::new(), None).outcome)
    });
    bench.case_samples(file_label, samples, || {
        black_box(
            campaign(
                &family,
                EngineKind::Bitsliced,
                shards,
                Vec::new(),
                Some(&path),
            )
            .outcome,
        )
    });
    let memory = bench.median_of(memory_label).expect("case ran");
    let file = bench.median_of(file_label).expect("case ran");
    // Time with checkpoints over time without: the cost factor.
    let ratio = report.add_ratio("checkpointed_vs_in_memory", file, memory);
    println!("checkpointed sweep / in-memory sweep: {ratio:.2}x");
    println!();
    report.add_group(bench);
    std::fs::remove_dir_all(&dir).ok();
}

/// Share of the universe's orbits in the final slice of the resumed-leg
/// bench: `1 / RESUMED_SLICE_DIVISOR`.
const RESUMED_SLICE_DIVISOR: usize = 4;

/// Sweeps the cursor of `state` on a fresh engine with the bit-sliced
/// engine, writing a checkpoint to `checkpoint` every [`CHECKPOINT_EVERY`]
/// orbits and at the end.
fn sweep_leg(family: &CanonicalFamily, state: SweepSnapshot, checkpoint: &Path) -> SweepSnapshot {
    let ckpt = SweepCheckpoint {
        path: Some(checkpoint),
        every_orbits: CHECKPOINT_EVERY,
        orbit_limit: None,
    };
    let (snap, completed) = family
        .sweep(&ClassificationEngine::new(), state, &ckpt)
        .expect("campaign checkpoint written");
    assert!(completed, "an unlimited leg runs to completion");
    snap
}

/// Resumed-leg cost: a campaign leg over the final slice of the universe
/// (the masks from the representative of the orbit at three quarters of the
/// canonical stream on), resumed from the checkpoint of everything below it
/// (load, then a checkpointed bit-sliced sweep of the slice), against the
/// same leg started from an empty memo. The slice is a quarter of the
/// orbits because the load alone — the file digest and one key per carried
/// entry — costs about 0.2 µs per carried entry against about 1.2 µs per
/// classified orbit: for a slice of an eighth, with seven entries carried
/// per orbit classified, the load would cost more than the leg. Both legs
/// run on one worker, and each iteration first puts the near-complete
/// checkpoint back at the leg's path, so the two differ only in what
/// resuming costs: the load and whatever the sweep pays for the memo it
/// carries. Their median time ratio is recorded as
/// `resumed_leg_vs_fresh_leg` (cost, so lower is better); CI fails when the
/// committed ratio reaches 2.0.
fn run_resumed_leg(report: &mut BenchReport, delta: usize, labels: usize, samples: usize) {
    let family = CanonicalFamily::new(delta, labels);
    let whole = family.ranges(1)[0];
    let representatives: Vec<u64> = family
        .blocks_in(whole, LANES)
        .flat_map(|block| block.masks)
        .collect();
    let slice = MaskRange {
        next: representatives
            [representatives.len() - representatives.len() / RESUMED_SLICE_DIVISOR],
        hi: whole.hi,
    };
    let state_over = |range| {
        SweepSnapshot::fresh(
            delta as u16,
            labels as u16,
            EngineKind::Bitsliced,
            vec![range],
        )
    };
    let dir = std::env::temp_dir().join(format!("rtlcl-bench-resumed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let path = dir.join("campaign.ckpt");

    // The near-complete checkpoint: every mask below the slice swept, the
    // slice pending.
    let below = MaskRange {
        next: whole.next,
        hi: slice.next,
    };
    let mut near_complete = sweep_leg(&family, state_over(below), &path);
    near_complete.cursor.ranges = vec![slice];
    let pristine = near_complete.to_bytes();

    let resumed_leg = || {
        std::fs::write(&path, &pristine).expect("checkpoint restored");
        let state = SweepSnapshot::load(&path).expect("the checkpoint loads");
        sweep_leg(&family, state, &path)
    };
    let fresh_leg = || {
        std::fs::write(&path, &pristine).expect("checkpoint restored");
        sweep_leg(&family, state_over(slice), &path)
    };
    let fresh = fresh_leg();
    let resumed = resumed_leg();
    let on_disk = SweepSnapshot::load(&path).expect("the resumed leg's checkpoint loads");
    assert_eq!(on_disk.outcome, resumed.outcome);
    assert_eq!(on_disk.memo.len(), resumed.memo.len());
    let slice_orbits = fresh.outcome.orbits.total();
    assert_eq!(
        resumed.outcome.orbits.total(),
        near_complete.outcome.orbits.total() + slice_orbits
    );
    assert_eq!(
        resumed.memo.len(),
        near_complete.memo.len() + fresh.memo.len()
    );

    let mut bench = Bench::new(&format!(
        "(δ={delta}, {labels}-label) campaign leg over the final 1/{RESUMED_SLICE_DIVISOR} of \
         the orbits ({slice_orbits} orbits, {} carried)",
        near_complete.memo.len()
    ));
    let resumed_label = "resumed from the near-complete checkpoint";
    let fresh_label = "fresh (empty memo)";
    bench.case_samples(resumed_label, samples, || black_box(resumed_leg().outcome));
    bench.case_samples(fresh_label, samples, || black_box(fresh_leg().outcome));
    let resumed = bench.median_of(resumed_label).expect("case ran");
    let fresh = bench.median_of(fresh_label).expect("case ran");
    // Time of the resumed leg over time of the fresh one: the resume cost.
    let ratio = report.add_ratio("resumed_leg_vs_fresh_leg", resumed, fresh);
    println!("resumed leg / fresh leg: {ratio:.2}x");
    println!();
    report.add_group(bench);
    std::fs::remove_dir_all(&dir).ok();
}

/// The canonical stream of one (δ=2, 4-label) campaign slice — 2^16 masks
/// from 2^27, where the campaign benchmark walks — through the two stages a
/// sweep leg runs before its kernels: the batched canonical filter
/// (`blocks_in`, orbit sizes included) over the slice, and the mask-direct
/// key (`canonical_key_of`) of every representative it yields. Records both
/// rates, `d2_l4_filter_masks_per_sec` and `d2_l4_keys_per_sec`.
fn run_canonical_stream(report: &mut BenchReport, samples: usize) {
    let family = CanonicalFamily::new(2, 4);
    let slice = MaskRange {
        next: 1 << 27,
        hi: (1 << 27) + (1 << 16),
    };
    let representatives: Vec<u64> = family
        .blocks_in(slice, LANES)
        .flat_map(|block| block.masks)
        .collect();

    let mut bench = Bench::new("canonical_stream_d2_l4 (2^16 masks from 2^27)");
    let filter_label = "blocks_in: canonical filter and orbit sizes";
    let key_label = &format!(
        "canonical_key_of: {} representatives",
        representatives.len()
    );
    bench.case_samples(filter_label, samples, || {
        family
            .blocks_in(slice, LANES)
            .map(|block| block.masks.len())
            .sum::<usize>()
    });
    bench.case_samples(key_label, samples, || {
        representatives
            .iter()
            .map(|&mask| family.canonical_key_of(mask).as_words().len())
            .sum::<usize>()
    });
    let filter = bench.median_of(filter_label).expect("case ran");
    let keys = bench.median_of(key_label).expect("case ran");
    let filter_rate = slice.remaining() as f64 / filter.as_secs_f64().max(1e-12);
    let key_rate = representatives.len() as f64 / keys.as_secs_f64().max(1e-12);
    report.add_metric("d2_l4_filter_masks_per_sec", filter_rate);
    report.add_metric("d2_l4_keys_per_sec", key_rate);
    println!("(δ=2, 4-label) slice: {filter_rate:.3e} masks/s filtered, {key_rate:.3e} keys/s");
    println!();
    report.add_group(bench);
}

fn run_universe(
    report: &mut BenchReport,
    delta: usize,
    labels: usize,
    samples: usize,
    assert_win: bool,
) {
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Correctness first: the histograms must agree exactly before any timing
    // matters (acceptance criterion of the sweep subsystem).
    let baseline = baseline_histogram(delta, labels);
    let swept = sweep_histogram(delta, labels, shards);
    assert_eq!(
        swept, baseline,
        "sweep histogram must exactly match the enumerate+dedup baseline on (δ={delta}, {labels} labels)"
    );
    let bitsliced = bitsliced_outcome(delta, labels, shards);
    assert_eq!(
        bitsliced.problems, baseline,
        "bit-sliced histogram must exactly match the enumerate+dedup baseline on (δ={delta}, {labels} labels)"
    );

    let mut bench = Bench::new(&format!(
        "exhaustive (δ={delta}, {labels}-label) universe ({} problems)",
        1u64 << lcl_problems::canonical::family_universe_len(delta, labels)
            .expect("a sweepable family")
    ));
    let baseline_label = "enumerate_problems + classify_batch";
    let sweep_label = "canonical-first sweep";
    let bitsliced_label = "bit-sliced sweep (64 lanes)";
    bench.case_samples(baseline_label, samples, || {
        black_box(baseline_histogram(delta, labels))
    });
    bench.case_samples(sweep_label, samples, || {
        black_box(sweep_histogram(delta, labels, shards))
    });
    bench.case_samples(bitsliced_label, samples, || {
        black_box(bitsliced_outcome(delta, labels, shards).problems)
    });

    let naive = bench.median_of(baseline_label).expect("case ran");
    let sweep = bench.median_of(sweep_label).expect("case ran");
    let sliced = bench.median_of(bitsliced_label).expect("case ran");
    let speedup = report.add_ratio(
        &format!("canonical_first_speedup_d{delta}_l{labels}"),
        naive,
        sweep,
    );
    println!("canonical-first speedup over enumerate+batch: {speedup:.2}x");
    if assert_win {
        assert!(
            sweep < naive,
            "canonical-first sweep ({sweep:?}) should beat enumerate+classify_batch \
             ({naive:?}) on the full (δ={delta}, {labels}-label) universe"
        );
        // The headline ratio of the bit-sliced engine, against the scalar
        // canonical-first sweep on the acceptance workload.
        let lane_speedup = report.add_ratio("bitsliced_vs_canonical_first", sweep, sliced);
        println!("bit-sliced speedup over the scalar sweep: {lane_speedup:.2}x");
        assert!(
            sliced < sweep,
            "bit-sliced sweep ({sliced:?}) should beat the scalar canonical-first \
             sweep ({sweep:?}) on the full (δ={delta}, {labels}-label) universe"
        );

        // Classification and canonical-filter rates, for campaign planning
        // (the README's 4-label arithmetic divides orbit counts by these).
        let orbits_per_sec = bitsliced.orbits.total() as f64 / sliced.as_secs_f64().max(1e-12);
        report.add_metric("bitsliced_orbits_per_sec", orbits_per_sec);
        let filter_rate = canonical_filter_masks_per_sec(delta, labels);
        report.add_metric("canonical_filter_masks_per_sec", filter_rate);
        println!("bit-sliced sweep: {orbits_per_sec:.0} orbits/s");
        println!("batched canonical filter: {filter_rate:.3e} masks/s");
    }
    println!();
    report.add_group(bench);
}

fn main() {
    let mut report = BenchReport::new("sweep");
    // Small universe: quick signal, histogram equality asserted, timing not
    // gated (64 problems classify in microseconds either way).
    run_universe(&mut report, 2, 2, 11, false);
    // The acceptance workload: the full 2^18-problem (δ=2, 3-label) universe.
    run_universe(&mut report, 2, 3, 3, true);
    // Warm boot: the persistent-memo payoff on the same acceptance workload.
    run_warm_boot(&mut report, 2, 3, 3);
    // What periodic checkpoints add to the bit-sliced sweep.
    run_checkpoint_cost(&mut report, 2, 3, 11);
    // What resuming a near-complete campaign adds to its last leg.
    run_resumed_leg(&mut report, 2, 3, 11);
    // The filter and key stages of a (δ=2, 4-label) campaign leg.
    run_canonical_stream(&mut report, 11);
    report.write().expect("bench report written");
}
