//! Writes the benchmark's committed expectations, cross-checking each one on
//! a second decision path:
//!
//! * `data/serve_pool.txt` — the serve workload's (δ=2) problem pool with
//!   verdicts from the report path (`lcl_core::classify`), each checked
//!   against the bit-sliced lanes (`classify_block_sliced`);
//! * `data/campaign_slices.txt` — per-slice histograms of the
//!   campaign-d2l4 stretch from `sweep_resumable_bitsliced`, each checked
//!   against the scalar `sweep_resumable` oracle.
//!
//! Run from the benchmark directory:
//! `cargo run --release --bin perfbench-expected`. The output is
//! deterministic; rerunning it must leave the files unchanged.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::process::ExitCode;

use lcl_core::{
    canonical_form, classify, classify_block_sliced, BitSliceScratch, ClassificationEngine,
    Complexity, EngineKind, LaneVerdict, SweepCheckpoint, SweepSnapshot,
};
use lcl_problems::canonical::CanonicalFamily;
use lcl_problems::catalog;
use lcl_rand::SplitMix64;
use perfbench::campaign::{self, leg_ranges, slice, slice_line};
use perfbench::verdict::{code, pool_path, uses_every_label};

/// Pool sizes and the generator seed (fixed: the pool is committed).
const THREE: usize = 2048;
const FOUR: usize = 2048;
const POOL_SEED: u64 = 0x9001;
/// Density of configurations in a random pool mask.
const DENSITY: f64 = 0.3;

fn random_mask(rng: &mut SplitMix64, universe_len: usize) -> u64 {
    (0..universe_len).fold(
        0u64,
        |m, i| {
            if rng.gen_bool(DENSITY) {
                m | 1 << i
            } else {
                m
            }
        },
    )
}

/// Verdicts of `masks` on the report path, checked lane by lane against the
/// bit-sliced kernels.
fn cross_checked(family: &CanonicalFamily, masks: &[u64]) -> Result<Vec<Complexity>, String> {
    let universe = family.sliced_universe();
    let mut scratch = BitSliceScratch::<u64>::new();
    let mut lanes = Vec::new();
    let mut out = Vec::with_capacity(masks.len());
    for block in masks.chunks(64) {
        classify_block_sliced(&universe, block, &mut scratch, &mut lanes);
        for (&mask, lane) in block.iter().zip(&lanes) {
            let verdict = classify(&family.problem_at(mask)).complexity;
            let agrees = match lane {
                LaneVerdict::Decided(c) => *c == verdict,
                LaneVerdict::NeedsPolyExponent => {
                    matches!(verdict, Complexity::Polynomial { .. })
                }
            };
            if !agrees {
                return Err(format!(
                    "mask {mask}: report path says {verdict}, bit-sliced lane says {lane:?}"
                ));
            }
            out.push(verdict);
        }
    }
    Ok(out)
}

fn write_pool(four: usize) -> Result<(), String> {
    let mut rng = SplitMix64::seed_from_u64(POOL_SEED);
    let fam3 = CanonicalFamily::new(2, 3);
    let fam4 = CanonicalFamily::new(2, 4);
    let mut three_masks = Vec::with_capacity(THREE);
    while three_masks.len() < THREE {
        let mask = random_mask(&mut rng, fam3.universe_len());
        if uses_every_label(&fam3, mask, 3) {
            three_masks.push(mask);
        }
    }
    // 4-label problems: pairwise renaming-inequivalent and distinct from
    // every catalog problem, so each is a memo miss when first sent.
    let mut seen: HashSet<_> = catalog::catalog()
        .iter()
        .map(|e| canonical_form(&e.problem))
        .collect();
    let mut four_masks = Vec::with_capacity(four);
    while four_masks.len() < four {
        let mask = random_mask(&mut rng, fam4.universe_len());
        if uses_every_label(&fam4, mask, 4) && seen.insert(canonical_form(&fam4.problem_at(mask))) {
            four_masks.push(mask);
        }
    }
    let mut text = String::from(
        "# (δ=2) problem pool of the classify-serve workload: <labels> <mask> <verdict>.\n\
         # Verdicts from the report path, cross-checked on the bit-sliced lanes.\n\
         # Written by perfbench-expected; c = O(1), s = log*, l = log, p<k> = n^(1/k), u = unsolvable.\n",
    );
    for (labels, family, masks) in [(3, &fam3, &three_masks), (4, &fam4, &four_masks)] {
        for (mask, verdict) in masks.iter().zip(cross_checked(family, masks)?) {
            writeln!(text, "{labels} {mask} {}", code(verdict)).expect("writing to a String");
        }
    }
    std::fs::write(pool_path(), text).map_err(|e| format!("writing the pool: {e}"))
}

fn write_slices(slices: usize) -> Result<(), String> {
    let family = CanonicalFamily::new(campaign::DELTA, campaign::LABELS);
    let universe = family.sliced_universe();
    let mut text = String::from(
        "# Per-slice histograms of the campaign-d2l4 stretch: slice <k> <lo> <hi>\n\
         # orbits <14 counts> problems <14 counts>; counts are O(1) log* log poly\n\
         # poly_1..poly_8+ unsolvable. Bit-sliced sweep, cross-checked against the\n\
         # scalar sweep_resumable oracle. Written by perfbench-expected.\n",
    );
    for k in 0..slices {
        let fresh = || {
            SweepSnapshot::fresh(
                campaign::DELTA as u16,
                campaign::LABELS as u16,
                EngineKind::Bitsliced,
                leg_ranges(slice(k)),
            )
        };
        let sliced = campaign::sweep_leg(&family, &universe, fresh(), None)?;
        let mut scalar_state = fresh();
        scalar_state.cursor.engine = EngineKind::Scalar;
        let (scalar, _) = ClassificationEngine::new()
            .sweep_resumable(
                scalar_state,
                |r| family.orbits_in(r),
                &SweepCheckpoint {
                    path: None,
                    every_orbits: u64::MAX,
                    orbit_limit: None,
                },
            )
            .map_err(|e| format!("scalar oracle: {e}"))?;
        if sliced.outcome.orbits != scalar.outcome.orbits
            || sliced.outcome.problems != scalar.outcome.problems
        {
            return Err(format!(
                "slice {k}: bit-sliced {:?} differs from scalar {:?}",
                sliced.outcome.orbits, scalar.outcome.orbits
            ));
        }
        text.push_str(&slice_line(
            k,
            &sliced.outcome.orbits,
            &sliced.outcome.problems,
        ));
        text.push('\n');
        eprintln!("slice {k}: {} orbits", sliced.outcome.orbits.total());
    }
    std::fs::write(campaign::slices_path(), text).map_err(|e| format!("writing the slices: {e}"))
}

fn main() -> ExitCode {
    match write_pool(FOUR).and_then(|()| write_slices(campaign::LEGS_PER_ROUND)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-expected: {e}");
            ExitCode::FAILURE
        }
    }
}
