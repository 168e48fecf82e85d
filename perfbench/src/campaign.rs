//! `campaign-d2l4`: successive legs of the (δ=2, 4-label) sweep campaign.
//!
//! The benchmarked stretch of the campaign is a fixed run of equal mask
//! slices starting at [`CAMPAIGN_BASE`]. A run is a sequence of identical
//! rounds. Each round boots from a checkpoint that carries the memo of the
//! masks just below [`CAMPAIGN_BASE`] (the set-up sample: family tables plus
//! that first boot, taken [`SETUPS_PER_ROUND`] times), then runs
//! [`LEGS_PER_ROUND`] successive legs over the first slices, in order. Each
//! leg is one resumed campaign invocation: load the previous leg's
//! checkpoint, point the cursor at the leg's slice, and run
//! `sweep_resumable_bitsliced` at `LaneWidth::default()` on a fresh engine,
//! which writes the checkpoint every [`CHECKPOINT_EVERY`] orbits and at the
//! end, as `rtlcl sweep` does. The workload has no seeded input:
//! every seed does the same work.
//!
//! Each leg's histogram delta must equal the one committed in
//! `data/campaign_slices.txt`, which `perfbench-expected` cross-checked
//! against the scalar `sweep_resumable` oracle when it wrote the file.

use std::path::Path;
use std::time::Instant;

use lcl_core::engine::POLY_EXPONENT_BUCKETS;
use lcl_core::{
    ClassificationEngine, ComplexityHistogram, EngineKind, LaneWidth, MaskRange, SlicedUniverse,
    SweepCheckpoint, SweepSnapshot,
};
use lcl_problems::canonical::CanonicalFamily;

use crate::report::{process_cpu_s, RunConfig, WorkDir};
use crate::trace::Tracer;
use crate::{LayerMetrics, Pass};

/// The family's δ.
pub const DELTA: usize = 2;
/// The family's |Σ|.
pub const LABELS: usize = 4;
/// First mask of the benchmarked stretch of the campaign: a dense region
/// (about 0.9 orbits per mask) that also reaches the scalar polynomial
/// fallback.
pub const CAMPAIGN_BASE: u64 = 1 << 27;
/// Masks per leg.
pub const SLICE_MASKS: u64 = 1 << 16;
/// Successive legs of one round.
pub const LEGS_PER_ROUND: usize = 3;
/// Rounds per nominal second of run length.
pub const ROUNDS_PER_SECOND: f64 = 0.5;
/// Set-up samples per round: the set-up is short (about 15 ms) and one sample
/// varies by up to ±20% within a run.
pub const SETUPS_PER_ROUND: usize = 5;
/// Orbits between two checkpoint writes inside a leg: the default of
/// `rtlcl sweep --checkpoint-every`.
pub const CHECKPOINT_EVERY: u64 = 4096;
/// Shards of each leg's cursor, which is also the sweep's worker count. One:
/// on the two-vCPU machine this was tuned on, two-worker legs were about 14%
/// faster but spread half again as wide between runs (alternated runs).
const SHARDS: u64 = 1;

/// The `k`-th slice of the benchmarked stretch.
pub fn slice(k: usize) -> MaskRange {
    let next = CAMPAIGN_BASE + k as u64 * SLICE_MASKS;
    MaskRange {
        next,
        hi: next + SLICE_MASKS,
    }
}

/// Masks below [`CAMPAIGN_BASE`] whose memo the starting checkpoint carries.
pub const PREFIX_MASKS: u64 = 1 << 20;

/// The stretch below [`CAMPAIGN_BASE`] whose memo the starting checkpoint
/// carries.
pub fn prefix_slice() -> MaskRange {
    MaskRange {
        next: CAMPAIGN_BASE - PREFIX_MASKS,
        hi: CAMPAIGN_BASE,
    }
}

/// A slice split into the cursor ranges of one leg.
pub fn leg_ranges(slice: MaskRange) -> Vec<MaskRange> {
    let per = slice.remaining().div_ceil(SHARDS);
    (0..SHARDS)
        .map(|s| MaskRange {
            next: slice.next + s * per,
            hi: (slice.next + (s + 1) * per).min(slice.hi),
        })
        .filter(|r| !r.is_done())
        .collect()
}

/// Committed per-slice histograms: `(orbits, problems)` for slice `k`.
pub type SliceHistograms = Vec<(ComplexityHistogram, ComplexityHistogram)>;

/// Path of the committed slice histograms.
pub fn slices_path() -> std::path::PathBuf {
    crate::report::bench_dir().join("data/campaign_slices.txt")
}

/// One histogram as its 14 counts.
pub fn histogram_fields(h: &ComplexityHistogram) -> Vec<u64> {
    let mut out = vec![h.constant, h.log_star, h.log, h.polynomial];
    out.extend_from_slice(&h.poly_k);
    out.push(h.unsolvable);
    out
}

fn histogram_from(fields: &[u64]) -> Option<ComplexityHistogram> {
    if fields.len() != 5 + POLY_EXPONENT_BUCKETS {
        return None;
    }
    let mut poly_k = [0u64; POLY_EXPONENT_BUCKETS];
    poly_k.copy_from_slice(&fields[4..4 + POLY_EXPONENT_BUCKETS]);
    Some(ComplexityHistogram {
        constant: fields[0],
        log_star: fields[1],
        log: fields[2],
        polynomial: fields[3],
        poly_k,
        unsolvable: fields[4 + POLY_EXPONENT_BUCKETS],
    })
}

/// Formats one `slice` line of `data/campaign_slices.txt`.
pub fn slice_line(
    k: usize,
    orbits: &ComplexityHistogram,
    problems: &ComplexityHistogram,
) -> String {
    let join = |h: &ComplexityHistogram| {
        histogram_fields(h)
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    };
    let r = slice(k);
    format!(
        "slice {k} {} {} orbits {} problems {}",
        r.next,
        r.hi,
        join(orbits),
        join(problems)
    )
}

/// Reads `data/campaign_slices.txt`, checking each line's slice bounds.
pub fn load_slices(path: &Path) -> Result<SliceHistograms, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let n = 5 + POLY_EXPONENT_BUCKETS;
        let bad = || format!("malformed slice line: {line}");
        if tokens.len() != 4 + 2 * (n + 1) || tokens[0] != "slice" {
            return Err(bad());
        }
        let num = |t: &str| t.parse::<u64>().map_err(|_| bad());
        let k = num(tokens[1])? as usize;
        let r = slice(k);
        if k != out.len() || num(tokens[2])? != r.next || num(tokens[3])? != r.hi {
            return Err(format!("slice line out of order or moved: {line}"));
        }
        let fields = |from: usize| -> Result<ComplexityHistogram, String> {
            let v: Vec<u64> = tokens[from..from + n]
                .iter()
                .map(|t| num(t))
                .collect::<Result<_, _>>()?;
            histogram_from(&v).ok_or_else(bad)
        };
        if tokens[4] != "orbits" || tokens[5 + n] != "problems" {
            return Err(bad());
        }
        out.push((fields(5)?, fields(6 + n)?));
    }
    Ok(out)
}

/// `after − before`, field by field.
fn histogram_delta(
    after: &ComplexityHistogram,
    before: &ComplexityHistogram,
) -> ComplexityHistogram {
    let a = histogram_fields(after);
    let b = histogram_fields(before);
    let d: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x.wrapping_sub(*y)).collect();
    histogram_from(&d).expect("same field count")
}

/// Sweeps the cursor of `state` on a fresh engine. With `checkpoint`, the
/// sweep writes it every [`CHECKPOINT_EVERY`] orbits and once at the end;
/// without, the campaign stays in memory.
pub fn sweep_leg(
    family: &CanonicalFamily,
    universe: &SlicedUniverse,
    state: SweepSnapshot,
    checkpoint: Option<&Path>,
) -> Result<SweepSnapshot, String> {
    let engine = ClassificationEngine::new();
    let width = LaneWidth::default();
    let ckpt = SweepCheckpoint {
        path: checkpoint,
        every_orbits: checkpoint.map_or(u64::MAX, |_| CHECKPOINT_EVERY),
        orbit_limit: None,
    };
    let (snap, _completed) = engine
        .sweep_resumable_bitsliced(
            universe,
            width,
            state,
            |r| family.blocks_in(r, width.lanes()),
            |mask| family.problem_at(mask),
            |mask| family.canonical_key_of(mask),
            &ckpt,
        )
        .map_err(|e| format!("sweep leg failed: {e}"))?;
    Ok(snap)
}

/// One pass of the workload.
pub fn pass(cfg: &RunConfig, tr: &mut Tracer) -> Result<Pass, String> {
    let expected = load_slices(&slices_path())?;
    if LEGS_PER_ROUND > expected.len() {
        return Err(format!(
            "{LEGS_PER_ROUND} legs per round, but data/campaign_slices.txt covers {} slices",
            expected.len()
        ));
    }
    let rounds = cfg.work(ROUNDS_PER_SECOND, 2);
    let dir = WorkDir::new("campaign").map_err(|e| format!("work dir: {e}"))?;
    let start_path = dir.path().join("start.ckpt");
    let ckpt_path = dir.path().join("campaign.ckpt");
    let probe_path = dir.path().join("probe.ckpt");

    // Preparation (untimed): the checkpoint every round resumes from.
    {
        let family = CanonicalFamily::new(DELTA, LABELS);
        let universe = family.sliced_universe();
        let fresh = SweepSnapshot::fresh(
            DELTA as u16,
            LABELS as u16,
            EngineKind::Bitsliced,
            leg_ranges(prefix_slice()),
        );
        let start = sweep_leg(&family, &universe, fresh, None)?;
        start
            .save(&start_path)
            .map_err(|e| format!("saving the start checkpoint: {e}"))?;
    }

    let mut out = Pass::default();
    let (mut final_memo, mut snapshot_bytes) = (0u64, 0u64);
    let (mut leg_cpu_s, mut leg_wall_s) = (0.0f64, 0.0f64);
    let (mut filter_masks, mut filter_ns) = (0u64, 0u64);
    for round in 0..rounds {
        // Set-up: family tables plus the first boot from the start checkpoint,
        // SETUPS_PER_ROUND times; the round runs on the last.
        let mut booted = None;
        for _ in 0..SETUPS_PER_ROUND {
            drop(booted.take());
            let t = Instant::now();
            let family = CanonicalFamily::new(DELTA, LABELS);
            let universe = family.sliced_universe();
            let first = SweepSnapshot::load(&start_path).map_err(|e| format!("first boot: {e}"))?;
            out.setup.push(t.elapsed());
            booted = Some((family, universe, first));
        }
        let (family, universe, first) = booted.expect("at least one set-up per round");
        out.count("start_memo_entries", first.memo.len() as u64);
        let mut state = Some(first);

        let mut legs_done = 0u64;
        for (k, (want_orbits, want_problems)) in expected.iter().take(LEGS_PER_ROUND).enumerate() {
            let op_id = (round * LEGS_PER_ROUND + k) as u64;
            let range = slice(k);
            if tr.on() {
                // The canonical filter alone over the leg's slice, outside
                // the operation so it does not count in the leg's time.
                let t = Instant::now();
                let n = tr.span("problems.filter", op_id, || {
                    family
                        .blocks_in(range, LaneWidth::default().lanes())
                        .map(|b| b.masks.len() as u64)
                        .sum::<u64>()
                });
                std::hint::black_box(n);
                filter_ns += t.elapsed().as_nanos() as u64;
                filter_masks += range.remaining();
            }
            out.attempted += 1;
            let cpu = process_cpu_s();
            let t = Instant::now();
            let op = tr.begin("op", op_id);
            let loaded = match state.take() {
                Some(s) => Ok(s),
                None => tr.span("core.snapshot_load", op_id, || {
                    SweepSnapshot::load(&ckpt_path)
                }),
            };
            let leg = loaded
                .map_err(|e| format!("cannot resume: {e}"))
                .and_then(|mut snap| {
                    let before = snap.outcome;
                    let memo_before = snap.memo.len() as u64;
                    snap.cursor.ranges = leg_ranges(range);
                    let snap = tr.span("core.sweep_leg", op_id, || {
                        sweep_leg(&family, &universe, snap, Some(&ckpt_path))
                    })?;
                    Ok((before, memo_before, snap))
                });
            tr.end(op);
            let elapsed = t.elapsed();
            leg_wall_s += elapsed.as_secs_f64();
            leg_cpu_s += process_cpu_s() - cpu;
            let (before, memo_before, snap) = match leg {
                Ok(r) => r,
                Err(e) => {
                    out.timed(elapsed.as_nanos() as u64, 0);
                    out.failed += 1;
                    out.check(false, || format!("round {round}, leg {k}: {e}"));
                    break;
                }
            };

            let d_orbits = histogram_delta(&snap.outcome.orbits, &before.orbits);
            let d_problems = histogram_delta(&snap.outcome.problems, &before.problems);
            out.check(d_orbits == *want_orbits && d_problems == *want_problems, || {
                format!("slice {k}: histogram {d_orbits:?} / {d_problems:?} differs from the committed one")
            });
            let added = snap.memo.len() as u64 - memo_before;
            out.check(added == d_orbits.total(), || {
                format!(
                    "slice {k}: {added} new memo entries for {} orbits",
                    d_orbits.total()
                )
            });
            let lanes = &snap.outcome.lanes;
            out.count("orbits", d_orbits.total());
            out.count("memo_entries_added", added);
            out.count(
                "scalar_fallbacks",
                lanes.scalar_fallbacks - before.lanes.scalar_fallbacks,
            );
            out.count("blocks", lanes.blocks - before.lanes.blocks);
            out.count(
                "fixpoint_rounds",
                lanes.fixpoint_rounds - before.lanes.fixpoint_rounds,
            );
            out.count(
                "live_lane_rounds",
                lanes.live_lane_rounds - before.lanes.live_lane_rounds,
            );
            snapshot_bytes = std::fs::metadata(&ckpt_path).map(|m| m.len()).unwrap_or(0);
            if tr.on() {
                // One checkpoint write alone, outside the operation: the
                // leg's own writes are inside `core.sweep_leg`.
                tr.span("core.snapshot_save", op_id, || snap.save(&probe_path))
                    .map_err(|e| format!("probe checkpoint write failed: {e}"))?;
            }
            final_memo = snap.memo.len() as u64;
            legs_done += 1;
            out.timed(elapsed.as_nanos() as u64, d_orbits.total());
        }
        out.count("legs", legs_done);
        out.count("snapshot_bytes", snapshot_bytes);
        out.count("memo_entries", final_memo);
    }

    if tr.on() {
        let mut layer = LayerMetrics::default();
        let secs = |name| crate::median_ns(&tr.durations(name)) / 1e9;
        layer.set("core.sweep_leg_s", secs("core.sweep_leg"));
        layer.set(
            "core.cpu_util",
            leg_cpu_s / (leg_wall_s.max(1e-9) * SHARDS as f64),
        );
        let counted = |name| out.ledger.get(name).copied().unwrap_or(0) as f64;
        layer.set(
            "core.avg_live_lanes",
            counted("live_lane_rounds") / counted("fixpoint_rounds").max(1.0),
        );
        layer.set("core.scalar_fallbacks", counted("scalar_fallbacks"));
        layer.set("core.memo_entries", final_memo as f64);
        layer.set("core.snapshot_save_s", secs("core.snapshot_save"));
        layer.set("core.snapshot_load_s", secs("core.snapshot_load"));
        layer.set("core.snapshot_bytes", snapshot_bytes as f64);
        layer.set(
            "problems.filter_masks_per_s",
            filter_masks as f64 / (filter_ns as f64 / 1e9).max(1e-9),
        );
        out.layer = layer;
    }
    Ok(out)
}
