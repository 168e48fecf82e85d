//! The snapshot file format across versions.
//!
//! Version 1 checkpoints, written before the append-only layout, must still
//! load and resume; the rewritten file is version 2. A sweep's periodic
//! checkpoints go through the same incremental writer as a one-shot
//! [`SweepSnapshot::to_bytes`], so both must produce the same bytes.

use std::path::{Path, PathBuf};

use rooted_tree_lcl::core::snapshot::{format_version, SNAPSHOT_VERSION};
use rooted_tree_lcl::core::{
    CanonicalKey, ClassificationEngine, Complexity, EngineKind, LaneWidth, MaskRange,
    SnapshotWriter, SweepCheckpoint, SweepCursor, SweepOutcome, SweepSnapshot,
};
use rooted_tree_lcl::problems::canonical::CanonicalFamily;

/// A mid-campaign (δ=2, 3-label) scalar checkpoint in format version 1,
/// written by `rtlcl sweep --delta 2 --labels 3 --shards 2 --engine scalar
/// --checkpoint <file> --checkpoint-every 500 --max-orbits 600` before
/// version 2 existed.
const V1_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/v1_d2_l3_scalar_mid.ckpt"
);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtlcl-format-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn fresh(family: &CanonicalFamily, engine: EngineKind, shards: usize) -> SweepSnapshot {
    SweepSnapshot::fresh(
        family.delta() as u16,
        family.num_labels() as u16,
        engine,
        family.ranges(shards),
    )
}

fn sorted_memo(snap: &SweepSnapshot) -> Vec<(CanonicalKey, Complexity)> {
    let mut memo = snap.memo.clone();
    memo.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    memo
}

fn bitsliced_leg(
    family: &CanonicalFamily,
    state: SweepSnapshot,
    path: Option<&Path>,
    every_orbits: u64,
    orbit_limit: Option<u64>,
) -> (SweepSnapshot, bool) {
    let universe = family.sliced_universe();
    let ckpt = SweepCheckpoint {
        path,
        every_orbits,
        orbit_limit,
    };
    ClassificationEngine::new()
        .sweep_resumable_bitsliced(
            &universe,
            LaneWidth::W64,
            state,
            |r| family.blocks_in(r, 64),
            |mask| family.problem_at(mask),
            |mask| family.canonical_key_of(mask),
            &ckpt,
        )
        .expect("bit-sliced leg")
}

#[test]
fn a_version_1_checkpoint_resumes_to_the_uninterrupted_histograms_as_version_2() {
    let bytes = std::fs::read(V1_FIXTURE).expect("fixture readable");
    assert_eq!(format_version(&bytes).unwrap(), 1);
    let v1 = SweepSnapshot::from_bytes(&bytes).expect("version 1 loads");
    assert_eq!(
        (v1.cursor.delta, v1.cursor.num_labels, v1.cursor.engine),
        (2, 3, EngineKind::Scalar)
    );
    assert_eq!(v1.cursor.ranges.len(), 2);
    assert!(!v1.cursor.is_complete());
    assert_eq!(v1.memo.len() as u64, v1.outcome.orbits.total());

    let family = CanonicalFamily::new(2, 3);
    let (reference, completed) = ClassificationEngine::new()
        .sweep_resumable(
            fresh(&family, EngineKind::Scalar, 2),
            |r| family.orbits_in(r),
            &SweepCheckpoint::default(),
        )
        .expect("uninterrupted sweep");
    assert!(completed);

    // Resume a copy, checkpointing to it as `rtlcl sweep --resume` does.
    let dir = temp_dir("v1");
    let path = dir.join("ck.bin");
    std::fs::copy(V1_FIXTURE, &path).expect("fixture copied");
    let ckpt = SweepCheckpoint {
        path: Some(&path),
        every_orbits: 4096,
        orbit_limit: None,
    };
    let (resumed, completed) = ClassificationEngine::new()
        .sweep_resumable(
            SweepSnapshot::load(&path).expect("copy loads"),
            |r| family.orbits_in(r),
            &ckpt,
        )
        .expect("resumed sweep");
    assert!(completed);
    assert_eq!(resumed.outcome.orbits, reference.outcome.orbits);
    assert_eq!(resumed.outcome.problems, reference.outcome.problems);
    assert_eq!(sorted_memo(&resumed), sorted_memo(&reference));

    let rewritten = std::fs::read(&path).expect("rewritten checkpoint readable");
    assert_eq!(format_version(&rewritten).unwrap(), SNAPSHOT_VERSION);
    let back = SweepSnapshot::from_bytes(&rewritten).expect("version 2 loads");
    assert_eq!(back.cursor, resumed.cursor);
    assert_eq!(back.outcome, resumed.outcome);
    assert_eq!(back.memo, resumed.memo);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn periodic_checkpoints_leave_the_bytes_of_the_returned_snapshot() {
    let family = CanonicalFamily::new(2, 3);
    // An in-memory first leg gives the second a non-empty baseline memo.
    let (baseline, completed) = bitsliced_leg(
        &family,
        fresh(&family, EngineKind::Bitsliced, 3),
        None,
        4096,
        Some(3000),
    );
    assert!(!completed);
    assert!(!baseline.memo.is_empty());

    // A bounded leg that writes every 256 orbits: many periodic writes, then
    // the final one.
    let dir = temp_dir("paths");
    let path = dir.join("ck.bin");
    let baseline_len = baseline.memo.len();
    let (leg, completed) = bitsliced_leg(&family, baseline, Some(&path), 256, Some(6000));
    assert!(!completed);
    assert!(leg.memo.len() >= baseline_len + 4 * 256);

    let on_disk = std::fs::read(&path).expect("checkpoint readable");
    assert_eq!(format_version(&on_disk).unwrap(), SNAPSHOT_VERSION);
    assert!(
        on_disk == leg.to_bytes(),
        "checkpoint file differs from to_bytes()"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_version_2_file_with_many_ranges_and_polynomial_entries_round_trips() {
    let ranges: Vec<MaskRange> = (0..300u64)
        .map(|i| MaskRange {
            next: i * 1000 + (i * 37) % 1000,
            hi: i * 1000 + 1000,
        })
        .collect();
    let memo: Vec<(CanonicalKey, Complexity)> = (0..500u16)
        .map(|i| {
            let words = (0..i % 41).map(|w| w.wrapping_mul(i) ^ 0x5a5a).collect();
            let complexity = match i % 6 {
                0 => Complexity::Unsolvable,
                1 => Complexity::Constant,
                2 => Complexity::LogStar,
                3 => Complexity::Log,
                _ => Complexity::Polynomial {
                    exponent: 1 + (i as usize % 11),
                },
            };
            (CanonicalKey::from_words(words), complexity)
        })
        .collect();
    let mut outcome = SweepOutcome::default();
    for (_, c) in &memo {
        outcome.orbits.add(*c, 1);
        outcome.problems.add(*c, 6);
    }
    outcome.lanes.blocks = 17;
    outcome.lanes.fixpoint_rounds = 90;
    outcome.lanes.live_lane_rounds = 4000;
    outcome.lanes.scalar_fallbacks = 3;
    let snap = SweepSnapshot {
        cursor: SweepCursor {
            delta: 3,
            num_labels: 4,
            engine: EngineKind::Bitsliced,
            ranges,
        },
        outcome,
        memo,
    };

    let bytes = snap.to_bytes();
    assert_eq!(format_version(&bytes).unwrap(), 2);
    // The footer ends with the range count and the memo entry count, just
    // before the digest.
    let counts = &bytes[bytes.len() - 20..bytes.len() - 8];
    assert_eq!(u32::from_le_bytes(counts[..4].try_into().unwrap()), 300);
    assert_eq!(u64::from_le_bytes(counts[4..].try_into().unwrap()), 500);

    let back = SweepSnapshot::from_bytes(&bytes).expect("version 2 loads");
    assert_eq!(back.cursor, snap.cursor);
    assert_eq!(back.outcome, snap.outcome);
    assert_eq!(back.memo, snap.memo);
    assert!(back.to_bytes() == bytes);

    // Appending the memo in uneven pieces writes the same file.
    let mut writer = SnapshotWriter::new(&snap.cursor);
    for piece in snap.memo.chunks(7) {
        writer.extend(piece);
    }
    writer.extend(&[]);
    assert!(writer.to_bytes(&snap.cursor, &snap.outcome) == bytes);

    let dir = temp_dir("v2");
    let path = dir.join("many.bin");
    writer
        .save(&path, &snap.cursor, &snap.outcome)
        .expect("saved");
    assert!(!dir.join("many.bin.tmp").exists());
    assert!(std::fs::read(&path).expect("readable") == bytes);
    std::fs::remove_dir_all(&dir).ok();
}
