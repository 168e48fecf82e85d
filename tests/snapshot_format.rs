//! The snapshot file format across versions.
//!
//! Version 1 and 2 checkpoints, written before the segment log, must still
//! load and resume; the rewritten file is version 3. A sweep's first
//! checkpoint writes the same bytes as a one-shot [`SweepSnapshot::to_bytes`]
//! and every later one appends the segment [`SegmentEncoder`] predicts; a
//! leg resumed from the unchanged file it checkpoints to appends from its
//! first write. A file cut short inside a later segment loads the previous
//! one; damage to a complete segment is a [`SnapshotError::ChecksumMismatch`].

use std::path::{Path, PathBuf};

use rooted_tree_lcl::core::snapshot::{format_version, SNAPSHOT_VERSION};
use rooted_tree_lcl::core::{
    load_or_quarantine, CanonicalKey, ClassificationEngine, Complexity, EngineKind, LoadOutcome,
    MaskRange, SegmentEncoder, SnapshotError, SnapshotLayout, SnapshotWriter, SweepCheckpoint,
    SweepOutcome, SweepSnapshot,
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

/// The same checkpoint in format version 2, written by the same command
/// before version 3 existed.
const V2_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/v2_d2_l3_scalar_mid.ckpt"
);

/// Length of the prefix before a version 3 file's first segment.
const PREFIX_LEN: usize = 17;

/// Length of a version 3 segment header.
const SEGMENT_HEADER_LEN: usize = 20;

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

/// One sweep leg from `state` on its cursor's engine.
fn run_leg(
    family: &CanonicalFamily,
    state: SweepSnapshot,
    path: Option<&Path>,
    every_orbits: u64,
    orbit_limit: Option<u64>,
) -> (SweepSnapshot, bool) {
    let ckpt = SweepCheckpoint {
        path,
        every_orbits,
        orbit_limit,
    };
    family
        .sweep(&ClassificationEngine::new(), state, &ckpt)
        .expect("sweep leg")
}

/// Where each segment of a version 3 file ends, read from the segment
/// headers' length fields.
fn segment_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = PREFIX_LEN;
    while at + SEGMENT_HEADER_LEN <= bytes.len() {
        let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        if at + len > bytes.len() {
            break;
        }
        at += len;
        ends.push(at);
    }
    ends
}

fn assert_same_state(got: &SweepSnapshot, want: &SweepSnapshot, what: &str) {
    assert_eq!(got.cursor, want.cursor, "{what}: cursor");
    assert_eq!(got.outcome, want.outcome, "{what}: outcome");
    assert!(got.memo == want.memo, "{what}: memo");
}

/// `first.to_bytes()`, then one segment per later state with the entries it
/// adds to the one before: the file a sweep that wrote these states leaves.
fn predicted_file(states: &[SweepSnapshot]) -> Vec<u8> {
    let first = &states[0];
    let mut bytes = Vec::new();
    let mut encoder = SegmentEncoder::start(&mut bytes, &first.cursor).unwrap();
    encoder
        .write_segment(&mut bytes, &first.memo, &first.cursor, &first.outcome)
        .unwrap();
    assert!(bytes == first.to_bytes());
    for pair in states.windows(2) {
        let (before, state) = (&pair[0], &pair[1]);
        assert!(state.memo[..before.memo.len()] == before.memo[..]);
        encoder
            .write_segment(
                &mut bytes,
                &state.memo[before.memo.len()..],
                &state.cursor,
                &state.outcome,
            )
            .unwrap();
    }
    assert_eq!(encoder.file_len(), bytes.len() as u64);
    bytes
}

/// A copy of a committed mid-campaign scalar checkpoint of format `version`
/// resumes, checkpointing to itself as `rtlcl sweep --resume` does, to the
/// histograms and memo of the uninterrupted run, and is rewritten as the
/// current version.
fn fixture_resumes_to_the_uninterrupted_run(fixture: &str, version: u32) {
    let bytes = std::fs::read(fixture).expect("fixture readable");
    assert_eq!(format_version(&bytes).unwrap(), version);
    let old = SweepSnapshot::from_bytes(&bytes).expect("old version loads");
    assert_eq!(
        (old.cursor.delta, old.cursor.num_labels, old.cursor.engine),
        (2, 3, EngineKind::Scalar)
    );
    assert_eq!(old.cursor.ranges.len(), 2);
    assert!(!old.cursor.is_complete());
    assert_eq!(old.memo.len() as u64, old.outcome.orbits.total());

    let family = CanonicalFamily::new(2, 3);
    let (reference, completed) = family
        .sweep(
            &ClassificationEngine::new(),
            fresh(&family, EngineKind::Scalar, 2),
            &SweepCheckpoint::default(),
        )
        .expect("uninterrupted sweep");
    assert!(completed);

    let dir = temp_dir(&format!("v{version}"));
    let path = dir.join("ck.bin");
    std::fs::copy(fixture, &path).expect("fixture copied");
    let ckpt = SweepCheckpoint {
        path: Some(&path),
        every_orbits: 4096,
        orbit_limit: None,
    };
    let (resumed, completed) = family
        .sweep(
            &ClassificationEngine::new(),
            SweepSnapshot::load(&path).expect("copy loads"),
            &ckpt,
        )
        .expect("resumed sweep");
    assert!(completed);
    assert_eq!(resumed.outcome.orbits, reference.outcome.orbits);
    assert_eq!(resumed.outcome.problems, reference.outcome.problems);
    assert_eq!(sorted_memo(&resumed), sorted_memo(&reference));

    let rewritten = std::fs::read(&path).expect("rewritten checkpoint readable");
    assert_eq!(format_version(&rewritten).unwrap(), SNAPSHOT_VERSION);
    let back = SweepSnapshot::from_bytes(&rewritten).expect("version 3 loads");
    assert_same_state(&back, &resumed, "rewritten file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_version_1_checkpoint_resumes_to_the_uninterrupted_histograms_as_version_3() {
    fixture_resumes_to_the_uninterrupted_run(V1_FIXTURE, 1);
}

#[test]
fn a_version_2_checkpoint_resumes_to_the_uninterrupted_histograms_as_version_3() {
    fixture_resumes_to_the_uninterrupted_run(V2_FIXTURE, 2);
    // Both fixtures hold the same campaign state.
    let v1 = SweepSnapshot::load(Path::new(V1_FIXTURE)).expect("version 1 loads");
    let v2 = SweepSnapshot::load(Path::new(V2_FIXTURE)).expect("version 2 loads");
    assert_same_state(&v2, &v1, "version 2 fixture");
}

#[test]
fn periodic_checkpoints_leave_the_bytes_of_the_returned_snapshot() {
    let family = CanonicalFamily::new(2, 3);
    // An in-memory first leg gives the second a non-empty baseline memo.
    let (baseline, completed) = run_leg(
        &family,
        fresh(&family, EngineKind::Bitsliced, 3),
        None,
        4096,
        Some(3000),
    );
    assert!(!completed);
    assert!(!baseline.memo.is_empty());

    // A bounded leg that writes every 256 orbits on up to three workers:
    // many periodic writes, then the final one.
    let dir = temp_dir("paths");
    let path = dir.join("ck.bin");
    let (leg, completed) = run_leg(&family, baseline.clone(), Some(&path), 256, Some(6000));
    assert!(!completed);
    assert!(leg.memo.len() >= baseline.memo.len() + 4 * 256);

    let on_disk = std::fs::read(&path).expect("checkpoint readable");
    assert_eq!(format_version(&on_disk).unwrap(), SNAPSHOT_VERSION);
    // The state at every segment boundary, oldest first.
    let ends = segment_ends(&on_disk);
    assert_eq!(*ends.last().unwrap(), on_disk.len(), "no torn tail");
    let states: Vec<SweepSnapshot> = ends
        .iter()
        .map(|&end| SweepSnapshot::from_bytes(&on_disk[..end]).expect("boundary loads"))
        .collect();
    // One segment per write: a write follows the first commit that brings
    // the orbits since the previous write to 256 (a commit adds at most one
    // 64-lane block), and the final write follows the last commit.
    let mut before = &baseline;
    for (k, state) in states.iter().enumerate() {
        assert!(state.memo[..baseline.memo.len()] == baseline.memo[..]);
        let since = state.outcome.orbits.total() - before.outcome.orbits.total();
        if k + 1 < states.len() {
            assert!(
                (256..256 + 64).contains(&since),
                "write {k}: {since} orbits"
            );
        } else {
            assert!(since < 256, "final write: {since} orbits");
        }
        before = state;
    }
    assert!(states.len() >= 5);
    assert_same_state(states.last().unwrap(), &leg, "last segment");
    // The first write is the one-shot file of its state; every later one
    // appends exactly the segment the encoder predicts.
    assert!(
        on_disk == predicted_file(&states),
        "checkpoint file differs from the predicted segments"
    );
    let (back, layout) = SweepSnapshot::from_bytes_with_layout(&on_disk).expect("file loads");
    assert_same_state(&back, &leg, "whole file");
    assert_eq!(
        layout,
        SnapshotLayout {
            version: SNAPSHOT_VERSION,
            segments: states.len(),
            torn_tail_bytes: 0
        }
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A real bit-sliced leg over one mask range, checkpointing every 256 orbits,
/// and the state at each of its writes, captured by replaying the leg as a
/// chain of in-memory legs of 256 orbits each (one range means one worker,
/// so the commit sequence is the same).
fn leg_with_captured_writes(path: &Path) -> (SweepSnapshot, Vec<SweepSnapshot>) {
    let family = CanonicalFamily::new(2, 3);
    let mut start = fresh(&family, EngineKind::Bitsliced, 1);
    start.cursor.ranges = vec![MaskRange { next: 0, hi: 1700 }];
    let mut captured = Vec::new();
    let mut state = start.clone();
    loop {
        let (next, completed) = run_leg(&family, state, None, u64::MAX, Some(256));
        captured.push(next.clone());
        state = next;
        if completed {
            break;
        }
    }
    let (leg, completed) = run_leg(&family, start, Some(path), 256, None);
    assert!(completed);
    (leg, captured)
}

#[test]
fn a_multi_segment_file_cut_short_loads_the_previous_segment() {
    let dir = temp_dir("torn");
    let path = dir.join("ck.bin");
    let (leg, captured) = leg_with_captured_writes(&path);
    assert!(captured.len() >= 5, "{} writes", captured.len());
    assert_same_state(&leg, captured.last().unwrap(), "returned snapshot");
    let bytes = std::fs::read(&path).expect("checkpoint readable");
    assert!(bytes == predicted_file(&captured));
    let ends = segment_ends(&bytes);
    assert_eq!(ends.len(), captured.len());

    // Inside the first segment there is nothing to fall back on.
    for cut in 0..ends[0] {
        assert!(
            matches!(
                SweepSnapshot::from_bytes(&bytes[..cut]),
                Err(SnapshotError::Truncated | SnapshotError::BadMagic)
            ),
            "cut at {cut}"
        );
    }
    for cut in PREFIX_LEN..ends[0] {
        assert!(matches!(
            SweepSnapshot::from_bytes(&bytes[..cut]),
            Err(SnapshotError::Truncated)
        ));
    }
    // Past it, every cut loads the state committed at the last boundary
    // before it.
    for (k, window) in ends.windows(2).enumerate() {
        for cut in window[0]..window[1] {
            let (back, layout) =
                SweepSnapshot::from_bytes_with_layout(&bytes[..cut]).expect("torn file loads");
            assert_eq!(
                (layout.segments, layout.torn_tail_bytes),
                (k + 1, cut - window[0]),
                "cut at {cut}"
            );
            assert_same_state(&back, &captured[k], &format!("cut at {cut}"));
        }
    }

    // Resuming a torn file and checkpointing once cuts the torn tail off and
    // appends: the complete segments stay byte for byte, the leg adds one
    // segment, and the file loads to the returned snapshot.
    let torn_at = (ends[2] + ends[3]) / 2;
    std::fs::write(&path, &bytes[..torn_at]).expect("torn file written");
    let torn = match load_or_quarantine(&path).expect("torn file loads") {
        LoadOutcome::Loaded(snap) => *snap,
        other => panic!("a torn tail must load, got {other:?}"),
    };
    assert_same_state(&torn, &captured[2], "torn file");
    let family = CanonicalFamily::new(2, 3);
    let (resumed, _) = run_leg(&family, torn, Some(&path), u64::MAX, Some(100));
    let appended = std::fs::read(&path).expect("appended checkpoint readable");
    assert!(appended[..ends[2]] == bytes[..ends[2]]);
    let (back, layout) = SweepSnapshot::from_bytes_with_layout(&appended).expect("loads");
    assert_eq!((layout.segments, layout.torn_tail_bytes), (4, 0));
    let mut states = captured[..3].to_vec();
    states.push(resumed.clone());
    assert!(appended == predicted_file(&states));
    assert_same_state(&back, &resumed, "appended file");
    std::fs::remove_dir_all(&dir).ok();
}

/// A 100-orbit leg from `state` on its cursor's engine, checkpointing only
/// at its end to `path`; returns the leg and the file it leaves.
fn final_checkpoint_leg(state: SweepSnapshot, path: &Path) -> (SweepSnapshot, Vec<u8>) {
    let family = CanonicalFamily::new(2, 3);
    let (leg, _) = run_leg(&family, state, Some(path), u64::MAX, Some(100));
    (leg, std::fs::read(path).expect("checkpoint readable"))
}

#[test]
fn a_resumed_leg_appends_only_to_the_unchanged_file_it_was_loaded_from() {
    let dir = temp_dir("fallback");
    let path = dir.join("ck.bin");
    let (_, captured) = leg_with_captured_writes(&path);
    let full = std::fs::read(&path).expect("checkpoint readable");
    // A mid-campaign file of three segments.
    let base = full[..segment_ends(&full)[2]].to_vec();
    let loaded = || {
        std::fs::write(&path, &base).expect("base file written");
        SweepSnapshot::load(&path).expect("base file loads")
    };

    // Loaded from the path it checkpoints to, with the file and the memo as
    // loaded: the leg appends one segment.
    let (leg, after) = final_checkpoint_leg(loaded(), &path);
    assert!(after[..base.len()] == base[..]);
    let (back, layout) = SweepSnapshot::from_bytes_with_layout(&after).expect("loads");
    assert_eq!((layout.segments, layout.torn_tail_bytes), (4, 0));
    assert_same_state(&back, &leg, "appended file");

    // Every other case replaces the file with the one-segment file of the
    // returned snapshot.
    let assert_rewritten = |case: &str, state: SweepSnapshot, to: &Path| {
        let (leg, after) = final_checkpoint_leg(state, to);
        assert!(
            after == leg.to_bytes(),
            "{case}: the file is rewritten whole"
        );
    };
    // Not loaded from a file.
    let state = SweepSnapshot::from_bytes(&base).expect("base bytes load");
    assert_rewritten("from bytes", state, &path);
    // The memo changed since the load: reordered, shortened, one verdict
    // replaced.
    let mut state = loaded();
    state.memo.swap(0, 1);
    assert_rewritten("memo reordered", state, &path);
    let mut state = loaded();
    state.memo.pop();
    assert_rewritten("memo shortened", state, &path);
    let mut state = loaded();
    state.memo[0].1 = match state.memo[0].1 {
        Complexity::Constant => Complexity::Log,
        _ => Complexity::Constant,
    };
    assert_rewritten("memo verdict replaced", state, &path);
    // The file changed since the load: replaced by another state, its last
    // digest damaged, cut short, removed.
    let state = loaded();
    captured[1].save(&path).expect("other state saved");
    assert_rewritten("file replaced", state, &path);
    let state = loaded();
    let mut damaged = base.clone();
    *damaged.last_mut().unwrap() ^= 1;
    std::fs::write(&path, &damaged).expect("damaged file written");
    assert_rewritten("digest damaged", state, &path);
    let state = loaded();
    std::fs::write(&path, &base[..base.len() - 1]).expect("short file written");
    assert_rewritten("file cut short", state, &path);
    let state = loaded();
    std::fs::remove_file(&path).expect("file removed");
    assert_rewritten("file removed", state, &path);
    // Another campaign prefix: the scalar engine resuming the bit-sliced
    // file.
    let mut state = loaded();
    state.cursor.engine = EngineKind::Scalar;
    assert_rewritten("engine changed", state, &path);
    // Another path: the loaded file stays as it was.
    let state = loaded();
    assert_rewritten("another path", state, &dir.join("other.bin"));
    assert!(std::fs::read(&path).expect("base file readable") == base);
    // A version 2 file checkpointing to itself.
    std::fs::copy(V2_FIXTURE, &path).expect("fixture copied");
    let state = SweepSnapshot::load(&path).expect("version 2 loads");
    assert_rewritten("version 2 file", state, &path);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damage_to_any_complete_segment_is_a_checksum_mismatch_and_quarantined() {
    let dir = temp_dir("damage");
    let path = dir.join("ck.bin");
    let (_, captured) = leg_with_captured_writes(&path);
    let bytes = std::fs::read(&path).expect("checkpoint readable");
    let ends = segment_ends(&bytes);
    assert_eq!(ends.len(), captured.len());
    let mut start = PREFIX_LEN;
    for (k, &end) in ends.iter().enumerate() {
        // Every header and digest byte, and a spread of entry and footer
        // bytes.
        let header = start..start + SEGMENT_HEADER_LEN;
        let digest = end - 8..end;
        let body = (start + SEGMENT_HEADER_LEN..end - 8).step_by(97);
        for at in header.chain(body).chain(digest) {
            let mut damaged = bytes.clone();
            damaged[at] ^= 0x04;
            assert!(
                matches!(
                    SweepSnapshot::from_bytes(&damaged),
                    Err(SnapshotError::ChecksumMismatch)
                ),
                "segment {k}, flip at {at}"
            );
        }
        // The quarantine contract: the damaged file is moved aside intact.
        let mut damaged = bytes.clone();
        damaged[(start + end) / 2] ^= 0x80;
        std::fs::write(&path, &damaged).expect("damaged file written");
        match load_or_quarantine(&path).expect("quarantine path succeeds") {
            LoadOutcome::Quarantined { to, error } => {
                assert!(matches!(error, SnapshotError::ChecksumMismatch));
                assert!(std::fs::read(&to).expect("quarantined bytes") == damaged);
            }
            other => panic!("segment {k}: damage must be quarantined, got {other:?}"),
        }
        assert!(!path.exists());
        start = end;
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_version_3_file_with_many_ranges_and_polynomial_entries_round_trips() {
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
    let mut snap = SweepSnapshot::fresh(3, 4, EngineKind::Bitsliced, ranges);
    snap.outcome = outcome;
    snap.memo = memo;

    let bytes = snap.to_bytes();
    assert_eq!(format_version(&bytes).unwrap(), SNAPSHOT_VERSION);
    // The footer ends with the range count and the memo entry count, just
    // before the digest.
    let counts = &bytes[bytes.len() - 20..bytes.len() - 8];
    assert_eq!(u32::from_le_bytes(counts[..4].try_into().unwrap()), 300);
    assert_eq!(u64::from_le_bytes(counts[4..].try_into().unwrap()), 500);

    let back = SweepSnapshot::from_bytes(&bytes).expect("version 3 loads");
    assert_same_state(&back, &snap, "one segment");
    assert!(back.to_bytes() == bytes);

    // The memo in uneven pieces, one segment each, every piece advancing the
    // cursor and outcome: the writer leaves the encoder's bytes, and the
    // file loads to the last piece's state.
    let pieces: Vec<SweepSnapshot> = (0..snap.memo.len())
        .step_by(7)
        .chain([snap.memo.len()])
        .map(|end| {
            let mut state = snap.clone();
            state.memo.truncate(end);
            for range in &mut state.cursor.ranges {
                range.next = (range.next + end as u64 % 3).min(range.hi);
            }
            state.outcome.lanes.blocks = end as u64;
            state
        })
        .collect();
    let dir = temp_dir("v3");
    let path = dir.join("many.bin");
    let first = &pieces[0];
    let mut writer =
        SnapshotWriter::create(&path, &first.memo, &first.cursor, &first.outcome).expect("saved");
    assert!(!dir.join("many.bin.tmp").exists());
    for pair in pieces.windows(2) {
        let (before, state) = (&pair[0], &pair[1]);
        writer
            .append(
                &state.memo[before.memo.len()..],
                &state.cursor,
                &state.outcome,
            )
            .expect("appended");
    }
    drop(writer);
    let on_disk = std::fs::read(&path).expect("readable");
    assert!(on_disk == predicted_file(&pieces));
    let (back, layout) = SweepSnapshot::from_bytes_with_layout(&on_disk).expect("loads");
    assert_same_state(&back, pieces.last().unwrap(), "appended file");
    assert_eq!(layout.segments, pieces.len());
    assert_eq!(back.memo, snap.memo);
    std::fs::remove_dir_all(&dir).ok();
}
