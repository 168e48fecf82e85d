//! Resume-equivalence of checkpointed sweep campaigns.
//!
//! The contract under test: a campaign that is interrupted at any commit
//! boundary and resumed from its snapshot — any number of times, under any
//! worker count — produces exactly the same final state as an uninterrupted
//! run. "Exactly" means the orbit and whole-universe histograms, the lane
//! statistics (block formation depends only on the cursor, so the resumed
//! campaign classifies the identical block sequence), and the canonical-form
//! memo (distinct orbits have distinct canonical keys, so the memo is one
//! entry per orbit regardless of where the campaign was cut).

use rooted_tree_lcl::core::{
    load_or_quarantine, CanonicalKey, ClassificationEngine, Complexity, EngineKind, LoadOutcome,
    SnapshotError, SweepCheckpoint, SweepSnapshot,
};
use rooted_tree_lcl::problems::canonical::CanonicalFamily;

fn fresh(family: &CanonicalFamily, engine: EngineKind, shards: usize) -> SweepSnapshot {
    SweepSnapshot::fresh(
        family.delta() as u16,
        family.num_labels() as u16,
        engine,
        family.ranges(shards),
    )
}

fn step(
    family: &CanonicalFamily,
    state: SweepSnapshot,
    limit: Option<u64>,
) -> (SweepSnapshot, bool) {
    let ckpt = SweepCheckpoint {
        path: None,
        every_orbits: 4096,
        orbit_limit: limit,
    };
    family
        .sweep(&ClassificationEngine::new(), state, &ckpt)
        .expect("in-memory sweep cannot hit snapshot I/O")
}

fn sorted_memo(snap: &SweepSnapshot) -> Vec<(CanonicalKey, Complexity)> {
    let mut memo = snap.memo.clone();
    memo.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    memo
}

/// Asserts complete state equality between a finished interrupted campaign and
/// the uninterrupted reference: histograms, lane statistics, and memo.
fn assert_equivalent(interrupted: &SweepSnapshot, reference: &SweepSnapshot) {
    assert_eq!(
        interrupted.outcome, reference.outcome,
        "histograms and lane statistics must match the uninterrupted run"
    );
    assert_eq!(
        interrupted.memo.len(),
        reference.memo.len(),
        "memo sizes must match the uninterrupted run"
    );
    assert_eq!(
        sorted_memo(interrupted),
        sorted_memo(reference),
        "memo contents must match the uninterrupted run"
    );
    assert!(interrupted.cursor.is_complete());
}

/// Interrupts the campaign after (at most) `limit` orbits per leg, resuming
/// until complete. The leg bound guards against a cursor that stops advancing.
fn run_interrupted(
    family: &CanonicalFamily,
    engine: EngineKind,
    shards: usize,
    limit: u64,
) -> (SweepSnapshot, usize) {
    let mut state = fresh(family, engine, shards);
    let max_legs = (family.family_size() + 2) as usize;
    let mut legs = 0;
    loop {
        let (next, completed) = step(family, state, Some(limit));
        state = next;
        legs += 1;
        if completed {
            return (state, legs);
        }
        assert!(
            legs < max_legs,
            "cursor stopped advancing after {legs} legs: {:?}",
            state.cursor
        );
    }
}

fn resume_matches_uninterrupted(
    delta: usize,
    labels: usize,
    engine: EngineKind,
    shards: usize,
    limit: u64,
) {
    let family = CanonicalFamily::new(delta, labels);
    let (reference, completed) = step(&family, fresh(&family, engine, shards), None);
    assert!(completed, "an unlimited campaign runs to completion");
    let (interrupted, legs) = run_interrupted(&family, engine, shards, limit);
    assert!(
        legs > 1,
        "the limit {limit} must actually interrupt the (δ={delta}, {labels}-label) campaign"
    );
    assert_equivalent(&interrupted, &reference);
}

#[test]
fn scalar_resume_at_every_orbit_boundary_small_family() {
    // (δ=2, 2 labels): 64 problems; limit 1 stops after every single orbit.
    resume_matches_uninterrupted(2, 2, EngineKind::Scalar, 2, 1);
}

#[test]
fn scalar_resume_at_every_orbit_boundary_d3_family() {
    // (δ=3, 2 labels): 256 problems, 136 orbits, one restart per orbit.
    resume_matches_uninterrupted(3, 2, EngineKind::Scalar, 4, 1);
}

#[test]
fn bitsliced_resume_at_every_block_boundary_d3_family() {
    // limit 1 stops after every committed block (each up to 64 lanes).
    resume_matches_uninterrupted(3, 2, EngineKind::Bitsliced, 2, 1);
}

#[test]
fn bitsliced_resume_sampled_on_the_full_three_label_universe() {
    // (δ=2, 3 labels): 2^18 problems, 44224 orbits; interrupt roughly every
    // 5000 orbits (~9 restarts) to keep debug-mode wall clock bounded.
    resume_matches_uninterrupted(2, 3, EngineKind::Bitsliced, 4, 5000);
}

#[test]
fn scalar_resume_with_single_orbit_legs_on_three_shards() {
    // Shards = 3 exercises watermark bookkeeping across multiple ranges.
    resume_matches_uninterrupted(1, 3, EngineKind::Scalar, 3, 1);
}

#[test]
fn resume_is_insensitive_to_the_original_shard_split() {
    // The stored cursor is authoritative, so a campaign started with one
    // split and resumed later must agree with an uninterrupted campaign over
    // a *different* split on everything split-independent: histograms and
    // memo. (Scalar lane stats are zero either way, so they match too.)
    let family = CanonicalFamily::new(3, 2);
    let (reference, _) = step(&family, fresh(&family, EngineKind::Scalar, 1), None);
    let (interrupted, legs) = run_interrupted(&family, EngineKind::Scalar, 5, 7);
    assert!(legs > 1);
    assert_eq!(interrupted.outcome.orbits, reference.outcome.orbits);
    assert_eq!(interrupted.outcome.problems, reference.outcome.problems);
    assert_eq!(interrupted.outcome.lanes, reference.outcome.lanes);
    assert_eq!(sorted_memo(&interrupted), sorted_memo(&reference));
}

#[test]
fn checkpoint_file_round_trips_mid_campaign() {
    let dir = std::env::temp_dir().join(format!("rtlcl-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("campaign.bin");

    let family = CanonicalFamily::new(2, 3);
    let (reference, _) = step(&family, fresh(&family, EngineKind::Bitsliced, 2), None);

    // First leg: run with a checkpoint file attached and an orbit budget, so
    // the campaign stops mid-universe with the snapshot persisted.
    let engine = ClassificationEngine::new();
    let ckpt = SweepCheckpoint {
        path: Some(&path),
        every_orbits: 512,
        orbit_limit: Some(9000),
    };
    let (in_memory, completed) = family
        .sweep(&engine, fresh(&family, EngineKind::Bitsliced, 2), &ckpt)
        .expect("checkpointed sweep");
    assert!(!completed, "the orbit budget must interrupt the campaign");

    // The file holds exactly the state the engine returned.
    let loaded = SweepSnapshot::load(&path).expect("mid-campaign snapshot loads");
    assert_eq!(loaded.cursor, in_memory.cursor);
    assert_eq!(loaded.outcome, in_memory.outcome);
    assert_eq!(sorted_memo(&loaded), sorted_memo(&in_memory));

    // Second leg: resume from the *disk* state to completion and compare
    // against the uninterrupted reference.
    let (finished, completed) = step(&family, loaded, None);
    assert!(completed);
    assert_equivalent(&finished, &reference);

    // The final write left a loadable, complete snapshot behind as well.
    let final_ckpt = SweepCheckpoint {
        path: Some(&path),
        every_orbits: 512,
        orbit_limit: None,
    };
    let engine = ClassificationEngine::new();
    let (from_disk_leg, completed) = family
        .sweep(
            &engine,
            SweepSnapshot::load(&path).expect("snapshot still loads"),
            &final_ckpt,
        )
        .expect("resumed sweep");
    assert!(completed);
    assert_equivalent(&from_disk_leg, &reference);
    let final_on_disk = SweepSnapshot::load(&path).expect("final snapshot loads");
    assert!(final_on_disk.cursor.is_complete());
    assert_eq!(final_on_disk.outcome, reference.outcome);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_boot_reproduces_the_histogram_with_zero_new_decisions() {
    let family = CanonicalFamily::new(3, 2);
    let (reference, _) = step(&family, fresh(&family, EngineKind::Bitsliced, 2), None);

    // Re-sweep from scratch, but booted with the finished campaign's memo.
    let mut warm_state = fresh(&family, EngineKind::Bitsliced, 2);
    warm_state.memo = reference.memo.clone();
    let engine = ClassificationEngine::new();
    let (warm, completed) = family
        .sweep(&engine, warm_state, &SweepCheckpoint::default())
        .expect("warm sweep");
    assert!(completed);
    assert_eq!(warm.outcome.orbits, reference.outcome.orbits);
    assert_eq!(warm.outcome.problems, reference.outcome.problems);
    // Every orbit was answered from the imported memo.
    assert_eq!(engine.stats().cache_misses, 0);
    assert_eq!(
        engine.stats().cache_hits as u64,
        reference.outcome.orbits.total()
    );
    assert_eq!(sorted_memo(&warm), sorted_memo(&reference));
}

/// Satellite of the daemon's crash-safety story: a snapshot cut off at ANY
/// byte boundary — the disk state a SIGKILL mid-write could leave behind if
/// the atomic rename ever regressed — must come back as a clean
/// [`SnapshotError`], never a panic and never a misparsed `Ok`.
#[test]
fn loading_a_snapshot_truncated_at_every_byte_is_a_clean_error() {
    let dir = std::env::temp_dir().join(format!("rtlcl-truncate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("truncated.bin");

    // A real mid-campaign snapshot with a non-trivial memo and histograms.
    let family = CanonicalFamily::new(2, 2);
    let (snap, _) = step(&family, fresh(&family, EngineKind::Bitsliced, 2), None);
    assert!(!snap.memo.is_empty());
    snap.save(&path).expect("snapshot saved");
    let bytes = std::fs::read(&path).expect("snapshot read");
    assert!(SweepSnapshot::load(&path).is_ok(), "untruncated file loads");

    for len in 0..bytes.len() {
        std::fs::write(&path, &bytes[..len]).expect("truncated snapshot written");
        // A panic inside load() fails the test through the unwind itself; the
        // match nails the contract that no prefix parses as a valid snapshot.
        match SweepSnapshot::load(&path) {
            Ok(_) => panic!(
                "a {len}-byte prefix of a {}-byte snapshot parsed as valid",
                bytes.len()
            ),
            Err(
                SnapshotError::Truncated
                | SnapshotError::ChecksumMismatch
                | SnapshotError::BadMagic
                | SnapshotError::Malformed(_),
            ) => {}
            Err(other) => panic!("truncation at byte {len} surfaced as {other:?}"),
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The `--resume` / daemon-boot quarantine contract: damage that the digest
/// catches moves the file to `<path>.corrupt` and reports it; a file that was
/// never one of our snapshots is left exactly where it is.
#[test]
fn quarantine_moves_damaged_snapshots_and_refuses_foreign_files() {
    let dir = std::env::temp_dir().join(format!("rtlcl-quarantine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("ck.bin");
    let quarantined_path = dir.join("ck.bin.corrupt");

    let family = CanonicalFamily::new(2, 2);
    let (snap, _) = step(&family, fresh(&family, EngineKind::Scalar, 2), None);
    snap.save(&path).expect("snapshot saved");
    let good = std::fs::read(&path).expect("snapshot read");

    // Flip a byte past the header: digest mismatch → quarantined.
    let mut damaged = good.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x01;
    std::fs::write(&path, &damaged).expect("damaged snapshot written");
    match load_or_quarantine(&path).expect("quarantine path succeeds") {
        LoadOutcome::Quarantined { to, error } => {
            assert_eq!(to, quarantined_path);
            assert!(matches!(error, SnapshotError::ChecksumMismatch));
        }
        LoadOutcome::Loaded(_) => panic!("damaged snapshot must not load"),
    }
    assert!(
        !path.exists(),
        "the damaged file must have been moved aside"
    );
    assert_eq!(
        std::fs::read(&quarantined_path).expect("quarantined bytes readable"),
        damaged,
        "quarantine preserves the damaged bytes for post-mortem"
    );

    // A foreign file at the path: hard error, file untouched.
    std::fs::write(&path, b"this was never a snapshot").expect("foreign file written");
    assert!(matches!(
        load_or_quarantine(&path),
        Err(SnapshotError::BadMagic)
    ));
    assert!(path.exists(), "a foreign file must not be renamed");

    // An intact snapshot at the path: loads, nothing moves.
    std::fs::write(&path, &good).expect("good snapshot restored");
    match load_or_quarantine(&path).expect("good snapshot loads") {
        LoadOutcome::Loaded(loaded) => assert_eq!(loaded.outcome, snap.outcome),
        LoadOutcome::Quarantined { .. } => panic!("an intact snapshot must not be quarantined"),
    }
    assert!(path.exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_checkpoint_is_rejected_not_resumed() {
    let dir = std::env::temp_dir().join(format!("rtlcl-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("ck.bin");

    let family = CanonicalFamily::new(2, 2);
    let (snap, _) = step(&family, fresh(&family, EngineKind::Scalar, 2), None);
    snap.save(&path).expect("snapshot saved");

    let mut bytes = std::fs::read(&path).expect("snapshot read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("corrupted snapshot written");
    match SweepSnapshot::load(&path) {
        Err(SnapshotError::ChecksumMismatch) => {}
        other => panic!("corrupted snapshot must fail the digest, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
}
