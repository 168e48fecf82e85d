//! `rtlcl` argument handling: `classify` and `explain` reject what they do
//! not understand, a sweep family outside the snapshot's bounds fails before
//! anything is written, and a one-range checkpointed sweep writes the same
//! bytes every time.

use std::path::PathBuf;
use std::process::{Command, Output};

const RTLCL: &str = env!("CARGO_BIN_EXE_rtlcl");

fn rtlcl(args: &[&str]) -> Output {
    Command::new(RTLCL).args(args).output().expect("rtlcl runs")
}

/// A fresh scratch directory for one test.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtlcl-args-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn classify_and_explain_reject_unknown_options_and_extra_problems() {
    for args in [
        vec!["classify", "mis", "--jsn"],
        vec!["classify", "mis", "extra"],
        vec!["classify"],
        vec!["explain", "mis", "extra", "junk"],
        vec!["explain", "mis", "--json"],
        vec!["explain"],
    ] {
        let output = rtlcl(&args);
        assert_eq!(output.status.code(), Some(1), "rtlcl {args:?}");
        assert!(output.stdout.is_empty(), "rtlcl {args:?} printed a verdict");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage:"), "rtlcl {args:?}: {stderr}");
    }
}

#[test]
fn classify_takes_json_on_either_side_of_the_problem() {
    let after = rtlcl(&["classify", "mis", "--json"]);
    let before = rtlcl(&["classify", "--json", "mis"]);
    assert!(after.status.success() && before.status.success());
    assert_eq!(after.stdout, before.stdout);
    assert!(String::from_utf8_lossy(&after.stdout).contains("\"complexity\""));
    let plain = rtlcl(&["classify", "mis"]);
    assert!(plain.status.success());
    assert_eq!(String::from_utf8_lossy(&plain.stdout), "O(1)\n");
}

#[test]
fn a_family_past_the_snapshot_bounds_fails_before_writing() {
    let dir = temp_dir("bounds");
    let checkpoint = dir.join("f");
    let output = rtlcl(&[
        "sweep",
        "--delta",
        "65536",
        "--labels",
        "1",
        "--checkpoint",
        checkpoint.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("65535"));
    assert!(
        !checkpoint.exists(),
        "a rejected sweep wrote its checkpoint"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_range_checkpointed_sweeps_write_identical_files() {
    // With one range, one worker commits every block in mask order, so the
    // memo entries land in the file in the same order on every run.
    let dir = temp_dir("bytes");
    let files: Vec<Vec<u8>> = ["a.ckpt", "b.ckpt"]
        .iter()
        .map(|name| {
            let path = dir.join(name);
            let output = rtlcl(&[
                "sweep",
                "--delta",
                "2",
                "--labels",
                "3",
                "--shards",
                "1",
                "--checkpoint",
                path.to_str().unwrap(),
                "--checkpoint-every",
                "4096",
            ]);
            assert!(output.status.success(), "{output:?}");
            std::fs::read(&path).expect("checkpoint written")
        })
        .collect();
    assert!(!files[0].is_empty());
    assert!(files[0] == files[1], "the two checkpoint files differ");
    std::fs::remove_dir_all(&dir).ok();
}
