//! `rtlcl` against a stdout whose reader has gone away: as a producer in a
//! pipeline (`rtlcl … | head`, `rtlcl … | grep -q`), it drops the rest of
//! its output quietly instead of panicking, finishes its work and returns its
//! own exit status, so `set -o pipefail` scripts pass on success and still see
//! a failure.

use std::path::Path;
use std::process::{Command, Output, Stdio};

const RTLCL: &str = env!("CARGO_BIN_EXE_rtlcl");

/// Runs `rtlcl args` with stdout a pipe whose read end is closed before the
/// child starts, so its first write meets `BrokenPipe`.
fn run_with_closed_stdout(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    Command::new(RTLCL)
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("rtlcl runs")
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let dir = std::env::temp_dir().join(format!("rtlcl-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("ck.bin");
    let checkpoint = checkpoint.to_str().unwrap();
    let sweep = Command::new(RTLCL)
        .args(["sweep", "--delta", "2", "--labels", "2", "--checkpoint"])
        .arg(checkpoint)
        .stdout(Stdio::null())
        .status()
        .expect("rtlcl sweep runs");
    assert!(sweep.success());

    for args in [
        vec!["catalog"],
        vec!["snapshot", "info", checkpoint, "--json"],
        vec!["snapshot", "info", checkpoint],
    ] {
        let output = run_with_closed_stdout(&args);
        assert!(
            output.status.success(),
            "rtlcl {args:?}: {:?}",
            output.status
        );
        assert_eq!(
            String::from_utf8_lossy(&output.stderr),
            "",
            "rtlcl {args:?} wrote to stderr"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_keeps_each_commands_own_outcome() {
    let dir = std::env::temp_dir().join(format!("rtlcl-closed-outcome-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // `solve` still writes its labeling after the `rounds:` line is dropped.
    let labeling = dir.join("c.labels");
    let labeling = labeling.to_str().unwrap();
    let output = run_with_closed_stdout(&[
        "solve",
        "3-coloring",
        "--nodes",
        "20",
        "--emit-labeling",
        labeling,
    ]);
    assert!(output.status.success(), "solve: {:?}", output.status);
    assert_eq!(String::from_utf8_lossy(&output.stderr), "");
    let labels = std::fs::read_to_string(labeling).expect("solve wrote its labeling");
    let nodes = labels.split_whitespace().count();
    assert!(nodes > 0);

    // `verify` still fails on an invalid labeling: one colour everywhere.
    let invalid = dir.join("bad.labels");
    std::fs::write(&invalid, "1\n".repeat(nodes)).unwrap();
    let output = run_with_closed_stdout(&[
        "verify",
        "3-coloring",
        invalid.to_str().unwrap(),
        "--nodes",
        "20",
    ]);
    assert!(
        !output.status.success(),
        "verify accepted an invalid labeling: {:?}",
        output.status
    );
    assert_eq!(String::from_utf8_lossy(&output.stderr), "");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn other_stdout_write_errors_still_fail() {
    // Writes to /dev/full fail with "no space left on device".
    if !Path::new("/dev/full").exists() {
        return;
    }
    let full = std::fs::File::create("/dev/full").unwrap();
    let output = Command::new(RTLCL)
        .arg("catalog")
        .stdout(full)
        .stderr(Stdio::piped())
        .output()
        .expect("rtlcl runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("failed printing to stdout"));
}
