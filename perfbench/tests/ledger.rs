//! Every workload's exact-count ledger repeats: two short runs at one seed
//! must count identically, and every output check must pass. Later changes
//! can then rest a claim on a count.

use perfbench::report::RunConfig;
use perfbench::{run, Workload};

fn twice(workload: Workload) {
    let cfg = RunConfig {
        seed: 7,
        seconds: 0.5,
        trace: false,
    };
    let first = run(workload, &cfg).expect("first run");
    let second = run(workload, &cfg).expect("second run");
    for r in [&first, &second] {
        assert!(r.correct, "{}: {:?}", workload.name(), r.problem);
        assert_eq!(r.failed, 0, "{}", workload.name());
    }
    assert!(!first.ledger.is_empty());
    assert_eq!(first.ledger, second.ledger, "{}", workload.name());
}

#[test]
fn classify_serve_counts_repeat() {
    twice(Workload::ClassifyServe);
}

#[test]
fn campaign_counts_repeat() {
    twice(Workload::CampaignD2l4);
}

#[test]
fn tree_solve_counts_repeat() {
    twice(Workload::TreeSolve);
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    let cfg = RunConfig {
        seed: 3,
        seconds: 0.5,
        trace: true,
    };
    let r = run(Workload::TreeSolve, &cfg).expect("traced run");
    assert!(r.correct, "{:?}", r.problem);
    let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
    let listed: Vec<&str> = perfbench::PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, listed);
}
