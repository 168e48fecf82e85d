//! Labeling validation at million-node scale: the naive per-node
//! `FlatTree` walk of the reference checker (`Labeling::verify`, one `Vec` +
//! one `Configuration` allocation per internal node) vs the CSR
//! [`LabelingValidator`] from `lcl-verify` (dense parent-indexed packed
//! tables, no allocation per node), sequentially and sharded over
//! `std::thread::scope`.
//!
//! The bench asserts that the parallel CSR validator beats the naive walk on
//! a ≥ 1M-node random full binary tree. The win is structural — the naive
//! walk allocates and sorts per node while the CSR check is a stack-local
//! insertion sort plus one binary search over a flat `&[u128]` — so the
//! assertion holds even on a single-core runner where "parallel" degrades to
//! the sequential CSR scan.

use lcl_bench::harness::{black_box, Bench, BenchReport};
use lcl_core::{Label, Labeling, LclProblem};
use lcl_trees::FlatTree;
use lcl_verify::LabelingValidator;

const MIN_NODES: usize = 1_000_000;

/// The reference checker's case.
const NAIVE: &str = "naive FlatTree walk (Labeling::verify)";

fn main() {
    let problem: LclProblem = "1:22\n2:11\n".parse().unwrap();
    let one = problem.label_by_name("1").unwrap();
    let two = problem.label_by_name("2").unwrap();

    let tree = FlatTree::random_full(2, MIN_NODES, 1);
    assert!(tree.len() >= MIN_NODES);
    let labels: Vec<Label> = tree
        .depths()
        .iter()
        .map(|&d| if d % 2 == 0 { one } else { two })
        .collect();

    // The naive side: the same labeling as a `Labeling`, checked by the
    // reference checker.
    let labeling = Labeling::from_labels(&labels);

    let validator = LabelingValidator::new(&problem);
    // All three checkers must agree before any timing matters.
    labeling.verify(&tree, &problem).unwrap();
    validator.validate(&tree, &labels).unwrap();
    validator.validate_parallel(&tree, &labels).unwrap();

    let mut bench = Bench::new(&format!(
        "validate a depth-parity 2-coloring of a {}-node random full binary tree",
        tree.len()
    ));
    bench.case(NAIVE, || {
        black_box(labeling.verify(&tree, &problem)).is_ok()
    });
    bench.case("CSR validator, sequential", || {
        black_box(validator.validate(&tree, &labels)).is_ok()
    });
    bench.case("CSR validator, parallel shards", || {
        black_box(validator.validate_parallel(&tree, &labels)).is_ok()
    });

    let naive = bench.median_of(NAIVE).expect("case ran");
    let seq = bench
        .median_of("CSR validator, sequential")
        .expect("case ran");
    let par = bench
        .median_of("CSR validator, parallel shards")
        .expect("case ran");
    let mut report = BenchReport::new("validator");
    let seq_speedup = report.add_ratio("csr_sequential_speedup", naive, seq);
    let par_speedup = report.add_ratio("csr_parallel_speedup", naive, par);
    println!("CSR sequential speedup over naive walk: {seq_speedup:.2}x");
    println!("CSR parallel speedup over naive walk:   {par_speedup:.2}x\n");
    assert!(
        par < naive,
        "parallel CSR validator ({par:?}) should beat the naive FlatTree walk ({naive:?}) on {} nodes",
        tree.len()
    );
    report.add_group(bench);
    report.write().expect("bench report written");
}
