//! Experiment E9 support: rake-and-compress partition cost and layer counts
//! (Definition 5.8, Lemma 5.9), timed on the partition the log solver runs:
//! `rcp_partition_flat` over CSR trees.

use lcl_bench::harness::{Bench, BenchReport};
use lcl_trees::{generators, rcp_partition_flat, FlatTree};

fn main() {
    let mut report = BenchReport::new("rcp");

    let mut bench = Bench::new("rcp_partition_flat");
    for &n in &[1usize << 10, 1 << 13, 1 << 16] {
        let tree = FlatTree::random_full(2, n, 7);
        for p in [2usize, 4, 8] {
            bench.case(&format!("n={n} p={p}"), || rcp_partition_flat(&tree, p));
        }
    }
    report.add_group(bench);

    let mut bench = Bench::new("rcp_partition_flat_shapes");
    let n = 1 << 14;
    let shapes: Vec<(&str, FlatTree)> = vec![
        ("balanced", FlatTree::balanced(2, 14)),
        ("random", FlatTree::random_full(2, n, 1)),
        // Skewed trees have no CSR generator: the arena tree, copied.
        (
            "skewed",
            FlatTree::from_tree(&generators::random_skewed(2, n, 0.9, 1)),
        ),
        ("hairy_path", FlatTree::hairy_path(2, n / 2)),
    ];
    for (name, tree) in shapes {
        bench.case(name, || rcp_partition_flat(&tree, 4));
    }
    report.add_group(bench);
    report.write().expect("bench report written");
}
