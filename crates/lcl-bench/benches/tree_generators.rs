//! Experiment E12 support: throughput of the streaming `FlatTree` generators
//! and of the lower-bound constructions (Section 5.4 bipolar trees).

use lcl_bench::harness::{Bench, BenchReport};
use lcl_trees::{lower_bound, FlatTree};

fn main() {
    let mut report = BenchReport::new("tree_generators");

    let mut bench = Bench::new("generators");
    for &n in &[1usize << 12, 1 << 16] {
        bench.case(&format!("FlatTree::random_full n={n}"), || {
            FlatTree::random_full(2, n, 3)
        });
        bench.case(&format!("FlatTree::hairy_path n={n}"), || {
            FlatTree::hairy_path(2, n / 2)
        });
    }

    report.add_group(bench);

    let mut bench = Bench::new("lower_bound_trees");
    for k in [2usize, 3] {
        for x in [8usize, 16] {
            bench.case(&format!("t_x_k k={k} x={x}"), || {
                lower_bound::t_x_k(2, x, k)
            });
        }
    }
    report.add_group(bench);
    report.write().expect("bench report written");
}
