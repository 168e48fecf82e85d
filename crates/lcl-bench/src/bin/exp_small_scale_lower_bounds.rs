//! Experiment E14 (Section 7.4 intuition): small-scale separation between the O(1)
//! and Ω(log* n) classes. Without a special configuration, every solution is a
//! proper colouring, so a 0-round (or very-low-radius, port-numbering-only)
//! algorithm cannot exist: nodes with identical radius-t views would have to output
//! identical, hence conflicting, labels. MIS, by contrast, admits the radius-4
//! port-numbering algorithm of Figure 1.

use lcl_core::LclProblem;
use lcl_problems::{coloring, mis};
use lcl_sim::views;
use lcl_trees::FlatTree;

/// Returns `true` if a radius-`t` port-numbering algorithm could possibly solve the
/// problem on this tree: i.e. there is an assignment of output labels to radius-t
/// view classes such that all constrained nodes are satisfied. We check the
/// necessary condition used in Theorem 7.7's argument: if two *adjacent* constrained
/// nodes share a view class, the label they share must appear in a configuration
/// repeating the parent label.
fn view_based_algorithm_possible(problem: &LclProblem, tree: &FlatTree, t: usize) -> bool {
    let classes = views::view_classes(tree, t);
    let mut class_of = vec![usize::MAX; tree.len()];
    for (i, class) in classes.iter().enumerate() {
        for &v in class {
            class_of[v as usize] = i;
        }
    }
    // If some internal node shares its view class with one of its children, any
    // view-based algorithm labels both identically; that is only survivable if some
    // allowed configuration repeats its parent label among the children.
    let has_special = problem
        .configurations()
        .iter()
        .any(|c| c.parent_repeats_in_children());
    for v in 0..tree.len() as u32 {
        if tree.num_children(v) != problem.delta() {
            continue;
        }
        for &c in tree.children(v) {
            if class_of[v as usize] == class_of[c as usize] && !has_special {
                return false;
            }
        }
    }
    true
}

fn main() {
    let three_coloring = coloring::three_coloring_binary();
    let mis_problem = mis::mis_binary();
    // A long hairy path: deep in its interior, consecutive spine nodes have
    // identical low-radius views.
    let tree = FlatTree::hairy_path(2, 200);
    println!("instance: hairy path with {} nodes\n", tree.len());
    println!(
        "{:>3} {:>24} {:>18}",
        "t", "3-coloring possible?", "MIS possible?"
    );
    for t in 0..=4 {
        println!(
            "{:>3} {:>24} {:>18}",
            t,
            view_based_algorithm_possible(&three_coloring, &tree, t),
            view_based_algorithm_possible(&mis_problem, &tree, t)
        );
    }
    println!("\ninterpretation: without a special configuration (3-coloring) no algorithm whose");
    println!("output depends only on a low-radius port-numbered view can exist on long paths —");
    println!("matching the Ω(log* n) bound of Theorem 7.7 — while MIS admits one (Figure 1).");
}
