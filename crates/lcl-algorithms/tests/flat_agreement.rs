//! Round accounting of every solver against a recorded golden file.
//!
//! `tests/data/solver_phases.golden` holds, for every solver and seeded tree
//! shape below, the algorithm tag and the phases of the round report (plus,
//! for Π_k, a hash of the partition), recorded from the arena solvers this
//! crate carried before the flat solvers became the only implementation. All
//! phases are deterministic given the tree and identifier assignment, so each
//! solver must reproduce its line exactly with a sequential (`workers = 1`)
//! and a sharded (`workers = 4`) scratch alike; the two scratches must also
//! agree on the labels, and every labeling must pass the reference checker.

use std::collections::HashMap;

use lcl_algorithms::flat::{
    solve_constant_flat, solve_flat, solve_greedy_flat, solve_log_flat, solve_log_star_flat,
    solve_mis_four_rounds_flat, solve_pi_k_flat, solve_poly_flat, FlatOutcome, SolveScratch,
};
use lcl_algorithms::{oracle, Part, RoundReport, SolveError};
use lcl_core::{classify, Labeling, LclProblem};
use lcl_sim::IdAssignment;
use lcl_trees::FlatTree;

/// The worker counts every solver runs with.
const WORKERS: [usize; 2] = [1, 4];

/// The seeded tree shapes every solver is exercised on.
fn shapes(delta: usize) -> Vec<(&'static str, FlatTree)> {
    vec![
        ("random", FlatTree::random_full(delta, 501, 7)),
        ("random2", FlatTree::random_full(delta, 301, 13)),
        (
            "balanced",
            FlatTree::balanced(delta, if delta == 2 { 8 } else { 5 }),
        ),
        ("hairy", FlatTree::hairy_path(delta, 120)),
        ("singleton", FlatTree::balanced(delta, 0)),
    ]
}

/// The golden lines, keyed by case name.
fn golden() -> HashMap<&'static str, &'static str> {
    include_str!("data/solver_phases.golden")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| (line.split('\t').next().expect("case name"), line))
        .collect()
}

/// One golden line: `case  algorithm  name=rounds[*] | …`.
fn render(case: &str, algorithm: &str, rounds: &RoundReport) -> String {
    let phases: Vec<String> = rounds
        .phases()
        .iter()
        .map(|(name, r, measured)| format!("{name}={r}{}", if *measured { "*" } else { "" }))
        .collect();
    format!("{case}\t{algorithm}\t{}", phases.join(" | "))
}

/// FNV-1a over the Π_k partition, `B(i)` as `2i` and `X(i)` as `2i + 1`.
fn part_hash(part: &[Part]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in part {
        let code = match *p {
            Part::B(i) => 2 * i as u32,
            Part::X(i) => 2 * i as u32 + 1,
        };
        for b in code.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Asserts `line` equals the golden line of its case.
fn expect_golden(line: &str) {
    let case = line.split('\t').next().expect("case name");
    let golden = golden();
    let expected = golden
        .get(case)
        .unwrap_or_else(|| panic!("{case}: no golden line"));
    assert_eq!(line, *expected, "{case}: round accounting changed");
}

/// Runs `solve` once per worker count and checks every outcome: a valid
/// labeling (reference checker), labels independent of the worker count, and
/// the golden round accounting. `extra` appends case-specific golden fields.
fn check_case(
    case: &str,
    problem: &LclProblem,
    tree: &FlatTree,
    mut solve: impl FnMut(&mut SolveScratch) -> FlatOutcome,
    extra: impl Fn(&SolveScratch) -> String,
) -> FlatOutcome {
    let mut first: Option<FlatOutcome> = None;
    for workers in WORKERS {
        let mut scratch = SolveScratch::with_workers(workers);
        let outcome = solve(&mut scratch);
        assert_eq!(outcome.labels.len(), tree.len(), "{case}");
        Labeling::from_labels(&outcome.labels)
            .verify(tree, problem)
            .unwrap_or_else(|e| panic!("{case} (workers {workers}): invalid labeling: {e}"));
        expect_golden(&format!(
            "{}{}",
            render(case, outcome.algorithm, &outcome.rounds),
            extra(&scratch)
        ));
        match &first {
            Some(a) => assert_eq!(a.labels, outcome.labels, "{case}: workers changed labels"),
            None => first = Some(outcome),
        }
    }
    first.expect("at least one worker count")
}

fn no_extra(_: &SolveScratch) -> String {
    String::new()
}

#[test]
fn log_star_solver_matches_golden() {
    let problem = lcl_problems::coloring::three_coloring_binary();
    let cert = classify(&problem).log_star_certificate().unwrap().unwrap();
    for (name, tree) in shapes(2) {
        let idx = tree.level_index();
        let ids = IdAssignment::random_permutation_len(tree.len(), 3);
        check_case(
            &format!("log_star/d2/{name}"),
            &problem,
            &tree,
            |s| solve_log_star_flat(&problem, &cert, &tree, &idx, &ids, s),
            no_extra,
        );
    }
}

#[test]
fn log_star_solver_matches_golden_on_delta_three() {
    let problem = lcl_problems::coloring::coloring(3, 4);
    let cert = classify(&problem).log_star_certificate().unwrap().unwrap();
    for (name, tree) in shapes(3) {
        let idx = tree.level_index();
        let ids = IdAssignment::sequential_len(tree.len());
        check_case(
            &format!("log_star/d3/{name}"),
            &problem,
            &tree,
            |s| solve_log_star_flat(&problem, &cert, &tree, &idx, &ids, s),
            no_extra,
        );
    }
}

#[test]
fn constant_solver_matches_golden() {
    for (delta, problem) in [
        (2, lcl_problems::mis::mis_binary()),
        (3, lcl_problems::mis::mis(3)),
    ] {
        let cert = classify(&problem).constant_certificate().unwrap().unwrap();
        for (name, tree) in shapes(delta) {
            let idx = tree.level_index();
            check_case(
                &format!("constant/d{delta}/{name}"),
                &problem,
                &tree,
                |s| solve_constant_flat(&problem, &cert, &idx, s),
                no_extra,
            );
        }
    }
}

#[test]
fn log_solver_matches_golden() {
    for (delta, problem) in [
        (2, lcl_problems::coloring::branch_two_coloring()),
        (3, "1 : 1 2 2\n2 : 1 1 1\n".parse::<LclProblem>().unwrap()),
    ] {
        let cert = classify(&problem).log_certificate().unwrap().clone();
        for (name, tree) in shapes(delta) {
            check_case(
                &format!("log/d{delta}/{name}"),
                &problem,
                &tree,
                |s| solve_log_flat(&problem, &cert, &tree, s).unwrap(),
                no_extra,
            );
        }
    }
}

#[test]
fn mis_four_rounds_matches_golden_and_the_simulator() {
    let problem = lcl_problems::mis::mis_binary();
    for (name, tree) in shapes(2) {
        let idx = tree.level_index();
        let case = format!("mis/d2/{name}");
        let flat = check_case(
            &case,
            &problem,
            &tree,
            |s| solve_mis_four_rounds_flat(&problem, &idx, s),
            no_extra,
        );
        // The flat solver charges the constant simulator round count and
        // looks up the table the message-passing program evaluates: rounds
        // and labels both equal the simulator run's.
        let (outputs, metrics) = oracle::run(&tree);
        assert_eq!(flat.rounds.total(), metrics.rounds, "{case}");
        let expected: Vec<_> = outputs
            .iter()
            .map(|c| problem.label_by_name(&c.to_string()).unwrap())
            .collect();
        assert_eq!(flat.labels, expected, "{case}");
    }
}

#[test]
fn pi_k_solver_matches_golden() {
    for k in [1usize, 2, 3] {
        let problem = lcl_problems::pi_k::pi_k(k);
        for (name, tree) in shapes(2) {
            let idx = tree.level_index();
            // The partition itself must match the recorded one exactly.
            check_case(
                &format!("pi_{k}/d2/{name}"),
                &problem,
                &tree,
                |s| solve_pi_k_flat(&problem, k, &tree, &idx, s),
                |s| format!("\tpart={:016x}", part_hash(s.part())),
            );
        }
    }
}

#[test]
fn poly_exact_solver_matches_golden() {
    // The generalized certificate-driven solver: exponent 1 (2-coloring,
    // δ = 2 and 3), exponents 2 and 3 (Π_k).
    let problems: [(&str, usize, LclProblem); 4] = [
        ("2col", 2, "1:22\n2:11\n".parse().unwrap()),
        ("pi_2", 2, lcl_problems::pi_k::pi_k(2)),
        ("pi_3", 2, lcl_problems::pi_k::pi_k(3)),
        ("2col", 3, "1:222\n2:111\n".parse().unwrap()),
    ];
    for (label, delta, problem) in &problems {
        let cert = lcl_core::find_poly_certificate(problem).expect("polynomial problem");
        for (name, tree) in shapes(*delta) {
            let idx = tree.level_index();
            check_case(
                &format!("poly/{label}/d{delta}/{name}"),
                problem,
                &tree,
                |s| solve_poly_flat(problem, &cert, &tree, &idx, s).unwrap(),
                no_extra,
            );
        }
    }
}

#[test]
fn dispatcher_matches_golden_for_every_class() {
    let problems = [
        (
            "1 : a a\n1 : a b\n1 : b b\na : b b\nb : b 1\nb : 1 1\n",
            "O(1)",
        ),
        (
            "1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n",
            "log*",
        ),
        ("1 : 1 2\n2 : 1 1\n", "log"),
        ("1:22\n2:11\n", "poly"),
    ];
    let tree = FlatTree::random_full(2, 301, 11);
    let idx = tree.level_index();
    let ids = IdAssignment::random_permutation_len(tree.len(), 5);
    for (text, class) in problems {
        let problem: LclProblem = text.parse().unwrap();
        let report = classify(&problem);
        assert_eq!(report.complexity.short_name(), class);
        let case = format!("dispatch/{class}");
        check_case(
            &case,
            &problem,
            &tree,
            |s| solve_flat(&problem, &report, &tree, &idx, &ids, s).unwrap(),
            no_extra,
        );
    }
}

#[test]
fn dispatcher_rejects_unsolvable_problems() {
    let problem: LclProblem = "a : b b\nb : c c\n".parse().unwrap();
    let report = classify(&problem);
    let tree = FlatTree::balanced(2, 4);
    let idx = tree.level_index();
    let ids = IdAssignment::sequential_len(tree.len());
    let mut scratch = SolveScratch::new();
    let err = solve_flat(&problem, &report, &tree, &idx, &ids, &mut scratch).unwrap_err();
    assert_eq!(err, SolveError::Unsolvable);
}

#[test]
fn greedy_fallback_produces_the_core_greedy_labeling() {
    // The greedy baseline resolves one continuation per label up front; it
    // must reproduce `lcl_core::greedy::solve` bit-for-bit.
    let problem: LclProblem = "1:22\n2:11\n".parse().unwrap();
    let tree = FlatTree::random_full(2, 801, 3);
    let idx = tree.level_index();
    let arena = tree.to_rooted();
    let expected = lcl_core::greedy::solve(&problem, &arena).unwrap();
    let mut scratch = SolveScratch::with_workers(4);
    let flat = solve_greedy_flat(&problem, &idx, &mut scratch).unwrap();
    for v in arena.nodes() {
        assert_eq!(Some(flat.labels[v.index()]), expected.get(v.0));
    }
}
