//! Experiment E2: classifier wall-clock time on every catalog problem (the paper's
//! "classifies the sample problems in a matter of milliseconds" claim), plus a
//! scaling sweep over random problems and the Π_k family, plus the
//! exact-exponent overhead guard: the trim/flexible-SCC exponent decision must
//! add less than 20% to a batch sweep over a poly-heavy family (asserted; the
//! measured ratio is committed in `BENCH_classifier.json`), and the report-path
//! guards: full `mis-ternary` and `pi-3` reports must each cost under 3x their
//! decision (asserted; ratios `mis_ternary_report_over_decision` and
//! `pi_3_report_over_decision`).

use std::time::{Duration, Instant};

use lcl_bench::harness::{black_box, Bench, BenchReport};
use lcl_core::constant::decide_constant_subset;
use lcl_core::log_star::decide_log_star_subset;
use lcl_core::scratch::prune_fixpoint_masked;
use lcl_core::{
    classify, classify_complexity, classify_complexity_with, solvable_labels, ClassifyScratch,
    Complexity, LclProblem,
};
use lcl_problems::random::{random_problem, RandomProblemSpec};
use lcl_problems::{catalog, pi_k};

/// The decision procedure with the exponent step removed: identical stages to
/// `classify_complexity_with` (solvability fixed point, masked pruning,
/// Algorithms 4–5 subset searches) but a polynomial verdict stops at the
/// pruning iteration count — exactly what the classifier did before the exact
/// exponent existed. The public masked kernels make this twin faithful.
fn classify_lower_bound_only(problem: &LclProblem, scratch: &mut ClassifyScratch) -> Complexity {
    let sustaining = solvable_labels(problem);
    if sustaining.is_empty() {
        return Complexity::Unsolvable;
    }
    let (fixpoint, iterations) = prune_fixpoint_masked(problem, scratch);
    if fixpoint.is_empty() {
        return Complexity::Polynomial {
            exponent: iterations.max(1),
        };
    }
    if decide_log_star_subset(problem, sustaining, scratch).is_none() {
        return Complexity::Log;
    }
    if decide_constant_subset(problem, sustaining, scratch).is_some() {
        Complexity::Constant
    } else {
        Complexity::LogStar
    }
}

/// Samples per variant of the asserted guards.
const GUARD_SAMPLES: usize = 40;

/// The minimum time of `a` and of `b` over [`GUARD_SAMPLES`] samples each,
/// taken in turn, one `a` then one `b`, both on the shared `state`. The
/// host's speed can switch between modes mid-run; alternating sample by
/// sample lets both variants see every mode, where two back-to-back blocks
/// could each see only one.
fn alternating_minima<S>(
    state: &mut S,
    mut a: impl FnMut(&mut S),
    mut b: impl FnMut(&mut S),
) -> (Duration, Duration) {
    let (mut a_min, mut b_min) = (Duration::MAX, Duration::MAX);
    for _ in 0..GUARD_SAMPLES {
        let start = Instant::now();
        a(state);
        a_min = a_min.min(start.elapsed());
        let start = Instant::now();
        b(state);
        b_min = b_min.min(start.elapsed());
    }
    (a_min, b_min)
}

fn main() {
    let mut report = BenchReport::new("classifier");

    let mut bench = Bench::new("classify_catalog");
    for entry in catalog() {
        bench.case(entry.name, || classify(black_box(&entry.problem)));
    }
    report.add_group(bench);

    let mut bench = Bench::new("classify_pi_k");
    for k in 1..=6 {
        let problem = pi_k::pi_k(k);
        bench.case(&format!("k={k}"), || classify(black_box(&problem)));
    }
    report.add_group(bench);

    let mut bench = Bench::new("classify_random (16 problems per case)");
    for num_labels in [2usize, 3, 4, 5] {
        let spec = RandomProblemSpec {
            delta: 2,
            num_labels,
            density: 0.3,
        };
        let problems: Vec<_> = (0..16).map(|seed| random_problem(&spec, seed)).collect();
        bench.case(&format!("labels={num_labels}"), || {
            for p in &problems {
                black_box(classify(p));
            }
        });
    }
    report.add_group(bench);

    // Exact-exponent overhead guard over a poly-heavy batch: every Π_k up to
    // k = 5 plus random problems (every class, so non-poly stages stay in the
    // mix exactly as a sweep would see them; Π_5 is already far deeper than
    // anything an enumerated universe contains, so this over-weights the
    // exponent path relative to a real sweep — the raw Π_6 timing lives in
    // the unasserted `classify_pi_k` group above).
    let mut family: Vec<LclProblem> = (1..=5).map(pi_k::pi_k).collect();
    let spec = RandomProblemSpec {
        delta: 2,
        num_labels: 3,
        density: 0.3,
    };
    family.extend((0..256).map(|seed| random_problem(&spec, seed)));
    let mut bench = Bench::new("exponent_overhead (poly-heavy batch)");
    let mut scratch = ClassifyScratch::new();
    bench.case("decision, lower bound only", || {
        for p in &family {
            black_box(classify_lower_bound_only(p, &mut scratch));
        }
    });
    bench.case("decision, exact exponent", || {
        for p in &family {
            black_box(classify_complexity_with(p, &mut scratch));
        }
    });
    // The guard asserts on per-variant *minima* over alternating samples, and
    // the recorded ratio is the same pair: scheduling noise only ever
    // inflates a sample, so the minimum tracks the intrinsic cost and the
    // guard stays stable on loaded CI runners (the medians above are
    // reported but carry the jitter).
    let (lower_min, exact_min) = alternating_minima(
        &mut scratch,
        |scratch| {
            for p in &family {
                black_box(classify_lower_bound_only(p, scratch));
            }
        },
        |scratch| {
            for p in &family {
                black_box(classify_complexity_with(p, scratch));
            }
        },
    );
    let overhead = report.add_ratio("exact_exponent_overhead", exact_min, lower_min);
    println!("exact-exponent overhead over lower-bound-only decision (minima): {overhead:.3}x\n");
    assert!(
        overhead < 1.2,
        "the exponent decision must add < 20% to the batch sweep \
         (lower-bound-only {lower_min:?}, exact {exact_min:?})"
    );
    report.add_group(bench);

    // Report-path guards: a full report is the decision plus certificate
    // extraction from the same kernel runs (Algorithm 3's builders, Algorithm
    // 2's pruning trace, the exponent DFS's chain, plus the explicit
    // restrictions), never a second search. Asserted on `mis-ternary`, whose
    // δ = 3 constant search dominated the report before extraction, and on
    // `pi-3`, whose three-level chain dominated the poly report; minima over
    // alternating samples again, as for the exponent guard.
    let mut bench = Bench::new("report_vs_decision");
    for name in ["mis-ternary", "3-coloring-ternary", "mis", "pi-3"] {
        let problem = catalog::by_name(name).expect("catalog problem").problem;
        bench.case(&format!("{name}: classify"), || {
            classify(black_box(&problem))
        });
        bench.case(&format!("{name}: classify_complexity"), || {
            classify_complexity(black_box(&problem))
        });
    }
    report.add_group(bench);
    for (name, ratio_name) in [
        ("mis-ternary", "mis_ternary_report_over_decision"),
        ("pi-3", "pi_3_report_over_decision"),
    ] {
        let problem = catalog::by_name(name).expect("catalog problem").problem;
        let (report_min, decision_min) = alternating_minima(
            &mut (),
            |()| {
                black_box(classify(&problem));
            },
            |()| {
                black_box(classify_complexity(&problem));
            },
        );
        let ratio = report.add_ratio(ratio_name, report_min, decision_min);
        println!("{name} report / decision (minima): {ratio:.3}x\n");
        assert!(
            ratio < 3.0,
            "a {name} report must cost under 3x its decision \
             (report {report_min:?}, decision {decision_min:?})"
        );
    }

    report.write().expect("bench report written");
}
