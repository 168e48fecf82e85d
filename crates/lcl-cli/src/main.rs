//! `rtlcl` — command-line interface to the rooted-tree LCL classifier and solvers.
//!
//! ```text
//! rtlcl catalog                       # list the built-in problems and their classes
//! rtlcl classify <file|name> [--json] # classify a problem (file in the paper's notation,
//!                                     # or a catalog name such as `mis`)
//! rtlcl explain  <file|name>          # classification plus certificates
//! rtlcl solve    <file|name> <n>      # classify, solve on a random n-node tree, verify
//!                                     # (the size may also be given as --nodes n; the
//!                                     #  tree is streamed into CSR form and solved by
//!                                     #  the flat level-synchronous solver engine;
//!                                     #  --emit-labeling <path> writes the solution;
//!                                     #  --baseline forces the greedy O(n) sweep
//!                                     #  instead of the class-optimal solver;
//!                                     #  --edits BxE[@seed] drives B seeded batches of
//!                                     #  E attach/detach/relabel edits through the
//!                                     #  incremental repair engine after the solve,
//!                                     #  validating every batch; --flat is accepted
//!                                     #  and does nothing)
//! rtlcl classify-batch [options]      # sweep a whole problem family through the engine
//! rtlcl sweep    [options]            # canonical-first exhaustive sweep of a (δ, Σ) universe
//! rtlcl serve    [options]            # run the resident classification daemon (HTTP/JSON)
//! rtlcl snapshot info <file> [--json] # inspect a sweep checkpoint file
//! rtlcl verify   <file|name> <labeling-file> [options]
//!                                     # validate a labeling file on a generated tree
//! rtlcl fuzz     [options]            # run the classifier-vs-solver differential oracle
//! ```
//!
//! `verify` options:
//!
//! ```text
//! --tree <shape>   random | balanced | hairy (default random)
//! --nodes <n>      minimum tree size (default 101)
//! --seed <s>       tree seed (default 1)
//! --edits BxE[@s]  replay the same seeded edit script a `solve --edits`
//!                  run applied (structure only) before validating, so labelings
//!                  emitted after dynamic edits round-trip through verify
//! --json           emit the verdict as JSON
//! ```
//!
//! The labeling file holds one label name per node, whitespace-separated, in
//! node-id order — the format written by `rtlcl solve --emit-labeling`.
//!
//! `fuzz` options:
//!
//! ```text
//! --iters <n>      oracle iterations (default 200)
//! --seed <s>       base seed (default 1)
//! --json           emit the full report as JSON
//! ```
//!
//! `classify-batch` options:
//!
//! ```text
//! --count <n>      number of random problems (default 500)
//! --labels <k>     labels per problem (default 3)
//! --delta <d>      children per internal node (default 2)
//! --density <p>    configuration density in [0,1] (default 0.3)
//! --seed <s>       base seed (default 1)
//! --enumerate      sweep the complete (δ, Σ) family instead of random samples
//!                  (combined with --count as a cap)
//! --sequential     disable the parallel workers
//! --no-memo        disable canonical-form memoization
//! --json           emit the full per-problem results as JSON
//! ```
//!
//! `sweep` options (exhaustive canonical-first classification of the *entire*
//! (δ, Σ) universe — one decision per label-permutation orbit, whole-universe
//! histograms reconstructed through orbit sizes):
//!
//! ```text
//! --delta <d>      children per internal node (default 2)
//! --labels <k>     labels of the universe (default 2; the universe must fit
//!                  63 configurations, so δ=2 caps at 4 labels, δ=1 at 7)
//! --max-orbits <n> stop the campaign after ~n more orbit decisions (requires
//!                  --checkpoint; the leg stops at the next commit boundary,
//!                  writes the snapshot, and exits 0 — rerun with --resume to
//!                  continue the campaign where it left off)
//! --shards <n>     shard count for the parallel driver (default: available
//!                  cores; clamped to the orbit-bearing mask ranges, so tiny
//!                  families never spawn empty shards)
//! --engine <e>     `bitsliced` (default: classify a block of orbit
//!                  representatives per kernel pass in bit-parallel lockstep)
//!                  or `scalar` (one decision at a time); histograms are
//!                  identical either way. The bit-sliced engine runs 64 lanes
//!                  (one `u64` word) per block
//! --checkpoint <file>      write resumable snapshots of the campaign here
//!                          (atomic temp-file + rename, plus a final write)
//! --checkpoint-every <n>   orbits between snapshot writes (default 4096)
//! --resume                 continue the campaign stored in --checkpoint; the
//!                          snapshot's δ/labels/engine/shard split are
//!                          authoritative, conflicting flags are rejected; a
//!                          checkpoint whose digest no longer verifies is
//!                          quarantined to `<file>.corrupt` and the campaign
//!                          restarts fresh (with a loud warning)
//! --json           emit the histograms as JSON
//! ```
//!
//! `rtlcl snapshot info <file> [--json]` prints a checkpoint's header and
//! progress (format version, checkpoint segments and torn tail bytes, family,
//! engine, watermarks, histograms so far, memo size) without touching the
//! classifier.
//!
//! `serve` options (the daemon itself — endpoints, JSON shapes, and the
//! overload/timeout/shutdown contract — is documented in the `lcl-serve`
//! crate and the README):
//!
//! ```text
//! --addr <host:port>   bind address (default 127.0.0.1:7421; port 0 picks one)
//! --workers <n>        worker threads (default 4)
//! --queue <n>          accept-queue depth before shedding 503s (default 64)
//! --deadline-ms <n>    per-request compute budget (default 10000)
//! --read-timeout-ms <n>  budget for reading one request (default 5000)
//! --snapshot <file>    warm-boot from / flush the engine memo to this file
//! --debug-endpoints    enable /debug/panic (fault-injection testing)
//! ```

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use lcl_core::{
    classify, ClassificationEngine, ComplexityHistogram, EngineKind, LclProblem, LoadOutcome,
    MaskRange, SnapshotLayout, SweepCheckpoint, SweepSnapshot,
};
use lcl_problems::canonical::{family_universe_len, CanonicalFamily};
use lcl_problems::catalog;
use lcl_problems::random::{enumerate_problems, random_family, RandomProblemSpec};
use lcl_rand::SplitMix64;
use lcl_serve::{histogram_json, report_to_json, Json, ServeConfig, Server};
use lcl_sim::IdAssignment;
use lcl_trees::flat::minimal_complete_depth;
use lcl_trees::{DynamicTree, EditScriptGen, FlatTree};
use lcl_verify::{
    fuzz_classifier_vs_solvers, solve_checked, CheckedSolve, EditError, EditSession,
    LabelingValidator, SolveCheckError,
};

/// Set once a stdout write met `BrokenPipe`; later writes are dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout. Once the reader has gone away (`BrokenPipe`, as when
/// `head` or `grep -q` stops reading), this and every later write are
/// dropped quietly, so the command still finishes its work (a labeling file,
/// a snapshot flush) and returns its own exit status. Any other write error
/// panics, as `print!` does.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::Write::write_fmt(&mut std::io::stdout().lock(), args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
            return;
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `--edits BxE[@seed]`: B batches of E edits, script seed (default 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EditSpec {
    batches: usize,
    per_batch: usize,
    seed: u64,
}

impl std::str::FromStr for EditSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let err = || format!("`{s}` is not of the form BxE[@seed], e.g. 10x64@7");
        let (counts, seed) = match s.split_once('@') {
            Some((counts, seed)) => (counts, seed.parse().map_err(|_| err())?),
            None => (s, 1),
        };
        let (batches, per_batch) = counts.split_once('x').ok_or_else(err)?;
        let spec = EditSpec {
            batches: batches.parse().map_err(|_| err())?,
            per_batch: per_batch.parse().map_err(|_| err())?,
            seed,
        };
        if spec.batches == 0 || spec.per_batch == 0 {
            return Err("--edits needs positive batch and edit counts".into());
        }
        Ok(spec)
    }
}

fn load_problem(spec: &str) -> Result<LclProblem, String> {
    if let Some(entry) = catalog::by_name(spec) {
        return Ok(entry.problem);
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| format!("`{spec}` is neither a catalog problem nor a readable file: {e}"))?;
    text.parse::<LclProblem>().map_err(|e| e.to_string())
}

fn cmd_catalog() -> ExitCode {
    outln!("{:<22} {:<14} reference", "name", "expected class");
    for entry in catalog::catalog() {
        outln!(
            "{:<22} {:<14} {}",
            entry.name,
            entry.expected.describe(),
            entry.reference
        );
    }
    ExitCode::SUCCESS
}

fn cmd_classify(spec: &str, json: bool) -> ExitCode {
    let problem = match load_problem(spec) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let report = classify(&problem);
    if json {
        outln!("{}", report_to_json(&report).to_pretty());
    } else {
        outln!("{}", report.complexity);
    }
    ExitCode::SUCCESS
}

fn cmd_explain(spec: &str) -> ExitCode {
    let problem = match load_problem(spec) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let report = classify(&problem);
    out!("{}", report.describe());
    if let Some(Ok(cert)) = report.log_star_certificate() {
        outln!(
            "uniform certificate: depth {}, labels {}",
            cert.depth,
            problem.alphabet().format_set(cert.labels)
        );
        let leaf_names: Vec<&str> = cert
            .leaf_pattern()
            .iter()
            .map(|&l| problem.label_name(l))
            .collect();
        outln!("shared leaf pattern: {}", leaf_names.join(" "));
    }
    ExitCode::SUCCESS
}

/// `rtlcl solve`: streams a random full δ-ary tree (seed 1) straight into CSR
/// form, solves it with the class-optimal flat solver (or the greedy O(n)
/// sweep under `--baseline`) and identifiers permuted with seed 1, validates
/// with the parallel CSR validator, and optionally drives seeded edit batches
/// through the incremental repair engine. `rtlcl verify` regenerates the same
/// tree, so it accepts the emitted labeling.
fn cmd_solve(opts: &SolveOptions) -> ExitCode {
    let (n, emit_labeling) = (opts.nodes, opts.emit.as_deref());
    let problem = match load_problem(&opts.spec) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let report = classify(&problem);
    outln!("complexity: {}", report.complexity);
    if !report.complexity.is_solvable() {
        outln!("problem is unsolvable; nothing to solve");
        if let Some(path) = emit_labeling {
            // Fail rather than exit 0 with nothing written: a `solve … &&
            // verify …` chain would otherwise validate a stale file.
            return fail(format!(
                "--emit-labeling {path}: no labeling exists for an unsolvable problem"
            ));
        }
        return ExitCode::SUCCESS;
    }
    let (problem, report) = (&problem, &report);
    let CheckedSolve { tree, ids, outcome } =
        match solve_checked(problem, report, n.max(1), 1, opts.baseline) {
            Ok(solved) => solved,
            Err(SolveCheckError::Solve(e)) => return fail(format!("solver error: {e}")),
            Err(SolveCheckError::Invalid(e)) => {
                return fail(format!("internal error: produced an invalid solution: {e}"))
            }
        };
    outln!(
        "solved and verified on a {}-node random full {}-ary tree",
        tree.len(),
        problem.delta()
    );
    outln!("algorithm: {}", outcome.algorithm);
    outln!("rounds: {}", outcome.rounds.summary());

    // The dynamic-tree path: drive seeded edit batches through the
    // incremental repair engine, validating each batch's dirty ranges.
    let session;
    let labels = match opts.edits {
        None => &outcome.labels,
        Some(spec) => {
            let base_len = tree.len();
            let tree = DynamicTree::new(tree, problem.delta());
            session = match drive_edit_batches(problem, report, spec, tree, outcome.labels, ids) {
                Ok(session) => session,
                Err(e) => return fail(format!("edit replay failed: {e}")),
            };
            outln!(
                "edits: {} batches x {} edits (seed {}), tree {} -> {} nodes, every batch validated",
                spec.batches,
                spec.per_batch,
                spec.seed,
                base_len,
                session.tree().len()
            );
            session.labels()
        }
    };
    if let Some(path) = emit_labeling {
        let mut out = String::with_capacity(labels.len() * 2);
        for &label in labels {
            out.push_str(problem.label_name(label));
            out.push('\n');
        }
        if let Err(e) = std::fs::write(path, out) {
            return fail(format!("cannot write labeling to `{path}`: {e}"));
        }
        outln!("labeling written to {path} (validate with `rtlcl verify`)");
    }
    ExitCode::SUCCESS
}

/// Applies `spec.batches` seeded edit batches to `tree` through an
/// [`EditSession`], which repairs the labeling incrementally after each and
/// validates the dirty ranges the repair reports; then validates the whole
/// tree once more. The solve's identifiers ride along, so surviving nodes
/// keep their identifiers across every batch.
fn drive_edit_batches(
    problem: &LclProblem,
    report: &lcl_core::ClassificationReport,
    spec: EditSpec,
    tree: DynamicTree,
    labels: Vec<lcl_core::Label>,
    ids: IdAssignment,
) -> Result<EditSession, String> {
    let mut gen = EditScriptGen::new(spec.seed, tree.len());
    let mut session = EditSession::new(problem.clone(), report.clone(), tree, labels, ids)
        .map_err(|e| format!("cannot build a repair plan: {e}"))?;
    let mut rng = SplitMix64::seed_from_u64(spec.seed ^ 0x9E37_79B9_7F4A_7C15);
    let (mut sites, mut relabeled, mut escalations) = (0usize, 0usize, 0usize);
    for batch in 0..spec.batches {
        let out = match session.apply_batch(&mut gen, spec.per_batch, &mut rng) {
            Ok(out) => out.repair,
            Err(EditError::Repair(e)) => return Err(format!("batch {batch}: repair failed: {e}")),
            Err(EditError::Invalid(e)) => {
                return Err(format!("batch {batch}: dirty-range validation failed: {e}"))
            }
        };
        sites += out.sites;
        relabeled += out.relabeled;
        escalations += usize::from(out.escalated);
    }
    session
        .validate()
        .map_err(|e| format!("final full validation failed: {e}"))?;
    let ids = session.ids();
    if ids.len() != session.tree().len() {
        return Err(format!(
            "identifier maintenance diverged: {} ids for {} nodes",
            ids.len(),
            session.tree().len()
        ));
    }
    outln!("repair: {sites} sites, {relabeled} labels written, {escalations} escalations");
    outln!(
        "identifiers: {} live ids in {} bits (survivors stable across every batch)",
        ids.len(),
        ids.id_bits()
    );
    Ok(session)
}

/// Shared `--flag value` cursor for the subcommand option parsers: fetches the
/// next token as a flag's value and parses it with the flag name prefixed to
/// any error, so every subcommand reports `--flag: <parse error>` uniformly.
struct FlagCursor<'a> {
    it: std::slice::Iter<'a, String>,
}

impl<'a> FlagCursor<'a> {
    fn new(args: &'a [String]) -> Self {
        FlagCursor { it: args.iter() }
    }

    fn next_arg(&mut self) -> Option<&'a String> {
        self.it.next()
    }

    fn value(&mut self, name: &str) -> Result<&'a String, String> {
        match self.it.next() {
            None => Err(format!("{name} requires a value")),
            Some(v) if v.starts_with("--") => {
                Err(format!("{name} requires a value, got the flag `{v}`"))
            }
            Some(v) => Ok(v),
        }
    }

    fn parse_value<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name)?
            .parse()
            .map_err(|e| format!("{name}: {e}"))
    }
}

/// The arguments of `classify`, `explain` and `snapshot info`: exactly one
/// `operand` and, where `json_ok`, `--json` before or after it.
fn parse_operand<'a>(
    cmd: &str,
    operand: &str,
    json_ok: bool,
    args: &'a [String],
) -> Result<(&'a str, bool), String> {
    let (mut found, mut json) = (None, false);
    let mut cur = FlagCursor::new(args);
    while let Some(arg) = cur.next_arg() {
        match arg.as_str() {
            "--json" if json_ok => json = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown {cmd} option `{other}`"))
            }
            other if found.is_some() => {
                return Err(format!(
                    "{cmd} expects one {operand}, got the extra `{other}`"
                ))
            }
            other => found = Some(other),
        }
    }
    let found = found.ok_or_else(|| format!("{cmd} expects a {operand}"))?;
    Ok((found, json))
}

/// Generates the tree a `verify` invocation checks against: deterministic in
/// `(shape, delta, nodes, seed)`, with at least `nodes` nodes.
fn build_tree(shape: &str, delta: usize, nodes: usize, seed: u64) -> Result<FlatTree, String> {
    let nodes = nodes.max(1);
    match shape {
        "random" => Ok(FlatTree::random_full(delta, nodes, seed)),
        "balanced" => Ok(FlatTree::balanced(
            delta,
            minimal_complete_depth(delta, nodes),
        )),
        "hairy" => Ok(FlatTree::hairy_path(delta, nodes.div_ceil(delta).max(1))),
        other => Err(format!(
            "unknown tree shape `{other}` (expected random, balanced, or hairy)"
        )),
    }
}

struct VerifyOptions {
    shape: String,
    nodes: usize,
    seed: u64,
    edits: Option<EditSpec>,
    json: bool,
    positional: Vec<String>,
}

fn parse_verify_options(args: &[String]) -> Result<VerifyOptions, String> {
    let mut opts = VerifyOptions {
        shape: "random".into(),
        nodes: 101,
        seed: 1,
        edits: None,
        json: false,
        positional: Vec::new(),
    };
    let mut cur = FlagCursor::new(args);
    while let Some(arg) = cur.next_arg() {
        match arg.as_str() {
            "--tree" => opts.shape = cur.value("--tree")?.clone(),
            "--nodes" => opts.nodes = cur.parse_value("--nodes")?,
            "--seed" => opts.seed = cur.parse_value("--seed")?,
            "--edits" => opts.edits = Some(cur.parse_value("--edits")?),
            "--json" => opts.json = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown verify option `{other}`"))
            }
            _ => opts.positional.push(arg.clone()),
        }
    }
    Ok(opts)
}

fn cmd_verify(args: &[String]) -> ExitCode {
    let opts = match parse_verify_options(args) {
        Ok(o) => o,
        Err(e) => return usage_error(e),
    };
    let VerifyOptions {
        shape,
        nodes,
        seed,
        edits,
        json,
        positional,
    } = opts;
    let (problem_spec, labeling_path) = match positional.as_slice() {
        [p, l] => (p.as_str(), l.as_str()),
        _ => return usage_error("verify expects a problem and a labeling file"),
    };
    let problem = match load_problem(problem_spec) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let text = match std::fs::read_to_string(labeling_path) {
        Ok(t) => t,
        Err(e) => return fail(format!("cannot read labeling file `{labeling_path}`: {e}")),
    };
    let mut labels = Vec::new();
    for (i, name) in text.split_whitespace().enumerate() {
        match problem.label_by_name(name) {
            Some(l) => labels.push(l),
            None => {
                return fail(format!(
                    "labeling entry {i} (`{name}`) is not an active label of the problem"
                ))
            }
        }
    }
    let mut tree = match build_tree(&shape, problem.delta(), nodes, seed) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    if let Some(spec) = edits {
        // Structure-only replay of the edit script a `solve --edits`
        // run applied: same seed, same deterministic generator, same ids.
        let mut dt = DynamicTree::new(tree, problem.delta());
        let mut gen = EditScriptGen::new(spec.seed, dt.len());
        let mut buf = Vec::new();
        for _ in 0..spec.batches {
            buf.clear();
            gen.apply_batch(&mut dt, spec.per_batch, &mut buf);
            dt.sync();
        }
        tree = dt.tree().clone();
    }
    let verdict = LabelingValidator::new(&problem).validate_parallel(&tree, &labels);
    if json {
        let mut obj = vec![
            ("problem".into(), Json::str(problem.to_text())),
            ("tree".into(), Json::str(shape.as_str())),
            ("nodes".into(), Json::int(tree.len())),
        ];
        // Only the random shape is seed-dependent; balanced/hairy trees are
        // fully determined by (delta, nodes), so reporting a seed for them
        // would suggest a distinction that does not exist.
        if shape == "random" {
            obj.push(("seed".into(), Json::uint(seed)));
        }
        obj.push(("valid".into(), Json::Bool(verdict.is_ok())));
        if let Err(e) = &verdict {
            obj.push(("violation".into(), Json::str(e.to_string())));
            // A size mismatch has no offending node to point at.
            if let Some(node) = e.node() {
                obj.push(("violation_node".into(), Json::int(node as usize)));
            }
        }
        outln!("{}", Json::Obj(obj).to_pretty());
    } else {
        match &verdict {
            Ok(()) => outln!(
                "valid: all {} nodes of the {} tree satisfy the problem",
                tree.len(),
                shape
            ),
            Err(e) => outln!("INVALID: {e}"),
        }
    }
    if verdict.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_fuzz_options(args: &[String]) -> Result<(usize, u64, bool), String> {
    let (mut iters, mut seed, mut json) = (200usize, 1u64, false);
    let mut cur = FlagCursor::new(args);
    while let Some(arg) = cur.next_arg() {
        match arg.as_str() {
            "--iters" => iters = cur.parse_value("--iters")?,
            "--seed" => seed = cur.parse_value("--seed")?,
            "--json" => json = true,
            other => return Err(format!("unknown fuzz option `{other}`")),
        }
    }
    Ok((iters, seed, json))
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let (iters, seed, json) = match parse_fuzz_options(args) {
        Ok(o) => o,
        Err(e) => return usage_error(e),
    };
    let start = Instant::now();
    let report = fuzz_classifier_vs_solvers(seed, iters);
    let elapsed = start.elapsed();
    if json {
        let out = Json::Obj(vec![
            ("seed".into(), Json::uint(seed)),
            ("iterations".into(), Json::int(report.iterations)),
            ("elapsed_ms".into(), Json::Num(elapsed.as_secs_f64() * 1e3)),
            (
                "histogram".into(),
                Json::Obj(
                    report
                        .histogram
                        .iter()
                        .map(|&(name, n)| (name.to_string(), Json::int(n)))
                        .collect(),
                ),
            ),
            ("solver_runs".into(), Json::int(report.solver_runs)),
            ("validated_nodes".into(), Json::int(report.validated_nodes)),
            (
                "skipped_certificates".into(),
                Json::int(report.skipped_certificates),
            ),
            ("edit_scripts".into(), Json::int(report.edit_scripts)),
            ("clean".into(), Json::Bool(report.is_clean())),
            (
                "discrepancies".into(),
                Json::Arr(
                    report
                        .discrepancies
                        .iter()
                        .map(|d| {
                            Json::Obj(vec![
                                ("iteration".into(), Json::int(d.iteration)),
                                ("problem".into(), Json::str(d.problem.as_str())),
                                ("complexity".into(), Json::str(d.complexity.as_str())),
                                ("context".into(), Json::str(d.context.as_str())),
                                ("detail".into(), Json::str(d.detail.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        outln!("{}", out.to_pretty());
    } else {
        outln!(
            "fuzzed {} problems (seed {seed}) in {:.1} ms",
            report.iterations,
            elapsed.as_secs_f64() * 1e3
        );
        for (name, n) in report.histogram {
            if n > 0 {
                outln!("{name:>12}: {n}");
            }
        }
        outln!(
            "solver runs: {} ({} nodes validated, {} certificate skips)",
            report.solver_runs,
            report.validated_nodes,
            report.skipped_certificates
        );
        outln!(
            "edit scripts: {} repaired batches validated incrementally",
            report.edit_scripts
        );
        if report.is_clean() {
            outln!("no discrepancies: classifier, solvers, and validator agree");
        } else {
            outln!("{} DISCREPANCIES:", report.discrepancies.len());
            for d in &report.discrepancies {
                outln!("  {d}");
            }
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[derive(Debug)]
struct BatchOptions {
    count: usize,
    labels: usize,
    delta: usize,
    density: f64,
    seed: u64,
    enumerate: bool,
    sequential: bool,
    memoize: bool,
    json: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            count: 500,
            labels: 3,
            delta: 2,
            density: 0.3,
            seed: 1,
            enumerate: false,
            sequential: false,
            memoize: true,
            json: false,
        }
    }
}

fn parse_batch_options(args: &[String]) -> Result<BatchOptions, String> {
    let mut opts = BatchOptions::default();
    let mut cur = FlagCursor::new(args);
    while let Some(arg) = cur.next_arg() {
        match arg.as_str() {
            "--count" => opts.count = cur.parse_value("--count")?,
            "--labels" => opts.labels = cur.parse_value("--labels")?,
            "--delta" => opts.delta = cur.parse_value("--delta")?,
            "--density" => opts.density = cur.parse_value("--density")?,
            "--seed" => opts.seed = cur.parse_value("--seed")?,
            "--enumerate" => opts.enumerate = true,
            "--sequential" => opts.sequential = true,
            "--no-memo" => opts.memoize = false,
            "--json" => opts.json = true,
            other => return Err(format!("unknown classify-batch option `{other}`")),
        }
    }
    if opts.labels == 0 || opts.delta == 0 {
        return Err("--labels and --delta must be positive".into());
    }
    if opts.labels > lcl_core::MAX_SEARCH_LABELS {
        return Err(format!(
            "--labels {} exceeds the classifier's subset-search limit of {}",
            opts.labels,
            lcl_core::MAX_SEARCH_LABELS
        ));
    }
    if !(0.0..=1.0).contains(&opts.density) {
        return Err("--density must be in [0, 1]".into());
    }
    Ok(opts)
}

fn cmd_classify_batch(args: &[String]) -> ExitCode {
    let opts = match parse_batch_options(args) {
        Ok(o) => o,
        Err(e) => return usage_error(e),
    };
    let problems: Vec<LclProblem> = if opts.enumerate {
        enumerate_problems(opts.delta, opts.labels)
            .take(opts.count)
            .collect()
    } else {
        let spec = RandomProblemSpec {
            delta: opts.delta,
            num_labels: opts.labels,
            density: opts.density,
        };
        random_family(&spec, opts.seed, opts.count)
    };

    let mut engine = ClassificationEngine::new();
    engine.set_memoization(opts.memoize);
    let start = Instant::now();
    let results = if opts.sequential {
        engine.classify_batch_sequential(&problems)
    } else {
        engine.classify_batch(&problems)
    };
    let elapsed = start.elapsed();
    let stats = engine.stats();

    let mut histogram = ComplexityHistogram::default();
    for &c in &results {
        histogram.add(c, 1);
    }

    if opts.json {
        let out = Json::Obj(vec![
            ("count".into(), Json::int(problems.len())),
            ("delta".into(), Json::int(opts.delta)),
            ("labels".into(), Json::int(opts.labels)),
            (
                "mode".into(),
                Json::str(if opts.enumerate {
                    "enumerate"
                } else {
                    "random"
                }),
            ),
            ("parallel".into(), Json::Bool(!opts.sequential)),
            ("memoized".into(), Json::Bool(opts.memoize)),
            ("elapsed_ms".into(), Json::Num(elapsed.as_secs_f64() * 1e3)),
            ("cache_hits".into(), Json::int(stats.cache_hits)),
            ("cache_misses".into(), Json::int(stats.cache_misses)),
            (
                "histogram".into(),
                Json::Obj(
                    histogram
                        .entries()
                        .iter()
                        .map(|&(name, n)| (name.to_string(), Json::uint(n)))
                        .collect(),
                ),
            ),
            (
                "results".into(),
                Json::Arr(
                    problems
                        .iter()
                        .zip(&results)
                        .map(|(p, c)| {
                            Json::Obj(vec![
                                ("problem".into(), Json::str(p.to_text())),
                                ("complexity".into(), Json::str(c.short_name())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        outln!("{}", out.to_pretty());
    } else {
        outln!(
            "classified {} problems (δ={}, {} labels, {}) in {:.1} ms",
            problems.len(),
            opts.delta,
            opts.labels,
            if opts.enumerate {
                "enumerated".to_string()
            } else {
                format!("random, density {}", opts.density)
            },
            elapsed.as_secs_f64() * 1e3
        );
        outln!(
            "engine: {} ({}), cache hits {}, misses {}",
            if opts.sequential {
                "sequential"
            } else {
                "parallel"
            },
            if opts.memoize { "memoized" } else { "no memo" },
            stats.cache_hits,
            stats.cache_misses
        );
        for (name, n) in histogram.entries() {
            if n > 0 {
                outln!("{name:>12}: {n}");
            }
        }
    }
    ExitCode::SUCCESS
}

/// Sweep options as given on the command line. `delta`/`labels`/`shards`/
/// `engine` stay `None` unless the flag was actually passed, so `--resume`
/// can tell "defaulted" apart from "explicitly conflicting with the snapshot".
#[derive(Debug, Default)]
struct SweepOptions {
    delta: Option<usize>,
    labels: Option<usize>,
    shards: Option<usize>,
    engine: Option<EngineKind>,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    max_orbits: Option<u64>,
    resume: bool,
    json: bool,
}

fn parse_sweep_options(args: &[String]) -> Result<SweepOptions, String> {
    let mut opts = SweepOptions::default();
    let mut cur = FlagCursor::new(args);
    while let Some(arg) = cur.next_arg() {
        match arg.as_str() {
            "--delta" => opts.delta = Some(cur.parse_value("--delta")?),
            "--labels" => opts.labels = Some(cur.parse_value("--labels")?),
            "--shards" => opts.shards = Some(cur.parse_value("--shards")?),
            "--engine" => {
                opts.engine = Some(match cur.value("--engine")?.as_str() {
                    "bitsliced" => EngineKind::Bitsliced,
                    "scalar" => EngineKind::Scalar,
                    other => {
                        return Err(format!(
                            "unknown sweep engine `{other}` (expected `bitsliced` or `scalar`)"
                        ))
                    }
                })
            }
            "--checkpoint" => opts.checkpoint = Some(cur.value("--checkpoint")?.clone()),
            "--checkpoint-every" => {
                opts.checkpoint_every = Some(cur.parse_value("--checkpoint-every")?)
            }
            "--max-orbits" => opts.max_orbits = Some(cur.parse_value("--max-orbits")?),
            "--resume" => opts.resume = true,
            "--json" => opts.json = true,
            other => return Err(format!("unknown sweep option `{other}`")),
        }
    }
    if opts.labels == Some(0) || opts.delta == Some(0) || opts.shards == Some(0) {
        return Err("--labels, --delta, and --shards must be positive".into());
    }
    if opts.checkpoint_every == Some(0) {
        return Err("--checkpoint-every must be positive".into());
    }
    if opts.checkpoint_every.is_some() && opts.checkpoint.is_none() {
        return Err("--checkpoint-every requires --checkpoint".into());
    }
    if opts.max_orbits == Some(0) {
        return Err("--max-orbits must be positive".into());
    }
    if opts.max_orbits.is_some() && opts.checkpoint.is_none() {
        // A budgeted leg without a checkpoint would throw its progress away
        // on exit — there would be nothing to resume from.
        return Err("--max-orbits requires --checkpoint to store the partial campaign".into());
    }
    if opts.resume && opts.checkpoint.is_none() {
        return Err("--resume requires --checkpoint <file> to resume from".into());
    }
    Ok(opts)
}

/// A wall-time estimate in the largest sensible unit, for the sweep ETA line.
fn format_eta(secs: f64) -> String {
    if secs < 120.0 {
        format!("{secs:.1} s")
    } else if secs < 7200.0 {
        format!("{:.1} min", secs / 60.0)
    } else if secs < 48.0 * 3600.0 {
        format!("{:.1} h", secs / 3600.0)
    } else {
        format!("{:.1} days", secs / 86400.0)
    }
}

fn cmd_sweep(args: &[String]) -> ExitCode {
    let opts = match parse_sweep_options(args) {
        Ok(o) => o,
        Err(e) => return usage_error(e),
    };
    match run_sweep(&opts) {
        Ok(code) => code,
        Err(e) => fail(e),
    }
}

/// Prints the per-class table of a sweep's orbit and problem histograms,
/// skipping the classes with neither.
fn print_class_table(orbits: &ComplexityHistogram, problems: &ComplexityHistogram) {
    outln!("{:<12} {:>12} {:>12}", "class", "orbits", "problems");
    for (&(name, o), &(_, p)) in orbits.entries().iter().zip(problems.entries().iter()) {
        if o > 0 || p > 0 {
            outln!("{name:<12} {o:>12} {p:>12}");
        }
    }
}

/// Rejects a flag that was passed explicitly alongside `--resume` but
/// disagrees with what the snapshot recorded.
fn check_resume_conflict(flag: &str, given: Option<usize>, stored: usize) -> Result<(), String> {
    match given {
        Some(v) if v != stored => Err(format!(
            "{flag} {v} conflicts with the checkpoint's recorded value {stored}; \
             drop the flag or start a fresh campaign"
        )),
        _ => Ok(()),
    }
}

fn run_sweep(opts: &SweepOptions) -> Result<ExitCode, String> {
    let ckpt_path = opts.checkpoint.as_deref().map(Path::new);

    // With --resume the snapshot is authoritative for δ/labels/engine and the
    // shard split; explicitly conflicting flags are errors, omitted flags
    // inherit the stored values.
    let mut loaded: Option<SweepSnapshot> = None;
    if opts.resume {
        // parse_sweep_options rejects --resume without --checkpoint, but a
        // structured error beats an expect() here: new call sites of
        // run_sweep are not bound by that parser.
        let Some(path) = ckpt_path else {
            return Err("--resume requires --checkpoint <file> to resume from".into());
        };
        // A snapshot damaged on disk (torn write, bit rot) is quarantined and
        // the campaign restarts fresh; only a file that was never a snapshot
        // of ours (wrong magic/version) stays a hard error — renaming or
        // overwriting it could destroy unrelated data.
        match lcl_core::load_or_quarantine(path)
            .map_err(|e| format!("cannot resume from `{}`: {e}", path.display()))?
        {
            LoadOutcome::Loaded(snap) => {
                check_resume_conflict("--delta", opts.delta, snap.cursor.delta as usize)?;
                check_resume_conflict("--labels", opts.labels, snap.cursor.num_labels as usize)?;
                if let Some(engine) = opts.engine {
                    if engine != snap.cursor.engine {
                        return Err(format!(
                            "--engine {} conflicts with the checkpoint's `{}` engine; \
                             drop the flag or start a fresh campaign",
                            engine.name(),
                            snap.cursor.engine.name()
                        ));
                    }
                }
                if opts.shards.is_some() {
                    return Err(
                        "--shards conflicts with --resume: the checkpoint's shard split is \
                         authoritative"
                            .into(),
                    );
                }
                loaded = Some(*snap);
            }
            LoadOutcome::Quarantined { to, error } => {
                eprintln!(
                    "warning: checkpoint `{}` is damaged ({error}); quarantined it to `{}` \
                     and starting the campaign fresh",
                    path.display(),
                    to.display()
                );
            }
        }
    }
    let delta = loaded
        .as_ref()
        .map(|s| s.cursor.delta as usize)
        .or(opts.delta)
        .unwrap_or(2);
    let labels = loaded
        .as_ref()
        .map(|s| s.cursor.num_labels as usize)
        .or(opts.labels)
        .unwrap_or(2);
    let engine_kind = loaded
        .as_ref()
        .map(|s| s.cursor.engine)
        .or(opts.engine)
        .unwrap_or(EngineKind::Bitsliced);
    let family = CanonicalFamily::try_new(delta, labels)?;
    let engine = ClassificationEngine::new();

    // Empty shards are clamped away up front: the family only has
    // `family_size` masks, so more shards than mask ranges would leave
    // workers with nothing to do while still being reported as real shards.
    let requested_shards = opts.shards.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let ranges: Vec<MaskRange> = match &loaded {
        Some(snap) => snap.cursor.ranges.clone(),
        None => family.ranges(requested_shards),
    };
    let effective_shards = ranges.len();
    let clamped = !opts.resume && effective_shards != requested_shards;

    let resumed = loaded.is_some();
    let start = Instant::now();
    // Without --checkpoint the campaign runs in memory only. `completed` is
    // false only for a budgeted (--max-orbits) leg that ran out;
    // `masks_remaining` then counts the universe still unswept.
    let state = loaded
        .unwrap_or_else(|| SweepSnapshot::fresh(delta as u16, labels as u16, engine_kind, ranges));
    let ckpt = match ckpt_path {
        Some(path) => SweepCheckpoint {
            path: Some(path),
            every_orbits: opts.checkpoint_every.unwrap_or(4096),
            orbit_limit: opts.max_orbits,
        },
        None => SweepCheckpoint::default(),
    };
    let (snap, completed) = family
        .sweep(&engine, state, &ckpt)
        .map_err(|e| format!("sweep checkpointing failed: {e}"))?;
    let masks_remaining = snap.cursor.remaining_masks();
    let outcome = snap.outcome;
    let elapsed = start.elapsed();

    let orbit_count = outcome.orbits.total();
    let family_size = family.family_size();
    debug_assert!(!completed || outcome.problems.total() == family_size);

    if opts.json {
        let mut entries = vec![
            ("delta".into(), Json::int(delta)),
            ("labels".into(), Json::int(labels)),
            ("shards".into(), Json::int(effective_shards)),
        ];
        if clamped {
            entries.push(("shards_requested".into(), Json::int(requested_shards)));
        }
        entries.push(("engine".into(), Json::str(engine_kind.name())));
        if let Some(path) = &opts.checkpoint {
            entries.push(("checkpoint".into(), Json::str(path.as_str())));
            entries.push((
                "checkpoint_every".into(),
                Json::uint(opts.checkpoint_every.unwrap_or(4096)),
            ));
            entries.push(("resumed".into(), Json::Bool(resumed)));
            // `checkpoint_`-prefixed on purpose: CI's golden diff strips the
            // checkpoint-dependent keys by that prefix.
            entries.push(("checkpoint_complete".into(), Json::Bool(completed)));
            entries.push((
                "checkpoint_masks_remaining".into(),
                Json::uint(masks_remaining),
            ));
        }
        entries.extend([
            (
                "universe_configurations".into(),
                Json::int(family.universe_len()),
            ),
            ("family_size".into(), Json::int(family_size as usize)),
            ("canonical_orbits".into(), Json::int(orbit_count as usize)),
            ("elapsed_ms".into(), Json::Num(elapsed.as_secs_f64() * 1e3)),
        ]);
        if engine_kind == EngineKind::Bitsliced {
            // `lane_`-prefixed on purpose: CI's golden diffs strip the
            // engine/width-dependent keys by that prefix.
            entries.push(("lane_width".into(), Json::int(lcl_core::LANES)));
            entries.push((
                "lane_blocks".into(),
                Json::int(outcome.lanes.blocks as usize),
            ));
            entries.push((
                "lane_avg_live".into(),
                Json::Num(outcome.lanes.avg_live_lanes()),
            ));
            entries.push((
                "lane_scalar_fallbacks".into(),
                Json::int(outcome.lanes.scalar_fallbacks as usize),
            ));
        }
        entries.push(("orbits".into(), histogram_json(&outcome.orbits)));
        entries.push(("problems".into(), histogram_json(&outcome.problems)));
        outln!("{}", Json::Obj(entries).to_pretty());
    } else {
        if completed {
            outln!(
                "swept the complete (δ={}, {}-label) universe: {} problems in {} orbits, \
                 {} decisions in {:.1} ms ({} shards{}, {} engine)",
                delta,
                labels,
                family_size,
                orbit_count,
                engine.stats().cache_misses,
                elapsed.as_secs_f64() * 1e3,
                effective_shards,
                if clamped {
                    format!(" — clamped from {requested_shards}")
                } else {
                    String::new()
                },
                engine_kind.name()
            );
        } else {
            outln!(
                "sweep leg of the (δ={}, {}-label) universe stopped at the --max-orbits \
                 budget: {} of {} problems accounted in {} orbits so far, {} masks \
                 remaining ({:.1} ms, {} shards, {} engine)",
                delta,
                labels,
                outcome.problems.total(),
                family_size,
                orbit_count,
                masks_remaining,
                elapsed.as_secs_f64() * 1e3,
                effective_shards,
                engine_kind.name()
            );
            outln!("resume the campaign with: rtlcl sweep --checkpoint <file> --resume");
        }
        // Throughput of this leg (a resumed campaign's histograms span every
        // leg, but the engine stats count only this process's decisions).
        let leg_orbits = engine.stats().total() as u64;
        let orbits_per_sec = leg_orbits as f64 / elapsed.as_secs_f64().max(1e-9);
        outln!("throughput: {orbits_per_sec:.0} orbits/s this leg ({leg_orbits} orbits)");
        if !completed {
            let masks_done = family_size - masks_remaining;
            if masks_done > 0 && leg_orbits > 0 {
                // Orbit density so far extrapolates the orbits hiding in the
                // unswept masks; the leg's rate turns that into wall time.
                let est_remaining_orbits =
                    masks_remaining as f64 * orbit_count as f64 / masks_done as f64;
                outln!(
                    "ETA at this rate: {} (~{:.3e} orbits estimated in the {} masks remaining)",
                    format_eta(est_remaining_orbits / orbits_per_sec),
                    est_remaining_orbits,
                    masks_remaining
                );
            }
        }
        if let Some(path) = &opts.checkpoint {
            outln!(
                "checkpoint: {path} (every {} orbits{})",
                opts.checkpoint_every.unwrap_or(4096),
                if resumed { ", resumed" } else { "" }
            );
        }
        if engine_kind == EngineKind::Bitsliced {
            outln!(
                "lanes: {} blocks, {:.1} live lanes/round avg, {} scalar fallbacks",
                outcome.lanes.blocks,
                outcome.lanes.avg_live_lanes(),
                outcome.lanes.scalar_fallbacks
            );
        }
        print_class_table(&outcome.orbits, &outcome.problems);
        // Per-exponent breakdown of the pooled `poly` row.
        for (&(name, orbits), &(_, problems)) in outcome
            .orbits
            .poly_exponent_entries()
            .iter()
            .zip(outcome.problems.poly_exponent_entries().iter())
        {
            if orbits > 0 || problems > 0 {
                outln!("  {name:<10} {orbits:>12} {problems:>12}");
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn parse_serve_options(args: &[String]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    let mut cur = FlagCursor::new(args);
    while let Some(arg) = cur.next_arg() {
        match arg.as_str() {
            "--addr" => config.addr = cur.value("--addr")?.clone(),
            "--workers" => config.workers = cur.parse_value("--workers")?,
            "--queue" => config.queue_capacity = cur.parse_value("--queue")?,
            "--deadline-ms" => {
                config.deadline =
                    std::time::Duration::from_millis(cur.parse_value::<u64>("--deadline-ms")?)
            }
            "--read-timeout-ms" => {
                config.read_timeout =
                    std::time::Duration::from_millis(cur.parse_value::<u64>("--read-timeout-ms")?)
            }
            "--snapshot" => {
                config.snapshot_path = Some(std::path::PathBuf::from(cur.value("--snapshot")?))
            }
            "--debug-endpoints" => config.debug_endpoints = true,
            other => return Err(format!("unknown serve option `{other}`")),
        }
    }
    if config.workers == 0 || config.queue_capacity == 0 {
        return Err("--workers and --queue must be positive".into());
    }
    if config.deadline.is_zero() || config.read_timeout.is_zero() {
        return Err("--deadline-ms and --read-timeout-ms must be positive".into());
    }
    Ok(config)
}

/// Blocks until the process should shut down: SIGTERM/SIGINT on Unix; off
/// Unix there is no signal plumbing, so serve until the process is killed.
fn wait_for_shutdown() {
    #[cfg(unix)]
    {
        let shutdown = lcl_serve::signal::install_shutdown_handler();
        while !shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }
    #[cfg(not(unix))]
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `rtlcl serve`: run the resident daemon until SIGTERM/SIGINT, then drain
/// in-flight requests and flush the engine memo to the snapshot path.
fn cmd_serve(args: &[String]) -> ExitCode {
    let config = match parse_serve_options(args) {
        Ok(c) => c,
        Err(e) => return usage_error(e),
    };
    let snapshot_path = config.snapshot_path.clone();
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if let Some((to, error)) = &server.boot.quarantined {
        eprintln!(
            "warning: the snapshot file is damaged ({error}); quarantined it to `{}` \
             and booting cold",
            to.display()
        );
    }
    outln!("rtlcl serve: listening on http://{}", server.addr());
    match &snapshot_path {
        Some(path) => outln!(
            "snapshot: {} ({} memo entries warm at boot)",
            path.display(),
            server.boot.warm_memo_entries
        ),
        None => outln!("snapshot: none (the memo dies with the process)"),
    }

    wait_for_shutdown();
    outln!("shutdown requested; draining in-flight requests");
    let requests = server.state().metrics.requests.load(Ordering::Relaxed);
    let report = server.join();
    outln!("served {requests} requests");
    if let Some(e) = report.flush_error {
        return fail(format!(
            "snapshot flush failed: {e} (earlier snapshot, if any, is intact)"
        ));
    }
    if let Some(n) = report.flushed_entries {
        outln!(
            "flushed {n} memo entries to {}",
            snapshot_path
                .as_deref()
                .unwrap_or_else(|| Path::new("?"))
                .display()
        );
    }
    ExitCode::SUCCESS
}

/// `rtlcl snapshot info <file> [--json]`: header and progress of a checkpoint
/// file, validated exactly like a `--resume` load (magic, digest, version).
fn cmd_snapshot(args: &[String]) -> ExitCode {
    if args.first().map(String::as_str) != Some("info") {
        return usage_error("snapshot expects the `info` subcommand");
    }
    let (path, json) = match parse_operand("snapshot info", "snapshot file", true, &args[1..]) {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(e),
    };
    // The version comes from the file, which may predate the current format.
    let read = || -> Result<(SweepSnapshot, SnapshotLayout), lcl_core::SnapshotError> {
        SweepSnapshot::from_bytes_with_layout(&std::fs::read(path)?)
    };
    let (snap, layout) = match read() {
        Ok(v) => v,
        Err(e) => return fail(format!("cannot read snapshot `{path}`: {e}")),
    };
    let version = layout.version;
    let segments = format!(
        "file: {} checkpoint segment{}, {} torn tail bytes",
        layout.segments,
        if layout.segments == 1 { "" } else { "s" },
        layout.torn_tail_bytes
    );
    let delta = snap.cursor.delta as usize;
    let labels = snap.cursor.num_labels as usize;
    // Family size recomputed from the header, not stored: the universe size is
    // a pure function of (δ, labels), and 0 for a family no sweep admits.
    let family_size = family_universe_len(delta, labels).map_or(0, |u| 1u64 << u);
    let remaining = snap.cursor.remaining_masks();
    let done = family_size.saturating_sub(remaining);
    let complete = snap.cursor.is_complete();

    if json {
        let out = Json::Obj(vec![
            ("format_version".into(), Json::uint(version as u64)),
            ("segments".into(), Json::int(layout.segments)),
            ("torn_tail_bytes".into(), Json::int(layout.torn_tail_bytes)),
            ("delta".into(), Json::int(delta)),
            ("labels".into(), Json::int(labels)),
            ("engine".into(), Json::str(snap.cursor.engine.name())),
            ("shards".into(), Json::int(snap.cursor.ranges.len())),
            ("family_size".into(), Json::uint(family_size)),
            ("masks_done".into(), Json::uint(done)),
            ("masks_remaining".into(), Json::uint(remaining)),
            ("complete".into(), Json::Bool(complete)),
            ("memo_entries".into(), Json::int(snap.memo.len())),
            (
                "orbits_classified".into(),
                Json::uint(snap.outcome.orbits.total()),
            ),
            (
                "problems_accounted".into(),
                Json::uint(snap.outcome.problems.total()),
            ),
            ("orbits".into(), histogram_json(&snap.outcome.orbits)),
            ("problems".into(), histogram_json(&snap.outcome.problems)),
        ]);
        outln!("{}", out.to_pretty());
    } else if snap.cursor.ranges.is_empty() {
        // A memo-only flush (the serve daemon's snapshot): no campaign cursor,
        // just the canonical-form cache.
        outln!(
            "memo snapshot v{version}: {} canonical forms, no sweep campaign state",
            snap.memo.len()
        );
        outln!("{segments}");
    } else {
        outln!(
            "sweep snapshot v{version}: (δ={delta}, {labels}-label) universe, {} engine",
            snap.cursor.engine.name()
        );
        outln!("{segments}");
        outln!(
            "progress: {done}/{family_size} masks across {} shards{}",
            snap.cursor.ranges.len(),
            if complete {
                " (complete)".to_string()
            } else {
                format!(" ({remaining} remaining)")
            }
        );
        outln!(
            "memo: {} canonical forms; {} orbits classified covering {} problems",
            snap.memo.len(),
            snap.outcome.orbits.total(),
            snap.outcome.problems.total()
        );
        print_class_table(&snap.outcome.orbits, &snap.outcome.problems);
    }
    ExitCode::SUCCESS
}

struct SolveOptions {
    spec: String,
    nodes: usize,
    emit: Option<String>,
    baseline: bool,
    edits: Option<EditSpec>,
}

fn parse_solve_options(args: &[String]) -> Result<SolveOptions, String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut emit = None;
    let mut baseline = false;
    let mut edits = None;
    let mut nodes_flag: Option<usize> = None;
    let mut cur = FlagCursor::new(args);
    while let Some(arg) = cur.next_arg() {
        match arg.as_str() {
            "--emit-labeling" => emit = Some(cur.value("--emit-labeling")?.clone()),
            // Accepted for old command lines; every solve is flat.
            "--flat" => {}
            "--baseline" => baseline = true,
            "--edits" => edits = Some(cur.parse_value("--edits")?),
            "--nodes" => nodes_flag = Some(cur.parse_value("--nodes")?),
            other if other.starts_with("--") => {
                return Err(format!("unknown solve option `{other}`"))
            }
            _ => positional.push(arg),
        }
    }
    if edits.is_some() && baseline {
        return Err("--edits needs the class-optimal solver, not --baseline".into());
    }
    let (spec, nodes) = match (positional.as_slice(), nodes_flag) {
        ([spec, n], None) => {
            let n = n.parse().map_err(|e| format!("tree size `{n}`: {e}"))?;
            (spec.to_string(), n)
        }
        ([spec], Some(n)) => (spec.to_string(), n),
        ([_, n], Some(_)) => {
            return Err(format!(
                "tree size given both positionally (`{n}`) and via --nodes"
            ))
        }
        _ => return Err("solve expects a problem and a tree size (positional or --nodes)".into()),
    };
    Ok(SolveOptions {
        spec,
        nodes,
        emit,
        baseline,
        edits,
    })
}

/// Reports `error` on stderr and fails the command (exit 1).
fn fail(error: impl std::fmt::Display) -> ExitCode {
    eprintln!("{error}");
    ExitCode::FAILURE
}

/// Reports `error` and the usage on stderr and fails the command (exit 1).
fn usage_error(error: impl std::fmt::Display) -> ExitCode {
    eprintln!("{error}");
    usage()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  rtlcl catalog\n  rtlcl classify <file|name> [--json]\n  rtlcl explain <file|name>\n  rtlcl solve <file|name> <tree size | --nodes n> [--baseline] [--edits BxE[@seed]] [--emit-labeling path] [--flat (accepted, no effect)]\n  rtlcl classify-batch [--count n] [--labels k] [--delta d] [--density p] [--seed s] [--enumerate] [--sequential] [--no-memo] [--json]\n  rtlcl sweep [--delta d] [--labels k] [--shards n] [--engine bitsliced|scalar] [--checkpoint file] [--checkpoint-every n] [--max-orbits n] [--resume] [--json]\n  rtlcl serve [--addr host:port] [--workers n] [--queue n] [--deadline-ms n] [--read-timeout-ms n] [--snapshot file] [--debug-endpoints]\n  rtlcl snapshot info <file> [--json]\n  rtlcl verify <file|name> <labeling-file> [--tree random|balanced|hairy] [--nodes n] [--seed s] [--edits BxE[@seed]] [--json]\n  rtlcl fuzz [--iters n] [--seed s] [--json]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("catalog") => cmd_catalog(),
        Some(cmd @ ("classify" | "explain")) => {
            let operand = "problem file or catalog name";
            match parse_operand(cmd, operand, cmd == "classify", &args[1..]) {
                Ok((spec, json)) if cmd == "classify" => cmd_classify(spec, json),
                Ok((spec, _)) => cmd_explain(spec),
                Err(e) => usage_error(e),
            }
        }
        Some("solve") => match parse_solve_options(&args[1..]) {
            Ok(opts) => cmd_solve(&opts),
            Err(e) => usage_error(e),
        },
        Some("classify-batch") => cmd_classify_batch(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        _ => usage(),
    }
}
