//! `classify-serve`: a closed loop of `/classify` requests against an
//! in-process daemon.
//!
//! A run is a sequence of rounds. Each round starts the daemon (`Server`,
//! two workers), which warm-boots from a memo snapshot of the whole (δ=2,
//! 3-label) universe as a restarted production daemon would — the set-up
//! sample — and then serves [`REQUESTS_PER_ROUND`] requests: two client
//! threads, each with one keep-alive-capable connection, take requests in
//! order from the round's seeded stream and send the next only when the
//! previous answered. The stream mixes four kinds in fixed shares per block
//! of [`BLOCK`] requests (assumed shares, see `BLOCK_KINDS`):
//!
//! * 3-label problems from the committed pool — warm-memo hits;
//! * 4-label pool problems sent fresh — memo misses — and, [`RENAME_LAG`]
//!   blocks later, the same problem with its labels renamed and its lines
//!   reordered — hits;
//! * catalog names;
//! * catalog names with `"report": true`, which build certificates and are
//!   never cached.
//!
//! A request whose verdict depends on an earlier one (a renamed copy, a
//! repeated catalog name) waits until that one answered, so memo hits and
//! misses are exact counts for a seed whatever the interleaving.
//!
//! The traced pass adds an in-process replay of the same stream: one fresh
//! warm-booted `ServeState::handle` per request, and beside it the same
//! request taken apart into the daemon's layers through their public
//! functions (JSON body parse, `catalog::by_name` + `parse`, engine
//! classify, render), each under its own span.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lcl_core::{
    canonical_form, ClassificationEngine, Complexity, EngineKind, LaneWidth, LclProblem,
};
use lcl_core::{SweepCheckpoint, SweepSnapshot};
use lcl_problems::canonical::CanonicalFamily;
use lcl_problems::catalog::{self, ExpectedComplexity};
use lcl_rand::SplitMix64;
use lcl_serve::json::{self, Json};
use lcl_serve::{report_to_json, Request, Response, ServeConfig, ServeState, Server};

use crate::http_client::KeepAliveClient;
use crate::report::{median_s, RunConfig, WorkDir};
use crate::trace::Tracer;
use crate::verdict::{load_pool, pool_path, problem_text, Pool};
use crate::{median_ns, LayerMetrics, Pass};

/// Requests of one round: one daemon start, then this many requests.
pub const REQUESTS_PER_ROUND: usize = 1024;
/// Rounds per nominal second of run length.
pub const ROUNDS_PER_SECOND: f64 = 3.0;
/// Requests per block; each block holds every kind in its fixed share.
pub const BLOCK: usize = 16;
/// Kinds of one block, before the seeded shuffle: 8 warm 3-label, 2 fresh
/// 4-label, 2 renamed copies, 2 catalog names, 2 reports. The shares are an
/// assumption, not recorded traffic; `README.md` gives the reasoning for each.
const BLOCK_KINDS: [Kind; BLOCK] = [
    Kind::Warm,
    Kind::Warm,
    Kind::Warm,
    Kind::Warm,
    Kind::Warm,
    Kind::Warm,
    Kind::Warm,
    Kind::Warm,
    Kind::Fresh,
    Kind::Fresh,
    Kind::Renamed,
    Kind::Renamed,
    Kind::Catalog,
    Kind::Catalog,
    Kind::Report,
    Kind::Report,
];
/// Blocks between a fresh 4-label problem and its renamed copy. The first
/// blocks' renamed slots rename warm 3-label problems instead.
pub const RENAME_LAG: usize = 4;
/// Concurrent client connections (and daemon workers).
const CLIENTS: usize = 2;
/// Warm-boot repetitions whose median is `serve.warm_boot_s`.
const WARM_BOOT_REPEATS: usize = 5;
/// Per-request socket timeout; a request that exceeds it counts as failed.
const TIMEOUT: Duration = Duration::from_secs(10);
/// Catalog problems the stream names (δ=2 and δ=3 entries of every class;
/// the Π_k family above k = 2 is left out for its report size).
/// Reports are asked for the [`REPORTED`] ones only.
const CATALOG: [&str; 10] = [
    "3-coloring",
    "2-coloring",
    "4-coloring",
    "mis",
    "mis-ternary",
    "branch-2-coloring",
    "figure-2-combination",
    "unsolvable",
    "both-colors-below",
    "pi-2",
];
/// Indices into [`CATALOG`] of the problems whose full report is asked for:
/// one constant (`mis-ternary`, whose certificate search takes about 1 ms and
/// sets the tail), two log* and one polynomial certificate. Four problems in
/// an eighth of the traffic give each about 3% of it, so `op_p99_us` falls
/// inside one kind of request instead of on the edge between two.
const REPORTED: [usize; 4] = [4, 9, 2, 0];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Warm,
    Fresh,
    Renamed,
    Catalog,
    Report,
}

/// One request of the stream.
#[derive(Debug, Clone)]
pub struct Item {
    kind: Kind,
    /// The JSON body sent.
    pub body: String,
    /// The problem spec inside the body (catalog name or text).
    spec: String,
    /// Whether the body asks for the full report.
    report: bool,
    /// The verdict the response must carry.
    expected: Complexity,
    /// Earlier request this one's memo outcome depends on.
    after: Option<usize>,
    /// Earlier request whose answer this one must repeat (renamed copies).
    same_as: Option<usize>,
}

fn expected_of(e: ExpectedComplexity) -> Complexity {
    match e {
        ExpectedComplexity::Constant => Complexity::Constant,
        ExpectedComplexity::LogStar => Complexity::LogStar,
        ExpectedComplexity::Log => Complexity::Log,
        ExpectedComplexity::Polynomial(k) => Complexity::Polynomial { exponent: k },
        ExpectedComplexity::Unsolvable => Complexity::Unsolvable,
    }
}

fn body_of(spec: &str, report: bool) -> String {
    let mut fields = vec![("problem".to_string(), Json::str(spec))];
    if report {
        fields.push(("report".into(), Json::Bool(true)));
    }
    Json::Obj(fields).to_compact()
}

/// Builds the seeded request stream of `n` requests (rounded up to whole
/// blocks).
pub fn stream(pool: &Pool, seed: u64, n: usize) -> Result<Vec<Item>, String> {
    let blocks = n.div_ceil(BLOCK);
    let fresh_needed = blocks * 2;
    if fresh_needed > pool.four.len() {
        return Err(format!(
            "{fresh_needed} fresh 4-label problems needed, the pool has {}",
            pool.four.len()
        ));
    }
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5E4E_C1A5);
    let fam3 = CanonicalFamily::new(2, 3);
    let fam4 = CanonicalFamily::new(2, 4);
    let mut four: Vec<usize> = (0..pool.four.len()).collect();
    rng.shuffle(&mut four);
    let mut next_four = four.into_iter();
    let identity3 = ["l0", "l1", "l2"];
    let identity4 = ["l0", "l1", "l2", "l3"];
    let renames: [&str; 4] = ["x", "y", "z", "w"];
    let catalog_expected: Vec<(&str, Complexity)> = CATALOG
        .iter()
        .map(|&name| {
            let entry = catalog::by_name(name).expect("listed catalog names exist");
            (name, expected_of(entry.expected))
        })
        .collect();
    let mut first_catalog: Vec<Option<usize>> = vec![None; CATALOG.len()];
    // Catalog names in equal shares per kind, in a seeded order, so every
    // round asks for the same mix of cheap and costly reports.
    let balanced = |rng: &mut SplitMix64, names: &[usize]| {
        let mut picks: Vec<usize> = (0..blocks * 2).map(|i| names[i % names.len()]).collect();
        rng.shuffle(&mut picks);
        picks.into_iter()
    };
    let all: Vec<usize> = (0..CATALOG.len()).collect();
    let mut catalog_names = balanced(&mut rng, &all);
    let mut report_names = balanced(&mut rng, &REPORTED);
    // Fresh 4-label requests per block, for the renamed copies RENAME_LAG
    // blocks later.
    let mut fresh_at: Vec<Vec<(usize, u64, Complexity)>> = Vec::with_capacity(blocks);
    let mut items = Vec::with_capacity(blocks * BLOCK);
    let shuffled_order = |rng: &mut SplitMix64, mask: u64| {
        let mut order: Vec<usize> = (0..mask.count_ones() as usize).collect();
        rng.shuffle(&mut order);
        order
    };
    for b in 0..blocks {
        let mut kinds = BLOCK_KINDS;
        rng.shuffle(&mut kinds);
        let mut fresh_here = Vec::new();
        let mut renamed_slot = 0;
        for kind in kinds {
            let pos = items.len();
            let item = match kind {
                Kind::Warm => {
                    let (mask, verdict) = pool.three[rng.gen_index(pool.three.len())];
                    let order = shuffled_order(&mut rng, mask);
                    let spec = problem_text(&fam3, mask, &identity3, &order);
                    Item {
                        kind,
                        body: body_of(&spec, false),
                        spec,
                        report: false,
                        expected: verdict,
                        after: None,
                        same_as: None,
                    }
                }
                Kind::Fresh => {
                    let (mask, verdict) = pool.four[next_four.next().expect("pool size checked")];
                    fresh_here.push((pos, mask, verdict));
                    let order: Vec<usize> = (0..mask.count_ones() as usize).collect();
                    let spec = problem_text(&fam4, mask, &identity4, &order);
                    Item {
                        kind,
                        body: body_of(&spec, false),
                        spec,
                        report: false,
                        expected: verdict,
                        after: None,
                        same_as: None,
                    }
                }
                Kind::Renamed => {
                    let source = b
                        .checked_sub(RENAME_LAG)
                        .map(|earlier| fresh_at[earlier][renamed_slot]);
                    renamed_slot += 1;
                    let (spec, expected, after) = match source {
                        Some((orig, mask, verdict)) => {
                            let mut names = renames;
                            rng.shuffle(&mut names);
                            let order = shuffled_order(&mut rng, mask);
                            (
                                problem_text(&fam4, mask, &names, &order),
                                verdict,
                                Some(orig),
                            )
                        }
                        None => {
                            let (mask, verdict) = pool.three[rng.gen_index(pool.three.len())];
                            let mut names = [renames[0], renames[1], renames[2]];
                            rng.shuffle(&mut names);
                            let order = shuffled_order(&mut rng, mask);
                            (problem_text(&fam3, mask, &names, &order), verdict, None)
                        }
                    };
                    Item {
                        kind,
                        body: body_of(&spec, false),
                        spec,
                        report: false,
                        expected,
                        after,
                        same_as: after,
                    }
                }
                Kind::Catalog | Kind::Report => {
                    let names = if kind == Kind::Report {
                        &mut report_names
                    } else {
                        &mut catalog_names
                    };
                    let c = names.next().expect("two of each per block");
                    let (name, expected) = catalog_expected[c];
                    let after = first_catalog[c];
                    if after.is_none() {
                        first_catalog[c] = Some(pos);
                    }
                    let report = kind == Kind::Report;
                    Item {
                        kind,
                        body: body_of(name, report),
                        spec: name.to_string(),
                        report,
                        expected,
                        after,
                        same_as: None,
                    }
                }
            };
            items.push(item);
        }
        fresh_at.push(fresh_here);
    }
    Ok(items)
}

/// One answered (or failed) request of the closed loop.
struct Answer {
    pos: usize,
    rt_ns: u64,
    /// `complexity` of a 2xx response; `None` when the request failed.
    verdict: Option<String>,
}

/// Sends one round's stream over `CLIENTS` connections; returns every answer
/// and the connections opened.
fn closed_loop(
    addr: SocketAddr,
    items: &[Item],
    round: usize,
    tr: &mut Tracer,
) -> (Vec<Answer>, u64) {
    let next = AtomicUsize::new(0);
    let done: Vec<AtomicBool> = items.iter().map(|_| AtomicBool::new(false)).collect();
    let origin = Instant::now();
    let trace_on = tr.on();
    let per_thread: Vec<(Vec<Answer>, u64, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (next, done) = (&next, &done);
                scope.spawn(move || {
                    let mut client = KeepAliveClient::new(addr, TIMEOUT);
                    let mut ttr = Tracer::new(trace_on, origin);
                    let mut answers = Vec::new();
                    loop {
                        let pos = next.fetch_add(1, Ordering::SeqCst);
                        let Some(item) = items.get(pos) else { break };
                        if let Some(dep) = item.after {
                            while !done[dep].load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                        }
                        let sent = Instant::now();
                        let span = ttr.begin("serve.round_trip", op_id(round, pos));
                        let response = client.post("/classify", &item.body);
                        ttr.end(span);
                        let rt_ns = sent.elapsed().as_nanos() as u64;
                        done[pos].store(true, Ordering::SeqCst);
                        let verdict = match response {
                            Ok(r) if (200..300).contains(&r.status) => {
                                Some(verdict_of(&r.body).unwrap_or_default())
                            }
                            _ => None,
                        };
                        answers.push(Answer {
                            pos,
                            rt_ns,
                            verdict,
                        });
                    }
                    (answers, client.connections_opened(), ttr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut answers = Vec::with_capacity(items.len());
    let mut connections = 0;
    for (a, c, ttr) in per_thread {
        answers.extend(a);
        connections += c;
        tr.absorb(ttr);
    }
    answers.sort_by_key(|a| a.pos);
    (answers, connections)
}

/// The operation id of request `pos` of a round.
fn op_id(round: usize, pos: usize) -> u64 {
    (round * REQUESTS_PER_ROUND + pos) as u64
}

/// The `complexity` string of a response body.
fn verdict_of(body: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    let value = json::parse(text).ok()?;
    value.get("complexity")?.as_str().map(str::to_string)
}

/// The warm-boot snapshot: the whole (δ=2, 3-label) universe swept on the
/// bit-sliced path, its memo written to `path`.
fn write_warm_snapshot(path: &std::path::Path) -> Result<usize, String> {
    let family = CanonicalFamily::new(2, 3);
    let universe = family.sliced_universe();
    let engine = ClassificationEngine::new();
    let width = LaneWidth::default();
    let state = SweepSnapshot::fresh(2, 3, EngineKind::Bitsliced, family.ranges(CLIENTS));
    let ckpt = SweepCheckpoint {
        path: None,
        every_orbits: u64::MAX,
        orbit_limit: None,
    };
    engine
        .sweep_resumable_bitsliced(
            &universe,
            width,
            state,
            |r| family.blocks_in(r, width.lanes()),
            |mask| family.problem_at(mask),
            |mask| family.canonical_key_of(mask),
            &ckpt,
        )
        .map_err(|e| format!("warm-up sweep: {e}"))?;
    engine
        .save_memo(path)
        .map_err(|e| format!("writing the warm snapshot: {e}"))
}

fn config(snapshot: &std::path::Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: CLIENTS,
        snapshot_path: Some(snapshot.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// One pass of the workload.
pub fn pass(cfg: &RunConfig, tr: &mut Tracer) -> Result<Pass, String> {
    let pool = load_pool(&pool_path())?;
    let rounds = cfg.work(ROUNDS_PER_SECOND, 2);
    let dir = WorkDir::new("serve").map_err(|e| format!("work dir: {e}"))?;
    // The daemon flushes its memo to `snapshot` on shutdown; every round
    // boots from a fresh copy of `pristine`.
    let snapshot = dir.path().join("warm.snap");
    let pristine = dir.path().join("pristine.snap");
    let warm_entries = write_warm_snapshot(&pristine)?;

    let mut out = Pass::default();
    let mut kinds = [0u64; 5];
    let (mut hits, mut misses, mut served, mut ok, mut connections) = (0, 0, 0, 0, 0);
    for round in 0..rounds {
        let items = stream(&pool, cfg.seed ^ ((round as u64) << 32), REQUESTS_PER_ROUND)?;
        std::fs::copy(&pristine, &snapshot).map_err(|e| format!("copying the snapshot: {e}"))?;
        // Set-up: daemon start including the warm boot.
        let t = Instant::now();
        let server = Server::start(config(&snapshot)).map_err(|e| e.to_string())?;
        out.setup.push(t.elapsed());
        if server.boot.warm_memo_entries != warm_entries {
            return Err(format!(
                "warm boot imported {} entries, the snapshot holds {warm_entries}",
                server.boot.warm_memo_entries
            ));
        }
        let loop_start = Instant::now();
        let (answers, opened) = closed_loop(server.addr(), &items, round, tr);
        let wall_ns = loop_start.elapsed().as_nanos() as u64;
        let state = server.state().clone();
        let stats = state.engine.stats();
        hits += stats.cache_hits as u64;
        misses += stats.cache_misses as u64;
        served += state.metrics.requests.load(Ordering::Relaxed);
        ok += state.metrics.ok.load(Ordering::Relaxed);
        connections += opened;
        drop(state);
        let _ = server.join();

        out.attempted += items.len() as u64;
        out.wall_ns += wall_ns;
        for a in &answers {
            let item = &items[a.pos];
            kinds[item.kind as usize] += 1;
            out.op_ns.push(a.rt_ns);
            let Some(got) = &a.verdict else {
                out.failed += 1;
                continue;
            };
            out.work += 1;
            out.check(*got == item.expected.to_string(), || {
                format!(
                    "round {round}, request {}: got {got}, expected {} for {}",
                    a.pos, item.expected, item.spec
                )
            });
            if let Some(orig) = item.same_as {
                if let Some(first) = &answers[orig].verdict {
                    out.check(got == first, || {
                        format!(
                            "request {}: renamed copy got {got}, its original {first}",
                            a.pos
                        )
                    });
                }
            }
        }
        if tr.on() {
            replay(&pristine, &items, round, tr, &mut out)?;
        }
    }
    out.count("rounds", rounds as u64);
    out.count("requests", out.attempted);
    out.count("requests_warm", kinds[Kind::Warm as usize]);
    out.count("requests_fresh", kinds[Kind::Fresh as usize]);
    out.count("requests_renamed", kinds[Kind::Renamed as usize]);
    out.count("requests_catalog", kinds[Kind::Catalog as usize]);
    out.count("requests_report", kinds[Kind::Report as usize]);
    out.count("memo_hits", hits);
    out.count("memo_misses", misses);
    out.count("responses_2xx", ok);
    out.count("served", served);
    out.count("warm_memo_entries", warm_entries as u64);

    if tr.on() {
        let mut layer = LayerMetrics::default();
        layer.set("serve.connections_opened", connections as f64);
        layer.set("serve.non_2xx", served.saturating_sub(ok) as f64);
        layer.set(
            "core.memo_hit_share",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layer.set("serve.warm_boot_s", warm_boot_s(&pristine)?);
        let handle = median_ns(&tr.durations("serve.handle"));
        let round_trip = median_ns(&tr.durations("serve.round_trip"));
        layer.set("serve.handle_us", handle / 1e3);
        layer.set("serve.transport_us", (round_trip - handle) / 1e3);
        for (metric, span) in [
            ("serve.load_problem_us", "serve.load_problem"),
            ("serve.render_us", "serve.render"),
            ("core.parse_us", "core.parse"),
            ("core.canonical_form_us", "core.canonical_form"),
            ("core.classify_hit_us", "core.classify_hit"),
            ("core.classify_miss_us", "core.classify_miss"),
            ("core.classify_full_us", "core.classify_full"),
        ] {
            layer.set(metric, median_ns(&tr.durations(span)) / 1e3);
        }
        out.layer = layer;
    }
    Ok(out)
}

/// Median time of the warm boot alone: snapshot load plus memo import.
fn warm_boot_s(snapshot: &std::path::Path) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(WARM_BOOT_REPEATS);
    for _ in 0..WARM_BOOT_REPEATS {
        let engine = ClassificationEngine::new();
        let t = Instant::now();
        engine
            .warm_boot(snapshot)
            .map_err(|e| format!("warm boot: {e}"))?;
        samples.push(t.elapsed());
    }
    Ok(median_s(&samples))
}

/// The traced in-process replay: per request, `ServeState::handle` on a
/// warm-booted state, then the same request taken apart into the daemon's
/// layers on a second warm-booted engine, then `canonical_form` alone.
///
/// The layer-by-layer copy mirrors `ServeState::classify` and
/// `load_problem` in `crates/lcl-serve/src/state.rs`, which are private.
/// Its response bytes must equal those `ServeState::handle` returned for the
/// same request, or the run fails.
fn replay(
    snapshot: &std::path::Path,
    items: &[Item],
    round: usize,
    tr: &mut Tracer,
    out: &mut Pass,
) -> Result<(), String> {
    let boot = || -> Result<ClassificationEngine, String> {
        let engine = ClassificationEngine::new();
        engine
            .warm_boot(snapshot)
            .map_err(|e| format!("warm boot: {e}"))?;
        Ok(engine)
    };
    let state = ServeState::new(config(snapshot), boot()?);
    let engine = boot()?;
    let far = Instant::now() + Duration::from_secs(3600);
    for (pos, item) in items.iter().enumerate() {
        let op_id = op_id(round, pos);
        let request = Request {
            method: "POST".into(),
            path: "/classify".into(),
            body: item.body.clone().into_bytes(),
        };
        let response = tr.span("serve.handle", op_id, || state.handle(&request, far));
        out.check(response.status == 200, || {
            format!("replayed request {pos} answered {}", response.status)
        });

        let op = tr.begin("op", op_id);
        let body = tr.span("serve.parse_body", op_id, || {
            json::parse(std::str::from_utf8(&request.body).unwrap_or_default())
        });
        let spec = body
            .ok()
            .and_then(|b| b.get("problem").and_then(Json::as_str).map(str::to_string))
            .unwrap_or_default();
        let load = tr.begin("serve.load_problem", op_id);
        let problem: Option<LclProblem> = match catalog::by_name(&spec) {
            Some(entry) => Some(entry.problem),
            None => tr.span("core.parse", op_id, || spec.parse::<LclProblem>().ok()),
        };
        tr.end(load);
        let Some(problem) = problem else {
            tr.end(op);
            out.check(false, || {
                format!("replayed request {pos}: unparseable problem")
            });
            continue;
        };
        let bytes = if item.report {
            let report = tr.span("core.classify_full", op_id, || {
                engine.classify_full(&problem)
            });
            tr.span("serve.render", op_id, || {
                Response::ok(report_to_json(&report)).to_bytes()
            })
        } else {
            let before = engine.stats().cache_hits;
            let span = tr.begin("core.classify", op_id);
            let complexity = engine.classify(&problem);
            let hit = engine.stats().cache_hits > before;
            tr.end_as(
                span,
                if hit {
                    "core.classify_hit"
                } else {
                    "core.classify_miss"
                },
            );
            tr.span("serve.render", op_id, || {
                Response::ok(Json::Obj(vec![
                    ("problem".into(), Json::str(problem.to_text())),
                    ("complexity".into(), Json::str(complexity.to_string())),
                    (
                        "complexity_short".into(),
                        Json::str(complexity.short_name()),
                    ),
                ]))
                .to_bytes()
            })
        };
        tr.end(op);
        // The replay mirrors the handler's private `/classify` path; if the
        // two drift apart, the per-layer figures no longer time the handler.
        out.check(bytes == response.to_bytes(), || {
            format!(
                "replayed request {pos}: the layer-by-layer replay rendered other bytes than ServeState::handle for {}",
                item.spec
            )
        });
        let key = tr.span("core.canonical_form", op_id, || canonical_form(&problem));
        std::hint::black_box(key);
    }
    Ok(())
}
