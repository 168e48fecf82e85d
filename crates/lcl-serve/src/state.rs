//! The daemon's resident state and request dispatch: one warm
//! [`ClassificationEngine`], per-family sweep campaigns, and the metrics the
//! `/stats` endpoint reports.
//!
//! Dispatch ([`ServeState::handle`]) is a pure request → [`Response`]
//! function over that state. Every failure mode is a structured JSON error
//! with the right status code; nothing in here is allowed to take the daemon
//! down — the worker loop additionally wraps `handle` in `catch_unwind`, so
//! even a panic (a bug, or the `/debug/panic` test endpoint) burns only the
//! one request.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::http::{Request, Response};
use crate::json::{self, Json};
use crate::render::{histogram_json, report_to_json};
use lcl_algorithms::{resolve_full, RepairScratch, SolveError};
use lcl_core::{ClassificationEngine, EngineKind, LclProblem, SweepCheckpoint, SweepSnapshot};
use lcl_problems::canonical::CanonicalFamily;
use lcl_problems::catalog;
use lcl_rand::SplitMix64;
use lcl_sim::IdAssignment;
use lcl_trees::{DynamicTree, EditScriptGen, FlatTree};
use lcl_verify::{solve_checked, CheckedSolve, EditError, EditSession, SolveCheckError};

/// Everything the daemon's behavior is parameterized on. The defaults are
/// production-shaped; tests tighten them to provoke the failure paths.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7421`.
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Accepted connections waiting for a worker. Arrivals beyond this are
    /// shed with `503` — the bounded-memory contract.
    pub queue_capacity: usize,
    /// Request line + header size cap (`431` beyond).
    pub max_header_bytes: usize,
    /// Body size cap (`413` beyond).
    pub max_body_bytes: usize,
    /// Budget for reading one full request off the socket (slowloris bound).
    pub read_timeout: Duration,
    /// Budget for writing one response.
    pub write_timeout: Duration,
    /// Compute budget per request, measured from the moment a worker picks it
    /// up. Work that would overrun answers `503` with `Retry-After`.
    pub deadline: Duration,
    /// Maximum problems in one `classify-batch` request.
    pub max_batch: usize,
    /// Maximum tree size one `solve` request may ask for.
    pub max_solve_nodes: usize,
    /// Maximum edits in one `/edit` batch request.
    pub max_edit_batch: usize,
    /// Default orbit budget of one `sweep` leg when the request names none.
    pub default_leg_orbits: u64,
    /// Hard cap on one `sweep` leg's orbit budget.
    pub max_leg_orbits: u64,
    /// Engine-memo snapshot: warm-boot source at startup, flush target on
    /// shutdown and `/flush`. `None` disables persistence.
    pub snapshot_path: Option<PathBuf>,
    /// Enables `/debug/panic` (panic-isolation testing only).
    pub debug_endpoints: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7421".into(),
            workers: 4,
            queue_capacity: 64,
            max_header_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            deadline: Duration::from_secs(10),
            max_batch: 4096,
            max_solve_nodes: 1_000_000,
            max_edit_batch: 4096,
            default_leg_orbits: 65_536,
            max_leg_orbits: 1 << 20,
            snapshot_path: None,
            debug_endpoints: false,
        }
    }
}

/// Monotonic counters behind `/stats`. Plain relaxed atomics: the numbers are
/// operational telemetry, not synchronization.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests a worker started processing: a connection's first request
    /// counts when a worker picks the connection up, each later one when its
    /// first byte arrives.
    pub requests: AtomicU64,
    /// Connections a worker picked up from the queue; `requests /
    /// connections` is the mean number of requests per connection.
    pub connections: AtomicU64,
    /// `2xx` responses.
    pub ok: AtomicU64,
    /// `4xx` responses (malformed input, unknown routes, oversized requests).
    pub client_errors: AtomicU64,
    /// `5xx` responses other than shed/deadline (panics, snapshot failures).
    pub server_errors: AtomicU64,
    /// Connections shed at the accept queue (`503 Retry-After`).
    pub shed: AtomicU64,
    /// Requests whose compute deadline expired (`503`).
    pub deadline_exceeded: AtomicU64,
    /// Requests that timed out while being read (`408`, slowloris defense).
    pub read_timeouts: AtomicU64,
    /// Worker panics caught and converted to `500`.
    pub panics: AtomicU64,
}

impl Metrics {
    /// Classifies a finished response into the status-class counters.
    pub fn record_response(&self, status: u16) {
        match status {
            200..=299 => self.ok.fetch_add(1, Ordering::Relaxed),
            408 => {
                self.read_timeouts.fetch_add(1, Ordering::Relaxed);
                self.client_errors.fetch_add(1, Ordering::Relaxed)
            }
            400..=499 => self.client_errors.fetch_add(1, Ordering::Relaxed),
            _ => self.server_errors.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// The resident dynamic-tree session behind `/edit`: one solved tree whose
/// labeling is repaired incrementally as edit batches arrive. Initializing a
/// new session replaces the old one.
struct EditSlot {
    session: EditSession,
    /// Growth target the edit generator steers the tree size toward.
    target_nodes: usize,
    batches: u64,
    edits_applied: u64,
}

/// One family's sweep campaign, keyed by `(δ, |Σ|)` in [`ServeState::sweeps`].
enum SweepSlot {
    /// Campaign state between legs.
    Idle(Box<SweepSnapshot>),
    /// A leg is running right now; concurrent requests get `409`.
    Running,
}

/// The daemon's resident state: configuration, the warm engine, per-family
/// sweep campaigns, and metrics.
pub struct ServeState {
    /// The daemon's configuration (immutable once started).
    pub config: ServeConfig,
    /// The one warm engine every request shares.
    pub engine: ClassificationEngine,
    /// `/stats` counters.
    pub metrics: Metrics,
    started: Instant,
    sweeps: Mutex<HashMap<(u16, u16), SweepSlot>>,
    edit_session: Mutex<Option<Box<EditSlot>>>,
}

impl ServeState {
    /// Fresh state around a (possibly warm-booted) engine.
    pub fn new(config: ServeConfig, engine: ClassificationEngine) -> Self {
        ServeState {
            config,
            engine,
            metrics: Metrics::default(),
            started: Instant::now(),
            sweeps: Mutex::new(HashMap::new()),
            edit_session: Mutex::new(None),
        }
    }

    /// Dispatches one request. `deadline` is the request's compute budget
    /// (already running — the worker set it when it picked the request up).
    ///
    /// # Panics
    ///
    /// `POST /debug/panic` (when [`ServeConfig::debug_endpoints`] is on)
    /// panics on purpose; the worker loop's `catch_unwind` is the boundary
    /// that turns it — and any genuine bug — into a `500`.
    pub fn handle(&self, req: &Request, deadline: Instant) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/stats") => self.stats(),
            ("POST", "/classify") => self.classify(req),
            ("POST", "/classify-batch") => self.classify_batch(req, deadline),
            ("POST", "/solve") => self.solve(req),
            ("POST", "/edit") => self.edit(req, deadline),
            ("POST", "/sweep") => self.sweep(req),
            ("POST", "/flush") => self.flush(),
            ("POST", "/debug/panic") if self.config.debug_endpoints => {
                panic!("deliberate panic requested via /debug/panic")
            }
            (_, "/healthz" | "/stats") => method_not_allowed("GET"),
            (
                _,
                "/classify" | "/classify-batch" | "/solve" | "/edit" | "/sweep" | "/flush"
                | "/debug/panic",
            ) => method_not_allowed("POST"),
            _ => Response::error(404, "not_found", format!("no route for `{}`", req.path)),
        }
    }

    fn healthz(&self) -> Response {
        Response::ok(Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            (
                "uptime_ms".into(),
                Json::uint(self.started.elapsed().as_millis() as u64),
            ),
        ]))
    }

    fn stats(&self) -> Response {
        let stats = self.engine.stats();
        let m = &self.metrics;
        let sweeps = self.sweeps.lock().expect("sweep slots poisoned");
        let campaigns: Vec<Json> = {
            let mut keys: Vec<&(u16, u16)> = sweeps.keys().collect();
            keys.sort();
            keys.iter()
                .map(|&&(delta, labels)| {
                    let (state, remaining) = match &sweeps[&(delta, labels)] {
                        SweepSlot::Running => ("running", None),
                        SweepSlot::Idle(snap) => ("idle", Some(snap.cursor.remaining_masks())),
                    };
                    let mut obj = vec![
                        ("delta".into(), Json::int(delta as usize)),
                        ("labels".into(), Json::int(labels as usize)),
                        ("state".into(), Json::str(state)),
                    ];
                    if let Some(r) = remaining {
                        obj.push(("masks_remaining".into(), Json::uint(r)));
                    }
                    Json::Obj(obj)
                })
                .collect()
        };
        let counter = |a: &AtomicU64| Json::uint(a.load(Ordering::Relaxed));
        Response::ok(Json::Obj(vec![
            (
                "uptime_ms".into(),
                Json::uint(self.started.elapsed().as_millis() as u64),
            ),
            ("cache_hits".into(), Json::int(stats.cache_hits)),
            ("cache_misses".into(), Json::int(stats.cache_misses)),
            ("memo_entries".into(), Json::int(self.engine.memo_len())),
            ("requests".into(), counter(&m.requests)),
            ("connections".into(), counter(&m.connections)),
            ("responses_ok".into(), counter(&m.ok)),
            ("responses_client_error".into(), counter(&m.client_errors)),
            ("responses_server_error".into(), counter(&m.server_errors)),
            ("shed".into(), counter(&m.shed)),
            ("deadline_exceeded".into(), counter(&m.deadline_exceeded)),
            ("read_timeouts".into(), counter(&m.read_timeouts)),
            ("panics".into(), counter(&m.panics)),
            ("sweep_campaigns".into(), Json::Arr(campaigns)),
        ]))
    }

    fn classify(&self, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(r) => return r,
        };
        let problem = match required_problem(&body, "problem") {
            Ok(p) => p,
            Err(r) => return r,
        };
        let full = body.get("report").and_then(Json::as_bool).unwrap_or(false);
        if full {
            let report = self.engine.classify_full(&problem);
            Response::ok(report_to_json(&report))
        } else {
            let complexity = self.engine.classify(&problem);
            Response::ok(Json::Obj(vec![
                ("problem".into(), Json::str(problem.to_text())),
                ("complexity".into(), Json::str(complexity.to_string())),
                (
                    "complexity_short".into(),
                    Json::str(complexity.short_name()),
                ),
            ]))
        }
    }

    fn classify_batch(&self, req: &Request, deadline: Instant) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(r) => return r,
        };
        let Some(items) = body.get("problems").and_then(Json::as_array) else {
            return Response::error(400, "bad_request", "missing `problems` array");
        };
        if items.len() > self.config.max_batch {
            return Response::error(
                400,
                "bad_request",
                format!(
                    "{} problems exceed the batch limit of {}",
                    items.len(),
                    self.config.max_batch
                ),
            );
        }
        let mut problems = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let Some(text) = item.as_str() else {
                return Response::error(
                    400,
                    "bad_request",
                    format!("`problems[{i}]` is not a string"),
                );
            };
            match load_problem(text) {
                Ok(p) => problems.push(p),
                Err(e) => {
                    return Response::error(400, "bad_request", format!("`problems[{i}]`: {e}"))
                }
            }
        }
        // Classify one at a time so the compute deadline is enforced between
        // items — a batch that would overrun sheds instead of monopolizing a
        // worker (the engine memo makes the retry cheap: finished items hit).
        let mut results = Vec::with_capacity(problems.len());
        for (i, problem) in problems.iter().enumerate() {
            if Instant::now() >= deadline {
                self.metrics
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                return Response::error(
                    503,
                    "deadline_exceeded",
                    format!(
                        "compute deadline expired after {i} of {} problems; \
                         retry — classified prefixes are memoized",
                        problems.len()
                    ),
                )
                .with_retry_after(1);
            }
            let complexity = self.engine.classify(problem);
            results.push(Json::Obj(vec![
                ("problem".into(), Json::str(problem.to_text())),
                ("complexity".into(), Json::str(complexity.short_name())),
            ]));
        }
        let mut histogram: Vec<(String, usize)> = Vec::new();
        for r in &results {
            let name = r.get("complexity").and_then(Json::as_str).unwrap_or("?");
            match histogram.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1 += 1,
                None => histogram.push((name.to_string(), 1)),
            }
        }
        let stats = self.engine.stats();
        Response::ok(Json::Obj(vec![
            ("count".into(), Json::int(results.len())),
            ("cache_hits".into(), Json::int(stats.cache_hits)),
            ("cache_misses".into(), Json::int(stats.cache_misses)),
            (
                "histogram".into(),
                Json::Obj(
                    histogram
                        .into_iter()
                        .map(|(name, n)| (name, Json::int(n)))
                        .collect(),
                ),
            ),
            ("results".into(), Json::Arr(results)),
        ]))
    }

    fn solve(&self, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(r) => return r,
        };
        let problem = match required_problem(&body, "problem") {
            Ok(p) => p,
            Err(r) => return r,
        };
        let nodes = body.get("nodes").and_then(Json::as_u64).unwrap_or(101) as usize;
        if nodes == 0 || nodes > self.config.max_solve_nodes {
            return Response::error(
                400,
                "bad_request",
                format!(
                    "`nodes` must be in 1..={}, got {nodes}",
                    self.config.max_solve_nodes
                ),
            );
        }
        let seed = body.get("seed").and_then(Json::as_u64).unwrap_or(1);
        let include_labels = body
            .get("include_labels")
            .and_then(Json::as_bool)
            .unwrap_or(false);

        let report = self.engine.classify_full(&problem);
        if !report.complexity.is_solvable() {
            return Response::ok(Json::Obj(vec![
                ("problem".into(), Json::str(problem.to_text())),
                (
                    "complexity".into(),
                    Json::str(report.complexity.to_string()),
                ),
                ("solvable".into(), Json::Bool(false)),
            ]));
        }
        let CheckedSolve { tree, outcome, .. } =
            match solve_checked(&problem, &report, nodes, seed, false) {
                Ok(solved) => solved,
                Err(SolveCheckError::Solve(e)) => {
                    return Response::error(500, "internal", format!("solver error: {e}"));
                }
                Err(SolveCheckError::Invalid(e)) => {
                    return Response::error(
                        500,
                        "internal",
                        format!("solver produced an invalid labeling: {e}"),
                    );
                }
            };
        let mut obj = vec![
            ("problem".into(), Json::str(problem.to_text())),
            (
                "complexity".into(),
                Json::str(report.complexity.to_string()),
            ),
            ("solvable".into(), Json::Bool(true)),
            ("nodes".into(), Json::int(tree.len())),
            ("seed".into(), Json::uint(seed)),
            ("algorithm".into(), Json::str(outcome.algorithm)),
            ("rounds".into(), Json::str(outcome.rounds.summary())),
            ("verified".into(), Json::Bool(true)),
        ];
        if include_labels {
            obj.push((
                "labels".into(),
                Json::Arr(
                    outcome
                        .labels
                        .iter()
                        .map(|&l| Json::str(problem.label_name(l)))
                        .collect(),
                ),
            ));
        }
        Response::ok(Json::Obj(obj))
    }

    /// `/edit`: the dynamic-tree session. A body with `problem` initializes
    /// (solve a fresh tree, build the repair plan, replace any old session); a
    /// body with `edits` applies one seeded batch to the current session and
    /// repairs the labeling incrementally, validating the dirty ranges. A
    /// concurrent `/edit` gets `409`; an expired compute deadline `503`.
    fn edit(&self, req: &Request, deadline: Instant) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(r) => return r,
        };
        // One session, one request at a time: try_lock so a long repair never
        // queues a second worker behind the mutex past its own deadline.
        let Ok(mut slot) = self.edit_session.try_lock() else {
            return Response::error(409, "conflict", "another /edit request is running")
                .with_retry_after(1);
        };
        if body.get("problem").is_some() {
            return self.edit_init(&body, &mut slot);
        }
        if body.get("edits").is_some() {
            return self.edit_batch(&body, &mut slot, deadline);
        }
        Response::error(
            400,
            "bad_request",
            "an /edit body carries either `problem` (initialize a session) or `edits` (apply a batch)",
        )
    }

    fn edit_init(&self, body: &Json, slot: &mut Option<Box<EditSlot>>) -> Response {
        let problem = match required_problem(body, "problem") {
            Ok(p) => p,
            Err(r) => return r,
        };
        let nodes = body.get("nodes").and_then(Json::as_u64).unwrap_or(4001) as usize;
        if nodes == 0 || nodes > self.config.max_solve_nodes {
            return Response::error(
                400,
                "bad_request",
                format!(
                    "`nodes` must be in 1..={}, got {nodes}",
                    self.config.max_solve_nodes
                ),
            );
        }
        let seed = body.get("seed").and_then(Json::as_u64).unwrap_or(1);
        let report = self.engine.classify_full(&problem);
        if !report.complexity.is_solvable() {
            return Response::error(
                400,
                "bad_request",
                "the problem is unsolvable; there is no labeling to maintain",
            );
        }
        let mut tree = DynamicTree::new(
            FlatTree::random_full(problem.delta(), nodes, seed),
            problem.delta(),
        );
        let response = Json::Obj(vec![
            ("problem".into(), Json::str(problem.to_text())),
            (
                "complexity".into(),
                Json::str(report.complexity.to_string()),
            ),
            ("nodes".into(), Json::int(tree.len())),
            ("seed".into(), Json::uint(seed)),
            ("session".into(), Json::str("initialized")),
        ]);
        let mut labels = Vec::new();
        let solved = resolve_full(
            &problem,
            &report,
            &mut tree,
            &mut labels,
            &mut RepairScratch::new(),
        );
        let ids = IdAssignment::random_permutation_len(tree.len(), seed);
        let session = match solved.map(|()| EditSession::new(problem, report, tree, labels, ids)) {
            Ok(Ok(session)) => session,
            // The solve needs the certificate the repair plan does, so an
            // over-budget one fails the solve first: a fault of the problem.
            Ok(Err(e)) | Err(e @ SolveError::CertificateTooLarge(_)) => {
                return Response::error(
                    400,
                    "bad_request",
                    format!("cannot build a repair plan: {e}"),
                )
            }
            Err(e) => {
                return Response::error(500, "internal", format!("initial solve failed: {e}"))
            }
        };
        *slot = Some(Box::new(EditSlot {
            session,
            target_nodes: nodes,
            batches: 0,
            edits_applied: 0,
        }));
        Response::ok(response)
    }

    fn edit_batch(
        &self,
        body: &Json,
        slot: &mut Option<Box<EditSlot>>,
        deadline: Instant,
    ) -> Response {
        let Some(current) = slot.as_deref_mut() else {
            return Response::error(
                409,
                "conflict",
                "no edit session; POST /edit with a `problem` first",
            );
        };
        let edits = body.get("edits").and_then(Json::as_u64).unwrap_or(0) as usize;
        if edits == 0 || edits > self.config.max_edit_batch {
            return Response::error(
                400,
                "bad_request",
                format!(
                    "`edits` must be in 1..={}, got {edits}",
                    self.config.max_edit_batch
                ),
            );
        }
        let seed = body
            .get("seed")
            .and_then(Json::as_u64)
            .unwrap_or(current.batches + 1);
        if Instant::now() >= deadline {
            self.metrics
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            return Response::error(503, "deadline_exceeded", "compute deadline expired")
                .with_retry_after(1);
        }

        let mut gen = EditScriptGen::new(seed, current.target_nodes);
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let batch = match current.session.apply_batch(&mut gen, edits, &mut rng) {
            Ok(batch) => batch,
            Err(e) => {
                // The labeling may be stale or invalid now; drop the session
                // rather than serve it.
                *slot = None;
                let detail = match e {
                    EditError::Repair(e) => format!("repair failed: {e}"),
                    EditError::Invalid(e) => format!("repair produced an invalid labeling: {e}"),
                };
                return Response::error(500, "internal", detail);
            }
        };
        current.batches += 1;
        current.edits_applied += edits as u64;
        let outcome = batch.repair;
        Response::ok(Json::Obj(vec![
            ("nodes".into(), Json::int(current.session.tree().len())),
            ("edits".into(), Json::int(edits)),
            ("seed".into(), Json::uint(seed)),
            ("sites".into(), Json::int(outcome.sites)),
            ("relabeled".into(), Json::int(outcome.relabeled)),
            ("climbs".into(), Json::int(outcome.climbs)),
            ("escalated".into(), Json::Bool(outcome.escalated)),
            ("ranges_validated".into(), Json::int(batch.ranges_validated)),
            ("id_bits".into(), Json::int(current.session.ids().id_bits())),
            ("batches".into(), Json::uint(current.batches)),
            ("edits_applied".into(), Json::uint(current.edits_applied)),
        ]))
    }

    fn sweep(&self, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(r) => return r,
        };
        let Some(delta) = body.get("delta").and_then(Json::as_u64) else {
            return Response::error(400, "bad_request", "missing `delta`");
        };
        let Some(labels) = body.get("labels").and_then(Json::as_u64) else {
            return Response::error(400, "bad_request", "missing `labels`");
        };
        let family = match CanonicalFamily::try_new(
            usize::try_from(delta).unwrap_or(usize::MAX),
            usize::try_from(labels).unwrap_or(usize::MAX),
        ) {
            Ok(family) => family,
            Err(e) => return Response::error(400, "bad_request", e),
        };
        // Both fit: `try_new` bounds δ by the snapshot cursor's u16 and |Σ|
        // by the enumeration limit.
        let (delta, labels) = (delta as u16, labels as u16);
        let max_orbits = body
            .get("max_orbits")
            .and_then(Json::as_u64)
            .unwrap_or(self.config.default_leg_orbits)
            .clamp(1, self.config.max_leg_orbits);

        // Claim the family's campaign slot; a concurrent leg is a conflict.
        let snapshot = {
            let mut slots = self.sweeps.lock().expect("sweep slots poisoned");
            let taken = match slots.remove(&(delta, labels)) {
                Some(SweepSlot::Running) => {
                    slots.insert((delta, labels), SweepSlot::Running);
                    return Response::error(
                        409,
                        "conflict",
                        format!("a sweep leg for (δ={delta}, {labels} labels) is already running"),
                    )
                    .with_retry_after(1);
                }
                Some(SweepSlot::Idle(snap)) => *snap,
                None => {
                    let shards = std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1);
                    let mut snap = SweepSnapshot::fresh(
                        delta,
                        labels,
                        EngineKind::Bitsliced,
                        family.ranges(shards),
                    );
                    // Seed the campaign from the engine's memo: orbits the
                    // daemon already classified (warm boot, earlier requests)
                    // are answered as cache hits, not recomputed. Foreign-family
                    // keys never match, so the full memo is safe to carry.
                    snap.memo = self.engine.export_memo();
                    snap
                }
            };
            slots.insert((delta, labels), SweepSlot::Running);
            taken
        };
        // From here the slot reads Running: put *something* back on every
        // path. A panic in the engine unwinds past us into the worker's
        // catch_unwind; this guard downgrades that to losing the campaign's
        // in-memory state (slot removed) rather than wedging it at 409
        // forever. The engine memo keeps the classified verdicts either way.
        let guard = SlotGuard {
            slots: &self.sweeps,
            key: (delta, labels),
            put_back: None,
        };

        let ckpt = SweepCheckpoint {
            path: None,
            every_orbits: u64::MAX,
            orbit_limit: Some(max_orbits),
        };
        let (snap, completed) = match family.sweep(&self.engine, snapshot, &ckpt) {
            Ok(r) => r,
            // Unreachable with `path: None` (the only error source is the
            // checkpoint write), but never panic on a corner.
            Err(e) => {
                return Response::error(500, "internal", format!("sweep leg failed: {e}"));
            }
        };
        let masks_remaining = snap.cursor.remaining_masks();
        let response = Json::Obj(vec![
            ("delta".into(), Json::int(delta as usize)),
            ("labels".into(), Json::int(labels as usize)),
            ("engine".into(), Json::str(snap.cursor.engine.name())),
            ("max_orbits".into(), Json::uint(max_orbits)),
            ("completed".into(), Json::Bool(completed)),
            ("masks_remaining".into(), Json::uint(masks_remaining)),
            (
                "orbits_classified".into(),
                Json::uint(snap.outcome.orbits.total()),
            ),
            (
                "problems_accounted".into(),
                Json::uint(snap.outcome.problems.total()),
            ),
            ("memo_entries".into(), Json::int(snap.memo.len())),
            ("orbits".into(), histogram_json(&snap.outcome.orbits)),
            ("problems".into(), histogram_json(&snap.outcome.problems)),
        ]);
        let mut guard = guard;
        guard.put_back = Some(Box::new(snap));
        drop(guard);
        Response::ok(response)
    }

    fn flush(&self) -> Response {
        let Some(path) = self.config.snapshot_path.as_deref() else {
            return Response::error(
                400,
                "bad_request",
                "no snapshot path configured (start the daemon with --snapshot)",
            );
        };
        match self.engine.save_memo(path) {
            Ok(entries) => Response::ok(Json::Obj(vec![
                ("flushed".into(), Json::Bool(true)),
                ("memo_entries".into(), Json::int(entries)),
                ("path".into(), Json::str(path.display().to_string())),
            ])),
            Err(e) => Response::error(500, "internal", format!("snapshot flush failed: {e}")),
        }
    }
}

/// Restores a claimed sweep slot on every exit path (including unwinding).
struct SlotGuard<'a> {
    slots: &'a Mutex<HashMap<(u16, u16), SweepSlot>>,
    key: (u16, u16),
    put_back: Option<Box<SweepSnapshot>>,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let mut slots = self.slots.lock().expect("sweep slots poisoned");
        match self.put_back.take() {
            Some(snap) => slots.insert(self.key, SweepSlot::Idle(snap)),
            None => slots.remove(&self.key),
        };
    }
}

fn method_not_allowed(expected: &str) -> Response {
    Response::error(
        405,
        "method_not_allowed",
        format!("this endpoint only accepts {expected}"),
    )
}

/// Parses a request body as a JSON object (non-UTF-8 and parse failures are
/// structured `400`s).
fn parse_body(req: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Response::error(400, "bad_request", "body is not valid UTF-8"))?;
    let value =
        json::parse(text).map_err(|e| Response::error(400, "bad_request", e.to_string()))?;
    if matches!(value, Json::Obj(_)) {
        Ok(value)
    } else {
        Err(Response::error(
            400,
            "bad_request",
            "body must be a JSON object",
        ))
    }
}

/// Extracts and loads the problem named by `field`: a catalog name (`mis`) or
/// a problem text in the paper's notation.
fn required_problem(body: &Json, field: &str) -> Result<LclProblem, Response> {
    let Some(spec) = body.get(field).and_then(Json::as_str) else {
        return Err(Response::error(
            400,
            "bad_request",
            format!("missing string field `{field}`"),
        ));
    };
    load_problem(spec).map_err(|e| Response::error(400, "bad_request", e))
}

/// Catalog name or problem text — the daemon's equivalent of the CLI's
/// name-or-file loader, minus the filesystem (requests carry their problems).
fn load_problem(spec: &str) -> Result<LclProblem, String> {
    if let Some(entry) = catalog::by_name(spec) {
        return Ok(entry.problem);
    }
    spec.parse::<LclProblem>()
        .map_err(|e| format!("not a catalog problem, and not parseable as a problem: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::Label;

    fn state() -> ServeState {
        ServeState::new(ServeConfig::default(), ClassificationEngine::new())
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(30)
    }

    #[test]
    fn classify_answers_catalog_and_text_problems() {
        let s = state();
        let r = s.handle(
            &post("/classify", r#"{"problem": "1:22\n2:11\n"}"#),
            far_deadline(),
        );
        assert_eq!(r.status, 200);
        assert_eq!(
            r.body.get("complexity_short").and_then(Json::as_str),
            Some("poly")
        );
        let r = s.handle(&post("/classify", r#"{"problem": "mis"}"#), far_deadline());
        assert_eq!(r.status, 200, "{:?}", r.body);
        // Full report on demand.
        let r = s.handle(
            &post(
                "/classify",
                r#"{"problem": "1:22\n2:11\n", "report": true}"#,
            ),
            far_deadline(),
        );
        assert_eq!(r.status, 200);
        assert!(r.body.get("solvable_labels").is_some());
    }

    #[test]
    fn malformed_bodies_are_structured_400s() {
        let s = state();
        for body in [
            "",
            "{",
            "[1,2]",
            "null",
            r#"{"problem": 7}"#,
            r#"{"problem": "::"}"#,
        ] {
            let r = s.handle(&post("/classify", body), far_deadline());
            assert_eq!(r.status, 400, "body {body:?} -> {:?}", r.body);
            assert_eq!(
                r.body.get("error").and_then(Json::as_str),
                Some("bad_request")
            );
        }
    }

    #[test]
    fn unknown_routes_and_methods() {
        let s = state();
        let r = s.handle(&post("/nope", "{}"), far_deadline());
        assert_eq!(r.status, 404);
        let r = s.handle(
            &Request {
                method: "GET".into(),
                path: "/classify".into(),
                body: vec![],
            },
            far_deadline(),
        );
        assert_eq!(r.status, 405);
        let r = s.handle(&post("/healthz", "{}"), far_deadline());
        assert_eq!(r.status, 405);
        // Debug endpoints are 404 unless enabled.
        let r = s.handle(&post("/debug/panic", "{}"), far_deadline());
        assert_eq!(r.status, 405);
    }

    #[test]
    fn batch_enforces_the_deadline_between_items() {
        let s = state();
        let body = r#"{"problems": ["1:22\n2:11\n", "1:11\n", "1:12\n2:11\n"]}"#;
        // Generous deadline: everything classifies.
        let r = s.handle(&post("/classify-batch", body), far_deadline());
        assert_eq!(r.status, 200);
        assert_eq!(r.body.get("count").and_then(Json::as_u64), Some(3));
        // Expired deadline: shed with Retry-After before the first item.
        let r = s.handle(
            &post("/classify-batch", body),
            Instant::now() - Duration::from_millis(1),
        );
        assert_eq!(r.status, 503);
        assert_eq!(r.retry_after, Some(1));
        assert_eq!(
            r.body.get("error").and_then(Json::as_str),
            Some("deadline_exceeded")
        );
        assert_eq!(s.metrics.deadline_exceeded.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn batch_rejects_oversized_requests() {
        let config = ServeConfig {
            max_batch: 2,
            ..ServeConfig::default()
        };
        let s = ServeState::new(config, ClassificationEngine::new());
        let r = s.handle(
            &post(
                "/classify-batch",
                r#"{"problems": ["1:11\n", "1:11\n", "1:11\n"]}"#,
            ),
            far_deadline(),
        );
        assert_eq!(r.status, 400);
    }

    #[test]
    fn solve_solves_and_verifies() {
        let s = state();
        let r = s.handle(
            &post(
                "/solve",
                r#"{"problem": "1:22\n2:11\n", "nodes": 101, "include_labels": true}"#,
            ),
            far_deadline(),
        );
        assert_eq!(r.status, 200, "{:?}", r.body);
        assert_eq!(r.body.get("solvable").and_then(Json::as_bool), Some(true));
        assert_eq!(r.body.get("verified").and_then(Json::as_bool), Some(true));
        let labels = r.body.get("labels").and_then(Json::as_array).unwrap();
        assert_eq!(
            Some(labels.len() as u64),
            r.body.get("nodes").and_then(Json::as_u64)
        );
        // Unsolvable problems answer solvable: false, not an error.
        let r = s.handle(&post("/solve", r#"{"problem": "1:22\n"}"#), far_deadline());
        assert_eq!(r.status, 200);
        assert_eq!(r.body.get("solvable").and_then(Json::as_bool), Some(false));
        // Node cap.
        let r = s.handle(
            &post(
                "/solve",
                r#"{"problem": "1:22\n2:11\n", "nodes": 99000000}"#,
            ),
            far_deadline(),
        );
        assert_eq!(r.status, 400);
    }

    #[test]
    fn edit_session_repairs_batches_incrementally() {
        let s = state();
        // A batch with no session is a conflict, not a panic.
        let r = s.handle(&post("/edit", r#"{"edits": 32}"#), far_deadline());
        assert_eq!(r.status, 409);
        // Initialize a session on a catalog problem.
        let r = s.handle(
            &post("/edit", r#"{"problem": "mis", "nodes": 2001, "seed": 7}"#),
            far_deadline(),
        );
        assert_eq!(r.status, 200, "{:?}", r.body);
        assert_eq!(r.body.get("nodes").and_then(Json::as_u64), Some(2001));
        // Seeded batches repair incrementally; every dirty range validates.
        let mut nodes = 0;
        for _ in 0..5 {
            let r = s.handle(&post("/edit", r#"{"edits": 64}"#), far_deadline());
            assert_eq!(r.status, 200, "{:?}", r.body);
            assert!(
                r.body
                    .get("ranges_validated")
                    .and_then(Json::as_u64)
                    .unwrap()
                    >= 1
            );
            // Identifier maintenance tracks the edited tree: enough bits for
            // one distinct id per live node, even after growth.
            nodes = r.body.get("nodes").and_then(Json::as_u64).unwrap();
            let id_bits = r.body.get("id_bits").and_then(Json::as_u64).unwrap();
            assert!(1u64 << id_bits >= nodes, "{id_bits} bits for {nodes} nodes");
        }
        assert!(nodes > 0);
        assert_eq!(
            s.handle(&post("/edit", r#"{"edits": 8}"#), far_deadline())
                .body
                .get("batches")
                .and_then(Json::as_u64),
            Some(6)
        );
        // An expired compute deadline sheds the batch with Retry-After.
        let r = s.handle(
            &post("/edit", r#"{"edits": 8}"#),
            Instant::now() - Duration::from_millis(1),
        );
        assert_eq!(r.status, 503);
        assert_eq!(r.retry_after, Some(1));
        // Unsolvable problems cannot start a session.
        let r = s.handle(
            &post("/edit", r#"{"problem": "unsolvable"}"#),
            far_deadline(),
        );
        assert_eq!(r.status, 400);
        // A body with neither `problem` nor `edits` is malformed.
        let r = s.handle(&post("/edit", "{}"), far_deadline());
        assert_eq!(r.status, 400);
        // Batch size cap.
        let r = s.handle(&post("/edit", r#"{"edits": 99999}"#), far_deadline());
        assert_eq!(r.status, 400);
    }

    #[test]
    fn sweep_runs_budgeted_legs_to_completion() {
        let s = state();
        // (δ=2, 3 labels): 2^18 problems in ~44k orbits — far more than one
        // leg's budget, so the first bounded leg must stop mid-campaign.
        // (Workers stop at the next block-commit boundary, so a tiny family
        // like (2,2) can finish inside a single "bounded" leg; this one can't.)
        let r = s.handle(
            &post("/sweep", r#"{"delta": 2, "labels": 3, "max_orbits": 64}"#),
            far_deadline(),
        );
        assert_eq!(r.status, 200, "{:?}", r.body);
        assert_eq!(r.body.get("completed").and_then(Json::as_bool), Some(false));
        assert!(
            r.body
                .get("masks_remaining")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        let first_leg_orbits = r
            .body
            .get("orbits_classified")
            .and_then(Json::as_u64)
            .unwrap();
        assert!(first_leg_orbits > 0);

        // Subsequent legs with a generous budget drive it to completion; the
        // accumulated histograms cover the whole 2^18-problem universe.
        let mut legs = 1;
        loop {
            let r = s.handle(
                &post(
                    "/sweep",
                    r#"{"delta": 2, "labels": 3, "max_orbits": 1048576}"#,
                ),
                far_deadline(),
            );
            assert_eq!(r.status, 200, "{:?}", r.body);
            legs += 1;
            assert!(legs < 20, "sweep never completed");
            if r.body.get("completed").and_then(Json::as_bool) == Some(true) {
                assert_eq!(
                    r.body.get("masks_remaining").and_then(Json::as_u64),
                    Some(0)
                );
                assert_eq!(
                    r.body.get("problems_accounted").and_then(Json::as_u64),
                    Some(1 << 18)
                );
                break;
            }
        }
        // The engine memo is warm for the family now.
        assert!(s.engine.memo_len() > 0);
        // A fresh leg request on the finished campaign completes immediately.
        let r = s.handle(
            &post("/sweep", r#"{"delta": 2, "labels": 3}"#),
            far_deadline(),
        );
        assert_eq!(r.body.get("completed").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn members_of_an_earlier_sweep_leg_stay_memo_hits_after_the_next_leg() {
        let s = state();
        let leg = || {
            let r = s.handle(
                &post("/sweep", r#"{"delta": 2, "labels": 3, "max_orbits": 64}"#),
                far_deadline(),
            );
            assert_eq!(r.status, 200, "{:?}", r.body);
            assert_eq!(r.body.get("completed").and_then(Json::as_bool), Some(false));
        };
        let campaign = || match s.sweeps.lock().unwrap().get(&(2, 3)) {
            Some(SweepSlot::Idle(snap)) => snap.as_ref().clone(),
            _ => panic!("the campaign is idle between legs"),
        };
        leg();
        // A member the first leg classified: the first canonical mask of a
        // non-empty problem below a watermark that leg 1 advanced.
        let family = CanonicalFamily::new(2, 3);
        let shards = campaign().cursor.ranges.len();
        let (start, done) = family
            .ranges(shards)
            .into_iter()
            .zip(campaign().cursor.ranges)
            .find(|(start, now)| now.next > start.next)
            .expect("leg 1 advanced a range");
        let mask = family
            .blocks_in(
                lcl_core::MaskRange {
                    next: start.next,
                    hi: done.next,
                },
                64,
            )
            .flat_map(|block| block.masks)
            .find(|&mask| mask != 0)
            .expect("leg 1 classified a non-empty problem");
        leg();
        // The engine holds the campaign's memo exactly: leg 2 warmed it with
        // its own entries and did not import leg 1's again.
        assert_eq!(s.engine.memo_len(), campaign().memo.len());

        let member = family.problem_at(mask);
        let mut renamed = LclProblem::builder(2);
        let rename = |l: Label| format!("r{}", 9 - l.index());
        for c in member.configurations() {
            let children: Vec<String> = c.children().iter().map(|&l| rename(l)).collect();
            let children: Vec<&str> = children.iter().map(String::as_str).collect();
            renamed.configuration(&rename(c.parent()), &children);
        }
        let renamed = renamed.build();
        assert_ne!(renamed.to_text(), member.to_text());
        let before = s.engine.stats();
        for problem in [&member, &renamed] {
            let body = Json::Obj(vec![("problem".into(), Json::str(problem.to_text()))]);
            let r = s.handle(&post("/classify", &body.to_string()), far_deadline());
            assert_eq!(r.status, 200, "{:?}", r.body);
        }
        let after = s.engine.stats();
        assert_eq!(after.cache_hits - before.cache_hits, 2);
        assert_eq!(after.cache_misses, before.cache_misses);
    }

    #[test]
    fn sweep_rejects_invalid_families() {
        let s = state();
        for body in [
            r#"{"delta": 0, "labels": 2}"#,
            r#"{"delta": 2, "labels": 0}"#,
            r#"{"delta": 2, "labels": 9}"#,
            r#"{"delta": 2, "labels": 5}"#,
            r#"{"delta": 999999, "labels": 2}"#,
            r#"{"delta": 65536, "labels": 1}"#,
            r#"{"labels": 2}"#,
        ] {
            let r = s.handle(&post("/sweep", body), far_deadline());
            assert_eq!(r.status, 400, "{body}");
        }
        // A rejected family never reaches the campaign slots: `/stats` and a
        // valid sweep still answer.
        let r = s.handle(
            &Request {
                method: "GET".into(),
                path: "/stats".into(),
                body: vec![],
            },
            far_deadline(),
        );
        assert_eq!(r.status, 200, "{:?}", r.body);
        let r = s.handle(
            &post("/sweep", r#"{"delta": 1, "labels": 2}"#),
            far_deadline(),
        );
        assert_eq!(r.status, 200, "{:?}", r.body);
    }

    #[test]
    fn flush_without_a_path_is_a_client_error() {
        let s = state();
        let r = s.handle(&post("/flush", "{}"), far_deadline());
        assert_eq!(r.status, 400);
    }

    #[test]
    fn flush_writes_a_loadable_snapshot() {
        let dir = std::env::temp_dir().join(format!("rtlcl-serve-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("daemon.rtlcl");
        let config = ServeConfig {
            snapshot_path: Some(path.clone()),
            ..ServeConfig::default()
        };
        let s = ServeState::new(config, ClassificationEngine::new());
        s.handle(
            &post("/classify", r#"{"problem": "1:22\n2:11\n"}"#),
            far_deadline(),
        );
        let r = s.handle(&post("/flush", "{}"), far_deadline());
        assert_eq!(r.status, 200, "{:?}", r.body);
        assert_eq!(r.body.get("memo_entries").and_then(Json::as_u64), Some(1));
        let snap = SweepSnapshot::load(&path).unwrap();
        assert_eq!(snap.memo.len(), 1);
        assert!(snap.cursor.is_complete());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_reports_counters_and_campaigns() {
        let s = state();
        s.handle(
            &post("/classify", r#"{"problem": "1:11\n"}"#),
            far_deadline(),
        );
        s.handle(
            &post("/sweep", r#"{"delta": 1, "labels": 2, "max_orbits": 2}"#),
            far_deadline(),
        );
        let r = s.handle(
            &Request {
                method: "GET".into(),
                path: "/stats".into(),
                body: vec![],
            },
            far_deadline(),
        );
        assert_eq!(r.status, 200);
        assert!(r.body.get("memo_entries").and_then(Json::as_u64).unwrap() >= 1);
        let campaigns = r
            .body
            .get("sweep_campaigns")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(campaigns.len(), 1);
        assert_eq!(
            campaigns[0].get("state").and_then(Json::as_str),
            Some("idle")
        );
    }
}
