//! Load generator for the `rtlcl serve` daemon: concurrent clients hammering
//! `/classify` over loopback HTTP, cold engine vs snapshot-warmed engine.
//!
//! Full runs of the same workload — 8 client threads, each on one kept-alive
//! connection, cycling through a pool of distinct δ=2, 4-label problems —
//! against freshly started daemons of two kinds:
//!
//! * **cold**: empty memo, so every distinct problem pays its classification
//!   on first touch;
//! * **warm**: the daemon boots from the snapshot the first cold run
//!   flushed, so every request is a memo hit.
//!
//! [`RUNS`] runs of each kind alternate (cold, warm, cold, …), so slow
//! spells of the host touch both alike. The headline ratio `warm_vs_cold`
//! (median cold wall time / median warm wall time) is what the crash-safe
//! snapshot flush buys a restarted daemon; CI guards it at ≥ 1.0. Latency
//! percentiles and throughput of each kind land in `BENCH_serve.json` as
//! metrics: the median over the runs, with `_min`, `_max` and the run count
//! `runs_<kind>` beside it, and the most connections any run opened.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcl_bench::harness::{Bench, BenchReport};
use lcl_problems::random::{random_family, RandomProblemSpec};
use lcl_serve::client;
use lcl_serve::{Json, ServeConfig, Server};

const CLIENTS: usize = 8;
const ROUNDS_PER_CLIENT: usize = 240;
/// Every request in a run targets a distinct problem: the cold run is all
/// memo misses, the warm run all hits — the sharpest honest contrast.
const PROBLEM_POOL: usize = CLIENTS * ROUNDS_PER_CLIENT;
const TIMEOUT: Duration = Duration::from_secs(30);
/// Load runs of each kind.
const RUNS: usize = 5;

/// Total wall time, sorted per-request latencies, and TCP connections
/// opened of one load run.
type LoadRun = (Duration, Vec<Duration>, u64);

/// One full load run: `CLIENTS` threads, each sending `ROUNDS_PER_CLIENT`
/// classify requests cycling through the pool, each thread over one
/// kept-alive [`client::Connection`]. Returns (total wall time, sorted
/// per-request latencies, TCP connections opened).
fn run_load(addr: SocketAddr, bodies: &Arc<Vec<Json>>) -> LoadRun {
    let start = Instant::now();
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let bodies = bodies.clone();
        handles.push(std::thread::spawn(move || {
            let mut conn = client::Connection::new(addr, TIMEOUT);
            let mut latencies = Vec::with_capacity(ROUNDS_PER_CLIENT);
            for k in 0..ROUNDS_PER_CLIENT {
                // Disjoint chunk per client: each problem is requested exactly
                // once per run.
                let body = &bodies[c * ROUNDS_PER_CLIENT + k];
                let t = Instant::now();
                let resp = conn
                    .post("/classify", body)
                    .expect("daemon dropped a classify request");
                latencies.push(t.elapsed());
                assert_eq!(resp.status, 200, "classify failed: {:?}", resp.body);
            }
            (latencies, conn.connections_opened())
        }));
    }
    let mut latencies: Vec<Duration> = Vec::with_capacity(CLIENTS * ROUNDS_PER_CLIENT);
    let mut connections = 0;
    for h in handles {
        let (client_latencies, opened) = h.join().expect("client thread panicked");
        latencies.extend(client_latencies);
        connections += opened;
    }
    let total = start.elapsed();
    latencies.sort_unstable();
    (total, latencies, connections)
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: CLIENTS,
        // Deep enough that the load generator itself is never shed: shedding
        // resilience is the integration tests' job, this measures throughput.
        queue_capacity: 4 * CLIENTS,
        ..ServeConfig::default()
    }
}

/// Median, minimum and maximum of `values`.
fn spread(values: &mut [f64]) -> (f64, f64, f64) {
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    let median = if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    };
    (median, values[0], values[n - 1])
}

/// Prints one load run.
fn print_run(tag: &str, run: usize, (total, latencies, connections): &LoadRun) {
    println!(
        "{tag} run {run}: {} requests on {connections} connections in {:.1} ms — {:.0} req/s, p50 {:.0} µs, p99 {:.0} µs",
        latencies.len(),
        total.as_secs_f64() * 1e3,
        latencies.len() as f64 / total.as_secs_f64(),
        us(percentile(latencies, 0.50)),
        us(percentile(latencies, 0.99)),
    );
}

/// Records the runs of one kind: median, minimum and maximum of the
/// throughput and of both percentiles, the run count, and the most
/// connections a run opened. Returns the median wall time.
fn report_runs(report: &mut BenchReport, tag: &str, runs: &[LoadRun]) -> Duration {
    let mut metric = |name: &str, mut values: Vec<f64>| {
        let (median, min, max) = spread(&mut values);
        report.add_metric(name, median);
        report.add_metric(&format!("{name}_min"), min);
        report.add_metric(&format!("{name}_max"), max);
        median
    };
    let p50 = metric(
        &format!("p50_{tag}_us"),
        runs.iter().map(|r| us(percentile(&r.1, 0.50))).collect(),
    );
    let p99 = metric(
        &format!("p99_{tag}_us"),
        runs.iter().map(|r| us(percentile(&r.1, 0.99))).collect(),
    );
    let throughput = metric(
        &format!("throughput_{tag}_rps"),
        runs.iter()
            .map(|r| r.1.len() as f64 / r.0.as_secs_f64())
            .collect(),
    );
    let wall = metric(
        &format!("wall_{tag}_ms"),
        runs.iter().map(|r| r.0.as_secs_f64() * 1e3).collect(),
    );
    let connections = runs.iter().map(|r| r.2).max().unwrap_or(0);
    report.add_metric(&format!("runs_{tag}"), runs.len() as f64);
    report.add_metric(&format!("connections_{tag}"), connections as f64);
    println!(
        "{tag}, median of {} runs: {throughput:.0} req/s, p50 {p50:.0} µs, p99 {p99:.0} µs, \
         wall {wall:.1} ms; at most {connections} connections",
        runs.len()
    );
    Duration::from_secs_f64(wall / 1e3)
}

fn main() {
    let mut report = BenchReport::new("serve");
    let snapshot =
        std::env::temp_dir().join(format!("rtlcl-bench-serve-{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&snapshot);

    let spec = RandomProblemSpec {
        delta: 2,
        num_labels: 4,
        density: 0.3,
    };
    let bodies: Arc<Vec<Json>> = Arc::new(
        random_family(&spec, 7, PROBLEM_POOL)
            .iter()
            .map(|p| Json::Obj(vec![("problem".into(), Json::str(p.to_text()))]))
            .collect(),
    );

    let (mut cold_runs, mut warm_runs) = (Vec::new(), Vec::new());
    let mut flushed = None;
    for run in 0..RUNS {
        // Cold run: fresh engine, first touch of every problem pays the
        // classifier.
        let cold_server = Server::start(config()).expect("cold daemon failed to start");
        let cold = run_load(cold_server.addr(), &bodies);
        print_run("cold", run, &cold);
        if flushed.is_none() {
            // Flush the now-warm memo where the warm daemons will boot from.
            let entries = cold_server
                .state()
                .engine
                .save_memo(&snapshot)
                .expect("snapshot flush failed");
            println!("flushed {entries} memo entries to {}", snapshot.display());
            flushed = Some(entries);
        }
        cold_server.join();
        cold_runs.push(cold);

        // Warm run: same workload against a daemon booted from that snapshot.
        let warm_server = Server::start(ServeConfig {
            snapshot_path: Some(snapshot.clone()),
            ..config()
        })
        .expect("warm daemon failed to start");
        assert_eq!(
            Some(warm_server.boot.warm_memo_entries),
            flushed,
            "warm boot must import the flushed memo"
        );
        let warm = run_load(warm_server.addr(), &bodies);
        print_run("warm", run, &warm);
        warm_runs.push(warm);
        warm_server.join();
    }

    // A conventional harness group for the steady-state round trip against
    // one more warm daemon: one request per iteration, memo hits only.
    let warm_server = Server::start(ServeConfig {
        snapshot_path: Some(snapshot.clone()),
        ..config()
    })
    .expect("warm daemon failed to start");
    let mut group = Bench::new("serve round-trip (warm daemon, 1 client)");
    let mut conn = client::Connection::new(warm_server.addr(), TIMEOUT);
    group.case_samples("POST /classify (memo hit)", 5, || {
        let resp = conn
            .post("/classify", &bodies[0])
            .expect("daemon dropped a classify request");
        assert_eq!(resp.status, 200);
    });
    report.add_metric("connections_round_trip", conn.connections_opened() as f64);
    drop(conn);
    report.add_group(group);
    warm_server.join();
    let _ = std::fs::remove_file(&snapshot);

    let cold = report_runs(&mut report, "cold", &cold_runs);
    let warm = report_runs(&mut report, "warm", &warm_runs);
    let ratio = report.add_ratio("warm_vs_cold", cold, warm);
    println!("warm_vs_cold: {ratio:.2}x (snapshot warm boot vs cold engine, median wall times)");
    report.write().expect("cannot write the bench report");
}
