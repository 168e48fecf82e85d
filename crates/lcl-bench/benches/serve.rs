//! Load generator for the `rtlcl serve` daemon: concurrent clients hammering
//! `/classify` over loopback HTTP, cold engine vs snapshot-warmed engine.
//!
//! Two full runs of the same workload — 8 client threads, each on one
//! kept-alive connection, cycling through a pool of distinct δ=2, 4-label
//! problems — against two freshly started daemons:
//!
//! * **cold**: empty memo, so every distinct problem pays its classification
//!   on first touch;
//! * **warm**: the daemon boots from the snapshot the cold run flushed, so
//!   every request is a memo hit.
//!
//! The headline ratio `warm_vs_cold` (total cold wall time / total warm wall
//! time) is what the crash-safe snapshot flush buys a restarted daemon; CI
//! guards it at ≥ 1.0. Latency percentiles, throughput and connections
//! opened for both runs land in `BENCH_serve.json` as metrics.

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

/// One full load run: `CLIENTS` threads, each sending `ROUNDS_PER_CLIENT`
/// classify requests cycling through the pool, each thread over one
/// kept-alive [`client::Connection`]. Returns (total wall time, sorted
/// per-request latencies, TCP connections opened).
fn run_load(addr: SocketAddr, bodies: &Arc<Vec<Json>>) -> (Duration, Vec<Duration>, u64) {
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

fn report_run(
    report: &mut BenchReport,
    tag: &str,
    (total, latencies, connections): &(Duration, Vec<Duration>, u64),
) {
    let throughput = latencies.len() as f64 / total.as_secs_f64();
    let (p50, p99) = (percentile(latencies, 0.50), percentile(latencies, 0.99));
    println!(
        "{tag}: {} requests on {connections} connections in {:.1} ms — {:.0} req/s, p50 {:.0} µs, p99 {:.0} µs",
        latencies.len(),
        total.as_secs_f64() * 1e3,
        throughput,
        us(p50),
        us(p99),
    );
    report.add_metric(&format!("p50_{tag}_us"), us(p50));
    report.add_metric(&format!("p99_{tag}_us"), us(p99));
    report.add_metric(&format!("throughput_{tag}_rps"), throughput);
    report.add_metric(&format!("connections_{tag}"), *connections as f64);
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

    // Cold run: fresh engine, first touch of every problem pays the classifier.
    let cold_server = Server::start(config()).expect("cold daemon failed to start");
    let cold = run_load(cold_server.addr(), &bodies);
    report_run(&mut report, "cold", &cold);
    // Flush the now-warm memo where the warm daemon will boot from.
    let flushed = cold_server
        .state()
        .engine
        .save_memo(&snapshot)
        .expect("snapshot flush failed");
    println!("flushed {flushed} memo entries to {}", snapshot.display());
    cold_server.join();

    // Warm run: same workload against a daemon booted from that snapshot.
    let warm_server = Server::start(ServeConfig {
        snapshot_path: Some(snapshot.clone()),
        ..config()
    })
    .expect("warm daemon failed to start");
    assert_eq!(
        warm_server.boot.warm_memo_entries, flushed,
        "warm boot must import the flushed memo"
    );
    let warm = run_load(warm_server.addr(), &bodies);
    report_run(&mut report, "warm", &warm);

    // A conventional harness group for the steady-state round trip, while the
    // warm daemon is still up: one request per iteration, memo hits only.
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

    let ratio = report.add_ratio("warm_vs_cold", cold.0, warm.0);
    println!("warm_vs_cold: {ratio:.2}x (snapshot warm boot vs cold engine)");
    report.write().expect("cannot write the bench report");
}
