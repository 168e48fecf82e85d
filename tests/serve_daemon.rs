//! Fault-injection integration tests for the `rtlcl serve` daemon.
//!
//! Each test boots a real daemon on a loopback port and attacks one leg of
//! the robustness contract: hostile bytes next to good traffic, slowloris
//! peers, queue overload, handler panics, expired deadlines, and the graceful
//! shutdown → snapshot flush → warm restart cycle. Everything runs in-process
//! (the daemon is a library; the binary is a thin wrapper), so the tests can
//! also assert on internal metrics.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rooted_tree_lcl::core::{ClassificationEngine, EngineKind, SweepCheckpoint, SweepSnapshot};
use rooted_tree_lcl::problems::canonical::CanonicalFamily;
use rooted_tree_lcl::serve::client;
use rooted_tree_lcl::serve::{Json, ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(10);

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

fn classify_body(problem: &str) -> Json {
    Json::Obj(vec![("problem".into(), Json::str(problem))])
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "rtlcl-serve-test-{tag}-{}.snap",
        std::process::id()
    ))
}

#[test]
fn concurrent_good_and_malformed_traffic() {
    let server = Server::start(config()).expect("daemon starts");
    let addr = server.addr();

    let good = (0..4).map(|_| {
        std::thread::spawn(move || {
            for _ in 0..20 {
                let resp = client::post(addr, "/classify", &classify_body("3-coloring"), TIMEOUT)
                    .expect("good request answered");
                assert_eq!(resp.status, 200);
                assert_eq!(
                    resp.body.get("complexity_short").and_then(Json::as_str),
                    Some("log*")
                );
            }
        })
    });
    const EVIL: [&[u8]; 7] = [
        b"GARBAGE THAT IS NOT HTTP\r\n\r\n",
        b"POST /classify HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!",
        b"POST /classify HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
        b"POST /classify HTTP/9.9\r\n\r\n",
        b"GET /no/such/route HTTP/1.1\r\n\r\n",
        b"DELETE /classify HTTP/1.1\r\n\r\n",
        b"POST /classify HTTP/1.1\r\n\r\n",
    ];
    let bad = (0..4).map(|t: usize| {
        std::thread::spawn(move || {
            for i in 0..20 {
                let payload = EVIL[(t + i) % EVIL.len()];
                let mut conn = TcpStream::connect(addr).expect("connect");
                conn.set_read_timeout(Some(TIMEOUT)).unwrap();
                conn.write_all(payload).expect("write attack");
                let mut out = Vec::new();
                conn.read_to_end(&mut out).expect("read response");
                let head = String::from_utf8_lossy(&out);
                let status: u16 = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .expect("daemon answered with an HTTP status line");
                assert!(
                    (400..=405).contains(&status) || status == 411,
                    "hostile bytes must get a 4xx, got {status} for {:?}",
                    String::from_utf8_lossy(payload)
                );
            }
        })
    });
    for h in good.chain(bad).collect::<Vec<_>>() {
        h.join().expect("traffic thread");
    }

    // The daemon survived with clean books: all good requests 200, all
    // attacks 4xx, zero panics, zero 5xx.
    let stats = client::get(addr, "/stats", TIMEOUT).expect("stats").body;
    // 80 good classifies; the /stats response itself is recorded only after
    // its body is rendered, so it is not in its own count.
    assert_eq!(stats.get("responses_ok").and_then(Json::as_u64), Some(80));
    assert_eq!(
        stats.get("responses_client_error").and_then(Json::as_u64),
        Some(80)
    );
    assert_eq!(
        stats.get("responses_server_error").and_then(Json::as_u64),
        Some(0)
    );
    assert_eq!(stats.get("panics").and_then(Json::as_u64), Some(0));
    server.join();
}

#[test]
fn slowloris_read_times_out_with_408() {
    let server = Server::start(ServeConfig {
        read_timeout: Duration::from_millis(250),
        ..config()
    })
    .expect("daemon starts");
    let addr = server.addr();

    // Trickle half a request line, then stall forever.
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(TIMEOUT)).unwrap();
    conn.write_all(b"GET /hea").expect("partial write");
    let mut out = Vec::new();
    conn.read_to_end(&mut out).expect("read response");
    let text = String::from_utf8_lossy(&out);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "a stalled read must answer 408, got: {text}"
    );

    // The worker is free again: a normal request goes straight through.
    let resp = client::get(addr, "/healthz", TIMEOUT).expect("healthz");
    assert_eq!(resp.status, 200);
    let stats = client::get(addr, "/stats", TIMEOUT).expect("stats").body;
    assert_eq!(stats.get("read_timeouts").and_then(Json::as_u64), Some(1));
    server.join();
}

#[test]
fn overload_sheds_with_503_and_retry_after() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(3),
        ..config()
    })
    .expect("daemon starts");
    let addr = server.addr();

    // One silent connection pins the single worker (it blocks reading until
    // the 3 s read timeout), one more fills the queue…
    let pin = TcpStream::connect(addr).expect("pin connect");
    std::thread::sleep(Duration::from_millis(300));
    let queued = TcpStream::connect(addr).expect("queued connect");
    std::thread::sleep(Duration::from_millis(300));

    // …so everything else must be shed 503 + Retry-After without blocking.
    let mut sheds = 0;
    for _ in 0..5 {
        let resp = client::get(addr, "/healthz", Duration::from_secs(1)).expect("shed response");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(1));
        assert_eq!(
            resp.body.get("error").and_then(Json::as_str),
            Some("overloaded")
        );
        sheds += 1;
    }
    assert_eq!(sheds, 5);
    drop(pin);
    drop(queued);

    // Once the stalled connections clear, service resumes.
    std::thread::sleep(Duration::from_millis(200));
    let resp = client::get(addr, "/healthz", TIMEOUT).expect("healthz after overload");
    assert_eq!(resp.status, 200);
    let stats = client::get(addr, "/stats", TIMEOUT).expect("stats").body;
    assert!(stats.get("shed").and_then(Json::as_u64).unwrap() >= 5);
    server.join();
}

#[test]
fn panics_burn_one_request_not_the_daemon() {
    let server = Server::start(ServeConfig {
        debug_endpoints: true,
        ..config()
    })
    .expect("daemon starts");
    let addr = server.addr();

    let boom = client::post(addr, "/debug/panic", &Json::Obj(vec![]), TIMEOUT)
        .expect("panic answered as a response");
    assert_eq!(boom.status, 500);
    assert_eq!(
        boom.body.get("error").and_then(Json::as_str),
        Some("internal")
    );

    // The worker that caught the panic keeps serving.
    for _ in 0..8 {
        let resp = client::post(addr, "/classify", &classify_body("3-coloring"), TIMEOUT)
            .expect("request after panic");
        assert_eq!(resp.status, 200);
    }
    let stats = client::get(addr, "/stats", TIMEOUT).expect("stats").body;
    assert_eq!(stats.get("panics").and_then(Json::as_u64), Some(1));
    server.join();
}

#[test]
fn expired_deadline_sheds_compute_with_503() {
    let server = Server::start(ServeConfig {
        deadline: Duration::ZERO,
        ..config()
    })
    .expect("daemon starts");
    let addr = server.addr();

    let problems = Json::Arr((0..8).map(|_| Json::str("3-coloring")).collect::<Vec<_>>());
    let resp = client::post(
        addr,
        "/classify-batch",
        &Json::Obj(vec![("problems".into(), problems)]),
        TIMEOUT,
    )
    .expect("deadline response");
    assert_eq!(resp.status, 503);
    assert_eq!(
        resp.body.get("error").and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    assert_eq!(resp.retry_after, Some(1));
    let stats = client::get(addr, "/stats", TIMEOUT).expect("stats").body;
    assert_eq!(
        stats.get("deadline_exceeded").and_then(Json::as_u64),
        Some(1)
    );
    server.join();
}

#[test]
fn graceful_shutdown_drains_flushes_and_warm_restarts() {
    let snapshot = temp_path("graceful");
    let _ = std::fs::remove_file(&snapshot);

    let server = Server::start(ServeConfig {
        snapshot_path: Some(snapshot.clone()),
        ..config()
    })
    .expect("daemon starts");
    let addr = server.addr();

    // Warm the memo, then put a request in flight and shut down underneath it.
    let warm =
        client::post(addr, "/classify", &classify_body("3-coloring"), TIMEOUT).expect("classify");
    assert_eq!(warm.status, 200);
    let in_flight = std::thread::spawn(move || {
        client::post(
            addr,
            "/sweep",
            &Json::Obj(vec![
                ("delta".into(), Json::uint(2)),
                ("labels".into(), Json::uint(2)),
            ]),
            TIMEOUT,
        )
        .expect("in-flight sweep answered")
    });
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown();
    // Drain contract: the in-flight request completes normally.
    let swept = in_flight.join().expect("in-flight thread");
    assert_eq!(swept.status, 200, "{:?}", swept.body);
    let report = server.join();
    let flushed = report
        .flushed_entries
        .expect("snapshot path was configured");
    assert!(flushed > 0, "the warm memo must have been flushed");
    assert!(report.flush_error.is_none());

    // The flushed file is a digest-valid snapshot…
    let on_disk = SweepSnapshot::load(&snapshot).expect("flushed snapshot is valid");
    assert_eq!(on_disk.memo.len(), flushed);

    // …and a restarted daemon warm-boots from it and answers from cache.
    let server = Server::start(ServeConfig {
        snapshot_path: Some(snapshot.clone()),
        ..config()
    })
    .expect("daemon restarts");
    assert_eq!(server.boot.warm_memo_entries, flushed);
    let addr = server.addr();
    let again = client::post(addr, "/classify", &classify_body("3-coloring"), TIMEOUT)
        .expect("classify after restart");
    assert_eq!(again.status, 200);
    let stats = client::get(addr, "/stats", TIMEOUT).expect("stats").body;
    assert!(stats.get("cache_hits").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(stats.get("cache_misses").and_then(Json::as_u64), Some(0));
    server.join();
    let _ = std::fs::remove_file(&snapshot);
}

#[test]
fn sweep_campaign_interrupted_by_restart_converges_via_the_flushed_memo() {
    let snapshot = temp_path("campaign");
    let _ = std::fs::remove_file(&snapshot);

    // Reference: the uninterrupted (δ=2, 3-label) campaign, computed locally.
    let family = CanonicalFamily::new(2, 3);
    let engine = ClassificationEngine::new();
    let (reference, completed) = family
        .sweep(
            &engine,
            SweepSnapshot::fresh(2, 3, EngineKind::Bitsliced, family.ranges(2)),
            &SweepCheckpoint::default(),
        )
        .expect("reference sweep");
    assert!(completed);

    // Daemon 1: run one bounded leg, then shut down mid-campaign. The
    // campaign cursor lives in daemon memory and dies here; the memo entries
    // the leg produced are flushed to the snapshot.
    let server = Server::start(ServeConfig {
        snapshot_path: Some(snapshot.clone()),
        ..config()
    })
    .expect("daemon starts");
    let leg = client::post(
        server.addr(),
        "/sweep",
        &Json::Obj(vec![
            ("delta".into(), Json::uint(2)),
            ("labels".into(), Json::uint(3)),
            ("max_orbits".into(), Json::uint(256)),
        ]),
        TIMEOUT,
    )
    .expect("bounded leg");
    assert_eq!(leg.status, 200, "{:?}", leg.body);
    assert_eq!(
        leg.body.get("completed").and_then(Json::as_bool),
        Some(false)
    );
    let report = server.join();
    let flushed = report.flushed_entries.expect("snapshot configured");
    assert!(flushed > 0);

    // Daemon 2: the campaign restarts from scratch, but the flushed memo
    // answers the already-decided orbits, and the final histograms match the
    // uninterrupted reference exactly.
    let server = Server::start(ServeConfig {
        snapshot_path: Some(snapshot.clone()),
        ..config()
    })
    .expect("daemon restarts");
    assert_eq!(server.boot.warm_memo_entries, flushed);
    let addr = server.addr();
    let mut last = None;
    for _ in 0..64 {
        let resp = client::post(
            addr,
            "/sweep",
            &Json::Obj(vec![
                ("delta".into(), Json::uint(2)),
                ("labels".into(), Json::uint(3)),
                ("max_orbits".into(), Json::uint(1 << 20)),
            ]),
            Duration::from_secs(60),
        )
        .expect("resumed leg");
        assert_eq!(resp.status, 200, "{:?}", resp.body);
        if resp.body.get("completed").and_then(Json::as_bool) == Some(true) {
            last = Some(resp.body);
            break;
        }
    }
    let done = last.expect("campaign completed");
    assert_eq!(
        done.get("problems_accounted").and_then(Json::as_u64),
        Some(reference.outcome.problems.total())
    );
    assert_eq!(
        done.get("orbits_classified").and_then(Json::as_u64),
        Some(reference.outcome.orbits.total())
    );
    // Orbit histogram equality, class by class.
    let orbits = done.get("orbits").expect("orbits histogram");
    for &(name, count) in reference.outcome.orbits.entries().iter() {
        assert_eq!(
            orbits.get(name).and_then(Json::as_u64),
            Some(count),
            "orbit histogram class {name}"
        );
    }
    let stats = client::get(addr, "/stats", TIMEOUT).expect("stats").body;
    assert!(
        stats.get("cache_hits").and_then(Json::as_u64).unwrap() > 0,
        "the flushed memo must have answered the replayed orbits"
    );
    server.join();
    let _ = std::fs::remove_file(&snapshot);
}

/// Reads one `Content-Length`-framed response off a kept-alive socket and
/// returns its head and parsed body. Bytes past the response stay in `buf`
/// for the next call.
fn read_framed(conn: &mut TcpStream, buf: &mut Vec<u8>) -> (String, Json) {
    let head_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break at;
        }
        let mut chunk = [0u8; 1024];
        let n = conn.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before a response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).expect("UTF-8 head");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length");
    buf.drain(..head_end + 4);
    while buf.len() < length {
        let mut chunk = [0u8; 1024];
        let n = conn.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body: Vec<u8> = buf.drain(..length).collect();
    let body = rooted_tree_lcl::serve::json::parse(std::str::from_utf8(&body).unwrap())
        .expect("JSON body");
    (head, body)
}

/// Asserts the daemon closed `conn`: the next read sees EOF (or a reset).
fn assert_closed(conn: &mut TcpStream) {
    let mut byte = [0u8; 1];
    match conn.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("expected the daemon to close the connection, got {other:?}"),
    }
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(TIMEOUT)).unwrap();
    conn
}

#[test]
fn keep_alive_answers_many_requests_on_one_socket_in_order() {
    let server = Server::start(config()).expect("daemon starts");
    let addr = server.addr();
    let before = client::get(addr, "/stats", TIMEOUT).expect("stats").body;
    let connections = |stats: &Json| stats.get("connections").and_then(Json::as_u64).unwrap();

    let mut conn = connect(addr);
    let mut buf = Vec::new();
    for (problem, short) in [
        ("3-coloring", "log*"),
        ("mis", "O(1)"),
        ("3-coloring", "log*"),
    ] {
        let body = classify_body(problem).to_compact();
        let wire = format!(
            "POST /classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        conn.write_all(wire.as_bytes()).expect("write request");
        let (head, body) = read_framed(&mut conn, &mut buf);
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        assert_eq!(
            body.get("complexity_short").and_then(Json::as_str),
            Some(short),
            "{problem}"
        );
    }
    // /stats on the same socket: exactly one connection more than before.
    conn.write_all(b"GET /stats HTTP/1.1\r\n\r\n").unwrap();
    let (_, after) = read_framed(&mut conn, &mut buf);
    assert_eq!(connections(&after), connections(&before) + 1);
    assert_eq!(
        after.get("requests").and_then(Json::as_u64),
        before.get("requests").and_then(Json::as_u64).map(|r| r + 4)
    );
    drop(conn);
    server.join();
}

#[test]
fn pipelined_requests_in_one_write_are_answered_in_order() {
    let server = Server::start(config()).expect("daemon starts");
    let mut conn = connect(server.addr());
    let body = classify_body("3-coloring").to_compact();
    let wire = format!(
        "GET /healthz HTTP/1.1\r\n\r\nPOST /classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(wire.as_bytes())
        .expect("write both requests");
    let mut buf = Vec::new();
    let (head, first) = read_framed(&mut conn, &mut buf);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
    let (head, second) = read_framed(&mut conn, &mut buf);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(
        second.get("complexity_short").and_then(Json::as_str),
        Some("log*")
    );
    drop(conn);
    server.join();
}

#[test]
fn http10_connection_close_and_non_2xx_each_close_the_connection() {
    let server = Server::start(config()).expect("daemon starts");
    let addr = server.addr();
    for (wire, status) in [
        (b"GET /healthz HTTP/1.0\r\n\r\n".as_slice(), "200"),
        (b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", "200"),
        (b"GET /no/such/route HTTP/1.1\r\n\r\n", "404"),
        (
            b"POST /classify HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
            "400",
        ),
    ] {
        let mut conn = connect(addr);
        conn.write_all(wire).expect("write request");
        let mut buf = Vec::new();
        let (head, _) = read_framed(&mut conn, &mut buf);
        let what = String::from_utf8_lossy(wire);
        assert!(
            head.starts_with(&format!("HTTP/1.1 {status}")),
            "{what}: {head}"
        );
        assert!(head.contains("Connection: close"), "{what}: {head}");
        assert_closed(&mut conn);
    }
    // HTTP/1.0 may still opt in.
    let mut conn = connect(addr);
    conn.write_all(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let (head, _) = read_framed(&mut conn, &mut Vec::new());
    assert!(head.contains("Connection: keep-alive"), "{head}");
    drop(conn);
    server.join();
}

#[test]
fn idle_kept_alive_connection_yields_to_a_queued_client() {
    let server = Server::start(ServeConfig {
        workers: 1,
        read_timeout: Duration::from_secs(5),
        ..config()
    })
    .expect("daemon starts");
    let addr = server.addr();
    let mut idle = connect(addr);
    idle.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (head, _) = read_framed(&mut idle, &mut Vec::new());
    assert!(head.contains("Connection: keep-alive"), "{head}");

    // The single worker now idles on `idle`; a second client must not wait
    // out the 5 s read timeout.
    let start = std::time::Instant::now();
    let resp = client::get(addr, "/healthz", TIMEOUT).expect("queued client answered");
    assert_eq!(resp.status, 200);
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "the queued client waited {:?}",
        start.elapsed()
    );
    assert_closed(&mut idle);
    server.join();
}

#[test]
fn join_returns_promptly_while_a_client_holds_an_idle_connection() {
    let server = Server::start(config()).expect("daemon starts");
    let mut idle = connect(server.addr());
    idle.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (head, _) = read_framed(&mut idle, &mut Vec::new());
    assert!(head.contains("Connection: keep-alive"), "{head}");

    let start = std::time::Instant::now();
    server.join();
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "join waited {:?} on an idle connection (read timeout is 5 s)",
        start.elapsed()
    );
    assert_closed(&mut idle);
}

#[test]
fn stalled_second_request_on_a_kept_alive_connection_answers_408() {
    let server = Server::start(ServeConfig {
        read_timeout: Duration::from_millis(250),
        ..config()
    })
    .expect("daemon starts");
    let addr = server.addr();
    let mut conn = connect(addr);
    conn.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    let (head, _) = read_framed(&mut conn, &mut buf);
    assert!(head.contains("Connection: keep-alive"), "{head}");

    // Half of the next request, then silence.
    conn.write_all(b"GET /hea").unwrap();
    let mut out = buf;
    conn.read_to_end(&mut out).expect("read response");
    let text = String::from_utf8_lossy(&out);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "a stalled second request must answer 408, got: {text}"
    );
    assert!(text.contains("Connection: close"), "{text}");
    let stats = client::get(addr, "/stats", TIMEOUT).expect("stats").body;
    assert_eq!(stats.get("read_timeouts").and_then(Json::as_u64), Some(1));
    server.join();
}
