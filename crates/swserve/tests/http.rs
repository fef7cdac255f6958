//! End-to-end tests over real sockets: an in-process server on an
//! ephemeral port, plain `TcpStream` clients, and assertions on the
//! exact serving behaviors the crate promises — byte-identity with the
//! CLI evaluation path, cache hits on repeats, single-flight coalescing
//! under concurrency, 429 shedding (not hangs) past the queue depth,
//! and graceful drain.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use swjson::Json;
use swserve::server::{Server, ServerConfig, ServerHandle};

/// A minimal HTTP/1.1 response as the tests see it.
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request on a fresh connection and reads the response.
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut reader = BufReader::new(&stream);
    let response = swserve::http::read_response(&mut reader).expect("well-formed response");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to close");
    assert!(rest.is_empty(), "body length matches content-length");
    assert!(
        response.header("content-length").is_some(),
        "content-length present"
    );
    let body = String::from_utf8(response.body).expect("UTF-8 response");
    // Responses end with a cosmetic newline counted in content-length.
    Response {
        status: response.status,
        headers: response.headers,
        body: body.strip_suffix('\n').unwrap_or(&body).to_string(),
    }
}

/// Boots a server on an ephemeral port; returns its handle and the
/// thread running the accept loop.
fn boot(config: ServerConfig) -> (ServerHandle, thread::JoinHandle<()>) {
    let server = Server::bind(&config).expect("bind ephemeral port");
    let handle = server.handle();
    let runner = thread::spawn(move || server.run().expect("server run"));
    (handle, runner)
}

#[test]
fn responses_are_byte_identical_to_the_cli_evaluation() {
    let (handle, runner) = boot(ServerConfig::default());
    let requests = [
        r#"{"gate":"maj3","inputs":[0,1,1]}"#,
        r#"{"gate":"xor"}"#,
        r#"{"gate":"nand","inputs":[1,1],"backend":"ideal"}"#,
        r#"{"kind":"circuit","circuit":"full_adder","inputs":[1,1,1]}"#,
        r#"{"kind":"circuit","circuit":"ripple_carry_adder","width":2}"#,
    ];
    for raw in requests {
        let response = call(handle.addr(), "POST", "/v1/gate/eval", raw);
        assert_eq!(response.status, 200, "{raw}: {}", response.body);
        let cli = swserve::respond(&Json::parse(raw).unwrap()).unwrap();
        assert_eq!(response.body, cli, "{raw}: HTTP and CLI bytes must match");
    }
    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn netlist_endpoint_compiles_scores_and_caches() {
    let (handle, runner) = boot(ServerConfig::default());
    let addr = handle.addr();
    let requests = [
        r#"{"demo":"rca4"}"#,
        r#"{"demo":"mul2","inputs":[1,1,1,0]}"#,
        r#"{"table":["01101001","00010111"]}"#,
        r#"{"source":"input a b\noutput y\ny = maj3 a a b\n"}"#,
    ];
    for raw in requests {
        let response = call(addr, "POST", "/v1/netlist/eval", raw);
        assert_eq!(response.status, 200, "{raw}: {}", response.body);
        let cli = swserve::netlist::respond(&Json::parse(raw).unwrap()).unwrap();
        assert_eq!(response.body, cli, "{raw}: HTTP and CLI bytes must match");
        let doc = Json::parse(&response.body).unwrap();
        assert_eq!(
            doc.get("fanout")
                .and_then(|f| f.get("legal"))
                .and_then(Json::as_bool),
            Some(true),
            "{raw}: every compiled netlist must be fan-out legal"
        );
        let ratios = doc.get("cost").and_then(|c| c.get("ratios")).unwrap();
        for key in ["energy_n16", "energy_n7", "delay_n16", "delay_n7"] {
            let value = ratios.get(key).and_then(Json::as_f64).unwrap();
            assert!(value.is_finite() && value > 0.0, "{raw}: {key}={value}");
        }
    }
    // A repeat is a cache hit with identical bytes.
    let first = call(addr, "POST", "/v1/netlist/eval", r#"{"demo":"rca4"}"#);
    assert_eq!(first.header("x-cache"), Some("ram"));
    // The 2-bit multiplier evaluated at 3×2: outputs are 6 = 0110 LE.
    let mul = call(
        addr,
        "POST",
        "/v1/netlist/eval",
        r#"{"demo":"mul2","inputs":[1,1,0,1]}"#,
    );
    let outputs: Vec<f64> = Json::parse(&mul.body)
        .unwrap()
        .get("outputs")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    assert_eq!(outputs, vec![0.0, 1.0, 1.0, 0.0]);
    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn repeats_hit_the_cache_and_concurrent_identicals_coalesce() {
    let (handle, runner) = boot(ServerConfig::default());
    let addr = handle.addr();
    let raw = r#"{"gate":"xor","inputs":[1,0]}"#;

    let first = call(addr, "POST", "/v1/gate/eval", raw);
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-cache"), Some("miss"));
    let second = call(addr, "POST", "/v1/gate/eval", raw);
    assert_eq!(second.header("x-cache"), Some("ram"));
    assert_eq!(first.body, second.body);

    // 16 clients fire an identical *fresh* request at once; the metrics
    // must show exactly one underlying evaluation (one miss) with the
    // rest hits or coalesced followers.
    let misses_before = handle.metrics().cache_misses.load(Ordering::Relaxed);
    let fresh = r#"{"gate":"maj3","inputs":[1,0,1]}"#;
    let barrier = Arc::new(Barrier::new(16));
    let clients: Vec<_> = (0..16)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                call(addr, "POST", "/v1/gate/eval", fresh)
            })
        })
        .collect();
    let mut bodies = Vec::new();
    for client in clients {
        let response = client.join().unwrap();
        assert_eq!(
            response.status, 200,
            "no request may fail: {}",
            response.body
        );
        bodies.push(response.body);
    }
    bodies.dedup();
    assert_eq!(bodies.len(), 1, "all clients see identical bytes");
    let misses_after = handle.metrics().cache_misses.load(Ordering::Relaxed);
    assert_eq!(
        misses_after - misses_before,
        1,
        "16 identical concurrent requests cost exactly one evaluation"
    );

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn sixty_four_concurrent_connections_all_get_answers() {
    let (handle, runner) = boot(ServerConfig {
        queue_depth: 64,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let barrier = Arc::new(Barrier::new(64));
    let clients: Vec<_> = (0..64)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                // Distinct requests: each costs a real evaluation.
                let raw = format!(
                    r#"{{"gate":"maj3","inputs":[{},{},{}]}}"#,
                    i & 1,
                    (i >> 1) & 1,
                    (i >> 2) & 1
                );
                call(addr, "POST", "/v1/gate/eval", &raw)
            })
        })
        .collect();
    for client in clients {
        let response = client.join().unwrap();
        assert_eq!(
            response.status, 200,
            "zero dropped non-shed requests: {}",
            response.body
        );
    }
    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn overfilling_the_queue_sheds_with_429_instead_of_hanging() {
    // One worker, depth 2: two long sleep jobs fill the queue, the
    // third distinct job must shed immediately.
    let (handle, runner) = boot(ServerConfig {
        workers: 1,
        queue_depth: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let a = call(
        addr,
        "POST",
        "/v1/jobs",
        r#"{"kind":"sleep","ms":400,"tag":"a"}"#,
    );
    let b = call(
        addr,
        "POST",
        "/v1/jobs",
        r#"{"kind":"sleep","ms":400,"tag":"b"}"#,
    );
    assert_eq!(a.status, 202, "{}", a.body);
    assert_eq!(b.status, 202, "{}", b.body);
    let shed = call(
        addr,
        "POST",
        "/v1/jobs",
        r#"{"kind":"sleep","ms":400,"tag":"c"}"#,
    );
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert_eq!(shed.header("retry-after"), Some("1"));

    // The accepted jobs still finish and report via GET /v1/jobs/:id.
    let id = Json::parse(&a.body)
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let status = call(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status.status, 200);
        let doc = Json::parse(&status.body).unwrap();
        if doc.get("status").and_then(Json::as_str) == Some("done") {
            assert_eq!(
                doc.get("result")
                    .and_then(|r| r.get("slept_ms"))
                    .and_then(Json::as_f64),
                Some(400.0)
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job did not finish in time: {}",
            status.body
        );
        thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn health_metrics_and_errors_speak_json() {
    let (handle, runner) = boot(ServerConfig::default());
    let addr = handle.addr();

    let health = call(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    let health_doc = Json::parse(&health.body).unwrap();
    assert_eq!(health_doc.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        health_doc.get("draining").and_then(Json::as_bool),
        Some(false)
    );

    call(
        addr,
        "POST",
        "/v1/gate/eval",
        r#"{"gate":"maj3","inputs":[1,1,0]}"#,
    );
    let metrics = call(addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    let doc = Json::parse(&metrics.body).unwrap();
    let gate_requests = doc
        .get("endpoints")
        .and_then(|e| e.get("gate_eval"))
        .and_then(|g| g.get("requests"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(gate_requests >= 1.0);

    let bad = call(addr, "POST", "/v1/gate/eval", "{broken");
    assert_eq!(bad.status, 400);
    assert!(Json::parse(&bad.body).unwrap().get("error").is_some());

    let missing = call(addr, "GET", "/v1/gates/nope", "");
    assert_eq!(missing.status, 404);

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn graceful_shutdown_drains_and_stops_serving() {
    let (handle, runner) = boot(ServerConfig::default());
    let addr = handle.addr();
    // Accept a job, then ask for a drain over HTTP.
    let accepted = call(addr, "POST", "/v1/jobs", r#"{"kind":"sleep","ms":100}"#);
    assert_eq!(accepted.status, 202);
    let drain = call(addr, "POST", "/v1/admin/shutdown", "");
    assert_eq!(drain.status, 200);
    assert!(drain.body.contains("draining"));
    // run() returns only after open connections and the job finish.
    runner.join().unwrap();
    assert!(handle.draining());
    // The accepted job ran to completion before shutdown returned.
    assert_eq!(
        handle.metrics().jobs_done.load(Ordering::Relaxed),
        1,
        "drain must finish accepted jobs"
    );
    // New connections are refused (or reset) after drain.
    let late = TcpStream::connect(addr);
    match late {
        Err(_) => {}
        Ok(mut stream) => {
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buffer = Vec::new();
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            let n = stream.read_to_end(&mut buffer).unwrap_or(0);
            assert_eq!(n, 0, "a drained server must not answer new requests");
        }
    }
}
