//! Disk-store integration over real sockets: a restarted server must
//! answer every previously-seen request from disk with byte-identical
//! bodies, and the `/metrics` counters must stay monotone across a full
//! trip through the cache hierarchy (miss → disk write → RAM hit →
//! restart → disk hit).

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
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

/// Boots a server on an ephemeral port.
fn boot(config: ServerConfig) -> (ServerHandle, thread::JoinHandle<()>) {
    let server = Server::bind(&config).expect("bind ephemeral port");
    let handle = server.handle();
    let runner = thread::spawn(move || server.run().expect("server run"));
    (handle, runner)
}

/// A fresh scratch directory for one test's store.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swserve-store-test-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn store_config(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        store: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

#[test]
fn a_restarted_server_answers_previous_requests_from_disk_byte_identical() {
    let dir = scratch("restart");
    let requests: [(&str, &str); 4] = [
        ("/v1/gate/eval", r#"{"gate":"maj3","inputs":[0,1,1]}"#),
        ("/v1/gate/eval", r#"{"gate":"xor","inputs":[1,0]}"#),
        (
            "/v1/gate/eval",
            r#"{"kind":"circuit","circuit":"full_adder","inputs":[1,1,1]}"#,
        ),
        ("/v1/netlist/eval", r#"{"demo":"rca4"}"#),
    ];

    // First life: every request is a genuine miss that writes through.
    let (handle, runner) = boot(store_config(&dir));
    let mut firsts = Vec::new();
    for (path, raw) in requests {
        let response = call(handle.addr(), "POST", path, raw);
        assert_eq!(response.status, 200, "{raw}: {}", response.body);
        assert_eq!(response.header("x-cache"), Some("miss"), "{raw}");
        firsts.push(response.body);
    }
    handle.shutdown();
    runner.join().unwrap();

    // Second life on the same store directory: the RAM cache is empty,
    // so every repeat must be answered by the disk level.
    let (handle, runner) = boot(store_config(&dir));
    for ((path, raw), first) in requests.iter().zip(&firsts) {
        let response = call(handle.addr(), "POST", path, raw);
        assert_eq!(response.status, 200, "{raw}: {}", response.body);
        assert_eq!(
            response.header("x-cache"),
            Some("disk"),
            "{raw}: a restarted server must answer from the disk store"
        );
        assert_eq!(
            &response.body, first,
            "{raw}: disk hit must be byte-identical to the original"
        );
        // The disk hit promoted the body to RAM; a second repeat stays
        // off the disk entirely.
        let again = call(handle.addr(), "POST", path, raw);
        assert_eq!(again.header("x-cache"), Some("ram"), "{raw}");
        assert_eq!(&again.body, first, "{raw}");
    }
    let metrics = call(handle.addr(), "GET", "/metrics", "");
    let doc = Json::parse(&metrics.body).unwrap();
    let store_hits = doc
        .get("store")
        .and_then(|s| s.get("hits"))
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!(
        store_hits,
        requests.len() as f64,
        "one disk hit per restarted request"
    );
    handle.shutdown();
    runner.join().unwrap();
}

/// Every cumulative counter in `/metrics`; gauges (`store.entries`,
/// `store.disk_bytes`) are deliberately absent.
const CUMULATIVE: &[&[&str]] = &[
    &["uptime_s"],
    &["endpoints", "gate_eval", "requests"],
    &["endpoints", "metrics", "requests"],
    &["cache", "hits"],
    &["cache", "misses"],
    &["cache", "coalesced"],
    &["store", "hits"],
    &["store", "misses"],
    &["store", "puts"],
    &["store", "read_bytes"],
    &["store", "compactions"],
    &["store", "prewarm_records"],
    &["jobs", "accepted"],
    &["jobs", "done"],
    &["jobs", "failed"],
    &["shed"],
    &["connections"],
];

fn counter(doc: &Json, path: &[&str]) -> f64 {
    let mut node = doc;
    for key in path {
        node = node
            .get(key)
            .unwrap_or_else(|| panic!("/metrics lost the {} counter", path.join(".")));
    }
    node.as_f64()
        .unwrap_or_else(|| panic!("{} is not numeric", path.join(".")))
}

#[test]
fn metrics_counters_are_monotone_across_the_cache_hierarchy() {
    let dir = scratch("monotone");
    let (handle, runner) = boot(store_config(&dir));
    let addr = handle.addr();
    let raw = r#"{"gate":"nand","inputs":[1,1]}"#;

    let snapshot = |label: &str| -> Json {
        let response = call(addr, "GET", "/metrics", "");
        assert_eq!(response.status, 200, "{label}");
        Json::parse(&response.body).unwrap()
    };

    // Walk the hierarchy: miss (evaluate + disk write), RAM hit, then a
    // second distinct request, snapshotting /metrics after every step.
    let mut snapshots = vec![snapshot("boot")];
    assert_eq!(call(addr, "POST", "/v1/gate/eval", raw).status, 200);
    snapshots.push(snapshot("after miss"));
    assert_eq!(call(addr, "POST", "/v1/gate/eval", raw).status, 200);
    snapshots.push(snapshot("after RAM hit"));
    assert_eq!(
        call(addr, "POST", "/v1/gate/eval", r#"{"gate":"xor"}"#).status,
        200
    );
    snapshots.push(snapshot("after second miss"));

    for pair in snapshots.windows(2) {
        for path in CUMULATIVE {
            let before = counter(&pair[0], path);
            let after = counter(&pair[1], path);
            assert!(
                after >= before,
                "{} went backwards: {before} -> {after}",
                path.join(".")
            );
        }
    }
    let last = snapshots.last().unwrap();
    assert_eq!(counter(last, &["cache", "misses"]), 2.0);
    assert_eq!(counter(last, &["cache", "hits"]), 1.0);
    assert_eq!(counter(last, &["store", "puts"]), 2.0);
    assert!(last.get("version").and_then(Json::as_str).is_some());

    handle.shutdown();
    runner.join().unwrap();
}
