//! Router integration over real sockets: two in-process swserve shards
//! behind a router, asserting cache affinity (the same request always
//! lands on the same shard), byte-identity with direct shard answers,
//! failover with zero failed requests when a shard dies, and job
//! submit/poll routing by the key embedded in the job id.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use swjson::Json;
use swrouter::{Router, RouterConfig, RouterHandle};
use swserve::server::{Server, ServerConfig, ServerHandle};

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

/// Boots one swserve shard on an ephemeral port.
fn boot_shard() -> (ServerHandle, thread::JoinHandle<()>) {
    let server = Server::bind(&ServerConfig::default()).expect("bind shard");
    let handle = server.handle();
    let runner = thread::spawn(move || server.run().expect("shard run"));
    (handle, runner)
}

/// Boots a router over the given shard addresses with a fast health
/// probe (tests exercise ejection and re-admission in milliseconds).
fn boot_router(shards: &[SocketAddr]) -> (RouterHandle, thread::JoinHandle<()>) {
    let config = RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: shards.iter().map(|a| a.to_string()).collect(),
        health_interval: Duration::from_millis(25),
        ..RouterConfig::default()
    };
    let router = Router::bind(&config).expect("bind router");
    let handle = router.handle();
    let runner = thread::spawn(move || router.run().expect("router run"));
    (handle, runner)
}

fn drain(addr: SocketAddr) {
    let response = call(addr, "POST", "/v1/admin/shutdown", "");
    assert_eq!(response.status, 200);
}

#[test]
fn the_router_pins_each_key_to_one_shard_and_matches_direct_bytes() {
    let (shard_a, runner_a) = boot_shard();
    let (shard_b, runner_b) = boot_shard();
    let (router, router_runner) = boot_router(&[shard_a.addr(), shard_b.addr()]);

    // Distinct requests spread over the ring; each key must stick to
    // one shard across repeats (cache affinity), and the second hit of
    // a key must come from that shard's RAM cache.
    let mut homes = std::collections::HashSet::new();
    for i in 0..16 {
        let raw = if i < 8 {
            format!(
                r#"{{"gate":"maj3","inputs":[{},{},{}]}}"#,
                i & 1,
                (i >> 1) & 1,
                (i >> 2) & 1
            )
        } else {
            let gate = if i < 12 { "xor" } else { "nand" };
            format!(
                r#"{{"gate":"{gate}","inputs":[{},{}]}}"#,
                i & 1,
                (i >> 1) & 1
            )
        };
        let first = call(router.addr(), "POST", "/v1/gate/eval", &raw);
        assert_eq!(first.status, 200, "{raw}: {}", first.body);
        let home = first.header("x-shard").expect("x-shard header").to_string();
        let again = call(router.addr(), "POST", "/v1/gate/eval", &raw);
        assert_eq!(
            again.header("x-shard"),
            Some(home.as_str()),
            "{raw}: repeats must land on the same shard"
        );
        assert_eq!(
            again.header("x-cache"),
            Some("ram"),
            "{raw}: the home shard's cache must answer the repeat"
        );
        assert_eq!(first.body, again.body);
        // Byte-identity with a direct (router-less) evaluation.
        let direct = call(shard_a.addr(), "POST", "/v1/gate/eval", &raw);
        assert_eq!(
            first.body, direct.body,
            "{raw}: routed bytes must match a direct shard answer"
        );
        homes.insert(home);
    }
    assert_eq!(
        homes.len(),
        2,
        "16 distinct keys must use both shards (lopsided ring)"
    );

    drain(router.addr());
    router_runner.join().unwrap();
    shard_a.shutdown();
    shard_b.shutdown();
    runner_a.join().unwrap();
    runner_b.join().unwrap();
}

#[test]
fn a_dead_shard_fails_over_with_zero_failed_requests() {
    let (shard_a, runner_a) = boot_shard();
    let (shard_b, runner_b) = boot_shard();
    let shard_addrs = [shard_a.addr(), shard_b.addr()];
    let (router, router_runner) = boot_router(&shard_addrs);

    let raw = r#"{"gate":"xor","inputs":[1,0]}"#;
    let first = call(router.addr(), "POST", "/v1/gate/eval", raw);
    assert_eq!(first.status, 200);
    let home: usize = first
        .header("x-shard")
        .expect("x-shard header")
        .parse()
        .expect("numeric shard index");

    // Kill the home shard (drain stops its accept loop and closes the
    // listener — to the router this is a dead backend).
    let (dead, dead_runner, survivor) = if home == 0 {
        (shard_a, runner_a, shard_b)
    } else {
        (shard_b, runner_b, shard_a)
    };
    dead.shutdown();
    dead_runner.join().unwrap();

    // The same request must keep answering 200 with identical bytes —
    // now from the surviving shard.
    for attempt in 0..4 {
        let response = call(router.addr(), "POST", "/v1/gate/eval", raw);
        assert_eq!(
            response.status, 200,
            "attempt {attempt} after shard death: {}",
            response.body
        );
        assert_eq!(
            response.body, first.body,
            "failover answers must stay byte-identical"
        );
        assert_ne!(
            response.header("x-shard"),
            Some(home.to_string().as_str()),
            "the dead shard must not answer"
        );
    }
    // The death is recorded either as a failover (a request dialed the
    // corpse and moved on) or as an ejection (the health loop got there
    // first and the ring skipped it) — depending on who noticed first.
    let metrics = router.metrics();
    let failovers = metrics.failovers.load(std::sync::atomic::Ordering::Relaxed);
    let ejections = metrics.ejections.load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        failovers + ejections >= 1,
        "the shard death must show up in the router counters"
    );
    // The health loop notices the corpse and marks it unhealthy.
    let deadline = Instant::now() + Duration::from_secs(5);
    while router.backend_healthy(home) {
        assert!(
            Instant::now() < deadline,
            "health loop never ejected the dead shard"
        );
        thread::sleep(Duration::from_millis(10));
    }

    drain(router.addr());
    router_runner.join().unwrap();
    survivor.shutdown();
}

#[test]
fn jobs_submit_through_the_router_and_poll_on_the_same_shard() {
    let (shard_a, runner_a) = boot_shard();
    let (shard_b, runner_b) = boot_shard();
    let (router, router_runner) = boot_router(&[shard_a.addr(), shard_b.addr()]);

    let accepted = call(
        router.addr(),
        "POST",
        "/v1/jobs",
        r#"{"kind":"sleep","ms":50}"#,
    );
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let submit_shard = accepted.header("x-shard").expect("x-shard").to_string();
    let id = Json::parse(&accepted.body)
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .expect("job id")
        .to_string();

    // Polls route by the key baked into the id, so they reach the shard
    // that owns the job.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let poll = call(router.addr(), "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(poll.status, 200, "{}", poll.body);
        assert_eq!(
            poll.header("x-shard"),
            Some(submit_shard.as_str()),
            "job polls must have affinity with the submitting shard"
        );
        let doc = Json::parse(&poll.body).unwrap();
        if doc.get("status").and_then(Json::as_str) == Some("done") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "job never finished through the router: {}",
            poll.body
        );
        thread::sleep(Duration::from_millis(25));
    }

    drain(router.addr());
    router_runner.join().unwrap();
    shard_a.shutdown();
    shard_b.shutdown();
    runner_a.join().unwrap();
    runner_b.join().unwrap();
}

/// A stand-in shard: `GET /healthz` answers 200, every other request
/// `status`, each written by swserve's own response writer.
fn fixed_status_shard(status: u16) -> SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            thread::spawn(move || {
                while let Ok(request) = swserve::http::read_request(&stream) {
                    let (code, body) = if request.path == "/healthz" {
                        (200, r#"{"status":"ok"}"#.to_string())
                    } else {
                        (status, swserve::http::error_body("stand-in shard"))
                    };
                    if swserve::http::write_json(&mut stream, code, &[], &body, true).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn relayed_statuses_keep_their_reason_phrases() {
    for (status, phrase) in [(405, "Method Not Allowed"), (413, "Payload Too Large")] {
        let shard = fixed_status_shard(status);
        let (router, runner) = boot_router(&[shard]);
        let mut stream = TcpStream::connect(router.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let body = r#"{"gate":"maj3","inputs":[0,1,1]}"#;
        let head = format!(
            "POST /v1/gate/eval HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read to close");
        let status_line = raw.lines().next().unwrap_or_default();
        assert_eq!(status_line, format!("HTTP/1.1 {status} {phrase}"));
        assert!(raw.contains("x-shard: 0"), "relayed, not answered locally");
        drain(router.addr());
        runner.join().unwrap();
    }
}
