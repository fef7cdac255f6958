//! Shared helpers for the benchmark binaries.
//!
//! The `parbench` reports (`BENCH_batch.json`, `BENCH_rhs.json`,
//! `BENCH_serve.json`, ...) use machine-readable JSON envelopes so downstream
//! tooling can parse them uniformly. The grid-sweep benchmarks share one
//! envelope shape ([`write_bench_json`]); other benchmarks assemble their
//! own document and write it through [`write_report`]. The [`httpc`]
//! module is the tiny blocking HTTP/1.1 client the `swserve` loadtest and
//! smoke probe drive the server with.

use swrun::json::Json;

/// Assembles the common benchmark-report envelope, with the machine's
/// hardware thread count (`cpus`), writes it to `out` with a trailing
/// newline, and prints the path.
///
/// # Panics
///
/// Panics if the report file cannot be written.
pub fn write_bench_json(out: &str, benchmark: &str, unit: &str, reference: &str, grids: Vec<Json>) {
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let report = Json::obj([
        ("benchmark", Json::str(benchmark)),
        ("unit", Json::str(unit)),
        ("reference", Json::str(reference)),
        ("cpus", Json::Num(cpus as f64)),
        ("grids", Json::Arr(grids)),
    ]);
    write_report(out, &report);
}

/// Writes any JSON benchmark report to `out` with a trailing newline and
/// prints the path. Use this for reports whose shape doesn't fit the
/// grid-sweep envelope of [`write_bench_json`].
///
/// # Panics
///
/// Panics if the report file cannot be written.
pub fn write_report(out: &str, report: &Json) {
    std::fs::write(out, report.render() + "\n").expect("failed to write report");
    println!("wrote {out}");
}

/// A minimal blocking HTTP/1.1 client over `std::net`, just enough to
/// drive the `swserve` API: keep-alive connections, responses read by
/// [`swserve::http::read_response`] through one buffer per connection,
/// lowercase header access.
pub mod httpc {
    use std::io::{BufReader, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    /// One parsed response.
    #[derive(Debug)]
    pub struct Response {
        /// The HTTP status code.
        pub status: u16,
        /// Header name/value pairs, names lowercased.
        pub headers: Vec<(String, String)>,
        /// The body with the server's cosmetic trailing newline removed.
        pub body: String,
    }

    impl Response {
        /// The first header with this (lowercase) name.
        pub fn header(&self, name: &str) -> Option<&str> {
            self.headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        }
    }

    /// A keep-alive connection to the server.
    pub struct Client {
        /// The connection, buffered for reading; requests are written
        /// to the stream underneath.
        reader: BufReader<TcpStream>,
    }

    impl Client {
        /// Connects with a generous read timeout.
        ///
        /// # Errors
        ///
        /// Propagates connection failures.
        pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            stream.set_nodelay(true)?;
            Ok(Client {
                reader: BufReader::new(stream),
            })
        }

        /// Issues one request and reads the response, reusing the
        /// connection (keep-alive).
        ///
        /// # Errors
        ///
        /// Socket failures and malformed responses surface as
        /// `io::Error`.
        pub fn request(
            &mut self,
            method: &str,
            path: &str,
            body: &str,
        ) -> std::io::Result<Response> {
            let head = format!(
                "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
                body.len()
            );
            let stream = self.reader.get_mut();
            stream.write_all(head.as_bytes())?;
            stream.write_all(body.as_bytes())?;
            let response = swserve::http::read_response(&mut self.reader)?;
            let mut body = String::from_utf8(response.body).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 body")
            })?;
            if body.ends_with('\n') {
                body.pop();
            }
            Ok(Response {
                status: response.status,
                headers: response.headers,
                body,
            })
        }
    }
}
