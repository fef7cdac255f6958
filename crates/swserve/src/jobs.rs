//! Asynchronous micromagnetic jobs: `POST /v1/jobs` + `GET /v1/jobs/:id`.
//!
//! Gate evaluations on the analytic backend answer inline, but a full
//! LLG simulation takes seconds to minutes — those are dispatched onto
//! an [`swrun::ResidentPool`] and polled by id. Three serving properties
//! matter here:
//!
//! * **Content-addressed ids**: a job's id embeds the hash of its
//!   canonical request, and resubmitting an identical request returns
//!   the existing job instead of simulating twice.
//! * **Calibration amortization**: micromagnetic backends are kept per
//!   configuration and cloned per job; clones share the drive-trim
//!   cache, so a resident server pays the calibration LLG runs once —
//!   this is the structural advantage over one-process-per-run CLI use.
//! * **Manifest-backed results**: every finished job is appended to a
//!   JSON-lines manifest (same format as `swrun` batches), flushed per
//!   record, so results survive the server.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use swgates::encoding::Bit;
use swgates::layout::{TriangleMaj3Layout, TriangleXorLayout};
use swgates::mumag::{MumagBackend, TriangleLayout};
use swjson::Json;
use swrun::gates::{run_to_json, BatchedBackend, PatternBatchReport};
use swrun::resident::{JobHandle, JobStage, ResidentPool};
use swrun::ManifestWriter;

use crate::cache::content_key;
use crate::eval::EvalError;

fn bad(message: impl Into<String>) -> EvalError {
    EvalError {
        message: message.into(),
    }
}

/// Why a job submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// The request is malformed (HTTP 400).
    Invalid(EvalError),
    /// Admission control shed the request (HTTP 429).
    Overloaded,
    /// The server is draining (HTTP 503).
    Closed,
}

/// Validates and canonicalizes a job request.
///
/// Kinds: `maj3` / `xor` run the micromagnetic gate on the fast layout.
/// `inputs` = bit pattern evaluates one pattern; `batch: K` instead
/// sweeps **every** input pattern through the K-way lockstep batched
/// solver (`inputs` and `batch` are mutually exclusive). Optional
/// `threads` sets the per-sweep parallel width either way. `sleep`
/// (`ms` ≤ 10000) is a diagnostic no-op job used by tests and smoke
/// runs to exercise queueing without burning minutes of LLG time.
///
/// # Errors
///
/// [`EvalError`] describing the malformation.
pub fn normalize_job(request: &Json) -> Result<Json, EvalError> {
    let fields = request
        .as_obj()
        .ok_or_else(|| bad("job request must be a JSON object"))?;
    let kind = request
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("job requests need a `kind` string"))?;
    match kind {
        "maj3" | "xor" => {
            for key in fields.keys() {
                if !matches!(key.as_str(), "kind" | "inputs" | "batch" | "threads") {
                    return Err(bad(format!("unknown field `{key}` in {kind} job")));
                }
            }
            let arity = if kind == "maj3" { 3 } else { 2 };
            let mut out = vec![("kind", Json::str(kind))];
            match (request.get("inputs"), request.get("batch")) {
                (Some(_), Some(_)) => {
                    return Err(bad("`inputs` and `batch` are mutually exclusive"));
                }
                (None, Some(batch)) => {
                    let k = batch
                        .as_f64()
                        .ok_or_else(|| bad("`batch` must be a number"))?;
                    if k.fract() != 0.0 || !(1.0..=16.0).contains(&k) {
                        return Err(bad("`batch` must be an integer in 1..=16"));
                    }
                    out.push(("batch", Json::Num(k)));
                }
                (Some(inputs), None) => {
                    let items = inputs
                        .as_arr()
                        .ok_or_else(|| bad("`inputs` must be an array of 0/1"))?;
                    if items.len() != arity {
                        return Err(bad(format!(
                            "{kind} takes {arity} inputs, got {}",
                            items.len()
                        )));
                    }
                    let mut bits = Vec::new();
                    for item in items {
                        match item.as_f64() {
                            Some(x) if x == 0.0 || x == 1.0 => bits.push(Json::Num(x)),
                            _ => return Err(bad("inputs must be 0 or 1")),
                        }
                    }
                    out.push(("inputs", Json::Arr(bits)));
                }
                (None, None) => {
                    return Err(bad(format!("{kind} jobs need `inputs` or `batch`")));
                }
            }
            if let Some(threads) = request.get("threads") {
                let t = threads
                    .as_f64()
                    .ok_or_else(|| bad("`threads` must be a number"))?;
                if t.fract() != 0.0 || !(1.0..=64.0).contains(&t) {
                    return Err(bad("`threads` must be an integer in 1..=64"));
                }
                out.push(("threads", Json::Num(t)));
            }
            Ok(Json::obj(out))
        }
        "sleep" => {
            for key in fields.keys() {
                if !matches!(key.as_str(), "kind" | "ms" | "tag") {
                    return Err(bad(format!("unknown field `{key}` in sleep job")));
                }
            }
            let ms = request
                .get("ms")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("sleep jobs need a numeric `ms`"))?;
            if !(0.0..=10_000.0).contains(&ms) {
                return Err(bad("`ms` must be in 0..=10000"));
            }
            let mut out = vec![("kind", Json::str("sleep")), ("ms", Json::Num(ms))];
            if let Some(tag) = request.get("tag") {
                let tag = tag.as_str().ok_or_else(|| bad("`tag` must be a string"))?;
                out.push(("tag", Json::str(tag)));
            }
            Ok(Json::obj(out))
        }
        other => Err(bad(format!(
            "unknown job kind `{other}` (expected maj3, xor or sleep)"
        ))),
    }
}

struct JobRecord {
    handle: JobHandle,
    request: Json,
}

/// Running total of observed job wall time, shared with the worker
/// closures so [`JobStore::mean_wall`] reflects finished jobs without
/// locking the job map.
#[derive(Default)]
struct WallStats {
    total_us: AtomicU64,
    count: AtomicU64,
}

impl WallStats {
    fn record(&self, wall: Duration) {
        let us = wall.as_micros().min(u128::from(u64::MAX)) as u64;
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn mean(&self) -> Option<Duration> {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return None;
        }
        Some(Duration::from_micros(
            self.total_us.load(Ordering::Relaxed) / count,
        ))
    }
}

/// The server's job subsystem.
pub struct JobStore {
    pool: ResidentPool,
    queue_depth: usize,
    jobs: Mutex<HashMap<String, JobRecord>>,
    by_key: Mutex<HashMap<u64, String>>,
    manifest: Option<Arc<ManifestWriter>>,
    /// Disk level of the result hierarchy: finished job outputs are
    /// written through, and resubmissions of jobs completed by an
    /// earlier process answer from here without simulating.
    store: Option<Arc<swstore::Store>>,
    /// Micromagnetic backends by configuration; cloned per job so the
    /// drive-trim calibration is shared across jobs.
    backends: Mutex<HashMap<String, MumagBackend>>,
    wall: Arc<WallStats>,
    next_id: AtomicU64,
}

impl JobStore {
    /// Starts the job subsystem with `workers` simulation threads and an
    /// admission bound of `queue_depth` unfinished jobs.
    pub fn start(
        workers: usize,
        queue_depth: usize,
        manifest: Option<Arc<ManifestWriter>>,
        store: Option<Arc<swstore::Store>>,
    ) -> JobStore {
        JobStore {
            pool: ResidentPool::start(workers),
            queue_depth: queue_depth.max(1),
            jobs: Mutex::new(HashMap::new()),
            by_key: Mutex::new(HashMap::new()),
            manifest,
            store,
            backends: Mutex::new(HashMap::new()),
            wall: Arc::new(WallStats::default()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Unfinished jobs (queued + running).
    pub fn in_flight(&self) -> usize {
        self.pool.in_flight()
    }

    /// Mean wall time of finished jobs, or `None` before any finish.
    /// This is the per-job cost estimate behind the `Retry-After`
    /// header on shed submissions.
    pub fn mean_wall(&self) -> Option<Duration> {
        self.wall.mean()
    }

    /// Seeds the wall-time statistics directly, so tests can pin the
    /// observed latency without running multi-second jobs.
    #[cfg(test)]
    pub(crate) fn record_wall(&self, wall: Duration) {
        self.wall.record(wall);
    }

    fn backend(&self, kind: &str, threads: usize) -> MumagBackend {
        let key = format!("{kind}:{threads}");
        let mut backends = self.backends.lock().expect("backend map poisoned");
        backends
            .entry(key)
            .or_insert_with(|| {
                let backend = MumagBackend::fast();
                if threads > 0 {
                    backend.with_threads(threads)
                } else {
                    backend
                }
            })
            .clone()
    }

    /// Submits a normalized job request (see [`normalize_job`]).
    /// Returns `(job_id, resubmitted)` — `resubmitted` is true when an
    /// identical job already existed and no new work was enqueued.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit(&self, request: &Json) -> Result<(String, bool), SubmitError> {
        let normalized = normalize_job(request).map_err(SubmitError::Invalid)?;
        let canonical = normalized.render();
        let key = content_key(&canonical);

        // Content addressing: an identical request maps to the existing
        // job, whatever state it is in.
        {
            let by_key = self.by_key.lock().expect("job index poisoned");
            if let Some(id) = by_key.get(&key) {
                return Ok((id.clone(), true));
            }
        }

        // Disk level: a previously-completed identical job — possibly
        // from an earlier process, via the store or a pre-warmed
        // manifest — answers from disk without simulating. Like the
        // by_key lookup, this bypasses admission: it costs no worker.
        let stored = self
            .store
            .as_ref()
            .and_then(|store| store.get(key))
            .and_then(|body| String::from_utf8(body).ok())
            .and_then(|text| Json::parse(&text).ok());
        if let Some(outputs) = stored {
            let sequence = self.next_id.fetch_add(1, Ordering::Relaxed);
            let id = format!("job-{sequence}-{key:016x}");
            // A trivial pool job keeps the JobRecord/JobHandle shape
            // (status, wait, stats) identical to freshly-run jobs. No
            // manifest record and no wall-stats sample: the result was
            // not computed here, and a ~0ms sample would corrupt the
            // Retry-After estimate.
            let handle = self
                .pool
                .submit(move || Ok(outputs))
                .map_err(|_| SubmitError::Closed)?;
            self.jobs.lock().expect("job map poisoned").insert(
                id.clone(),
                JobRecord {
                    handle,
                    request: normalized,
                },
            );
            self.by_key
                .lock()
                .expect("job index poisoned")
                .insert(key, id.clone());
            return Ok((id, true));
        }

        if self.pool.in_flight() >= self.queue_depth {
            return Err(SubmitError::Overloaded);
        }

        let sequence = self.next_id.fetch_add(1, Ordering::Relaxed);
        let id = format!("job-{sequence}-{key:016x}");
        let work = job_closure(&normalized, self);
        let store = self.store.clone();
        let manifest = self.manifest.clone();
        let manifest_inputs = normalized.clone();
        let manifest_id = id.clone();
        let wall_stats = Arc::clone(&self.wall);
        let handle = self
            .pool
            .submit(move || {
                let started = std::time::Instant::now();
                let result = work();
                let wall = started.elapsed();
                wall_stats.record(wall);
                let wall_ms = wall.as_secs_f64() * 1e3;
                // Write through to disk so the result survives a
                // restart; a failure only costs durability.
                if let (Some(store), Ok(outputs)) = (&store, &result) {
                    if let Err(e) = store.put(key, outputs.render().as_bytes()) {
                        eprintln!("swserve: store write failed: {e}");
                    }
                }
                if let Some(writer) = &manifest {
                    let write = match &result {
                        Ok(outputs) => writer.job_done(
                            &manifest_id,
                            manifest_inputs.clone(),
                            outputs.clone(),
                            wall_ms,
                        ),
                        Err(error) => {
                            writer.job_failed(&manifest_id, manifest_inputs.clone(), error, wall_ms)
                        }
                    };
                    if let Err(e) = write {
                        eprintln!("swserve: manifest write failed: {e}");
                    }
                }
                result
            })
            .map_err(|_| SubmitError::Closed)?;

        self.jobs.lock().expect("job map poisoned").insert(
            id.clone(),
            JobRecord {
                handle,
                request: normalized,
            },
        );
        self.by_key
            .lock()
            .expect("job index poisoned")
            .insert(key, id.clone());
        Ok((id, false))
    }

    /// The status document for job `id`, or `None` if unknown.
    pub fn status(&self, id: &str) -> Option<Json> {
        let jobs = self.jobs.lock().expect("job map poisoned");
        let record = jobs.get(id)?;
        let mut fields = vec![
            ("id", Json::str(id)),
            ("status", Json::str(record.handle.stage().as_str())),
            ("request", record.request.clone()),
        ];
        if record.handle.stage() == JobStage::Done {
            match record.handle.result().expect("done jobs have results") {
                Ok(outputs) => fields.push(("result", outputs)),
                Err(error) => fields.push(("error", Json::str(error))),
            }
            if let Some(wall) = record.handle.wall() {
                fields.push(("wall_ms", Json::Num(wall.as_secs_f64() * 1e3)));
            }
        }
        Some(Json::obj(fields))
    }

    /// Blocks until job `id` finishes; `None` for unknown ids. Test and
    /// drain helper — HTTP clients poll instead.
    pub fn wait(&self, id: &str) -> Option<Result<Json, String>> {
        let handle = {
            let jobs = self.jobs.lock().expect("job map poisoned");
            jobs.get(id)?.handle.clone()
        };
        Some(handle.wait())
    }

    /// Blocks until every accepted job has finished (their manifest
    /// records flush as they complete). The drain half of a graceful
    /// shutdown for servers holding the store behind an `Arc`; admission
    /// must already have stopped or this can wait forever.
    pub fn drain(&self) {
        self.pool.drain();
    }

    /// Lifetime job counts: `(accepted, done, failed)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        let jobs = self.jobs.lock().expect("job map poisoned");
        let mut done = 0;
        let mut failed = 0;
        for record in jobs.values() {
            match record.handle.failed() {
                Some(false) => done += 1,
                Some(true) => failed += 1,
                None => {}
            }
        }
        (jobs.len() as u64, done, failed)
    }

    /// Graceful drain: stop accepting, finish every accepted job (their
    /// manifest records flush as they complete).
    pub fn close(self) {
        self.pool.close();
    }
}

fn bits_from(normalized: &Json) -> Vec<Bit> {
    normalized
        .get("inputs")
        .and_then(Json::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(Json::as_f64)
                .map(|x| Bit::from_bool(x == 1.0))
                .collect()
        })
        .unwrap_or_default()
}

/// Builds the closure that actually runs a job on a worker thread.
fn job_closure(
    normalized: &Json,
    store: &JobStore,
) -> Box<dyn FnOnce() -> Result<Json, String> + Send + 'static> {
    let kind = normalized
        .get("kind")
        .and_then(Json::as_str)
        .expect("normalized jobs have a kind")
        .to_string();
    match kind.as_str() {
        "sleep" => {
            let ms = normalized
                .get("ms")
                .and_then(Json::as_f64)
                .expect("normalized sleep jobs have ms");
            Box::new(move || {
                std::thread::sleep(Duration::from_millis(ms as u64));
                Ok(Json::obj([("slept_ms", Json::Num(ms))]))
            })
        }
        _ => {
            let threads = normalized
                .get("threads")
                .and_then(Json::as_f64)
                .map(|t| t as usize)
                .unwrap_or(0);
            let backend = store.backend(&kind, threads);
            let batch = normalized
                .get("batch")
                .and_then(Json::as_f64)
                .map(|k| k as usize);
            let bits = bits_from(normalized);
            Box::new(move || {
                if kind == "maj3" {
                    gate_job(backend, &TriangleMaj3Layout::fast(), batch, bits)
                } else {
                    gate_job(backend, &TriangleXorLayout::fast(), batch, bits)
                }
            })
        }
    }
}

/// Runs one micromagnetic gate job on the `--fast` layout: the whole
/// truth table as one `batch: K` lockstep sweep, or the single pattern
/// `bits`.
fn gate_job<const N: usize, L: TriangleLayout<N>>(
    backend: MumagBackend,
    layout: &L,
    batch: Option<usize>,
    bits: Vec<Bit>,
) -> Result<Json, String> {
    if let Some(k) = batch {
        let report = BatchedBackend::new(backend, k)
            .patterns(layout)
            .map_err(|e| e.to_string())?;
        return batch_report_json(k, &report);
    }
    let inputs: [Bit; N] = bits
        .try_into()
        .expect("normalized jobs carry one bit per gate input");
    let run = backend.run(layout, inputs).map_err(|e| e.to_string())?;
    Ok(run_to_json(&run))
}

/// Result JSON for a `batch: K` sweep: one record per input pattern, in
/// binary counting order, each nesting the usual single-run document.
/// Any failed pattern fails the whole job — a partial truth table is
/// not a usable gate characterization.
fn batch_report_json<const N: usize>(
    k: usize,
    report: &PatternBatchReport<N>,
) -> Result<Json, String> {
    if let Some(error) = report.first_error() {
        return Err(error.to_string());
    }
    let patterns: Vec<Json> = report
        .patterns
        .iter()
        .map(|p| {
            let run = p.run.as_ref().expect("fresh batch patterns carry runs");
            let inputs: Vec<Json> = p
                .pattern
                .iter()
                .map(|&b| Json::Num(if b == Bit::One { 1.0 } else { 0.0 }))
                .collect();
            Json::obj([("inputs", Json::Arr(inputs)), ("result", run_to_json(run))])
        })
        .collect();
    Ok(Json::obj([
        ("batch", Json::Num(k as f64)),
        ("patterns", Json::Arr(patterns)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Json {
        Json::parse(text).expect("test request parses")
    }

    #[test]
    fn job_requests_normalize_and_validate() {
        assert_eq!(
            normalize_job(&parse(r#"{"kind":"sleep","ms":5}"#))
                .unwrap()
                .render(),
            r#"{"kind":"sleep","ms":5.0}"#
        );
        assert!(normalize_job(&parse(r#"{"kind":"maj3","inputs":[0,1,1]}"#)).is_ok());
        // `batch: K` replaces `inputs` with a full-pattern sweep.
        assert_eq!(
            normalize_job(&parse(r#"{"batch":4,"kind":"xor","threads":2}"#))
                .unwrap()
                .render(),
            r#"{"batch":4.0,"kind":"xor","threads":2.0}"#
        );
        for bad in [
            r#"{"kind":"explode"}"#,
            r#"{"kind":"maj3"}"#,
            r#"{"kind":"maj3","inputs":[0,1]}"#,
            r#"{"kind":"maj3","inputs":[0,1,1],"bogus":1}"#,
            r#"{"kind":"maj3","inputs":[0,1,1],"batch":2}"#,
            r#"{"kind":"maj3","batch":0}"#,
            r#"{"kind":"xor","batch":3.5}"#,
            r#"{"kind":"xor","batch":17}"#,
            r#"{"kind":"sleep","ms":999999}"#,
            r#"{"kind":"xor","inputs":[0,1],"threads":0.5}"#,
            "7",
        ] {
            assert!(normalize_job(&parse(bad)).is_err(), "`{bad}` must fail");
        }
    }

    #[test]
    fn mean_wall_tracks_finished_jobs() {
        let store = JobStore::start(1, 4, None, None);
        assert!(store.mean_wall().is_none(), "no jobs observed yet");
        let (id, _) = store.submit(&parse(r#"{"kind":"sleep","ms":20}"#)).unwrap();
        store.wait(&id);
        let mean = store.mean_wall().expect("one finished job");
        assert!(mean >= Duration::from_millis(20), "mean {mean:?}");
        store.close();
    }

    #[test]
    fn sleep_jobs_run_and_report() {
        let store = JobStore::start(1, 4, None, None);
        let (id, resubmitted) = store.submit(&parse(r#"{"kind":"sleep","ms":5}"#)).unwrap();
        assert!(!resubmitted);
        assert!(id.starts_with("job-1-"));
        let result = store.wait(&id).unwrap().unwrap();
        assert_eq!(result.get("slept_ms").and_then(Json::as_f64), Some(5.0));
        let status = store.status(&id).unwrap();
        assert_eq!(status.get("status").and_then(Json::as_str), Some("done"));
        assert!(status.get("wall_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        store.close();
    }

    #[test]
    fn identical_jobs_coalesce_to_one_id() {
        let store = JobStore::start(1, 4, None, None);
        let (id1, first) = store.submit(&parse(r#"{"kind":"sleep","ms":10}"#)).unwrap();
        let (id2, second) = store
            .submit(&parse(r#"{"ms":10,"kind":"sleep"}"#)) // field order differs
            .unwrap();
        assert_eq!(id1, id2);
        assert!(!first);
        assert!(second, "the resubmission must not enqueue new work");
        let (id3, _) = store.submit(&parse(r#"{"kind":"sleep","ms":11}"#)).unwrap();
        assert_ne!(id1, id3);
        store.wait(&id1);
        store.wait(&id3);
        store.close();
    }

    #[test]
    fn admission_control_sheds_beyond_queue_depth() {
        let store = JobStore::start(1, 2, None, None);
        // Distinct long jobs: the first runs, the second queues; the
        // gauge is now at the bound, so the third is shed.
        let (id1, _) = store
            .submit(&parse(r#"{"kind":"sleep","ms":300,"tag":"a"}"#))
            .unwrap();
        let (_id2, _) = store
            .submit(&parse(r#"{"kind":"sleep","ms":300,"tag":"b"}"#))
            .unwrap();
        match store.submit(&parse(r#"{"kind":"sleep","ms":300,"tag":"c"}"#)) {
            Err(SubmitError::Overloaded) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Resubmitting a *known* job is a lookup, never shed.
        let (again, resubmitted) = store
            .submit(&parse(r#"{"kind":"sleep","ms":300,"tag":"a"}"#))
            .unwrap();
        assert_eq!(again, id1);
        assert!(resubmitted);
        store.close();
    }

    #[test]
    fn unknown_ids_have_no_status() {
        let store = JobStore::start(1, 1, None, None);
        assert!(store.status("job-999").is_none());
        assert!(store.wait("job-999").is_none());
        store.close();
    }

    #[test]
    fn manifests_record_finished_jobs() {
        let dir = std::env::temp_dir().join(format!("swserve-jobs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.manifest.jsonl");
        let writer = Arc::new(ManifestWriter::open(&path, false).unwrap());
        let store = JobStore::start(1, 4, Some(writer), None);
        let (id, _) = store.submit(&parse(r#"{"kind":"sleep","ms":1}"#)).unwrap();
        store.wait(&id);
        store.close();
        let manifest = swrun::Manifest::load(&path).unwrap();
        let completed = manifest.completed();
        assert!(completed.contains_key(&id), "manifest must record {id}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
