//! End-to-end and per-layer benchmark of the spin-wave workspace.
//!
//! Three workloads ([`gate`], [`film`], [`serve`]) each load a different
//! slice of the layer stack. An untraced run reports the end-to-end
//! metrics; a traced run records spans around the public calls each
//! workload makes and reports the per-layer breakdown. See `README.md`
//! for the layer → metric → workload map.

pub mod film;
pub mod gate;
pub mod report;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;

use std::time::{Duration, Instant};

use report::Metric;
use trace::Tracer;

/// Every workload this benchmark implements; `BENCHMARK.json` lists the
/// ones a regression check runs.
pub const WORKLOADS: [&str; 3] = ["gate_batched", "film_newell", "serve_mix"];

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Generator seed for the workload's inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Tiny sizes and a single set-up, for tests and quick checks.
    pub smoke: bool,
    /// Hardware threads the host offers (`nproc`).
    pub cpus: usize,
}

impl RunConfig {
    /// How many times set-up runs; its median is `setup_s`.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Closed-loop clients (or connections) of a workload: one per
    /// hardware thread, at most two.
    pub fn clients(&self) -> usize {
        self.cpus.clamp(1, 2)
    }
}

/// What a workload's timed phase produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each timed op, milliseconds, in completion order.
    pub latency_ms: Vec<f64>,
    /// Whether each timed op ran with spans on (traced runs alternate).
    pub traced: Vec<bool>,
    /// Latency of the ops that computed a fresh result, milliseconds;
    /// `None` on workloads without a cache, where every op computes.
    pub miss_ms: Option<Vec<f64>>,
    /// Peak resident memory (`VmHWM`) when the timed phase ended, MiB.
    pub peak_rss_mb: Option<f64>,
    /// From the start of the timed phase to the last completion.
    pub wall_s: f64,
    /// Timed ops attempted (warm-up excluded).
    pub attempted: u64,
    /// Ops whose output check failed, or that errored.
    pub failed: u64,
    /// Worker threads of the system under test.
    pub threads: usize,
    /// Client connections (0 when the workload makes none).
    pub connections: usize,
    /// Extra facts for the report line (digests, sizes, notes).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// Takes the ops of a timed phase.
    pub fn record(&mut self, phase: Phase) {
        self.latency_ms = phase.latency_ms;
        self.traced = phase.traced;
        self.wall_s = phase.wall_s;
        self.attempted = phase.attempted;
        self.failed = phase.failed;
    }
}

/// What the timed phase of [`closed_loops`] recorded.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of each timed op, milliseconds, clients' ops concatenated.
    pub latency_ms: Vec<f64>,
    /// Whether each timed op ran with spans on.
    pub traced: Vec<bool>,
    /// From the common start to the last completion, seconds.
    pub wall_s: f64,
    /// Timed ops attempted (warm-ups excluded).
    pub attempted: u64,
    /// Timed ops that errored or failed their check.
    pub failed: u64,
}

/// Drives one closed-loop client per entry of `clients`, each on its own
/// thread: the client sends its next op only when the previous one is
/// done. Each first runs one checked, untimed warm-up op; then all time
/// ops from one common start until `seconds` have passed (the op in
/// flight finishes). `op` runs one op and checks its output.
///
/// Clients see independent host noise (their vCPUs are slowed by other
/// tenants at different times), so sampling them side by side steadies
/// a run's statistics more than one client could.
///
/// # Errors
///
/// A failed warm-up op, or a panicked client.
pub fn closed_loops<C: Send>(
    mut clients: Vec<C>,
    seconds: Duration,
    tracer: &mut Tracer,
    name: &'static str,
    op: impl Fn(&mut C) -> Result<(), String> + Sync,
) -> Result<Phase, String> {
    let ready = std::sync::Barrier::new(clients.len());
    let op = &op;
    let ready = &ready;
    let runs: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mut tracer = tracer.fork();
                scope.spawn(move || {
                    let warm_up = op(client).map_err(|e| format!("warm-up op: {e}"));
                    // Every client reaches the barrier, so none waits for
                    // one whose warm-up failed.
                    ready.wait();
                    warm_up?;
                    let start = Instant::now();
                    let deadline = start + seconds;
                    let mut phase = Phase::default();
                    let mut last = start;
                    let mut k = 0u64;
                    while Instant::now() < deadline {
                        // Op ids are unique across clients; their parity,
                        // which picks traced ops, alternates per client.
                        let id = (c as u64) << 32 | k;
                        let sent = Instant::now();
                        let (checked, traced) = tracer.op(name, id, || op(client));
                        last = Instant::now();
                        phase.latency_ms.push((last - sent).as_secs_f64() * 1e3);
                        phase.traced.push(traced);
                        phase.attempted += 1;
                        phase.failed += u64::from(checked.is_err());
                        k += 1;
                    }
                    Ok::<_, String>((phase, start, last, tracer))
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join()).collect()
    });
    let mut phase = Phase::default();
    let (mut first, mut last) = (None::<Instant>, None::<Instant>);
    for run in runs {
        let (client, start, done, spans) = run.map_err(|_| "client thread panicked")??;
        phase.latency_ms.extend(client.latency_ms);
        phase.traced.extend(client.traced);
        phase.attempted += client.attempted;
        phase.failed += client.failed;
        first = Some(first.map_or(start, |f| f.min(start)));
        last = Some(last.map_or(done, |l| l.max(done)));
        tracer.merge(spans);
    }
    if let (Some(first), Some(last)) = (first, last) {
        phase.wall_s = (last - first).as_secs_f64();
    }
    Ok(phase)
}

/// Runs one workload by name.
///
/// # Errors
///
/// An unknown name, or the workload's set-up or warm-up failure.
pub fn run_workload(name: &str, cfg: &RunConfig, tracer: &mut Tracer) -> Result<Outcome, String> {
    match name {
        "gate_batched" => gate::run(cfg, tracer),
        "film_newell" => film::run(cfg, tracer),
        "serve_mix" => serve::run(cfg, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The per-layer metrics of a traced run: the tracing overhead measured
/// on the workload's own ops, then every layer's probes, so each traced
/// run reports the full per-layer set whichever workload it traced.
///
/// # Errors
///
/// The first probe that fails.
pub fn layer_metrics(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    outcome: &Outcome,
) -> Result<Vec<Metric>, String> {
    let mut metrics = vec![report::trace_overhead(outcome)?];
    metrics.extend(tracer.nest("layers.gate", 0, |t| gate::layers(cfg, t))?);
    metrics.extend(tracer.nest("layers.film", 0, |t| film::layers(cfg, t))?);
    metrics.extend(tracer.nest("layers.serve", 0, |t| serve::layers(cfg, t))?);
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loops_count_failed_checks_per_client() {
        // Client 1 fails every third of its timed ops.
        let clients = vec![(0u32, 0u64), (1, 0)];
        let mut tracer = Tracer::new(true);
        let phase = closed_loops(
            clients,
            Duration::from_millis(50),
            &mut tracer,
            "probe",
            |(id, n)| {
                std::thread::sleep(Duration::from_millis(1));
                *n += 1;
                if *id == 1 && *n > 1 && *n % 3 == 0 {
                    Err("bad output".into())
                } else {
                    Ok(())
                }
            },
        )
        .unwrap();
        assert!(phase.attempted >= 4 && phase.latency_ms.len() as u64 == phase.attempted);
        assert!(phase.failed > 0 && phase.failed < phase.attempted);
        assert!(phase.wall_s >= 0.05);
        // Each client alternates traced and untraced ops.
        let traced = phase.traced.iter().filter(|&&t| t).count();
        assert!(traced > 0 && traced < phase.traced.len());
        assert_eq!(tracer.spans().len(), traced);
    }

    #[test]
    fn closed_loops_fail_on_a_bad_warm_up_op() {
        let phase = closed_loops(
            vec![0, 1],
            Duration::from_millis(10),
            &mut Tracer::new(false),
            "probe",
            |c: &mut i32| if *c == 1 { Err("bad".into()) } else { Ok(()) },
        );
        assert!(phase.unwrap_err().contains("warm-up op"));
    }
}
