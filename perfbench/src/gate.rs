//! `gate_batched`: the paper's Table II XOR truth table at the `--fast`
//! layout, all four patterns advanced in one K = 4 lockstep solve.
//!
//! Loads `swgates` (mumag), `swrun`, `magnum::batch` and the fused
//! ThinFilmLocal sweep at one thread; skips the FFT, the worker team and
//! the service.

use std::sync::OnceLock;
use std::time::Instant;

use magnum::prelude::*;
use magnum::solver::IntegratorKind;
use magnum::{BatchedSimulation, MU0};
use swgates::encoding::all_patterns;
use swgates::prelude::*;
use swrun::gates::{BatchedBackend, PatternBatchReport};

use crate::report::Metric;
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};

/// Batch width: the whole XOR truth table in one solve.
pub const K: usize = 4;

/// RK4 steps the per-cell step-cost probes time.
const PROBE_STEPS: usize = 400;

/// The `--fast` XOR layout `repro table2 --fast` uses.
pub fn layout() -> TriangleXorLayout {
    TriangleXorLayout::new(55e-9, 50e-9, 110e-9, 40e-9).expect("the --fast XOR layout is valid")
}

/// Bench settings: the shortest settle (1.0 × transit) and fewest
/// measured periods (1) at which every pattern still decodes, at one
/// thread.
pub fn backend() -> MumagBackend {
    MumagBackend::fast()
        .with_threads(1)
        .with_settle_factor(1.0)
        .with_measure_periods(1)
}

/// `(O1, O2)` phasors of each pattern, in pattern order.
pub type Phasors = Vec<(Complex64, Complex64)>;

/// Decodes a truth-table report with the threshold detection `repro
/// table2` uses and checks XOR at both outputs; returns the phasors.
///
/// # Errors
///
/// A message naming the failed pattern or the decode error.
pub fn check_decode(
    layout: &TriangleXorLayout,
    report: &PatternBatchReport<2>,
) -> Result<Phasors, String> {
    if let Some(error) = report.first_error() {
        return Err(format!("pattern failed: {error}"));
    }
    let table = XorGate::new(*layout)
        .truth_table(&report.memo())
        .map_err(|e| e.to_string())?;
    table
        .verify(|p| Bit::xor(p[0], p[1]))
        .map_err(|e| e.to_string())?;
    report
        .patterns
        .iter()
        .map(|p| {
            p.phasors
                .ok_or_else(|| "pattern without phasors".to_string())
        })
        .collect()
}

/// True when two phasor sets are bitwise identical.
pub fn same_bits(a: &[(Complex64, Complex64)], b: &[(Complex64, Complex64)]) -> bool {
    let bits = |c: &Complex64| (c.re.to_bits(), c.im.to_bits());
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| bits(&x.0) == bits(&y.0) && bits(&x.1) == bits(&y.1))
}

/// Runs the workload: calibrations as set-up, then K = 4 lockstep
/// truth-table solves from [`RunConfig::clients`] closed-loop clients,
/// each with its own backend at one thread, until the time is up. Every
/// op must decode, with phasors bitwise equal to those of the first
/// warm-up op to finish.
///
/// # Errors
///
/// Set-up or warm-up failures.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Outcome, String> {
    let layout = layout();
    let clients = cfg.clients();
    let mut out = Outcome {
        threads: clients,
        ..Outcome::default()
    };
    let mut calibrated = None;
    for _ in 0..cfg.setup_reps() {
        let fresh = backend();
        let start = Instant::now();
        fresh
            .xor_trims(&layout)
            .map_err(|e| format!("calibration: {e}"))?;
        out.setup_s.push(start.elapsed().as_secs_f64());
        calibrated = Some(fresh);
    }
    let calibrated = calibrated.expect("at least one set-up");

    // The clones share the calibrated trim cache. The first op to decode
    // (a warm-up op) fixes the reference phasors.
    let backends = (0..clients)
        .map(|_| BatchedBackend::new(calibrated.clone(), K))
        .collect();
    let reference = OnceLock::new();
    let phase = crate::closed_loops(
        backends,
        cfg.seconds,
        tracer,
        "swrun.xor_patterns",
        |batched| {
            let report = batched.xor_patterns(&layout).map_err(|e| e.to_string())?;
            let phasors = check_decode(&layout, &report)?;
            if same_bits(&phasors, reference.get_or_init(|| phasors.clone())) {
                Ok(())
            } else {
                Err("phasors differ from the warm-up op's".into())
            }
        },
    )?;
    out.record(phase);
    let reference = reference.get().expect("the warm-up ops decoded");
    out.peak_rss_mb = crate::sys::peak_rss_mb();
    let normalized: Vec<String> = reference
        .iter()
        .map(|(o1, o2)| {
            format!(
                "{:.3}/{:.3}",
                o1.abs() / reference[0].0.abs(),
                o2.abs() / reference[0].1.abs()
            )
        })
        .collect();
    out.facts.push(("patterns_per_op".into(), K.to_string()));
    out.facts.push(("clients".into(), clients.to_string()));
    out.facts
        .push(("normalized_outputs".into(), normalized.join(" ")));
    Ok(out)
}

/// A shape moved by `(dx, dy)` — how the backend places a gate
/// footprint into the first quadrant before rasterizing it.
struct Shifted<S> {
    inner: S,
    dx: f64,
    dy: f64,
}

impl<S: Shape> Shape for Shifted<S> {
    fn contains(&self, x: f64, y: f64) -> bool {
        self.inner.contains(x - self.dx, y - self.dy)
    }
}

/// One simulation on the gate's rasterized `xor_geometry` mesh, with the
/// backend's film as material and the solver it uses (RK4, one thread).
fn gate_mesh_sim(b: &MumagBackend, layout: &TriangleXorLayout) -> Result<Simulation, String> {
    let (shape, (x0, y0, x1, y1)) = b.xor_geometry(layout).map_err(|e| e.to_string())?;
    let cell = b.cell();
    let dx = (-x0 / cell).ceil() * cell;
    let dy = (-y0 / cell).ceil() * cell;
    let nx = ((x1 + dx) / cell).ceil() as usize + 1;
    let ny = ((y1 + dy) / cell).ceil() as usize + 1;
    let film = b.film();
    let mesh = Mesh::new(nx, ny, [cell, cell, film.thickness()]).map_err(|e| e.to_string())?;
    let material = Material::builder()
        .saturation_magnetization(film.ms())
        .exchange_stiffness(film.aex())
        .gilbert_damping(film.alpha())
        .uniaxial_anisotropy(film.anisotropy_field() * MU0 * film.ms() / 2.0, Vec3::Z)
        .gamma(film.gamma())
        .build()
        .map_err(|e| e.to_string())?;
    Simulation::builder(mesh, material)
        .shape(Shifted {
            inner: shape,
            dx,
            dy,
        })
        .uniform_magnetization(Vec3::new(0.05, 0.0, 1.0))
        .integrator(IntegratorKind::RungeKutta4)
        .threads(1)
        .build()
        .map_err(|e| e.to_string())
}

/// Per-layer metrics of the gate path, each timed from outside around
/// one public call.
///
/// # Errors
///
/// Solver or decode failures.
pub fn layers(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let layout = layout();
    let reps = if cfg.smoke { 1 } else { 3 };
    let fresh = backend();
    let (trims, calibrate_ms) = tracer.timed("swgates.calibrate", 0, || fresh.xor_trims(&layout));
    trims.map_err(|e| e.to_string())?;

    // The wrapper shares the calibrated trim cache with `fresh`. Each
    // op runs back to back with a bare batch solve, so the pair sees the
    // same host speed and their difference isolates the wrapper.
    let batched = BatchedBackend::new(fresh.clone(), K);
    let patterns = all_patterns::<2>();
    let (mut overhead_ms, mut batch_ms, mut solo_ms) = (Vec::new(), Vec::new(), Vec::new());
    let time_op = |tracer: &mut Tracer, r: u64| -> Result<f64, String> {
        let (report, ms) = tracer.timed("swrun.xor_patterns", r, || batched.xor_patterns(&layout));
        check_decode(&layout, &report.map_err(|e| e.to_string())?)?;
        Ok(ms)
    };
    let time_batch = |tracer: &mut Tracer, r: u64| -> Result<f64, String> {
        let (runs, ms) = tracer.timed("swgates.batch_solve", r, || {
            fresh.xor_run_batch(&layout, &patterns)
        });
        runs.map_err(|e| e.to_string())?;
        Ok(ms)
    };
    for r in 0..reps as u64 {
        // Alternate which of the pair runs first, so a drifting host
        // speed does not favour one side.
        let (op, batch) = if r % 2 == 0 {
            let op = time_op(tracer, r)?;
            (op, time_batch(tracer, r)?)
        } else {
            let batch = time_batch(tracer, r)?;
            (time_op(tracer, r)?, batch)
        };
        batch_ms.push(batch);
        overhead_ms.push(op - batch);
        let (run, ms) = tracer.timed("swgates.solo_run", r, || {
            fresh.xor_run(&layout, [Bit::One, Bit::Zero])
        });
        run.map_err(|e| e.to_string())?;
        solo_ms.push(ms);
    }
    let batch = Metric::median("swgates.batch_solve_ms", &batch_ms, "ms")?;
    let solo = Metric::median("swgates.solo_run_ms", &solo_ms, "ms")?;
    let overhead = Metric::median("swrun.overhead_ms", &overhead_ms, "ms")?;

    let mut solo_sim = gate_mesh_sim(&fresh, &layout)?;
    let cells = solo_sim.mesh().cell_count();
    let (stepped, local_ms) =
        tracer.timed("magnum.local_steps", 0, || -> Result<(), MagnumError> {
            for _ in 0..PROBE_STEPS {
                solo_sim.step()?;
            }
            Ok(())
        });
    stepped.map_err(|e| e.to_string())?;
    let members = (0..K)
        .map(|_| gate_mesh_sim(&fresh, &layout))
        .collect::<Result<Vec<_>, _>>()?;
    let mut batch_sim = BatchedSimulation::new(members).map_err(|e| e.to_string())?;
    let (stepped, batch4_ms) =
        tracer.timed("magnum.batch4_steps", 0, || -> Result<(), MagnumError> {
            for _ in 0..PROBE_STEPS {
                batch_sim.step()?;
            }
            Ok(())
        });
    stepped.map_err(|e| e.to_string())?;
    let per_cell = |ms: f64, lanes: usize| ms * 1e6 / (PROBE_STEPS * cells * lanes) as f64;

    Ok(vec![
        Metric::new("swgates.calibrate_s", calibrate_ms / 1e3, "s", 1)
            .note("MumagBackend::xor_trims on a fresh backend"),
        Metric::new("magnum.batch_gain_k4", K as f64 * solo.value / batch.value, "ratio", reps)
            .note("base: 4 x swgates.solo_run_ms over swgates.batch_solve_ms"),
        overhead.note("median of BatchedBackend::xor_patterns minus a back-to-back MumagBackend::xor_run_batch"),
        batch.note("MumagBackend::xor_run_batch, K = 4"),
        solo.note("MumagBackend::xor_run, one pattern, trims cached"),
        Metric::new("magnum.local_step_ns_per_cell", per_cell(local_ms, 1), "ns", PROBE_STEPS)
            .note(format!("Simulation::step RK4 on the {cells}-cell xor_geometry mesh")),
        Metric::new("magnum.batch4_step_ns_per_cell", per_cell(batch4_ms, K), "ns", PROBE_STEPS)
            .note("BatchedSimulation::step K = 4, per cell per member"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use swrun::gates::PatternOutcome;
    use swrun::metrics::BatchMetrics;

    fn report(phasors: [(f64, f64); 4]) -> PatternBatchReport<2> {
        let patterns = all_patterns::<2>()
            .into_iter()
            .zip(phasors)
            .map(|(pattern, (o1, o2))| PatternOutcome {
                pattern,
                phasors: Some((Complex64 { re: o1, im: 0.0 }, Complex64 { re: o2, im: 0.0 })),
                run: None,
                resumed: false,
                error: None,
            })
            .collect();
        PatternBatchReport {
            patterns,
            metrics: BatchMetrics {
                total: 4,
                done: 4,
                failed: 0,
                resumed: 0,
                workers: 1,
                wall: std::time::Duration::ZERO,
                cpu: std::time::Duration::ZERO,
            },
        }
    }

    #[test]
    fn decode_accepts_xor_and_rejects_other_tables() {
        // XOR: in-phase inputs (00, 11) interfere constructively.
        let xor = report([(1.0, 1.0), (0.05, 0.05), (0.05, 0.05), (1.0, 1.0)]);
        assert!(check_decode(&layout(), &xor).is_ok());
        // One output of pattern 01 left at full amplitude: not XOR.
        let broken = report([(1.0, 1.0), (1.0, 0.05), (0.05, 0.05), (1.0, 1.0)]);
        assert!(check_decode(&layout(), &broken).is_err());
    }

    #[test]
    fn phasor_comparison_is_bitwise() {
        let a = vec![(
            Complex64 { re: 0.5, im: 0.25 },
            Complex64 { re: 1.0, im: 0.0 },
        )];
        let mut b = a.clone();
        assert!(same_bits(&a, &b));
        b[0].1.re = f64::from_bits(1.0f64.to_bits() + 1);
        assert!(!same_bits(&a, &b));
    }
}
