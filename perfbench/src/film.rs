//! `film_newell`: perpendicular films under Newell-tensor FFT demag, one
//! per closed-loop client, each advanced with RK4 at one thread.
//!
//! The 640 × 320 grid pads to 1280 × 640 (5-smooth, so no Bluestein);
//! one complex padded plane is 13 MB, several times a 2 MB per-core L2.
//! Loads the spectral demag pipeline (row FFTs, transposes, column FFTs,
//! spectral multiply); barely touches the local sweep and skips `batch`,
//! `swgates`, `swrun` and the service.
//!
//! The timed steps run at one thread because two could not be made
//! steady on a shared 2-vCPU host: interleaved in one process for 60 s,
//! 6-second medians of the 2-thread step ranged 385–604 ms while the
//! 1-thread step stayed within 603–658 ms. So the workload uses both
//! CPUs through two one-thread clients instead. The worker team is still
//! measured, at `nproc` threads, by the per-layer probes (`step_ms`,
//! `speedup_vs_serial`, `team_cpu_util`) and builds the kernels in
//! set-up.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use magnum::fft::{hot_scratch_allocs, Fft2Plan, Fft2Scratch};
use magnum::field::demag::{NewellDemag, PadPolicy};
use magnum::field::FieldTerm;
use magnum::par::WorkerTeam;
use magnum::prelude::*;
use magnum::solver::IntegratorKind;

use crate::report::Metric;
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};

/// Film grid of the workload.
pub const GRID: (usize, usize) = (640, 320);
/// Film grid in smoke mode.
const SMOKE_GRID: (usize, usize) = (48, 24);
/// In-plane cell edge, metres.
pub const CELL: f64 = 5e-9;
/// Film thickness, metres.
const THICKNESS: f64 = 1e-9;
/// Threads of the timed steps (see the module docs).
pub const THREADS: usize = 1;
/// Field evaluations per RK4 step.
const EVALS_PER_STEP: f64 = 4.0;

/// Source of distinct cell-size nudges, a few ulps each. The Newell
/// kernel spectra are cached process-wide by geometry and never
/// evicted, so the repeated set-ups (and the kernel-build probe) nudge
/// the cell size to build their kernels afresh; the physics is
/// unchanged at ~1e-16 relative.
static NUDGE: AtomicU64 = AtomicU64::new(1);

fn fresh_cell() -> f64 {
    f64::from_bits(CELL.to_bits() + NUDGE.fetch_add(1, Ordering::Relaxed))
}

fn grid(cfg: &RunConfig) -> (usize, usize) {
    if cfg.smoke {
        SMOKE_GRID
    } else {
        GRID
    }
}

/// The seeded initial state of client `client`'s film: a uniform
/// magnetization tilted 0.15–0.35 rad off the film normal at a seeded
/// azimuth.
pub fn direction(seed: u64, client: u64) -> Vec3 {
    let mut s = seed ^ 0x9E37_79B9_7F4A_7C15 ^ client.rotate_left(32);
    let mut next = || {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    let theta = 0.15 + 0.2 * next();
    let phi = std::f64::consts::TAU * next();
    Vec3::new(
        theta.sin() * phi.cos(),
        theta.sin() * phi.sin(),
        theta.cos(),
    )
}

fn film_mesh(nx: usize, ny: usize, cell: f64) -> Result<Mesh, String> {
    Mesh::new(nx, ny, [cell, cell, THICKNESS]).map_err(|e| e.to_string())
}

fn film_sim(
    nx: usize,
    ny: usize,
    cell: f64,
    threads: usize,
    dir: Vec3,
) -> Result<Simulation, String> {
    Simulation::builder(film_mesh(nx, ny, cell)?, Material::fecob())
        .demag(DemagMethod::NewellFft)
        .uniform_magnetization(dir)
        .integrator(IntegratorKind::RungeKutta4)
        .threads(threads)
        .build()
        .map_err(|e| e.to_string())
}

/// Checks that every cell's magnetization is finite and unit-length.
///
/// # Errors
///
/// The first offending cell.
pub fn check_unit(m: &Field3) -> Result<(), String> {
    for (i, v) in m.iter().enumerate() {
        let norm = v.norm();
        if !norm.is_finite() || (norm - 1.0).abs() > 1e-9 {
            return Err(format!("cell {i}: |m| = {norm}"));
        }
    }
    Ok(())
}

/// FNV-1a over the bit patterns of the three magnetization planes.
pub fn digest(m: &Field3) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for plane in [m.xs(), m.ys(), m.zs()] {
        for x in plane {
            for byte in x.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Kernel build on a team of `nproc` workers, then one one-thread
/// simulation per client, which find the kernels in the spectra cache:
/// the set-up the workload times.
fn setup(cfg: &RunConfig, cell: f64) -> Result<(Vec<Simulation>, f64), String> {
    let (nx, ny) = grid(cfg);
    let start = Instant::now();
    let mesh = film_mesh(nx, ny, cell)?;
    let team = WorkerTeam::new(cfg.cpus);
    NewellDemag::with_options(&mesh, &Material::fecob(), &team, PadPolicy::GoodSize, None);
    let sims = (0..cfg.clients())
        .map(|c| film_sim(nx, ny, cell, THREADS, direction(cfg.seed, c as u64)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((sims, start.elapsed().as_secs_f64()))
}

/// Runs the workload: the set-up, one checked step of the first client's
/// film whose state digest is printed, then [`RunConfig::clients`]
/// closed-loop clients, each stepping its own film with
/// `Simulation::step` (one checked, untimed warm-up step each), until the
/// time is up. `peak_rss_mb` is read when the timed phase ends; only then
/// do the remaining set-up repetitions run, on nudged cells, so their
/// cached spectra never count towards it.
///
/// # Errors
///
/// Set-up or warm-up failures.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Outcome, String> {
    let (nx, ny) = grid(cfg);
    let mut out = Outcome::default();
    let (mut sims, setup_s) = setup(cfg, CELL)?;
    out.setup_s.push(setup_s);
    out.threads = sims.iter().map(Simulation::threads).sum();
    out.facts.push(("grid".into(), format!("{nx}x{ny}")));
    out.facts.push(("clients".into(), sims.len().to_string()));
    let first = &mut sims[0];
    first.step().map_err(|e| format!("first step: {e}"))?;
    check_unit(first.magnetization()).map_err(|e| format!("first step: {e}"))?;
    out.facts.push((
        "digest_after_first_step".into(),
        format!("{:016x}", digest(first.magnetization())),
    ));

    let phase = crate::closed_loops(sims, cfg.seconds, tracer, "magnum.step", |sim| {
        sim.step().map_err(|e| e.to_string())?;
        check_unit(sim.magnetization())
    })?;
    out.record(phase);
    out.peak_rss_mb = crate::sys::peak_rss_mb();
    for _ in 1..cfg.setup_reps() {
        out.setup_s.push(setup(cfg, fresh_cell())?.1);
    }
    Ok(out)
}

/// Fills the populated rows of a padded grid with deterministic data.
fn fill(data: &mut [Complex64], width: usize, rows: usize) {
    data.fill(Complex64::ZERO);
    for (i, z) in data[..width * rows].iter_mut().enumerate() {
        let x = i as f64;
        *z = Complex64 {
            re: (0.37 * x).sin(),
            im: (0.11 * x).cos(),
        };
    }
}

/// Per-layer metrics of the spectral demag path, each timed from
/// outside around one public call, on the workload's grid: the serial
/// step the workload times, and the same step, demag evaluation and
/// FFT passes on a team of `nproc` workers.
///
/// # Errors
///
/// Solver failures.
pub fn layers(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let (nx, ny) = grid(cfg);
    let rounds: usize = if cfg.smoke { 2 } else { 6 };
    let dir = direction(cfg.seed, 0);
    let material = Material::fecob();

    let mut sim = film_sim(nx, ny, CELL, cfg.cpus, dir)?;
    let threads = sim.threads();
    let team = WorkerTeam::new(threads);
    let fresh_mesh = film_mesh(nx, ny, fresh_cell())?;
    let (_, build_ms) = tracer.timed("magnum.kernel_build", 0, || {
        NewellDemag::with_options(&fresh_mesh, &material, &team, PadPolicy::GoodSize, None)
    });

    let mut serial = film_sim(nx, ny, CELL, 1, dir)?;
    let demag = NewellDemag::with_options(
        &film_mesh(nx, ny, CELL)?,
        &material,
        &team,
        PadPolicy::GoodSize,
        None,
    );
    let mut scratch = demag.make_scratch();
    let m = sim.magnetization().clone();
    let mut h = Field3::zeros(m.len());
    let (px, py) = demag.padded_dims();
    let plan = Fft2Plan::new(px, py);
    let mut data = vec![Complex64::ZERO; px * py];
    let mut spec = vec![Complex64::ZERO; px * py];
    let mut rs = Fft2Scratch::new();

    // Round 0 warms every path; rounds 1.. are kept. Each round times
    // every probe once, so ratios between them compare one host state.
    let (mut step_ms, mut serial_ms, mut demag_ms, mut fwd_ms, mut inv_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_s, mut team_wall_s, mut allocs) = (0.0, 0.0, 0);
    for r in 0..=rounds {
        let op = r as u64;
        let cpu0 = crate::sys::process_cpu_s();
        let (stepped, team_ms) = tracer.timed("magnum.step", op, || sim.step());
        let cpu = crate::sys::process_cpu_s().zip(cpu0).map(|(b, a)| b - a);
        stepped.map_err(|e| e.to_string())?;
        // The counter is per thread; at one thread every allocation of
        // the step happens on this one.
        let allocs0 = hot_scratch_allocs();
        let (stepped, one_ms) = tracer.timed("magnum.serial_step", op, || serial.step());
        let allocs1 = hot_scratch_allocs();
        stepped.map_err(|e| e.to_string())?;
        let ((), eval_ms) = tracer.timed("magnum.demag_eval", op, || {
            demag.accumulate_par(&m, 0.0, &mut h, &team, scratch.as_deref_mut())
        });
        fill(&mut data, px, ny);
        let ((), fwd) = tracer.timed("magnum.fft_forward", op, || {
            plan.forward_spectrum(&mut data, &mut spec, &team, &mut rs, ny)
        });
        let ((), inv) = tracer.timed("magnum.fft_inverse", op, || {
            plan.inverse_spectrum(&mut spec, &mut data, &team, &mut rs, ny)
        });
        if r == 0 {
            continue;
        }
        step_ms.push(team_ms);
        serial_ms.push(one_ms);
        demag_ms.push(eval_ms);
        fwd_ms.push(fwd);
        inv_ms.push(inv);
        cpu_s += cpu.ok_or("process CPU time unreadable")?;
        team_wall_s += team_ms / 1e3;
        allocs += allocs1 - allocs0;
    }
    check_unit(sim.magnetization())?;
    check_unit(serial.magnetization())?;

    let step = Metric::median("magnum.step_ms", &step_ms, "ms")?;
    let serial_step = Metric::median("magnum.serial_step_ms", &serial_ms, "ms")?;
    let demag_eval = Metric::median("magnum.demag_eval_ms", &demag_ms, "ms")?;
    let fwd = Metric::median("magnum.fft_forward_ms", &fwd_ms, "ms")?;
    let inv = Metric::median("magnum.fft_inverse_ms", &inv_ms, "ms")?;
    // Each pass reads and writes every element it touches once: the
    // populated-row pass, the transpose and the full column pass, both
    // directions. Computed, not measured.
    let elem = std::mem::size_of::<Complex64>() as f64;
    let bytes = 2.0 * 2.0 * elem * (ny * px + 2 * px * py) as f64;
    let gbps = bytes / ((fwd.value + inv.value) * 1e-3) / 1e9;
    let mut metrics = vec![
        Metric::new(
            "magnum.demag_share",
            EVALS_PER_STEP * demag_eval.value / step.value,
            "ratio",
            rounds,
        )
        .note("base: 4 demag evaluations per RK4 step x demag_eval_ms / step_ms"),
        Metric::new("magnum.fft_gbps_computed", gbps, "GB/s", rounds).note(format!(
            "computed bytes of forward+inverse spectrum passes at {px}x{py}"
        )),
        Metric::new(
            "magnum.team_cpu_util",
            cpu_s / (threads as f64 * team_wall_s),
            "ratio",
            rounds,
        )
        .note(format!(
            "process CPU / ({threads} threads x wall) over the timed steps"
        )),
        Metric::new("magnum.kernel_build_s", build_ms / 1e3, "s", 1)
            .note(format!("NewellDemag construction at {threads} threads")),
        Metric::new("magnum.hot_scratch_allocs", allocs as f64, "count", rounds)
            .note("fft::hot_scratch_allocs delta over the serial steps (the workload's op), all on the calling thread"),
    ];
    if threads <= cfg.cpus {
        metrics.push(
            Metric::new(
                "magnum.speedup_vs_serial",
                serial_step.value / step.value,
                "ratio",
                rounds,
            )
            .note(format!(
                "base: serial_step_ms; {threads} threads on {} cpus",
                cfg.cpus
            )),
        );
    }
    metrics.extend([
        step.note(format!("Simulation::step, {nx}x{ny}, {threads} threads")),
        serial_step.note("Simulation::step at 1 thread, the workload's op"),
        demag_eval.note("NewellDemag::accumulate_par, same grid and threads"),
        fwd.note(format!("Fft2Plan::forward_spectrum at {px}x{py}")),
        inv.note(format!("Fft2Plan::inverse_spectrum at {px}x{py}")),
    ]);
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_check_fires_on_bad_cells() {
        let mut m = Field3::zeros(3);
        m.fill(Vec3::Z);
        assert!(check_unit(&m).is_ok());
        m.set(1, Vec3::new(0.0, 0.0, f64::NAN));
        assert!(check_unit(&m).is_err());
        m.set(1, Vec3::new(0.0, 0.0, 1.01));
        assert!(check_unit(&m).is_err());
    }

    #[test]
    fn digest_sees_one_bit() {
        let mut m = Field3::zeros(2);
        m.fill(Vec3::Z);
        let d = digest(&m);
        m.set(0, Vec3::new(0.0, 0.0, f64::from_bits(1.0f64.to_bits() + 1)));
        assert_ne!(d, digest(&m));
    }

    #[test]
    fn seeded_direction_is_a_repeatable_tilt() {
        let d = direction(7, 0);
        assert_eq!(d, direction(7, 0));
        assert_ne!(d, direction(8, 0));
        assert_ne!(d, direction(7, 1));
        assert!((d.norm() - 1.0).abs() < 1e-12 && d.z > 0.9);
    }
}
