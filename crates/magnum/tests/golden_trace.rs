//! Golden-trajectory parity tests.
//!
//! The reference traces under `tests/data/` were recorded from the
//! pre-SoA integrator path (array-of-structs state, separate stage
//! passes) by running
//!
//! ```text
//! MAGNUM_GOLDEN_WRITE=1 cargo test -p magnum --test golden_trace
//! ```
//!
//! against that code. Each test re-runs the same scenario at 1, 2, 4,
//! and 7 threads and requires every recorded magnetization component to
//! match the reference within 1e-12 relative error — and all thread
//! counts to agree bitwise among themselves. Together these pin the
//! fused single-sweep SoA hot path to the trajectory of the original
//! implementation.
//!
//! The two Newell traces (`golden_newell_rk4.txt`, the good-size padded
//! grid, and `golden_newell_exact_rk4.txt`, Bluestein rows and columns)
//! were recorded from the strip pipeline with the half-spectrum `Ms·mz`
//! channel and are matched **bit for bit** at every thread count: any
//! drift at all is a regression. Re-record them (only after a deliberate
//! arithmetic change) with
//!
//! ```text
//! MAGNUM_GOLDEN_WRITE=1 cargo test -p magnum --test golden_trace newell
//! ```
//!
//! Their `_complexz` twins are the same scenarios recorded before that
//! change, when `Ms·mz` ran through full complex transforms (the
//! transpose-based pipeline and the strip pipeline agreed bit for bit on
//! them). The half-spectrum channel changes `hz` only by rounding, so the
//! current trajectories must stay within [`REL_TOL`] of them. They are
//! never re-recorded.

use magnum::field::demag::{DemagMethod, PadPolicy};
use magnum::geometry::Polygon;
use magnum::prelude::*;
use magnum::solver::IntegratorKind;
use std::fmt::Write as _;
use std::path::PathBuf;

const NX: usize = 48;
const NY: usize = 24;
const CELL: f64 = 5e-9;
const PROBES: usize = 16;
const REL_TOL: f64 = 1e-12;

/// The triangle gate geometry from the parallel suite: antenna on the
/// left edge, absorbing frame, apex to the right.
fn triangle_sim(threads: usize, kind: IntegratorKind) -> Simulation {
    let mut mesh = Mesh::new(NX, NY, [CELL, CELL, 1e-9]).unwrap();
    let w = NX as f64 * CELL;
    let h = NY as f64 * CELL;
    let triangle = Polygon::new(vec![(0.0, 0.0), (0.0, h), (w, h / 2.0)]);
    magnum::geometry::rasterize(&mut mesh, &triangle);
    let antenna = Antenna::over_rect(
        &mesh,
        0.0,
        0.0,
        2.0 * CELL,
        h,
        Vec3::X,
        Drive::logic_cw(3e3, 9e9, 0.0),
    );
    Simulation::builder(mesh, Material::fecob())
        .uniform_magnetization(Vec3::Z)
        .demag(DemagMethod::ThinFilmLocal)
        .absorbing_frame(AbsorbingFrame::new(3, 0.5))
        .antenna(antenna)
        .integrator(kind)
        .threads(threads)
        // The grid is far below the small-grid serial clamp; disable it so
        // the parity runs genuinely exercise the parallel sweeps.
        .min_cells_per_thread(0)
        .build()
        .unwrap()
}

/// The same masked triangle under the full Newell-FFT demag, RK4 with
/// the antenna, padded by `policy`: [`PadPolicy::GoodSize`] pads 48×24
/// to 96×48, [`PadPolicy::Exact`] to 95×47 (a 5·19 row axis and a prime
/// column axis, so both passes take the Bluestein fallback).
fn newell_triangle_sim(threads: usize, policy: PadPolicy) -> Simulation {
    let mut mesh = Mesh::new(NX, NY, [CELL, CELL, 1e-9]).unwrap();
    let w = NX as f64 * CELL;
    let h = NY as f64 * CELL;
    let triangle = Polygon::new(vec![(0.0, 0.0), (0.0, h), (w, h / 2.0)]);
    magnum::geometry::rasterize(&mut mesh, &triangle);
    let antenna = Antenna::over_rect(
        &mesh,
        0.0,
        0.0,
        2.0 * CELL,
        h,
        Vec3::X,
        Drive::logic_cw(3e3, 9e9, 0.0),
    );
    Simulation::builder(mesh, Material::fecob())
        .uniform_magnetization(Vec3::Z)
        .demag(DemagMethod::NewellFft)
        .demag_padding(policy)
        .absorbing_frame(AbsorbingFrame::new(3, 0.5))
        .antenna(antenna)
        .integrator(IntegratorKind::RungeKutta4)
        .threads(threads)
        // Disables the FFT fan-out clamp too, so 2 and 4 threads really
        // split the row groups and column strips.
        .min_cells_per_thread(0)
        .build()
        .unwrap()
}

/// A small thermal film: T > 0 exercises the frozen-per-step stochastic
/// field inside the fused sweep.
fn thermal_sim(threads: usize) -> Simulation {
    let mesh = Mesh::new(16, 8, [CELL, CELL, 1e-9]).unwrap();
    Simulation::builder(mesh, Material::fecob())
        .uniform_magnetization(Vec3::Z)
        .temperature(300.0)
        .seed(17)
        .threads(threads)
        .min_cells_per_thread(0)
        .build()
        .unwrap()
}

/// Evenly spaced magnetic cells to probe.
fn probe_cells(sim: &Simulation) -> Vec<usize> {
    let magnetic: Vec<usize> = sim
        .mesh()
        .mask()
        .iter()
        .enumerate()
        .filter(|(_, &m)| m)
        .map(|(i, _)| i)
        .collect();
    (0..PROBES)
        .map(|k| magnetic[k * magnetic.len() / PROBES])
        .collect()
}

/// Runs `steps` steps, recording the probed components (and the clock)
/// every `every` steps as hex f64 bit patterns, one value per line:
/// `label step cell component bits`.
fn record_trace(mut sim: Simulation, steps: usize, every: usize) -> String {
    let cells = probe_cells(&sim);
    let mut out = String::new();
    for step in 1..=steps {
        sim.step().unwrap();
        if step % every != 0 {
            continue;
        }
        writeln!(out, "t {} 0 0 {:016x}", step, sim.time().to_bits()).unwrap();
        let m = sim.magnetization().to_vec();
        for &cell in &cells {
            let v = m[cell];
            for (c, val) in [(0, v.x), (1, v.y), (2, v.z)] {
                writeln!(out, "m {} {} {} {:016x}", step, cell, c, val.to_bits()).unwrap();
            }
        }
    }
    out
}

fn data_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(format!("golden_{name}.txt"))
}

fn parse_values(trace: &str) -> Vec<(String, f64)> {
    trace
        .lines()
        .map(|line| {
            let (key, bits) = line.rsplit_once(' ').expect("malformed trace line");
            let bits = u64::from_str_radix(bits, 16).expect("malformed bit pattern");
            (key.to_string(), f64::from_bits(bits))
        })
        .collect()
}

fn check_against_reference(name: &str, trace: &str) {
    let path = data_path(name);
    if std::env::var("MAGNUM_GOLDEN_WRITE").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, trace).unwrap();
        return;
    }
    assert_within_tolerance(name, trace);
}

/// Every recorded value of `trace` within [`REL_TOL`] (relative, with an
/// absolute floor of `REL_TOL`) of the reference `name`, which is only
/// read.
fn assert_within_tolerance(name: &str, trace: &str) {
    let path = data_path(name);
    let reference = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden trace {}: {e}", path.display()));
    let got = parse_values(trace);
    let want = parse_values(&reference);
    assert_eq!(got.len(), want.len(), "{name}: trace length changed");
    for ((gk, gv), (wk, wv)) in got.iter().zip(&want) {
        assert_eq!(gk, wk, "{name}: trace keys diverged");
        let tol = REL_TOL * wv.abs().max(1.0);
        assert!(
            (gv - wv).abs() <= tol,
            "{name}: {gk} drifted: got {gv:e}, reference {wv:e}"
        );
    }
}

/// Bitwise variant of [`check_against_reference`]: the recorded trace
/// must be reproduced character for character.
fn check_exact(name: &str, trace: &str) {
    let path = data_path(name);
    if std::env::var("MAGNUM_GOLDEN_WRITE").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, trace).unwrap();
        return;
    }
    let reference = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden trace {}: {e}", path.display()));
    for (k, (got, want)) in trace.lines().zip(reference.lines()).enumerate() {
        assert_eq!(got, want, "{name}: line {} differs bitwise", k + 1);
    }
    assert_eq!(
        trace.lines().count(),
        reference.lines().count(),
        "{name}: trace length changed"
    );
}

/// Bitwise golden: the serial trace equals the recorded one exactly,
/// and 2, 4 and 7 threads equal the serial trace.
fn golden_exact(name: &str, run: impl Fn(usize) -> String) {
    let serial = run(1);
    check_exact(name, &serial);
    for threads in [2, 4, 7] {
        assert_eq!(
            serial,
            run(threads),
            "{name}: trace diverged at {threads} threads"
        );
    }
}

fn golden(name: &str, run: impl Fn(usize) -> String) {
    let serial = run(1);
    check_against_reference(name, &serial);
    for threads in [2, 4, 7] {
        assert_eq!(
            serial,
            run(threads),
            "{name}: trace diverged at {threads} threads"
        );
    }
}

#[test]
fn heun_matches_golden_trace() {
    golden("heun", |threads| {
        record_trace(triangle_sim(threads, IntegratorKind::Heun), 25, 5)
    });
}

#[test]
fn rk4_matches_golden_trace() {
    golden("rk4", |threads| {
        record_trace(triangle_sim(threads, IntegratorKind::RungeKutta4), 25, 5)
    });
}

#[test]
fn cash_karp_matches_golden_trace() {
    // The recorded clock pins the adaptive step-size control path too.
    golden("cash_karp", |threads| {
        record_trace(
            triangle_sim(threads, IntegratorKind::CashKarp45 { tolerance: 1e-7 }),
            25,
            5,
        )
    });
}

#[test]
fn thermal_heun_matches_golden_trace() {
    golden("thermal_heun", |threads| {
        record_trace(thermal_sim(threads), 20, 5)
    });
}

#[test]
fn newell_rk4_matches_golden_trace_bitwise() {
    golden_exact("newell_rk4", |threads| {
        record_trace(newell_triangle_sim(threads, PadPolicy::GoodSize), 25, 5)
    });
}

#[test]
fn newell_exact_padding_rk4_matches_golden_trace_bitwise() {
    golden_exact("newell_exact_rk4", |threads| {
        record_trace(newell_triangle_sim(threads, PadPolicy::Exact), 25, 5)
    });
}

#[test]
fn newell_rk4_stays_within_tolerance_of_the_complex_z_trace() {
    let trace = record_trace(newell_triangle_sim(1, PadPolicy::GoodSize), 25, 5);
    assert_within_tolerance("newell_rk4_complexz", &trace);
}

#[test]
fn newell_exact_padding_rk4_stays_within_tolerance_of_the_complex_z_trace() {
    let trace = record_trace(newell_triangle_sim(1, PadPolicy::Exact), 25, 5);
    assert_within_tolerance("newell_exact_rk4_complexz", &trace);
}
