//! Batched-vs-independent golden-trajectory tests.
//!
//! The batched backend promises that advancing K systems in lockstep is
//! purely a throughput optimization: every member's trajectory must be
//! bitwise identical to the same simulation stepped on its own, at every
//! thread count, with and without thermal noise, and under the
//! FFT-accelerated demag. These tests drive the paper's triangle gate
//! shape (and small synthetic films) through both paths and compare
//! `f64` bit patterns. An adaptive Cash–Karp batch shares one step-size
//! sequence, so it is pinned with identical members, and its controller
//! state must survive a round trip through a batch.

use magnum::field::demag::DemagMethod;
use magnum::geometry::Polygon;
use magnum::prelude::*;
use magnum::solver::IntegratorKind;

const NX: usize = 48;
const NY: usize = 24;
const CELL: f64 = 5e-9;

/// The paper's triangle-gate film with a left-edge antenna, one of K
/// phase variants. `threads` is forced past the small-grid serial clamp
/// so the parallel sweeps really run.
fn gate_sim(phase: f64, threads: usize, kind: IntegratorKind, demag: DemagMethod) -> Simulation {
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
        Drive::logic_cw(3e3, 9e9, phase),
    );
    Simulation::builder(mesh, Material::fecob())
        .uniform_magnetization(Vec3::Z)
        .demag(demag)
        .absorbing_frame(AbsorbingFrame::new(3, 0.5))
        .antenna(antenna)
        .integrator(kind)
        .threads(threads)
        .min_cells_per_thread(0)
        .build()
        .unwrap()
}

/// Steps each sim independently, then the same K sims as one batch, and
/// asserts every member's final magnetization and clock match bit for
/// bit.
fn assert_batch_matches_independent(
    build: &dyn Fn(usize) -> Simulation,
    k: usize,
    threads: usize,
    steps: usize,
    label: &str,
) {
    let independent: Vec<(f64, Vec<Vec3>)> = (0..k)
        .map(|s| {
            let mut sim = build(s);
            for _ in 0..steps {
                sim.step().unwrap();
            }
            (sim.time(), sim.magnetization().to_vec())
        })
        .collect();
    let sims: Vec<Simulation> = (0..k).map(build).collect();
    let mut batch = BatchedSimulation::new(sims).unwrap();
    for _ in 0..steps {
        batch.step().unwrap();
    }
    for (s, (time, serial)) in independent.iter().enumerate() {
        assert_eq!(
            batch.time().to_bits(),
            time.to_bits(),
            "{label}: member {s} clock diverged at {threads} threads"
        );
        let view = batch.member(s);
        for (i, want) in serial.iter().enumerate() {
            let got = MagRead::at(&view, i);
            assert_eq!(
                [got.x.to_bits(), got.y.to_bits(), got.z.to_bits()],
                [want.x.to_bits(), want.y.to_bits(), want.z.to_bits()],
                "{label}: member {s} cell {i} diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn rk4_gate_batch_is_bitwise_identical_across_thread_counts() {
    for threads in [1, 2, 4] {
        let build = move |s: usize| {
            gate_sim(
                s as f64 * 0.37,
                threads,
                IntegratorKind::RungeKutta4,
                DemagMethod::ThinFilmLocal,
            )
        };
        assert_batch_matches_independent(&build, 4, threads, 20, "rk4 gate");
    }
}

#[test]
fn heun_gate_batch_is_bitwise_identical_across_thread_counts() {
    for threads in [1, 2, 4] {
        let build = move |s: usize| {
            gate_sim(
                s as f64 * 0.37,
                threads,
                IntegratorKind::Heun,
                DemagMethod::ThinFilmLocal,
            )
        };
        assert_batch_matches_independent(&build, 4, threads, 20, "heun gate");
    }
}

#[test]
fn cash_karp_batch_of_identical_members_is_bitwise_identical() {
    // The adaptive controller takes the max error over the whole batch,
    // so K identical members must follow the solo step-size sequence —
    // and the solo trajectory — exactly.
    for threads in [1, 2] {
        let build = move |_: usize| {
            gate_sim(
                0.37,
                threads,
                IntegratorKind::CashKarp45 { tolerance: 1e-7 },
                DemagMethod::ThinFilmLocal,
            )
        };
        assert_batch_matches_independent(&build, 4, threads, 20, "cash-karp gate");
    }
}

#[test]
fn cash_karp_controller_survives_a_batch_round_trip() {
    // A simulation that spends steps 11..15 in a batch of one and then
    // continues solo must land exactly where 20 solo steps land: the
    // batch starts from the member's suggested step and hands its own
    // suggestion back.
    let build = || {
        let mut sim = gate_sim(
            0.0,
            1,
            IntegratorKind::CashKarp45 { tolerance: 1e-9 },
            DemagMethod::ThinFilmLocal,
        );
        sim.set_time_step(2e-12).unwrap();
        sim
    };
    let mut solo = build();
    for _ in 0..20 {
        solo.step().unwrap();
    }
    let mut resumed = build();
    for _ in 0..10 {
        resumed.step().unwrap();
    }
    let mut batch = BatchedSimulation::new(vec![resumed]).unwrap();
    for _ in 0..5 {
        batch.step().unwrap();
    }
    let mut resumed = batch.into_members().remove(0);
    for _ in 0..5 {
        resumed.step().unwrap();
    }
    assert_eq!(resumed.time().to_bits(), solo.time().to_bits());
    let bits = |sim: &Simulation| -> Vec<[u64; 3]> {
        sim.magnetization()
            .iter()
            .map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
            .collect()
    };
    assert_eq!(bits(&resumed), bits(&solo));
}

#[test]
fn newell_fft_gate_batch_is_bitwise_identical() {
    // The batched Newell demag shares one FFT plan — and one scratch
    // arena (padded planes + per-thread row scratch) — across all K = 4
    // members riding the parallel spectral pipeline; each member's stray
    // field must still match its solo run exactly, serial and parallel.
    for threads in [1, 4] {
        let build = move |s: usize| {
            gate_sim(
                s as f64 * 0.37,
                threads,
                IntegratorKind::RungeKutta4,
                DemagMethod::NewellFft,
            )
        };
        assert_batch_matches_independent(&build, 4, threads, 10, "newell-fft gate");
    }
}

#[test]
fn thermal_heun_batch_is_bitwise_identical_across_thread_counts() {
    // T > 0: each member owns an isolated RNG stream keyed by its seed,
    // so batching K thermal runs must reproduce each solo trajectory —
    // the draws cannot bleed across members or depend on K.
    for threads in [1, 2, 4] {
        let build = move |s: usize| {
            let mesh = Mesh::new(16, 8, [CELL, CELL, 1e-9]).unwrap();
            Simulation::builder(mesh, Material::fecob())
                .uniform_magnetization(Vec3::Z)
                .temperature(300.0)
                .seed(17 + s as u64)
                .integrator(IntegratorKind::Heun)
                .threads(threads)
                .min_cells_per_thread(0)
                .build()
                .unwrap()
        };
        assert_batch_matches_independent(&build, 4, threads, 20, "thermal heun");
    }
}

#[test]
fn into_members_returns_synced_simulations() {
    // After a batched run, `into_members` hands back Simulations whose
    // state continues exactly where the batch left off.
    let build = |s: usize| {
        gate_sim(
            s as f64 * 0.37,
            1,
            IntegratorKind::RungeKutta4,
            DemagMethod::ThinFilmLocal,
        )
    };
    let mut solo = build(1);
    for _ in 0..12 {
        solo.step().unwrap();
    }
    let sims: Vec<Simulation> = (0..2).map(build).collect();
    let mut batch = BatchedSimulation::new(sims).unwrap();
    for _ in 0..8 {
        batch.step().unwrap();
    }
    let mut members = batch.into_members();
    let m1 = &mut members[1];
    for _ in 0..4 {
        m1.step().unwrap();
    }
    assert_eq!(solo.magnetization().to_vec(), m1.magnetization().to_vec());
}
