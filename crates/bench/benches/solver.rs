//! Criterion benches for the micromagnetic solver kernels.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use magnum::damping::AbsorbingFrame;
use magnum::fft::{fft2_in_place, fft_in_place, Direction};
use magnum::field::anisotropy::UniaxialAnisotropy;
use magnum::field::demag::{DemagMethod, NewellDemag, ThinFilmDemag};
use magnum::field::exchange::Exchange;
use magnum::field::thermal::ThermalField;
use magnum::field::FieldTerm;
use magnum::field3::Field3;
use magnum::material::Material;
use magnum::math::{Complex64, Vec3};
use magnum::mesh::Mesh;
use magnum::par::WorkerTeam;
use magnum::sim::Simulation;
use magnum::solver::IntegratorKind;

fn mesh(nx: usize, ny: usize) -> Mesh {
    Mesh::new(nx, ny, [5e-9, 5e-9, 1e-9]).expect("valid mesh")
}

fn tilted_state(n: usize) -> Vec<Vec3> {
    (0..n)
        .map(|i| {
            Vec3::new(
                0.01 * ((i % 17) as f64).sin(),
                0.01 * ((i % 13) as f64).cos(),
                1.0,
            )
            .normalized()
        })
        .collect()
}

fn bench_field_terms(c: &mut Criterion) {
    let mesh = mesh(128, 32);
    let mat = Material::fecob();
    let m = Field3::from_vec3s(&tilted_state(mesh.cell_count()));
    let mut h = Field3::zeros(mesh.cell_count());
    let team = WorkerTeam::new(1);

    let exchange = Exchange::new(&mesh, &mat);
    c.bench_function("field/exchange 128x32", |b| {
        b.iter(|| {
            h.fill(Vec3::ZERO);
            exchange.accumulate_par(black_box(&m), 0.0, &mut h, &team, None);
        })
    });

    let anis = UniaxialAnisotropy::new(&mesh, &mat);
    c.bench_function("field/anisotropy 128x32", |b| {
        b.iter(|| {
            h.fill(Vec3::ZERO);
            anis.accumulate_par(black_box(&m), 0.0, &mut h, &team, None);
        })
    });

    let local = ThinFilmDemag::new(&mesh, &mat);
    c.bench_function("field/demag_local 128x32", |b| {
        b.iter(|| {
            h.fill(Vec3::ZERO);
            local.accumulate_par(black_box(&m), 0.0, &mut h, &team, None);
        })
    });

    let small = Mesh::new(32, 32, [5e-9, 5e-9, 1e-9]).expect("valid mesh");
    let m_small = Field3::from_vec3s(&tilted_state(small.cell_count()));
    let mut h_small = Field3::zeros(small.cell_count());
    let newell = NewellDemag::new(&small, &mat);
    let mut scratch = newell.make_scratch();
    c.bench_function("field/demag_newell_fft 32x32", |b| {
        b.iter(|| {
            h_small.fill(Vec3::ZERO);
            newell.accumulate_par(
                black_box(&m_small),
                0.0,
                &mut h_small,
                &team,
                scratch.as_deref_mut(),
            );
        })
    });
}

fn bench_integrators(c: &mut Criterion) {
    for kind in [IntegratorKind::Heun, IntegratorKind::RungeKutta4] {
        let name = format!("integrator/{kind:?} 64x16 x10 steps");
        c.bench_function(&name, |b| {
            b.iter_batched(
                || {
                    Simulation::builder(mesh(64, 16), Material::fecob())
                        .integrator(kind)
                        .uniform_magnetization(Vec3::new(0.1, 0.0, 1.0))
                        .build()
                        .expect("build")
                },
                |mut sim| {
                    for _ in 0..10 {
                        sim.step().expect("step");
                    }
                    black_box(sim.time())
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_thermal_and_damping(c: &mut Criterion) {
    let mesh = mesh(64, 16);
    let mat = Material::fecob();
    let mut thermal = ThermalField::new(&mesh, &mat, 300.0, 7);
    let mut buf = vec![Vec3::ZERO; mesh.cell_count()];
    c.bench_function("thermal/draw 64x16", |b| {
        b.iter(|| thermal.draw(1e-13, black_box(&mut buf)))
    });

    c.bench_function("damping/frame map 128x32", |b| {
        let big = Mesh::new(128, 32, [5e-9, 5e-9, 1e-9]).expect("mesh");
        b.iter(|| AbsorbingFrame::new(8, 0.5).damping_map(black_box(&big), 0.004))
    });
}

fn bench_fft(c: &mut Criterion) {
    let mut data: Vec<Complex64> = (0..1024)
        .map(|i| Complex64::new((i as f64).sin(), (i as f64).cos()))
        .collect();
    c.bench_function("fft/1d 1024 round trip", |b| {
        b.iter(|| {
            fft_in_place(black_box(&mut data), Direction::Forward);
            fft_in_place(black_box(&mut data), Direction::Inverse);
        })
    });

    let mut grid = vec![Complex64::ONE; 64 * 64];
    c.bench_function("fft/2d 64x64 round trip", |b| {
        b.iter(|| {
            fft2_in_place(black_box(&mut grid), 64, 64, Direction::Forward);
            fft2_in_place(black_box(&mut grid), 64, 64, Direction::Inverse);
        })
    });
}

fn bench_demag_setup(c: &mut Criterion) {
    c.bench_function("demag/newell kernel build 32x16", |b| {
        let mesh = Mesh::new(32, 16, [5e-9, 5e-9, 1e-9]).expect("mesh");
        let mat = Material::fecob();
        b.iter(|| black_box(NewellDemag::new(&mesh, &mat)))
    });

    c.bench_function("sim/build local demag 128x32", |b| {
        b.iter(|| {
            Simulation::builder(mesh(128, 32), Material::fecob())
                .demag(DemagMethod::ThinFilmLocal)
                .build()
                .expect("build")
        })
    });
}

criterion_group!(
    benches,
    bench_field_terms,
    bench_integrators,
    bench_thermal_and_damping,
    bench_fft,
    bench_demag_setup
);
criterion_main!(benches);
