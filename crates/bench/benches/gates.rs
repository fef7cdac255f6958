//! Criterion benches for gate evaluation: the analytic backend (the
//! tool a circuit designer iterates with) and the micromagnetic
//! building blocks.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use swgates::detect::{PhaseDetector, ThresholdDetector};
use swgates::encoding::{all_patterns, Bit};
use swgates::prelude::*;

fn bench_analytic_gates(c: &mut Criterion) {
    let backend = AnalyticBackend::paper();

    let maj = Maj3Gate::paper();
    c.bench_function("analytic/maj3 single evaluate", |b| {
        b.iter(|| maj.evaluate(&backend, black_box([Bit::One, Bit::Zero, Bit::One])))
    });
    c.bench_function("analytic/maj3 truth table (8 patterns)", |b| {
        b.iter(|| maj.truth_table(black_box(&backend)))
    });

    let xor = XorGate::paper();
    c.bench_function("analytic/xor truth table (4 patterns)", |b| {
        b.iter(|| xor.truth_table(black_box(&backend)))
    });

    let ladder = LadderMaj3Gate::paper();
    c.bench_function("analytic/ladder maj3 truth table", |b| {
        b.iter(|| ladder.truth_table(black_box(&backend)))
    });

    let nand = NandGate::paper().expect("valid layout");
    c.bench_function("analytic/nand truth table", |b| {
        b.iter(|| nand.truth_table(black_box(&backend)))
    });
}

fn bench_detectors(c: &mut Criterion) {
    let phase = PhaseDetector::new(0.0);
    c.bench_function("detect/phase decode", |b| {
        b.iter(|| {
            for i in 0..64 {
                let phi = (i as f64) * 0.097;
                let _ = black_box(phase.decode(black_box(phi)));
            }
        })
    });
    let threshold = ThresholdDetector::paper();
    c.bench_function("detect/threshold decode", |b| {
        b.iter(|| {
            for i in 0..64 {
                let a = (i as f64) / 64.0;
                let _ = black_box(threshold.decode(black_box(a)));
            }
        })
    });
}

fn bench_layouts(c: &mut Criterion) {
    c.bench_function("layout/maj3 validation", |b| {
        b.iter(|| {
            TriangleMaj3Layout::new(55e-9, 50e-9, 330e-9, 880e-9, 220e-9, 55e-9)
                .expect("paper layout is valid")
        })
    });
    c.bench_function("layout/all patterns enumeration", |b| {
        b.iter(|| black_box(all_patterns::<3>()))
    });
}

fn bench_mumag_building_blocks(c: &mut Criterion) {
    let backend = MumagBackend::fast();
    c.bench_function("mumag/discrete wavenumber solve", |b| {
        let f = backend.drive_frequency(55e-9);
        b.iter(|| {
            backend
                .discrete_wavenumber(black_box(f), 0.7)
                .expect("in band")
        })
    });
    c.bench_function("mumag/maj3 geometry build", |b| {
        let layout = TriangleMaj3Layout::paper();
        b.iter(|| backend.geometry(black_box(&layout)).expect("valid"))
    });

    // One short end-to-end LLG segment: the per-pattern cost driver.
    let mut group = c.benchmark_group("mumag/llg");
    group.sample_size(10);
    group.bench_function("mini xor 50 steps", |b| {
        use magnum::material::Material;
        use magnum::mesh::Mesh;
        use magnum::sim::Simulation;
        let mesh = Mesh::new(96, 24, [6.875e-9, 6.875e-9, 1e-9]).expect("mesh");
        b.iter(|| {
            let mut sim = Simulation::builder(mesh.clone(), Material::fecob())
                .build()
                .expect("build");
            for _ in 0..50 {
                sim.step().expect("step");
            }
            black_box(sim.time())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_analytic_gates,
    bench_detectors,
    bench_layouts,
    bench_mumag_building_blocks
);
criterion_main!(benches);
