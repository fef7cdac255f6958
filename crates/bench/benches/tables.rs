//! Criterion benches regenerating each table and figure of the paper
//! (the analytic fast paths; the full micromagnetic regenerations live
//! in the `repro` binary where they belong — they take minutes, not
//! microseconds).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use magnum::geometry::rasterize;
use magnum::mesh::Mesh;
use swgates::encoding::Bit;
use swgates::prelude::*;
use swperf::circuit_cost::fanout_advantage;
use swperf::compare::Comparison;
use swperf::mecell::MeCell;

/// Table I: the FO2 MAJ3 truth table with verification.
fn bench_table1(c: &mut Criterion) {
    let backend = AnalyticBackend::paper();
    let gate = Maj3Gate::paper();
    c.bench_function("table1/maj3 truth table + verify", |b| {
        b.iter(|| {
            let table = gate.truth_table(black_box(&backend)).expect("evaluates");
            table
                .verify(|p| Bit::majority(p[0], p[1], p[2]))
                .expect("correct");
            black_box(table.max_fanout_mismatch())
        })
    });
}

/// Table II: the FO2 XOR truth table with threshold verification.
fn bench_table2(c: &mut Criterion) {
    let backend = AnalyticBackend::paper();
    let gate = XorGate::paper();
    c.bench_function("table2/xor truth table + verify", |b| {
        b.iter(|| {
            let table = gate.truth_table(black_box(&backend)).expect("evaluates");
            table.verify(|p| Bit::xor(p[0], p[1])).expect("correct");
            black_box(table.max_fanout_mismatch())
        })
    });
}

/// Table III + the §IV-D ratios.
fn bench_table3(c: &mut Criterion) {
    c.bench_function("table3/comparison + ratios", |b| {
        b.iter(|| {
            let table = Comparison::paper();
            black_box((table.render(), table.ratios().render()))
        })
    });
}

/// Fig. 1: waveform synthesis (sampled sinusoids with φ/k parameters).
fn bench_fig1(c: &mut Criterion) {
    c.bench_function("fig1/waveform synthesis", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (phase, k) in [(0.0, 1.0), (std::f64::consts::PI, 3.0)] {
                for x in 0..256 {
                    acc += (2.0 * std::f64::consts::PI * k * x as f64 / 256.0 + phase).sin();
                }
            }
            black_box(acc)
        })
    });
}

/// Fig. 2: two-wave interference on the ideal backend.
fn bench_fig2(c: &mut Criterion) {
    let backend = AnalyticBackend::ideal();
    let layout = TriangleXorLayout::paper();
    c.bench_function("fig2/interference pair", |b| {
        b.iter(|| {
            let (same, _) = backend.xor_outputs(&layout, [Bit::Zero, Bit::Zero]);
            let (opp, _) = backend.xor_outputs(&layout, [Bit::Zero, Bit::One]);
            black_box((same.abs(), opp.abs()))
        })
    });
}

/// Fig. 3/4: geometry rasterization of the paper-size gates.
fn bench_fig34(c: &mut Criterion) {
    let backend = MumagBackend::new(swphys::film::PerpendicularFilm::fecob(1e-9), 55e-9 / 4.0);
    c.bench_function("fig3/maj3 geometry rasterize", |b| {
        let (shape, bounds) = backend
            .geometry(&TriangleMaj3Layout::paper())
            .expect("valid layout");
        let nx = ((bounds.2 - bounds.0) / backend.cell()).ceil() as usize + 1;
        let ny = ((bounds.3 - bounds.1) / backend.cell()).ceil() as usize + 1;
        b.iter(|| {
            let mut mesh = Mesh::new(nx, ny, [backend.cell(), backend.cell(), 1e-9]).expect("mesh");
            struct Shifted<'a> {
                inner: &'a dyn magnum::geometry::Shape,
                dx: f64,
                dy: f64,
            }
            impl magnum::geometry::Shape for Shifted<'_> {
                fn contains(&self, x: f64, y: f64) -> bool {
                    self.inner.contains(x - self.dx, y - self.dy)
                }
            }
            rasterize(
                &mut mesh,
                &Shifted {
                    inner: shape.as_ref(),
                    dx: -bounds.0,
                    dy: -bounds.1,
                },
            );
            black_box(mesh.magnetic_cell_count())
        })
    });
    c.bench_function("fig4/xor geometry rasterize", |b| {
        let (shape, bounds) = backend
            .geometry(&TriangleXorLayout::paper())
            .expect("valid layout");
        b.iter(|| {
            let nx = ((bounds.2 - bounds.0) / backend.cell()).ceil() as usize + 1;
            let ny = ((bounds.3 - bounds.1) / backend.cell()).ceil() as usize + 1;
            let mut count = 0;
            let mut mesh = Mesh::new(nx, ny, [backend.cell(), backend.cell(), 1e-9]).expect("mesh");
            mesh.set_mask_by(|x, y| shape.contains(x + bounds.0, y + bounds.1));
            count += mesh.magnetic_cell_count();
            black_box(count)
        })
    });
}

/// Fig. 5 proxy: the per-pattern simulation *setup* cost (mesh, mask,
/// damping map, antennas). The full field-map regeneration is
/// `repro fig5`.
fn bench_fig5_setup(c: &mut Criterion) {
    let backend = MumagBackend::fast();
    let layout = TriangleMaj3Layout::fast();
    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);
    group.bench_function("mini maj3 plan + geometry", |b| {
        b.iter(|| black_box(backend.geometry(&layout).expect("valid")))
    });
    group.finish();
}

/// The §I circuit-level claim: FO2 vs replication on adders.
fn bench_circuit_comparison(c: &mut Criterion) {
    use swgates::circuit::Circuit;
    c.bench_function("circuit/32-bit adder fanout advantage", |b| {
        let adder = Circuit::ripple_carry_adder(32);
        let me = MeCell::paper();
        b.iter(|| black_box(fanout_advantage(&adder, &me)))
    });
}

criterion_group!(
    benches,
    bench_table1,
    bench_table2,
    bench_table3,
    bench_fig1,
    bench_fig2,
    bench_fig34,
    bench_fig5_setup,
    bench_circuit_comparison
);
criterion_main!(benches);
