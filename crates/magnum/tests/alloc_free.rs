//! Steady-state stepping allocates nothing.
//!
//! A std-only counting global allocator tallies the allocations made on
//! each thread. At one worker thread every stage runs on the calling
//! thread, so after a short warm-up, 20 more steps of each integrator —
//! solo (K = 1) and batched (K = 4) — must leave the caller's count
//! unchanged: stage buffers, drive fields, pre-pass scratch and the
//! per-step reductions are all reused.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use magnum::field::demag::DemagMethod;
use magnum::geometry::Polygon;
use magnum::prelude::*;
use magnum::solver::IntegratorKind;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while the thread-local is being
    // torn down at thread exit.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// Safety: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const CELL: f64 = 5e-9;
const WARM_UP: usize = 3;
const STEPS: usize = 20;

/// The triangle gate with a phase-encoded antenna at one thread; the
/// thermal Heun case also draws a fresh realization every step.
fn gate_sim(phase: f64, kind: IntegratorKind, demag: DemagMethod) -> Simulation {
    let (nx, ny) = (40, 20);
    let mut mesh = Mesh::new(nx, ny, [CELL, CELL, 1e-9]).unwrap();
    let w = nx as f64 * CELL;
    let h = ny as f64 * CELL;
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
    let builder = Simulation::builder(mesh, Material::fecob())
        .uniform_magnetization(Vec3::Z)
        .demag(demag)
        .absorbing_frame(AbsorbingFrame::new(3, 0.5))
        .antenna(antenna)
        .integrator(kind)
        .threads(1);
    match kind {
        IntegratorKind::Heun => builder.temperature(300.0).seed(7),
        _ => builder,
    }
    .build()
    .unwrap()
}

fn assert_steady_state_allocation_free(label: &str, mut step: impl FnMut()) {
    for _ in 0..WARM_UP {
        step();
    }
    let before = allocations();
    for _ in 0..STEPS {
        step();
    }
    let made = allocations() - before;
    assert_eq!(made, 0, "{label}: {made} allocations in {STEPS} warm steps");
}

#[test]
fn warm_steps_allocate_nothing() {
    let kinds = [
        IntegratorKind::Heun,
        IntegratorKind::RungeKutta4,
        IntegratorKind::CashKarp45 { tolerance: 1e-7 },
    ];
    for demag in [DemagMethod::ThinFilmLocal, DemagMethod::NewellFft] {
        for kind in kinds {
            let mut sim = gate_sim(0.0, kind, demag);
            assert_eq!(sim.threads(), 1);
            assert_steady_state_allocation_free(&format!("{kind:?} {demag:?} K = 1"), || {
                sim.step().unwrap()
            });

            let members = (0..4)
                .map(|s| gate_sim(s as f64 * 0.37, kind, demag))
                .collect();
            let mut batch = BatchedSimulation::new(members).unwrap();
            assert_steady_state_allocation_free(&format!("{kind:?} {demag:?} K = 4"), || {
                batch.step().unwrap()
            });
        }
    }
}
