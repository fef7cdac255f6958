//! Time integrators for the LLG equation.
//!
//! Three schemes are provided, mirroring the options micromagnetic
//! packages offer (pick one with [`IntegratorKind`]):
//!
//! * Heun — 2nd order predictor-corrector; the correct choice when the
//!   thermal field is active (converges to the Stratonovich solution).
//! * RK4 — classic 4th order fixed-step; the default for deterministic
//!   spin-wave runs.
//! * Cash–Karp 5(4) — adaptive pair with error control, for stiff setups
//!   or when the caller wants accuracy-driven step sizes.
//!
//! ## One stepper family
//!
//! Every scheme advances a K-interleaved [`FieldBatch`]. A
//! [`crate::sim::Simulation`] is the K = 1 case and a
//! [`crate::batch::BatchedSimulation`] the K ≥ 2 case of the same
//! stepper; nothing in a scheme depends on K. Each stage is one fused
//! sweep through `LlgSystem::rhs_stage_batch` with the stage
//! combination applied in the sweep's `fuse` hook, and the sweep picks
//! its kernels from K (see the [`crate::llg`] module docs).
//!
//! All schemes renormalize `|m| = 1` on magnetic cells after each
//! accepted step (the LLG flow conserves the norm exactly; the projection
//! removes the integrator's truncation-error drift).

mod cash_karp;
mod heun;
mod rk4;

use cash_karp::CashKarp45;
use heun::Heun;
use rk4::RungeKutta4;

use crate::error::MagnumError;
use crate::excitation::Antenna;
use crate::field3::{Field3, Field3Ptr, Field3Read, FieldBatch};
use crate::llg::{drive_fields, LlgSystem, MagneticRuns};
use crate::math::Vec3;
use crate::par::WorkerTeam;

/// `out[i] = a[i] + k[i]·c` over `i0..i1`, one component plane at a time.
///
/// The common stage combination of the fixed-step integrators. Per-plane
/// loops keep each loop at three pointers, within the loop vectorizer's
/// runtime alias-check budget; a single interleaved `Vec3` loop over nine
/// pointers falls back to scalar code. `Vec3` arithmetic is componentwise,
/// so the results are bitwise identical to the fused-per-cell form.
///
/// # Safety
///
/// `i0..i1` must be in bounds for all three buffers, `out` must be owned
/// exclusively by the calling block over that range, and `a`/`k` must not
/// be mutated concurrently there.
#[inline(always)]
pub(crate) unsafe fn axpy_range(
    i0: usize,
    i1: usize,
    out: Field3Ptr,
    a: Field3Read,
    k: Field3Ptr,
    c: f64,
) {
    let (ox, oy, oz) = out.planes();
    let (ax, ay, az) = a.planes();
    let (kx, ky, kz) = k.planes();
    for i in i0..i1 {
        *ox.add(i) = *ax.add(i) + *kx.add(i) * c;
    }
    for i in i0..i1 {
        *oy.add(i) = *ay.add(i) + *ky.add(i) * c;
    }
    for i in i0..i1 {
        *oz.add(i) = *az.add(i) + *kz.add(i) * c;
    }
}

/// Which integrator a [`crate::sim::SimulationBuilder`] should construct.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IntegratorKind {
    /// Heun predictor-corrector (use with thermal noise).
    Heun,
    /// Classic fixed-step RK4 (default).
    #[default]
    RungeKutta4,
    /// Adaptive Cash–Karp 5(4) with the given absolute tolerance on `m`.
    CashKarp45 {
        /// Absolute per-step error tolerance on the unit magnetization.
        tolerance: f64,
    },
}

/// A time stepper for K lockstep members of one system: the scheme's
/// stage buffers plus the scratch every stage shares.
pub(crate) struct Stepper {
    scheme: Scheme,
    scratch: StageScratch,
}

/// The scheme-specific state.
enum Scheme {
    Heun(Heun),
    Rk4(RungeKutta4),
    // Boxed: the Cash–Karp state (error planes + controller) is ~2x the
    // other variants; keep the enum small for the common fixed-step case.
    CashKarp(Box<CashKarp45>),
}

/// Scratch shared by every stage of a step: the interleaved base field of
/// the unfused pre-pass, the per-member de-interleave buffers it needs at
/// K ≥ 2, and the per-member drive fields (refilled in place each stage,
/// so the hot loop never allocates).
struct StageScratch {
    base: FieldBatch,
    m: Field3,
    h: Field3,
    ant: Vec<Vec<Vec3>>,
}

impl Stepper {
    /// A stepper of the given kind for `k` lockstep members of `system`.
    pub(crate) fn new(kind: IntegratorKind, system: &LlgSystem, k: usize) -> Self {
        let cells = system.len();
        let scheme = match kind {
            IntegratorKind::Heun => Scheme::Heun(Heun::new(cells, k)),
            IntegratorKind::RungeKutta4 => Scheme::Rk4(RungeKutta4::new(cells, k)),
            IntegratorKind::CashKarp45 { tolerance } => {
                Scheme::CashKarp(Box::new(CashKarp45::new(cells, k, tolerance)))
            }
        };
        let unfused = system.has_unfused();
        // At K = 1 the pre-pass works on the batch planes directly and
        // needs no de-interleave buffers.
        let member = if unfused && k > 1 { cells } else { 0 };
        let scratch = StageScratch {
            base: if unfused {
                FieldBatch::zeros(cells, k)
            } else {
                FieldBatch::empty(k)
            },
            m: Field3::zeros(member),
            h: Field3::zeros(member),
            ant: vec![Vec::new(); k],
        };
        Stepper { scheme, scratch }
    }

    /// Advances the K members of `m` by one step from time `t` with
    /// suggested step `dt`, returning the step actually taken (the
    /// adaptive scheme may take less).
    ///
    /// `system` is member 0's system and carries its antennas; `others`
    /// holds the antennas of members `1..K` (empty at K = 1). `thermal`
    /// is the K-interleaved thermal realization for this step (empty at
    /// T = 0).
    ///
    /// # Errors
    ///
    /// * [`MagnumError::Diverged`] if the state becomes non-finite.
    /// * [`MagnumError::StepSizeUnderflow`] if the adaptive scheme
    ///   cannot meet its tolerance.
    pub(crate) fn step(
        &mut self,
        system: &mut LlgSystem,
        others: &[Vec<Antenna>],
        thermal: &FieldBatch,
        t: f64,
        dt: f64,
        m: &mut FieldBatch,
    ) -> Result<f64, MagnumError> {
        debug_assert_eq!(others.len() + 1, m.k());
        let mut stages = Stages {
            system,
            scratch: &mut self.scratch,
            others,
            thermal,
        };
        match &mut self.scheme {
            Scheme::Heun(s) => s.step(&mut stages, t, dt, m),
            Scheme::Rk4(s) => s.step(&mut stages, t, dt, m),
            Scheme::CashKarp(s) => s.step(&mut stages, t, dt, m),
        }
    }

    /// The step size the adaptive controller would take next (`None` for
    /// the fixed-step schemes, and before the first accepted step).
    pub(crate) fn suggested_dt(&self) -> Option<f64> {
        match &self.scheme {
            Scheme::CashKarp(s) => s.suggested,
            _ => None,
        }
    }

    /// Overwrites the adaptive controller's next step size (a no-op for
    /// the fixed-step schemes) — how the controller state moves between
    /// a simulation and a batch it joins.
    pub(crate) fn set_suggested_dt(&mut self, suggested: Option<f64>) {
        if let Scheme::CashKarp(s) = &mut self.scheme {
            s.suggested = suggested;
        }
    }
}

/// Everything the stages of one step share: the host system, the stage
/// scratch and the per-member inputs.
struct Stages<'a> {
    system: &'a mut LlgSystem,
    scratch: &'a mut StageScratch,
    others: &'a [Vec<Antenna>],
    thermal: &'a FieldBatch,
}

impl Stages<'_> {
    /// One stage: the unfused pre-pass (one FFT plan *and* one demag
    /// scratch arena shared across members, so K runs pay for one set of
    /// transform state), the per-member antenna drives at the stage time,
    /// then the fused sweep with the scheme's stage combination in `fuse`.
    fn eval<F>(&mut self, y: &FieldBatch, t: f64, k_out: &mut FieldBatch, fuse: F)
    where
        F: Fn(usize, usize, Field3Ptr) + Sync,
    {
        let sc = &mut *self.scratch;
        let wrote = self
            .system
            .unfused_prepass_batch(y, t, &mut sc.base, &mut sc.m, &mut sc.h);
        let system: &LlgSystem = self.system;
        for (s, out) in sc.ant.iter_mut().enumerate() {
            let antennas = match s {
                0 => &system.antennas,
                _ => &self.others[s - 1],
            };
            drive_fields(antennas, t, out);
        }
        let base = if wrote { Some(&sc.base) } else { None };
        system.rhs_stage_batch(y, k_out, base, &sc.ant, self.thermal, fuse);
    }

    /// Renormalizes every member after an accepted step ending at `t`.
    fn renormalize(&self, m: &mut FieldBatch, t: f64) -> Result<(), MagnumError> {
        renormalize_and_check(m, self.system.magnetic_runs(), t, self.system.par())
    }

    /// The worker team of the host system.
    fn team(&self) -> &WorkerTeam {
        self.system.par()
    }
}

/// Renormalizes magnetic cells of every member of a K-interleaved batch
/// to |m| = 1 and reports divergence.
///
/// Runs block-parallel on the system's worker team over the magnetic
/// runs the system derived at build (`runs`, one list per block: each
/// block owns its cells' full K lanes, and a run's lanes are one
/// contiguous interleaved range, so vacuum is never visited). Per-block
/// results are folded in block order, so the outcome is deterministic.
/// The arithmetic per (cell, member) element — finiteness test, norm,
/// componentwise divide — does not depend on K or on the partition.
///
/// The loop runs tiled: norms for a small tile first, then one divide loop
/// per component plane. Divide and square root are exactly rounded in
/// IEEE 754, so the vectorized tile produces bitwise the same `m` as a
/// per-cell loop; only the state left behind on a `Diverged` error (which
/// aborts the run) can differ within the failing tile.
pub(crate) fn renormalize_and_check(
    m: &mut FieldBatch,
    runs: &MagneticRuns,
    t: f64,
    team: &WorkerTeam,
) -> Result<(), MagnumError> {
    let kk = m.k();
    // The unchecked tile bodies below rely on both.
    assert!(runs.end() <= m.cells(), "magnetic runs beyond the batch");
    assert_eq!(
        runs.blocks(),
        team.threads().max(1),
        "one run list per block"
    );
    let out = m.ptrs();
    // The divide- and sqrt-heavy tile body is worth compiling 4-wide
    // where the host supports it; `vdivpd`/`vsqrtpd` are correctly
    // rounded, so results are bitwise identical to the baseline copy.
    #[cfg(target_arch = "x86_64")]
    let use_avx2 = std::arch::is_x86_feature_detected!("avx2");
    let renorm = |i0: usize, i1: usize| {
        #[cfg(target_arch = "x86_64")]
        if use_avx2 {
            // Safety: AVX2 support checked at runtime; range safety is
            // the caller's obligation, as for `renormalize_range`.
            return unsafe { renormalize_range_avx2(out, i0, i1, t) };
        }
        // Safety: as above.
        unsafe { renormalize_range(out, i0, i1, t) }
    };
    team.fold_blocks(
        Ok(()),
        |b| {
            // Safety: the runs of different blocks are disjoint, so their
            // interleaved ranges are too, and in bounds for all planes.
            for &(r0, r1) in runs.block(b) {
                renorm(r0 * kk, r1 * kk)?;
            }
            Ok(())
        },
        Result::and,
    )
}

/// The tiled renormalization body: per element `norm = sqrt(x²+y²+z²)`
/// (that summation order), then componentwise `/= norm`, restructured so
/// each loop touches few enough pointers to vectorize.
///
/// # Safety
///
/// `start..end` must be in bounds for all three planes and owned
/// exclusively by the calling block.
#[inline(always)]
unsafe fn renormalize_range(
    out: Field3Ptr,
    start: usize,
    end: usize,
    t: f64,
) -> Result<(), MagnumError> {
    const TILE: usize = 128;
    let (px, py, pz) = out.planes();
    let mut norms = [0.0f64; TILE];
    let mut i0 = start;
    while i0 < end {
        let i1 = (i0 + TILE).min(end);
        let mut ok = true;
        for i in i0..i1 {
            let (x, y, z) = (*px.add(i), *py.add(i), *pz.add(i));
            let norm = (x * x + y * y + z * z).sqrt();
            norms[i - i0] = norm;
            // Acceptance test: all components finite and a nonzero norm.
            // An overflowed (infinite) norm with finite components
            // divides through.
            ok &= x.is_finite() && y.is_finite() && z.is_finite() && norm != 0.0;
        }
        if !ok {
            return Err(MagnumError::Diverged { time: t });
        }
        for i in i0..i1 {
            *px.add(i) /= norms[i - i0];
        }
        for i in i0..i1 {
            *py.add(i) /= norms[i - i0];
        }
        for i in i0..i1 {
            *pz.add(i) /= norms[i - i0];
        }
        i0 = i1;
    }
    Ok(())
}

/// [`renormalize_range`] compiled with AVX2 enabled, for hosts that have
/// it (checked at runtime by the caller).
///
/// # Safety
///
/// As for [`renormalize_range`]; additionally the host must support
/// AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn renormalize_range_avx2(
    out: Field3Ptr,
    start: usize,
    end: usize,
    t: f64,
) -> Result<(), MagnumError> {
    // Safety: forwarded contract.
    unsafe { renormalize_range(out, start, end, t) }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::{IntegratorKind, Stepper};
    use crate::error::MagnumError;
    use crate::field::zeeman::Zeeman;
    use crate::field3::FieldBatch;
    use crate::llg::{LlgSystem, SystemSpec};
    use crate::math::Vec3;
    use crate::GAMMA;

    /// A single macrospin in a uniform +z field — the one LLG problem with
    /// a closed-form solution, used to validate every integrator.
    pub fn macrospin(alpha: f64, h: f64) -> LlgSystem {
        SystemSpec {
            terms: vec![Box::new(Zeeman::uniform(Vec3::Z * h))],
            antennas: Vec::new(),
            alpha: vec![alpha],
            gamma: GAMMA,
            mask: vec![true],
            nx: 1,
            threads: 1,
        }
        .build()
    }

    /// A macrospin stepper of the given kind (K = 1) and the initial
    /// state m = x̂.
    pub fn macrospin_stepper(kind: IntegratorKind, sys: &LlgSystem) -> (Stepper, FieldBatch) {
        let mut m = FieldBatch::zeros(1, 1);
        m.set(0, 0, Vec3::X);
        (Stepper::new(kind, sys, 1), m)
    }

    /// One solo step at T = 0 with no antennas.
    pub fn step(
        stepper: &mut Stepper,
        sys: &mut LlgSystem,
        t: f64,
        dt: f64,
        m: &mut FieldBatch,
    ) -> Result<f64, MagnumError> {
        stepper.step(sys, &[], &FieldBatch::empty(1), t, dt, m)
    }

    /// Analytic macrospin solution starting from m = x̂ at t = 0:
    /// precession at ω = γμ₀H/(1+α²) while the polar angle obeys
    /// tan(θ/2) = tan(θ₀/2)·exp(−αωt).
    pub fn macrospin_analytic(alpha: f64, h: f64, t: f64) -> Vec3 {
        let omega = GAMMA * crate::MU0 * h / (1.0 + alpha * alpha);
        // dm/dt = −γμ₀ m×H: with H ∥ +ẑ and m = x̂ this is +γμ₀H·ŷ, so the
        // azimuth increases with time under this sign convention.
        let phi = omega * t;
        let theta0: f64 = std::f64::consts::FRAC_PI_2;
        let theta = 2.0 * ((theta0 / 2.0).tan() * (-alpha * omega * t).exp()).atan();
        Vec3::new(
            theta.sin() * phi.cos(),
            theta.sin() * phi.sin(),
            theta.cos(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    fn run_integrator(kind: IntegratorKind, alpha: f64, h: f64, t_end: f64, dt: f64) -> Vec3 {
        let mut sys = macrospin(alpha, h);
        let (mut stepper, mut m) = macrospin_stepper(kind, &sys);
        let mut t = 0.0;
        while t < t_end - 1e-18 {
            let taken =
                step(&mut stepper, &mut sys, t, dt.min(t_end - t), &mut m).expect("step failed");
            t += taken;
        }
        m.get(0, 0)
    }

    #[test]
    fn all_integrators_match_macrospin_analytics() {
        let alpha = 0.1;
        let h = 1e5;
        let t_end = 50e-12;
        let expected = macrospin_analytic(alpha, h, t_end);
        for kind in [
            IntegratorKind::Heun,
            IntegratorKind::RungeKutta4,
            IntegratorKind::CashKarp45 { tolerance: 1e-8 },
        ] {
            let m = run_integrator(kind, alpha, h, t_end, 5e-15);
            let err = (m - expected).norm();
            assert!(
                err < 1e-4,
                "{kind:?} error vs analytic solution too large: {err} (m = {m}, expected {expected})"
            );
        }
    }

    #[test]
    fn integrators_preserve_unit_norm() {
        for kind in [
            IntegratorKind::Heun,
            IntegratorKind::RungeKutta4,
            IntegratorKind::CashKarp45 { tolerance: 1e-7 },
        ] {
            let m = run_integrator(kind, 0.02, 5e5, 100e-12, 1e-14);
            assert!(
                (m.norm() - 1.0).abs() < 1e-12,
                "{kind:?} drifted off the unit sphere"
            );
        }
    }

    #[test]
    fn rk4_is_more_accurate_than_heun_at_same_step() {
        let alpha = 0.05;
        let h = 2e5;
        let t_end = 100e-12;
        let dt = 1e-13;
        let expected = macrospin_analytic(alpha, h, t_end);
        let err_heun =
            (run_integrator(IntegratorKind::Heun, alpha, h, t_end, dt) - expected).norm();
        let err_rk4 =
            (run_integrator(IntegratorKind::RungeKutta4, alpha, h, t_end, dt) - expected).norm();
        assert!(
            err_rk4 < err_heun,
            "RK4 ({err_rk4}) should beat Heun ({err_heun}) at dt = {dt}"
        );
    }

    /// The magnetic runs of `mask` split over `blocks` worker blocks.
    fn runs_of(mask: &[bool], blocks: usize) -> MagneticRuns {
        let cells: Vec<u32> = (0..mask.len() as u32)
            .filter(|&i| mask[i as usize])
            .collect();
        MagneticRuns::new(&cells, blocks)
    }

    fn batch_of(v: &[Vec3]) -> FieldBatch {
        let mut b = FieldBatch::zeros(v.len(), 1);
        b.load_member(0, v);
        b
    }

    #[test]
    fn renormalize_rejects_nan() {
        let team = WorkerTeam::new(1);
        let mut m = batch_of(&[Vec3::new(f64::NAN, 0.0, 0.0)]);
        let err = renormalize_and_check(&mut m, &runs_of(&[true], 1), 1e-9, &team);
        assert!(matches!(err, Err(MagnumError::Diverged { .. })));
    }

    #[test]
    fn renormalize_skips_vacuum() {
        let team = WorkerTeam::new(1);
        let mut m = FieldBatch::zeros(1, 1);
        renormalize_and_check(&mut m, &runs_of(&[false], 1), 0.0, &team)
            .expect("vacuum zero vector is fine");
        assert_eq!(m.get(0, 0), Vec3::ZERO);
    }

    #[test]
    fn renormalize_is_identical_serial_and_parallel() {
        let n = 137;
        let mask: Vec<bool> = (0..n).map(|i| i % 5 != 0).collect();
        let original: Vec<Vec3> = (0..n)
            .map(|i| {
                if mask[i] {
                    Vec3::new(1.0 + 0.01 * i as f64, -0.3, 0.5 * (i as f64).sin())
                } else {
                    Vec3::ZERO
                }
            })
            .collect();
        let mut serial = batch_of(&original);
        renormalize_and_check(&mut serial, &runs_of(&mask, 1), 0.0, &WorkerTeam::new(1)).unwrap();
        let mut parallel = batch_of(&original);
        renormalize_and_check(&mut parallel, &runs_of(&mask, 4), 0.0, &WorkerTeam::new(4)).unwrap();
        assert_eq!(serial, parallel);
        // Per element the tiled body is the per-cell expression.
        for (i, v) in original.iter().enumerate() {
            let want = if mask[i] { *v / v.norm() } else { *v };
            assert_eq!(serial.get(i, 0), want, "cell {i}");
        }
    }

    #[test]
    fn default_kind_is_rk4() {
        assert_eq!(IntegratorKind::default(), IntegratorKind::RungeKutta4);
    }
}
