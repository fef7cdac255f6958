//! Micromagnetic gate backend — the reproduction of the paper's MuMax3
//! validation (§IV).
//!
//! For each input pattern the backend rasterizes the gate geometry onto a
//! finite-difference mesh, attaches one CW antenna per input (phase 0 or
//! π per the logic encoding), integrates the LLG equation with the
//! [`magnum`] solver until the interference pattern is in steady state,
//! and reads amplitude and phase at both outputs with single-bin DFT
//! probes — the in-silico equivalent of the paper's §IV-B experiments.
//!
//! ## Numerical fidelity details
//!
//! * **Discrete dispersion.** With the thin-film local demag term the
//!   linearized film obeys `ω = γμ₀(H_i + C·k_eff²)` where
//!   `k_eff² = (4/Δ²)·[sin²(k_x Δ/2) + sin²(k_y Δ/2)]` is the discrete
//!   Laplacian symbol. The backend derives the drive frequency from this
//!   relation (not the continuum one) so the simulated wavelength matches
//!   the layout's λ exactly along the mesh axes.
//! * **Lattice anisotropy compensation.** The discrete symbol makes the
//!   wavenumber direction-dependent (a 45° diagonal sees a slightly
//!   different k than an axis), which would skew the carefully engineered
//!   `n·λ` path lengths. The backend pre-compensates each antenna's phase
//!   by the accumulated per-segment deviation — numerically equivalent to
//!   the phase trimming a physical implementation would apply. Disable
//!   with [`MumagBackend::without_compensation`] to measure the skew
//!   (ablation bench).
//! * **Absorbing boundaries.** Every waveguide stub extends a few λ past
//!   its antenna/probe into a ramped-damping absorber, emulating the
//!   paper's effectively open boundaries.

use std::collections::HashMap;
use std::f64::consts::{FRAC_PI_2, PI, SQRT_2};
use std::sync::{Arc, Mutex};

use magnum::excitation::{Antenna, Drive};
use magnum::geometry::{rasterize, Bar, Shape, ShapeSet};
use magnum::material::Material;
use magnum::math::{Complex64, Vec3};
use magnum::mesh::Mesh;
use magnum::probe::{Component, DftProbe, RegionProbe, Snapshot};
use magnum::sim::Simulation;
use magnum::solver::IntegratorKind;
use magnum::MU0;

use swphys::film::PerpendicularFilm;

use crate::encoding::Bit;
use crate::layout::{TriangleMaj3Layout, TriangleXorLayout};
use crate::SwGateError;

/// A gate's rasterizable footprint with its `(x0, y0, x1, y1)` bounding
/// box in metres.
pub type GateFootprint = (Box<dyn Shape>, (f64, f64, f64, f64));

/// Result of one micromagnetic gate run.
#[derive(Debug, Clone)]
pub struct GateRun {
    /// Complex amplitude at output O1 (magnitude in units of m_x).
    pub o1: Complex64,
    /// Complex amplitude at output O2.
    pub o2: Complex64,
    /// Spatial snapshot of m_x at the end of the run (Fig. 5 raw data).
    pub snapshot: Snapshot,
    /// The drive frequency used (Hz).
    pub frequency: f64,
    /// Total simulated time (s).
    pub simulated_time: f64,
}

/// The micromagnetic gate backend (see module docs).
#[derive(Debug, Clone)]
pub struct MumagBackend {
    film: PerpendicularFilm,
    cell: f64,
    drive_amplitude: f64,
    measure_periods: u32,
    samples_per_period: u32,
    settle_factor: f64,
    compensate: bool,
    temperature: f64,
    seed: u64,
    absorber_lambdas: f64,
    alpha_absorber: f64,
    guide_width: Option<f64>,
    /// Edge roughness (amplitude, correlation length, seed), if enabled.
    roughness: Option<(f64, f64, u64)>,
    phase_trim: bool,
    threads: Option<usize>,
    trim_cache: Arc<Mutex<HashMap<TrimKey, Vec<DriveTrim>>>>,
}

/// Per-input drive calibration: an amplitude scale and a phase offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveTrim {
    /// Multiplier on the nominal drive amplitude (≤ 1).
    pub amplitude_scale: f64,
    /// Additive phase offset in radians.
    pub phase_offset: f64,
}

impl DriveTrim {
    /// The identity trim (no correction).
    pub fn identity() -> Self {
        DriveTrim {
            amplitude_scale: 1.0,
            phase_offset: 0.0,
        }
    }
}

/// Amplitude scale and phase of one antenna drive.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DriveSpec {
    amplitude_scale: f64,
    phase: f64,
}

/// Which gate a cached calibration belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum GateKindTag {
    Maj3,
    Xor,
}

/// Cache key identifying a gate instance by its exact dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TrimKey {
    kind: GateKindTag,
    dims: [u64; 6],
}

impl TrimKey {
    fn maj3(layout: &TriangleMaj3Layout) -> Self {
        TrimKey {
            kind: GateKindTag::Maj3,
            dims: [
                layout.wavelength().to_bits(),
                layout.width().to_bits(),
                layout.d1().to_bits(),
                layout.d2().to_bits(),
                layout.d3().to_bits(),
                layout.d4().to_bits(),
            ],
        }
    }

    fn xor(layout: &TriangleXorLayout) -> Self {
        TrimKey {
            kind: GateKindTag::Xor,
            dims: [
                layout.wavelength().to_bits(),
                layout.width().to_bits(),
                layout.d1().to_bits(),
                layout.d2().to_bits(),
                0,
                0,
            ],
        }
    }
}

/// Drive trims that align every input's arrival phase (averaged over
/// both outputs) with input 0's and scale the arrival amplitudes to the
/// per-input `targets` (the largest resulting drive is normalized to the
/// nominal amplitude, so trims never overdrive a transducer).
fn trims_from_transfer(transfer: &[(Complex64, Complex64)], targets: &[f64]) -> Vec<DriveTrim> {
    let mean = |t: &(Complex64, Complex64)| (t.0 + t.1) * 0.5;
    let reference_phase = mean(&transfer[0]).arg();
    let mut scales: Vec<f64> = transfer
        .iter()
        .zip(targets.iter())
        .map(|(t, &target)| {
            let a = mean(t).abs();
            if a > 0.0 {
                target / a
            } else {
                1.0
            }
        })
        .collect();
    let max = scales.iter().copied().fold(0.0, f64::max);
    if max > 0.0 {
        for s in &mut scales {
            *s /= max;
        }
    }
    transfer
        .iter()
        .zip(scales)
        .map(|(t, amplitude_scale)| DriveTrim {
            amplitude_scale,
            phase_offset: reference_phase - mean(t).arg(),
        })
        .collect()
}

/// Arrival-amplitude targets for the MAJ3 inputs.
///
/// The stage-1 inputs (I1, I2) are weighted 0.7 relative to I3 so the
/// combined trunk wave reaches the second crossings about 1.4× stronger
/// than I3's split wave — the balance implied by the paper's own Table I,
/// where the I3-minority residual is 0.164 = (1.4 − 1)/(1.4 + 1). This
/// keeps the tie-break semantics of the majority (the pair outvotes the
/// single input) with the same margin the published gate exhibits.
const MAJ3_AMPLITUDE_TARGETS: [f64; 3] = [0.7, 0.7, 1.0];

/// Arrival-amplitude targets for the XOR inputs (balanced).
const XOR_AMPLITUDE_TARGETS: [f64; 2] = [1.0, 1.0];

impl MumagBackend {
    /// Creates a backend for a film with the given square cell size
    /// (metres). Cells of λ/8 or finer are recommended.
    pub fn new(film: PerpendicularFilm, cell: f64) -> Self {
        MumagBackend {
            film,
            cell,
            drive_amplitude: 5e3,
            measure_periods: 4,
            samples_per_period: 16,
            settle_factor: 1.7,
            compensate: true,
            temperature: 0.0,
            seed: 0,
            absorber_lambdas: 4.0,
            alpha_absorber: 0.35,
            guide_width: None,
            roughness: None,
            phase_trim: true,
            threads: None,
            trim_cache: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// A coarse-but-quick configuration for the paper's film: λ/8 cells
    /// (6.875 nm for λ = 55 nm).
    pub fn fast() -> Self {
        MumagBackend::new(PerpendicularFilm::fecob(1e-9), 55e-9 / 8.0)
    }

    /// Finite-temperature operation (kelvin) for the §IV-D thermal study.
    pub fn with_temperature(mut self, temperature: f64, seed: u64) -> Self {
        self.temperature = temperature;
        self.seed = seed;
        self
    }

    /// Number of worker threads per simulation (0 = auto-detect). The
    /// default leaves the choice to magnum (serial unless the
    /// `MAGNUM_THREADS` environment variable says otherwise), so batch
    /// drivers can budget cores across concurrent jobs.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Overrides the antenna field amplitude (A/m).
    pub fn with_drive_amplitude(mut self, amplitude: f64) -> Self {
        self.drive_amplitude = amplitude;
        self
    }

    /// Overrides the number of measured periods.
    pub fn with_measure_periods(mut self, periods: u32) -> Self {
        self.measure_periods = periods.max(1);
        self
    }

    /// Overrides the settle-time safety factor (multiple of the transit
    /// time before measurement starts).
    pub fn with_settle_factor(mut self, factor: f64) -> Self {
        self.settle_factor = factor.max(1.0);
        self
    }

    /// Disables the lattice-dispersion phase compensation (ablation).
    pub fn without_compensation(mut self) -> Self {
        self.compensate = false;
        self
    }

    /// Disables the single-input phase-trim calibration (ablation: the
    /// junction scattering phases are then left uncorrected).
    pub fn without_phase_trim(mut self) -> Self {
        self.phase_trim = false;
        self
    }

    /// Overrides the simulated waveguide width (metres).
    ///
    /// By default the backend narrows the guides to `0.40·λ` whenever the
    /// layout width is larger — see [`MumagBackend::effective_width`].
    pub fn with_guide_width(mut self, width: f64) -> Self {
        self.guide_width = Some(width);
        self
    }

    /// Enables lithographic edge roughness on the gate geometry: every
    /// edge is perturbed by up to ± `amplitude` metres with lateral
    /// correlation length `correlation` (the variability model of the
    /// studies the paper cites in §IV-D, \[36\]/\[43\]).
    pub fn with_edge_roughness(mut self, amplitude: f64, correlation: f64, seed: u64) -> Self {
        self.roughness = Some((amplitude, correlation, seed));
        self
    }

    /// The waveguide width actually simulated for a layout of width
    /// `layout_width` at wavelength `lambda`.
    ///
    /// With Neumann exchange boundaries and the local thin-film demag,
    /// the film has no dipolar edge pinning, so the n = 2 (antisymmetric)
    /// width mode of a guide of width `w` propagates whenever `w > λ/2`.
    /// The paper's 50 nm guide at λ = 55 nm relies on the edge pinning of
    /// the real film (\[43\]) to stay effectively single-moded; to preserve
    /// that *behaviour* — destructive interference must kill anti-phase
    /// inputs instead of converting them into the odd mode — this backend
    /// narrows the guide to `0.40·λ` (comfortably below the λ/2 cutoff,
    /// so the odd mode is strongly evanescent) unless the layout is
    /// already narrower. This substitution is recorded in DESIGN.md.
    pub fn effective_width(&self, layout_width: f64, lambda: f64) -> f64 {
        match self.guide_width {
            Some(w) => w,
            None => layout_width.min(0.40 * lambda),
        }
    }

    /// Shares `other`'s drive-trim cache with this backend, so a
    /// calibration computed through either is visible to both.
    ///
    /// Clones of one backend already share a cache; this links two
    /// *independently constructed* backends — e.g. a batch runner's
    /// per-job variants that differ only in temperature or drive, which
    /// all use the same T = 0 calibration.
    pub fn with_trim_cache_from(mut self, other: &MumagBackend) -> Self {
        self.trim_cache = Arc::clone(&other.trim_cache);
        self
    }

    /// Computes (and caches) the MAJ3 drive trims now, so later
    /// [`MumagBackend::maj3_run`] calls — possibly on clones in other
    /// threads — find the calibration ready instead of racing to redo
    /// the 3 single-input LLG simulations.
    ///
    /// # Errors
    ///
    /// Propagates layout and solver failures as [`SwGateError`].
    pub fn prewarm_maj3(&self, layout: &TriangleMaj3Layout) -> Result<(), SwGateError> {
        self.maj3_trims(layout).map(|_| ())
    }

    /// Computes (and caches) the XOR drive trims now (see
    /// [`MumagBackend::prewarm_maj3`]).
    ///
    /// # Errors
    ///
    /// Propagates layout and solver failures as [`SwGateError`].
    pub fn prewarm_xor(&self, layout: &TriangleXorLayout) -> Result<(), SwGateError> {
        self.xor_trims(layout).map(|_| ())
    }

    /// Number of gate layouts with a cached drive calibration.
    pub fn cached_trim_count(&self) -> usize {
        self.trim_cache.lock().expect("trim cache poisoned").len()
    }

    /// The film this backend simulates.
    pub fn film(&self) -> &PerpendicularFilm {
        &self.film
    }

    /// The cell size in metres.
    pub fn cell(&self) -> f64 {
        self.cell
    }

    /// Exchange-field constant `C = 2A/(μ₀·Ms)` (units of A·m).
    fn exchange_constant(&self) -> f64 {
        2.0 * self.film.aex() / (MU0 * self.film.ms())
    }

    /// Discrete Laplacian symbol `k_eff²` for wavenumber `k` propagating
    /// at `angle` radians from the mesh x-axis.
    fn discrete_symbol(&self, k: f64, angle: f64) -> f64 {
        let d = self.cell;
        let kx = k * angle.cos();
        let ky = k * angle.sin();
        (4.0 / (d * d)) * ((kx * d / 2.0).sin().powi(2) + (ky * d / 2.0).sin().powi(2))
    }

    /// Angular frequency of the discrete film mode at wavenumber `k`
    /// propagating at `angle`.
    fn discrete_omega(&self, k: f64, angle: f64) -> f64 {
        self.film.gamma()
            * MU0
            * (self.film.internal_field()
                + self.exchange_constant() * self.discrete_symbol(k, angle))
    }

    /// Drive frequency (Hz) that produces exactly the requested
    /// wavelength along the mesh axes.
    pub fn drive_frequency(&self, wavelength: f64) -> f64 {
        let k = 2.0 * PI / wavelength;
        self.discrete_omega(k, 0.0) / (2.0 * PI)
    }

    /// Numerical group velocity (m/s) at the axis wavelength.
    pub fn group_velocity(&self, wavelength: f64) -> f64 {
        let k = 2.0 * PI / wavelength;
        let dk = k * 1e-6;
        (self.discrete_omega(k + dk, 0.0) - self.discrete_omega(k - dk, 0.0)) / (2.0 * dk)
    }

    /// Solves the discrete dispersion for the wavenumber at `frequency`
    /// propagating at `angle`.
    ///
    /// # Errors
    ///
    /// Returns [`SwGateError::InvalidOperatingPoint`] if the frequency is
    /// below the band bottom or beyond the lattice Nyquist limit.
    pub fn discrete_wavenumber(&self, frequency: f64, angle: f64) -> Result<f64, SwGateError> {
        let omega_target = 2.0 * PI * frequency;
        let k_max = PI / (self.cell * angle.cos().abs().max(angle.sin().abs()));
        if omega_target < self.discrete_omega(0.0, angle)
            || omega_target > self.discrete_omega(k_max, angle)
        {
            return Err(SwGateError::InvalidOperatingPoint {
                reason: format!(
                    "frequency {frequency:e} Hz unreachable on the discrete lattice at \
                     angle {angle:.3} rad"
                ),
            });
        }
        let mut lo = 0.0;
        let mut hi = k_max;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.discrete_omega(mid, angle) < omega_target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(0.5 * (lo + hi))
    }

    /// Phase pre-compensation for an input whose path consists of
    /// `(length, angle)` segments: `Σ (k_nominal − k_numeric(θ))·ℓ`.
    fn compensation(
        &self,
        frequency: f64,
        k_nominal: f64,
        segments: &[(f64, f64)],
    ) -> Result<f64, SwGateError> {
        if !self.compensate {
            return Ok(0.0);
        }
        // A wave launched with drive phase φ₀ arrives after a path ℓ with
        // phase φ₀ − k_num·ℓ; driving with φ₀ + (k_num − k_nom)·ℓ makes
        // the arrival phase equal to the nominal φ₀ − k_nom·ℓ.
        let mut phi = 0.0;
        for &(length, angle) in segments {
            let k_num = self.discrete_wavenumber(frequency, angle)?;
            phi += (k_num - k_nominal) * length;
        }
        Ok(phi)
    }

    /// Runs the triangle MAJ3 gate for one input pattern.
    ///
    /// # Errors
    ///
    /// Propagates layout and solver failures as [`SwGateError`].
    pub fn maj3_run(
        &self,
        layout: &TriangleMaj3Layout,
        inputs: [Bit; 3],
    ) -> Result<GateRun, SwGateError> {
        let trims = self.maj3_trims(layout)?;
        let plan = self.plan_maj3(layout)?;
        let drives: Vec<DriveSpec> = inputs
            .iter()
            .zip(trims.iter())
            .map(|(bit, trim)| DriveSpec {
                amplitude_scale: trim.amplitude_scale,
                phase: bit.phase() + trim.phase_offset,
            })
            .collect();
        self.execute(plan, &drives, layout.wavelength())
    }

    /// Runs the triangle MAJ3 gate for several input patterns at once,
    /// advancing all of them in lockstep through one batched LLG solve.
    ///
    /// Element `i` of the result is bitwise identical to
    /// `self.maj3_run(layout, patterns[i])` — batching is purely a
    /// throughput optimization (one shared geometry, K interleaved
    /// magnetization lanes per cell; see DESIGN.md).
    ///
    /// # Errors
    ///
    /// Propagates layout and solver failures as [`SwGateError`].
    pub fn maj3_run_batch(
        &self,
        layout: &TriangleMaj3Layout,
        patterns: &[[Bit; 3]],
    ) -> Result<Vec<GateRun>, SwGateError> {
        if patterns.is_empty() {
            return Ok(Vec::new());
        }
        let trims = self.maj3_trims(layout)?;
        let prepared = patterns
            .iter()
            .map(|inputs| {
                let drives: Vec<DriveSpec> = inputs
                    .iter()
                    .zip(trims.iter())
                    .map(|(bit, trim)| DriveSpec {
                        amplitude_scale: trim.amplitude_scale,
                        phase: bit.phase() + trim.phase_offset,
                    })
                    .collect();
                self.prepare(self.plan_maj3(layout)?, &drives, layout.wavelength())
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.measure_batch(prepared)
    }

    /// Runs the triangle XOR gate for several input patterns at once
    /// (see [`MumagBackend::maj3_run_batch`]).
    ///
    /// # Errors
    ///
    /// Propagates layout and solver failures as [`SwGateError`].
    pub fn xor_run_batch(
        &self,
        layout: &TriangleXorLayout,
        patterns: &[[Bit; 2]],
    ) -> Result<Vec<GateRun>, SwGateError> {
        if patterns.is_empty() {
            return Ok(Vec::new());
        }
        let trims = self.xor_trims(layout)?;
        let prepared = patterns
            .iter()
            .map(|inputs| {
                let drives: Vec<DriveSpec> = inputs
                    .iter()
                    .zip(trims.iter())
                    .map(|(bit, trim)| DriveSpec {
                        amplitude_scale: trim.amplitude_scale,
                        phase: bit.phase() + trim.phase_offset,
                    })
                    .collect();
                self.prepare(self.plan_xor(layout)?, &drives, layout.wavelength())
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.measure_batch(prepared)
    }

    /// Raw complex output amplitudes `(O1, O2)` of the MAJ3 gate.
    ///
    /// # Errors
    ///
    /// Propagates layout and solver failures as [`SwGateError`].
    pub fn maj3_outputs(
        &self,
        layout: &TriangleMaj3Layout,
        inputs: [Bit; 3],
    ) -> Result<(Complex64, Complex64), SwGateError> {
        let run = self.maj3_run(layout, inputs)?;
        Ok((run.o1, run.o2))
    }

    /// Single-input transfer phasors of the MAJ3 gate: element `i` holds
    /// the `(O1, O2)` response with only input `i` driven (phase 0). In
    /// the linear spin-wave regime every pattern's output is the
    /// sign-weighted superposition of these.
    ///
    /// # Errors
    ///
    /// Propagates layout and solver failures as [`SwGateError`].
    pub fn maj3_transfer(
        &self,
        layout: &TriangleMaj3Layout,
    ) -> Result<Vec<(Complex64, Complex64)>, SwGateError> {
        self.transfer(GateKindTag::Maj3, layout.wavelength(), 3, || {
            self.plan_maj3(layout)
        })
    }

    /// Per-input drive trims that align all single-input arrival phases
    /// at the outputs and balance the arrival amplitudes (the in-silico
    /// equivalent of transducer trimming; junction scattering phases,
    /// junction losses and residual lattice effects are calibrated
    /// away). Cached per layout.
    ///
    /// # Errors
    ///
    /// Propagates layout and solver failures as [`SwGateError`].
    pub fn maj3_trims(&self, layout: &TriangleMaj3Layout) -> Result<Vec<DriveTrim>, SwGateError> {
        if !self.phase_trim {
            return Ok(vec![DriveTrim::identity(); 3]);
        }
        let key = TrimKey::maj3(layout);
        if let Some(trims) = self
            .trim_cache
            .lock()
            .expect("trim cache poisoned")
            .get(&key)
        {
            return Ok(trims.clone());
        }
        let transfer = self.maj3_transfer(layout)?;
        let trims = trims_from_transfer(&transfer, &MAJ3_AMPLITUDE_TARGETS);
        self.trim_cache
            .lock()
            .expect("trim cache poisoned")
            .insert(key, trims.clone());
        Ok(trims)
    }

    /// Runs the triangle XOR gate for one input pattern.
    ///
    /// # Errors
    ///
    /// Propagates layout and solver failures as [`SwGateError`].
    pub fn xor_run(
        &self,
        layout: &TriangleXorLayout,
        inputs: [Bit; 2],
    ) -> Result<GateRun, SwGateError> {
        let trims = self.xor_trims(layout)?;
        let plan = self.plan_xor(layout)?;
        let drives: Vec<DriveSpec> = inputs
            .iter()
            .zip(trims.iter())
            .map(|(bit, trim)| DriveSpec {
                amplitude_scale: trim.amplitude_scale,
                phase: bit.phase() + trim.phase_offset,
            })
            .collect();
        self.execute(plan, &drives, layout.wavelength())
    }

    /// Raw complex output amplitudes `(O1, O2)` of the XOR gate.
    ///
    /// # Errors
    ///
    /// Propagates layout and solver failures as [`SwGateError`].
    pub fn xor_outputs(
        &self,
        layout: &TriangleXorLayout,
        inputs: [Bit; 2],
    ) -> Result<(Complex64, Complex64), SwGateError> {
        let run = self.xor_run(layout, inputs)?;
        Ok((run.o1, run.o2))
    }

    /// Single-input transfer phasors of the XOR gate (see
    /// [`MumagBackend::maj3_transfer`]).
    ///
    /// # Errors
    ///
    /// Propagates layout and solver failures as [`SwGateError`].
    pub fn xor_transfer(
        &self,
        layout: &TriangleXorLayout,
    ) -> Result<Vec<(Complex64, Complex64)>, SwGateError> {
        self.transfer(GateKindTag::Xor, layout.wavelength(), 2, || {
            self.plan_xor(layout)
        })
    }

    /// Per-input drive trims for the XOR gate (cached; see
    /// [`MumagBackend::maj3_trims`]).
    ///
    /// # Errors
    ///
    /// Propagates layout and solver failures as [`SwGateError`].
    pub fn xor_trims(&self, layout: &TriangleXorLayout) -> Result<Vec<DriveTrim>, SwGateError> {
        if !self.phase_trim {
            return Ok(vec![DriveTrim::identity(); 2]);
        }
        let key = TrimKey::xor(layout);
        if let Some(trims) = self
            .trim_cache
            .lock()
            .expect("trim cache poisoned")
            .get(&key)
        {
            return Ok(trims.clone());
        }
        let transfer = self.xor_transfer(layout)?;
        let trims = trims_from_transfer(&transfer, &XOR_AMPLITUDE_TARGETS);
        self.trim_cache
            .lock()
            .expect("trim cache poisoned")
            .insert(key, trims.clone());
        Ok(trims)
    }

    /// Measures single-input transfer phasors by running the gate once
    /// per input with the other antennas silenced. Calibration runs are
    /// always performed at T = 0 so trims are noise-free.
    fn transfer<F>(
        &self,
        _kind: GateKindTag,
        wavelength: f64,
        n_inputs: usize,
        mut plan_builder: F,
    ) -> Result<Vec<(Complex64, Complex64)>, SwGateError>
    where
        F: FnMut() -> Result<GatePlan, SwGateError>,
    {
        let cold = if self.temperature > 0.0 {
            let mut b = self.clone();
            b.temperature = 0.0;
            Some(b)
        } else {
            None
        };
        let backend = cold.as_ref().unwrap_or(self);
        let mut transfer = Vec::with_capacity(n_inputs);
        for active in 0..n_inputs {
            let drives: Vec<DriveSpec> = (0..n_inputs)
                .map(|i| DriveSpec {
                    amplitude_scale: if i == active { 1.0 } else { 0.0 },
                    phase: 0.0,
                })
                .collect();
            let run = backend.execute(plan_builder()?, &drives, wavelength)?;
            transfer.push((run.o1, run.o2));
        }
        Ok(transfer)
    }

    /// The rasterizable footprint and bounding box of the MAJ3 gate —
    /// the raw material of the paper's Fig. 3.
    ///
    /// # Errors
    ///
    /// Propagates layout failures as [`SwGateError`].
    pub fn maj3_geometry(&self, layout: &TriangleMaj3Layout) -> Result<GateFootprint, SwGateError> {
        let plan = self.plan_maj3(layout)?;
        Ok((Box::new(plan.shapes), plan.bounds))
    }

    /// The rasterizable footprint and bounding box of the XOR gate —
    /// the raw material of the paper's Fig. 4.
    ///
    /// # Errors
    ///
    /// Propagates layout failures as [`SwGateError`].
    pub fn xor_geometry(&self, layout: &TriangleXorLayout) -> Result<GateFootprint, SwGateError> {
        let plan = self.plan_xor(layout)?;
        Ok((Box::new(plan.shapes), plan.bounds))
    }

    /// Builds the simulation plan for the MAJ3 gate: the
    /// combine-then-split network documented in [`crate::layout`], laid
    /// out with the trunk along +x.
    ///
    /// ```text
    ///        A1──d1╲(45°)          C2L─[stub d4 ↑]─O1
    ///  I1 feed d2    ╲         d1╱    ╲d1
    ///                 J──d3──▶ S       S3──d2 feed── I3
    ///        A2──d1╱(45°)      d1╲    ╱d1
    ///  (I2 antenna at A2)         C2R─[stub d4 ↓]─O2
    /// ```
    fn plan_maj3(&self, layout: &TriangleMaj3Layout) -> Result<GatePlan, SwGateError> {
        let lambda = layout.wavelength();
        let w = self.effective_width(layout.width(), lambda);
        let (d1, d2, d3, d4) = (layout.d1(), layout.d2(), layout.d3(), layout.d4());
        let abs_len = self.absorber_lambdas * lambda;
        let pad = 3.0 * self.cell + w;
        let h1 = d1 / SQRT_2;

        // Stations along the trunk axis (y = 0).
        let j = (0.0, 0.0);
        let s = (d3, 0.0);
        let c2l = (s.0 + h1, h1); // upper second crossing
        let c2r = (s.0 + h1, -h1); // lower second crossing
        let s3 = (s.0 + 2.0 * h1, 0.0); // I3's splitter

        // I1: elbow A1 up-left of J, horizontal feed to the left.
        let a1 = (-h1, h1);
        let i1_ant = (a1.0 - d2, a1.1);
        let i1_end = (i1_ant.0 - abs_len, a1.1);
        // I2: antenna directly on the lower diagonal at distance d1.
        let a2 = (-h1, -h1);
        let a2_ext = (a2.0 - abs_len / SQRT_2, a2.1 - abs_len / SQRT_2);
        // I3: horizontal feed to the right of S3.
        let i3_ant = (s3.0 + d2, 0.0);
        let i3_end = (i3_ant.0 + abs_len, 0.0);
        // Output stubs: up from C2L, down from C2R, probe at distance d4,
        // absorber beyond.
        let o1 = (c2l.0, c2l.1 + d4);
        let o2 = (c2r.0, c2r.1 - d4);
        let stub1_end = (o1.0, o1.1 + abs_len);
        let stub2_end = (o2.0, o2.1 - abs_len);

        let mut shapes = ShapeSet::new();
        shapes.push(Bar::new(i1_end, a1, w)); // I1 feed
        shapes.push(Bar::new(a1, j, w)); // I1 diagonal
        shapes.push(Bar::new(a2_ext, j, w)); // I2 diagonal (with absorber tail)
        shapes.push(Bar::new(j, s, w)); // trunk
        shapes.push(Bar::new(s, c2l, w)); // fan-out arms
        shapes.push(Bar::new(s, c2r, w));
        shapes.push(Bar::new(s3, c2l, w)); // I3 split arms
        shapes.push(Bar::new(s3, c2r, w));
        shapes.push(Bar::new(s3, i3_end, w)); // I3 feed
        shapes.push(Bar::new(c2l, stub1_end, w)); // output stubs
        shapes.push(Bar::new(c2r, stub2_end, w));

        let quarter = PI / 4.0;
        let antennas = vec![
            AntennaPlan {
                rect: cross_section_x(i1_ant.0, i1_ant.1, w, self.cell),
                nominal: i1_ant,
                direction: (1.0, 0.0),
                feed_angle: 0.0,
                segments: vec![
                    (d2, 0.0),
                    (d1, quarter),
                    (d3, 0.0),
                    (d1, quarter),
                    (d4, FRAC_PI_2),
                ],
            },
            AntennaPlan {
                rect: diagonal_cross_section(a2, w, self.cell),
                nominal: a2,
                direction: (1.0 / SQRT_2, 1.0 / SQRT_2),
                feed_angle: quarter,
                segments: vec![(d1, quarter), (d3, 0.0), (d1, quarter), (d4, FRAC_PI_2)],
            },
            AntennaPlan {
                rect: cross_section_x(i3_ant.0, i3_ant.1, w, self.cell),
                nominal: i3_ant,
                direction: (-1.0, 0.0),
                feed_angle: 0.0,
                segments: vec![(d2, 0.0), (d1, quarter), (d4, FRAC_PI_2)],
            },
        ];

        let probes = [
            cross_section_y(o1.0, o1.1, w, self.cell),
            cross_section_y(o2.0, o2.1, w, self.cell),
        ];

        let absorbers = vec![
            AbsorberPlan::left(i1_end.0, i1_ant.0 - 2.0 * self.cell, a1.1, w),
            AbsorberPlan::diag(a2_ext, a2, w, false),
            AbsorberPlan::right(i3_ant.0 + 2.0 * self.cell, i3_end.0, 0.0, w),
            AbsorberPlan::up(o1.0, o1.1 + 2.0 * self.cell, stub1_end.1, w),
            AbsorberPlan::down(o2.0, stub2_end.1, o2.1 - 2.0 * self.cell, w),
        ];

        Ok(GatePlan {
            shapes,
            antennas,
            probes,
            absorbers,
            bounds: (
                i1_end.0.min(a2_ext.0) - pad,
                (a2_ext.1).min(stub2_end.1) - pad,
                i3_end.0 + pad,
                (a1.1).max(stub1_end.1) + pad,
            ),
            transit_distance: layout.path_i1() + abs_len,
        })
    }

    /// Builds the simulation plan for the XOR gate (Fig. 4): the MAJ3
    /// network without I3/S3/C2 — two d1 input diagonals into J, a short
    /// trunk, the fan-out splitter, and probes d1 + d2 down the arms.
    fn plan_xor(&self, layout: &TriangleXorLayout) -> Result<GatePlan, SwGateError> {
        let lambda = layout.wavelength();
        let w = self.effective_width(layout.width(), lambda);
        let (d1, d2) = (layout.d1(), layout.d2());
        let trunk = layout.trunk();
        let abs_len = self.absorber_lambdas * lambda;
        let pad = 3.0 * self.cell + w;
        let h1 = d1 / SQRT_2;

        let j = (0.0, 0.0);
        let s = (trunk, 0.0);
        // Antennas on the two input diagonals at path distance d1.
        let a1 = (-h1, h1);
        let a1_ext = (a1.0 - abs_len / SQRT_2, a1.1 + abs_len / SQRT_2);
        let a2 = (-h1, -h1);
        let a2_ext = (a2.0 - abs_len / SQRT_2, a2.1 - abs_len / SQRT_2);
        // Fan-out arms: probes at path distance d1 + d2 from S, absorber
        // beyond.
        let arm_probe = d1 + d2;
        let p_up = (s.0 + arm_probe / SQRT_2, arm_probe / SQRT_2);
        let p_dn = (s.0 + arm_probe / SQRT_2, -arm_probe / SQRT_2);
        let arm_total = arm_probe + abs_len;
        let e_up = (s.0 + arm_total / SQRT_2, arm_total / SQRT_2);
        let e_dn = (s.0 + arm_total / SQRT_2, -arm_total / SQRT_2);

        let mut shapes = ShapeSet::new();
        shapes.push(Bar::new(a1_ext, j, w));
        shapes.push(Bar::new(a2_ext, j, w));
        shapes.push(Bar::new(j, s, w));
        shapes.push(Bar::new(s, e_up, w));
        shapes.push(Bar::new(s, e_dn, w));

        let quarter = PI / 4.0;
        let antennas = vec![
            AntennaPlan {
                rect: diagonal_cross_section(a1, w, self.cell),
                nominal: a1,
                direction: (1.0 / SQRT_2, -1.0 / SQRT_2),
                feed_angle: quarter,
                segments: vec![(d1, quarter), (trunk, 0.0), (d1 + d2, quarter)],
            },
            AntennaPlan {
                rect: diagonal_cross_section(a2, w, self.cell),
                nominal: a2,
                direction: (1.0 / SQRT_2, 1.0 / SQRT_2),
                feed_angle: quarter,
                segments: vec![(d1, quarter), (trunk, 0.0), (d1 + d2, quarter)],
            },
        ];

        let probes = [
            diagonal_cross_section(p_up, w, self.cell),
            diagonal_cross_section(p_dn, w, self.cell),
        ];

        let absorbers = vec![
            AbsorberPlan::diag(a1_ext, a1, w, false),
            AbsorberPlan::diag(a2_ext, a2, w, false),
            AbsorberPlan::diag(p_up, e_up, w, true),
            AbsorberPlan::diag(p_dn, e_dn, w, true),
        ];

        Ok(GatePlan {
            shapes,
            antennas,
            probes,
            absorbers,
            bounds: (
                a1_ext.0.min(a2_ext.0) - pad,
                a2_ext.1.min(e_dn.1) - pad,
                e_up.0.max(e_dn.0) + pad,
                a1_ext.1.max(e_up.1) + pad,
            ),
            transit_distance: layout.path_length() + abs_len,
        })
    }

    /// Rasterizes, wires and runs a gate plan.
    fn execute(
        &self,
        plan: GatePlan,
        drives: &[DriveSpec],
        wavelength: f64,
    ) -> Result<GateRun, SwGateError> {
        let prepared = self.prepare(plan, drives, wavelength)?;
        Ok(self.measure_batch(vec![prepared])?.remove(0))
    }

    /// Rasterizes and wires a gate plan into a ready-to-run simulation
    /// plus the timing and probe metadata the measurement phase needs.
    fn prepare(
        &self,
        plan: GatePlan,
        drives: &[DriveSpec],
        wavelength: f64,
    ) -> Result<PreparedGate, SwGateError> {
        assert_eq!(
            drives.len(),
            plan.antennas.len(),
            "drive count must match the plan's antenna count"
        );
        let frequency = self.drive_frequency(wavelength);
        let k_nominal = 2.0 * PI / wavelength;
        let period = 1.0 / frequency;

        // Mesh: shift plan coordinates into the first quadrant. The
        // shift is snapped to whole cells so the plan's mirror-symmetry
        // axis (y = 0) lands exactly on a cell boundary — otherwise the
        // two halves of the gate rasterize differently and the output
        // symmetry (and the interference contrast) degrades.
        let (x0, y0, x1, y1) = plan.bounds;
        let shift = (
            (-x0 / self.cell).ceil() * self.cell,
            (-y0 / self.cell).ceil() * self.cell,
        );
        let nx = ((x1 + shift.0) / self.cell).ceil() as usize + 1;
        let ny = ((y1 + shift.1) / self.cell).ceil() as usize + 1;
        let mut mesh = Mesh::new(nx, ny, [self.cell, self.cell, self.film.thickness()])?;
        let shifted = ShiftedShape {
            inner: plan.shapes,
            dx: shift.0,
            dy: shift.1,
        };
        if let Some((amplitude, correlation, seed)) = self.roughness {
            let rough = magnum::geometry::Rough::new(shifted, amplitude, correlation, seed);
            rasterize(&mut mesh, &rough);
        } else {
            rasterize(&mut mesh, &shifted);
        }

        // Damping map with absorbers.
        let mut alpha = vec![self.film.alpha(); mesh.cell_count()];
        for absorber in &plan.absorbers {
            absorber.apply(
                &mesh,
                shift,
                self.alpha_absorber,
                self.film.alpha(),
                &mut alpha,
            );
        }

        // Antennas with phase encoding, lattice compensation and antenna
        // centroid correction (rasterization quantizes the footprint to
        // the cell grid, displacing its effective centre along the feed).
        let mut antennas = Vec::with_capacity(plan.antennas.len());
        for (antenna_plan, spec) in plan.antennas.iter().zip(drives.iter()) {
            let mut comp = self.compensation(frequency, k_nominal, &antenna_plan.segments)?;
            let (rx0, ry0, rx1, ry1) = shift_rect(antenna_plan.rect, shift);
            let probe_drive = Drive::logic_cw(self.drive_amplitude, frequency, 0.0);
            let antenna = Antenna::over_rect(&mesh, rx0, ry0, rx1, ry1, Vec3::X, probe_drive);
            if antenna.cells().is_empty() {
                return Err(SwGateError::Simulation {
                    reason: "an antenna footprint contains no magnetic cells".into(),
                });
            }
            if self.compensate {
                // Effective centroid of the driven cells vs the nominal
                // antenna point, projected onto the launch direction.
                let (mut cx, mut cy) = (0.0, 0.0);
                for &c in antenna.cells() {
                    let (ix, iy) = mesh.cell_index(c);
                    let (x, y) = mesh.cell_center(ix, iy);
                    cx += x;
                    cy += y;
                }
                let n = antenna.cells().len() as f64;
                let centroid = (cx / n - shift.0, cy / n - shift.1);
                let delta = (centroid.0 - antenna_plan.nominal.0) * antenna_plan.direction.0
                    + (centroid.1 - antenna_plan.nominal.1) * antenna_plan.direction.1;
                let k_feed = self.discrete_wavenumber(frequency, antenna_plan.feed_angle)?;
                // A centroid displaced toward the gate shortens the path
                // by δ, advancing the arrival phase by k·δ; retard the
                // drive to restore the nominal arrival phase.
                comp -= k_feed * delta;
            }
            let drive = Drive::logic_cw(
                self.drive_amplitude * spec.amplitude_scale,
                frequency,
                spec.phase + comp,
            );
            antennas.push(Antenna::new(antenna.cells().to_vec(), Vec3::X, drive));
        }

        // Material mirror of the film parameters (Ku reconstructed from
        // the film's anisotropy field).
        let ku1 = self.film.anisotropy_field() * MU0 * self.film.ms() / 2.0;
        let material = Material::builder()
            .saturation_magnetization(self.film.ms())
            .exchange_stiffness(self.film.aex())
            .gilbert_damping(self.film.alpha())
            .uniaxial_anisotropy(ku1, Vec3::Z)
            .gamma(self.film.gamma())
            .build()?;

        let mut builder = Simulation::builder(mesh, material)
            .uniform_magnetization(Vec3::Z)
            .damping_map(alpha)
            .temperature(self.temperature)
            .seed(self.seed)
            .integrator(if self.temperature > 0.0 {
                IntegratorKind::Heun
            } else {
                IntegratorKind::RungeKutta4
            });
        if let Some(threads) = self.threads {
            builder = builder.threads(threads);
        }
        for antenna in antennas {
            builder = builder.antenna(antenna);
        }
        let mut sim = builder.build()?;

        // Commensurate time step: an integer number of steps per sample,
        // an integer number of samples per period.
        let dt_auto = sim.time_step();
        let samples = self.samples_per_period as f64;
        let steps_per_sample = (period / samples / dt_auto).ceil().max(1.0);
        sim.set_time_step(period / (samples * steps_per_sample))?;

        // Settle: transit time (numerical group velocity) × safety.
        let vg = self.group_velocity(wavelength).max(1.0);
        let transit = plan.transit_distance / vg;
        let settle = (transit * self.settle_factor / period).ceil() * period;

        Ok(PreparedGate {
            sim,
            frequency,
            period,
            settle,
            probes: [
                shift_rect(plan.probes[0], shift),
                shift_rect(plan.probes[1], shift),
            ],
        })
    }

    /// Settles and measures K prepared gates in lockstep through one
    /// batched LLG advance, with single-bin DFT probes at both outputs
    /// of every member. A single gate is the K = 1 batch, which runs the
    /// single-system kernels; every member's trajectory — and therefore
    /// every returned [`GateRun`] — is bitwise identical to measuring it
    /// alone, so batching K same-layout patterns only amortizes the
    /// field sweeps.
    fn measure_batch(&self, prepared: Vec<PreparedGate>) -> Result<Vec<GateRun>, SwGateError> {
        let k = prepared.len();
        let host = &prepared[0];
        let (frequency, period, settle) = (host.frequency, host.period, host.settle);
        for p in &prepared[1..] {
            if p.frequency != frequency || p.settle != settle {
                return Err(SwGateError::Simulation {
                    reason: "batched gate runs must share one layout (frequency and \
                             settle schedule differ)"
                        .into(),
                });
            }
        }
        let probe_rects: Vec<[(f64, f64, f64, f64); 2]> =
            prepared.iter().map(|p| p.probes).collect();
        let mut batch =
            magnum::BatchedSimulation::new(prepared.into_iter().map(|p| p.sim).collect())?;
        batch.run(settle)?;

        let mut probes: Vec<(DftProbe, DftProbe)> = (0..k)
            .map(|s| {
                let mesh = batch.member_sim(s).mesh();
                let region = |rect: (f64, f64, f64, f64)| {
                    RegionProbe::over_rect(mesh, rect.0, rect.1, rect.2, rect.3, Component::X)
                };
                (
                    DftProbe::new(region(probe_rects[s][0]), frequency),
                    DftProbe::new(region(probe_rects[s][1]), frequency),
                )
            })
            .collect();
        let sample_interval = period / self.samples_per_period as f64;
        batch.run_sampled(
            self.measure_periods as f64 * period,
            sample_interval,
            |t, b| {
                for (s, (p1, p2)) in probes.iter_mut().enumerate() {
                    let view = b.member(s);
                    p1.sample(t, &view);
                    p2.sample(t, &view);
                }
            },
        )?;

        let sims = batch.into_members();
        Ok(sims
            .into_iter()
            .zip(probes)
            .map(|(sim, (p1, p2))| GateRun {
                o1: Complex64::from_polar(p1.amplitude(), p1.phase()),
                o2: Complex64::from_polar(p2.amplitude(), p2.phase()),
                snapshot: sim.snapshot(Component::X),
                frequency,
                simulated_time: sim.time(),
            })
            .collect())
    }
}

/// A gate simulation assembled by [`MumagBackend::prepare`] and ready to
/// advance: the simulation plus the timing/probe metadata the
/// measurement phase consumes.
struct PreparedGate {
    sim: Simulation,
    frequency: f64,
    period: f64,
    settle: f64,
    /// Probe rectangles, already shifted into mesh coordinates.
    probes: [(f64, f64, f64, f64); 2],
}

/// One planned antenna: its footprint rectangle (pre-shift coordinates),
/// nominal centre, launch direction, feed angle and the path segments
/// used for phase compensation.
#[derive(Debug, Clone)]
struct AntennaPlan {
    rect: (f64, f64, f64, f64),
    /// Nominal antenna point the path lengths are measured from.
    nominal: (f64, f64),
    /// Unit vector pointing from the antenna toward the gate.
    direction: (f64, f64),
    /// Angle of the feed guide vs the mesh x-axis (for k lookup).
    feed_angle: f64,
    segments: Vec<(f64, f64)>,
}

/// A complete gate simulation plan.
struct GatePlan {
    shapes: ShapeSet,
    antennas: Vec<AntennaPlan>,
    probes: [(f64, f64, f64, f64); 2],
    absorbers: Vec<AbsorberPlan>,
    bounds: (f64, f64, f64, f64),
    transit_distance: f64,
}

/// Damping absorber over a rectangle, ramping quadratically toward the
/// deep end.
#[derive(Debug, Clone, Copy)]
struct AbsorberPlan {
    rect: (f64, f64, f64, f64),
    /// Ramp axis: 0 = x, 1 = y.
    axis: u8,
    /// Whether damping increases toward +axis.
    deep_positive: bool,
}

impl AbsorberPlan {
    /// Absorber to the left of `x_near` along a horizontal guide at `y`.
    fn left(x_far: f64, x_near: f64, y: f64, w: f64) -> Self {
        AbsorberPlan {
            rect: (x_far, y - w, x_near, y + w),
            axis: 0,
            deep_positive: false,
        }
    }

    /// Absorber to the right of `x_near` along a horizontal guide at `y`.
    fn right(x_near: f64, x_far: f64, y: f64, w: f64) -> Self {
        AbsorberPlan {
            rect: (x_near, y - w, x_far, y + w),
            axis: 0,
            deep_positive: true,
        }
    }

    /// Absorber below `y_near` along a vertical guide at `x`.
    fn down(x: f64, y_far: f64, y_near: f64, w: f64) -> Self {
        AbsorberPlan {
            rect: (x - w, y_far, x + w, y_near),
            axis: 1,
            deep_positive: false,
        }
    }

    /// Absorber above `y_near` along a vertical guide at `x`.
    fn up(x: f64, y_near: f64, y_far: f64, w: f64) -> Self {
        AbsorberPlan {
            rect: (x - w, y_near, x + w, y_far),
            axis: 1,
            deep_positive: true,
        }
    }

    /// Absorber along a diagonal guide between `near` and `far` (bounding
    /// box footprint; the ramp runs along x, `deep_positive` selects
    /// which end absorbs hardest).
    fn diag(a: (f64, f64), b: (f64, f64), w: f64, deep_positive: bool) -> Self {
        AbsorberPlan {
            rect: (
                a.0.min(b.0) - w,
                a.1.min(b.1) - w,
                a.0.max(b.0) + w,
                a.1.max(b.1) + w,
            ),
            axis: 0,
            deep_positive,
        }
    }

    fn apply(&self, mesh: &Mesh, shift: (f64, f64), alpha_max: f64, alpha0: f64, map: &mut [f64]) {
        let (x0, y0, x1, y1) = shift_rect(self.rect, shift);
        if x1 <= x0 || y1 <= y0 {
            return;
        }
        for (ix, iy) in mesh.magnetic_cells() {
            let (x, y) = mesh.cell_center(ix, iy);
            if x < x0 || x > x1 || y < y0 || y > y1 {
                continue;
            }
            let t = match (self.axis, self.deep_positive) {
                (0, true) => (x - x0) / (x1 - x0),
                (0, false) => (x1 - x) / (x1 - x0),
                (_, true) => (y - y0) / (y1 - y0),
                (_, false) => (y1 - y) / (y1 - y0),
            };
            let t = t.clamp(0.0, 1.0);
            let a = alpha0 + (alpha_max - alpha0) * t * t;
            let i = mesh.linear_index(ix, iy);
            map[i] = map[i].max(a);
        }
    }
}

/// A shape translated by `(dx, dy)` — shifts plan coordinates into mesh
/// space.
struct ShiftedShape {
    inner: ShapeSet,
    dx: f64,
    dy: f64,
}

impl Shape for ShiftedShape {
    fn contains(&self, x: f64, y: f64) -> bool {
        self.inner.contains(x - self.dx, y - self.dy)
    }
}

fn shift_rect(rect: (f64, f64, f64, f64), shift: (f64, f64)) -> (f64, f64, f64, f64) {
    (
        rect.0 + shift.0,
        rect.1 + shift.1,
        rect.2 + shift.0,
        rect.3 + shift.1,
    )
}

/// Cross-section rectangle of a horizontal guide at `(x, y)`.
fn cross_section_x(x: f64, y: f64, w: f64, cell: f64) -> (f64, f64, f64, f64) {
    (x - cell, y - w / 2.0 - cell, x + cell, y + w / 2.0 + cell)
}

/// Cross-section rectangle of a vertical guide at `(x, y)`.
fn cross_section_y(x: f64, y: f64, w: f64, cell: f64) -> (f64, f64, f64, f64) {
    (x - w / 2.0 - cell, y - cell, x + w / 2.0 + cell, y + cell)
}

/// Footprint for an antenna on a 45° diagonal guide at point `p`.
fn diagonal_cross_section(p: (f64, f64), w: f64, cell: f64) -> (f64, f64, f64, f64) {
    let r = w / 2.0 + cell;
    (p.0 - r, p.1 - r, p.0 + r, p.1 + r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_backend() -> MumagBackend {
        MumagBackend::fast()
    }

    #[test]
    fn trims_align_phases_and_balance_amplitudes() {
        // Synthetic transfer: input 0 arrives at 0.5∠0.3, input 1 at
        // 1.0∠-0.7. Equal targets must boost input 0's drive relative to
        // input 1's and rotate input 1 by +1.0 rad.
        let transfer = vec![
            (
                Complex64::from_polar(0.5, 0.3),
                Complex64::from_polar(0.5, 0.3),
            ),
            (
                Complex64::from_polar(1.0, -0.7),
                Complex64::from_polar(1.0, -0.7),
            ),
        ];
        let trims = trims_from_transfer(&transfer, &[1.0, 1.0]);
        assert_eq!(trims.len(), 2);
        // The weaker input gets the full drive; the stronger is scaled.
        assert!((trims[0].amplitude_scale - 1.0).abs() < 1e-12);
        assert!((trims[1].amplitude_scale - 0.5).abs() < 1e-12);
        // Phase offsets align both arrivals to input 0's phase.
        assert!((trims[0].phase_offset - 0.0).abs() < 1e-12);
        assert!((trims[1].phase_offset - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trims_respect_amplitude_targets() {
        // Equal transfers with MAJ3 targets [0.7, 0.7, 1.0]: inputs 0, 1
        // are deliberately under-driven.
        let one = (Complex64::ONE, Complex64::ONE);
        let trims = trims_from_transfer(&[one, one, one], &MAJ3_AMPLITUDE_TARGETS);
        assert!((trims[0].amplitude_scale - 0.7).abs() < 1e-12);
        assert!((trims[1].amplitude_scale - 0.7).abs() < 1e-12);
        assert!((trims[2].amplitude_scale - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trims_never_overdrive() {
        let transfer = vec![
            (
                Complex64::from_polar(0.1, 0.0),
                Complex64::from_polar(0.1, 0.0),
            ),
            (
                Complex64::from_polar(2.0, 0.0),
                Complex64::from_polar(2.0, 0.0),
            ),
        ];
        for t in trims_from_transfer(&transfer, &[1.0, 1.0]) {
            assert!(t.amplitude_scale <= 1.0 + 1e-12);
            assert!(t.amplitude_scale > 0.0);
        }
    }

    #[test]
    fn identity_trim_is_neutral() {
        let t = DriveTrim::identity();
        assert_eq!(t.amplitude_scale, 1.0);
        assert_eq!(t.phase_offset, 0.0);
    }

    #[test]
    fn trim_keys_distinguish_layouts_and_kinds() {
        let a = TrimKey::maj3(&TriangleMaj3Layout::paper());
        let b =
            TrimKey::maj3(&TriangleMaj3Layout::from_multiples(55e-9, 50e-9, 2, 3, 4, 1).unwrap());
        assert_ne!(a, b);
        let x = TrimKey::xor(&TriangleXorLayout::paper());
        assert_ne!(a.kind, x.kind);
    }

    #[test]
    fn clones_share_the_trim_cache_and_linked_backends_join_it() {
        let a = fast_backend();
        let clone = a.clone();
        let linked = MumagBackend::fast().with_trim_cache_from(&a);
        let independent = fast_backend();
        let layout = TriangleXorLayout::new(55e-9, 50e-9, 110e-9, 40e-9).unwrap();
        assert_eq!(a.cached_trim_count(), 0);
        a.prewarm_xor(&layout).unwrap();
        assert_eq!(a.cached_trim_count(), 1);
        assert_eq!(clone.cached_trim_count(), 1);
        assert_eq!(linked.cached_trim_count(), 1);
        assert_eq!(independent.cached_trim_count(), 0);
        // The linked backend's trims come straight from the cache (same
        // values, no recomputation drift).
        assert_eq!(
            a.xor_trims(&layout).unwrap(),
            linked.xor_trims(&layout).unwrap()
        );
    }

    #[test]
    fn effective_width_narrows_wide_guides_only() {
        let b = fast_backend();
        // Paper guide (50 nm) at λ = 55 nm: narrowed to 0.40·λ = 22 nm.
        assert!((b.effective_width(50e-9, 55e-9) - 22e-9).abs() < 1e-15);
        // Already-narrow guides pass through.
        assert_eq!(b.effective_width(15e-9, 55e-9), 15e-9);
        // Explicit override wins.
        let b = fast_backend().with_guide_width(30e-9);
        assert_eq!(b.effective_width(50e-9, 55e-9), 30e-9);
    }

    #[test]
    fn drive_frequency_is_in_band() {
        let b = fast_backend();
        let f = b.drive_frequency(55e-9);
        // Continuum prediction is ~16 GHz for the local-demag model; the
        // discrete value sits slightly below it.
        assert!(f > 5e9 && f < 30e9, "f = {f}");
    }

    #[test]
    fn discrete_wavenumber_round_trips_on_axis() {
        let b = fast_backend();
        let k = 2.0 * PI / 55e-9;
        let f = b.drive_frequency(55e-9);
        let k_solved = b.discrete_wavenumber(f, 0.0).unwrap();
        assert!((k_solved - k).abs() / k < 1e-9);
    }

    #[test]
    fn diagonal_wavenumber_differs_slightly_from_axis() {
        let b = fast_backend();
        let f = b.drive_frequency(55e-9);
        let k_axis = b.discrete_wavenumber(f, 0.0).unwrap();
        let k_diag = b.discrete_wavenumber(f, PI / 4.0).unwrap();
        let rel = (k_diag - k_axis).abs() / k_axis;
        assert!(rel > 1e-5, "lattice anisotropy unexpectedly zero: {rel}");
        assert!(rel < 0.05, "lattice anisotropy too large: {rel}");
    }

    #[test]
    fn ninety_degrees_matches_axis_by_symmetry() {
        let b = fast_backend();
        let f = b.drive_frequency(55e-9);
        let k0 = b.discrete_wavenumber(f, 0.0).unwrap();
        let k90 = b.discrete_wavenumber(f, FRAC_PI_2).unwrap();
        assert!((k0 - k90).abs() / k0 < 1e-9);
    }

    #[test]
    fn out_of_band_frequency_is_rejected() {
        let b = fast_backend();
        assert!(b.discrete_wavenumber(1e6, 0.0).is_err());
        assert!(b.discrete_wavenumber(1e15, 0.0).is_err());
    }

    #[test]
    fn compensation_vanishes_when_disabled() {
        let b = fast_backend().without_compensation();
        let f = b.drive_frequency(55e-9);
        let phi = b
            .compensation(f, 2.0 * PI / 55e-9, &[(330e-9, PI / 4.0)])
            .unwrap();
        assert_eq!(phi, 0.0);
    }

    #[test]
    fn compensation_is_zero_for_axis_segments() {
        let b = fast_backend();
        let f = b.drive_frequency(55e-9);
        let phi = b
            .compensation(f, 2.0 * PI / 55e-9, &[(330e-9, 0.0), (55e-9, FRAC_PI_2)])
            .unwrap();
        assert!(phi.abs() < 1e-6, "axis compensation should vanish: {phi}");
    }

    #[test]
    fn group_velocity_is_physical() {
        let b = fast_backend();
        let vg = b.group_velocity(55e-9);
        assert!(vg > 100.0 && vg < 1e4, "vg = {vg}");
    }

    #[test]
    fn maj3_plan_has_expected_structure() {
        let b = fast_backend();
        let layout = TriangleMaj3Layout::from_multiples(55e-9, 50e-9, 2, 3, 1, 1).unwrap();
        let plan = b.plan_maj3(&layout).unwrap();
        assert_eq!(plan.antennas.len(), 3);
        assert_eq!(plan.absorbers.len(), 5);
        assert!(plan.bounds.2 > plan.bounds.0);
        assert!(plan.bounds.3 > plan.bounds.1);
    }

    #[test]
    fn maj3_plan_bounds_scale_with_dimensions() {
        let b = fast_backend();
        let small = TriangleMaj3Layout::from_multiples(55e-9, 50e-9, 2, 3, 1, 1).unwrap();
        let large = TriangleMaj3Layout::paper();
        let ps = b.plan_maj3(&small).unwrap();
        let pl = b.plan_maj3(&large).unwrap();
        assert!(pl.bounds.2 - pl.bounds.0 > ps.bounds.2 - ps.bounds.0);
        assert!(pl.transit_distance > ps.transit_distance);
    }

    // Full gate runs live in the workspace integration tests (they are
    // release-profile heavy); here we exercise one miniature XOR case to
    // keep the module self-verifying.
    #[test]
    fn mini_xor_run_produces_signal() {
        let b = MumagBackend::fast()
            .with_measure_periods(2)
            .with_settle_factor(1.2);
        let layout = TriangleXorLayout::new(55e-9, 50e-9, 110e-9, 40e-9).unwrap();
        let run = b.xor_run(&layout, [Bit::Zero, Bit::Zero]).unwrap();
        assert!(run.o1.abs() > 1e-7, "no signal at O1: {}", run.o1.abs());
        assert!(run.o2.abs() > 1e-7, "no signal at O2: {}", run.o2.abs());
        // Fan-out symmetry within a loose tolerance.
        let ratio = run.o1.abs() / run.o2.abs();
        assert!(
            (0.5..2.0).contains(&ratio),
            "outputs wildly asymmetric: {ratio}"
        );
    }
}
