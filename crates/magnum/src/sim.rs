//! Simulation orchestrator: assembles the LLG system, steps it in time,
//! and exposes the state to probes.

use crate::damping::AbsorbingFrame;
use crate::error::MagnumError;
use crate::excitation::Antenna;
use crate::field::anisotropy::UniaxialAnisotropy;
use crate::field::demag::{DemagMethod, NewellDemag, PadPolicy, ThinFilmDemag};
use crate::field::exchange::Exchange;
use crate::field::thermal::ThermalField;
use crate::field::zeeman::Zeeman;
use crate::field::FieldTerm;
use crate::field3::{Field3, FieldBatch};
use crate::geometry::{rasterize, Shape};
use crate::llg::{LlgSystem, SystemSpec};
use crate::material::Material;
use crate::math::Vec3;
use crate::mesh::Mesh;
use crate::probe::{Component, Snapshot};
use crate::solver::{IntegratorKind, Stepper};
use crate::{GAMMA, MU0};

/// A ready-to-run micromagnetic simulation.
///
/// Built with [`Simulation::builder`]; see the crate-level example.
///
/// The state is a K = 1 [`FieldBatch`] (whose layout is a plain
/// [`Field3`]) advanced by the same stepper family a
/// [`crate::batch::BatchedSimulation`] uses at K ≥ 2.
pub struct Simulation {
    mesh: Mesh,
    material: Material,
    m: FieldBatch,
    system: LlgSystem,
    stepper: Stepper,
    /// The kind the builder resolved `stepper` from, kept so a
    /// [`crate::batch::BatchedSimulation`] can build the matching K-wide
    /// stepper.
    integrator_kind: IntegratorKind,
    thermal: Option<ThermalField>,
    /// The thermal realization for the current step (empty at T = 0).
    h_thermal: FieldBatch,
    /// Uniform α = 0.5 map swapped into the system during [`Simulation::relax`]
    /// (allocated on first use, reused afterwards).
    relax_alpha: Vec<f64>,
    time: f64,
    dt: f64,
}

impl Simulation {
    /// Starts building a simulation on the given mesh and material.
    pub fn builder(mesh: Mesh, material: Material) -> SimulationBuilder {
        SimulationBuilder::new(mesh, material)
    }

    /// The simulation mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The material.
    pub fn material(&self) -> &Material {
        &self.material
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The fixed time step in seconds.
    pub fn time_step(&self) -> f64 {
        self.dt
    }

    /// Overrides the time step (seconds, must be positive and finite).
    ///
    /// # Errors
    ///
    /// Returns [`MagnumError::InvalidConfig`] for a non-positive step.
    pub fn set_time_step(&mut self, dt: f64) -> Result<(), MagnumError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(MagnumError::InvalidConfig {
                reason: format!("time step must be positive and finite, got {dt}"),
            });
        }
        self.dt = dt;
        Ok(())
    }

    /// Read-only view of the unit magnetization (row-major mesh order;
    /// vacuum cells are zero), stored as SoA component planes. Use
    /// [`Field3::get`]/[`Field3::iter`] for `Vec3`-shaped access or
    /// [`Field3::to_vec`] for an AoS copy.
    pub fn magnetization(&self) -> &Field3 {
        self.m.data()
    }

    /// Magnetization at cell `(ix, iy)`.
    pub fn magnetization_at(&self, ix: usize, iy: usize) -> Vec3 {
        self.m.get(self.mesh.linear_index(ix, iy), 0)
    }

    /// Mean unit magnetization over the magnetic cells.
    pub fn magnetization_mean(&self) -> Vec3 {
        let count = self.mesh.magnetic_cell_count().max(1);
        let sum: Vec3 = self
            .magnetization()
            .iter()
            .zip(self.mesh.mask().iter())
            .filter(|(_, &mag)| mag)
            .map(|(v, _)| v)
            .sum();
        sum / count as f64
    }

    /// Adds an antenna after construction (e.g. per-input-pattern drives).
    pub fn add_antenna(&mut self, antenna: Antenna) {
        self.system.add_antenna(antenna);
    }

    /// Removes all antennas.
    pub fn clear_antennas(&mut self) {
        self.system.clear_antennas();
    }

    /// The number of worker threads the simulation's parallel engine uses
    /// (1 = serial). Results are bitwise independent of this value.
    pub fn threads(&self) -> usize {
        self.system.par().threads()
    }

    /// Advances the simulation by exactly one time step.
    ///
    /// # Errors
    ///
    /// Propagates integrator failures ([`MagnumError::Diverged`],
    /// [`MagnumError::StepSizeUnderflow`]).
    pub fn step(&mut self) -> Result<(), MagnumError> {
        if let Some(thermal) = self.thermal.as_mut() {
            thermal.draw_member(self.dt, &mut self.h_thermal, 0);
        }
        let taken = self.stepper.step(
            &mut self.system,
            &[],
            &self.h_thermal,
            self.time,
            self.dt,
            &mut self.m,
        )?;
        self.time += taken;
        Ok(())
    }

    /// Runs for `duration` seconds (rounded up to whole steps).
    ///
    /// # Errors
    ///
    /// Propagates the first step failure.
    pub fn run(&mut self, duration: f64) -> Result<(), MagnumError> {
        run_for(self, duration)
    }

    /// Runs for `duration` seconds, invoking `observer` with the current
    /// time and state every `sample_interval` seconds of simulated time
    /// (and once at the start).
    ///
    /// Sample times are computed as `t0 + k·interval` (no accumulated
    /// floating-point drift), and each scheduled sample fires exactly
    /// once: for whole-multiple durations the final sample lands on the
    /// end time, otherwise the run ends without an extra unscheduled
    /// call — so probe accumulators (e.g. [`crate::probe::DftProbe`]) see
    /// exactly `⌊duration/interval⌋ + 1` samples.
    ///
    /// # Errors
    ///
    /// Returns [`MagnumError::InvalidConfig`] for a non-positive sample
    /// interval, and propagates the first step failure.
    pub fn run_sampled<F>(
        &mut self,
        duration: f64,
        sample_interval: f64,
        observer: F,
    ) -> Result<(), MagnumError>
    where
        F: FnMut(f64, &Simulation),
    {
        run_sampled(self, duration, sample_interval, observer)
    }

    /// Relaxes the system towards its energy minimum by integrating with
    /// a temporarily large damping (α = 0.5) until the maximum torque
    /// falls below `torque_tolerance` (1/s) or `max_steps` steps elapse.
    /// Antennas and thermal noise are suspended during relaxation, and
    /// the simulation clock is not advanced.
    ///
    /// Returns a [`Relaxation`] report; check
    /// [`converged`](Relaxation::converged) — running out of steps is not
    /// an error, but proceeding from an unrelaxed state is rarely what a
    /// caller wants.
    ///
    /// # Errors
    ///
    /// Propagates integrator failures.
    pub fn relax(
        &mut self,
        torque_tolerance: f64,
        max_steps: usize,
    ) -> Result<Relaxation, MagnumError> {
        // Swap the relaxation damping map in instead of cloning the live
        // one: after the first call this allocates nothing, and the swap
        // keeps the system's precomputed torque prefactors in sync.
        if self.relax_alpha.len() != self.m.cells() {
            self.relax_alpha = vec![0.5; self.m.cells()];
        }
        self.system.swap_alpha(&mut self.relax_alpha);
        let saved_antennas = std::mem::take(&mut self.system.antennas);
        let no_thermal = FieldBatch::empty(1);
        let mut error = None;
        let mut outcome = Relaxation {
            converged: false,
            torque: self.system.max_torque(self.m.data(), self.time),
            steps: 0,
        };
        outcome.converged = outcome.torque < torque_tolerance;
        while !outcome.converged && outcome.steps < max_steps {
            let stepped = self.stepper.step(
                &mut self.system,
                &[],
                &no_thermal,
                self.time,
                self.dt,
                &mut self.m,
            );
            if let Err(e) = stepped {
                error = Some(e);
                break;
            }
            outcome.steps += 1;
            outcome.torque = self.system.max_torque(self.m.data(), self.time);
            outcome.converged = outcome.torque < torque_tolerance;
        }
        // Swap back: the system regains its original damping (and
        // prefactors), `relax_alpha` is the α = 0.5 map again.
        self.system.swap_alpha(&mut self.relax_alpha);
        self.system.antennas = saved_antennas;
        match error {
            Some(e) => Err(e),
            None => Ok(outcome),
        }
    }

    /// Total energy of the conservative field terms, in joules.
    ///
    /// Takes `&mut self` because the evaluation reuses the system-owned
    /// per-term scratch (the same buffers the integrator threads through
    /// `accumulate_par`), instead of a locked fallback.
    pub fn total_energy(&mut self) -> f64 {
        self.system.energy(
            self.m.data(),
            self.time,
            self.material.saturation_magnetization(),
            self.mesh.cell_volume(),
        )
    }

    /// Maximum deterministic torque |dm/dt| (1/s) in the current state
    /// (field terms and antenna drives, no thermal realization).
    pub fn max_torque(&self) -> f64 {
        self.system.max_torque(self.m.data(), self.time)
    }

    /// Captures a spatial snapshot of a magnetization component.
    pub fn snapshot(&self, component: Component) -> Snapshot {
        Snapshot::capture(&self.mesh, self.m.data(), component)
    }

    /// The assembled LLG system (batch backend plumbing).
    pub(crate) fn system_ref(&self) -> &LlgSystem {
        &self.system
    }

    /// Mutable access to the LLG system — the batched stepper drives a
    /// host member's system through all K members.
    pub(crate) fn system_mut(&mut self) -> &mut LlgSystem {
        &mut self.system
    }

    /// Mutable access to the magnetization, for batch write-back.
    pub(crate) fn magnetization_mut(&mut self) -> &mut Field3 {
        self.m.data_mut()
    }

    /// The adaptive controller's next step size (`None` for fixed-step
    /// integrators) — it moves into and out of a batch with the member.
    pub(crate) fn suggested_dt(&self) -> Option<f64> {
        self.stepper.suggested_dt()
    }

    /// Overwrites the adaptive controller's next step size.
    pub(crate) fn set_suggested_dt(&mut self, suggested: Option<f64>) {
        self.stepper.set_suggested_dt(suggested);
    }

    /// The member's own thermal generator (its RNG stream), if T > 0.
    pub(crate) fn thermal_field_mut(&mut self) -> Option<&mut ThermalField> {
        self.thermal.as_mut()
    }

    /// Whether this simulation carries a thermal field (T > 0).
    pub(crate) fn has_thermal(&self) -> bool {
        self.thermal.is_some()
    }

    /// Overwrites the clock, for batch write-back.
    pub(crate) fn set_time_internal(&mut self, time: f64) {
        self.time = time;
    }

    /// The integrator kind the builder resolved.
    pub(crate) fn integrator_kind(&self) -> IntegratorKind {
        self.integrator_kind
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("mesh", &(self.mesh.nx(), self.mesh.ny()))
            .field("time", &self.time)
            .field("dt", &self.dt)
            .field("integrator", &self.integrator_kind)
            .finish()
    }
}

impl Clocked for Simulation {
    fn clock(&self) -> f64 {
        self.time
    }

    fn advance(&mut self) -> Result<(), MagnumError> {
        self.step()
    }
}

/// A state advanced one step at a time on one clock — [`Simulation`] and
/// [`crate::batch::BatchedSimulation`] share their run loops through it.
pub(crate) trait Clocked {
    /// The current simulation time in seconds.
    fn clock(&self) -> f64;
    /// Advances by one step.
    fn advance(&mut self) -> Result<(), MagnumError>;
}

/// Steps `sim` for `duration` seconds (rounded up to whole steps).
pub(crate) fn run_for<S: Clocked>(sim: &mut S, duration: f64) -> Result<(), MagnumError> {
    let t_end = sim.clock() + duration;
    while sim.clock() < t_end - 1e-21 {
        sim.advance()?;
    }
    Ok(())
}

/// Steps `sim` for `duration` seconds, calling `observer` on the sample
/// schedule documented at [`Simulation::run_sampled`].
pub(crate) fn run_sampled<S: Clocked, F: FnMut(f64, &S)>(
    sim: &mut S,
    duration: f64,
    sample_interval: f64,
    mut observer: F,
) -> Result<(), MagnumError> {
    if !(sample_interval.is_finite() && sample_interval > 0.0) {
        return Err(MagnumError::InvalidConfig {
            reason: format!("sample interval must be positive and finite, got {sample_interval}"),
        });
    }
    let t0 = sim.clock();
    let t_end = t0 + duration;
    let mut taken: u64 = 0;
    while sim.clock() < t_end - 1e-21 {
        if sim.clock() >= t0 + taken as f64 * sample_interval - 1e-21 {
            observer(sim.clock(), sim);
            taken += 1;
        }
        sim.advance()?;
    }
    // The loop exits at t_end, so a sample scheduled for the final
    // instant has not fired yet; take it now. If the next scheduled
    // sample lies beyond the run, everything due has already fired.
    if taken == 0 || t0 + taken as f64 * sample_interval <= t_end + 1e-21 {
        observer(sim.clock(), sim);
    }
    Ok(())
}

/// Outcome of [`Simulation::relax`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Relaxation {
    /// Whether the torque dropped below the tolerance within the step
    /// budget.
    pub converged: bool,
    /// The final maximum torque |dm/dt| in 1/s.
    pub torque: f64,
    /// Integration steps actually taken.
    pub steps: usize,
}

/// Builder for [`Simulation`] (see [`Simulation::builder`]).
pub struct SimulationBuilder {
    mesh: Mesh,
    material: Material,
    shape: Option<Box<dyn Shape>>,
    initial: Vec3,
    demag: DemagMethod,
    demag_padding: PadPolicy,
    external_field: Vec3,
    temperature: f64,
    seed: u64,
    frame: Option<AbsorbingFrame>,
    damping_map: Option<Vec<f64>>,
    integrator: Option<IntegratorKind>,
    allow_non_stratonovich: bool,
    dt: Option<f64>,
    dt_safety: f64,
    antennas: Vec<Antenna>,
    threads: Option<usize>,
    min_cells_per_thread: Option<usize>,
}

impl SimulationBuilder {
    /// Starts a builder with defaults: uniform +ẑ magnetization, local
    /// thin-film demag, no external field, T = 0, RK4, automatic dt.
    pub fn new(mesh: Mesh, material: Material) -> Self {
        SimulationBuilder {
            mesh,
            material,
            shape: None,
            initial: Vec3::Z,
            demag: DemagMethod::ThinFilmLocal,
            demag_padding: PadPolicy::default(),
            external_field: Vec3::ZERO,
            temperature: 0.0,
            seed: 0,
            frame: None,
            damping_map: None,
            integrator: None,
            allow_non_stratonovich: false,
            dt: None,
            dt_safety: 0.25,
            antennas: Vec::new(),
            threads: None,
            min_cells_per_thread: None,
        }
    }

    /// Carves the magnet geometry out of the mesh using a shape.
    pub fn shape<S: Shape + 'static>(mut self, shape: S) -> Self {
        self.shape = Some(Box::new(shape));
        self
    }

    /// Sets the uniform initial magnetization direction (normalized).
    pub fn uniform_magnetization(mut self, direction: Vec3) -> Self {
        self.initial = direction;
        self
    }

    /// Selects the demagnetization model.
    pub fn demag(mut self, method: DemagMethod) -> Self {
        self.demag = method;
        self
    }

    /// Padding policy for the [`DemagMethod::NewellFft`] convolution grid
    /// (default [`PadPolicy::GoodSize`]). [`PadPolicy::Exact`] pads to
    /// `2n − 1` per axis — typically prime lengths, driving the Bluestein
    /// FFT fallback through real trajectories.
    pub fn demag_padding(mut self, policy: PadPolicy) -> Self {
        self.demag_padding = policy;
        self
    }

    /// Applies a uniform static external field (A/m).
    pub fn external_field(mut self, field: Vec3) -> Self {
        self.external_field = field;
        self
    }

    /// Enables the thermal field at `temperature` kelvin.
    pub fn temperature(mut self, temperature: f64) -> Self {
        self.temperature = temperature;
        self
    }

    /// Seed for the thermal field RNG (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds an absorbing damping frame around the whole window.
    pub fn absorbing_frame(mut self, frame: AbsorbingFrame) -> Self {
        self.frame = Some(frame);
        self
    }

    /// Supplies a custom per-cell damping map (overrides the frame).
    pub fn damping_map(mut self, map: Vec<f64>) -> Self {
        self.damping_map = Some(map);
        self
    }

    /// Chooses the time integrator.
    ///
    /// Without an explicit choice the builder picks RK4 for deterministic
    /// runs and Heun when `temperature > 0` (the stochastic-Heun scheme is
    /// the only provided integrator that converges to the Stratonovich
    /// solution of the thermal LLG equation). Explicitly combining a
    /// non-Heun integrator with `temperature > 0` is rejected at build
    /// time unless [`allow_non_stratonovich`](Self::allow_non_stratonovich)
    /// is set.
    pub fn integrator(mut self, kind: IntegratorKind) -> Self {
        self.integrator = Some(kind);
        self
    }

    /// Permits a non-Heun integrator together with `temperature > 0`.
    ///
    /// The result does not converge to the Stratonovich solution — the
    /// physically correct interpretation of Brown's thermal field — so
    /// this is only meant for convergence studies and ablations.
    pub fn allow_non_stratonovich(mut self) -> Self {
        self.allow_non_stratonovich = true;
        self
    }

    /// Sets the worker-thread count for the intra-simulation parallel
    /// engine. `0` means "auto" (all logical CPUs). Without this call the
    /// `MAGNUM_THREADS` environment variable decides, defaulting to 1
    /// (serial). Results are bitwise identical for every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Overrides the cells-per-thread threshold below which the build
    /// clamps the worker count towards serial (default
    /// [`crate::par::MIN_CELLS_PER_THREAD`]). On sub-threshold grids the
    /// per-sweep fork/join overhead exceeds the per-cell work, so a
    /// requested thread count is only honoured once the grid supplies at
    /// least this many cells per worker. Pass `0` to disable the clamp
    /// and take the requested count verbatim (thread-scaling studies,
    /// determinism tests).
    pub fn min_cells_per_thread(mut self, cells: usize) -> Self {
        self.min_cells_per_thread = Some(cells);
        self
    }

    /// Fixes the time step instead of the automatic stability-based one.
    pub fn time_step(mut self, dt: f64) -> Self {
        self.dt = Some(dt);
        self
    }

    /// Safety factor for the automatic time step (default 0.25; smaller
    /// is more conservative).
    pub fn time_step_safety(mut self, factor: f64) -> Self {
        self.dt_safety = factor;
        self
    }

    /// Adds an excitation antenna.
    pub fn antenna(mut self, antenna: Antenna) -> Self {
        self.antennas.push(antenna);
        self
    }

    /// Assembles the [`Simulation`].
    ///
    /// # Errors
    ///
    /// Returns [`MagnumError::InvalidConfig`] if a custom damping map has
    /// the wrong length, the time step is invalid, the geometry leaves no
    /// magnetic cells, `MAGNUM_THREADS` is unparsable, or a non-Heun
    /// integrator is combined with `temperature > 0` without
    /// [`allow_non_stratonovich`](Self::allow_non_stratonovich).
    pub fn build(self) -> Result<Simulation, MagnumError> {
        let SimulationBuilder {
            mut mesh,
            material,
            shape,
            initial,
            demag,
            demag_padding,
            external_field,
            temperature,
            seed,
            frame,
            damping_map,
            integrator,
            allow_non_stratonovich,
            dt,
            dt_safety,
            antennas,
            threads,
            min_cells_per_thread,
        } = self;

        let threads =
            crate::par::resolve_threads(threads, std::env::var("MAGNUM_THREADS").ok().as_deref())
                .map_err(|reason| MagnumError::InvalidConfig { reason })?;
        // Small-grid clamp: honouring a large worker count on a grid with
        // too few cells per worker makes every sweep slower than serial
        // (fork/join overhead dominates), so sub-threshold grids take the
        // serial arm unless the caller disabled the clamp.
        let threads = crate::par::effective_threads(
            threads,
            mesh.cell_count(),
            min_cells_per_thread.unwrap_or(crate::par::MIN_CELLS_PER_THREAD),
        );

        let integrator = match integrator {
            None if temperature > 0.0 => IntegratorKind::Heun,
            None => IntegratorKind::default(),
            Some(kind) => {
                if temperature > 0.0 && kind != IntegratorKind::Heun && !allow_non_stratonovich {
                    return Err(MagnumError::InvalidConfig {
                        reason: format!(
                            "temperature > 0 requires the Heun integrator ({kind:?} does not \
                             converge to the Stratonovich solution); use IntegratorKind::Heun \
                             or opt out via allow_non_stratonovich()"
                        ),
                    });
                }
                kind
            }
        };

        if let Some(shape) = shape {
            rasterize(&mut mesh, &shape);
        }
        if mesh.magnetic_cell_count() == 0 {
            return Err(MagnumError::InvalidConfig {
                reason: "geometry leaves no magnetic cells".into(),
            });
        }

        let n = mesh.cell_count();
        let direction = initial.normalized();
        if direction == Vec3::ZERO {
            return Err(MagnumError::InvalidConfig {
                reason: "initial magnetization direction must be non-zero".into(),
            });
        }
        // Vacuum cells stay zero for the simulation's lifetime: the
        // stage sweeps never write them (see `LlgSystem::rhs_stage_batch`).
        let mut m = FieldBatch::zeros(n, 1);
        for (i, &mag) in mesh.mask().iter().enumerate() {
            if mag {
                m.set(i, 0, direction);
            }
        }

        // Field terms.
        let mut terms: Vec<Box<dyn FieldTerm>> = Vec::new();
        if material.exchange_stiffness() > 0.0 && material.saturation_magnetization() > 0.0 {
            terms.push(Box::new(Exchange::new(&mesh, &material)));
        }
        if material.anisotropy_constant() != 0.0 {
            terms.push(Box::new(UniaxialAnisotropy::new(&mesh, &material)));
        }
        match demag {
            DemagMethod::None => {}
            DemagMethod::ThinFilmLocal => {
                terms.push(Box::new(ThinFilmDemag::new(&mesh, &material)));
            }
            DemagMethod::NewellFft => {
                // Build the Newell kernel tables on a temporary worker team
                // of the same width the simulation will run with; the
                // construction is bitwise independent of the thread count.
                // The builder's cells-per-thread override flows into the
                // convolution passes too (Some(0) disables the FFT clamp —
                // the parity tests' escape hatch).
                let team = crate::par::WorkerTeam::new(threads);
                terms.push(Box::new(NewellDemag::with_options(
                    &mesh,
                    &material,
                    &team,
                    demag_padding,
                    min_cells_per_thread,
                )));
            }
        }
        if external_field != Vec3::ZERO {
            terms.push(Box::new(Zeeman::uniform(external_field)));
        }

        // Damping map.
        let alpha0 = material.gilbert_damping();
        let alpha = if let Some(map) = damping_map {
            if map.len() != n {
                return Err(MagnumError::InvalidConfig {
                    reason: format!(
                        "damping map length {} does not match cell count {n}",
                        map.len()
                    ),
                });
            }
            map
        } else if let Some(frame) = frame {
            frame.damping_map(&mesh, alpha0)
        } else {
            vec![alpha0; n]
        };

        // Thermal field, driven by the *per-cell* damping so absorbing
        // frames satisfy fluctuation–dissipation locally.
        let thermal = if temperature > 0.0 {
            Some(ThermalField::with_damping(
                &mesh,
                &material,
                &alpha,
                temperature,
                seed,
            ))
        } else {
            None
        };
        let h_thermal = if thermal.is_some() {
            FieldBatch::zeros(n, 1)
        } else {
            FieldBatch::empty(1)
        };

        // Automatic time step from the largest field scale present.
        let dt = match dt {
            Some(dt) => {
                if !(dt.is_finite() && dt > 0.0) {
                    return Err(MagnumError::InvalidConfig {
                        reason: format!("time step must be positive and finite, got {dt}"),
                    });
                }
                dt
            }
            None => {
                let [dx, dy, _] = mesh.cell_size();
                let ms = material.saturation_magnetization();
                let exch = if ms > 0.0 {
                    2.0 * material.exchange_stiffness() / (MU0 * ms)
                        * (2.0 / (dx * dx) + 2.0 / (dy * dy))
                        * 2.0
                } else {
                    0.0
                };
                let anis = if ms > 0.0 {
                    2.0 * material.anisotropy_constant().abs() / (MU0 * ms)
                } else {
                    0.0
                };
                let demag_scale = match demag {
                    DemagMethod::None => 0.0,
                    _ => ms,
                };
                let h_scale = exch + anis + demag_scale + external_field.norm() + 1.0;
                dt_safety / (GAMMA * MU0 * h_scale)
            }
        };

        let system = SystemSpec {
            terms,
            antennas,
            alpha,
            gamma: material.gamma(),
            // One-time setup copy: the system owns its mask so the hot
            // path never chases a reference into the mesh.
            mask: mesh.mask().to_vec(),
            nx: mesh.nx(),
            threads,
        }
        .build();
        let stepper = Stepper::new(integrator, &system, 1);

        Ok(Simulation {
            mesh,
            material,
            m,
            system,
            stepper,
            integrator_kind: integrator,
            thermal,
            h_thermal,
            relax_alpha: Vec::new(),
            time: 0.0,
            dt,
        })
    }
}

impl std::fmt::Debug for SimulationBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("mesh", &(self.mesh.nx(), self.mesh.ny()))
            .field("demag", &self.demag)
            .field("temperature", &self.temperature)
            .field("integrator", &self.integrator)
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::excitation::Drive;
    use crate::geometry::Rect;
    use crate::probe::{DftProbe, RegionProbe};

    fn fecob_strip(nx: usize, ny: usize) -> SimulationBuilder {
        let mesh = Mesh::new(nx, ny, [5e-9, 5e-9, 1e-9]).unwrap();
        Simulation::builder(mesh, Material::fecob())
    }

    #[test]
    fn build_defaults_are_sane() {
        let sim = fecob_strip(16, 4).build().unwrap();
        assert!(sim.time_step() > 1e-16 && sim.time_step() < 1e-11);
        assert_eq!(sim.time(), 0.0);
        assert!((sim.magnetization_mean() - Vec3::Z).norm() < 1e-12);
    }

    #[test]
    fn uniform_perpendicular_state_is_stationary() {
        // FeCoB with Ku > μ₀Ms²/2: m = +ẑ is an equilibrium; running a few
        // ps must not move it.
        let mut sim = fecob_strip(8, 4).build().unwrap();
        sim.run(5e-12).unwrap();
        let mean = sim.magnetization_mean();
        assert!((mean - Vec3::Z).norm() < 1e-9, "drifted to {mean}");
    }

    #[test]
    fn energy_decreases_during_damped_relaxation() {
        // Start tilted; with damping and no drive, energy must decrease.
        let mut sim = fecob_strip(8, 4)
            .uniform_magnetization(Vec3::new(0.3, 0.0, 1.0))
            .build()
            .unwrap();
        let e0 = sim.total_energy();
        sim.run(50e-12).unwrap();
        let e1 = sim.total_energy();
        assert!(e1 < e0, "energy should decrease: {e0} -> {e1}");
    }

    #[test]
    fn scratch_based_energy_matches_per_term_reference() {
        // `total_energy` runs each term through `accumulate_par` with the
        // system-owned scratch; the value must be bitwise identical to
        // the reference per-term `FieldTerm::energy` sum — including the
        // FFT demag, which used to go through a locked fallback buffer.
        let mut sim = fecob_strip(9, 5)
            .demag(DemagMethod::NewellFft)
            .uniform_magnetization(Vec3::new(0.4, 0.2, 1.0))
            .build()
            .unwrap();
        let ms = sim.material().saturation_magnetization();
        let v = sim.mesh().cell_volume();
        let m = sim.magnetization().to_vec();
        let t = sim.time();
        let reference: f64 = sim
            .system
            .terms
            .iter()
            .map(|term| term.energy(&m, t, ms, v))
            .sum();
        assert_eq!(sim.total_energy(), reference);
    }

    #[test]
    fn steady_state_stepping_is_scratch_allocation_free() {
        // The integrator hot loop must never rebuild demag scratch or FFT
        // row buffers: everything is sized during the warm-up evaluations
        // and reused afterwards. The counter is thread-local, so the test
        // is immune to other tests running concurrently; worker threads
        // cannot allocate by construction (their row scratch is always
        // passed in). Exact padding forces Bluestein axes — the one FFT
        // path that genuinely needs per-eval scratch.
        let mut sim = fecob_strip(9, 5)
            .demag(DemagMethod::NewellFft)
            .demag_padding(PadPolicy::Exact)
            .threads(4)
            .min_cells_per_thread(0)
            .build()
            .unwrap();
        for _ in 0..2 {
            sim.step().unwrap();
        }
        let allocs = crate::fft::hot_scratch_allocs();
        for _ in 0..5 {
            sim.step().unwrap();
        }
        assert_eq!(
            crate::fft::hot_scratch_allocs(),
            allocs,
            "stepping must not allocate hot-path scratch after warm-up"
        );
    }

    #[test]
    fn relax_reduces_torque() {
        let mut sim = fecob_strip(8, 4)
            .uniform_magnetization(Vec3::new(0.5, 0.0, 1.0))
            .build()
            .unwrap();
        let t0 = sim.max_torque();
        let report = sim.relax(t0 * 1e-3, 10_000).unwrap();
        assert!(report.converged, "relaxation should converge: {report:?}");
        assert!(report.torque < t0 * 1e-3);
        assert!(report.steps > 0);
        assert!(sim.max_torque() < t0 * 1e-2);
        // Relaxation lands on the easy axis (either pole).
        assert!(sim.magnetization_mean().z.abs() > 0.99);
    }

    #[test]
    fn relax_reports_non_convergence_when_steps_run_out() {
        let mut sim = fecob_strip(8, 4)
            .uniform_magnetization(Vec3::new(0.5, 0.0, 1.0))
            .build()
            .unwrap();
        // One step cannot possibly reach a 1e-9 relative torque.
        let report = sim.relax(sim.max_torque() * 1e-9, 1).unwrap();
        assert!(!report.converged, "must report non-convergence: {report:?}");
        assert_eq!(report.steps, 1);
        assert!(report.torque.is_finite());
    }

    #[test]
    fn relax_with_zero_steps_reports_initial_torque() {
        let mut sim = fecob_strip(8, 4)
            .uniform_magnetization(Vec3::new(0.5, 0.0, 1.0))
            .build()
            .unwrap();
        // Zero steps: the initial torque (measured under relaxation
        // conditions, α = 0.5) is reported without any stepping.
        let report = sim.relax(1e-30, 0).unwrap();
        assert!(!report.converged);
        assert_eq!(report.steps, 0);
        assert!(report.torque > 0.0);
        // An already-converged state needs no steps at all.
        let relaxed = sim.relax(report.torque * 2.0, 100).unwrap();
        assert!(relaxed.converged);
        assert_eq!(relaxed.steps, 0);
        assert_eq!(relaxed.torque, report.torque);
    }

    #[test]
    fn antenna_excites_precession() {
        let mesh = Mesh::new(64, 4, [5e-9, 5e-9, 1e-9]).unwrap();
        let drive = Drive::logic_cw(3e3, 10e9, 0.0);
        let antenna = Antenna::over_rect(&mesh, 0.0, 0.0, 15e-9, 20e-9, Vec3::X, drive);
        let mut sim = Simulation::builder(mesh, Material::fecob())
            .antenna(antenna)
            .build()
            .unwrap();
        sim.run(0.5e-9).unwrap();
        // Near the antenna the in-plane component oscillates.
        let mx = sim.magnetization_at(1, 2).x;
        assert!(mx.abs() > 1e-6, "no precession near antenna: mx = {mx}");
        // The state stays on the unit sphere.
        for (v, &mag) in sim.magnetization().iter().zip(sim.mesh().mask()) {
            if mag {
                assert!((v.norm() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn spin_wave_propagates_down_the_strip() {
        let mesh = Mesh::new(128, 4, [5e-9, 5e-9, 1e-9]).unwrap();
        let drive = Drive::logic_cw(5e3, 10e9, 0.0);
        let antenna = Antenna::over_rect(&mesh, 20e-9, 0.0, 35e-9, 20e-9, Vec3::X, drive);
        let mut sim = Simulation::builder(mesh, Material::fecob())
            .antenna(antenna)
            .build()
            .unwrap();
        let probe_region =
            RegionProbe::over_rect(sim.mesh(), 400e-9, 0.0, 420e-9, 20e-9, Component::X);
        let mut probe = DftProbe::new(probe_region, 10e9);
        // Let the front arrive, then measure 2 periods.
        sim.run(1.5e-9).unwrap();
        let sample_dt = 1.0 / (10e9 * 32.0);
        sim.run_sampled(2.0 / 10e9, sample_dt, |t, s| {
            probe.sample(t, s.magnetization());
        })
        .unwrap();
        assert!(
            probe.amplitude() > 1e-7,
            "wave did not reach the probe: A = {}",
            probe.amplitude()
        );
    }

    #[test]
    fn shape_carves_geometry_and_build_rejects_empty() {
        let ok = fecob_strip(16, 8)
            .shape(Rect::new(0.0, 0.0, 40e-9, 40e-9))
            .build()
            .unwrap();
        assert!(ok.mesh().magnetic_cell_count() > 0);
        assert!(ok.mesh().magnetic_cell_count() < ok.mesh().cell_count());

        let err = fecob_strip(16, 8)
            .shape(Rect::new(1.0, 1.0, 2.0, 2.0)) // far outside
            .build();
        assert!(matches!(err, Err(MagnumError::InvalidConfig { .. })));
    }

    #[test]
    fn custom_damping_map_length_is_validated() {
        let err = fecob_strip(4, 4).damping_map(vec![0.1; 3]).build();
        assert!(matches!(err, Err(MagnumError::InvalidConfig { .. })));
    }

    #[test]
    fn invalid_time_step_is_rejected() {
        assert!(fecob_strip(4, 4).time_step(-1e-12).build().is_err());
        assert!(fecob_strip(4, 4).time_step(f64::NAN).build().is_err());
        let mut sim = fecob_strip(4, 4).build().unwrap();
        assert!(sim.set_time_step(0.0).is_err());
        assert!(sim.set_time_step(1e-13).is_ok());
    }

    #[test]
    fn zero_initial_direction_is_rejected() {
        assert!(fecob_strip(4, 4)
            .uniform_magnetization(Vec3::ZERO)
            .build()
            .is_err());
    }

    #[test]
    fn thermal_simulation_jitters_but_stays_bounded() {
        let mut sim = fecob_strip(8, 4)
            .temperature(300.0)
            .seed(11)
            .integrator(IntegratorKind::Heun)
            .build()
            .unwrap();
        sim.run(20e-12).unwrap();
        let mean = sim.magnetization_mean();
        // Thermal agitation tilts m away from ẑ but not catastrophically.
        assert!(mean.z > 0.9, "thermal run destabilized the film: {mean}");
        assert!(
            (mean - Vec3::Z).norm() > 1e-9,
            "thermal field had no effect at 300 K"
        );
    }

    #[test]
    fn run_sampled_takes_exact_sample_count() {
        // duration = 10 dt, interval = 2 dt → samples at k·2dt for
        // k = 0..=5: exactly ⌊duration/interval⌋ + 1 = 6 calls, with the
        // final one at t_end (no double invocation, no drift).
        let mut sim = fecob_strip(4, 4).build().unwrap();
        let dt = sim.time_step();
        let mut times = Vec::new();
        sim.run_sampled(dt * 10.0, dt * 2.0, |t, _| times.push(t))
            .unwrap();
        assert_eq!(times.len(), 6, "sample times: {times:?}");
        for (k, &t) in times.iter().enumerate() {
            let expected = k as f64 * 2.0 * dt;
            assert!(
                (t - expected).abs() < 1e-3 * dt,
                "sample {k} drifted: got {t}, expected {expected}"
            );
        }
    }

    #[test]
    fn run_sampled_non_multiple_duration_samples_floor_plus_one() {
        // duration = 5 dt, interval = 2 dt → samples at 0, 2dt, 4dt only;
        // the next scheduled sample (6dt) is past t_end, so no trailing
        // call fires and the observer runs exactly ⌊5/2⌋ + 1 = 3 times.
        let mut sim = fecob_strip(4, 4).build().unwrap();
        let dt = sim.time_step();
        let mut calls = 0;
        sim.run_sampled(dt * 5.0, dt * 2.0, |_, _| calls += 1)
            .unwrap();
        assert_eq!(calls, 3, "observer called {calls} times");
    }

    #[test]
    fn run_sampled_second_call_does_not_drift() {
        // Sampling must anchor to the *current* time, not t = 0: a second
        // run_sampled call on the same simulation gets the same cadence.
        let mut sim = fecob_strip(4, 4).build().unwrap();
        let dt = sim.time_step();
        sim.run(dt * 3.0).unwrap();
        let t0 = sim.time();
        let mut times = Vec::new();
        sim.run_sampled(dt * 4.0, dt * 2.0, |t, _| times.push(t))
            .unwrap();
        assert_eq!(times.len(), 3, "sample times: {times:?}");
        for (k, &t) in times.iter().enumerate() {
            let expected = t0 + k as f64 * 2.0 * dt;
            assert!(
                (t - expected).abs() < 1e-3 * dt,
                "sample {k} drifted: got {t}, expected {expected}"
            );
        }
    }

    #[test]
    fn run_sampled_rejects_bad_interval() {
        let mut sim = fecob_strip(4, 4).build().unwrap();
        let dt = sim.time_step();
        assert!(sim.run_sampled(dt, 0.0, |_, _| {}).is_err());
        assert!(sim.run_sampled(dt, -dt, |_, _| {}).is_err());
        assert!(sim.run_sampled(dt, f64::NAN, |_, _| {}).is_err());
    }

    #[test]
    fn thermal_run_requires_heun_unless_overridden() {
        // Explicit non-Heun integrator at T > 0 is rejected...
        let err = fecob_strip(4, 4)
            .temperature(300.0)
            .integrator(IntegratorKind::RungeKutta4)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, MagnumError::InvalidConfig { .. }),
            "unexpected error: {err:?}"
        );
        // ...unless explicitly permitted.
        assert!(fecob_strip(4, 4)
            .temperature(300.0)
            .integrator(IntegratorKind::RungeKutta4)
            .allow_non_stratonovich()
            .build()
            .is_ok());
    }

    #[test]
    fn thermal_run_defaults_to_heun() {
        let sim = fecob_strip(4, 4).temperature(300.0).build().unwrap();
        assert_eq!(sim.integrator_kind(), IntegratorKind::Heun);
        // Deterministic runs keep the RK4 default.
        let sim = fecob_strip(4, 4).build().unwrap();
        assert_eq!(sim.integrator_kind(), IntegratorKind::RungeKutta4);
    }

    #[test]
    fn builder_threads_are_plumbed_through() {
        // An explicit builder value wins over any environment setting —
        // with the small-grid clamp disabled, since a 32-cell strip is
        // far below the default cells-per-thread threshold.
        let sim = fecob_strip(8, 4)
            .threads(3)
            .min_cells_per_thread(0)
            .build()
            .unwrap();
        assert_eq!(sim.threads(), 3);
        // Default: serial, unless the MAGNUM_THREADS environment variable
        // overrides it (the CI gate re-runs this suite with it set).
        let sim = fecob_strip(8, 4).build().unwrap();
        match std::env::var("MAGNUM_THREADS") {
            Err(_) => assert_eq!(sim.threads(), 1),
            Ok(_) => assert!(sim.threads() >= 1),
        }
        // Thread count is capped by the cell count.
        let sim = fecob_strip(2, 2)
            .threads(64)
            .min_cells_per_thread(0)
            .build()
            .unwrap();
        assert!(sim.threads() <= 4);
    }

    #[test]
    fn small_grids_take_the_serial_arm_by_default() {
        // BENCH_rhs regression: at 4096 cells the parallel sweep loses to
        // serial, so a requested thread count on a sub-threshold grid must
        // clamp to 1 unless the caller opts out.
        let sim = fecob_strip(64, 64).threads(4).build().unwrap();
        assert_eq!(sim.threads(), 1, "sub-threshold grid must run serial");
        // A custom threshold scales the clamp: 4096 cells / 1024 = 4.
        let sim = fecob_strip(64, 64)
            .threads(8)
            .min_cells_per_thread(1024)
            .build()
            .unwrap();
        assert_eq!(sim.threads(), 4);
        // Opting out honours the request verbatim.
        let sim = fecob_strip(64, 64)
            .threads(4)
            .min_cells_per_thread(0)
            .build()
            .unwrap();
        assert_eq!(sim.threads(), 4);
    }

    #[test]
    fn absorbing_frame_is_accepted() {
        let sim = fecob_strip(16, 16)
            .absorbing_frame(AbsorbingFrame::new(4, 0.5))
            .build()
            .unwrap();
        // The builder wired the map: max damping at corner exceeds base.
        assert!(sim.system.alpha[0] > 0.004);
    }
}
