//! Batched K-way simulation advance.
//!
//! Every experiment in the paper reproduction is N nearly-identical LLG
//! runs — the 8 MAJ3 input patterns, variability sweeps, thermal
//! Monte-Carlo — and each independent run pays the full per-sweep
//! overhead (stencil-table reads, CSR offsets, fork/join, FFT
//! twiddle/spectrum loads) on its own. A [`BatchedSimulation`] advances
//! K member simulations in lockstep through one K-interleaved SoA sweep
//! per stage: the shared geometry walk is amortized over all members,
//! and the K lanes of a cell are consecutive, so the branch-free arm
//! runs four members per AVX2 vector.
//!
//! ## One stepper family
//!
//! There is no batch-only integrator: a batch runs the same
//! [`crate::solver`] steppers a [`Simulation`] runs, at width K instead
//! of 1, and one stage body serves every K (see [`crate::llg`]): the
//! branch-free arm, whose AVX2 form packs four interior cells per
//! vector at K = 1 and four members per vector at K ≥ 4, and one scalar
//! body, which the K = 1 sweep compiles with a constant stride. A batch
//! of one costs what a solo run costs.
//!
//! ## Layout and parity
//!
//! State lives in a [`FieldBatch`] (member `s` of cell `i` at flat index
//! `i·K + s`). Interleaving is a pure permutation and every per-element
//! expression — field terms, torque, stage combinations, renormalization
//! — is the same whatever K is, so each member's trajectory is bitwise
//! identical to an independent run at any thread count. The one
//! exception is the adaptive Cash–Karp scheme: its error estimate is a
//! max over the *whole batch*, so all members share one step-size
//! sequence — deterministic and identical across thread counts, and
//! equal to an independent run when the members are identical, but not
//! to K differently-driven independently-controlled runs. The controller
//! state moves with the members: a batch starts from the smallest
//! member suggestion and writes its own back on
//! [`BatchedSimulation::sync_members`].
//!
//! ## Per-member state
//!
//! Members may differ in antenna *drives* (phase-encoded logic inputs)
//! and in their thermal realization: each member keeps its own
//! [`ThermalField`] RNG stream, drawn member-by-member straight into its
//! lanes, so the streams never interleave and match the member's
//! independent run draw for draw. Everything structural — mesh, mask,
//! material terms, damping map, time step, integrator, antenna
//! *coverage* — must be shared; construction validates what it can
//! observe and rejects mismatches.
//!
//! [`ThermalField`]: crate::field::thermal::ThermalField

use crate::error::MagnumError;
use crate::excitation::Antenna;
use crate::field3::{BatchMemberView, FieldBatch};
use crate::sim::{run_for, run_sampled, Clocked, Simulation};
use crate::solver::Stepper;

/// K same-geometry simulations advanced in lockstep through one batched
/// sweep per integrator stage (see the module docs).
///
/// Built from K [`Simulation`]s via [`BatchedSimulation::new`]; member
/// 0's [`LlgSystem`](crate::llg::LlgSystem) hosts the shared kernel, worker team and field
/// terms for the whole batch. Recover the members (with state written
/// back) via [`BatchedSimulation::into_members`].
pub struct BatchedSimulation {
    sims: Vec<Simulation>,
    /// Antennas of members `1..K` (cloned out of the members so stage
    /// evaluation does not alias the host system borrow; member 0's live
    /// in the host system).
    others: Vec<Vec<Antenna>>,
    m: FieldBatch,
    /// K-interleaved thermal realization for the current step (empty at
    /// T = 0).
    thermal: FieldBatch,
    stepper: Stepper,
    time: f64,
    dt: f64,
}

impl BatchedSimulation {
    /// Assembles a batch from K member simulations.
    ///
    /// Members must share everything structural: mesh (dimensions and
    /// mask), damping map, gyromagnetic ratio, time step, clock,
    /// integrator choice, thermal on/off, and antenna *coverage* (cell
    /// sets and field axes — drives may differ, that is the point).
    /// Field terms are taken from member 0 and must be identical across
    /// members (same material and demag choice); this is the caller's
    /// contract, as terms are not introspectable. An adaptive batch
    /// starts from the smallest step size its members' controllers
    /// suggest.
    ///
    /// # Errors
    ///
    /// Returns [`MagnumError::InvalidConfig`] for an empty batch or any
    /// observable mismatch.
    pub fn new(sims: Vec<Simulation>) -> Result<Self, MagnumError> {
        let invalid = |reason: String| MagnumError::InvalidConfig { reason };
        if sims.is_empty() {
            return Err(invalid("batch needs at least one member".into()));
        }
        let k = sims.len();
        let host = &sims[0];
        let n = host.mesh().cell_count();
        for (s, sim) in sims.iter().enumerate().skip(1) {
            if sim.mesh().nx() != host.mesh().nx() || sim.mesh().ny() != host.mesh().ny() {
                return Err(invalid(format!("member {s}: mesh dimensions differ")));
            }
            if sim.mesh().mask() != host.mesh().mask() {
                return Err(invalid(format!("member {s}: geometry mask differs")));
            }
            if sim.system_ref().alpha != host.system_ref().alpha {
                return Err(invalid(format!("member {s}: damping map differs")));
            }
            if sim.system_ref().gamma != host.system_ref().gamma {
                return Err(invalid(format!("member {s}: gyromagnetic ratio differs")));
            }
            if sim.time_step() != host.time_step() {
                return Err(invalid(format!("member {s}: time step differs")));
            }
            if sim.time() != host.time() {
                return Err(invalid(format!("member {s}: clock differs")));
            }
            if sim.integrator_kind() != host.integrator_kind() {
                return Err(invalid(format!("member {s}: integrator differs")));
            }
            if sim.has_thermal() != host.has_thermal() {
                return Err(invalid(format!("member {s}: thermal on/off differs")));
            }
            let (a, b) = (&sim.system_ref().antennas, &host.system_ref().antennas);
            if a.len() != b.len() {
                return Err(invalid(format!("member {s}: antenna count differs")));
            }
            for (ai, (x, y)) in a.iter().zip(b).enumerate() {
                if x.cells() != y.cells() || x.direction() != y.direction() {
                    return Err(invalid(format!(
                        "member {s}: antenna {ai} coverage differs (cell sets and field \
                         axes must be shared; only drives may vary across the batch)"
                    )));
                }
            }
        }

        let others: Vec<Vec<Antenna>> = sims[1..]
            .iter()
            .map(|sim| sim.system_ref().antennas.clone())
            .collect();
        let mut m = FieldBatch::zeros(n, k);
        for (s, sim) in sims.iter().enumerate() {
            m.load_member(s, sim.magnetization());
        }
        let thermal = if host.has_thermal() {
            FieldBatch::zeros(n, k)
        } else {
            FieldBatch::empty(k)
        };
        let mut stepper = Stepper::new(host.integrator_kind(), host.system_ref(), k);
        let suggested = sims
            .iter()
            .filter_map(|sim| sim.suggested_dt())
            .reduce(f64::min);
        stepper.set_suggested_dt(suggested);
        let time = host.time();
        let dt = host.time_step();
        Ok(BatchedSimulation {
            sims,
            others,
            m,
            thermal,
            stepper,
            time,
            dt,
        })
    }

    /// Batch width K.
    pub fn k(&self) -> usize {
        self.sims.len()
    }

    /// Current simulation time in seconds (shared by all members).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The fixed time step in seconds.
    pub fn time_step(&self) -> f64 {
        self.dt
    }

    /// The worker-thread count of the shared engine.
    pub fn threads(&self) -> usize {
        self.sims[0].threads()
    }

    /// Read-only view of member `s`'s magnetization (usable wherever a
    /// [`crate::MagRead`] is accepted — probes, snapshots).
    pub fn member(&self, s: usize) -> BatchMemberView<'_> {
        self.m.member(s)
    }

    /// Member `s`'s simulation (mesh, material, probes geometry). Its
    /// magnetization and clock are only current after
    /// [`BatchedSimulation::sync_members`].
    pub fn member_sim(&self, s: usize) -> &Simulation {
        &self.sims[s]
    }

    /// Writes the batch state (magnetization, clock, adaptive step-size
    /// controller) back into every member simulation.
    pub fn sync_members(&mut self) {
        let suggested = self.stepper.suggested_dt();
        for (s, sim) in self.sims.iter_mut().enumerate() {
            self.m.store_member(s, sim.magnetization_mut());
            sim.set_time_internal(self.time);
            sim.set_suggested_dt(suggested);
        }
    }

    /// Dissolves the batch, returning the member simulations with their
    /// final state written back.
    pub fn into_members(mut self) -> Vec<Simulation> {
        self.sync_members();
        self.sims
    }

    /// Advances all members by exactly one time step.
    ///
    /// # Errors
    ///
    /// Propagates integrator failures ([`MagnumError::Diverged`],
    /// [`MagnumError::StepSizeUnderflow`]).
    pub fn step(&mut self) -> Result<(), MagnumError> {
        // Each member draws from its own generator into its own lanes:
        // the same ascending-cell draw sequence as its independent run,
        // stream by stream.
        for (s, sim) in self.sims.iter_mut().enumerate() {
            if let Some(thermal) = sim.thermal_field_mut() {
                thermal.draw_member(self.dt, &mut self.thermal, s);
            }
        }
        let taken = self.stepper.step(
            self.sims[0].system_mut(),
            &self.others,
            &self.thermal,
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

    /// Runs for `duration` seconds, invoking `observer` every
    /// `sample_interval` seconds of simulated time (and once at the
    /// start) — the sample schedule of [`Simulation::run_sampled`].
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
        F: FnMut(f64, &BatchedSimulation),
    {
        run_sampled(self, duration, sample_interval, observer)
    }
}

impl Clocked for BatchedSimulation {
    fn clock(&self) -> f64 {
        self.time
    }

    fn advance(&mut self) -> Result<(), MagnumError> {
        self.step()
    }
}

impl std::fmt::Debug for BatchedSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedSimulation")
            .field("k", &self.k())
            .field("cells", &self.m.cells())
            .field("time", &self.time)
            .field("dt", &self.dt)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::damping::AbsorbingFrame;
    use crate::excitation::Drive;
    use crate::field::demag::DemagMethod;
    use crate::material::Material;
    use crate::math::Vec3;
    use crate::mesh::Mesh;
    use crate::sim::SimulationBuilder;

    const CELL: f64 = 5e-9;

    fn driven_sim(phase: f64, threads: usize) -> SimulationBuilder {
        let mesh = Mesh::new(16, 8, [CELL, CELL, 1e-9]).unwrap();
        let antenna = Antenna::over_rect(
            &mesh,
            0.0,
            0.0,
            2.0 * CELL,
            8.0 * CELL,
            Vec3::X,
            Drive::logic_cw(3e3, 9e9, phase),
        );
        Simulation::builder(mesh, Material::fecob())
            .uniform_magnetization(Vec3::Z)
            .demag(DemagMethod::ThinFilmLocal)
            .absorbing_frame(AbsorbingFrame::new(2, 0.5))
            .antenna(antenna)
            .threads(threads)
            .min_cells_per_thread(0)
    }

    fn collect(sim: &Simulation) -> Vec<Vec3> {
        sim.magnetization().to_vec()
    }

    #[test]
    fn batched_rk4_matches_independent_runs_bitwise() {
        let phases = [0.0, std::f64::consts::PI, 1.3];
        let steps = 8;
        for threads in [1, 2, 4] {
            let independent: Vec<Vec<Vec3>> = phases
                .iter()
                .map(|&p| {
                    let mut sim = driven_sim(p, threads).build().unwrap();
                    for _ in 0..steps {
                        sim.step().unwrap();
                    }
                    collect(&sim)
                })
                .collect();
            let sims: Vec<Simulation> = phases
                .iter()
                .map(|&p| driven_sim(p, threads).build().unwrap())
                .collect();
            let mut batch = BatchedSimulation::new(sims).unwrap();
            for _ in 0..steps {
                batch.step().unwrap();
            }
            let members = batch.into_members();
            for (s, sim) in members.iter().enumerate() {
                assert_eq!(
                    collect(sim),
                    independent[s],
                    "member {s} diverged from its independent run at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn batched_thermal_heun_keeps_rng_streams_separate() {
        let seeds = [3u64, 17, 29, 91];
        let steps = 6;
        let build = |seed: u64| {
            let mesh = Mesh::new(12, 6, [CELL, CELL, 1e-9]).unwrap();
            Simulation::builder(mesh, Material::fecob())
                .uniform_magnetization(Vec3::Z)
                .temperature(300.0)
                .seed(seed)
                .build()
                .unwrap()
        };
        let independent: Vec<Vec<Vec3>> = seeds
            .iter()
            .map(|&seed| {
                let mut sim = build(seed);
                for _ in 0..steps {
                    sim.step().unwrap();
                }
                collect(&sim)
            })
            .collect();
        let mut batch = BatchedSimulation::new(seeds.iter().map(|&s| build(s)).collect()).unwrap();
        for _ in 0..steps {
            batch.step().unwrap();
        }
        let members = batch.into_members();
        for (s, sim) in members.iter().enumerate() {
            assert_eq!(
                collect(sim),
                independent[s],
                "member {s} (seed {}) diverged — RNG streams interleaved?",
                seeds[s]
            );
        }
        // Different seeds must produce different trajectories (the test
        // would be vacuous if all members drew the same noise).
        assert_ne!(independent[0], independent[1]);
    }

    #[test]
    fn batched_newell_demag_matches_independent_runs() {
        let build = |phase: f64| {
            driven_sim(phase, 1)
                .demag(DemagMethod::NewellFft)
                .build()
                .unwrap()
        };
        let steps = 4;
        let phases = [0.0, std::f64::consts::PI];
        let independent: Vec<Vec<Vec3>> = phases
            .iter()
            .map(|&p| {
                let mut sim = build(p);
                for _ in 0..steps {
                    sim.step().unwrap();
                }
                collect(&sim)
            })
            .collect();
        let mut batch = BatchedSimulation::new(phases.iter().map(|&p| build(p)).collect()).unwrap();
        for _ in 0..steps {
            batch.step().unwrap();
        }
        let members = batch.into_members();
        for (s, sim) in members.iter().enumerate() {
            assert_eq!(collect(sim), independent[s], "member {s} diverged");
        }
    }

    #[test]
    fn run_and_sync_write_back_time_and_state() {
        let sims: Vec<Simulation> = (0..2)
            .map(|_| driven_sim(0.0, 1).build().unwrap())
            .collect();
        let dt = sims[0].time_step();
        let mut batch = BatchedSimulation::new(sims).unwrap();
        batch.run(dt * 3.0).unwrap();
        assert!((batch.time() - 3.0 * dt).abs() < 1e-21);
        let members = batch.into_members();
        for sim in &members {
            assert!((sim.time() - 3.0 * dt).abs() < 1e-21);
        }
    }

    #[test]
    fn mismatched_members_are_rejected() {
        // Different time steps.
        let a = driven_sim(0.0, 1).build().unwrap();
        let mut b = driven_sim(0.0, 1).build().unwrap();
        b.set_time_step(a.time_step() * 0.5).unwrap();
        assert!(BatchedSimulation::new(vec![a, b]).is_err());
        // Different antenna coverage.
        let a = driven_sim(0.0, 1).build().unwrap();
        let mesh = Mesh::new(16, 8, [CELL, CELL, 1e-9]).unwrap();
        let other = Antenna::over_rect(
            &mesh,
            0.0,
            0.0,
            4.0 * CELL,
            8.0 * CELL,
            Vec3::X,
            Drive::logic_cw(3e3, 9e9, 0.0),
        );
        let b = Simulation::builder(mesh, Material::fecob())
            .uniform_magnetization(Vec3::Z)
            .demag(DemagMethod::ThinFilmLocal)
            .absorbing_frame(AbsorbingFrame::new(2, 0.5))
            .antenna(other)
            .build()
            .unwrap();
        assert!(BatchedSimulation::new(vec![a, b]).is_err());
        // Empty batch.
        assert!(BatchedSimulation::new(Vec::new()).is_err());
    }

    #[test]
    fn observer_sees_member_views_with_the_sample_schedule() {
        let sims: Vec<Simulation> = (0..2)
            .map(|_| driven_sim(0.0, 1).build().unwrap())
            .collect();
        let dt = sims[0].time_step();
        let mut batch = BatchedSimulation::new(sims).unwrap();
        let mut calls = 0;
        batch
            .run_sampled(dt * 10.0, dt * 2.0, |_, b| {
                calls += 1;
                // Member views are live during sampling.
                let v = crate::MagRead::at(&b.member(1), 0);
                assert!(v.is_finite());
            })
            .unwrap();
        assert_eq!(calls, 6);
    }
}
