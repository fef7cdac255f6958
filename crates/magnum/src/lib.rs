//! # magnum — a finite-difference micromagnetic solver
//!
//! `magnum` is a from-scratch CPU reimplementation of the micromagnetic
//! machinery the DATE 2021 paper *"Fan-out of 2 Triangle Shape Spin Wave
//! Logic Gates"* obtained from MuMax3: it integrates the
//! Landau–Lifshitz–Gilbert (LLG) equation on a finite-difference mesh with
//! exchange, uniaxial anisotropy, Zeeman, demagnetization and thermal field
//! contributions, and provides the excitation antennas, absorbing
//! boundaries and probes needed to simulate spin-wave logic devices.
//!
//! The solver is deliberately simulator-grade rather than GPU-grade: it is
//! deterministic, dependency-light and sized for waveguide-scale devices
//! (10⁴–10⁵ cells), which is what the paper's gate geometries need.
//!
//! ## Quick example
//!
//! ```
//! use magnum::prelude::*;
//!
//! # fn main() -> Result<(), magnum::MagnumError> {
//! // A 64 x 8 cell permalloy-like strip, 5 nm cells, 1 nm thick.
//! let mesh = Mesh::new(64, 8, [5e-9, 5e-9, 1e-9])?;
//! let material = Material::builder()
//!     .saturation_magnetization(800e3)
//!     .exchange_stiffness(13e-12)
//!     .gilbert_damping(0.01)
//!     .build()?;
//! let mut sim = Simulation::builder(mesh, material)
//!     .uniform_magnetization(Vec3::Z)
//!     .demag(DemagMethod::ThinFilmLocal)
//!     .build()?;
//! sim.run(10e-12)?;
//! assert!((sim.magnetization_mean().norm() - 1.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod damping;
pub mod error;
pub mod excitation;
pub mod fft;
pub mod field;
pub mod field3;
pub mod geometry;
pub mod llg;
pub mod material;
pub mod math;
pub mod mesh;
pub mod par;
pub mod probe;
pub mod sim;
pub mod solver;

pub use batch::BatchedSimulation;
pub use error::MagnumError;
pub use field3::{BatchMemberView, Field3, FieldBatch, MagRead};
pub use material::{Material, MaterialBuilder};
pub use math::{Complex64, Vec3};
pub use mesh::{CellIndex, Mesh};
pub use sim::{Relaxation, Simulation, SimulationBuilder};

/// Commonly used items, re-exported for ergonomic glob imports.
pub mod prelude {
    pub use crate::batch::BatchedSimulation;
    pub use crate::damping::AbsorbingFrame;
    pub use crate::excitation::{Antenna, Drive};
    pub use crate::field::demag::DemagMethod;
    pub use crate::field::thermal::ThermalField;
    pub use crate::field3::{Field3, MagRead};
    pub use crate::geometry::Shape;
    pub use crate::material::Material;
    pub use crate::math::{Complex64, Vec3};
    pub use crate::mesh::Mesh;
    pub use crate::probe::{DftProbe, RegionProbe, Snapshot, SpectrumProbe};
    pub use crate::sim::{Relaxation, Simulation, SimulationBuilder};
    pub use crate::MagnumError;
}

/// Vacuum permeability μ₀ in T·m/A.
pub const MU0: f64 = 1.256_637_061_435_917e-6;

/// Gyromagnetic ratio of the electron |γ| in rad/(s·T).
///
/// The LLG precession term uses |γ|·μ₀ with fields expressed in A/m.
pub const GAMMA: f64 = 1.760_859_630_23e11;

/// Boltzmann constant in J/K (used by the thermal field).
pub const KB: f64 = 1.380_649e-23;
