//! Effective-field contributions to the LLG equation.
//!
//! Every physical interaction contributes a term to the effective field
//! `H_eff` of equation (1) in the paper: exchange, uniaxial
//! magneto-crystalline anisotropy, the external (Zeeman) field, the
//! demagnetizing field and, optionally, Brown's thermal field. Each is a
//! [`FieldTerm`]; the simulation sums their contributions every evaluation
//! of the right-hand side.

pub mod anisotropy;
pub mod demag;
pub mod exchange;
pub mod thermal;
pub mod zeeman;

use std::any::Any;

use crate::field3::Field3;
use crate::math::Vec3;
use crate::par::WorkerTeam;
#[cfg(test)]
use crate::MU0;

/// A field term compiled down to a branch-light per-cell operation, so the
/// parallel engine can evaluate the whole effective field in one fused
/// pass over the magnetic cells instead of one full-mesh traversal per
/// term. The per-cell arithmetic mirrors the term's `accumulate_par`
/// exactly (same operations in the same order), keeping fused results
/// bitwise identical to the term-by-term path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedTerm {
    /// Uniform field added to every cell (Zeeman).
    Uniform(Vec3),
    /// Uniaxial anisotropy `h += axis·(coeff·m·axis)`.
    Uniaxial {
        /// 2Ku₁/(μ₀Ms) in A/m.
        coeff: f64,
        /// Easy axis (unit vector).
        axis: Vec3,
    },
    /// Thin-film demag `h_z -= Ms·m_z`.
    ThinFilm {
        /// Saturation magnetization in A/m.
        ms: f64,
    },
    /// 4-neighbour exchange Laplacian with per-axis coefficients.
    Exchange {
        /// 2A/(μ₀·Ms·dx²) in A/m.
        coeff_x: f64,
        /// 2A/(μ₀·Ms·dy²) in A/m.
        coeff_y: f64,
    },
}

/// One contribution to the effective field.
///
/// Implementations add their field (in A/m) into the planes of `h`,
/// indexed identically to the magnetization planes `m` (unit vectors,
/// row-major mesh order).
pub trait FieldTerm: Send + Sync {
    /// Short name for diagnostics (e.g. `"exchange"`).
    fn name(&self) -> &'static str;

    /// Allocates this term's per-system scratch state, if it needs any.
    ///
    /// The [`crate::llg::LlgSystem`] owns one scratch per term and
    /// threads it back through [`FieldTerm::accumulate_par`] on the hot
    /// path, so terms with large working buffers (the FFT demag) avoid
    /// both per-call allocation and lock contention. Terms without
    /// scratch return `None` (the default).
    fn make_scratch(&self) -> Option<Box<dyn Any + Send + Sync>> {
        None
    }

    /// Adds this term's field at simulation time `t` (seconds) into `h`,
    /// reading the magnetization planes `m`. May use the system's worker
    /// `team` and the term's own `scratch` (as created by
    /// [`FieldTerm::make_scratch`]); a term that needs scratch allocates
    /// its own when `scratch` is `None`.
    ///
    /// The field must be bitwise identical for any team size: the
    /// per-cell arithmetic may not depend on the thread partition.
    fn accumulate_par(
        &self,
        m: &Field3,
        t: f64,
        h: &mut Field3,
        team: &WorkerTeam,
        scratch: Option<&mut (dyn Any + Send + Sync)>,
    );

    /// The fused per-cell form of this term, if it has one. Terms that
    /// return `None` (non-local fields such as the FFT demag) are
    /// evaluated by `accumulate_par` in a pre-pass; everything else is
    /// executed inside the fused parallel kernel.
    fn fused(&self) -> Option<FusedTerm> {
        None
    }

    /// Energy prefactor: 0.5 for self-consistent (quadratic-in-m) terms
    /// such as exchange, anisotropy and demag; 1.0 for external fields.
    /// The energy is `E = -p·μ₀·Ms·V_cell·Σ m_i·H_i` (see
    /// [`crate::llg::LlgSystem::energy`]).
    fn energy_prefactor(&self) -> f64 {
        0.5
    }
}

/// Test-only array-of-structs form of [`FieldTerm::accumulate_par`]: a
/// serial evaluation with fresh scratch. The layout change is a pure
/// permutation of `f64` values, so the field is bitwise the planar one.
#[cfg(test)]
pub(crate) fn accumulate_aos(term: &dyn FieldTerm, m: &[Vec3], t: f64, h: &mut [Vec3]) {
    let mut hf = Field3::from_vec3s(h);
    term.accumulate_par(
        &Field3::from_vec3s(m),
        t,
        &mut hf,
        &WorkerTeam::new(1),
        None,
    );
    h.copy_from_slice(&hf.to_vec());
}

/// Test-only energy of one term in joules,
/// `E = -p·μ₀·Ms·V_cell·Σ m_i·H_i` with `p` the term's prefactor, summed
/// in cell order as [`crate::llg::LlgSystem::energy`] does.
#[cfg(test)]
pub(crate) fn energy_aos(
    term: &dyn FieldTerm,
    m: &[Vec3],
    t: f64,
    ms: f64,
    cell_volume: f64,
) -> f64 {
    let mut h = vec![Vec3::ZERO; m.len()];
    accumulate_aos(term, m, t, &mut h);
    let dot: f64 = m.iter().zip(h.iter()).map(|(mi, hi)| mi.dot(*hi)).sum();
    -term.energy_prefactor() * MU0 * ms * cell_volume * dot
}

#[cfg(test)]
mod tests {
    use super::zeeman::Zeeman;
    use super::*;
    use crate::MU0;

    #[test]
    fn energy_uses_prefactor_and_volume() {
        // A uniform 1 A/m field along z acting on one cell magnetized
        // along z: E = -μ₀·Ms·V·1.
        let z = Zeeman::uniform(Vec3::Z);
        let m = vec![Vec3::Z];
        let e = energy_aos(&z, &m, 0.0, 1.0, 2.0);
        assert!((e + MU0 * 2.0).abs() < 1e-20);
    }
}
