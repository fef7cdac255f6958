//! First-order uniaxial magneto-crystalline anisotropy.
//!
//! `H_anis = (2Ku₁/μ₀Ms)·(m·û)·û`. With the perpendicular easy axis and
//! the Ku of the paper's Fe₆₀Co₂₀B₂₀ film this term (together with the
//! thin-film demag) holds the magnetization out-of-plane, enabling
//! forward-volume spin waves.

use std::any::Any;

use super::{FieldTerm, FusedTerm};
use crate::field3::Field3;
use crate::material::Material;
use crate::math::Vec3;
use crate::mesh::Mesh;
use crate::par::WorkerTeam;
use crate::MU0;

/// Uniaxial anisotropy field term.
#[derive(Debug, Clone)]
pub struct UniaxialAnisotropy {
    /// 2Ku₁/(μ₀Ms) in A/m.
    coeff: f64,
    axis: Vec3,
    mask: Vec<bool>,
}

impl UniaxialAnisotropy {
    /// Builds the term from the material's Ku₁ and easy axis.
    pub fn new(mesh: &Mesh, material: &Material) -> Self {
        let ms = material.saturation_magnetization();
        let coeff = if ms > 0.0 {
            2.0 * material.anisotropy_constant() / (MU0 * ms)
        } else {
            0.0
        };
        UniaxialAnisotropy {
            coeff,
            axis: material.anisotropy_axis(),
            mask: mesh.mask().to_vec(),
        }
    }

    /// The anisotropy field coefficient `2Ku₁/(μ₀Ms)` in A/m.
    pub fn coefficient(&self) -> f64 {
        self.coeff
    }
}

impl FieldTerm for UniaxialAnisotropy {
    fn name(&self) -> &'static str {
        "uniaxial_anisotropy"
    }

    fn accumulate_par(
        &self,
        m: &Field3,
        _t: f64,
        h: &mut Field3,
        _team: &WorkerTeam,
        _scratch: Option<&mut (dyn Any + Send + Sync)>,
    ) {
        if self.coeff == 0.0 {
            return;
        }
        for (i, &magnetic) in self.mask.iter().enumerate() {
            if magnetic {
                h.add(i, self.axis * (self.coeff * m.get(i).dot(self.axis)));
            }
        }
    }

    fn fused(&self) -> Option<FusedTerm> {
        Some(FusedTerm::Uniaxial {
            coeff: self.coeff,
            axis: self.axis,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{accumulate_aos, energy_aos};

    fn term() -> (UniaxialAnisotropy, Material, Mesh) {
        let mesh = Mesh::new(4, 2, [5e-9, 5e-9, 1e-9]).unwrap();
        let mat = Material::fecob();
        (UniaxialAnisotropy::new(&mesh, &mat), mat, mesh)
    }

    #[test]
    fn field_is_along_axis_and_proportional_to_projection() {
        let (a, _, mesh) = term();
        let m = vec![Vec3::new(0.6, 0.0, 0.8); mesh.cell_count()];
        let mut h = vec![Vec3::ZERO; mesh.cell_count()];
        accumulate_aos(&a, &m, 0.0, &mut h);
        for hi in &h {
            assert!(hi.x.abs() < 1e-12 && hi.y.abs() < 1e-12);
            assert!((hi.z - a.coefficient() * 0.8).abs() < 1e-3);
        }
    }

    #[test]
    fn in_plane_magnetization_feels_no_field() {
        let (a, _, mesh) = term();
        let m = vec![Vec3::X; mesh.cell_count()];
        let mut h = vec![Vec3::ZERO; mesh.cell_count()];
        accumulate_aos(&a, &m, 0.0, &mut h);
        for hi in &h {
            assert!(hi.norm() < 1e-12);
        }
    }

    #[test]
    fn coefficient_matches_fecob() {
        let (a, _, _) = term();
        let expected = 2.0 * 0.832e6 / (MU0 * 1100e3);
        assert!((a.coefficient() - expected).abs() / expected < 1e-12);
        // ≈ 1.204 MA/m, comfortably above Ms = 1.1 MA/m: perpendicular film.
        assert!(a.coefficient() > 1100e3);
    }

    #[test]
    fn easy_axis_minimizes_energy() {
        let (a, mat, mesh) = term();
        let ms = mat.saturation_magnetization();
        let v = mesh.cell_volume();
        let along = vec![Vec3::Z; mesh.cell_count()];
        let hard = vec![Vec3::X; mesh.cell_count()];
        let e_along = energy_aos(&a, &along, 0.0, ms, v);
        let e_hard = energy_aos(&a, &hard, 0.0, ms, v);
        assert!(e_along < e_hard, "easy axis must be the energy minimum");
        assert!(
            e_hard.abs() < 1e-30,
            "hard-axis energy is the zero reference"
        );
    }

    #[test]
    fn opposite_easy_directions_are_degenerate() {
        let (a, mat, mesh) = term();
        let ms = mat.saturation_magnetization();
        let v = mesh.cell_volume();
        let up = vec![Vec3::Z; mesh.cell_count()];
        let down = vec![-Vec3::Z; mesh.cell_count()];
        let e_up = energy_aos(&a, &up, 0.0, ms, v);
        let e_down = energy_aos(&a, &down, 0.0, ms, v);
        assert!((e_up - e_down).abs() < 1e-30);
    }

    #[test]
    fn vacuum_cells_get_no_field() {
        let mut mesh = Mesh::new(2, 1, [5e-9, 5e-9, 1e-9]).unwrap();
        mesh.set_magnetic(1, 0, false);
        let a = UniaxialAnisotropy::new(&mesh, &Material::fecob());
        let m = vec![Vec3::Z; 2];
        let mut h = vec![Vec3::ZERO; 2];
        accumulate_aos(&a, &m, 0.0, &mut h);
        assert!(h[0].norm() > 0.0);
        assert_eq!(h[1], Vec3::ZERO);
    }
}
