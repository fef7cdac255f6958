//! External (Zeeman) field.
//!
//! A uniform static bias field. Time- and space-dependent drive fields are
//! the job of [`crate::excitation::Antenna`]s; keeping the static bias
//! separate lets the energy bookkeeping use the correct prefactor (1
//! instead of ½).

use std::any::Any;

use super::{FieldTerm, FusedTerm};
use crate::field3::Field3;
use crate::math::Vec3;
use crate::par::WorkerTeam;

/// Uniform static external field (A/m).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zeeman {
    field: Vec3,
}

impl Zeeman {
    /// Creates a uniform field term.
    pub fn uniform(field: Vec3) -> Self {
        Zeeman { field }
    }

    /// The applied field in A/m.
    pub fn field(&self) -> Vec3 {
        self.field
    }
}

impl FieldTerm for Zeeman {
    fn name(&self) -> &'static str {
        "zeeman"
    }

    fn accumulate_par(
        &self,
        _m: &Field3,
        _t: f64,
        h: &mut Field3,
        _team: &WorkerTeam,
        _scratch: Option<&mut (dyn Any + Send + Sync)>,
    ) {
        if self.field == Vec3::ZERO {
            return;
        }
        for i in 0..h.len() {
            h.add(i, self.field);
        }
    }

    fn energy_prefactor(&self) -> f64 {
        1.0
    }

    fn fused(&self) -> Option<FusedTerm> {
        Some(FusedTerm::Uniform(self.field))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{accumulate_aos, energy_aos};
    use crate::MU0;

    #[test]
    fn adds_same_field_everywhere() {
        let z = Zeeman::uniform(Vec3::new(0.0, 0.0, 1e5));
        let m = vec![Vec3::Z; 5];
        let mut h = vec![Vec3::new(1.0, 0.0, 0.0); 5];
        accumulate_aos(&z, &m, 0.0, &mut h);
        for hi in &h {
            assert_eq!(*hi, Vec3::new(1.0, 0.0, 1e5));
        }
    }

    #[test]
    fn zeeman_energy_is_linear_in_field() {
        let z1 = Zeeman::uniform(Vec3::Z * 1e5);
        let z2 = Zeeman::uniform(Vec3::Z * 2e5);
        let m = vec![Vec3::Z; 3];
        let e1 = energy_aos(&z1, &m, 0.0, 1e6, 1e-27);
        let e2 = energy_aos(&z2, &m, 0.0, 1e6, 1e-27);
        assert!((e2 - 2.0 * e1).abs() < 1e-30);
        // Aligned magnetization has negative Zeeman energy.
        assert!(e1 < 0.0);
        let expected = -(MU0) * 1e6 * 1e-27 * 1e5 * 3.0;
        assert!((e1 - expected).abs() < 1e-32);
    }

    #[test]
    fn antiparallel_magnetization_has_positive_energy() {
        let z = Zeeman::uniform(Vec3::Z * 1e5);
        let m = vec![-Vec3::Z; 2];
        assert!(energy_aos(&z, &m, 0.0, 1e6, 1e-27) > 0.0);
    }
}
