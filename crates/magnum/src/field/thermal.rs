//! Brown's stochastic thermal field.
//!
//! Finite temperature enters the LLG equation as a random field with
//! variance `σ_B² = 2·α·k_B·T / (γ·Ms·V_cell·Δt)` (in T², divided by μ₀
//! for A/m), white in time and space. The field is redrawn once per time
//! step and held fixed across the integrator stages (Heun converges to
//! the Stratonovich solution this way).
//!
//! The damping constant `α` in the variance is the *local* one: with an
//! absorbing boundary frame the frame cells run at α ≈ 0.5 while the
//! interior sits at the material's intrinsic damping, and the
//! fluctuation–dissipation theorem requires the noise power to track
//! that spatial profile cell by cell. [`ThermalField::with_damping`]
//! takes the per-cell damping map; [`ThermalField::new`] is the uniform
//! special case.
//!
//! The paper leaves thermal effects to the literature it cites (\[36\],
//! \[43\]) but discusses them in §IV-D; this module is what the `repro
//! thermal` experiment uses to show gate operation survives T > 0.

use crate::field3::FieldBatch;
use crate::material::Material;
use crate::math::{GaussianSource, Vec3};
use crate::mesh::Mesh;
use crate::{KB, MU0};

/// Stochastic thermal field generator (see module docs).
#[derive(Debug)]
pub struct ThermalField {
    temperature: f64,
    /// Per-cell `sqrt(2·α_i·k_B / (γ·Ms·V)) / μ₀` — multiplied by
    /// `sqrt(T/Δt)` at draw time. Zero for vacuum cells.
    sigma_base: Vec<f64>,
    mask: Vec<bool>,
    normals: GaussianSource,
}

impl ThermalField {
    /// Creates a generator with spatially uniform damping taken from the
    /// material, for the given temperature (kelvin) and RNG seed.
    pub fn new(mesh: &Mesh, material: &Material, temperature: f64, seed: u64) -> Self {
        let alpha = vec![material.gilbert_damping(); mesh.cell_count()];
        Self::with_damping(mesh, material, &alpha, temperature, seed)
    }

    /// Creates a generator whose noise power follows the per-cell damping
    /// map `alpha` (fluctuation–dissipation with absorbing frames).
    ///
    /// # Panics
    ///
    /// Panics if `alpha.len()` differs from the mesh cell count.
    pub fn with_damping(
        mesh: &Mesh,
        material: &Material,
        alpha: &[f64],
        temperature: f64,
        seed: u64,
    ) -> Self {
        assert_eq!(alpha.len(), mesh.cell_count(), "damping map size mismatch");
        let ms = material.saturation_magnetization();
        let v = mesh.cell_volume();
        let mask = mesh.mask().to_vec();
        let sigma_base = alpha
            .iter()
            .zip(&mask)
            .map(|(&a, &magnetic)| {
                if magnetic && ms > 0.0 && a > 0.0 {
                    (2.0 * a * KB / (material.gamma() * ms * v)).sqrt() / MU0
                } else {
                    0.0
                }
            })
            .collect();
        ThermalField {
            temperature: temperature.max(0.0),
            sigma_base,
            mask,
            normals: GaussianSource::new(seed),
        }
    }

    /// The configured temperature in kelvin.
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Draws a fresh realization of the thermal field (A/m) for a step of
    /// length `dt`, writing it into `out` (vacuum cells get zero).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the mesh cell count.
    pub fn draw(&mut self, dt: f64, out: &mut [Vec3]) {
        assert_eq!(out.len(), self.mask.len(), "thermal buffer size mismatch");
        self.draw_with(dt, |i, v| out[i] = v);
    }

    /// [`ThermalField::draw`] straight into member `s` of a K-interleaved
    /// batch: the same draw sequence, with no intermediate buffer.
    ///
    /// # Panics
    ///
    /// Panics if the batch's cell count differs from the mesh cell count.
    pub(crate) fn draw_member(&mut self, dt: f64, out: &mut FieldBatch, s: usize) {
        assert_eq!(out.cells(), self.mask.len(), "thermal buffer size mismatch");
        self.draw_with(dt, |i, v| out.set(i, s, v));
    }

    /// Draws one realization in ascending cell order, handing each
    /// cell's value to `put`.
    fn draw_with(&mut self, dt: f64, mut put: impl FnMut(usize, Vec3)) {
        if self.temperature == 0.0 || dt <= 0.0 {
            (0..self.mask.len()).for_each(|i| put(i, Vec3::ZERO));
            return;
        }
        let scale = (self.temperature / dt).sqrt();
        for i in 0..self.mask.len() {
            if self.mask[i] {
                let sigma = self.sigma_base[i] * scale;
                put(
                    i,
                    Vec3::new(
                        sigma * self.normals.next_normal(),
                        sigma * self.normals.next_normal(),
                        sigma * self.normals.next_normal(),
                    ),
                );
            } else {
                put(i, Vec3::ZERO);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Mesh, Material) {
        (
            Mesh::new(16, 16, [5e-9, 5e-9, 1e-9]).unwrap(),
            Material::fecob(),
        )
    }

    fn field_variance(t: f64, dt: f64, seed: u64) -> f64 {
        let (mesh, mat) = setup();
        let mut th = ThermalField::new(&mesh, &mat, t, seed);
        let mut buf = vec![Vec3::ZERO; mesh.cell_count()];
        th.draw(dt, &mut buf);
        let n = buf.len() as f64 * 3.0;
        buf.iter().map(|v| v.norm_sq()).sum::<f64>() / n
    }

    #[test]
    fn zero_temperature_gives_zero_field() {
        assert_eq!(field_variance(0.0, 1e-13, 1), 0.0);
    }

    #[test]
    fn variance_scales_linearly_with_temperature() {
        let v300 = field_variance(300.0, 1e-13, 42);
        let v75 = field_variance(75.0, 1e-13, 42);
        let ratio = v300 / v75;
        assert!(
            (ratio - 4.0).abs() < 0.5,
            "variance ratio should be ≈4, got {ratio}"
        );
    }

    #[test]
    fn variance_scales_inversely_with_dt() {
        let v1 = field_variance(300.0, 1e-13, 7);
        let v2 = field_variance(300.0, 4e-13, 7);
        let ratio = v1 / v2;
        assert!(
            (ratio - 4.0).abs() < 0.5,
            "variance ratio should be ≈4, got {ratio}"
        );
    }

    #[test]
    fn same_seed_reproduces_realization() {
        let (mesh, mat) = setup();
        let mut a = ThermalField::new(&mesh, &mat, 300.0, 9);
        let mut b = ThermalField::new(&mesh, &mat, 300.0, 9);
        let mut ba = vec![Vec3::ZERO; mesh.cell_count()];
        let mut bb = vec![Vec3::ZERO; mesh.cell_count()];
        a.draw(1e-13, &mut ba);
        b.draw(1e-13, &mut bb);
        assert_eq!(ba, bb);
    }

    #[test]
    fn different_seeds_differ() {
        let (mesh, mat) = setup();
        let mut a = ThermalField::new(&mesh, &mat, 300.0, 1);
        let mut b = ThermalField::new(&mesh, &mat, 300.0, 2);
        let mut ba = vec![Vec3::ZERO; mesh.cell_count()];
        let mut bb = vec![Vec3::ZERO; mesh.cell_count()];
        a.draw(1e-13, &mut ba);
        b.draw(1e-13, &mut bb);
        assert_ne!(ba, bb);
    }

    #[test]
    fn mean_is_approximately_zero() {
        let (mesh, mat) = setup();
        let mut th = ThermalField::new(&mesh, &mat, 300.0, 3);
        let mut buf = vec![Vec3::ZERO; mesh.cell_count()];
        th.draw(1e-13, &mut buf);
        let mean: Vec3 = buf.iter().copied().sum::<Vec3>() / buf.len() as f64;
        let sigma =
            (buf.iter().map(|v| v.norm_sq()).sum::<f64>() / (3.0 * buf.len() as f64)).sqrt();
        assert!(mean.norm() < sigma, "mean {mean} too large vs σ = {sigma}");
    }

    #[test]
    fn vacuum_cells_stay_cold() {
        let (mut mesh, mat) = setup();
        mesh.set_magnetic(0, 0, false);
        let mut th = ThermalField::new(&mesh, &mat, 300.0, 5);
        let mut buf = vec![Vec3::ZERO; mesh.cell_count()];
        th.draw(1e-13, &mut buf);
        assert_eq!(buf[0], Vec3::ZERO);
        assert!(buf[1].norm() > 0.0);
    }

    #[test]
    fn uniform_map_matches_legacy_constructor() {
        let (mesh, mat) = setup();
        let alpha = vec![mat.gilbert_damping(); mesh.cell_count()];
        let mut a = ThermalField::new(&mesh, &mat, 300.0, 13);
        let mut b = ThermalField::with_damping(&mesh, &mat, &alpha, 300.0, 13);
        let mut ba = vec![Vec3::ZERO; mesh.cell_count()];
        let mut bb = vec![Vec3::ZERO; mesh.cell_count()];
        a.draw(1e-13, &mut ba);
        b.draw(1e-13, &mut bb);
        assert_eq!(ba, bb);
    }

    #[test]
    fn variance_tracks_local_damping() {
        // Fluctuation–dissipation regression: a cell running at 100× the
        // interior damping (an absorbing-frame cell) must draw noise with
        // 100× the variance — i.e. σ ∝ sqrt(α_local), not sqrt(α_bulk).
        let (mesh, mat) = setup();
        let n = mesh.cell_count();
        let a_bulk = mat.gilbert_damping();
        let a_frame = 100.0 * a_bulk;
        let mut alpha = vec![a_bulk; n];
        alpha[0] = a_frame;
        // Many redraws of the same two cells estimate the variances.
        let mut th = ThermalField::with_damping(&mesh, &mat, &alpha, 300.0, 21);
        let mut buf = vec![Vec3::ZERO; n];
        let (mut var_frame, mut var_bulk) = (0.0, 0.0);
        let draws = 400;
        for _ in 0..draws {
            th.draw(1e-13, &mut buf);
            var_frame += buf[0].norm_sq();
            var_bulk += buf[1].norm_sq();
        }
        let ratio = var_frame / var_bulk;
        assert!(
            (ratio - 100.0).abs() < 15.0,
            "frame/bulk variance ratio should be ≈100 (α ratio), got {ratio}"
        );
    }
}
