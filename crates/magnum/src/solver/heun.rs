//! Heun (predictor-corrector) integrator.

use super::{axpy_range, Stages};
use crate::error::MagnumError;
use crate::field3::FieldBatch;

/// Second-order Heun scheme.
///
/// With the thermal field frozen over the step this is the standard
/// stochastic-Heun method, converging to the Stratonovich interpretation
/// of the stochastic LLG equation — the physically correct one for
/// Brown's thermal field.
///
/// Both stages are single fused sweeps: the predictor `m + dt·k1` and the
/// corrector `m + (k1+k2)·dt/2` are applied in the RHS sweep's fuse hook
/// instead of separate full-mesh passes. The axpy loops are elementwise,
/// so they run on K-interleaved planes verbatim.
pub(crate) struct Heun {
    k1: FieldBatch,
    k2: FieldBatch,
    predictor: FieldBatch,
}

impl Heun {
    /// Stage buffers for `k` members of `cells` cells.
    pub(crate) fn new(cells: usize, k: usize) -> Self {
        Heun {
            k1: FieldBatch::zeros(cells, k),
            k2: FieldBatch::zeros(cells, k),
            predictor: FieldBatch::zeros(cells, k),
        }
    }

    pub(super) fn step(
        &mut self,
        st: &mut Stages<'_>,
        t: f64,
        dt: f64,
        m: &mut FieldBatch,
    ) -> Result<f64, MagnumError> {
        // Stage 1: k1 = f(t, m), fusing the predictor write. Reads use
        // unchecked `Field3Read` so the axpy loop stays branch-free and
        // vectorizable.
        {
            let pred = self.predictor.ptrs();
            let m_in = m.read_ptr();
            st.eval(&*m, t, &mut self.k1, |i0, i1, k| {
                // Safety: each block fuses a disjoint range, and the
                // buffers behind the raw pointers outlive the sweep.
                unsafe { axpy_range(i0, i1, pred, m_in, k, dt) };
            });
        }
        // Stage 2: k2 = f(t+dt, predictor), fusing the corrector. The
        // sweep's field evaluation reads only `predictor`, so updating
        // `m` in place at the block's own range is sound.
        {
            let k1 = self.k1.read_ptr();
            let m_out = m.ptrs();
            st.eval(&self.predictor, t + dt, &mut self.k2, |i0, i1, k| unsafe {
                // Per-plane corrector loops, as in `axpy_range`.
                let (mx, my, mz) = m_out.planes();
                let (k1x, k1y, k1z) = k1.planes();
                let (k2x, k2y, k2z) = k.planes();
                for i in i0..i1 {
                    *mx.add(i) += (*k1x.add(i) + *k2x.add(i)) * (dt / 2.0);
                }
                for i in i0..i1 {
                    *my.add(i) += (*k1y.add(i) + *k2y.add(i)) * (dt / 2.0);
                }
                for i in i0..i1 {
                    *mz.add(i) += (*k1z.add(i) + *k2z.add(i)) * (dt / 2.0);
                }
            });
        }
        st.renormalize(m, t + dt)?;
        Ok(dt)
    }
}

#[cfg(test)]
mod tests {
    use crate::solver::test_support::{macrospin, macrospin_analytic, macrospin_stepper, step};
    use crate::solver::IntegratorKind;

    #[test]
    fn converges_at_second_order() {
        let alpha = 0.1;
        let h = 1e5;
        let t_end = 40e-12;
        let expected = macrospin_analytic(alpha, h, t_end);
        let mut sys = macrospin(alpha, h);
        let mut errors = Vec::new();
        for &dt in &[2e-14, 1e-14, 5e-15] {
            let (mut integ, mut m) = macrospin_stepper(IntegratorKind::Heun, &sys);
            let steps = (t_end / dt).round() as usize;
            let mut t = 0.0;
            for _ in 0..steps {
                step(&mut integ, &mut sys, t, dt, &mut m).unwrap();
                t += dt;
            }
            errors.push((m.get(0, 0) - expected).norm());
        }
        // Halving dt should cut the error by ~4 (2nd order); allow slack
        // because renormalization perturbs the asymptotics slightly.
        assert!(
            errors[0] / errors[1] > 2.5,
            "convergence ratio too low: {:?}",
            errors
        );
        assert!(errors[1] / errors[2] > 2.5);
    }

    #[test]
    fn step_returns_dt() {
        let mut sys = macrospin(0.01, 1e5);
        let (mut integ, mut m) = macrospin_stepper(IntegratorKind::Heun, &sys);
        let taken = step(&mut integ, &mut sys, 0.0, 1e-14, &mut m).unwrap();
        assert_eq!(taken, 1e-14);
    }
}
