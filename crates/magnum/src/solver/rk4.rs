//! Classic fixed-step fourth-order Runge–Kutta integrator.

use super::{axpy_range, Stages};
use crate::error::MagnumError;
use crate::field3::FieldBatch;

/// The classic RK4 scheme — the default workhorse for deterministic
/// spin-wave runs (MuMax3's default family as well).
///
/// Every stage is one fused sweep: the RHS evaluation writes the next
/// stage input (`m + k·dt/2`, …) through the fuse hook, and the final
/// stage applies the `(k1 + 2k2 + 2k3 + k4)·dt/6` combination in place.
/// Two stage buffers ping-pong so a sweep never writes the buffer its
/// field evaluation is reading; `k4` is consumed inside its own sweep, so
/// only its scratch output reuses the idle ping-pong buffer.
pub(crate) struct RungeKutta4 {
    k1: FieldBatch,
    k2: FieldBatch,
    k3: FieldBatch,
    stage_a: FieldBatch,
    stage_b: FieldBatch,
}

impl RungeKutta4 {
    /// Stage buffers for `k` members of `cells` cells.
    pub(crate) fn new(cells: usize, k: usize) -> Self {
        RungeKutta4 {
            k1: FieldBatch::zeros(cells, k),
            k2: FieldBatch::zeros(cells, k),
            k3: FieldBatch::zeros(cells, k),
            stage_a: FieldBatch::zeros(cells, k),
            stage_b: FieldBatch::zeros(cells, k),
        }
    }

    pub(super) fn step(
        &mut self,
        st: &mut Stages<'_>,
        t: f64,
        dt: f64,
        m: &mut FieldBatch,
    ) -> Result<f64, MagnumError> {
        // Safety for every fuse hook below: blocks fuse disjoint ranges,
        // no sweep writes a buffer its field evaluation reads, and every
        // read pointer's buffer outlives the sweep. Reads go through
        // unchecked `Field3Read` so the axpy loops stay branch-free and
        // vectorizable.
        {
            let out = self.stage_a.ptrs();
            let m_in = m.read_ptr();
            st.eval(&*m, t, &mut self.k1, |i0, i1, k| unsafe {
                axpy_range(i0, i1, out, m_in, k, dt / 2.0);
            });
        }
        {
            let out = self.stage_b.ptrs();
            let m_in = m.read_ptr();
            st.eval(
                &self.stage_a,
                t + dt / 2.0,
                &mut self.k2,
                |i0, i1, k| unsafe {
                    axpy_range(i0, i1, out, m_in, k, dt / 2.0);
                },
            );
        }
        {
            let out = self.stage_a.ptrs();
            let m_in = m.read_ptr();
            st.eval(
                &self.stage_b,
                t + dt / 2.0,
                &mut self.k3,
                |i0, i1, k| unsafe {
                    axpy_range(i0, i1, out, m_in, k, dt);
                },
            );
        }
        {
            let k1 = self.k1.read_ptr();
            let k2 = self.k2.read_ptr();
            let k3 = self.k3.read_ptr();
            let m_out = m.ptrs();
            st.eval(
                &self.stage_a,
                t + dt,
                &mut self.stage_b,
                |i0, i1, k| unsafe {
                    // Per-plane loops, as in `axpy_range`: each loop reads
                    // four k planes and updates one m plane.
                    let (mx, my, mz) = m_out.planes();
                    let (k1x, k1y, k1z) = k1.planes();
                    let (k2x, k2y, k2z) = k2.planes();
                    let (k3x, k3y, k3z) = k3.planes();
                    let (k4x, k4y, k4z) = k.planes();
                    for i in i0..i1 {
                        *mx.add(i) +=
                            (*k1x.add(i) + (*k2x.add(i) + *k3x.add(i)) * 2.0 + *k4x.add(i))
                                * (dt / 6.0);
                    }
                    for i in i0..i1 {
                        *my.add(i) +=
                            (*k1y.add(i) + (*k2y.add(i) + *k3y.add(i)) * 2.0 + *k4y.add(i))
                                * (dt / 6.0);
                    }
                    for i in i0..i1 {
                        *mz.add(i) +=
                            (*k1z.add(i) + (*k2z.add(i) + *k3z.add(i)) * 2.0 + *k4z.add(i))
                                * (dt / 6.0);
                    }
                },
            );
        }
        st.renormalize(m, t + dt)?;
        Ok(dt)
    }
}

#[cfg(test)]
mod tests {
    use crate::error::MagnumError;
    use crate::solver::test_support::{macrospin, macrospin_analytic, macrospin_stepper, step};
    use crate::solver::IntegratorKind;

    #[test]
    fn high_accuracy_on_macrospin() {
        let alpha = 0.05;
        let h = 2e5;
        let t_end: f64 = 100e-12;
        let dt = 2e-14;
        let mut sys = macrospin(alpha, h);
        let (mut integ, mut m) = macrospin_stepper(IntegratorKind::RungeKutta4, &sys);
        let steps = (t_end / dt).round() as usize;
        let mut t = 0.0;
        for _ in 0..steps {
            step(&mut integ, &mut sys, t, dt, &mut m).unwrap();
            t += dt;
        }
        let expected = macrospin_analytic(alpha, h, t_end);
        assert!(
            (m.get(0, 0) - expected).norm() < 1e-8,
            "RK4 error {} too large",
            (m.get(0, 0) - expected).norm()
        );
    }

    #[test]
    fn diverges_cleanly_on_absurd_step() {
        // A gigantic dt makes the update blow up; the integrator must
        // report divergence rather than silently continuing.
        let mut sys = macrospin(0.01, 1e7);
        let (mut integ, mut m) = macrospin_stepper(IntegratorKind::RungeKutta4, &sys);
        let mut failed = false;
        for i in 0..100 {
            let t = i as f64;
            match step(&mut integ, &mut sys, t, 1.0, &mut m) {
                Err(MagnumError::Diverged { .. }) => {
                    failed = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
                Ok(_) => {
                    // Renormalization may keep it bounded; that's fine too.
                }
            }
        }
        // Either it diverged and said so, or the projection kept |m| = 1.
        if !failed {
            assert!((m.get(0, 0).norm() - 1.0).abs() < 1e-9);
        }
    }
}
