//! Adaptive Cash–Karp 5(4) embedded Runge–Kutta integrator.

use super::Stages;
use crate::error::MagnumError;
use crate::field3::{Field3Read, FieldBatch};
use crate::par::chunk_bounds;

/// Adaptive 5th-order integrator with an embedded 4th-order error
/// estimate (Cash–Karp coefficients).
///
/// The step is retried with a smaller `dt` until the max-norm of the
/// difference between the 5th- and 4th-order solutions is below the
/// configured tolerance; the accepted step size is returned and the next
/// suggestion is kept in `suggested`. The max-norm runs over *all*
/// members, so a batch shares one step-size sequence; a simulation that
/// joins a batch hands its controller state over and gets it back when
/// the batch dissolves.
///
/// Each of the six stages is one fused sweep: the sweep computing `k_s`
/// also assembles the stage input for `k_{s+1}` (the `m + Σ a·dt·k`
/// combination, accumulated in ascending order) in its fuse hook. Two
/// stage buffers ping-pong so a sweep never writes the buffer its field
/// evaluation reads. The embedded-error finish is its own block-parallel
/// reduction.
pub(crate) struct CashKarp45 {
    tolerance: f64,
    pub(super) suggested: Option<f64>,
    k: [FieldBatch; 6],
    stage_a: FieldBatch,
    stage_b: FieldBatch,
    y5: FieldBatch,
}

// Cash–Karp Butcher tableau.
const A: [[f64; 5]; 5] = [
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0],
    [3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0, 0.0, 0.0],
    [-11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0, 0.0],
    [
        1631.0 / 55296.0,
        175.0 / 512.0,
        575.0 / 13824.0,
        44275.0 / 110592.0,
        253.0 / 4096.0,
    ],
];
const C: [f64; 6] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 3.0 / 5.0, 1.0, 7.0 / 8.0];
const B5: [f64; 6] = [
    37.0 / 378.0,
    0.0,
    250.0 / 621.0,
    125.0 / 594.0,
    0.0,
    512.0 / 1771.0,
];
const B4: [f64; 6] = [
    2825.0 / 27648.0,
    0.0,
    18575.0 / 48384.0,
    13525.0 / 55296.0,
    277.0 / 14336.0,
    1.0 / 4.0,
];

impl CashKarp45 {
    /// Stage buffers for `k` members of `cells` cells, with the given
    /// absolute per-step tolerance on the unit magnetization.
    pub(crate) fn new(cells: usize, k: usize, tolerance: f64) -> Self {
        CashKarp45 {
            tolerance: tolerance.max(1e-14),
            suggested: None,
            k: std::array::from_fn(|_| FieldBatch::zeros(cells, k)),
            stage_a: FieldBatch::zeros(cells, k),
            stage_b: FieldBatch::zeros(cells, k),
            y5: FieldBatch::zeros(cells, k),
        }
    }

    /// Evaluates the six stages and returns the max-norm error estimate.
    ///
    /// The per-block error maxima are folded in block order; `f64::max`
    /// over disjoint index sets is exact, so the estimate (and therefore
    /// the step-size control path) is identical for any thread count.
    fn attempt(&mut self, st: &mut Stages<'_>, t: f64, dt: f64, m: &FieldBatch) -> f64 {
        let m_r = m.read_ptr();
        // Unchecked read views of every k buffer, taken once: stage `s`
        // writes k[s] and its fuse hook reads only k[0..s], so the fused
        // inner loop stays branch-free and nothing is collected per stage.
        let k_r: [Field3Read; 6] = std::array::from_fn(|j| self.k[j].read_ptr());
        for s in 0..6 {
            let (y, out): (&FieldBatch, _) = match s {
                0 => (m, self.stage_a.ptrs()),
                _ if s % 2 == 1 => (&self.stage_a, self.stage_b.ptrs()),
                _ => (&self.stage_b, self.stage_a.ptrs()),
            };
            let head_r = &k_r[..s];
            let ts = if s == 0 { t } else { t + C[s] * dt };
            // Safety (all unchecked reads below): each block fuses a
            // disjoint index set, `i` is in bounds for every buffer, and
            // the buffers behind `m_r`/`head_r` are not mutated during
            // the sweep.
            st.eval(y, ts, &mut self.k[s], |i0, i1, k| {
                if s == 5 {
                    return;
                }
                for i in i0..i1 {
                    let mut acc = unsafe { m_r.get(i) };
                    for (jj, kb) in head_r.iter().enumerate() {
                        acc += unsafe { kb.get(i) } * (A[s][jj] * dt);
                    }
                    acc += unsafe { k.read(i) } * (A[s][s] * dt);
                    // Safety: the sweep's field evaluation never reads
                    // `out`.
                    unsafe { out.write(i, acc) };
                }
            });
        }
        let total = m.cells() * m.k();
        let team = st.team();
        let nb = team.threads().max(1);
        let k = &self.k;
        let md = m.data();
        let out = self.y5.ptrs();
        team.fold_blocks(
            0.0,
            |b| {
                let (start, end) = chunk_bounds(total, nb, b);
                let mut err: f64 = 0.0;
                for i in start..end {
                    let mut y5 = md.get(i);
                    let mut y4 = md.get(i);
                    for (s, kb) in k.iter().enumerate() {
                        let ks = kb.data().get(i);
                        y5 += ks * (B5[s] * dt);
                        y4 += ks * (B4[s] * dt);
                    }
                    // Safety: chunk ranges are disjoint across blocks.
                    unsafe { out.write(i, y5) };
                    err = err.max((y5 - y4).norm());
                }
                err
            },
            f64::max,
        )
    }

    pub(super) fn step(
        &mut self,
        st: &mut Stages<'_>,
        t: f64,
        dt: f64,
        m: &mut FieldBatch,
    ) -> Result<f64, MagnumError> {
        let mut h = self.suggested.map_or(dt, |s| s.min(dt));
        let min_step = dt * 1e-6;
        loop {
            let err = self.attempt(st, t, h, m);
            if !err.is_finite() {
                // Retry with a much smaller step before giving up.
                h *= 0.1;
                if h < min_step {
                    return Err(MagnumError::Diverged { time: t });
                }
                continue;
            }
            if err <= self.tolerance {
                m.data_mut().copy_from(self.y5.data());
                st.renormalize(m, t + h)?;
                // Controller: grow conservatively, cap at the hint `dt`.
                let factor = if err == 0.0 {
                    5.0
                } else {
                    (0.9 * (self.tolerance / err).powf(0.2)).clamp(0.2, 5.0)
                };
                self.suggested = Some((h * factor).min(dt));
                return Ok(h);
            }
            let factor = (0.9 * (self.tolerance / err).powf(0.25)).clamp(0.1, 0.9);
            h *= factor;
            if h < min_step {
                return Err(MagnumError::StepSizeUnderflow { time: t });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::solver::test_support::{macrospin, macrospin_analytic, macrospin_stepper, step};
    use crate::solver::IntegratorKind;

    fn cash_karp(tolerance: f64) -> IntegratorKind {
        IntegratorKind::CashKarp45 { tolerance }
    }

    #[test]
    fn meets_tolerance_on_macrospin() {
        let alpha = 0.1;
        let h0 = 1e5;
        let t_end = 100e-12;
        let mut sys = macrospin(alpha, h0);
        let (mut integ, mut m) = macrospin_stepper(cash_karp(1e-10), &sys);
        let mut t = 0.0;
        while t < t_end - 1e-18 {
            let taken = step(&mut integ, &mut sys, t, (t_end - t).min(1e-12), &mut m).unwrap();
            t += taken;
        }
        let expected = macrospin_analytic(alpha, h0, t_end);
        assert!(
            (m.get(0, 0) - expected).norm() < 1e-6,
            "adaptive error {}",
            (m.get(0, 0) - expected).norm()
        );
    }

    #[test]
    fn shrinks_step_when_tolerance_is_tight() {
        let mut sys = macrospin(0.1, 1e6);
        let (mut integ, mut m) = macrospin_stepper(cash_karp(1e-12), &sys);
        let taken = step(&mut integ, &mut sys, 0.0, 1e-11, &mut m).unwrap();
        assert!(taken <= 1e-11);
        assert!(integ.suggested_dt().is_some());
    }

    #[test]
    fn loose_tolerance_accepts_the_hint() {
        let mut sys = macrospin(0.1, 1e4);
        let (mut integ, mut m) = macrospin_stepper(cash_karp(1e-3), &sys);
        let taken = step(&mut integ, &mut sys, 0.0, 1e-14, &mut m).unwrap();
        assert_eq!(taken, 1e-14);
    }

    #[test]
    fn suggestion_never_exceeds_hint() {
        let mut sys = macrospin(0.05, 1e5);
        let (mut integ, mut m) = macrospin_stepper(cash_karp(1e-6), &sys);
        for i in 0..50 {
            step(&mut integ, &mut sys, i as f64 * 1e-13, 1e-13, &mut m).unwrap();
            assert!(integ.suggested_dt().unwrap() <= 1e-13 + 1e-30);
        }
    }
}
