//! The gate types: triangle MAJ3 and XOR (the paper's contribution),
//! their derived (N)AND/(N)OR/XNOR variants, and the ladder baselines.

mod derived;
mod ladder;
mod maj3;
mod xor;

pub use derived::{AndGate, NandGate, NorGate, OrGate, XnorGate};
pub use ladder::LadderMaj3Gate;
pub use maj3::Maj3Gate;
pub use xor::XorGate;

use magnum::Complex64;

use crate::encoding::Bit;
use crate::layout::{TriangleMaj3Layout, TriangleXorLayout};
use crate::mumag::MumagBackend;
use crate::wavemodel::AnalyticBackend;
use crate::SwGateError;

/// A backend capable of producing the raw complex output amplitudes of
/// the triangle gates. Implemented by [`AnalyticBackend`] (microseconds)
/// and [`MumagBackend`] (full LLG simulation).
pub trait GateBackend {
    /// Raw `(O1, O2)` phasors of the triangle MAJ3 gate.
    ///
    /// # Errors
    ///
    /// Backend-specific failures as [`SwGateError`].
    fn maj3(
        &self,
        layout: &TriangleMaj3Layout,
        inputs: [Bit; 3],
    ) -> Result<(Complex64, Complex64), SwGateError>;

    /// Raw `(O1, O2)` phasors of the triangle XOR gate.
    ///
    /// # Errors
    ///
    /// Backend-specific failures as [`SwGateError`].
    fn xor(
        &self,
        layout: &TriangleXorLayout,
        inputs: [Bit; 2],
    ) -> Result<(Complex64, Complex64), SwGateError>;
}

impl GateBackend for AnalyticBackend {
    fn maj3(
        &self,
        layout: &TriangleMaj3Layout,
        inputs: [Bit; 3],
    ) -> Result<(Complex64, Complex64), SwGateError> {
        Ok(self.maj3_outputs(layout, inputs))
    }

    fn xor(
        &self,
        layout: &TriangleXorLayout,
        inputs: [Bit; 2],
    ) -> Result<(Complex64, Complex64), SwGateError> {
        Ok(self.xor_outputs(layout, inputs))
    }
}

impl GateBackend for MumagBackend {
    fn maj3(
        &self,
        layout: &TriangleMaj3Layout,
        inputs: [Bit; 3],
    ) -> Result<(Complex64, Complex64), SwGateError> {
        self.outputs(layout, inputs)
    }

    fn xor(
        &self,
        layout: &TriangleXorLayout,
        inputs: [Bit; 2],
    ) -> Result<(Complex64, Complex64), SwGateError> {
        self.outputs(layout, inputs)
    }
}

/// One decoded gate output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputSignal {
    /// Raw complex amplitude as reported by the backend.
    pub raw: Complex64,
    /// Amplitude normalized to the all-zeros reference case (the
    /// quantity tabulated in the paper's Tables I and II).
    pub normalized: f64,
    /// Phase relative to the all-zeros reference, wrapped to (−π, π].
    pub phase: f64,
    /// The decoded logic value.
    pub bit: Bit,
}

/// The two decoded outputs of a fan-out-of-2 gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateOutputs {
    /// Output O1.
    pub o1: OutputSignal,
    /// Output O2.
    pub o2: OutputSignal,
}

impl GateOutputs {
    /// Both decoded bits as a pair.
    pub fn bits(&self) -> (Bit, Bit) {
        (self.o1.bit, self.o2.bit)
    }

    /// True if both outputs decode to the same value — the functional
    /// statement of "fan-out of 2 achieved".
    pub fn fanout_consistent(&self) -> bool {
        self.o1.bit == self.o2.bit
    }

    /// Largest relative difference between the two outputs' normalized
    /// amplitudes (0 for perfectly identical outputs).
    pub fn amplitude_mismatch(&self) -> f64 {
        let max = self.o1.normalized.max(self.o2.normalized);
        if max == 0.0 {
            return 0.0;
        }
        (self.o1.normalized - self.o2.normalized).abs() / max
    }
}

/// Wraps a phase to (−π, π].
pub(crate) fn wrap_phase(phi: f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut p = phi % two_pi;
    if p > std::f64::consts::PI {
        p -= two_pi;
    } else if p <= -std::f64::consts::PI {
        p += two_pi;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_outputs_consistency_helpers() {
        let sig = |bit, normalized| OutputSignal {
            raw: Complex64::ONE,
            normalized,
            phase: 0.0,
            bit,
        };
        let same = GateOutputs {
            o1: sig(Bit::One, 1.0),
            o2: sig(Bit::One, 0.9),
        };
        assert!(same.fanout_consistent());
        assert!((same.amplitude_mismatch() - 0.1).abs() < 1e-12);
        let diff = GateOutputs {
            o1: sig(Bit::One, 1.0),
            o2: sig(Bit::Zero, 1.0),
        };
        assert!(!diff.fanout_consistent());
        assert_eq!(diff.bits(), (Bit::One, Bit::Zero));
    }

    #[test]
    fn zero_amplitudes_have_zero_mismatch() {
        let sig = OutputSignal {
            raw: Complex64::ZERO,
            normalized: 0.0,
            phase: 0.0,
            bit: Bit::Zero,
        };
        let out = GateOutputs { o1: sig, o2: sig };
        assert_eq!(out.amplitude_mismatch(), 0.0);
    }

    #[test]
    fn wrap_phase_range() {
        use std::f64::consts::PI;
        for &p in &[0.0, 1.0, -1.0, 3.5, -3.5, 7.0, 100.0] {
            let w = wrap_phase(p);
            assert!(w > -PI - 1e-12 && w <= PI + 1e-12);
        }
    }
}
