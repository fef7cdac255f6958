//! Parametric gate geometries and the paper's dimension rules.
//!
//! §III-A: "dimensions d1, d2 and d3 must be nλ" for the interference to
//! be constructive for in-phase waves (and `(n+½)λ` for the opposite
//! behaviour); d4 is `nλ` for a non-inverted output and `(n+½)λ` for an
//! inverted one. §IV-A fixes the paper's instance: λ = 55 nm, 50 nm wide
//! and 1 nm thick waveguides, d1 = 330 nm, d2 = 880 nm, d3 = 220 nm,
//! d4 = 55 nm for the MAJ3 gate and d1 = 330 nm, d2 = 40 nm for the XOR.
//!
//! ## Topology (reconstructed from Fig. 3/Fig. 5)
//!
//! The figures cannot be measured from the text alone, so this
//! reproduction fixes a concrete interference network that (a) realizes
//! the paper's two-stage description — "the excited SWs at I1 and I2
//! propagate ... where they interfere ... the resulting SWs propagate to
//! interfere at both interfering points with the SW excited at I3" —
//! (b) uses the published dimensions with every input path an integer
//! number of wavelengths, and (c) is built entirely from
//! mirror-symmetric Y-junctions, the configuration in which two
//! in-phase waves couple into the fundamental mode of the output guide
//! while anti-phase waves form the odd (cut-off) profile and scatter.
//! A junction must *combine before it splits*: a 4-way X would let each
//! wave continue ballistically into the arm collinear with its momentum
//! and destroy the interference contrast (we verified this
//! micromagnetically).
//!
//! ```text
//!  I1 ──d2──╲d1           ╱d1──C2L──[d4 stub]── O1
//!            ╲           ╱      ╲
//!             J ──d3──▶ S        ╲d1
//!            ╱           ╲        ╲
//!  I2 ──d1──╱             ╲d1──────S3 ◀──d2── I3
//!                          ╲      ╱
//!                           C2R──╱ (mirror of C2L; [d4 stub] → O2)
//! ```
//!
//! * `J` — symmetric combiner of I1 (d2 feed + d1 diagonal) and I2 (d1
//!   diagonal): the first interference point.
//! * `J → S` — the d3 trunk carrying the stage-1 result.
//! * `S` — symmetric splitter: two d1 arms fan the result out (this is
//!   what makes the gate FO2 "because of the structure symmetry").
//! * `S3` — I3's splitter: after its d2 feed, two d1 arms deliver
//!   identical copies of I3 to both second crossings.
//! * `C2L`, `C2R` — the two second interference points; d4 stubs feed
//!   the phase detectors.
//!
//! Total paths with the paper's §IV-A dimensions: I1 = d2+d1+d3+d1+d4 =
//! 33λ, I2 = d1+d3+d1+d4 = 17λ, I3 = d2+d1+d4 = 23λ — all integer
//! multiples, so same-phase inputs interfere constructively at both
//! outputs exactly as §III-A's design rule requires. The XOR (Fig. 4)
//! is the same construction with I3, S3 and the second crossings
//! removed: I1 and I2 (d1 diagonals) interfere at J, a short trunk and
//! two d1 arms fan the result out, and the d2 = 40 nm stubs feed the
//! threshold detectors ("the output must be detected as close as
//! possible from the last interference point").

use crate::SwGateError;

/// Relative tolerance used when checking the `n·λ` dimension rules.
const DIM_RULE_TOL: f64 = 1e-6;

/// Classification of a gate dimension against the λ rules of §III-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimensionRule {
    /// `d = n·λ` — constructive for in-phase waves / non-inverting.
    IntegerMultiple(u32),
    /// `d = (n+½)·λ` — destructive for in-phase waves / inverting.
    HalfIntegerMultiple(u32),
    /// Neither rule (allowed only for the XOR output stub, where only
    /// amplitude matters).
    Unconstrained,
}

impl DimensionRule {
    /// Classifies `d` against wavelength `lambda`.
    pub fn classify(d: f64, lambda: f64) -> DimensionRule {
        let q = d / lambda;
        let nearest_int = q.round();
        if (q - nearest_int).abs() < DIM_RULE_TOL.max(1e-9 * q.abs()) && nearest_int >= 0.0 {
            return DimensionRule::IntegerMultiple(nearest_int as u32);
        }
        let half = q - 0.5;
        let nearest_half = half.round();
        if (half - nearest_half).abs() < DIM_RULE_TOL.max(1e-9 * q.abs()) && nearest_half >= 0.0 {
            return DimensionRule::HalfIntegerMultiple(nearest_half as u32);
        }
        DimensionRule::Unconstrained
    }

    /// True for `n·λ`.
    pub fn is_integer(self) -> bool {
        matches!(self, DimensionRule::IntegerMultiple(_))
    }

    /// True for `(n+½)·λ`.
    pub fn is_half_integer(self) -> bool {
        matches!(self, DimensionRule::HalfIntegerMultiple(_))
    }
}

/// Geometry of the triangle fan-out-of-2 MAJ3 gate (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriangleMaj3Layout {
    wavelength: f64,
    width: f64,
    d1: f64,
    d2: f64,
    d3: f64,
    d4: f64,
}

impl TriangleMaj3Layout {
    /// The paper's §IV-A instance: λ = 55 nm, w = 50 nm, d1 = 330 nm,
    /// d2 = 880 nm, d3 = 220 nm, d4 = 55 nm.
    pub fn paper() -> Self {
        TriangleMaj3Layout {
            wavelength: 55e-9,
            width: 50e-9,
            d1: 330e-9,
            d2: 880e-9,
            d3: 220e-9,
            d4: 55e-9,
        }
    }

    /// The shrunken instance the `--fast` micromagnetic runs use:
    /// λ = 55 nm, w = 50 nm, d1 = 2λ, d2 = 3λ, d3 = 4λ, d4 = λ.
    pub fn fast() -> Self {
        TriangleMaj3Layout::from_multiples(55e-9, 50e-9, 2, 3, 4, 1)
            .expect("the fast MAJ3 layout is valid")
    }

    /// Builds a layout from explicit dimensions, validating the §III-A
    /// design rules.
    ///
    /// # Errors
    ///
    /// Returns [`SwGateError::InvalidLayout`] if the width exceeds λ, any
    /// dimension is non-positive, or d1/d2/d3 are not integer multiples
    /// of λ while d4 is neither `n·λ` nor `(n+½)·λ`.
    pub fn new(
        wavelength: f64,
        width: f64,
        d1: f64,
        d2: f64,
        d3: f64,
        d4: f64,
    ) -> Result<Self, SwGateError> {
        validate_common(wavelength, width)?;
        for (name, d) in [("d1", d1), ("d2", d2), ("d3", d3), ("d4", d4)] {
            if !(d.is_finite() && d > 0.0) {
                return Err(SwGateError::InvalidLayout {
                    reason: format!("{name} must be positive, got {d}"),
                });
            }
        }
        for (name, d) in [("d1", d1), ("d2", d2), ("d3", d3)] {
            if !DimensionRule::classify(d, wavelength).is_integer() {
                return Err(SwGateError::InvalidLayout {
                    reason: format!(
                        "{name} = {d:e} must be an integer multiple of λ = {wavelength:e} (§III-A)"
                    ),
                });
            }
        }
        if matches!(
            DimensionRule::classify(d4, wavelength),
            DimensionRule::Unconstrained
        ) {
            return Err(SwGateError::InvalidLayout {
                reason: format!("d4 = {d4:e} must be n·λ (non-inverting) or (n+½)·λ (inverting)"),
            });
        }
        Ok(TriangleMaj3Layout {
            wavelength,
            width,
            d1,
            d2,
            d3,
            d4,
        })
    }

    /// Builds a layout from integer λ-multiples (`d_i = n_i · λ`),
    /// guaranteeing rule compliance by construction. Useful for scaled-
    /// down micromagnetic test gates.
    ///
    /// # Errors
    ///
    /// Returns [`SwGateError::InvalidLayout`] if any multiple is zero or
    /// the width exceeds λ.
    pub fn from_multiples(
        wavelength: f64,
        width: f64,
        n1: u32,
        n2: u32,
        n3: u32,
        n4: u32,
    ) -> Result<Self, SwGateError> {
        if n1 == 0 || n2 == 0 || n3 == 0 || n4 == 0 {
            return Err(SwGateError::InvalidLayout {
                reason: "dimension multiples must be at least 1".into(),
            });
        }
        TriangleMaj3Layout::new(
            wavelength,
            width,
            n1 as f64 * wavelength,
            n2 as f64 * wavelength,
            n3 as f64 * wavelength,
            n4 as f64 * wavelength,
        )
    }

    /// Spin-wave wavelength λ in metres.
    pub fn wavelength(&self) -> f64 {
        self.wavelength
    }

    /// Waveguide width in metres.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Input diagonal length d1 (m).
    pub fn d1(&self) -> f64 {
        self.d1
    }

    /// Horizontal feed length d2 (m).
    pub fn d2(&self) -> f64 {
        self.d2
    }

    /// First-crossing-to-second-crossing arm length d3 (m).
    pub fn d3(&self) -> f64 {
        self.d3
    }

    /// Output stub length d4 (m).
    pub fn d4(&self) -> f64 {
        self.d4
    }

    /// Whether the outputs are logically inverted (d4 = (n+½)·λ).
    pub fn inverting_output(&self) -> bool {
        DimensionRule::classify(self.d4, self.wavelength).is_half_integer()
    }

    /// Total waveguide path from I1 to either output:
    /// `d2 + d1 + d3 + d1 + d4` (feed, diagonal, trunk, fan-out arm,
    /// stub) — 33λ for the paper's dimensions.
    pub fn path_i1(&self) -> f64 {
        self.d2 + self.d1 + self.d3 + self.d1 + self.d4
    }

    /// Total waveguide path from I2 to either output:
    /// `d1 + d3 + d1 + d4` — 17λ for the paper's dimensions.
    pub fn path_i2(&self) -> f64 {
        self.d1 + self.d3 + self.d1 + self.d4
    }

    /// Total waveguide path from I3 to either output: `d2 + d1 + d4` —
    /// 23λ for the paper's dimensions.
    pub fn path_i3(&self) -> f64 {
        self.d2 + self.d1 + self.d4
    }

    /// Distance from each input to its **first** interference point:
    /// (I1 → J, I2 → J, I3 → C2).
    pub fn paths_to_first_junction(&self) -> [f64; 3] {
        [self.d2 + self.d1, self.d1, self.d2 + self.d1]
    }
}

/// Geometry of the triangle fan-out-of-2 XOR gate (Fig. 4): the MAJ3
/// structure with the third input removed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriangleXorLayout {
    wavelength: f64,
    width: f64,
    d1: f64,
    d2: f64,
}

impl TriangleXorLayout {
    /// The paper's §IV-A instance: λ = 55 nm, w = 50 nm, d1 = 330 nm,
    /// d2 = 40 nm.
    pub fn paper() -> Self {
        TriangleXorLayout {
            wavelength: 55e-9,
            width: 50e-9,
            d1: 330e-9,
            d2: 40e-9,
        }
    }

    /// The shrunken instance the `--fast` micromagnetic runs use:
    /// λ = 55 nm, w = 50 nm, d1 = 110 nm, d2 = 40 nm.
    pub fn fast() -> Self {
        TriangleXorLayout::new(55e-9, 50e-9, 110e-9, 40e-9).expect("the fast XOR layout is valid")
    }

    /// Builds an XOR layout: d1 must be an integer multiple of λ; d2 (the
    /// output stub) is unconstrained but "as small as possible" (§III-B)
    /// — a warning-level rule we enforce softly as d2 < 2λ.
    ///
    /// # Errors
    ///
    /// Returns [`SwGateError::InvalidLayout`] on violations.
    pub fn new(wavelength: f64, width: f64, d1: f64, d2: f64) -> Result<Self, SwGateError> {
        validate_common(wavelength, width)?;
        if !(d1.is_finite() && d1 > 0.0 && d2.is_finite() && d2 > 0.0) {
            return Err(SwGateError::InvalidLayout {
                reason: format!("dimensions must be positive, got d1 = {d1}, d2 = {d2}"),
            });
        }
        if !DimensionRule::classify(d1, wavelength).is_integer() {
            return Err(SwGateError::InvalidLayout {
                reason: format!("d1 = {d1:e} must be an integer multiple of λ = {wavelength:e}"),
            });
        }
        if d2 >= 2.0 * wavelength {
            return Err(SwGateError::InvalidLayout {
                reason: format!(
                    "d2 = {d2:e} defeats threshold detection; §III-B requires it as small \
                     as possible (< 2λ here)"
                ),
            });
        }
        Ok(TriangleXorLayout {
            wavelength,
            width,
            d1,
            d2,
        })
    }

    /// Spin-wave wavelength λ in metres.
    pub fn wavelength(&self) -> f64 {
        self.wavelength
    }

    /// Waveguide width in metres.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Diagonal arm length d1 (m) — used for both input feeds and both
    /// fan-out arms.
    pub fn d1(&self) -> f64 {
        self.d1
    }

    /// Output stub length d2 (m).
    pub fn d2(&self) -> f64 {
        self.d2
    }

    /// Length of the short trunk between the combiner J and the fan-out
    /// splitter S. The paper gives no explicit value; four wavelengths
    /// gives the residual antisymmetric junction field room to decay
    /// before the split while preserving the `n·λ` phase rule.
    pub fn trunk(&self) -> f64 {
        4.0 * self.wavelength
    }

    /// Total path from either input to either output:
    /// `d1 + trunk + d1 + d2`.
    pub fn path_length(&self) -> f64 {
        2.0 * self.d1 + self.trunk() + self.d2
    }
}

/// Geometry of the ladder-shaped 2-output gate of the prior art
/// (\[22\], \[23\]) used as the energy baseline in Table III.
///
/// The ladder achieves fan-out by **replicating one input**: I1 is
/// excited twice (an extra transducer), each copy feeding one output
/// rail; I2 and I3 sit on the rungs. Total transducers: 4 excitation +
/// 2 detection = 6, versus the triangle's 3 + 2 = 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderLayout {
    wavelength: f64,
    width: f64,
    /// Rail segment length between rungs (n·λ).
    rail: f64,
    /// Rung length (n·λ).
    rung: f64,
    /// Whether the gate carries 3 logic inputs (MAJ) or 2 (XOR).
    inputs: usize,
}

impl LadderLayout {
    /// A paper-comparable MAJ3 ladder: λ = 55 nm, w = 50 nm, rails and
    /// rungs of 6λ and 4λ.
    pub fn paper_maj3() -> Self {
        LadderLayout {
            wavelength: 55e-9,
            width: 50e-9,
            rail: 6.0 * 55e-9,
            rung: 4.0 * 55e-9,
            inputs: 3,
        }
    }

    /// A paper-comparable XOR ladder (2 logic inputs, one replicated).
    pub fn paper_xor() -> Self {
        LadderLayout {
            inputs: 2,
            ..LadderLayout::paper_maj3()
        }
    }

    /// Builds a ladder with explicit rail/rung lengths.
    ///
    /// # Errors
    ///
    /// Returns [`SwGateError::InvalidLayout`] unless rails and rungs are
    /// integer multiples of λ, width ≤ λ and `inputs` is 2 or 3.
    pub fn new(
        wavelength: f64,
        width: f64,
        rail: f64,
        rung: f64,
        inputs: usize,
    ) -> Result<Self, SwGateError> {
        validate_common(wavelength, width)?;
        if !(2..=3).contains(&inputs) {
            return Err(SwGateError::InvalidLayout {
                reason: format!("ladder gates carry 2 or 3 logic inputs, got {inputs}"),
            });
        }
        for (name, d) in [("rail", rail), ("rung", rung)] {
            if !DimensionRule::classify(d, wavelength).is_integer() {
                return Err(SwGateError::InvalidLayout {
                    reason: format!("{name} = {d:e} must be an integer multiple of λ"),
                });
            }
        }
        Ok(LadderLayout {
            wavelength,
            width,
            rail,
            rung,
            inputs,
        })
    }

    /// Spin-wave wavelength λ in metres.
    pub fn wavelength(&self) -> f64 {
        self.wavelength
    }

    /// Waveguide width in metres.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Rail segment length (m).
    pub fn rail(&self) -> f64 {
        self.rail
    }

    /// Rung length (m).
    pub fn rung(&self) -> f64 {
        self.rung
    }

    /// Number of *logic* inputs (2 or 3).
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of excitation transducers.
    ///
    /// Table III of the paper credits the ladder gates of \[23\] with 6
    /// cells and 13.7 aJ for *both* MAJ and XOR — i.e. 4 excitation cells
    /// (4 × 3.44 aJ) plus 2 detection cells. For the MAJ that is the 3
    /// logic inputs plus the replicated input that enables the fan-out;
    /// the \[23\] XOR is the same programmable structure with a fixed
    /// control input, so it also drives 4 transducers.
    pub fn excitation_cells(&self) -> usize {
        4
    }

    /// Number of detection transducers (always 2: fan-out of 2).
    pub fn detection_cells(&self) -> usize {
        2
    }
}

fn validate_common(wavelength: f64, width: f64) -> Result<(), SwGateError> {
    if !(wavelength.is_finite() && wavelength > 0.0) {
        return Err(SwGateError::InvalidLayout {
            reason: format!("wavelength must be positive, got {wavelength}"),
        });
    }
    if !(width.is_finite() && width > 0.0) {
        return Err(SwGateError::InvalidLayout {
            reason: format!("width must be positive, got {width}"),
        });
    }
    if width > wavelength {
        return Err(SwGateError::InvalidLayout {
            reason: format!(
                "waveguide width {width:e} must not exceed λ = {wavelength:e} for clear \
                 interference patterns (§III-A)"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_rule_classification() {
        let l = 55e-9;
        assert_eq!(
            DimensionRule::classify(330e-9, l),
            DimensionRule::IntegerMultiple(6)
        );
        assert_eq!(
            DimensionRule::classify(880e-9, l),
            DimensionRule::IntegerMultiple(16)
        );
        assert_eq!(
            DimensionRule::classify(220e-9, l),
            DimensionRule::IntegerMultiple(4)
        );
        assert_eq!(
            DimensionRule::classify(55e-9, l),
            DimensionRule::IntegerMultiple(1)
        );
        assert_eq!(
            DimensionRule::classify(82.5e-9, l),
            DimensionRule::HalfIntegerMultiple(1)
        );
        assert_eq!(
            DimensionRule::classify(40e-9, l),
            DimensionRule::Unconstrained
        );
    }

    #[test]
    fn paper_maj3_layout_is_valid_and_matches_section_iv_a() {
        let layout = TriangleMaj3Layout::paper();
        assert_eq!(layout.wavelength(), 55e-9);
        assert_eq!(layout.width(), 50e-9);
        assert_eq!(layout.d1(), 330e-9);
        assert_eq!(layout.d2(), 880e-9);
        assert_eq!(layout.d3(), 220e-9);
        assert_eq!(layout.d4(), 55e-9);
        // Round-trip through the validating constructor.
        TriangleMaj3Layout::new(55e-9, 50e-9, 330e-9, 880e-9, 220e-9, 55e-9).unwrap();
    }

    #[test]
    fn paper_paths_are_integer_wavelength_multiples() {
        let layout = TriangleMaj3Layout::paper();
        let l = layout.wavelength();
        for (path, expected_n) in [
            (layout.path_i1(), 33.0),
            (layout.path_i2(), 17.0),
            (layout.path_i3(), 23.0),
        ] {
            let n = path / l;
            assert!(
                (n - expected_n).abs() < 1e-9,
                "path {path:e} is {n}λ, expected {expected_n}λ"
            );
        }
    }

    #[test]
    fn paper_maj3_is_non_inverting() {
        assert!(!TriangleMaj3Layout::paper().inverting_output());
    }

    #[test]
    fn half_integer_d4_is_inverting() {
        let layout =
            TriangleMaj3Layout::new(55e-9, 50e-9, 330e-9, 880e-9, 220e-9, 82.5e-9).unwrap();
        assert!(layout.inverting_output());
    }

    #[test]
    fn rejects_rule_breaking_dimensions() {
        // d1 not a multiple of λ.
        assert!(TriangleMaj3Layout::new(55e-9, 50e-9, 300e-9, 880e-9, 220e-9, 55e-9).is_err());
        // d4 neither integer nor half-integer.
        assert!(TriangleMaj3Layout::new(55e-9, 50e-9, 330e-9, 880e-9, 220e-9, 40e-9).is_err());
        // Width wider than λ.
        assert!(TriangleMaj3Layout::new(55e-9, 60e-9, 330e-9, 880e-9, 220e-9, 55e-9).is_err());
        // Negative dimension.
        assert!(TriangleMaj3Layout::new(55e-9, 50e-9, -330e-9, 880e-9, 220e-9, 55e-9).is_err());
    }

    #[test]
    fn from_multiples_builds_scaled_gates() {
        let small = TriangleMaj3Layout::from_multiples(55e-9, 50e-9, 2, 3, 2, 1).unwrap();
        assert_eq!(small.d1(), 110e-9);
        assert_eq!(small.d2(), 165e-9);
        assert!(!small.inverting_output());
        assert!(TriangleMaj3Layout::from_multiples(55e-9, 50e-9, 0, 3, 2, 1).is_err());
    }

    #[test]
    fn paper_xor_layout() {
        let layout = TriangleXorLayout::paper();
        assert_eq!(layout.d1(), 330e-9);
        assert_eq!(layout.d2(), 40e-9);
        assert_eq!(layout.trunk(), 220e-9);
        assert!((layout.path_length() - 920e-9).abs() < 1e-15);
        TriangleXorLayout::new(55e-9, 50e-9, 330e-9, 40e-9).unwrap();
    }

    #[test]
    fn xor_rejects_long_stub_and_bad_d1() {
        assert!(TriangleXorLayout::new(55e-9, 50e-9, 330e-9, 150e-9).is_err());
        assert!(TriangleXorLayout::new(55e-9, 50e-9, 300e-9, 40e-9).is_err());
    }

    #[test]
    fn ladder_transducer_counts_match_the_prior_art() {
        // [23]: 6 cells for MAJ (4 excitation + 2 detection).
        let maj = LadderLayout::paper_maj3();
        assert_eq!(maj.excitation_cells(), 4);
        assert_eq!(maj.detection_cells(), 2);
        assert_eq!(maj.excitation_cells() + maj.detection_cells(), 6);
        // XOR ladder ([23]'s programmable gate): also 4 excitation cells,
        // hence the identical 13.7 aJ energy in Table III.
        let xor = LadderLayout::paper_xor();
        assert_eq!(xor.excitation_cells(), 4);
        assert_eq!(xor.excitation_cells() + xor.detection_cells(), 6);
    }

    #[test]
    fn ladder_validates_inputs_and_rules() {
        assert!(LadderLayout::new(55e-9, 50e-9, 330e-9, 220e-9, 4).is_err());
        assert!(LadderLayout::new(55e-9, 50e-9, 300e-9, 220e-9, 3).is_err());
        assert!(LadderLayout::new(55e-9, 50e-9, 330e-9, 220e-9, 3).is_ok());
    }
}
