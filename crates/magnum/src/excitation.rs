//! Spin-wave excitation antennas.
//!
//! An [`Antenna`] models the field footprint of a transducer (microstrip
//! antenna, magnetoelectric cell, spin-orbit-torque line — §III-A lists
//! the options): a localized region where a time-dependent magnetic field
//! drives the magnetization. Phase-encoded logic inputs are realized by
//! driving with phase 0 (logic 0) or π (logic 1), exactly as in the
//! paper's §III-A step (i).

use crate::field3::Field3;
use crate::math::Vec3;
use crate::mesh::Mesh;

/// Time-dependent drive waveform of an antenna.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// Continuous sinusoid `A·sin(2πft + φ)`, optionally soft-started
    /// over `ramp` seconds to avoid broadband transients.
    ContinuousWave {
        /// Peak field amplitude in A/m.
        amplitude: f64,
        /// Frequency in Hz.
        frequency: f64,
        /// Phase offset in radians (0 encodes logic 0, π logic 1).
        phase: f64,
        /// Soft-start duration in seconds (0 for a hard start).
        ramp: f64,
    },
    /// Finite burst: the continuous wave gated to `[start, start + duration]`
    /// with raised-cosine edges of length `ramp` inside the window.
    Burst {
        /// Peak field amplitude in A/m.
        amplitude: f64,
        /// Frequency in Hz.
        frequency: f64,
        /// Phase offset in radians.
        phase: f64,
        /// Burst start time in seconds.
        start: f64,
        /// Burst duration in seconds.
        duration: f64,
        /// Edge ramp time in seconds.
        ramp: f64,
    },
    /// Broadband `A·sinc(2π·f_c·(t − t₀))` pulse for dispersion
    /// spectroscopy (uniform spectral density up to `cutoff`).
    Sinc {
        /// Peak field amplitude in A/m.
        amplitude: f64,
        /// Spectral cutoff frequency in Hz.
        cutoff: f64,
        /// Pulse centre time in seconds.
        center: f64,
    },
}

impl Drive {
    /// Convenience constructor for the gate drive used throughout the
    /// paper: a continuous wave with a quarter-period soft start.
    pub fn logic_cw(amplitude: f64, frequency: f64, phase: f64) -> Drive {
        Drive::ContinuousWave {
            amplitude,
            frequency,
            phase,
            ramp: 0.25 / frequency,
        }
    }

    /// Instantaneous scalar field value at time `t` (seconds), in A/m.
    pub fn value(&self, t: f64) -> f64 {
        match *self {
            Drive::ContinuousWave {
                amplitude,
                frequency,
                phase,
                ramp,
            } => {
                if t < 0.0 {
                    return 0.0;
                }
                let envelope = if ramp > 0.0 && t < ramp {
                    let x = t / ramp;
                    0.5 * (1.0 - (std::f64::consts::PI * x).cos())
                } else {
                    1.0
                };
                envelope * amplitude * (2.0 * std::f64::consts::PI * frequency * t + phase).sin()
            }
            Drive::Burst {
                amplitude,
                frequency,
                phase,
                start,
                duration,
                ramp,
            } => {
                let tau = t - start;
                if tau < 0.0 || tau > duration {
                    return 0.0;
                }
                let envelope = if ramp > 0.0 && tau < ramp {
                    let x = tau / ramp;
                    0.5 * (1.0 - (std::f64::consts::PI * x).cos())
                } else if ramp > 0.0 && tau > duration - ramp {
                    let x = (duration - tau) / ramp;
                    0.5 * (1.0 - (std::f64::consts::PI * x).cos())
                } else {
                    1.0
                };
                envelope * amplitude * (2.0 * std::f64::consts::PI * frequency * t + phase).sin()
            }
            Drive::Sinc {
                amplitude,
                cutoff,
                center,
            } => {
                let x = 2.0 * std::f64::consts::PI * cutoff * (t - center);
                if x.abs() < 1e-12 {
                    amplitude
                } else {
                    amplitude * x.sin() / x
                }
            }
        }
    }
}

/// A localized excitation region with a drive waveform and field axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Antenna {
    cells: Vec<usize>,
    direction: Vec3,
    drive: Drive,
}

impl Antenna {
    /// Creates an antenna over explicit flattened cell indices.
    ///
    /// The drive field points along `direction` (normalized internally);
    /// for forward-volume waves with m ∥ ẑ an in-plane axis (x̂ or ŷ) is
    /// the natural choice, matching a microstrip's Oersted field.
    pub fn new(cells: Vec<usize>, direction: Vec3, drive: Drive) -> Self {
        Antenna {
            cells,
            direction: direction.normalized(),
            drive,
        }
    }

    /// Creates an antenna covering every magnetic cell whose centre lies
    /// within the rectangle `[x0, x1] × [y0, y1]` (metres).
    pub fn over_rect(
        mesh: &Mesh,
        x0: f64,
        y0: f64,
        x1: f64,
        y1: f64,
        direction: Vec3,
        drive: Drive,
    ) -> Self {
        let mut cells = Vec::new();
        for (ix, iy) in mesh.magnetic_cells() {
            let (x, y) = mesh.cell_center(ix, iy);
            if x >= x0 && x <= x1 && y >= y0 && y <= y1 {
                cells.push(mesh.linear_index(ix, iy));
            }
        }
        Antenna::new(cells, direction, drive)
    }

    /// The flattened indices of driven cells.
    pub fn cells(&self) -> &[usize] {
        &self.cells
    }

    /// The (normalized) field axis.
    pub fn direction(&self) -> Vec3 {
        self.direction
    }

    /// The drive waveform.
    pub fn drive(&self) -> &Drive {
        &self.drive
    }

    /// Adds the antenna field at time `t` into the field planes.
    pub fn accumulate(&self, t: f64, h: &mut Field3) {
        let v = self.drive.value(t);
        if v == 0.0 {
            return;
        }
        let field = self.direction * v;
        for &c in &self.cells {
            h.add(c, field);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn cw_respects_phase_encoding() {
        let f = 10e9;
        let d0 = Drive::ContinuousWave {
            amplitude: 1.0,
            frequency: f,
            phase: 0.0,
            ramp: 0.0,
        };
        let d1 = Drive::ContinuousWave {
            amplitude: 1.0,
            frequency: f,
            phase: PI,
            ramp: 0.0,
        };
        // A π phase shift inverts the waveform.
        for i in 1..20 {
            let t = i as f64 * 7.3e-12;
            assert!((d0.value(t) + d1.value(t)).abs() < 1e-9);
        }
    }

    #[test]
    fn cw_ramp_starts_at_zero_and_reaches_full_amplitude() {
        let f = 10e9;
        let ramp = 0.25 / f;
        let d = Drive::logic_cw(2.0, f, PI / 2.0);
        assert_eq!(d.value(-1e-12), 0.0);
        assert!(d.value(0.0).abs() < 1e-9, "soft start must begin at zero");
        // Well past the ramp, peak amplitude is reached: sample a period.
        let mut peak: f64 = 0.0;
        for i in 0..1000 {
            let t = 10.0 * ramp + i as f64 * 1e-13;
            peak = peak.max(d.value(t).abs());
        }
        assert!((peak - 2.0).abs() < 1e-2, "peak = {peak}");
    }

    #[test]
    fn burst_is_silent_outside_window() {
        let d = Drive::Burst {
            amplitude: 1.0,
            frequency: 10e9,
            phase: 0.0,
            start: 1e-9,
            duration: 100e-12,
            ramp: 10e-12,
        };
        assert_eq!(d.value(0.5e-9), 0.0);
        assert_eq!(d.value(1.2e-9), 0.0);
        let mut nonzero = false;
        for i in 0..100 {
            if d.value(1e-9 + i as f64 * 1e-12).abs() > 1e-3 {
                nonzero = true;
                break;
            }
        }
        assert!(nonzero, "burst must be active inside its window");
    }

    #[test]
    fn sinc_peaks_at_center() {
        let d = Drive::Sinc {
            amplitude: 3.0,
            cutoff: 20e9,
            center: 1e-10,
        };
        assert!((d.value(1e-10) - 3.0).abs() < 1e-9);
        assert!(d.value(0.0).abs() < 3.0);
    }

    #[test]
    fn antenna_drives_only_its_cells() {
        let _mesh = Mesh::new(8, 1, [5e-9, 5e-9, 1e-9]).unwrap();
        let ant = Antenna::new(
            vec![2, 3],
            Vec3::X,
            Drive::ContinuousWave {
                amplitude: 1.0,
                frequency: 10e9,
                phase: PI / 2.0,
                ramp: 0.0,
            },
        );
        let mut h = Field3::zeros(8);
        ant.accumulate(0.0, &mut h); // sin(φ=π/2) = 1 at t=0
        assert!((h.get(2).x - 1.0).abs() < 1e-12);
        assert!((h.get(3).x - 1.0).abs() < 1e-12);
        assert_eq!(h.get(0), Vec3::ZERO);
        assert_eq!(h.get(4), Vec3::ZERO);
    }

    #[test]
    fn over_rect_selects_expected_cells() {
        let mesh = Mesh::new(10, 4, [1e-9, 1e-9, 1e-9]).unwrap();
        let ant = Antenna::over_rect(
            &mesh,
            0.0,
            0.0,
            2e-9,
            4e-9,
            Vec3::X,
            Drive::logic_cw(1.0, 10e9, 0.0),
        );
        // Cells with centre x in [0, 2e-9]: ix = 0, 1 across all 4 rows.
        assert_eq!(ant.cells().len(), 8);
    }

    #[test]
    fn over_rect_skips_vacuum() {
        let mut mesh = Mesh::new(4, 1, [1e-9, 1e-9, 1e-9]).unwrap();
        mesh.set_magnetic(0, 0, false);
        let ant = Antenna::over_rect(
            &mesh,
            0.0,
            0.0,
            4e-9,
            1e-9,
            Vec3::X,
            Drive::logic_cw(1.0, 10e9, 0.0),
        );
        assert_eq!(ant.cells().len(), 3);
    }

    #[test]
    fn direction_is_normalized() {
        let ant = Antenna::new(
            vec![0],
            Vec3::new(0.0, 0.0, 5.0),
            Drive::logic_cw(1.0, 1.0, 0.0),
        );
        assert!((ant.direction().norm() - 1.0).abs() < 1e-15);
    }
}
