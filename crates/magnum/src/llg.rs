//! The Landau–Lifshitz–Gilbert right-hand side.
//!
//! Equation (1) of the paper in its explicit (Landau–Lifshitz) form:
//!
//! `dm/dt = −γμ₀/(1+α²)·[ m×H_eff + α·m×(m×H_eff) ]`
//!
//! with per-cell damping α (so absorbing frames are just a damping map)
//! and `H_eff` the sum of all [`crate::field::FieldTerm`]s, the antenna
//! fields and the per-step thermal realization.
//!
//! ## Fused parallel evaluation
//!
//! The hot path does **not** run one full-mesh pass per field term.
//! At construction every local term is compiled to a [`FusedTerm`] op, the
//! magnetic cells are gathered into an index list with a precomputed
//! 4-neighbour stencil, and antenna coverage is flattened into a CSR map.
//! `LlgSystem::rhs_stage_batch` then makes a single pass over the
//! magnetic cells — evaluating every op, the antenna drives, the thermal
//! field, the LLG torque *and* the caller's fused stage update per cell —
//! split into contiguous blocks executed by the simulation's
//! [`WorkerTeam`]. Each cell's arithmetic is independent of the block
//! partition and each block writes a disjoint output range, so results
//! are bitwise identical for any thread count. Non-local terms (the FFT
//! demag) run in a pre-pass through [`FieldTerm::accumulate_par`] on the
//! same worker team — the whole spectral pipeline (row-group FFTs and
//! column strips with their spectral multiply) decomposes into
//! block-ordered spans on that team — using per-term scratch owned by the
//! system (no locks, no per-call allocation); the reference paths
//! (`effective_field`, `max_torque`, energy accounting) use the terms'
//! thread-safe `accumulate` fallback, which is bitwise identical by
//! contract.
//!
//! ## Single-sweep stage fusion
//!
//! The state and torque buffers are K-interleaved [`FieldBatch`]es (a
//! single simulation is the K = 1 case, whose layout is a plain
//! [`Field3`]). Integrators pass a `fuse` closure to the stage function;
//! it is invoked once per block with the block's range right after its
//! torques are written, while the data is still hot in cache, and
//! typically writes the next stage input (`m + dt·b·k` style
//! combinations) through disjoint-range raw plane pointers. Every cell is
//! visited once per stage instead of once for the field, once for the
//! torque and once per stage combination.
//!
//! ## Kernel selection by K
//!
//! The stage function picks its per-block kernels from the batch width
//! alone. At K = 1 it runs the single-system kernels
//! (`sweep_interior` / `sweep_scalar`) on the
//! plain planes; at K ≥ 2 it runs the lane kernels, whose member loop is
//! innermost over consecutive interleaved lanes. Both evaluate the same
//! expression sequence per (cell, member), so a member of a batch is
//! bitwise identical to the same simulation stepped alone.

use crate::excitation::Antenna;
use crate::field::{FieldTerm, FusedTerm};
use crate::field3::{Field3, Field3Ptr, FieldBatch};
use crate::math::Vec3;
use crate::par::{chunk_bounds, WorkerTeam};
use crate::MU0;

/// Sentinel for "no neighbour" (mesh edge or vacuum) in the stencil.
const NO_NEIGHBOUR: u32 = u32::MAX;

/// Refills `out` with each antenna's drive field at time `t` (empty when
/// there are no antennas). `out` keeps its capacity, so refilling it
/// every stage allocates nothing once it has held the antenna count.
pub(crate) fn drive_fields(antennas: &[Antenna], t: f64, out: &mut Vec<Vec3>) {
    out.clear();
    out.extend(antennas.iter().map(|a| a.direction() * a.drive().value(t)));
}

/// One contiguous slice of the mesh assigned to a worker block.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Flat cell-index range `[start, end)` — used to zero vacuum cells.
    flat: (usize, usize),
    /// Range into the magnetic-cell list — the actual compute work.
    list: (usize, usize),
    /// Range into [`FusedKernel::segs`] covering `list`.
    segs: (usize, usize),
}

/// A contiguous piece of a block's magnetic-cell list: either an interior
/// run — consecutive flat indices whose four neighbours all exist, so the
/// branchless unchecked sweep applies — or a scalar stretch handled by
/// the general (boundary/vacuum-adjacent) path. Splitting the list this
/// way changes nothing about per-cell arithmetic, only which loop body
/// executes it.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Start index into the magnetic-cell list.
    ci0: u32,
    /// One past the end.
    ci1: u32,
    /// True for interior runs.
    interior: bool,
}

/// Interior runs shorter than this stay in the scalar stretch — the
/// branchless loop only pays off once it amortizes its setup.
const MIN_RUN: usize = 8;

/// Lane-chunk width for the batched interior sweep's split
/// compute/store phases: big enough to cover every realistic batch in
/// one chunk, small enough for comfortable stack buffers.
const INTERIOR_LANES: usize = 16;

/// One plane's exchange accumulation for four consecutive lanes:
/// `(((0 + (m[fi-K]-m)·cx) + (m[fi+K]-m)·cx) + (m[fi-nxK]-m)·cy) +
/// (m[fi+nxK]-m)·cy`, the exact summation order of the scalar arm.
///
/// # Safety
///
/// `fi±kk` and `fi±nxk` plus three lanes must be in bounds for `mp`,
/// and the host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn exchange4(
    mp: *const f64,
    fi: usize,
    kk: usize,
    nxk: usize,
    mi: std::arch::x86_64::__m256d,
    cx: std::arch::x86_64::__m256d,
    cy: std::arch::x86_64::__m256d,
    zero: std::arch::x86_64::__m256d,
) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    let t0 = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(mp.add(fi - kk)), mi), cx);
    let t1 = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(mp.add(fi + kk)), mi), cx);
    let t2 = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(mp.add(fi - nxk)), mi), cy);
    let t3 = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(mp.add(fi + nxk)), mi), cy);
    _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(zero, t0), t1), t2),
        t3,
    )
}

/// The loop invariants of the branch-free interior body: the
/// K-interleaved neighbour offsets, the stage-input, pre-pass and output
/// planes, and the fast arm's term parameters (exchange required, the
/// rest applied when present, in the generic ops loop's exact order).
#[derive(Clone, Copy)]
struct InteriorArm {
    /// Interleaved lanes per cell (the batch width K).
    kk: usize,
    /// Interleaved offset of the up/down neighbours: `nx·K`.
    nxk: usize,
    m: [*const f64; 3],
    /// The pre-pass field planes, when a non-local term wrote one.
    base: Option<[*const f64; 3]>,
    coeff_x: f64,
    coeff_y: f64,
    uni: Option<(f64, Vec3)>,
    film: Option<f64>,
    zee: Option<Vec3>,
    out: Field3Ptr,
}

impl InteriorArm {
    /// The scalar body at interleaved lane `fi`: `h` starts from the
    /// pre-pass field (or zero), then exchange, anisotropy, thin film and
    /// Zeeman in the generic arm's order and its `Vec3` arithmetic
    /// unfolded per component, then the torque.
    ///
    /// # Safety
    ///
    /// `fi` must be an interior lane (`fi ± K`, `fi ± nx·K` in bounds and
    /// magnetic) owned by the calling block.
    #[inline(always)]
    unsafe fn lane(&self, fi: usize, alpha: f64, prefactor: f64) {
        let (kk, nxk, cx, cy) = (self.kk, self.nxk, self.coeff_x, self.coeff_y);
        let [mxp, myp, mzp] = self.m;
        let (outx, outy, outz) = self.out.planes();
        let mix = *mxp.add(fi);
        let miy = *myp.add(fi);
        let miz = *mzp.add(fi);
        let mut accx = 0.0;
        let mut accy = 0.0;
        let mut accz = 0.0;
        accx += (*mxp.add(fi - kk) - mix) * cx;
        accy += (*myp.add(fi - kk) - miy) * cx;
        accz += (*mzp.add(fi - kk) - miz) * cx;
        accx += (*mxp.add(fi + kk) - mix) * cx;
        accy += (*myp.add(fi + kk) - miy) * cx;
        accz += (*mzp.add(fi + kk) - miz) * cx;
        accx += (*mxp.add(fi - nxk) - mix) * cy;
        accy += (*myp.add(fi - nxk) - miy) * cy;
        accz += (*mzp.add(fi - nxk) - miz) * cy;
        accx += (*mxp.add(fi + nxk) - mix) * cy;
        accy += (*myp.add(fi + nxk) - miy) * cy;
        accz += (*mzp.add(fi + nxk) - miz) * cy;
        let (mut hx, mut hy, mut hz) = match self.base {
            Some([bx, by, bz]) => (*bx.add(fi), *by.add(fi), *bz.add(fi)),
            None => (0.0, 0.0, 0.0),
        };
        hx += accx;
        hy += accy;
        hz += accz;
        if let Some((ku, axis)) = self.uni {
            let ani = ku * (mix * axis.x + miy * axis.y + miz * axis.z);
            hx += axis.x * ani;
            hy += axis.y * ani;
            hz += axis.z * ani;
        }
        if let Some(ms) = self.film {
            hz -= ms * miz;
        }
        if let Some(z) = self.zee {
            hx += z.x;
            hy += z.y;
            hz += z.z;
        }
        let mxhx = miy * hz - miz * hy;
        let mxhy = miz * hx - mix * hz;
        let mxhz = mix * hy - miy * hx;
        let mxmxhx = miy * mxhz - miz * mxhy;
        let mxmxhy = miz * mxhx - mix * mxhz;
        let mxmxhz = mix * mxhy - miy * mxhx;
        *outx.add(fi) = (mxhx + mxmxhx * alpha) * prefactor;
        *outy.add(fi) = (mxhy + mxmxhy * alpha) * prefactor;
        *outz.add(fi) = (mxhz + mxmxhz * alpha) * prefactor;
    }

    /// [`InteriorArm::lane`] on the four consecutive lanes `fi..fi + 4`
    /// with AVX2 intrinsics — the auto-vectorizer leaves the scalar body
    /// 1-wide, so the 4-wide form is written out. Every intrinsic is a
    /// lanewise correctly-rounded IEEE operation applied in the scalar
    /// body's exact expression order (no FMA contraction), so each lane
    /// is bitwise the scalar body's result.
    ///
    /// # Safety
    ///
    /// As for [`InteriorArm::lane`], for all four lanes; the host must
    /// support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn lanes4(
        &self,
        fi: usize,
        av: std::arch::x86_64::__m256d,
        pv: std::arch::x86_64::__m256d,
    ) {
        use std::arch::x86_64::*;
        let (kk, nxk) = (self.kk, self.nxk);
        let [mxp, myp, mzp] = self.m;
        let (outx, outy, outz) = self.out.planes();
        let cx = _mm256_set1_pd(self.coeff_x);
        let cy = _mm256_set1_pd(self.coeff_y);
        let zero = _mm256_setzero_pd();
        let mix = _mm256_loadu_pd(mxp.add(fi));
        let miy = _mm256_loadu_pd(myp.add(fi));
        let miz = _mm256_loadu_pd(mzp.add(fi));
        let accx = exchange4(mxp, fi, kk, nxk, mix, cx, cy, zero);
        let accy = exchange4(myp, fi, kk, nxk, miy, cx, cy, zero);
        let accz = exchange4(mzp, fi, kk, nxk, miz, cx, cy, zero);
        // h = base + acc (or 0 + acc), as the scalar body's `h += acc`.
        let (bx, by, bz) = match self.base {
            Some([bx, by, bz]) => (
                _mm256_loadu_pd(bx.add(fi)),
                _mm256_loadu_pd(by.add(fi)),
                _mm256_loadu_pd(bz.add(fi)),
            ),
            None => (zero, zero, zero),
        };
        let mut hx = _mm256_add_pd(bx, accx);
        let mut hy = _mm256_add_pd(by, accy);
        let mut hz = _mm256_add_pd(bz, accz);
        // Absent terms are skipped, not added as zero: −0.0 + +0.0 = +0.0
        // would silently flip signed zeros against the generic ops loop.
        // ani = ku·((m·ax + m·ay) + m·az), the scalar dot's order.
        if let Some((ku, axis)) = self.uni {
            let (axx, axy, axz) = (
                _mm256_set1_pd(axis.x),
                _mm256_set1_pd(axis.y),
                _mm256_set1_pd(axis.z),
            );
            let dot = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(mix, axx), _mm256_mul_pd(miy, axy)),
                _mm256_mul_pd(miz, axz),
            );
            let ani = _mm256_mul_pd(_mm256_set1_pd(ku), dot);
            hx = _mm256_add_pd(hx, _mm256_mul_pd(axx, ani));
            hy = _mm256_add_pd(hy, _mm256_mul_pd(axy, ani));
            hz = _mm256_add_pd(hz, _mm256_mul_pd(axz, ani));
        }
        if let Some(ms) = self.film {
            hz = _mm256_sub_pd(hz, _mm256_mul_pd(_mm256_set1_pd(ms), miz));
        }
        if let Some(z) = self.zee {
            hx = _mm256_add_pd(hx, _mm256_set1_pd(z.x));
            hy = _mm256_add_pd(hy, _mm256_set1_pd(z.y));
            hz = _mm256_add_pd(hz, _mm256_set1_pd(z.z));
        }
        let mxhx = _mm256_sub_pd(_mm256_mul_pd(miy, hz), _mm256_mul_pd(miz, hy));
        let mxhy = _mm256_sub_pd(_mm256_mul_pd(miz, hx), _mm256_mul_pd(mix, hz));
        let mxhz = _mm256_sub_pd(_mm256_mul_pd(mix, hy), _mm256_mul_pd(miy, hx));
        let mxmxhx = _mm256_sub_pd(_mm256_mul_pd(miy, mxhz), _mm256_mul_pd(miz, mxhy));
        let mxmxhy = _mm256_sub_pd(_mm256_mul_pd(miz, mxhx), _mm256_mul_pd(mix, mxhz));
        let mxmxhz = _mm256_sub_pd(_mm256_mul_pd(mix, mxhy), _mm256_mul_pd(miy, mxhx));
        _mm256_storeu_pd(
            outx.add(fi),
            _mm256_mul_pd(_mm256_add_pd(mxhx, _mm256_mul_pd(mxmxhx, av)), pv),
        );
        _mm256_storeu_pd(
            outy.add(fi),
            _mm256_mul_pd(_mm256_add_pd(mxhy, _mm256_mul_pd(mxmxhy, av)), pv),
        );
        _mm256_storeu_pd(
            outz.add(fi),
            _mm256_mul_pd(_mm256_add_pd(mxhz, _mm256_mul_pd(mxmxhz, av)), pv),
        );
    }

    /// The branch-free stretch of cells `i_lo..i_hi`, four lanes at a
    /// time: at K = 1 four consecutive cells, each with its own damping;
    /// at K ≥ 2 four members of one cell, lanes beyond the last multiple
    /// of four running the scalar body.
    ///
    /// # Safety
    ///
    /// Every lane of the cells must be interior and owned by the calling
    /// block; `ap`/`pp` hold one damping and prefactor per cell; the host
    /// must support AVX2 (checked at runtime by the dispatching caller).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn stretch_avx2(&self, i_lo: usize, i_hi: usize, ap: *const f64, pp: *const f64) {
        use std::arch::x86_64::*;
        let kk = self.kk;
        if kk == 1 {
            let mut i = i_lo;
            while i + 4 <= i_hi {
                self.lanes4(i, _mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(pp.add(i)));
                i += 4;
            }
            for i in i..i_hi {
                self.lane(i, *ap.add(i), *pp.add(i));
            }
            return;
        }
        for i in i_lo..i_hi {
            let (alpha, prefactor) = (*ap.add(i), *pp.add(i));
            let (av, pv) = (_mm256_set1_pd(alpha), _mm256_set1_pd(prefactor));
            let f0 = i * kk;
            let mut s = 0;
            while s + 4 <= kk {
                self.lanes4(f0 + s, av, pv);
                s += 4;
            }
            for s in s..kk {
                self.lane(f0 + s, alpha, prefactor);
            }
        }
    }
}

/// The builder's canonical term sequence — optional exchange, uniaxial
/// anisotropy, thin-film demag, uniform Zeeman, in exactly that order —
/// unpacked into loop-invariant scalars so the interior sweep compiles to
/// straight-line code. `None` when the op sequence deviates from the
/// canonical order (hand-assembled systems); the generic ops loop then
/// runs instead. Evaluation order matches the ops loop exactly, so both
/// paths are bitwise identical.
#[derive(Debug, Clone, Copy, Default)]
struct StdOps {
    ex: Option<(f64, f64)>,
    uni: Option<(f64, Vec3)>,
    film: Option<f64>,
    zee: Option<Vec3>,
}

/// Matches `ops` against the canonical order (each slot at most once).
fn std_ops(ops: &[FusedTerm]) -> Option<StdOps> {
    let mut std = StdOps::default();
    let mut rank = 0;
    for op in ops {
        let r = match *op {
            FusedTerm::Exchange { .. } => 1,
            FusedTerm::Uniaxial { .. } => 2,
            FusedTerm::ThinFilm { .. } => 3,
            FusedTerm::Uniform(_) => 4,
        };
        if r <= rank {
            return None;
        }
        rank = r;
        match *op {
            FusedTerm::Exchange { coeff_x, coeff_y } => std.ex = Some((coeff_x, coeff_y)),
            FusedTerm::Uniaxial { coeff, axis } => std.uni = Some((coeff, axis)),
            FusedTerm::ThinFilm { ms } => std.film = Some(ms),
            FusedTerm::Uniform(f) => std.zee = Some(f),
        }
    }
    Some(std)
}

/// What one stage sweep reads and writes: the K-interleaved stage-input
/// planes, the per-member inputs of [`LlgSystem::rhs_stage_batch`] and
/// the output planes.
#[derive(Clone, Copy)]
struct Sweep<'a> {
    mx: &'a [f64],
    my: &'a [f64],
    mz: &'a [f64],
    base: Option<&'a FieldBatch>,
    ant_fields: &'a [Vec<Vec3>],
    thermal: &'a FieldBatch,
    kk: usize,
    out: Field3Ptr,
}

impl<'a> Sweep<'a> {
    /// The single member's pre-pass field, drive fields and thermal
    /// realization as plain planes — valid at K = 1, where the batch
    /// layout is the single-system layout.
    #[inline(always)]
    fn member0(&self) -> (Option<&'a Field3>, &'a [Vec3], &'a Field3) {
        debug_assert_eq!(self.kk, 1);
        (
            self.base.map(FieldBatch::data),
            self.ant_fields.first().map_or(&[][..], Vec::as_slice),
            self.thermal.data(),
        )
    }
}

/// The precompiled single-pass kernel (see module docs).
#[derive(Debug)]
struct FusedKernel {
    /// Flat indices of the magnetic cells, ascending.
    cells: Vec<u32>,
    /// Per magnetic cell: `[left, right, down, up]` neighbour flat index,
    /// or [`NO_NEIGHBOUR`] where the stencil hits an edge or vacuum.
    nbrs: Vec<[u32; 4]>,
    /// Fused ops in field-term order.
    ops: Vec<FusedTerm>,
    /// Indices into `terms` of non-fusable terms (serial pre-pass).
    unfused: Vec<usize>,
    /// CSR offsets into `ant_ids`, one entry per magnetic cell plus one.
    /// Empty when there are no antennas.
    ant_off: Vec<u32>,
    /// Antenna indices covering each magnetic cell.
    ant_ids: Vec<u32>,
    blocks: Vec<Block>,
    /// Interior-run/scalar partition of every block's list range.
    segs: Vec<Segment>,
    /// The canonical op sequence, when the terms match it.
    std_ops: Option<StdOps>,
    /// Mesh row length — interior neighbours are `i±1` and `i±nx`.
    nx: usize,
    /// No vacuum anywhere: every block's list range equals its flat
    /// range, so stage fusion can run inside the sweep pass.
    full_film: bool,
}

/// Everything needed to assemble an [`LlgSystem`].
pub(crate) struct SystemSpec {
    pub terms: Vec<Box<dyn FieldTerm>>,
    pub antennas: Vec<Antenna>,
    /// Per-cell Gilbert damping.
    pub alpha: Vec<f64>,
    /// |γ| in rad/(s·T).
    pub gamma: f64,
    pub mask: Vec<bool>,
    /// Mesh row length (cells per row).
    pub nx: usize,
    /// Worker-team size (1 = serial).
    pub threads: usize,
}

impl SystemSpec {
    /// Compiles the fused kernel and spins up the worker team.
    pub(crate) fn build(self) -> LlgSystem {
        let SystemSpec {
            terms,
            antennas,
            alpha,
            gamma,
            mask,
            nx,
            threads,
        } = self;
        let n = mask.len();
        assert!(n > 0, "system must have at least one cell");
        assert!(
            nx > 0 && n % nx == 0,
            "mask length {n} is not a multiple of the row length {nx}"
        );
        assert!(n <= u32::MAX as usize, "mesh too large for u32 indexing");
        assert_eq!(alpha.len(), n, "damping map length mismatch");

        let cells: Vec<u32> = (0..n).filter(|&i| mask[i]).map(|i| i as u32).collect();
        let nbrs: Vec<[u32; 4]> = cells
            .iter()
            .map(|&c| {
                let i = c as usize;
                let ix = i % nx;
                let present = |cond: bool, j: usize| {
                    if cond && mask[j] {
                        j as u32
                    } else {
                        NO_NEIGHBOUR
                    }
                };
                [
                    present(ix > 0, i.wrapping_sub(1)),
                    present(ix + 1 < nx, i + 1),
                    present(i >= nx, i.wrapping_sub(nx)),
                    present(i + nx < n, i + nx),
                ]
            })
            .collect();

        // Fused ops in term order, dropping ops the term-by-term path
        // would also skip (`accumulate` early returns).
        let ops: Vec<FusedTerm> = terms
            .iter()
            .filter_map(|t| t.fused())
            .filter(|op| match *op {
                FusedTerm::Uniform(f) => f != Vec3::ZERO,
                FusedTerm::Uniaxial { coeff, .. } => coeff != 0.0,
                _ => true,
            })
            .collect();
        let unfused: Vec<usize> = terms
            .iter()
            .enumerate()
            .filter(|(_, t)| t.fused().is_none())
            .map(|(i, _)| i)
            .collect();

        let threads = threads.clamp(1, n);
        let mut segs: Vec<Segment> = Vec::new();
        let mut blocks: Vec<Block> = Vec::with_capacity(threads);
        for b in 0..threads {
            let flat = chunk_bounds(n, threads, b);
            let list = chunk_bounds(cells.len(), threads, b);
            let seg0 = segs.len();
            let mut scalar_start = list.0;
            let mut ci = list.0;
            while ci < list.1 {
                // Grow a maximal interior run: every cell has all four
                // neighbours and the flat indices are consecutive.
                let run_start = ci;
                while ci < list.1
                    && nbrs[ci].iter().all(|&x| x != NO_NEIGHBOUR)
                    && (ci == run_start || cells[ci] == cells[ci - 1] + 1)
                {
                    ci += 1;
                }
                if ci - run_start >= MIN_RUN {
                    if run_start > scalar_start {
                        segs.push(Segment {
                            ci0: scalar_start as u32,
                            ci1: run_start as u32,
                            interior: false,
                        });
                    }
                    segs.push(Segment {
                        ci0: run_start as u32,
                        ci1: ci as u32,
                        interior: true,
                    });
                    scalar_start = ci;
                } else if ci == run_start {
                    // Not interior: absorb into the current scalar stretch.
                    ci += 1;
                }
                // Short runs simply stay inside the scalar stretch.
            }
            if list.1 > scalar_start {
                segs.push(Segment {
                    ci0: scalar_start as u32,
                    ci1: list.1 as u32,
                    interior: false,
                });
            }
            blocks.push(Block {
                flat,
                list,
                segs: (seg0, segs.len()),
            });
        }

        let full_film = mask.iter().all(|&m| m);
        let term_scratch = terms.iter().map(|t| t.make_scratch()).collect();
        let mut system = LlgSystem {
            terms,
            term_scratch,
            antennas,
            alpha,
            prefactor: Vec::new(),
            gamma,
            mask,
            kernel: FusedKernel {
                std_ops: std_ops(&ops),
                cells,
                nbrs,
                ops,
                unfused,
                ant_off: Vec::new(),
                ant_ids: Vec::new(),
                blocks,
                segs,
                nx,
                full_film,
            },
            team: WorkerTeam::new(threads),
        };
        system.refresh_prefactors();
        system.rebuild_antenna_map();
        system
    }
}

/// The assembled LLG system: field terms, antennas and damping map. The
/// per-step thermal realization is owned by the caller and passed to
/// every stage explicitly.
///
/// Constructed by [`crate::sim::SimulationBuilder`]; the integrators
/// drive it through its unfused pre-pass and fused stage function.
pub struct LlgSystem {
    pub(crate) terms: Vec<Box<dyn FieldTerm>>,
    /// Per-term hot-path scratch (`None` for terms without any), indexed
    /// like `terms` and threaded through `accumulate_par` by `rhs`.
    term_scratch: Vec<Option<Box<dyn std::any::Any + Send + Sync>>>,
    pub(crate) antennas: Vec<Antenna>,
    /// Per-cell Gilbert damping.
    pub(crate) alpha: Vec<f64>,
    /// Per-cell `−γμ₀/(1+α²)`, derived from `alpha` — precomputing it
    /// removes a division from every cell of every stage sweep. Kept in
    /// sync by [`LlgSystem::refresh_prefactors`]; the stored value is the
    /// exact same expression the torque used to evaluate inline, so the
    /// result is bitwise unchanged.
    prefactor: Vec<f64>,
    /// |γ| in rad/(s·T).
    pub(crate) gamma: f64,
    pub(crate) mask: Vec<bool>,
    kernel: FusedKernel,
    team: WorkerTeam,
}

impl LlgSystem {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.mask.len()
    }

    /// True if the system has no cells (never the case after a successful
    /// build).
    pub fn is_empty(&self) -> bool {
        self.mask.is_empty()
    }

    /// The worker team shared by every parallel region of this system.
    pub(crate) fn par(&self) -> &WorkerTeam {
        &self.team
    }

    /// True when the mask has no vacuum cells (see
    /// [`renormalize_and_check`][crate::solver] for why integrators care).
    pub(crate) fn full_film(&self) -> bool {
        self.kernel.full_film
    }

    /// Rebuilds the per-cell torque prefactor table from `alpha`.
    fn refresh_prefactors(&mut self) {
        self.prefactor.clear();
        self.prefactor.extend(
            self.alpha
                .iter()
                .map(|&a| -self.gamma * MU0 / (1.0 + a * a)),
        );
    }

    /// Swaps the damping map wholesale (used by `relax` to install and
    /// restore its high-damping map without allocating) and refreshes the
    /// derived prefactor table.
    pub(crate) fn swap_alpha(&mut self, other: &mut Vec<f64>) {
        assert_eq!(other.len(), self.alpha.len(), "damping map length mismatch");
        std::mem::swap(&mut self.alpha, other);
        self.refresh_prefactors();
    }

    /// Registers an antenna and recompiles the per-cell antenna map.
    pub(crate) fn add_antenna(&mut self, antenna: Antenna) {
        self.antennas.push(antenna);
        self.rebuild_antenna_map();
    }

    /// Removes all antennas.
    pub(crate) fn clear_antennas(&mut self) {
        self.antennas.clear();
        self.rebuild_antenna_map();
    }

    /// Flattens antenna coverage into a CSR (cell → antenna ids) map.
    ///
    /// `relax` temporarily empties `antennas` without touching the map —
    /// the hot path skips antenna evaluation entirely while the list is
    /// empty, so the stale map is never read.
    fn rebuild_antenna_map(&mut self) {
        self.kernel.ant_off.clear();
        self.kernel.ant_ids.clear();
        if self.antennas.is_empty() {
            return;
        }
        let n = self.mask.len();
        let mut per_cell: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (ai, antenna) in self.antennas.iter().enumerate() {
            for &c in antenna.cells() {
                if c < n {
                    per_cell[c].push(ai as u32);
                }
            }
        }
        self.kernel.ant_off.reserve(self.kernel.cells.len() + 1);
        self.kernel.ant_off.push(0);
        for &c in &self.kernel.cells {
            self.kernel.ant_ids.extend_from_slice(&per_cell[c as usize]);
            self.kernel.ant_off.push(self.kernel.ant_ids.len() as u32);
        }
    }

    /// Effective field at one magnetic cell, assembled from the serial
    /// pre-pass (`base`), the fused ops, the antenna drives and the
    /// thermal realization (empty at T = 0) — in exactly the order the
    /// term-by-term path uses.
    ///
    /// `mx`/`my`/`mz` are the component planes of the stage input; the
    /// exchange stencil gathers neighbours from them directly.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn fused_field(
        &self,
        ci: usize,
        i: usize,
        mi: Vec3,
        mx: &[f64],
        my: &[f64],
        mz: &[f64],
        base: Option<&Field3>,
        ant_fields: &[Vec3],
        thermal: &Field3,
    ) -> Vec3 {
        let mut h = match base {
            Some(b) => b.get(i),
            None => Vec3::ZERO,
        };
        for op in &self.kernel.ops {
            match *op {
                FusedTerm::Exchange { coeff_x, coeff_y } => {
                    let nb = self.kernel.nbrs[ci];
                    let at = |j: usize| Vec3::new(mx[j], my[j], mz[j]);
                    let mut acc = Vec3::ZERO;
                    if nb[0] != NO_NEIGHBOUR {
                        acc += (at(nb[0] as usize) - mi) * coeff_x;
                    }
                    if nb[1] != NO_NEIGHBOUR {
                        acc += (at(nb[1] as usize) - mi) * coeff_x;
                    }
                    if nb[2] != NO_NEIGHBOUR {
                        acc += (at(nb[2] as usize) - mi) * coeff_y;
                    }
                    if nb[3] != NO_NEIGHBOUR {
                        acc += (at(nb[3] as usize) - mi) * coeff_y;
                    }
                    h += acc;
                }
                FusedTerm::Uniaxial { coeff, axis } => {
                    h += axis * (coeff * mi.dot(axis));
                }
                FusedTerm::ThinFilm { ms } => {
                    h.z -= ms * mi.z;
                }
                FusedTerm::Uniform(f) => {
                    h += f;
                }
            }
        }
        if !ant_fields.is_empty() {
            let a0 = self.kernel.ant_off[ci] as usize;
            let a1 = self.kernel.ant_off[ci + 1] as usize;
            for &ai in &self.kernel.ant_ids[a0..a1] {
                let f = ant_fields[ai as usize];
                if f != Vec3::ZERO {
                    h += f;
                }
            }
        }
        if !thermal.is_empty() {
            h += thermal.get(i);
        }
        h
    }

    /// The LLG torque at cell `i` for field `h`.
    #[inline(always)]
    fn torque(&self, i: usize, mi: Vec3, h: Vec3) -> Vec3 {
        let alpha = self.alpha[i];
        let prefactor = self.prefactor[i];
        let mxh = mi.cross(h);
        let mxmxh = mi.cross(mxh);
        (mxh + mxmxh * alpha) * prefactor
    }

    /// Computes the deterministic effective field (A/m) — every field
    /// term plus the antenna drives, without the thermal realization —
    /// into `h` at time `t`.
    ///
    /// This is the term-by-term reference path (used by probes and
    /// tests); the integrator hot loop uses the fused stage kernel
    /// instead.
    pub fn effective_field(&self, m: &[Vec3], t: f64, h: &mut [Vec3]) {
        h.fill(Vec3::ZERO);
        for term in &self.terms {
            term.accumulate(m, t, h);
        }
        for antenna in &self.antennas {
            antenna.accumulate(t, h);
        }
    }

    /// One block's share of a K = 1 sweep: the segment walk dispatching
    /// interior runs and scalar stretches to the single-system kernels.
    ///
    /// Kept out of line: inlined next to the lane kernels of
    /// [`LlgSystem::sweep_block`], the single-system kernels measured
    /// about 7% slower per RK4 step on a 256 × 128 film (2-CPU x86-64
    /// host).
    #[inline(never)]
    fn sweep_block_one(&self, b: usize, sw: &Sweep, avx2: bool) {
        let block = self.kernel.blocks[b];
        let Some(std) = self.kernel.std_ops else {
            self.sweep_scalar(block.list.0, block.list.1, sw);
            return;
        };
        for seg in &self.kernel.segs[block.segs.0..block.segs.1] {
            if seg.interior {
                self.sweep_interior(*seg, std, sw, avx2);
            } else {
                self.sweep_scalar(seg.ci0 as usize, seg.ci1 as usize, sw);
            }
        }
    }

    /// One block's share of a K ≥ 2 sweep: the segment walk dispatching
    /// interior runs and scalar stretches to the lane kernels.
    #[inline(always)]
    fn sweep_block(&self, b: usize, sw: &Sweep, avx2: bool) {
        let block = self.kernel.blocks[b];
        let Some(std) = self.kernel.std_ops else {
            self.sweep_scalar_batch(block.list.0, block.list.1, sw);
            return;
        };
        for seg in &self.kernel.segs[block.segs.0..block.segs.1] {
            if seg.interior {
                self.sweep_interior_batch(*seg, std, sw, avx2);
            } else {
                self.sweep_scalar_batch(seg.ci0 as usize, seg.ci1 as usize, sw);
            }
        }
    }

    /// [`LlgSystem::sweep_block`] compiled with AVX2 enabled, for hosts
    /// that have it (checked at runtime by the caller): the inlined lane
    /// kernels auto-vectorize 4-wide over the consecutive interleaved
    /// lanes. Every operation is the same correctly-rounded IEEE
    /// arithmetic, so results are bitwise identical to the baseline copy.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn sweep_block_avx2(&self, b: usize, sw: &Sweep) {
        self.sweep_block(b, sw, true);
    }

    /// The general K = 1 sweep body: handles boundary and vacuum-adjacent
    /// cells (and arbitrary op sequences) via the stencil table and the
    /// ops loop.
    fn sweep_scalar(&self, ci0: usize, ci1: usize, sw: &Sweep) {
        let (mx, my, mz, out) = (sw.mx, sw.my, sw.mz, sw.out);
        let (base, ant_fields, thermal) = sw.member0();
        for ci in ci0..ci1 {
            let i = self.kernel.cells[ci] as usize;
            let mi = Vec3::new(mx[i], my[i], mz[i]);
            let h = self.fused_field(ci, i, mi, mx, my, mz, base, ant_fields, thermal);
            let k = self.torque(i, mi, h);
            // Safety: list ranges are disjoint across blocks and only
            // magnetic cells are touched here.
            unsafe { out.write(i, k) };
        }
    }

    /// The branchless K = 1 interior sweep: every cell of the run has all
    /// four neighbours at `i±1`/`i±nx` and consecutive flat indices, so
    /// the stencil needs no table, no presence checks and no bounds
    /// checks. Each cell evaluates the exact same expression tree as
    /// [`LlgSystem::fused_field`] + [`LlgSystem::torque`] (same terms,
    /// same order), so the result is bitwise identical to the scalar
    /// path.
    ///
    /// The fast arm needs only the exchange term and no thermal field:
    /// anisotropy, thin film and Zeeman are applied when present, the
    /// pre-pass field (the Newell demag) is read, and the run is split
    /// at antenna coverage — covered cells take [`LlgSystem::fused_field`],
    /// the rest run [`InteriorArm`], four cells per AVX2 vector when
    /// `avx2` is set.
    #[inline(always)]
    fn sweep_interior(
        &self,
        seg: Segment,
        std: StdOps,
        sw: &Sweep,
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))] avx2: bool,
    ) {
        let (mx, my, mz, out) = (sw.mx, sw.my, sw.mz, sw.out);
        let (base, ant_fields, thermal) = sw.member0();
        let i0 = self.kernel.cells[seg.ci0 as usize] as usize;
        let len = (seg.ci1 - seg.ci0) as usize;
        let nx = self.kernel.nx;
        let (mxp, myp, mzp) = (mx.as_ptr(), my.as_ptr(), mz.as_ptr());
        let ap = self.alpha.as_ptr();
        let pp = self.prefactor.as_ptr();
        if let (true, Some((coeff_x, coeff_y))) = (thermal.is_empty(), std.ex) {
            let arm = InteriorArm {
                kk: 1,
                nxk: nx,
                m: [mxp, myp, mzp],
                base: base.map(|b| [b.xs().as_ptr(), b.ys().as_ptr(), b.zs().as_ptr()]),
                coeff_x,
                coeff_y,
                uni: std.uni,
                film: std.film,
                zee: std.zee,
                out,
            };
            let covered = |o: usize| {
                let ci = seg.ci0 as usize + o;
                !ant_fields.is_empty() && self.kernel.ant_off[ci + 1] > self.kernel.ant_off[ci]
            };
            let mut off = 0;
            while off < len {
                if covered(off) {
                    let (ci, i) = (seg.ci0 as usize + off, i0 + off);
                    let mi = Vec3::new(mx[i], my[i], mz[i]);
                    let h = self.fused_field(ci, i, mi, mx, my, mz, base, ant_fields, thermal);
                    // Safety: disjoint index ownership as in the scalar
                    // sweep.
                    unsafe { out.write(i, self.torque(i, mi, h)) };
                    off += 1;
                    continue;
                }
                let start = off;
                while off < len && !covered(off) {
                    off += 1;
                }
                #[cfg(target_arch = "x86_64")]
                if avx2 {
                    // Safety: AVX2 support was checked by the caller; the
                    // stretch holds validated interior cells of this
                    // block.
                    unsafe { arm.stretch_avx2(i0 + start, i0 + off, ap, pp) };
                    continue;
                }
                for i in i0 + start..i0 + off {
                    // Safety: as above.
                    unsafe { arm.lane(i, *ap.add(i), *pp.add(i)) };
                }
            }
            return;
        }
        for off in 0..len {
            let i = i0 + off;
            // Safety: interior runs are validated at build time — `i` and
            // all four neighbour indices are in bounds for every plane,
            // and `alpha`/`prefactor` have one entry per cell.
            let at = |j: usize| unsafe { Vec3::new(*mxp.add(j), *myp.add(j), *mzp.add(j)) };
            let mi = at(i);
            let mut h = match base {
                Some(b) => b.get(i),
                None => Vec3::ZERO,
            };
            if let Some((coeff_x, coeff_y)) = std.ex {
                let mut acc = Vec3::ZERO;
                acc += (at(i - 1) - mi) * coeff_x;
                acc += (at(i + 1) - mi) * coeff_x;
                acc += (at(i - nx) - mi) * coeff_y;
                acc += (at(i + nx) - mi) * coeff_y;
                h += acc;
            }
            if let Some((coeff, axis)) = std.uni {
                h += axis * (coeff * mi.dot(axis));
            }
            if let Some(ms) = std.film {
                h.z -= ms * mi.z;
            }
            if let Some(f) = std.zee {
                h += f;
            }
            if !ant_fields.is_empty() {
                let ci = seg.ci0 as usize + off;
                let a0 = self.kernel.ant_off[ci] as usize;
                let a1 = self.kernel.ant_off[ci + 1] as usize;
                for &ai in &self.kernel.ant_ids[a0..a1] {
                    let f = ant_fields[ai as usize];
                    if f != Vec3::ZERO {
                        h += f;
                    }
                }
            }
            if !thermal.is_empty() {
                h += thermal.get(i);
            }
            let (alpha, prefactor) = unsafe { (*ap.add(i), *pp.add(i)) };
            let mxh = mi.cross(h);
            let mxmxh = mi.cross(mxh);
            let k = (mxh + mxmxh * alpha) * prefactor;
            // Safety: disjoint index ownership as in the scalar sweep.
            unsafe { out.write(i, k) };
        }
    }

    /// True when the system has non-fusable terms (FFT demag) that need
    /// the pre-pass.
    pub(crate) fn has_unfused(&self) -> bool {
        !self.kernel.unfused.is_empty()
    }

    /// The unfused pre-pass: runs every non-fusable term of each member
    /// of `y` through `accumulate_par` with the *shared* worker team and
    /// per-term scratch, writing the K-interleaved result into `base` —
    /// lock-free and allocation-free, bitwise identical to the reference
    /// `accumulate` path for any team size. Returns whether anything was
    /// written.
    ///
    /// At K = 1 the batch planes *are* a plain [`Field3`], so `y` and
    /// `base` go to the terms directly and `m_scratch`/`h_scratch` are
    /// unused (they may be empty). At K ≥ 2 each member is de-interleaved
    /// into `m_scratch`, accumulated into `h_scratch` and interleaved
    /// into `base`. Because the K members reuse one term instance and
    /// one scratch, the K Newell demag convolutions share a single FFT
    /// plan — twiddle tables, lane buffers and kernel spectra are
    /// loaded once per batch step instead of once per member. Per member
    /// the call sequence is the same (zero-fill, then each term in order
    /// on the same team), so the result does not depend on K.
    pub(crate) fn unfused_prepass_batch(
        &mut self,
        y: &FieldBatch,
        t: f64,
        base: &mut FieldBatch,
        m_scratch: &mut Field3,
        h_scratch: &mut Field3,
    ) -> bool {
        if self.kernel.unfused.is_empty() {
            return false;
        }
        let n = self.len();
        debug_assert_eq!(y.cells(), n);
        debug_assert_eq!(base.cells(), n);
        debug_assert_eq!(base.k(), y.k());
        let LlgSystem {
            terms,
            term_scratch,
            kernel,
            team,
            ..
        } = self;
        let mut accumulate = |m: &Field3, h: &mut Field3| {
            h.fill(Vec3::ZERO);
            for &ti in &kernel.unfused {
                let scratch = term_scratch[ti]
                    .as_mut()
                    .map(|s| &mut **s as &mut (dyn std::any::Any + Send + Sync));
                terms[ti].accumulate_par(m, t, h, team, scratch);
            }
        };
        if y.k() == 1 {
            accumulate(y.data(), base.data_mut());
            return true;
        }
        debug_assert_eq!(m_scratch.len(), n);
        debug_assert_eq!(h_scratch.len(), n);
        for s in 0..y.k() {
            y.store_member(s, m_scratch);
            accumulate(m_scratch, h_scratch);
            base.load_member(s, &*h_scratch);
        }
        true
    }

    /// The fused stage kernel: evaluates `dm/dt` of the K members of
    /// `y` — simulations sharing this system's geometry, damping map and
    /// fused kernel — into `k_out` through one sweep over the
    /// K-interleaved planes, then invokes `fuse(i0, i1, k)` once per
    /// worker block with an interleaved flat range and a raw view of
    /// `k_out`, while the block's data is still cache-resident.
    /// Integrators use `fuse` to apply the axpy-style stage combinations
    /// (`m + dt·b·k`, the final RK update, …).
    ///
    /// `fuse` gets a whole contiguous range rather than one cell at a
    /// time so its loop stays a plain streaming axpy the compiler can
    /// vectorize on its own — a per-cell callback inside the field sweep
    /// defeats the sweep's vectorization through opaque raw-pointer
    /// aliasing. It runs on worker threads; each block invokes it for a
    /// disjoint range, so writing through raw plane pointers inside
    /// `i0..i1` is sound. It must not read any index another block may
    /// write concurrently.
    ///
    /// Per-member inputs are explicit: `ant_fields[s]` holds member
    /// `s`'s per-antenna drive fields at the stage time (members must
    /// have antennas covering the same cells so the shared CSR map
    /// applies; only drive values differ), `thermal` is the
    /// K-interleaved per-member thermal realization (empty at T = 0),
    /// and `base` is the K-interleaved output of
    /// [`LlgSystem::unfused_prepass_batch`] (or `None`).
    ///
    /// The kernels are selected on K alone (see the module docs): the
    /// single-system kernels at K = 1, the lane kernels at K ≥ 2. Per
    /// (cell, member) both evaluate the exact same expression sequence —
    /// term order, neighbour gathers, antenna accumulation, torque — so
    /// each member's slice of `k_out` does not depend on K. The lane
    /// kernels' win is structural: the stencil table, neighbour-presence
    /// branches, CSR offsets and per-cell damping loads are amortized
    /// over K members, and with K innermost the member loop runs over
    /// consecutive lanes the vectorizer can use.
    ///
    /// `k_out`'s vacuum lanes must already be zero on entry: only
    /// magnetic lanes are written, so a `FieldBatch::zeros` buffer
    /// reused across stages keeps its vacuum zeros. Likewise, on shaped
    /// meshes the fuse ranges cover only the magnetic runs: vacuum lanes
    /// are zero on both sides of every fuse, so the result `0 + 0·c = 0`
    /// is what skipping leaves in place.
    pub(crate) fn rhs_stage_batch<F>(
        &self,
        y: &FieldBatch,
        k_out: &mut FieldBatch,
        base: Option<&FieldBatch>,
        ant_fields: &[Vec<Vec3>],
        thermal: &FieldBatch,
        fuse: F,
    ) where
        F: Fn(usize, usize, Field3Ptr) + Sync,
    {
        let kk = y.k();
        debug_assert_eq!(y.cells(), self.len());
        debug_assert_eq!(k_out.cells(), self.len());
        debug_assert_eq!(k_out.k(), kk);
        debug_assert!(ant_fields.is_empty() || ant_fields.len() == kk);
        debug_assert!(thermal.is_empty() || (thermal.cells() == self.len() && thermal.k() == kk));
        let out = k_out.ptrs();
        let this: &LlgSystem = self;
        let sw = Sweep {
            mx: y.data().xs(),
            my: y.data().ys(),
            mz: y.data().zs(),
            base,
            ant_fields,
            thermal,
            kk,
            out,
        };
        // One runtime check per stage: the lane kernels' inner loops run
        // over consecutive interleaved lanes, which pays off most when
        // compiled 4-wide — so the whole per-block lane sweep exists
        // twice, baseline and AVX2, and the AVX2 copy is picked when the
        // host supports it. Same Rust code, so identical IEEE results:
        // wider lanes change throughput, never rounding.
        #[cfg(target_arch = "x86_64")]
        let use_avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let use_avx2 = false;
        let sweep = |b: usize| {
            if kk == 1 {
                this.sweep_block_one(b, &sw, use_avx2);
                return;
            }
            #[cfg(target_arch = "x86_64")]
            if use_avx2 {
                // Safety: AVX2 support was checked at runtime above.
                unsafe { this.sweep_block_avx2(b, &sw) };
                return;
            }
            this.sweep_block(b, &sw, false);
        };
        this.team.run(&|b| {
            sweep(b);
            // On a full film every block's list range is its flat range,
            // so the block fuses exactly the cells it just wrote — no
            // cross-block ordering is needed and the data is still
            // cache-resident.
            if this.kernel.full_film {
                let block = this.kernel.blocks[b];
                fuse(block.flat.0 * kk, block.flat.1 * kk, out);
            }
        });
        if !this.kernel.full_film {
            // With vacuum, a block's magnetic runs may hold cells another
            // block's list range wrote; the `team.run` barrier above
            // orders every `k_out` write before the fuse reads.
            this.team.run(&|b| {
                // Fuse only the magnetic lanes. Vacuum lanes of every
                // batch buffer are zero (the builder zeroes vacuum
                // magnetization and nothing here writes it), so a fuse
                // over them would only recompute `0 + 0·c = 0` — on
                // shaped meshes like the triangle gates that is half the
                // flat range. Magnetic cells come in runs of consecutive
                // flat indices, and a run's lanes form one contiguous
                // interleaved range.
                let block = this.kernel.blocks[b];
                let cells = &this.kernel.cells[block.list.0..block.list.1];
                let mut p = 0;
                while p < cells.len() {
                    let run0 = cells[p] as usize;
                    let mut q = p + 1;
                    while q < cells.len() && cells[q] as usize == run0 + (q - p) {
                        q += 1;
                    }
                    fuse(run0 * kk, (run0 + (q - p)) * kk, out);
                    p = q;
                }
            });
        }
    }

    /// Batched general sweep body (see [`LlgSystem::sweep_scalar`]): the
    /// stencil table, CSR offsets and damping loads are hoisted per cell
    /// and the member loop runs innermost over the interleaved planes.
    ///
    /// The member loop is chunked into groups of up to
    /// [`SCALAR_LANES`] consecutive lanes so every data-independent
    /// branch — the op dispatch, the four neighbour-presence tests, the
    /// antenna CSR walk — runs once per cell (per chunk) instead of once
    /// per cell per member. Each lane's `h` still accumulates its terms
    /// in exactly the single-system order, so members remain bitwise
    /// identical to independent runs; only the interleaving of work
    /// across lanes changes.
    #[inline(always)]
    fn sweep_scalar_batch(&self, ci0: usize, ci1: usize, sw: &Sweep) {
        let Sweep {
            mx,
            my,
            mz,
            base,
            ant_fields,
            thermal,
            kk,
            out,
        } = *sw;
        /// Lane-chunk width for the batched scalar sweep: big enough to
        /// amortize per-cell branch hoisting for every realistic batch,
        /// small enough for comfortable stack buffers.
        const SCALAR_LANES: usize = 16;
        let has_ant = ant_fields.iter().any(|f| !f.is_empty());
        let (mxp, myp, mzp) = (mx.as_ptr(), my.as_ptr(), mz.as_ptr());
        let at = |j: usize| unsafe { Vec3::new(*mxp.add(j), *myp.add(j), *mzp.add(j)) };
        // Allocated once and reused across cells; every chunk rewrites
        // lanes `0..sl` before reading them.
        let mut mis = [Vec3::ZERO; SCALAR_LANES];
        let mut hs = [Vec3::ZERO; SCALAR_LANES];
        let mut accs = [Vec3::ZERO; SCALAR_LANES];
        for ci in ci0..ci1 {
            let i = self.kernel.cells[ci] as usize;
            let alpha = self.alpha[i];
            let prefactor = self.prefactor[i];
            let nb = self.kernel.nbrs[ci];
            let (a0, a1) = if has_ant {
                (
                    self.kernel.ant_off[ci] as usize,
                    self.kernel.ant_off[ci + 1] as usize,
                )
            } else {
                (0, 0)
            };
            let mut s0 = 0;
            while s0 < kk {
                let sl = (kk - s0).min(SCALAR_LANES);
                let f0 = i * kk + s0;
                for (t, mi) in mis.iter_mut().enumerate().take(sl) {
                    // Safety: list ranges are disjoint across blocks and
                    // only magnetic lanes are touched; `f0 + t` indexes
                    // lanes of magnetic cell `i`.
                    *mi = at(f0 + t);
                }
                match base {
                    Some(b) => {
                        let bd = b.data();
                        for (t, h) in hs.iter_mut().enumerate().take(sl) {
                            *h = bd.get(f0 + t);
                        }
                    }
                    None => {
                        for h in hs.iter_mut().take(sl) {
                            *h = Vec3::ZERO;
                        }
                    }
                }
                for op in &self.kernel.ops {
                    match *op {
                        FusedTerm::Exchange { coeff_x, coeff_y } => {
                            for acc in accs.iter_mut().take(sl) {
                                *acc = Vec3::ZERO;
                            }
                            if nb[0] != NO_NEIGHBOUR {
                                let n0 = nb[0] as usize * kk + s0;
                                for (t, acc) in accs.iter_mut().enumerate().take(sl) {
                                    *acc += (at(n0 + t) - mis[t]) * coeff_x;
                                }
                            }
                            if nb[1] != NO_NEIGHBOUR {
                                let n0 = nb[1] as usize * kk + s0;
                                for (t, acc) in accs.iter_mut().enumerate().take(sl) {
                                    *acc += (at(n0 + t) - mis[t]) * coeff_x;
                                }
                            }
                            if nb[2] != NO_NEIGHBOUR {
                                let n0 = nb[2] as usize * kk + s0;
                                for (t, acc) in accs.iter_mut().enumerate().take(sl) {
                                    *acc += (at(n0 + t) - mis[t]) * coeff_y;
                                }
                            }
                            if nb[3] != NO_NEIGHBOUR {
                                let n0 = nb[3] as usize * kk + s0;
                                for (t, acc) in accs.iter_mut().enumerate().take(sl) {
                                    *acc += (at(n0 + t) - mis[t]) * coeff_y;
                                }
                            }
                            for (t, h) in hs.iter_mut().enumerate().take(sl) {
                                *h += accs[t];
                            }
                        }
                        FusedTerm::Uniaxial { coeff, axis } => {
                            for (t, h) in hs.iter_mut().enumerate().take(sl) {
                                *h += axis * (coeff * mis[t].dot(axis));
                            }
                        }
                        FusedTerm::ThinFilm { ms } => {
                            for (t, h) in hs.iter_mut().enumerate().take(sl) {
                                h.z -= ms * mis[t].z;
                            }
                        }
                        FusedTerm::Uniform(f) => {
                            for h in hs.iter_mut().take(sl) {
                                *h += f;
                            }
                        }
                    }
                }
                if has_ant {
                    for &ai in &self.kernel.ant_ids[a0..a1] {
                        for (t, h) in hs.iter_mut().enumerate().take(sl) {
                            let f = ant_fields[s0 + t][ai as usize];
                            if f != Vec3::ZERO {
                                *h += f;
                            }
                        }
                    }
                }
                if !thermal.is_empty() {
                    let td = thermal.data();
                    for (t, h) in hs.iter_mut().enumerate().take(sl) {
                        *h += td.get(f0 + t);
                    }
                }
                for t in 0..sl {
                    let mi = mis[t];
                    let mxh = mi.cross(hs[t]);
                    let mxmxh = mi.cross(mxh);
                    // Safety: list ranges are disjoint across blocks and
                    // only magnetic cells are touched here.
                    unsafe { out.write(f0 + t, (mxh + mxmxh * alpha) * prefactor) };
                }
                s0 += sl;
            }
        }
    }

    /// Batched interior sweep (see [`LlgSystem::sweep_interior`]): on an
    /// interior run the K-interleaved neighbour offsets are the
    /// constants `±K` and `±nx·K`, so the branch-free arm is a
    /// straight-line body whose inner member loop runs over consecutive
    /// lanes.
    ///
    /// Unlike the single-system sweep, antennas do not force the whole
    /// mesh onto the generic arm: the run is split at antenna-coverage
    /// boundaries (a per-cell CSR check, done once per cell rather than
    /// once per cell per member), so the uncovered stretches — nearly
    /// everything, since antennas touch a few columns — still take the
    /// branch-free arm. Covered cells evaluate the identical expression
    /// sequence plus their antenna drives, so parity with independent
    /// runs is preserved cell for cell.
    #[inline(always)]
    fn sweep_interior_batch(
        &self,
        seg: Segment,
        std: StdOps,
        sw: &Sweep,
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))] avx2: bool,
    ) {
        let Sweep {
            mx,
            my,
            mz,
            base,
            ant_fields,
            thermal,
            kk,
            out,
        } = *sw;
        let i0 = self.kernel.cells[seg.ci0 as usize] as usize;
        let len = (seg.ci1 - seg.ci0) as usize;
        let nxk = self.kernel.nx * kk;
        let (mxp, myp, mzp) = (mx.as_ptr(), my.as_ptr(), mz.as_ptr());
        let ap = self.alpha.as_ptr();
        let pp = self.prefactor.as_ptr();
        let has_ant = ant_fields.iter().any(|f| !f.is_empty());
        if thermal.is_empty() && base.is_none() {
            // Only the exchange term is required for the fast arm: the
            // remaining canonical terms are applied conditionally, in
            // the generic ops loop's exact order, so systems without a
            // uniform Zeeman field (the common case — the triangle
            // gates apply no static field) still take this arm.
            if let Some((coeff_x, coeff_y)) = std.ex {
                let (uni, film, zee) = (std.uni, std.film, std.zee);
                // True when the cell at run offset `o` lies under an
                // antenna (a CSR range check, independent of the member).
                let covered = |o: usize| {
                    let ci = seg.ci0 as usize + o;
                    has_ant && self.kernel.ant_off[ci + 1] > self.kernel.ant_off[ci]
                };
                let mut off = 0;
                while off < len {
                    if !covered(off) {
                        // Branch-free stretch: every member of every cell
                        // runs the straight-line body over consecutive
                        // interleaved lanes.
                        let start = off;
                        while off < len && !covered(off) {
                            off += 1;
                        }
                        #[cfg(target_arch = "x86_64")]
                        if avx2 {
                            // Safety: AVX2 support was checked by the
                            // caller; the stretch holds validated
                            // interior lanes.
                            let arm = InteriorArm {
                                kk,
                                nxk,
                                m: [mxp, myp, mzp],
                                base: None,
                                coeff_x,
                                coeff_y,
                                uni,
                                film,
                                zee,
                                out,
                            };
                            unsafe { arm.stretch_avx2(i0 + start, i0 + off, ap, pp) };
                            continue;
                        }
                        // The lane loop is split into a compute phase
                        // writing stack buffers and a store phase
                        // writing the output planes: with no output
                        // stores inside it, the compute loop's memory
                        // accesses are all stride-1 loads plus local
                        // buffers, which the loop vectorizer can prove
                        // independent. The arithmetic is the `Vec3` arm
                        // unfolded component by component in the same
                        // expression order, so each lane's value is
                        // unchanged bit for bit.
                        let (outx, outy, outz) = out.planes();
                        // Zero-initialized once and reused: only lanes
                        // `0..sl` are ever written then read, so the
                        // stale tail is never observed.
                        let mut ox = [0.0f64; INTERIOR_LANES];
                        let mut oy = [0.0f64; INTERIOR_LANES];
                        let mut oz = [0.0f64; INTERIOR_LANES];
                        for i in i0 + start..i0 + off {
                            // Safety: interior-run indices are validated
                            // at build time; interleaved indices scale by
                            // K everywhere.
                            let (alpha, prefactor) = unsafe { (*ap.add(i), *pp.add(i)) };
                            let f0 = i * kk;
                            let mut s0 = 0;
                            while s0 < kk {
                                let sl = (kk - s0).min(INTERIOR_LANES);
                                let c0 = f0 + s0;
                                for t in 0..sl {
                                    let fi = c0 + t;
                                    // Safety: in-bounds interior lanes,
                                    // loads only.
                                    unsafe {
                                        let mix = *mxp.add(fi);
                                        let miy = *myp.add(fi);
                                        let miz = *mzp.add(fi);
                                        let mut accx = 0.0;
                                        let mut accy = 0.0;
                                        let mut accz = 0.0;
                                        accx += (*mxp.add(fi - kk) - mix) * coeff_x;
                                        accy += (*myp.add(fi - kk) - miy) * coeff_x;
                                        accz += (*mzp.add(fi - kk) - miz) * coeff_x;
                                        accx += (*mxp.add(fi + kk) - mix) * coeff_x;
                                        accy += (*myp.add(fi + kk) - miy) * coeff_x;
                                        accz += (*mzp.add(fi + kk) - miz) * coeff_x;
                                        accx += (*mxp.add(fi - nxk) - mix) * coeff_y;
                                        accy += (*myp.add(fi - nxk) - miy) * coeff_y;
                                        accz += (*mzp.add(fi - nxk) - miz) * coeff_y;
                                        accx += (*mxp.add(fi + nxk) - mix) * coeff_y;
                                        accy += (*myp.add(fi + nxk) - miy) * coeff_y;
                                        accz += (*mzp.add(fi + nxk) - miz) * coeff_y;
                                        let mut hx = 0.0;
                                        let mut hy = 0.0;
                                        let mut hz = 0.0;
                                        hx += accx;
                                        hy += accy;
                                        hz += accz;
                                        if let Some((ku, axis)) = uni {
                                            let ani =
                                                ku * (mix * axis.x + miy * axis.y + miz * axis.z);
                                            hx += axis.x * ani;
                                            hy += axis.y * ani;
                                            hz += axis.z * ani;
                                        }
                                        if let Some(ms) = film {
                                            hz -= ms * miz;
                                        }
                                        if let Some(z) = zee {
                                            hx += z.x;
                                            hy += z.y;
                                            hz += z.z;
                                        }
                                        let mxhx = miy * hz - miz * hy;
                                        let mxhy = miz * hx - mix * hz;
                                        let mxhz = mix * hy - miy * hx;
                                        let mxmxhx = miy * mxhz - miz * mxhy;
                                        let mxmxhy = miz * mxhx - mix * mxhz;
                                        let mxmxhz = mix * mxhy - miy * mxhx;
                                        ox[t] = (mxhx + mxmxhx * alpha) * prefactor;
                                        oy[t] = (mxhy + mxmxhy * alpha) * prefactor;
                                        oz[t] = (mxhz + mxmxhz * alpha) * prefactor;
                                    }
                                }
                                // Safety: disjoint index ownership as in
                                // the scalar sweep.
                                for (t, &v) in ox.iter().enumerate().take(sl) {
                                    unsafe { *outx.add(c0 + t) = v };
                                }
                                for (t, &v) in oy.iter().enumerate().take(sl) {
                                    unsafe { *outy.add(c0 + t) = v };
                                }
                                for (t, &v) in oz.iter().enumerate().take(sl) {
                                    unsafe { *outz.add(c0 + t) = v };
                                }
                                s0 += sl;
                            }
                        }
                    } else {
                        // An antenna-covered cell: the same expressions,
                        // then each member's drives for this cell's CSR
                        // ids — the exact sequence the generic arm (and
                        // the single-system sweep) evaluates.
                        let i = i0 + off;
                        let ci = seg.ci0 as usize + off;
                        let a0 = self.kernel.ant_off[ci] as usize;
                        let a1 = self.kernel.ant_off[ci + 1] as usize;
                        let ids = &self.kernel.ant_ids[a0..a1];
                        // Safety: as above.
                        let (alpha, prefactor) = unsafe { (*ap.add(i), *pp.add(i)) };
                        let f0 = i * kk;
                        // `ant_fields` may be empty (no member drives
                        // antennas this step) while all kk members still
                        // sweep, so indexing — not zipping — is correct.
                        #[allow(clippy::needless_range_loop)]
                        for s in 0..kk {
                            let fi = f0 + s;
                            let at = |j: usize| unsafe {
                                Vec3::new(*mxp.add(j), *myp.add(j), *mzp.add(j))
                            };
                            let mi = at(fi);
                            let mut h = Vec3::ZERO;
                            let mut acc = Vec3::ZERO;
                            acc += (at(fi - kk) - mi) * coeff_x;
                            acc += (at(fi + kk) - mi) * coeff_x;
                            acc += (at(fi - nxk) - mi) * coeff_y;
                            acc += (at(fi + nxk) - mi) * coeff_y;
                            h += acc;
                            if let Some((ku, axis)) = uni {
                                h += axis * (ku * mi.dot(axis));
                            }
                            if let Some(ms) = film {
                                h.z -= ms * mi.z;
                            }
                            if let Some(z) = zee {
                                h += z;
                            }
                            for &ai in ids {
                                let f = ant_fields[s][ai as usize];
                                if f != Vec3::ZERO {
                                    h += f;
                                }
                            }
                            let mxh = mi.cross(h);
                            let mxmxh = mi.cross(mxh);
                            // Safety: disjoint index ownership as in the
                            // scalar sweep.
                            unsafe { out.write(fi, (mxh + mxmxh * alpha) * prefactor) };
                        }
                        off += 1;
                    }
                }
                return;
            }
        }
        for off in 0..len {
            let i = i0 + off;
            let ci = seg.ci0 as usize + off;
            // Safety: as in the single-system interior sweep.
            let (alpha, prefactor) = unsafe { (*ap.add(i), *pp.add(i)) };
            let (a0, a1) = if has_ant {
                (
                    self.kernel.ant_off[ci] as usize,
                    self.kernel.ant_off[ci + 1] as usize,
                )
            } else {
                (0, 0)
            };
            let f0 = i * kk;
            // `ant_fields` may be empty (no antennas) while all kk
            // members still sweep, so indexing — not zipping — is
            // correct.
            #[allow(clippy::needless_range_loop)]
            for s in 0..kk {
                let fi = f0 + s;
                let at = |j: usize| unsafe { Vec3::new(*mxp.add(j), *myp.add(j), *mzp.add(j)) };
                let mi = at(fi);
                let mut h = match base {
                    Some(b) => b.data().get(fi),
                    None => Vec3::ZERO,
                };
                if let Some((coeff_x, coeff_y)) = std.ex {
                    let mut acc = Vec3::ZERO;
                    acc += (at(fi - kk) - mi) * coeff_x;
                    acc += (at(fi + kk) - mi) * coeff_x;
                    acc += (at(fi - nxk) - mi) * coeff_y;
                    acc += (at(fi + nxk) - mi) * coeff_y;
                    h += acc;
                }
                if let Some((coeff, axis)) = std.uni {
                    h += axis * (coeff * mi.dot(axis));
                }
                if let Some(ms) = std.film {
                    h.z -= ms * mi.z;
                }
                if let Some(f) = std.zee {
                    h += f;
                }
                if has_ant {
                    for &ai in &self.kernel.ant_ids[a0..a1] {
                        let f = ant_fields[s][ai as usize];
                        if f != Vec3::ZERO {
                            h += f;
                        }
                    }
                }
                if !thermal.is_empty() {
                    h += thermal.data().get(fi);
                }
                let mxh = mi.cross(h);
                let mxmxh = mi.cross(mxh);
                // Safety: disjoint index ownership as in the scalar sweep.
                unsafe { out.write(fi, (mxh + mxmxh * alpha) * prefactor) };
            }
        }
    }

    /// Maximum deterministic torque |dm/dt| over all cells, in 1/s (the
    /// field of [`LlgSystem::effective_field`], no thermal realization)
    /// — used as a convergence criterion by
    /// [`crate::sim::Simulation::relax`].
    ///
    /// Evaluated block-parallel with a per-block running maximum, so no
    /// full-mesh buffers are allocated; only a non-fusable term forces
    /// field buffers (it runs through the AoS reference path).
    pub fn max_torque(&self, m: &Field3, t: f64) -> f64 {
        let pre: Option<Field3> = if self.kernel.unfused.is_empty() {
            None
        } else {
            // Non-fusable terms use the thread-safe AoS reference path;
            // the layout round-trip is a pure permutation (bitwise
            // lossless).
            let mv = m.to_vec();
            let mut hv = vec![Vec3::ZERO; self.len()];
            for &ti in &self.kernel.unfused {
                self.terms[ti].accumulate(&mv, t, &mut hv);
            }
            Some(Field3::from_vec3s(&hv))
        };
        let base = pre.as_ref();
        let mut ant_fields = Vec::new();
        drive_fields(&self.antennas, t, &mut ant_fields);
        let no_thermal = Field3::zeros(0);
        let (mx, my, mz) = (m.xs(), m.ys(), m.zs());
        let partials = self.team.map_blocks(|b| {
            let block = self.kernel.blocks[b];
            let mut local: f64 = 0.0;
            for ci in block.list.0..block.list.1 {
                let i = self.kernel.cells[ci] as usize;
                let mi = Vec3::new(mx[i], my[i], mz[i]);
                let h = self.fused_field(ci, i, mi, mx, my, mz, base, &ant_fields, &no_thermal);
                local = local.max(self.torque(i, mi, h).norm());
            }
            local
        });
        partials.into_iter().fold(0.0, f64::max)
    }

    /// Sum of the energies of all conservative field terms, in joules.
    ///
    /// Each term's field is evaluated through `accumulate_par` with the
    /// worker team and the system-owned per-term scratch — the same
    /// lock-free path the integrator uses, so the demag term needs no
    /// shared fallback buffer. The per-cell arithmetic (and the serial
    /// dot-product reduction) matches the reference
    /// [`FieldTerm::energy`] exactly, so the value is bitwise unchanged.
    pub fn energy(&mut self, m: &Field3, t: f64, ms: f64, cell_volume: f64) -> f64 {
        let n = m.len();
        let mut h = Field3::zeros(n);
        let LlgSystem {
            terms,
            term_scratch,
            team,
            ..
        } = self;
        let (mx, my, mz) = (m.xs(), m.ys(), m.zs());
        let mut total = 0.0;
        for (term, scratch) in terms.iter().zip(term_scratch.iter_mut()) {
            h.fill(Vec3::ZERO);
            let s = scratch
                .as_mut()
                .map(|s| &mut **s as &mut (dyn std::any::Any + Send + Sync));
            term.accumulate_par(m, t, &mut h, team, s);
            let (hx, hy, hz) = (h.xs(), h.ys(), h.zs());
            let mut dot = 0.0;
            for i in 0..n {
                dot += mx[i] * hx[i] + my[i] * hy[i] + mz[i] * hz[i];
            }
            total += -term.energy_prefactor() * crate::MU0 * ms * cell_volume * dot;
        }
        total
    }
}

impl std::fmt::Debug for LlgSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LlgSystem")
            .field("cells", &self.len())
            .field(
                "terms",
                &self.terms.iter().map(|t| t.name()).collect::<Vec<_>>(),
            )
            .field("antennas", &self.antennas.len())
            .field("gamma", &self.gamma)
            .field("threads", &self.team.threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::excitation::Drive;
    use crate::field::anisotropy::UniaxialAnisotropy;
    use crate::field::demag::ThinFilmDemag;
    use crate::field::exchange::Exchange;
    use crate::field::zeeman::Zeeman;
    use crate::material::Material;
    use crate::mesh::Mesh;
    use crate::GAMMA;

    fn single_cell_system(alpha: f64, field: Vec3) -> LlgSystem {
        SystemSpec {
            terms: vec![Box::new(Zeeman::uniform(field))],
            antennas: Vec::new(),
            alpha: vec![alpha],
            gamma: GAMMA,
            mask: vec![true],
            nx: 1,
            threads: 1,
        }
        .build()
    }

    /// One K = 1 stage evaluation of `dm/dt` at time `t`, with the
    /// system's own antenna drives and the given thermal realization
    /// (empty at T = 0), fusing nothing.
    fn rhs(sys: &mut LlgSystem, m: &Field3, t: f64, thermal: &FieldBatch) -> Field3 {
        let n = sys.len();
        let mut y = FieldBatch::zeros(n, 1);
        y.data_mut().copy_from(m);
        let mut base = FieldBatch::zeros(n, 1);
        let (mut no_m, mut no_h) = (Field3::zeros(0), Field3::zeros(0));
        let wrote = sys.unfused_prepass_batch(&y, t, &mut base, &mut no_m, &mut no_h);
        let mut ant = Vec::new();
        drive_fields(&sys.antennas, t, &mut ant);
        let mut k = FieldBatch::zeros(n, 1);
        sys.rhs_stage_batch(
            &y,
            &mut k,
            wrote.then_some(&base),
            &[ant],
            thermal,
            |_, _, _| {},
        );
        k.data().clone()
    }

    fn no_thermal() -> FieldBatch {
        FieldBatch::empty(1)
    }

    #[test]
    fn torque_is_zero_at_equilibrium() {
        let sys = single_cell_system(0.01, Vec3::Z * 1e5);
        let m = Field3::from_vec3s(&[Vec3::Z]);
        assert!(sys.max_torque(&m, 0.0) < 1e-6);
    }

    #[test]
    fn undamped_motion_is_pure_precession() {
        // α = 0: dm/dt ⊥ m and ⊥ H; |dm/dt| = γμ₀|H| sinθ.
        let h0 = 1e5;
        let mut sys = single_cell_system(0.0, Vec3::Z * h0);
        let m = Field3::from_vec3s(&[Vec3::X]);
        let dmdt = rhs(&mut sys, &m, 0.0, &no_thermal());
        // m×H = X×Z·h0 = -Y·h0; prefactor −γμ₀ ⇒ dm/dt = +γμ₀h0·Y
        let expected = GAMMA * MU0 * h0;
        assert!((dmdt.get(0).y - expected).abs() / expected < 1e-12);
        assert!(dmdt.get(0).x.abs() < 1e-3);
        assert!(dmdt.get(0).z.abs() < 1e-3);
    }

    #[test]
    fn damping_pulls_towards_field() {
        let mut sys = single_cell_system(0.1, Vec3::Z * 1e5);
        let m = Field3::from_vec3s(&[Vec3::X]);
        let dmdt = rhs(&mut sys, &m, 0.0, &no_thermal());
        // The damping term rotates m towards +z.
        assert!(
            dmdt.get(0).z > 0.0,
            "damped motion must approach the field axis"
        );
    }

    #[test]
    fn torque_preserves_magnitude() {
        // dm/dt ⊥ m always, so d|m|²/dt = 2 m·dm/dt = 0.
        let mut sys = single_cell_system(0.25, Vec3::new(3e4, -2e4, 5e4));
        let m = Field3::from_vec3s(&[Vec3::new(0.6, 0.64, 0.48).normalized()]);
        let dmdt = rhs(&mut sys, &m, 0.0, &no_thermal());
        assert!(m.get(0).dot(dmdt.get(0)).abs() < 1e-3);
    }

    #[test]
    fn vacuum_cells_have_zero_torque() {
        let mut sys = SystemSpec {
            terms: vec![Box::new(Zeeman::uniform(Vec3::Z * 1e5))],
            antennas: Vec::new(),
            alpha: vec![0.01],
            gamma: GAMMA,
            mask: vec![false],
            nx: 1,
            threads: 1,
        }
        .build();
        let m = Field3::from_vec3s(&[Vec3::X]);
        assert_eq!(sys.max_torque(&m, 0.0), 0.0);
        // The sweep never writes vacuum lanes, so a zeroed k stays zero.
        let dmdt = rhs(&mut sys, &m, 0.0, &no_thermal());
        assert_eq!(dmdt.get(0), Vec3::ZERO, "vacuum lane must keep zero torque");
    }

    #[test]
    fn thermal_realization_enters_the_stage_field() {
        // m ∥ ẑ with no deterministic field: any torque comes from the
        // thermal realization passed to the stage (H ∥ x̂).
        let mut sys = single_cell_system(0.01, Vec3::ZERO);
        let m = Field3::from_vec3s(&[Vec3::Z]);
        assert_eq!(rhs(&mut sys, &m, 0.0, &no_thermal()).get(0), Vec3::ZERO);
        let mut thermal = FieldBatch::zeros(1, 1);
        thermal.set(0, 0, Vec3::X * 123.0);
        assert!(rhs(&mut sys, &m, 0.0, &thermal).get(0).norm() > 0.0);
        // The reference paths are deterministic: no thermal term.
        assert_eq!(sys.max_torque(&m, 0.0), 0.0);
    }

    #[test]
    fn higher_damping_slows_precession_rate() {
        // The 1/(1+α²) prefactor reduces the precession component.
        let m = Field3::from_vec3s(&[Vec3::X]);
        let dmdt_lo = rhs(
            &mut single_cell_system(0.0, Vec3::Z * 1e5),
            &m,
            0.0,
            &no_thermal(),
        );
        let dmdt_hi = rhs(
            &mut single_cell_system(1.0, Vec3::Z * 1e5),
            &m,
            0.0,
            &no_thermal(),
        );
        assert!((dmdt_hi.get(0).y.abs() - dmdt_lo.get(0).y.abs() / 2.0).abs() < 1.0);
    }

    /// Builds a full multi-term system on a masked mesh with an antenna,
    /// for cross-checking the fused kernel against the reference path.
    fn masked_multiterm_system(threads: usize) -> (LlgSystem, Vec<Vec3>) {
        let mut mesh = Mesh::new(16, 8, [5e-9, 5e-9, 1e-9]).unwrap();
        // Punch some vacuum holes, including on a block boundary.
        mesh.set_magnetic(3, 2, false);
        mesh.set_magnetic(7, 4, false);
        mesh.set_magnetic(0, 0, false);
        let material = Material::fecob();
        let antenna = Antenna::over_rect(
            &mesh,
            0.0,
            0.0,
            20e-9,
            40e-9,
            Vec3::X,
            Drive::logic_cw(3e3, 10e9, 0.1),
        );
        let n = mesh.cell_count();
        let m: Vec<Vec3> = (0..n)
            .map(|i| {
                if mesh.mask()[i] {
                    Vec3::new(0.1 * (i as f64).sin(), 0.1 * (i as f64).cos(), 1.0).normalized()
                } else {
                    Vec3::ZERO
                }
            })
            .collect();
        let sys = SystemSpec {
            terms: vec![
                Box::new(Exchange::new(&mesh, &material)),
                Box::new(UniaxialAnisotropy::new(&mesh, &material)),
                Box::new(ThinFilmDemag::new(&mesh, &material)),
                Box::new(Zeeman::uniform(Vec3::new(1e3, 0.0, 2e3))),
            ],
            antennas: vec![antenna],
            alpha: (0..n).map(|i| 0.004 + 1e-5 * i as f64).collect(),
            gamma: material.gamma(),
            mask: mesh.mask().to_vec(),
            nx: mesh.nx(),
            threads,
        }
        .build();
        (sys, m)
    }

    #[test]
    fn fused_rhs_matches_reference_effective_field() {
        let (mut sys, m) = masked_multiterm_system(1);
        let t = 13e-12;
        let n = m.len();
        let ms = Field3::from_vec3s(&m);
        let dmdt = rhs(&mut sys, &ms, t, &no_thermal());
        // Reference: term-by-term field, then the LLG formula.
        let mut h = vec![Vec3::ZERO; n];
        sys.effective_field(&m, t, &mut h);
        for i in 0..n {
            if !sys.mask[i] {
                assert_eq!(dmdt.get(i), Vec3::ZERO);
                continue;
            }
            let alpha = sys.alpha[i];
            let prefactor = -sys.gamma * MU0 / (1.0 + alpha * alpha);
            let mxh = m[i].cross(h[i]);
            let expected = (mxh + m[i].cross(mxh) * alpha) * prefactor;
            assert_eq!(dmdt.get(i), expected, "cell {i} diverges from reference");
        }
    }

    /// A full film with exactly the canonical term set and no antennas —
    /// the configuration the branch-free interior sweep specializes on.
    fn full_film_std_system(threads: usize) -> (LlgSystem, Vec<Vec3>) {
        let mesh = Mesh::new(32, 16, [5e-9, 5e-9, 1e-9]).unwrap();
        let material = Material::fecob();
        let n = mesh.cell_count();
        let m: Vec<Vec3> = (0..n)
            .map(|i| {
                Vec3::new(
                    0.3 * (0.7 * i as f64).sin(),
                    0.2 * (0.4 * i as f64).cos(),
                    1.0,
                )
                .normalized()
            })
            .collect();
        let sys = SystemSpec {
            terms: vec![
                Box::new(Exchange::new(&mesh, &material)),
                Box::new(UniaxialAnisotropy::new(&mesh, &material)),
                Box::new(ThinFilmDemag::new(&mesh, &material)),
                Box::new(Zeeman::uniform(Vec3::new(0.0, 0.0, 5e4))),
            ],
            antennas: Vec::new(),
            alpha: vec![material.gilbert_damping(); n],
            gamma: material.gamma(),
            mask: vec![true; n],
            nx: mesh.nx(),
            threads,
        }
        .build();
        (sys, m)
    }

    #[test]
    fn branch_free_interior_sweep_matches_reference() {
        // The full-film std-term fast arm must agree bitwise with the
        // term-by-term reference (which exercises none of the interior
        // specializations), for serial and threaded partitions alike.
        let t = 0.0;
        let (reference_sys, m) = full_film_std_system(1);
        let n = m.len();
        let mut h = vec![Vec3::ZERO; n];
        reference_sys.effective_field(&m, t, &mut h);
        for threads in [1, 3, 4] {
            let (mut sys, m2) = full_film_std_system(threads);
            assert_eq!(m, m2);
            let ms = Field3::from_vec3s(&m2);
            let dmdt = rhs(&mut sys, &ms, t, &no_thermal());
            for i in 0..n {
                let alpha = sys.alpha[i];
                let prefactor = -sys.gamma * MU0 / (1.0 + alpha * alpha);
                let mxh = m[i].cross(h[i]);
                let expected = (mxh + m[i].cross(mxh) * alpha) * prefactor;
                assert_eq!(
                    dmdt.get(i),
                    expected,
                    "cell {i} diverges from reference at {threads} threads"
                );
            }
        }
    }

    /// The K = 1 stage torque of `sys` at `m` against the term-by-term
    /// reference (`effective_field`, then the LLG formula), bit for bit.
    fn assert_rhs_matches_reference(sys: &mut LlgSystem, m: &[Vec3], t: f64, what: &str) {
        let n = m.len();
        let mut h = vec![Vec3::ZERO; n];
        sys.effective_field(m, t, &mut h);
        let dmdt = rhs(sys, &Field3::from_vec3s(m), t, &no_thermal());
        for i in 0..n {
            if !sys.mask[i] {
                assert_eq!(dmdt.get(i), Vec3::ZERO, "{what}: vacuum cell {i}");
                continue;
            }
            let alpha = sys.alpha[i];
            let prefactor = -sys.gamma * MU0 / (1.0 + alpha * alpha);
            let mxh = m[i].cross(h[i]);
            let expected = (mxh + m[i].cross(mxh) * alpha) * prefactor;
            let got = dmdt.get(i);
            assert_eq!(
                [got.x, got.y, got.z].map(f64::to_bits),
                [expected.x, expected.y, expected.z].map(f64::to_bits),
                "{what}: cell {i} diverges from the reference"
            );
        }
    }

    #[test]
    fn k1_interior_arm_matches_reference_without_the_full_term_set() {
        // The K = 1 fast arm needs only exchange: each setup drops or
        // adds what used to send every cell to the generic arm, and the
        // torque must still be the term-by-term reference bit for bit,
        // serial and threaded.
        let material = Material::fecob();
        let tilted = |mesh: &Mesh| -> Vec<Vec3> {
            (0..mesh.cell_count())
                .map(|i| {
                    if !mesh.mask()[i] {
                        return Vec3::ZERO;
                    }
                    let v = Vec3::new(
                        0.3 * (0.7 * i as f64).sin(),
                        0.2 * (0.4 * i as f64).cos(),
                        1.0,
                    );
                    v.normalized()
                })
                .collect()
        };
        let build = |mesh: &Mesh,
                     terms: Vec<Box<dyn FieldTerm>>,
                     antennas: Vec<Antenna>,
                     threads: usize| {
            let n = mesh.cell_count();
            SystemSpec {
                terms,
                antennas,
                alpha: (0..n).map(|i| 0.004 + 1e-5 * i as f64).collect(),
                gamma: material.gamma(),
                mask: mesh.mask().to_vec(),
                nx: mesh.nx(),
                threads,
            }
            .build()
        };
        let film = Mesh::new(32, 16, [5e-9, 5e-9, 1e-9]).unwrap();
        let mut holes = film.clone();
        holes.set_magnetic(9, 5, false);
        holes.set_magnetic(20, 11, false);
        holes.set_magnetic(0, 8, false);
        let antenna = |mesh: &Mesh| {
            Antenna::over_rect(
                mesh,
                40e-9,
                0.0,
                55e-9,
                80e-9,
                Vec3::X,
                Drive::logic_cw(3e3, 10e9, 0.1),
            )
        };
        for threads in [1, 3] {
            // No Zeeman term (the gates apply no static field).
            let mut sys = build(
                &film,
                vec![
                    Box::new(Exchange::new(&film, &material)),
                    Box::new(UniaxialAnisotropy::new(&film, &material)),
                    Box::new(ThinFilmDemag::new(&film, &material)),
                ],
                Vec::new(),
                threads,
            );
            assert_rhs_matches_reference(&mut sys, &tilted(&film), 0.0, "no Zeeman");
            // No thin film; a Newell pre-pass field instead (listed first,
            // so the reference adds it first too).
            let mut sys = build(
                &film,
                vec![
                    Box::new(crate::field::demag::NewellDemag::new(&film, &material)),
                    Box::new(Exchange::new(&film, &material)),
                    Box::new(UniaxialAnisotropy::new(&film, &material)),
                    Box::new(Zeeman::uniform(Vec3::new(0.0, 1e3, 5e4))),
                ],
                Vec::new(),
                threads,
            );
            assert_rhs_matches_reference(&mut sys, &tilted(&film), 0.0, "base field");
            // Antenna-covered cells inside interior runs.
            let mut sys = build(
                &film,
                vec![
                    Box::new(Exchange::new(&film, &material)),
                    Box::new(ThinFilmDemag::new(&film, &material)),
                ],
                vec![antenna(&film)],
                threads,
            );
            assert!(sys.antennas[0].cells().len() >= 3 * 16);
            assert_rhs_matches_reference(&mut sys, &tilted(&film), 13e-12, "antenna");
            // A masked mesh: vacuum holes split the interior runs.
            let mut sys = build(
                &holes,
                vec![
                    Box::new(Exchange::new(&holes, &material)),
                    Box::new(UniaxialAnisotropy::new(&holes, &material)),
                    Box::new(ThinFilmDemag::new(&holes, &material)),
                ],
                vec![antenna(&holes)],
                threads,
            );
            assert_rhs_matches_reference(&mut sys, &tilted(&holes), 7e-12, "masked mesh");
        }
    }

    #[test]
    fn rhs_is_bitwise_identical_across_thread_counts() {
        let t = 7e-12;
        let (mut serial, m) = masked_multiterm_system(1);
        let ms = Field3::from_vec3s(&m);
        let expected = rhs(&mut serial, &ms, t, &no_thermal());
        let torque_serial = serial.max_torque(&ms, t);
        for threads in [2, 3, 4, 7] {
            let (mut sys, m2) = masked_multiterm_system(threads);
            assert_eq!(m, m2);
            let ms2 = Field3::from_vec3s(&m2);
            let dmdt = rhs(&mut sys, &ms2, t, &no_thermal());
            assert_eq!(dmdt, expected, "threads={threads} diverged");
            assert_eq!(sys.max_torque(&ms2, t), torque_serial);
        }
    }

    #[test]
    fn batched_rhs_is_bitwise_identical_to_member_runs() {
        // K members share geometry/terms but differ in state, drive
        // phase (emulated by evaluating the antennas at different
        // times) and thermal realization. The K = 3 lane kernels must
        // reproduce each member's K = 1 evaluation (the single-system
        // kernels) bit for bit, at several thread counts.
        let kk = 3;
        let times = [3e-12, 7.5e-12, 11e-12];
        let (probe_sys, m0) = masked_multiterm_system(1);
        let n = m0.len();
        // Distinct per-member states and thermal buffers.
        let member_m: Vec<Vec<Vec3>> = (0..kk)
            .map(|s| {
                m0.iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        if v == Vec3::ZERO {
                            v
                        } else {
                            Vec3::new(v.x + 0.01 * s as f64, v.y, v.z + 0.02 * (i % 5) as f64)
                                .normalized()
                        }
                    })
                    .collect()
            })
            .collect();
        let member_thermal: Vec<Vec<Vec3>> = (0..kk)
            .map(|s| {
                (0..n)
                    .map(|i| Vec3::new(1.0 + s as f64, i as f64 * 0.5, -(s as f64)) * 10.0)
                    .collect()
            })
            .collect();
        // Reference: independent single-system evaluations.
        let mut expected: Vec<Field3> = Vec::new();
        for s in 0..kk {
            let (mut sys, _) = masked_multiterm_system(1);
            let mut thermal = FieldBatch::zeros(n, 1);
            thermal.load_member(0, member_thermal[s].as_slice());
            let ms = Field3::from_vec3s(&member_m[s]);
            expected.push(rhs(&mut sys, &ms, times[s], &thermal));
        }
        let ant_fields: Vec<Vec<Vec3>> = times
            .iter()
            .map(|&t| {
                let mut f = Vec::new();
                drive_fields(&probe_sys.antennas, t, &mut f);
                f
            })
            .collect();
        for threads in [1, 2, 4] {
            let (sys, _) = masked_multiterm_system(threads);
            let mut y = FieldBatch::zeros(n, kk);
            let mut thermal = FieldBatch::zeros(n, kk);
            for s in 0..kk {
                y.load_member(s, member_m[s].as_slice());
                thermal.load_member(s, member_thermal[s].as_slice());
            }
            let mut k_out = FieldBatch::zeros(n, kk);
            sys.rhs_stage_batch(&y, &mut k_out, None, &ant_fields, &thermal, |_, _, _| {});
            for (s, want) in expected.iter().enumerate().take(kk) {
                let mut got = Field3::zeros(n);
                k_out.store_member(s, &mut got);
                assert_eq!(&got, want, "member {s} diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn fuse_covers_magnetic_lanes_once() {
        // The fuse ranges must cover every magnetic lane exactly once —
        // at K = 1 (single-system kernels) and K = 2 (lane kernels) —
        // and skip vacuum lanes, whose k stays zero.
        for (kk, threads) in [(1, 1), (1, 3), (1, 4), (2, 1), (2, 3)] {
            let (sys, m) = masked_multiterm_system(threads);
            let n = m.len();
            let mut y = FieldBatch::zeros(n, kk);
            for s in 0..kk {
                y.load_member(s, m.as_slice());
            }
            let mut k_out = FieldBatch::zeros(n, kk);
            let thermal = FieldBatch::empty(kk);
            let hits: Vec<std::sync::atomic::AtomicU32> = (0..n * kk)
                .map(|_| std::sync::atomic::AtomicU32::new(0))
                .collect();
            let mut drives = Vec::new();
            drive_fields(&sys.antennas, 1e-12, &mut drives);
            let ant_fields = vec![drives; kk];
            sys.rhs_stage_batch(&y, &mut k_out, None, &ant_fields, &thermal, |i0, i1, kv| {
                for (fi, hit) in hits.iter().enumerate().take(i1).skip(i0) {
                    hit.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    assert_ne!(unsafe { kv.read(fi) }, Vec3::ZERO, "magnetic lane {fi}");
                }
            });
            for (fi, h) in hits.iter().enumerate() {
                // Magnetic lanes fuse exactly once; vacuum lanes are
                // skipped entirely (their buffers stay zero).
                let expected = if m[fi / kk] == Vec3::ZERO { 0 } else { 1 };
                assert_eq!(
                    h.load(std::sync::atomic::Ordering::Relaxed),
                    expected,
                    "flat index {fi} fused at K = {kk}, {threads} threads"
                );
                if expected == 0 {
                    assert_eq!(k_out.data().get(fi), Vec3::ZERO, "vacuum lane {fi}");
                }
            }
        }
    }

    #[test]
    fn swap_alpha_refreshes_the_prefactor_table() {
        let (mut sys, m) = masked_multiterm_system(2);
        let ms = Field3::from_vec3s(&m);
        let t = 5e-12;
        let before = sys.max_torque(&ms, t);
        let mut relax_map = vec![0.5; sys.len()];
        sys.swap_alpha(&mut relax_map);
        let damped = sys.max_torque(&ms, t);
        assert_ne!(before, damped, "new damping map must change the torque");
        sys.swap_alpha(&mut relax_map);
        assert_eq!(
            sys.max_torque(&ms, t),
            before,
            "restoring the damping map must restore the torque bitwise"
        );
        assert!(relax_map.iter().all(|&a| a == 0.5));
    }

    #[test]
    fn antenna_map_follows_add_and_clear() {
        let (mut sys, m) = masked_multiterm_system(2);
        let m = Field3::from_vec3s(&m);
        let t = 11e-12;
        let with_antenna = sys.max_torque(&m, t);
        let saved = std::mem::take(&mut sys.antennas);
        let without = sys.max_torque(&m, t);
        assert_ne!(with_antenna, without, "antenna must influence the torque");
        sys.antennas = saved;
        assert_eq!(sys.max_torque(&m, t), with_antenna);
        sys.clear_antennas();
        assert_eq!(sys.max_torque(&m, t), without);
    }
}
