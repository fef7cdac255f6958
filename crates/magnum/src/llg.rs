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
//! system (no locks, no per-call allocation). The reference paths
//! (`effective_field`, `max_torque`, energy accounting) call the same
//! `accumulate_par`; where they hold no scratch the term allocates its
//! own, and the field is bitwise the same by contract.
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
//! The stencil table stores the cell itself where a neighbour is missing
//! (mesh edge or vacuum), so every cell gathers four neighbours without
//! a presence test. That changes no bit: for finite m a self-neighbour
//! contributes `(m − m)·c = ±0`, the exchange accumulator starts at +0
//! and is never −0 (under round-to-nearest a sum is −0 only when both
//! operands are), and adding ±0 to it is the identity.
//!
//! Cells that no antenna covers take one branch-free body, `InteriorArm`,
//! with K interleaved lanes per cell, whenever the op sequence is
//! canonical and includes exchange (`sweep_arm`). Interior runs feed it
//! the constant offsets `±1` and `±nx`; at K ≥ 2 every other cell feeds
//! it its row of the stencil table, so at K ≥ 4 every such cell runs
//! four members per AVX2 vector. The remaining cells — at K = 1 the
//! stencil cells, at every K the antenna-covered cells and, for a
//! non-canonical op sequence, every cell — take the one scalar body,
//! `sweep_scalar`: `fused_field` + `torque` per lane `i·K + s`, its
//! member loop inside the cell loop. The K = 1 sweep passes K as the
//! literal 1, so that copy compiles with a constant stride from the same
//! source. Both bodies evaluate the same expression sequence per (cell,
//! member), so a member of a batch is bitwise identical to the same
//! simulation stepped alone.

use crate::excitation::Antenna;
use crate::field::{FieldTerm, FusedTerm};
use crate::field3::{Field3, Field3Ptr, FieldBatch};
use crate::math::Vec3;
use crate::par::{chunk_bounds, WorkerTeam};
use crate::MU0;

/// Refills `out` with each antenna's drive field at time `t` (empty when
/// there are no antennas). `out` keeps its capacity, so refilling it
/// every stage allocates nothing once it has held the antenna count.
pub(crate) fn drive_fields(antennas: &[Antenna], t: f64, out: &mut Vec<Vec3>) {
    out.clear();
    out.extend(antennas.iter().map(|a| a.direction() * a.drive().value(t)));
}

/// One contiguous slice of the magnetic-cell list assigned to a worker
/// block.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Range into the magnetic-cell list — the actual compute work.
    list: (usize, usize),
    /// Range into [`FusedKernel::segs`] covering `list`.
    segs: (usize, usize),
}

/// The magnetic cells of each worker block as runs of consecutive flat
/// indices, derived once at build: the stage fuse and the
/// renormalization walk these instead of re-deriving them from the cell
/// list or the mask every time. Block `b` owns list range
/// `chunk_bounds(cells, blocks, b)` — the stage sweep's partition — and
/// a run's K lanes form one contiguous interleaved range.
#[derive(Debug, Clone, Default)]
pub(crate) struct MagneticRuns {
    /// Flat cell ranges `[start, end)` of every block, in block order.
    runs: Vec<(usize, usize)>,
    /// Per block, its range into `runs`.
    blocks: Vec<(usize, usize)>,
}

impl MagneticRuns {
    /// Splits the ascending magnetic-cell list `cells` into `blocks`
    /// list chunks and each chunk into its runs.
    pub(crate) fn new(cells: &[u32], blocks: usize) -> Self {
        let mut out = MagneticRuns::default();
        for b in 0..blocks {
            let (c0, c1) = chunk_bounds(cells.len(), blocks, b);
            let first = out.runs.len();
            let mut p = c0;
            while p < c1 {
                let start = cells[p] as usize;
                let mut q = p + 1;
                while q < c1 && cells[q] as usize == start + (q - p) {
                    q += 1;
                }
                out.runs.push((start, start + (q - p)));
                p = q;
            }
            out.blocks.push((first, out.runs.len()));
        }
        out
    }

    /// Block `b`'s runs, ascending.
    pub(crate) fn block(&self, b: usize) -> &[(usize, usize)] {
        let (r0, r1) = self.blocks[b];
        &self.runs[r0..r1]
    }

    /// The number of blocks.
    pub(crate) fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// One past the last magnetic cell (0 without any).
    pub(crate) fn end(&self) -> usize {
        self.runs.last().map_or(0, |r| r.1)
    }
}

/// A contiguous piece of a block's magnetic-cell list: either an interior
/// run — consecutive flat indices whose four neighbours all exist, so the
/// arm takes the constant offsets `±1`, `±nx` — or a stencil stretch,
/// whose cells take their neighbours from the stencil table. Splitting
/// the list this way changes nothing about per-cell arithmetic, only
/// where the neighbour indices come from and which loop body executes
/// it.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Start index into the magnetic-cell list.
    ci0: u32,
    /// One past the end.
    ci1: u32,
    /// True for interior runs.
    interior: bool,
}

/// Interior runs shorter than this stay in the stencil stretch — the
/// constant-offset loop only pays off once it amortizes its setup.
const MIN_RUN: usize = 8;

/// One plane's exchange accumulation for four consecutive lanes whose
/// `[left, right, down, up]` neighbours start at lanes `nb`:
/// `(((0 + (m[nb0]-m)·cx) + (m[nb1]-m)·cx) + (m[nb2]-m)·cy) +
/// (m[nb3]-m)·cy`, the exact summation order of the scalar arm.
///
/// # Safety
///
/// Each `nb[d]` plus three lanes must be in bounds for `mp`, and the
/// host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn exchange4(
    mp: *const f64,
    nb: [usize; 4],
    mi: std::arch::x86_64::__m256d,
    cx: std::arch::x86_64::__m256d,
    cy: std::arch::x86_64::__m256d,
    zero: std::arch::x86_64::__m256d,
) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    let t0 = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(mp.add(nb[0])), mi), cx);
    let t1 = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(mp.add(nb[1])), mi), cx);
    let t2 = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(mp.add(nb[2])), mi), cy);
    let t3 = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(mp.add(nb[3])), mi), cy);
    _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(zero, t0), t1), t2),
        t3,
    )
}

/// The loop invariants of the branch-free body: the batch width, the
/// stage-input, pre-pass, thermal and output planes, and the fast arm's
/// term parameters (exchange required, the rest applied when present,
/// in the generic ops loop's exact order). The neighbour lanes come with
/// each call, from the interior offsets or the stencil table.
#[derive(Clone, Copy)]
struct InteriorArm {
    /// Interleaved lanes per cell (the batch width K).
    kk: usize,
    m: [*const f64; 3],
    /// The pre-pass field planes, when a non-local term wrote one.
    base: Option<[*const f64; 3]>,
    /// The thermal realization planes, when the stage has one.
    thermal: Option<[*const f64; 3]>,
    coeff_x: f64,
    coeff_y: f64,
    uni: Option<(f64, Vec3)>,
    film: Option<f64>,
    zee: Option<Vec3>,
    out: Field3Ptr,
}

impl InteriorArm {
    /// The scalar body at interleaved lane `fi`: `h` starts from the
    /// pre-pass field (or zero), then exchange, anisotropy, thin film,
    /// Zeeman and the thermal field in [`LlgSystem::fused_field`]'s order
    /// and its `Vec3` arithmetic unfolded per component, then the torque.
    ///
    /// # Safety
    ///
    /// `fi` must be a magnetic lane owned by the calling block, and `nb`
    /// its `[left, right, down, up]` neighbour lanes — each in bounds and
    /// magnetic, or `fi` itself where the neighbour is missing.
    #[inline(always)]
    unsafe fn lane(&self, fi: usize, nb: [usize; 4], alpha: f64, prefactor: f64) {
        let (cx, cy) = (self.coeff_x, self.coeff_y);
        let [mxp, myp, mzp] = self.m;
        let (outx, outy, outz) = self.out.planes();
        let mix = *mxp.add(fi);
        let miy = *myp.add(fi);
        let miz = *mzp.add(fi);
        let mut accx = 0.0;
        let mut accy = 0.0;
        let mut accz = 0.0;
        accx += (*mxp.add(nb[0]) - mix) * cx;
        accy += (*myp.add(nb[0]) - miy) * cx;
        accz += (*mzp.add(nb[0]) - miz) * cx;
        accx += (*mxp.add(nb[1]) - mix) * cx;
        accy += (*myp.add(nb[1]) - miy) * cx;
        accz += (*mzp.add(nb[1]) - miz) * cx;
        accx += (*mxp.add(nb[2]) - mix) * cy;
        accy += (*myp.add(nb[2]) - miy) * cy;
        accz += (*mzp.add(nb[2]) - miz) * cy;
        accx += (*mxp.add(nb[3]) - mix) * cy;
        accy += (*myp.add(nb[3]) - miy) * cy;
        accz += (*mzp.add(nb[3]) - miz) * cy;
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
        if let Some([tx, ty, tz]) = self.thermal {
            hx += *tx.add(fi);
            hy += *ty.add(fi);
            hz += *tz.add(fi);
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
    /// As for [`InteriorArm::lane`], for all four lanes `fi + t` with
    /// neighbour lanes `nb[d] + t`; the host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn lanes4(
        &self,
        fi: usize,
        nb: [usize; 4],
        av: std::arch::x86_64::__m256d,
        pv: std::arch::x86_64::__m256d,
    ) {
        use std::arch::x86_64::*;
        let [mxp, myp, mzp] = self.m;
        let (outx, outy, outz) = self.out.planes();
        let cx = _mm256_set1_pd(self.coeff_x);
        let cy = _mm256_set1_pd(self.coeff_y);
        let zero = _mm256_setzero_pd();
        let mix = _mm256_loadu_pd(mxp.add(fi));
        let miy = _mm256_loadu_pd(myp.add(fi));
        let miz = _mm256_loadu_pd(mzp.add(fi));
        let accx = exchange4(mxp, nb, mix, cx, cy, zero);
        let accy = exchange4(myp, nb, miy, cx, cy, zero);
        let accz = exchange4(mzp, nb, miz, cx, cy, zero);
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
        if let Some([tx, ty, tz]) = self.thermal {
            hx = _mm256_add_pd(hx, _mm256_loadu_pd(tx.add(fi)));
            hy = _mm256_add_pd(hy, _mm256_loadu_pd(ty.add(fi)));
            hz = _mm256_add_pd(hz, _mm256_loadu_pd(tz.add(fi)));
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

    /// The walk for this host: the AVX2 forms when `avx2` is set —
    /// [`InteriorArm::interior1_avx2`] for a K = 1 interior run,
    /// [`InteriorArm::walk_avx2`] otherwise — else [`InteriorArm::walk`].
    ///
    /// # Safety
    ///
    /// As for [`InteriorArm::walk`]; with `avx2` set the host must support
    /// AVX2.
    #[inline(always)]
    unsafe fn run(
        &self,
        ci_lo: usize,
        ci_hi: usize,
        st: Stencil,
        ap: *const f64,
        pp: *const f64,
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))] avx2: bool,
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx2 {
            return match st {
                Stencil::Interior { shift, nx } if self.kk == 1 => {
                    self.interior1_avx2(ci_lo + shift, ci_hi + shift, nx, ap, pp)
                }
                _ => self.walk_avx2(ci_lo, ci_hi, st, ap, pp),
            };
        }
        self.walk(ci_lo, ci_hi, st, ap, pp)
    }

    /// The branch-free walk over list cells `ci_lo..ci_hi`, one lane at
    /// a time — the portable form of [`InteriorArm::walk_avx2`]. `st`
    /// gives each flat cell and its `[left, right, down, up]` neighbour
    /// cells; member `s` of neighbour `j` is lane `j·K + s`.
    ///
    /// # Safety
    ///
    /// Every cell must be magnetic, owned by the calling block and not
    /// covered by an antenna, with `st` giving neighbours as
    /// [`InteriorArm::lane`] requires; `ap`/`pp` hold one damping and
    /// prefactor per cell.
    #[inline(always)]
    unsafe fn walk(&self, ci_lo: usize, ci_hi: usize, st: Stencil, ap: *const f64, pp: *const f64) {
        let kk = self.kk;
        for ci in ci_lo..ci_hi {
            let (i, nb) = st.cell(ci);
            let (alpha, prefactor) = (*ap.add(i), *pp.add(i));
            for s in 0..kk {
                self.lane(i * kk + s, nb.map(|j| j * kk + s), alpha, prefactor);
            }
        }
    }

    /// [`InteriorArm::walk`] four lanes at a time: four members of one
    /// cell per vector, the members beyond the last multiple of four on
    /// the scalar body (at K = 1 that is every cell).
    ///
    /// # Safety
    ///
    /// As for [`InteriorArm::walk`]; the host must support AVX2 (checked
    /// at runtime by the dispatching caller).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn walk_avx2(
        &self,
        ci_lo: usize,
        ci_hi: usize,
        st: Stencil,
        ap: *const f64,
        pp: *const f64,
    ) {
        use std::arch::x86_64::*;
        let kk = self.kk;
        for ci in ci_lo..ci_hi {
            let (i, nb) = st.cell(ci);
            let (alpha, prefactor) = (*ap.add(i), *pp.add(i));
            let (av, pv) = (_mm256_set1_pd(alpha), _mm256_set1_pd(prefactor));
            let (f0, n0) = (i * kk, nb.map(|j| j * kk));
            let mut s = 0;
            while s + 4 <= kk {
                self.lanes4(f0 + s, n0.map(|j| j + s), av, pv);
                s += 4;
            }
            for s in s..kk {
                self.lane(f0 + s, n0.map(|j| j + s), alpha, prefactor);
            }
        }
    }

    /// A K = 1 interior run of flat cells `i_lo..i_hi`, four consecutive
    /// cells per AVX2 vector, each with its own damping; their
    /// neighbours sit at the offsets `±1`, `±nx`. Kept apart from
    /// [`InteriorArm::walk_avx2`] so that each calls `lanes4` from one
    /// site: with both call sites in one walk LLVM stopped inlining it,
    /// and a K = 1 film RHS evaluation ran ~10% slower.
    ///
    /// # Safety
    ///
    /// K must be 1 and `i_lo..i_hi` an interior run owned by the calling
    /// block with no antenna-covered cell; `ap`/`pp` hold one damping and
    /// prefactor per cell; the host must support AVX2 (checked at runtime
    /// by the dispatching caller).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn interior1_avx2(
        &self,
        i_lo: usize,
        i_hi: usize,
        nx: usize,
        ap: *const f64,
        pp: *const f64,
    ) {
        use std::arch::x86_64::*;
        let nbrs = |i: usize| [i - 1, i + 1, i - nx, i + nx];
        let mut i = i_lo;
        while i + 4 <= i_hi {
            self.lanes4(
                i,
                nbrs(i),
                _mm256_loadu_pd(ap.add(i)),
                _mm256_loadu_pd(pp.add(i)),
            );
            i += 4;
        }
        for i in i..i_hi {
            self.lane(i, nbrs(i), *ap.add(i), *pp.add(i));
        }
    }
}

/// Where [`InteriorArm`]'s walk finds each cell of a stretch and its
/// `[left, right, down, up]` neighbour cells.
#[derive(Clone, Copy)]
enum Stencil<'a> {
    /// An interior run: its cells are consecutive, so list index `ci` is
    /// flat cell `ci + shift`, with neighbours at the offsets `±1`, `±nx`.
    Interior { shift: usize, nx: usize },
    /// Any stretch: the cell list and the self-substituted stencil table.
    Table {
        cells: &'a [u32],
        nbrs: &'a [[u32; 4]],
    },
}

impl Stencil<'_> {
    /// List cell `ci`'s flat index and neighbour flat indices.
    #[inline(always)]
    fn cell(&self, ci: usize) -> (usize, [usize; 4]) {
        match *self {
            Stencil::Interior { shift, nx } => {
                let i = ci + shift;
                (i, [i - 1, i + 1, i - nx, i + nx])
            }
            Stencil::Table { cells, nbrs } => (cells[ci] as usize, nbrs[ci].map(|j| j as usize)),
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

/// What a stage reads: the stage-input planes, the pre-pass field planes
/// (when a non-local term wrote one) and the thermal planes (empty at
/// T = 0), all K-interleaved, and one drive-field list per member (empty
/// without antennas).
#[derive(Clone, Copy)]
struct StageIn<'a> {
    mx: &'a [f64],
    my: &'a [f64],
    mz: &'a [f64],
    base: Option<&'a Field3>,
    ant_fields: &'a [Vec<Vec3>],
    thermal: &'a Field3,
}

/// What one stage sweep reads, its batch width and its output planes.
#[derive(Clone, Copy)]
struct Sweep<'a> {
    input: StageIn<'a>,
    kk: usize,
    out: Field3Ptr,
}

/// The precompiled single-pass kernel (see module docs).
#[derive(Debug)]
struct FusedKernel {
    /// Flat indices of the magnetic cells, ascending.
    cells: Vec<u32>,
    /// Per magnetic cell: `[left, right, down, up]` neighbour flat index,
    /// or the cell's own flat index where the stencil hits an edge or
    /// vacuum — a self-neighbour adds an exact ±0 to the exchange sum
    /// (see the module docs), so no kernel tests for presence.
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
    /// Interior-run/stencil partition of every block's list range.
    segs: Vec<Segment>,
    /// Every block's magnetic cells as runs of consecutive flat indices.
    runs: MagneticRuns,
    /// The canonical op sequence, when the terms match it.
    std_ops: Option<StdOps>,
    /// Mesh row length — interior neighbours are `i±1` and `i±nx`.
    nx: usize,
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
                        c
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
        // would also skip (`accumulate_par` early returns).
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
            let list = chunk_bounds(cells.len(), threads, b);
            let seg0 = segs.len();
            let mut stencil_start = list.0;
            let mut ci = list.0;
            while ci < list.1 {
                // Grow a maximal interior run: every cell has all four
                // neighbours and the flat indices are consecutive.
                let run_start = ci;
                while ci < list.1
                    && nbrs[ci].iter().all(|&x| x != cells[ci])
                    && (ci == run_start || cells[ci] == cells[ci - 1] + 1)
                {
                    ci += 1;
                }
                if ci - run_start >= MIN_RUN {
                    if run_start > stencil_start {
                        segs.push(Segment {
                            ci0: stencil_start as u32,
                            ci1: run_start as u32,
                            interior: false,
                        });
                    }
                    segs.push(Segment {
                        ci0: run_start as u32,
                        ci1: ci as u32,
                        interior: true,
                    });
                    stencil_start = ci;
                } else if ci == run_start {
                    // Not interior: absorb into the current stencil stretch.
                    ci += 1;
                }
                // Short runs simply stay inside the stencil stretch.
            }
            if list.1 > stencil_start {
                segs.push(Segment {
                    ci0: stencil_start as u32,
                    ci1: list.1 as u32,
                    interior: false,
                });
            }
            blocks.push(Block {
                list,
                segs: (seg0, segs.len()),
            });
        }

        let runs = MagneticRuns::new(&cells, threads);
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
                runs,
                nx,
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

    /// Every worker block's magnetic cells as flat-index runs (what
    /// [`renormalize_and_check`][crate::solver] walks).
    pub(crate) fn magnetic_runs(&self) -> &MagneticRuns {
        &self.kernel.runs
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

    /// Effective field at member `s` of magnetic cell `i` (list index
    /// `ci`) in a K = `kk` batch — lane `i·kk + s` — assembled from the
    /// pre-pass (`base`), the fused ops, member `s`'s antenna drives and
    /// the thermal realization — in exactly the order the term-by-term
    /// path uses. `mi` is the lane's stage input; the exchange stencil
    /// gathers member `s` of each neighbour, lane `nb·kk + s`, from the
    /// input planes directly.
    #[inline(always)]
    fn fused_field(
        &self,
        inp: &StageIn,
        ci: usize,
        i: usize,
        kk: usize,
        s: usize,
        mi: Vec3,
    ) -> Vec3 {
        let mut h = match inp.base {
            Some(b) => b.get(i * kk + s),
            None => Vec3::ZERO,
        };
        for op in &self.kernel.ops {
            match *op {
                FusedTerm::Exchange { coeff_x, coeff_y } => {
                    let nb = self.kernel.nbrs[ci];
                    let at = |j: u32| {
                        let l = j as usize * kk + s;
                        Vec3::new(inp.mx[l], inp.my[l], inp.mz[l])
                    };
                    let mut acc = Vec3::ZERO;
                    acc += (at(nb[0]) - mi) * coeff_x;
                    acc += (at(nb[1]) - mi) * coeff_x;
                    acc += (at(nb[2]) - mi) * coeff_y;
                    acc += (at(nb[3]) - mi) * coeff_y;
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
        if let Some(drives) = inp.ant_fields.get(s).filter(|d| !d.is_empty()) {
            let a0 = self.kernel.ant_off[ci] as usize;
            let a1 = self.kernel.ant_off[ci + 1] as usize;
            for &ai in &self.kernel.ant_ids[a0..a1] {
                let f = drives[ai as usize];
                if f != Vec3::ZERO {
                    h += f;
                }
            }
        }
        if !inp.thermal.is_empty() {
            h += inp.thermal.get(i * kk + s);
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
    pub fn effective_field(&self, m: &Field3, t: f64, h: &mut Field3) {
        h.fill(Vec3::ZERO);
        for term in &self.terms {
            term.accumulate_par(m, t, h, &self.team, None);
        }
        for antenna in &self.antennas {
            antenna.accumulate(t, h);
        }
    }

    /// One block's share of a stage sweep: the kernels picked on K and on
    /// AVX2 support (see the module docs). The sweep takes its batch
    /// width as an argument so that the K = 1 call passes a literal: the
    /// compiler then builds that copy of the scalar body with a constant
    /// stride, from the same source as every other K.
    fn sweep_dispatch(&self, b: usize, sw: &Sweep, avx2: bool) {
        if sw.kk == 1 {
            self.sweep_block_one(b, sw, avx2);
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if avx2 {
            // Safety: AVX2 support was checked by the caller.
            unsafe { self.sweep_block_avx2(b, sw) };
            return;
        }
        self.sweep_block(b, sw, sw.kk, false);
    }

    /// [`LlgSystem::sweep_block`] at K = 1.
    ///
    /// Kept out of line: inlined next to the K ≥ 2 sweeps, the
    /// single-system sweep measured about 7% slower per RK4 step on a
    /// 256 × 128 film (2-CPU x86-64 host).
    #[inline(never)]
    fn sweep_block_one(&self, b: usize, sw: &Sweep, avx2: bool) {
        self.sweep_block(b, sw, 1, avx2);
    }

    /// One block's share of a sweep at batch width `kk`: the segment walk
    /// handing [`LlgSystem::sweep_arm`] what the branch-free arm serves —
    /// interior runs at every K, stencil stretches at K ≥ 2 — and the
    /// rest to [`LlgSystem::sweep_scalar`].
    #[inline(always)]
    fn sweep_block(&self, b: usize, sw: &Sweep, kk: usize, avx2: bool) {
        let block = self.kernel.blocks[b];
        let arm = self.arm(sw);
        for seg in &self.kernel.segs[block.segs.0..block.segs.1] {
            match arm {
                Some(arm) if seg.interior || kk > 1 => self.sweep_arm(*seg, &arm, sw, kk, avx2),
                _ => self.sweep_scalar(seg.ci0 as usize, seg.ci1 as usize, sw, kk),
            }
        }
    }

    /// [`LlgSystem::sweep_block`] compiled with AVX2 enabled, for hosts
    /// that have it (checked at runtime by the caller): the inlined
    /// member loops may vectorize over the consecutive interleaved
    /// lanes. Every operation is the same correctly-rounded IEEE
    /// arithmetic, so results are bitwise identical to the baseline copy.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn sweep_block_avx2(&self, b: usize, sw: &Sweep) {
        self.sweep_block(b, sw, sw.kk, true);
    }

    /// The general sweep body at every K: each member of list cells
    /// `ci0..ci1` through [`LlgSystem::fused_field`] and
    /// [`LlgSystem::torque`], the stencil table and the ops loop serving
    /// boundary and vacuum-adjacent cells, antenna-covered cells and
    /// arbitrary op sequences. `kk` is the batch width.
    #[inline(always)]
    fn sweep_scalar(&self, ci0: usize, ci1: usize, sw: &Sweep, kk: usize) {
        let inp = &sw.input;
        for ci in ci0..ci1 {
            let i = self.kernel.cells[ci] as usize;
            for s in 0..kk {
                let f = i * kk + s;
                let mi = Vec3::new(inp.mx[f], inp.my[f], inp.mz[f]);
                let h = self.fused_field(inp, ci, i, kk, s, mi);
                // Safety: list ranges are disjoint across blocks and only
                // magnetic lanes are touched here.
                unsafe { sw.out.write(f, self.torque(i, mi, h)) };
            }
        }
    }

    /// The branch-free arm of a stage: `None` unless the op sequence is
    /// canonical and includes exchange. It needs only the exchange term:
    /// anisotropy, thin film and Zeeman are applied when present, and the
    /// pre-pass field (the Newell demag) and the thermal realization are
    /// read when the stage has them.
    #[inline(always)]
    fn arm(&self, sw: &Sweep) -> Option<InteriorArm> {
        let std = self.kernel.std_ops?;
        let (coeff_x, coeff_y) = std.ex?;
        let planes = |f: &Field3| [f.xs().as_ptr(), f.ys().as_ptr(), f.zs().as_ptr()];
        let inp = &sw.input;
        Some(InteriorArm {
            kk: sw.kk,
            m: [inp.mx.as_ptr(), inp.my.as_ptr(), inp.mz.as_ptr()],
            base: inp.base.map(planes),
            thermal: (!inp.thermal.is_empty()).then(|| planes(inp.thermal)),
            coeff_x,
            coeff_y,
            uni: std.uni,
            film: std.film,
            zee: std.zee,
            out: sw.out,
        })
    }

    /// One segment through the branch-free arm. An interior run's cells
    /// have all four neighbours and consecutive flat indices, so their
    /// neighbours are the constant offsets `±1` and `±nx` and need no
    /// table; a stencil stretch (K ≥ 2 only) reads each cell's row of the
    /// self-substituted stencil table. Either way there are no presence
    /// checks and no bounds checks, and each lane evaluates the exact
    /// expression sequence of [`LlgSystem::fused_field`] +
    /// [`LlgSystem::torque`] (same terms, same order), so the result is
    /// bitwise that of the scalar kernels.
    ///
    /// The segment is split at antenna coverage (a CSR range check once
    /// per cell, not once per member): covered cells — antennas touch a
    /// few columns — take [`LlgSystem::sweep_scalar`]. The rest runs the
    /// arm, four lanes per AVX2 vector when `avx2` is set.
    #[inline(always)]
    fn sweep_arm(&self, seg: Segment, arm: &InteriorArm, sw: &Sweep, kk: usize, avx2: bool) {
        let (ci0, ci1) = (seg.ci0 as usize, seg.ci1 as usize);
        let (ap, pp) = (self.alpha.as_ptr(), self.prefactor.as_ptr());
        let has_ant = sw.input.ant_fields.iter().any(|f| !f.is_empty());
        let covered = |ci: usize| has_ant && self.kernel.ant_off[ci + 1] > self.kernel.ant_off[ci];
        let mut ci = ci0;
        while ci < ci1 {
            if covered(ci) {
                self.sweep_scalar(ci, ci + 1, sw, kk);
                ci += 1;
                continue;
            }
            let start = ci;
            while ci < ci1 && !covered(ci) {
                ci += 1;
            }
            if seg.interior {
                let st = Stencil::Interior {
                    shift: self.kernel.cells[ci0] as usize - ci0,
                    nx: self.kernel.nx,
                };
                // Safety: interior runs are validated at build time
                // (consecutive cells, all four neighbours in bounds and
                // magnetic), the list range belongs to this block, no
                // cell of `start..ci` is antenna-covered, and AVX2
                // support was checked by the caller when `avx2` is set.
                unsafe { arm.run(start, ci, st, ap, pp, avx2) };
            } else {
                let st = Stencil::Table {
                    cells: &self.kernel.cells,
                    nbrs: &self.kernel.nbrs,
                };
                // Safety: as above, with every stencil entry built as a
                // magnetic neighbour or the cell itself.
                unsafe { arm.run(start, ci, st, ap, pp, avx2) };
            }
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
    /// lock-free and allocation-free, bitwise identical to a serial call
    /// with fresh scratch for any team size. Returns whether anything was
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
    /// K-interleaved planes; right after its sweep, each worker block
    /// invokes `fuse(i0, i1, k)` once per run of its magnetic cells with
    /// the run's interleaved flat range and a raw view of `k_out`, while
    /// the data is still cache-resident.
    /// Integrators use `fuse` to apply the axpy-style stage combinations
    /// (`m + dt·b·k`, the final RK update, …).
    ///
    /// `fuse` gets a whole contiguous range rather than one cell at a
    /// time so its loop stays a plain streaming axpy the compiler can
    /// vectorize on its own — a per-cell callback inside the field sweep
    /// defeats the sweep's vectorization through opaque raw-pointer
    /// aliasing. It runs on worker threads while other blocks may still
    /// be sweeping; each block invokes it for disjoint ranges, so writing
    /// through raw plane pointers inside `i0..i1` is sound. It must not
    /// write a buffer the sweep reads (the stage input, the pre-pass,
    /// thermal and drive inputs) nor read any index another block may
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
    /// The kernels are selected on K (see the module docs). Per (cell,
    /// member) all of them evaluate the exact same expression sequence —
    /// term order, neighbour gathers, antenna accumulation, torque — so
    /// each member's slice of `k_out` does not depend on K. The batch's
    /// win is structural: the stencil row, CSR offsets and per-cell
    /// damping loads are amortized over K members, and with K innermost
    /// four members of a cell share one AVX2 vector.
    ///
    /// `k_out`'s vacuum lanes must already be zero on entry: only
    /// magnetic lanes are written, so a `FieldBatch::zeros` buffer
    /// reused across stages keeps its vacuum zeros. Likewise the fuse
    /// ranges cover only the magnetic runs: vacuum lanes
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
            input: StageIn {
                mx: y.data().xs(),
                my: y.data().ys(),
                mz: y.data().zs(),
                base: base.map(FieldBatch::data),
                ant_fields,
                thermal: thermal.data(),
            },
            kk,
            out,
        };
        // One runtime check per stage: the branch-free arm runs four
        // lanes per AVX2 vector, so the whole per-block sweep exists
        // twice, baseline and AVX2, and the AVX2 copy is picked when the
        // host supports it. Same IEEE operations in the same order, so
        // identical results: wider lanes change throughput, never
        // rounding.
        #[cfg(target_arch = "x86_64")]
        let use_avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let use_avx2 = false;
        this.team.run(&|b| {
            this.sweep_dispatch(b, &sw, use_avx2);
            // Fuse the lanes this block just wrote, run by run, while they
            // are still cache-resident. No cross-block ordering is needed:
            // the runs are the block's own list range, and no fuse writes
            // a buffer a sweep reads. Vacuum lanes of every batch buffer
            // are zero (the builder zeroes vacuum magnetization and
            // nothing here writes it), so a fuse over them would only
            // recompute `0 + 0·c = 0` — on shaped meshes like the
            // triangle gates that is most of the flat range.
            for &(r0, r1) in this.kernel.runs.block(b) {
                fuse(r0 * kk, r1 * kk, out);
            }
        });
    }

    /// Maximum deterministic torque |dm/dt| over all cells, in 1/s (the
    /// field of [`LlgSystem::effective_field`], no thermal realization)
    /// — used as a convergence criterion by
    /// [`crate::sim::Simulation::relax`].
    ///
    /// Evaluated block-parallel with a per-block running maximum, so no
    /// full-mesh buffers are allocated; only a non-fusable term forces a
    /// field buffer (and, holding no system scratch here, its own
    /// scratch).
    pub fn max_torque(&self, m: &Field3, t: f64) -> f64 {
        let pre = (!self.kernel.unfused.is_empty()).then(|| {
            let mut h = Field3::zeros(self.len());
            for &ti in &self.kernel.unfused {
                self.terms[ti].accumulate_par(m, t, &mut h, &self.team, None);
            }
            h
        });
        let mut drives = Vec::new();
        drive_fields(&self.antennas, t, &mut drives);
        let no_thermal = Field3::zeros(0);
        let inp = StageIn {
            mx: m.xs(),
            my: m.ys(),
            mz: m.zs(),
            base: pre.as_ref(),
            ant_fields: std::slice::from_ref(&drives),
            thermal: &no_thermal,
        };
        let partials = self.team.map_blocks(|b| {
            let block = self.kernel.blocks[b];
            let mut local: f64 = 0.0;
            for ci in block.list.0..block.list.1 {
                let i = self.kernel.cells[ci] as usize;
                let mi = m.get(i);
                let h = self.fused_field(&inp, ci, i, 1, 0, mi);
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
    /// shared fallback buffer. Each term contributes
    /// `E = -p·μ₀·Ms·V_cell·Σ m_i·H_i` with `p` its
    /// [`FieldTerm::energy_prefactor`], the dot products summed serially
    /// in cell order.
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
        masked_system(threads, |mesh, material| {
            vec![
                Box::new(Exchange::new(mesh, material)),
                Box::new(UniaxialAnisotropy::new(mesh, material)),
                Box::new(ThinFilmDemag::new(mesh, material)),
                // Non-dyadic, so a reordered addition shows in the low bits.
                Box::new(Zeeman::uniform(Vec3::new(1e3 / 3.0, 0.0, 2e3 / 7.0))),
            ]
        })
    }

    /// The masked mesh and antenna of [`masked_multiterm_system`] with a
    /// hand-assembled term order — Zeeman before exchange, a Newell demag
    /// pre-pass between them — so the ops are not canonical and every
    /// cell, at every K, takes the scalar body with a pre-pass field.
    fn reordered_system(threads: usize) -> (LlgSystem, Vec<Vec3>) {
        let (sys, m) = masked_system(threads, |mesh, material| {
            vec![
                Box::new(Zeeman::uniform(Vec3::new(1e3 / 3.0, 0.0, 2e3 / 7.0))),
                Box::new(crate::field::demag::NewellDemag::new(mesh, material)),
                Box::new(Exchange::new(mesh, material)),
                Box::new(UniaxialAnisotropy::new(mesh, material)),
            ]
        });
        assert!(sys.kernel.std_ops.is_none() && sys.has_unfused());
        (sys, m)
    }

    /// A 16 × 8 mesh with vacuum holes (one on a block boundary), a
    /// tilted state and an antenna over its left columns, with the terms
    /// `terms` builds.
    fn masked_system(
        threads: usize,
        terms: impl FnOnce(&Mesh, &Material) -> Vec<Box<dyn FieldTerm>>,
    ) -> (LlgSystem, Vec<Vec3>) {
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
            terms: terms(&mesh, &material),
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

    /// A gate-like mesh of narrow guides: one- and two-cell-wide strips
    /// (two of them along mesh edges), an isolated cell and one 12 × 5
    /// patch, so most magnetic cells lack a neighbour and take the
    /// stencil table, with one interior run for contrast. An antenna
    /// covers the left ends of the horizontal guides; as on the gates
    /// there is no Zeeman term. Every fourth magnetic cell points along
    /// ±z with signed-zero x and y, and a row's zero signs differ from
    /// the rows beside it, so exchange differences of exactly ±0 reach
    /// the accumulator.
    fn narrow_guide_system(threads: usize) -> (LlgSystem, Vec<Vec3>) {
        let (nx, ny) = (24, 16);
        let mut mesh = Mesh::new(nx, ny, [5e-9, 5e-9, 1e-9]).unwrap();
        mesh.set_mask_by(|_, _| false);
        let mut set = |ix: usize, iy: usize| mesh.set_magnetic(ix, iy, true);
        (0..nx).for_each(|ix| set(ix, 0));
        (2..20).for_each(|ix| {
            set(ix, 3);
            set(ix, 4);
        });
        (5..ny).for_each(|iy| set(nx - 1, iy));
        (7..ny).for_each(|iy| {
            set(1, iy);
            set(2, iy);
        });
        set(5, 7);
        for iy in 9..14 {
            (6..18).for_each(|ix| set(ix, iy));
        }
        let material = Material::fecob();
        let antenna = Antenna::over_rect(
            &mesh,
            0.0,
            0.0,
            25e-9,
            30e-9,
            Vec3::X,
            Drive::logic_cw(3e3, 10e9, 0.1),
        );
        let n = mesh.cell_count();
        let m = (0..n)
            .map(|i| {
                let zero = if (i / nx) % 2 == 0 { -0.0 } else { 0.0 };
                match i % 8 {
                    _ if !mesh.mask()[i] => Vec3::ZERO,
                    0 => Vec3::new(zero, -zero, 1.0),
                    4 => Vec3::new(-zero, zero, -1.0),
                    _ => Vec3::new(
                        0.3 * (0.7 * i as f64).sin(),
                        0.2 * (0.4 * i as f64).cos(),
                        1.0,
                    )
                    .normalized(),
                }
            })
            .collect();
        let sys = SystemSpec {
            terms: vec![
                Box::new(Exchange::new(&mesh, &material)),
                Box::new(UniaxialAnisotropy::new(&mesh, &material)),
                Box::new(ThinFilmDemag::new(&mesh, &material)),
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
    fn narrow_guides_are_mostly_stencil_cells() {
        let (sys, _) = narrow_guide_system(1);
        let k = &sys.kernel;
        let mut interior = 0;
        for seg in &k.segs {
            let cells = (seg.ci1 - seg.ci0) as usize;
            if seg.interior {
                interior += cells;
            }
        }
        let stencil = k.cells.len() - interior;
        assert!(interior >= MIN_RUN, "the patch must hold an interior run");
        assert!(
            stencil * 4 > k.cells.len() * 3,
            "{stencil} of {} stencil cells",
            k.cells.len()
        );
        // The table stores the cell itself for every missing neighbour,
        // and a real neighbour otherwise.
        for (ci, &c) in k.cells.iter().enumerate() {
            let i = c as usize;
            let want = [
                (!i.is_multiple_of(k.nx)).then(|| i - 1),
                (i % k.nx + 1 < k.nx).then_some(i + 1),
                (i >= k.nx).then(|| i - k.nx),
                (i + k.nx < sys.len()).then_some(i + k.nx),
            ]
            .map(|j| j.filter(|&j| sys.mask[j]).unwrap_or(i) as u32);
            assert_eq!(k.nbrs[ci], want, "stencil row of cell {i}");
        }
        let covered = |ci: usize| k.ant_off[ci + 1] > k.ant_off[ci];
        assert!(
            (0..k.cells.len()).any(covered),
            "the antenna must cover guide cells"
        );
    }

    #[test]
    fn fused_rhs_matches_reference_effective_field() {
        let (mut sys, m) = masked_multiterm_system(1);
        assert_rhs_matches_reference(&mut sys, &m, 13e-12, "masked multi-term system");
        // The self-substituted stencil table against the reference's
        // presence tests, signed zeros included.
        for threads in [1, 3] {
            let (mut sys, m) = narrow_guide_system(threads);
            let what = format!("narrow guides, {threads} threads");
            assert_rhs_matches_reference(&mut sys, &m, 13e-12, &what);
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
        for threads in [1, 3, 4] {
            let (mut sys, m) = full_film_std_system(threads);
            assert_rhs_matches_reference(&mut sys, &m, 0.0, &format!("{threads} threads"));
        }
    }

    /// The K = 1 stage torque of `sys` at `m` against the term-by-term
    /// reference (`effective_field`, then the LLG formula), bit for bit.
    fn assert_rhs_matches_reference(sys: &mut LlgSystem, m: &[Vec3], t: f64, what: &str) {
        let n = m.len();
        let mf = Field3::from_vec3s(m);
        let mut h = Field3::zeros(n);
        sys.effective_field(&mf, t, &mut h);
        let dmdt = rhs(sys, &mf, t, &no_thermal());
        for (i, &mi) in m.iter().enumerate() {
            if !sys.mask[i] {
                assert_eq!(dmdt.get(i), Vec3::ZERO, "{what}: vacuum cell {i}");
                continue;
            }
            let alpha = sys.alpha[i];
            let prefactor = -sys.gamma * MU0 / (1.0 + alpha * alpha);
            let mxh = mi.cross(h.get(i));
            let expected = (mxh + mi.cross(mxh) * alpha) * prefactor;
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

    /// Member `s`'s state derived from `m0`: cells with an exactly zero
    /// component keep their direction, with the signs of their zeros set
    /// by the parity of `i + s`; the others tilt by a member-dependent
    /// amount. Vacuum stays zero.
    fn member_state(m0: &[Vec3], s: usize) -> Vec<Vec3> {
        m0.iter()
            .enumerate()
            .map(|(i, &v)| {
                let zeros = [v.x, v.y, v.z].contains(&0.0);
                if v == Vec3::ZERO {
                    v
                } else if zeros {
                    let sign = |c: f64| if c == 0.0 && (i + s) % 2 == 1 { -c } else { c };
                    Vec3::new(sign(v.x), sign(v.y), sign(v.z))
                } else {
                    Vec3::new(v.x + 0.01 * s as f64, v.y, v.z + 0.02 * (i % 5) as f64).normalized()
                }
            })
            .collect()
    }

    #[test]
    fn batched_rhs_is_bitwise_identical_to_member_runs() {
        // K members share geometry/terms but differ in state (signed
        // zeros included), drive phase (emulated by evaluating the
        // antennas at different times) and thermal realization. At every
        // K the stage must reproduce each member's K = 1 evaluation bit
        // for bit, at several thread counts, with and
        // without a thermal plane — on the masked multi-term mesh, on
        // narrow guides, where most cells take their neighbours from the
        // stencil table, and on a non-canonical term order with a Newell
        // pre-pass, where every cell takes the scalar body.
        type Fixture = fn(usize) -> (LlgSystem, Vec<Vec3>);
        let fixtures: [(&str, Fixture); 3] = [
            ("masked", masked_multiterm_system),
            ("narrow", narrow_guide_system),
            ("reordered", reordered_system),
        ];
        let kmax = 8;
        let times: Vec<f64> = (0..kmax).map(|s| 3e-12 + 1.1e-12 * s as f64).collect();
        for (name, fixture) in fixtures {
            let (probe_sys, m0) = fixture(1);
            let n = m0.len();
            let member_m: Vec<Vec<Vec3>> = (0..kmax).map(|s| member_state(&m0, s)).collect();
            let member_thermal: Vec<Vec<Vec3>> = (0..kmax)
                .map(|s| {
                    (0..n)
                        .map(|i| Vec3::new(1.0 + s as f64, i as f64 * 0.5, -(s as f64)) * 10.0)
                        .collect()
                })
                .collect();
            let ant_fields: Vec<Vec<Vec3>> = times
                .iter()
                .map(|&t| {
                    let mut f = Vec::new();
                    drive_fields(&probe_sys.antennas, t, &mut f);
                    f
                })
                .collect();
            for hot in [false, true] {
                // Reference: independent single-system evaluations.
                let expected: Vec<Field3> = (0..kmax)
                    .map(|s| {
                        let (mut sys, _) = fixture(1);
                        let mut thermal = FieldBatch::empty(1);
                        if hot {
                            thermal = FieldBatch::zeros(n, 1);
                            thermal.load_member(0, member_thermal[s].as_slice());
                        }
                        rhs(
                            &mut sys,
                            &Field3::from_vec3s(&member_m[s]),
                            times[s],
                            &thermal,
                        )
                    })
                    .collect();
                for threads in [1, 2, 4] {
                    let (mut sys, _) = fixture(threads);
                    let (mut m_scratch, mut h_scratch) = (Field3::zeros(n), Field3::zeros(n));
                    for kk in [2, 3, 4, 5, 8] {
                        let mut y = FieldBatch::zeros(n, kk);
                        let mut thermal = FieldBatch::empty(kk);
                        if hot {
                            thermal = FieldBatch::zeros(n, kk);
                        }
                        for s in 0..kk {
                            y.load_member(s, member_m[s].as_slice());
                            if hot {
                                thermal.load_member(s, member_thermal[s].as_slice());
                            }
                        }
                        // The pre-pass (a Newell demag, independent of t)
                        // de-interleaves each member, as a batch step does.
                        let mut base = FieldBatch::zeros(n, kk);
                        let wrote = sys.unfused_prepass_batch(
                            &y,
                            times[0],
                            &mut base,
                            &mut m_scratch,
                            &mut h_scratch,
                        );
                        let base = wrote.then_some(&base);
                        let mut k_out = FieldBatch::zeros(n, kk);
                        let ant = &ant_fields[..kk];
                        sys.rhs_stage_batch(&y, &mut k_out, base, ant, &thermal, |_, _, _| {});
                        for (s, want) in expected.iter().enumerate().take(kk) {
                            let mut got = Field3::zeros(n);
                            k_out.store_member(s, &mut got);
                            assert!(
                                bits(&got) == bits(want),
                                "{name}, thermal {hot}: member {s} of K = {kk} diverged at \
                                 {threads} threads"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every component of `f`, as bits (so signed zeros compare unequal).
    fn bits(f: &Field3) -> Vec<u64> {
        f.xs()
            .iter()
            .chain(f.ys())
            .chain(f.zs())
            .map(|v| v.to_bits())
            .collect()
    }

    /// The stage sweep alone (no fuse) through `sweep_dispatch`, with the
    /// AVX2 kernels allowed or not.
    fn sweep_stage(
        sys: &LlgSystem,
        y: &FieldBatch,
        base: &FieldBatch,
        ant_fields: &[Vec<Vec3>],
        thermal: &FieldBatch,
        avx2: bool,
    ) -> FieldBatch {
        let mut k = FieldBatch::zeros(y.cells(), y.k());
        let sw = Sweep {
            input: StageIn {
                mx: y.data().xs(),
                my: y.data().ys(),
                mz: y.data().zs(),
                base: Some(base.data()),
                ant_fields,
                thermal: thermal.data(),
            },
            kk: y.k(),
            out: k.ptrs(),
        };
        sys.team.run(&|b| sys.sweep_dispatch(b, &sw, avx2));
        k
    }

    #[test]
    fn portable_interior_arm_matches_the_avx2_sweep() {
        // On AVX2 hosts the stage takes the AVX2 kernels and the portable
        // arm runs only remainder lanes. Here the same stage — a pre-pass
        // base field, a thermal plane and an antenna over part of the
        // interior runs and of the stencil stretches — goes through both,
        // and every output bit must agree; each member must also be its
        // own K = 1 stage. At K ≥ 2 the stencil stretches run the arm too
        // (the stencil walk), so both neighbour sources are covered.
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        type Fixture = fn(usize) -> (LlgSystem, Vec<Vec3>);
        let fixtures: [(&str, Fixture); 2] = [
            ("masked", masked_multiterm_system),
            ("narrow", narrow_guide_system),
        ];
        for (name, fixture) in fixtures {
            let (sys, m) = fixture(3);
            let n = m.len();
            let covered = |ci: usize| sys.kernel.ant_off[ci + 1] > sys.kernel.ant_off[ci];
            let in_segments = |interior: bool, want_covered: bool| {
                sys.kernel.segs.iter().any(|seg| {
                    seg.interior == interior
                        && (seg.ci0 as usize..seg.ci1 as usize)
                            .any(|ci| covered(ci) == want_covered)
                })
            };
            assert!(
                in_segments(false, false),
                "{name}: stencil cells for the walk"
            );
            assert!(in_segments(false, true), "{name}: covered stencil cells");
            if name == "masked" {
                assert!(in_segments(true, true), "{name}: covered interior cells");
            }
            let member = |s: usize| -> (Vec<Vec3>, Vec<Vec3>, Vec<Vec3>, Vec<Vec3>) {
                let state = member_state(&m, s);
                // Irrational-looking values, so reordering any addition
                // would show in the low bits.
                let wave = |i: usize, f: f64| (f * (i + 7 * s) as f64).sin();
                let base = (0..n)
                    .map(|i| Vec3::new(wave(i, 0.3), wave(i, 0.7), wave(i, 1.1)) * 3.1e4)
                    .collect();
                let thermal = (0..n)
                    .map(|i| Vec3::new(wave(i, 1.3), wave(i, 0.2), wave(i, 0.9)) * 713.7)
                    .collect();
                let mut drives = Vec::new();
                drive_fields(&sys.antennas, 2e-12 + 1.5e-12 * s as f64, &mut drives);
                (state, base, thermal, drives)
            };
            let stage = |members: &[usize], avx2: bool| -> FieldBatch {
                let kk = members.len();
                let (mut y, mut base, mut thermal) = (
                    FieldBatch::zeros(n, kk),
                    FieldBatch::zeros(n, kk),
                    FieldBatch::zeros(n, kk),
                );
                let mut ant_fields = Vec::new();
                for (s, &id) in members.iter().enumerate() {
                    let (state, b, th, drives) = member(id);
                    y.load_member(s, state.as_slice());
                    base.load_member(s, b.as_slice());
                    thermal.load_member(s, th.as_slice());
                    ant_fields.push(drives);
                }
                sweep_stage(&sys, &y, &base, &ant_fields, &thermal, avx2)
            };
            let solo: Vec<Vec<u64>> = (0..8).map(|s| bits(stage(&[s], false).data())).collect();
            for kk in [1, 2, 3, 4, 5, 8] {
                let members: Vec<usize> = (0..kk).collect();
                let portable = stage(&members, false);
                if avx2 {
                    let fast = stage(&members, true);
                    assert!(
                        bits(portable.data()) == bits(fast.data()),
                        "{name}, K = {kk}: the portable sweep diverged from the AVX2 sweep"
                    );
                }
                for (s, want) in solo.iter().enumerate().take(kk) {
                    let mut got = Field3::zeros(n);
                    portable.store_member(s, &mut got);
                    assert!(
                        bits(&got) == *want,
                        "{name}, K = {kk}: member {s} diverged from K = 1"
                    );
                }
            }
        }
    }

    #[test]
    fn fuse_covers_magnetic_lanes_once() {
        // The fuse ranges must cover every magnetic lane exactly once —
        // at K = 1 and K = 2 — and skip vacuum lanes, whose k stays zero.
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
