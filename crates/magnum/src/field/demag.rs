//! Demagnetizing (dipolar) field.
//!
//! Two implementations are provided:
//!
//! * [`ThinFilmDemag`] — the local thin-film limit `H_d = −Ms·m_z·ẑ`
//!   (demag tensor N = diag(0, 0, 1)). For the paper's 1 nm film this is
//!   the textbook approximation; it merges with the perpendicular
//!   anisotropy into the effective field that sets the FVMSW dispersion.
//! * [`NewellDemag`] — the full non-local field computed by convolving the
//!   magnetization with the Newell demagnetization tensor via the
//!   crate's own FFT. Exact for the discretization, but O(N log N) per
//!   evaluation; used for validation and ablation studies.
//!
//! ## Real-spectrum convolution pipeline
//!
//! The padded grid is chosen by [`crate::fft::good_size`]: the cheapest
//! 5-smooth length ≥ `2n − 1` per axis (see [`PadPolicy`]), which is
//! exactly the aliasing-free minimum for a linear convolution — every
//! physical displacement `|Δ| ≤ n − 1` has a unique wrapped kernel
//! entry. At awkward grid sizes this cuts the padded area by up to
//! ~2.5× against the old power-of-two padding.
//!
//! The Newell kernels are symmetric in real space — `Kxx/Kyy/Kzz` are
//! even in both offsets, `Kxy` is odd in each but even under full
//! inversion — so their 2-D DFTs are purely real. (At even padded sizes
//! the `Kxy` Nyquist rows `2jx = px` / `2jy = py` are the one exception:
//! they map to themselves under inversion while the function is odd
//! across them. Those kernel entries only ever influence the discarded
//! padding region — every physical output–input displacement satisfies
//! `|Δ| ≤ n−1 < p/2` — so they are zeroed before the transform, making
//! the spectrum exactly real without changing the physical field. Odd
//! padded sizes have no self-paired line, so nothing is zeroed.)
//!
//! Storing the spectra as `Vec<f64>` halves the kernel memory and turns
//! the spectral multiply into real×complex products. Each evaluation then
//! costs four 2-D transforms instead of six: `Ms·mx` and `Ms·my` are
//! packed into one complex grid (re/im channels), convolved per
//! conjugate-pair of bins, and the two output fields come back out of a
//! single inverse transform's re/im channels; `Ms·mz` rides alone through
//! the second pair of transforms (its kernel multiply is a plain real
//! scaling per bin).
//!
//! ## Strip-fused pipeline
//!
//! One evaluation is three passes over [`LANES`]-wide lane buffers (see
//! [`crate::fft`] and DESIGN.md §4.5):
//!
//! 1. **Forward rows, fused with the load.** Each group of [`LANES`] mesh
//!    rows is loaded as `Ms·m` straight into a worker's lane buffer
//!    (zero in vacuum cells), row-transformed with input window `nx` —
//!    the padding columns `nx..px` are never written or read — and
//!    stored in the `xy`/`z` planes. The planes hold only the `ny`
//!    populated rows: the padded rows `ny..py` are never materialized.
//! 2. **Column strips.** For each strip of [`LANES`] columns a worker
//!    gathers rows `0..ny` into its lane buffer, runs the forward column
//!    FFT with input window `ny` (its first stage skips the digits that
//!    would read the padded rows), multiplies by the kernel, runs the
//!    inverse column FFT with output window `ny` (its last stage computes
//!    only rows `0..ny`) and scatters those rows back. The `xy`
//!    channel pairs strip `A = [c, c + LANES)` with its mirror
//!    `B = {px − c − l}` so every conjugate bin pair meets in one
//!    worker; the self-paired columns `0` and `px/2` share strip 0. The
//!    kernel spectra are stored in this strip order and built by the
//!    same passes.
//! 3. **Inverse rows, fused with the unload.** Each row group is inverted
//!    in lanes with output window `nx` and added into `h` at the magnetic
//!    cells.
//!
//! Each lane does exactly the scalar FFT's arithmetic, and work is split
//! across the caller's [`WorkerTeam`] by row group and strip only, so
//! results are bitwise identical at any thread count and at any batch
//! size, and identical to a serial [`FieldTerm::accumulate_par`] call
//! with fresh scratch. The multiply keeps the role rule of
//! the row-major pipeline it replaced (`b_first = ky == 0 || 2·ky ≤ py`),
//! so every nonzero spectral bin is bitwise what that pipeline computed.
//! The forward windows skip additions of known zeros, which can flip the
//! sign of a zero bin but not the field: a zero's sign only survives the
//! inverse as an exactly zero output, which adds into `h` as zero
//! (`field_is_bitwise_the_row_major_reference` and the golden Newell
//! traces pin the field).
//!
//! All passes sit behind the cells-per-thread clamp
//! ([`crate::fft::MIN_FFT_CELLS_PER_THREAD`], overridable through
//! [`NewellDemag::with_options`]): small padded grids run the whole
//! convolution inline on the calling thread, where rendezvous overhead
//! would otherwise exceed the parallel win. The per-system
//! [`DemagScratch`] arena (the two `ny × px` channel planes and the
//! per-thread lane buffers) makes steady-state evaluations
//! allocation-free.
//!
//! Left out on purpose: an r2c transform for the `Ms·mz` channel, whose
//! imaginary half is zero, would cut about a quarter of the FFT work,
//! but it changes the arithmetic — and every trajectory bit.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use super::{FieldTerm, FusedTerm};
use crate::fft::{
    for_each_lane_block, gather_rows, gather_strip, good_size, scatter_rows, scatter_strip,
    Direction, Fft2Plan, Fft2Scratch, LaneBufs, Strip, LANES, MIN_FFT_CELLS_PER_THREAD,
};
use crate::field3::Field3;
use crate::material::Material;
use crate::math::Complex64;
use crate::mesh::Mesh;
use crate::par::{SendPtr, WorkerTeam};

/// Which demagnetization model a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DemagMethod {
    /// No demagnetizing field at all.
    None,
    /// Local thin-film approximation `H_d = −Ms·m_z·ẑ` (default: correct
    /// limit for films much thinner than their lateral extent).
    #[default]
    ThinFilmLocal,
    /// Full non-local Newell-tensor convolution via FFT.
    NewellFft,
}

/// How [`NewellDemag`] pads each axis for the linear convolution.
///
/// Both policies are aliasing-free; they differ only in which transform
/// lengths they allow. Distinct policies over the same mesh generally
/// produce distinct padded grids, and therefore distinct entries in the
/// process-wide kernel-spectrum cache (the key leads with `(px, py)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PadPolicy {
    /// Cheapest 5-smooth length ≥ `2n − 1` via [`good_size`] — the
    /// mixed-radix default, up to ~2.5× less padded area in 2-D.
    #[default]
    GoodSize,
    /// Exactly `2n − 1`, the aliasing-free minimum with no smoothness
    /// constraint. The padded lengths are always odd and frequently
    /// prime, which forces the Bluestein chirp-z fallback — slower than
    /// [`PadPolicy::GoodSize`], but the only policy that drives the
    /// fallback through real trajectories; used by the parity tests (and
    /// available for memory-starved grids where even `good_size` slack
    /// is unwelcome).
    Exact,
}

impl PadPolicy {
    /// Padded transform length for a physical axis of `n` cells.
    pub fn pad(self, n: usize) -> usize {
        match self {
            PadPolicy::GoodSize => good_size(2 * n - 1),
            PadPolicy::Exact => 2 * n - 1,
        }
    }
}

/// Local thin-film demagnetizing field (see [`DemagMethod::ThinFilmLocal`]).
#[derive(Debug, Clone)]
pub struct ThinFilmDemag {
    ms: f64,
    mask: Vec<bool>,
}

impl ThinFilmDemag {
    /// Builds the local demag term.
    pub fn new(mesh: &Mesh, material: &Material) -> Self {
        ThinFilmDemag {
            ms: material.saturation_magnetization(),
            mask: mesh.mask().to_vec(),
        }
    }
}

impl FieldTerm for ThinFilmDemag {
    fn name(&self) -> &'static str {
        "demag_thin_film"
    }

    fn accumulate_par(
        &self,
        m: &Field3,
        _t: f64,
        h: &mut Field3,
        _team: &WorkerTeam,
        _scratch: Option<&mut (dyn Any + Send + Sync)>,
    ) {
        for (i, &magnetic) in self.mask.iter().enumerate() {
            if magnetic {
                let mut hi = h.get(i);
                hi.z -= self.ms * m.get(i).z;
                h.set(i, hi);
            }
        }
    }

    fn fused(&self) -> Option<FusedTerm> {
        Some(FusedTerm::ThinFilm { ms: self.ms })
    }
}

/// Non-local demagnetizing field via Newell-tensor FFT convolution
/// (see [`DemagMethod::NewellFft`] and the module docs for the pipeline).
///
/// The real spectral kernels are precomputed once at construction; each
/// field evaluation costs four parallel 2-D FFTs on the zero-padded grid.
pub struct NewellDemag {
    nx: usize,
    ny: usize,
    px: usize,
    py: usize,
    ms: f64,
    mask: Vec<bool>,
    /// Real spectra of K = −N (so that Ĥ = K̂·M̂) in strip order, shared
    /// through the in-process cache; see module docs for why they are
    /// exactly real.
    spectra: Arc<KernelSpectra>,
    /// The padded-grid plan; its clamp guards every convolution pass.
    plan: Fft2Plan,
}

/// Working buffers for one convolution — the per-system scratch arena:
/// the two channel planes (populated rows `0..ny` only) and the
/// per-thread lane buffers, all reused across evaluations so the
/// integrator hot loop never allocates.
struct DemagScratch {
    /// Row-transformed `Ms·mx + i·Ms·my`, `ny × px`; after the column
    /// strips it holds the row spectra of `hx + i·hy`.
    xy: Vec<Complex64>,
    /// The same for `Ms·mz` (imaginary channel zero on input).
    z: Vec<Complex64>,
    /// Per-thread lane buffers of the row groups and column strips.
    fft: Fft2Scratch,
}

impl DemagScratch {
    fn new(plane: usize) -> Self {
        // Constructing scratch is itself a hot-path allocation: legal at
        // system build or on a cold call without scratch, counted so the
        // allocation-free-stepping test catches any per-eval construction.
        crate::fft::note_hot_alloc();
        DemagScratch {
            xy: vec![Complex64::ZERO; plane],
            z: vec![Complex64::ZERO; plane],
            fft: Fft2Scratch::new(),
        }
    }
}

/// The four real Newell kernel spectra of one padded grid, in the order
/// they are applied (`Kxx`, `Kyy`, `Kzz`, `Kxy`), each in **strip
/// order**: bin `(kx, ky)` of the column in lane `l` of strip `t` (see
/// [`paired_strip`]) at `(t·py + ky)·LANES + l`, zero in dead lanes.
///
/// Instances are immutable and shared via [`Arc`] through a process-wide
/// cache, so a batch of simulations over the same geometry (the `swrun`
/// sweep case: many jobs, one mesh) pays the Newell pre-pass and the
/// four kernel FFTs exactly once.
#[derive(Debug)]
struct KernelSpectra {
    kxx: Vec<f64>,
    kyy: Vec<f64>,
    kzz: Vec<f64>,
    kxy: Vec<f64>,
}

/// Number of column strips of the conjugate-paired schedule over `px`
/// padded columns (see [`paired_strip`]).
fn paired_strip_count(px: usize) -> usize {
    1 + 2 * ((px - 1) / 2).div_ceil(LANES)
}

/// Column strip `t` of the conjugate-paired schedule over `px` padded
/// columns. Strip 0 holds the self-paired columns: 0, and `px/2` when
/// `px` is even. Strips `2i + 1` hold columns `1 + i·LANES` upward and
/// strips `2i + 2` their mirrors `px − 1 − i·LANES` downward, so lane
/// `l` of a mirror strip is the conjugate partner column of lane `l` of
/// the strip before it.
fn paired_strip(px: usize, t: usize) -> Strip {
    if t == 0 {
        return if px.is_multiple_of(2) {
            Strip {
                c0: 0,
                step: (px / 2) as isize,
                live: 2,
            }
        } else {
            Strip::run(0, 1)
        };
    }
    let i = (t - 1) / 2;
    let live = LANES.min((px - 1) / 2 - i * LANES);
    if !t.is_multiple_of(2) {
        Strip::run(1 + i * LANES, live)
    } else {
        Strip {
            c0: px - 1 - i * LANES,
            step: -1,
            live,
        }
    }
}

/// Cache key: padded grid dimensions plus the cell size as exact bit
/// patterns. The padded sizes are derived from `(nx, ny)` and `dz` is the
/// film thickness, so the key subsumes the mesh identity
/// `(nx, ny, dx, dy, dz)` — it is strictly more general: meshes that pad
/// to the same grid with the same cell share one kernel table.
type SpectraKey = (usize, usize, u64, u64, u64);

static SPECTRA_CACHE: OnceLock<Mutex<HashMap<SpectraKey, Arc<KernelSpectra>>>> = OnceLock::new();

/// Fetches the real kernel spectra for a padded grid from the process-wide
/// cache, building them on first use.
///
/// The lock is held across the build on purpose: concurrent constructions
/// of the same geometry (parallel batch jobs) block on one build instead
/// of duplicating it. Which worker team performs the build does not matter
/// for the cached values — [`kernel_spectra`] is bitwise identical for any
/// team size.
fn cached_spectra(cell: [f64; 3], plan: &Fft2Plan, team: &WorkerTeam) -> Arc<KernelSpectra> {
    let [dx, dy, dz] = cell;
    let key = (
        plan.nx(),
        plan.ny(),
        dx.to_bits(),
        dy.to_bits(),
        dz.to_bits(),
    );
    let cache = SPECTRA_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("demag spectra cache poisoned");
    Arc::clone(map.entry(key).or_insert_with(|| {
        let (spectra, peaks) = kernel_spectra(cell, plan, team);
        let max_re = peaks.iter().map(|p| p[0]).fold(0.0, f64::max);
        let max_im = peaks.iter().map(|p| p[1]).fold(0.0, f64::max);
        assert!(
            max_im <= 1e-10 * max_re,
            "Newell spectra should be real: max |Im| = {max_im:e} vs max |Re| = {max_re:e}"
        );
        Arc::new(spectra)
    }))
}

impl NewellDemag {
    /// Precomputes the demag kernel for the mesh (single layer), serially.
    ///
    /// Construction cost is one Newell stencil set per distinct
    /// `(|Δx|, |Δy|)` offset — a quarter of the padded grid — plus four
    /// kernel FFTs; this is done once per simulation geometry.
    /// [`NewellDemag::new_with_team`] spreads it over a worker team.
    pub fn new(mesh: &Mesh, material: &Material) -> Self {
        Self::new_with_team(mesh, material, &WorkerTeam::new(1))
    }

    /// Precomputes the demag kernel with the Newell pre-pass and the
    /// kernel FFTs batched across `team`. Bitwise identical to
    /// [`NewellDemag::new`] for any team size.
    ///
    /// The kernel spectra are looked up in a process-wide cache keyed by
    /// the padded grid and cell size, so repeated constructions over the
    /// same geometry (batch sweeps) share one table; only the FFT plan and
    /// scratch buffers are per-instance.
    pub fn new_with_team(mesh: &Mesh, material: &Material, team: &WorkerTeam) -> Self {
        Self::with_padding(mesh, material, team, PadPolicy::default())
    }

    /// Like [`NewellDemag::new_with_team`], with an explicit padding
    /// policy.
    pub fn with_padding(
        mesh: &Mesh,
        material: &Material,
        team: &WorkerTeam,
        policy: PadPolicy,
    ) -> Self {
        Self::with_options(mesh, material, team, policy, None)
    }

    /// Fully explicit constructor: padding policy plus the
    /// cells-per-thread clamp for the convolution passes. `None` takes
    /// the [`MIN_FFT_CELLS_PER_THREAD`] default; `Some(0)` disables the
    /// clamp (every pass fans out — what cross-thread parity tests
    /// want); other values set the threshold directly.
    pub fn with_options(
        mesh: &Mesh,
        material: &Material,
        team: &WorkerTeam,
        policy: PadPolicy,
        min_cells_per_thread: Option<usize>,
    ) -> Self {
        let nx = mesh.nx();
        let ny = mesh.ny();
        let px = policy.pad(nx);
        let py = policy.pad(ny);
        let min = min_cells_per_thread.unwrap_or(MIN_FFT_CELLS_PER_THREAD);
        let plan = Fft2Plan::new(px, py).with_min_cells_per_thread(min);
        let spectra = cached_spectra(mesh.cell_size(), &plan, team);
        NewellDemag {
            nx,
            ny,
            px,
            py,
            ms: material.saturation_magnetization(),
            mask: mesh.mask().to_vec(),
            spectra,
            plan,
        }
    }

    /// Padded transform dimensions `(px, py)` this instance convolves on.
    pub fn padded_dims(&self) -> (usize, usize) {
        (self.px, self.py)
    }

    /// Self-demagnetization factors `(Nxx, Nyy, Nzz)` of a single cell —
    /// they must sum to 1.
    pub fn self_factors(dx: f64, dy: f64, dz: f64) -> (f64, f64, f64) {
        (
            newell_nxx(0.0, 0.0, 0.0, dx, dy, dz),
            newell_nxx(0.0, 0.0, 0.0, dy, dx, dz),
            newell_nxx(0.0, 0.0, 0.0, dz, dy, dx),
        )
    }

    /// Runs one convolution on the SoA planes and adds the field into
    /// `h`:
    ///
    /// 1. Row pass, fused with the load: each row group's lanes
    ///    `0..nx` are filled with `Ms·m` straight from the planes (zeros
    ///    in vacuum cells), transformed with input window `nx`, and
    ///    stored as rows of the `xy`/`z` planes.
    /// 2. Column strips ([`NewellDemag::strip_unit`]): forward column
    ///    FFT (input window `ny`), kernel multiply and inverse column FFT
    ///    (output window `ny`) of each strip in a worker's lane buffers.
    /// 3. Inverse row pass, fused with the unload: each row group is
    ///    inverted in lanes (output window `nx`) and added into `h` at the
    ///    magnetic cells.
    ///
    /// Every lane runs the arithmetic of [`crate::fft::FftPlan::process`]
    /// on its line, and the passes are split by row group and strip
    /// only, so the field is bitwise independent of the team size.
    fn convolve(&self, m: &Field3, h: &mut Field3, team: &WorkerTeam, s: &mut DemagScratch) {
        let (nx, ny, px, py) = (self.nx, self.ny, self.px, self.py);
        let (ms, mask) = (self.ms, &self.mask);
        let (mx, my, mz) = (m.xs(), m.ys(), m.zs());
        let row = self.plan.row_plan();
        s.fft.ensure(&self.plan, team.threads());
        let xy = SendPtr::new(s.xy.as_mut_ptr());
        let z = SendPtr::new(s.z.as_mut_ptr());
        let groups = ny.div_ceil(LANES);
        let nb_rows = self.plan.pass_blocks(ny * px, team);

        for_each_lane_block(team, groups, nb_rows, &mut s.fft, |g0, g1, w| {
            let (re, im) = (&mut w.re[..px * LANES], &mut w.im[..px * LANES]);
            for g in g0..g1 {
                let r0 = g * LANES;
                let live = LANES.min(ny - r0);
                for (plane, a, b) in [(xy, mx, Some(my)), (z, mz, None)] {
                    // Columns `nx..px` are zero padding, whose values
                    // the windowed transform never uses.
                    re[..nx * LANES].fill(0.0);
                    im[..nx * LANES].fill(0.0);
                    for l in 0..live {
                        for ix in 0..nx {
                            let i = (r0 + l) * nx + ix;
                            if mask[i] {
                                re[ix * LANES + l] = ms * a[i];
                                if let Some(b) = b {
                                    im[ix * LANES + l] = ms * b[i];
                                }
                            }
                        }
                    }
                    row.process_lanes(re, im, live, Direction::Forward, nx, &mut w.fallback);
                    // Safety: row groups are disjoint across blocks and
                    // lie within the plane's `ny` rows.
                    unsafe { scatter_rows(re, im, plane.get(), px, r0, live) };
                }
            }
        });

        let units = paired_strip_count(px).div_ceil(2);
        let nb_cols = self.plan.pass_blocks(px * py, team);
        for_each_lane_block(team, units, nb_cols, &mut s.fft, |u0, u1, w| {
            for u in u0..u1 {
                // Safety: unit `u` owns strips 2u−1 and 2u (strip 0 for
                // u = 0), disjoint column sets of both planes.
                unsafe { self.strip_unit(u, w, xy, z) };
            }
        });

        let out = h.ptrs();
        let (hx, hy, hz) = out.planes();
        let (hx, hy, hz) = (SendPtr::new(hx), SendPtr::new(hy), SendPtr::new(hz));
        for_each_lane_block(team, groups, nb_rows, &mut s.fft, |g0, g1, w| {
            let (re, im) = (&mut w.re[..px * LANES], &mut w.im[..px * LANES]);
            for g in g0..g1 {
                let r0 = g * LANES;
                let live = LANES.min(ny - r0);
                for (plane, a, b) in [(xy, hx, Some(hy)), (z, hz, None)] {
                    // Safety: row groups are disjoint across blocks.
                    unsafe { gather_rows(plane.get(), px, r0, live, re, im) };
                    row.process_lanes(re, im, live, Direction::Inverse, nx, &mut w.fallback);
                    for l in 0..live {
                        for ix in 0..nx {
                            let i = (r0 + l) * nx + ix;
                            if !mask[i] {
                                continue;
                            }
                            // Safety: mesh rows are disjoint across blocks.
                            unsafe {
                                *a.add(i) += re[ix * LANES + l];
                                if let Some(b) = b {
                                    *b.add(i) += im[ix * LANES + l];
                                }
                            }
                        }
                    }
                }
            }
        });
    }

    /// Column work unit `u` of a convolution: strip 0 (the self-paired
    /// columns) for `u = 0`, else the strip pair `A = 2u − 1`,
    /// `B = 2u`. The `z` channel runs each strip alone — forward, scale
    /// by `K̂zz`, inverse — while the `xy` channel transforms `A` and
    /// `B` together so every conjugate bin pair sits in the same pair of
    /// lane buffers for [`NewellDemag::multiply_pair_strips`].
    ///
    /// # Safety
    ///
    /// `xy` and `z` must point to the scratch planes (`ny × px`), and no
    /// other thread may touch this unit's columns during the call.
    unsafe fn strip_unit(
        &self,
        u: usize,
        w: &mut LaneBufs,
        xy: SendPtr<Complex64>,
        z: SendPtr<Complex64>,
    ) {
        let (ny, px, py) = (self.ny, self.px, self.py);
        let col = self.plan.col_plan();
        let n = py * LANES;
        let LaneBufs {
            re,
            im,
            re2,
            im2,
            fallback,
        } = w;
        let (re, im) = (&mut re[..n], &mut im[..n]);
        let (re2, im2) = (&mut re2[..n], &mut im2[..n]);
        let strips: &[usize] = if u == 0 { &[0] } else { &[2 * u - 1, 2 * u] };
        let kzz = &self.spectra.kzz;
        for &t in strips {
            let s = paired_strip(px, t);
            gather_strip(z.get(), px, s, ny, re, im);
            col.process_lanes(re, im, s.live, Direction::Forward, ny, fallback);
            for ((r, i), &k) in re.iter_mut().zip(im.iter_mut()).zip(&kzz[t * n..][..n]) {
                *r *= k;
                *i *= k;
            }
            col.process_lanes(re, im, s.live, Direction::Inverse, ny, fallback);
            scatter_strip(re, im, z.get(), px, s, ny);
        }
        if u == 0 {
            let s = paired_strip(px, 0);
            gather_strip(xy.get(), px, s, ny, re, im);
            col.process_lanes(re, im, s.live, Direction::Forward, ny, fallback);
            self.multiply_self_strip(re, im);
            col.process_lanes(re, im, s.live, Direction::Inverse, ny, fallback);
            scatter_strip(re, im, xy.get(), px, s, ny);
        } else {
            let (sa, sb) = (paired_strip(px, 2 * u - 1), paired_strip(px, 2 * u));
            gather_strip(xy.get(), px, sa, ny, re, im);
            gather_strip(xy.get(), px, sb, ny, re2, im2);
            col.process_lanes(re, im, sa.live, Direction::Forward, ny, fallback);
            col.process_lanes(re2, im2, sb.live, Direction::Forward, ny, fallback);
            self.multiply_pair_strips(2 * u - 1, [re, im], [re2, im2]);
            col.process_lanes(re, im, sa.live, Direction::Inverse, ny, fallback);
            col.process_lanes(re2, im2, sb.live, Direction::Inverse, ny, fallback);
            scatter_strip(re, im, xy.get(), px, sa, ny);
            scatter_strip(re2, im2, xy.get(), px, sb, ny);
        }
    }

    /// The `[Kxx, Kyy, Kxy]` lanes of row `ky` of strip `t`.
    #[inline]
    fn k_inplane(&self, t: usize, ky: usize) -> [Lane; 3] {
        let k = &*self.spectra;
        let o = t * self.py * LANES;
        [
            lane(&k.kxx[o..], ky),
            lane(&k.kyy[o..], ky),
            lane(&k.kxy[o..], ky),
        ]
    }

    /// Applies the in-plane kernel block to the packed `xy` spectra of
    /// strip `ta` (lanes `a`) and its mirror strip `ta + 1` (lanes `b`).
    /// Lane `l` of the two strips holds the conjugate partner columns
    /// `kx` and `px − kx`, so bin `(kx, ky)` in `a` pairs with bin
    /// `(px − kx, (py − ky) mod py)` in `b`, and iterating `ky` over
    /// the whole column visits every pair once.
    ///
    /// Which bin of a pair takes the first argument role of
    /// [`pair_fields`] follows the row-major pipeline the strip pipeline
    /// replaced (DESIGN.md §4.5): the bin in `a` goes first iff
    /// `ky == 0 || 2·ky ≤ py`. The two roles differ only by conjugation,
    /// which is not bitwise neutral at signed zeros, so keeping the rule
    /// keeps every bin bit for bit what the row-major pipeline computed.
    fn multiply_pair_strips(&self, ta: usize, a: [&mut [f64]; 2], b: [&mut [f64]; 2]) {
        let py = self.py;
        let ([ar, ai], [br, bi]) = (a, b);
        for ky in 0..py {
            let ky2 = (py - ky) % py;
            let za = [lane(ar, ky), lane(ai, ky)];
            let zb = [lane(br, ky2), lane(bi, ky2)];
            let (ka, kb) = (self.k_inplane(ta, ky), self.k_inplane(ta + 1, ky2));
            let (ha, hb) = if ky == 0 || 2 * ky <= py {
                pair_lanes(za, zb, ka, kb)
            } else {
                let (hb, ha) = pair_lanes(zb, za, kb, ka);
                (ha, hb)
            };
            set_lane(ar, ky, ha[0]);
            set_lane(ai, ky, ha[1]);
            set_lane(br, ky2, hb[0]);
            set_lane(bi, ky2, hb[1]);
        }
    }

    /// The in-plane kernel block on strip 0, whose columns are their own
    /// conjugate partners: bin `ky` pairs with `(py − ky) mod py` in the
    /// same lane, so the half range `ky ≤ py/2` covers every pair once
    /// with the `ky ≤ py/2` bin first (the row-major order), and a bin
    /// that is its own partner is written once.
    fn multiply_self_strip(&self, re: &mut [f64], im: &mut [f64]) {
        let py = self.py;
        for ky in 0..=py / 2 {
            let ky2 = (py - ky) % py;
            let (h1, h2) = pair_lanes(
                [lane(re, ky), lane(im, ky)],
                [lane(re, ky2), lane(im, ky2)],
                self.k_inplane(0, ky),
                self.k_inplane(0, ky2),
            );
            set_lane(re, ky, h1[0]);
            set_lane(im, ky, h1[1]);
            if ky2 != ky {
                set_lane(re, ky2, h2[0]);
                set_lane(im, ky2, h2[1]);
            }
        }
    }
}

/// One `f64` per lane of a strip.
type Lane = [f64; LANES];

/// Element `j` of every lane of a lane buffer.
#[inline(always)]
fn lane(v: &[f64], j: usize) -> Lane {
    v[j * LANES..(j + 1) * LANES]
        .try_into()
        .expect("a lane row is LANES values")
}

/// Overwrites element `j` of every lane of a lane buffer.
#[inline(always)]
fn set_lane(v: &mut [f64], j: usize, x: Lane) {
    v[j * LANES..(j + 1) * LANES].copy_from_slice(&x);
}

/// [`pair_fields`] on every lane of one pair of lane rows: `z1`, `z2`
/// are `[re, im]` lanes, `k1`, `k2` the `[Kxx, Kyy, Kxy]` lanes.
#[inline(always)]
fn pair_lanes(
    z1: [Lane; 2],
    z2: [Lane; 2],
    k1: [Lane; 3],
    k2: [Lane; 3],
) -> ([Lane; 2], [Lane; 2]) {
    let mut h1 = [[0.0; LANES]; 2];
    let mut h2 = [[0.0; LANES]; 2];
    for l in 0..LANES {
        let (a, b) = pair_fields(
            Complex64::new(z1[0][l], z1[1][l]),
            Complex64::new(z2[0][l], z2[1][l]),
            [k1[0][l], k1[1][l], k1[2][l]],
            [k2[0][l], k2[1][l], k2[2][l]],
        );
        (h1[0][l], h1[1][l]) = (a.re, a.im);
        (h2[0][l], h2[1][l]) = (b.re, b.im);
    }
    (h1, h2)
}

/// The kernel multiply of one conjugate pair of packed-spectrum bins:
/// returns the new values of bins 1 and 2 given their packed values
/// `z1`, `z2` and their `[Kxx, Kyy, Kxy]` kernel values.
///
/// With `Z = M̂x + i·M̂y` and real fields, `M̂x(k) = (Z(k) + Z̄(−k))/2`
/// and `M̂y(k) = −i·(Z(k) − Z̄(−k))/2`; at `−k` both spectra are the
/// conjugates. After the kernel multiply the result is repacked as
/// `Ĥx + i·Ĥy`, whose inverse transform carries `hx`/`hy` in its
/// re/im channels.
#[inline(always)]
fn pair_fields(
    z1: Complex64,
    z2: Complex64,
    [kxx1, kyy1, kxy1]: [f64; 3],
    [kxx2, kyy2, kxy2]: [f64; 3],
) -> (Complex64, Complex64) {
    let mx = Complex64::new(0.5 * (z1.re + z2.re), 0.5 * (z1.im - z2.im));
    let my = Complex64::new(0.5 * (z1.im + z2.im), 0.5 * (z2.re - z1.re));
    let hx = mx.scale(kxx1) + my.scale(kxy1);
    let hy = mx.scale(kxy1) + my.scale(kyy1);
    let h1 = Complex64::new(hx.re - hy.im, hx.im + hy.re);
    let mxc = mx.conj();
    let myc = my.conj();
    let hx = mxc.scale(kxx2) + myc.scale(kxy2);
    let hy = mxc.scale(kxy2) + myc.scale(kyy2);
    let h2 = Complex64::new(hx.re - hy.im, hx.im + hy.re);
    (h1, h2)
}

/// Real-space Newell kernel values K = −N on one quadrant of offsets
/// `(|ox|, |oy|)`, `0 ≤ |ox| ≤ px/2`, `0 ≤ |oy| ≤ py/2`: every entry of
/// the padded wrap-around grid is one of these, mirrored (with `Kxy`'s
/// sign and its axis/Nyquist zeroing applied on lookup), so each stencil
/// runs once per distinct offset instead of once per padded cell.
struct NewellQuadrant {
    px: usize,
    py: usize,
    /// Row stride: `px/2 + 1`.
    qx: usize,
    /// `[Kxx, Kyy, Kzz, Nxy(|x|, |y|)]` per quadrant offset, row-major
    /// (`Kxy` takes its sign on lookup).
    values: [Vec<f64>; 4],
}

impl NewellQuadrant {
    fn new(px: usize, py: usize, [dx, dy, dz]: [f64; 3], team: &WorkerTeam) -> Self {
        let (qx, qy) = (px / 2 + 1, py / 2 + 1);
        let mut values: [Vec<f64>; 4] = std::array::from_fn(|_| vec![0.0; qx * qy]);
        let ptrs: [SendPtr<f64>; 4] = std::array::from_fn(|k| SendPtr::new(values[k].as_mut_ptr()));
        team.for_each_span(qy, |r0, r1| {
            for ay in r0..r1 {
                let y = ay as f64 * dy;
                for ax in 0..qx {
                    let x = ax as f64 * dx;
                    // K = −N so that the convolution yields H directly.
                    // The stencils run on the canonical |offset| (the
                    // tensor components are even or odd per axis), so
                    // mirrored entries are bitwise equal — the per-axis
                    // symmetry must be exact, not just to rounding, for
                    // the spectra to be purely real.
                    let v = [
                        -newell_nxx(x, y, 0.0, dx, dy, dz),
                        -newell_nxx(y, x, 0.0, dy, dx, dz),
                        -newell_nxx(0.0, y, x, dz, dy, dx),
                        if ax == 0 || ay == 0 {
                            0.0
                        } else {
                            newell_nxy(x, y, 0.0, dx, dy, dz)
                        },
                    ];
                    for (p, v) in ptrs.iter().zip(v) {
                        // Safety: quadrant rows are disjoint across spans.
                        unsafe { *p.add(ay * qx + ax) = v };
                    }
                }
            }
        });
        NewellQuadrant { px, py, qx, values }
    }

    /// Kernel `k` (`0..4` = `Kxx, Kyy, Kzz, Kxy`) at padded grid index
    /// `(jx, jy)`: indices beyond the half-grid are negative offsets.
    fn value(&self, k: usize, jx: usize, jy: usize) -> f64 {
        let (px, py) = (self.px, self.py);
        let ox = if jx <= px / 2 {
            jx as isize
        } else {
            jx as isize - px as isize
        };
        let oy = if jy <= py / 2 {
            jy as isize
        } else {
            jy as isize - py as isize
        };
        let q = oy.unsigned_abs() * self.qx + ox.unsigned_abs();
        if k < 3 {
            return self.values[k][q];
        }
        if ox == 0 || oy == 0 || 2 * jx == px || 2 * jy == py {
            // Kxy is odd per axis: it vanishes identically on the axes,
            // and at even padded sizes the Nyquist lines 2j = p (odd
            // across a self-inverse coordinate, never reaching the
            // physical output region) are zeroed to keep the spectrum
            // exactly real. `2j == p` rather than `j == p/2`: at odd
            // sizes the rounded half-index is an ordinary mirrored
            // column and must keep its kernel value.
            0.0
        } else {
            let sign = (ox.signum() * oy.signum()) as f64;
            -sign * self.values[3][q]
        }
    }
}

/// Builds the four Newell kernel spectra in strip order, through the
/// same passes the convolution uses: for each kernel the real-space
/// plane (filled from a [`NewellQuadrant`], `Kxy` Nyquist lines zeroed —
/// see module docs) runs the lane row pass over all `py` rows and the
/// forward column FFT of every [`paired_strip`], whose real parts are
/// stored. Also returns each kernel's `[max |Re|, max |Im|]` over its
/// spectrum, the evidence that dropping the imaginary parts is exact.
/// Order: `[Kxx, Kyy, Kzz, Kxy]`. Bitwise identical for any team.
fn kernel_spectra(
    cell: [f64; 3],
    plan: &Fft2Plan,
    team: &WorkerTeam,
) -> (KernelSpectra, [[f64; 2]; 4]) {
    let (px, py) = (plan.nx(), plan.ny());
    let quadrant = NewellQuadrant::new(px, py, cell, team);
    let strips = paired_strip_count(px);
    let n = py * LANES;
    let mut plane = vec![Complex64::ZERO; px * py];
    let mut rs = Fft2Scratch::new();
    rs.ensure(plan, team.threads());
    let mut peaks = [[0.0; 2]; 4];
    let mut tables: [Vec<f64>; 4] = std::array::from_fn(|_| vec![0.0; strips * n]);
    let mut strip_peaks = vec![[0.0f64; 2]; strips];
    for (k, table) in tables.iter_mut().enumerate() {
        team.for_each_chunk(&mut plane, |start, chunk| {
            for (o, v) in chunk.iter_mut().enumerate() {
                let (jy, jx) = ((start + o) / px, (start + o) % px);
                *v = Complex64::new(quadrant.value(k, jx, jy), 0.0);
            }
        });
        plan.row_pass(&mut plane, py, Direction::Forward, team, &mut rs);
        let base = SendPtr::new(plane.as_mut_ptr());
        let out = SendPtr::new(table.as_mut_ptr());
        let sp = SendPtr::new(strip_peaks.as_mut_ptr());
        let col = plan.col_plan();
        let nb = plan.pass_blocks(px * py, team);
        for_each_lane_block(team, strips, nb, &mut rs, |t0, t1, w| {
            let (re, im) = (&mut w.re[..n], &mut w.im[..n]);
            for t in t0..t1 {
                let s = paired_strip(px, t);
                // Safety: the plane is only read here; strip `t` owns
                // its slice of the table and its peak slot.
                unsafe {
                    gather_strip(base.get(), px, s, py, re, im);
                    col.process_lanes(re, im, s.live, Direction::Forward, py, &mut w.fallback);
                    std::slice::from_raw_parts_mut(out.add(t * n), n).copy_from_slice(re);
                    let max = |v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                    *sp.add(t) = [max(re), max(im)];
                }
            }
        });
        peaks[k] = strip_peaks
            .iter()
            .fold([0.0f64; 2], |a, p| [a[0].max(p[0]), a[1].max(p[1])]);
    }
    let [kxx, kyy, kzz, kxy] = tables;
    (KernelSpectra { kxx, kyy, kzz, kxy }, peaks)
}

impl std::fmt::Debug for NewellDemag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NewellDemag")
            .field("nx", &self.nx)
            .field("ny", &self.ny)
            .field("padded", &(self.px, self.py))
            .field("ms", &self.ms)
            .finish()
    }
}

impl FieldTerm for NewellDemag {
    fn name(&self) -> &'static str {
        "demag_newell_fft"
    }

    fn make_scratch(&self) -> Option<Box<dyn Any + Send + Sync>> {
        Some(Box::new(DemagScratch::new(self.ny * self.px)))
    }

    fn accumulate_par(
        &self,
        m: &Field3,
        _t: f64,
        h: &mut Field3,
        team: &WorkerTeam,
        scratch: Option<&mut (dyn Any + Send + Sync)>,
    ) {
        match scratch.and_then(|s| s.downcast_mut::<DemagScratch>()) {
            Some(s) => self.convolve(m, h, team, s),
            None => {
                // No caller-provided scratch: allocate one for this call.
                // Hot paths always pass the system-owned scratch.
                let mut s = DemagScratch::new(self.ny * self.px);
                self.convolve(m, h, team, &mut s);
            }
        }
    }
}

/// Newell `f` auxiliary function (even in every argument).
fn newell_f(x: f64, y: f64, z: f64) -> f64 {
    let (x, y, z) = (x.abs(), y.abs(), z.abs());
    let r = (x * x + y * y + z * z).sqrt();
    let mut acc = 0.0;
    // (y/2)(z²−x²)·asinh(y/√(x²+z²))
    let dxz = (x * x + z * z).sqrt();
    if dxz > 0.0 && y != 0.0 {
        acc += 0.5 * y * (z * z - x * x) * (y / dxz).asinh();
    }
    // (z/2)(y²−x²)·asinh(z/√(x²+y²))
    let dxy = (x * x + y * y).sqrt();
    if dxy > 0.0 && z != 0.0 {
        acc += 0.5 * z * (y * y - x * x) * (z / dxy).asinh();
    }
    // −xyz·atan(yz/(xR))
    if x != 0.0 && r > 0.0 && y != 0.0 && z != 0.0 {
        acc -= x * y * z * (y * z / (x * r)).atan();
    }
    // (1/6)(2x²−y²−z²)·R
    acc += (2.0 * x * x - y * y - z * z) * r / 6.0;
    acc
}

/// Newell `g` auxiliary function (odd in x and y, even in z).
fn newell_g(x: f64, y: f64, z: f64) -> f64 {
    let zs = z.abs();
    let r = (x * x + y * y + zs * zs).sqrt();
    let mut acc = 0.0;
    let dxy = (x * x + y * y).sqrt();
    if dxy > 0.0 && zs != 0.0 {
        acc += x * y * zs * (zs / dxy).asinh();
    }
    let dyz = (y * y + zs * zs).sqrt();
    if dyz > 0.0 && x != 0.0 {
        acc += y / 6.0 * (3.0 * zs * zs - y * y) * (x / dyz).asinh();
    }
    let dxz = (x * x + zs * zs).sqrt();
    if dxz > 0.0 && y != 0.0 {
        acc += x / 6.0 * (3.0 * zs * zs - x * x) * (y / dxz).asinh();
    }
    if zs != 0.0 && r > 0.0 && x != 0.0 && y != 0.0 {
        acc -= zs * zs * zs / 6.0 * (x * y / (zs * r)).atan();
    }
    if y != 0.0 && r > 0.0 && x != 0.0 && zs != 0.0 {
        acc -= zs * y * y / 2.0 * (x * zs / (y * r)).atan();
    }
    if x != 0.0 && r > 0.0 && y != 0.0 && zs != 0.0 {
        acc -= zs * x * x / 2.0 * (y * zs / (x * r)).atan();
    }
    acc -= x * y * r / 3.0;
    acc
}

/// Applies the 27-point second-difference stencil to an auxiliary function.
fn newell_stencil<F: Fn(f64, f64, f64) -> f64>(
    x: f64,
    y: f64,
    z: f64,
    dx: f64,
    dy: f64,
    dz: f64,
    func: F,
) -> f64 {
    const W: [(isize, f64); 3] = [(-1, -1.0), (0, 2.0), (1, -1.0)];
    let mut acc = 0.0;
    for &(u, wu) in &W {
        for &(v, wv) in &W {
            for &(w, ww) in &W {
                acc += wu * wv * ww * func(x + u as f64 * dx, y + v as f64 * dy, z + w as f64 * dz);
            }
        }
    }
    acc
}

/// Demag tensor component `Nxx` between two cells displaced by `(x, y, z)`.
///
/// `Nxx` is even in every displacement component. Evaluating the stencil
/// at the canonical absolute offsets makes that symmetry hold **bitwise**:
/// the summation order — and with it the cancellation noise of the
/// second-difference stencil, which grows with distance — is identical at
/// `±x`, so kernel tables built from signed and from absolute offsets
/// agree exactly.
pub fn newell_nxx(x: f64, y: f64, z: f64, dx: f64, dy: f64, dz: f64) -> f64 {
    let (x, y, z) = (x.abs(), y.abs(), z.abs());
    newell_stencil(x, y, z, dx, dy, dz, newell_f) / (4.0 * std::f64::consts::PI * dx * dy * dz)
}

/// Demag tensor component `Nxy` between two cells displaced by `(x, y, z)`.
///
/// `Nxy` is odd in `x` and `y` and even in `z`; the stencil runs on the
/// canonical absolute offsets with the sign restored afterwards, so the
/// antisymmetry is bitwise exact and the component vanishes identically
/// on the coordinate planes (where the raw stencil would only cancel to
/// rounding noise).
pub fn newell_nxy(x: f64, y: f64, z: f64, dx: f64, dy: f64, dz: f64) -> f64 {
    if x == 0.0 || y == 0.0 {
        return 0.0;
    }
    let sign = x.signum() * y.signum();
    sign * newell_stencil(x.abs(), y.abs(), z.abs(), dx, dy, dz, newell_g)
        / (4.0 * std::f64::consts::PI * dx * dy * dz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{fft2_in_place, FftPlan};
    use crate::field::{accumulate_aos, energy_aos};
    use crate::math::Vec3;

    #[test]
    fn cube_self_factors_are_one_third() {
        let (nxx, nyy, nzz) = NewellDemag::self_factors(1e-9, 1e-9, 1e-9);
        assert!((nxx - 1.0 / 3.0).abs() < 1e-9, "Nxx = {nxx}");
        assert!((nyy - 1.0 / 3.0).abs() < 1e-9);
        assert!((nzz - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn self_factors_sum_to_one_for_any_aspect() {
        for (dx, dy, dz) in [
            (1e-9, 1e-9, 1e-9),
            (5e-9, 5e-9, 1e-9),
            (2e-9, 8e-9, 1e-9),
            (10e-9, 3e-9, 0.5e-9),
        ] {
            let (nxx, nyy, nzz) = NewellDemag::self_factors(dx, dy, dz);
            assert!(
                (nxx + nyy + nzz - 1.0).abs() < 1e-8,
                "trace violated for ({dx}, {dy}, {dz}): {}",
                nxx + nyy + nzz
            );
        }
    }

    #[test]
    fn flat_cell_is_dominated_by_nzz() {
        let (nxx, nyy, nzz) = NewellDemag::self_factors(10e-9, 10e-9, 1e-9);
        assert!(nzz > 0.8, "flat cell Nzz = {nzz}");
        assert!(nxx < 0.1 && nyy < 0.1);
        assert!((nxx - nyy).abs() < 1e-12, "square cell must be symmetric");
    }

    #[test]
    fn nxy_vanishes_on_axes() {
        // Nxy is odd in x and y: it must vanish when either offset is 0.
        assert!(newell_nxy(0.0, 0.0, 0.0, 1e-9, 1e-9, 1e-9).abs() < 1e-12);
        assert!(newell_nxy(2e-9, 0.0, 0.0, 1e-9, 1e-9, 1e-9).abs() < 1e-12);
        assert!(newell_nxy(0.0, 2e-9, 0.0, 1e-9, 1e-9, 1e-9).abs() < 1e-12);
    }

    #[test]
    fn nxy_is_odd_under_axis_flip() {
        let a = newell_nxy(2e-9, 3e-9, 0.0, 1e-9, 1e-9, 1e-9);
        let b = newell_nxy(-2e-9, 3e-9, 0.0, 1e-9, 1e-9, 1e-9);
        assert!((a + b).abs() < 1e-15);
        assert!(a.abs() > 0.0, "off-axis Nxy should be non-zero");
    }

    fn film_setup(nx: usize, ny: usize) -> (Mesh, Material) {
        let mesh = Mesh::new(nx, ny, [5e-9, 5e-9, 1e-9]).unwrap();
        (mesh, Material::fecob())
    }

    /// Asserts each kernel's spectrum is real to `1e-12` of its peak.
    fn assert_real(peaks: &[[f64; 2]; 4], what: &str) {
        for (name, [max_re, max_im]) in ["Kxx", "Kyy", "Kzz", "Kxy"].iter().zip(peaks) {
            assert!(
                *max_im <= 1e-12 * max_re,
                "{name} spectrum is not real {what}: max |Im| = {max_im:e}, max |Re| = {max_re:e}"
            );
        }
    }

    #[test]
    fn spectral_kernels_have_vanishing_imaginary_parts() {
        // The real-storage conversion relies on the four spectra being
        // exactly real (up to FFT rounding). Check on a non-square grid so
        // both Nyquist lines are exercised.
        let (mesh, _) = film_setup(12, 5);
        let plan = Fft2Plan::new(
            (2 * mesh.nx()).next_power_of_two(),
            (2 * mesh.ny()).next_power_of_two(),
        );
        let (_, peaks) = kernel_spectra(mesh.cell_size(), &plan, &WorkerTeam::new(1));
        assert_real(&peaks, "at power-of-two padding");
    }

    /// Bit patterns of the four strip-order tables.
    fn table_bits(k: &KernelSpectra) -> Vec<Vec<u64>> {
        [&k.kxx, &k.kyy, &k.kzz, &k.kxy]
            .iter()
            .map(|t| t.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn parallel_kernel_build_is_bitwise_identical() {
        // The cache hands every construction the spectra built first, so
        // team-invariance of the build is checked on `kernel_spectra`
        // directly — through `NewellDemag::new_with_team` the comparison
        // would be vacuous.
        let (mesh, _) = film_setup(9, 6);
        let plan = Fft2Plan::new(
            (2 * mesh.nx()).next_power_of_two(),
            (2 * mesh.ny()).next_power_of_two(),
        )
        .with_min_cells_per_thread(0);
        let (serial, _) = kernel_spectra(mesh.cell_size(), &plan, &WorkerTeam::new(1));
        for threads in [2, 4, 7] {
            let (par, _) = kernel_spectra(mesh.cell_size(), &plan, &WorkerTeam::new(threads));
            assert_eq!(
                table_bits(&serial),
                table_bits(&par),
                "kernel tables diverged at {threads} threads"
            );
        }
    }

    /// The real-space kernel value at padded index `(jx, jy)` evaluated
    /// directly for that cell — the full-grid pre-pass the quadrant
    /// evaluation replaced.
    fn full_grid_kernel(
        k: usize,
        jx: usize,
        jy: usize,
        px: usize,
        py: usize,
        cell: [f64; 3],
    ) -> f64 {
        let [dx, dy, dz] = cell;
        let oy = if jy <= py / 2 {
            jy as isize
        } else {
            jy as isize - py as isize
        };
        let ox = if jx <= px / 2 {
            jx as isize
        } else {
            jx as isize - px as isize
        };
        let y = oy.unsigned_abs() as f64 * dy;
        let x = ox.unsigned_abs() as f64 * dx;
        match k {
            0 => -newell_nxx(x, y, 0.0, dx, dy, dz),
            1 => -newell_nxx(y, x, 0.0, dy, dx, dz),
            2 => -newell_nxx(0.0, y, x, dz, dy, dx),
            _ if ox == 0 || oy == 0 || 2 * jx == px || 2 * jy == py => 0.0,
            _ => -((ox.signum() * oy.signum()) as f64) * newell_nxy(x, y, 0.0, dx, dy, dz),
        }
    }

    #[test]
    fn quadrant_prepass_matches_full_grid_evaluation() {
        // One stencil set per distinct (|ox|, |oy|), mirrored, must give
        // the full-grid table bit for bit — on an odd (15×9) and an even
        // (16×10) padded grid, with a non-square cell.
        let cell = [5e-9, 3e-9, 1e-9];
        for (px, py) in [(15usize, 9usize), (16, 10)] {
            let q = NewellQuadrant::new(px, py, cell, &WorkerTeam::new(3));
            for k in 0..4 {
                for jy in 0..py {
                    for jx in 0..px {
                        assert_eq!(
                            q.value(k, jx, jy).to_bits(),
                            full_grid_kernel(k, jx, jy, px, py, cell).to_bits(),
                            "kernel {k} at ({jx},{jy}) of {px}×{py}"
                        );
                    }
                }
            }
        }
    }

    /// The convolution as the scalar, row-major pipeline defines it:
    /// `FftPlan::process` on the populated rows, then on every column;
    /// conjugate pairs multiplied in row-major visiting order (the first
    /// bin of a pair to be reached takes the first role); columns then
    /// populated rows inverted. Returns `[hx, hy, hz]` per cell.
    fn row_major_reference(
        mesh: &Mesh,
        mat: &Material,
        m: &[Vec3],
        policy: PadPolicy,
    ) -> Vec<Vec3> {
        let (nx, ny) = (mesh.nx(), mesh.ny());
        let (px, py) = (policy.pad(nx), policy.pad(ny));
        let cell = mesh.cell_size();
        let ms = mat.saturation_magnetization();
        let (row, col) = (FftPlan::new(px), FftPlan::new(py));
        let kernel = |k: usize| -> Vec<f64> {
            let mut plane: Vec<Complex64> = (0..px * py)
                .map(|i| Complex64::new(full_grid_kernel(k, i % px, i / px, px, py, cell), 0.0))
                .collect();
            fft2_in_place(&mut plane, px, py, Direction::Forward);
            plane.iter().map(|z| z.re).collect()
        };
        let [kxx, kyy, kzz, kxy] = [0, 1, 2, 3].map(kernel);
        let transform = |grid: &mut [Complex64], direction: Direction| {
            let mut line = vec![Complex64::ZERO; py];
            let rows = |grid: &mut [Complex64]| {
                for r in grid[..ny * px].chunks_mut(px) {
                    row.process(r, direction);
                }
            };
            if direction == Direction::Forward {
                rows(grid);
            }
            for kx in 0..px {
                for (ky, z) in line.iter_mut().enumerate() {
                    *z = grid[ky * px + kx];
                }
                col.process(&mut line, direction);
                for (ky, z) in line.iter().enumerate() {
                    grid[ky * px + kx] = *z;
                }
            }
            if direction == Direction::Inverse {
                rows(grid);
            }
        };
        let mut xy = vec![Complex64::ZERO; px * py];
        let mut z = vec![Complex64::ZERO; px * py];
        for iy in 0..ny {
            for ix in 0..nx {
                let i = iy * nx + ix;
                if mesh.mask()[i] {
                    xy[iy * px + ix] = Complex64::new(ms * m[i].x, ms * m[i].y);
                    z[iy * px + ix] = Complex64::new(ms * m[i].z, 0.0);
                }
            }
        }
        transform(&mut xy, Direction::Forward);
        transform(&mut z, Direction::Forward);
        for (zb, k) in z.iter_mut().zip(&kzz) {
            *zb = zb.scale(*k);
        }
        let mut done = vec![false; px * py];
        for ky in 0..py {
            for kx in 0..px {
                let b = ky * px + kx;
                let p = ((py - ky) % py) * px + (px - kx) % px;
                if done[b] {
                    continue;
                }
                let (h1, h2) = pair_fields(
                    xy[b],
                    xy[p],
                    [kxx[b], kyy[b], kxy[b]],
                    [kxx[p], kyy[p], kxy[p]],
                );
                xy[b] = h1;
                if p != b {
                    xy[p] = h2;
                }
                done[b] = true;
                done[p] = true;
            }
        }
        transform(&mut xy, Direction::Inverse);
        transform(&mut z, Direction::Inverse);
        (0..nx * ny)
            .map(|i| {
                let (iy, ix) = (i / nx, i % nx);
                let p = iy * px + ix;
                if mesh.mask()[i] {
                    // Accumulated into a zeroed field, as `accumulate_aos` does.
                    Vec3::ZERO + Vec3::new(xy[p].re, xy[p].im, z[p].re)
                } else {
                    Vec3::ZERO
                }
            })
            .collect()
    }

    #[test]
    fn field_is_bitwise_the_row_major_reference() {
        // The strip pipeline against the scalar row-major definition,
        // bit for bit: even (24×10 pads to 48×20), odd (8×8 to 15×15) and
        // Bluestein (6×3 to 11×5) grids, a masked mesh, a tilted state
        // and a uniform out-of-plane one (an all-zero in-plane channel).
        for (nx, ny, policy) in [
            (24usize, 10usize, PadPolicy::GoodSize),
            (8, 8, PadPolicy::GoodSize),
            (6, 3, PadPolicy::Exact),
        ] {
            let (mut mesh, mat) = film_setup(nx, ny);
            mesh.set_magnetic(nx / 2, ny / 2, false);
            let n = mesh.cell_count();
            let noisy: Vec<Vec3> = (0..n)
                .map(|i| {
                    Vec3::new((0.3 * i as f64).sin(), (0.7 * i as f64).cos(), 0.5).normalized()
                })
                .collect();
            for m in [vec![Vec3::Z; n], noisy] {
                let demag =
                    NewellDemag::with_options(&mesh, &mat, &WorkerTeam::new(3), policy, Some(0));
                let mut h = vec![Vec3::ZERO; n];
                accumulate_aos(&demag, &m, 0.0, &mut h);
                let want = row_major_reference(&mesh, &mat, &m, policy);
                let bits = |v: &[Vec3]| -> Vec<[u64; 3]> {
                    v.iter()
                        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                        .collect()
                };
                assert_eq!(bits(&h), bits(&want), "{nx}×{ny} {policy:?}");
            }
        }
    }

    #[test]
    fn strip_order_tables_are_the_full_grid_transform() {
        // Every strip-order entry must be the real part of the matching
        // bin of the plain 2-D transform of the full-grid kernel plane —
        // bitwise, on an even, an odd and a Bluestein (11 is prime)
        // padded grid, with partial and self-paired strips.
        for (px, py) in [(40usize, 12usize), (15, 9), (11, 5)] {
            let cell = [5e-9, 5e-9, 1e-9];
            let plan = Fft2Plan::new(px, py);
            let (tables, peaks) = kernel_spectra(cell, &plan, &WorkerTeam::new(2));
            assert_real(&peaks, &format!("at {px}×{py}"));
            let n = py * LANES;
            for (k, table) in [&tables.kxx, &tables.kyy, &tables.kzz, &tables.kxy]
                .iter()
                .enumerate()
            {
                let mut plane: Vec<Complex64> = (0..px * py)
                    .map(|i| Complex64::new(full_grid_kernel(k, i % px, i / px, px, py, cell), 0.0))
                    .collect();
                plan.process(&mut plane, &WorkerTeam::new(1), Direction::Forward);
                let mut seen = vec![false; px];
                for t in 0..paired_strip_count(px) {
                    let s = paired_strip(px, t);
                    for l in 0..LANES {
                        for ky in 0..py {
                            let v = table[t * n + ky * LANES + l];
                            if l >= s.live {
                                assert_eq!(v.to_bits(), 0, "dead lane {l} of strip {t}");
                                continue;
                            }
                            let want = plane[ky * px + s.col(l)].re;
                            assert_eq!(
                                v.to_bits(),
                                want.to_bits(),
                                "kernel {k} strip {t} lane {l}"
                            );
                        }
                        if l < s.live {
                            assert!(!seen[s.col(l)], "column {} in two strips", s.col(l));
                            seen[s.col(l)] = true;
                        }
                    }
                }
                assert!(seen.iter().all(|&c| c), "{px}: some column is in no strip");
            }
        }
    }

    #[test]
    fn spectra_are_shared_through_the_cache() {
        let (mesh, mat) = film_setup(10, 4);
        let a = NewellDemag::new(&mesh, &mat);
        let b = NewellDemag::new_with_team(&mesh, &mat, &WorkerTeam::new(3));
        assert!(
            Arc::ptr_eq(&a.spectra, &b.spectra),
            "same geometry must share one kernel table"
        );
        // A different padded grid gets its own entry.
        let (other, _) = film_setup(20, 4);
        let c = NewellDemag::new(&other, &mat);
        assert!(!Arc::ptr_eq(&a.spectra, &c.spectra));
    }

    #[test]
    fn padding_policies_use_distinct_cache_entries_and_agree() {
        // Same mesh, two padding policies: the padded grids differ
        // (40×9 vs 39×9 here), so the cache must hand out two distinct
        // kernel tables — a collision would apply a 39-point spectrum to
        // a 40-point grid. The physical fields still agree to rounding.
        let (mesh, mat) = film_setup(20, 5);
        let good = NewellDemag::with_padding(&mesh, &mat, &WorkerTeam::new(1), PadPolicy::GoodSize);
        let exact = NewellDemag::with_padding(&mesh, &mat, &WorkerTeam::new(1), PadPolicy::Exact);
        assert_ne!(good.padded_dims(), exact.padded_dims());
        assert_eq!(exact.padded_dims(), (39, 9));
        assert!(
            !Arc::ptr_eq(&good.spectra, &exact.spectra),
            "different padded grids must not share a cache entry"
        );
        let n = mesh.cell_count();
        let m: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new((0.4 * i as f64).sin(), 0.3, (0.2 * i as f64).cos()).normalized())
            .collect();
        let ms = mat.saturation_magnetization();
        let mut ha = vec![Vec3::ZERO; n];
        let mut hb = vec![Vec3::ZERO; n];
        accumulate_aos(&good, &m, 0.0, &mut ha);
        accumulate_aos(&exact, &m, 0.0, &mut hb);
        for i in 0..n {
            let err = (ha[i] - hb[i]).norm() / ms;
            assert!(err < 1e-12, "cell {i}: policies diverged by {err:e}");
        }
    }

    /// Asserts that `demag`'s field at `m` reproduces the direct O(N²)
    /// tensor sum `h_i = Σ_j K(r_i − r_j)·Ms·m_j` to `tol` of Ms per cell.
    fn assert_matches_direct_sum(
        demag: &NewellDemag,
        mesh: &Mesh,
        mat: &Material,
        m: &[Vec3],
        tol: f64,
    ) {
        let ms = mat.saturation_magnetization();
        let [dx, dy, dz] = mesh.cell_size();
        let mut fft_field = vec![Vec3::ZERO; m.len()];
        accumulate_aos(demag, m, 0.0, &mut fft_field);
        for iy in 0..mesh.ny() {
            for ix in 0..mesh.nx() {
                let i = iy * mesh.nx() + ix;
                let mut direct = Vec3::ZERO;
                for jy in 0..mesh.ny() {
                    for jx in 0..mesh.nx() {
                        let j = jy * mesh.nx() + jx;
                        let x = (ix as isize - jx as isize) as f64 * dx;
                        let y = (iy as isize - jy as isize) as f64 * dy;
                        let nxx = newell_nxx(x, y, 0.0, dx, dy, dz);
                        let nyy = newell_nxx(y, x, 0.0, dy, dx, dz);
                        let nzz = newell_nxx(0.0, y, x, dz, dy, dx);
                        let nxy = newell_nxy(x, y, 0.0, dx, dy, dz);
                        let mj = m[j] * ms;
                        direct += Vec3::new(
                            -(nxx * mj.x + nxy * mj.y),
                            -(nxy * mj.x + nyy * mj.y),
                            -nzz * mj.z,
                        );
                    }
                }
                let err = (fft_field[i] - direct).norm() / ms;
                assert!(
                    err < tol,
                    "cell ({ix},{iy}) of {:?}: FFT {:?} vs direct {direct:?} (err {err:e})",
                    demag.padded_dims(),
                    fft_field[i]
                );
            }
        }
    }

    #[test]
    fn odd_padded_grid_matches_direct_newell_sum() {
        // An 8×8 mesh pads to 15×15 under good_size (2·8−1 = 15 = 3·5):
        // both axes odd, exercising the wrap offsets, the `2j == p`
        // Nyquist guard (no line may be zeroed at odd sizes) and the
        // conjugate-pair spectral multiply away from powers of two.
        let (mesh, mat) = film_setup(8, 8);
        let demag = NewellDemag::new(&mesh, &mat);
        assert_eq!(demag.padded_dims(), (15, 15), "expected odd padding");
        let n = mesh.cell_count();
        let m: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new(0.3, (0.5 * i as f64).sin(), 0.7 + 0.01 * i as f64).normalized())
            .collect();
        assert_matches_direct_sum(&demag, &mesh, &mat, &m, 1e-12);
    }

    #[test]
    fn exact_padding_matches_direct_newell_sum_through_bluestein() {
        // PadPolicy::Exact pads 6×3 to 11×5 — 11 is prime, so the row
        // axis runs the Bluestein fallback inside a real convolution.
        // The field must still reproduce the direct O(N²) tensor sum.
        let (mesh, mat) = film_setup(6, 3);
        let demag = NewellDemag::with_padding(&mesh, &mat, &WorkerTeam::new(1), PadPolicy::Exact);
        assert_eq!(demag.padded_dims(), (11, 5));
        let n = mesh.cell_count();
        let m: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new(0.5 * (i as f64).cos(), 0.4, 0.8 + 0.02 * i as f64).normalized())
            .collect();
        assert_matches_direct_sum(&demag, &mesh, &mat, &m, 1e-11);
    }

    #[test]
    fn odd_padded_spectra_are_real() {
        // The purely-real-spectrum property must survive odd padded
        // sizes: 8×5 pads to 15×9.
        let (mesh, _) = film_setup(8, 5);
        let px = PadPolicy::GoodSize.pad(mesh.nx());
        let py = PadPolicy::GoodSize.pad(mesh.ny());
        assert_eq!((px, py), (15, 9));
        let (_, peaks) = kernel_spectra(
            mesh.cell_size(),
            &Fft2Plan::new(px, py),
            &WorkerTeam::new(1),
        );
        assert_real(&peaks, "at odd padding");
    }

    #[test]
    fn parallel_field_is_bitwise_identical_to_fallback() {
        let (mut mesh, mat) = film_setup(11, 7);
        mesh.set_magnetic(4, 3, false);
        let demag = NewellDemag::new(&mesh, &mat);
        let n = mesh.cell_count();
        let m: Vec<Vec3> = (0..n)
            .map(|i| {
                if mesh.mask()[i] {
                    Vec3::new(
                        (0.3 * i as f64).sin(),
                        (0.7 * i as f64).cos(),
                        1.0 - 0.01 * i as f64,
                    )
                    .normalized()
                } else {
                    Vec3::ZERO
                }
            })
            .collect();
        // Reference: one thread, scratch allocated by the call itself.
        let mf = Field3::from_vec3s(&m);
        let mut reference = Field3::zeros(n);
        demag.accumulate_par(&mf, 0.0, &mut reference, &WorkerTeam::new(1), None);
        for threads in [1, 2, 4, 7] {
            let team = WorkerTeam::new(threads);
            let mut scratch = demag.make_scratch().expect("demag needs scratch");
            let mut h = Field3::zeros(n);
            demag.accumulate_par(&mf, 0.0, &mut h, &team, Some(scratch.as_mut()));
            assert_eq!(h, reference, "demag field diverged at {threads} threads");
        }
    }

    #[test]
    fn convolution_matches_direct_newell_sum() {
        // Small grid: the FFT convolution must reproduce the O(N²) direct
        // tensor sum h_i = Σ_j K(r_i − r_j)·Ms·m_j to rounding accuracy.
        let (mesh, mat) = film_setup(6, 3);
        let demag = NewellDemag::new(&mesh, &mat);
        let n = mesh.cell_count();
        let m: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new(0.5 * (i as f64).cos(), 0.4, 0.8 + 0.02 * i as f64).normalized())
            .collect();
        assert_matches_direct_sum(&demag, &mesh, &mat, &m, 1e-12);
    }

    #[test]
    fn newell_field_of_flat_film_approaches_local_limit() {
        // A uniformly out-of-plane magnetized wide thin film: at the centre
        // H_z → −Ms, the thin-film local value.
        let (mesh, mat) = film_setup(32, 32);
        let demag = NewellDemag::new(&mesh, &mat);
        let n = mesh.cell_count();
        let m = vec![Vec3::Z; n];
        let mut h = vec![Vec3::ZERO; n];
        accumulate_aos(&demag, &m, 0.0, &mut h);
        let centre = mesh.linear_index(16, 16);
        let hz = h[centre].z;
        let ms = mat.saturation_magnetization();
        assert!(
            (hz + ms).abs() / ms < 0.15,
            "centre demag field {hz} should be close to -Ms = {}",
            -ms
        );
        // In-plane components vanish by symmetry.
        assert!(h[centre].x.abs() / ms < 1e-6);
        assert!(h[centre].y.abs() / ms < 1e-6);
        // The edge field is weaker (flux closure).
        let edge = mesh.linear_index(0, 16);
        assert!(h[edge].z.abs() < hz.abs());
    }

    #[test]
    fn thin_film_local_term_is_minus_ms_mz() {
        let (mesh, mat) = film_setup(4, 4);
        let demag = ThinFilmDemag::new(&mesh, &mat);
        let m = vec![Vec3::new(0.6, 0.0, 0.8); mesh.cell_count()];
        let mut h = vec![Vec3::ZERO; mesh.cell_count()];
        accumulate_aos(&demag, &m, 0.0, &mut h);
        for hi in &h {
            assert!((hi.z + mat.saturation_magnetization() * 0.8).abs() < 1e-6);
            assert_eq!(hi.x, 0.0);
        }
    }

    #[test]
    fn vacuum_cells_receive_no_demag_field() {
        let (mut mesh, mat) = film_setup(4, 1);
        mesh.set_magnetic(3, 0, false);
        let local = ThinFilmDemag::new(&mesh, &mat);
        let newell = NewellDemag::new(&mesh, &mat);
        let m = vec![Vec3::Z; 4];
        for term in [&local as &dyn FieldTerm, &newell as &dyn FieldTerm] {
            let mut h = vec![Vec3::ZERO; 4];
            accumulate_aos(term, &m, 0.0, &mut h);
            assert_eq!(h[3], Vec3::ZERO, "{} leaked into vacuum", term.name());
        }
    }

    #[test]
    fn in_plane_magnetized_film_has_small_demag_field_inside() {
        // For in-plane magnetization of a thin film the demag field is
        // weak (N∥ ≈ 0) — checks the Nxx path of the convolution.
        let (mesh, mat) = film_setup(32, 32);
        let demag = NewellDemag::new(&mesh, &mat);
        let n = mesh.cell_count();
        let m = vec![Vec3::X; n];
        let mut h = vec![Vec3::ZERO; n];
        accumulate_aos(&demag, &m, 0.0, &mut h);
        let centre = mesh.linear_index(16, 16);
        let ms = mat.saturation_magnetization();
        assert!(
            h[centre].x.abs() / ms < 0.1,
            "in-plane demag field should be small: {}",
            h[centre].x / ms
        );
    }

    #[test]
    fn demag_energy_prefers_out_of_plane_for_nothing() {
        // Sanity: out-of-plane uniform state has *higher* demag energy than
        // in-plane for a film (shape anisotropy).
        let (mesh, mat) = film_setup(16, 16);
        let demag = NewellDemag::new(&mesh, &mat);
        let n = mesh.cell_count();
        let ms = mat.saturation_magnetization();
        let v = mesh.cell_volume();
        let e_oop = energy_aos(&demag, &vec![Vec3::Z; n], 0.0, ms, v);
        let e_ip = energy_aos(&demag, &vec![Vec3::X; n], 0.0, ms, v);
        assert!(e_oop > e_ip, "film shape anisotropy: {e_oop} vs {e_ip}");
    }
}
