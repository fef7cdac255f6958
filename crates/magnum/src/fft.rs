//! Planned mixed-radix FFT (radix-4/2/3/5 with a Bluestein fallback).
//!
//! Used by the Newell demagnetization kernel (2-D convolution) and by the
//! spectrum probes. Any length `n ≥ 1` is accepted: 5-smooth lengths
//! (`n = 2^a·3^b·5^c`) run through native radix-4/2/3/5 stages; lengths
//! with a larger prime factor fall back to Bluestein's chirp-z algorithm
//! over an inner 5-smooth plan. Hot paths never hit the fallback because
//! they pad with [`good_size`], which only returns 5-smooth lengths.
//!
//! ## Plans
//!
//! Hot paths build an [`FftPlan`] (1-D) or [`Fft2Plan`] (2-D) once and
//! reuse it. A plan precomputes the mixed-radix digit-reversal
//! permutation (stored as a swap list so execution stays in place) and
//! one twiddle table per butterfly stage, so the inner loop is a single
//! complex multiply per input of each butterfly — the old implementation
//! regenerated twiddles with a running product `w *= wlen`, which both
//! cost an extra complex multiply per butterfly and accumulated rounding
//! drift that grows with the transform length (see the
//! `table_twiddles_beat_running_product` regression test).
//!
//! `process` takes `&self` and mutates only the caller's buffer, so one
//! plan is shared concurrently by every worker thread; the decimation
//! order and butterfly arithmetic are fixed at plan time, so results are
//! bitwise identical no matter which thread runs which row.
//!
//! ## Plan selection
//!
//! [`good_size`] picks the padded length for convolutions: the cheapest
//! 5-smooth length ≥ `n` under a per-stage cost model (DESIGN.md §4.4),
//! instead of the next power of two. At the awkward sizes large demag
//! grids produce (2n−1 for n = 320, 960, 1500, …) this cuts the padded
//! area — and with it every transform and spectral multiply — by up to
//! ~2.5× in 2-D.
//!
//! ## Lanes and strips
//!
//! [`FftPlan::process_lanes`] runs [`LANES`] transforms at once on
//! structure-of-arrays lanes, each lane bitwise equal to
//! [`FftPlan::process`] on its line; the lane loops vectorize, with
//! AVX-512 and AVX2 copies chosen at runtime. An inverse scales by 1/N
//! in its last butterfly stage rather than in a pass of its own. A
//! window prunes what the caller does not need: a forward skips the
//! first-stage digits whose inputs are known zeros (zero padding), an
//! inverse computes only the leading outputs it keeps. [`Fft2Plan`] transforms
//! rows in groups of [`LANES`], then columns in strips of [`LANES`]
//! gathered into a per-thread, cache-resident lane buffer — there is no
//! grid-sized transpose. Every row group and strip is independent of the
//! block partition, so results are bitwise identical for any
//! [`WorkerTeam`] size (the same determinism contract as the fused LLG
//! kernel). The Newell demag runs its whole convolution through the same
//! passes (`crate::field::demag`, DESIGN.md §4.5).
//!
//! ## Real transforms
//!
//! [`fft_real_pair`] packs two real sequences into one complex transform
//! (re/im channels) and unpacks the two spectra via conjugate symmetry;
//! [`fft_real`] transforms a single even-length real sequence through a
//! half-length complex FFT (odd lengths take a plain complex transform).
//! The Newell demag path uses the same packing to turn six full 2-D
//! transforms of `mx/my/mz` into three transforms' worth: `mx + i·my`
//! share one complex grid, and pairs of `mz` rows share one row
//! transform whose half spectra alone go through the columns. All of
//! them unpack with one formula, `split_real_pair`.
//!
//! The convenience free functions ([`fft_in_place`], [`fft2_in_place`])
//! build a throwaway plan per call and run serially — fine for tests and
//! one-off spectra, wasteful inside an integrator loop.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::math::Complex64;
use crate::par::{chunk_bounds, effective_threads, SendPtr, WorkerTeam};

/// Default minimum number of grid cells a 2-D FFT pass must touch per
/// worker thread before the pass fans out.
///
/// FFT passes are heavier per cell than the LLG axpy sweeps, but their
/// parallel regions are also much shorter-lived (one region per row or
/// column pass), so the break-even point sits above
/// [`crate::par::MIN_CELLS_PER_THREAD`]. Measured with the strip
/// pipeline on a shared 2-vCPU host (`parbench --bigfft --min-cells 0`,
/// 1 against 2 threads, five interleaved runs; DESIGN.md §4.5): a
/// 48×40 pad loses ~2× to the rendezvous, 256² and 320² pads gain a
/// median 1.3× with runs below 1.0×, and from a 400² pad up 2 threads
/// gain a median 1.9×. 2¹⁶ cells per thread keeps the 256²/320² pads
/// (128² and 160² meshes) serial and fans out every pass from a 400²
/// pad up — including both row passes of the 960×360 pad of the
/// paper's MAJ3 box (164 160 cells), which the former 2¹⁸ left serial.
/// Each thread then gets at least ~0.5 ms of a pass, against a
/// rendezvous of tens of µs.
pub const MIN_FFT_CELLS_PER_THREAD: usize = 1 << 16;

thread_local! {
    /// Hot-path scratch allocations observed on this thread — bumped by
    /// every allocation that the per-system scratch arena exists to
    /// avoid (see [`hot_scratch_allocs`]).
    static HOT_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Records one scratch allocation on a path the integrator hot loop must
/// never take (per-eval buffer construction, Bluestein fallback without
/// caller scratch, arena growth).
pub(crate) fn note_hot_alloc() {
    HOT_ALLOCS.with(|c| c.set(c.get() + 1));
}

/// Number of hot-path scratch allocations recorded on the calling thread
/// since it started.
///
/// Steady-state integrator stepping must not move this counter: scratch
/// arenas are sized on first use and reused afterwards. Tests snapshot
/// the value after a warm-up step and assert it stays put.
pub fn hot_scratch_allocs() -> u64 {
    HOT_ALLOCS.with(|c| c.get())
}

/// Process-wide cache of 1-D plans for repeated cold-path transforms
/// (probe readouts transform the same trace length every readout).
/// Bounded: when full, the map is cleared rather than tracking LRU order
/// — plan construction is cheap relative to the transforms the cache
/// serves, so the occasional full rebuild is harmless.
static PLAN_CACHE: OnceLock<Mutex<HashMap<usize, Arc<FftPlan>>>> = OnceLock::new();

/// Entry cap for [`cached_plan`]; far above the handful of distinct
/// lengths a run's probes produce.
const PLAN_CACHE_CAP: usize = 64;

/// A shared plan for length `n` from the process-wide cache, built on
/// first use. Plan construction is deterministic, so a cached plan is
/// interchangeable with a freshly built one bit for bit.
pub fn cached_plan(n: usize) -> Arc<FftPlan> {
    let cache = PLAN_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // Poisoning is survivable: the map is only ever mutated by the
    // infallible insert/clear below, so a poisoned lock still guards a
    // consistent map (plan construction — which can panic on bad
    // lengths — happens outside the lock).
    {
        let map = cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(plan) = map.get(&n) {
            return Arc::clone(plan);
        }
    }
    let plan = Arc::new(FftPlan::new(n));
    let mut map = cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(existing) = map.get(&n) {
        return Arc::clone(existing);
    }
    if map.len() >= PLAN_CACHE_CAP {
        map.clear();
    }
    map.insert(n, Arc::clone(&plan));
    plan
}

/// Direction of the transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward DFT: `X[k] = Σ x[n]·e^{-2πi·kn/N}`.
    Forward,
    /// Inverse DFT, normalized by 1/N.
    Inverse,
}

/// One butterfly pass: combines `radix` interleaved sub-transforms of
/// length `len` into transforms of length `len·radix`.
#[derive(Debug, Clone, Copy)]
struct Stage {
    radix: u8,
    /// Sub-transform length entering this stage.
    len: u32,
    /// Start of this stage's `(radix − 1)·len` twiddles in `FftPlan::tw`,
    /// grouped by butterfly index `k`: `w^k, w^{2k}, …, w^{(r−1)k}`.
    toff: u32,
}

/// Bluestein chirp-z fallback for lengths with a prime factor > 5:
/// `X[k] = c[k]·Σ_j (x[j]·c[j])·conj(c)[k−j]` with `c[j] = e^{-iπj²/n}`,
/// evaluated as a circular convolution over an inner 5-smooth plan.
#[derive(Debug, Clone)]
struct Bluestein {
    /// Chirp `e^{-iπ·(j² mod 2n)/n}`, length `n`.
    chirp: Vec<Complex64>,
    /// Forward transform of the conjugate chirp, symmetrically wrapped
    /// into the inner length — the convolution kernel spectrum.
    kernel: Vec<Complex64>,
    /// 5-smooth inner plan of length `good_size(2n − 1)`.
    inner: FftPlan,
}

/// A reusable 1-D FFT plan for one fixed length: the digit-reversal
/// permutation (as a swap list), the stage schedule and per-stage
/// twiddle tables. Lengths that are not 5-smooth carry a [`Bluestein`]
/// fallback instead of stages.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Transpositions realizing the mixed-radix digit reversal in place.
    swaps: Vec<(u32, u32)>,
    /// Butterfly passes, innermost (len = 1) first.
    stages: Vec<Stage>,
    /// Forward twiddles for all stages, concatenated in stage order.
    /// The inverse transform conjugates on the fly.
    tw: Vec<Complex64>,
    /// Chirp-z fallback when `n` has a prime factor > 5.
    bluestein: Option<Box<Bluestein>>,
}

/// sin(π/3): the imaginary part of the radix-3 twiddle.
const SIN_3: f64 = 0.866_025_403_784_438_6;
/// cos(2π/5), cos(4π/5), sin(2π/5), sin(4π/5) for the radix-5 butterfly.
const COS_1_5: f64 = 0.309_016_994_374_947_45;
const COS_2_5: f64 = -0.809_016_994_374_947_5;
const SIN_1_5: f64 = 0.951_056_516_295_153_5;
const SIN_2_5: f64 = 0.587_785_252_292_473_1;

/// Splits `n` into the stage radices the executor applies, in order:
/// radix-4 first (cheapest per element), then at most one radix-2, then
/// radix-3 and radix-5. Returns `None` when a prime factor > 5 remains.
fn factor_stages(n: usize) -> Option<Vec<usize>> {
    let mut f = Vec::new();
    let mut m = n;
    while m.is_multiple_of(4) {
        f.push(4);
        m /= 4;
    }
    if m.is_multiple_of(2) {
        f.push(2);
        m /= 2;
    }
    while m.is_multiple_of(3) {
        f.push(3);
        m /= 3;
    }
    while m.is_multiple_of(5) {
        f.push(5);
        m /= 5;
    }
    (m == 1).then_some(f)
}

/// Digit-reversed position of every index for the given stage order:
/// writing `i` in mixed radix with the *last* stage's radix as the most
/// significant digit, the reversal makes each stage's butterflies read
/// consecutive blocks — the mixed-radix generalization of bit reversal.
fn digit_reversal(n: usize, factors: &[usize]) -> Vec<u32> {
    (0..n)
        .map(|i| {
            let mut rem = i;
            let mut pos = 0usize;
            let mut size = n;
            for &f in factors.iter().rev() {
                size /= f;
                pos += (rem % f) * size;
                rem /= f;
            }
            pos as u32
        })
        .collect()
}

/// Decomposes the permutation `new[pos[i]] = old[i]` into transpositions
/// (one cycle at a time), so `process` can apply it in place with plain
/// swaps and the plan stays immutable — shareable across worker threads.
fn permutation_swaps(pos: &[u32]) -> Vec<(u32, u32)> {
    let mut visited = vec![false; pos.len()];
    let mut swaps = Vec::new();
    for i0 in 0..pos.len() {
        if visited[i0] {
            continue;
        }
        let mut j = i0;
        loop {
            visited[j] = true;
            let next = pos[j] as usize;
            if next == i0 {
                break;
            }
            swaps.push((i0 as u32, next as u32));
            j = next;
        }
    }
    swaps
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// 5-smooth lengths (`2^a·3^b·5^c`, the only lengths [`good_size`]
    /// returns) get native mixed-radix stages; anything else gets the
    /// Bluestein fallback, which is correct but roughly 4× the work —
    /// fine for probes, avoided on hot paths by padding to `good_size`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `u32::MAX`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        assert!(n <= u32::MAX as usize, "FFT length too large");
        let Some(factors) = factor_stages(n) else {
            return FftPlan {
                n,
                swaps: Vec::new(),
                stages: Vec::new(),
                tw: Vec::new(),
                bluestein: Some(Box::new(Bluestein::new(n))),
            };
        };
        let swaps = permutation_swaps(&digit_reversal(n, &factors));
        let mut tw = Vec::new();
        let mut stages = Vec::with_capacity(factors.len());
        let mut len = 1usize;
        for &r in &factors {
            let span = len * r;
            let toff = tw.len() as u32;
            for k in 0..len {
                for j in 1..r {
                    // Reduce the phase index before the trig call: the
                    // argument stays in [0, 2π), which keeps the table
                    // exact to the last ulp even at large spans.
                    let idx = (k * j) % span;
                    tw.push(Complex64::cis(
                        -2.0 * std::f64::consts::PI * idx as f64 / span as f64,
                    ));
                }
            }
            stages.push(Stage {
                radix: r as u8,
                len: len as u32,
                toff,
            });
            len = span;
        }
        FftPlan {
            n,
            swaps,
            stages,
            tw,
            bluestein: None,
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Plans always have `n ≥ 1`, so this reports whether `n == 0`,
    /// which cannot happen. Provided to satisfy the `len`/`is_empty`
    /// convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Executes the transform in place.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub fn process(&self, data: &mut [Complex64], direction: Direction) {
        let n = self.n;
        assert_eq!(data.len(), n, "buffer length does not match FFT plan");
        if let Some(b) = &self.bluestein {
            // Cold convenience path: the fallback needs convolution
            // scratch, grown (and counted) inside `process_with`.
            let mut work = Vec::new();
            b.process_with(data, direction, &mut work);
            return;
        }
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
        let conj = direction == Direction::Inverse;
        // Sign of i in the butterfly internals: e^{s·2πi/r} twiddles.
        let s = if conj { 1.0 } else { -1.0 };
        for st in &self.stages {
            let len = st.len as usize;
            let r = st.radix as usize;
            let t0 = st.toff as usize;
            let tw = &self.tw[t0..t0 + (r - 1) * len];
            let span = len * r;
            match r {
                2 => {
                    for start in (0..n).step_by(span) {
                        for (k, &w0) in tw.iter().enumerate() {
                            let w = if conj { w0.conj() } else { w0 };
                            let i0 = start + k;
                            let a = data[i0];
                            let b = data[i0 + len] * w;
                            data[i0] = a + b;
                            data[i0 + len] = a - b;
                        }
                    }
                }
                3 => {
                    for start in (0..n).step_by(span) {
                        for k in 0..len {
                            let tk = &tw[2 * k..2 * k + 2];
                            let (w1, w2) = if conj {
                                (tk[0].conj(), tk[1].conj())
                            } else {
                                (tk[0], tk[1])
                            };
                            let i0 = start + k;
                            let (i1, i2) = (i0 + len, i0 + 2 * len);
                            let a0 = data[i0];
                            let a1 = data[i1] * w1;
                            let a2 = data[i2] * w2;
                            let t1 = a1 + a2;
                            let t2 = a1 - a2;
                            let m = a0 - t1.scale(0.5);
                            // u = s·i·sin(π/3)·t2
                            let u = Complex64::new(-s * SIN_3 * t2.im, s * SIN_3 * t2.re);
                            data[i0] = a0 + t1;
                            data[i1] = m + u;
                            data[i2] = m - u;
                        }
                    }
                }
                4 => {
                    for start in (0..n).step_by(span) {
                        for k in 0..len {
                            let tk = &tw[3 * k..3 * k + 3];
                            let (w1, w2, w3) = if conj {
                                (tk[0].conj(), tk[1].conj(), tk[2].conj())
                            } else {
                                (tk[0], tk[1], tk[2])
                            };
                            let i0 = start + k;
                            let (i1, i2, i3) = (i0 + len, i0 + 2 * len, i0 + 3 * len);
                            let a0 = data[i0];
                            let a1 = data[i1] * w1;
                            let a2 = data[i2] * w2;
                            let a3 = data[i3] * w3;
                            let t0 = a0 + a2;
                            let t1 = a0 - a2;
                            let t2 = a1 + a3;
                            let t3 = a1 - a3;
                            // jt = s·i·t3
                            let jt = Complex64::new(-s * t3.im, s * t3.re);
                            data[i0] = t0 + t2;
                            data[i1] = t1 + jt;
                            data[i2] = t0 - t2;
                            data[i3] = t1 - jt;
                        }
                    }
                }
                5 => {
                    for start in (0..n).step_by(span) {
                        for k in 0..len {
                            let tk = &tw[4 * k..4 * k + 4];
                            let (w1, w2, w3, w4) = if conj {
                                (tk[0].conj(), tk[1].conj(), tk[2].conj(), tk[3].conj())
                            } else {
                                (tk[0], tk[1], tk[2], tk[3])
                            };
                            let i0 = start + k;
                            let (i1, i2, i3, i4) =
                                (i0 + len, i0 + 2 * len, i0 + 3 * len, i0 + 4 * len);
                            let a0 = data[i0];
                            let a1 = data[i1] * w1;
                            let a2 = data[i2] * w2;
                            let a3 = data[i3] * w3;
                            let a4 = data[i4] * w4;
                            let t1 = a1 + a4;
                            let t2 = a2 + a3;
                            let t3 = a1 - a4;
                            let t4 = a2 - a3;
                            let m1 = a0 + t1.scale(COS_1_5) + t2.scale(COS_2_5);
                            let m2 = a0 + t1.scale(COS_2_5) + t2.scale(COS_1_5);
                            let v1 = t3.scale(SIN_1_5) + t4.scale(SIN_2_5);
                            let v2 = t3.scale(SIN_2_5) - t4.scale(SIN_1_5);
                            let u1 = Complex64::new(-s * v1.im, s * v1.re);
                            let u2 = Complex64::new(-s * v2.im, s * v2.re);
                            data[i0] = a0 + t1 + t2;
                            data[i1] = m1 + u1;
                            data[i4] = m1 - u1;
                            data[i2] = m2 + u2;
                            data[i3] = m2 - u2;
                        }
                    }
                }
                _ => unreachable!("factor_stages only emits radices 2–5"),
            }
        }
        if conj {
            let inv = 1.0 / n as f64;
            for z in data.iter_mut() {
                *z = z.scale(inv);
            }
        }
    }

    /// Scratch length `process_with` needs for this plan: the Bluestein
    /// inner convolution length, or zero for native 5-smooth plans.
    pub fn scratch_len(&self) -> usize {
        self.bluestein.as_ref().map_or(0, |b| b.inner.len())
    }

    /// Executes the transform in place, reusing `scratch` for the
    /// Bluestein convolution buffer instead of allocating per call.
    ///
    /// `scratch` is grown on first use (to [`Self::scratch_len`]) and
    /// left untouched for native plans, so a warm buffer makes repeated
    /// fallback transforms allocation-free. Results are bitwise
    /// identical to [`Self::process`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub fn process_with(
        &self,
        data: &mut [Complex64],
        direction: Direction,
        scratch: &mut Vec<Complex64>,
    ) {
        if let Some(b) = &self.bluestein {
            assert_eq!(data.len(), self.n, "buffer length does not match FFT plan");
            b.process_with(data, direction, scratch);
            return;
        }
        self.process(data, direction);
    }

    /// Runs [`LANES`] independent transforms of this plan's length at
    /// once on structure-of-arrays lanes: element `j` of lane `l` sits
    /// at `re[j·LANES + l]` / `im[j·LANES + l]`. Each lane's result is
    /// bitwise identical to [`FftPlan::process`] on that lane.
    ///
    /// Native plans transform all lanes with [`lanes_core`], through an
    /// AVX-512 or AVX2 instantiation when the host has one (the
    /// arithmetic is the same lanewise IEEE operations in every copy —
    /// Rust never contracts to FMA — so all copies give the same bits).
    /// Bluestein plans fall back lane by lane: each of lanes `0..live`
    /// is gathered into `fallback`'s line buffer and run through
    /// [`FftPlan::process_with`].
    /// Lanes `live..` must hold zeros in the elements that are read;
    /// native plans transform them to zeros, the fallback leaves them
    /// alone.
    ///
    /// `window` (clamped to `len()`) names the part of the line the
    /// caller knows about:
    ///
    /// * **Forward:** elements `window..` of every lane are zero. Their
    ///   values are never used, so they may hold anything; the first
    ///   stage skips the digits whose inputs all lie there.
    /// * **Inverse:** only outputs `0..window` are needed. The last stage
    ///   computes and stores just those; elements `window..` are left
    ///   unspecified.
    ///
    /// Kept inverse outputs are bitwise those of the full transform. A
    /// forward window can only change the sign of a zero in the spectrum
    /// (`x + 0.0` is skipped, which differs from `x` only at `x = −0.0`).
    ///
    /// # Panics
    ///
    /// Panics if `re`/`im` do not hold `len()·LANES` values or
    /// `live > LANES`.
    pub(crate) fn process_lanes(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        live: usize,
        direction: Direction,
        window: usize,
        fallback: &mut FallbackScratch,
    ) {
        let n = self.n;
        assert!(live <= LANES, "more live lanes than LANES");
        assert_eq!(re.len(), n * LANES, "lane buffer does not match FFT plan");
        assert_eq!(im.len(), n * LANES, "lane buffer does not match FFT plan");
        let window = window.min(n);
        if self.bluestein.is_some() {
            if fallback.line.len() < n {
                note_hot_alloc();
                fallback.line.resize(n, Complex64::ZERO);
            }
            let line = &mut fallback.line[..n];
            let known = if direction == Direction::Forward {
                window
            } else {
                n
            };
            for l in 0..live {
                for (j, z) in line.iter_mut().enumerate() {
                    *z = if j < known {
                        Complex64::new(re[j * LANES + l], im[j * LANES + l])
                    } else {
                        Complex64::ZERO
                    };
                }
                self.process_with(line, direction, &mut fallback.conv);
                for (j, z) in line.iter().enumerate() {
                    re[j * LANES + l] = z.re;
                    im[j * LANES + l] = z.im;
                }
            }
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // Safety: AVX-512F support was just detected.
            unsafe { self.lanes_avx512(re, im, direction, window) };
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // Safety: AVX2 support was just detected.
            unsafe { self.lanes_avx2(re, im, direction, window) };
            return;
        }
        self.lanes_portable(re, im, direction, window);
    }

    /// The portable instantiation of [`lanes_core`].
    fn lanes_portable(&self, re: &mut [f64], im: &mut [f64], direction: Direction, window: usize) {
        assert!(self.bluestein.is_none(), "lane kernel needs a native plan");
        assert!(re.len() == self.n * LANES && im.len() == self.n * LANES);
        // Safety: the plan is native and both planes hold n·LANES values.
        unsafe { lanes_core(self, re.as_mut_ptr(), im.as_mut_ptr(), direction, window) }
    }

    /// The AVX-512 instantiation of [`lanes_core`]: one 512-bit register
    /// per lane row, and twice AVX2's register file, so the radix-4/5
    /// butterflies run without spills.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn lanes_avx512(&self, re: &mut [f64], im: &mut [f64], direction: Direction, window: usize) {
        assert!(self.bluestein.is_none(), "lane kernel needs a native plan");
        assert!(re.len() == self.n * LANES && im.len() == self.n * LANES);
        // Safety: the plan is native and both planes hold n·LANES values.
        unsafe { lanes_core(self, re.as_mut_ptr(), im.as_mut_ptr(), direction, window) }
    }

    /// The AVX2 instantiation of [`lanes_core`]: the same code compiled
    /// with 256-bit vectors.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn lanes_avx2(&self, re: &mut [f64], im: &mut [f64], direction: Direction, window: usize) {
        assert!(self.bluestein.is_none(), "lane kernel needs a native plan");
        assert!(re.len() == self.n * LANES && im.len() == self.n * LANES);
        // Safety: the plan is native and both planes hold n·LANES values.
        unsafe { lanes_core(self, re.as_mut_ptr(), im.as_mut_ptr(), direction, window) }
    }
}

impl Bluestein {
    fn new(n: usize) -> Self {
        // The circular convolution needs room for the full chirp overlap:
        // any 5-smooth m ≥ 2n − 1 works, good_size picks the cheapest.
        let m = good_size(2 * n - 1);
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                // j² mod 2n keeps the phase argument small and exact
                // (j² itself overflows f64 precision long before u128).
                let sq = ((j as u128 * j as u128) % (2 * n as u128)) as f64;
                Complex64::cis(-std::f64::consts::PI * sq / n as f64)
            })
            .collect();
        let mut kernel = vec![Complex64::ZERO; m];
        for j in 0..n {
            let c = chirp[j].conj();
            kernel[j] = c;
            if j > 0 {
                kernel[m - j] = c;
            }
        }
        let inner = FftPlan::new(m);
        inner.process(&mut kernel, Direction::Forward);
        Bluestein {
            chirp,
            kernel,
            inner,
        }
    }

    /// Forward chirp-z transform of `data` (length `n`), convolving in
    /// `scratch` — grown (and counted as a hot-path allocation) only
    /// when shorter than the inner length, so a warm buffer makes the
    /// transform allocation-free.
    fn forward_with(&self, data: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        let n = data.len();
        let m = self.inner.len();
        if scratch.len() < m {
            note_hot_alloc();
            scratch.resize(m, Complex64::ZERO);
        }
        let work = &mut scratch[..m];
        for j in 0..n {
            work[j] = data[j] * self.chirp[j];
        }
        // The tail past n must read as zero padding every call; a reused
        // buffer still holds the previous convolution there.
        for w in work[n..].iter_mut() {
            *w = Complex64::ZERO;
        }
        self.inner.process(work, Direction::Forward);
        for (w, k) in work.iter_mut().zip(self.kernel.iter()) {
            *w *= *k;
        }
        // The inverse includes the 1/m normalization of the convolution.
        self.inner.process(work, Direction::Inverse);
        for k in 0..n {
            data[k] = work[k] * self.chirp[k];
        }
    }

    fn process_with(
        &self,
        data: &mut [Complex64],
        direction: Direction,
        scratch: &mut Vec<Complex64>,
    ) {
        match direction {
            Direction::Forward => self.forward_with(data, scratch),
            Direction::Inverse => {
                // IDFT(x) = conj(DFT(conj(x)))/n.
                for z in data.iter_mut() {
                    *z = z.conj();
                }
                self.forward_with(data, scratch);
                let inv = 1.0 / data.len() as f64;
                for z in data.iter_mut() {
                    *z = Complex64::new(z.re * inv, -z.im * inv);
                }
            }
        }
    }
}

/// Transforms per lane batch: [`FftPlan::process_lanes`] runs this many
/// independent transforms in lockstep. Eight `f64` lanes are one
/// AVX-512 or two AVX2 registers per operand (four lanes measured
/// slower on the 640×320 film, sixteen slower still); the row and column
/// passes of [`Fft2Plan`] move data in groups of this many rows or
/// columns.
pub const LANES: usize = 8;

/// One `f64` per lane.
type Lane = [f64; LANES];

/// One complex value per lane, split into real and imaginary lanes.
#[derive(Clone, Copy)]
struct CLane {
    re: Lane,
    im: Lane,
}

impl CLane {
    const ZERO: CLane = CLane {
        re: [0.0; LANES],
        im: [0.0; LANES],
    };

    /// Loads element `i` of every lane from structure-of-arrays planes.
    ///
    /// # Safety
    ///
    /// `re` and `im` must be valid for reads of `(i + 1)·LANES` values.
    #[inline(always)]
    unsafe fn load(re: *const f64, im: *const f64, i: usize) -> Self {
        CLane {
            re: re.add(i * LANES).cast::<Lane>().read(),
            im: im.add(i * LANES).cast::<Lane>().read(),
        }
    }

    /// Stores element `i` of every lane.
    ///
    /// # Safety
    ///
    /// `re` and `im` must be valid for writes of `(i + 1)·LANES` values.
    #[inline(always)]
    unsafe fn store(self, re: *mut f64, im: *mut f64, i: usize) {
        re.add(i * LANES).cast::<Lane>().write(self.re);
        im.add(i * LANES).cast::<Lane>().write(self.im);
    }

    #[inline(always)]
    fn add(self, o: CLane) -> CLane {
        CLane {
            re: std::array::from_fn(|l| self.re[l] + o.re[l]),
            im: std::array::from_fn(|l| self.im[l] + o.im[l]),
        }
    }

    #[inline(always)]
    fn sub(self, o: CLane) -> CLane {
        CLane {
            re: std::array::from_fn(|l| self.re[l] - o.re[l]),
            im: std::array::from_fn(|l| self.im[l] - o.im[l]),
        }
    }

    #[inline(always)]
    fn neg(self) -> CLane {
        CLane {
            re: self.re.map(|x| -x),
            im: self.im.map(|x| -x),
        }
    }

    /// `self · (wr + i·wi)` in the operand order of `Complex64 * Complex64`.
    #[inline(always)]
    fn mul(self, wr: f64, wi: f64) -> CLane {
        CLane {
            re: std::array::from_fn(|l| self.re[l] * wr - self.im[l] * wi),
            im: std::array::from_fn(|l| self.re[l] * wi + self.im[l] * wr),
        }
    }

    /// `Complex64::scale`.
    #[inline(always)]
    fn scale(self, s: f64) -> CLane {
        CLane {
            re: std::array::from_fn(|l| self.re[l] * s),
            im: std::array::from_fn(|l| self.im[l] * s),
        }
    }

    /// `Complex64::new(a * self.im, b * self.re)`: the butterflies'
    /// multiplication by `s·i` (times a real constant), with `a = −s·c`
    /// and `b = s·c` precomputed exactly as the scalar expression
    /// `-s * c * t.im` evaluates them.
    #[inline(always)]
    fn rot(self, a: f64, b: f64) -> CLane {
        CLane {
            re: std::array::from_fn(|l| a * self.im[l]),
            im: std::array::from_fn(|l| b * self.re[l]),
        }
    }
}

/// Largest butterfly span (in elements) that [`lanes_core`] runs block
/// by block: 256 elements of [`LANES`] complex lanes are 32 KiB, an
/// L1-resident block.
const LANE_BLOCK: usize = 256;

/// The native mixed-radix transform of [`FftPlan::process`], run on
/// [`LANES`] transforms at once: element `j` of lane `l` sits at
/// `re[j·LANES + l]` / `im[j·LANES + l]`. Every lane executes the same
/// swaps, twiddles and operations in the same order as the scalar code,
/// so each lane's result is bitwise identical to `process` on that lane;
/// the lane loops are what the vectorizer turns into SIMD.
///
/// The leading stages whose butterfly span fits in [`LANE_BLOCK`] run
/// block by block — one cache-resident block through all of them before
/// the next — and the rest over the whole length. A stage's butterflies
/// are independent of each other and, for those stages, read and write
/// only their own block, so the reordering changes no operation and no
/// bit.
///
/// An inverse multiplies each output of its last stage by `1/n` just
/// before storing it — the same IEEE multiply of the same value as a
/// separate scaling pass, so the same bits, without one more trip over
/// the buffer. `window` prunes the first stage of a forward and the last
/// stage of an inverse (see [`FftPlan::process_lanes`]).
///
/// # Safety
///
/// `plan` must be native (no Bluestein fallback) and `re`/`im` valid
/// for reads and writes of `plan.n·LANES` values; `window ≤ plan.n`.
#[inline(always)]
unsafe fn lanes_core(
    plan: &FftPlan,
    re: *mut f64,
    im: *mut f64,
    direction: Direction,
    window: usize,
) {
    let n = plan.n;
    let inverse = direction == Direction::Inverse;
    // Digit `d` of a first-stage butterfly holds input `d·q + j` for
    // some `j < q = n/radix`, so a forward reads only the first
    // `⌈window/q⌉` digits; zero the inputs of theirs beyond the window.
    // (No stages: `n = 1`, and the one input is passed through.)
    let q = plan.stages.first().map_or(0, |st| n / st.radix as usize);
    let read = if q == 0 { n } else { window.div_ceil(q) * q };
    if !inverse {
        for i in window..read {
            CLane::ZERO.store(re, im, i);
        }
    }
    for &(i, j) in &plan.swaps {
        let (i, j) = (i as usize, j as usize);
        let a = CLane::load(re, im, i);
        CLane::load(re, im, j).store(re, im, i);
        a.store(re, im, j);
    }
    let last = plan.stages.len().wrapping_sub(1);
    let pass = |si: usize| {
        let st = &plan.stages[si];
        let (len, r) = (st.len as usize, st.radix as usize);
        let t0 = st.toff as usize;
        Pass {
            re,
            im,
            tw: &plan.tw[t0..t0 + (r - 1) * len],
            len,
            radix: r,
            conj: inverse,
            live: if si == 0 && !inverse {
                window.div_ceil(q)
            } else {
                r
            },
            tail: (si == last && inverse).then_some((window, 1.0 / n as f64)),
        }
    };
    let span = |st: &Stage| st.len as usize * st.radix as usize;
    let blocked = plan
        .stages
        .iter()
        .take_while(|st| span(st) <= LANE_BLOCK)
        .count();
    if blocked > 0 {
        let block = span(&plan.stages[blocked - 1]);
        for b0 in (0..n).step_by(block) {
            for si in 0..blocked {
                pass(si).run(b0..b0 + block);
            }
        }
    }
    for si in blocked..plan.stages.len() {
        pass(si).run(0..n);
    }
}

/// One butterfly stage of [`lanes_core`]: its twiddles, the lane planes
/// it transforms, and what its windows prune.
struct Pass<'a> {
    re: *mut f64,
    im: *mut f64,
    /// This stage's twiddles: `w^{d·k}` of digit `d ≥ 1` of butterfly
    /// `k` at `(radix − 1)·k + d − 1`.
    tw: &'a [Complex64],
    /// Sub-transform length entering the stage.
    len: usize,
    radix: usize,
    /// Inverse transform: conjugated twiddles, `+i` rotations.
    conj: bool,
    /// Digits `live..` of every butterfly read known zeros (the first
    /// stage of a windowed forward; `radix` elsewhere).
    live: usize,
    /// The last stage of an inverse: `(keep, 1/n)` — only outputs
    /// `0..keep` are computed and stored, each scaled by `1/n`.
    tail: Option<(usize, f64)>,
}

/// A lane value of a [`Pass::head`] butterfly: `None` is a known zero.
type Zl = Option<CLane>;

#[inline(always)]
fn zadd(a: Zl, b: Zl) -> Zl {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.add(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

#[inline(always)]
fn zsub(a: Zl, b: Zl) -> Zl {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.sub(b)),
        (a, None) => a,
        (None, b) => b.map(CLane::neg),
    }
}

#[inline(always)]
fn zscale(a: Zl, s: f64) -> Zl {
    a.map(|a| a.scale(s))
}

#[inline(always)]
fn zrot(a: Zl, p: f64, q: f64) -> Zl {
    a.map(|a| a.rot(p, q))
}

impl Pass<'_> {
    /// Runs the stage over the elements `range`, whose bounds are
    /// multiples of its span, picking the butterfly instantiation its
    /// windows call for. Kept-digit counts without their own
    /// instantiation round up to storing a digit more, whose elements
    /// are unspecified anyway.
    ///
    /// # Safety
    ///
    /// As for [`lanes_core`], with `range` within `0..plan.n`.
    #[inline(always)]
    unsafe fn run(&self, range: std::ops::Range<usize>) {
        match self.radix {
            2 => self.run_radix::<2>(range),
            3 => self.run_radix::<3>(range),
            4 => self.run_radix::<4>(range),
            5 => self.run_radix::<5>(range),
            _ => unreachable!("factor_stages only emits radices 2–5"),
        }
    }

    #[inline(always)]
    unsafe fn run_radix<const R: usize>(&self, range: std::ops::Range<usize>) {
        let ks = 0..self.len;
        let Some((keep, _)) = self.tail else {
            match self.live {
                0 => self.head::<R, 0>(range),
                1 => self.head::<R, 1>(range),
                2 if R > 2 => self.head::<R, 2>(range),
                3 if R > 3 => self.head::<R, 3>(range),
                4 if R > 4 => self.head::<R, 4>(range),
                _ => self.butterflies::<R, R, false>(range, ks),
            }
            return;
        };
        // The last stage is one butterfly group (span n): output digit
        // `d` of butterfly `k` is element `d·len + k`, kept iff it is
        // below `keep`. Butterflies `k` in
        // `[keep − c·len, keep − (c−1)·len)` keep exactly `c` digits.
        for c in (1..=R).rev() {
            let lo = keep.saturating_sub(c * self.len);
            let hi = self.len.min(keep.saturating_sub((c - 1) * self.len));
            if lo >= hi {
                continue;
            }
            let (range, ks) = (range.clone(), lo..hi);
            match c {
                1 => self.butterflies::<R, 1, true>(range, ks),
                2 if R > 2 => self.butterflies::<R, 2, true>(range, ks),
                3 if R > 3 => self.butterflies::<R, 3, true>(range, ks),
                _ => self.butterflies::<R, R, true>(range, ks),
            }
        }
    }

    /// Digit `d` of butterfly `k` of the group at `start`, after its
    /// twiddle multiply.
    #[inline(always)]
    unsafe fn input<const R: usize>(&self, start: usize, k: usize, d: usize) -> CLane {
        let x = CLane::load(self.re, self.im, start + k + d * self.len);
        if d == 0 {
            return x;
        }
        let w = self.tw[(R - 1) * k + d - 1];
        let wi = if self.conj { -w.im } else { w.im };
        x.mul(w.re, wi)
    }

    /// Butterflies `ks` of every group in `range` at radix `R`, storing
    /// output digits `0..OUT`, scaled by `1/n` when `SCALE`. At
    /// `OUT = R` without `SCALE` this is exactly [`FftPlan::process`]'s
    /// stage; the outputs a variant does not store are dead code it never
    /// computes.
    #[inline(always)]
    unsafe fn butterflies<const R: usize, const OUT: usize, const SCALE: bool>(
        &self,
        range: std::ops::Range<usize>,
        ks: std::ops::Range<usize>,
    ) {
        let s = if self.conj { 1.0 } else { -1.0 };
        // The scalar butterflies' `-s * c * t.im` evaluates as `(-s·c)·t.im`.
        let (ns3, ps3) = (-s * SIN_3, s * SIN_3);
        let inv = self.tail.map_or(1.0, |(_, inv)| inv);
        let (re, im, len) = (self.re, self.im, self.len);
        for start in range.step_by(R * len) {
            for k in ks.clone() {
                let i0 = start + k;
                let a = |d: usize| self.input::<R>(start, k, d);
                let out = |d: usize, v: CLane| {
                    if d < OUT {
                        let v = if SCALE { v.scale(inv) } else { v };
                        v.store(re, im, i0 + d * len);
                    }
                };
                match R {
                    2 => {
                        let (a0, a1) = (a(0), a(1));
                        out(0, a0.add(a1));
                        out(1, a0.sub(a1));
                    }
                    3 => {
                        let (a0, a1, a2) = (a(0), a(1), a(2));
                        let t1 = a1.add(a2);
                        let t2 = a1.sub(a2);
                        let m = a0.sub(t1.scale(0.5));
                        let u = t2.rot(ns3, ps3);
                        out(0, a0.add(t1));
                        out(1, m.add(u));
                        out(2, m.sub(u));
                    }
                    4 => {
                        let (a0, a1, a2, a3) = (a(0), a(1), a(2), a(3));
                        let t0 = a0.add(a2);
                        let t1 = a0.sub(a2);
                        let t2 = a1.add(a3);
                        let t3 = a1.sub(a3);
                        let jt = t3.rot(-s, s);
                        out(0, t0.add(t2));
                        out(1, t1.add(jt));
                        out(2, t0.sub(t2));
                        out(3, t1.sub(jt));
                    }
                    5 => {
                        let (a0, a1, a2, a3, a4) = (a(0), a(1), a(2), a(3), a(4));
                        let t1 = a1.add(a4);
                        let t2 = a2.add(a3);
                        let t3 = a1.sub(a4);
                        let t4 = a2.sub(a3);
                        let m1 = a0.add(t1.scale(COS_1_5)).add(t2.scale(COS_2_5));
                        let m2 = a0.add(t1.scale(COS_2_5)).add(t2.scale(COS_1_5));
                        let v1 = t3.scale(SIN_1_5).add(t4.scale(SIN_2_5));
                        let v2 = t3.scale(SIN_2_5).sub(t4.scale(SIN_1_5));
                        let u1 = v1.rot(-s, s);
                        let u2 = v2.rot(-s, s);
                        out(0, a0.add(t1).add(t2));
                        out(1, m1.add(u1));
                        out(4, m1.sub(u1));
                        out(2, m2.add(u2));
                        out(3, m2.sub(u2));
                    }
                    _ => unreachable!("factor_stages only emits radices 2–5"),
                }
            }
        }
    }

    /// The first stage of a windowed forward: the butterflies of every
    /// group in `range` read digits `0..LIVE` only, the rest being known
    /// zeros. A known zero's additions and multiplications are skipped,
    /// which changes only the sign of a zero result (`x + 0.0` differs
    /// from `x` only at `x = −0.0`). The known zeros are tracked as
    /// `Option`s in this stage only: the same form in every stage
    /// measured ~30% slower than [`Pass::butterflies`]' plain values at
    /// n = 640.
    #[inline(always)]
    unsafe fn head<const R: usize, const LIVE: usize>(&self, range: std::ops::Range<usize>) {
        let s = if self.conj { 1.0 } else { -1.0 };
        let (ns3, ps3) = (-s * SIN_3, s * SIN_3);
        let (re, im, len) = (self.re, self.im, self.len);
        for start in range.step_by(R * len) {
            for k in 0..len {
                let a = |d: usize| (d < LIVE).then(|| self.input::<R>(start, k, d));
                let out =
                    |d: usize, v: Zl| v.unwrap_or(CLane::ZERO).store(re, im, start + k + d * len);
                match R {
                    2 => {
                        let (a0, a1) = (a(0), a(1));
                        out(0, zadd(a0, a1));
                        out(1, zsub(a0, a1));
                    }
                    3 => {
                        let (a0, a1, a2) = (a(0), a(1), a(2));
                        let t1 = zadd(a1, a2);
                        let t2 = zsub(a1, a2);
                        let m = zsub(a0, zscale(t1, 0.5));
                        let u = zrot(t2, ns3, ps3);
                        out(0, zadd(a0, t1));
                        out(1, zadd(m, u));
                        out(2, zsub(m, u));
                    }
                    4 => {
                        let (a0, a1, a2, a3) = (a(0), a(1), a(2), a(3));
                        let t0 = zadd(a0, a2);
                        let t1 = zsub(a0, a2);
                        let t2 = zadd(a1, a3);
                        let t3 = zsub(a1, a3);
                        let jt = zrot(t3, -s, s);
                        out(0, zadd(t0, t2));
                        out(1, zadd(t1, jt));
                        out(2, zsub(t0, t2));
                        out(3, zsub(t1, jt));
                    }
                    5 => {
                        let (a0, a1, a2, a3, a4) = (a(0), a(1), a(2), a(3), a(4));
                        let t1 = zadd(a1, a4);
                        let t2 = zadd(a2, a3);
                        let t3 = zsub(a1, a4);
                        let t4 = zsub(a2, a3);
                        let m1 = zadd(zadd(a0, zscale(t1, COS_1_5)), zscale(t2, COS_2_5));
                        let m2 = zadd(zadd(a0, zscale(t1, COS_2_5)), zscale(t2, COS_1_5));
                        let v1 = zadd(zscale(t3, SIN_1_5), zscale(t4, SIN_2_5));
                        let v2 = zsub(zscale(t3, SIN_2_5), zscale(t4, SIN_1_5));
                        let u1 = zrot(v1, -s, s);
                        let u2 = zrot(v2, -s, s);
                        out(0, zadd(zadd(a0, t1), t2));
                        out(1, zadd(m1, u1));
                        out(4, zsub(m1, u1));
                        out(2, zadd(m2, u2));
                        out(3, zsub(m2, u2));
                    }
                    _ => unreachable!("factor_stages only emits radices 2–5"),
                }
            }
        }
    }
}

/// Per-element cost of one butterfly pass of each radix, in arbitrary
/// throughput units (calibrated so radix-4 ≈ two radix-2 levels and
/// radix-5 ≈ two radix-2 passes — closer to measured behaviour than raw
/// flop counts, which overweight the odd radices on memory-bound sizes).
fn stage_weight(radix: usize) -> f64 {
    match radix {
        2 => 5.0,
        3 => 8.0,
        4 => 8.5,
        5 => 10.0,
        _ => unreachable!(),
    }
}

/// Estimated cost of one length-`m` transform under the stage schedule
/// the planner would build: `m · Σ stage weights`.
fn plan_cost(m: usize) -> f64 {
    let stages = factor_stages(m).expect("plan_cost is only called on 5-smooth lengths");
    m as f64 * stages.iter().map(|&r| stage_weight(r)).sum::<f64>()
}

/// Cheapest 5-smooth transform length ≥ `n` (and ≥ 1) under the stage
/// cost model — the mixed-radix replacement for power-of-two padding of
/// convolutions.
///
/// Candidates are every `2^a·3^b·5^c` in `[n, 2·n.next_power_of_two()]`;
/// ties go to the smaller length (less memory, cheaper spectral
/// multiplies). The result can be odd (e.g. 75 = 3·5²) — the demag
/// pipeline and [`fft_real_pair`] handle odd lengths; [`fft_real`]
/// callers that need the half-length split should round up to even.
///
/// ```
/// use magnum::fft::good_size;
/// assert_eq!(good_size(320), 320);   // already 5-smooth
/// assert_eq!(good_size(639), 640);   // 2^7·5, vs 1024 for radix-2
/// assert_eq!(good_size(1919), 1920); // 2^7·3·5, vs 2048
/// ```
pub fn good_size(n: usize) -> usize {
    let n = n.max(1);
    if n <= 6 {
        // 1, 2, 3, 4, 5, 6 are all 5-smooth already.
        return n;
    }
    assert!(n <= u32::MAX as usize, "FFT length too large");
    let limit = 2 * n.next_power_of_two();
    let mut best = 0usize;
    let mut best_cost = f64::INFINITY;
    let mut p5 = 1usize;
    while p5 <= limit {
        let mut p35 = p5;
        while p35 <= limit {
            // Lift by powers of two to the smallest candidate ≥ n.
            let mut m = p35;
            while m < n {
                m *= 2;
            }
            if m <= limit {
                let cost = plan_cost(m);
                if cost < best_cost || (cost == best_cost && m < best) {
                    best = m;
                    best_cost = cost;
                }
            }
            p35 *= 3;
        }
        p5 *= 5;
    }
    debug_assert!(best >= n);
    best
}

/// In-place FFT of a buffer of any length ≥ 1 (5-smooth lengths run
/// native mixed-radix stages, others the Bluestein fallback).
///
/// Convenience wrapper over the process-wide [`cached_plan`] — repeated
/// transforms of one length (probe readouts) reuse tables; hold your own
/// plan (and scratch) on hot paths.
///
/// # Panics
///
/// Panics if `data` is empty.
///
/// ```
/// use magnum::fft::{fft_in_place, Direction};
/// use magnum::Complex64;
/// let mut data = vec![Complex64::ONE; 12];
/// fft_in_place(&mut data, Direction::Forward);
/// assert!((data[0].re - 12.0).abs() < 1e-12); // DC bin
/// assert!(data[1].abs() < 1e-12);
/// ```
pub fn fft_in_place(data: &mut [Complex64], direction: Direction) {
    cached_plan(data.len()).process(data, direction);
}

/// Forward FFT of a real signal, returning the full complex spectrum.
///
/// Even lengths run a half-length complex transform on the even/odd
/// packing of the signal (the classic r2c split), roughly half the cost
/// of a full complex FFT; odd lengths fall back to a full complex
/// transform of the zero-imaginary signal.
///
/// # Panics
///
/// Panics if `signal` is empty.
pub fn fft_real(signal: &[f64]) -> Vec<Complex64> {
    let n = signal.len();
    assert!(n > 0, "FFT length must be positive");
    if n == 1 {
        return vec![Complex64::new(signal[0], 0.0)];
    }
    if n % 2 == 1 {
        let mut data: Vec<Complex64> = signal.iter().map(|&x| Complex64::new(x, 0.0)).collect();
        fft_in_place(&mut data, Direction::Forward);
        return data;
    }
    let half = n / 2;
    // Pack even samples into re, odd samples into im.
    let mut packed: Vec<Complex64> = (0..half)
        .map(|j| Complex64::new(signal[2 * j], signal[2 * j + 1]))
        .collect();
    cached_plan(half).process(&mut packed, Direction::Forward);
    let mut spectrum = vec![Complex64::ZERO; n];
    let step = -2.0 * std::f64::consts::PI / n as f64;
    for k in 0..half {
        let kc = if k == 0 { 0 } else { half - k };
        // Spectra of the even (E) and odd (O) sub-sequences.
        let (e, o) = split_real_pair(packed[k], packed[kc]);
        let x = e + Complex64::cis(step * k as f64) * o;
        spectrum[k] = x;
        if k == 0 {
            // X[n/2] = E[0] − O[0] (the twiddle at k = n/2 is −1).
            spectrum[half] = e - o;
        } else {
            spectrum[n - k] = x.conj();
        }
    }
    spectrum
}

/// Forward FFTs of **two** real signals of equal length via a single
/// complex transform (`a` in the real channel, `b` in the imaginary
/// channel), returning both full spectra. Works at any length ≥ 1.
///
/// # Panics
///
/// Panics if the lengths differ or are zero.
pub fn fft_real_pair(a: &[f64], b: &[f64]) -> (Vec<Complex64>, Vec<Complex64>) {
    let n = a.len();
    assert_eq!(n, b.len(), "paired real signals must have equal length");
    assert!(n > 0, "FFT length must be positive");
    let mut packed: Vec<Complex64> = a
        .iter()
        .zip(b.iter())
        .map(|(&x, &y)| Complex64::new(x, y))
        .collect();
    cached_plan(n).process(&mut packed, Direction::Forward);
    let mut fa = vec![Complex64::ZERO; n];
    let mut fb = vec![Complex64::ZERO; n];
    for k in 0..n {
        let kc = if k == 0 { 0 } else { n - k };
        (fa[k], fb[k]) = split_real_pair(packed[k], packed[kc]);
    }
    (fa, fb)
}

/// Unpacks bin `k` of the two spectra carried by one complex transform
/// `Z` of `a + i·b` (`a`, `b` real), given `z = Z(k)` and `zc = Z(−k)`:
/// `A(k) = (Z(k) + Z̄(−k))/2` and `B(k) = −i·(Z(k) − Z̄(−k))/2`.
///
/// The one copy of this formula: [`fft_real_pair`], [`fft_real`]'s
/// even/odd split and the Newell demag's packed channels (`Ms·mx + i·Ms·my`
/// in the kernel multiply, pairs of `Ms·mz` rows in the row pass) all call
/// it, so they share its operation order bit for bit.
#[inline(always)]
pub(crate) fn split_real_pair(z: Complex64, zc: Complex64) -> (Complex64, Complex64) {
    (
        Complex64::new(0.5 * (z.re + zc.re), 0.5 * (z.im - zc.im)),
        Complex64::new(0.5 * (z.im + zc.im), 0.5 * (zc.re - z.re)),
    )
}

/// Bluestein scratch of one lane worker: the lane being transformed,
/// gathered contiguous, and the convolution buffer of
/// [`FftPlan::process_with`]. Unused (empty) for native plans.
#[derive(Debug, Default)]
pub(crate) struct FallbackScratch {
    line: Vec<Complex64>,
    conv: Vec<Complex64>,
}

/// One worker's buffers for the lane passes: the lanes of the row group
/// or column strip in flight, the lanes of the mirror strip in a
/// conjugate-paired column pass (the demag `xy` channel), and the
/// Bluestein fallback scratch. Each is a separate heap allocation, so
/// concurrent workers never share a cache line.
#[derive(Debug, Default)]
pub(crate) struct LaneBufs {
    pub(crate) re: Vec<f64>,
    pub(crate) im: Vec<f64>,
    pub(crate) re2: Vec<f64>,
    pub(crate) im2: Vec<f64>,
    pub(crate) fallback: FallbackScratch,
}

/// Grows `v` to `len` elements, counting the growth as a hot-path
/// allocation.
fn grow<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        note_hot_alloc();
        v.resize(len, T::default());
    }
}

/// Per-thread lane scratch for a [`Fft2Plan`]: one [`LaneBufs`] per
/// worker block, grown by [`Fft2Scratch::ensure`] and reused across
/// executions, so a warm arena keeps the passes allocation-free.
#[derive(Debug, Default)]
pub struct Fft2Scratch {
    workers: Vec<LaneBufs>,
}

impl Fft2Scratch {
    /// An empty arena; buffers are sized on first [`Fft2Scratch::ensure`].
    pub fn new() -> Self {
        Fft2Scratch::default()
    }

    /// Grows the arena to `threads` workers' buffers for `plan`: lanes
    /// for a row group or strip (`LANES·max(nx, ny)` values per plane),
    /// for a mirror strip (`LANES·ny`), and the Bluestein scratch when an
    /// axis needs it. Only the first call (or a larger plan or team)
    /// allocates.
    pub fn ensure(&mut self, plan: &Fft2Plan, threads: usize) {
        let lanes = LANES * plan.nx.max(plan.ny);
        let mirror = LANES * plan.ny;
        let conv = plan.row_scratch_len();
        if self.workers.len() < threads {
            self.workers.resize_with(threads, LaneBufs::default);
        }
        for w in &mut self.workers[..threads] {
            grow(&mut w.re, lanes);
            grow(&mut w.im, lanes);
            grow(&mut w.re2, mirror);
            grow(&mut w.im2, mirror);
            if conv > 0 {
                grow(&mut w.fallback.line, plan.nx.max(plan.ny));
                grow(&mut w.fallback.conv, conv);
            }
        }
    }
}

/// Splits `0..units` into at most `max_blocks` contiguous spans across
/// `team` and runs `f(lo, hi, bufs)` on each span with the lane buffers
/// of the block that runs it — inline on the caller when there is one
/// span. Every unit's arithmetic is independent of which block runs it,
/// so results are bitwise identical for any team size.
///
/// # Panics
///
/// Panics if `rs` holds fewer worker buffers than the span count.
pub(crate) fn for_each_lane_block<F>(
    team: &WorkerTeam,
    units: usize,
    max_blocks: usize,
    rs: &mut Fft2Scratch,
    f: F,
) where
    F: Fn(usize, usize, &mut LaneBufs) + Sync,
{
    let nb = team.threads().min(max_blocks.max(1)).min(units.max(1));
    assert!(
        rs.workers.len() >= nb,
        "lane scratch not ensured for this team"
    );
    if nb == 1 {
        f(0, units, &mut rs.workers[0]);
        return;
    }
    let bufs = SendPtr::new(rs.workers.as_mut_ptr());
    team.run(&|b| {
        if b >= nb {
            return;
        }
        let (lo, hi) = chunk_bounds(units, nb, b);
        // Safety: one buffer set per block index; block indices are
        // unique within a parallel region, so the access is exclusive.
        let bufs = unsafe { &mut *bufs.add(b) };
        f(lo, hi, bufs);
    });
}

/// Up to [`LANES`] columns of a row-major grid that a column pass
/// transforms together: lane `l < live` holds column `c0 + l·step`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Strip {
    pub(crate) c0: usize,
    pub(crate) step: isize,
    pub(crate) live: usize,
}

impl Strip {
    /// The consecutive columns `c0..c0 + live`.
    pub(crate) fn run(c0: usize, live: usize) -> Self {
        Strip { c0, step: 1, live }
    }

    /// Column of lane `l`.
    #[inline]
    pub(crate) fn col(self, l: usize) -> usize {
        self.c0.wrapping_add_signed(l as isize * self.step)
    }
}

/// Element `j` of every lane, as `[re, im]` lane rows of `re`/`im`.
#[inline(always)]
fn lane_rows<'a>(
    re: &'a mut [f64],
    im: &'a mut [f64],
) -> impl Iterator<Item = (&'a mut Lane, &'a mut Lane)> {
    re.chunks_exact_mut(LANES)
        .zip(im.chunks_exact_mut(LANES))
        .map(|(r, i)| {
            (
                r.try_into().expect("chunks_exact yields LANES values"),
                i.try_into().expect("chunks_exact yields LANES values"),
            )
        })
}

/// Loads rows `r0..r0 + live` of the row-major `src` (row width `w`)
/// into lanes `0..live` of `re`/`im` (element `j` of lane `l` at
/// `j·LANES + l`) and zeros lanes `live..`.
///
/// # Safety
///
/// `src` must be valid for reads of rows `r0..r0 + live`, with no
/// concurrent writer; `re`/`im` must hold `w·LANES` values.
pub(crate) unsafe fn gather_rows(
    src: *const Complex64,
    w: usize,
    r0: usize,
    live: usize,
    re: &mut [f64],
    im: &mut [f64],
) {
    debug_assert!(re.len() == w * LANES && im.len() == w * LANES && live <= LANES);
    // Dead lanes re-read the first row and are zeroed afterwards, so the
    // copy loop has no per-element branch.
    let rows: [*const Complex64; LANES] =
        std::array::from_fn(|l| src.add((r0 + if l < live { l } else { 0 }) * w));
    for (j, (r, i)) in lane_rows(re, im).enumerate() {
        for l in 0..LANES {
            let z = *rows[l].add(j);
            r[l] = z.re;
            i[l] = z.im;
        }
        r[live..].fill(0.0);
        i[live..].fill(0.0);
    }
}

/// Stores lanes `0..live` back as rows `r0..r0 + live` of `dst`.
///
/// # Safety
///
/// `dst` must be valid for writes of those rows, with no other thread
/// touching them; `re`/`im` must hold `w·LANES` values.
pub(crate) unsafe fn scatter_rows(
    re: &[f64],
    im: &[f64],
    dst: *mut Complex64,
    w: usize,
    r0: usize,
    live: usize,
) {
    debug_assert!(re.len() == w * LANES && im.len() == w * LANES && live <= LANES);
    let rows: [*mut Complex64; LANES] = std::array::from_fn(|l| dst.add((r0 + l) * w));
    for (j, (r, i)) in re
        .chunks_exact(LANES)
        .zip(im.chunks_exact(LANES))
        .enumerate()
    {
        for l in 0..live {
            *rows[l].add(j) = Complex64::new(r[l], i[l]);
        }
    }
}

/// Rows ahead that a strip gather prefetches: consecutive rows of a
/// strip sit a whole grid row apart, a stride the hardware prefetcher
/// does not follow.
const PREFETCH_ROWS: usize = 16;

/// Hints the cache line holding `*p` into L1.
#[inline(always)]
fn prefetch(p: *const Complex64) {
    #[cfg(target_arch = "x86_64")]
    // Safety: a prefetch is only a hint; it never faults or reads
    // memory architecturally.
    unsafe {
        std::arch::x86_64::_mm_prefetch(p.cast::<i8>(), std::arch::x86_64::_MM_HINT_T0)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Loads rows `0..rows` of strip `s` from the row-major `src` (row
/// width `w`) into elements `0..rows` of the lanes, zeros in dead
/// lanes. Elements `rows..` are left as they are: a forward lane
/// transform with window `rows` never uses them.
///
/// # Safety
///
/// `src` must be valid for reads of the strip's columns in rows
/// `0..rows`, with no concurrent writer; `rows·LANES ≤ re.len()`.
pub(crate) unsafe fn gather_strip(
    src: *const Complex64,
    w: usize,
    s: Strip,
    rows: usize,
    re: &mut [f64],
    im: &mut [f64],
) {
    debug_assert!(rows * LANES <= re.len() && re.len() == im.len());
    let full = s.live == LANES && s.step.unsigned_abs() == 1;
    // Leftmost column of a full strip.
    let lo = if s.step == 1 {
        s.c0
    } else {
        s.c0.wrapping_sub(LANES - 1)
    };
    let n = rows * LANES;
    for (j, (r, i)) in lane_rows(&mut re[..n], &mut im[..n]).enumerate() {
        if full && j + PREFETCH_ROWS < rows {
            let ahead = src.add((j + PREFETCH_ROWS) * w + lo);
            prefetch(ahead);
            prefetch(ahead.add(LANES - 1));
        }
        let row = src.add(j * w);
        if full && s.step == 1 {
            let p = row.add(s.c0);
            for l in 0..LANES {
                let z = *p.add(l);
                (r[l], i[l]) = (z.re, z.im);
            }
        } else if full {
            let p = row.add(lo);
            for l in 0..LANES {
                let z = *p.add(LANES - 1 - l);
                (r[l], i[l]) = (z.re, z.im);
            }
        } else {
            for l in 0..LANES {
                let z = if l < s.live {
                    *row.add(s.col(l))
                } else {
                    Complex64::ZERO
                };
                (r[l], i[l]) = (z.re, z.im);
            }
        }
    }
}

/// Stores rows `0..rows` of lanes `0..s.live` back into strip `s`'s
/// columns of `dst`.
///
/// # Safety
///
/// `dst` must be valid for writes of the strip's columns in rows
/// `0..rows`, with no other thread touching them.
pub(crate) unsafe fn scatter_strip(
    re: &[f64],
    im: &[f64],
    dst: *mut Complex64,
    w: usize,
    s: Strip,
    rows: usize,
) {
    debug_assert!(rows * LANES <= re.len() && re.len() == im.len());
    let full = s.live == LANES && s.step.unsigned_abs() == 1;
    let lanes = re.chunks_exact(LANES).zip(im.chunks_exact(LANES));
    for (j, (r, i)) in lanes.take(rows).enumerate() {
        let row = dst.add(j * w);
        if full && s.step == 1 {
            let p = row.add(s.c0);
            for l in 0..LANES {
                *p.add(l) = Complex64::new(r[l], i[l]);
            }
        } else if full {
            let p = row.add(s.c0 + 1 - LANES);
            for l in 0..LANES {
                *p.add(LANES - 1 - l) = Complex64::new(r[l], i[l]);
            }
        } else {
            for l in 0..s.live {
                *row.add(s.col(l)) = Complex64::new(r[l], i[l]);
            }
        }
    }
}

/// A reusable 2-D FFT plan over a row-major `nx × ny` grid.
///
/// Executes as a row pass then a column pass, both through the lane
/// kernel ([`FftPlan::process_lanes`]): the row pass transforms
/// [`LANES`] rows at a time, the column pass gathers a strip of
/// `LANES` columns into a worker's cache-resident lane buffer,
/// transforms it and writes it back — no grid-sized transpose. Row
/// groups and strips are split across the caller's [`WorkerTeam`];
/// every lane's arithmetic is that of [`FftPlan::process`] on the same
/// line, so results are bitwise identical at any thread count, and no
/// allocation happens per execution once the [`Fft2Scratch`] is warm.
///
/// Every pass is guarded by a cells-per-thread clamp
/// ([`Fft2Plan::with_min_cells_per_thread`], default
/// [`MIN_FFT_CELLS_PER_THREAD`]): passes over small grids run inline on
/// the caller instead of fanning out, which is where the rendezvous
/// overhead exceeds the parallel win. The clamp only changes *which
/// thread* executes a row group or strip, never the arithmetic, so it
/// is bitwise-invisible.
///
/// Both axes may be any length ≥ 1 — composite demag paddings from
/// [`good_size`] and Bluestein lengths run the same passes.
#[derive(Debug, Clone)]
pub struct Fft2Plan {
    nx: usize,
    ny: usize,
    row: FftPlan,
    col: FftPlan,
    min_cells_per_thread: usize,
}

impl Fft2Plan {
    /// Builds a plan for `nx × ny` grids (any lengths ≥ 1) with the
    /// default small-transform clamp.
    pub fn new(nx: usize, ny: usize) -> Self {
        Fft2Plan {
            nx,
            ny,
            row: FftPlan::new(nx),
            col: FftPlan::new(ny),
            min_cells_per_thread: MIN_FFT_CELLS_PER_THREAD,
        }
    }

    /// Overrides the minimum cells a pass must touch per worker thread
    /// before fanning out. `0` disables the clamp (every pass uses the
    /// full team — what the cross-thread parity tests want).
    pub fn with_min_cells_per_thread(mut self, min: usize) -> Self {
        self.min_cells_per_thread = min;
        self
    }

    /// The active cells-per-thread clamp (see
    /// [`Fft2Plan::with_min_cells_per_thread`]).
    pub fn min_cells_per_thread(&self) -> usize {
        self.min_cells_per_thread
    }

    /// Grid width (row length).
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height (column length).
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of elements `process` expects in `data`.
    pub fn grid_len(&self) -> usize {
        self.nx * self.ny
    }

    /// Bluestein convolution length [`Fft2Scratch`] workers need for
    /// this plan (the larger of the two axes' needs; zero when both axes
    /// are 5-smooth).
    pub fn row_scratch_len(&self) -> usize {
        self.row.scratch_len().max(self.col.scratch_len())
    }

    /// The 1-D plan of the rows (length `nx`).
    pub(crate) fn row_plan(&self) -> &FftPlan {
        &self.row
    }

    /// The 1-D plan of the columns (length `ny`).
    pub(crate) fn col_plan(&self) -> &FftPlan {
        &self.col
    }

    /// Worker blocks a pass touching `cells` grid cells may fan out to
    /// under the clamp.
    pub(crate) fn pass_blocks(&self, cells: usize, team: &WorkerTeam) -> usize {
        effective_threads(team.threads(), cells, self.min_cells_per_thread)
    }

    /// Executes the 2-D transform of `data` in place: rows, then columns,
    /// with throwaway lane scratch (hold an [`Fft2Scratch`] and use
    /// [`Fft2Plan::forward_spectrum`] / [`Fft2Plan::inverse_spectrum`]
    /// on hot paths).
    ///
    /// # Panics
    ///
    /// Panics if `data`'s length differs from [`Fft2Plan::grid_len`].
    pub fn process(&self, data: &mut [Complex64], team: &WorkerTeam, direction: Direction) {
        assert_eq!(data.len(), self.grid_len(), "buffer size mismatch");
        let (nx, ny) = (self.nx, self.ny);
        let mut rs = Fft2Scratch::new();
        rs.ensure(self, team.threads());
        self.row_pass(data, ny, direction, team, &mut rs);
        let base = SendPtr::new(data.as_mut_ptr());
        self.column_pass(
            direction,
            ny,
            team,
            &mut rs,
            // Safety: strips own disjoint columns of `data`, which
            // outlives the pass.
            |s, re, im| unsafe { gather_strip(base.get(), nx, s, ny, re, im) },
            |s, re, im| unsafe { scatter_strip(re, im, base.get(), nx, s, ny) },
        );
    }

    /// Forward transform of a zero-padded grid whose rows
    /// `data_rows..ny` are identically zero, **stopping in the x-major
    /// ("spectrum") layout**: `spec` receives bin `(kx, ky)` at
    /// `kx·ny + ky`. The row pass covers only the populated rows (the
    /// DFT of an all-zero row is zero), and the column strips load only
    /// those rows into their lanes, whose first stage skips the digits
    /// that would read the zero rows — so rows `data_rows..ny` of `data`
    /// are never read. Skipping a zero can only change the sign of a
    /// zero bin.
    ///
    /// `data` is consumed as scratch for the row pass (its contents are
    /// unspecified afterwards).
    ///
    /// # Panics
    ///
    /// Panics on buffer size mismatch or `data_rows > ny`.
    pub fn forward_spectrum(
        &self,
        data: &mut [Complex64],
        spec: &mut [Complex64],
        team: &WorkerTeam,
        rs: &mut Fft2Scratch,
        data_rows: usize,
    ) {
        assert_eq!(data.len(), self.grid_len(), "buffer size mismatch");
        assert_eq!(spec.len(), self.grid_len(), "spectrum size mismatch");
        assert!(data_rows <= self.ny, "data_rows exceeds grid height");
        let (nx, ny) = (self.nx, self.ny);
        rs.ensure(self, team.threads());
        self.row_pass(data, data_rows, Direction::Forward, team, rs);
        let src = SendPtr::new(data.as_mut_ptr());
        let dst = SendPtr::new(spec.as_mut_ptr());
        self.column_pass(
            Direction::Forward,
            data_rows,
            team,
            rs,
            // Safety: `data` is only read here, within its bounds.
            |s, re, im| unsafe { gather_strip(src.get(), nx, s, data_rows, re, im) },
            |s, re, im| {
                for l in 0..s.live {
                    let line = s.col(l) * ny;
                    for ky in 0..ny {
                        // Safety: each strip owns its columns' x-major
                        // lines of `spec`.
                        unsafe {
                            *dst.add(line + ky) =
                                Complex64::new(re[ky * LANES + l], im[ky * LANES + l]);
                        }
                    }
                }
            },
        );
    }

    /// Inverse of [`Fft2Plan::forward_spectrum`]: consumes an x-major
    /// spectrum (contents unchanged) and materializes only rows
    /// `0..out_rows` of the row-major result in `data`: the column
    /// strips compute and write back just those rows, and the row pass
    /// inverts just those rows. Columns run before rows here (the reverse of
    /// [`Fft2Plan::process`]), so the result agrees with a full inverse
    /// to rounding, not bitwise; it is bitwise identical across thread
    /// counts.
    ///
    /// # Panics
    ///
    /// Panics on buffer size mismatch or `out_rows > ny`.
    pub fn inverse_spectrum(
        &self,
        spec: &mut [Complex64],
        data: &mut [Complex64],
        team: &WorkerTeam,
        rs: &mut Fft2Scratch,
        out_rows: usize,
    ) {
        assert_eq!(data.len(), self.grid_len(), "buffer size mismatch");
        assert_eq!(spec.len(), self.grid_len(), "spectrum size mismatch");
        assert!(out_rows <= self.ny, "out_rows exceeds grid height");
        let (nx, ny) = (self.nx, self.ny);
        rs.ensure(self, team.threads());
        let src = SendPtr::new(spec.as_mut_ptr());
        let dst = SendPtr::new(data.as_mut_ptr());
        self.column_pass(
            Direction::Inverse,
            out_rows,
            team,
            rs,
            |s, re, im| {
                for ky in 0..ny {
                    for l in 0..LANES {
                        // Safety: `spec` is only read here, within its
                        // bounds (live lanes name columns < nx).
                        let z = if l < s.live {
                            unsafe { *src.add(s.col(l) * ny + ky) }
                        } else {
                            Complex64::ZERO
                        };
                        re[ky * LANES + l] = z.re;
                        im[ky * LANES + l] = z.im;
                    }
                }
            },
            // Safety: strips own disjoint columns of `data`.
            |s, re, im| unsafe { scatter_strip(re, im, dst.get(), nx, s, out_rows) },
        );
        self.row_pass(data, out_rows, Direction::Inverse, team, rs);
    }

    /// Transforms rows `0..rows` of the row-major `data` in place,
    /// [`LANES`] rows per lane batch, row groups split across the team.
    /// `rs` must be [ensured](Fft2Scratch::ensure) for this plan and team.
    pub(crate) fn row_pass(
        &self,
        data: &mut [Complex64],
        rows: usize,
        direction: Direction,
        team: &WorkerTeam,
        rs: &mut Fft2Scratch,
    ) {
        let nx = self.nx;
        assert!(rows * nx <= data.len(), "row pass exceeds the grid");
        let base = SendPtr::new(data.as_mut_ptr());
        let nb = self.pass_blocks(rows * nx, team);
        for_each_lane_block(team, rows.div_ceil(LANES), nb, rs, |g0, g1, w| {
            let (re, im) = (&mut w.re[..nx * LANES], &mut w.im[..nx * LANES]);
            for g in g0..g1 {
                let r0 = g * LANES;
                let live = LANES.min(rows - r0);
                // Safety: row groups are disjoint across blocks and lie
                // within the first `rows` rows of `data`.
                unsafe { gather_rows(base.get(), nx, r0, live, re, im) };
                self.row
                    .process_lanes(re, im, live, direction, nx, &mut w.fallback);
                unsafe { scatter_rows(re, im, base.get(), nx, r0, live) };
            }
        });
    }

    /// Runs the column transform over strips of [`LANES`] consecutive
    /// columns, split across the team: `load` fills a strip's lanes,
    /// the lane kernel transforms them and `store` writes them out.
    /// `window` is the lane kernel's: a forward's `load` fills elements
    /// `0..window` (the rest are zero), an inverse's `store` reads
    /// elements `0..window`.
    fn column_pass<L, S>(
        &self,
        direction: Direction,
        window: usize,
        team: &WorkerTeam,
        rs: &mut Fft2Scratch,
        load: L,
        store: S,
    ) where
        L: Fn(Strip, &mut [f64], &mut [f64]) + Sync,
        S: Fn(Strip, &[f64], &[f64]) + Sync,
    {
        let (nx, ny) = (self.nx, self.ny);
        let nb = self.pass_blocks(nx * ny, team);
        for_each_lane_block(team, nx.div_ceil(LANES), nb, rs, |t0, t1, w| {
            let (re, im) = (&mut w.re[..ny * LANES], &mut w.im[..ny * LANES]);
            for t in t0..t1 {
                let s = Strip::run(t * LANES, LANES.min(nx - t * LANES));
                load(s, re, im);
                self.col
                    .process_lanes(re, im, s.live, direction, window, &mut w.fallback);
                store(s, re, im);
            }
        });
    }
}

/// 2-D FFT over a row-major `nx × ny` buffer (any dimensions ≥ 1),
/// transforming rows then columns.
///
/// Convenience wrapper building a throwaway [`Fft2Plan`] and running
/// serially; hold a plan (and scratch) when transforming repeatedly.
///
/// # Panics
///
/// Panics if `data.len() != nx * ny` or either dimension is zero.
pub fn fft2_in_place(data: &mut [Complex64], nx: usize, ny: usize, direction: Direction) {
    assert_eq!(data.len(), nx * ny, "buffer size mismatch");
    Fft2Plan::new(nx, ny).process(data, &WorkerTeam::new(1), direction);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex64, b: Complex64, tol: f64) {
        assert!(
            (a - b).abs() < tol,
            "expected {b}, got {a} (|diff| = {})",
            (a - b).abs()
        );
    }

    /// Deterministic pseudo-random stream for test signals (SplitMix64).
    fn test_noise(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                (z as f64 / u64::MAX as f64) * 2.0 - 1.0
            })
            .collect()
    }

    /// Direct O(N²) DFT with Kahan-compensated accumulation — the
    /// high-accuracy reference for the regression tests.
    fn direct_dft(signal: &[Complex64]) -> Vec<Complex64> {
        let n = signal.len();
        let table: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(-2.0 * std::f64::consts::PI * j as f64 / n as f64))
            .collect();
        (0..n)
            .map(|k| {
                let (mut sr, mut si) = (0.0f64, 0.0f64);
                let (mut cr, mut ci) = (0.0f64, 0.0f64);
                for (j, &x) in signal.iter().enumerate() {
                    let w = table[(k * j) % n];
                    let term = x * w;
                    // Kahan compensation, separately per component.
                    let yr = term.re - cr;
                    let tr = sr + yr;
                    cr = (tr - sr) - yr;
                    sr = tr;
                    let yi = term.im - ci;
                    let ti = si + yi;
                    ci = (ti - si) - yi;
                    si = ti;
                }
                Complex64::new(sr, si)
            })
            .collect()
    }

    /// Max relative error of `spectrum` against the compensated direct
    /// DFT of `signal`, normalized by the spectrum's peak magnitude.
    fn rel_err_vs_direct(signal: &[Complex64], spectrum: &[Complex64]) -> f64 {
        let reference = direct_dft(signal);
        let peak = reference.iter().map(|z| z.abs()).fold(0.0, f64::max);
        assert!(peak > 0.0);
        spectrum
            .iter()
            .zip(reference.iter())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
            / peak
    }

    fn noise_signal(seed: u64, n: usize) -> Vec<Complex64> {
        let noise = test_noise(seed, 2 * n);
        (0..n)
            .map(|i| Complex64::new(noise[2 * i], noise[2 * i + 1]))
            .collect()
    }

    /// The pre-plan butterfly loop: twiddles regenerated per group with a
    /// running product `w *= wlen`. Kept here only to demonstrate the
    /// rounding drift the table-driven plan fixes.
    fn legacy_fft_running_product(data: &mut [Complex64]) {
        let n = data.len();
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
            if j > i {
                data.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let angle = -2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex64::cis(angle);
            for start in (0..n).step_by(len) {
                let mut w = Complex64::ONE;
                for k in 0..len / 2 {
                    let a = data[start + k];
                    let b = data[start + k + len / 2] * w;
                    data[start + k] = a + b;
                    data[start + k + len / 2] = a - b;
                    w *= wlen;
                }
            }
            len <<= 1;
        }
    }

    #[test]
    fn table_twiddles_beat_running_product_at_n4096() {
        // Regression test for the twiddle accumulation drift: at N = 4096
        // the table-driven plan must agree with a compensated direct DFT
        // to ≤ 5e-15 of the spectrum's peak — a tolerance the old
        // running-product butterfly misses by an order of magnitude (its
        // recurrence error grows with the stage length).
        let n = 4096;
        let signal = noise_signal(0x5eed, n);
        let mut table_driven = signal.clone();
        fft_in_place(&mut table_driven, Direction::Forward);
        let table_err = rel_err_vs_direct(&signal, &table_driven);

        let mut running = signal.clone();
        legacy_fft_running_product(&mut running);
        let legacy_err = rel_err_vs_direct(&signal, &running);

        let tol = 5e-15; // far tighter than the 1e-9 requirement
        assert!(
            table_err <= tol,
            "table-driven FFT drifted: {table_err:.3e} > {tol:.0e}"
        );
        assert!(
            legacy_err > tol,
            "legacy running-product error {legacy_err:.3e} unexpectedly within {tol:.0e} — \
             the regression test lost its teeth"
        );
        assert!(
            table_err < legacy_err,
            "table twiddles ({table_err:.3e}) must beat the running product ({legacy_err:.3e})"
        );
    }

    #[test]
    fn mixed_radix_lengths_match_direct_dft() {
        // The headline sizes from the demag planner (96 = 2^5·3,
        // 320 = 2^6·5, 1000 = 2³·5³) plus small composites covering every
        // radix pairing. ≤ 1e-13 relative error against the compensated
        // direct DFT, forward and round-trip.
        for n in [6usize, 10, 12, 15, 20, 24, 45, 60, 96, 320, 1000] {
            let signal = noise_signal(0xabc + n as u64, n);
            let mut spectrum = signal.clone();
            fft_in_place(&mut spectrum, Direction::Forward);
            let err = rel_err_vs_direct(&signal, &spectrum);
            assert!(err <= 1e-13, "n={n}: rel err {err:.3e} > 1e-13");
            fft_in_place(&mut spectrum, Direction::Inverse);
            for (k, (a, b)) in spectrum.iter().zip(signal.iter()).enumerate() {
                assert!(
                    (*a - *b).abs() < 1e-12,
                    "n={n} round-trip diverged at {k}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn prime_lengths_run_through_bluestein_fallback() {
        // 127 (the satellite's prime), plus primes straddling radix
        // boundaries; all must hit ≤ 1e-13 against the direct DFT and
        // round-trip cleanly even though no radix stage divides them.
        for n in [7usize, 31, 97, 127, 251] {
            let plan = FftPlan::new(n);
            assert!(
                plan.bluestein.is_some(),
                "n={n} should use the Bluestein fallback"
            );
            let signal = noise_signal(0xdef + n as u64, n);
            let mut spectrum = signal.clone();
            plan.process(&mut spectrum, Direction::Forward);
            let err = rel_err_vs_direct(&signal, &spectrum);
            assert!(err <= 1e-13, "n={n}: rel err {err:.3e} > 1e-13");
            plan.process(&mut spectrum, Direction::Inverse);
            for (k, (a, b)) in spectrum.iter().zip(signal.iter()).enumerate() {
                assert!(
                    (*a - *b).abs() < 1e-12,
                    "n={n} round-trip diverged at {k}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn smooth_lengths_never_use_the_fallback() {
        for n in [1usize, 2, 3, 4, 5, 8, 9, 25, 30, 320, 640, 1920] {
            assert!(
                FftPlan::new(n).bluestein.is_none(),
                "5-smooth n={n} must run native stages"
            );
        }
    }

    #[test]
    fn good_size_picks_cheap_composites() {
        // Already-smooth inputs are returned unchanged.
        for n in [1usize, 2, 6, 64, 320, 1920] {
            assert_eq!(good_size(n), n);
        }
        // The demag paddings the bench exercises: 2n−1 for n = 320, 960,
        // 1500 — all far below the power-of-two fallback.
        assert_eq!(good_size(639), 640); // vs 1024
        assert_eq!(good_size(1919), 1920); // vs 2048
        assert_eq!(good_size(2999), 3000); // vs 4096
                                           // Every result is 5-smooth, ≥ n, and never beyond 2·pow2.
        for n in [7usize, 11, 65, 97, 127, 257, 1001, 4097] {
            let m = good_size(n);
            assert!(m >= n, "good_size({n}) = {m} < n");
            assert!(
                factor_stages(m).is_some(),
                "good_size({n}) = {m} is not 5-smooth"
            );
            assert!(m <= 2 * n.next_power_of_two());
        }
    }

    #[test]
    fn plan_reuse_matches_free_function() {
        for n in [64usize, 60] {
            let signal = noise_signal(7 + n as u64, n);
            let plan = FftPlan::new(n);
            let mut a = signal.clone();
            let mut b = signal;
            plan.process(&mut a, Direction::Forward);
            fft_in_place(&mut b, Direction::Forward);
            assert_eq!(a, b, "plan reuse must be bitwise identical (n={n})");
            plan.process(&mut a, Direction::Inverse);
            fft_in_place(&mut b, Direction::Inverse);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn length_one_transform_is_identity() {
        let mut data = vec![Complex64::new(3.5, -1.25)];
        fft_in_place(&mut data, Direction::Forward);
        assert_eq!(data[0], Complex64::new(3.5, -1.25));
        fft_in_place(&mut data, Direction::Inverse);
        assert_eq!(data[0], Complex64::new(3.5, -1.25));
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        for n in [8usize, 12, 15] {
            let mut data = vec![Complex64::ZERO; n];
            data[0] = Complex64::ONE;
            fft_in_place(&mut data, Direction::Forward);
            for z in &data {
                assert_close(*z, Complex64::ONE, 1e-12);
            }
        }
    }

    #[test]
    fn round_trip_recovers_signal() {
        for n in [16usize, 18, 50] {
            let original: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.3).cos()))
                .collect();
            let mut data = original.clone();
            fft_in_place(&mut data, Direction::Forward);
            fft_in_place(&mut data, Direction::Inverse);
            for (a, b) in data.iter().zip(original.iter()) {
                assert_close(*a, *b, 1e-10);
            }
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        for n in [64usize, 96] {
            let k0 = 5;
            let signal: Vec<f64> = (0..n)
                .map(|i| (2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64).cos())
                .collect();
            let spectrum = fft_real(&signal);
            // cos splits into bins k0 and n-k0, each with magnitude n/2.
            assert!((spectrum[k0].abs() - n as f64 / 2.0).abs() < 1e-9);
            assert!((spectrum[n - k0].abs() - n as f64 / 2.0).abs() < 1e-9);
            for (k, z) in spectrum.iter().enumerate() {
                if k != k0 && k != n - k0 {
                    assert!(z.abs() < 1e-9, "n={n} leakage in bin {k}: {}", z.abs());
                }
            }
        }
    }

    #[test]
    fn parseval_energy_is_conserved() {
        let signal: Vec<f64> = (0..32).map(|i| ((i * i) as f64 * 0.1).sin()).collect();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let spectrum = fft_real(&signal);
        let freq_energy: f64 =
            spectrum.iter().map(|z| z.abs_sq()).sum::<f64>() / signal.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn fft_real_matches_complex_transform() {
        // The r2c half-length split must agree with transforming the
        // signal as complex data with a zero imaginary channel — at
        // powers of two, composites, and odd lengths (full-complex path).
        for n in [1usize, 2, 4, 64, 96, 256, 320, 27, 45] {
            let signal = test_noise(42 + n as u64, n);
            let spectrum = fft_real(&signal);
            let mut complex: Vec<Complex64> =
                signal.iter().map(|&x| Complex64::new(x, 0.0)).collect();
            fft_in_place(&mut complex, Direction::Forward);
            let scale = (n as f64).sqrt();
            for (k, (a, b)) in spectrum.iter().zip(complex.iter()).enumerate() {
                assert!(
                    (*a - *b).abs() < 1e-11 * scale,
                    "n={n} bin {k}: r2c {a} vs complex {b}"
                );
            }
        }
    }

    #[test]
    fn fft_real_pair_matches_two_complex_transforms() {
        for n in [2usize, 8, 128, 96, 45] {
            let a = test_noise(1000 + n as u64, n);
            let b = test_noise(2000 + n as u64, n);
            let (fa, fb) = fft_real_pair(&a, &b);
            let mut ca: Vec<Complex64> = a.iter().map(|&x| Complex64::new(x, 0.0)).collect();
            let mut cb: Vec<Complex64> = b.iter().map(|&x| Complex64::new(x, 0.0)).collect();
            fft_in_place(&mut ca, Direction::Forward);
            fft_in_place(&mut cb, Direction::Forward);
            let scale = (n as f64).sqrt();
            for k in 0..n {
                assert!(
                    (fa[k] - ca[k]).abs() < 1e-11 * scale,
                    "n={n} channel a bin {k}: {} vs {}",
                    fa[k],
                    ca[k]
                );
                assert!(
                    (fb[k] - cb[k]).abs() < 1e-11 * scale,
                    "n={n} channel b bin {k}: {} vs {}",
                    fb[k],
                    cb[k]
                );
            }
        }
    }

    #[test]
    fn fft_real_pair_round_trips_through_inverse() {
        for n in [64usize, 60] {
            let a = test_noise(31, n);
            let b = test_noise(33, n);
            let (fa, fb) = fft_real_pair(&a, &b);
            // Repack Hx + i·Hy and invert: re must recover a, im must
            // recover b — exactly the packing the demag pipeline relies on.
            let mut packed: Vec<Complex64> = (0..n)
                .map(|k| Complex64::new(fa[k].re - fb[k].im, fa[k].im + fb[k].re))
                .collect();
            fft_in_place(&mut packed, Direction::Inverse);
            for i in 0..n {
                assert!((packed[i].re - a[i]).abs() < 1e-12, "re channel at {i}");
                assert!((packed[i].im - b[i]).abs() < 1e-12, "im channel at {i}");
            }
        }
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex64> = (0..12).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..12)
            .map(|i| Complex64::new(0.0, (i as f64).cos()))
            .collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fab: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        fft_in_place(&mut fa, Direction::Forward);
        fft_in_place(&mut fb, Direction::Forward);
        fft_in_place(&mut fab, Direction::Forward);
        for i in 0..12 {
            assert_close(fab[i], fa[i] + fb[i], 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_length() {
        let mut data: Vec<Complex64> = Vec::new();
        fft_in_place(&mut data, Direction::Forward);
    }

    #[test]
    fn fft2_round_trip() {
        for (nx, ny) in [(8usize, 4usize), (12, 10)] {
            let original: Vec<Complex64> = (0..nx * ny)
                .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 0.2).cos()))
                .collect();
            let mut data = original.clone();
            fft2_in_place(&mut data, nx, ny, Direction::Forward);
            fft2_in_place(&mut data, nx, ny, Direction::Inverse);
            for (a, b) in data.iter().zip(original.iter()) {
                assert_close(*a, *b, 1e-10);
            }
        }
    }

    #[test]
    fn fft2_of_constant_is_dc_only() {
        let nx = 4;
        let ny = 4;
        let mut data = vec![Complex64::ONE; nx * ny];
        fft2_in_place(&mut data, nx, ny, Direction::Forward);
        assert_close(data[0], Complex64::new(16.0, 0.0), 1e-12);
        for (i, z) in data.iter().enumerate().skip(1) {
            assert!(z.abs() < 1e-12, "bin {i} should be empty");
        }
    }

    #[test]
    fn fft2_matches_row_column_composition() {
        // The strip-based plan must agree with the naive row-then-
        // column definition — including at composite dimensions.
        for (nx, ny) in [(16usize, 8usize), (12, 6), (20, 15)] {
            let noise = test_noise(77, 2 * nx * ny);
            let original: Vec<Complex64> = (0..nx * ny)
                .map(|i| Complex64::new(noise[2 * i], noise[2 * i + 1]))
                .collect();
            let mut fast = original.clone();
            fft2_in_place(&mut fast, nx, ny, Direction::Forward);
            // Naive reference: rows in place, then each column gathered,
            // transformed, scattered.
            let mut slow = original;
            for row in slow.chunks_mut(nx) {
                fft_in_place(row, Direction::Forward);
            }
            let mut column = vec![Complex64::ZERO; ny];
            for ix in 0..nx {
                for iy in 0..ny {
                    column[iy] = slow[iy * nx + ix];
                }
                fft_in_place(&mut column, Direction::Forward);
                for iy in 0..ny {
                    slow[iy * nx + ix] = column[iy];
                }
            }
            for (a, b) in fast.iter().zip(slow.iter()) {
                assert_close(*a, *b, 1e-12);
            }
        }
    }

    #[test]
    fn fft2_plan_is_bitwise_identical_across_thread_counts() {
        for (nx, ny) in [(32usize, 16usize), (24, 18)] {
            let noise = test_noise(99, 2 * nx * ny);
            let original: Vec<Complex64> = (0..nx * ny)
                .map(|i| Complex64::new(noise[2 * i], noise[2 * i + 1]))
                .collect();
            // Clamp disabled: these grids are far below the production
            // threshold and the point is to exercise the parallel path.
            let plan = Fft2Plan::new(nx, ny).with_min_cells_per_thread(0);
            let mut serial = original.clone();
            plan.process(&mut serial, &WorkerTeam::new(1), Direction::Forward);
            for threads in [2, 3, 4, 7] {
                let team = WorkerTeam::new(threads);
                let mut parallel = original.clone();
                plan.process(&mut parallel, &team, Direction::Forward);
                assert_eq!(
                    serial, parallel,
                    "2-D FFT diverged at {threads} threads ({nx}×{ny})"
                );
            }
        }
    }

    #[test]
    fn forward_spectrum_matches_full_forward_on_zero_padded_input() {
        // A grid whose top part is zero (the convolution layout): the
        // row-skipping forward must agree bitwise with the full
        // transform, bin (kx, ky) landing at kx·ny + ky.
        for (nx, ny, data_rows) in [(16usize, 8usize, 3usize), (12, 6, 2), (20, 9, 4)] {
            let noise = test_noise(31, 2 * nx * data_rows);
            let mut original = vec![Complex64::ZERO; nx * ny];
            for i in 0..nx * data_rows {
                original[i] = Complex64::new(noise[2 * i], noise[2 * i + 1]);
            }
            let plan = Fft2Plan::new(nx, ny);
            let team = WorkerTeam::new(1);
            let mut full = original.clone();
            plan.process(&mut full, &team, Direction::Forward);
            let mut data = original;
            let mut spec = vec![Complex64::ZERO; nx * ny];
            plan.forward_spectrum(
                &mut data,
                &mut spec,
                &team,
                &mut Fft2Scratch::new(),
                data_rows,
            );
            for kx in 0..nx {
                for ky in 0..ny {
                    assert_eq!(
                        spec[kx * ny + ky],
                        full[ky * nx + kx],
                        "bin ({kx},{ky}) of the spectrum diverged from the full forward"
                    );
                }
            }
        }
    }

    #[test]
    fn inverse_spectrum_matches_full_inverse_on_requested_rows() {
        // The spectrum inverse runs columns before rows, so it agrees
        // with the full inverse to rounding on the rows it produces.
        for (nx, ny, out_rows) in [(16usize, 8usize, 3usize), (10, 6, 2)] {
            let noise = test_noise(57, 2 * nx * ny);
            let spectrum: Vec<Complex64> = (0..nx * ny)
                .map(|i| Complex64::new(noise[2 * i], noise[2 * i + 1]))
                .collect();
            let plan = Fft2Plan::new(nx, ny);
            let team = WorkerTeam::new(1);
            let mut full = spectrum.clone();
            plan.process(&mut full, &team, Direction::Inverse);
            let mut spec: Vec<Complex64> = (0..nx * ny)
                .map(|i| spectrum[(i % ny) * nx + i / ny])
                .collect();
            let mut out = vec![Complex64::ZERO; nx * ny];
            plan.inverse_spectrum(
                &mut spec,
                &mut out,
                &team,
                &mut Fft2Scratch::new(),
                out_rows,
            );
            for i in 0..nx * out_rows {
                assert_close(out[i], full[i], 1e-12);
            }
        }
    }

    #[test]
    fn spectrum_round_trip_is_bitwise_identical_across_thread_counts() {
        for (nx, ny, data_rows) in [(32usize, 16usize, 7usize), (24, 12, 5), (21, 11, 6)] {
            let noise = test_noise(41, 2 * nx * data_rows);
            let mut original = vec![Complex64::ZERO; nx * ny];
            for i in 0..nx * data_rows {
                original[i] = Complex64::new(noise[2 * i], noise[2 * i + 1]);
            }
            let plan = Fft2Plan::new(nx, ny).with_min_cells_per_thread(0);
            let round_trip = |threads: usize| {
                let team = WorkerTeam::new(threads);
                let mut rs = Fft2Scratch::new();
                let mut data = original.clone();
                let mut spec = vec![Complex64::ZERO; nx * ny];
                plan.forward_spectrum(&mut data, &mut spec, &team, &mut rs, data_rows);
                let forward = spec.clone();
                plan.inverse_spectrum(&mut spec, &mut data, &team, &mut rs, data_rows);
                (forward, data[..nx * data_rows].to_vec())
            };
            let serial = round_trip(1);
            for threads in [2, 3, 4, 7] {
                assert_eq!(
                    serial,
                    round_trip(threads),
                    "spectrum round trip diverged at {threads} threads ({nx}×{ny})"
                );
            }
        }
    }

    #[test]
    fn small_transform_clamp_is_bitwise_invisible() {
        // The default clamp serializes these tiny passes; a clamp-free
        // plan fans out. Both must produce identical bits — the clamp is
        // a scheduling decision only.
        let (nx, ny) = (40usize, 25usize);
        let noise = test_noise(7, 2 * nx * ny);
        let original: Vec<Complex64> = (0..nx * ny)
            .map(|i| Complex64::new(noise[2 * i], noise[2 * i + 1]))
            .collect();
        let clamped = Fft2Plan::new(nx, ny);
        assert_eq!(clamped.min_cells_per_thread(), MIN_FFT_CELLS_PER_THREAD);
        let unclamped = Fft2Plan::new(nx, ny).with_min_cells_per_thread(0);
        for threads in [1, 2, 4, 7] {
            let team = WorkerTeam::new(threads);
            let mut a = original.clone();
            clamped.process(&mut a, &team, Direction::Forward);
            let mut b = original.clone();
            unclamped.process(&mut b, &team, Direction::Forward);
            assert_eq!(a, b, "clamp changed transform bits at {threads} threads");
        }
    }

    /// Bit patterns of a complex buffer, so `-0.0` and `+0.0` differ.
    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn spectrum_halves_match_row_column_reference() {
        // forward_spectrum is the scalar row transforms of the populated
        // rows followed by the scalar column transforms, in x-major
        // layout; inverse_spectrum is the scalar column inverses followed
        // by the scalar row inverses of the rows it keeps. Both must hold
        // bitwise, including on grids with a Bluestein axis (7 and 13
        // are prime) and partial strips, at several thread counts.
        for (nx, ny, edge_rows) in [(16usize, 12usize, 5usize), (14, 7, 3), (13, 10, 4)] {
            let noise = test_noise(83, 2 * nx * edge_rows);
            let mut original = vec![Complex64::ZERO; nx * ny];
            for i in 0..nx * edge_rows {
                original[i] = Complex64::new(noise[2 * i], noise[2 * i + 1]);
            }
            let (row, col) = (FftPlan::new(nx), FftPlan::new(ny));
            let mut expected = original.clone();
            for r in expected[..nx * edge_rows].chunks_mut(nx) {
                row.process(r, Direction::Forward);
            }
            let mut spec_ref = vec![Complex64::ZERO; nx * ny];
            for kx in 0..nx {
                let line = &mut spec_ref[kx * ny..(kx + 1) * ny];
                for (ky, z) in line.iter_mut().enumerate() {
                    *z = expected[ky * nx + kx];
                }
                col.process(line, Direction::Forward);
            }
            let mut inv_ref = vec![Complex64::ZERO; nx * edge_rows];
            for kx in 0..nx {
                let mut line = spec_ref[kx * ny..(kx + 1) * ny].to_vec();
                col.process(&mut line, Direction::Inverse);
                for y in 0..edge_rows {
                    inv_ref[y * nx + kx] = line[y];
                }
            }
            for r in inv_ref.chunks_mut(nx) {
                row.process(r, Direction::Inverse);
            }

            let plan = Fft2Plan::new(nx, ny).with_min_cells_per_thread(0);
            for threads in [1, 3, 4] {
                let team = WorkerTeam::new(threads);
                let mut rs = Fft2Scratch::new();
                let mut data = original.clone();
                let mut spec = vec![Complex64::ZERO; nx * ny];
                plan.forward_spectrum(&mut data, &mut spec, &team, &mut rs, edge_rows);
                assert_eq!(
                    bits(&spec),
                    bits(&spec_ref),
                    "forward_spectrum diverged at {threads} threads ({nx}×{ny})"
                );
                let mut out = vec![Complex64::ZERO; nx * ny];
                plan.inverse_spectrum(&mut spec, &mut out, &team, &mut rs, edge_rows);
                assert_eq!(
                    bits(&out[..nx * edge_rows]),
                    bits(&inv_ref),
                    "inverse_spectrum diverged at {threads} threads ({nx}×{ny})"
                );
            }
        }
    }

    /// Lane buffers holding `LANES` signals of length `n` (element `j`
    /// of lane `l` at `j·LANES + l`), lanes `live..` zero. Some elements
    /// are replaced by `±0.0` so the signed-zero paths are exercised,
    /// and one live lane (when there are two or more) is entirely `-0.0`.
    fn lane_signals(seed: u64, n: usize, live: usize) -> (Vec<f64>, Vec<f64>) {
        let noise = test_noise(seed, 2 * n * LANES);
        let mut re = vec![0.0; n * LANES];
        let mut im = vec![0.0; n * LANES];
        for j in 0..n {
            for l in 0..live {
                let i = j * LANES + l;
                let (mut a, mut b) = (noise[2 * i], noise[2 * i + 1]);
                if (i * 7).is_multiple_of(5) {
                    a = if i.is_multiple_of(2) { 0.0 } else { -0.0 };
                }
                if (i * 3).is_multiple_of(7) {
                    b = if i.is_multiple_of(3) { -0.0 } else { 0.0 };
                }
                if live >= 2 && l == 1 {
                    (a, b) = (-0.0, -0.0);
                }
                re[i] = a;
                im[i] = b;
            }
        }
        (re, im)
    }

    /// Each lane of `(re, im)` against `FftPlan::process` of that lane
    /// of `(re0, im0)`, bit for bit; lanes `live..` must still be zero.
    fn assert_lanes_match_scalar(
        plan: &FftPlan,
        direction: Direction,
        inputs: (&[f64], &[f64]),
        outputs: (&[f64], &[f64]),
        live: usize,
        what: &str,
    ) {
        let keep = plan.len();
        assert_kept_lanes_match_scalar(plan, direction, inputs, outputs, live, keep, what);
    }

    /// [`assert_lanes_match_scalar`] on elements `0..keep` only.
    fn assert_kept_lanes_match_scalar(
        plan: &FftPlan,
        direction: Direction,
        (re0, im0): (&[f64], &[f64]),
        (re, im): (&[f64], &[f64]),
        live: usize,
        keep: usize,
        what: &str,
    ) {
        let n = plan.len();
        for l in 0..LANES {
            let mut line: Vec<Complex64> = (0..n)
                .map(|j| Complex64::new(re0[j * LANES + l], im0[j * LANES + l]))
                .collect();
            if l < live {
                plan.process(&mut line, direction);
            }
            for (j, z) in line.iter().enumerate().take(keep) {
                let got = (re[j * LANES + l].to_bits(), im[j * LANES + l].to_bits());
                assert_eq!(
                    got,
                    (z.re.to_bits(), z.im.to_bits()),
                    "{what}: n={n} {direction:?} lane {l}/{live} element {j}"
                );
            }
        }
    }

    #[test]
    fn lane_kernel_matches_scalar_process_bitwise() {
        let smooth = [1usize, 2, 3, 4, 5, 6, 8, 15, 40, 96, 320, 640, 1280];
        let primes = [7usize, 11, 47, 97];
        for n in smooth.into_iter().chain(primes) {
            let plan = FftPlan::new(n);
            for live in [LANES, 3, 1] {
                for direction in [Direction::Forward, Direction::Inverse] {
                    let (re0, im0) = lane_signals(n as u64 * 31 + live as u64, n, live);
                    let (mut re, mut im) = (re0.clone(), im0.clone());
                    plan.process_lanes(
                        &mut re,
                        &mut im,
                        live,
                        direction,
                        n,
                        &mut FallbackScratch::default(),
                    );
                    let inputs = (&re0[..], &im0[..]);
                    assert_lanes_match_scalar(
                        &plan,
                        direction,
                        inputs,
                        (&re, &im),
                        live,
                        "dispatch",
                    );
                    if plan.bluestein.is_some() {
                        continue;
                    }
                    let (mut re, mut im) = (re0.clone(), im0.clone());
                    plan.lanes_portable(&mut re, &mut im, direction, n);
                    assert_lanes_match_scalar(
                        &plan,
                        direction,
                        inputs,
                        (&re, &im),
                        live,
                        "portable",
                    );
                    #[cfg(target_arch = "x86_64")]
                    if std::arch::is_x86_feature_detected!("avx512f") {
                        let (mut re, mut im) = (re0.clone(), im0.clone());
                        // Safety: AVX-512F support was just detected.
                        unsafe { plan.lanes_avx512(&mut re, &mut im, direction, n) };
                        assert_lanes_match_scalar(
                            &plan,
                            direction,
                            inputs,
                            (&re, &im),
                            live,
                            "avx512",
                        );
                    }
                    #[cfg(target_arch = "x86_64")]
                    if std::arch::is_x86_feature_detected!("avx2") {
                        let (mut re, mut im) = (re0.clone(), im0.clone());
                        // Safety: AVX2 support was just detected.
                        unsafe { plan.lanes_avx2(&mut re, &mut im, direction, n) };
                        assert_lanes_match_scalar(
                            &plan,
                            direction,
                            inputs,
                            (&re, &im),
                            live,
                            "avx2",
                        );
                    }
                }
            }
        }
    }

    /// Runs the lane kernel on `(re, im)` through every instantiation
    /// this host has, returning each result with its name: the
    /// dispatcher, then the portable, AVX-512 and AVX2 copies.
    fn each_lane_kernel(
        plan: &FftPlan,
        (re, im): (&[f64], &[f64]),
        live: usize,
        direction: Direction,
        window: usize,
    ) -> Vec<(&'static str, Vec<f64>, Vec<f64>)> {
        let mut runs = Vec::new();
        let (mut r, mut i) = (re.to_vec(), im.to_vec());
        let mut fallback = FallbackScratch::default();
        plan.process_lanes(&mut r, &mut i, live, direction, window, &mut fallback);
        runs.push(("dispatch", r, i));
        let (mut r, mut i) = (re.to_vec(), im.to_vec());
        plan.lanes_portable(&mut r, &mut i, direction, window);
        runs.push(("portable", r, i));
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            let (mut r, mut i) = (re.to_vec(), im.to_vec());
            // Safety: AVX-512F support was just detected.
            unsafe { plan.lanes_avx512(&mut r, &mut i, direction, window) };
            runs.push(("avx512", r, i));
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let (mut r, mut i) = (re.to_vec(), im.to_vec());
            // Safety: AVX2 support was just detected.
            unsafe { plan.lanes_avx2(&mut r, &mut i, direction, window) };
            runs.push(("avx2", r, i));
        }
        runs
    }

    /// Lengths with every radix as the first and as the last stage
    /// (`factor_stages` order: 4s, a 2, 3s, 5s), odd and 3/5-leading
    /// lengths among them, up to the demag paddings 640 and 1280.
    const WINDOWED_LENGTHS: [usize; 19] = [
        1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 25, 45, 64, 75, 96, 125, 640, 1280,
    ];

    /// The windows a test sweeps on a length-`n` line: every count up to
    /// `limit` on short lines, the edges and a few interior counts on
    /// long ones.
    fn windows_upto(n: usize, limit: usize) -> Vec<usize> {
        if n <= 25 {
            return (0..=limit).collect();
        }
        let mut w = vec![0, 1, 2, n / 5, n / 4, n / 3, limit - 1, limit];
        w.retain(|&m| m <= limit);
        w.dedup();
        w
    }

    #[test]
    fn forward_input_window_keeps_the_full_transform_bits() {
        // Inputs `m..` of every lane are zero (a zero-padded line). The
        // windowed forward must not use them — they are poisoned with
        // NaN — and must give the full transform's bits on every output,
        // for every m ≤ ⌈n/2⌉ (the convolution paddings) and each
        // kernel instantiation. The live inputs are nonzero, so no
        // skipped `x + 0.0` meets a signed zero.
        for n in WINDOWED_LENGTHS {
            let plan = FftPlan::new(n);
            for m in windows_upto(n, n.div_ceil(2)) {
                for live in [LANES, 5] {
                    let noise = test_noise((n * 1000 + m) as u64, 2 * n * LANES);
                    let (mut re0, mut im0) = (vec![0.0; n * LANES], vec![0.0; n * LANES]);
                    for j in 0..m {
                        for l in 0..live {
                            let i = j * LANES + l;
                            (re0[i], im0[i]) = (noise[2 * i], noise[2 * i + 1]);
                        }
                    }
                    let (mut re, mut im) = (re0.clone(), im0.clone());
                    re[m * LANES..].fill(f64::NAN);
                    im[m * LANES..].fill(f64::NAN);
                    let inputs = (&re0[..], &im0[..]);
                    for (what, r, i) in
                        each_lane_kernel(&plan, (&re, &im), live, Direction::Forward, m)
                    {
                        let what = format!("{what}, window {m}");
                        assert_lanes_match_scalar(
                            &plan,
                            Direction::Forward,
                            inputs,
                            (&r, &i),
                            live,
                            &what,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn inverse_output_window_keeps_the_full_transform_bits() {
        // Only outputs `0..keep` are computed and stored (each scaled by
        // 1/n in the last stage); they must be the full inverse's bits,
        // signed zeros included, for every instantiation.
        for n in WINDOWED_LENGTHS {
            let plan = FftPlan::new(n);
            for keep in windows_upto(n, n).into_iter().chain([n.div_ceil(2) + 1]) {
                for live in [LANES, 3] {
                    let (re0, im0) = lane_signals((n * 7 + keep) as u64, n, live);
                    let inputs = (&re0[..], &im0[..]);
                    for (what, r, i) in
                        each_lane_kernel(&plan, inputs, live, Direction::Inverse, keep)
                    {
                        let what = format!("{what}, keep {keep}");
                        assert_kept_lanes_match_scalar(
                            &plan,
                            Direction::Inverse,
                            inputs,
                            (&r, &i),
                            live,
                            keep.min(n),
                            &what,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn process_with_reuses_scratch_without_reallocating() {
        // Prime length: the Bluestein fallback needs convolution scratch.
        // A warm buffer must be reused (no hot-path allocation) and the
        // result must match the allocating path bitwise.
        let n = 37;
        let plan = FftPlan::new(n);
        assert!(plan.scratch_len() > 0, "37 should use the fallback");
        let original = noise_signal(11, n);
        let mut reference = original.clone();
        plan.process(&mut reference, Direction::Forward);
        let mut scratch = Vec::new();
        let mut first = original.clone();
        plan.process_with(&mut first, Direction::Forward, &mut scratch);
        assert_eq!(first, reference, "scratch path diverged from process");
        let allocs_before = hot_scratch_allocs();
        let mut second = original.clone();
        plan.process_with(&mut second, Direction::Forward, &mut scratch);
        let mut inv = second.clone();
        plan.process_with(&mut inv, Direction::Inverse, &mut scratch);
        assert_eq!(
            hot_scratch_allocs(),
            allocs_before,
            "warm scratch must not reallocate"
        );
        assert_eq!(second, reference);
        for (a, b) in inv.iter().zip(original.iter()) {
            assert_close(*a, *b, 1e-12);
        }
    }

    #[test]
    fn cached_plan_is_shared_and_interchangeable() {
        let a = cached_plan(60);
        let b = cached_plan(60);
        assert!(Arc::ptr_eq(&a, &b), "same length must share one plan");
        let signal = noise_signal(3, 60);
        let mut via_cache = signal.clone();
        a.process(&mut via_cache, Direction::Forward);
        let mut via_fresh = signal;
        FftPlan::new(60).process(&mut via_fresh, Direction::Forward);
        assert_eq!(via_cache, via_fresh, "cached plan diverged from fresh");
    }

    #[test]
    fn fft2_handles_degenerate_single_row_and_column() {
        // nx = 1: the row pass is the identity, the column pass does all
        // the work (and vice versa) — exercises the length-1 plan inside
        // the 2-D pipeline.
        let n = 8;
        let noise = test_noise(123, n);
        let signal: Vec<Complex64> = noise.iter().map(|&x| Complex64::new(x, 0.0)).collect();
        let mut as_column = signal.clone();
        fft2_in_place(&mut as_column, 1, n, Direction::Forward);
        let mut as_row = signal.clone();
        fft2_in_place(&mut as_row, n, 1, Direction::Forward);
        let mut reference = signal;
        fft_in_place(&mut reference, Direction::Forward);
        for i in 0..n {
            assert_close(as_column[i], reference[i], 1e-12);
            assert_close(as_row[i], reference[i], 1e-12);
        }
    }
}
