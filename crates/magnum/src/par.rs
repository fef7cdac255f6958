//! Intra-simulation data parallelism: a persistent worker team.
//!
//! One simulation owns one [`WorkerTeam`]. The team holds `threads - 1`
//! parked OS threads; every parallel region (the fused RHS-plus-stage
//! sweep, renormalization, `max_torque` reduction, FFT batches) publishes
//! a job, wakes the workers, runs block 0 on the calling thread and blocks
//! until every worker has finished its block. With `threads == 1` no
//! threads are spawned and jobs run inline on the caller, so the serial
//! path has zero synchronization overhead.
//!
//! Determinism contract: blocks are contiguous, disjoint index ranges and
//! every per-cell computation depends only on the cell (never on the block
//! partition), so results are bitwise identical for any thread count.
//! Reductions return one partial per block, combined in block order.
//! Since the SoA refactor, block jobs read and write the state through
//! per-component plane slices ([`crate::Field3`]); the layout is a pure
//! permutation of the same `f64` values, so the contract carries over
//! unchanged — disjoint cell indices are disjoint in every plane.
//!
//! The module is `std`-only: `Mutex` + `Condvar` for the rendezvous, a
//! lifetime-erased job pointer for the closure hand-off (the caller blocks
//! inside [`WorkerTeam::run`] until all workers are done, so the borrow
//! outlives every use). All `unsafe` in the crate's parallel engine is
//! confined to this module.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Hard ceiling on the configured thread count, protecting against absurd
/// `MAGNUM_THREADS` values. Well above any machine this targets.
pub const MAX_THREADS: usize = 1024;

/// Number of logical CPUs, used when thread count `0` ("auto") is requested.
pub fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves the effective thread count from an explicit builder request and
/// the `MAGNUM_THREADS` environment value (the explicit request wins).
///
/// A count of `0` (either source) means "auto": all logical CPUs. With
/// neither source set the default is 1 — serial, so batch drivers that
/// parallelize across simulations are not oversubscribed by default.
///
/// # Errors
///
/// Returns a human-readable message when the environment value is not a
/// non-negative integer.
pub fn resolve_threads(explicit: Option<usize>, env: Option<&str>) -> Result<usize, String> {
    let requested = match explicit {
        Some(n) => Some(n),
        None => match env.map(str::trim) {
            Some("") | None => None,
            Some(s) => Some(s.parse::<usize>().map_err(|_| {
                format!("MAGNUM_THREADS must be a non-negative integer, got {s:?}")
            })?),
        },
    };
    Ok(match requested {
        Some(0) => auto_threads().min(MAX_THREADS),
        Some(n) => n.min(MAX_THREADS),
        None => 1,
    })
}

/// Default minimum number of cells each worker thread must have before a
/// second thread pays off.
///
/// Below this, the per-sweep rendezvous (publish + wake + join, a few µs)
/// costs more than the cells it offloads save: BENCH_rhs.json shows the
/// parallel path *losing* to serial at 4096–65536 cells on a machine
/// where threads contend for cores. Grids under
/// `threads * MIN_CELLS_PER_THREAD` cells therefore take the serial arm
/// unless the caller explicitly opts out via
/// [`crate::SimulationBuilder::min_cells_per_thread`].
pub const MIN_CELLS_PER_THREAD: usize = 65_536;

/// Clamps a requested thread count so every thread keeps at least
/// `min_cells_per_thread` cells. `min_cells_per_thread == 0` disables the
/// clamp (the explicit "I know what I'm doing" escape hatch used by
/// thread-parity tests, which oversubscribe tiny grids on purpose).
pub fn effective_threads(requested: usize, cells: usize, min_cells_per_thread: usize) -> usize {
    let requested = requested.clamp(1, MAX_THREADS);
    if min_cells_per_thread == 0 {
        return requested;
    }
    requested.min((cells / min_cells_per_thread).max(1))
}

/// Bounds `[start, end)` of chunk `b` when `n` items are split into `nb`
/// contiguous chunks of near-equal size.
pub fn chunk_bounds(n: usize, nb: usize, b: usize) -> (usize, usize) {
    debug_assert!(b < nb);
    (b * n / nb, (b + 1) * n / nb)
}

/// A raw pointer that may cross thread boundaries. Used to hand each block
/// a disjoint region of one output buffer; callers must guarantee that no
/// two blocks touch the same index.
#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(*mut T);

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub(crate) fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    /// The wrapped base pointer.
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }

    /// Pointer to element `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds of the original allocation, and no other
    /// thread may access the same element concurrently.
    pub(crate) unsafe fn add(&self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

/// Lifetime-erased pointer to the job closure currently being executed.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

unsafe impl Send for JobPtr {}

struct Control {
    job: Option<JobPtr>,
    /// Incremented once per published job; workers use it to detect work.
    epoch: u64,
    /// Workers still running the current job.
    remaining: usize,
    shutdown: bool,
    /// Set when any worker's job closure panicked.
    panicked: bool,
}

struct Shared {
    control: Mutex<Control>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Serializes whole parallel regions: `run` takes `&self`, so two
    /// threads sharing a team must not interleave job publications.
    region: Mutex<()>,
}

/// Persistent team of worker threads executing block-parallel jobs
/// (see module docs).
pub struct WorkerTeam {
    threads: usize,
    shared: Option<Arc<Shared>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerTeam {
    /// Creates a team that runs jobs across `threads` blocks. `threads`
    /// below 2 runs everything inline on the caller with no spawned
    /// threads.
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        if threads == 1 {
            return WorkerTeam {
                threads,
                shared: None,
                handles: Vec::new(),
            };
        }
        let shared = Arc::new(Shared {
            control: Mutex::new(Control {
                job: None,
                epoch: 0,
                remaining: 0,
                shutdown: false,
                panicked: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            region: Mutex::new(()),
        });
        let handles = (1..threads)
            .map(|block| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("magnum-worker-{block}"))
                    .spawn(move || worker_loop(&shared, block))
                    .expect("failed to spawn magnum worker thread")
            })
            .collect();
        WorkerTeam {
            threads,
            shared: Some(shared),
            handles,
        }
    }

    /// The number of blocks every job is split into (1 = serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(block)` for every block in `0..threads()`, block 0 on the
    /// calling thread, and returns when all blocks are done.
    ///
    /// # Panics
    ///
    /// Re-raises the caller-block panic, or panics with a generic message
    /// if a worker block panicked.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        let Some(shared) = self.shared.as_ref() else {
            job(0);
            return;
        };
        // A panic re-raised at the end of a previous region poisons this
        // lock; the team state is still consistent, so keep going.
        let _region = shared
            .region
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        {
            let mut ctl = shared.control.lock().unwrap();
            // Erase the borrow lifetime: `run` blocks below until every
            // worker has finished with the pointer.
            let ptr: *const (dyn Fn(usize) + Sync) = job;
            let ptr: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(ptr) };
            ctl.job = Some(JobPtr(ptr));
            ctl.epoch = ctl.epoch.wrapping_add(1);
            ctl.remaining = self.threads - 1;
            shared.work_cv.notify_all();
        }
        // The caller is block 0; even if it panics we must wait for the
        // workers before unwinding (they still hold the job pointer).
        let caller = catch_unwind(AssertUnwindSafe(|| job(0)));
        let worker_panicked = {
            let mut ctl = shared.control.lock().unwrap();
            while ctl.remaining > 0 {
                ctl = shared.done_cv.wait(ctl).unwrap();
            }
            ctl.job = None;
            std::mem::replace(&mut ctl.panicked, false)
        };
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("a magnum worker thread panicked during a parallel region");
        }
    }

    /// Splits `out` into `threads()` contiguous chunks and calls
    /// `f(start_index, chunk)` on each in parallel. Chunks are disjoint,
    /// in index order, and cover the whole slice.
    pub fn for_each_chunk<T, F>(&self, out: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let n = out.len();
        let nb = self.threads;
        if nb == 1 {
            f(0, out);
            return;
        }
        let base = SendPtr::new(out.as_mut_ptr());
        self.run(&|b| {
            let (start, end) = chunk_bounds(n, nb, b);
            if start < end {
                // Safety: chunk ranges are disjoint and in bounds.
                let chunk = unsafe { std::slice::from_raw_parts_mut(base.add(start), end - start) };
                f(start, chunk);
            }
        });
    }

    /// Partitions `0..n` into `threads()` contiguous spans (via
    /// [`chunk_bounds`]) and calls `f(start, end)` for each span in
    /// parallel. Unlike [`WorkerTeam::for_each_chunk`] no buffer is
    /// handed out — callers that need disjoint writes (e.g. batched row
    /// transforms) manage their own pointers, keyed by the span.
    pub fn for_each_span<F>(&self, n: usize, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let nb = self.threads;
        if nb == 1 {
            f(0, n);
            return;
        }
        self.run(&|b| {
            let (start, end) = chunk_bounds(n, nb, b);
            if start < end {
                f(start, end);
            }
        });
    }

    /// Like [`WorkerTeam::for_each_span`], but splits `0..n` into at most
    /// `max_blocks` spans instead of always `threads()`. With an
    /// effective block count of 1 the call runs inline on the caller —
    /// no job is published, no workers are woken — which is what makes
    /// the small-transform clamp actually free: a clamped pass costs
    /// exactly what the serial path costs.
    ///
    /// Determinism: the per-item computation must be independent of the
    /// partition (the same contract as every other parallel region), so
    /// the block count — like the thread count — is purely a performance
    /// knob and results are bitwise identical for any `max_blocks`.
    pub fn for_each_span_capped<F>(&self, n: usize, max_blocks: usize, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let nb = self.threads.min(max_blocks.max(1));
        if nb == 1 {
            f(0, n);
            return;
        }
        self.run(&|b| {
            if b >= nb {
                return;
            }
            let (start, end) = chunk_bounds(n, nb, b);
            if start < end {
                f(start, end);
            }
        });
    }

    /// Runs `f(block)` for every block and folds the per-block results
    /// into `init` in block order (a deterministic reduction). Unlike
    /// [`WorkerTeam::map_blocks`] it allocates nothing on a serial team,
    /// which keeps per-step reductions out of the allocator.
    pub(crate) fn fold_blocks<R, F, G>(&self, init: R, f: F, fold: G) -> R
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        G: Fn(R, R) -> R,
    {
        if self.threads == 1 {
            return fold(init, f(0));
        }
        self.map_blocks(f).into_iter().fold(init, fold)
    }

    /// Runs `f(block)` for every block and returns the per-block results
    /// in block order (deterministic reduction input).
    pub fn map_blocks<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let nb = self.threads;
        if nb == 1 {
            return vec![f(0)];
        }
        let mut results: Vec<Option<R>> = (0..nb).map(|_| None).collect();
        let base = SendPtr::new(results.as_mut_ptr());
        self.run(&|b| {
            let r = f(b);
            // Safety: each block writes only its own slot.
            unsafe { *base.add(b) = Some(r) };
        });
        results
            .into_iter()
            .map(|r| r.expect("worker block produced no result"))
            .collect()
    }
}

impl Drop for WorkerTeam {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.take() {
            {
                let mut ctl = shared.control.lock().unwrap();
                ctl.shutdown = true;
                shared.work_cv.notify_all();
            }
            for handle in self.handles.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for WorkerTeam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerTeam")
            .field("threads", &self.threads)
            .finish()
    }
}

fn worker_loop(shared: &Shared, block: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut ctl = shared.control.lock().unwrap();
            loop {
                if ctl.shutdown {
                    return;
                }
                if ctl.epoch != seen_epoch {
                    seen_epoch = ctl.epoch;
                    break ctl.job.expect("job epoch advanced without a job");
                }
                ctl = shared.work_cv.wait(ctl).unwrap();
            }
        };
        // Safety: the publisher blocks in `run` until `remaining` drops to
        // zero, so the closure outlives this call.
        let f = unsafe { &*job.0 };
        let outcome = catch_unwind(AssertUnwindSafe(|| f(block)));
        let mut ctl = shared.control.lock().unwrap();
        if outcome.is_err() {
            ctl.panicked = true;
        }
        ctl.remaining -= 1;
        if ctl.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_bounds_cover_everything_disjointly() {
        for n in [0usize, 1, 7, 64, 1000] {
            for nb in [1usize, 2, 3, 8, 13] {
                let mut next = 0;
                for b in 0..nb {
                    let (s, e) = chunk_bounds(n, nb, b);
                    assert_eq!(s, next, "gap/overlap at n={n} nb={nb} b={b}");
                    assert!(e >= s);
                    next = e;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn serial_team_runs_inline() {
        let team = WorkerTeam::new(1);
        assert_eq!(team.threads(), 1);
        let hits = AtomicUsize::new(0);
        team.run(&|b| {
            assert_eq!(b, 0);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn every_block_runs_exactly_once_per_job() {
        let team = WorkerTeam::new(4);
        let counts: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..100 {
            team.run(&|b| {
                counts[b].fetch_add(1, Ordering::SeqCst);
            });
        }
        for (b, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 100, "block {b} miscounted");
        }
    }

    #[test]
    fn for_each_chunk_writes_disjoint_slices() {
        let team = WorkerTeam::new(3);
        let mut data = vec![0usize; 1000];
        team.for_each_chunk(&mut data, |start, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = start + j;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn for_each_span_covers_every_index_once() {
        for threads in [1, 3, 8] {
            let team = WorkerTeam::new(threads);
            let n = 97;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            team.for_each_span(n, |start, end| {
                for h in hits.iter().take(end).skip(start) {
                    h.fetch_add(1, Ordering::SeqCst);
                }
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::SeqCst),
                    1,
                    "index {i} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn for_each_span_capped_covers_every_index_once() {
        for (threads, cap) in [(1, 4), (4, 1), (4, 2), (4, 8), (3, 3)] {
            let team = WorkerTeam::new(threads);
            let n = 53;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            team.for_each_span_capped(n, cap, |start, end| {
                for h in hits.iter().take(end).skip(start) {
                    h.fetch_add(1, Ordering::SeqCst);
                }
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::SeqCst),
                    1,
                    "index {i} at {threads} threads capped to {cap}"
                );
            }
        }
    }

    #[test]
    fn map_blocks_returns_results_in_block_order() {
        let team = WorkerTeam::new(4);
        let results = team.map_blocks(|b| b * 10);
        assert_eq!(results, vec![0, 10, 20, 30]);
    }

    #[test]
    fn worker_panic_is_reported_and_team_survives() {
        let team = WorkerTeam::new(4);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            team.run(&|b| {
                if b == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(outcome.is_err());
        // The team stays usable after a panic.
        let results = team.map_blocks(|b| b);
        assert_eq!(results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn resolve_threads_precedence_and_parsing() {
        assert_eq!(resolve_threads(None, None).unwrap(), 1);
        assert_eq!(resolve_threads(Some(3), None).unwrap(), 3);
        assert_eq!(resolve_threads(Some(3), Some("7")).unwrap(), 3);
        assert_eq!(resolve_threads(None, Some("7")).unwrap(), 7);
        assert_eq!(resolve_threads(None, Some(" 2 ")).unwrap(), 2);
        assert_eq!(resolve_threads(None, Some("")).unwrap(), 1);
        assert!(resolve_threads(None, Some("four")).is_err());
        assert!(resolve_threads(None, Some("-1")).is_err());
        assert!(resolve_threads(None, Some("0")).unwrap() >= 1);
        assert!(resolve_threads(Some(0), None).unwrap() >= 1);
        assert_eq!(
            resolve_threads(Some(usize::MAX), None).unwrap(),
            MAX_THREADS
        );
    }

    #[test]
    fn effective_threads_clamps_small_grids_to_serial() {
        // Sub-threshold grids fall back to one thread.
        assert_eq!(effective_threads(4, 4096, MIN_CELLS_PER_THREAD), 1);
        assert_eq!(
            effective_threads(2, MIN_CELLS_PER_THREAD - 1, MIN_CELLS_PER_THREAD),
            1
        );
        // Exactly one threshold of cells per extra thread is allowed.
        assert_eq!(
            effective_threads(2, 2 * MIN_CELLS_PER_THREAD, MIN_CELLS_PER_THREAD),
            2
        );
        assert_eq!(
            effective_threads(8, 3 * MIN_CELLS_PER_THREAD, MIN_CELLS_PER_THREAD),
            3
        );
        // A zero threshold disables the clamp entirely.
        assert_eq!(effective_threads(7, 4, 0), 7);
        // Degenerate requests still resolve to at least one thread.
        assert_eq!(effective_threads(0, 10, MIN_CELLS_PER_THREAD), 1);
        assert_eq!(effective_threads(usize::MAX, usize::MAX, 1), MAX_THREADS);
    }

    #[test]
    fn oversized_team_still_covers_all_blocks() {
        // More blocks than items: empty chunks must be harmless.
        let team = WorkerTeam::new(8);
        let mut data = vec![0u8; 3];
        team.for_each_chunk(&mut data, |_, chunk| {
            for v in chunk.iter_mut() {
                *v = 1;
            }
        });
        assert_eq!(data, vec![1, 1, 1]);
    }
}
