//! `parbench` — wall-clock scaling of magnum's intra-simulation threading,
//! plus the `swserve` loadtest and smoke probe.
//!
//! Seven modes:
//!
//! * Default: `parbench [--size N] [--steps N] [--threads LIST]` runs the
//!   same deterministic LLG workload (an N×N film with exchange,
//!   anisotropy, local demag and an antenna) at each thread count and
//!   reports wall time, speedup over the serial run (omitted for thread
//!   counts above the machine's CPUs), and whether the final
//!   magnetization is bitwise identical to the serial trajectory.
//!   Defaults: a 256×256 mesh, 50 steps, thread counts `1,2,4`.
//!
//! * `parbench --bigfft [--grids WxH,...] [--threads LIST] [--evals N]
//!   [--min-cells N] [--out PATH]` times one Newell demag field
//!   evaluation per (possibly non-square, non-power-of-two) grid under
//!   the good-size padding planner at each thread count, asserts the
//!   field is bitwise identical across thread counts, and reports
//!   ns/cell/eval, cells/sec and the speedup over the serial run in a
//!   per-grid `thread_scaling` table. The report records the
//!   machine's hardware thread count (`cpus`), since scaling numbers
//!   are meaningless without it; rows with more threads than `cpus`
//!   omit `speedup_vs_serial`. The runs use the default FFT clamp, so
//!   sub-threshold pads deliberately report ~1.0x: the clamp keeps them
//!   serial instead of letting fan-out overhead make them slower.
//!   `--min-cells N` replaces the clamp's cells-per-thread threshold
//!   (`0` turns it off), which is how the threshold is measured.
//!   Defaults: grids
//!   `256x256,320x320,477x171,640x320,960x384,1500x700` (477×171 is the
//!   paper MAJ3 box, 640×320 the `film_newell` film, the last a
//!   1.05M-cell film), threads `1,2,4`, auto eval count, output
//!   `BENCH_fft.json`.
//!
//! * `parbench --rhs [--grids LIST] [--threads LIST] [--steps N]
//!   [--out PATH]` benchmarks the fused single-sweep RHS on an RK4
//!   workload (full film, exchange + anisotropy + thin-film demag +
//!   Zeeman bias, no antenna) at each thread count. The report records
//!   ns/cell per RHS evaluation, the speedup over the serial run and
//!   bitwise identity across thread counts, plus the machine's hardware
//!   thread count (`cpus`); rows with more threads than that carry no
//!   `speedup_vs_serial`. Defaults: grids `64,128,256`, threads `1,2,4`,
//!   auto step count, output `BENCH_rhs.json`. The scaling runs disable
//!   the small-grid serial clamp so they measure the genuine parallel
//!   sweeps; a separate guard then checks the *default* build (clamp
//!   active) at the highest requested thread count. It must run at the
//!   thread count the clamp rule gives, and where that is more than one
//!   thread it must not lose more than 5% to the serial arm — the
//!   regression the clamp exists to prevent.
//!
//! * `parbench --batch [--ks LIST] [--steps N] [--out PATH]` benchmarks
//!   the batched K-way advance: for each K it times K independent serial
//!   runs of the triangle-gate workload (each member with its own drive
//!   phase) against one `BatchedSimulation` advancing all K in lockstep,
//!   asserts every member's final state is bitwise identical to its
//!   independent run, and requires the batch at the largest K to be at
//!   least 1.5x faster. The two arms alternate and each reports its best
//!   of three runs. Writes `BENCH_batch.json`, with the machine's
//!   hardware thread count (`cpus`). Defaults: Ks `1,4,8`, 2000 steps.
//!
//! * `parbench --netlist [--patterns N] [--out PATH]` benchmarks the
//!   `swnet` circuit compiler end to end: the 16-bit ripple-carry adder,
//!   the 4×4 array multiplier, and a truth-table-synthesized full adder
//!   are each compiled (construct/synthesize → legalize → lower) to a
//!   fan-out-legal `swgates` circuit, then N pseudo-random patterns are
//!   verified against integer arithmetic with the 64-lane word-parallel
//!   evaluator. The report (`BENCH_netlist.json`) records compile time,
//!   verification throughput, and the logical-effort scorecard (energy,
//!   delay, CMOS ratios) per case. Defaults: 65536 patterns.
//!
//! * `parbench --serve [--addr HOST:PORT] [--connections N]
//!   [--requests N] [--scenarios LIST] [--out PATH]` loadtests the
//!   serving tier over real sockets. N keep-alive connections — each
//!   issuing R gate-evaluation requests drawn from a rotating pool of
//!   distinct inputs — are multiplexed over a bounded worker-thread
//!   pool, so N can exceed the machine's thread budget. With `--addr`
//!   it loadtests that one external server; without, it runs the
//!   scenario suite and writes one report entry per scenario to
//!   `BENCH_serve.json` (throughput, p50/p99 latency, client-observed
//!   `X-Cache` split, hit rate):
//!   - `hot` — in-process server, RAM cache warms over the run (the
//!     pre-store steady-state number);
//!   - `cold` — fresh server + empty disk store, every first touch is
//!     a miss;
//!   - `restart` — seed a disk store through one server, drain it,
//!     boot a *second* server on the same store, and measure the
//!     restart answering from disk (asserts disk hits > 0);
//!   - `router` — `repro route` in front of 2 `repro serve` shard
//!     processes, loadtest through the router;
//!   - `kill` — same topology, but one shard is SIGKILLed a third of
//!     the way through; the run must finish with zero failures
//!     (asserted) while the router fails the dead shard's keys over.
//!
//!   Defaults: 64 connections, 32 requests each, all five scenarios.
//!
//! * `parbench --probe ADDR [--expect-cached] [--shutdown]` smoke-tests
//!   a running server or router: `/healthz`, one `/v1/gate/eval`
//!   (checked byte-for-byte against the local evaluator), `/metrics`,
//!   and optionally a graceful `/v1/admin/shutdown`. `--expect-cached`
//!   repeats the eval and requires the second answer to come from a
//!   cache level (`X-Cache: ram|disk|coalesced`) with a byte-identical
//!   body — the restart/warm-disk acceptance check. Exits non-zero on
//!   any mismatch.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Instant;

use bench::httpc::Client;
use bench::{write_bench_json, write_report};

use magnum::fft::MIN_FFT_CELLS_PER_THREAD;
use magnum::field::demag::{DemagMethod, NewellDemag, PadPolicy};
use magnum::field::FieldTerm;
use magnum::par::{effective_threads, WorkerTeam, MIN_CELLS_PER_THREAD};
use magnum::prelude::*;
use magnum::solver::IntegratorKind;
use swperf::cmos::CmosNode;
use swrun::json::Json;

fn build(size: usize, threads: usize) -> Simulation {
    let cell = 5e-9;
    let mesh = Mesh::new(size, size, [cell, cell, 1e-9]).unwrap();
    let h = size as f64 * cell;
    let antenna = Antenna::over_rect(
        &mesh,
        0.0,
        0.0,
        2.0 * cell,
        h,
        Vec3::X,
        Drive::logic_cw(3e3, 9e9, 0.0),
    );
    Simulation::builder(mesh, Material::fecob())
        .uniform_magnetization(Vec3::Z)
        .demag(DemagMethod::ThinFilmLocal)
        .absorbing_frame(AbsorbingFrame::new(8, 0.5))
        .antenna(antenna)
        .integrator(IntegratorKind::RungeKutta4)
        .threads(threads)
        // This mode measures raw thread scaling, so the small-grid serial
        // clamp must not silently rewrite the thread count.
        .min_cells_per_thread(0)
        .build()
        .unwrap()
}

fn run(size: usize, steps: usize, threads: usize) -> (f64, Vec<Vec3>) {
    let mut sim = build(size, threads);
    let start = Instant::now();
    for _ in 0..steps {
        sim.step().unwrap();
    }
    (start.elapsed().as_secs_f64(), sim.magnetization().to_vec())
}

/// A deterministic non-uniform test magnetization: tilted unit vectors
/// with spatially varying in-plane components.
fn test_magnetization(n: usize) -> Vec<Vec3> {
    (0..n)
        .map(|i| {
            let x = i as f64 * 0.7;
            Vec3::new(0.4 * (0.3 * x).sin(), 0.4 * (0.2 * x).cos(), 1.0).normalized()
        })
        .collect()
}

/// One Newell demag field evaluation (zero + accumulate).
fn eval_demag(
    demag: &NewellDemag,
    m: &Field3,
    h: &mut Field3,
    team: &WorkerTeam,
    scratch: &mut Option<Box<dyn std::any::Any + Send + Sync>>,
) {
    h.fill(Vec3::ZERO);
    demag.accumulate_par(m, 0.0, h, team, scratch.as_mut().map(|s| &mut **s));
}

/// Benchmarks one `WxH` grid for `--bigfft`: the good-size planned
/// padding per thread count, under the FFT clamp `min_cells` (`None`:
/// the default). Rows with more threads than the machine's `cpus` carry
/// no `speedup_vs_serial`: oversubscribed threads time-share cores, so
/// that ratio would not measure scaling.
fn bigfft_grid_report(
    nx: usize,
    ny: usize,
    threads: &[usize],
    evals: usize,
    min_cells: Option<usize>,
    cpus: usize,
) -> Json {
    let cell = 5e-9;
    let mesh = Mesh::new(nx, ny, [cell, cell, 1e-9]).unwrap();
    let material = Material::fecob();
    let n = mesh.cell_count();
    let mf = Field3::from_vec3s(&test_magnetization(n));

    let mut h_serial = Field3::zeros(0);
    let mut serial_ns = 0.0_f64;
    let mut padded = (0, 0);
    let mut scaling = Vec::new();
    for &t in threads {
        let team = WorkerTeam::new(t);
        let demag =
            NewellDemag::with_options(&mesh, &material, &team, PadPolicy::GoodSize, min_cells);
        padded = demag.padded_dims();
        let mut scratch = demag.make_scratch();
        let mut h = Field3::zeros(n);
        eval_demag(&demag, &mf, &mut h, &team, &mut scratch); // warm-up
        let start = Instant::now();
        for _ in 0..evals {
            eval_demag(&demag, &mf, &mut h, &team, &mut scratch);
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / evals as f64;

        // The serial field is the bitwise baseline for every other
        // thread count.
        let bitwise = if h_serial.is_empty() {
            h_serial = h;
            serial_ns = ns;
            true
        } else {
            h == h_serial
        };
        assert!(
            bitwise,
            "{nx}x{ny} planned demag diverged from the serial evaluation at {t} threads"
        );

        let speedup_vs_serial = (t <= cpus).then(|| serial_ns / ns);
        let cells_per_sec = n as f64 / (ns * 1e-9);
        println!(
            "  {nx}x{ny} threads {t:2}: {:>8.2} ns/cell  vs serial {}  {:.3e} cells/s",
            ns / n as f64,
            speedup_vs_serial.map_or("n/a (threads > cpus)".into(), |s| format!("{s:5.2}x")),
            cells_per_sec
        );
        scaling.push(Json::obj(
            [
                ("threads", Json::Num(t as f64)),
                ("ns_per_eval", Json::Num(ns)),
                ("ns_per_cell_per_eval", Json::Num(ns / n as f64)),
                ("cells_per_sec", Json::Num(cells_per_sec)),
                ("bitwise_identical_to_serial", Json::Bool(bitwise)),
            ]
            .into_iter()
            .chain(speedup_vs_serial.map(|s| ("speedup_vs_serial", Json::Num(s)))),
        ));
    }
    println!("  {nx}x{ny}: padded {}x{}", padded.0, padded.1);

    Json::obj([
        ("grid", Json::Str(format!("{nx}x{ny}"))),
        ("cells", Json::Num(n as f64)),
        ("evals", Json::Num(evals as f64)),
        (
            "padded",
            Json::Arr(vec![Json::Num(padded.0 as f64), Json::Num(padded.1 as f64)]),
        ),
        ("thread_scaling", Json::Arr(scaling)),
    ])
}

fn bigfft_main(
    grids: Vec<(usize, usize)>,
    threads: Vec<usize>,
    evals: usize,
    min_cells: Option<usize>,
    out: String,
) {
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let clamp = min_cells.unwrap_or(MIN_FFT_CELLS_PER_THREAD);
    println!(
        "bigfft benchmark: good-size planned Newell demag eval ({cpus} hardware thread(s), \
         clamp {clamp} cells/thread)"
    );
    let mut reports = Vec::new();
    for &(nx, ny) in &grids {
        let evals = if evals > 0 {
            evals
        } else {
            ((1 << 22) / (nx * ny)).clamp(2, 20)
        };
        reports.push(bigfft_grid_report(nx, ny, &threads, evals, min_cells, cpus));
    }
    // Thread-scaling numbers only mean something next to the machine's
    // real core count, so the report records it alongside the grids.
    let report = Json::obj([
        ("benchmark", Json::str("bigfft_demag_field_eval")),
        ("unit", Json::str("ns_per_eval")),
        ("cpus", Json::Num(cpus as f64)),
        ("min_cells_per_thread", Json::Num(clamp as f64)),
        ("grids", Json::Arr(reports)),
    ]);
    write_report(&out, &report);
}

/// Zeeman bias for the RHS benchmark workload (A/m, out of plane).
const RHS_BIAS: Vec3 = Vec3::new(0.0, 0.0, 5e4);

/// Tilted initial magnetization for the RHS benchmark (normalized by the
/// builder), so the exchange and torque terms all do real work.
const RHS_TILT: Vec3 = Vec3::new(0.3, 0.2, 1.0);

/// The RHS benchmark simulation: an N×N full film with every fusable
/// term active (exchange + uniaxial anisotropy + thin-film demag +
/// Zeeman bias) and nothing else — no antenna, no absorbing frame, no
/// FFT pre-pass — so the measurement isolates the fused sweep.
fn rhs_sim_builder(size: usize, threads: usize) -> SimulationBuilder {
    let cell = 5e-9;
    let mesh = Mesh::new(size, size, [cell, cell, 1e-9]).unwrap();
    Simulation::builder(mesh, Material::fecob())
        .uniform_magnetization(RHS_TILT)
        .demag(DemagMethod::ThinFilmLocal)
        .external_field(RHS_BIAS)
        .integrator(IntegratorKind::RungeKutta4)
        .threads(threads)
}

fn build_rhs_sim(size: usize, threads: usize) -> Simulation {
    // The scaling sweep measures the genuine parallel path, so the
    // small-grid serial clamp is disabled here; the clamp itself is
    // exercised (and guarded) separately in `rhs_grid_report`.
    rhs_sim_builder(size, threads)
        .min_cells_per_thread(0)
        .build()
        .unwrap()
}

/// Benchmarks the RHS at one grid size; returns its JSON report fragment.
fn rhs_grid_report(size: usize, threads: &[usize], steps: usize, cpus: usize) -> Json {
    let n = size * size;
    let evals = steps * 4; // four RHS evaluations per RK4 step

    // Fused single-sweep path at each thread count. The serial run is
    // the bitwise baseline.
    let mut m_serial: Vec<Vec3> = Vec::new();
    let mut serial_ns = 0.0_f64;
    let mut rows = Vec::new();
    for &t in threads {
        {
            let mut warm = build_rhs_sim(size, t);
            for _ in 0..steps.min(3) {
                warm.step().unwrap();
            }
        }
        let mut sim = build_rhs_sim(size, t);
        let start = Instant::now();
        for _ in 0..steps {
            sim.step().unwrap();
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / (evals * n) as f64;

        let m = sim.magnetization().to_vec();
        let bitwise = if m_serial.is_empty() {
            m_serial = m;
            serial_ns = ns;
            true
        } else {
            m == m_serial
        };
        assert!(
            bitwise,
            "{size}x{size} RHS diverged from the serial trajectory at {t} threads"
        );
        // No speedup is reported for more threads than the machine has.
        let speedup = (t <= cpus).then(|| serial_ns / ns);
        println!(
            "  {size:3}x{size:<3} threads {t:2}: {ns:8.2} ns/cell/eval  vs serial {}",
            speedup.map_or("n/a (threads > cpus)".into(), |s| format!("{s:5.2}x"))
        );
        rows.push(Json::obj(
            [
                ("threads", Json::Num(t as f64)),
                ("ns_per_cell_eval", Json::Num(ns)),
                ("bitwise_identical_to_serial", Json::Bool(bitwise)),
            ]
            .into_iter()
            .chain(speedup.map(|s| ("speedup_vs_serial", Json::Num(s)))),
        ));
    }

    // Guard for the small-grid serial clamp: a *default* build (clamp
    // active) at the highest requested thread count must run at the
    // thread count the clamp rule gives. Where that is one thread the
    // grid takes the serial path, which is the whole point; timing it
    // against the serial arm would compare two identical runs. Above
    // one thread the parallel sweeps have to carry their own weight:
    // they must not lose more than 5% to the serial arm. The two arms
    // are measured interleaved, best-of-5 each, so CPU-frequency drift
    // between them cannot fake a regression, and the guard picks its own
    // step count — enough cell-updates per timed run to push the wall
    // time well past timer jitter even when `--steps` is a smoke value.
    let max_threads = threads.iter().copied().max().unwrap_or(1);
    let expected_threads = effective_threads(max_threads, n, MIN_CELLS_PER_THREAD);
    let clamped_threads = rhs_sim_builder(size, max_threads)
        .build()
        .unwrap()
        .threads();
    assert_eq!(
        clamped_threads, expected_threads,
        "{size}x{size}: default build at {max_threads} threads runs {clamped_threads}, \
         the clamp rule gives {expected_threads}"
    );
    let clamp_ratio = (clamped_threads > 1).then(|| {
        let guard_steps = steps.max(2_000_000 / n);
        let timed_run = |make: &dyn Fn() -> Simulation| -> f64 {
            let mut sim = make();
            let start = Instant::now();
            for _ in 0..guard_steps {
                sim.step().unwrap();
            }
            start.elapsed().as_secs_f64()
        };
        let (mut t_clamped, mut t_serial) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            t_clamped = t_clamped.min(timed_run(&|| {
                rhs_sim_builder(size, max_threads).build().unwrap()
            }));
            t_serial = t_serial.min(timed_run(&|| build_rhs_sim(size, 1)));
        }
        t_clamped / t_serial
    });
    println!(
        "  {size:3}x{size:<3} clamp     : requested {max_threads} -> effective {clamped_threads} \
         threads, {}",
        clamp_ratio.map_or("serial path, not timed".into(), |r| format!(
            "{r:.3}x the serial wall time"
        ))
    );
    if let Some(ratio) = clamp_ratio {
        assert!(
            ratio <= 1.05,
            "{size}x{size}: default (clamped) build at {clamped_threads} threads took \
             {ratio:.3}x the serial wall time — the clamp lets this grid fan out at a loss"
        );
    }

    Json::obj([
        ("size", Json::Num(size as f64)),
        ("cells", Json::Num(n as f64)),
        ("steps", Json::Num(steps as f64)),
        (
            "clamp_guard",
            Json::obj(
                [
                    ("threads_requested", Json::Num(max_threads as f64)),
                    ("threads_effective", Json::Num(clamped_threads as f64)),
                ]
                .into_iter()
                .chain(clamp_ratio.map(|r| ("wall_time_ratio_vs_serial", Json::Num(r)))),
            ),
        ),
        ("results", Json::Arr(rows)),
    ])
}

fn rhs_main(grids: Vec<usize>, threads: Vec<usize>, steps: usize, out: String) {
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("RHS benchmark: fused single-sweep RHS ({cpus} hardware thread(s))");
    let mut reports = Vec::new();
    for &size in &grids {
        // Fewer steps on big grids keep the wall time bounded while the
        // per-step cost is large enough to time accurately.
        let steps = if steps > 0 {
            steps
        } else {
            ((1 << 21) / (size * size)).clamp(10, 200)
        };
        reports.push(rhs_grid_report(size, &threads, steps, cpus));
    }
    let report = Json::obj([
        ("benchmark", Json::str("llg_rhs_eval")),
        ("unit", Json::str("ns_per_cell_eval")),
        ("cpus", Json::Num(cpus as f64)),
        ("grids", Json::Arr(reports)),
    ]);
    write_report(&out, &report);
}

/// The batched-advance workload: the paper's triangle gate shape (apex
/// to the right) driven by a phase-encoded antenna on the left edge —
/// the geometry of the parity suites, at serial thread count, so the
/// measurement isolates what batching itself buys.
fn build_gate_sim(phase: f64) -> Simulation {
    const NX: usize = 48;
    const NY: usize = 24;
    let cell = 5e-9;
    let mut mesh = Mesh::new(NX, NY, [cell, cell, 1e-9]).unwrap();
    let w = NX as f64 * cell;
    let h = NY as f64 * cell;
    let triangle = magnum::geometry::Polygon::new(vec![(0.0, 0.0), (0.0, h), (w, h / 2.0)]);
    magnum::geometry::rasterize(&mut mesh, &triangle);
    let antenna = Antenna::over_rect(
        &mesh,
        0.0,
        0.0,
        2.0 * cell,
        h,
        Vec3::X,
        Drive::logic_cw(3e3, 9e9, phase),
    );
    Simulation::builder(mesh, Material::fecob())
        .uniform_magnetization(Vec3::Z)
        .demag(DemagMethod::ThinFilmLocal)
        .absorbing_frame(AbsorbingFrame::new(3, 0.5))
        .antenna(antenna)
        .integrator(IntegratorKind::RungeKutta4)
        .threads(1)
        .build()
        .unwrap()
}

/// `--batch`: K independent serial runs vs one batched K-way advance on
/// the triangle-gate workload, with bitwise parity checked per member.
/// Both arms build their members before their timers start; the two
/// arms alternate, and each reports its best of three.
/// Writes `BENCH_batch.json` and fails unless the largest K is at least
/// 1.5x faster batched.
fn batch_main(ks: Vec<usize>, steps: usize, out: String) {
    const REPS: usize = 3;
    println!(
        "batch benchmark: K-way lockstep advance vs K independent serial runs, {steps} RK4 steps, \
         best of 3 alternating"
    );
    let kmax = ks.iter().copied().max().unwrap_or(1);
    let mut speedup_at_kmax = f64::INFINITY;
    let mut rows = Vec::new();
    // Warm-up so page faults and lazy allocation hit neither timer.
    {
        let mut sim = build_gate_sim(0.0);
        for _ in 0..steps.min(100) {
            sim.step().unwrap();
        }
    }
    for &k in &ks {
        // One drive phase per member, like the patterns of a logic sweep.
        let phases: Vec<f64> = (0..k)
            .map(|s| s as f64 * std::f64::consts::PI / 4.0)
            .collect();

        // The arms alternate, best of REPS each: a single short run is
        // at the mercy of timer and scheduler noise on a shared host.
        let (mut t_independent, mut t_batch) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..REPS {
            let mut solo: Vec<Simulation> = phases.iter().map(|&p| build_gate_sim(p)).collect();
            let start = Instant::now();
            for sim in &mut solo {
                for _ in 0..steps {
                    sim.step().unwrap();
                }
            }
            t_independent = t_independent.min(start.elapsed().as_secs_f64());
            let independent: Vec<Vec<Vec3>> = solo
                .iter()
                .map(|sim| sim.magnetization().to_vec())
                .collect();

            let sims: Vec<Simulation> = phases.iter().map(|&p| build_gate_sim(p)).collect();
            let mut batch =
                BatchedSimulation::new(sims).expect("members are structurally identical");
            let start = Instant::now();
            for _ in 0..steps {
                batch.step().unwrap();
            }
            t_batch = t_batch.min(start.elapsed().as_secs_f64());

            let members = batch.into_members();
            for (s, sim) in members.iter().enumerate() {
                assert!(
                    sim.magnetization().to_vec() == independent[s],
                    "K={k}: member {s} diverged bitwise from its independent run"
                );
            }
        }
        let speedup = t_independent / t_batch;
        if k == kmax {
            speedup_at_kmax = speedup;
        }
        println!(
            "  K={k}: independent {t_independent:7.3} s, batched {t_batch:7.3} s, \
             speedup {speedup:5.2}x, bitwise-identical: yes"
        );
        rows.push(Json::obj([
            ("k", Json::Num(k as f64)),
            ("steps", Json::Num(steps as f64)),
            ("independent_s", Json::Num(t_independent)),
            ("batched_s", Json::Num(t_batch)),
            ("speedup_vs_independent", Json::Num(speedup)),
            ("bitwise_identical_to_independent", Json::Bool(true)),
        ]));
    }
    write_bench_json(
        &out,
        "batched_llg_advance",
        "speedup_vs_independent",
        "K independent serial runs of the triangle-gate workload",
        rows,
    );
    assert!(
        speedup_at_kmax >= 1.5,
        "K={kmax} batch ran only {speedup_at_kmax:.2}x faster than {kmax} independent serial \
         runs (the acceptance floor is 1.5x)"
    );
}

/// One `--netlist` case: compile the netlist `build` produces into a
/// circuit (timed), assert the result is fan-out legal, then verify
/// `patterns` pseudo-random patterns against `expect` (timed) with the
/// word-parallel evaluator. Returns the case's report row.
fn netlist_case(
    name: &str,
    patterns: usize,
    build: impl FnOnce() -> swnet::ir::Netlist,
    expect: impl Fn(u64) -> u64,
) -> Json {
    let start = Instant::now();
    let netlist = build();
    let legal = swnet::legalize::legalize(&netlist).expect("legalize");
    let circuit = swnet::lower::to_circuit(&legal).expect("lower");
    let compile_us = start.elapsed().as_secs_f64() * 1e6;
    assert!(
        circuit.fanout_violations().is_empty(),
        "{name}: compiled circuit must be fan-out legal"
    );
    let stats = swnet::legalize::stats(&legal).expect("legal netlist");
    let card = swnet::effort::score(&legal, &swnet::effort::EffortModel::paper()).expect("score");

    let start = Instant::now();
    let verified = swnet::sim::verify_against(&circuit, patterns, 0x5117_c0de, expect);
    let per_sec = verified as f64 / start.elapsed().as_secs_f64();
    println!(
        "  {name:9} compile {compile_us:9.1} µs  {:4} gates  depth {:3}  verified {verified} patterns at {per_sec:10.0}/s",
        stats.gates, stats.depth
    );
    Json::obj([
        ("name", Json::str(name)),
        ("inputs", Json::Num(circuit.input_count() as f64)),
        ("outputs", Json::Num(circuit.outputs().len() as f64)),
        ("gates", Json::Num(stats.gates as f64)),
        ("buffers", Json::Num(stats.buffers as f64)),
        ("depth", Json::Num(stats.depth as f64)),
        ("compile_us", Json::Num(compile_us)),
        ("patterns", Json::Num(verified as f64)),
        ("patterns_per_sec", Json::Num(per_sec)),
        ("energy_aj", Json::Num(card.spinwave.energy_aj())),
        ("delay_ns", Json::Num(card.spinwave.delay_ns())),
        (
            "energy_ratio_n16",
            Json::Num(card.energy_ratio(CmosNode::N16)),
        ),
        (
            "delay_ratio_n16",
            Json::Num(card.delay_ratio(CmosNode::N16)),
        ),
    ])
}

/// `--netlist`: benchmark the swnet compiler and the word-parallel
/// verifier, then write `BENCH_netlist.json`.
fn netlist_main(patterns: usize, out: String) {
    println!("netlist benchmark: swnet compile + word-parallel verification, {patterns} patterns per case");
    let cases = vec![
        netlist_case(
            "rca16",
            patterns,
            || swnet::arith::ripple_carry_adder(16),
            |p| (p & 0xffff) + (p >> 16 & 0xffff) + (p >> 32 & 1),
        ),
        netlist_case(
            "mul4",
            patterns,
            || swnet::arith::array_multiplier(4),
            |p| (p & 0xf) * (p >> 4 & 0xf),
        ),
        netlist_case(
            "fa_table",
            patterns,
            || {
                // The full adder again, but re-synthesized from its raw
                // truth tables (sum, cout) so the compile time covers
                // MAJ/XOR synthesis rather than netlist construction.
                let tables = [
                    swnet::synth::Table::parse("01101001").expect("sum table"),
                    swnet::synth::Table::parse("00010111").expect("cout table"),
                ];
                swnet::synth::synthesize(&tables).expect("synthesize full adder")
            },
            |p| (p & 1) + (p >> 1 & 1) + (p >> 2 & 1),
        ),
    ];
    let report = Json::obj([
        ("benchmark", Json::str("netlist_compile_eval")),
        ("unit", Json::str("patterns_per_sec")),
        (
            "reference",
            Json::str(
                "swnet compile (construct/synthesize + legalize + lower) verified \
                 against integer arithmetic by the 64-lane word-parallel evaluator",
            ),
        ),
        ("patterns", Json::Num(patterns as f64)),
        ("cases", Json::Arr(cases)),
    ]);
    write_report(&out, &report);
}

/// Resolves `HOST:PORT` to a socket address or dies with a usage error.
fn resolve(addr: &str) -> SocketAddr {
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut addrs| addrs.next())
        .unwrap_or_else(|| {
            eprintln!("cannot resolve address `{addr}`");
            std::process::exit(2);
        })
}

/// The rotating pool of distinct gate-evaluation requests the loadtest
/// draws from: all 8 MAJ3 patterns, all 4 XOR patterns, all 4 NAND
/// patterns. Each connection starts at a different offset, so early on
/// the server sees misses and coalescing, and once the pool is covered
/// everything hits the cache.
fn request_pool() -> Vec<String> {
    let mut pool = Vec::new();
    for p in 0..8u8 {
        pool.push(format!(
            r#"{{"gate":"maj3","inputs":[{},{},{}]}}"#,
            p & 1,
            (p >> 1) & 1,
            (p >> 2) & 1
        ));
    }
    for gate in ["xor", "nand"] {
        for p in 0..4u8 {
            pool.push(format!(
                r#"{{"gate":"{gate}","inputs":[{},{}]}}"#,
                p & 1,
                (p >> 1) & 1
            ));
        }
    }
    pool
}

/// One loadtest outcome: request counts by `X-Cache` class, latency
/// distribution, failures.
struct LoadOutcome {
    elapsed_s: f64,
    /// Sorted client-side latencies, microseconds.
    latencies_us: Vec<f64>,
    failures: usize,
    shed: usize,
    ram: usize,
    disk: usize,
    coalesced: usize,
    miss: usize,
}

impl LoadOutcome {
    fn total(&self) -> usize {
        self.latencies_us.len()
    }

    fn quantile(&self, q: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as usize).clamp(1, total);
        self.latencies_us[rank - 1]
    }

    /// Client-observed hit rate: any cache level, or a coalesced
    /// follower, over all answered requests.
    fn hit_rate(&self) -> f64 {
        let answered = self.ram + self.disk + self.coalesced + self.miss;
        if answered == 0 {
            return 0.0;
        }
        (self.ram + self.disk + self.coalesced) as f64 / answered as f64
    }

    /// The scenario's JSON report fragment (shared fields).
    fn report(&self, scenario: &str, topology: &str, connections: usize, requests: usize) -> Json {
        let total = self.total();
        let mean = self.latencies_us.iter().sum::<f64>() / total.max(1) as f64;
        Json::obj([
            ("scenario", Json::str(scenario)),
            ("topology", Json::str(topology)),
            ("connections", Json::Num(connections as f64)),
            ("requests_per_connection", Json::Num(requests as f64)),
            ("total_requests", Json::Num(total as f64)),
            ("elapsed_s", Json::Num(self.elapsed_s)),
            (
                "throughput_rps",
                Json::Num(total as f64 / self.elapsed_s.max(1e-9)),
            ),
            (
                "latency_us",
                Json::obj([
                    ("p50", Json::Num(self.quantile(0.50))),
                    ("p99", Json::Num(self.quantile(0.99))),
                    ("mean", Json::Num(mean)),
                    (
                        "max",
                        Json::Num(self.latencies_us.last().copied().unwrap_or(0.0)),
                    ),
                ]),
            ),
            (
                "xcache",
                Json::obj([
                    ("ram", Json::Num(self.ram as f64)),
                    ("disk", Json::Num(self.disk as f64)),
                    ("coalesced", Json::Num(self.coalesced as f64)),
                    ("miss", Json::Num(self.miss as f64)),
                ]),
            ),
            ("hit_rate", Json::Num(self.hit_rate())),
            ("shed", Json::Num(self.shed as f64)),
            ("failures", Json::Num(self.failures as f64)),
        ])
    }
}

/// Drives `connections` keep-alive connections x `requests` each against
/// `addr`, multiplexed over a bounded worker pool (so the connection
/// count is not a thread count — the fix for the old thread-per-
/// connection model that capped the loadtest at the thread budget).
/// Every worker owns the connections with its index modulo the worker
/// count and interleaves them round-robin, so all `connections` sockets
/// stay concurrently active from the server's point of view.
///
/// `trigger`: optionally run an action (e.g. SIGKILL a shard) once the
/// given fraction of all requests has completed.
fn loadtest(
    addr: SocketAddr,
    connections: usize,
    requests: usize,
    trigger: Option<(f64, Box<dyn FnOnce() + Send>)>,
) -> LoadOutcome {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let pool = Arc::new(request_pool());
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let workers = connections.min((2 * cpus).max(8)).max(1);
    let total = connections * requests;
    let progress = Arc::new(AtomicUsize::new(0));
    let watcher = trigger.map(|(fraction, action)| {
        let progress = Arc::clone(&progress);
        let at = ((total as f64 * fraction) as usize).clamp(1, total);
        std::thread::spawn(move || {
            while progress.load(Ordering::Relaxed) < at {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            action();
        })
    });

    let start = Instant::now();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let pool = Arc::clone(&pool);
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                let mut clients: Vec<(usize, Client)> = (w..connections)
                    .step_by(workers)
                    .map(|c| (c, Client::connect(addr).expect("loadtest connect")))
                    .collect();
                let mut outcome = LoadOutcome {
                    elapsed_s: 0.0,
                    latencies_us: Vec::with_capacity(clients.len() * requests),
                    failures: 0,
                    shed: 0,
                    ram: 0,
                    disk: 0,
                    coalesced: 0,
                    miss: 0,
                };
                for r in 0..requests {
                    for (c, client) in &mut clients {
                        let body = &pool[(*c + r) % pool.len()];
                        let sent = Instant::now();
                        let response = client.request("POST", "/v1/gate/eval", body);
                        outcome
                            .latencies_us
                            .push(sent.elapsed().as_secs_f64() * 1e6);
                        progress.fetch_add(1, Ordering::Relaxed);
                        match response {
                            Ok(response) => match response.status {
                                200 => match response.header("x-cache") {
                                    Some("ram") => outcome.ram += 1,
                                    Some("disk") => outcome.disk += 1,
                                    Some("coalesced") => outcome.coalesced += 1,
                                    _ => outcome.miss += 1,
                                },
                                429 => outcome.shed += 1,
                                _ => outcome.failures += 1,
                            },
                            Err(_) => {
                                // A dropped socket is a failed request;
                                // reconnect so the rest of this
                                // connection's budget still runs.
                                outcome.failures += 1;
                                if let Ok(fresh) = Client::connect(addr) {
                                    *client = fresh;
                                }
                            }
                        }
                    }
                }
                outcome
            })
        })
        .collect();

    let mut merged = LoadOutcome {
        elapsed_s: 0.0,
        latencies_us: Vec::with_capacity(total),
        failures: 0,
        shed: 0,
        ram: 0,
        disk: 0,
        coalesced: 0,
        miss: 0,
    };
    for handle in handles {
        let outcome = handle.join().expect("loadtest worker panicked");
        merged.latencies_us.extend(outcome.latencies_us);
        merged.failures += outcome.failures;
        merged.shed += outcome.shed;
        merged.ram += outcome.ram;
        merged.disk += outcome.disk;
        merged.coalesced += outcome.coalesced;
        merged.miss += outcome.miss;
    }
    merged.elapsed_s = start.elapsed().as_secs_f64();
    if let Some(watcher) = watcher {
        watcher.join().expect("trigger watcher panicked");
    }
    merged.latencies_us.sort_by(|a, b| a.total_cmp(b));
    merged
}

/// Boots an in-process server and returns its handle plus the runner
/// thread (join after draining).
fn boot_inprocess(
    config: &swserve::ServerConfig,
) -> (swserve::ServerHandle, std::thread::JoinHandle<()>) {
    let server = swserve::Server::bind(config).expect("bind loadtest server");
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("loadtest server run"));
    (handle, runner)
}

/// Gracefully drains an in-process server over its socket.
fn drain_inprocess(addr: SocketAddr, runner: std::thread::JoinHandle<()>) {
    let mut control = Client::connect(addr).expect("drain connect");
    control
        .request("POST", "/v1/admin/shutdown", "")
        .expect("graceful shutdown");
    drop(control);
    runner.join().expect("server thread");
}

/// The sibling `repro` binary (parbench and repro build into the same
/// directory), for the multi-process scenarios.
fn repro_binary() -> std::path::PathBuf {
    let me = std::env::current_exe().expect("current_exe");
    let dir = me.parent().expect("binary directory");
    let repro = dir.join(format!("repro{}", std::env::consts::EXE_SUFFIX));
    assert!(
        repro.exists(),
        "{} not found — build the `repro` binary first (cargo build --workspace)",
        repro.display()
    );
    repro
}

/// Spawns a `repro` service process (`serve` or `route`) on an
/// ephemeral port and waits for its address file.
fn spawn_service(
    scratch: &std::path::Path,
    name: &str,
    args: &[String],
) -> (std::process::Child, SocketAddr) {
    let addr_file = scratch.join(format!("{name}.addr"));
    std::fs::remove_file(&addr_file).ok();
    let mut command = std::process::Command::new(repro_binary());
    command
        .args(args)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--addr-file")
        .arg(&addr_file)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    let mut child = command.spawn().expect("spawn repro service");
    let deadline = Instant::now() + std::time::Duration::from_secs(20);
    loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if !text.trim().is_empty() {
                return (child, resolve(text.trim()));
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("repro {name} exited during startup: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "repro {name} never wrote its address"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Drains a spawned service via its admin endpoint and reaps it.
fn drain_service(addr: SocketAddr, mut child: std::process::Child) {
    if let Ok(mut control) = Client::connect(addr) {
        control.request("POST", "/v1/admin/shutdown", "").ok();
    }
    child.wait().expect("service child reaped");
}

/// Boots the router + 2 shard topology; returns (router, shards).
#[allow(clippy::type_complexity)]
fn boot_router_topology(
    scratch: &std::path::Path,
) -> (
    (std::process::Child, SocketAddr),
    Vec<(std::process::Child, SocketAddr)>,
) {
    let shards: Vec<_> = (0..2)
        .map(|s| {
            spawn_service(
                scratch,
                &format!("shard{s}"),
                &[
                    "serve".to_string(),
                    "--workers".to_string(),
                    "1".to_string(),
                    "--store".to_string(),
                    scratch.join(format!("store{s}")).display().to_string(),
                ],
            )
        })
        .collect();
    let mut args = vec!["route".to_string()];
    for (_, addr) in &shards {
        args.push("--backend".to_string());
        args.push(addr.to_string());
    }
    let router = spawn_service(scratch, "router", &args);
    (router, shards)
}

/// `--serve`: run the loadtest scenario suite (or one external target)
/// and write `BENCH_serve.json`.
fn serve_main(
    external: Option<String>,
    connections: usize,
    requests: usize,
    scenarios: Vec<String>,
    out: String,
) {
    let mut reports = Vec::new();

    if let Some(addr) = external {
        let addr = resolve(&addr);
        println!("loadtest: {connections} connections x {requests} requests against {addr}");
        let outcome = loadtest(addr, connections, requests, None);
        print_outcome("external", &outcome);
        reports.push(outcome.report("external", "user-provided server", connections, requests));
        write_scenarios(&out, connections, requests, reports);
        return;
    }

    let scratch = std::env::temp_dir().join(format!("parbench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    for scenario in &scenarios {
        let report = match scenario.as_str() {
            "hot" => scenario_hot(connections, requests),
            "cold" => scenario_cold(&scratch, connections, requests),
            "restart" => scenario_restart(&scratch, connections, requests),
            "router" => scenario_router(&scratch, connections, requests, false),
            "kill" => scenario_router(&scratch, connections, requests, true),
            other => {
                eprintln!("unknown scenario `{other}` (hot, cold, restart, router, kill)");
                std::process::exit(2);
            }
        };
        reports.push(report);
    }
    std::fs::remove_dir_all(&scratch).ok();
    write_scenarios(&out, connections, requests, reports);
}

fn write_scenarios(out: &str, connections: usize, requests: usize, reports: Vec<Json>) {
    write_report(
        out,
        &Json::obj([
            ("benchmark", Json::str("swserve_loadtest")),
            ("connections", Json::Num(connections as f64)),
            ("requests_per_connection", Json::Num(requests as f64)),
            ("scenarios", Json::Arr(reports)),
        ]),
    );
}

fn print_outcome(scenario: &str, outcome: &LoadOutcome) {
    println!(
        "  {scenario:8} {:6} requests in {:6.2}s = {:7.0} req/s; p50 {:5.0} us p99 {:6.0} us; \
         hit rate {:5.1}% (ram {} disk {} coalesced {} miss {}); {} shed, {} failed",
        outcome.total(),
        outcome.elapsed_s,
        outcome.total() as f64 / outcome.elapsed_s.max(1e-9),
        outcome.quantile(0.50),
        outcome.quantile(0.99),
        outcome.hit_rate() * 100.0,
        outcome.ram,
        outcome.disk,
        outcome.coalesced,
        outcome.miss,
        outcome.shed,
        outcome.failures
    );
}

/// `hot`: one in-process RAM-only server, cache warming over the run —
/// the pre-store steady-state configuration.
fn scenario_hot(connections: usize, requests: usize) -> Json {
    println!("scenario hot: in-process server, RAM cache only");
    let (handle, runner) = boot_inprocess(&swserve::ServerConfig::default());
    let outcome = loadtest(handle.addr(), connections, requests, None);
    drain_inprocess(handle.addr(), runner);
    assert_eq!(outcome.failures, 0, "hot scenario must not drop requests");
    print_outcome("hot", &outcome);
    outcome.report(
        "hot",
        "in-process server, RAM cache only",
        connections,
        requests,
    )
}

/// `cold`: a fresh server with an empty disk store — every first touch
/// of a request is a genuine miss that must write through to disk.
fn scenario_cold(scratch: &std::path::Path, connections: usize, requests: usize) -> Json {
    println!("scenario cold: fresh server, empty RAM cache and empty disk store");
    let dir = scratch.join("cold-store");
    std::fs::remove_dir_all(&dir).ok();
    let config = swserve::ServerConfig {
        store: Some(dir),
        ..swserve::ServerConfig::default()
    };
    let (handle, runner) = boot_inprocess(&config);
    let outcome = loadtest(handle.addr(), connections, requests, None);
    // Store counters sync into the metrics registry during drain.
    drain_inprocess(handle.addr(), runner);
    let store_puts = handle.metrics().render();
    assert_eq!(outcome.failures, 0, "cold scenario must not drop requests");
    print_outcome("cold", &outcome);
    let puts = store_puts
        .get("store")
        .and_then(|s| s.get("puts"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    assert!(
        puts > 0.0,
        "cold scenario must write results through to disk"
    );
    let mut report = outcome
        .report(
            "cold",
            "in-process server, empty disk store",
            connections,
            requests,
        )
        .as_obj()
        .expect("report object")
        .clone();
    report.insert("store_puts".to_string(), Json::Num(puts));
    Json::Obj(report)
}

/// `restart`: seed a disk store through one server, drain it, boot a
/// second server on the same store directory, and loadtest the restart.
/// The first touch of every request must answer from disk (asserted via
/// the store counters), which is the whole point of the store.
fn scenario_restart(scratch: &std::path::Path, connections: usize, requests: usize) -> Json {
    println!("scenario restart: re-open a warmed disk store in a fresh server");
    let dir = scratch.join("restart-store");
    std::fs::remove_dir_all(&dir).ok();
    let config = swserve::ServerConfig {
        store: Some(dir),
        ..swserve::ServerConfig::default()
    };

    // Seeding pass: one client walks the whole request pool once.
    let (handle, runner) = boot_inprocess(&config);
    let mut seeder = Client::connect(handle.addr()).expect("seed connect");
    for body in request_pool() {
        let response = seeder
            .request("POST", "/v1/gate/eval", &body)
            .expect("seed request");
        assert_eq!(response.status, 200, "seeding must succeed");
    }
    drop(seeder);
    drain_inprocess(handle.addr(), runner);

    // The restart: a brand-new server (empty RAM cache) on the same
    // store directory.
    let (handle, runner) = boot_inprocess(&config);
    let outcome = loadtest(handle.addr(), connections, requests, None);
    // Store counters sync into the metrics registry during drain.
    drain_inprocess(handle.addr(), runner);
    let metrics = handle.metrics().render();
    assert_eq!(
        outcome.failures, 0,
        "restart scenario must not drop requests"
    );
    assert!(
        outcome.disk > 0,
        "a restarted server must answer previously-seen requests from disk"
    );
    assert_eq!(
        outcome.miss, 0,
        "every request was seeded, so the restart must never re-evaluate"
    );
    print_outcome("restart", &outcome);
    let disk_hits = metrics
        .get("store")
        .and_then(|s| s.get("hits"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let mut report = outcome
        .report(
            "restart",
            "fresh server process re-opening a warmed disk store",
            connections,
            requests,
        )
        .as_obj()
        .expect("report object")
        .clone();
    report.insert("store_hits_after_restart".to_string(), Json::Num(disk_hits));
    Json::Obj(report)
}

/// `router` / `kill`: `repro route` in front of 2 `repro serve` shard
/// processes. With `kill_one`, one shard is SIGKILLed a third of the
/// way through the run and the loadtest must still finish with zero
/// failed requests (the acceptance criterion for shard failover).
fn scenario_router(
    scratch: &std::path::Path,
    connections: usize,
    requests: usize,
    kill_one: bool,
) -> Json {
    let name = if kill_one { "kill" } else { "router" };
    println!(
        "scenario {name}: router + 2 shard processes{}",
        if kill_one {
            ", SIGKILL one shard mid-run"
        } else {
            ""
        }
    );
    let ((router_child, router_addr), shards) = boot_router_topology(scratch);

    let mut shards: Vec<Option<(std::process::Child, SocketAddr)>> =
        shards.into_iter().map(Some).collect();
    let victim = if kill_one {
        shards[1]
            .take()
            .map(|(child, addr)| (Arc::new(std::sync::Mutex::new(child)), addr))
    } else {
        None
    };
    let trigger = victim.as_ref().map(|(child, _)| {
        let child = Arc::clone(child);
        (
            1.0 / 3.0,
            Box::new(move || {
                child
                    .lock()
                    .expect("victim shard handle")
                    .kill()
                    .expect("SIGKILL shard");
            }) as Box<dyn FnOnce() + Send>,
        )
    });

    let outcome = loadtest(router_addr, connections, requests, trigger);

    // Router-side counters before teardown.
    let mut control = Client::connect(router_addr).expect("router metrics connect");
    let metrics = control
        .request("GET", "/metrics", "")
        .ok()
        .and_then(|r| Json::parse(&r.body).ok())
        .unwrap_or(Json::Null);
    drop(control);

    if let Some((child, _)) = victim {
        let mut child = Arc::try_unwrap(child)
            .unwrap_or_else(|_| panic!("victim still shared"))
            .into_inner()
            .expect("victim shard handle");
        child.wait().expect("killed shard reaped");
    }
    drain_service(router_addr, router_child);
    for shard in shards.into_iter().flatten() {
        let (child, addr) = shard;
        drain_service(addr, child);
    }

    assert_eq!(
        outcome.failures, 0,
        "the router must keep serving 200s through a shard death"
    );
    print_outcome(name, &outcome);
    let counter = |field: &str| metrics.get(field).and_then(Json::as_f64).unwrap_or(0.0);
    let mut report = outcome
        .report(
            name,
            if kill_one {
                "router + 2 shard processes, one SIGKILLed at 1/3 progress"
            } else {
                "router + 2 shard processes"
            },
            connections,
            requests,
        )
        .as_obj()
        .expect("report object")
        .clone();
    report.insert("shard_killed".to_string(), Json::Bool(kill_one));
    report.insert(
        "router_failovers".to_string(),
        Json::Num(counter("failovers")),
    );
    report.insert(
        "router_ejections".to_string(),
        Json::Num(counter("ejections")),
    );
    Json::Obj(report)
}

/// `--probe`: smoke-test a running server; exits non-zero on failure.
fn probe_main(addr: &str, expect_cached: bool, shutdown: bool) {
    let addr = resolve(addr);
    let mut client = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("probe: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let mut step = |what: &str, method: &str, path: &str, body: &str| -> bench::httpc::Response {
        match client.request(method, path, body) {
            Ok(response) if response.status == 200 => response,
            Ok(response) => {
                eprintln!(
                    "probe: {what} answered {}: {}",
                    response.status, response.body
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("probe: {what} failed: {e}");
                std::process::exit(1);
            }
        }
    };

    let health = step("GET /healthz", "GET", "/healthz", "");
    if !health.body.contains(r#""status":"ok""#) {
        eprintln!("probe: unexpected health body: {}", health.body);
        std::process::exit(1);
    }

    let raw = r#"{"gate":"maj3","inputs":[0,1,1]}"#;
    let eval = step("POST /v1/gate/eval", "POST", "/v1/gate/eval", raw);
    // When probing through a router, say who answered so scripts can
    // target that shard (e.g. to SIGKILL it and re-probe failover).
    if let Some(shard) = eval.header("x-shard") {
        println!("eval served by shard {shard}");
    }
    let local =
        swserve::respond(&Json::parse(raw).expect("probe request")).expect("local evaluation");
    if eval.body != local {
        eprintln!(
            "probe: HTTP response differs from the local evaluator\n  http:  {}\n  local: {local}",
            eval.body
        );
        std::process::exit(1);
    }

    if expect_cached {
        // Repeat the eval: the answer must now come from a cache level
        // (RAM, disk, or a coalesced in-flight leader), byte-identical.
        let again = step("POST /v1/gate/eval (repeat)", "POST", "/v1/gate/eval", raw);
        match again.header("x-cache") {
            Some("ram" | "disk" | "coalesced") => {}
            other => {
                eprintln!(
                    "probe: repeated eval was not served from cache (x-cache: {})",
                    other.unwrap_or("<missing>")
                );
                std::process::exit(1);
            }
        }
        if again.body != eval.body {
            eprintln!(
                "probe: cached response differs from the first\n  first:  {}\n  cached: {}",
                eval.body, again.body
            );
            std::process::exit(1);
        }
    }

    let metrics = step("GET /metrics", "GET", "/metrics", "");
    if Json::parse(&metrics.body).is_err() {
        eprintln!("probe: /metrics is not valid JSON");
        std::process::exit(1);
    }

    if shutdown {
        step("POST /v1/admin/shutdown", "POST", "/v1/admin/shutdown", "");
    }
    println!(
        "probe ok: healthz, gate eval (byte-identical to local){}, metrics{}",
        if expect_cached {
            ", cached repeat (byte-identical)"
        } else {
            ""
        },
        if shutdown { ", shutdown" } else { "" }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    if let Some(position) = args.iter().position(|a| a == "--probe") {
        let addr = args.get(position + 1).cloned().unwrap_or_else(|| {
            eprintln!("--probe needs an address (HOST:PORT)");
            std::process::exit(2);
        });
        probe_main(
            &addr,
            args.iter().any(|a| a == "--expect-cached"),
            args.iter().any(|a| a == "--shutdown"),
        );
        return;
    }

    if args.iter().any(|a| a == "--serve") {
        let connections: usize = value_of("--connections")
            .map(|v| v.parse().expect("--connections needs an integer"))
            .unwrap_or(64);
        let requests: usize = value_of("--requests")
            .map(|v| v.parse().expect("--requests needs an integer"))
            .unwrap_or(32);
        let scenarios: Vec<String> = value_of("--scenarios")
            .unwrap_or_else(|| "hot,cold,restart,router,kill".to_string())
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let out = value_of("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
        serve_main(value_of("--addr"), connections, requests, scenarios, out);
        return;
    }

    if args.iter().any(|a| a == "--netlist") {
        let patterns: usize = value_of("--patterns")
            .map(|v| v.parse().expect("--patterns needs an integer"))
            .unwrap_or(1 << 16);
        let out = value_of("--out").unwrap_or_else(|| "BENCH_netlist.json".to_string());
        netlist_main(patterns, out);
        return;
    }
    let parse_list = |v: String, flag: &str| -> Vec<usize> {
        v.split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("{flag} needs integers"))
            })
            .collect()
    };
    let threads: Vec<usize> = value_of("--threads")
        .map(|v| parse_list(v, "--threads"))
        .unwrap_or_else(|| vec![1, 2, 4]);

    if args.iter().any(|a| a == "--batch") {
        let ks: Vec<usize> = value_of("--ks")
            .map(|v| parse_list(v, "--ks"))
            .unwrap_or_else(|| vec![1, 4, 8]);
        let steps: usize = value_of("--steps")
            .map(|v| v.parse().expect("--steps needs an integer"))
            .unwrap_or(2000);
        let out = value_of("--out").unwrap_or_else(|| "BENCH_batch.json".to_string());
        batch_main(ks, steps, out);
        return;
    }

    if args.iter().any(|a| a == "--bigfft") {
        let grids: Vec<(usize, usize)> = value_of("--grids")
            .unwrap_or_else(|| "256x256,320x320,477x171,640x320,960x384,1500x700".to_string())
            .split(',')
            .map(|s| {
                let (w, h) = s
                    .trim()
                    .split_once('x')
                    .unwrap_or_else(|| panic!("--grids needs WxH entries, got {s:?}"));
                (
                    w.parse().expect("--grids needs integers"),
                    h.parse().expect("--grids needs integers"),
                )
            })
            .collect();
        let evals: usize = value_of("--evals")
            .map(|v| v.parse().expect("--evals needs an integer"))
            .unwrap_or(0);
        let min_cells: Option<usize> =
            value_of("--min-cells").map(|v| v.parse().expect("--min-cells needs an integer"));
        let out = value_of("--out").unwrap_or_else(|| "BENCH_fft.json".to_string());
        // The serial run is the bitwise baseline, so make
        // sure 1 is in the sweep and leads it.
        let mut threads = threads;
        threads.retain(|&t| t != 1);
        threads.insert(0, 1);
        bigfft_main(grids, threads, evals, min_cells, out);
        return;
    }

    if args.iter().any(|a| a == "--rhs") {
        let grids: Vec<usize> = value_of("--grids")
            .map(|v| parse_list(v, "--grids"))
            .unwrap_or_else(|| vec![64, 128, 256]);
        let steps: usize = value_of("--steps")
            .map(|v| v.parse().expect("--steps needs an integer"))
            .unwrap_or(0);
        let out = value_of("--out").unwrap_or_else(|| "BENCH_rhs.json".to_string());
        // The serial run is the bitwise baseline, so make
        // sure 1 is in the sweep and leads it.
        let mut threads = threads;
        threads.retain(|&t| t != 1);
        threads.insert(0, 1);
        rhs_main(grids, threads, steps, out);
        return;
    }

    let size: usize = value_of("--size")
        .map(|v| v.parse().expect("--size needs an integer"))
        .unwrap_or(256);
    let steps: usize = value_of("--steps")
        .map(|v| v.parse().expect("--steps needs an integer"))
        .unwrap_or(50);

    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!(
        "mesh {size}x{size}, {steps} RK4 steps (exchange + anisotropy + local demag + antenna), \
         {cpus} hardware thread(s)"
    );
    // Warm-up run so page faults and lazy allocation don't skew t(1).
    run(size, steps.min(5), 1);
    let (t_serial, m_serial) = run(size, steps, 1);
    println!("threads  1: {:8.3} s  (baseline)", t_serial);
    for &n in threads.iter().filter(|&&n| n != 1) {
        let (t, m) = run(size, steps, n);
        let identical = m == m_serial;
        // No speedup is reported for more threads than the machine has.
        let speedup = if n <= cpus {
            format!("{:.2}x", t_serial / t)
        } else {
            "n/a (threads > cpus)".into()
        };
        println!(
            "threads {n:2}: {t:8.3} s  speedup {speedup}  bitwise-identical: {}",
            if identical { "yes" } else { "NO" },
        );
        assert!(
            identical,
            "parallel run diverged from serial at {n} threads"
        );
    }
}
