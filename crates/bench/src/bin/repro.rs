//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage: `repro <experiment> [--fast] [--mumag] [--jobs N] [--threads N]
//!         [--manifest PATH] [--fresh] [--quiet]`
//!
//! Micromagnetic experiments (`fig5`, `thermal`, `variability`, and
//! `table1`/`table2` with `--mumag`) run through the [`swrun`] batch
//! engine:
//!
//! * `--jobs N` runs N LLG simulations in parallel (default 1, i.e.
//!   serial — identical behaviour and results to the pre-batch runner).
//! * `--threads N` gives each simulation N worker threads (0 = one per
//!   core). The default splits the machine's cores across the batch
//!   jobs (`swrun::thread_budget`), so `--jobs 4` on a 16-core box runs
//!   each simulation on 4 threads. Results are bitwise independent of
//!   the thread count.
//! * Every batch writes a JSON-lines manifest (default
//!   `target/swrun/<experiment>.manifest.jsonl`, override with
//!   `--manifest PATH`) recording each job's inputs, outputs and wall
//!   time. Re-running the same experiment **resumes**: jobs already in
//!   the manifest are skipped. `--fresh` truncates the manifest and
//!   reruns everything.
//! * `--quiet` suppresses the per-job progress lines.
//!
//! Experiments:
//! * `table1` — Table I: FO2 MAJ3 normalized output magnetization
//!   (analytic by default; `--mumag` runs the full LLG validation,
//!   `--fast` shrinks the gate for a quick run).
//! * `table2` — Table II: FO2 XOR normalized output magnetization.
//! * `table3` — Table III: energy/delay comparison.
//! * `ratios` — the §IV-D ratio analysis.
//! * `fig1` — Fig. 1: spin-wave parameter waveforms.
//! * `fig2` — Fig. 2: constructive/destructive interference.
//! * `fig3` / `fig4` — Fig. 3/4: gate geometry masks.
//! * `fig5` — Fig. 5: micromagnetic m_x field maps for all 8 MAJ3
//!   patterns (`--fast` uses the scaled-down gate; default is the
//!   full-size paper gate and takes tens of minutes).
//! * `thermal` — §IV-D: gate operation at finite temperature.
//! * `variability` — §IV-D: gate operation with lithographic edge
//!   roughness.
//! * `ablation` — effect of the backend's numerical-fidelity features
//!   (lattice compensation, drive trimming).
//! * `all` — every analytic experiment (tables 1-3, ratios, figs 1-4).
//!
//! Service commands (see the `swserve` crate):
//! * `eval [REQUEST_JSON]` — evaluate one gate/circuit request locally
//!   and print the canonical JSON response (reads stdin when no request
//!   argument is given). The bytes are identical to what `POST
//!   /v1/gate/eval` returns for the same request.
//! * `compile [REQUEST_JSON] [--demo NAME]` — compile a netlist request
//!   (a `demo` name, swnet netlist text under `source`, structural
//!   JSON under `netlist`, or truth tables under `table`) into a
//!   legalized, splitter/repeater-sized, CMOS-scored circuit.
//!   `--demo full_adder|rca4|rca8|rca16|mul2|mul4` is shorthand for
//!   `{"demo":"..."}`. The bytes are identical to what `POST
//!   /v1/netlist/eval` returns for the same request.
//! * `serve [--addr A] [--workers N] [--queue-depth N]
//!   [--cache-capacity N] [--manifest PATH] [--addr-file PATH]
//!   [--store DIR] [--store-capacity-mb N] [--prewarm PATH]` — run
//!   the HTTP gate-evaluation service until `POST /v1/admin/shutdown`.
//!   `--addr 127.0.0.1:0` binds an ephemeral port; `--addr-file` writes
//!   the resolved address for scripts to pick up. `--store DIR` adds
//!   the disk cache level (results survive restarts; `X-Cache:
//!   ram|disk|miss` says which level answered), and `--prewarm PATH`
//!   replays a swrun JSONL manifest into the store at boot.
//! * `route --backend HOST:PORT [--backend ...] [--addr A]
//!   [--vnodes N] [--pool N] [--addr-file PATH]` — the consistent-hash
//!   shard router (see the `swrouter` crate): request keys hash onto
//!   the shard ring, dead shards are ejected and retried on the next
//!   ring node, recovered shards are re-admitted by health probes.
//! * `warm --store DIR MANIFEST [MANIFEST ...]` — replay swrun JSONL
//!   manifests into a disk store offline (same mapping the server's
//!   `--prewarm` uses), so a shard can boot with a hot disk cache.

use std::f64::consts::PI;

use magnum::geometry::rasterize;
use magnum::mesh::Mesh;
use swgates::encoding::Bit;
use swgates::prelude::*;
use swperf::compare::Comparison;
use swrun::batch::RunOptions;
use swrun::gates::{patterns, xor_sweep, SweepPoint};
use swrun::RunError;

/// Batch-runner settings shared by the micromagnetic experiments.
struct BatchArgs {
    jobs: usize,
    /// Worker threads per simulation (0 = auto-detect in magnum).
    threads: usize,
    manifest: Option<String>,
    fresh: bool,
    quiet: bool,
}

impl BatchArgs {
    /// The [`RunOptions`] for one experiment: `--manifest` wins,
    /// otherwise `target/swrun/<experiment>.manifest.jsonl`.
    fn options(&self, experiment: &str) -> RunOptions {
        let path = self.manifest.clone().unwrap_or_else(|| {
            std::path::Path::new("target/swrun")
                .join(format!("{experiment}.manifest.jsonl"))
                .to_string_lossy()
                .into_owned()
        });
        // Create the manifest's directory up front so a fresh checkout
        // (or a user-chosen path) doesn't burn the calibration runs
        // only to fail at the first checkpoint write.
        if let Some(dir) = std::path::Path::new(&path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).ok();
            }
        }
        let mut options = RunOptions::default()
            .with_jobs(self.jobs)
            .with_manifest(path);
        if self.fresh {
            options = options.fresh();
        }
        if self.quiet {
            options = options.quiet();
        }
        options
    }
}

/// Batch-level failures (manifest I/O, calibration) folded into the
/// experiment error type.
fn batch_err(e: RunError) -> SwGateError {
    SwGateError::Simulation {
        reason: e.to_string(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let mumag = args.iter().any(|a| a == "--mumag");
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let jobs = match value_of("--jobs").map(|v| v.parse::<usize>()) {
        None if !args.iter().any(|a| a == "--jobs") => 1,
        Some(Ok(n)) if n >= 1 => n,
        _ => {
            eprintln!("--jobs needs a positive integer");
            std::process::exit(2);
        }
    };
    let threads = match value_of("--threads").map(|v| v.parse::<usize>()) {
        None if !args.iter().any(|a| a == "--threads") => swrun::thread_budget(jobs),
        Some(Ok(n)) => n,
        _ => {
            eprintln!("--threads needs a non-negative integer (0 = auto)");
            std::process::exit(2);
        }
    };
    let manifest = value_of("--manifest");
    if manifest.is_none() && args.iter().any(|a| a == "--manifest") {
        eprintln!("--manifest needs a path");
        std::process::exit(2);
    }
    let batch = BatchArgs {
        jobs,
        threads,
        manifest,
        fresh: args.iter().any(|a| a == "--fresh"),
        quiet: args.iter().any(|a| a == "--quiet"),
    };
    // Skip flag values ("--jobs 4") when looking for the command word.
    let command = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            !a.starts_with("--")
                && (*i == 0
                    || !matches!(
                        args[i - 1].as_str(),
                        "--jobs"
                            | "--threads"
                            | "--manifest"
                            | "--addr"
                            | "--workers"
                            | "--queue-depth"
                            | "--cache-capacity"
                            | "--addr-file"
                            | "--demo"
                            | "--backend"
                            | "--vnodes"
                            | "--pool"
                            | "--store"
                            | "--store-capacity-mb"
                            | "--prewarm"
                    ))
        })
        .map(|(_, a)| a.as_str())
        .unwrap_or("all");

    let result = match command {
        "table1" => table1(fast, mumag, &batch),
        "table2" => table2(fast, mumag, &batch),
        "table3" => {
            table3();
            Ok(())
        }
        "ratios" => {
            ratios();
            Ok(())
        }
        "fig1" => {
            fig1();
            Ok(())
        }
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig5" => fig5(fast, &batch),
        "thermal" => thermal(&batch),
        "variability" => variability(&batch),
        "ablation" => ablation(),
        "eval" => eval_command(&args),
        "compile" => compile_command(&args),
        "serve" => serve(&args),
        "route" => route(&args),
        "warm" => warm(&args),
        "all" => all(),
        other => {
            eprintln!("unknown experiment `{other}`; see the module docs for the list");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("experiment failed: {e}");
        std::process::exit(1);
    }
}

fn all() -> Result<(), SwGateError> {
    let serial = BatchArgs {
        jobs: 1,
        threads: 1,
        manifest: None,
        fresh: false,
        quiet: true,
    };
    table1(false, false, &serial)?;
    println!();
    table2(false, false, &serial)?;
    println!();
    table3();
    println!();
    ratios();
    println!();
    fig1();
    println!();
    fig2()?;
    println!();
    fig3()?;
    println!();
    fig4()
}

fn maj3_layout(fast: bool) -> TriangleMaj3Layout {
    if fast {
        TriangleMaj3Layout::fast()
    } else {
        TriangleMaj3Layout::paper()
    }
}

fn xor_layout(fast: bool) -> TriangleXorLayout {
    if fast {
        TriangleXorLayout::fast()
    } else {
        TriangleXorLayout::paper()
    }
}

/// Table I — FO2 MAJ3 normalized output magnetization.
fn table1(fast: bool, mumag: bool, batch: &BatchArgs) -> Result<(), SwGateError> {
    println!("=== Table I — fan-in of 3 fan-out of 2 Majority gate ===");
    println!("paper reference values (O1 ≈ O2): 000/111 -> 1.0; I1-minority -> 0.083,");
    println!("I2-minority -> 0.16, I3-minority -> 0.164\n");
    let layout = maj3_layout(fast && mumag);
    let gate = Maj3Gate::new(layout);
    let table = if mumag {
        let backend = MumagBackend::fast().with_threads(batch.threads);
        eprintln!("running 3 calibration + 8 pattern LLG simulations ...");
        let report = patterns(&backend, &layout, &batch.options("table1")).map_err(batch_err)?;
        if let Some(error) = report.first_error() {
            eprintln!("warning: a pattern failed: {error}");
        }
        gate.truth_table(&report.memo())?
    } else {
        gate.truth_table(&AnalyticBackend::paper())?
    };
    println!(
        "{}",
        table.render(if mumag {
            "measured (micromagnetic backend)"
        } else {
            "measured (analytic backend)"
        })
    );
    table.verify(|p| Bit::majority(p[0], p[1], p[2]))?;
    println!(
        "majority decoded correctly on all patterns at both outputs;\n\
         max O1/O2 amplitude mismatch = {:.3} (paper: outputs identical)",
        table.max_fanout_mismatch()
    );
    Ok(())
}

/// Table II — FO2 XOR normalized output magnetization.
fn table2(fast: bool, mumag: bool, batch: &BatchArgs) -> Result<(), SwGateError> {
    println!("=== Table II — fan-in of 2 fan-out of 2 XOR gate ===");
    println!("paper reference values: 00 -> 0.99/1, 01/10 -> ≈0, 11 -> 1\n");
    let layout = xor_layout(fast && mumag);
    let gate = XorGate::new(layout);
    let table = if mumag {
        let backend = MumagBackend::fast().with_threads(batch.threads);
        eprintln!("running 2 calibration + 4 pattern LLG simulations ...");
        let report = patterns(&backend, &layout, &batch.options("table2")).map_err(batch_err)?;
        if let Some(error) = report.first_error() {
            eprintln!("warning: a pattern failed: {error}");
        }
        gate.truth_table(&report.memo())?
    } else {
        gate.truth_table(&AnalyticBackend::paper())?
    };
    println!(
        "{}",
        table.render(if mumag {
            "measured (micromagnetic backend)"
        } else {
            "measured (analytic backend)"
        })
    );
    table.verify(|p| Bit::xor(p[0], p[1]))?;
    println!("XOR decoded correctly with threshold 0.5 at both outputs");
    Ok(())
}

/// Table III — performance comparison.
fn table3() {
    println!("=== Table III — performance comparison ===\n");
    print!("{}", Comparison::paper().render());
    println!(
        "\npaper reference row (this work): MAJ 5 cells / 0.4 ns / 10.3 aJ, \
         XOR 4 cells / 0.4 ns / 6.9 aJ"
    );
}

/// §IV-D ratio analysis.
fn ratios() {
    println!("=== §IV-D ratio analysis ===\n");
    print!("{}", Comparison::paper().ratios().render());
    println!(
        "\nnote: the paper's prose claims 11x MAJ energy reduction vs 16 nm CMOS while its \
         Table III numbers give 466/10.3 ≈ 45x; we reproduce the table."
    );
}

/// Fig. 1 — spin-wave parameters (φ = 0, k = 1 vs φ = π, k = 3).
fn fig1() {
    println!("=== Fig. 1 — spin wave parameters ===\n");
    let width = 64;
    let render = |phase: f64, k: u32| {
        let rows = 9;
        let mut grid = vec![vec![' '; width]; rows];
        let ys = (0..width).map(|x| {
            let theta = 2.0 * PI * k as f64 * x as f64 / width as f64 + phase;
            ((theta.sin() + 1.0) / 2.0 * (rows - 1) as f64).round() as usize
        });
        for (x, y) in ys.enumerate() {
            grid[rows - 1 - y][x] = '*';
        }
        for row in grid {
            println!("{}", row.into_iter().collect::<String>());
        }
    };
    println!("a) φ = 0, k = 1:");
    render(0.0, 1);
    println!("\nb) φ = π, k = 3:");
    render(PI, 3);
}

/// Fig. 2 — constructive and destructive interference.
fn fig2() -> Result<(), SwGateError> {
    println!("=== Fig. 2 — constructive / destructive interference ===\n");
    let backend = AnalyticBackend::ideal();
    let layout = xor_layout(false);
    let (same, _) = backend.xor_outputs(&layout, [Bit::Zero, Bit::Zero]);
    let (opposite, _) = backend.xor_outputs(&layout, [Bit::Zero, Bit::One]);
    println!(
        "wave 1 + wave 2, same phase:      |A| = {:.3} (constructive)",
        same.abs()
    );
    println!(
        "wave 1 + wave 2, opposite phase:  |A| = {:.3} (destructive)",
        opposite.abs()
    );
    let samples = 48;
    println!("\nsuperposed waveforms over one period:");
    for (label, w2_phase) in [("constructive", 0.0), ("destructive", PI)] {
        let mut line = String::new();
        for i in 0..samples {
            let t = 2.0 * PI * i as f64 / samples as f64;
            let sum = t.sin() + (t + w2_phase).sin();
            line.push(match sum {
                s if s > 1.0 => '#',
                s if s > 0.3 => '+',
                s if s > -0.3 => '-',
                s if s > -1.0 => '+',
                _ => '#',
            });
        }
        println!("  {label:<13} {line}");
    }
    Ok(())
}

/// Renders a layout's rasterized mask (Fig. 3/4 geometry).
fn render_geometry(kind: &str) -> Result<(), SwGateError> {
    let backend = MumagBackend::new(swphys::film::PerpendicularFilm::fecob(1e-9), 55e-9 / 2.0);
    let cell = backend.cell();
    let (shape, bounds) = match kind {
        "maj3" => backend.geometry(&TriangleMaj3Layout::paper())?,
        _ => backend.geometry(&TriangleXorLayout::paper())?,
    };
    let (x0, y0, x1, y1) = bounds;
    let nx = ((x1 - x0) / cell).ceil() as usize + 1;
    let ny = ((y1 - y0) / cell).ceil() as usize + 1;
    let mut mesh = Mesh::new(nx, ny, [cell, cell, 1e-9]).map_err(SwGateError::from)?;
    struct Shifted {
        inner: Box<dyn magnum::geometry::Shape>,
        dx: f64,
        dy: f64,
    }
    impl magnum::geometry::Shape for Shifted {
        fn contains(&self, x: f64, y: f64) -> bool {
            self.inner.contains(x - self.dx, y - self.dy)
        }
    }
    let shifted = Shifted {
        inner: shape,
        dx: -x0,
        dy: -y0,
    };
    rasterize(&mut mesh, &shifted);
    println!("{}", mesh.mask_ascii());
    Ok(())
}

/// Fig. 3 — the MAJ3 gate geometry.
fn fig3() -> Result<(), SwGateError> {
    println!("=== Fig. 3 — fan-out of 2 MAJ3 gate geometry (rasterized) ===");
    let l = TriangleMaj3Layout::paper();
    println!(
        "λ = {:.0} nm, w = {:.0} nm, d1 = {:.0} nm, d2 = {:.0} nm, d3 = {:.0} nm, d4 = {:.0} nm\n",
        l.wavelength() * 1e9,
        l.width() * 1e9,
        l.d1() * 1e9,
        l.d2() * 1e9,
        l.d3() * 1e9,
        l.d4() * 1e9
    );
    render_geometry("maj3")
}

/// Fig. 4 — the XOR gate geometry.
fn fig4() -> Result<(), SwGateError> {
    println!("=== Fig. 4 — fan-out of 2 XOR gate geometry (rasterized) ===");
    let l = TriangleXorLayout::paper();
    println!(
        "λ = {:.0} nm, w = {:.0} nm, d1 = {:.0} nm, d2 = {:.0} nm\n",
        l.wavelength() * 1e9,
        l.width() * 1e9,
        l.d1() * 1e9,
        l.d2() * 1e9
    );
    render_geometry("xor")
}

/// Fig. 5 — micromagnetic field maps for all 8 MAJ3 input patterns.
fn fig5(fast: bool, batch: &BatchArgs) -> Result<(), SwGateError> {
    println!("=== Fig. 5 — MAJ3 micromagnetic simulations (m_x maps) ===\n");
    let backend = MumagBackend::fast().with_threads(batch.threads);
    let layout = maj3_layout(fast);
    if !fast {
        eprintln!("full-size gate: this runs 3 + 8 LLG simulations and may take a while;");
        eprintln!("pass --fast for the scaled-down gate.");
    }
    let report = patterns(&backend, &layout, &batch.options("fig5")).map_err(batch_err)?;
    for (i, outcome) in report.patterns.iter().enumerate() {
        let pattern = outcome.pattern;
        let (o1, o2) = outcome
            .phasors
            .map(|(a, b)| (a.abs(), b.abs()))
            .unwrap_or((f64::NAN, f64::NAN));
        println!(
            "{}) inputs (I1, I2, I3) = ({}, {}, {}); |O1| = {:.3e}, |O2| = {:.3e}",
            (b'a' + i as u8) as char,
            pattern[0],
            pattern[1],
            pattern[2],
            o1,
            o2,
        );
        if let Some(error) = &outcome.error {
            println!("   FAILED: {error}\n");
        } else if let Some(run) = &outcome.run {
            let snap = &run.snapshot;
            let scale = snap.max().max(-snap.min());
            println!("{}", snap.to_ascii(scale));
        } else {
            println!(
                "   (resumed from manifest — field map not recorded; rerun with --fresh \
                 to regenerate it)\n"
            );
        }
    }
    Ok(())
}

/// §IV-D — thermal-noise robustness (micromagnetic, scaled-down XOR).
fn thermal(batch: &BatchArgs) -> Result<(), SwGateError> {
    println!("=== §IV-D — gate operation at finite temperature ===\n");
    let layout = xor_layout(true);
    let gate = XorGate::new(layout);
    let temperatures = [0.0, 100.0, 300.0];
    let points: Vec<SweepPoint> = temperatures
        .iter()
        .map(|&temperature| {
            // T > 0 needs a stronger drive and longer averaging: the
            // thermal-magnon background of a 1 nm film rivals a weakly
            // driven signal (see EXPERIMENTS.md, experiment X2), and with
            // per-cell fluctuation–dissipation the film sits at a genuine
            // thermal magnon equilibrium (absorbing frames radiate too).
            let backend = if temperature > 0.0 {
                MumagBackend::fast()
                    .with_temperature(temperature, 42)
                    .with_drive_amplitude(80e3)
                    .with_measure_periods(32)
            } else {
                MumagBackend::fast()
            };
            SweepPoint::new(
                format!("T{temperature:.0}K"),
                backend.with_threads(batch.threads),
            )
        })
        .collect();
    let sweep = xor_sweep(&points, &layout, &batch.options("thermal")).map_err(batch_err)?;
    for (temperature, point) in temperatures.iter().zip(&sweep.points) {
        if let Some(error) = point.patterns.iter().find_map(|p| p.error.as_deref()) {
            println!("T = {temperature:>5.0} K: FAILED — {error}");
            continue;
        }
        let table = gate.truth_table(&point.memo())?;
        let ok = table.verify(|p| Bit::xor(p[0], p[1])).is_ok();
        println!(
            "T = {temperature:>5.0} K: XOR truth table {} (min strong {:.2}, max weak {:.2})",
            if ok { "correct" } else { "CORRUPTED" },
            table.min_normalized_where(|r| r.inputs[0] == r.inputs[1]),
            table.max_normalized_where(|r| r.inputs[0] != r.inputs[1]),
        );
    }
    println!("\n(the paper cites [36], [43]: thermal noise has limited impact — same finding)");
    Ok(())
}

/// §IV-D — variability: edge roughness on the gate geometry.
fn variability(batch: &BatchArgs) -> Result<(), SwGateError> {
    println!("=== §IV-D — gate operation with edge roughness ===\n");
    let layout = xor_layout(true);
    let gate = XorGate::new(layout);
    let roughnesses = [0.0, 1.0, 2.0, 3.0];
    let points: Vec<SweepPoint> = roughnesses
        .iter()
        .map(|&roughness_nm| {
            let backend = if roughness_nm > 0.0 {
                MumagBackend::fast().with_edge_roughness(roughness_nm * 1e-9, 20e-9, 7)
            } else {
                MumagBackend::fast()
            };
            SweepPoint::new(
                format!("rough{roughness_nm:.0}nm"),
                backend.with_threads(batch.threads),
            )
        })
        .collect();
    let sweep = xor_sweep(&points, &layout, &batch.options("variability")).map_err(batch_err)?;
    for (roughness_nm, point) in roughnesses.iter().zip(&sweep.points) {
        if let Some(error) = point.patterns.iter().find_map(|p| p.error.as_deref()) {
            println!("edge roughness ±{roughness_nm:.0} nm: FAILED — {error}");
            continue;
        }
        let table = gate.truth_table(&point.memo())?;
        let ok = table.verify(|p| Bit::xor(p[0], p[1])).is_ok();
        println!(
            "edge roughness ±{roughness_nm:.0} nm: XOR truth table {} \
             (strong ≥ {:.2}, weak ≤ {:.2}, fan-out mismatch {:.2})",
            if ok { "correct" } else { "CORRUPTED" },
            table.min_normalized_where(|r| r.inputs[0] == r.inputs[1]),
            table.max_normalized_where(|r| r.inputs[0] != r.inputs[1]),
            table.max_fanout_mismatch(),
        );
    }
    println!("\n(matches [36]/[43]: moderate roughness does not disturb gate functionality)");
    Ok(())
}

/// Ablation: what the numerical-fidelity machinery buys. The XOR's two
/// paths are mirror-symmetric, so trims barely matter there; the proof
/// point is the MAJ3's I3-minority pattern (110), where the two-junction
/// trunk path and the one-junction I3 path meet with uncorrected
/// scattering phases and losses.
fn ablation() -> Result<(), SwGateError> {
    println!("=== ablation — drive trimming / lattice compensation on MAJ3(1,1,0) ===\n");
    let layout = maj3_layout(true);
    let configs: [(&str, MumagBackend); 3] = [
        ("full (trims + compensation)", MumagBackend::fast()),
        (
            "no lattice compensation",
            MumagBackend::fast().without_compensation(),
        ),
        (
            "no drive trimming",
            MumagBackend::fast().without_phase_trim(),
        ),
    ];
    for (name, backend) in configs {
        let (r, _) = backend.outputs(&layout, [Bit::Zero; 3])?;
        // I3-minority: I1 = I2 = 1 outvote I3 = 0; the output must carry
        // phase π (logic 1) with a suppressed amplitude.
        let (o, _) = backend.outputs(&layout, [Bit::One, Bit::One, Bit::Zero])?;
        let relphase = (o * r.conj()).arg();
        let decoded = if relphase.abs() > std::f64::consts::FRAC_PI_2 {
            1
        } else {
            0
        };
        println!(
            "{name:<30} norm {:.3}, rel. phase {:+.2} rad -> decodes {} ({})",
            o.abs() / r.abs(),
            relphase,
            decoded,
            if decoded == 1 {
                "correct"
            } else {
                "WRONG — majority violated"
            },
        );
    }
    println!("\n(the drive calibration is what keeps the tie-break semantics of the majority)");
    Ok(())
}

/// Positional (non-flag, non-flag-value) arguments, in order.
fn positionals(args: &[String]) -> Vec<&str> {
    args.iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && (*i == 0
                    || !matches!(
                        args[i - 1].as_str(),
                        "--jobs"
                            | "--threads"
                            | "--manifest"
                            | "--addr"
                            | "--workers"
                            | "--queue-depth"
                            | "--cache-capacity"
                            | "--addr-file"
                            | "--demo"
                            | "--backend"
                            | "--vnodes"
                            | "--pool"
                            | "--store"
                            | "--store-capacity-mb"
                            | "--prewarm"
                    ))
        })
        .map(|(_, a)| a.as_str())
        .collect()
}

/// Reads the request document for `eval`/`compile`: the positional
/// after the command word, or stdin when absent.
fn request_arg(args: &[String]) -> Result<String, SwGateError> {
    match positionals(args).get(1) {
        Some(request) => Ok((*request).to_string()),
        None => {
            let mut buffer = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut buffer).map_err(|e| {
                SwGateError::Simulation {
                    reason: format!("reading request from stdin: {e}"),
                }
            })?;
            Ok(buffer)
        }
    }
}

/// `repro eval [REQUEST_JSON]` — one local gate/circuit evaluation,
/// byte-identical to the server's `POST /v1/gate/eval` response.
fn eval_command(args: &[String]) -> Result<(), SwGateError> {
    // The request is the positional after the `eval` command word;
    // without one, read it from stdin (`echo '{...}' | repro eval`).
    let raw = request_arg(args)?;
    let request = swjson::Json::parse(raw.trim()).map_err(|e| SwGateError::Simulation {
        reason: format!("bad request JSON: {e}"),
    })?;
    let response = swserve::respond(&request).map_err(|e| SwGateError::Simulation {
        reason: e.to_string(),
    })?;
    println!("{response}");
    Ok(())
}

/// `repro compile [REQUEST_JSON] [--demo NAME]` — one local netlist
/// compilation, byte-identical to `POST /v1/netlist/eval`.
fn compile_command(args: &[String]) -> Result<(), SwGateError> {
    let request = match args
        .iter()
        .position(|a| a == "--demo")
        .and_then(|i| args.get(i + 1))
    {
        Some(name) => swjson::Json::obj([("demo", swjson::Json::str(name))]),
        None => {
            if args.iter().any(|a| a == "--demo") {
                eprintln!(
                    "--demo needs a name (one of {})",
                    swserve::netlist::DEMOS.join(", ")
                );
                std::process::exit(2);
            }
            let raw = request_arg(args)?;
            swjson::Json::parse(raw.trim()).map_err(|e| SwGateError::Simulation {
                reason: format!("bad request JSON: {e}"),
            })?
        }
    };
    let response = swserve::netlist::respond(&request).map_err(|e| SwGateError::Simulation {
        reason: e.to_string(),
    })?;
    println!("{response}");
    Ok(())
}

/// `repro serve` — the HTTP gate-evaluation service (see `swserve`).
fn serve(args: &[String]) -> Result<(), SwGateError> {
    let io_err = |context: &str| {
        let context = context.to_string();
        move |e: std::io::Error| SwGateError::Simulation {
            reason: format!("{context}: {e}"),
        }
    };
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let parse_count = |flag: &str, default: usize| -> usize {
        match value_of(flag).map(|v| v.parse::<usize>()) {
            None => default,
            Some(Ok(n)) => n,
            Some(Err(_)) => {
                eprintln!("{flag} needs a non-negative integer");
                std::process::exit(2);
            }
        }
    };
    let manifest = value_of("--manifest")
        .map(std::path::PathBuf::from)
        .or_else(|| {
            Some(std::path::PathBuf::from(
                "target/swrun/serve.manifest.jsonl",
            ))
        });
    if let Some(parent) = manifest.as_deref().and_then(std::path::Path::parent) {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).ok();
        }
    }
    let store = value_of("--store").map(std::path::PathBuf::from);
    if store.is_none() && args.iter().any(|a| a == "--store") {
        eprintln!("--store needs a directory");
        std::process::exit(2);
    }
    let prewarm = value_of("--prewarm").map(std::path::PathBuf::from);
    if prewarm.is_some() && store.is_none() {
        eprintln!("--prewarm needs --store DIR (nothing to warm without a disk store)");
        std::process::exit(2);
    }
    let config = swserve::ServerConfig {
        addr: value_of("--addr").unwrap_or_else(|| "127.0.0.1:8080".to_string()),
        workers: parse_count("--workers", 2),
        queue_depth: parse_count("--queue-depth", 64),
        cache_capacity: parse_count("--cache-capacity", 1024),
        manifest,
        store,
        store_capacity_bytes: (parse_count("--store-capacity-mb", 64) as u64) << 20,
        prewarm,
    };
    let server = swserve::Server::bind(&config).map_err(io_err("binding the server"))?;
    let addr = server.local_addr();
    if let Some(path) = value_of("--addr-file") {
        std::fs::write(&path, addr.to_string()).map_err(io_err("writing the address file"))?;
    }
    eprintln!(
        "swserve listening on http://{addr} ({} job workers, queue depth {}{}); \
         POST /v1/admin/shutdown to drain",
        config.workers,
        config.queue_depth,
        match &config.store {
            Some(dir) => format!(", disk store {}", dir.display()),
            None => String::new(),
        }
    );
    server.run().map_err(io_err("serving"))
}

/// `repro route` — the consistent-hash shard router (see `swrouter`).
fn route(args: &[String]) -> Result<(), SwGateError> {
    let io_err = |context: &str| {
        let context = context.to_string();
        move |e: std::io::Error| SwGateError::Simulation {
            reason: format!("{context}: {e}"),
        }
    };
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let parse_count = |flag: &str, default: usize| -> usize {
        match value_of(flag).map(|v| v.parse::<usize>()) {
            None => default,
            Some(Ok(n)) => n,
            Some(Err(_)) => {
                eprintln!("{flag} needs a non-negative integer");
                std::process::exit(2);
            }
        }
    };
    // `--backend HOST:PORT`, repeated once per shard.
    let backends: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--backend")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect();
    let config = swrouter::RouterConfig {
        addr: value_of("--addr").unwrap_or_else(|| "127.0.0.1:7070".to_string()),
        backends,
        vnodes: parse_count("--vnodes", 64),
        pool_per_backend: parse_count("--pool", 8),
        ..swrouter::RouterConfig::default()
    };
    let router = swrouter::Router::bind(&config).map_err(io_err("binding the router"))?;
    let addr = router.local_addr();
    if let Some(path) = value_of("--addr-file") {
        std::fs::write(&path, addr.to_string()).map_err(io_err("writing the address file"))?;
    }
    eprintln!(
        "swrouter listening on http://{addr} ({} shard(s), {} vnodes); \
         POST /v1/admin/shutdown to drain",
        config.backends.len(),
        config.vnodes
    );
    router.run().map_err(io_err("routing"))
}

/// `repro warm` — replay swrun manifests into a disk store offline.
fn warm(args: &[String]) -> Result<(), SwGateError> {
    let store_err = |reason: String| SwGateError::Simulation { reason };
    let dir = args
        .iter()
        .position(|a| a == "--store")
        .and_then(|i| args.get(i + 1))
        .unwrap_or_else(|| {
            eprintln!("warm needs --store DIR");
            std::process::exit(2);
        });
    let manifests = &positionals(args)[1..]; // after the `warm` word
    if manifests.is_empty() {
        eprintln!("warm needs at least one manifest path");
        std::process::exit(2);
    }
    let capacity = match args
        .iter()
        .position(|a| a == "--store-capacity-mb")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse::<u64>())
    {
        None => 64u64,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("--store-capacity-mb needs a non-negative integer");
            std::process::exit(2);
        }
    };
    let store = std::sync::Arc::new(
        swstore::Store::open(swstore::StoreConfig::new(dir).capacity_bytes(capacity << 20))
            .map_err(|e| store_err(format!("store `{dir}`: {e}")))?,
    );
    for manifest in manifests {
        let warmed = swserve::store::prewarm(&store, std::path::Path::new(manifest))
            .map_err(|e| store_err(format!("pre-warm `{manifest}`: {e}")))?;
        println!("{manifest}: {warmed} result(s) warmed");
    }
    let counters = store.counters();
    println!(
        "store `{dir}`: {} entr(ies), {} byte(s) on disk",
        counters.entries, counters.disk_bytes
    );
    Ok(())
}
