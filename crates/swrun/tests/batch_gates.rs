//! Integration tests: the batch engine driving real LLG gate
//! simulations on miniature layouts.
//!
//! These verify the headline guarantees of the batch runner against the
//! actual micromagnetic backend:
//!
//! * a parallel run produces **bit-for-bit** the same output phasors as
//!   a serial run (T = 0 LLG integration is deterministic and the drive
//!   trims are shared through the calibration cache), and
//! * checkpoint/resume skips completed jobs, reconstructing their
//!   outputs from the manifest instead of re-simulating.

use std::path::PathBuf;

use swgates::encoding::{all_patterns, Bit};
use swgates::layout::{TriangleMaj3Layout, TriangleXorLayout};
use swgates::mumag::MumagBackend;
use swrun::batch::RunOptions;
use swrun::gates::patterns;

fn mini_maj3_layout() -> TriangleMaj3Layout {
    TriangleMaj3Layout::fast()
}

fn mini_xor_layout() -> TriangleXorLayout {
    TriangleXorLayout::fast()
}

fn quick_backend() -> MumagBackend {
    MumagBackend::fast()
        .with_measure_periods(2)
        .with_settle_factor(1.2)
}

fn temp_manifest(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("swrun-it-{}-{name}", std::process::id()));
    p
}

#[test]
fn parallel_maj3_patterns_match_serial_exactly() {
    let backend = quick_backend();
    let layout = mini_maj3_layout();

    let serial =
        patterns(&backend, &layout, &RunOptions::serial().quiet()).expect("serial batch runs");
    // Same backend: the parallel workers reuse the cached calibration,
    // exactly as a long sweep would.
    let parallel = patterns(
        &backend,
        &layout,
        &RunOptions::serial().with_jobs(4).quiet(),
    )
    .expect("parallel batch runs");

    assert_eq!(serial.patterns.len(), 8);
    assert_eq!(parallel.patterns.len(), 8);
    for (s, p) in serial.patterns.iter().zip(parallel.patterns.iter()) {
        assert_eq!(s.pattern, p.pattern);
        let (so1, so2) = s.phasors.expect("serial pattern succeeded");
        let (po1, po2) = p.phasors.expect("parallel pattern succeeded");
        // T = 0 LLG integration with shared trims is deterministic:
        // the phasors must agree to the last bit.
        assert_eq!(so1, po1, "O1 differs for {:?}", s.pattern);
        assert_eq!(so2, po2, "O2 differs for {:?}", s.pattern);
    }

    // Both runs decode the same truth table through the memo backend.
    let gate = swgates::gates::Maj3Gate::new(layout).with_phase_margin(std::f64::consts::PI / 32.0);
    let table_serial = gate.truth_table(&serial.memo()).expect("decodes");
    let table_parallel = gate.truth_table(&parallel.memo()).expect("decodes");
    assert_eq!(table_serial.rows(), table_parallel.rows());
    table_serial
        .verify(|p| Bit::majority(p[0], p[1], p[2]))
        .expect("majority decodes");
}

#[test]
fn batched_maj3_patterns_match_independent_runs_exactly() {
    // The lockstep batched solve is purely a throughput shape: a K = 4
    // batch of the 8 MAJ3 patterns must produce bit-for-bit the phasors
    // of eight independent runs, at serial and parallel sweep widths.
    use swgates::encoding::all_patterns;
    use swrun::gates::BatchedBackend;

    let backend = quick_backend();
    let layout = mini_maj3_layout();
    backend.prewarm(&layout).expect("calibration");

    let independent: Vec<_> = all_patterns::<3>()
        .into_iter()
        .map(|p| {
            let run = backend.run(&layout, p).expect("independent run");
            (p, run.o1, run.o2)
        })
        .collect();

    for threads in [1, 2] {
        let batched = BatchedBackend::new(backend.clone().with_threads(threads), 4);
        let report = batched.patterns(&layout).expect("batched sweep");
        assert_eq!(report.metrics.total, 8);
        assert_eq!(report.metrics.failed, 0);
        for (outcome, &(pattern, o1, o2)) in report.patterns.iter().zip(independent.iter()) {
            assert_eq!(outcome.pattern, pattern);
            let (bo1, bo2) = outcome.phasors.expect("batched pattern succeeded");
            assert_eq!(bo1, o1, "O1 differs for {pattern:?} at {threads} threads");
            assert_eq!(bo2, o2, "O2 differs for {pattern:?} at {threads} threads");
        }
        // The batched truth table decodes to the same majority function.
        let gate =
            swgates::gates::Maj3Gate::new(layout).with_phase_margin(std::f64::consts::PI / 32.0);
        let table = gate.truth_table(&report.memo()).expect("decodes");
        table
            .verify(|p| Bit::majority(p[0], p[1], p[2]))
            .expect("majority decodes");
    }
}

#[test]
fn xor_batch_resumes_from_manifest() {
    let path = temp_manifest("xor-resume.jsonl");
    std::fs::remove_file(&path).ok();
    let backend = quick_backend();
    let layout = mini_xor_layout();
    let options = RunOptions::serial().with_manifest(&path).quiet();

    // First run simulates everything.
    let first = patterns(&backend, &layout, &options).expect("first run");
    assert_eq!(first.metrics.done, 4);
    assert_eq!(first.metrics.resumed, 0);

    // Second run on the same manifest: nothing simulates. A fresh
    // backend with an empty trim cache proves no calibration happens
    // either (prewarm is skipped when there is no pending work).
    let cold = quick_backend();
    let second = patterns(&cold, &layout, &options).expect("resumed run");
    assert_eq!(second.metrics.resumed, 4);
    assert_eq!(second.metrics.done, 0);
    assert_eq!(cold.cached_trim_count(), 0, "resume must not calibrate");

    // Resumed phasors match the recorded magnitude/phase to round-trip
    // precision.
    for (a, b) in first.patterns.iter().zip(second.patterns.iter()) {
        assert!(b.resumed);
        assert!(b.run.is_none(), "resumed jobs carry no snapshot");
        let (fo1, fo2) = a.phasors.unwrap();
        let (ro1, ro2) = b.phasors.unwrap();
        assert!((fo1 - ro1).abs() <= 1e-15 * fo1.abs());
        assert!((fo2 - ro2).abs() <= 1e-15 * fo2.abs());
    }

    // Simulate a killed run: drop one pattern's record from the
    // manifest. Only that job re-executes.
    let kept: Vec<String> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .filter(|l| !l.contains("\"xor-10\""))
        .map(String::from)
        .collect();
    std::fs::write(&path, kept.join("\n") + "\n").unwrap();
    let third = patterns(&backend, &layout, &options).expect("partial resume");
    assert_eq!(third.metrics.resumed, 3);
    assert_eq!(third.metrics.done, 1);
    let rerun = third
        .patterns
        .iter()
        .find(|p| p.pattern == [Bit::One, Bit::Zero])
        .unwrap();
    assert!(!rerun.resumed);
    // The re-simulated phasors agree with the first run (same backend,
    // cached trims).
    let (fo1, _) = first
        .patterns
        .iter()
        .find(|p| p.pattern == [Bit::One, Bit::Zero])
        .unwrap()
        .phasors
        .unwrap();
    assert_eq!(rerun.phasors.unwrap().0, fo1);

    std::fs::remove_file(&path).ok();
}

#[test]
fn sweep_ids_stay_unique_across_patterns() {
    // Guard the manifest id scheme: every pattern of every gate gets a
    // distinct id, so resume can never confuse jobs.
    use swrun::gates::pattern_id;
    let mut ids: Vec<String> = all_patterns::<3>()
        .into_iter()
        .map(|p| pattern_id("maj3", p))
        .chain(
            all_patterns::<2>()
                .into_iter()
                .map(|p| pattern_id("xor", p)),
        )
        .collect();
    let before = ids.len();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), before);
}
