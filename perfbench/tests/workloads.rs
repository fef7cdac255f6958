//! Smoke-size runs of every workload: the output checks pass on the real
//! program, fire on a tampered expectation, and every metric
//! `BENCHMARK.json` declares is emitted.

use std::collections::BTreeSet;
use std::time::Duration;

use perfbench::report::{self, Metric};
use std::sync::Arc;

use perfbench::serve::{self, Sizes, Topology};
use perfbench::trace::Tracer;
use perfbench::{film, RunConfig};
use swjson::Json;

fn smoke(seed: u64, seconds: f64) -> RunConfig {
    RunConfig {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        smoke: true,
        cpus: 2,
    }
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn names(metrics: &[Metric]) -> BTreeSet<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

fn fact<'a>(facts: &'a [(String, String)], key: &str) -> &'a str {
    facts
        .iter()
        .find(|(k, _)| k.as_str() == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("fact {key} missing"))
}

#[test]
fn serve_smoke_passes_its_checks_and_reports_every_end_to_end_metric() {
    let outcome = serve::run(&smoke(3, 0.5), &mut Tracer::new(false)).unwrap();
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0);
    assert!(
        outcome.miss_ms.as_ref().is_some_and(|m| !m.is_empty()),
        "the cold share must reach the evaluator"
    );
    let metrics = report::end_to_end(&outcome).unwrap();
    // serve_mix adds the miss median to the declared end-to-end set.
    let mut expected = declared("end_to_end");
    expected.insert("miss_p50_ms".into());
    assert_eq!(names(&metrics), expected);
    assert!(
        metrics.iter().all(|m| m.value > 0.0),
        "end-to-end metrics are never 0"
    );
}

#[test]
fn serve_counts_a_tampered_expected_body_as_failed() {
    let cfg = smoke(3, 0.5);
    let mut sets = serve::generate(cfg.seed, Sizes::SMOKE).unwrap();
    let topology = Topology::boot(&sets, Sizes::SMOKE).unwrap();
    serve::warm_hot(topology.addr(), &sets).unwrap();
    // Flip one byte of the last hot body; the connection warm-ups send
    // the first ones.
    let last = sets.hot.len() - 1;
    let expected = sets.hot[last].expected.as_mut().expect("hot bodies");
    Arc::make_mut(expected)[0] ^= 1;
    let stream = serve::drive(
        topology.addr(),
        &Arc::new(sets),
        cfg.seed,
        2,
        cfg.seconds,
        &mut Tracer::new(false),
    );
    topology.shutdown().unwrap();
    let stream = stream.unwrap();
    assert!(
        stream.failed > 0,
        "one flipped byte must fail every op that sends it"
    );
    assert!(stream.failed < stream.attempted);
}

#[test]
fn film_digest_repeats_for_a_seed_and_differs_across_seeds() {
    let digest = |seed| {
        let outcome = film::run(&smoke(seed, 0.05), &mut Tracer::new(false)).unwrap();
        assert_eq!(outcome.failed, 0);
        let metrics = report::end_to_end(&outcome).unwrap();
        assert_eq!(names(&metrics), declared("end_to_end"));
        fact(&outcome.facts, "digest_after_first_step").to_string()
    };
    let a = digest(4);
    assert_eq!(a, digest(4));
    assert_ne!(a, digest(5));
}

#[test]
fn traced_run_reports_every_declared_layer_metric() {
    let cfg = smoke(6, 0.2);
    let mut tracer = Tracer::new(true);
    let outcome = film::run(&cfg, &mut tracer).unwrap();
    let metrics = perfbench::layer_metrics(&cfg, &mut tracer, &outcome).unwrap();
    assert_eq!(names(&metrics), declared("per_layer"));
    assert_eq!(
        metrics.len(),
        declared("per_layer").len(),
        "each metric once"
    );
    let allocs = metrics
        .iter()
        .find(|m| m.name == "magnum.hot_scratch_allocs")
        .unwrap();
    assert_eq!(
        allocs.value, 0.0,
        "steady-state steps must not allocate scratch"
    );
    assert!(tracer.spans().iter().any(|s| s.name == "magnum.step"));
}
