//! Command-line entry point of the benchmark.
//!
//! ```text
//! perfbench --workload <gate_batched|film_newell|serve_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Prints a detail line (environment, every metric with unit, sample
//! count and note) and, last, the result line
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, and the spans go to a JSON-lines file under the
//! build directory.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::report::{self, Metric};
use perfbench::trace::Tracer;
use perfbench::{sys, Outcome, RunConfig, WORKLOADS};

struct Args {
    workload: String,
    trace: bool,
    cfg: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        trace,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            smoke,
            cpus: sys::cpus(),
        },
    })
}

fn run(args: &Args) -> Result<(Outcome, Vec<Metric>), String> {
    let cfg = &args.cfg;
    let mut tracer = Tracer::new(args.trace);
    let outcome = perfbench::run_workload(&args.workload, cfg, &mut tracer)?;
    if !args.trace {
        let metrics = report::end_to_end(&outcome)?;
        return Ok((outcome, metrics));
    }
    let metrics = perfbench::layer_metrics(cfg, &mut tracer, &outcome)?;
    let dir = sys::work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, cfg.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok((outcome, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (outcome, metrics) = match run(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let env = [
        ("cpus", args.cfg.cpus.to_string()),
        ("threads", outcome.threads.to_string()),
        ("connections", outcome.connections.to_string()),
        ("commit", sys::commit()),
        ("profile", sys::profile().to_string()),
        ("seed", args.cfg.seed.to_string()),
        ("seconds", args.cfg.seconds.as_secs_f64().to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("smoke", args.cfg.smoke.to_string()),
    ];
    println!(
        "{}",
        report::detail_line(&args.workload, &env, &metrics, &outcome.facts)
    );
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
