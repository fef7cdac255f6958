//! Metric records and the result lines the benchmark prints.

use crate::stats;
use crate::Outcome;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
    /// How it was taken, when the name alone does not say (percentile,
    /// ratio base, ...).
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    /// Attaches a note.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }

    /// Median of `values`, or an error naming the empty metric.
    pub fn median(name: &str, values: &[f64], unit: &'static str) -> Result<Metric, String> {
        let value = stats::median(values).ok_or_else(|| format!("{name}: no samples"))?;
        Ok(Metric::new(name, value, unit, values.len()))
    }
}

/// The end-to-end metrics of an untraced run.
///
/// # Errors
///
/// A message naming the first metric with no samples.
pub fn end_to_end(outcome: &Outcome) -> Result<Vec<Metric>, String> {
    let (p, tail) = stats::tail(&outcome.latency_ms).ok_or("tail_ms: no samples")?;
    let rss = outcome
        .peak_rss_mb
        .ok_or("peak_rss_mb: /proc/self/status unreadable")?;
    if outcome.wall_s <= 0.0 {
        return Err("throughput_ops: empty timed phase".into());
    }
    let mut metrics = vec![
        Metric::median("p50_ms", &outcome.latency_ms, "ms")?,
        Metric::new("tail_ms", tail, "ms", outcome.latency_ms.len()).note(format!(
            "p{p}, {} samples beyond",
            stats::beyond_tail(outcome.latency_ms.len())
        )),
        Metric::new(
            "throughput_ops",
            outcome.latency_ms.len() as f64 / outcome.wall_s,
            "1/s",
            outcome.latency_ms.len(),
        )
        .note(format!("over {:.3} s", outcome.wall_s)),
        Metric::median("setup_s", &outcome.setup_s, "s")?,
        Metric::new("peak_rss_mb", rss, "MiB", 1).note("VmHWM at the end of the timed phase"),
    ];
    if let Some(miss_ms) = &outcome.miss_ms {
        metrics.push(Metric::median("miss_p50_ms", miss_ms, "ms")?);
    }
    Ok(metrics)
}

/// Median latency of the traced ops minus that of the untraced ops of
/// the same run (traced runs alternate the two).
pub fn trace_overhead(outcome: &Outcome) -> Result<Metric, String> {
    let pick = |traced: bool| -> Vec<f64> {
        outcome
            .latency_ms
            .iter()
            .zip(&outcome.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(&l, _)| l)
            .collect()
    };
    let (on, off) = (pick(true), pick(false));
    let (Some(a), Some(b)) = (stats::median(&on), stats::median(&off)) else {
        return Err("bench.trace_overhead_ms: needs traced and untraced ops".into());
    };
    Ok(
        Metric::new("bench.trace_overhead_ms", a - b, "ms", on.len() + off.len()).note(format!(
            "median traced op {a:.6} ms - median untraced op {b:.6} ms"
        )),
    )
}

fn escape(s: &str) -> String {
    swjson::Json::str(s).render()
}

/// The detailed report line: environment, every metric with its unit,
/// sample count and note, and the workload's facts.
pub fn detail_line(
    workload: &str,
    env: &[(&str, String)],
    metrics: &[Metric],
    facts: &[(String, String)],
) -> String {
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}:{}", escape(k), escape(v)))
        .collect();
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#"{}:{{"value":{:?},"unit":{},"samples":{},"note":{}}}"#,
                escape(&m.name),
                m.value,
                escape(m.unit),
                m.samples,
                escape(&m.note)
            )
        })
        .collect();
    let facts: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}:{}", escape(k), escape(v)))
        .collect();
    format!(
        r#"{{"workload":{},"env":{{{}}},"metrics":{{{}}},"facts":{{{}}}}}"#,
        escape(workload),
        env.join(","),
        metrics.join(","),
        facts.join(",")
    )
}

/// The final result line the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#"{}:{{"value":{:?},"unit":{}}}"#,
                escape(&m.name),
                m.value,
                escape(m.unit)
            )
        })
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_integer_counts() {
        let line = result_line(true, 12, 0, &[Metric::new("p50_ms", 1.25, "ms", 12)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"p50_ms":{"value":1.25,"unit":"ms"}}}"#
        );
        assert!(swjson::Json::parse(&line).is_ok());
    }

    #[test]
    fn overhead_compares_traced_with_untraced_ops() {
        let outcome = Outcome {
            latency_ms: vec![2.0, 1.0, 2.0, 1.0],
            traced: vec![true, false, true, false],
            ..Outcome::default()
        };
        assert_eq!(trace_overhead(&outcome).unwrap().value, 1.0);
    }
}
