//! Metric samples and the result of one run, as printed.

use crate::spec::MetricSpec;
use crate::stats;
use crate::trace::{self, Span};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Samples gathered under metric names; a metric's reported value is
/// the median of its samples.
#[derive(Debug, Default, Clone)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Adds one sample of `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_owned()).or_default().push(value);
    }

    /// The samples of `name`, if any were taken.
    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.0.get(name).map(Vec::as_slice)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`crate::spec`].
    pub name: &'static str,
    /// The reported value: the median of the samples.
    pub value: f64,
    /// Unit from [`crate::spec`].
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub n: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted (CLI runs, round trips, protocol requests).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// One entry per metric of the pass that ran, in spec order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes: failed checks, the tail percentile, etc.
    pub notes: Vec<String>,
}

/// Resolves every metric of `specs`: explicit samples win; otherwise a
/// metric called `<span>_s` is the per-iteration total of spans called
/// `<span>`; a metric with neither reads 0 (its layer never ran).
pub fn resolve(specs: &[MetricSpec], samples: &Samples, spans: &[Span]) -> Vec<Metric> {
    specs
        .iter()
        .map(|spec| {
            let from_spans;
            let values: &[f64] = match samples.get(spec.name) {
                Some(v) => v,
                None => {
                    from_spans = spec
                        .name
                        .strip_suffix("_s")
                        .map(|span| {
                            trace::seconds_per_iteration(spans, span)
                                .into_values()
                                .collect::<Vec<f64>>()
                        })
                        .unwrap_or_default();
                    &from_spans
                }
            };
            Metric {
                name: spec.name,
                value: stats::median(values),
                unit: spec.unit,
                n: values.len(),
            }
        })
        .collect()
}

impl RunResult {
    /// The human-readable table: one line per metric with unit and
    /// sample count, then the notes.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<44} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.n
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// The contract's last line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints an f64 with every digit it has and always as
            // a JSON number (`1.0`, `1e-7`); metrics are finite by
            // construction, a non-finite one is reported as 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER};
    use smash_support::json::{self, Json};

    #[test]
    fn explicit_samples_beat_spans_and_absent_layers_read_zero() {
        let spans = vec![
            Span {
                name: "trace_io.read_parse".into(),
                start_ns: 0,
                end_ns: 2_000_000_000,
                parent: None,
                iter: 1,
            },
            Span {
                name: "trace_io.read_parse".into(),
                start_ns: 0,
                end_ns: 4_000_000_000,
                parent: None,
                iter: 2,
            },
        ];
        let mut samples = Samples::default();
        samples.push("trace_io.records", 10.0);
        let got = resolve(&PER_LAYER, &samples, &spans);
        let by_name = |n: &str| got.iter().find(|m| m.name == n).expect("listed").clone();
        // The median of the two iterations.
        assert_eq!(by_name("trace_io.read_parse_s").value, 3.0);
        assert_eq!(by_name("trace_io.read_parse_s").n, 2);
        assert_eq!(by_name("trace_io.records").value, 10.0);
        assert_eq!(by_name("trace_day.parse_s").value, 0.0);
        assert_eq!(by_name("trace_day.parse_s").n, 0);
        assert_eq!(got.len(), PER_LAYER.len());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut samples = Samples::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            samples.push(m.name, 1.5 + i as f64);
        }
        let result = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: resolve(&END_TO_END, &samples, &[]),
            notes: vec![],
        };
        let doc = json::parse(&result.json_line()).expect("the last line is JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, listed);
        for ((_, m), spec) in metrics.iter().zip(&END_TO_END) {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(spec.unit));
            assert!(matches!(m.get("value"), Some(Json::Float(v)) if *v > 0.0));
        }
        // Every printed metric name appears in the table too.
        for name in listed {
            assert!(result.table().contains(name));
        }
    }
}
