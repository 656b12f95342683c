//! Summary statistics and the result line the benchmark prints.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Operations that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of an operation-time sample: the highest nearest-rank
/// percentile with at least [`TAIL_BEYOND`] operations beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The operation time at that rank.
    pub value: f64,
    /// The percentile the rank corresponds to, `100 * (n - 10) / n`.
    pub percentile: f64,
    /// Operations in the sample.
    pub count: usize,
}

/// The tail of `values`, or `None` below `TAIL_BEYOND + 1` operations,
/// where no rank has ten operations beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        value: sorted[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        count: n,
    })
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The benchmark's verdict for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations attempted across every pass of the run.
    pub attempted: u64,
    /// Operations that errored, panicked or failed a correctness check.
    pub failed: u64,
    /// Metrics in declaration order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether the run is correct: no failed operation, every metric
    /// finite and validly named.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && valid_metric_name(m.name))
    }

    /// Renders the one-line JSON result. A non-finite value (a bug) is
    /// written as 0 and makes the run incorrect, so the line always parses.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                cheetah_obs::export::escape_json(metric.name),
                cheetah_obs::export::escape_json(metric.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_obs::json::{parse, Value};

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_is_omitted_below_eleven_operations() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_operations_beyond() {
        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&eleven).expect("eleven operations have a tail");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.count, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);

        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred).expect("tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(hundred.iter().filter(|&&v| v > t.value).count(), 10);

        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&thousand).expect("tail");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(thousand.iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn metric_names_follow_the_declared_alphabet() {
        for good in ["wall_s", "sim.ns_per_access", "op-p50", "9lives", "a"] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "sp ace",
            "per/s",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn result_line_parses_under_the_strict_parser() {
        let outcome = Outcome {
            attempted: 96,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "wall_s",
                    value: 0.812_345_678_9,
                    unit: "s",
                },
                Metric {
                    name: "sim_overhead_pct",
                    value: 1.25e-7,
                    unit: "%",
                },
                Metric {
                    name: "sim.accesses",
                    value: 12_345_678.0,
                    unit: "count",
                },
            ],
        };
        let line = outcome.to_json();
        assert!(!line.contains('\n'));
        let parsed = parse(&line).expect("result line is strict JSON");
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Value::as_f64), Some(96.0));
        assert_eq!(parsed.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics = parsed.get("metrics").expect("metrics");
        for metric in &outcome.metrics {
            let entry = metrics.get(metric.name).expect("metric present");
            assert_eq!(
                entry.get("value").and_then(Value::as_f64),
                Some(metric.value),
                "{} keeps every digit",
                metric.name
            );
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(metric.unit));
        }
    }

    #[test]
    fn non_finite_values_still_parse_but_mark_the_run_incorrect() {
        let outcome = Outcome {
            attempted: 1,
            failed: 0,
            metrics: vec![Metric {
                name: "pred_err_max",
                value: f64::NAN,
                unit: "ratio",
            }],
        };
        let parsed = parse(&outcome.to_json()).expect("parses");
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(false)));
    }
}
