//! The per-layer ledger: per-layer metrics and self times read back from
//! the benchmark's own spans in the traced registry.

use crate::stats::Metric;
use crate::suite::LANES;
use cheetah_obs::SpanRecord;
use std::collections::BTreeMap;

/// `numerator / denominator`, 0 when nothing was counted.
fn per(numerator: f64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator / denominator as f64
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. Counts are per
/// traced pass (`passes` of them in `spans`); times are per unit of the
/// layer's own work, summed over every call before dividing.
pub fn layer_metrics(spans: &[SpanRecord], passes: u64, trace_overhead_frac: f64) -> Vec<Metric> {
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let ns = |name: &'static str| named(name).map(|s| s.dur_ns as f64).sum::<f64>();
    let calls = |name: &'static str| named(name).count() as u64;
    let sum = |name: &'static str, key: &str| -> u64 {
        named(name).filter_map(|s| s.attr_u64(key)).sum()
    };
    let per_pass = |name: &'static str, key: &str| per(sum(name, key) as f64, passes);
    let per_call = |name: &'static str| per(ns(name), calls(name));
    let native_ns = ns("sim.native_run");
    let sampled_ns = ns("pmu.sampled_run");
    let samples = sum("pmu.sampled_run", "samples");
    let metric = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        metric("workloads.build_ns", per_call("workloads.build"), "ns"),
        metric(
            "sim.accesses",
            per_pass("sim.native_run", "accesses"),
            "count",
        ),
        metric(
            "sim.ns_per_access",
            per(native_ns, sum("sim.native_run", "accesses")),
            "ns",
        ),
        metric(
            "sim.perturbed_ns_per_access",
            per(
                ns("sim.perturbed_run"),
                sum("sim.perturbed_run", "accesses"),
            ),
            "ns",
        ),
        metric(
            "pmu.samples",
            per_pass("pmu.sampled_run", "samples"),
            "count",
        ),
        metric(
            "pmu.overhead_frac",
            if native_ns > 0.0 {
                sampled_ns / native_ns - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "pmu.ns_per_sample",
            per(sampled_ns - native_ns, samples),
            "ns",
        ),
        metric(
            "pmu.faults_ns_per_sample",
            per(ns("pmu.faulted_run") - sampled_ns, samples),
            "ns",
        ),
        metric(
            "core.ingest_ns_per_sample",
            per(ns("core.ingest"), sum("core.ingest", "samples")),
            "ns",
        ),
        metric(
            "core.ingest_bounded_ns_per_sample",
            per(
                ns("core.ingest_bounded"),
                sum("core.ingest_bounded", "samples"),
            ),
            "ns",
        ),
        metric(
            "core.lines_evicted",
            per_pass("core.ingest_bounded", "evicted"),
            "count",
        ),
        metric(
            "core.quarantined",
            per_pass("core.ingest_bounded", "quarantined"),
            "count",
        ),
        metric("core.finish_ns", per_call("core.finish"), "ns"),
        metric(
            "core.finish_ns_per_instance",
            per(ns("core.finish"), sum("core.finish", "instances")),
            "ns",
        ),
        metric("core.union_ns", per_call("core.union"), "ns"),
        metric(
            "repair.profiles",
            per_pass("repair.converge", "profiles"),
            "count",
        ),
        metric(
            "repair.iterations",
            per_pass("repair.converge", "iterations"),
            "count",
        ),
        metric(
            "repair.ns_per_profile",
            per(ns("repair.converge"), sum("repair.converge", "profiles")),
            "ns",
        ),
        metric(
            "repair.plan_ns_per_candidate",
            per(ns("repair.plan"), sum("repair.plan", "candidates")),
            "ns",
        ),
        metric(
            "repair.apply_ns_per_plan",
            per(ns("repair.apply"), sum("repair.apply", "plans")),
            "ns",
        ),
        metric(
            "repair.worst_case_profiles",
            per_pass("repair.worst_case", "profiles"),
            "count",
        ),
        metric(
            "repair.worst_case_ns_per_profile",
            per(
                ns("repair.worst_case"),
                sum("repair.worst_case", "profiles"),
            ),
            "ns",
        ),
        metric("analyze.summarize_ns", per_call("analyze.summarize"), "ns"),
        metric("analyze.soundness_ns", per_call("analyze.soundness"), "ns"),
        metric("obs.trace_overhead_frac", trace_overhead_frac, "ratio"),
    ]
}

/// Length of the union of `[start, end)` intervals.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

fn end(span: &SpanRecord) -> u64 {
    span.start_ns + span.dur_ns
}

/// Self time of each layer inside the operation spans: a span's duration
/// minus the part its nested spans cover, summed by lane. Returns the
/// lanes' self times and the total operation time.
pub fn op_self_times(spans: &[SpanRecord]) -> (BTreeMap<&'static str, u64>, u64) {
    let mut by_lane: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut op_total = 0;
    for op in spans.iter().filter(|s| s.name == "op") {
        op_total += op.dur_ns;
        let inside: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.name != "op" && s.start_ns >= op.start_ns && end(s) <= end(op))
            .collect();
        for span in &inside {
            let nested = inside
                .iter()
                .filter(|c| {
                    !std::ptr::eq(**c, *span)
                        && c.start_ns >= span.start_ns
                        && end(c) <= end(span)
                        && c.dur_ns < span.dur_ns
                })
                .map(|c| (c.start_ns, end(c)))
                .collect();
            let lane = LANES
                .iter()
                .find(|(id, _)| *id == span.lane)
                .map_or("?", |(_, name)| name);
            *by_lane.entry(lane).or_default() += span.dur_ns - covered(nested);
        }
    }
    (by_lane, op_total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, lane: u32, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            lane,
            start_ns,
            dur_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn union_of_overlapping_intervals() {
        assert_eq!(covered(vec![]), 0);
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered(vec![(20, 25), (0, 30)]), 30);
    }

    #[test]
    fn self_time_subtracts_nested_spans() {
        let spans = vec![
            span("op", 0, 0, 100),
            span("repair.converge", 5, 10, 80),
            span("workloads.build", 1, 20, 5),
            span("workloads.build", 1, 40, 5),
            // A probe after the operation is not operation time.
            span("sim.native_run", 2, 200, 50),
        ];
        let (lanes, total) = op_self_times(&spans);
        assert_eq!(total, 100);
        assert_eq!(lanes.get("repair"), Some(&70));
        assert_eq!(lanes.get("workloads"), Some(&10));
        assert_eq!(lanes.get("sim"), None);
    }

    #[test]
    fn every_layer_metric_is_reported_even_without_spans() {
        let metrics = layer_metrics(&[], 1, 0.0);
        assert_eq!(metrics.len(), 25);
        assert!(metrics.iter().all(|m| m.value == 0.0));
        assert!(metrics
            .iter()
            .all(|m| crate::stats::valid_metric_name(m.name)));
    }
}
