//! Exporter format tests: Chrome trace output must be valid JSON, match
//! the committed golden rendering for a fixed registry, and keep `ts`
//! monotonically non-decreasing within every thread lane.

use cheetah_obs::{json, AttrValue, ObsHandle, SpanRecord};

/// Builds a registry with deterministic, hand-timed spans: two lanes,
/// deliberately recorded out of start order to exercise exporter sorting.
fn fixed_registry() -> ObsHandle {
    let obs = ObsHandle::fresh();
    obs.name_lane(0, "engine");
    obs.name_lane(1, "converge");
    obs.record_span(SpanRecord {
        name: "phase",
        lane: 0,
        start_ns: 2_500,
        dur_ns: 7_500,
        attrs: vec![
            ("index", AttrValue::U64(1)),
            ("kind", AttrValue::Str("parallel".into())),
            ("witness", AttrValue::U64(0xdead_beef)),
        ],
    });
    obs.record_span(SpanRecord {
        name: "phase",
        lane: 0,
        start_ns: 0,
        dur_ns: 2_000,
        attrs: vec![
            ("index", AttrValue::U64(0)),
            ("kind", AttrValue::Str("serial".into())),
        ],
    });
    obs.record_span(SpanRecord {
        name: "converge.iteration",
        lane: 1,
        start_ns: 1_000,
        dur_ns: 11_000,
        attrs: vec![
            ("iteration", AttrValue::U64(0)),
            ("predicted", AttrValue::F64(1.25)),
            ("label", AttrValue::Str("counter \"hot\"".into())),
        ],
    });
    obs
}

const GOLDEN: &str = "{\"traceEvents\":[\n\
{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"engine\"}},\n\
{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"converge\"}},\n\
{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"phase\",\"ts\":0.000,\"dur\":2.000,\"args\":{\"index\":0,\"kind\":\"serial\"}},\n\
{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"converge.iteration\",\"ts\":1.000,\"dur\":11.000,\"args\":{\"iteration\":0,\"predicted\":1.25,\"label\":\"counter \\\"hot\\\"\"}},\n\
{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"phase\",\"ts\":2.500,\"dur\":7.500,\"args\":{\"index\":1,\"kind\":\"parallel\",\"witness\":3735928559}}\n\
]}\n";

#[test]
fn chrome_trace_matches_golden() {
    assert_eq!(fixed_registry().chrome_trace(), GOLDEN);
}

#[test]
fn chrome_trace_is_valid_json_with_monotonic_ts_per_lane() {
    let trace = fixed_registry().chrome_trace();
    let doc = json::parse(&trace).expect("exporter output must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut last_ts_per_lane = std::collections::BTreeMap::new();
    for event in events {
        let ph = event.get("ph").and_then(|v| v.as_str()).unwrap();
        if ph != "X" {
            continue;
        }
        let tid = event.get("tid").and_then(|v| v.as_f64()).unwrap() as u64;
        let ts = event.get("ts").and_then(|v| v.as_f64()).unwrap();
        assert!(event.get("dur").and_then(|v| v.as_f64()).unwrap() >= 0.0);
        if let Some(&prev) = last_ts_per_lane.get(&tid) {
            assert!(ts >= prev, "ts regressed on lane {tid}: {prev} -> {ts}");
        }
        last_ts_per_lane.insert(tid, ts);
    }
    assert_eq!(last_ts_per_lane.len(), 2, "both lanes present");
}

#[test]
fn jsonl_journal_lines_are_each_valid_json() {
    let obs = fixed_registry();
    obs.counter("sim.merged_events").add(7);
    obs.gauge("detect.object_table_entries").set(3);
    let journal = obs.jsonl();
    let lines: Vec<&str> = journal.lines().collect();
    // 3 spans + 1 counter + 1 gauge.
    assert_eq!(lines.len(), 5);
    let mut kinds = std::collections::BTreeMap::new();
    for line in lines {
        let doc = json::parse(line).expect("every journal line is standalone JSON");
        let kind = doc
            .get("type")
            .and_then(|v| v.as_str())
            .unwrap()
            .to_string();
        *kinds.entry(kind).or_insert(0u32) += 1;
    }
    assert_eq!(kinds.get("span"), Some(&3));
    assert_eq!(kinds.get("counter"), Some(&1));
    assert_eq!(kinds.get("gauge"), Some(&1));
    assert_eq!(kinds.len(), 3, "no other record kinds: {kinds:?}");
}
