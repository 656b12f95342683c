//! Exporters: Chrome trace-event JSON and a flat JSONL journal.
//!
//! All JSON is emitted by hand — the workspace is offline and vendors no
//! serialisation crate — and kept to the minimal subset both Perfetto and
//! the in-tree [`crate::json`] parser accept: objects, arrays, strings,
//! and numbers.

use crate::{AttrValue, ObsHandle, SpanRecord};
use std::fmt::Write as _;

/// Escapes `s` as the body of a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn attr_json(value: &AttrValue) -> String {
    match value {
        AttrValue::U64(n) => n.to_string(),
        AttrValue::F64(f) if f.is_finite() => format!("{f}"),
        // JSON has no NaN/Infinity literal; stringify the degenerate case.
        AttrValue::F64(f) => format!("\"{f}\""),
        AttrValue::Str(s) => format!("\"{}\"", escape_json(s)),
    }
}

fn args_json(attrs: &[(&'static str, AttrValue)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape_json(key), attr_json(value));
    }
    out.push('}');
    out
}

/// Microseconds with fixed 3-decimal precision, the unit Chrome's `ts` and
/// `dur` fields use.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders the registry as Chrome trace-event JSON.
///
/// The output is a single object `{"traceEvents": [...]}` loadable in
/// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. Each span
/// becomes one complete (`"ph":"X"`) event on `pid` 1 with its lane as
/// `tid`; named lanes additionally get a `thread_name` metadata event.
/// Events are sorted by start time, so `ts` is monotonically
/// non-decreasing — globally, hence also within every lane.
pub fn chrome_trace(obs: &ObsHandle) -> String {
    let mut spans = obs.spans();
    spans.sort_by_key(|s| s.start_ns);
    let mut events = Vec::new();
    for (lane, name) in obs.lane_names() {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(name)
        ));
    }
    for span in &spans {
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{},\
             \"dur\":{},\"args\":{}}}",
            span.lane,
            escape_json(span.name),
            us(span.start_ns),
            us(span.dur_ns),
            args_json(&span.attrs)
        ));
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, event) in events.iter().enumerate() {
        out.push_str(event);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

fn span_jsonl(span: &SpanRecord) -> String {
    format!(
        "{{\"type\":\"span\",\"name\":\"{}\",\"lane\":{},\"start_ns\":{},\
         \"dur_ns\":{},\"attrs\":{}}}",
        escape_json(span.name),
        span.lane,
        span.start_ns,
        span.dur_ns,
        args_json(&span.attrs)
    )
}

/// Renders the registry as a flat JSONL journal: one self-describing JSON
/// object per line — every span (in completion order), then every counter
/// and gauge.
pub fn jsonl(obs: &ObsHandle) -> String {
    let mut out = String::new();
    for span in obs.spans() {
        out.push_str(&span_jsonl(&span));
        out.push('\n');
    }
    for (name, value) in obs.counters() {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
            escape_json(name)
        );
    }
    for (name, value) in obs.gauges() {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}",
            escape_json(name)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn us_formats_fixed_point() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1_234_567), "1234.567");
        assert_eq!(us(999), "0.999");
    }
}
