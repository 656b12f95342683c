//! # cheetah-obs — pipeline-wide tracing and metrics
//!
//! A zero-dependency, no-network observability layer for the Cheetah
//! reproduction. One [`ObsRegistry`] per profiling run collects two
//! kinds of telemetry behind cheap handles:
//!
//! * **Counters** ([`Counter`]) and **gauges** ([`Gauge`]) — a single
//!   shared `AtomicU64` each; cloning a handle is an `Arc` bump and
//!   updating it is one relaxed atomic op, cheap enough for the
//!   simulator's hot loops.
//! * **Scoped spans** ([`SpanGuard`]) — RAII wall-clock intervals with
//!   typed attributes, recorded when the guard drops. Spans are only
//!   stored when the registry was created with tracing enabled
//!   ([`ObsHandle::fresh`]); on an untraced registry (the default) they
//!   are no-ops so long-lived processes never accumulate unbounded buffers.
//!
//! Handles are distributed through an [`ObsHandle`], a cheap `Arc` wrapper
//! that is deliberately transparent to configuration equality: two handles
//! always compare equal, so embedding one in a `#[derive(PartialEq)]`
//! config struct does not change what "the same configuration" means.
//!
//! Collected data leaves the registry through two exporters (module
//! [`export`]): Chrome trace-event JSON loadable in Perfetto, and a flat
//! JSONL journal. The [`fnv`] module provides the FNV-1a hasher used by
//! the simulator's determinism divergence witness, and [`json`] a minimal
//! JSON parser used to validate exporter output in tests and gates.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod fnv;
pub mod json;

pub use fnv::Fnv64;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing event count.
///
/// Cloning shares the underlying cell; updates are relaxed atomics.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads the current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (table sizes, watermarks).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Reads the current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A typed span-attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (counts, hashes, indices).
    U64(u64),
    /// Floating point (ratios, predictions).
    F64(f64),
    /// Free-form text (labels, phase kinds).
    Str(String),
}

/// One completed span, as stored in the registry.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (e.g. `"phase"`, `"shard.merge"`).
    pub name: &'static str,
    /// Thread lane the span renders on (see [`ObsHandle::name_lane`]).
    pub lane: u32,
    /// Start, nanoseconds since the registry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Attributes attached while the span was open.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Looks up a `U64` attribute by key.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find_map(|(k, v)| match v {
            AttrValue::U64(n) if *k == key => Some(*n),
            _ => None,
        })
    }

    /// Looks up a `Str` attribute by key.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find_map(|(k, v)| match v {
            AttrValue::Str(s) if *k == key => Some(s.as_str()),
            _ => None,
        })
    }
}

/// RAII guard for an open span; records into the registry on drop.
///
/// When the owning registry has tracing disabled the guard is inert:
/// attributes are discarded and nothing is recorded.
#[derive(Debug)]
pub struct SpanGuard {
    reg: Option<Arc<ObsRegistry>>,
    name: &'static str,
    lane: u32,
    start: Instant,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanGuard {
    /// Attaches an unsigned-integer attribute.
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        if self.reg.is_some() {
            self.attrs.push((key, AttrValue::U64(value)));
        }
    }

    /// Attaches a floating-point attribute.
    pub fn attr_f64(&mut self, key: &'static str, value: f64) {
        if self.reg.is_some() {
            self.attrs.push((key, AttrValue::F64(value)));
        }
    }

    /// Attaches a text attribute.
    pub fn attr_str(&mut self, key: &'static str, value: impl Into<String>) {
        if self.reg.is_some() {
            self.attrs.push((key, AttrValue::Str(value.into())));
        }
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(reg) = self.reg.take() else { return };
        let start_ns = duration_ns(reg.epoch, self.start);
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        let record = SpanRecord {
            name: self.name,
            lane: self.lane,
            start_ns,
            dur_ns,
            attrs: std::mem::take(&mut self.attrs),
        };
        reg.inner.lock().unwrap().spans.push(record);
    }
}

fn duration_ns(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    spans: Vec<SpanRecord>,
    lane_names: BTreeMap<u32, &'static str>,
}

/// A per-run telemetry registry: named metrics plus a span buffer.
///
/// Constructed through [`ObsHandle::fresh`] (tracing on) or
/// [`ObsHandle::fresh_untraced`] (tracing off, also the `Default`). All
/// access goes through [`ObsHandle`]; the registry itself is not
/// instantiated directly.
pub struct ObsRegistry {
    epoch: Instant,
    tracing: bool,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ObsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsRegistry")
            .field("tracing", &self.tracing)
            .finish_non_exhaustive()
    }
}

/// Cheap, clonable reference to an [`ObsRegistry`].
///
/// `ObsHandle` implements `PartialEq`/`Eq` as *always equal* and hashes to
/// nothing: observability is transparent to configuration identity, so
/// two `MachineConfig`s carrying different registries still compare equal.
/// `Default` yields a private, untraced registry: there is no shared
/// process-wide one.
#[derive(Clone)]
pub struct ObsHandle {
    reg: Arc<ObsRegistry>,
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHandle")
            .field("tracing", &self.reg.tracing)
            .finish()
    }
}

impl PartialEq for ObsHandle {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for ObsHandle {}

impl Default for ObsHandle {
    fn default() -> Self {
        ObsHandle::fresh_untraced()
    }
}

impl ObsHandle {
    fn with_tracing(tracing: bool) -> Self {
        ObsHandle {
            reg: Arc::new(ObsRegistry {
                epoch: Instant::now(),
                tracing,
                inner: Mutex::new(Inner::default()),
            }),
        }
    }

    /// Creates a fresh, independent registry with span tracing enabled.
    pub fn fresh() -> Self {
        ObsHandle::with_tracing(true)
    }

    /// Creates a fresh, independent registry with span tracing disabled:
    /// counters and gauges work normally, spans are no-ops.
    /// This is also what `ObsHandle::default()` returns.
    pub fn fresh_untraced() -> Self {
        ObsHandle::with_tracing(false)
    }

    /// Whether spans recorded through this handle are stored.
    pub fn tracing_enabled(&self) -> bool {
        self.reg.tracing
    }

    /// Returns the counter registered under `name`, creating it at zero.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.reg
            .inner
            .lock()
            .unwrap()
            .counters
            .entry(name)
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Returns the gauge registered under `name`, creating it at zero.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.reg
            .inner
            .lock()
            .unwrap()
            .gauges
            .entry(name)
            .or_insert_with(|| Gauge(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Opens a scoped span on `lane`; it records when dropped.
    pub fn span(&self, name: &'static str, lane: u32) -> SpanGuard {
        SpanGuard {
            reg: self.reg.tracing.then(|| Arc::clone(&self.reg)),
            name,
            lane,
            start: Instant::now(),
            attrs: Vec::new(),
        }
    }

    /// Names a lane for the Chrome-trace exporter's thread metadata.
    pub fn name_lane(&self, lane: u32, name: &'static str) {
        self.reg.inner.lock().unwrap().lane_names.insert(lane, name);
    }

    /// Snapshot of all recorded spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.reg.inner.lock().unwrap().spans.clone()
    }

    /// Recorded spans with `name`, sorted by their `key` U64 attribute.
    ///
    /// Convenience for witness readers: phase spans complete in wall-clock
    /// order, which under parallel shards is not index order.
    pub fn spans_sorted_by_attr(&self, name: &str, key: &str) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self
            .spans()
            .into_iter()
            .filter(|s| s.name == name)
            .collect();
        spans.sort_by_key(|s| s.attr_u64(key));
        spans
    }

    /// Snapshot of all counters as `(name, value)` pairs, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.reg
            .inner
            .lock()
            .unwrap()
            .counters
            .iter()
            .map(|(k, v)| (*k, v.get()))
            .collect()
    }

    /// Snapshot of all gauges as `(name, value)` pairs, sorted by name.
    pub fn gauges(&self) -> Vec<(&'static str, u64)> {
        self.reg
            .inner
            .lock()
            .unwrap()
            .gauges
            .iter()
            .map(|(k, v)| (*k, v.get()))
            .collect()
    }

    /// Exports everything as Chrome trace-event JSON (see
    /// [`export::chrome_trace`]).
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(self)
    }

    /// Exports everything as a flat JSONL journal (see
    /// [`export::jsonl`]).
    pub fn jsonl(&self) -> String {
        export::jsonl(self)
    }

    pub(crate) fn lane_names(&self) -> Vec<(u32, &'static str)> {
        self.reg
            .inner
            .lock()
            .unwrap()
            .lane_names
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// Records a pre-timed span directly (exporter tests and replay
    /// tooling; live code uses [`ObsHandle::span`]).
    pub fn record_span(&self, record: SpanRecord) {
        if self.reg.tracing {
            self.reg.inner.lock().unwrap().spans.push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells() {
        let obs = ObsHandle::fresh();
        let a = obs.counter("x");
        let b = obs.counter("x");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert_eq!(obs.counters(), vec![("x", 7)]);
    }

    #[test]
    fn fresh_registries_are_independent() {
        let a = ObsHandle::fresh();
        let b = ObsHandle::fresh();
        a.counter("x").add(5);
        assert_eq!(b.counter("x").get(), 0);
        assert_eq!(a, b, "handles are transparent to equality");
    }

    #[test]
    fn spans_record_on_drop_only_when_tracing() {
        let traced = ObsHandle::fresh();
        {
            let mut span = traced.span("work", 0);
            span.attr_u64("n", 42);
        }
        let spans = traced.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "work");
        assert_eq!(spans[0].attr_u64("n"), Some(42));

        let untraced = ObsHandle::default();
        assert!(!untraced.tracing_enabled());
        {
            let mut span = untraced.span("work", 0);
            span.attr_u64("n", 1);
        }
        assert!(untraced.spans().is_empty());
    }
}
