//! # cheetah-core — false-sharing detection and fix-impact prediction
//!
//! The primary contribution of *Cheetah: Detecting False Sharing
//! Efficiently and Effectively* (Liu & Liu, CGO 2016), reproduced in full:
//!
//! * **Detection** ([`detect`]): sampled accesses are routed through a
//!   shadow map to per-cache-line state. A write-count pre-filter skips
//!   write-once lines; susceptible lines get a constant-space *two-entry
//!   table* that counts cache invalidations under the paper's simple rule —
//!   a write to a line recently touched by another thread invalidates —
//!   plus a 4-byte-word access map.
//! * **Classification** ([`classify`]): lines with invalidations but
//!   disjoint per-thread word sets are *false* sharing; overlapping word
//!   sets are *true* sharing. Detailed state is only recorded in parallel
//!   phases so initialisation writes cannot masquerade as sharing.
//! * **Assessment** ([`assess()`]): the first approach to predict the payoff
//!   of fixing an instance without fixing it (Eq. 1–4): replace the
//!   object's sampled latencies with the serial-phase average, scale each
//!   thread's runtime by its predicted cycle ratio, and re-time the
//!   fork-join phase graph. This reproduction adds a *line-level* credit
//!   model ([`AssessModel::LineLevel`], the default): the detector tracks
//!   the co-resident objects of every contended line, and a repair that
//!   leaves a line uncontended is credited with every thread's traffic on
//!   the line — the joint payoff of cross-object fixes the per-object
//!   model misses.
//! * **Reporting** ([`report`]): Fig. 5-style reports with object bounds,
//!   invalidation counts, latency totals, predicted improvement and the
//!   allocation callsite or global symbol name.
//! * **Layout decision** ([`layout`]): the pad / align / split rule shared
//!   by the repair planner and the static analysis.
//!
//! [`CheetahProfiler`] composes all of it behind
//! [`cheetah_sim::ExecObserver`] so that profiling a simulated program is
//! one constructor call — see the type-level example.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod assess;
pub mod classify;
pub mod config;
pub mod detect;
pub mod explore;
pub mod layout;
pub mod profiler;
pub mod report;

pub use assess::{
    assess, assess_with_model, AssessContext, AssessModel, Assessment, ThreadAssessment,
};
pub use classify::{
    collect_instances, ObjectDescriptor, ObjectOrigin, SharingInstance, SharingKind, WordReport,
};
pub use config::{
    CheetahConfig, DetectorConfig, DetectorConfigError, IngestLimits, ProfilerConfigError,
};
pub use detect::{
    CountMinSketch, Detector, IngestOutcome, IngestStats, LineAccum, LinePrefilter, LineResidency,
    LineSlice, ObjectAccum, ObjectKey, QuarantineCounts, ThreadOnObject, TwoEntryTable,
    WriteOutcome,
};
// Fault-injection vocabulary, re-exported so downstream harnesses can build
// faulted configurations without depending on cheetah-pmu directly.
pub use cheetah_pmu::{CorruptFields, FaultCounts, FaultPlan};
pub use explore::{hidden_findings, union_findings, UnionFinding};
pub use layout::{layout_strategy, RepairStrategy};
pub use profiler::{CheetahProfiler, Profile};
pub use report::{format_word_profile, AssessedInstance};
