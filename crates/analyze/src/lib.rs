//! # cheetah-analyze — static false-sharing analysis over the workload IR
//!
//! Everything in `cheetah-core` works *after* the fact: run the program,
//! sample it, classify what the samples show. This crate works *ahead of
//! execution*: the workload IR already declares, per thread, a byte-range
//! superset of everything its stream will touch ([`cheetah_sim::Footprint`],
//! the contract the sharded executor's extent classification relies on).
//! Intersecting those declared extents at cache-line granularity is enough
//! to classify every line a program can touch — without simulating a
//! single access:
//!
//! * **statically-private** — at most one parallel identity on the line;
//! * **read-shared** — several identities, none writing;
//! * **true-sharing-candidate** — a writer shares *bytes* with another
//!   identity;
//! * **false-sharing-candidate** — a writer shares only the *line*.
//!
//! The classification is sound in the RacerD sense: the dynamic detector
//! can only ever report sharing on candidate lines, because an
//! invalidation needs two thread ids on one line with a writer, and the
//! summary's identities are exactly the executor's thread ids with their
//! declared extents as access supersets ([`crosscheck`] states and checks
//! the property; the `soundness` integration test proves it over the full
//! workload registry, pre- and post-repair).
//!
//! Three consumers:
//!
//! * [`summary`] + [`report`] — the analyzer itself: classified line
//!   ranges, object-level findings with `pad`/`align`/`split` suggestions
//!   mirroring the dynamic repair planner's vocabulary.
//! * [`report::prefilter_for`] — a [`cheetah_core::LinePrefilter`] of
//!   lines the detector may skip with bit-identical output, shrinking its
//!   tables on workloads dominated by private data.
//! * [`lint`] — structured diagnostics for workload-declaration bugs
//!   (under-declared footprints, `Unknown` streams, overlapping extents,
//!   duplicate worker names) that would otherwise silently degrade both
//!   this analysis and the sharded executor.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod crosscheck;
pub mod lint;
pub mod report;
pub mod summary;

pub use crosscheck::soundness_violations;
pub use lint::{lint_static, lint_workload, LintDiagnostic};
pub use report::{analyze_layout, prefilter_for, FindingOrigin, ObjectFinding, StaticReport};
pub use summary::{summarize, ClassifiedRange, Identity, LineClass, StaticSummary};
