//! Object-level report over a [`StaticSummary`], and the detector
//! pre-filter derived from it.
//!
//! The summary classifies *lines*; programmers fix *objects*. This module
//! intersects the classified line ranges with the heap/global layout,
//! attributes each candidate line back to the objects living on it, and
//! synthesizes the same three repair shapes the dynamic planner emits
//! (`pad-to-line` / `align-to-line` / `split-per-thread`) from declared
//! extents instead of sampled word maps.
//!
//! [`prefilter_for`] is the load-bearing export: the set of lines the
//! dynamic detector may skip without changing a single bit of its output.
//! A line is skippable only when **both** hold:
//!
//! 1. it is statically private (or untouched by any declared footprint) —
//!    the detector could never record an invalidation on it, and
//! 2. every byte of the line belongs to tracked objects none of whose
//!    lines are sharing candidates — so skipping its samples cannot
//!    perturb any *reportable* object's counters, nor the profile's
//!    unattributed-sample count (rule 2 forbids skipping lines with
//!    attribution gaps).
//!
//! Objects that never touch a candidate line accrue zero invalidations,
//! which sits below every report floor; their sampled reads, writes and
//! latencies are therefore dead state, and dropping the samples early is
//! observationally equivalent. Any parallel identity with an unknown
//! footprint disables the pre-filter entirely.

use crate::summary::{LineClass, StaticSummary};
use cheetah_core::{layout_strategy, LinePrefilter, RepairStrategy};
use cheetah_heap::AddressSpace;

/// Where a reported object lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingOrigin {
    /// A tracked heap allocation.
    Heap,
    /// A registered global symbol.
    Global,
}

/// One object intersected with the classified lines.
#[derive(Debug, Clone)]
pub struct ObjectFinding {
    /// Callsite (heap) or symbol name (global).
    pub label: String,
    /// Heap or global.
    pub origin: FindingOrigin,
    /// First byte of the object.
    pub start: u64,
    /// Reserved bytes (resolution extent).
    pub size: u64,
    /// Worst line class over the object's lines.
    pub class: LineClass,
    /// Candidate (true- or false-sharing) lines overlapping the object.
    pub candidate_lines: u64,
    /// Distinct parallel identities touching the object's candidate lines.
    pub identities: u32,
    /// Suggested layout fix, in the dynamic planner's vocabulary; `None`
    /// when the object has no false-sharing-candidate line (nothing a
    /// layout change could help).
    pub suggestion: Option<RepairStrategy>,
}

/// The ranked static report: most-contended objects first.
#[derive(Debug, Clone)]
pub struct StaticReport {
    /// Cache line size the analysis ran at.
    pub line_size: u64,
    /// Findings, ranked by candidate lines then identity count.
    pub findings: Vec<ObjectFinding>,
    /// Line totals `(private, read_shared, true_candidate,
    /// false_candidate)` over every touched line.
    pub totals: (u64, u64, u64, u64),
}

impl StaticReport {
    /// Findings on candidate lines only (the actionable subset).
    pub fn candidates(&self) -> impl Iterator<Item = &ObjectFinding> {
        self.findings.iter().filter(|f| f.class.is_candidate())
    }

    /// Renders the report as the text the CLI prints.
    pub fn render(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let (private, read_shared, true_c, false_c) = self.totals;
        let _ = writeln!(
            out,
            "static analysis: {name} ({}B lines)\n  lines: {private} statically-private, \
             {read_shared} read-shared, {true_c} true-sharing-candidate, \
             {false_c} false-sharing-candidate",
            self.line_size
        );
        if self.candidates().next().is_none() {
            let _ = writeln!(out, "  no sharing candidates");
            return out;
        }
        for finding in self.candidates() {
            let _ = writeln!(
                out,
                "  {} {} start 0x{:x} size {}: {} ({} candidate line{}, {} threads){}",
                match finding.origin {
                    FindingOrigin::Heap => "heap",
                    FindingOrigin::Global => "global",
                },
                finding.label,
                finding.start,
                finding.size,
                finding.class,
                finding.candidate_lines,
                if finding.candidate_lines == 1 {
                    ""
                } else {
                    "s"
                },
                finding.identities,
                match finding.suggestion {
                    Some(s) => format!(" -> suggest {s}"),
                    None => String::new(),
                },
            );
        }
        out
    }
}

/// A tracked object's byte extent plus its label, the unit the report and
/// the pre-filter reason about.
#[derive(Debug, Clone)]
struct TrackedObject {
    label: String,
    origin: FindingOrigin,
    start: u64,
    end: u64,
    size: u64,
}

fn tracked_objects(space: &AddressSpace) -> Vec<TrackedObject> {
    let mut out = Vec::new();
    for object in space.heap().objects() {
        out.push(TrackedObject {
            label: object
                .callsite
                .innermost()
                .map(|frame| frame.to_string())
                .unwrap_or_else(|| object.id.to_string()),
            origin: FindingOrigin::Heap,
            start: object.start.0,
            end: object.reserved_end().0,
            size: object.class_size,
        });
    }
    for symbol in space.globals().symbols() {
        out.push(TrackedObject {
            label: symbol.name.clone(),
            origin: FindingOrigin::Global,
            start: symbol.start.0,
            end: symbol.end().0,
            size: symbol.size,
        });
    }
    out
}

/// Intersects the classified lines with the heap/global layout into a
/// ranked object report.
pub fn analyze_layout(summary: &StaticSummary, space: &AddressSpace) -> StaticReport {
    let line_size = summary.line_size;
    let mut findings = Vec::new();
    for object in tracked_objects(space) {
        let first_line = object.start / line_size;
        let last_line = (object.end - 1) / line_size + 1;
        let mut worst: Option<LineClass> = None;
        let mut candidate_lines = 0u64;
        let mut false_candidate = false;
        for range in &summary.ranges {
            let lo = range.start_line.max(first_line);
            let hi = range.end_line.min(last_line);
            if lo >= hi {
                continue;
            }
            if range.class.is_candidate() {
                candidate_lines += hi - lo;
                if range.class == LineClass::FalseShareCandidate {
                    false_candidate = true;
                }
            }
            worst = Some(match worst {
                Some(prev) => worse(prev, range.class),
                None => range.class,
            });
        }
        let Some(class) = worst else { continue };
        let (identities, suggestion) = if class.is_candidate() {
            let idents = identities_on(summary, object.start, object.end);
            let suggestion = false_candidate
                .then(|| suggest(summary, object.start, object.end, line_size))
                .flatten();
            (idents, suggestion)
        } else {
            (0, None)
        };
        findings.push(ObjectFinding {
            label: object.label,
            origin: object.origin,
            start: object.start,
            size: object.size,
            class,
            candidate_lines,
            identities,
            suggestion,
        });
    }
    findings.sort_by(|a, b| {
        b.candidate_lines
            .cmp(&a.candidate_lines)
            .then(b.identities.cmp(&a.identities))
            .then(a.start.cmp(&b.start))
    });
    StaticReport {
        line_size,
        findings,
        totals: summary.class_totals(),
    }
}

/// Severity order for the per-object "worst class" roll-up.
fn worse(a: LineClass, b: LineClass) -> LineClass {
    fn rank(class: LineClass) -> u8 {
        match class {
            LineClass::StaticallyPrivate => 0,
            LineClass::ReadShared => 1,
            LineClass::TrueShareCandidate => 2,
            LineClass::FalseShareCandidate => 3,
        }
    }
    if rank(b) > rank(a) {
        b
    } else {
        a
    }
}

/// Distinct parallel identities whose declared extents intersect
/// `[start, end)`.
fn identities_on(summary: &StaticSummary, start: u64, end: u64) -> u32 {
    summary
        .parallel_extents()
        .iter()
        .filter(|(_, extents)| extents.iter().any(|e| e.start < end && start < e.end))
        .count() as u32
}

/// Synthesizes a layout suggestion for the object at `[start, end)` from
/// declared extents, through the dynamic planner's decision
/// ([`layout_strategy`]).
fn suggest(
    summary: &StaticSummary,
    start: u64,
    end: u64,
    line_size: u64,
) -> Option<RepairStrategy> {
    // Clip each parallel identity's extents to the object. Identities with
    // identical clipped extents form one cluster — the static analogue of
    // the planner's ownership signatures (re-spawned workers touch the same
    // bytes in every phase).
    let mut clusters: Vec<Vec<(u64, u64)>> = Vec::new();
    for (_, extents) in summary.parallel_extents() {
        let mut mine: Vec<(u64, u64)> = extents
            .iter()
            .filter(|e| e.start < end && start < e.end)
            .map(|e| (e.start.max(start) - start, e.end.min(end) - start))
            .collect();
        mine.sort_unstable();
        if !mine.is_empty() && !clusters.contains(&mine) {
            clusters.push(mine);
        }
    }
    layout_strategy(
        clusters.iter().map(|cluster| cluster.iter().copied()),
        line_size,
    )
}

/// Builds the sound detector pre-filter: statically-private and untouched
/// lines that are fully covered by objects having no sharing-candidate
/// line anywhere. Returns the empty filter when any parallel identity has
/// an unknown footprint (nothing can be proven private).
pub fn prefilter_for(summary: &StaticSummary, space: &AddressSpace) -> LinePrefilter {
    if summary.has_unknown_parallel_footprint() {
        return LinePrefilter::none();
    }
    let line_size = summary.line_size;
    // Candidate byte ranges (whole lines).
    let candidate_bytes: Vec<(u64, u64)> = summary
        .candidate_ranges()
        .map(|r| (r.start_line * line_size, r.end_line * line_size))
        .collect();
    // Byte extents of objects that overlap no candidate line.
    let mut safe_bytes: Vec<(u64, u64)> = tracked_objects(space)
        .into_iter()
        .filter(|o| {
            !candidate_bytes
                .iter()
                .any(|&(lo, hi)| o.start < hi && lo < o.end)
        })
        .map(|o| (o.start, o.end))
        .collect();
    safe_bytes.sort_unstable();
    // Merge, then keep only *fully covered* lines: a partially covered
    // line may carry unattributed samples whose count the profile
    // reports.
    let mut full_lines: Vec<(u64, u64)> = Vec::new();
    let mut merged: Option<(u64, u64)> = None;
    for (start, end) in safe_bytes
        .into_iter()
        .chain(std::iter::once((u64::MAX, u64::MAX)))
    {
        match merged {
            Some((lo, hi)) if start <= hi => merged = Some((lo, hi.max(end))),
            Some((lo, hi)) => {
                let first = lo.div_ceil(line_size);
                let last = hi / line_size;
                if first < last {
                    full_lines.push((first, last));
                }
                merged = Some((start, end));
            }
            None => merged = Some((start, end)),
        }
    }
    // Remove lines that any non-private classified range touches
    // (read-shared lines stay live: their samples feed word maps of lines
    // serial writes made hot).
    let blocked: Vec<(u64, u64)> = summary
        .ranges
        .iter()
        .filter(|r| r.class != LineClass::StaticallyPrivate)
        .map(|r| (r.start_line, r.end_line))
        .collect();
    LinePrefilter::from_ranges(subtract_ranges(full_lines, &blocked))
}

/// `keep − remove` over sorted, disjoint half-open ranges.
fn subtract_ranges(keep: Vec<(u64, u64)>, remove: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for (mut lo, hi) in keep {
        for &(rlo, rhi) in remove {
            if rhi <= lo || rlo >= hi {
                continue;
            }
            if rlo > lo {
                out.push((lo, rlo));
            }
            lo = lo.max(rhi);
            if lo >= hi {
                break;
            }
        }
        if lo < hi {
            out.push((lo, hi));
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize;
    use cheetah_heap::CallStack;
    use cheetah_sim::{Addr, LoopStream, Op, ProgramBuilder, ThreadId, ThreadSpec};

    fn space_with(sizes: &[u64]) -> (AddressSpace, Vec<u64>) {
        let mut space = AddressSpace::new();
        let mut starts = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let addr = space
                .heap_mut()
                .alloc(
                    ThreadId::MAIN,
                    size,
                    CallStack::single(format!("alloc{i}.c"), 10 + i as u32),
                )
                .expect("alloc");
            starts.push(addr.0);
        }
        (space, starts)
    }

    #[test]
    fn contended_object_reported_with_split_suggestion() {
        let (space, starts) = space_with(&[64]);
        let base = starts[0];
        let program = ProgramBuilder::new("t")
            .parallel(vec![
                ThreadSpec::new("a", LoopStream::new(vec![Op::Write(Addr(base))], 8)),
                ThreadSpec::new("b", LoopStream::new(vec![Op::Write(Addr(base + 8))], 8)),
            ])
            .build();
        let summary = summarize(&program, 64);
        let report = analyze_layout(&summary, &space);
        let finding = report.candidates().next().expect("one candidate");
        assert_eq!(finding.class, LineClass::FalseShareCandidate);
        assert_eq!(finding.suggestion, Some(RepairStrategy::SplitPerThread));
        assert!(report.render("t").contains("split-per-thread"));
    }

    #[test]
    fn prefilter_skips_only_uncontended_whole_objects() {
        // Object 0 is falsely shared, object 1 is thread-private.
        let (space, starts) = space_with(&[64, 64]);
        let (hot, cold) = (starts[0], starts[1]);
        let program = ProgramBuilder::new("t")
            .parallel(vec![
                ThreadSpec::new("a", LoopStream::new(vec![Op::Write(Addr(hot))], 8)),
                ThreadSpec::new(
                    "b",
                    LoopStream::new(vec![Op::Write(Addr(hot + 8)), Op::Write(Addr(cold))], 8),
                ),
            ])
            .build();
        let summary = summarize(&program, 64);
        let prefilter = prefilter_for(&summary, &space);
        assert!(prefilter.contains(Addr(cold).line(64)));
        assert!(!prefilter.contains(Addr(hot).line(64)));
    }

    #[test]
    fn prefilter_rejects_partially_covered_lines() {
        // 32-byte object: its line is half unattributed, so skipping it
        // would change the profile's unattributed-sample count.
        let (space, starts) = space_with(&[32]);
        let base = starts[0];
        let program = ProgramBuilder::new("t")
            .parallel(vec![ThreadSpec::new(
                "a",
                LoopStream::new(vec![Op::Write(Addr(base))], 8),
            )])
            .build();
        let summary = summarize(&program, 64);
        let prefilter = prefilter_for(&summary, &space);
        assert!(!prefilter.contains(Addr(base).line(64)));
    }

    #[test]
    fn aligned_disjoint_halves_suggest_alignment() {
        // Two identities on the two line-aligned halves of a 128-byte
        // object that itself starts line-aligned in this heap model.
        let (space, starts) = space_with(&[128]);
        let base = starts[0];
        assert_eq!(base % 64, 0, "heap model hands out aligned classes");
        let program = ProgramBuilder::new("t")
            .parallel(vec![
                ThreadSpec::new("a", LoopStream::new(vec![Op::Write(Addr(base + 60))], 8)),
                ThreadSpec::new("b", LoopStream::new(vec![Op::Write(Addr(base + 64))], 8)),
            ])
            .build();
        let summary = summarize(&program, 64);
        let report = analyze_layout(&summary, &space);
        // The two writers sit on adjacent but distinct lines — statically
        // private, nothing to suggest.
        assert!(report.candidates().next().is_none());
    }
}
