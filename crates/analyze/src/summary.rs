//! Per-(thread, phase) access summaries and their cache-line intersection.
//!
//! The summary domain is deliberately simple: one **identity** per worker
//! slot of each parallel phase (plus one for the main thread across every
//! serial phase), and per identity the byte-range extents its stream
//! declares through [`Footprint`], each flagged read or write. Identities
//! mirror the dynamic executor's thread numbering exactly — the engine
//! hands out a fresh [`cheetah_sim::ThreadId`] per spawned worker, so a
//! logical worker re-spawned across phases (streamcluster's three
//! `localSearch` phases) is *two identities here and two thread ids
//! there*. That one-to-one correspondence is what makes the line
//! classification sound against the dynamic detector: the detector's
//! two-entry tables accrue invalidations across phases keyed on thread
//! ids, so any line the detector can blame must carry at least two
//! identities, one writing, in this summary.
//!
//! Only **parallel** phases contribute identities to classification. The
//! detector records detailed (word / invalidation) state exclusively for
//! parallel-phase samples — serial writes can trip a line's hot threshold
//! but never appear in its table — so the main thread's serial extents are
//! irrelevant to candidacy. They are still collected (the lint needs
//! them), just not counted.

use cheetah_sim::{ByteExtent, CacheLineId, Footprint, Program};

/// Verdict for one cache line, from declared footprints alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineClass {
    /// At most one parallel identity touches the line: the dynamic
    /// detector can never record an invalidation on it.
    StaticallyPrivate,
    /// Two or more identities, none writing: invalidations are impossible
    /// (the two-entry table only charges writes).
    ReadShared,
    /// Two or more identities with a writer, and some byte of the line is
    /// touched by two identities with a writer among them — the static
    /// analogue of the detector's "same word" true-sharing verdict.
    TrueShareCandidate,
    /// Two or more identities with a writer on byte-disjoint parts of the
    /// line: the classic false-sharing shape, fixable by layout.
    FalseShareCandidate,
}

impl LineClass {
    /// Whether the dynamic detector could report sharing on such a line.
    pub fn is_candidate(self) -> bool {
        matches!(
            self,
            LineClass::TrueShareCandidate | LineClass::FalseShareCandidate
        )
    }
}

impl std::fmt::Display for LineClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LineClass::StaticallyPrivate => "statically-private",
            LineClass::ReadShared => "read-shared",
            LineClass::TrueShareCandidate => "true-sharing-candidate",
            LineClass::FalseShareCandidate => "false-sharing-candidate",
        })
    }
}

/// One static thread identity: a worker slot of one parallel phase, or
/// the main thread (all serial phases fold into the single main identity,
/// matching [`cheetah_sim::ThreadId::MAIN`] dynamically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Identity {
    /// Phase index the identity runs in; `None` for the main thread.
    pub phase: Option<u32>,
    /// Worker slot within the phase; `None` for the main thread.
    pub slot: Option<u32>,
    /// Declared thread name.
    pub name: String,
    /// Whether the identity's stream declared [`Footprint::Unknown`].
    pub unknown_footprint: bool,
}

impl Identity {
    /// Whether this is the main (serial-phase) identity.
    pub fn is_main(&self) -> bool {
        self.phase.is_none()
    }
}

/// A classified, maximal run of cache lines sharing one verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifiedRange {
    /// First line id of the range.
    pub start_line: u64,
    /// One past the last line id.
    pub end_line: u64,
    /// The verdict.
    pub class: LineClass,
    /// Distinct parallel identities touching the range's lines.
    pub identities: u32,
    /// Distinct parallel identities writing to the range's lines.
    pub writers: u32,
}

impl ClassifiedRange {
    /// Number of lines in the range.
    pub fn lines(&self) -> u64 {
        self.end_line - self.start_line
    }
}

/// The complete static summary of one program: every touched line
/// classified, plus the identity table the classification came from.
#[derive(Debug, Clone)]
pub struct StaticSummary {
    /// Cache line size the summary was computed for.
    pub line_size: u64,
    /// Sorted, disjoint classified ranges; lines outside every range are
    /// untouched by any declared parallel footprint.
    pub ranges: Vec<ClassifiedRange>,
    /// Every identity of the program, main first, then phase-major order.
    pub identities: Vec<Identity>,
    /// Per-identity declared extents, parallel identities only, index
    /// aligned with the parallel members of [`identities`]. Used by the
    /// report stage to attribute candidate lines back to threads.
    ///
    /// [`identities`]: StaticSummary::identities
    per_identity_extents: Vec<(usize, Vec<ByteExtent>)>,
}

impl StaticSummary {
    /// Whether any parallel identity declared an unknown footprint — in
    /// which case nothing can be proven private and the candidate set is
    /// conservatively "every line".
    pub fn has_unknown_parallel_footprint(&self) -> bool {
        self.identities
            .iter()
            .any(|i| !i.is_main() && i.unknown_footprint)
    }

    /// The class of one line; `None` if no declared footprint touches it.
    pub fn class_of(&self, line: CacheLineId) -> Option<LineClass> {
        if self.has_unknown_parallel_footprint() {
            // An unknown stream may touch any line with writes.
            return Some(LineClass::FalseShareCandidate);
        }
        let idx = self.ranges.partition_point(|r| r.end_line <= line.0);
        self.ranges
            .get(idx)
            .filter(|r| r.start_line <= line.0)
            .map(|r| r.class)
    }

    /// Whether the dynamic detector could possibly report sharing on
    /// `line` — the membership test of the RacerD-style soundness
    /// property: dynamic findings must all land on candidate lines.
    pub fn is_candidate(&self, line: CacheLineId) -> bool {
        self.class_of(line).is_some_and(LineClass::is_candidate)
    }

    /// The candidate line ranges (true- or false-sharing), sorted.
    pub fn candidate_ranges(&self) -> impl Iterator<Item = &ClassifiedRange> {
        self.ranges.iter().filter(|r| r.class.is_candidate())
    }

    /// Total touched lines per class, in
    /// `(private, read_shared, true_candidate, false_candidate)` order.
    pub fn class_totals(&self) -> (u64, u64, u64, u64) {
        let mut totals = (0, 0, 0, 0);
        for range in &self.ranges {
            let bucket = match range.class {
                LineClass::StaticallyPrivate => &mut totals.0,
                LineClass::ReadShared => &mut totals.1,
                LineClass::TrueShareCandidate => &mut totals.2,
                LineClass::FalseShareCandidate => &mut totals.3,
            };
            *bucket += range.lines();
        }
        totals
    }

    /// Per-identity declared extents of parallel identities:
    /// `(identity index, normalized extents)`.
    pub fn parallel_extents(&self) -> &[(usize, Vec<ByteExtent>)] {
        &self.per_identity_extents
    }
}

/// Boundary-sweep event at byte granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    pos: u64,
    /// Closes sort before opens at the same position (half-open extents).
    open: bool,
    ident: u32,
    wrote: bool,
}

/// A maximal byte segment with a fixed set of active identities.
#[derive(Debug, Clone)]
struct Segment {
    start: u64,
    end: u64,
    idents: Vec<u32>,
    writer_idents: Vec<u32>,
}

/// Computes the static summary of `program` at `line_size`-byte lines.
///
/// Runs two boundary sweeps: one at byte granularity to find segments of
/// constant identity sets (and byte-overlap evidence for the true/false
/// split), then one at line granularity to union the segments touching
/// each line into its verdict.
pub fn summarize(program: &Program, line_size: u64) -> StaticSummary {
    assert!(line_size.is_power_of_two(), "line size power of two");
    let mut identities: Vec<Identity> = Vec::new();
    let mut main_unknown = false;
    let mut main_seen = false;
    let mut per_identity_extents: Vec<(usize, Vec<ByteExtent>)> = Vec::new();
    let mut events: Vec<Event> = Vec::new();

    for (phase_index, phase) in program.phases().iter().enumerate() {
        match phase {
            cheetah_sim::Phase::Serial(spec) => {
                main_seen = true;
                if matches!(spec.footprint(), Footprint::Unknown) {
                    main_unknown = true;
                }
            }
            cheetah_sim::Phase::Parallel(specs) => {
                for (slot, spec) in specs.iter().enumerate() {
                    let footprint = spec.footprint();
                    let unknown = matches!(footprint, Footprint::Unknown);
                    let ident_index = identities.len();
                    identities.push(Identity {
                        phase: Some(phase_index as u32),
                        slot: Some(slot as u32),
                        name: spec.name().to_string(),
                        unknown_footprint: unknown,
                    });
                    if let Footprint::Bounded(extents) = footprint {
                        for extent in &extents {
                            events.push(Event {
                                pos: extent.start,
                                open: true,
                                ident: ident_index as u32,
                                wrote: extent.wrote,
                            });
                            events.push(Event {
                                pos: extent.end,
                                open: false,
                                ident: ident_index as u32,
                                wrote: extent.wrote,
                            });
                        }
                        per_identity_extents.push((ident_index, extents));
                    }
                }
            }
        }
    }
    if main_seen {
        identities.insert(
            0,
            Identity {
                phase: None,
                slot: None,
                name: "main".to_string(),
                unknown_footprint: main_unknown,
            },
        );
        // Identity indices in events/extents were assigned before the main
        // identity was prepended; shift them to stay aligned.
        for event in &mut events {
            event.ident += 1;
        }
        for (index, _) in &mut per_identity_extents {
            *index += 1;
        }
    }

    let segments = sweep_segments(events);
    let ranges = classify_lines(&segments, line_size);

    StaticSummary {
        line_size,
        ranges,
        identities,
        per_identity_extents,
    }
}

/// Byte-granularity boundary sweep: maximal segments of constant active
/// identity sets. Empty segments are dropped.
fn sweep_segments(mut events: Vec<Event>) -> Vec<Segment> {
    events.sort_unstable();
    let mut segments = Vec::new();
    // identity -> (open count, open write count)
    let mut active: Vec<(u32, (u32, u32))> = Vec::new();
    let mut cursor = 0u64;
    let mut i = 0;
    while i < events.len() {
        let pos = events[i].pos;
        if pos > cursor && !active.is_empty() {
            let idents: Vec<u32> = active.iter().map(|&(id, _)| id).collect();
            let writer_idents: Vec<u32> = active
                .iter()
                .filter(|&&(_, (_, writes))| writes > 0)
                .map(|&(id, _)| id)
                .collect();
            segments.push(Segment {
                start: cursor,
                end: pos,
                idents,
                writer_idents,
            });
        }
        while i < events.len() && events[i].pos == pos {
            let event = events[i];
            let entry = match active.iter_mut().find(|(id, _)| *id == event.ident) {
                Some(entry) => &mut entry.1,
                None => {
                    active.push((event.ident, (0, 0)));
                    &mut active.last_mut().expect("just pushed").1
                }
            };
            if event.open {
                entry.0 += 1;
                entry.1 += u32::from(event.wrote);
            } else {
                entry.0 -= 1;
                entry.1 -= u32::from(event.wrote);
            }
            i += 1;
        }
        active.retain(|&(_, (count, _))| count > 0);
        active.sort_unstable_by_key(|&(id, _)| id);
        cursor = pos;
    }
    segments
}

/// Line-granularity classification from byte segments: each line's
/// identity set is the union over segments overlapping it, and byte-level
/// co-location of a writer with a second identity marks the true-sharing
/// flavour. Adjacent lines with identical verdicts merge into ranges.
fn classify_lines(segments: &[Segment], line_size: u64) -> Vec<ClassifiedRange> {
    // Line-extent events carrying the segment index.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct LineEvent {
        line: u64,
        open: bool,
        segment: u32,
    }
    let mut events: Vec<LineEvent> = Vec::with_capacity(segments.len() * 2);
    for (index, segment) in segments.iter().enumerate() {
        let first = segment.start / line_size;
        let last = (segment.end - 1) / line_size + 1;
        events.push(LineEvent {
            line: first,
            open: true,
            segment: index as u32,
        });
        events.push(LineEvent {
            line: last,
            open: false,
            segment: index as u32,
        });
    }
    events.sort_unstable();

    let mut out: Vec<ClassifiedRange> = Vec::new();
    let mut active: Vec<u32> = Vec::new();
    let mut cursor = 0u64;
    let mut i = 0;
    while i < events.len() {
        let line = events[i].line;
        if line > cursor && !active.is_empty() {
            let mut idents: Vec<u32> = Vec::new();
            let mut writers: Vec<u32> = Vec::new();
            let mut true_overlap = false;
            for &seg in &active {
                let segment = &segments[seg as usize];
                for &id in &segment.idents {
                    if !idents.contains(&id) {
                        idents.push(id);
                    }
                }
                for &id in &segment.writer_idents {
                    if !writers.contains(&id) {
                        writers.push(id);
                    }
                }
                if segment.idents.len() >= 2 && !segment.writer_idents.is_empty() {
                    true_overlap = true;
                }
            }
            let class = if idents.len() <= 1 {
                LineClass::StaticallyPrivate
            } else if writers.is_empty() {
                LineClass::ReadShared
            } else if true_overlap {
                LineClass::TrueShareCandidate
            } else {
                LineClass::FalseShareCandidate
            };
            push_range(
                &mut out,
                ClassifiedRange {
                    start_line: cursor,
                    end_line: line,
                    class,
                    identities: idents.len() as u32,
                    writers: writers.len() as u32,
                },
            );
        }
        while i < events.len() && events[i].line == line {
            let event = &events[i];
            if event.open {
                active.push(event.segment);
            } else {
                active.retain(|&seg| seg != event.segment);
            }
            i += 1;
        }
        cursor = line;
    }
    out
}

/// Appends a range, merging with the previous one when contiguous and
/// identically classified.
fn push_range(out: &mut Vec<ClassifiedRange>, range: ClassifiedRange) {
    if let Some(last) = out.last_mut() {
        if last.end_line == range.start_line
            && last.class == range.class
            && last.identities == range.identities
            && last.writers == range.writers
        {
            last.end_line = range.end_line;
            return;
        }
    }
    out.push(range);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_sim::{Addr, LoopStream, Op, ProgramBuilder, ThreadSpec};

    fn two_writer_program(offsets: (u64, u64)) -> Program {
        ProgramBuilder::new("two")
            .parallel(vec![
                ThreadSpec::new(
                    "a",
                    LoopStream::new(vec![Op::Write(Addr(0x4000_0000 + offsets.0))], 10),
                ),
                ThreadSpec::new(
                    "b",
                    LoopStream::new(vec![Op::Write(Addr(0x4000_0000 + offsets.1))], 10),
                ),
            ])
            .build()
    }

    #[test]
    fn disjoint_words_same_line_is_false_candidate() {
        let summary = summarize(&two_writer_program((0, 8)), 64);
        assert_eq!(
            summary.class_of(Addr(0x4000_0000).line(64)),
            Some(LineClass::FalseShareCandidate)
        );
        assert!(summary.is_candidate(Addr(0x4000_0000).line(64)));
    }

    #[test]
    fn same_word_is_true_candidate() {
        let summary = summarize(&two_writer_program((0, 0)), 64);
        assert_eq!(
            summary.class_of(Addr(0x4000_0000).line(64)),
            Some(LineClass::TrueShareCandidate)
        );
    }

    #[test]
    fn separate_lines_are_private() {
        let summary = summarize(&two_writer_program((0, 64)), 64);
        assert_eq!(
            summary.class_of(Addr(0x4000_0000).line(64)),
            Some(LineClass::StaticallyPrivate)
        );
        assert_eq!(
            summary.class_of(Addr(0x4000_0040).line(64)),
            Some(LineClass::StaticallyPrivate)
        );
        assert!(summary.candidate_ranges().next().is_none());
    }

    #[test]
    fn read_only_sharing_is_read_shared() {
        let program = ProgramBuilder::new("readers")
            .parallel(
                (0..3u64)
                    .map(|t| {
                        let _ = t;
                        ThreadSpec::new("r", LoopStream::new(vec![Op::Read(Addr(0x4000_0000))], 10))
                    })
                    .collect(),
            )
            .build();
        let summary = summarize(&program, 64);
        assert_eq!(
            summary.class_of(Addr(0x4000_0000).line(64)),
            Some(LineClass::ReadShared)
        );
    }

    #[test]
    fn untouched_lines_unclassified() {
        let summary = summarize(&two_writer_program((0, 8)), 64);
        assert_eq!(summary.class_of(Addr(0x5000_0000).line(64)), None);
    }

    #[test]
    fn cross_phase_identities_accumulate() {
        // The same slot re-spawned in a second phase is a distinct
        // identity; the detector would see distinct thread ids, so one
        // writer per phase on one line is still a candidate.
        let program = ProgramBuilder::new("respawn")
            .parallel(vec![ThreadSpec::new(
                "w0",
                LoopStream::new(vec![Op::Write(Addr(0x4000_0000))], 10),
            )])
            .parallel(vec![ThreadSpec::new(
                "w0",
                LoopStream::new(vec![Op::Write(Addr(0x4000_0008))], 10),
            )])
            .build();
        let summary = summarize(&program, 64);
        assert_eq!(
            summary.class_of(Addr(0x4000_0000).line(64)),
            Some(LineClass::FalseShareCandidate)
        );
    }

    #[test]
    fn serial_main_does_not_create_candidates() {
        let program = ProgramBuilder::new("init")
            .serial(ThreadSpec::new(
                "init",
                LoopStream::new(vec![Op::Write(Addr(0x4000_0000))], 10),
            ))
            .parallel(vec![ThreadSpec::new(
                "w0",
                LoopStream::new(vec![Op::Write(Addr(0x4000_0000))], 10),
            )])
            .build();
        let summary = summarize(&program, 64);
        // Only one *parallel* identity: private, exactly like the
        // detector (serial samples never enter two-entry tables).
        assert_eq!(
            summary.class_of(Addr(0x4000_0000).line(64)),
            Some(LineClass::StaticallyPrivate)
        );
        assert!(summary.identities[0].is_main());
    }

    #[test]
    fn unknown_parallel_footprint_poisons_candidacy() {
        struct Opaque;
        impl cheetah_sim::AccessStream for Opaque {
            fn next_op(&mut self) -> Option<Op> {
                None
            }
        }
        let program = ProgramBuilder::new("opaque")
            .parallel(vec![
                ThreadSpec::new("u", Opaque),
                ThreadSpec::new("w", LoopStream::new(vec![Op::Write(Addr(0x4000_0000))], 10)),
            ])
            .build();
        let summary = summarize(&program, 64);
        assert!(summary.has_unknown_parallel_footprint());
        // Everything is conservatively a candidate.
        assert!(summary.is_candidate(CacheLineId(0)));
        assert!(summary.is_candidate(Addr(0x4000_0000).line(64)));
    }
}
