//! Workload-declaration lints: the bugs that silently degrade the
//! analyses built on declared footprints.
//!
//! Every result in this crate — and the simulator's extent classification,
//! classic-loop run-ahead and checkpoint prefix rule — is only as sound as
//! the workload's declarations. A stream whose [`Footprint`] misses
//! executed accesses is trusted anyway (the sharded simulator at most
//! demotes the stray accesses, silently); an `Unknown` footprint quietly
//! disables the static analysis; overlapping object extents make address
//! attribution ambiguous. `--lint` turns each of these into a structured
//! [`LintDiagnostic`] that CI can gate on.
//!
//! Two passes, neither of which simulates:
//!
//! * [`lint_static`] inspects declarations only (unknown footprints,
//!   overlapping extents, duplicate worker names);
//! * [`lint_workload`] adds [`cheetah_sim::footprint::audit`], which drains
//!   every serial and parallel stream against its declared footprint byte
//!   by byte and reports each violating thread.

use cheetah_heap::AddressSpace;
use cheetah_sim::footprint::{audit, FootprintViolation};
use cheetah_sim::{Footprint, Phase, Program};

/// One declaration bug found in a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintDiagnostic {
    /// A parallel worker's stream declares [`Footprint::Unknown`]: the
    /// static analysis degrades to "everything is a candidate", the
    /// footprint audit cannot check it, and the sharded executor drains
    /// it into a trace before classifying.
    UnknownFootprint {
        /// Phase index the worker runs in.
        phase: usize,
        /// Declared worker name.
        thread: String,
    },
    /// A thread's accesses fell outside its stream's declared footprint
    /// (the [`audit`] record: phase, thread, count and first access).
    FootprintViolations(FootprintViolation),
    /// Two live tracked objects claim overlapping byte extents, making
    /// sampled-address attribution ambiguous.
    OverlappingExtents {
        /// Label of the lower-addressed object.
        a: String,
        /// Label of the overlapping object.
        b: String,
    },
    /// Two workers of the same parallel phase declare the same name —
    /// reports and traces cannot tell them apart.
    DuplicateWorkerName {
        /// Phase index.
        phase: usize,
        /// The shared name.
        name: String,
    },
}

impl std::fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintDiagnostic::UnknownFootprint { phase, thread } => write!(
                f,
                "unknown footprint: worker '{thread}' of phase {phase} declares \
                 Footprint::Unknown (static analysis degrades to all-candidate)"
            ),
            LintDiagnostic::FootprintViolations(violation) => {
                let (addr, kind) = violation.first;
                write!(
                    f,
                    "footprint under-declared: thread '{}' of phase {} makes {} accesses \
                     outside its declared extents (first: {kind} {addr})",
                    violation.thread, violation.phase, violation.count
                )
            }
            LintDiagnostic::OverlappingExtents { a, b } => {
                write!(f, "overlapping object extents: '{a}' overlaps '{b}'")
            }
            LintDiagnostic::DuplicateWorkerName { phase, name } => {
                write!(
                    f,
                    "duplicate worker name '{name}' in parallel phase {phase}"
                )
            }
        }
    }
}

/// Declaration-only lints: unknown parallel footprints, overlapping live
/// object extents, duplicate worker names per phase.
pub fn lint_static(program: &Program, space: &AddressSpace) -> Vec<LintDiagnostic> {
    let mut out = Vec::new();
    for (phase_index, phase) in program.phases().iter().enumerate() {
        if let Phase::Parallel(specs) = phase {
            let mut seen: Vec<&str> = Vec::new();
            for spec in specs {
                if matches!(spec.footprint(), Footprint::Unknown) {
                    out.push(LintDiagnostic::UnknownFootprint {
                        phase: phase_index,
                        thread: spec.name().to_string(),
                    });
                }
                if seen.contains(&spec.name()) {
                    let diagnostic = LintDiagnostic::DuplicateWorkerName {
                        phase: phase_index,
                        name: spec.name().to_string(),
                    };
                    if !out.contains(&diagnostic) {
                        out.push(diagnostic);
                    }
                } else {
                    seen.push(spec.name());
                }
            }
        }
    }

    // Live extents: (start, end, label), sorted; adjacent overlap check.
    let mut extents: Vec<(u64, u64, String)> = space
        .heap()
        .objects()
        .iter()
        .filter(|o| o.live)
        .map(|o| (o.start.0, o.reserved_end().0, o.id.to_string()))
        .chain(
            space
                .globals()
                .symbols()
                .iter()
                .map(|s| (s.start.0, s.end().0, s.name.clone())),
        )
        .collect();
    extents.sort();
    for pair in extents.windows(2) {
        if pair[1].0 < pair[0].1 {
            out.push(LintDiagnostic::OverlappingExtents {
                a: pair[0].2.clone(),
                b: pair[1].2.clone(),
            });
        }
    }
    out
}

/// Both passes over one workload instance: static lints first, then the
/// footprint audit (which consumes the program).
pub fn lint_workload(program: Program, space: &AddressSpace) -> Vec<LintDiagnostic> {
    let mut out = lint_static(&program, space);
    out.extend(
        audit(program)
            .into_iter()
            .map(LintDiagnostic::FootprintViolations),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_sim::{AccessKind, Addr, ByteExtent, LoopStream, Op, ProgramBuilder, ThreadSpec};

    #[test]
    fn clean_program_has_no_diagnostics() {
        let program = ProgramBuilder::new("clean")
            .parallel(vec![
                ThreadSpec::new("a", LoopStream::new(vec![Op::Write(Addr(0x4000_0000))], 16)),
                ThreadSpec::new("b", LoopStream::new(vec![Op::Write(Addr(0x4000_0040))], 16)),
            ])
            .build();
        let space = AddressSpace::new();
        assert!(lint_workload(program, &space).is_empty());
    }

    #[test]
    fn unknown_footprint_and_duplicate_name_flagged() {
        struct Opaque;
        impl cheetah_sim::AccessStream for Opaque {
            fn next_op(&mut self) -> Option<Op> {
                None
            }
        }
        let program = ProgramBuilder::new("bad")
            .parallel(vec![
                ThreadSpec::new("w", Opaque),
                ThreadSpec::new("w", LoopStream::new(vec![Op::Work(1)], 1)),
            ])
            .build();
        let diagnostics = lint_static(&program, &AddressSpace::new());
        assert!(diagnostics.iter().any(
            |d| matches!(d, LintDiagnostic::UnknownFootprint { thread, .. } if thread == "w")
        ));
        assert!(diagnostics
            .iter()
            .any(|d| matches!(d, LintDiagnostic::DuplicateWorkerName { name, .. } if name == "w")));
    }

    /// A stream that claims one word but writes a second line too.
    struct Liar {
        ops: Vec<Op>,
    }

    impl cheetah_sim::AccessStream for Liar {
        fn next_op(&mut self) -> Option<Op> {
            self.ops.pop()
        }
        fn footprint(&self) -> Footprint {
            Footprint::bounded(vec![ByteExtent::word(Addr(0x4000_0000), true)])
        }
    }

    fn liar() -> ThreadSpec {
        ThreadSpec::new(
            "liar",
            Liar {
                ops: vec![Op::Write(Addr(0x4000_1000)), Op::Write(Addr(0x4000_0000))],
            },
        )
    }

    fn honest(slot: u64) -> ThreadSpec {
        ThreadSpec::new(
            format!("honest-{slot}"),
            LoopStream::new(vec![Op::Write(Addr(0x4000_0100 + 64 * slot))], 4),
        )
    }

    /// Lints `program` and asserts the liar's record: one stray write.
    fn assert_liar_flagged(program: Program, phase: usize) {
        let diagnostics = lint_workload(program, &AddressSpace::new());
        assert_eq!(
            diagnostics,
            vec![LintDiagnostic::FootprintViolations(FootprintViolation {
                phase,
                thread: "liar".to_string(),
                count: 1,
                first: (Addr(0x4000_1000), AccessKind::Write),
            })]
        );
    }

    #[test]
    fn under_declared_parallel_footprint_flagged() {
        let program = ProgramBuilder::new("liar")
            .parallel(vec![liar(), honest(0)])
            .build();
        assert_liar_flagged(program, 0);
    }

    #[test]
    fn under_declared_serial_footprint_flagged() {
        let program = ProgramBuilder::new("serial-liar")
            .parallel(vec![honest(0), honest(1)])
            .serial(liar())
            .build();
        assert_liar_flagged(program, 1);
    }

    #[test]
    fn liar_among_more_workers_than_cores_flagged() {
        // 50 workers on the default 48 cores: more workers than cores.
        let mut workers: Vec<ThreadSpec> = (0..49).map(honest).collect();
        workers.push(liar());
        let program = ProgramBuilder::new("crowded-liar")
            .parallel(workers)
            .build();
        assert_liar_flagged(program, 0);
    }
}
