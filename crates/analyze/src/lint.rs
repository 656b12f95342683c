//! Workload-declaration lints: the bugs that silently degrade the
//! analyses built on declared footprints.
//!
//! Every result in this crate — and the sharded executor's extent
//! classification — is only as sound as the workload's declarations. A
//! stream whose [`Footprint`] misses executed accesses used to surface as
//! a silent per-line fallback deep inside the sharded simulator; an
//! `Unknown` footprint quietly disables the static analysis; overlapping
//! object extents make address attribution ambiguous. `--lint` turns each
//! of these into a structured [`LintDiagnostic`] that CI can gate on.
//!
//! Two passes:
//!
//! * [`lint_static`] inspects declarations only (unknown footprints,
//!   overlapping extents, duplicate worker names) — cheap, no execution.
//! * [`lint_execution`] actually runs the program sharded (2 shards) on a
//!   fresh telemetry registry and reads back
//!   [`cheetah_sim::metrics::FOOTPRINT_VIOLATIONS`]: the count of
//!   accesses the executor had to classify via its contract-violation
//!   fallback because the declared footprint did not cover them.

use cheetah_heap::AddressSpace;
use cheetah_sim::observer::NullObserver;
use cheetah_sim::{Footprint, Machine, MachineConfig, ObsHandle, Phase, Program};

/// One declaration bug found in a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintDiagnostic {
    /// A parallel worker's stream declares [`Footprint::Unknown`]: the
    /// static analysis degrades to "everything is a candidate" and the
    /// sharded executor falls back to per-touched-line classification.
    UnknownFootprint {
        /// Phase index the worker runs in.
        phase: usize,
        /// Declared worker name.
        thread: String,
    },
    /// Executed accesses fell outside their stream's declared footprint:
    /// the sharded executor classified them through its violation
    /// fallback (demotion to the fully-ordered write-shared path).
    FootprintViolations {
        /// Number of fallback classifications during the lint run.
        count: u64,
    },
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
            LintDiagnostic::FootprintViolations { count } => write!(
                f,
                "footprint under-declared: {count} executed accesses fell outside their \
                 stream's declared extents (sharded executor used the violation fallback)"
            ),
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

/// Execution lint: runs `program` under the sharded executor (2 shards)
/// on a fresh telemetry registry and reports any contract-violation
/// fallbacks — executed accesses the declared footprints did not cover.
///
/// Consumes the program (streams are single-use); build a fresh instance
/// for profiling afterwards.
pub fn lint_execution(program: Program) -> Vec<LintDiagnostic> {
    let obs = ObsHandle::fresh();
    let machine = Machine::new(
        MachineConfig::default()
            .with_shards(2)
            .with_obs(obs.clone()),
    );
    machine.run(program, &mut NullObserver);
    let count = obs
        .counter(cheetah_sim::metrics::FOOTPRINT_VIOLATIONS)
        .get();
    if count > 0 {
        vec![LintDiagnostic::FootprintViolations { count }]
    } else {
        Vec::new()
    }
}

/// Both passes over one workload instance: static lints first, then the
/// execution lint (which consumes the program).
pub fn lint_workload(program: Program, space: &AddressSpace) -> Vec<LintDiagnostic> {
    let mut out = lint_static(&program, space);
    out.extend(lint_execution(program));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_sim::{Addr, ByteExtent, LoopStream, Op, ProgramBuilder, ThreadSpec};

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

    #[test]
    fn under_declared_footprint_caught_by_execution_lint() {
        // A stream that claims one word but writes a second line too.
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
        let program = ProgramBuilder::new("liar")
            .parallel(vec![
                ThreadSpec::new(
                    "liar",
                    Liar {
                        ops: vec![Op::Write(Addr(0x4000_0000)), Op::Write(Addr(0x4000_1000))],
                    },
                ),
                ThreadSpec::new(
                    "honest",
                    LoopStream::new(vec![Op::Write(Addr(0x4000_0100))], 4),
                ),
            ])
            .build();
        let diagnostics = lint_execution(program);
        assert!(
            matches!(
                diagnostics.as_slice(),
                [LintDiagnostic::FootprintViolations { count }] if *count > 0
            ),
            "expected a violation diagnostic, got {diagnostics:?}"
        );
    }
}
