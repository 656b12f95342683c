//! Report formatting in the style of the paper's Fig. 5.
//!
//! ```text
//! Detecting false sharing at the object: start 0x400004b8
//! end 0x400044b8 (with size 4000).
//! Accesses 4707 invalidations 639 (0x27f) writes 501 total
//! latency 102988 cycles.
//! Latency information:
//! totalThreads 16
//! totalThreadsAccesses 4833 (0x12e1)
//! totalThreadsCycles 1074057
//! totalPossibleImprovementRate 576.172748%
//! (realRuntime 7738 predictedRuntime 1343).
//! It is a heap object with the following callsite:
//! linear_regression-pthread.c: 139
//! ```
//!
//! The paper prints a few counters in hex (`invalidations 27f`); this
//! reproduction prints decimal with the hex in parentheses so reports stay
//! both faithful and greppable.

use crate::assess::Assessment;
use crate::classify::{ObjectOrigin, SharingInstance, SharingKind};
use std::fmt;

/// A sharing instance paired with its assessment, ready to print.
#[derive(Debug, Clone, PartialEq)]
pub struct AssessedInstance {
    /// The detected and classified instance.
    pub instance: SharingInstance,
    /// Its predicted fix impact.
    pub assessment: Assessment,
}

impl AssessedInstance {
    /// Convenience: the predicted improvement factor.
    pub fn improvement(&self) -> f64 {
        self.assessment.improvement
    }

    /// Whether this is a false-sharing (padding-fixable) instance.
    pub fn is_false_sharing(&self) -> bool {
        self.instance.kind == SharingKind::FalseSharing
    }
}

impl fmt::Display for AssessedInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inst = &self.instance;
        let a = &self.assessment;
        writeln!(
            f,
            "Detecting {} at the object: start {} end {} (with size {}).",
            inst.kind,
            inst.object.start,
            inst.object.end(),
            inst.object.size
        )?;
        writeln!(
            f,
            "Accesses {} invalidations {} (0x{:x}) writes {} total latency {} cycles.",
            inst.accesses(),
            inst.invalidations,
            inst.invalidations,
            inst.writes,
            inst.latency
        )?;
        writeln!(f, "Latency information:")?;
        writeln!(f, "totalThreads {}", a.total_threads)?;
        writeln!(
            f,
            "totalThreadsAccesses {} (0x{:x})",
            a.total_thread_accesses, a.total_thread_accesses
        )?;
        writeln!(f, "totalThreadsCycles {}", a.total_thread_cycles)?;
        writeln!(
            f,
            "totalPossibleImprovementRate {:.6}% (realRuntime {} predictedRuntime {:.0}).",
            a.improvement_rate_percent(),
            a.real_runtime,
            a.predicted_runtime
        )?;
        match &inst.object.origin {
            ObjectOrigin::Heap { callsite, .. } => {
                writeln!(f, "It is a heap object with the following callsite:")?;
                writeln!(f, "{callsite}")?;
            }
            ObjectOrigin::Global { name } => {
                writeln!(f, "It is a global object: {name}.")?;
            }
        }
        Ok(())
    }
}

/// Formats the word-granularity access table of an instance — the
/// information programmers use to decide where to pad (§2.4).
pub fn format_word_profile(instance: &SharingInstance) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Word-level accesses for object at {} ({} touched words):",
        instance.object.start,
        instance.words.len()
    );
    for word in &instance.words {
        let shared = if word.stats.is_truly_shared() {
            " [truly shared]"
        } else {
            ""
        };
        let _ = write!(out, "  +{:<5} {}:{}", word.offset, word.addr, shared);
        for t in word.stats.threads() {
            let _ = write!(out, " {}(r{} w{})", t.thread, t.reads, t.writes);
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assess::Assessment;
    use crate::classify::{ObjectDescriptor, WordReport};
    use crate::detect::detector::{ObjectKey, ThreadOnObject};
    use crate::detect::words::WordStats;
    use cheetah_heap::{CallStack, ObjectId};
    use cheetah_sim::{AccessKind, Addr, ThreadId};

    fn assessed() -> AssessedInstance {
        let mut word = WordStats::default();
        word.record(ThreadId(1), 1, AccessKind::Write, 150);
        AssessedInstance {
            instance: SharingInstance {
                key: ObjectKey::Heap(ObjectId(0)),
                object: ObjectDescriptor {
                    origin: ObjectOrigin::Heap {
                        callsite: CallStack::single("linear_regression-pthread.c", 139),
                        allocated_by: ThreadId(0),
                    },
                    start: Addr(0x4000_04b8),
                    size: 4000,
                },
                kind: SharingKind::FalseSharing,
                reads: 762,
                writes: 501,
                invalidations: 639,
                latency: 102_988,
                per_thread: vec![(
                    ThreadId(1),
                    ThreadOnObject {
                        accesses: 1263,
                        cycles: 102_988,
                    },
                )],
                per_thread_phase: vec![(
                    (ThreadId(1), 1),
                    ThreadOnObject {
                        accesses: 1263,
                        cycles: 102_988,
                    },
                )],
                truly_shared_accesses: 0,
                words: vec![WordReport {
                    addr: Addr(0x4000_04b8),
                    offset: 0,
                    stats: word,
                }],
                line_residency: vec![],
            },
            assessment: Assessment {
                model: crate::assess::AssessModel::LineLevel,
                improvement: 5.76172748,
                real_runtime: 7738,
                predicted_runtime: 1343.0,
                total_threads: 16,
                total_thread_accesses: 4833,
                total_thread_cycles: 1_074_057,
                per_thread: vec![],
            },
        }
    }

    #[test]
    fn report_matches_fig5_shape() {
        let text = assessed().to_string();
        assert!(text.contains("Detecting false sharing at the object: start 0x400004b8"));
        assert!(text.contains("end 0x40001458 (with size 4000)."));
        assert!(text.contains("invalidations 639 (0x27f)"));
        assert!(text.contains("totalThreads 16"));
        assert!(text.contains("totalThreadsAccesses 4833 (0x12e1)"));
        assert!(text.contains("totalPossibleImprovementRate 576.172748%"));
        assert!(text.contains("realRuntime 7738 predictedRuntime 1343"));
        assert!(text.contains("It is a heap object with the following callsite:"));
        assert!(text.contains("linear_regression-pthread.c: 139"));
    }

    #[test]
    fn global_report_names_symbol() {
        let mut report = assessed();
        report.instance.object.origin = ObjectOrigin::Global {
            name: "work_mem".into(),
        };
        let text = report.to_string();
        assert!(text.contains("It is a global object: work_mem."));
    }

    #[test]
    fn word_profile_lists_offsets_and_threads() {
        let report = assessed();
        let text = format_word_profile(&report.instance);
        assert!(text.contains("+0"));
        assert!(text.contains("T1(r0 w1)"));
    }

    #[test]
    fn accessors() {
        let report = assessed();
        assert!(report.is_false_sharing());
        assert!((report.improvement() - 5.76172748).abs() < 1e-12);
    }
}
