//! Property tests of the repair pipeline's safety contract:
//!
//! (a) a repaired program executes the same op count and phase graph as
//!     the original;
//! (b) pad/split plans leave no cache line written by two threads'
//!     disjoint word sets (the definition of false sharing);
//! (c) repaired runs are bit-identical across repeated `Machine::run`s.

use cheetah_core::{CheetahConfig, CheetahProfiler};
use cheetah_heap::{AddressSpace, CallStack};
use cheetah_repair::{apply_iterations, synthesize, RepairPlan};
use cheetah_sim::{
    AccessRecord, CacheLineId, CountingObserver, Cycles, ExecObserver, LoopStream, Machine,
    MachineConfig, NullObserver, Op, PhaseKind, Program, ProgramBuilder, ThreadId, ThreadSpec,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const LINE: u64 = 64;

/// A synthetic false-sharing app: one 64-byte object, each thread
/// hammering its own word. `word_slots[i]` is thread i's word index.
fn build(word_slots: &[u8], iterations: u64) -> (AddressSpace, Program) {
    let mut space = AddressSpace::new();
    let object = space
        .heap_mut()
        .alloc(ThreadId(0), 64, CallStack::single("prop.c", 9))
        .unwrap();
    let workers = word_slots
        .iter()
        .enumerate()
        .map(|(t, &slot)| {
            let addr = object.offset(u64::from(slot) * 4);
            ThreadSpec::new(
                format!("w{t}"),
                LoopStream::new(
                    vec![Op::Read(addr), Op::Write(addr), Op::Work(3)],
                    iterations,
                ),
            )
        })
        .collect();
    let program = ProgramBuilder::new("prop")
        .serial(ThreadSpec::new(
            "init",
            LoopStream::new(vec![Op::Write(object), Op::Work(20)], 200),
        ))
        .parallel(workers)
        .build();
    (space, program)
}

/// Profiles a build and synthesizes plans for its false-sharing instances.
fn plans_for(
    machine: &Machine,
    build_once: impl Fn() -> (AddressSpace, Program),
) -> Vec<RepairPlan> {
    let (space, program) = build_once();
    let mut profiler = CheetahProfiler::new(CheetahConfig::scaled(128), &space);
    machine.run(program, &mut profiler);
    let profile = profiler.finish();
    profile
        .false_sharing()
        .into_iter()
        .filter_map(|assessed| synthesize(&assessed.instance, LINE))
        .collect()
}

/// Observer recording, per (phase, cache line), which threads wrote which
/// word indices — the evidence for the no-false-sharing invariant.
#[derive(Default)]
struct WriterAudit {
    lines: BTreeMap<(u32, CacheLineId), BTreeMap<ThreadId, BTreeSet<usize>>>,
}

impl WriterAudit {
    /// Lines written by two threads whose word sets are disjoint — false
    /// sharing by definition.
    fn falsely_shared_lines(&self) -> usize {
        self.lines
            .values()
            .filter(|writers| {
                let threads: Vec<&BTreeSet<usize>> = writers.values().collect();
                threads.iter().enumerate().any(|(i, a)| {
                    threads[i + 1..]
                        .iter()
                        .any(|b| a.intersection(b).count() == 0)
                })
            })
            .count()
    }
}

impl ExecObserver for WriterAudit {
    fn on_access(&mut self, record: &AccessRecord) -> Cycles {
        if record.kind.is_write() && record.phase_kind == PhaseKind::Parallel {
            self.lines
                .entry((record.phase_index, record.addr.line(LINE)))
                .or_default()
                .entry(record.thread)
                .or_default()
                .insert(record.addr.word_in_line(LINE));
        }
        0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Same op count and phase graph, broken vs. repaired.
    #[test]
    fn repair_preserves_op_count_and_phase_graph(
        slots in proptest::collection::vec(0u8..16, 2..5),
        iterations in 2_000u64..6_000,
    ) {
        let machine = Machine::new(MachineConfig::with_cores(8));
        let build_once = || build(&slots, iterations);
        let plans = plans_for(&machine, build_once);

        let (_, original_program) = build_once();
        let mut original_counts = CountingObserver::default();
        let original = machine.run(original_program, &mut original_counts);

        let (space, program) = build_once();
        let mut space = space;
        let repaired_program = apply_iterations(program, &plans, &mut space).unwrap();
        let mut repaired_counts = CountingObserver::default();
        let repaired = machine.run(repaired_program, &mut repaired_counts);

        prop_assert_eq!(original_counts.accesses, repaired_counts.accesses);
        prop_assert_eq!(original_counts.writes, repaired_counts.writes);
        prop_assert_eq!(original_counts.thread_starts, repaired_counts.thread_starts);
        prop_assert_eq!(original_counts.phase_starts, repaired_counts.phase_starts);
        prop_assert_eq!(original.phases.len(), repaired.phases.len());
        for (a, b) in original.phases.iter().zip(&repaired.phases) {
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(&a.threads, &b.threads);
        }
        for (a, b) in original.threads.iter().zip(&repaired.threads) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.instructions, b.instructions);
            prop_assert_eq!(a.reads, b.reads);
            prop_assert_eq!(a.writes, b.writes);
        }
    }

    /// (b) No falsely shared line survives a repair.
    #[test]
    fn repair_leaves_no_falsely_shared_lines(
        slots in proptest::collection::vec(0u8..16, 2..5),
        iterations in 2_000u64..6_000,
    ) {
        // Only meaningful when at least two threads hit distinct words of
        // one line (otherwise there is nothing to detect or repair).
        let distinct: BTreeSet<u8> = slots.iter().copied().collect();
        prop_assume!(distinct.len() >= 2);

        let machine = Machine::new(MachineConfig::with_cores(8));
        let build_once = || build(&slots, iterations);
        let plans = plans_for(&machine, build_once);
        prop_assume!(!plans.is_empty());

        let (_, broken_program) = build_once();
        let mut broken_audit = WriterAudit::default();
        machine.run(broken_program, &mut broken_audit);
        prop_assert!(
            broken_audit.falsely_shared_lines() > 0,
            "the broken build must exhibit false sharing"
        );

        let (space, program) = build_once();
        let mut space = space;
        let repaired_program = apply_iterations(program, &plans, &mut space).unwrap();
        let mut repaired_audit = WriterAudit::default();
        machine.run(repaired_program, &mut repaired_audit);
        prop_assert_eq!(
            repaired_audit.falsely_shared_lines(),
            0,
            "repair must eliminate every falsely shared line"
        );
    }

    /// (c) Repaired runs are bit-identical across repeated runs.
    #[test]
    fn repaired_runs_are_deterministic(
        slots in proptest::collection::vec(0u8..16, 2..5),
        iterations in 2_000u64..6_000,
    ) {
        let machine = Machine::new(MachineConfig::with_cores(8));
        let build_once = || build(&slots, iterations);
        let plans = plans_for(&machine, build_once);

        let run = || {
            let (space, program) = build_once();
            let mut space = space;
            let repaired_program = apply_iterations(program, &plans, &mut space).unwrap();
            machine.run(repaired_program, &mut NullObserver)
        };
        prop_assert_eq!(run(), run());
    }
}

/// The plan-level counterpart of invariant (b): translated words of
/// different clusters never share a cache line (checked without running).
#[test]
fn split_plan_translation_separates_clusters() {
    let machine = Machine::new(MachineConfig::with_cores(8));
    let slots = [0u8, 1, 2, 3];
    let build_once = || build(&slots, 4_000);
    let plans = plans_for(&machine, build_once);
    assert_eq!(plans.len(), 1);
    let plan = &plans[0];

    let (space, _program) = build_once();
    let mut space = space;
    let map = cheetah_repair::apply(plan, &mut space).unwrap();
    let mut line_of_cluster: BTreeMap<CacheLineId, usize> = BTreeMap::new();
    for (index, cluster) in plan.clusters.iter().enumerate() {
        for &offset in &cluster.word_offsets {
            let translated = map.translate(plan.object_start.offset(offset));
            let line = translated.line(LINE);
            if let Some(&other) = line_of_cluster.get(&line) {
                assert_eq!(other, index, "clusters {other} and {index} share {line}");
            }
            line_of_cluster.insert(line, index);
        }
    }
}
