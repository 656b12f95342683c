//! The footprint contract's two enforcement layers:
//!
//! * the **sharded executor's runtime demotion** — an access outside
//!   every classified extent (or violating its extent's class) does not
//!   panic: it is demoted to the fully-ordered write-shared path and
//!   counted in `sim.footprint_violations`, keeping the run deterministic
//!   and complete (the classic loop trusts footprints the same way, but
//!   counts nothing);
//! * the **static audit** (`footprint::audit`) — a byte-granular check of
//!   every access of every serial and parallel stream against its
//!   declared extents, one record per violating thread, with nothing
//!   simulated.

use cheetah_sim::footprint::{audit, FootprintViolation};
use cheetah_sim::layout::{LayoutMap, Remapping};
use cheetah_sim::metrics::FOOTPRINT_VIOLATIONS;
use cheetah_sim::observer::NullObserver;
use cheetah_sim::{
    AccessKind, AccessStream, Addr, ByteExtent, Footprint, IterStream, LoopStream, Machine,
    MachineConfig, ObsHandle, Op, Program, ProgramBuilder, ThreadSpec,
};

/// A stream that under-declares: claims one word, touches more.
struct Liar {
    ops: Vec<Op>,
    claimed: Vec<ByteExtent>,
}

impl AccessStream for Liar {
    fn next_op(&mut self) -> Option<Op> {
        self.ops.pop()
    }
    fn footprint(&self) -> Footprint {
        Footprint::bounded(self.claimed.clone())
    }
}

fn liar_program() -> cheetah_sim::Program {
    ProgramBuilder::new("liar")
        .parallel(vec![
            ThreadSpec::new(
                "liar",
                Liar {
                    // Writes one undeclared line and one foreign word.
                    ops: vec![
                        Op::Write(Addr(0x4000_0000)),
                        Op::Write(Addr(0x4000_2000)),
                        Op::Write(Addr(0x4000_0100)),
                    ],
                    claimed: vec![ByteExtent::word(Addr(0x4000_0000), true)],
                },
            ),
            ThreadSpec::new(
                "honest",
                LoopStream::new(vec![Op::Write(Addr(0x4000_0100))], 8),
            ),
        ])
        .build()
}

#[test]
fn sharded_executor_counts_fallbacks_instead_of_panicking() {
    let obs = ObsHandle::fresh_untraced();
    let machine = Machine::new(
        MachineConfig::default()
            .with_shards(2)
            .with_obs(obs.clone()),
    );
    let report = machine.run(liar_program(), &mut NullObserver);
    assert!(report.total_cycles > 0, "the run must complete");
    let violations = obs.counter(FOOTPRINT_VIOLATIONS).get();
    assert!(
        violations > 0,
        "under-declared accesses must be counted, got {violations}"
    );
}

#[test]
fn every_return_to_an_undeclared_line_is_counted() {
    // The worker alternates between its declared word and an undeclared
    // line: the extent cache must not remember the undeclared line, so each
    // of its three accesses is looked up and counted.
    let declared = Addr(0x4000_0000);
    let undeclared = Addr(0x4000_2000);
    let program = ProgramBuilder::new("alternating")
        .parallel(vec![ThreadSpec::new(
            "liar",
            Liar {
                ops: [declared, undeclared]
                    .repeat(3)
                    .into_iter()
                    .map(Op::Write)
                    .collect(),
                claimed: vec![ByteExtent::word(declared, true)],
            },
        )])
        .build();
    let obs = ObsHandle::fresh_untraced();
    let machine = Machine::new(
        MachineConfig::default()
            .with_shards(2)
            .with_obs(obs.clone()),
    );
    machine.run(program, &mut NullObserver);
    assert_eq!(obs.counter(FOOTPRINT_VIOLATIONS).get(), 3);
}

#[test]
fn classic_loop_ignores_footprints_without_audit() {
    // The single-threaded loop reads footprints only to let workers run
    // ahead and never checks accesses against them: the same lying
    // program runs violation-free, and only the static audit flags it.
    let obs = ObsHandle::fresh_untraced();
    let machine = Machine::new(MachineConfig::default().with_obs(obs.clone()));
    machine.run(liar_program(), &mut NullObserver);
    assert_eq!(obs.counter(FOOTPRINT_VIOLATIONS).get(), 0);
}

#[test]
fn classic_loop_trusts_footprints_deterministically() {
    // The classic loop trusts declared footprints as the sharded executor
    // does. The liar's own accesses stay ordered: a line outside its
    // footprint is never private to it. The honest worker runs ahead
    // through the line its footprint owns alone, although the liar writes
    // it too — no longer strict time order, but still deterministic.
    let obs = ObsHandle::fresh_untraced();
    let machine = Machine::new(MachineConfig::default().with_obs(obs.clone()));
    let first = machine.run(liar_program(), &mut NullObserver);
    let second = machine.run(liar_program(), &mut NullObserver);
    assert_eq!(first.total_accesses(), 11, "the run must complete");
    assert_eq!(first, second);
    assert_eq!(obs.counter(FOOTPRINT_VIOLATIONS).get(), 0);
}

/// The liar's record: its two undeclared writes, the first (its stream
/// pops from the back) at `first`.
fn liar_record(phase: usize, first: Addr) -> FootprintViolation {
    FootprintViolation {
        phase,
        thread: "liar".to_string(),
        count: 2,
        first: (first, AccessKind::Write),
    }
}

#[test]
fn audit_records_the_liars_exact_violations() {
    assert_eq!(
        audit(liar_program()),
        vec![liar_record(0, Addr(0x4000_0100))]
    );
}

fn honest_program() -> Program {
    ProgramBuilder::new("honest")
        .serial(ThreadSpec::new(
            "init",
            LoopStream::new(vec![Op::Write(Addr(0x4000_0000))], 4),
        ))
        .parallel(vec![
            ThreadSpec::new(
                "a",
                LoopStream::new(vec![Op::Read(Addr(0x4000_0000)), Op::Work(2)], 16),
            ),
            ThreadSpec::new("b", LoopStream::new(vec![Op::Write(Addr(0x4000_0040))], 16)),
        ])
        .build()
}

#[test]
fn audit_is_silent_on_honest_streams() {
    assert_eq!(audit(honest_program()), Vec::new());
}

#[test]
fn audit_checks_serial_phases() {
    // A serial stream that declares its word read-only, then writes it.
    let program = ProgramBuilder::new("serial")
        .parallel(vec![ThreadSpec::new(
            "worker",
            LoopStream::new(vec![Op::Read(Addr(0x4000_0000))], 4),
        )])
        .serial(ThreadSpec::new(
            "main",
            Liar {
                ops: vec![Op::Write(Addr(0x4000_0000)), Op::Read(Addr(0x4000_0000))],
                claimed: vec![ByteExtent::word(Addr(0x4000_0000), false)],
            },
        ))
        .build();
    assert_eq!(
        audit(program),
        vec![FootprintViolation {
            phase: 1,
            thread: "main".to_string(),
            count: 1,
            first: (Addr(0x4000_0000), AccessKind::Write),
        }]
    );
}

#[test]
fn audit_skips_unknown_streams() {
    // An `IterStream` declares `Unknown`: it claims nothing, so nothing of
    // it is checked, whatever it touches.
    let program = ProgramBuilder::new("unknown")
        .parallel(vec![ThreadSpec::new(
            "opaque",
            IterStream::new((0..8).map(|i| Op::Write(Addr(0x4000_0000 + 64 * i)))),
        )])
        .build();
    assert_eq!(audit(program), Vec::new());
}

#[test]
fn audit_checks_layout_rewritten_programs_against_translated_footprints() {
    // Relocating the word both workers write: the honest worker's
    // translated footprint covers its translated writes, and the liar's
    // first stray write is reported at its new address.
    let map = LayoutMap::new(vec![Remapping::new(
        Addr(0x4000_0100),
        8,
        Addr(0x5000_0000),
    )])
    .unwrap()
    .shared();
    assert_eq!(
        audit(liar_program().with_layout(map.clone())),
        vec![liar_record(0, Addr(0x5000_0000))]
    );
    assert_eq!(audit(honest_program().with_layout(map)), Vec::new());
}
