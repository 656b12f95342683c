//! Properties of sharded deterministic execution (`MachineConfig::shards`):
//!
//! (a) for random workloads, machine shapes and shard counts, the
//!     [`RunReport`] is bit-identical to the 1-shard (classic) run;
//! (b) the merged event stream — every access surfaced to an observer, in
//!     order, with all fields — is bit-identical to the classic stream;
//! (c) the replica sampling path (only sampled accesses surfaced) yields
//!     the identical sample sequence and identical perturbed timings;
//! (d) oversubscribed phases (more workers than cores) fall back to the
//!     classic loop and still match;
//! (g) serial phases — one fused runner at every shard count — match an
//!     access-by-access replay through the public [`Directory`].

use cheetah_sim::{
    AccessKind, AccessRecord, AccessStream, Addr, CoherenceStats, CoreId, CountingObserver, Cycles,
    Directory, ExecObserver, Footprint, LoopStream, Machine, MachineConfig, NullObserver, Op,
    OpsStream, Program, ProgramBuilder, RunReport, SampleJudgement, SamplerFork, ThreadId,
    ThreadSampler, ThreadSpec,
};
use proptest::prelude::*;

/// Wrapper hiding a stream's declared footprint, so the sharded executor
/// drains the stream and classifies it by the drained trace's exact
/// footprint. Comparing runs with and without it proves the drained path
/// and the declared one are interchangeable.
struct HiddenFootprint<S>(S);

impl<S: AccessStream> AccessStream for HiddenFootprint<S> {
    fn next_op(&mut self) -> Option<Op> {
        self.0.next_op()
    }

    fn footprint(&self) -> Footprint {
        Footprint::Unknown
    }
}

/// Workload shape: a serial init phase plus one or two parallel phases
/// whose threads mix four traffic classes — thread-private lines, a
/// read-only shared table, a falsely-shared line of adjacent words, and a
/// sequential sweep (exercising the prefetch path).
#[derive(Debug, Clone)]
struct Shape {
    threads: u64,
    cores: u32,
    iterations: u64,
    private_stride: u64,
    work: u64,
    second_phase: bool,
    serial_init: bool,
}

fn build_program(shape: &Shape) -> Program {
    build_program_with(shape, false)
}

/// Builds the shape's program; with `hide`, every stream's footprint is
/// masked so classification uses each drained trace's exact footprint.
fn build_program_with(shape: &Shape, hide: bool) -> Program {
    let Shape {
        threads,
        iterations,
        private_stride,
        work,
        second_phase,
        serial_init,
        ..
    } = *shape;
    let shared_line = Addr(0x1000);
    let read_table = Addr(0x8000);
    let private_base = Addr(0x100_000);
    let sweep_base = Addr(0x900_000);
    let stream_base = Addr(0xA00_000);

    fn spec(name: String, stream: impl AccessStream + 'static, hide: bool) -> ThreadSpec {
        if hide {
            ThreadSpec::new(name, HiddenFootprint(stream))
        } else {
            ThreadSpec::new(name, stream)
        }
    }

    let make_workers = |phase: u64| -> Vec<ThreadSpec> {
        let mut workers: Vec<ThreadSpec> = (0..threads)
            .map(|t| {
                let body = vec![
                    // Contended: adjacent words of one line (false sharing).
                    Op::Write(shared_line.offset(t * 4)),
                    Op::Read(shared_line.offset(((t + 1) % threads) * 4)),
                    // Read-only shared table (several lines).
                    Op::Read(read_table.offset((t % 4) * 64)),
                    Op::Read(read_table.offset(((t + phase) % 4) * 64)),
                    // Private accumulator.
                    Op::Write(private_base.offset(t * private_stride)),
                    Op::Read(private_base.offset(t * private_stride + 8)),
                    // Sequential sweep chunk (prefetchable strides).
                    Op::Read(sweep_base.offset(t * 4096 + (phase % 7) * 64)),
                    Op::Read(sweep_base.offset(t * 4096 + (phase % 7) * 64 + 64)),
                    Op::Work(work),
                ];
                spec(
                    format!("w{phase}-{t}"),
                    LoopStream::new(body, iterations + t),
                    hide,
                )
            })
            .collect();
        // A one-shot streaming worker with a declared footprint (the
        // extent table's fast path) ...
        let sweep: Vec<Op> = (0..iterations * 8)
            .map(|i| {
                let addr = stream_base.offset(phase * 0x10_000 + i * 8);
                if i % 3 == 0 {
                    Op::Write(addr)
                } else {
                    Op::Read(addr)
                }
            })
            .collect();
        workers.push(spec(format!("stream{phase}"), OpsStream::new(sweep), hide));
        // ... next to a worker whose stream cannot declare one (the
        // drained path), in the same phase.
        let unhinted = cheetah_sim::IterStream::new(
            (0..iterations * 4)
                .map(move |i| Op::Read(stream_base.offset(0x80_000 + phase * 0x10_000 + i * 16))),
        );
        workers.push(ThreadSpec::new(format!("unhinted{phase}"), unhinted));
        workers
    };

    let mut builder = ProgramBuilder::new("shard-prop");
    if serial_init {
        let mut init = Vec::new();
        for i in 0..threads * 2 {
            init.push(Op::Write(shared_line.offset(i * 4)));
            init.push(Op::Write(read_table.offset(i * 32)));
        }
        builder = builder.serial(spec("init".to_string(), OpsStream::new(init), hide));
    }
    builder = builder.parallel(make_workers(0));
    if second_phase {
        builder = builder.parallel(make_workers(1));
    }
    builder.build()
}

fn run(shape: &Shape, shards: u32, observer: &mut dyn ExecObserver) -> RunReport {
    let config = MachineConfig::with_cores(shape.cores).with_shards(shards);
    Machine::new(config).run(build_program(shape), observer)
}

fn run_hidden(shape: &Shape, shards: u32, observer: &mut dyn ExecObserver) -> RunReport {
    let config = MachineConfig::with_cores(shape.cores).with_shards(shards);
    Machine::new(config).run(build_program_with(shape, true), observer)
}

/// Observer recording the full surfaced access stream (EveryAccess mode)
/// and perturbing every access, so timing feedback is exercised too.
#[derive(Default)]
struct Recorder {
    records: Vec<AccessRecord>,
    exits: Vec<(ThreadId, Cycles)>,
}

impl ExecObserver for Recorder {
    fn on_access(&mut self, record: &AccessRecord) -> Cycles {
        self.records.push(*record);
        // Deterministic, access-dependent perturbation.
        (record.addr.0 % 7) + u64::from(record.kind.is_write())
    }

    fn on_thread_exit(&mut self, thread: ThreadId, now: Cycles) {
        self.exits.push((thread, now));
    }
}

/// A modulo sampler with a faithful replica: samples the accesses whose
/// retired-instruction index is a multiple of `period`, charging a fixed
/// trap cost — the minimal honest implementation of the replica contract.
/// Unsampled accesses at indices `≡ 1 (mod 3)` are charged `idle_trap`
/// (a counter-overflow cost with no sample), which the engine must fold
/// into the thread's time without surfacing the access.
struct ModuloSampler {
    period: u64,
    trap: Cycles,
    idle_trap: Cycles,
    samples: Vec<(ThreadId, Addr, Cycles, Cycles)>,
}

impl ModuloSampler {
    fn new(period: u64, trap: Cycles) -> Self {
        ModuloSampler::with_idle_trap(period, trap, 0)
    }

    fn with_idle_trap(period: u64, trap: Cycles, idle_trap: Cycles) -> Self {
        ModuloSampler {
            period,
            trap,
            idle_trap,
            samples: Vec::new(),
        }
    }
}

struct ModuloReplica {
    period: u64,
    trap: Cycles,
    idle_trap: Cycles,
}

/// The judgement both the sampler and its replica apply.
fn modulo_judgement(period: u64, trap: Cycles, idle_trap: Cycles, index: u64) -> SampleJudgement {
    let sampled = index.is_multiple_of(period);
    SampleJudgement {
        perturbation: if sampled {
            trap
        } else if index % 3 == 1 {
            idle_trap
        } else {
            0
        },
        sampled,
    }
}

impl ThreadSampler for ModuloReplica {
    fn judge(&mut self, instrs_before: u64) -> SampleJudgement {
        modulo_judgement(self.period, self.trap, self.idle_trap, instrs_before)
    }
}

impl ExecObserver for ModuloSampler {
    fn on_access(&mut self, record: &AccessRecord) -> Cycles {
        let judgement =
            modulo_judgement(self.period, self.trap, self.idle_trap, record.instrs_before);
        if judgement.sampled {
            self.samples
                .push((record.thread, record.addr, record.latency, record.start));
        }
        judgement.perturbation
    }

    fn fork_sampler(&mut self, _thread: ThreadId) -> SamplerFork {
        SamplerFork::Replica(Box::new(ModuloReplica {
            period: self.period,
            trap: self.trap,
            idle_trap: self.idle_trap,
        }))
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        (1u64..7, 0u32..2, 1u64..40),
        (
            proptest::sample::select(vec![64u64, 72, 128]),
            0u64..12,
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
    )
        .prop_map(
            |(
                (threads, extra_cores, iterations),
                (private_stride, work, second_phase, serial_init),
            )| {
                Shape {
                    threads,
                    // Room for the loop workers plus the two streaming
                    // workers each phase appends.
                    cores: threads as u32 + 3 + extra_cores,
                    iterations,
                    private_stride,
                    work,
                    second_phase,
                    serial_init,
                }
            },
        )
}

/// A serial op sequence: segments of single accesses to a 16 KiB region
/// (hits, misses, upgrades), sequential line sweeps (next-line prefetch),
/// and work.
fn arb_serial_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u64..3, 0u64..2048, 1u64..40, proptest::bool::ANY), 1..40).prop_map(
        |segments| {
            let base = Addr(0x10_000);
            let op = |addr, write| {
                if write {
                    Op::Write(addr)
                } else {
                    Op::Read(addr)
                }
            };
            let mut ops = Vec::new();
            for (kind, at, len, write) in segments {
                match kind {
                    0 => ops.push(op(base.offset(at * 8), write)),
                    1 => ops.extend((0..len).map(|i| op(base.offset((at / 8 + i) * 64), write))),
                    _ => ops.push(Op::Work(len)),
                }
            }
            ops
        },
    )
}

/// Replays serial phases on core 0 access by access through
/// [`Directory::access`], charging `trap` cycles to every access whose
/// retired-instruction index is a multiple of `period`; returns the total
/// cycles and the coherence statistics.
fn serial_reference(phases: &[Vec<Op>], period: u64, trap: Cycles) -> (Cycles, CoherenceStats) {
    let config = MachineConfig::default();
    let mut directory = Directory::new(config.latency.clone());
    let (mut clock, mut instructions) = (0, 0);
    for op in phases.iter().flatten() {
        match *op {
            Op::Work(n) => {
                instructions += n;
                clock += n * config.latency.cycles_per_instruction;
            }
            Op::Read(addr) | Op::Write(addr) => {
                let kind = if matches!(op, Op::Write(_)) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let line = addr.line(config.cache_line_size);
                clock += directory.access(CoreId(0), line, kind, clock).latency();
                if instructions % period == 0 {
                    clock += trap;
                }
                instructions += 1;
            }
        }
    }
    (clock, directory.stats().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (g) Two back-to-back serial phases execute exactly like an
    /// access-by-access replay through the directory, at shards 1 and 2,
    /// with and without a sampling observer.
    #[test]
    fn serial_phases_match_access_by_access_reference(
        first in arb_serial_ops(),
        second in arb_serial_ops(),
        period in 1u64..40,
    ) {
        let phases = [first, second];
        let program = || {
            ProgramBuilder::new("serial")
                .serial(ThreadSpec::new("init", OpsStream::new(phases[0].clone())))
                .serial(ThreadSpec::new("tail", OpsStream::new(phases[1].clone())))
                .build()
        };
        let unobserved = serial_reference(&phases, 1, 0);
        let sampled = serial_reference(&phases, period, 700);
        for shards in [1u32, 2] {
            let machine = Machine::new(MachineConfig::default().with_shards(shards));
            let report = machine.run(program(), &mut NullObserver);
            prop_assert_eq!((report.total_cycles, &report.coherence), (unobserved.0, &unobserved.1));
            let mut sampler = ModuloSampler::new(period, 700);
            let report = machine.run(program(), &mut sampler);
            prop_assert_eq!((report.total_cycles, &report.coherence), (sampled.0, &sampled.1));
        }
    }

    /// (a) Reports are bit-identical across shard counts, transparent
    /// observer.
    #[test]
    fn reports_identical_across_shard_counts(shape in arb_shape(), shards in 2u32..9) {
        let baseline = run(&shape, 1, &mut NullObserver);
        let sharded = run(&shape, shards, &mut NullObserver);
        prop_assert_eq!(&baseline, &sharded);
    }

    /// (b) The full surfaced event stream (EveryAccess observers) matches
    /// the classic stream record for record, including perturbation
    /// feedback into the clocks and thread-exit times.
    #[test]
    fn merged_event_stream_identical(shape in arb_shape(), shards in 2u32..6) {
        let mut classic = Recorder::default();
        let baseline = run(&shape, 1, &mut classic);
        let mut merged = Recorder::default();
        let sharded = run(&shape, shards, &mut merged);
        prop_assert_eq!(&baseline, &sharded);
        prop_assert_eq!(classic.records.len(), merged.records.len());
        prop_assert_eq!(&classic.records, &merged.records);
        prop_assert_eq!(&classic.exits, &merged.exits);
    }

    /// (c) Replica sampling: identical sample sequence (content and order)
    /// and identical perturbed report, also when unsampled accesses are
    /// charged (`idle_trap`), which the sharded engine folds into the next
    /// event's lead.
    #[test]
    fn replica_sampling_identical(
        shape in arb_shape(),
        shards in 2u32..6,
        period in 1u64..9,
        idle_trap in prop::sample::select(vec![0u64, 1, 37, 400]),
    ) {
        let mut classic = ModuloSampler::with_idle_trap(period, 1_000, idle_trap);
        let baseline = run(&shape, 1, &mut classic);
        let mut sharded_sampler = ModuloSampler::with_idle_trap(period, 1_000, idle_trap);
        let sharded = run(&shape, shards, &mut sharded_sampler);
        prop_assert_eq!(&baseline, &sharded);
        prop_assert_eq!(&classic.samples, &sharded_sampler.samples);
    }

    /// (e) Declared footprints are interchangeable with drained ones:
    /// hiding every stream's footprint (so each stream is drained and
    /// classified by its trace's exact footprint) yields the bit-identical
    /// report, the identical surfaced event stream and the identical
    /// sample sequence at every shard count.
    #[test]
    fn extent_vs_per_line_classification_identical(
        shape in arb_shape(),
        shards in 2u32..6,
        period in 1u64..9,
    ) {
        let mut extent_rec = Recorder::default();
        let extent_report = run(&shape, shards, &mut extent_rec);
        let mut drained_rec = Recorder::default();
        let drained_report = run_hidden(&shape, shards, &mut drained_rec);
        prop_assert_eq!(&extent_report, &drained_report);
        prop_assert_eq!(&extent_rec.records, &drained_rec.records);
        prop_assert_eq!(&extent_rec.exits, &drained_rec.exits);
        // And both match the classic loop under the same (perturbing)
        // observer.
        let mut classic_rec = Recorder::default();
        let classic = run(&shape, 1, &mut classic_rec);
        prop_assert_eq!(&classic, &extent_report);
        prop_assert_eq!(&classic_rec.records, &extent_rec.records);

        let mut extent_sampler = ModuloSampler::new(period, 700);
        let extent_sampled = run(&shape, shards, &mut extent_sampler);
        let mut drained_sampler = ModuloSampler::new(period, 700);
        let drained_sampled = run_hidden(&shape, shards, &mut drained_sampler);
        prop_assert_eq!(&extent_sampled, &drained_sampled);
        prop_assert_eq!(&extent_sampler.samples, &drained_sampler.samples);
    }

    /// (f) Extent classification under oversubscription: hidden and
    /// declared footprints agree when the phase falls back to the classic
    /// loop because workers share cores.
    #[test]
    fn extent_oversubscription_fallback_identical(
        threads in 3u64..8,
        shards in 2u32..6,
        iterations in 1u64..20,
    ) {
        let shape = Shape {
            threads,
            cores: 2, // fewer cores than workers: same-core interleaving
            iterations,
            private_stride: 64,
            work: 3,
            second_phase: true,
            serial_init: true,
        };
        let extent_report = run(&shape, shards, &mut NullObserver);
        let fallback_report = run_hidden(&shape, shards, &mut NullObserver);
        let classic = run(&shape, 1, &mut NullObserver);
        prop_assert_eq!(&classic, &extent_report);
        prop_assert_eq!(&extent_report, &fallback_report);
    }

    /// (d) Oversubscribed phases (workers > cores) take the classic
    /// fallback and still produce identical reports.
    #[test]
    fn oversubscription_falls_back_consistently(
        threads in 3u64..8,
        shards in 2u32..6,
        iterations in 1u64..30,
    ) {
        let shape = Shape {
            threads,
            cores: 2, // fewer cores than workers: same-core interleaving
            iterations,
            private_stride: 64,
            work: 3,
            second_phase: true,
            serial_init: true,
        };
        let baseline = run(&shape, 1, &mut NullObserver);
        let sharded = run(&shape, shards, &mut NullObserver);
        prop_assert_eq!(&baseline, &sharded);
    }
}

/// Counting observers (EveryAccess) see every access exactly once under
/// sharding.
#[test]
fn counting_observer_counts_match() {
    let shape = Shape {
        threads: 4,
        cores: 8,
        iterations: 50,
        private_stride: 64,
        work: 5,
        second_phase: true,
        serial_init: true,
    };
    let mut classic = CountingObserver::default();
    let baseline = run(&shape, 1, &mut classic);
    let mut sharded_counter = CountingObserver::default();
    let sharded = run(&shape, 4, &mut sharded_counter);
    assert_eq!(baseline, sharded);
    assert_eq!(classic.accesses, sharded_counter.accesses);
    assert_eq!(classic.writes, sharded_counter.writes);
    assert_eq!(classic.thread_starts, sharded_counter.thread_starts);
    assert_eq!(classic.thread_exits, sharded_counter.thread_exits);
    assert_eq!(classic.phase_starts, sharded_counter.phase_starts);
    assert_eq!(classic.phase_ends, sharded_counter.phase_ends);
}

/// `shards = 0` resolves to the host parallelism and stays bit-identical.
#[test]
fn auto_shards_identical() {
    let shape = Shape {
        threads: 3,
        cores: 16,
        iterations: 40,
        private_stride: 72,
        work: 2,
        second_phase: false,
        serial_init: true,
    };
    let baseline = run(&shape, 1, &mut NullObserver);
    let auto = run(&shape, 0, &mut NullObserver);
    assert_eq!(baseline, auto);
}

/// A run dominated by false sharing (every access contended) still merges
/// identically — the worst case for the classifier, where no access is
/// precomputable.
#[test]
fn fully_contended_run_identical() {
    let shared = Addr(0x4000);
    let build = || {
        ProgramBuilder::new("contended")
            .parallel(
                (0..4u64)
                    .map(|t| {
                        ThreadSpec::new(
                            format!("w{t}"),
                            LoopStream::new(
                                vec![
                                    Op::Read(shared.offset(t * 4)),
                                    Op::Write(shared.offset(t * 4)),
                                ],
                                500,
                            ),
                        )
                    })
                    .collect(),
            )
            .build()
    };
    let classic = Machine::new(MachineConfig::with_cores(8)).run(build(), &mut NullObserver);
    let sharded =
        Machine::new(MachineConfig::with_cores(8).with_shards(4)).run(build(), &mut NullObserver);
    assert_eq!(classic, sharded);
    assert!(classic.coherence.invalidations > 100);
}

/// Two workers alternate unsampled reads of two read-shared lines more
/// than `u32::MAX` lines apart: every hit run the alternation would form
/// is wider than a run's `u32` line span, so the precompute pass splits
/// it. The second worker first-touches the far line late, in the middle
/// of the first worker's hits, so a run whose span wrapped to the near
/// line's neighbourhood would fold across the far line's busy window. The
/// report equals the classic loop's at every shard count, with and without
/// a sampling observer.
#[test]
fn distant_read_shared_lines_identical_across_shard_counts() {
    let near = Addr(0x4000);
    let far = Addr(near.0 + ((1u64 << 32) + 1) * 64);
    let build = |late: u64| {
        ProgramBuilder::new("distant")
            .parallel(vec![
                ThreadSpec::new(
                    "w0",
                    LoopStream::new(vec![Op::Read(near), Op::Work(3), Op::Read(far)], 300),
                ),
                ThreadSpec::new(
                    "w1",
                    LoopStream::new(vec![Op::Read(near), Op::Work(late), Op::Read(far)], 4),
                ),
            ])
            .build()
    };
    for late in [40u64, 200, 700] {
        let run_at = |shards: u32| {
            let machine = Machine::new(MachineConfig::with_cores(4).with_shards(shards));
            let unobserved = machine.run(build(late), &mut NullObserver);
            let mut sampler = ModuloSampler::with_idle_trap(97, 300, 11);
            let sampled = machine.run(build(late), &mut sampler);
            (unobserved, sampled, sampler.samples)
        };
        let classic = run_at(1);
        assert_eq!(classic.0.coherence.l1_hits, 2 * (300 + 4) - 4);
        for shards in 2u32..6 {
            assert_eq!(classic, run_at(shards), "{shards} shards, late {late}");
        }
    }
}

/// The cross-object workloads (co-resident objects packed into shared
/// cache lines — the line-level assessment's stress cases) execute
/// bit-identically across shard counts {1, 2, 4}: reports, the full
/// surfaced event stream, and the sampled sequence all match the classic
/// loop record for record.
#[test]
fn cross_object_workloads_identical_across_shard_counts() {
    use cheetah_workloads::{find, AppConfig};

    for name in [
        "inter_object",
        "packed_triplet",
        "struct_straddle",
        "reader_writer",
        "streaming_histogram",
    ] {
        let app = find(name).expect("registered workload");
        let config = AppConfig {
            threads: 6,
            scale: 0.02,
            fixed: false,
            seed: 1,
        };
        let run_at = |shards: u32| {
            let machine = Machine::new(MachineConfig::with_cores(16).with_shards(shards));
            let mut recorder = Recorder::default();
            let report = machine.run(app.build(&config).program, &mut recorder);
            let mut sampler = ModuloSampler::new(7, 500);
            let sampled_report = machine.run(app.build(&config).program, &mut sampler);
            (report, recorder, sampled_report, sampler.samples)
        };
        let (report1, recorder1, sampled1, samples1) = run_at(1);
        for shards in [2u32, 4] {
            let (report, recorder, sampled, samples) = run_at(shards);
            assert_eq!(report1, report, "{name} report at {shards} shards");
            assert_eq!(
                recorder1.records, recorder.records,
                "{name} event stream at {shards} shards"
            );
            assert_eq!(
                recorder1.exits, recorder.exits,
                "{name} thread exits at {shards} shards"
            );
            assert_eq!(
                sampled1, sampled,
                "{name} perturbed report at {shards} shards"
            );
            assert_eq!(samples1, samples, "{name} samples at {shards} shards");
        }
        assert!(
            report1.coherence.invalidations > 100,
            "{name} must actually contend ({} invalidations)",
            report1.coherence.invalidations
        );
    }
}

/// Reads and writes of `AccessKind` reach observers with the right kinds
/// under sharding (spot check of record fidelity beyond plain equality).
#[test]
fn surfaced_records_have_expected_kinds() {
    let shape = Shape {
        threads: 2,
        cores: 4,
        iterations: 10,
        private_stride: 64,
        work: 1,
        second_phase: false,
        serial_init: false,
    };
    let mut rec = Recorder::default();
    run(&shape, 3, &mut rec);
    assert!(rec
        .records
        .iter()
        .any(|r| r.kind == AccessKind::Write && r.addr.0 >= 0x100_000));
    assert!(rec.records.iter().any(|r| r.kind == AccessKind::Read));
}
