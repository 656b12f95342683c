//! The sampling-replica contract under every execution path.
//!
//! The classic loop (`shards = 1`) and the sharded engine both surface to
//! the profiler only the accesses its per-thread replica judges sampled.
//! The reference they must match is the profiler that sees every access:
//! the same `CheetahProfiler` behind a wrapper whose `fork_sampler` answers
//! `SamplerFork::EveryAccess`.

use cheetah::core::{CheetahConfig, CheetahProfiler, IngestStats};
use cheetah::heap::{AddressSpace, CallStack};
use cheetah::sim::{
    AccessRecord, Cycles, ExecObserver, LoopStream, Machine, MachineConfig, Op, PhaseKind, Program,
    ProgramBuilder, RunReport, SamplerFork, ThreadId, ThreadSpec,
};
use cheetah::workloads::{AppConfig, APPS};

/// Forwards every callback to the profiler; `every_access` replaces its
/// replica with `SamplerFork::EveryAccess`, and `surfaced` counts the
/// accesses the engine hands over.
struct Wrapped<'p, 'a> {
    inner: &'p mut CheetahProfiler<'a>,
    every_access: bool,
    surfaced: u64,
}

impl ExecObserver for Wrapped<'_, '_> {
    fn on_thread_start(&mut self, thread: ThreadId, name: &str, now: Cycles) -> Cycles {
        self.inner.on_thread_start(thread, name, now)
    }

    fn on_thread_exit(&mut self, thread: ThreadId, now: Cycles) {
        self.inner.on_thread_exit(thread, now);
    }

    fn on_phase_start(&mut self, index: u32, kind: PhaseKind, now: Cycles) {
        self.inner.on_phase_start(index, kind, now);
    }

    fn on_phase_end(&mut self, index: u32, kind: PhaseKind, now: Cycles) {
        self.inner.on_phase_end(index, kind, now);
    }

    fn on_access(&mut self, record: &AccessRecord) -> Cycles {
        self.surfaced += 1;
        self.inner.on_access(record)
    }

    fn fork_sampler(&mut self, thread: ThreadId) -> SamplerFork {
        if self.every_access {
            SamplerFork::EveryAccess
        } else {
            self.inner.fork_sampler(thread)
        }
    }
}

/// How a run's profiler is attached.
#[derive(Debug, Clone, Copy)]
enum Attach {
    /// The profiler itself, replica and all.
    Bare,
    /// Behind a wrapper that demands every access.
    EveryAccess,
    /// Behind a wrapper that forwards the replica and counts deliveries.
    Counted,
}

/// What a profiled run produced.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: RunReport,
    rendered: String,
    ingest: IngestStats,
}

fn profile(program: Program, space: &AddressSpace, shards: u32, attach: Attach) -> Outcome {
    let machine = Machine::new(MachineConfig::with_cores(48).with_shards(shards));
    let mut profiler = CheetahProfiler::new(CheetahConfig::scaled(64), space);
    let report = match attach {
        Attach::Bare => machine.run(program, &mut profiler),
        Attach::EveryAccess | Attach::Counted => {
            let mut wrapped = Wrapped {
                inner: &mut profiler,
                every_access: matches!(attach, Attach::EveryAccess),
                surfaced: 0,
            };
            let report = machine.run(program, &mut wrapped);
            if matches!(attach, Attach::Counted) {
                assert_eq!(
                    wrapped.surfaced,
                    profiler.engine().total_samples(),
                    "{}: the engine must surface exactly the sampled accesses",
                    report.program
                );
            }
            report
        }
    };
    let profile = profiler.finish();
    Outcome {
        report,
        rendered: profile.render_report(),
        ingest: profile.ingest,
    }
}

#[test]
fn classic_loop_replica_matches_every_access_registry_wide() {
    for threads in [4, 16] {
        for app in APPS.iter() {
            let config = AppConfig::with_threads(threads).scaled(0.02);
            let run = |attach| {
                let instance = app.build(&config);
                profile(instance.program, &instance.space, 1, attach)
            };
            let reference = run(Attach::EveryAccess);
            assert_eq!(
                run(Attach::Bare),
                reference,
                "{} t={threads}: replica diverged from the every-access profile",
                app.name()
            );
            run(Attach::Counted);
        }
    }
}

/// Serial phases between parallel ones: the main thread's replica is
/// forked again at each serial phase and must pick up where the previous
/// one stopped, not where the profiler last saw a sample.
#[test]
fn main_thread_replica_chains_across_serial_phases() {
    let mut space = AddressSpace::new();
    let obj = space
        .heap_mut()
        .alloc(ThreadId(0), 64, CallStack::single("chain.c", 3))
        .expect("allocation fits");
    let program = || {
        let serial = |name: &str| {
            ThreadSpec::new(
                name,
                LoopStream::new(
                    vec![
                        Op::Write(obj),
                        Op::Work(37),
                        Op::Read(obj.offset(8)),
                        Op::Work(11),
                    ],
                    3_000,
                ),
            )
        };
        let parallel = || {
            (0..2u64)
                .map(|t| {
                    ThreadSpec::new(
                        format!("w{t}"),
                        LoopStream::new(vec![Op::Write(obj.offset(t * 4)), Op::Work(3)], 5_000),
                    )
                })
                .collect()
        };
        ProgramBuilder::new("chain")
            .serial(serial("a"))
            .parallel(parallel())
            .serial(serial("b"))
            .parallel(parallel())
            .serial(serial("c"))
            .build()
    };
    let reference = profile(program(), &space, 1, Attach::EveryAccess);
    for shards in [1, 4] {
        assert_eq!(
            profile(program(), &space, shards, Attach::Bare),
            reference,
            "shards={shards}"
        );
        profile(program(), &space, shards, Attach::Counted);
    }
}
