//! Resumable runs: checkpoint a run after the phases no repair can reach,
//! then re-run the program from there.
//!
//! A fix-and-re-profile loop runs the same program again and again with
//! one more object relocated each time. Relocations target objects written
//! in parallel phases (that is where false sharing lives), so the leading
//! phases that only touch other data — an input-reading serial phase, say
//! — execute the identical operations every time. [`Machine::run_capturing`]
//! saves the machine state at the end of that prefix as a [`Checkpoint`];
//! [`Machine::resume`] restores it and simulates only the rest.
//!
//! ## Capture rule
//!
//! The prefix is the longest run of leading phases whose every thread
//! declares a [`Footprint::Bounded`] disjoint from the written extents of
//! every parallel phase of the program. Only the sharded engine captures
//! (`shards >= 2`): the classic loop (`shards = 1`) is the reference
//! execution the shard-count bit-identity tests compare against, so it
//! always runs from phase 0.
//!
//! ## Validity rule
//!
//! A checkpoint is valid for a rewritten program when every
//! [`LayoutMap`] applied to it is the identity on every prefix extent
//! ([`Checkpoint::admits`]): the prefix then executes exactly the captured
//! operations, so the directory, the main thread's cursor and the reports
//! at the boundary are the captured ones. [`Machine::resume`] also rejects
//! a different machine configuration and a program whose prefix phases
//! declare different footprints.
//!
//! ## Observer contract
//!
//! The checkpoint logs every observer callback of the prefix, with the
//! cycles each returned; with a sampling replica
//! ([`SamplerFork::Replica`]) that is only the surfaced accesses. Resuming
//! replays the log into the new observer, which must be built like the
//! capturing one: its state is a pure function of its callback sequence
//! (see [`ExecObserver`]), so after the replay it is exactly what a run from
//! phase 0 would have left. A profiler resolving addresses against a
//! repaired address space thus ingests the identical samples against the
//! repaired layout. Any replayed callback that returns different cycles
//! aborts the resume with [`ResumeError::ObserverDiverged`].

use crate::exec::{execute, Boundary, MachineConfig, OBS_LANE_ENGINE};
use crate::footprint::{ByteExtent, Footprint, FootprintBuilder};
use crate::layout::LayoutMap;
use crate::observer::{AccessRecord, ExecObserver, SamplerFork};
use crate::program::{Phase, Program};
use crate::report::RunReport;
use crate::types::{Cycles, PhaseKind, ThreadId};
use std::error::Error;
use std::fmt;

#[cfg(doc)]
use crate::Machine;

/// The state of a run at the end of its prefix, plus the prefix's observer
/// callbacks; see the [module docs](self).
#[derive(Debug)]
pub struct Checkpoint {
    config: MachineConfig,
    /// Each prefix phase's kind and per-thread declared footprints.
    prefix: Vec<(PhaseKind, Vec<Footprint>)>,
    boundary: Boundary,
    log: Vec<Callback>,
}

impl Checkpoint {
    /// Number of leading phases a resumed run skips.
    pub fn phases(&self) -> u32 {
        self.boundary.phases
    }

    /// Whether a run rewritten through `map` may resume from this
    /// checkpoint: `map` must leave every prefix extent where it is.
    pub fn admits(&self, map: &LayoutMap) -> bool {
        self.prefix
            .iter()
            .flat_map(|(_, footprints)| footprints)
            .flat_map(|footprint| match footprint {
                Footprint::Bounded(extents) => extents.as_slice(),
                Footprint::Unknown => unreachable!("prefix footprints are bounded"),
            })
            .filter(|extent| extent.start < extent.end)
            .all(|extent| {
                map.translate_range(extent.start, extent.end) == [(extent.start, extent.end)]
            })
    }
}

/// Why [`Machine::resume`] refused a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The resuming machine's configuration differs from the capturing
    /// machine's.
    ConfigMismatch,
    /// Prefix phase `phase` of the program differs from the captured one
    /// in kind, thread count or declared footprint.
    PrefixMismatch {
        /// Index of the first differing phase.
        phase: u32,
    },
    /// The observer returned different cycles than the capturing observer
    /// at replayed callback `callback`; it has seen callbacks up to and
    /// including that one and must be discarded.
    ObserverDiverged {
        /// Index of the diverging callback in the checkpoint's log.
        callback: usize,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::ConfigMismatch => {
                f.write_str("machine configuration differs from the checkpoint's")
            }
            ResumeError::PrefixMismatch { phase } => {
                write!(f, "prefix phase {phase} differs from the checkpoint's")
            }
            ResumeError::ObserverDiverged { callback } => {
                write!(f, "observer diverged at replayed callback {callback}")
            }
        }
    }
}

impl Error for ResumeError {}

/// One logged observer callback, with the cycles it returned.
#[derive(Debug)]
enum Callback {
    ThreadStart {
        thread: ThreadId,
        name: String,
        now: Cycles,
        cost: Cycles,
    },
    ThreadExit {
        thread: ThreadId,
        now: Cycles,
    },
    PhaseStart {
        index: u32,
        kind: PhaseKind,
        now: Cycles,
    },
    PhaseEnd {
        index: u32,
        kind: PhaseKind,
        now: Cycles,
    },
    Access {
        record: AccessRecord,
        cost: Cycles,
    },
    Fork {
        thread: ThreadId,
    },
}

/// Forwards every callback to `inner`, logging those of the first
/// `remaining` phases.
struct Recorder<'a> {
    inner: &'a mut dyn ExecObserver,
    log: Vec<Callback>,
    remaining: u32,
}

impl Recorder<'_> {
    fn record(&mut self, callback: impl FnOnce() -> Callback) {
        if self.remaining > 0 {
            self.log.push(callback());
        }
    }
}

impl ExecObserver for Recorder<'_> {
    fn on_thread_start(&mut self, thread: ThreadId, name: &str, now: Cycles) -> Cycles {
        let cost = self.inner.on_thread_start(thread, name, now);
        self.record(|| Callback::ThreadStart {
            thread,
            name: name.to_string(),
            now,
            cost,
        });
        cost
    }

    fn on_thread_exit(&mut self, thread: ThreadId, now: Cycles) {
        self.inner.on_thread_exit(thread, now);
        self.record(|| Callback::ThreadExit { thread, now });
    }

    fn on_phase_start(&mut self, index: u32, kind: PhaseKind, now: Cycles) {
        self.inner.on_phase_start(index, kind, now);
        self.record(|| Callback::PhaseStart { index, kind, now });
    }

    fn on_phase_end(&mut self, index: u32, kind: PhaseKind, now: Cycles) {
        self.inner.on_phase_end(index, kind, now);
        self.record(|| Callback::PhaseEnd { index, kind, now });
        if self.remaining == 1 {
            // The log is complete; it outlives the run, so drop the slack.
            self.log.shrink_to_fit();
        }
        self.remaining = self.remaining.saturating_sub(1);
    }

    fn on_access(&mut self, record: &AccessRecord) -> Cycles {
        let cost = self.inner.on_access(record);
        self.record(|| Callback::Access {
            record: *record,
            cost,
        });
        cost
    }

    fn fork_sampler(&mut self, thread: ThreadId) -> SamplerFork {
        self.record(|| Callback::Fork { thread });
        self.inner.fork_sampler(thread)
    }
}

/// A phase's kind and its member threads' declared footprints.
fn declared(phase: &Phase) -> (PhaseKind, Vec<Footprint>) {
    let footprints = match phase {
        Phase::Serial(spec) => vec![spec.footprint()],
        Phase::Parallel(specs) => specs.iter().map(|spec| spec.footprint()).collect(),
    };
    (phase.kind(), footprints)
}

/// Length of the capturable prefix of `phases` (see the module docs).
fn prefix_len(phases: &[(PhaseKind, Vec<Footprint>)]) -> usize {
    let mut written = FootprintBuilder::default();
    for (_, footprints) in phases
        .iter()
        .filter(|(kind, _)| *kind == PhaseKind::Parallel)
    {
        for footprint in footprints {
            match footprint {
                Footprint::Bounded(extents) => {
                    for extent in extents.iter().filter(|extent| extent.wrote) {
                        written.push(*extent);
                    }
                }
                // A parallel phase that may write anywhere leaves no phase
                // provably out of reach.
                Footprint::Unknown => return 0,
            }
        }
    }
    let Footprint::Bounded(written) = written.finish() else {
        unreachable!("a builder always finishes bounded")
    };
    // `written` is sorted and disjoint, so the only candidate overlap of an
    // extent is the first written extent ending past its start.
    let clear = |extent: &ByteExtent| {
        let idx = written.partition_point(|w| w.end <= extent.start);
        written.get(idx).is_none_or(|w| w.start >= extent.end)
    };
    phases
        .iter()
        .take_while(|(_, footprints)| {
            footprints.iter().all(|footprint| match footprint {
                Footprint::Bounded(extents) => extents.iter().all(clear),
                Footprint::Unknown => false,
            })
        })
        .count()
}

/// [`Machine::run_capturing`].
pub(crate) fn capture(
    config: &MachineConfig,
    program: Program,
    observer: &mut dyn ExecObserver,
) -> (RunReport, Option<Checkpoint>) {
    let mut prefix = Vec::new();
    if config.resolved_shards() >= 2 {
        prefix.extend(program.phases().iter().map(declared));
        prefix.truncate(prefix_len(&prefix));
    }
    if prefix.is_empty() {
        return (execute(config, observer, program, None, 0).0, None);
    }
    let phases = prefix.len() as u32;
    let mut recorder = Recorder {
        inner: observer,
        log: Vec::new(),
        remaining: phases,
    };
    let (report, boundary) = execute(config, &mut recorder, program, None, phases);
    let checkpoint = boundary.map(|boundary| Checkpoint {
        config: config.clone(),
        prefix,
        boundary,
        log: recorder.log,
    });
    (report, checkpoint)
}

/// [`Machine::resume`].
pub(crate) fn resume(
    config: &MachineConfig,
    checkpoint: &Checkpoint,
    program: Program,
    observer: &mut dyn ExecObserver,
) -> Result<RunReport, ResumeError> {
    if *config != checkpoint.config {
        return Err(ResumeError::ConfigMismatch);
    }
    for (index, captured) in checkpoint.prefix.iter().enumerate() {
        if program.phases().get(index).map(declared).as_ref() != Some(captured) {
            return Err(ResumeError::PrefixMismatch {
                phase: index as u32,
            });
        }
    }
    let mut span = config.obs.span("sim.resume", OBS_LANE_ENGINE);
    span.attr_u64("phases", u64::from(checkpoint.phases()));
    span.attr_u64("callbacks", checkpoint.log.len() as u64);
    replay(&checkpoint.log, observer)?;
    span.finish();
    let from = Some(checkpoint.boundary.clone());
    Ok(execute(config, observer, program, from, 0).0)
}

/// Replays `log` into `observer`, checking every returned cycle count.
fn replay(log: &[Callback], observer: &mut dyn ExecObserver) -> Result<(), ResumeError> {
    for (index, callback) in log.iter().enumerate() {
        let agrees = match callback {
            Callback::ThreadStart {
                thread,
                name,
                now,
                cost,
            } => observer.on_thread_start(*thread, name, *now) == *cost,
            Callback::ThreadExit { thread, now } => {
                observer.on_thread_exit(*thread, *now);
                true
            }
            Callback::PhaseStart { index, kind, now } => {
                observer.on_phase_start(*index, *kind, *now);
                true
            }
            Callback::PhaseEnd { index, kind, now } => {
                observer.on_phase_end(*index, *kind, *now);
                true
            }
            Callback::Access { record, cost } => observer.on_access(record) == *cost,
            Callback::Fork { thread } => {
                drop(observer.fork_sampler(*thread));
                true
            }
        };
        if !agrees {
            return Err(ResumeError::ObserverDiverged { callback: index });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Remapping;
    use crate::metrics::RESUMED_PHASES;
    use crate::program::{LoopStream, OpsStream, ProgramBuilder, ThreadSpec};
    use crate::types::Addr;
    use crate::{Machine, ObsHandle, Op, SchedulePolicy};

    /// Written by the serial input phase, read by every worker.
    const INPUT: Addr = Addr(0x10_000);
    /// Written by the parallel phases: adjacent words, one line.
    const SCRATCH: Addr = Addr(0x20_000);

    fn workers(phase: u32) -> Vec<ThreadSpec> {
        (0..2u64)
            .map(|t| {
                let body = vec![
                    Op::Read(INPUT.offset(t * 64)),
                    Op::Write(SCRATCH.offset(t * 8)),
                    Op::Work(3),
                ];
                ThreadSpec::new(format!("w{phase}-{t}"), LoopStream::new(body, 300))
            })
            .collect()
    }

    /// A serial input phase, then two parallel phases false-sharing
    /// `SCRATCH`; with `init_scratch` the input phase also writes it.
    fn program(init_scratch: bool) -> Program {
        let mut init: Vec<Op> = (0..64).map(|i| Op::Write(INPUT.offset(i * 8))).collect();
        init.extend((0..64).map(|i| Op::Read(INPUT.offset(i * 8))));
        if init_scratch {
            init.push(Op::Write(SCRATCH));
        }
        ProgramBuilder::new("resumable")
            .serial(ThreadSpec::new("read_input", OpsStream::new(init)))
            .parallel(workers(1))
            .parallel(workers(2))
            .build()
    }

    /// Logs every callback; charges `setup` cycles per thread start and a
    /// few address-dependent cycles per access.
    #[derive(Default)]
    struct Log {
        events: Vec<String>,
        setup: Cycles,
    }

    impl ExecObserver for Log {
        fn on_thread_start(&mut self, thread: ThreadId, name: &str, now: Cycles) -> Cycles {
            self.events.push(format!("start {thread:?} {name} {now}"));
            self.setup
        }

        fn on_thread_exit(&mut self, thread: ThreadId, now: Cycles) {
            self.events.push(format!("exit {thread:?} {now}"));
        }

        fn on_phase_start(&mut self, index: u32, kind: PhaseKind, now: Cycles) {
            self.events.push(format!("phase {index} {kind:?} {now}"));
        }

        fn on_phase_end(&mut self, index: u32, kind: PhaseKind, now: Cycles) {
            self.events.push(format!("end {index} {kind:?} {now}"));
        }

        fn on_access(&mut self, record: &AccessRecord) -> Cycles {
            self.events.push(format!("{record:?}"));
            record.addr.0 % 3
        }
    }

    fn config(cores: u32, shards: u32) -> MachineConfig {
        MachineConfig::with_cores(cores)
            .with_shards(shards)
            .with_obs(ObsHandle::fresh_untraced())
    }

    fn moved(from: Addr) -> LayoutMap {
        LayoutMap::new(vec![Remapping::new(from, 8, Addr(0x90_000))]).unwrap()
    }

    fn captured(machine: &Machine) -> Checkpoint {
        let (_, checkpoint) = machine.run_capturing(program(false), &mut Log::default());
        checkpoint.expect("the input phase is a capturable prefix")
    }

    #[test]
    fn capture_needs_shards_and_an_unwritten_prefix() {
        let classic = Machine::new(config(8, 1));
        let (report, checkpoint) = classic.run_capturing(program(false), &mut Log::default());
        assert!(checkpoint.is_none(), "the classic loop never captures");
        assert_eq!(report, classic.run(program(false), &mut Log::default()));

        let sharded = Machine::new(config(8, 2));
        let (_, checkpoint) = sharded.run_capturing(program(true), &mut Log::default());
        assert!(checkpoint.is_none(), "the input phase writes SCRATCH");
        assert_eq!(captured(&sharded).phases(), 1);
    }

    /// Under the observed schedule and under both perturbation families:
    /// a checkpoint captured under a policy resumes to that policy's full
    /// run.
    #[test]
    fn resume_equals_a_full_run() {
        let mut runs = Vec::new();
        for schedule in [
            SchedulePolicy::Observed,
            SchedulePolicy::SeededShuffle { seed: 3 },
            SchedulePolicy::ContentionMax { seed: 3 },
        ] {
            let machine = Machine::new(config(8, 2).with_schedule(schedule));
            let checkpoint = captured(&machine);
            let map = moved(SCRATCH).shared();
            assert!(checkpoint.admits(&map));

            let mut resumed = Log::default();
            let report = machine
                .resume(
                    &checkpoint,
                    program(false).with_layout(map.clone()),
                    &mut resumed,
                )
                .expect("an admitted layout resumes");
            assert_eq!(machine.config().obs.counter(RESUMED_PHASES).get(), 1);

            let mut full = Log::default();
            let classic = Machine::new(config(8, 1).with_schedule(schedule));
            assert_eq!(
                report,
                classic.run(program(false).with_layout(map), &mut full),
                "{schedule}"
            );
            assert_eq!(resumed.events, full.events, "{schedule}");
            runs.push(full.events);
        }
        assert_ne!(runs[0], runs[1], "the shuffle reorders the workers");
        assert_ne!(runs[0], runs[2], "contention-max reorders the workers");
    }

    #[test]
    fn layout_touching_the_prefix_is_rejected() {
        let machine = Machine::new(config(8, 2));
        let checkpoint = captured(&machine);
        let map = moved(INPUT).shared();
        assert!(!checkpoint.admits(&map));

        let mut observer = Log::default();
        let refused = machine.resume(
            &checkpoint,
            program(false).with_layout(map.clone()),
            &mut observer,
        );
        assert_eq!(refused, Err(ResumeError::PrefixMismatch { phase: 0 }));
        assert!(observer.events.is_empty(), "refused before any replay");
        assert_eq!(machine.config().obs.counter(RESUMED_PHASES).get(), 0);

        // Starting over gives the reference run.
        let fresh = machine.run(program(false).with_layout(map.clone()), &mut Log::default());
        let classic = Machine::new(config(8, 1));
        assert_eq!(
            fresh,
            classic.run(program(false).with_layout(map), &mut Log::default())
        );
    }

    #[test]
    fn diverging_observer_is_a_typed_error() {
        let machine = Machine::new(config(8, 2));
        let checkpoint = captured(&machine);
        let mut costlier = Log {
            setup: 7,
            ..Log::default()
        };
        let refused = machine.resume(&checkpoint, program(false), &mut costlier);
        // The main thread's start is the first callback of every run.
        assert_eq!(refused, Err(ResumeError::ObserverDiverged { callback: 0 }));
        assert_eq!(
            refused.unwrap_err().to_string(),
            "observer diverged at replayed callback 0"
        );
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let checkpoint = captured(&Machine::new(config(8, 2)));
        for other in [config(16, 2), config(8, 4)] {
            let refused =
                Machine::new(other).resume(&checkpoint, program(false), &mut Log::default());
            assert_eq!(refused, Err(ResumeError::ConfigMismatch));
        }
    }
}
