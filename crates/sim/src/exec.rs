//! The execution engine: runs a [`Program`] on a simulated machine.
//!
//! Threads in a parallel phase are interleaved by a discrete-event loop
//! keyed on per-thread virtual clocks, so every access another thread or
//! the observer can see reaches the coherence [`Directory`] in global time
//! order and write ping-pong between cores unfolds exactly as on a real
//! machine. Between turns, a thread runs ahead through the ops no one else
//! can see (see `Execution::run_parallel`). The engine is fully
//! deterministic: identical programs produce identical reports.

use crate::checkpoint::{Checkpoint, ResumeError};
use crate::coherence::{Directory, MAX_CORES};
use crate::extent::{byte_to_line_extents, ClassCursor, ClassTable, ExtClass};
use crate::footprint::Footprint;
use crate::latency::LatencyModel;
use crate::metrics::SimCounters;
use crate::observer::{AccessRecord, ExecObserver, ForkJudge, Verdict};
use crate::program::{AccessStream, Op, Phase, Program};
use crate::report::{PhaseReport, RunReport, ThreadReport};
use crate::schedule::SchedulePolicy;
use crate::types::{AccessKind, Addr, CoreId, Cycles, PhaseKind, ThreadId};
use cheetah_obs::{Fnv64, ObsHandle};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

/// Lane (Chrome-trace `tid`) used by the execution engine's spans.
pub const OBS_LANE_ENGINE: u32 = 0;

/// Configuration of the simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of physical cores (1..=64). Threads are bound round-robin:
    /// the main thread to core 0, workers of each parallel phase to cores
    /// `1, 2, ...` wrapping around — mirroring the paper's thread-to-core
    /// binding on its 48-core evaluation machine.
    pub num_cores: u32,
    /// Cache line size in bytes; must be a power of two. Default 64.
    pub cache_line_size: u64,
    /// Latency model for memory accesses.
    pub latency: LatencyModel,
    /// Main-thread cycles consumed by each `pthread_create`.
    pub thread_spawn_cost: Cycles,
    /// Host threads used to *shard* parallel phases (the `--shards N` knob
    /// of the bench harnesses). Serial phases run on the main thread's one
    /// fused private-line loop at every value. `1` (the default) runs
    /// parallel phases in the classic single-threaded discrete-event loop,
    /// which steps every access through the directory and surfaces to the
    /// observer only the accesses its sampling replica judges sampled (see
    /// [`crate::ThreadSampler`]). Workers take turns in time order only at
    /// accesses another worker or the observer can see; between turns a
    /// worker runs ahead through its work and its unsampled accesses to
    /// lines its declared footprint owns alone (when every stream declares
    /// a [`crate::Footprint::Bounded`] and no two workers share a core).
    /// [`crate::metrics::CLASSIC_SWITCHES`] counts the turns. `0` means
    /// "auto" (the host's available parallelism); `>= 2` executes each
    /// parallel phase in two passes — per-worker event precomputation
    /// fanned out over this many host threads, then a deterministic merge
    /// ordered by `(timestamp, worker, seq)` (see [`crate::shard`]).
    /// Reports are bit-identical for every value; only wall-clock time
    /// changes.
    pub shards: u32,
    /// Telemetry registry the run reports into: execution counters
    /// ([`crate::metrics`]), per-phase spans and, when [`witness`] is set,
    /// determinism state hashes. Defaults to a private, untraced registry
    /// per configuration (clones share it); transparent to config
    /// equality.
    ///
    /// [`witness`]: MachineConfig::witness
    pub obs: ObsHandle,
    /// When `true`, every phase records an FNV-1a hash of the logical
    /// machine state (directory + thread cursors + coherence stats) as a
    /// `witness` attribute on its phase span — the determinism divergence
    /// locator's raw material. Off by default: hashing enumerates the
    /// whole directory each phase, and the hash is diagnostic, never part
    /// of [`RunReport`].
    pub witness: bool,
    /// When `true`, every thread's stream is wrapped in a byte-granular
    /// footprint auditor: each executed memory access is checked against
    /// the stream's declared [`crate::Footprint`] (reads must lie inside
    /// some extent, writes inside a `wrote` extent). A violating access
    /// bumps [`crate::metrics::FOOTPRINT_VIOLATIONS`] and, in debug
    /// builds, aborts with the thread name and offending address. Off by
    /// default: the check costs a binary search per access.
    pub audit_footprints: bool,
    /// How parallel phases order the sharded merge's residue events.
    /// [`SchedulePolicy::Observed`] (the default) replays the observed
    /// timestamp order — bit-identical to the classic loop at every shard
    /// count. A perturbed policy replays a different feasible
    /// interleaving of the same per-worker event streams, deterministic
    /// given the policy's seed (see [`crate::schedule`]). Perturbed
    /// policies route parallel phases through the sharded executor even
    /// at `shards = 1`; oversubscribed phases (more workers than cores)
    /// fall back to the classic loop and ignore the policy.
    pub schedule: SchedulePolicy,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            num_cores: 48,
            cache_line_size: 64,
            latency: LatencyModel::default(),
            thread_spawn_cost: 3_000,
            shards: 1,
            obs: ObsHandle::default(),
            witness: false,
            audit_footprints: false,
            schedule: SchedulePolicy::Observed,
        }
    }
}

impl MachineConfig {
    /// A machine with the given core count and defaults elsewhere.
    pub fn with_cores(num_cores: u32) -> Self {
        MachineConfig {
            num_cores,
            ..MachineConfig::default()
        }
    }

    /// Returns the configuration with the shard count replaced (builder
    /// style): `0` = auto, `1` = classic parallel-phase loop, `>= 2` =
    /// sharded.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Returns the configuration reporting into `obs` (builder style).
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Returns the configuration with per-phase state-hash witnesses
    /// enabled (builder style). Pair with a tracing registry
    /// ([`ObsHandle::fresh`]) so the hashes are actually recorded.
    pub fn with_witness(mut self, witness: bool) -> Self {
        self.witness = witness;
        self
    }

    /// Returns the configuration with footprint auditing enabled or
    /// disabled (builder style); see
    /// [`audit_footprints`](MachineConfig::audit_footprints).
    pub fn with_footprint_audit(mut self, audit: bool) -> Self {
        self.audit_footprints = audit;
        self
    }

    /// Returns the configuration with the given merge schedule policy
    /// (builder style); see [`schedule`](MachineConfig::schedule).
    pub fn with_schedule(mut self, schedule: SchedulePolicy) -> Self {
        self.schedule = schedule;
        self
    }

    /// The shard count actually used: `shards`, with `0` resolved to the
    /// host's available parallelism.
    pub fn resolved_shards(&self) -> u32 {
        match self.shards {
            0 => std::thread::available_parallelism()
                .map(|n| n.get() as u32)
                .unwrap_or(1),
            n => n,
        }
    }
}

/// Error for invalid [`MachineConfig`] values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_cores` outside `1..=64`.
    InvalidCoreCount(u32),
    /// `cache_line_size` zero or not a power of two.
    InvalidLineSize(u64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidCoreCount(n) => {
                write!(f, "core count {n} outside supported range 1..={MAX_CORES}")
            }
            ConfigError::InvalidLineSize(n) => {
                write!(f, "cache line size {n} is not a nonzero power of two")
            }
        }
    }
}

impl Error for ConfigError {}

/// The simulated machine; construct once, run many programs.
///
/// ```
/// use cheetah_sim::{Machine, MachineConfig, NullObserver, Op, OpsStream,
///                   ProgramBuilder, ThreadSpec, Addr};
/// let machine = Machine::new(MachineConfig::with_cores(8));
/// let program = ProgramBuilder::new("tiny")
///     .serial(ThreadSpec::new("init", OpsStream::new(vec![Op::Write(Addr(0x1000))])))
///     .build();
/// let report = machine.run(program, &mut NullObserver);
/// assert!(report.total_cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
}

impl Machine {
    /// Creates a machine, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the core count or line size is invalid.
    pub fn try_new(config: MachineConfig) -> Result<Machine, ConfigError> {
        if config.num_cores == 0 || config.num_cores > MAX_CORES {
            return Err(ConfigError::InvalidCoreCount(config.num_cores));
        }
        if !config.cache_line_size.is_power_of_two() {
            return Err(ConfigError::InvalidLineSize(config.cache_line_size));
        }
        Ok(Machine { config })
    }

    /// Creates a machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; see [`Machine::try_new`] for
    /// the fallible variant.
    pub fn new(config: MachineConfig) -> Machine {
        Machine::try_new(config).expect("invalid machine configuration")
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Runs `program` to completion under `observer` and reports timings.
    ///
    /// The program is consumed: streams are stateful and single-shot.
    pub fn run(&self, program: Program, observer: &mut dyn ExecObserver) -> RunReport {
        execute(&self.config, observer, program, None, 0).0
    }

    /// Runs `program` like [`Machine::run`] and, on a sharded machine,
    /// also captures a [`Checkpoint`] after the program's longest leading
    /// run of phases that no parallel phase writes into (see
    /// [`crate::checkpoint`]). Returns `None` in place of the checkpoint
    /// on the classic loop (`shards = 1`) or when no such prefix exists.
    pub fn run_capturing(
        &self,
        program: Program,
        observer: &mut dyn ExecObserver,
    ) -> (RunReport, Option<Checkpoint>) {
        crate::checkpoint::capture(&self.config, program, observer)
    }

    /// Runs `program` from `checkpoint`: replays the prefix's observer
    /// callbacks into `observer`, restores the machine state, and executes
    /// only the phases after the prefix. The report equals a full
    /// [`Machine::run`] of `program` whenever the program's prefix executes
    /// the same operations as the captured one (see [`crate::checkpoint`]).
    ///
    /// # Errors
    ///
    /// [`ResumeError`] if the configuration differs from the capturing
    /// machine's, the program's prefix declares different footprints, or
    /// `observer` answers a replayed callback differently; nothing after
    /// the replayed callbacks has run, so the caller can start over.
    pub fn resume(
        &self,
        checkpoint: &Checkpoint,
        program: Program,
        observer: &mut dyn ExecObserver,
    ) -> Result<RunReport, ResumeError> {
        crate::checkpoint::resume(&self.config, checkpoint, program, observer)
    }
}

/// Executes `program` on a machine configured by `config`. With `from`,
/// the run starts at that phase boundary instead of phase 0; with
/// `capture_after > 0`, the machine state at the end of phase
/// `capture_after - 1` is returned next to the report.
pub(crate) fn execute(
    config: &MachineConfig,
    observer: &mut dyn ExecObserver,
    program: Program,
    from: Option<Boundary>,
    capture_after: u32,
) -> (RunReport, Option<Boundary>) {
    Execution::new(config, observer).run(program, from, capture_after)
}

/// The machine state at a phase boundary: everything the remaining phases'
/// execution and the final report depend on.
#[derive(Debug, Clone)]
pub(crate) struct Boundary {
    /// Phases completed.
    pub(crate) phases: u32,
    pub(crate) directory: Directory,
    pub(crate) main: MainCursor,
    pub(crate) next_tid: u32,
    pub(crate) phase_reports: Vec<PhaseReport>,
    pub(crate) thread_reports: Vec<ThreadReport>,
}

/// The main thread's position: its clock and retired-operation counts.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MainCursor {
    clock: Cycles,
    instructions: u64,
    reads: u64,
    writes: u64,
    judged: Option<u64>,
}

/// Byte-granular footprint auditor
/// ([`MachineConfig::audit_footprints`]): forwards the wrapped stream's
/// ops, checking every memory access against the stream's declared
/// footprint. Reads must land inside some extent; writes inside an extent
/// declared `wrote`. Streams with [`Footprint::Unknown`] declare nothing,
/// so nothing is audited.
struct AuditStream {
    thread_name: String,
    inner: Box<dyn AccessStream>,
    /// Normalized extents of the declared footprint; `None` = `Unknown`.
    extents: Option<Vec<crate::footprint::ByteExtent>>,
    violations: cheetah_obs::Counter,
}

impl AuditStream {
    fn wrap(
        thread_name: &str,
        inner: Box<dyn AccessStream>,
        violations: cheetah_obs::Counter,
    ) -> Box<dyn AccessStream> {
        let extents = match inner.footprint() {
            crate::Footprint::Bounded(extents) => Some(extents),
            crate::Footprint::Unknown => None,
        };
        Box::new(AuditStream {
            thread_name: thread_name.to_string(),
            inner,
            extents,
            violations,
        })
    }
}

impl AccessStream for AuditStream {
    fn next_op(&mut self) -> Option<Op> {
        let op = self.inner.next_op()?;
        if let (Some((addr, kind)), Some(extents)) = (op.mem_ref(), self.extents.as_deref()) {
            // Normalized extents are sorted and byte-disjoint: the only
            // candidate is the first extent ending past the address.
            let idx = extents.partition_point(|e| e.end <= addr.0);
            let covered = extents
                .get(idx)
                .is_some_and(|e| e.start <= addr.0 && (kind != AccessKind::Write || e.wrote));
            if !covered {
                self.violations.add(1);
                debug_assert!(
                    false,
                    "footprint audit: thread '{}' {} {:#x} outside its declared \
                     footprint — the stream's Footprint::Bounded under-approximates \
                     its accesses",
                    self.thread_name,
                    match kind {
                        AccessKind::Read => "reads",
                        AccessKind::Write => "writes",
                    },
                    addr.0
                );
            }
        }
        Some(op)
    }

    fn footprint(&self) -> crate::Footprint {
        self.inner.footprint()
    }
}

/// Per-thread execution state.
pub(crate) struct ThreadCtx {
    pub(crate) id: ThreadId,
    pub(crate) name: String,
    pub(crate) core: CoreId,
    /// Global virtual time of the thread's next instruction.
    pub(crate) clock: Cycles,
    pub(crate) start: Cycles,
    pub(crate) instructions: u64,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    /// Instruction index of the last access a sampling replica of this
    /// thread judged ([`ForkJudge::last_judged`]); the main thread carries
    /// it from one serial phase's fork to the next.
    pub(crate) judged: Option<u64>,
    pub(crate) stream: Box<dyn AccessStream>,
}

struct Execution<'a> {
    config: &'a MachineConfig,
    observer: &'a mut dyn ExecObserver,
    directory: Directory,
    latency: LatencyModel,
    /// Resolved shard count; `>= 2` enables the sharded parallel-phase path.
    shards: u32,
    /// Accesses replayed individually by the classic loop (flushed into
    /// the run's counters once per run to keep atomics off the hot path).
    classic_ops: u64,
    /// Heap pops of the classic loop's parallel phases (flushed like
    /// `classic_ops`).
    classic_switches: u64,
    /// The run's counter handles, resolved once from `config.obs`.
    counters: SimCounters,
}

impl<'a> Execution<'a> {
    fn new(config: &'a MachineConfig, observer: &'a mut dyn ExecObserver) -> Self {
        if config.obs.tracing_enabled() {
            config.obs.name_lane(OBS_LANE_ENGINE, "engine");
        }
        Execution {
            config,
            observer,
            directory: Directory::new(config.latency.clone()),
            latency: config.latency.clone(),
            shards: config.resolved_shards(),
            classic_ops: 0,
            classic_switches: 0,
            counters: SimCounters::of(&config.obs),
        }
    }

    /// FNV-1a digest of the logical machine state at a phase boundary:
    /// phase identity, the main thread's cursor, every worker cursor the
    /// phase retired, and the directory's logical contents. Thread cursors
    /// capture "report deltas" (the per-thread counters the phase will
    /// publish into [`RunReport`]); the directory digest captures
    /// everything the next phase's timing depends on. Identical across
    /// shard counts by the sharded executor's bit-identity contract.
    fn phase_witness(
        &self,
        index: u32,
        kind: PhaseKind,
        main: &ThreadCtx,
        retired: &[ThreadReport],
    ) -> u64 {
        let mut hash = Fnv64::new();
        hash.write_u64(u64::from(index));
        hash.write_u8(match kind {
            PhaseKind::Serial => 0,
            PhaseKind::Parallel => 1,
        });
        hash.write_u64(main.clock);
        hash.write_u64(main.instructions);
        hash.write_u64(main.reads);
        hash.write_u64(main.writes);
        for report in retired {
            hash.write_u64(u64::from(report.id.0));
            hash.write_u64(report.start);
            hash.write_u64(report.end);
            hash.write_u64(report.instructions);
            hash.write_u64(report.reads);
            hash.write_u64(report.writes);
        }
        self.directory.witness_digest(&mut hash);
        hash.finish()
    }

    fn run(
        mut self,
        program: Program,
        from: Option<Boundary>,
        capture_after: u32,
    ) -> (RunReport, Option<Boundary>) {
        let (program_name, phases) = program.into_parts();
        let from = from.unwrap_or_else(|| Boundary {
            phases: 0,
            directory: Directory::new(self.latency.clone()),
            // The main thread exists for the whole run on core 0.
            main: MainCursor {
                clock: self.observer.on_thread_start(ThreadId::MAIN, "main", 0),
                ..MainCursor::default()
            },
            next_tid: 1,
            phase_reports: Vec::with_capacity(phases.len()),
            thread_reports: Vec::new(),
        });
        self.counters.count_resumed(u64::from(from.phases));
        let Boundary {
            phases: first,
            directory,
            main: cursor,
            mut next_tid,
            mut phase_reports,
            mut thread_reports,
        } = from;
        self.directory = directory;
        let mut main = ThreadCtx {
            id: ThreadId::MAIN,
            name: "main".to_string(),
            core: CoreId(0),
            clock: cursor.clock,
            start: 0,
            instructions: cursor.instructions,
            reads: cursor.reads,
            writes: cursor.writes,
            judged: cursor.judged,
            stream: Box::new(crate::program::OpsStream::new(Vec::new())),
        };
        let mut captured = None;

        for (index, phase) in phases.into_iter().enumerate().skip(first as usize) {
            let index = index as u32;
            let kind = phase.kind();
            let phase_start = main.clock;
            let retired_from = thread_reports.len();
            let mut span = self.config.obs.span("phase", OBS_LANE_ENGINE);
            span.attr_u64("index", u64::from(index));
            span.attr_str(
                "kind",
                match kind {
                    PhaseKind::Serial => "serial",
                    PhaseKind::Parallel => "parallel",
                },
            );
            span.attr_u64("start_cycles", phase_start);
            self.observer.on_phase_start(index, kind, phase_start);
            match phase {
                Phase::Serial(spec) => {
                    let (name, stream) = spec.into_parts();
                    main.stream = if self.config.audit_footprints {
                        AuditStream::wrap(&name, stream, self.counters.violations_handle())
                    } else {
                        stream
                    };
                    crate::shard::run_serial(
                        self.config,
                        &mut self.directory,
                        self.observer,
                        &mut main,
                        index,
                    );
                    phase_reports.push(PhaseReport {
                        index,
                        kind,
                        start: phase_start,
                        end: main.clock,
                        threads: vec![ThreadId::MAIN],
                    });
                }
                Phase::Parallel(specs) => {
                    let mut workers = Vec::with_capacity(specs.len());
                    for (slot, spec) in specs.into_iter().enumerate() {
                        let (name, stream) = spec.into_parts();
                        let stream = if self.config.audit_footprints {
                            AuditStream::wrap(&name, stream, self.counters.violations_handle())
                        } else {
                            stream
                        };
                        let id = ThreadId(next_tid);
                        next_tid += 1;
                        // pthread_create runs on the main thread.
                        main.clock += self.config.thread_spawn_cost;
                        let core = CoreId((1 + slot as u32) % self.config.num_cores);
                        let setup = self.observer.on_thread_start(id, &name, main.clock);
                        workers.push(ThreadCtx {
                            id,
                            name,
                            core,
                            clock: main.clock + setup,
                            start: main.clock,
                            instructions: 0,
                            reads: 0,
                            writes: 0,
                            judged: None,
                            stream,
                        });
                    }
                    // Sharded execution requires each phase member to own a
                    // distinct core: workers sharing a core interleave
                    // through one private cache, which only the classic
                    // per-op loop models. Slot-to-core binding is
                    // `(1 + slot) % num_cores`, so cores are distinct
                    // exactly when the phase has at most `num_cores`
                    // workers.
                    // A perturbed schedule policy also routes through the
                    // sharded executor (the residue reordering lives in
                    // its merge), even at `shards = 1`.
                    let sharded_route = self.shards >= 2 || !self.config.schedule.is_observed();
                    let ends = if sharded_route && workers.len() as u32 <= self.config.num_cores {
                        crate::shard::run_parallel_sharded(
                            self.config,
                            &mut self.directory,
                            self.observer,
                            &mut workers,
                            index,
                            self.shards as usize,
                        )
                    } else {
                        self.run_parallel(&mut workers, index)
                    };
                    let mut phase_threads = Vec::with_capacity(workers.len());
                    let mut phase_end = main.clock;
                    for (worker, end) in workers.into_iter().zip(ends) {
                        phase_end = phase_end.max(end);
                        phase_threads.push(worker.id);
                        thread_reports.push(ThreadReport {
                            id: worker.id,
                            name: worker.name,
                            phase_index: index,
                            start: worker.start,
                            end,
                            instructions: worker.instructions,
                            reads: worker.reads,
                            writes: worker.writes,
                        });
                    }
                    // Main blocks in join until the slowest child finishes.
                    main.clock = phase_end;
                    phase_reports.push(PhaseReport {
                        index,
                        kind,
                        start: phase_start,
                        end: phase_end,
                        threads: phase_threads,
                    });
                }
            }
            self.observer.on_phase_end(index, kind, main.clock);
            span.attr_u64("end_cycles", main.clock);
            if self.config.witness {
                span.attr_u64(
                    "witness",
                    self.phase_witness(index, kind, &main, &thread_reports[retired_from..]),
                );
            }
            span.finish();
            if index + 1 == capture_after {
                captured = Some(Boundary {
                    phases: capture_after,
                    directory: self.directory.clone(),
                    main: MainCursor {
                        clock: main.clock,
                        instructions: main.instructions,
                        reads: main.reads,
                        writes: main.writes,
                        judged: main.judged,
                    },
                    next_tid,
                    phase_reports: phase_reports.clone(),
                    thread_reports: thread_reports.clone(),
                });
            }
        }

        let total = main.clock;
        self.observer.on_thread_exit(ThreadId::MAIN, total);
        thread_reports.insert(
            0,
            ThreadReport {
                id: ThreadId::MAIN,
                name: main.name,
                phase_index: 0,
                start: 0,
                end: total,
                instructions: main.instructions,
                reads: main.reads,
                writes: main.writes,
            },
        );

        self.counters.count_merged(self.classic_ops);
        self.counters.count_switches(self.classic_switches);
        let report = RunReport {
            program: program_name,
            total_cycles: total,
            phases: phase_reports,
            threads: thread_reports,
            coherence: self.directory.stats().clone(),
        };
        (report, captured)
    }

    /// Runs all workers of a parallel phase to completion; returns each
    /// worker's end time, in the same order as `workers`.
    ///
    /// Workers take turns in `(clock, slot)` order, so every access another
    /// worker or the observer can see reaches the directory in global time
    /// order. Between turns a worker **runs ahead** through the ops nobody
    /// else can see: work, and unsampled accesses to lines its declared
    /// footprint owns alone in the phase (see [`Execution::private_lines`]).
    /// Such a line never queues — pre-phase transactions complete before
    /// spawn and the worker's clock passes its own busy windows — and its
    /// MESI transitions, LLC residency, the core's prefetch cursor and the
    /// commutative statistics depend on no other worker, so running it
    /// early changes nothing but host order. Every other op is *ordered*:
    /// it runs only while its worker holds the global `(clock, slot)`
    /// minimum; otherwise the worker parks it, already pulled and judged,
    /// and re-queues. Each access is judged once, in program order, when
    /// it is pulled.
    fn run_parallel(&mut self, workers: &mut [ThreadCtx], phase_index: u32) -> Vec<Cycles> {
        let mut ends = vec![0; workers.len()];
        let mut judges: Vec<ForkJudge> = workers
            .iter()
            .map(|w| ForkJudge::fork(self.observer, w.id, w.judged))
            .collect();
        let private = self.private_lines(workers);
        let mut cursors = vec![ClassCursor::default(); workers.len()];
        // The ordered op each re-queued worker stopped at (`None`: its
        // exit), pulled and judged.
        let mut parked: Vec<Option<Option<Pulled>>> = vec![None; workers.len()];
        // Min-heap on (clock, slot); slot as tiebreak keeps runs
        // deterministic when clocks collide.
        let mut heap: BinaryHeap<Reverse<(Cycles, usize)>> = workers
            .iter()
            .enumerate()
            .map(|(slot, w)| Reverse((w.clock, slot)))
            .collect();
        let line_size = self.config.cache_line_size;
        while let Some(Reverse((_, slot))) = heap.pop() {
            self.classic_switches += 1;
            let horizon = heap.peek().map(|Reverse(key)| *key);
            let worker = &mut workers[slot];
            let judge = &mut judges[slot];
            let mut next = parked[slot].take().unwrap_or_else(|| pull(worker, judge));
            let finished = loop {
                let ordered = match next {
                    None => true,
                    Some(Pulled::Work(_)) => false,
                    Some(Pulled::Access { addr, verdict, .. }) => {
                        verdict.surfaced
                            || private.as_ref().is_none_or(|table| {
                                cursors[slot].class(table, addr.line(line_size))
                                    != ExtClass::Private(slot as u32)
                            })
                    }
                };
                if ordered && horizon.is_some_and(|h| (worker.clock, slot) > h) {
                    parked[slot] = Some(next);
                    break false;
                }
                match next {
                    Some(op) => self.step(worker, op, phase_index),
                    None => break true,
                }
                next = pull(worker, judge);
            };
            let worker = &workers[slot];
            if finished {
                ends[slot] = worker.clock;
                self.observer.on_thread_exit(worker.id, worker.clock);
            } else {
                heap.push(Reverse((worker.clock, slot)));
            }
        }
        ends
    }

    /// The phase's line classes when workers may run ahead through their
    /// private lines: every stream declares a bounded footprint and every
    /// worker owns its core (the sharded executor's condition), and there
    /// is another worker to run ahead of. The classic loop *trusts* the
    /// declared footprints exactly as the sharded executor does: a
    /// violating stream's own accesses stay ordered (a line outside its
    /// footprint is never private to it), and only a worker whose private
    /// line a violator touches can run ahead of that violator —
    /// deterministically, but no longer in strict time order.
    fn private_lines(&self, workers: &[ThreadCtx]) -> Option<ClassTable> {
        if workers.len() < 2 || workers.len() as u32 > self.config.num_cores {
            return None;
        }
        let per_worker = workers
            .iter()
            .map(|w| match w.stream.footprint() {
                Footprint::Bounded(extents) => {
                    Some(byte_to_line_extents(&extents, self.config.cache_line_size))
                }
                Footprint::Unknown => None,
            })
            .collect::<Option<Vec<_>>>()?;
        Some(ClassTable::build(&per_worker))
    }

    /// Executes one operation of a parallel phase on behalf of `thread`,
    /// advancing its clock; an access reaches the observer only when its
    /// verdict surfaces it.
    fn step(&mut self, thread: &mut ThreadCtx, op: Pulled, phase_index: u32) {
        match op {
            Pulled::Work(n) => {
                thread.instructions += n;
                thread.clock += n * self.latency.cycles_per_instruction;
            }
            Pulled::Access {
                addr,
                kind,
                verdict,
            } => {
                self.classic_ops += 1;
                let line = addr.line(self.config.cache_line_size);
                let result = self.directory.access(thread.core, line, kind, thread.clock);
                let latency = result.latency();
                let perturbation = verdict.charge(self.observer, || AccessRecord {
                    thread: thread.id,
                    core: thread.core,
                    addr,
                    kind,
                    outcome: result.outcome,
                    latency,
                    start: thread.clock,
                    instrs_before: thread.instructions,
                    phase_index,
                    phase_kind: PhaseKind::Parallel,
                });
                thread.instructions += 1;
                match kind {
                    AccessKind::Read => thread.reads += 1,
                    AccessKind::Write => thread.writes += 1,
                }
                thread.clock += latency + perturbation;
            }
        }
    }
}

/// One op pulled from a thread's stream. An access carries the verdict its
/// thread's sampling judge gave it when pulled: judging follows program
/// order, while the access itself may wait for the worker's turn.
#[derive(Debug, Clone, Copy)]
enum Pulled {
    Work(u64),
    Access {
        addr: Addr,
        kind: AccessKind,
        verdict: Verdict,
    },
}

/// Pulls `thread`'s next op, judging it if it is an access; `None` once the
/// stream is exhausted.
#[inline]
fn pull(thread: &mut ThreadCtx, judge: &mut ForkJudge) -> Option<Pulled> {
    Some(match thread.stream.next_op()? {
        Op::Work(n) => Pulled::Work(n),
        Op::Read(addr) => Pulled::Access {
            addr,
            kind: AccessKind::Read,
            verdict: judge.judge(thread.instructions),
        },
        Op::Write(addr) => Pulled::Access {
            addr,
            kind: AccessKind::Write,
            verdict: judge.judge(thread.instructions),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{CountingObserver, NullObserver};
    use crate::program::{LoopStream, OpsStream, ProgramBuilder, ThreadSpec};
    use crate::types::Addr;

    fn machine(cores: u32) -> Machine {
        Machine::new(MachineConfig::with_cores(cores))
    }

    #[test]
    fn config_validation() {
        assert!(Machine::try_new(MachineConfig::with_cores(0)).is_err());
        assert!(Machine::try_new(MachineConfig::with_cores(65)).is_err());
        let bad_line = MachineConfig {
            cache_line_size: 48,
            ..MachineConfig::default()
        };
        assert!(matches!(
            Machine::try_new(bad_line),
            Err(ConfigError::InvalidLineSize(48))
        ));
        assert!(Machine::try_new(MachineConfig::default()).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid machine configuration")]
    fn new_panics_on_bad_config() {
        let _ = Machine::new(MachineConfig::with_cores(0));
    }

    #[test]
    fn serial_program_time_is_work_plus_latency() {
        let m = machine(4);
        let lat = m.config().latency.clone();
        let program = ProgramBuilder::new("serial")
            .serial(ThreadSpec::new(
                "s",
                OpsStream::new(vec![
                    Op::Work(100),
                    Op::Write(Addr(0x1000)),
                    Op::Read(Addr(0x1000)),
                ]),
            ))
            .build();
        let report = m.run(program, &mut NullObserver);
        // 100 work + cold write (memory) + read hit.
        assert_eq!(report.total_cycles, 100 + lat.memory + lat.l1_hit);
        assert_eq!(report.threads[0].instructions, 102);
        assert_eq!(report.threads[0].reads, 1);
        assert_eq!(report.threads[0].writes, 1);
    }

    #[test]
    fn parallel_phase_ends_at_slowest_thread() {
        let m = machine(8);
        let program = ProgramBuilder::new("p")
            .parallel(vec![
                ThreadSpec::new("fast", OpsStream::new(vec![Op::Work(10)])),
                ThreadSpec::new("slow", OpsStream::new(vec![Op::Work(10_000)])),
            ])
            .build();
        let report = m.run(program, &mut NullObserver);
        let slow = report.thread(ThreadId(2)).unwrap();
        assert_eq!(report.phases[0].end, slow.end);
        assert!(report.total_cycles >= 10_000);
    }

    #[test]
    fn false_sharing_is_slower_than_padded() {
        // Two threads incrementing adjacent words (same line) vs words on
        // distinct lines: the shared-line program must be much slower.
        let m = machine(8);
        let iterations = 2_000;
        let build = |stride: u64| {
            ProgramBuilder::new("fs")
                .parallel(
                    (0..2u64)
                        .map(|t| {
                            let addr = Addr(0x10_000 + t * stride);
                            ThreadSpec::new(
                                format!("w{t}"),
                                LoopStream::new(
                                    vec![Op::Read(addr), Op::Write(addr), Op::Work(4)],
                                    iterations,
                                ),
                            )
                        })
                        .collect(),
                )
                .build()
        };
        let shared = m.run(build(4), &mut NullObserver);
        let padded = m.run(build(64), &mut NullObserver);
        assert!(
            shared.total_cycles > 3 * padded.total_cycles,
            "false sharing should dominate: shared={} padded={}",
            shared.total_cycles,
            padded.total_cycles
        );
        assert!(shared.coherence.invalidations > iterations);
        // Padded run ping-pongs nothing after warmup.
        assert!(padded.coherence.invalidations < 10);
    }

    #[test]
    fn determinism_same_program_same_report() {
        let m = machine(8);
        let build = || {
            ProgramBuilder::new("det")
                .parallel(
                    (0..4u64)
                        .map(|t| {
                            ThreadSpec::new(
                                format!("w{t}"),
                                LoopStream::new(
                                    vec![
                                        Op::Write(Addr(0x1000 + t * 8)),
                                        Op::Read(Addr(0x1000 + ((t + 1) % 4) * 8)),
                                        Op::Work(3),
                                    ],
                                    500,
                                ),
                            )
                        })
                        .collect(),
                )
                .build()
        };
        let a = m.run(build(), &mut NullObserver);
        let b = m.run(build(), &mut NullObserver);
        assert_eq!(a, b);
    }

    #[test]
    fn observer_sees_every_event() {
        let m = machine(4);
        let program = ProgramBuilder::new("events")
            .serial(ThreadSpec::new(
                "init",
                OpsStream::new(vec![Op::Write(Addr(0x40))]),
            ))
            .parallel(vec![
                ThreadSpec::new("a", OpsStream::new(vec![Op::Read(Addr(0x40))])),
                ThreadSpec::new("b", OpsStream::new(vec![Op::Read(Addr(0x80))])),
            ])
            .build();
        let mut counter = CountingObserver::default();
        let report = m.run(program, &mut counter);
        assert_eq!(counter.thread_starts, 3); // main + 2 workers
        assert_eq!(counter.thread_exits, 3);
        assert_eq!(counter.phase_starts, 2);
        assert_eq!(counter.phase_ends, 2);
        assert_eq!(counter.accesses, 3);
        assert_eq!(counter.writes, 1);
        assert_eq!(report.total_accesses(), 3);
    }

    #[test]
    fn observer_perturbation_slows_threads() {
        struct Trap;
        impl ExecObserver for Trap {
            fn on_access(&mut self, _: &AccessRecord) -> Cycles {
                1_000
            }
        }
        let m = machine(4);
        let build = || {
            ProgramBuilder::new("trap")
                .serial(ThreadSpec::new(
                    "s",
                    OpsStream::new(vec![Op::Read(Addr(0x40)), Op::Read(Addr(0x40))]),
                ))
                .build()
        };
        let clean = m.run(build(), &mut NullObserver);
        let trapped = m.run(build(), &mut Trap);
        assert_eq!(trapped.total_cycles, clean.total_cycles + 2_000);
    }

    #[test]
    fn thread_setup_cost_delays_start() {
        struct Setup;
        impl ExecObserver for Setup {
            fn on_thread_start(&mut self, thread: ThreadId, _: &str, _: Cycles) -> Cycles {
                if thread.is_main() {
                    0
                } else {
                    50_000
                }
            }
        }
        let m = machine(4);
        let build = || {
            ProgramBuilder::new("setup")
                .parallel(vec![ThreadSpec::new(
                    "w",
                    OpsStream::new(vec![Op::Work(10)]),
                )])
                .build()
        };
        let clean = m.run(build(), &mut NullObserver);
        let with_setup = m.run(build(), &mut Setup);
        assert_eq!(with_setup.total_cycles, clean.total_cycles + 50_000);
    }

    #[test]
    fn spawn_cost_serialises_thread_starts() {
        let m = machine(8);
        let program = ProgramBuilder::new("spawn")
            .parallel(
                (0..3)
                    .map(|i| ThreadSpec::new(format!("w{i}"), OpsStream::new(vec![])))
                    .collect(),
            )
            .build();
        let report = m.run(program, &mut NullObserver);
        let spawn = m.config().thread_spawn_cost;
        assert_eq!(report.thread(ThreadId(1)).unwrap().start, spawn);
        assert_eq!(report.thread(ThreadId(2)).unwrap().start, 2 * spawn);
        assert_eq!(report.thread(ThreadId(3)).unwrap().start, 3 * spawn);
    }

    #[test]
    fn thread_ids_increase_across_phases() {
        let m = machine(4);
        let mk = |n: usize| {
            (0..n)
                .map(|i| ThreadSpec::new(format!("w{i}"), OpsStream::new(vec![Op::Work(1)])))
                .collect::<Vec<_>>()
        };
        let program = ProgramBuilder::new("phases")
            .parallel(mk(2))
            .parallel(mk(2))
            .build();
        let report = m.run(program, &mut NullObserver);
        let ids: Vec<u32> = report.threads.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(report.thread(ThreadId(3)).unwrap().phase_index, 1);
    }

    #[test]
    fn workers_share_cores_when_oversubscribed() {
        // 3 cores, 4 workers: worker slots 0..4 map to cores 1,2,0,1.
        let m = machine(3);
        let program = ProgramBuilder::new("over")
            .parallel(
                (0..4u64)
                    .map(|t| {
                        ThreadSpec::new(
                            format!("w{t}"),
                            LoopStream::new(vec![Op::Write(Addr(0x9000))], 100),
                        )
                    })
                    .collect(),
            )
            .build();
        let report = m.run(program, &mut NullObserver);
        // Writes to the same line from the same core are hits, so total
        // invalidations stay below the all-distinct-cores worst case.
        assert!(report.coherence.invalidations < 400);
        assert!(report.coherence.invalidations > 0);
    }
}
