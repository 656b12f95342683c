//! The complete Cheetah profiler: sampling + tracking + detection +
//! assessment, composed as one [`ExecObserver`].
//!
//! This is the whole of the paper's Fig. 2 wired together: the PMU
//! ("data collection") samples accesses, the driver filter and shadow map
//! route them into "FS detection", thread/phase tracking feeds
//! "FS assessment", and [`CheetahProfiler::finish`] produces the
//! "FS report". Deploying it on a simulated program is two lines:
//! construct, pass to [`cheetah_sim::Machine::run`] — mirroring the paper's
//! claim that deployment needs fewer than five lines of change.

use crate::assess::{assess_with_model, AssessContext, AssessModel};
use crate::classify::collect_instances;
use crate::config::{CheetahConfig, ProfilerConfigError};
use crate::detect::detector::{self, Detector, IngestOutcome, IngestStats};
use crate::report::AssessedInstance;
use cheetah_heap::AddressSpace;
use cheetah_obs::ObsHandle;
use cheetah_pmu::{engine, faults, FaultCounts, FaultInjector, Sample, SamplingEngine};
use cheetah_runtime::{PhaseInterval, PhaseTracker, ThreadRegistry, ThreadStats};
use cheetah_sim::{AccessRecord, Cycles, ExecObserver, SamplerFork, ThreadId};

/// The Cheetah profiler, attached to one program run.
///
/// ```
/// use cheetah_core::{CheetahConfig, CheetahProfiler};
/// use cheetah_heap::{AddressSpace, CallStack};
/// use cheetah_sim::{Machine, MachineConfig, Op, LoopStream, ProgramBuilder,
///                   ThreadSpec, ThreadId};
///
/// // An application whose two threads write adjacent words of one heap
/// // object 20K times each: classic false sharing.
/// let mut space = AddressSpace::new();
/// let obj = space.heap_mut().alloc(ThreadId(0), 64, CallStack::single("app.c", 7))?;
/// let program = ProgramBuilder::new("demo")
///     .parallel((0..2u64).map(|t| ThreadSpec::new(
///         format!("worker-{t}"),
///         LoopStream::new(vec![Op::Write(obj.offset(t * 4)), Op::Work(3)], 200_000),
///     )).collect())
///     .build();
///
/// let machine = Machine::new(MachineConfig::with_cores(8));
/// let mut profiler = CheetahProfiler::new(CheetahConfig::with_period(512), &space);
/// machine.run(program, &mut profiler);
/// let profile = profiler.finish();
/// let fs = profile.false_sharing();
/// assert_eq!(fs.len(), 1);
/// assert!(fs[0].improvement() > 1.5);
/// # Ok::<(), cheetah_heap::HeapError>(())
/// ```
pub struct CheetahProfiler<'a> {
    space: &'a AddressSpace,
    engine: SamplingEngine,
    phases: PhaseTracker,
    threads: ThreadRegistry,
    detector: Detector,
    /// Seeded sample-stream fault injector, when the configuration asks
    /// for one ([`CheetahConfig::with_faults`]). `None` delivers samples
    /// untouched — the default and every baseline's path.
    faults: Option<FaultInjector>,
    assess_model: AssessModel,
    end_time: Cycles,
    /// Registry the run's final counts are published into.
    obs: ObsHandle,
}

impl<'a> CheetahProfiler<'a> {
    /// Creates a profiler resolving addresses against `space`.
    ///
    /// # Errors
    ///
    /// [`ProfilerConfigError`] naming the invalid part of `config`: the
    /// sampler (zero period), the detector (bad line size, fraction,
    /// latency or capacity) or the fault plan (out-of-range rate).
    pub fn try_new(
        config: CheetahConfig,
        space: &'a AddressSpace,
    ) -> Result<Self, ProfilerConfigError> {
        let engine =
            SamplingEngine::try_new(config.sampler).map_err(ProfilerConfigError::Sampler)?;
        config
            .detector
            .try_validate()
            .map_err(ProfilerConfigError::Detector)?;
        let faults = config
            .faults
            .map(FaultInjector::new)
            .transpose()
            .map_err(ProfilerConfigError::Faults)?;
        Ok(CheetahProfiler {
            space,
            engine,
            phases: PhaseTracker::new(),
            threads: ThreadRegistry::new(),
            detector: Detector::new(config.detector),
            faults,
            assess_model: config.assess_model,
            end_time: 0,
            obs: config.obs,
        })
    }

    /// Creates a profiler resolving addresses against `space`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid; see [`CheetahProfiler::try_new`] for
    /// the fallible variant.
    pub fn new(config: CheetahConfig, space: &'a AddressSpace) -> Self {
        CheetahProfiler::try_new(config, space).unwrap_or_else(|error| panic!("{error}"))
    }

    /// Adds the run's final sampling, ingest and fault counts to the
    /// configured registry. Called once, when the main thread exits.
    fn publish(&self) {
        let stats = self.detector.ingest_stats();
        let mut counters = vec![
            (engine::OBS_SAMPLES_DELIVERED, self.engine.total_samples()),
            (engine::OBS_SAMPLES_DROPPED, self.engine.total_dropped()),
            (
                detector::OBS_SAMPLES_INGESTED,
                self.detector.total_samples(),
            ),
            (
                detector::OBS_SAMPLES_PREFILTERED,
                self.detector.prefiltered_samples(),
            ),
            (detector::OBS_SAMPLES_QUARANTINED, stats.quarantined.total()),
            (detector::OBS_LINES_EVICTED, stats.line_evictions),
            (detector::OBS_LINES_REPROMOTED, stats.line_repromotions),
            (detector::OBS_LINES_DENIED, stats.line_denials),
            (detector::OBS_OBJECTS_EVICTED, stats.object_evictions),
        ];
        if let Some(injector) = &self.faults {
            let counts = injector.counts();
            counters.extend([
                (faults::OBS_FAULTS_INJECTED, counts.injected()),
                (faults::OBS_FAULTS_DROPPED, counts.dropped),
                (faults::OBS_FAULTS_BURST_DROPPED, counts.burst_dropped),
                (faults::OBS_FAULTS_REORDERED, counts.reordered),
                (faults::OBS_FAULTS_DUPLICATED, counts.duplicated),
                (faults::OBS_FAULTS_CORRUPTED, counts.corrupted()),
                (faults::OBS_FAULTS_TRUNCATED, counts.truncated),
            ]);
        }
        for (name, value) in counters {
            self.obs.counter(name).add(value);
        }
        let (objects, lines) = self.detector.table_sizes();
        self.obs.gauge(detector::OBS_OBJECT_TABLE).set(objects);
        self.obs.gauge(detector::OBS_LINE_TABLE).set(lines);
        self.obs
            .gauge(detector::OBS_SHADOW_BYTES)
            .set(self.detector.shadow_bytes() as u64);
    }

    /// Delivers one (possibly fault-perturbed) sample: detector first —
    /// a quarantined sample must not pollute the per-thread totals either.
    fn deliver(
        threads: &mut ThreadRegistry,
        detector: &mut Detector,
        space: &AddressSpace,
        sample: Sample,
    ) {
        if detector.ingest(space, &sample) == IngestOutcome::Quarantined {
            return;
        }
        threads.record_sample(sample.thread, sample.phase_index, sample.latency);
    }

    /// Drains any samples parked in the fault plan's reorder buffer so
    /// none are silently lost when the run ends.
    fn flush_faults(&mut self) {
        if let Some(mut faults) = self.faults.take() {
            let threads = &mut self.threads;
            let detector = &mut self.detector;
            let space = self.space;
            faults.flush(&mut |sample| Self::deliver(threads, detector, space, sample));
            self.faults = Some(faults);
        }
    }

    /// Finalises the profile: closes the phase timeline, classifies every
    /// susceptible object, and assesses each instance's fix impact.
    pub fn finish(mut self) -> Profile {
        // Belt and braces: the reorder buffer is flushed at main-thread
        // exit, but a harness that never ran the program must still not
        // lose parked samples.
        self.flush_faults();
        let phase_list: Vec<PhaseInterval> = self.phases.finish(self.end_time).to_vec();
        let aver_cycles_serial = self.detector.aver_cycles_serial();
        let instances = collect_instances(&self.detector, self.space);
        let ctx = AssessContext {
            phases: &phase_list,
            threads: &self.threads,
            aver_cycles_nofs: aver_cycles_serial,
            app_runtime: self.end_time,
            cycles_per_instruction: self.detector.config().cycles_per_instruction,
            coherence_latency: self.detector.config().coherence_miss_latency,
        };
        let mut assessed: Vec<AssessedInstance> = instances
            .into_iter()
            .map(|instance| {
                let assessment = assess_with_model(&instance, &ctx, self.assess_model);
                AssessedInstance {
                    instance,
                    assessment,
                }
            })
            .collect();
        assessed.sort_by(|a, b| {
            b.assessment
                .improvement
                .total_cmp(&a.assessment.improvement)
        });
        Profile {
            total_cycles: self.end_time,
            aver_cycles_serial,
            total_samples: self.engine.total_samples(),
            filtered_samples: self.detector.filtered_samples(),
            fork_join: self.phases.is_fork_join(),
            ingest: self.detector.ingest_stats(),
            fault_counts: self.faults.as_ref().map(|faults| *faults.counts()),
            phases: phase_list,
            threads: self.threads.iter().cloned().collect(),
            instances: assessed,
        }
    }

    /// The embedded sampling engine (for inspecting sample counts).
    pub fn engine(&self) -> &SamplingEngine {
        &self.engine
    }

    /// The embedded detector (line/object state).
    pub fn detector(&self) -> &Detector {
        &self.detector
    }
}

impl std::fmt::Debug for CheetahProfiler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheetahProfiler")
            .field("samples", &self.engine.total_samples())
            .field("end_time", &self.end_time)
            .finish_non_exhaustive()
    }
}

impl ExecObserver for CheetahProfiler<'_> {
    fn on_thread_start(&mut self, thread: ThreadId, name: &str, now: Cycles) -> Cycles {
        if !thread.is_main() {
            self.phases.on_thread_created(thread, now);
        }
        self.threads
            .on_start(thread, name, now, self.phases.current_index());
        self.engine.begin_thread(thread)
    }

    fn on_thread_exit(&mut self, thread: ThreadId, now: Cycles) {
        if thread.is_main() {
            self.end_time = now;
            // The main thread's exit ends the run: drain the fault plan's
            // reorder buffer so parked samples still reach the detector,
            // then publish the final counts.
            self.flush_faults();
            self.publish();
        } else {
            self.phases.on_thread_exited(thread, now);
        }
        self.threads.on_exit(thread, now);
    }

    fn on_access(&mut self, record: &AccessRecord) -> Cycles {
        let (sample, cost) = self.engine.observe(record);
        if let Some(mut sample) = sample {
            // Piggyback the thread's retired-instruction counter on sample
            // delivery (a real handler reads it in the same trap): the
            // assessment uses it to split runtime into compute and memory
            // stalls. Reading it only on samples keeps the per-access hot
            // path untouched and undercounts each phase by at most one
            // sampling interval — noise next to the phase's total.
            // Progress is recorded before fault injection: the counter read
            // happens in the trap, upstream of any delivery-path fault.
            self.threads.record_progress(
                record.thread,
                self.phases.current_index(),
                record.instrs_before + 1,
            );
            // Re-stamp the sample with the *reconstructed* phase index so
            // every downstream consumer (thread registry, word maps,
            // per-phase object slices) shares one numbering with the
            // assessment's phase intervals. The simulator's own numbering
            // can differ by one when a program opens with a parallel phase.
            sample.phase_index = self.phases.current_index();
            match self.faults.take() {
                None => Self::deliver(&mut self.threads, &mut self.detector, self.space, sample),
                Some(mut faults) => {
                    let threads = &mut self.threads;
                    let detector = &mut self.detector;
                    let space = self.space;
                    faults.push(sample, &mut |delivered| {
                        Self::deliver(threads, detector, space, delivered);
                    });
                    self.faults = Some(faults);
                }
            }
        }
        cost
    }

    // Everything this observer does per access — sampling countdown,
    // progress reads, sample delivery to the detector — happens only when a
    // tag fires, and the tag sequence is a pure per-thread function of
    // retired-instruction indices. Handing out the engine's replica lets
    // sharded runs skip the callback for the (vast) unsampled majority
    // while the detector still sees the identical sample stream in merged
    // order.
    fn fork_sampler(&mut self, thread: ThreadId) -> SamplerFork {
        SamplerFork::Replica(Box::new(self.engine.fork_thread(thread)))
    }
}

/// The completed profile: Cheetah's output for one run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Application runtime in cycles.
    pub total_cycles: Cycles,
    /// `AverCycles_serial`, the post-fix latency estimate used by the
    /// assessment.
    pub aver_cycles_serial: f64,
    /// Samples collected.
    pub total_samples: u64,
    /// Samples outside monitored segments.
    pub filtered_samples: u64,
    /// Whether the run matched the fork-join model (required for the
    /// application-level prediction to be meaningful, §3.3).
    pub fork_join: bool,
    /// Hygiene and bounded-memory statistics: quarantined samples, line and
    /// object evictions, re-promotions, peak detailed-line working set.
    pub ingest: IngestStats,
    /// Fault-injection tallies, when the run was configured with a
    /// [`cheetah_pmu::FaultPlan`]; `None` on clean runs.
    pub fault_counts: Option<FaultCounts>,
    /// Reconstructed phase timeline.
    pub phases: Vec<PhaseInterval>,
    /// Per-thread runtimes and sampled totals.
    pub threads: Vec<ThreadStats>,
    /// All reported instances, sorted by predicted improvement descending.
    pub instances: Vec<AssessedInstance>,
}

impl Profile {
    /// The false-sharing instances (padding-fixable), best first.
    pub fn false_sharing(&self) -> Vec<&AssessedInstance> {
        self.instances
            .iter()
            .filter(|i| i.is_false_sharing())
            .collect()
    }

    /// False-sharing instances whose predicted improvement exceeds
    /// `min_improvement` — the ones worth a programmer's time.
    pub fn significant_false_sharing(&self, min_improvement: f64) -> Vec<&AssessedInstance> {
        self.instances
            .iter()
            .filter(|i| i.is_false_sharing() && i.improvement() >= min_improvement)
            .collect()
    }

    /// Renders the full report (every instance in Fig. 5 format).
    pub fn render_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Cheetah profile: {} cycles, {} samples ({} filtered), {} phases, {} threads{}",
            self.total_cycles,
            self.total_samples,
            self.filtered_samples,
            self.phases.len(),
            self.threads.len(),
            if self.fork_join {
                ""
            } else {
                " [not fork-join: application-level prediction unreliable]"
            }
        );
        // Robustness lines appear only when something actually degraded, so
        // clean unbounded runs render byte-identically to always.
        if self.ingest.quarantined.total() > 0 {
            let q = self.ingest.quarantined;
            let _ = writeln!(
                out,
                "Quarantined {} malformed samples ({} latency, {} thread, {} phase)",
                q.total(),
                q.bad_latency,
                q.bad_thread,
                q.bad_phase
            );
        }
        if self.ingest.line_evictions > 0 || self.ingest.object_evictions > 0 {
            let _ = writeln!(
                out,
                "Memory bound: {} line evictions ({} re-promotions), {} object evictions, peak {} detailed lines",
                self.ingest.line_evictions,
                self.ingest.line_repromotions,
                self.ingest.object_evictions,
                self.ingest.peak_detailed_lines
            );
        }
        if let Some(faults) = &self.fault_counts {
            if faults.injected() > 0 {
                let _ = writeln!(
                    out,
                    "Faults injected: {} ({} dropped, {} burst-dropped, {} reordered, {} duplicated, {} corrupted, {} truncated)",
                    faults.injected(),
                    faults.dropped,
                    faults.burst_dropped,
                    faults.reordered,
                    faults.duplicated,
                    faults.corrupted(),
                    faults.truncated
                );
            }
        }
        if self.instances.is_empty() {
            let _ = writeln!(out, "No significant sharing instances detected.");
        }
        for assessed in &self.instances {
            let _ = writeln!(out);
            let _ = write!(out, "{assessed}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::SharingKind;
    use cheetah_heap::CallStack;
    use cheetah_sim::{
        LoopStream, Machine, MachineConfig, Op, OpsStream, ProgramBuilder, ThreadSpec,
    };

    /// Two threads hammering adjacent words of one 64-byte object.
    fn fs_setup(iterations: u64) -> (AddressSpace, cheetah_sim::Program) {
        let mut space = AddressSpace::new();
        let obj = space
            .heap_mut()
            .alloc(ThreadId(0), 64, CallStack::single("fs_app.c", 21))
            .unwrap();
        let program = ProgramBuilder::new("fs")
            .serial(ThreadSpec::new(
                "init",
                OpsStream::new(vec![Op::Write(obj), Op::Work(500)]),
            ))
            .parallel(
                (0..2u64)
                    .map(|t| {
                        ThreadSpec::new(
                            format!("w{t}"),
                            LoopStream::new(
                                vec![
                                    Op::Read(obj.offset(t * 4)),
                                    Op::Write(obj.offset(t * 4)),
                                    Op::Work(2),
                                ],
                                iterations,
                            ),
                        )
                    })
                    .collect(),
            )
            .build();
        (space, program)
    }

    #[test]
    fn end_to_end_detects_false_sharing_with_callsite() {
        let (space, program) = fs_setup(100_000);
        let machine = Machine::new(MachineConfig::with_cores(8));
        let mut profiler = CheetahProfiler::new(CheetahConfig::with_period(512), &space);
        machine.run(program, &mut profiler);
        let profile = profiler.finish();

        assert!(profile.fork_join);
        assert!(profile.total_samples > 100);
        let fs = profile.false_sharing();
        assert_eq!(fs.len(), 1);
        let inst = &fs[0].instance;
        assert_eq!(inst.kind, SharingKind::FalseSharing);
        assert!(inst.invalidations > 50);
        let report = profile.render_report();
        assert!(report.contains("fs_app.c: 21"));
        assert!(report.contains("Detecting false sharing"));
    }

    #[test]
    fn predicted_improvement_is_substantial_for_heavy_fs() {
        let (space, program) = fs_setup(200_000);
        let machine = Machine::new(MachineConfig::with_cores(8));
        let mut profiler = CheetahProfiler::new(CheetahConfig::with_period(512), &space);
        machine.run(program, &mut profiler);
        let profile = profiler.finish();
        let fs = profile.false_sharing();
        // Nearly every access ping-pongs at ~150 cycles vs ~a few cycles
        // fixed: improvement must be far above 1.
        assert!(
            fs[0].improvement() > 2.0,
            "improvement {}",
            fs[0].improvement()
        );
        assert!(!profile.significant_false_sharing(1.5).is_empty());
    }

    #[test]
    fn clean_program_reports_nothing() {
        let mut space = AddressSpace::new();
        let a = space
            .heap_mut()
            .alloc(ThreadId(0), 4096, CallStack::unknown())
            .unwrap();
        let program = ProgramBuilder::new("clean")
            .parallel(
                (0..4u64)
                    .map(|t| {
                        ThreadSpec::new(
                            format!("w{t}"),
                            LoopStream::new(
                                vec![Op::Write(a.offset(t * 1024)), Op::Work(3)],
                                50_000,
                            ),
                        )
                    })
                    .collect(),
            )
            .build();
        let machine = Machine::new(MachineConfig::with_cores(8));
        let mut profiler = CheetahProfiler::new(CheetahConfig::with_period(512), &space);
        machine.run(program, &mut profiler);
        let profile = profiler.finish();
        assert!(profile.instances.is_empty());
        assert!(profile.render_report().contains("No significant sharing"));
    }

    #[test]
    fn true_sharing_not_reported_as_false_sharing() {
        let mut space = AddressSpace::new();
        let counter = space
            .heap_mut()
            .alloc(ThreadId(0), 64, CallStack::single("ts.c", 9))
            .unwrap();
        let program = ProgramBuilder::new("ts")
            .parallel(
                (0..2u64)
                    .map(|t| {
                        let _ = t;
                        ThreadSpec::new(
                            "w",
                            LoopStream::new(
                                vec![Op::Read(counter), Op::Write(counter), Op::Work(2)],
                                100_000,
                            ),
                        )
                    })
                    .collect(),
            )
            .build();
        let machine = Machine::new(MachineConfig::with_cores(8));
        let mut profiler = CheetahProfiler::new(CheetahConfig::with_period(512), &space);
        machine.run(program, &mut profiler);
        let profile = profiler.finish();
        assert!(profile.false_sharing().is_empty());
        // The instance exists but is classified as true sharing.
        assert_eq!(profile.instances.len(), 1);
        assert_eq!(profile.instances[0].instance.kind, SharingKind::TrueSharing);
    }

    #[test]
    fn serial_init_does_not_create_instances() {
        // Main writes the object heavily in the serial phase; children only
        // read disjoint lines afterwards. Nothing to report.
        let mut space = AddressSpace::new();
        let a = space
            .heap_mut()
            .alloc(ThreadId(0), 4096, CallStack::unknown())
            .unwrap();
        let mut init = Vec::new();
        for i in 0..4096 / 8 {
            init.push(Op::Write(a.offset(i * 8)));
        }
        let program = ProgramBuilder::new("init-heavy")
            .serial(ThreadSpec::new("init", LoopStream::new(init, 100)))
            .parallel(
                (0..4u64)
                    .map(|t| {
                        ThreadSpec::new(
                            format!("r{t}"),
                            LoopStream::new(
                                vec![Op::Read(a.offset(t * 1024)), Op::Work(1)],
                                50_000,
                            ),
                        )
                    })
                    .collect(),
            )
            .build();
        let machine = Machine::new(MachineConfig::with_cores(8));
        let mut profiler = CheetahProfiler::new(CheetahConfig::with_period(256), &space);
        machine.run(program, &mut profiler);
        let profile = profiler.finish();
        assert!(
            profile.instances.is_empty(),
            "init writes must not look like sharing: {:?}",
            profile.instances.len()
        );
        // Serial samples were still useful for the latency baseline.
        assert!(profile.aver_cycles_serial > 0.0);
    }

    #[test]
    fn sharded_execution_profiles_identically() {
        // The profiler's replica path: under sharding only sampled accesses
        // reach on_access, yet the profile — samples, detector state,
        // assessed instances, timings — must be bit-identical.
        let profile_at = |shards: u32| {
            let (space, program) = fs_setup(60_000);
            let machine = Machine::new(MachineConfig::with_cores(8).with_shards(shards));
            let mut profiler = CheetahProfiler::new(CheetahConfig::with_period(512), &space);
            let report = machine.run(program, &mut profiler);
            (report, profiler.finish())
        };
        let (report1, profile1) = profile_at(1);
        let (report4, profile4) = profile_at(4);
        assert_eq!(report1, report4);
        assert_eq!(profile1.total_cycles, profile4.total_cycles);
        assert_eq!(profile1.total_samples, profile4.total_samples);
        assert_eq!(profile1.filtered_samples, profile4.filtered_samples);
        assert_eq!(profile1.phases, profile4.phases);
        assert_eq!(profile1.threads, profile4.threads);
        assert_eq!(profile1.render_report(), profile4.render_report());
    }

    #[test]
    fn phase_timeline_matches_program_structure() {
        let (space, program) = fs_setup(50_000);
        let machine = Machine::new(MachineConfig::with_cores(8));
        let mut profiler = CheetahProfiler::new(CheetahConfig::with_period(1024), &space);
        let report = machine.run(program, &mut profiler);
        let profile = profiler.finish();
        assert_eq!(profile.total_cycles, report.total_cycles);
        // serial (init), parallel (workers); possibly a trailing serial of
        // zero length that gets dropped.
        assert!(profile.phases.len() >= 2);
        assert_eq!(profile.phases[1].threads.len(), 2);
    }

    /// Profiles `fs_setup` under `config`, returning the report string and
    /// the profile.
    fn faulted_profile(config: CheetahConfig, shards: u32) -> Profile {
        let (space, program) = fs_setup(60_000);
        let machine = Machine::new(MachineConfig::with_cores(8).with_shards(shards));
        let mut profiler = CheetahProfiler::new(config, &space);
        machine.run(program, &mut profiler);
        profiler.finish()
    }

    #[test]
    fn null_fault_plan_is_bit_transparent() {
        // Installing `FaultPlan::none()` must leave every observable output
        // byte-identical to a profiler that has no injector at all.
        let plain = faulted_profile(CheetahConfig::with_period(512), 1);
        let nulled = faulted_profile(
            CheetahConfig::with_period(512).with_faults(cheetah_pmu::FaultPlan::none()),
            1,
        );
        assert_eq!(plain.render_report(), nulled.render_report());
        assert_eq!(plain.total_samples, nulled.total_samples);
        assert_eq!(nulled.fault_counts, Some(FaultCounts::default()));
        assert_eq!(plain.fault_counts, None);
    }

    #[test]
    fn faulted_run_is_deterministic_per_seed() {
        let plan = cheetah_pmu::FaultPlan::drops(200).with_seed(77);
        let config = || CheetahConfig::with_period(512).with_faults(plan.clone());
        let one = faulted_profile(config(), 1);
        let two = faulted_profile(config(), 1);
        assert_eq!(one.render_report(), two.render_report());
        assert_eq!(one.fault_counts, two.fault_counts);
        assert!(one.fault_counts.expect("injector installed").dropped > 0);
    }

    #[test]
    fn faulted_run_is_shard_independent() {
        // Fault decisions consume the seeded RNG over the merged sample
        // stream, which is identical across shard counts — so the faulted
        // profile must be too.
        let plan = cheetah_pmu::FaultPlan::drops(150).with_seed(5);
        let config = || CheetahConfig::with_period(512).with_faults(plan.clone());
        let one = faulted_profile(config(), 1);
        let four = faulted_profile(config(), 4);
        assert_eq!(one.render_report(), four.render_report());
        assert_eq!(one.fault_counts, four.fault_counts);
    }

    #[test]
    fn published_counts_equal_the_profile_tallies() {
        // Two contended lines plus a thread-private 4 KiB block per worker:
        // the private blocks are pre-filtered, the contended lines compete
        // for a one-line detail table, and the fault plan drops, corrupts,
        // duplicates and reorders the stream.
        let mut space = AddressSpace::new();
        let shared = space
            .heap_mut()
            .alloc(ThreadId(0), 128, CallStack::single("pub.c", 1))
            .unwrap();
        let private: Vec<cheetah_sim::Addr> = (0..2)
            .map(|_| {
                space
                    .heap_mut()
                    .alloc(ThreadId(0), 4096, CallStack::single("pub.c", 2))
                    .unwrap()
            })
            .collect();
        let program = ProgramBuilder::new("publish")
            .parallel(
                (0..2u64)
                    .map(|t| {
                        let mut ops = vec![Op::Write(shared.offset(t * 4))];
                        ops.extend((0..64).map(|i| Op::Write(private[t as usize].offset(i * 64))));
                        ops.push(Op::Write(shared.offset(64 + t * 4)));
                        ThreadSpec::new(format!("w{t}"), LoopStream::new(ops, 2_000))
                    })
                    .collect(),
            )
            .build();
        let line = |addr: cheetah_sim::Addr| addr.line(64).0;
        let prefilter = crate::LinePrefilter::from_ranges(
            private
                .iter()
                .map(|&base| (line(base), line(base.offset(4096))))
                .collect(),
        );
        let plan = cheetah_pmu::FaultPlan {
            drop_per_mille: 100,
            reorder_window: 4,
            duplicate_per_mille: 20,
            corrupt_per_mille: 50,
            corrupt_fields: cheetah_pmu::CorruptFields::all(),
            ..cheetah_pmu::FaultPlan::none()
        };
        let obs = cheetah_obs::ObsHandle::fresh_untraced();
        let config = CheetahConfig::with_period(97)
            .with_obs(obs.clone())
            .with_faults(plan)
            .with_line_capacity(1)
            .with_prefilter(prefilter);
        let mut profiler = CheetahProfiler::new(config, &space);
        Machine::new(MachineConfig::with_cores(8)).run(program, &mut profiler);
        let prefiltered = profiler.detector().prefiltered_samples();
        let ingested = profiler.detector().total_samples();
        let objects = profiler.detector().objects().count() as u64;
        let shadow_bytes = profiler.detector().shadow_bytes() as u64;
        let profile = profiler.finish();

        let counter = |name| obs.counter(name).get();
        let ingest = profile.ingest;
        let faults = profile.fault_counts.expect("injector installed");
        assert!(prefiltered > 0 && ingest.line_evictions > 0 && faults.corrupted() > 0);
        assert!(ingest.quarantined.total() > 0 && faults.reordered > 0);
        let expected = [
            (engine::OBS_SAMPLES_DELIVERED, profile.total_samples),
            (detector::OBS_SAMPLES_INGESTED, ingested),
            (detector::OBS_SAMPLES_PREFILTERED, prefiltered),
            (
                detector::OBS_SAMPLES_QUARANTINED,
                ingest.quarantined.total(),
            ),
            (detector::OBS_LINES_EVICTED, ingest.line_evictions),
            (detector::OBS_LINES_REPROMOTED, ingest.line_repromotions),
            (detector::OBS_LINES_DENIED, ingest.line_denials),
            (detector::OBS_OBJECTS_EVICTED, ingest.object_evictions),
            (faults::OBS_FAULTS_INJECTED, faults.injected()),
            (faults::OBS_FAULTS_DROPPED, faults.dropped),
            (faults::OBS_FAULTS_BURST_DROPPED, faults.burst_dropped),
            (faults::OBS_FAULTS_REORDERED, faults.reordered),
            (faults::OBS_FAULTS_DUPLICATED, faults.duplicated),
            (faults::OBS_FAULTS_CORRUPTED, faults.corrupted()),
            (faults::OBS_FAULTS_TRUNCATED, faults.truncated),
        ];
        for (name, value) in expected {
            assert_eq!(counter(name), value, "{name}");
        }
        assert_eq!(obs.gauge(detector::OBS_OBJECT_TABLE).get(), objects);
        // Dense pages (one per touched 4096-line page) plus side entries.
        assert!(
            shadow_bytes
                >= 4096 * std::mem::size_of::<crate::detect::line_state::LineSlot>() as u64
        );
        assert_eq!(obs.gauge(detector::OBS_SHADOW_BYTES).get(), shadow_bytes);
    }

    #[test]
    fn try_new_rejects_an_invalid_sampler() {
        let space = AddressSpace::new();
        let config = CheetahConfig::with_period(0);
        assert_eq!(
            CheetahProfiler::try_new(config, &space).unwrap_err(),
            ProfilerConfigError::Sampler(cheetah_pmu::ConfigError::ZeroPeriod)
        );
    }

    #[test]
    fn try_new_rejects_an_invalid_detector() {
        let space = AddressSpace::new();
        let mut config = CheetahConfig::with_period(512);
        config.detector.line_size = 60;
        assert_eq!(
            CheetahProfiler::try_new(config, &space).unwrap_err(),
            ProfilerConfigError::Detector(crate::DetectorConfigError::LineSizeNotPowerOfTwo)
        );
    }

    #[test]
    fn try_new_rejects_an_invalid_fault_plan() {
        let space = AddressSpace::new();
        let config =
            CheetahConfig::with_period(512).with_faults(cheetah_pmu::FaultPlan::drops(1001));
        let error = CheetahProfiler::try_new(config, &space).unwrap_err();
        assert_eq!(
            error,
            ProfilerConfigError::Faults(cheetah_pmu::ConfigError::FaultRateOutOfRange)
        );
        assert!(error.to_string().starts_with("invalid fault plan"));
    }

    #[test]
    #[should_panic(expected = "invalid sampler config")]
    fn new_panics_on_an_invalid_config() {
        let space = AddressSpace::new();
        let _ = CheetahProfiler::new(CheetahConfig::with_period(0), &space);
    }

    #[test]
    fn drop_accounting_reconciles_with_the_clean_run() {
        // Drops-only plan: every PMU sample either reaches the detector or
        // is counted as dropped; nothing is invented or double-counted.
        // `Profile::total_samples` is the PMU-side count (pre-injection),
        // so the delivered count is read off the detector itself.
        let run = |config: CheetahConfig| {
            let (space, program) = fs_setup(60_000);
            let machine = Machine::new(MachineConfig::with_cores(8));
            let mut profiler = CheetahProfiler::new(config, &space);
            machine.run(program, &mut profiler);
            let delivered = profiler.detector().total_samples();
            (delivered, profiler.finish())
        };
        let (clean_delivered, clean) = run(CheetahConfig::with_period(512));
        let plan = cheetah_pmu::FaultPlan::drops(200).with_seed(3);
        let (faulted_delivered, faulted) = run(CheetahConfig::with_period(512).with_faults(plan));
        let counts = faulted.fault_counts.expect("injector installed");
        assert!(counts.dropped > 0);
        // The PMU observed the identical stream; the injector thinned it.
        assert_eq!(faulted.total_samples, clean.total_samples);
        assert_eq!(
            faulted_delivered + counts.dropped,
            clean_delivered,
            "dropped + delivered must equal the clean sample count"
        );
        // A 20% drop rate still leaves the heavy false-sharing instance
        // detectable — degradation, not collapse.
        assert_eq!(faulted.false_sharing().len(), 1);
        assert!(faulted.render_report().contains("Faults injected"));
    }
}
