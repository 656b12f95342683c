//! Properties of schedule-space perturbation (`MachineConfig::schedule`):
//!
//! (a) `SchedulePolicy::Observed` is bit-identical to today's merge —
//!     reports, surfaced event streams and sample sequences — across
//!     shard counts {1, 2, 4}, for every registry workload;
//! (b) every perturbed schedule respects per-worker program order
//!     (per-thread retired-instruction indices stay strictly increasing)
//!     and never changes `sim.footprint_violations`;
//! (c) perturbed runs are deterministic given the seed and identical
//!     across shard counts;
//! (d) the contention the observed schedule of a staggered workload
//!     hides is exposed by shuffled and contention-maximizing schedules.

use cheetah_sim::metrics::{
    FOLDED_EVENTS, FOOTPRINT_VIOLATIONS, MERGED_EVENTS, SCHED_REORDERED, SCHED_SELECTIONS,
    SURFACED_EVENTS,
};
use cheetah_sim::{
    AccessRecord, AccessStream, Addr, ByteExtent, Cycles, ExecObserver, Footprint, LoopStream,
    Machine, MachineConfig, ObsHandle, Op, OpsStream, ProgramBuilder, RunReport, SampleJudgement,
    SamplerFork, SchedulePolicy, ThreadId, ThreadSampler, ThreadSpec,
};
use cheetah_workloads::{AppConfig, APPS};

/// Observer recording the full surfaced access stream (EveryAccess mode)
/// with deterministic perturbation feedback.
#[derive(Default)]
struct Recorder {
    records: Vec<AccessRecord>,
    exits: Vec<(ThreadId, Cycles)>,
}

impl ExecObserver for Recorder {
    fn on_access(&mut self, record: &AccessRecord) -> Cycles {
        self.records.push(*record);
        (record.addr.0 % 7) + u64::from(record.kind.is_write())
    }

    fn on_thread_exit(&mut self, thread: ThreadId, now: Cycles) {
        self.exits.push((thread, now));
    }
}

/// Modulo sampler with a faithful replica (the minimal honest
/// implementation of the replica contract; see `shard_props.rs`).
struct ModuloSampler {
    period: u64,
    trap: Cycles,
    samples: Vec<(ThreadId, Addr, Cycles, Cycles)>,
}

struct ModuloReplica {
    period: u64,
    trap: Cycles,
}

impl ThreadSampler for ModuloReplica {
    fn judge(&mut self, instrs_before: u64) -> SampleJudgement {
        let sampled = instrs_before.is_multiple_of(self.period);
        SampleJudgement {
            perturbation: if sampled { self.trap } else { 0 },
            sampled,
        }
    }
}

impl ExecObserver for ModuloSampler {
    fn on_access(&mut self, record: &AccessRecord) -> Cycles {
        if record.instrs_before.is_multiple_of(self.period) {
            self.samples
                .push((record.thread, record.addr, record.latency, record.start));
            self.trap
        } else {
            0
        }
    }

    fn fork_sampler(&mut self, _thread: ThreadId) -> SamplerFork {
        SamplerFork::Replica(Box::new(ModuloReplica {
            period: self.period,
            trap: self.trap,
        }))
    }
}

const SCALE: f64 = 0.02;

fn app_config() -> AppConfig {
    AppConfig {
        threads: 4,
        scale: SCALE,
        fixed: false,
        seed: 1,
    }
}

/// (a) The observed policy is today's merge, registry-wide: the default
/// configuration (no policy, classic at 1 shard) and the explicit
/// `SchedulePolicy::Observed` at shard counts {1, 2, 4} all yield the
/// identical report, the identical surfaced event stream and the
/// identical sample sequence for every registry workload.
#[test]
fn observed_policy_bit_identical_registry_wide() {
    let config = app_config();
    for app in APPS {
        let run_with = |machine_config: MachineConfig| {
            let machine = Machine::new(machine_config);
            let mut recorder = Recorder::default();
            let report = machine.run(app.build(&config).program, &mut recorder);
            let mut sampler = ModuloSampler {
                period: 7,
                trap: 500,
                samples: Vec::new(),
            };
            let sampled_report = machine.run(app.build(&config).program, &mut sampler);
            (report, recorder, sampled_report, sampler.samples)
        };
        let (report0, rec0, sampled0, samples0) = run_with(MachineConfig::default());
        for shards in [1u32, 2, 4] {
            let (report, rec, sampled, samples) = run_with(
                MachineConfig::default()
                    .with_shards(shards)
                    .with_schedule(SchedulePolicy::Observed),
            );
            assert_eq!(report0, report, "{} report at {shards} shards", app.name());
            assert_eq!(
                rec0.records,
                rec.records,
                "{} event stream at {shards} shards",
                app.name()
            );
            assert_eq!(
                rec0.exits,
                rec.exits,
                "{} exits at {shards} shards",
                app.name()
            );
            assert_eq!(
                sampled0,
                sampled,
                "{} perturbed report at {shards} shards",
                app.name()
            );
            assert_eq!(
                samples0,
                samples,
                "{} samples at {shards} shards",
                app.name()
            );
        }
    }
}

/// Runs one registry workload under `policy` with a fresh metrics
/// registry, returning the report, the surfaced stream and the registry.
fn run_perturbed(
    app: &cheetah_workloads::App,
    policy: SchedulePolicy,
    shards: u32,
) -> (RunReport, Vec<AccessRecord>, ObsHandle) {
    let obs = ObsHandle::fresh();
    let machine = Machine::new(
        MachineConfig::default()
            .with_shards(shards)
            .with_schedule(policy)
            .with_obs(obs.clone()),
    );
    let mut recorder = Recorder::default();
    let report = machine.run(app.build(&app_config()).program, &mut recorder);
    (report, recorder.records, obs)
}

/// (b) Perturbed schedules preserve per-worker program order (per-thread
/// retired-instruction indices strictly increase) and leave the
/// footprint-violation count exactly where the observed schedule had it,
/// for every registry workload under both perturbation policies.
#[test]
fn perturbed_schedules_respect_program_order_and_footprints() {
    for app in APPS {
        let (_, _, observed_obs) = run_perturbed(app, SchedulePolicy::Observed, 1);
        for policy in [
            SchedulePolicy::SeededShuffle { seed: 3 },
            SchedulePolicy::ContentionMax { seed: 3 },
        ] {
            let (report, records, obs) = run_perturbed(app, policy, 1);
            assert!(report.total_cycles > 0);
            let mut last_seen: std::collections::HashMap<ThreadId, u64> =
                std::collections::HashMap::new();
            for record in &records {
                if let Some(&prev) = last_seen.get(&record.thread) {
                    assert!(
                        record.instrs_before > prev,
                        "{} under {policy}: thread {:?} went from instr {} to {}",
                        app.name(),
                        record.thread,
                        prev,
                        record.instrs_before
                    );
                }
                last_seen.insert(record.thread, record.instrs_before);
            }
            assert_eq!(
                obs.counter(FOOTPRINT_VIOLATIONS).get(),
                observed_obs.counter(FOOTPRINT_VIOLATIONS).get(),
                "{} under {policy}: footprint violations moved",
                app.name()
            );
            assert!(
                obs.counter(SCHED_SELECTIONS).get() > 0,
                "{} under {policy}: no selections counted",
                app.name()
            );
        }
    }
}

/// The perturbed merge's counters: `(merged, folded, surfaced,
/// selections, reordered)`.
fn merge_counters(obs: &ObsHandle) -> [u64; 5] {
    [
        MERGED_EVENTS,
        FOLDED_EVENTS,
        SURFACED_EVENTS,
        SCHED_SELECTIONS,
        SCHED_REORDERED,
    ]
    .map(|name| obs.counter(name).get())
}

/// (c) A perturbed run is a pure function of `(seed, shards)` — repeated
/// runs are bit-identical, and the shard count does not matter at all:
/// not to the report, not to the surfaced stream, and not to the merge's
/// counters. Schedule decisions are counted identically at every shard
/// count; the merged/folded/surfaced split is identical whenever serial
/// phases also run sharded (shards ≥ 2).
#[test]
fn perturbed_runs_deterministic_and_shard_independent() {
    let apps = ["microbench", "streamcluster", "histogram"];
    for name in apps {
        let app = cheetah_workloads::find(name).expect("registered workload");
        for policy in [
            SchedulePolicy::SeededShuffle { seed: 11 },
            SchedulePolicy::ContentionMax { seed: 11 },
        ] {
            let (report1, records1, obs1) = run_perturbed(app, policy, 1);
            let counters1 = merge_counters(&obs1);
            let mut counters2 = None;
            for shards in [1u32, 2, 4] {
                let (report, records, obs) = run_perturbed(app, policy, shards);
                assert_eq!(report1, report, "{name} under {policy} at {shards} shards");
                assert_eq!(
                    records1, records,
                    "{name} stream under {policy} at {shards} shards"
                );
                let counters = merge_counters(&obs);
                assert_eq!(
                    counters1[3..],
                    counters[3..],
                    "{name} schedule counters under {policy} at {shards} shards"
                );
                if shards >= 2 {
                    assert_eq!(
                        *counters2.get_or_insert(counters),
                        counters,
                        "{name} merge counters under {policy} at {shards} shards"
                    );
                }
            }
        }
    }

    // Pinned values: streamcluster at 8 threads, no observer, 2 shards —
    // `(total cycles, [merged, folded, surfaced, selections, reordered])`.
    let app = cheetah_workloads::find("streamcluster").expect("registered workload");
    let config = AppConfig::with_threads(8).scaled(0.05);
    for (policy, cycles, counters) in [
        (
            SchedulePolicy::SeededShuffle { seed: 3 },
            1_038_124,
            [2842, 174_870, 0, 3120, 2695],
        ),
        (
            SchedulePolicy::ContentionMax { seed: 3 },
            1_055_308,
            [2390, 175_322, 0, 3120, 2621],
        ),
    ] {
        let obs = ObsHandle::fresh();
        let machine = Machine::new(
            MachineConfig::default()
                .with_shards(2)
                .with_schedule(policy)
                .with_obs(obs.clone()),
        );
        let report = machine.run(app.build(&config).program, &mut cheetah_sim::NullObserver);
        assert_eq!(
            (report.total_cycles, merge_counters(&obs)),
            (cycles, counters),
            "streamcluster under {policy}"
        );
    }
}

/// A stream that under-declares its footprint: it claims only the first
/// line of what it actually touches, so sharded classification counts
/// contract violations — which must be identical under every schedule.
struct LyingStream {
    inner: LoopStream,
    declared: ByteExtent,
}

impl AccessStream for LyingStream {
    fn next_op(&mut self) -> Option<Op> {
        self.inner.next_op()
    }

    fn footprint(&self) -> Footprint {
        Footprint::Bounded(vec![self.declared])
    }
}

/// (b, continued) Nonzero violation counts are schedule-independent too:
/// classification happens before any ordering decision.
#[test]
fn footprint_violations_unchanged_by_perturbation() {
    let build = || {
        ProgramBuilder::new("lying")
            .parallel(
                (0..2u64)
                    .map(|t| {
                        let base = Addr(0x10_000 + t * 0x1000);
                        ThreadSpec::new(
                            format!("w{t}"),
                            LyingStream {
                                inner: LoopStream::new(
                                    vec![Op::Write(base), Op::Write(base.offset(256))],
                                    50,
                                ),
                                declared: ByteExtent {
                                    start: base.0,
                                    end: base.0 + 8,
                                    wrote: true,
                                },
                            },
                        )
                    })
                    .collect(),
            )
            .build()
    };
    let violations_under = |policy: SchedulePolicy| {
        let obs = ObsHandle::fresh();
        let machine = Machine::new(
            MachineConfig::with_cores(8)
                .with_shards(2)
                .with_schedule(policy)
                .with_obs(obs.clone()),
        );
        machine.run(build(), &mut cheetah_sim::NullObserver);
        obs.counter(FOOTPRINT_VIOLATIONS).get()
    };
    let observed = violations_under(SchedulePolicy::Observed);
    assert!(observed > 0, "the lying stream must trip the contract");
    for policy in [
        SchedulePolicy::SeededShuffle { seed: 5 },
        SchedulePolicy::ContentionMax { seed: 5 },
    ] {
        assert_eq!(observed, violations_under(policy), "under {policy}");
    }
}

/// (d) Schedule-hidden contention: two threads write the same line in
/// *staggered* bursts (one writes while the other does private work), so
/// the observed schedule sees almost no invalidations — but shuffled and
/// contention-maximizing schedules interleave the bursts and expose the
/// latent false sharing. The contention heuristic must expose at least
/// as much as the uniform shuffle.
#[test]
fn staggered_contention_exposed_by_perturbation() {
    let shared = Addr(0x4000);
    let private = Addr(0x90_000);
    let build = || {
        let burst = 2_000u64;
        let hot = |t: u64| {
            vec![
                Op::Read(shared.offset(t * 8)),
                Op::Write(shared.offset(t * 8)),
                Op::Work(4),
            ]
        };
        let cold = |t: u64| {
            vec![
                Op::Read(private.offset(t * 256)),
                Op::Write(private.offset(t * 256)),
                Op::Work(4),
            ]
        };
        let repeat = |body: Vec<Op>, times: u64| -> Vec<Op> {
            (0..times).flat_map(|_| body.clone()).collect()
        };
        let concat = |mut a: Vec<Op>, b: Vec<Op>| -> Vec<Op> {
            a.extend(b);
            a
        };
        ProgramBuilder::new("staggered")
            .parallel(vec![
                ThreadSpec::new(
                    "early",
                    OpsStream::new(concat(repeat(hot(0), burst), repeat(cold(0), burst))),
                ),
                ThreadSpec::new(
                    "late",
                    OpsStream::new(concat(repeat(cold(1), burst), repeat(hot(1), burst))),
                ),
            ])
            .build()
    };
    let invalidations_under = |policy: SchedulePolicy| {
        let machine = Machine::new(MachineConfig::with_cores(8).with_schedule(policy));
        machine
            .run(build(), &mut cheetah_sim::NullObserver)
            .coherence
            .invalidations
    };
    let observed = invalidations_under(SchedulePolicy::Observed);
    let shuffled = invalidations_under(SchedulePolicy::SeededShuffle { seed: 1 });
    let contended = invalidations_under(SchedulePolicy::ContentionMax { seed: 1 });
    assert!(
        observed < 50,
        "staggered bursts must be quiet under the observed schedule \
         ({observed} invalidations)"
    );
    assert!(
        shuffled > 10 * observed.max(1),
        "the shuffle must expose the latent ping-pong \
         (observed {observed}, shuffled {shuffled})"
    );
    assert!(
        contended >= shuffled,
        "the contention heuristic must expose at least as much as the \
         shuffle (shuffled {shuffled}, contended {contended})"
    );
}
