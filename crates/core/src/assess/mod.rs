//! Performance-impact assessment (§3 of the paper) — the headline
//! contribution: predicting the speedup of fixing a false-sharing instance
//! *without fixing it*.
//!
//! The prediction runs in three steps, using only sampled latencies and the
//! runtime structure:
//!
//! 1. **Object** (Eq. 1): after a fix, accesses to the object `O` should
//!    cost the no-false-sharing average latency, approximated by the mean
//!    latency of serial-phase samples:
//!    `PredCycles_O = AverCycles_nofs × Accesses_O`.
//! 2. **Threads** (Eq. 2–3): each related thread's sampled cycles shrink by
//!    the object's share:
//!    `PredCycles_t = Cycles_t − Cycles_O(t) + PredCycles_O(t)`.
//!    The paper then assumes runtime proportional to sampled access cycles
//!    (`PredRT_t = RT_t × PredCycles_t / Cycles_t`); this reproduction
//!    refines that with the thread's retired-instruction counter, splitting
//!    `RT_t` into compute (constant under a layout fix) and memory-stall
//!    time, and scaling only the stall:
//!    `PredRT_t = Compute_t + (RT_t − Compute_t) × PredCycles_t / Cycles_t`.
//!    Pure proportionality over-credits fixes whenever compute dilutes the
//!    contention (the Fig. 1 microbenchmark at 2 threads, for instance).
//! 3. **Application** (Eq. 4, fork-join model): each parallel phase is
//!    re-timed as the maximum predicted runtime among its threads (keeping
//!    each thread's spawn offset within the phase, so an unchanged profile
//!    predicts exactly the real runtime); serial phases are unchanged:
//!    `PerfImprove = RT_App / PredRT_App`.
//!
//! ## Per-object vs. line-level credit
//!
//! The paper's model is *per object*: step 2 subtracts only the fixed
//! object's own cycles from each thread. That under-credits inter-object
//! false sharing — two small objects packed into one cache line, where
//! padding either object away frees its neighbour too. [`AssessModel`]
//! selects between the faithful per-object reference path and the
//! line-level refinement: with [`AssessModel::LineLevel`], a repair's
//! credit is computed per *cache line* from the detector's co-residency
//! records ([`crate::detect::lines`]) — when evicting the object leaves
//! the rest of the line uncontended, **every** thread's traffic on the
//! line is predicted to reach post-fix latency; when co-residents keep
//! contending (three-plus packed objects), only the evicted object's own
//! traffic is credited. On lines the object occupies alone the two models
//! are numerically identical (a property the test suite asserts), so the
//! refinement changes nothing for the paper's intra-object workloads.

use crate::classify::SharingInstance;
use crate::detect::detector::ThreadOnObject;
use cheetah_runtime::{PhaseInterval, ThreadRegistry};
use cheetah_sim::util::{FastMap, FastSet};
use cheetah_sim::{Cycles, PhaseKind, ThreadId};
use std::fmt;

/// Which credit model an assessment uses (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssessModel {
    /// The paper's §3.2 model: only traffic on the fixed object itself is
    /// predicted to reach post-fix latency. Kept as the reference path for
    /// equivalence testing (the `shards = 1` of assessment).
    PerObject,
    /// Line-granular credit: traffic of co-resident objects is credited
    /// too whenever evicting the fixed object leaves their line
    /// uncontended — the joint payoff of a cross-object repair.
    #[default]
    LineLevel,
}

impl fmt::Display for AssessModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssessModel::PerObject => f.write_str("per-object"),
            AssessModel::LineLevel => f.write_str("line-level"),
        }
    }
}

/// Inputs shared by every instance assessment of one profile.
#[derive(Debug, Clone, Copy)]
pub struct AssessContext<'a> {
    /// Reconstructed fork-join phases.
    pub phases: &'a [PhaseInterval],
    /// Per-thread runtimes and sampled totals.
    pub threads: &'a ThreadRegistry,
    /// `AverCycles_nofs`: expected post-fix access latency.
    pub aver_cycles_nofs: f64,
    /// Measured application runtime `RT_App`.
    pub app_runtime: Cycles,
    /// Cycles per retired non-memory instruction (see
    /// [`crate::DetectorConfig::cycles_per_instruction`]). With no
    /// recorded instruction counts the compute estimate is zero and Eq. 3
    /// reduces to the paper's pure proportionality.
    pub cycles_per_instruction: f64,
    /// Baseline cost of a single coherence transfer on the profiled
    /// machine (see [`crate::DetectorConfig::coherence_miss_latency`]).
    /// The line-level model uses it to split a contended access's sampled
    /// latency into the transfer itself and the *queueing wait* behind
    /// other sharers' in-flight transfers; only the wait shrinks when an
    /// eviction reduces the line's sharer count without freeing it.
    pub coherence_latency: f64,
}

/// Predicted effect of a fix on one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadAssessment {
    /// The thread.
    pub thread: ThreadId,
    /// Measured runtime `RT_t`.
    pub runtime: Cycles,
    /// Predicted runtime `PredRT_t`.
    pub predicted_runtime: f64,
    /// Measured sampled cycles `Cycles_t`.
    pub cycles: Cycles,
    /// Predicted sampled cycles `PredCycles_t`.
    pub predicted_cycles: f64,
}

/// Predicted effect of fixing one sharing instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Assessment {
    /// Credit model the prediction was computed under.
    pub model: AssessModel,
    /// `PerfImprove = RT_App / PredRT_App`; 1.0 means no improvement.
    pub improvement: f64,
    /// Measured application runtime.
    pub real_runtime: Cycles,
    /// Predicted application runtime after the fix.
    pub predicted_runtime: f64,
    /// Number of threads related to the object.
    pub total_threads: usize,
    /// Sum of `Accesses_t` over related threads (Fig. 5's
    /// `totalThreadsAccesses`).
    pub total_thread_accesses: u64,
    /// Sum of `Cycles_t` over related threads (Fig. 5's
    /// `totalThreadsCycles`).
    pub total_thread_cycles: Cycles,
    /// Per-thread predictions for threads in parallel phases.
    pub per_thread: Vec<ThreadAssessment>,
}

impl Assessment {
    /// The improvement as a percentage, as printed in Fig. 5
    /// (`totalPossibleImprovementRate 576.172748%`).
    pub fn improvement_rate_percent(&self) -> f64 {
        self.improvement * 100.0
    }
}

impl fmt::Display for Assessment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "predicted improvement {:.2}x (real {} cycles, predicted {:.0} cycles)",
            self.improvement, self.real_runtime, self.predicted_runtime
        )
    }
}

/// What a repair removes from one thread's sampled cycles within one
/// phase (Eq. 2's inputs, generalised to fractional relief).
///
/// `removed_cycles` is subtracted from the thread's `Cycles_t`;
/// `credited_accesses` is the number of accesses added back at the
/// post-fix latency `AverCycles_nofs`. Traffic whose latency merely
/// *shrinks* (a contended line losing one of three sharers) contributes
/// removed cycles without a corresponding post-fix credit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Relief {
    removed_cycles: f64,
    credited_accesses: f64,
}

impl Relief {
    fn full(traffic: ThreadOnObject) -> Relief {
        Relief {
            removed_cycles: traffic.cycles as f64,
            credited_accesses: traffic.accesses as f64,
        }
    }

    fn add_full(&mut self, traffic: ThreadOnObject) {
        self.removed_cycles += traffic.cycles as f64;
        self.credited_accesses += traffic.accesses as f64;
    }
}

/// The traffic a repair of `instance` relieves under line-level credit,
/// per (thread, phase); a pair absent from the map is relieved of
/// nothing. Each line's (thread, phase) slots are visited once, rather
/// than every line probed for every thread of every phase.
///
/// Per contended line of the instance:
///
/// * residual uncontended — evicting the instance frees the line, so the
///   whole line's traffic (every co-resident's) is credited with post-fix
///   latency;
/// * residual still contended — the instance's own traffic is credited in
///   full, and the co-residents' remaining traffic is *partially*
///   relieved: its queueing wait scales with the surviving sharer count.
///   A sampled contended access costs roughly one coherence transfer
///   (`ctx.coherence_latency`) plus the wait behind the other sharers'
///   transfers, and the wait is proportional to their number, so a slice
///   with mean latency `L` is predicted to cost
///   `base + (L - base) * (sharers_after - 1) / (sharers_before - 1)`
///   per access once the eviction drops the sharer count. Phases where
///   the residual collapses to a single thread get the full credit.
fn line_relief(
    instance: &SharingInstance,
    ctx: &AssessContext<'_>,
) -> FastMap<(ThreadId, u32), Relief> {
    let mut reliefs: FastMap<(ThreadId, u32), Relief> = FastMap::default();
    for line in &instance.line_residency {
        for (thread, phase) in line.slots() {
            let relief = reliefs.entry((thread, phase)).or_default();
            // The whole line, or the instance's own traffic, which leaves
            // the line entirely.
            relief.add_full(line.relieved(thread, phase));
            if !line.residual_contended {
                continue;
            }
            let residual = line.residual(thread, phase);
            if residual.accesses == 0 {
                continue;
            }
            let after = line.residual_sharers_in_phase(phase);
            if after <= 1 {
                // This phase's residual is single-threaded: free.
                relief.add_full(residual);
                continue;
            }
            let before = line.sharers_in_phase(phase).max(after);
            if before <= after {
                // Eviction does not reduce this phase's sharer count (the
                // evicted threads also ride co-resident objects): nothing
                // shrinks.
                continue;
            }
            let mean = residual.cycles as f64 / residual.accesses as f64;
            let base = ctx.coherence_latency;
            if mean <= base {
                continue;
            }
            let shrunk = base + (mean - base) * (after as f64 - 1.0) / (before as f64 - 1.0);
            relief.removed_cycles += (mean - shrunk) * residual.accesses as f64;
        }
    }
    reliefs
}

/// Threads whose traffic a repair relieves, first-touch order — the
/// "related threads" of the paper's Fig. 5 totals, widened to line
/// co-residents under [`AssessModel::LineLevel`].
fn related_threads(instance: &SharingInstance, model: AssessModel) -> Vec<ThreadId> {
    match model {
        AssessModel::PerObject => instance.per_thread.iter().map(|(t, _)| *t).collect(),
        AssessModel::LineLevel => {
            let mut seen = FastSet::default();
            let mut threads = Vec::new();
            for line in &instance.line_residency {
                for thread in line.relieved_threads() {
                    if seen.insert(thread) {
                        threads.push(thread);
                    }
                }
            }
            threads
        }
    }
}

/// Assesses the performance impact of fixing `instance` under the paper's
/// per-object credit model — the reference path; see [`assess_with_model`]
/// for the line-level refinement.
pub fn assess(instance: &SharingInstance, ctx: &AssessContext<'_>) -> Assessment {
    assess_with_model(instance, ctx, AssessModel::PerObject)
}

/// Assesses the performance impact of fixing `instance`.
///
/// Threads without samples are predicted to keep their measured runtime;
/// phases whose threads are unknown to the registry keep their measured
/// duration.
///
/// All quantities are attributed *per phase interval*: a thread active in
/// several parallel phases contributes each phase only the sampled cycles,
/// object traffic and lifetime segment that fall inside that interval.
/// Using whole-run totals here would subtract the thread's object cycles
/// from every phase it appears in and scale each phase's runtime by a
/// ratio mixing in the other phases' samples.
pub fn assess_with_model(
    instance: &SharingInstance,
    ctx: &AssessContext<'_>,
    model: AssessModel,
) -> Assessment {
    let mut predicted_app = 0.0f64;
    let mut per_thread = Vec::new();
    let line_reliefs = match model {
        AssessModel::PerObject => FastMap::default(),
        AssessModel::LineLevel => line_relief(instance, ctx),
    };

    for phase in ctx.phases {
        match phase.kind {
            PhaseKind::Serial => predicted_app += phase.duration() as f64,
            PhaseKind::Parallel => {
                let mut phase_len = 0.0f64;
                for &thread in &phase.threads {
                    let (runtime, start_offset, cycles_t, instructions) =
                        match ctx.threads.get(thread) {
                            Some(stats) => {
                                // The thread's lifetime clipped to this phase.
                                let seg_start = stats.start.max(phase.start);
                                let seg_end = stats.end.unwrap_or(phase.end).min(phase.end);
                                (
                                    seg_end.saturating_sub(seg_start),
                                    seg_start.saturating_sub(phase.start),
                                    stats.in_phase(phase.index).cycles,
                                    stats.instructions_in_phase(phase.index),
                                )
                            }
                            None => (phase.duration(), 0, 0, 0),
                        };
                    // Per-object credit: the thread's sampled traffic on
                    // the instance itself.
                    let relief = match model {
                        AssessModel::PerObject => Relief::full(
                            instance
                                .thread_in_phase(thread, phase.index)
                                .unwrap_or_default(),
                        ),
                        AssessModel::LineLevel => line_reliefs
                            .get(&(thread, phase.index))
                            .copied()
                            .unwrap_or_default(),
                    };
                    // Eq. 1, applied to this thread's share of the relieved
                    // traffic within this phase.
                    let pred_cycles_o = ctx.aver_cycles_nofs * relief.credited_accesses;
                    // Eq. 2.
                    let pred_cycles_t =
                        (cycles_t as f64 - relief.removed_cycles + pred_cycles_o).max(0.0);
                    // Eq. 3, refined: the retired-instruction counter splits
                    // RT_t into compute (which a layout fix cannot shrink)
                    // and memory-stall time; only the stall time scales with
                    // the sampled access cycles. With no instruction counts
                    // compute is 0 and this is the paper's proportionality.
                    let compute =
                        (instructions as f64 * ctx.cycles_per_instruction).min(runtime as f64);
                    let stall = runtime as f64 - compute;
                    let pred_rt = if cycles_t == 0 {
                        runtime as f64
                    } else {
                        compute + stall * pred_cycles_t / cycles_t as f64
                    };
                    phase_len = phase_len.max(start_offset as f64 + pred_rt);
                    per_thread.push(ThreadAssessment {
                        thread,
                        runtime,
                        predicted_runtime: pred_rt,
                        cycles: cycles_t,
                        predicted_cycles: pred_cycles_t,
                    });
                }
                predicted_app += phase_len;
            }
        }
    }

    // Threads "related" to the repair: those whose traffic it relieves.
    let related = related_threads(instance, model);
    let mut total_thread_accesses = 0;
    let mut total_thread_cycles = 0;
    for &thread in &related {
        if let Some(stats) = ctx.threads.get(thread) {
            total_thread_accesses += stats.sampled_accesses;
            total_thread_cycles += stats.sampled_cycles;
        }
    }

    let improvement = if predicted_app > 0.0 {
        ctx.app_runtime as f64 / predicted_app
    } else {
        1.0
    };
    Assessment {
        model,
        improvement,
        real_runtime: ctx.app_runtime,
        predicted_runtime: predicted_app,
        total_threads: related.len(),
        total_thread_accesses,
        total_thread_cycles,
        per_thread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{ObjectDescriptor, ObjectOrigin, SharingKind};
    use crate::detect::detector::{ObjectKey, ThreadOnObject};
    use cheetah_heap::{CallStack, ObjectId};
    use cheetah_sim::Addr;

    /// Builds a two-phase profile: serial [0,100), parallel [100,1100) with
    /// two threads, serial [1100,1200).
    fn phases() -> Vec<PhaseInterval> {
        vec![
            PhaseInterval {
                index: 0,
                kind: PhaseKind::Serial,
                start: 0,
                end: 100,
                threads: vec![],
            },
            PhaseInterval {
                index: 1,
                kind: PhaseKind::Parallel,
                start: 100,
                end: 1100,
                threads: vec![ThreadId(1), ThreadId(2)],
            },
            PhaseInterval {
                index: 2,
                kind: PhaseKind::Serial,
                start: 1100,
                end: 1200,
                threads: vec![],
            },
        ]
    }

    fn registry(cycles: &[(u32, u64, u64)]) -> ThreadRegistry {
        // (thread, sampled_cycles spread over `n` accesses of equal
        // latency, accesses) — all sampled within phase 1.
        let mut registry = ThreadRegistry::new();
        for &(t, total_cycles, accesses) in cycles {
            registry.on_start(ThreadId(t), "w", 100, 1);
            for _ in 0..accesses {
                registry.record_sample(ThreadId(t), 1, total_cycles / accesses.max(1));
            }
            registry.on_exit(ThreadId(t), 1100);
        }
        registry
    }

    /// Instance whose per-thread traffic all happened in phase 1.
    fn instance(per_thread: Vec<(ThreadId, ThreadOnObject)>) -> SharingInstance {
        let per_thread_phase = per_thread.iter().map(|&(t, s)| ((t, 1u32), s)).collect();
        instance_in_phases(per_thread, per_thread_phase)
    }

    fn instance_in_phases(
        per_thread: Vec<(ThreadId, ThreadOnObject)>,
        per_thread_phase: Vec<((ThreadId, u32), ThreadOnObject)>,
    ) -> SharingInstance {
        SharingInstance {
            key: ObjectKey::Heap(ObjectId(0)),
            object: ObjectDescriptor {
                origin: ObjectOrigin::Heap {
                    callsite: CallStack::single("a.c", 1),
                    allocated_by: ThreadId(0),
                },
                start: Addr(0x4000_0000),
                size: 64,
            },
            kind: SharingKind::FalseSharing,
            reads: 0,
            writes: per_thread.iter().map(|(_, s)| s.accesses).sum(),
            invalidations: 100,
            latency: per_thread.iter().map(|(_, s)| s.cycles).sum(),
            per_thread,
            per_thread_phase,
            truly_shared_accesses: 0,
            words: vec![],
            line_residency: vec![],
        }
    }

    #[test]
    fn no_object_traffic_predicts_no_change() {
        let phases = phases();
        let registry = registry(&[(1, 10_000, 100), (2, 10_000, 100)]);
        let inst = instance(vec![]);
        let ctx = AssessContext {
            phases: &phases,
            threads: &registry,
            aver_cycles_nofs: 10.0,
            app_runtime: 1200,
            cycles_per_instruction: 1.0,
            coherence_latency: 150.0,
        };
        let result = assess(&inst, &ctx);
        assert!(
            (result.improvement - 1.0).abs() < 1e-9,
            "got {}",
            result.improvement
        );
        assert_eq!(result.real_runtime, 1200);
        assert_eq!(result.total_threads, 0);
    }

    #[test]
    fn dominant_false_sharing_predicts_large_speedup() {
        let phases = phases();
        // All sampled cycles come from the object, at latency 100/access;
        // post-fix latency is 10: cycles shrink 10x, so the 1000-cycle
        // parallel phase should shrink to ~100.
        let registry = registry(&[(1, 10_000, 100), (2, 10_000, 100)]);
        let on_obj = ThreadOnObject {
            accesses: 100,
            cycles: 10_000,
        };
        let inst = instance(vec![(ThreadId(1), on_obj), (ThreadId(2), on_obj)]);
        let ctx = AssessContext {
            phases: &phases,
            threads: &registry,
            aver_cycles_nofs: 10.0,
            app_runtime: 1200,
            cycles_per_instruction: 1.0,
            coherence_latency: 150.0,
        };
        let result = assess(&inst, &ctx);
        // Predicted: serial 100 + parallel 100 + serial 100 = 300.
        assert!(
            (result.predicted_runtime - 300.0).abs() < 1.0,
            "predicted {}",
            result.predicted_runtime
        );
        assert!((result.improvement - 4.0).abs() < 0.05);
        assert_eq!(result.total_threads, 2);
        assert_eq!(result.total_thread_accesses, 200);
        assert_eq!(result.total_thread_cycles, 20_000);
    }

    #[test]
    fn phase_length_follows_slowest_thread() {
        let phases = phases();
        // Thread 1 is all object traffic (will shrink); thread 2 has none
        // (stays at 1000): the phase stays ~1000.
        let registry = registry(&[(1, 10_000, 100), (2, 5_000, 100)]);
        let on_obj = ThreadOnObject {
            accesses: 100,
            cycles: 10_000,
        };
        let inst = instance(vec![(ThreadId(1), on_obj)]);
        let ctx = AssessContext {
            phases: &phases,
            threads: &registry,
            aver_cycles_nofs: 10.0,
            app_runtime: 1200,
            cycles_per_instruction: 1.0,
            coherence_latency: 150.0,
        };
        let result = assess(&inst, &ctx);
        assert!(
            (result.predicted_runtime - 1200.0).abs() < 1.0,
            "phase must be limited by the untouched thread: {}",
            result.predicted_runtime
        );
        assert!((result.improvement - 1.0).abs() < 1e-6);
    }

    #[test]
    fn threads_without_samples_keep_their_runtime() {
        let phases = phases();
        let mut registry = ThreadRegistry::new();
        registry.on_start(ThreadId(1), "w", 100, 1);
        registry.on_exit(ThreadId(1), 1100);
        registry.on_start(ThreadId(2), "w", 100, 1);
        registry.on_exit(ThreadId(2), 1100);
        let inst = instance(vec![]);
        let ctx = AssessContext {
            phases: &phases,
            threads: &registry,
            aver_cycles_nofs: 10.0,
            app_runtime: 1200,
            cycles_per_instruction: 1.0,
            coherence_latency: 150.0,
        };
        let result = assess(&inst, &ctx);
        assert!((result.improvement - 1.0).abs() < 1e-9);
        assert_eq!(result.per_thread.len(), 2);
        assert_eq!(result.per_thread[0].predicted_runtime, 1000.0);
    }

    /// Regression test for whole-run cycle attribution: a thread active in
    /// TWO parallel phases, with all its object traffic in the first one.
    /// The old code used `stats.sampled_cycles` (whole-run) as `Cycles_t`
    /// for both phases, so the object's cycles were subtracted from each
    /// phase and both phases' runtimes were scaled by a mixed ratio; the
    /// second phase — which never touches the object — must be predicted
    /// unchanged.
    #[test]
    fn thread_spanning_two_parallel_phases_is_attributed_per_phase() {
        let phases = vec![
            PhaseInterval {
                index: 0,
                kind: PhaseKind::Serial,
                start: 0,
                end: 100,
                threads: vec![],
            },
            PhaseInterval {
                index: 1,
                kind: PhaseKind::Parallel,
                start: 100,
                end: 1100,
                threads: vec![ThreadId(1), ThreadId(2)],
            },
            PhaseInterval {
                index: 2,
                kind: PhaseKind::Serial,
                start: 1100,
                end: 1200,
                threads: vec![],
            },
            PhaseInterval {
                index: 3,
                kind: PhaseKind::Parallel,
                start: 1200,
                end: 2200,
                threads: vec![ThreadId(1)],
            },
        ];
        let mut registry = ThreadRegistry::new();
        // Thread 1 lives through both parallel phases; thread 2 only the
        // first.
        registry.on_start(ThreadId(1), "w", 100, 1);
        registry.on_start(ThreadId(2), "w", 100, 1);
        registry.on_exit(ThreadId(2), 1100);
        // Phase 1: all of thread 1's and 2's samples are object ping-pong
        // at 100 cycles/access.
        for _ in 0..100 {
            registry.record_sample(ThreadId(1), 1, 100);
            registry.record_sample(ThreadId(2), 1, 100);
        }
        // Phase 3: thread 1 samples private traffic only, at 10 cycles.
        for _ in 0..100 {
            registry.record_sample(ThreadId(1), 3, 10);
        }
        registry.on_exit(ThreadId(1), 2200);

        let on_obj = ThreadOnObject {
            accesses: 100,
            cycles: 10_000,
        };
        let inst = instance_in_phases(
            vec![(ThreadId(1), on_obj), (ThreadId(2), on_obj)],
            vec![((ThreadId(1), 1), on_obj), ((ThreadId(2), 1), on_obj)],
        );
        let ctx = AssessContext {
            phases: &phases,
            threads: &registry,
            aver_cycles_nofs: 10.0,
            app_runtime: 2200,
            cycles_per_instruction: 1.0,
            coherence_latency: 150.0,
        };
        let result = assess(&inst, &ctx);
        // Phase 1 shrinks 10x (1000 -> 100); phase 3 must stay at 1000.
        // Predicted: 100 + 100 + 100 + 1000 = 1300.
        assert!(
            (result.predicted_runtime - 1300.0).abs() < 1.0,
            "predicted {}",
            result.predicted_runtime
        );
        let phase3 = result
            .per_thread
            .iter()
            .find(|t| t.thread == ThreadId(1) && t.cycles == 1_000)
            .expect("thread 1's phase-3 entry");
        assert_eq!(phase3.runtime, 1000, "lifetime clipped to the phase");
        assert!(
            (phase3.predicted_runtime - 1000.0).abs() < 1e-6,
            "phase without object traffic must be unchanged, got {}",
            phase3.predicted_runtime
        );
        assert!((result.improvement - 2200.0 / 1300.0).abs() < 1e-3);
    }

    /// The inter-object shape in miniature: the instance's own traffic is
    /// thread 1's, but its line also hosts a co-resident object hammered by
    /// thread 2. Per-object credit leaves thread 2 untouched (the phase
    /// stays long); line-level credit frees the whole line.
    #[test]
    fn line_level_credits_co_resident_threads() {
        use crate::detect::lines::LineAccum;
        use cheetah_sim::{AccessKind, CacheLineId};

        // The instance (object 0) is thread 1's; each `(object, thread)`
        // of `others` is a co-resident. Every slice is 100 phase-1 writes
        // of `latency` cycles, except the instance's at 100 cycles.
        let residency = |others: &[(u64, u32)], latency: u64| {
            let mut accum = LineAccum::new(CacheLineId(0x4000_0000 / 64));
            for _ in 0..100 {
                accum.record(
                    ObjectKey::Heap(ObjectId(0)),
                    ThreadId(1),
                    1,
                    AccessKind::Write,
                    100,
                );
                for &(object, thread) in others {
                    let key = ObjectKey::Heap(ObjectId(object));
                    accum.record(key, ThreadId(thread), 1, AccessKind::Write, latency);
                }
            }
            accum.residency_for(ObjectKey::Heap(ObjectId(0)))
        };
        let phases = phases();
        let registry = registry(&[(1, 10_000, 100), (2, 10_000, 100)]);
        let on_obj = ThreadOnObject {
            accesses: 100,
            cycles: 10_000,
        };
        let mut inst = instance(vec![(ThreadId(1), on_obj)]);
        inst.line_residency = vec![residency(&[(1, 2)], 100)];
        assert!(!inst.line_residency[0].residual_contended);
        let ctx = AssessContext {
            phases: &phases,
            threads: &registry,
            aver_cycles_nofs: 10.0,
            app_runtime: 1200,
            cycles_per_instruction: 1.0,
            coherence_latency: 150.0,
        };
        let per_object = assess_with_model(&inst, &ctx, AssessModel::PerObject);
        assert!(
            (per_object.improvement - 1.0).abs() < 1e-6,
            "thread 2 limits the phase under per-object credit: {}",
            per_object.improvement
        );
        assert_eq!(per_object.total_threads, 1);
        let line_level = assess_with_model(&inst, &ctx, AssessModel::LineLevel);
        assert!(
            (line_level.improvement - 4.0).abs() < 0.05,
            "joint credit must free both threads: {}",
            line_level.improvement
        );
        assert_eq!(line_level.total_threads, 2);
        assert_eq!(line_level.model, AssessModel::LineLevel);
        // Thread 2's traffic is credited once, at post-fix latency.
        let thread2 = line_level
            .per_thread
            .iter()
            .find(|t| t.thread == ThreadId(2))
            .unwrap();
        assert!(
            (thread2.predicted_cycles - 1_000.0).abs() < 1e-6,
            "got {}",
            thread2.predicted_cycles
        );

        // A contended residual (three-plus co-residents, two of them
        // surviving the eviction) collapses the credit back to the
        // instance's own traffic: with the residual slices' mean latency
        // at the coherence baseline there is no wait to shrink, so thread
        // 2 keeps its runtime and the phase stays long.
        inst.line_residency = vec![residency(&[(1, 2), (2, 3)], 100)];
        assert!(inst.line_residency[0].residual_contended);
        let conservative = assess_with_model(&inst, &ctx, AssessModel::LineLevel);
        assert!(
            (conservative.improvement - 1.0).abs() < 1e-6,
            "got {}",
            conservative.improvement
        );

        // Raise the residual's mean latency above the coherence baseline
        // and the wait component shrinks with the sharer count: thread 2's
        // predicted runtime drops below its measured one, but not to the
        // post-fix floor.
        let heavier = super::tests::registry(&[(1, 10_000, 100), (2, 40_000, 100)]);
        let ctx = AssessContext {
            threads: &heavier,
            ..ctx
        };
        inst.line_residency = vec![residency(&[(1, 2), (2, 3)], 400)];
        let partially = assess_with_model(&inst, &ctx, AssessModel::LineLevel);
        let thread2 = partially
            .per_thread
            .iter()
            .find(|t| t.thread == ThreadId(2))
            .unwrap();
        // 3 sharers drop to 2: the slice's mean latency 400 shrinks to
        // base 150 plus half the 250-cycle wait = 275 per access.
        assert!(
            (thread2.predicted_cycles - 27_500.0).abs() < 1e-6,
            "residual wait must shrink by the sharer ratio: {}",
            thread2.predicted_cycles
        );
        assert!(
            thread2.predicted_cycles > ctx.aver_cycles_nofs * 100.0,
            "residual must not be credited at post-fix latency"
        );
    }

    #[test]
    fn improvement_rate_is_percentage() {
        let phases = phases();
        let registry = registry(&[(1, 10_000, 100), (2, 10_000, 100)]);
        let on_obj = ThreadOnObject {
            accesses: 100,
            cycles: 10_000,
        };
        let inst = instance(vec![(ThreadId(1), on_obj), (ThreadId(2), on_obj)]);
        let ctx = AssessContext {
            phases: &phases,
            threads: &registry,
            aver_cycles_nofs: 10.0,
            app_runtime: 1200,
            cycles_per_instruction: 1.0,
            coherence_latency: 150.0,
        };
        let result = assess(&inst, &ctx);
        assert!((result.improvement_rate_percent() - result.improvement * 100.0).abs() < 1e-9);
        assert!(result.to_string().contains("predicted improvement"));
    }
}
