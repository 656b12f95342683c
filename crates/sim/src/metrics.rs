//! Execution-path event counters, for benchmarks and CI gates.
//!
//! The sharded executor's value proposition is that the single-threaded
//! merge replays only *order-dependent* events, with everything else
//! batch-folded in the parallel precompute passes. These counters make
//! that claim measurable: `sim_throughput` reads them after each run and
//! emits merged/folded/surfaced counts next to wall-clock, and the CI gate
//! fails if a streaming workload starts replaying per-line again.
//!
//! The counters live in the run's registry,
//! [`MachineConfig::obs`](crate::MachineConfig): read one with
//! `obs.counter(MERGED_EVENTS).get()`, or all with `obs.counters()`. Each
//! configuration gets its own registry unless the caller shares one, so
//! the counts are scoped to the runs that used it. Counters stay
//! deliberately **outside** [`crate::RunReport`]: reports are
//! bit-identical across shard counts, while these counts describe the
//! execution *strategy* and legitimately differ between the classic loop
//! and sharded runs.

use cheetah_obs::{Counter, ObsHandle};

/// Counter name for events processed *individually* in global order:
/// every access the classic loop steps in a parallel phase, in sharded
/// phases each directory event, each walked hit-run read, each heap pop
/// and each surfaced access the merge replays one by one, and in serial
/// phases each surfaced access.
pub const MERGED_EVENTS: &str = "sim.merged_events";
/// Counter name for the classic loop's scheduling steps: one per pop of
/// its `(clock, slot)` heap in a parallel phase. A popped worker runs
/// ahead through its work and unsampled private-line accesses and yields
/// only at an access another worker or the observer can see, so
/// `classic_switches / merged_events` measures how much of the
/// interleaving run-ahead saved. Zero for sharded phases.
pub const CLASSIC_SWITCHES: &str = "sim.classic_switches";
/// Counter name for accesses folded in batches without individual
/// global-order processing: precomputed private accesses absorbed into
/// event leads, settled hit-run reads folded in O(1) per run, and the
/// unsurfaced accesses of serial phases.
pub const FOLDED_EVENTS: &str = "sim.folded_events";
/// Counter name for accesses surfaced to the observer (sample delivery
/// and every-access observers) by sharded parallel phases and by serial
/// phases, a subset of their [`MERGED_EVENTS`]. The classic loop's
/// parallel-phase deliveries are not counted: its merged count already
/// covers every access it steps.
pub const SURFACED_EVENTS: &str = "sim.surfaced_events";
/// Counter name for sharded classify-pass wall nanoseconds.
pub const CLASSIFY_NS: &str = "sim.classify_ns";
/// Counter name for sharded precompute-pass wall nanoseconds.
pub const PRECOMPUTE_NS: &str = "sim.precompute_ns";
/// Counter name for sharded merge-pass wall nanoseconds.
pub const MERGE_NS: &str = "sim.merge_ns";
/// Counter name for footprint contract violations: accesses a sharded
/// phase classified outside every declared extent (or against the declared
/// owner/write mode). Each one falls back to the fully-ordered directory
/// path, so reports stay correct — but a non-zero count means some
/// stream's [`Footprint::Bounded`](crate::Footprint) under-approximated
/// its accesses and `cheetah-analyze --lint` will flag the workload.
pub const FOOTPRINT_VIOLATIONS: &str = "sim.footprint_violations";
/// Counter name for schedule-policy selections: residue events ordered by
/// a perturbed [`SchedulePolicy`](crate::SchedulePolicy) instead of the
/// observed timestamp order. Zero for observed-schedule runs.
pub const SCHED_SELECTIONS: &str = "sched.selections";
/// Counter name for residue events a perturbed schedule actually
/// *reordered*: the chosen worker's event was not the globally earliest
/// ready event. `reordered / selections` measures how far a seed strays
/// from the observed interleaving.
pub const SCHED_REORDERED: &str = "sched.reordered_events";
/// Counter name for phases a resumed run skipped: each
/// [`Machine::resume`](crate::Machine::resume) adds its checkpoint's prefix
/// length, so a trace shows which re-profiles re-simulated less. Zero for
/// runs from phase 0.
pub const RESUMED_PHASES: &str = "sim.resumed_phases";

/// Pre-resolved counter handles for one run's registry: the execution
/// paths look the handles up once per run/phase instead of taking the
/// registry lock per event batch.
#[derive(Debug, Clone)]
pub(crate) struct SimCounters {
    merged: Counter,
    switches: Counter,
    folded: Counter,
    surfaced: Counter,
    classify_ns: Counter,
    precompute_ns: Counter,
    merge_ns: Counter,
    violations: Counter,
    sched_selections: Counter,
    sched_reordered: Counter,
    resumed: Counter,
}

impl SimCounters {
    pub(crate) fn of(obs: &ObsHandle) -> SimCounters {
        SimCounters {
            merged: obs.counter(MERGED_EVENTS),
            switches: obs.counter(CLASSIC_SWITCHES),
            folded: obs.counter(FOLDED_EVENTS),
            surfaced: obs.counter(SURFACED_EVENTS),
            classify_ns: obs.counter(CLASSIFY_NS),
            precompute_ns: obs.counter(PRECOMPUTE_NS),
            merge_ns: obs.counter(MERGE_NS),
            violations: obs.counter(FOOTPRINT_VIOLATIONS),
            sched_selections: obs.counter(SCHED_SELECTIONS),
            sched_reordered: obs.counter(SCHED_REORDERED),
            resumed: obs.counter(RESUMED_PHASES),
        }
    }

    /// Adds one sharded phase's pass timings.
    #[inline]
    pub(crate) fn add_pass_timings(&self, classify_ns: u64, precompute_ns: u64, merge_ns: u64) {
        self.classify_ns.add(classify_ns);
        self.precompute_ns.add(precompute_ns);
        self.merge_ns.add(merge_ns);
    }

    /// Adds `n` individually merge-ordered events.
    #[inline]
    pub(crate) fn count_merged(&self, n: u64) {
        self.merged.add(n);
    }

    /// Adds `n` classic-loop scheduling steps.
    #[inline]
    pub(crate) fn count_switches(&self, n: u64) {
        self.switches.add(n);
    }

    /// Adds `n` batch-folded accesses.
    #[inline]
    pub(crate) fn count_folded(&self, n: u64) {
        self.folded.add(n);
    }

    /// Adds `n` observer-surfaced accesses.
    #[inline]
    pub(crate) fn count_surfaced(&self, n: u64) {
        self.surfaced.add(n);
    }

    /// Adds `n` footprint contract violations.
    #[inline]
    pub(crate) fn count_violations(&self, n: u64) {
        self.violations.add(n);
    }

    /// Adds one perturbed phase's schedule-policy decision counts.
    #[inline]
    pub(crate) fn count_schedule(&self, selections: u64, reordered: u64) {
        self.sched_selections.add(selections);
        self.sched_reordered.add(reordered);
    }

    /// Adds `n` phases skipped by resuming from a checkpoint.
    #[inline]
    pub(crate) fn count_resumed(&self, n: u64) {
        self.resumed.add(n);
    }

    /// A clone of the violations counter handle, for the footprint
    /// auditor's per-stream wrappers.
    pub(crate) fn violations_handle(&self) -> Counter {
        self.violations.clone()
    }
}
