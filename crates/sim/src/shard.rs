//! Sharded deterministic execution of parallel phases, and the fused loop
//! every serial phase runs on at every shard count.
//!
//! The classic engine ([`crate::exec`]) interleaves every thread of a
//! parallel phase through one discrete-event loop on one host thread:
//! every memory access takes a shared-directory probe, and every access
//! another worker or the observer can see waits for a heap scheduling
//! step (a worker runs ahead through its unsampled private-line accesses
//! between steps; the observer hears only of the accesses the thread's
//! sampling replica judges sampled — the same judge this module uses).
//! This module executes the same phase in two passes whose result is
//! **bit-identical** to the classic loop:
//!
//! 1. **Precompute** (on the calling thread and up to `shards - 1` scoped
//!    helper threads; workers are dealt round-robin and the calling thread
//!    takes the first share itself, so one shard spawns no thread and two
//!    spawn one): each worker's access stream is replayed *locally*.
//!    Three facts make most of the work timing-independent and therefore
//!    precomputable before any global interleaving is known:
//!    * streams are deterministic state machines — the op sequence never
//!      depends on timing;
//!    * MESI transitions (`coherence::transition`) depend only on
//!      the line's state and the issuing core, never on the clock; the
//!      clock matters solely for busy-window queueing, and a line touched
//!      by a single core can never queue (each thread's clock advances past
//!      its own transactions, and pre-phase transactions complete before
//!      the phase starts);
//!    * sampling decisions ([`crate::observer::ThreadSampler`]) are pure
//!      functions of the thread's retired-instruction index.
//!
//! ## Extent-based classification
//!
//! Lines are classified by who touches them in the phase — **private**
//! (one worker, simulated entirely in precompute), **read-shared**
//! (several workers, no writes: one directory access per worker, every
//! later read a provable L1 hit) or **write-shared** (the false-sharing
//! traffic itself, fully ordered). Classes are found per **extent**, not
//! per line (a hash-map probe per distinct line would dominate streaming
//! phases that touch tens of thousands of one-shot private lines): each
//! stream declares its footprint as a few contiguous byte ranges
//! ([`crate::footprint`]), a single boundary sweep classifies the union
//! (`extent::ClassTable`), and the per-access hot loop resolves a
//! line's class with a range comparison against the two most recently
//! used extents (a private stream interleaved with one shared object stays
//! cached). A stream without a declared footprint is drained once into an
//! [`OpsStream`], whose footprint is exact, so the sweep only ever sees
//! bounded footprints; interleaved footprints degrade to per-line
//! extents, never to an incorrect classification.
//!
//! ## Write-private folding
//!
//! A private line's whole phase history is computed in precompute; only
//! *sampled* private accesses become events, everything else folds into
//! the next event's `lead` cycles. Their per-line residue — the final
//! MESI state and the directory write-back — folds too: completed private
//! lines accumulate into uniform-state **runs** (`extent::RangeList`)
//! and are written back as whole extents
//! (`Directory::restore_extent`), so a streaming
//! worker's million-access private-write sweep costs the directory a
//! handful of range splices instead of thousands of per-line events. Lines
//! whose state diverges from their run (or that were seeded from a
//! per-line directory entry, which would shadow a range restore) spill
//! into a per-line exception map — correctness never depends on the
//! folding succeeding.
//!
//! 2. **Merge** (single-threaded): the per-worker event streams — the
//!    *ordered residue* — are replayed one event at a time. Replaying an
//!    event is one piece of code (`Replay::event`): shared-directory
//!    accesses, busy-window waits, hit-run settling, observer callbacks
//!    and sample delivery all happen there. The merge's
//!    [`SchedulePolicy`] only decides which worker's event goes next:
//!    * **observed** — a min-heap keyed by `(timestamp, worker)` with FIFO
//!      events per worker, the exact order the classic loop produces (its
//!      heap is keyed the same way), so coherence state, detector samples
//!      and reports come out bit-identical to it;
//!    * **perturbed** (`SeededShuffle`, `ContentionMax`) — a seeded pick
//!      among live workers, replaying the picked worker's next event whole:
//!      another feasible interleaving of the same residue (see
//!      [`crate::schedule`]).
//!
//!    The phase's join barrier becomes a merge barrier: the main thread
//!    resumes at the merged maximum end time, exactly as it would have at
//!    the classic join.
//!
//! ## Event storage
//!
//! The residue of a parallel phase is the sharded engine's memory
//! high-water mark, so each event is a compact record of at most 32 bytes:
//! its `lead` cycles plus the fields every event needs. The fields only a
//! *surfaced* event needs (its instruction index, the replica's
//! perturbation, a private access's cost) sit in a per-worker side list
//! that the merge reads in event order; surfaced events are a small
//! fraction of the residue. An unsurfaced access's perturbation folds into
//! the next event's `lead`, as unsurfaced private accesses and hit-run
//! reads already do. That is exact because nothing reads a worker's clock
//! between an access and its next event: the merge's next-event time, its
//! horizon and the perturbed policy's `earliest` all read `clock + lead`.
//! A hit run stores its read count and line span as `u32`; a read that
//! would overflow either closes the run and opens a new one. Each worker's
//! events fill fixed-size chunks (`CHUNK_EVENTS`) instead of one doubling
//! buffer, so no event is copied by a regrowth; the chunks are freed with
//! the worker's plan after write-back.
//!
//! ## The hit-run settling argument, per line
//!
//! A read-shared line's busy windows can only be created by *first-touch*
//! accesses (its hits never occupy the line). Once a line can provably
//! never be occupied again, a run of hits on it has no observable effect
//! other than advancing its own worker's clock and counting L1 hits — so
//! the merge folds the entire run in O(1) using its precomputed lead sum.
//! Settling is decided per line, and early: after a line's first
//! two first-touches merge it is in `Shared` state, where further first
//! touches are LLC hits that do not occupy the line — except
//! prefetch-substituted sequential fills, which the precompute pass counts
//! per line in advance (`seq_pending`). A line is *settled* once all its
//! first touches merged, or two merged and no sequential fills remain
//! outstanding; its busy window is then final, and every hit run over
//! settled lines whose windows have passed folds without touching the heap
//! or the directory. Before that point the merge walks runs read by read
//! against the real busy windows; the observed schedule yields at the
//! horizon exactly like the classic loop, a perturbed pick replays the run
//! whole (its reads touch nothing another worker can contend on).
//!
//! Determinism is structural: the precompute pass is per-worker (the
//! partitioning of workers onto host threads cannot affect its output) and
//! the merge order is a pure function of worker clocks (and, perturbed,
//! of the policy seed), so *any* shard
//! count — including the classic path at `shards = 1` — yields the same
//! [`crate::RunReport`]. The property tests in `tests/shard_props.rs` and
//! the `sim_throughput` bench gate assert exactly that; the
//! [`crate::metrics`] counters expose how much was merged vs folded.

use crate::coherence::{prefetchable, transition, Directory, LineState};
use crate::exec::{MachineConfig, ThreadCtx, OBS_LANE_ENGINE};
use crate::extent::{
    byte_to_line_extents, ClassCursor, ClassTable, ExtClass, LineExtent, RangeList,
};
use crate::footprint::Footprint;
use crate::latency::{AccessOutcome, LatencyModel};
use crate::metrics::SimCounters;
use crate::observer::{AccessRecord, ExecObserver, ForkJudge, Verdict};
use crate::program::{AccessStream, Op, OpsStream};
use crate::schedule::{SchedulePolicy, ScheduleRng};
use crate::types::{AccessKind, Addr, CacheLineId, CoreId, Cycles, PhaseKind, ThreadId};
use crate::util::{FastMap, FastSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ways of the private hot-line cache (direct-mapped).
const HOT_WAYS: usize = 4;
/// Once a uniform-state run list fragments this far, further non-extending
/// lines spill to the per-line exception map instead of `Vec::insert`.
const FRAG_CAP: usize = 512;
/// Widest hit-run line span checked line by line for early folding; wider
/// runs wait until every read-shared line has settled.
const MAX_FOLD_SPAN: u32 = 16;
/// Events per chunk of a worker's [`EventLog`] (256 KiB of 32-byte events).
const CHUNK_EVENTS: usize = 8192;

/// One read inside a hit-run: `cum_lead` is the folded local work since the
/// run started, *inclusive* of the gap before this read (the first read's
/// gap is 0 — the event's own lead covers it). Cumulative form makes both
/// the per-read walk (adjacent differences) and the O(1) fold from any
/// resume cursor (suffix = total − prefix) cheap. Unsampled by
/// construction, so no observer fields are needed.
struct HitRead {
    cum_lead: Cycles,
    addr: Addr,
}

/// One precomputed worker event, preceded by `lead` cycles of local work
/// (compute ops, unsurfaced accesses and their perturbation). Fields only
/// a surfaced event needs live in the worker's [`Surfaced`] side list.
struct Ev {
    lead: Cycles,
    kind: EvKind,
}

enum EvKind {
    /// An access that needs the shared directory (write-shared line, or a
    /// core's first touch of a read-shared line).
    Dir {
        addr: Addr,
        kind: AccessKind,
        /// Precomputed next-line-prefetch condition (the worker's own
        /// access sequence determines it).
        sequential: bool,
        /// First touch of a read-shared line: updates the line's settling
        /// state when merged.
        settles: bool,
        /// Surfaced to the observer; its [`Surfaced`] record is next in
        /// the side list.
        surfaced: bool,
    },
    /// A *sampled* read of a read-shared line after this core's first
    /// touch: a proven L1 hit surfaced to the observer; only the
    /// busy-window wait needs global time.
    SharedHit { addr: Addr },
    /// A run of `reads` unsampled read-shared hits (see the module docs):
    /// the worker's next `reads` [`WorkerPlan::hit_reads`], on lines
    /// `min_line..=min_line + span`. The span and lead sum let the merge
    /// fold the run in O(1) once every line in the span has settled.
    HitRun {
        min_line: u64,
        reads: u32,
        span: u32,
    },
    /// A private access that must be surfaced to the observer (sampled, or
    /// the observer demanded every access); outcome precomputed, cost in
    /// its [`Surfaced`] record.
    Private {
        addr: Addr,
        kind: AccessKind,
        outcome: AccessOutcome,
    },
    /// End of the worker's stream; `lead` holds trailing compute cycles.
    Exit,
}

/// What the merge needs of a surfaced event beyond its [`Ev`]: one record
/// per surfaced event, in event order.
#[derive(Clone, Copy)]
struct Surfaced {
    instrs_before: u64,
    /// The replica's judgement; `None` when the observer's `on_access`
    /// return is charged instead.
    perturbation: Option<Cycles>,
    /// Precomputed cost of a private access (unused by directory events,
    /// whose latency the merge computes).
    cost: Cycles,
}

/// A worker's events in fixed-size chunks, walked in order by the merge.
#[derive(Default)]
struct EventLog {
    chunks: Vec<Vec<Ev>>,
}

impl EventLog {
    fn push(&mut self, ev: Ev) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK_EVENTS => chunk.push(ev),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_EVENTS);
                chunk.push(ev);
                self.chunks.push(chunk);
            }
        }
    }

    fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    fn iter(&self) -> std::iter::Flatten<std::slice::Iter<'_, Vec<Ev>>> {
        self.chunks.iter().flatten()
    }
}

/// One memory access: `work_before` compute instructions since the
/// previous access, then the access itself.
struct FeedAccess {
    work_before: u64,
    addr: Addr,
    write: bool,
}

/// Feeds a worker's stream to the precompute pass one access at a time.
struct OpFeed {
    stream: Box<dyn AccessStream>,
    /// Compute instructions after the last access (valid once exhausted).
    trailing: u64,
}

impl OpFeed {
    /// Next access, folding compute ops into `work_before`.
    fn next_access(&mut self) -> Option<FeedAccess> {
        let mut work = 0u64;
        loop {
            let (addr, write) = match self.stream.next_op() {
                Some(Op::Work(n)) => {
                    work += n;
                    continue;
                }
                Some(Op::Read(addr)) => (addr, false),
                Some(Op::Write(addr)) => (addr, true),
                None => {
                    self.trailing = work;
                    return None;
                }
            };
            return Some(FeedAccess {
                work_before: work,
                addr,
                write,
            });
        }
    }
}

/// Worker-local simulation of private lines, shared by the fused serial
/// path and the parallel precompute pass: a direct-mapped hot cache in
/// front of uniform-state run accumulators, with a per-line exception map
/// as the always-correct spill path.
struct PrivateSim {
    hot: [(CacheLineId, LineState, bool); HOT_WAYS],
    /// Lines that must be restored per line: seeded from a per-line
    /// directory entry (which would shadow a range restore) or diverged
    /// from their run's uniform state.
    exceptions: FastMap<CacheLineId, LineState>,
    /// Completed lines grouped by final state, coalesced into ranges.
    buckets: Vec<(LineState, RangeList)>,
    /// Lines that became LLC-resident during the phase, coalesced; spills
    /// to `llc_lines` once fragmented.
    llc_ranges: RangeList,
    llc_lines: Vec<CacheLineId>,
    stats: crate::stats::CoherenceStats,
}

const NO_LINE: CacheLineId = CacheLineId(u64::MAX);

impl PrivateSim {
    fn new(core: CoreId) -> Self {
        PrivateSim {
            hot: [(NO_LINE, LineState::Exclusive(core), false); HOT_WAYS],
            exceptions: FastMap::default(),
            buckets: Vec::new(),
            llc_ranges: RangeList::default(),
            llc_lines: Vec::new(),
            stats: crate::stats::CoherenceStats::default(),
        }
    }

    /// Final state of a line already touched this phase (not in the hot
    /// cache); `pinned` marks per-line-restore lines.
    fn lookup(&mut self, line: CacheLineId) -> Option<(LineState, bool)> {
        if !self.exceptions.is_empty() {
            if let Some(&state) = self.exceptions.get(&line) {
                return Some((state, true));
            }
        }
        for (state, ranges) in &mut self.buckets {
            if ranges.contains(line.0) {
                return Some((*state, false));
            }
        }
        None
    }

    /// Records a line's final-so-far state after it leaves the hot cache.
    fn deposit(&mut self, line: CacheLineId, state: LineState, pinned: bool) {
        if pinned {
            self.exceptions.insert(line, state);
            return;
        }
        for (bucket_state, ranges) in &mut self.buckets {
            if ranges.contains(line.0) {
                if *bucket_state != state {
                    // Diverged from its run: shadow the stale range entry.
                    self.exceptions.insert(line, state);
                }
                return;
            }
        }
        let bucket = match self
            .buckets
            .iter_mut()
            .position(|(bucket_state, _)| *bucket_state == state)
        {
            Some(idx) => &mut self.buckets[idx].1,
            None => {
                self.buckets.push((state, RangeList::default()));
                &mut self.buckets.last_mut().expect("just pushed").1
            }
        };
        if bucket.fragments() >= FRAG_CAP {
            self.exceptions.insert(line, state);
        } else {
            bucket.insert(line.0);
        }
    }

    /// Records LLC residency.
    fn llc_insert(&mut self, line: CacheLineId) {
        if self.llc_ranges.fragments() >= FRAG_CAP {
            self.llc_lines.push(line);
        } else {
            self.llc_ranges.insert(line.0);
        }
    }

    /// Simulates one private access; returns its outcome and cost.
    ///
    /// `sequential` is the precomputed next-line-prefetch condition.
    #[inline]
    fn access(
        &mut self,
        directory: &Directory,
        latency: &LatencyModel,
        core: CoreId,
        line: CacheLineId,
        write: bool,
        sequential: bool,
    ) -> (AccessOutcome, Cycles) {
        let way = (line.0 as usize) & (HOT_WAYS - 1);
        let (prev, pinned) = if self.hot[way].0 == line {
            let prev = self.hot[way].1;
            // The overwhelmingly common case: the line is already owned.
            let owned_hit = match prev {
                LineState::Modified(owner) => owner == core,
                LineState::Exclusive(owner) if !write => owner == core,
                LineState::Exclusive(owner) if owner == core => {
                    self.hot[way].1 = LineState::Modified(core);
                    true
                }
                _ => false,
            };
            if owned_hit {
                self.stats.record(AccessOutcome::L1Hit);
                return (AccessOutcome::L1Hit, latency.l1_hit);
            }
            (Some(prev), self.hot[way].2)
        } else {
            // Promote into the hot cache, depositing the evicted line.
            let seeded = match self.lookup(line) {
                Some((state, pinned)) => (Some(state), pinned),
                None => directory.seed_of(line),
            };
            if self.hot[way].0 != NO_LINE {
                let (old_line, old_state, old_pinned) = self.hot[way];
                self.deposit(old_line, old_state, old_pinned);
            }
            self.hot[way] = (
                line,
                seeded.0.unwrap_or(LineState::Exclusive(core)),
                seeded.1,
            );
            seeded
        };
        // `in_llc` only matters for cold lines.
        let in_llc = prev.is_none() && directory.llc_resident(line);
        let t = transition(
            prev,
            in_llc,
            core,
            if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        );
        self.hot[way] = (line, t.state, pinned);
        if t.llc_insert {
            self.llc_insert(line);
        }
        self.stats.invalidations += t.invalidated;
        let outcome = if sequential && prefetchable(t.outcome) {
            AccessOutcome::Prefetched
        } else {
            t.outcome
        };
        self.stats.record(outcome);
        (outcome, latency.cost(outcome))
    }

    /// Folds every completed line back into the shared directory: uniform
    /// runs as extent restores, exceptions per line (after the ranges, so
    /// their per-line entries shadow any stale range membership).
    fn write_back(mut self, directory: &mut Directory) {
        for (line, state, pinned) in self.hot {
            if line != NO_LINE {
                self.deposit(line, state, pinned);
            }
        }
        for (state, ranges) in &self.buckets {
            for (start, end) in ranges.iter() {
                directory.restore_extent(start, end, *state);
            }
        }
        for (&line, &state) in &self.exceptions {
            directory.restore_line_state(line, state);
        }
        for (start, end) in self.llc_ranges.iter() {
            directory.llc_insert_range(start, end);
        }
        for &line in &self.llc_lines {
            directory.llc_insert(line);
        }
        directory.absorb_stats(&self.stats);
    }
}

/// Precompute output of one worker.
struct WorkerPlan {
    events: EventLog,
    /// One record per surfaced event, in event order.
    surfaced: Vec<Surfaced>,
    /// Every hit run's reads, back to back in event order (one buffer per
    /// worker instead of an allocation per run).
    hit_reads: Vec<HitRead>,
    instructions: u64,
    reads: u64,
    writes: u64,
    /// The worker's private-line simulation state, for write-back.
    sim: PrivateSim,
    /// The worker's read-shared first touches with their prefetch flags;
    /// seeds the merge's per-line settling state.
    rs_first_touches: Vec<(CacheLineId, bool)>,
    /// Final last-touched line of the worker's core (prefetch tracker).
    last_line: Option<CacheLineId>,
    /// Footprint contract violations: accesses whose declared class did
    /// not admit them (uncovered line, foreign private line, or a write to
    /// a read-shared line). Each fell back to the fully-ordered directory
    /// path; aggregated into [`crate::metrics::FOOTPRINT_VIOLATIONS`].
    violations: u64,
    /// Metrics: accesses folded into event leads during precompute.
    folded: u64,
}

/// Per-line settling state of one read-shared line (see module docs).
struct SettleLine {
    /// First touches not yet merged.
    outstanding: u32,
    /// Unmerged first touches with the sequential-prefetch flag (the only
    /// post-`Shared` accesses that can occupy the line).
    seq_pending: u32,
    /// First touches merged so far.
    merged: u32,
    /// The line's busy window is final and folded into the horizon.
    settled: bool,
}

impl SettleLine {
    fn can_settle(&self) -> bool {
        self.outstanding == 0 || (self.merged >= 2 && self.seq_pending == 0)
    }
}

/// Merge-side settling bookkeeping.
struct Settle {
    lines: FastMap<CacheLineId, SettleLine>,
    /// Read-shared lines whose busy window is not final yet.
    unsettled_lines: usize,
    /// Latest busy-window end among settled lines.
    horizon: Cycles,
}

impl Settle {
    fn new(plans: &[WorkerPlan]) -> Settle {
        let mut lines: FastMap<CacheLineId, SettleLine> = FastMap::default();
        for plan in plans {
            for &(line, sequential) in &plan.rs_first_touches {
                let entry = lines.entry(line).or_insert(SettleLine {
                    outstanding: 0,
                    seq_pending: 0,
                    merged: 0,
                    settled: false,
                });
                entry.outstanding += 1;
                entry.seq_pending += u32::from(sequential);
            }
        }
        Settle {
            unsettled_lines: lines.len(),
            lines,
            horizon: 0,
        }
    }

    /// Whether every read-shared line is settled and quiet at `now`.
    fn all_settled(&self, now: Cycles) -> bool {
        self.unsettled_lines == 0 && self.horizon <= now
    }

    /// Records one merged first touch; folds the line's (now possibly
    /// final) busy window into the horizon.
    fn merge_first_touch(&mut self, directory: &Directory, line: CacheLineId, sequential: bool) {
        let entry = self
            .lines
            .get_mut(&line)
            .expect("settling line was announced by precompute");
        entry.outstanding -= 1;
        entry.merged += 1;
        if sequential {
            entry.seq_pending -= 1;
        }
        if !entry.settled && entry.can_settle() {
            entry.settled = true;
            self.unsettled_lines -= 1;
            self.horizon = self.horizon.max(directory.busy_until_of(line));
        }
    }

    /// Whether a hit run spanning `[min_line, min_line + span]` starting at
    /// `start` is provably wait-free: either everything settled globally,
    /// or every read-shared line in the (narrow) span individually settled
    /// with its final window expired.
    fn run_foldable(&self, directory: &Directory, min_line: u64, span: u32, start: Cycles) -> bool {
        if self.all_settled(start) {
            return true;
        }
        if span >= MAX_FOLD_SPAN {
            return false;
        }
        for line in min_line..=min_line + u64::from(span) {
            let line = CacheLineId(line);
            if let Some(entry) = self.lines.get(&line) {
                if !entry.settled || directory.busy_until_of(line) > start {
                    return false;
                }
            }
        }
        true
    }
}

/// Runs one serial phase, at every shard count, with the sharded engine's
/// fast local access path.
///
/// A serial phase is the degenerate sharded phase: one thread, no other
/// actor, so *every* line is private and no classification or merge is
/// needed at all. The stream executes in a single fused pass over the same
/// [`PrivateSim`] machinery as the parallel precompute — hot-line cache,
/// uniform-run write-back, sampling replica skipping the per-access
/// observer callback. The replica forks from the main thread's *current*
/// sampling state, so repeated serial phases chain exactly.
pub(crate) fn run_serial(
    config: &MachineConfig,
    directory: &mut Directory,
    observer: &mut dyn ExecObserver,
    main: &mut ThreadCtx,
    phase_index: u32,
) {
    let mut span = config.obs.span("shard.serial", OBS_LANE_ENGINE);
    span.attr_u64("phase", u64::from(phase_index));
    let line_size = config.cache_line_size;
    let latency = &config.latency;
    let cpi = latency.cycles_per_instruction;
    let core = main.core;
    let mut judge = ForkJudge::fork(observer, main.id, main.judged);
    let mut sim = PrivateSim::new(core);
    let mut next_sequential: u64 = directory
        .last_line_for(core)
        .map_or(u64::MAX, |l| l.0.wrapping_add(1));
    let mut last_line = directory.last_line_for(core);
    let mut clock = main.clock;
    let (mut folded, mut surfaced_count) = (0u64, 0u64);

    while let Some(op) = main.stream.next_op() {
        match op {
            Op::Work(n) => {
                main.instructions += n;
                clock += n * cpi;
            }
            Op::Read(addr) | Op::Write(addr) => {
                let write = matches!(op, Op::Write(_));
                let line = addr.line(line_size);
                let verdict = judge.judge(main.instructions);
                let sequential = next_sequential == line.0;
                next_sequential = line.0.wrapping_add(1);
                let (outcome, cost) = sim.access(directory, latency, core, line, write, sequential);
                if verdict.surfaced {
                    surfaced_count += 1;
                } else {
                    folded += 1;
                }
                let perturb = verdict.charge(observer, || AccessRecord {
                    thread: main.id,
                    core,
                    addr,
                    kind: if write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    outcome,
                    latency: cost,
                    start: clock,
                    instrs_before: main.instructions,
                    phase_index,
                    phase_kind: PhaseKind::Serial,
                });
                clock += cost + perturb;
                main.instructions += 1;
                if write {
                    main.writes += 1;
                } else {
                    main.reads += 1;
                }
                last_line = Some(line);
            }
        }
    }

    sim.write_back(directory);
    directory.set_last_line(core, last_line);
    main.clock = clock;
    main.judged = judge.last_judged();
    let counters = SimCounters::of(&config.obs);
    counters.count_folded(folded);
    counters.count_merged(surfaced_count);
    counters.count_surfaced(surfaced_count);
    span.attr_u64("folded", folded);
    span.attr_u64("surfaced", surfaced_count);
    span.finish();
}

/// Runs one parallel phase sharded; drop-in replacement for the classic
/// `Execution::run_parallel` (same inputs, same outputs, same observer
/// callback sequence). Workers must sit on pairwise-distinct cores.
pub(crate) fn run_parallel_sharded(
    config: &MachineConfig,
    directory: &mut Directory,
    observer: &mut dyn ExecObserver,
    workers: &mut [ThreadCtx],
    phase_index: u32,
    shards: usize,
) -> Vec<Cycles> {
    let line_size = config.cache_line_size;
    let latency = config.latency.clone();
    let t0 = std::time::Instant::now();
    let mut span_classify = config.obs.span("shard.classify", OBS_LANE_ENGINE);
    span_classify.attr_u64("phase", u64::from(phase_index));
    span_classify.attr_u64("workers", workers.len() as u64);

    // Sampling replicas, handed out after every member's on_thread_start
    // (the engine called those while spawning, before this function).
    let judges: Vec<ForkJudge> = workers
        .iter()
        .map(|w| ForkJudge::fork(observer, w.id, w.judged))
        .collect();

    // Pass 1a: footprints, one per stream. A stream that declares none is
    // drained once into an `OpsStream`, whose footprint is exact.
    let (feeds, per_worker_extents): (Vec<OpFeed>, Vec<Vec<LineExtent>>) = workers
        .iter_mut()
        .map(|w| {
            let mut stream = std::mem::replace(&mut w.stream, Box::new(OpsStream::new(Vec::new())));
            loop {
                match stream.footprint() {
                    Footprint::Bounded(extents) => {
                        let feed = OpFeed {
                            stream,
                            trailing: 0,
                        };
                        return (feed, byte_to_line_extents(&extents, line_size));
                    }
                    Footprint::Unknown => {
                        let ops = std::iter::from_fn(|| stream.next_op()).collect();
                        stream = Box::new(OpsStream::new(ops));
                    }
                }
            }
        })
        .unzip();
    let table = ClassTable::build(&per_worker_extents);
    let t_class = t0.elapsed();
    span_classify.finish();
    let mut span_precompute = config.obs.span("shard.precompute", OBS_LANE_ENGINE);
    span_precompute.attr_u64("phase", u64::from(phase_index));
    span_precompute.attr_u64("shards", shards as u64);

    // Pass 1b: per-worker event precomputation, on this thread and helpers.
    let inputs: Vec<(OpFeed, ForkJudge, u32, CoreId, Option<CacheLineId>)> = {
        let mut inputs = Vec::with_capacity(workers.len());
        let mut judges = judges.into_iter();
        for (slot, (feed, worker)) in feeds.into_iter().zip(workers.iter()).enumerate() {
            inputs.push((
                feed,
                judges.next().expect("judge per worker"),
                slot as u32,
                worker.core,
                directory.last_line_for(worker.core),
            ));
        }
        inputs
    };
    let latency_ref = &latency;
    let table_ref = &table;
    let directory_ref: &Directory = directory;
    let helper_threads = shards.min(inputs.len()).max(1) - 1;
    let mut plans: Vec<WorkerPlan> = parallel_map(inputs, shards, &|_slot, input| {
        let (feed, judge, me, core, last_line) = input;
        precompute_worker(
            me,
            core,
            feed,
            judge,
            last_line,
            table_ref,
            directory_ref,
            latency_ref,
            line_size,
        )
    });
    let t_pre = t0.elapsed();
    span_precompute.attr_u64("helper_threads", helper_threads as u64);
    span_precompute.attr_u64(
        "events",
        plans.iter().map(|plan| plan.events.len() as u64).sum(),
    );
    span_precompute.attr_u64(
        "event_chunks",
        plans
            .iter()
            .map(|plan| plan.events.chunks.len() as u64)
            .sum(),
    );
    span_precompute.finish();
    let mut span_merge = config.obs.span("shard.merge", OBS_LANE_ENGINE);
    span_merge.attr_u64("phase", u64::from(phase_index));

    // Pass 2: deterministic merge, in the order the schedule policy picks.
    let counters = SimCounters::of(&config.obs);
    let ends = merge(
        Replay::new(config, directory, observer, &plans, phase_index),
        workers,
        &plans,
        config.schedule,
        &counters,
        &mut span_merge,
    );
    let t_merge = t0.elapsed();
    span_merge.finish();

    // Write-back: private-line runs, LLC residency, prefetch trackers and
    // local statistics fold into the shared directory; worker totals into
    // the thread contexts.
    let mut folded = 0u64;
    let mut violations = 0u64;
    for (slot, plan) in plans.drain(..).enumerate() {
        folded += plan.folded;
        violations += plan.violations;
        plan.sim.write_back(directory);
        directory.set_last_line(workers[slot].core, plan.last_line);
        let ctx = &mut workers[slot];
        ctx.instructions = plan.instructions;
        ctx.reads = plan.reads;
        ctx.writes = plan.writes;
        ctx.clock = ends[slot];
    }
    counters.count_folded(folded);
    if violations > 0 {
        counters.count_violations(violations);
    }
    counters.add_pass_timings(
        t_class.as_nanos() as u64,
        (t_pre - t_class).as_nanos() as u64,
        (t_merge - t_pre).as_nanos() as u64,
    );
    ends
}

/// Replays one worker's accesses locally: simulates private lines, judges
/// every access through the sampling replica, and folds everything that
/// needs no global time into event leads.
///
/// A line's class is resolved through the phase's extent table by a
/// [`ClassCursor`]; private lines run through [`PrivateSim`]. (Serial phases do not come through
/// here — they use the fused loop in [`run_serial`].)
#[allow(clippy::too_many_arguments)]
fn precompute_worker(
    me: u32,
    core: CoreId,
    mut feed: OpFeed,
    mut judge: ForkJudge,
    last_line: Option<CacheLineId>,
    table: &ClassTable,
    directory: &Directory,
    latency: &LatencyModel,
    line_size: u64,
) -> WorkerPlan {
    let mut events = EventLog::default();
    let mut surfaced_side: Vec<Surfaced> = Vec::new();
    let mut lead: Cycles = 0;
    let (mut instructions, mut reads, mut writes) = (0u64, 0u64, 0u64);
    let mut sim = PrivateSim::new(core);
    let cpi = latency.cycles_per_instruction;
    let mut folded = 0u64;
    let mut violations = 0u64;
    // `last.0 + 1` of the previously touched line; u64::MAX when none.
    let mut next_sequential: u64 = last_line.map_or(u64::MAX, |l| l.0.wrapping_add(1));
    let mut final_line = last_line;
    let mut cursor = ClassCursor::default();
    // Read-shared lines this worker has first-touched.
    let mut rs_touched: RangeList = RangeList::default();
    let mut rs_touched_spill: FastSet<CacheLineId> = FastSet::default();
    let mut rs_first_touches: Vec<(CacheLineId, bool)> = Vec::new();
    // Hit-run reads; the open run (unsampled read-shared hits) is
    // `hit_reads[run_first..]`, `run_lead` the lead before it.
    let mut hit_reads: Vec<HitRead> = Vec::new();
    let mut run_first = 0usize;
    let mut run_lead: Cycles = 0;
    let mut run_cum: Cycles = 0;
    let (mut run_min, mut run_max) = (u64::MAX, 0u64);

    // Closes the open hit run. Its count and span fit the event's `u32`
    // fields: the join below closes a run before a read would overflow
    // either.
    macro_rules! flush_run {
        () => {
            if hit_reads.len() > run_first {
                events.push(Ev {
                    lead: run_lead,
                    kind: EvKind::HitRun {
                        min_line: run_min,
                        reads: (hit_reads.len() - run_first) as u32,
                        span: (run_max - run_min) as u32,
                    },
                });
                #[allow(unused_assignments)]
                {
                    run_first = hit_reads.len();
                    run_cum = 0;
                    run_min = u64::MAX;
                    run_max = 0;
                }
            }
        };
    }

    // Emits the current access's event after the pending lead. A surfaced
    // access's side record goes to the side list; an unsurfaced one's
    // perturbation folds into the next event's lead, since nothing reads
    // the worker's clock between an access and its next event.
    macro_rules! emit {
        ($kind:expr, $surfaced:expr, $perturbation:expr, $cost:expr) => {
            events.push(Ev {
                lead: std::mem::take(&mut lead),
                kind: $kind,
            });
            if $surfaced {
                surfaced_side.push(Surfaced {
                    instrs_before: instructions - 1,
                    perturbation: $perturbation,
                    cost: $cost,
                });
            } else {
                lead = $perturbation.expect("unsurfaced access has judgement");
            }
        };
    }

    while let Some(access) = feed.next_access() {
        let FeedAccess {
            work_before,
            addr,
            write,
        } = access;
        instructions += work_before;
        lead += work_before * cpi;
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let line = addr.line(line_size);
        let Verdict {
            perturbation,
            surfaced,
        } = judge.judge(instructions);
        let sequential = next_sequential == line.0;
        next_sequential = line.0.wrapping_add(1);
        final_line = Some(line);
        instructions += 1;
        if write {
            writes += 1;
        } else {
            reads += 1;
        }

        // A line outside every declared footprint resolves write-shared —
        // the fully-ordered directory path — and the cursor counts the
        // miss, so the lint can surface the workload bug instead of the
        // run dying here. Two contract checks the extent cache cannot
        // express: a line classified private to a *different* worker, or a
        // write to a line every footprint declared read-only. Both mean
        // some footprint under-declared this worker's traffic; demote the
        // access to the write-shared path and count the violation.
        let class = match cursor.class(table, line) {
            ExtClass::Private(owner) if owner != me => {
                violations += 1;
                ExtClass::WriteShared
            }
            ExtClass::ReadShared if write => {
                violations += 1;
                ExtClass::WriteShared
            }
            class => class,
        };
        match class {
            ExtClass::Private(_) => {
                let (outcome, cost) = sim.access(directory, latency, core, line, write, sequential);
                if surfaced {
                    flush_run!();
                    emit!(
                        EvKind::Private {
                            addr,
                            kind,
                            outcome
                        },
                        true,
                        perturbation,
                        cost
                    );
                } else {
                    folded += 1;
                    lead += cost + perturbation.expect("unsurfaced access has judgement");
                }
            }
            ExtClass::ReadShared => {
                let touched = rs_touched.contains(line.0)
                    || (!rs_touched_spill.is_empty() && rs_touched_spill.contains(&line));
                if !touched {
                    if rs_touched.fragments() >= FRAG_CAP {
                        rs_touched_spill.insert(line);
                    } else {
                        rs_touched.insert(line.0);
                    }
                    rs_first_touches.push((line, sequential));
                    flush_run!();
                    emit!(
                        EvKind::Dir {
                            addr,
                            kind,
                            sequential,
                            settles: true,
                            surfaced
                        },
                        surfaced,
                        perturbation,
                        0
                    );
                } else if surfaced {
                    flush_run!();
                    emit!(EvKind::SharedHit { addr }, true, perturbation, 0);
                } else {
                    // Join (or open) the hit run, closing it first if this
                    // read would overflow its read count or line span;
                    // perturbation lands after the hit, i.e. in the next
                    // lead.
                    if hit_reads.len() > run_first
                        && (hit_reads.len() - run_first >= u32::MAX as usize
                            || run_max.max(line.0) - run_min.min(line.0) > u64::from(u32::MAX))
                    {
                        flush_run!();
                    }
                    if hit_reads.len() == run_first {
                        run_lead = std::mem::take(&mut lead);
                    } else {
                        run_cum += std::mem::take(&mut lead);
                    }
                    hit_reads.push(HitRead {
                        cum_lead: run_cum,
                        addr,
                    });
                    run_min = run_min.min(line.0);
                    run_max = run_max.max(line.0);
                    lead += perturbation.expect("unsurfaced access has judgement");
                }
            }
            ExtClass::WriteShared => {
                flush_run!();
                emit!(
                    EvKind::Dir {
                        addr,
                        kind,
                        sequential,
                        settles: false,
                        surfaced
                    },
                    surfaced,
                    perturbation,
                    0
                );
            }
        }
    }
    instructions += feed.trailing;
    lead += feed.trailing * cpi;
    flush_run!();
    events.push(Ev {
        lead,
        kind: EvKind::Exit,
    });

    WorkerPlan {
        events,
        surfaced: surfaced_side,
        hit_reads,
        instructions,
        reads,
        writes,
        sim,
        rs_first_touches,
        last_line: final_line,
        violations: violations + cursor.misses,
        folded,
    }
}

/// Merge frontier state of one worker.
struct MergeWorker<'a> {
    id: ThreadId,
    core: CoreId,
    clock: Cycles,
    events: std::iter::Flatten<std::slice::Iter<'a, Vec<Ev>>>,
    surfaced: std::slice::Iter<'a, Surfaced>,
    hit_reads: &'a [HitRead],
    pending: Option<&'a Ev>,
    /// Index into `hit_reads` of the pending (or next) hit run's first read.
    run_start: usize,
    /// Non-zero when `pending` is a hit run resumed at this read index.
    run_cursor: usize,
}

impl<'a> MergeWorker<'a> {
    /// Global time of the worker's next event.
    fn next_time(&self) -> Cycles {
        let ev = self.pending.expect("live worker has a pending event");
        if self.run_cursor > 0 {
            self.clock + run_lead_at(&self.hit_reads[self.run_start..], self.run_cursor)
        } else {
            self.clock + ev.lead
        }
    }

    /// The side record of the surfaced event being replayed.
    fn next_surfaced(&mut self) -> Surfaced {
        *self
            .surfaced
            .next()
            .expect("every surfaced event has a side record")
    }

    /// The line of the pending event when it is a directory write.
    fn pending_write(&self, line_size: u64) -> Option<CacheLineId> {
        match self.pending {
            Some(Ev {
                kind:
                    EvKind::Dir {
                        addr,
                        kind: AccessKind::Write,
                        ..
                    },
                ..
            }) => Some(addr.line(line_size)),
            _ => None,
        }
    }
}

/// Folded local work between read `cursor - 1` and read `cursor` of a run
/// (for `cursor = 0`, the event's own lead already covered it).
#[inline]
fn run_lead_at(reads: &[HitRead], cursor: usize) -> Cycles {
    if cursor == 0 {
        reads[0].cum_lead
    } else {
        reads[cursor].cum_lead - reads[cursor - 1].cum_lead
    }
}

/// How one [`Replay::event`] call left its worker.
enum Replayed {
    /// The worker's stream ended; its clock is its end time.
    Exited,
    /// The event replayed in full; the next one is pending.
    Completed,
    /// A hit run reached the horizon; it resumes at this global time.
    Yielded(Cycles),
}

/// The event replay both selection rules share: every shared-directory
/// access, busy-window wait, settling update and observer callback of the
/// ordered residue happens here, whichever worker the merge picks next.
struct Replay<'a> {
    directory: &'a mut Directory,
    observer: &'a mut dyn ExecObserver,
    settle: Settle,
    phase_index: u32,
    l1_cost: Cycles,
    line_size: u64,
    merged: u64,
    folded: u64,
    surfaced: u64,
}

impl<'a> Replay<'a> {
    fn new(
        config: &MachineConfig,
        directory: &'a mut Directory,
        observer: &'a mut dyn ExecObserver,
        plans: &[WorkerPlan],
        phase_index: u32,
    ) -> Replay<'a> {
        Replay {
            directory,
            observer,
            settle: Settle::new(plans),
            phase_index,
            l1_cost: config.latency.l1_hit,
            line_size: config.cache_line_size,
            merged: 0,
            folded: 0,
            surfaced: 0,
        }
    }

    /// Replays `w`'s pending event. A hit run walked read by read yields
    /// once a later read would start at or after `horizon`; without a
    /// horizon it replays whole.
    #[inline]
    fn event(&mut self, w: &mut MergeWorker<'_>, horizon: Option<Cycles>) -> Replayed {
        let ev = w.pending.take().expect("live worker has a pending event");
        match &ev.kind {
            EvKind::Exit => {
                w.clock += ev.lead;
                self.observer.on_thread_exit(w.id, w.clock);
                return Replayed::Exited;
            }
            EvKind::Dir {
                addr,
                kind,
                sequential,
                settles,
                surfaced,
            } => {
                self.merged += 1;
                w.clock += ev.lead;
                let line = addr.line(self.line_size);
                let result =
                    self.directory
                        .access_hinted(w.core, line, *kind, w.clock, *sequential);
                let latency_cycles = result.latency();
                // An unsurfaced access's perturbation is in the next lead.
                let perturb = if *surfaced {
                    self.surfaced += 1;
                    let side = w.next_surfaced();
                    self.surface(w, *addr, *kind, result.outcome, latency_cycles, side)
                } else {
                    0
                };
                w.clock += latency_cycles + perturb;
                if *settles {
                    self.settle
                        .merge_first_touch(self.directory, line, *sequential);
                }
            }
            EvKind::SharedHit { addr } => {
                self.merged += 1;
                self.surfaced += 1;
                w.clock += ev.lead;
                let wait = self.directory.busy_wait(addr.line(self.line_size), w.clock);
                self.directory
                    .record_precomputed(AccessOutcome::L1Hit, wait);
                let latency_cycles = wait + self.l1_cost;
                let side = w.next_surfaced();
                let perturb = self.surface(
                    w,
                    *addr,
                    AccessKind::Read,
                    AccessOutcome::L1Hit,
                    latency_cycles,
                    side,
                );
                w.clock += latency_cycles + perturb;
            }
            EvKind::HitRun {
                min_line,
                reads,
                span,
            } => {
                let reads = &w.hit_reads[w.run_start..w.run_start + *reads as usize];
                let mut cursor = w.run_cursor;
                if cursor == 0 {
                    w.clock += ev.lead;
                }
                // Walk read by read against the real busy windows while
                // any line in the span could still be occupied, folding
                // the remainder the moment it settles. The first read of
                // this visit is unconditional (the worker was selected for
                // it); later ones yield at the horizon.
                let mut first = true;
                while cursor < reads.len() {
                    let start = w.clock + run_lead_at(reads, cursor);
                    if self
                        .settle
                        .run_foldable(self.directory, *min_line, *span, start)
                    {
                        // Settled: no read can wait, nothing global is
                        // touched — fold the rest atomically.
                        let n = (reads.len() - cursor) as u64;
                        let prefix = if cursor == 0 {
                            0
                        } else {
                            reads[cursor - 1].cum_lead
                        };
                        let total = reads[reads.len() - 1].cum_lead;
                        w.clock += (total - prefix) + n * self.l1_cost;
                        self.directory.record_hit_batch(n);
                        self.folded += n;
                        break;
                    }
                    if !first && horizon.is_some_and(|h| start >= h) {
                        w.run_cursor = cursor;
                        w.pending = Some(ev);
                        return Replayed::Yielded(start);
                    }
                    first = false;
                    self.merged += 1;
                    w.clock = start;
                    let line = reads[cursor].addr.line(self.line_size);
                    let wait = self.directory.busy_wait(line, w.clock);
                    self.directory
                        .record_precomputed(AccessOutcome::L1Hit, wait);
                    w.clock += wait + self.l1_cost;
                    cursor += 1;
                }
                w.run_start += reads.len();
                w.run_cursor = 0;
            }
            EvKind::Private {
                addr,
                kind,
                outcome,
            } => {
                self.merged += 1;
                self.surfaced += 1;
                w.clock += ev.lead;
                // Stats were already counted by the precompute pass.
                let side = w.next_surfaced();
                let perturb = self.surface(w, *addr, *kind, *outcome, side.cost, side);
                w.clock += side.cost + perturb;
            }
        }
        w.pending = Some(w.events.next().expect("Exit terminates the stream"));
        Replayed::Completed
    }

    /// Builds the access record and invokes the observer for a surfaced
    /// access; returns the perturbation to charge (the replica's when one
    /// was forked, otherwise the observer's).
    fn surface(
        &mut self,
        w: &MergeWorker<'_>,
        addr: Addr,
        kind: AccessKind,
        outcome: AccessOutcome,
        latency: Cycles,
        side: Surfaced,
    ) -> Cycles {
        let verdict = Verdict {
            perturbation: side.perturbation,
            surfaced: true,
        };
        verdict.charge(self.observer, || AccessRecord {
            thread: w.id,
            core: w.core,
            addr,
            kind,
            outcome,
            latency,
            start: w.clock,
            instrs_before: side.instrs_before,
            phase_index: self.phase_index,
            phase_kind: PhaseKind::Parallel,
        })
    }
}

/// Merges the precomputed event streams, performing every shared-directory
/// access and observer callback through one [`Replay`]; returns each
/// worker's end time. `policy` only decides which worker goes next:
///
/// * [`SchedulePolicy::Observed`] pops a min-heap keyed by
///   `(next event time, slot)` — the classic loop's heap order with FIFO
///   events per worker — and replays the popped worker's events in a
///   burst while no other worker could have an earlier one.
/// * A perturbed policy draws one live worker per step from a generator
///   seeded by the policy seed and phase index and replays its next event
///   whole. Per-worker program order holds by construction; the directory
///   sees the residue in selection order, so a write-shared line the
///   observed timing kept apart is driven through the ping-pong a
///   different scheduler could have produced. Busy-window waits saturate
///   at the worker's own (possibly earlier) clock, so non-monotonic
///   arrival times are safe, and the selections are a pure function of
///   the seed and the plans — identical at every shard count.
fn merge(
    mut replay: Replay<'_>,
    workers: &[ThreadCtx],
    plans: &[WorkerPlan],
    policy: SchedulePolicy,
    counters: &SimCounters,
    span: &mut cheetah_obs::SpanGuard,
) -> Vec<Cycles> {
    let mut merge_workers: Vec<MergeWorker<'_>> = workers
        .iter()
        .zip(plans)
        .map(|(ctx, plan)| {
            let mut events = plan.events.iter();
            let pending = events.next();
            MergeWorker {
                id: ctx.id,
                core: ctx.core,
                clock: ctx.clock,
                events,
                surfaced: plan.surfaced.iter(),
                hit_reads: &plan.hit_reads,
                pending,
                run_start: 0,
                run_cursor: 0,
            }
        })
        .collect();

    let schedule = match policy {
        SchedulePolicy::Observed => {
            let mut heap: BinaryHeap<Reverse<(Cycles, usize)>> = merge_workers
                .iter()
                .enumerate()
                .map(|(slot, w)| Reverse((w.next_time(), slot)))
                .collect();
            while let Some(Reverse((_, slot))) = heap.pop() {
                // Replay this worker's events while no other worker could
                // possibly have an earlier one (the classic loop's burst,
                // in event units).
                let horizon = heap.peek().map(|Reverse((t, _))| *t);
                let w = &mut merge_workers[slot];
                loop {
                    match replay.event(w, horizon) {
                        Replayed::Exited => break,
                        Replayed::Yielded(at) => {
                            heap.push(Reverse((at, slot)));
                            break;
                        }
                        Replayed::Completed => {
                            let next_time = w.next_time();
                            if horizon.is_some_and(|h| next_time >= h) {
                                heap.push(Reverse((next_time, slot)));
                                break;
                            }
                        }
                    }
                }
            }
            None
        }
        SchedulePolicy::SeededShuffle { seed } | SchedulePolicy::ContentionMax { seed } => {
            span.attr_str("policy", policy.to_string());
            span.attr_u64("seed", seed);
            let contend = matches!(policy, SchedulePolicy::ContentionMax { .. });
            let mut rng = ScheduleRng::for_phase(seed, replay.phase_index);
            let (mut selections, mut reordered) = (0u64, 0u64);
            // Last core to *merge* a write per line — the contention
            // heuristic's view of who owns each line right now.
            let mut last_writer: FastMap<CacheLineId, CoreId> = FastMap::default();
            let mut live: Vec<usize> = (0..merge_workers.len()).collect();
            while !live.is_empty() {
                // The contention heuristic prefers directory writes that
                // land on a line a *different* core wrote last (each such
                // merge is an invalidation); the shuffle — and the
                // heuristic's fallback — draws uniformly among live
                // workers.
                let choice = if live.len() == 1 {
                    0
                } else if contend {
                    let contending: Vec<usize> = (0..live.len())
                        .filter(|&i| {
                            let w = &merge_workers[live[i]];
                            w.pending_write(replay.line_size).is_some_and(|line| {
                                last_writer.get(&line).is_some_and(|&owner| owner != w.core)
                            })
                        })
                        .collect();
                    if contending.is_empty() {
                        rng.pick(live.len())
                    } else {
                        contending[rng.pick(contending.len())]
                    }
                } else {
                    rng.pick(live.len())
                };
                let slot = live[choice];
                selections += 1;
                let earliest = live
                    .iter()
                    .map(|&s| merge_workers[s].next_time())
                    .min()
                    .expect("live set is nonempty");
                let w = &mut merge_workers[slot];
                if w.next_time() > earliest {
                    reordered += 1;
                }
                if contend {
                    if let Some(line) = w.pending_write(replay.line_size) {
                        last_writer.insert(line, w.core);
                    }
                }
                if let Replayed::Exited = replay.event(w, None) {
                    live.swap_remove(choice);
                }
            }
            Some((selections, reordered))
        }
    };

    counters.count_merged(replay.merged);
    counters.count_folded(replay.folded);
    counters.count_surfaced(replay.surfaced);
    span.attr_u64("merged", replay.merged);
    span.attr_u64("folded", replay.folded);
    span.attr_u64("surfaced", replay.surfaced);
    if let Some((selections, reordered)) = schedule {
        counters.count_schedule(selections, reordered);
        span.attr_u64("selections", selections);
        span.attr_u64("reordered", reordered);
    }
    merge_workers.iter().map(|w| w.clock).collect()
}

/// Applies `f` to every item on the calling thread and up to
/// `threads - 1` scoped helper threads, preserving index order. Items are
/// distributed round-robin over `min(threads, items)` buckets; bucket 0
/// runs on the calling thread, as a fork-join fork usually does, so one
/// thread is the same code with no helper. The result is independent of
/// the distribution because `f` is pure per item.
fn parallel_map<T: Send, R: Send>(
    items: Vec<T>,
    threads: usize,
    f: &(dyn Fn(usize, T) -> R + Sync),
) -> Vec<R> {
    let count = items.len();
    let threads = threads.min(count).max(1);
    let mut buckets: Vec<Vec<(usize, T)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % threads].push((i, item));
    }
    let run = &|bucket: Vec<(usize, T)>| -> Vec<(usize, R)> {
        bucket
            .into_iter()
            .map(|(i, item)| (i, f(i, item)))
            .collect()
    };
    let mut out: Vec<Option<R>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut buckets = buckets.into_iter();
        let own = buckets.next().expect("at least one bucket");
        let helpers: Vec<_> = buckets
            .map(|bucket| scope.spawn(move || run(bucket)))
            .collect();
        let helped = helpers
            .into_iter()
            .flat_map(|helper| helper.join().expect("shard host thread panicked"));
        for (i, result) in run(own).into_iter().chain(helped) {
            out[i] = Some(result);
        }
    });
    out.into_iter()
        .map(|r| r.expect("every index produced"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Merged events are the engine's memory high-water mark.
    #[test]
    fn event_fits_in_32_bytes() {
        assert!(std::mem::size_of::<Ev>() <= 32);
    }

    /// Every item runs exactly once and its result lands at its index,
    /// whatever the thread and item counts.
    #[test]
    fn parallel_map_keeps_index_order_and_runs_each_item_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in 1..=4 {
            for items in [0usize, 1, 2, 5] {
                let runs: Vec<AtomicUsize> = (0..items).map(|_| AtomicUsize::new(0)).collect();
                let inputs: Vec<usize> = (0..items).map(|i| 10 * i).collect();
                let out = parallel_map(inputs, threads, &|i, item| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    (i, item + 1)
                });
                let expected: Vec<_> = (0..items).map(|i| (i, 10 * i + 1)).collect();
                assert_eq!(out, expected, "{threads} threads, {items} items");
                assert!(runs.iter().all(|n| n.load(Ordering::Relaxed) == 1));
            }
        }
    }

    /// Item 0 runs on the calling thread, and at most `threads - 1` other
    /// threads take part.
    #[test]
    fn parallel_map_runs_item_zero_on_the_caller() {
        let caller = std::thread::current().id();
        for threads in 1..=4 {
            let ids = parallel_map((0..7).collect(), threads, &|_, _: i32| {
                std::thread::current().id()
            });
            assert_eq!(ids[0], caller, "{threads} threads");
            let others: std::collections::HashSet<_> =
                ids.iter().filter(|&&id| id != caller).collect();
            assert!(others.len() < threads, "{threads} threads: {others:?}");
        }
    }
}
