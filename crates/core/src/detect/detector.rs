//! The false-sharing detector: from samples to per-object sharing state.
//!
//! This is the "FS detection" box of the paper's Fig. 2. Each incoming
//! [`Sample`] is resolved through the shadow map to its cache line, runs the
//! write-count pre-filter, updates the two-entry invalidation table and the
//! word map, and is attributed to its heap object or global symbol. Detail
//! is recorded only inside parallel phases, so initialisation writes by the
//! main thread cannot masquerade as sharing (§2.4); serial-phase samples
//! instead feed the `AverCycles_serial` estimate the assessment needs.

use crate::config::DetectorConfig;
use crate::detect::line_state::{LineDetail, LineSlot, SideTable, StagedSample};
use crate::detect::lines::LineAccum;
use crate::detect::sketch::CountMinSketch;
use cheetah_heap::{AddressSpace, Location, ShadowMap};
use cheetah_pmu::Sample;
use cheetah_sim::util::{FastMap, FastSet};
use cheetah_sim::{AccessKind, CacheLineId, Cycles, ThreadId};

// Registry names under which [`crate::CheetahProfiler`] publishes the
// detector's final counts when a run ends.

/// Counter name for samples fed into [`Detector::ingest`].
pub const OBS_SAMPLES_INGESTED: &str = "detect.samples_ingested";
/// Gauge name for the object-accumulator table size.
pub const OBS_OBJECT_TABLE: &str = "detect.object_table_entries";
/// Gauge name for the per-line accumulator table size.
pub const OBS_LINE_TABLE: &str = "detect.line_table_entries";
/// Counter name for parallel-phase samples skipped by the static line
/// pre-filter ([`crate::LinePrefilter`]).
pub const OBS_SAMPLES_PREFILTERED: &str = "detect.samples_prefiltered";
/// Counter name for samples rejected by ingest validation
/// ([`crate::config::IngestLimits`]).
pub const OBS_SAMPLES_QUARANTINED: &str = "detect.samples_quarantined";
/// Counter name for detailed lines evicted under the line-table bound.
pub const OBS_LINES_EVICTED: &str = "detect.lines_evicted";
/// Counter name for lines re-promoted to detailed tracking out of the
/// eviction sketch.
pub const OBS_LINES_REPROMOTED: &str = "detect.lines_repromoted";
/// Counter name for detail admissions denied because the resident table
/// was hotter than the challenger.
pub const OBS_LINES_DENIED: &str = "detect.lines_denied";
/// Counter name for objects evicted under the object-table bound.
pub const OBS_OBJECTS_EVICTED: &str = "detect.objects_evicted";
/// Gauge name for the bytes of per-line detector state: dense shadow
/// pages plus side-table entries.
pub const OBS_SHADOW_BYTES: &str = "detect.shadow_bytes";

/// What [`Detector::ingest`] did with a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The sample passed validation (it may still have been filtered,
    /// pre-filtered, or staged — those are accounting categories, not
    /// rejections).
    Accepted,
    /// The sample failed a plausibility bound and touched no detector
    /// state beyond the quarantine counters. Callers keeping their own
    /// per-sample accounting (e.g. the profiler's per-thread totals)
    /// should skip it too.
    Quarantined,
}

/// Per-field tallies of quarantined samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuarantineCounts {
    /// Samples whose latency exceeded `max_latency`.
    pub bad_latency: u64,
    /// Samples whose thread id exceeded `max_thread`.
    pub bad_thread: u64,
    /// Samples whose phase index exceeded `max_phase`.
    pub bad_phase: u64,
}

impl QuarantineCounts {
    /// Total quarantined samples. Fields are checked in declaration order
    /// and a sample is counted against the first bound it breaks, so the
    /// per-field tallies sum exactly to this.
    pub fn total(&self) -> u64 {
        self.bad_latency + self.bad_thread + self.bad_phase
    }
}

/// Hygiene and bounded-memory statistics of one detector run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Samples rejected by validation, by field.
    pub quarantined: QuarantineCounts,
    /// Detailed lines evicted under the line-table bound.
    pub line_evictions: u64,
    /// Evicted lines re-promoted to detailed tracking via the sketch.
    pub line_repromotions: u64,
    /// Detail admissions denied because every resident line was hotter
    /// than the challenger (the anti-thrash admission filter).
    pub line_denials: u64,
    /// Objects evicted under the object-table bound.
    pub object_evictions: u64,
    /// Lines currently under detailed tracking.
    pub detailed_lines: u64,
    /// Most lines ever under detailed tracking at once — the working-set
    /// measure capacity experiments derive their bounds from.
    pub peak_detailed_lines: u64,
}

/// Weight of one detected invalidation in admission-control scores,
/// relative to one raw write. Contention is the signal the detector
/// exists to find: a falsely-shared line producing invalidations must be
/// able to out-bid a private line that is merely write-hot for the last
/// detail slot, both when challenging (coarse-layer invalidations feed
/// the challenger score) and when resident (invalidations recorded in
/// detail feed the line's heat).
const CONTENTION_WEIGHT: u64 = 16;

/// Denials between heat-aging rounds. Every this-many denied admissions,
/// all resident heats halve. Challenger scores (writes, sketch credit,
/// coarse invalidations) are monotone while resident heat decays, so even
/// a challenger contended exactly as hard as every resident overtakes
/// them eventually — the admission filter dampens thrash, it cannot
/// starve a persistent line.
const AGING_PERIOD: u64 = 64;

/// Bookkeeping of the bounded detailed-line table: which lines hold detail
/// slots, how warm each has been, and the sketch remembering evictees.
#[derive(Debug)]
struct LineBound {
    capacity: usize,
    sketch: CountMinSketch,
    /// Tracked lines in admission order (the eviction tie-break).
    tracked: Vec<CacheLineId>,
    /// Detailed samples per tracked line, halved at every eviction so
    /// stale heat cannot squat on a slot forever.
    heat: FastMap<CacheLineId, u64>,
    evictions: u64,
    repromotions: u64,
    denials: u64,
}

/// The stageable record of one parallel-phase sample.
fn staged_sample(sample: &Sample) -> StagedSample {
    StagedSample {
        thread: sample.thread,
        addr: sample.addr,
        kind: sample.kind,
        latency: sample.latency,
        phase: sample.phase_index,
    }
}

/// Identity of a monitored data object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjectKey {
    /// A heap allocation.
    Heap(cheetah_heap::ObjectId),
    /// A registered global (index into the registry).
    Global(usize),
}

/// Per-thread counters on one object (`Accesses_O` / `Cycles_O` split by
/// thread, as Eq. 2 of the paper requires).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreadOnObject {
    /// Sampled accesses by the thread on the object.
    pub accesses: u64,
    /// Their total latency in cycles.
    pub cycles: Cycles,
}

impl ThreadOnObject {
    fn add(&mut self, latency: Cycles) {
        self.accesses = self.accesses.saturating_add(1);
        self.cycles = self.cycles.saturating_add(latency);
    }
}

/// Accumulated sharing state of one object.
#[derive(Debug, Clone)]
pub struct ObjectAccum {
    /// Which object this is.
    pub key: ObjectKey,
    /// Sampled reads recorded in detail.
    pub reads: u64,
    /// Sampled writes recorded in detail.
    pub writes: u64,
    /// Sampled invalidations attributed to writes on this object.
    pub invalidations: u64,
    /// Total sampled latency on the object.
    pub latency: Cycles,
    /// Per-(thread, phase) breakdown — the `Cycles_O(t)` slices the
    /// assessment subtracts from each phase's `Cycles_t` (a thread active
    /// in two parallel phases must not have its whole-run object cycles
    /// charged against both).
    per_thread_phase: FastMap<(ThreadId, u32), ThreadOnObject>,
    thread_phase_order: Vec<(ThreadId, u32)>,
    /// Whole-run per-thread totals, updated with the slices by the same
    /// saturating adds.
    per_thread: FastMap<ThreadId, ThreadOnObject>,
    thread_order: Vec<ThreadId>,
    /// Cache lines of this object that reached detailed tracking.
    lines: FastSet<CacheLineId>,
    line_order: Vec<CacheLineId>,
}

impl ObjectAccum {
    fn new(key: ObjectKey) -> Self {
        ObjectAccum {
            key,
            reads: 0,
            writes: 0,
            invalidations: 0,
            latency: 0,
            per_thread_phase: FastMap::default(),
            thread_phase_order: Vec::new(),
            per_thread: FastMap::default(),
            thread_order: Vec::new(),
            lines: FastSet::default(),
            line_order: Vec::new(),
        }
    }

    fn record(
        &mut self,
        thread: ThreadId,
        phase: u32,
        kind: AccessKind,
        latency: Cycles,
        invalidation: bool,
        line: CacheLineId,
    ) {
        // Saturating throughout: like `LineSlot::record_write`, a counter
        // on a pathological (or fault-injected) stream must pin at its
        // ceiling, never wrap back toward zero and shrink a finding.
        match kind {
            AccessKind::Read => self.reads = self.reads.saturating_add(1),
            AccessKind::Write => self.writes = self.writes.saturating_add(1),
        }
        if invalidation {
            self.invalidations = self.invalidations.saturating_add(1);
        }
        self.latency = self.latency.saturating_add(latency);
        let slice = self
            .per_thread_phase
            .entry((thread, phase))
            .or_insert_with(|| {
                self.thread_phase_order.push((thread, phase));
                ThreadOnObject::default()
            });
        slice.add(latency);
        self.per_thread
            .entry(thread)
            .or_insert_with(|| {
                self.thread_order.push(thread);
                ThreadOnObject::default()
            })
            .add(latency);
        if self.lines.insert(line) {
            self.line_order.push(line);
        }
    }

    /// Total sampled accesses on the object.
    pub fn accesses(&self) -> u64 {
        self.reads.saturating_add(self.writes)
    }

    /// Per-thread counters in first-touch order, summed over phases.
    pub fn threads(&self) -> impl Iterator<Item = (ThreadId, ThreadOnObject)> + '_ {
        self.thread_order
            .iter()
            .map(move |thread| (*thread, self.per_thread[thread]))
    }

    /// Counters of a single thread, summed over phases.
    pub fn thread(&self, thread: ThreadId) -> Option<ThreadOnObject> {
        self.per_thread.get(&thread).copied()
    }

    /// Per-(thread, phase) counters in first-touch order.
    pub fn thread_phases(&self) -> impl Iterator<Item = ((ThreadId, u32), ThreadOnObject)> + '_ {
        self.thread_phase_order
            .iter()
            .map(move |key| (*key, self.per_thread_phase[key]))
    }

    /// Counters of one thread within one phase.
    pub fn thread_in_phase(&self, thread: ThreadId, phase: u32) -> Option<ThreadOnObject> {
        self.per_thread_phase.get(&(thread, phase)).copied()
    }

    /// Cache lines of the object that reached detailed tracking, in
    /// first-touch order.
    pub fn lines(&self) -> &[CacheLineId] {
        &self.line_order
    }
}

/// The sample-driven detector.
///
/// ```
/// use cheetah_core::{Detector, DetectorConfig};
/// use cheetah_heap::{AddressSpace, CallStack};
/// use cheetah_pmu::Sample;
/// use cheetah_sim::{AccessKind, PhaseKind, ThreadId};
///
/// let mut space = AddressSpace::new();
/// let addr = space.heap_mut().alloc(ThreadId(0), 64, CallStack::unknown())?;
/// let mut detector = Detector::new(DetectorConfig::default());
/// // Two threads write adjacent words of the allocation, repeatedly.
/// for i in 0..100u64 {
///     for (t, off) in [(1u32, 0u64), (2, 4)] {
///         detector.ingest(&space, &Sample {
///             thread: ThreadId(t),
///             addr: addr.offset(off),
///             kind: AccessKind::Write,
///             latency: 150,
///             time: i,
///             phase_index: 1,
///             phase_kind: PhaseKind::Parallel,
///         });
///     }
/// }
/// let accum = detector.objects().next().unwrap();
/// assert!(accum.invalidations > 100);
/// # Ok::<(), cheetah_heap::HeapError>(())
/// ```
#[derive(Debug)]
pub struct Detector {
    config: DetectorConfig,
    /// Dense 8-byte slot per sampled line: the pre-filter write count and
    /// a handle into `side`.
    shadow: ShadowMap<LineSlot>,
    /// Staged samples, detail and coarse tables of the few lines that
    /// have them.
    side: SideTable,
    objects: FastMap<ObjectKey, ObjectAccum>,
    object_order: Vec<ObjectKey>,
    lines: FastMap<CacheLineId, LineAccum>,
    total_samples: u64,
    filtered_samples: u64,
    unattributed_samples: u64,
    /// Histogram of serial-phase sampled latencies (latency -> count):
    /// bounded by the machine's handful of distinct latency costs, unlike
    /// storing every sample.
    serial_latencies: FastMap<Cycles, u64>,
    serial_samples: u64,
    prefiltered_samples: u64,
    quarantine: QuarantineCounts,
    /// Present when `config.line_capacity` bounds the detailed-line table.
    bound: Option<LineBound>,
    object_evictions: u64,
    detailed_lines: u64,
    peak_detailed_lines: u64,
}

impl Detector {
    /// Creates a detector.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`DetectorConfig::validate`]).
    pub fn new(config: DetectorConfig) -> Self {
        config.validate();
        let line_size = config.line_size;
        let bound = config.line_capacity.map(|capacity| LineBound {
            capacity,
            sketch: CountMinSketch::with_capacity(capacity),
            tracked: Vec::new(),
            heat: FastMap::default(),
            evictions: 0,
            repromotions: 0,
            denials: 0,
        });
        Detector {
            config,
            shadow: ShadowMap::new(line_size),
            side: SideTable::default(),
            objects: FastMap::default(),
            object_order: Vec::new(),
            lines: FastMap::default(),
            total_samples: 0,
            filtered_samples: 0,
            unattributed_samples: 0,
            serial_latencies: FastMap::default(),
            serial_samples: 0,
            prefiltered_samples: 0,
            quarantine: QuarantineCounts::default(),
            bound,
            object_evictions: 0,
            detailed_lines: 0,
            peak_detailed_lines: 0,
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Feeds one sample, resolving object attribution against `space`.
    ///
    /// Returns [`IngestOutcome::Quarantined`] when the sample failed a
    /// plausibility bound ([`crate::config::IngestLimits`]) and was counted
    /// but otherwise ignored; callers with their own per-sample accounting
    /// should skip such samples too.
    pub fn ingest(&mut self, space: &AddressSpace, sample: &Sample) -> IngestOutcome {
        self.total_samples += 1;
        // Hygiene gate: a malformed sample (torn PMU record, injected
        // corruption) is counted into quarantine *before* it can allocate
        // state, skew a latency histogram, or invent a thread. Bounds are
        // checked in field order and the sample is charged to the first
        // bound it breaks, so per-field tallies are exact. A corrupt
        // address needs no bound of its own: the segment filter below
        // already rejects addresses outside monitored memory.
        let limits = self.config.limits;
        if sample.latency > limits.max_latency {
            self.quarantine.bad_latency += 1;
            return IngestOutcome::Quarantined;
        }
        if sample.thread.0 > limits.max_thread {
            self.quarantine.bad_thread += 1;
            return IngestOutcome::Quarantined;
        }
        if sample.phase_index > limits.max_phase {
            self.quarantine.bad_phase += 1;
            return IngestOutcome::Quarantined;
        }
        let line = sample.addr.line(self.config.line_size);
        // Static pre-filter: parallel-phase samples on lines the static
        // analysis proved private are dropped before any shadow state is
        // allocated — the line can never invalidate, so tracking it only
        // grows the tables. Serial samples pass through: they feed the
        // latency baseline regardless of the line's sharing class.
        if sample.in_parallel_phase()
            && !self.config.prefilter.is_empty()
            && self.config.prefilter.contains(line)
        {
            self.prefiltered_samples += 1;
            return IngestOutcome::Accepted;
        }
        // Sketch memory: an evicted line's earlier writes live on in the
        // count-min sketch, so its estimate counts toward the threshold
        // and a line that heats back up re-promotes instead of re-serving
        // the full pre-filter apprenticeship. Unbounded detectors have no
        // sketch and `remembered` is always zero — bit-identical to the
        // pre-bound behaviour.
        let remembered = self
            .bound
            .as_ref()
            .map_or(0, |bound| bound.sketch.estimate(line));
        let threshold = self.config.write_threshold;
        let line_size = self.config.line_size;
        let needs_admission;
        {
            let Some(slot) = self.shadow.get_mut_or_default(line) else {
                // Stack / kernel / library address: the driver filters these.
                self.filtered_samples += 1;
                return IngestOutcome::Accepted;
            };
            if sample.kind.is_write() {
                slot.record_write();
            }
            if !sample.in_parallel_phase() {
                // Serial-phase samples only contribute the no-false-sharing
                // latency baseline.
                *self.serial_latencies.entry(sample.latency).or_insert(0) += 1;
                self.serial_samples += 1;
                return IngestOutcome::Accepted;
            }
            let detailed = self
                .side
                .get(slot)
                .is_some_and(|rare| rare.detail.is_some());
            if !detailed && !slot.is_hot(threshold, remembered) {
                // Pre-filter: the line is still cold. Stage (not drop) the
                // sample so that, if the line does go hot, the accounting is
                // not short exactly the samples that made it hot — a loss the
                // assessment would amplify by the sampling rate.
                self.side
                    .get_or_insert(slot)
                    .stage(staged_sample(sample), threshold);
                return IngestOutcome::Accepted;
            }
            needs_admission = !detailed;
        }
        // The shadow borrow is released: admission may evict another
        // line's shadow slot, which needs the map again.
        if needs_admission && !self.admit_line(line) {
            // Admission denied: every resident is hotter. Degrade to
            // the coarse layer instead of losing the sample — the line's
            // coarse two-entry table keeps invalidation detection alive,
            // and the object accumulator (whose memory is bounded
            // separately) keeps the evidence the assessment needs. Only
            // word-granularity detail is sacrificed. Each coarse
            // invalidation raises the line's admission bid by
            // CONTENTION_WEIGHT, so a contended line climbs past
            // write-hot private residents instead of starving.
            let invalidation = match self.shadow.get_mut_or_default(line) {
                Some(slot) => self
                    .side
                    .get_or_insert(slot)
                    .record_coarse(sample.thread, sample.kind),
                None => false,
            };
            Self::record_object(
                &mut self.objects,
                &mut self.object_order,
                &mut self.lines,
                &mut self.unattributed_samples,
                self.config.object_capacity,
                &mut self.object_evictions,
                space,
                line,
                &staged_sample(sample),
                invalidation,
            );
            return IngestOutcome::Accepted;
        }
        let Some(slot) = self.shadow.get_mut_or_default(line) else {
            // Unreachable — the same line resolved above — but a resolver
            // desync must degrade to a filtered sample, not a panic.
            self.filtered_samples += 1;
            return IngestOutcome::Accepted;
        };
        // Activate directly rather than via the threshold re-check: a
        // sketch-re-promoted line is hot on remembered credit and may hold
        // fewer post-eviction writes than the raw threshold asks.
        let (staged, detail) = self.side.get_or_insert(slot).activate(line_size);
        let invalidations_before = detail.invalidations;
        for held in staged.iter().chain([&staged_sample(sample)]) {
            Self::record_detail(
                detail,
                &mut self.objects,
                &mut self.object_order,
                &mut self.lines,
                &mut self.unattributed_samples,
                self.config.object_capacity,
                &mut self.object_evictions,
                space,
                line,
                line_size,
                held,
            );
        }
        // Heat growth is contention-weighted: a resident line earns 1 per
        // detailed sample plus CONTENTION_WEIGHT per invalidation it just
        // produced, so a falsely-shared resident resists eviction by
        // private lines that are merely write-hot. Unbounded detectors
        // keep no heat map and skip this entirely.
        let contention = detail.invalidations - invalidations_before;
        if let Some(bound) = &mut self.bound {
            if let Some(heat) = bound.heat.get_mut(&line) {
                *heat = heat.saturating_add(1 + CONTENTION_WEIGHT * contention);
            }
        }
        IngestOutcome::Accepted
    }

    /// Admits `line` into the detailed table, evicting the coldest
    /// resident when the table is full — but only if the challenger's
    /// score (pre-filter writes, remembered sketch credit, and
    /// contention-weighted coarse-layer invalidations) beats that
    /// resident's heat (TinyLFU-style admission control). Denial is
    /// starvation-free: a denied line's score keeps growing with every
    /// write — and by [`CONTENTION_WEIGHT`] per coarse invalidation —
    /// while resident heat decays every [`AGING_PERIOD`] denials, so a
    /// persistent line eventually wins a slot even from an incumbent
    /// contended exactly as hard. Returns whether the line was admitted.
    fn admit_line(&mut self, line: CacheLineId) -> bool {
        if let Some(mut bound) = self.bound.take() {
            let credit = u64::from(bound.sketch.estimate(line));
            if bound.tracked.len() >= bound.capacity {
                let challenger = credit
                    + self.shadow.get(line).map_or(0, |slot| {
                        let coarse = self
                            .side
                            .get(slot)
                            .map_or(0, |rare| rare.coarse_invalidations);
                        u64::from(slot.writes) + CONTENTION_WEIGHT * u64::from(coarse)
                    });
                let coldest = bound
                    .tracked
                    .iter()
                    .map(|resident| bound.heat.get(resident).copied().unwrap_or(0))
                    .min()
                    .unwrap_or(0);
                if challenger <= coldest {
                    bound.denials += 1;
                    // Age resident heat on a denial cadence: decay is what
                    // lets an equally-contended challenger eventually win
                    // a slot from an equally-contended incumbent.
                    if bound.denials % AGING_PERIOD == 0 {
                        for heat in bound.heat.values_mut() {
                            *heat /= 2;
                        }
                    }
                    self.bound = Some(bound);
                    return false;
                }
                self.evict_coldest(&mut bound);
            }
            if credit > 0 {
                bound.repromotions += 1;
            }
            // Sketch credit seeds the heat: a re-promoted hot line must
            // not re-enter as the coldest resident and thrash straight
            // back out.
            bound.tracked.push(line);
            bound.heat.insert(line, 1 + credit);
            self.bound = Some(bound);
        }
        self.detailed_lines += 1;
        self.peak_detailed_lines = self.peak_detailed_lines.max(self.detailed_lines);
        true
    }

    /// Evicts the minimum-heat tracked line (admission order breaks ties,
    /// deterministically): its write count folds into the sketch and its
    /// shadow slot resets to cold. The line's co-residency accumulator is
    /// deliberately kept — it belongs to the coarse always-on layer the
    /// assessment draws relief credits from, and dropping it with the
    /// detail slot would zero a finding's payoff under churn. Remaining
    /// heats are halved so long-stale heat cannot hold a slot against
    /// current traffic.
    fn evict_coldest(&mut self, bound: &mut LineBound) {
        let mut victim_index = 0;
        let mut victim_heat = u64::MAX;
        for (index, candidate) in bound.tracked.iter().enumerate() {
            let heat = bound.heat.get(candidate).copied().unwrap_or(0);
            if heat < victim_heat {
                victim_heat = heat;
                victim_index = index;
            }
        }
        let victim = bound.tracked.remove(victim_index);
        bound.heat.remove(&victim);
        if let Some(slot) = self.shadow.get_mut_or_default(victim) {
            // Fold contention alongside writes: a contended victim's
            // invalidations (detail-detected plus any earlier coarse ones)
            // inflate its sketch credit so it re-promotes cheaply and
            // re-enters with heat instead of thrashing at the bottom.
            let contention = self.side.get(slot).map_or(0, |rare| {
                rare.detail
                    .as_ref()
                    .map_or(0, |detail| detail.invalidations)
                    .saturating_add(u64::from(rare.coarse_invalidations))
            });
            let fold = u64::from(slot.writes)
                .saturating_add(CONTENTION_WEIGHT * contention)
                .min(u64::from(u32::MAX)) as u32;
            bound.sketch.add(victim, fold);
            self.side.release(slot);
        }
        self.detailed_lines = self.detailed_lines.saturating_sub(1);
        bound.evictions += 1;
        for heat in bound.heat.values_mut() {
            *heat /= 2;
        }
    }

    /// Records one (possibly replayed) parallel-phase sample into the
    /// line's detail state and its object's accumulator.
    #[allow(clippy::too_many_arguments)]
    fn record_detail(
        detail: &mut LineDetail,
        objects: &mut FastMap<ObjectKey, ObjectAccum>,
        object_order: &mut Vec<ObjectKey>,
        lines: &mut FastMap<CacheLineId, LineAccum>,
        unattributed_samples: &mut u64,
        object_capacity: Option<usize>,
        object_evictions: &mut u64,
        space: &AddressSpace,
        line: CacheLineId,
        line_size: u64,
        sample: &StagedSample,
    ) {
        match sample.kind {
            AccessKind::Read => detail.reads = detail.reads.saturating_add(1),
            AccessKind::Write => detail.writes = detail.writes.saturating_add(1),
        }
        detail.latency = detail.latency.saturating_add(sample.latency);
        let word = sample.addr.word_in_line(line_size);
        detail.words.record(
            word,
            sample.thread,
            sample.phase,
            sample.kind,
            sample.latency,
        );
        let invalidation = match sample.kind {
            AccessKind::Read => {
                detail.table.record_read(sample.thread);
                false
            }
            AccessKind::Write => {
                detail.table.record_write(sample.thread)
                    == crate::detect::table::WriteOutcome::Invalidation
            }
        };
        if invalidation {
            detail.invalidations = detail.invalidations.saturating_add(1);
        }
        Self::record_object(
            objects,
            object_order,
            lines,
            unattributed_samples,
            object_capacity,
            object_evictions,
            space,
            line,
            sample,
            invalidation,
        );
    }

    /// Records one attributed sample into the object and line-co-residency
    /// accumulators — the coarse, always-on layer beneath the line detail.
    /// Under line-table pressure this is also fed directly by
    /// admission-denied samples, so an object's totals (and with them the
    /// assessment) stay honest even when its lines lose their detail
    /// slots.
    #[allow(clippy::too_many_arguments)]
    fn record_object(
        objects: &mut FastMap<ObjectKey, ObjectAccum>,
        object_order: &mut Vec<ObjectKey>,
        lines: &mut FastMap<CacheLineId, LineAccum>,
        unattributed_samples: &mut u64,
        object_capacity: Option<usize>,
        object_evictions: &mut u64,
        space: &AddressSpace,
        line: CacheLineId,
        sample: &StagedSample,
        invalidation: bool,
    ) {
        let key = match space.resolve(sample.addr) {
            Location::HeapObject(id) => ObjectKey::Heap(id),
            Location::Global(index) => ObjectKey::Global(index),
            Location::Unattributed(_) | Location::Unmonitored => {
                *unattributed_samples += 1;
                return;
            }
        };
        if !objects.contains_key(&key) {
            object_order.push(key);
        }
        objects
            .entry(key)
            .or_insert_with(|| ObjectAccum::new(key))
            .record(
                sample.thread,
                sample.phase,
                sample.kind,
                sample.latency,
                invalidation,
                line,
            );
        // Object-table bound: admitting past capacity evicts the resident
        // with the least accumulated latency — the one whose loss costs the
        // ranking least — never the newcomer (one sample of history is no
        // basis for judging it). First-touch order breaks ties, so the
        // choice is deterministic.
        if let Some(capacity) = object_capacity {
            if objects.len() > capacity {
                let mut victim: Option<(usize, Cycles)> = None;
                for (index, candidate) in object_order.iter().enumerate() {
                    if *candidate == key {
                        continue;
                    }
                    let latency = objects.get(candidate).map_or(0, |accum| accum.latency);
                    let colder = match victim {
                        None => true,
                        Some((_, best)) => latency < best,
                    };
                    if colder {
                        victim = Some((index, latency));
                    }
                }
                if let Some((index, _)) = victim {
                    let evicted = object_order.remove(index);
                    objects.remove(&evicted);
                    *object_evictions += 1;
                }
            }
        }
        // Co-residency: the same attributed sample, keyed by line — what
        // the line-level assessment credits when a repair frees the whole
        // line (see [`crate::detect::lines`]).
        lines
            .entry(line)
            .or_insert_with(|| LineAccum::new(line))
            .record(
                key,
                sample.thread,
                sample.phase,
                sample.kind,
                sample.latency,
            );
    }

    /// `AverCycles_serial`: the paper's serial-phase estimate of post-fix
    /// access cost, falling back to the configured default when no serial
    /// samples exist.
    ///
    /// The paper averages; this reproduction takes the *median* sampled
    /// latency. A short serial phase yields only a few dozen samples, and
    /// whether one of them lands on a cold miss is an accident of sampling
    /// alignment (layout fixes shift it between converge iterations, since
    /// relocated storage changes which initialisation accesses miss) — a
    /// single sampled 220-cycle miss among thirty 4-cycle hits triples the
    /// mean and with it every predicted post-fix cost. The median is
    /// immune to that tail while agreeing with the mean on steady-state
    /// serial traffic.
    pub fn aver_cycles_serial(&self) -> f64 {
        if self.serial_samples == 0 {
            return self.config.default_serial_latency;
        }
        let mut keys: Vec<Cycles> = self.serial_latencies.keys().copied().collect();
        keys.sort_unstable();
        // 0-indexed positions of the lower and upper medians; they
        // coincide for an odd count.
        let lower_index = (self.serial_samples - 1) / 2;
        let upper_index = self.serial_samples / 2;
        let (mut lower, mut upper) = (None, None);
        let mut seen = 0u64;
        for &latency in &keys {
            let count = self.serial_latencies[&latency];
            if lower.is_none() && seen + count > lower_index {
                lower = Some(latency);
            }
            if upper.is_none() && seen + count > upper_index {
                upper = Some(latency);
                break;
            }
            seen += count;
        }
        // The histogram invariant (counts sum to serial_samples) makes both
        // medians found by construction; if a desync ever broke it, fall
        // back to the configured default rather than panic mid-profile.
        match (lower, upper) {
            (Some(lower), Some(upper)) => (lower as f64 + upper as f64) / 2.0,
            _ => self.config.default_serial_latency,
        }
    }

    /// Per-object accumulators in first-touch order.
    pub fn objects(&self) -> impl Iterator<Item = &ObjectAccum> {
        self.object_order.iter().map(move |k| &self.objects[k])
    }

    /// Accumulator of one object.
    pub fn object(&self, key: ObjectKey) -> Option<&ObjectAccum> {
        self.objects.get(&key)
    }

    /// Word-level detail of one cache line, present while the line holds
    /// a detail slot (for classification passes).
    pub(crate) fn line_detail(&self, line: CacheLineId) -> Option<&LineDetail> {
        let slot = self.shadow.get(line)?;
        self.side.get(slot)?.detail.as_deref()
    }

    /// Bytes of per-line state: dense shadow pages plus side-table
    /// entries.
    pub(crate) fn shadow_bytes(&self) -> usize {
        self.shadow.shadow_bytes() + self.side.bytes()
    }

    /// Co-residency accumulator of one cache line (present once the line
    /// reached detailed tracking and received an attributed sample).
    pub fn line_accum(&self, line: CacheLineId) -> Option<&LineAccum> {
        self.lines.get(&line)
    }

    /// Samples ingested in total.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Samples dropped because they fell outside monitored segments.
    pub fn filtered_samples(&self) -> u64 {
        self.filtered_samples
    }

    /// Parallel-phase samples on hot lines that no tracked object claimed.
    pub fn unattributed_samples(&self) -> u64 {
        self.unattributed_samples
    }

    /// Serial-phase samples (baseline latency contributors).
    pub fn serial_samples(&self) -> u64 {
        self.serial_samples
    }

    /// Parallel-phase samples skipped by the static line pre-filter
    /// ([`crate::LinePrefilter`]); zero when no filter is installed.
    pub fn prefiltered_samples(&self) -> u64 {
        self.prefiltered_samples
    }

    /// Samples rejected by the ingest plausibility bounds, by field.
    pub fn quarantine_counts(&self) -> QuarantineCounts {
        self.quarantine
    }

    /// Total quarantined samples.
    pub fn quarantined_samples(&self) -> u64 {
        self.quarantine.total()
    }

    /// Entries in the object and per-line accumulator tables.
    pub(crate) fn table_sizes(&self) -> (u64, u64) {
        (self.objects.len() as u64, self.lines.len() as u64)
    }

    /// Hygiene and bounded-memory statistics of the run so far. All zeros
    /// (except the detailed-line counts) on a clean, unbounded run.
    pub fn ingest_stats(&self) -> IngestStats {
        let (line_evictions, line_repromotions, line_denials) =
            self.bound.as_ref().map_or((0, 0, 0), |bound| {
                (bound.evictions, bound.repromotions, bound.denials)
            });
        IngestStats {
            quarantined: self.quarantine,
            line_evictions,
            line_repromotions,
            line_denials,
            object_evictions: self.object_evictions,
            detailed_lines: self.detailed_lines,
            peak_detailed_lines: self.peak_detailed_lines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_heap::CallStack;
    use cheetah_sim::{Addr, PhaseKind};

    fn sample(thread: u32, addr: Addr, kind: AccessKind, phase: PhaseKind) -> Sample {
        Sample {
            thread: ThreadId(thread),
            addr,
            kind,
            latency: if kind.is_write() { 150 } else { 90 },
            time: 0,
            phase_index: 1,
            phase_kind: phase,
        }
    }

    fn space_with_object(size: u64) -> (AddressSpace, Addr) {
        let mut space = AddressSpace::new();
        let addr = space
            .heap_mut()
            .alloc(ThreadId(0), size, CallStack::single("app.c", 42))
            .unwrap();
        (space, addr)
    }

    #[test]
    fn false_sharing_accumulates_invalidations() {
        let (space, base) = space_with_object(64);
        let mut detector = Detector::new(DetectorConfig::default());
        for _ in 0..50 {
            detector.ingest(
                &space,
                &sample(1, base, AccessKind::Write, PhaseKind::Parallel),
            );
            detector.ingest(
                &space,
                &sample(2, base.offset(4), AccessKind::Write, PhaseKind::Parallel),
            );
        }
        let accum = detector.objects().next().unwrap();
        // First 3 writes feed the pre-filter; the rest ping-pong.
        assert!(accum.invalidations >= 90, "got {}", accum.invalidations);
        assert_eq!(accum.reads, 0);
        assert!(accum.writes >= 97);
        assert_eq!(accum.threads().count(), 2);
        assert_eq!(accum.lines().len(), 1);
    }

    #[test]
    fn write_threshold_suppresses_write_once_lines() {
        let (space, base) = space_with_object(256);
        let mut detector = Detector::new(DetectorConfig::default());
        // Two writes per line: below the "more than two writes" threshold.
        for line in 0..4u64 {
            for t in [1, 2] {
                detector.ingest(
                    &space,
                    &sample(
                        t,
                        base.offset(line * 64),
                        AccessKind::Write,
                        PhaseKind::Parallel,
                    ),
                );
            }
        }
        assert_eq!(detector.objects().count(), 0);
        // Plenty of reads never start detail either.
        for _ in 0..100 {
            detector.ingest(
                &space,
                &sample(1, base, AccessKind::Read, PhaseKind::Parallel),
            );
        }
        assert_eq!(detector.objects().count(), 0);
    }

    #[test]
    fn serial_samples_only_feed_latency_baseline() {
        let (space, base) = space_with_object(64);
        let mut detector = Detector::new(DetectorConfig::default());
        for _ in 0..10 {
            detector.ingest(
                &space,
                &sample(0, base, AccessKind::Write, PhaseKind::Serial),
            );
        }
        assert_eq!(detector.objects().count(), 0);
        assert_eq!(detector.serial_samples(), 10);
        assert!((detector.aver_cycles_serial() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn serial_latency_is_the_median_not_the_mean() {
        // One sampled cold miss among thirty hits: the mean would report
        // (220 + 30*4)/31 ≈ 11, tripling every predicted post-fix cost;
        // the median must stay at the hit latency.
        let (space, base) = space_with_object(64);
        let mut detector = Detector::new(DetectorConfig::default());
        let serial = |latency: u64| Sample {
            latency,
            ..sample(0, base, AccessKind::Write, PhaseKind::Serial)
        };
        for _ in 0..30 {
            detector.ingest(&space, &serial(4));
        }
        detector.ingest(&space, &serial(220));
        assert_eq!(detector.serial_samples(), 31);
        assert!(
            (detector.aver_cycles_serial() - 4.0).abs() < 1e-9,
            "a single cold miss must not move the baseline: {}",
            detector.aver_cycles_serial()
        );
    }

    #[test]
    fn serial_latency_even_count_averages_the_two_middles() {
        // Two samples at 4, two at 10: the two middle values straddle the
        // histogram keys, so the median is (4 + 10) / 2.
        let (space, base) = space_with_object(64);
        let mut detector = Detector::new(DetectorConfig::default());
        for latency in [4u64, 4, 10, 10] {
            detector.ingest(
                &space,
                &Sample {
                    latency,
                    ..sample(0, base, AccessKind::Write, PhaseKind::Serial)
                },
            );
        }
        assert!((detector.aver_cycles_serial() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn serial_latency_default_when_no_serial_samples() {
        let detector = Detector::new(DetectorConfig::default());
        assert!(
            (detector.aver_cycles_serial() - DetectorConfig::default().default_serial_latency)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn unmonitored_addresses_filtered() {
        let space = AddressSpace::new();
        let mut detector = Detector::new(DetectorConfig::default());
        detector.ingest(
            &space,
            &sample(1, Addr(0x10), AccessKind::Write, PhaseKind::Parallel),
        );
        assert_eq!(detector.filtered_samples(), 1);
        assert_eq!(detector.objects().count(), 0);
    }

    #[test]
    fn globals_attributed_by_symbol() {
        let mut space = AddressSpace::new();
        let g = space.globals_mut().register("hot_global", 64, 64).unwrap();
        let mut detector = Detector::new(DetectorConfig::default());
        for _ in 0..20 {
            detector.ingest(
                &space,
                &sample(1, g, AccessKind::Write, PhaseKind::Parallel),
            );
            detector.ingest(
                &space,
                &sample(2, g.offset(8), AccessKind::Write, PhaseKind::Parallel),
            );
        }
        let accum = detector.objects().next().unwrap();
        assert_eq!(accum.key, ObjectKey::Global(0));
        assert!(accum.invalidations > 10);
    }

    #[test]
    fn same_thread_traffic_no_invalidations() {
        let (space, base) = space_with_object(64);
        let mut detector = Detector::new(DetectorConfig::default());
        for i in 0..100u64 {
            detector.ingest(
                &space,
                &sample(
                    1,
                    base.offset((i % 16) * 4),
                    AccessKind::Write,
                    PhaseKind::Parallel,
                ),
            );
        }
        let accum = detector.objects().next().unwrap();
        assert_eq!(accum.invalidations, 0);
    }

    #[test]
    fn per_thread_breakdown_matches_traffic() {
        let (space, base) = space_with_object(64);
        let mut detector = Detector::new(DetectorConfig::default());
        for _ in 0..10 {
            detector.ingest(
                &space,
                &sample(1, base, AccessKind::Write, PhaseKind::Parallel),
            );
        }
        for _ in 0..5 {
            detector.ingest(
                &space,
                &sample(2, base.offset(4), AccessKind::Read, PhaseKind::Parallel),
            );
        }
        let accum = detector.objects().next().unwrap();
        let t1 = accum.thread(ThreadId(1)).unwrap();
        let t2 = accum.thread(ThreadId(2)).unwrap();
        // Thread 1's first two writes warm the pre-filter (threshold 2) and
        // are staged; the third write trips detail and replays them, so no
        // sampled traffic is lost.
        assert_eq!(t1.accesses, 10);
        assert_eq!(t2.accesses, 5);
        assert_eq!(t2.cycles, 5 * 90);
        assert!(accum.thread(ThreadId(3)).is_none());
    }

    #[test]
    fn per_thread_phase_breakdown_splits_by_phase() {
        let (space, base) = space_with_object(64);
        let mut detector = Detector::new(DetectorConfig::default());
        // Warm the pre-filter, then traffic from thread 1 in phases 1 and 3.
        for phase in [1u32, 1, 1, 3, 3] {
            let mut s = sample(1, base, AccessKind::Write, PhaseKind::Parallel);
            s.phase_index = phase;
            detector.ingest(&space, &s);
            let mut s = sample(2, base.offset(4), AccessKind::Write, PhaseKind::Parallel);
            s.phase_index = phase;
            detector.ingest(&space, &s);
        }
        let accum = detector.objects().next().unwrap();
        let whole = accum.thread(ThreadId(1)).unwrap();
        let p1 = accum.thread_in_phase(ThreadId(1), 1).unwrap();
        let p3 = accum.thread_in_phase(ThreadId(1), 3).unwrap();
        assert_eq!(p1.accesses + p3.accesses, whole.accesses);
        assert_eq!(p1.cycles + p3.cycles, whole.cycles);
        assert_eq!(p1.accesses, 3, "staged warm-up samples are replayed");
        assert_eq!(p3.accesses, 2);
        assert!(accum.thread_in_phase(ThreadId(1), 2).is_none());
        assert_eq!(accum.thread_phases().count(), 4);
    }

    #[test]
    fn staged_writes_survive_a_read_filled_buffer() {
        // A read-mostly line: enough sampled reads to fill the staging
        // buffer before the writers show up. The threshold-tripping writes
        // must evict staged reads, not be dropped, so both writers appear
        // in the object's per-thread accounting.
        let (space, base) = space_with_object(64);
        let mut detector = Detector::new(DetectorConfig::default());
        for _ in 0..6 {
            detector.ingest(
                &space,
                &sample(3, base.offset(8), AccessKind::Read, PhaseKind::Parallel),
            );
        }
        for _ in 0..3 {
            detector.ingest(
                &space,
                &sample(1, base, AccessKind::Write, PhaseKind::Parallel),
            );
            detector.ingest(
                &space,
                &sample(2, base.offset(4), AccessKind::Write, PhaseKind::Parallel),
            );
        }
        let accum = detector.objects().next().unwrap();
        assert_eq!(
            accum.thread(ThreadId(1)).map(|t| t.accesses),
            Some(3),
            "every staged write must be replayed"
        );
        assert_eq!(accum.thread(ThreadId(2)).map(|t| t.accesses), Some(3));
        assert!(accum.thread(ThreadId(3)).is_some(), "some reads survive");
    }

    #[test]
    fn co_resident_objects_tracked_per_line() {
        // Two 24-byte allocations from one thread pack into one 64-byte
        // line (32-byte size class): the classic inter-object shape.
        let mut space = AddressSpace::new();
        let a = space
            .heap_mut()
            .alloc(ThreadId(0), 24, CallStack::single("app.c", 1))
            .unwrap();
        let b = space
            .heap_mut()
            .alloc(ThreadId(0), 24, CallStack::single("app.c", 2))
            .unwrap();
        assert_eq!(a.line(64), b.line(64), "neighbours must pack");
        let mut detector = Detector::new(DetectorConfig::default());
        for _ in 0..20 {
            detector.ingest(
                &space,
                &sample(1, a, AccessKind::Write, PhaseKind::Parallel),
            );
            detector.ingest(
                &space,
                &sample(2, b.offset(8), AccessKind::Write, PhaseKind::Parallel),
            );
        }
        assert_eq!(detector.objects().count(), 2);
        let accum = detector.line_accum(a.line(64)).expect("tracked line");
        assert_eq!(accum.residents().len(), 2, "both objects co-resident");
        // Evicting either co-resident leaves a single-thread residual.
        for &key in accum.residents() {
            assert!(!accum.contended_without(key));
        }
        // The line's slices account for every attributed detailed sample.
        let total: u64 = accum.slices().map(|(_, s)| s.accesses).sum();
        let per_object: u64 = detector.objects().map(|o| o.accesses()).sum();
        assert_eq!(total, per_object);
    }

    #[test]
    fn multi_line_objects_tracked_per_line() {
        let (space, base) = space_with_object(4000);
        let mut detector = Detector::new(DetectorConfig::default());
        // Threads 1 and 2 fight over two separate lines of one object.
        for line in [0u64, 8] {
            for _ in 0..20 {
                detector.ingest(
                    &space,
                    &sample(
                        1,
                        base.offset(line * 64),
                        AccessKind::Write,
                        PhaseKind::Parallel,
                    ),
                );
                detector.ingest(
                    &space,
                    &sample(
                        2,
                        base.offset(line * 64 + 4),
                        AccessKind::Write,
                        PhaseKind::Parallel,
                    ),
                );
            }
        }
        let accum = detector.objects().next().unwrap();
        assert_eq!(accum.lines().len(), 2);
        assert!(accum.invalidations >= 70);
    }

    #[test]
    fn quarantine_counts_each_field_exactly_once() {
        let (space, base) = space_with_object(64);
        let mut detector = Detector::new(DetectorConfig::default());
        let limits = detector.config().limits;
        let bad_latency = Sample {
            latency: limits.max_latency + 1,
            ..sample(1, base, AccessKind::Write, PhaseKind::Parallel)
        };
        let bad_thread = sample(
            limits.max_thread + 1,
            base,
            AccessKind::Write,
            PhaseKind::Parallel,
        );
        let bad_phase = Sample {
            phase_index: limits.max_phase + 1,
            ..sample(1, base, AccessKind::Write, PhaseKind::Parallel)
        };
        assert_eq!(
            detector.ingest(&space, &bad_latency),
            IngestOutcome::Quarantined
        );
        assert_eq!(
            detector.ingest(&space, &bad_thread),
            IngestOutcome::Quarantined
        );
        assert_eq!(
            detector.ingest(&space, &bad_phase),
            IngestOutcome::Quarantined
        );
        let counts = detector.quarantine_counts();
        assert_eq!(
            (counts.bad_latency, counts.bad_thread, counts.bad_phase),
            (1, 1, 1)
        );
        assert_eq!(detector.quarantined_samples(), 3);
        // Quarantined samples are counted into the total but touch no
        // table: no staged state, no serial baseline, no objects.
        assert_eq!(detector.total_samples(), 3);
        assert_eq!(detector.serial_samples(), 0);
        assert_eq!(detector.objects().count(), 0);
        assert_eq!(detector.shadow_bytes(), 0);
    }

    #[test]
    fn clean_samples_come_back_accepted() {
        let (space, base) = space_with_object(64);
        let mut detector = Detector::new(DetectorConfig::default());
        let outcome = detector.ingest(
            &space,
            &sample(1, base, AccessKind::Write, PhaseKind::Parallel),
        );
        assert_eq!(outcome, IngestOutcome::Accepted);
        assert_eq!(detector.quarantined_samples(), 0);
    }

    #[test]
    fn unbounded_detector_reports_zero_robustness_stats() {
        let (space, base) = space_with_object(64);
        let mut detector = Detector::new(DetectorConfig::default());
        for _ in 0..50 {
            detector.ingest(
                &space,
                &sample(1, base, AccessKind::Write, PhaseKind::Parallel),
            );
            detector.ingest(
                &space,
                &sample(2, base.offset(4), AccessKind::Write, PhaseKind::Parallel),
            );
        }
        let stats = detector.ingest_stats();
        assert_eq!(stats.quarantined.total(), 0);
        assert_eq!(stats.line_evictions, 0);
        assert_eq!(stats.line_repromotions, 0);
        assert_eq!(stats.object_evictions, 0);
        assert_eq!(stats.detailed_lines, 1);
        assert_eq!(stats.peak_detailed_lines, 1);
    }

    /// Hammers `lines` distinct cache lines of one large object, `rounds`
    /// two-thread write pairs each, interleaved line-by-line.
    fn hammer_lines(
        detector: &mut Detector,
        space: &AddressSpace,
        base: Addr,
        lines: u64,
        rounds: u64,
    ) {
        for _ in 0..rounds {
            for line in 0..lines {
                detector.ingest(
                    space,
                    &sample(
                        1,
                        base.offset(line * 64),
                        AccessKind::Write,
                        PhaseKind::Parallel,
                    ),
                );
                detector.ingest(
                    space,
                    &sample(
                        2,
                        base.offset(line * 64 + 4),
                        AccessKind::Write,
                        PhaseKind::Parallel,
                    ),
                );
            }
        }
    }

    #[test]
    fn bounded_line_table_respects_capacity_and_evicts() {
        let (space, base) = space_with_object(8 * 64);
        let config = DetectorConfig {
            line_capacity: Some(4),
            ..DetectorConfig::default()
        };
        let mut detector = Detector::new(config);
        hammer_lines(&mut detector, &space, base, 8, 20);
        let stats = detector.ingest_stats();
        assert!(stats.detailed_lines <= 4, "capacity must hold");
        assert!(stats.line_evictions > 0, "8 hot lines into 4 slots");
        assert!(stats.peak_detailed_lines <= 4);
        // Detail survives only on currently-tracked lines.
        let detailed = (0..8u64)
            .filter(|line| {
                detector
                    .line_detail(base.offset(line * 64).line(64))
                    .is_some()
            })
            .count() as u64;
        assert_eq!(detailed, stats.detailed_lines);
    }

    #[test]
    fn evicted_lines_release_their_side_entries() {
        // Cold lines stage samples, hot lines churn through two detail
        // slots (denied ones fall back to coarse tables), and evictions
        // release entries for reuse: after every step the live side
        // entries are exactly the lines holding staged, detail or coarse
        // state, and released entries keep the table from growing.
        let (space, base) = space_with_object(64 * 64);
        let config = DetectorConfig {
            line_capacity: Some(2),
            ..DetectorConfig::default()
        };
        let mut detector = Detector::new(config);
        let check = |detector: &Detector| {
            let holding = detector
                .shadow
                .iter_touched()
                .filter(|(_, slot)| detector.side.get(slot).is_some_and(|rare| !rare.is_empty()))
                .count();
            let handles = detector
                .shadow
                .iter_touched()
                .filter(|(_, slot)| detector.side.get(slot).is_some())
                .count();
            assert_eq!(detector.side.live(), holding);
            assert_eq!(handles, holding, "no slot points at an empty entry");
        };
        for round in 0..12u64 {
            // Sixteen hot lines of lines 0..48 take turns: every round
            // evicts.
            hammer_lines(
                &mut detector,
                &space,
                base.offset(((round % 3) * 16) * 64),
                16,
                3,
            );
            // Reads on lines 48..64 only ever stage.
            for line in 0..4u64 {
                detector.ingest(
                    &space,
                    &sample(
                        3,
                        base.offset((48 + (round * 4 + line) % 16) * 64 + 8),
                        AccessKind::Read,
                        PhaseKind::Parallel,
                    ),
                );
            }
            check(&detector);
        }
        let stats = detector.ingest_stats();
        assert!(stats.line_evictions > 50, "{stats:?}");
        assert!(stats.line_denials > 0, "{stats:?}");
        assert!(
            detector.side.bytes()
                <= 64 * std::mem::size_of::<crate::detect::line_state::RareLineState>(),
            "released entries are reused, not leaked"
        );
    }

    #[test]
    fn per_thread_totals_equal_the_phase_slices() {
        // 1024 threads in two phases each, interleaved: the per-thread
        // totals must equal a brute-force sum over the (thread, phase)
        // slices, in first-touch order.
        let mut accum = ObjectAccum::new(ObjectKey::Global(0));
        for round in 0..3u64 {
            for phase in [1u32, 2] {
                for t in 0..1024u32 {
                    let latency = u64::from(t % 7) + round + u64::from(phase);
                    accum.record(
                        ThreadId(t),
                        phase,
                        AccessKind::Write,
                        latency,
                        false,
                        CacheLineId(u64::from(t)),
                    );
                }
            }
        }
        let threads: Vec<(ThreadId, ThreadOnObject)> = accum.threads().collect();
        assert_eq!(threads.len(), 1024);
        assert_eq!(accum.thread_phases().count(), 2048);
        for (index, (thread, total)) in threads.iter().enumerate() {
            assert_eq!(thread.0 as usize, index, "first-touch order");
            let mut expected = ThreadOnObject::default();
            for ((t, _), slice) in accum.thread_phases() {
                if t == *thread {
                    expected.accesses += slice.accesses;
                    expected.cycles += slice.cycles;
                }
            }
            assert_eq!(*total, expected);
            assert_eq!(accum.thread(*thread), Some(expected));
        }
        assert!(accum.thread(ThreadId(1024)).is_none());
    }

    #[test]
    fn evicted_lines_repromote_through_the_sketch() {
        let (space, base) = space_with_object(8 * 64);
        let config = DetectorConfig {
            line_capacity: Some(2),
            ..DetectorConfig::default()
        };
        let mut detector = Detector::new(config);
        // Round-robin over 8 lines with capacity 2: every line keeps being
        // evicted and, thanks to the sketch remembering its writes, keeps
        // re-promoting on its next sample instead of re-warming from zero.
        hammer_lines(&mut detector, &space, base, 8, 10);
        let stats = detector.ingest_stats();
        assert!(stats.line_evictions > 0);
        assert!(
            stats.line_repromotions > 0,
            "sketch memory must re-promote returning lines: {stats:?}"
        );
    }

    #[test]
    fn capacity_at_working_set_is_bit_identical_to_unbounded() {
        let run = |capacity: Option<usize>| {
            let (space, base) = space_with_object(4 * 64);
            let config = DetectorConfig {
                line_capacity: capacity,
                object_capacity: capacity.map(|_| 64),
                ..DetectorConfig::default()
            };
            let mut detector = Detector::new(config);
            hammer_lines(&mut detector, &space, base, 4, 25);
            let objects: Vec<ObjectAccum> = detector.objects().cloned().collect();
            (
                detector.total_samples(),
                detector.ingest_stats(),
                format!("{objects:?}"),
            )
        };
        let (unbounded_total, unbounded_stats, unbounded_objects) = run(None);
        let (bounded_total, bounded_stats, bounded_objects) = run(Some(4));
        assert_eq!(unbounded_total, bounded_total);
        assert_eq!(bounded_stats.line_evictions, 0, "capacity covers the set");
        assert_eq!(bounded_stats, unbounded_stats);
        assert_eq!(unbounded_objects, bounded_objects);
    }

    #[test]
    fn object_table_bound_keeps_the_hottest_objects() {
        // Four separately-allocated objects, each on its own line; one gets
        // 10x the traffic of the others. Capacity 2 must keep the hot one.
        let mut space = AddressSpace::new();
        let mut addrs = Vec::new();
        for i in 0..4 {
            addrs.push(
                space
                    .heap_mut()
                    .alloc(ThreadId(0), 64, CallStack::single("app.c", i))
                    .unwrap(),
            );
        }
        let config = DetectorConfig {
            object_capacity: Some(2),
            ..DetectorConfig::default()
        };
        let mut detector = Detector::new(config);
        for round in 0..40 {
            for (index, &addr) in addrs.iter().enumerate() {
                // Cold objects only get traffic in the first few rounds.
                if index > 0 && round >= 4 {
                    continue;
                }
                detector.ingest(
                    &space,
                    &sample(1, addr, AccessKind::Write, PhaseKind::Parallel),
                );
                detector.ingest(
                    &space,
                    &sample(2, addr.offset(4), AccessKind::Write, PhaseKind::Parallel),
                );
            }
        }
        assert!(detector.objects().count() <= 2);
        assert!(detector.ingest_stats().object_evictions >= 2);
        let survivors: Vec<ObjectKey> = detector.objects().map(|o| o.key).collect();
        assert!(
            survivors.contains(&ObjectKey::Heap(cheetah_heap::ObjectId(0))),
            "the hottest object must survive: {survivors:?}"
        );
    }
}
