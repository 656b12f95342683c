//! From per-object accumulators to classified sharing instances.
//!
//! A cache line with many invalidations is *susceptible*; whether it is
//! false or true sharing depends on word-granularity evidence (§2.4): in
//! true sharing multiple threads hit the *same* words, in false sharing
//! they hit disjoint words of the same line. This module walks the
//! detector's shadow state, attributes each touched word to its object, and
//! produces [`SharingInstance`]s ready for assessment and reporting.

use crate::config::DetectorConfig;
use crate::detect::detector::{Detector, ObjectKey, ThreadOnObject};
use crate::detect::lines::LineResidency;
use crate::detect::words::WordStats;
use cheetah_heap::{AddressSpace, CallStack, Location};
use cheetah_sim::{Addr, Cycles, ThreadId, WORD_BYTES};
use std::fmt;

/// Verdict for a susceptible object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingKind {
    /// Threads access disjoint words of shared lines: fixable by padding.
    FalseSharing,
    /// Threads access the same words: semantic sharing, not fixable by
    /// padding.
    TrueSharing,
}

impl fmt::Display for SharingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharingKind::FalseSharing => f.write_str("false sharing"),
            SharingKind::TrueSharing => f.write_str("true sharing"),
        }
    }
}

/// Where a reported object came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectOrigin {
    /// Heap allocation with its recorded call stack.
    Heap {
        /// Allocation call stack (up to five frames).
        callsite: CallStack,
        /// Thread that performed the allocation.
        allocated_by: ThreadId,
    },
    /// Global variable with its symbol name.
    Global {
        /// Symbol name.
        name: String,
    },
}

/// Identity and extent of a reported object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectDescriptor {
    /// Heap or global origin.
    pub origin: ObjectOrigin,
    /// First byte.
    pub start: Addr,
    /// Requested size in bytes.
    pub size: u64,
}

impl ObjectDescriptor {
    /// One past the last byte.
    pub fn end(&self) -> Addr {
        Addr(self.start.0 + self.size)
    }
}

/// Access profile of one word of a reported object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordReport {
    /// The word's address.
    pub addr: Addr,
    /// Byte offset of the word within the object.
    pub offset: u64,
    /// Per-thread counters.
    pub stats: WordStats,
}

/// One classified sharing instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingInstance {
    /// Object identity within the detector.
    pub key: ObjectKey,
    /// Resolved descriptor (callsite / symbol, bounds).
    pub object: ObjectDescriptor,
    /// False or true sharing.
    pub kind: SharingKind,
    /// Sampled reads on the object (detailed tracking only).
    pub reads: u64,
    /// Sampled writes on the object.
    pub writes: u64,
    /// Sampled invalidations attributed to the object.
    pub invalidations: u64,
    /// Total sampled latency on the object, in cycles.
    pub latency: Cycles,
    /// Per-thread traffic on the object, first-touch order.
    pub per_thread: Vec<(ThreadId, ThreadOnObject)>,
    /// Per-(thread, phase) slices of the same traffic, first-touch order —
    /// what the assessment charges against each phase's `Cycles_t`.
    pub per_thread_phase: Vec<((ThreadId, u32), ThreadOnObject)>,
    /// Accesses that landed on truly shared words.
    pub truly_shared_accesses: u64,
    /// Word-granularity profile (touched words only) — the padding guide.
    pub words: Vec<WordReport>,
    /// Per-line co-residency: which objects share each of the instance's
    /// contended lines and how much joint traffic a repair would relieve —
    /// the input of the line-granular assessment path.
    pub line_residency: Vec<LineResidency>,
}

impl SharingInstance {
    /// Total sampled accesses on the object.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Per-thread counters for one thread.
    pub fn thread(&self, thread: ThreadId) -> Option<ThreadOnObject> {
        self.per_thread
            .iter()
            .find(|(t, _)| *t == thread)
            .map(|(_, s)| *s)
    }

    /// Per-thread counters restricted to one phase interval.
    pub fn thread_in_phase(&self, thread: ThreadId, phase: u32) -> Option<ThreadOnObject> {
        self.per_thread_phase
            .iter()
            .find(|((t, p), _)| *t == thread && *p == phase)
            .map(|(_, s)| *s)
    }

    /// Number of distinct threads that touched the object.
    pub fn thread_count(&self) -> usize {
        self.per_thread.len()
    }

    /// The largest number of co-resident objects on any of the instance's
    /// lines (1 = sole resident everywhere; 2+ = inter-object sharing).
    pub fn max_co_residents(&self) -> usize {
        self.line_residency
            .iter()
            .map(LineResidency::co_resident_count)
            .max()
            .unwrap_or(1)
    }
}

fn describe(space: &AddressSpace, key: ObjectKey) -> ObjectDescriptor {
    match key {
        ObjectKey::Heap(id) => {
            let info = space.object(id);
            ObjectDescriptor {
                origin: ObjectOrigin::Heap {
                    callsite: info.callsite.clone(),
                    allocated_by: info.owner,
                },
                start: info.start,
                size: info.size,
            }
        }
        ObjectKey::Global(index) => {
            let symbol = &space.globals().symbols()[index];
            ObjectDescriptor {
                origin: ObjectOrigin::Global {
                    name: symbol.name.clone(),
                },
                start: symbol.start,
                size: symbol.size,
            }
        }
    }
}

/// Extracts classified instances from the detector state.
///
/// Objects below the configured invalidation floor are dropped; the rest
/// are classified by the fraction of their accesses that landed on truly
/// shared words.
pub fn collect_instances(detector: &Detector, space: &AddressSpace) -> Vec<SharingInstance> {
    let config: &DetectorConfig = detector.config();
    let mut instances = Vec::new();
    for accum in detector.objects() {
        if accum.invalidations < config.min_invalidations {
            continue;
        }
        let descriptor = describe(space, accum.key);
        let mut words = Vec::new();
        let mut truly_shared_accesses = 0;
        let mut line_residency = Vec::new();
        for &line in accum.lines() {
            if let Some(line_accum) = detector.line_accum(line) {
                line_residency.push(line_accum.residency_for(accum.key));
            }
            let Some(detail) = detector.line_detail(line) else {
                continue;
            };
            for (index, word) in detail.words.words().iter().enumerate() {
                if !word.is_touched() {
                    continue;
                }
                let addr = Addr(line.base(config.line_size).0 + index as u64 * WORD_BYTES);
                // Only words belonging to this object count toward its
                // classification (a line can host several same-thread
                // objects).
                let belongs = match space.resolve(addr) {
                    Location::HeapObject(id) => accum.key == ObjectKey::Heap(id),
                    Location::Global(g) => accum.key == ObjectKey::Global(g),
                    _ => false,
                };
                if !belongs {
                    continue;
                }
                if word.is_truly_shared() {
                    truly_shared_accesses += word.accesses();
                }
                words.push(WordReport {
                    addr,
                    offset: addr.0 - descriptor.start.0,
                    stats: word.clone(),
                });
            }
        }
        let total = accum.accesses();
        let true_fraction = if total == 0 {
            0.0
        } else {
            truly_shared_accesses as f64 / total as f64
        };
        let kind = if true_fraction > config.true_share_fraction {
            SharingKind::TrueSharing
        } else {
            SharingKind::FalseSharing
        };
        instances.push(SharingInstance {
            key: accum.key,
            object: descriptor,
            kind,
            reads: accum.reads,
            writes: accum.writes,
            invalidations: accum.invalidations,
            latency: accum.latency,
            per_thread: accum.threads().collect(),
            per_thread_phase: accum.thread_phases().collect(),
            truly_shared_accesses,
            words,
            line_residency,
        });
    }
    instances
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use cheetah_pmu::Sample;
    use cheetah_sim::{AccessKind, PhaseKind};

    fn sample(thread: u32, addr: Addr, kind: AccessKind) -> Sample {
        Sample {
            thread: ThreadId(thread),
            addr,
            kind,
            latency: 150,
            time: 0,
            phase_index: 1,
            phase_kind: PhaseKind::Parallel,
        }
    }

    fn heap_space(size: u64) -> (AddressSpace, Addr) {
        let mut space = AddressSpace::new();
        let addr = space
            .heap_mut()
            .alloc(ThreadId(0), size, CallStack::single("lr.c", 139))
            .unwrap();
        (space, addr)
    }

    #[test]
    fn disjoint_words_classified_false_sharing() {
        let (space, base) = heap_space(64);
        let mut detector = Detector::new(DetectorConfig::default());
        for _ in 0..40 {
            detector.ingest(&space, &sample(1, base, AccessKind::Write));
            detector.ingest(&space, &sample(2, base.offset(8), AccessKind::Write));
        }
        let instances = collect_instances(&detector, &space);
        assert_eq!(instances.len(), 1);
        let fs = &instances[0];
        assert_eq!(fs.kind, SharingKind::FalseSharing);
        assert_eq!(fs.truly_shared_accesses, 0);
        assert_eq!(fs.object.size, 64);
        assert!(matches!(fs.object.origin, ObjectOrigin::Heap { .. }));
        assert_eq!(fs.thread_count(), 2);
        // Words 0 and 2 were touched.
        let offsets: Vec<u64> = fs.words.iter().map(|w| w.offset).collect();
        assert_eq!(offsets, vec![0, 8]);
    }

    #[test]
    fn same_word_classified_true_sharing() {
        let (space, base) = heap_space(64);
        let mut detector = Detector::new(DetectorConfig::default());
        for _ in 0..40 {
            detector.ingest(&space, &sample(1, base, AccessKind::Write));
            detector.ingest(&space, &sample(2, base, AccessKind::Write));
        }
        let instances = collect_instances(&detector, &space);
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].kind, SharingKind::TrueSharing);
        assert!(instances[0].truly_shared_accesses > 0);
    }

    #[test]
    fn below_invalidation_floor_not_reported() {
        let (space, base) = heap_space(64);
        let mut detector = Detector::new(DetectorConfig::default());
        // Enough to start detail but only a handful of invalidations.
        for _ in 0..4 {
            detector.ingest(&space, &sample(1, base, AccessKind::Write));
            detector.ingest(&space, &sample(2, base.offset(4), AccessKind::Write));
        }
        assert!(collect_instances(&detector, &space).is_empty());
    }

    #[test]
    fn mixed_object_with_dominant_disjoint_traffic_is_false_sharing() {
        let (space, base) = heap_space(64);
        let mut detector = Detector::new(DetectorConfig::default());
        // 2% of traffic on a truly shared word, the rest disjoint.
        for i in 0..100 {
            detector.ingest(&space, &sample(1, base, AccessKind::Write));
            detector.ingest(&space, &sample(2, base.offset(8), AccessKind::Write));
            if i % 50 == 0 {
                detector.ingest(&space, &sample(1, base.offset(12), AccessKind::Write));
                detector.ingest(&space, &sample(2, base.offset(12), AccessKind::Write));
            }
        }
        let instances = collect_instances(&detector, &space);
        assert_eq!(instances[0].kind, SharingKind::FalseSharing);
        assert!(instances[0].truly_shared_accesses > 0);
    }

    #[test]
    fn global_instance_carries_symbol_name() {
        let mut space = AddressSpace::new();
        let g = space
            .globals_mut()
            .register("shared_array", 128, 64)
            .unwrap();
        let mut detector = Detector::new(DetectorConfig::default());
        for _ in 0..40 {
            detector.ingest(&space, &sample(1, g, AccessKind::Write));
            detector.ingest(&space, &sample(2, g.offset(4), AccessKind::Write));
        }
        let instances = collect_instances(&detector, &space);
        assert_eq!(instances.len(), 1);
        match &instances[0].object.origin {
            ObjectOrigin::Global { name } => assert_eq!(name, "shared_array"),
            other => panic!("expected global, got {other:?}"),
        }
    }
}
