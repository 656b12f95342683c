//! Fix synthesis: from a detected [`SharingInstance`] to an executable
//! [`RepairPlan`].
//!
//! The paper's fixes are source edits — pad a struct, align an array,
//! give each thread its own accumulator. This module derives the same
//! transformations mechanically from the instance's per-thread word map
//! (§2.4's padding guide) and expresses them as address-range relocations
//! that [`crate::rewrite`] can apply to a running program:
//!
//! * [`RepairStrategy::AlignToLine`] — moving the whole object to a
//!   line-aligned base already puts every thread's words on private lines
//!   (the misaligned-array case: Fig. 5's `start 0x400004b8`).
//! * [`RepairStrategy::SplitPerThread`] — threads' word clusters
//!   interleave within lines, so each cluster is relocated to its own
//!   line-aligned block (the Fig. 1 "adjacent hot fields" pattern; the
//!   manual equivalent is padding each per-thread struct to a line).
//! * [`RepairStrategy::PadToLine`] — only one thread's words live in this
//!   object, so the contention is with a *neighbouring* allocation:
//!   relocate the object to exclusive, padded lines.

use cheetah_core::{layout_strategy, ObjectKey, SharingInstance, SharingKind};
use cheetah_sim::{Addr, ThreadId, WORD_BYTES};
use std::fmt;

pub use cheetah_core::RepairStrategy;

/// The words of one object owned by one *ownership signature*: the set of
/// threads that touch them, at most one per parallel phase.
///
/// A program whose workers are re-spawned each fork-join phase gives the
/// same logical worker a fresh [`ThreadId`] per phase (streamcluster's
/// three `localSearch` phases, for example); such a word has several
/// owning threads but no two of them ever run concurrently, so it is
/// still privately owned at every instant and safe to relocate. Words
/// with two owners *within one phase* are truly shared and excluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadCluster {
    /// The owning threads, ascending — one per parallel phase that touched
    /// the words. Never empty.
    pub threads: Vec<ThreadId>,
    /// Touched word offsets, ascending.
    pub word_offsets: Vec<u64>,
}

impl ThreadCluster {
    /// Representative owner (the first thread to touch the cluster);
    /// repair storage is allocated on this thread's behalf.
    pub fn owner(&self) -> ThreadId {
        self.threads.first().copied().unwrap_or(ThreadId::MAIN)
    }
    /// First byte of the cluster's span.
    pub fn span_start(&self) -> u64 {
        self.word_offsets.first().copied().unwrap_or(0)
    }

    /// One past the last byte of the cluster's span.
    pub fn span_end(&self) -> u64 {
        self.word_offsets
            .last()
            .map(|last| last + WORD_BYTES)
            .unwrap_or(0)
    }

    /// Span length in bytes (includes untouched interior words, which are
    /// relocated together with the touched ones).
    pub fn span_len(&self) -> u64 {
        self.span_end() - self.span_start()
    }
}

/// An executable fix for one sharing instance.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairPlan {
    /// The object the plan repairs.
    pub key: ObjectKey,
    /// Human-readable identity (allocation callsite or global symbol).
    pub label: String,
    /// The chosen transformation.
    pub strategy: RepairStrategy,
    /// Object start address at planning time.
    pub object_start: Addr,
    /// Object size in bytes.
    pub object_size: u64,
    /// Cache line size the plan was synthesized for.
    pub line_size: u64,
    /// Per-thread word clusters (the split targets; also retained for
    /// align/pad plans as the safety-check input).
    pub clusters: Vec<ThreadCluster>,
    /// Word offsets that must stay at their original addresses: words
    /// touched by two threads within one parallel phase (truly shared).
    /// The rewriter must not let a whole-span relocation drag them onto a
    /// cluster's private lines.
    pub pinned_word_offsets: Vec<u64>,
    /// Largest number of co-resident objects on any of the instance's
    /// contended lines at planning time (1 = sole resident; 2+ marks a
    /// cross-object repair whose payoff is joint with its line
    /// neighbours).
    pub co_residents: usize,
}

impl fmt::Display for RepairPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} for {} ({} bytes, {} thread clusters)",
            self.strategy,
            self.label,
            self.object_size,
            self.clusters.len()
        )
    }
}

/// Ranks repair candidates best-first: predicted improvement descending,
/// with deterministic tie-breaks (object start address, then label) so
/// iterative repair fixes instances in a reproducible order even when the
/// assessment predicts identical payoffs.
///
/// Under the default line-level assessment
/// ([`cheetah_core::AssessModel::LineLevel`]) the payoff passed in here is
/// the *joint line payoff*: fixing an object whose eviction frees a whole
/// co-resident line is credited with every thread on the line, so
/// cross-object repairs rank by what the fix actually buys rather than by
/// the fixed object's own share alone.
pub fn rank(candidates: &mut [(RepairPlan, f64)]) {
    candidates.sort_by(|(a, pa), (b, pb)| {
        pb.total_cmp(pa)
            .then_with(|| a.object_start.cmp(&b.object_start))
            .then_with(|| a.label.cmp(&b.label))
    });
}

/// Whether the clusters' spans are pairwise disjoint (so each can be
/// relocated as one contiguous range).
pub(crate) fn spans_disjoint(clusters: &[ThreadCluster]) -> bool {
    let mut spans: Vec<(u64, u64)> = clusters
        .iter()
        .map(|c| (c.span_start(), c.span_end()))
        .collect();
    spans.sort_unstable();
    spans.windows(2).all(|pair| pair[0].1 <= pair[1].0)
}

/// Derives the label shown in validation tables from the instance origin.
fn label_of(instance: &SharingInstance) -> String {
    match &instance.object.origin {
        cheetah_core::ObjectOrigin::Heap { callsite, .. } => callsite
            .innermost()
            .map(|frame| frame.to_string())
            .unwrap_or_else(|| "<unknown callsite>".to_string()),
        cheetah_core::ObjectOrigin::Global { name } => name.clone(),
    }
}

/// Synthesizes a repair plan for a detected instance, or `None` when no
/// layout transformation can help:
///
/// * true-sharing instances (the threads need the same words — padding
///   cannot fix semantics),
/// * instances with no per-thread word evidence (nothing to plan from).
pub fn synthesize(instance: &SharingInstance, line_size: u64) -> Option<RepairPlan> {
    if instance.kind != SharingKind::FalseSharing {
        return None;
    }
    // Group privately owned words by ownership signature. A word's
    // signature is the set of threads that touched it — at most one per
    // parallel phase. Words two threads touch *within the same phase* are
    // truly shared: relocating them cannot decouple the threads, so they
    // stay in place.
    let mut clusters: Vec<ThreadCluster> = Vec::new();
    let mut pinned_word_offsets: Vec<u64> = Vec::new();
    'words: for word in &instance.words {
        let mut phase_owner: Vec<(u32, ThreadId)> = Vec::new();
        for stats in word.stats.threads() {
            if phase_owner
                .iter()
                .any(|&(phase, thread)| phase == stats.phase && thread != stats.thread)
            {
                pinned_word_offsets.push(word.offset); // concurrent owners: truly shared
                continue 'words;
            }
            if !phase_owner.contains(&(stats.phase, stats.thread)) {
                phase_owner.push((stats.phase, stats.thread));
            }
        }
        let mut signature: Vec<ThreadId> = phase_owner.iter().map(|&(_, t)| t).collect();
        signature.sort_unstable();
        signature.dedup();
        if signature.is_empty() {
            continue;
        }
        match clusters.iter_mut().find(|c| c.threads == signature) {
            Some(cluster) => cluster.word_offsets.push(word.offset),
            None => clusters.push(ThreadCluster {
                threads: signature,
                word_offsets: vec![word.offset],
            }),
        }
    }
    for cluster in &mut clusters {
        cluster.word_offsets.sort_unstable();
    }
    let strategy = layout_strategy(
        clusters.iter().map(|cluster| {
            cluster
                .word_offsets
                .iter()
                .map(|&offset| (offset, offset + WORD_BYTES))
        }),
        line_size,
    )?;

    Some(RepairPlan {
        key: instance.key,
        label: label_of(instance),
        strategy,
        object_start: instance.object.start,
        object_size: instance.object.size,
        line_size,
        clusters,
        pinned_word_offsets,
        co_residents: instance.max_co_residents(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_core::detect::words::WordStats;
    use cheetah_core::{ObjectDescriptor, ObjectOrigin, WordReport};
    use cheetah_heap::{CallStack, ObjectId};
    use cheetah_sim::AccessKind;

    fn word(offset: u64, threads: &[u32]) -> WordReport {
        let mut stats = WordStats::default();
        for &t in threads {
            stats.record(ThreadId(t), 1, AccessKind::Write, 100);
        }
        WordReport {
            addr: Addr(0x4000_0000 + offset),
            offset,
            stats,
        }
    }

    fn instance(kind: SharingKind, size: u64, words: Vec<WordReport>) -> SharingInstance {
        SharingInstance {
            key: ObjectKey::Heap(ObjectId(0)),
            object: ObjectDescriptor {
                origin: ObjectOrigin::Heap {
                    callsite: CallStack::single("app.c", 42),
                    allocated_by: ThreadId(0),
                },
                start: Addr(0x4000_0000),
                size,
            },
            kind,
            reads: 100,
            writes: 100,
            invalidations: 50,
            latency: 10_000,
            per_thread: vec![],
            per_thread_phase: vec![],
            truly_shared_accesses: 0,
            words,
            line_residency: vec![],
        }
    }

    #[test]
    fn true_sharing_yields_no_plan() {
        let inst = instance(SharingKind::TrueSharing, 64, vec![word(0, &[1, 2])]);
        assert!(synthesize(&inst, 64).is_none());
    }

    #[test]
    fn no_word_evidence_yields_no_plan() {
        let inst = instance(SharingKind::FalseSharing, 64, vec![]);
        assert!(synthesize(&inst, 64).is_none());
    }

    #[test]
    fn interleaved_clusters_choose_split() {
        // Two threads on adjacent words of one line: alignment cannot
        // separate them.
        let inst = instance(
            SharingKind::FalseSharing,
            64,
            vec![word(0, &[1]), word(4, &[2])],
        );
        let plan = synthesize(&inst, 64).unwrap();
        assert_eq!(plan.strategy, RepairStrategy::SplitPerThread);
        assert_eq!(plan.clusters.len(), 2);
        assert_eq!(plan.label, "app.c: 42");
    }

    #[test]
    fn single_cluster_chooses_pad() {
        let inst = instance(
            SharingKind::FalseSharing,
            32,
            vec![word(0, &[1]), word(8, &[1])],
        );
        let plan = synthesize(&inst, 64).unwrap();
        assert_eq!(plan.strategy, RepairStrategy::PadToLine);
    }

    #[test]
    fn alignment_sufficient_chooses_align() {
        // Threads own whole (aligned) lines of the object; the object just
        // straddles line boundaries at its current address.
        let inst = instance(
            SharingKind::FalseSharing,
            128,
            vec![
                word(0, &[1]),
                word(60, &[1]),
                word(64, &[2]),
                word(124, &[2]),
            ],
        );
        let plan = synthesize(&inst, 64).unwrap();
        assert_eq!(plan.strategy, RepairStrategy::AlignToLine);
    }

    #[test]
    fn shared_words_are_left_out_of_clusters() {
        let inst = instance(
            SharingKind::FalseSharing,
            64,
            vec![word(0, &[1]), word(4, &[2]), word(8, &[1, 2])],
        );
        let plan = synthesize(&inst, 64).unwrap();
        let all_offsets: Vec<u64> = plan
            .clusters
            .iter()
            .flat_map(|c| c.word_offsets.iter().copied())
            .collect();
        assert!(!all_offsets.contains(&8), "shared word must stay in place");
    }

    #[test]
    fn rank_orders_by_improvement_with_deterministic_ties() {
        let plan = |start: u64, label: &str| RepairPlan {
            key: ObjectKey::Heap(ObjectId(0)),
            label: label.into(),
            strategy: RepairStrategy::PadToLine,
            object_start: Addr(start),
            object_size: 64,
            line_size: 64,
            clusters: vec![],
            pinned_word_offsets: vec![],
            co_residents: 1,
        };
        let mut candidates = vec![
            (plan(0x300, "c"), 1.0),
            (plan(0x100, "a"), 4.0),
            (plan(0x200, "b"), 1.0),
        ];
        rank(&mut candidates);
        let labels: Vec<&str> = candidates.iter().map(|(p, _)| p.label.as_str()).collect();
        assert_eq!(labels, vec!["a", "b", "c"], "ties break by start address");
    }

    #[test]
    fn cluster_spans() {
        let cluster = ThreadCluster {
            threads: vec![ThreadId(1)],
            word_offsets: vec![8, 16, 40],
        };
        assert_eq!(cluster.span_start(), 8);
        assert_eq!(cluster.span_end(), 44);
        assert_eq!(cluster.span_len(), 36);
        assert!(spans_disjoint(&[
            cluster.clone(),
            ThreadCluster {
                threads: vec![ThreadId(2)],
                word_offsets: vec![44, 48],
            }
        ]));
        assert!(!spans_disjoint(&[
            cluster,
            ThreadCluster {
                threads: vec![ThreadId(2)],
                word_offsets: vec![20],
            }
        ]));
    }
}
