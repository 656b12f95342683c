//! Line-level co-residency tracking.
//!
//! Cheetah's §3.2 assessment is *per object*: it credits only the threads
//! that touch the object being fixed. But cache-line contention is a
//! property of the **line** — when the allocator packs two small objects
//! into one 64-byte line, padding either object away frees its neighbour
//! too, and a per-object model predicts ~no payoff for a fix that in fact
//! removes all of the line's ping-pong (the `inter_object` workload).
//!
//! [`LineAccum`] is the detector-side record making the joint payoff
//! computable: for every cache line under detailed tracking it keeps the
//! set of *co-resident* objects observed on the line and each resident's
//! per-(thread, phase) sampled traffic, including write counts. From it,
//! [`LineAccum::residency_for`] derives the [`LineResidency`] view one
//! instance's assessment consumes: the instance's own traffic on the line,
//! the whole line's traffic, and whether the line would *stay contended*
//! if the instance were evicted — the test deciding whether the fix's
//! credit extends to every thread on the line or only to the evicted
//! object's own threads.

use crate::detect::detector::{ObjectKey, ThreadOnObject};
use cheetah_sim::util::FastMap;
use cheetah_sim::{AccessKind, CacheLineId, Cycles, ThreadId};

/// Sampled traffic of one co-resident object by one thread in one phase.
///
/// Unlike [`ThreadOnObject`] this keeps the write count: deciding whether a
/// line stays contended after an eviction needs to know whether the
/// residual traffic still contains a writer (read-only co-residents cannot
/// invalidate each other).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineSlice {
    /// Sampled accesses.
    pub accesses: u64,
    /// Their total latency in cycles.
    pub cycles: Cycles,
    /// Sampled writes among the accesses.
    pub writes: u64,
}

impl LineSlice {
    fn as_traffic(self) -> ThreadOnObject {
        ThreadOnObject {
            accesses: self.accesses,
            cycles: self.cycles,
        }
    }
}

/// Accumulated co-residency state of one cache line under detailed
/// tracking: which objects were sampled on the line and how much traffic
/// each (object, thread, phase) combination contributed.
#[derive(Debug, Clone)]
pub struct LineAccum {
    /// The line.
    pub line: CacheLineId,
    residents: Vec<ObjectKey>,
    slices: FastMap<(ObjectKey, ThreadId, u32), LineSlice>,
    order: Vec<(ObjectKey, ThreadId, u32)>,
}

impl LineAccum {
    /// Fresh accumulator for `line`.
    pub fn new(line: CacheLineId) -> Self {
        LineAccum {
            line,
            residents: Vec::new(),
            slices: FastMap::default(),
            order: Vec::new(),
        }
    }

    /// Records one attributed, detailed sample on the line.
    pub fn record(
        &mut self,
        key: ObjectKey,
        thread: ThreadId,
        phase: u32,
        kind: AccessKind,
        latency: Cycles,
    ) {
        use std::collections::hash_map::Entry;

        if !self.residents.contains(&key) {
            self.residents.push(key);
        }
        let slot = (key, thread, phase);
        let slice = match self.slices.entry(slot) {
            Entry::Vacant(vacant) => {
                self.order.push(slot);
                vacant.insert(LineSlice::default())
            }
            Entry::Occupied(occupied) => occupied.into_mut(),
        };
        // Saturating like every detector counter: adversarial latencies
        // must pin at the ceiling, not wrap a hot slice back to cold.
        slice.accesses = slice.accesses.saturating_add(1);
        slice.cycles = slice.cycles.saturating_add(latency);
        if kind.is_write() {
            slice.writes = slice.writes.saturating_add(1);
        }
    }

    /// The objects with sampled traffic on the line, in first-touch order.
    pub fn residents(&self) -> &[ObjectKey] {
        &self.residents
    }

    /// Every (object, thread, phase) slice in first-touch order.
    pub fn slices(&self) -> impl Iterator<Item = ((ObjectKey, ThreadId, u32), LineSlice)> + '_ {
        self.order.iter().map(move |key| (*key, self.slices[key]))
    }

    /// Whether the line would still be contended with `evicted` relocated
    /// away: two distinct threads in the same parallel phase among the
    /// remaining residents' traffic, at least one of them writing — that
    /// is, some phase with two or more threads and a writer.
    pub fn contended_without(&self, evicted: ObjectKey) -> bool {
        let mut rest: Vec<_> = self
            .order
            .iter()
            .filter(|&&(key, _, _)| key != evicted)
            .map(|slot| (slot.2, slot.1, self.slices[slot].writes > 0))
            .collect();
        // Grouped by phase with threads sorted, a phase has two threads
        // exactly when its first and last slices differ in thread.
        rest.sort_unstable_by_key(|&(phase, thread, _)| (phase, thread));
        rest.chunk_by(|a, b| a.0 == b.0).any(|phase| {
            phase[0].1 != phase[phase.len() - 1].1 && phase.iter().any(|&(_, _, writes)| writes)
        })
    }

    /// The co-residency view of the line from the perspective of one
    /// instance (identified by `key`), ready for assessment.
    pub fn residency_for(&self, key: ObjectKey) -> LineResidency {
        let mut slots: Vec<Slot> = self
            .slices()
            .enumerate()
            .map(|(first, ((object, thread, phase), slice))| {
                let traffic = slice.as_traffic();
                Slot {
                    phase,
                    thread,
                    first: first as u32,
                    all: traffic,
                    own: if object == key {
                        traffic
                    } else {
                        ThreadOnObject::default()
                    },
                }
            })
            .collect();
        // One slot per (phase, thread): the first-touched slice absorbs
        // the residents' later ones.
        slots.sort_unstable_by_key(|slot| (slot.key(), slot.first));
        slots.dedup_by(|later, kept| {
            let same = later.key() == kept.key();
            if same {
                add(&mut kept.all, later.all);
                add(&mut kept.own, later.own);
            }
            same
        });
        let mut sharers: Vec<(u32, u32, u32)> = Vec::new();
        for slot in &slots {
            if sharers.last().is_none_or(|counts| counts.0 != slot.phase) {
                sharers.push((slot.phase, 0, 0));
            }
            let counts = sharers.last_mut().expect("pushed above");
            counts.1 += u32::from(slot.all.accesses > 0);
            counts.2 += u32::from(slot.all.accesses > slot.own.accesses);
        }
        LineResidency {
            line: self.line,
            residents: self.residents.clone(),
            residual_contended: self.contended_without(key),
            slots,
            sharers,
        }
    }
}

fn add(into: &mut ThreadOnObject, traffic: ThreadOnObject) {
    into.accesses = into.accesses.saturating_add(traffic.accesses);
    into.cycles = into.cycles.saturating_add(traffic.cycles);
}

/// One thread's traffic on a line within one phase: the whole line's and
/// the instance's own share of it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    phase: u32,
    thread: ThreadId,
    /// Position of the slot's first slice in the line's first-touch order.
    first: u32,
    all: ThreadOnObject,
    own: ThreadOnObject,
}

impl Slot {
    fn key(&self) -> (u32, ThreadId) {
        (self.phase, self.thread)
    }
}

/// Co-residency profile of one cache line of a sharing instance — the
/// input of the line-granular assessment path
/// ([`crate::assess::AssessModel::LineLevel`]), built by
/// [`LineAccum::residency_for`].
#[derive(Debug, Clone, PartialEq)]
pub struct LineResidency {
    /// The cache line.
    pub line: CacheLineId,
    /// Every object with sampled traffic on the line (including the
    /// instance itself), in first-touch order.
    pub residents: Vec<ObjectKey>,
    /// Whether the line stays contended after evicting this instance. When
    /// `false`, relocating the instance frees the line entirely and every
    /// thread's traffic on the line is credited with post-fix latency; when
    /// `true`, only the instance's own traffic is.
    pub residual_contended: bool,
    /// The line's per-(thread, phase) traffic, sorted by (phase, thread).
    slots: Vec<Slot>,
    /// Per phase, ascending: threads with traffic on the line, and those
    /// still on it after evicting the instance.
    sharers: Vec<(u32, u32, u32)>,
}

impl LineResidency {
    /// Number of co-resident objects on the line (1 = the instance alone).
    pub fn co_resident_count(&self) -> usize {
        self.residents.len()
    }

    /// The `(thread, phase)` pairs with traffic on the line, by phase and
    /// then thread.
    pub fn slots(&self) -> impl Iterator<Item = (ThreadId, u32)> + '_ {
        self.slots.iter().map(|slot| (slot.thread, slot.phase))
    }

    fn slot(&self, thread: ThreadId, phase: u32) -> Option<&Slot> {
        let at = self
            .slots
            .binary_search_by_key(&(phase, thread), Slot::key)
            .ok()?;
        Some(&self.slots[at])
    }

    /// The traffic this line's repair relieves for `(thread, phase)`: the
    /// whole line when the residual is uncontended, otherwise only the
    /// instance's own share.
    pub fn relieved(&self, thread: ThreadId, phase: u32) -> ThreadOnObject {
        self.slot(thread, phase)
            .map_or_else(ThreadOnObject::default, |slot| {
                if self.residual_contended {
                    slot.own
                } else {
                    slot.all
                }
            })
    }

    /// Threads this line's repair touches, first-touch order: every
    /// thread with traffic on the line. Where the residual stays
    /// contended the co-residents' threads are still *partially*
    /// relieved (their queueing wait shrinks with the sharer count), so
    /// they count as related for the report totals.
    pub fn relieved_threads(&self) -> impl Iterator<Item = ThreadId> + '_ {
        let mut slots: Vec<&Slot> = self.slots.iter().collect();
        slots.sort_unstable_by_key(|slot| slot.first);
        slots.into_iter().map(|slot| slot.thread)
    }

    /// The co-residents' traffic left on the line after evicting this
    /// instance, for `(thread, phase)`: whole-line minus own.
    pub fn residual(&self, thread: ThreadId, phase: u32) -> ThreadOnObject {
        self.slot(thread, phase)
            .map_or_else(ThreadOnObject::default, |slot| ThreadOnObject {
                accesses: slot.all.accesses - slot.own.accesses,
                cycles: slot.all.cycles - slot.own.cycles,
            })
    }

    /// Distinct threads with any traffic on the line within `phase`.
    pub fn sharers_in_phase(&self, phase: u32) -> usize {
        self.phase_sharers(phase).0
    }

    /// Distinct threads still on the line within `phase` after evicting
    /// this instance: those whose accesses its own slice does not cancel.
    pub fn residual_sharers_in_phase(&self, phase: u32) -> usize {
        self.phase_sharers(phase).1
    }

    fn phase_sharers(&self, phase: u32) -> (usize, usize) {
        self.sharers
            .binary_search_by_key(&phase, |counts| counts.0)
            .map_or((0, 0), |at| {
                let (_, before, after) = self.sharers[at];
                (before as usize, after as usize)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_heap::ObjectId;

    const A: ObjectKey = ObjectKey::Heap(ObjectId(0));
    const B: ObjectKey = ObjectKey::Heap(ObjectId(1));
    const C: ObjectKey = ObjectKey::Heap(ObjectId(2));

    fn line() -> CacheLineId {
        cheetah_sim::Addr(0x4000_0000).line(64)
    }

    #[test]
    fn records_residents_and_slices_in_first_touch_order() {
        let mut accum = LineAccum::new(line());
        accum.record(A, ThreadId(1), 1, AccessKind::Write, 100);
        accum.record(B, ThreadId(2), 1, AccessKind::Write, 150);
        accum.record(A, ThreadId(1), 1, AccessKind::Read, 50);
        assert_eq!(accum.residents(), &[A, B]);
        let slices: Vec<_> = accum.slices().collect();
        assert_eq!(slices.len(), 2);
        assert_eq!(
            slices[0].1,
            LineSlice {
                accesses: 2,
                cycles: 150,
                writes: 1
            }
        );
    }

    #[test]
    fn two_writers_joint_credit_after_eviction() {
        let mut accum = LineAccum::new(line());
        accum.record(A, ThreadId(1), 1, AccessKind::Write, 100);
        accum.record(B, ThreadId(2), 1, AccessKind::Write, 100);
        // Evicting either object leaves a single-thread residual.
        assert!(!accum.contended_without(A));
        assert!(!accum.contended_without(B));
        let residency = accum.residency_for(A);
        assert_eq!(residency.co_resident_count(), 2);
        assert!(!residency.residual_contended);
        // Joint credit: thread 2's traffic on B is relieved too.
        assert_eq!(residency.relieved(ThreadId(2), 1).accesses, 1);
        assert_eq!(residency.relieved(ThreadId(1), 1).cycles, 100);
    }

    #[test]
    fn three_writers_keep_residual_contention() {
        let mut accum = LineAccum::new(line());
        accum.record(A, ThreadId(1), 1, AccessKind::Write, 100);
        accum.record(B, ThreadId(2), 1, AccessKind::Write, 100);
        accum.record(C, ThreadId(3), 1, AccessKind::Write, 100);
        // Evicting one of three writers leaves two contending residents.
        assert!(accum.contended_without(A));
        let residency = accum.residency_for(A);
        assert!(residency.residual_contended);
        // Credit shrinks to the evicted object's own traffic.
        assert_eq!(residency.relieved(ThreadId(2), 1).accesses, 0);
        assert_eq!(residency.relieved(ThreadId(1), 1).accesses, 1);
    }

    #[test]
    fn read_only_residual_is_not_contended() {
        let mut accum = LineAccum::new(line());
        accum.record(A, ThreadId(1), 1, AccessKind::Write, 100);
        accum.record(B, ThreadId(2), 1, AccessKind::Read, 90);
        accum.record(B, ThreadId(3), 1, AccessKind::Read, 90);
        // B's readers cannot invalidate each other once A is gone.
        assert!(!accum.contended_without(A));
        // Evicting B instead leaves only A's single writer.
        assert!(!accum.contended_without(B));
    }

    #[test]
    fn cross_phase_residual_is_not_contended() {
        let mut accum = LineAccum::new(line());
        accum.record(A, ThreadId(1), 1, AccessKind::Write, 100);
        accum.record(B, ThreadId(2), 1, AccessKind::Write, 100);
        accum.record(C, ThreadId(3), 3, AccessKind::Write, 100);
        // B (phase 1) and C (phase 3) never run concurrently.
        assert!(!accum.contended_without(A));
    }

    #[test]
    fn intra_object_residual_counts_as_contended() {
        let mut accum = LineAccum::new(line());
        accum.record(A, ThreadId(1), 1, AccessKind::Write, 100);
        // B is touched by two threads itself (intra-object sharing): the
        // line stays hot even with A gone.
        accum.record(B, ThreadId(2), 1, AccessKind::Write, 100);
        accum.record(B, ThreadId(3), 1, AccessKind::Write, 100);
        assert!(accum.contended_without(A));
    }

    #[test]
    fn sole_resident_relieves_exactly_its_own_traffic() {
        let mut accum = LineAccum::new(line());
        accum.record(A, ThreadId(1), 1, AccessKind::Write, 100);
        accum.record(A, ThreadId(2), 1, AccessKind::Write, 120);
        let residency = accum.residency_for(A);
        assert_eq!(residency.co_resident_count(), 1);
        assert!(!residency.residual_contended);
        assert!(residency.slots.iter().all(|slot| slot.own == slot.all));
        let threads: Vec<_> = residency.relieved_threads().collect();
        assert_eq!(threads, vec![ThreadId(1), ThreadId(2)]);
    }

    /// 1024 threads in two phases on three residents: the residency's
    /// lists, lookups, sharer counts and contention test match
    /// brute-force sums over the recorded samples.
    #[test]
    fn residency_of_1024_threads_matches_brute_force() {
        let mut accum = LineAccum::new(line());
        let mut samples = Vec::new();
        for round in 0..3u64 {
            for t in 0..1024u32 {
                for phase in [1u32, 3] {
                    let key = [A, B, C][((t as u64 + round) % 3) as usize];
                    if (t + phase).is_multiple_of(5) && round > 0 {
                        continue;
                    }
                    let kind = if (t + round as u32).is_multiple_of(7) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let latency = 10 + (t as u64 * 31 + round * 17 + phase as u64) % 400;
                    accum.record(key, ThreadId(t), phase, kind, latency);
                    samples.push((key, ThreadId(t), phase, kind, latency));
                }
            }
        }
        // First-touch order of (thread, phase) slots.
        let mut first_touch = Vec::new();
        for s in &samples {
            if !first_touch.contains(&(s.1, s.2)) {
                first_touch.push((s.1, s.2));
            }
        }
        let add = |acc: &mut ThreadOnObject, latency: u64| {
            acc.accesses += 1;
            acc.cycles += latency;
        };
        for evicted in [A, B, C] {
            let residency = accum.residency_for(evicted);
            // Residual contention by its pairwise definition.
            let kept: Vec<_> = samples.iter().filter(|s| s.0 != evicted).collect();
            let contended = kept.iter().any(|a| {
                kept.iter()
                    .any(|b| a.1 != b.1 && a.2 == b.2 && (a.3.is_write() || b.3.is_write()))
            });
            assert_eq!(residency.residual_contended, contended);
            let mut by_first: Vec<_> = residency.slots.clone();
            by_first.sort_by_key(|slot| slot.first);
            let all_slots: Vec<_> = by_first
                .iter()
                .map(|slot| (slot.thread, slot.phase))
                .collect();
            assert_eq!(all_slots, first_touch);
            let relieved: Vec<_> = residency.relieved_threads().collect();
            let expected: Vec<_> = first_touch.iter().map(|(t, _)| *t).collect();
            assert_eq!(relieved, expected);
            for phase in [1u32, 3] {
                let mut sharers = 0;
                let mut residual_sharers = 0;
                for t in (0..1024).map(ThreadId) {
                    let (mut own, mut all, mut rest) = Default::default();
                    for s in samples.iter().filter(|s| s.1 == t && s.2 == phase) {
                        add(&mut all, s.4);
                        add(if s.0 == evicted { &mut own } else { &mut rest }, s.4);
                    }
                    assert_eq!(residency.residual(t, phase), rest);
                    let relieved = if contended { own } else { all };
                    assert_eq!(residency.relieved(t, phase), relieved);
                    let slot = residency.slot(t, phase);
                    assert_eq!(
                        slot.map(|slot| (slot.all, slot.own)),
                        (all.accesses > 0).then_some((all, own))
                    );
                    sharers += usize::from(all.accesses > 0);
                    residual_sharers += usize::from(rest.accesses > 0);
                }
                assert_eq!(residency.sharers_in_phase(phase), sharers);
                assert_eq!(residency.residual_sharers_in_phase(phase), residual_sharers);
            }
        }
    }
}
