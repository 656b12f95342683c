//! Extent-based line classification of parallel phases.
//!
//! A parallel phase's lines are classified by who touches them: private
//! (one worker), read-shared (several workers, no writes) or write-shared.
//! Classifying per line would pay hash-map traffic proportional to the
//! number of distinct lines — ruinous for streaming phases that touch tens
//! of thousands of one-shot private lines — so this module classifies
//! whole **extents**: each worker contributes a sorted list of
//! [`LineExtent`]s (from its stream's declared [`crate::footprint`]), and
//! a single boundary sweep over all workers' extents produces the phase's
//! [`ClassExtent`] table. Classification cost is proportional to the
//! number of *extents moved*, not lines touched — the cache-conscious
//! batching argument, applied to the simulator's own bookkeeping.
//!
//! Both parallel-phase executors use the table, and resolve a line's class
//! through a [`ClassCursor`]: the sharded executor simulates private lines
//! apart from its merge and folds read-shared hits, and the classic loop
//! lets a worker run ahead through its private lines.

use crate::footprint::ByteExtent;
use crate::types::CacheLineId;
use crate::util::FastMap;

/// A contiguous run of cache lines touched by one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LineExtent {
    /// First line id.
    pub(crate) start: u64,
    /// One past the last line id.
    pub(crate) end: u64,
    /// Whether the worker may write anywhere in the run.
    pub(crate) wrote: bool,
}

/// How every line of one classified extent participates in the phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExtClass {
    /// Touched by exactly one worker (the payload slot index).
    Private(u32),
    /// Touched by several workers, none of whom writes.
    ReadShared,
    /// Touched by several workers, at least one of whom writes.
    WriteShared,
}

/// One classified extent of the phase table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClassExtent {
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) class: ExtClass,
}

/// The phase's classification table: sorted disjoint extents covering
/// every line any worker may touch.
#[derive(Debug, Default)]
pub(crate) struct ClassTable {
    extents: Vec<ClassExtent>,
}

impl ClassTable {
    /// Classifies the phase from every worker's extent list (sorted and
    /// disjoint per worker) via one boundary sweep.
    pub(crate) fn build(per_worker: &[Vec<LineExtent>]) -> ClassTable {
        // Boundary events: (position, +1 open / -1 close, worker, wrote).
        let mut events: Vec<(u64, i32, u32, bool)> = Vec::new();
        for (slot, extents) in per_worker.iter().enumerate() {
            for extent in extents {
                // An empty (or inverted) extent claims no lines; skipping it
                // keeps the sweep's open/close counts balanced even when a
                // hand-built footprint bypassed the normalising builder.
                if extent.start >= extent.end {
                    continue;
                }
                events.push((extent.start, 1, slot as u32, extent.wrote));
                events.push((extent.end, -1, slot as u32, extent.wrote));
            }
        }
        // Closes before opens at equal positions so touching extents of
        // different workers do not look concurrently active.
        events.sort_unstable_by_key(|&(pos, delta, slot, _)| (pos, delta, slot));

        // Active multiset per worker: (extent count, writing-extent count).
        let mut active: FastMap<u32, (u32, u32)> = FastMap::default();
        let mut writers: u32 = 0;
        let mut extents: Vec<ClassExtent> = Vec::new();
        let mut cursor = 0u64;
        let mut i = 0usize;
        while i < events.len() {
            let pos = events[i].0;
            if pos > cursor && !active.is_empty() {
                let class = match active.len() {
                    1 => ExtClass::Private(*active.keys().next().expect("one active worker")),
                    _ if writers > 0 => ExtClass::WriteShared,
                    _ => ExtClass::ReadShared,
                };
                match extents.last_mut() {
                    Some(last) if last.end == cursor && last.class == class => last.end = pos,
                    _ => extents.push(ClassExtent {
                        start: cursor,
                        end: pos,
                        class,
                    }),
                }
            }
            cursor = pos;
            while i < events.len() && events[i].0 == pos {
                let (_, delta, slot, wrote) = events[i];
                i += 1;
                let entry = active.entry(slot).or_insert((0, 0));
                if delta > 0 {
                    entry.0 += 1;
                    if wrote {
                        entry.1 += 1;
                        if entry.1 == 1 {
                            writers += 1;
                        }
                    }
                } else {
                    entry.0 -= 1;
                    if wrote {
                        entry.1 -= 1;
                        if entry.1 == 0 {
                            writers -= 1;
                        }
                    }
                    if entry.0 == 0 {
                        active.remove(&slot);
                    }
                }
            }
        }
        ClassTable { extents }
    }

    /// Looks the line's extent index up by binary search; `None` when the
    /// line lies outside every declared footprint (a contract violation by
    /// some stream).
    pub(crate) fn find(&self, line: CacheLineId) -> Option<usize> {
        let idx = self.extents.partition_point(|e| e.end <= line.0);
        (idx < self.extents.len() && self.extents[idx].start <= line.0).then_some(idx)
    }
}

/// Resolves lines to their [`ExtClass`] through a phase's [`ClassTable`],
/// one cursor per worker: a range comparison against the two most
/// recently used extents in the common case (inner loops commonly
/// alternate between a private stream and one shared object, which a
/// single cached extent would miss on every access), a binary search
/// otherwise.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassCursor {
    cur: ClassExtent,
    other: ClassExtent,
    /// `cur` is a stand-in for a line outside every extent; it never moves
    /// to `other`, so every return to such a line is looked up (and
    /// counted in `misses`).
    cur_violation: bool,
    /// Lookups that found no extent: accesses outside every declared
    /// footprint (contract violations by some stream).
    pub(crate) misses: u64,
}

impl Default for ClassCursor {
    fn default() -> Self {
        let empty = ClassExtent {
            start: 1,
            end: 0,
            class: ExtClass::WriteShared,
        };
        ClassCursor {
            cur: empty,
            other: empty,
            cur_violation: false,
            misses: 0,
        }
    }
}

impl ClassCursor {
    /// The class of `line`. A line outside every extent resolves to
    /// [`ExtClass::WriteShared`], the fully-ordered class that is correct
    /// for any sharing pattern.
    #[inline]
    pub(crate) fn class(&mut self, table: &ClassTable, line: CacheLineId) -> ExtClass {
        if !(self.cur.start <= line.0 && line.0 < self.cur.end) {
            self.advance(table, line);
        }
        self.cur.class
    }

    fn advance(&mut self, table: &ClassTable, line: CacheLineId) {
        let found = if self.other.start <= line.0 && line.0 < self.other.end {
            Some(self.other)
        } else {
            table.find(line).map(|idx| table.extents[idx])
        };
        if !self.cur_violation {
            self.other = self.cur;
        }
        self.cur_violation = found.is_none();
        self.cur = found.unwrap_or_else(|| {
            self.misses += 1;
            ClassExtent {
                start: line.0,
                end: line.0 + 1,
                class: ExtClass::WriteShared,
            }
        });
    }
}

/// Converts a stream's byte-extent footprint to line extents.
///
/// Byte extents that share a line merge at that line only: the shared line
/// is written if either extent writes it, and the lines on either side keep
/// their own extent's flag. Touching line extents with equal flags
/// coalesce. The input is a [`crate::footprint::Footprint::Bounded`] list,
/// sorted and disjoint, so two consecutive extents share at most one line;
/// should a hand-built list overlap by more, the merged lines take the OR of
/// the flags (a sound widening).
pub(crate) fn byte_to_line_extents(extents: &[ByteExtent], line_size: u64) -> Vec<LineExtent> {
    let mut out: Vec<LineExtent> = Vec::with_capacity(extents.len());
    for extent in extents {
        // Empty extents claim nothing (and would underflow the line
        // conversion below); hand-built footprints may contain them.
        if extent.start >= extent.end {
            continue;
        }
        let mut start = extent.start / line_size;
        let end = (extent.end - 1) / line_size + 1;
        if let Some(last) = out.last_mut() {
            if start < last.end {
                if last.wrote || !extent.wrote || last.end > end {
                    // `last` already covers the shared lines with a flag
                    // at least as strong (or, for an overlong overlap, is
                    // widened to one); the rest starts after it.
                    last.wrote |= extent.wrote;
                    start = last.end;
                } else {
                    // Only the shared lines take the write flag: cut them
                    // off the read-only `last`.
                    last.end = start;
                    if last.start == last.end {
                        out.pop();
                    }
                }
            }
        }
        if start >= end {
            continue;
        }
        match out.last_mut() {
            Some(last) if start == last.end && last.wrote == extent.wrote => last.end = end,
            _ => out.push(LineExtent {
                start,
                end,
                wrote: extent.wrote,
            }),
        }
    }
    out
}

/// A sorted list of disjoint line-id ranges with cheap coalescing inserts;
/// the accumulator behind extent-granular directory write-back.
///
/// Sequential sweeps (the streaming pattern the extent table exists for)
/// always extend the last-inserted range in O(1); arbitrary insert order
/// degrades to a `Vec::insert` shift, which callers bound by spilling to a
/// per-line map once the list fragments.
#[derive(Debug, Default, Clone)]
pub(crate) struct RangeList {
    ranges: Vec<(u64, u64)>,
    /// Index of the most recently extended range (locality cursor).
    cursor: usize,
}

impl RangeList {
    /// Number of disjoint ranges.
    pub(crate) fn fragments(&self) -> usize {
        self.ranges.len()
    }

    /// The ranges, sorted and disjoint.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().copied()
    }

    /// Whether `line` is recorded.
    pub(crate) fn contains(&mut self, line: u64) -> bool {
        if let Some(&(s, e)) = self.ranges.get(self.cursor) {
            if s <= line && line < e {
                return true;
            }
        }
        let idx = self.ranges.partition_point(|&(_, e)| e <= line);
        if idx < self.ranges.len() && self.ranges[idx].0 <= line {
            self.cursor = idx;
            true
        } else {
            false
        }
    }

    /// Records `line`, coalescing with neighbours. Idempotent.
    pub(crate) fn insert(&mut self, line: u64) {
        // Fast path: extend the cursor range at either edge.
        if let Some(&(s, e)) = self.ranges.get(self.cursor) {
            if s <= line && line < e {
                return;
            }
            if line == e
                && self
                    .ranges
                    .get(self.cursor + 1)
                    .is_none_or(|n| n.0 > line + 1)
            {
                self.ranges[self.cursor].1 = line + 1;
                return;
            }
            if line + 1 == s && (self.cursor == 0 || self.ranges[self.cursor - 1].1 < line) {
                self.ranges[self.cursor].0 = line;
                return;
            }
        }
        let idx = self.ranges.partition_point(|&(_, e)| e <= line);
        if idx < self.ranges.len() && self.ranges[idx].0 <= line {
            self.cursor = idx;
            return; // already present
        }
        // Try extending the neighbours around the insertion point.
        let extends_next = idx < self.ranges.len() && self.ranges[idx].0 == line + 1;
        let extends_prev = idx > 0 && self.ranges[idx - 1].1 == line;
        match (extends_prev, extends_next) {
            (true, true) => {
                self.ranges[idx - 1].1 = self.ranges[idx].1;
                self.ranges.remove(idx);
                self.cursor = idx - 1;
            }
            (true, false) => {
                self.ranges[idx - 1].1 = line + 1;
                self.cursor = idx - 1;
            }
            (false, true) => {
                self.ranges[idx].0 = line;
                self.cursor = idx;
            }
            (false, false) => {
                self.ranges.insert(idx, (line, line + 1));
                self.cursor = idx;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(start: u64, end: u64, wrote: bool) -> LineExtent {
        LineExtent { start, end, wrote }
    }

    #[test]
    fn byte_extents_sharing_a_line_widen_only_that_line() {
        let bytes = |list: &[(u64, u64, bool)]| -> Vec<ByteExtent> {
            list.iter()
                .map(|&(start, end, wrote)| ByteExtent::new(start, end, wrote))
                .collect()
        };
        // A later write shares line 1 with a read: line 0 stays read-only.
        assert_eq!(
            byte_to_line_extents(
                &bytes(&[(0, 1, false), (64, 65, false), (72, 73, true)]),
                64
            ),
            vec![ext(0, 1, false), ext(1, 2, true)]
        );
        // A later read sharing a written line leaves the lines after it
        // read-only.
        assert_eq!(
            byte_to_line_extents(&bytes(&[(0, 8, true), (8, 200, false)]), 64),
            vec![ext(0, 1, true), ext(1, 4, false)]
        );
        // A write sharing the last line of a longer read-only run takes
        // only that line from it.
        assert_eq!(
            byte_to_line_extents(&bytes(&[(0, 130, false), (130, 400, true)]), 64),
            vec![ext(0, 2, false), ext(2, 7, true)]
        );
        // Touching equal flags coalesce; an empty extent claims nothing.
        assert_eq!(
            byte_to_line_extents(
                &bytes(&[(0, 64, true), (64, 64, false), (64, 128, true)]),
                64
            ),
            vec![ext(0, 2, true)]
        );
    }

    #[test]
    fn disjoint_extents_are_private() {
        let table = ClassTable::build(&[vec![ext(0, 10, true)], vec![ext(10, 20, false)]]);
        assert_eq!(
            table.extents.as_slice(),
            &[
                ClassExtent {
                    start: 0,
                    end: 10,
                    class: ExtClass::Private(0)
                },
                ClassExtent {
                    start: 10,
                    end: 20,
                    class: ExtClass::Private(1)
                },
            ]
        );
    }

    #[test]
    fn overlap_classification_splits_at_boundaries() {
        // Worker 0 reads [0,20); worker 1 writes [10,30).
        let table = ClassTable::build(&[vec![ext(0, 20, false)], vec![ext(10, 30, true)]]);
        assert_eq!(
            table.extents.as_slice(),
            &[
                ClassExtent {
                    start: 0,
                    end: 10,
                    class: ExtClass::Private(0)
                },
                ClassExtent {
                    start: 10,
                    end: 20,
                    class: ExtClass::WriteShared
                },
                ClassExtent {
                    start: 20,
                    end: 30,
                    class: ExtClass::Private(1)
                },
            ]
        );
    }

    #[test]
    fn read_only_overlap_is_read_shared() {
        let table = ClassTable::build(&[
            vec![ext(5, 15, false)],
            vec![ext(5, 15, false)],
            vec![ext(5, 15, false)],
        ]);
        assert_eq!(
            table.extents.as_slice(),
            &[ClassExtent {
                start: 5,
                end: 15,
                class: ExtClass::ReadShared
            }]
        );
    }

    #[test]
    fn same_worker_overlapping_read_and_write_extents_stay_private() {
        // A worker may declare a read extent and a write extent over the
        // same lines; alone it is still private.
        let table = ClassTable::build(&[vec![ext(0, 8, false), ext(0, 8, true)]]);
        assert_eq!(
            table.extents.as_slice(),
            &[ClassExtent {
                start: 0,
                end: 8,
                class: ExtClass::Private(0)
            }]
        );
    }

    #[test]
    fn find_resolves_inside_and_rejects_gaps() {
        let table = ClassTable::build(&[vec![ext(0, 4, true), ext(8, 12, true)]]);
        assert_eq!(table.find(CacheLineId(1)), Some(0));
        assert_eq!(table.find(CacheLineId(9)), Some(1));
        assert_eq!(table.find(CacheLineId(5)), None);
        assert_eq!(table.find(CacheLineId(12)), None);
    }

    #[test]
    fn touching_extents_of_different_workers_do_not_mix() {
        let table = ClassTable::build(&[vec![ext(0, 10, true)], vec![ext(10, 20, true)]]);
        assert_eq!(table.extents.len(), 2);
        assert!(matches!(table.extents[0].class, ExtClass::Private(0)));
        assert!(matches!(table.extents[1].class, ExtClass::Private(1)));
    }

    #[test]
    fn range_list_sequential_and_random() {
        let mut list = RangeList::default();
        for l in 0..1000u64 {
            list.insert(l);
        }
        assert_eq!(list.fragments(), 1);
        list.insert(2000);
        list.insert(1999);
        list.insert(2001);
        assert_eq!(list.fragments(), 2);
        assert!(list.contains(500));
        assert!(list.contains(1999));
        assert!(!list.contains(1500));
        // Bridge the gap one line at a time from both sides.
        list.insert(1000);
        list.insert(1998);
        assert_eq!(list.fragments(), 2);
        assert!(list.contains(1000));
        assert!(list.contains(1998));
        // Closing the last gap through the cursor fast path merges too.
        for l in 1001..1998 {
            list.insert(l);
        }
        assert_eq!(list.fragments(), 1);
        assert!(list.contains(1500));
        // Idempotent.
        list.insert(500);
        assert_eq!(list.fragments(), 1);
    }

    #[test]
    fn range_list_merges_when_gap_closes() {
        let mut list = RangeList::default();
        list.insert(0);
        list.insert(2);
        assert_eq!(list.fragments(), 2);
        list.insert(1);
        assert_eq!(list.fragments(), 1);
        assert!(list.contains(0) && list.contains(1) && list.contains(2));
    }
}
