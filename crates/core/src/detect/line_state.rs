//! Per-cache-line detection state with the write-count pre-filter.
//!
//! Tracking full detail (two-entry table + word map) for every line would
//! waste memory on write-once data, so Cheetah "first tracks the number of
//! writes on a cache line, and only tracks detailed information for cache
//! lines with more than two writes" (§2.3). The state is split in two by
//! how often a line needs it:
//!
//! * `LineSlot` is the dense shadow slot, 8 bytes per line: the `u32`
//!   pre-filter write counter and a `u32` handle into the side table. The
//!   all-zero slot is a line with no sampled write and no side state, so
//!   a fresh 4096-line shadow page costs 32 KB.
//! * `RareLineState` lives in a per-detector `SideTable` and holds
//!   what only some lines need: samples staged while the line is cold,
//!   the boxed [`LineDetail`] of a hot line, and the coarse two-entry
//!   table of a line the bounded detail table denied. An entry is 56
//!   bytes plus its staged buffer (32 bytes a sample, doubling from one
//!   up to `RareLineState::stage_capacity`) and its detail. Entries are
//!   reused through a free list, so an evicted line gives its entry back.
//!
//! A line the sampler lands on only in serial phases costs its 8-byte
//! slot alone, and so does an evicted line until it is sampled again.

use crate::detect::table::{TwoEntryTable, WriteOutcome};
use crate::detect::words::WordMap;
use cheetah_sim::{AccessKind, Addr, Cycles, ThreadId};
use std::num::NonZeroU32;

/// A parallel-phase sample held back by the write-count pre-filter.
///
/// Dropping the first samples of a line outright would leave the detail
/// accounting short exactly the samples that made the line hot; since the
/// threshold is tiny (the paper's "more than two writes"), staging them in
/// a bounded buffer and replaying on activation keeps the per-line state
/// constant-size while preserving every staged write (a full buffer
/// evicts its oldest read before it would drop a write).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedSample {
    /// Accessing thread.
    pub thread: ThreadId,
    /// Sampled address.
    pub addr: Addr,
    /// Read or write.
    pub kind: AccessKind,
    /// Sampled latency.
    pub latency: Cycles,
    /// Parallel phase of the access.
    pub phase: u32,
}

/// Detailed state for a susceptible line (allocated lazily).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineDetail {
    /// The two-entry invalidation history table.
    pub table: TwoEntryTable,
    /// Word-granularity access profile.
    pub words: WordMap,
    /// Sampled invalidations detected on this line.
    pub invalidations: u64,
    /// Sampled reads recorded in detail.
    pub reads: u64,
    /// Sampled writes recorded in detail.
    pub writes: u64,
    /// Total sampled latency recorded in detail.
    pub latency: Cycles,
}

impl LineDetail {
    /// Fresh detail state for a line of `line_size` bytes.
    pub fn new(line_size: u64) -> Self {
        LineDetail {
            table: TwoEntryTable::new(),
            words: WordMap::new(line_size),
            invalidations: 0,
            reads: 0,
            writes: 0,
            latency: 0,
        }
    }
}

/// Dense shadow slot for one cache line: 8 bytes, all zero while cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct LineSlot {
    /// Total sampled writes (the pre-filter counter; counted in every
    /// phase).
    pub writes: u32,
    /// One plus the index of the line's [`RareLineState`] in the side
    /// table; `None` while the line holds no staged, detail or coarse
    /// state.
    rare: Option<NonZeroU32>,
}

impl LineSlot {
    /// Counts one sampled write into the pre-filter, saturating at
    /// `u32::MAX`: on very long runs the counter must pin at "hot", not
    /// wrap around and silently drop the line below the detail threshold.
    pub fn record_write(&mut self) {
        self.writes = self.writes.saturating_add(1);
    }

    /// Whether the line's writes, plus `remembered` sketch credit of an
    /// earlier eviction, exceed the detail `threshold`.
    pub fn is_hot(&self, threshold: u32, remembered: u32) -> bool {
        self.writes.saturating_add(remembered) > threshold
    }
}

/// The rarely needed state of one line, kept off the dense shadow slot.
#[derive(Debug, Default)]
pub(crate) struct RareLineState {
    /// Samples seen while the line was still cold, replayed into the
    /// detail state on activation. Bounded by
    /// [`RareLineState::stage_capacity`].
    pub staged: Vec<StagedSample>,
    /// Detailed state, present once the line passed the pre-filter and
    /// won a detail slot.
    pub detail: Option<Box<LineDetail>>,
    /// Degraded-mode invalidation table for a hot line that was *denied*
    /// a detail slot by the bounded line table. Set on the first denial —
    /// unbounded detectors never set it — it keeps the constant-space
    /// invalidation detection (§2.3) alive so the owning object's finding
    /// keeps accumulating evidence; only the word-granularity
    /// classification detail is sacrificed.
    pub coarse: Option<TwoEntryTable>,
    /// Invalidations the coarse table detected while the line was denied
    /// a detail slot. Contention is the signal the detector exists to
    /// find, so admission control weighs these far above raw writes — a
    /// falsely-shared line must be able to out-bid a write-hot private
    /// line for the last detail slot.
    pub coarse_invalidations: u32,
}

impl RareLineState {
    /// How many cold-line samples are staged for replay: the threshold's
    /// worth of writes plus a couple of reads, capped so a misconfigured
    /// threshold cannot grow per-line state.
    pub fn stage_capacity(threshold: u32) -> usize {
        (threshold as usize + 2).min(8)
    }

    /// Parks a cold-line sample for replay. The buffer doubles from one
    /// sample up to [`RareLineState::stage_capacity`] and never past it:
    /// most cold lines are sampled once, and a full-size buffer for each
    /// would outweigh the dense slots. Writes have priority: a full
    /// buffer evicts its oldest staged read rather than drop a
    /// threshold-tripping write (a read-mostly line could otherwise fill
    /// every slot before the writer shows up).
    pub fn stage(&mut self, sample: StagedSample, threshold: u32) {
        let capacity = Self::stage_capacity(threshold);
        let len = self.staged.len();
        if len < capacity {
            if len == self.staged.capacity() {
                self.staged.reserve_exact(len.clamp(1, capacity - len));
            }
            self.staged.push(sample);
        } else if sample.kind.is_write() {
            if let Some(read) = self
                .staged
                .iter()
                .position(|held| held.kind == AccessKind::Read)
            {
                self.staged.remove(read);
                self.staged.push(sample);
            }
        }
    }

    /// Starts (or continues) detailed tracking: hands back the staged
    /// samples for replay, releasing their buffer, and the line's detail
    /// state, allocated on first activation.
    pub fn activate(&mut self, line_size: u64) -> (Vec<StagedSample>, &mut LineDetail) {
        let staged = std::mem::take(&mut self.staged);
        let detail = self
            .detail
            .get_or_insert_with(|| Box::new(LineDetail::new(line_size)));
        (staged, detail)
    }

    /// Feeds a sample of an admission-denied line into its coarse table;
    /// returns whether it was an invalidation.
    pub fn record_coarse(&mut self, thread: ThreadId, kind: AccessKind) -> bool {
        let table = self.coarse.get_or_insert_with(TwoEntryTable::new);
        let invalidation = match kind {
            AccessKind::Read => {
                table.record_read(thread);
                false
            }
            AccessKind::Write => table.record_write(thread) == WriteOutcome::Invalidation,
        };
        if invalidation {
            self.coarse_invalidations = self.coarse_invalidations.saturating_add(1);
        }
        invalidation
    }

    /// Whether the entry holds any state (a released entry holds none).
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty() && self.detail.is_none() && self.coarse.is_none()
    }
}

/// The per-detector side table of [`RareLineState`]s, addressed by the
/// handles in [`LineSlot`]s.
#[derive(Debug, Default)]
pub(crate) struct SideTable {
    entries: Vec<RareLineState>,
    /// Handles of released entries, reused before the table grows.
    free: Vec<NonZeroU32>,
}

impl SideTable {
    /// The rare state of `slot`'s line, if it has any.
    pub fn get(&self, slot: &LineSlot) -> Option<&RareLineState> {
        slot.rare
            .map(|handle| &self.entries[handle.get() as usize - 1])
    }

    /// The rare state of `slot`'s line, taking a fresh (or released)
    /// entry on first use.
    pub fn get_or_insert(&mut self, slot: &mut LineSlot) -> &mut RareLineState {
        let handle = *slot.rare.get_or_insert_with(|| {
            self.free.pop().unwrap_or_else(|| {
                self.entries.push(RareLineState::default());
                u32::try_from(self.entries.len())
                    .ok()
                    .and_then(NonZeroU32::new)
                    .expect("side table holds fewer than u32::MAX entries")
            })
        });
        &mut self.entries[handle.get() as usize - 1]
    }

    /// Resets `slot` to a cold line, releasing its entry (and the staged
    /// buffer, detail and coarse table it held) for reuse.
    pub fn release(&mut self, slot: &mut LineSlot) {
        if let Some(handle) = slot.rare {
            self.entries[handle.get() as usize - 1] = RareLineState::default();
            self.free.push(handle);
        }
        *slot = LineSlot::default();
    }

    /// Entries currently held by a line.
    #[cfg(test)]
    pub fn live(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Bytes of the entry array, released entries included (their heap
    /// buffers are freed on release).
    pub fn bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<RareLineState>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(thread: u32) -> StagedSample {
        StagedSample {
            thread: ThreadId(thread),
            addr: Addr(0x1000),
            kind: AccessKind::Write,
            latency: 150,
            phase: 1,
        }
    }

    #[test]
    fn shadow_slot_fits_in_8_bytes() {
        assert!(std::mem::size_of::<LineSlot>() <= 8);
        // The module docs quote the side entry's size.
        assert!(std::mem::size_of::<RareLineState>() <= 56);
    }

    #[test]
    fn detail_allocated_only_above_threshold() {
        let mut side = SideTable::default();
        let mut slot = LineSlot {
            writes: 2,
            ..LineSlot::default()
        };
        assert!(!slot.is_hot(2, 0));
        assert!(
            side.get(&slot).is_none(),
            "the pre-filter allocates nothing"
        );
        slot.writes = 3;
        assert!(slot.is_hot(2, 0));
        side.get_or_insert(&mut slot).activate(64);
        assert!(side.get(&slot).is_some_and(|rare| rare.detail.is_some()));
    }

    #[test]
    fn detail_persists_once_allocated() {
        let mut side = SideTable::default();
        let mut slot = LineSlot::default();
        side.get_or_insert(&mut slot).stage(write(1), 2);
        let (staged, detail) = side.get_or_insert(&mut slot).activate(64);
        assert_eq!(staged, vec![write(1)]);
        detail.invalidations = 5;
        let (staged, detail) = side.get_or_insert(&mut slot).activate(64);
        assert!(staged.is_empty(), "staged samples are replayed once");
        assert_eq!(detail.invalidations, 5);
        assert_eq!(side.get(&slot).unwrap().staged.capacity(), 0);
    }

    #[test]
    fn default_state_is_cold() {
        let slot = LineSlot::default();
        assert_eq!(slot.writes, 0);
        assert!(SideTable::default().get(&slot).is_none());
        assert!(RareLineState::default().is_empty());
        // A released line is cold again and its entry is reused.
        let mut side = SideTable::default();
        let mut hot = LineSlot { writes: 9, ..slot };
        side.get_or_insert(&mut hot)
            .record_coarse(ThreadId(1), AccessKind::Write);
        side.release(&mut hot);
        assert_eq!(hot, LineSlot::default());
        assert_eq!(side.live(), 0);
        let mut next = LineSlot::default();
        assert!(side.get_or_insert(&mut next).is_empty());
        assert_eq!(
            (side.live(), side.bytes()),
            (1, std::mem::size_of::<RareLineState>())
        );
    }

    #[test]
    fn stage_capacity_tracks_threshold_with_a_cap() {
        assert_eq!(RareLineState::stage_capacity(2), 4);
        assert_eq!(RareLineState::stage_capacity(0), 2);
        assert_eq!(RareLineState::stage_capacity(1_000), 8);
        // The buffer doubles from one sample up to its bound, never past.
        for threshold in [0, 2, 5, 1_000] {
            let capacity = RareLineState::stage_capacity(threshold);
            let mut rare = RareLineState::default();
            for thread in 0..20u32 {
                rare.stage(write(thread), threshold);
                let len = (thread as usize + 1).min(capacity);
                assert_eq!(rare.staged.len(), len);
                let doubled = len.next_power_of_two().min(capacity);
                assert_eq!(rare.staged.capacity(), doubled, "threshold {threshold}");
            }
        }
    }

    #[test]
    fn write_counter_saturates_instead_of_wrapping() {
        let mut slot = LineSlot {
            writes: u32::MAX - 1,
            ..LineSlot::default()
        };
        slot.record_write();
        assert_eq!(slot.writes, u32::MAX);
        // One more write must NOT wrap to 0 and reset the line to cold.
        slot.record_write();
        assert_eq!(slot.writes, u32::MAX);
        assert!(
            slot.is_hot(2, u32::MAX),
            "a saturated line stays above the detail threshold"
        );
    }

    #[test]
    fn zero_threshold_allows_read_heavy_lines_after_first_write() {
        let slot = LineSlot {
            writes: 1,
            ..LineSlot::default()
        };
        assert!(slot.is_hot(0, 0));
        assert!(!LineSlot::default().is_hot(0, 0));
    }
}
