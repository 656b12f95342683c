//! MESI coherence directory with per-line contention queuing.
//!
//! The directory tracks, for every cache line ever touched, which cores hold
//! a copy and in which state (Modified / Exclusive / Shared; Invalid lines
//! are simply absent). Private caches are modelled as infinite — capacity
//! evictions are disabled — so every miss is either cold or a *coherence*
//! miss. That isolates exactly the effect false sharing produces and matches
//! the machine model the paper's detector assumes (its Assumption 2).
//!
//! Beyond MESI state, each line has a **busy window**: a coherence
//! transaction (cold fill, cache-to-cache transfer, invalidating upgrade)
//! occupies the line until it completes, and any access arriving meanwhile
//! queues behind it. This is what makes contended lines expensive for
//! *every* participant — the physical property behind the paper's
//! Observation 2 (accesses with false sharing have much higher latency) —
//! and what serialises throughput on a ping-ponging line.
//!
//! The directory is the single authority for access outcomes: the execution
//! engine calls [`Directory::access`] for every simulated load/store with
//! the current virtual time and charges the returned total latency to the
//! issuing thread.

use crate::latency::{AccessOutcome, LatencyModel};
use crate::stats::CoherenceStats;
use crate::types::{AccessKind, CacheLineId, CoreId, Cycles};
use crate::util::{FastMap, FastSet};
use std::collections::hash_map::Entry;

/// Maximum number of cores the sharer bitset supports.
pub const MAX_CORES: u32 = 64;

/// Set of cores sharing a line, as a 64-bit bitset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharerSet(u64);

impl SharerSet {
    /// The empty set.
    pub fn empty() -> Self {
        SharerSet(0)
    }

    /// A singleton set.
    pub fn singleton(core: CoreId) -> Self {
        debug_assert!(core.0 < MAX_CORES);
        SharerSet(1u64 << core.0)
    }

    /// Inserts `core` into the set.
    pub fn insert(&mut self, core: CoreId) {
        debug_assert!(core.0 < MAX_CORES);
        self.0 |= 1u64 << core.0;
    }

    /// Whether `core` is in the set.
    pub fn contains(self, core: CoreId) -> bool {
        core.0 < MAX_CORES && self.0 & (1u64 << core.0) != 0
    }

    /// Number of cores in the set.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the cores in ascending id order.
    pub fn iter(self) -> impl Iterator<Item = CoreId> {
        let bits = self.0;
        (0..MAX_CORES).filter_map(move |i| {
            if bits & (1u64 << i) != 0 {
                Some(CoreId(i))
            } else {
                None
            }
        })
    }
}

/// MESI state of a tracked line. `Invalid` is represented by absence from the
/// directory map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineState {
    /// Exactly one core holds a clean, exclusive copy.
    Exclusive(CoreId),
    /// Exactly one core holds a dirty copy.
    Modified(CoreId),
    /// One or more cores hold clean shared copies.
    Shared(SharerSet),
}

/// Result of applying one access to a line's MESI state, independent of
/// time: the next state, how the access was satisfied, how many remote
/// copies were invalidated, and whether the line becomes LLC-resident.
///
/// This is the *pure* core of the coherence protocol. [`Directory::access`]
/// layers the busy-window queueing and prefetch substitution on top; the
/// sharded executor replays the same function against worker-local state
/// for lines it has proven private to one core (see [`crate::shard`]), so
/// both execution paths share one source of protocol truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Transition {
    pub(crate) state: LineState,
    pub(crate) outcome: AccessOutcome,
    pub(crate) invalidated: u64,
    pub(crate) llc_insert: bool,
}

/// Applies one access to a line's MESI state.
///
/// `prev` is the line's current state (`None` = Invalid / never cached) and
/// `in_llc` whether the shared LLC holds the line — consulted only when
/// `prev` is `None`, to distinguish a cold miss from an LLC refill.
pub(crate) fn transition(
    prev: Option<LineState>,
    in_llc: bool,
    core: CoreId,
    kind: AccessKind,
) -> Transition {
    match kind {
        AccessKind::Read => match prev {
            Some(LineState::Modified(owner)) => {
                if owner == core {
                    Transition {
                        state: LineState::Modified(owner),
                        outcome: AccessOutcome::L1Hit,
                        invalidated: 0,
                        llc_insert: false,
                    }
                } else {
                    // Dirty cache-to-cache transfer; owner downgrades to
                    // Shared and the dirty data reaches the LLC.
                    let mut sharers = SharerSet::singleton(owner);
                    sharers.insert(core);
                    Transition {
                        state: LineState::Shared(sharers),
                        outcome: AccessOutcome::RemoteDirty,
                        invalidated: 0,
                        llc_insert: true,
                    }
                }
            }
            Some(LineState::Exclusive(owner)) => {
                if owner == core {
                    Transition {
                        state: LineState::Exclusive(owner),
                        outcome: AccessOutcome::L1Hit,
                        invalidated: 0,
                        llc_insert: false,
                    }
                } else {
                    let mut sharers = SharerSet::singleton(owner);
                    sharers.insert(core);
                    Transition {
                        state: LineState::Shared(sharers),
                        outcome: AccessOutcome::RemoteClean,
                        invalidated: 0,
                        llc_insert: false,
                    }
                }
            }
            Some(LineState::Shared(sharers)) => {
                if sharers.contains(core) {
                    Transition {
                        state: LineState::Shared(sharers),
                        outcome: AccessOutcome::L1Hit,
                        invalidated: 0,
                        llc_insert: false,
                    }
                } else {
                    // Shared lines are (conservatively) present in the LLC.
                    let mut sharers = sharers;
                    sharers.insert(core);
                    Transition {
                        state: LineState::Shared(sharers),
                        outcome: AccessOutcome::LlcHit,
                        invalidated: 0,
                        llc_insert: true,
                    }
                }
            }
            None => Transition {
                state: LineState::Exclusive(core),
                outcome: if in_llc {
                    AccessOutcome::LlcHit
                } else {
                    AccessOutcome::Memory
                },
                invalidated: 0,
                llc_insert: true,
            },
        },
        AccessKind::Write => match prev {
            Some(LineState::Modified(owner)) => {
                if owner == core {
                    Transition {
                        state: LineState::Modified(owner),
                        outcome: AccessOutcome::L1Hit,
                        invalidated: 0,
                        llc_insert: false,
                    }
                } else {
                    // Read-for-ownership of a dirty line: invalidate owner.
                    Transition {
                        state: LineState::Modified(core),
                        outcome: AccessOutcome::RemoteDirty,
                        invalidated: 1,
                        llc_insert: false,
                    }
                }
            }
            Some(LineState::Exclusive(owner)) => {
                if owner == core {
                    // Silent E -> M upgrade.
                    Transition {
                        state: LineState::Modified(core),
                        outcome: AccessOutcome::L1Hit,
                        invalidated: 0,
                        llc_insert: false,
                    }
                } else {
                    Transition {
                        state: LineState::Modified(core),
                        outcome: AccessOutcome::RemoteClean,
                        invalidated: 1,
                        llc_insert: false,
                    }
                }
            }
            Some(LineState::Shared(sharers)) => {
                let holds_copy = sharers.contains(core);
                let victims = sharers.len() - u32::from(holds_copy);
                Transition {
                    state: LineState::Modified(core),
                    outcome: if victims == 0 {
                        AccessOutcome::UpgradeSole
                    } else {
                        AccessOutcome::UpgradeInvalidate
                    },
                    invalidated: u64::from(victims),
                    llc_insert: false,
                }
            }
            None => Transition {
                state: LineState::Modified(core),
                outcome: if in_llc {
                    AccessOutcome::LlcHit
                } else {
                    AccessOutcome::Memory
                },
                invalidated: 0,
                llc_insert: true,
            },
        },
    }
}

#[derive(Debug, Clone, Copy)]
struct LineEntry {
    state: LineState,
    /// The line is occupied by an in-flight coherence transaction until
    /// this time; later requests queue behind it.
    busy_until: Cycles,
}

/// Result of one directory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// How the access was satisfied.
    pub outcome: AccessOutcome,
    /// Cycles spent queued behind an in-flight transaction on the line.
    pub wait: Cycles,
    /// Cycles of the access itself.
    pub cost: Cycles,
}

impl AccessResult {
    /// Total latency charged to the issuing thread.
    pub fn latency(&self) -> Cycles {
        self.wait + self.cost
    }
}

/// The coherence directory of the simulated machine.
///
/// ```
/// use cheetah_sim::{AccessKind, AccessOutcome, CacheLineId, CoreId, Directory,
///                   LatencyModel};
/// let mut dir = Directory::new(LatencyModel::default());
/// let line = CacheLineId(7);
/// // Cold write allocates the line in Modified on core 0.
/// assert_eq!(dir.access(CoreId(0), line, AccessKind::Write, 0).outcome,
///            AccessOutcome::Memory);
/// // A write from core 1 is a dirty remote fetch that invalidates core 0.
/// let result = dir.access(CoreId(1), line, AccessKind::Write, 1_000);
/// assert_eq!(result.outcome, AccessOutcome::RemoteDirty);
/// assert_eq!(dir.stats().invalidations, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Directory {
    latency: LatencyModel,
    lines: FastMap<CacheLineId, LineEntry>,
    /// Extent overlay: contiguous line ranges `[start, end)` restored with
    /// one uniform MESI state by the sharded executor's extent write-back
    /// (sorted, disjoint, busy windows cleared). Per-line entries in
    /// `lines` always shadow the overlay, so the overlay never needs
    /// splitting when a single line inside a range diverges — the merge
    /// simply materialises that line into `lines`.
    overlay: Vec<(u64, u64, LineState)>,
    /// Lines that have ever been cached: the (infinite) shared LLC contents.
    llc: FastSet<CacheLineId>,
    /// Extent form of LLC residency (union with `llc`), sorted disjoint.
    llc_ranges: Vec<(u64, u64)>,
    /// Last line touched per core, for next-line prefetch detection.
    last_line: [Option<CacheLineId>; MAX_CORES as usize],
    stats: CoherenceStats,
}

impl Default for Directory {
    fn default() -> Self {
        Directory::new(LatencyModel::default())
    }
}

impl Directory {
    /// Creates an empty directory (all lines Invalid, LLC empty) using the
    /// given latency model for transaction costs.
    pub fn new(latency: LatencyModel) -> Self {
        Directory {
            latency,
            lines: FastMap::default(),
            overlay: Vec::new(),
            llc: FastSet::default(),
            llc_ranges: Vec::new(),
            last_line: [None; MAX_CORES as usize],
            stats: CoherenceStats::default(),
        }
    }

    /// Aggregate statistics accumulated so far.
    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    /// Number of lines currently tracked in a valid state (per-line entries
    /// plus lines covered by extent-overlay ranges; lines present in both
    /// count once).
    pub fn tracked_lines(&self) -> usize {
        let overlay_lines: u64 = self
            .overlay
            .iter()
            .map(|&(start, end, _)| end - start)
            .sum();
        // One binary search per per-line key beats scanning the key set per
        // range: O(|lines| log |overlay|), not O(|overlay| x |lines|).
        let shadowed = self
            .lines
            .keys()
            .filter(|l| overlay_state(&self.overlay, **l).is_some())
            .count() as u64;
        self.lines.len() + (overlay_lines - shadowed) as usize
    }

    /// Feeds the directory's *logical* contents into `hash`, for the
    /// determinism divergence witness (see
    /// [`MachineConfig::witness`](crate::MachineConfig)).
    ///
    /// "Logical" means the state the coherence protocol can observe, in a
    /// canonical order independent of representation: per-line MESI states
    /// (sorted by line id, per-line entries shadowing the extent overlay
    /// exactly as [`Directory::seed_of`] resolves them), LLC residency
    /// (the union of the per-line set and the extent ranges), per-core
    /// prefetch cursors, and the aggregate statistics. Busy windows are
    /// deliberately **excluded**: the classic loop leaves stale
    /// `busy_until` stamps on lines whose contention has already resolved,
    /// while the sharded write-back clears them — both representations
    /// mean "no pending transaction reaches into the next phase", which is
    /// the only thing busy windows are allowed to encode at a phase
    /// boundary.
    pub(crate) fn witness_digest(&self, hash: &mut cheetah_obs::Fnv64) {
        let mut ids: Vec<u64> = self.lines.keys().map(|l| l.0).collect();
        for &(start, end, _) in &self.overlay {
            for id in start..end {
                if !self.lines.contains_key(&CacheLineId(id)) {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        hash.write_u64(ids.len() as u64);
        for id in ids {
            let line = CacheLineId(id);
            let state = match self.lines.get(&line) {
                Some(entry) => entry.state,
                None => overlay_state(&self.overlay, line)
                    .expect("line id was collected from an overlay range"),
            };
            hash.write_u64(id);
            match state {
                LineState::Exclusive(core) => {
                    hash.write_u8(1);
                    hash.write_u64(u64::from(core.0));
                }
                LineState::Modified(core) => {
                    hash.write_u8(2);
                    hash.write_u64(u64::from(core.0));
                }
                LineState::Shared(sharers) => {
                    hash.write_u8(3);
                    hash.write_u64(sharers.0);
                }
            }
        }
        let mut llc_ids: Vec<u64> = self.llc.iter().map(|l| l.0).collect();
        for &(start, end) in &self.llc_ranges {
            for id in start..end {
                if !self.llc.contains(&CacheLineId(id)) {
                    llc_ids.push(id);
                }
            }
        }
        llc_ids.sort_unstable();
        llc_ids.dedup();
        hash.write_u64(llc_ids.len() as u64);
        for id in llc_ids {
            hash.write_u64(id);
        }
        let cursors: Vec<(u32, u64)> = (0..MAX_CORES)
            .zip(&self.last_line)
            .filter_map(|(core, line)| line.map(|line| (core, line.0)))
            .collect();
        hash.write_u64(cursors.len() as u64);
        for (core, line) in cursors {
            hash.write_u64(u64::from(core));
            hash.write_u64(line);
        }
        for count in [
            self.stats.l1_hits,
            self.stats.llc_hits,
            self.stats.memory,
            self.stats.remote_clean,
            self.stats.remote_dirty,
            self.stats.upgrade_sole,
            self.stats.upgrade_invalidate,
            self.stats.prefetched,
            self.stats.invalidations,
            self.stats.wait_cycles,
        ] {
            hash.write_u64(count);
        }
    }

    /// Simulates one access starting at time `now`; returns how it was
    /// satisfied and the full latency breakdown.
    ///
    /// Updates MESI state, the per-line busy window, the LLC presence set
    /// and the statistics counters (including `invalidations`, the number
    /// of remote line copies killed by write upgrades and
    /// read-for-ownership transfers).
    ///
    /// # Panics
    ///
    /// Panics if `core` is not below [`MAX_CORES`].
    pub fn access(
        &mut self,
        core: CoreId,
        line: CacheLineId,
        kind: AccessKind,
        now: Cycles,
    ) -> AccessResult {
        let last = &mut self.last_line[core.0 as usize];
        let sequential = last.is_some_and(|last| last.0 + 1 == line.0);
        *last = Some(line);
        self.access_inner(core, line, kind, now, sequential)
    }

    /// [`Directory::access`] with the next-line-prefetch condition supplied
    /// by the caller instead of the internal per-core last-line tracker.
    ///
    /// The sharded executor routes only a worker's *interacting* accesses
    /// through the shared directory; the worker's full access sequence —
    /// which is what the prefetcher observes — is known to its precompute
    /// pass, so that pass supplies `sequential` and the internal tracker is
    /// neither consulted nor updated (it is rewritten wholesale when the
    /// phase's shards merge back).
    pub(crate) fn access_hinted(
        &mut self,
        core: CoreId,
        line: CacheLineId,
        kind: AccessKind,
        now: Cycles,
        sequential: bool,
    ) -> AccessResult {
        self.access_inner(core, line, kind, now, sequential)
    }

    fn access_inner(
        &mut self,
        core: CoreId,
        line: CacheLineId,
        kind: AccessKind,
        now: Cycles,
        sequential: bool,
    ) -> AccessResult {
        // One probe resolves the line: a tracked line's entry carries its
        // state and busy window; only an untracked line consults the
        // overlay and the LLC. Overlay ranges carry no busy window (extent
        // write-back happens at phase joins, after every transaction
        // completed), so a new entry starts idle.
        let (entry, prev, in_llc) = match self.lines.entry(line) {
            Entry::Occupied(slot) => {
                let entry = slot.into_mut();
                let prev = entry.state;
                (entry, Some(prev), false)
            }
            Entry::Vacant(slot) => {
                let prev = overlay_state(&self.overlay, line);
                let in_llc = prev.is_none() && llc_contains(&self.llc, &self.llc_ranges, line);
                let entry = slot.insert(LineEntry {
                    state: LineState::Exclusive(core),
                    busy_until: 0,
                });
                (entry, prev, in_llc)
            }
        };
        // Queue behind any in-flight transaction on the line.
        let wait = entry.busy_until.saturating_sub(now);
        let t = transition(prev, in_llc, core, kind);
        entry.state = t.state;
        // Next-line prefetch: a sequential miss on an uncontended line is
        // hidden by the hardware prefetcher. The state transition and any
        // invalidations still stand; only the visible cost changes.
        let outcome = if wait == 0 && prefetchable(t.outcome) && sequential {
            AccessOutcome::Prefetched
        } else {
            t.outcome
        };
        let cost = self.latency.cost(outcome);
        // Transactions that move the line occupy it until they complete.
        if occupies_line(outcome) {
            entry.busy_until = now + wait + cost;
        }
        if t.llc_insert {
            self.llc.insert(line);
        }
        self.stats.invalidations += t.invalidated;
        self.stats.record(outcome);
        self.stats.wait_cycles += wait;
        AccessResult {
            outcome,
            wait,
            cost,
        }
    }

    // --- Sharded-execution hooks (crate-internal; see `crate::shard`). ---

    /// A line's seed state for worker-local simulation, with provenance:
    /// `from_map` is true when the state came from a *per-line* entry. The
    /// extent write-back needs this distinction — a line whose state lives
    /// in a per-line entry must be restored per line (the entry would
    /// shadow any overlay range written for it), while overlay-seeded and
    /// cold lines may fold into a range restore.
    pub(crate) fn seed_of(&self, line: CacheLineId) -> (Option<LineState>, bool) {
        match self.lines.get(&line) {
            Some(entry) => (Some(entry.state), true),
            None => (overlay_state(&self.overlay, line), false),
        }
    }

    /// Whether the LLC holds the line; seed-side companion of
    /// [`Directory::seed_of`] for cold lines.
    pub(crate) fn llc_resident(&self, line: CacheLineId) -> bool {
        llc_contains(&self.llc, &self.llc_ranges, line)
    }

    /// Overwrites every line of `[start, end)` with one uniform MESI state
    /// (busy windows cleared): the extent form of
    /// [`Directory::restore_line_state`], used when a sharded phase proves
    /// a whole private run of lines ended in the same state.
    ///
    /// The caller must ensure no *stale* per-line entry covers the range —
    /// per-line entries shadow the overlay, so such a line would keep its
    /// pre-phase state. The sharded write-back guarantees this by routing
    /// every line that was seeded from a per-line entry through
    /// [`Directory::restore_line_state`] instead.
    pub(crate) fn restore_extent(&mut self, start: u64, end: u64, state: LineState) {
        debug_assert!(start < end, "empty extent restore");
        // Splice the new range over whatever overlay ranges it overlaps,
        // preserving any non-overlapped head/tail pieces.
        let first = self.overlay.partition_point(|&(_, e, _)| e <= start);
        let mut replacement: Vec<(u64, u64, LineState)> = Vec::with_capacity(3);
        let mut last = first;
        if let Some(&(s, _, st)) = self.overlay.get(first) {
            if s < start {
                replacement.push((s, start, st));
            }
        }
        replacement.push((start, end, state));
        while let Some(&(s, e, st)) = self.overlay.get(last) {
            if s >= end {
                break;
            }
            if e > end {
                replacement.push((end, e, st));
            }
            last += 1;
        }
        // Merge with equal-state neighbours to keep the overlay compact.
        self.overlay.splice(first..last, replacement);
        let idx = self.overlay.partition_point(|&(_, e, _)| e < start);
        let mut i = idx.saturating_sub(1);
        while i + 1 < self.overlay.len() {
            let (s0, e0, st0) = self.overlay[i];
            let (s1, e1, st1) = self.overlay[i + 1];
            if e0 == s1 && st0 == st1 {
                self.overlay[i] = (s0, e1, st0);
                self.overlay.remove(i + 1);
            } else if s1 > end {
                break;
            } else {
                i += 1;
            }
        }
    }

    /// Marks every line of `[start, end)` LLC-resident (extent form of
    /// [`Directory::llc_insert`]; union semantics).
    pub(crate) fn llc_insert_range(&mut self, start: u64, end: u64) {
        debug_assert!(start < end, "empty LLC range");
        let first = self.llc_ranges.partition_point(|&(_, e)| e < start);
        let mut new_start = start;
        let mut new_end = end;
        let mut last = first;
        while let Some(&(s, e)) = self.llc_ranges.get(last) {
            if s > new_end {
                break;
            }
            new_start = new_start.min(s);
            new_end = new_end.max(e);
            last += 1;
        }
        self.llc_ranges
            .splice(first..last, std::iter::once((new_start, new_end)));
    }

    /// Overwrites a line's MESI state after a sharded phase simulated it
    /// locally (busy window cleared — every pre-phase transaction
    /// completes before any phase member starts, so the reader of
    /// [`Directory::seed_of`] never needs it).
    pub(crate) fn restore_line_state(&mut self, line: CacheLineId, state: LineState) {
        self.lines.insert(
            line,
            LineEntry {
                state,
                busy_until: 0,
            },
        );
    }

    /// The last line `core` touched, as seen by the prefetch tracker.
    pub(crate) fn last_line_for(&self, core: CoreId) -> Option<CacheLineId> {
        self.last_line[core.0 as usize]
    }

    /// Overwrites the prefetch tracker's last-line entry for `core`.
    pub(crate) fn set_last_line(&mut self, core: CoreId, line: Option<CacheLineId>) {
        self.last_line[core.0 as usize] = line;
    }

    /// Marks a line LLC-resident (write-back from a worker-local shard).
    pub(crate) fn llc_insert(&mut self, line: CacheLineId) {
        self.llc.insert(line);
    }

    /// Cycles an access issued at `now` would queue behind the line's
    /// in-flight transaction (0 when the line is idle or untracked).
    pub(crate) fn busy_wait(&self, line: CacheLineId, now: Cycles) -> Cycles {
        self.lines
            .get(&line)
            .map_or(0, |entry| entry.busy_until.saturating_sub(now))
    }

    /// Records an access whose outcome was precomputed outside the
    /// directory (a shard-merged L1 hit that only needed the busy-window
    /// check): counts the outcome and any queueing delay into the stats.
    pub(crate) fn record_precomputed(&mut self, outcome: AccessOutcome, wait: Cycles) {
        self.stats.record(outcome);
        self.stats.wait_cycles += wait;
    }

    /// Batch form of [`Directory::record_precomputed`] for `count` L1 hits
    /// with zero wait (a settled shard-merged hit run).
    pub(crate) fn record_hit_batch(&mut self, count: u64) {
        self.stats.l1_hits += count;
    }

    /// Absolute end of the line's in-flight transaction window (0 when the
    /// line is idle or untracked).
    pub(crate) fn busy_until_of(&self, line: CacheLineId) -> Cycles {
        self.lines.get(&line).map_or(0, |entry| entry.busy_until)
    }

    /// Adds a worker-local shard's statistics (private-line traffic
    /// simulated off the shared directory) into this directory's totals.
    pub(crate) fn absorb_stats(&mut self, stats: &CoherenceStats) {
        self.stats.absorb(stats);
    }
}

/// Looks a line up in an extent overlay (see [`Directory`]'s `overlay`).
fn overlay_state(overlay: &[(u64, u64, LineState)], line: CacheLineId) -> Option<LineState> {
    let idx = overlay.partition_point(|&(_, end, _)| end <= line.0);
    match overlay.get(idx) {
        Some(&(start, _, state)) if start <= line.0 => Some(state),
        _ => None,
    }
}

/// Whether the LLC holds the line: its per-line set or its extent ranges.
fn llc_contains(llc: &FastSet<CacheLineId>, ranges: &[(u64, u64)], line: CacheLineId) -> bool {
    if llc.contains(&line) {
        return true;
    }
    let idx = ranges.partition_point(|&(_, end)| end <= line.0);
    matches!(ranges.get(idx), Some(&(start, _)) if start <= line.0)
}

/// Whether an outcome keeps the line occupied for its duration.
pub(crate) fn occupies_line(outcome: AccessOutcome) -> bool {
    matches!(
        outcome,
        AccessOutcome::Memory
            | AccessOutcome::RemoteClean
            | AccessOutcome::RemoteDirty
            | AccessOutcome::UpgradeInvalidate
            | AccessOutcome::Prefetched
    )
}

/// Which misses the next-line prefetcher can hide.
pub(crate) fn prefetchable(outcome: AccessOutcome) -> bool {
    matches!(
        outcome,
        AccessOutcome::Memory
            | AccessOutcome::LlcHit
            | AccessOutcome::RemoteClean
            | AccessOutcome::RemoteDirty
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: CacheLineId = CacheLineId(100);
    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);
    const C2: CoreId = CoreId(2);

    /// Test helper driving the directory with a private monotonic clock so
    /// that queueing effects don't leak into outcome assertions.
    struct Driver {
        dir: Directory,
        now: Cycles,
    }

    impl Driver {
        fn new() -> Self {
            Driver {
                dir: Directory::default(),
                now: 0,
            }
        }

        fn access(&mut self, core: CoreId, line: CacheLineId, kind: AccessKind) -> AccessOutcome {
            let result = self.dir.access(core, line, kind, self.now);
            self.now += result.latency() + 1;
            result.outcome
        }
    }

    #[test]
    fn cold_read_is_memory_then_hits() {
        let mut d = Driver::new();
        assert_eq!(d.access(C0, L, AccessKind::Read), AccessOutcome::Memory);
        assert_eq!(d.access(C0, L, AccessKind::Read), AccessOutcome::L1Hit);
        assert_eq!(d.access(C0, L, AccessKind::Write), AccessOutcome::L1Hit);
        assert_eq!(d.dir.stats().invalidations, 0);
    }

    #[test]
    fn read_after_remote_write_is_dirty_transfer() {
        let mut d = Driver::new();
        d.access(C0, L, AccessKind::Write);
        assert_eq!(
            d.access(C1, L, AccessKind::Read),
            AccessOutcome::RemoteDirty
        );
        // Both now share; further reads hit locally.
        assert_eq!(d.access(C0, L, AccessKind::Read), AccessOutcome::L1Hit);
        assert_eq!(d.access(C1, L, AccessKind::Read), AccessOutcome::L1Hit);
    }

    #[test]
    fn write_ping_pong_counts_invalidations() {
        let mut d = Driver::new();
        d.access(C0, L, AccessKind::Write); // cold
        for _ in 0..10 {
            assert_eq!(
                d.access(C1, L, AccessKind::Write),
                AccessOutcome::RemoteDirty
            );
            assert_eq!(
                d.access(C0, L, AccessKind::Write),
                AccessOutcome::RemoteDirty
            );
        }
        assert_eq!(d.dir.stats().invalidations, 20);
    }

    #[test]
    fn write_to_shared_line_invalidates_all_other_sharers() {
        let mut d = Driver::new();
        d.access(C0, L, AccessKind::Read);
        d.access(C1, L, AccessKind::Read);
        d.access(C2, L, AccessKind::Read);
        let before = d.dir.stats().invalidations;
        assert_eq!(
            d.access(C0, L, AccessKind::Write),
            AccessOutcome::UpgradeInvalidate
        );
        assert_eq!(d.dir.stats().invalidations - before, 2);
    }

    #[test]
    fn sole_sharer_upgrade_is_cheap() {
        let mut d = Driver::new();
        d.access(C0, L, AccessKind::Read); // E on C0
        d.access(C1, L, AccessKind::Read); // S{0,1}
        d.access(C1, L, AccessKind::Write); // invalidate C0 -> M(C1)
        assert_eq!(d.access(C1, L, AccessKind::Write), AccessOutcome::L1Hit);
        // C1 is now the only holder; hammering it stays local.
        assert_eq!(d.access(C1, L, AccessKind::Write), AccessOutcome::L1Hit);
    }

    #[test]
    fn exclusive_read_by_other_core_is_clean_transfer() {
        let mut d = Driver::new();
        d.access(C0, L, AccessKind::Read); // E on C0
        assert_eq!(
            d.access(C1, L, AccessKind::Read),
            AccessOutcome::RemoteClean
        );
    }

    #[test]
    fn untouched_lines_miss_to_memory() {
        let mut d = Driver::new();
        d.access(C0, L, AccessKind::Read);
        d.access(C0, CacheLineId(200), AccessKind::Read);
        assert_eq!(
            d.access(C1, CacheLineId(300), AccessKind::Read),
            AccessOutcome::Memory
        );
    }

    #[test]
    fn sharer_set_operations() {
        let mut set = SharerSet::empty();
        assert!(set.is_empty());
        set.insert(CoreId(3));
        set.insert(CoreId(63));
        assert!(set.contains(CoreId(3)));
        assert!(set.contains(CoreId(63)));
        assert!(!set.contains(CoreId(4)));
        assert_eq!(set.len(), 2);
        let cores: Vec<_> = set.iter().collect();
        assert_eq!(cores, vec![CoreId(3), CoreId(63)]);
    }

    #[test]
    fn stats_outcome_counters_accumulate() {
        let mut d = Driver::new();
        d.access(C0, L, AccessKind::Write);
        d.access(C1, L, AccessKind::Write);
        d.access(C1, L, AccessKind::Write);
        let stats = d.dir.stats();
        assert_eq!(stats.total_accesses(), 3);
        assert_eq!(stats.memory, 1);
        assert_eq!(stats.remote_dirty, 1);
        assert_eq!(stats.l1_hits, 1);
    }

    #[test]
    fn same_core_threads_do_not_ping_pong() {
        // Two "threads" mapped onto the same core share the private cache:
        // no coherence traffic. This mirrors the paper's over-subscription
        // discussion (§2, Assumption 1).
        let mut d = Driver::new();
        d.access(C0, L, AccessKind::Write);
        for _ in 0..10 {
            assert_eq!(d.access(C0, L, AccessKind::Write), AccessOutcome::L1Hit);
        }
        assert_eq!(d.dir.stats().invalidations, 0);
    }

    #[test]
    fn concurrent_request_queues_behind_busy_line() {
        let mut dir = Directory::default();
        let lat = LatencyModel::default();
        dir.access(C0, L, AccessKind::Write, 0); // cold fill, busy until `memory`
                                                 // C1 requests 10 cycles in: must wait out the remaining fill.
        let result = dir.access(C1, L, AccessKind::Write, 10);
        assert_eq!(result.outcome, AccessOutcome::RemoteDirty);
        assert_eq!(result.wait, lat.memory - 10);
        assert_eq!(result.latency(), lat.memory - 10 + lat.remote_dirty);
        assert_eq!(dir.stats().wait_cycles, lat.memory - 10);
    }

    #[test]
    fn queued_transactions_serialise() {
        let mut dir = Directory::default();
        let lat = LatencyModel::default();
        dir.access(C0, L, AccessKind::Write, 0);
        let first = dir.access(C1, L, AccessKind::Write, 0);
        let second = dir.access(C2, L, AccessKind::Write, 0);
        // The second steal queues behind cold fill + first steal.
        assert_eq!(first.wait, lat.memory);
        assert_eq!(second.wait, lat.memory + lat.remote_dirty);
    }

    #[test]
    fn hits_do_not_extend_busy_window() {
        let mut dir = Directory::default();
        let lat = LatencyModel::default();
        dir.access(C0, L, AccessKind::Write, 0);
        // Hit by owner after the fill completes: no wait, no new busy.
        let hit = dir.access(C0, L, AccessKind::Write, lat.memory);
        assert_eq!(hit.outcome, AccessOutcome::L1Hit);
        assert_eq!(hit.wait, 0);
        let next = dir.access(C1, L, AccessKind::Read, lat.memory + 1);
        assert_eq!(next.wait, 0);
    }

    #[test]
    fn overlay_seeds_and_per_line_entries_shadow_it() {
        let mut dir = Directory::default();
        dir.restore_extent(10, 20, LineState::Exclusive(C0));
        // Overlay-covered lines seed without per-line provenance.
        assert_eq!(
            dir.seed_of(CacheLineId(15)),
            (Some(LineState::Exclusive(C0)), false)
        );
        assert_eq!(dir.seed_of(CacheLineId(9)), (None, false));
        assert_eq!(dir.seed_of(CacheLineId(20)), (None, false));
        // An access through the directory materialises a per-line entry,
        // which shadows the overlay from then on.
        let result = dir.access(C1, CacheLineId(15), AccessKind::Read, 0);
        assert_eq!(result.outcome, AccessOutcome::RemoteClean);
        let (state, from_map) = dir.seed_of(CacheLineId(15));
        assert!(from_map);
        assert!(matches!(state, Some(LineState::Shared(_))));
        // Untouched neighbours still read from the overlay.
        assert_eq!(
            dir.seed_of(CacheLineId(16)),
            (Some(LineState::Exclusive(C0)), false)
        );
    }

    #[test]
    fn overlay_splice_replaces_overlaps_and_keeps_tails() {
        let mut dir = Directory::default();
        dir.restore_extent(10, 30, LineState::Exclusive(C0));
        dir.restore_extent(15, 20, LineState::Modified(C1));
        for (line, expect) in [
            (10, LineState::Exclusive(C0)),
            (14, LineState::Exclusive(C0)),
            (15, LineState::Modified(C1)),
            (19, LineState::Modified(C1)),
            (20, LineState::Exclusive(C0)),
            (29, LineState::Exclusive(C0)),
        ] {
            assert_eq!(
                dir.seed_of(CacheLineId(line)),
                (Some(expect), false),
                "line {line}"
            );
        }
        // A restore spanning several existing ranges replaces them all.
        dir.restore_extent(12, 25, LineState::Exclusive(C2));
        assert_eq!(
            dir.seed_of(CacheLineId(18)),
            (Some(LineState::Exclusive(C2)), false)
        );
        assert_eq!(
            dir.seed_of(CacheLineId(25)),
            (Some(LineState::Exclusive(C0)), false)
        );
    }

    #[test]
    fn overlay_busy_window_is_clear() {
        let mut dir = Directory::default();
        dir.restore_extent(5, 8, LineState::Modified(C0));
        assert_eq!(dir.busy_wait(CacheLineId(6), 0), 0);
        assert_eq!(dir.busy_until_of(CacheLineId(6)), 0);
    }

    #[test]
    fn llc_ranges_union_with_per_line_set() {
        let mut dir = Directory::default();
        dir.llc_insert_range(100, 200);
        dir.llc_insert(CacheLineId(500));
        assert!(dir.llc_resident(CacheLineId(100)));
        assert!(dir.llc_resident(CacheLineId(199)));
        assert!(!dir.llc_resident(CacheLineId(200)));
        assert!(dir.llc_resident(CacheLineId(500)));
        // Overlapping and touching inserts merge.
        dir.llc_insert_range(150, 250);
        dir.llc_insert_range(250, 300);
        assert!(dir.llc_resident(CacheLineId(299)));
        assert_eq!(dir.llc_ranges.len(), 1);
        // A cold read of an LLC-range line is an LLC refill, not memory.
        let result = dir.access(C0, CacheLineId(120), AccessKind::Read, 0);
        assert_eq!(result.outcome, AccessOutcome::LlcHit);
    }

    #[test]
    fn tracked_lines_counts_overlay_without_double_counting() {
        let mut dir = Directory::default();
        dir.restore_extent(0, 10, LineState::Exclusive(C0));
        assert_eq!(dir.tracked_lines(), 10);
        // Materialise one overlaid line into the per-line map.
        dir.access(C1, CacheLineId(3), AccessKind::Read, 0);
        assert_eq!(dir.tracked_lines(), 10);
        dir.access(C1, CacheLineId(50), AccessKind::Read, 0);
        assert_eq!(dir.tracked_lines(), 11);
    }

    #[test]
    fn idle_line_has_no_wait() {
        let mut dir = Directory::default();
        dir.access(C0, L, AccessKind::Write, 0);
        // Long after the transaction: no queueing.
        let result = dir.access(C1, L, AccessKind::Write, 1_000_000);
        assert_eq!(result.wait, 0);
    }
}
