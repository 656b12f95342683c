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
use crate::util::FastMap;
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

/// log2 of the lines per [`LineTable`] page.
const PAGE_SHIFT: u32 = 6;

/// Lines per [`LineTable`] page: one bit each of a `u64` mask.
const PAGE_LINES: usize = 1 << PAGE_SHIFT;

/// One page of the [`LineTable`]: 64 consecutive line ids.
#[derive(Clone)]
struct Page {
    /// Page number: the page holds lines `page * 64 .. page * 64 + 64`.
    page: u64,
    /// Lines with a MESI entry (bit `i` is line `page * 64 + i`). The
    /// entry of a clear bit is unused.
    present: u64,
    /// Lines the shared LLC holds, whether or not they have an entry.
    llc: u64,
    /// Boxed, so that growing the table moves page headers, never entries.
    entries: Box<[LineEntry; PAGE_LINES]>,
}

impl Page {
    fn new(page: u64) -> Page {
        let unused = LineEntry {
            state: LineState::Exclusive(CoreId(0)),
            busy_until: 0,
        };
        Page {
            page,
            present: 0,
            llc: 0,
            entries: Box::new([unused; PAGE_LINES]),
        }
    }
}

/// The bit of `line` in its page's masks.
#[inline]
fn page_bit(line: u64) -> usize {
    line as usize & (PAGE_LINES - 1)
}

/// The set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// The per-line state of a [`Directory`]: the MESI entry and LLC bit of
/// every line it tracks one by one, in dense 64-line pages.
///
/// `index` maps a page number to the page's slot in `pages`. Pages are
/// never removed (private caches never evict, the LLC is infinite), so a
/// slot stays valid for the table's lifetime: callers keep one as a
/// cursor. Growing `pages` copies 32-byte page headers; the entries stay
/// where they are.
///
/// A page costs ≈ 1.6 KB (64 × 24-byte entries, its header and its index
/// slot): 24 bytes per line where touched lines are dense, as the
/// workloads' arrays and structs are. The sparse worst case, one touched
/// line per page (a stride of 4 KB or more), pays the whole page for that
/// line.
#[derive(Clone, Default)]
struct LineTable {
    pages: Vec<Page>,
    index: FastMap<u64, u32>,
    /// Lines with a MESI entry, over all pages.
    lines: usize,
}

impl LineTable {
    /// The slot of `line`'s page, if the table has it.
    #[inline]
    fn slot(&self, line: u64) -> Option<usize> {
        self.index
            .get(&(line >> PAGE_SHIFT))
            .map(|&slot| slot as usize)
    }

    /// The slot of `line`'s page, adding an empty page if there is none.
    fn slot_or_insert(&mut self, line: u64) -> usize {
        match self.index.entry(line >> PAGE_SHIFT) {
            Entry::Occupied(slot) => *slot.get() as usize,
            Entry::Vacant(slot) => {
                let new = self.pages.len();
                slot.insert(new as u32);
                self.pages.push(Page::new(line >> PAGE_SHIFT));
                new
            }
        }
    }

    /// Sets `line`'s entry in page `slot`, counting a newly tracked line.
    #[inline]
    fn fill(&mut self, slot: usize, line: u64, entry: LineEntry) {
        let page = &mut self.pages[slot];
        let bit = page_bit(line);
        self.lines += usize::from(page.present >> bit & 1 == 0);
        page.present |= 1 << bit;
        page.entries[bit] = entry;
    }

    /// `line`'s MESI entry, if it has one.
    fn entry(&self, line: u64) -> Option<&LineEntry> {
        let page = &self.pages[self.slot(line)?];
        let bit = page_bit(line);
        (page.present >> bit & 1 != 0).then(|| &page.entries[bit])
    }

    /// Whether `line`'s LLC bit is set.
    fn llc(&self, line: u64) -> bool {
        self.slot(line)
            .is_some_and(|slot| self.pages[slot].llc >> page_bit(line) & 1 != 0)
    }

    /// Every line with a MESI entry, with the entry (page by page, not in
    /// id order).
    fn entries(&self) -> impl Iterator<Item = (u64, &LineEntry)> {
        self.pages.iter().flat_map(|page| {
            bits(page.present)
                .map(move |bit| ((page.page << PAGE_SHIFT) + bit as u64, &page.entries[bit]))
        })
    }

    /// Every line whose LLC bit is set (page by page, not in id order).
    fn llc_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages
            .iter()
            .flat_map(|page| bits(page.llc).map(move |bit| (page.page << PAGE_SHIFT) + bit as u64))
    }
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
/// Line state lives in two forms. A line tracked one by one has an entry in
/// a table of dense 64-line pages, each holding the MESI entries of its
/// lines plus a presence mask and an LLC mask, so a cold line costs one
/// page probe and the table never rehashes its lines. Each core keeps a
/// cursor on the page it touched last, which most of its accesses hit. The
/// sharded executor also restores whole runs of lines as extents (an
/// overlay of uniform-state ranges and a list of LLC ranges), which table
/// entries shadow. Its `Debug` form is a summary: table lines and pages,
/// overlay and LLC ranges.
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
#[derive(Clone)]
pub struct Directory {
    latency: LatencyModel,
    /// MESI entries and LLC bits of the lines tracked one by one.
    table: LineTable,
    /// Extent overlay: contiguous line ranges `[start, end)` restored with
    /// one uniform MESI state by the sharded executor's extent write-back
    /// (sorted, disjoint, busy windows cleared). Table entries always
    /// shadow the overlay, so the overlay never needs splitting when a
    /// single line inside a range diverges — the merge simply
    /// materialises that line into the table.
    overlay: Vec<(u64, u64, LineState)>,
    /// Extent form of LLC residency (union with the table's LLC bits),
    /// sorted disjoint.
    llc_ranges: Vec<(u64, u64)>,
    /// Last line touched per core, for next-line prefetch detection.
    last_line: [Option<CacheLineId>; MAX_CORES as usize],
    /// Per core, the table slot of the page it accessed last. Per core
    /// because the classic loop interleaves cores' accesses, which would
    /// thrash a single cursor.
    page_cursor: [u32; MAX_CORES as usize],
    stats: CoherenceStats,
}

impl std::fmt::Debug for Directory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Directory")
            .field("lines", &self.table.lines)
            .field("pages", &self.table.pages.len())
            .field("overlay_ranges", &self.overlay.len())
            .field("llc_ranges", &self.llc_ranges.len())
            .finish_non_exhaustive()
    }
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
            table: LineTable::default(),
            overlay: Vec::new(),
            llc_ranges: Vec::new(),
            last_line: [None; MAX_CORES as usize],
            page_cursor: [0; MAX_CORES as usize],
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
        // One binary search per table entry beats scanning the entries per
        // range: O(|entries| log |overlay|), not O(|overlay| x |entries|).
        let shadowed = self
            .table
            .entries()
            .filter(|&(id, _)| overlay_state(&self.overlay, CacheLineId(id)).is_some())
            .count() as u64;
        self.table.lines + (overlay_lines - shadowed) as usize
    }

    /// Lines with a per-line entry in the directory's table (O(1)).
    pub(crate) fn table_lines(&self) -> usize {
        self.table.lines
    }

    /// Pages of the directory's table (O(1)).
    pub(crate) fn table_pages(&self) -> usize {
        self.table.pages.len()
    }

    /// Feeds the directory's *logical* contents into `hash`, for the
    /// determinism divergence witness (see
    /// [`MachineConfig::witness`](crate::MachineConfig)).
    ///
    /// "Logical" means the state the coherence protocol can observe, in a
    /// canonical order independent of representation: per-line MESI states
    /// (sorted by line id, table entries shadowing the extent overlay
    /// exactly as [`Directory::seed_of`] resolves them), LLC residency
    /// (the union of the table's LLC bits and the extent ranges), per-core
    /// prefetch cursors, and the aggregate statistics. Busy windows are
    /// deliberately **excluded**: the classic loop leaves stale
    /// `busy_until` stamps on lines whose contention has already resolved,
    /// while the sharded write-back clears them — both representations
    /// mean "no pending transaction reaches into the next phase", which is
    /// the only thing busy windows are allowed to encode at a phase
    /// boundary. Page cursors are a lookup aid, not state.
    pub(crate) fn witness_digest(&self, hash: &mut cheetah_obs::Fnv64) {
        let mut lines: Vec<(u64, LineState)> =
            self.table.entries().map(|(id, e)| (id, e.state)).collect();
        for &(start, end, state) in &self.overlay {
            lines.extend(
                (start..end)
                    .filter(|&id| self.table.entry(id).is_none())
                    .map(|id| (id, state)),
            );
        }
        lines.sort_unstable_by_key(|&(id, _)| id);
        let mut llc: Vec<u64> = self.table.llc_lines().collect();
        for &(start, end) in &self.llc_ranges {
            llc.extend((start..end).filter(|&id| !self.table.llc(id)));
        }
        llc.sort_unstable();
        digest_logical(hash, &lines, &llc, &self.last_line, &self.stats);
    }

    /// Simulates one access starting at time `now`; returns how it was
    /// satisfied and the full latency breakdown.
    ///
    /// Updates MESI state, the per-line busy window, LLC residency and the
    /// statistics counters (including `invalidations`, the number of
    /// remote line copies killed by write upgrades and read-for-ownership
    /// transfers).
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
        let cursor = &mut self.page_cursor[core.0 as usize];
        let slot = match self.table.pages.get(*cursor as usize) {
            Some(page) if page.page == line.0 >> PAGE_SHIFT => *cursor as usize,
            _ => {
                let slot = self.table.slot_or_insert(line.0);
                *cursor = slot as u32;
                slot
            }
        };
        let bit = page_bit(line.0);
        let mask = 1u64 << bit;
        // A tracked line's entry carries its state and busy window; only
        // an untracked line consults the overlay and the LLC. Overlay
        // ranges carry no busy window (extent write-back happens at phase
        // joins, after every transaction completed), so a new entry starts
        // idle.
        let page = &self.table.pages[slot];
        let (prev, in_llc) = if page.present & mask != 0 {
            (Some(page.entries[bit].state), false)
        } else {
            let prev = overlay_state(&self.overlay, line);
            let in_llc = prev.is_none()
                && (page.llc & mask != 0 || range_contains(&self.llc_ranges, line.0));
            self.table.fill(
                slot,
                line.0,
                LineEntry {
                    state: LineState::Exclusive(core),
                    busy_until: 0,
                },
            );
            (prev, in_llc)
        };
        let page = &mut self.table.pages[slot];
        let entry = &mut page.entries[bit];
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
            page.llc |= mask;
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
        match self.table.entry(line.0) {
            Some(entry) => (Some(entry.state), true),
            None => (overlay_state(&self.overlay, line), false),
        }
    }

    /// Whether the LLC holds the line; seed-side companion of
    /// [`Directory::seed_of`] for cold lines.
    pub(crate) fn llc_resident(&self, line: CacheLineId) -> bool {
        self.table.llc(line.0) || range_contains(&self.llc_ranges, line.0)
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
        splice_overlay(&mut self.overlay, start, end, state);
    }

    /// Marks every line of `[start, end)` LLC-resident (extent form of
    /// [`Directory::llc_insert`]; union semantics).
    pub(crate) fn llc_insert_range(&mut self, start: u64, end: u64) {
        insert_range(&mut self.llc_ranges, start, end);
    }

    /// Overwrites a line's MESI state after a sharded phase simulated it
    /// locally (busy window cleared — every pre-phase transaction
    /// completes before any phase member starts, so the reader of
    /// [`Directory::seed_of`] never needs it).
    pub(crate) fn restore_line_state(&mut self, line: CacheLineId, state: LineState) {
        let slot = self.table.slot_or_insert(line.0);
        self.table.fill(
            slot,
            line.0,
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
        let slot = self.table.slot_or_insert(line.0);
        self.table.pages[slot].llc |= 1 << page_bit(line.0);
    }

    /// Cycles an access issued at `now` would queue behind the line's
    /// in-flight transaction (0 when the line is idle or untracked).
    pub(crate) fn busy_wait(&self, line: CacheLineId, now: Cycles) -> Cycles {
        self.busy_until_of(line).saturating_sub(now)
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
        self.table.entry(line.0).map_or(0, |entry| entry.busy_until)
    }

    /// Adds a worker-local shard's statistics (private-line traffic
    /// simulated off the shared directory) into this directory's totals.
    pub(crate) fn absorb_stats(&mut self, stats: &CoherenceStats) {
        self.stats.absorb(stats);
    }
}

/// Writes a directory's logical contents into `hash`: its lines with their
/// MESI states and its LLC-resident lines, each sorted by id, then the
/// per-core prefetch cursors and the statistics.
fn digest_logical(
    hash: &mut cheetah_obs::Fnv64,
    lines: &[(u64, LineState)],
    llc: &[u64],
    last_line: &[Option<CacheLineId>],
    stats: &CoherenceStats,
) {
    hash.write_u64(lines.len() as u64);
    for &(id, state) in lines {
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
    hash.write_u64(llc.len() as u64);
    for &id in llc {
        hash.write_u64(id);
    }
    let cursors: Vec<(u32, u64)> = (0..MAX_CORES)
        .zip(last_line)
        .filter_map(|(core, line)| line.map(|line| (core, line.0)))
        .collect();
    hash.write_u64(cursors.len() as u64);
    for (core, line) in cursors {
        hash.write_u64(u64::from(core));
        hash.write_u64(line);
    }
    for count in [
        stats.l1_hits,
        stats.llc_hits,
        stats.memory,
        stats.remote_clean,
        stats.remote_dirty,
        stats.upgrade_sole,
        stats.upgrade_invalidate,
        stats.prefetched,
        stats.invalidations,
        stats.wait_cycles,
    ] {
        hash.write_u64(count);
    }
}

/// Splices the range `[start, end)` with `state` over an extent overlay
/// (see [`Directory`]'s `overlay`), keeping the non-overlapped head and
/// tail of the ranges it covers and merging equal-state neighbours.
fn splice_overlay(
    overlay: &mut Vec<(u64, u64, LineState)>,
    start: u64,
    end: u64,
    state: LineState,
) {
    debug_assert!(start < end, "empty extent restore");
    let first = overlay.partition_point(|&(_, e, _)| e <= start);
    let mut replacement: Vec<(u64, u64, LineState)> = Vec::with_capacity(3);
    let mut last = first;
    if let Some(&(s, _, st)) = overlay.get(first) {
        if s < start {
            replacement.push((s, start, st));
        }
    }
    replacement.push((start, end, state));
    while let Some(&(s, e, st)) = overlay.get(last) {
        if s >= end {
            break;
        }
        if e > end {
            replacement.push((end, e, st));
        }
        last += 1;
    }
    // Merge with equal-state neighbours to keep the overlay compact.
    overlay.splice(first..last, replacement);
    let idx = overlay.partition_point(|&(_, e, _)| e < start);
    let mut i = idx.saturating_sub(1);
    while i + 1 < overlay.len() {
        let (s0, e0, st0) = overlay[i];
        let (s1, e1, st1) = overlay[i + 1];
        if e0 == s1 && st0 == st1 {
            overlay[i] = (s0, e1, st0);
            overlay.remove(i + 1);
        } else if s1 > end {
            break;
        } else {
            i += 1;
        }
    }
}

/// Adds `[start, end)` to a sorted disjoint range list, merging every
/// range it overlaps or touches.
fn insert_range(ranges: &mut Vec<(u64, u64)>, start: u64, end: u64) {
    debug_assert!(start < end, "empty LLC range");
    let first = ranges.partition_point(|&(_, e)| e < start);
    let mut new_start = start;
    let mut new_end = end;
    let mut last = first;
    while let Some(&(s, e)) = ranges.get(last) {
        if s > new_end {
            break;
        }
        new_start = new_start.min(s);
        new_end = new_end.max(e);
        last += 1;
    }
    ranges.splice(first..last, std::iter::once((new_start, new_end)));
}

/// Looks a line up in an extent overlay (see [`Directory`]'s `overlay`).
fn overlay_state(overlay: &[(u64, u64, LineState)], line: CacheLineId) -> Option<LineState> {
    let idx = overlay.partition_point(|&(_, end, _)| end <= line.0);
    match overlay.get(idx) {
        Some(&(start, _, state)) if start <= line.0 => Some(state),
        _ => None,
    }
}

/// Whether a sorted disjoint range list holds `line`.
fn range_contains(ranges: &[(u64, u64)], line: u64) -> bool {
    let idx = ranges.partition_point(|&(_, end)| end <= line);
    matches!(ranges.get(idx), Some(&(start, _)) if start <= line)
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
        // Materialise one overlaid line into the table.
        dir.access(C1, CacheLineId(3), AccessKind::Read, 0);
        assert_eq!(dir.tracked_lines(), 10);
        dir.access(C1, CacheLineId(50), AccessKind::Read, 0);
        assert_eq!(dir.tracked_lines(), 11);
        // `Debug` summarises the table instead of printing its pages.
        assert_eq!(
            format!("{dir:?}"),
            "Directory { lines: 2, pages: 1, overlay_ranges: 1, llc_ranges: 0, .. }"
        );
    }

    #[test]
    fn idle_line_has_no_wait() {
        let mut dir = Directory::default();
        dir.access(C0, L, AccessKind::Write, 0);
        // Long after the transaction: no queueing.
        let result = dir.access(C1, L, AccessKind::Write, 1_000_000);
        assert_eq!(result.wait, 0);
    }
    /// The per-line `FastMap` and LLC `FastSet` the paged table replaced,
    /// kept as its test oracle; overlay and LLC ranges go through the same
    /// helpers as [`Directory`]'s.
    struct MapDirectory {
        latency: LatencyModel,
        lines: crate::util::FastMap<CacheLineId, LineEntry>,
        overlay: Vec<(u64, u64, LineState)>,
        llc: crate::util::FastSet<CacheLineId>,
        llc_ranges: Vec<(u64, u64)>,
        last_line: [Option<CacheLineId>; MAX_CORES as usize],
        stats: CoherenceStats,
    }

    impl MapDirectory {
        fn new() -> Self {
            MapDirectory {
                latency: LatencyModel::default(),
                lines: Default::default(),
                overlay: Vec::new(),
                llc: Default::default(),
                llc_ranges: Vec::new(),
                last_line: [None; MAX_CORES as usize],
                stats: CoherenceStats::default(),
            }
        }

        fn access(
            &mut self,
            core: CoreId,
            line: CacheLineId,
            kind: AccessKind,
            now: Cycles,
            hint: Option<bool>,
        ) -> AccessResult {
            let sequential = hint.unwrap_or_else(|| {
                let last = &mut self.last_line[core.0 as usize];
                let sequential = last.is_some_and(|last| last.0 + 1 == line.0);
                *last = Some(line);
                sequential
            });
            let (entry, prev, in_llc) = match self.lines.entry(line) {
                Entry::Occupied(slot) => {
                    let entry = slot.into_mut();
                    let prev = entry.state;
                    (entry, Some(prev), false)
                }
                Entry::Vacant(slot) => {
                    let prev = overlay_state(&self.overlay, line);
                    let in_llc = prev.is_none()
                        && (self.llc.contains(&line) || range_contains(&self.llc_ranges, line.0));
                    let entry = slot.insert(LineEntry {
                        state: LineState::Exclusive(core),
                        busy_until: 0,
                    });
                    (entry, prev, in_llc)
                }
            };
            let wait = entry.busy_until.saturating_sub(now);
            let t = transition(prev, in_llc, core, kind);
            entry.state = t.state;
            let outcome = if wait == 0 && prefetchable(t.outcome) && sequential {
                AccessOutcome::Prefetched
            } else {
                t.outcome
            };
            let cost = self.latency.cost(outcome);
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

        fn seed_of(&self, line: CacheLineId) -> (Option<LineState>, bool) {
            match self.lines.get(&line) {
                Some(entry) => (Some(entry.state), true),
                None => (overlay_state(&self.overlay, line), false),
            }
        }

        fn llc_resident(&self, line: CacheLineId) -> bool {
            self.llc.contains(&line) || range_contains(&self.llc_ranges, line.0)
        }

        fn busy_until_of(&self, line: CacheLineId) -> Cycles {
            self.lines.get(&line).map_or(0, |entry| entry.busy_until)
        }

        fn restore_line_state(&mut self, line: CacheLineId, state: LineState) {
            self.lines.insert(
                line,
                LineEntry {
                    state,
                    busy_until: 0,
                },
            );
        }

        fn tracked_lines(&self) -> usize {
            let overlay_lines: u64 = self.overlay.iter().map(|&(s, e, _)| e - s).sum();
            let shadowed = self
                .lines
                .keys()
                .filter(|l| overlay_state(&self.overlay, **l).is_some())
                .count() as u64;
            self.lines.len() + (overlay_lines - shadowed) as usize
        }

        fn witness(&self) -> u64 {
            let mut ids: Vec<u64> = self.lines.keys().map(|l| l.0).collect();
            for &(start, end, _) in &self.overlay {
                ids.extend((start..end).filter(|&id| !self.lines.contains_key(&CacheLineId(id))));
            }
            ids.sort_unstable();
            let lines: Vec<(u64, LineState)> = ids
                .into_iter()
                .map(|id| (id, self.seed_of(CacheLineId(id)).0.expect("collected id")))
                .collect();
            let mut llc: Vec<u64> = self.llc.iter().map(|l| l.0).collect();
            for &(start, end) in &self.llc_ranges {
                llc.extend((start..end).filter(|&id| !self.llc.contains(&CacheLineId(id))));
            }
            llc.sort_unstable();
            llc.dedup();
            let mut hash = cheetah_obs::Fnv64::new();
            digest_logical(&mut hash, &lines, &llc, &self.last_line, &self.stats);
            hash.finish()
        }
    }

    fn witness(dir: &Directory) -> u64 {
        let mut hash = cheetah_obs::Fnv64::new();
        dir.witness_digest(&mut hash);
        hash.finish()
    }

    /// SplitMix64: a seeded, dependency-free generator for the oracle test.
    fn next(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Seeded random sequences of accesses from several cores, extent and
    /// per-line restores and LLC inserts give the paged table and the
    /// map oracle identical results and identical observable state after
    /// every step. Lines cluster around page boundaries (63/64/65, …) and
    /// in pages far apart; every 200 steps the table continues
    /// from a clone, as a resumed checkpoint does.
    #[test]
    fn paged_table_matches_map_oracle() {
        const BASES: [u64; 8] = [
            0,
            62,
            127,
            4_030,
            1 << 20,
            (1 << 20) + 64 * 1_000,
            (1 << 40) + 60,
            1 << 50,
        ];
        const CORES: u64 = 6;
        for seed in 1..=6u64 {
            let mut rng = seed;
            let mut paged = Directory::default();
            let mut oracle = MapDirectory::new();
            let mut now: Cycles = 0;
            let mut probes: Vec<u64> = Vec::new();
            for step in 0..600 {
                let pick_line = |rng: &mut u64| {
                    BASES[(next(rng) % BASES.len() as u64) as usize] + next(rng) % 8
                };
                let line = pick_line(&mut rng);
                let core = CoreId((next(&mut rng) % CORES) as u32);
                let state = match next(&mut rng) % 3 {
                    0 => LineState::Exclusive(core),
                    1 => LineState::Modified(core),
                    _ => LineState::Shared(SharerSet(next(&mut rng) % 63 + 1)),
                };
                let len = 1 + next(&mut rng) % 130;
                probes.push(line);
                match next(&mut rng) % 10 {
                    0..=5 => {
                        let kind = if next(&mut rng) & 1 == 0 {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        };
                        now += next(&mut rng) % 300;
                        let hint = match next(&mut rng) % 3 {
                            0 => Some(next(&mut rng) & 1 == 0),
                            _ => None,
                        };
                        let got = match hint {
                            Some(seq) => {
                                paged.access_hinted(core, CacheLineId(line), kind, now, seq)
                            }
                            None => paged.access(core, CacheLineId(line), kind, now),
                        };
                        let want = oracle.access(core, CacheLineId(line), kind, now, hint);
                        assert_eq!(got, want, "seed {seed} step {step}: access of line {line}");
                    }
                    6 => {
                        paged.restore_extent(line, line + len, state);
                        splice_overlay(&mut oracle.overlay, line, line + len, state);
                        probes.push(line + len - 1);
                    }
                    7 => {
                        paged.restore_line_state(CacheLineId(line), state);
                        oracle.restore_line_state(CacheLineId(line), state);
                    }
                    8 => {
                        // Half of these land in a fresh page far from any
                        // MESI entry.
                        let line = if next(&mut rng) & 1 == 0 {
                            (1 << 45) + next(&mut rng) % (1 << 20)
                        } else {
                            line
                        };
                        probes.push(line);
                        paged.llc_insert(CacheLineId(line));
                        oracle.llc.insert(CacheLineId(line));
                    }
                    _ => {
                        paged.llc_insert_range(line, line + len);
                        insert_range(&mut oracle.llc_ranges, line, line + len);
                        probes.push(line + len);
                    }
                }
                if step % 200 == 199 {
                    paged = paged.clone();
                }
                assert_eq!(paged.stats(), &oracle.stats, "seed {seed} step {step}");
                assert_eq!(
                    paged.tracked_lines(),
                    oracle.tracked_lines(),
                    "seed {seed} step {step}"
                );
                assert_eq!(witness(&paged), oracle.witness(), "seed {seed} step {step}");
                for &probe in &probes[probes.len().saturating_sub(64)..] {
                    let probe = CacheLineId(probe);
                    assert_eq!(
                        paged.seed_of(probe),
                        oracle.seed_of(probe),
                        "seed {seed} step {step}"
                    );
                    assert_eq!(
                        paged.llc_resident(probe),
                        oracle.llc_resident(probe),
                        "seed {seed} step {step}: LLC residency of {probe:?}"
                    );
                    assert_eq!(paged.busy_until_of(probe), oracle.busy_until_of(probe));
                }
            }
            assert!(
                paged.table_pages() > BASES.len(),
                "seed {seed}: too few pages exercised"
            );
        }
    }
}
