//! Address-space conventions shared by the workspace, plus the layout
//! remapping API used by automated repair.
//!
//! The simulator itself treats addresses as opaque numbers; the allocator,
//! workloads and detector agree on this segmentation so that a profiler can
//! classify an address as heap, global or other in O(1) — the role the
//! paper's "driver" module plays when it filters sampled addresses.
//!
//! [`LayoutMap`] expresses a *layout transformation*: an ordered set of
//! disjoint source byte ranges, each redirected to a new base address.
//! Applying a map to a [`crate::Program`] (via
//! [`crate::Program::with_layout`]) rewrites only the addresses of its
//! memory operations — op streams, op counts, compute work and the
//! fork-join phase structure are untouched, so the transformed program is
//! semantically the same program with a different data layout. This is the
//! substrate `cheetah-repair` builds padding/alignment/splitting fixes on.

use crate::types::Addr;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// First byte of the global-variable segment.
pub const GLOBALS_BASE: Addr = Addr(0x1000_0000);
/// One past the last byte of the global-variable segment (256 MiB).
pub const GLOBALS_END: Addr = Addr(0x2000_0000);
/// First byte of the modelled heap segment.
pub const HEAP_BASE: Addr = Addr(0x4000_0000);
/// One past the last byte of the modelled heap segment (1 GiB).
pub const HEAP_END: Addr = Addr(0x8000_0000);

/// Segment classification of an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// Statically allocated globals.
    Globals,
    /// The modelled heap.
    Heap,
    /// Anything else (stack, kernel, libraries) — filtered out by the
    /// profiler, as in the paper.
    Other,
}

/// Classifies an address into its segment.
///
/// ```
/// use cheetah_sim::layout::{classify, Segment, HEAP_BASE};
/// use cheetah_sim::Addr;
/// assert_eq!(classify(HEAP_BASE), Segment::Heap);
/// assert_eq!(classify(Addr(0x10)), Segment::Other);
/// ```
pub fn classify(addr: Addr) -> Segment {
    if (GLOBALS_BASE..GLOBALS_END).contains(&addr) {
        Segment::Globals
    } else if (HEAP_BASE..HEAP_END).contains(&addr) {
        Segment::Heap
    } else {
        Segment::Other
    }
}

/// One rule of a [`LayoutMap`]: redirect `[from, from + len)` to
/// `[to, to + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Remapping {
    /// First source byte.
    pub from: Addr,
    /// Length of the range in bytes.
    pub len: u64,
    /// First target byte.
    pub to: Addr,
}

impl Remapping {
    /// Creates a rule.
    pub fn new(from: Addr, len: u64, to: Addr) -> Self {
        Remapping { from, len, to }
    }

    /// One past the last source byte.
    pub fn from_end(&self) -> Addr {
        Addr(self.from.0 + self.len)
    }

    /// One past the last target byte.
    pub fn to_end(&self) -> Addr {
        Addr(self.to.0 + self.len)
    }

    fn contains(&self, addr: Addr) -> bool {
        (self.from..self.from_end()).contains(&addr)
    }
}

impl fmt::Display for Remapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}) -> {}", self.from, self.from_end(), self.to)
    }
}

/// Errors from [`LayoutMap::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// A rule has zero length.
    EmptyRange(Remapping),
    /// Two rules' source ranges overlap — the translation would be
    /// ambiguous.
    OverlappingSources(Remapping, Remapping),
    /// Two rules' target ranges overlap — two distinct source bytes would
    /// alias, changing program semantics.
    OverlappingTargets(Remapping, Remapping),
    /// A rule's target range overlaps the source ranges only partially, so
    /// the vacated part and the left-in-place part of the target would
    /// alias distinct pre-rewrite addresses.
    TargetPartiallyCoversSource(Remapping),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::EmptyRange(rule) => write!(f, "empty remapping {rule}"),
            LayoutError::OverlappingSources(a, b) => {
                write!(f, "source ranges overlap: {a} and {b}")
            }
            LayoutError::OverlappingTargets(a, b) => {
                write!(f, "target ranges overlap: {a} and {b}")
            }
            LayoutError::TargetPartiallyCoversSource(rule) => {
                write!(
                    f,
                    "target range of {rule} partially overlaps a source range; \
                     translation would alias distinct addresses"
                )
            }
        }
    }
}

impl Error for LayoutError {}

/// An address-space transformation: disjoint source ranges redirected to
/// disjoint target ranges; every other address translates to itself.
///
/// ```
/// use cheetah_sim::layout::{LayoutMap, Remapping};
/// use cheetah_sim::Addr;
///
/// let map = LayoutMap::new(vec![
///     Remapping::new(Addr(0x100), 16, Addr(0x1000)),
///     Remapping::new(Addr(0x200), 16, Addr(0x2000)),
/// ])?;
/// assert_eq!(map.translate(Addr(0x104)), Addr(0x1004));
/// assert_eq!(map.translate(Addr(0x300)), Addr(0x300)); // unmapped
/// # Ok::<(), cheetah_sim::layout::LayoutError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LayoutMap {
    /// Rules sorted by source start.
    rules: Vec<Remapping>,
}

impl LayoutMap {
    /// Builds a map from rules, validating disjointness.
    ///
    /// A target range may coincide with source ranges *exactly* (swaps:
    /// the rewrite is applied in one step, so sources vacate their bytes)
    /// or avoid them entirely (fresh storage), but must not overlap them
    /// partially — the uncovered part of such a target would alias an
    /// address that still translates to itself.
    ///
    /// Translation is then injective over every address the map was built
    /// for, with one caveat no constructor can check: a target range must
    /// not collide with addresses the program uses *unmapped*. Allocating
    /// targets from fresh storage (as `cheetah-repair` does via the heap)
    /// guarantees this.
    ///
    /// # Errors
    ///
    /// [`LayoutError`] if any rule is empty, source or target ranges
    /// overlap each other, or a target partially covers a source.
    pub fn new(mut rules: Vec<Remapping>) -> Result<Self, LayoutError> {
        for rule in &rules {
            if rule.len == 0 {
                return Err(LayoutError::EmptyRange(*rule));
            }
        }
        rules.sort_by_key(|rule| rule.from);
        for pair in rules.windows(2) {
            if pair[1].from < pair[0].from_end() {
                return Err(LayoutError::OverlappingSources(pair[0], pair[1]));
            }
        }
        let mut by_target = rules.clone();
        by_target.sort_by_key(|rule| rule.to);
        for pair in by_target.windows(2) {
            if pair[1].to < pair[0].to_end() {
                return Err(LayoutError::OverlappingTargets(pair[0], pair[1]));
            }
        }
        for rule in &by_target {
            // Bytes of this target that fall inside some source range are
            // vacated by the rewrite; the rest stay identity-mapped. A mix
            // of the two would alias, so require all or nothing.
            let covered: u64 = rules
                .iter()
                .map(|source| {
                    let start = rule.to.0.max(source.from.0);
                    let end = rule.to_end().0.min(source.from_end().0);
                    end.saturating_sub(start)
                })
                .sum();
            if covered != 0 && covered != rule.len {
                return Err(LayoutError::TargetPartiallyCoversSource(*rule));
            }
        }
        Ok(LayoutMap { rules })
    }

    /// The identity transformation.
    pub fn identity() -> Self {
        LayoutMap::default()
    }

    /// Whether the map changes nothing.
    pub fn is_identity(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rules, sorted by source start.
    pub fn rules(&self) -> &[Remapping] {
        &self.rules
    }

    /// Translates one address.
    pub fn translate(&self, addr: Addr) -> Addr {
        // Binary search for the last rule starting at or before `addr`.
        let index = self.rules.partition_point(|rule| rule.from <= addr);
        if index == 0 {
            return addr;
        }
        let rule = &self.rules[index - 1];
        if rule.contains(addr) {
            Addr(rule.to.0 + (addr.0 - rule.from.0))
        } else {
            addr
        }
    }

    /// Translates the byte range `[start, end)`, splitting it at remapping
    /// boundaries; returns the translated pieces (unsorted, possibly
    /// touching). Used to push [`crate::footprint`] extents through a
    /// layout rewrite without enumerating addresses.
    ///
    /// ```
    /// use cheetah_sim::layout::{LayoutMap, Remapping};
    /// use cheetah_sim::Addr;
    /// let map = LayoutMap::new(vec![Remapping::new(Addr(0x120), 0x20, Addr(0x1000))])?;
    /// let mut pieces = map.translate_range(0x100, 0x180);
    /// pieces.sort_unstable();
    /// assert_eq!(pieces, vec![(0x100, 0x120), (0x140, 0x180), (0x1000, 0x1020)]);
    /// # Ok::<(), cheetah_sim::layout::LayoutError>(())
    /// ```
    pub fn translate_range(&self, start: u64, end: u64) -> Vec<(u64, u64)> {
        let mut pieces = Vec::new();
        let mut cursor = start;
        // Rules are sorted by source start; walk the ones overlapping the
        // range, emitting identity gaps between them.
        let mut idx = self
            .rules
            .partition_point(|rule| rule.from_end().0 <= start);
        while cursor < end && idx < self.rules.len() {
            let rule = &self.rules[idx];
            if rule.from.0 >= end {
                break;
            }
            if cursor < rule.from.0 {
                pieces.push((cursor, rule.from.0));
                cursor = rule.from.0;
            }
            let stop = end.min(rule.from_end().0);
            let offset = cursor - rule.from.0;
            pieces.push((rule.to.0 + offset, rule.to.0 + (stop - rule.from.0)));
            cursor = stop;
            idx += 1;
        }
        if cursor < end {
            pieces.push((cursor, end));
        }
        pieces
    }

    /// Wraps the map for sharing across the per-thread streams of a
    /// rewritten program.
    pub fn shared(self) -> Arc<LayoutMap> {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_do_not_overlap() {
        assert!(GLOBALS_END <= HEAP_BASE);
        assert!(GLOBALS_BASE < GLOBALS_END);
        assert!(HEAP_BASE < HEAP_END);
    }

    #[test]
    fn translate_inside_and_outside_ranges() {
        let map = LayoutMap::new(vec![
            Remapping::new(Addr(0x100), 8, Addr(0x1000)),
            Remapping::new(Addr(0x140), 8, Addr(0x2000)),
        ])
        .unwrap();
        assert_eq!(map.translate(Addr(0x100)), Addr(0x1000));
        assert_eq!(map.translate(Addr(0x107)), Addr(0x1007));
        assert_eq!(map.translate(Addr(0x108)), Addr(0x108));
        assert_eq!(map.translate(Addr(0x141)), Addr(0x2001));
        assert_eq!(map.translate(Addr(0xff)), Addr(0xff));
        assert!(!map.is_identity());
        assert!(LayoutMap::identity().is_identity());
        assert_eq!(LayoutMap::identity().translate(Addr(0x100)), Addr(0x100));
    }

    #[test]
    fn rejects_overlaps_and_empty_rules() {
        assert!(matches!(
            LayoutMap::new(vec![Remapping::new(Addr(0x100), 0, Addr(0x1000))]),
            Err(LayoutError::EmptyRange(_))
        ));
        assert!(matches!(
            LayoutMap::new(vec![
                Remapping::new(Addr(0x100), 16, Addr(0x1000)),
                Remapping::new(Addr(0x108), 16, Addr(0x2000)),
            ]),
            Err(LayoutError::OverlappingSources(_, _))
        ));
        assert!(matches!(
            LayoutMap::new(vec![
                Remapping::new(Addr(0x100), 16, Addr(0x1000)),
                Remapping::new(Addr(0x200), 16, Addr(0x1008)),
            ]),
            Err(LayoutError::OverlappingTargets(_, _))
        ));
    }

    #[test]
    fn rejects_target_partially_covering_a_source() {
        // Target [0x108, 0x118) half-covers source [0x100, 0x110): the
        // vacated half and the identity half would alias.
        assert!(matches!(
            LayoutMap::new(vec![Remapping::new(Addr(0x100), 16, Addr(0x108))]),
            Err(LayoutError::TargetPartiallyCoversSource(_))
        ));
        // Exact coverage (a swap) is fine and stays injective.
        let swap = LayoutMap::new(vec![
            Remapping::new(Addr(0x100), 16, Addr(0x200)),
            Remapping::new(Addr(0x200), 16, Addr(0x100)),
        ])
        .unwrap();
        assert_eq!(swap.translate(Addr(0x104)), Addr(0x204));
        assert_eq!(swap.translate(Addr(0x204)), Addr(0x104));
    }

    #[test]
    fn translate_is_injective_over_mapped_and_unmapped_space() {
        let map = LayoutMap::new(vec![
            Remapping::new(Addr(0x100), 64, Addr(0x5000)),
            Remapping::new(Addr(0x180), 64, Addr(0x6000)),
        ])
        .unwrap();
        let mut seen = std::collections::HashSet::new();
        for raw in 0x0u64..0x400 {
            assert!(seen.insert(map.translate(Addr(raw))), "alias at {raw:#x}");
        }
    }

    #[test]
    fn classify_boundaries() {
        assert_eq!(classify(GLOBALS_BASE), Segment::Globals);
        assert_eq!(classify(Addr(GLOBALS_END.0 - 1)), Segment::Globals);
        assert_eq!(classify(GLOBALS_END), Segment::Other);
        assert_eq!(classify(HEAP_BASE), Segment::Heap);
        assert_eq!(classify(Addr(HEAP_END.0 - 1)), Segment::Heap);
        assert_eq!(classify(HEAP_END), Segment::Other);
        assert_eq!(classify(Addr(0)), Segment::Other);
    }
}
