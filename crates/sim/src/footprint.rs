//! Access footprints: byte-range summaries of everything a stream may
//! touch, declared *before* the stream is consumed.
//!
//! Both parallel-phase executors classify cache lines by who touches them
//! in a phase: the sharded executor to simulate private lines apart from
//! the merge, the classic loop to let a worker run ahead through them.
//! Discovering that per line — draining every stream into a trace and
//! recording each touched line in a hash map — is exactly the per-line
//! overhead that caps streaming workloads near 1x. Most workload streams
//! are tiny state machines over a few contiguous slices (a per-thread input
//! window, a scratch block, a shared table), so they can *declare* their
//! footprint as a handful of [`ByteExtent`]s up front; the executor then
//! classifies whole extents at once without draining anything (see
//! [`crate::shard`]).
//!
//! ## Soundness contract
//!
//! A [`Footprint::Bounded`] must be a **superset**: every byte the stream
//! will ever read must lie in some extent, and every byte it will ever
//! write must lie in some extent with `wrote = true`. Over-approximation is
//! safe — a line claimed but never touched at worst demotes a neighbour
//! from "private" to "shared", which is always executed correctly, just
//! without the fast path. Under-approximation is a contract violation,
//! and both executors *trust* the declaration. A violating stream's own
//! stray accesses are always simulated in global order (a line outside its
//! footprint is never private to it; the sharded executor also counts them
//! in `sim.footprint_violations`). But a worker whose declared-private line
//! a violator touches may simulate that line ahead of the violator: the
//! run stays deterministic, no longer in strict time order. [`audit`]
//! checks the contract byte by byte, serial phases included, without
//! simulating, and `cheetah-analyze --lint` gates zero violations
//! registry-wide.

use crate::program::{Phase, Program};
use crate::types::{AccessKind, Addr};

/// One contiguous byte range of a footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteExtent {
    /// First byte of the range.
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
    /// Whether the stream may write anywhere in the range.
    pub wrote: bool,
}

impl ByteExtent {
    /// An extent covering `[start, end)`.
    pub fn new(start: u64, end: u64, wrote: bool) -> Self {
        ByteExtent { start, end, wrote }
    }

    /// The extent of a single access.
    pub fn word(addr: Addr, wrote: bool) -> Self {
        ByteExtent {
            start: addr.0,
            end: addr.0 + 1,
            wrote,
        }
    }
}

/// A stream's declared access footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Footprint {
    /// The stream cannot (or does not) bound its accesses; the sharded
    /// executor drains it into an [`crate::OpsStream`], whose footprint is
    /// exact, before classifying.
    Unknown,
    /// A sorted, disjoint superset of every byte the stream may touch (see
    /// the module-level soundness contract).
    Bounded(Vec<ByteExtent>),
}

impl Footprint {
    /// Builds a bounded footprint from arbitrary (possibly overlapping,
    /// unsorted) extents, normalising them into the sorted disjoint form.
    pub fn bounded(extents: Vec<ByteExtent>) -> Footprint {
        let mut builder = FootprintBuilder::default();
        for extent in extents {
            builder.push(extent);
        }
        builder.finish()
    }

    /// Combines two footprints; `Unknown` absorbs everything.
    pub fn union(self, other: Footprint) -> Footprint {
        match (self, other) {
            (Footprint::Bounded(mut a), Footprint::Bounded(b)) => {
                a.extend(b);
                Footprint::bounded(a)
            }
            _ => Footprint::Unknown,
        }
    }
}

/// Accumulates extents and normalises them into a [`Footprint::Bounded`].
///
/// ```
/// use cheetah_sim::footprint::{ByteExtent, Footprint, FootprintBuilder};
/// let mut b = FootprintBuilder::default();
/// b.push(ByteExtent::new(0x100, 0x140, false));
/// b.push(ByteExtent::new(0x120, 0x180, true)); // overlaps: merged, wrote
/// b.push(ByteExtent::new(0x400, 0x440, false));
/// let Footprint::Bounded(extents) = b.finish() else { unreachable!() };
/// assert_eq!(extents.len(), 2);
/// assert_eq!((extents[0].start, extents[0].end, extents[0].wrote),
///            (0x100, 0x180, true));
/// ```
#[derive(Debug, Default)]
pub struct FootprintBuilder {
    extents: Vec<ByteExtent>,
}

impl FootprintBuilder {
    /// Adds one extent; empty ranges are ignored.
    pub fn push(&mut self, extent: ByteExtent) {
        if extent.start < extent.end {
            self.extents.push(extent);
        }
    }

    /// Normalises and returns the footprint.
    ///
    /// Overlapping or touching extents with equal `wrote` flags merge;
    /// overlapping extents with different flags merge to `wrote = true`
    /// (a sound over-approximation). Touching-but-disjoint extents with
    /// different flags stay separate so a read-only slice next to a
    /// written one keeps its finer classification.
    pub fn finish(mut self) -> Footprint {
        self.extents.sort_by_key(|e| (e.start, e.end));
        let mut merged: Vec<ByteExtent> = Vec::with_capacity(self.extents.len());
        for extent in self.extents {
            match merged.last_mut() {
                Some(last) if extent.start < last.end => {
                    // Genuine overlap: merge, widening the write flag.
                    last.end = last.end.max(extent.end);
                    last.wrote |= extent.wrote;
                }
                Some(last) if extent.start == last.end && extent.wrote == last.wrote => {
                    last.end = extent.end;
                }
                _ => merged.push(extent),
            }
        }
        Footprint::Bounded(merged)
    }
}

/// One thread whose executed accesses escaped its declared footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FootprintViolation {
    /// Index of the phase the thread runs in.
    pub phase: usize,
    /// The thread's declared name.
    pub thread: String,
    /// Accesses outside the footprint: reads outside every extent, writes
    /// outside every `wrote` extent.
    pub count: u64,
    /// The first such access.
    pub first: (Addr, AccessKind),
}

/// Checks every serial and parallel stream of `program` against its
/// declared footprint, byte by byte, and returns one record per violating
/// thread in program order. Nothing is simulated: ops never depend on
/// timing, so draining each stream on its own yields exactly the accesses
/// a run executes. Streams declaring [`Footprint::Unknown`] claim nothing
/// and are skipped.
///
/// Consumes the program (streams are single-use).
pub fn audit(program: Program) -> Vec<FootprintViolation> {
    let (_, phases) = program.into_parts();
    let mut out = Vec::new();
    for (index, phase) in phases.into_iter().enumerate() {
        let specs = match phase {
            Phase::Serial(spec) => vec![spec],
            Phase::Parallel(specs) => specs,
        };
        for spec in specs {
            let (thread, mut stream) = spec.into_parts();
            let Footprint::Bounded(extents) = stream.footprint() else {
                continue;
            };
            let mut count = 0u64;
            let mut first = None;
            while let Some(op) = stream.next_op() {
                let Some((addr, kind)) = op.mem_ref() else {
                    continue;
                };
                // Normalised extents are sorted and byte-disjoint: the only
                // candidate is the first extent ending past the address.
                let covered = extents
                    .get(extents.partition_point(|e| e.end <= addr.0))
                    .is_some_and(|e| e.start <= addr.0 && (e.wrote || !kind.is_write()));
                if !covered {
                    count += 1;
                    first.get_or_insert((addr, kind));
                }
            }
            if let Some(first) = first {
                out.push(FootprintViolation {
                    phase: index,
                    thread,
                    count,
                    first,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalises_unsorted_overlaps() {
        let fp = Footprint::bounded(vec![
            ByteExtent::new(0x200, 0x240, true),
            ByteExtent::new(0x100, 0x180, false),
            ByteExtent::new(0x150, 0x210, false),
        ]);
        let Footprint::Bounded(extents) = fp else {
            panic!("bounded")
        };
        // [0x100,0x210) read overlaps [0x200,0x240) write -> merged wrote.
        assert_eq!(extents.len(), 1);
        assert_eq!(extents[0], ByteExtent::new(0x100, 0x240, true));
    }

    #[test]
    fn touching_extents_with_different_flags_stay_separate() {
        let fp = Footprint::bounded(vec![
            ByteExtent::new(0x100, 0x140, false),
            ByteExtent::new(0x140, 0x180, true),
        ]);
        let Footprint::Bounded(extents) = fp else {
            panic!("bounded")
        };
        assert_eq!(extents.len(), 2);
    }

    #[test]
    fn empty_extents_dropped() {
        let fp = Footprint::bounded(vec![ByteExtent::new(0x100, 0x100, true)]);
        assert_eq!(fp, Footprint::Bounded(Vec::new()));
    }

    #[test]
    fn union_unknown_absorbs() {
        let bounded = Footprint::bounded(vec![ByteExtent::new(0, 8, false)]);
        assert_eq!(
            bounded.clone().union(Footprint::Unknown),
            Footprint::Unknown
        );
        assert_eq!(
            Footprint::Unknown.union(bounded.clone()),
            Footprint::Unknown
        );
        let other = Footprint::bounded(vec![ByteExtent::new(8, 16, false)]);
        assert_eq!(
            bounded.union(other),
            Footprint::bounded(vec![ByteExtent::new(0, 16, false)])
        );
    }
}
