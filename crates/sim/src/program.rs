//! Describing simulated programs: operations, access streams, phases.
//!
//! A [`Program`] is an ordered list of fork-join [`Phase`]s (the model of
//! Fig. 3 in the paper). A serial phase is executed by the main thread; a
//! parallel phase spawns one simulated thread per [`ThreadSpec`], runs them
//! to completion, and joins. Each thread executes an [`AccessStream`]: a
//! pull-based iterator of [`Op`]s (compute work and memory accesses).
//!
//! Streams are consumed destructively — running a program uses it up, so
//! workload generators hand out a fresh `Program` per run.

use crate::footprint::{ByteExtent, Footprint, FootprintBuilder};
use crate::layout::LayoutMap;
use crate::types::{AccessKind, Addr};
use std::sync::Arc;

/// One operation of a simulated thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Retire `n` pure-compute instructions (no memory traffic).
    Work(u64),
    /// Load from an address.
    Read(Addr),
    /// Store to an address.
    Write(Addr),
}

impl Op {
    /// The memory reference of this op, if any.
    pub fn mem_ref(self) -> Option<(Addr, AccessKind)> {
        match self {
            Op::Work(_) => None,
            Op::Read(addr) => Some((addr, AccessKind::Read)),
            Op::Write(addr) => Some((addr, AccessKind::Write)),
        }
    }

    /// Instructions retired by this op (memory accesses retire one).
    pub fn instructions(self) -> u64 {
        match self {
            Op::Work(n) => n,
            Op::Read(_) | Op::Write(_) => 1,
        }
    }
}

/// A pull-based stream of operations executed by one simulated thread.
///
/// Implementors are typically tiny state machines so that multi-million
/// access workloads need no materialised trace.
pub trait AccessStream: Send {
    /// Produces the next operation, or `None` when the thread finishes.
    fn next_op(&mut self) -> Option<Op>;

    /// A byte-range superset of everything the stream will touch, queried
    /// by the sharded executor *before* the first [`AccessStream::next_op`]
    /// call (see [`crate::footprint`] for the soundness contract). Streams
    /// that cannot bound their accesses keep the default
    /// [`Footprint::Unknown`]; the sharded executor drains them into an
    /// [`OpsStream`], whose footprint is exact, before classifying.
    fn footprint(&self) -> Footprint {
        Footprint::Unknown
    }
}

/// Exact footprint of a slice of materialised ops.
fn ops_footprint(ops: &[Op]) -> Footprint {
    let mut builder = FootprintBuilder::default();
    for op in ops {
        if let Some((addr, kind)) = op.mem_ref() {
            builder.push(ByteExtent::word(addr, kind.is_write()));
        }
    }
    builder.finish()
}

/// An [`AccessStream`] over a pre-built vector of ops; convenient in tests.
///
/// ```
/// use cheetah_sim::{Addr, Op, OpsStream, AccessStream};
/// let mut s = OpsStream::new(vec![Op::Work(3), Op::Read(Addr(0x40))]);
/// assert_eq!(s.next_op(), Some(Op::Work(3)));
/// assert_eq!(s.next_op(), Some(Op::Read(Addr(0x40))));
/// assert_eq!(s.next_op(), None);
/// ```
#[derive(Debug)]
pub struct OpsStream {
    ops: std::vec::IntoIter<Op>,
}

impl OpsStream {
    /// Wraps a vector of operations.
    pub fn new(ops: Vec<Op>) -> Self {
        OpsStream {
            ops: ops.into_iter(),
        }
    }
}

impl AccessStream for OpsStream {
    fn next_op(&mut self) -> Option<Op> {
        self.ops.next()
    }

    fn footprint(&self) -> Footprint {
        ops_footprint(self.ops.as_slice())
    }
}

/// Adapts any `Iterator<Item = Op>` into an [`AccessStream`].
pub struct IterStream<I> {
    iter: I,
}

impl<I> IterStream<I>
where
    I: Iterator<Item = Op> + Send,
{
    /// Wraps an iterator of operations.
    pub fn new(iter: I) -> Self {
        IterStream { iter }
    }
}

impl<I> std::fmt::Debug for IterStream<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("IterStream(..)")
    }
}

impl<I> AccessStream for IterStream<I>
where
    I: Iterator<Item = Op> + Send,
{
    fn next_op(&mut self) -> Option<Op> {
        self.iter.next()
    }
}

/// A repeating loop over a fixed body of ops; the cheapest way to express
/// "hammer these addresses `n` times".
#[derive(Debug)]
pub struct LoopStream {
    body: Vec<Op>,
    iterations: u64,
    done_iterations: u64,
    cursor: usize,
}

impl LoopStream {
    /// A stream that yields `body` in order, `iterations` times.
    ///
    /// An empty body or zero iterations yields an empty stream.
    pub fn new(body: Vec<Op>, iterations: u64) -> Self {
        LoopStream {
            body,
            iterations,
            done_iterations: 0,
            cursor: 0,
        }
    }
}

impl AccessStream for LoopStream {
    fn next_op(&mut self) -> Option<Op> {
        if self.body.is_empty() || self.done_iterations >= self.iterations {
            return None;
        }
        let op = self.body[self.cursor];
        self.cursor += 1;
        if self.cursor == self.body.len() {
            self.cursor = 0;
            self.done_iterations += 1;
        }
        Some(op)
    }

    fn footprint(&self) -> Footprint {
        if self.done_iterations >= self.iterations {
            return Footprint::Bounded(Vec::new());
        }
        ops_footprint(&self.body)
    }
}

/// Specification of one simulated thread: a name (for reports) and its
/// instruction stream.
pub struct ThreadSpec {
    name: String,
    body: Box<dyn AccessStream>,
}

impl ThreadSpec {
    /// Creates a thread spec from any access stream.
    pub fn new(name: impl Into<String>, body: impl AccessStream + 'static) -> Self {
        ThreadSpec {
            name: name.into(),
            body: Box::new(body),
        }
    }

    /// The thread's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared byte-range footprint of the thread's access stream —
    /// the static summary ahead-of-execution analyses work from. For
    /// layout-rewritten programs ([`Program::with_layout`]) the extents
    /// come back already translated to post-repair addresses.
    pub fn footprint(&self) -> Footprint {
        self.body.footprint()
    }

    pub(crate) fn into_parts(self) -> (String, Box<dyn AccessStream>) {
        (self.name, self.body)
    }

    /// Wraps the thread's stream so its addresses go through `map`.
    pub fn with_layout(self, map: Arc<LayoutMap>) -> ThreadSpec {
        ThreadSpec {
            name: self.name,
            body: Box::new(RemappedStream {
                inner: self.body,
                map,
            }),
        }
    }
}

impl std::fmt::Debug for ThreadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadSpec")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// One fork-join phase of a program.
#[derive(Debug)]
pub enum Phase {
    /// Work executed by the main thread alone.
    Serial(ThreadSpec),
    /// Threads spawned together and joined together.
    Parallel(Vec<ThreadSpec>),
}

impl Phase {
    /// Number of threads this phase runs (1 for serial phases).
    pub fn thread_count(&self) -> usize {
        match self {
            Phase::Serial(_) => 1,
            Phase::Parallel(specs) => specs.len(),
        }
    }

    /// The phase kind.
    pub fn kind(&self) -> crate::types::PhaseKind {
        match self {
            Phase::Serial(_) => crate::types::PhaseKind::Serial,
            Phase::Parallel(_) => crate::types::PhaseKind::Parallel,
        }
    }
}

/// A complete simulated program: named, phased, single-shot.
#[derive(Debug)]
pub struct Program {
    name: String,
    phases: Vec<Phase>,
}

impl Program {
    /// Creates a program from its phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any parallel phase has no threads: an
    /// empty program has no meaningful runtime and would silently produce
    /// degenerate reports.
    pub fn new(name: impl Into<String>, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "program must have at least one phase");
        for (i, phase) in phases.iter().enumerate() {
            if let Phase::Parallel(specs) = phase {
                assert!(
                    !specs.is_empty(),
                    "parallel phase {i} must spawn at least one thread"
                );
            }
        }
        Program {
            name: name.into(),
            phases,
        }
    }

    /// The program's name (used in reports and experiment tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The phases, in execution order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total number of simulated threads, including the main thread.
    pub fn total_threads(&self) -> usize {
        1 + self
            .phases
            .iter()
            .map(|p| match p {
                Phase::Serial(_) => 0,
                Phase::Parallel(specs) => specs.len(),
            })
            .sum::<usize>()
    }

    pub(crate) fn into_parts(self) -> (String, Vec<Phase>) {
        (self.name, self.phases)
    }

    /// Rewrites the program's data layout: every memory operation's address
    /// is translated through `map`; op order, op counts, compute work and
    /// the phase structure are preserved exactly. This is how synthesized
    /// false-sharing repairs (padding, alignment, per-thread splits) are
    /// applied without touching workload source.
    ///
    /// An identity map returns the program unchanged (no wrapper overhead).
    ///
    /// ```
    /// use cheetah_sim::layout::{LayoutMap, Remapping};
    /// use cheetah_sim::{Addr, Op, OpsStream, ProgramBuilder, ThreadSpec};
    ///
    /// let program = ProgramBuilder::new("p")
    ///     .serial(ThreadSpec::new("s", OpsStream::new(vec![Op::Write(Addr(0x100))])))
    ///     .build();
    /// let map = LayoutMap::new(vec![Remapping::new(Addr(0x100), 4, Addr(0x4000))])?;
    /// let repaired = program.with_layout(map.shared());
    /// assert_eq!(repaired.total_threads(), 1);
    /// # Ok::<(), cheetah_sim::layout::LayoutError>(())
    /// ```
    pub fn with_layout(self, map: Arc<LayoutMap>) -> Program {
        if map.is_identity() {
            return self;
        }
        let (name, phases) = self.into_parts();
        let phases = phases
            .into_iter()
            .map(|phase| match phase {
                Phase::Serial(spec) => Phase::Serial(spec.with_layout(Arc::clone(&map))),
                Phase::Parallel(specs) => Phase::Parallel(
                    specs
                        .into_iter()
                        .map(|spec| spec.with_layout(Arc::clone(&map)))
                        .collect(),
                ),
            })
            .collect();
        Program::new(name, phases)
    }
}

/// Stream adapter that translates every memory address through a
/// [`LayoutMap`]; see [`Program::with_layout`].
struct RemappedStream {
    inner: Box<dyn AccessStream>,
    map: Arc<LayoutMap>,
}

impl std::fmt::Debug for RemappedStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemappedStream")
            .field("map", &self.map)
            .finish_non_exhaustive()
    }
}

impl AccessStream for RemappedStream {
    fn next_op(&mut self) -> Option<Op> {
        self.inner.next_op().map(|op| match op {
            Op::Work(n) => Op::Work(n),
            Op::Read(addr) => Op::Read(self.map.translate(addr)),
            Op::Write(addr) => Op::Write(self.map.translate(addr)),
        })
    }

    fn footprint(&self) -> Footprint {
        // Translate the inner footprint range by range, splitting at
        // remapping boundaries so relocated slices keep extent hints.
        match self.inner.footprint() {
            Footprint::Unknown => Footprint::Unknown,
            Footprint::Bounded(extents) => {
                let mut builder = FootprintBuilder::default();
                for extent in extents {
                    for (start, end) in self.map.translate_range(extent.start, extent.end) {
                        builder.push(ByteExtent::new(start, end, extent.wrote));
                    }
                }
                builder.finish()
            }
        }
    }
}

/// Fluent builder for [`Program`]s; the main entry point for workloads.
///
/// ```
/// use cheetah_sim::{Addr, Op, OpsStream, ProgramBuilder, ThreadSpec};
/// let program = ProgramBuilder::new("demo")
///     .serial(ThreadSpec::new("init", OpsStream::new(vec![Op::Write(Addr(0x100))])))
///     .parallel(vec![
///         ThreadSpec::new("worker-0", OpsStream::new(vec![Op::Read(Addr(0x100))])),
///         ThreadSpec::new("worker-1", OpsStream::new(vec![Op::Read(Addr(0x100))])),
///     ])
///     .build();
/// assert_eq!(program.total_threads(), 3);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    phases: Vec<Phase>,
}

impl ProgramBuilder {
    /// Starts building a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            phases: Vec::new(),
        }
    }

    /// Appends a serial phase run by the main thread.
    pub fn serial(mut self, spec: ThreadSpec) -> Self {
        self.phases.push(Phase::Serial(spec));
        self
    }

    /// Appends a parallel phase spawning one thread per spec.
    pub fn parallel(mut self, specs: Vec<ThreadSpec>) -> Self {
        self.phases.push(Phase::Parallel(specs));
        self
    }

    /// Finishes the program.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Program::new`].
    pub fn build(self) -> Program {
        Program::new(self.name, self.phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_properties() {
        assert_eq!(Op::Work(5).instructions(), 5);
        assert_eq!(Op::Read(Addr(8)).instructions(), 1);
        assert_eq!(Op::Write(Addr(8)).instructions(), 1);
        assert_eq!(Op::Work(5).mem_ref(), None);
        assert_eq!(
            Op::Read(Addr(8)).mem_ref(),
            Some((Addr(8), AccessKind::Read))
        );
        assert_eq!(
            Op::Write(Addr(8)).mem_ref(),
            Some((Addr(8), AccessKind::Write))
        );
    }

    #[test]
    fn loop_stream_repeats_body() {
        let mut s = LoopStream::new(vec![Op::Read(Addr(0)), Op::Work(2)], 3);
        let mut ops = Vec::new();
        while let Some(op) = s.next_op() {
            ops.push(op);
        }
        assert_eq!(ops.len(), 6);
        assert_eq!(ops[0], Op::Read(Addr(0)));
        assert_eq!(ops[5], Op::Work(2));
    }

    #[test]
    fn loop_stream_empty_cases() {
        assert_eq!(LoopStream::new(vec![], 10).next_op(), None);
        assert_eq!(LoopStream::new(vec![Op::Work(1)], 0).next_op(), None);
    }

    #[test]
    fn iter_stream_adapts_iterators() {
        let mut s = IterStream::new((0..3).map(|i| Op::Read(Addr(i * 4))));
        assert_eq!(s.next_op(), Some(Op::Read(Addr(0))));
        assert_eq!(s.next_op(), Some(Op::Read(Addr(4))));
        assert_eq!(s.next_op(), Some(Op::Read(Addr(8))));
        assert_eq!(s.next_op(), None);
    }

    #[test]
    fn program_counts_threads() {
        let program = ProgramBuilder::new("p")
            .serial(ThreadSpec::new("s", OpsStream::new(vec![Op::Work(1)])))
            .parallel(vec![
                ThreadSpec::new("a", OpsStream::new(vec![])),
                ThreadSpec::new("b", OpsStream::new(vec![])),
            ])
            .parallel(vec![ThreadSpec::new("c", OpsStream::new(vec![]))])
            .build();
        assert_eq!(program.total_threads(), 4);
        assert_eq!(program.phases().len(), 3);
        assert_eq!(program.phases()[0].thread_count(), 1);
        assert_eq!(program.phases()[1].thread_count(), 2);
    }

    #[test]
    fn with_layout_translates_only_mapped_addresses() {
        use crate::layout::{LayoutMap, Remapping};
        let program = ProgramBuilder::new("p")
            .serial(ThreadSpec::new(
                "s",
                OpsStream::new(vec![
                    Op::Read(Addr(0x100)),
                    Op::Write(Addr(0x104)),
                    Op::Work(7),
                    Op::Write(Addr(0x200)),
                ]),
            ))
            .build();
        let map = LayoutMap::new(vec![Remapping::new(Addr(0x100), 8, Addr(0x9000))])
            .unwrap()
            .shared();
        let (_, phases) = program.with_layout(map).into_parts();
        let Phase::Serial(spec) = phases.into_iter().next().unwrap() else {
            panic!("expected serial phase");
        };
        let (_, mut stream) = spec.into_parts();
        let mut ops = Vec::new();
        while let Some(op) = stream.next_op() {
            ops.push(op);
        }
        assert_eq!(
            ops,
            vec![
                Op::Read(Addr(0x9000)),
                Op::Write(Addr(0x9004)),
                Op::Work(7),
                Op::Write(Addr(0x200)),
            ]
        );
    }

    #[test]
    fn with_layout_preserves_phase_structure() {
        use crate::layout::{LayoutMap, Remapping};
        let build = || {
            ProgramBuilder::new("p")
                .serial(ThreadSpec::new("s", OpsStream::new(vec![Op::Work(1)])))
                .parallel(vec![
                    ThreadSpec::new("a", OpsStream::new(vec![Op::Read(Addr(0x40))])),
                    ThreadSpec::new("b", OpsStream::new(vec![Op::Read(Addr(0x80))])),
                ])
                .build()
        };
        let map = LayoutMap::new(vec![Remapping::new(Addr(0x40), 4, Addr(0x7000))])
            .unwrap()
            .shared();
        let repaired = build().with_layout(map);
        let original = build();
        assert_eq!(repaired.total_threads(), original.total_threads());
        assert_eq!(repaired.phases().len(), original.phases().len());
        for (a, b) in repaired.phases().iter().zip(original.phases()) {
            assert_eq!(a.kind(), b.kind());
            assert_eq!(a.thread_count(), b.thread_count());
        }
    }

    #[test]
    fn identity_layout_is_free() {
        use crate::layout::LayoutMap;
        let program = ProgramBuilder::new("p")
            .serial(ThreadSpec::new("s", OpsStream::new(vec![Op::Work(1)])))
            .build();
        let same = program.with_layout(LayoutMap::identity().shared());
        assert_eq!(same.name(), "p");
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_program_panics() {
        let _ = Program::new("p", vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn empty_parallel_phase_panics() {
        let _ = Program::new("p", vec![Phase::Parallel(vec![])]);
    }
}
