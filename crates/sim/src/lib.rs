//! # cheetah-sim — deterministic multicore execution simulator
//!
//! The hardware substrate for the [Cheetah (CGO 2016)] reproduction. The
//! paper evaluates on a 48-core AMD Opteron whose coherence fabric makes
//! false sharing expensive; this crate reproduces that environment as a
//! deterministic simulator:
//!
//! * a MESI coherence [`Directory`] with per-core private caches and a
//!   shared last-level cache ([`coherence`]),
//! * a flat, configurable [`LatencyModel`] in which dirty cache-to-cache
//!   transfers dominate local hits ([`latency`]),
//! * a discrete-event execution engine ([`Machine`]) that interleaves the
//!   threads of a fork-join [`Program`] in exact global time order,
//! * an [`ExecObserver`] hook through which profilers (the PMU layer)
//!   watch the accesses their sampling replica ([`ThreadSampler`]) marks
//!   sampled and charge measurement perturbation back into simulated
//!   time,
//! * resumable runs ([`checkpoint`]): a sharded run can save its state after
//!   the leading phases a layout repair cannot reach, and later runs of the
//!   repaired program start from there.
//!
//! Everything is deterministic: the same program yields bit-identical
//! [`RunReport`]s, which is what makes "predicted vs. real speedup"
//! experiments crisp.
//!
//! ## Example: measuring a false-sharing slowdown
//!
//! ```
//! use cheetah_sim::{Addr, LoopStream, Machine, MachineConfig, NullObserver,
//!                   Op, ProgramBuilder, ThreadSpec};
//!
//! let machine = Machine::new(MachineConfig::with_cores(8));
//! let build = |stride: u64| {
//!     ProgramBuilder::new("demo")
//!         .parallel((0..2u64).map(|t| {
//!             let addr = Addr(0x4000_0000 + t * stride);
//!             ThreadSpec::new(
//!                 format!("worker-{t}"),
//!                 LoopStream::new(vec![Op::Read(addr), Op::Write(addr)], 1_000),
//!             )
//!         }).collect())
//!         .build()
//! };
//! let shared = machine.run(build(4), &mut NullObserver);   // same line
//! let padded = machine.run(build(64), &mut NullObserver);  // separate lines
//! assert!(shared.total_cycles > padded.total_cycles);
//! ```
//!
//! [Cheetah (CGO 2016)]: https://doi.org/10.1145/2854038.2854039

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod coherence;
pub mod exec;
pub(crate) mod extent;
pub mod footprint;
pub mod latency;
pub mod layout;
pub mod metrics;
pub mod observer;
pub mod program;
pub mod report;
pub mod schedule;
pub mod shard;
pub mod stats;
pub mod types;
pub mod util;

pub use checkpoint::{Checkpoint, ResumeError};
pub use cheetah_obs::ObsHandle;
pub use coherence::{Directory, SharerSet, MAX_CORES};
pub use exec::{ConfigError, Machine, MachineConfig, OBS_LANE_ENGINE};
pub use footprint::{ByteExtent, Footprint, FootprintBuilder};
pub use latency::{AccessOutcome, LatencyModel};
pub use layout::{LayoutError, LayoutMap, Remapping};
pub use observer::{
    AccessRecord, CountingObserver, ExecObserver, NullObserver, SampleJudgement, SamplerFork,
    ThreadSampler,
};
pub use program::{
    AccessStream, IterStream, LoopStream, Op, OpsStream, Phase, Program, ProgramBuilder, ThreadSpec,
};
pub use report::{PhaseReport, RunReport, ThreadReport};
pub use schedule::SchedulePolicy;
pub use stats::CoherenceStats;
pub use types::{AccessKind, Addr, CacheLineId, CoreId, Cycles, PhaseKind, ThreadId, WORD_BYTES};
