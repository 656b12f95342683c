//! # cheetah-repair — automated fix synthesis and prediction validation
//!
//! Cheetah's headline claim (§3 of the paper) is that it can predict the
//! payoff of fixing a false-sharing instance *without fixing it*, with
//! under 10% average error. `cheetah-core` reproduces the prediction; this
//! crate closes the loop by **actually fixing** the instances and
//! measuring how right the prediction was:
//!
//! 1. **Synthesis** ([`plan`]): each detected [`SharingInstance`] is
//!    turned into a [`RepairPlan`] — pad-to-line, align-to-line, or a
//!    per-thread split — chosen from the instance's per-thread word map,
//!    the same evidence a programmer would read off the paper's Fig. 5
//!    report before editing the source.
//! 2. **Rewrite** ([`rewrite`]): the plan allocates padded, line-aligned
//!    target storage from the workload's own heap and becomes a
//!    [`cheetah_sim::LayoutMap`]; [`cheetah_sim::Program::with_layout`]
//!    then redirects the program's memory accesses through it. Op streams,
//!    op counts and the fork-join phase structure are preserved exactly —
//!    the repaired program is the same program with a better data layout.
//! 3. **Convergence and validation** ([`converge`](mod@converge)): the
//!    fixpoint loop a programmer would run by hand — profile, apply the
//!    top-ranked fix, re-profile the repaired program, repeat until no
//!    significant instance remains (or a bound is hit) — on the
//!    [`ValidationHarness`]'s deterministic machine, returning a
//!    per-iteration trace of predicted vs. measured improvement and
//!    residual instances. Its first iteration is the paper's Table 2
//!    experiment. [`converge_worst_case`] judges the loop over a *set* of
//!    schedules ([`schedule_set`]: the observed one plus seeded
//!    [`cheetah_sim::SchedulePolicy`] perturbations): findings are united
//!    across interleavings, plans are ranked by worst-case payoff, and
//!    convergence requires every explored schedule to come back clean —
//!    catching instances the observed schedule hides. [`converge()`] is
//!    that loop over the machine's own schedule.
//!
//! ## Example: validating the Fig. 1 microbenchmark
//!
//! ```
//! use cheetah_core::CheetahConfig;
//! use cheetah_repair::{converge, ConvergeConfig, RepairStrategy, ValidationHarness};
//! use cheetah_sim::{Machine, MachineConfig};
//! use cheetah_workloads::{find, AppConfig};
//!
//! let app = find("microbench").unwrap();
//! let config = AppConfig::with_threads(8).scaled(0.05);
//! let harness = ValidationHarness::calibrated(
//!     Machine::new(MachineConfig::with_cores(8)),
//!     CheetahConfig::scaled(256),
//! );
//! let trace = converge(
//!     &harness,
//!     "microbench",
//!     || app.build(&config),
//!     &ConvergeConfig::default(),
//! )?;
//! assert_eq!(trace.iterations.len(), 1, "the one array instance");
//! let step = &trace.iterations[0];
//! assert_eq!(step.strategy, RepairStrategy::SplitPerThread);
//! assert!(step.measured > 2.0, "repair must really help");
//! assert!(step.relative_error() < 0.2, "and the prediction must say so");
//! println!("{trace}");
//! # Ok::<(), cheetah_repair::RepairError>(())
//! ```
//!
//! [`SharingInstance`]: cheetah_core::SharingInstance

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod converge;
pub mod plan;
pub mod rewrite;

pub use converge::{
    converge, converge_worst_case, schedule_set, ConvergeConfig, ConvergenceTrace, IterationRecord,
    ValidationHarness,
};
pub use plan::{rank, synthesize, RepairPlan, RepairStrategy, ThreadCluster};
pub use rewrite::{apply, apply_iterations, repair_program, RepairError};
