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
//! 3. **Validation** ([`validate`]): the [`ValidationHarness`] runs broken
//!    and repaired builds on the same deterministic machine and emits a
//!    per-instance *predicted vs. actual* table (the paper's Table 2
//!    shape) through [`cheetah_core::format_prediction_table`].
//! 4. **Convergence** ([`converge`](mod@converge)): the fixpoint loop a
//!    programmer would run by hand — profile, apply the top-ranked fix,
//!    re-profile the repaired program, repeat until no significant
//!    instance remains (or a bound is hit) — returning a per-iteration
//!    trace of predicted vs. measured improvement and residual instances.
//!    [`converge_worst_case`] judges the loop over a *set* of schedules
//!    ([`schedule_set`]: the observed one plus seeded
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
//! use cheetah_repair::ValidationHarness;
//! use cheetah_sim::{Machine, MachineConfig};
//! use cheetah_workloads::{find, AppConfig};
//!
//! let app = find("microbench").unwrap();
//! let config = AppConfig::with_threads(8).scaled(0.05);
//! let harness = ValidationHarness::new(
//!     Machine::new(MachineConfig::with_cores(8)),
//!     CheetahConfig::scaled(256),
//! );
//! let outcome = harness.validate("microbench", || app.build(&config)).unwrap();
//! assert_eq!(outcome.instances.len(), 1, "the one array instance");
//! assert!(outcome.instances[0].actual > 2.0, "repair must really help");
//! println!("{}", outcome.render_table());
//! ```
//!
//! [`SharingInstance`]: cheetah_core::SharingInstance

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod converge;
pub mod plan;
pub mod rewrite;
pub mod validate;

pub use converge::{
    converge, converge_worst_case, schedule_set, ConvergeConfig, ConvergenceTrace, IterationRecord,
};
pub use plan::{rank, synthesize, RepairPlan, RepairStrategy, ThreadCluster};
pub use rewrite::{apply, apply_iterations, repair_program, RepairError};
pub use validate::{InstanceValidation, ValidationHarness, ValidationOutcome};
