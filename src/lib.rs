//! # cheetah — a reproduction of *Cheetah: Detecting False Sharing
//! Efficiently and Effectively* (Liu & Liu, CGO 2016)
//!
//! Cheetah is a lightweight false-sharing profiler built on hardware PMU
//! address sampling. Its two contributions, both reproduced in full here:
//!
//! 1. **The first approach to predict the payoff of fixing a false-sharing
//!    instance without fixing it** — from sampled access latencies and the
//!    fork-join phase structure (Eq. 1–4 of the paper), with <10% error.
//! 2. **An efficient, effective detector** — ~7% runtime overhead at a
//!    1-in-64K-instructions sampling period, constant-space two-entry
//!    invalidation tables per cache line, word-granularity true/false
//!    sharing classification, and reports that name the allocation site.
//!
//! This crate is a facade over the workspace:
//!
//! * [`sim`] — deterministic multicore MESI simulator (the "hardware"),
//! * [`pmu`] — IBS/PEBS-style address sampling (simulated; optional native
//!   `perf_event_open` backend behind the `linux-pmu` feature),
//! * [`heap`] — Hoard-style heap model, callsites, shadow memory,
//! * [`runtime`] — thread lifecycle and fork-join phase tracking,
//! * [`core`] — detection, classification, assessment, reporting,
//! * [`workloads`] — the paper's 17 evaluation applications plus the
//!   Fig. 1 microbenchmark, each with broken and fixed builds,
//! * [`baselines`] — Predator-like and ownership-bitmap comparators,
//! * [`repair`] — automated fix synthesis (pad / align / per-thread
//!   split) and the fixpoint repair loop whose predicted-vs-measured
//!   trace closes the loop on contribution 1,
//! * [`obs`] — zero-dependency tracing & metrics: scoped spans, per-run
//!   counter registries, Chrome-trace / JSONL exporters, and the per-phase
//!   state-hash witness behind the determinism divergence locator.
//!
//! ## Quickstart
//!
//! ```
//! use cheetah::core::{CheetahConfig, CheetahProfiler};
//! use cheetah::sim::{Machine, MachineConfig};
//! use cheetah::workloads::{find, AppConfig};
//!
//! // Profile the paper's headline case study.
//! let app = find("linear_regression").unwrap();
//! let instance = app.build(&AppConfig::with_threads(8).scaled(0.05));
//! let machine = Machine::new(MachineConfig::default());
//! let mut profiler = CheetahProfiler::new(CheetahConfig::scaled(512), &instance.space);
//! machine.run(instance.program, &mut profiler);
//! let profile = profiler.finish();
//!
//! let report = profile.render_report();
//! assert!(report.contains("linear_regression-pthread.c: 139"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use cheetah_baselines as baselines;
pub use cheetah_core as core;
pub use cheetah_heap as heap;
pub use cheetah_obs as obs;
pub use cheetah_pmu as pmu;
pub use cheetah_repair as repair;
pub use cheetah_runtime as runtime;
pub use cheetah_sim as sim;
pub use cheetah_workloads as workloads;

// Compiles and runs the README's Rust examples under `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
