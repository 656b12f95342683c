//! # cheetah-bench — experiment harnesses
//!
//! One binary per table/figure of the paper, plus the harnesses behind the
//! committed `BENCH_*.json` baselines and their CI gates (see `README.md`
//! for how to run them and `ARCHITECTURE.md` for what they measure):
//!
//! | Binary | Reproduces / measures |
//! |---|---|
//! | `fig1_microbench` | Fig. 1 — expectation vs. reality of the FS microbenchmark |
//! | `fig4_overhead` | Fig. 4 — Cheetah's runtime overhead over 17 applications |
//! | `fig7_missed` | Fig. 7 — impact of the minor instances Cheetah misses |
//! | `table1_precision` | Table 1 — predicted vs. real improvement |
//! | `table2_prediction` | Table 2 as a matrix — fixpoint repair per cell; writes `BENCH_repair.json` |
//! | `ablation_table` | two-entry table vs. ownership bitmap (§2.3) |
//! | `ablation_sampling` | sampling-period sweep: recall vs. overhead (§2.1, §5) |
//! | `ablation_baseline` | Cheetah vs. Predator-like full instrumentation (§6.1) |
//! | `sim_throughput` | simulator wall-clock and event counts by shard count; writes `BENCH_sim.json` |
//! | `schedule_explore` | schedule-space exploration: hidden-FS detection over perturbed interleavings; writes `BENCH_schedule.json` |
//! | `robustness_sweep` | fault injection and bounded memory as gated guarantees; writes `BENCH_robust.json` |
//! | `bench_compare` | compares a fresh `BENCH_*.json` against the committed baseline |
//!
//! Run one with `cargo run --release -p cheetah-bench --bin <name>`. The
//! end-to-end and per-layer timings live in the separate `perfbench`
//! harness.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use cheetah_core::{CheetahConfig, CheetahProfiler, Profile};
use cheetah_sim::{Machine, MachineConfig, NullObserver, RunReport};
use cheetah_workloads::{App, AppConfig};

/// Runs an app natively (no profiling) and returns the machine report.
pub fn run_native(machine: &Machine, app: &App, config: &AppConfig) -> RunReport {
    let instance = app.build(config);
    machine.run(instance.program, &mut NullObserver)
}

/// Runs an app under the Cheetah profiler; returns the machine report and
/// the profile.
pub fn run_cheetah(
    machine: &Machine,
    app: &App,
    config: &AppConfig,
    cheetah: CheetahConfig,
) -> (RunReport, Profile) {
    let instance = app.build(config);
    let mut profiler = CheetahProfiler::new(cheetah, &instance.space);
    let report = machine.run(instance.program, &mut profiler);
    (report, profiler.finish())
}

/// The evaluation machine: 48 cores, 64-byte lines (the paper's Opteron).
pub fn paper_machine() -> Machine {
    Machine::new(MachineConfig::default())
}

/// Prints a markdown-ish table row.
pub fn row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" | ")
}
