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
//!
//! CI gates the deterministic `BENCH_repair.json`, `BENCH_robust.json` and
//! `BENCH_schedule.json` with `cmp`; `sim_throughput --check` gates the
//! wall-clock `BENCH_sim.json` against the committed copy it overwrites.
//!
//! Run one with `cargo run --release -p cheetah-bench --bin <name>`. The
//! end-to-end and per-layer timings live in the separate `perfbench`
//! harness.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use cheetah_core::{CheetahConfig, CheetahProfiler, ObjectOrigin, Profile};
use cheetah_sim::{Machine, MachineConfig, NullObserver, RunReport};
use cheetah_workloads::{find, App, AppConfig};
use std::str::FromStr;

/// The smallest predicted improvement the sweeps count as significant.
pub const MIN_IMPROVEMENT: f64 = 1.005;

/// A finding's label: the heap allocation callsite or the global's name.
pub fn origin_label(origin: &ObjectOrigin) -> String {
    match origin {
        ObjectOrigin::Heap { callsite, .. } => callsite.to_string(),
        ObjectOrigin::Global { name } => name.clone(),
    }
}

/// Parses the value that follows `flag` on the command line.
pub fn flag_value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.trim()
        .parse()
        .map_err(|_| format!("{flag}: bad value {raw:?}"))
}

/// Parses the comma-separated list that follows `flag`; every item must
/// parse, so an empty list is an error.
pub fn flag_list<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<Vec<T>, String> {
    let raw: String = flag_value(args, flag)?;
    raw.split(',')
        .map(|item| {
            item.trim()
                .parse()
                .map_err(|_| format!("{flag}: bad item {item:?}"))
        })
        .collect()
}

/// Parses the comma-separated registry workload names that follow `flag`.
pub fn flag_workloads(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<Vec<&'static App>, String> {
    flag_list::<String>(args, flag)?
        .iter()
        .map(|name| find(name).ok_or_else(|| format!("{flag}: unknown workload {name:?}")))
        .collect()
}

/// Checks that every workload builds with `config`, so a bad `--threads`
/// or `--scale` is a usage error instead of a panic mid-sweep.
pub fn check_workloads(apps: &[&'static App], config: &AppConfig) -> Result<(), String> {
    apps.iter()
        .try_for_each(|app| app.try_build(config).map(drop))
        .map_err(|error| error.to_string())
}

/// Prints the gate failures to stderr; under `check` any failure exits 1
/// and none prints `check passed: {passed}`.
pub fn report_failures(check: bool, failures: &[String], passed: &str) {
    if !failures.is_empty() {
        eprintln!("\ncheck failures:");
        for failure in failures {
            eprintln!("  {failure}");
        }
        if check {
            std::process::exit(1);
        }
    } else if check {
        println!("check passed: {passed}");
    }
}

/// Reports a command-line error with the bin's usage line and exits 2.
pub fn usage_exit(usage: &str, error: &str) -> ! {
    eprintln!("error: {error}\nusage: {usage}");
    std::process::exit(2)
}

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
