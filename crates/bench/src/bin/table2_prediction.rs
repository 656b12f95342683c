//! Table 2, scaled up — the prediction-validation *matrix*.
//!
//! The paper validates predicted vs. real improvement at one configuration
//! per workload; this harness sweeps every cell of
//! [`cheetah_workloads::table2_matrix`] (workload × thread count ×
//! sampling period) and, in each cell, runs the full fixpoint repair loop
//! ([`cheetah_repair::converge()`]): profile, apply the top-ranked
//! synthesized fix, re-profile, repeat to convergence. Each cell records
//! the loop's first fix (predicted vs. measured improvement of that step),
//! how many iterations convergence took, and the detector's runtime
//! overhead at the cell's sampling rate.
//!
//! Emits a human table on stdout and machine-readable records to
//! `BENCH_repair.json` (current directory). Every field is deterministic,
//! so CI regenerates the file and requires it to be byte-identical (`cmp`)
//! to the committed baseline.
//!
//! With `--trace out.json` every cell's phase, shard-pass, and
//! converge-iteration spans are collected in one tracing [`ObsHandle`] and
//! exported as Perfetto-loadable Chrome trace-event JSON after the matrix
//! completes. Spans on an untraced registry are no-ops, so tracing leaves
//! `BENCH_repair.json` unchanged.
//!
//! Usage: see [`USAGE`].

use cheetah_bench::{flag_value, run_cheetah, run_native, usage_exit};
use cheetah_core::CheetahConfig;
use cheetah_obs::ObsHandle;
use cheetah_repair::{converge, ConvergeConfig, ConvergenceTrace, ValidationHarness};
use cheetah_sim::{Machine, MachineConfig};
use cheetah_workloads::{table2_matrix, SweepCell};
use std::fmt::Write as _;

const USAGE: &str = "table2_prediction [--shards N] [--trace out.json]";

struct Row {
    cell: SweepCell,
    trace: ConvergenceTrace,
    detector_overhead: f64,
}

fn measure(cell: SweepCell, shards: u32, obs: &ObsHandle) -> Row {
    let config = cell.app_config();
    let machine = Machine::new(
        MachineConfig::with_cores(cell.cores)
            .with_shards(shards)
            .with_obs(obs.clone()),
    );
    let cheetah = CheetahConfig::scaled(cell.period).with_obs(obs.clone());

    // Detector overhead: profiled (with real trap/setup costs) vs. native
    // runtime of the broken build.
    let native = run_native(&machine, cell.app, &config).total_cycles;
    let profiled = run_cheetah(&machine, cell.app, &config, cheetah.clone())
        .0
        .total_cycles;
    let detector_overhead = profiled as f64 / native as f64 - 1.0;

    // The fixpoint loop: fix, re-profile, repeat until nothing significant
    // remains. Cross-object cells run exhaustively with a thread-scaled
    // iteration bound (see `cheetah_workloads::sweep`).
    let harness = ValidationHarness::calibrated(machine, cheetah);
    let trace = converge(
        &harness,
        cell.app.name(),
        || cell.app.build(&config),
        &ConvergeConfig {
            max_iterations: cell.max_iterations,
            min_predicted_improvement: cell.min_predicted_improvement,
        },
    )
    .expect("synthesized repairs must apply");
    Row {
        cell,
        trace,
        detector_overhead,
    }
}

/// Returns `(shards, trace path)`.
fn parse_args() -> Result<(u32, Option<String>), String> {
    // `--shards N`: host threads for sharded simulator execution (see
    // `MachineConfig::shards`; 0 = auto, 1 = classic loop). Results are
    // bit-identical for every value — only wall-clock changes — so the
    // default exercises the sharded path.
    let mut shards = 4u32;
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => shards = flag_value(&mut args, &arg)?,
            "--trace" => trace_path = Some(flag_value(&mut args, &arg)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((shards, trace_path))
}

fn main() {
    let (shards, trace_path) = parse_args().unwrap_or_else(|error| usage_exit(USAGE, &error));
    let obs = if trace_path.is_some() {
        ObsHandle::fresh()
    } else {
        ObsHandle::fresh_untraced()
    };
    let rows: Vec<Row> = table2_matrix()
        .into_iter()
        .map(|cell| measure(cell, shards, &obs))
        .collect();

    println!("Table 2 matrix: fixpoint repair, predicted vs. measured per cell\n");
    println!(
        "{}",
        cheetah_bench::row(&[
            "workload".into(),
            "threads".into(),
            "period".into(),
            "iters".into(),
            "instance".into(),
            "predicted".into(),
            "actual".into(),
            "error".into(),
            "total".into(),
            "overhead".into(),
        ])
    );
    for row in &rows {
        let first = row.trace.iterations.first();
        println!(
            "{}",
            cheetah_bench::row(&[
                row.cell.app.name().into(),
                row.cell.threads.to_string(),
                row.cell.period.to_string(),
                row.trace.iterations.len().to_string(),
                first.map_or("(none)".into(), |i| i.label.clone()),
                first.map_or("-".into(), |i| format!("{:.2}x", i.predicted)),
                first.map_or("-".into(), |i| format!("{:.2}x", i.measured)),
                first.map_or("-".into(), |i| format!(
                    "{:.1}%",
                    i.relative_error() * 100.0
                )),
                format!("{:.2}x", row.trace.total_improvement()),
                format!("{:.1}%", row.detector_overhead * 100.0),
            ])
        );
    }

    // One JSON record per matrix cell.
    let mut records: Vec<String> = Vec::new();
    for row in &rows {
        let first = row.trace.iterations.first();
        let mut record = String::new();
        let _ = write!(
            record,
            "    {{\"workload\": \"{}\", \"threads\": {}, \"scale\": {}, \"period\": {}, \
             \"iterations\": {}, \"converged\": {}, \"residual\": {}, \
             \"instance\": \"{}\", \"strategy\": \"{}\", \"co_residents\": {}, \
             \"predicted_speedup\": {:.6}, \"actual_speedup\": {:.6}, \
             \"prediction_error\": {:.6}, \"worst_step_error\": {:.6}, \
             \"total_measured_speedup\": {:.6}, \
             \"detector_overhead\": {:.6}, \"broken_cycles\": {}, \
             \"repaired_cycles\": {}, \"samples\": {}}}",
            row.cell.app.name(),
            row.cell.threads,
            row.cell.scale,
            row.cell.period,
            row.trace.iterations.len(),
            row.trace.converged,
            row.trace.residual_significant,
            first.map_or("(none)".to_string(), |i| i.label.clone()),
            first.map_or("-".to_string(), |i| i.strategy.to_string()),
            first.map_or(1, |i| i.co_residents),
            first.map_or(0.0, |i| i.predicted),
            first.map_or(0.0, |i| i.measured),
            // First-fix error matches the predicted/actual pair above;
            // worst_step_error covers every iteration of the cell's loop.
            first.map_or(0.0, |i| i.relative_error()),
            row.trace.worst_error(),
            row.trace.total_improvement(),
            row.detector_overhead,
            row.trace.initial_cycles,
            row.trace.final_cycles,
            row.trace.initial_samples,
        );
        records.push(record);
    }
    let mut json = String::from("{\n  \"benchmark\": \"repair\",\n  \"results\": [\n");
    json.push_str(&records.join(",\n"));
    json.push_str("\n  ]\n}\n");

    let path = "BENCH_repair.json";
    std::fs::write(path, json).expect("write BENCH_repair.json");
    println!("\nwrote {path}");

    if let Some(trace) = trace_path {
        std::fs::write(&trace, obs.chrome_trace()).expect("write chrome trace");
        println!("wrote {trace} (load in https://ui.perfetto.dev)");
    }
}
