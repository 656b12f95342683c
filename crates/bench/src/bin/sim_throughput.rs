//! Simulator throughput: single- vs. multi-shard wall-clock and
//! merged-event counts on the Table-2 matrix rows.
//!
//! For every `(workload, threads)` row of the validation matrix — plus the
//! `streaming_histogram` rows, the adversarial case for extent
//! classification — this harness times the core simulation pipeline of one
//! matrix cell (a native run and a profiled run of both the broken and the
//! repaired build) at several shard counts, and verifies on the way that
//! every shard count produces the bit-identical [`cheetah_sim::RunReport`]
//! (determinism is a hard failure here, not a statistic). It also checks
//! each cell's classic loop against a footprint-free reference: the broken
//! build's native report at `shards = 1`, where workers run ahead through
//! the lines their footprints declare private, must equal the same build
//! run under an observer that sees every access, which keeps every access
//! in strict time order.
//!
//! Each cell runs as the **median of N repeats** (rep-major, so slow drift
//! cannot bias one shard count), and the [`cheetah_sim::metrics`] counters
//! of the cell's own registry are read alongside wall-clock: `merged`
//! (events the merge replays individually), `folded` (accesses
//! batch-folded by precompute and settled-run folding), `surfaced`
//! (observer deliveries) and `ordered` (merged − surfaced: replay forced
//! by coherence ordering alone — the number extent classification exists
//! to shrink). Event counts are
//! deterministic per (cell, shard count), so they are asserted stable
//! across repeats rather than aggregated.
//!
//! Emits a human table on stdout and machine-readable records to
//! `BENCH_sim.json` (current directory); each cell record carries the
//! sharded passes' wall-clock split as a nested `pass_breakdown` object
//! and the schedule policy the cell ran under (always `"observed"` here —
//! perturbed-schedule sweeps live in `schedule_explore`).
//! With `--check`, exits nonzero if any gate below fails — the CI
//! regression gates for the sharded execution path:
//!
//! - a thread-count row runs slower sharded (shards >= 2) than
//!   single-threaded by more than [`ROW_TOLERANCE`];
//! - a sharded cell reports a zeroed three-pass breakdown (a silently
//!   uninstrumented code path);
//! - a sharded cell of a [`GATED`] workload runs below
//!   [`CELL_SPEEDUP_FLOOR`] times the classic loop;
//! - against the committed `BENCH_sim.json` the run is about to overwrite,
//!   a sharded cell of a [`GATED`] workload replays more than
//!   [`EVENT_SLACK`] above the recorded `ordered_events`, or a sharded
//!   baseline cell is missing from the fresh run.
//!
//! With `--trace out.json` the first cell is re-run at the highest shard
//! count through a tracing [`ObsHandle`] and the phase / classify /
//! precompute / merge spans are exported as Perfetto-loadable Chrome
//! trace-event JSON (`--journal out.jsonl` likewise exports the flat JSONL
//! journal of the same run). `--locate-divergence` switches to a
//! diagnostic mode: every cell runs at shard counts {1, max} with
//! per-phase FNV state-hash witnesses enabled, and the harness reports the
//! first phase whose hashes differ — turning "bit-identity assert failed
//! somewhere" into a one-line diagnosis.
//!
//! Usage: see [`USAGE`].

use cheetah_bench::{
    flag_list, flag_value, report_failures, run_cheetah, usage_exit, MIN_IMPROVEMENT,
};
use cheetah_core::{CheetahConfig, CheetahProfiler};
use cheetah_obs::json::{self, Value};
use cheetah_obs::ObsHandle;
use cheetah_sim::{metrics, ExecObserver, Machine, MachineConfig, NullObserver, RunReport};
use cheetah_workloads::{find, table2_matrix, SweepCell, SWEEP_THREAD_COUNTS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const USAGE: &str = "sim_throughput [--shards 1,2,4] [--reps N] [--check] [--trace out.json] \
                     [--journal out.jsonl] [--locate-divergence]";

/// The artifact this bin writes, and under `--check` the baseline it
/// gates against before overwriting it.
const BENCH_PATH: &str = "BENCH_sim.json";

/// The workloads whose sharded cells are gated: the streaming shapes
/// extent classification exists for.
const GATED: [&str; 2] = ["streamcluster", "streaming_histogram"];

/// Slack on a gated cell's `ordered_events` over the baseline, for benign
/// reclassifications (the counts are deterministic).
const EVENT_SLACK: f64 = 0.05;

/// The lowest speedup over the classic loop a gated sharded cell may show.
const CELL_SPEEDUP_FLOOR: f64 = 0.90;

/// How much slower than single-threaded a sharded thread-count row may run.
const ROW_TOLERANCE: f64 = 0.10;

/// The execution counters one cell's registry accumulated.
#[derive(Debug, Clone, Copy, Default)]
struct Events {
    merged: u64,
    folded: u64,
    surfaced: u64,
    classify_ns: u64,
    precompute_ns: u64,
    merge_ns: u64,
}

impl Events {
    fn read(obs: &ObsHandle) -> Events {
        let get = |name| obs.counter(name).get();
        Events {
            merged: get(metrics::MERGED_EVENTS),
            folded: get(metrics::FOLDED_EVENTS),
            surfaced: get(metrics::SURFACED_EVENTS),
            classify_ns: get(metrics::CLASSIFY_NS),
            precompute_ns: get(metrics::PRECOMPUTE_NS),
            merge_ns: get(metrics::MERGE_NS),
        }
    }
}

/// One timed pipeline execution, reporting into `obs` (callers pass a
/// fresh registry per call, so the counters hold exactly this cell's
/// runs); returns the profiled broken-build report (the determinism
/// witness), the wall-clock nanoseconds and the event counters
/// accumulated over the cell's four runs.
fn run_cell(cell: &SweepCell, shards: u32, obs: &ObsHandle) -> (RunReport, u128, Events) {
    let machine = Machine::new(
        MachineConfig::with_cores(cell.cores)
            .with_shards(shards)
            .with_obs(obs.clone()),
    );
    let cheetah = CheetahConfig::scaled(cell.period).with_obs(obs.clone());
    let broken = cell.app_config();
    let fixed = cheetah_workloads::AppConfig {
        fixed: true,
        ..broken
    };
    let start = Instant::now();
    let mut witness = None;
    for (config, profiled) in [
        (&broken, false),
        (&broken, true),
        (&fixed, false),
        (&fixed, true),
    ] {
        let instance = cell.app.build(config);
        let report = if profiled {
            let mut profiler = CheetahProfiler::new(cheetah.clone(), &instance.space);
            machine.run(instance.program, &mut profiler)
        } else {
            machine.run(instance.program, &mut NullObserver)
        };
        if profiled && !config.fixed {
            witness = Some(report);
        }
    }
    let wall = start.elapsed().as_nanos();
    (
        witness.expect("broken profiled run executed"),
        wall,
        Events::read(obs),
    )
}

/// Sees every access and charges nothing: the classic loop then orders
/// every access, so no declared footprint is trusted.
struct StrictOrder;

impl ExecObserver for StrictOrder {}

/// Asserts that the cell's broken build reports the same at `shards = 1`
/// with run-ahead (a [`NullObserver`] run) as in strict time order.
fn assert_run_ahead_exact(cell: &SweepCell) {
    let machine = Machine::new(MachineConfig::with_cores(cell.cores));
    let run = |observer: &mut dyn ExecObserver| {
        machine.run(cell.app.build(&cell.app_config()).program, observer)
    };
    assert_eq!(
        run(&mut NullObserver),
        run(&mut StrictOrder),
        "{} threads={}: the classic loop's run-ahead diverged from strict order",
        cell.app.name(),
        cell.threads
    );
}

/// Runs one profiled broken-build execution with per-phase state-hash
/// witnesses enabled; returns `(index, kind, witness)` per phase, in phase
/// order.
fn phase_hashes(cell: &SweepCell, shards: u32) -> Vec<(u64, String, u64)> {
    let obs = ObsHandle::fresh();
    let machine = Machine::new(
        MachineConfig::with_cores(cell.cores)
            .with_shards(shards)
            .with_obs(obs.clone())
            .with_witness(true),
    );
    let cheetah = CheetahConfig::scaled(cell.period).with_obs(obs.clone());
    run_cheetah(&machine, cell.app, &cell.app_config(), cheetah);
    obs.spans_sorted_by_attr("phase", "index")
        .iter()
        .map(|span| {
            (
                span.attr_u64("index").expect("phase span carries index"),
                span.attr_str("kind").unwrap_or("?").to_string(),
                span.attr_u64("witness").expect("witness enabled"),
            )
        })
        .collect()
}

/// The `--locate-divergence` mode: reruns every cell at shard counts
/// {1, `max_shards`} and reports the first phase whose state hashes
/// differ. Returns the number of diverging cells.
fn locate_divergence(cells: &[SweepCell], max_shards: u32) -> usize {
    println!("Determinism divergence locator: per-phase state hashes, shards 1 vs {max_shards}\n");
    let mut diverging = 0;
    for cell in cells {
        let name = format!("{} threads={}", cell.app.name(), cell.threads);
        let base = phase_hashes(cell, 1);
        let sharded = phase_hashes(cell, max_shards);
        let diverged = base
            .iter()
            .zip(&sharded)
            .find(|(a, b)| a != b)
            .map(|(a, b)| (a.clone(), b.clone()));
        match diverged {
            Some(((index, kind, left), (_, _, right))) => {
                diverging += 1;
                println!(
                    "{name}: FIRST DIVERGENCE at phase #{index} ({kind}): \
                     {left:#018x} (1 shard) vs {right:#018x} ({max_shards} shards)"
                );
            }
            None if base.len() != sharded.len() => {
                diverging += 1;
                println!(
                    "{name}: phase count differs: {} (1 shard) vs {} ({max_shards} shards)",
                    base.len(),
                    sharded.len()
                );
            }
            None => println!("{name}: identical ({} phases)", base.len()),
        }
    }
    diverging
}

struct Record {
    workload: &'static str,
    threads: u32,
    period: u64,
    shards: u32,
    wall_ns: u128,
    speedup: f64,
    events: Events,
}

impl Record {
    fn ordered_events(&self) -> u64 {
        self.events.merged - self.events.surfaced
    }
}

struct Args {
    shards: Vec<u32>,
    reps: u32,
    check: bool,
    trace: Option<String>,
    journal: Option<String>,
    locate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        shards: vec![1, 2, 4],
        reps: 3,
        check: false,
        trace: None,
        journal: None,
        locate: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => parsed.shards = flag_list(&mut args, &arg)?,
            "--reps" => parsed.reps = flag_value(&mut args, &arg)?,
            "--check" => parsed.check = true,
            "--trace" => parsed.trace = Some(flag_value(&mut args, &arg)?),
            "--journal" => parsed.journal = Some(flag_value(&mut args, &arg)?),
            "--locate-divergence" => parsed.locate = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !parsed.shards.contains(&1) {
        return Err("--shards must include 1 (the baseline)".into());
    }
    if parsed.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    Ok(parsed)
}

/// Median of the recorded repeat times.
fn median(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2
    }
}

/// The bench rows: the matrix's `(workload, threads)` pairs at the first
/// period each, plus the streaming-classification stress rows.
fn bench_cells() -> Vec<SweepCell> {
    let mut cells: Vec<SweepCell> = Vec::new();
    for cell in table2_matrix() {
        if !cells
            .iter()
            .any(|c: &SweepCell| c.app.name() == cell.app.name() && c.threads == cell.threads)
        {
            cells.push(cell);
        }
    }
    let hist = find("streaming_histogram").expect("registered workload");
    for threads in SWEEP_THREAD_COUNTS {
        cells.push(SweepCell {
            app: hist,
            threads,
            period: 64,
            scale: 0.5,
            cores: 48,
            min_predicted_improvement: MIN_IMPROVEMENT,
            max_iterations: 8,
        });
    }
    cells
}

/// One thread-count row: every workload's cells at one shard count, summed.
struct Row {
    threads: u32,
    shards: u32,
    wall_ns: u128,
    /// The row's single-threaded wall-clock.
    base_ns: u128,
    speedup: f64,
    merged: u64,
    ordered: u64,
}

/// Aggregates the cell records by `(threads, shards)`: the matrix-row view.
fn aggregate_rows(records: &[Record]) -> Vec<Row> {
    let mut sums: BTreeMap<(u32, u32), (u128, u64, u64)> = BTreeMap::new();
    for r in records {
        let sum = sums.entry((r.threads, r.shards)).or_insert((0, 0, 0));
        sum.0 += r.wall_ns;
        sum.1 += r.events.merged;
        sum.2 += r.ordered_events();
    }
    sums.iter()
        .map(|(&(threads, shards), &(wall_ns, merged, ordered))| {
            let base_ns = sums[&(threads, 1)].0;
            Row {
                threads,
                shards,
                wall_ns,
                base_ns,
                speedup: base_ns as f64 / wall_ns as f64,
                merged,
                ordered,
            }
        })
        .collect()
}

/// The gates that need no baseline: row wall-clock within
/// [`ROW_TOLERANCE`], a nonzero pass breakdown in every sharded cell, and
/// gated cells at or above [`CELL_SPEEDUP_FLOOR`].
fn fresh_regressions(records: &[Record], rows: &[Row]) -> Vec<String> {
    let mut regressions = Vec::new();
    for row in rows.iter().filter(|row| row.shards >= 2) {
        if row.wall_ns as f64 > row.base_ns as f64 * (1.0 + ROW_TOLERANCE) {
            regressions.push(format!(
                "row threads={} shards={}: {:.1}ms vs {:.1}ms single-threaded \
                 ({:.2}x, slower beyond {:.0}% tolerance)",
                row.threads,
                row.shards,
                row.wall_ns as f64 / 1e6,
                row.base_ns as f64 / 1e6,
                row.speedup,
                ROW_TOLERANCE * 100.0
            ));
        }
    }
    for r in records.iter().filter(|r| r.shards >= 2) {
        let cell = format!(
            "cell {} threads={} shards={}",
            r.workload, r.threads, r.shards
        );
        // A zeroed breakdown means the classify/precompute/merge timers
        // silently stopped reporting.
        if r.events.classify_ns == 0 || r.events.precompute_ns == 0 || r.events.merge_ns == 0 {
            regressions.push(format!(
                "{cell}: pass_breakdown has a zero component (classify={} precompute={} \
                 merge={} ns) — sharded passes unreported",
                r.events.classify_ns, r.events.precompute_ns, r.events.merge_ns
            ));
        }
        if GATED.contains(&r.workload) && r.speedup < CELL_SPEEDUP_FLOOR {
            regressions.push(format!(
                "{cell}: {:.2}x the classic loop, below the {CELL_SPEEDUP_FLOOR:.2}x floor",
                r.speedup
            ));
        }
    }
    regressions
}

/// The gates against the committed baseline: every sharded baseline cell
/// is present in `records`, and a gated cell's `ordered_events` stays
/// within `ceil((1 + EVENT_SLACK) * baseline)`.
fn baseline_regressions(baseline: &Value, records: &[Record]) -> Vec<String> {
    let cells = baseline.get("results").and_then(Value::as_arr);
    let mut regressions = Vec::new();
    let mut sharded = 0;
    for cell in cells.unwrap_or_default() {
        let num = |key| cell.get(key).and_then(Value::as_f64);
        let workload = cell.get("workload").and_then(Value::as_str);
        let (Some(workload), Some(threads), Some(shards), Some(ordered)) = (
            workload,
            num("threads"),
            num("shards"),
            num("ordered_events"),
        ) else {
            regressions.push(format!("baseline {BENCH_PATH}: malformed cell {cell:?}"));
            continue;
        };
        if shards < 2.0 {
            continue;
        }
        sharded += 1;
        let key = format!("cell {workload} threads={threads} shards={shards}");
        let limit = (ordered * (1.0 + EVENT_SLACK)).ceil() as u64;
        let fresh = records.iter().find(|r| {
            (r.workload, f64::from(r.threads), f64::from(r.shards)) == (workload, threads, shards)
        });
        match fresh {
            None => regressions.push(format!("{key}: in the baseline, missing from this run")),
            Some(r) if GATED.contains(&workload) && r.ordered_events() > limit => {
                regressions.push(format!(
                    "{key}: {} ordered events, above the baseline's {ordered} + {:.0}% \
                     (limit {limit})",
                    r.ordered_events(),
                    EVENT_SLACK * 100.0
                ))
            }
            Some(_) => {}
        }
    }
    if sharded == 0 {
        regressions.push(format!("baseline {BENCH_PATH}: no sharded cells to gate"));
    }
    regressions
}

/// Re-runs `cell` at `shards` through a fresh tracing registry and writes
/// the requested exports.
fn export_trace(cell: &SweepCell, shards: u32, trace: Option<&str>, journal: Option<&str>) {
    let obs = ObsHandle::fresh();
    run_cell(cell, shards, &obs);
    if let Some(path) = trace {
        std::fs::write(path, obs.chrome_trace()).expect("write chrome trace");
        println!("wrote {path} (load in https://ui.perfetto.dev)");
    }
    if let Some(path) = journal {
        std::fs::write(path, obs.jsonl()).expect("write jsonl journal");
        println!("wrote {path}");
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|error| usage_exit(USAGE, &error));
    let (shard_counts, reps, check) = (args.shards, args.reps, args.check);
    let cells = bench_cells();
    let max_shards = *shard_counts.iter().max().expect("nonempty shard list");

    if args.locate {
        let diverging = locate_divergence(&cells, max_shards);
        if diverging > 0 {
            std::process::exit(1);
        }
        return;
    }

    let mut records: Vec<Record> = Vec::new();
    for cell in &cells {
        assert_run_ahead_exact(cell);
        // Median-of-reps, rep-major: interleaving shard counts within each
        // rep keeps slow drift (thermal, noisy neighbours) from biasing
        // one shard count's measurements against another's — and a median
        // is robust to the isolated stalls a loaded 1-CPU host produces.
        let mut walls: Vec<Vec<u128>> = vec![Vec::with_capacity(reps as usize); shard_counts.len()];
        let mut events: Vec<Vec<Events>> =
            vec![Vec::with_capacity(reps as usize); shard_counts.len()];
        let mut baseline_report: Option<RunReport> = None;
        for _ in 0..reps {
            for (i, &shards) in shard_counts.iter().enumerate() {
                // A fresh untraced registry per execution: its counts are
                // this cell's alone.
                let (report, wall, cell_events) =
                    run_cell(cell, shards, &ObsHandle::fresh_untraced());
                walls[i].push(wall);
                if let Some(first) = events[i].first() {
                    assert_eq!(
                        (first.merged, first.folded, first.surfaced),
                        (cell_events.merged, cell_events.folded, cell_events.surfaced),
                        "{} threads={} shards={}: event counts changed between repeats",
                        cell.app.name(),
                        cell.threads,
                        shards
                    );
                }
                events[i].push(cell_events);
                match &baseline_report {
                    None => baseline_report = Some(report),
                    Some(baseline) => assert_eq!(
                        baseline,
                        &report,
                        "{} threads={} shards={}: sharded report diverged from 1-shard run",
                        cell.app.name(),
                        cell.threads,
                        shards
                    ),
                }
            }
        }
        let medians: Vec<u128> = walls.iter_mut().map(|w| median(w)).collect();
        let baseline_wall = medians[0];
        for (i, &shards) in shard_counts.iter().enumerate() {
            // Event counts are repeat-stable (asserted above); the pass
            // timings are noisy, so report their per-field medians to stay
            // consistent with the median wall-clock.
            let mut cell_events = events[i][0];
            let ns_median = |f: fn(&Events) -> u64| -> u64 {
                let mut ns: Vec<u128> = events[i].iter().map(|e| u128::from(f(e))).collect();
                median(&mut ns) as u64
            };
            cell_events.classify_ns = ns_median(|e| e.classify_ns);
            cell_events.precompute_ns = ns_median(|e| e.precompute_ns);
            cell_events.merge_ns = ns_median(|e| e.merge_ns);
            records.push(Record {
                workload: cell.app.name(),
                threads: cell.threads,
                period: cell.period,
                shards,
                wall_ns: medians[i],
                speedup: baseline_wall as f64 / medians[i] as f64,
                events: cell_events,
            });
        }
    }

    println!("Simulator throughput: matrix-cell pipeline wall-clock by shard count");
    println!("(median of {reps} repeats; events: merged | ordered = merged - surfaced | folded)\n");
    println!(
        "{}",
        cheetah_bench::row(&[
            "workload".into(),
            "threads".into(),
            "shards".into(),
            "wall_ms".into(),
            "speedup".into(),
            "merged".into(),
            "ordered".into(),
            "folded".into(),
        ])
    );
    for r in &records {
        println!(
            "{}",
            cheetah_bench::row(&[
                r.workload.into(),
                r.threads.to_string(),
                r.shards.to_string(),
                format!("{:.1}", r.wall_ns as f64 / 1e6),
                format!("{:.2}x", r.speedup),
                r.events.merged.to_string(),
                r.ordered_events().to_string(),
                r.events.folded.to_string(),
            ])
        );
    }

    let rows = aggregate_rows(&records);
    println!("\nPer-row aggregate (all workloads at a thread count):\n");
    println!(
        "{}",
        cheetah_bench::row(&[
            "threads".into(),
            "shards".into(),
            "wall_ms".into(),
            "speedup".into(),
            "ordered".into(),
        ])
    );
    for row in &rows {
        println!(
            "{}",
            cheetah_bench::row(&[
                row.threads.to_string(),
                row.shards.to_string(),
                format!("{:.1}", row.wall_ns as f64 / 1e6),
                format!("{:.2}x", row.speedup),
                row.ordered.to_string(),
            ])
        );
    }

    let mut regressions = fresh_regressions(&records, &rows);
    let baseline = std::fs::read_to_string(BENCH_PATH)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text));
    match &baseline {
        Ok(baseline) => regressions.extend(baseline_regressions(baseline, &records)),
        Err(e) => regressions.push(format!("baseline {BENCH_PATH}: {e}")),
    }

    let mut json = String::from("{\n  \"benchmark\": \"sim\",\n");
    let _ = writeln!(
        json,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"results\": [\n");
    let cell_records: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"threads\": {}, \"period\": {}, \
                 \"shards\": {}, \"schedule\": \"observed\", \"wall_ns\": {}, \"speedup\": {:.4}, \
                 \"merged_events\": {}, \"folded_events\": {}, \"surfaced_events\": {}, \
                 \"ordered_events\": {}, \"pass_breakdown\": {{\"classify_ns\": {}, \
                 \"precompute_ns\": {}, \"merge_ns\": {}}}, \"identical\": true}}",
                r.workload,
                r.threads,
                r.period,
                r.shards,
                r.wall_ns,
                r.speedup,
                r.events.merged,
                r.events.folded,
                r.events.surfaced,
                r.ordered_events(),
                r.events.classify_ns,
                r.events.precompute_ns,
                r.events.merge_ns,
            )
        })
        .collect();
    json.push_str(&cell_records.join(",\n"));
    json.push_str("\n  ],\n  \"rows\": [\n");
    let row_json: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "    {{\"threads\": {}, \"shards\": {}, \"wall_ns\": {}, \"speedup\": {:.4}, \
                 \"merged_events\": {}, \"ordered_events\": {}}}",
                row.threads, row.shards, row.wall_ns, row.speedup, row.merged, row.ordered
            )
        })
        .collect();
    json.push_str(&row_json.join(",\n"));
    json.push_str("\n  ]\n}\n");

    std::fs::write(BENCH_PATH, json).expect("write BENCH_sim.json");
    println!("\nwrote {BENCH_PATH}");

    if args.trace.is_some() || args.journal.is_some() {
        export_trace(
            &cells[0],
            max_shards,
            args.trace.as_deref(),
            args.journal.as_deref(),
        );
    }

    report_failures(
        check,
        &regressions,
        "no sharded row slower than single-threaded; all sharded cells report a \
         nonzero pass breakdown; gated cells within the speedup floor and the \
         baseline's ordered events",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &'static str, shards: u32, speedup: f64, ordered: u64) -> Record {
        let events = Events {
            merged: ordered,
            classify_ns: 1,
            precompute_ns: 1,
            merge_ns: 1,
            ..Events::default()
        };
        Record {
            workload,
            threads: 4,
            period: 64,
            shards,
            wall_ns: 100,
            speedup,
            events,
        }
    }

    /// A baseline with one threads=4 cell per `(workload, shards, ordered_events)`.
    fn baseline(cells: &[(&str, u32, u64)]) -> Value {
        let cells: Vec<String> = cells
            .iter()
            .map(|(w, s, o)| {
                format!(
                    r#"{{"workload": "{w}", "threads": 4, "shards": {s}, "ordered_events": {o}}}"#
                )
            })
            .collect();
        json::parse(&format!(r#"{{"results": [{}]}}"#, cells.join(", "))).unwrap()
    }

    #[test]
    fn ordered_events_allow_exactly_the_slack() {
        let base = baseline(&[("streamcluster", 2, 100)]);
        let at_slack = [record("streamcluster", 2, 1.5, 105)];
        assert_eq!(baseline_regressions(&base, &at_slack), Vec::<String>::new());
        let over = [record("streamcluster", 2, 1.5, 106)];
        assert_eq!(baseline_regressions(&base, &over).len(), 1);
    }

    #[test]
    fn missing_baseline_cell_fails() {
        let base = baseline(&[("struct_straddle", 2, 100), ("streamcluster", 4, 100)]);
        let regressions = baseline_regressions(&base, &[record("streamcluster", 4, 1.5, 100)]);
        assert!(matches!(&regressions[..], [one] if one.contains("struct_straddle")));
    }

    #[test]
    fn speedup_floor_gates_only_streaming_workloads() {
        let passing = [
            record("streaming_histogram", 2, 0.90, 10),
            record("struct_straddle", 2, 0.5, 90),
        ];
        assert_eq!(fresh_regressions(&passing, &[]), Vec::<String>::new());
        let slow = [record("streaming_histogram", 2, 0.89, 10)];
        assert_eq!(fresh_regressions(&slow, &[]).len(), 1);
    }

    #[test]
    fn sharded_row_allows_exactly_the_tolerance() {
        let mut cells = [
            record("microbench", 1, 1.0, 0),
            record("microbench", 2, 1.0, 0),
        ];
        cells[1].wall_ns = 110;
        assert_eq!(
            fresh_regressions(&cells, &aggregate_rows(&cells)),
            Vec::<String>::new()
        );
        cells[1].wall_ns = 111;
        assert_eq!(fresh_regressions(&cells, &aggregate_rows(&cells)).len(), 1);
    }
}
