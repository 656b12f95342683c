//! Simulator throughput: single- vs. multi-shard wall-clock and
//! merged-event counts on the Table-2 matrix rows.
//!
//! For every `(workload, threads)` row of the validation matrix — plus the
//! `streaming_histogram` rows, the adversarial case for extent
//! classification — this harness times the core simulation pipeline of one
//! matrix cell (a native run and a profiled run of both the broken and the
//! repaired build) at several shard counts, and verifies on the way that
//! every shard count produces the bit-identical [`cheetah_sim::RunReport`]
//! (determinism is a hard failure here, not a statistic).
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
//! With `--check`, exits nonzero if any thread-count row is slower sharded
//! (shards >= 2) than single-threaded beyond the tolerance, or if any
//! sharded cell reports a zeroed three-pass breakdown (a silently
//! uninstrumented code path) — the CI regression gates for the sharded
//! execution path. `bench_compare --sim` adds the cross-commit gate on the
//! recorded event counts.
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
//! Usage: `sim_throughput [--shards 1,2,4] [--reps N] [--tolerance 0.10]
//! [--check] [--trace out.json] [--journal out.jsonl]
//! [--locate-divergence]`

use cheetah_core::{CheetahConfig, CheetahProfiler};
use cheetah_obs::ObsHandle;
use cheetah_sim::{metrics, Machine, MachineConfig, NullObserver, RunReport};
use cheetah_workloads::{find, table2_matrix, SweepCell, SWEEP_THREAD_COUNTS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// The execution counters one cell's registry accumulated.
#[derive(Debug, Clone, Copy)]
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
    let instance = cell.app.build(&cell.app_config());
    let mut profiler = CheetahProfiler::new(cheetah, &instance.space);
    machine.run(instance.program, &mut profiler);
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
    tolerance: f64,
    check: bool,
    trace: Option<String>,
    journal: Option<String>,
    locate: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        shards: vec![1, 2, 4],
        reps: 3,
        tolerance: 0.10,
        check: false,
        trace: None,
        journal: None,
        locate: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => {
                let list = args.next().expect("--shards needs a list");
                parsed.shards = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("shard count"))
                    .collect();
            }
            "--reps" => parsed.reps = args.next().expect("--reps needs N").parse().expect("reps"),
            "--tolerance" => {
                parsed.tolerance = args
                    .next()
                    .expect("--tolerance needs a fraction")
                    .parse()
                    .expect("tolerance")
            }
            "--check" => parsed.check = true,
            "--trace" => parsed.trace = Some(args.next().expect("--trace needs a path")),
            "--journal" => parsed.journal = Some(args.next().expect("--journal needs a path")),
            "--locate-divergence" => parsed.locate = true,
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(
        parsed.shards.contains(&1),
        "--shards must include 1 (the baseline)"
    );
    assert!(parsed.reps >= 1, "--reps must be at least 1");
    parsed
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
            min_predicted_improvement: 1.005,
            max_iterations: 8,
        });
    }
    cells
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
    let args = parse_args();
    let (shard_counts, reps, tolerance, check) =
        (args.shards, args.reps, args.tolerance, args.check);
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

    // Aggregate rows by thread count: the matrix-row view of the gate.
    let mut rows: BTreeMap<(u32, u32), (u128, u64, u64)> = BTreeMap::new();
    for r in &records {
        let row = rows.entry((r.threads, r.shards)).or_insert((0, 0, 0));
        row.0 += r.wall_ns;
        row.1 += r.events.merged;
        row.2 += r.ordered_events();
    }
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
    let mut row_records: Vec<(u32, u32, u128, f64, u64, u64)> = Vec::new();
    let mut regressions: Vec<String> = Vec::new();
    for (&(threads, shards), &(wall, merged, ordered)) in &rows {
        let base = rows[&(threads, 1)].0;
        let speedup = base as f64 / wall as f64;
        row_records.push((threads, shards, wall, speedup, merged, ordered));
        println!(
            "{}",
            cheetah_bench::row(&[
                threads.to_string(),
                shards.to_string(),
                format!("{:.1}", wall as f64 / 1e6),
                format!("{:.2}x", speedup),
                ordered.to_string(),
            ])
        );
        if shards >= 2 && (wall as f64) > base as f64 * (1.0 + tolerance) {
            regressions.push(format!(
                "row threads={threads} shards={shards}: {:.1}ms vs {:.1}ms single-threaded \
                 ({speedup:.2}x, slower beyond {tolerance:.0}% tolerance)",
                wall as f64 / 1e6,
                base as f64 / 1e6,
                tolerance = tolerance * 100.0
            ));
        }
    }

    // Instrumentation gate: a sharded cell with a zeroed three-pass
    // breakdown means the classify/precompute/merge timers silently
    // stopped reporting — fail `--check` rather than publish hollow data.
    for r in &records {
        if r.shards >= 2
            && (r.events.classify_ns == 0 || r.events.precompute_ns == 0 || r.events.merge_ns == 0)
        {
            regressions.push(format!(
                "cell {} threads={} shards={}: pass_breakdown has a zero component \
                 (classify={} precompute={} merge={} ns) — sharded passes unreported",
                r.workload,
                r.threads,
                r.shards,
                r.events.classify_ns,
                r.events.precompute_ns,
                r.events.merge_ns
            ));
        }
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
    let row_json: Vec<String> = row_records
        .iter()
        .map(|(threads, shards, wall, speedup, merged, ordered)| {
            format!(
                "    {{\"threads\": {threads}, \"shards\": {shards}, \
                 \"wall_ns\": {wall}, \"speedup\": {speedup:.4}, \
                 \"merged_events\": {merged}, \"ordered_events\": {ordered}}}"
            )
        })
        .collect();
    json.push_str(&row_json.join(",\n"));
    json.push_str("\n  ]\n}\n");

    let path = "BENCH_sim.json";
    let mut file = std::fs::File::create(path).expect("create BENCH_sim.json");
    file.write_all(json.as_bytes()).expect("write json");
    println!("\nwrote {path}");

    if args.trace.is_some() || args.journal.is_some() {
        export_trace(
            &cells[0],
            max_shards,
            args.trace.as_deref(),
            args.journal.as_deref(),
        );
    }

    if !regressions.is_empty() {
        eprintln!("\nsharded execution regressions:");
        for regression in &regressions {
            eprintln!("  {regression}");
        }
        if check {
            std::process::exit(1);
        }
    } else if check {
        println!(
            "check passed: no sharded row slower than single-threaded; \
             all sharded cells report a nonzero pass breakdown"
        );
    }
}
