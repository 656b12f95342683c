//! perfbench: the repository benchmark.
//!
//! Times the three workflows a user of this reproduction waits on —
//! profiling a program, converging its repairs, exploring its schedules —
//! end to end, and splits their time across the crates from outside, with
//! the benchmark's own spans around each public call. See `README.md` in
//! this directory for every metric and why each workload exists.
//!
//! ```text
//! perfbench --workload profile|converge|explore [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --check [--workload W] [--seed N]
//! ```
//!
//! A measuring run prints human-readable lines, then one JSON result line
//! last, and writes the same result with the host calibration under
//! `out/`; `--trace 1` also writes a Chrome trace there (one lane per
//! layer, loadable in Perfetto). `--check` runs every correctness check on
//! two passes of each workload, compares the passes' rendered outputs, and
//! exits nonzero on any failure or difference.

mod host;
mod ledger;
mod stats;
mod suite;

use cheetah_obs::ObsHandle;
use stats::{median, tail, Metric, Outcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use suite::{Done, Suite, Workload};

const USAGE: &str = "usage: perfbench --workload profile|converge|explore [--seed N] \
                     [--seconds S] [--trace 0|1]\n       perfbench --check [--workload W] [--seed N]";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Repetitions of each operation the tail is taken over (its fastest
/// ones), and so the fewest passes a run makes whatever `--seconds` says.
/// A fixed pool keeps the tail at one rank: the eleventh-slowest of the
/// pool is the second-fastest run of the slowest operation whenever that
/// operation stands apart, on every workload.
const TAIL_PASSES: usize = 12;

/// The set-up repetitions are spread evenly over the run, so one burst of
/// host interference cannot move their median.
fn setup_due(done: usize, elapsed: f64, seconds: f64) -> bool {
    done < SETUP_REPS && elapsed >= seconds * done as f64 / SETUP_REPS as f64
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        check: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.check {
        return check(&args);
    }
    match args.workload {
        Some(workload) => measure(workload, &args),
        None => {
            eprintln!("perfbench: --workload is required\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// One pass over every operation, each timed alone.
struct Pass {
    wall_s: f64,
    op_s: Vec<f64>,
    done: Vec<Done>,
}

fn run_pass(obs: &ObsHandle, suite: &Suite) -> Pass {
    let start = Instant::now();
    let mut op_s = Vec::with_capacity(suite.ops.len());
    let mut done = Vec::with_capacity(suite.ops.len());
    for op in &suite.ops {
        let op_start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| suite::run_op(obs, suite, op)));
        let result = result.unwrap_or_else(|payload| Done {
            secs: op_start.elapsed().as_secs_f64(),
            output: None,
            hash: 0,
            failure: Some(format!("panicked: {}", panic_message(&*payload))),
        });
        op_s.push(result.secs);
        done.push(result);
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        op_s,
        done,
    }
}

/// Failure tally of a run: every failed operation, and the first few
/// reasons for the log.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    fn record(&mut self, suite: &Suite, pass: &Pass, reference: Option<&[Done]>) {
        for (i, (op, done)) in suite.ops.iter().zip(&pass.done).enumerate() {
            self.attempted += 1;
            let diverged = reference
                .map(|first| &first[i])
                .filter(|first| first.output.is_some() && done.output.is_some())
                .is_some_and(|first| first.hash != done.hash);
            let reason = match (&done.failure, diverged) {
                (Some(reason), _) => reason.clone(),
                (None, true) => "output differs from the first pass".into(),
                (None, false) => continue,
            };
            self.fail(format!("{}: {reason}", op.label()));
        }
    }

    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 10 {
            self.reasons.push(reason);
        }
    }
}

fn out_dir() -> Option<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).ok().map(|_| dir)
}

fn write_out(name: &str, contents: &str) {
    let written = out_dir()
        .map(|dir| dir.join(name))
        .and_then(|path| std::fs::write(&path, contents).ok().map(|_| path));
    match written {
        Some(path) => println!("wrote {}", path.display()),
        None => eprintln!("perfbench: could not write {name}"),
    }
}

/// What a run's untraced passes measured.
#[derive(Default)]
struct Timings {
    /// Each set-up repetition.
    setup_s: Vec<f64>,
    /// Each pass's wall time.
    walls: Vec<f64>,
    /// Each pass's operation times.
    passes: Vec<Vec<f64>>,
    /// Each pass's sum of operation times.
    op_sums: Vec<f64>,
    /// Each pass's peak resident set, in MB.
    peak_rss_mb: Vec<f64>,
}

fn measure(workload: Workload, args: &Args) -> ExitCode {
    let host = host::calibrate();
    println!(
        "perfbench {} seed {} ({} s, trace {}); host {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.to_json()
    );
    let mut tally = Tally::default();
    let mut timings = Timings::default();

    let set_up = |timings: &mut Timings| {
        let start = Instant::now();
        let suite = Suite::setup(workload, args.seed);
        timings.setup_s.push(start.elapsed().as_secs_f64());
        suite
    };
    let suite = set_up(&mut timings);
    let repeat_setup = |timings: &mut Timings, tally: &mut Tally| {
        let again = set_up(timings);
        let same = suite
            .ops
            .iter()
            .zip(&again.ops)
            .all(|(a, b)| a.native_cycles == b.native_cycles);
        if !same {
            tally.fail("set-up: unprofiled reference runs differ between repetitions".into());
        }
    };

    let untraced = ObsHandle::fresh_untraced();
    let traced = ObsHandle::fresh();
    for (lane, name) in suite::LANES {
        traced.name_lane(lane, name);
    }
    let min_passes = if args.trace { 1 } else { TAIL_PASSES };
    // Each pass's own peak, where the kernel can restart the count.
    let per_pass_rss = host::reset_peak_rss();
    let mut first: Option<Vec<Done>> = None;
    let mut traced_op_sums = Vec::new();
    let start = Instant::now();
    loop {
        if per_pass_rss {
            host::reset_peak_rss();
        }
        let pass = run_pass(&untraced, &suite);
        timings.peak_rss_mb.extend(host::peak_rss_mb());
        tally.record(&suite, &pass, first.as_deref());
        timings.walls.push(pass.wall_s);
        timings.op_sums.push(pass.op_s.iter().sum());
        timings.passes.push(pass.op_s);
        if first.is_none() {
            first = Some(pass.done);
        }
        if args.trace {
            let pass = run_pass(&traced, &suite);
            tally.record(&suite, &pass, first.as_deref());
            traced_op_sums.push(pass.op_s.iter().sum::<f64>());
            for (op, done) in suite.ops.iter().zip(&pass.done) {
                let Some(output) = &done.output else { continue };
                let probed = catch_unwind(AssertUnwindSafe(|| {
                    suite::probe(&traced, &suite, op, output)
                }))
                .unwrap_or_else(|payload| Err(panic_message(&*payload)));
                if let Err(reason) = probed {
                    tally.fail(format!("{} probe: {reason}", op.label()));
                }
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if setup_due(timings.setup_s.len(), elapsed, args.seconds) {
            repeat_setup(&mut timings, &mut tally);
        }
        if timings.walls.len() >= min_passes && elapsed >= args.seconds {
            break;
        }
    }
    while timings.setup_s.len() < SETUP_REPS {
        repeat_setup(&mut timings, &mut tally);
    }
    let first = first.expect("at least one pass");
    println!(
        "{} pass(es) of {} operation(s) in {:.1} s; set-up {:?} s; pass wall {:?} s",
        timings.walls.len(),
        suite.ops.len(),
        start.elapsed().as_secs_f64(),
        timings.setup_s,
        timings.walls
    );

    let metrics = if args.trace {
        let overhead =
            median(&traced_op_sums).unwrap_or(0.0) / median(&timings.op_sums).unwrap_or(1.0) - 1.0;
        let spans = traced.spans();
        report_self_times(workload, &spans);
        write_out(
            &format!("{}-seed{}.trace.json", workload.name(), args.seed),
            &traced.chrome_trace(),
        );
        ledger::layer_metrics(&spans, traced_op_sums.len() as u64, overhead)
    } else {
        if !per_pass_rss {
            timings.peak_rss_mb = host::peak_rss_mb().into_iter().collect();
        }
        let accuracy = suite::accuracy(&suite, &first).unwrap_or_else(|reason| {
            tally.fail(format!("accuracy: {reason}"));
            suite::Accuracy {
                sim_overhead_pct: f64::NAN,
                pred_err_p50: f64::NAN,
                pred_err_max: f64::NAN,
            }
        });
        end_to_end(&timings, &accuracy)
    };

    let outcome = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    };
    for reason in &tally.reasons {
        println!("FAILED {reason}");
    }
    for metric in &outcome.metrics {
        println!(
            "  {:<34} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    let line = outcome.to_json();
    write_out(
        &format!(
            "{}-seed{}-trace{}.json",
            workload.name(),
            args.seed,
            u8::from(args.trace)
        ),
        &format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"passes\": {}, \
             \"ops_per_pass\": {}, \"host\": {}, \"result\": {line}}}\n",
            workload.name(),
            args.seed,
            args.seconds,
            timings.walls.len(),
            suite.ops.len(),
            host.to_json()
        ),
    );
    println!("{line}");
    ExitCode::SUCCESS
}

/// Prints each layer's self time inside the traced operations.
fn report_self_times(workload: Workload, spans: &[cheetah_obs::SpanRecord]) {
    let (lanes, op_ns) = ledger::op_self_times(spans);
    let share = |ns: f64| 100.0 * ns / op_ns.max(1) as f64;
    println!(
        "layer self time inside operations: {:.1}% of {:.3} s traced operation time",
        share(lanes.values().sum::<u64>() as f64),
        op_ns as f64 / 1e9
    );
    for (lane, ns) in &lanes {
        println!("  {lane:>10}: {:5.1}%", share(*ns as f64));
    }
    if workload == Workload::Profile {
        // Each profile operation is one profiled run of the program the
        // probes replay layer by layer, so the probes split that run.
        let total = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns as f64)
                .sum()
        };
        let run = total("sim.profiled_run").max(1.0);
        let native = total("sim.native_run");
        println!(
            "  profiled run, split by the probes: sim {:.1}%, pmu {:.1}%, core ingest {:.1}%",
            100.0 * native / run,
            100.0 * (total("pmu.sampled_run") - native) / run,
            100.0 * total("core.ingest") / run
        );
    }
}

fn end_to_end(timings: &Timings, accuracy: &suite::Accuracy) -> Vec<Metric> {
    // Each operation's runs, fastest first.
    let ops = timings.passes.first().map_or(0, Vec::len);
    let runs: Vec<Vec<f64>> = (0..ops)
        .map(|op| {
            let mut runs: Vec<f64> = timings.passes.iter().map(|pass| pass[op]).collect();
            runs.sort_by(f64::total_cmp);
            runs
        })
        .collect();
    let best: Vec<f64> = runs.iter().map(|r| r[0]).collect();
    let pool: Vec<f64> = runs
        .iter()
        .flat_map(|r| &r[..TAIL_PASSES.min(r.len())])
        .copied()
        .collect();
    let op_tail = tail(&pool);
    if let Some(t) = op_tail {
        println!(
            "op tail: p{:.2} of {} operations ({} beyond it)",
            t.percentile,
            t.count,
            stats::TAIL_BEYOND
        );
    }
    let median_of = |values: &[f64]| median(values).unwrap_or(f64::NAN);
    let metric = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        // Each operation at its fastest: the passes repeat identical,
        // deterministic work, so host interference only ever adds time,
        // and the fastest repetition is the steadiest estimate of it.
        metric("wall_s", best.iter().sum(), "s"),
        metric("op_p50_ms", 1e3 * median_of(&best), "ms"),
        metric(
            "op_tail_ms",
            1e3 * op_tail.map_or(f64::NAN, |t| t.value),
            "ms",
        ),
        metric("setup_s", median_of(&timings.setup_s), "s"),
        metric("peak_rss_mb", median_of(&timings.peak_rss_mb), "MB"),
        metric("sim_overhead_pct", accuracy.sim_overhead_pct, "%"),
        metric("pred_err_p50", accuracy.pred_err_p50, "ratio"),
        metric("pred_err_max", accuracy.pred_err_max, "ratio"),
    ]
}

/// `--check`: two passes of each workload; every correctness check, the
/// pass-to-pass output hashes and the accuracy metrics.
fn check(args: &Args) -> ExitCode {
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let obs = ObsHandle::fresh_untraced();
    let mut failed = 0;
    for workload in workloads {
        let suite = Suite::setup(workload, args.seed);
        let mut tally = Tally::default();
        let first = run_pass(&obs, &suite);
        tally.record(&suite, &first, None);
        let second = run_pass(&obs, &suite);
        tally.record(&suite, &second, Some(&first.done));
        match suite::accuracy(&suite, &first.done) {
            Ok(a) => println!(
                "{} seed {}: sim_overhead_pct {} pred_err_p50 {} pred_err_max {}",
                workload.name(),
                args.seed,
                a.sim_overhead_pct,
                a.pred_err_p50,
                a.pred_err_max
            ),
            Err(reason) => tally.fail(format!("accuracy: {reason}")),
        }
        for reason in &tally.reasons {
            println!("FAILED {reason}");
        }
        println!(
            "check {} seed {}: {} of {} operation(s) failed or diverged",
            workload.name(),
            args.seed,
            tally.failed,
            tally.attempted
        );
        failed += tally.failed;
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_obs::json::{parse, Value};

    /// `(name, unit)` of every metric `BENCHMARK.json` declares in `list`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = parse(&text).expect("BENCHMARK.json is strict JSON");
        doc.get(list)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |key| m.get(key).and_then(Value::as_str).expect(key).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metrics_are_exactly_the_declared_ones() {
        let accuracy = suite::Accuracy {
            sim_overhead_pct: 1.0,
            pred_err_p50: 0.1,
            pred_err_max: 0.2,
        };
        let end_to_end = end_to_end(&Timings::default(), &accuracy);
        assert_eq!(emitted(&end_to_end), declared("end_to_end"));
        let per_layer = ledger::layer_metrics(&[], 1, 0.0);
        assert_eq!(emitted(&per_layer), declared("per_layer"));
        for metric in end_to_end.iter().chain(&per_layer) {
            assert!(stats::valid_metric_name(metric.name), "{}", metric.name);
        }
    }

    #[test]
    fn declared_workloads_are_ones_the_benchmark_runs() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("read")).expect("parse");
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert!(names.len() >= 2);
        for name in names {
            assert!(Workload::parse(name).is_some(), "{name}");
        }
    }
}
