//! Robustness sweep: the graceful-degradation guarantees as executable
//! checks.
//!
//! For each workload the harness first profiles a clean, unbounded run
//! (the baseline), then re-profiles under a matrix of seeded
//! [`FaultPlan`] presets (uniform and burst drops, bounded reorder,
//! field corruption, duplication, a combined "chaos" plan) and under
//! memory pressure (line-table capacity clamped to ¼ of the baseline's
//! peak detailed-line working set). It reports, per cell, what the
//! injector did, what the detector quarantined or evicted, and whether
//! the top finding survived.
//!
//! Emits a human table on stdout and a machine-readable artifact to
//! `BENCH_robust.json` (override with `--out`). With `--check` (the CI
//! gate) the run exits nonzero unless every guarantee holds:
//!
//! 1. **Bit-transparency** — the null fault plan and a capacity equal to
//!    the peak working set each reproduce the baseline report
//!    byte-for-byte.
//! 2. **Determinism** — every faulted cell run twice is bit-identical
//!    (faults are a pure function of `(plan, seed)`).
//! 3. **Shard independence** — the 20%-drop cell profiles identically
//!    under 1, 2 and 4 simulator shards.
//! 4. **Top-finding survival** — under ¼-capacity pressure the
//!    baseline's best false-sharing instance is still reported.
//! 5. **Degraded repair** — with 20% drops *and* ¼ capacity, the
//!    fixpoint repair loop still converges to zero residual.
//!
//! Usage: see [`USAGE`].

use cheetah_bench::{
    check_workloads, flag_value, flag_workloads, origin_label, report_failures, run_cheetah,
    usage_exit, MIN_IMPROVEMENT,
};
use cheetah_core::{CheetahConfig, CorruptFields, FaultPlan, Profile};
use cheetah_repair::{converge, ConvergeConfig, ValidationHarness};
use cheetah_sim::{Machine, MachineConfig};
use cheetah_workloads::{find, App, AppConfig};
use std::fmt::Write as _;

const USAGE: &str = "robustness_sweep [--workloads a,b,c] [--threads N] [--scale F] \
                     [--period P] [--seed S] [--out FILE] [--check]";

struct Args {
    workloads: Vec<&'static App>,
    threads: u32,
    scale: f64,
    period: u64,
    seed: u64,
    out: String,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        workloads: ["microbench", "linear_regression", "streamcluster"]
            .iter()
            .map(|name| find(name).expect("registered workload"))
            .collect(),
        threads: 4,
        scale: 0.05,
        period: 256,
        seed: 7,
        out: "BENCH_robust.json".to_string(),
        check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workloads" => parsed.workloads = flag_workloads(&mut args, &arg)?,
            "--threads" => parsed.threads = flag_value(&mut args, &arg)?,
            "--scale" => parsed.scale = flag_value(&mut args, &arg)?,
            "--period" => parsed.period = flag_value(&mut args, &arg)?,
            "--seed" => parsed.seed = flag_value(&mut args, &arg)?,
            "--out" => parsed.out = flag_value(&mut args, &arg)?,
            "--check" => parsed.check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    check_workloads(
        &parsed.workloads,
        &AppConfig::with_threads(parsed.threads).scaled(parsed.scale),
    )?;
    Ok(parsed)
}

/// The fault-plan matrix, every preset reseeded to `seed`.
fn fault_presets(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("drop10", FaultPlan::drops(100)),
        ("drop20", FaultPlan::drops(200)),
        (
            "burst",
            FaultPlan {
                burst_every: 64,
                burst_len: 8,
                ..FaultPlan::none()
            },
        ),
        (
            "reorder",
            FaultPlan {
                reorder_window: 16,
                ..FaultPlan::none()
            },
        ),
        (
            "corrupt",
            FaultPlan {
                corrupt_per_mille: 50,
                corrupt_fields: CorruptFields::all(),
                ..FaultPlan::none()
            },
        ),
        (
            "duplicate",
            FaultPlan {
                duplicate_per_mille: 50,
                ..FaultPlan::none()
            },
        ),
        (
            "chaos",
            FaultPlan {
                reorder_window: 8,
                duplicate_per_mille: 30,
                corrupt_per_mille: 30,
                corrupt_fields: CorruptFields::all(),
                ..FaultPlan::drops(100)
            },
        ),
    ]
    .into_iter()
    .map(|(name, plan)| (name, plan.with_seed(seed)))
    .collect()
}

fn harness_with(
    period: u64,
    configure: impl FnOnce(CheetahConfig) -> CheetahConfig,
) -> ValidationHarness {
    ValidationHarness::calibrated(
        Machine::new(MachineConfig::with_cores(8)),
        configure(CheetahConfig::scaled(period)),
    )
}

/// One profiled run; the rendered report is the determinism witness.
fn profile_under(
    harness: &ValidationHarness,
    app: &App,
    config: &AppConfig,
    shards: u32,
) -> Profile {
    let machine = Machine::new(harness.machine().config().clone().with_shards(shards));
    run_cheetah(&machine, app, config, harness.non_perturbing_config()).1
}

/// Labels of the significant false-sharing instances, best first.
fn significant_labels(profile: &Profile) -> Vec<String> {
    profile
        .significant_false_sharing(MIN_IMPROVEMENT)
        .iter()
        .map(|assessed| origin_label(&assessed.instance.object.origin))
        .collect()
}

fn main() {
    let args = parse_args().unwrap_or_else(|error| usage_exit(USAGE, &error));
    let presets = fault_presets(args.seed);
    let mut failures: Vec<String> = Vec::new();

    println!(
        "Robustness sweep: {} workload(s) x {} fault preset(s) + memory \
         pressure (seed {})\n",
        args.workloads.len(),
        presets.len(),
        args.seed
    );
    println!(
        "{}",
        cheetah_bench::row(&[
            "workload".into(),
            "cell".into(),
            "injected".into(),
            "quarantined".into(),
            "evicted".into(),
            "significant".into(),
            "best".into(),
        ])
    );

    let mut json = String::from("{\n  \"benchmark\": \"robustness_sweep\",\n");
    let _ = writeln!(
        json,
        "  \"seed\": {}, \"threads\": {}, \"scale\": {}, \"period\": {},",
        args.seed, args.threads, args.scale, args.period
    );
    json.push_str("  \"workloads\": [\n");
    let mut workload_json: Vec<String> = Vec::new();

    for app in &args.workloads {
        let config = AppConfig {
            threads: args.threads,
            scale: args.scale,
            fixed: false,
            seed: 1,
        };

        // Baseline: clean plan, unbounded tables.
        let clean = harness_with(args.period, |cheetah| cheetah);
        let baseline = profile_under(&clean, app, &config, 1);
        let peak = baseline.ingest.peak_detailed_lines;
        let baseline_labels = significant_labels(&baseline);
        let row = |cell: &str, profile: &Profile| {
            let significant = profile.significant_false_sharing(MIN_IMPROVEMENT);
            let best = significant
                .first()
                .map_or(0.0, |assessed| assessed.improvement());
            println!(
                "{}",
                cheetah_bench::row(&[
                    app.name().into(),
                    cell.into(),
                    profile
                        .fault_counts
                        .map_or("-".into(), |counts| counts.injected().to_string()),
                    profile.ingest.quarantined.total().to_string(),
                    (profile.ingest.line_evictions + profile.ingest.object_evictions).to_string(),
                    significant.len().to_string(),
                    if significant.is_empty() {
                        "-".into()
                    } else {
                        format!("{best:.2}x")
                    },
                ])
            );
            best
        };
        row("baseline", &baseline);

        // Guarantee 1: bit-transparency of the null plan and of a capacity
        // that covers the whole working set.
        if args.check {
            let nulled = harness_with(args.period, |c| c.with_faults(FaultPlan::none()));
            let null_profile = profile_under(&nulled, app, &config, 1);
            if null_profile.render_report() != baseline.render_report() {
                failures.push(format!(
                    "{}: the null fault plan perturbed the report",
                    app.name()
                ));
            }
            if peak > 0 {
                let roomy = harness_with(args.period, |c| c.with_line_capacity(peak as usize));
                let roomy_profile = profile_under(&roomy, app, &config, 1);
                if roomy_profile.render_report() != baseline.render_report() {
                    failures.push(format!(
                        "{}: capacity == peak working set ({peak}) changed the report",
                        app.name()
                    ));
                }
            }
        }

        // Fault-preset cells.
        let mut cell_json: Vec<String> = Vec::new();
        for (cell, plan) in &presets {
            let faulted = harness_with(args.period, |c| c.with_faults(plan.clone()));
            let profile = profile_under(&faulted, app, &config, 1);
            if args.check {
                // Guarantee 2: two runs of a faulted cell are bit-identical.
                let again = profile_under(&faulted, app, &config, 1);
                if profile.render_report() != again.render_report()
                    || profile.fault_counts != again.fault_counts
                {
                    failures.push(format!(
                        "{} under {cell}: two seeded runs diverged",
                        app.name()
                    ));
                }
                // Guarantee 3: fault decisions ride the merged sample
                // stream, so shard count must not matter.
                if *cell == "drop20" {
                    for shards in [2u32, 4] {
                        let sharded = profile_under(&faulted, app, &config, shards);
                        if profile.render_report() != sharded.render_report()
                            || profile.fault_counts != sharded.fault_counts
                        {
                            failures.push(format!(
                                "{} under {cell}: {shards}-shard run diverged from 1-shard",
                                app.name()
                            ));
                        }
                    }
                }
            }
            let best = row(cell, &profile);
            let counts = profile.fault_counts.expect("faulted cell has an injector");
            cell_json.push(format!(
                "        {{\"cell\": \"{cell}\", \"injected\": {}, \"dropped\": {}, \
                 \"quarantined\": {}, \"significant\": {}, \"best_improvement\": {best:.4}}}",
                counts.injected(),
                counts.dropped + counts.burst_dropped + counts.truncated,
                profile.ingest.quarantined.total(),
                profile.significant_false_sharing(MIN_IMPROVEMENT).len(),
            ));
        }

        // Memory pressure: clamp the line table to ¼ of the baseline's
        // peak detailed-line working set.
        let capacity = (peak.div_ceil(4)).max(1) as usize;
        let pressured_harness = harness_with(args.period, |c| c.with_line_capacity(capacity));
        let pressured = profile_under(&pressured_harness, app, &config, 1);
        let best = row(&format!("cap={capacity}"), &pressured);
        let survived = match baseline_labels.first() {
            Some(top) => significant_labels(&pressured).contains(top),
            None => true,
        };
        // Guarantee 4: the hottest finding survives eviction pressure.
        if args.check && !survived {
            failures.push(format!(
                "{}: top finding lost under ¼-capacity pressure (capacity {capacity})",
                app.name()
            ));
        }

        // Guarantee 5: degraded repair. 20% drops and ¼ capacity at once,
        // and the fixpoint loop must still reach zero residual.
        let degraded_plan = FaultPlan::drops(200).with_seed(args.seed);
        let degraded = harness_with(args.period, |c| {
            c.with_faults(degraded_plan).with_line_capacity(capacity)
        });
        let trace = converge(
            &degraded,
            app.name(),
            || app.build(&config),
            &ConvergeConfig::default(),
        )
        .expect("synthesized repairs must apply");
        println!(
            "  -> degraded repair (drop20, cap={capacity}): {} in {} iteration(s), residual {}",
            if trace.converged {
                "converged"
            } else {
                "did NOT converge"
            },
            trace.iterations.len(),
            trace.residual_significant
        );
        println!();
        if args.check && !trace.converged {
            failures.push(format!(
                "{}: repair under drop20 + ¼ capacity left residue",
                app.name()
            ));
        }

        workload_json.push(format!(
            "    {{\"workload\": \"{}\", \"peak_detailed_lines\": {peak},\n      \
             \"cells\": [\n{}\n      ],\n      \
             \"pressure\": {{\"line_capacity\": {capacity}, \"line_evictions\": {}, \
             \"repromotions\": {}, \"best_improvement\": {best:.4}, \
             \"top_finding_survived\": {survived}}},\n      \
             \"degraded_repair\": {{\"converged\": {}, \"iterations\": {}, \
             \"residual\": {}}}}}",
            app.name(),
            cell_json.join(",\n"),
            pressured.ingest.line_evictions,
            pressured.ingest.line_repromotions,
            trace.converged,
            trace.iterations.len(),
            trace.residual_significant
        ));
    }

    json.push_str(&workload_json.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write(&args.out, json).expect("write robustness artifact");
    println!("wrote {}", args.out);
    report_failures(
        args.check,
        &failures,
        "transparent when idle, deterministic per seed, shard-independent, \
         top finding survives ¼ capacity, degraded repair converges",
    );
}
