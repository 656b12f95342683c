//! Schedule-space exploration sweep: profile workloads under the observed
//! schedule plus seeded perturbations, unite the findings, flag the
//! instances the observed schedule hides, and assess worst-case repair.
//!
//! For each workload the harness profiles the broken build once per
//! schedule in [`cheetah_repair::schedule_set`] (observed + a shuffled and
//! a contention-maximizing policy per seed), unites the significant
//! false-sharing findings with [`cheetah_core::union_findings`], then runs
//! the worst-case fixpoint repair ([`cheetah_repair::converge_worst_case`])
//! and reports whether it converged to zero residue on *every* explored
//! schedule.
//!
//! Emits a human table on stdout and a machine-readable per-seed findings
//! artifact to `BENCH_schedule.json` (override with `--out`). With
//! `--check` (the CI smoke gate) every (workload, schedule) profile runs
//! twice and the run exits nonzero if any pair of runs diverges (the
//! determinism witness: perturbed schedules must be pure functions of
//! their seed), if a workload whose registry expectation is
//! schedule-hidden false sharing yields no hidden finding, or if its
//! worst-case repair fails to converge.
//!
//! Usage: see [`USAGE`].

use cheetah_bench::{
    check_workloads, flag_list, flag_value, flag_workloads, origin_label, report_failures,
    run_cheetah, usage_exit, MIN_IMPROVEMENT,
};
use cheetah_core::{hidden_findings, union_findings, CheetahConfig, Profile};
use cheetah_repair::{converge_worst_case, schedule_set, ConvergeConfig, ValidationHarness};
use cheetah_sim::{Machine, MachineConfig, SchedulePolicy};
use cheetah_workloads::{find, App, AppConfig, Expectation};
use std::fmt::Write as _;

const USAGE: &str = "schedule_explore [--workloads a,b,c] [--seeds 1,2,3,4] [--threads N] \
                     [--scale F] [--period P] [--out FILE] [--check]";

struct Args {
    workloads: Vec<&'static App>,
    seeds: Vec<u64>,
    threads: u32,
    scale: f64,
    period: u64,
    out: String,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        workloads: ["staggered_writers", "microbench", "linear_regression"]
            .iter()
            .map(|name| find(name).expect("registered workload"))
            .collect(),
        seeds: vec![1, 2, 3, 4],
        threads: 4,
        scale: 0.05,
        period: 256,
        out: "BENCH_schedule.json".to_string(),
        check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workloads" => parsed.workloads = flag_workloads(&mut args, &arg)?,
            "--seeds" => parsed.seeds = flag_list(&mut args, &arg)?,
            "--threads" => parsed.threads = flag_value(&mut args, &arg)?,
            "--scale" => parsed.scale = flag_value(&mut args, &arg)?,
            "--period" => parsed.period = flag_value(&mut args, &arg)?,
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

fn main() {
    let args = parse_args().unwrap_or_else(|error| usage_exit(USAGE, &error));
    let schedules = schedule_set(&args.seeds);
    let harness = ValidationHarness::calibrated(
        Machine::new(MachineConfig::with_cores(8)),
        CheetahConfig::scaled(args.period),
    );
    let mut failures: Vec<String> = Vec::new();

    println!(
        "Schedule-space exploration: {} workload(s) x {} schedule(s) \
         (observed + shuffle/contend per seed {:?})\n",
        args.workloads.len(),
        schedules.len(),
        args.seeds
    );
    println!(
        "{}",
        cheetah_bench::row(&[
            "workload".into(),
            "schedule".into(),
            "significant".into(),
            "best".into(),
        ])
    );

    let mut json = String::from("{\n  \"benchmark\": \"schedule_explore\",\n");
    let _ = writeln!(json, "  \"seeds\": {:?},", args.seeds);
    let _ = writeln!(
        json,
        "  \"threads\": {}, \"scale\": {}, \"period\": {},",
        args.threads, args.scale, args.period
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
        let mut runs: Vec<(SchedulePolicy, Profile)> = Vec::new();
        let mut schedule_json: Vec<String> = Vec::new();
        for &policy in &schedules {
            let machine = Machine::new(harness.machine().config().clone().with_schedule(policy));
            let profile_once =
                || run_cheetah(&machine, app, &config, harness.non_perturbing_config()).1;
            let profile = profile_once();
            if args.check {
                // Determinism witness: a second run must be bit-identical.
                let again = profile_once();
                if profile.render_report() != again.render_report()
                    || profile.total_cycles != again.total_cycles
                    || profile.total_samples != again.total_samples
                {
                    failures.push(format!(
                        "{} under {policy}: two runs diverged \
                         ({} vs {} cycles, {} vs {} samples)",
                        app.name(),
                        profile.total_cycles,
                        again.total_cycles,
                        profile.total_samples,
                        again.total_samples
                    ));
                }
            }
            let significant = profile.significant_false_sharing(MIN_IMPROVEMENT);
            let best = significant
                .first()
                .map_or(0.0, |assessed| assessed.improvement());
            println!(
                "{}",
                cheetah_bench::row(&[
                    app.name().into(),
                    policy.to_string(),
                    significant.len().to_string(),
                    if significant.is_empty() {
                        "-".into()
                    } else {
                        format!("{best:.2}x")
                    },
                ])
            );
            schedule_json.push(format!(
                "        {{\"schedule\": \"{policy}\", \"significant\": {}, \
                 \"best_improvement\": {best:.4}, \"total_cycles\": {}, \
                 \"total_samples\": {}}}",
                significant.len(),
                profile.total_cycles,
                profile.total_samples
            ));
            runs.push((policy, profile));
        }

        let union = union_findings(&runs, MIN_IMPROVEMENT);
        let hidden = hidden_findings(&union);
        println!(
            "  -> union: {} finding(s), {} hidden from the observed schedule",
            union.len(),
            hidden.len()
        );
        if args.check && app.expectation() == Expectation::HiddenFalseSharing && hidden.is_empty() {
            failures.push(format!(
                "{}: expected a schedule-hidden finding, union found none",
                app.name()
            ));
        }

        let trace = converge_worst_case(
            &harness,
            app.name(),
            || app.build(&config),
            &ConvergeConfig::default(),
            &schedules,
        )
        .expect("worst-case repair failed to apply");
        print!("{trace}");
        println!();
        if args.check && !trace.converged {
            failures.push(format!(
                "{}: worst-case repair left residue on an explored schedule",
                app.name()
            ));
        }

        let finding_json: Vec<String> = union
            .iter()
            .map(|f| {
                format!(
                    "        {{\"label\": \"{}\", \"worst_improvement\": {:.4}, \
                     \"worst_schedule\": \"{}\", \"hidden\": {}, \"sightings\": {}}}",
                    origin_label(&f.object.origin),
                    f.worst_improvement(),
                    f.worst_schedule(),
                    f.is_hidden(),
                    f.sightings.len()
                )
            })
            .collect();
        workload_json.push(format!(
            "    {{\"workload\": \"{}\", \"expectation\": \"{}\",\n      \"schedules\": [\n{}\n      ],\n      \
             \"union_findings\": [\n{}\n      ],\n      \"hidden_findings\": {}, \
             \"repair_converged\": {}, \"repair_iterations\": {}, \"repair_residual\": {}}}",
            app.name(),
            app.expectation(),
            schedule_json.join(",\n"),
            finding_json.join(",\n"),
            hidden.len(),
            trace.converged,
            trace.iterations.len(),
            trace.total_residual()
        ));
    }

    json.push_str(&workload_json.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write(&args.out, json).expect("write findings artifact");
    println!("wrote {}", args.out);
    report_failures(
        args.check,
        &failures,
        "all schedules deterministic, hidden expectations met, worst-case repair converged",
    );
}
