//! `cheetah-analyze` — static false-sharing analysis CLI.
//!
//! Modes:
//!
//! * default — print the ranked static report for every registry workload
//!   (or the ones named on the command line);
//! * `--lint` — run the declaration lints (static declarations plus the
//!   byte-granular footprint audit; nothing is simulated) over each
//!   workload's broken and fixed builds and exit non-zero if any
//!   diagnostic fires; this is the CI gate;
//! * `--prefilter-report` — profile each workload twice, with and without
//!   the statically-derived line pre-filter, and report the detector
//!   table-size reduction (also published as `analyze.*` gauges).
//!
//! `--threads N` and `--scale S` adjust the workload build. A bad command
//! line (unknown flag or workload, a configuration some named workload
//! cannot be built with) prints a `usage:` line and exits 2; `--lint`
//! uses exit 1 for "diagnostics fired".

use cheetah_analyze::{analyze_layout, lint_workload, prefilter_for, summarize};
use cheetah_core::detect::detector::{OBS_LINE_TABLE, OBS_OBJECT_TABLE, OBS_SAMPLES_PREFILTERED};
use cheetah_core::{CheetahConfig, CheetahProfiler, Profile};
use cheetah_obs::ObsHandle;
use cheetah_sim::{Machine, MachineConfig, RunReport};
use cheetah_workloads::{App, AppConfig, APPS};
use std::process::ExitCode;

/// Sampling period for the pre-filter report runs; matches the scaled
/// period the bench harnesses use so table sizes are representative.
const PREFILTER_PERIOD: u64 = 8192;

const USAGE: &str =
    "cheetah-analyze [--lint | --prefilter-report] [--threads N] [--scale S] [workload ...]";

struct Options {
    lint: bool,
    prefilter_report: bool,
    threads: u32,
    scale: f64,
    apps: Vec<&'static App>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        lint: false,
        prefilter_report: false,
        threads: 16,
        scale: 1.0,
        apps: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--lint" => options.lint = true,
            "--prefilter-report" => options.prefilter_report = true,
            "--threads" => {
                let value = args.next().ok_or("--threads needs a value")?;
                options.threads = value
                    .parse()
                    .map_err(|_| format!("bad thread count {value}"))?;
            }
            "--scale" => {
                let value = args.next().ok_or("--scale needs a value")?;
                options.scale = value.parse().map_err(|_| format!("bad scale {value}"))?;
            }
            "--help" | "-h" => {
                println!("usage: {USAGE}");
                std::process::exit(0);
            }
            name => match cheetah_workloads::find(name) {
                Some(app) => options.apps.push(app),
                None => return Err(format!("unknown workload '{name}'")),
            },
        }
    }
    if options.apps.is_empty() {
        options.apps = APPS.iter().collect();
    }
    let config = app_config(&options);
    for app in &options.apps {
        app.try_build(&config).map_err(|error| error.to_string())?;
    }
    Ok(options)
}

fn app_config(options: &Options) -> AppConfig {
    AppConfig::with_threads(options.threads).scaled(options.scale)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    if options.lint {
        run_lint(&options)
    } else if options.prefilter_report {
        run_prefilter_report(&options)
    } else {
        run_report(&options)
    }
}

/// Default mode: the static report per workload.
fn run_report(options: &Options) -> ExitCode {
    let config = app_config(options);
    for app in &options.apps {
        let (program, space) = app.build(&config).into_parts();
        let summary = summarize(&program, 64);
        let report = analyze_layout(&summary, &space);
        print!("{}", report.render(app.name()));
    }
    ExitCode::SUCCESS
}

/// `--lint`: declaration diagnostics over each workload's broken and
/// fixed builds; non-zero exit if any fire.
fn run_lint(options: &Options) -> ExitCode {
    let config = app_config(options);
    let mut total = 0usize;
    for app in &options.apps {
        for (build, config) in [("", config.clone()), (" (fixed)", config.clone().fixed())] {
            let (program, space) = app.build(&config).into_parts();
            let diagnostics = lint_workload(program, &space);
            for diagnostic in &diagnostics {
                println!("{}{build}: {diagnostic}", app.name());
            }
            total += diagnostics.len();
        }
    }
    if total == 0 {
        println!(
            "lint clean: {} workloads, 0 diagnostics",
            options.apps.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("lint failed: {total} diagnostics");
        ExitCode::FAILURE
    }
}

/// One profiled run of a freshly built workload; returns the run report,
/// the profile and the detector gauges `(object_table, line_table,
/// prefiltered_samples)`.
fn profile_once(
    app: &App,
    config: &AppConfig,
    cheetah: CheetahConfig,
) -> (RunReport, Profile, (u64, u64, u64)) {
    let obs = ObsHandle::fresh_untraced();
    let cheetah = cheetah.with_obs(obs.clone());
    let (program, space) = app.build(config).into_parts();
    let mut profiler = CheetahProfiler::new(cheetah, &space);
    let machine = Machine::new(MachineConfig::default());
    let report = machine.run(program, &mut profiler);
    let profile = profiler.finish();
    let tables = (
        obs.gauge(OBS_OBJECT_TABLE).get(),
        obs.gauge(OBS_LINE_TABLE).get(),
        obs.counter(OBS_SAMPLES_PREFILTERED).get(),
    );
    (report, profile, tables)
}

/// `--prefilter-report`: detector table sizes with and without the static
/// pre-filter, per workload, plus `analyze.*` gauges for scrapers.
fn run_prefilter_report(options: &Options) -> ExitCode {
    let config = app_config(options);
    let report_obs = ObsHandle::fresh_untraced();
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9}",
        "workload", "objects", "objects'", "lines", "lines'", "prefiltered", "identical"
    );
    let mut mismatched = false;
    for app in &options.apps {
        let (baseline_run, baseline_profile, (objects, lines, _)) =
            profile_once(app, &config, CheetahConfig::scaled(PREFILTER_PERIOD));
        let (program, space) = app.build(&config).into_parts();
        let summary = summarize(&program, 64);
        let prefilter = prefilter_for(&summary, &space);
        let (filtered_run, filtered_profile, (objects_f, lines_f, prefiltered)) = profile_once(
            app,
            &config,
            CheetahConfig::scaled(PREFILTER_PERIOD).with_prefilter(prefilter),
        );
        // `Profile` carries floats and derives no `Eq`; the rendered
        // report plus the sample counters cover everything it exposes.
        let identical = baseline_run == filtered_run
            && baseline_profile.render_report() == filtered_profile.render_report()
            && baseline_profile.total_samples == filtered_profile.total_samples
            && baseline_profile.filtered_samples == filtered_profile.filtered_samples;
        mismatched |= !identical;
        println!(
            "{:<22} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9}",
            app.name(),
            objects,
            objects_f,
            lines,
            lines_f,
            prefiltered,
            if identical { "yes" } else { "NO" },
        );
        // Published per-workload so a scraper sees the same numbers the
        // table prints. Names must be 'static; the CLI leaks one small
        // string per workload.
        let gauge = |suffix: &str, value: u64| {
            let name: &'static str =
                Box::leak(format!("analyze.prefilter.{}.{suffix}", app.name()).into_boxed_str());
            report_obs.gauge(name).set(value);
        };
        gauge("object_table_saved", objects.saturating_sub(objects_f));
        gauge("line_table_saved", lines.saturating_sub(lines_f));
        gauge("samples_prefiltered", prefiltered);
    }
    if mismatched {
        eprintln!("prefilter changed a profile: the skip set is unsound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
