//! Regression: installing the statically-derived line pre-filter must
//! leave the dynamic pipeline's output bit-identical — same `RunReport`,
//! same rendered profile, same sample accounting — while actually
//! shrinking detector state somewhere in the registry.

use cheetah_analyze::{prefilter_for, summarize};
use cheetah_core::detect::detector::{OBS_LINE_TABLE, OBS_OBJECT_TABLE, OBS_SAMPLES_PREFILTERED};
use cheetah_core::{CheetahConfig, CheetahProfiler, LinePrefilter, Profile};
use cheetah_obs::ObsHandle;
use cheetah_sim::{Machine, MachineConfig, RunReport};
use cheetah_workloads::{App, AppConfig, APPS};

const SCALE: f64 = 0.1;
const PERIOD: u64 = 512;

fn run(app: &App, config: &AppConfig, prefilter: LinePrefilter) -> (RunReport, Profile, u64, u64) {
    let obs = ObsHandle::fresh_untraced();
    let (program, space) = app.build(config).into_parts();
    let mut profiler = CheetahProfiler::new(
        CheetahConfig::scaled(PERIOD)
            .with_obs(obs.clone())
            .with_prefilter(prefilter),
        &space,
    );
    let report = Machine::new(MachineConfig::default()).run(program, &mut profiler);
    let profile = profiler.finish();
    let tables = obs.gauge(OBS_LINE_TABLE).get() + obs.gauge(OBS_OBJECT_TABLE).get();
    let prefiltered = obs.counter(OBS_SAMPLES_PREFILTERED).get();
    (report, profile, tables, prefiltered)
}

#[test]
fn prefiltered_runs_are_bit_identical_registry_wide() {
    let mut total_saved = 0u64;
    let mut total_prefiltered = 0u64;
    for app in APPS {
        let config = AppConfig::with_threads(16).scaled(SCALE);
        let (baseline_report, baseline_profile, baseline_tables, _) =
            run(app, &config, LinePrefilter::none());
        let (program, space) = app.build(&config).into_parts();
        let prefilter = prefilter_for(&summarize(&program, 64), &space);
        let (filtered_report, filtered_profile, filtered_tables, prefiltered) =
            run(app, &config, prefilter);

        assert_eq!(
            baseline_report,
            filtered_report,
            "{}: RunReport changed under the pre-filter",
            app.name()
        );
        assert_eq!(
            baseline_profile.render_report(),
            filtered_profile.render_report(),
            "{}: rendered profile changed under the pre-filter",
            app.name()
        );
        assert_eq!(
            (
                baseline_profile.total_samples,
                baseline_profile.filtered_samples
            ),
            (
                filtered_profile.total_samples,
                filtered_profile.filtered_samples
            ),
            "{}: sample accounting changed under the pre-filter",
            app.name()
        );
        assert_eq!(
            baseline_profile.instances.len(),
            filtered_profile.instances.len(),
            "{}: instance count changed under the pre-filter",
            app.name()
        );
        total_saved += baseline_tables.saturating_sub(filtered_tables);
        total_prefiltered += prefiltered;
    }
    assert!(
        total_saved > 0,
        "the pre-filter never shrank a detector table anywhere in the registry"
    );
    // total_samples is deliberately unchanged; the prefiltered counter is
    // what proves samples were actually skipped.
    assert!(total_prefiltered > 0, "no samples were ever pre-filtered");
}

#[test]
fn prefilter_reports_skipped_samples() {
    // pca: thread-private matrix rows dominate the access stream and
    // nothing shares a line — the canonical pre-filter win.
    let app = cheetah_workloads::find("pca").expect("registered");
    let config = AppConfig::with_threads(16).scaled(SCALE);
    let (program, space) = app.build(&config).into_parts();
    let prefilter = prefilter_for(&summarize(&program, 64), &space);
    assert!(
        !prefilter.is_empty(),
        "pca's private matrices should be statically skippable"
    );
    let (program, space) = app.build(&config).into_parts();
    let mut profiler = CheetahProfiler::new(
        CheetahConfig::scaled(PERIOD).with_prefilter(prefilter),
        &space,
    );
    Machine::new(MachineConfig::default()).run(program, &mut profiler);
    assert!(
        profiler.detector().prefiltered_samples() > 0,
        "no sample ever hit the skip set"
    );
    let profile = profiler.finish();
    // Skipping must not have invented or destroyed findings.
    let (program, space) = app.build(&config).into_parts();
    let mut baseline = CheetahProfiler::new(CheetahConfig::scaled(PERIOD), &space);
    Machine::new(MachineConfig::default()).run(program, &mut baseline);
    assert_eq!(profile.render_report(), baseline.finish().render_report());
}
