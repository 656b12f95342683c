//! The RacerD-style soundness property, checked over the entire workload
//! registry: every sharing instance the dynamic detector reports — and
//! every multi-thread written word inside it — lies on a line the static
//! analysis marked a sharing candidate.
//!
//! Checked three ways: exhaustively over all registry workloads at thread
//! counts {2, 4, 8, 16}; property-tested over (workload, threads, seed)
//! triples so randomized access patterns get fresh draws; and over
//! post-repair layouts of every repair target, where the footprints reach
//! the summary through [`cheetah_sim::LayoutMap::translate_range`].

use cheetah_analyze::{soundness_violations, summarize, StaticSummary};
use cheetah_core::{CheetahConfig, CheetahProfiler, Profile};
use cheetah_repair::{apply_iterations, synthesize, RepairPlan};
use cheetah_sim::{Machine, MachineConfig, Program};
use cheetah_workloads::{repair_targets, App, AppConfig, APPS};
use proptest::prelude::*;

/// Small but sample-dense: scaled workloads with a proportionally scaled
/// sampling period keep the detector's tables populated.
const SCALE: f64 = 0.05;
const PERIOD: u64 = 256;

fn profile_of(program: Program, space: &cheetah_heap::AddressSpace) -> Profile {
    let mut profiler = CheetahProfiler::new(CheetahConfig::scaled(PERIOD), space);
    Machine::new(MachineConfig::default()).run(program, &mut profiler);
    profiler.finish()
}

/// Static summary from one build, dynamic profile from a second identical
/// build (streams are single-use; builds are deterministic).
fn summarize_and_profile(app: &App, config: &AppConfig) -> (StaticSummary, Profile) {
    let (program, _space) = app.build(config).into_parts();
    let summary = summarize(&program, 64);
    let (program, space) = app.build(config).into_parts();
    (summary, profile_of(program, &space))
}

fn assert_sound(app: &App, config: &AppConfig) {
    let (summary, profile) = summarize_and_profile(app, config);
    let violations = soundness_violations(&summary, &profile);
    assert!(
        violations.is_empty(),
        "{} (threads {}, seed {}): {:#?}",
        app.name(),
        config.threads,
        config.seed,
        violations
    );
}

#[test]
fn static_candidates_cover_dynamic_findings_registry_wide() {
    for app in APPS {
        for &threads in &[2u32, 4, 8, 16] {
            assert_sound(app, &AppConfig::with_threads(threads).scaled(SCALE));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    /// Random (workload, threads, seed) triples: randomized streams draw
    /// fresh access patterns per seed, so this explores footprints the
    /// exhaustive sweep's fixed seed never materializes.
    #[test]
    fn soundness_under_random_configs(
        app_index in 0..APPS.len(),
        threads in prop::sample::select(vec![2u32, 4, 8, 16]),
        seed in 0u64..64,
    ) {
        let mut config = AppConfig::with_threads(threads).scaled(SCALE);
        config.seed = 42 + seed;
        assert_sound(&APPS[app_index], &config);
    }
}

/// First applicable repair plan for the app, synthesized from a dynamic
/// profile of the broken build.
fn first_plan(app: &App, config: &AppConfig) -> Option<RepairPlan> {
    let (program, space) = app.build(config).into_parts();
    let profile = profile_of(program, &space);
    profile
        .instances
        .iter()
        .find_map(|assessed| synthesize(&assessed.instance, 64))
}

#[test]
fn soundness_holds_on_post_repair_layouts() {
    let mut repaired_any = false;
    for app in repair_targets() {
        let config = AppConfig::with_threads(8).scaled(SCALE);
        let Some(plan) = first_plan(app, &config) else {
            continue;
        };
        // Re-analyze: the repaired program's footprints come back already
        // translated through the layout map.
        let (program, mut space) = app.build(&config).into_parts();
        let repaired =
            apply_iterations(program, std::slice::from_ref(&plan), &mut space).expect("repair");
        let summary = summarize(&repaired, 64);
        // Re-profile an identically repaired third build.
        let (program, mut space) = app.build(&config).into_parts();
        let repaired =
            apply_iterations(program, std::slice::from_ref(&plan), &mut space).expect("repair");
        let profile = profile_of(repaired, &space);
        let violations = soundness_violations(&summary, &profile);
        assert!(
            violations.is_empty(),
            "{} post-repair ({}): {:#?}",
            app.name(),
            plan.strategy,
            violations
        );
        repaired_any = true;
    }
    assert!(repaired_any, "no repair target produced a plan");
}

/// The static suggestions must be comparable to the dynamic planner's:
/// wherever the dynamic pipeline synthesizes a repair for an object, the
/// static report offers a suggestion for that same object.
#[test]
fn static_suggestions_cover_dynamic_plans() {
    for app in repair_targets() {
        let config = AppConfig::with_threads(8).scaled(SCALE);
        let (program, space) = app.build(&config).into_parts();
        let summary = summarize(&program, 64);
        let report = cheetah_analyze::analyze_layout(&summary, &space);
        let (program, space) = app.build(&config).into_parts();
        let profile = profile_of(program, &space);
        for assessed in &profile.instances {
            let Some(plan) = synthesize(&assessed.instance, 64) else {
                continue;
            };
            let object_start = assessed.instance.object.start.0;
            let finding = report
                .candidates()
                .find(|f| f.start <= object_start && object_start < f.start + f.size);
            let suggestion = finding.and_then(|f| f.suggestion);
            assert!(
                suggestion.is_some(),
                "{}: dynamic planner suggests {} for object 0x{object_start:x} but the \
                 static report offers nothing",
                app.name(),
                plan.strategy
            );
        }
    }
}
