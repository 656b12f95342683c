//! Soundness quantified over the schedule set: the static sharing
//! candidates are computed once per program, with no notion of
//! interleaving — so they must cover the dynamic detector's findings under
//! *every* schedule policy, not just the observed one. Perturbed
//! interleavings surface instances the observed schedule hides (see
//! `cheetah_sim::SchedulePolicy`); none of them may escape the static
//! over-approximation, before or after repair.

use cheetah_analyze::{soundness_violations, summarize, StaticSummary};
use cheetah_core::{CheetahConfig, CheetahProfiler, Profile};
use cheetah_repair::{apply_iterations, synthesize, RepairPlan};
use cheetah_sim::{Machine, MachineConfig, Program, SchedulePolicy};
use cheetah_workloads::{find, repair_targets, App, AppConfig, APPS};
use proptest::prelude::*;

/// Small but sample-dense, matching the observed-schedule soundness suite.
const SCALE: f64 = 0.05;
const PERIOD: u64 = 256;

fn profile_under(
    program: Program,
    space: &cheetah_heap::AddressSpace,
    policy: SchedulePolicy,
) -> Profile {
    let mut profiler = CheetahProfiler::new(CheetahConfig::scaled(PERIOD), space);
    Machine::new(MachineConfig::default().with_schedule(policy)).run(program, &mut profiler);
    profiler.finish()
}

/// Static summary from one build, perturbed dynamic profile from a second
/// identical build (streams are single-use; builds are deterministic).
fn summarize_and_profile(
    app: &App,
    config: &AppConfig,
    policy: SchedulePolicy,
) -> (StaticSummary, Profile) {
    let (program, _space) = app.build(config).into_parts();
    let summary = summarize(&program, 64);
    let (program, space) = app.build(config).into_parts();
    (summary, profile_under(program, &space, policy))
}

fn assert_sound_under(app: &App, config: &AppConfig, policy: SchedulePolicy) {
    let (summary, profile) = summarize_and_profile(app, config, policy);
    let violations = soundness_violations(&summary, &profile);
    assert!(
        violations.is_empty(),
        "{} (threads {}, seed {}) under {policy}: {:#?}",
        app.name(),
        config.threads,
        config.seed,
        violations
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// Random (workload, threads, seed) triples judged under a perturbed
    /// schedule derived from the same seed: whatever interleaving the
    /// perturbation produces, every dynamic finding stays inside the
    /// static candidate set — and if the top finding is repairable, the
    /// repaired layout is re-covered under the same perturbed schedule.
    #[test]
    fn soundness_under_perturbed_schedules(
        app_index in 0..APPS.len(),
        threads in prop::sample::select(vec![2u32, 4, 8]),
        seed in 0u64..64,
        contend in proptest::bool::ANY,
    ) {
        let app = &APPS[app_index];
        let mut config = AppConfig::with_threads(threads).scaled(SCALE);
        config.seed = 42 + seed;
        let policy = if contend {
            SchedulePolicy::ContentionMax { seed: seed + 1 }
        } else {
            SchedulePolicy::SeededShuffle { seed: seed + 1 }
        };
        assert_sound_under(app, &config, policy);

        // Post-repair half: synthesize a plan from the *perturbed* profile
        // (the only profile that sees schedule-hidden instances), apply it,
        // and require the repaired layout to stay covered too.
        let (program, space) = app.build(&config).into_parts();
        let profile = profile_under(program, &space, policy);
        let plan: Option<RepairPlan> = profile
            .instances
            .iter()
            .find_map(|assessed| synthesize(&assessed.instance, 64));
        if let Some(plan) = plan {
            let (program, mut space) = app.build(&config).into_parts();
            let repaired =
                apply_iterations(program, std::slice::from_ref(&plan), &mut space)
                    .expect("repair");
            let summary = summarize(&repaired, 64);
            let (program, mut space) = app.build(&config).into_parts();
            let repaired =
                apply_iterations(program, std::slice::from_ref(&plan), &mut space)
                    .expect("repair");
            let profile = profile_under(repaired, &space, policy);
            let violations = soundness_violations(&summary, &profile);
            prop_assert!(
                violations.is_empty(),
                "{} post-repair ({}) under {policy}: {:#?}",
                app.name(),
                plan.strategy,
                violations
            );
        }
    }
}

/// The schedule-hidden instance (`staggered_writers`, invisible to the
/// observed schedule) is still anticipated statically: soundness holds on
/// the one profile that exposes it, and its repaired layout stays covered.
#[test]
fn hidden_instance_is_statically_anticipated() {
    let app = find("staggered_writers").unwrap();
    let config = AppConfig::with_threads(4).scaled(SCALE);
    let policy = SchedulePolicy::ContentionMax { seed: 1 };
    assert_sound_under(app, &config, policy);

    let (program, space) = app.build(&config).into_parts();
    let profile = profile_under(program, &space, policy);
    let plan = profile
        .instances
        .iter()
        .find_map(|assessed| synthesize(&assessed.instance, 64))
        .expect("the perturbed profile must yield a repairable instance");
    let (program, mut space) = app.build(&config).into_parts();
    let repaired =
        apply_iterations(program, std::slice::from_ref(&plan), &mut space).expect("repair");
    let summary = summarize(&repaired, 64);
    let (program, mut space) = app.build(&config).into_parts();
    let repaired =
        apply_iterations(program, std::slice::from_ref(&plan), &mut space).expect("repair");
    let profile = profile_under(repaired, &space, policy);
    let violations = soundness_violations(&summary, &profile);
    assert!(violations.is_empty(), "post-repair: {violations:#?}");
}

/// Every repair target stays sound under one shuffled and one
/// contention-maximizing schedule at the repair suite's thread count —
/// the deterministic complement to the randomized sweep above.
#[test]
fn repair_targets_sound_under_both_perturbations() {
    for app in repair_targets() {
        let config = AppConfig::with_threads(8).scaled(SCALE);
        for policy in [
            SchedulePolicy::SeededShuffle { seed: 7 },
            SchedulePolicy::ContentionMax { seed: 7 },
        ] {
            assert_sound_under(app, &config, policy);
        }
    }
}
