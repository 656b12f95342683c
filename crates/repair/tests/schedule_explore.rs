//! Schedule-space exploration end to end: the `staggered_writers` app
//! carries false sharing the observed schedule hides; exploration must
//! find it, rank its fix by worst-case payoff, and converge to zero
//! significant residue on *every* explored schedule. Plus the union's
//! monotonicity over real profiles.

use cheetah_core::{union_findings, CheetahConfig, CheetahProfiler, Profile};
use cheetah_repair::{converge_worst_case, schedule_set, ConvergeConfig, ValidationHarness};
use cheetah_sim::{Machine, MachineConfig, SchedulePolicy};
use cheetah_workloads::{find, AppConfig};

fn app_config(threads: u32) -> AppConfig {
    AppConfig {
        threads,
        scale: 0.05,
        fixed: false,
        seed: 1,
    }
}

fn harness() -> ValidationHarness {
    ValidationHarness::calibrated(
        Machine::new(MachineConfig::with_cores(8)),
        CheetahConfig::scaled(256),
    )
}

fn profile_under(app: &cheetah_workloads::App, threads: u32, policy: SchedulePolicy) -> Profile {
    let harness = harness();
    let machine = Machine::new(harness.machine().config().clone().with_schedule(policy));
    let instance = app.build(&app_config(threads));
    let mut profiler = CheetahProfiler::new(harness.non_perturbing_config(), &instance.space);
    machine.run(instance.program, &mut profiler);
    profiler.finish()
}

/// The acceptance witness, first half: the observed schedule reports no
/// significant false sharing on `staggered_writers`, a perturbed one does.
#[test]
fn observed_profile_misses_what_perturbed_finds() {
    let app = find("staggered_writers").unwrap();
    let observed = profile_under(app, 4, SchedulePolicy::Observed);
    assert!(
        observed.significant_false_sharing(1.005).is_empty(),
        "the observed schedule must miss the staggered instance:\n{}",
        observed.render_report()
    );
    let shuffled = profile_under(app, 4, SchedulePolicy::SeededShuffle { seed: 1 });
    assert!(
        !shuffled.significant_false_sharing(1.005).is_empty(),
        "the shuffle must expose it:\n{}",
        shuffled.render_report()
    );
}

/// The acceptance witness, second half: worst-case exploration finds the
/// hidden instance and its repair converges to zero residual on every
/// explored schedule.
#[test]
fn hidden_instance_repair_converges_on_every_schedule() {
    let app = find("staggered_writers").unwrap();
    let schedules = schedule_set(&[1, 2]);
    let trace = converge_worst_case(
        &harness(),
        "staggered_writers",
        || app.build(&app_config(4)),
        &ConvergeConfig::default(),
        &schedules,
    )
    .unwrap();
    assert!(trace.initial_findings >= 1, "{trace}");
    assert!(
        trace.initial_hidden >= 1,
        "the staggered instance must be hidden from the observed schedule: {trace}"
    );
    assert!(!trace.iterations.is_empty(), "{trace}");
    let step = &trace.iterations[0];
    assert!(step.hidden, "{trace}");
    // Measured under the schedule the prediction came from: the observed
    // one never sees the instance and would read ~1.0x against ~10x.
    assert!(step.measured > 2.0, "{trace}");
    assert!(step.relative_error() < 0.5, "{trace}");
    assert!(
        trace.converged,
        "repair must converge on every schedule: {trace}"
    );
    assert_eq!(trace.total_residual(), 0, "{trace}");
    assert_eq!(trace.residual_per_schedule.len(), schedules.len());
    assert!(trace.render().contains("hidden from observed"), "{trace}");
}

/// Workloads the observed schedule already diagnoses correctly keep their
/// verdict under exploration, and repair still converges.
#[test]
fn visible_instance_still_converges_under_exploration() {
    let app = find("microbench").unwrap();
    let trace = converge_worst_case(
        &harness(),
        "microbench",
        || app.build(&app_config(8)),
        &ConvergeConfig::default(),
        &schedule_set(&[1]),
    )
    .unwrap();
    assert!(trace.initial_findings >= 1, "{trace}");
    assert_eq!(
        trace.initial_hidden, 0,
        "microbench is visible to the observed schedule: {trace}"
    );
    assert!(trace.converged, "{trace}");
    assert_eq!(trace.total_residual(), 0, "{trace}");
}

/// Union-of-findings monotonicity over *real* profiles: growing the
/// explored seed set never loses a finding, never drops a sighting, and
/// never lowers a worst-case payoff.
#[test]
fn union_monotone_in_seed_set_on_real_profiles() {
    let app = find("staggered_writers").unwrap();
    let pool: Vec<(SchedulePolicy, Profile)> = std::iter::once(SchedulePolicy::Observed)
        .chain((1..=3u64).map(|seed| SchedulePolicy::SeededShuffle { seed }))
        .map(|policy| (policy, profile_under(app, 4, policy)))
        .collect();
    for split in 0..pool.len() {
        let smaller = union_findings(&pool[..split], 1.005);
        let larger = union_findings(&pool[..=split], 1.005);
        assert!(larger.len() >= smaller.len());
        for finding in &smaller {
            let grown = larger
                .iter()
                .find(|f| f.key == finding.key)
                .expect("findings never disappear as schedules are added");
            assert!(grown.sightings.len() >= finding.sightings.len());
            assert!(grown.worst_improvement() >= finding.worst_improvement());
        }
    }
}
