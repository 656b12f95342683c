//! Properties of the fixpoint repair loop:
//!
//! (a) `converge` terminates within its iteration bound for arbitrary
//!     workload configurations;
//! (b) it is deterministic — bit-identical iteration traces across runs;
//! (c) the inter-object workload (two small objects per cache line)
//!     reaches zero residual instances through the pad-to-line path;
//! (d) under the line-level assessment the inter-object convergence trace
//!     predicts the joint payoff of each cross-object repair — the
//!     regression pinned by `inter_object_trace_predicts_joint_payoff`.

use cheetah_core::{AssessModel, CheetahConfig};
use cheetah_repair::{
    converge, converge_worst_case, schedule_set, ConvergeConfig, ConvergenceTrace, RepairStrategy,
    ValidationHarness,
};
use cheetah_sim::metrics::RESUMED_PHASES;
use cheetah_sim::{Machine, MachineConfig, ObsHandle, SchedulePolicy};
use cheetah_workloads::{find, AppConfig};
use proptest::prelude::*;

fn harness(cores: u32, period: u64) -> ValidationHarness {
    ValidationHarness::calibrated(
        Machine::new(MachineConfig::with_cores(cores)),
        CheetahConfig::scaled(period),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (a) + (b): the loop terminates within the bound and the trace is
    /// bit-identical across runs, for arbitrary thread counts, scales and
    /// iteration bounds on the inter-object workload (the one that takes
    /// several iterations to converge).
    #[test]
    fn converge_is_bounded_and_deterministic(
        threads in 2u32..9,
        scale_milli in 40u64..120,
        max_iterations in 1u32..6,
    ) {
        let app = find("inter_object").unwrap();
        let config = AppConfig {
            threads,
            scale: scale_milli as f64 / 1000.0,
            fixed: false,
            seed: 1,
        };
        let cfg = ConvergeConfig {
            max_iterations,
            min_predicted_improvement: 0.0,
        };
        let run = || {
            converge(
                &harness(16, 64),
                "inter_object",
                || app.build(&config),
                &cfg,
            )
            .expect("plans apply")
        };
        let first = run();
        prop_assert!(first.iterations.len() as u32 <= max_iterations);
        // Stopping because the bound was hit must be reported as such.
        prop_assert!(first.converged || first.iterations.len() as u32 == max_iterations
            || first.residual_significant > 0);
        let second = run();
        prop_assert_eq!(first, second, "traces must be bit-identical");
    }
}

/// (c): the ROADMAP's inter-object case end to end — every fix the loop
/// applies is a pad-to-line relocation, and the loop reaches zero residual
/// significant instances within the bound.
#[test]
fn inter_object_pads_to_zero_residual() {
    let app = find("inter_object").unwrap();
    let config = AppConfig {
        threads: 8,
        scale: 0.1,
        fixed: false,
        seed: 1,
    };
    let trace = converge(
        &harness(16, 64),
        "inter_object",
        || app.build(&config),
        &ConvergeConfig::exhaustive(16),
    )
    .expect("plans apply");
    assert!(trace.converged, "{trace}");
    assert_eq!(trace.residual_significant, 0);
    assert!(
        !trace.iterations.is_empty(),
        "the broken build must need repair"
    );
    for it in &trace.iterations {
        assert_eq!(
            it.strategy,
            RepairStrategy::PadToLine,
            "single-owner objects must take the pad path: {trace}"
        );
        assert!(it.label.starts_with("inter_object.c:"), "{}", it.label);
    }
    assert_eq!(trace.iterations.last().unwrap().significant_after, 0);
    assert!(
        trace.total_improvement() > 2.0,
        "padding away the shared lines must pay off: {trace}"
    );
}

/// (d) Regression for the flat ~1.0x-per-step bug (ROADMAP "Cross-object
/// assessment"): under the default line-level model the `inter_object`
/// convergence trace predicts the *joint* payoff of padding one
/// co-resident — the first iteration's prediction is strictly above 1.0
/// and every iteration (including the final one, where the whole payoff
/// lands) is within 20% of measured. The per-object reference model on
/// the identical workload still predicts ~1.0x for the very fix that
/// measures >10x — the bug this PR kills, kept observable via
/// [`AssessModel::PerObject`].
#[test]
fn inter_object_trace_predicts_joint_payoff() {
    let app = find("inter_object").unwrap();
    let config = AppConfig {
        threads: 8,
        scale: 0.1,
        fixed: false,
        seed: 1,
    };
    let trace_with = |model: AssessModel| -> ConvergenceTrace {
        let harness = ValidationHarness::calibrated(
            Machine::new(MachineConfig::with_cores(48)),
            CheetahConfig::scaled(64).with_assess_model(model),
        );
        converge(
            &harness,
            "inter_object",
            || app.build(&config),
            &ConvergeConfig::exhaustive(16),
        )
        .expect("plans apply")
    };

    let line = trace_with(AssessModel::LineLevel);
    assert!(line.converged && line.residual_significant == 0, "{line}");
    assert!(!line.iterations.is_empty());
    let first = &line.iterations[0];
    assert!(
        first.predicted > 1.0,
        "first-step prediction must be strictly above 1.0, got {:.6}",
        first.predicted
    );
    assert_eq!(first.co_residents, 2, "inter-object lines pack two objects");
    for it in &line.iterations {
        assert!(
            it.relative_error() < 0.20,
            "iteration {} predicted {:.4}x vs measured {:.4}x ({:.1}% off): {line}",
            it.iteration,
            it.predicted,
            it.measured,
            it.relative_error() * 100.0
        );
    }
    let last = line.iterations.last().unwrap();
    assert!(
        last.predicted > 2.0 && last.measured > 2.0,
        "the final fix carries the joint payoff: {line}"
    );

    // The per-object reference model converges through the same fixes but
    // flat-lines the predictions: its final step predicts ~1.0x against a
    // measured >2x.
    let per_object = trace_with(AssessModel::PerObject);
    assert_eq!(per_object.iterations.len(), line.iterations.len());
    let last_obj = per_object.iterations.last().unwrap();
    assert!(
        last_obj.predicted < 1.05 && last_obj.measured > 2.0,
        "per-object model must still show the flat-prediction bug: {per_object}"
    );
    assert!(last_obj.relative_error() > 0.5);
}

/// Iteration records chain: each step's `cycles_after` is the next step's
/// `cycles_before`, and the ends match the trace's totals.
#[test]
fn iteration_records_chain() {
    let app = find("inter_object").unwrap();
    let config = AppConfig {
        threads: 4,
        scale: 0.08,
        fixed: false,
        seed: 1,
    };
    let trace = converge(
        &harness(16, 64),
        "inter_object",
        || app.build(&config),
        &ConvergeConfig::exhaustive(8),
    )
    .unwrap();
    assert!(!trace.iterations.is_empty());
    assert_eq!(trace.iterations[0].cycles_before, trace.initial_cycles);
    for pair in trace.iterations.windows(2) {
        assert_eq!(pair[0].cycles_after, pair[1].cycles_before);
        assert_eq!(pair[0].iteration + 1, pair[1].iteration);
    }
    assert_eq!(
        trace.iterations.last().unwrap().cycles_after,
        trace.final_cycles
    );
}

/// Sharded simulator execution must not change convergence at all: the
/// full profile → fix → re-profile loop produces a bit-identical trace
/// whether the machine interleaves threads classically (`shards = 1`) or
/// merges sharded event streams (`shards = 4`). Sharded re-profiles resume
/// from the first profile's checkpoint where the fixes leave its prefix in
/// place — streamcluster's and linear_regression's input phase — and the
/// `sim.resumed_phases` counter proves the resumed path actually ran;
/// inter_object writes its repaired objects in phase 0, so it has no prefix
/// to skip. Worst-case exploration resumes every schedule's re-profiles
/// from that schedule's own checkpoint, perturbed schedules included, to
/// the same trace.
#[test]
fn converge_identical_under_sharded_execution() {
    let cases = [
        ("linear_regression", 0.05, 96, ConvergeConfig::default()),
        ("streamcluster", 0.1, 32, ConvergeConfig::default()),
        ("inter_object", 0.08, 64, ConvergeConfig::exhaustive(8)),
    ];
    for (name, scale, period, converge_config) in cases {
        let app = find(name).unwrap();
        let config = AppConfig {
            threads: 4,
            scale,
            fixed: false,
            seed: 1,
        };
        let trace_at = |shards: u32, schedules: Option<&[SchedulePolicy]>| {
            let obs = ObsHandle::fresh_untraced();
            let machine = MachineConfig::with_cores(16)
                .with_shards(shards)
                .with_obs(obs.clone());
            let harness =
                ValidationHarness::calibrated(Machine::new(machine), CheetahConfig::scaled(period));
            let build = || app.build(&config);
            let trace = match schedules {
                None => converge(&harness, name, build, &converge_config),
                Some(schedules) => {
                    converge_worst_case(&harness, name, build, &converge_config, schedules)
                }
            }
            .expect("plans apply");
            (trace, obs.counter(RESUMED_PHASES).get())
        };
        let (classic, classic_resumed) = trace_at(1, None);
        let (sharded, sharded_resumed) = trace_at(4, None);
        assert!(!sharded.iterations.is_empty(), "{name} needs a re-profile");
        assert_eq!(classic, sharded, "{name}");
        assert_eq!(classic_resumed, 0, "the classic loop never captures");
        match name {
            "streamcluster" | "linear_regression" => {
                assert!(sharded_resumed >= 1, "{name} skipped no phase")
            }
            _ => assert_eq!(sharded_resumed, 0, "{name} has no prefix"),
        }
        if name == "inter_object" {
            continue;
        }
        let schedules = schedule_set(&[1, 2]);
        let (classic, classic_resumed) = trace_at(1, Some(&schedules));
        let (sharded, sharded_resumed) = trace_at(4, Some(&schedules));
        assert!(!sharded.iterations.is_empty(), "{name} needs a re-profile");
        assert_eq!(classic, sharded, "{name} over {schedules:?}");
        assert_eq!(classic_resumed, 0, "the classic loop never captures");
        // Every schedule's re-profile resumes from its own checkpoint.
        assert!(
            sharded_resumed >= schedules.len() as u64,
            "{name}: {sharded_resumed} phase(s) resumed over {} schedules",
            schedules.len()
        );
    }
}
