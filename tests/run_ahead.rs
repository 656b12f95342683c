//! The classic loop's private run-ahead is exact.
//!
//! Between scheduling turns, a worker of a parallel phase runs ahead
//! through its work and its unsampled accesses to lines no other worker
//! declares. Under a `NullObserver` nothing is sampled, so run-ahead covers
//! every private line. The strict-order reference is the same program under
//! a zero-cost observer that sees every access: each access is then
//! ordered, and no worker ever runs ahead. Both must produce the same
//! `RunReport`. (`replica_contract.rs` checks the same property with the
//! profiler attached.)

use cheetah::core::{CheetahConfig, CheetahProfiler};
use cheetah::repair::{apply_iterations, synthesize};
use cheetah::sim::{ExecObserver, Machine, MachineConfig, NullObserver, Program, RunReport};
use cheetah::workloads::{find, AppConfig, APPS};

/// Sees every access (the default `SamplerFork::EveryAccess`) and charges
/// nothing, so its runs are the native runs in strict time order.
struct StrictOrder;

impl ExecObserver for StrictOrder {}

fn run_both(machine: &Machine, program: impl Fn() -> Program) -> (RunReport, RunReport) {
    (
        machine.run(program(), &mut NullObserver),
        machine.run(program(), &mut StrictOrder),
    )
}

#[test]
fn run_ahead_matches_strict_order_registry_wide() {
    let machine = Machine::new(MachineConfig::default());
    for threads in [2, 4, 8, 16] {
        for app in APPS.iter() {
            let config = AppConfig::with_threads(threads).scaled(0.02);
            let (ahead, strict) = run_both(&machine, || app.build(&config).program);
            assert_eq!(
                ahead,
                strict,
                "{} t={threads}: run-ahead diverged from strict order",
                app.name()
            );
        }
    }
}

#[test]
fn run_ahead_matches_strict_order_when_oversubscribed() {
    // 8 workers on 3 cores: workers share cores, so no line is private and
    // only work runs ahead.
    let machine = Machine::new(MachineConfig::with_cores(3));
    for app in APPS.iter() {
        let config = AppConfig::with_threads(8).scaled(0.02);
        let (ahead, strict) = run_both(&machine, || app.build(&config).program);
        assert_eq!(
            ahead,
            strict,
            "{} on 3 cores: run-ahead diverged from strict order",
            app.name()
        );
    }
}

#[test]
fn run_ahead_matches_strict_order_after_a_layout_rewrite() {
    // Repaired programs read their footprints through `RemappedStream`.
    let machine = Machine::new(MachineConfig::default());
    let app = find("packed_triplet").expect("registered app");
    let config = AppConfig::with_threads(8).scaled(0.05);
    let instance = app.build(&config);
    let mut profiler = CheetahProfiler::new(CheetahConfig::scaled(64), &instance.space);
    machine.run(instance.program, &mut profiler);
    let plans: Vec<_> = profiler
        .finish()
        .false_sharing()
        .iter()
        .filter_map(|found| synthesize(&found.instance, 64))
        .collect();
    assert!(!plans.is_empty(), "packed_triplet must yield a repair plan");
    let (ahead, strict) = run_both(&machine, || {
        let mut instance = app.build(&config);
        apply_iterations(instance.program, &plans, &mut instance.space)
            .expect("synthesized repair must apply")
    });
    assert_eq!(ahead, strict, "repaired packed_triplet: run-ahead diverged");
}
