//! Footprint-soundness audit over the registry: with the simulator's
//! byte-granular auditor enabled, every executed access of every shipped
//! workload must lie inside its stream's declared footprint (writes
//! inside a `wrote` extent). In debug builds a violation aborts the run;
//! in every build it bumps `sim.footprint_violations`, which this test
//! pins to zero.

use cheetah_sim::metrics::FOOTPRINT_VIOLATIONS;
use cheetah_sim::observer::NullObserver;
use cheetah_sim::{Machine, MachineConfig, ObsHandle};
use cheetah_workloads::{AppConfig, APPS};

#[test]
fn registry_footprints_cover_every_executed_access() {
    for app in APPS {
        for fixed in [false, true] {
            let mut config = AppConfig::with_threads(8).scaled(0.1);
            if fixed {
                config = config.fixed();
            }
            let obs = ObsHandle::fresh_untraced();
            let machine = Machine::new(
                MachineConfig::default()
                    .with_footprint_audit(true)
                    .with_obs(obs.clone()),
            );
            let (program, _space) = app.build(&config).into_parts();
            machine.run(program, &mut NullObserver);
            let violations = obs.counter(FOOTPRINT_VIOLATIONS).get();
            assert_eq!(
                violations,
                0,
                "{} (fixed: {fixed}) executed accesses outside its declared footprints",
                app.name()
            );
        }
    }
}

#[test]
fn audit_also_covers_random_seeds() {
    // Randomized streams draw different addresses per seed; the declared
    // window must cover all of them.
    for app in APPS {
        for seed in [7u64, 1234, 0xdead_beef] {
            let mut config = AppConfig::with_threads(4).scaled(0.05);
            config.seed = seed;
            let obs = ObsHandle::fresh_untraced();
            let machine = Machine::new(
                MachineConfig::default()
                    .with_footprint_audit(true)
                    .with_obs(obs.clone()),
            );
            let (program, _space) = app.build(&config).into_parts();
            machine.run(program, &mut NullObserver);
            let violations = obs.counter(FOOTPRINT_VIOLATIONS).get();
            assert_eq!(
                violations,
                0,
                "{} (seed {seed}) executed accesses outside its declared footprints",
                app.name()
            );
        }
    }
}
