//! Footprint-soundness audit over the registry: every access of every
//! shipped workload must lie inside its stream's declared footprint
//! (writes inside a `wrote` extent). Checked twice per build: statically,
//! by `footprint::audit` draining every serial and parallel stream with
//! nothing simulated, and dynamically, by a sharded run whose
//! `sim.footprint_violations` counter (one per access demoted for lying
//! outside its classified extents) this test pins to zero.

use cheetah_sim::footprint::audit;
use cheetah_sim::metrics::FOOTPRINT_VIOLATIONS;
use cheetah_sim::observer::NullObserver;
use cheetah_sim::{Machine, MachineConfig, ObsHandle};
use cheetah_workloads::{AppConfig, APPS};

/// Asserts that `config`'s build of every app has no static audit record
/// and no executed access outside its declared footprints.
fn assert_footprints_sound(config: &AppConfig, label: &str) {
    for app in APPS {
        let (program, _space) = app.build(config).into_parts();
        let records = audit(program);
        assert!(
            records.is_empty(),
            "{} ({label}) declares footprints its streams escape: {records:#?}",
            app.name()
        );

        let obs = ObsHandle::fresh_untraced();
        let machine = Machine::new(
            MachineConfig::default()
                .with_shards(2)
                .with_obs(obs.clone()),
        );
        let (program, _space) = app.build(config).into_parts();
        machine.run(program, &mut NullObserver);
        let violations = obs.counter(FOOTPRINT_VIOLATIONS).get();
        assert_eq!(
            violations,
            0,
            "{} ({label}) executed accesses outside its declared footprints",
            app.name()
        );
    }
}

#[test]
fn registry_footprints_cover_every_executed_access() {
    for fixed in [false, true] {
        let mut config = AppConfig::with_threads(8).scaled(0.1);
        if fixed {
            config = config.fixed();
        }
        assert_footprints_sound(&config, &format!("fixed: {fixed}"));
    }
}

#[test]
fn audit_also_covers_random_seeds() {
    // Randomized streams draw different addresses per seed; the declared
    // window must cover all of them.
    for seed in [7u64, 1234, 0xdead_beef] {
        let mut config = AppConfig::with_threads(4).scaled(0.05);
        config.seed = seed;
        assert_footprints_sound(&config, &format!("seed {seed}"));
    }
}
