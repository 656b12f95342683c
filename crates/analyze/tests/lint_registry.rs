//! The registry must lint clean: every shipped workload's declarations
//! (footprints, object extents, worker names) are exactly what the
//! static analysis and the simulator assume, and every access of every
//! serial and parallel stream lies inside its declared footprint (writes
//! inside a `wrote` extent). CI additionally runs `cheetah-analyze --lint`
//! at full scale over broken and fixed builds; this covers the same
//! property in-tree at test scale; `footprint_audit.rs` repeats the
//! footprint half over randomized seeds and checks it against a sharded run.

use cheetah_analyze::lint_workload;
use cheetah_workloads::{AppConfig, APPS};

#[test]
fn registry_workloads_lint_clean() {
    for app in APPS {
        for &threads in &[2u32, 16] {
            let config = AppConfig::with_threads(threads).scaled(0.1);
            let (program, space) = app.build(&config).into_parts();
            let diagnostics = lint_workload(program, &space);
            assert!(
                diagnostics.is_empty(),
                "{} (threads {threads}): {diagnostics:#?}",
                app.name()
            );
        }
    }
}

#[test]
fn fixed_builds_lint_clean_too() {
    for app in APPS {
        let config = AppConfig::with_threads(8).scaled(0.1).fixed();
        let (program, space) = app.build(&config).into_parts();
        let diagnostics = lint_workload(program, &space);
        assert!(
            diagnostics.is_empty(),
            "{} (fixed): {diagnostics:#?}",
            app.name()
        );
    }
}
