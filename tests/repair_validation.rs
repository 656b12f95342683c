//! End-to-end validation of the assessor through automated repair: on the
//! Fig. 1 microbenchmark and the linear_regression case study, the
//! synthesized fix must yield a real speedup, and Cheetah's predicted
//! improvement must land within 20% relative error of the measured one
//! (the paper claims <10% on average; 20% bounds the worst case at these
//! reduced experiment scales).

use cheetah::core::CheetahConfig;
use cheetah::repair::{
    converge, ConvergeConfig, RepairStrategy, ValidationHarness, ValidationOutcome,
};
use cheetah::sim::{Machine, MachineConfig, NullObserver};
use cheetah::workloads::{find, repair_targets, table2_matrix, AppConfig};

fn validate(name: &str, threads: u32, scale: f64, period: u64, cores: u32) -> ValidationOutcome {
    let app = find(name).expect("registered app");
    let config = AppConfig {
        threads,
        scale,
        fixed: false,
        seed: 1,
    };
    let harness = ValidationHarness::calibrated(
        Machine::new(MachineConfig::with_cores(cores)),
        CheetahConfig::scaled(period),
    );
    harness
        .validate(name, || app.build(&config))
        .expect("synthesized repair must apply")
}

#[test]
fn microbench_prediction_within_20_percent_of_measured() {
    let outcome = validate("microbench", 8, 0.05, 256, 8);
    assert_eq!(outcome.instances.len(), 1, "the one array instance");
    let inst = &outcome.instances[0];
    assert_eq!(inst.plan.strategy, RepairStrategy::SplitPerThread);
    assert!(
        inst.actual > 2.0,
        "the synthesized repair must yield a real speedup, got {:.2}x",
        inst.actual
    );
    assert!(
        inst.relative_error() < 0.20,
        "predicted {:.2}x vs actual {:.2}x ({:.0}% off)",
        inst.predicted,
        inst.actual,
        inst.relative_error() * 100.0
    );
}

#[test]
fn linear_regression_prediction_within_20_percent_of_measured() {
    let outcome = validate("linear_regression", 8, 0.25, 128, 48);
    assert_eq!(outcome.instances.len(), 1, "the tid_args instance");
    let inst = &outcome.instances[0];
    assert_eq!(inst.plan.label, "linear_regression-pthread.c: 139");
    assert!(
        inst.actual > 2.0,
        "the synthesized repair must yield a real speedup, got {:.2}x",
        inst.actual
    );
    assert!(
        inst.relative_error() < 0.20,
        "predicted {:.2}x vs actual {:.2}x ({:.0}% off)",
        inst.predicted,
        inst.actual,
        inst.relative_error() * 100.0
    );
    let table = outcome.render_table();
    assert!(table.contains("linear_regression-pthread.c: 139"));
    assert!(table.contains("split-per-thread"));
}

#[test]
fn synthesized_repair_matches_or_beats_handwritten_fix() {
    // The hand-written fixes pad structs/blocks; the synthesized split
    // gives each thread fully private lines. It must recover at least 90%
    // of the hand-written fix's improvement on every repair target.
    for app in repair_targets() {
        let threads = 8;
        let scale = match app.name() {
            "microbench" => 0.05,
            _ => 0.2,
        };
        let cores = if app.name() == "microbench" { 8 } else { 48 };
        let config = AppConfig {
            threads,
            scale,
            fixed: false,
            seed: 1,
        };
        let machine = Machine::new(MachineConfig::with_cores(cores));
        let broken = machine
            .run(app.build(&config).program, &mut NullObserver)
            .total_cycles;
        let handwritten = machine
            .run(
                app.build(&config.clone().fixed()).program,
                &mut NullObserver,
            )
            .total_cycles;
        let handwritten_improvement = broken as f64 / handwritten as f64;

        let harness = ValidationHarness::calibrated(machine.clone(), CheetahConfig::scaled(128));
        let outcome = harness
            .validate(app.name(), || app.build(&config))
            .expect("repair applies");
        let synthesized_improvement = outcome.combined_actual();
        assert!(
            synthesized_improvement >= 0.9 * handwritten_improvement,
            "{}: synthesized {:.3}x must rival hand-written {:.3}x",
            app.name(),
            synthesized_improvement,
            handwritten_improvement
        );
    }
}

#[test]
fn repair_is_a_no_op_for_clean_apps() {
    // Apps without false sharing must produce no plans and an unchanged
    // runtime through the harness.
    for name in ["blackscholes", "matrix_multiply"] {
        let outcome = validate(name, 8, 0.1, 512, 48);
        assert!(
            outcome.instances.is_empty(),
            "{name} must synthesize no repairs"
        );
        assert_eq!(outcome.all_repaired_cycles, outcome.broken_cycles);
        assert!((outcome.combined_actual() - 1.0).abs() < 1e-12);
    }
}

/// A slice of the Table-2 matrix (the extreme thread counts at one period
/// per workload): every cell must converge to zero residual with its
/// per-step prediction error under 20%. The full matrix runs in
/// `table2_prediction`, whose `BENCH_repair.json` CI requires to be
/// byte-identical to the committed file.
#[test]
fn matrix_extremes_converge_with_bounded_error() {
    let picked = [
        ("linear_regression", 128),
        ("streamcluster", 64),
        ("microbench", 256),
        // Cross-object cells: the line-level assessment's stress cases.
        ("inter_object", 64),
        ("packed_triplet", 48),
        ("reader_writer", 64),
    ];
    let cells: Vec<_> = table2_matrix()
        .into_iter()
        .filter(|c| {
            (c.threads == 2 || c.threads == 16) && picked.contains(&(c.app.name(), c.period))
        })
        .collect();
    assert_eq!(
        cells.len(),
        picked.len() * 2,
        "picked (workload, period) pairs must exist in the sweep matrix"
    );
    for cell in cells {
        let config = cell.app_config();
        let harness = ValidationHarness::calibrated(
            Machine::new(MachineConfig::with_cores(cell.cores)),
            CheetahConfig::scaled(cell.period),
        );
        let trace = converge(
            &harness,
            cell.app.name(),
            || cell.app.build(&config),
            &ConvergeConfig {
                max_iterations: cell.max_iterations,
                min_predicted_improvement: cell.min_predicted_improvement,
            },
        )
        .expect("synthesized repairs apply");
        assert!(
            trace.converged && trace.residual_significant == 0,
            "{} t{} p{} must reach fixpoint: {trace}",
            cell.app.name(),
            cell.threads,
            cell.period
        );
        assert!(
            !trace.iterations.is_empty(),
            "{} t{} p{}: the broken build must need at least one fix",
            cell.app.name(),
            cell.threads,
            cell.period
        );
        assert!(
            trace.worst_error() < 0.20,
            "{} t{} p{}: worst step error {:.1}% — {trace}",
            cell.app.name(),
            cell.threads,
            cell.period,
            trace.worst_error() * 100.0
        );
        if cell.min_predicted_improvement == 0.0 {
            // Cross-object cells: the line-level model must see past the
            // fixed object — no flat ~1.0x first steps.
            assert!(
                trace.iterations[0].predicted > 1.0,
                "{} t{} p{}: first-step prediction stuck at {:.6} — {trace}",
                cell.app.name(),
                cell.threads,
                cell.period,
                trace.iterations[0].predicted
            );
        }
    }
}

#[test]
fn streamcluster_mild_instance_validates() {
    // The second case study: a mild instance whose predicted and measured
    // improvements are both barely above 1 — the regime where a wrong
    // prediction would be most visible in relative terms.
    let outcome = validate("streamcluster", 8, 0.5, 64, 48);
    assert_eq!(outcome.instances.len(), 1, "the work_mem instance");
    let inst = &outcome.instances[0];
    assert!(
        inst.actual > 1.005 && inst.actual < 1.25,
        "mild real speedup, got {:.3}x",
        inst.actual
    );
    assert!(
        inst.relative_error() < 0.20,
        "predicted {:.3}x vs actual {:.3}x",
        inst.predicted,
        inst.actual
    );
}
