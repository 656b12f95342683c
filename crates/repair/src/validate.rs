//! End-to-end prediction validation: profile a workload, synthesize fixes
//! for every reported false-sharing instance, apply each fix, re-run, and
//! compare Cheetah's *predicted* improvement against the *measured* one —
//! the paper's Table 2 experiment, fully automated.
//!
//! The harness exploits the simulator's determinism: a workload builder
//! produces bit-identical programs on every call, so "the same run with a
//! different layout" is a meaningful counterfactual rather than a noisy
//! re-measurement.

use crate::plan::{synthesize, RepairPlan};
use crate::rewrite::{repair_program, RepairError};
use cheetah_core::{format_prediction_table, CheetahConfig, CheetahProfiler, PredictionRow};
use cheetah_sim::{Cycles, Machine, NullObserver};
use cheetah_workloads::WorkloadInstance;
use std::fmt;

/// Validation result for one sharing instance.
#[derive(Debug, Clone)]
pub struct InstanceValidation {
    /// The synthesized plan that was applied.
    pub plan: RepairPlan,
    /// Cheetah's predicted improvement factor for fixing this instance.
    pub predicted: f64,
    /// Measured improvement: broken cycles / repaired cycles.
    pub actual: f64,
    /// Runtime of the repaired program, this instance's fix only.
    pub repaired_cycles: Cycles,
}

impl InstanceValidation {
    /// Relative prediction error `|predicted/actual - 1|`.
    pub fn relative_error(&self) -> f64 {
        self.row().relative_error()
    }

    /// The instance as a report-table row.
    pub fn row(&self) -> PredictionRow {
        PredictionRow {
            label: self.plan.label.clone(),
            strategy: self.plan.strategy.to_string(),
            predicted: self.predicted,
            actual: self.actual,
        }
    }
}

/// Complete validation outcome for one workload.
#[derive(Debug, Clone)]
pub struct ValidationOutcome {
    /// Workload name.
    pub workload: String,
    /// Unprofiled runtime of the broken build.
    pub broken_cycles: Cycles,
    /// Per-instance validations (each fix applied in isolation), in the
    /// profile's order (predicted improvement descending).
    pub instances: Vec<InstanceValidation>,
    /// Runtime with *all* synthesized fixes applied together.
    pub all_repaired_cycles: Cycles,
    /// Samples the profiling run collected (diagnostic).
    pub total_samples: u64,
}

impl ValidationOutcome {
    /// Measured improvement with every fix applied.
    pub fn combined_actual(&self) -> f64 {
        if self.all_repaired_cycles == 0 {
            return 1.0;
        }
        self.broken_cycles as f64 / self.all_repaired_cycles as f64
    }

    /// Worst per-instance relative prediction error (0 when nothing was
    /// validated).
    pub fn worst_error(&self) -> f64 {
        self.instances
            .iter()
            .map(|i| i.relative_error())
            .fold(0.0, f64::max)
    }

    /// Renders the predicted-vs-actual table.
    pub fn render_table(&self) -> String {
        let rows: Vec<PredictionRow> = self.instances.iter().map(|i| i.row()).collect();
        format_prediction_table(
            &format!(
                "{}: predicted vs. actual improvement ({} instances, combined {:.2}x)",
                self.workload,
                self.instances.len(),
                self.combined_actual()
            ),
            &rows,
        )
    }
}

impl fmt::Display for ValidationOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_table())
    }
}

/// The validation harness: one machine + profiler configuration, reused
/// across workloads.
#[derive(Debug, Clone)]
pub struct ValidationHarness {
    machine: Machine,
    config: CheetahConfig,
}

impl ValidationHarness {
    /// Creates a harness.
    pub fn new(machine: Machine, config: CheetahConfig) -> Self {
        ValidationHarness { machine, config }
    }

    /// Creates a harness whose machine constants are calibrated: programs
    /// without a serial phase give Cheetah no serial-phase samples, so the
    /// assessment falls back to "a default value learned from experience"
    /// (§3.1 of the paper). On this simulator the experience is exact —
    /// after a fix, a hot thread's accesses hit its private cache — so the
    /// fallback is set to the machine's private-cache hit latency, and the
    /// compute/stall split uses the machine's true cycles-per-instruction.
    pub fn calibrated(machine: Machine, mut config: CheetahConfig) -> Self {
        config.detector.default_serial_latency = machine.config().latency.l1_hit as f64;
        config.detector.cycles_per_instruction =
            machine.config().latency.cycles_per_instruction as f64;
        config.detector.coherence_miss_latency = machine.config().latency.remote_dirty as f64;
        ValidationHarness { machine, config }
    }

    /// The machine programs run on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The harness configuration with sampling perturbation zeroed (no
    /// trap or setup cost). Prediction runs use this so their baseline is
    /// the same runtime measured improvements are taken against: at the
    /// paper's native 64K period the distinction is a few percent, but at
    /// the dense periods scaled-down experiments need, trap costs would
    /// de-synchronise the very contention being measured.
    pub fn non_perturbing_config(&self) -> CheetahConfig {
        let mut config = self.config.clone();
        config.sampler.trap_cost = 0;
        config.sampler.setup_cost = 0;
        config
    }

    /// Profiles the workload, synthesizes a fix per reported false-sharing
    /// instance, and measures each fix (and all fixes combined) on the
    /// same machine.
    ///
    /// `build` must produce identically laid-out instances on every call
    /// (true for all registry workloads given a fixed [`cheetah_workloads::AppConfig`]);
    /// the harness calls it once per run it needs.
    ///
    /// # Errors
    ///
    /// [`RepairError`] if a synthesized plan cannot be applied.
    pub fn validate<F>(&self, name: &str, build: F) -> Result<ValidationOutcome, RepairError>
    where
        F: Fn() -> WorkloadInstance,
    {
        let line_size = self.machine.config().cache_line_size;

        // Baseline: the broken build, unprofiled.
        let instance = build();
        let broken_cycles = self
            .machine
            .run(instance.program, &mut NullObserver)
            .total_cycles;

        // Profiled run: detection + per-instance predictions, with the
        // perturbation-free config so prediction and measurement share a
        // baseline (see [`ValidationHarness::non_perturbing_config`]).
        let instance = build();
        let mut profiler = CheetahProfiler::new(self.non_perturbing_config(), &instance.space);
        self.machine.run(instance.program, &mut profiler);
        let profile = profiler.finish();

        // Synthesize one plan per false-sharing instance.
        let planned: Vec<(RepairPlan, f64)> = profile
            .false_sharing()
            .into_iter()
            .filter_map(|assessed| {
                synthesize(&assessed.instance, line_size).map(|plan| (plan, assessed.improvement()))
            })
            .collect();

        // Validate each fix in isolation.
        let mut instances = Vec::with_capacity(planned.len());
        for (plan, predicted) in &planned {
            let fresh = build();
            let (program, space) = fresh.into_parts();
            let mut space = space;
            let repaired = repair_program(program, std::slice::from_ref(plan), &mut space)?;
            let repaired_cycles = self.machine.run(repaired, &mut NullObserver).total_cycles;
            let actual = if repaired_cycles == 0 {
                1.0
            } else {
                broken_cycles as f64 / repaired_cycles as f64
            };
            instances.push(InstanceValidation {
                plan: plan.clone(),
                predicted: *predicted,
                actual,
                repaired_cycles,
            });
        }

        // And all fixes together. With a single plan the merged map equals
        // that plan's map, so the per-instance run already measured it.
        let all_repaired_cycles = if planned.is_empty() {
            broken_cycles
        } else if planned.len() == 1 {
            instances[0].repaired_cycles
        } else {
            let fresh = build();
            let (program, space) = fresh.into_parts();
            let mut space = space;
            let plans: Vec<RepairPlan> = planned.iter().map(|(p, _)| p.clone()).collect();
            let repaired = repair_program(program, &plans, &mut space)?;
            self.machine.run(repaired, &mut NullObserver).total_cycles
        };

        Ok(ValidationOutcome {
            workload: name.to_string(),
            broken_cycles,
            instances,
            all_repaired_cycles,
            total_samples: profile.total_samples,
        })
    }
}
