//! The three workloads: what one operation runs, what it must output,
//! and the per-layer probes the traced pass adds after the operations.
//!
//! Every call into the system goes through a crate's public API, and every
//! span is the benchmark's own, opened around that call in `obs`. With an
//! untraced registry the spans are no-ops, so the timed and the traced pass
//! run the same code.

use cheetah_analyze::{soundness_violations, summarize};
use cheetah_core::{
    hidden_findings, union_findings, CheetahConfig, CheetahProfiler, CorruptFields, Detector,
    FaultPlan, Profile,
};
use cheetah_obs::{Fnv64, ObsHandle, SpanGuard};
use cheetah_pmu::{Sample, SimPmu};
use cheetah_repair::{
    apply_iterations, converge, converge_worst_case, rank, schedule_set, synthesize,
    ConvergeConfig, ConvergenceTrace, RepairPlan, ValidationHarness,
};
use cheetah_sim::{Machine, MachineConfig, NullObserver, SchedulePolicy};
use cheetah_workloads::{find, table2_matrix, App, AppConfig, Expectation, WorkloadInstance, APPS};
use std::cell::Cell;
use std::time::Instant;

/// Chrome-trace lanes, one per layer (the crates), plus the operations.
pub const LANES: [(u32, &str); 7] = [
    (0, "op"),
    (1, "workloads"),
    (2, "sim"),
    (3, "pmu"),
    (4, "core"),
    (5, "repair"),
    (6, "analyze"),
];
const LANE_OP: u32 = 0;
const LANE_WORKLOADS: u32 = 1;
const LANE_SIM: u32 = 2;
const LANE_PMU: u32 = 3;
const LANE_CORE: u32 = 4;
const LANE_REPAIR: u32 = 5;
const LANE_ANALYZE: u32 = 6;

/// The workloads `--workload` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every registry app at 4 and 16 threads, profiled once each.
    Profile,
    /// The Table-2 matrix, one fixpoint repair per cell.
    Converge,
    /// Schedule exploration, degraded profiling and worst-case repair.
    Explore,
}

impl Workload {
    /// Every workload, in the order `--check` runs them.
    pub const ALL: [Workload; 3] = [Workload::Profile, Workload::Converge, Workload::Explore];

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Profile => "profile",
            Workload::Converge => "converge",
            Workload::Explore => "explore",
        }
    }
}

/// Profile-workload scale, large enough that every
/// significant-false-sharing app shows an instance at the dense period.
const PROFILE_SCALE: f64 = 0.1;
/// Dense scaled period of the profile workload.
const PROFILE_PERIOD: u64 = 64;
/// Profile-workload thread counts.
const PROFILE_THREADS: [u32; 2] = [4, 16];
/// Host threads of the sharded workloads (at most `nproc` = 2).
const SHARDS: u32 = 2;
/// Explore-workload apps: the schedule-hidden app, the repair targets with
/// the most schedule sensitivity, and two clean-or-minor controls.
const EXPLORE_APPS: [&str; 8] = [
    "staggered_writers",
    "microbench",
    "linear_regression",
    "streamcluster",
    "packed_triplet",
    "reader_writer",
    "blackscholes",
    "histogram",
];
const EXPLORE_THREADS: u32 = 8;
const EXPLORE_SCALE: f64 = 0.1;
const EXPLORE_PERIOD: u64 = 256;
/// Highest predicted improvement a clean app may report.
const CLEAN_CEILING: f64 = 1.2;
/// The repair tests' bound on a converge step's prediction error.
const MAX_STEP_ERROR: f64 = 0.20;

/// One operation: an app, its configuration and the machine it runs on,
/// all built during set-up.
pub struct Op {
    /// The registry app.
    pub app: &'static App,
    /// Its build configuration (the seed is the run's seed).
    pub config: AppConfig,
    /// Machine plus calibrated profiler configuration.
    pub harness: ValidationHarness,
    /// The configuration the operation profiles with.
    pub cheetah: CheetahConfig,
    /// Fixpoint-loop bounds (converge: the cell's; others: the default).
    pub converge: ConvergeConfig,
    /// One machine per explored schedule (explore only).
    pub schedule_machines: Vec<(SchedulePolicy, Machine)>,
    /// Simulated cycles of the unprofiled broken build: the reference the
    /// operation's output is checked against.
    pub native_cycles: u64,
}

impl Op {
    /// The label the operation is reported under.
    pub fn label(&self) -> String {
        format!(
            "{}/t{}/p{}",
            self.app.name(),
            self.config.threads,
            self.cheetah.sampler.period
        )
    }
}

/// Everything one run measures, built by [`Suite::setup`].
pub struct Suite {
    /// The workload.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// Operations of one pass, in order.
    pub ops: Vec<Op>,
    /// Explored schedules (explore only).
    pub schedules: Vec<SchedulePolicy>,
    /// Plan of the explore workload's degraded profile.
    pub degraded_faults: FaultPlan,
    /// Plan of the traced pass's fault-injection probe.
    pub probe_faults: FaultPlan,
}

fn harness(cores: u32, shards: u32, period: u64) -> ValidationHarness {
    ValidationHarness::calibrated(
        Machine::new(MachineConfig::with_cores(cores).with_shards(shards)),
        CheetahConfig::scaled(period),
    )
}

impl Suite {
    /// Set-up: builds every operation's machine and calibrated harness,
    /// then runs each broken build once unprofiled for the reference
    /// cycle count.
    pub fn setup(workload: Workload, seed: u64) -> Suite {
        let app_config = |threads: u32, scale: f64| AppConfig {
            threads,
            scale,
            fixed: false,
            seed,
        };
        let schedules = match workload {
            Workload::Explore => schedule_set(&[
                seed,
                seed.wrapping_add(1),
                seed.wrapping_add(2),
                seed.wrapping_add(3),
            ]),
            _ => Vec::new(),
        };
        let mut ops: Vec<Op> = match workload {
            Workload::Profile => PROFILE_THREADS
                .iter()
                .flat_map(|&threads| APPS.iter().map(move |app| (app, threads)))
                .map(|(app, threads)| Op {
                    app,
                    config: app_config(threads, PROFILE_SCALE),
                    // 48 cores: the paper machine.
                    harness: harness(48, 1, PROFILE_PERIOD),
                    cheetah: CheetahConfig::scaled(PROFILE_PERIOD),
                    converge: ConvergeConfig::default(),
                    schedule_machines: Vec::new(),
                    native_cycles: 0,
                })
                .collect(),
            Workload::Converge => table2_matrix()
                .into_iter()
                .map(|cell| {
                    let harness = harness(cell.cores, SHARDS, cell.period);
                    Op {
                        app: cell.app,
                        config: AppConfig {
                            seed,
                            ..cell.app_config()
                        },
                        cheetah: harness.non_perturbing_config(),
                        harness,
                        converge: ConvergeConfig {
                            max_iterations: cell.max_iterations,
                            min_predicted_improvement: cell.min_predicted_improvement,
                        },
                        schedule_machines: Vec::new(),
                        native_cycles: 0,
                    }
                })
                .collect(),
            Workload::Explore => EXPLORE_APPS
                .iter()
                .map(|name| {
                    let harness = harness(EXPLORE_THREADS, SHARDS, EXPLORE_PERIOD);
                    let schedule_machines = schedules
                        .iter()
                        .map(|&policy| {
                            let config = harness.machine().config().clone();
                            (policy, Machine::new(config.with_schedule(policy)))
                        })
                        .collect();
                    Op {
                        app: find(name).expect("explore app is registered"),
                        config: app_config(EXPLORE_THREADS, EXPLORE_SCALE),
                        cheetah: harness.non_perturbing_config(),
                        harness,
                        converge: ConvergeConfig::default(),
                        schedule_machines,
                        native_cycles: 0,
                    }
                })
                .collect(),
        };
        for op in &mut ops {
            let instance = op.app.build(&op.config);
            op.native_cycles = op
                .harness
                .machine()
                .run(instance.program, &mut NullObserver)
                .total_cycles;
        }
        Suite {
            workload,
            seed,
            ops,
            schedules,
            degraded_faults: FaultPlan::drops(200).with_seed(seed),
            probe_faults: FaultPlan {
                drop_per_mille: 200,
                corrupt_per_mille: 50,
                corrupt_fields: CorruptFields::all(),
                ..FaultPlan::none()
            }
            .with_seed(seed),
        }
    }
}

/// What an operation returns, kept from the first pass for the accuracy
/// metrics and the traced pass's probes.
pub enum Output {
    /// The profile workload's profile.
    Profile(Profile),
    /// The converge workload's trace.
    Converge(ConvergenceTrace),
    /// The explore workload's observed-schedule profile.
    Explore(Profile),
}

impl Output {
    /// The profile the per-layer probes and the one-step repair reference
    /// start from (`None` for converge, whose profiles stay inside
    /// `converge`).
    pub fn profile(&self) -> Option<&Profile> {
        match self {
            Output::Profile(profile) | Output::Explore(profile) => Some(profile),
            Output::Converge(_) => None,
        }
    }
}

/// An operation's result: its time, its output, the hash of everything it
/// rendered (the determinism witness) and the first failed check.
pub struct Done {
    /// Seconds the operation took, without the checks and hashing after it.
    pub secs: f64,
    /// The output; `None` when the operation returned an error.
    pub output: Option<Output>,
    /// FNV-1a over the operation's rendered reports.
    pub hash: u64,
    /// Why a correctness check failed, if one did.
    pub failure: Option<String>,
}

fn build(obs: &ObsHandle, op: &Op) -> WorkloadInstance {
    let _span = obs.span("workloads.build", LANE_WORKLOADS);
    op.app.build(&op.config)
}

/// One profiled run plus `finish`, spanned per layer.
fn profile_on(obs: &ObsHandle, op: &Op, machine: &Machine, cheetah: CheetahConfig) -> Profile {
    let (program, space) = build(obs, op).into_parts();
    let mut profiler = CheetahProfiler::new(cheetah, &space);
    {
        let mut span = obs.span("sim.profiled_run", LANE_SIM);
        let report = machine.run(program, &mut profiler);
        span.attr_u64("accesses", report.total_accesses());
    }
    let mut span = obs.span("core.finish", LANE_CORE);
    let profile = profiler.finish();
    span.attr_u64("instances", profile.instances.len() as u64);
    profile
}

/// Runs one operation of `suite.workload` and checks its output.
pub fn run_op(obs: &ObsHandle, suite: &Suite, op: &Op) -> Done {
    let start = Instant::now();
    let mut span = obs.span("op", LANE_OP);
    span.attr_str("op", op.label());
    let end = |span: SpanGuard| {
        drop(span);
        start.elapsed().as_secs_f64()
    };
    let secs;
    let mut hash = Fnv64::new();
    let mut failure = None;
    let mut fail = |message: String| {
        failure.get_or_insert(message);
    };
    let output = match suite.workload {
        Workload::Profile => {
            let profile = profile_on(obs, op, op.harness.machine(), op.cheetah.clone());
            secs = end(span);
            hash.write_str(&profile.render_report());
            match op.app.expectation() {
                Expectation::SignificantFalseSharing if profile.false_sharing().is_empty() => {
                    fail("no false-sharing instance reported".into())
                }
                Expectation::NoFalseSharing
                    if !profile.significant_false_sharing(CLEAN_CEILING).is_empty() =>
                {
                    fail(format!(
                        "clean app reports false sharing ≥ {CLEAN_CEILING}x"
                    ))
                }
                _ => {}
            }
            if profile.total_samples == 0 {
                fail("no samples".into());
            }
            Output::Profile(profile)
        }
        Workload::Converge => {
            let builds = Cell::new(0u64);
            let trace = {
                let mut inner = obs.span("repair.converge", LANE_REPAIR);
                let trace = converge(
                    &op.harness,
                    op.app.name(),
                    || {
                        builds.set(builds.get() + 1);
                        build(obs, op)
                    },
                    &op.converge,
                );
                inner.attr_u64("profiles", builds.get());
                if let Ok(trace) = &trace {
                    inner.attr_u64("iterations", trace.iterations.len() as u64);
                }
                trace
            };
            secs = end(span);
            let trace = match trace {
                Ok(trace) => trace,
                Err(error) => {
                    return Done {
                        secs,
                        output: None,
                        hash: 0,
                        failure: Some(format!("converge failed: {error}")),
                    }
                }
            };
            hash.write_str(&trace.render());
            if !trace.converged || trace.residual_significant != 0 {
                fail(format!(
                    "did not converge ({} residual)",
                    trace.residual_significant
                ));
            }
            if trace.worst_error() > MAX_STEP_ERROR {
                fail(format!(
                    "step error {:.3} > {MAX_STEP_ERROR}",
                    trace.worst_error()
                ));
            }
            if trace.initial_cycles != op.native_cycles {
                fail(format!(
                    "initial cycles {} != unprofiled reference {}",
                    trace.initial_cycles, op.native_cycles
                ));
            }
            Output::Converge(trace)
        }
        Workload::Explore => {
            let line_size = op.harness.machine().config().cache_line_size;
            let summary = {
                let instance = build(obs, op);
                let _inner = obs.span("analyze.summarize", LANE_ANALYZE);
                summarize(&instance.program, line_size)
            };
            let mut runs: Vec<(SchedulePolicy, Profile)> = op
                .schedule_machines
                .iter()
                .map(|(policy, machine)| {
                    (*policy, profile_on(obs, op, machine, op.cheetah.clone()))
                })
                .collect();
            let min = op.converge.min_predicted_improvement;
            let union = {
                let _inner = obs.span("core.union", LANE_CORE);
                union_findings(&runs, min)
            };
            let mut violations = 0;
            for (_, profile) in &runs {
                let _inner = obs.span("analyze.soundness", LANE_ANALYZE);
                violations += soundness_violations(&summary, profile).len();
            }
            let observed_at = runs
                .iter()
                .position(|(policy, _)| policy.is_observed())
                .expect("the schedule set starts with the observed schedule");
            let peak = runs[observed_at].1.ingest.peak_detailed_lines;
            let capacity = peak.div_ceil(4).max(1) as usize;
            let degraded = profile_on(
                obs,
                op,
                op.harness.machine(),
                op.cheetah
                    .clone()
                    .with_faults(suite.degraded_faults.clone())
                    .with_line_capacity(capacity),
            );
            let builds = Cell::new(0u64);
            let worst = {
                let mut inner = obs.span("repair.worst_case", LANE_REPAIR);
                let worst = converge_worst_case(
                    &op.harness,
                    op.app.name(),
                    || {
                        builds.set(builds.get() + 1);
                        build(obs, op)
                    },
                    &op.converge,
                    &suite.schedules,
                );
                inner.attr_u64("profiles", builds.get());
                worst
            };
            secs = end(span);
            for (_, profile) in &runs {
                hash.write_str(&profile.render_report());
            }
            let observed = runs.swap_remove(observed_at).1;
            hash.write_str(&degraded.render_report());
            match &worst {
                Ok(worst) => {
                    hash.write_str(&worst.render());
                    if !worst.converged {
                        fail(format!(
                            "worst-case repair left {} residual",
                            worst.total_residual()
                        ));
                    }
                }
                Err(error) => fail(format!("worst-case repair failed: {error}")),
            }
            if violations > 0 {
                fail(format!("{violations} soundness violation(s)"));
            }
            if op.app.expectation() == Expectation::HiddenFalseSharing
                && hidden_findings(&union).is_empty()
            {
                fail("no schedule-hidden finding".into());
            }
            let top = observed
                .significant_false_sharing(min)
                .first()
                .map(|a| a.instance.key);
            let kept = degraded.significant_false_sharing(min);
            if top.is_some_and(|key| !kept.iter().any(|a| a.instance.key == key)) {
                fail("degraded profile lost the top finding".into());
            }
            if observed.total_cycles != op.native_cycles {
                fail(format!(
                    "observed cycles {} != unprofiled reference {}",
                    observed.total_cycles, op.native_cycles
                ));
            }
            Output::Explore(observed)
        }
    };
    Done {
        secs,
        output: Some(output),
        hash: hash.finish(),
        failure,
    }
}

/// The repair plans a profile's significant instances synthesize to,
/// best first.
fn ranked_plans(profile: &Profile, op: &Op) -> Vec<(RepairPlan, f64)> {
    let line_size = op.harness.machine().config().cache_line_size;
    let mut candidates: Vec<(RepairPlan, f64)> = profile
        .significant_false_sharing(op.converge.min_predicted_improvement)
        .iter()
        .filter_map(|a| synthesize(&a.instance, line_size).map(|plan| (plan, a.improvement())))
        .collect();
    rank(&mut candidates);
    candidates
}

/// Runs the traced pass's per-layer probes for one operation, after every
/// operation of the pass has run. Each probe times one public call on the
/// operation's own program and machine; the span attributes carry the
/// work it did.
pub fn probe(obs: &ObsHandle, suite: &Suite, op: &Op, output: &Output) -> Result<(), String> {
    let machine = op.harness.machine();
    {
        let program = build(obs, op).program;
        let mut span = obs.span("sim.native_run", LANE_SIM);
        let report = machine.run(program, &mut NullObserver);
        span.attr_u64("accesses", report.total_accesses());
    }
    {
        let shuffled = Machine::new(
            machine
                .config()
                .clone()
                .with_schedule(SchedulePolicy::SeededShuffle { seed: suite.seed }),
        );
        let program = build(obs, op).program;
        let mut span = obs.span("sim.perturbed_run", LANE_SIM);
        let report = shuffled.run(program, &mut NullObserver);
        span.attr_u64("accesses", report.total_accesses());
    }
    let sampler = op.cheetah.sampler.clone();
    let (program, space) = build(obs, op).into_parts();
    let mut samples: Vec<Sample> = Vec::new();
    {
        let mut span = obs.span("pmu.sampled_run", LANE_PMU);
        let mut pmu =
            SimPmu::new(sampler.clone(), |s| samples.push(s)).map_err(|e| e.to_string())?;
        machine.run(program, &mut pmu);
        span.attr_u64("samples", pmu.engine().total_samples());
    }
    let mut faulted: Vec<Sample> = Vec::new();
    {
        let program = build(obs, op).program;
        let mut span = obs.span("pmu.faulted_run", LANE_PMU);
        let mut pmu = SimPmu::with_faults(sampler, suite.probe_faults.clone(), |s| faulted.push(s))
            .map_err(|e| e.to_string())?;
        machine.run(program, &mut pmu);
        span.attr_u64("samples", pmu.engine().total_samples());
    }
    let peak = {
        let mut detector = Detector::new(op.cheetah.detector.clone());
        let mut span = obs.span("core.ingest", LANE_CORE);
        for sample in &samples {
            detector.ingest(&space, sample);
        }
        span.attr_u64("samples", samples.len() as u64);
        detector.ingest_stats().peak_detailed_lines
    };
    {
        let mut config = op.cheetah.detector.clone();
        config.line_capacity = Some(peak.div_ceil(4).max(1) as usize);
        let mut detector = Detector::new(config);
        let mut span = obs.span("core.ingest_bounded", LANE_CORE);
        for sample in &faulted {
            detector.ingest(&space, sample);
        }
        let stats = detector.ingest_stats();
        span.attr_u64("samples", faulted.len() as u64);
        span.attr_u64("evicted", stats.line_evictions);
        span.attr_u64("quarantined", stats.quarantined.total());
    }

    // Converge keeps its profiles inside `converge`: profile the cell once.
    let probed;
    let profile = match output.profile() {
        Some(profile) => profile,
        None => {
            probed = profile_on(obs, op, machine, op.cheetah.clone());
            &probed
        }
    };
    if suite.workload != Workload::Explore {
        let runs = [(SchedulePolicy::Observed, profile.clone())];
        let _span = obs.span("core.union", LANE_CORE);
        union_findings(&runs, op.converge.min_predicted_improvement);
    }
    let candidates = {
        let mut span = obs.span("repair.plan", LANE_REPAIR);
        let candidates = ranked_plans(profile, op);
        span.attr_u64("candidates", candidates.len() as u64);
        candidates
    };
    if let Some((plan, _)) = candidates.first() {
        let (program, mut space) = build(obs, op).into_parts();
        let mut span = obs.span("repair.apply", LANE_REPAIR);
        apply_iterations(program, std::slice::from_ref(plan), &mut space)
            .map_err(|e| e.to_string())?;
        span.attr_u64("plans", 1);
    }
    if suite.workload != Workload::Explore {
        let instance = build(obs, op);
        let line_size = machine.config().cache_line_size;
        let summary = {
            let _span = obs.span("analyze.summarize", LANE_ANALYZE);
            summarize(&instance.program, line_size)
        };
        let violations = {
            let _span = obs.span("analyze.soundness", LANE_ANALYZE);
            soundness_violations(&summary, profile)
        };
        if !violations.is_empty() {
            return Err(format!("{} soundness violation(s)", violations.len()));
        }
    }
    // The repair loops the workload does not run itself, cut to their
    // first profile.
    let first_profile_only = ConvergeConfig {
        max_iterations: 0,
        ..op.converge.clone()
    };
    let builds = Cell::new(0u64);
    let counted_build = || {
        builds.set(builds.get() + 1);
        build(obs, op)
    };
    if suite.workload != Workload::Converge {
        let mut span = obs.span("repair.converge", LANE_REPAIR);
        converge(
            &op.harness,
            op.app.name(),
            counted_build,
            &first_profile_only,
        )
        .map_err(|e| e.to_string())?;
        span.attr_u64("profiles", builds.replace(0));
        span.attr_u64("iterations", 0);
    }
    if suite.workload != Workload::Explore {
        let mut span = obs.span("repair.worst_case", LANE_REPAIR);
        converge_worst_case(
            &op.harness,
            op.app.name(),
            counted_build,
            &first_profile_only,
            &[SchedulePolicy::Observed],
        )
        .map_err(|e| e.to_string())?;
        span.attr_u64("profiles", builds.replace(0));
    }
    Ok(())
}

/// Relative error of a predicted improvement against the measured one.
fn relative_error(predicted: f64, measured: f64) -> f64 {
    (predicted / measured - 1.0).abs()
}

/// The accuracy metrics, from the first pass's outputs: simulated
/// profiling overhead and prediction error.
pub struct Accuracy {
    /// Mean of |profiled / unprofiled simulated cycles − 1|, in percent.
    /// The magnitude, because sampling traps can desynchronise contention
    /// and make a profiled run faster than the unprofiled one.
    pub sim_overhead_pct: f64,
    /// Median first-step relative prediction error.
    pub pred_err_p50: f64,
    /// Worst relative prediction error of any step.
    pub pred_err_max: f64,
}

/// Computes [`Accuracy`]. Converge reads its step errors from the traces.
/// Profile and explore have no repair step of their own, so each operation
/// whose profile has a repairable significant instance is checked the way
/// converge checks its first step: apply the top plan to a fresh build,
/// run it unprofiled, and compare the predicted with the measured speed-up.
pub fn accuracy(suite: &Suite, first_pass: &[Done]) -> Result<Accuracy, String> {
    let mut overheads = Vec::new();
    let mut first_errors = Vec::new();
    let mut worst_error: f64 = 0.0;
    for (op, done) in suite.ops.iter().zip(first_pass) {
        let output = done
            .output
            .as_ref()
            .ok_or_else(|| format!("{}: no output to check", op.label()))?;
        let machine = op.harness.machine();
        let profiled_cycles = match output {
            Output::Profile(profile) => profile.total_cycles,
            _ => {
                let (program, space) = op.app.build(&op.config).into_parts();
                // The perturbing library default at the operation's period.
                let perturbing = CheetahConfig::scaled(op.cheetah.sampler.period);
                let mut profiler = CheetahProfiler::new(perturbing, &space);
                machine.run(program, &mut profiler).total_cycles
            }
        };
        overheads.push((profiled_cycles as f64 / op.native_cycles as f64 - 1.0).abs());
        match output {
            Output::Converge(trace) => {
                if let Some(first) = trace.iterations.first() {
                    first_errors.push(first.relative_error());
                }
                worst_error = worst_error.max(trace.worst_error());
            }
            Output::Profile(profile) | Output::Explore(profile) => {
                let Some((plan, predicted)) = ranked_plans(profile, op).into_iter().next() else {
                    continue;
                };
                let (program, mut space) = op.app.build(&op.config).into_parts();
                let repaired = apply_iterations(program, &[plan], &mut space)
                    .map_err(|e| format!("{}: {e}", op.label()))?;
                let fixed = machine.run(repaired, &mut NullObserver).total_cycles;
                let error = relative_error(predicted, op.native_cycles as f64 / fixed as f64);
                first_errors.push(error);
                worst_error = worst_error.max(error);
            }
        }
    }
    let mean = overheads.iter().sum::<f64>() / overheads.len().max(1) as f64;
    Ok(Accuracy {
        sim_overhead_pct: 100.0 * mean,
        pred_err_p50: crate::stats::median(&first_errors)
            .ok_or("no operation made a repair step to check")?,
        pred_err_max: worst_error,
    })
}
