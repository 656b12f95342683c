//! Fixpoint repair: profile, fix the top-ranked instance, re-profile the
//! repaired program, repeat — judged over a set of schedules.
//!
//! This is the crate's one predicted-vs-measured path. A programmer using
//! a false-sharing tool fixes the worst instance, re-runs the profiler on
//! the patched binary, and keeps going until the report comes back clean
//! (the LASER / Predator workflow). [`converge_worst_case`] automates that
//! loop on the simulator over a set of schedules (see [`schedule_set`]):
//!
//! 1. profile the current build (original layout plus every fix applied so
//!    far) once per schedule with the Cheetah profiler;
//! 2. unite the *significant* false-sharing instances — predicted
//!    improvement at least [`ConvergeConfig::min_predicted_improvement`] —
//!    across the schedules ([`union_findings`]) and rank their synthesized
//!    plans ([`crate::plan::rank`]) by **worst-case payoff**: the highest
//!    improvement any schedule predicts for the instance;
//! 3. if none remain, the loop has converged; otherwise apply the
//!    top-ranked plan, measure the repaired runtime, record the iteration,
//!    and go back to 1 — unless [`ConvergeConfig::max_iterations`] is hit.
//!
//! The loop converges only when **no** explored schedule reports a
//! significant instance — schedule-hidden ones (the `staggered_writers`
//! registry app) included. [`converge`] is the loop over the machine's own
//! schedule alone; its first iteration is the paper's Table 2 experiment:
//! fix the top reported instance, re-run, and compare the predicted with
//! the measured improvement.
//!
//! The returned [`ConvergenceTrace`] carries one [`IterationRecord`] per
//! applied fix: which instance was fixed and under which schedule it bit
//! hardest, the predicted vs. measured improvement of that single step
//! (both under that worst schedule), and how many significant instances
//! remained afterwards. Traces are bit-identical across runs of a
//! deterministic workload builder — a property the test suite asserts.
//!
//! On a sharded machine each schedule's first profile also captures a
//! [`Checkpoint`] after the leading phases no parallel phase writes into
//! (an input-reading serial phase, typically). Each later profile under
//! that schedule whose fixes all leave the prefix in place resumes from
//! the schedule's checkpoint instead of re-simulating it; the profile is
//! bit-identical either way (see [`cheetah_sim::checkpoint`]).

use crate::plan::{rank, synthesize, RepairPlan, RepairStrategy};
use crate::rewrite::{apply, RepairError};
use cheetah_core::{union_findings, CheetahConfig, CheetahProfiler, Profile};
use cheetah_sim::{Checkpoint, Cycles, Machine, SchedulePolicy};
use cheetah_workloads::WorkloadInstance;
use std::fmt;

/// Lane (Chrome-trace `tid`) used by the fixpoint loop's iteration spans,
/// distinct from the execution engine's
/// [`cheetah_sim::OBS_LANE_ENGINE`].
pub const OBS_LANE_CONVERGE: u32 = 3;

/// The machine and profiler configuration the fixpoint loop profiles and
/// measures with, reused across workloads.
#[derive(Debug, Clone)]
pub struct ValidationHarness {
    machine: Machine,
    config: CheetahConfig,
}

impl ValidationHarness {
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
}

/// Bounds and thresholds of the fixpoint loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergeConfig {
    /// Hard cap on applied fixes; the loop stops unconverged beyond it.
    pub max_iterations: u32,
    /// An instance is *significant* — worth an iteration — only if its
    /// predicted improvement reaches this factor. `1.0` fixes everything
    /// the detector reports; the default skips noise-level instances.
    pub min_predicted_improvement: f64,
}

impl Default for ConvergeConfig {
    fn default() -> Self {
        ConvergeConfig {
            max_iterations: 8,
            min_predicted_improvement: 1.005,
        }
    }
}

impl ConvergeConfig {
    /// A config that repairs every reported false-sharing instance,
    /// however small its predicted payoff (used for workloads — like
    /// inter-object sharing — whose per-instance predictions are
    /// structurally conservative).
    pub fn exhaustive(max_iterations: u32) -> Self {
        ConvergeConfig {
            max_iterations,
            min_predicted_improvement: 0.0,
        }
    }
}

/// The standard exploration set: the observed schedule plus, per seed,
/// one uniformly shuffled and one contention-maximizing perturbation.
pub fn schedule_set(seeds: &[u64]) -> Vec<SchedulePolicy> {
    std::iter::once(SchedulePolicy::Observed)
        .chain(seeds.iter().flat_map(|&seed| {
            [
                SchedulePolicy::SeededShuffle { seed },
                SchedulePolicy::ContentionMax { seed },
            ]
        }))
        .collect()
}

/// One applied fix of the loop.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: u32,
    /// Label of the fixed instance (callsite / symbol).
    pub label: String,
    /// Strategy of the applied plan.
    pub strategy: RepairStrategy,
    /// Largest number of co-resident objects on the fixed instance's lines
    /// at fix time (2+ marks a cross-object repair, whose `predicted`
    /// value is the joint line payoff under the default line-level
    /// assessment).
    pub co_residents: usize,
    /// The schedule under which the instance's payoff peaked — the
    /// evidence the plan was synthesized from.
    pub worst_schedule: SchedulePolicy,
    /// Whether the observed schedule missed the instance entirely — the
    /// predictive case a single-run profiler cannot deliver.
    pub hidden: bool,
    /// Schedules that reported the instance as significant in the
    /// profiles that chose this fix.
    pub sightings: usize,
    /// Cheetah's predicted improvement for fixing this instance — the
    /// worst case over the schedules — taken from the profiles of the
    /// build this iteration started from.
    pub predicted: f64,
    /// Measured improvement of this single step: runtime before this fix
    /// over runtime after it, both under `worst_schedule` — the schedule
    /// `predicted` comes from.
    pub measured: f64,
    /// Unprofiled runtime entering the iteration, under `worst_schedule`.
    pub cycles_before: Cycles,
    /// Unprofiled runtime after applying the fix, under `worst_schedule`.
    pub cycles_after: Cycles,
    /// Significant instances (united over the schedules) seen by the
    /// profiles that chose this fix.
    pub significant_before: usize,
    /// Significant instances remaining in the *next* profiles (0 on the
    /// iteration that converged the loop).
    pub significant_after: usize,
}

impl IterationRecord {
    /// Relative prediction error `|predicted/measured - 1|` of this step.
    pub fn relative_error(&self) -> f64 {
        if self.measured == 0.0 {
            return 0.0;
        }
        (self.predicted / self.measured - 1.0).abs()
    }
}

/// The complete per-iteration trace of one [`converge_worst_case`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTrace {
    /// Workload name.
    pub workload: String,
    /// The explored schedule set, in exploration order; the trace's
    /// initial and final runtimes are measured under the first.
    pub schedules: Vec<SchedulePolicy>,
    /// Unprofiled runtime of the unrepaired build.
    pub initial_cycles: Cycles,
    /// Samples the initial profile collected (diagnostic).
    pub initial_samples: u64,
    /// Significant findings (united over the schedules) in the initial
    /// profiles.
    pub initial_findings: usize,
    /// Schedule-hidden findings in the initial profiles: significant under
    /// some perturbed schedule, invisible to the observed one.
    pub initial_hidden: usize,
    /// Unprofiled runtime after every applied fix.
    pub final_cycles: Cycles,
    /// Applied fixes, in order.
    pub iterations: Vec<IterationRecord>,
    /// Significant instances (united over the schedules) still present
    /// when the loop stopped.
    pub residual_significant: usize,
    /// Significant instances each schedule still reports when the loop
    /// stopped, in `schedules` order.
    pub residual_per_schedule: Vec<usize>,
    /// Whether the loop stopped because no schedule reported a significant
    /// instance (as opposed to hitting `max_iterations`).
    pub converged: bool,
}

impl ConvergenceTrace {
    /// Total measured improvement across all applied fixes, under the
    /// first explored schedule (where `initial_cycles` and `final_cycles`
    /// are measured).
    pub fn total_improvement(&self) -> f64 {
        if self.final_cycles == 0 {
            return 1.0;
        }
        self.initial_cycles as f64 / self.final_cycles as f64
    }

    /// Worst single-step relative prediction error (0 with no iterations).
    pub fn worst_error(&self) -> f64 {
        self.iterations
            .iter()
            .map(|i| i.relative_error())
            .fold(0.0, f64::max)
    }

    /// Total significant residue across the schedule set.
    pub fn total_residual(&self) -> usize {
        self.residual_per_schedule.iter().sum()
    }

    /// Renders the trace as a small table; the schedule columns appear
    /// only when more than one schedule was explored, and then the total
    /// names the schedule it was measured under (each step's own
    /// measurement is under its worst schedule).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let explored = self.schedules.len() > 1;
        let mut out = String::new();
        let _ = write!(out, "{}: ", self.workload);
        if explored {
            let _ = write!(
                out,
                "{} schedule(s), {} finding(s) initially ({} hidden), ",
                self.schedules.len(),
                self.initial_findings,
                self.initial_hidden
            );
        }
        let _ = writeln!(
            out,
            "{} iteration(s), {:.2}x total{}, {} residual ({})",
            self.iterations.len(),
            self.total_improvement(),
            match self.schedules.first() {
                Some(first) if explored => format!(" under {first}"),
                _ => String::new(),
            },
            self.residual_significant,
            match (self.converged, explored) {
                (true, true) => "converged on every schedule",
                (true, false) => "converged",
                (false, _) => "bound hit",
            }
        );
        for it in &self.iterations {
            let _ = write!(
                out,
                "  #{} {} [{}{}] predicted {:.2}x measured {:.2}x ({} -> {} cycles, {} left)",
                it.iteration,
                it.label,
                it.strategy,
                if it.co_residents > 1 {
                    format!(", {} co-resident", it.co_residents)
                } else {
                    String::new()
                },
                it.predicted,
                it.measured,
                it.cycles_before,
                it.cycles_after,
                it.significant_after
            );
            if explored {
                let _ = write!(
                    out,
                    ", worst case under {}{} ({} of {} schedules)",
                    it.worst_schedule,
                    if it.hidden {
                        ", hidden from observed"
                    } else {
                        ""
                    },
                    it.sightings,
                    self.schedules.len()
                );
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for ConvergenceTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Runs the fixpoint repair loop for one workload on the harness machine's
/// own schedule: [`converge_worst_case`] over that one schedule.
///
/// `build` must produce identically laid-out instances on every call (true
/// for all registry workloads under a fixed
/// [`cheetah_workloads::AppConfig`]); the loop calls it once per profile.
///
/// ```
/// use cheetah_core::CheetahConfig;
/// use cheetah_repair::{converge, ConvergeConfig, ValidationHarness};
/// use cheetah_sim::{Machine, MachineConfig};
/// use cheetah_workloads::{find, AppConfig};
///
/// let app = find("microbench").unwrap();
/// let config = AppConfig::with_threads(4).scaled(0.03);
/// // `with_shards(4)`: sharded deterministic execution — the trace is
/// // bit-identical to a `shards = 1` run, only faster.
/// let harness = ValidationHarness::calibrated(
///     Machine::new(MachineConfig::with_cores(8).with_shards(4)),
///     CheetahConfig::scaled(256),
/// );
/// let trace = converge(
///     &harness,
///     "microbench",
///     || app.build(&config),
///     &ConvergeConfig::default(),
/// )?;
/// assert!(trace.converged);
/// assert!(trace.total_improvement() > 1.5, "padding the array pays off");
/// # Ok::<(), cheetah_repair::RepairError>(())
/// ```
///
/// # Errors
///
/// [`RepairError`] if a synthesized plan cannot be applied.
pub fn converge<F>(
    harness: &ValidationHarness,
    workload: &str,
    build: F,
    config: &ConvergeConfig,
) -> Result<ConvergenceTrace, RepairError>
where
    F: Fn() -> WorkloadInstance,
{
    let schedule = harness.machine().config().schedule;
    converge_worst_case(harness, workload, build, config, &[schedule])
}

/// Runs the fixpoint repair loop for one workload over a schedule set (see
/// [`schedule_set`] and the [module docs](self)).
///
/// `build` must produce identically laid-out instances on every call; the
/// loop calls it once per profile, and profiles each build once per
/// schedule.
///
/// # Errors
///
/// [`RepairError`] if a synthesized plan cannot be applied.
pub fn converge_worst_case<F>(
    harness: &ValidationHarness,
    workload: &str,
    build: F,
    config: &ConvergeConfig,
    schedules: &[SchedulePolicy],
) -> Result<ConvergenceTrace, RepairError>
where
    F: Fn() -> WorkloadInstance,
{
    assert!(!schedules.is_empty(), "explore at least one schedule");
    let base = harness.machine().config();
    let line_size = base.cache_line_size;
    let min = config.min_predicted_improvement;
    // Iteration spans land in the same registry the simulator's phase and
    // merge spans report into, so one `--trace` export shows the whole
    // profile -> fix -> re-profile cadence on its own lane.
    let obs = base.obs.clone();
    if obs.tracing_enabled() {
        obs.name_lane(OBS_LANE_CONVERGE, "converge");
    }

    // Profiling runs are perturbation-free (see
    // [`ValidationHarness::non_perturbing_config`]), so one run per
    // iteration serves as both the profile the next fix is chosen from and
    // the runtime measurement of the previous fix — predicted and measured
    // improvements share one baseline.
    let cheetah = harness.non_perturbing_config();

    // One machine per schedule, sharing the harness's configuration (and
    // observability registry) in everything but the policy, with the
    // checkpoint its first profile captures.
    let mut machines: Vec<(Machine, Option<Checkpoint>)> = schedules
        .iter()
        .map(|&policy| (Machine::new(base.clone().with_schedule(policy)), None))
        .collect();
    // Profiles the build with `plans` applied under every schedule; also
    // returns the phases the resumed runs skipped.
    let mut explore = |plans: &[RepairPlan]| {
        let mut runs = Vec::with_capacity(schedules.len());
        let mut resumed_phases = 0;
        for (&policy, (machine, checkpoint)) in schedules.iter().zip(&mut machines) {
            let mut span = obs.span("explore.schedule", OBS_LANE_CONVERGE);
            span.attr_str("schedule", policy.to_string());
            let (profile, resumed) = reprofile(machine, &cheetah, &build, plans, checkpoint)?;
            span.attr_u64("resumed_phases", u64::from(resumed));
            span.attr_u64(
                "significant",
                profile.significant_false_sharing(min).len() as u64,
            );
            span.finish();
            resumed_phases += resumed;
            runs.push((policy, profile));
        }
        Ok::<_, RepairError>((runs, resumed_phases))
    };

    let mut plans: Vec<RepairPlan> = Vec::new();
    let (mut runs, _) = explore(&plans)?;
    let (initial_cycles, initial_samples) = (runs[0].1.total_cycles, runs[0].1.total_samples);
    let mut findings = union_findings(&runs, min);
    let initial_findings = findings.len();
    let initial_hidden = findings.iter().filter(|f| f.is_hidden()).count();
    let mut iterations: Vec<IterationRecord> = Vec::new();
    let converged = loop {
        // Synthesized plans, ranked best-first by worst-case payoff.
        let mut candidates: Vec<(RepairPlan, f64)> = findings
            .iter()
            .filter_map(|finding| {
                synthesize(&finding.worst_instance, line_size)
                    .map(|plan| (plan, finding.worst_improvement()))
            })
            .collect();
        rank(&mut candidates);

        if candidates.is_empty() {
            // Converged if nothing significant remains; significant
            // instances no plan can fix (pure word evidence missing) also
            // end the loop, but count as residue.
            break findings.is_empty();
        }
        if iterations.len() as u32 >= config.max_iterations {
            break false;
        }

        let (plan, predicted) = candidates.swap_remove(0);
        let chosen = findings
            .iter()
            .find(|f| f.key == plan.key)
            .expect("the plan came from a finding");
        // Prediction and measurement come from the same schedule.
        let worst_schedule = chosen.worst_schedule();
        let worst = schedules
            .iter()
            .position(|&policy| policy == worst_schedule)
            .expect("the worst schedule is an explored one");
        let cycles_before = runs[worst].1.total_cycles;
        let mut record = IterationRecord {
            iteration: iterations.len() as u32 + 1,
            label: plan.label.clone(),
            strategy: plan.strategy,
            co_residents: plan.co_residents,
            worst_schedule,
            hidden: chosen.is_hidden(),
            sightings: chosen.sightings.len(),
            predicted,
            measured: 1.0,
            cycles_before,
            cycles_after: cycles_before,
            significant_before: findings.len(),
            significant_after: 0,
        };
        plans.push(plan);
        let mut span = obs.span("converge.iteration", OBS_LANE_CONVERGE);
        span.attr_u64("iteration", u64::from(record.iteration));
        span.attr_str("label", record.label.clone());
        span.attr_f64("predicted", predicted);
        let (next, resumed_phases) = explore(&plans)?;
        runs = next;
        span.attr_u64("resumed_phases", u64::from(resumed_phases));
        record.cycles_after = runs[worst].1.total_cycles;
        if record.cycles_after != 0 {
            record.measured = cycles_before as f64 / record.cycles_after as f64;
        }
        span.attr_f64("measured", record.measured);
        span.attr_u64("cycles_before", cycles_before);
        span.attr_u64("cycles_after", record.cycles_after);
        span.finish();
        findings = union_findings(&runs, min);
        record.significant_after = findings.len();
        iterations.push(record);
    };

    Ok(ConvergenceTrace {
        workload: workload.to_string(),
        schedules: schedules.to_vec(),
        initial_cycles,
        initial_samples,
        initial_findings,
        initial_hidden,
        final_cycles: runs[0].1.total_cycles,
        iterations,
        residual_significant: findings.len(),
        residual_per_schedule: runs
            .iter()
            .map(|(_, profile)| profile.significant_false_sharing(min).len())
            .collect(),
        converged,
    })
}

/// Profiles the build with `plans` applied on `machine`. The first profile
/// (no plans, no checkpoint yet) captures `checkpoint`; a later one resumes
/// from it when every plan's layout map leaves the checkpoint's prefix in
/// place; otherwise, or when the resume is refused, it runs from phase 0
/// with a fresh profiler. Returns the profile and the phases skipped.
fn reprofile<F>(
    machine: &Machine,
    cheetah: &CheetahConfig,
    build: &F,
    plans: &[RepairPlan],
    checkpoint: &mut Option<Checkpoint>,
) -> Result<(Profile, u32), RepairError>
where
    F: Fn() -> WorkloadInstance,
{
    let (mut program, mut space) = build().into_parts();
    let mut admitted = checkpoint.as_ref();
    for plan in plans {
        let map = apply(plan, &mut space)?;
        admitted = admitted.filter(|checkpoint| checkpoint.admits(&map));
        program = program.with_layout(map.shared());
    }
    let mut profiler = CheetahProfiler::new(cheetah.clone(), &space);
    match admitted {
        Some(checkpoint) => match machine.resume(checkpoint, program, &mut profiler) {
            Ok(_) => Ok((profiler.finish(), checkpoint.phases())),
            // The profiler may have seen part of the refused replay.
            Err(_) => reprofile(machine, cheetah, build, plans, &mut None),
        },
        None if plans.is_empty() => {
            let (_, captured) = machine.run_capturing(program, &mut profiler);
            *checkpoint = captured;
            Ok((profiler.finish(), 0))
        }
        None => {
            machine.run(program, &mut profiler);
            Ok((profiler.finish(), 0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_sim::MachineConfig;
    use cheetah_workloads::{find, AppConfig};

    fn harness(cores: u32, period: u64) -> ValidationHarness {
        ValidationHarness::calibrated(
            Machine::new(MachineConfig::with_cores(cores)),
            CheetahConfig::scaled(period),
        )
    }

    #[test]
    fn microbench_converges_in_one_iteration() {
        let app = find("microbench").unwrap();
        let config = AppConfig {
            threads: 8,
            scale: 0.05,
            fixed: false,
            seed: 1,
        };
        let trace = converge(
            &harness(8, 256),
            "microbench",
            || app.build(&config),
            &ConvergeConfig::default(),
        )
        .unwrap();
        assert!(trace.converged, "{trace}");
        assert_eq!(trace.iterations.len(), 1, "{trace}");
        assert_eq!(trace.residual_significant, 0);
        assert_eq!(trace.iterations[0].significant_after, 0);
        assert!(trace.total_improvement() > 2.0, "{trace}");
        assert!(trace.worst_error() < 0.20, "{trace}");
        assert!(trace.render().contains("converged"));
        assert!(trace.render().contains("x total,"), "{trace}");
    }

    #[test]
    fn clean_app_converges_immediately() {
        let app = find("blackscholes").unwrap();
        let config = AppConfig {
            threads: 8,
            scale: 0.1,
            fixed: false,
            seed: 1,
        };
        let trace = converge(
            &harness(48, 512),
            "blackscholes",
            || app.build(&config),
            &ConvergeConfig::default(),
        )
        .unwrap();
        assert!(trace.converged);
        assert!(trace.iterations.is_empty());
        assert_eq!(trace.initial_cycles, trace.final_cycles);
        assert!((trace.total_improvement() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn refused_resume_reprofiles_from_phase_zero() {
        let app = find("streamcluster").unwrap();
        let config = AppConfig::with_threads(4).scaled(0.1);
        let build = || app.build(&config);
        let machine = Machine::new(MachineConfig::with_cores(16).with_shards(2));
        let perturbing = CheetahConfig::scaled(32);
        let mut quiet = perturbing.clone();
        quiet.sampler.trap_cost = 0;
        quiet.sampler.setup_cost = 0;
        // A first profile captures a checkpoint after the input phase.
        let mut own = None;
        let (fresh, skipped) = reprofile(&machine, &quiet, &build, &[], &mut own).unwrap();
        assert_eq!(skipped, 0);
        let mut foreign = None;
        reprofile(&machine, &perturbing, &build, &[], &mut foreign).unwrap();
        assert!(
            own.is_some() && foreign.is_some(),
            "the input phase is a prefix"
        );

        // A profiler charging setup costs answers the replayed main-thread
        // start differently: the resume is refused and the profile starts
        // over with a fresh profiler.
        let (fallback, skipped) = reprofile(&machine, &quiet, &build, &[], &mut foreign).unwrap();
        // An identically configured profiler resumes after the input phase.
        let (resumed, resumed_phases) = reprofile(&machine, &quiet, &build, &[], &mut own).unwrap();
        assert_eq!((skipped, resumed_phases), (0, 1));
        for profile in [&fallback, &resumed] {
            assert_eq!(profile.total_cycles, fresh.total_cycles);
            assert_eq!(profile.total_samples, fresh.total_samples);
            assert_eq!(profile.phases, fresh.phases);
            assert_eq!(profile.threads, fresh.threads);
            assert_eq!(profile.render_report(), fresh.render_report());
        }
    }

    #[test]
    fn max_iterations_bounds_the_loop() {
        let app = find("linear_regression").unwrap();
        let config = AppConfig {
            threads: 8,
            scale: 0.25,
            fixed: false,
            seed: 1,
        };
        // Zero iterations allowed: the loop must stop unconverged with the
        // instance still outstanding.
        let trace = converge(
            &harness(48, 128),
            "linear_regression",
            || app.build(&config),
            &ConvergeConfig {
                max_iterations: 0,
                min_predicted_improvement: 1.005,
            },
        )
        .unwrap();
        assert!(!trace.converged);
        assert!(trace.iterations.is_empty());
        assert!(trace.residual_significant >= 1);
    }
}
