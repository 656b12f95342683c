//! Configuration of the detection and reporting pipeline.

use crate::assess::AssessModel;
use crate::detect::prefilter::LinePrefilter;
use cheetah_pmu::{FaultPlan, SamplerConfig};
use cheetah_sim::Cycles;
use std::error::Error;
use std::fmt;

/// Errors from validating a [`DetectorConfig`].
///
/// Returned by [`DetectorConfig::try_validate`] so that sweep harnesses
/// iterating over many detector configurations can skip a bad cell
/// gracefully; [`DetectorConfig::validate`] panics with the same message
/// for callers that treat a bad config as a programming error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorConfigError {
    /// `line_size` is not a power of two.
    LineSizeNotPowerOfTwo,
    /// `true_share_fraction` is outside `[0, 1]`.
    FractionOutOfRange,
    /// `default_serial_latency` is not positive.
    NonPositiveSerialLatency,
    /// `cycles_per_instruction` is negative.
    NegativeCyclesPerInstruction,
    /// `coherence_miss_latency` is negative.
    NegativeCoherenceLatency,
    /// A table capacity bound is zero — a detector that can track nothing
    /// is a misconfiguration, not a degraded mode.
    ZeroCapacity,
}

impl fmt::Display for DetectorConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorConfigError::LineSizeNotPowerOfTwo => {
                f.write_str("line size must be a power of two")
            }
            DetectorConfigError::FractionOutOfRange => {
                f.write_str("true_share_fraction must be in [0, 1]")
            }
            DetectorConfigError::NonPositiveSerialLatency => {
                f.write_str("default serial latency must be positive")
            }
            DetectorConfigError::NegativeCyclesPerInstruction => {
                f.write_str("cycles per instruction must be non-negative")
            }
            DetectorConfigError::NegativeCoherenceLatency => {
                f.write_str("coherence miss latency must be non-negative")
            }
            DetectorConfigError::ZeroCapacity => {
                f.write_str("table capacity bounds must be nonzero")
            }
        }
    }
}

impl Error for DetectorConfigError {}

/// Why [`crate::CheetahProfiler::try_new`] rejected a [`CheetahConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfilerConfigError {
    /// The sampler configuration is invalid (zero period).
    Sampler(cheetah_pmu::ConfigError),
    /// The detector configuration is invalid.
    Detector(DetectorConfigError),
    /// The fault plan is invalid.
    Faults(cheetah_pmu::ConfigError),
}

impl fmt::Display for ProfilerConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfilerConfigError::Sampler(error) => write!(f, "invalid sampler config: {error}"),
            ProfilerConfigError::Detector(error) => write!(f, "invalid detector config: {error}"),
            ProfilerConfigError::Faults(error) => write!(f, "invalid fault plan: {error}"),
        }
    }
}

impl Error for ProfilerConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProfilerConfigError::Sampler(error) | ProfilerConfigError::Faults(error) => Some(error),
            ProfilerConfigError::Detector(error) => Some(error),
        }
    }
}

/// Plausibility bounds on incoming sample fields.
///
/// A real PMU ring buffer can hand the detector torn or garbage records
/// (the fault injector reproduces this deliberately). Samples exceeding
/// these limits are *quarantined* — counted and dropped before they touch
/// any detector table — instead of allocating unbounded per-thread or
/// per-phase state or skewing latency totals. The defaults are far above
/// anything a genuine workload produces, so clean streams never trip them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestLimits {
    /// Maximum plausible sampled latency in cycles. A single access taking
    /// longer than this (~12 minutes at 1.5 GHz by default) is corruption,
    /// not a slow miss.
    pub max_latency: Cycles,
    /// Maximum plausible thread id.
    pub max_thread: u32,
    /// Maximum plausible phase index.
    pub max_phase: u32,
}

impl Default for IngestLimits {
    fn default() -> Self {
        IngestLimits {
            max_latency: 1 << 40,
            max_thread: 1 << 20,
            max_phase: 1 << 20,
        }
    }
}

/// Tunables of the [`crate::Detector`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Cache line size in bytes (power of two). Must match the machine the
    /// samples come from.
    pub line_size: u64,
    /// Detailed tracking starts once a line has seen *more than* this many
    /// sampled writes (§2.3: "more than two writes").
    pub write_threshold: u32,
    /// Minimum sampled invalidations for an object to appear in reports.
    pub min_invalidations: u64,
    /// An object whose truly-shared-word accesses exceed this fraction of
    /// its total accesses is classified as true sharing.
    pub true_share_fraction: f64,
    /// Fallback for `AverCycles_serial` when no serial-phase samples were
    /// collected ("a default value learned from experience", §3.1).
    pub default_serial_latency: f64,
    /// Cycles a retired non-memory instruction costs on the profiled
    /// machine. The assessment splits each thread's runtime into compute
    /// (instructions × this) and memory-stall time, and predicts only the
    /// latter to shrink after a fix; like the serial-latency fallback it is
    /// a machine constant known ahead of profiling.
    pub cycles_per_instruction: f64,
    /// Cost of one cache-to-cache coherence transfer on the profiled
    /// machine — the third machine constant the assessment uses. The
    /// line-level model treats a contended access's sampled latency as one
    /// transfer plus the queueing wait behind the line's other sharers;
    /// when an eviction shrinks a line's sharer count without freeing it,
    /// only the wait component above this baseline scales down.
    pub coherence_miss_latency: f64,
    /// Statically-private lines the detector skips entirely (parallel-phase
    /// samples only; serial samples still feed the latency baseline).
    /// Computed ahead of execution by `cheetah-analyze`; empty by default,
    /// which preserves the unfiltered behaviour. See
    /// [`LinePrefilter`] for the safety contract.
    pub prefilter: LinePrefilter,
    /// Maximum number of cache lines under detailed tracking at once.
    /// `None` (the default) is unbounded — the paper's configuration, which
    /// every baseline pins bit-identically. With a bound, admitting a line
    /// beyond capacity evicts the coldest tracked line into a count-min
    /// sketch (see [`crate::detect::sketch`]) so it can re-promote later.
    pub line_capacity: Option<usize>,
    /// Maximum number of objects in the attribution table. `None` (the
    /// default) is unbounded; with a bound, admitting an object beyond
    /// capacity evicts the resident with the least accumulated latency.
    pub object_capacity: Option<usize>,
    /// Plausibility bounds quarantining malformed samples before they touch
    /// detector state.
    pub limits: IngestLimits,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            line_size: 64,
            write_threshold: 2,
            min_invalidations: 10,
            true_share_fraction: 0.05,
            default_serial_latency: 12.0,
            cycles_per_instruction: 1.0,
            coherence_miss_latency: 150.0,
            prefilter: LinePrefilter::none(),
            line_capacity: None,
            object_capacity: None,
            limits: IngestLimits::default(),
        }
    }
}

impl DetectorConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`DetectorConfig::try_validate`] fails — e.g. `line_size`
    /// is not a power of two or the fraction is outside `[0, 1]`.
    pub fn validate(&self) {
        if let Err(error) = self.try_validate() {
            panic!("{error}");
        }
    }

    /// Validates the configuration without panicking.
    ///
    /// # Errors
    ///
    /// The first [`DetectorConfigError`] found, checked in declaration
    /// order.
    pub fn try_validate(&self) -> Result<(), DetectorConfigError> {
        if !self.line_size.is_power_of_two() {
            return Err(DetectorConfigError::LineSizeNotPowerOfTwo);
        }
        if !(0.0..=1.0).contains(&self.true_share_fraction) {
            return Err(DetectorConfigError::FractionOutOfRange);
        }
        if self.default_serial_latency <= 0.0 {
            return Err(DetectorConfigError::NonPositiveSerialLatency);
        }
        if self.cycles_per_instruction < 0.0 {
            return Err(DetectorConfigError::NegativeCyclesPerInstruction);
        }
        if self.coherence_miss_latency < 0.0 {
            return Err(DetectorConfigError::NegativeCoherenceLatency);
        }
        if self.line_capacity == Some(0) || self.object_capacity == Some(0) {
            return Err(DetectorConfigError::ZeroCapacity);
        }
        Ok(())
    }
}

/// Configuration of the complete Cheetah profiler.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheetahConfig {
    /// PMU sampling configuration.
    pub sampler: SamplerConfig,
    /// Detection configuration.
    pub detector: DetectorConfig,
    /// Credit model for fix-impact assessment. Defaults to
    /// [`AssessModel::LineLevel`] (joint credit for co-resident objects);
    /// [`AssessModel::PerObject`] selects the paper's §3.2 reference
    /// model.
    pub assess_model: AssessModel,
    /// Telemetry registry the profiler publishes its final counts into
    /// when the run ends: sampler deliveries, detector ingest counters,
    /// table-size gauges and fault tallies. Defaults to a private,
    /// untraced registry; transparent to config equality.
    pub obs: cheetah_obs::ObsHandle,
    /// Deterministic sample-stream fault plan for robustness testing: when
    /// set, every sample passes through a seeded
    /// [`cheetah_pmu::FaultInjector`] (drops, bursts, reordering,
    /// duplication, corruption, truncation) before reaching the detector.
    /// `None` (the default) delivers the stream untouched.
    pub faults: Option<FaultPlan>,
}

impl CheetahConfig {
    /// The paper's deployment defaults (64K sampling period, 64-byte
    /// lines, write threshold 2).
    pub fn paper_default() -> Self {
        CheetahConfig::default()
    }

    /// Same defaults with a custom sampling period — used by scaled-down
    /// experiments that need denser samples.
    pub fn with_period(period: u64) -> Self {
        CheetahConfig {
            sampler: SamplerConfig::with_period(period),
            ..CheetahConfig::default()
        }
    }

    /// Configuration for scaled-down experiments: sampling period and
    /// perturbation costs shrink together, preserving the paper's
    /// samples-per-run and overhead fraction (see
    /// [`SamplerConfig::scaled_to_period`]).
    pub fn scaled(period: u64) -> Self {
        CheetahConfig {
            sampler: SamplerConfig::scaled_to_period(period),
            ..CheetahConfig::default()
        }
    }

    /// Same configuration with the given assessment credit model.
    pub fn with_assess_model(mut self, model: AssessModel) -> Self {
        self.assess_model = model;
        self
    }

    /// Same configuration reporting telemetry into `obs`.
    pub fn with_obs(mut self, obs: cheetah_obs::ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Same configuration with a static line pre-filter installed (from
    /// `cheetah-analyze`'s statically-private verdicts).
    pub fn with_prefilter(mut self, prefilter: LinePrefilter) -> Self {
        self.detector.prefilter = prefilter;
        self
    }

    /// Same configuration with a seeded sample-stream fault plan installed.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Same configuration with the detailed-line table bounded to
    /// `capacity` entries (cold lines evict into the count-min sketch).
    pub fn with_line_capacity(mut self, capacity: usize) -> Self {
        self.detector.line_capacity = Some(capacity);
        self
    }

    /// Same configuration with the object table bounded to `capacity`
    /// entries.
    pub fn with_object_capacity(mut self, capacity: usize) -> Self {
        self.detector.object_capacity = Some(capacity);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let config = CheetahConfig::paper_default();
        assert_eq!(config.sampler.period, 64 * 1024);
        assert_eq!(config.detector.line_size, 64);
        assert_eq!(config.detector.write_threshold, 2);
        config.detector.validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        DetectorConfig {
            line_size: 60,
            ..DetectorConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "true_share_fraction")]
    fn bad_fraction_rejected() {
        DetectorConfig {
            true_share_fraction: 1.5,
            ..DetectorConfig::default()
        }
        .validate();
    }

    #[test]
    fn try_validate_reports_without_panicking() {
        let bad = DetectorConfig {
            line_size: 60,
            ..DetectorConfig::default()
        };
        assert_eq!(
            bad.try_validate().unwrap_err(),
            DetectorConfigError::LineSizeNotPowerOfTwo
        );
        DetectorConfig::default().try_validate().unwrap();
    }

    #[test]
    fn zero_capacity_bounds_rejected() {
        let bad = DetectorConfig {
            line_capacity: Some(0),
            ..DetectorConfig::default()
        };
        assert_eq!(
            bad.try_validate().unwrap_err(),
            DetectorConfigError::ZeroCapacity
        );
        DetectorConfig {
            line_capacity: Some(1),
            object_capacity: Some(1),
            ..DetectorConfig::default()
        }
        .try_validate()
        .unwrap();
    }

    #[test]
    fn defaults_leave_robustness_machinery_off() {
        let config = CheetahConfig::default();
        assert!(config.faults.is_none());
        assert!(config.detector.line_capacity.is_none());
        assert!(config.detector.object_capacity.is_none());
        // Limits are far above anything a clean workload produces.
        assert!(config.detector.limits.max_thread >= 1 << 20);
    }

    #[test]
    fn builders_install_faults_and_capacities() {
        let config = CheetahConfig::with_period(512)
            .with_faults(FaultPlan::drops(200).with_seed(9))
            .with_line_capacity(32)
            .with_object_capacity(16);
        assert_eq!(config.faults, Some(FaultPlan::drops(200).with_seed(9)));
        assert_eq!(config.detector.line_capacity, Some(32));
        assert_eq!(config.detector.object_capacity, Some(16));
        config.detector.try_validate().unwrap();
    }
}
