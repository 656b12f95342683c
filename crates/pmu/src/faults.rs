//! Deterministic sample-stream fault injection.
//!
//! Real profiling fleets lose samples: ring buffers overflow (uniform and
//! bursty drops), NMI skid and per-CPU buffers deliver out of order,
//! `perf` occasionally duplicates records at wakeup boundaries, bit flips
//! and version skew corrupt fields, and profiled processes die mid-stream.
//! [`FaultPlan`] models all of these as a *seeded, reproducible* transform
//! over any [`Sample`] stream — the simulated PMU and the `linux-pmu`
//! backend alike — so the detector's graceful-degradation guarantees can be
//! tested as executable properties rather than hoped for.
//!
//! Faults are injected by a [`FaultInjector`] sitting between the sample
//! source and its sink. Every decision is drawn from one xorshift stream
//! seeded by [`FaultPlan::seed`], so a faulted run is a pure function of
//! `(plan, input stream)`: run it twice and the delivered stream is
//! bit-identical. Injected faults are counted per kind ([`FaultCounts`]);
//! the profiler publishes the final tallies as `pmu.faults_*` counters.

use crate::config::ConfigError;
use crate::sample::Sample;
use cheetah_sim::{Addr, ThreadId};

/// Counter name for the total faults injected (all kinds).
pub const OBS_FAULTS_INJECTED: &str = "pmu.faults_injected";
/// Counter name for samples dropped by the uniform drop rate.
pub const OBS_FAULTS_DROPPED: &str = "pmu.faults_dropped";
/// Counter name for samples dropped inside periodic bursts.
pub const OBS_FAULTS_BURST_DROPPED: &str = "pmu.faults_burst_dropped";
/// Counter name for samples delivered out of arrival order.
pub const OBS_FAULTS_REORDERED: &str = "pmu.faults_reordered";
/// Counter name for samples delivered twice.
pub const OBS_FAULTS_DUPLICATED: &str = "pmu.faults_duplicated";
/// Counter name for samples delivered with a corrupted field.
pub const OBS_FAULTS_CORRUPTED: &str = "pmu.faults_corrupted";
/// Counter name for samples discarded after stream truncation.
pub const OBS_FAULTS_TRUNCATED: &str = "pmu.faults_truncated";

/// Which [`Sample`] fields a corruption fault may clobber.
///
/// Corrupted values are chosen to be *plausibly hostile*: a wild address
/// outside every monitored segment, a thread id / phase index far above any
/// real one, a latency beyond physical possibility. The detector must
/// quarantine (or segment-filter) all of them without panicking or
/// misattributing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptFields {
    /// Clobber the sampled data address.
    pub addr: bool,
    /// Clobber the triggering thread id.
    pub thread: bool,
    /// Clobber the access latency.
    pub latency: bool,
    /// Clobber the phase index.
    pub phase: bool,
}

impl CorruptFields {
    /// Every field eligible for corruption.
    pub fn all() -> Self {
        CorruptFields {
            addr: true,
            thread: true,
            latency: true,
            phase: true,
        }
    }

    /// No field eligible (corruption disabled).
    pub fn none() -> Self {
        CorruptFields {
            addr: false,
            thread: false,
            latency: false,
            phase: false,
        }
    }

    fn count(&self) -> u32 {
        u32::from(self.addr)
            + u32::from(self.thread)
            + u32::from(self.latency)
            + u32::from(self.phase)
    }
}

impl Default for CorruptFields {
    fn default() -> Self {
        CorruptFields::none()
    }
}

/// A deterministic, seeded plan of sample-stream faults.
///
/// All rates are in per-mille (‰) of *surviving* samples at that stage;
/// stages apply in a fixed order per input sample: truncation → burst drop
/// → uniform drop → corruption → duplication → bounded reorder buffer.
/// [`FaultPlan::none`] is the identity transform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the injector's random stream; a faulted run is reproducible
    /// per `(plan, seed)`.
    pub seed: u64,
    /// Uniform drop rate in per-mille (0–1000).
    pub drop_per_mille: u32,
    /// Start a drop burst every this many input samples (`0` disables
    /// bursts). Models periodic ring-buffer overflow.
    pub burst_every: u64,
    /// Consecutive samples dropped at the start of each burst period.
    pub burst_len: u64,
    /// Size of the reorder buffer (`0` delivers in arrival order). Each
    /// sample is delayed by at most this many deliveries.
    pub reorder_window: usize,
    /// Duplication rate in per-mille (0–1000); a duplicated sample is
    /// delivered twice, back to back into the reorder stage.
    pub duplicate_per_mille: u32,
    /// Field-corruption rate in per-mille (0–1000).
    pub corrupt_per_mille: u32,
    /// Which fields corruption may clobber (one per corrupted sample).
    pub corrupt_fields: CorruptFields,
    /// Discard every input sample after this many have been seen (`None`
    /// leaves the stream whole). Models a profiled process dying mid-run.
    pub truncate_after: Option<u64>,
}

impl FaultPlan {
    /// The identity plan: no faults, any source passes through untouched.
    pub fn none() -> Self {
        FaultPlan {
            seed: 1,
            drop_per_mille: 0,
            burst_every: 0,
            burst_len: 0,
            reorder_window: 0,
            duplicate_per_mille: 0,
            corrupt_per_mille: 0,
            corrupt_fields: CorruptFields::none(),
            truncate_after: None,
        }
    }

    /// A plan that only drops samples uniformly at `per_mille` ‰.
    pub fn drops(per_mille: u32) -> Self {
        FaultPlan {
            drop_per_mille: per_mille,
            ..FaultPlan::none()
        }
    }

    /// Same plan with a different seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether this plan can ever alter the stream.
    pub fn is_none(&self) -> bool {
        self.drop_per_mille == 0
            && self.burst_every == 0
            && self.reorder_window == 0
            && self.duplicate_per_mille == 0
            && self.corrupt_per_mille == 0
            && self.truncate_after.is_none()
    }

    /// Validates the plan.
    ///
    /// # Errors
    ///
    /// [`ConfigError::FaultRateOutOfRange`] if any per-mille rate exceeds
    /// 1000; [`ConfigError::CorruptionWithoutFields`] if corruption is
    /// enabled with no eligible field; [`ConfigError::BurstSwallowsStream`]
    /// if a burst is as long as its period (every sample would be dropped).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.drop_per_mille > 1000
            || self.duplicate_per_mille > 1000
            || self.corrupt_per_mille > 1000
        {
            return Err(ConfigError::FaultRateOutOfRange);
        }
        if self.corrupt_per_mille > 0 && self.corrupt_fields.count() == 0 {
            return Err(ConfigError::CorruptionWithoutFields);
        }
        if self.burst_every > 0 && self.burst_len >= self.burst_every {
            return Err(ConfigError::BurstSwallowsStream);
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Per-kind tallies of the faults an injector has applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Samples removed by the uniform drop rate.
    pub dropped: u64,
    /// Samples removed inside drop bursts.
    pub burst_dropped: u64,
    /// Samples delivered out of arrival order.
    pub reordered: u64,
    /// Extra copies delivered by duplication.
    pub duplicated: u64,
    /// Samples discarded after truncation.
    pub truncated: u64,
    /// Samples delivered with a clobbered address.
    pub corrupted_addr: u64,
    /// Samples delivered with a clobbered thread id.
    pub corrupted_thread: u64,
    /// Samples delivered with a clobbered latency.
    pub corrupted_latency: u64,
    /// Samples delivered with a clobbered phase index.
    pub corrupted_phase: u64,
}

impl FaultCounts {
    /// Samples delivered with any corrupted field.
    pub fn corrupted(&self) -> u64 {
        self.corrupted_addr + self.corrupted_thread + self.corrupted_latency + self.corrupted_phase
    }

    /// Total faults of every kind.
    pub fn injected(&self) -> u64 {
        self.dropped
            + self.burst_dropped
            + self.reordered
            + self.duplicated
            + self.truncated
            + self.corrupted()
    }
}

/// Applies a [`FaultPlan`] to a sample stream, deterministically.
///
/// Sits between any sample source and its sink: feed arrivals through
/// [`FaultInjector::push`] and drain the reorder buffer with
/// [`FaultInjector::flush`] when the source ends. With
/// [`FaultPlan::none`] the injector is the identity (and allocates no
/// buffer).
///
/// ```
/// use cheetah_pmu::{FaultInjector, FaultPlan, Sample};
/// use cheetah_sim::{AccessKind, Addr, PhaseKind, ThreadId};
///
/// let mut injector = FaultInjector::new(FaultPlan::drops(500).with_seed(7)).unwrap();
/// let mut delivered = 0u64;
/// for i in 0..1000u64 {
///     let sample = Sample {
///         thread: ThreadId(1), addr: Addr(0x4000_0000 + i * 8),
///         kind: AccessKind::Write, latency: 150, time: i,
///         phase_index: 1, phase_kind: PhaseKind::Parallel,
///     };
///     injector.push(sample, &mut |_| delivered += 1);
/// }
/// injector.flush(&mut |_| delivered += 1);
/// // Roughly half survive; the exact count is a pure function of the seed.
/// assert!((400..600).contains(&delivered));
/// assert_eq!(injector.counts().dropped, 1000 - delivered);
/// ```
pub struct FaultInjector {
    plan: FaultPlan,
    rng: u64,
    seen: u64,
    /// Buffered samples with the number of younger samples delivered past
    /// each (the lateness bound's bookkeeping).
    window: Vec<(Sample, usize)>,
    counts: FaultCounts,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("seen", &self.seen)
            .field("buffered", &self.window.len())
            .field("counts", &self.counts)
            .finish_non_exhaustive()
    }
}

impl FaultInjector {
    /// Creates an injector for `plan`.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the plan is invalid (see [`FaultPlan::validate`]).
    pub fn new(plan: FaultPlan) -> Result<Self, ConfigError> {
        plan.validate()?;
        Ok(FaultInjector {
            rng: Self::scramble(plan.seed),
            seen: 0,
            window: Vec::with_capacity(plan.reorder_window.saturating_add(1)),
            counts: FaultCounts::default(),
            plan,
        })
    }

    /// The splitmix-style seed scramble shared with
    /// [`crate::SamplingEngine`]'s per-thread seeding, so nearby plan seeds
    /// still produce uncorrelated fault streams.
    fn scramble(seed: u64) -> u64 {
        let mut x = seed.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x | 1
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// One per-mille draw in `0..1000`.
    fn draw_per_mille(&mut self) -> u32 {
        (self.next_u64() % 1000) as u32
    }

    /// The plan this injector applies.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Per-kind fault tallies so far.
    pub fn counts(&self) -> &FaultCounts {
        &self.counts
    }

    /// Feeds one arriving sample through the plan, delivering zero or more
    /// samples to `deliver` (zero when dropped or parked in the reorder
    /// buffer, two when duplicated).
    pub fn push(&mut self, sample: Sample, deliver: &mut impl FnMut(Sample)) {
        self.seen += 1;
        if let Some(limit) = self.plan.truncate_after {
            if self.seen > limit {
                self.counts.truncated += 1;
                return;
            }
        }
        if self.plan.burst_every > 0
            && (self.seen - 1) % self.plan.burst_every < self.plan.burst_len
        {
            self.counts.burst_dropped += 1;
            return;
        }
        if self.plan.drop_per_mille > 0 && self.draw_per_mille() < self.plan.drop_per_mille {
            self.counts.dropped += 1;
            return;
        }
        let mut sample = sample;
        let corrupted =
            self.plan.corrupt_per_mille > 0 && self.draw_per_mille() < self.plan.corrupt_per_mille;
        if corrupted {
            self.corrupt(&mut sample);
        }
        // Corruption and duplication are mutually exclusive per sample so
        // the per-kind tallies stay exact (a duplicated corrupt sample
        // would be quarantined twice but counted once).
        let duplicated = !corrupted
            && self.plan.duplicate_per_mille > 0
            && self.draw_per_mille() < self.plan.duplicate_per_mille;
        self.emit(sample, deliver);
        if duplicated {
            self.counts.duplicated += 1;
            self.emit(sample, deliver);
        }
    }

    /// Drains the reorder buffer (in plan-seeded random order). Call when
    /// the source ends; a truncated or reorder-free run may have nothing to
    /// drain.
    pub fn flush(&mut self, deliver: &mut impl FnMut(Sample)) {
        while !self.window.is_empty() {
            let sample = self.release();
            deliver(sample);
        }
    }

    /// Clobbers one eligible field of `sample`, chosen by the seeded
    /// stream. Values are extreme on purpose — far outside any real
    /// segment, thread count, latency or phase count — so downstream
    /// validation is exercised rather than silently absorbed.
    fn corrupt(&mut self, sample: &mut Sample) {
        let eligible = self.plan.corrupt_fields;
        let mut pick = self.next_u64() % u64::from(eligible.count());
        if eligible.addr {
            if pick == 0 {
                sample.addr = Addr((1 << 63) | (self.next_u64() & 0xFFFF_FFFF_F000));
                self.counts.corrupted_addr += 1;
                return;
            }
            pick -= 1;
        }
        if eligible.thread {
            if pick == 0 {
                sample.thread = ThreadId(0x4000_0000 | (self.next_u64() as u32 & 0xFFFF));
                self.counts.corrupted_thread += 1;
                return;
            }
            pick -= 1;
        }
        if eligible.latency {
            if pick == 0 {
                sample.latency = (1 << 50) | (self.next_u64() & 0xFFFF);
                self.counts.corrupted_latency += 1;
                return;
            }
            pick -= 1;
        }
        debug_assert!(eligible.phase && pick == 0);
        sample.phase_index = 0x4000_0000 | (self.next_u64() as u32 & 0xFFFF);
        self.counts.corrupted_phase += 1;
    }

    /// Routes one surviving sample through the bounded reorder buffer.
    fn emit(&mut self, sample: Sample, deliver: &mut impl FnMut(Sample)) {
        if self.plan.reorder_window == 0 {
            deliver(sample);
            return;
        }
        self.window.push((sample, 0));
        if self.window.len() > self.plan.reorder_window {
            let sample = self.release();
            deliver(sample);
        }
    }

    /// Removes one buffered sample, chosen by the seeded stream, except
    /// that a sample already passed by `reorder_window` younger ones is
    /// released first. Remaining samples keep their relative arrival
    /// order, so with that forcing rule every sample's displacement —
    /// early *or* late — is hard-bounded by the window size.
    fn release(&mut self) -> Sample {
        let index = match self
            .window
            .iter()
            .position(|(_, passed)| *passed >= self.plan.reorder_window)
        {
            Some(overdue) => overdue,
            None => (self.next_u64() as usize) % self.window.len(),
        };
        if index != 0 {
            self.counts.reordered += 1;
            for (_, passed) in &mut self.window[..index] {
                *passed += 1;
            }
        }
        self.window.remove(index).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_sim::{AccessKind, PhaseKind};

    fn sample(i: u64) -> Sample {
        Sample {
            thread: ThreadId(1 + (i % 4) as u32),
            addr: Addr(0x4000_0000 + (i % 64) * 8),
            kind: if i.is_multiple_of(3) {
                AccessKind::Read
            } else {
                AccessKind::Write
            },
            latency: 150,
            time: i * 100,
            phase_index: 1,
            phase_kind: PhaseKind::Parallel,
        }
    }

    fn run(plan: FaultPlan, n: u64) -> (Vec<Sample>, FaultCounts) {
        let mut injector = FaultInjector::new(plan).unwrap();
        let mut out = Vec::new();
        for i in 0..n {
            injector.push(sample(i), &mut |s| out.push(s));
        }
        injector.flush(&mut |s| out.push(s));
        (out, *injector.counts())
    }

    #[test]
    fn identity_plan_passes_everything_through() {
        let (out, counts) = run(FaultPlan::none(), 500);
        assert_eq!(out.len(), 500);
        assert_eq!(counts.injected(), 0);
        for (i, s) in out.iter().enumerate() {
            assert_eq!(*s, sample(i as u64));
        }
    }

    #[test]
    fn faulted_stream_is_reproducible_per_seed() {
        let plan = FaultPlan {
            drop_per_mille: 100,
            burst_every: 97,
            burst_len: 5,
            reorder_window: 8,
            duplicate_per_mille: 50,
            corrupt_per_mille: 50,
            corrupt_fields: CorruptFields::all(),
            truncate_after: None,
            seed: 42,
        };
        let (a, counts_a) = run(plan.clone(), 5_000);
        let (b, counts_b) = run(plan.clone(), 5_000);
        assert_eq!(a, b, "same (plan, seed) must fault identically");
        assert_eq!(counts_a, counts_b);
        assert!(counts_a.injected() > 0);
        let (c, _) = run(plan.with_seed(43), 5_000);
        assert_ne!(a, c, "a different seed must fault differently");
    }

    #[test]
    fn drop_rate_is_approximately_honored() {
        let (out, counts) = run(FaultPlan::drops(200).with_seed(9), 10_000);
        assert_eq!(out.len() as u64 + counts.dropped, 10_000);
        let rate = counts.dropped as f64 / 10_000.0;
        assert!((0.17..0.23).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn bursts_drop_exact_runs() {
        let plan = FaultPlan {
            burst_every: 100,
            burst_len: 10,
            ..FaultPlan::none()
        };
        let (out, counts) = run(plan, 1_000);
        assert_eq!(counts.burst_dropped, 100);
        assert_eq!(out.len(), 900);
    }

    #[test]
    fn truncation_is_exact() {
        let plan = FaultPlan {
            truncate_after: Some(300),
            ..FaultPlan::none()
        };
        let (out, counts) = run(plan, 1_000);
        assert_eq!(out.len(), 300);
        assert_eq!(counts.truncated, 700);
    }

    #[test]
    fn duplicates_are_counted_and_delivered_back_to_back() {
        let plan = FaultPlan {
            duplicate_per_mille: 100,
            seed: 5,
            ..FaultPlan::none()
        };
        let (out, counts) = run(plan, 5_000);
        assert_eq!(out.len() as u64, 5_000 + counts.duplicated);
        assert!(counts.duplicated > 300, "got {}", counts.duplicated);
        let mut seen_adjacent = 0u64;
        for pair in out.windows(2) {
            if pair[0] == pair[1] {
                seen_adjacent += 1;
            }
        }
        assert_eq!(seen_adjacent, counts.duplicated);
    }

    #[test]
    fn reorder_displacement_is_bounded_by_window() {
        let window = 6usize;
        let plan = FaultPlan {
            reorder_window: window,
            seed: 3,
            ..FaultPlan::none()
        };
        let (out, counts) = run(plan, 2_000);
        assert_eq!(out.len(), 2_000, "reordering must not lose samples");
        assert!(counts.reordered > 0);
        // Samples carry strictly increasing times; a sample may be passed
        // by at most `window` later arrivals.
        for (position, s) in out.iter().enumerate() {
            let arrival = (s.time / 100) as usize;
            assert!(
                position.abs_diff(arrival) <= window,
                "sample {arrival} delivered at {position}"
            );
        }
    }

    #[test]
    fn corruption_targets_enabled_fields_with_hostile_values() {
        let plan = FaultPlan {
            corrupt_per_mille: 1000,
            corrupt_fields: CorruptFields::all(),
            seed: 11,
            ..FaultPlan::none()
        };
        let (out, counts) = run(plan, 2_000);
        assert_eq!(out.len(), 2_000);
        assert_eq!(counts.corrupted(), 2_000);
        assert!(counts.corrupted_addr > 0);
        assert!(counts.corrupted_thread > 0);
        assert!(counts.corrupted_latency > 0);
        assert!(counts.corrupted_phase > 0);
        for s in &out {
            let hostile = s.addr.0 >= (1 << 63)
                || s.thread.0 >= 0x4000_0000
                || s.latency >= (1 << 50)
                || s.phase_index >= 0x4000_0000;
            assert!(hostile, "corrupted sample looks clean: {s:?}");
        }
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert_eq!(
            FaultPlan::drops(1001).validate().unwrap_err(),
            ConfigError::FaultRateOutOfRange
        );
        let no_fields = FaultPlan {
            corrupt_per_mille: 10,
            corrupt_fields: CorruptFields::none(),
            ..FaultPlan::none()
        };
        assert_eq!(
            no_fields.validate().unwrap_err(),
            ConfigError::CorruptionWithoutFields
        );
        let swallowed = FaultPlan {
            burst_every: 10,
            burst_len: 10,
            ..FaultPlan::none()
        };
        assert_eq!(
            swallowed.validate().unwrap_err(),
            ConfigError::BurstSwallowsStream
        );
        assert!(FaultInjector::new(FaultPlan::drops(1001)).is_err());
    }
}
