//! The sampling decision engine.
//!
//! [`SamplingEngine`] is the reusable core of the simulated PMU: it keeps a
//! per-thread retired-instruction countdown, decides which accesses become
//! [`Sample`]s, applies IBS-style interval randomization, and reports the
//! perturbation cycles (trap / setup costs) the execution engine must charge
//! back to the profiled thread. Composite observers (Cheetah's profiler, the
//! standalone [`crate::SimPmu`]) embed it and forward their callbacks.

use crate::config::{ConfigError, SamplerConfig};
use crate::sample::Sample;
use cheetah_sim::util::FastMap;
use cheetah_sim::{AccessRecord, Cycles, SampleJudgement, ThreadId, ThreadSampler};

/// Counter name for samples the engine delivered with an address
/// ([`SamplingEngine::total_samples`]).
pub const OBS_SAMPLES_DELIVERED: &str = "pmu.samples_delivered";
/// Counter name for tags that landed on non-memory instructions and were
/// dropped by the handler ([`SamplingEngine::total_dropped`]).
pub const OBS_SAMPLES_DROPPED: &str = "pmu.samples_dropped";

#[derive(Debug)]
struct ThreadSampling {
    /// Fires when the retired-instruction count reaches this value.
    next_at: u64,
    /// xorshift state for interval jitter.
    rng: u64,
    samples: u64,
}

/// Decides which accesses are sampled and what they cost.
///
/// ```
/// use cheetah_pmu::{SamplerConfig, SamplingEngine};
/// use cheetah_sim::ThreadId;
/// let mut engine = SamplingEngine::new(SamplerConfig::with_period(1000));
/// let setup = engine.begin_thread(ThreadId(1));
/// assert!(setup > 0); // PMU register programming cost
/// ```
#[derive(Debug)]
pub struct SamplingEngine {
    config: SamplerConfig,
    threads: FastMap<ThreadId, ThreadSampling>,
    total_samples: u64,
    total_dropped: u64,
    total_trap_cycles: Cycles,
    total_setup_cycles: Cycles,
}

impl SamplingEngine {
    /// Creates an engine with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero period); use
    /// [`SamplingEngine::try_new`] to handle that gracefully.
    pub fn new(config: SamplerConfig) -> Self {
        SamplingEngine::try_new(config).expect("invalid sampler config")
    }

    /// Creates an engine, rejecting invalid configurations.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the configuration is invalid (zero period).
    pub fn try_new(config: SamplerConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(SamplingEngine {
            config,
            threads: FastMap::default(),
            total_samples: 0,
            total_dropped: 0,
            total_trap_cycles: 0,
            total_setup_cycles: 0,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Registers a thread and returns the PMU setup cost to charge to it.
    pub fn begin_thread(&mut self, thread: ThreadId) -> Cycles {
        let mut state = ThreadSampling {
            next_at: 0,
            rng: Self::thread_seed(thread),
            samples: 0,
        };
        state.next_at = Self::interval(&self.config, &mut state.rng);
        self.threads.insert(thread, state);
        self.total_setup_cycles += self.config.setup_cost;
        self.config.setup_cost
    }

    /// The deterministic per-thread jitter seed (splitmix-style scramble),
    /// shared by [`SamplingEngine::begin_thread`] and
    /// [`SamplingEngine::fork_thread`] so a replica reproduces the engine's
    /// tag sequence exactly.
    fn thread_seed(thread: ThreadId) -> u64 {
        let mut seed = (u64::from(thread.0) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        seed ^= seed >> 30;
        seed = seed.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        seed | 1
    }

    /// Forks a deterministic per-thread replica of this engine's sampling
    /// decision, for [`cheetah_sim::ExecObserver::fork_sampler`].
    ///
    /// The replica continues from the thread's *current* sampling state —
    /// fresh for a thread forked right after [`begin_thread`], mid-stream
    /// for the main thread re-forked at a later phase — and then
    /// reproduces, access by access, exactly the tags, samples and
    /// perturbation the engine computes: the contract sharded execution
    /// relies on. A thread never registered is replicated as never
    /// sampled, mirroring [`SamplingEngine::observe`].
    ///
    /// [`begin_thread`]: SamplingEngine::begin_thread
    pub fn fork_thread(&self, thread: ThreadId) -> SamplerReplica {
        match self.threads.get(&thread) {
            Some(state) => SamplerReplica {
                config: self.config.clone(),
                next_at: state.next_at,
                rng: state.rng,
            },
            None => SamplerReplica {
                config: self.config.clone(),
                next_at: u64::MAX,
                rng: 0,
            },
        }
    }

    fn interval(config: &SamplerConfig, rng: &mut u64) -> u64 {
        let mut x = *rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *rng = x;
        if config.full_jitter {
            // Uniform over a full period, centred on it: mean ≈ period, but
            // no loop body of any length can phase-lock with the sampler.
            return (config.period / 2 + (x % config.period)).max(1);
        }
        match config.period.checked_div(config.jitter_div) {
            None => config.period,
            Some(raw_span) => {
                let span = raw_span.max(1);
                config.period - (x % span)
            }
        }
    }

    /// Inspects one executed access; returns the sample (if this access
    /// was tagged) and the perturbation cycles to charge.
    ///
    /// IBS semantics: the PMU tags one *instruction* per interval,
    /// uniformly. A tag landing on a non-memory instruction raises the
    /// interrupt but yields no address, so Cheetah's handler discards it —
    /// the trap cost is still charged (accumulated onto the next access,
    /// where the engine learns about the elapsed instructions). A tag
    /// landing on this access yields a [`Sample`]. This per-instruction
    /// uniformity matters: it makes sampled accesses an unbiased estimator
    /// of per-access latency, which the assessment equations rely on.
    ///
    /// Threads never registered via [`SamplingEngine::begin_thread`] are
    /// not sampled (their PMU was never programmed).
    pub fn observe(&mut self, record: &AccessRecord) -> (Option<Sample>, Cycles) {
        let Some(state) = self.threads.get_mut(&record.thread) else {
            return (None, 0);
        };
        // This access occupies instruction index `instrs_before`.
        let index = record.instrs_before;
        let mut perturbation: Cycles = 0;
        // Tags that landed on preceding compute instructions: interrupt
        // fired, no address, sample dropped.
        while state.next_at < index {
            perturbation += self.config.trap_cost;
            self.total_dropped += 1;
            let step = Self::interval(&self.config, &mut state.rng);
            state.next_at += step;
        }
        let sampled = state.next_at == index;
        if sampled {
            state.samples += 1;
            let step = Self::interval(&self.config, &mut state.rng);
            state.next_at += step;
            self.total_samples += 1;
            perturbation += self.config.trap_cost;
        }
        self.total_trap_cycles += perturbation;
        let sample = sampled.then_some(Sample {
            thread: record.thread,
            addr: record.addr,
            kind: record.kind,
            latency: record.latency,
            time: record.start,
            phase_index: record.phase_index,
            phase_kind: record.phase_kind,
        });
        (sample, perturbation)
    }

    /// Total samples delivered so far.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Tags that landed on non-memory instructions and were dropped,
    /// counted when [`SamplingEngine::observe`] catches up with them. The
    /// simulator surfaces only sampled accesses through a replica
    /// ([`SamplingEngine::fork_thread`]), so tags after a thread's last
    /// sample are charged to the thread by the replica but not counted
    /// here.
    pub fn total_dropped(&self) -> u64 {
        self.total_dropped
    }

    /// Samples delivered to a specific thread.
    pub fn thread_samples(&self, thread: ThreadId) -> u64 {
        self.threads.get(&thread).map_or(0, |s| s.samples)
    }

    /// Total cycles of perturbation charged through traps, counted like
    /// [`SamplingEngine::total_dropped`].
    pub fn total_trap_cycles(&self) -> Cycles {
        self.total_trap_cycles
    }

    /// Total cycles of perturbation charged through per-thread setup.
    pub fn total_setup_cycles(&self) -> Cycles {
        self.total_setup_cycles
    }
}

/// A standalone replica of one thread's sampling countdown, handed to the
/// simulator's sharded executor (see [`SamplingEngine::fork_thread`]).
///
/// Implements [`cheetah_sim::ThreadSampler`]: judged access by access in
/// program order, it marks exactly the accesses the engine samples and
/// charges exactly the perturbation the engine's `observe` would return at
/// each access — tags landing on compute instructions are charged at the
/// first following access, as IBS delivers them.
#[derive(Debug, Clone)]
pub struct SamplerReplica {
    config: SamplerConfig,
    next_at: u64,
    rng: u64,
}

impl ThreadSampler for SamplerReplica {
    fn next_tag(&self) -> u64 {
        // Accesses strictly below the pending tag are untouched: `judge`
        // would neither charge nor sample them.
        self.next_at
    }

    fn judge(&mut self, instrs_before: u64) -> SampleJudgement {
        let index = instrs_before;
        let mut perturbation: Cycles = 0;
        while self.next_at < index {
            perturbation += self.config.trap_cost;
            let step = SamplingEngine::interval(&self.config, &mut self.rng);
            self.next_at += step;
        }
        let sampled = self.next_at == index;
        if sampled {
            let step = SamplingEngine::interval(&self.config, &mut self.rng);
            self.next_at += step;
            perturbation += self.config.trap_cost;
        }
        SampleJudgement {
            perturbation,
            sampled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_sim::{AccessKind, AccessOutcome, Addr, CoreId, PhaseKind};

    fn record(thread: ThreadId, instrs_before: u64) -> AccessRecord {
        AccessRecord {
            thread,
            core: CoreId(0),
            addr: Addr(0x4000_0000),
            kind: AccessKind::Read,
            outcome: AccessOutcome::L1Hit,
            latency: 4,
            start: instrs_before,
            instrs_before,
            phase_index: 0,
            phase_kind: PhaseKind::Parallel,
        }
    }

    #[test]
    fn zero_period_config_rejected() {
        assert_eq!(
            SamplingEngine::try_new(SamplerConfig::with_period(0)).unwrap_err(),
            crate::config::ConfigError::ZeroPeriod
        );
    }

    #[test]
    fn unregistered_thread_never_sampled() {
        let mut engine = SamplingEngine::new(SamplerConfig::with_period(10));
        let (sample, cost) = engine.observe(&record(ThreadId(5), 1_000_000));
        assert!(sample.is_none());
        assert_eq!(cost, 0);
    }

    #[test]
    fn access_only_stream_sampled_at_period_rate() {
        let mut config = SamplerConfig::with_period(1000);
        config.jitter_div = 8;
        let mut engine = SamplingEngine::new(config);
        engine.begin_thread(ThreadId(1));
        let mut samples = 0u64;
        // One access per instruction for 1M instructions: every tag lands
        // on an access, so no drops.
        for i in 0..1_000_000u64 {
            if engine.observe(&record(ThreadId(1), i)).0.is_some() {
                samples += 1;
            }
        }
        assert!(
            (950..=1200).contains(&samples),
            "got {samples} samples for 1M instructions at period 1000"
        );
        assert_eq!(engine.total_samples(), samples);
        assert_eq!(engine.total_dropped(), 0);
        assert_eq!(engine.thread_samples(ThreadId(1)), samples);
    }

    #[test]
    fn jitter_disabled_gives_exact_period() {
        let mut config = SamplerConfig::with_period(100);
        config.jitter_div = 0;
        let mut engine = SamplingEngine::new(config);
        engine.begin_thread(ThreadId(1));
        let mut sampled_at = Vec::new();
        for i in 0..1_000u64 {
            if engine.observe(&record(ThreadId(1), i)).0.is_some() {
                sampled_at.push(i);
            }
        }
        assert_eq!(sampled_at.len(), 9);
        for pair in sampled_at.windows(2) {
            assert_eq!(pair[1] - pair[0], 100);
        }
    }

    #[test]
    fn tags_landing_on_compute_are_dropped_but_charged() {
        // Accesses separated by 10K compute instructions at period 1000:
        // ~9 of 10 tags land on compute and are dropped; their trap cost
        // is charged on the next access.
        // Use a period co-prime with the access spacing so tag indices
        // almost never coincide with access indices.
        let mut config = SamplerConfig::with_period(997);
        config.jitter_div = 0;
        let trap = config.trap_cost;
        let mut engine = SamplingEngine::new(config);
        engine.begin_thread(ThreadId(1));
        let mut samples = 0u64;
        let mut charged: Cycles = 0;
        for i in 1..=100u64 {
            let (sample, cost) = engine.observe(&record(ThreadId(1), i * 10_000));
            charged += cost;
            if sample.is_some() {
                samples += 1;
            }
        }
        // Expected tags over 1M instructions: ~1000; nearly all dropped.
        assert!(samples <= 5, "few tags land exactly on accesses: {samples}");
        assert!(
            engine.total_dropped() >= 990,
            "dropped {}",
            engine.total_dropped()
        );
        assert_eq!(
            charged,
            trap * (samples + engine.total_dropped()),
            "every tag costs one trap"
        );
    }

    #[test]
    fn sampling_is_unbiased_across_access_positions() {
        // Loop body: access A, 9 compute instructions, access B. Both
        // accesses must receive a similar number of samples even though B
        // follows the compute gap.
        let mut config = SamplerConfig::with_period(97);
        config.jitter_div = 4;
        let mut engine = SamplingEngine::new(config);
        engine.begin_thread(ThreadId(1));
        let mut a_samples = 0u64;
        let mut b_samples = 0u64;
        let mut instr = 0u64;
        for _ in 0..200_000 {
            if engine.observe(&record(ThreadId(1), instr)).0.is_some() {
                a_samples += 1;
            }
            instr += 1; // access A retired
            instr += 9; // compute
            if engine.observe(&record(ThreadId(1), instr)).0.is_some() {
                b_samples += 1;
            }
            instr += 1; // access B retired
        }
        let ratio = a_samples as f64 / b_samples as f64;
        assert!(
            (0.7..1.4).contains(&ratio),
            "positional bias: A={a_samples} B={b_samples}"
        );
    }

    /// A 12-instruction loop body with accesses at offsets 0 and 6; returns
    /// how often each access was sampled plus the engine's totals.
    fn sample_aligned_loop(config: SamplerConfig) -> (u64, u64, u64) {
        let mut engine = SamplingEngine::new(config);
        engine.begin_thread(ThreadId(1));
        let (mut a_samples, mut b_samples) = (0u64, 0u64);
        let mut instr = 0u64;
        for _ in 0..10_000 {
            if engine.observe(&record(ThreadId(1), instr)).0.is_some() {
                a_samples += 1;
            }
            instr += 6; // access A retired + 5 compute
            if engine.observe(&record(ThreadId(1), instr)).0.is_some() {
                b_samples += 1;
            }
            instr += 6; // access B retired + 5 compute
        }
        let tags = engine.total_samples() + engine.total_dropped();
        (a_samples, b_samples, tags)
    }

    #[test]
    fn small_scaled_period_resonates_with_aligned_loop() {
        // The failure mode the full-jitter option exists for: at period 12
        // the default jitter span rounds down to one instruction, so every
        // interval is exactly 12 — phase-locked with the 12-instruction
        // loop body. Access A soaks up every sample; B is invisible.
        let config = SamplerConfig::scaled_to_period(12);
        let (a_samples, b_samples, _) = sample_aligned_loop(config);
        assert!(
            a_samples > 500,
            "resonant sampler still samples: {a_samples}"
        );
        assert_eq!(
            b_samples, 0,
            "a phase-locked sampler never sees the second access"
        );
    }

    #[test]
    fn full_jitter_breaks_loop_resonance() {
        // Same loop, same period, full-range jitter: intervals are uniform
        // in [6, 18), so the sampler cannot stay phase-locked and both
        // accesses are sampled at comparable rates — the unbiased-estimator
        // property the assessment equations need, restored.
        let mut config = SamplerConfig::scaled_to_period(12);
        config.full_jitter = true;
        let (a_samples, b_samples, tags) = sample_aligned_loop(config);
        assert!(a_samples > 0 && b_samples > 0);
        let ratio = a_samples as f64 / b_samples as f64;
        assert!(
            (0.6..1.7).contains(&ratio),
            "full jitter must sample both accesses: A={a_samples} B={b_samples}"
        );
        // The mean interval stays ≈ period, so the *tag rate* is preserved:
        // 120K instructions at period 12 is ~10K tags (most land on the 10
        // compute instructions per body and are dropped, as IBS would).
        assert!(
            (8_000..=12_500).contains(&tags),
            "full jitter must not change the sampling rate: {tags}"
        );
    }

    #[test]
    fn replica_matches_engine_under_full_jitter() {
        // Full jitter must preserve the sharded-execution contract: the
        // forked replica reproduces the engine's decisions access by access.
        let mut config = SamplerConfig::with_period(333);
        config.full_jitter = true;
        let mut engine = SamplingEngine::new(config);
        engine.begin_thread(ThreadId(3));
        let mut replica = engine.fork_thread(ThreadId(3));
        let mut index = 0u64;
        for step in 0..20_000u64 {
            index += 1 + (step * 7) % 23;
            let (sample, cost) = engine.observe(&record(ThreadId(3), index));
            let judgement = replica.judge(index);
            assert_eq!(judgement.sampled, sample.is_some(), "at index {index}");
            assert_eq!(judgement.perturbation, cost, "at index {index}");
        }
        assert!(engine.total_samples() + engine.total_dropped() > 500);
    }

    #[test]
    fn trap_and_setup_cycles_accumulate() {
        let mut config = SamplerConfig::with_period(10);
        config.jitter_div = 0;
        let setup = config.setup_cost;
        let mut engine = SamplingEngine::new(config);
        engine.begin_thread(ThreadId(1));
        engine.begin_thread(ThreadId(2));
        assert_eq!(engine.total_setup_cycles(), 2 * setup);
        let mut total = 0;
        for i in 0..100u64 {
            total += engine.observe(&record(ThreadId(1), i)).1;
        }
        assert_eq!(engine.total_trap_cycles(), total);
        assert!(total > 0);
    }

    #[test]
    fn samples_carry_access_fields() {
        let mut config = SamplerConfig::with_period(1);
        config.jitter_div = 0;
        let mut engine = SamplingEngine::new(config);
        engine.begin_thread(ThreadId(7));
        let record = record(ThreadId(7), 5);
        // Drain tags until one lands on instruction 5.
        let (sample, _) = engine.observe(&record);
        let sample = sample.expect("period 1 tags every instruction");
        assert_eq!(sample.thread, ThreadId(7));
        assert_eq!(sample.addr, record.addr);
        assert_eq!(sample.kind, record.kind);
        assert_eq!(sample.latency, record.latency);
        assert_eq!(sample.phase_kind, PhaseKind::Parallel);
    }

    #[test]
    fn replica_reproduces_engine_decisions() {
        // The sharded-execution contract: judging every access in order
        // marks exactly the accesses the engine samples and charges
        // exactly the perturbation `observe` returns at each access —
        // including dropped tags caught up across compute gaps.
        let mut config = SamplerConfig::with_period(333);
        config.jitter_div = 4;
        let mut engine = SamplingEngine::new(config);
        engine.begin_thread(ThreadId(3));
        let mut replica = engine.fork_thread(ThreadId(3));
        let mut index = 0u64;
        for step in 0..50_000u64 {
            // Irregular instruction gaps (compute bursts) between accesses.
            index += 1 + (step * 7) % 23;
            let (sample, cost) = engine.observe(&record(ThreadId(3), index));
            let judgement = replica.judge(index);
            assert_eq!(judgement.sampled, sample.is_some(), "at index {index}");
            assert_eq!(judgement.perturbation, cost, "at index {index}");
        }
        assert!(engine.total_samples() > 100);
    }

    #[test]
    fn deterministic_across_engines() {
        let run = || {
            let mut engine = SamplingEngine::new(SamplerConfig::with_period(777));
            engine.begin_thread(ThreadId(1));
            let mut hits = Vec::new();
            for i in 0..100_000u64 {
                if engine.observe(&record(ThreadId(1), i)).0.is_some() {
                    hits.push(i);
                }
            }
            hits
        };
        assert_eq!(run(), run());
    }
}
