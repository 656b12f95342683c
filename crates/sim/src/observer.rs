//! Hooks through which profilers observe a simulated execution.
//!
//! The execution engine invokes an [`ExecObserver`] for every thread
//! lifecycle event, phase boundary and memory access. Observer callbacks may
//! return *perturbation cycles* that the engine charges to the affected
//! thread — this is how the PMU layer models its sampling trap cost and
//! per-thread counter-setup cost, making profiler overhead (Fig. 4 of the
//! paper) measurable in simulated time.

use crate::latency::AccessOutcome;
use crate::types::{AccessKind, Addr, CoreId, Cycles, PhaseKind, ThreadId};

/// Full description of one executed memory access, as seen by observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// Issuing thread.
    pub thread: ThreadId,
    /// Core the thread runs on.
    pub core: CoreId,
    /// Accessed byte address.
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
    /// How the memory system satisfied the access.
    pub outcome: AccessOutcome,
    /// Latency charged for the access, in cycles.
    pub latency: Cycles,
    /// Global virtual time at which the access started.
    pub start: Cycles,
    /// Instructions the thread had retired *before* this access (the access
    /// itself retires one more). Samplers use this as the IBS/PEBS retired
    /// micro-op counter.
    pub instrs_before: u64,
    /// Index of the enclosing phase within the program.
    pub phase_index: u32,
    /// Whether the access happened in a serial or parallel phase.
    pub phase_kind: PhaseKind,
}

/// Verdict of a [`ThreadSampler`] for one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleJudgement {
    /// Perturbation cycles to charge to the thread at this access — trap
    /// costs of sampling tags that landed on or before it, exactly as the
    /// observer's `on_access` would have returned for the same access.
    pub perturbation: Cycles,
    /// Whether the access is sampled: sharded execution must surface it to
    /// the observer through `on_access`, in merged global order.
    pub sampled: bool,
}

/// A deterministic per-thread replica of an observer's sampling decision,
/// used by sharded execution (see [`crate::MachineConfig::shards`]).
///
/// The sharded engine precomputes each worker's events on a host thread,
/// where the shared observer cannot be consulted. An observer whose
/// sampling decision is a pure function of the thread's retired-instruction
/// index (like an IBS/PEBS model) can hand out a replica per thread; the
/// precompute pass calls [`ThreadSampler::judge`] for every access, in the
/// thread's program order, and the engine then invokes `on_access` only for
/// the accesses judged `sampled` — in exact merged order, so downstream
/// consumers (detectors) observe the identical sample stream.
///
/// # Contract
///
/// For the run to be bit-identical to unsharded execution the replica must
/// agree with the observer: judging every access of a thread in order must
/// mark exactly the accesses the observer would sample, and report exactly
/// the perturbation its `on_access` would return at each access. When a
/// replica is handed out, the engine charges the replica's perturbation and
/// *ignores* the value returned by `on_access` for surfaced accesses (the
/// observer may account trap costs at a coarser granularity internally —
/// totals still match because every tag is charged exactly once).
pub trait ThreadSampler: Send {
    /// Judges the access occupying retired-instruction index
    /// `instrs_before` (the value [`AccessRecord::instrs_before`] would
    /// carry). Called for accesses in program order; the engine may skip
    /// the call for accesses below [`ThreadSampler::next_tag`], treating
    /// them as unsampled and unperturbed.
    fn judge(&mut self, instrs_before: u64) -> SampleJudgement;

    /// Optimization hint: the smallest instruction index whose judgement
    /// could be non-trivial. The engine promises to call
    /// [`ThreadSampler::judge`] for every access with
    /// `instrs_before >= next_tag()` and may skip earlier accesses, whose
    /// judgement must be `(perturbation: 0, sampled: false)`. The default
    /// (`0`) keeps every access judged.
    fn next_tag(&self) -> u64 {
        0
    }
}

/// How an observer participates in sharded execution; returned by
/// [`ExecObserver::fork_sampler`].
pub enum SamplerFork {
    /// The observer needs to see every access through `on_access` (the
    /// conservative default): sharding still parallelizes event
    /// precomputation, but every access is surfaced in merged order and the
    /// observer's returned perturbation is used as-is.
    EveryAccess,
    /// The observer ignores accesses entirely and never perturbs
    /// ([`NullObserver`]): no access needs surfacing.
    Transparent,
    /// The observer's sampling decision for this thread is replicated by
    /// the given deterministic judge; only judged-sampled accesses are
    /// surfaced.
    Replica(Box<dyn ThreadSampler>),
}

impl std::fmt::Debug for SamplerFork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplerFork::EveryAccess => f.write_str("SamplerFork::EveryAccess"),
            SamplerFork::Transparent => f.write_str("SamplerFork::Transparent"),
            SamplerFork::Replica(_) => f.write_str("SamplerFork::Replica(..)"),
        }
    }
}

/// Observer of a simulated execution.
///
/// All methods have no-op defaults so implementors override only what they
/// need. Methods returning [`Cycles`] report *extra* cycles the engine must
/// charge to the thread in question (profiling perturbation); return `0` for
/// a transparent observer.
///
/// # Determinism contract
///
/// An observer's state — and so every value it returns — is a pure
/// function of its construction inputs and the sequence of callbacks it
/// has received, [`fork_sampler`](ExecObserver::fork_sampler) included.
/// Resuming from a [`Checkpoint`](crate::Checkpoint) relies on this: it
/// replays the captured prefix's callbacks into a freshly built observer
/// instead of re-simulating the prefix.
pub trait ExecObserver {
    /// Called when a thread starts (including the main thread at time 0).
    /// The returned cycles model per-thread profiler setup cost (e.g.
    /// programming PMU registers) and delay the thread's first instruction.
    fn on_thread_start(&mut self, thread: ThreadId, name: &str, now: Cycles) -> Cycles {
        let _ = (thread, name, now);
        0
    }

    /// Called when a thread finishes its stream.
    fn on_thread_exit(&mut self, thread: ThreadId, now: Cycles) {
        let _ = (thread, now);
    }

    /// Called at each phase start.
    fn on_phase_start(&mut self, index: u32, kind: PhaseKind, now: Cycles) {
        let _ = (index, kind, now);
    }

    /// Called at each phase end.
    fn on_phase_end(&mut self, index: u32, kind: PhaseKind, now: Cycles) {
        let _ = (index, kind, now);
    }

    /// Called after every memory access. The returned cycles model the cost
    /// of a sampling interrupt delivered to the thread (0 when the access
    /// was not sampled).
    fn on_access(&mut self, record: &AccessRecord) -> Cycles {
        let _ = record;
        0
    }

    /// Hands sharded execution a per-thread sampling replica (see
    /// [`ThreadSampler`]). Called at each phase start for every phase
    /// member (right after the phase's `on_thread_start` callbacks for
    /// spawned workers; for the main thread of a serial phase it may be
    /// called repeatedly, and the replica must continue from the thread's
    /// *current* sampling state). The default keeps the observer fully
    /// informed ([`SamplerFork::EveryAccess`]), which is always correct;
    /// observers with a replicable sampling decision should return
    /// [`SamplerFork::Replica`] so sharded runs skip the per-access
    /// callback for unsampled accesses.
    fn fork_sampler(&mut self, thread: ThreadId) -> SamplerFork {
        let _ = thread;
        SamplerFork::EveryAccess
    }
}

/// The transparent observer: observes nothing, perturbs nothing.
///
/// Useful as the baseline ("pthreads") configuration when measuring profiler
/// overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl ExecObserver for NullObserver {
    fn fork_sampler(&mut self, _thread: ThreadId) -> SamplerFork {
        SamplerFork::Transparent
    }
}

/// An observer that simply counts events; handy in tests and as a cheap
/// sanity probe.
#[derive(Debug, Clone, Default)]
pub struct CountingObserver {
    /// Number of thread starts seen (including main).
    pub thread_starts: u64,
    /// Number of thread exits seen.
    pub thread_exits: u64,
    /// Number of phase starts seen.
    pub phase_starts: u64,
    /// Number of phase ends seen.
    pub phase_ends: u64,
    /// Number of accesses seen.
    pub accesses: u64,
    /// Number of write accesses seen.
    pub writes: u64,
}

impl ExecObserver for CountingObserver {
    fn on_thread_start(&mut self, _thread: ThreadId, _name: &str, _now: Cycles) -> Cycles {
        self.thread_starts += 1;
        0
    }

    fn on_thread_exit(&mut self, _thread: ThreadId, _now: Cycles) {
        self.thread_exits += 1;
    }

    fn on_phase_start(&mut self, _index: u32, _kind: PhaseKind, _now: Cycles) {
        self.phase_starts += 1;
    }

    fn on_phase_end(&mut self, _index: u32, _kind: PhaseKind, _now: Cycles) {
        self.phase_ends += 1;
    }

    fn on_access(&mut self, record: &AccessRecord) -> Cycles {
        self.accesses += 1;
        if record.kind.is_write() {
            self.writes += 1;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_returns_zero_perturbation() {
        let mut observer = NullObserver;
        assert_eq!(observer.on_thread_start(ThreadId(1), "w", 10), 0);
        let record = AccessRecord {
            thread: ThreadId(1),
            core: CoreId(0),
            addr: Addr(0x40),
            kind: AccessKind::Read,
            outcome: AccessOutcome::L1Hit,
            latency: 4,
            start: 10,
            instrs_before: 0,
            phase_index: 0,
            phase_kind: PhaseKind::Serial,
        };
        assert_eq!(observer.on_access(&record), 0);
    }

    #[test]
    fn counting_observer_counts() {
        let mut observer = CountingObserver::default();
        observer.on_thread_start(ThreadId(0), "main", 0);
        observer.on_phase_start(0, PhaseKind::Serial, 0);
        let record = AccessRecord {
            thread: ThreadId(0),
            core: CoreId(0),
            addr: Addr(0x40),
            kind: AccessKind::Write,
            outcome: AccessOutcome::Memory,
            latency: 220,
            start: 0,
            instrs_before: 0,
            phase_index: 0,
            phase_kind: PhaseKind::Serial,
        };
        observer.on_access(&record);
        observer.on_phase_end(0, PhaseKind::Serial, 100);
        observer.on_thread_exit(ThreadId(0), 100);
        assert_eq!(observer.thread_starts, 1);
        assert_eq!(observer.accesses, 1);
        assert_eq!(observer.writes, 1);
        assert_eq!(observer.phase_starts, 1);
        assert_eq!(observer.phase_ends, 1);
        assert_eq!(observer.thread_exits, 1);
    }
}
