//! Hooks through which profilers observe a simulated execution.
//!
//! The execution engine invokes an [`ExecObserver`] for every thread
//! lifecycle event and phase boundary, and for the memory accesses the
//! observer's [`SamplerFork`] asks to see. Observer callbacks may
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
    /// Whether the access is sampled: the engine must surface it to the
    /// observer through `on_access`, in global order.
    pub sampled: bool,
}

/// A deterministic per-thread replica of an observer's sampling decision,
/// consulted by every execution path — the classic loop and sharded
/// execution alike (see [`crate::MachineConfig::shards`]).
///
/// An observer whose sampling decision is a pure function of the thread's
/// retired-instruction index (like an IBS/PEBS model) can hand out a
/// replica per thread. The engine calls [`ThreadSampler::judge`] for the
/// thread's accesses in program order — the sharded engine on a host
/// thread during precompute, where the shared observer cannot be consulted
/// — and invokes `on_access` only for the accesses judged `sampled`, in
/// exact global order, so downstream consumers (detectors) observe the
/// identical sample stream while unsampled accesses cost the observer
/// nothing.
///
/// # Contract
///
/// For the run to be bit-identical to one that surfaces every access
/// ([`SamplerFork::EveryAccess`]) the replica must agree with the
/// observer: judging every access of a thread in order must mark exactly
/// the accesses the observer would sample, and report exactly the
/// perturbation its `on_access` would return at each access. When a
/// replica is handed out, the engine charges the replica's perturbation and
/// *ignores* the value returned by `on_access` for surfaced accesses (the
/// observer may account trap costs at a coarser granularity internally —
/// totals still match because every tag is charged exactly once).
///
/// A thread forked again (the main thread, at each serial phase) gets its
/// new replica caught up first: the engine re-judges the last access an
/// earlier replica of the thread judged and discards the verdict, so state
/// the earlier replica advanced past the last surfaced access — tags it
/// charged that the observer never saw — is not charged twice. A replica
/// must therefore treat an access below its pending tag as unsampled and
/// unperturbed, as [`ThreadSampler::next_tag`] already requires.
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

/// How an observer sees a thread's accesses; returned by
/// [`ExecObserver::fork_sampler`].
pub enum SamplerFork {
    /// The observer needs to see every access through `on_access` (the
    /// conservative default): every access is surfaced in global order and
    /// the observer's returned perturbation is used as-is (sharding still
    /// parallelizes event precomputation).
    EveryAccess,
    /// The observer ignores accesses entirely and never perturbs
    /// ([`NullObserver`]): no access needs surfacing.
    Transparent,
    /// The observer's sampling decision for this thread is replicated by
    /// the given deterministic judge; only judged-sampled accesses are
    /// surfaced.
    Replica(Box<dyn ThreadSampler>),
}

/// How the engine treats one access, as judged by the thread's
/// [`SamplerFork`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Verdict {
    /// Cycles to charge to the thread; `None` under
    /// [`SamplerFork::EveryAccess`], where `on_access` returns them.
    pub(crate) perturbation: Option<Cycles>,
    /// Whether the access is surfaced to the observer through `on_access`.
    pub(crate) surfaced: bool,
}

impl Verdict {
    /// Surfaces the access built by `record` when the verdict says so and
    /// returns the perturbation to charge: the replica's when one was
    /// forked, otherwise what the observer returned.
    #[inline]
    pub(crate) fn charge(
        self,
        observer: &mut dyn ExecObserver,
        record: impl FnOnce() -> AccessRecord,
    ) -> Cycles {
        if self.surfaced {
            let returned = observer.on_access(&record());
            self.perturbation.unwrap_or(returned)
        } else {
            self.perturbation
                .expect("an unsurfaced access carries its judgement")
        }
    }
}

/// One thread's [`SamplerFork`] as every execution path consults it,
/// access by access: the single place a fork turns into [`Verdict`]s.
pub(crate) struct ForkJudge {
    fork: SamplerFork,
    /// Accesses below this instruction index are unsampled and unperturbed
    /// (see [`ThreadSampler::next_tag`]); `u64::MAX` for a transparent
    /// observer, `0` when every access must be surfaced.
    next_tag: u64,
    /// Instruction index of the last access the replica judged.
    last_judged: Option<u64>,
}

impl ForkJudge {
    /// Forks `thread`'s sampler from `observer`. `caught_up` is the last
    /// access an earlier replica of the same thread judged
    /// ([`ForkJudge::last_judged`]); the new replica re-judges it, verdict
    /// discarded, to continue exactly where that one stopped.
    pub(crate) fn fork(
        observer: &mut dyn ExecObserver,
        thread: ThreadId,
        caught_up: Option<u64>,
    ) -> ForkJudge {
        let mut fork = observer.fork_sampler(thread);
        let next_tag = match &mut fork {
            SamplerFork::EveryAccess => 0,
            SamplerFork::Transparent => u64::MAX,
            SamplerFork::Replica(replica) => {
                if let Some(index) = caught_up.filter(|&index| index >= replica.next_tag()) {
                    replica.judge(index);
                }
                replica.next_tag()
            }
        };
        ForkJudge {
            fork,
            next_tag,
            last_judged: caught_up,
        }
    }

    /// Judges the access at retired-instruction index `instrs_before`;
    /// called for each of the thread's accesses in program order.
    #[inline]
    pub(crate) fn judge(&mut self, instrs_before: u64) -> Verdict {
        if instrs_before < self.next_tag {
            return Verdict {
                perturbation: Some(0),
                surfaced: false,
            };
        }
        match &mut self.fork {
            SamplerFork::EveryAccess => Verdict {
                perturbation: None,
                surfaced: true,
            },
            SamplerFork::Transparent => Verdict {
                perturbation: Some(0),
                surfaced: false,
            },
            SamplerFork::Replica(replica) => {
                let judgement = replica.judge(instrs_before);
                self.next_tag = replica.next_tag();
                self.last_judged = Some(instrs_before);
                Verdict {
                    perturbation: Some(judgement.perturbation),
                    surfaced: judgement.sampled,
                }
            }
        }
    }

    /// Instruction index of the last access this judge's replica (or the
    /// one it caught up with) judged; carried into the thread's next fork.
    pub(crate) fn last_judged(&self) -> Option<u64> {
        self.last_judged
    }
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

    /// Called after each memory access the thread's [`SamplerFork`]
    /// surfaces: every access under [`SamplerFork::EveryAccess`] (the
    /// default), only the judged-sampled ones under
    /// [`SamplerFork::Replica`], none under [`SamplerFork::Transparent`].
    /// The returned cycles model the cost of a sampling interrupt delivered
    /// to the thread (0 when the access was not sampled); the engine charges
    /// them only under `EveryAccess`.
    fn on_access(&mut self, record: &AccessRecord) -> Cycles {
        let _ = record;
        0
    }

    /// Hands the engine a per-thread sampling replica (see
    /// [`ThreadSampler`]). Called at each phase start for every phase
    /// member, on every execution path (right after the phase's
    /// `on_thread_start` callbacks for spawned workers; for the main thread
    /// it is called again at every serial phase, and the engine catches
    /// the new replica up as [`ThreadSampler`] describes). The default keeps
    /// the observer fully informed ([`SamplerFork::EveryAccess`]), which is
    /// always correct; observers with a replicable sampling decision should
    /// return [`SamplerFork::Replica`] so runs skip the per-access callback
    /// for unsampled accesses.
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
