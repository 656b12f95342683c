//! Schedule-space perturbation policies for the sharded merge.
//!
//! The sharded executor (see [`crate::shard`]) splits a parallel phase
//! into order-independent per-worker precompute and a small *ordered
//! residue* — directory events, shared-hit waits and hit-run walks. One
//! merge replays that residue, and replaying an event does the same thing
//! whatever the policy; a policy only chooses **which worker's event goes
//! next**. SmartTrack-style predictive analyses observe that this order is
//! exactly the part of an execution the scheduler could have chosen
//! differently: a fork-join phase has no intra-phase synchronisation, so
//! *any* interleaving of the residue that respects each worker's program
//! order is a feasible execution of the program.
//!
//! A [`SchedulePolicy`] is one of two selection rules:
//!
//! * [`SchedulePolicy::Observed`] — the timestamp order the hardware
//!   would produce (a min-heap over worker clocks); byte-identical to a
//!   run without a policy.
//! * a seeded pick among the live workers, each pick replaying the
//!   worker's next event whole:
//!   * [`SchedulePolicy::SeededShuffle`] picks uniformly, exploring
//!     interleavings the observed timing happened to exclude;
//!   * [`SchedulePolicy::ContentionMax`] prefers directory writes landing
//!     on a line another core wrote last, driving write-shared lines into
//!     worst-case ping-pong.
//!
//! Every perturbed run is **deterministic given `(seed, shards)`** — in
//! fact independent of the shard count entirely: the per-worker event
//! plans are pure functions of the program, and the policy's choices are
//! a pure function of the seed and those plans. Per-worker program order
//! and footprint contracts are preserved by construction (events are
//! consumed from each worker's FIFO plan; classification happens before
//! any ordering decision), so `sim.footprint_violations` is identical
//! between observed and perturbed runs of the same program.

use std::fmt;

/// How the merge orders the ordered residue of each parallel phase.
///
/// Set on [`crate::MachineConfig::schedule`]; see the module docs for the
/// determinism and feasibility arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulePolicy {
    /// Merge in observed (timestamp) order — the default, bit-identical
    /// to the classic discrete-event loop.
    Observed,
    /// At each step, pick the next worker uniformly at random among live
    /// workers, from a deterministic generator seeded with `seed`.
    SeededShuffle {
        /// Seed of the per-phase deterministic generator.
        seed: u64,
    },
    /// At each step, prefer workers whose next event is a directory write
    /// to a line last written by a *different* core (maximising
    /// invalidation ping-pong); ties and contention-free steps fall back
    /// to the seeded uniform choice.
    ContentionMax {
        /// Seed of the per-phase deterministic generator.
        seed: u64,
    },
}

impl SchedulePolicy {
    /// Whether this is the observed (unperturbed) schedule.
    pub fn is_observed(&self) -> bool {
        matches!(self, SchedulePolicy::Observed)
    }

    /// The policy's seed, if it has one.
    pub fn seed(&self) -> Option<u64> {
        match self {
            SchedulePolicy::Observed => None,
            SchedulePolicy::SeededShuffle { seed } | SchedulePolicy::ContentionMax { seed } => {
                Some(*seed)
            }
        }
    }
}

impl fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulePolicy::Observed => f.write_str("observed"),
            SchedulePolicy::SeededShuffle { seed } => write!(f, "shuffle:{seed}"),
            SchedulePolicy::ContentionMax { seed } => write!(f, "contend:{seed}"),
        }
    }
}

/// The perturbed merge's deterministic generator: xorshift64 over a
/// splitmix-scrambled seed (adjacent seeds diverge immediately; the
/// scramble is forced odd so the state is never zero).
#[derive(Debug, Clone)]
pub(crate) struct ScheduleRng {
    state: u64,
}

impl ScheduleRng {
    /// Generator for one parallel phase: the policy seed and phase index
    /// are mixed so repeated phases of one program draw distinct
    /// schedules while staying reproducible.
    pub(crate) fn for_phase(seed: u64, phase_index: u32) -> ScheduleRng {
        let mut z =
            seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(phase_index) + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ScheduleRng { state: z | 1 }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform index in `0..n` (`n` must be nonzero).
    pub(crate) fn pick(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_are_stable() {
        assert_eq!(SchedulePolicy::Observed.to_string(), "observed");
        assert_eq!(
            SchedulePolicy::SeededShuffle { seed: 7 }.to_string(),
            "shuffle:7"
        );
        assert_eq!(
            SchedulePolicy::ContentionMax { seed: 3 }.to_string(),
            "contend:3"
        );
    }

    #[test]
    fn seeds_and_observedness() {
        assert!(SchedulePolicy::Observed.is_observed());
        assert_eq!(SchedulePolicy::Observed.seed(), None);
        assert_eq!(SchedulePolicy::SeededShuffle { seed: 9 }.seed(), Some(9));
        assert!(!SchedulePolicy::ContentionMax { seed: 0 }.is_observed());
    }

    #[test]
    fn rng_is_deterministic_and_phase_dependent() {
        let draw = |seed, phase| {
            let mut rng = ScheduleRng::for_phase(seed, phase);
            (0..8).map(|_| rng.pick(5)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, 0), draw(42, 0));
        assert_ne!(draw(42, 0), draw(42, 1), "phases draw distinct schedules");
        assert_ne!(draw(42, 0), draw(43, 0), "seeds draw distinct schedules");
    }

    #[test]
    fn picks_cover_the_range() {
        let mut rng = ScheduleRng::for_phase(0, 0);
        let mut seen = [false; 7];
        for _ in 0..256 {
            seen[rng.pick(7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform pick reaches every slot");
    }
}
