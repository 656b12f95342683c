//! Zhao et al.'s ownership-based invalidation tracking (the approach §2.3
//! of the paper replaces).
//!
//! Each cache line carries a *bitmap* with one bit per thread recording
//! which threads hold a copy. A write to a line owned by others counts an
//! invalidation and resets ownership to the writer. The method is accurate
//! but its per-line space grows linearly with the thread count — "it cannot
//! easily scale to more than 32 threads because of excessive memory
//! consumption" — which is precisely the motivation for Cheetah's
//! constant-space two-entry table. This implementation exists to reproduce
//! that comparison (ablation A).

use cheetah_heap::ShadowMap;
use cheetah_pmu::Sample;
use cheetah_sim::ThreadId;

/// Per-line ownership bitmap (one bit per thread id).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OwnershipState {
    /// Bitmap words; index `t / 64`, bit `t % 64`.
    owners: Vec<u64>,
    /// Invalidations counted on this line.
    pub invalidations: u64,
    /// Writes seen on this line.
    pub writes: u64,
}

impl OwnershipState {
    fn ensure(&mut self, thread: ThreadId) -> (usize, u64) {
        let word = (thread.0 / 64) as usize;
        let bit = 1u64 << (thread.0 % 64);
        if self.owners.len() <= word {
            self.owners.resize(word + 1, 0);
        }
        (word, bit)
    }

    fn is_sole_owner(&self, word: usize, bit: u64) -> bool {
        self.owners
            .iter()
            .enumerate()
            .all(|(i, &w)| if i == word { w & !bit == 0 } else { w == 0 })
    }

    fn any_owner(&self) -> bool {
        self.owners.iter().any(|&w| w != 0)
    }
}

/// The ownership-bitmap detector.
///
/// ```
/// use cheetah_baselines::OwnershipDetector;
/// use cheetah_pmu::Sample;
/// use cheetah_sim::{AccessKind, Addr, PhaseKind, ThreadId};
///
/// let mut detector = OwnershipDetector::new(64);
/// let sample = |t: u32, kind| Sample {
///     thread: ThreadId(t),
///     addr: Addr(0x4000_0000),
///     kind,
///     latency: 150,
///     time: 0,
///     phase_index: 1,
///     phase_kind: PhaseKind::Parallel,
/// };
/// detector.ingest(&sample(1, AccessKind::Write));
/// detector.ingest(&sample(2, AccessKind::Write));
/// assert_eq!(detector.total_invalidations(), 1);
/// ```
#[derive(Debug)]
pub struct OwnershipDetector {
    shadow: ShadowMap<OwnershipState>,
    max_threads: u32,
    total_invalidations: u64,
    tracked_lines: u64,
}

impl OwnershipDetector {
    /// Creates a detector able to track up to `max_threads` thread ids
    /// (determines worst-case bitmap width), with 64-byte lines.
    pub fn new(max_threads: u32) -> Self {
        OwnershipDetector {
            shadow: ShadowMap::new(64),
            max_threads,
            total_invalidations: 0,
            tracked_lines: 0,
        }
    }

    /// Feeds one sampled access.
    pub fn ingest(&mut self, sample: &Sample) {
        if !sample.in_parallel_phase() {
            return;
        }
        let line = sample.addr.line(64);
        let Some(state) = self.shadow.get_mut_or_default(line) else {
            return;
        };
        if !state.any_owner() {
            self.tracked_lines += 1;
        }
        let (word, bit) = state.ensure(sample.thread);
        if sample.kind.is_write() {
            state.writes += 1;
            if state.any_owner() && !state.is_sole_owner(word, bit) {
                state.invalidations += 1;
                self.total_invalidations += 1;
                // Reset ownership to the writer.
                state.owners.iter_mut().for_each(|w| *w = 0);
            }
            state.owners[word] |= bit;
        } else {
            state.owners[word] |= bit;
        }
    }

    /// Total invalidations counted.
    pub fn total_invalidations(&self) -> u64 {
        self.total_invalidations
    }

    /// Worst-case per-line state bytes for the configured thread count —
    /// the quantity that blows up past 32 threads.
    pub fn per_line_bytes(&self) -> usize {
        (self.max_threads as usize).div_ceil(64) * 8 + 16
    }

    /// Lines with any recorded ownership.
    pub fn tracked_lines(&self) -> u64 {
        self.tracked_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_sim::{AccessKind, Addr, PhaseKind};

    fn sample(t: u32, addr: Addr, kind: AccessKind) -> Sample {
        Sample {
            thread: ThreadId(t),
            addr,
            kind,
            latency: 100,
            time: 0,
            phase_index: 1,
            phase_kind: PhaseKind::Parallel,
        }
    }

    const A: Addr = Addr(0x4000_0000);

    #[test]
    fn write_ping_pong_counts() {
        let mut d = OwnershipDetector::new(16);
        d.ingest(&sample(1, A, AccessKind::Write));
        for _ in 0..5 {
            d.ingest(&sample(2, A, AccessKind::Write));
            d.ingest(&sample(1, A, AccessKind::Write));
        }
        assert_eq!(d.total_invalidations(), 10);
    }

    #[test]
    fn sole_owner_writes_free() {
        let mut d = OwnershipDetector::new(16);
        for _ in 0..10 {
            d.ingest(&sample(1, A, AccessKind::Write));
        }
        assert_eq!(d.total_invalidations(), 0);
    }

    #[test]
    fn reader_set_invalidated_by_foreign_write() {
        let mut d = OwnershipDetector::new(16);
        d.ingest(&sample(1, A, AccessKind::Read));
        d.ingest(&sample(2, A, AccessKind::Read));
        d.ingest(&sample(3, A, AccessKind::Write));
        assert_eq!(d.total_invalidations(), 1);
        // Ownership reset to thread 3: its next write is free.
        d.ingest(&sample(3, A, AccessKind::Write));
        assert_eq!(d.total_invalidations(), 1);
    }

    #[test]
    fn serial_samples_ignored() {
        let mut d = OwnershipDetector::new(16);
        let mut s = sample(1, A, AccessKind::Write);
        s.phase_kind = PhaseKind::Serial;
        d.ingest(&s);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn per_line_bytes_grow_with_threads() {
        assert!(
            OwnershipDetector::new(64).per_line_bytes()
                < OwnershipDetector::new(256).per_line_bytes()
        );
        // 1024 threads need 128 bytes of bitmap per line -- more than the
        // line itself, the paper's scalability complaint.
        assert!(OwnershipDetector::new(1024).per_line_bytes() >= 128);
    }

    #[test]
    fn high_thread_ids_supported() {
        let mut d = OwnershipDetector::new(256);
        d.ingest(&sample(200, A, AccessKind::Write));
        d.ingest(&sample(130, A, AccessKind::Write));
        assert_eq!(d.total_invalidations(), 1);
    }
}
