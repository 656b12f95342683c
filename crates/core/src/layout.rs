//! The layout decision: which transformation removes false sharing on an
//! object, given who touches which of its bytes.
//!
//! Both the dynamic repair planner (clusters of sampled words per
//! ownership signature) and the static analysis (declared extents per
//! parallel identity) reduce an object to *clusters*: groups of byte
//! ranges, relative to the object start, each touched by one owner. The
//! decision over those clusters is the same in both places, so it lives
//! here once.

use cheetah_sim::util::FastMap;
use std::fmt;

/// Which layout transformation fixes an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// Relocate the whole object to a cache-line-aligned base.
    AlignToLine,
    /// Relocate the whole object to exclusive, line-aligned, padded lines.
    PadToLine,
    /// Relocate each owner's cluster to its own line-aligned block.
    SplitPerThread,
}

impl fmt::Display for RepairStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RepairStrategy::AlignToLine => "align-to-line",
            RepairStrategy::PadToLine => "pad-to-line",
            RepairStrategy::SplitPerThread => "split-per-thread",
        })
    }
}

/// Chooses the layout fix for an object from its owners' clusters of
/// half-open byte ranges (offsets from the object start), or `None` when
/// no cluster exists:
///
/// * one cluster → [`RepairStrategy::PadToLine`]: the contention is with
///   a neighbouring allocation;
/// * every line touched by at most one cluster once the object starts on
///   a line boundary → [`RepairStrategy::AlignToLine`];
/// * otherwise the clusters interleave within lines →
///   [`RepairStrategy::SplitPerThread`].
///
/// The repair planner calls this for every candidate in every converge
/// iteration, so line ownership is a hash map rather than a scan.
pub fn layout_strategy<C>(clusters: C, line_size: u64) -> Option<RepairStrategy>
where
    C: ExactSizeIterator,
    C::Item: IntoIterator<Item = (u64, u64)>,
{
    match clusters.len() {
        0 => None,
        1 => Some(RepairStrategy::PadToLine),
        _ => {
            let mut line_owner: FastMap<u64, usize> = FastMap::default();
            for (index, ranges) in clusters.enumerate() {
                for (start, end) in ranges {
                    for line in start / line_size..=(end - 1) / line_size {
                        if *line_owner.entry(line).or_insert(index) != index {
                            return Some(RepairStrategy::SplitPerThread);
                        }
                    }
                }
            }
            Some(RepairStrategy::AlignToLine)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decide(clusters: &[&[(u64, u64)]]) -> Option<RepairStrategy> {
        layout_strategy(clusters.iter().map(|c| c.iter().copied()), 64)
    }

    #[test]
    fn cluster_count_and_line_overlap_pick_the_strategy() {
        assert_eq!(decide(&[]), None);
        assert_eq!(
            decide(&[&[(0, 4), (60, 64)]]),
            Some(RepairStrategy::PadToLine)
        );
        assert_eq!(
            decide(&[&[(0, 64)], &[(64, 128)]]),
            Some(RepairStrategy::AlignToLine)
        );
        assert_eq!(
            decide(&[&[(0, 4)], &[(4, 8)]]),
            Some(RepairStrategy::SplitPerThread)
        );
        // A range spanning two lines claims both.
        assert_eq!(
            decide(&[&[(60, 68)], &[(100, 104)]]),
            Some(RepairStrategy::SplitPerThread)
        );
    }
}
