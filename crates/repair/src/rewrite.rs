//! Applying a [`RepairPlan`] to an address space and a program.
//!
//! A plan is executed in two steps:
//!
//! 1. [`apply`] allocates the plan's target storage out of the workload's
//!    own [`AddressSpace`] (line-aligned, padded, provenance-tracked via
//!    [`cheetah_heap::ObjectInfo::relocated_from`]) and returns the
//!    resulting [`LayoutMap`];
//! 2. [`cheetah_sim::Program::with_layout`] rewrites the program's memory
//!    operations through that map.
//!
//! [`apply_iterations`] applies several plans, one profile's or successive
//! iterations', by running both steps per plan in order.
//!
//! The rewritten program executes the **same op stream** — identical op
//! counts, identical compute, identical fork-join phase graph — against
//! the repaired layout, which is exactly the counterfactual Cheetah's
//! assessment predicts (§3 of the paper).

use crate::plan::{spans_disjoint, RepairPlan, RepairStrategy};
use cheetah_core::ObjectKey;
use cheetah_heap::{AddressSpace, CallStack, HeapError, ObjectId};
use cheetah_sim::layout::{LayoutError, LayoutMap, Remapping};
use cheetah_sim::{Addr, Program, ThreadId, WORD_BYTES};
use std::error::Error;
use std::fmt;

/// Errors from applying a repair plan.
#[derive(Debug)]
pub enum RepairError {
    /// Target storage could not be allocated.
    Heap(HeapError),
    /// The plan's synthesized remappings were inconsistent (overlapping
    /// source ranges).
    Layout(LayoutError),
    /// The plan references a heap object the given space does not know.
    UnknownObject(ObjectId),
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::Heap(err) => write!(f, "allocating repair storage: {err}"),
            RepairError::Layout(err) => write!(f, "composing remappings: {err}"),
            RepairError::UnknownObject(id) => {
                write!(f, "plan references unknown heap object {id}")
            }
        }
    }
}

impl Error for RepairError {}

impl From<HeapError> for RepairError {
    fn from(err: HeapError) -> Self {
        RepairError::Heap(err)
    }
}

impl From<LayoutError> for RepairError {
    fn from(err: LayoutError) -> Self {
        RepairError::Layout(err)
    }
}

/// Allocates the target storage for `plan` in `space` and returns the
/// layout transformation realising the fix.
///
/// The space must be the one the plan's program was built against (same
/// deterministic allocation order as the profiled build), so that object
/// ids and addresses line up; workload builders guarantee this.
///
/// # Errors
///
/// [`RepairError`] if storage cannot be allocated or the plan is
/// inconsistent with the space.
pub fn apply(plan: &RepairPlan, space: &mut AddressSpace) -> Result<LayoutMap, RepairError> {
    let line = plan.line_size;
    match plan.strategy {
        RepairStrategy::AlignToLine | RepairStrategy::PadToLine => {
            // Whole-object relocation to a line-aligned, line-padded base.
            let target = relocate_whole(plan, space)?;
            Ok(LayoutMap::new(vec![Remapping::new(
                plan.object_start,
                plan.object_size,
                target,
            )])?)
        }
        RepairStrategy::SplitPerThread => {
            let callsite = origin_callsite(plan, space);
            let mut rules = Vec::new();
            // Whole-span relocation must not drag a truly-shared (pinned)
            // word onto a cluster's private lines — that would recreate
            // the false sharing the plan is meant to remove.
            let span_safe = spans_disjoint(&plan.clusters)
                && plan.pinned_word_offsets.iter().all(|&offset| {
                    plan.clusters
                        .iter()
                        .all(|c| offset < c.span_start() || offset >= c.span_end())
                });
            if span_safe {
                // Common case: each thread's words occupy a private span of
                // the object; relocate each span whole (untouched interior
                // bytes travel with it, so even unsampled accesses inside
                // the span land on the thread's private lines).
                for cluster in &plan.clusters {
                    let target = space.heap_mut().alloc_aligned(
                        cluster.owner(),
                        cluster.span_len().max(WORD_BYTES),
                        line,
                        callsite.clone(),
                    )?;
                    rules.push(Remapping::new(
                        Addr(plan.object_start.0 + cluster.span_start()),
                        cluster.span_len().max(WORD_BYTES),
                        target,
                    ));
                }
            } else {
                // Interleaved spans: relocate word by word, packing each
                // thread's words contiguously into its private block.
                for cluster in &plan.clusters {
                    let block_len = cluster.word_offsets.len() as u64 * WORD_BYTES;
                    let target = space.heap_mut().alloc_aligned(
                        cluster.owner(),
                        block_len,
                        line,
                        callsite.clone(),
                    )?;
                    for (slot, &offset) in cluster.word_offsets.iter().enumerate() {
                        rules.push(Remapping::new(
                            Addr(plan.object_start.0 + offset),
                            WORD_BYTES,
                            target.offset(slot as u64 * WORD_BYTES),
                        ));
                    }
                }
            }
            Ok(LayoutMap::new(rules)?)
        }
    }
}

/// Applies plans to one space in order, rewriting `program` through each
/// resulting map in turn.
///
/// The maps compose: when plan `k` was synthesized from a profile of the
/// program *after* plans `1..k` were applied, its source addresses refer
/// to the already-rewritten layout (possibly even to storage an earlier
/// fix allocated). Because workload builds and heap allocation are
/// deterministic, replaying the plans in synthesis order against a fresh
/// space reproduces the exact addresses each plan saw. Plans synthesized
/// from one profile relocate distinct objects into fresh storage, so
/// chaining their maps translates every address as one combined map
/// would.
///
/// # Errors
///
/// [`RepairError`] if any plan fails to apply.
pub fn apply_iterations(
    mut program: Program,
    plans: &[RepairPlan],
    space: &mut AddressSpace,
) -> Result<Program, RepairError> {
    for plan in plans {
        let map = apply(plan, space)?;
        program = program.with_layout(map.shared());
    }
    Ok(program)
}

fn relocate_whole(plan: &RepairPlan, space: &mut AddressSpace) -> Result<Addr, RepairError> {
    match plan.key {
        ObjectKey::Heap(id) => {
            if space.heap().objects().len() as u64 <= id.0 {
                return Err(RepairError::UnknownObject(id));
            }
            Ok(space.heap_mut().relocate(id, plan.line_size)?)
        }
        ObjectKey::Global(_) => {
            // Globals cannot move within the globals segment (the registry
            // packs symbols); padded shadow storage in the heap plays the
            // role of the recompiled, aligned global. `alloc_aligned` pads
            // the reservation to whole lines itself.
            Ok(space.heap_mut().alloc_aligned(
                ThreadId::MAIN,
                plan.object_size,
                plan.line_size,
                CallStack::unknown(),
            )?)
        }
    }
}

fn origin_callsite(plan: &RepairPlan, space: &AddressSpace) -> CallStack {
    match plan.key {
        ObjectKey::Heap(id) if (id.0 as usize) < space.heap().objects().len() => {
            space.heap().object(id).callsite.clone()
        }
        _ => CallStack::unknown(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ThreadCluster;

    fn split_plan(object_start: Addr, clusters: Vec<ThreadCluster>) -> RepairPlan {
        RepairPlan {
            key: ObjectKey::Heap(ObjectId(0)),
            label: "app.c: 1".into(),
            strategy: RepairStrategy::SplitPerThread,
            object_start,
            object_size: 64,
            line_size: 64,
            clusters,
            pinned_word_offsets: vec![],
            co_residents: 1,
        }
    }

    fn space_with_object() -> (AddressSpace, Addr) {
        let mut space = AddressSpace::new();
        let addr = space
            .heap_mut()
            .alloc(ThreadId(0), 64, CallStack::single("app.c", 1))
            .unwrap();
        (space, addr)
    }

    #[test]
    fn split_moves_each_cluster_to_a_private_line() {
        let (mut space, base) = space_with_object();
        let plan = split_plan(
            base,
            vec![
                ThreadCluster {
                    threads: vec![ThreadId(1)],
                    word_offsets: vec![0, 4],
                },
                ThreadCluster {
                    threads: vec![ThreadId(2)],
                    word_offsets: vec![8, 12],
                },
            ],
        );
        let map = apply(&plan, &mut space).unwrap();
        let t1 = map.translate(base);
        let t2 = map.translate(base.offset(8));
        assert_ne!(t1.line(64), t2.line(64), "clusters must get private lines");
        assert_eq!(t1.0 % 64, 0);
        assert_eq!(t2.0 % 64, 0);
        // Interior of a span moves with it.
        assert_eq!(map.translate(base.offset(4)), t1.offset(4));
        // Untouched object bytes stay put.
        assert_eq!(map.translate(base.offset(32)), base.offset(32));
    }

    #[test]
    fn interleaved_spans_fall_back_to_word_relocation() {
        let (mut space, base) = space_with_object();
        // Thread 1 owns words 0 and 8; thread 2 owns word 4 — spans overlap.
        let plan = split_plan(
            base,
            vec![
                ThreadCluster {
                    threads: vec![ThreadId(1)],
                    word_offsets: vec![0, 8],
                },
                ThreadCluster {
                    threads: vec![ThreadId(2)],
                    word_offsets: vec![4],
                },
            ],
        );
        let map = apply(&plan, &mut space).unwrap();
        let a = map.translate(base);
        let b = map.translate(base.offset(8));
        let c = map.translate(base.offset(4));
        assert_eq!(a.line(64), b.line(64), "same thread packs into one block");
        assert_eq!(b, a.offset(4), "words pack contiguously");
        assert_ne!(a.line(64), c.line(64));
    }

    #[test]
    fn pinned_word_inside_a_span_forces_word_relocation() {
        let (mut space, base) = space_with_object();
        // Thread 1's span [0, 12) would swallow the truly-shared word at
        // offset 4; the rewriter must fall back to word granularity and
        // leave the pinned word at its original address.
        let mut plan = split_plan(
            base,
            vec![
                ThreadCluster {
                    threads: vec![ThreadId(1)],
                    word_offsets: vec![0, 8],
                },
                ThreadCluster {
                    threads: vec![ThreadId(4)],
                    word_offsets: vec![12],
                },
            ],
        );
        plan.pinned_word_offsets = vec![4];
        let map = apply(&plan, &mut space).unwrap();
        assert_eq!(
            map.translate(base.offset(4)),
            base.offset(4),
            "truly shared word must stay in place"
        );
        let t1a = map.translate(base);
        let t1b = map.translate(base.offset(8));
        let t4 = map.translate(base.offset(12));
        assert_ne!(t1a, base);
        assert_eq!(t1a.line(64), t1b.line(64));
        assert_ne!(t1a.line(64), t4.line(64));
        assert_ne!(
            t1a.line(64),
            base.line(64),
            "private lines leave the object"
        );
    }

    #[test]
    fn pad_relocates_whole_object_with_provenance() {
        let (mut space, base) = space_with_object();
        let plan = RepairPlan {
            key: ObjectKey::Heap(ObjectId(0)),
            label: "app.c: 1".into(),
            strategy: RepairStrategy::PadToLine,
            object_start: base,
            object_size: 64,
            line_size: 64,
            clusters: vec![],
            pinned_word_offsets: vec![],
            co_residents: 1,
        };
        let map = apply(&plan, &mut space).unwrap();
        let target = map.translate(base);
        assert_ne!(target, base);
        assert_eq!(target.0 % 64, 0);
        assert_eq!(map.translate(base.offset(63)), target.offset(63));
        let info = space.heap().object_at(target).unwrap();
        assert_eq!(info.relocated_from, Some(ObjectId(0)));
        assert_eq!(info.callsite.to_string(), "app.c: 1");
    }

    #[test]
    fn unknown_object_is_an_error() {
        let mut space = AddressSpace::new();
        let plan = RepairPlan {
            key: ObjectKey::Heap(ObjectId(7)),
            label: "x".into(),
            strategy: RepairStrategy::PadToLine,
            object_start: Addr(0x4000_0000),
            object_size: 64,
            line_size: 64,
            clusters: vec![],
            pinned_word_offsets: vec![],
            co_residents: 1,
        };
        assert!(matches!(
            apply(&plan, &mut space),
            Err(RepairError::UnknownObject(_))
        ));
    }

    #[test]
    fn global_plans_get_padded_shadow_storage() {
        let mut space = AddressSpace::new();
        let g = space.globals_mut().register("shared", 48, 8).unwrap();
        let plan = RepairPlan {
            key: ObjectKey::Global(0),
            label: "shared".into(),
            strategy: RepairStrategy::PadToLine,
            object_start: g,
            object_size: 48,
            line_size: 64,
            clusters: vec![],
            pinned_word_offsets: vec![],
            co_residents: 1,
        };
        let map = apply(&plan, &mut space).unwrap();
        let target = map.translate(g);
        assert_eq!(target.0 % 64, 0);
        assert!(space.heap().object_at(target).is_some());
    }
}
