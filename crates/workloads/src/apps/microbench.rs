//! The Fig. 1 microbenchmark: adjacent array elements hammered by all
//! threads.
//!
//! ```c
//! int array[total];
//! int window = total / numThreads;
//! void threadFunc(int start) {
//!     for (index = start; index < start + window; index++)
//!         for (j = 0; j < 10000000; j++)
//!             array[index]++;
//! }
//! ```
//!
//! Each thread increments its own window of consecutive `int`s; with a
//! 4-byte stride, up to 16 threads' elements fall on one 64-byte line and
//! the increments ping-pong the line continuously. The paper measures a
//! ~13x gap between the linear-speedup expectation and reality on 8 cores.
//! The `fixed` build strides elements by a full cache line.

use crate::apps::alloc_main;
use crate::config::AppConfig;
use crate::instance::WorkloadInstance;
use crate::patterns::{OpTemplate, SegmentsStream};
use cheetah_heap::AddressSpace;
use cheetah_sim::{ProgramBuilder, ThreadSpec};

/// Increments per element (the inner `j` loop), before scaling.
const BASE_INNER: u64 = 40_000;
/// Total array elements; the window is `TOTAL_ELEMS / threads`, as in the
/// paper's listing, so total work is fixed across thread counts.
const TOTAL_ELEMS: u64 = 16;

/// The most threads the microbenchmark supports: one element each.
pub const MAX_THREADS: u32 = TOTAL_ELEMS as u32;

/// Builds the microbenchmark.
///
/// # Panics
///
/// Panics if `config.threads` exceeds [`MAX_THREADS`] (the window would
/// be empty).
pub fn build(config: &AppConfig) -> WorkloadInstance {
    assert!(
        config.threads <= MAX_THREADS,
        "at most {MAX_THREADS} threads"
    );
    let mut space = AddressSpace::new();
    let stride = if config.fixed { 64 } else { 4 };
    let window = TOTAL_ELEMS / u64::from(config.threads);
    let array = alloc_main(&mut space, TOTAL_ELEMS * stride, "false-sharing.c", 5);
    let inner = config.iters(BASE_INNER);

    let workers = (0..config.threads)
        .map(|t| {
            let start = u64::from(t) * window;
            // One segment per element: `array[index]++` is a read plus a
            // write of the same word, repeated `inner` times.
            let segments = (0..window)
                .map(|w| {
                    let addr = array.offset((start + w) * stride);
                    crate::patterns::Segment::new(
                        vec![
                            OpTemplate::read_fixed(addr),
                            OpTemplate::write_fixed(addr),
                            // The paper's inner loop is unoptimised C:
                            // load/add/store plus loop control costs ~20+
                            // cycles per iteration, diluting the coherence
                            // cost.
                            OpTemplate::Work(24),
                        ],
                        inner,
                    )
                })
                .collect();
            ThreadSpec::new(format!("threadFunc-{t}"), SegmentsStream::new(segments))
        })
        .collect();

    let program = ProgramBuilder::new("microbench").parallel(workers).build();
    WorkloadInstance::new(program, space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_sim::{Machine, MachineConfig, NullObserver};

    fn run(threads: u32, fixed: bool) -> u64 {
        let config = AppConfig {
            threads,
            scale: 0.05,
            fixed,
            seed: 1,
        };
        let machine = Machine::new(MachineConfig::with_cores(8));
        let instance = build(&config);
        machine
            .run(instance.program, &mut NullObserver)
            .total_cycles
    }

    #[test]
    fn false_sharing_much_slower_than_fixed() {
        let broken = run(8, false);
        let fixed = run(8, true);
        assert!(
            broken > 5 * fixed,
            "expected catastrophic slowdown: broken={broken} fixed={fixed}"
        );
    }

    #[test]
    fn reality_vs_expectation_grows_with_threads() {
        // Fig. 1: the gap between linear-speedup expectation and reality
        // widens as threads increase.
        let serial = run(1, false) as f64;
        let gap = |n: u32| run(n, false) as f64 / (serial / f64::from(n));
        let gap2 = gap(2);
        let gap8 = gap(8);
        assert!(gap2 > 1.5, "2-thread gap {gap2}");
        assert!(gap8 > gap2, "gap must widen: {gap2} -> {gap8}");
    }

    #[test]
    fn fixed_build_scales() {
        let one = run(1, true);
        let eight = run(8, true);
        // Fixed build should get most of the linear speedup.
        assert!((eight as f64) < one as f64 / 4.0, "one={one} eight={eight}");
    }
}
