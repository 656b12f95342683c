//! Integration tests for the per-run observability registry
//! ([`cheetah_obs::ObsHandle`] threaded through [`MachineConfig`]):
//!
//! (a) two simulators running *concurrently* record fully independent
//!     event counts, whether each carries an explicit registry or the
//!     private one `MachineConfig::default()` gives it — the regression
//!     test for the cross-contamination a process-wide registry showed
//!     under parallel `cargo test`;
//! (b) the per-phase FNV state-hash witness (the determinism divergence
//!     locator's probe) is bit-identical across shard counts {1, 2, 4}
//!     for real registry workloads — the classic loop and the sharded
//!     classify/precompute/merge passes reach the same logical machine
//!     state at every phase boundary, not merely the same final report;
//! (c) every `shard.precompute` span reports the residue it built — its
//!     event count and the fixed-size chunks holding them — and the host
//!     threads it spawned besides the calling one;
//! (d) every `phase` span reports the size of the coherence directory's
//!     line table: its per-line entries and its 64-line pages.

use cheetah_sim::{metrics, Machine, MachineConfig, NullObserver, SchedulePolicy};
use cheetah_workloads::{find, AppConfig};
use proptest::prelude::*;

use cheetah_obs::ObsHandle;

/// Runs `name` broken at the given shape, sharded, on a machine built
/// from `config` and returns the merged-event count of its registry.
fn merged_under(name: &str, threads: u32, scale: f64, config: MachineConfig) -> u64 {
    let app = find(name).expect("registered workload");
    let instance = app.build(&AppConfig {
        threads,
        scale,
        fixed: false,
        seed: 1,
    });
    let machine = Machine::new(config.with_shards(2));
    machine.run(instance.program, &mut NullObserver);
    machine.config().obs.counter(metrics::MERGED_EVENTS).get()
}

/// Two simulators running at the same time, each with its own registry:
/// each registry's count must equal the count the same run produces alone.
#[test]
fn concurrent_runs_have_independent_metrics() {
    let explicit = || MachineConfig::with_cores(16).with_obs(ObsHandle::fresh_untraced());
    for config in [explicit as fn() -> MachineConfig, MachineConfig::default] {
        // Solo baselines, sequentially.
        let solo_small = merged_under("microbench", 4, 0.05, config());
        let solo_large = merged_under("inter_object", 8, 0.1, config());
        assert_ne!(
            solo_small, solo_large,
            "baselines must differ for the independence check to mean anything"
        );

        // The same two runs concurrently.
        let small = std::thread::spawn(move || merged_under("microbench", 4, 0.05, config()));
        let large = std::thread::spawn(move || merged_under("inter_object", 8, 0.1, config()));
        let small = small.join().expect("small run");
        let large = large.join().expect("large run");

        assert_eq!(
            small, solo_small,
            "concurrent neighbour leaked into small run's registry"
        );
        assert_eq!(
            large, solo_large,
            "concurrent neighbour leaked into large run's registry"
        );
    }
}

/// Runs `name` broken with the witness enabled and returns the per-phase
/// `(index, witness)` sequence.
fn phase_witnesses(name: &str, threads: u32, scale: f64, shards: u32) -> Vec<(u64, u64)> {
    let app = find(name).expect("registered workload");
    let instance = app.build(&AppConfig {
        threads,
        scale,
        fixed: false,
        seed: 7,
    });
    let obs = ObsHandle::fresh();
    let machine = Machine::new(
        MachineConfig::with_cores(16)
            .with_shards(shards)
            .with_obs(obs.clone())
            .with_witness(true),
    );
    machine.run(instance.program, &mut NullObserver);
    obs.spans_sorted_by_attr("phase", "index")
        .iter()
        .map(|span| {
            (
                span.attr_u64("index").expect("phase index"),
                span.attr_u64("witness").expect("witness attr"),
            )
        })
        .collect()
}

/// (c) A sharded run's `shard.precompute` spans carry the phase's event
/// count and the number of chunks holding those events.
#[test]
fn precompute_spans_report_event_residue() {
    let app = find("linear_regression").expect("registered workload");
    let instance = app.build(&AppConfig {
        threads: 4,
        scale: 0.05,
        fixed: false,
        seed: 1,
    });
    let obs = ObsHandle::fresh();
    let machine = Machine::new(
        MachineConfig::with_cores(16)
            .with_shards(2)
            .with_obs(obs.clone()),
    );
    machine.run(instance.program, &mut NullObserver);
    let spans = obs.spans_sorted_by_attr("shard.precompute", "phase");
    assert!(!spans.is_empty(), "no shard.precompute spans recorded");
    for span in &spans {
        let events = span.attr_u64("events").expect("events attr");
        let chunks = span.attr_u64("event_chunks").expect("event_chunks attr");
        // Each worker's log ends in an exit event and fills its chunks in
        // order, so every chunk holds at least one event.
        assert!(
            events > 0 && chunks > 0,
            "{events} events in {chunks} chunks"
        );
        assert!(chunks <= events, "{events} events in {chunks} chunks");
    }
}

/// Runs linear_regression broken at four threads on `config` and returns
/// each parallel phase's `(workers, helper_threads)`, phase order.
fn precompute_helpers(config: MachineConfig) -> Vec<(u64, u64)> {
    let app = find("linear_regression").expect("registered workload");
    let instance = app.build(&AppConfig {
        threads: 4,
        scale: 0.05,
        fixed: false,
        seed: 1,
    });
    let obs = ObsHandle::fresh();
    let machine = Machine::new(config.with_obs(obs.clone()));
    machine.run(instance.program, &mut NullObserver);
    let classify = obs.spans_sorted_by_attr("shard.classify", "phase");
    let precompute = obs.spans_sorted_by_attr("shard.precompute", "phase");
    assert!(!precompute.is_empty(), "no shard.precompute spans recorded");
    assert_eq!(classify.len(), precompute.len());
    classify
        .iter()
        .zip(&precompute)
        .map(|(classify, precompute)| {
            assert_eq!(classify.attr_u64("phase"), precompute.attr_u64("phase"));
            (
                classify.attr_u64("workers").expect("workers attr"),
                precompute
                    .attr_u64("helper_threads")
                    .expect("helper_threads attr"),
            )
        })
        .collect()
}

/// (c) Precompute runs on the calling thread too: two shards spawn one
/// helper for a phase of two or more workers, and the one-shard
/// perturbed-schedule route spawns none.
#[test]
fn precompute_spans_report_helper_threads() {
    let two_shards = precompute_helpers(MachineConfig::with_cores(16).with_shards(2));
    for (workers, helpers) in two_shards {
        assert!(workers >= 2, "{workers} workers");
        assert_eq!(helpers, 1, "{workers} workers at 2 shards");
    }
    let perturbed = precompute_helpers(
        MachineConfig::with_cores(16)
            .with_shards(1)
            .with_schedule(SchedulePolicy::SeededShuffle { seed: 3 }),
    );
    for (workers, helpers) in perturbed {
        assert_eq!(helpers, 0, "{workers} workers at 1 shard");
    }
}

/// (d) A classic-loop run's `phase` spans carry the directory table's
/// line and page counts, which only grow from phase to phase.
#[test]
fn phase_spans_report_directory_table_size() {
    let app = find("linear_regression").expect("registered workload");
    let instance = app.build(&AppConfig {
        threads: 4,
        scale: 0.05,
        fixed: false,
        seed: 1,
    });
    let obs = ObsHandle::fresh();
    let machine = Machine::new(MachineConfig::with_cores(16).with_obs(obs.clone()));
    machine.run(instance.program, &mut NullObserver);
    let spans = obs.spans_sorted_by_attr("phase", "index");
    assert!(!spans.is_empty(), "no phase spans recorded");
    let (mut lines_before, mut pages_before) = (0, 0);
    for span in &spans {
        let lines = span
            .attr_u64("directory_lines")
            .expect("directory_lines attr");
        let pages = span
            .attr_u64("directory_pages")
            .expect("directory_pages attr");
        // A page holds at most 64 lines; a page may hold LLC bits only.
        assert!(lines <= 64 * pages, "{lines} lines in {pages} pages");
        assert!(
            lines >= lines_before && pages >= pages_before,
            "table shrank: {lines_before} lines in {pages_before} pages, then {lines} in {pages}"
        );
        (lines_before, pages_before) = (lines, pages);
    }
    assert!(lines_before > 0, "the classic loop tracked no line");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The divergence locator's foundation: for registry workloads, the
    /// per-phase state hash is bit-identical at shard counts 1, 2, and 4.
    #[test]
    fn phase_witness_identical_across_shards(
        name in prop::sample::select(vec![
            "microbench",
            "linear_regression",
            "streamcluster",
            "streaming_histogram",
        ]),
        threads in prop::sample::select(vec![2u32, 4, 8]),
    ) {
        let base = phase_witnesses(name, threads, 0.05, 1);
        prop_assert!(!base.is_empty(), "{name}: no phase spans recorded");
        for shards in [2u32, 4] {
            let sharded = phase_witnesses(name, threads, 0.05, shards);
            prop_assert_eq!(
                &base, &sharded,
                "{}: witness sequence diverged at {} shards", name, shards
            );
        }
    }
}
