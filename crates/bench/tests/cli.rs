//! Bad command lines end in a usage error (exit 2), never a panic.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("spawn bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains("usage: ") && !stderr.contains("panicked"),
        "{bin} {args:?}: {stderr}"
    );
}

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    let sim = env!("CARGO_BIN_EXE_sim_throughput");
    let robust = env!("CARGO_BIN_EXE_robustness_sweep");
    let schedule = env!("CARGO_BIN_EXE_schedule_explore");
    let table2 = env!("CARGO_BIN_EXE_table2_prediction");
    for bin in [sim, robust, schedule, table2] {
        assert_usage_error(bin, &["--bogus"]);
        assert_usage_error(bin, &["--threads", "x"]);
    }
    assert_usage_error(sim, &["--shards", "2,4"]);
    assert_usage_error(sim, &["--reps"]);
    assert_usage_error(schedule, &["--seeds", ""]);
    assert_usage_error(schedule, &["--schedule-seed", "1"]);
    assert_usage_error(robust, &["--workloads", "no_such_app"]);
    // A workload configuration no app can build is a usage error too.
    for bin in [robust, schedule] {
        assert_usage_error(bin, &["--threads", "0"]);
        assert_usage_error(bin, &["--scale", "0"]);
        assert_usage_error(bin, &["--scale", "nan"]);
        assert_usage_error(bin, &["--threads", "17", "--workloads", "microbench"]);
    }
}
