//! `cheetah-analyze` command lines: bad input is a usage error (exit 2),
//! never a panic, and stays distinct from `--lint`'s exit 1.

use std::process::{Command, Output};

fn analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cheetah-analyze"))
        .args(args)
        .output()
        .expect("spawn cheetah-analyze")
}

#[test]
fn bad_input_prints_usage_and_exits_2() {
    for args in [
        &["no_such_app"][..],
        &["--threads"],
        &["--threads", "x"],
        &["--threads", "0"],
        &["--scale", "0"],
        &["--scale", "nan"],
        &["--threads", "17", "microbench"],
        &["--lint", "--threads", "17", "microbench"],
    ] {
        let out = analyze(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: ") && !stderr.contains("panicked"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn good_input_succeeds() {
    let help = analyze(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("usage: "));
    let report = analyze(&["--threads", "4", "--scale", "0.01", "microbench"]);
    assert_eq!(
        report.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&report.stderr)
    );
    assert!(String::from_utf8_lossy(&report.stdout).contains("microbench"));
}
