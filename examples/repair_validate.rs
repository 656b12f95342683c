//! Profile -> synthesize fix -> re-profile, to a fixpoint, for every
//! workload with known significant false sharing.
//!
//! ```text
//! cargo run --release --example repair_validate [-- --trace out.json]
//! ```
//!
//! With `--trace out.json`, every case's simulator-phase and
//! converge-iteration spans are collected in one tracing
//! `cheetah::obs::ObsHandle` and exported as Perfetto-loadable Chrome
//! trace-event JSON.
//!
//! For each workload this prints the convergence trace of
//! `cheetah_repair::converge`: one line per applied fix with the predicted
//! vs. measured improvement of that step and the number of significant
//! instances remaining afterwards — the loop a programmer would run by
//! hand (fix the worst instance, re-profile, repeat) fully automated. The
//! fixes applied are the ones `cheetah-repair` synthesizes from each
//! profile, not the hand-written `fixed` builds.

use cheetah::core::CheetahConfig;
use cheetah::obs::ObsHandle;
use cheetah::repair::{converge, ConvergeConfig, ValidationHarness};
use cheetah::sim::{Machine, MachineConfig};
use cheetah::workloads::{find, AppConfig};

const USAGE: &str = "repair_validate [--trace out.json]";

fn usage_exit(error: &str) -> ! {
    eprintln!("error: {error}\nusage: {USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => {
                let path = args
                    .next()
                    .unwrap_or_else(|| usage_exit("--trace needs a path"));
                trace_path = Some(path);
            }
            other => usage_exit(&format!("unknown argument {other:?}")),
        }
    }
    let obs = if trace_path.is_some() {
        ObsHandle::fresh()
    } else {
        ObsHandle::fresh_untraced()
    };
    let cases = [
        ("microbench", 8u32, 0.05, 256u64, 8u32),
        ("linear_regression", 8, 0.25, 128, 48),
        ("linear_regression", 16, 0.25, 128, 48),
        ("streamcluster", 8, 0.5, 64, 48),
        // Two tiny per-thread counters per cache line: each fix frees its
        // line-neighbour too, so convergence takes several pad-to-line
        // iterations.
        ("inter_object", 8, 0.1, 64, 16),
        // Three hot counters per line: the first fix on a line leaves a
        // contended pair (partial credit), the second carries the joint
        // payoff.
        ("packed_triplet", 6, 0.1, 64, 16),
        // Hot writer + read-mostly neighbour: only the counter is ever
        // reported, yet padding it frees the reader too — visible in the
        // final step's prediction.
        ("reader_writer", 4, 0.1, 64, 16),
    ];
    for (name, threads, scale, period, cores) in cases {
        let app = find(name).expect("registered app");
        let config = AppConfig {
            threads,
            scale,
            fixed: false,
            seed: 1,
        };
        let harness = ValidationHarness::calibrated(
            Machine::new(MachineConfig::with_cores(cores).with_obs(obs.clone())),
            CheetahConfig::scaled(period).with_obs(obs.clone()),
        );
        // Fix everything detectable; the default threshold would already
        // skip noise-level instances.
        let bounds = ConvergeConfig::exhaustive(16);
        let trace = converge(
            &harness,
            &format!("{name} ({threads} threads, period {period})"),
            || app.build(&config),
            &bounds,
        )
        .expect("synthesized repair must apply");
        println!("{trace}");
    }
    if let Some(path) = trace_path {
        std::fs::write(&path, obs.chrome_trace()).expect("write chrome trace");
        println!("wrote {path} (load in https://ui.perfetto.dev)");
    }
}
