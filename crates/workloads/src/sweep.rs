//! The Table-2 validation matrix: which (workload, threads, period) cells
//! the prediction-validation sweep covers, with per-workload tuning.
//!
//! The paper's Table 2 validates predictions at one configuration per
//! workload; the ROADMAP's scaled-up experiment sweeps thread counts and
//! sampling periods. This module is the single source of truth for that
//! matrix so the bench binary, the integration tests and CI all agree on
//! the cells (and so adding a workload or a period extends everything at
//! once).

use crate::config::AppConfig;
use crate::registry::{find, App};

/// Thread counts every matrix workload is swept over (Table 1's axis).
pub const SWEEP_THREAD_COUNTS: [u32; 4] = [2, 4, 8, 16];

/// One cell of the validation matrix.
#[derive(Debug, Clone, Copy)]
pub struct SweepCell {
    /// The workload.
    pub app: &'static App,
    /// Worker threads per parallel phase.
    pub threads: u32,
    /// Sampling period (instructions between samples, before overhead
    /// scaling).
    pub period: u64,
    /// Workload scale factor.
    pub scale: f64,
    /// Simulated cores.
    pub cores: u32,
    /// Significance threshold for the cell's fixpoint repair loop
    /// (`ConvergeConfig::min_predicted_improvement`). Cross-object
    /// workloads run exhaustively (0.0): under the phase-max model an
    /// individual line fix can predict a near-1.0x step even though the
    /// loop as a whole pays off, so a noise threshold would strand real
    /// instances.
    pub min_predicted_improvement: f64,
    /// Iteration bound for the cell's fixpoint repair loop
    /// (`ConvergeConfig::max_iterations`). Cross-object cells need roughly
    /// one fix per shared line, so the bound scales with the thread axis.
    pub max_iterations: u32,
}

impl SweepCell {
    /// The workload configuration of this cell (broken build, fixed seed).
    pub fn app_config(&self) -> AppConfig {
        AppConfig {
            threads: self.threads,
            scale: self.scale,
            fixed: false,
            seed: 1,
        }
    }
}

/// Per-workload sweep tuning.
struct Tuning {
    name: &'static str,
    scale: f64,
    periods: [u64; 2],
    cores: u32,
    /// Converge significance threshold for the workload's cells.
    min_predicted_improvement: f64,
    /// Base converge iteration bound. The cell's bound is
    /// `base_iterations + threads` when `iterations_scale_with_threads`
    /// is set (cross-object workloads need roughly one fix per
    /// co-resident line), plain `base_iterations` otherwise.
    base_iterations: u32,
    /// Whether the iteration bound grows with the thread axis.
    iterations_scale_with_threads: bool,
}

/// Per-workload sweep tuning: scale and the sampling periods to cover.
///
/// Scales keep each run large enough to sample meaningfully at every
/// swept thread count. The two periods per workload bracket the density
/// the original single-cell experiment used, avoiding periods that alias
/// with the workload's loop body (an IBS-jittered interval is only
/// randomized within `period/8`, so a near-resonant period samples reads
/// and writes unevenly and skews the latency estimate the assessment
/// scales by).
///
/// The cross-object workloads (inter_object and the three PR-4 additions)
/// run their converge loops exhaustively: each shared line needs its own
/// fix, individual steps can legitimately predict ~1.0x (the phase is
/// limited by threads on *other* still-broken lines), and the iteration
/// bound grows with the thread count.
const TUNING: [Tuning; 7] = [
    Tuning {
        name: "linear_regression",
        scale: 0.25,
        periods: [128, 192],
        cores: 48,
        min_predicted_improvement: 1.005,
        base_iterations: 8,
        iterations_scale_with_threads: false,
    },
    Tuning {
        name: "streamcluster",
        scale: 0.5,
        periods: [32, 64],
        cores: 48,
        min_predicted_improvement: 1.005,
        base_iterations: 8,
        iterations_scale_with_threads: false,
    },
    Tuning {
        name: "microbench",
        scale: 0.05,
        periods: [256, 320],
        cores: 48,
        min_predicted_improvement: 1.005,
        base_iterations: 8,
        iterations_scale_with_threads: false,
    },
    Tuning {
        name: "inter_object",
        scale: 0.1,
        periods: [48, 64],
        cores: 48,
        min_predicted_improvement: 0.0,
        base_iterations: 8,
        iterations_scale_with_threads: true,
    },
    Tuning {
        name: "packed_triplet",
        scale: 0.1,
        periods: [48, 64],
        cores: 48,
        min_predicted_improvement: 0.0,
        base_iterations: 8,
        iterations_scale_with_threads: true,
    },
    Tuning {
        name: "struct_straddle",
        scale: 0.1,
        periods: [48, 64],
        cores: 48,
        min_predicted_improvement: 0.0,
        base_iterations: 8,
        iterations_scale_with_threads: true,
    },
    Tuning {
        name: "reader_writer",
        scale: 0.1,
        periods: [48, 64],
        cores: 48,
        min_predicted_improvement: 0.0,
        base_iterations: 8,
        iterations_scale_with_threads: true,
    },
];

/// The full validation matrix: every tuned workload × every thread count ×
/// every period, workloads in registry order.
pub fn table2_matrix() -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for tuning in &TUNING {
        let app = find(tuning.name).expect("matrix workload is registered");
        for threads in SWEEP_THREAD_COUNTS {
            for period in tuning.periods {
                cells.push(SweepCell {
                    app,
                    threads,
                    period,
                    scale: tuning.scale,
                    cores: tuning.cores,
                    min_predicted_improvement: tuning.min_predicted_improvement,
                    max_iterations: if tuning.iterations_scale_with_threads {
                        tuning.base_iterations + threads
                    } else {
                        tuning.base_iterations
                    },
                });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_seven_workloads_by_four_thread_counts() {
        let cells = table2_matrix();
        assert_eq!(cells.len(), 7 * 4 * 2);
        for &threads in &SWEEP_THREAD_COUNTS {
            assert!(cells.iter().filter(|c| c.threads == threads).count() >= 7);
        }
        let mut names: Vec<&str> = cells.iter().map(|c| c.app.name()).collect();
        names.dedup();
        assert_eq!(
            names,
            vec![
                "linear_regression",
                "streamcluster",
                "microbench",
                "inter_object",
                "packed_triplet",
                "struct_straddle",
                "reader_writer",
            ]
        );
    }

    #[test]
    fn cells_build_valid_configs() {
        for cell in table2_matrix() {
            assert_eq!(cell.app_config().validate(), Ok(()));
            assert!(cell.period > 0);
            assert!(cell.cores >= cell.threads);
            assert!(cell.max_iterations >= 8);
            assert!(cell.min_predicted_improvement >= 0.0);
        }
    }

    #[test]
    fn cross_object_cells_run_exhaustively_with_scaled_bounds() {
        let cells = table2_matrix();
        for cell in cells {
            let cross_object = matches!(
                cell.app.name(),
                "inter_object" | "packed_triplet" | "struct_straddle" | "reader_writer"
            );
            if cross_object {
                assert_eq!(cell.min_predicted_improvement, 0.0, "{}", cell.app.name());
                assert_eq!(cell.max_iterations, 8 + cell.threads);
            } else {
                assert_eq!(cell.min_predicted_improvement, 1.005);
                assert_eq!(cell.max_iterations, 8);
            }
        }
    }
}
