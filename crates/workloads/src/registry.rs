//! The application registry: the 17 evaluated programs plus the Fig. 1
//! microbenchmark, addressable by name.

use crate::apps;
use crate::config::{AppConfig, AppConfigError};
use crate::instance::WorkloadInstance;
use std::fmt;

/// What kind of sharing problem the *broken* build of an app contains —
/// the ground truth the detection experiments are judged against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// False sharing with significant performance impact; Cheetah must
    /// detect it (linear_regression, streamcluster).
    SignificantFalseSharing,
    /// False sharing with negligible impact (<0.2% per Fig. 7); Cheetah is
    /// expected to *miss* it at deployment sampling rates (histogram,
    /// reverse_index, word_count).
    MinorFalseSharing,
    /// No false sharing worth reporting.
    NoFalseSharing,
    /// False sharing that the observed schedule hides: the broken layout
    /// packs contending writers onto one line, but their bursts happen to
    /// run in anti-phase, so a single observed run shows nothing. Only
    /// schedule-space exploration (perturbed
    /// [`SchedulePolicy`](cheetah_sim::SchedulePolicy) runs) detects it
    /// (staggered_writers).
    HiddenFalseSharing,
}

impl fmt::Display for Expectation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expectation::SignificantFalseSharing => f.write_str("significant false sharing"),
            Expectation::MinorFalseSharing => f.write_str("minor false sharing"),
            Expectation::NoFalseSharing => f.write_str("no false sharing"),
            Expectation::HiddenFalseSharing => f.write_str("schedule-hidden false sharing"),
        }
    }
}

/// A registered application.
#[derive(Clone, Copy)]
pub struct App {
    name: &'static str,
    suite: &'static str,
    expectation: Expectation,
    builder: fn(&AppConfig) -> WorkloadInstance,
    /// The most worker threads the app can be built with.
    max_threads: u32,
}

impl App {
    /// The application's name, as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Benchmark suite the app comes from (`"phoenix"`, `"parsec"` or
    /// `"micro"`).
    pub fn suite(&self) -> &'static str {
        self.suite
    }

    /// The ground-truth sharing expectation of the broken build.
    pub fn expectation(&self) -> Expectation {
        self.expectation
    }

    /// Builds an instance, or reports why `config` cannot build this app:
    /// an invalid configuration ([`AppConfig::validate`]) or more threads
    /// than the app supports.
    pub fn try_build(&self, config: &AppConfig) -> Result<WorkloadInstance, AppConfigError> {
        config.validate()?;
        if config.threads > self.max_threads {
            return Err(AppConfigError::TooManyThreads {
                app: self.name,
                threads: config.threads,
                max: self.max_threads,
            });
        }
        Ok((self.builder)(config))
    }

    /// Builds an instance.
    ///
    /// # Panics
    ///
    /// Panics if [`try_build`](App::try_build) rejects `config`.
    pub fn build(&self, config: &AppConfig) -> WorkloadInstance {
        self.try_build(config)
            .unwrap_or_else(|error| panic!("{error}"))
    }
}

impl fmt::Debug for App {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("App")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .field("expectation", &self.expectation)
            .finish()
    }
}

/// Every application of the paper's evaluation (Fig. 4 order), plus the
/// Fig. 1 microbenchmark under the name `"microbench"`.
pub const APPS: &[App] = &[
    App {
        name: "blackscholes",
        suite: "parsec",
        expectation: Expectation::NoFalseSharing,
        builder: apps::parsec::blackscholes,
        max_threads: u32::MAX,
    },
    App {
        name: "bodytrack",
        suite: "parsec",
        expectation: Expectation::NoFalseSharing,
        builder: apps::parsec::bodytrack,
        max_threads: u32::MAX,
    },
    App {
        name: "canneal",
        suite: "parsec",
        expectation: Expectation::NoFalseSharing,
        builder: apps::parsec::canneal,
        max_threads: u32::MAX,
    },
    App {
        name: "facesim",
        suite: "parsec",
        expectation: Expectation::NoFalseSharing,
        builder: apps::parsec::facesim,
        max_threads: u32::MAX,
    },
    App {
        name: "fluidanimate",
        suite: "parsec",
        expectation: Expectation::NoFalseSharing,
        builder: apps::parsec::fluidanimate,
        max_threads: u32::MAX,
    },
    App {
        name: "freqmine",
        suite: "parsec",
        expectation: Expectation::NoFalseSharing,
        builder: apps::parsec::freqmine,
        max_threads: u32::MAX,
    },
    App {
        name: "histogram",
        suite: "phoenix",
        expectation: Expectation::MinorFalseSharing,
        builder: apps::phoenix::histogram,
        max_threads: u32::MAX,
    },
    App {
        name: "kmeans",
        suite: "phoenix",
        expectation: Expectation::NoFalseSharing,
        builder: apps::phoenix::kmeans,
        max_threads: u32::MAX,
    },
    App {
        name: "linear_regression",
        suite: "phoenix",
        expectation: Expectation::SignificantFalseSharing,
        builder: apps::linear_regression::build,
        max_threads: u32::MAX,
    },
    App {
        name: "matrix_multiply",
        suite: "phoenix",
        expectation: Expectation::NoFalseSharing,
        builder: apps::phoenix::matrix_multiply,
        max_threads: u32::MAX,
    },
    App {
        name: "pca",
        suite: "phoenix",
        expectation: Expectation::NoFalseSharing,
        builder: apps::phoenix::pca,
        max_threads: u32::MAX,
    },
    App {
        name: "string_match",
        suite: "phoenix",
        expectation: Expectation::NoFalseSharing,
        builder: apps::phoenix::string_match,
        max_threads: u32::MAX,
    },
    App {
        name: "reverse_index",
        suite: "phoenix",
        expectation: Expectation::MinorFalseSharing,
        builder: apps::phoenix::reverse_index,
        max_threads: u32::MAX,
    },
    App {
        name: "streamcluster",
        suite: "parsec",
        expectation: Expectation::SignificantFalseSharing,
        builder: apps::streamcluster::build,
        max_threads: u32::MAX,
    },
    App {
        name: "swaptions",
        suite: "parsec",
        expectation: Expectation::NoFalseSharing,
        builder: apps::parsec::swaptions,
        max_threads: u32::MAX,
    },
    App {
        name: "word_count",
        suite: "phoenix",
        expectation: Expectation::MinorFalseSharing,
        builder: apps::phoenix::word_count,
        max_threads: u32::MAX,
    },
    App {
        name: "x264",
        suite: "parsec",
        expectation: Expectation::NoFalseSharing,
        builder: apps::parsec::x264,
        max_threads: u32::MAX,
    },
    App {
        name: "microbench",
        suite: "micro",
        expectation: Expectation::SignificantFalseSharing,
        builder: apps::microbench::build,
        max_threads: apps::microbench::MAX_THREADS,
    },
    App {
        name: "inter_object",
        suite: "micro",
        expectation: Expectation::SignificantFalseSharing,
        builder: apps::interobject::build,
        max_threads: u32::MAX,
    },
    App {
        name: "packed_triplet",
        suite: "micro",
        expectation: Expectation::SignificantFalseSharing,
        builder: apps::packed_triplet::build,
        max_threads: u32::MAX,
    },
    App {
        name: "struct_straddle",
        suite: "micro",
        expectation: Expectation::SignificantFalseSharing,
        builder: apps::struct_straddle::build,
        max_threads: u32::MAX,
    },
    App {
        name: "reader_writer",
        suite: "micro",
        expectation: Expectation::SignificantFalseSharing,
        builder: apps::reader_writer::build,
        max_threads: u32::MAX,
    },
    App {
        name: "streaming_histogram",
        suite: "micro",
        expectation: Expectation::MinorFalseSharing,
        builder: apps::streaming_histogram::build,
        max_threads: u32::MAX,
    },
    App {
        name: "staggered_writers",
        suite: "micro",
        expectation: Expectation::HiddenFalseSharing,
        builder: apps::staggered_writers::build,
        max_threads: u32::MAX,
    },
];

/// The 17 applications of the paper's Fig. 4 (excludes the
/// microbenchmark).
pub fn evaluated_apps() -> impl Iterator<Item = &'static App> {
    APPS.iter().filter(|a| a.suite != "micro")
}

/// The applications whose broken builds carry significant false sharing —
/// the targets automated repair (`cheetah-repair`) is validated against.
/// Their hand-written `fixed` builds remain available as a reference, but
/// repair experiments should prefer the synthesized fix: it is derived
/// from the profile alone, which is the claim under test.
pub fn repair_targets() -> impl Iterator<Item = &'static App> {
    APPS.iter()
        .filter(|a| a.expectation == Expectation::SignificantFalseSharing)
}

/// Looks an application up by name.
pub fn find(name: &str) -> Option<&'static App> {
    APPS.iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_build_reports_bad_configs() {
        let micro = find("microbench").expect("registered");
        assert_eq!(
            micro.try_build(&AppConfig::with_threads(17)).err(),
            Some(AppConfigError::TooManyThreads {
                app: "microbench",
                threads: 17,
                max: 16,
            })
        );
        assert!(micro.try_build(&AppConfig::with_threads(16)).is_ok());
        for app in APPS {
            assert_eq!(
                app.try_build(&AppConfig::with_threads(0)).err(),
                Some(AppConfigError::NoThreads),
                "{}",
                app.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "microbench supports at most 16 threads")]
    fn build_panics_on_a_bad_config() {
        find("microbench")
            .expect("registered")
            .build(&AppConfig::with_threads(17));
    }

    #[test]
    fn seventeen_evaluated_apps() {
        assert_eq!(evaluated_apps().count(), 17);
        // + microbench, the four cross-object micros, the
        // streaming-classification micro and the schedule-hidden micro.
        assert_eq!(APPS.len(), 24);
    }

    #[test]
    fn find_by_name() {
        assert_eq!(
            find("linear_regression").unwrap().name(),
            "linear_regression"
        );
        assert_eq!(
            find("linear_regression").unwrap().expectation(),
            Expectation::SignificantFalseSharing
        );
        assert!(find("nonexistent").is_none());
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<_> = APPS.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), APPS.len());
    }

    #[test]
    fn repair_targets_are_the_significant_fs_apps() {
        let names: Vec<&str> = repair_targets().map(|a| a.name()).collect();
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
    fn fig7_trio_marked_minor() {
        for name in ["histogram", "reverse_index", "word_count"] {
            assert_eq!(
                find(name).unwrap().expectation(),
                Expectation::MinorFalseSharing,
                "{name}"
            );
        }
    }

    #[test]
    fn debug_format_mentions_name() {
        let text = format!("{:?}", find("canneal").unwrap());
        assert!(text.contains("canneal"));
    }
}
