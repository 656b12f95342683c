//! # cheetah-workloads — the paper's evaluation programs, reproduced
//!
//! Synthetic reproductions of the 17 Phoenix and PARSEC applications the
//! Cheetah paper evaluates (Fig. 4), plus the Fig. 1 false-sharing
//! microbenchmark. Each workload reproduces the original's *memory
//! behaviour*: thread structure (fork-join phases, cohort sizes), which
//! heap objects are shared, which words of which cache lines each thread
//! touches and how often, and the compute density between accesses.
//!
//! Workloads with a known false-sharing problem also ship the paper's fix
//! (`AppConfig::fixed`), so experiments can measure the *real* improvement
//! of fixing and compare it against Cheetah's *prediction* (Table 1):
//!
//! ```
//! use cheetah_sim::{Machine, MachineConfig, NullObserver};
//! use cheetah_workloads::{find, AppConfig};
//!
//! let app = find("linear_regression").unwrap();
//! let machine = Machine::new(MachineConfig::default());
//! let config = AppConfig::with_threads(8).scaled(0.02);
//! let broken = machine.run(app.build(&config).program, &mut NullObserver);
//! let fixed = machine.run(app.build(&config.fixed()).program, &mut NullObserver);
//! assert!(broken.total_cycles > fixed.total_cycles);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod config;
pub mod instance;
pub mod patterns;
pub mod registry;
pub mod sweep;

pub use config::{AppConfig, AppConfigError};
pub use instance::WorkloadInstance;
pub use patterns::{OpTemplate, RandomStream, Segment, SegmentsStream};
pub use registry::{evaluated_apps, find, repair_targets, App, Expectation, APPS};
pub use sweep::{table2_matrix, SweepCell, SWEEP_THREAD_COUNTS};
