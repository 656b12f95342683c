//! False-sharing detection (§2 of the paper): two-entry invalidation
//! tables, the write-count pre-filter, word-granularity tracking and the
//! sample-driven [`Detector`].

pub mod detector;
pub mod line_state;
pub mod lines;
pub mod prefilter;
pub mod sketch;
pub mod table;
pub mod words;

pub use detector::{
    Detector, IngestOutcome, IngestStats, ObjectAccum, ObjectKey, QuarantineCounts, ThreadOnObject,
};
pub use line_state::LineDetail;
pub use lines::{LineAccum, LineResidency, LineSlice};
pub use prefilter::LinePrefilter;
pub use sketch::CountMinSketch;
pub use table::{TableEntry, TwoEntryTable, WriteOutcome};
pub use words::{WordMap, WordStats, WordThreadStats};
