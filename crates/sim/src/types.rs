//! Fundamental identifiers and units shared by the whole workspace.
//!
//! These are deliberately small newtypes ([`ThreadId`], [`CoreId`], [`Addr`],
//! [`CacheLineId`]) so that thread ids, core ids and raw addresses cannot be
//! confused at compile time.

use std::fmt;

/// Virtual time and latency unit: CPU cycles.
///
/// Kept as a plain alias because cycle arithmetic is pervasive; the newtypes
/// below guard the values that are easy to mix up.
pub type Cycles = u64;

/// Identifier of a simulated thread.
///
/// Thread 0 is always the main thread; child threads receive monotonically
/// increasing ids in spawn order, across all phases (an application that
/// spawns 16 threads in each of two phases uses ids 1..=32, mirroring how a
/// real profiler sees distinct pthread ids per creation).
///
/// ```
/// use cheetah_sim::ThreadId;
/// assert!(ThreadId::MAIN.is_main());
/// assert!(!ThreadId(3).is_main());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The main (initial) thread of the application.
    pub const MAIN: ThreadId = ThreadId(0);

    /// Returns `true` for the main thread.
    pub fn is_main(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of a physical core of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub u32);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// A virtual byte address in the simulated address space.
///
/// The workspace uses a conventional layout (see [`crate::layout`]): globals
/// live in a low segment, the modelled heap in a high segment. Addresses are
/// plain numbers to the simulator; segmentation is a convention of the
/// allocator and workload crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this address for a given line size.
    ///
    /// `line_size` must be a power of two; this is validated by
    /// [`crate::MachineConfig`] at machine construction.
    ///
    /// ```
    /// use cheetah_sim::Addr;
    /// assert_eq!(Addr(0x1040).line(64).0, 0x41);
    /// assert_eq!(Addr(0x107f).line(64).0, 0x41);
    /// ```
    pub fn line(self, line_size: u64) -> CacheLineId {
        debug_assert!(line_size.is_power_of_two());
        // A shift, not a division: this runs once per simulated access.
        CacheLineId(self.0 >> line_size.trailing_zeros())
    }

    /// Byte offset of this address within its cache line.
    pub fn line_offset(self, line_size: u64) -> u64 {
        debug_assert!(line_size.is_power_of_two());
        self.0 & (line_size - 1)
    }

    /// Index of the 4-byte word within the cache line, as used by Cheetah's
    /// word-granularity sharing classification (§2.4 of the paper).
    pub fn word_in_line(self, line_size: u64) -> usize {
        (self.line_offset(line_size) / WORD_BYTES) as usize
    }

    /// Returns the address advanced by `bytes`.
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Size in bytes of the word granularity used for true/false sharing
/// classification. The paper tracks "word-based (four byte) memory accesses".
pub const WORD_BYTES: u64 = 4;

/// Identifier of a cache line (address divided by the line size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CacheLineId(pub u64);

impl CacheLineId {
    /// First byte address of this line.
    pub fn base(self, line_size: u64) -> Addr {
        Addr(self.0 * line_size)
    }
}

impl fmt::Display for CacheLineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("read"),
            AccessKind::Write => f.write_str("write"),
        }
    }
}

/// Kind of an execution phase in the fork-join model (Fig. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Only the main thread runs.
    Serial,
    /// Child threads created at the phase start run concurrently until all
    /// are joined.
    Parallel,
}

impl fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhaseKind::Serial => f.write_str("serial"),
            PhaseKind::Parallel => f.write_str("parallel"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_mapping_is_floor_division() {
        assert_eq!(Addr(0).line(64), CacheLineId(0));
        assert_eq!(Addr(63).line(64), CacheLineId(0));
        assert_eq!(Addr(64).line(64), CacheLineId(1));
        assert_eq!(Addr(0xffff_ffff).line(64), CacheLineId(0xffff_ffff / 64));
    }

    #[test]
    fn line_offset_and_word_index() {
        assert_eq!(Addr(0x40).line_offset(64), 0);
        assert_eq!(Addr(0x44).word_in_line(64), 1);
        assert_eq!(Addr(0x47).word_in_line(64), 1);
        assert_eq!(Addr(0x7c).word_in_line(64), 15);
    }

    #[test]
    fn line_base_round_trips() {
        let line = Addr(0x1234).line(64);
        assert_eq!(line.base(64), Addr(0x1200));
        assert_eq!(line.base(64).line(64), line);
    }

    #[test]
    fn main_thread_is_zero() {
        assert_eq!(ThreadId::MAIN, ThreadId(0));
        assert!(ThreadId::MAIN.is_main());
        assert!(!ThreadId(1).is_main());
    }

    #[test]
    fn display_formats() {
        assert_eq!(ThreadId(7).to_string(), "T7");
        assert_eq!(CoreId(3).to_string(), "C3");
        assert_eq!(Addr(0x40).to_string(), "0x40");
        assert_eq!(CacheLineId(0x10).to_string(), "L0x10");
        assert_eq!(AccessKind::Read.to_string(), "read");
        assert_eq!(PhaseKind::Parallel.to_string(), "parallel");
    }

    #[test]
    fn access_kind_is_write() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }
}
