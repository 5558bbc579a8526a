//! The DARSIE microarchitecture structures (paper Section 4.3).
//!
//! These are the hardware blocks Figure 7 adds to the baseline SM:
//!
//! * [`SkipTable`] — the PC skip table that tracks the program counters
//!   currently being skipped, one bank per threadblock (Section 4.3.2);
//! * [`PcCoalescer`] — merges same-PC probes from multiple warps in one
//!   cycle so the skip table needs only two read ports (Section 4.3.4);
//! * [`RenameState`] — the register rename table, version table and
//!   physical-register freelist that let follower warps read leader values
//!   (Section 4.3.1);
//! * [`MajorityMask`] — one bit per warp marking who is on the TB-majority
//!   control-flow path (Section 4.3.3);
//! * [`DarsieConfig`] / [`DarsieStats`] — knobs and activity counters
//!   consumed by the timing and energy models;
//! * [`VecMap`] — the small sorted-`Vec` map the per-TB state is kept in,
//!   ordered by key so digests and release loops never sort.
//!
//! The structures are pure state machines: the GPU simulator drives them
//! from its fetch stage and attaches the architectural values. This keeps
//! every transition unit-testable in isolation.

pub mod coalescer;
pub mod config;
pub mod majority;
pub mod rename;
pub mod skip_table;
pub mod stats;
pub mod vecmap;

pub use coalescer::PcCoalescer;
pub use config::DarsieConfig;
pub use majority::MajorityMask;
pub use rename::RenameState;
pub use skip_table::{ProbeOutcome, SkipEntry, SkipTable};
pub use stats::DarsieStats;
pub use vecmap::VecMap;

/// A set of warps within one threadblock, one bit per warp slot (the paper
/// allows at most 32 warps per TB, hence a `u32`).
pub type WarpMask = u32;

/// Maximum warps per threadblock supported by the mask width.
pub const MAX_WARPS_PER_TB: u32 = 32;
