//! A cycle-level SIMT GPU simulator with integrated redundancy-elimination
//! techniques, built for the DARSIE (ASPLOS 2020) reproduction.
//!
//! The simulator models the paper's baseline (Figure 4 / Table 2): per-SM
//! fetch scheduler and I-cache, two-entry per-warp I-buffers, GTO/LRR issue
//! schedulers, a scoreboard, banked vector register file with an operand
//! collector conflict model, SP/SFU/LSU execution units, a global memory
//! coalescer, L1/L2 caches, bandwidth-limited DRAM, shared-memory banking
//! and stack-based SIMT divergence.
//!
//! Redundancy techniques ([`Technique`]):
//!
//! * `Base` — the unmodified pipeline;
//! * `Uv` — issue-stage instruction reuse of uniform instructions;
//! * `DacIdeal` — idealized decoupled affine computation;
//! * `Darsie(cfg)` — fetch-stage instruction skipping with the paper's PC
//!   skip table, PC coalescer, register renaming and majority-path
//!   tracking;
//! * `SiliconSync` — baseline plus a barrier at every basic-block boundary
//!   (Figure 12's synchronization-cost control).
//!
//! ```
//! use gpu_sim::{Gpu, GpuConfig, Technique};
//! use gpu_sim::mem::GlobalMemory;
//! use simt_isa::{KernelBuilder, LaunchConfig, MemSpace, SpecialReg, Value};
//!
//! // out[tid.y * ntid.x + tid.x] = in[tid.x]  (a skippable tid.x chain)
//! let mut b = KernelBuilder::new("bcast");
//! let tx = b.special(SpecialReg::TidX);
//! let ty = b.special(SpecialReg::TidY);
//! let ntx = b.special(SpecialReg::NtidX);
//! let src = b.param(0);
//! let dst = b.param(1);
//! let a_in = {
//!     let o = b.shl_imm(tx, 2);
//!     b.iadd(src, o)
//! };
//! let v = b.load(MemSpace::Global, a_in, 0);
//! let lin = b.imad(ty, ntx, tx);
//! let a_out = {
//!     let o = b.shl_imm(lin, 2);
//!     b.iadd(dst, o)
//! };
//! b.store(MemSpace::Global, a_out, v, 0);
//! let ck = simt_compiler::compile(b.finish());
//!
//! let mut mem = GlobalMemory::new();
//! let a = mem.alloc(64);
//! let o = mem.alloc(1024);
//! let launch = LaunchConfig::new(1u32, (16u32, 16u32))
//!     .with_params(vec![Value(a as u32), Value(o as u32)]);
//! let gpu = Gpu::new(GpuConfig::test_small(), Technique::darsie());
//! let result = gpu.launch(&ck, &launch, mem);
//! assert!(result.stats.instrs_skipped.total() > 0);
//! ```

pub mod config;
pub mod digest;
pub mod events;
pub mod exec;
pub mod functional;
pub mod gpu;
pub mod mem;
pub mod occupancy;
pub mod profile;
pub mod reuse;
pub mod sm;
pub mod stats;
pub mod tb;
pub mod timing;
pub mod tracer;
pub mod warp;

pub use config::{GpuConfig, SchedulerPolicy, Technique};
pub use digest::{
    localize, CoarseDivergence, ComponentDigests, DigestCadence, DigestChain, DigestConfig,
    Divergence, EpochDigest, Perturb, RunDigests,
};
pub use events::{EventKind, EventLog, PipeEvent};
pub use exec::alu;
pub use functional::{
    ctaid_at, run_tb_functional, FunctionalObserver, GlobalRace, GlobalRaceSanitizer, NullObserver,
    RaceSanitizer, SharedRace,
};
pub use gpu::{Gpu, SimResult};
pub use mem::GlobalMemory;
pub use occupancy::{occupancy, Limiter, Occupancy};
pub use profile::{
    LatencyHist, OccupancySample, PcProfile, SimProfile, SlotCounts, SmProfile, StallCause,
    WarpSlotProfile,
};
pub use stats::{PcMemStat, SimStats, TaxonomyCounts};
pub use tracer::{trace_redundancy, RedundancyTrace};
pub use warp::Warp;
