//! Allocation budget of the cycle loop: a launch long enough to amortise
//! its set-up (kernel plan, SMs, warps, per-TB state) must average fewer
//! than one heap allocation per simulated cycle under every technique.
//! The steady-state loop reuses per-SM scratch buffers and ordered maps
//! that keep their capacity, so it allocates nothing; what remains is
//! per-launch and per-TB set-up plus DARSIE's leader snapshots.
//!
//! The counting allocator is this test binary's global allocator, and the
//! file holds a single test, so the counts see only the launches below.

use gpu_sim::{GlobalMemory, Gpu, GpuConfig, Technique};
use simt_isa::{CmpOp, Guard, KernelBuilder, LaunchConfig, MemSpace, SpecialReg, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates to `System`; the counter is a plain atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Matrix side; the block is one `TILE`×`TILE` output tile.
const N: u32 = 96;
const TILE: u32 = 16;

/// A shared-memory tiled matrix multiply, `C = A × B`, with `N / TILE`
/// outer iterations of load, barrier, an unrolled inner product and a
/// barrier: TB-uniform, affine and vector work, global and shared
/// traffic, and a basic block per loop body.
fn matmul() -> (simt_compiler::CompiledKernel, LaunchConfig, GlobalMemory) {
    let mut b = KernelBuilder::new("alloc_budget_mm");
    let tx = b.special(SpecialReg::TidX);
    let ty = b.special(SpecialReg::TidY);
    let cx = b.special(SpecialReg::CtaidX);
    let cy = b.special(SpecialReg::CtaidY);
    let a_p = b.param(0);
    let b_p = b.param(1);
    let c_p = b.param(2);
    let smem_a = b.alloc_shared(TILE * TILE * 4);
    let smem_b = b.alloc_shared(TILE * TILE * 4);
    let row = b.imad(cy, TILE, ty);
    let col = b.imad(cx, TILE, tx);
    let acc = b.movf(0.0);
    let slot_lin = b.imad(ty, TILE, tx);
    let slot = b.shl_imm(slot_lin, 2);
    let arow0 = b.imad(row, N, tx);
    let aoff = b.shl_imm(arow0, 2);
    let aptr = b.iadd(a_p, aoff);
    let brow0 = b.imad(ty, N, col);
    let boff = b.shl_imm(brow0, 2);
    let bptr = b.iadd(b_p, boff);
    let t = b.mov(0u32);
    let p = b.alloc_pred();
    b.do_while(|b| {
        let av = b.load(MemSpace::Global, aptr, 0);
        b.store(MemSpace::Shared, slot, av, smem_a as i32);
        let bv = b.load(MemSpace::Global, bptr, 0);
        b.store(MemSpace::Shared, slot, bv, smem_b as i32);
        b.barrier();
        let a_addr = b.shl_imm(ty, 6); // ty * TILE * 4
        let b_addr = b.shl_imm(tx, 2);
        for k in 0..TILE as i32 {
            let la = b.load(MemSpace::Shared, a_addr, smem_a as i32 + k * 4);
            let lb = b.load(MemSpace::Shared, b_addr, smem_b as i32 + k * (TILE as i32 * 4));
            b.ffma_to(acc, la, lb, acc);
        }
        b.barrier();
        b.iadd_to(aptr, aptr, TILE * 4);
        b.iadd_to(bptr, bptr, TILE * N * 4);
        b.iadd_to(t, t, 1u32);
        b.setp_to(p, CmpOp::Lt, t, N / TILE);
        Guard::if_true(p)
    });
    let clin = b.imad(row, N, col);
    let coff = b.shl_imm(clin, 2);
    let caddr = b.iadd(c_p, coff);
    b.store(MemSpace::Global, caddr, acc, 0);
    let ck = simt_compiler::compile(b.finish());

    let words = (N * N) as usize;
    let mut mem = GlobalMemory::new();
    let a = mem.alloc(words as u64 * 4);
    let bm = mem.alloc(words as u64 * 4);
    let c = mem.alloc(words as u64 * 4);
    let vals: Vec<f32> = (0..words).map(|i| (i % 7) as f32 - 3.0).collect();
    mem.write_slice_f32(a, &vals);
    mem.write_slice_f32(bm, &vals);
    let launch = LaunchConfig::new((N / TILE, N / TILE), (TILE, TILE)).with_params(vec![
        Value(a as u32),
        Value(bm as u32),
        Value(c as u32),
    ]);
    (ck, launch, mem)
}

#[test]
fn steady_state_cycle_loop_allocates_less_than_once_per_cycle() {
    // The evaluation machine: the Pascal SM with four SMs.
    let cfg = GpuConfig { num_sms: 4, shadow_check: false, ..GpuConfig::pascal_gtx1080ti() };
    let (ck, launch, mem) = matmul();
    for technique in [
        Technique::Base,
        Technique::Uv,
        Technique::DacIdeal,
        Technique::darsie(),
        Technique::SiliconSync,
    ] {
        let label = technique.label();
        let gpu = Gpu::new(cfg.clone(), technique);
        let memory = mem.clone();
        let before = ALLOCS.load(Ordering::Relaxed);
        let res = gpu.launch(&ck, &launch, memory);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(res.cycles >= 10_000, "{label}: only {} cycles, too short to amortise", res.cycles);
        let per_cycle = allocs as f64 / res.cycles as f64;
        assert!(
            per_cycle < 1.0,
            "{label}: {allocs} allocations over {} cycles = {per_cycle:.2} per cycle",
            res.cycles
        );
        println!("{label}: {allocs} allocations over {} cycles = {per_cycle:.3}", res.cycles);
    }
}
