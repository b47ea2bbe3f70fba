//! The per-cycle tick path performs no heap allocation. A counting
//! global allocator (per thread, so parallel tests do not interfere)
//! watches 10,000 steady-state cycles of a single-CC run and of a
//! cluster run. Integer, FPU, SSR/ISSR stream, DMA and narrow
//! main-memory traffic are all in flight during the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use issr::cluster::{Cluster, ClusterParams, FlightRecorder};
use issr::core::cfg::{cfg_addr, idx_cfg_word, reg as sreg};
use issr::core::serializer::IndexSize;
use issr::isa::asm::{Assembler, Program};
use issr::isa::instr::Stagger;
use issr::isa::reg::{FpReg as F, IntReg as R};
use issr::isa::Csr;
use issr::mem::map::{MAIN_BASE, TCDM_BASE};
use issr::snitch::cc::{Machine, SingleCcSim};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP_CYCLES: u64 = 20_000;
const WINDOW_CYCLES: u64 = 10_000;
/// Elements per stream job.
const N: u32 = 64;
/// Each hart's private data block in the TCDM (hart `h` at `h + 1`).
const BLOCK: u32 = 0x2000;
const IDCS: u32 = 0x400;
const DENSE: u32 = 0x800;
const OUT: i32 = 0x1000;
/// The DMCC's DMA landing zone and the length of one copy.
const DMA_DST: u32 = TCDM_BASE + 0x3_0000;
const DMA_BYTES: i64 = 512;

/// A program that never halts. Workers loop forever over: an SSR
/// (`ft0`, affine) times ISSR (`ft1`, 16-bit indirection) dot product
/// under FREP, an FPU-to-integer conversion, and an integer load/add
/// loop with stores. The DMCC (hart 8 in a cluster) loops over a DMA
/// copy from main memory, a completion poll and a narrow main load.
fn steady_program() -> Program {
    let mut a = Assembler::new();
    a.csrr(R::T0, Csr::MHartId);
    let dmcc = a.new_label();
    a.li(R::T1, 8);
    a.beq(R::T0, R::T1, dmcc);
    // s0 = this hart's block; s1 = dense base, s2 = index base.
    a.addi(R::T1, R::T0, 1);
    a.slli(R::T1, R::T1, 13);
    a.li_addr(R::S0, TCDM_BASE);
    a.add(R::S0, R::S0, R::T1);
    a.li(R::T1, i64::from(DENSE));
    a.add(R::S1, R::S0, R::T1);
    a.li(R::T1, i64::from(IDCS));
    a.add(R::S2, R::S0, R::T1);
    for lane in 0..2u8 {
        a.li(R::T1, i64::from(N - 1));
        a.scfgwi(R::T1, cfg_addr(sreg::BOUNDS[0], lane));
    }
    a.li(R::T1, 8);
    a.scfgwi(R::T1, cfg_addr(sreg::STRIDES[0], 0));
    a.li(R::T1, i64::from(idx_cfg_word(IndexSize::U16, 0)));
    a.scfgwi(R::T1, cfg_addr(sreg::IDX_CFG, 1));
    a.scfgwi(R::S1, cfg_addr(sreg::DATA_BASE, 1));
    let head = a.bind_label();
    a.scfgwi(R::S0, cfg_addr(sreg::RPTR[0], 0));
    a.scfgwi(R::S2, cfg_addr(sreg::RPTR[0], 1));
    a.csrsi(Csr::Ssr, 1);
    for k in 0..4 {
        a.fcvt_d_w(F::FT2.offset(k), R::ZERO);
    }
    a.li(R::T1, i64::from(N - 1));
    a.frep_outer(R::T1, 1, Stagger::accumulator(4));
    a.fmadd_d(F::FT2, F::FT0, F::FT1, F::FT2);
    a.fadd_d(F::FT2, F::FT2, F::FT3);
    a.fadd_d(F::FT4, F::FT4, F::FT5);
    a.fadd_d(F::FT2, F::FT2, F::FT4);
    a.csrci(Csr::Ssr, 1);
    a.fsd(F::FT2, R::S0, OUT);
    a.fcvt_w_d(R::T4, F::FT2);
    a.sw(R::T4, R::S0, OUT + 8);
    a.li(R::T1, 8);
    a.li(R::T2, 0);
    a.addi(R::A5, R::S0, 0);
    let sum = a.bind_label();
    a.lw(R::T3, R::A5, 0);
    a.add(R::T2, R::T2, R::T3);
    a.addi(R::A5, R::A5, 8);
    a.addi(R::T1, R::T1, -1);
    a.bnez(R::T1, sum);
    a.sw(R::T2, R::S0, OUT + 16);
    a.j(head);
    a.bind(dmcc);
    a.li_addr(R::A0, MAIN_BASE);
    a.li_addr(R::A1, DMA_DST);
    a.dmsrc(R::A0, R::ZERO);
    a.dmdst(R::A1, R::ZERO);
    a.li(R::A2, DMA_BYTES);
    let copy = a.bind_label();
    a.dmcpyi(R::A3, R::A2, 0);
    let poll = a.bind_label();
    a.dmstati(R::T2, 1);
    a.bnez(R::T2, poll);
    a.lw(R::T3, R::A0, 0);
    a.add(R::T4, R::T4, R::T3);
    a.j(copy);
    a.finish().expect("steady program assembles")
}

/// Fills hart `hart`'s block through `store`: values `j + 1`, indices
/// reversed, dense `2 j`. Returns the dot product the stream loop
/// computes.
fn marshal(hart: u32, mut store: impl FnMut(u32, u64)) -> f64 {
    let base = TCDM_BASE + (hart + 1) * BLOCK;
    let mut dot = 0.0;
    for j in 0..N {
        let idx = N - 1 - j;
        let val = f64::from(j + 1);
        let dense = f64::from(2 * idx);
        store(base + j * 8, val.to_bits());
        store(base + DENSE + j * 8, f64::from(2 * j).to_bits());
        dot += val * dense;
    }
    // Pack the 16-bit indices four to a word.
    for w in 0..N / 4 {
        let word = (0..4u32).fold(0u64, |acc, k| acc | u64::from(N - 1 - (4 * w + k)) << (16 * k));
        store(base + IDCS + w * 8, word);
    }
    dot
}

fn assert_no_allocs(what: &str, mut tick: impl FnMut()) {
    for _ in 0..WARMUP_CYCLES {
        tick();
    }
    let before = allocs();
    for _ in 0..WINDOW_CYCLES {
        tick();
    }
    let n = allocs() - before;
    assert_eq!(n, 0, "{what}: {n} heap allocations in {WINDOW_CYCLES} steady-state cycles");
}

#[test]
fn single_cc_tick_does_not_allocate() {
    let mut sim = SingleCcSim::new(steady_program());
    let dot = marshal(0, |addr, v| sim.mem.array_mut().store_u64(addr, v));
    assert_no_allocs("single CC", || sim.tick());
    let out = TCDM_BASE + BLOCK + OUT as u32;
    assert_eq!(sim.mem.array().load_f64(out), dot, "stream loop result");
    assert!(sim.cc.core.trap().is_none());
}

#[test]
fn cluster_tick_does_not_allocate() {
    let params = ClusterParams::default();
    let mut cluster = Cluster::new(steady_program(), params);
    let mut flight = FlightRecorder::new(std::slice::from_ref(&cluster));
    let mut dots = Vec::new();
    for hart in 0..params.n_workers as u32 {
        dots.push(marshal(hart, |addr, v| cluster.tcdm.array_mut().store_u64(addr, v)));
    }
    assert_no_allocs("cluster", || {
        cluster.tick();
        flight.sample(std::slice::from_ref(&cluster));
    });
    for (hart, dot) in dots.iter().enumerate() {
        let out = TCDM_BASE + (hart as u32 + 1) * BLOCK + OUT as u32;
        assert_eq!(cluster.tcdm.array().load_f64(out), *dot, "hart {hart} stream loop result");
    }
    let summary = cluster.summary();
    assert!(summary.traps.is_empty(), "{:?}", summary.traps);
    assert!(summary.dma_stats.words_in > 0, "the DMCC's copies ran");
    assert!(summary.tcdm_stats.conflicts > 0, "the workers contended for banks");
}
