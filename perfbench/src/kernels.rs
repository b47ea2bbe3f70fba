//! One function per kernel and harness: plan + assembly, lint, `new` +
//! marshal, run, readback and oracle check, each timed as its own layer
//! call. A trap, a `SimTimeout` or an oracle mismatch comes back as
//! `Err`; panics are caught one level up.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use issr_cluster::cluster::{Cluster, ClusterAttribution, ClusterParams, ClusterSummary};
use issr_isa::asm::Program;
use issr_kernels::cluster_spgemm::{build_cluster_spgemm, ClusterSpgemmPlan};
use issr_kernels::layout::{
    csr_addrs, fiber_addrs, read_csr_out, store_csr, store_fiber, Arena, CsrOutAddrs,
};
use issr_kernels::spvv::SpvvAddrs;
use issr_kernels::system_csrmv::build_system_csrmv;
use issr_kernels::system_spgemm::{build_system_spgemm, SystemSpgemmPlan};
use issr_kernels::variant::{KernelIndex, Variant};
use issr_kernels::{
    build_cluster_csrmv, build_csrmv, build_spgemm, build_spmspv, build_spvv, ClusterCsrmvPlan,
    CsrmvAddrs, SpgemmAddrs, SpmspvAddrs,
};
use issr_lint::{lint_program, LintTarget, Severity};
use issr_model::power::PowerModel;
use issr_snitch::attr::CcAttribution;
use issr_snitch::cc::{RunSummary, SimTimeout, SingleCcSim, SINGLE_CC_ARENA};
use issr_sparse::csr::CsrMatrix;
use issr_sparse::dense::allclose;
use issr_sparse::fiber::SparseFiber;
use issr_sparse::reference;
use issr_system::system::{System, SystemParams, SystemSummary};
use issr_trace::attr::{CycleBreakdown, StallCause};
use issr_trace::merge::merge_all;

use crate::rec::{Phase, Recorder};

/// Clusters of every system run.
pub const SYSTEM_CLUSTERS: usize = 4;

/// The harness a kernel ran on (the outermost one that ticks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Harness {
    Cc,
    Cluster,
    System,
}

/// Simulated unit counters summed from the run summaries' attribution
/// tables and statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Units {
    pub hart_active: u64,
    pub hart_fifo_empty: u64,
    pub hart_port_conflict: u64,
    pub hart_barrier_wait: u64,
    pub lane_fifo_full: u64,
    pub lane_port_conflict: u64,
    pub joiner_active: u64,
    pub spacc_active: u64,
    pub spacc_overlap: u64,
    pub tcdm_conflicts: u64,
    pub dma_words: u64,
    pub dma_bw_denied: u64,
    pub sys_overlap: u64,
    pub sys_denied: u64,
    pub sys_served: u64,
}

impl Units {
    pub fn add(&mut self, o: &Units) {
        self.hart_active += o.hart_active;
        self.hart_fifo_empty += o.hart_fifo_empty;
        self.hart_port_conflict += o.hart_port_conflict;
        self.hart_barrier_wait += o.hart_barrier_wait;
        self.lane_fifo_full += o.lane_fifo_full;
        self.lane_port_conflict += o.lane_port_conflict;
        self.joiner_active += o.joiner_active;
        self.spacc_active += o.spacc_active;
        self.spacc_overlap += o.spacc_overlap;
        self.tcdm_conflicts += o.tcdm_conflicts;
        self.dma_words += o.dma_words;
        self.dma_bw_denied += o.dma_bw_denied;
        self.sys_overlap += o.sys_overlap;
        self.sys_denied += o.sys_denied;
        self.sys_served += o.sys_served;
    }

    fn add_cc(&mut self, attr: &CcAttribution) {
        let get = |b: &CycleBreakdown, c| b.get(c);
        self.hart_active += get(&attr.hart, StallCause::Active);
        self.hart_fifo_empty += get(&attr.hart, StallCause::FifoEmpty);
        self.hart_port_conflict += get(&attr.hart, StallCause::PortConflict);
        self.hart_barrier_wait += get(&attr.hart, StallCause::BarrierWait);
        for lane in &attr.lanes {
            self.lane_fifo_full += get(lane, StallCause::FifoFull);
            self.lane_port_conflict += get(lane, StallCause::PortConflict);
        }
        self.joiner_active += get(&attr.joiner, StallCause::Active);
        self.spacc_active += get(&attr.spacc, StallCause::Active);
    }

    fn from_cc(s: &RunSummary) -> Self {
        let mut u = Units::default();
        u.add_cc(&s.attr);
        u.spacc_overlap = s.spacc_stats.overlap_cycles;
        u.tcdm_conflicts = s.tcdm_stats.conflicts;
        u
    }

    fn from_cluster(s: &ClusterSummary) -> Self {
        let mut u = Units::default();
        for w in &s.attr.workers {
            u.add_cc(w);
        }
        u.spacc_overlap = s.spacc_stats.iter().map(|st| st.overlap_cycles).sum();
        u.tcdm_conflicts = s.tcdm_stats.conflicts;
        u.dma_words = s.dma_stats.words_in + s.dma_stats.words_out;
        u.dma_bw_denied = s.attr.dma.get(StallCause::BwDenied);
        u
    }

    fn from_system(s: &SystemSummary) -> Self {
        let mut u = Units::default();
        for c in &s.clusters {
            u.add(&Units::from_cluster(c));
        }
        u.sys_overlap = s.overlap_cycles;
        u.sys_denied = s.main.dma_denied;
        u.sys_served = s.main.wide_beats;
        u
    }
}

/// Energy of one cluster or system run under the default power model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Energy {
    pub total_pj: f64,
    pub pj_per_fmadd: f64,
}

/// Everything the benchmark keeps from one clean, oracle-checked run.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub harness: Harness,
    /// Cycles the outermost harness ticked.
    pub cycles: u64,
    /// ROI cycles on the single-CC harness, elapsed cycles otherwise.
    pub work: u64,
    pub fmadds: u64,
    /// FPUs the `work` cycles are spent on (workers across clusters).
    pub fpus: u64,
    /// FPU utilization: ROI for single-CC, peak worker for cluster/system.
    pub util: f64,
    pub units: Units,
    pub energy: Option<Energy>,
    /// `max(0, critical path length − measured window)`.
    pub critpath_excess: u64,
    /// Host threads the system ticked on (0 off the system harness).
    pub threads: usize,
    /// Hash of cycles and output bits, for the determinism check.
    pub fingerprint: u64,
}

pub type KernelResult = Result<Outcome, String>;

fn fingerprint(cycles: u64, bits: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = DefaultHasher::new();
    cycles.hash(&mut h);
    for b in bits {
        b.hash(&mut h);
    }
    h.finish()
}

fn f64_bits(v: &[f64]) -> impl Iterator<Item = u64> + '_ {
    v.iter().map(|x| x.to_bits())
}

fn lint(rec: &mut Recorder, program: &Program, target: &LintTarget) -> Result<(), String> {
    let diags = rec.time(Phase::Lint, "lint_program", || lint_program(program, target));
    match diags.iter().find(|d| d.severity == Severity::Error) {
        Some(d) => Err(format!("lint rejected the program at pc {:#x}: {}", d.pc, d.message)),
        None => Ok(()),
    }
}

fn timeout(e: SimTimeout) -> String {
    format!("timeout: {e}")
}

fn check_vec(got: &[f64], expect: &[f64]) -> Result<(), String> {
    if allclose(got, expect, 1e-12, 1e-12) {
        Ok(())
    } else {
        Err("result differs from the reference oracle".into())
    }
}

fn check_csr(got: &CsrMatrix<u32>, expect: &CsrMatrix<u32>) -> Result<(), String> {
    if got.ptr() != expect.ptr() || got.idcs() != expect.idcs() {
        return Err("product structure differs from the reference oracle".into());
    }
    check_vec(got.vals(), expect.vals())
}

fn cc_outcome(s: &RunSummary, bits: impl IntoIterator<Item = u64>) -> Outcome {
    let path = s.attr.critical_path();
    Outcome {
        harness: Harness::Cc,
        cycles: s.cycles,
        work: s.metrics.roi.cycles,
        fmadds: s.metrics.roi.fmadds,
        fpus: 1,
        util: s.metrics.fpu_utilization(),
        units: Units::from_cc(s),
        energy: None,
        critpath_excess: path.length.saturating_sub(s.metrics.roi.cycles),
        threads: 0,
        fingerprint: fingerprint(s.cycles, bits),
    }
}

fn cluster_outcome(s: &ClusterSummary, bits: impl IntoIterator<Item = u64>) -> Outcome {
    let e = PowerModel::default().evaluate(s);
    Outcome {
        harness: Harness::Cluster,
        cycles: s.cycles,
        work: s.cycles,
        fmadds: s.total_fmadds(),
        fpus: s.worker_metrics.len() as u64,
        util: s.peak_worker_utilization(),
        units: Units::from_cluster(s),
        energy: Some(Energy { total_pj: e.total_nj * 1e3, pj_per_fmadd: e.pj_per_fmadd }),
        critpath_excess: s.attr.critical_path().length.saturating_sub(s.cycles),
        threads: 0,
        fingerprint: fingerprint(s.cycles, bits),
    }
}

fn system_outcome(
    s: &SystemSummary,
    threads: usize,
    bits: impl IntoIterator<Item = u64>,
) -> Outcome {
    let e = PowerModel::default().evaluate_system(s);
    let attr: ClusterAttribution = merge_all(s.clusters.iter().map(|c| &c.attr));
    Outcome {
        harness: Harness::System,
        cycles: s.cycles,
        work: s.cycles,
        fmadds: s.total_fmadds(),
        fpus: s.clusters.iter().map(|c| c.worker_metrics.len() as u64).sum(),
        util: s.clusters.iter().map(ClusterSummary::peak_worker_utilization).fold(0.0, f64::max),
        units: Units::from_system(s),
        energy: Some(Energy { total_pj: e.total_nj * 1e3, pj_per_fmadd: e.pj_per_fmadd }),
        critpath_excess: attr.critical_path().length.saturating_sub(s.cycles),
        threads,
        fingerprint: fingerprint(s.cycles, bits),
    }
}

fn single_cc_arena() -> Arena {
    Arena::new(SINGLE_CC_ARENA, SingleCcSim::DEFAULT_MEM_BYTES / 2)
}

fn alloc_f64s(arena: &mut Arena, len: usize) -> u32 {
    arena.alloc((len as u32).max(1) * 8, 8)
}

/// Runs a marshalled single-CC harness and times the run; a trap is an error.
fn run_cc(rec: &mut Recorder, sim: &mut SingleCcSim, budget: u64) -> Result<RunSummary, String> {
    let summary =
        rec.time(Phase::RunCc, "SingleCcSim::run", || sim.run(budget)).map_err(timeout)?;
    match summary.trap {
        Some(trap) => Err(format!("trap: {trap}")),
        None => Ok(summary),
    }
}

/// Runs a marshalled cluster and times the run; a trap is an error.
fn run_cluster(
    rec: &mut Recorder,
    cluster: &mut Cluster,
    budget: u64,
) -> Result<ClusterSummary, String> {
    let summary =
        rec.time(Phase::RunCluster, "Cluster::run", || cluster.run(budget)).map_err(timeout)?;
    match summary.traps.first() {
        Some(trap) => Err(format!("trap: {trap}")),
        None => Ok(summary),
    }
}

/// Runs a marshalled system and times the run; a trap is an error.
fn run_system(
    rec: &mut Recorder,
    system: &mut System,
    budget: u64,
) -> Result<SystemSummary, String> {
    let summary =
        rec.time(Phase::RunSystem, "System::run", || system.run(budget)).map_err(timeout)?;
    match summary.traps().first() {
        Some((c, trap)) => Err(format!("trap in cluster {c}: {trap}")),
        None => Ok(summary),
    }
}

/// Single-CC SpVV (Fig. 4a).
pub fn cc_spvv<I: KernelIndex>(
    rec: &mut Recorder,
    variant: Variant,
    a: &SparseFiber<I>,
    b: &[f64],
) -> KernelResult {
    let (addrs, program) = rec.time(Phase::Build, "build_spvv", || {
        let mut arena = single_cc_arena();
        let fiber = fiber_addrs::<I>(&mut arena, a.nnz() as u32);
        let b_addr = alloc_f64s(&mut arena, b.len());
        let out = alloc_f64s(&mut arena, 1);
        let addrs = SpvvAddrs { a: fiber, b: b_addr, out };
        (addrs, build_spvv::<I>(variant, addrs))
    });
    lint(rec, &program, &LintTarget::paper())?;
    let mut sim = rec.time(Phase::Marshal, "SingleCcSim::new+marshal", || {
        let mut sim = SingleCcSim::new(program);
        let mem = sim.mem.array_mut();
        store_fiber(mem, addrs.a, a);
        mem.store_f64_slice(addrs.b, b);
        sim
    });
    let summary = run_cc(rec, &mut sim, 100_000 + 64 * u64::from(addrs.a.nnz))?;
    let got = rec.time(Phase::Readback, "load_f64", || sim.mem.array().load_f64(addrs.out));
    rec.time(Phase::Oracle, "reference::spvv", || {
        let expect = reference::spvv(a, b);
        if (got - expect).abs() <= 1e-12 * expect.abs().max(1.0) {
            Ok(())
        } else {
            Err(format!("SpVV result {got} differs from the oracle {expect}"))
        }
    })?;
    Ok(cc_outcome(&summary, [got.to_bits()]))
}

/// Single-CC CsrMV (Fig. 4b).
pub fn cc_csrmv<I: KernelIndex>(
    rec: &mut Recorder,
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &[f64],
) -> KernelResult {
    let (addrs, program) = rec.time(Phase::Build, "build_csrmv", || {
        let mut arena = single_cc_arena();
        let a = csr_addrs::<I>(&mut arena, m.nrows() as u32, m.nnz() as u32);
        let x_addr = alloc_f64s(&mut arena, x.len());
        let y = alloc_f64s(&mut arena, m.nrows());
        let addrs = CsrmvAddrs { a, x: x_addr, y };
        (addrs, build_csrmv::<I>(variant, addrs))
    });
    lint(rec, &program, &LintTarget::paper())?;
    let mut sim = rec.time(Phase::Marshal, "SingleCcSim::new+marshal", || {
        let mut sim = SingleCcSim::new(program);
        let mem = sim.mem.array_mut();
        store_csr(mem, addrs.a, m);
        mem.store_f64_slice(addrs.x, x);
        sim
    });
    let budget = 200_000 + 64 * u64::from(addrs.a.nnz) + 64 * u64::from(addrs.a.nrows);
    let summary = run_cc(rec, &mut sim, budget)?;
    let y = rec.time(Phase::Readback, "load_f64_slice", || {
        sim.mem.array().load_f64_slice(addrs.y, m.nrows())
    });
    rec.time(Phase::Oracle, "reference::csrmv", || check_vec(&y, &reference::csrmv(m, x)))?;
    Ok(cc_outcome(&summary, f64_bits(&y)))
}

/// Single-CC SpMSpV through the index joiner.
pub fn cc_spmspv<I: KernelIndex>(
    rec: &mut Recorder,
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &SparseFiber<I>,
) -> KernelResult {
    let (addrs, program) = rec.time(Phase::Build, "build_spmspv", || {
        let mut arena = single_cc_arena();
        let a = csr_addrs::<I>(&mut arena, m.nrows() as u32, m.nnz() as u32);
        let xf = fiber_addrs::<I>(&mut arena, x.nnz() as u32);
        let y = alloc_f64s(&mut arena, m.nrows());
        let addrs = SpmspvAddrs { a, x: xf, y };
        (addrs, build_spmspv::<I>(variant, addrs))
    });
    lint(rec, &program, &LintTarget::sssr())?;
    let mut sim = rec.time(Phase::Marshal, "SingleCcSim::with_joiner+marshal", || {
        let mut sim = SingleCcSim::with_joiner(program);
        let mem = sim.mem.array_mut();
        store_csr(mem, addrs.a, m);
        store_fiber(mem, addrs.x, x);
        sim
    });
    let merge_steps =
        u64::from(addrs.a.nnz) + u64::from(addrs.a.nrows) * u64::from(addrs.x.nnz + 4);
    let summary = run_cc(rec, &mut sim, 200_000 + 64 * merge_steps)?;
    let y = rec.time(Phase::Readback, "load_f64_slice", || {
        sim.mem.array().load_f64_slice(addrs.y, m.nrows())
    });
    rec.time(Phase::Oracle, "reference::spmspv", || check_vec(&y, &reference::spmspv(m, x)))?;
    Ok(cc_outcome(&summary, f64_bits(&y)))
}

/// Gustavson expansion volume of `a · b` (the multiply count).
fn expansion_volume<I: KernelIndex>(a: &CsrMatrix<I>, b: &CsrMatrix<I>) -> u64 {
    (0..a.nrows()).map(|r| a.row(r).map(|(k, _)| b.row_range(k).len() as u64).sum::<u64>()).sum()
}

fn csr_bits(c: &CsrMatrix<u32>) -> impl Iterator<Item = u64> + '_ {
    c.ptr()
        .iter()
        .map(|&p| u64::from(p))
        .chain(c.idcs().iter().map(|&i| u64::from(i)))
        .chain(f64_bits(c.vals()))
}

/// Single-CC SpGEMM: software merge (BASE) or SpAcc (ISSR).
pub fn cc_spgemm<I: KernelIndex>(
    rec: &mut Recorder,
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
) -> KernelResult {
    let (addrs, program) = rec.time(Phase::Build, "build_spgemm", || {
        let mut arena = single_cc_arena();
        let a_addrs = csr_addrs::<I>(&mut arena, a.nrows() as u32, a.nnz() as u32);
        let b_addrs = csr_addrs::<I>(&mut arena, b.nrows() as u32, b.nnz() as u32);
        let nnz_cap = reference::spgemm_ptr(a, b).last().copied().unwrap_or(0);
        let ptr = arena.alloc(((a.nrows() as u32 + 1) * 4 + 7) & !7, 8);
        let vals = arena.alloc(nnz_cap.max(1) * 8, 8);
        let idcs = arena.alloc((nnz_cap.max(1) * I::BYTES + 7) & !7, 8);
        let c = CsrOutAddrs { ptr, idcs, vals, nnz_cap };
        let row_cap = (b.ncols() as u32).max(1);
        let idx_bytes = (row_cap * I::BYTES + 7) & !7;
        let scratch_idx = [arena.alloc(idx_bytes, 8), arena.alloc(idx_bytes, 8)];
        let scratch_vals = [arena.alloc(row_cap * 8, 8), arena.alloc(row_cap * 8, 8)];
        let addrs = SpgemmAddrs { a: a_addrs, b: b_addrs, c, scratch_idx, scratch_vals };
        (addrs, build_spgemm::<I>(variant, a.nrows() as u32, addrs))
    });
    lint(rec, &program, &LintTarget::sssr())?;
    let mut sim = rec.time(Phase::Marshal, "SingleCcSim::with_joiner+marshal", || {
        let mut sim = SingleCcSim::with_joiner(program);
        let mem = sim.mem.array_mut();
        store_csr(mem, addrs.a, a);
        store_csr(mem, addrs.b, b);
        mem.store_u32(addrs.c.ptr, 0);
        sim
    });
    let volume = expansion_volume(a, b) + u64::from(addrs.c.nnz_cap) + a.nnz() as u64;
    let summary = run_cc(rec, &mut sim, 300_000 + 256 * (volume + a.nrows() as u64))?;
    let c = rec.time(Phase::Readback, "read_csr_out", || {
        read_csr_out::<I>(sim.mem.array(), addrs.c, a.nrows(), b.ncols()).with_index_width::<u32>()
    });
    rec.time(Phase::Oracle, "reference::spgemm", || {
        check_csr(&c, &reference::spgemm(a, b).with_index_width::<u32>())
    })?;
    Ok(cc_outcome(&summary, csr_bits(&c)))
}

fn cluster_params(sssr: bool) -> ClusterParams {
    ClusterParams { sssr, ..ClusterParams::default() }
}

/// 8-worker cluster CsrMV (Fig. 4c/4d), 16-bit indices.
pub fn cluster_csrmv(
    rec: &mut Recorder,
    variant: Variant,
    m: &CsrMatrix<u16>,
    x: &[f64],
) -> KernelResult {
    let params = cluster_params(false);
    let (plan, program) = rec.time(Phase::Build, "ClusterCsrmvPlan+build_cluster_csrmv", || {
        let plan = ClusterCsrmvPlan::new(m, params.n_workers as u32);
        let program = build_cluster_csrmv::<u16>(variant, &plan);
        (plan, program)
    });
    lint(rec, &program, &LintTarget::paper())?;
    let mut cluster = rec.time(Phase::Marshal, "Cluster::new+marshal", || {
        let mut cluster = Cluster::new(program, params);
        plan.marshal(&mut cluster, m, x);
        cluster
    });
    let budget = 1_000_000 + 32 * m.nnz() as u64 + 512 * m.nrows() as u64;
    let summary = run_cluster(rec, &mut cluster, budget)?;
    let y = rec.time(Phase::Readback, "read_y", || plan.read_y(&cluster));
    rec.time(Phase::Oracle, "reference::csrmv", || check_vec(&y, &reference::csrmv(m, x)))?;
    Ok(cluster_outcome(&summary, f64_bits(&y)))
}

/// 8-worker cluster two-pass SpGEMM, 16-bit indices.
pub fn cluster_spgemm(
    rec: &mut Recorder,
    variant: Variant,
    a: &CsrMatrix<u16>,
    b: &CsrMatrix<u16>,
) -> KernelResult {
    let params = cluster_params(true);
    let (plan, program) = rec.time(Phase::Build, "ClusterSpgemmPlan+build_cluster_spgemm", || {
        let plan = ClusterSpgemmPlan::new(a, b, params.n_workers as u32);
        let program = build_cluster_spgemm::<u16>(variant, &plan);
        (plan, program)
    });
    lint(rec, &program, &LintTarget::sssr())?;
    let mut cluster = rec.time(Phase::Marshal, "Cluster::new+marshal", || {
        let mut cluster = Cluster::new(program, params);
        plan.marshal(&mut cluster, a, b);
        cluster
    });
    let volume = expansion_volume(a, b);
    let budget = 4_000_000 + 1024 * (2 * volume + u64::from(plan.c_cap()) + a.nrows() as u64);
    let summary = run_cluster(rec, &mut cluster, budget)?;
    let c = rec
        .time(Phase::Readback, "read_c", || plan.read_c::<u16>(&cluster).with_index_width::<u32>());
    rec.time(Phase::Oracle, "reference::spgemm", || {
        check_csr(&c, &reference::spgemm(a, b).with_index_width::<u32>())
    })?;
    Ok(cluster_outcome(&summary, csr_bits(&c)))
}

fn system_params(sssr: bool) -> SystemParams {
    let mut params = SystemParams { n_clusters: SYSTEM_CLUSTERS, ..SystemParams::default() };
    params.cluster.sssr = sssr;
    params
}

/// 4-cluster system CsrMV streamed from main memory, 16-bit indices.
pub fn system_csrmv(
    rec: &mut Recorder,
    variant: Variant,
    m: &CsrMatrix<u16>,
    x: &[f64],
) -> KernelResult {
    let params = system_params(false);
    let (plan, program) = rec.time(Phase::Build, "ClusterCsrmvPlan+build_system_csrmv", || {
        let plan = ClusterCsrmvPlan::new(m, params.cluster.n_workers as u32);
        let program = build_system_csrmv::<u16>(variant, &plan);
        (plan, program)
    });
    lint(rec, &program, &LintTarget::paper())?;
    let mut system = rec.time(Phase::Marshal, "System::new+marshal", || {
        let mut system = System::new(program, params);
        plan.marshal_into(system.main.array_mut(), m, x);
        system.set_work_queue(plan.queue_addr());
        system
    });
    let budget = 1_000_000 + 64 * m.nnz() as u64 + 1024 * m.nrows() as u64;
    let summary = run_system(rec, &mut system, budget)?;
    let y = rec.time(Phase::Readback, "read_y_from", || plan.read_y_from(system.main.array()));
    rec.time(Phase::Oracle, "reference::csrmv", || check_vec(&y, &reference::csrmv(m, x)))?;
    Ok(system_outcome(&summary, system.n_threads(), f64_bits(&y)))
}

/// 4-cluster system SpGEMM with panel capacities capped so the output
/// drains through several panels, 16-bit indices.
pub fn system_spgemm(
    rec: &mut Recorder,
    variant: Variant,
    a: &CsrMatrix<u16>,
    b: &CsrMatrix<u16>,
    caps: (u32, u32),
) -> KernelResult {
    let params = system_params(true);
    let (plan, program) = rec.time(Phase::Build, "SystemSpgemmPlan+build_system_spgemm", || {
        let n_workers = params.cluster.n_workers as u32;
        let plan = SystemSpgemmPlan::with_panel_caps(variant, a, b, n_workers, caps.0, caps.1);
        let program = build_system_spgemm::<u16>(variant, &plan);
        (plan, program)
    });
    lint(rec, &program, &LintTarget::sssr())?;
    let mut system = rec.time(Phase::Marshal, "System::new+marshal", || {
        let mut system = System::new(program, params);
        plan.marshal(system.main.array_mut(), a, b);
        system.set_work_queue(plan.queue_addr());
        system
    });
    let volume = expansion_volume(a, b);
    let budget = 4_000_000 + 1024 * (3 * volume + a.nnz() as u64 + a.nrows() as u64);
    let summary = run_system(rec, &mut system, budget)?;
    let c = rec.time(Phase::Readback, "stitch", || plan.stitch::<u16>(system.main.array()));
    rec.time(Phase::Oracle, "reference::spgemm", || {
        check_csr(&c, &reference::spgemm(a, b).with_index_width::<u32>())
    })?;
    Ok(system_outcome(&summary, system.n_threads(), csr_bits(&c)))
}
