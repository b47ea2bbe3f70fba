//! The per-figure experiment runners.

use issr_core::spacc::SpAccStats;
use issr_kernels::cluster_csrmv::run_cluster_csrmv;
use issr_kernels::cluster_spgemm::{build_cluster_spgemm, run_cluster_spgemm, ClusterSpgemmPlan};
use issr_kernels::csrmm::run_csrmm;
use issr_kernels::csrmv::run_csrmv;
use issr_kernels::spgemm::{run_spgemm, run_spgemm_buffered, run_spgemm_recover};
use issr_kernels::spmspv::{run_spmspv, run_spvv_ss};
use issr_kernels::spvv::run_spvv;
use issr_kernels::system_csrmv::{run_system_csrmv, run_system_csrmv_traced};
use issr_kernels::system_spgemm::{run_system_spgemm_planned, SystemSpgemmPlan};
use issr_kernels::variant::Variant;
use issr_model::power::PowerModel;
use issr_sparse::csr::CsrMatrix;
use issr_sparse::dense::DenseMatrix;
use issr_sparse::{gen, reference, suite};
use issr_trace::ratio;

/// One series point of Fig. 4a: SpVV FPU utilization against nnz.
#[derive(Clone, Copy, Debug)]
pub struct Fig4aRow {
    /// Sparse vector nonzeros.
    pub nnz: usize,
    /// BASE utilization (identical for 16/32-bit indices).
    pub base: f64,
    /// SSR utilization.
    pub ssr: f64,
    /// ISSR, 32-bit indices, excluding the reduction.
    pub issr32: f64,
    /// ISSR, 32-bit, including the reduction (`m` suffix).
    pub issr32_m: f64,
    /// ISSR, 16-bit indices, excluding the reduction.
    pub issr16: f64,
    /// ISSR, 16-bit, including the reduction.
    pub issr16_m: f64,
}

/// Fig. 4a: single-CC SpVV FPU utilization sweep.
#[must_use]
pub fn fig4a(points: &[usize]) -> Vec<Fig4aRow> {
    let dim = 2048;
    points
        .iter()
        .map(|&nnz| {
            let mut rng = gen::rng(0x000F_164A + nnz as u64);
            let a32 = gen::sparse_vector::<u32>(&mut rng, dim, nnz);
            let a16 = a32.with_index_width::<u16>();
            let b = gen::dense_vector(&mut rng, dim);
            let base = run_spvv(Variant::Base, &a32, &b).expect("base run");
            let ssr = run_spvv(Variant::Ssr, &a32, &b).expect("ssr run");
            let i32r = run_spvv(Variant::Issr, &a32, &b).expect("issr32 run");
            let i16r = run_spvv(Variant::Issr, &a16, &b).expect("issr16 run");
            Fig4aRow {
                nnz,
                base: base.summary.metrics.fpu_utilization(),
                ssr: ssr.summary.metrics.fpu_utilization(),
                issr32: i32r.summary.metrics.fpu_utilization(),
                issr32_m: i32r.summary.metrics.fpu_utilization_with_reduction(),
                issr16: i16r.summary.metrics.fpu_utilization(),
                issr16_m: i16r.summary.metrics.fpu_utilization_with_reduction(),
            }
        })
        .collect()
}

/// One series point of Fig. 4b: single-CC CsrMV speedup over BASE.
#[derive(Clone, Copy, Debug)]
pub struct Fig4bRow {
    /// Average nonzeros per row.
    pub row_nnz: usize,
    /// SSR speedup over BASE.
    pub ssr: f64,
    /// ISSR 32-bit speedup.
    pub issr32: f64,
    /// ISSR 16-bit speedup.
    pub issr16: f64,
}

/// Fig. 4b: single-CC CsrMV speedup sweep over nnz/row.
#[must_use]
pub fn fig4b(points: &[usize]) -> Vec<Fig4bRow> {
    let (nrows, ncols) = (64, 2048);
    points
        .iter()
        .map(|&row_nnz| {
            let mut rng = gen::rng(0x000F_164B + row_nnz as u64);
            let m32 = gen::csr_fixed_row_nnz::<u32>(&mut rng, nrows, ncols, row_nnz);
            let m16 = m32.with_index_width::<u16>();
            let x = gen::dense_vector(&mut rng, ncols);
            let cycles = |v, wide: bool| -> u64 {
                if wide {
                    run_csrmv(v, &m32, &x).expect("run").summary.metrics.roi.cycles
                } else {
                    run_csrmv(v, &m16, &x).expect("run").summary.metrics.roi.cycles
                }
            };
            let base = cycles(Variant::Base, true) as f64;
            Fig4bRow {
                row_nnz,
                ssr: ratio(base, cycles(Variant::Ssr, true) as f64),
                issr32: ratio(base, cycles(Variant::Issr, true) as f64),
                issr16: ratio(base, cycles(Variant::Issr, false) as f64),
            }
        })
        .collect()
}

/// One series point of Fig. 4c: cluster CsrMV speedup (ISSR-16 / BASE).
#[derive(Clone, Copy, Debug)]
pub struct Fig4cRow {
    /// Average nonzeros per row.
    pub row_nnz: usize,
    /// BASE cluster cycles.
    pub base_cycles: u64,
    /// ISSR-16 cluster cycles.
    pub issr_cycles: u64,
    /// Speedup.
    pub speedup: f64,
    /// Peak per-worker FPU utilization (paper: 0.8 → ≈0.71).
    pub peak_util: f64,
    /// Cluster-aggregate utilization (for §V).
    pub cluster_util: f64,
}

/// Fig. 4c: cluster CsrMV sweep over nnz/row.
#[must_use]
pub fn fig4c(points: &[usize]) -> Vec<Fig4cRow> {
    let (nrows, ncols) = (512, 2048);
    points
        .iter()
        .map(|&row_nnz| {
            let mut rng = gen::rng(0x000F_164C + row_nnz as u64);
            let m = gen::csr_clustered::<u16>(
                &mut rng,
                nrows,
                ncols,
                row_nnz,
                (row_nnz * 4).clamp(16, ncols),
            );
            let x = gen::dense_vector(&mut rng, ncols);
            let base = run_cluster_csrmv(Variant::Base, &m, &x).expect("base run");
            let issr = run_cluster_csrmv(Variant::Issr, &m, &x).expect("issr run");
            Fig4cRow {
                row_nnz,
                base_cycles: base.summary.cycles,
                issr_cycles: issr.summary.cycles,
                speedup: ratio(base.summary.cycles as f64, issr.summary.cycles as f64),
                peak_util: issr.summary.peak_worker_utilization(),
                cluster_util: issr.summary.cluster_utilization(),
            }
        })
        .collect()
}

/// One row of Fig. 4d: per-matrix cluster CsrMV energy.
#[derive(Clone, Debug)]
pub struct Fig4dRow {
    /// Suite matrix name.
    pub name: String,
    /// Nonzeros.
    pub nnz: usize,
    /// BASE average power (mW) — paper anchor ≈ 89 mW.
    pub base_mw: f64,
    /// ISSR average power (mW) — paper anchor ≈ 194 mW.
    pub issr_mw: f64,
    /// BASE energy per fmadd (pJ).
    pub base_pj: f64,
    /// ISSR energy per fmadd (pJ).
    pub issr_pj: f64,
    /// Efficiency gain (paper: up to 2.7×).
    pub gain: f64,
}

/// Fig. 4d: cluster CsrMV energy over the matrix suite.
///
/// `max_nnz` caps the matrices simulated (the full suite's largest
/// entries take minutes; binaries pass a generous cap, Criterion a
/// small one).
#[must_use]
pub fn fig4d(max_nnz: usize) -> Vec<Fig4dRow> {
    let model = PowerModel::default();
    suite::suite()
        .into_iter()
        .filter(|e| e.nnz <= max_nnz)
        .map(|entry| {
            let m = entry.build::<u16>();
            let mut rng = gen::rng(0x000F_164D);
            let x = gen::dense_vector(&mut rng, m.ncols());
            let base = run_cluster_csrmv(Variant::Base, &m, &x).expect("base run");
            let issr = run_cluster_csrmv(Variant::Issr, &m, &x).expect("issr run");
            let eb = model.evaluate(&base.summary);
            let ei = model.evaluate(&issr.summary);
            Fig4dRow {
                name: entry.name.to_owned(),
                nnz: entry.nnz,
                base_mw: eb.avg_power_mw,
                issr_mw: ei.avg_power_mw,
                base_pj: eb.pj_per_fmadd,
                issr_pj: ei.pj_per_fmadd,
                gain: ratio(eb.pj_per_fmadd, ei.pj_per_fmadd),
            }
        })
        .collect()
}

/// §IV-A CsrMM spot check: utilization delta between CsrMM and CsrMV.
#[derive(Clone, Debug)]
pub struct CsrmmCheckRow {
    /// Matrix name.
    pub name: String,
    /// Dense columns.
    pub b_cols: usize,
    /// CsrMV ISSR utilization.
    pub mv_util: f64,
    /// CsrMM ISSR utilization.
    pub mm_util: f64,
    /// Absolute delta (paper: 0.12 % for Ragusa18 × 2 columns).
    pub delta: f64,
}

/// Runs the CsrMM ≈ CsrMV comparison on a suite entry.
#[must_use]
pub fn csrmm_check(name: &str, b_cols: usize) -> CsrmmCheckRow {
    let entry = suite::by_name(name).expect("suite entry");
    let m = entry.build::<u16>();
    let mut rng = gen::rng(0xC5);
    let mut b = DenseMatrix::with_pow2_stride(m.ncols(), b_cols);
    for r in 0..m.ncols() {
        for c in 0..b_cols {
            b.set(r, c, gen::dense_vector(&mut rng, 1)[0]);
        }
    }
    let x = b.col(0);
    let mv = run_csrmv(Variant::Issr, &m, &x).expect("csrmv run");
    let mm = run_csrmm(Variant::Issr, &m, &b).expect("csrmm run");
    let mv_util = mv.summary.metrics.fpu_utilization();
    let mm_util = mm.summary.metrics.fpu_utilization();
    CsrmmCheckRow {
        name: name.to_owned(),
        b_cols,
        mv_util,
        mm_util,
        delta: (mv_util - mm_util).abs(),
    }
}

/// Default sweep points for the figures (log-spaced like the paper).
#[must_use]
pub fn default_nnz_sweep() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
}

/// One point of the joiner SpVV∩ sweep: cycles for the software
/// two-pointer merge vs. the index joiner at a given match density.
#[derive(Clone, Copy, Debug)]
pub struct JoinerSpvvRow {
    /// Fraction of indices shared between the two operands.
    pub overlap: f64,
    /// BASE (software merge) ROI cycles, 16-bit indices.
    pub base16: u64,
    /// ISSR-joiner ROI cycles, 16-bit indices.
    pub issr16: u64,
    /// BASE ROI cycles, 32-bit indices.
    pub base32: u64,
    /// ISSR-joiner ROI cycles, 32-bit indices.
    pub issr32: u64,
    /// Joiner utilization: pairs emitted per ROI cycle (16-bit run).
    pub joiner_util: f64,
}

impl JoinerSpvvRow {
    /// Joiner speedup over the software merge, 16-bit indices.
    #[must_use]
    pub fn speedup16(&self) -> f64 {
        ratio(self.base16 as f64, self.issr16 as f64)
    }

    /// Joiner speedup over the software merge, 32-bit indices.
    #[must_use]
    pub fn speedup32(&self) -> f64 {
        ratio(self.base32 as f64, self.issr32 as f64)
    }
}

/// Sparse-sparse SpVV: joiner vs. software merge across match densities.
#[must_use]
pub fn joiner_spvv(overlaps: &[f64]) -> Vec<JoinerSpvvRow> {
    let (dim, nnz) = (8192, 512);
    overlaps
        .iter()
        .map(|&overlap| {
            let mut rng = gen::rng(0x000F_164E + (overlap * 100.0) as u64);
            let (a32, b32) = gen::overlapping_pair::<u32>(&mut rng, dim, nnz, nnz, overlap);
            let (a16, b16) = (a32.with_index_width::<u16>(), b32.with_index_width::<u16>());
            let base16 = run_spvv_ss(Variant::Base, &a16, &b16).expect("base16 run");
            let issr16 = run_spvv_ss(Variant::Issr, &a16, &b16).expect("issr16 run");
            let base32 = run_spvv_ss(Variant::Base, &a32, &b32).expect("base32 run");
            let issr32 = run_spvv_ss(Variant::Issr, &a32, &b32).expect("issr32 run");
            JoinerSpvvRow {
                overlap,
                base16: base16.summary.metrics.roi.cycles,
                issr16: issr16.summary.metrics.roi.cycles,
                base32: base32.summary.metrics.roi.cycles,
                issr32: issr32.summary.metrics.roi.cycles,
                joiner_util: ratio(
                    issr16.summary.joiner_stats.emissions as f64,
                    issr16.summary.metrics.roi.cycles as f64,
                ),
            }
        })
        .collect()
}

/// One point of the joiner SpMSpV sweep: cycles against the operand
/// vector's density.
#[derive(Clone, Copy, Debug)]
pub struct JoinerSpmspvRow {
    /// Nonzeros of the sparse vector operand.
    pub x_nnz: usize,
    /// BASE (software merge) ROI cycles, 16-bit indices.
    pub base16: u64,
    /// ISSR-joiner ROI cycles, 16-bit indices.
    pub issr16: u64,
    /// BASE ROI cycles, 32-bit indices.
    pub base32: u64,
    /// ISSR-joiner ROI cycles, 32-bit indices.
    pub issr32: u64,
}

impl JoinerSpmspvRow {
    /// Joiner speedup over the software merge, 16-bit indices.
    #[must_use]
    pub fn speedup16(&self) -> f64 {
        ratio(self.base16 as f64, self.issr16 as f64)
    }

    /// Joiner speedup over the software merge, 32-bit indices.
    #[must_use]
    pub fn speedup32(&self) -> f64 {
        ratio(self.base32 as f64, self.issr32 as f64)
    }
}

/// SpMSpV: joiner vs. software merge across operand-vector densities.
#[must_use]
pub fn joiner_spmspv(x_nnzs: &[usize]) -> Vec<JoinerSpmspvRow> {
    let (nrows, ncols, row_nnz) = (48, 2048, 64);
    x_nnzs
        .iter()
        .map(|&x_nnz| {
            let mut rng = gen::rng(0x000F_164F + x_nnz as u64);
            let m32 = gen::csr_fixed_row_nnz::<u32>(&mut rng, nrows, ncols, row_nnz);
            let m16 = m32.with_index_width::<u16>();
            let x32 = gen::sparse_vector::<u32>(&mut rng, ncols, x_nnz);
            let x16 = x32.with_index_width::<u16>();
            let base16 = run_spmspv(Variant::Base, &m16, &x16).expect("base16 run");
            let issr16 = run_spmspv(Variant::Issr, &m16, &x16).expect("issr16 run");
            let base32 = run_spmspv(Variant::Base, &m32, &x32).expect("base32 run");
            let issr32 = run_spmspv(Variant::Issr, &m32, &x32).expect("issr32 run");
            JoinerSpmspvRow {
                x_nnz,
                base16: base16.summary.metrics.roi.cycles,
                issr16: issr16.summary.metrics.roi.cycles,
                base32: base32.summary.metrics.roi.cycles,
                issr32: issr32.summary.metrics.roi.cycles,
            }
        })
        .collect()
}

/// The overlap sweep the joiner binary reports.
#[must_use]
pub fn default_overlap_sweep() -> Vec<f64> {
    vec![0.0, 0.125, 0.25, 0.5, 0.75, 1.0]
}

/// One sparsity regime of the SpGEMM sweep.
#[derive(Clone, Copy, Debug)]
pub struct SpgemmRegime {
    /// Display name.
    pub label: &'static str,
    /// Rows of A (= rows of C).
    pub nrows: usize,
    /// Inner dimension (columns of A, rows of B).
    pub inner: usize,
    /// Columns of B (= columns of C).
    pub ncols: usize,
    /// Nonzeros per A row.
    pub a_row_nnz: usize,
    /// Nonzeros per B row.
    pub b_row_nnz: usize,
}

/// One row of the SpGEMM sweep: BASE vs. ISSR cycles per index width,
/// the ISSR-16 run's SpAcc unit activity, and the single-buffered
/// ISSR-16 cycles (double-buffer delta).
#[derive(Clone, Copy, Debug)]
pub struct SpgemmRow {
    /// The regime swept.
    pub regime: SpgemmRegime,
    /// BASE (software merge) ROI cycles, 16-bit indices.
    pub base16: u64,
    /// ISSR (SpAcc subsystem) ROI cycles, 16-bit indices.
    pub issr16: u64,
    /// ISSR-16 ROI cycles with single-buffered SpAcc row storage (the
    /// drain blocks the next row's feeds) — the double-buffer baseline.
    pub issr16_single: u64,
    /// BASE ROI cycles, 32-bit indices.
    pub base32: u64,
    /// ISSR ROI cycles, 32-bit indices.
    pub issr32: u64,
    /// SpAcc statistics of the (double-buffered) ISSR-16 run.
    pub spacc: SpAccStats,
}

impl SpgemmRow {
    /// SpAcc-subsystem speedup over the software merge, 16-bit indices.
    #[must_use]
    pub fn speedup16(&self) -> f64 {
        ratio(self.base16 as f64, self.issr16 as f64)
    }

    /// SpAcc-subsystem speedup over the software merge, 32-bit indices.
    #[must_use]
    pub fn speedup32(&self) -> f64 {
        ratio(self.base32 as f64, self.issr32 as f64)
    }

    /// Cycles the double-buffered SpAcc saves over the single-buffered
    /// unit (drain/feed overlap), ISSR-16.
    #[must_use]
    pub fn double_buffer_gain(&self) -> u64 {
        self.issr16_single.saturating_sub(self.issr16)
    }
}

/// SpGEMM: SpAcc subsystem vs. software merge across sparsity regimes.
#[must_use]
pub fn spgemm_sweep(regimes: &[SpgemmRegime]) -> Vec<SpgemmRow> {
    regimes
        .iter()
        .map(|&regime| {
            let mut rng = gen::rng(0x000F_1650 + regime.b_row_nnz as u64);
            let a32 = gen::csr_fixed_row_nnz::<u32>(
                &mut rng,
                regime.nrows,
                regime.inner,
                regime.a_row_nnz,
            );
            let b32 = gen::csr_fixed_row_nnz::<u32>(
                &mut rng,
                regime.inner,
                regime.ncols,
                regime.b_row_nnz,
            );
            let (a16, b16) = (a32.with_index_width::<u16>(), b32.with_index_width::<u16>());
            let base16 = run_spgemm(Variant::Base, &a16, &b16).expect("base16 run");
            let issr16 = run_spgemm(Variant::Issr, &a16, &b16).expect("issr16 run");
            let issr16_single = run_spgemm_buffered(Variant::Issr, &a16, &b16, false)
                .expect("issr16 single-buffer run");
            let base32 = run_spgemm(Variant::Base, &a32, &b32).expect("base32 run");
            let issr32 = run_spgemm(Variant::Issr, &a32, &b32).expect("issr32 run");
            SpgemmRow {
                regime,
                base16: base16.summary.metrics.roi.cycles,
                issr16: issr16.summary.metrics.roi.cycles,
                issr16_single: issr16_single.summary.metrics.roi.cycles,
                base32: base32.summary.metrics.roi.cycles,
                issr32: issr32.summary.metrics.roi.cycles,
                spacc: issr16.summary.spacc_stats,
            }
        })
        .collect()
}

/// Per-worker SpAcc activity of one cluster SpGEMM run (ISSR variant)
/// on the given regime, plus the BASE/ISSR cluster cycle counts.
#[derive(Clone, Debug)]
pub struct ClusterSpgemmReport {
    /// The regime run.
    pub regime: SpgemmRegime,
    /// BASE cluster cycles.
    pub base_cycles: u64,
    /// ISSR cluster cycles.
    pub issr_cycles: u64,
    /// Per-worker SpAcc statistics of the ISSR run.
    pub spacc: Vec<SpAccStats>,
}

/// Runs cluster SpGEMM (both variants) on one regime.
#[must_use]
pub fn cluster_spgemm_report(regime: SpgemmRegime) -> ClusterSpgemmReport {
    let mut rng = gen::rng(0x000F_1651);
    let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, regime.nrows, regime.inner, regime.a_row_nnz);
    let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, regime.inner, regime.ncols, regime.b_row_nnz);
    let base = run_cluster_spgemm(Variant::Base, &a, &b).expect("base cluster run");
    let issr = run_cluster_spgemm(Variant::Issr, &a, &b).expect("issr cluster run");
    ClusterSpgemmReport {
        regime,
        base_cycles: base.summary.cycles,
        issr_cycles: issr.summary.cycles,
        spacc: issr.summary.spacc_stats,
    }
}

/// The overflow-recovery regime: SpGEMM with an *optimistic* SpAcc
/// row-buffer capacity recovered through trap-driven grow-and-retry.
#[derive(Clone, Copy, Debug)]
pub struct SpgemmRecoveryRow {
    /// The optimistic initial `ACC_BUF_CAP`.
    pub initial_cap: u32,
    /// The capacity the clean run converged to.
    pub final_cap: u32,
    /// Overflow traps taken before the capacity sufficed.
    pub retries: u32,
    /// Total cycles of the final clean run.
    pub cycles: u64,
    /// Peak row-buffer occupancy of the clean run.
    pub peak_nnz: u64,
}

/// Runs the overflow-recovery regime: dense-ish B rows against a tiny
/// initial capacity force several overflow traps, the harness grows
/// `ACC_BUF_CAP` and replays, and the converged product is validated
/// against the host oracle before reporting.
///
/// # Panics
/// Panics if the run fails, never retries (the regime must actually
/// trap), or diverges from the oracle.
#[must_use]
pub fn spgemm_recovery_report() -> SpgemmRecoveryRow {
    let initial_cap = 4u32;
    let mut rng = gen::rng(0x000F_1652);
    let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, 8, 24, 4);
    let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, 24, 64, 24);
    let rec = run_spgemm_recover(Variant::Issr, &a, &b, initial_cap).expect("recovery run");
    assert!(rec.retries >= 1, "the overflow-recovery regime must trap at least once");
    let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
    assert_eq!(rec.run.c.ptr(), expect.ptr(), "recovered product row pointers");
    assert_eq!(rec.run.c.idcs(), expect.idcs(), "recovered product column indices");
    for (got, want) in rec.run.c.vals().iter().zip(expect.vals()) {
        assert!(
            (got - want).abs() <= 1e-12 * want.abs().max(1.0),
            "recovered product values: {got} vs {want}"
        );
    }
    SpgemmRecoveryRow {
        initial_cap,
        final_cap: rec.final_cap,
        retries: rec.retries,
        cycles: rec.run.summary.cycles,
        peak_nnz: rec.run.summary.spacc_stats.peak_nnz,
    }
}

/// One row of the SuiteSparse stand-in SpGEMM energy sweep (`C = M·M`
/// on the cluster, both variants, evaluated by the power model).
#[derive(Clone, Debug)]
pub struct SpgemmSuiteRow {
    /// Suite entry name.
    pub name: String,
    /// Side length of the TCDM-resident principal window simulated.
    pub window: usize,
    /// Nonzeros of the windowed operand.
    pub nnz: usize,
    /// Nonzeros of the product.
    pub c_nnz: usize,
    /// Gustavson expansion volume (multiplies) of the window.
    pub macs: u64,
    /// BASE / ISSR cluster cycles.
    pub base_cycles: u64,
    /// ISSR cluster cycles.
    pub issr_cycles: u64,
    /// Average cluster power, BASE (mW).
    pub base_mw: f64,
    /// Average cluster power, ISSR (mW).
    pub issr_mw: f64,
    /// Energy per expansion multiply, BASE (pJ).
    pub base_pj_per_mac: f64,
    /// Energy per expansion multiply, ISSR (pJ).
    pub issr_pj_per_mac: f64,
    /// Energy-efficiency gain (BASE / ISSR pJ per multiply).
    pub gain: f64,
}

/// Gustavson expansion volume of `m · m` (the multiply count — SpGEMM's
/// useful-work denominator; the ISSR variant retires these as `fmul`,
/// not `fmadd`, so the CsrMV figure's pJ/fmadd does not apply).
fn spgemm_macs(m: &CsrMatrix<u16>) -> u64 {
    (0..m.nrows()).map(|r| m.row(r).map(|(k, _)| m.row_range(k).len() as u64).sum::<u64>()).sum()
}

/// Largest leading principal window of `m` whose cluster SpGEMM plan
/// (operands, expansion-volume output bound, per-worker merge scratch)
/// fits the TCDM — the suite stand-ins themselves are sized for
/// main-memory CsrMV, not for a TCDM-resident product.
fn tcdm_window(m: &CsrMatrix<u16>) -> CsrMatrix<u16> {
    let budget = u64::from(issr_mem::map::TCDM_SIZE) * 8 / 10;
    let ladder = [m.nrows(), 384, 256, 192, 128, 96, 64, 48, 32, 16];
    for &k in ladder.iter().filter(|&&k| k <= m.nrows()) {
        let w = principal_window(m, k);
        let nnz = w.nnz() as u64;
        let n = k as u64;
        let volume = spgemm_macs(&w);
        let cap = volume.min(n * n);
        // CSR bytes: 4-byte row pointers, 2-byte indices, 8-byte values
        // (A and B alias the same matrix but are stored twice), plus the
        // 8-worker BASE ping-pong scratch the plan always reserves.
        let bytes = 2 * ((n + 1) * 4 + nnz * 10) + (n + 1) * 4 + cap * 10 + 8 * (n * 20 + 16);
        if bytes <= budget {
            return w;
        }
    }
    principal_window(m, ladder[ladder.len() - 1].min(m.nrows()))
}

/// The leading `k`-by-`k` principal submatrix (the suite's windowed
/// accessor).
fn principal_window(m: &CsrMatrix<u16>, k: usize) -> CsrMatrix<u16> {
    suite::principal_window(m, k)
}

/// Sweeps cluster SpGEMM (`C = M·M`, BASE vs. ISSR) over TCDM-resident
/// windows of the named suite stand-ins and evaluates each run with the
/// power model — the energy tables' first sparse-output kernel.
///
/// # Panics
/// Panics if a named entry is missing or a cluster run fails.
#[must_use]
pub fn spgemm_suite_sweep(names: &[&str]) -> Vec<SpgemmSuiteRow> {
    let model = PowerModel::default();
    names
        .iter()
        .map(|&name| {
            let entry = suite::by_name(name).expect("suite entry");
            let m = tcdm_window(&entry.build::<u16>());
            let base = run_cluster_spgemm(Variant::Base, &m, &m).expect("base cluster run");
            let issr = run_cluster_spgemm(Variant::Issr, &m, &m).expect("issr cluster run");
            let eb = model.evaluate(&base.summary);
            let ei = model.evaluate(&issr.summary);
            let macs = spgemm_macs(&m).max(1);
            let base_pj = ratio(eb.total_nj * 1000.0, macs as f64);
            let issr_pj = ratio(ei.total_nj * 1000.0, macs as f64);
            SpgemmSuiteRow {
                name: name.to_owned(),
                window: m.nrows(),
                nnz: m.nnz(),
                c_nnz: issr.c.nnz(),
                macs,
                base_cycles: base.summary.cycles,
                issr_cycles: issr.summary.cycles,
                base_mw: eb.avg_power_mw,
                issr_mw: ei.avg_power_mw,
                base_pj_per_mac: base_pj,
                issr_pj_per_mac: issr_pj,
                gain: ratio(base_pj, issr_pj),
            }
        })
        .collect()
}

/// The three sparsity regimes the SpGEMM binary sweeps: hypersparse
/// (tiny expansions, fixed overheads dominate), moderate (typical
/// graph/FEM-like fill), and dense-row (long accumulations, steady-state
/// merge throughput).
#[must_use]
pub fn default_spgemm_regimes() -> Vec<SpgemmRegime> {
    vec![
        SpgemmRegime {
            label: "hypersparse",
            nrows: 32,
            inner: 64,
            ncols: 96,
            a_row_nnz: 4,
            b_row_nnz: 4,
        },
        SpgemmRegime {
            label: "moderate",
            nrows: 24,
            inner: 64,
            ncols: 256,
            a_row_nnz: 4,
            b_row_nnz: 24,
        },
        SpgemmRegime {
            label: "dense-rows",
            nrows: 16,
            inner: 64,
            ncols: 512,
            a_row_nnz: 8,
            b_row_nnz: 48,
        },
    ]
}

/// Smaller regimes for the CI smoke run (same three shapes, scaled
/// down so the sweep finishes in seconds).
#[must_use]
pub fn smoke_spgemm_regimes() -> Vec<SpgemmRegime> {
    vec![
        SpgemmRegime {
            label: "hypersparse",
            nrows: 12,
            inner: 24,
            ncols: 32,
            a_row_nnz: 2,
            b_row_nnz: 3,
        },
        SpgemmRegime {
            label: "moderate",
            nrows: 10,
            inner: 24,
            ncols: 64,
            a_row_nnz: 3,
            b_row_nnz: 10,
        },
        SpgemmRegime {
            label: "dense-rows",
            nrows: 8,
            inner: 24,
            ncols: 128,
            a_row_nnz: 4,
            b_row_nnz: 20,
        },
    ]
}

// ---------------------------------------------------------------------
// Multi-cluster scaling (`--bin system`)
// ---------------------------------------------------------------------

/// One row of the multi-cluster scaling sweeps.
#[derive(Clone, Copy, Debug)]
pub struct SystemScalingRow {
    /// Clusters in the system.
    pub n_clusters: usize,
    /// System cycles to completion.
    pub cycles: u64,
    /// Strong-scaling speedup against the sweep's first row.
    pub speedup: f64,
    /// Denied fraction of shared-interface DMA word requests.
    pub contention: f64,
    /// Total DMA engine stall cycles on denied bandwidth.
    pub dma_stalls: u64,
    /// Cycles with DMA traffic and ROI compute in flight together.
    pub overlap_cycles: u64,
    /// Average system power from the power model (mW).
    pub avg_power_mw: f64,
    /// Total energy from the power model (nJ).
    pub total_nj: f64,
    /// Energy per retired multiply-accumulate (pJ; CsrMV sweeps only —
    /// the SpGEMM expansion retires `fmul`, not `fmadd`).
    pub pj_per_fmadd: f64,
}

/// Assembles one scaling-table row from a run's summary, its power
/// evaluation, and the sweep's baseline cycle count.
fn scaling_row(
    n_clusters: usize,
    summary: &issr_system::system::SystemSummary,
    energy: issr_model::power::EnergyBreakdown,
    base_cycles: u64,
) -> SystemScalingRow {
    SystemScalingRow {
        n_clusters,
        cycles: summary.cycles,
        speedup: ratio(base_cycles as f64, summary.cycles as f64),
        contention: summary.contention_ratio(),
        dma_stalls: summary.total_dma_stalls(),
        overlap_cycles: summary.overlap_cycles,
        avg_power_mw: energy.avg_power_mw,
        total_nj: energy.total_nj,
        pj_per_fmadd: energy.pj_per_fmadd,
    }
}

/// Strong-scaling sweep of system CsrMV (ISSR) over `counts` clusters
/// on one matrix. Every run is checked **bit-identical** against the
/// single-cluster kernel ([`run_cluster_csrmv`]) — the correctness gate
/// of the scale-out path.
///
/// # Panics
/// Panics if a run fails, traps, or diverges from the single-cluster
/// result by a single bit.
#[must_use]
pub fn system_csrmv_scaling(
    m: &CsrMatrix<u16>,
    x: &[f64],
    counts: &[usize],
) -> Vec<SystemScalingRow> {
    let single = run_cluster_csrmv(Variant::Issr, m, x).expect("single-cluster run");
    let reference: Vec<u64> = single.y.iter().map(|v| v.to_bits()).collect();
    let model = PowerModel::default();
    let mut rows: Vec<SystemScalingRow> = Vec::new();
    for &n in counts {
        let run = run_system_csrmv(Variant::Issr, m, x, n).expect("system run");
        let got: Vec<u64> = run.y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, reference, "{n}-cluster CsrMV must be bit-identical");
        let energy = model.evaluate_system(&run.summary);
        let base = rows.first().map_or(run.summary.cycles, |r| r.cycles);
        rows.push(scaling_row(n, &run.summary, energy, base));
    }
    rows
}

/// Strong-scaling sweep of system SpGEMM (ISSR) over `counts` clusters.
/// Row pointers and indices are checked exactly against the host
/// oracle, and values **bit-identical across cluster counts**; panel
/// capacities can be clamped to force multi-panel runs on small inputs.
///
/// # Panics
/// Panics if a run fails, traps, or results diverge.
#[must_use]
pub fn system_spgemm_scaling(
    a: &CsrMatrix<u16>,
    b: &CsrMatrix<u16>,
    counts: &[usize],
    panel_caps: Option<(u32, u32)>,
) -> Vec<SystemScalingRow> {
    use issr_system::system::SystemParams;
    let expect = reference::spgemm(a, b).with_index_width::<u32>();
    let model = PowerModel::default();
    let n_workers = SystemParams::default().cluster.n_workers as u32;
    let mut rows: Vec<SystemScalingRow> = Vec::new();
    let mut reference_bits: Option<Vec<u64>> = None;
    for &n in counts {
        let plan = match panel_caps {
            Some((a_cap, c_cap)) => {
                SystemSpgemmPlan::with_panel_caps(Variant::Issr, a, b, n_workers, a_cap, c_cap)
            }
            None => SystemSpgemmPlan::new(Variant::Issr, a, b, n_workers),
        };
        let run = run_system_spgemm_planned(
            Variant::Issr,
            a,
            b,
            plan,
            SystemParams { n_clusters: n, ..SystemParams::default() },
        )
        .expect("system run");
        assert_eq!(run.c.ptr(), expect.ptr(), "{n}-cluster SpGEMM row pointers");
        assert_eq!(run.c.idcs(), expect.idcs(), "{n}-cluster SpGEMM indices");
        let bits: Vec<u64> = run.c.vals().iter().map(|v| v.to_bits()).collect();
        match &reference_bits {
            Some(r) => assert_eq!(&bits, r, "{n}-cluster SpGEMM values must be bit-identical"),
            None => reference_bits = Some(bits),
        }
        let energy = model.evaluate_system(&run.summary);
        let base = rows.first().map_or(run.summary.cycles, |r| r.cycles);
        rows.push(scaling_row(n, &run.summary, energy, base));
    }
    rows
}

/// Weak-scaling sweep of system CsrMV (ISSR): per-cluster work held
/// constant by growing the matrix with the cluster count; `speedup`
/// reports the efficiency `T(1) / T(n)` (1.0 = perfect weak scaling).
///
/// # Panics
/// Panics if a run fails or traps.
#[must_use]
pub fn system_csrmv_weak_scaling(
    rows_per_cluster: usize,
    ncols: usize,
    nnz_per_cluster: usize,
    counts: &[usize],
) -> Vec<SystemScalingRow> {
    let model = PowerModel::default();
    let mut out: Vec<SystemScalingRow> = Vec::new();
    for &n in counts {
        let mut rng = gen::rng(7_700 + n as u64);
        let m = gen::csr_uniform::<u16>(&mut rng, rows_per_cluster * n, ncols, nnz_per_cluster * n);
        let x = gen::dense_vector(&mut rng, ncols);
        let run = run_system_csrmv(Variant::Issr, &m, &x, n).expect("system run");
        let expect = reference::csrmv(&m, &x);
        assert!(
            issr_sparse::dense::allclose(&run.y, &expect, 1e-12, 1e-12),
            "weak-scaling {n}-cluster CsrMV diverged"
        );
        let energy = model.evaluate_system(&run.summary);
        let base = out.first().map_or(run.summary.cycles, |r| r.cycles);
        out.push(scaling_row(n, &run.summary, energy, base));
    }
    out
}

/// Full run summary of one joiner-backed SpVV∩ run (ISSR-16, the
/// sweep's operand shape at match density `overlap`) — attribution,
/// lane stats and ROI counters for the joiner binary's breakdown table
/// and bound verdict.
#[must_use]
pub fn spvv_summary(overlap: f64) -> issr_snitch::cc::RunSummary {
    let (dim, nnz) = (8192, 512);
    let mut rng = gen::rng(0x000F_164E + (overlap * 100.0) as u64);
    let (a32, b32) = gen::overlapping_pair::<u32>(&mut rng, dim, nnz, nnz, overlap);
    let (a16, b16) = (a32.with_index_width::<u16>(), b32.with_index_width::<u16>());
    run_spvv_ss(Variant::Issr, &a16, &b16).expect("issr16 run").summary
}

/// ROI stall-cause attribution of one joiner-backed SpVV∩ run
/// (ISSR-16, the sweep's operand shape at match density `overlap`) —
/// the breakdown tables the joiner binary prints and exports.
#[must_use]
pub fn spvv_attribution(overlap: f64) -> issr_snitch::attr::CcAttribution {
    spvv_summary(overlap).attr
}

/// Full run summary of one SpAcc-backed SpGEMM run (ISSR-16 on
/// `regime`) — attribution plus the counters the bound verdict needs.
#[must_use]
pub fn spgemm_summary(regime: SpgemmRegime) -> issr_snitch::cc::RunSummary {
    let mut rng = gen::rng(0x000F_1650 + regime.b_row_nnz as u64);
    let a32 = gen::csr_fixed_row_nnz::<u32>(&mut rng, regime.nrows, regime.inner, regime.a_row_nnz);
    let b32 = gen::csr_fixed_row_nnz::<u32>(&mut rng, regime.inner, regime.ncols, regime.b_row_nnz);
    let (a16, b16) = (a32.with_index_width::<u16>(), b32.with_index_width::<u16>());
    run_spgemm(Variant::Issr, &a16, &b16).expect("issr16 run").summary
}

/// ROI stall-cause attribution of one SpAcc-backed SpGEMM run
/// (ISSR-16 on `regime`) — the breakdown tables the SpGEMM binary
/// prints and exports.
#[must_use]
pub fn spgemm_attribution(regime: SpgemmRegime) -> issr_snitch::attr::CcAttribution {
    spgemm_summary(regime).attr
}

/// Per-phase stall profile of one cluster SpGEMM run (ISSR-16 on
/// `regime`): the two-pass kernel's symbolic, scan/offset and numeric
/// phases resolved by sampling each worker's PC against the program's
/// kernel symbols once per cycle. Host-side only — the kernel and the
/// timing model are untouched, so the profiled run's cycle count equals
/// the unprofiled one's.
///
/// # Panics
/// Panics if the kernel symbols are missing or the cluster times out.
#[must_use]
pub fn cluster_spgemm_phase_profile(regime: SpgemmRegime) -> issr_trace::PhaseProfile {
    use issr_cluster::cluster::{Cluster, ClusterParams};
    use issr_snitch::cc::run_until_quiescent;
    let mut rng = gen::rng(0x000F_1651);
    let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, regime.nrows, regime.inner, regime.a_row_nnz);
    let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, regime.inner, regime.ncols, regime.b_row_nnz);
    let params = ClusterParams { sssr: true, ..ClusterParams::default() };
    let plan = ClusterSpgemmPlan::new(&a, &b, params.n_workers as u32);
    let program = build_cluster_spgemm::<u16>(Variant::Issr, &plan);
    // Instruction index × 4 = byte PC (the fetch unit indexes by pc/4).
    let pc_of = |sym: &str| {
        u32::try_from(program.symbol(sym).expect("kernel symbol") * 4).expect("pc fits u32")
    };
    let end = u32::try_from(program.len() * 4).expect("pc fits u32");
    let mut profile = issr_trace::PhaseProfile::new(&[
        ("symbolic", pc_of("worker"), pc_of("scan")),
        ("scan", pc_of("scan"), pc_of("issr_row")),
        ("numeric", pc_of("issr_row"), end),
    ]);
    let mut cluster = Cluster::new(program, params);
    plan.marshal(&mut cluster, &a, &b);
    let budget = 4_000_000 + 1024 * (a.nnz() + b.nnz() + a.nrows()) as u64;
    run_until_quiescent(&mut cluster, budget, |c: &Cluster| {
        for cc in c.workers.iter().filter(|cc| !cc.core.halted()) {
            profile.sample(cc.core.pc(), cc.last_causes().hart);
        }
    })
    .expect("phase-profiled SpGEMM run exceeded its budget");
    profile
}

/// One instrumented system-CsrMV run: the summary whose per-cluster
/// stall-cause breakdowns the JSON telemetry emits, plus the Chrome
/// trace-event export (one track per hart, stream lane and DMA engine
/// per cluster).
#[derive(Clone, Debug)]
pub struct SystemAttributionReport {
    /// The run's system summary (per-cluster attribution included).
    pub summary: issr_system::system::SystemSummary,
    /// The Chrome trace-event document (loadable at `ui.perfetto.dev`).
    pub trace: issr_trace::Json,
}

/// Runs system CsrMV (ISSR) once with the interval recorder enabled and
/// returns attribution + trace. The result is validated against the
/// host reference — tracing must not change a single bit.
///
/// # Panics
/// Panics if the run fails, traps, or diverges from the reference.
#[must_use]
pub fn system_csrmv_attribution(
    m: &CsrMatrix<u16>,
    x: &[f64],
    n_clusters: usize,
    trace_cap: usize,
) -> SystemAttributionReport {
    use issr_system::system::SystemParams;
    let mut rec = issr_trace::Recorder::new(issr_trace::Keep::Head, trace_cap);
    let run = run_system_csrmv_traced(
        Variant::Issr,
        m,
        x,
        SystemParams { n_clusters, ..SystemParams::default() },
        &mut rec,
    )
    .expect("instrumented system run");
    let expect = reference::csrmv(m, x);
    assert!(
        issr_sparse::dense::allclose(&run.y, &expect, 1e-12, 1e-12),
        "instrumented system CsrMV diverged from the reference"
    );
    SystemAttributionReport { summary: run.summary, trace: rec.to_chrome_json() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_limits_on_a_coarse_sweep() {
        let rows = fig4a(&[256]);
        let r = rows[0];
        assert!((r.base - 1.0 / 9.0).abs() < 0.02);
        assert!((r.ssr - 1.0 / 7.0).abs() < 0.02);
        assert!(r.issr16 > r.issr32, "16-bit wins at high nnz");
        assert!(r.issr16_m >= r.issr16);
    }

    #[test]
    fn fig4b_ordering() {
        let rows = fig4b(&[64]);
        let r = rows[0];
        assert!(r.issr16 > r.issr32 && r.issr32 > r.ssr && r.ssr > 1.0);
    }

    #[test]
    fn csrmm_check_small_delta() {
        let row = csrmm_check("ragusa18", 2);
        assert!(row.delta < 0.02, "delta {}", row.delta);
    }

    /// The acceptance bar of the sparse-output subsystem: ISSR SpGEMM
    /// at least 3x over the software merge on every default regime.
    #[test]
    fn spgemm_issr_beats_base_on_every_regime() {
        let rows = spgemm_sweep(&smoke_spgemm_regimes());
        for row in &rows {
            assert!(
                row.speedup16() > 3.0,
                "{}: SpGEMM-16 speedup {:.2}",
                row.regime.label,
                row.speedup16()
            );
            assert!(
                row.speedup32() > 3.0,
                "{}: SpGEMM-32 speedup {:.2}",
                row.regime.label,
                row.speedup32()
            );
            assert!(row.spacc.pairs_in > 0, "SpAcc must carry the expansion");
            assert!(
                row.issr16 <= row.issr16_single,
                "{}: double buffering regressed ({} vs {})",
                row.regime.label,
                row.issr16,
                row.issr16_single
            );
        }
        // Regimes with long rows must actually win overlap cycles.
        assert!(
            rows.iter().any(|r| r.spacc.overlap_cycles > 0 && r.double_buffer_gain() > 0),
            "double-buffered drains must overlap feeds somewhere in the sweep"
        );
    }

    /// The overflow-recovery regime traps at least once, converges to a
    /// capacity no larger than the output width, and (inside the
    /// runner) matches the oracle.
    #[test]
    fn spgemm_recovery_regime_traps_and_recovers() {
        let row = spgemm_recovery_report();
        assert!(row.retries >= 1);
        assert!(row.final_cap > row.initial_cap);
        assert!(row.final_cap <= 64);
        assert!(row.peak_nnz <= u64::from(row.final_cap));
    }

    /// The suite energy sweep produces sane numbers for a small and a
    /// mid-size stand-in: finite positive power, ISSR no less
    /// energy-efficient per multiply than the software merge.
    #[test]
    fn spgemm_suite_energy_is_sane() {
        for row in spgemm_suite_sweep(&["ragusa18", "tols2000"]) {
            assert!(row.base_mw.is_finite() && row.base_mw > 0.0, "{row:?}");
            assert!(row.issr_mw.is_finite() && row.issr_mw > 0.0, "{row:?}");
            assert!(row.issr_cycles < row.base_cycles, "{row:?}");
            assert!(row.gain > 1.0, "{row:?}");
        }
    }

    #[test]
    fn joiner_beats_software_merge_on_both_kernels() {
        let spvv = joiner_spvv(&[0.5]);
        assert!(spvv[0].speedup16() > 3.0, "SpVV∩ speedup {:.2}", spvv[0].speedup16());
        assert!(spvv[0].speedup32() > 3.0, "SpVV∩-32 speedup {:.2}", spvv[0].speedup32());
        assert!(spvv[0].joiner_util > 0.2, "joiner util {:.3}", spvv[0].joiner_util);
        let spmspv = joiner_spmspv(&[128]);
        assert!(spmspv[0].speedup16() > 2.0, "SpMSpV speedup {:.2}", spmspv[0].speedup16());
    }
}
