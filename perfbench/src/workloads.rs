//! The four workloads. Each generates its operands from the seed, runs
//! every kernel through [`Ctx::kernel`] and returns what one pass
//! measured.

use std::panic::{catch_unwind, AssertUnwindSafe};

use issr_kernels::variant::Variant;
use issr_sparse::{gen, suite};

use crate::kernels::{self, Energy, KernelResult, Outcome};
use crate::rec::{Phase, Recorder};

/// Nonzeros (Fig. 4a) and nonzeros per row (Fig. 4b/4c) swept.
const SWEEP: [usize; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Operand draws per single-CC sweep point.
const CC_DRAWS: u64 = 3;

/// Suite matrices of Fig. 4d up to this many nonzeros (through orani678).
const SUITE_MAX_NNZ: usize = 100_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CcPaper,
    ClusterPaper,
    SystemCsrmv,
    SparseOut,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "cc_paper" => Some(Self::CcPaper),
            "cluster_paper" => Some(Self::ClusterPaper),
            "system_csrmv" => Some(Self::SystemCsrmv),
            "sparse_out" => Some(Self::SparseOut),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::CcPaper => "cc_paper",
            Self::ClusterPaper => "cluster_paper",
            Self::SystemCsrmv => "system_csrmv",
            Self::SparseOut => "sparse_out",
        }
    }

    /// One full pass over the workload's kernels.
    pub fn run(self, ctx: &mut Ctx, seed: u64) -> Rep {
        let open = ctx.rec.begin(Phase::Bench, self.name());
        let mut rep = Rep::default();
        match self {
            Self::CcPaper => cc_paper(ctx, seed, &mut rep),
            Self::ClusterPaper => cluster_paper(ctx, seed, &mut rep),
            Self::SystemCsrmv => system_csrmv(ctx, seed, &mut rep),
            Self::SparseOut => sparse_out(ctx, seed, &mut rep),
        }
        ctx.rec.end(open);
        rep
    }
}

/// Per-pass state: the timer/span recorder and the failure tally.
pub struct Ctx {
    pub rec: Recorder,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ctx {
    pub fn new(tracing: bool) -> Self {
        Self { rec: Recorder::new(tracing), attempted: 0, failures: Vec::new() }
    }

    /// Times operand generation (id 0: it belongs to no single kernel run).
    fn gen<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> T {
        self.rec.set_id(0);
        self.rec.time(Phase::Gen, what, f)
    }

    /// Runs one kernel under `catch_unwind`: a trap, timeout, oracle
    /// mismatch or panic is counted as a failure and yields `None`.
    fn kernel(
        &mut self,
        label: &str,
        f: impl FnOnce(&mut Recorder) -> KernelResult,
    ) -> Option<Outcome> {
        self.attempted += 1;
        self.rec.set_id(self.attempted);
        let open = self.rec.begin(Phase::Bench, label);
        let depth = self.rec.depth();
        let result = catch_unwind(AssertUnwindSafe(|| f(&mut self.rec)));
        self.rec.unwind_to(depth);
        self.rec.end(open);
        let err = match result {
            Ok(Ok(outcome)) => return Some(outcome),
            Ok(Err(e)) => e,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                format!("panic: {msg}")
            }
        };
        self.failures.push(format!("{label}: {err}"));
        None
    }
}

/// What one pass over a workload measured.
#[derive(Default)]
pub struct Rep {
    /// Every clean run, in execution order, flagged ISSR or not.
    pub runs: Vec<(bool, Outcome)>,
    /// Fingerprint of every attempted run (`None` when it failed).
    pub fingerprints: Vec<Option<u64>>,
    /// BASE cycles ÷ ISSR cycles of every (point, ISSR variant) pair.
    pub speedups: Vec<f64>,
    /// Paper anchors as measured.
    pub anchors: Vec<(&'static str, f64)>,
    /// BASE energy, ISSR energy and ISSR fmadds of each Fig. 4d suite
    /// point and each system CsrMV point.
    pub energy: Vec<(Energy, Energy, u64)>,
}

impl Rep {
    fn record(&mut self, issr: bool, run: &Option<Outcome>) {
        self.fingerprints.push(run.as_ref().map(|o| o.fingerprint));
        if let Some(o) = run {
            self.runs.push((issr, o.clone()));
        }
    }

    /// Records one operand point: its BASE run, ISSR runs and others
    /// (SSR). Returns each ISSR run's speedup over BASE.
    fn point(
        &mut self,
        base: &Option<Outcome>,
        issr: &[&Option<Outcome>],
        other: &[&Option<Outcome>],
    ) -> Vec<Option<f64>> {
        self.record(false, base);
        for o in other {
            self.record(false, o);
        }
        issr.iter()
            .map(|run| {
                self.record(true, run);
                let (b, i) = (base.as_ref()?, run.as_ref()?);
                let s = b.work as f64 / i.work.max(1) as f64;
                self.speedups.push(s);
                Some(s)
            })
            .collect()
    }

    /// Records a CsrMV point's energy pair; returns the efficiency gain.
    fn energy_pair(&mut self, base: &Option<Outcome>, issr: &Option<Outcome>) -> Option<f64> {
        let (b, i) = (base.as_ref()?, issr.as_ref()?);
        let (eb, ei) = (b.energy?, i.energy?);
        self.energy.push((eb, ei, i.fmadds));
        Some(eb.pj_per_fmadd / ei.pj_per_fmadd)
    }

    /// Records an anchor when it was measured.
    fn anchor(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.anchors.push((name, v));
        }
    }
}

/// Derives an independent operand seed from the run seed.
fn mix(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    let mut x = seed;
    for v in [tag, a, b] {
        x = (x ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
    }
    x
}

fn fmax(acc: Option<f64>, v: Option<f64>) -> Option<f64> {
    match (acc, v) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (a, b) => a.or(b),
    }
}

/// Σ num ÷ Σ den over the points of a sweep (draws pooled per point).
#[derive(Clone, Copy, Default)]
struct Pool {
    num: u64,
    den: u64,
    complete: bool,
}

impl Pool {
    fn add(&mut self, num: Option<u64>, den: Option<u64>, first: bool) {
        let ok = num.is_some() && den.is_some();
        self.complete = if first { ok } else { self.complete && ok };
        self.num += num.unwrap_or(0);
        self.den += den.unwrap_or(0);
    }

    fn ratio(&self) -> Option<f64> {
        (self.complete && self.den > 0).then(|| self.num as f64 / self.den as f64)
    }
}

/// Single-CC Fig. 4a SpVV and Fig. 4b CsrMV sweeps, BASE / SSR /
/// ISSR-32 / ISSR-16 at every point, `CC_DRAWS` operand draws each.
fn cc_paper(ctx: &mut Ctx, seed: u64, rep: &mut Rep) {
    let mut util16 = [Pool::default(); SWEEP.len()];
    let mut util32 = [Pool::default(); SWEEP.len()];
    let mut sp16 = [Pool::default(); SWEEP.len()];
    let mut sp32 = [Pool::default(); SWEEP.len()];
    for draw in 0..CC_DRAWS {
        let first = draw == 0;
        for (i, &nnz) in SWEEP.iter().enumerate() {
            let (a32, a16, b) = ctx.gen("gen::sparse_vector", || {
                let mut rng = gen::rng(mix(seed, 0x4A, draw, nnz as u64));
                let a32 = gen::sparse_vector::<u32>(&mut rng, 2048, nnz);
                let a16 = a32.with_index_width::<u16>();
                (a32, a16, gen::dense_vector(&mut rng, 2048))
            });
            let base = ctx.kernel("spvv BASE", |r| kernels::cc_spvv(r, Variant::Base, &a32, &b));
            let ssr = ctx.kernel("spvv SSR", |r| kernels::cc_spvv(r, Variant::Ssr, &a32, &b));
            let i32r = ctx.kernel("spvv ISSR-32", |r| kernels::cc_spvv(r, Variant::Issr, &a32, &b));
            let i16r = ctx.kernel("spvv ISSR-16", |r| kernels::cc_spvv(r, Variant::Issr, &a16, &b));
            rep.point(&base, &[&i32r, &i16r], &[&ssr]);
            let fm = |o: &Option<Outcome>| o.as_ref().map(|o| o.fmadds);
            let roi = |o: &Option<Outcome>| o.as_ref().map(|o| o.work);
            util32[i].add(fm(&i32r), roi(&i32r), first);
            util16[i].add(fm(&i16r), roi(&i16r), first);
        }
        for (i, &row_nnz) in SWEEP.iter().enumerate() {
            let (m32, m16, x) = ctx.gen("gen::csr_fixed_row_nnz", || {
                let mut rng = gen::rng(mix(seed, 0x4B, draw, row_nnz as u64));
                let m32 = gen::csr_fixed_row_nnz::<u32>(&mut rng, 64, 2048, row_nnz);
                let m16 = m32.with_index_width::<u16>();
                (m32, m16, gen::dense_vector(&mut rng, 2048))
            });
            let base = ctx.kernel("csrmv BASE", |r| kernels::cc_csrmv(r, Variant::Base, &m32, &x));
            let ssr = ctx.kernel("csrmv SSR", |r| kernels::cc_csrmv(r, Variant::Ssr, &m32, &x));
            let i32r =
                ctx.kernel("csrmv ISSR-32", |r| kernels::cc_csrmv(r, Variant::Issr, &m32, &x));
            let i16r =
                ctx.kernel("csrmv ISSR-16", |r| kernels::cc_csrmv(r, Variant::Issr, &m16, &x));
            rep.point(&base, &[&i32r, &i16r], &[&ssr]);
            let cyc = |o: &Option<Outcome>| o.as_ref().map(|o| o.work);
            sp32[i].add(cyc(&base), cyc(&i32r), first);
            sp16[i].add(cyc(&base), cyc(&i16r), first);
        }
    }
    let peak = |pools: &[Pool]| pools.iter().map(Pool::ratio).fold(None, fmax);
    rep.anchor("fig4a.issr16_util", peak(&util16));
    rep.anchor("fig4a.issr32_util", peak(&util32));
    rep.anchor("fig4b.issr16_speedup", peak(&sp16));
    rep.anchor("fig4b.issr32_speedup", peak(&sp32));
}

/// 8-worker cluster CsrMV: the Fig. 4c nnz/row sweep and the Fig. 4d
/// suite matrices, BASE and ISSR-16 each.
fn cluster_paper(ctx: &mut Ctx, seed: u64, rep: &mut Rep) {
    let (mut row1, mut peak, mut util, mut gain) = (None, None, None, None);
    for &row_nnz in &SWEEP {
        let (m, x) = ctx.gen("gen::csr_clustered", || {
            let mut rng = gen::rng(mix(seed, 0x4C, row_nnz as u64, 0));
            let spread = (row_nnz * 4).clamp(16, 2048);
            let m = gen::csr_clustered::<u16>(&mut rng, 512, 2048, row_nnz, spread);
            (m, gen::dense_vector(&mut rng, 2048))
        });
        let base =
            ctx.kernel("cluster csrmv BASE", |r| kernels::cluster_csrmv(r, Variant::Base, &m, &x));
        let issr = ctx
            .kernel("cluster csrmv ISSR-16", |r| kernels::cluster_csrmv(r, Variant::Issr, &m, &x));
        let s = rep.point(&base, &[&issr], &[])[0];
        if row_nnz == 1 {
            row1 = s;
        }
        peak = fmax(peak, s);
        util = fmax(util, issr.as_ref().map(|o| o.util));
    }
    for (i, entry) in suite::suite().into_iter().filter(|e| e.nnz <= SUITE_MAX_NNZ).enumerate() {
        let (m, x) = ctx.gen("suite::build", || {
            let m = entry.build::<u16>();
            let mut rng = gen::rng(mix(seed, 0x4D, i as u64, 0));
            let x = gen::dense_vector(&mut rng, m.ncols());
            (m, x)
        });
        let base =
            ctx.kernel("suite csrmv BASE", |r| kernels::cluster_csrmv(r, Variant::Base, &m, &x));
        let issr =
            ctx.kernel("suite csrmv ISSR-16", |r| kernels::cluster_csrmv(r, Variant::Issr, &m, &x));
        rep.point(&base, &[&issr], &[]);
        gain = fmax(gain, rep.energy_pair(&base, &issr));
    }
    rep.anchor("fig4c.speedup_row1", row1);
    rep.anchor("fig4c.speedup_peak", peak);
    rep.anchor("fig4c.peak_worker_util", util);
    rep.anchor("fig4d.energy_gain", gain);
}

/// 4-cluster system CsrMV on operands several times the TCDM, streamed
/// from main memory. The in-TCDM cluster peak of Fig. 4c is its anchor:
/// the deviation is what streaming through the shared DMA costs.
fn system_csrmv(ctx: &mut Ctx, seed: u64, rep: &mut Rep) {
    let mut peak = None;
    let shapes: [(&str, usize, usize, usize); 2] =
        [("uniform", 4096, 1024, 160_000), ("short rows", 8192, 2048, 64_000)];
    for (i, &(label, nrows, ncols, nnz)) in shapes.iter().enumerate() {
        let (m, x) = ctx.gen("gen::csr_uniform", || {
            let mut rng = gen::rng(mix(seed, 0x5C, i as u64, 0));
            let m = gen::csr_uniform::<u16>(&mut rng, nrows, ncols, nnz);
            (m, gen::dense_vector(&mut rng, ncols))
        });
        let base = ctx.kernel(&format!("system csrmv {label} BASE"), |r| {
            kernels::system_csrmv(r, Variant::Base, &m, &x)
        });
        let issr = ctx.kernel(&format!("system csrmv {label} ISSR-16"), |r| {
            kernels::system_csrmv(r, Variant::Issr, &m, &x)
        });
        peak = fmax(peak, rep.point(&base, &[&issr], &[])[0]);
        rep.energy_pair(&base, &issr);
    }
    rep.anchor("fig4c.speedup_peak", peak);
}

/// Sparse-output kernels: single-CC SpGEMM regimes, cluster two-pass
/// SpGEMM, 4-cluster multi-panel SpGEMM, SpMSpV through the joiner, and
/// one dense-row CsrMV as the read-side control (the Fig. 4b anchor).
fn sparse_out(ctx: &mut Ctx, seed: u64, rep: &mut Rep) {
    // (label, rows of A, inner, columns of B, nnz per A row, nnz per B row)
    let regimes: [(&str, usize, usize, usize, usize, usize); 3] = [
        ("hypersparse", 32, 64, 96, 4, 4),
        ("moderate", 24, 64, 256, 4, 24),
        ("dense-rows", 16, 64, 512, 8, 48),
    ];
    for (i, &(label, nrows, inner, ncols, a_row, b_row)) in regimes.iter().enumerate() {
        let (a, b) = ctx.gen("gen::csr_fixed_row_nnz", || {
            let mut rng = gen::rng(mix(seed, 0x50, i as u64, 0));
            let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, nrows, inner, a_row);
            let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, inner, ncols, b_row);
            (a, b)
        });
        let base = ctx.kernel(&format!("spgemm {label} BASE"), |r| {
            kernels::cc_spgemm(r, Variant::Base, &a, &b)
        });
        let issr = ctx.kernel(&format!("spgemm {label} ISSR-16"), |r| {
            kernels::cc_spgemm(r, Variant::Issr, &a, &b)
        });
        rep.point(&base, &[&issr], &[]);
    }
    let (a, b) = ctx.gen("gen::csr_fixed_row_nnz", || {
        let mut rng = gen::rng(mix(seed, 0x51, 0, 0));
        let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, 64, 64, 4);
        let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, 64, 256, 24);
        (a, b)
    });
    let base =
        ctx.kernel("cluster spgemm BASE", |r| kernels::cluster_spgemm(r, Variant::Base, &a, &b));
    let issr =
        ctx.kernel("cluster spgemm ISSR-16", |r| kernels::cluster_spgemm(r, Variant::Issr, &a, &b));
    rep.point(&base, &[&issr], &[]);
    let (a, b) = ctx.gen("gen::csr_fixed_row_nnz", || {
        let mut rng = gen::rng(mix(seed, 0x52, 0, 0));
        let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, 512, 128, 8);
        let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, 128, 160, 8);
        (a, b)
    });
    let caps = (256, 2_048);
    let base = ctx
        .kernel("system spgemm BASE", |r| kernels::system_spgemm(r, Variant::Base, &a, &b, caps));
    let issr = ctx.kernel("system spgemm ISSR-16", |r| {
        kernels::system_spgemm(r, Variant::Issr, &a, &b, caps)
    });
    rep.point(&base, &[&issr], &[]);
    let (m, x) = ctx.gen("gen::csr_fixed_row_nnz+sparse_vector", || {
        let mut rng = gen::rng(mix(seed, 0x53, 0, 0));
        let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, 128, 2048, 16);
        (m, gen::sparse_vector::<u16>(&mut rng, 2048, 256))
    });
    let base = ctx.kernel("spmspv BASE", |r| kernels::cc_spmspv(r, Variant::Base, &m, &x));
    let issr = ctx.kernel("spmspv ISSR-16", |r| kernels::cc_spmspv(r, Variant::Issr, &m, &x));
    rep.point(&base, &[&issr], &[]);
    let (m32, m16, x) = ctx.gen("gen::csr_fixed_row_nnz", || {
        let mut rng = gen::rng(mix(seed, 0x54, 0, 0));
        let m32 = gen::csr_fixed_row_nnz::<u32>(&mut rng, 64, 2048, 512);
        let m16 = m32.with_index_width::<u16>();
        (m32, m16, gen::dense_vector(&mut rng, 2048))
    });
    let base = ctx.kernel("control csrmv BASE", |r| kernels::cc_csrmv(r, Variant::Base, &m32, &x));
    let issr =
        ctx.kernel("control csrmv ISSR-16", |r| kernels::cc_csrmv(r, Variant::Issr, &m16, &x));
    let s = rep.point(&base, &[&issr], &[])[0];
    rep.anchor("fig4b.issr16_speedup", s);
}
