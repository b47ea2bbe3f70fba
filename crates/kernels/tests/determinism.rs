//! Run-to-run determinism of the system and cluster harnesses, and
//! their equivalence on one cluster.
//!
//! The system tick is serial: clusters tick whole in a rotated grant
//! order that depends only on the cycle number, and idle units are
//! skipped only when provably idle. So every observable must be
//! bit-identical when the same input runs twice: kernel outputs, cycle
//! counts, stall-cause attribution tables, and the Perfetto trace
//! export. These tests pin that guarantee on randomized CsrMV / SpGEMM /
//! SpMSpV workloads.

use issr_cluster::cluster::Cluster;
use issr_kernels::cluster_csrmv::{build_cluster_csrmv, ClusterCsrmvPlan};
use issr_kernels::cluster_spmspv::run_cluster_spmspv;
use issr_kernels::system_csrmv::run_system_csrmv_traced;
use issr_kernels::system_spgemm::{run_system_spgemm_planned, SystemSpgemmPlan};
use issr_kernels::variant::Variant;
use issr_sparse::gen;
use issr_sparse::CsrMatrix;
use issr_system::system::{System, SystemParams};
use issr_trace::{Keep, Recorder};

fn params(n_clusters: usize) -> SystemParams {
    SystemParams { n_clusters, ..SystemParams::default() }
}

/// One run's complete observable footprint, bitwise.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    out_bits: Vec<u64>,
    cycles: u64,
    attr: String,
    trace: String,
}

fn system_csrmv_fingerprint(m: &CsrMatrix<u32>, x: &[f64]) -> Fingerprint {
    let mut rec = Recorder::new(Keep::Head, 4096);
    let run = run_system_csrmv_traced::<u32>(Variant::Issr, m, x, params(4), &mut rec)
        .expect("system CsrMV completes");
    Fingerprint {
        out_bits: run.y.iter().map(|v| v.to_bits()).collect(),
        cycles: run.summary.cycles,
        attr: format!("{:?}", run.summary.clusters.iter().map(|c| &c.attr).collect::<Vec<_>>()),
        trace: rec.to_chrome_json().to_string(),
    }
}

fn system_spgemm_fingerprint(a: &CsrMatrix<u32>, b: &CsrMatrix<u32>) -> Fingerprint {
    let n_workers = SystemParams::default().cluster.n_workers as u32;
    let plan = SystemSpgemmPlan::new(Variant::Issr, a, b, n_workers);
    let run = run_system_spgemm_planned::<u32>(Variant::Issr, a, b, plan, params(4))
        .expect("system SpGEMM completes");
    Fingerprint {
        out_bits: run.c.vals().iter().map(|v| v.to_bits()).collect(),
        cycles: run.summary.cycles,
        attr: format!("{:?}", run.summary.clusters.iter().map(|c| &c.attr).collect::<Vec<_>>()),
        trace: format!("{:?}/{:?}", run.c.ptr(), run.c.idcs()),
    }
}

#[test]
fn system_csrmv_is_run_to_run_deterministic() {
    let mut rng = gen::rng(0x5eed_c5e1);
    let m = gen::csr_uniform::<u32>(&mut rng, 48, 64, 420);
    let x = gen::dense_vector(&mut rng, 64);
    assert_eq!(system_csrmv_fingerprint(&m, &x), system_csrmv_fingerprint(&m, &x));
}

#[test]
fn system_spgemm_is_run_to_run_deterministic() {
    let mut rng = gen::rng(0x5eed_59e3);
    let a = gen::csr_fixed_row_nnz::<u32>(&mut rng, 24, 32, 6);
    let b = gen::csr_fixed_row_nnz::<u32>(&mut rng, 32, 28, 5);
    assert_eq!(system_spgemm_fingerprint(&a, &b), system_spgemm_fingerprint(&a, &b));
}

/// The same dirty-set skipping runs under the bare cluster harness:
/// randomized SpMSpV must stay bit-identical run to run.
#[test]
fn cluster_spmspv_is_run_to_run_deterministic() {
    let mut rng = gen::rng(0x5eed_535d);
    let m = gen::csr_uniform::<u32>(&mut rng, 40, 48, 300);
    let x = gen::sparse_vector::<u32>(&mut rng, 48, 12);
    let one = run_cluster_spmspv::<u32>(Variant::Issr, &m, &x).expect("SpMSpV completes");
    let two = run_cluster_spmspv::<u32>(Variant::Issr, &m, &x).expect("SpMSpV completes");
    let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&one.y), bits(&two.y));
    assert_eq!(one.summary.cycles, two.summary.cycles);
    assert_eq!(format!("{:?}", one.summary.attr), format!("{:?}", two.summary.attr));
}

/// Cross-harness equivalence: a 1-cluster `System` whose shared memory
/// matches a standalone cluster's private one (no access latency, 8
/// words per cycle) runs the cluster CsrMV program exactly like a bare
/// `Cluster` — the same cycles, output bits and attribution tables.
#[test]
fn one_cluster_system_matches_bare_cluster() {
    let params = SystemParams {
        n_clusters: 1,
        dma_latency: 0,
        dma_words_per_cycle: 8,
        ..SystemParams::default()
    };
    let bits = |y: Vec<f64>| y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    for seed in 0..5u64 {
        let mut rng = gen::rng(seed);
        let m = gen::csr_uniform::<u32>(&mut rng, 64, 96, 900);
        let x = gen::dense_vector(&mut rng, 96);
        let plan = ClusterCsrmvPlan::new(&m, params.cluster.n_workers as u32);
        let program = build_cluster_csrmv::<u32>(Variant::Issr, &plan);
        let mut cluster = Cluster::new(program.clone(), params.cluster);
        plan.marshal(&mut cluster, &m, &x);
        let bare = cluster.run(1_000_000).expect("cluster run completes");
        let mut system = System::new(program, params);
        plan.marshal_into(system.main.array_mut(), &m, &x);
        let sys = system.run(1_000_000).expect("system run completes");
        assert_eq!(sys.cycles, bare.cycles, "seed {seed}: cycles");
        assert_eq!(
            bits(plan.read_y_from(system.main.array())),
            bits(plan.read_y(&cluster)),
            "seed {seed}: output bits"
        );
        assert_eq!(
            format!("{:?}", sys.clusters[0].attr),
            format!("{:?}", bare.attr),
            "seed {seed}: attribution"
        );
    }
}
