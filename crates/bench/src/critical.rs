//! Critical-path sections for the `BENCH_*.json` envelopes.
//!
//! Thin adapters from the simulator's three run-summary shapes to
//! [`issr_trace::critpath::extract`]. Every bench binary emits the path
//! as its `critical_path` section ([`CriticalPath::to_json`]): the exact
//! cycle partition (`compute` + per-edge cycles == `length`) and the
//! dominant edge with its what-if savings bound. The roofline verdict
//! beside it says what kind of bound applies; the path says where the
//! cycles went.

use issr_cluster::cluster::ClusterSummary;
use issr_snitch::cc::RunSummary;
use issr_system::system::SystemSummary;
use issr_trace::CriticalPath;

/// The critical path of a single-CC run: blame walk from the hart at
/// end of ROI, one level of descent into the busiest lane.
#[must_use]
pub fn cc_critical_path(summary: &RunSummary) -> CriticalPath {
    summary.attr.critical_path()
}

/// The critical path of a standalone-cluster run: blame walk from the
/// worker with the longest ROI.
#[must_use]
pub fn cluster_critical_path(summary: &ClusterSummary) -> CriticalPath {
    summary.attr.critical_path()
}

/// The critical path of a multi-cluster run: each cluster's own path
/// (terminal worker chosen within the cluster), and of those the
/// longest — the cluster the run waited on last. Ties go to the lowest
/// cluster index. Merging per-hart tables across clusters first would
/// sum ROIs that ran side by side into a path longer than the run.
#[must_use]
pub fn system_critical_path(summary: &SystemSummary) -> CriticalPath {
    let mut best = CriticalPath::default();
    for c in &summary.clusters {
        let path = c.attr.critical_path();
        // Strictly greater: ties keep the earlier cluster.
        if path.length > best.length {
            best = path;
        }
    }
    best
}

/// The human one-liner printed next to the verdict line: dominant edge,
/// its savings bound, and the partition it came from.
#[must_use]
pub fn critical_path_line(label: &str, path: &CriticalPath) -> String {
    match path.dominant() {
        Some(edge) => format!(
            "critical-path[{label}]: {} cycles = {} compute + {} blocked; \
             dominant edge {} (eliminating it saves <= {} cycles)",
            path.length,
            path.compute,
            path.blocked(),
            edge.label(),
            path.get(edge),
        ),
        None => format!(
            "critical-path[{label}]: {} cycles, all compute — no blocking edges",
            path.length
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_kernels::cluster_csrmv::run_cluster_csrmv;
    use issr_kernels::variant::Variant;
    use issr_sparse::gen;
    use issr_trace::Json;

    /// A real cluster run yields an exactly partitioned path whose JSON
    /// section carries the partition.
    #[test]
    fn cluster_critical_path_partitions_exactly() {
        let mut rng = gen::rng(0x000F_1701);
        let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, 64, 64, 12);
        let x = gen::dense_vector(&mut rng, 64);
        let run = run_cluster_csrmv(Variant::Issr, &m, &x).expect("run");
        let path = cluster_critical_path(&run.summary);
        assert!(path.length > 0);
        assert_eq!(path.compute + path.blocked(), path.length, "exact partition");
        let section = path.to_json();
        assert_eq!(section.get("length").and_then(Json::as_int), Some(path.length as i64));
        let edges = section.get("edges").expect("edges object");
        let Json::Obj(pairs) = edges else { panic!("edges must be an object") };
        let sum: i64 = pairs.iter().filter_map(|(_, v)| v.as_int()).sum();
        assert_eq!(sum as u64, path.blocked(), "edge attribution sums to the blocked share");
        assert!(critical_path_line("test", &path).contains("cycles"));
    }
}
