//! Property tests for the observability layer (`issr-trace`):
//!
//! * **Exactness** — every unit's stall-cause breakdown sums exactly to
//!   the elapsed cycles it covers (ROI cycles for core-complex units,
//!   cluster cycles for the DMA engine), across randomized SpMSpV,
//!   SpGEMM and multi-cluster system runs. Attribution is recorded at
//!   the single place each cycle counter advances, so any drift is a
//!   bookkeeping bug.
//! * **Neutrality** — enabling the interval recorder changes neither a
//!   cycle count nor an output bit: tracing only reads state the
//!   simulation latches anyway. The same holds for the post-mortem
//!   flight recorders.
//! * **Wait-graph soundness** — every blocked cycle of every unit maps
//!   to exactly one outgoing edge, so per-unit edge sums equal the
//!   breakdowns' blocked counts, and the critical path partitions
//!   exactly within the ROI.
//! * **Trace truth** — the Perfetto trace agrees with the attribution
//!   tables: its spans are disjoint and inside the run, each DMA track's
//!   cause durations equal the DMA table, and its `"active"` spans are
//!   exactly the busy intervals of the old busy/idle rule.

use std::collections::{BTreeMap, BTreeSet};

use issr_cluster::cluster::ClusterRecorder;
use issr_kernels::cluster_csrmv::ClusterCsrmvPlan;
use issr_kernels::spgemm::run_spgemm;
use issr_kernels::spmspv::run_spmspv;
use issr_kernels::system_csrmv::{build_system_csrmv, run_system_csrmv, run_system_csrmv_traced};
use issr_kernels::variant::Variant;
use issr_snitch::attr::CcAttribution;
use issr_snitch::cc::{run_until_quiescent, Machine};
use issr_sparse::gen;
use issr_system::system::{System, SystemParams};
use issr_trace::waitgraph::UnitClass;
use issr_trace::{
    is_blocked, CycleBreakdown, Json, Keep, Recorder, StallCause, StatMerge, WaitGraph,
};
use proptest::prelude::*;

/// The blocked cycles of one breakdown (everything that is not Active,
/// Idle or Parked — the causes that map to a wait-graph edge).
fn blocked_cycles(b: &CycleBreakdown) -> u64 {
    b.iter().filter(|&(c, _)| is_blocked(c)).map(|(_, n)| n).sum()
}

/// Asserts one unit's edge contribution equals its blocked cycles —
/// "every blocked cycle has exactly one outgoing edge" over a real run.
fn assert_unit_edges(unit: UnitClass, b: &CycleBreakdown, what: &str) {
    let mut g = WaitGraph::new();
    g.add_breakdown(unit, b);
    assert_eq!(g.total(), blocked_cycles(b), "{what}: unit edge sum vs blocked stall cycles");
}

/// Asserts every table of one core complex's attribution totals `roi`.
fn assert_cc_sums(attr: &CcAttribution, roi: u64, what: &str) {
    assert_eq!(attr.hart.total(), roi, "{what}: hart table vs ROI cycles");
    for (i, lane) in attr.lanes.iter().enumerate() {
        assert_eq!(lane.total(), roi, "{what}: lane ft{i} table vs ROI cycles");
    }
    assert_eq!(attr.joiner.total(), roi, "{what}: joiner table vs ROI cycles");
    assert_eq!(attr.spacc.total(), roi, "{what}: spacc table vs ROI cycles");
}

/// A span interval on one track: `(pid, track name, start, end)`.
type Interval = (u64, String, u64, u64);

/// The old busy/idle trace rule, kept here as the reference: a unit is
/// busy while its latched cause is `Active`, and each busy run is one
/// interval.
#[derive(Default)]
struct BusyIntervals {
    open: BTreeMap<(u64, String), u64>,
    closed: BTreeSet<Interval>,
}

impl BusyIntervals {
    fn sample(&mut self, pid: u64, name: String, now: u64, cause: StallCause) {
        let busy = cause == StallCause::Active;
        match (self.open.get(&(pid, name.clone())), busy) {
            (None, true) => drop(self.open.insert((pid, name), now)),
            (Some(&start), false) => {
                self.open.remove(&(pid, name.clone()));
                self.closed.insert((pid, name, start, now));
            }
            _ => {}
        }
    }

    fn observe(&mut self, s: &System) {
        let now = s.now() - 1;
        for (pid, c) in (0u64..).zip(&s.clusters) {
            for (i, cc) in c.workers.iter().enumerate() {
                let causes = cc.last_causes();
                self.sample(pid, format!("hart {i}"), now, causes.hart);
                for (l, &cause) in causes.streamer.lanes.iter().enumerate() {
                    self.sample(pid, format!("hart {i} ft{l}"), now, cause);
                }
            }
            self.sample(pid, "dmcc".into(), now, c.dmcc.last_causes().hart);
            self.sample(pid, "dma".into(), now, c.dma.last_cause());
        }
    }

    fn finish(mut self, end: u64) -> BTreeSet<Interval> {
        for ((pid, name), start) in std::mem::take(&mut self.open) {
            self.closed.insert((pid, name, start, end));
        }
        self.closed
    }
}

/// Every span of a Chrome trace as `(cause, interval)`, in export order.
fn trace_spans(doc: &Json) -> Vec<(String, Interval)> {
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    let int = |e: &Json, k: &str| e.get(k).and_then(Json::as_int).expect("integer field") as u64;
    let mut names = BTreeMap::new();
    let mut spans = Vec::new();
    for e in events {
        let key = (int(e, "pid"), e.get("tid").and_then(Json::as_int).unwrap_or(0) as u64);
        match e.get("ph").and_then(Json::as_str) {
            Some("M") => {
                let name = e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str);
                names.insert(key, name.expect("thread name").to_owned());
            }
            Some("X") => {
                let cause = e.get("name").and_then(Json::as_str).expect("span name").to_owned();
                let (ts, dur) = (int(e, "ts"), int(e, "dur"));
                spans.push((cause, (key.0, names[&key].clone(), ts, ts + dur)));
            }
            _ => {}
        }
    }
    spans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Joiner-backed SpMSpV: attributed cycles sum exactly to the ROI
    /// cycle count for every unit of the core complex.
    #[test]
    fn spmspv_attribution_sums_to_roi_cycles(
        nrows in 1usize..24,
        ncols in 32usize..512,
        row_nnz in 1usize..24,
        x_nnz in 1usize..64,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed);
        let row_nnz = row_nnz.min(ncols);
        let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, nrows, ncols, row_nnz);
        let x = gen::sparse_vector::<u16>(&mut rng, ncols, x_nnz.min(ncols));
        let run = run_spmspv(Variant::Issr, &m, &x).expect("spmspv run");
        let roi = run.summary.metrics.roi.cycles;
        prop_assert!(roi > 0, "the kernel must open a ROI");
        assert_cc_sums(&run.summary.attr, roi, "SpMSpV");
    }

    /// SpAcc-backed SpGEMM: same exactness invariant, now with the
    /// accumulator in the unit mix.
    #[test]
    fn spgemm_attribution_sums_to_roi_cycles(
        nrows in 1usize..10,
        inner in 1usize..24,
        ncols in 1usize..48,
        fill_a in 1usize..4,
        fill_b in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed);
        let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, nrows, inner, fill_a.min(inner));
        let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, inner, ncols, fill_b.min(ncols));
        let run = run_spgemm(Variant::Issr, &a, &b).expect("spgemm run");
        let roi = run.summary.metrics.roi.cycles;
        assert_cc_sums(&run.summary.attr, roi, "SpGEMM");
    }

    /// Wait-graph soundness over joiner-backed SpMSpV runs: every unit
    /// contributes exactly its blocked cycles (one edge per blocked
    /// cycle, none for active/idle/parked), so the whole graph's total
    /// is the attribution's blocked total, and the critical path is an
    /// exact partition bounded by the ROI.
    #[test]
    fn wait_graph_and_critical_path_are_sound(
        nrows in 1usize..24,
        ncols in 32usize..512,
        row_nnz in 1usize..24,
        x_nnz in 1usize..64,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed);
        let row_nnz = row_nnz.min(ncols);
        let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, nrows, ncols, row_nnz);
        let x = gen::sparse_vector::<u16>(&mut rng, ncols, x_nnz.min(ncols));
        let run = run_spmspv(Variant::Issr, &m, &x).expect("spmspv run");
        let attr = &run.summary.attr;
        // Per-unit edge sums equal the breakdowns' blocked counts.
        assert_unit_edges(UnitClass::Hart, &attr.hart, "hart");
        for (i, lane) in attr.lanes.iter().enumerate() {
            assert_unit_edges(UnitClass::Lane, lane, &format!("ft{i}"));
        }
        assert_unit_edges(UnitClass::Joiner, &attr.joiner, "joiner");
        assert_unit_edges(UnitClass::SpAcc, &attr.spacc, "spacc");
        // Whole-graph total is the blocked total across every unit.
        let blocked: u64 = std::iter::once(&attr.hart)
            .chain(attr.lanes.iter())
            .chain([&attr.joiner, &attr.spacc])
            .map(blocked_cycles)
            .sum();
        prop_assert_eq!(attr.wait_graph().total(), blocked);
        // The critical path partitions exactly and fits inside the ROI.
        let path = attr.critical_path();
        prop_assert_eq!(path.length, attr.roi_cycles());
        prop_assert_eq!(path.compute + path.blocked(), path.length, "exact partition");
        prop_assert!(path.length <= run.summary.cycles, "ROI path fits in the elapsed run");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Multi-cluster system CsrMV: every worker's and the DMCC's tables
    /// sum to their own ROI cycles, and the DMA engine's table sums to
    /// the cluster's elapsed cycles.
    #[test]
    fn system_attribution_sums_per_cluster(
        nrows in 32usize..160,
        ncols in 32usize..160,
        density in 1usize..8,
        n_clusters in prop_oneof![Just(1usize), Just(2)],
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed);
        let nnz = (nrows * density).min(nrows * ncols);
        let m = gen::csr_uniform::<u16>(&mut rng, nrows, ncols, nnz);
        let x = gen::dense_vector(&mut rng, ncols);
        let run = run_system_csrmv(Variant::Issr, &m, &x, n_clusters).expect("system run");
        for (ci, c) in run.summary.clusters.iter().enumerate() {
            for (wi, (w, metrics)) in
                c.attr.workers.iter().zip(c.worker_metrics.iter()).enumerate()
            {
                assert_cc_sums(w, metrics.roi.cycles, &format!("c{ci}/hart{wi}"));
            }
            assert_cc_sums(&c.attr.dmcc, c.dmcc_metrics.roi.cycles, &format!("c{ci}/dmcc"));
            prop_assert_eq!(
                c.attr.dma.total(),
                c.cycles,
                "c{}: DMA table must sum to the cluster cycles", ci
            );
        }
    }

    /// Tracing neutrality: the instrumented run finishes in the same
    /// number of cycles and produces bit-identical output, and its
    /// Chrome export carries the expected metadata tracks.
    #[test]
    fn tracing_changes_no_bit_and_no_cycle(
        nrows in 32usize..128,
        ncols in 32usize..128,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed);
        let nnz = (nrows * 4).min(nrows * ncols);
        let m = gen::csr_uniform::<u16>(&mut rng, nrows, ncols, nnz);
        let x = gen::dense_vector(&mut rng, ncols);
        let params = SystemParams { n_clusters: 2, ..SystemParams::default() };
        let plain =
            run_system_csrmv(Variant::Issr, &m, &x, params.n_clusters).expect("plain run");
        let mut rec = Recorder::new(Keep::Head, 4_096);
        let traced =
            run_system_csrmv_traced(Variant::Issr, &m, &x, params, &mut rec).expect("traced run");
        let trace = rec.to_chrome_json();
        prop_assert_eq!(plain.summary.cycles, traced.summary.cycles, "cycle counts must match");
        let plain_bits: Vec<u64> = plain.y.iter().map(|v| v.to_bits()).collect();
        let traced_bits: Vec<u64> = traced.y.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(plain_bits, traced_bits, "output bits must match");
        // The export names one track per hart (workers + DMCC), per
        // stream lane and per DMA engine of each cluster.
        let events = trace.get("traceEvents").and_then(issr_trace::Json::as_arr)
            .expect("traceEvents array");
        let meta = events.iter()
            .filter(|e| e.get("ph").and_then(issr_trace::Json::as_str) == Some("M"))
            .count();
        let n_workers = params.cluster.n_workers;
        let lanes_per_worker = 2;
        let expect = params.n_clusters
            * (n_workers + n_workers * lanes_per_worker + 1 + 1);
        prop_assert_eq!(meta, expect, "one metadata record per registered track");
    }

    /// Observer neutrality: a run with no observer at all and one with
    /// the flight recorder and the Perfetto recorder observing finish in
    /// the same cycle with bit-identical output, and the wait graph
    /// derived from the attribution tables sees the contention.
    #[test]
    fn recorders_change_no_bit_and_no_cycle(
        nrows in 32usize..128,
        ncols in 32usize..128,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed);
        let nnz = (nrows * 4).min(nrows * ncols);
        let m = gen::csr_uniform::<u16>(&mut rng, nrows, ncols, nnz);
        let x = gen::dense_vector(&mut rng, ncols);
        let params = SystemParams { n_clusters: 2, ..SystemParams::default() };
        let plan = ClusterCsrmvPlan::new(&m, params.cluster.n_workers as u32);
        let mut bare = System::new(build_system_csrmv::<u16>(Variant::Issr, &plan), params);
        plan.marshal_into(bare.main.array_mut(), &m, &x);
        bare.set_work_queue(plan.queue_addr());
        run_until_quiescent(&mut bare, 10_000_000, |_| {}).expect("bare run");
        let mut rec = Recorder::new(Keep::Head, 4_096);
        let recorded =
            run_system_csrmv_traced(Variant::Issr, &m, &x, params, &mut rec).expect("observed run");
        prop_assert_eq!(bare.now(), recorded.summary.cycles, "cycles must match");
        let plain_bits: Vec<u64> =
            plan.read_y_from(bare.main.array()).iter().map(|v| v.to_bits()).collect();
        let rec_bits: Vec<u64> = recorded.y.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(plain_bits, rec_bits, "output bits must match");
        let mut derived = WaitGraph::new();
        for c in &recorded.summary.clusters {
            derived.merge_from(&c.attr.wait_graph());
        }
        prop_assert!(derived.total() > 0, "a contended system run must block somewhere");
    }

    /// The Perfetto trace and the attribution tables tell the same story
    /// (recorded with a cap nothing reaches).
    #[test]
    fn trace_agrees_with_attribution(
        nrows in 32usize..96,
        ncols in 32usize..96,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed);
        let nnz = (nrows * 4).min(nrows * ncols);
        let m = gen::csr_uniform::<u16>(&mut rng, nrows, ncols, nnz);
        let x = gen::dense_vector(&mut rng, ncols);
        let params = SystemParams { n_clusters: 2, ..SystemParams::default() };
        let plan = ClusterCsrmvPlan::new(&m, params.cluster.n_workers as u32);
        let mut system = System::new(build_system_csrmv::<u16>(Variant::Issr, &plan), params);
        plan.marshal_into(system.main.array_mut(), &m, &x);
        system.set_work_queue(plan.queue_addr());
        let mut trace = ClusterRecorder::new(&system.clusters, Recorder::new(Keep::Head, 1 << 20));
        let mut busy = BusyIntervals::default();
        let summary = system
            .run_with(10_000_000, |s| {
                trace.sample(&s.clusters);
                busy.observe(s);
            })
            .expect("traced run");
        let mut rec = trace.into_recorder();
        rec.finish(summary.cycles);
        prop_assert_eq!(rec.dropped(), 0, "the cap must hold the whole run");
        let spans = trace_spans(&rec.to_chrome_json());
        // Per track: disjoint, sorted and inside [0, cycles].
        let mut last_end: BTreeMap<(u64, String), u64> = BTreeMap::new();
        for (cause, (pid, name, start, end)) in &spans {
            prop_assert!(start < end && *end <= summary.cycles, "{} {}: {} span [{}, {})", pid, name, cause, start, end);
            let prev = last_end.insert((*pid, name.clone()), *end).unwrap_or(0);
            prop_assert!(prev <= *start, "{} {}: span at {} overlaps one ending {}", pid, name, start, prev);
        }
        // Each DMA track's time per cause is that cluster's DMA table.
        for (pid, c) in (0u64..).zip(&summary.clusters) {
            let mut traced: BTreeMap<String, u64> = BTreeMap::new();
            for (cause, (_, _, start, end)) in spans.iter().filter(|(_, t)| t.0 == pid && t.1 == "dma") {
                *traced.entry(cause.clone()).or_default() += end - start;
            }
            let table: BTreeMap<String, u64> = c.attr.dma.iter()
                .filter(|&(cause, n)| cause != StallCause::Idle && n > 0)
                .map(|(cause, n)| (cause.label().to_owned(), n))
                .collect();
            prop_assert_eq!(traced, table, "cluster {} DMA spans vs attribution", pid);
        }
        // The "active" spans are the busy intervals.
        let active: BTreeSet<Interval> =
            spans.into_iter().filter(|(cause, _)| cause == "active").map(|(_, t)| t).collect();
        prop_assert_eq!(active, busy.finish(summary.cycles));
    }
}
