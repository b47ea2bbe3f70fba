//! The multi-cluster system model and its run harness.
//!
//! N clusters — each the paper's eight-worker Snitch cluster with its
//! private TCDM and 512-bit DMA engine — share one main memory behind a
//! bandwidth-arbitrated interconnect. Arbitration is a rotating
//! round-robin grant: every system cycle the shared memory's per-cycle
//! word budget is reset and the clusters tick in rotated order, so the
//! first cluster in this cycle's order draws bandwidth first and the
//! rotation makes the grant fair over time. Denied word requests stall
//! the requesting DMA engine for the cycle and are counted
//! ([`issr_mem::main_mem::MainMemStats::dma_denied`],
//! [`issr_mem::dma::DmaStats::stall_cycles`]) — the contention signal
//! the scaling benchmarks report.
//!
//! Inter-cluster synchronization uses main-memory words: ordinary flag
//! words over the narrow (core) path, plus one hardware fetch-and-add
//! ticket counter ([`System::set_work_queue`]) from which the clusters'
//! DMCCs claim row-panel tiles of a shared work queue.

use issr_cluster::cluster::{Cluster, ClusterParams, ClusterRecorder, ClusterSummary};
use issr_isa::asm::Program;
use issr_mem::dma::DmaStats;
use issr_mem::main_mem::{MainMemStats, MainMemory};
use issr_mem::map::{MAIN_BASE, MAIN_SIZE};
use issr_snitch::cc::{run_until_quiescent, Machine, SimTimeout};
use issr_snitch::core::Trap;
use issr_trace::{merge::merge_all, PostMortem};

/// System configuration.
#[derive(Clone, Copy, Debug)]
pub struct SystemParams {
    /// Clusters sharing the main memory.
    pub n_clusters: usize,
    /// Per-cluster configuration (all clusters identical).
    pub cluster: ClusterParams,
    /// Aggregate main-memory bandwidth in words per cycle per direction,
    /// shared by all clusters. The default (16) is two cluster ports'
    /// worth: one cluster cannot saturate it alone, four contend — the
    /// regime the scaling studies probe.
    pub dma_words_per_cycle: u32,
    /// Per-transfer main-memory access latency in cycles (burst setup).
    pub dma_latency: u64,
}

impl Default for SystemParams {
    fn default() -> Self {
        Self {
            n_clusters: 2,
            cluster: ClusterParams::default(),
            dma_words_per_cycle: 16,
            dma_latency: 8,
        }
    }
}

/// Result of a completed system run.
#[derive(Clone, Debug)]
pub struct SystemSummary {
    /// Total cycles until every cluster went quiescent.
    pub cycles: u64,
    /// Per-cluster summaries (cycles, worker metrics, DMA/TCDM stats).
    pub clusters: Vec<ClusterSummary>,
    /// Shared main-memory interface counters (contention included).
    pub main: MainMemStats,
    /// Cycles in which at least one cluster moved DMA words while at
    /// least one worker (any cluster) was inside its ROI — the
    /// DMA/compute overlap the double-buffered kernels exist for.
    pub overlap_cycles: u64,
}

impl SystemSummary {
    /// Total multiply-accumulates retired across all clusters' workers.
    #[must_use]
    pub fn total_fmadds(&self) -> u64 {
        self.clusters.iter().map(ClusterSummary::total_fmadds).sum()
    }

    /// All traps across the system, tagged with their cluster index.
    #[must_use]
    pub fn traps(&self) -> Vec<(usize, Trap)> {
        self.clusters
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.traps.iter().map(move |t| (i, *t)))
            .collect()
    }

    /// All clusters' DMA statistics folded into one (the single
    /// aggregation path every total below reads from).
    #[must_use]
    pub fn merged_dma_stats(&self) -> DmaStats {
        merge_all(self.clusters.iter().map(|c| &c.dma_stats))
    }

    /// Total DMA words moved by all clusters (both directions).
    #[must_use]
    pub fn total_dma_words(&self) -> u64 {
        let dma = self.merged_dma_stats();
        dma.words_in + dma.words_out
    }

    /// Total cycles DMA engines stalled on denied main-memory bandwidth.
    #[must_use]
    pub fn total_dma_stalls(&self) -> u64 {
        self.merged_dma_stats().stall_cycles
    }

    /// Fraction of DMA word requests denied by the shared interface —
    /// zero on an uncontended run, grows with cluster count.
    #[must_use]
    pub fn contention_ratio(&self) -> f64 {
        let served = self.main.wide_beats;
        if served + self.main.dma_denied == 0 {
            return 0.0;
        }
        self.main.dma_denied as f64 / (served + self.main.dma_denied) as f64
    }
}

/// N clusters behind one bandwidth-arbitrated main memory.
#[derive(Debug)]
pub struct System {
    /// The clusters (identical programs; `mhartid` dispatches within a
    /// cluster, the work queue distinguishes clusters dynamically).
    pub clusters: Vec<Cluster>,
    /// The shared main memory.
    pub main: MainMemory,
    /// Round-robin rotation pointer (this cycle's first-granted cluster).
    rr: usize,
    now: u64,
    overlap_cycles: u64,
    /// Per-cluster quiescence, memoized by the run loop: halting is
    /// terminal, so a cluster once quiescent is never re-checked.
    done: Vec<bool>,
}

impl System {
    /// Builds the system; every cluster runs `program` (SPMD within the
    /// cluster via `mhartid`, dynamic tile claims across clusters).
    #[must_use]
    pub fn new(program: Program, params: SystemParams) -> Self {
        assert!(params.n_clusters >= 1, "a system needs at least one cluster");
        let clusters = (0..params.n_clusters)
            .map(|i| Cluster::new_for_system(program.clone(), params.cluster, i))
            .collect();
        let main = MainMemory::new(MAIN_BASE, MAIN_SIZE)
            .with_dma_bandwidth(params.dma_words_per_cycle)
            .with_dma_latency(params.dma_latency);
        Self {
            clusters,
            main,
            rr: 0,
            now: 0,
            overlap_cycles: 0,
            done: vec![false; params.n_clusters],
        }
    }

    /// The host thread count this system ticks with: always 1, since
    /// the tick is serial. Kept only because the out-of-workspace
    /// benchmark (`perfbench/`) still reports it; remove it together
    /// with that benchmark's `system.threads` metric.
    #[must_use]
    pub fn n_threads(&self) -> usize {
        1
    }

    /// Designates `addr` (in main memory) as the hardware fetch-and-add
    /// ticket counter of the shared work queue and zeroes it.
    pub fn set_work_queue(&mut self, addr: u32) {
        self.main.array_mut().store_u64(addr, 0);
        self.main.set_fetch_add_word(addr);
    }

    /// Declares `addr` a synchronization word owned by `owner_hart` of
    /// cluster `cluster` — see [`Cluster::declare_sync_word`].
    pub fn declare_sync_word(&mut self, cluster: usize, addr: u32, owner_hart: u32) {
        self.clusters[cluster].declare_sync_word(addr, owner_hart);
    }

    /// Runs to quiescence.
    ///
    /// # Errors
    /// Returns [`SimTimeout`] if the system does not finish in
    /// `max_cycles` (deadlock or bug); its post-mortem lists every hart
    /// that was not quiescent, with its cluster index and current PC.
    pub fn run(&mut self, max_cycles: u64) -> Result<SystemSummary, SimTimeout> {
        self.run_with(max_cycles, |_| {})
    }

    /// [`System::run`] with `observe` called after every tick, beside
    /// the default flight recorder. For a Perfetto trace, observe with a
    /// [`Keep::Head`](issr_trace::Keep::Head) [`ClusterRecorder`] over
    /// [`System::clusters`]: `|s| trace.sample(&s.clusters)`.
    ///
    /// # Errors
    /// As [`System::run`].
    pub fn run_with(
        &mut self,
        max_cycles: u64,
        mut observe: impl FnMut(&Self),
    ) -> Result<SystemSummary, SimTimeout> {
        let mut flight = ClusterRecorder::flight(&self.clusters);
        let observe = |s: &Self| {
            flight.sample(&s.clusters);
            observe(s);
        };
        run_until_quiescent(self, max_cycles, observe).map_err(|mut t| {
            t.post_mortem.attach(flight.recorder());
            t
        })?;
        let mut summary = self.summary();
        for pm in summary.clusters.iter_mut().filter_map(|c| c.post_mortem.as_mut()) {
            pm.attach(flight.recorder());
        }
        Ok(summary)
    }

    /// Snapshot of the run statistics.
    #[must_use]
    pub fn summary(&self) -> SystemSummary {
        SystemSummary {
            cycles: self.now,
            clusters: self.clusters.iter().map(Cluster::summary).collect(),
            main: self.main.stats,
            overlap_cycles: self.overlap_cycles,
        }
    }
}

impl Machine for System {
    /// Advances the whole system one cycle: one shared-bandwidth window,
    /// clusters granted in rotating round-robin order.
    ///
    /// Each cluster ticks whole ([`Cluster::tick_shared`]) in this
    /// cycle's rotated grant order on the calling thread, so the run is
    /// deterministic: the same input always yields the same bits,
    /// cycles and attribution.
    fn tick(&mut self) {
        issr_trace::host::cycle();
        self.main.begin_dma_cycle();
        let n = self.clusters.len();
        let mut dma_moved = false;
        let mut in_roi = false;
        for i in 0..n {
            let k = (self.rr + i) % n;
            let activity = self.clusters[k].tick_shared(&mut self.main);
            dma_moved |= activity.dma_words_moved > 0;
            in_roi |= activity.workers_in_roi;
        }
        if dma_moved && in_roi {
            self.overlap_cycles += 1;
        }
        self.rr = (self.rr + 1) % n;
        self.now += 1;
    }

    /// Whether every cluster halted and drained; clusters already seen
    /// quiescent are not re-checked.
    fn quiescent(&mut self) -> bool {
        let mut all = true;
        for (done, cluster) in self.done.iter_mut().zip(&mut self.clusters) {
            if !*done {
                *done = cluster.quiescent();
            }
            all &= *done;
        }
        all
    }

    #[inline]
    fn now(&self) -> u64 {
        self.now
    }

    /// Every cluster's report merged (stuck units, wait graphs, blame
    /// cycles).
    fn post_mortem(&self) -> PostMortem {
        PostMortem::merge(self.clusters.iter().map(Machine::post_mortem).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_isa::asm::Assembler;
    use issr_isa::reg::IntReg as R;
    use issr_isa::Csr;
    use issr_mem::map::TCDM_BASE;
    use issr_trace::{Keep, Recorder};

    fn params(n_clusters: usize) -> SystemParams {
        SystemParams { n_clusters, ..SystemParams::default() }
    }

    /// Every cluster runs the same SPMD program against its private
    /// TCDM; the system reaches quiescence with all results in place.
    #[test]
    fn clusters_execute_independently() {
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        a.mul(R::T1, R::T0, R::T0);
        a.slli(R::T2, R::T0, 3);
        a.li_addr(R::T3, TCDM_BASE);
        a.add(R::T2, R::T2, R::T3);
        a.sw(R::T1, R::T2, 0);
        a.halt();
        let mut sys = System::new(a.finish().unwrap(), params(3));
        let summary = sys.run(10_000).unwrap();
        for cluster in &sys.clusters {
            for hart in 0..9u32 {
                assert_eq!(cluster.tcdm.array().load_u32(TCDM_BASE + hart * 8), hart * hart);
            }
        }
        assert_eq!(summary.clusters.len(), 3);
        assert!(summary.traps().is_empty());
    }

    /// Builds a program whose DMCCs copy `words` words from main memory
    /// into their cluster's TCDM; workers halt immediately.
    fn dma_pull_program(words: u32, n_workers: u32) -> Program {
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        let dmcc = a.new_label();
        a.li(R::T1, i64::from(n_workers));
        a.beq(R::T0, R::T1, dmcc);
        a.halt();
        a.bind(dmcc);
        a.li_addr(R::A0, MAIN_BASE);
        a.li_addr(R::A1, TCDM_BASE + 0x1000);
        a.dmsrc(R::A0, R::ZERO);
        a.dmdst(R::A1, R::ZERO);
        a.li(R::A2, i64::from(words) * 8);
        a.dmcpyi(R::ZERO, R::A2, 0);
        let poll = a.bind_label();
        a.dmstati(R::T2, 0);
        a.beqz(R::T2, poll);
        a.halt();
        a.finish().unwrap()
    }

    /// Two clusters pulling concurrently over a one-port budget each see
    /// roughly half the solo throughput, and the contention counters
    /// move.
    #[test]
    fn shared_bandwidth_contention_is_measured() {
        let words = 512u32;
        let n_workers = ClusterParams::default().n_workers as u32;
        let solo = {
            let mut p = params(1);
            p.dma_words_per_cycle = 8;
            p.dma_latency = 0;
            let mut sys = System::new(dma_pull_program(words, n_workers), p);
            sys.run(100_000).unwrap().cycles
        };
        let mut p = params(2);
        p.dma_words_per_cycle = 8;
        p.dma_latency = 0;
        let mut sys = System::new(dma_pull_program(words, n_workers), p);
        let summary = sys.run(100_000).unwrap();
        assert!(
            summary.cycles as f64 > 1.7 * solo as f64,
            "two clusters on one port must nearly halve throughput \
             (solo {solo}, contended {})",
            summary.cycles
        );
        assert!(summary.main.dma_denied > 0, "denials must be counted");
        assert!(summary.total_dma_stalls() > 0, "stalled engines must be counted");
        assert!(summary.contention_ratio() > 0.1);
        // Both clusters pulled the full block.
        for c in &sys.clusters {
            assert_eq!(c.dma.stats().words_in, u64::from(words));
        }
    }

    /// DMCCs across clusters claim unique, gap-free tickets from the
    /// hardware fetch-and-add work queue.
    #[test]
    fn work_queue_tickets_are_unique() {
        let n_workers = ClusterParams::default().n_workers as u32;
        let queue = MAIN_BASE + 0x100;
        let claims = 4u32;
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        let dmcc = a.new_label();
        a.li(R::T1, i64::from(n_workers));
        a.beq(R::T0, R::T1, dmcc);
        a.halt();
        a.bind(dmcc);
        // Claim `claims` tickets, store each to a TCDM log slot.
        a.li(R::S0, 0);
        a.li_addr(R::S1, TCDM_BASE + 0x40);
        a.li_addr(R::S2, queue);
        let head = a.bind_label();
        a.lw(R::T2, R::S2, 0); // fetch-and-add claim
        a.sw(R::T2, R::S1, 0);
        a.addi(R::S1, R::S1, 8);
        a.addi(R::S0, R::S0, 1);
        a.li(R::T3, i64::from(claims));
        a.blt(R::S0, R::T3, head);
        a.halt();
        let mut sys = System::new(a.finish().unwrap(), params(3));
        sys.set_work_queue(queue);
        sys.run(100_000).unwrap();
        let mut seen: Vec<u32> = sys
            .clusters
            .iter()
            .flat_map(|c| (0..claims).map(|i| c.tcdm.array().load_u32(TCDM_BASE + 0x40 + i * 8)))
            .collect();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..3 * claims).collect();
        assert_eq!(seen, expect, "tickets must be unique and gap-free");
        assert_eq!(sys.main.array().load_u64(queue), u64::from(3 * claims));
    }

    /// Tracing is observational: enabling it changes no cycle counts,
    /// and the export carries one named track per hart, per lane and
    /// per DMA engine in every cluster.
    #[test]
    fn tracing_is_timing_neutral_and_tracks_every_unit() {
        let n_workers = ClusterParams::default().n_workers;
        let build = || dma_pull_program(128, n_workers as u32);
        let plain = System::new(build(), params(2)).run(100_000).unwrap();
        let mut sys = System::new(build(), params(2));
        let mut trace = ClusterRecorder::new(&sys.clusters, Recorder::new(Keep::Head, 4096));
        let traced = sys.run_with(100_000, |s| trace.sample(&s.clusters)).unwrap();
        assert_eq!(traced.cycles, plain.cycles, "tracing must not alter timing");
        assert_eq!(traced.total_dma_words(), plain.total_dma_words());
        // Tracks: per cluster, one per worker hart + 2 lanes each,
        // the DMCC and the DMA engine.
        let per_cluster = n_workers + 2 * n_workers + 1 + 1;
        let mut rec = trace.into_recorder();
        assert_eq!(rec.tracks().count(), 2 * per_cluster);
        assert!(!rec.transitions().is_empty(), "the DMA pull must produce spans");
        // Per-cluster DMA attribution covers every cluster cycle.
        for c in &traced.clusters {
            assert_eq!(c.attr.dma.total(), c.cycles);
        }
        rec.finish(traced.cycles);
        let doc = rec.to_chrome_json();
        let events = doc.get("traceEvents").and_then(issr_trace::Json::as_arr).expect("events");
        let metas = events
            .iter()
            .filter(|e| e.get("ph").and_then(issr_trace::Json::as_str) == Some("M"))
            .count();
        assert_eq!(metas, 2 * per_cluster, "every track must be named");
    }

    /// A timeout's post-mortem names every stuck hart by its cluster,
    /// and the default flight recorder's window covers every cluster.
    #[test]
    fn timeout_post_mortem_names_every_cluster() {
        let mut a = Assembler::new();
        let spin = a.bind_label();
        a.j(spin);
        let err = System::new(a.finish().unwrap(), params(2)).run(500).unwrap_err();
        let pm = &err.post_mortem;
        let n_harts = ClusterParams::default().n_workers + 1;
        assert_eq!(pm.stuck.len(), 2 * n_harts, "every hart of both clusters spins");
        assert!(pm.stuck.iter().any(|s| s.name == "c1 hart 0"));
        assert!(pm.window.tracks().any(|unit| unit == (1, "dma")), "cluster 1's DMA is recorded");
        assert!(!pm.window.transitions().is_empty());
        assert_eq!(err.to_string().matches("stuck: c1 dmcc").count(), 1);
    }

    #[test]
    fn deterministic_runs() {
        let build = || dma_pull_program(64, ClusterParams::default().n_workers as u32);
        let c1 = System::new(build(), params(4)).run(100_000).unwrap().cycles;
        let c2 = System::new(build(), params(4)).run(100_000).unwrap().cycles;
        assert_eq!(c1, c2);
    }
}
