//! The cluster model and its run harness.

use issr_core::lane::LaneStats;
use issr_core::spacc::SpAccStats;
use issr_isa::asm::Program;
use issr_mem::dma::{Dma, DmaStats};
use issr_mem::icache::{ICacheParams, L0Buffer, L1ICache};
use issr_mem::main_mem::MainMemory;
use issr_mem::map::{region_of, Region, MAIN_BASE, MAIN_SIZE, TCDM_BANKS, TCDM_BASE, TCDM_SIZE};
use issr_mem::port::MemPort;
use issr_mem::tcdm::{Tcdm, TcdmStats};
use issr_snitch::attr::CcAttribution;
use issr_snitch::cc::{run_until_quiescent, CoreComplex, Machine, SimTimeout};
use issr_snitch::core::Trap;
use issr_snitch::metrics::Metrics;
use issr_snitch::params::CcParams;
use issr_trace::waitgraph::UnitClass;
use issr_trace::{
    host, CriticalPath, CycleBreakdown, Keep, PostMortem, Recorder, StallCause, StatMerge,
    WaitGraph,
};

/// Cluster configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterParams {
    /// Worker core complexes (the paper's cluster has 8 in two hives).
    pub n_workers: usize,
    /// Per-core microarchitecture.
    pub cc: CcParams,
    /// Model instruction caches (L0 + per-hive shared L1); when false,
    /// instruction fetch is ideal.
    pub icache: bool,
    /// Give every worker the sparse-sparse streamer (index joiner +
    /// SpAcc) instead of the paper's plain SSR + ISSR pair — the
    /// configuration the cluster SpMSpV/SpGEMM kernels run on.
    pub sssr: bool,
    /// Double-buffered SpAcc row storage (a row's drain overlaps the
    /// next row's first feed). On by default; the benchmark disables it
    /// to report the overlap delta.
    pub spacc_double_buffer: bool,
}

impl Default for ClusterParams {
    fn default() -> Self {
        Self {
            n_workers: 8,
            cc: CcParams::default(),
            icache: true,
            sssr: false,
            spacc_double_buffer: true,
        }
    }
}

/// ROI stall-cause breakdowns for a whole cluster: every core complex
/// plus the DMA engine. The DMA table is sampled once per *cluster*
/// cycle (the engine has no ROI), so it totals to the cluster's elapsed
/// cycles, while each core's tables total to that core's ROI cycles.
#[derive(Clone, Debug, Default)]
pub struct ClusterAttribution {
    /// Per-worker breakdowns.
    pub workers: Vec<CcAttribution>,
    /// The data-mover core's breakdown.
    pub dmcc: CcAttribution,
    /// The DMA engine's breakdown (totals to the cluster cycles).
    pub dma: CycleBreakdown,
}

impl ClusterAttribution {
    /// All worker breakdowns folded into one [`CcAttribution`] — the
    /// cluster-wide view the reports and JSON emitters print.
    #[must_use]
    pub fn merged_workers(&self) -> CcAttribution {
        issr_trace::merge::merge_all(self.workers.iter())
    }

    /// The whole cluster's wait graph: every worker's, the DMCC's and
    /// the DMA engine's blocked cycles folded into per-edge-class cycle
    /// counts. Derived from the attribution tables, so it is exactly as
    /// timing-neutral as they are.
    #[must_use]
    pub fn wait_graph(&self) -> WaitGraph {
        let mut g = WaitGraph::new();
        for w in &self.workers {
            g.merge_from(&w.wait_graph());
        }
        g.merge_from(&self.dmcc.wait_graph());
        g.add_breakdown(UnitClass::Dma, &self.dma);
        g
    }

    /// The cluster's critical path: the backward blame walk starts at
    /// the worker with the longest ROI (the one end-of-ROI waits on),
    /// then descends into its busiest lane. Falls back to the DMCC when
    /// no worker opened an ROI (pure data-movement runs).
    #[must_use]
    pub fn critical_path(&self) -> CriticalPath {
        let mut best: Option<&CcAttribution> = None;
        for w in &self.workers {
            // Strictly greater: ties keep the earlier hart.
            if w.roi_cycles() > 0 && best.is_none_or(|b| w.roi_cycles() > b.roi_cycles()) {
                best = Some(w);
            }
        }
        best.unwrap_or(&self.dmcc).critical_path()
    }

    /// Labelled rows (workers, DMCC, DMA) for
    /// [`issr_trace::breakdown_table`], with `prefix` prepended.
    #[must_use]
    pub fn rows(&self, prefix: &str) -> Vec<(String, CycleBreakdown)> {
        let mut rows = Vec::new();
        for (i, w) in self.workers.iter().enumerate() {
            rows.extend(w.rows(&format!("{prefix}hart{i}/")));
        }
        rows.push((format!("{prefix}dmcc"), self.dmcc.hart));
        rows.push((format!("{prefix}dma"), self.dma));
        rows
    }
}

impl StatMerge for ClusterAttribution {
    fn merge_from(&mut self, other: &Self) {
        if self.workers.len() < other.workers.len() {
            self.workers.resize(other.workers.len(), CcAttribution::default());
        }
        for (mine, theirs) in self.workers.iter_mut().zip(other.workers.iter()) {
            mine.merge_from(theirs);
        }
        self.dmcc.merge_from(&other.dmcc);
        self.dma.merge_from(&other.dma);
    }
}

/// Result of a completed cluster run.
#[derive(Clone, Debug)]
pub struct ClusterSummary {
    /// Total cycles until the whole cluster went quiescent.
    pub cycles: u64,
    /// Per-worker metrics (ROI counters included).
    pub worker_metrics: Vec<Metrics>,
    /// DMCC metrics.
    pub dmcc_metrics: Metrics,
    /// Per-worker streamer lane statistics.
    pub lane_stats: Vec<Vec<LaneStats>>,
    /// Per-worker sparse-accumulator statistics (all zero without SpAcc
    /// hardware).
    pub spacc_stats: Vec<SpAccStats>,
    /// TCDM statistics (grants, conflicts).
    pub tcdm_stats: TcdmStats,
    /// DMA statistics.
    pub dma_stats: DmaStats,
    /// ROI stall-cause breakdowns (every core + the DMA engine).
    pub attr: ClusterAttribution,
    /// Decode/fetch traps that parked cores (workers and DMCC alike);
    /// empty on a clean run.
    pub traps: Vec<Trap>,
    /// Post-mortem assembled automatically when the run ended with
    /// latched traps (a clean, trap-free run carries `None`; a timeout
    /// carries its post-mortem on the [`SimTimeout`] instead).
    pub post_mortem: Option<PostMortem>,
}

impl ClusterSummary {
    /// Total multiply-accumulates retired by the workers (in their ROIs).
    #[must_use]
    pub fn total_fmadds(&self) -> u64 {
        self.worker_metrics.iter().map(|m| m.roi.fmadds).sum()
    }

    /// Cluster-aggregate FPU utilization: retired MACs over
    /// `cycles × workers` — the figure compared against CPUs/GPUs in §V.
    #[must_use]
    pub fn cluster_utilization(&self) -> f64 {
        if self.cycles == 0 || self.worker_metrics.is_empty() {
            return 0.0;
        }
        self.total_fmadds() as f64 / (self.cycles as f64 * self.worker_metrics.len() as f64)
    }

    /// Peak per-worker FPU utilization within worker ROIs.
    #[must_use]
    pub fn peak_worker_utilization(&self) -> f64 {
        self.worker_metrics.iter().map(Metrics::fpu_utilization).fold(0.0, f64::max)
    }
}

/// Activity snapshot of one cluster tick. The system harness reads it
/// to attribute DMA/compute overlap across clusters.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickActivity {
    /// Words the DMA engine moved across the main-memory interface
    /// this cycle (local TCDM→TCDM copies excluded).
    pub dma_words_moved: u64,
    /// Whether any worker was inside its region of interest.
    pub workers_in_roi: bool,
}

/// Transitions the flight recorder keeps: a generous final window at a
/// few bytes per slot.
pub const FLIGHT_CAP: usize = 4096;

/// The run observer that records clusters' units into one [`Recorder`],
/// sampling after each tick the classifications the tick latched. It
/// reads the clusters only through shared references, so recording
/// cannot change timing. Each cluster's tracks live under its index as
/// the process id: `"hart 3"`, `"hart 3 ft1"`, `"dmcc"`, `"dma"`.
///
/// What it records follows the recorder's [`Keep`] policy:
///
/// * [`Keep::Tail`] is the post-mortem flight recorder
///   ([`ClusterRecorder::flight`]) that [`Cluster::run`] and the system
///   harness always run with. It records each hart (workers, then the
///   DMCC) and the DMA engine, nothing more, so it stays cheap.
/// * [`Keep::Head`] is a Perfetto trace of a whole run. It adds every
///   worker's stream lanes, each lane's data-FIFO occupancy and the DMA
///   engine's outstanding words as counters, and an instant at each
///   hart's trap.
#[derive(Clone, Debug)]
pub struct ClusterRecorder {
    rec: Recorder,
    /// Per hart of every observed cluster (workers, then the DMCC):
    /// whether its trap instant is marked.
    trap_marked: Vec<bool>,
}

/// One sampled value of a cluster unit.
enum Probe {
    /// A unit's stall cause (a span track).
    Cause(StallCause),
    /// A counter's value.
    Count(u64),
}

impl ClusterRecorder {
    /// Registers `clusters`' units in `rec`.
    #[must_use]
    pub fn new(clusters: &[Cluster], mut rec: Recorder) -> Self {
        let full = rec.keep() == Keep::Head;
        let mut n_harts = 0;
        for c in clusters {
            let pid = c.index as u32;
            c.visit_units(full, |name, probe| match probe {
                Probe::Cause(_) => {
                    rec.add_track(pid, name());
                }
                Probe::Count(_) => {
                    rec.add_counter(pid, name());
                }
            });
            n_harts += c.workers.len() + 1;
        }
        Self { rec, trap_marked: vec![false; n_harts] }
    }

    /// The post-mortem flight recorder over `clusters`: the last
    /// [`FLIGHT_CAP`] transitions of every hart and DMA engine.
    #[must_use]
    pub fn flight(clusters: &[Cluster]) -> Self {
        Self::new(clusters, Recorder::new(Keep::Tail, FLIGHT_CAP))
    }

    /// Records the cycle that just ran on every cluster. A saturated
    /// head trace keeps nothing more, so it skips the walk.
    pub fn sample(&mut self, clusters: &[Cluster]) {
        if self.rec.saturated() {
            return;
        }
        let full = self.rec.keep() == Keep::Head;
        let (mut track, mut counter, mut hart) = (0, 0, 0);
        for c in clusters {
            let now = c.now - 1;
            let rec = &mut self.rec;
            c.visit_units(full, |_, probe| match probe {
                Probe::Cause(cause) => {
                    rec.sample(track, now, cause);
                    track += 1;
                }
                Probe::Count(value) => {
                    rec.sample_counter(counter, now, value);
                    counter += 1;
                }
            });
            if full {
                // Each hart's trap is marked once, at its first sighting.
                for (i, cc) in c.workers.iter().chain(std::iter::once(&c.dmcc)).enumerate() {
                    if let (false, Some(trap)) = (self.trap_marked[hart + i], cc.core.trap()) {
                        rec.mark(c.index as u32, format!("trap hart {i}: {trap}"), now);
                        self.trap_marked[hart + i] = true;
                    }
                }
            }
            hart += c.workers.len() + 1;
        }
    }

    /// The recording so far.
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// The recording, for export.
    #[must_use]
    pub fn into_recorder(self) -> Recorder {
        self.rec
    }
}

/// The eight-worker Snitch cluster plus DMCC.
#[derive(Debug)]
pub struct Cluster {
    /// Worker core complexes (harts `0..n_workers`).
    pub workers: Vec<CoreComplex>,
    /// The data-mover core (hart `n_workers`), no FPU work, drives the DMA.
    pub dmcc: CoreComplex,
    /// Banked scratchpad.
    pub tcdm: Tcdm,
    /// Main memory behind the crossbar. A standalone cluster owns a
    /// private one; clusters built with [`Cluster::new_for_system`]
    /// keep an empty stub here and are ticked against the shared memory
    /// via [`Cluster::tick_shared`].
    pub main: MainMemory,
    /// The 512-bit DMA engine.
    pub dma: Dma,
    /// Every core's physical ports in one flat slot array: workers in
    /// hart order, then the DMCC. CC `i` owns
    /// `ports[port_base[i]..port_base[i + 1]]`.
    ports: Vec<MemPort>,
    port_base: Vec<usize>,
    l1: Vec<L1ICache>,
    dma_claimed: Vec<bool>,
    dma_attr: CycleBreakdown,
    /// Persistent scratch for the DMA fairness yield: banks contested by
    /// core ports this cycle. Only (re)filled while the engine is busy —
    /// [`Dma::tick`] never reads it when idle.
    contested: Vec<bool>,
    /// Flat port slots routed to main memory this cycle, latched by
    /// [`Cluster::tick_interconnect`] so [`Cluster::tick_mem`] excludes
    /// exactly those slots from TCDM arbitration (served or not).
    main_routed: u64,
    dma_words_moved: u64,
    workers_in_roi: bool,
    idle_mem: bool,
    /// Cluster index within the system (0 standalone): names units in
    /// post-mortems (`"c0 hart 3"`) and is the process id of the
    /// cluster's recorded tracks.
    index: usize,
    /// Declared synchronization words `(addr, owner_hart)` — e.g. flag
    /// words one hart writes and others spin on. Post-mortem deadlock
    /// classification builds its blame edges from these.
    sync_words: Vec<(u32, u32)>,
    now: u64,
}

impl Cluster {
    /// Builds the cluster; every core runs `program` and dispatches on
    /// `mhartid` (workers `0..n_workers`, DMCC = `n_workers`).
    #[must_use]
    pub fn new(program: Program, params: ClusterParams) -> Self {
        let icache_params = ICacheParams::default();
        let mut workers = Vec::with_capacity(params.n_workers);
        for hart in 0..params.n_workers {
            let streamer = if params.sssr {
                let mut s = issr_core::streamer::Streamer::sssr_config();
                s.set_spacc_double_buffered(params.spacc_double_buffer);
                s
            } else {
                issr_core::streamer::Streamer::paper_config()
            };
            let mut cc =
                CoreComplex::with_streamer(hart as u32, program.clone(), params.cc, streamer);
            if params.icache {
                cc.set_l0(L0Buffer::new(icache_params));
            }
            workers.push(cc);
        }
        // The DMCC has no FPU subsystem worth modelling and a single
        // (SSR-less would be ideal; one plain lane keeps the port math
        // uniform) memory port.
        let dmcc = CoreComplex::with_streamer(
            params.n_workers as u32,
            program,
            params.cc,
            issr_core::streamer::Streamer::new(&[issr_core::lane::LaneKind::Ssr]),
        );
        let (mut port_base, mut n_ports) = (vec![0], 0);
        for cc in workers.iter().chain(std::iter::once(&dmcc)) {
            n_ports += cc.n_ports();
            port_base.push(n_ports);
        }
        assert!(n_ports <= 64, "cluster port slots must fit the u64 routing mask"); // gate-allow: host-API construction precondition
        let ports = (0..n_ports).map(|_| MemPort::new()).collect();
        // Two hives of four workers share an L1 each; the DMCC fetches
        // ideally (control code only).
        let n_hives = params.n_workers.div_ceil(4).max(1);
        let l1 = (0..n_hives).map(|_| L1ICache::new(icache_params)).collect();
        Self {
            workers,
            dmcc,
            tcdm: Tcdm::banked(TCDM_BASE, TCDM_SIZE, TCDM_BANKS),
            main: MainMemory::new(MAIN_BASE, MAIN_SIZE),
            dma: Dma::new(TCDM_BASE, TCDM_SIZE),
            ports,
            port_base,
            l1,
            dma_claimed: vec![false; TCDM_BANKS],
            dma_attr: CycleBreakdown::default(),
            contested: vec![false; TCDM_BANKS],
            main_routed: 0,
            dma_words_moved: 0,
            workers_in_roi: false,
            idle_mem: true,
            index: 0,
            sync_words: Vec::new(),
            now: 0,
        }
    }

    /// [`Cluster::new`] for cluster `index` of a multi-cluster system:
    /// the private main memory is an empty stub (the system owns the
    /// shared one and drives [`Cluster::tick_shared`]).
    #[must_use]
    pub fn new_for_system(program: Program, params: ClusterParams, index: usize) -> Self {
        let mut cluster = Self::new(program, params);
        cluster.main = MainMemory::new(MAIN_BASE, 0);
        cluster.index = index;
        cluster
    }

    fn release_barrier_if_all_arrived(&mut self) {
        // Halted cores count as arrived: the hardware barrier masks out
        // inactive harts, so a worker whose stripe is empty (or the
        // DMCC sitting out a resident workload) cannot deadlock the
        // cores that still synchronize — the property the device-owned
        // prefix-sum phases rely on.
        let arrived = |cc: &CoreComplex| cc.core.at_barrier() || cc.core.halted();
        let any = self.workers.iter().any(|cc| cc.core.at_barrier()) || self.dmcc.core.at_barrier();
        let all = self.workers.iter().all(arrived) && arrived(&self.dmcc);
        if any && all {
            for cc in &mut self.workers {
                cc.core.release_barrier();
            }
            self.dmcc.core.release_barrier();
        }
    }

    /// Advances the whole cluster one cycle against an external
    /// (possibly shared) main memory. The caller owns the memory's
    /// per-cycle DMA budget: reset it once per system cycle with
    /// [`MainMemory::begin_dma_cycle`] before ticking the clusters that
    /// share it — their tick order is the bandwidth grant order.
    ///
    /// The tick is three phases: compute, interconnect and memory.
    /// Only the interconnect phase touches the main memory; the
    /// split also gives the host profiler its per-phase wall-clock
    /// classes (`workers`, `dmcc`, `dma`, `mem`).
    pub fn tick_shared(&mut self, main: &mut MainMemory) -> TickActivity {
        self.tick_compute();
        self.tick_interconnect(main);
        self.tick_mem()
    }

    /// Phase 1 — cluster-local compute: barrier release, worker CCs,
    /// DMCC. Provably idle units (per [`CoreComplex::is_idle`]) take the
    /// cheap bookkeeping path instead of a full tick.
    fn tick_compute(&mut self) {
        let now = self.now;
        // Host self-profiler (opt-in, read-only): bill each phase's
        // wall-clock to its unit class. Gated on one thread-local
        // check; `host_t = None` means zero further cost.
        let mut host_t = host::phase_start();
        self.release_barrier_if_all_arrived();
        let n_workers = self.workers.len();
        let mut idle_workers = 0u64;
        let mut in_roi = false;
        for (i, cc) in self.workers.iter_mut().enumerate() {
            if cc.is_idle() {
                idle_workers += 1;
                cc.tick_idle();
            } else {
                let hive = i / 4;
                let phys = &mut self.ports[self.port_base[i]..self.port_base[i + 1]];
                cc.tick(now, phys, None, Some(&mut self.l1[hive.min(1)]));
            }
            in_roi |= cc.metrics.roi_active;
        }
        self.workers_in_roi = in_roi;
        host::phase(&mut host_t, "workers", n_workers as u64, idle_workers);
        let idle_dmcc = self.dmcc.is_idle();
        if idle_dmcc {
            self.dmcc.tick_idle();
        } else {
            let phys = &mut self.ports[self.port_base[n_workers]..];
            self.dmcc.tick(now, phys, Some(&mut self.dma), None);
        }
        host::phase(&mut host_t, "dmcc", 1, u64::from(idle_dmcc));
    }

    /// Phase 2 — the only phase that touches the (possibly shared) main
    /// memory: the DMA engine moves a beat and claims banks, then
    /// narrow main-region requests are served. A system ticks its
    /// clusters in grant order, so this order is the bandwidth order.
    fn tick_interconnect(&mut self, main: &mut MainMemory) {
        let now = self.now;
        let mut host_t = host::phase_start();
        // DMA moves a beat and claims its banks, yielding contested
        // banks to core ports every other cycle (fair interconnect).
        self.dma_claimed.fill(false);
        let idle_dma = !self.dma.busy();
        if !idle_dma {
            // Only a busy engine reads the contested map; skip the
            // banks scan (and tolerate stale contents) otherwise.
            self.contested.fill(false);
            for port in &self.ports {
                if let Some(req) = port.pending() {
                    if region_of(req.addr) == Region::Tcdm {
                        self.contested[self.tcdm.bank_of(req.addr)] = true;
                    }
                }
            }
        }
        let yield_to_cores = now % 2 == 0;
        // Attribute only words that crossed the main-memory interface
        // (TCDM→TCDM local copies draw no shared bandwidth and say
        // nothing about main-memory double buffering).
        let moved_before = main.stats.wide_beats;
        self.dma.tick(
            self.tcdm.array_mut(),
            main,
            &mut self.dma_claimed,
            &self.contested,
            yield_to_cores,
        );
        self.dma_words_moved = main.stats.wide_beats - moved_before;
        self.dma_attr.record(self.dma.last_cause());
        host::phase(&mut host_t, "dma", 1, u64::from(idle_dma));
        // Route main-region requests and latch the routing: the TCDM
        // phase must exclude exactly these slots — served or not — so
        // its round-robin port positions match the pre-split order.
        let mut main_routed: u64 = 0;
        let mut any_pending = false;
        for (slot, port) in self.ports.iter().enumerate() {
            match port.pending().map(|r| region_of(r.addr)) {
                None => {}
                Some(Region::Tcdm) => any_pending = true,
                Some(Region::Main) => {
                    any_pending = true;
                    main_routed |= 1 << slot;
                }
                Some(other) => panic!("cluster request to unsupported region {other:?}"),
            }
        }
        self.main_routed = main_routed;
        // The memories are idle when no port carries a request and the
        // DMA claimed no bank this cycle.
        self.idle_mem = !any_pending && !self.dma_claimed.iter().any(|&c| c);
        if main_routed != 0 {
            main.tick(now, &mut self.ports, !main_routed);
        }
        // Billed to "mem" with zero units: tick_mem records the class's
        // one unit-tick per cycle.
        host::phase(&mut host_t, "mem", 0, 0);
    }

    /// Phase 3 — cluster-local memory: TCDM bank arbitration, then the
    /// cycle counter advances and the tick's activity is reported.
    fn tick_mem(&mut self) -> TickActivity {
        let now = self.now;
        let mut host_t = host::phase_start();
        self.tcdm.tick(now, &mut self.ports, self.main_routed, &self.dma_claimed);
        host::phase(&mut host_t, "mem", 1, u64::from(self.idle_mem));
        self.now += 1;
        TickActivity { dma_words_moved: self.dma_words_moved, workers_in_roi: self.workers_in_roi }
    }

    /// Declares `addr` a synchronization word owned (written) by
    /// `owner_hart`. The post-mortem uses these to turn "hart X last
    /// loaded `addr`" into a blame edge toward the owner, which is what
    /// lets it tell a deadlocked spin from a merely slow one.
    pub fn declare_sync_word(&mut self, addr: u32, owner_hart: u32) {
        self.sync_words.push((addr, owner_hart));
    }

    /// Hart `i`'s unit name: workers `"c{index} hart {i}"`, the DMCC
    /// (`i == n_workers`) `"c{index} dmcc"`.
    fn unit_name(&self, i: usize) -> String {
        if i == self.workers.len() {
            format!("c{} dmcc", self.index)
        } else {
            format!("c{} hart {i}", self.index)
        }
    }

    /// Runs to quiescence with the default flight recorder observing:
    /// a timeout's post-mortem, or a trapped run's, carries its recent
    /// transitions.
    ///
    /// # Errors
    /// Returns [`SimTimeout`] if the cluster does not finish in
    /// `max_cycles` (deadlock or bug).
    pub fn run(&mut self, max_cycles: u64) -> Result<ClusterSummary, SimTimeout> {
        let mut flight = ClusterRecorder::flight(std::slice::from_ref(self));
        run_until_quiescent(self, max_cycles, |c| flight.sample(std::slice::from_ref(c))).map_err(
            |mut t| {
                t.post_mortem.attach(flight.recorder());
                t
            },
        )?;
        let mut summary = self.summary();
        if let Some(pm) = &mut summary.post_mortem {
            pm.attach(flight.recorder());
        }
        Ok(summary)
    }

    /// Walks the units a [`ClusterRecorder`] records, in its one track
    /// order: per worker its hart and (when `full`) its lanes and their
    /// FIFO counters, then the DMCC, the DMA engine and (when `full`)
    /// its outstanding-words counter. `f` gets each unit's name, built
    /// only when called, and its latched value.
    #[inline]
    fn visit_units(&self, full: bool, mut f: impl FnMut(&dyn Fn() -> String, Probe)) {
        for (i, cc) in self.workers.iter().enumerate() {
            let causes = cc.last_causes();
            f(&|| format!("hart {i}"), Probe::Cause(causes.hart));
            if full {
                let n_lanes = cc.streamer.n_lanes();
                for l in 0..n_lanes {
                    let cause = causes.streamer.lanes.get(l).copied().unwrap_or(StallCause::Idle);
                    f(&|| format!("hart {i} ft{l}"), Probe::Cause(cause));
                }
                for l in 0..n_lanes {
                    let fifo = cc.streamer.lane(l).fifo_len() as u64;
                    f(&|| format!("hart {i} ft{l} fifo"), Probe::Count(fifo));
                }
            }
        }
        f(&|| "dmcc".to_owned(), Probe::Cause(self.dmcc.last_causes().hart));
        f(&|| "dma".to_owned(), Probe::Cause(self.dma.last_cause()));
        if full {
            f(&|| "dma outstanding words".to_owned(), Probe::Count(self.dma.outstanding_words()));
        }
    }

    /// Snapshot of the run statistics.
    #[must_use]
    pub fn summary(&self) -> ClusterSummary {
        let mut summary = ClusterSummary {
            cycles: self.now,
            worker_metrics: self.workers.iter().map(|cc| cc.metrics).collect(),
            dmcc_metrics: self.dmcc.metrics,
            lane_stats: self.workers.iter().map(|cc| cc.streamer.stats()).collect(),
            spacc_stats: self.workers.iter().map(|cc| cc.streamer.spacc_stats()).collect(),
            tcdm_stats: self.tcdm.stats(),
            dma_stats: self.dma.stats(),
            attr: ClusterAttribution {
                workers: self.workers.iter().map(|cc| cc.attr.clone()).collect(),
                dmcc: self.dmcc.attr.clone(),
                dma: self.dma_attr,
            },
            traps: self
                .workers
                .iter()
                .chain(std::iter::once(&self.dmcc))
                .filter_map(|cc| cc.core.trap())
                .collect(),
            post_mortem: None,
        };
        if !summary.traps.is_empty() {
            summary.post_mortem = Some(Machine::post_mortem(self));
        }
        summary
    }
}

impl Machine for Cluster {
    /// Advances the whole cluster one cycle against its private main
    /// memory, resetting the memory's per-cycle DMA bandwidth budget.
    fn tick(&mut self) {
        host::cycle();
        self.main.begin_dma_cycle();
        let mut main = std::mem::replace(&mut self.main, MainMemory::new(MAIN_BASE, 0));
        self.tick_shared(&mut main);
        self.main = main;
    }

    /// Whether every core halted and all queues drained.
    #[inline]
    fn quiescent(&mut self) -> bool {
        self.workers.iter().all(CoreComplex::quiescent) && self.dmcc.quiescent() && !self.dma.busy()
    }

    #[inline]
    fn now(&self) -> u64 {
        self.now
    }

    /// Stuck harts with their dominant stall cause and last-polled
    /// address, the frozen wait graph, and the deadlock-vs-slow verdict
    /// over the declared sync words.
    fn post_mortem(&self) -> PostMortem {
        let mut stuck = Vec::new();
        let mut graph = WaitGraph::new();
        for (i, cc) in self.workers.iter().chain(std::iter::once(&self.dmcc)).enumerate() {
            stuck.extend(cc.stuck_unit(self.unit_name(i)));
            cc.add_post_mortem_waits(&mut graph);
        }
        graph.add_breakdown(UnitClass::Dma, &self.dma_attr);
        PostMortem::assemble(self.now, stuck, &self.sync_words, graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_isa::asm::Assembler;
    use issr_isa::reg::IntReg as R;
    use issr_isa::Csr;

    /// Every core writes its hartid² to a TCDM slot.
    #[test]
    fn harts_execute_independently() {
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        a.mul(R::T1, R::T0, R::T0);
        a.slli(R::T2, R::T0, 3);
        a.li_addr(R::T3, TCDM_BASE);
        a.add(R::T2, R::T2, R::T3);
        a.sw(R::T1, R::T2, 0);
        a.halt();
        let mut cluster = Cluster::new(a.finish().unwrap(), ClusterParams::default());
        let summary = cluster.run(10_000).unwrap();
        for hart in 0..9u32 {
            assert_eq!(
                cluster.tcdm.array().load_u32(TCDM_BASE + hart * 8),
                hart * hart,
                "hart {hart}"
            );
        }
        assert!(summary.cycles < 200);
    }

    /// The hardware barrier holds early cores until the slowest arrives.
    #[test]
    fn barrier_synchronizes_all_cores() {
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        // Stagger arrival: hart h burns 20·h cycles first.
        a.li(R::T1, 20);
        a.mul(R::T1, R::T1, R::T0);
        let spin = a.bind_label();
        a.addi(R::T1, R::T1, -1);
        a.bgtz(R::T1, spin);
        a.csrr(R::ZERO, Csr::Barrier);
        // After the barrier, every core stamps the cycle counter.
        a.csrr(R::T2, Csr::MCycle);
        a.slli(R::T3, R::T0, 3);
        a.li_addr(R::T4, TCDM_BASE + 0x100);
        a.add(R::T3, R::T3, R::T4);
        a.sw(R::T2, R::T3, 0);
        a.halt();
        let mut cluster = Cluster::new(a.finish().unwrap(), ClusterParams::default());
        cluster.run(10_000).unwrap();
        let stamps: Vec<u32> =
            (0..9).map(|h| cluster.tcdm.array().load_u32(TCDM_BASE + 0x100 + h * 8)).collect();
        let min = *stamps.iter().min().unwrap();
        let max = *stamps.iter().max().unwrap();
        // All cores resumed within a couple of cycles of each other,
        // despite arrival skew of ~160 cycles.
        assert!(max - min <= 4, "stamps {stamps:?}");
    }

    /// DMCC copies data in via DMA; a worker consumes it after a flag.
    #[test]
    fn dma_flag_handshake() {
        let n = 64u32;
        let src = MAIN_BASE;
        let dst = TCDM_BASE + 0x1000;
        let flag = TCDM_BASE + 0x8;
        let out = TCDM_BASE + 0x10;
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        let worker = a.new_label();
        a.li(R::T1, 8);
        a.bne(R::T0, R::T1, worker);
        // DMCC: copy n words, poll completion, raise the flag.
        a.li_addr(R::A0, src);
        a.li_addr(R::A1, dst);
        a.dmsrc(R::A0, R::ZERO);
        a.dmdst(R::A1, R::ZERO);
        a.li(R::A2, i64::from(n) * 8);
        a.dmcpyi(R::A3, R::A2, 0);
        let poll = a.bind_label();
        a.dmstati(R::T2, 0);
        a.beqz(R::T2, poll);
        a.li(R::T3, 1);
        a.li_addr(R::T4, flag);
        a.sw(R::T3, R::T4, 0);
        a.halt();
        // Workers: hart 0 sums the data after the flag; others halt.
        a.bind(worker);
        let hart0 = a.new_label();
        a.beqz(R::T0, hart0);
        a.halt();
        a.bind(hart0);
        a.li_addr(R::T4, flag);
        let spin = a.bind_label();
        a.lw(R::T2, R::T4, 0);
        a.beqz(R::T2, spin);
        a.li_addr(R::A0, dst);
        a.li(R::T5, i64::from(n));
        a.li(R::T6, 0);
        let head = a.bind_label();
        a.lw(R::T2, R::A0, 0);
        a.addi(R::A0, R::A0, 8);
        a.add(R::T6, R::T6, R::T2);
        a.addi(R::T5, R::T5, -1);
        a.bnez(R::T5, head);
        a.li_addr(R::T4, out);
        a.sw(R::T6, R::T4, 0);
        a.halt();

        let mut cluster = Cluster::new(a.finish().unwrap(), ClusterParams::default());
        for i in 0..n {
            cluster.main.array_mut().store_u64(src + i * 8, u64::from(i));
        }
        cluster.run(50_000).unwrap();
        let expect: u32 = (0..n).sum();
        assert_eq!(cluster.tcdm.array().load_u32(out), expect);
        assert_eq!(cluster.summary().dma_stats.words_in, u64::from(n));
    }

    #[test]
    fn bank_conflicts_are_observed_under_contention() {
        // All workers hammer the same bank (same address).
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        let end = a.new_label();
        a.li(R::T1, 8);
        a.beq(R::T0, R::T1, end); // DMCC idles
        a.li_addr(R::A0, TCDM_BASE + 0x2000);
        a.li(R::T2, 64);
        let head = a.bind_label();
        a.lw(R::T3, R::A0, 0);
        a.addi(R::T2, R::T2, -1);
        a.bnez(R::T2, head);
        a.bind(end);
        a.halt();
        let mut cluster = Cluster::new(a.finish().unwrap(), ClusterParams::default());
        cluster.run(50_000).unwrap();
        assert!(
            cluster.summary().tcdm_stats.conflicts > 100,
            "expected conflicts, got {:?}",
            cluster.summary().tcdm_stats
        );
    }

    #[test]
    fn deterministic_runs() {
        let build = || {
            let mut a = Assembler::new();
            a.csrr(R::T0, Csr::MHartId);
            a.li(R::T1, 50);
            let head = a.bind_label();
            a.addi(R::T1, R::T1, -1);
            a.bnez(R::T1, head);
            a.halt();
            a.finish().unwrap()
        };
        let c1 = Cluster::new(build(), ClusterParams::default()).run(10_000).unwrap().cycles;
        let c2 = Cluster::new(build(), ClusterParams::default()).run(10_000).unwrap().cycles;
        assert_eq!(c1, c2);
    }
}
