//! Host-side simulator self-profiler.
//!
//! Where [`crate::attr`] explains the *modeled* machine, this module
//! explains the *simulator*: how much wall-clock each tick-phase bucket
//! (worker cores, DMCC, DMA engine, memories) costs the host, how many
//! unit ticks were provably idle (a halted hart, a drained streamer, an
//! engine with nothing queued — exactly the ticks a dirty-set scheduler
//! could skip), and how many simulated cycles per second the process
//! sustains. The idle census sizes the sparse-ticking opportunity.
//!
//! The profiler is **opt-in and ambient**: a bench binary installs one
//! collector for its thread ([`install`]) and every run harness it
//! drives from then on — [`SingleCcSim::run`], [`Cluster::tick`],
//! [`System::tick`] — feeds it through the free functions here. When
//! nothing is installed the hooks reduce to one thread-local read per
//! tick. The profiler only *reads* simulator state (idleness probes are
//! `&self`), so enabling it cannot change simulated behavior — the
//! guest-neutrality property the test suite pins down.
//!
//! [`SingleCcSim::run`]: ../issr_snitch/cc/struct.SingleCcSim.html
//! [`Cluster::tick`]: ../issr_cluster/cluster/struct.Cluster.html
//! [`System::tick`]: ../issr_system/system/struct.System.html

use std::cell::RefCell;
use std::time::Instant;

use crate::json::obj;
use crate::merge::StatMerge;
use crate::{ratio, Json};

/// Accumulated host-side cost and idle census of one unit class (one
/// tick-phase bucket: `"workers"`, `"dmcc"`, `"dma"`, `"mem"`).
#[derive(Clone, Debug)]
struct ClassStats {
    name: &'static str,
    /// Host nanoseconds spent ticking this class.
    wall_nanos: u64,
    /// Unit ticks executed (one unit advanced one cycle).
    unit_ticks: u64,
    /// Unit ticks that were provably skippable: the unit was quiescent
    /// (empty FIFOs, no in-flight requests, parked hart) *before* the
    /// tick ran.
    idle_unit_ticks: u64,
}

/// Wall-clock, idle-census and throughput accumulator for one
/// simulation thread. Usually driven through the ambient [`install`] /
/// [`phase`] / [`report`] free functions; standalone use (own the
/// profiler, call [`HostProfiler::record`] directly) works too.
#[derive(Clone, Debug)]
pub struct HostProfiler {
    start: Instant,
    sim_cycles: u64,
    classes: Vec<ClassStats>,
}

impl Default for HostProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProfiler {
    /// A fresh profiler; the wall clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self { start: Instant::now(), sim_cycles: 0, classes: Vec::new() }
    }

    /// Counts one simulated cycle of an outermost harness loop (system
    /// cycle, standalone-cluster cycle, single-CC cycle).
    pub fn cycle(&mut self) {
        self.sim_cycles += 1;
    }

    /// Adds one phase measurement: `nanos` of host time ticking `units`
    /// units of `class`, of which `idle_units` were provably idle
    /// before the tick.
    pub fn record(&mut self, class: &'static str, nanos: u64, units: u64, idle_units: u64) {
        let stats = match self.classes.iter_mut().find(|c| c.name == class) {
            Some(stats) => stats,
            None => {
                self.classes.push(ClassStats {
                    name: class,
                    wall_nanos: 0,
                    unit_ticks: 0,
                    idle_unit_ticks: 0,
                });
                self.classes.last_mut().expect("just pushed")
            }
        };
        stats.wall_nanos += nanos;
        stats.unit_ticks += units;
        stats.idle_unit_ticks += idle_units.min(units);
    }

    /// Simulated cycles counted so far.
    #[must_use]
    pub fn sim_cycles(&self) -> u64 {
        self.sim_cycles
    }

    /// Provably-idle fraction of all unit ticks across every class —
    /// the dirty-set opportunity in one number.
    #[must_use]
    pub fn idle_fraction(&self) -> f64 {
        let total: u64 = self.classes.iter().map(|c| c.unit_ticks).sum();
        let idle: u64 = self.classes.iter().map(|c| c.idle_unit_ticks).sum();
        ratio(idle as f64, total as f64)
    }

    /// The `host` telemetry section: wall-clock per unit class, the
    /// idle-tick census, and simulated-cycles/sec. Wall-clock fields
    /// are nondeterministic by nature; the baseline checker ignores
    /// the whole section.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let wall_nanos = self.start.elapsed().as_nanos() as u64;
        let wall_secs = wall_nanos as f64 / 1e9;
        let classes: Vec<(String, Json)> = self
            .classes
            .iter()
            .map(|c| {
                (
                    c.name.to_owned(),
                    obj(vec![
                        ("wall_ms", Json::Float(c.wall_nanos as f64 / 1e6)),
                        ("unit_ticks", Json::from(c.unit_ticks)),
                        ("idle_unit_ticks", Json::from(c.idle_unit_ticks)),
                        (
                            "idle_fraction",
                            Json::Float(ratio(c.idle_unit_ticks as f64, c.unit_ticks as f64)),
                        ),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("sim_cycles", Json::from(self.sim_cycles)),
            ("wall_ms", Json::Float(wall_secs * 1e3)),
            ("sim_cycles_per_sec", Json::Float(ratio(self.sim_cycles as f64, wall_secs))),
            ("idle_unit_fraction", Json::Float(self.idle_fraction())),
            ("classes", Json::Obj(classes)),
        ])
    }
}

impl StatMerge for HostProfiler {
    fn merge_from(&mut self, other: &Self) {
        self.start = self.start.min(other.start);
        self.sim_cycles += other.sim_cycles;
        for c in &other.classes {
            self.record(c.name, c.wall_nanos, c.unit_ticks, c.idle_unit_ticks);
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<HostProfiler>> = const { RefCell::new(None) };
}

/// Installs a fresh ambient profiler for this thread; every harness
/// ticked on it from now on reports in. Replaces any previous one.
pub fn install() {
    ACTIVE.with(|a| *a.borrow_mut() = Some(HostProfiler::new()));
}

/// Removes and returns this thread's ambient profiler.
pub fn uninstall() -> Option<HostProfiler> {
    ACTIVE.with(|a| a.borrow_mut().take())
}

/// Whether an ambient profiler is installed — the one check a harness
/// makes per tick before paying for any timing.
#[must_use]
#[inline]
pub fn is_enabled() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Runs `f` against the ambient profiler; no-op when none is installed.
pub fn with(f: impl FnOnce(&mut HostProfiler)) {
    ACTIVE.with(|a| {
        if let Some(p) = a.borrow_mut().as_mut() {
            f(p);
        }
    });
}

/// Counts one simulated cycle on the ambient profiler. The shared
/// `is_enabled` check comes first, so an unprofiled tick never takes
/// the mutable borrow.
#[inline]
pub fn cycle() {
    if is_enabled() {
        with(HostProfiler::cycle);
    }
}

/// Starts phase timing for one tick: `Some(now)` when profiling,
/// `None` (and zero further cost) otherwise.
#[must_use]
#[inline]
pub fn phase_start() -> Option<Instant> {
    is_enabled().then(Instant::now)
}

/// Closes the current phase — attributing the wall-clock since `t` to
/// `class` with its unit/idle census — and restarts `t` for the next
/// phase. No-op when `t` is `None`.
#[inline]
pub fn phase(t: &mut Option<Instant>, class: &'static str, units: u64, idle_units: u64) {
    if let Some(start) = t {
        let now = Instant::now();
        let nanos = now.duration_since(*start).as_nanos() as u64;
        with(|p| p.record(class, nanos, units, idle_units));
        *t = Some(now);
    }
}

/// The ambient profiler's `host` telemetry section, if one is
/// installed. The profiler stays installed (benches report once at the
/// end of `main`, after all sweeps fed it).
#[must_use]
pub fn report() -> Option<Json> {
    ACTIVE.with(|a| a.borrow().as_ref().map(HostProfiler::to_json))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_accumulates_per_class() {
        let mut p = HostProfiler::new();
        p.cycle();
        p.cycle();
        p.record("workers", 100, 8, 3);
        p.record("workers", 50, 8, 8);
        p.record("dma", 10, 1, 1);
        assert_eq!(p.sim_cycles(), 2);
        let doc = p.to_json();
        let workers = doc.get("classes").and_then(|c| c.get("workers")).expect("workers class");
        assert_eq!(workers.get("unit_ticks").and_then(Json::as_int), Some(16));
        assert_eq!(workers.get("idle_unit_ticks").and_then(Json::as_int), Some(11));
        let dma = doc.get("classes").and_then(|c| c.get("dma")).expect("dma class");
        assert_eq!(dma.get("idle_fraction").and_then(Json::as_f64), Some(1.0));
        assert!((p.idle_fraction() - 12.0 / 17.0).abs() < 1e-12);
    }

    #[test]
    fn idle_units_clamp_to_units() {
        let mut p = HostProfiler::new();
        p.record("mem", 1, 2, 5);
        assert!((p.idle_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_folds_classes_and_cycles() {
        let mut a = HostProfiler::new();
        a.cycle();
        a.record("workers", 10, 4, 1);
        let mut b = HostProfiler::new();
        b.cycle();
        b.record("workers", 5, 4, 2);
        b.record("dmcc", 3, 1, 0);
        a.merge_from(&b);
        assert_eq!(a.sim_cycles(), 2);
        let doc = a.to_json();
        let workers = doc.get("classes").and_then(|c| c.get("workers")).expect("workers");
        assert_eq!(workers.get("unit_ticks").and_then(Json::as_int), Some(8));
        assert_eq!(workers.get("idle_unit_ticks").and_then(Json::as_int), Some(3));
        assert!(doc.get("classes").and_then(|c| c.get("dmcc")).is_some());
    }

    #[test]
    fn ambient_install_report_uninstall() {
        assert!(!is_enabled());
        assert!(report().is_none());
        install();
        assert!(is_enabled());
        cycle();
        let mut t = phase_start();
        assert!(t.is_some());
        phase(&mut t, "workers", 8, 4);
        let doc = report().expect("installed");
        assert_eq!(doc.get("sim_cycles").and_then(Json::as_int), Some(1));
        let p = uninstall().expect("was installed");
        assert_eq!(p.sim_cycles(), 1);
        assert!(!is_enabled());
        let mut t = phase_start();
        assert!(t.is_none());
        phase(&mut t, "workers", 1, 0); // no-op when off
    }
}
