//! # issr-trace
//!
//! The simulator's observability layer: where the other crates *model*
//! the architecture, this one explains what the model spent its cycles
//! on. It is deliberately at the bottom of the dependency graph (no
//! dependencies, not even on `issr-mem`) so every layer — stream units,
//! core complex, cluster, system, benches — can report through the same
//! vocabulary.
//!
//! Eight facilities:
//!
//! * [`attr`] — stall-cause cycle attribution. Each simulated unit
//!   classifies every ROI cycle into one [`StallCause`] and accumulates
//!   a [`CycleBreakdown`]; by construction the breakdown sums exactly
//!   to the elapsed cycles it covers.
//! * [`waitgraph`] — the causal layer over attribution: every blocked
//!   cycle is simultaneously a *blocked-on* edge (hart→lane,
//!   lane→TCDM bank, DMA→main memory, …), aggregated per edge class
//!   into a [`WaitGraph`].
//! * [`critpath`] — critical-path extraction: an exact partition of
//!   the measured window into compute plus per-edge-class blame, with
//!   what-if savings bounds ([`CriticalPath`]).
//! * [`analyze`] — the interpretation layer: a roofline-style
//!   bottleneck classifier turning counters into a bandwidth/compute/
//!   latency/sync [`Verdict`], and a PC-region [`PhaseProfile`] for
//!   per-phase stall breakdowns.
//! * [`chrome`] — an opt-in, ring-buffered interval recorder
//!   ([`TraceRecorder`]) exporting Chrome trace-event JSON (span and
//!   counter tracks, plus instant markers at trap/timeout moments)
//!   that loads directly in Perfetto (`ui.perfetto.dev`).
//! * [`blackbox`] — the flight recorder: a bounded ring of *recent*
//!   per-unit state transitions (the tail, where [`chrome`] keeps the
//!   head) and the [`PostMortem`] report every `SimTimeout` carries
//!   (and a trapped cluster run's summary).
//!
//! Both recorders are fed by observers of the one run loop
//! (`issr_snitch::cc::run_until_quiescent`), which see the machine only
//! through a shared reference after each tick: recording cannot change
//! a simulated bit or cycle.
//! * [`host`] — the opt-in host-side self-profiler: wall-clock per
//!   unit class, the provably-idle tick census, simulated-cycles/sec.
//! * [`json`] — a minimal JSON value/writer/parser ([`Json`]) for the
//!   machine-readable `BENCH_*.json` bench telemetry. No serde: the
//!   build environment is offline and the schema is tiny.
//!
//! Plus [`StatMerge`], the one merge trait behind every stats
//! aggregation path, and [`ratio`], the guarded division every
//! speedup/rate computation goes through.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod attr;
pub mod blackbox;
pub mod chrome;
pub mod critpath;
pub mod host;
pub mod json;
pub mod merge;
pub mod waitgraph;

pub use analyze::{classify, Bound, PhaseProfile, RooflineInput, Verdict};
pub use attr::{breakdown_table, CycleBreakdown, StallCause};
pub use blackbox::{BlackBox, Classification, PostMortem, StuckUnit, Transition, UnitId};
pub use chrome::{CounterId, TraceRecorder, TrackId};
pub use critpath::{extract, CriticalPath};
pub use host::HostProfiler;
pub use json::Json;
pub use merge::StatMerge;
pub use waitgraph::{edge_for, is_blocked, EdgeClass, UnitClass, WaitGraph};

/// Guarded division for speedups, rates and utilizations: returns
/// `num / den`, or 0.0 when the denominator is zero (a run that
/// completed in zero ROI cycles, an empty sweep, …) instead of a NaN
/// or infinity that would poison every downstream table and JSON file.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_guards_zero_denominator() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert!((ratio(6.0, 3.0) - 2.0).abs() < 1e-12);
        assert!(ratio(1.0, 0.0).is_finite());
    }
}
