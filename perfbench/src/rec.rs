//! Host-time accounting around every layer call, with optional spans.
//!
//! The benchmark times each call it makes into a simulator layer (operand
//! generation, plan + assembly, lint, harness construction + marshal, the
//! run itself, readback, oracle check). The per-phase totals are always
//! kept — the end-to-end `setup_s` and `sim_cycles_per_s` come from them.
//! With tracing on, every call also becomes a span (name, start, end,
//! parent, kernel-run id) kept in memory and written out at the end as
//! Chrome trace-event JSON.

use std::time::Instant;

use issr_trace::json::obj;
use issr_trace::Json;

/// The layer a timed call belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The benchmark's own bookkeeping spans (workload, case, kernel run).
    Bench,
    /// `issr_sparse::gen` / `suite` operand generation.
    Gen,
    /// `issr_kernels` plan + program assembly.
    Build,
    /// `issr_lint::lint_program`.
    Lint,
    /// Harness `new` + marshal of the operands.
    Marshal,
    /// `SingleCcSim::run`.
    RunCc,
    /// `Cluster::run`.
    RunCluster,
    /// `System::run`.
    RunSystem,
    /// Result readback out of simulated memory.
    Readback,
    /// `issr_sparse::reference` oracle + comparison.
    Oracle,
}

impl Phase {
    pub const ALL: [Phase; 10] = [
        Phase::Bench,
        Phase::Gen,
        Phase::Build,
        Phase::Lint,
        Phase::Marshal,
        Phase::RunCc,
        Phase::RunCluster,
        Phase::RunSystem,
        Phase::Readback,
        Phase::Oracle,
    ];

    /// The per-layer metric that reports this phase's self time.
    pub fn metric(self) -> &'static str {
        match self {
            Phase::Bench => "bench.self_s",
            Phase::Gen => "sparse.gen_s",
            Phase::Build => "kernels.build_s",
            Phase::Lint => "lint.check_s",
            Phase::Marshal => "kernels.marshal_s",
            Phase::RunCc => "snitch.run_s",
            Phase::RunCluster => "cluster.run_s",
            Phase::RunSystem => "system.run_s",
            Phase::Readback => "kernels.readback_s",
            Phase::Oracle => "sparse.oracle_s",
        }
    }

    /// Chrome-trace category (the crate the call goes into).
    fn category(self) -> &'static str {
        match self {
            Phase::Bench => "bench",
            Phase::Gen | Phase::Oracle => "sparse",
            Phase::Build | Phase::Marshal | Phase::Readback => "kernels",
            Phase::Lint => "lint",
            Phase::RunCc => "snitch",
            Phase::RunCluster => "cluster",
            Phase::RunSystem => "system",
        }
    }

    /// Whether the phase is part of set-up (host time before the first tick).
    pub fn is_setup(self) -> bool {
        matches!(self, Phase::Gen | Phase::Build | Phase::Lint | Phase::Marshal)
    }

    /// Whether the phase is a simulation run.
    pub fn is_run(self) -> bool {
        matches!(self, Phase::RunCc | Phase::RunCluster | Phase::RunSystem)
    }
}

#[derive(Clone, Debug)]
struct Span {
    name: String,
    phase: Phase,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    id: u64,
}

/// An open span, closed by [`Recorder::end`].
#[must_use]
pub struct Open {
    phase: Phase,
    start: Instant,
    index: Option<usize>,
}

/// Per-phase time totals plus, when tracing, the span tree.
pub struct Recorder {
    origin: Instant,
    totals: [f64; Phase::ALL.len()],
    spans: Option<Vec<Span>>,
    stack: Vec<usize>,
    id: u64,
}

impl Recorder {
    pub fn new(tracing: bool) -> Self {
        Self {
            origin: Instant::now(),
            totals: [0.0; Phase::ALL.len()],
            spans: tracing.then(Vec::new),
            stack: Vec::new(),
            id: 0,
        }
    }

    /// Sets the kernel-run id the following spans carry.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    pub fn begin(&mut self, phase: Phase, name: &str) -> Open {
        let start = Instant::now();
        let index = self.spans.as_mut().map(|spans| {
            spans.push(Span {
                name: name.to_owned(),
                phase,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                id: self.id,
            });
            spans.len() - 1
        });
        if let Some(i) = index {
            self.stack.push(i);
        }
        Open { phase, start, index }
    }

    pub fn end(&mut self, open: Open) {
        let end = Instant::now();
        if open.phase != Phase::Bench {
            self.totals[open.phase as usize] += end.duration_since(open.start).as_secs_f64();
        }
        if let (Some(i), Some(spans)) = (open.index, self.spans.as_mut()) {
            spans[i].end_ns = end.duration_since(self.origin).as_nanos() as u64;
            if let Some(pos) = self.stack.iter().rposition(|&s| s == i) {
                self.stack.truncate(pos);
            }
        }
    }

    /// Times `f` as one leaf call into `phase`'s layer.
    pub fn time<T>(&mut self, phase: Phase, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(phase, name);
        let out = f();
        self.end(open);
        out
    }

    /// Span-stack depth, to restore after a caught panic.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Closes every span opened above `depth` (a panic unwound past them).
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        if let Some(spans) = self.spans.as_mut() {
            for &i in &self.stack[depth.min(self.stack.len())..] {
                spans[i].end_ns = now;
            }
        }
        self.stack.truncate(depth);
    }

    /// Seconds spent in `phase`'s leaf calls.
    pub fn total(&self, phase: Phase) -> f64 {
        self.totals[phase as usize]
    }

    /// Seconds spent in set-up phases.
    pub fn setup_s(&self) -> f64 {
        Phase::ALL.iter().filter(|p| p.is_setup()).map(|&p| self.total(p)).sum()
    }

    /// Seconds spent inside simulation runs.
    pub fn run_s(&self) -> f64 {
        Phase::ALL.iter().filter(|p| p.is_run()).map(|&p| self.total(p)).sum()
    }

    /// Self time per phase in seconds: each span's duration minus the
    /// part its child spans cover. Empty without tracing.
    pub fn self_times(&self) -> Vec<(Phase, f64)> {
        let Some(spans) = &self.spans else { return Vec::new() };
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: Vec<(Phase, f64)> = Phase::ALL.iter().map(|&p| (p, 0.0)).collect();
        for (s, child) in spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            out[s.phase as usize].1 += own as f64 / 1e9;
        }
        out
    }

    /// The spans as a Chrome trace-event document (`ph: "X"` complete
    /// events, microsecond timestamps, one track), loadable in Perfetto.
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .flatten()
            .enumerate()
            .map(|(i, s)| {
                obj(vec![
                    ("name", Json::from(s.name.as_str())),
                    ("cat", Json::from(s.phase.category())),
                    ("ph", Json::from("X")),
                    ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Float(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    (
                        "args",
                        obj(vec![
                            ("span", Json::from(i)),
                            ("parent", s.parent.map_or(Json::Int(-1), Json::from)),
                            ("id", Json::from(s.id)),
                        ]),
                    ),
                ])
            })
            .collect();
        obj(vec![("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::from("ms"))])
    }
}
