//! The ISSR benchmark: one command that runs a named workload for a
//! fixed time and prints every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`), each with its unit, as the last line
//! of standard output in JSON.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cc_paper --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Every kernel output is checked against the `issr_sparse::reference`
//! oracles; traps, timeouts, panics, oracle mismatches and runs whose
//! simulated results differ between passes all count as failures. Each
//! run also makes one pass on a held-out seed derived from `--seed`.

mod anchors;
mod kernels;
mod rec;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use issr_trace::json::obj;
use issr_trace::Json;

use kernels::{Harness, Units};
use rec::Phase;
use workloads::{Ctx, Rep, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let num = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse::<u64>().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// The held-out seed every run also passes on once.
fn held_out(seed: u64) -> u64 {
    seed ^ 0x5EED_0FF5_E7A5_1DE5
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The simulated end-to-end metrics of one pass. They are exact: every
/// pass over the same seed must reproduce them bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Simulated {
    issr_cycles: f64,
    issr_speedup: f64,
    issr_fpu_util: f64,
    paper_dev: f64,
}

impl Simulated {
    fn of(rep: &Rep) -> Self {
        let issr = || rep.runs.iter().filter(|(i, _)| *i).map(|(_, o)| o);
        let cycles: u64 = issr().map(|o| o.work).sum();
        let fmadds: u64 = issr().map(|o| o.fmadds).sum();
        let capacity: u64 = issr().map(|o| o.work * o.fpus).sum();
        let logs: f64 = rep.speedups.iter().map(|s| s.ln()).sum();
        Self {
            issr_cycles: cycles as f64,
            issr_speedup: (logs / rep.speedups.len().max(1) as f64).exp(),
            issr_fpu_util: fmadds as f64 / capacity.max(1) as f64,
            paper_dev: anchors::paper_dev(&rep.anchors),
        }
    }
}

/// Host timings of one pass.
struct Timing {
    setup_s: f64,
    run_s: f64,
    wall_s: f64,
    sim_cycles: u64,
}

impl Timing {
    fn of(ctx: &Ctx, rep: &Rep, wall: f64) -> Self {
        let setup_s = ctx.rec.setup_s();
        Self {
            setup_s,
            run_s: ctx.rec.run_s(),
            wall_s: wall - setup_s,
            sim_cycles: rep.runs.iter().map(|(_, o)| o.cycles).sum(),
        }
    }

    fn cycles_per_s(&self) -> f64 {
        self.sim_cycles as f64 / self.run_s
    }
}

/// Failure tally over every pass of the process, plus the determinism
/// check against the first pass.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first: Option<(Vec<Option<u64>>, Simulated)>,
}

impl Tally {
    fn pass(&mut self, ctx: &Ctx, rep: &Rep, check_determinism: bool) {
        self.attempted += ctx.attempted;
        self.failed += ctx.failures.len() as u64;
        for f in &ctx.failures {
            eprintln!("FAIL {f}");
        }
        if !check_determinism {
            return;
        }
        let now = (rep.fingerprints.clone(), Simulated::of(rep));
        match &self.first {
            None => self.first = Some(now),
            Some((prints, sim)) => {
                let diverged = prints.iter().zip(&now.0).filter(|(a, b)| a != b).count();
                if diverged > 0 || prints.len() != now.0.len() || *sim != now.1 {
                    eprintln!("FAIL determinism: {diverged} runs differ from the first pass");
                    self.failed += diverged.max(1) as u64;
                }
            }
        }
    }

    fn pass_ratio(&self) -> f64 {
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted.max(1) as f64
    }
}

/// One timed pass; `profile` installs the host profiler around it.
fn pass(
    workload: Workload,
    seed: u64,
    tracing: bool,
    profile: bool,
) -> (Ctx, Rep, f64, Option<Json>) {
    let mut ctx = Ctx::new(tracing);
    if profile {
        issr_trace::host::install();
    }
    let t0 = Instant::now();
    let rep = workload.run(&mut ctx, seed);
    let wall = t0.elapsed().as_secs_f64();
    let host = issr_trace::host::uninstall().map(|p| p.to_json());
    (ctx, rep, wall, host)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// `--trace 0`: untraced passes until `--seconds` are spent.
fn measure(args: &Args, tally: &mut Tally) -> Metrics {
    let start = Instant::now();
    let mut timings = Vec::new();
    let mut sim = None;
    let mut first_anchors = Vec::new();
    loop {
        let (ctx, rep, wall, _) = pass(args.workload, args.seed, false, false);
        tally.pass(&ctx, &rep, true);
        let t = Timing::of(&ctx, &rep, wall);
        eprintln!(
            "pass {}: setup {:.4} s, run {:.4} s, {:.0} cycles/s",
            timings.len(),
            t.setup_s,
            t.run_s,
            t.cycles_per_s()
        );
        timings.push(t);
        if sim.is_none() {
            sim = Some(Simulated::of(&rep));
            first_anchors = rep.anchors.clone();
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let sim = sim.expect("at least one pass");
    for &(name, value) in &first_anchors {
        let a = anchors::ANCHORS.iter().find(|a| a.name == name).expect("anchor is in the table");
        eprintln!(
            "anchor {name} ({}, {}): measured {value:.4}, paper {}",
            a.figure, a.what, a.paper
        );
    }
    let med = |f: fn(&Timing) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());
    eprintln!("{} passes measured", timings.len());
    vec![
        ("sim_cycles_per_s", med(Timing::cycles_per_s), "cycles/s"),
        ("setup_s", med(|t| t.setup_s), "s"),
        ("issr_cycles", sim.issr_cycles, "cycles"),
        ("issr_speedup", sim.issr_speedup, "x"),
        ("issr_fpu_util", sim.issr_fpu_util, "ratio"),
        ("paper_dev", sim.paper_dev, "ratio"),
        ("wall_s", med(|t| t.wall_s), "s"),
    ]
}

fn host_ms(host: &Option<Json>, class: &str) -> f64 {
    host.as_ref()
        .and_then(|h| h.get("classes"))
        .and_then(|c| c.get(class))
        .and_then(|c| c.get("wall_ms"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Sum of a harness's outermost cycles over every run of a pass.
fn harness_cycles(rep: &Rep, h: Harness) -> f64 {
    rep.runs.iter().filter(|(_, o)| o.harness == h).map(|(_, o)| o.cycles).sum::<u64>() as f64
}

/// `--trace 1`: alternating untraced and traced passes while another
/// pair fits in `--seconds` (at least one pair), then, on workloads with
/// system runs, one pass on the default host thread pool. Writes the
/// last traced pass's spans.
fn traced(args: &Args, tally: &mut Tally) -> Metrics {
    let start = Instant::now();
    let mut overheads = Vec::new();
    let mut serial_system_s = Vec::new();
    let last = loop {
        let (ctx_u, rep_u, wall_u, _) = pass(args.workload, args.seed, false, false);
        tally.pass(&ctx_u, &rep_u, true);
        serial_system_s.push(ctx_u.rec.total(Phase::RunSystem));
        let (ctx_t, rep_t, wall_t, host) = pass(args.workload, args.seed, true, true);
        tally.pass(&ctx_t, &rep_t, true);
        overheads.push(wall_t / wall_u - 1.0);
        // Stop before an iteration that would overrun `--seconds`.
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (overheads.len() as f64 + 1.0) / overheads.len() as f64 > args.seconds {
            break (ctx_t, rep_t, host);
        }
    };
    let (ctx, rep, host) = last;
    let (mut threads, mut pool_speedup) = (0.0, 0.0);
    if rep.runs.iter().any(|(_, o)| o.harness == Harness::System) {
        std::env::remove_var("ISSR_THREADS");
        let (ctx_p, rep_p, _, _) = pass(args.workload, args.seed, false, false);
        std::env::set_var("ISSR_THREADS", "1");
        tally.pass(&ctx_p, &rep_p, true);
        threads = rep_p.runs.iter().map(|(_, o)| o.threads).max().unwrap_or(0) as f64;
        pool_speedup = median(&serial_system_s) / ctx_p.rec.total(Phase::RunSystem);
    }
    let path = format!(
        "{}/out/{}-seed{}.trace.json",
        env!("CARGO_MANIFEST_DIR"),
        args.workload.name(),
        args.seed
    );
    let written = std::fs::create_dir_all(format!("{}/out", env!("CARGO_MANIFEST_DIR")))
        .and_then(|()| std::fs::write(&path, ctx.rec.chrome_json().to_string()));
    match written {
        Ok(()) => eprintln!("spans written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    let mut units = Units::default();
    for (_, o) in rep.runs.iter().filter(|(issr, _)| *issr) {
        units.add(&o.units);
    }
    let issr_pj = rep.energy.iter().fold(0.0, |acc, (_, ei, _)| acc + ei.total_pj);
    let issr_fmadds: u64 = rep.energy.iter().map(|(_, _, f)| f).sum();
    let gain =
        rep.energy.iter().map(|(eb, ei, _)| eb.pj_per_fmadd / ei.pj_per_fmadd).fold(0.0, f64::max);
    let excess = rep.runs.iter().map(|(_, o)| o.critpath_excess).max().unwrap_or(0);
    let contention = units.sys_denied as f64 / (units.sys_denied + units.sys_served).max(1) as f64;

    let mut m: Metrics =
        ctx.rec.self_times().into_iter().map(|(p, s)| (p.metric(), s, "s")).collect();
    m.extend([
        ("snitch.sim_cycles", harness_cycles(&rep, Harness::Cc), "cycles"),
        ("cluster.sim_cycles", harness_cycles(&rep, Harness::Cluster), "cycles"),
        ("system.sim_cycles", harness_cycles(&rep, Harness::System), "cycles"),
        ("host.workers_ms", host_ms(&host, "workers"), "ms"),
        ("host.dmcc_ms", host_ms(&host, "dmcc"), "ms"),
        ("host.mem_ms", host_ms(&host, "mem"), "ms"),
        ("host.dma_ms", host_ms(&host, "dma"), "ms"),
        (
            "host.idle_unit_fraction",
            host.as_ref()
                .and_then(|h| h.get("idle_unit_fraction"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            "ratio",
        ),
        ("snitch.hart.active", units.hart_active as f64, "cycles"),
        ("snitch.hart.fifo_empty", units.hart_fifo_empty as f64, "cycles"),
        ("snitch.hart.port_conflict", units.hart_port_conflict as f64, "cycles"),
        ("snitch.hart.barrier_wait", units.hart_barrier_wait as f64, "cycles"),
        ("core.lane.fifo_full", units.lane_fifo_full as f64, "cycles"),
        ("core.lane.port_conflict", units.lane_port_conflict as f64, "cycles"),
        ("core.joiner.active", units.joiner_active as f64, "cycles"),
        ("core.spacc.active", units.spacc_active as f64, "cycles"),
        ("core.spacc.overlap_cycles", units.spacc_overlap as f64, "cycles"),
        ("mem.tcdm.conflicts", units.tcdm_conflicts as f64, "count"),
        ("mem.dma.words", units.dma_words as f64, "words"),
        ("mem.dma.bw_denied", units.dma_bw_denied as f64, "cycles"),
        ("system.contention", contention, "ratio"),
        ("system.overlap_cycles", units.sys_overlap as f64, "cycles"),
        ("model.issr_pj_per_fmadd", issr_pj / issr_fmadds.max(1) as f64, "pJ"),
        ("model.energy_gain", gain, "x"),
        ("trace.overhead", median(&overheads), "ratio"),
        ("trace.critpath_excess", excess as f64, "cycles"),
        ("system.threads", threads, "count"),
        ("system.pool_speedup", pool_speedup, "x"),
    ]);
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <cc_paper|cluster_paper|system_csrmv|sparse_out> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // One simulation thread per process: the timed passes must not
    // measure the host scheduler.
    std::env::set_var("ISSR_THREADS", "1");
    let mut tally = Tally::default();
    let mut metrics =
        if args.trace { traced(&args, &mut tally) } else { measure(&args, &mut tally) };

    // The held-out seed: one more pass that must also finish clean.
    let (ctx, rep, _, _) = pass(args.workload, held_out(args.seed), false, false);
    tally.pass(&ctx, &rep, false);

    if !args.trace {
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MiB"));
        metrics.push(("pass_ratio", tally.pass_ratio(), "ratio"));
    }
    for (name, value, unit) in &metrics {
        println!("{:<28} {value:>16.6} {unit}", name);
    }
    let fields: Vec<(String, Json)> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (name.to_owned(), obj(vec![("value", Json::Float(value)), ("unit", Json::from(unit))]))
        })
        .collect();
    let doc = obj(vec![
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        ("metrics", Json::Obj(fields)),
    ]);
    println!("{doc}");
    ExitCode::SUCCESS
}
