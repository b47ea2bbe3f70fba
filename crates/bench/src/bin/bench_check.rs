//! CI baseline checker for the `BENCH_*.json` telemetry.
//!
//! ```text
//! bench_check <baseline.json> <fresh.json> [--tolerance 0.25]
//! bench_check --update [--dir baselines]
//! ```
//!
//! Validates that the fresh file a bench binary just wrote (1) carries
//! the shared envelope (`schema_version`, `bench`, `mode`, `results`),
//! (2) keeps its attribution invariants — every per-unit stall-cause
//! breakdown sums to the cycle count it covers, and no critical path
//! is longer than the run its verdict describes — and (3) has not
//! regressed any cycle counter beyond its tolerance relative to the
//! committed baseline. Tolerances are per metric: the baseline's own
//! `tolerances` object names the budget for each gated key, and
//! `--tolerance` is only the fallback for keys it does not name.
//! Structural drift (sections, rows or units appearing/disappearing)
//! also fails: that is a schema change and the baseline must be
//! regenerated deliberately. The `host` section (wall-clock profile,
//! machine-dependent) and the `tolerances` object itself are exempt
//! from the structural walk.
//!
//! `--update` regenerates the committed baselines by spawning the three
//! smoke runs (`joiner`, `spgemm`, `system`, each `--smoke --json`)
//! into the baseline directory.
//!
//! Exits non-zero with one line per violation — the CI gate.

use std::path::Path;
use std::process::ExitCode;

use issr_bench::telemetry::SCHEMA_VERSION;
use issr_trace::{Json, StallCause};

/// Integer fields compared against the baseline within the tolerance.
const CYCLE_KEYS: [&str; 9] = [
    "cycles",
    "elapsed",
    "base16",
    "issr16",
    "issr16_single",
    "base32",
    "issr32",
    "base_cycles",
    "issr_cycles",
];

/// Subtrees exempt from the structural walk: `host` is wall-clock
/// profile data (machine-dependent, absent when the profiler is off)
/// and `tolerances` is checker configuration, not a result.
const SKIP_KEYS: [&str; 2] = ["host", "tolerances"];

/// Per-metric drift budgets: the baseline's `tolerances` object plus
/// the command-line fallback for unnamed metrics.
struct Tolerances {
    per_metric: Vec<(String, f64)>,
    fallback: f64,
}

impl Tolerances {
    fn from_baseline(doc: &Json, fallback: f64) -> Self {
        let mut per_metric = Vec::new();
        if let Some(Json::Obj(fields)) = doc.get("tolerances") {
            for (k, v) in fields {
                if let Some(t) = v.as_f64() {
                    per_metric.push((k.clone(), t));
                }
            }
        }
        Self { per_metric, fallback }
    }

    fn for_metric(&self, key: &str) -> f64 {
        self.per_metric.iter().find(|(k, _)| k == key).map_or(self.fallback, |&(_, t)| t)
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: read: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: parse: {e}"))
}

fn check_envelope(doc: &Json, path: &str, errors: &mut Vec<String>) {
    match doc.get("schema_version").and_then(Json::as_int) {
        Some(SCHEMA_VERSION) => {}
        other => {
            errors.push(format!("{path}: schema_version {other:?}, expected {SCHEMA_VERSION}"))
        }
    }
    if doc.get("bench").and_then(Json::as_str).is_none() {
        errors.push(format!("{path}: missing string field 'bench'"));
    }
    if doc.get("mode").and_then(Json::as_str).is_none() {
        errors.push(format!("{path}: missing string field 'mode'"));
    }
    if !matches!(doc.get("results"), Some(Json::Obj(_))) {
        errors.push(format!("{path}: missing object field 'results'"));
    }
}

/// The sum of a stall-cause breakdown object, or `None` if `v` is not
/// one (a breakdown carries exactly the ten cause labels).
fn breakdown_total(v: &Json) -> Option<i64> {
    let Json::Obj(fields) = v else { return None };
    if fields.len() != StallCause::COUNT {
        return None;
    }
    let mut total = 0i64;
    for cause in StallCause::ALL {
        total += v.get(cause.label())?.as_int()?;
    }
    Some(total)
}

/// Checks a `critical_path` section: an object with `length`, `compute`
/// and an `edges` object must partition exactly — compute plus the sum
/// of every edge-class attribution equals the path length.
fn check_critical_path(v: &Json, path: &str, errors: &mut Vec<String>) {
    let (Some(length), Some(compute), Some(Json::Obj(edges))) = (
        v.get("length").and_then(Json::as_int),
        v.get("compute").and_then(Json::as_int),
        v.get("edges"),
    ) else {
        return;
    };
    let mut blocked = 0i64;
    for (name, n) in edges {
        match n.as_int() {
            Some(n) => blocked += n,
            None => errors.push(format!("{path}/edges/{name}: not an integer")),
        }
    }
    if compute + blocked != length {
        errors.push(format!(
            "{path}: critical path does not partition: {compute} compute + {blocked} \
             edge cycles != length {length}"
        ));
    }
}

/// Checks an object holding both a `critical_path` section and a
/// `verdict` with `elapsed`: the path lies within the run, so its
/// `length` cannot exceed the run's `elapsed` cycles.
fn check_path_within_run(v: &Json, path: &str, errors: &mut Vec<String>) {
    let (Some(length), Some(elapsed)) = (
        v.get("critical_path").and_then(|c| c.get("length")).and_then(Json::as_int),
        v.get("verdict").and_then(|c| c.get("elapsed")).and_then(Json::as_int),
    ) else {
        return;
    };
    if length > elapsed {
        errors.push(format!(
            "{path}/critical_path: length {length} exceeds the run's elapsed {elapsed} cycles"
        ));
    }
}

/// Walks the document checking the attribution invariants:
/// an object with `roi_cycles` + `units` has every unit breakdown
/// summing to `roi_cycles`; an object with `elapsed` + `dma` has the
/// DMA breakdown summing to `elapsed`; an object with `length` +
/// `compute` + `edges` partitions exactly (a `critical_path` section);
/// an object with `critical_path` + `verdict` has the path no longer
/// than the verdict's `elapsed`.
fn check_attribution(v: &Json, path: &str, errors: &mut Vec<String>) {
    check_critical_path(v, path, errors);
    check_path_within_run(v, path, errors);
    if let (Some(roi), Some(Json::Obj(units))) =
        (v.get("roi_cycles").and_then(Json::as_int), v.get("units"))
    {
        for (name, unit) in units {
            match breakdown_total(unit) {
                Some(total) if total == roi => {}
                Some(total) => errors.push(format!(
                    "{path}/units/{name}: breakdown sums to {total}, roi_cycles is {roi}"
                )),
                None => errors.push(format!("{path}/units/{name}: not a stall-cause breakdown")),
            }
        }
    }
    if let (Some(elapsed), Some(dma)) = (v.get("elapsed").and_then(Json::as_int), v.get("dma")) {
        match breakdown_total(dma) {
            Some(total) if total == elapsed => {}
            Some(total) => {
                errors.push(format!("{path}/dma: breakdown sums to {total}, elapsed is {elapsed}"))
            }
            None => errors.push(format!("{path}/dma: not a stall-cause breakdown")),
        }
    }
    match v {
        Json::Obj(fields) => {
            for (k, child) in fields {
                check_attribution(child, &format!("{path}/{k}"), errors);
            }
        }
        Json::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                check_attribution(child, &format!("{path}/{i}"), errors);
            }
        }
        _ => {}
    }
}

/// Walks baseline and fresh in parallel: structure must match, and any
/// [`CYCLE_KEYS`] integer may drift by at most its per-metric tolerance
/// relative to the baseline. A violation names the bench, the metric
/// path and both values.
fn compare(
    base: &Json,
    fresh: &Json,
    tol: &Tolerances,
    bench: &str,
    path: &str,
    errors: &mut Vec<String>,
) {
    match (base, fresh) {
        (Json::Obj(bf), Json::Obj(_)) => {
            for (k, bv) in bf {
                if path.is_empty() && SKIP_KEYS.contains(&k.as_str()) {
                    continue;
                }
                let p = format!("{path}/{k}");
                let Some(fv) = fresh.get(k) else {
                    errors.push(format!("{bench}{p}: present in baseline, missing in fresh file"));
                    continue;
                };
                if CYCLE_KEYS.contains(&k.as_str()) {
                    if let (Some(b), Some(f)) = (bv.as_int(), fv.as_int()) {
                        let budget = tol.for_metric(k);
                        let drift = (f - b).abs() as f64;
                        if b > 0 && drift > budget * b as f64 {
                            errors.push(format!(
                                "{bench}{p}: metric '{k}' is {f} vs baseline {b} \
                                 (drift {:.1}% > {:.0}%)",
                                100.0 * drift / b as f64,
                                100.0 * budget
                            ));
                        }
                        continue;
                    }
                }
                compare(bv, fv, tol, bench, &p, errors);
            }
            if let Json::Obj(ff) = fresh {
                for (k, _) in ff {
                    if path.is_empty() && SKIP_KEYS.contains(&k.as_str()) {
                        continue;
                    }
                    if base.get(k).is_none() {
                        errors.push(format!(
                            "{bench}{path}/{k}: present in fresh file, missing in baseline \
                             (regenerate the baseline)"
                        ));
                    }
                }
            }
        }
        (Json::Arr(bi), Json::Arr(fi)) => {
            if bi.len() != fi.len() {
                errors.push(format!("{bench}{path}: {} rows vs baseline {}", fi.len(), bi.len()));
                return;
            }
            for (i, (bv, fv)) in bi.iter().zip(fi.iter()).enumerate() {
                compare(bv, fv, tol, bench, &format!("{path}/{i}"), errors);
            }
        }
        // Scalars other than the gated cycle keys (floats, strings,
        // free-running counters) may drift freely.
        _ => {}
    }
}

/// Regenerates the committed baselines: one smoke run per bench binary,
/// written straight into `dir`.
fn update(dir: &str) -> Result<(), Vec<String>> {
    std::fs::create_dir_all(dir).map_err(|e| vec![format!("{dir}: create: {e}")])?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let mut errors = Vec::new();
    for bench in ["joiner", "spgemm", "system"] {
        let out = format!("{dir}/BENCH_{bench}.json");
        println!("bench_check: regenerating {out}");
        let status = std::process::Command::new(&cargo)
            .args(["run", "--release", "-q", "-p", "issr-bench", "--bin", bench, "--"])
            .args(["--smoke", "--json", &out])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => errors.push(format!("{bench} --smoke exited with {s}")),
            Err(e) => errors.push(format!("{bench} --smoke failed to spawn: {e}")),
        }
    }
    // The system binary writes a Chrome trace next to its envelope;
    // the baseline directory only keeps envelopes.
    let _ = std::fs::remove_file(format!("{dir}/BENCH_system.trace.json"));
    if errors.is_empty() {
        println!("bench_check: baselines updated in {dir}/");
        Ok(())
    } else {
        Err(errors)
    }
}

fn run() -> Result<(), Vec<String>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fallback_tol = 0.25f64;
    let mut dir = "baselines".to_owned();
    let mut do_update = false;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--tolerance" {
            let v = it.next().ok_or_else(|| vec!["--tolerance requires a value".to_owned()])?;
            fallback_tol = v.parse().map_err(|e| vec![format!("--tolerance {v}: {e}")])?;
        } else if a == "--dir" {
            let v = it.next().ok_or_else(|| vec!["--dir requires a value".to_owned()])?;
            dir = v.clone();
        } else if a == "--update" {
            do_update = true;
        } else {
            files.push(a.clone());
        }
    }
    if do_update {
        return update(&dir);
    }
    let [baseline_path, fresh_path] = files.as_slice() else {
        return Err(vec!["usage: bench_check <baseline.json> <fresh.json> [--tolerance 0.25] \
             | bench_check --update [--dir baselines]"
            .to_owned()]);
    };
    let baseline = load(baseline_path).map_err(|e| vec![e])?;
    let fresh = load(fresh_path).map_err(|e| vec![e])?;
    let mut errors = Vec::new();
    check_envelope(&baseline, baseline_path, &mut errors);
    check_envelope(&fresh, fresh_path, &mut errors);
    for key in ["bench", "mode"] {
        let b = baseline.get(key).and_then(Json::as_str);
        let f = fresh.get(key).and_then(Json::as_str);
        if b != f {
            errors.push(format!("{key} mismatch: baseline {b:?}, fresh {f:?}"));
        }
    }
    check_attribution(&fresh, fresh_path, &mut errors);
    check_attribution(&baseline, baseline_path, &mut errors);
    let bench = baseline.get("bench").and_then(Json::as_str).unwrap_or("?").to_owned();
    let tol = Tolerances::from_baseline(&baseline, fallback_tol);
    compare(&baseline, &fresh, &tol, &bench, "", &mut errors);
    if errors.is_empty() {
        println!(
            "bench_check: {fresh_path} ok against {baseline_path} ({} per-metric tolerance{}, \
             fallback {:.0}%)",
            tol.per_metric.len(),
            if tol.per_metric.len() == 1 { "" } else { "s" },
            100.0 * tol.fallback
        );
        Ok(())
    } else {
        Err(errors)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(errors) => {
            for e in &errors {
                eprintln!("bench_check: {e}");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(length: i64, elapsed: i64) -> Json {
        let text = format!(
            r#"{{"results": {{
                "verdict": {{"bound": "compute", "elapsed": {elapsed}}},
                "critical_path": {{"length": {length}, "compute": {length},
                                   "edges": {{"hart_lane": 0}}}}
            }}}}"#
        );
        Json::parse(&text).expect("valid JSON")
    }

    /// A path longer than its run fails; one up to the run's length
    /// passes.
    #[test]
    fn critical_path_may_not_outlast_the_run() {
        let mut errors = Vec::new();
        check_attribution(&envelope(14_851, 8_155), "fresh", &mut errors);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("exceeds the run's elapsed"), "{errors:?}");
        for length in [7_901, 8_155] {
            let mut errors = Vec::new();
            check_attribution(&envelope(length, 8_155), "fresh", &mut errors);
            assert!(errors.is_empty(), "{errors:?}");
        }
    }
}
