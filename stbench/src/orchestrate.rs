//! `stbench run` and `stbench trace`: every workload in a fresh process
//! of its own (so `peak_rss_mb` is its own), the repetitions folded into
//! medians, and one JSON document with the facts it depends on.

use crate::facts::facts;
use crate::json::{self, Json};
use crate::spec::{Workload, RUN_SECONDS};
use crate::stats::{median, min_max, spread};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Metrics that vary with the machine; every other end-to-end metric is a
/// pure function of the seed and must repeat bit for bit.
pub const TIMING_METRICS: [&str; 4] = ["setup_s", "samples_per_s", "samples_per_s_wall", "peak_rss_mb"];

pub struct Options {
    pub seed: u64,
    pub reps: usize,
    pub smoke: bool,
    /// Where the document goes; default: `stbench-out/` beside the
    /// executable, inside the build directory.
    pub out: Option<PathBuf>,
}

fn out_dir() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().unwrap_or(Path::new(".")).join("stbench-out");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Runs one workload in a child process and returns its detail document.
fn child(
    w: Workload,
    opts: &Options,
    traced: bool,
    spans: Option<&Path>,
    scratch: &Path,
) -> io::Result<Json> {
    let detail = scratch.join(format!("detail.{}.{}.json", w.name(), std::process::id()));
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if traced {
        cmd.arg("--extras");
    }
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    // The child's own lines go straight to the terminal. Its exit status
    // says whether a check failed; the detail document says which.
    let status = cmd.status()?;
    let text = fs::read_to_string(&detail).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("{} wrote no result (exit status {status}): {e}", w.name()),
        )
    })?;
    let _ = fs::remove_file(&detail);
    json::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

fn number(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn strings(doc: &Json, key: &str) -> Vec<Json> {
    doc.get(key)
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default()
}

/// Folds the repetitions of one workload: timings to their median,
/// trajectory metrics checked for bit equality.
fn fold(w: Workload, reps: &[Json]) -> Json {
    let mut attempted = 0.0;
    let mut failed = 0.0;
    let mut failures = Vec::new();
    for rep in reps {
        attempted += number(rep, "attempted");
        failed += number(rep, "failed");
        failures.extend(strings(rep, "failures"));
    }
    let mut metrics = Vec::new();
    let first = reps[0].get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    for (name, entry) in first {
        let values: Vec<f64> = reps
            .iter()
            .filter_map(|rep| rep.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        if reps.len() > 1 && !TIMING_METRICS.contains(&name.as_str()) {
            attempted += 1.0;
            if values.len() != reps.len() || values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                failed += 1.0;
                failures.push(Json::str(format!(
                    "{name} differs between repetitions of one seed"
                )));
            }
        }
        let (min, max) = min_max(&values).unwrap_or((f64::NAN, f64::NAN));
        metrics.push((
            name.clone(),
            Json::obj([
                ("value", Json::Num(median(&values).unwrap_or(f64::NAN))),
                ("unit", entry.get("unit").cloned().unwrap_or(Json::Null)),
                ("reps", Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())),
                ("min", Json::Num(min)),
                ("max", Json::Num(max)),
                ("spread", Json::Num(spread(&values).unwrap_or(0.0))),
            ]),
        ));
    }
    Json::obj([
        ("name", Json::str(w.name())),
        ("why", Json::str(w.why())),
        ("threads", reps[0].get("threads").cloned().unwrap_or(Json::Null)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("failed_share", Json::Num(failed / attempted.max(1.0))),
        ("failures", Json::Arr(failures)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn print_workload(entry: &Json) {
    let name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
    for (metric, value) in entry.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        println!(
            "{name:<18} {metric:<44} {:>16.6} {}",
            number(value, "value"),
            value.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
    println!(
        "{name:<18} {:<44} {:>16.6} fraction  (ops_attempted {})",
        "failed_share",
        number(entry, "failed_share"),
        number(entry, "attempted")
    );
    for failure in strings(entry, "failures") {
        println!("{name:<18} FAILED: {}", failure.as_str().unwrap_or("?"));
    }
}

fn finish(kind: &str, opts: &Options, workloads: Vec<Json>, default_name: &str) -> io::Result<bool> {
    let failed: f64 = workloads.iter().map(|w| number(w, "failed")).sum();
    let root = std::env::current_dir()?;
    let doc = Json::obj([
        ("stbench", Json::str(kind)),
        ("seed", Json::Num(opts.seed as f64)),
        ("reps", Json::Num(opts.reps as f64)),
        ("smoke", Json::Bool(opts.smoke)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("facts", facts(&root)),
        ("workloads", Json::Arr(workloads)),
    ]);
    let path = match &opts.out {
        Some(path) => path.clone(),
        None => out_dir()?.join(default_name),
    };
    fs::write(&path, doc.pretty())?;
    println!("wrote {}", path.display());
    Ok(failed == 0.0)
}

/// `stbench run`: every workload untraced, `reps` times each. Returns
/// whether every check passed.
pub fn run(opts: &Options) -> io::Result<bool> {
    let scratch = out_dir()?;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut reps = Vec::new();
        for _ in 0..opts.reps {
            reps.push(child(w, opts, false, None, &scratch)?);
        }
        let entry = fold(w, &reps);
        print_workload(&entry);
        workloads.push(entry);
    }
    finish("run", opts, workloads, "run.json")
}

/// `stbench trace`: every workload traced once, with the comparison legs,
/// spans appended to `trace.jsonl` beside the document.
pub fn trace(opts: &Options) -> io::Result<bool> {
    let scratch = out_dir()?;
    let spans = match &opts.out {
        Some(path) => path.with_file_name("trace.jsonl"),
        None => scratch.join("trace.jsonl"),
    };
    fs::write(&spans, b"")?; // children append
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let detail = child(w, opts, true, Some(&spans), &scratch)?;
        let mut entry = match fold(w, std::slice::from_ref(&detail)) {
            Json::Obj(pairs) => pairs,
            _ => unreachable!("fold returns an object"),
        };
        for table in ["layers", "phases", "cells", "legs"] {
            if let Some(value) = detail.get(table) {
                entry.push((table.to_string(), value.clone()));
            }
        }
        let entry = Json::Obj(entry);
        print_workload(&entry);
        workloads.push(entry);
    }
    println!("wrote {}", spans.display());
    finish("trace", opts, workloads, "trace.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(throughput: f64, loss: f64) -> Json {
        let m = |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
        Json::obj([
            ("threads", Json::Num(1.0)),
            ("attempted", Json::Num(5.0)),
            ("failed", Json::Num(0.0)),
            ("failures", Json::Arr(vec![])),
            (
                "metrics",
                Json::obj([
                    ("samples_per_s", m(throughput, "samples/s")),
                    ("epoch_loss", m(loss, "nats")),
                ]),
            ),
        ])
    }

    #[test]
    fn repetitions_fold_to_medians_and_raw_values() {
        let entry = fold(
            Workload::AlexnetPruned,
            &[rep(170.0, 2.25), rep(168.0, 2.25), rep(175.0, 2.25)],
        );
        let throughput = entry.get("metrics").unwrap().get("samples_per_s").unwrap();
        assert_eq!(number(throughput, "value"), 170.0);
        assert_eq!(
            (number(throughput, "min"), number(throughput, "max")),
            (168.0, 175.0)
        );
        assert_eq!(throughput.get("reps").unwrap().as_arr().unwrap().len(), 3);
        // 15 child operations and one bit-equality check, none failed.
        assert_eq!(
            (number(&entry, "attempted"), number(&entry, "failed")),
            (16.0, 0.0)
        );
    }

    #[test]
    fn a_trajectory_metric_that_differs_between_repetitions_fails() {
        let entry = fold(
            Workload::AlexnetPruned,
            &[rep(170.0, 2.25), rep(170.0, 2.2500000001)],
        );
        assert_eq!(number(&entry, "failed"), 1.0);
        assert!(number(&entry, "failed_share") > 0.0);
        let failures = strings(&entry, "failures");
        assert!(failures[0].as_str().unwrap().contains("epoch_loss differs"));
    }
}
