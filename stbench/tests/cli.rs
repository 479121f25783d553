//! Drives the built binary: the smoke size through `run`, `trace` and
//! `compare`, the result line the driver reads, and the typed CLI errors.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Mutex;

/// Tests that run workloads take turns: each checks what its own child
/// processes leave behind in the shared build directory.
static WORKLOADS_RUNNING: Mutex<()> = Mutex::new(());

const EXE: &str = env!("CARGO_BIN_EXE_stbench");
const WORKLOADS: [&str; 4] = [
    "alexnet_pruned",
    "resnet_pruned_mt",
    "resnet_dense_ref",
    "ops_shard_ckpt",
];

fn stbench(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("the built binary runs")
}

/// A scratch directory in the build directory, beside the binary.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(EXE)
        .parent()
        .expect("the binary sits in a directory")
        .join(format!("stbench-test-{}-{name}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_doc(path: &Path) -> Json {
    json::parse(&fs::read_to_string(path).unwrap()).unwrap()
}

#[test]
fn smoke_size_drives_every_workload_through_run_trace_and_compare() {
    let _turn = WORKLOADS_RUNNING.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("smoke");
    let run_doc = dir.join("run.json");
    let trace_doc = dir.join("trace.json");

    let run = stbench(&[
        "run",
        "--seed",
        "1",
        "--reps",
        "2",
        "--smoke",
        "--out",
        run_doc.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stdout));
    let doc = read_doc(&run_doc);
    assert_eq!(doc.get("reps").and_then(Json::as_f64), Some(2.0));
    for key in [
        "nproc",
        "avx2",
        "fma",
        "rustc",
        "git_commit",
        "workspace_loc",
        "workspace_pub_items",
    ] {
        assert!(doc.get("facts").unwrap().get(key).is_some(), "facts.{key}");
    }
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(
        workloads
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect::<Vec<_>>(),
        WORKLOADS
    );
    for w in workloads {
        assert_eq!(w.get("failed").and_then(Json::as_f64), Some(0.0), "{w}");
        assert!(w.get("threads").and_then(Json::as_f64).unwrap() >= 1.0);
        let metrics = w.get("metrics").unwrap();
        // (`grad_density` needs the prune FIFOs full: four steps, more than
        // the smoke size trains on the sharded coordinator.)
        for name in [
            "setup_s",
            "samples_per_s",
            "epoch_loss",
            "eval_acc",
            "sim_speedup",
            "sim_energy_eff",
            "peak_rss_mb",
        ] {
            let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing: {w}"));
            assert_eq!(m.get("reps").and_then(Json::as_arr).unwrap().len(), 2);
            assert!(m.get("value").and_then(Json::as_f64).unwrap() > 0.0, "{name}");
            assert!(m.get("unit").and_then(Json::as_str).is_some());
        }
    }

    let trace = stbench(&[
        "trace",
        "--seed",
        "1",
        "--smoke",
        "--out",
        trace_doc.to_str().unwrap(),
    ]);
    assert!(
        trace.status.success(),
        "{}",
        String::from_utf8_lossy(&trace.stdout)
    );
    let doc = read_doc(&trace_doc);
    for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
        assert_eq!(w.get("failed").and_then(Json::as_f64), Some(0.0), "{w}");
        for table in ["layers", "phases", "cells", "legs"] {
            assert!(w.get(table).is_some(), "{table}");
        }
        let metrics = w.get("metrics").unwrap();
        for name in [
            "nn.trainer.unattributed_share",
            "nn.trainer.trace_overhead_share",
            "sim.fwd.cycles",
        ] {
            assert!(metrics.get(name).is_some(), "{name}");
        }
    }
    let spans = fs::read_to_string(dir.join("trace.jsonl")).unwrap();
    for name in WORKLOADS {
        assert!(
            spans.contains(&format!("\"workload\":\"{name}\"")),
            "{name} has no spans"
        );
    }
    let first = json::parse(spans.lines().next().unwrap()).unwrap();
    for key in ["id", "name", "op", "start_ns", "end_ns", "parent", "step"] {
        assert!(first.get(key).is_some(), "span field {key}");
    }

    let same = stbench(&["compare", run_doc.to_str().unwrap(), run_doc.to_str().unwrap()]);
    assert!(same.status.success());
    assert!(String::from_utf8_lossy(&same.stdout).contains("0 worse"));

    // Every temporary checkpoint directory is gone again.
    let tmp = Path::new(EXE).parent().unwrap().join("stbench-tmp");
    let left: Vec<_> = fs::read_dir(&tmp)
        .map(|d| d.flatten().collect())
        .unwrap_or_default();
    assert!(left.is_empty(), "left behind: {left:?}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let _turn = WORKLOADS_RUNNING.lock().unwrap_or_else(|e| e.into_inner());
    for (traced, some_metric) in [("0", "samples_per_s"), ("1", "nn.optim.step_ms")] {
        let out = stbench(&[
            "--workload",
            "ops_shard_ckpt",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            traced,
            "--smoke",
        ]);
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let line = json::parse(stdout.lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        let metric = line.get("metrics").unwrap().get(some_metric).unwrap();
        assert!(metric.get("value").and_then(Json::as_f64).is_some());
        assert!(metric.get("unit").and_then(Json::as_str).is_some());
    }
}

#[test]
fn bad_command_lines_exit_2_and_list_what_is_valid() {
    let cases: [(&[&str], &str); 4] = [
        (&["bench"], "run, trace, compare, manifest"),
        (
            &[
                "--workload",
                "alexnet",
                "--seed",
                "1",
                "--seconds",
                "12",
                "--trace",
                "0",
            ],
            "alexnet_pruned, resnet_pruned_mt, resnet_dense_ref, ops_shard_ckpt",
        ),
        (&["run", "--seed", "-3"], "unsigned 64-bit integer"),
        (&[], "run, trace, compare, manifest"),
    ];
    for (args, expected) in cases {
        let out = stbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
    let missing = stbench(&["compare", "no-such-a.json", "no-such-b.json"]);
    assert_eq!(missing.status.code(), Some(1));
}

#[test]
fn manifest_subcommand_prints_valid_json() {
    let out = stbench(&["manifest"]);
    assert!(out.status.success());
    let doc = json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}
