//! Drives the built `sparsetrain-bench` binary across the process
//! boundary: exit codes, and what goes to stdout and what to stderr. Only
//! the two experiments that are instant in a debug build run here; the
//! parser's rejections and the name table are unit-tested in the library.

use sparsetrain_bench::experiments::in_group;
use std::process::{Command, Output};

/// Runs the binary with `SPARSETRAIN_PROFILE` set to `profile` (empty
/// counts as unset).
fn bench_at(profile: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sparsetrain-bench"))
        .args(args)
        .env("SPARSETRAIN_PROFILE", profile)
        .output()
        .expect("the binary runs")
}

fn bench(args: &[&str]) -> Output {
    bench_at("", args)
}

#[test]
fn experiments_exit_zero_and_print_back_to_back_under_their_parent_titles() {
    let format = bench(&["sweep", "format"]);
    let fifo = bench(&["sweep", "fifo"]);
    let both = bench(&["sweep", "format", "fifo"]);
    assert!(format.status.success() && fifo.status.success() && both.status.success());
    assert!(format
        .stdout
        .starts_with(b"storage words per operand row, by format and gradient density\n"));
    assert!(fifo
        .stdout
        .starts_with(b"threshold-predictor sweep over 256 determined thresholds\n"));
    assert_eq!(both.stdout, [format.stdout, fifo.stdout].concat());
}

#[test]
fn unknown_names_exit_two_with_the_tables_names() {
    let names = |group| in_group(group).map(|e| e.name).collect::<Vec<_>>().join(", ");
    let cases = [
        (vec!["repro", "table3"], names("repro")),
        (vec!["sweep", "fig8"], names("sweep")),
        (vec!["multicore"], "repro, sweep, plan, chaos".to_string()),
        (vec![], "repro, sweep, plan, chaos".to_string()),
    ];
    for (args, listed) in cases {
        let out = bench(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(&listed), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: sparsetrain-bench"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_mistyped_profile_exits_two_before_anything_runs() {
    let out = bench_at("Full", &["repro", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("quick, full"));
}
