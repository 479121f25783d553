//! Drives the built `sparsetrain-bench` binary across the process
//! boundary: exit codes, what goes to stdout and what to stderr, and the
//! plan file `plan --emit` writes. Only the runs that are instant in a
//! debug build happen here; the parser's rejections and the name table are
//! unit-tested in the library.

use sparsetrain_bench::experiments::in_group;
use std::process::{Command, Output};

/// Runs the binary with `SPARSETRAIN_PROFILE` and `SPARSETRAIN_PLAN` unset
/// (empty counts as unset) unless `vars` set them.
fn bench_with(vars: &[(&str, &str)], args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sparsetrain-bench"))
        .args(args)
        .envs([("SPARSETRAIN_PROFILE", ""), ("SPARSETRAIN_PLAN", "")])
        .envs(vars.iter().copied())
        .output()
        .expect("the binary runs")
}

fn bench(args: &[&str]) -> Output {
    bench_with(&[], args)
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

/// `sweep format` is the production caller of `sparse::formats`; its five
/// density rows are pinned byte for byte (padding included).
#[test]
fn sweep_format_prints_the_pinned_density_rows() {
    let out = bench(&["sweep", "format"]);
    assert!(out.status.success());
    let rows = "\
1.00     32.0   40.0          34.0    33.0        dense       \n\
0.50     32.0   20.3          17.9    24.8        bitmap      \n\
0.25     32.0   10.3          9.9     14.7        bitmap      \n\
0.10     32.0   4.4           5.2     7.0         offset+value\n\
0.03     32.0   1.6           2.9     2.8         offset+value\n";
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(rows), "{stdout}");
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

/// Every engine's `run_batch` sizes its own bands from the pool, so the
/// plan `auto` freezes names the same engines on a pool of one as on a
/// pool of two: the emitted `STPLAN` files are byte-identical.
#[test]
fn the_emitted_plan_does_not_depend_on_the_pool_size() {
    let emit = |threads: &str| {
        let path =
            std::env::temp_dir().join(format!("sparsetrain-cli-plan-{}-{threads}", std::process::id()));
        let path_arg = path.to_str().expect("utf-8 temp path");
        let out = bench_with(&[("RAYON_NUM_THREADS", threads)], &["plan", "--emit", path_arg]);
        assert!(out.status.success(), "{threads} threads: {out:?}");
        let bytes = std::fs::read(&path).expect("the plan was written");
        std::fs::remove_file(&path).ok();
        bytes
    };
    assert_eq!(emit("1"), emit("2"));
}

#[test]
fn a_mistyped_profile_exits_two_before_anything_runs() {
    let out = bench_with(&[("SPARSETRAIN_PROFILE", "Full")], &["repro", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("quick, full"));
}
