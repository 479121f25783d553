//! The guarantee matrix (`sparsetrain_bench::chaos`): every named row
//! trains and must hold its expectations and match its model's reference
//! bit for bit — parameters, the whole `.stck` state and the metric jsonl.
//! `docs/DETERMINISM.md` names the rows that prove each axis of the
//! guarantee; this suite keeps the two lists equal.
//!
//! Every run holds its own fault plan, so the rows run side by side:
//! `every_row_holds` deals them to one thread per available core (never
//! more than there are rows). CI runs the suite in release at
//! `RAYON_NUM_THREADS` 1 and 4 with eight test threads.

use sparsetrain_bench::chaos::{self, ScenarioOutcome};
use sparsetrain_nn::models;
use sparsetrain_nn::train::{TrainConfig, Trainer};
use sparsetrain_sparse::registry;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn every_row_holds() {
    let rows = chaos::rows(42);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let run_rows = || -> Vec<(usize, ScenarioOutcome)> {
        let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < rows.len());
        std::iter::from_fn(claim)
            .map(|i| (i, chaos::scenario(&rows[i])))
            .collect()
    };
    let mut outcomes: Vec<(usize, ScenarioOutcome)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..cores.min(rows.len())).map(|_| s.spawn(run_rows)).collect();
        threads.into_iter().flat_map(|t| t.join().unwrap()).collect()
    });
    outcomes.sort_by_key(|&(i, _)| i);
    let mut failures = Vec::new();
    for (_, o) in &outcomes {
        eprintln!("{:<32} {:>6} ms  {}", o.name, o.elapsed_ms, o.detail);
        if !o.pass {
            failures.push(format!("{}: {}", o.name, o.detail));
        }
    }
    assert!(
        failures.is_empty(),
        "{} rows failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Each engine trains once in the matrix, under one of its names: every
/// registered name must resolve, by name, to an engine some row runs.
#[test]
fn every_registered_name_is_an_engine_a_row_runs() {
    let ran: BTreeSet<&str> = chaos::rows(42).iter().flat_map(chaos::Row::engines).collect();
    for &handle in registry::registry() {
        let trainer = Trainer::new(
            models::mini_cnn(3, 4, None),
            TrainConfig::quick().with_engine_name(handle.name()),
        );
        assert_eq!(trainer.engine_name(), handle.name());
        let runs = ran
            .iter()
            .any(|name| registry::lookup(name).unwrap().same_engine(handle));
        assert!(runs, "no row trains on the engine `{}` names", handle.name());
    }
}

/// The axis table of `docs/DETERMINISM.md` names, in its last column, the
/// rows that prove each axis: every name must be a row, and every row must
/// back some axis.
#[test]
fn determinism_doc_names_every_row_and_only_rows() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/DETERMINISM.md"))
        .expect("docs/DETERMINISM.md is readable");
    let table = doc
        .lines()
        .skip_while(|l| !l.starts_with("| Axis |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'));
    let mut named = BTreeSet::new();
    for line in table {
        let cells: Vec<&str> = line.trim_end_matches('|').split(" | ").collect();
        let rows = cells.last().expect("a table row has cells");
        named.extend(rows.split('`').skip(1).step_by(2).map(str::to_string));
    }
    assert!(
        !named.is_empty(),
        "no axis table with a rows column in docs/DETERMINISM.md"
    );
    let rows: BTreeSet<String> = chaos::rows(42).into_iter().map(|r| r.name).collect();
    let unknown: Vec<&String> = named.difference(&rows).collect();
    assert!(
        unknown.is_empty(),
        "DETERMINISM.md names rows that do not exist: {unknown:?}"
    );
    let unnamed: Vec<&String> = rows.difference(&named).collect();
    assert!(
        unnamed.is_empty(),
        "rows no axis of DETERMINISM.md names: {unnamed:?}"
    );
}
