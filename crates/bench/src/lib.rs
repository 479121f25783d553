//! The paper's evaluation and the CI artifact tooling, behind one binary.
//!
//! `sparsetrain-bench repro <name>…` / `sweep <name>…` print the
//! experiments of [`experiments::EXPERIMENTS`]; each has a module here:
//!
//! | Paper artefact | Module | Command |
//! |---|---|---|
//! | Table I (data sparsity) | [`experiments::table1`] | `repro table1` |
//! | Table II (accuracy & density) | [`experiments::table2`] | `repro table2` |
//! | Fig. 8 (latency / speedup) | [`experiments::latency`] | `repro fig8` |
//! | Fig. 9 (energy breakdown) | [`experiments::latency`] | `repro fig9` |
//! | §VI-B convergence | [`experiments::convergence`] | `repro convergence` |
//! | §III gradient normality | [`experiments::distribution`] | `repro distribution` |
//! | §II weight-update share | [`experiments::update`] | `repro update` |
//! | §VI PE count / buffer size | [`experiments::arch`] | `sweep arch` |
//! | Fig. 9 energy-table sensitivity | [`experiments::energy`] | `sweep energy` |
//! | §III-B threshold predictor | [`experiments::fifo`] | `sweep fifo` |
//! | Compressed-row format (extension) | [`experiments::format`] | `sweep format` |
//! | Scheduling policy (extension) | [`experiments::sched`] | `sweep sched` |
//!
//! [`cli`] is the argument parser, [`profile`] the one scale switch
//! (`SPARSETRAIN_PROFILE`; the substitutions it scales are listed in
//! `docs/ARCHITECTURE.md`, *Substitutions*), [`fixtures`] the layer
//! operands of the engine bench, and [`chaos`] the guarantee matrix: the
//! named rows of `docs/DETERMINISM.md`, each held bit for bit to its
//! model's reference run, whose fault rows are the seeded crash/corruption
//! campaign behind `sparsetrain-bench chaos`. The one Criterion bench,
//! `benches/engine.rs`, times the kernel engines as a local tool;
//! wall-clock training numbers are `stbench`'s.

pub mod chaos;
pub mod cli;
pub mod experiments;
pub mod fixtures;
pub mod profile;
pub mod table;
