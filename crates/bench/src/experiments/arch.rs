//! Architecture sweep — the paper's noted-but-unexplored direction ("a
//! larger buffer is beneficial to improving data-reuse and energy
//! efficiency, but it is beyond the considerations of this work", §VI).
//!
//! Sweeps PE count and buffer size on one captured trace and prints
//! latency/energy for SparseTrain and the baseline at each point.

use super::{warmed_up, Session};
use crate::table::{fmt, render};
use sparsetrain_nn::models::ModelKind;
use sparsetrain_sim::baseline::simulate_baseline;
use sparsetrain_sim::{ArchConfig, Machine};

/// Prints the PE-count sweep, then the buffer-size sweep.
pub fn print(session: &mut Session) {
    let profile = session.profile;
    let (mut trainer, train) = warmed_up(ModelKind::Resnet18, "cifar10", profile);
    let trace = trainer.capture_trace(&train, "resnet18", "cifar10");

    println!("Architecture sweep on resnet18/cifar10 trace ({profile:?} profile)\n");

    // --- PE-count sweep at the paper's buffer size.
    let mut rows = vec![vec![
        "PE groups".to_string(),
        "PEs".to_string(),
        "sparse ms".to_string(),
        "dense ms".to_string(),
        "speedup".to_string(),
    ]];
    for groups in [14usize, 28, 56, 112] {
        let cfg = ArchConfig {
            pe_groups: groups,
            ..ArchConfig::paper_default()
        };
        let machine = Machine::new(cfg);
        let sparse = machine.simulate(&trace);
        let dense = simulate_baseline(&machine, &trace);
        rows.push(vec![
            groups.to_string(),
            cfg.total_pes().to_string(),
            fmt(sparse.latency_ms(cfg.clock_mhz), 4),
            fmt(dense.latency_ms(cfg.clock_mhz), 4),
            format!("{}x", fmt(sparse.speedup_over(&dense), 2)),
        ]);
    }
    println!("{}", render(&rows));

    // --- Buffer-size sweep at the paper's PE count.
    let mut rows = vec![vec![
        "buffer KB".to_string(),
        "sparse ms".to_string(),
        "sparse uJ".to_string(),
        "dense uJ".to_string(),
        "efficiency".to_string(),
    ]];
    for kb in [48usize, 96, 192, 386, 772] {
        let cfg = ArchConfig {
            buffer_bytes: kb * 1024,
            ..ArchConfig::paper_default()
        };
        let machine = Machine::new(cfg);
        let sparse = machine.simulate(&trace);
        let dense = simulate_baseline(&machine, &trace);
        rows.push(vec![
            kb.to_string(),
            fmt(sparse.latency_ms(cfg.clock_mhz), 4),
            fmt(sparse.energy.total_uj(), 2),
            fmt(dense.energy.total_uj(), 2),
            format!("{}x", fmt(sparse.energy_efficiency_over(&dense), 2)),
        ]);
    }
    println!("{}", render(&rows));
    println!("expected shape: speedup roughly stable across PE count; small buffers spill to DRAM and hurt latency/energy");
}
