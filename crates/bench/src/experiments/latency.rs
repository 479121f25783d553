//! Figs. 8 & 9: per-sample training latency and energy, SparseTrain vs the
//! dense baseline.
//!
//! For each model/dataset pair the harness trains briefly with the paper's
//! pruning configuration (so both natural and artificial sparsity are
//! present), captures a dataflow trace of one training step, then simulates
//! the trace on the SparseTrain machine and its densified-baseline
//! configuration.

use super::{warmed_up, Session};
use crate::profile::Profile;
use crate::table::{fmt, render};
use sparsetrain_nn::models::ModelKind;
use sparsetrain_sim::baseline::simulate_baseline;
use sparsetrain_sim::energy::EnergyBreakdown;
use sparsetrain_sim::{ArchConfig, Machine};

/// One bar pair of Fig. 8 / Fig. 9.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// Model variant.
    pub model: ModelKind,
    /// Dataset proxy name.
    pub dataset: String,
    /// SparseTrain latency per sample (ms).
    pub sparse_ms: f64,
    /// Dense-baseline latency per sample (ms).
    pub dense_ms: f64,
    /// Speedup (dense / sparse).
    pub speedup: f64,
    /// SparseTrain energy breakdown per sample.
    pub sparse_energy: EnergyBreakdown,
    /// Baseline energy breakdown per sample.
    pub dense_energy: EnergyBreakdown,
    /// Energy-efficiency improvement (dense / sparse).
    pub energy_efficiency: f64,
}

/// Runs one model/dataset simulation pair.
pub fn run_pair(model: ModelKind, dataset_name: &str, profile: Profile) -> LatencyRow {
    let (mut trainer, train) = warmed_up(model, dataset_name, profile);

    // Average over several traced samples: Fig. 8 reports *average*
    // latency per sample, and per-sample sparsity varies.
    let cfg = ArchConfig::paper_default();
    let machine = Machine::new(cfg);
    let samples = 3usize;
    let mut sparse_reports = Vec::with_capacity(samples);
    let mut dense_reports = Vec::with_capacity(samples);
    for i in 0..samples {
        let trace = trainer.capture_trace_at(&train, i * 17, model.name(), dataset_name);
        sparse_reports.push(machine.simulate(&trace));
        dense_reports.push(simulate_baseline(&machine, &trace));
    }
    let sparse = sparsetrain_sim::SimReport::mean_of(&sparse_reports);
    let dense = sparsetrain_sim::SimReport::mean_of(&dense_reports);

    LatencyRow {
        model,
        dataset: dataset_name.to_string(),
        sparse_ms: sparse.latency_ms(cfg.clock_mhz),
        dense_ms: dense.latency_ms(cfg.clock_mhz),
        speedup: sparse.speedup_over(&dense),
        sparse_energy: sparse.energy,
        dense_energy: dense.energy,
        energy_efficiency: sparse.energy_efficiency_over(&dense),
    }
}

/// Runs the Fig. 8/9 grid.
pub fn run_grid(profile: Profile, models: &[ModelKind], datasets: &[&str]) -> Vec<LatencyRow> {
    let mut rows = Vec::new();
    for &model in models {
        for &dataset in datasets {
            rows.push(run_pair(model, dataset, profile));
        }
    }
    rows
}

/// Geometric mean of the speedups in `rows`.
pub fn mean_speedup(rows: &[LatencyRow]) -> f64 {
    geometric_mean(rows.iter().map(|r| r.speedup))
}

/// Geometric mean of the energy-efficiency improvements in `rows`.
pub fn mean_energy_efficiency(rows: &[LatencyRow]) -> f64 {
    geometric_mean(rows.iter().map(|r| r.energy_efficiency))
}

fn geometric_mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return 1.0;
    }
    (log_sum / n as f64).exp()
}

/// The line printed under the title: what the paper says.
pub(super) const PAPER_FIG8: &str = "paper: up to 4.5x speedup (AlexNet/CIFAR-10), ~2.7x average";

/// Prints Fig. 8: latency per sample of each model/dataset pair on both
/// machines, with speedups.
pub fn print_fig8(session: &mut Session) {
    println!("Fig. 8 reproduction ({:?} profile)", session.profile);
    println!("{PAPER_FIG8}\n");

    let rows = session.latency_grid();
    let mut out = vec![vec![
        "model".to_string(),
        "dataset".to_string(),
        "dense ms/sample".to_string(),
        "sparse ms/sample".to_string(),
        "speedup".to_string(),
    ]];
    for r in rows {
        out.push(vec![
            r.model.name().to_string(),
            r.dataset.clone(),
            fmt(r.dense_ms, 3),
            fmt(r.sparse_ms, 3),
            format!("{}x", fmt(r.speedup, 2)),
        ]);
    }
    println!("{}", render(&out));
    println!("geometric-mean speedup: {}x", fmt(mean_speedup(rows), 2));
}

/// The line printed under the title: what the paper says.
pub(super) const PAPER_FIG9: &str = "paper: baseline SRAM share 62-71%; SparseTrain cuts SRAM 30-59%, comb 53-88%; 1.5-2.8x efficiency (avg 2.2x)";

/// Prints Fig. 9: energy per sample broken down into DRAM / SRAM /
/// register / combinational components, with efficiency ratios.
pub fn print_fig9(session: &mut Session) {
    println!(
        "Fig. 9 reproduction ({:?} profile) — energy in uJ/sample",
        session.profile
    );
    println!("{PAPER_FIG9}\n");

    let rows = session.latency_grid();
    let mut out = vec![vec![
        "model".to_string(),
        "dataset".to_string(),
        "arch".to_string(),
        "DRAM".to_string(),
        "SRAM".to_string(),
        "Reg".to_string(),
        "Comb".to_string(),
        "total".to_string(),
        "SRAM share".to_string(),
        "efficiency".to_string(),
    ]];
    let arch_row = |model: &str, dataset: &str, arch: &str, e: &EnergyBreakdown, efficiency: String| {
        vec![
            model.to_string(),
            dataset.to_string(),
            arch.to_string(),
            fmt(e.dram_pj / 1e6, 2),
            fmt(e.sram_pj / 1e6, 2),
            fmt(e.reg_pj / 1e6, 2),
            fmt(e.comb_pj / 1e6, 2),
            fmt(e.total_uj(), 2),
            format!("{}%", fmt(e.sram_share() * 100.0, 0)),
            efficiency,
        ]
    };
    for r in rows {
        out.push(arch_row(
            r.model.name(),
            &r.dataset,
            "baseline",
            &r.dense_energy,
            "1.00x".into(),
        ));
        out.push(arch_row(
            "",
            "",
            "sparsetrain",
            &r.sparse_energy,
            format!("{}x", fmt(r.energy_efficiency, 2)),
        ));
    }
    println!("{}", render(&out));
    println!(
        "geometric-mean energy efficiency: {}x",
        fmt(mean_energy_efficiency(rows), 2)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(std::iter::empty()), 1.0);
    }

    #[test]
    fn pair_produces_speedup_above_one() {
        let row = run_pair(ModelKind::Alexnet, "cifar10", Profile::Quick);
        assert!(
            row.speedup > 1.0,
            "SparseTrain should beat the dense baseline, got {}",
            row.speedup
        );
        assert!(row.energy_efficiency > 1.0);
        assert!(row.sparse_ms > 0.0 && row.dense_ms > 0.0);
    }
}
