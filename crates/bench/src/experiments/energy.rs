//! Energy-model sensitivity sweep.
//!
//! The per-event energy table is the one calibrated degree of freedom of
//! the Fig. 9 reproduction (`docs/ARCHITECTURE.md`, *Substitutions*). This
//! sweep perturbs each constant ±50 % and reports how the
//! SparseTrain-vs-baseline efficiency ratio moves — demonstrating that the
//! paper's *conclusion* (SparseTrain is substantially more
//! energy-efficient) is robust to the calibration, even though absolute
//! energies are not.

use super::{warmed_up, Session};
use crate::table::{fmt, render};
use sparsetrain_nn::models::ModelKind;
use sparsetrain_sim::baseline::densified;
use sparsetrain_sim::energy::EnergyModel;
use sparsetrain_sim::machine::OperandFormat;
use sparsetrain_sim::{ArchConfig, Machine};

/// Prints both machines' energy and the efficiency ratio under each
/// perturbed energy table.
pub fn print(session: &mut Session) {
    let profile = session.profile;
    let (mut trainer, train) = warmed_up(ModelKind::Resnet18, "cifar10", profile);
    let trace = trainer.capture_trace(&train, "resnet18", "cifar10");
    let dense_trace = densified(&trace);
    let cfg = ArchConfig::paper_default();

    let base = EnergyModel::finfet_14nm();
    let scaled = |pick: fn(&mut EnergyModel) -> &mut f64, factor: f64| {
        let mut model = base;
        *pick(&mut model) *= factor;
        model
    };
    let variants: [(&str, EnergyModel); 9] = [
        ("calibrated", base),
        ("mac +50%", scaled(|m| &mut m.mac_pj, 1.5)),
        ("mac -50%", scaled(|m| &mut m.mac_pj, 0.5)),
        ("sram +50%", scaled(|m| &mut m.sram_pj, 1.5)),
        ("sram -50%", scaled(|m| &mut m.sram_pj, 0.5)),
        ("dram +50%", scaled(|m| &mut m.dram_pj, 1.5)),
        ("dram -50%", scaled(|m| &mut m.dram_pj, 0.5)),
        ("reg +50%", scaled(|m| &mut m.reg_pj, 1.5)),
        ("ctrl +50%", scaled(|m| &mut m.ctrl_pj, 1.5)),
    ];

    println!("Energy-model sensitivity (resnet18/cifar10 trace, {profile:?} profile)\n");
    let mut rows = vec![vec![
        "variant".to_string(),
        "baseline uJ".to_string(),
        "sparse uJ".to_string(),
        "baseline SRAM share".to_string(),
        "efficiency".to_string(),
    ]];
    for (name, model) in variants {
        let machine = Machine::with_energy(cfg, model);
        let sparse = machine.simulate(&trace);
        let dense = machine.simulate_with_format(&dense_trace, OperandFormat::Raw);
        rows.push(vec![
            name.to_string(),
            fmt(dense.energy.total_uj(), 1),
            fmt(sparse.energy.total_uj(), 1),
            format!("{}%", fmt(dense.energy.sram_share() * 100.0, 0)),
            format!("{}x", fmt(sparse.energy_efficiency_over(&dense), 2)),
        ]);
    }
    println!("{}", render(&rows));
    println!("expected shape: efficiency stays well above 1x under every perturbation");
}
