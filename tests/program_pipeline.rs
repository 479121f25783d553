//! End-to-end compile pipeline: train → capture → compile, with the
//! program checked against the §IV op visitors the simulator walks.

use sparsetrain::core::dataflow::{compile, ops, LayerTrace, StepKind};
use sparsetrain::core::prune::PruneConfig;
use sparsetrain::nn::data::SyntheticSpec;
use sparsetrain::nn::models;
use sparsetrain::nn::train::{TrainConfig, Trainer};

fn captured() -> sparsetrain::core::dataflow::NetworkTrace {
    let (train, _) = SyntheticSpec::tiny(3).generate();
    let net = models::mini_cnn(3, 6, Some(PruneConfig::paper_default()));
    let mut trainer = Trainer::new(net, TrainConfig::quick());
    // One epoch lands the net in the mid-training regime the paper targets.
    // The tiny synthetic task overfits to ~1e-4 loss within two epochs, at
    // which point the traced sample's activation gradients (~1e-7) are
    // pruned to all-zero rows and the GTA/GTW stages would vanish from the
    // compiled program.
    trainer.train_epoch(&train);
    trainer.capture_trace(&train, "mini", "tiny")
}

#[test]
fn compiled_program_covers_all_stages() {
    let trace = captured();
    let program = compile(&trace);
    let [fwd, gta, gtw] = program.instrs_per_step();
    assert!(
        fwd > 0 && gta > 0 && gtw > 0,
        "missing a stage: {fwd}/{gta}/{gtw}"
    );
    // conv1 is the first layer: its GTA is skipped, so GTA instructions
    // must all come from conv2.
    let gta_layers: std::collections::HashSet<u32> = program
        .instrs
        .iter()
        .filter(|i| i.step == StepKind::Gta)
        .map(|i| i.layer)
        .collect();
    assert!(
        !gta_layers.contains(&0),
        "first layer must not lower GTA instructions"
    );

    // One instruction per visited op: the count `core.dataflow.instrs`
    // reports is the work the simulator walks.
    let mut visited = 0usize;
    for layer in &trace.layers {
        if let LayerTrace::Conv(conv) = layer {
            ops::for_each_forward_op(conv, |_, _| visited += 1);
            ops::for_each_gta_op(conv, |_, _| visited += 1);
            ops::for_each_gtw_op(conv, |_, _| visited += 1);
        }
    }
    assert_eq!(program.len(), visited);

    // OSRC streams both operands: every GTW instruction has a second stream.
    for instr in program.instrs.iter().filter(|i| i.step == StepKind::Gtw) {
        assert!(instr.port2_nnz > 0, "OSRC without a second stream: {instr:?}");
    }
}

#[test]
fn program_scales_with_model_size() {
    let (train, _) = SyntheticSpec::tiny(2).generate();
    let sizes: Vec<usize> = [4usize, 8]
        .iter()
        .map(|&w| {
            let net = models::mini_cnn(2, w, None);
            let mut trainer = Trainer::new(net, TrainConfig::quick());
            trainer.train_epoch(&train);
            compile(&trainer.capture_trace(&train, "m", "d")).len()
        })
        .collect();
    assert!(
        sizes[1] > sizes[0],
        "wider model must compile to more instructions"
    );
}
