//! End-to-end compile pipeline: train → capture → compile, with the
//! program checked against the one enumeration of the §IV row operations
//! (`sparse::ops`) that the scalar engine runs and the simulator walks.

use sparsetrain::core::dataflow::{compile, ConvLayerTrace, LayerTrace, NetworkTrace};
use sparsetrain::core::prune::PruneConfig;
use sparsetrain::nn::data::SyntheticSpec;
use sparsetrain::nn::models;
use sparsetrain::nn::train::{TrainConfig, Trainer};
use sparsetrain::sparse::ops::{for_each_forward_op, for_each_gta_op, for_each_gtw_op, OpAt};
use sparsetrain::sparse::rowconv::SparseFeatureMap;
use sparsetrain::sparse::Stage;
use sparsetrain::tensor::conv::ConvGeometry;
use sparsetrain::tensor::Tensor3;
use std::ops::Range;

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
        .filter(|i| i.step == Stage::InputGrad)
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
            conv.forward_ops(|_, _| visited += 1);
            conv.gta_ops(|_, _| visited += 1);
            conv.gtw_ops(|_, _| visited += 1);
        }
    }
    assert_eq!(program.len(), visited);

    // OSRC streams both operands: every GTW instruction has a second stream.
    for instr in program.instrs.iter().filter(|i| i.step == Stage::WeightGrad) {
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

/// A `6 × 9 × 10` input and a 7-filter `dout` at about `pct` % density,
/// with one row of each emptied.
fn random_layer(stride: usize, pct: u64, seed: u64) -> ConvLayerTrace {
    let geom = ConvGeometry::new(3, stride, 1);
    let mut s = seed;
    let mut map = |c: usize, h: usize, w: usize| {
        let mut t = Tensor3::from_fn(c, h, w, |_, _, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s % 100 < pct {
                (s % 1000) as f32 / 500.0 - 1.001
            } else {
                0.0
            }
        });
        let row = (c % 3, h / 4);
        (0..w).for_each(|x| t.set(row.0, row.1, x, 0.0));
        t
    };
    let input = SparseFeatureMap::from_tensor(&map(6, 9, 10));
    let dout = SparseFeatureMap::from_tensor(&map(7, geom.output_extent(9), geom.output_extent(10)));
    ConvLayerTrace {
        name: "random".into(),
        geom,
        filters: 7,
        input_masks: input.masks(),
        input,
        dout,
        needs_input_grad: true,
    }
}

/// `(task, coordinates)` of every op of `stage` over `units`, each task
/// checked to be the index of its output row (GTW: `dW` kernel row) in the
/// stage's whole output, the id the scalar engine writes by.
fn visited(conv: &ConvLayerTrace, stage: Stage, units: Range<usize>) -> Vec<(usize, OpAt)> {
    let (geom, c, h, oh) = (
        conv.geom,
        conv.input.channels(),
        conv.input.height(),
        conv.dout.height(),
    );
    let mut ops = Vec::new();
    let mut push = |task: usize, at: OpAt, row: usize| {
        assert_eq!(task, row, "{stage}: task of {at:?}");
        ops.push((task, at));
    };
    match stage {
        Stage::Forward => for_each_forward_op(&conv.input, geom, units, |t, op| {
            push(t, op.at, op.at.fi * oh + op.at.row)
        }),
        Stage::InputGrad => for_each_gta_op(&conv.dout, &conv.input_masks, geom, h, units, |t, op| {
            push(t, op.at, op.at.ci * h + op.at.row)
        }),
        Stage::WeightGrad => for_each_gtw_op(&conv.input, &conv.dout, geom, units, |t, op| {
            push(t, op.at, (op.at.fi * c + op.at.ci) * geom.kernel + op.at.u)
        }),
    }
    ops
}

/// The shared enumeration covers every op exactly once at any band split:
/// per stage, at strides 1 and 2, on random operands with empty rows and
/// empty masks, the ops of the whole unit range are the concatenated ops
/// of a 1-, 2- and 5-band split, as the same `(task, coordinates)`
/// sequence; their count is `compile`'s instruction count for the stage;
/// and within a GTA task `(fi, oy)` strictly increases, the order the
/// scalar engine's bits rest on.
#[test]
fn one_enumeration_covers_every_op_once_at_any_band_split() {
    let mut empty_masks = 0;
    for stride in [1usize, 2] {
        for (pct, seed) in [(0u64, 1u64), (10, 2), (40, 3), (100, 4)] {
            let conv = random_layer(stride, pct, seed);
            empty_masks += conv.input_masks.iter().filter(|m| m.count() == 0).count();
            let mut net = NetworkTrace::new("random", "synthetic");
            net.layers.push(LayerTrace::Conv(conv.clone()));
            let instrs = compile(&net).instrs_per_step();
            for stage in Stage::ALL {
                let ctx = format!("{stage} at stride {stride}, {pct} % dense");
                let units = if stage == Stage::InputGrad {
                    conv.input.channels()
                } else {
                    conv.filters
                };
                let whole = visited(&conv, stage, 0..units);
                assert_eq!(whole.len(), instrs[stage as usize], "{ctx}: compile's count");
                assert_eq!(whole.is_empty(), pct == 0, "{ctx}");
                for bands in [1usize, 2, 5] {
                    let per = units.div_ceil(bands);
                    let split: Vec<_> = (0..units)
                        .step_by(per)
                        .flat_map(|lo| visited(&conv, stage, lo..units.min(lo + per)))
                        .collect();
                    assert_eq!(split, whole, "{ctx}, {bands} bands");
                }
                if stage == Stage::InputGrad {
                    let g = conv.geom;
                    let fi_oy = |at: OpAt| (at.fi, (at.row + g.pad - at.u) / g.stride);
                    for pair in whole.windows(2).filter(|pair| pair[0].0 == pair[1].0) {
                        assert!(fi_oy(pair[0].1) < fi_oy(pair[1].1), "{ctx}: {pair:?}");
                    }
                }
            }
        }
    }
    assert!(empty_masks > 0, "no fully empty mask exercised");
}

/// GTA at strides 1 and 2 visits exactly what a brute-force scan finds, in
/// its order: for each `(ci, iy)` with a non-empty mask, each non-empty
/// gradient row `(fi, oy)` and kernel row `u` with `oy·s − pad + u = iy`.
#[test]
fn gta_enumeration_is_the_brute_force_scan() {
    for stride in [1usize, 2] {
        let conv = random_layer(stride, 30, 5);
        let (g, h) = (conv.geom, conv.input.height());
        let mut want = Vec::new();
        for ci in 0..conv.input.channels() {
            for iy in (0..h).filter(|&iy| conv.input_masks[ci * h + iy].count() > 0) {
                for fi in 0..conv.filters {
                    for oy in (0..conv.dout.height()).filter(|&oy| conv.dout.row(fi, oy).nnz() > 0) {
                        for u in (0..g.kernel).filter(|&u| oy * g.stride + u == iy + g.pad) {
                            want.push((ci * h + iy, OpAt { fi, ci, u, row: iy }));
                        }
                    }
                }
            }
        }
        let got = visited(&conv, Stage::InputGrad, 0..conv.input.channels());
        assert!(!want.is_empty());
        assert_eq!(got, want, "stride {stride}");
    }
}
