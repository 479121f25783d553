//! The AlexNet-shape layer workloads of the engine bench: one layer table
//! and one seeded operand generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsetrain_sparse::mask::RowMask;
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::{ExecutionContext, Stage, StageOp};
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::{Tensor3, Tensor4};

/// AlexNet-style layer shapes (channels, filters, spatial size) at the
/// width the paper's Table I evaluates, with representative densities for
/// the input activations and pruned output gradients. `conv1` is the
/// dense early layer (near-dense raw-image input, wide rows); sparsity
/// grows and rows shrink down the stack.
pub const LAYERS: [(&str, usize, usize, usize, f64, f64); 4] = [
    ("conv1_3x64x32", 3, 64, 32, 0.95, 0.25),
    ("conv2_64x128x16", 64, 128, 16, 0.45, 0.15),
    ("conv3_128x192x8", 128, 192, 8, 0.35, 0.10),
    ("conv4_192x192x8", 192, 192, 8, 0.30, 0.05),
];

/// One layer's deterministic operands.
pub struct LayerFixture {
    /// Input activations, compressed.
    pub input: SparseFeatureMap,
    /// The non-zero masks of `input` (what GTA skips by).
    pub masks: Vec<RowMask>,
    /// Output-activation gradients, compressed.
    pub dout: SparseFeatureMap,
    /// Dense 3×3 weights.
    pub weights: Tensor4,
    /// One bias per filter.
    pub bias: Vec<f32>,
    /// 3×3, stride 1, pad 1.
    pub geom: ConvGeometry,
}

/// The operands of a `c`-channel, `f`-filter, `hw`×`hw` layer at the given
/// densities, drawn from `seed`.
pub fn fixture_seeded(
    c: usize,
    f: usize,
    hw: usize,
    in_density: f64,
    dout_density: f64,
    seed: u64,
) -> LayerFixture {
    let geom = ConvGeometry::new(3, 1, 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let sparse = |rng: &mut StdRng, density: f64| {
        if rng.gen::<f64>() < density {
            rng.gen::<f32>() - 0.5
        } else {
            0.0
        }
    };
    let input = Tensor3::from_fn(c, hw, hw, |_, _, _| sparse(&mut rng, in_density));
    let dout = Tensor3::from_fn(f, hw, hw, |_, _, _| sparse(&mut rng, dout_density));
    let weights = Tensor4::from_fn(f, c, 3, 3, |_, _, _, _| rng.gen::<f32>() - 0.5);
    let bias: Vec<f32> = (0..f).map(|_| rng.gen::<f32>() - 0.5).collect();
    let input = SparseFeatureMap::from_tensor(&input);
    LayerFixture {
        masks: input.masks(),
        input,
        dout: SparseFeatureMap::from_tensor(&dout),
        weights,
        bias,
        geom,
    }
}

/// [`fixture_seeded`] at the seed every single-sample leg uses.
pub fn fixture(c: usize, f: usize, hw: usize, in_density: f64, dout_density: f64) -> LayerFixture {
    fixture_seeded(c, f, hw, in_density, dout_density, 42)
}

impl LayerFixture {
    /// The layer's single-sample op of `stage`, as the engine seam runs it.
    pub fn op(&self, stage: Stage) -> StageOp<'_> {
        match stage {
            Stage::Forward => StageOp::Forward {
                input: &self.input,
                weights: &self.weights,
                bias: Some(&self.bias),
                geom: self.geom,
            },
            Stage::InputGrad => StageOp::InputGrad {
                dout: &self.dout,
                weights: &self.weights,
                geom: self.geom,
                masks: &self.masks,
                in_h: self.input.height(),
                in_w: self.input.width(),
            },
            Stage::WeightGrad => StageOp::WeightGrad {
                input: &self.input,
                dout: &self.dout,
                geom: self.geom,
            },
        }
    }

    /// One training step of the layer — Forward, GTA, GTW on a batch of
    /// one — through `ctx`'s per-layer entry points, as `layer`. Returns
    /// the three results.
    pub fn train_step(
        &self,
        ctx: &mut ExecutionContext,
        layer: &str,
    ) -> (Vec<Tensor3>, Vec<Tensor3>, Tensor4) {
        use std::slice::from_ref;
        let (input, dout, geom) = (from_ref(&self.input), from_ref(&self.dout), self.geom);
        let out = ctx.forward_batch_for(layer, input, &self.weights, Some(&self.bias), geom);
        let (c, h, w) = (self.input.channels(), self.input.height(), self.input.width());
        let mut dins = vec![Tensor3::zeros(c, h, w)];
        ctx.input_grad_batch_for_into(layer, dout, &self.weights, geom, from_ref(&self.masks), &mut dins);
        let mut dw = Tensor4::zeros(self.dout.channels(), c, geom.kernel, geom.kernel);
        ctx.weight_grad_batch_for(layer, input, dout, geom, &mut dw);
        (out, dins, dw)
    }
}
