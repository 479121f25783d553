//! Q-format fixed-point kernel engine mirroring the 16-bit RTL datapath.
//!
//! The paper's accelerator computes in 16-bit fixed point while the
//! reference training runs in float. [`FixedPointEngine`] models that
//! datapath at the engine seam: every operand entering a convolution stage
//! (activation/gradient rows, kernel taps, bias) is first rounded to the
//! engine's [`QFormat`], the row accumulation itself runs in `f32`
//! (modelling the hardware's wide accumulator), and the stage's result
//! tensor is rounded again on store — so outputs, input gradients and the
//! accumulated weight gradients all live on the 16-bit grid.
//!
//! Two consequences the tests pin down:
//!
//! * values already on the grid round-trip exactly, so a convolution whose
//!   inputs, taps and exact results are representable matches
//!   [`crate::engine::ScalarEngine`] bit for bit;
//! * otherwise the error per output is bounded by the accumulated
//!   per-term rounding (see `fixed_point_error_bounds` in the
//!   `engine_parity` suite).
//!
//! This is a *modelling* backend: it clones and quantizes its operands per
//! band call and makes no attempt at speed. It overrides
//! [`KernelEngine::band`] alone (per op: quantize the [`StageOp`]'s
//! operands, run the scalar reference band, round the store) and prepares
//! nothing ([`crate::engine::BandContext`] stays empty). A batch is the
//! trait's [`KernelEngine::run_batch`], so on a pool of more than one
//! worker it bands like every engine: the quantization is then repeated
//! per band, which costs speed only — the store rounding is per element,
//! so the result is the one-band result bit for bit — and a shared `dW`
//! is rounded after every sample. Select it by name (`"fixed"`) via the
//! [registry](crate::registry).

use crate::engine::{scalar_band, BandContext, KernelEngine, StageOp};
use crate::rowconv::SparseFeatureMap;
use sparsetrain_tensor::qformat::QFormat;
use sparsetrain_tensor::Tensor4;

/// Kernel engine that executes all three training stages on a 16-bit
/// Q-format grid (default Q8.8, the paper-typical activation format).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPointEngine {
    fmt: QFormat,
}

impl FixedPointEngine {
    /// Engine computing in the given 16-bit Q-format.
    pub const fn new(fmt: QFormat) -> Self {
        Self { fmt }
    }

    /// The paper-typical Q8.8 datapath.
    pub const fn q8_8() -> Self {
        Self::new(QFormat::q8_8())
    }

    /// The Q-format this engine computes in.
    pub const fn format(&self) -> QFormat {
        self.fmt
    }

    fn quantize_map(&self, fm: &SparseFeatureMap) -> SparseFeatureMap {
        fm.map_values(|v| self.fmt.roundtrip(v))
    }

    fn quantize_weights(&self, weights: &Tensor4) -> Tensor4 {
        let mut q = weights.clone();
        self.fmt.roundtrip_slice(q.as_mut_slice());
        q
    }
}

impl Default for FixedPointEngine {
    fn default() -> Self {
        Self::q8_8()
    }
}

impl KernelEngine for FixedPointEngine {
    fn band(&self, _ctxs: &[BandContext], ops: &[StageOp<'_>], lo: usize, out: &mut [f32]) {
        for op in ops {
            self.quantized_band(op, lo, out);
        }
    }
}

impl FixedPointEngine {
    /// One op's band: operands rounded, scalar reference, store rounded.
    fn quantized_band(&self, op: &StageOp<'_>, lo: usize, out: &mut [f32]) {
        match *op {
            StageOp::Forward {
                input,
                weights,
                bias,
                geom,
            } => {
                let q_input = self.quantize_map(input);
                let q_weights = self.quantize_weights(weights);
                let q_bias = bias.map(|b| b.iter().map(|&v| self.fmt.roundtrip(v)).collect::<Vec<f32>>());
                let q_op = StageOp::Forward {
                    input: &q_input,
                    weights: &q_weights,
                    bias: q_bias.as_deref(),
                    geom,
                };
                scalar_band(&q_op, lo, out);
            }
            StageOp::InputGrad {
                dout,
                weights,
                geom,
                masks,
                in_h,
                in_w,
            } => {
                let q_dout = self.quantize_map(dout);
                let q_weights = self.quantize_weights(weights);
                let q_op = StageOp::InputGrad {
                    dout: &q_dout,
                    weights: &q_weights,
                    geom,
                    masks,
                    in_h,
                    in_w,
                };
                scalar_band(&q_op, lo, out);
            }
            StageOp::WeightGrad { input, dout, geom } => {
                let q_input = self.quantize_map(input);
                let q_dout = self.quantize_map(dout);
                let q_op = StageOp::WeightGrad {
                    input: &q_input,
                    dout: &q_dout,
                    geom,
                };
                scalar_band(&q_op, lo, out);
            }
        }
        // The store is rounded after every op. For GTW that means after
        // every sample of a batch (`band` runs this in sample order on the
        // shared `dW`), modelling a Q-format gradient accumulator memory.
        self.fmt.roundtrip_slice(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScalarEngine;
    use sparsetrain_tensor::conv::ConvGeometry;
    use sparsetrain_tensor::Tensor3;

    fn forward<'a>(
        input: &'a SparseFeatureMap,
        weights: &'a Tensor4,
        bias: Option<&'a [f32]>,
        geom: ConvGeometry,
    ) -> StageOp<'a> {
        StageOp::Forward {
            input,
            weights,
            bias,
            geom,
        }
    }

    /// A feature map whose values (multiples of 0.25) and whose products
    /// with 0.25-grid weights stay exactly representable in Q8.8.
    fn grid_map() -> SparseFeatureMap {
        SparseFeatureMap::from_tensor(&Tensor3::from_fn(2, 4, 4, |c, y, x| {
            if (c + y + x) % 2 == 0 {
                (y as f32 - x as f32) * 0.25 + c as f32 * 0.5
            } else {
                0.0
            }
        }))
    }

    fn grid_weights() -> Tensor4 {
        Tensor4::from_fn(3, 2, 3, 3, |f, c, u, v| {
            ((f + c + u + v) % 4) as f32 * 0.25 - 0.25
        })
    }

    #[test]
    fn exact_on_representable_values() {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = grid_map();
        let weights = grid_weights();
        let bias = [0.5f32, -0.25, 0.0];
        let op = forward(&input, &weights, Some(&bias), geom);
        assert_eq!(op.run_on(&FixedPointEngine::q8_8()), op.run_on(&ScalarEngine));
    }

    #[test]
    fn output_sits_on_the_q_grid() {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = SparseFeatureMap::from_tensor(&Tensor3::from_fn(2, 5, 5, |c, y, x| {
            ((c * 13 + y * 7 + x * 3) % 11) as f32 * 0.137 - 0.6
        }));
        let weights = Tensor4::from_fn(2, 2, 3, 3, |f, c, u, v| {
            ((f * 31 + c * 17 + u * 5 + v) % 9) as f32 * 0.211 - 0.8
        });
        let engine = FixedPointEngine::q8_8();
        let out = forward(&input, &weights, None, geom).run_on(&engine);
        let eps = engine.format().epsilon();
        for &v in &out {
            let steps = v / eps;
            assert_eq!(steps, steps.round(), "output {v} is off the Q8.8 grid");
        }
    }

    #[test]
    fn saturation_clamps_to_format_range() {
        let geom = ConvGeometry::unit();
        let input = SparseFeatureMap::from_tensor(&Tensor3::from_vec(1, 1, 2, vec![100.0, -100.0]));
        let weights = Tensor4::from_vec(1, 1, 1, 1, vec![100.0]);
        let engine = FixedPointEngine::q8_8();
        let out = forward(&input, &weights, None, geom).run_on(&engine);
        let eps = engine.format().epsilon();
        // The operands are representable but their product is far outside
        // the format's range; the 16-bit store saturates it (two's
        // complement: the negative rail reaches one epsilon further).
        assert_eq!(out, [engine.format().max_value(), i16::MIN as f32 * eps]);
    }

    #[test]
    fn format_is_configurable() {
        let coarse = FixedPointEngine::new(QFormat::new(4));
        assert_eq!(coarse.format().frac_bits(), 4);
        let geom = ConvGeometry::unit();
        let input = SparseFeatureMap::from_tensor(&Tensor3::from_vec(1, 1, 1, vec![0.51]));
        let weights = Tensor4::from_vec(1, 1, 1, 1, vec![1.0]);
        // Q11.4 rounds 0.51 to 0.5.
        let out = forward(&input, &weights, None, geom).run_on(&coarse);
        assert_eq!(out, [0.5]);
    }

    /// Banding repeats the quantization per band, but the store rounds per
    /// element, so every stage at any band count is the one-band result
    /// bit for bit — per-sample outputs and the shared `dW` alike.
    #[test]
    fn bands_leave_the_quantized_result_alone() {
        use crate::engine::test_fixtures::{batch_in_bands, fixtures, stage_ops};
        let geom = ConvGeometry::new(3, 1, 1);
        let engine = FixedPointEngine::q8_8();
        let samples: Vec<_> = (0..3).map(|s| fixtures(60 + s, 45, 4, geom)).collect();
        let weights = &samples[0].1;
        let masks: Vec<_> = samples.iter().map(|s| s.0.masks()).collect();
        for stage in 0..3 {
            let ops: Vec<StageOp<'_>> = samples
                .iter()
                .zip(&masks)
                .map(|((input, _, bias, dout), m)| {
                    stage_ops(input, weights, Some(bias), dout, m, geom)[stage]
                })
                .collect();
            let bits = |bands| -> Vec<u32> {
                let outs = batch_in_bands(&engine, &ops, bands);
                outs.concat().into_iter().map(f32::to_bits).collect()
            };
            let want = bits(1);
            assert!(want.iter().any(|&b| b != 0), "{} is all zeros", ops[0].stage());
            for bands in [1usize, 2, 3, 7] {
                assert_eq!(bits(bands), want, "{} at {bands} bands", ops[0].stage());
            }
        }
    }

    #[test]
    fn weight_grad_accumulator_stays_on_grid() {
        let geom = ConvGeometry::new(3, 1, 1);
        let engine = FixedPointEngine::q8_8();
        let input = grid_map();
        let dout = SparseFeatureMap::from_tensor(&Tensor3::from_fn(3, 4, 4, |c, y, x| {
            if (c + y * x) % 3 == 0 {
                0.375 - c as f32 * 0.125
            } else {
                0.0
            }
        }));
        let op = StageOp::WeightGrad {
            input: &input,
            dout: &dout,
            geom,
        };
        let mut dw = vec![0.0f32; op.out_len()];
        engine.run_batch(&[op, op], crate::engine::BatchOut::Shared(&mut dw), None);
        let eps = engine.format().epsilon();
        for &v in &dw {
            let steps = v / eps;
            assert_eq!(steps, steps.round(), "dW {v} is off the Q8.8 grid");
        }
        assert!(dw.iter().any(|&v| v != 0.0));
    }
}
