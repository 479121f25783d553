//! Functional execution of captured layer traces on a kernel engine.
//!
//! The compiler ([`super::compiler`]) lowers a trace to instruction
//! *metadata*; this module runs the matching *numerics*: given a captured
//! [`ConvLayerTrace`] and the layer's weights, it executes the three
//! training stages through the engine resolved by an
//! [`ExecutionContext`] — the same accumulate-into-scratch hot paths the
//! training framework uses, with zero per-row heap allocation. It is the
//! bridge that lets a compiled program be validated end to end: identical
//! results on every float engine (scalar or parallel), identical op
//! enumeration for the simulator's engine-agnostic cycle accounting.

use super::trace::ConvLayerTrace;
use sparsetrain_sparse::ExecutionContext;
use sparsetrain_tensor::{Tensor3, Tensor4};

/// The numeric results of one conv layer's three training stages.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutedConv {
    /// Forward output (`F × Ho × Ow`).
    pub output: Tensor3,
    /// Input gradient (`C × H × W`), `None` when the layer does not need
    /// its input gradient (first layer).
    pub input_grad: Option<Tensor3>,
    /// Weight gradient (`F × C × K × K`).
    pub weight_grad: Tensor4,
}

/// Executes the Forward, GTA and GTW stages of a captured conv layer on
/// the context's resolved engine with the given `weights` and optional
/// `bias`.
///
/// The GTA stage fuses the trace's forward non-zero masks, exactly as the
/// accelerator (and `Conv2d`'s sparse-rows mode) does.
///
/// # Panics
///
/// Panics if `weights`/`bias` shapes are inconsistent with the trace.
pub fn execute_conv(
    trace: &ConvLayerTrace,
    ctx: &mut ExecutionContext,
    weights: &Tensor4,
    bias: Option<&[f32]>,
) -> ExecutedConv {
    assert_eq!(
        weights.shape(),
        (
            trace.filters,
            trace.input.channels(),
            trace.geom.kernel,
            trace.geom.kernel
        ),
        "weight shape inconsistent with trace"
    );
    // Batch-of-one planned calls: on a planned ("auto") context each stage
    // resolves its engine through the (layer, stage) plan cell keyed by the
    // trace's layer name; on any other context they are the plain
    // per-sample engine calls (the batched defaults execute sample order,
    // so the results are bitwise identical either way).
    let output = ctx
        .forward_batch_for(
            &trace.name,
            std::slice::from_ref(&trace.input),
            weights,
            bias,
            trace.geom,
        )
        .pop()
        .expect("batch of one");
    let input_grad = trace.needs_input_grad.then(|| {
        let mut dins = vec![Tensor3::zeros(
            trace.input.channels(),
            trace.input.height(),
            trace.input.width(),
        )];
        ctx.input_grad_batch_for_into(
            &trace.name,
            std::slice::from_ref(&trace.dout),
            weights,
            trace.geom,
            std::slice::from_ref(&trace.input_masks),
            &mut dins,
        );
        dins.pop().expect("batch of one")
    });
    let (f, c, k, _) = weights.shape();
    let mut weight_grad = Tensor4::zeros(f, c, k, k);
    ctx.weight_grad_batch_for(
        &trace.name,
        std::slice::from_ref(&trace.input),
        std::slice::from_ref(&trace.dout),
        trace.geom,
        &mut weight_grad,
    );
    ExecutedConv {
        output,
        input_grad,
        weight_grad,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetrain_sparse::rowconv::SparseFeatureMap;
    use sparsetrain_tensor::conv::ConvGeometry;

    fn trace() -> ConvLayerTrace {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = Tensor3::from_fn(2, 6, 6, |c, y, x| {
            if (c + y + x) % 3 == 0 {
                (c + y) as f32 * 0.5 - x as f32 * 0.25
            } else {
                0.0
            }
        });
        let dout = Tensor3::from_fn(3, 6, 6, |c, y, x| {
            if (c + y * x) % 4 == 0 {
                0.5 - c as f32 * 0.125
            } else {
                0.0
            }
        });
        let fm = SparseFeatureMap::from_tensor(&input);
        let masks = fm.masks();
        ConvLayerTrace {
            name: "t".into(),
            geom,
            filters: 3,
            input: fm,
            input_masks: masks,
            dout: SparseFeatureMap::from_tensor(&dout),
            needs_input_grad: true,
        }
    }

    fn weights() -> Tensor4 {
        Tensor4::from_fn(3, 2, 3, 3, |f, c, u, v| {
            ((f * 27 + c * 9 + u * 3 + v) % 5) as f32 * 0.25 - 0.5
        })
    }

    #[test]
    fn engines_agree_bitwise_on_trace_execution() {
        let t = trace();
        let w = weights();
        let bias = [0.25f32, -0.5, 0.0];
        let scalar = execute_conv(
            &t,
            &mut ExecutionContext::by_name("scalar").unwrap(),
            &w,
            Some(&bias),
        );
        let parallel = execute_conv(
            &t,
            &mut ExecutionContext::by_name("parallel").unwrap(),
            &w,
            Some(&bias),
        );
        assert_eq!(scalar, parallel);
    }

    #[test]
    fn planned_execution_decides_each_stage_and_matches_scalar() {
        let t = trace();
        let w = weights();
        let scalar = execute_conv(&t, &mut ExecutionContext::scalar(), &w, None);
        let mut auto = ExecutionContext::by_name("auto").unwrap();
        // First execution decides and freezes the plan; the second replays
        // it. Both must be bitwise equal to the scalar reference.
        let first = execute_conv(&t, &mut auto, &w, None);
        assert_eq!(scalar, first);
        let plan = auto.plan().expect("auto context is planned");
        assert_eq!(plan.len(), 3, "forward, GTA and GTW cells all frozen");
        let replayed = execute_conv(&t, &mut auto, &w, None);
        assert_eq!(scalar, replayed);
    }

    #[test]
    fn first_layer_skips_input_grad() {
        let mut t = trace();
        t.needs_input_grad = false;
        let out = execute_conv(&t, &mut ExecutionContext::scalar(), &weights(), None);
        assert!(out.input_grad.is_none());
        assert!(out.weight_grad.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn gta_respects_masks() {
        let t = trace();
        let out = execute_conv(&t, &mut ExecutionContext::scalar(), &weights(), None);
        let din = out.input_grad.expect("input grad");
        for c in 0..2 {
            for y in 0..6 {
                for x in 0..6 {
                    if !t.input_masks[c * 6 + y].contains(x) {
                        assert_eq!(din.get(c, y, x), 0.0, "masked position written");
                    }
                }
            }
        }
    }
}
