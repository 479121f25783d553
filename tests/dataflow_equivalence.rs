//! Cross-crate functional equivalence: the row-decomposed sparse dataflow
//! (what the accelerator executes) must compute exactly what the dense
//! reference convolutions (what the training framework executes) compute.

use proptest::prelude::*;
use sparsetrain::sparse::rowconv::SparseFeatureMap;
use sparsetrain::sparse::{RowMask, ScalarEngine, StageOp};
use sparsetrain::tensor::conv::{self, ConvGeometry};
use sparsetrain::tensor::{Tensor3, Tensor4};

fn close(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())))
}

fn arb_tensor3(c: usize, h: usize, w: usize, density: f64) -> impl Strategy<Value = Tensor3> {
    let zero_weight = ((1.0 - density) * 100.0) as u32;
    let nonzero_weight = (density * 100.0) as u32;
    proptest::collection::vec(
        prop_oneof![
            zero_weight => Just(0.0f32),
            nonzero_weight => (-2.0f32..2.0).prop_filter("non-zero", |v| *v != 0.0),
        ],
        c * h * w,
    )
    .prop_map(move |data| Tensor3::from_vec(c, h, w, data))
}

fn arb_weights(f: usize, c: usize, k: usize) -> impl Strategy<Value = Tensor4> {
    proptest::collection::vec(-1.0f32..1.0, f * c * k * k)
        .prop_map(move |data| Tensor4::from_vec(f, c, k, k, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forward_rows_equals_dense(
        input in arb_tensor3(2, 6, 6, 0.5),
        weights in arb_weights(3, 2, 3),
        stride in 1usize..3,
    ) {
        let geom = ConvGeometry::new(3, stride, 1);
        let want = conv::forward(&input, &weights, None, geom);
        let input = SparseFeatureMap::from_tensor(&input);
        let op = StageOp::Forward { input: &input, weights: &weights, bias: None, geom };
        prop_assert!(close(&op.run_on(&ScalarEngine), want.as_slice()));
    }

    #[test]
    fn input_grad_rows_equals_dense_masked(
        dout in arb_tensor3(3, 6, 6, 0.4),
        forward_input in arb_tensor3(2, 6, 6, 0.5),
        weights in arb_weights(3, 2, 3),
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let fm = SparseFeatureMap::from_tensor(&forward_input);
        let masks = fm.masks();
        let dout_fm = SparseFeatureMap::from_tensor(&dout);
        let op =
            StageOp::InputGrad { dout: &dout_fm, weights: &weights, geom, masks: &masks, in_h: 6, in_w: 6 };
        let mut want = conv::input_grad(&dout, &weights, geom, 6, 6);
        for c in 0..2 {
            for y in 0..6 {
                for x in 0..6 {
                    if forward_input.get(c, y, x) == 0.0 {
                        want.set(c, y, x, 0.0);
                    }
                }
            }
        }
        prop_assert!(close(&op.run_on(&ScalarEngine), want.as_slice()));
    }

    #[test]
    fn weight_grad_rows_equals_dense(
        input in arb_tensor3(2, 6, 6, 0.5),
        dout in arb_tensor3(2, 6, 6, 0.4),
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let want = conv::weight_grad(&input, &dout, geom);
        let (input, dout) = (SparseFeatureMap::from_tensor(&input), SparseFeatureMap::from_tensor(&dout));
        let op = StageOp::WeightGrad { input: &input, dout: &dout, geom };
        prop_assert!(close(&op.run_on(&ScalarEngine), want.as_slice()));
    }

    #[test]
    fn feature_map_roundtrip(input in arb_tensor3(3, 5, 7, 0.3)) {
        let fm = SparseFeatureMap::from_tensor(&input);
        prop_assert_eq!(fm.to_tensor(), input);
    }
}

#[test]
fn full_mask_is_identity_for_gta() {
    let geom = ConvGeometry::new(3, 1, 1);
    let dout = Tensor3::from_fn(2, 4, 4, |c, y, x| ((c + y + x) % 3) as f32 - 1.0);
    let weights = Tensor4::from_fn(2, 2, 3, 3, |f, c, u, v| ((f + c + u + v) % 5) as f32 * 0.2 - 0.4);
    let masks: Vec<RowMask> = (0..2 * 4).map(|_| RowMask::full(4)).collect();
    let dout_fm = SparseFeatureMap::from_tensor(&dout);
    let op = StageOp::InputGrad {
        dout: &dout_fm,
        weights: &weights,
        geom,
        masks: &masks,
        in_h: 4,
        in_w: 4,
    };
    let want = conv::input_grad(&dout, &weights, geom, 4, 4);
    assert!(close(&op.run_on(&ScalarEngine), want.as_slice()));
}
