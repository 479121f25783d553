//! Property tests of the trace text format: arbitrary traces round-trip
//! losslessly and the parser rejects corrupted input without panicking:
//! whatever it accepts passes `validate`.

use proptest::prelude::*;
use sparsetrain_core::dataflow::{trace_io, ConvLayerTrace, FcLayerTrace, LayerTrace, NetworkTrace};
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::Tensor3;

fn arb_feature_map(c: usize, h: usize, w: usize) -> impl Strategy<Value = SparseFeatureMap> {
    proptest::collection::vec(
        prop_oneof![
            55u32 => Just(0.0f32),
            45u32 => (-2.0f32..2.0).prop_filter("non-zero", |v| *v != 0.0),
        ],
        c * h * w,
    )
    .prop_map(move |data| SparseFeatureMap::from_tensor(&Tensor3::from_vec(c, h, w, data)))
}

fn arb_conv_layer() -> impl Strategy<Value = ConvLayerTrace> {
    (arb_feature_map(2, 5, 6), any::<bool>()).prop_map(|(input, needs_input_grad)| {
        let geom = ConvGeometry::new(3, 1, 1);
        let dout_dense = Tensor3::from_fn(
            3,
            5,
            6,
            |c, y, x| {
                if (c + 2 * y + x) % 3 == 0 {
                    0.75
                } else {
                    0.0
                }
            },
        );
        let input_masks = if needs_input_grad {
            input.masks()
        } else {
            Vec::new()
        };
        ConvLayerTrace {
            name: "pconv".into(),
            geom,
            filters: 3,
            input,
            input_masks,
            dout: SparseFeatureMap::from_tensor(&dout_dense),
            needs_input_grad,
        }
    })
}

fn arb_fc_layer() -> impl Strategy<Value = FcLayerTrace> {
    (1usize..64, 1usize..16, any::<bool>()).prop_map(|(inf, outf, nig)| FcLayerTrace {
        name: "pfc".into(),
        in_features: inf,
        out_features: outf,
        input_nnz: inf / 2,
        dout_nnz: outf,
        mask_nnz: inf / 2,
        needs_input_grad: nig,
    })
}

fn arb_trace() -> impl Strategy<Value = NetworkTrace> {
    proptest::collection::vec(
        prop_oneof![
            arb_conv_layer().prop_map(LayerTrace::Conv),
            arb_fc_layer().prop_map(LayerTrace::Fc),
        ],
        0..4,
    )
    .prop_map(|layers| {
        let mut t = NetworkTrace::new("prop-model", "prop-data");
        t.layers = layers;
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn roundtrip_is_lossless(trace in arb_trace()) {
        let text = trace_io::to_text(&trace);
        let parsed = trace_io::from_text(&text).expect("parse back");
        prop_assert_eq!(parsed.layers.len(), trace.layers.len());
        prop_assert_eq!(parsed.dense_macs(), trace.dense_macs());
        prop_assert!(parsed.validate().is_ok());
        // Second serialization is byte-identical (canonical form).
        prop_assert_eq!(trace_io::to_text(&parsed), text);
    }

    #[test]
    fn parser_never_panics_on_corruption(
        trace in arb_trace(),
        cut in 0usize..400,
        flip in 0usize..400,
        substitute in prop_oneof![Just(b'?'), Just(b'0'), Just(b'9')],
    ) {
        let mut text = trace_io::to_text(&trace);
        // Truncate somewhere.
        let cut = cut.min(text.len());
        text.truncate(cut);
        // Must return Err or Ok, not panic, and an Ok is a valid trace.
        if let Ok(parsed) = trace_io::from_text(&text) {
            prop_assert_eq!(parsed.validate(), Ok(()));
        }
        // Corrupt a byte (keep UTF-8 validity by using an ASCII substitute;
        // a digit can zero a kernel or stride or reshape a map).
        let mut bytes = text.into_bytes();
        if !bytes.is_empty() {
            let i = flip % bytes.len();
            bytes[i] = substitute;
        }
        if let Ok(Ok(parsed)) = String::from_utf8(bytes).map(|s| trace_io::from_text(&s)) {
            prop_assert_eq!(parsed.validate(), Ok(()));
        }
    }
}
