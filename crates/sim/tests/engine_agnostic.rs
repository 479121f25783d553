//! Cycle accounting is engine-agnostic.
//!
//! The machine costs a captured trace through the op enumeration in
//! `sparsetrain_core::dataflow::ops` and the analytic work model — never
//! through the numeric kernels. Executing the same trace on different
//! kernel engines must therefore (a) produce bitwise-identical numerics
//! (the engine parity contract) and (b) leave every simulated quantity
//! untouched.

use sparsetrain_core::dataflow::{execute_conv, ConvLayerTrace, LayerTrace, NetworkTrace};
use sparsetrain_sim::{ArchConfig, Machine};
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::{registry, ExecutionContext};
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::{Tensor3, Tensor4};

fn conv_trace() -> ConvLayerTrace {
    let geom = ConvGeometry::new(3, 1, 1);
    let input = Tensor3::from_fn(3, 10, 10, |c, y, x| {
        if (c + 2 * y + 3 * x) % 3 == 0 {
            0.5 + (c + y + x) as f32 * 0.125
        } else {
            0.0
        }
    });
    let dout = Tensor3::from_fn(4, 10, 10, |c, y, x| {
        if (c + y * x) % 5 == 0 {
            0.25 - c as f32 * 0.0625
        } else {
            0.0
        }
    });
    let fm = SparseFeatureMap::from_tensor(&input);
    let masks = fm.masks();
    ConvLayerTrace {
        name: "conv".into(),
        geom,
        filters: 4,
        input: fm,
        input_masks: masks,
        dout: SparseFeatureMap::from_tensor(&dout),
        needs_input_grad: true,
    }
}

#[test]
fn simulation_identical_across_engines() {
    let conv = conv_trace();
    let weights = Tensor4::from_fn(4, 3, 3, 3, |f, c, u, v| {
        ((f * 31 + c * 13 + u * 5 + v) % 7) as f32 * 0.125 - 0.375
    });

    // Execute the trace numerics on scalar and on every other float engine
    // of the registry, or on the SPARSETRAIN_ENGINE override alone when it
    // is set (the fixed-point backends are intentionally not
    // bitwise-comparable).
    let scalar = execute_conv(&conv, &mut ExecutionContext::scalar(), &weights, None);
    let selected = match registry::env_override().expect("SPARSETRAIN_ENGINE must name a registered engine") {
        Some(handle) => vec![handle],
        None => registry::registry(),
    };
    for handle in selected.into_iter().filter(|h| !h.name().starts_with("fixed")) {
        let other = execute_conv(&conv, &mut ExecutionContext::new(handle), &weights, None);
        assert_eq!(scalar, other, "engine parity violated on {}", handle.name());
    }

    // The simulator consumes only the trace's op enumeration: one report,
    // no matter which engine computes the values.
    let mut net = NetworkTrace::new("m", "d");
    net.layers.push(LayerTrace::Conv(conv));
    let machine = Machine::new(ArchConfig::tiny());
    let a = machine.simulate(&net);
    let b = machine.simulate(&net);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.total_macs, b.total_macs);
    assert!(a.total_cycles > 0);

    // And the work model's MAC accounting is consistent with what an
    // engine actually computes: a dense-equivalent upper bound.
    assert!(a.total_macs <= net.dense_macs());
}
