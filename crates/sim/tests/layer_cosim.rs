//! Layer-level co-simulation: executes every row operation of a real conv
//! layer trace on cycle-exact PE groups and checks the measured makespan
//! and totals against the analytic work model under the same schedule —
//! the end-to-end guarantee that the fast whole-network simulator computes
//! cycle-accurate numbers.

use sparsetrain_core::dataflow::ConvLayerTrace;
use sparsetrain_sim::group::{PeGroup, QueuedOp};
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::work::{msrc_work, osrc_work, src_work};
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::Tensor3;

fn make_trace(stride: usize) -> ConvLayerTrace {
    let geom = ConvGeometry::new(3, stride, 1);
    let input = Tensor3::from_fn(3, 8, 8, |c, y, x| {
        if (c * 7 + y * 3 + x) % 3 == 0 {
            ((c + y + x) as f32).sin() + 1.5
        } else {
            0.0
        }
    });
    let oh = geom.output_extent(8);
    let dout = Tensor3::from_fn(4, oh, oh, |c, y, x| {
        if (c + y * 5 + x * 2) % 4 == 0 {
            0.25 * ((c * y + x) as f32 + 1.0)
        } else {
            0.0
        }
    });
    let fm = SparseFeatureMap::from_tensor(&input);
    let masks = fm.masks();
    ConvLayerTrace {
        name: "cosim".into(),
        geom,
        filters: 4,
        input: fm,
        input_masks: masks,
        dout: SparseFeatureMap::from_tensor(&dout),
        needs_input_grad: true,
    }
}

/// Runs one stage on `pes` cycle-exact PEs with task-contiguous round-robin
/// assignment and returns `(measured makespan, predicted makespan)`.
fn cosim_stage(trace: &ConvLayerTrace, pes: usize, stage: &str) -> (u64, u64) {
    let mut group = PeGroup::new(pes, 11);
    let mut predicted = vec![0u64; pes];
    // Tasks are assigned round-robin; all ops of one task go to one PE
    // (the controller contract).
    match stage {
        "forward" => {
            trace.forward_ops(|task, op| {
                let pe = task % pes;
                predicted[pe] += src_work(op.input, op.geom).cycles;
                group.enqueue(pe, QueuedOp::Src(op));
            });
        }
        "gta" => {
            trace.gta_ops(|task, op| {
                let pe = task % pes;
                predicted[pe] += msrc_work(op.grad, op.geom, op.mask).cycles;
                group.enqueue(pe, QueuedOp::Msrc(op));
            });
        }
        "gtw" => {
            trace.gtw_ops(|task, op| {
                let pe = task % pes;
                predicted[pe] += osrc_work(op.input, op.grad, op.geom).cycles;
                group.enqueue(pe, QueuedOp::Osrc(op));
            });
        }
        other => panic!("unknown stage {other}"),
    }
    (group.run(), *predicted.iter().max().unwrap())
}

#[test]
fn forward_cosim_matches_work_model() {
    for stride in [1usize, 2] {
        let trace = make_trace(stride);
        for pes in [1usize, 3, 7] {
            let (measured, predicted) = cosim_stage(&trace, pes, "forward");
            assert_eq!(measured, predicted, "forward stride={stride} pes={pes}");
        }
    }
}

#[test]
fn gta_cosim_matches_work_model() {
    for stride in [1usize, 2] {
        let trace = make_trace(stride);
        for pes in [1usize, 3] {
            let (measured, predicted) = cosim_stage(&trace, pes, "gta");
            assert_eq!(measured, predicted, "gta stride={stride} pes={pes}");
        }
    }
}

#[test]
fn gtw_cosim_matches_work_model() {
    for stride in [1usize, 2] {
        let trace = make_trace(stride);
        for pes in [1usize, 3] {
            let (measured, predicted) = cosim_stage(&trace, pes, "gtw");
            assert_eq!(measured, predicted, "gtw stride={stride} pes={pes}");
        }
    }
}

/// Sanity: the cycle-exact co-simulation also conserves total MACs against
/// a direct dense count scaled by the operand sparsity structure.
#[test]
fn cosim_mac_totals_are_consistent() {
    let trace = make_trace(1);
    let mut group = PeGroup::new(1, 11);
    let mut expected_macs = 0u64;
    trace.forward_ops(|_, op| {
        expected_macs += src_work(op.input, op.geom).macs;
        group.enqueue(0, QueuedOp::Src(op));
    });
    group.run();
    assert_eq!(group.total_macs(), expected_macs);
    // Sparse MACs must be strictly fewer than the dense equivalent.
    assert!(expected_macs < trace.dense_macs());
}
