//! The precondition of the fused GTA (the paper's ReLU-backward fusion).
//!
//! `Conv2d`'s GTA zeroes the input gradient wherever the convolution's
//! input was zero. That equals the dense GTA followed by the upstream
//! backward only when the upstream layer drops the gradient at its zero
//! outputs anyway: a ReLU, a max pool over a ReLU's output, or a
//! `ResidualBlock` (which ends in its ReLU). The first convolution runs no
//! GTA. This suite walks every model through `Layer::for_each_child` and
//! checks every other convolution reads such a gated value. Layers are
//! told apart by behaviour, not name: a convolution checkpoints `dO`
//! density accumulators, and a parameter-free leaf is probed on one map
//! with negative values — a ReLU returns its positive part, a max pool
//! the window's maximum.

use sparsetrain_checkpoint::LayerState;
use sparsetrain_core::prune::PruneConfig;
use sparsetrain_nn::layers::{BatchNorm2d, Conv2d, PruneHook, Relu};
use sparsetrain_nn::models::{self, ModelKind};
use sparsetrain_nn::residual::ResidualBlock;
use sparsetrain_nn::{Layer, Sequential};
use sparsetrain_sparse::ExecutionContext;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::Tensor3;

/// A leaf's role, from its state and from one probe pass.
#[derive(Debug, PartialEq)]
enum Leaf {
    Conv,
    Relu,
    MaxPool,
    Other,
}

fn classify(leaf: &dyn Layer) -> Leaf {
    let mut state = Vec::new();
    leaf.collect_state(&mut state);
    if state.iter().any(|s| matches!(s, LayerState::Density { .. })) {
        return Leaf::Conv;
    }
    if leaf.param_count() > 0 {
        return Leaf::Other;
    }
    let Some(mut probe) = leaf.try_clone() else {
        return Leaf::Other;
    };
    let x = Tensor3::from_vec(1, 2, 2, vec![-1.0, 2.0, 0.5, -3.0]);
    let out = probe.forward(vec![x].into(), &mut ExecutionContext::scalar(), false);
    match (out[0].shape(), out[0].as_slice()) {
        ((1, 2, 2), [0.0, 2.0, 0.5, 0.0]) => Leaf::Relu,
        ((1, 1, 1), [2.0]) => Leaf::MaxPool,
        _ => Leaf::Other,
    }
}

fn children(layer: &dyn Layer) -> usize {
    let mut n = 0;
    layer.for_each_child(&mut |_| n += 1);
    n
}

/// A container is a residual block when it ends in a ReLU leaf and every
/// other child is itself a container: each branch then reads the block's
/// input, and the sum goes through the ReLU.
fn is_residual(layer: &dyn Layer) -> bool {
    let mut kinds = Vec::new();
    layer.for_each_child(&mut |c| {
        kinds.push((children(c) > 0, children(c) == 0 && classify(c) == Leaf::Relu))
    });
    matches!(kinds.split_last(), Some((&(false, true), branches))
        if !branches.is_empty() && branches.iter().all(|&(container, _)| container))
}

/// Walks `layer` reading the output of `producer` — `None` for the
/// network input or a gated value, else the producing layer's name — and
/// returns the producer of its output. Counts the convolutions it meets
/// and records each one that reads an ungated value.
fn walk(
    layer: &dyn Layer,
    producer: Option<String>,
    convs: &mut usize,
    bad: &mut Vec<String>,
) -> Option<String> {
    if children(layer) == 0 {
        let name = layer.name().to_string();
        return match classify(layer) {
            Leaf::Conv => {
                if let Some(from) = producer {
                    bad.push(format!("{name} reads {from}"));
                }
                *convs += 1;
                Some(name)
            }
            Leaf::Relu => None,
            Leaf::MaxPool => producer,
            Leaf::Other => Some(name),
        };
    }
    if is_residual(layer) {
        layer.for_each_child(&mut |branch| {
            walk(branch, producer.clone(), convs, bad);
        });
        return None;
    }
    let mut value = producer;
    layer.for_each_child(&mut |child| value = walk(child, value.take(), convs, bad));
    value
}

/// The convolutions of `net` that read an ungated value, and how many
/// convolutions the walk met.
fn violations(net: &Sequential) -> (Vec<String>, usize) {
    let (mut convs, mut bad) = (0, Vec::new());
    walk(net, None, &mut convs, &mut bad);
    (bad, convs)
}

/// Every model kind and `mini_cnn`, with and without prune hooks. The
/// ResNets' projection shortcuts read the block input, so they would read
/// a batch norm if the walk took a block for a plain sequence.
#[test]
fn every_model_feeds_its_convolutions_gated_values() {
    for prune in [None, Some(PruneConfig::new(0.9, 2))] {
        let mut nets: Vec<Sequential> = ModelKind::ALL
            .iter()
            .map(|kind| kind.build(3, 16, 4, prune, 1))
            .collect();
        nets.push(models::mini_cnn(3, 4, prune));
        for net in &nets {
            let (bad, convs) = violations(net);
            assert!(convs >= 2, "{}: the walk must reach its convolutions", net.name());
            assert_eq!(bad, Vec::<String>::new(), "{}", net.name());
        }
    }
}

#[test]
fn a_convolution_reading_an_ungated_value_is_named() {
    let g3 = ConvGeometry::new(3, 1, 1);
    let mut conv1 = Conv2d::new("conv1", 3, 4, g3, 1);
    conv1.set_first_layer(true);
    let bn_fed = Sequential::new("bn_fed")
        .push(conv1)
        .push(Relu::new("relu1"))
        .push(Conv2d::new("conv2", 4, 4, g3, 2))
        .push(BatchNorm2d::new("bn2", 4))
        .push(Conv2d::new("conv3", 4, 4, g3, 3));
    assert_eq!(violations(&bn_fed).0, ["conv3 reads bn2"]);

    // A prune hook after the ReLU prunes the gradient the fusion masked.
    let hooked = Sequential::new("hooked")
        .push(Conv2d::new("conv1", 3, 4, g3, 1))
        .push(Relu::new("relu1"))
        .push(PruneHook::new("prune1", Some(PruneConfig::new(0.9, 2))))
        .push(Conv2d::new("conv2", 4, 4, g3, 2));
    assert_eq!(violations(&hooked).0, ["conv2 reads prune1"]);

    // A residual branch that opens on a batch norm.
    let main = Sequential::new("b.main")
        .push(BatchNorm2d::new("b.bn0", 4))
        .push(Conv2d::new("b.conv1", 4, 4, g3, 4));
    let residual = Sequential::new("residual")
        .push(Conv2d::new("conv1", 3, 4, g3, 1))
        .push(Relu::new("relu1"))
        .push(ResidualBlock::new("b", main, None));
    assert_eq!(violations(&residual).0, ["b.conv1 reads b.bn0"]);
}
