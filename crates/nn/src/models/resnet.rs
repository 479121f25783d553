//! ResNet-style models (CIFAR-scale, three stages of basic blocks).

use crate::layers::{BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, PruneHook, Relu};
use crate::residual::ResidualBlock;
use crate::sequential::Sequential;
use sparsetrain_core::prune::PruneConfig;
use sparsetrain_tensor::conv::ConvGeometry;

/// Structural description of a ResNet variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResnetSpec {
    /// Basic blocks per stage (three stages; channel width doubles and
    /// resolution halves between stages).
    pub blocks: [usize; 3],
    /// Stem / stage-1 channel width.
    pub width: usize,
}

impl ResnetSpec {
    /// Total weighted layers (stem + 2 per block + classifier), the ResNet
    /// "depth" count.
    pub fn depth(&self) -> usize {
        2 + 2 * (self.blocks[0] + self.blocks[1] + self.blocks[2])
    }
}

/// Builds a ResNet with Conv-BN-ReLU blocks.
///
/// Pruning hooks sit between each CONV and its BN — the Conv-BN-ReLU
/// pruning position of Fig. 4 (`dO` is pruned after flowing back through
/// BN, just before entering the CONV backward).
pub fn resnet(
    in_channels: usize,
    classes: usize,
    spec: ResnetSpec,
    prune: Option<PruneConfig>,
    seed: u64,
) -> Sequential {
    let g3 = ConvGeometry::new(3, 1, 1);
    let w = spec.width;
    let mut net = Sequential::new(format!("resnet{}", spec.depth()));
    let mut seed = seed;
    let mut next_seed = move || {
        seed += 1;
        seed
    };

    // Stem.
    let mut stem_conv = Conv2d::new("stem.conv", in_channels, w, g3, next_seed());
    stem_conv.set_first_layer(true);
    net.push_boxed(Box::new(stem_conv));
    net.push_boxed(Box::new(PruneHook::new("stem.prune", prune)));
    net.push_boxed(Box::new(BatchNorm2d::new("stem.bn", w)));
    net.push_boxed(Box::new(Relu::new("stem.relu")));

    let widths = [w, 2 * w, 4 * w];
    let mut in_w = w;
    for (stage, (&n_blocks, &out_w)) in spec.blocks.iter().zip(&widths).enumerate() {
        for b in 0..n_blocks {
            let stride = if stage > 0 && b == 0 { 2 } else { 1 };
            let name = format!("s{stage}b{b}");
            let main = Sequential::new(format!("{name}.main"))
                .push(Conv2d::new(
                    format!("{name}.conv1"),
                    in_w,
                    out_w,
                    ConvGeometry::new(3, stride, 1),
                    next_seed(),
                ))
                .push(PruneHook::new(format!("{name}.prune1"), prune))
                .push(BatchNorm2d::new(format!("{name}.bn1"), out_w))
                .push(Relu::new(format!("{name}.relu1")))
                .push(Conv2d::new(
                    format!("{name}.conv2"),
                    out_w,
                    out_w,
                    g3,
                    next_seed(),
                ))
                .push(PruneHook::new(format!("{name}.prune2"), prune))
                .push(BatchNorm2d::new(format!("{name}.bn2"), out_w));
            let shortcut = if stride != 1 || in_w != out_w {
                Some(
                    Sequential::new(format!("{name}.short"))
                        .push(Conv2d::new(
                            format!("{name}.short_conv"),
                            in_w,
                            out_w,
                            ConvGeometry::new(1, stride, 0),
                            next_seed(),
                        ))
                        .push(BatchNorm2d::new(format!("{name}.short_bn"), out_w)),
                )
            } else {
                None
            };
            net.push_boxed(Box::new(ResidualBlock::new(name, main, shortcut)));
            in_w = out_w;
        }
    }

    net.push_boxed(Box::new(GlobalAvgPool::new("gap")));
    net.push_boxed(Box::new(Flatten::new("flatten")));
    net.push_boxed(Box::new(Linear::new("fc", in_w, classes, next_seed())));
    net
}

/// ResNet-18-style variant: `[2, 2, 2]` blocks (depth 14 at CIFAR scale;
/// plays the role of the paper's ResNet-18).
pub fn resnet18(
    in_channels: usize,
    classes: usize,
    width: usize,
    prune: Option<PruneConfig>,
    seed: u64,
) -> Sequential {
    resnet(
        in_channels,
        classes,
        ResnetSpec {
            blocks: [2, 2, 2],
            width,
        },
        prune,
        seed,
    )
}

/// ResNet-34-style variant: `[3, 4, 3]` blocks.
pub fn resnet34(
    in_channels: usize,
    classes: usize,
    width: usize,
    prune: Option<PruneConfig>,
    seed: u64,
) -> Sequential {
    resnet(
        in_channels,
        classes,
        ResnetSpec {
            blocks: [3, 4, 3],
            width,
        },
        prune,
        seed,
    )
}

/// Deep ResNet variant (`[4, 6, 4]`), the tractable stand-in for the
/// paper's ResNet-152 (see `docs/ARCHITECTURE.md`, *Substitutions*: the
/// reproduced trend is depth → lower gradient density).
pub fn resnet_deep(
    in_channels: usize,
    classes: usize,
    width: usize,
    prune: Option<PruneConfig>,
    seed: u64,
) -> Sequential {
    resnet(
        in_channels,
        classes,
        ResnetSpec {
            blocks: [4, 6, 4],
            width,
        },
        prune,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;

    use sparsetrain_core::prune::StepStreams;
    use sparsetrain_sparse::ExecutionContext;
    use sparsetrain_tensor::Tensor3;

    #[test]
    fn spec_depth() {
        assert_eq!(
            ResnetSpec {
                blocks: [2, 2, 2],
                width: 8
            }
            .depth(),
            14
        );
        assert_eq!(
            ResnetSpec {
                blocks: [3, 4, 3],
                width: 8
            }
            .depth(),
            22
        );
    }

    #[test]
    fn resnet_forward_shape() {
        let mut net = resnet18(3, 10, 4, None, 1);
        let out = net.forward(
            vec![Tensor3::zeros(3, 16, 16)].into(),
            &mut ExecutionContext::scalar(),
            false,
        );
        assert_eq!(out[0].shape(), (10, 1, 1));
    }

    #[test]
    fn resnet_train_step_runs() {
        let mut net = resnet(
            3,
            4,
            ResnetSpec {
                blocks: [1, 1, 1],
                width: 4,
            },
            Some(PruneConfig::paper_default()),
            2,
        );
        let xs = vec![
            Tensor3::from_fn(3, 8, 8, |c, y, x| ((c + y + x) % 5) as f32 * 0.2),
            Tensor3::from_fn(3, 8, 8, |c, y, x| ((c * y + x) % 7) as f32 * 0.1),
        ];
        let out = net.forward(xs.into(), &mut ExecutionContext::scalar(), true);
        assert_eq!(out[0].shape(), (4, 1, 1));
        let din = net.backward(
            vec![Tensor3::from_fn(4, 1, 1, |_, _, _| 0.3); 2],
            &mut ExecutionContext::scalar(),
            &StepStreams::new(0, 0, 0),
        );
        assert_eq!(din[0].shape(), (3, 8, 8));
    }

    #[test]
    fn downsample_blocks_have_projection() {
        // Stage transitions change width & resolution; forward must still work.
        let mut net = resnet(
            3,
            2,
            ResnetSpec {
                blocks: [1, 1, 1],
                width: 2,
            },
            None,
            3,
        );
        let out = net.forward(
            vec![Tensor3::zeros(3, 16, 16)].into(),
            &mut ExecutionContext::scalar(),
            false,
        );
        assert_eq!(out[0].shape(), (2, 1, 1));
    }

    #[test]
    fn deeper_specs_have_more_params() {
        let shallow = resnet18(3, 10, 4, None, 1).param_count();
        let deep = resnet_deep(3, 10, 4, None, 1).param_count();
        assert!(deep > shallow);
    }
}
