//! Model zoo: AlexNet- and ResNet-style builders (CIFAR-scale).
//!
//! Every builder takes an optional [`PruneConfig`]; when present, pruning
//! hooks are inserted at the positions of the paper's Fig. 4 (after each
//! CONV in Conv-ReLU structures, between CONV and BN in Conv-BN-ReLU
//! structures).

mod alexnet;
mod resnet;

pub use alexnet::{alexnet, mini_cnn, mini_cnn_for};
pub use resnet::{resnet, resnet18, resnet34, resnet_deep, ResnetSpec};

use sparsetrain_core::prune::PruneConfig;

/// Named model variants used by the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// AlexNet (Conv-ReLU structure, naturally sparse gradients).
    Alexnet,
    /// ResNet-18-like (Conv-BN-ReLU, dense gradients without pruning).
    Resnet18,
    /// ResNet-34-like.
    Resnet34,
    /// Deep ResNet (the ResNet-152 stand-in; see `docs/ARCHITECTURE.md`,
    /// *Substitutions*).
    ResnetDeep,
}

impl ModelKind {
    /// All evaluated variants, in Table II order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Alexnet,
        ModelKind::Resnet18,
        ModelKind::Resnet34,
        ModelKind::ResnetDeep,
    ];

    /// The model's display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Alexnet => "alexnet",
            ModelKind::Resnet18 => "resnet18",
            ModelKind::Resnet34 => "resnet34",
            ModelKind::ResnetDeep => "resnet-deep",
        }
    }

    /// Builds the model for the given input geometry and class count.
    pub fn build(
        &self,
        in_channels: usize,
        image_size: usize,
        classes: usize,
        prune: Option<PruneConfig>,
        seed: u64,
    ) -> crate::Sequential {
        match self {
            ModelKind::Alexnet => alexnet(in_channels, image_size, classes, 16, prune, seed),
            ModelKind::Resnet18 => resnet18(in_channels, classes, 8, prune, seed),
            ModelKind::Resnet34 => resnet34(in_channels, classes, 8, prune, seed),
            ModelKind::ResnetDeep => resnet_deep(in_channels, classes, 8, prune, seed),
        }
    }
}
