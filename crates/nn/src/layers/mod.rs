//! Concrete layers.

pub mod avgpool;
pub mod batchnorm;
pub mod conv2d;
pub mod dropout;
pub mod flatten;
pub mod linear;
pub mod maxpool;
pub mod prune_hook;
pub mod relu;

pub use avgpool::GlobalAvgPool;
pub use batchnorm::BatchNorm2d;
pub use conv2d::Conv2d;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use linear::Linear;
pub use maxpool::MaxPool2d;
pub use prune_hook::PruneHook;
pub use relu::Relu;
