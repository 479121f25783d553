//! Dense tensor and 2-D convolution substrate for the SparseTrain reproduction.
//!
//! This crate provides the minimal dense linear-algebra layer that everything
//! else (the sparse kernels, the CNN training framework, the accelerator
//! simulator) is built on and validated against:
//!
//! * [`Tensor3`] — a `C × H × W` feature map (one sample),
//! * [`Tensor4`] — an `F × C × K × K` weight tensor,
//! * [`Matrix`] — a 2-D matrix for fully-connected layers,
//! * [`conv`] — reference dense 2-D convolution for all three training
//!   stages of the paper (Forward, GTA, GTW),
//! * [`init`] — weight initializers,
//! * [`stats`] — density/moment helpers used throughout the workspace.
//!
//! # Example
//!
//! ```
//! use sparsetrain_tensor::{Tensor3, Tensor4, conv::{self, ConvGeometry}};
//!
//! let geom = ConvGeometry::new(3, 1, 1); // 3x3 kernel, stride 1, pad 1
//! let input = Tensor3::zeros(8, 16, 16);
//! let weights = Tensor4::zeros(4, 8, 3, 3);
//! let out = conv::forward(&input, &weights, None, geom);
//! assert_eq!(out.shape(), (4, 16, 16));
//! ```

pub mod conv;
pub mod im2row;
pub mod init;
pub mod matrix;
pub mod qformat;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use matrix::Matrix;
pub use shape::{Shape3, Shape4};
pub use tensor::{Tensor3, Tensor4};
