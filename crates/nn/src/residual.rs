//! ResNet-style basic residual block.

use crate::layer::{Batch, Layer};
use crate::layers::Relu;
use crate::sequential::Sequential;
use sparsetrain_core::prune::StepStreams;
use sparsetrain_sparse::ExecutionContext;
use sparsetrain_tensor::Tensor3;

/// `y = ReLU(main(x) + shortcut(x))`.
///
/// `main` is typically Conv-BN-ReLU-Conv-BN (with pruning hooks inside);
/// `shortcut` is identity (`None`) or a 1×1 Conv-BN projection when the
/// shape changes.
pub struct ResidualBlock {
    name: String,
    main: Sequential,
    shortcut: Option<Sequential>,
    relu: Relu,
}

impl ResidualBlock {
    /// Creates a residual block.
    pub fn new(name: impl Into<String>, main: Sequential, shortcut: Option<Sequential>) -> Self {
        let name = name.into();
        let relu = Relu::new(format!("{name}.relu_out"));
        Self {
            name,
            main,
            shortcut,
            relu,
        }
    }
}

impl Layer for ResidualBlock {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward<'a>(&mut self, xs: Batch<'a>, ctx: &mut ExecutionContext, train: bool) -> Batch<'a> {
        let skip_in = xs.clone();
        let mut main_out = self.main.forward(xs, ctx, train);
        let skip_out = match &mut self.shortcut {
            Some(s) => s.forward(skip_in, ctx, train),
            None => skip_in,
        };
        for (m, s) in main_out.iter_mut().zip(&skip_out) {
            m.add_assign(s);
        }
        self.relu.forward(main_out, ctx, train)
    }

    fn backward(
        &mut self,
        grads: Vec<Tensor3>,
        ctx: &mut ExecutionContext,
        streams: &StepStreams,
    ) -> Vec<Tensor3> {
        let grads = self.relu.backward(grads, ctx, streams);
        // The sum node copies the gradient to both branches.
        let mut din = self.main.backward(grads.clone(), ctx, streams);
        let skip_din = match &mut self.shortcut {
            Some(s) => s.backward(grads, ctx, streams),
            None => grads,
        };
        for (d, s) in din.iter_mut().zip(&skip_din) {
            d.add_assign(s);
        }
        din
    }

    // The children in forward order; the output ReLU is one of them, so
    // state, freeze and every other hook reach it like any other layer.
    fn for_each_child(&self, f: &mut dyn FnMut(&dyn Layer)) {
        f(&self.main);
        if let Some(s) = &self.shortcut {
            f(s);
        }
        f(&self.relu);
    }

    fn for_each_child_mut(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(&mut self.main);
        if let Some(s) = &mut self.shortcut {
            f(s);
        }
        f(&mut self.relu);
    }

    fn try_clone(&self) -> Option<Box<dyn Layer>> {
        let main = self.main.try_replicate()?;
        let shortcut = match &self.shortcut {
            Some(s) => Some(s.try_replicate()?),
            None => None,
        };
        Some(Box::new(ResidualBlock {
            name: self.name.clone(),
            main,
            shortcut,
            relu: self.relu.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm2d, Conv2d};

    use sparsetrain_tensor::conv::ConvGeometry;

    fn block(ch: usize) -> ResidualBlock {
        let main = Sequential::new("b.main")
            .push(Conv2d::new("b.conv1", ch, ch, ConvGeometry::new(3, 1, 1), 1))
            .push(BatchNorm2d::new("b.bn1", ch))
            .push(Relu::new("b.relu1"))
            .push(Conv2d::new("b.conv2", ch, ch, ConvGeometry::new(3, 1, 1), 2))
            .push(BatchNorm2d::new("b.bn2", ch));
        ResidualBlock::new("b", main, None)
    }

    #[test]
    fn identity_shortcut_preserves_shape() {
        let mut b = block(4);
        let xs = vec![Tensor3::from_fn(4, 6, 6, |c, y, x| ((c + y + x) % 3) as f32); 2];
        let out = b.forward(xs.into(), &mut ExecutionContext::scalar(), true);
        assert_eq!(out[0].shape(), (4, 6, 6));
        let din = b.backward(
            vec![Tensor3::from_fn(4, 6, 6, |_, _, _| 0.5); 2],
            &mut ExecutionContext::scalar(),
            &StepStreams::new(0, 0, 0),
        );
        assert_eq!(din[0].shape(), (4, 6, 6));
    }

    #[test]
    fn gradient_flows_through_skip() {
        // Even if the main path had zero weights, the skip path carries
        // gradient — din should be non-zero wherever the output relu passed.
        let mut b = block(2);
        // Zero the main path's parameters so only the skip contributes.
        b.visit_params(&mut |p, _| p.fill(0.0));
        let xs = vec![Tensor3::from_fn(2, 4, 4, |_, y, x| (y + x) as f32 + 0.5)];
        let out = b.forward(xs.into(), &mut ExecutionContext::scalar(), true);
        // With zeroed BN gamma the main path is exactly zero; out == relu(skip).
        assert!(out[0].as_slice().iter().any(|&v| v > 0.0));
        let din = b.backward(
            vec![Tensor3::from_fn(2, 4, 4, |_, _, _| 1.0)],
            &mut ExecutionContext::scalar(),
            &StepStreams::new(0, 0, 0),
        );
        let nnz = din[0].as_slice().iter().filter(|&&v| v != 0.0).count();
        assert!(nnz > 0, "no gradient reached the block input");
    }

    #[test]
    fn param_count_includes_both_paths() {
        let main = Sequential::new("m").push(Conv2d::new("c", 2, 2, ConvGeometry::unit(), 1));
        let short = Sequential::new("s").push(Conv2d::new("sc", 2, 2, ConvGeometry::unit(), 2));
        let b = ResidualBlock::new("b", main, Some(short));
        assert_eq!(b.param_count(), (2 * 2 + 2) * 2);
    }

    #[test]
    fn set_sparse_execution_reaches_both_paths() {
        use std::sync::{Arc, Mutex};

        struct ExecutionProbe {
            got: Arc<Mutex<Option<bool>>>,
        }
        impl Layer for ExecutionProbe {
            fn name(&self) -> &str {
                "probe"
            }
            fn forward<'a>(&mut self, xs: Batch<'a>, _ctx: &mut ExecutionContext, _train: bool) -> Batch<'a> {
                xs
            }
            fn backward(
                &mut self,
                grads: Vec<Tensor3>,
                _ctx: &mut ExecutionContext,
                _streams: &StepStreams,
            ) -> Vec<Tensor3> {
                grads
            }
            fn set_sparse_execution(&mut self, enabled: bool) {
                *self.got.lock().unwrap() = Some(enabled);
            }
        }

        let main_probe = Arc::new(Mutex::new(None));
        let short_probe = Arc::new(Mutex::new(None));
        let main = Sequential::new("m").push(ExecutionProbe {
            got: Arc::clone(&main_probe),
        });
        let short = Sequential::new("s").push(ExecutionProbe {
            got: Arc::clone(&short_probe),
        });
        let mut b = ResidualBlock::new("b", main, Some(short));
        b.set_sparse_execution(true);
        assert_eq!(*main_probe.lock().unwrap(), Some(true));
        assert_eq!(*short_probe.lock().unwrap(), Some(true));
    }
}
