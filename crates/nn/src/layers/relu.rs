//! ReLU activation.

use crate::layer::{Batch, Layer};
use sparsetrain_core::prune::StepStreams;
use sparsetrain_sparse::ExecutionContext;
use sparsetrain_tensor::Tensor3;

/// Point-wise `max(0, x)`.
///
/// The forward pass records the positive mask; the backward pass replays it
/// — exactly the `mask` mechanism of §II that the GTA step reuses.
#[derive(Clone)]
pub struct Relu {
    name: String,
    masks: Vec<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            masks: Vec::new(),
        }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_clone(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(self.clone()))
    }

    fn forward<'a>(&mut self, mut xs: Batch<'a>, _ctx: &mut ExecutionContext, train: bool) -> Batch<'a> {
        if train {
            self.masks = xs
                .iter()
                .map(|x| x.as_slice().iter().map(|&v| v > 0.0).collect())
                .collect();
        }
        for x in xs.iter_mut() {
            x.map_inplace(|v| v.max(0.0));
        }
        xs
    }

    fn backward(
        &mut self,
        mut grads: Vec<Tensor3>,
        _ctx: &mut ExecutionContext,
        _streams: &StepStreams,
    ) -> Vec<Tensor3> {
        assert_eq!(grads.len(), self.masks.len(), "{}: no stored mask", self.name);
        for (g, mask) in grads.iter_mut().zip(&self.masks) {
            // A select, not a branch: whether an activation was positive
            // is close to a coin flip, so a branch here mispredicts.
            for (v, &keep) in g.as_mut_slice().iter_mut().zip(mask) {
                *v = if keep { *v } else { 0.0 };
            }
        }
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new("r");
        let mut ctx = ExecutionContext::scalar();
        let out = relu.forward(
            vec![Tensor3::from_vec(1, 1, 4, vec![-1.0, 2.0, -3.0, 0.0])].into(),
            &mut ctx,
            true,
        );
        assert_eq!(out[0].as_slice(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new("r");
        let mut ctx = ExecutionContext::scalar();
        relu.forward(
            vec![Tensor3::from_vec(1, 1, 3, vec![-1.0, 2.0, 3.0])].into(),
            &mut ctx,
            true,
        );
        let din = relu.backward(
            vec![Tensor3::from_vec(1, 1, 3, vec![5.0, 5.0, 5.0])],
            &mut ctx,
            &StepStreams::new(0, 0, 0),
        );
        assert_eq!(din[0].as_slice(), &[0.0, 5.0, 5.0]);
    }

    #[test]
    fn zero_input_is_not_positive() {
        let mut relu = Relu::new("r");
        let mut ctx = ExecutionContext::scalar();
        relu.forward(vec![Tensor3::from_vec(1, 1, 1, vec![0.0])].into(), &mut ctx, true);
        let din = relu.backward(
            vec![Tensor3::from_vec(1, 1, 1, vec![7.0])],
            &mut ctx,
            &StepStreams::new(0, 0, 0),
        );
        assert_eq!(din[0].as_slice(), &[0.0]);
    }
}
