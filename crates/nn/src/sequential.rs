//! Sequential composition of layers.

use crate::layer::{Batch, Layer};
use sparsetrain_core::prune::StepStreams;
use sparsetrain_sparse::ExecutionContext;
use sparsetrain_tensor::Tensor3;

/// A stack of layers executed in order (and in reverse for backward).
///
/// `Sequential` is itself a [`Layer`], so stacks nest (residual blocks hold
/// sequentials internally).
#[derive(Default)]
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of direct child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the direct children.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Layer> {
        self.layers.iter().map(|b| b.as_ref())
    }

    /// Attempts to replicate the whole stack into an independent network
    /// — the shard workers' copy of the coordinator's template. Returns
    /// `None` if any child layer cannot be cloned mechanically
    /// ([`Layer::try_clone`]); semantic shardability is the separate
    /// [`Layer::shard_blockers`] question.
    pub fn try_replicate(&self) -> Option<Sequential> {
        let mut layers = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            layers.push(layer.try_clone()?);
        }
        Some(Sequential {
            name: self.name.clone(),
            layers,
        })
    }
}

impl Layer for Sequential {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward<'a>(&mut self, mut xs: Batch<'a>, ctx: &mut ExecutionContext, train: bool) -> Batch<'a> {
        for layer in &mut self.layers {
            xs = layer.forward(xs, ctx, train);
        }
        xs
    }

    fn backward(
        &mut self,
        mut grads: Vec<Tensor3>,
        ctx: &mut ExecutionContext,
        streams: &StepStreams,
    ) -> Vec<Tensor3> {
        for layer in self.layers.iter_mut().rev() {
            grads = layer.backward(grads, ctx, streams);
        }
        grads
    }

    fn for_each_child(&self, f: &mut dyn FnMut(&dyn Layer)) {
        for layer in &self.layers {
            f(layer.as_ref());
        }
    }

    fn for_each_child_mut(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        for layer in &mut self.layers {
            f(layer.as_mut());
        }
    }

    fn try_clone(&self) -> Option<Box<dyn Layer>> {
        self.try_replicate().map(|s| Box::new(s) as Box<dyn Layer>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Relu};

    use sparsetrain_tensor::conv::ConvGeometry;

    #[test]
    fn forward_backward_chain() {
        let mut net = Sequential::new("net")
            .push(Conv2d::new("c1", 1, 2, ConvGeometry::new(3, 1, 1), 1))
            .push(Relu::new("r1"))
            .push(Conv2d::new("c2", 2, 1, ConvGeometry::new(3, 1, 1), 2));
        let mut ctx = ExecutionContext::scalar();
        let xs = vec![Tensor3::from_fn(1, 4, 4, |_, y, x| (y + x) as f32)];
        let out = net.forward(xs.into(), &mut ctx, true);
        assert_eq!(out[0].shape(), (1, 4, 4));
        let din = net.backward(
            vec![Tensor3::from_fn(1, 4, 4, |_, _, _| 1.0)],
            &mut ctx,
            &StepStreams::new(0, 0, 0),
        );
        assert_eq!(din[0].shape(), (1, 4, 4));
    }

    #[test]
    fn param_count_sums_children() {
        let net = Sequential::new("net")
            .push(Conv2d::new("c1", 1, 2, ConvGeometry::new(3, 1, 1), 1))
            .push(Relu::new("r1"));
        assert_eq!(net.param_count(), 2 * 9 + 2);
        assert_eq!(net.len(), 2);
    }

    #[test]
    fn visit_params_order_is_stable() {
        let mut net = Sequential::new("net")
            .push(Conv2d::new("c1", 1, 1, ConvGeometry::unit(), 1))
            .push(Conv2d::new("c2", 1, 1, ConvGeometry::unit(), 2));
        let mut sizes_a = Vec::new();
        net.visit_params(&mut |p, _| sizes_a.push(p.len()));
        let mut sizes_b = Vec::new();
        net.visit_params(&mut |p, _| sizes_b.push(p.len()));
        assert_eq!(sizes_a, sizes_b);
        assert_eq!(sizes_a.len(), 4); // two convs × (weights, bias)
    }
}
