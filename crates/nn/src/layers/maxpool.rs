//! 2-D max pooling.

use crate::layer::{Batch, Layer};
use sparsetrain_core::prune::StepStreams;
use sparsetrain_sparse::ExecutionContext;
use sparsetrain_tensor::Tensor3;

/// Max pooling over non-overlapping (or strided) square windows.
///
/// The forward pass records the argmax position of each window; the
/// backward pass routes the gradient there — the MaxPool half of the
/// paper's forward masks.
#[derive(Clone)]
pub struct MaxPool2d {
    name: String,
    kernel: usize,
    stride: usize,
    // Per sample: flat input index selected for each output element.
    argmax: Vec<Vec<u32>>,
    in_shape: (usize, usize, usize),
}

impl MaxPool2d {
    /// Creates a max-pool layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0` or `stride == 0`.
    pub fn new(name: impl Into<String>, kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        Self {
            name: name.into(),
            kernel,
            stride,
            argmax: Vec::new(),
            in_shape: (0, 0, 0),
        }
    }

    fn out_extent(&self, n: usize) -> usize {
        assert!(
            n >= self.kernel,
            "input extent {n} smaller than pool kernel {}",
            self.kernel
        );
        (n - self.kernel) / self.stride + 1
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_clone(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(self.clone()))
    }

    fn forward<'a>(&mut self, xs: Batch<'a>, _ctx: &mut ExecutionContext, train: bool) -> Batch<'a> {
        let mut outs = Vec::with_capacity(xs.len());
        let mut all_argmax = Vec::with_capacity(xs.len());
        for x in &xs {
            let (c, h, w) = x.shape();
            self.in_shape = (c, h, w);
            let oh = self.out_extent(h);
            let ow = self.out_extent(w);
            let mut out = Tensor3::zeros(c, oh, ow);
            let mut argmax = Vec::with_capacity(c * oh * ow);
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        // Seeded from the window's first element, so a
                        // window with nothing above -inf (all -inf or NaN)
                        // still routes its gradient inside itself. A NaN in
                        // the first position propagates; a NaN elsewhere
                        // loses every comparison.
                        let (y0, x0) = (oy * self.stride, ox * self.stride);
                        let mut best = x.get(ci, y0, x0);
                        let mut best_idx = ((ci * h + y0) * w + x0) as u32;
                        for dy in 0..self.kernel {
                            let iy = y0 + dy;
                            for dx in 0..self.kernel {
                                let ix = x0 + dx;
                                let v = x.get(ci, iy, ix);
                                if v > best {
                                    best = v;
                                    best_idx = ((ci * h + iy) * w + ix) as u32;
                                }
                            }
                        }
                        out.set(ci, oy, ox, best);
                        argmax.push(best_idx);
                    }
                }
            }
            outs.push(out);
            all_argmax.push(argmax);
        }
        if train {
            self.argmax = all_argmax;
        }
        outs.into()
    }

    fn backward(
        &mut self,
        grads: Vec<Tensor3>,
        _ctx: &mut ExecutionContext,
        _streams: &StepStreams,
    ) -> Vec<Tensor3> {
        assert_eq!(grads.len(), self.argmax.len(), "{}: no stored argmax", self.name);
        let (c, h, w) = self.in_shape;
        grads
            .iter()
            .zip(&self.argmax)
            .map(|(g, argmax)| {
                let mut din = Tensor3::zeros(c, h, w);
                for (&idx, &gv) in argmax.iter().zip(g.as_slice()) {
                    din.as_mut_slice()[idx as usize] += gv;
                }
                din
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_takes_window_max() {
        let mut pool = MaxPool2d::new("p", 2, 2);
        let x = Tensor3::from_vec(1, 2, 4, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let out = pool.forward(vec![x].into(), &mut ExecutionContext::scalar(), true);
        assert_eq!(out[0].shape(), (1, 1, 2));
        assert_eq!(out[0].as_slice(), &[6.0, 8.0]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new("p", 2, 2);
        let x = Tensor3::from_vec(1, 2, 2, vec![1.0, 9.0, 3.0, 4.0]);
        pool.forward(vec![x].into(), &mut ExecutionContext::scalar(), true);
        let din = pool.backward(
            vec![Tensor3::from_vec(1, 1, 1, vec![2.5])],
            &mut ExecutionContext::scalar(),
            &StepStreams::new(0, 0, 0),
        );
        assert_eq!(din[0].as_slice(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn gradient_sparsity_matches_pool_ratio() {
        let mut pool = MaxPool2d::new("p", 2, 2);
        let x = Tensor3::from_fn(2, 8, 8, |c, y, x| (c * 64 + y * 8 + x) as f32);
        pool.forward(vec![x].into(), &mut ExecutionContext::scalar(), true);
        let g = Tensor3::from_fn(2, 4, 4, |_, _, _| 1.0);
        let din = pool.backward(
            vec![g],
            &mut ExecutionContext::scalar(),
            &StepStreams::new(0, 0, 0),
        );
        let nnz = din[0].as_slice().iter().filter(|&&v| v != 0.0).count();
        assert_eq!(nnz, 2 * 4 * 4); // one per output element
    }

    /// A window holding nothing above -inf routes its gradient to its own
    /// first element, not to element 0 of the map. A NaN in a window's
    /// first position propagates to the output; a NaN elsewhere loses every
    /// comparison.
    #[test]
    fn window_without_a_finite_maximum_keeps_its_gradient_inside() {
        let ninf = f32::NEG_INFINITY;
        let mut pool = MaxPool2d::new("p", 2, 2);
        let x = Tensor3::from_vec(1, 2, 4, vec![1.0, 2.0, ninf, ninf, 3.0, 4.0, ninf, ninf]);
        let out = pool.forward(vec![x].into(), &mut ExecutionContext::scalar(), true);
        assert_eq!(out[0].as_slice(), &[4.0, ninf]);
        let din = pool.backward(
            vec![Tensor3::from_vec(1, 1, 2, vec![1.5, 2.5])],
            &mut ExecutionContext::scalar(),
            &StepStreams::new(0, 0, 0),
        );
        assert_eq!(din[0].as_slice(), &[0.0, 0.0, 2.5, 0.0, 0.0, 1.5, 0.0, 0.0]);

        for at in 0..4 {
            let mut values = vec![1.0, 2.0, 3.0, 4.0];
            values[at] = f32::NAN;
            let x = Tensor3::from_vec(1, 2, 2, values);
            let out = pool.forward(vec![x].into(), &mut ExecutionContext::scalar(), true);
            let din = pool.backward(
                vec![Tensor3::from_vec(1, 1, 1, vec![1.5])],
                &mut ExecutionContext::scalar(),
                &StepStreams::new(0, 0, 0),
            );
            // The first element, or else the window's finite maximum.
            let (want_out, taken) = match at {
                0 => (f32::NAN, 0),
                3 => (3.0, 2),
                _ => (4.0, 3),
            };
            assert_eq!(out[0].as_slice()[0].to_bits(), want_out.to_bits(), "NaN at {at}");
            let mut want = [0.0; 4];
            want[taken] = 1.5;
            assert_eq!(din[0].as_slice(), &want, "NaN at {at}");
        }
    }

    #[test]
    #[should_panic(expected = "smaller than pool kernel")]
    fn pool_larger_than_input_panics() {
        let mut pool = MaxPool2d::new("p", 4, 4);
        let _ = pool.forward(
            vec![Tensor3::zeros(1, 2, 2)].into(),
            &mut ExecutionContext::scalar(),
            true,
        );
    }
}
