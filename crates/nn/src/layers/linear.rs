//! Fully-connected layer.

use crate::layer::{Batch, Layer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparsetrain_checkpoint::LayerState;
use sparsetrain_core::dataflow::{FcLayerTrace, LayerTrace};
use sparsetrain_core::prune::StepStreams;
use sparsetrain_sparse::ExecutionContext;
use sparsetrain_tensor::{init, Matrix, Tensor3};

/// A fully-connected layer on `(features, 1, 1)` tensors.
///
/// Captures an [`FcLayerTrace`] (input/gradient sparsity counts) for the
/// simulator when capture is enabled.
#[derive(Clone)]
pub struct Linear {
    name: String,
    in_features: usize,
    out_features: usize,
    weights: Matrix,
    bias: Vec<f32>,
    wgrad: Matrix,
    bgrad: Vec<f32>,
    saved_inputs: Vec<Vec<f32>>,
    capture: bool,
    captured: Option<FcLayerTrace>,
    needs_input_grad: bool,
}

impl Linear {
    /// Creates a linear layer with Kaiming-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero.
    pub fn new(name: impl Into<String>, in_features: usize, out_features: usize, seed: u64) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "feature counts must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            name: name.into(),
            in_features,
            out_features,
            weights: init::kaiming_linear(&mut rng, out_features, in_features),
            bias: vec![0.0; out_features],
            wgrad: Matrix::zeros(out_features, in_features),
            bgrad: vec![0.0; out_features],
            saved_inputs: Vec::new(),
            capture: false,
            captured: None,
            needs_input_grad: true,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

fn as_vector(t: &Tensor3, expect: usize, name: &str) -> Vec<f32> {
    assert_eq!(
        t.len(),
        expect,
        "{name}: expected a flattened ({expect},1,1) tensor, got {:?}",
        t.shape()
    );
    t.as_slice().to_vec()
}

impl Layer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_clone(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(self.clone()))
    }

    fn forward<'a>(&mut self, xs: Batch<'a>, _ctx: &mut ExecutionContext, train: bool) -> Batch<'a> {
        let inputs: Vec<Vec<f32>> = xs
            .iter()
            .map(|x| as_vector(x, self.in_features, &self.name))
            .collect();
        let outs = inputs
            .iter()
            .map(|x| {
                let mut y = self.weights.matvec(x);
                for (yi, b) in y.iter_mut().zip(&self.bias) {
                    *yi += *b;
                }
                Tensor3::from_vec(self.out_features, 1, 1, y)
            })
            .collect();
        if train {
            self.saved_inputs = inputs;
        }
        outs
    }

    fn backward(
        &mut self,
        grads: Vec<Tensor3>,
        _ctx: &mut ExecutionContext,
        _streams: &StepStreams,
    ) -> Vec<Tensor3> {
        assert_eq!(
            grads.len(),
            self.saved_inputs.len(),
            "{}: no stored context",
            self.name
        );
        if self.capture {
            let x = &self.saved_inputs[0];
            let g = grads[0].as_slice();
            let input_nnz = x.iter().filter(|&&v| v != 0.0).count();
            self.captured = Some(FcLayerTrace {
                name: self.name.clone(),
                in_features: self.in_features,
                out_features: self.out_features,
                input_nnz,
                dout_nnz: g.iter().filter(|&&v| v != 0.0).count(),
                mask_nnz: input_nnz,
                needs_input_grad: self.needs_input_grad,
            });
        }
        grads
            .iter()
            .zip(&self.saved_inputs)
            .map(|(g, x)| {
                let gv = g.as_slice();
                self.wgrad.rank1_update(1.0, gv, x);
                for (b, &d) in self.bgrad.iter_mut().zip(gv) {
                    *b += d;
                }
                Tensor3::from_vec(self.in_features, 1, 1, self.weights.matvec_t(gv))
            })
            .collect()
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(self.weights.as_mut_slice(), self.wgrad.as_mut_slice());
        f(&mut self.bias, &mut self.bgrad);
    }

    fn zero_grads(&mut self) {
        self.wgrad.fill(0.0);
        self.bgrad.fill(0.0);
    }

    fn set_capture(&mut self, enable: bool) {
        self.capture = enable;
        if !enable {
            self.captured = None;
        }
    }

    fn collect_traces(&self, out: &mut Vec<LayerTrace>) {
        if let Some(t) = &self.captured {
            out.push(LayerTrace::Fc(t.clone()));
        }
    }

    fn collect_state(&self, out: &mut Vec<LayerState>) {
        out.push(LayerState::Params {
            layer: self.name.clone(),
            tensors: vec![self.weights.as_slice().to_vec(), self.bias.clone()],
        });
    }

    fn restore_state(&mut self, state: &LayerState) -> Result<bool, String> {
        match state {
            LayerState::Params { layer, tensors } if *layer == self.name => match tensors.as_slice() {
                [w, b] if w.len() == self.weights.len() && b.len() == self.bias.len() => {
                    self.weights.as_mut_slice().copy_from_slice(w);
                    self.bias.copy_from_slice(b);
                    Ok(true)
                }
                _ => Err(format!(
                    "linear layer {:?}: snapshot params do not match [{}, {}]",
                    self.name,
                    self.weights.len(),
                    self.bias.len()
                )),
            },
            _ => Ok(false),
        }
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_computes_affine() {
        let mut lin = Linear::new("fc", 2, 2, 1);
        // Overwrite weights deterministically.
        lin.visit_params(&mut |p, _| {
            if p.len() == 4 {
                p.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
            } else {
                p.copy_from_slice(&[0.5, -0.5]);
            }
        });
        let out = lin.forward(
            vec![Tensor3::from_vec(2, 1, 1, vec![1.0, 1.0])].into(),
            &mut ExecutionContext::scalar(),
            true,
        );
        assert_eq!(out[0].as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let mut lin = Linear::new("fc", 3, 2, 2);
        let x = Tensor3::from_vec(3, 1, 1, vec![0.5, -1.0, 2.0]);
        let dout = vec![1.0f32, -0.5];
        lin.forward(vec![x.clone()].into(), &mut ExecutionContext::scalar(), true);
        let din = lin.backward(
            vec![Tensor3::from_vec(2, 1, 1, dout.clone())],
            &mut ExecutionContext::scalar(),
            &StepStreams::new(0, 0, 0),
        );
        // din = W^T dout; check element 0 by direct computation.
        let w = lin.weights.clone();
        let expect = w.get(0, 0) * dout[0] + w.get(1, 0) * dout[1];
        assert!((din[0].as_slice()[0] - expect).abs() < 1e-6);
        // wgrad = dout ⊗ x
        assert!((lin.wgrad.get(0, 2) - dout[0] * 2.0).abs() < 1e-6);
        assert!((lin.bgrad[1] - dout[1]).abs() < 1e-6);
    }

    #[test]
    fn capture_records_sparsity() {
        let mut lin = Linear::new("fc", 4, 2, 3);
        lin.set_capture(true);
        lin.forward(
            vec![Tensor3::from_vec(4, 1, 1, vec![1.0, 0.0, 0.0, 2.0])].into(),
            &mut ExecutionContext::scalar(),
            true,
        );
        lin.backward(
            vec![Tensor3::from_vec(2, 1, 1, vec![0.0, 1.0])],
            &mut ExecutionContext::scalar(),
            &StepStreams::new(0, 0, 0),
        );
        let mut traces = Vec::new();
        lin.collect_traces(&mut traces);
        assert_eq!(traces.len(), 1);
        if let LayerTrace::Fc(t) = &traces[0] {
            assert_eq!(t.input_nnz, 2);
            assert_eq!(t.dout_nnz, 1);
        } else {
            panic!("expected fc trace");
        }
    }

    #[test]
    #[should_panic(expected = "expected a flattened")]
    fn wrong_input_shape_panics() {
        let mut lin = Linear::new("fc", 4, 2, 4);
        let _ = lin.forward(
            vec![Tensor3::zeros(2, 1, 1)].into(),
            &mut ExecutionContext::scalar(),
            true,
        );
    }
}
