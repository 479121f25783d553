//! The optimizer: SGD with momentum and L2 weight decay, the paper's choice.

use crate::layer::Layer;

/// SGD optimizer with classical momentum and L2 weight decay.
///
/// Velocity buffers are allocated lazily on the first step, keyed by the
/// order in which [`Layer::visit_params`] yields parameter slices — that
/// order must therefore be stable across steps (it is, for every layer in
/// this crate).
///
/// ```
/// use sparsetrain_nn::optim::Sgd;
/// let sgd = Sgd::new(0.1, 0.9, 5e-4);
/// assert_eq!(sgd.learning_rate(), 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocities: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`, `momentum ∉ [0, 1)` or `weight_decay < 0`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Self {
            lr,
            momentum,
            weight_decay,
            velocities: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (for schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Applies one SGD step to every parameter of `net`.
    ///
    /// `grad_scale` is multiplied into each gradient before the update —
    /// pass `1.0 / batch_size` to average per-sample gradient
    /// accumulations.
    pub fn step(&mut self, net: &mut dyn Layer, grad_scale: f32) {
        let lr = self.lr;
        let momentum = self.momentum;
        let wd = self.weight_decay;
        let velocities = &mut self.velocities;
        let mut index = 0usize;
        net.visit_params(&mut |param, grad| {
            if velocities.len() <= index {
                velocities.push(vec![0.0; param.len()]);
            }
            let vel = &mut velocities[index];
            assert_eq!(
                vel.len(),
                param.len(),
                "parameter {index} changed size between steps"
            );
            for i in 0..param.len() {
                let g = grad[i] * grad_scale + wd * param[i];
                vel[i] = momentum * vel[i] - lr * g;
                param[i] += vel[i];
            }
            index += 1;
        });
    }

    /// Drops all velocity state (e.g. when restarting training).
    pub fn reset(&mut self) {
        self.velocities.clear();
    }

    /// The velocity buffers in [`Layer::visit_params`] order (checkpoint
    /// export). Empty until the first step.
    pub fn velocities(&self) -> &[Vec<f32>] {
        &self.velocities
    }

    /// Replaces the velocity buffers (checkpoint restore). Buffer sizes are
    /// re-validated against the parameters on the next step.
    pub fn restore_velocities(&mut self, velocities: Vec<Vec<f32>>) {
        self.velocities = velocities;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use sparsetrain_core::prune::StepStreams;
    use sparsetrain_tensor::Tensor3;

    /// A single learnable scalar minimising (w - 3)^2 via its gradient.
    struct Scalar {
        w: Vec<f32>,
        g: Vec<f32>,
    }

    impl Layer for Scalar {
        fn name(&self) -> &str {
            "scalar"
        }
        fn forward<'a>(
            &mut self,
            xs: crate::layer::Batch<'a>,
            _ctx: &mut sparsetrain_sparse::ExecutionContext,
            _train: bool,
        ) -> crate::layer::Batch<'a> {
            xs
        }
        fn backward(
            &mut self,
            grads: Vec<Tensor3>,
            _ctx: &mut sparsetrain_sparse::ExecutionContext,
            _streams: &StepStreams,
        ) -> Vec<Tensor3> {
            grads
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
            f(&mut self.w, &mut self.g);
        }
        fn param_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut s = Scalar {
            w: vec![0.0],
            g: vec![0.0],
        };
        let mut sgd = Sgd::new(0.1, 0.0, 0.0);
        for _ in 0..100 {
            s.g[0] = 2.0 * (s.w[0] - 3.0);
            sgd.step(&mut s, 1.0);
        }
        assert!((s.w[0] - 3.0).abs() < 1e-3, "w = {}", s.w[0]);
    }

    #[test]
    fn momentum_accelerates() {
        let run = |momentum: f32| {
            let mut s = Scalar {
                w: vec![0.0],
                g: vec![0.0],
            };
            let mut sgd = Sgd::new(0.02, momentum, 0.0);
            for _ in 0..30 {
                s.g[0] = 2.0 * (s.w[0] - 3.0);
                sgd.step(&mut s, 1.0);
            }
            s.w[0]
        };
        let plain = run(0.0);
        let with_momentum = run(0.9);
        assert!(
            (with_momentum - 3.0).abs() < (plain - 3.0).abs(),
            "momentum {with_momentum} vs plain {plain}"
        );
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut s = Scalar {
            w: vec![1.0],
            g: vec![0.0],
        };
        let mut sgd = Sgd::new(0.1, 0.0, 0.1);
        for _ in 0..50 {
            s.g[0] = 0.0; // no task gradient, only decay
            sgd.step(&mut s, 1.0);
        }
        assert!(s.w[0] < 0.7, "weight decay had no effect: {}", s.w[0]);
    }

    #[test]
    fn grad_scale_averages() {
        let mut s = Scalar {
            w: vec![0.0],
            g: vec![8.0], // accumulated over a batch of 8
        };
        let mut sgd = Sgd::new(1.0, 0.0, 0.0);
        sgd.step(&mut s, 1.0 / 8.0);
        assert!((s.w[0] + 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_rejected() {
        let _ = Sgd::new(0.0, 0.0, 0.0);
    }
}
