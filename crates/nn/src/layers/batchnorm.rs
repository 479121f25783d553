//! 2-D batch normalization.

use crate::layer::{Batch, Layer};
use sparsetrain_checkpoint::LayerState;
use sparsetrain_core::prune::StepStreams;
use sparsetrain_sparse::engine::{bands_for, for_each_band};
use sparsetrain_sparse::ExecutionContext;
use sparsetrain_tensor::Tensor3;

/// Per-channel batch normalization over `(batch, height, width)`.
///
/// Training mode uses batch statistics (and updates running statistics for
/// evaluation); evaluation mode uses the running statistics. This is the
/// layer that makes ResNet's activation gradients dense (`dO` loses the
/// ReLU zero pattern after passing through BN backward) — the situation the
/// paper's pruning algorithm exists to fix.
#[derive(Clone)]
pub struct BatchNorm2d {
    name: String,
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Vec<f32>,
    beta: Vec<f32>,
    dgamma: Vec<f32>,
    dbeta: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    // Context from the training forward pass:
    ctx_xhat: Vec<Tensor3>,
    ctx_inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with `gamma = 1`, `beta = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(name: impl Into<String>, channels: usize) -> Self {
        assert!(channels > 0, "channels must be positive");
        Self {
            name: name.into(),
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: vec![1.0; channels],
            beta: vec![0.0; channels],
            dgamma: vec![0.0; channels],
            dbeta: vec![0.0; channels],
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            ctx_xhat: Vec::new(),
            ctx_inv_std: Vec::new(),
        }
    }
}

/// Deals the channels of a batch to the pool: `work(channel, stat, planes)`
/// runs once per channel, a contiguous channel range per band, with the
/// channel's slot of `stats` and its plane of every tensor of `tensors` in
/// order. A band owns its channels across the whole batch, so a channel's
/// reductions run start to finish on one thread, in one order, whatever the
/// band count.
fn for_each_channel<S: Send>(
    tensors: &mut [Tensor3],
    stats: &mut [S],
    bands: usize,
    work: impl Fn(usize, &mut S, &mut [&mut [f32]]) + Sync,
) {
    let per_channel = tensors.len();
    let mut planes_of: Vec<_> = tensors
        .iter_mut()
        .map(|t| {
            let plane = t.height() * t.width();
            t.as_mut_slice().chunks_mut(plane.max(1))
        })
        .collect();
    // Channel-major: channel 0's plane of every tensor, then channel 1's.
    let mut planes: Vec<&mut [f32]> = Vec::with_capacity(stats.len() * per_channel);
    for _ in 0..stats.len() {
        planes.extend(planes_of.iter_mut().map(|it| it.next().unwrap_or_default()));
    }
    let mut channels: Vec<(&mut S, &mut [&mut [f32]])> = stats
        .iter_mut()
        .zip(planes.chunks_mut(per_channel.max(1)))
        .collect();
    for_each_band(vec![&mut channels[..]], 1, bands, &|_, first, piece| {
        for (i, (stat, planes)) in piece.iter_mut().enumerate() {
            work(first + i, stat, planes);
        }
    });
}

impl BatchNorm2d {
    /// The training-mode forward pass over `bands` channel bands: batch
    /// statistics, running-statistics update, `x̂` kept for backward.
    fn forward_train_in_bands(&mut self, xs: &Batch<'_>, bands: usize) -> Vec<Tensor3> {
        let n = xs.len();
        let (c, h, w) = xs[0].shape();
        let m = (n * h * w) as f32;
        let (gamma, beta, eps) = (&self.gamma, &self.beta, self.eps);
        // x̂ of every sample, then the output of every sample.
        let mut tensors: Vec<Tensor3> = (0..2 * n).map(|_| Tensor3::zeros(c, h, w)).collect();
        // (mean, var, inv_std) per channel.
        let mut stats = vec![(0.0f32, 0.0f32, 0.0f32); c];
        for_each_channel(&mut tensors, &mut stats, bands, |ci, stat, planes| {
            // Each chain visits samples in order, elements in order.
            let mut mean = 0.0f32;
            for x in xs.iter() {
                for &v in x.channel(ci) {
                    mean += v;
                }
            }
            mean /= m;
            let mut var = 0.0f32;
            for x in xs.iter() {
                for &v in x.channel(ci) {
                    let d = v - mean;
                    var += d * d;
                }
            }
            var /= m;
            let inv_std = 1.0 / (var + eps).sqrt();
            let (xhats, outs) = planes.split_at_mut(n);
            for ((x, xhat), out) in xs.iter().zip(xhats).zip(outs) {
                for ((&v, xh), o) in x.channel(ci).iter().zip(xhat.iter_mut()).zip(out.iter_mut()) {
                    *xh = (v - mean) * inv_std;
                    *o = gamma[ci] * *xh + beta[ci];
                }
            }
            *stat = (mean, var, inv_std);
        });
        for (ci, &(mean, var, _)) in stats.iter().enumerate() {
            self.running_mean[ci] = (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean;
            self.running_var[ci] = (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var;
        }
        let outs = tensors.split_off(n);
        self.ctx_xhat = tensors;
        self.ctx_inv_std = stats.iter().map(|&(_, _, inv_std)| inv_std).collect();
        outs
    }

    /// The backward pass over `bands` channel bands.
    fn backward_in_bands(&mut self, grads: &[Tensor3], bands: usize) -> Vec<Tensor3> {
        let (c, h, w) = grads[0].shape();
        let m = (grads.len() * h * w) as f32;
        let (gamma, inv_std, xhats) = (&self.gamma, &self.ctx_inv_std, &self.ctx_xhat);
        let mut dins: Vec<Tensor3> = grads.iter().map(|_| Tensor3::zeros(c, h, w)).collect();
        // (Σ dy, Σ dy·x̂) per channel.
        let mut sums = vec![(0.0f32, 0.0f32); c];
        for_each_channel(&mut dins, &mut sums, bands, |ci, sum, planes| {
            // Each chain visits samples in order, elements in order.
            let (mut sum_dy, mut sum_dy_xhat) = (0.0f32, 0.0f32);
            for (g, xhat) in grads.iter().zip(xhats) {
                for (gv, xh) in g.channel(ci).iter().zip(xhat.channel(ci)) {
                    sum_dy += gv;
                    sum_dy_xhat += gv * xh;
                }
            }
            // dx = (gamma * inv_std / m) * (m*dy − Σdy − x̂·Σ(dy·x̂))
            let scale = gamma[ci] * inv_std[ci] / m;
            for ((g, xhat), din) in grads.iter().zip(xhats).zip(planes.iter_mut()) {
                for ((dy, xh), d) in g.channel(ci).iter().zip(xhat.channel(ci)).zip(din.iter_mut()) {
                    *d = scale * (m * dy - sum_dy - xh * sum_dy_xhat);
                }
            }
            *sum = (sum_dy, sum_dy_xhat);
        });
        for (ci, &(sum_dy, sum_dy_xhat)) in sums.iter().enumerate() {
            self.dgamma[ci] += sum_dy_xhat;
            self.dbeta[ci] += sum_dy;
        }
        dins
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_clone(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(self.clone()))
    }

    fn shard_blockers(&self, out: &mut Vec<String>) {
        // Batch statistics are cross-sample (a worker sees only its
        // slice) and the running EMAs are visit-order state.
        out.push(self.name.clone());
    }

    fn forward<'a>(&mut self, xs: Batch<'a>, _ctx: &mut ExecutionContext, train: bool) -> Batch<'a> {
        assert!(!xs.is_empty(), "{}: empty batch", self.name);
        let (c, h, w) = xs[0].shape();
        assert_eq!(c, self.channels, "{}: channel mismatch", self.name);
        for x in xs.iter() {
            assert_eq!(x.shape(), (c, h, w), "{}: mixed-shape batch", self.name);
        }

        if train {
            let bands = bands_for(c, xs.len() * c * h * w);
            self.forward_train_in_bands(&xs, bands).into()
        } else {
            let outs: Batch<'static> = xs
                .iter()
                .map(|x| {
                    let mut out = Tensor3::zeros(c, h, w);
                    for ci in 0..c {
                        let inv = 1.0 / (self.running_var[ci] + self.eps).sqrt();
                        for y in 0..h {
                            for xi in 0..w {
                                let xh = (x.get(ci, y, xi) - self.running_mean[ci]) * inv;
                                out.set(ci, y, xi, self.gamma[ci] * xh + self.beta[ci]);
                            }
                        }
                    }
                    out
                })
                .collect();
            outs
        }
    }

    fn backward(
        &mut self,
        grads: Vec<Tensor3>,
        _ctx: &mut ExecutionContext,
        _streams: &StepStreams,
    ) -> Vec<Tensor3> {
        assert_eq!(
            grads.len(),
            self.ctx_xhat.len(),
            "{}: no stored context",
            self.name
        );
        let (c, h, w) = grads[0].shape();
        self.backward_in_bands(&grads, bands_for(c, grads.len() * c * h * w))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.gamma, &mut self.dgamma);
        f(&mut self.beta, &mut self.dbeta);
    }

    fn zero_grads(&mut self) {
        self.dgamma.fill(0.0);
        self.dbeta.fill(0.0);
    }

    fn collect_state(&self, out: &mut Vec<LayerState>) {
        // Running statistics are not visited by the optimizer but drive
        // eval-mode normalization, so they belong in the snapshot too.
        out.push(LayerState::Params {
            layer: self.name.clone(),
            tensors: vec![
                self.gamma.clone(),
                self.beta.clone(),
                self.running_mean.clone(),
                self.running_var.clone(),
            ],
        });
    }

    fn restore_state(&mut self, state: &LayerState) -> Result<bool, String> {
        match state {
            LayerState::Params { layer, tensors } if *layer == self.name => match tensors.as_slice() {
                [g, b, rm, rv] if [g, b, rm, rv].iter().all(|t| t.len() == self.channels) => {
                    self.gamma.copy_from_slice(g);
                    self.beta.copy_from_slice(b);
                    self.running_mean.copy_from_slice(rm);
                    self.running_var.copy_from_slice(rv);
                    Ok(true)
                }
                _ => Err(format!(
                    "batchnorm layer {:?}: snapshot params do not match 4×{}",
                    self.name, self.channels
                )),
            },
            _ => Ok(false),
        }
    }

    fn param_count(&self) -> usize {
        2 * self.channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sparsetrain_tensor::init::sample_standard_normal;

    #[test]
    fn forward_normalizes_batch() {
        let mut bn = BatchNorm2d::new("bn", 2);
        let mut rng = StdRng::seed_from_u64(0);
        let xs: Vec<Tensor3> = (0..4)
            .map(|_| Tensor3::from_fn(2, 4, 4, |_, _, _| sample_standard_normal(&mut rng) * 3.0 + 5.0))
            .collect();
        let out = bn.forward(xs.into(), &mut ExecutionContext::scalar(), true);
        // Per-channel mean ~0, var ~1 across the batch.
        for ci in 0..2 {
            let vals: Vec<f32> = out.iter().flat_map(|o| o.channel(ci).to_vec()).collect();
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ci} var {var}");
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        // Check d loss/d x for loss = <dout, BN(x)> at a few positions.
        let mut rng = StdRng::seed_from_u64(1);
        let mk_batch = |rng: &mut StdRng| -> Vec<Tensor3> {
            (0..2)
                .map(|_| Tensor3::from_fn(1, 2, 2, |_, _, _| sample_standard_normal(rng)))
                .collect()
        };
        let xs = mk_batch(&mut rng);
        let dout: Vec<Tensor3> = (0..2)
            .map(|_| Tensor3::from_fn(1, 2, 2, |_, _, _| sample_standard_normal(&mut rng)))
            .collect();

        let loss = |xs: &[Tensor3], dout: &[Tensor3]| -> f32 {
            let mut bn = BatchNorm2d::new("bn", 1);
            let out = bn.forward(xs.to_vec().into(), &mut ExecutionContext::scalar(), true);
            out.iter()
                .zip(dout)
                .map(|(o, d)| {
                    o.as_slice()
                        .iter()
                        .zip(d.as_slice())
                        .map(|(a, b)| a * b)
                        .sum::<f32>()
                })
                .sum()
        };

        let mut bn = BatchNorm2d::new("bn", 1);
        bn.forward(xs.clone().into(), &mut ExecutionContext::scalar(), true);
        let din = bn.backward(
            dout.clone(),
            &mut ExecutionContext::scalar(),
            &StepStreams::new(0, 0, 0),
        );

        let eps = 1e-2;
        for &(s, y, x) in &[(0usize, 0usize, 0usize), (1, 1, 1), (0, 1, 0)] {
            let mut plus = xs.clone();
            plus[s].add_at(0, y, x, eps);
            let mut minus = xs.clone();
            minus[s].add_at(0, y, x, -eps);
            let fd = (loss(&plus, &dout) - loss(&minus, &dout)) / (2.0 * eps);
            let an = din[s].get(0, y, x);
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs().max(an.abs())),
                "sample {s} ({y},{x}): fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn backward_densifies_sparse_gradient() {
        // The key property motivating the paper: a sparse dout becomes a
        // dense din after BN backward.
        let mut bn = BatchNorm2d::new("bn", 1);
        let mut rng = StdRng::seed_from_u64(2);
        let xs: Vec<Tensor3> = (0..2)
            .map(|_| Tensor3::from_fn(1, 4, 4, |_, _, _| sample_standard_normal(&mut rng)))
            .collect();
        bn.forward(xs.into(), &mut ExecutionContext::scalar(), true);
        let mut g = Tensor3::zeros(1, 4, 4);
        g.set(0, 1, 1, 1.0); // a single non-zero gradient
        let din = bn.backward(
            vec![g, Tensor3::zeros(1, 4, 4)],
            &mut ExecutionContext::scalar(),
            &StepStreams::new(0, 0, 0),
        );
        let nnz = din[0].as_slice().iter().filter(|&&v| v != 0.0).count();
        assert!(nnz > 8, "BN backward should densify, nnz = {nnz}");
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new("bn", 1);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let xs: Vec<Tensor3> = (0..4)
                .map(|_| Tensor3::from_fn(1, 2, 2, |_, _, _| sample_standard_normal(&mut rng) * 2.0 + 1.0))
                .collect();
            bn.forward(xs.into(), &mut ExecutionContext::scalar(), true);
        }
        // Eval on the same distribution should be roughly normalized.
        let xs: Vec<Tensor3> = (0..16)
            .map(|_| Tensor3::from_fn(1, 2, 2, |_, _, _| sample_standard_normal(&mut rng) * 2.0 + 1.0))
            .collect();
        let out = bn.forward(xs.into(), &mut ExecutionContext::scalar(), false);
        let vals: Vec<f32> = out.iter().flat_map(|o| o.as_slice().to_vec()).collect();
        let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
        assert!(mean.abs() < 0.4, "eval mean {mean} not near 0");
    }

    /// The pre-banding training forward, kept verbatim: every channel's
    /// sums interleaved sample by sample on one thread.
    fn oracle_forward(bn: &mut BatchNorm2d, xs: &[Tensor3]) -> Vec<Tensor3> {
        let (c, h, w) = xs[0].shape();
        let m = (xs.len() * h * w) as f32;
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for x in xs {
            for (ci, m) in mean.iter_mut().enumerate() {
                for &v in x.channel(ci) {
                    *m += v;
                }
            }
        }
        for mu in &mut mean {
            *mu /= m;
        }
        for x in xs {
            for (ci, vv) in var.iter_mut().enumerate() {
                for &v in x.channel(ci) {
                    let d = v - mean[ci];
                    *vv += d * d;
                }
            }
        }
        for v in &mut var {
            *v /= m;
        }
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + bn.eps).sqrt()).collect();

        for ci in 0..c {
            bn.running_mean[ci] = (1.0 - bn.momentum) * bn.running_mean[ci] + bn.momentum * mean[ci];
            bn.running_var[ci] = (1.0 - bn.momentum) * bn.running_var[ci] + bn.momentum * var[ci];
        }

        let mut outs = Vec::with_capacity(xs.len());
        let mut xhats = Vec::with_capacity(xs.len());
        for x in xs {
            let mut xhat = Tensor3::zeros(c, h, w);
            let mut out = Tensor3::zeros(c, h, w);
            for ci in 0..c {
                for y in 0..h {
                    for xi in 0..w {
                        let xh = (x.get(ci, y, xi) - mean[ci]) * inv_std[ci];
                        xhat.set(ci, y, xi, xh);
                        out.set(ci, y, xi, bn.gamma[ci] * xh + bn.beta[ci]);
                    }
                }
            }
            outs.push(out);
            xhats.push(xhat);
        }
        bn.ctx_xhat = xhats;
        bn.ctx_inv_std = inv_std;
        outs
    }

    /// The pre-banding backward, kept verbatim.
    fn oracle_backward(bn: &mut BatchNorm2d, grads: &[Tensor3]) -> Vec<Tensor3> {
        let (c, h, w) = grads[0].shape();
        let m = (grads.len() * h * w) as f32;
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        for (g, xhat) in grads.iter().zip(&bn.ctx_xhat) {
            for ci in 0..c {
                for (gv, xh) in g.channel(ci).iter().zip(xhat.channel(ci)) {
                    sum_dy[ci] += gv;
                    sum_dy_xhat[ci] += gv * xh;
                }
            }
        }
        for ci in 0..c {
            bn.dgamma[ci] += sum_dy_xhat[ci];
            bn.dbeta[ci] += sum_dy[ci];
        }
        grads
            .iter()
            .zip(&bn.ctx_xhat)
            .map(|(g, xhat)| {
                let mut din = Tensor3::zeros(c, h, w);
                for ci in 0..c {
                    let scale = bn.gamma[ci] * bn.ctx_inv_std[ci] / m;
                    for y in 0..h {
                        for xi in 0..w {
                            let dy = g.get(ci, y, xi);
                            let xh = xhat.get(ci, y, xi);
                            din.set(ci, y, xi, scale * (m * dy - sum_dy[ci] - xh * sum_dy_xhat[ci]));
                        }
                    }
                }
                din
            })
            .collect()
    }

    /// Everything a training step leaves behind, as bits.
    fn step_bits(bn: &BatchNorm2d, outs: &[Tensor3], dins: &[Tensor3]) -> Vec<Vec<u32>> {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let tensors = |ts: &[Tensor3]| ts.iter().flat_map(|t| bits(t.as_slice())).collect::<Vec<u32>>();
        vec![
            tensors(outs),
            tensors(&bn.ctx_xhat),
            tensors(dins),
            bits(&bn.dgamma),
            bits(&bn.dbeta),
            bits(&bn.running_mean),
            bits(&bn.running_var),
            bits(&bn.ctx_inv_std),
        ]
    }

    /// A band owns whole channels, so every sum keeps its order: outputs,
    /// `x̂`, `din`, `dgamma`, `dbeta` and the running statistics are the
    /// pre-banding loops' bits at every band count.
    #[test]
    fn channel_bands_leave_every_bit_alone() {
        for channels in [8usize, 19] {
            let mut rng = StdRng::seed_from_u64(channels as u64);
            let batch = |rng: &mut StdRng| -> Vec<Tensor3> {
                (0..16)
                    .map(|_| {
                        Tensor3::from_fn(channels, 5, 3, |_, _, _| sample_standard_normal(rng) * 2.0 + 0.5)
                    })
                    .collect()
            };
            let (xs, grads) = (batch(&mut rng), batch(&mut rng));
            let mut fresh = BatchNorm2d::new("bn", channels);
            for (ci, (g, b)) in fresh.gamma.iter_mut().zip(&mut fresh.beta).enumerate() {
                (*g, *b) = (0.5 + ci as f32 * 0.1, ci as f32 * 0.01 - 0.05);
            }
            let want = {
                let mut bn = fresh.clone();
                let outs = oracle_forward(&mut bn, &xs);
                let dins = oracle_backward(&mut bn, &grads);
                step_bits(&bn, &outs, &dins)
            };
            for bands in [1usize, 2, 3, 4, 7] {
                let mut bn = fresh.clone();
                let outs = bn.forward_train_in_bands(&Batch::borrowed(&xs), bands);
                let dins = bn.backward_in_bands(&grads, bands);
                assert_eq!(
                    step_bits(&bn, &outs, &dins),
                    want,
                    "{channels} channels on {bands} bands"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "bn_mixed: mixed-shape batch")]
    fn forward_rejects_a_mixed_shape_batch() {
        let mut bn = BatchNorm2d::new("bn_mixed", 2);
        let xs = vec![Tensor3::zeros(2, 4, 4), Tensor3::zeros(2, 2, 8)];
        bn.forward(xs.into(), &mut ExecutionContext::scalar(), true);
    }

    #[test]
    fn visit_params_exposes_gamma_beta() {
        let mut bn = BatchNorm2d::new("bn", 3);
        let mut count = 0;
        bn.visit_params(&mut |p, _| {
            assert_eq!(p.len(), 3);
            count += 1;
        });
        assert_eq!(count, 2);
    }
}
