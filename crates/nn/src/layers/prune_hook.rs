//! Gradient-pruning hook layer.
//!
//! Identity in the forward direction; in the backward direction it applies
//! the paper's stochastic pruning to the activation gradients flowing
//! through it. Placed directly after a CONV layer (Conv-ReLU structure) or
//! between CONV and BN (Conv-BN-ReLU structure) so that its backward sees
//! exactly the tensor the paper's Fig. 4 marks as the pruning target: the
//! gradient about to become that CONV layer's `dO` operand.

use crate::layer::{Batch, Layer};
use sparsetrain_checkpoint::{LayerState, PrunerState};
use sparsetrain_core::prune::{
    prune_pass, LayerPruner, PruneConfig, PruneOutcome, PrunerSnapshot, SiteStats, StepStreams,
};
use sparsetrain_sparse::ExecutionContext;
use sparsetrain_tensor::Tensor3;

/// A pruning point in the backward graph.
///
/// Each sample of the batch draws from its own counter-based RNG stream
/// (derived from the step's [`StepStreams`] by this hook's name and the
/// sample index), so [`prune_pass`] may band the `samples × elements`
/// space across the rayon pool and the pruned gradients stay
/// bitwise-identical to the sequential order at every thread count — the
/// session's engine plays no part. Dropping a sample from a batch leaves
/// every other sample's decisions unchanged.
#[derive(Clone)]
pub struct PruneHook {
    name: String,
    pruner: Option<LayerPruner>,
    tap_enabled: bool,
    tapped: Option<Vec<f32>>,
    /// While frozen (probe passes), prune under the predicted threshold
    /// but leave the pruner's FIFO and statistics untouched.
    frozen: bool,
    /// Shard-worker mode, when set: backward prunes statelessly under the
    /// coordinator-broadcast threshold and records [`SiteStats`] instead
    /// of stepping `pruner` (whose clone is a stale template in a worker).
    shard: Option<ShardMode>,
}

/// Per-worker pruning state of one hook: the threshold broadcast for the
/// current step and the stats recorded since the coordinator last drained
/// them.
#[derive(Clone, Default)]
struct ShardMode {
    tau: Option<f64>,
    recorded: Vec<SiteStats>,
}

impl PruneHook {
    /// Creates a hook. `config: None` disables pruning (the hook becomes a
    /// pure pass-through, used for dense baselines).
    pub fn new(name: impl Into<String>, config: Option<PruneConfig>) -> Self {
        Self {
            name: name.into(),
            pruner: config.map(LayerPruner::new),
            tap_enabled: false,
            tapped: None,
            frozen: false,
            shard: None,
        }
    }

    /// Access to the underlying pruner's statistics.
    pub fn pruner(&self) -> Option<&LayerPruner> {
        self.pruner.as_ref()
    }
}

impl Layer for PruneHook {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward<'a>(&mut self, xs: Batch<'a>, _ctx: &mut ExecutionContext, _train: bool) -> Batch<'a> {
        xs
    }

    fn backward(
        &mut self,
        mut grads: Vec<Tensor3>,
        _ctx: &mut ExecutionContext,
        streams: &StepStreams,
    ) -> Vec<Tensor3> {
        if self.tap_enabled {
            let mut values = Vec::new();
            for g in &grads {
                values.extend_from_slice(g.as_slice());
            }
            self.tapped = Some(values);
        }
        if let Some(pruner) = &mut self.pruner {
            // The whole batch's gradients form one logical vector g for
            // thresholding (Algorithm 1 treats one batch's gradients per
            // layer jointly); each sample draws from its own stream — the
            // step coordinates' sample base shifts every draw to its
            // global batch position when this backward covers only a
            // shard worker's slice.
            let stream = streams.site(&self.name);
            let mut parts: Vec<&mut [f32]> = grads.iter_mut().map(|g| g.as_mut_slice()).collect();
            // One pass in every mode — under the coordinator-broadcast
            // threshold on a shard worker, this pruner's own prediction
            // otherwise — and the modes differ only in what becomes of the
            // stats: a probe (frozen) drops them, a worker records them for
            // the coordinator, a local step absorbs them.
            let tau = match &self.shard {
                Some(shard) if !self.frozen => shard.tau,
                _ => pruner.predicted_threshold(),
            };
            let stats = prune_pass(tau, &mut parts, &stream);
            if !self.frozen {
                match &mut self.shard {
                    Some(shard) => shard.recorded.push(stats),
                    None => pruner.absorb_batch(&stats),
                }
            }
        }
        grads
    }

    fn set_prune_frozen(&mut self, frozen: bool) {
        self.frozen = frozen;
    }

    fn grad_densities(&self, out: &mut Vec<(String, f64)>) {
        if let Some(p) = &self.pruner {
            if let Some(d) = p.stats().mean_density() {
                out.push((self.name.clone(), d));
            }
        }
    }

    fn set_grad_tap(&mut self, enable: bool) {
        self.tap_enabled = enable;
        if !enable {
            self.tapped = None;
        }
    }

    fn take_tapped_grads(&mut self, out: &mut Vec<(String, Vec<f32>)>) {
        if let Some(values) = self.tapped.take() {
            out.push((self.name.clone(), values));
        }
    }

    fn reset_density_stats(&mut self) {
        if let Some(pruner) = &mut self.pruner {
            pruner.reset_density_stats();
        }
    }

    fn collect_state(&self, out: &mut Vec<LayerState>) {
        if let Some(pruner) = &self.pruner {
            out.push(LayerState::Pruner {
                layer: self.name.clone(),
                state: Box::new(pruner_state_from(&pruner.snapshot_state())),
            });
        }
    }

    fn try_clone(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(self.clone()))
    }

    fn set_shard_prune(&mut self, worker: bool) {
        self.shard = worker.then(ShardMode::default);
    }

    fn set_shard_taus(&mut self, taus: &[(String, Option<f64>)]) {
        if let Some(shard) = &mut self.shard {
            if let Some((_, tau)) = taus.iter().find(|(n, _)| *n == self.name) {
                shard.tau = *tau;
            }
        }
    }

    fn take_shard_stats(&mut self, out: &mut Vec<(String, SiteStats)>) {
        if let Some(shard) = &mut self.shard {
            for stats in shard.recorded.drain(..) {
                out.push((self.name.clone(), stats));
            }
        }
    }

    fn collect_prune_taus(&self, out: &mut Vec<(String, Option<f64>)>) {
        if let Some(pruner) = &self.pruner {
            out.push((self.name.clone(), pruner.predicted_threshold()));
        }
    }

    fn absorb_prune_stats(&mut self, stats: &[(String, SiteStats)]) {
        if let Some(pruner) = &mut self.pruner {
            if let Some((_, batch)) = stats.iter().find(|(n, _)| *n == self.name) {
                pruner.absorb_batch(batch);
            }
        }
    }

    fn restore_state(&mut self, state: &LayerState) -> Result<bool, String> {
        match state {
            LayerState::Pruner { layer, state } if *layer == self.name => {
                let pruner = self.pruner.as_mut().ok_or_else(|| {
                    format!(
                        "prune hook {:?} is disabled but snapshot has pruner state",
                        self.name
                    )
                })?;
                pruner
                    .restore_state(&pruner_snapshot_from(state))
                    .map_err(|e| e.to_string())?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

/// Core → checkpoint plain-data conversion.
fn pruner_state_from(snap: &PrunerSnapshot) -> PrunerState {
    PrunerState {
        target_sparsity: snap.target_sparsity,
        fifo_depth: snap.fifo_depth as u64,
        fifo: snap.fifo.clone(),
        batches: snap.batches as u64,
        last_outcome: snap
            .last_outcome
            .map(|o| [o.kept as u64, o.snapped as u64, o.zeroed as u64]),
        last_density: snap.last_density,
        density_sum: snap.density_sum,
        density_count: snap.density_count as u64,
        last_predicted_tau: snap.last_predicted_tau,
        last_determined_tau: snap.last_determined_tau,
    }
}

/// Checkpoint → core plain-data conversion.
fn pruner_snapshot_from(state: &PrunerState) -> PrunerSnapshot {
    PrunerSnapshot {
        target_sparsity: state.target_sparsity,
        fifo_depth: state.fifo_depth as usize,
        fifo: state.fifo.clone(),
        batches: state.batches as usize,
        last_outcome: state.last_outcome.map(|[kept, snapped, zeroed]| PruneOutcome {
            kept: kept as usize,
            snapped: snapped as usize,
            zeroed: zeroed as usize,
        }),
        last_density: state.last_density,
        density_sum: state.density_sum,
        density_count: state.density_count as usize,
        last_predicted_tau: state.last_predicted_tau,
        last_determined_tau: state.last_determined_tau,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sparsetrain_tensor::init::sample_standard_normal;

    fn batch(rng: &mut StdRng, n: usize) -> Vec<Tensor3> {
        (0..n)
            .map(|_| Tensor3::from_fn(2, 4, 4, |_, _, _| sample_standard_normal(rng) * 0.1))
            .collect()
    }

    /// The trainer-side stream coordinates of optimizer step `step`.
    fn step(step: u64) -> StepStreams {
        StepStreams::new(0, 0, step)
    }

    #[test]
    fn disabled_hook_is_identity() {
        let mut hook = PruneHook::new("h", None);
        let mut rng = StdRng::seed_from_u64(0);
        let grads = batch(&mut rng, 2);
        let before = grads.clone();
        let after = hook.backward(grads, &mut ExecutionContext::scalar(), &step(0));
        assert_eq!(after, before);
        assert!(hook.pruner().is_none());
    }

    #[test]
    fn enabled_hook_prunes_after_warmup() {
        let mut hook = PruneHook::new("h", Some(PruneConfig::new(0.9, 2)));
        let mut rng = StdRng::seed_from_u64(1);
        for s in 0..4 {
            let grads = batch(&mut rng, 4);
            hook.backward(grads, &mut ExecutionContext::scalar(), &step(s));
        }
        let grads = batch(&mut rng, 4);
        let out = hook.backward(grads, &mut ExecutionContext::scalar(), &step(4));
        let nnz: usize = out
            .iter()
            .map(|g| g.as_slice().iter().filter(|&&v| v != 0.0).count())
            .sum();
        let total: usize = out.iter().map(Tensor3::len).sum();
        assert!(
            (nnz as f64) < 0.6 * total as f64,
            "hook failed to sparsify: {nnz}/{total}"
        );
    }

    #[test]
    fn forward_is_identity() {
        let mut hook = PruneHook::new("h", Some(PruneConfig::paper_default()));
        let mut rng = StdRng::seed_from_u64(2);
        let xs = batch(&mut rng, 1);
        let before = xs.clone();
        let out = hook.forward(xs.into(), &mut ExecutionContext::scalar(), true);
        assert_eq!(out.into_owned(), before);
    }

    #[test]
    fn tap_captures_pre_prune_gradients() {
        let mut hook = PruneHook::new("h", Some(PruneConfig::new(0.9, 1)));
        let mut rng = StdRng::seed_from_u64(9);
        // Warm the FIFO so pruning is active.
        hook.backward(batch(&mut rng, 2), &mut ExecutionContext::scalar(), &step(0));
        hook.set_grad_tap(true);
        let grads = batch(&mut rng, 2);
        let original: Vec<f32> = grads.iter().flat_map(|g| g.as_slice().to_vec()).collect();
        let out = hook.backward(grads, &mut ExecutionContext::scalar(), &step(1));
        let mut tapped = Vec::new();
        hook.take_tapped_grads(&mut tapped);
        assert_eq!(tapped.len(), 1);
        assert_eq!(tapped[0].1, original, "tap must see pre-prune values");
        let pruned: Vec<f32> = out.iter().flat_map(|g| g.as_slice().to_vec()).collect();
        assert_ne!(pruned, original, "pruning must still run");
        // Taking drains the buffer.
        let mut again = Vec::new();
        hook.take_tapped_grads(&mut again);
        assert!(again.is_empty());
        // Disabling clears any stored tap.
        hook.backward(batch(&mut rng, 1), &mut ExecutionContext::scalar(), &step(2));
        hook.set_grad_tap(false);
        let mut cleared = Vec::new();
        hook.take_tapped_grads(&mut cleared);
        assert!(cleared.is_empty());
    }

    #[test]
    fn densities_reported() {
        let mut hook = PruneHook::new("h", Some(PruneConfig::new(0.8, 1)));
        let mut rng = StdRng::seed_from_u64(3);
        for s in 0..3 {
            let grads = batch(&mut rng, 2);
            hook.backward(grads, &mut ExecutionContext::scalar(), &step(s));
        }
        let mut out = Vec::new();
        hook.grad_densities(&mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].1 > 0.0 && out[0].1 <= 1.0);
    }

    /// A reset clears the reported mean density — the next report covers
    /// only the batches after it — and leaves the thresholds alone.
    #[test]
    fn reset_density_stats_restarts_the_mean_and_keeps_the_thresholds() {
        let mut hook = PruneHook::new("h", Some(PruneConfig::new(0.8, 2)));
        let mut rng = StdRng::seed_from_u64(4);
        for s in 0..4 {
            hook.backward(batch(&mut rng, 2), &mut ExecutionContext::scalar(), &step(s));
        }
        let pruner = hook.pruner().unwrap();
        let (tau, batches) = (pruner.predicted_threshold(), pruner.stats().batches);
        assert!(pruner.stats().mean_density().is_some());

        hook.reset_density_stats();
        let pruner = hook.pruner().unwrap();
        assert_eq!(pruner.stats().mean_density(), None, "the reset cleared the mean");
        assert_eq!(pruner.predicted_threshold(), tau, "the FIFO stays");
        assert_eq!(pruner.stats().batches, batches, "the batch count stays");
        let mut out = Vec::new();
        hook.grad_densities(&mut out);
        assert!(out.is_empty(), "nothing to report until the next batch");

        hook.backward(batch(&mut rng, 2), &mut ExecutionContext::scalar(), &step(4));
        let stats = hook.pruner().unwrap().stats();
        assert_eq!(
            stats.mean_density(),
            stats.last_density(),
            "the mean covers one batch"
        );
    }

    #[test]
    fn dropping_a_sample_leaves_others_untouched() {
        // Per-sample streams: with the applied threshold held fixed (both
        // hooks warm their 1-deep FIFO on the same batch), pruning a batch
        // with the last sample dropped reproduces the surviving samples'
        // decisions bit for bit. The old shared-stream design could not do
        // this — earlier samples' draw *counts* shifted every later draw.
        let mut rng = StdRng::seed_from_u64(5);
        let warm = batch(&mut rng, 4);
        let grads = batch(&mut rng, 4);
        let run = |gs: Vec<Tensor3>| -> Vec<Vec<f32>> {
            let mut hook = PruneHook::new("h", Some(PruneConfig::new(0.9, 1)));
            let mut ctx = ExecutionContext::scalar();
            hook.backward(warm.clone(), &mut ctx, &step(0)); // identical warm-up
            hook.backward(gs, &mut ctx, &step(1))
                .into_iter()
                .map(|g| g.as_slice().to_vec())
                .collect()
        };
        let full = run(grads.clone());
        let dropped = run(grads[..3].to_vec());
        assert_eq!(
            &full[..3],
            &dropped[..],
            "dropping the trailing sample changed earlier samples' pruning"
        );
    }
}
