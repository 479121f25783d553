//! The layer abstraction: batched forward/backward on an execution context.

use sparsetrain_checkpoint::LayerState;
use sparsetrain_core::dataflow::LayerTrace;
use sparsetrain_core::prune::{SiteStats, StepStreams};
use sparsetrain_sparse::ExecutionContext;
use sparsetrain_tensor::Tensor3;
use std::borrow::Cow;

/// A batch of per-sample feature maps flowing through the network.
///
/// Each sample is a [`Cow`]: the batch can *borrow* images straight from
/// the dataset (no per-batch cloning in the trainer) and layers take
/// ownership only where they genuinely need it — a pass-through layer
/// (prune hook, eval-mode dropout) forwards borrowed samples untouched,
/// a mutating layer clones on first write, and compute layers emit owned
/// outputs.
///
/// ```
/// use sparsetrain_nn::layer::Batch;
/// use sparsetrain_tensor::Tensor3;
///
/// let images = vec![Tensor3::zeros(1, 2, 2), Tensor3::zeros(1, 2, 2)];
/// let batch = Batch::borrowed(&images); // no clone
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch[0].shape(), (1, 2, 2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Batch<'a> {
    items: Vec<Cow<'a, Tensor3>>,
}

impl<'a> Batch<'a> {
    /// A batch owning its samples.
    pub fn owned(xs: Vec<Tensor3>) -> Batch<'static> {
        Batch {
            items: xs.into_iter().map(Cow::Owned).collect(),
        }
    }

    /// A batch borrowing every sample from `xs`.
    pub fn borrowed(xs: &'a [Tensor3]) -> Batch<'a> {
        Batch {
            items: xs.iter().map(Cow::Borrowed).collect(),
        }
    }

    /// A batch borrowing the samples of `xs` selected by `indices` (the
    /// shuffled mini-batch path of the trainer).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn gather(xs: &'a [Tensor3], indices: &[usize]) -> Batch<'a> {
        Batch {
            items: indices.iter().map(|&i| Cow::Borrowed(&xs[i])).collect(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the samples read-only.
    pub fn iter(&self) -> BatchIter<'_, 'a> {
        BatchIter {
            inner: self.items.iter(),
        }
    }

    /// Iterates over the samples mutably, cloning borrowed samples on
    /// first write (clone-on-write).
    pub fn iter_mut(&mut self) -> BatchIterMut<'_, 'a> {
        BatchIterMut {
            inner: self.items.iter_mut(),
        }
    }

    /// Converts into owned tensors, cloning only samples still borrowed.
    pub fn into_owned(self) -> Vec<Tensor3> {
        self.items.into_iter().map(Cow::into_owned).collect()
    }
}

impl<'b, 'a> IntoIterator for &'b Batch<'a> {
    type Item = &'b Tensor3;
    type IntoIter = BatchIter<'b, 'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Clone-on-write mutable iterator over a [`Batch`]'s samples.
pub struct BatchIterMut<'b, 'a> {
    inner: std::slice::IterMut<'b, Cow<'a, Tensor3>>,
}

impl<'b> Iterator for BatchIterMut<'b, '_> {
    type Item = &'b mut Tensor3;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(Cow::to_mut)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Read-only iterator over a [`Batch`]'s samples.
pub struct BatchIter<'b, 'a> {
    inner: std::slice::Iter<'b, Cow<'a, Tensor3>>,
}

impl<'b> Iterator for BatchIter<'b, '_> {
    type Item = &'b Tensor3;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|c| c.as_ref())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl std::ops::Index<usize> for Batch<'_> {
    type Output = Tensor3;

    fn index(&self, index: usize) -> &Tensor3 {
        &self.items[index]
    }
}

impl From<Vec<Tensor3>> for Batch<'static> {
    fn from(xs: Vec<Tensor3>) -> Self {
        Batch::owned(xs)
    }
}

impl FromIterator<Tensor3> for Batch<'static> {
    fn from_iter<I: IntoIterator<Item = Tensor3>>(iter: I) -> Self {
        Batch {
            items: iter.into_iter().map(Cow::Owned).collect(),
        }
    }
}

/// A trainable network layer operating on a batch of per-sample tensors.
///
/// Layers own their parameters, gradients and any context captured during
/// the forward pass that the backward pass needs. The batch is a
/// [`Batch`] (one feature map per sample, possibly borrowed from the
/// dataset) so that batch-statistics layers (BatchNorm) see the whole
/// batch while convolution executes one batched engine call.
///
/// Both passes receive the session's [`ExecutionContext`] — the engine
/// resolved once (by name, through the registry) plus, on `auto`, its
/// plan — so no layer ever re-resolves an engine token.
///
/// Beyond compute, the trait carries the instrumentation the experiments
/// need: parameter visitation for the optimizer, activation-gradient
/// density reporting (Table II), and dataflow trace capture for the
/// accelerator simulator (Figs. 8–9).
///
/// Layers are `Send`: the sharded trainer ([`crate::shard`]) moves
/// network replicas onto worker threads, so layer internals must be
/// thread-portable (plain buffers, counter-based RNGs — not `Rc`).
pub trait Layer: Send {
    /// Human-readable layer name (unique within a network is helpful but
    /// not required).
    fn name(&self) -> &str;

    /// Consumes the batch of inputs and produces the batch of outputs.
    /// `train` selects training behaviour (batch statistics, context
    /// retention for backward).
    fn forward<'a>(&mut self, xs: Batch<'a>, ctx: &mut ExecutionContext, train: bool) -> Batch<'a>;

    /// Consumes the batch of output gradients and produces the batch of
    /// input gradients, accumulating parameter gradients internally.
    /// `streams` carries the optimizer step's counter-based RNG
    /// coordinates, from which stochastic pruning hooks derive their
    /// per-sample streams — so a backward pass is a pure function of its
    /// inputs and the step coordinates, bitwise-identical at any thread
    /// count and on any engine.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward(…, true)`.
    fn backward(
        &mut self,
        grads: Vec<Tensor3>,
        ctx: &mut ExecutionContext,
        streams: &StepStreams,
    ) -> Vec<Tensor3>;

    /// Visits this layer's direct children, in forward order. Containers
    /// ([`crate::Sequential`], [`crate::residual::ResidualBlock`])
    /// implement this and [`Layer::for_each_child_mut`]; leaves have no
    /// children. Every hook below defaults to calling the same hook on
    /// each child in this order, so a container forwards them all by
    /// implementing the two visitors and a leaf with nothing to do
    /// inherits a no-op.
    fn for_each_child(&self, _f: &mut dyn FnMut(&dyn Layer)) {}

    /// Mutable counterpart of [`Layer::for_each_child`] (same children,
    /// same order).
    fn for_each_child_mut(&mut self, _f: &mut dyn FnMut(&mut dyn Layer)) {}

    /// Visits every `(parameter, gradient)` slice pair, in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.for_each_child_mut(&mut |c| c.visit_params(f));
    }

    /// Clears accumulated parameter gradients.
    fn zero_grads(&mut self) {
        self.for_each_child_mut(&mut |c| c.zero_grads());
    }

    /// Enables or disables dataflow trace capture for the next
    /// forward/backward pass (sample 0 of the batch is traced).
    fn set_capture(&mut self, enable: bool) {
        self.for_each_child_mut(&mut |c| c.set_capture(enable));
    }

    /// Appends any traces captured since `set_capture(true)` to `out`, in
    /// forward order.
    fn collect_traces(&self, out: &mut Vec<LayerTrace>) {
        self.for_each_child(&mut |c| c.collect_traces(out));
    }

    /// Appends `(layer name, last activation-gradient density)` pairs.
    fn grad_densities(&self, out: &mut Vec<(String, f64)>) {
        self.for_each_child(&mut |c| c.grad_densities(out));
    }

    /// Enables or disables gradient tapping at pruning positions: the
    /// next backward pass stores a copy of the *pre-prune* activation
    /// gradients for distribution diagnostics.
    fn set_grad_tap(&mut self, enable: bool) {
        self.for_each_child_mut(&mut |c| c.set_grad_tap(enable));
    }

    /// Moves any tapped gradients out as `(layer name, values)` pairs.
    fn take_tapped_grads(&mut self, out: &mut Vec<(String, Vec<f32>)>) {
        self.for_each_child_mut(&mut |c| c.take_tapped_grads(out));
    }

    /// Resets accumulated density statistics.
    fn reset_density_stats(&mut self) {
        self.for_each_child_mut(&mut |c| c.reset_density_stats());
    }

    /// Freezes (or thaws) pruning state: while frozen, pruning hooks still
    /// prune under their currently-predicted threshold but accumulate no
    /// `Σ|g|`, push no FIFO entry and record no statistics, and `Conv2d`
    /// holds its `dO` density accumulators. Probe passes (trace capture,
    /// gradient taps) freeze the network so inspecting a training run
    /// never perturbs its trajectory or the state a snapshot records.
    /// Layers without such state ignore the call.
    fn set_prune_frozen(&mut self, frozen: bool) {
        self.for_each_child_mut(&mut |c| c.set_prune_frozen(frozen));
    }

    /// Switches layers with a sparse row-dataflow path (`Conv2d`) between
    /// dense execution and engine-driven SRC/MSRC/OSRC execution on the
    /// context's engine. Layers without such a path ignore the call.
    fn set_sparse_execution(&mut self, enabled: bool) {
        self.for_each_child_mut(&mut |c| c.set_sparse_execution(enabled));
    }

    /// Appends this layer's checkpointable state entries to `out`, in a
    /// stable traversal order (parameters, embedded RNGs, density
    /// accumulators, pruner state). Stateless layers append nothing.
    fn collect_state(&self, out: &mut Vec<LayerState>) {
        self.for_each_child(&mut |c| c.collect_state(out));
    }

    /// Offers one snapshot entry back to the layer tree. Returns
    /// `Ok(true)` if this layer consumed it, `Ok(false)` if the entry
    /// belongs to some other layer, and `Err` if the entry names this
    /// layer but does not fit (shape or config mismatch). The default
    /// offers it to each child in order: the first to consume it wins and
    /// the first error propagates.
    fn restore_state(&mut self, state: &LayerState) -> Result<bool, String> {
        let mut result = Ok(false);
        self.for_each_child_mut(&mut |c| {
            if result == Ok(false) {
                result = c.restore_state(state);
            }
        });
        result
    }

    /// Number of trainable parameters (for reporting); the default sums
    /// the children.
    fn param_count(&self) -> usize {
        let mut total = 0;
        self.for_each_child(&mut |c| total += c.param_count());
        total
    }

    /// Attempts to clone this layer into an independent replica (shard
    /// workers run replicas of the coordinator's network). Returns `None`
    /// for layers that cannot be replicated mechanically; composites
    /// return `None` if any child does. Whether a *cloneable* layer is
    /// also *semantically safe* to shard is a separate question —
    /// [`Layer::shard_blockers`] answers that one.
    fn try_clone(&self) -> Option<Box<dyn Layer>> {
        None
    }

    /// Appends the names of layers whose semantics break under sharded
    /// replica execution: cross-sample batch statistics (BatchNorm sees
    /// only its worker's slice, and its running EMAs are visit-order
    /// state) or embedded sequential RNGs (train-mode Dropout draws from
    /// a stream whose position depends on every prior draw). The sharded
    /// trainer refuses construction while this list is non-empty.
    fn shard_blockers(&self, out: &mut Vec<String>) {
        self.for_each_child(&mut |c| c.shard_blockers(out));
    }

    /// Switches pruning hooks between normal (stepping) mode and shard
    /// *worker* mode. In worker mode a hook's backward pass prunes
    /// statelessly under the coordinator-broadcast threshold (set per
    /// step via [`Layer::set_shard_taus`]) and records per-backward
    /// [`SiteStats`] for [`Layer::take_shard_stats`] instead of stepping
    /// its own pruner. Layers without pruning state ignore the call.
    fn set_shard_prune(&mut self, worker: bool) {
        self.for_each_child_mut(&mut |c| c.set_shard_prune(worker));
    }

    /// Broadcasts this step's predicted thresholds to worker-mode pruning
    /// hooks: each hook adopts the entry whose name matches its own.
    fn set_shard_taus(&mut self, taus: &[(String, Option<f64>)]) {
        self.for_each_child_mut(&mut |c| c.set_shard_taus(taus));
    }

    /// Moves the [`SiteStats`] recorded by worker-mode pruning hooks
    /// since the last call out as `(site name, stats)` pairs, in forward
    /// order.
    fn take_shard_stats(&mut self, out: &mut Vec<(String, SiteStats)>) {
        self.for_each_child_mut(&mut |c| c.take_shard_stats(out));
    }

    /// Coordinator side of the broadcast: appends each pruning hook's
    /// `(site name, predicted threshold)` for the upcoming step, in
    /// forward order.
    fn collect_prune_taus(&self, out: &mut Vec<(String, Option<f64>)>) {
        self.for_each_child(&mut |c| c.collect_prune_taus(out));
    }

    /// Coordinator side of the reduction: advances each pruning hook's
    /// authoritative pruner by one batch using the granule-order-reduced
    /// stats whose name matches (see
    /// `sparsetrain_core::prune::LayerPruner::absorb_batch`).
    fn absorb_prune_stats(&mut self, stats: &[(String, SiteStats)]) {
        self.for_each_child_mut(&mut |c| c.absorb_prune_stats(stats));
    }
}
