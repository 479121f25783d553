//! The per-layer pruning state machine — Algorithm 1 of the paper.

use super::fifo::ThresholdFifo;
use super::stochastic::{abs_sum_nonzeros, prune_slice_at, PruneOutcome};
use super::stream::BatchStream;
use super::threshold::{determine_threshold, sigma_hat};
use sparsetrain_sparse::engine::{bands_for, for_each_band, map_in_bands};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configuration of the layer-wise gradient pruner.
///
/// ```
/// use sparsetrain_core::prune::PruneConfig;
/// let cfg = PruneConfig::new(0.9, 4);
/// assert_eq!(cfg.target_sparsity, 0.9);
/// assert_eq!(cfg.fifo_depth, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneConfig {
    /// Target fraction `p` of gradients to prune, in `[0, 1)`.
    pub target_sparsity: f64,
    /// FIFO depth `N_F` for threshold prediction.
    pub fifo_depth: usize,
}

impl PruneConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `target_sparsity ∉ [0, 1)` or `fifo_depth == 0`.
    pub fn new(target_sparsity: f64, fifo_depth: usize) -> Self {
        assert!(
            (0.0..1.0).contains(&target_sparsity),
            "target sparsity must be in [0, 1), got {target_sparsity}"
        );
        assert!(fifo_depth > 0, "FIFO depth must be positive");
        Self {
            target_sparsity,
            fifo_depth,
        }
    }

    /// The paper's typical setting: `p = 0.9`, `N_F = 4`.
    pub fn paper_default() -> Self {
        Self::new(0.9, 4)
    }

    /// A disabled pruner (`p = 0`): batches pass through unchanged but
    /// statistics are still collected — this is the dense baseline.
    pub fn disabled() -> Self {
        Self {
            target_sparsity: 0.0,
            fifo_depth: 1,
        }
    }
}

impl Default for PruneConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Running statistics reported by a [`LayerPruner`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PruneStats {
    /// Batches processed so far.
    pub batches: usize,
    /// Outcome of the most recent batch.
    pub last_outcome: Option<PruneOutcome>,
    /// Density (non-zero fraction) of the most recent pruned batch.
    last_density: Option<f64>,
    /// Sum of post-prune densities, for averaging.
    density_sum: f64,
    /// Batches included in `density_sum` (those pruned after warm-up).
    density_count: usize,
    /// Most recent predicted threshold (None until warm).
    pub last_predicted_tau: Option<f64>,
    /// Most recent determined threshold.
    pub last_determined_tau: Option<f64>,
}

impl PruneStats {
    /// Post-prune density of the most recent batch, if any.
    pub fn last_density(&self) -> Option<f64> {
        self.last_density
    }

    /// Mean post-prune density over all batches processed after warm-up.
    pub fn mean_density(&self) -> Option<f64> {
        if self.density_count == 0 {
            None
        } else {
            Some(self.density_sum / self.density_count as f64)
        }
    }
}

fn add_outcomes(a: PruneOutcome, b: PruneOutcome) -> PruneOutcome {
    PruneOutcome {
        kept: a.kept + b.kept,
        snapped: a.snapped + b.snapped,
        zeroed: a.zeroed + b.zeroed,
    }
}

/// What one pruned batch (or one shard of it) contributes to a
/// [`LayerPruner`]'s state: the `Σ|g|` of the incoming gradients, their
/// count, and the prune outcome. Produced worker-side by
/// [`prune_pass`], reduced in fixed granule order by a shard
/// coordinator ([`SiteStats::accumulate`] — `abs_sum` is an f64 sum, so
/// the order is part of the result), and absorbed into the authoritative
/// pruner by [`LayerPruner::absorb_batch`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SiteStats {
    /// `Σ|g|` over the incoming (un-pruned) gradients, accumulated in
    /// part order exactly as [`LayerPruner::prune_batch_parts`] does.
    pub abs_sum: f64,
    /// Number of gradient elements covered.
    pub elements: usize,
    /// Keep/snap/zero counts of the prune pass.
    pub outcome: PruneOutcome,
}

impl SiteStats {
    /// Folds `next` into `self`. `abs_sum` is a floating-point sum: a
    /// coordinator must call this in the same (granule-index) order for
    /// every worker count, or the determined threshold — and with it the
    /// whole trajectory — ceases to be N-invariant.
    pub fn accumulate(&mut self, next: &SiteStats) {
        self.abs_sum += next.abs_sum;
        self.elements += next.elements;
        self.outcome = add_outcomes(self.outcome, next.outcome);
    }
}

/// Per-layer streaming gradient pruner (Algorithm 1).
///
/// One instance is attached to each CONV layer's pruning position (Fig. 4):
/// the activation-gradient tensor flowing backward is handed to
/// [`LayerPruner::prune_batch`] once per batch.
///
/// The pruner performs a *single pass* per batch: it accumulates `Σ|g|`
/// while pruning against the FIFO-predicted threshold, then determines this
/// batch's exact threshold and pushes it into the FIFO — so gradients never
/// need to be stored un-pruned (the property that makes the hardware
/// integration free, §III-B).
#[derive(Debug, Clone)]
pub struct LayerPruner {
    config: PruneConfig,
    fifo: ThresholdFifo,
    stats: PruneStats,
}

impl LayerPruner {
    /// Creates a pruner with the given configuration.
    pub fn new(config: PruneConfig) -> Self {
        Self {
            fifo: ThresholdFifo::new(config.fifo_depth),
            config,
            stats: PruneStats::default(),
        }
    }

    /// The pruner's configuration.
    pub fn config(&self) -> &PruneConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &PruneStats {
        &self.stats
    }

    /// Whether the FIFO has warmed up (batches are actually being pruned).
    pub fn is_warm(&self) -> bool {
        self.fifo.is_warm()
    }

    /// The threshold that would be applied to the next batch, if warm.
    pub fn predicted_threshold(&self) -> Option<f64> {
        if self.config.target_sparsity == 0.0 {
            return None;
        }
        self.fifo.predict()
    }

    /// Processes one batch of activation gradients in place and returns the
    /// outcome counts.
    ///
    /// Implements lines 2–18 of Algorithm 1 for one batch: prune under the
    /// predicted threshold (if warm), accumulate `Σ|g|` of the *original*
    /// gradients, determine this batch's threshold and push it to the FIFO.
    /// Randomness comes from `stream`'s counter-based keys, so the result
    /// is a pure function of the gradients and the stream coordinates.
    pub fn prune_batch(&mut self, grads: &mut [f32], stream: &BatchStream) -> PruneOutcome {
        self.prune_batch_parts(&mut [grads], stream)
    }

    /// Like [`LayerPruner::prune_batch`], but the batch's gradient vector is
    /// supplied in several parts (e.g. one tensor per sample of the batch).
    /// The parts are treated as one logical vector `g` for *thresholding*:
    /// a single predicted threshold prunes all of them, a single `Σ|g|`
    /// determines the next threshold. Each part's random draws come from
    /// `stream.part(index, elements_before)` — one independent stream per
    /// sample under [`BatchStream::per_sample`], one contiguous stream
    /// (invariant to the split points) under [`BatchStream::contiguous`].
    pub fn prune_batch_parts(&mut self, parts: &mut [&mut [f32]], stream: &BatchStream) -> PruneOutcome {
        let stats = prune_pass(self.predicted_threshold(), parts, stream);
        self.absorb_batch(&stats);
        stats.outcome
    }

    /// Advances the pruner's state by one batch whose prune pass already
    /// happened elsewhere — the coordinator side of a sharded step. The
    /// workers prune statelessly under this pruner's
    /// [`LayerPruner::predicted_threshold`] (via [`prune_pass`])
    /// and the coordinator reduces their [`SiteStats`] in fixed granule
    /// order before absorbing them here. The in-process stepping path
    /// ([`LayerPruner::prune_batch_parts`]) is that same pass followed
    /// by this call, so one absorbed batch is indistinguishable from one
    /// pruned batch.
    pub fn absorb_batch(&mut self, batch: &SiteStats) {
        // The prediction that pruned this batch — read before the FIFO
        // push below changes it.
        let predicted = self.predicted_threshold();

        // A non-finite Σ|g| (a ±∞ or NaN gradient) determines no τ: pushed,
        // an +∞ would zero the next `fifo_depth` batches and a NaN would
        // leave them unpruned.
        if self.config.target_sparsity > 0.0 && batch.abs_sum.is_finite() {
            let tau = determine_threshold(
                sigma_hat(batch.abs_sum, batch.elements),
                self.config.target_sparsity,
            );
            self.fifo.push(tau);
            self.stats.last_determined_tau = Some(tau);
        }

        self.stats.batches += 1;
        self.stats.last_predicted_tau = predicted;
        let density = batch.outcome.density();
        self.stats.last_density = Some(density);
        if predicted.is_some() {
            self.stats.density_sum += density;
            self.stats.density_count += 1;
        }
        self.stats.last_outcome = Some(batch.outcome);
    }

    /// Clears the reported density statistics — the sum and count behind
    /// [`PruneStats::mean_density`] — and nothing else: the FIFO, the
    /// thresholds and the batch count stay, so pruning goes on exactly as
    /// before and the mean covers only the batches absorbed from here on.
    pub fn reset_density_stats(&mut self) {
        self.stats.density_sum = 0.0;
        self.stats.density_count = 0;
    }

    /// Clears the FIFO and statistics (e.g. when the learning-rate schedule
    /// changes the gradient scale abruptly).
    pub fn reset(&mut self) {
        self.fifo.reset();
        self.stats = PruneStats::default();
    }

    /// Exports the pruner's complete mutable state for checkpointing.
    pub fn snapshot_state(&self) -> PrunerSnapshot {
        PrunerSnapshot {
            target_sparsity: self.config.target_sparsity,
            fifo_depth: self.config.fifo_depth,
            fifo: self.fifo.values().collect(),
            batches: self.stats.batches,
            last_outcome: self.stats.last_outcome,
            last_density: self.stats.last_density,
            density_sum: self.stats.density_sum,
            density_count: self.stats.density_count,
            last_predicted_tau: self.stats.last_predicted_tau,
            last_determined_tau: self.stats.last_determined_tau,
        }
    }

    /// Restores state exported by [`LayerPruner::snapshot_state`]. The
    /// snapshot's config echo must match this pruner's configuration —
    /// restoring into a differently-configured pruner would silently change
    /// the trajectory, so it is an error instead.
    pub fn restore_state(&mut self, snap: &PrunerSnapshot) -> Result<(), PrunerRestoreError> {
        if snap.target_sparsity != self.config.target_sparsity {
            return Err(PrunerRestoreError::SparsityMismatch {
                snapshot: snap.target_sparsity,
                configured: self.config.target_sparsity,
            });
        }
        if snap.fifo_depth != self.config.fifo_depth {
            return Err(PrunerRestoreError::FifoDepthMismatch {
                snapshot: snap.fifo_depth,
                configured: self.config.fifo_depth,
            });
        }
        if snap.fifo.len() > self.config.fifo_depth {
            return Err(PrunerRestoreError::FifoOverflow {
                held: snap.fifo.len(),
                depth: self.config.fifo_depth,
            });
        }
        self.fifo.load(&snap.fifo);
        self.stats = PruneStats {
            batches: snap.batches,
            last_outcome: snap.last_outcome,
            last_density: snap.last_density,
            density_sum: snap.density_sum,
            density_count: snap.density_count,
            last_predicted_tau: snap.last_predicted_tau,
            last_determined_tau: snap.last_determined_tau,
        };
        Ok(())
    }
}

/// Why [`LayerPruner::restore_state`] refused a snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrunerRestoreError {
    /// The snapshot was taken at another target sparsity `p`.
    SparsityMismatch {
        /// The snapshot's config echo.
        snapshot: f64,
        /// This pruner's configuration.
        configured: f64,
    },
    /// The snapshot was taken with another FIFO depth `N_F`.
    FifoDepthMismatch {
        /// The snapshot's config echo.
        snapshot: usize,
        /// This pruner's configuration.
        configured: usize,
    },
    /// The snapshot holds more thresholds than its own FIFO depth allows.
    FifoOverflow {
        /// Thresholds in the snapshot.
        held: usize,
        /// The FIFO depth they must fit.
        depth: usize,
    },
}

impl fmt::Display for PrunerRestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::SparsityMismatch { snapshot, configured } => write!(
                f,
                "pruner target sparsity mismatch: snapshot {snapshot}, configured {configured}"
            ),
            Self::FifoDepthMismatch { snapshot, configured } => write!(
                f,
                "pruner FIFO depth mismatch: snapshot {snapshot}, configured {configured}"
            ),
            Self::FifoOverflow { held, depth } => write!(
                f,
                "pruner snapshot holds {held} thresholds for a depth-{depth} FIFO"
            ),
        }
    }
}

impl std::error::Error for PrunerRestoreError {}

/// Plain-data export of a [`LayerPruner`]'s mutable state plus a config
/// echo, produced by [`LayerPruner::snapshot_state`] and consumed by
/// [`LayerPruner::restore_state`]. The checkpoint crate serializes this.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunerSnapshot {
    /// Config echo: target sparsity the pruner was built with.
    pub target_sparsity: f64,
    /// Config echo: FIFO depth the pruner was built with.
    pub fifo_depth: usize,
    /// FIFO contents, oldest first.
    pub fifo: Vec<f64>,
    /// Batches processed.
    pub batches: usize,
    /// Outcome of the most recent batch.
    pub last_outcome: Option<PruneOutcome>,
    /// Density of the most recent pruned batch.
    pub last_density: Option<f64>,
    /// Running density sum.
    pub density_sum: f64,
    /// Batches included in the density sum.
    pub density_count: usize,
    /// Most recent predicted threshold.
    pub last_predicted_tau: Option<f64>,
    /// Most recent determined threshold.
    pub last_determined_tau: Option<f64>,
}

/// Algorithm 1's single pass, stateless: accumulates `Σ|g|` over the
/// incoming gradients, prunes `parts` under `tau` (`None` while the FIFO
/// that predicted it is cold — pass-through) and returns the
/// [`SiteStats`] that advance a [`LayerPruner`] via
/// [`LayerPruner::absorb_batch`]. Every caller runs this one pass and
/// differs only in what it does with the stats: the stepping path absorbs
/// them at once, a shard worker hands them to the coordinator (which
/// reduces them in granule order and absorbs them into the authoritative
/// pruner), a probe pass drops them — so *inspecting* a training run
/// never perturbs its trajectory.
///
/// `stream` must carry the part's *global* batch position
/// ([`BatchStream::with_base`] /
/// [`super::stream::StepStreams::with_sample_base`]) so the draws are the
/// whole-batch run's draws. The `Σ|g|` accumulation visits parts in
/// order, so a granule-ordered reduction of the returned stats reproduces
/// the whole-batch sum bitwise when each granule is one part.
///
/// The snap/zero sweep is banded across the rayon pool when the site is
/// large enough to amortize it ([`bands_for`]); every draw is keyed by its
/// element's position, so the result is bitwise-identical at every band
/// count.
pub fn prune_pass(tau: Option<f64>, parts: &mut [&mut [f32]], stream: &BatchStream) -> SiteStats {
    let elements: usize = parts.iter().map(|part| part.len()).sum();
    // A position-keyed element visit costs a handful of MACs' worth of
    // work (one counter-based draw at most); weight elements accordingly.
    let bands = bands_for(elements, elements.saturating_mul(8));
    prune_pass_in_bands(tau, parts, stream, bands)
}

/// [`prune_pass`] with the sweep's band count given instead of sized from
/// the pool — for the band-count invariance test and the `pruning` bench
/// group, which must compare band counts inside one process.
#[doc(hidden)]
pub fn prune_pass_in_bands(
    tau: Option<f64>,
    parts: &mut [&mut [f32]],
    stream: &BatchStream,
    bands: usize,
) -> SiteStats {
    // Σ|g| accumulates over the incoming (un-pruned) gradients — in
    // hardware the PPU taps the stream before the pruning stage — and,
    // like the PPU, touches the non-zeros only. It is a floating-point
    // sum, so its order is fixed: each part's partial (element order, a
    // run of parts per band) is reduced here in part order, ahead of the
    // snap/zero sweep whose bands run in any order.
    let shared: &[&mut [f32]] = parts;
    let partials = map_in_bands(shared.len(), bands, &|s| abs_sum_nonzeros(&*shared[s]));
    let mut abs_sum = 0.0f64;
    let mut n = 0usize;
    let mut nonzeros = 0usize;
    for (part, (part_sum, part_nonzeros)) in parts.iter().zip(partials) {
        abs_sum += part_sum;
        nonzeros += part_nonzeros;
        n += part.len();
    }
    let outcome = match tau {
        Some(tau) if tau > 0.0 => prune_parts_under(parts, tau, stream, bands),
        // Pass-through (cold FIFO or disabled pruning): nothing changes,
        // the natural zero pattern is still counted.
        _ => PruneOutcome {
            kept: nonzeros,
            snapped: 0,
            zeroed: n - nonzeros,
        },
    };
    SiteStats {
        abs_sum,
        elements: n,
        outcome,
    }
}

/// Prunes `parts` under the fixed threshold `tau` with `stream`'s
/// coordinates, the element space cut into `bands`.
fn prune_parts_under(parts: &mut [&mut [f32]], tau: f64, stream: &BatchStream, bands: usize) -> PruneOutcome {
    // Every part's stream coordinates are fixed before pruning starts,
    // so the sweep below may visit the parts' pieces in any order.
    let coords: Vec<(rand::stream::StreamKey, u64)> = {
        let mut before = 0u64;
        parts
            .iter()
            .enumerate()
            .map(|(s, part)| {
                let c = stream.part(s, before);
                before += part.len() as u64;
                c
            })
            .collect()
    };
    // Outcome counts are order-free sums, so relaxed atomics keep the
    // banded pass deterministic; the values are, because `prune_slice_at`
    // evaluates each draw at the element's own position wherever the
    // splitter cuts its pieces.
    let kept = AtomicUsize::new(0);
    let snapped = AtomicUsize::new(0);
    let zeroed = AtomicUsize::new(0);
    let views: Vec<&mut [f32]> = parts.iter_mut().map(|p| &mut **p).collect();
    for_each_band(views, 1, bands, &|s, offset, piece| {
        let (key, base) = coords[s];
        let out = prune_slice_at(piece, tau, key, base + offset as u64);
        kept.fetch_add(out.kept, Ordering::Relaxed);
        snapped.fetch_add(out.snapped, Ordering::Relaxed);
        zeroed.fetch_add(out.zeroed, Ordering::Relaxed);
    });
    PruneOutcome {
        kept: kept.into_inner(),
        snapped: snapped.into_inner(),
        zeroed: zeroed.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::stream::StreamKey;
    use rand::SeedableRng;
    use sparsetrain_tensor::init::sample_standard_normal;

    fn normal_batch(rng: &mut StdRng, n: usize, sigma: f32) -> Vec<f32> {
        (0..n).map(|_| sample_standard_normal(rng) * sigma).collect()
    }

    /// One fresh batch stream per step, as the trainer's ladder would
    /// derive them.
    fn stream(step: u64) -> BatchStream {
        BatchStream::contiguous(StreamKey::new(0xBA7C).derive(step))
    }

    #[test]
    fn no_pruning_until_fifo_warm() {
        let mut pruner = LayerPruner::new(PruneConfig::new(0.9, 3));
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..3 {
            assert!(!pruner.is_warm(), "warm too early at batch {i}");
            let mut batch = normal_batch(&mut rng, 1000, 0.1);
            let before = batch.clone();
            pruner.prune_batch(&mut batch, &stream(i));
            assert_eq!(batch, before, "batch {i} modified before warm-up");
        }
        assert!(pruner.is_warm());
        let mut batch = normal_batch(&mut rng, 1000, 0.1);
        let before = batch.clone();
        pruner.prune_batch(&mut batch, &stream(3));
        assert_ne!(batch, before, "warm pruner left batch unchanged");
    }

    #[test]
    fn achieves_target_density_on_normal_data() {
        for &p in &[0.7, 0.9, 0.99] {
            let mut pruner = LayerPruner::new(PruneConfig::new(p, 4));
            let mut rng = StdRng::seed_from_u64(99);
            for step in 0..10 {
                let mut batch = normal_batch(&mut rng, 20_000, 0.05);
                pruner.prune_batch(&mut batch, &stream(step));
            }
            let density = pruner.stats().last_density().unwrap();
            // Stochastic pruning re-inserts ±τ values: of the fraction p
            // below τ, E[|g|/τ | |g|<τ] survive. For a centred normal the
            // survivor fraction is meaningful, so density lands between
            // (1 - p) and roughly (1 - p) + 0.45 p.
            let floor = 1.0 - p;
            let ceil = (1.0 - p) + 0.5 * p;
            assert!(
                density > floor * 0.8 && density < ceil,
                "p={p}: density {density} outside ({floor}, {ceil})"
            );
        }
    }

    #[test]
    fn disabled_pruner_passes_through() {
        let mut pruner = LayerPruner::new(PruneConfig::disabled());
        let mut rng = StdRng::seed_from_u64(1);
        let mut batch = normal_batch(&mut rng, 100, 1.0);
        let before = batch.clone();
        for step in 0..5 {
            pruner.prune_batch(&mut batch, &stream(step));
            assert_eq!(batch, before);
        }
        assert_eq!(pruner.predicted_threshold(), None);
    }

    #[test]
    fn predicted_tracks_determined() {
        let mut pruner = LayerPruner::new(PruneConfig::new(0.9, 4));
        let mut rng = StdRng::seed_from_u64(2);
        for step in 0..8 {
            let mut batch = normal_batch(&mut rng, 10_000, 0.2);
            pruner.prune_batch(&mut batch, &stream(step));
        }
        let predicted = pruner.stats().last_predicted_tau.unwrap();
        let determined = pruner.stats().last_determined_tau.unwrap();
        assert!(
            (predicted - determined).abs() / determined < 0.1,
            "prediction {predicted} far from determination {determined}"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut pruner = LayerPruner::new(PruneConfig::new(0.8, 2));
        let mut rng = StdRng::seed_from_u64(3);
        for step in 0..6 {
            let mut batch = normal_batch(&mut rng, 1000, 0.1);
            pruner.prune_batch(&mut batch, &stream(step));
        }
        assert_eq!(pruner.stats().batches, 6);
        assert!(pruner.stats().mean_density().is_some());
    }

    #[test]
    fn reset_returns_to_cold() {
        let mut pruner = LayerPruner::new(PruneConfig::new(0.9, 1));
        let mut rng = StdRng::seed_from_u64(4);
        let mut batch = normal_batch(&mut rng, 100, 0.1);
        pruner.prune_batch(&mut batch, &stream(0));
        assert!(pruner.is_warm());
        pruner.reset();
        assert!(!pruner.is_warm());
        assert_eq!(pruner.stats().batches, 0);
    }

    /// One +∞ or NaN element in batch 5 of twelve leaves the FIFO as
    /// batch 4 left it, so every later prediction stays finite.
    #[test]
    fn non_finite_batch_pushes_no_threshold() {
        for bad in [f32::INFINITY, f32::NAN] {
            let mut rng = StdRng::seed_from_u64(14);
            let mut pruner = LayerPruner::new(PruneConfig::new(0.9, 4));
            let mut fifo_after_4 = Vec::new();
            for step in 0..12 {
                let mut batch = normal_batch(&mut rng, 4096, 0.1);
                if step == 5 {
                    batch[1000] = bad;
                }
                let determined = pruner.stats().last_determined_tau;
                pruner.prune_batch(&mut batch, &stream(step));
                let fifo: Vec<f64> = pruner.fifo.values().collect();
                match step {
                    4 => fifo_after_4 = fifo,
                    5 => {
                        assert_eq!(fifo, fifo_after_4, "{bad} in batch 5 moved the FIFO");
                        assert_eq!(pruner.stats().last_determined_tau, determined);
                    }
                    6.. => {
                        let tau = pruner.stats().last_predicted_tau.expect("warm");
                        assert!(tau.is_finite(), "{bad} in batch 5: τ {tau} at batch {step}");
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_handled() {
        let mut pruner = LayerPruner::new(PruneConfig::new(0.9, 1));
        let mut batch: Vec<f32> = Vec::new();
        let out = pruner.prune_batch(&mut batch, &stream(0));
        assert_eq!(out.total(), 0);
    }

    #[test]
    fn preview_prunes_identically_to_the_stepping_path() {
        // A probe pass is the stateless pass under the pruner's prediction
        // (`&self`, so statelessness is type-enforced); what needs pinning
        // is that its *values* equal the stepping path's under the same
        // threshold and streams.
        let mut rng = StdRng::seed_from_u64(7);
        let mut pruner = LayerPruner::new(PruneConfig::new(0.9, 1));
        let mut warm = normal_batch(&mut rng, 2000, 0.05);
        pruner.prune_batch(&mut warm, &stream(0));

        let batch = normal_batch(&mut rng, 2000, 0.05);
        let mut previewed = batch.clone();
        let tau = pruner.predicted_threshold();
        let out_p = prune_pass(tau, &mut [&mut previewed], &stream(1)).outcome;
        let mut stepped = batch.clone();
        let out_s = pruner.prune_batch(&mut stepped, &stream(1));
        assert_eq!(previewed, stepped, "preview diverged from the stepping prune");
        assert_eq!(out_p, out_s);
        // A cold pruner's preview is a pass-through.
        let cold = LayerPruner::new(PruneConfig::new(0.9, 4));
        let mut untouched = batch.clone();
        let tau = cold.predicted_threshold();
        let out = prune_pass(tau, &mut [&mut untouched], &stream(2)).outcome;
        assert_eq!(untouched, batch);
        assert_eq!(out.snapped, 0);
    }

    #[test]
    fn snapshot_restore_resumes_the_trajectory() {
        let mut rng = StdRng::seed_from_u64(5);
        let batches: Vec<Vec<f32>> = (0..12).map(|_| normal_batch(&mut rng, 2000, 0.1)).collect();

        // Straight run over all 12 batches.
        let mut straight = LayerPruner::new(PruneConfig::new(0.9, 3));
        let mut want = Vec::new();
        for (step, batch) in batches.iter().enumerate() {
            let mut b = batch.clone();
            straight.prune_batch(&mut b, &stream(step as u64));
            want.push(b);
        }

        // Run 6 batches, snapshot, restore into a fresh pruner, run the rest.
        let mut first = LayerPruner::new(PruneConfig::new(0.9, 3));
        let mut got = Vec::new();
        for (step, batch) in batches.iter().take(6).enumerate() {
            let mut b = batch.clone();
            first.prune_batch(&mut b, &stream(step as u64));
            got.push(b);
        }
        let snap = first.snapshot_state();
        let mut resumed = LayerPruner::new(PruneConfig::new(0.9, 3));
        resumed.restore_state(&snap).unwrap();
        for (step, batch) in batches.iter().enumerate().skip(6) {
            let mut b = batch.clone();
            resumed.prune_batch(&mut b, &stream(step as u64));
            got.push(b);
        }

        assert_eq!(got, want, "resumed pruning diverged from the straight run");
        assert_eq!(resumed.stats(), straight.stats());
        assert_eq!(resumed.snapshot_state(), straight.snapshot_state());
    }

    #[test]
    fn restore_rejects_config_mismatch() {
        let warm = LayerPruner::new(PruneConfig::new(0.9, 3));
        let snap = warm.snapshot_state();
        let mut other = LayerPruner::new(PruneConfig::new(0.8, 3));
        let err = other.restore_state(&snap).unwrap_err();
        assert_eq!(
            err,
            PrunerRestoreError::SparsityMismatch {
                snapshot: 0.9,
                configured: 0.8
            }
        );
        assert_eq!(
            err.to_string(),
            "pruner target sparsity mismatch: snapshot 0.9, configured 0.8"
        );
        let mut other = LayerPruner::new(PruneConfig::new(0.9, 4));
        let err = other.restore_state(&snap).unwrap_err();
        assert_eq!(
            err,
            PrunerRestoreError::FifoDepthMismatch {
                snapshot: 3,
                configured: 4
            }
        );
        assert_eq!(
            err.to_string(),
            "pruner FIFO depth mismatch: snapshot 3, configured 4"
        );
        // A snapshot whose FIFO holds more than its own depth (only a
        // corrupted or hand-built one can) is refused, not truncated.
        let mut overfull = snap.clone();
        overfull.fifo = vec![0.1; 4];
        let mut same = LayerPruner::new(PruneConfig::new(0.9, 3));
        let err = same.restore_state(&overfull).unwrap_err();
        assert_eq!(err, PrunerRestoreError::FifoOverflow { held: 4, depth: 3 });
        assert_eq!(
            err.to_string(),
            "pruner snapshot holds 4 thresholds for a depth-3 FIFO"
        );
        assert_eq!(
            same.snapshot_state(),
            snap,
            "a refused restore changed the pruner"
        );
    }

    #[test]
    fn sharded_prune_and_absorb_match_the_stepping_path() {
        // The sharded decomposition — workers prune statelessly under the
        // broadcast prediction via `prune_pass`, the coordinator
        // reduces their stats in granule order and `absorb_batch`es them —
        // must be indistinguishable from the in-process stepping path:
        // same pruned values, same FIFO, same statistics, over a sequence
        // of batches (so the FIFO warms and predictions flow through).
        let mut rng = StdRng::seed_from_u64(8);
        let batches: Vec<Vec<Vec<f32>>> = (0..6)
            .map(|_| (0..5).map(|_| normal_batch(&mut rng, 400, 0.05)).collect())
            .collect();

        let mut legacy = LayerPruner::new(PruneConfig::new(0.9, 2));
        let mut sharded = LayerPruner::new(PruneConfig::new(0.9, 2));
        for (step, batch) in batches.iter().enumerate() {
            let key = StreamKey::new(11).derive(step as u64);

            let mut want = batch.clone();
            let mut parts: Vec<&mut [f32]> = want.iter_mut().map(|v| v.as_mut_slice()).collect();
            legacy.prune_batch_parts(&mut parts, &BatchStream::per_sample(key));

            // Sharded: one granule per sample, each pruned on its own
            // base-shifted stream slice as a worker would, reduced in
            // granule order.
            let tau = sharded.predicted_threshold();
            let mut got = batch.clone();
            let mut reduced = SiteStats::default();
            for (s, sample) in got.iter_mut().enumerate() {
                let slice = BatchStream::per_sample(key).with_base(s as u64);
                let stats = prune_pass(tau, &mut [sample.as_mut_slice()], &slice);
                reduced.accumulate(&stats);
            }
            sharded.absorb_batch(&reduced);

            assert_eq!(got, want, "step {step}: sharded prune diverged");
        }
        assert_eq!(sharded.stats(), legacy.stats());
        assert_eq!(sharded.snapshot_state(), legacy.snapshot_state());
    }

    #[test]
    fn abs_sum_bits_match_the_all_elements_sum() {
        // Σ|g| visits the non-zeros only; it must still be, bit for bit,
        // the left-to-right sum over every element of each part, parts in
        // order — the zeros (of either sign) it skips would each have
        // added +0.0. Pass-through and pruning passes.
        let mut rng = StdRng::seed_from_u64(9);
        // Part lengths around the sweep's 64-element run, an empty part,
        // an all-zero part, and one left dense.
        let mut data: Vec<Vec<f32>> = [777usize, 64, 0, 1, 65, 63, 1000]
            .iter()
            .map(|&len| normal_batch(&mut rng, len, 0.05))
            .collect();
        for (p, part) in data.iter_mut().enumerate().take(6) {
            for (i, g) in part.iter_mut().enumerate() {
                match (i * 7 + p) % 10 {
                    0..=5 => *g = 0.0,
                    6 => *g = -0.0,
                    _ => {}
                }
            }
        }
        data[1].fill(0.0);
        let mut want = 0.0f64;
        for part in &data {
            want += part.iter().map(|&g| (g as f64).abs()).sum::<f64>();
        }
        let elements: usize = data.iter().map(Vec::len).sum();
        let nonzeros = data.iter().flatten().filter(|&&g| g != 0.0).count();
        for tau in [None, Some(0.04)] {
            let mut work = data.clone();
            let mut parts: Vec<&mut [f32]> = work.iter_mut().map(|v| v.as_mut_slice()).collect();
            let stats = prune_pass(tau, &mut parts, &stream(0));
            assert_eq!(stats.abs_sum.to_bits(), want.to_bits(), "τ {tau:?}");
            assert_eq!(stats.elements, elements, "τ {tau:?}");
            assert_eq!(stats.outcome.total(), elements, "τ {tau:?}");
            match tau {
                None => assert_eq!((stats.outcome.kept, stats.outcome.snapped), (nonzeros, 0)),
                Some(_) => assert!(stats.outcome.snapped > 0),
            }
        }
    }
}
