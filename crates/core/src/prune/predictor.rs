//! Threshold predictors and their evaluation.
//!
//! The paper predicts each batch's pruning threshold as the mean of a FIFO
//! of recently *determined* thresholds (§III-B, Fig. 5). That is one point
//! in a design space: any causal filter over the determined-threshold
//! sequence is a valid predictor, trading smoothing against tracking lag.
//! This module abstracts the predictor behind a trait, provides the
//! paper's FIFO, an exponential-moving-average variant and a last-value
//! baseline, and includes a replay harness ([`evaluate_predictor`]) that
//! scores any predictor against a recorded threshold sequence — the
//! `ablation` benches and the FIFO-depth sweep are built on it.
//!
//! # Example
//!
//! ```
//! use sparsetrain_core::prune::predictor::{
//!     evaluate_predictor, EmaPredictor, FifoPredictor, ThresholdPredictor,
//! };
//!
//! let taus: Vec<f64> = (0..32).map(|i| 0.1 + 0.001 * i as f64).collect();
//! let fifo = evaluate_predictor(&mut FifoPredictor::new(4), &taus);
//! let ema = evaluate_predictor(&mut EmaPredictor::new(0.5), &taus);
//! // On a slow ramp both predictors track tightly.
//! assert!(fifo.mean_abs_rel_error().unwrap() < 0.05);
//! assert!(ema.mean_abs_rel_error().unwrap() < 0.05);
//! ```

use super::fifo::ThresholdFifo;

/// A causal filter over the determined-threshold sequence.
///
/// After each batch the trainer determines the batch's exact threshold and
/// feeds it to [`observe`](ThresholdPredictor::observe); before each batch
/// it asks for [`predict`](ThresholdPredictor::predict). A `None`
/// prediction means "not warmed up — do not prune this batch", exactly the
/// cold-start behaviour of Algorithm 1.
pub trait ThresholdPredictor {
    /// Feeds one determined threshold into the filter.
    fn observe(&mut self, tau: f64);

    /// The threshold to apply to the next batch, or `None` while cold.
    fn predict(&self) -> Option<f64>;

    /// Returns the filter to its cold state.
    fn reset(&mut self);

    /// Short display name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's predictor: mean of the last `N_F` determined thresholds,
/// cold until the FIFO fills.
#[derive(Debug, Clone)]
pub struct FifoPredictor {
    fifo: ThresholdFifo,
}

impl FifoPredictor {
    /// Creates a FIFO predictor of the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(depth: usize) -> Self {
        Self {
            fifo: ThresholdFifo::new(depth),
        }
    }

    /// The FIFO depth `N_F`.
    pub fn depth(&self) -> usize {
        self.fifo.depth()
    }
}

impl ThresholdPredictor for FifoPredictor {
    fn observe(&mut self, tau: f64) {
        self.fifo.push(tau);
    }

    fn predict(&self) -> Option<f64> {
        self.fifo.predict()
    }

    fn reset(&mut self) {
        self.fifo.reset();
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Exponential moving average: `τ̂ ← (1−α)·τ̂ + α·τ`. Warm after the first
/// observation, so it prunes `N_F − 1` batches earlier than the FIFO at
/// the cost of less smoothing.
#[derive(Debug, Clone)]
pub struct EmaPredictor {
    alpha: f64,
    state: Option<f64>,
}

impl EmaPredictor {
    /// Creates an EMA predictor with smoothing factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha ∉ (0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        Self { alpha, state: None }
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl ThresholdPredictor for EmaPredictor {
    fn observe(&mut self, tau: f64) {
        self.state = Some(match self.state {
            Some(prev) => (1.0 - self.alpha) * prev + self.alpha * tau,
            None => tau,
        });
    }

    fn predict(&self) -> Option<f64> {
        self.state
    }

    fn reset(&mut self) {
        self.state = None;
    }

    fn name(&self) -> &'static str {
        "ema"
    }
}

/// The trivial predictor: next threshold = last determined threshold.
/// Equivalent to a depth-1 FIFO; the reference point every filter must
/// beat on noisy sequences.
#[derive(Debug, Clone, Default)]
pub struct LastValuePredictor {
    state: Option<f64>,
}

impl LastValuePredictor {
    /// Creates a cold last-value predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ThresholdPredictor for LastValuePredictor {
    fn observe(&mut self, tau: f64) {
        self.state = Some(tau);
    }

    fn predict(&self) -> Option<f64> {
        self.state
    }

    fn reset(&mut self) {
        self.state = None;
    }

    fn name(&self) -> &'static str {
        "last"
    }
}

/// Accuracy of a predictor replayed over a determined-threshold sequence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredictionReport {
    /// Batches for which the predictor was warm and a true threshold
    /// existed to compare against.
    pub scored: usize,
    /// Batches skipped while cold.
    pub cold: usize,
    /// Σ |τ̂ − τ| over scored batches.
    pub abs_error_sum: f64,
    /// Σ |τ̂ − τ| / τ over scored batches (τ > 0).
    pub rel_error_sum: f64,
    /// Largest single relative error observed.
    pub max_rel_error: f64,
}

impl PredictionReport {
    /// Mean absolute *relative* error, if any batch was scored.
    pub fn mean_abs_rel_error(&self) -> Option<f64> {
        (self.scored > 0).then(|| self.rel_error_sum / self.scored as f64)
    }
}

/// Replays a recorded sequence of determined thresholds through
/// `predictor`, scoring each warm prediction against the threshold that
/// batch actually determined — the quantity the hardware would have used
/// had it been able to look ahead.
pub fn evaluate_predictor<P: ThresholdPredictor + ?Sized>(
    predictor: &mut P,
    determined: &[f64],
) -> PredictionReport {
    let mut report = PredictionReport::default();
    for &tau in determined {
        match predictor.predict() {
            Some(hat) if tau > 0.0 => {
                let abs = (hat - tau).abs();
                let rel = abs / tau;
                report.scored += 1;
                report.abs_error_sum += abs;
                report.rel_error_sum += rel;
                report.max_rel_error = report.max_rel_error.max(rel);
            }
            Some(_) => report.scored += 1,
            None => report.cold += 1,
        }
        predictor.observe(tau);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_matches_paper_fifo_semantics() {
        let mut p = FifoPredictor::new(3);
        assert_eq!(p.predict(), None);
        p.observe(1.0);
        p.observe(2.0);
        assert_eq!(p.predict(), None, "cold until depth observations");
        p.observe(3.0);
        assert_eq!(p.predict(), Some(2.0));
        p.observe(4.0); // evicts 1.0
        assert_eq!(p.predict(), Some(3.0));
    }

    #[test]
    fn ema_warms_after_one_observation() {
        let mut p = EmaPredictor::new(0.5);
        assert_eq!(p.predict(), None);
        p.observe(2.0);
        assert_eq!(p.predict(), Some(2.0));
        p.observe(4.0);
        assert_eq!(p.predict(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ema_rejects_zero_alpha() {
        let _ = EmaPredictor::new(0.0);
    }

    #[test]
    fn last_value_echoes() {
        let mut p = LastValuePredictor::new();
        assert_eq!(p.predict(), None);
        p.observe(0.7);
        assert_eq!(p.predict(), Some(0.7));
        p.observe(0.1);
        assert_eq!(p.predict(), Some(0.1));
    }

    #[test]
    fn reset_returns_all_predictors_to_cold() {
        let mut fifo = FifoPredictor::new(2);
        let mut ema = EmaPredictor::new(0.3);
        let mut last = LastValuePredictor::new();
        for tau in [0.5, 0.6] {
            fifo.observe(tau);
            ema.observe(tau);
            last.observe(tau);
        }
        fifo.reset();
        ema.reset();
        last.reset();
        assert_eq!(fifo.predict(), None);
        assert_eq!(ema.predict(), None);
        assert_eq!(last.predict(), None);
    }

    #[test]
    fn evaluation_counts_cold_batches() {
        let taus = [1.0, 1.0, 1.0, 1.0];
        let r = evaluate_predictor(&mut FifoPredictor::new(3), &taus);
        assert_eq!(r.cold, 3);
        assert_eq!(r.scored, 1);
        assert_eq!(r.abs_error_sum, 0.0);
    }

    #[test]
    fn constant_sequence_is_predicted_exactly() {
        let taus = vec![0.25; 20];
        for report in [
            evaluate_predictor(&mut FifoPredictor::new(4), &taus),
            evaluate_predictor(&mut EmaPredictor::new(0.2), &taus),
            evaluate_predictor(&mut LastValuePredictor::new(), &taus),
        ] {
            assert_eq!(report.mean_abs_rel_error(), Some(0.0));
            assert_eq!(report.max_rel_error, 0.0);
        }
    }

    #[test]
    fn deeper_fifo_smooths_alternating_noise_worse_than_it_tracks_trends() {
        // Alternating sequence: a deep FIFO averages it out (small error),
        // last-value is maximally wrong every batch.
        let taus: Vec<f64> = (0..64).map(|i| if i % 2 == 0 { 0.9 } else { 1.1 }).collect();
        let deep = evaluate_predictor(&mut FifoPredictor::new(8), &taus);
        let last = evaluate_predictor(&mut LastValuePredictor::new(), &taus);
        assert!(
            deep.mean_abs_rel_error().unwrap() < last.mean_abs_rel_error().unwrap(),
            "deep FIFO should beat last-value on alternating noise"
        );

        // Steep ramp: last-value lags one step, the deep FIFO lags ~4.
        let ramp: Vec<f64> = (1..64).map(|i| i as f64).collect();
        let deep = evaluate_predictor(&mut FifoPredictor::new(8), &ramp);
        let last = evaluate_predictor(&mut LastValuePredictor::new(), &ramp);
        assert!(
            last.mean_abs_rel_error().unwrap() < deep.mean_abs_rel_error().unwrap(),
            "last-value should beat deep FIFO on a steep ramp"
        );
    }

    #[test]
    fn trait_objects_work() {
        let mut predictors: Vec<Box<dyn ThresholdPredictor>> = vec![
            Box::new(FifoPredictor::new(4)),
            Box::new(EmaPredictor::new(0.4)),
            Box::new(LastValuePredictor::new()),
        ];
        let taus = [0.2, 0.21, 0.19, 0.2, 0.22, 0.2];
        for p in predictors.iter_mut() {
            let r = evaluate_predictor(p.as_mut(), &taus);
            assert!(r.scored + r.cold == taus.len());
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn zero_threshold_batches_are_scored_without_error_contribution() {
        let taus = [0.5, 0.0, 0.5];
        let r = evaluate_predictor(&mut LastValuePredictor::new(), &taus);
        assert_eq!(r.scored, 2);
        assert_eq!(r.cold, 1);
    }
}
