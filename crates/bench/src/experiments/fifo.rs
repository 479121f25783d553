//! FIFO-depth and predictor-design sweep (§III-B ablation).
//!
//! The paper predicts each batch's threshold with a FIFO of depth N_F but
//! does not study the choice. This sweep replays the determined-threshold
//! sequence of a real pruned training run through FIFO predictors of
//! several depths, an EMA family, and the last-value baseline, and
//! reports prediction error plus the cold-start cost (batches left
//! unpruned during warm-up).

use super::Session;
use crate::table::{fmt, render};
use rand::rngs::StdRng;
use rand::stream::StreamKey;
use rand::SeedableRng;
use sparsetrain_core::prune::predictor::{
    evaluate_predictor, EmaPredictor, FifoPredictor, LastValuePredictor, ThresholdPredictor,
};
use sparsetrain_core::prune::{BatchStream, LayerPruner, PruneConfig};
use sparsetrain_tensor::init::sample_standard_normal;

/// Produces a determined-threshold sequence from a pruned "training run":
/// gradient batches whose scale decays (as losses shrink) with
/// batch-to-batch noise — the regime the predictor must track.
fn determined_thresholds(batches: usize) -> Vec<f64> {
    let mut pruner = LayerPruner::new(PruneConfig::new(0.9, 4));
    let mut rng = StdRng::seed_from_u64(31);
    let key = StreamKey::new(31);
    let mut taus = Vec::with_capacity(batches);
    for b in 0..batches {
        let scale = 0.1 * (1.0 + 0.3 * ((b as f32 * 0.37).sin())) * (-(b as f32) / 200.0).exp();
        let mut grads: Vec<f32> = (0..8192)
            .map(|_| sample_standard_normal(&mut rng) * scale)
            .collect();
        pruner.prune_batch(&mut grads, &BatchStream::contiguous(key.derive(b as u64)));
        if let Some(tau) = pruner.stats().last_determined_tau {
            taus.push(tau);
        }
    }
    taus
}

/// Prints each predictor's cold-start cost and prediction error over one
/// determined-threshold sequence.
pub fn print(_session: &mut Session) {
    let taus = determined_thresholds(256);
    println!(
        "threshold-predictor sweep over {} determined thresholds\n(decaying gradient scale with sinusoidal noise)\n",
        taus.len()
    );

    let mut rows: Vec<Vec<String>> = vec![vec![
        "predictor".into(),
        "cold batches".into(),
        "mean |rel err|".into(),
        "max |rel err|".into(),
    ]];

    let mut predictors: Vec<Box<dyn ThresholdPredictor>> = vec![
        Box::new(LastValuePredictor::new()),
        Box::new(FifoPredictor::new(2)),
        Box::new(FifoPredictor::new(4)),
        Box::new(FifoPredictor::new(8)),
        Box::new(FifoPredictor::new(16)),
        Box::new(EmaPredictor::new(0.7)),
        Box::new(EmaPredictor::new(0.3)),
        Box::new(EmaPredictor::new(0.1)),
    ];
    let labels = [
        "last-value",
        "fifo-2",
        "fifo-4 (paper)",
        "fifo-8",
        "fifo-16",
        "ema-0.7",
        "ema-0.3",
        "ema-0.1",
    ];

    for (p, label) in predictors.iter_mut().zip(labels) {
        let r = evaluate_predictor(p.as_mut(), &taus);
        rows.push(vec![
            label.into(),
            r.cold.to_string(),
            fmt(r.mean_abs_rel_error().unwrap_or(0.0), 4),
            fmt(r.max_rel_error, 4),
        ]);
    }

    println!("{}", render(&rows));
    println!("on this smoothly decaying scale, shallow predictors track best and");
    println!("depth only adds lag; under i.i.d. batch noise the ordering flips");
    println!("(see predictor unit tests) — the paper's fifo-4 is a compromise");
    println!("between noise smoothing and tracking lag, and EMA reaches the same");
    println!("trade-off without the N_F-batch cold start.");
}
