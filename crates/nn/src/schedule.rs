//! Learning-rate schedules.
//!
//! The paper trains with the standard step-decay recipes of its era (SGD
//! with momentum, rate drops at fixed epochs). [`StepDecay`] reproduces
//! that.

/// A learning-rate schedule: maps an epoch index to a rate.
pub trait LrSchedule {
    /// Learning rate to use for `epoch` (0-based).
    fn rate(&self, epoch: usize) -> f32;
}

/// Multiplies the base rate by `gamma` at each milestone epoch.
///
/// ```
/// use sparsetrain_nn::schedule::{LrSchedule, StepDecay};
/// let s = StepDecay::new(0.1, 0.1, vec![2, 4]);
/// assert_eq!(s.rate(0), 0.1);
/// assert!((s.rate(2) - 0.01).abs() < 1e-9);
/// assert!((s.rate(4) - 0.001).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StepDecay {
    base: f32,
    gamma: f32,
    milestones: Vec<usize>,
}

impl StepDecay {
    /// Creates a step-decay schedule.
    ///
    /// # Panics
    ///
    /// Panics if `base <= 0`, `gamma <= 0`, or milestones are unsorted.
    pub fn new(base: f32, gamma: f32, milestones: Vec<usize>) -> Self {
        assert!(base > 0.0, "base rate must be positive");
        assert!(gamma > 0.0, "gamma must be positive");
        assert!(
            milestones.windows(2).all(|w| w[0] < w[1]),
            "milestones must be strictly increasing"
        );
        Self {
            base,
            gamma,
            milestones,
        }
    }
}

impl LrSchedule for StepDecay {
    fn rate(&self, epoch: usize) -> f32 {
        let drops = self.milestones.iter().filter(|&&m| epoch >= m).count() as i32;
        self.base * self.gamma.powi(drops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_decay_drops_at_milestones() {
        let s = StepDecay::new(1.0, 0.5, vec![3, 6]);
        assert_eq!(s.rate(0), 1.0);
        assert_eq!(s.rate(2), 1.0);
        assert_eq!(s.rate(3), 0.5);
        assert_eq!(s.rate(5), 0.5);
        assert_eq!(s.rate(6), 0.25);
        assert_eq!(s.rate(100), 0.25);
    }

    #[test]
    fn no_milestones_is_constant() {
        let s = StepDecay::new(0.1, 0.1, Vec::new());
        assert_eq!(s.rate(0), 0.1);
        assert_eq!(s.rate(50), 0.1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_milestones_rejected() {
        let _ = StepDecay::new(0.1, 0.1, vec![5, 5]);
    }
}
