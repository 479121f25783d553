//! Experiment scale profiles.
//!
//! The paper trains for 300 epochs on real datasets on GPUs; the
//! reproduction substitutes synthetic data and CPU-scale models
//! (`docs/ARCHITECTURE.md`, *Substitutions*). Two profiles trade fidelity
//! for runtime; both exercise the full pipeline.

use sparsetrain_nn::data::SyntheticSpec;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Seconds-scale runs (CI-friendly): small images, few epochs.
    Quick,
    /// Minutes-scale runs: the default for regenerating the paper tables.
    Full,
}

impl Profile {
    /// Reads the profile from the `SPARSETRAIN_PROFILE` environment
    /// variable: unset or empty is `Quick`, `quick` / `full` are
    /// themselves, and anything else is an error (the message `main`
    /// prints above the usage text) — a typo must not regenerate the
    /// paper tables at the wrong scale without a word.
    pub fn from_env() -> Result<Self, String> {
        let value = std::env::var_os("SPARSETRAIN_PROFILE");
        Self::parse(value.as_deref().map(|v| v.to_string_lossy()).as_deref())
    }

    /// [`Profile::from_env`] on a given value of the variable.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("") | Some("quick") => Ok(Profile::Quick),
            Some("full") => Ok(Profile::Full),
            Some(other) => Err(format!(
                "unknown SPARSETRAIN_PROFILE {other:?} (one of: quick, full)"
            )),
        }
    }

    /// Training epochs per run.
    pub fn epochs(&self) -> usize {
        match self {
            Profile::Quick => 4,
            Profile::Full => 10,
        }
    }

    /// Dataset specification for a named dataset proxy.
    ///
    /// # Panics
    ///
    /// Panics on an unknown dataset name.
    pub fn dataset(&self, name: &str) -> SyntheticSpec {
        let mut spec = match name {
            "cifar10" => SyntheticSpec::cifar10_like(),
            "cifar100" => SyntheticSpec::cifar100_like(),
            "imagenet" => SyntheticSpec::imagenet_like(),
            other => panic!("unknown dataset {other}"),
        };
        if *self == Profile::Quick {
            spec.size = if name == "imagenet" { 24 } else { 16 };
            spec.train_samples = spec.classes * 24;
            spec.test_samples = spec.classes * 8;
            if name != "cifar10" {
                // Keep the class structure but fewer classes for speed.
                spec.classes = 10;
                spec.train_samples = 240;
                spec.test_samples = 80;
            }
        }
        spec
    }

    /// Dataset specification used for *simulator* trace capture (Figs. 8–9).
    ///
    /// Larger images than [`Profile::dataset`]: latency/energy ratios
    /// depend on the activation-to-weight footprint ratio, and the paper's
    /// geometry (32×32 CIFAR, 224×224 ImageNet) is activation-dominated.
    /// Training here is only a short warm-up before one traced step, so the
    /// extra size costs seconds, not minutes.
    ///
    /// # Panics
    ///
    /// Panics on an unknown dataset name.
    pub fn sim_dataset(&self, name: &str) -> SyntheticSpec {
        let mut spec = self.dataset(name);
        match self {
            Profile::Quick => {
                spec.size = if name == "imagenet" { 32 } else { 24 };
                spec.train_samples = 120;
                spec.test_samples = 40;
            }
            Profile::Full => {
                spec.size = if name == "imagenet" { 64 } else { 32 };
                spec.train_samples = 240;
                spec.test_samples = 80;
            }
        }
        spec
    }

    /// Warm-up epochs before trace capture in the simulator experiments.
    pub fn sim_warmup_epochs(&self) -> usize {
        match self {
            Profile::Quick => 1,
            Profile::Full => 2,
        }
    }

    /// The dataset names of the paper's evaluation, in Table II order.
    pub fn dataset_names() -> [&'static str; 3] {
        ["cifar10", "cifar100", "imagenet"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_two_spellings_and_unset_are_profiles() {
        assert_eq!(Profile::parse(None), Ok(Profile::Quick));
        assert_eq!(Profile::parse(Some("")), Ok(Profile::Quick));
        assert_eq!(Profile::parse(Some("quick")), Ok(Profile::Quick));
        assert_eq!(Profile::parse(Some("full")), Ok(Profile::Full));
        // Each of these ran the Quick profile silently before.
        for typo in ["Full", "ful", "quick "] {
            assert_eq!(
                Profile::parse(Some(typo)),
                Err(format!(
                    "unknown SPARSETRAIN_PROFILE {typo:?} (one of: quick, full)"
                ))
            );
        }
    }

    #[test]
    fn quick_datasets_are_small() {
        let spec = Profile::Quick.dataset("cifar10");
        assert!(spec.train_samples <= 300);
        assert_eq!(spec.size % 8, 0);
    }

    #[test]
    fn full_datasets_are_larger() {
        let q = Profile::Quick.dataset("cifar100");
        let f = Profile::Full.dataset("cifar100");
        assert!(f.train_samples > q.train_samples);
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_panics() {
        let _ = Profile::Quick.dataset("mnist");
    }

    #[test]
    fn imagenet_quick_size_divisible_by_8() {
        assert_eq!(Profile::Quick.dataset("imagenet").size % 8, 0);
    }
}
