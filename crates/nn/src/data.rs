//! Synthetic labelled image datasets.
//!
//! The paper trains on CIFAR-10/100 and ImageNet. Those datasets are not
//! available offline, so we substitute structured synthetic data that
//! exercises the identical code paths (see `docs/ARCHITECTURE.md`,
//! *Substitutions*): each class has a
//! smooth random prototype image plus a class-specific frequency pattern;
//! samples are noisy draws around their prototype. Networks must genuinely
//! learn the class structure — a random-guess classifier scores `1/K`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsetrain_tensor::init::sample_standard_normal;
use sparsetrain_tensor::Tensor3;

/// A labelled image dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Per-sample images.
    pub images: Vec<Tensor3>,
    /// Per-sample class labels, in `[0, num_classes)`.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }
}

/// Specification of a synthetic dataset.
///
/// ```
/// use sparsetrain_nn::data::SyntheticSpec;
/// let (train, test) = SyntheticSpec::tiny(4).generate();
/// assert_eq!(train.num_classes, 4);
/// assert!(!train.is_empty() && !test.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticSpec {
    /// Number of classes `K`.
    pub classes: usize,
    /// Training samples to generate.
    pub train_samples: usize,
    /// Test samples to generate.
    pub test_samples: usize,
    /// Image channels.
    pub channels: usize,
    /// Image side length (square images).
    pub size: usize,
    /// Additive per-pixel noise standard deviation (relative to the
    /// prototype signal scale of ~1); larger values make the task harder.
    pub noise: f32,
    /// RNG seed (datasets are fully deterministic given the spec).
    pub seed: u64,
}

impl SyntheticSpec {
    /// CIFAR-10-like proxy: 10 classes, 32×32×3.
    pub fn cifar10_like() -> Self {
        Self {
            classes: 10,
            train_samples: 2000,
            test_samples: 400,
            channels: 3,
            size: 32,
            noise: 1.8,
            seed: 0xC1FA_0010,
        }
    }

    /// CIFAR-100-like proxy: more classes on the same image geometry.
    pub fn cifar100_like() -> Self {
        Self {
            classes: 20, // scaled down from 100 to keep CPU training tractable
            train_samples: 2400,
            test_samples: 480,
            channels: 3,
            size: 32,
            noise: 1.8,
            seed: 0xC1FA_0100,
        }
    }

    /// ImageNet-like proxy: larger images, more classes (scaled to CPU).
    pub fn imagenet_like() -> Self {
        Self {
            classes: 20,
            train_samples: 1600,
            test_samples: 320,
            channels: 3,
            size: 48,
            noise: 2.0,
            seed: 0x1A9E_7001,
        }
    }

    /// A tiny dataset for unit tests (8×8 images, seconds to train on).
    pub fn tiny(classes: usize) -> Self {
        Self {
            classes,
            train_samples: classes * 24,
            test_samples: classes * 8,
            channels: 3,
            size: 8,
            noise: 0.35,
            seed: 7,
        }
    }

    /// Generates `(train, test)` datasets.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0` or the image geometry is degenerate.
    pub fn generate(&self) -> (Dataset, Dataset) {
        assert!(self.classes > 0, "need at least one class");
        assert!(self.channels > 0 && self.size > 0, "degenerate image shape");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let prototypes: Vec<Tensor3> = (0..self.classes)
            .map(|k| class_prototype(&mut rng, k, self.channels, self.size))
            .collect();
        let train = self.sample_split(&prototypes, self.train_samples, &mut rng);
        let test = self.sample_split(&prototypes, self.test_samples, &mut rng);
        (train, test)
    }

    /// Draws `n` samples, then shuffles them. Each image is written once,
    /// straight from its prototype, and the shuffle moves images into
    /// their slots, so the split is never held twice.
    fn sample_split(&self, prototypes: &[Tensor3], n: usize, rng: &mut StdRng) -> Dataset {
        // Renormalize to roughly unit variance so the task difficulty
        // (signal-to-noise ratio) is decoupled from the input scale the
        // optimizer sees.
        let scale = 1.0 / (1.0 + self.noise * self.noise).sqrt();
        let mut drawn: Vec<Option<Tensor3>> = (0..n)
            .map(|i| {
                // Balanced classes. Per-sample jitter: a small global
                // brightness shift plus additive noise, the classic "same
                // class, different image".
                let proto = &prototypes[i % self.classes];
                let shift = sample_standard_normal(rng) * 0.1;
                let data = proto
                    .as_slice()
                    .iter()
                    .map(|&p| ((p + shift) + sample_standard_normal(rng) * self.noise) * scale)
                    .collect();
                let (c, h, w) = proto.shape();
                Some(Tensor3::from_vec(c, h, w, data))
            })
            .collect();
        // Shuffle so batches are class-mixed.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let images = order
            .iter()
            .map(|&i| drawn[i].take().expect("a permutation visits each slot once"))
            .collect();
        Dataset {
            images,
            labels: order.iter().map(|&i| i % self.classes).collect(),
            num_classes: self.classes,
        }
    }
}

/// Builds one class prototype: a smooth random field (bilinear upsample of
/// a coarse noise grid) plus a class-indexed sinusoidal pattern, so classes
/// differ in both low-frequency content and texture.
fn class_prototype(rng: &mut StdRng, class: usize, channels: usize, size: usize) -> Tensor3 {
    let coarse = 4usize;
    // Coarse grids, one per channel.
    let grids: Vec<Vec<f32>> = (0..channels)
        .map(|_| {
            (0..coarse * coarse)
                .map(|_| sample_standard_normal(rng))
                .collect()
        })
        .collect();
    let freq = 1.0 + (class % 5) as f32;
    let phase = (class / 5) as f32 * 0.7;
    Tensor3::from_fn(channels, size, size, |c, y, x| {
        // Bilinear interpolation of the coarse grid.
        let fy = y as f32 / size as f32 * (coarse - 1) as f32;
        let fx = x as f32 / size as f32 * (coarse - 1) as f32;
        let y0 = fy.floor() as usize;
        let x0 = fx.floor() as usize;
        let y1 = (y0 + 1).min(coarse - 1);
        let x1 = (x0 + 1).min(coarse - 1);
        let ty = fy - y0 as f32;
        let tx = fx - x0 as f32;
        let g = &grids[c];
        let smooth = g[y0 * coarse + x0] * (1.0 - ty) * (1.0 - tx)
            + g[y0 * coarse + x1] * (1.0 - ty) * tx
            + g[y1 * coarse + x0] * ty * (1.0 - tx)
            + g[y1 * coarse + x1] * ty * tx;
        let texture = ((x as f32 * freq + phase) * std::f32::consts::TAU / size as f32).sin()
            * ((y as f32 * freq - phase) * std::f32::consts::TAU / size as f32).cos();
        smooth + 0.8 * texture
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let (a, _) = SyntheticSpec::tiny(3).generate();
        let (b, _) = SyntheticSpec::tiny(3).generate();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.images[0], b.images[0]);
    }

    /// FNV-1a over both splits: each label as a little-endian `u64`, then
    /// its image's `f32` bits.
    fn fnv1a(spec: &SyntheticSpec) -> u64 {
        let (train, test) = spec.generate();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for set in [&train, &test] {
            for (img, &label) in set.images.iter().zip(&set.labels) {
                eat(&(label as u64).to_le_bytes());
                for v in img.as_slice() {
                    eat(&v.to_bits().to_le_bytes());
                }
            }
        }
        h
    }

    /// The generated bytes themselves, not only run-to-run agreement: any
    /// change to the draw order or the rounding of a sample moves these.
    #[test]
    fn generated_bytes_are_pinned() {
        let cifar16 = SyntheticSpec {
            size: 16,
            ..SyntheticSpec::cifar10_like()
        };
        assert_eq!(
            [fnv1a(&SyntheticSpec::tiny(3)), fnv1a(&cifar16)],
            [0xc421_c965_b849_f717, 0xff92_05ba_dcf3_e171],
            "FNV-1a of (tiny(3), 16×16 cifar10_like)"
        );
    }

    #[test]
    fn balanced_classes() {
        let (train, _) = SyntheticSpec::tiny(4).generate();
        let mut counts = vec![0usize; 4];
        for &l in &train.labels {
            counts[l] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max - min <= 1, "unbalanced: {counts:?}");
    }

    #[test]
    fn images_have_requested_shape() {
        let spec = SyntheticSpec {
            classes: 2,
            train_samples: 4,
            test_samples: 2,
            channels: 3,
            size: 16,
            noise: 0.5,
            seed: 1,
        };
        let (train, test) = spec.generate();
        assert_eq!(train.images[0].shape(), (3, 16, 16));
        assert_eq!(test.len(), 2);
    }

    #[test]
    fn prototypes_distinguish_classes() {
        // Samples of the same class should correlate more with their own
        // prototype than with another class's.
        let spec = SyntheticSpec::tiny(2);
        let (train, _) = spec.generate();
        let class0: Vec<&Tensor3> = train
            .images
            .iter()
            .zip(&train.labels)
            .filter(|(_, &l)| l == 0)
            .map(|(t, _)| t)
            .collect();
        let class1: Vec<&Tensor3> = train
            .images
            .iter()
            .zip(&train.labels)
            .filter(|(_, &l)| l == 1)
            .map(|(t, _)| t)
            .collect();
        let mean = |imgs: &[&Tensor3]| -> Vec<f32> {
            let n = imgs[0].len();
            let mut m = vec![0.0; n];
            for img in imgs {
                for (a, b) in m.iter_mut().zip(img.as_slice()) {
                    *a += b / imgs.len() as f32;
                }
            }
            m
        };
        let m0 = mean(&class0);
        let m1 = mean(&class1);
        let dist: f32 = m0.iter().zip(&m1).map(|(a, b)| (a - b) * (a - b)).sum();
        assert!(dist > 1.0, "class means too close: {dist}");
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_rejected() {
        let spec = SyntheticSpec {
            classes: 0,
            train_samples: 0,
            test_samples: 0,
            channels: 1,
            size: 4,
            noise: 0.1,
            seed: 0,
        };
        let _ = spec.generate();
    }
}
