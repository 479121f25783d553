//! Runtime-selected Q-format quantization and headroom analysis.
//!
//! The paper's RTL computes in 16-bit fixed point (the simulator's word
//! accounting assumes 2-byte operands). [`QFormat`] is that datapath's
//! number format with the fractional bit count chosen at run time, since
//! hardware design-space exploration asks a runtime question: for this
//! tensor's value distribution, which 16-bit Q-format keeps saturation
//! and rounding error simultaneously negligible? This module answers it
//! with [`QFormat::best_for`] and quantifies the cost of any
//! choice with [`QuantError`] — the evidence behind the paper's 16-bit
//! datapath (its RTL computes in 16-bit fixed point while the reference
//! training runs in float).
//!
//! # Example
//!
//! ```
//! use sparsetrain_tensor::qformat::QFormat;
//!
//! let activations: Vec<f32> = (0..100).map(|i| i as f32 / 100.0).collect();
//! let q = QFormat::best_for(&activations);
//! let err = q.roundtrip_error(&activations);
//! assert!(err.max_abs <= q.epsilon() / 2.0 + 1e-9);
//! assert_eq!(err.saturated, 0);
//! ```

use std::fmt;

/// A signed 16-bit fixed-point format `Q(15−f).f` with `f` fractional
/// bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    frac_bits: u32,
}

impl QFormat {
    /// Creates a format with `frac_bits` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits > 15` (sign bit must remain).
    pub const fn new(frac_bits: u32) -> Self {
        assert!(frac_bits <= 15, "frac_bits must be <= 15");
        Self { frac_bits }
    }

    /// The paper-typical activation format Q7.8.
    pub const fn q8_8() -> Self {
        Self::new(8)
    }

    /// Fractional bit count.
    pub const fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Smallest representable increment.
    pub fn epsilon(&self) -> f32 {
        1.0 / (1u32 << self.frac_bits) as f32
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f32 {
        i16::MAX as f32 * self.epsilon()
    }

    /// Quantizes one value, saturating at the range limits.
    pub fn quantize(&self, v: f32) -> i16 {
        let scaled = (v / self.epsilon()).round();
        scaled.clamp(i16::MIN as f32, i16::MAX as f32) as i16
    }

    /// Dequantizes a raw value.
    pub fn dequantize(&self, bits: i16) -> f32 {
        bits as f32 * self.epsilon()
    }

    /// Quantizes then dequantizes — the value the 16-bit datapath
    /// actually computes with.
    pub fn roundtrip(&self, v: f32) -> f32 {
        self.dequantize(self.quantize(v))
    }

    /// Applies the roundtrip in place (simulating a fixed-point store).
    pub fn roundtrip_slice(&self, values: &mut [f32]) {
        for v in values.iter_mut() {
            *v = self.roundtrip(*v);
        }
    }

    /// Measures the quantization error this format inflicts on `values`.
    pub fn roundtrip_error(&self, values: &[f32]) -> QuantError {
        let mut err = QuantError::default();
        if values.is_empty() {
            return err;
        }
        let limit = self.max_value();
        let mut sq_sum = 0.0f64;
        for &v in values {
            if v.abs() > limit {
                err.saturated += 1;
            }
            let e = (self.roundtrip(v) - v).abs();
            err.max_abs = err.max_abs.max(e);
            sq_sum += (e as f64) * (e as f64);
        }
        err.rms = (sq_sum / values.len() as f64).sqrt();
        err
    }

    /// Chooses the format with the most fractional bits whose range still
    /// covers every value (no saturation) — maximum precision at full
    /// headroom. Falls back to Q0.15 for all-zero or empty input.
    pub fn best_for(values: &[f32]) -> QFormat {
        let peak = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        for frac in (0..=15u32).rev() {
            let q = QFormat::new(frac);
            if peak <= q.max_value() {
                return q;
            }
        }
        QFormat::new(0)
    }

    /// Signal-to-quantization-noise ratio over `values`, in dB
    /// (`None` for empty or all-zero input, or when error is exactly 0).
    pub fn sqnr_db(&self, values: &[f32]) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        let signal: f64 = values.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>() / values.len() as f64;
        if signal == 0.0 {
            return None;
        }
        let err = self.roundtrip_error(values);
        let noise = err.rms * err.rms;
        if noise == 0.0 {
            return None;
        }
        Some(10.0 * (signal / noise).log10())
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", 15 - self.frac_bits, self.frac_bits)
    }
}

/// Error introduced by quantizing a value set under one [`QFormat`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QuantError {
    /// Largest absolute round-trip error.
    pub max_abs: f32,
    /// Root-mean-square round-trip error.
    pub rms: f64,
    /// Values that exceeded the representable range (clipped).
    pub saturated: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_roundtrip_exactly() {
        let q = QFormat::q8_8();
        for v in [0.0f32, 1.0, -1.0, 0.5, 127.996_09, -128.0] {
            assert_eq!(q.roundtrip(v), v, "value {v}");
        }
    }

    #[test]
    fn rounding_error_is_bounded_by_half_epsilon() {
        let q = QFormat::new(10);
        let values: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.00317).sin() * 10.0).collect();
        let err = q.roundtrip_error(&values);
        assert!(err.max_abs <= q.epsilon() / 2.0 + f32::EPSILON);
        assert_eq!(err.saturated, 0);
    }

    #[test]
    fn saturation_is_counted_and_clipped() {
        let q = QFormat::new(12); // range ±8
        let values = [100.0f32, -50.0, 1.0];
        let err = q.roundtrip_error(&values);
        assert_eq!(err.saturated, 2);
        assert_eq!(q.roundtrip(100.0), q.max_value());
    }

    #[test]
    fn best_for_maximizes_precision_without_saturation() {
        // Peak 3.2 fits Q2.13's ±4.0 range but not Q1.14's ±2.0.
        let values = [3.2f32, -1.0, 0.01];
        let q = QFormat::best_for(&values);
        assert_eq!(q.frac_bits(), 13);
        assert_eq!(q.roundtrip_error(&values).saturated, 0);
        let finer = QFormat::new(14);
        assert!(finer.roundtrip_error(&values).saturated > 0);
    }

    #[test]
    fn best_for_degenerate_inputs() {
        assert_eq!(QFormat::best_for(&[]).frac_bits(), 15);
        assert_eq!(QFormat::best_for(&[0.0, 0.0]).frac_bits(), 15);
        // A huge value forces the coarsest format (and still saturates).
        let q = QFormat::best_for(&[1e9]);
        assert_eq!(q.frac_bits(), 0);
    }

    #[test]
    fn finer_formats_have_higher_sqnr() {
        let values: Vec<f32> = (0..2000).map(|i| ((i * 29) % 97) as f32 / 97.0 - 0.5).collect();
        let coarse = QFormat::new(6).sqnr_db(&values).unwrap();
        let fine = QFormat::new(12).sqnr_db(&values).unwrap();
        assert!(fine > coarse + 20.0, "fine {fine} dB vs coarse {coarse} dB");
        // Rule of thumb: ~6 dB per bit; 6 extra bits ≈ 36 dB.
        assert!((fine - coarse - 36.0).abs() < 6.0);
    }

    #[test]
    fn sqnr_none_for_degenerate_inputs() {
        let q = QFormat::q8_8();
        assert_eq!(q.sqnr_db(&[]), None);
        assert_eq!(q.sqnr_db(&[0.0; 4]), None);
        // Exactly representable values → zero noise → None.
        assert_eq!(q.sqnr_db(&[1.0, 2.0]), None);
    }

    #[test]
    fn display_names_the_format() {
        assert_eq!(QFormat::q8_8().to_string(), "Q7.8");
        assert_eq!(QFormat::new(15).to_string(), "Q0.15");
    }

    #[test]
    #[should_panic(expected = "frac_bits")]
    fn sixteen_frac_bits_panics() {
        let _ = QFormat::new(16);
    }

    #[test]
    fn roundtrip_slice_is_idempotent() {
        let q = QFormat::new(9);
        let mut a: Vec<f32> = (0..64).map(|i| (i as f32).cos()).collect();
        q.roundtrip_slice(&mut a);
        let snapshot = a.clone();
        q.roundtrip_slice(&mut a);
        assert_eq!(a, snapshot, "second roundtrip must be exact");
    }
}
