//! Architecture configuration, and the one error every simulator
//! configuration's `validate` returns.

use std::fmt;

/// A simulator configuration field holding a value the models cannot run
/// with, as reported by [`ArchConfig::validate`],
/// [`BufferConfig::validate`](crate::buffer::BufferConfig::validate) and
/// [`DramConfig::validate`](crate::dram::DramConfig::validate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field.
    pub field: &'static str,
    /// What the field must be.
    pub requirement: &'static str,
}

impl ConfigError {
    /// `Ok` when `holds`, else the error naming `field`.
    pub(crate) fn check(holds: bool, field: &'static str, requirement: &'static str) -> Result<(), Self> {
        holds.then_some(()).ok_or(Self { field, requirement })
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid configuration: {} must be {}",
            self.field, self.requirement
        )
    }
}

impl std::error::Error for ConfigError {}

/// Parameters of the simulated accelerator.
///
/// Defaults mirror the paper's evaluation setup: 168 PEs organised as 56
/// groups of 3, a 386 KB global buffer, 16-bit operand words.
///
/// ```
/// use sparsetrain_sim::ArchConfig;
/// let cfg = ArchConfig::paper_default();
/// assert_eq!(cfg.total_pes(), 168);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchConfig {
    /// Number of PE groups (each: 3 PEs + 1 PPU).
    pub pe_groups: usize,
    /// PEs per group.
    pub pes_per_group: usize,
    /// Multiplier lanes per PE (covers one kernel row per cycle; kernels
    /// larger than this are split across multiple passes).
    pub mac_lanes: usize,
    /// Global buffer capacity in bytes.
    pub buffer_bytes: usize,
    /// Operand word size in bytes (16-bit fixed point in the RTL).
    pub word_bytes: usize,
    /// Aggregate global-buffer bandwidth, words per cycle.
    pub sram_words_per_cycle: u64,
    /// Off-chip DRAM bandwidth, words per cycle.
    pub dram_words_per_cycle: u64,
    /// Clock frequency in MHz (only used to convert cycles to latency).
    pub clock_mhz: f64,
    /// Training batch size: weights and weight gradients move between DRAM
    /// and the buffer once per batch, so their per-sample traffic is
    /// amortized by this factor.
    pub batch_size: usize,
}

impl ArchConfig {
    /// The paper's configuration (§VI): 168 PEs, 386 KB buffer.
    pub fn paper_default() -> Self {
        Self {
            pe_groups: 56,
            pes_per_group: 3,
            mac_lanes: 11,
            buffer_bytes: 386 * 1024,
            word_bytes: 2,
            sram_words_per_cycle: 256,
            dram_words_per_cycle: 16,
            clock_mhz: 800.0,
            batch_size: 32,
        }
    }

    /// A small configuration for fast unit tests (4 groups).
    pub fn tiny() -> Self {
        Self {
            pe_groups: 4,
            pes_per_group: 3,
            mac_lanes: 5,
            buffer_bytes: 64 * 1024,
            word_bytes: 2,
            sram_words_per_cycle: 32,
            dram_words_per_cycle: 4,
            clock_mhz: 800.0,
            batch_size: 8,
        }
    }

    /// Total PE count.
    pub fn total_pes(&self) -> usize {
        self.pe_groups * self.pes_per_group
    }

    /// Checks the configuration for degenerate values.
    ///
    /// # Errors
    ///
    /// Returns the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::check(self.pe_groups > 0, "pe_groups", "positive")?;
        ConfigError::check(self.pes_per_group > 0, "pes_per_group", "positive")?;
        ConfigError::check(self.mac_lanes > 0, "mac_lanes", "positive")?;
        ConfigError::check(self.word_bytes > 0, "word_bytes", "positive")?;
        ConfigError::check(self.sram_words_per_cycle > 0, "sram_words_per_cycle", "positive")?;
        ConfigError::check(self.dram_words_per_cycle > 0, "dram_words_per_cycle", "positive")?;
        ConfigError::check(
            self.clock_mhz.is_finite() && self.clock_mhz > 0.0,
            "clock_mhz",
            "finite and positive",
        )?;
        ConfigError::check(self.batch_size > 0, "batch_size", "positive")
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_paper() {
        let cfg = ArchConfig::paper_default();
        assert_eq!(cfg.total_pes(), 168);
        assert_eq!(cfg.buffer_bytes, 386 * 1024);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_zeroes() {
        let mut cfg = ArchConfig::tiny();
        cfg.mac_lanes = 0;
        assert!(cfg.validate().is_err());
    }

    /// A zero word size used to pass and then divide by zero in
    /// `simulate`; a NaN clock passed because `NaN <= 0.0` is false.
    #[test]
    fn validation_names_word_bytes_and_non_finite_clocks() {
        let mut cfg = ArchConfig::tiny();
        cfg.word_bytes = 0;
        assert_eq!(cfg.validate().unwrap_err().field, "word_bytes");
        for clock in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0] {
            let mut cfg = ArchConfig::tiny();
            cfg.clock_mhz = clock;
            let err = cfg.validate().unwrap_err();
            assert_eq!(err.field, "clock_mhz", "{clock}");
            assert!(err.to_string().contains("clock_mhz"), "{err}");
        }
    }
}
