//! Banked global-buffer model.
//!
//! The 386 KB global buffer (§VI) is physically a set of SRAM banks, each
//! with one read/write port. The whole-network simulator folds the buffer
//! into a single aggregate words-per-cycle bandwidth; this module models
//! the banks explicitly so bank *conflicts* — several PEs pulling operands
//! whose addresses collide in one bank — become visible. It answers the
//! sizing question behind `ArchConfig::sram_words_per_cycle`: how many
//! banks does a 168-PE machine need before conflicts stop mattering?
//!
//! # Example
//!
//! ```
//! use sparsetrain_sim::buffer::{BankedBuffer, BufferConfig};
//!
//! let mut buf = BankedBuffer::new(BufferConfig::paper_386k());
//! // 16 PEs each fetch one word; interleaved addresses spread across banks.
//! let addrs: Vec<u64> = (0..16).collect();
//! let cycles = buf.service(&addrs);
//! assert_eq!(cycles, 1, "conflict-free access takes one cycle");
//! ```

use crate::config::ConfigError;

/// Geometry of the banked buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferConfig {
    /// Number of banks.
    pub banks: usize,
    /// Words one bank services per cycle (ports).
    pub words_per_bank_per_cycle: usize,
    /// Total capacity, words.
    pub capacity_words: usize,
}

impl BufferConfig {
    /// The paper's 386 KB buffer as 32 × ~12 KB single-port banks
    /// (32 words/cycle aggregate — 256 words/cycle in `ArchConfig` units
    /// corresponds to a wider word; the *ratio* experiments only use
    /// relative numbers).
    pub fn paper_386k() -> Self {
        Self {
            banks: 32,
            words_per_bank_per_cycle: 1,
            capacity_words: 386 * 1024 / 2,
        }
    }

    /// A small configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            banks: 4,
            words_per_bank_per_cycle: 1,
            capacity_words: 4096,
        }
    }

    /// Aggregate conflict-free bandwidth, words per cycle.
    pub fn peak_words_per_cycle(&self) -> usize {
        self.banks * self.words_per_bank_per_cycle
    }

    /// Checks the configuration for degenerate values.
    ///
    /// # Errors
    ///
    /// Returns the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::check(self.banks > 0, "banks", "positive")?;
        ConfigError::check(
            self.words_per_bank_per_cycle > 0,
            "words_per_bank_per_cycle",
            "positive",
        )?;
        ConfigError::check(self.capacity_words > 0, "capacity_words", "positive")
    }
}

impl Default for BufferConfig {
    fn default() -> Self {
        Self::paper_386k()
    }
}

/// Conflict statistics accumulated by a [`BankedBuffer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Service rounds executed (each round is one batch of simultaneous
    /// requests).
    pub rounds: u64,
    /// Words serviced.
    pub words: u64,
    /// Cycles consumed.
    pub cycles: u64,
    /// Cycles beyond the conflict-free minimum (stalls caused purely by
    /// bank collisions).
    pub conflict_cycles: u64,
}

impl BufferStats {
    /// Achieved bandwidth, words per cycle (0 when idle).
    pub fn achieved_bandwidth(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.words as f64 / self.cycles as f64
        }
    }
}

/// A banked SRAM with word-interleaved bank mapping (`bank = addr % banks`).
#[derive(Debug, Clone)]
pub struct BankedBuffer {
    config: BufferConfig,
    stats: BufferStats,
    bank_loads: Vec<u64>,
}

impl BankedBuffer {
    /// Creates an idle buffer.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(config: BufferConfig) -> Self {
        config.validate().expect("invalid buffer configuration");
        Self {
            config,
            stats: BufferStats::default(),
            bank_loads: vec![0; config.banks],
        }
    }

    /// The buffer's configuration.
    pub fn config(&self) -> &BufferConfig {
        &self.config
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Per-bank word counts over the buffer's lifetime (load-balance view).
    pub fn bank_loads(&self) -> &[u64] {
        &self.bank_loads
    }

    /// Services one batch of simultaneous word requests and returns the
    /// cycles the batch takes: the most-loaded bank's queue divided by its
    /// port width. An empty batch is free.
    pub fn service(&mut self, addrs: &[u64]) -> u64 {
        if addrs.is_empty() {
            return 0;
        }
        let mut per_bank = vec![0u64; self.config.banks];
        for &a in addrs {
            let bank = (a % self.config.banks as u64) as usize;
            per_bank[bank] += 1;
            self.bank_loads[bank] += 1;
        }
        let worst = per_bank.iter().copied().max().unwrap_or(0);
        let ports = self.config.words_per_bank_per_cycle as u64;
        let cycles = worst.div_ceil(ports);
        let ideal = (addrs.len() as u64).div_ceil(self.config.peak_words_per_cycle() as u64);
        self.stats.rounds += 1;
        self.stats.words += addrs.len() as u64;
        self.stats.cycles += cycles;
        self.stats.conflict_cycles += cycles - ideal.min(cycles);
        cycles
    }

    /// Services a contiguous stream of `words` starting at `addr`,
    /// `width` requests per round (e.g. one request per active PE), and
    /// returns the total cycles. Sequential interleaved addresses are the
    /// best case — this is how compressed operand rows stream.
    pub fn service_stream(&mut self, addr: u64, words: u64, width: usize) -> u64 {
        let width = width.max(1) as u64;
        let mut cycles = 0;
        let mut offset = 0;
        while offset < words {
            let n = width.min(words - offset);
            let addrs: Vec<u64> = (0..n).map(|i| addr + offset + i).collect();
            cycles += self.service(&addrs);
            offset += n;
        }
        cycles
    }

    /// Clears statistics (configuration is kept).
    pub fn reset(&mut self) {
        self.stats = BufferStats::default();
        self.bank_loads.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_free_round_takes_one_cycle() {
        let mut buf = BankedBuffer::new(BufferConfig::tiny());
        assert_eq!(buf.service(&[0, 1, 2, 3]), 1);
        assert_eq!(buf.stats().conflict_cycles, 0);
    }

    #[test]
    fn same_bank_requests_serialize() {
        let mut buf = BankedBuffer::new(BufferConfig::tiny());
        // All addresses ≡ 0 mod 4 → one bank, four cycles.
        assert_eq!(buf.service(&[0, 4, 8, 12]), 4);
        assert!(buf.stats().conflict_cycles > 0);
    }

    #[test]
    fn empty_batch_is_free() {
        let mut buf = BankedBuffer::new(BufferConfig::tiny());
        assert_eq!(buf.service(&[]), 0);
        assert_eq!(buf.stats().rounds, 0);
    }

    #[test]
    fn wider_ports_cut_serialization() {
        let mut narrow = BankedBuffer::new(BufferConfig::tiny());
        let mut cfg = BufferConfig::tiny();
        cfg.words_per_bank_per_cycle = 2;
        let mut wide = BankedBuffer::new(cfg);
        let addrs = [0u64, 4, 8, 12];
        assert!(wide.service(&addrs) < narrow.service(&addrs));
    }

    #[test]
    fn sequential_stream_achieves_peak_bandwidth() {
        let mut buf = BankedBuffer::new(BufferConfig::tiny());
        let cycles = buf.service_stream(0, 400, 4);
        assert_eq!(cycles, 100, "4 banks × 1 port should move 4 words/cycle");
        assert!((buf.stats().achieved_bandwidth() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn stream_width_beyond_banks_is_bounded_by_banks() {
        let mut buf = BankedBuffer::new(BufferConfig::tiny());
        let cycles = buf.service_stream(0, 64, 16);
        // 16 simultaneous sequential requests over 4 banks: 4 per bank.
        assert_eq!(cycles, 16);
    }

    #[test]
    fn bank_loads_balance_on_interleaved_streams() {
        let mut buf = BankedBuffer::new(BufferConfig::tiny());
        buf.service_stream(0, 4000, 4);
        let loads = buf.bank_loads();
        let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
        assert_eq!(min, max, "interleaved stream must balance banks");
    }

    #[test]
    fn reset_clears_stats_only() {
        let mut buf = BankedBuffer::new(BufferConfig::tiny());
        buf.service(&[0, 1]);
        buf.reset();
        assert_eq!(buf.stats(), BufferStats::default());
        assert_eq!(buf.config().banks, 4);
    }

    #[test]
    fn paper_config_peak_matches_geometry() {
        let cfg = BufferConfig::paper_386k();
        assert_eq!(cfg.peak_words_per_cycle(), 32);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for cfg in [
            BufferConfig {
                banks: 0,
                words_per_bank_per_cycle: 1,
                capacity_words: 1,
            },
            BufferConfig {
                banks: 1,
                words_per_bank_per_cycle: 0,
                capacity_words: 1,
            },
            BufferConfig {
                banks: 1,
                words_per_bank_per_cycle: 1,
                capacity_words: 0,
            },
        ] {
            assert!(cfg.validate().is_err());
        }
    }

    #[test]
    fn achieved_bandwidth_is_zero_when_idle() {
        let buf = BankedBuffer::new(BufferConfig::tiny());
        assert_eq!(buf.stats().achieved_bandwidth(), 0.0);
    }
}
