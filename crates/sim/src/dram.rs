//! Off-chip DRAM timing refinement.
//!
//! The whole-network simulator prices DRAM traffic with a flat
//! words-per-cycle bandwidth ([`crate::config::ArchConfig`]); that is the
//! right fidelity for Fig. 8/9 where DRAM never binds. This module refines
//! the picture for the memory-sensitivity sweeps: transfers are broken into
//! bursts, each burst lands in a bank's row buffer, and a transfer that
//! leaves the open row pays an activate–precharge penalty. The model shows
//! *why* the flat bandwidth assumption holds for SparseTrain's streaming
//! transfers (sequential bursts are almost all row hits) and what a
//! scatter-gather access pattern would cost instead.
//!
//! # Example
//!
//! ```
//! use sparsetrain_sim::dram::{DramConfig, DramModel};
//!
//! let mut dram = DramModel::new(DramConfig::lpddr4_like());
//! let stats = dram.read(0, 4096);
//! // A 4096-word sequential stream is nearly all row hits.
//! assert!(stats.row_misses <= 1 + 4096 / dram.config().row_words as u64);
//! ```

use std::fmt;

/// Timing parameters of the DRAM device, in accelerator clock cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Words moved by one burst.
    pub burst_words: usize,
    /// Cycles one burst occupies the channel.
    pub burst_cycles: u64,
    /// Words covered by one open row (page) per bank.
    pub row_words: usize,
    /// Penalty cycles for closing the open row and activating a new one.
    pub activate_cycles: u64,
    /// Number of banks (open rows tracked independently).
    pub banks: usize,
    /// Energy of one burst transfer, pJ.
    pub burst_pj: f64,
    /// Energy of one row activation, pJ.
    pub activate_pj: f64,
}

impl DramConfig {
    /// A LPDDR4-class device seen from an 800 MHz accelerator: 32-word
    /// (64-byte) bursts, 2 KB pages, 8 banks.
    pub fn lpddr4_like() -> Self {
        Self {
            burst_words: 32,
            burst_cycles: 2,
            row_words: 1024,
            activate_cycles: 28,
            banks: 8,
            burst_pj: 32.0 * 160.0, // per-word DRAM energy × words per burst
            activate_pj: 900.0,
        }
    }

    /// Checks the configuration for degenerate values.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.burst_words == 0 || self.row_words == 0 || self.banks == 0 {
            return Err("burst, row and bank sizes must be positive".into());
        }
        if !self.row_words.is_multiple_of(self.burst_words) {
            return Err(format!(
                "row_words {} must be a multiple of burst_words {}",
                self.row_words, self.burst_words
            ));
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::lpddr4_like()
    }
}

/// Outcome of a sequence of transfers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Bursts issued.
    pub bursts: u64,
    /// Bursts that hit an already-open row.
    pub row_hits: u64,
    /// Bursts that required an activate.
    pub row_misses: u64,
    /// Total channel cycles consumed.
    pub cycles: u64,
}

impl DramStats {
    /// Component-wise sum.
    pub fn add(&self, other: &DramStats) -> DramStats {
        DramStats {
            bursts: self.bursts + other.bursts,
            row_hits: self.row_hits + other.row_hits,
            row_misses: self.row_misses + other.row_misses,
            cycles: self.cycles + other.cycles,
        }
    }
}

impl fmt::Display for DramStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bursts ({} hits, {} misses), {} cycles",
            self.bursts, self.row_hits, self.row_misses, self.cycles
        )
    }
}

/// Stateful DRAM channel: tracks the open row of every bank.
///
/// Addresses are word addresses; the bank of a burst is selected by the
/// row index modulo the bank count (row-interleaved mapping, the common
/// choice for streaming accelerators). Bank-level parallelism is
/// modelled: an activate in a bank *different* from the previously
/// accessed one overlaps with the in-flight bursts and costs no channel
/// time, while a same-bank row change stalls the channel for the full
/// activate latency. Sequential streams therefore run near peak
/// bandwidth (consecutive rows interleave across banks) and same-bank
/// page hopping pays the worst case — the two regimes the sweeps compare.
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    open_rows: Vec<Option<u64>>,
    last_bank: Option<usize>,
    total: DramStats,
}

impl DramModel {
    /// Creates a channel with all rows closed.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(config: DramConfig) -> Self {
        config.validate().expect("invalid DRAM configuration");
        Self {
            config,
            open_rows: vec![None; config.banks],
            last_bank: None,
            total: DramStats::default(),
        }
    }

    /// The channel's configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Stats accumulated over the channel's lifetime.
    pub fn lifetime(&self) -> DramStats {
        self.total
    }

    /// Closes every open row (e.g. at a layer boundary after a long idle
    /// period where refresh closes the pages).
    pub fn precharge_all(&mut self) {
        self.open_rows.fill(None);
    }

    /// Performs one read transfer of `words` starting at word address
    /// `addr` and returns its stats. A zero-length transfer is free.
    pub fn read(&mut self, addr: u64, words: u64) -> DramStats {
        self.transfer(addr, words)
    }

    /// Performs one write transfer (timed identically to a read at this
    /// abstraction level; the energy table prices them the same too).
    pub fn write(&mut self, addr: u64, words: u64) -> DramStats {
        self.transfer(addr, words)
    }

    fn transfer(&mut self, addr: u64, words: u64) -> DramStats {
        let mut stats = DramStats::default();
        if words == 0 {
            return stats;
        }
        let bw = self.config.burst_words as u64;
        let first_burst = addr / bw;
        let last_burst = (addr + words - 1) / bw;
        for burst in first_burst..=last_burst {
            let row = burst * bw / self.config.row_words as u64;
            let bank = (row % self.config.banks as u64) as usize;
            stats.bursts += 1;
            stats.cycles += self.config.burst_cycles;
            if self.open_rows[bank] == Some(row) {
                stats.row_hits += 1;
            } else {
                stats.row_misses += 1;
                // Same-bank row change stalls the channel; a different
                // bank's activate overlaps with in-flight bursts.
                if self.last_bank == Some(bank) {
                    stats.cycles += self.config.activate_cycles;
                }
                self.open_rows[bank] = Some(row);
            }
            self.last_bank = Some(bank);
        }
        self.total = self.total.add(&stats);
        stats
    }

    /// Energy of a stats record under this configuration, pJ.
    pub fn energy_pj(&self, stats: &DramStats) -> f64 {
        stats.bursts as f64 * self.config.burst_pj + stats.row_misses as f64 * self.config.activate_pj
    }

    /// Effective bandwidth of a stats record, words per cycle.
    pub fn effective_bandwidth(&self, stats: &DramStats) -> f64 {
        if stats.cycles == 0 {
            0.0
        } else {
            (stats.bursts * self.config.burst_words as u64) as f64 / stats.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DramModel {
        DramModel::new(DramConfig::lpddr4_like())
    }

    #[test]
    fn zero_transfer_is_free() {
        let mut d = model();
        let s = d.read(0, 0);
        assert_eq!(s, DramStats::default());
    }

    #[test]
    fn sequential_stream_is_mostly_row_hits() {
        let mut d = model();
        let words = 8 * 1024;
        let s = d.read(0, words);
        let rows_touched = words / d.config().row_words as u64;
        assert_eq!(s.row_misses, rows_touched, "one miss per new row");
        let hit_rate = s.row_hits as f64 / s.bursts as f64;
        assert!(hit_rate > 0.9, "hit rate {hit_rate} too low for a stream");
    }

    #[test]
    fn strided_page_hopping_pays_activates() {
        let mut d = model();
        let row_words = d.config().row_words as u64;
        let mut stats = DramStats::default();
        // Touch one burst from each of 64 distinct rows mapping to the
        // same set of banks repeatedly: with 8 banks, rows 0,8,16,… share
        // bank 0, so each revisit misses.
        for i in 0..64u64 {
            stats = stats.add(&d.read(i * row_words * d.config().banks as u64, 1));
        }
        assert_eq!(stats.row_misses, 64, "every hop should miss");
        let stream = d.read(1 << 30, 4096);
        assert!(d.effective_bandwidth(&stats) < d.effective_bandwidth(&stream));
    }

    #[test]
    fn banks_hold_independent_rows() {
        let mut d = model();
        let row_words = d.config().row_words as u64;
        // Open row 0 (bank 0) and row 1 (bank 1), then revisit both: all hits.
        d.read(0, 1);
        d.read(row_words, 1);
        let a = d.read(1, 1);
        let b = d.read(row_words + 1, 1);
        assert_eq!(a.row_hits, 1);
        assert_eq!(b.row_hits, 1);
    }

    #[test]
    fn precharge_closes_rows() {
        let mut d = model();
        d.read(0, 1);
        assert_eq!(d.read(1, 1).row_hits, 1);
        d.precharge_all();
        assert_eq!(d.read(2, 1).row_misses, 1);
    }

    #[test]
    fn unaligned_transfer_covers_both_edge_bursts() {
        let mut d = model();
        let bw = d.config().burst_words as u64;
        // Start mid-burst, end mid-burst: ceil coverage.
        let s = d.read(bw / 2, bw);
        assert_eq!(s.bursts, 2);
    }

    #[test]
    fn lifetime_accumulates() {
        let mut d = model();
        d.read(0, 100);
        d.write(4096, 100);
        let l = d.lifetime();
        assert!(l.bursts >= 2);
        assert_eq!(l.bursts, l.row_hits + l.row_misses);
    }

    #[test]
    fn energy_scales_with_misses() {
        let d = model();
        let hits = DramStats {
            bursts: 10,
            row_hits: 10,
            row_misses: 0,
            cycles: 20,
        };
        let misses = DramStats {
            bursts: 10,
            row_hits: 0,
            row_misses: 10,
            cycles: 300,
        };
        assert!(d.energy_pj(&misses) > d.energy_pj(&hits));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = DramConfig::lpddr4_like();
        c.banks = 0;
        assert!(c.validate().is_err());
        let mut c = DramConfig::lpddr4_like();
        c.row_words = c.burst_words + 1; // not a multiple
        assert!(c.validate().is_err());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!DramStats::default().to_string().is_empty());
    }
}
