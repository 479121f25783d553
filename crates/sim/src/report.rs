//! Simulation reports.

use crate::energy::EnergyBreakdown;
use sparsetrain_core::dataflow::StepKind;

/// Cost of one training stage of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepReport {
    /// Wall-clock cycles of the stage (compute/bandwidth bound, whichever
    /// dominates).
    pub cycles: u64,
    /// Multiply–accumulates performed.
    pub macs: u64,
    /// Global-buffer words moved.
    pub sram_words: u64,
    /// DRAM words moved.
    pub dram_words: u64,
    /// Sum of PE busy cycles (for control-energy accounting).
    pub active_cycles: u64,
}

impl StepReport {
    /// Component-wise sum.
    pub fn add(&self, other: &StepReport) -> StepReport {
        StepReport {
            cycles: self.cycles + other.cycles,
            macs: self.macs + other.macs,
            sram_words: self.sram_words + other.sram_words,
            dram_words: self.dram_words + other.dram_words,
            active_cycles: self.active_cycles + other.active_cycles,
        }
    }
}

/// Cost of one layer across the three training stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerReport {
    /// The layer's name.
    pub name: String,
    /// Forward, GTA, GTW in that order.
    pub steps: [StepReport; 3],
}

impl LayerReport {
    /// The report for a specific stage. (Keyed by
    /// [`StepKind`] rather than `sparsetrain_sparse::Stage` only because
    /// `stbench` names it; see its doc.)
    pub fn step(&self, kind: StepKind) -> &StepReport {
        match kind {
            StepKind::Forward => &self.steps[0],
            StepKind::Gta => &self.steps[1],
            StepKind::Gtw => &self.steps[2],
        }
    }

    /// Total cycles over all three stages.
    pub fn total_cycles(&self) -> u64 {
        self.steps.iter().map(|s| s.cycles).sum()
    }
}

/// Whole-network simulation result for one training sample.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Model name from the trace.
    pub model: String,
    /// Dataset name from the trace.
    pub dataset: String,
    /// Total cycles (layers and stages execute back-to-back).
    pub total_cycles: u64,
    /// Total MACs.
    pub total_macs: u64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Per-layer detail.
    pub layers: Vec<LayerReport>,
}

impl SimReport {
    /// Latency in milliseconds at `clock_mhz`.
    pub fn latency_ms(&self, clock_mhz: f64) -> f64 {
        self.total_cycles as f64 / (clock_mhz * 1e3)
    }

    /// Speedup of `self` relative to `baseline` (>1 means `self` faster).
    ///
    /// Returns infinity if `self` took zero cycles and baseline did not.
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        if self.total_cycles == 0 {
            if baseline.total_cycles == 0 {
                return 1.0;
            }
            return f64::INFINITY;
        }
        baseline.total_cycles as f64 / self.total_cycles as f64
    }

    /// Energy-efficiency improvement of `self` relative to `baseline`
    /// (>1 means `self` uses less energy).
    pub fn energy_efficiency_over(&self, baseline: &SimReport) -> f64 {
        let own = self.energy.total_pj();
        if own == 0.0 {
            return if baseline.energy.total_pj() == 0.0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        baseline.energy.total_pj() / own
    }

    /// Sum of a stage over all layers.
    pub fn step_total(&self, kind: StepKind) -> StepReport {
        self.layers
            .iter()
            .fold(StepReport::default(), |acc, l| acc.add(l.step(kind)))
    }

    /// Averages several per-sample reports (e.g. traces of different
    /// samples) into one mean report. Per-layer detail is dropped — only
    /// totals are meaningful across different sparsity patterns.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty.
    pub fn mean_of(reports: &[SimReport]) -> SimReport {
        assert!(!reports.is_empty(), "cannot average zero reports");
        let n = reports.len() as u64;
        let nf = reports.len() as f64;
        let mut energy = EnergyBreakdown::default();
        let mut cycles = 0u64;
        let mut macs = 0u64;
        for r in reports {
            energy = energy.add(&r.energy);
            cycles += r.total_cycles;
            macs += r.total_macs;
        }
        SimReport {
            model: reports[0].model.clone(),
            dataset: reports[0].dataset.clone(),
            total_cycles: cycles / n,
            total_macs: macs / n,
            energy: EnergyBreakdown {
                dram_pj: energy.dram_pj / nf,
                sram_pj: energy.sram_pj / nf,
                reg_pj: energy.reg_pj / nf,
                comb_pj: energy.comb_pj / nf,
            },
            layers: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, energy: f64) -> SimReport {
        SimReport {
            model: "m".into(),
            dataset: "d".into(),
            total_cycles: cycles,
            total_macs: 0,
            energy: EnergyBreakdown {
                dram_pj: 0.0,
                sram_pj: energy,
                reg_pj: 0.0,
                comb_pj: 0.0,
            },
            layers: Vec::new(),
        }
    }

    #[test]
    fn speedup_ratio() {
        let fast = report(100, 1.0);
        let slow = report(300, 3.0);
        assert_eq!(fast.speedup_over(&slow), 3.0);
        assert_eq!(slow.speedup_over(&fast), 1.0 / 3.0);
    }

    #[test]
    fn energy_efficiency_ratio() {
        let lean = report(1, 2.0);
        let hungry = report(1, 5.0);
        assert_eq!(lean.energy_efficiency_over(&hungry), 2.5);
    }

    #[test]
    fn zero_cycle_edge_cases() {
        let zero = report(0, 0.0);
        assert_eq!(zero.speedup_over(&zero), 1.0);
        assert_eq!(zero.speedup_over(&report(10, 1.0)), f64::INFINITY);
    }

    #[test]
    fn step_report_add() {
        let a = StepReport {
            cycles: 1,
            macs: 2,
            sram_words: 3,
            dram_words: 4,
            active_cycles: 5,
        };
        let s = a.add(&a);
        assert_eq!(s.cycles, 2);
        assert_eq!(s.active_cycles, 10);
    }

    #[test]
    fn latency_conversion() {
        let r = report(800_000, 0.0);
        assert!((r.latency_ms(800.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_of_averages_totals() {
        let m = SimReport::mean_of(&[report(100, 10.0), report(300, 30.0)]);
        assert_eq!(m.total_cycles, 200);
        assert!((m.energy.total_pj() - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero reports")]
    fn mean_of_empty_panics() {
        let _ = SimReport::mean_of(&[]);
    }
}
