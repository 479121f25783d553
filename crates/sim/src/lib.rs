//! Cycle-accurate simulator of the SparseTrain accelerator (§V) and its
//! dense Eyeriss-style baseline (§VI).
//!
//! The simulated machine consists of PE groups (3 PEs + 1 PPU each), a
//! banked global SRAM buffer, off-chip DRAM and a controller. Convolution
//! layers execute as streams of SRC / MSRC / OSRC row operations enumerated
//! from a captured [`sparsetrain_core::dataflow::NetworkTrace`] by the §IV
//! op visitors of [`sparsetrain_sparse::ops`], the same list the scalar
//! reference engine executes (the simulator walks the trace, not a compiled
//! program); the controller assigns each *task* (one output row's
//! operations) to the least-loaded PE.
//!
//! Two timing engines are provided and tested to agree exactly:
//!
//! * [`pe::CycleExactPe`] — steps a PE state machine cycle by cycle,
//! * [`sparsetrain_sparse::work`] — the closed-form per-op work model,
//!   used by [`machine::Machine`] for whole-network simulation speed.
//!
//! Energy is accounted per event ([`energy::EnergyModel`]) with the same
//! technology constants for SparseTrain and the baseline, so relative
//! numbers (Fig. 9) are meaningful.
//!
//! Beside the machine sit [`sched`] (the controller's scheduling policies
//! vs the makespan lower bound), [`update`] (the weight-update stage §II
//! scopes out) and [`prune_unit`] (the PPU's LFSR-based in-stream pruning
//! stage).
//!
//! # Example
//!
//! ```
//! use sparsetrain_sim::config::ArchConfig;
//! use sparsetrain_sim::machine::Machine;
//! use sparsetrain_sim::baseline::densified;
//! use sparsetrain_core::dataflow::NetworkTrace;
//!
//! let machine = Machine::new(ArchConfig::paper_default());
//! let trace = NetworkTrace::new("empty", "none");
//! let report = machine.simulate(&trace);
//! assert_eq!(report.total_cycles, 0);
//! let dense = machine.simulate(&densified(&trace));
//! assert_eq!(dense.total_cycles, 0);
//! ```

pub mod baseline;
pub mod config;
pub mod energy;
pub mod group;
pub mod machine;
pub mod pe;
pub mod prune_unit;
pub mod report;
pub mod sched;
pub mod update;

pub use config::{ArchConfig, ConfigError};
pub use machine::Machine;
pub use report::SimReport;
