//! Bitwise-resumable training snapshots.
//!
//! Because pruning randomness is counter-based (the Philox stream ladder in
//! `sparsetrain_core::prune::stream`), a training run's entire trajectory is a pure function of
//! its recorded state: model parameters, optimizer velocities, pruner accumulators, the
//! `StreamSeeds` ladder position and the shuffling RNG. This crate
//! captures all of that in a [`Snapshot`], serializes it with a derive-free versioned binary
//! codec (no external serde — see [`codec`]), and persists it atomically with keep-K rotation
//! (see [`policy`]), either on the caller's thread or on a background writer thread
//! ([`CheckpointManager::save_in_background`]) so that the write overlaps training. A run
//! killed at any step and resumed from a snapshot is **bitwise identical** to the
//! uninterrupted run.
//!
//! The trainer-facing integration (`Trainer::snapshot` / `Trainer::resume`) lives in
//! `sparsetrain-nn`; this crate is deliberately plain data + IO (its only dependency is the
//! `sparsetrain-faults` handle a manager and a recovery scan can be given; without one, no seam fires).
//!
//! Recovery support: [`policy::scan_latest_valid`] walks a run directory newest-first and
//! returns the newest snapshot that actually decodes, reporting (not aborting on) corrupt or
//! truncated files via [`LoadError`]s that name the offending file.
//!
//! # The `.stck` container
//!
//! On disk a snapshot is a tagged-section container (magic `STCKPT`, version 1; all integers
//! little-endian, floats as raw IEEE-754 bit patterns):
//!
//! | Tag | Section | Presence | Contents |
//! |---|---|---|---|
//! | 1 | `position` | mandatory | run seed + epoch/step/steps-into-epoch counters |
//! | 2 | `shuffle-rng` | mandatory | the dataset-shuffle RNG's four `u64` state words |
//! | 3 | `plan` | optional¹ | a legacy execution plan as text, kept verbatim |
//! | 4 | `optimizer` | mandatory | learning rate + per-tensor momentum velocity buffers |
//! | 5 | `layers` | mandatory | per-layer params / RNG / density / pruner state entries |
//! | 6 | `plan-program` | optional¹ | a legacy plan as a binary `STPLAN` program, kept verbatim |
//!
//! ¹ Only older snapshots carry a plan, in at most one of the two forms; a container holding
//! both is rejected as a duplicate section. The codec decodes the payload as opaque bytes; an
//! `auto` trainer refuses to resume from it. The normative byte-level layout (including the
//! per-kind `layers` bodies) is `docs/FORMATS.md` at the repository root; the implementation is
//! the framing module (header and section frames) plus [`codec`] (payload fields), whose
//! golden-byte tests pin the layout — any change there is a wire-format break and must bump
//! the framing's `VERSION`.

pub mod codec;
mod framing;
pub mod policy;
pub mod snapshot;

pub use codec::{decode_snapshot, encode_snapshot};
pub use framing::{DecodeError, EncodeError, Section};
pub use policy::{
    latest_in, load, scan_latest_valid, snapshot_files_in, CheckpointManager, CheckpointPolicy, LoadError,
    ScanOutcome, CHECKPOINT_DIR_ENV,
};
pub use snapshot::{LayerState, OptimizerState, PlanPayload, PrunerState, RunPosition, Snapshot};
