//! Deterministic, seeded fault injection for the training stack.
//!
//! Recovery code that is only exercised by hand-built fixtures is recovery
//! code that has never run. This crate plants *injection sites* at the real
//! failure seams — checkpoint write/read I/O, engine dispatch, the data
//! loader, the optimizer-step boundary, the shard workers — and drives
//! them from a [`FaultPlan`]: a seeded, counter-keyed schedule of faults.
//!
//! # Sites
//!
//! | spec name | seam (hook on [`Faults`]) | effect when fired |
//! |---|---|---|
//! | `ckpt.torn-write` | checkpoint save hand-off ([`Faults::on_checkpoint_write`]) | only a truncated prefix is persisted, rename still completes |
//! | `ckpt.write-error` | checkpoint save hand-off ([`Faults::on_checkpoint_write`]) | save fails with an ENOSPC-shaped `io::Error` before writing |
//! | `ckpt.read-short` | recovery scan ([`Faults::on_checkpoint_read`]) | the file reads back truncated to half |
//! | `ckpt.read-flip` | recovery scan ([`Faults::on_checkpoint_read`]) | one seeded bit flipped in the read bytes |
//! | `engine.panic` | engine dispatch ([`Faults::on_engine_dispatch`]): every convolution dispatch of a training step, none of evaluation | the dispatch panics (`:engine` filter available) |
//! | `loader.error` | batch assembly ([`Faults::on_loader`]) | the batch fetch panics |
//! | `step.kill` | optimizer-step boundary ([`Faults::on_step_kill`]) | SIGKILL-shaped crash of the epoch loop |
//! | `worker.kill` | shard coordinator ([`Faults::on_worker_kill`]) | a shard worker dies mid-step, abandoning its granules (`:rank` filter) |
//! | `worker.slow` | shard coordinator ([`Faults::on_worker_slow`]) | a shard worker stalls for a seeded delay, scrambling completion order (`:rank` filter) |
//!
//! # Determinism
//!
//! Every fire/no-fire decision is a pure function of
//! `(seed, site, directive, occurrence)`: each directive keeps its own
//! occurrence counter, and the decision for occurrence `k` draws from the
//! Philox [`StreamKey`] ladder under the [`FAULT_DOMAIN`] separator —
//! exactly the scheme stochastic pruning uses. Every site but one is
//! checked on the trainer's thread (the shard pool's coordinator runs there),
//! above the band fan-out, so a campaign replays bitwise at any
//! `RAYON_NUM_THREADS`. The exception is a sharded run's `engine.panic`: the
//! workers count their granules' dispatches on one shared counter in arrival
//! order, so only a one-worker run replays it exactly.
//!
//! # Activation
//!
//! A plan belongs to one run. [`FaultPlan::arm`] turns it into a [`Faults`]
//! handle — the plan plus its counters — that the trainer holds and lends to
//! its seams: the execution context (for each training step), the checkpoint
//! manager, the shard pool and its workers, and the recovery scan. A resumed
//! trainer handed the same handle continues its counters. A trainer starts
//! with the plan the [`FAULTS_ENV`] variable names, if any:
//!
//! ```text
//! SPARSETRAIN_FAULTS="seed=42;step.kill@7;ckpt.torn-write@2;engine.panic@50:parallel:simd"
//! ```
//!
//! `site@k` fires at the k-th (0-based) eligible occurrence; `site~p` fires
//! any occurrence whose seeded uniform draw lands below `p`. An optional
//! `:filter` suffix (the rest of the item, so composite names like
//! `parallel:simd` work) restricts which occurrences count: an engine name
//! for `engine.panic`, a decimal worker rank for `worker.kill` /
//! `worker.slow` (e.g. `worker.kill@2:1` kills rank 1 at its third
//! eligible step).
//!
//! ```
//! use sparsetrain_faults::{FaultPlan, Site, Trigger};
//!
//! let plan = FaultPlan::new(42).with(Site::StepKill, Trigger::At(7));
//! assert_eq!(plan.to_spec(), "seed=42;step.kill@7");
//! assert_eq!(FaultPlan::from_spec(&plan.to_spec()).unwrap(), plan);
//! ```

use rand::stream::StreamKey;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Environment variable holding a fault-plan spec, consistent with
/// `SPARSETRAIN_ENGINE` / `SPARSETRAIN_CHECKPOINT_DIR`.
pub const FAULTS_ENV: &str = "SPARSETRAIN_FAULTS";

/// Domain separator folded under the run seed for every fault draw
/// (`"FAULT"` in ASCII), keeping fault streams statistically independent
/// of the pruning ladder's `PRUNE` domain.
pub const FAULT_DOMAIN: u64 = 0x0046_4155_4C54;

/// One injection site: a named seam in the training stack where a fault
/// can be planted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Checkpoint save writes only a truncated prefix of the snapshot but
    /// still renames it into place — a lying disk / torn write.
    CkptWriteTorn,
    /// Checkpoint save fails with an I/O error before writing (ENOSPC-style
    /// transient failure).
    CkptWriteError,
    /// Checkpoint load sees only a prefix of the file — a short read.
    CkptReadShort,
    /// Checkpoint load sees one flipped bit.
    CkptReadFlip,
    /// Engine dispatch panics (a kernel blowing up mid-band).
    EnginePanic,
    /// The data loader fails while assembling a batch.
    LoaderError,
    /// The process "dies" right after an optimizer step (simulated kill;
    /// surfaces as a panic the supervisor treats as a crash).
    StepKill,
    /// A shard worker dies mid-step: it abandons its outstanding granules
    /// and its thread exits, forcing the coordinator to respawn it and
    /// replay the work. The optional `:filter` selects one worker rank.
    WorkerKill,
    /// A shard worker stalls: a seeded delay is inserted before it
    /// processes a granule, perturbing completion *order* (which the
    /// rank-ordered reduction must absorb without changing results). The
    /// optional `:filter` selects one worker rank.
    WorkerSlow,
}

impl Site {
    /// Every defined site.
    pub const ALL: [Site; 9] = [
        Site::CkptWriteTorn,
        Site::CkptWriteError,
        Site::CkptReadShort,
        Site::CkptReadFlip,
        Site::EnginePanic,
        Site::LoaderError,
        Site::StepKill,
        Site::WorkerKill,
        Site::WorkerSlow,
    ];

    /// The spec-grammar name of the site (also the stream-derivation
    /// component, so renaming a site re-seeds its draws).
    pub fn name(self) -> &'static str {
        match self {
            Site::CkptWriteTorn => "ckpt.torn-write",
            Site::CkptWriteError => "ckpt.write-error",
            Site::CkptReadShort => "ckpt.read-short",
            Site::CkptReadFlip => "ckpt.read-flip",
            Site::EnginePanic => "engine.panic",
            Site::LoaderError => "loader.error",
            Site::StepKill => "step.kill",
            Site::WorkerKill => "worker.kill",
            Site::WorkerSlow => "worker.slow",
        }
    }

    fn parse(name: &str) -> Option<Site> {
        Site::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// When a directive fires, as a function of its eligible-occurrence
/// counter `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire exactly at occurrence `k == n` (0-based) — the precise,
    /// replayable form campaigns use.
    At(u64),
    /// Fire whenever the seeded uniform draw for occurrence `k` lands
    /// below `p` — randomized soak testing, still bitwise-reproducible
    /// under the same seed.
    Prob(f64),
}

/// One scheduled fault: a site, a trigger, and an optional occurrence
/// filter — an engine name for [`Site::EnginePanic`], a worker rank for
/// [`Site::WorkerKill`] / [`Site::WorkerSlow`].
#[derive(Debug, Clone, PartialEq)]
pub struct Directive {
    /// Where to inject.
    pub site: Site,
    /// When to inject.
    pub trigger: Trigger,
    /// Only count (and fire on) occurrences matching this filter, when
    /// set: the dispatched engine's name at [`Site::EnginePanic`], the
    /// decimal worker rank at the `worker.*` sites.
    pub engine: Option<String>,
}

/// A complete seeded fault schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the fault stream ladder (independent of the training seed).
    pub seed: u64,
    /// The scheduled faults; an empty list injects nothing.
    pub directives: Vec<Directive>,
}

/// A fault-plan spec string that did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {FAULTS_ENV} spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl FaultPlan {
    /// An empty plan under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            directives: Vec::new(),
        }
    }

    /// Adds a directive (builder form).
    pub fn with(mut self, site: Site, trigger: Trigger) -> Self {
        self.directives.push(Directive {
            site,
            trigger,
            engine: None,
        });
        self
    }

    /// Adds an engine-filtered directive (builder form); only dispatches of
    /// `engine` count toward — and can fire — this directive.
    pub fn with_engine(mut self, site: Site, trigger: Trigger, engine: &str) -> Self {
        self.directives.push(Directive {
            site,
            trigger,
            engine: Some(engine.to_string()),
        });
        self
    }

    /// Parses the `;`-separated spec grammar documented at the crate root.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on unknown sites, malformed triggers, or
    /// probabilities outside `[0, 1]`.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, SpecError> {
        let mut plan = FaultPlan::new(0);
        for item in spec.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            if let Some(seed) = item.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|_| SpecError(format!("bad seed {seed:?}")))?;
                continue;
            }
            let (kind, at) = match (item.find('@'), item.find('~')) {
                (Some(i), None) => ('@', i),
                (None, Some(i)) => ('~', i),
                _ => {
                    return Err(SpecError(format!(
                        "{item:?}: expected site@occurrence or site~probability"
                    )))
                }
            };
            let site = Site::parse(&item[..at])
                .ok_or_else(|| SpecError(format!("unknown site {:?}", &item[..at])))?;
            let rest = &item[at + 1..];
            // The engine filter is everything after the *first* ':', so
            // composite engine names (parallel:simd, fixed:q8.8) survive.
            let (value, engine) = match rest.split_once(':') {
                Some((v, e)) if !e.is_empty() => (v, Some(e.to_string())),
                Some((v, _)) => (v, None),
                None => (rest, None),
            };
            let trigger = match kind {
                '@' => Trigger::At(
                    value
                        .parse()
                        .map_err(|_| SpecError(format!("{item:?}: bad occurrence {value:?}")))?,
                ),
                _ => {
                    let p: f64 = value
                        .parse()
                        .map_err(|_| SpecError(format!("{item:?}: bad probability {value:?}")))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(SpecError(format!("{item:?}: probability {p} outside [0, 1]")));
                    }
                    Trigger::Prob(p)
                }
            };
            plan.directives.push(Directive {
                site,
                trigger,
                engine,
            });
        }
        Ok(plan)
    }

    /// Renders the plan back into the spec grammar
    /// (`from_spec(to_spec())` is the identity).
    pub fn to_spec(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for d in &self.directives {
            out.push(';');
            out.push_str(d.site.name());
            match d.trigger {
                Trigger::At(n) => out.push_str(&format!("@{n}")),
                Trigger::Prob(p) => out.push_str(&format!("~{p}")),
            }
            if let Some(engine) = &d.engine {
                out.push_str(&format!(":{engine}"));
            }
        }
        out
    }
}

/// An armed [`FaultPlan`]: the plan plus one occurrence counter per
/// directive, shared by every clone. A run lends clones to its seams, so two
/// runs in one process never see each other's faults. The default handle
/// holds no plan: each hook on it returns after one `Option` test.
#[derive(Debug, Clone, Default)]
pub struct Faults(Option<Arc<Armed>>);

#[derive(Debug)]
struct Armed {
    plan: FaultPlan,
    counters: Vec<AtomicU64>,
}

impl FaultPlan {
    /// Arms the plan with fresh occurrence counters.
    pub fn arm(self) -> Faults {
        Faults(Some(Arc::new(Armed {
            counters: self.directives.iter().map(|_| AtomicU64::new(0)).collect(),
            plan: self,
        })))
    }
}

impl Armed {
    /// Checks every directive for `site` (respecting the filter), advancing
    /// the eligible-occurrence counter of each. Returns the seeded salt
    /// word of the first directive that fires, if any.
    fn fire(&self, site: Site, filter: Option<&str>) -> Option<u64> {
        let mut salt = None;
        for (index, d) in self.plan.directives.iter().enumerate() {
            if d.site != site {
                continue;
            }
            if let Some(want) = &d.engine {
                if filter != Some(want.as_str()) {
                    continue;
                }
            }
            let k = self.counters[index].fetch_add(1, Ordering::Relaxed);
            let key = StreamKey::new(self.plan.seed)
                .derive(FAULT_DOMAIN)
                .derive_str(site.name())
                .derive(index as u64);
            let hit = match d.trigger {
                Trigger::At(n) => k == n,
                Trigger::Prob(p) => key.uniform_at(k) < p,
            };
            if hit && salt.is_none() {
                salt = Some(key.word_at(k));
            }
        }
        salt
    }
}

impl Faults {
    /// Checkpoint-save hook: `Err` fails the save with an ENOSPC-shaped
    /// transient before anything is written; `Ok(true)` tears it (only a
    /// prefix of the bytes is persisted, but the rename still completes,
    /// leaving a corrupt final file for recovery scans to skip). A write
    /// error takes precedence when both fire on the same save.
    pub fn on_checkpoint_write(&self) -> std::io::Result<bool> {
        let Some(armed) = self.0.as_deref() else {
            return Ok(false);
        };
        let error = armed.fire(Site::CkptWriteError, None).is_some();
        let torn = armed.fire(Site::CkptWriteTorn, None).is_some();
        if error {
            return Err(std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                "injected checkpoint write failure (ENOSPC)",
            ));
        }
        Ok(torn)
    }

    /// Checkpoint-read hook over the `bytes` just read: a short read drops
    /// their second half, a bit flip flips one seeded bit; a short read
    /// takes precedence when both fire on the same read.
    pub fn on_checkpoint_read(&self, bytes: &mut Vec<u8>) {
        let Some(armed) = self.0.as_deref() else {
            return;
        };
        let short = armed.fire(Site::CkptReadShort, None).is_some();
        let flip = armed.fire(Site::CkptReadFlip, None);
        if short {
            bytes.truncate(bytes.len() / 2);
        } else if let Some(salt) = flip {
            flip_bit(bytes, salt);
        }
    }

    /// Engine-dispatch hook: `true` means the caller must panic (via
    /// [`panic_injected`] with the engine name as detail, so the supervisor
    /// can quarantine it). The execution context holds a run's handle only
    /// while a training step runs, so only a training step's convolution
    /// dispatches count; evaluation and probe passes never do.
    pub fn on_engine_dispatch(&self, engine: &str) -> bool {
        self.fire(Site::EnginePanic, Some(engine)).is_some()
    }

    /// Data-loader hook: `true` means batch assembly must fail.
    pub fn on_loader(&self) -> bool {
        self.fire(Site::LoaderError, None).is_some()
    }

    /// Step-boundary hook: `true` means the process "dies" here.
    pub fn on_step_kill(&self) -> bool {
        self.fire(Site::StepKill, None).is_some()
    }

    /// Shard-worker kill hook: `true` means worker `rank` must die mid-step
    /// (abandon its granules, exit its thread). The pool's coordinator checks
    /// it once per `(step, rank)` in rank order, so the campaign replays at
    /// any worker and thread count; the worker then carries the kill out.
    pub fn on_worker_kill(&self, rank: usize) -> bool {
        self.0.is_some() && self.fire(Site::WorkerKill, Some(&rank.to_string())).is_some()
    }

    /// Shard-worker stall hook: `Some(salt)` means worker `rank` must sleep a
    /// salt-derived delay before its next granule. Checked coordinator-side
    /// like [`Faults::on_worker_kill`]. The delay only perturbs completion
    /// *order*; the rank-ordered reduction keeps results bitwise regardless.
    pub fn on_worker_slow(&self, rank: usize) -> Option<u64> {
        self.0.as_ref()?;
        self.fire(Site::WorkerSlow, Some(&rank.to_string()))
    }

    /// [`Armed::fire`] on the armed plan; `None` without one.
    fn fire(&self, site: Site, filter: Option<&str>) -> Option<u64> {
        self.0.as_deref()?.fire(site, filter)
    }
}

/// Flips the single bit `salt` selects (mod the buffer's bit length);
/// no-op on an empty buffer.
fn flip_bit(bytes: &mut [u8], salt: u64) {
    if bytes.is_empty() {
        return;
    }
    let bit = salt % (bytes.len() as u64 * 8);
    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
}

/// Panic payload of an injected fault, downcastable by a supervisor's
/// `catch_unwind` handler to classify the failure. For
/// [`Site::EnginePanic`], `detail` is the dispatched engine's name.
#[derive(Debug, Clone)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: Site,
    /// Human-readable context (engine name, step index, ...).
    pub detail: String,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at {}: {}", self.site.name(), self.detail)
    }
}

/// Panics with an [`InjectedFault`] payload.
pub fn panic_injected(site: Site, detail: impl Into<String>) -> ! {
    std::panic::panic_any(InjectedFault {
        site,
        detail: detail.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handle_without_a_plan_fires_nothing() {
        let faults = Faults::default();
        assert!(!faults.on_checkpoint_write().unwrap());
        let mut bytes = vec![7u8; 8];
        faults.on_checkpoint_read(&mut bytes);
        assert_eq!(bytes, [7; 8]);
        assert!(!faults.on_engine_dispatch("scalar"));
        assert!(!faults.on_loader());
        assert!(!faults.on_step_kill());
        assert!(!faults.on_worker_kill(0));
        assert!(faults.on_worker_slow(0).is_none());
    }

    #[test]
    fn exact_occurrence_fires_exactly_once() {
        let faults = FaultPlan::new(1).with(Site::StepKill, Trigger::At(2)).arm();
        let fires: Vec<bool> = (0..6).map(|_| faults.on_step_kill()).collect();
        assert_eq!(fires, [false, false, true, false, false, false]);
    }

    /// Clones share one set of counters; another arming of the plan
    /// counts on its own.
    #[test]
    fn clones_share_counters_and_armings_do_not() {
        let plan = FaultPlan::new(1).with(Site::StepKill, Trigger::At(1));
        let (a, other) = (plan.clone().arm(), plan.arm());
        assert!(!a.on_step_kill());
        assert!(a.clone().on_step_kill(), "a clone sees occurrence 1");
        assert_eq!([other.on_step_kill(), other.on_step_kill()], [false, true]);
    }

    #[test]
    fn engine_filter_counts_only_matching_dispatches() {
        let faults = FaultPlan::new(1)
            .with_engine(Site::EnginePanic, Trigger::At(1), "simd")
            .arm();
        assert!(!faults.on_engine_dispatch("simd")); // occurrence 0
        assert!(!faults.on_engine_dispatch("scalar")); // filtered out, does not count
        assert!(!faults.on_engine_dispatch("parallel"));
        assert!(faults.on_engine_dispatch("simd")); // occurrence 1 fires
        assert!(!faults.on_engine_dispatch("simd"));
    }

    #[test]
    fn probability_draws_are_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let faults = FaultPlan::new(seed)
                .with(Site::LoaderError, Trigger::Prob(0.5))
                .arm();
            (0..64).map(|_| faults.on_loader()).collect()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed must replay the same schedule");
        assert_ne!(a, run(8), "different seeds should differ");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
    }

    /// The first save and the first read each fire both of their faults:
    /// the write error and the short read take precedence.
    #[test]
    fn write_and_read_hooks_map_sites_to_actions() {
        let faults = FaultPlan::new(3)
            .with(Site::CkptWriteError, Trigger::At(0))
            .with(Site::CkptWriteTorn, Trigger::At(0))
            .with(Site::CkptWriteTorn, Trigger::At(1))
            .with(Site::CkptReadShort, Trigger::At(0))
            .with(Site::CkptReadFlip, Trigger::At(0))
            .with(Site::CkptReadFlip, Trigger::At(1))
            .arm();
        let error = faults.on_checkpoint_write().unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::StorageFull);
        assert!(faults.on_checkpoint_write().unwrap(), "torn");
        assert!(!faults.on_checkpoint_write().unwrap());
        let read = || {
            let mut bytes = vec![0u8; 16];
            faults.on_checkpoint_read(&mut bytes);
            bytes
        };
        assert_eq!(read(), [0; 8], "a short read keeps the first half");
        let flipped = read();
        assert_eq!(flipped.len(), 16);
        assert_eq!(flipped.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        assert_eq!(read(), [0; 16]);
    }

    #[test]
    fn worker_sites_filter_by_rank() {
        let faults = FaultPlan::new(5)
            .with_engine(Site::WorkerKill, Trigger::At(1), "1")
            .with(Site::WorkerSlow, Trigger::At(0))
            .arm();
        assert!(!faults.on_worker_kill(1)); // rank 1, occurrence 0
        assert!(!faults.on_worker_kill(0)); // filtered out, does not count
        assert!(faults.on_worker_kill(1)); // rank 1, occurrence 1 fires
        assert!(!faults.on_worker_kill(1));
        // Unfiltered slow directive counts every rank's occurrences.
        assert!(faults.on_worker_slow(3).is_some());
        assert!(faults.on_worker_slow(3).is_none());
    }

    #[test]
    fn spec_round_trips() {
        let plan = FaultPlan::new(42)
            .with(Site::StepKill, Trigger::At(7))
            .with(Site::CkptWriteTorn, Trigger::At(2))
            .with_engine(Site::EnginePanic, Trigger::At(50), "parallel:simd")
            .with(Site::LoaderError, Trigger::Prob(0.25))
            .with_engine(Site::WorkerKill, Trigger::At(2), "1");
        let spec = plan.to_spec();
        assert_eq!(
            spec,
            "seed=42;step.kill@7;ckpt.torn-write@2;engine.panic@50:parallel:simd;loader.error~0.25;\
             worker.kill@2:1"
        );
        assert_eq!(FaultPlan::from_spec(&spec).unwrap(), plan);
        // Whitespace and empty items are tolerated.
        assert_eq!(
            FaultPlan::from_spec(" seed=1 ; step.kill@0 ; ").unwrap(),
            FaultPlan::new(1).with(Site::StepKill, Trigger::At(0))
        );
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        for bad in [
            "seed=abc",
            "nope.site@1",
            "step.kill",
            "step.kill@x",
            "loader.error~1.5",
            "loader.error~p",
            "seed=1;plan.flip@0",
        ] {
            assert!(FaultPlan::from_spec(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn flip_bit_flips_exactly_one_bit() {
        let mut bytes = vec![0u8; 16];
        flip_bit(&mut bytes, 1234);
        assert_eq!(bytes.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        flip_bit(&mut bytes, 1234);
        assert!(bytes.iter().all(|&b| b == 0), "same salt flips back");
        flip_bit(&mut [], 9); // empty buffer is a no-op
    }

    #[test]
    fn fault_domain_is_disjoint_from_pruning() {
        // The PRUNE domain constant lives in sparsetrain-core; the ladders
        // only stay independent if the separators differ.
        assert_ne!(FAULT_DOMAIN, 0x0050_5255_4E45);
    }
}
