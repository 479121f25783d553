//! The fixed, name-keyed engine table.
//!
//! [`EngineHandle`] is a `Copy` token pairing a stable name with a
//! `&'static dyn KernelEngine` — the unit of engine selection everywhere a
//! backend is configured (`TrainConfig`, `ExecutionContext`, benches,
//! examples, the `SPARSETRAIN_ENGINE` environment variable). The table is
//! the only place an engine has a name, and it never changes at run time.
//! It lists three engines:
//!
//! | name     | backend                                                  |
//! |----------|----------------------------------------------------------|
//! | `scalar` | [`crate::engine::ScalarEngine`] — the reference          |
//! | `simd`   | [`crate::simd_engine::SimdEngine`] — AVX2/portable lanes |
//! | `fixed`  | [`crate::fixed_engine::FixedPointEngine`] — Q8.8         |
//!
//! plus three aliases that resolve to the engine of `simd` under their own
//! names: `parallel:simd` (from when banding was an engine of its own),
//! `im2row` (a dense-lowering engine that won one near-dense forward cell
//! per net) and `auto` (the density planner that chose between them). They
//! stay because the `stbench` benchmark names them; ROADMAP item 6 (3)
//! retires them with the benchmark change that stops naming them. An
//! `auto` context refuses a legacy plan
//! ([`crate::context::ExecutionContext::new`]).
//!
//! The six names are the whole table: any other name, a spelled-out
//! fixed-point format included, is an [`UnknownEngine`].

use crate::engine::{KernelEngine, ScalarEngine};
use crate::fixed_engine::FixedPointEngine;
use crate::simd_engine::SimdEngine;
use std::fmt;
use std::str::FromStr;

/// Environment variable consulted by [`env_override`]: set it to an
/// engine name (`scalar`, `simd`, `fixed`, …) to select the kernel
/// execution backend without touching code.
pub const ENGINE_ENV: &str = "SPARSETRAIN_ENGINE";

/// A named engine-table entry — the `Copy` selection token that plumbs
/// through configuration layers.
///
/// Equality is by name: the table holds one engine per name.
#[derive(Clone, Copy)]
pub struct EngineHandle {
    name: &'static str,
    summary: &'static str,
    engine: &'static dyn KernelEngine,
    /// The name of the engine this handle dispatches to: its own, or an
    /// alias's target's.
    target: &'static str,
}

impl EngineHandle {
    /// An engine under its own name.
    const fn new(name: &'static str, summary: &'static str, engine: &'static dyn KernelEngine) -> Self {
        Self {
            name,
            summary,
            engine,
            target: name,
        }
    }

    /// `name`, dispatching to this handle's engine.
    const fn alias(self, name: &'static str, summary: &'static str) -> Self {
        Self {
            name,
            summary,
            ..self
        }
    }

    /// The table name (`"scalar"`, `"parallel:simd"`, `"fixed"`, …).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description for listings and `--help` output.
    pub fn summary(&self) -> &'static str {
        self.summary
    }

    /// The engine instance this handle resolves to.
    pub fn engine(&self) -> &'static dyn KernelEngine {
        self.engine
    }

    /// Whether `self` and `other` dispatch to the same engine: an alias
    /// and its target do.
    pub fn same_engine(self, other: EngineHandle) -> bool {
        self.target == other.target
    }
}

impl PartialEq for EngineHandle {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for EngineHandle {}

impl fmt::Debug for EngineHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineHandle").field("name", &self.name).finish()
    }
}

impl fmt::Display for EngineHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// Resolves a table name.
///
/// # Errors
///
/// Returns [`UnknownEngine`] for any name the table does not list.
impl FromStr for EngineHandle {
    type Err = UnknownEngine;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        BUILTIN
            .iter()
            .find(|h| h.name == name)
            .copied()
            .ok_or_else(|| UnknownEngine {
                name: name.to_string(),
            })
    }
}

/// Error returned when a name does not resolve; its message lists the
/// table's names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownEngine {
    name: String,
}

impl UnknownEngine {
    /// The name that failed to resolve.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for UnknownEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let known: Vec<&str> = registry().iter().map(EngineHandle::name).collect();
        write!(
            f,
            "unknown kernel engine {:?} (registered: {}; \"auto\" is an alias of simd)",
            self.name,
            known.join(", ")
        )
    }
}

impl std::error::Error for UnknownEngine {}

const SCALAR: EngineHandle = EngineHandle::new(
    "scalar",
    "the reference kernels; iteration order is the specification",
    &ScalarEngine,
);
const SIMD: EngineHandle = EngineHandle::new(
    "simd",
    "walks the non-zeros with vector lanes across filters / channels \
     (AVX2+FMA when detected, portable blocks otherwise), bitwise equal to scalar",
    &SimdEngine::auto(),
);

/// The listed names, in listing order.
static BUILTIN: [EngineHandle; 6] = [
    SCALAR,
    SIMD,
    SIMD.alias("parallel:simd", "alias of simd"),
    SIMD.alias("im2row", "alias of simd"),
    EngineHandle::new(
        "fixed",
        "Q8.8 fixed-point datapath model mirroring the 16-bit RTL",
        &FixedPointEngine,
    ),
    SIMD.alias("auto", "alias of simd"),
];

/// The six listed engines and aliases, in table order.
pub fn registry() -> &'static [EngineHandle] {
    &BUILTIN
}

/// Resolves an engine by name; unknown names resolve to `None` (parse
/// `"…".parse::<EngineHandle>()` for the diagnostic).
pub fn lookup(name: &str) -> Option<EngineHandle> {
    name.parse().ok()
}

/// Reads the [`ENGINE_ENV`] environment override: `Ok(None)` when unset or
/// empty, `Ok(Some(handle))` for a known name.
///
/// # Errors
///
/// Returns [`UnknownEngine`] when the variable names an unknown engine.
pub fn env_override() -> Result<Option<EngineHandle>, UnknownEngine> {
    match std::env::var(ENGINE_ENV) {
        Ok(name) if !name.is_empty() => name.parse().map(Some),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecutionContext;

    /// The listed names, in listing order.
    const LISTED: [&str; 6] = ["scalar", "simd", "parallel:simd", "im2row", "fixed", "auto"];

    #[test]
    fn builtin_engines_resolve_by_name() {
        for name in LISTED {
            let handle = lookup(name).expect(name);
            assert_eq!(handle.name(), name);
            assert_eq!(handle.to_string(), name);
            assert!(!handle.summary().is_empty());
        }
        assert!(lookup("warp-drive").is_none());
    }

    /// The table is closed: no lookup and no query changes what it lists,
    /// and the listing is the six built-in names in table order.
    #[test]
    fn lookups_and_queries_leave_the_listing_alone() {
        assert!(lookup("warp-drive").is_none());
        assert!(!ExecutionContext::scalar().is_quarantined("warp-drive"));
        let names: Vec<&str> = registry().iter().map(EngineHandle::name).collect();
        assert_eq!(names, LISTED);
    }

    /// `fixed` is the one fixed-point name and the retired aliases are
    /// gone: none of them resolves, and a `SPARSETRAIN_ENGINE`-style parse
    /// error lists exactly the six table names.
    #[test]
    fn retired_names_are_rejected_listing_the_six_names() {
        for gone in ["fixed:q4.12", "fixed:q8.8", "parallel", "parallel:im2row"] {
            assert!(lookup(gone).is_none(), "{gone} still resolves");
            let err = gone.parse::<EngineHandle>().unwrap_err();
            assert_eq!(err.name(), gone);
            assert_eq!(
                err.to_string(),
                format!(
                    "unknown kernel engine {gone:?} (registered: scalar, simd, parallel:simd, im2row, \
                     fixed, auto; \"auto\" is an alias of simd)"
                )
            );
        }
    }

    /// Every alias resolves to `simd`'s engine static yet reports its own
    /// name everywhere a name shows — `name()`, `Display` and the
    /// registered-name list of an error.
    #[test]
    fn aliases_keep_their_own_name() {
        let listed = "warp-drive".parse::<EngineHandle>().unwrap_err().to_string();
        let simd = lookup("simd").unwrap();
        for alias in ["parallel:simd", "im2row", "auto"] {
            let handle = lookup(alias).expect(alias);
            assert_eq!((handle.name(), handle.to_string()), (alias, alias.to_string()));
            assert!(listed.contains(alias), "{listed}");
            assert!(handle.same_engine(simd), "{alias}");
            assert!(!handle.same_engine(lookup("scalar").unwrap()), "{alias}");
        }
    }

    #[test]
    fn from_str_reports_known_names() {
        let handle: EngineHandle = "auto".parse().unwrap();
        assert_eq!(handle.name(), "auto");
        let err = "warp-drive".parse::<EngineHandle>().unwrap_err();
        assert_eq!(err.name(), "warp-drive");
        let msg = err.to_string();
        for name in LISTED {
            assert!(msg.contains(name), "{msg}");
        }
    }

    /// An alias is kept only while the `stbench` benchmark names it: every
    /// alias the table lists appears as a quoted name in `stbench/src`, so
    /// the benchmark change that stops naming one has to delete it here.
    #[test]
    fn every_alias_is_named_by_the_benchmark() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../stbench/src");
        let mut sources = String::new();
        for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot read {dir}: {e}")) {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|ext| ext == "rs") {
                sources += &std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            }
        }
        let aliases: Vec<&str> = registry()
            .iter()
            .filter(|h| h.name != h.target)
            .map(|h| h.name)
            .collect();
        assert_eq!(aliases, ["parallel:simd", "im2row", "auto"]);
        for alias in aliases {
            assert!(
                sources.contains(&format!("\"{alias}\"")),
                "alias {alias:?} is named nowhere in stbench/src: delete it from the table"
            );
        }
    }
}
