//! The open, name-keyed engine registry.
//!
//! [`EngineHandle`] is a `Copy` token pairing a stable name with a
//! `&'static dyn KernelEngine` — the unit of engine selection everywhere a
//! backend is configured (`TrainConfig`, `ExecutionContext`, benches,
//! examples, the `SPARSETRAIN_ENGINE` environment variable). The registry
//! is the only place an engine has a name. Three engines are registered at
//! startup:
//!
//! | name     | backend                                                  |
//! |----------|----------------------------------------------------------|
//! | `scalar` | [`crate::engine::ScalarEngine`] — the reference          |
//! | `simd`   | [`crate::simd_engine::SimdEngine`] — AVX2/portable lanes |
//! | `fixed`  | [`crate::fixed_engine::FixedPointEngine`] — Q8.8         |
//!
//! plus five aliases that resolve to the engine of `scalar` or `simd`
//! under their own names, so configs naming them still resolve: `parallel`
//! (scalar) and `parallel:simd` are left from when banding was an engine
//! of its own (every engine's `run_batch` bands now); `im2row` and
//! `parallel:im2row` (simd) from a dense-lowering engine that won one
//! near-dense forward cell per net; and `auto` (simd) from the density
//! planner that chose between them. An `auto` context refuses a legacy
//! plan ([`crate::context::ExecutionContext::new`]).
//!
//! In addition, `fixed:qI.F` names (e.g. `"fixed:q4.12"`) resolve to a
//! [`FixedPointEngine`] in that 16-bit Q-format — parsed, interned and
//! registered on first lookup, so every parameterized format behaves like
//! a built-in afterwards. `I + F` must equal 16 (the sign bit counts
//! toward `I`); malformed specs are rejected with a descriptive
//! [`UnknownEngine`].
//!
//! The set is open: [`register`] adds a backend under a new name at
//! runtime, after which every name-driven selection path (config, env,
//! `FromStr`) resolves it like a built-in.

use crate::engine::{KernelEngine, ScalarEngine};
use crate::fixed_engine::FixedPointEngine;
use crate::simd_engine::SimdEngine;
use sparsetrain_tensor::qformat::QFormat;
use std::fmt;
use std::str::FromStr;
use std::sync::{OnceLock, RwLock};

/// Environment variable consulted by [`env_override`]: set it to a
/// registered engine name (`scalar`, `simd`, `fixed`, …) to select the
/// kernel execution backend without touching code.
pub const ENGINE_ENV: &str = "SPARSETRAIN_ENGINE";

/// A named engine registration — the `Copy` selection token that plumbs
/// through configuration layers.
///
/// Equality is by name: the registry guarantees one engine per name.
#[derive(Clone, Copy)]
pub struct EngineHandle {
    name: &'static str,
    summary: &'static str,
    engine: &'static dyn KernelEngine,
}

impl EngineHandle {
    /// The registered name (`"scalar"`, `"parallel:simd"`, `"fixed"`, …).
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
}

/// Whether two handles dispatch to the same engine: an alias and its
/// target do. Compared by address *and* vtable, because the zero-sized
/// engines' statics may share an address with another engine's.
pub(crate) fn same_engine(a: EngineHandle, b: EngineHandle) -> bool {
    std::ptr::eq(a.engine(), b.engine())
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

impl FromStr for EngineHandle {
    type Err = UnknownEngine;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        lookup_or_parse(s)
    }
}

/// Error returned when a name does not resolve in the registry; carries
/// the registered names for a helpful message, plus a parse diagnostic
/// when the name was a malformed parameterized spec (`fixed:…`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownEngine {
    name: String,
    known: Vec<&'static str>,
    detail: Option<String>,
}

impl UnknownEngine {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            known: registry().iter().map(EngineHandle::name).collect(),
            detail: None,
        }
    }

    fn with_detail(name: &str, detail: String) -> Self {
        Self {
            detail: Some(detail),
            ..Self::new(name)
        }
    }

    /// The name that failed to resolve.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for UnknownEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.detail {
            Some(detail) => write!(f, "invalid kernel engine {:?}: {detail}", self.name)?,
            None => write!(f, "unknown kernel engine {:?}", self.name)?,
        }
        write!(
            f,
            " (registered: {}; \"fixed:qI.F\" selects a parameterized 16-bit grid, \"auto\" is an \
             alias of simd)",
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownEngine {}

static SCALAR: ScalarEngine = ScalarEngine;
static SIMD: SimdEngine = SimdEngine::auto();
static FIXED: FixedPointEngine = FixedPointEngine::q8_8();

fn table() -> &'static RwLock<Vec<EngineHandle>> {
    static TABLE: OnceLock<RwLock<Vec<EngineHandle>>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(vec![
            EngineHandle {
                name: "scalar",
                summary: "the reference kernels; iteration order is the specification",
                engine: &SCALAR,
            },
            EngineHandle {
                name: "parallel",
                summary: "alias of scalar",
                engine: &SCALAR,
            },
            EngineHandle {
                name: "simd",
                summary: "walks the non-zeros with vector lanes across filters / channels \
                          (AVX2+FMA when detected, portable blocks otherwise), bitwise equal to scalar",
                engine: &SIMD,
            },
            EngineHandle {
                name: "parallel:simd",
                summary: "alias of simd",
                engine: &SIMD,
            },
            EngineHandle {
                name: "im2row",
                summary: "alias of simd",
                engine: &SIMD,
            },
            EngineHandle {
                name: "parallel:im2row",
                summary: "alias of simd",
                engine: &SIMD,
            },
            EngineHandle {
                name: "fixed",
                summary: "Q8.8 fixed-point datapath model mirroring the 16-bit RTL",
                engine: &FIXED,
            },
            EngineHandle {
                name: "auto",
                summary: "alias of simd",
                engine: &SIMD,
            },
        ])
    })
}

/// A snapshot of every registered engine, in registration order.
pub fn registry() -> Vec<EngineHandle> {
    table().read().expect("engine registry poisoned").clone()
}

/// Resolves a registered engine by name. Parameterized fixed-point names
/// (`"fixed:qI.F"`, see [`lookup_or_parse`]) are interned on first use;
/// malformed ones resolve to `None` (parse `"…".parse::<EngineHandle>()`
/// for the diagnostic).
pub fn lookup(name: &str) -> Option<EngineHandle> {
    lookup_or_parse(name).ok()
}

fn find(name: &str) -> Option<EngineHandle> {
    table()
        .read()
        .expect("engine registry poisoned")
        .iter()
        .find(|h| h.name == name)
        .copied()
}

/// Resolves a registered engine by name, parsing and interning
/// parameterized `fixed:qI.F` formats on first use (e.g. `"fixed:q4.12"`
/// is a [`FixedPointEngine`] with 4 integer bits — sign included — and 12
/// fractional bits; bare `"fixed"` stays Q8.8).
///
/// # Errors
///
/// Returns [`UnknownEngine`] for unregistered names; for a malformed
/// `fixed:` spec the error carries a parse diagnostic instead of the
/// registered-name list.
pub fn lookup_or_parse(name: &str) -> Result<EngineHandle, UnknownEngine> {
    if let Some(handle) = find(name) {
        return Ok(handle);
    }
    if name.starts_with("fixed:") {
        return match parse_fixed_spec(name) {
            Ok(fmt) => Ok(intern_fixed(name, fmt)),
            Err(detail) => Err(UnknownEngine::with_detail(name, detail)),
        };
    }
    Err(UnknownEngine::new(name))
}

/// Parses the `qI.F` payload of a `fixed:qI.F` engine name into a 16-bit
/// Q-format. `I` and `F` must be spelled canonically (decimal digits, no
/// sign, no leading zero), so each format has exactly one name and
/// interning stays bounded.
fn parse_fixed_spec(name: &str) -> Result<QFormat, String> {
    let spec = name.strip_prefix("fixed:").expect("caller checked prefix");
    let usage = "expected \"fixed:qI.F\" with I integer bits (sign included) and F \
                 fractional bits summing to 16, e.g. \"fixed:q4.12\"";
    // A canonical spelling is the one `u32`'s `Display` prints back.
    let canonical = |s: &str| match s.parse::<u32>() {
        Ok(n) if n.to_string() == s => Ok(n),
        _ => Err(usage.to_string()),
    };
    let digits = spec.strip_prefix('q').ok_or_else(|| usage.to_string())?;
    let (int_s, frac_s) = digits.split_once('.').ok_or_else(|| usage.to_string())?;
    let (int, frac) = (canonical(int_s)?, canonical(frac_s)?);
    if int.checked_add(frac) != Some(16) {
        return Err(format!("q{int}.{frac} is not a 16-bit format ({usage})"));
    }
    if frac > 15 {
        return Err(format!("q{int}.{frac} leaves no sign/integer bit ({usage})"));
    }
    Ok(QFormat::new(frac))
}

/// Registers a parsed fixed-point format under its spelled-out name,
/// leaking one engine + name per distinct format (bounded: at most 16
/// valid specs exist). Racing interns resolve to whichever registration
/// landed first.
fn intern_fixed(name: &str, fmt: QFormat) -> EngineHandle {
    let engine: &'static FixedPointEngine = Box::leak(Box::new(FixedPointEngine::new(fmt)));
    let summary: &'static str = Box::leak(
        format!(
            "Q{}.{} fixed-point datapath model (parameterized \"fixed\" variant)",
            16 - fmt.frac_bits(),
            fmt.frac_bits()
        )
        .into_boxed_str(),
    );
    let name: &'static str = Box::leak(name.to_string().into_boxed_str());
    match register(name, summary, engine) {
        Ok(handle) => handle,
        Err(existing) => existing,
    }
}

/// Registers a new engine under `name`, opening it to every name-driven
/// selection path (`TrainConfig::with_engine_name`, [`ENGINE_ENV`],
/// `FromStr`).
///
/// # Errors
///
/// Returns the existing handle as an error when `name` is already taken —
/// registration never silently shadows a backend.
pub fn register(
    name: &'static str,
    summary: &'static str,
    engine: &'static dyn KernelEngine,
) -> Result<EngineHandle, EngineHandle> {
    let mut t = table().write().expect("engine registry poisoned");
    if let Some(existing) = t.iter().find(|h| h.name == name) {
        return Err(*existing);
    }
    let handle = EngineHandle {
        name,
        summary,
        engine,
    };
    t.push(handle);
    Ok(handle)
}

/// Reads the [`ENGINE_ENV`] environment override: `Ok(None)` when unset or
/// empty, `Ok(Some(handle))` for a registered name.
///
/// # Errors
///
/// Returns [`UnknownEngine`] when the variable names an unregistered
/// engine.
pub fn env_override() -> Result<Option<EngineHandle>, UnknownEngine> {
    match std::env::var(ENGINE_ENV) {
        Ok(name) if !name.is_empty() => name.parse().map(Some),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StageOp;
    use crate::rowconv::SparseFeatureMap;
    use sparsetrain_tensor::conv::ConvGeometry;
    use sparsetrain_tensor::{Tensor3, Tensor4};

    #[test]
    fn builtin_engines_resolve_by_name() {
        for name in [
            "scalar",
            "parallel",
            "simd",
            "parallel:simd",
            "im2row",
            "parallel:im2row",
            "fixed",
            "auto",
        ] {
            let handle = lookup(name).expect(name);
            assert_eq!(handle.name(), name);
            assert_eq!(handle.to_string(), name);
            assert!(!handle.summary().is_empty());
        }
        assert!(lookup("warp-drive").is_none());
    }

    #[test]
    fn parameterized_fixed_formats_resolve_and_intern() {
        let handle = lookup("fixed:q4.12").expect("valid spec");
        assert_eq!(handle.name(), "fixed:q4.12");
        assert!(handle.summary().contains("Q4.12"));
        // Second lookup returns the interned registration, not a new one.
        assert_eq!(lookup("fixed:q4.12"), Some(handle));
        assert!(registry().contains(&handle));
        // The format is applied: Q4.12 has ε = 2⁻¹², so 0.51 stays 0.51
        // only up to that grid; a coarse q14.2 rounds it to 0.5.
        let coarse = lookup("fixed:q14.2").expect("valid spec");
        let input = SparseFeatureMap::from_tensor(&Tensor3::from_vec(1, 1, 1, vec![0.51]));
        let weights = Tensor4::from_vec(1, 1, 1, 1, vec![1.0]);
        let op = StageOp::Forward {
            input: &input,
            weights: &weights,
            bias: None,
            geom: ConvGeometry::unit(),
        };
        assert_eq!(op.run_on(coarse.engine()), [0.5]);
        // `fixed:q8.8` is the parameterized spelling of the built-in grid.
        let q88 = lookup("fixed:q8.8").expect("valid spec");
        assert_ne!(q88, lookup("fixed").unwrap(), "distinct registration");
    }

    /// Every alias resolves to its target's engine static yet reports its
    /// own name everywhere a name shows — `name()`, `Display` and the
    /// registered-name list of an error.
    #[test]
    fn aliases_keep_their_own_name() {
        let listed = "warp-drive".parse::<EngineHandle>().unwrap_err().known;
        for (alias, target) in [
            ("parallel", "scalar"),
            ("parallel:simd", "simd"),
            ("parallel:im2row", "im2row"),
            ("im2row", "simd"),
            ("auto", "simd"),
        ] {
            let (handle, target) = (lookup(alias).expect(alias), lookup(target).expect(target));
            assert_eq!((handle.name(), handle.to_string()), (alias, alias.to_string()));
            assert!(listed.contains(&alias), "{listed:?}");
            assert!(same_engine(handle, target), "{alias}");
        }
    }

    #[test]
    fn malformed_fixed_specs_are_rejected_with_detail() {
        for bad in [
            "fixed:q4.11",         // doesn't sum to 16
            "fixed:q0.16",         // no sign bit left
            "fixed:q8",            // missing fraction
            "fixed:8.8",           // missing the q
            "fixed:qx.y",          // not numbers
            "fixed:",              // empty spec
            "fixed:q4294967295.1", // I + F overflows u32
        ] {
            assert!(lookup(bad).is_none(), "{bad} must not resolve");
            let err = bad.parse::<EngineHandle>().unwrap_err();
            assert_eq!(err.name(), bad);
            let msg = err.to_string();
            assert!(
                msg.contains("fixed:qI.F") && msg.contains("invalid kernel engine"),
                "unhelpful error for {bad}: {msg}"
            );
        }
    }

    /// Each 16-bit format has one name: a sign or a leading zero is the
    /// usage error, and interns nothing.
    #[test]
    fn non_canonical_fixed_specs_are_rejected_without_interning() {
        lookup("fixed:q8.8").expect("canonical spelling");
        let q88 = || registry().iter().filter(|h| h.summary().contains("Q8.8")).count();
        let before = q88();
        for bad in [
            "fixed:q08.8",
            "fixed:q008.8",
            "fixed:q+8.8",
            "fixed:q8.08",
            "fixed:q8.+8",
            "fixed:q016.0",
        ] {
            let msg = bad.parse::<EngineHandle>().unwrap_err().to_string();
            assert!(msg.contains("fixed:qI.F"), "{bad}: {msg}");
            assert!(lookup(bad).is_none(), "{bad} must not resolve");
            assert!(registry().iter().all(|h| h.name() != bad), "{bad} was interned");
        }
        assert_eq!(q88(), before, "a non-canonical spelling interned a Q8.8 engine");
        assert!(lookup("fixed:q16.0").is_some(), "a lone zero is canonical");
    }

    #[test]
    fn from_str_reports_known_names() {
        let handle: EngineHandle = "parallel".parse().unwrap();
        assert_eq!(handle.name(), "parallel");
        let err = "warp-drive".parse::<EngineHandle>().unwrap_err();
        assert_eq!(err.name(), "warp-drive");
        let msg = err.to_string();
        for name in ["scalar", "parallel", "fixed", "auto"] {
            assert!(msg.contains(name), "{msg}");
        }
        // A typoed SPARSETRAIN_ENGINE is self-diagnosing: the message also
        // names the parameterized selection spec.
        assert!(msg.contains("fixed:qI.F"), "{msg}");
    }

    #[test]
    fn registry_is_open_to_new_backends() {
        // A custom backend registered at runtime resolves through every
        // name-driven path exactly like a built-in.
        static CUSTOM: ScalarEngine = ScalarEngine;
        let handle =
            register("test-custom", "scalar re-registered under a test name", &CUSTOM).expect("fresh name");
        assert_eq!(lookup("test-custom"), Some(handle));
        assert!(registry().contains(&handle));
        // Duplicate names are rejected with the existing registration.
        assert_eq!(register("test-custom", "dup", &CUSTOM), Err(handle));
        assert_eq!(register("scalar", "dup", &CUSTOM).unwrap_err().name(), "scalar");
        // The handle executes like any other engine.
        let input = SparseFeatureMap::from_tensor(&Tensor3::from_fn(1, 3, 3, |_, y, x| (y * x) as f32));
        let weights = Tensor4::from_fn(1, 1, 1, 1, |_, _, _, _| 2.0);
        let op = StageOp::Forward {
            input: &input,
            weights: &weights,
            bias: None,
            geom: ConvGeometry::unit(),
        };
        assert_eq!(op.run_on(handle.engine())[8], 8.0);
    }
}
