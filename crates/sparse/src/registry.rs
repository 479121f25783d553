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
//! plus five aliases that resolve to the engine of `scalar` or `simd`
//! under their own names, so configs naming them still resolve: `parallel`
//! (scalar) and `parallel:simd` are left from when banding was an engine
//! of its own (every engine's `run_batch` bands now); `im2row` and
//! `parallel:im2row` (simd) from a dense-lowering engine that won one
//! near-dense forward cell per net; and `auto` (simd) from the density
//! planner that chose between them. An `auto` context refuses a legacy
//! plan ([`crate::context::ExecutionContext::new`]).
//!
//! In addition, the sixteen `fixed:qI.F` names (e.g. `"fixed:q4.12"`)
//! resolve to a second table: a [`FixedPointEngine`] in each 16-bit
//! Q-format. `I + F` must equal 16 (the sign bit counts toward `I`);
//! malformed specs are rejected with a descriptive [`UnknownEngine`]. These
//! names resolve but are not listed: [`registry`] is the eight names
//! above, whatever the process has looked up.

use crate::engine::{KernelEngine, ScalarEngine};
use crate::fixed_engine::FixedPointEngine;
use crate::simd_engine::SimdEngine;
use sparsetrain_tensor::qformat::QFormat;
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
    /// and its target do; `fixed:q8.8` and `fixed`, two table entries on
    /// one grid, do not.
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

/// Resolves a table name, or a `fixed:qI.F` format (e.g. `"fixed:q4.12"`
/// is a [`FixedPointEngine`] with 4 integer bits — sign included — and 12
/// fractional bits; bare `"fixed"` stays Q8.8).
///
/// # Errors
///
/// Returns [`UnknownEngine`] for unknown names; for a malformed `fixed:`
/// spec the error carries a parse diagnostic as well.
impl FromStr for EngineHandle {
    type Err = UnknownEngine;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        if let Some(handle) = BUILTIN.iter().find(|h| h.name == name) {
            return Ok(*handle);
        }
        if name.starts_with("fixed:") {
            return parse_fixed_spec(name)
                .map(|frac| FIXED_FORMATS[frac as usize])
                .map_err(|detail| UnknownEngine::with_detail(name, detail));
        }
        Err(UnknownEngine::new(name))
    }
}

/// Error returned when a name does not resolve; carries the listed names
/// for a helpful message, plus a parse diagnostic when the name was a
/// malformed parameterized spec (`fixed:…`).
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
static BUILTIN: [EngineHandle; 8] = [
    SCALAR,
    SCALAR.alias("parallel", "alias of scalar"),
    SIMD,
    SIMD.alias("parallel:simd", "alias of simd"),
    SIMD.alias("im2row", "alias of simd"),
    SIMD.alias("parallel:im2row", "alias of simd"),
    EngineHandle::new(
        "fixed",
        "Q8.8 fixed-point datapath model mirroring the 16-bit RTL",
        &FixedPointEngine::q8_8(),
    ),
    SIMD.alias("auto", "alias of simd"),
];

/// The `fixed:qI.F` entries, indexed by their fractional bits `F`.
macro_rules! fixed_formats {
    ($(($int:literal, $frac:literal)),*) => {
        [$(EngineHandle::new(
            concat!("fixed:q", $int, ".", $frac),
            concat!("Q", $int, ".", $frac, " fixed-point datapath model (parameterized \"fixed\" variant)"),
            &FixedPointEngine::new(QFormat::new($frac)),
        )),*]
    };
}

static FIXED_FORMATS: [EngineHandle; 16] = fixed_formats! {
    (16, 0), (15, 1), (14, 2), (13, 3), (12, 4), (11, 5), (10, 6), (9, 7),
    (8, 8), (7, 9), (6, 10), (5, 11), (4, 12), (3, 13), (2, 14), (1, 15)
};

/// The eight listed engines and aliases, in table order. The `fixed:qI.F`
/// formats resolve ([`lookup`]) without being listed.
pub fn registry() -> &'static [EngineHandle] {
    &BUILTIN
}

/// Resolves an engine by name, `fixed:qI.F` formats included; unknown and
/// malformed names resolve to `None` (parse `"…".parse::<EngineHandle>()`
/// for the diagnostic).
pub fn lookup(name: &str) -> Option<EngineHandle> {
    name.parse().ok()
}

/// Parses the `qI.F` payload of a `fixed:qI.F` engine name into the
/// fractional bits `F` of a 16-bit Q-format. `I` and `F` must be spelled
/// canonically (decimal digits, no sign, no leading zero), so each format
/// has exactly one name.
fn parse_fixed_spec(name: &str) -> Result<u32, String> {
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
    Ok(frac)
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
    use crate::engine::test_fixtures::fixtures;
    use crate::engine::StageOp;
    use crate::rowconv::SparseFeatureMap;
    use crate::ExecutionContext;
    use sparsetrain_tensor::conv::ConvGeometry;
    use sparsetrain_tensor::{Tensor3, Tensor4};

    /// The listed names, in listing order.
    const LISTED: [&str; 8] = [
        "scalar",
        "parallel",
        "simd",
        "parallel:simd",
        "im2row",
        "parallel:im2row",
        "fixed",
        "auto",
    ];

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

    #[test]
    fn parameterized_fixed_formats_resolve_and_intern() {
        let handle = lookup("fixed:q4.12").expect("valid spec");
        assert_eq!(handle.name(), "fixed:q4.12");
        assert!(handle.summary().contains("Q4.12"));
        // Second lookup returns the same table entry; neither lists it.
        assert_eq!(lookup("fixed:q4.12"), Some(handle));
        assert!(!registry().contains(&handle));
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

    /// The table is closed: no lookup and no query changes what it lists,
    /// and the listing is the eight built-in names in table order.
    #[test]
    fn lookups_and_queries_leave_the_listing_alone() {
        let known = || "warp-drive".parse::<EngineHandle>().unwrap_err().known;
        let (listed, known_before) = (registry().to_vec(), known());
        lookup("fixed:q4.12").expect("valid spec");
        assert_eq!(registry(), listed, "a lookup grew the listing");
        assert_eq!(known(), known_before, "a lookup grew the error's name list");
        ExecutionContext::scalar().is_quarantined("fixed:q2.14");
        assert_eq!(registry(), listed, "a quarantine query grew the listing");
        let names: Vec<&str> = registry().iter().map(EngineHandle::name).collect();
        assert_eq!(names, LISTED);
        assert_eq!(known(), LISTED);
    }

    /// Each of the sixteen canonical `fixed:qI.F` names resolves to an
    /// entry of its own name and summary that computes on the grid its
    /// name spells — and no two grids agree on the fixture.
    #[test]
    fn every_fixed_format_resolves_to_its_own_grid() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (input, weights, bias, _) = fixtures(3, 60, 4, geom);
        let op = StageOp::Forward {
            input: &input,
            weights: &weights,
            bias: Some(&bias),
            geom,
        };
        let mut outs: Vec<Vec<u32>> = Vec::new();
        for frac in 0..16u32 {
            let name = format!("fixed:q{}.{frac}", 16 - frac);
            let handle = lookup(&name).expect(&name);
            assert_eq!(handle.name(), name);
            let summary = format!(
                "Q{}.{frac} fixed-point datapath model (parameterized \"fixed\" variant)",
                16 - frac
            );
            assert_eq!(handle.summary(), summary);
            let own = FixedPointEngine::new(QFormat::new(frac));
            let got = op.run_on(handle.engine());
            assert_eq!(got, op.run_on(&own), "{name}");
            outs.push(got.iter().map(|v| v.to_bits()).collect());
        }
        for (i, a) in outs.iter().enumerate() {
            assert!(
                outs[i + 1..].iter().all(|b| a != b),
                "Q.{i} agrees with a finer grid"
            );
        }
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
            assert!(handle.same_engine(target), "{alias}");
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
    /// usage error, and neither resolves nor lists an entry.
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
            assert!(registry().iter().all(|h| h.name() != bad), "{bad} was listed");
        }
        assert_eq!(q88(), before, "a non-canonical spelling listed a Q8.8 engine");
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
}
