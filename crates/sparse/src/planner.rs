//! Execution plans: one engine per (layer, stage) cell, as a record.
//!
//! A cell is a `(layer id, stage)` pair, where the stages are the three
//! training convolutions ([`Stage::Forward`], [`Stage::InputGrad`] for GTA,
//! [`Stage::WeightGrad`] for GTW). A [`Plan`] maps cells to
//! [`EngineHandle`]s, with a default engine for the cells it does not
//! name. Nothing here decides anything: an `"auto"`
//! [`crate::ExecutionContext`] carries a plan only when one is handed in —
//! loaded from the file the [`PLAN_ENV`] (`SPARSETRAIN_PLAN`) variable
//! names ([`env_plan`]), or embedded in a snapshot the trainer resumes —
//! and otherwise runs `simd`, which `auto` is a registry alias of.
//!
//! A plan serializes itself to the binary `STPLAN` format
//! ([`Plan::encode`] / [`Plan::decode`], in [`crate::plan_program`]);
//! [`load_plan`] also accepts the legacy line-oriented text format
//! ([`Plan::from_text`]), sniffing the binary magic. Every float engine is
//! bitwise-identical to the scalar reference (the parity suites enforce
//! this), so a plan over float engines affects speed, never results.

use crate::plan_program::{is_binary_plan, DecodeError};
use crate::registry::{lookup, lookup_or_parse, EngineHandle, UnknownEngine};
use std::collections::BTreeMap;
use std::fmt;

/// Environment variable naming a serialized plan file — either the
/// line-oriented text format or a compiled `STPLAN` binary program
/// ([`load_plan`] sniffs the magic). When set (and the `"auto"` engine is
/// selected), the context routes each cell through the loaded plan — see
/// [`env_plan`].
pub const PLAN_ENV: &str = "SPARSETRAIN_PLAN";

/// The three training-stage convolutions; a plan names an engine for each
/// independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// SRC: the forward convolution (sparse activations × weights).
    Forward,
    /// MSRC / GTA: the input-gradient convolution (sparse output
    /// gradients × rotated weights, forward masks fused).
    InputGrad,
    /// OSRC / GTW: the weight-gradient correlation (sparse activations ×
    /// sparse output gradients).
    WeightGrad,
}

impl Stage {
    /// All stages, in execution order.
    pub const ALL: [Stage; 3] = [Stage::Forward, Stage::InputGrad, Stage::WeightGrad];

    /// The stable serialization name (`forward`, `input_grad`,
    /// `weight_grad`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Forward => "forward",
            Stage::InputGrad => "input_grad",
            Stage::WeightGrad => "weight_grad",
        }
    }

    /// Parses a serialization name back to the stage.
    pub fn parse(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from plan decoding, parsing or loading ([`Plan::decode`],
/// [`Plan::from_text`], [`load_plan`], [`env_plan`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The bytes are not a well-formed `STPLAN` document.
    Decode(DecodeError),
    /// A named engine does not resolve through the registry.
    Engine(UnknownEngine),
    /// A layer id no plan can key a cell by: empty, or containing
    /// whitespace or `#` (see [`Plan::try_set`]).
    LayerId(String),
    /// A malformed line of the text format.
    Text {
        /// The 1-based line number.
        line: usize,
        /// What is wrong with the line, rendered.
        detail: String,
        /// The typed fault, when the line is well-formed but names an
        /// unknown engine; `None` for a syntax fault.
        cause: Option<Box<PlanError>>,
    },
    /// A plan file that cannot be read, or whose content is rejected.
    Io {
        /// The file, as named by the caller.
        path: String,
        /// What is wrong with the file, rendered.
        detail: String,
        /// The typed fault in the content; `None` when the file could not
        /// be read at all.
        cause: Option<Box<PlanError>>,
    },
}

impl PlanError {
    /// The message without the "invalid execution plan" lead-in, so an
    /// error wrapped in its line or file renders the lead-in once.
    fn detail(&self) -> String {
        match self {
            PlanError::Decode(e) => e.to_string(),
            PlanError::Engine(e) => e.to_string(),
            PlanError::LayerId(layer) => {
                format!("layer id {layer:?} must be non-empty, whitespace-free and '#'-free")
            }
            PlanError::Text { line, detail, .. } => format!("line {line}: {detail}"),
            PlanError::Io { path, detail, .. } => format!("{path}: {detail}"),
        }
    }

    fn at_line(self, line: usize) -> Self {
        PlanError::Text {
            line,
            detail: self.detail(),
            cause: Some(Box::new(self)),
        }
    }

    fn in_file(self, path: &str) -> Self {
        PlanError::Io {
            path: path.to_string(),
            detail: self.detail(),
            cause: Some(Box::new(self)),
        }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid execution plan: {}", self.detail())
    }
}

impl std::error::Error for PlanError {}

impl From<DecodeError> for PlanError {
    fn from(e: DecodeError) -> Self {
        PlanError::Decode(e)
    }
}

impl From<UnknownEngine> for PlanError {
    fn from(e: UnknownEngine) -> Self {
        PlanError::Engine(e)
    }
}

/// Layer ids must be writable in the text format, where they are
/// whitespace-delimited and `#` starts a comment; insertion refuses
/// anything else up front, so every plan in memory has a text form that
/// parses back to it.
fn check_layer_id(layer: &str) -> Result<(), PlanError> {
    if layer.is_empty() || layer.chars().any(char::is_whitespace) || layer.contains('#') {
        return Err(PlanError::LayerId(layer.to_string()));
    }
    Ok(())
}

/// An execution plan: `(layer id, stage) → engine`, with a default engine
/// for cells the plan does not name.
///
/// ```
/// use sparsetrain_sparse::planner::{Plan, Stage};
/// use sparsetrain_sparse::registry;
///
/// let mut plan = Plan::new(registry::lookup("scalar").unwrap());
/// plan.set("conv1", Stage::Forward, registry::lookup("im2row").unwrap());
/// assert_eq!(plan.resolve("conv1", Stage::Forward).name(), "im2row");
/// assert_eq!(plan.resolve("conv1", Stage::WeightGrad).name(), "scalar");
/// let text = "default scalar\nconv1 forward im2row\n";
/// assert_eq!(Plan::from_text(text).unwrap(), plan);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    default: EngineHandle,
    /// Per layer, the named engine of each stage (indexed by
    /// `Stage as usize`, i.e. in [`Stage::ALL`] order). A layer is present
    /// only once one of its stages is named, so derived equality is
    /// equality of the named cells.
    cells: BTreeMap<String, [Option<EngineHandle>; 3]>,
}

impl Plan {
    /// An empty plan resolving every cell to `default`.
    pub fn new(default: EngineHandle) -> Self {
        Self {
            default,
            cells: BTreeMap::new(),
        }
    }

    /// The engine unplanned cells resolve to.
    pub fn default_engine(&self) -> EngineHandle {
        self.default
    }

    /// Pins `layer`'s `stage` to `engine`.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is empty, contains whitespace, or contains
    /// `#` — ids the text format cannot express (whitespace-delimited
    /// fields, `#` comments). Use [`Plan::try_set`] where the layer id is
    /// untrusted input.
    pub fn set(&mut self, layer: &str, stage: Stage, engine: EngineHandle) {
        self.try_set(layer, stage, engine)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Plan::set`]: the insertion path deserializers use
    /// ([`Plan::from_text`], [`Plan::decode`]), rejecting layer ids
    /// the text format cannot express instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::LayerId`] when `layer` is empty, contains
    /// whitespace, or contains `#`.
    pub fn try_set(&mut self, layer: &str, stage: Stage, engine: EngineHandle) -> Result<(), PlanError> {
        check_layer_id(layer)?;
        self.cells.entry(layer.to_string()).or_default()[stage as usize] = Some(engine);
        Ok(())
    }

    /// The planned engine for a cell, if the plan names one.
    pub fn get(&self, layer: &str, stage: Stage) -> Option<EngineHandle> {
        self.cells.get(layer)?[stage as usize]
    }

    /// The engine a cell executes on: the planned one, or the default.
    pub fn resolve(&self, layer: &str, stage: Stage) -> EngineHandle {
        self.get(layer, stage).unwrap_or(self.default)
    }

    /// Number of named cells.
    pub fn len(&self) -> usize {
        self.cells().count()
    }

    /// Whether the plan names no cell.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates the named cells in `(layer, stage)` order.
    pub fn cells(&self) -> impl Iterator<Item = (&str, Stage, EngineHandle)> {
        self.cells.iter().flat_map(|(layer, stages)| {
            Stage::ALL
                .into_iter()
                .filter_map(move |stage| Some((layer.as_str(), stage, stages[stage as usize]?)))
        })
    }

    /// Parses the text format: one `layer stage engine` triple per line
    /// (stage ∈ `forward` / `input_grad` / `weight_grad`), an optional
    /// `default <engine>` line, blank lines and `#` comments ignored.
    /// Engine names resolve through the open registry, so a plan may name
    /// anything registered — including `fixed:qI.F` grids, though plans
    /// mixing fixed-point cells trade bitwise reproducibility away.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] on malformed lines, unknown stages, or engine
    /// names that do not resolve.
    pub fn from_text(text: &str) -> Result<Self, PlanError> {
        let engine =
            |name: &str, line: usize| lookup_or_parse(name).map_err(|e| PlanError::Engine(e).at_line(line));
        let syntax = |line: usize, detail: String| PlanError::Text {
            line,
            detail,
            cause: None,
        };
        let mut plan = Plan::new(lookup("scalar").expect("scalar engine is always registered"));
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["default", name] => plan.default = engine(name, i + 1)?,
                [layer, stage, name] => {
                    let stage = Stage::parse(stage).ok_or_else(|| {
                        syntax(
                            i + 1,
                            format!("unknown stage {stage:?} (expected forward, input_grad or weight_grad)"),
                        )
                    })?;
                    plan.try_set(layer, stage, engine(name, i + 1)?)
                        .map_err(|e| e.at_line(i + 1))?;
                }
                _ => {
                    return Err(syntax(
                        i + 1,
                        format!("expected \"layer stage engine\" or \"default engine\", got {line:?}"),
                    ))
                }
            }
        }
        Ok(plan)
    }
}

/// Loads and parses a serialized plan file — a compiled `STPLAN` binary
/// program or the legacy text format, distinguished by sniffing the
/// binary magic ([`crate::plan_program::is_binary_plan`]).
///
/// # Errors
///
/// Returns [`PlanError::Io`] when the file cannot be read or parsed in
/// the format its leading bytes select.
pub fn load_plan(path: &str) -> Result<Plan, PlanError> {
    let unreadable = |detail: String| PlanError::Io {
        path: path.to_string(),
        detail,
        cause: None,
    };
    let mut bytes = std::fs::read(path).map_err(|e| unreadable(format!("cannot read the file: {e}")))?;
    // Fault seam: a plan-decode fault flips one seeded bit in the bytes
    // read, which must surface as a typed PlanError, never a panic.
    if let Some(salt) = sparsetrain_faults::on_plan_decode() {
        sparsetrain_faults::flip_bit(&mut bytes, salt);
    }
    let parsed = if is_binary_plan(&bytes) {
        Plan::decode(&bytes)
    } else {
        let text = String::from_utf8(bytes)
            .map_err(|_| unreadable("not UTF-8 text (and not an STPLAN binary program)".into()))?;
        Plan::from_text(&text)
    };
    parsed.map_err(|e| e.in_file(path))
}

/// Reads the [`PLAN_ENV`] override: `Ok(None)` when unset or empty,
/// otherwise the plan loaded from the file the variable points at.
///
/// # Errors
///
/// Returns [`PlanError`] when the named file cannot be read or parsed.
pub fn env_plan() -> Result<Option<Plan>, PlanError> {
    match std::env::var(PLAN_ENV) {
        Ok(path) if !path.is_empty() => load_plan(&path).map(Some),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(name: &str) -> EngineHandle {
        lookup(name).expect(name)
    }

    #[test]
    fn plan_resolves_cells_and_falls_back_to_default() {
        let mut plan = Plan::new(handle("scalar"));
        assert!(plan.is_empty());
        plan.set("conv1", Stage::Forward, handle("im2row"));
        plan.set("conv1", Stage::WeightGrad, handle("simd"));
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.resolve("conv1", Stage::Forward).name(), "im2row");
        assert_eq!(plan.resolve("conv1", Stage::WeightGrad).name(), "simd");
        assert_eq!(plan.resolve("conv1", Stage::InputGrad).name(), "scalar");
        assert_eq!(plan.resolve("conv9", Stage::Forward).name(), "scalar");
        assert_eq!(plan.get("conv9", Stage::Forward), None);
    }

    #[test]
    #[should_panic(expected = "whitespace-free")]
    fn plan_rejects_whitespace_layer_ids() {
        Plan::new(handle("scalar")).set("conv 1", Stage::Forward, handle("simd"));
    }

    #[test]
    #[should_panic(expected = "'#'")]
    fn plan_rejects_comment_chars_in_layer_ids() {
        // `from_text` strips everything after `#`, so a `conv#1` cell has
        // no text form; such ids are rejected at insertion.
        Plan::new(handle("scalar")).set("conv#1", Stage::Forward, handle("simd"));
    }

    #[test]
    fn try_set_reports_unserializable_layer_ids() {
        let mut plan = Plan::new(handle("scalar"));
        for hostile in ["conv #1", "my conv", "", "tab\tid", "line\nid"] {
            let err = plan.try_set(hostile, Stage::Forward, handle("simd")).unwrap_err();
            assert!(err.to_string().contains("non-empty"), "{hostile:?}: {err}");
            assert!(plan.is_empty(), "{hostile:?} must not be inserted");
        }
        plan.try_set("conv1", Stage::Forward, handle("simd")).unwrap();
        assert_eq!(plan.resolve("conv1", Stage::Forward).name(), "simd");
        assert_eq!(Plan::from_text("conv1 forward simd").unwrap(), plan);
    }

    #[test]
    fn plan_text_parses() {
        let mut plan = Plan::new(handle("simd"));
        plan.set("conv1", Stage::Forward, handle("parallel:im2row"));
        plan.set("conv2", Stage::InputGrad, handle("scalar"));
        plan.set("conv2", Stage::WeightGrad, handle("fixed:q4.12"));
        // The v1 text form, as legacy snapshots and plan files carry it.
        let text = "# sparsetrain execution plan v1\n\
                    default simd\n\
                    conv1 forward parallel:im2row\n\
                    conv2 input_grad scalar\n\
                    conv2 weight_grad fixed:q4.12\n";
        assert_eq!(Plan::from_text(text).unwrap(), plan);
        // Comments, blank lines and inline comments are tolerated.
        let relaxed = format!("\n# a comment\n{text}\nconv3 forward im2row # trailing\n");
        let parsed = Plan::from_text(&relaxed).unwrap();
        assert_eq!(parsed.resolve("conv3", Stage::Forward).name(), "im2row");
        assert_eq!(parsed.default_engine().name(), "simd");
    }

    #[test]
    fn plan_parse_errors_are_descriptive() {
        let unknown_engine = Plan::from_text("conv1 forward warp-drive").unwrap_err();
        assert!(
            unknown_engine.to_string().contains("warp-drive"),
            "{unknown_engine}"
        );
        let unknown_stage = Plan::from_text("conv1 sideways simd").unwrap_err();
        assert!(unknown_stage.to_string().contains("sideways"), "{unknown_stage}");
        assert!(
            unknown_stage.to_string().contains("input_grad"),
            "{unknown_stage}"
        );
        let malformed = Plan::from_text("conv1 forward simd extra words").unwrap_err();
        assert!(malformed.to_string().contains("line 1"), "{malformed}");
        let bad_default = Plan::from_text("default warp-drive").unwrap_err();
        assert!(bad_default.to_string().contains("warp-drive"), "{bad_default}");
    }

    #[test]
    fn plan_unknown_engine_surfaces_registry_detail() {
        // Regression: an unregistered engine in a plan must carry the full
        // `UnknownEngine` detail (registered names + spec forms), not a bare
        // "not registered" message.
        for text in ["conv1 forward warp-drive", "default warp-drive"] {
            let err = Plan::from_text(text).unwrap_err().to_string();
            assert!(err.contains("warp-drive"), "{err}");
            assert!(err.contains("registered:"), "missing registry list: {err}");
            assert!(err.contains("scalar"), "missing registered names: {err}");
            assert!(err.contains("fixed:qI.F"), "missing spec forms: {err}");
        }
        // A parameterized spec that isn't pre-registered still resolves.
        let plan = Plan::from_text("default fixed:q4.12").unwrap();
        assert_eq!(plan.default_engine().name(), "fixed:q4.12");
    }

    #[test]
    fn plan_file_loads_through_env_path_machinery() {
        let path = std::env::temp_dir().join(format!("sparsetrain-plan-{}.txt", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path").to_string();
        std::fs::write(&path, "default simd\nconv1 forward im2row\n").unwrap();
        let plan = load_plan(&path).unwrap();
        assert_eq!(plan.default_engine().name(), "simd");
        assert_eq!(plan.resolve("conv1", Stage::Forward).name(), "im2row");
        std::fs::remove_file(&path).ok();
        let err = load_plan(&path).unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
    }
}
