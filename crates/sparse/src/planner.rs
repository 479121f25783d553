//! Density-adaptive execution planning: one engine per (layer, stage).
//!
//! The registry's engines have *disjoint win regions* — the cache-blocked
//! im2row lowering dominates near-dense forward legs, the simd engine's
//! non-zero walk wins everything else — yet a global engine name applies
//! one backend to every convolution of every stage. This module closes
//! that gap the way the paper's compiler does: execution is planned **per
//! cell**, where a cell is a `(layer id, stage)` pair and the stages are
//! the three training convolutions ([`Stage::Forward`],
//! [`Stage::InputGrad`] for GTA, [`Stage::WeightGrad`] for GTW), and a
//! cell is **decided, not raced**: the first time it executes, the
//! win-region rule ([`heuristic_name`]) names its engine from the stage
//! and the density of the operands in hand, and the decision is frozen.
//! No clock is read, so a plan is a pure function of what the cells saw on
//! their first execution (hence of model and seed) — not of the pool size,
//! since every engine's `run_batch` sizes its own bands.
//!
//! Two pieces of machinery:
//!
//! * [`Plan`] — the frozen decision table mapping cells to
//!   [`EngineHandle`]s, with a default engine for unplanned cells. An
//!   `"auto"` [`crate::ExecutionContext`] carries one (empty at first,
//!   filled cell by cell). A plan serializes itself to the binary
//!   `STPLAN` format ([`Plan::encode`] / [`Plan::decode`], in
//!   [`crate::plan_program`]) so it can be saved and replayed via the
//!   [`PLAN_ENV`] (`SPARSETRAIN_PLAN`) environment variable — which also
//!   accepts the legacy line-oriented text format ([`Plan::from_text`]),
//!   sniffing the binary magic — and renders as a Markdown table
//!   ([`Plan::to_markdown`]) for reports. Every engine the rule names is
//!   bitwise-identical to the scalar reference (the parity suites enforce
//!   this; the fixed-point engines are never named), so a plan affects
//!   speed, never results.
//! * [`AutoEngine`] — the `"auto"` registry entry itself: a
//!   [`KernelEngine`] that applies the same rule per call. It covers every
//!   call site that has no layer identity to plan against (benches, raw
//!   engine calls); the planned entry points on `ExecutionContext` add the
//!   decide-once-and-freeze layer on top.

use crate::engine::{BatchOut, KernelEngine, StageOp};
use crate::plan_program::{is_binary_plan, DecodeError};
use crate::registry::{lookup, lookup_or_parse, EngineHandle, UnknownEngine};
use crate::rowconv::SparseFeatureMap;
use std::collections::BTreeMap;
use std::fmt;

/// Environment variable naming a serialized plan file — either the
/// line-oriented text format or a compiled `STPLAN` binary program
/// ([`load_plan`] sniffs the magic). When set (and the `"auto"` engine is
/// selected), the context starts from the loaded plan instead of an empty
/// one — see [`env_plan`].
pub const PLAN_ENV: &str = "SPARSETRAIN_PLAN";

/// The three training-stage convolutions a plan decides independently.
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

/// Density above which the forward stage takes the cache-blocked im2row
/// dense lowering: near-dense inputs (the raw image in front of `conv1`),
/// where there is nothing to skip and the register-tiled patch reduction
/// carries the call.
const IM2ROW_FORWARD_DENSITY: f64 = 0.90;

/// The win-region heuristic: the engine name for one cell, given the
/// stage and the observed density of the cell's sparse operand
/// (activations for Forward, pruned output gradients for the backward
/// stages).
///
/// Rules distilled from the engine benches: im2row wins the
/// near-dense forward leg (`conv1`, density 0.95) and loses or ties from
/// density 0.45 down; simd — work proportional to the non-zeros, lanes
/// across the always-dense channel axis — wins every other leg on every
/// stage, the d ≈ 0.05 pruned-gradient regime included, so the scalar
/// kernels are never the heuristic's answer.
pub fn heuristic_name(stage: Stage, density: f64) -> &'static str {
    if stage == Stage::Forward && density >= IM2ROW_FORWARD_DENSITY {
        "im2row"
    } else {
        "simd"
    }
}

/// [`heuristic_name`] resolved to a handle.
pub fn heuristic_handle(stage: Stage, density: f64) -> EngineHandle {
    lookup(heuristic_name(stage, density)).expect("heuristic engines are always registered")
}

/// Mean density over a batch of sparse maps (total nnz / total elements).
pub fn batch_density<'a>(maps: impl IntoIterator<Item = &'a SparseFeatureMap>) -> f64 {
    let mut nnz = 0usize;
    let mut total = 0usize;
    for m in maps {
        nnz += m.nnz();
        total += m.channels() * m.height() * m.width();
    }
    if total == 0 {
        0.0
    } else {
        nnz as f64 / total as f64
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

/// A frozen execution plan: `(layer id, stage) → engine`, with a default
/// engine for cells the plan does not name.
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
    /// Per layer, the decided engine of each stage (indexed by
    /// `Stage as usize`, i.e. in [`Stage::ALL`] order). A layer is present
    /// only once one of its stages is decided, so derived equality is
    /// equality of the decided cells.
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

    /// The planned engine for a cell, if one was decided.
    pub fn get(&self, layer: &str, stage: Stage) -> Option<EngineHandle> {
        self.cells.get(layer)?[stage as usize]
    }

    /// The engine a cell executes on: the planned one, or the default.
    pub fn resolve(&self, layer: &str, stage: Stage) -> EngineHandle {
        self.get(layer, stage).unwrap_or(self.default)
    }

    /// Number of decided cells.
    pub fn len(&self) -> usize {
        self.cells().count()
    }

    /// Whether no cell has been decided yet.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates the decided cells in `(layer, stage)` order.
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

    /// Renders the plan as a Markdown table: one row per layer, one column
    /// per stage, unplanned cells shown as the default engine.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("| layer | forward | input_grad | weight_grad |\n|---|---|---|---|\n");
        for (layer, stages) in &self.cells {
            let cell = |stage: Stage| {
                stages[stage as usize]
                    .map_or_else(|| format!("({})", self.default.name()), |h| h.name().to_string())
            };
            out.push_str(&format!(
                "| {layer} | {} | {} | {} |\n",
                cell(Stage::Forward),
                cell(Stage::InputGrad),
                cell(Stage::WeightGrad)
            ));
        }
        out.push_str(&format!("\nDefault engine: `{}`.\n", self.default.name()));
        out
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

/// The `"auto"` registry engine: density-adaptive per-call dispatch.
///
/// Every call inspects its sparse operand's density and delegates to the
/// win-region heuristic's engine ([`heuristic_name`]) — the activations
/// for Forward, the (pruned) output gradients for GTA and GTW. All
/// delegates are float engines bitwise-identical to the scalar reference,
/// so `auto` is itself bitwise-identical to `scalar` on every call, at
/// whatever speed the densities allow. Call sites with a layer identity
/// get the per-(layer, stage) decide-once-and-freeze treatment through
/// [`crate::ExecutionContext`]'s planned entry points; this engine is the
/// zero-configuration floor underneath.
#[derive(Debug, Default, Clone, Copy)]
pub struct AutoEngine;

impl KernelEngine for AutoEngine {
    fn run_batch(&self, ops: &[StageOp<'_>], out: BatchOut<'_>) {
        // An empty batch has no stage; it is the same no-op on any delegate.
        let stage = ops.first().map_or(Stage::Forward, StageOp::stage);
        heuristic_handle(stage, batch_density(ops.iter().map(StageOp::operand)))
            .engine()
            .run_batch(ops, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScalarEngine;
    use sparsetrain_tensor::conv::ConvGeometry;
    use sparsetrain_tensor::{Tensor3, Tensor4};

    fn handle(name: &str) -> EngineHandle {
        lookup(name).expect(name)
    }

    #[test]
    fn heuristic_matches_the_measured_win_regions() {
        // Near-dense forward → the cache-blocked im2row lowering.
        assert_eq!(heuristic_name(Stage::Forward, 0.95), "im2row");
        // Every other leg → the non-zero walk with channel lanes.
        assert_eq!(heuristic_name(Stage::Forward, 0.45), "simd");
        assert_eq!(heuristic_name(Stage::Forward, 0.10), "simd");
        assert_eq!(heuristic_name(Stage::InputGrad, 0.15), "simd");
        assert_eq!(heuristic_name(Stage::WeightGrad, 0.25), "simd");
        // The pruned d ≈ 0.05 backward regime included: simd's work is
        // proportional to the non-zeros too.
        assert_eq!(heuristic_name(Stage::InputGrad, 0.05), "simd");
        assert_eq!(heuristic_name(Stage::WeightGrad, 0.05), "simd");
        // Gradient stages never take the forward-only im2row lowering.
        assert_eq!(heuristic_name(Stage::InputGrad, 0.95), "simd");
        // Over the whole domain the rule only ever names a float engine
        // that beats scalar — never `scalar`, a `fixed*` grid (that would
        // change numerics) or `auto` itself.
        for stage in Stage::ALL {
            for density in [0.0, 0.05, 0.45, 0.89, 0.90, 1.0] {
                let seq = heuristic_name(stage, density);
                assert!(["simd", "im2row"].contains(&seq), "{stage} at {density}: {seq}");
                assert_eq!(
                    seq == "im2row",
                    stage == Stage::Forward && density >= 0.90,
                    "{stage} at {density}"
                );
            }
        }
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
    fn plan_renders_markdown() {
        let mut plan = Plan::new(handle("scalar"));
        plan.set("conv1", Stage::Forward, handle("im2row"));
        plan.set("conv1", Stage::InputGrad, handle("simd"));
        plan.set("conv2", Stage::WeightGrad, handle("parallel"));
        let md = plan.to_markdown();
        assert!(
            md.contains("| layer | forward | input_grad | weight_grad |"),
            "{md}"
        );
        assert!(md.contains("| conv1 | im2row | simd | (scalar) |"), "{md}");
        assert!(md.contains("| conv2 | (scalar) | (scalar) | parallel |"), "{md}");
        assert!(md.contains("Default engine: `scalar`"), "{md}");
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

    #[test]
    fn auto_engine_is_bitwise_identical_to_scalar() {
        let geom = ConvGeometry::new(3, 1, 1);
        // One near-dense map (im2row territory) and one sparse map (simd
        // territory): the delegate changes, the bits must not.
        for density in [97u64, 5] {
            let mut seed = 0x5EED + density;
            let mut pseudo = move || {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((seed >> 33) % 1000) as f32 / 1000.0 - 0.5
            };
            let input = Tensor3::from_fn(3, 9, 9, |c, y, x| {
                if (c + 3 * y + 7 * x) as u64 % 100 < density {
                    pseudo()
                } else {
                    0.0
                }
            });
            let dout = Tensor3::from_fn(4, 9, 9, |c, y, x| {
                if (5 * c + y + 2 * x) as u64 % 100 < density {
                    pseudo()
                } else {
                    0.0
                }
            });
            let weights = Tensor4::from_fn(4, 3, 3, 3, |_, _, _, _| pseudo());
            let bias: Vec<f32> = (0..4).map(|_| pseudo()).collect();
            let input = SparseFeatureMap::from_tensor(&input);
            let dout = SparseFeatureMap::from_tensor(&dout);
            let masks = input.masks();

            let ops = [
                StageOp::Forward {
                    input: &input,
                    weights: &weights,
                    bias: Some(&bias),
                    geom,
                },
                StageOp::InputGrad {
                    dout: &dout,
                    weights: &weights,
                    geom,
                    masks: &masks,
                    in_h: 9,
                    in_w: 9,
                },
                StageOp::WeightGrad {
                    input: &input,
                    dout: &dout,
                    geom,
                },
            ];
            for op in ops {
                assert_eq!(op.run_on(&AutoEngine), op.run_on(&ScalarEngine), "{}", op.stage());
            }
        }
    }

    #[test]
    fn batch_density_aggregates_over_samples() {
        let dense = SparseFeatureMap::from_tensor(&Tensor3::from_fn(1, 2, 2, |_, _, _| 1.0));
        let empty = SparseFeatureMap::from_tensor(&Tensor3::zeros(1, 2, 2));
        assert_eq!(batch_density(std::slice::from_ref(&dense)), 1.0);
        assert_eq!(batch_density(&[dense, empty]), 0.5);
        assert_eq!(batch_density(&[]), 0.0);
    }
}
