//! Compiled binary execution plans: the `STPLAN` container and its VM.
//!
//! This module gives the planner's [`Plan`] (one engine per
//! `(layer, stage)` cell) its serialized form, a compact, versioned
//! **binary program** — the artifact an ahead-of-time compiler
//! ships to a fresh process, the sharded workers, or the checkpoint file —
//! plus a small VM that replays it against the engine registry:
//!
//! * [`ExecutionProgram`] — the container: a header (magic `STPLAN`,
//!   version), a string table interning layer and engine names, the
//!   stage-ordered cell table (layer id, stage, engine id), optional
//!   per-cell workspace-size hints, and optional per-layer prune points
//!   (the pruned gradient population the plan was compiled against).
//!   `sparsetrain_core::dataflow::compile_plan` lowers a [`Plan`] plus a
//!   compiled instruction `Program` into one.
//! * [`ExecutionProgram::encode`] / [`ExecutionProgram::decode`] — the
//!   derive-free section codec, in the same length-prefixed shape as the
//!   checkpoint `.stck` container and the kernel ISA in
//!   `sparsetrain-core`: corruption returns a typed [`DecodeError`] naming
//!   the offending section and field, never a panic.
//! * [`Plan::to_program`] / [`Plan::from_program`] — the lossless bridge:
//!   every cell and the default engine fold into the program and come back
//!   out identical.
//! * [`PlanVm`] — executes a program through the planned entry points of
//!   [`ExecutionContext`] (`forward_batch_for` and friends). Every planned
//!   engine is bitwise-identical to the scalar reference, so a VM replay
//!   is bitwise-identical to the run that froze the program's plan.
//!   The VM tracks which program cells have executed
//!   ([`PlanVm::pending_cells`]).
//!
//! `SPARSETRAIN_PLAN` accepts both formats: [`crate::planner::load_plan`]
//! sniffs the magic and routes binary files here.

use crate::context::ExecutionContext;
use crate::mask::RowMask;
use crate::planner::{Plan, PlanError, Stage};
use crate::registry::lookup_or_parse;
use crate::rowconv::SparseFeatureMap;
use sparsetrain_container::{Reader, SectionId, Sections, Writer};
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::{Tensor3, Tensor4};
use std::collections::BTreeSet;
use std::fmt;

/// File magic: "STPLAN" + format epoch byte + NUL.
pub const MAGIC: [u8; 8] = *b"STPLAN\x01\x00";
/// Current execution-program format version.
pub const VERSION: u16 = 1;

/// Whether `bytes` look like an `STPLAN` binary program (vs the legacy
/// text plan format). Only the six ASCII magic bytes are sniffed, so a
/// future format epoch still routes to the binary decoder (and fails there
/// with a typed error instead of a text parse error).
pub fn is_binary_plan(bytes: &[u8]) -> bool {
    bytes.len() >= 6 && bytes[..6] == MAGIC[..6]
}

/// The named sections of the program container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The interned layer/engine name table (mandatory).
    Strings,
    /// Default engine + the `(layer, stage, engine)` cell table (mandatory).
    Cells,
    /// Per-cell workspace-size hints (optional).
    Workspace,
    /// Per-layer prune points (optional).
    Prune,
}

impl SectionId for Section {
    const MAGIC: [u8; 8] = MAGIC;
    const VERSION: u16 = VERSION;
    const DOCUMENT: &'static str = "program";
    const TABLE: &'static [(Self, u16, &'static str)] = &[
        (Section::Strings, 1, "strings"),
        (Section::Cells, 2, "cells"),
        (Section::Workspace, 3, "workspace"),
        (Section::Prune, 4, "prune"),
    ];
}

/// Errors raised while encoding a program.
pub type EncodeError = sparsetrain_container::EncodeError<Section>;
/// Errors raised while decoding a program. Every variant names the region
/// at fault; corrupt inputs must never panic.
pub type DecodeError = sparsetrain_container::DecodeError<Section>;

/// Stable on-wire stage codes (`0`/`1`/`2` in [`Stage::ALL`] order).
fn stage_code(stage: Stage) -> u8 {
    match stage {
        Stage::Forward => 0,
        Stage::InputGrad => 1,
        Stage::WeightGrad => 2,
    }
}

fn stage_from_code(code: u8) -> Option<Stage> {
    match code {
        0 => Some(Stage::Forward),
        1 => Some(Stage::InputGrad),
        2 => Some(Stage::WeightGrad),
        _ => None,
    }
}

/// One decided cell: `(layer, stage) → engine`, with names interned in the
/// program's string table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramCell {
    /// String-table id of the layer name.
    pub layer: u32,
    /// The training stage the cell decides.
    pub stage: Stage,
    /// String-table id of the engine name.
    pub engine: u32,
}

/// A workspace-size hint: the largest single-instruction operand
/// population (values streamed through one row op) observed for a cell
/// when the program was compiled. Advisory — execution never depends on
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkspaceHint {
    /// String-table id of the layer name.
    pub layer: u32,
    /// The stage the hint applies to.
    pub stage: Stage,
    /// Largest per-instruction operand population for the cell.
    pub elements: u64,
}

/// A prune point: the total pruned output-gradient population of one layer
/// at plan-compile time — the density regime the plan's backward-stage
/// decisions were made for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrunePoint {
    /// String-table id of the layer name.
    pub layer: u32,
    /// Non-zeros of the layer's (pruned) output-gradient stream.
    pub grad_nnz: u64,
}

/// A compiled, serializable execution program: the binary form of a
/// planner [`Plan`], enriched with the workspace and prune metadata of the
/// instruction program it was lowered against.
///
/// ```
/// use sparsetrain_sparse::planner::{Plan, Stage};
/// use sparsetrain_sparse::plan_program::ExecutionProgram;
/// use sparsetrain_sparse::registry;
///
/// let mut plan = Plan::new(registry::lookup("scalar").unwrap());
/// plan.set("conv1", Stage::Forward, registry::lookup("im2row").unwrap());
/// let bytes = plan.to_program().encode().unwrap();
/// let back = Plan::from_program(&ExecutionProgram::decode(&bytes).unwrap()).unwrap();
/// assert_eq!(back, plan);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionProgram {
    strings: Vec<String>,
    default_engine: u32,
    cells: Vec<ProgramCell>,
    workspace_hints: Vec<WorkspaceHint>,
    prune_points: Vec<PrunePoint>,
}

impl ExecutionProgram {
    /// An empty program whose unplanned cells resolve to `default_engine`.
    pub fn new(default_engine: &str) -> Self {
        let mut prog = ExecutionProgram {
            strings: Vec::new(),
            default_engine: 0,
            cells: Vec::new(),
            workspace_hints: Vec::new(),
            prune_points: Vec::new(),
        };
        prog.default_engine = prog.intern(default_engine);
        prog
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(id) = self.strings.iter().position(|have| have == s) {
            return id as u32;
        }
        self.strings.push(s.to_string());
        (self.strings.len() - 1) as u32
    }

    fn name(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// The interned name table (layer and engine names).
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    /// The engine unplanned cells resolve to.
    pub fn default_engine_name(&self) -> &str {
        self.name(self.default_engine)
    }

    /// Appends a decided cell. Cells keep insertion order on the wire;
    /// [`Plan::to_program`] inserts in the plan's canonical
    /// `(layer, stage)` order.
    pub fn push_cell(&mut self, layer: &str, stage: Stage, engine: &str) {
        let layer = self.intern(layer);
        let engine = self.intern(engine);
        self.cells.push(ProgramCell { layer, stage, engine });
    }

    /// The decided cells, in table order.
    pub fn cells(&self) -> &[ProgramCell] {
        &self.cells
    }

    /// The decided cells with names resolved: `(layer, stage, engine)`.
    pub fn cell_names(&self) -> impl Iterator<Item = (&str, Stage, &str)> {
        self.cells
            .iter()
            .map(|c| (self.name(c.layer), c.stage, self.name(c.engine)))
    }

    /// Records a workspace-size observation for a cell, keeping the
    /// maximum across calls.
    pub fn note_workspace(&mut self, layer: &str, stage: Stage, elements: u64) {
        let layer = self.intern(layer);
        if let Some(hint) = self
            .workspace_hints
            .iter_mut()
            .find(|h| h.layer == layer && h.stage == stage)
        {
            hint.elements = hint.elements.max(elements);
            return;
        }
        self.workspace_hints.push(WorkspaceHint {
            layer,
            stage,
            elements,
        });
    }

    /// The recorded workspace hints, in insertion order.
    pub fn workspace_hints(&self) -> &[WorkspaceHint] {
        &self.workspace_hints
    }

    /// The workspace hint for one cell, if recorded.
    pub fn workspace_hint(&self, layer: &str, stage: Stage) -> Option<u64> {
        let layer = self.strings.iter().position(|s| s == layer)? as u32;
        self.workspace_hints
            .iter()
            .find(|h| h.layer == layer && h.stage == stage)
            .map(|h| h.elements)
    }

    /// The largest recorded workspace hint, if any.
    pub fn max_workspace_elements(&self) -> Option<u64> {
        self.workspace_hints.iter().map(|h| h.elements).max()
    }

    /// Records (or replaces) a layer's prune point.
    pub fn note_prune_point(&mut self, layer: &str, grad_nnz: u64) {
        let layer = self.intern(layer);
        if let Some(point) = self.prune_points.iter_mut().find(|p| p.layer == layer) {
            point.grad_nnz = grad_nnz;
            return;
        }
        self.prune_points.push(PrunePoint { layer, grad_nnz });
    }

    /// The recorded prune points, in insertion order.
    pub fn prune_points(&self) -> &[PrunePoint] {
        &self.prune_points
    }

    /// A layer's prune point, if recorded.
    pub fn prune_point(&self, layer: &str) -> Option<u64> {
        let layer = self.strings.iter().position(|s| s == layer)? as u32;
        self.prune_points
            .iter()
            .find(|p| p.layer == layer)
            .map(|p| p.grad_nnz)
    }

    /// Serializes the program into the versioned `STPLAN` container.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] when a count exceeds its wire width.
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        let mut w = Writer::new();

        w.begin(Section::Strings);
        w.count("string entries", self.strings.len())?;
        for s in &self.strings {
            w.str("string bytes", s)?;
        }

        w.begin(Section::Cells);
        w.u32(self.default_engine);
        w.count("cell entries", self.cells.len())?;
        for c in &self.cells {
            w.u32(c.layer);
            w.u8(stage_code(c.stage));
            w.u32(c.engine);
        }

        if !self.workspace_hints.is_empty() {
            w.begin(Section::Workspace);
            w.count("workspace hints", self.workspace_hints.len())?;
            for h in &self.workspace_hints {
                w.u32(h.layer);
                w.u8(stage_code(h.stage));
                w.u64(h.elements);
            }
        }

        if !self.prune_points.is_empty() {
            w.begin(Section::Prune);
            w.count("prune points", self.prune_points.len())?;
            for p in &self.prune_points {
                w.u32(p.layer);
                w.u64(p.grad_nnz);
            }
        }

        Ok(w.finish())
    }

    /// Parses a program from the versioned `STPLAN` container.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`] on any malformation — bad magic or
    /// version, truncated/duplicate/unknown/missing sections, trailing
    /// bytes, out-of-range string ids, invalid stage codes, duplicate
    /// cells/hints/points, or duplicate string-table entries.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let sections = Sections::parse(bytes)?;

        // Strings first, so the id-bearing sections can validate against the table.
        let mut r = sections.required(Section::Strings)?;
        let strings = r.seq(4, |r| r.str("string bytes"))?;
        if (1..strings.len()).any(|i| strings[..i].contains(&strings[i])) {
            return Err(r.invalid("duplicate string"));
        }
        r.finish()?;
        let string_id = |r: &mut Reader<'_, Section>, field| {
            let id = r.u32()?;
            if (id as usize) < strings.len() {
                Ok(id)
            } else {
                Err(r.invalid(field))
            }
        };
        let stage =
            |r: &mut Reader<'_, Section>, field| stage_from_code(r.u8()?).ok_or_else(|| r.invalid(field));

        let mut r = sections.required(Section::Cells)?;
        let default_engine = string_id(&mut r, "default engine id")?;
        let mut seen = BTreeSet::new();
        let cells = r.seq(9, |r| {
            let layer = string_id(r, "cell layer id")?;
            let stage = stage(r, "cell stage")?;
            let engine = string_id(r, "cell engine id")?;
            if !seen.insert((layer, stage_code(stage))) {
                return Err(r.invalid("duplicate cell"));
            }
            Ok(ProgramCell { layer, stage, engine })
        })?;
        r.finish()?;

        let mut workspace_hints = Vec::new();
        if let Some(mut r) = sections.optional(Section::Workspace) {
            let mut seen = BTreeSet::new();
            workspace_hints = r.seq(13, |r| {
                let layer = string_id(r, "hint layer id")?;
                let stage = stage(r, "hint stage")?;
                let elements = r.u64()?;
                if !seen.insert((layer, stage_code(stage))) {
                    return Err(r.invalid("duplicate workspace hint"));
                }
                Ok(WorkspaceHint {
                    layer,
                    stage,
                    elements,
                })
            })?;
            r.finish()?;
        }

        let mut prune_points = Vec::new();
        if let Some(mut r) = sections.optional(Section::Prune) {
            let mut seen = BTreeSet::new();
            prune_points = r.seq(12, |r| {
                let layer = string_id(r, "prune layer id")?;
                let grad_nnz = r.u64()?;
                if !seen.insert(layer) {
                    return Err(r.invalid("duplicate prune point"));
                }
                Ok(PrunePoint { layer, grad_nnz })
            })?;
            r.finish()?;
        }

        Ok(ExecutionProgram {
            strings,
            default_engine,
            cells,
            workspace_hints,
            prune_points,
        })
    }
}

// ---------------------------------------------------------------------------
// Plan bridge
// ---------------------------------------------------------------------------

impl Plan {
    /// Lowers this plan losslessly into a binary [`ExecutionProgram`]
    /// (cells in canonical `(layer, stage)` order; no workspace or prune
    /// metadata — `sparsetrain_core::dataflow::compile_plan` adds those
    /// from a compiled instruction program).
    pub fn to_program(&self) -> ExecutionProgram {
        let mut prog = ExecutionProgram::new(self.default_engine().name());
        for (layer, stage, handle) in self.cells() {
            prog.push_cell(layer, stage, handle.name());
        }
        prog
    }

    /// Rebuilds the plan a program was lowered from: the inverse of
    /// [`Plan::to_program`].
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when an engine name does not resolve through
    /// the registry or a layer id is unusable as a plan key.
    pub fn from_program(program: &ExecutionProgram) -> Result<Self, PlanError> {
        let resolve = |name: &str| lookup_or_parse(name).map_err(|e| PlanError::new(e.to_string()));
        let mut plan = Plan::new(resolve(program.default_engine_name())?);
        for (layer, stage, engine) in program.cell_names() {
            plan.try_set(layer, stage, resolve(engine)?)?;
        }
        Ok(plan)
    }
}

// ---------------------------------------------------------------------------
// The VM
// ---------------------------------------------------------------------------

/// Executes a compiled [`ExecutionProgram`] against the engine registry.
///
/// The VM wraps a planned [`ExecutionContext`] replaying the program's
/// plan: every batched call resolves its engine through the program's cell
/// table (cells the program misses are decided by the density rule like
/// any other undecided cell), so a replay is **bitwise-identical** to the
/// run that emitted the program — planning affects speed, never results.
pub struct PlanVm {
    program: ExecutionProgram,
    ctx: ExecutionContext,
    executed: BTreeSet<(String, Stage)>,
}

impl PlanVm {
    /// A VM executing `program`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when the program's plan does not resolve (see
    /// [`Plan::from_program`]).
    pub fn new(program: ExecutionProgram) -> Result<Self, PlanError> {
        let plan = Plan::from_program(&program)?;
        Ok(PlanVm {
            program,
            ctx: ExecutionContext::with_plan(plan),
            executed: BTreeSet::new(),
        })
    }

    /// A VM decoded straight from `STPLAN` container bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] wrapping the decode failure or unresolvable
    /// plan.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PlanError> {
        let program = ExecutionProgram::decode(bytes).map_err(|e| PlanError::new(e.to_string()))?;
        Self::new(program)
    }

    /// The program under execution.
    pub fn program(&self) -> &ExecutionProgram {
        &self.program
    }

    /// The replayed plan.
    pub fn plan(&self) -> &Plan {
        self.ctx.plan().expect("a plan VM context is always planned")
    }

    /// The underlying planned execution context.
    pub fn context_mut(&mut self) -> &mut ExecutionContext {
        &mut self.ctx
    }

    fn mark(&mut self, layer: &str, stage: Stage) {
        self.executed.insert((layer.to_string(), stage));
    }

    /// Executes a batched forward step on the cell's planned engine.
    pub fn forward_batch(
        &mut self,
        layer: &str,
        inputs: &[SparseFeatureMap],
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
    ) -> Vec<Tensor3> {
        self.mark(layer, Stage::Forward);
        self.ctx.forward_batch_for(layer, inputs, weights, bias, geom)
    }

    /// Executes a batched GTA step on the cell's planned engine,
    /// accumulating into the pre-seeded `dins`.
    pub fn input_grad_batch_into(
        &mut self,
        layer: &str,
        douts: &[SparseFeatureMap],
        weights: &Tensor4,
        geom: ConvGeometry,
        masks: &[Vec<RowMask>],
        dins: &mut [Tensor3],
    ) {
        self.mark(layer, Stage::InputGrad);
        self.ctx
            .input_grad_batch_for_into(layer, douts, weights, geom, masks, dins);
    }

    /// Executes a batched GTW step on the cell's planned engine,
    /// accumulating into `dw`.
    pub fn weight_grad_batch(
        &mut self,
        layer: &str,
        inputs: &[SparseFeatureMap],
        douts: &[SparseFeatureMap],
        geom: ConvGeometry,
        dw: &mut Tensor4,
    ) {
        self.mark(layer, Stage::WeightGrad);
        self.ctx.weight_grad_batch_for(layer, inputs, douts, geom, dw);
    }

    /// Number of distinct `(layer, stage)` cells executed so far.
    pub fn executed_cells(&self) -> usize {
        self.executed.len()
    }

    /// Program cells that have not executed yet — replay coverage: empty
    /// once every pinned decision has been exercised.
    pub fn pending_cells(&self) -> Vec<(&str, Stage)> {
        self.program
            .cell_names()
            .filter(|(layer, stage, _)| !self.executed.contains(&((*layer).to_string(), *stage)))
            .map(|(layer, stage, _)| (layer, stage))
            .collect()
    }
}

impl fmt::Debug for PlanVm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanVm")
            .field("cells", &self.program.cells().len())
            .field("executed", &self.executed.len())
            .field("default", &self.program.default_engine_name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::lookup;

    fn handle(name: &str) -> crate::registry::EngineHandle {
        lookup(name).expect(name)
    }

    fn sample_plan() -> Plan {
        let mut plan = Plan::new(handle("simd"));
        plan.set("conv1", Stage::Forward, handle("parallel:im2row"));
        plan.set("conv1", Stage::WeightGrad, handle("scalar"));
        plan.set("conv2", Stage::InputGrad, handle("parallel"));
        plan
    }

    fn sample_program() -> ExecutionProgram {
        let mut prog = sample_plan().to_program();
        prog.note_workspace("conv1", Stage::Forward, 4096);
        prog.note_workspace("conv2", Stage::InputGrad, 512);
        prog.note_prune_point("conv1", 123);
        prog.note_prune_point("conv2", 45);
        prog
    }

    #[test]
    fn plan_program_roundtrips_losslessly() {
        let plan = sample_plan();
        let prog = plan.to_program();
        assert_eq!(Plan::from_program(&prog).unwrap(), plan);

        let bytes = sample_program().encode().unwrap();
        let back = ExecutionProgram::decode(&bytes).unwrap();
        assert_eq!(back, sample_program());
        assert_eq!(Plan::from_program(&back).unwrap(), plan);
        // Canonical bytes: encode ∘ decode is the identity on our output.
        assert_eq!(back.encode().unwrap(), bytes);
    }

    /// Hex digits (whitespace ignored) → bytes, for the golden fixtures below.
    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        let byte = |pair: &[u8]| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap();
        digits.chunks(2).map(byte).collect()
    }

    #[test]
    fn whole_file_golden_bytes() {
        // `STPLAN` v1, whole files: the header (magic, version 1, reserved, section count),
        // then one section (12-byte section header, then payload) per line. A change to any
        // byte here is a wire-format break and must bump VERSION.
        let full = unhex(
            "5354504c414e0100 0100 0000 04000000 \
             010000004700000000000000 06000000 0400000073696d64 05000000636f6e7631 \
                0f000000706172616c6c656c3a696d32726f77 060000007363616c6172 05000000636f6e7632 \
                08000000706172616c6c656c \
             020000002300000000000000 00000000 03000000 010000000002000000 010000000203000000 \
                040000000105000000 \
             030000001e00000000000000 02000000 01000000000010000000000000 04000000010002000000000000 \
             040000001c00000000000000 02000000 010000007b00000000000000 040000002d00000000000000",
        );
        let minimal = unhex(
            "5354504c414e0100 0100 0000 02000000 \
             010000000c00000000000000 01000000 0400000073696d64 \
             020000000800000000000000 00000000 00000000",
        );
        let default_simd = Plan::new(handle("simd")).to_program();
        for (program, golden) in [(sample_program(), full), (default_simd, minimal)] {
            assert_eq!(program.encode().unwrap(), golden);
            assert_eq!(ExecutionProgram::decode(&golden).unwrap(), program);
        }
    }

    #[test]
    fn interning_dedupes_names() {
        let prog = sample_program();
        let mut seen = std::collections::BTreeSet::new();
        for s in prog.strings() {
            assert!(seen.insert(s.clone()), "duplicate interned string {s:?}");
        }
        assert_eq!(prog.default_engine_name(), "simd");
        assert_eq!(prog.workspace_hint("conv1", Stage::Forward), Some(4096));
        assert_eq!(prog.workspace_hint("conv1", Stage::InputGrad), None);
        assert_eq!(prog.prune_point("conv2"), Some(45));
        assert_eq!(prog.max_workspace_elements(), Some(4096));
    }

    #[test]
    fn workspace_notes_keep_the_max() {
        let mut prog = ExecutionProgram::new("scalar");
        prog.note_workspace("c", Stage::Forward, 10);
        prog.note_workspace("c", Stage::Forward, 7);
        prog.note_workspace("c", Stage::Forward, 19);
        assert_eq!(prog.workspace_hint("c", Stage::Forward), Some(19));
        prog.note_prune_point("c", 5);
        prog.note_prune_point("c", 9);
        assert_eq!(prog.prune_point("c"), Some(9));
        assert_eq!(prog.prune_points().len(), 1);
    }

    #[test]
    fn magic_sniff_distinguishes_binary_from_text() {
        let bytes = sample_program().encode().unwrap();
        assert!(is_binary_plan(&bytes));
        assert!(!is_binary_plan(b"# sparsetrain execution plan v1\n"));
        assert!(!is_binary_plan(b"STPL"));
        // A future format epoch still sniffs as binary.
        let mut epoch2 = bytes.clone();
        epoch2[6] = 0x02;
        assert!(is_binary_plan(&epoch2));
    }

    // Sections of hand-built programs over the string table ["s", "c"] with no cells; the
    // framing itself is tested once, in `sparsetrain-container`.
    const HEADER: &str = "5354504c414e0100 0100 0000";
    const STRINGS: &str = "010000000e00000000000000 02000000 0100000073 0100000063";
    const NO_CELLS: &str = "020000000800000000000000 00000000 00000000";

    #[test]
    fn mandatory_sections_are_required() {
        for (only, missing) in [(STRINGS, Section::Cells), (NO_CELLS, Section::Strings)] {
            let err = ExecutionProgram::decode(&unhex(&format!("{HEADER} 01000000 {only}"))).unwrap_err();
            assert_eq!(err, DecodeError::MissingSection { section: missing });
        }
        let both = unhex(&format!("{HEADER} 02000000 {STRINGS} {NO_CELLS}"));
        assert_eq!(ExecutionProgram::decode(&both).unwrap().strings(), ["s", "c"]);
    }

    #[test]
    fn invalid_payload_fields_are_typed() {
        use Section::*;
        // Each case is one section payload for the two-string program: ids must be < 2, stages < 3.
        let cases = [
            (Strings, 1, "duplicate string", "02000000 0100000073 0100000073"),
            (Cells, 2, "default engine id", "02000000 00000000"),
            (
                Cells,
                2,
                "cell layer id",
                "00000000 01000000 02000000 00 00000000",
            ),
            (Cells, 2, "cell stage", "00000000 01000000 01000000 09 00000000"),
            (
                Cells,
                2,
                "cell engine id",
                "00000000 01000000 01000000 00 02000000",
            ),
            (
                Cells,
                2,
                "duplicate cell",
                "00000000 02000000 01000000 00 00000000 01000000 00 00000000",
            ),
            (
                Workspace,
                3,
                "hint layer id",
                "01000000 02000000 00 0100000000000000",
            ),
            (
                Workspace,
                3,
                "hint stage",
                "01000000 01000000 03 0100000000000000",
            ),
            (
                Workspace,
                3,
                "duplicate workspace hint",
                "02000000 01000000 00 0100000000000000 01000000 00 0200000000000000",
            ),
            (Prune, 4, "prune layer id", "01000000 02000000 0100000000000000"),
            (
                Prune,
                4,
                "duplicate prune point",
                "02000000 01000000 0100000000000000 01000000 0200000000000000",
            ),
        ];
        let (strings, no_cells) = (unhex(STRINGS), unhex(NO_CELLS));
        for (section, tag, field, payload) in cases {
            let payload = unhex(payload);
            let case = [
                &[tag, 0, 0, 0][..],
                &(payload.len() as u64).to_le_bytes(),
                &payload,
            ]
            .concat();
            // The case stands in for the good section of its kind, or follows the two good ones.
            let sections = match section {
                Strings => vec![&case, &no_cells],
                Cells => vec![&strings, &case],
                _ => vec![&strings, &no_cells, &case],
            };
            let mut file = unhex(&format!("{HEADER} 0{}000000", sections.len()));
            sections.iter().for_each(|s| file.extend_from_slice(s));
            assert_eq!(
                ExecutionProgram::decode(&file),
                Err(DecodeError::InvalidField { section, field })
            );
        }
    }

    #[test]
    fn from_program_rejects_unknown_engines_and_hostile_layers() {
        let mut prog = ExecutionProgram::new("warp-drive");
        let err = Plan::from_program(&prog).unwrap_err();
        assert!(err.to_string().contains("warp-drive"), "{err}");

        prog = ExecutionProgram::new("scalar");
        prog.push_cell("conv #1", Stage::Forward, "simd");
        let err = Plan::from_program(&prog).unwrap_err();
        assert!(err.to_string().contains("conv #1"), "{err}");
    }

    #[test]
    fn vm_replays_and_tracks_coverage() {
        use sparsetrain_tensor::Tensor3;

        let mut plan = Plan::new(handle("scalar"));
        plan.set("conv1", Stage::Forward, handle("simd"));
        plan.set("conv1", Stage::WeightGrad, handle("scalar"));
        let mut prog = plan.to_program();
        prog.note_workspace("conv1", Stage::Forward, 64);
        let mut vm = PlanVm::new(prog).unwrap();
        assert_eq!(vm.plan().resolve("conv1", Stage::Forward).name(), "simd");
        assert_eq!(vm.pending_cells().len(), 2);

        let geom = ConvGeometry::new(3, 1, 1);
        let input = SparseFeatureMap::from_tensor(&Tensor3::from_fn(2, 5, 5, |c, y, x| {
            ((c + y + x) % 3) as f32 * 0.25
        }));
        let dout = SparseFeatureMap::from_tensor(&Tensor3::from_fn(2, 5, 5, |c, y, x| {
            ((c + 2 * y + x) % 4) as f32 * 0.125
        }));
        let weights = Tensor4::from_fn(2, 2, 3, 3, |f, c, u, v| (f + c + u + v) as f32 * 0.1 - 0.3);

        let outs = vm.forward_batch("conv1", std::slice::from_ref(&input), &weights, None, geom);
        let op = crate::engine::StageOp::Forward {
            input: &input,
            weights: &weights,
            bias: None,
            geom,
        };
        assert_eq!(outs[0].as_slice(), op.run_on(&crate::engine::ScalarEngine));

        let mut dw = Tensor4::zeros(2, 2, 3, 3);
        vm.weight_grad_batch(
            "conv1",
            std::slice::from_ref(&input),
            std::slice::from_ref(&dout),
            geom,
            &mut dw,
        );
        assert_eq!(vm.executed_cells(), 2);
        assert!(vm.pending_cells().is_empty(), "{:?}", vm.pending_cells());
    }
}
