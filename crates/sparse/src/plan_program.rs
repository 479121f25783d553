//! Compiled binary execution plans: the `STPLAN` container and its VM.
//!
//! The planner's [`Plan`] (one engine per `(layer, stage)` cell) froze as a
//! line-oriented text file until now. This module gives it a compact,
//! versioned **binary program** — the artifact an ahead-of-time compiler
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
//!   is bitwise-identical to the probing run that produced the program.
//!   The VM pre-sizes its workspace from the program's hints and tracks
//!   which program cells have executed ([`PlanVm::pending_cells`]).
//!
//! `SPARSETRAIN_PLAN` accepts both formats: [`crate::planner::load_plan`]
//! sniffs the magic and routes binary files here.

use crate::context::ExecutionContext;
use crate::mask::RowMask;
use crate::planner::{Plan, PlanError, Stage};
use crate::registry::lookup_or_parse;
use crate::rowconv::SparseFeatureMap;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::{Tensor3, Tensor4};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// File magic: "STPLAN" + format epoch byte + NUL.
pub const MAGIC: [u8; 8] = *b"STPLAN\x01\x00";
/// Current execution-program format version.
pub const VERSION: u16 = 1;

const TAG_STRINGS: u16 = 1;
const TAG_CELLS: u16 = 2;
const TAG_WORKSPACE: u16 = 3;
const TAG_PRUNE: u16 = 4;

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

impl Section {
    fn from_tag(tag: u16) -> Option<Self> {
        match tag {
            TAG_STRINGS => Some(Section::Strings),
            TAG_CELLS => Some(Section::Cells),
            TAG_WORKSPACE => Some(Section::Workspace),
            TAG_PRUNE => Some(Section::Prune),
            _ => None,
        }
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Section::Strings => "strings",
            Section::Cells => "cells",
            Section::Workspace => "workspace",
            Section::Prune => "prune",
        };
        f.write_str(name)
    }
}

/// Errors raised while encoding a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A count or length exceeded the width reserved for it on the wire.
    FieldOverflow {
        section: Section,
        field: &'static str,
        value: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::FieldOverflow {
                section,
                field,
                value,
            } => write!(
                f,
                "section {section}: field {field} value {value} exceeds wire width"
            ),
        }
    }
}

impl Error for EncodeError {}

/// Errors raised while decoding a program. Every variant names the region
/// at fault; corrupt inputs must never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the fixed header.
    TruncatedHeader,
    /// Header magic does not match [`MAGIC`].
    BadMagic,
    /// Header version is not [`VERSION`].
    UnsupportedVersion(u16),
    /// A section body ended before its declared content did.
    TruncatedSection { section: Section },
    /// A section header declared a tag this version does not know.
    UnknownSection { tag: u16 },
    /// The same section appeared twice.
    DuplicateSection { section: Section },
    /// A mandatory section was absent.
    MissingSection { section: Section },
    /// Bytes remained after the last declared section.
    TrailingBytes { extra: usize },
    /// A field inside a section held an invalid value.
    InvalidField { section: Section, field: &'static str },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::TruncatedHeader => write!(f, "program shorter than its header"),
            DecodeError::BadMagic => write!(f, "bad program magic (not an STPLAN execution program)"),
            DecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported program version {v} (this build reads {VERSION})")
            }
            DecodeError::TruncatedSection { section } => write!(f, "section {section} is truncated"),
            DecodeError::UnknownSection { tag } => write!(f, "unknown section tag {tag}"),
            DecodeError::DuplicateSection { section } => {
                write!(f, "section {section} appears more than once")
            }
            DecodeError::MissingSection { section } => {
                write!(f, "mandatory section {section} is missing")
            }
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the last section")
            }
            DecodeError::InvalidField { section, field } => {
                write!(f, "section {section}: invalid value for field {field}")
            }
        }
    }
}

impl Error for DecodeError {}

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
/// when the program was compiled. Advisory — the VM pre-sizes scratch from
/// it, capped at [`PlanVm::MAX_PREWARM_ELEMENTS`].
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
        let mut sections: Vec<(u16, Vec<u8>)> = Vec::with_capacity(4);

        let mut w = Writer::new(Section::Strings);
        w.count("string entries", self.strings.len())?;
        for s in &self.strings {
            w.str("string bytes", s)?;
        }
        sections.push((TAG_STRINGS, w.buf));

        let mut w = Writer::new(Section::Cells);
        w.u32(self.default_engine);
        w.count("cell entries", self.cells.len())?;
        for c in &self.cells {
            w.u32(c.layer);
            w.u8(stage_code(c.stage));
            w.u32(c.engine);
        }
        sections.push((TAG_CELLS, w.buf));

        if !self.workspace_hints.is_empty() {
            let mut w = Writer::new(Section::Workspace);
            w.count("workspace hints", self.workspace_hints.len())?;
            for h in &self.workspace_hints {
                w.u32(h.layer);
                w.u8(stage_code(h.stage));
                w.u64(h.elements);
            }
            sections.push((TAG_WORKSPACE, w.buf));
        }

        if !self.prune_points.is_empty() {
            let mut w = Writer::new(Section::Prune);
            w.count("prune points", self.prune_points.len())?;
            for p in &self.prune_points {
                w.u32(p.layer);
                w.u64(p.grad_nnz);
            }
            sections.push((TAG_PRUNE, w.buf));
        }

        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&[0u8; 2]);
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        for (tag, payload) in sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&[0u8; 2]);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&payload);
        }
        Ok(out)
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
        if bytes.len() < 16 {
            return Err(DecodeError::TruncatedHeader);
        }
        if bytes[..8] != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let section_count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;

        // Slice the container first (order-independent), then parse the
        // payloads strings-first so the id-bearing sections can validate.
        let mut payloads: [Option<&[u8]>; 4] = [None; 4];
        let mut pos = 16usize;
        for _ in 0..section_count {
            if bytes.len() < pos + 12 {
                return Err(DecodeError::TruncatedHeader);
            }
            let tag = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]);
            let section = Section::from_tag(tag).ok_or(DecodeError::UnknownSection { tag })?;
            let mut raw_len = [0u8; 8];
            raw_len.copy_from_slice(&bytes[pos + 4..pos + 12]);
            let len = u64::from_le_bytes(raw_len) as usize;
            pos += 12;
            let end = pos
                .checked_add(len)
                .filter(|&e| e <= bytes.len())
                .ok_or(DecodeError::TruncatedSection { section })?;
            let slot = &mut payloads[tag as usize - 1];
            if slot.is_some() {
                return Err(DecodeError::DuplicateSection { section });
            }
            *slot = Some(&bytes[pos..end]);
            pos = end;
        }
        if pos != bytes.len() {
            return Err(DecodeError::TrailingBytes {
                extra: bytes.len() - pos,
            });
        }

        let mandatory = |tag: u16| {
            payloads[tag as usize - 1].ok_or(DecodeError::MissingSection {
                section: Section::from_tag(tag).expect("known tag"),
            })
        };

        let r = Reader::new(Section::Strings, mandatory(TAG_STRINGS)?);
        let n = r.count()?;
        let mut strings = Vec::with_capacity(n.min(r.remaining() + 1));
        for _ in 0..n {
            let s = r.str("string bytes")?;
            if strings.contains(&s) {
                return Err(r.invalid("duplicate string"));
            }
            strings.push(s);
        }
        r.finish()?;
        let string_id = |r: &Reader<'_>, field: &'static str, id: u32| {
            if (id as usize) < strings.len() {
                Ok(id)
            } else {
                Err(r.invalid(field))
            }
        };

        let r = Reader::new(Section::Cells, mandatory(TAG_CELLS)?);
        let default_engine = string_id(&r, "default engine id", r.u32()?)?;
        let n = r.count()?;
        let mut cells = Vec::with_capacity(n.min(r.remaining() + 1));
        let mut seen_cells = BTreeSet::new();
        for _ in 0..n {
            let layer = string_id(&r, "cell layer id", r.u32()?)?;
            let stage = stage_from_code(r.u8()?).ok_or_else(|| r.invalid("cell stage"))?;
            let engine = string_id(&r, "cell engine id", r.u32()?)?;
            if !seen_cells.insert((layer, stage_code(stage))) {
                return Err(r.invalid("duplicate cell"));
            }
            cells.push(ProgramCell { layer, stage, engine });
        }
        r.finish()?;

        let mut workspace_hints = Vec::new();
        if let Some(payload) = payloads[TAG_WORKSPACE as usize - 1] {
            let r = Reader::new(Section::Workspace, payload);
            let n = r.count()?;
            let mut seen = BTreeSet::new();
            for _ in 0..n {
                let layer = string_id(&r, "hint layer id", r.u32()?)?;
                let stage = stage_from_code(r.u8()?).ok_or_else(|| r.invalid("hint stage"))?;
                let elements = r.u64()?;
                if !seen.insert((layer, stage_code(stage))) {
                    return Err(r.invalid("duplicate workspace hint"));
                }
                workspace_hints.push(WorkspaceHint {
                    layer,
                    stage,
                    elements,
                });
            }
            r.finish()?;
        }

        let mut prune_points = Vec::new();
        if let Some(payload) = payloads[TAG_PRUNE as usize - 1] {
            let r = Reader::new(Section::Prune, payload);
            let n = r.count()?;
            let mut seen = BTreeSet::new();
            for _ in 0..n {
                let layer = string_id(&r, "prune layer id", r.u32()?)?;
                let grad_nnz = r.u64()?;
                if !seen.insert(layer) {
                    return Err(r.invalid("duplicate prune point"));
                }
                prune_points.push(PrunePoint { layer, grad_nnz });
            }
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
// Writer / Reader helpers (checkpoint-codec style)
// ---------------------------------------------------------------------------

struct Writer {
    section: Section,
    buf: Vec<u8>,
}

impl Writer {
    fn new(section: Section) -> Self {
        Writer {
            section,
            buf: Vec::new(),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn count(&mut self, field: &'static str, n: usize) -> Result<(), EncodeError> {
        let v = u32::try_from(n).map_err(|_| EncodeError::FieldOverflow {
            section: self.section,
            field,
            value: n,
        })?;
        self.u32(v);
        Ok(())
    }

    fn str(&mut self, field: &'static str, s: &str) -> Result<(), EncodeError> {
        self.count(field, s.len())?;
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

struct Reader<'a> {
    section: Section,
    bytes: &'a [u8],
    pos: std::cell::Cell<usize>,
}

impl<'a> Reader<'a> {
    fn new(section: Section, bytes: &'a [u8]) -> Self {
        Reader {
            section,
            bytes,
            pos: std::cell::Cell::new(0),
        }
    }

    fn truncated(&self) -> DecodeError {
        DecodeError::TruncatedSection {
            section: self.section,
        }
    }

    fn invalid(&self, field: &'static str) -> DecodeError {
        DecodeError::InvalidField {
            section: self.section,
            field,
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos.get()
    }

    fn take(&self, n: usize) -> Result<&'a [u8], DecodeError> {
        let start = self.pos.get();
        let end = start.checked_add(n).ok_or_else(|| self.truncated())?;
        if end > self.bytes.len() {
            return Err(self.truncated());
        }
        self.pos.set(end);
        Ok(&self.bytes[start..end])
    }

    fn u8(&self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn count(&self) -> Result<usize, DecodeError> {
        Ok(self.u32()? as usize)
    }

    fn str(&self, field: &'static str) -> Result<String, DecodeError> {
        let n = self.count()?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| self.invalid(field))
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos.get() != self.bytes.len() {
            return Err(DecodeError::InvalidField {
                section: self.section,
                field: "section length",
            });
        }
        Ok(())
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
/// table (cells the program misses fall back to the density heuristic,
/// never to probing), so a replay is **bitwise-identical** to the probing
/// run that emitted the program — planning affects speed, never results.
pub struct PlanVm {
    program: ExecutionProgram,
    ctx: ExecutionContext,
    executed: BTreeSet<(String, Stage)>,
}

impl PlanVm {
    /// Cap on workspace pre-sizing from (untrusted) program hints, in f32
    /// elements. Larger hints are clamped; the workspace still grows
    /// on demand if a call genuinely needs more.
    pub const MAX_PREWARM_ELEMENTS: u64 = 1 << 20;

    /// A VM executing `program`. The workspace is pre-sized from the
    /// program's hints (clamped to [`PlanVm::MAX_PREWARM_ELEMENTS`]).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when the program's plan does not resolve (see
    /// [`Plan::from_program`]).
    pub fn new(program: ExecutionProgram) -> Result<Self, PlanError> {
        let plan = Plan::from_program(&program)?;
        let mut ctx = ExecutionContext::with_plan(plan);
        if let Some(max) = program.max_workspace_elements() {
            ctx.workspace().row(max.min(Self::MAX_PREWARM_ELEMENTS) as usize);
        }
        Ok(PlanVm {
            program,
            ctx,
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
    use crate::engine::KernelEngine;
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

    #[test]
    fn flipped_magic_is_rejected() {
        let mut bytes = sample_program().encode().unwrap();
        bytes[0] ^= 0xFF;
        assert_eq!(ExecutionProgram::decode(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut bytes = sample_program().encode().unwrap();
        bytes[8] = 0x7F;
        assert_eq!(
            ExecutionProgram::decode(&bytes),
            Err(DecodeError::UnsupportedVersion(0x7F))
        );
    }

    #[test]
    fn truncations_are_typed() {
        let bytes = sample_program().encode().unwrap();
        assert_eq!(ExecutionProgram::decode(&[]), Err(DecodeError::TruncatedHeader));
        assert_eq!(
            ExecutionProgram::decode(&bytes[..10]),
            Err(DecodeError::TruncatedHeader)
        );
        // Cut inside the first (strings) section's payload.
        let err = ExecutionProgram::decode(&bytes[..16 + 12 + 2]).unwrap_err();
        assert_eq!(
            err,
            DecodeError::TruncatedSection {
                section: Section::Strings
            }
        );
        // Every prefix must fail without panicking.
        for cut in 0..bytes.len() {
            assert!(ExecutionProgram::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_program().encode().unwrap();
        bytes.extend_from_slice(b"junk");
        assert_eq!(
            ExecutionProgram::decode(&bytes),
            Err(DecodeError::TrailingBytes { extra: 4 })
        );
    }

    #[test]
    fn unknown_and_duplicate_sections_are_rejected() {
        let full = sample_program().encode().unwrap();
        let mut bytes = full.clone();
        bytes[16] = 0xEE;
        bytes[17] = 0xEE;
        assert_eq!(
            ExecutionProgram::decode(&bytes),
            Err(DecodeError::UnknownSection { tag: 0xEEEE })
        );

        // Duplicate the strings section (first section after the header).
        let strings_len = u64::from_le_bytes(full[16 + 4..16 + 12].try_into().unwrap()) as usize + 12;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 2]);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&full[16..16 + strings_len]);
        bytes.extend_from_slice(&full[16..16 + strings_len]);
        assert_eq!(
            ExecutionProgram::decode(&bytes),
            Err(DecodeError::DuplicateSection {
                section: Section::Strings
            })
        );

        // Strings alone is missing the mandatory cells section.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 2]);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&full[16..16 + strings_len]);
        assert_eq!(
            ExecutionProgram::decode(&bytes),
            Err(DecodeError::MissingSection {
                section: Section::Cells
            })
        );
    }

    #[test]
    fn out_of_range_ids_and_stages_are_rejected() {
        // Locate the cells section and corrupt fields inside it.
        let prog = sample_program();
        let bytes = prog.encode().unwrap();
        let strings_len = u64::from_le_bytes(bytes[16 + 4..16 + 12].try_into().unwrap()) as usize;
        let cells_payload = 16 + 12 + strings_len + 12;

        // Default engine id out of range.
        let mut bad = bytes.clone();
        bad[cells_payload..cells_payload + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            ExecutionProgram::decode(&bad),
            Err(DecodeError::InvalidField {
                section: Section::Cells,
                field: "default engine id"
            })
        );

        // First cell's stage byte invalid (offset: default u32 + count u32 + layer u32).
        let mut bad = bytes.clone();
        bad[cells_payload + 12] = 9;
        assert_eq!(
            ExecutionProgram::decode(&bad),
            Err(DecodeError::InvalidField {
                section: Section::Cells,
                field: "cell stage"
            })
        );

        // First cell's layer id out of range.
        let mut bad = bytes.clone();
        bad[cells_payload + 8..cells_payload + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            ExecutionProgram::decode(&bad),
            Err(DecodeError::InvalidField {
                section: Section::Cells,
                field: "cell layer id"
            })
        );
    }

    #[test]
    fn duplicate_cells_are_rejected() {
        let mut prog = ExecutionProgram::new("scalar");
        prog.push_cell("c1", Stage::Forward, "simd");
        prog.push_cell("c1", Stage::Forward, "im2row");
        let bytes = prog.encode().unwrap();
        assert_eq!(
            ExecutionProgram::decode(&bytes),
            Err(DecodeError::InvalidField {
                section: Section::Cells,
                field: "duplicate cell"
            })
        );
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
        let reference =
            crate::engine::ScalarEngine.forward_batch(std::slice::from_ref(&input), &weights, None, geom);
        assert_eq!(outs[0].as_slice(), reference[0].as_slice());

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
