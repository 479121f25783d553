//! Legacy execution plans: read, checked float-only, and ignored.
//!
//! A plan maps `(layer, stage)` cells to engines, with a default engine
//! for the cells it does not name. Every float engine name resolves to the
//! `scalar` or the `simd` engine, and the two are bitwise equal, so a plan
//! has nothing left to choose and nothing writes one. Two inputs still
//! carry plans written before:
//!
//! * the `plan` / `plan-program` section of a `.stck` snapshot an `auto`
//!   trainer resumes;
//! * the file [`PLAN_ENV`] (`SPARSETRAIN_PLAN`) names, on an `auto`
//!   context ([`check_env_plan`]).
//!
//! Both are read by the decoders here: the line-oriented text form
//! ([`Plan::from_text`]) and the binary `STPLAN` program ([`Plan::decode`]);
//! [`load_plan`] sniffs a file's magic to pick one. Then
//! [`Plan::check_float`] decides. A plan whose default and every cell
//! dispatch to the `scalar` or `simd` engine is ignored, which is bitwise
//! identical to running it. Any other engine (`fixed`, `fixed:qI.F`, a
//! registered backend) is a typed [`PlanError::NotFloat`] naming the cell.
//!
//! # The `STPLAN` decoder
//!
//! [`Plan::decode`] reads a header (magic `STPLAN`, version) and two
//! mandatory sections over the `.stck` container framing
//! (`sparsetrain-container`): a string table interning the layer and
//! engine names, and the cell table (default engine id, then one
//! `(layer id, stage, engine id)` row per named cell). Two further
//! sections, `workspace` (tag 3) and `prune` (tag 4), are reserved:
//! version-1 writers once put advisory sizing hints in them. The decoder
//! checks their fields and then drops them. Corruption returns a typed
//! [`DecodeError`] naming the section and field; an engine name the
//! registry cannot resolve or a layer id no plan can hold returns a typed
//! [`PlanError`]. Nothing panics.

use crate::engine::Stage;
use crate::registry::{lookup, lookup_or_parse, same_engine, EngineHandle, UnknownEngine};
use sparsetrain_container::{Reader, SectionId, Sections};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Environment variable naming a legacy plan file, text or `STPLAN`
/// ([`load_plan`] sniffs the magic). An `auto` context reads it, checks it
/// float-only and ignores it ([`check_env_plan`]).
pub const PLAN_ENV: &str = "SPARSETRAIN_PLAN";

/// File magic: "STPLAN" + format epoch byte + NUL.
const MAGIC: [u8; 8] = *b"STPLAN\x01\x00";
/// The execution-program format version the decoder reads.
const VERSION: u16 = 1;

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
    /// Reserved: per-cell `(layer id, stage, u64)` rows. Checked and
    /// dropped by [`Plan::decode`].
    Workspace,
    /// Reserved: per-layer `(layer id, u64)` rows. Checked and dropped by
    /// [`Plan::decode`].
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

/// Errors raised while decoding a program. Every variant names the region
/// at fault; corrupt inputs must never panic.
pub type DecodeError = sparsetrain_container::DecodeError<Section>;

/// On-wire stage codes: `0`/`1`/`2` in [`Stage::ALL`] order.
fn stage_from_code(code: u8) -> Option<Stage> {
    Stage::ALL.get(usize::from(code)).copied()
}

/// Error from reading a plan ([`Plan::decode`], [`Plan::from_text`],
/// [`load_plan`]) or from its float-only check ([`Plan::check_float`],
/// [`check_env_plan`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The bytes are not a well-formed `STPLAN` document.
    Decode(DecodeError),
    /// A named engine does not resolve through the registry.
    Engine(UnknownEngine),
    /// A layer id no plan can key a cell by: empty, or containing
    /// whitespace or `#`.
    LayerId(String),
    /// A cell, or the default, names an engine that is neither `scalar`
    /// nor `simd` under any of their names. Ignoring such a plan would
    /// change results, so it is refused.
    NotFloat {
        /// The cell, `"layer stage"`, or `"default"` for the default engine.
        cell: String,
        /// The engine the cell names.
        engine: &'static str,
    },
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
            PlanError::NotFloat { cell, engine } => format!(
                "cell {cell} names engine {engine:?}; a plan is read only to be ignored, so every \
                 cell must name scalar, simd or one of their aliases"
            ),
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

/// A legacy execution plan, as decoded: `(layer id, stage) → engine`,
/// with a default engine for cells the plan does not name.
///
/// ```
/// use sparsetrain_sparse::{Plan, PlanError, Stage};
///
/// let plan = Plan::from_text("default scalar\nconv1 forward im2row\n").unwrap();
/// let cells: Vec<_> = plan.cells().map(|(l, s, e)| (l, s, e.name())).collect();
/// assert_eq!(cells, [("conv1", Stage::Forward, "im2row")]);
/// assert_eq!(plan.check_float(), Ok(()));
///
/// let fixed = Plan::from_text("conv1 forward fixed\n").unwrap();
/// assert!(matches!(fixed.check_float(), Err(PlanError::NotFloat { .. })));
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
    fn new(default: EngineHandle) -> Self {
        Self {
            default,
            cells: BTreeMap::new(),
        }
    }

    /// Names `engine` for `layer`'s `stage`, refusing layer ids the text
    /// format cannot express (whitespace-delimited fields, `#` comments).
    fn try_set(&mut self, layer: &str, stage: Stage, engine: EngineHandle) -> Result<(), PlanError> {
        if layer.is_empty() || layer.chars().any(char::is_whitespace) || layer.contains('#') {
            return Err(PlanError::LayerId(layer.to_string()));
        }
        self.cells.entry(layer.to_string()).or_default()[stage as usize] = Some(engine);
        Ok(())
    }

    /// The engine unnamed cells resolve to.
    pub fn default_engine(&self) -> EngineHandle {
        self.default
    }

    /// Iterates the named cells in `(layer, stage)` order.
    pub fn cells(&self) -> impl Iterator<Item = (&str, Stage, EngineHandle)> {
        self.cells.iter().flat_map(|(layer, stages)| {
            Stage::ALL
                .into_iter()
                .filter_map(move |stage| Some((layer.as_str(), stage, stages[stage as usize]?)))
        })
    }

    /// The float-only check: `Ok` when the default engine and every named
    /// cell dispatch to the `scalar` or `simd` engine, under any of their
    /// names. Engines are compared by identity, as quarantine compares
    /// them, not by name. Such a plan is ignored, which is bitwise
    /// identical to running it.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::NotFloat`] for the default, or else the first
    /// cell in [`Plan::cells`] order, that names any other engine.
    pub fn check_float(&self) -> Result<(), PlanError> {
        let is_float = |engine: EngineHandle| {
            ["scalar", "simd"]
                .into_iter()
                .any(|name| lookup(name).is_some_and(|float| same_engine(float, engine)))
        };
        let not_float = |cell: String, engine: EngineHandle| PlanError::NotFloat {
            cell,
            engine: engine.name(),
        };
        if !is_float(self.default) {
            return Err(not_float("default".to_string(), self.default));
        }
        match self.cells().find(|&(_, _, engine)| !is_float(engine)) {
            Some((layer, stage, engine)) => Err(not_float(format!("{layer} {stage}"), engine)),
            None => Ok(()),
        }
    }

    /// Parses the text format: one `layer stage engine` triple per line
    /// (stage ∈ `forward` / `input_grad` / `weight_grad`), an optional
    /// `default <engine>` line (`scalar` when absent), blank lines and `#`
    /// comments ignored. Engine names resolve through the open registry.
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
        let stage_named = |name: &str| Stage::ALL.into_iter().find(|s| s.name() == name);
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
                    let stage = stage_named(stage).ok_or_else(|| {
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

    /// Parses a plan from the versioned `STPLAN` container. The whole file
    /// is validated — the reserved sections included — before any name is
    /// resolved.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Decode`] on any malformation — bad magic or
    /// version, truncated/duplicate/unknown/missing sections, trailing
    /// bytes, out-of-range string ids, invalid stage codes, duplicate
    /// cells or reserved rows, or duplicate string-table entries;
    /// [`PlanError::Engine`] when an engine name does not resolve through
    /// the registry; [`PlanError::LayerId`] when a layer name is unusable
    /// as a plan key.
    pub fn decode(bytes: &[u8]) -> Result<Plan, PlanError> {
        let sections = Sections::parse(bytes)?;

        // Strings first, so the id-bearing sections can validate against the table.
        let mut r = sections.required(Section::Strings)?;
        let strings = r.seq(4, |r| r.str("string bytes"))?;
        if (1..strings.len()).any(|i| strings[..i].contains(&strings[i])) {
            return Err(r.invalid("duplicate string").into());
        }
        r.finish()?;
        let string_id = |r: &mut Reader<'_, Section>, field| {
            let id = r.u32()? as usize;
            if id < strings.len() {
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
            if !seen.insert((layer, stage)) {
                return Err(r.invalid("duplicate cell"));
            }
            Ok((layer, stage, engine))
        })?;
        r.finish()?;

        if let Some(mut r) = sections.optional(Section::Workspace) {
            let mut seen = BTreeSet::new();
            r.seq(13, |r| {
                let layer = string_id(r, "hint layer id")?;
                let stage = stage(r, "hint stage")?;
                r.u64()?;
                if !seen.insert((layer, stage)) {
                    return Err(r.invalid("duplicate workspace hint"));
                }
                Ok(())
            })?;
            r.finish()?;
        }

        if let Some(mut r) = sections.optional(Section::Prune) {
            let mut seen = BTreeSet::new();
            r.seq(12, |r| {
                let layer = string_id(r, "prune layer id")?;
                r.u64()?;
                if !seen.insert(layer) {
                    return Err(r.invalid("duplicate prune point"));
                }
                Ok(())
            })?;
            r.finish()?;
        }

        let resolve = |id: usize| lookup_or_parse(&strings[id]);
        let mut plan = Plan::new(resolve(default_engine)?);
        for (layer, stage, engine) in cells {
            plan.try_set(&strings[layer], stage, resolve(engine)?)?;
        }
        Ok(plan)
    }
}

/// Loads and parses a plan file — an `STPLAN` binary program or the text
/// format, told apart by the binary magic ([`is_binary_plan`]).
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
    let bytes = std::fs::read(path).map_err(|e| unreadable(format!("cannot read the file: {e}")))?;
    let parsed = if is_binary_plan(&bytes) {
        Plan::decode(&bytes)
    } else {
        let text = String::from_utf8(bytes)
            .map_err(|_| unreadable("not UTF-8 text (and not an STPLAN binary program)".into()))?;
        Plan::from_text(&text)
    };
    parsed.map_err(|e| e.in_file(path))
}

/// Reads the file [`PLAN_ENV`] names, if the variable is set and
/// non-empty, and runs the float-only check on it ([`Plan::check_float`]).
///
/// # Errors
///
/// Returns [`PlanError::Io`] when the file cannot be read or parsed, or
/// names an engine other than `scalar` / `simd`.
pub fn check_env_plan() -> Result<(), PlanError> {
    match std::env::var(PLAN_ENV) {
        Ok(path) if !path.is_empty() => load_plan(&path)?.check_float().map_err(|e| e.in_file(&path)),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetrain_container::Writer;

    fn handle(name: &str) -> EngineHandle {
        lookup(name).expect(name)
    }

    /// The plan of the golden `STPLAN` file below.
    fn sample_plan() -> Plan {
        Plan::from_text(
            "default simd\nconv1 forward parallel:im2row\nconv1 weight_grad scalar\nconv2 input_grad parallel\n",
        )
        .unwrap()
    }

    #[test]
    fn try_set_reports_unserializable_layer_ids() {
        let mut plan = Plan::new(handle("scalar"));
        for hostile in ["conv #1", "my conv", "", "tab\tid", "line\nid"] {
            let err = plan.try_set(hostile, Stage::Forward, handle("simd")).unwrap_err();
            assert!(err.to_string().contains("non-empty"), "{hostile:?}: {err}");
            assert_eq!(plan.cells().count(), 0, "{hostile:?} must not be inserted");
        }
        plan.try_set("conv1", Stage::Forward, handle("simd")).unwrap();
        assert_eq!(Plan::from_text("conv1 forward simd").unwrap(), plan);
    }

    #[test]
    fn plan_text_parses() {
        let mut plan = Plan::new(handle("simd"));
        plan.try_set("conv1", Stage::Forward, handle("parallel:im2row"))
            .unwrap();
        plan.try_set("conv2", Stage::InputGrad, handle("scalar")).unwrap();
        plan.try_set("conv2", Stage::WeightGrad, handle("fixed:q4.12"))
            .unwrap();
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
        let last = parsed.cells().last().map(|(l, s, e)| (l, s, e.name()));
        assert_eq!(last, Some(("conv3", Stage::Forward, "im2row")));
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

    /// Every name of `scalar` and `simd` passes; any other engine fails,
    /// and the error names the first such cell.
    #[test]
    fn float_check_accepts_scalar_and_simd_under_every_name() {
        let aliases = [
            "scalar",
            "parallel",
            "simd",
            "parallel:simd",
            "im2row",
            "parallel:im2row",
            "auto",
        ];
        for name in aliases {
            let plan = Plan::from_text(&format!("default {name}\nconv1 weight_grad {name}\n")).unwrap();
            assert_eq!(plan.check_float(), Ok(()), "{name}");
            // A decoded cell keeps the name it was written under.
            assert_eq!(plan.cells().next().map(|(_, _, e)| e.name()), Some(name));
        }
        // A backend registered under its own name fails even when it computes the same bits.
        static OTHER: crate::simd_engine::SimdEngine = crate::simd_engine::SimdEngine::portable();
        crate::registry::register("float-check-portable", "simd's portable build", &OTHER)
            .expect("fresh name");
        let cases = [
            ("default fixed\n", "default", "fixed"),
            (
                "conv1 forward simd\nconv2 input_grad fixed:q4.12\n",
                "conv2 input_grad",
                "fixed:q4.12",
            ),
            (
                "conv1 forward fixed\nconv1 weight_grad fixed:q8.8\n",
                "conv1 forward",
                "fixed",
            ),
        ];
        for (text, cell, engine) in cases {
            let err = Plan::from_text(text).unwrap().check_float().unwrap_err();
            assert_eq!(
                err,
                PlanError::NotFloat {
                    cell: cell.to_string(),
                    engine
                }
            );
            assert!(err.to_string().contains(cell), "{err}");
        }
        let custom = Plan::from_text("conv1 forward float-check-portable\n").unwrap();
        assert!(matches!(
            custom.check_float(),
            Err(PlanError::NotFloat {
                engine: "float-check-portable",
                ..
            })
        ));
    }

    #[test]
    fn plan_file_loads_through_env_path_machinery() {
        let path = std::env::temp_dir().join(format!("sparsetrain-plan-{}.txt", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path").to_string();
        std::fs::write(&path, "default simd\nconv1 forward im2row\n").unwrap();
        let plan = load_plan(&path).unwrap();
        assert_eq!(plan.default_engine().name(), "simd");
        assert_eq!(
            plan.cells().map(|(_, _, e)| e.name()).collect::<Vec<_>>(),
            ["im2row"]
        );
        std::fs::remove_file(&path).ok();
        let err = load_plan(&path).unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
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
        assert_eq!(Plan::decode(&minimal).unwrap(), Plan::new(handle("simd")));

        // `full` carries the two reserved sections (its last two lines): it decodes to the
        // plan of its first two, and so does the file of those two alone — the same header
        // with a section count of 2, then the `strings` and `cells` lines byte for byte.
        assert_eq!(Plan::decode(&full).unwrap(), sample_plan());
        let mut cells_only = full[..16 + (12 + 0x47) + (12 + 0x23)].to_vec();
        cells_only[12] = 2;
        assert_eq!(Plan::decode(&cells_only).unwrap(), sample_plan());
    }

    #[test]
    fn magic_sniff_distinguishes_binary_from_text() {
        assert!(is_binary_plan(&MAGIC));
        assert!(!is_binary_plan(b"# sparsetrain execution plan v1\n"));
        assert!(!is_binary_plan(b"STPL"));
        // A future format epoch still sniffs as binary.
        let mut epoch2 = MAGIC;
        epoch2[6] = 0x02;
        assert!(is_binary_plan(&epoch2));
    }

    // Sections of hand-built files over the string table ["s", "c"] with no cells; the
    // framing itself is tested once, in `sparsetrain-container`.
    const HEADER: &str = "5354504c414e0100 0100 0000";
    const STRINGS: &str = "010000000e00000000000000 02000000 0100000073 0100000063";
    const NO_CELLS: &str = "020000000800000000000000 00000000 00000000";

    #[test]
    fn mandatory_sections_are_required() {
        for (only, missing) in [(STRINGS, Section::Cells), (NO_CELLS, Section::Strings)] {
            let err = Plan::decode(&unhex(&format!("{HEADER} 01000000 {only}"))).unwrap_err();
            assert_eq!(
                err,
                PlanError::Decode(DecodeError::MissingSection { section: missing })
            );
        }
        // With both present the container is well-formed; decoding gets as far as resolving
        // the default engine, string 0.
        let both = unhex(&format!("{HEADER} 02000000 {STRINGS} {NO_CELLS}"));
        assert!(matches!(Plan::decode(&both), Err(PlanError::Engine(e)) if e.name() == "s"));
    }

    #[test]
    fn invalid_payload_fields_are_typed() {
        use Section::*;
        // Each case is one section payload for the two-string file: ids must be < 2, stages < 3.
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
                Plan::decode(&file),
                Err(PlanError::Decode(DecodeError::InvalidField { section, field }))
            );
        }
    }

    #[test]
    fn decode_rejects_unknown_engines_and_hostile_layers() {
        // Well-formed containers whose names no plan can hold: string 0 is the default engine,
        // the one cell (when present) is (string 1, forward, string 2).
        let file = |names: [&str; 3], with_cell: bool| {
            let mut w = Writer::new();
            w.begin(Section::Strings);
            w.count("string entries", names.len()).unwrap();
            names.iter().for_each(|s| w.str("string bytes", s).unwrap());
            w.begin(Section::Cells);
            w.u32(0);
            w.u32(u32::from(with_cell));
            if with_cell {
                w.u32(1);
                w.u8(0);
                w.u32(2);
            }
            w.finish()
        };
        let err = Plan::decode(&file(["warp-drive", "conv1", "simd"], false)).unwrap_err();
        assert!(
            matches!(&err, PlanError::Engine(e) if e.name() == "warp-drive"),
            "{err}"
        );
        assert!(err.to_string().contains("warp-drive"), "{err}");

        let err = Plan::decode(&file(["scalar", "conv1", "warp-drive"], true)).unwrap_err();
        assert!(
            matches!(&err, PlanError::Engine(e) if e.name() == "warp-drive"),
            "{err}"
        );

        let err = Plan::decode(&file(["scalar", "conv #1", "simd"], true)).unwrap_err();
        assert_eq!(err, PlanError::LayerId("conv #1".into()));
        assert!(err.to_string().contains("conv #1"), "{err}");
    }
}
