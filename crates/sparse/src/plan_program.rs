//! The `STPLAN` codec: a [`Plan`]'s compact, versioned binary form.
//!
//! This is the form a plan takes to a fresh process (`SPARSETRAIN_PLAN`),
//! to the sharded workers, and into the checkpoint file. There is one plan
//! type and it encodes itself:
//!
//! * [`Plan::encode`] writes a header (magic `STPLAN`, version) and two
//!   sections: a string table interning the layer and engine names, and
//!   the cell table (default engine id, then one `(layer id, stage,
//!   engine id)` row per named cell in [`Plan::cells`] order). The
//!   encoding is canonical — one byte string per plan.
//! * [`Plan::decode`] is the inverse, over the same length-prefixed
//!   section framing as the checkpoint `.stck` container
//!   (`sparsetrain-container`): corruption returns a typed
//!   [`DecodeError`] naming the offending section and field, an engine
//!   name the registry cannot resolve or a layer id no plan can hold a
//!   typed [`PlanError`] — never a panic.
//! * Two further sections, `workspace` (tag 3) and `prune` (tag 4), are
//!   **reserved**: version-1 writers once attached advisory sizing hints
//!   in them, which nothing read. Writers no longer emit them; `decode`
//!   still validates their fields and then ignores them, so old files
//!   keep loading.
//!
//! `SPARSETRAIN_PLAN` accepts both formats: [`crate::planner::load_plan`]
//! sniffs the magic and routes binary files here.

use crate::planner::{Plan, PlanError, Stage};
use crate::registry::lookup_or_parse;
use sparsetrain_container::{Reader, SectionId, Sections, Writer};
use std::collections::BTreeSet;

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
    /// Reserved: per-cell `(layer id, stage, u64)` rows. Validated and
    /// ignored by [`Plan::decode`], never written.
    Workspace,
    /// Reserved: per-layer `(layer id, u64)` rows. Validated and ignored
    /// by [`Plan::decode`], never written.
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

impl Plan {
    /// Serializes the plan into the versioned `STPLAN` container: the
    /// string table, then the default engine and every named cell in
    /// [`Plan::cells`] order. Names are interned in first-use order
    /// (default engine, then each cell's layer and engine), so equal plans
    /// encode to equal bytes.
    ///
    /// ```
    /// use sparsetrain_sparse::planner::{Plan, Stage};
    /// use sparsetrain_sparse::registry;
    ///
    /// let mut plan = Plan::new(registry::lookup("scalar").unwrap());
    /// plan.set("conv1", Stage::Forward, registry::lookup("im2row").unwrap());
    /// let bytes = plan.encode().unwrap();
    /// assert_eq!(Plan::decode(&bytes).unwrap(), plan);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] when a count exceeds its wire width.
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        let mut strings: Vec<&str> = Vec::new();
        let mut intern = |s| {
            let known = strings.iter().position(|have| *have == s);
            known.unwrap_or_else(|| {
                strings.push(s);
                strings.len() - 1
            }) as u32
        };
        let default_engine = intern(self.default_engine().name());
        let cells: Vec<(u32, Stage, u32)> = self
            .cells()
            .map(|(layer, stage, engine)| (intern(layer), stage, intern(engine.name())))
            .collect();

        let mut w = Writer::new();

        w.begin(Section::Strings);
        w.count("string entries", strings.len())?;
        for s in &strings {
            w.str("string bytes", s)?;
        }

        w.begin(Section::Cells);
        w.u32(default_engine);
        w.count("cell entries", cells.len())?;
        for (layer, stage, engine) in cells {
            w.u32(layer);
            w.u8(stage_code(stage));
            w.u32(engine);
        }

        Ok(w.finish())
    }

    /// Parses a plan from the versioned `STPLAN` container: the inverse of
    /// [`Plan::encode`]. The whole file is validated — the reserved
    /// sections included — before any name is resolved.
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

    #[test]
    fn plan_roundtrips_losslessly() {
        let plan = sample_plan();
        let bytes = plan.encode().unwrap();
        let back = Plan::decode(&bytes).unwrap();
        assert_eq!(back, plan);
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
        let default_simd = Plan::new(handle("simd"));
        assert_eq!(default_simd.encode().unwrap(), minimal);
        assert_eq!(Plan::decode(&minimal).unwrap(), default_simd);

        // `full` carries the two reserved sections (its last two lines): it decodes to the
        // plan of its first two, which is what the writer emits — the same header with a
        // section count of 2, then the `strings` and `cells` lines byte for byte.
        assert_eq!(Plan::decode(&full).unwrap(), sample_plan());
        let mut cells_only = full[..16 + (12 + 0x47) + (12 + 0x23)].to_vec();
        cells_only[12] = 2;
        assert_eq!(sample_plan().encode().unwrap(), cells_only);
        assert_eq!(Plan::decode(&cells_only).unwrap(), sample_plan());
    }

    #[test]
    fn magic_sniff_distinguishes_binary_from_text() {
        let bytes = sample_plan().encode().unwrap();
        assert!(is_binary_plan(&bytes));
        assert!(!is_binary_plan(b"# sparsetrain execution plan v1\n"));
        assert!(!is_binary_plan(b"STPL"));
        // A future format epoch still sniffs as binary.
        let mut epoch2 = bytes.clone();
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
