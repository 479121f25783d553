//! Property and corruption tests for the binary `STPLAN` execution-program
//! format: arbitrary plans over every registered engine name round-trip
//! losslessly through `Plan::encode` → `Plan::decode`, encoding is
//! canonical (encode∘decode is the identity on bytes), the reserved
//! `workspace` / `prune` sections are validated and ignored, and corrupted
//! input — truncations, random byte mutations — returns a typed
//! [`PlanError`], never panics. The framing's own corruption matrix is
//! tested once, in `sparsetrain-container`; the wiring test below pins this
//! format's magic, version and sniffing.

use proptest::prelude::*;
use sparsetrain_container::Writer;
use sparsetrain_sparse::plan_program::{is_binary_plan, DecodeError, Section};
use sparsetrain_sparse::planner::load_plan;
use sparsetrain_sparse::{Plan, PlanError, Stage};
use std::collections::BTreeMap;

/// Every engine name the plan grammar can pin a cell to: the six float
/// autotuning candidates plus a parsed fixed-point format.
const ENGINE_NAMES: [&str; 7] = [
    "scalar",
    "parallel",
    "simd",
    "parallel:simd",
    "im2row",
    "parallel:im2row",
    "fixed:q8.8",
];

fn arb_engine() -> impl Strategy<Value = &'static str> {
    (0usize..ENGINE_NAMES.len()).prop_map(|i| ENGINE_NAMES[i])
}

/// Serializable layer ids: non-empty, whitespace-free, `#`-free.
fn arb_layer() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..39, 1..12).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| match c {
                0..=25 => (b'a' + c) as char,
                26..=35 => (b'0' + (c - 26)) as char,
                36 => '_',
                37 => '.',
                _ => '-',
            })
            .collect()
    })
}

fn arb_stage() -> impl Strategy<Value = Stage> {
    (0usize..3).prop_map(|i| Stage::ALL[i])
}

/// An arbitrary frozen plan, built through the text grammar so cell keys
/// deduplicate exactly like a probed plan's `BTreeMap` does.
fn arb_plan() -> impl Strategy<Value = Plan> {
    let cell = (arb_layer(), arb_stage(), arb_engine());
    (arb_engine(), prop::collection::vec(cell, 0..10)).prop_map(|(default, cells)| {
        let mut text = format!("default {default}\n");
        for (layer, stage, engine) in cells {
            text.push_str(&format!("{layer} {} {engine}\n", stage.name()));
        }
        Plan::from_text(&text).expect("generated plan text is valid")
    })
}

/// A plan plus the file a version-1 writer that filled the reserved
/// sections would have produced for it: the plan's own `strings` and
/// `cells` (`Plan::encode`'s layout, written out independently here),
/// then `workspace` and `prune` rows keyed by arbitrary ids of the string
/// table (the decoder checks their range, not what they name), one row
/// per key.
fn arb_file_with_reserved_sections() -> impl Strategy<Value = (Plan, Vec<u8>)> {
    let hint = ((0u32..64, arb_stage()), 0u64..=u64::MAX);
    let prune = (0u32..64, 0u64..=u64::MAX);
    (
        arb_plan(),
        prop::collection::vec(hint, 0..8),
        prop::collection::vec(prune, 0..6),
    )
        .prop_map(|(plan, hints, prunes)| {
            let mut strings: Vec<&str> = Vec::new();
            let mut intern = |s| {
                let known = strings.iter().position(|have| *have == s);
                known.unwrap_or_else(|| {
                    strings.push(s);
                    strings.len() - 1
                }) as u32
            };
            let default = intern(plan.default_engine().name());
            let cells: Vec<(u32, Stage, u32)> = plan
                .cells()
                .map(|(layer, stage, engine)| (intern(layer), stage, intern(engine.name())))
                .collect();
            let ids = strings.len() as u32;
            let hints: BTreeMap<(u32, Stage), u64> = hints
                .into_iter()
                .map(|((pick, stage), elements)| ((pick % ids, stage), elements))
                .collect();
            let prunes: BTreeMap<u32, u64> = prunes
                .into_iter()
                .map(|(pick, grad_nnz)| (pick % ids, grad_nnz))
                .collect();

            let mut w = Writer::new();
            w.begin(Section::Strings);
            w.count("string entries", strings.len()).unwrap();
            strings.iter().for_each(|s| w.str("string bytes", s).unwrap());
            w.begin(Section::Cells);
            w.u32(default);
            w.count("cell entries", cells.len()).unwrap();
            for (layer, stage, engine) in cells {
                w.u32(layer);
                w.u8(stage as u8);
                w.u32(engine);
            }
            if !hints.is_empty() {
                w.begin(Section::Workspace);
                w.count("workspace hints", hints.len()).unwrap();
                for ((layer, stage), elements) in hints {
                    w.u32(layer);
                    w.u8(stage as u8);
                    w.u64(elements);
                }
            }
            if !prunes.is_empty() {
                w.begin(Section::Prune);
                w.count("prune points", prunes.len()).unwrap();
                for (layer, grad_nnz) in prunes {
                    w.u32(layer);
                    w.u64(grad_nnz);
                }
            }
            let file = w.finish();
            (plan, file)
        })
}

proptest! {
    #[test]
    fn arbitrary_plans_roundtrip_losslessly(plan in arb_plan()) {
        let bytes = plan.encode().expect("frozen plans encode");
        prop_assert!(is_binary_plan(&bytes));
        let back = Plan::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&back, &plan);
        // encode ∘ decode is the identity on bytes: the format has one
        // canonical serialization per plan.
        prop_assert_eq!(back.encode().expect("re-encodes"), bytes);
    }

    #[test]
    fn reserved_sections_are_validated_and_ignored((plan, file) in arb_file_with_reserved_sections()) {
        // The file decodes to the plan of its first two sections, and the
        // plan re-encodes to exactly those two sections: the same file
        // without the reserved ones.
        let decoded = Plan::decode(&file).expect("reserved sections are tolerated");
        prop_assert_eq!(&decoded, &plan);
        let without = decoded.encode().expect("re-encodes");
        prop_assert_eq!(&without[16..], &file[16..without.len()]);
        prop_assert_eq!(Plan::decode(&without).expect("decodes"), plan);
    }

    #[test]
    fn every_truncation_is_a_typed_error((_, bytes) in arb_file_with_reserved_sections(), cut in 0.0f64..1.0) {
        let len = (cut * bytes.len() as f64) as usize;
        prop_assume!(len < bytes.len());
        // Every strict prefix fails with a typed error — never panics,
        // never decodes to a wrong plan.
        prop_assert!(matches!(Plan::decode(&bytes[..len]), Err(PlanError::Decode(_))));
    }

    #[test]
    fn single_byte_mutations_never_panic(
        (_, mut bytes) in arb_file_with_reserved_sections(),
        pos in 0.0f64..1.0,
        delta in 1u8..=255,
    ) {
        let i = (pos * bytes.len() as f64) as usize % bytes.len();
        bytes[i] = bytes[i].wrapping_add(delta);
        // A flipped byte either still decodes (it hit a don't-care value
        // like a reserved element count) or returns a typed error; the
        // decoder must never panic or loop.
        let _ = Plan::decode(&bytes);
    }
}

#[test]
fn magic_and_version_are_the_stplan_ones() {
    let good = Plan::from_text("default simd\n").unwrap().encode().unwrap();
    assert_eq!(&good[..10], b"STPLAN\x01\x00\x01\x00");

    let mut bytes = good.clone();
    bytes[0] ^= 0xFF;
    assert!(!is_binary_plan(&bytes));
    assert_eq!(
        Plan::decode(&bytes),
        Err(PlanError::Decode(DecodeError::BadMagic))
    );

    let mut bytes = good;
    bytes[8] = 0xFF; // version u16 LE lives right after the 8-byte magic
    assert!(is_binary_plan(&bytes), "version bumps must still sniff as binary");
    assert!(matches!(
        Plan::decode(&bytes),
        Err(PlanError::Decode(DecodeError::UnsupportedVersion(v))) if v != 1
    ));
}

#[test]
fn load_plan_sniffs_binary_and_text() {
    let dir = std::env::temp_dir().join(format!("sparsetrain-plan-sniff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let source = "default parallel:simd\nconv1 forward im2row\n";
    let plan = Plan::from_text(source).unwrap();

    let bin = dir.join("plan.stplan");
    std::fs::write(&bin, plan.encode().unwrap()).unwrap();
    assert_eq!(load_plan(bin.to_str().unwrap()).expect("binary plan loads"), plan);

    let text = dir.join("plan.txt");
    std::fs::write(&text, source).unwrap();
    assert_eq!(load_plan(text.to_str().unwrap()).expect("text plan loads"), plan);

    let junk = dir.join("plan.junk");
    std::fs::write(&junk, b"STPLAN\x01\x00 but then nonsense").unwrap();
    let err = load_plan(junk.to_str().unwrap()).expect_err("corrupt binary rejected");
    assert!(err.to_string().contains("plan.junk"), "{err}");
    assert!(
        matches!(&err, PlanError::Io { cause: Some(cause), .. } if matches!(**cause, PlanError::Decode(_))),
        "{err:?}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
