//! Property and corruption tests for the binary `STPLAN` execution-program
//! format: arbitrary plans over every registered engine name round-trip
//! losslessly through `Plan::to_program` → `encode` → `decode` →
//! `Plan::from_program`, encoding is canonical (encode∘decode is the
//! identity on bytes), and corrupted input — truncations, random byte
//! mutations — returns a typed [`DecodeError`], never panics. The framing's
//! own corruption matrix is tested once, in `sparsetrain-container`; the
//! wiring test below pins this format's magic, version and sniffing.

use proptest::prelude::*;
use sparsetrain_sparse::plan_program::{is_binary_plan, DecodeError};
use sparsetrain_sparse::planner::load_plan;
use sparsetrain_sparse::{ExecutionProgram, Plan, Stage};

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

/// A plan plus trace-style metadata (workspace hints, prune points), as
/// `compile_plan` would attach.
fn arb_program() -> impl Strategy<Value = ExecutionProgram> {
    let hint = (arb_layer(), arb_stage(), 0u64..=u64::MAX);
    let prune = (arb_layer(), 0u64..=u64::MAX);
    (
        arb_plan(),
        prop::collection::vec(hint, 0..8),
        prop::collection::vec(prune, 0..6),
    )
        .prop_map(|(plan, hints, prunes)| {
            let mut program = plan.to_program();
            for (layer, stage, elements) in hints {
                program.note_workspace(&layer, stage, elements);
            }
            for (layer, grad_nnz) in prunes {
                program.note_prune_point(&layer, grad_nnz);
            }
            program
        })
}

proptest! {
    #[test]
    fn arbitrary_plans_roundtrip_losslessly(plan in arb_plan()) {
        let program = plan.to_program();
        let bytes = program.encode().expect("frozen plans encode");
        prop_assert!(is_binary_plan(&bytes));
        let decoded = ExecutionProgram::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &program);
        let back = Plan::from_program(&decoded).expect("engine names resolve");
        prop_assert_eq!(back, plan);
    }

    #[test]
    fn encoding_is_canonical(program in arb_program()) {
        let bytes = program.encode().expect("programs encode");
        let decoded = ExecutionProgram::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &program);
        // encode ∘ decode is the identity on bytes: the format has one
        // canonical serialization per program.
        prop_assert_eq!(decoded.encode().expect("re-encodes"), bytes);
    }

    #[test]
    fn every_truncation_is_a_typed_error(program in arb_program(), cut in 0.0f64..1.0) {
        let bytes = program.encode().expect("programs encode");
        let len = (cut * bytes.len() as f64) as usize;
        prop_assume!(len < bytes.len());
        // Every strict prefix fails with a typed error — never panics,
        // never decodes to a wrong program.
        prop_assert!(ExecutionProgram::decode(&bytes[..len]).is_err());
    }

    #[test]
    fn single_byte_mutations_never_panic(
        program in arb_program(),
        pos in 0.0f64..1.0,
        delta in 1u8..=255,
    ) {
        let mut bytes = program.encode().expect("programs encode");
        let i = (pos * bytes.len() as f64) as usize % bytes.len();
        bytes[i] = bytes[i].wrapping_add(delta);
        // A flipped byte either still decodes (it hit a don't-care value
        // like a workspace element count) or returns a typed error; the
        // decoder must never panic or loop.
        let _ = ExecutionProgram::decode(&bytes);
    }
}

#[test]
fn magic_and_version_are_the_stplan_ones() {
    let good = Plan::from_text("default simd\n")
        .unwrap()
        .to_program()
        .encode()
        .unwrap();
    assert_eq!(&good[..10], b"STPLAN\x01\x00\x01\x00");

    let mut bytes = good.clone();
    bytes[0] ^= 0xFF;
    assert!(!is_binary_plan(&bytes));
    assert!(matches!(
        ExecutionProgram::decode(&bytes),
        Err(DecodeError::BadMagic)
    ));

    let mut bytes = good;
    bytes[8] = 0xFF; // version u16 LE lives right after the 8-byte magic
    assert!(is_binary_plan(&bytes), "version bumps must still sniff as binary");
    assert!(matches!(
        ExecutionProgram::decode(&bytes),
        Err(DecodeError::UnsupportedVersion(v)) if v != 1
    ));
}

#[test]
fn load_plan_sniffs_binary_and_text() {
    let dir = std::env::temp_dir().join(format!("sparsetrain-plan-sniff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let source = "default parallel:simd\nconv1 forward im2row\n";
    let plan = Plan::from_text(source).unwrap();

    let bin = dir.join("plan.stplan");
    std::fs::write(&bin, plan.to_program().encode().unwrap()).unwrap();
    assert_eq!(load_plan(bin.to_str().unwrap()).expect("binary plan loads"), plan);

    let text = dir.join("plan.txt");
    std::fs::write(&text, source).unwrap();
    assert_eq!(load_plan(text.to_str().unwrap()).expect("text plan loads"), plan);

    let junk = dir.join("plan.junk");
    std::fs::write(&junk, b"STPLAN\x01\x00 but then nonsense").unwrap();
    let err = load_plan(junk.to_str().unwrap()).expect_err("corrupt binary rejected");
    assert!(err.to_string().contains("plan.junk"), "{err}");

    std::fs::remove_dir_all(&dir).unwrap();
}
