//! Property and corruption tests for the binary `.stck` snapshot format:
//! arbitrary snapshots round-trip losslessly through `encode` → `decode`,
//! encoding is canonical (encode∘decode is the identity on bytes), and
//! corrupted input — random truncation, random byte mutation — returns a
//! typed [`DecodeError`], never panics. The framing's own corruption
//! matrix is the codec's unit test `framing_corruption_is_typed`; the
//! wiring test at the bottom pins this format's magic and version.

use proptest::prelude::*;
use sparsetrain_checkpoint::{DecodeError, LayerState, OptimizerState, PlanPayload, RunPosition, Snapshot};
use sparsetrain_core::prune::{PruneConfig, PruneOutcome, PruneStats, PrunerSnapshot};

/// Exact-in-f32 finite values (small dyadic rationals), so the derived
/// `PartialEq` round-trip comparison never meets NaN.
fn arb_f32() -> impl Strategy<Value = f32> {
    (-(1i32 << 20)..(1i32 << 20)).prop_map(|i| i as f32 / 64.0)
}

fn arb_f64() -> impl Strategy<Value = f64> {
    (-(1i64 << 40)..(1i64 << 40)).prop_map(|i| i as f64 / 4096.0)
}

fn arb_opt_f64() -> impl Strategy<Value = Option<f64>> {
    (any::<bool>(), arb_f64()).prop_map(|(some, v)| some.then_some(v))
}

/// Layer names: non-empty printable ASCII identifiers.
fn arb_layer() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..38, 1..10).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| match c {
                0..=25 => (b'a' + c) as char,
                26..=35 => (b'0' + (c - 26)) as char,
                36 => '_',
                _ => '.',
            })
            .collect()
    })
}

fn arb_rng_state() -> impl Strategy<Value = [u64; 4]> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c, d)| [a, b, c, d])
}

fn arb_pruner() -> impl Strategy<Value = PrunerSnapshot> {
    (
        (0.0f64..=1.0).prop_map(|s| (s * 256.0).round() / 256.0),
        1usize..64,
        prop::collection::vec(arb_f64(), 0..6),
        any::<usize>(),
        (any::<bool>(), any::<usize>(), any::<usize>(), any::<usize>()).prop_map(
            |(some, kept, snapped, zeroed)| {
                some.then_some(PruneOutcome {
                    kept,
                    snapped,
                    zeroed,
                })
            },
        ),
        arb_opt_f64(),
        arb_f64(),
        any::<usize>(),
        arb_opt_f64(),
        arb_opt_f64(),
    )
        .prop_map(
            |(
                target_sparsity,
                fifo_depth,
                fifo,
                batches,
                last_outcome,
                last_density,
                density_sum,
                density_count,
                last_predicted_tau,
                last_determined_tau,
            )| PrunerSnapshot {
                config: PruneConfig {
                    target_sparsity,
                    fifo_depth,
                },
                fifo,
                stats: PruneStats {
                    batches,
                    last_outcome,
                    last_density,
                    density_sum,
                    density_count,
                    last_predicted_tau,
                    last_determined_tau,
                },
            },
        )
}

fn arb_layer_state() -> impl Strategy<Value = LayerState> {
    prop_oneof![
        (
            arb_layer(),
            prop::collection::vec(prop::collection::vec(arb_f32(), 0..12), 0..4),
        )
            .prop_map(|(layer, tensors)| LayerState::Params { layer, tensors }),
        (arb_layer(), arb_rng_state()).prop_map(|(layer, state)| LayerState::Rng { layer, state }),
        (arb_layer(), arb_f64(), any::<u64>()).prop_map(|(layer, sum, count)| LayerState::Density {
            layer,
            sum,
            count
        }),
        (arb_layer(), arb_pruner()).prop_map(|(layer, state)| LayerState::Pruner {
            layer,
            state: Box::new(state)
        }),
    ]
}

fn arb_plan_payload() -> impl Strategy<Value = Option<PlanPayload>> {
    prop_oneof![
        Just(None),
        arb_layer().prop_map(|t| Some(PlanPayload::Text(format!("default scalar\n{t} forward simd\n")))),
        prop::collection::vec(any::<u8>(), 0..48).prop_map(|b| Some(PlanPayload::Program(b))),
    ]
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), 0u64..512).prop_map(
            |(seed, epoch, step, steps_into_epoch)| RunPosition {
                seed,
                epoch,
                step,
                steps_into_epoch,
            },
        ),
        arb_rng_state(),
        arb_plan_payload(),
        (
            arb_f32(),
            prop::collection::vec(prop::collection::vec(arb_f32(), 0..12), 0..4),
        )
            .prop_map(|(lr, velocities)| OptimizerState { lr, velocities }),
        prop::collection::vec(arb_layer_state(), 0..6),
    )
        .prop_map(|(position, shuffle_rng, plan, optimizer, layers)| Snapshot {
            position,
            shuffle_rng,
            plan,
            optimizer,
            layers,
        })
}

proptest! {
    #[test]
    fn arbitrary_snapshots_roundtrip_losslessly(snap in arb_snapshot()) {
        let bytes = snap.encode().expect("snapshots encode");
        let decoded = Snapshot::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded, snap);
    }

    #[test]
    fn encoding_is_canonical(snap in arb_snapshot()) {
        let bytes = snap.encode().expect("snapshots encode");
        let decoded = Snapshot::decode(&bytes).expect("own encoding decodes");
        // encode ∘ decode is the identity on bytes: one canonical
        // serialization per snapshot.
        prop_assert_eq!(decoded.encode().expect("re-encodes"), bytes);
    }

    #[test]
    fn every_truncation_is_a_typed_error(snap in arb_snapshot(), cut in 0.0f64..1.0) {
        let bytes = snap.encode().expect("snapshots encode");
        let len = (cut * bytes.len() as f64) as usize;
        prop_assume!(len < bytes.len());
        // Every strict prefix fails with a typed error — the header's
        // section count and the mandatory-section check make partial
        // documents unrepresentable. Never panics, never half-decodes.
        prop_assert!(Snapshot::decode(&bytes[..len]).is_err());
    }

    #[test]
    fn single_byte_mutations_never_panic(
        snap in arb_snapshot(),
        pos in 0.0f64..1.0,
        delta in 1u8..=255,
    ) {
        let mut bytes = snap.encode().expect("snapshots encode");
        let i = (pos * bytes.len() as f64) as usize % bytes.len();
        bytes[i] = bytes[i].wrapping_add(delta);
        // A flipped byte either still decodes (it hit a don't-care value
        // like a float payload bit) or returns a typed error; the decoder
        // must never panic or loop.
        let _ = Snapshot::decode(&bytes);
    }
}

#[test]
fn magic_and_version_are_the_stck_ones() {
    let snap = Snapshot {
        position: RunPosition {
            seed: 1,
            epoch: 2,
            step: 3,
            steps_into_epoch: 0,
        },
        shuffle_rng: [1, 2, 3, 4],
        plan: None,
        optimizer: OptimizerState {
            lr: 0.1,
            velocities: vec![],
        },
        layers: vec![],
    };
    let mut bytes = snap.encode().unwrap();
    assert_eq!(&bytes[..10], b"STCKPT\x01\x00\x01\x00");
    bytes[0] ^= 0xFF;
    assert!(matches!(Snapshot::decode(&bytes), Err(DecodeError::BadMagic)));

    let mut versioned = snap.encode().unwrap();
    versioned[8] = 0xFF; // version u16 LE sits right after the 8-byte magic
    assert!(matches!(
        Snapshot::decode(&versioned),
        Err(DecodeError::UnsupportedVersion(v)) if v != 1
    ));
}
