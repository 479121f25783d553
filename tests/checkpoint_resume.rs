//! Legacy execution plans in `.stck` snapshots: an `auto` resume refuses
//! a snapshot that carries one, and a pinned engine resumes it, ignores
//! the plan and lands bit for bit on the `simd` trajectory. The bitwise
//! kill / resume guarantees themselves are rows of the guarantee matrix
//! (`crates/bench/tests/guarantees.rs`).

use sparsetrain::checkpoint::{PlanPayload, Section, Snapshot};
use sparsetrain::core::prune::PruneConfig;
use sparsetrain::nn::data::{Dataset, SyntheticSpec};
use sparsetrain::nn::layer::Layer;
use sparsetrain::nn::models;
use sparsetrain::nn::train::{ResumeError, TrainConfig, Trainer};

fn data() -> (Dataset, Dataset) {
    SyntheticSpec::tiny(3).generate()
}

/// A small AlexNet (conv stack + dropout + fc) so the snapshot covers conv
/// and linear params, dropout RNG state, and five pruner sites.
fn trainer(engine: &str) -> Trainer {
    let net = models::alexnet(3, 8, 3, 4, Some(PruneConfig::new(0.9, 2)), 11);
    let config = TrainConfig {
        batch_size: 8,
        lr: 0.01,
        momentum: 0.9,
        weight_decay: 1e-4,
        seed: 5,
        engine: None,
        checkpoint: None,
        shard: None,
    }
    .with_engine_name(engine);
    Trainer::new(net, config)
}

fn params(t: &mut Trainer) -> Vec<u32> {
    // Compare bit patterns, not floats: -0.0 == 0.0 would mask a drift.
    let mut out = Vec::new();
    t.network_mut()
        .visit_params(&mut |w, _| out.extend(w.iter().map(|v| v.to_bits())));
    out
}

/// `simd` trained for two epochs straight: the trajectory a resume from
/// [`simd_snapshot`] must land on.
fn straight_simd() -> Trainer {
    let (train, _) = data();
    let mut straight = trainer("simd");
    straight.train_epoch(&train);
    straight.train_epoch(&train);
    straight
}

/// A `simd` snapshot after one epoch, carrying `plan`.
fn simd_snapshot(plan: Option<PlanPayload>) -> Snapshot {
    let (train, _) = data();
    let mut first = trainer("simd");
    first.train_epoch(&train);
    Snapshot {
        plan,
        ..first.snapshot()
    }
}

/// Hex digits (whitespace ignored) → bytes.
fn unhex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    let byte = |pair: &[u8]| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap();
    digits.chunks(2).map(byte).collect()
}

/// Round-trips a `simd` snapshot carrying `payload` through the codec, as a
/// snapshot file from an older build arrives, and checks the one rule for
/// plan sections: an `auto` resume refuses it with a typed error naming
/// `section`; a pinned engine resumes it, ignores the plan unread, and
/// lands bit for bit on the `simd` trajectory. Returns the decoded
/// snapshot.
fn assert_refused_on_auto_and_ignored_when_pinned(payload: PlanPayload, section: Section) -> Snapshot {
    let bytes = simd_snapshot(Some(payload)).encode().expect("snapshot encodes");
    let snap = Snapshot::decode(&bytes).expect("snapshot decodes");

    let err = trainer("auto").resume(&snap).expect_err("auto refuses a plan");
    assert!(
        matches!(err, ResumeError::LegacyPlan { section: s } if s == section),
        "{err:?}"
    );
    let shown = err.to_string();
    assert!(shown.contains(&format!("section {}", section.name())), "{shown}");

    let (train, _) = data();
    let straight = params(&mut straight_simd());
    for engine in ["scalar", "simd"] {
        let mut resumed = trainer(engine);
        resumed
            .resume(&snap)
            .unwrap_or_else(|e| panic!("{engine}: resume failed: {e}"));
        assert_eq!(
            resumed.snapshot().plan,
            None,
            "{engine}: an ignored plan is not re-embedded"
        );
        resumed.train_epoch(&train);
        assert_eq!(
            params(&mut resumed),
            straight,
            "{engine} left the simd trajectory"
        );
    }
    snap
}

/// Snapshots written before the binary program format carried the
/// line-oriented text form: refused on `auto`, resumed when pinned.
#[test]
fn resume_accepts_legacy_text_plan_payloads() {
    let text = "# sparsetrain execution plan v1\n\
                default scalar\n\
                conv1 forward im2row\n\
                conv1 weight_grad simd\n";
    assert_refused_on_auto_and_ignored_when_pinned(PlanPayload::Text(text.to_string()), Section::Plan);
}

/// A plan naming `fixed` could not be ignored without changing results;
/// with no decoder left to tell, `auto` refuses every plan, this one too.
#[test]
fn resume_rejects_a_plan_naming_a_fixed_point_engine() {
    let text = "default scalar\nconv1 forward im2row\nconv2 weight_grad fixed\n";
    assert_refused_on_auto_and_ignored_when_pinned(PlanPayload::Text(text.to_string()), Section::Plan);
}

/// A binary plan program an older build wrote (default `simd`; `conv1`
/// forward on `parallel:im2row`, `conv1` weight_grad on `scalar`, `conv2`
/// input_grad on `parallel`), carried here as the opaque payload of a
/// `plan-program` section. Two of those names no longer resolve; nothing
/// resolves the payload, so they need not.
const GOLDEN_PROGRAM: &str = "5354504c414e0100 0100 0000 02000000 \
    010000004700000000000000 06000000 0400000073696d64 05000000636f6e7631 \
       0f000000706172616c6c656c3a696d32726f77 060000007363616c6172 05000000636f6e7632 \
       08000000706172616c6c656c \
    020000002300000000000000 00000000 03000000 010000000002000000 010000000203000000 \
       040000000105000000";

/// The codec decodes the committed golden program verbatim; `auto` refuses
/// it and a pinned engine trains past it bit for bit.
#[test]
fn resume_decodes_the_golden_plan_and_trains_bitwise() {
    let golden = unhex(GOLDEN_PROGRAM);
    let snap = assert_refused_on_auto_and_ignored_when_pinned(
        PlanPayload::Program(golden.clone()),
        Section::PlanProgram,
    );
    assert_eq!(snap.plan, Some(PlanPayload::Program(golden)));
}

/// `auto` is frozen to `simd` and embeds no plan: an `auto` snapshot,
/// through the codec, resumes on `auto` and lands on the `simd` trajectory
/// bit for bit.
#[test]
fn resume_replays_the_frozen_auto_plan() {
    let (train, _) = data();
    let mut first = trainer("auto");
    assert_eq!(first.snapshot().plan, None, "an auto run embeds no plan");
    first.train_epoch(&train);
    let bytes = first.snapshot().encode().expect("snapshot encodes");
    let snap = Snapshot::decode(&bytes).expect("snapshot decodes");
    assert_eq!(snap.plan, None, "an auto run embeds no plan");

    let mut resumed = trainer("auto");
    resumed.resume(&snap).expect("an auto snapshot resumes on auto");
    resumed.train_epoch(&train);
    assert_eq!(params(&mut straight_simd()), params(&mut resumed));
}
