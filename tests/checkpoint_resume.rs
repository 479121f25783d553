//! Kill/resume end-to-end determinism: a run interrupted by a snapshot and
//! continued in a fresh trainer (simulating a fresh process) must be
//! byte-identical to the uninterrupted run — parameters, pruner statistics,
//! and the recorded metric trajectory — on every float engine. The CI
//! `resume-determinism` job runs this suite again at `RAYON_NUM_THREADS=4`
//! so band-parallel reductions are covered too.

use sparsetrain::checkpoint::{self, CheckpointPolicy, PlanPayload, Snapshot};
use sparsetrain::core::prune::PruneConfig;
use sparsetrain::nn::data::{Dataset, SyntheticSpec};
use sparsetrain::nn::layer::Layer;
use sparsetrain::nn::metrics::MetricStore;
use sparsetrain::nn::models;
use sparsetrain::nn::train::{ResumeError, TrainConfig, Trainer};
use sparsetrain::sparse::legacy_plan::load_plan;
use sparsetrain::sparse::{Plan, PlanError, Stage};

/// The float engines the bitwise-resume guarantee is enforced on (`auto`
/// additionally reads and checks legacy plans; fixed-point engines are
/// excluded by design — they are not bitwise-equal to scalar to begin
/// with).
const ENGINES: [&str; 3] = ["scalar", "parallel:simd", "auto"];

fn data() -> (Dataset, Dataset) {
    SyntheticSpec::tiny(3).generate()
}

/// A small AlexNet (conv stack + dropout + fc) so the snapshot covers conv
/// and linear params, dropout RNG state, and five pruner sites.
fn trainer(engine: &str, checkpoint: Option<CheckpointPolicy>) -> Trainer {
    let net = models::alexnet(3, 8, 3, 4, Some(PruneConfig::new(0.9, 2)), 11);
    let config = TrainConfig {
        batch_size: 8,
        lr: 0.01,
        momentum: 0.9,
        weight_decay: 1e-4,
        seed: 5,
        engine: None,
        checkpoint,
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

/// Full-state comparison through the codec itself.
fn state_bytes(t: &Trainer) -> Vec<u8> {
    t.snapshot().encode().expect("snapshot encodes")
}

#[test]
fn interrupted_run_is_bitwise_identical_on_every_engine() {
    let (train, test) = data();
    for engine in ENGINES {
        // Uninterrupted reference: two epochs, one metric trajectory.
        let mut straight = trainer(engine, None);
        let mut straight_metrics = MetricStore::new();
        straight.train(&train, Some(&test), 2, &mut straight_metrics, &mut []);

        // Interrupted run: one epoch, snapshot, "process death" (the
        // trainer is dropped; only the encoded bytes survive), resume in a
        // fresh trainer, one more epoch.
        let mut first = trainer(engine, None);
        let mut first_metrics = MetricStore::new();
        first.train(&train, Some(&test), 1, &mut first_metrics, &mut []);
        let bytes = first.snapshot().encode().expect("snapshot encodes");
        drop(first);

        let mut resumed = trainer(engine, None);
        resumed
            .resume(&Snapshot::decode(&bytes).expect("snapshot decodes"))
            .unwrap_or_else(|e| panic!("{engine}: resume failed: {e}"));
        let mut resumed_metrics = MetricStore::new();
        resumed.train(&train, Some(&test), 1, &mut resumed_metrics, &mut []);

        assert_eq!(
            params(&mut straight),
            params(&mut resumed),
            "{engine}: parameters diverged after resume"
        );
        assert_eq!(
            straight.grad_densities(),
            resumed.grad_densities(),
            "{engine}: pruner density statistics diverged"
        );
        assert_eq!(
            state_bytes(&straight),
            state_bytes(&resumed),
            "{engine}: re-encoded training state diverged"
        );
        let straight_trajectory = straight_metrics.to_jsonl();
        let spliced = format!("{}{}", first_metrics.to_jsonl(), resumed_metrics.to_jsonl());
        assert_eq!(
            straight_trajectory, spliced,
            "{engine}: metric trajectory diverged across the interruption"
        );
    }
}

#[test]
fn snapshot_resumes_bitwise_across_engines() {
    // Float engines are bitwise-equal, so a snapshot from a scalar run must
    // continue identically under the vectorized parallel backend.
    let (train, _) = data();
    let mut straight = trainer("scalar", None);
    straight.train_epoch(&train);
    straight.train_epoch(&train);

    let mut first = trainer("scalar", None);
    first.train_epoch(&train);
    let snap = first.snapshot();

    let mut resumed = trainer("parallel:simd", None);
    resumed.resume(&snap).expect("cross-engine resume");
    resumed.train_epoch(&train);

    assert_eq!(
        params(&mut straight),
        params(&mut resumed),
        "scalar→parallel:simd resume diverged"
    );
}

#[test]
fn mid_epoch_checkpoint_resumes_bitwise_from_disk() {
    let (train, _) = data();
    let dir = std::env::temp_dir().join(format!("sparsetrain-e2e-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut straight = trainer("scalar", None);
    straight.train_epoch(&train);
    straight.train_epoch(&train);

    // 72 samples / batch 8 = 9 steps per epoch; a 5-step cadence leaves the
    // newest snapshot mid-epoch 2 (step 15, 6 batches in).
    let policy = CheckpointPolicy::every_steps(&dir, 5).with_keep(2);
    let mut interrupted = trainer("scalar", Some(policy));
    interrupted.train_epoch(&train);
    interrupted.train_epoch(&train);
    assert!(
        interrupted.checkpoints().expect("manager active").files().len() <= 2,
        "keep-K rotation exceeded"
    );
    drop(interrupted);

    let latest = checkpoint::latest_in(&dir)
        .expect("dir readable")
        .expect("a snapshot on disk");
    let snap = checkpoint::load(&latest).expect("snapshot loads");
    assert!(
        snap.position.steps_into_epoch > 0,
        "cadence should land mid-epoch, got {:?}",
        snap.position
    );

    let mut resumed = trainer("scalar", None);
    resumed.resume(&snap).expect("mid-epoch resume");
    resumed.train_epoch(&train); // finishes the interrupted epoch

    assert_eq!(
        params(&mut straight),
        params(&mut resumed),
        "mid-epoch disk resume diverged"
    );
    assert_eq!(straight.stream_seeds(), resumed.stream_seeds());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// `simd` trained for two epochs straight: the trajectory a resume from
/// [`simd_snapshot`] must land on.
fn straight_simd() -> Trainer {
    let (train, _) = data();
    let mut straight = trainer("simd", None);
    straight.train_epoch(&train);
    straight.train_epoch(&train);
    straight
}

/// A `simd` snapshot after one epoch, carrying `plan`.
fn simd_snapshot(plan: Option<PlanPayload>) -> Snapshot {
    let (train, _) = data();
    let mut first = trainer("simd", None);
    first.train_epoch(&train);
    Snapshot {
        plan,
        ..first.snapshot()
    }
}

/// An `auto` run embeds no plan. A float plan a snapshot still carries is
/// read, checked and ignored: the `auto` resume lands on the `simd`
/// trajectory bit for bit, and a pinned engine resumes without reading it.
#[test]
fn resume_replays_the_frozen_auto_plan() {
    let (train, _) = data();
    assert_eq!(
        trainer("auto", None).snapshot().plan,
        None,
        "an auto run embeds no plan"
    );

    let text = "default scalar\nconv1 forward im2row\nconv2 weight_grad simd\n";
    let snap = simd_snapshot(Some(PlanPayload::Text(text.to_string())));
    let mut resumed = trainer("auto", None);
    resumed.resume(&snap).expect("a float plan resumes");
    assert_eq!(
        resumed.snapshot().plan,
        None,
        "an ignored plan is not re-embedded"
    );
    resumed.train_epoch(&train);
    assert_eq!(params(&mut straight_simd()), params(&mut resumed));

    // A pinned engine ignores the embedded plan unread, even a fixed-point one.
    let fixed = simd_snapshot(Some(PlanPayload::Text("conv1 forward fixed\n".into())));
    let mut pinned = trainer("scalar", None);
    pinned.resume(&fixed).expect("resume under pinned engine");
    assert_eq!(pinned.engine_name(), "scalar");
}

/// A plan naming a fixed-point engine cannot be ignored without changing
/// results, so an `auto` resume refuses it with a typed error naming the
/// cell. A plan file naming a parameterized grid fails the same check,
/// the one an `auto` context runs on `SPARSETRAIN_PLAN`.
#[test]
fn resume_rejects_a_plan_naming_a_fixed_point_engine() {
    let snap = simd_snapshot(Some(PlanPayload::Text("conv1 forward fixed\n".into())));
    let err = trainer("auto", None)
        .resume(&snap)
        .expect_err("a fixed cell is refused");
    assert!(
        matches!(
            &err,
            ResumeError::Plan(PlanError::NotFloat { cell, engine: "fixed" }) if cell == "conv1 forward"
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("conv1 forward"), "{err}");

    let path = std::env::temp_dir().join(format!("sparsetrain-fixed-plan-{}.txt", std::process::id()));
    std::fs::write(&path, "default simd\nconv2 weight_grad fixed:q4.12\n").expect("plan file written");
    let plan = load_plan(path.to_str().expect("utf-8 temp path")).expect("the file parses");
    std::fs::remove_file(&path).expect("cleanup");
    assert_eq!(
        plan.check_float(),
        Err(PlanError::NotFloat {
            cell: "conv2 weight_grad".to_string(),
            engine: "fixed:q4.12"
        })
    );
}

/// Hex digits (whitespace ignored) → bytes.
fn unhex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    let byte = |pair: &[u8]| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap();
    digits.chunks(2).map(byte).collect()
}

/// The committed golden plan — the `STPLAN` file of `legacy_plan`'s
/// golden test: default `simd`, `conv1` forward on `parallel:im2row`,
/// `conv1` weight_grad on `scalar`, `conv2` input_grad on `parallel` —
/// embedded in a `.stck` snapshot. An `auto` trainer resumed from it
/// decodes the plan, finds every cell float, ignores it, and lands bit for
/// bit on a straight `simd` run.
#[test]
fn resume_decodes_the_golden_plan_and_trains_bitwise() {
    let golden = unhex(
        "5354504c414e0100 0100 0000 02000000 \
         010000004700000000000000 06000000 0400000073696d64 05000000636f6e7631 \
            0f000000706172616c6c656c3a696d32726f77 060000007363616c6172 05000000636f6e7632 \
            08000000706172616c6c656c \
         020000002300000000000000 00000000 03000000 010000000002000000 010000000203000000 \
            040000000105000000",
    );
    let plan = Plan::decode(&golden).expect("the golden plan decodes");
    let cells: Vec<_> = plan.cells().map(|(l, s, e)| (l, s, e.name())).collect();
    assert_eq!(plan.default_engine().name(), "simd");
    assert_eq!(
        cells,
        [
            ("conv1", Stage::Forward, "parallel:im2row"),
            ("conv1", Stage::WeightGrad, "scalar"),
            ("conv2", Stage::InputGrad, "parallel"),
        ]
    );

    let (train, _) = data();
    let stck = simd_snapshot(Some(PlanPayload::Program(golden)))
        .encode()
        .expect("snapshot encodes");
    let mut resumed = trainer("auto", None);
    resumed
        .resume(&Snapshot::decode(&stck).expect("snapshot decodes"))
        .expect("the golden plan resumes");
    resumed.train_epoch(&train);
    assert_eq!(
        params(&mut straight_simd()),
        params(&mut resumed),
        "resuming the golden plan left the simd trajectory"
    );
}

#[test]
fn resume_accepts_legacy_text_plan_payloads() {
    // Snapshots written before the binary program format carried the
    // line-oriented text form; an auto resume still reads and checks it.
    let text = "# sparsetrain execution plan v1\n\
                default scalar\n\
                conv1 forward im2row\n\
                conv1 weight_grad simd\n";
    let mut snap = simd_snapshot(Some(PlanPayload::Text(text.to_string())));
    let mut resumed = trainer("auto", None);
    resumed.resume(&snap).expect("text-payload resume");
    assert_eq!(
        resumed.snapshot().plan,
        None,
        "an ignored plan is not re-embedded"
    );

    // A corrupt text payload surfaces as a typed resume error.
    snap.plan = Some(PlanPayload::Text("conv1 sideways simd".to_string()));
    let err = trainer("auto", None)
        .resume(&snap)
        .expect_err("bad plan rejected");
    assert!(err.to_string().contains("sideways"), "{err}");
}
