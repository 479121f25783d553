//! Derive-free binary codec for [`Snapshot`]: the payload field layouts of the `.stck` sections.
//!
//! The framing — header, tagged length-prefixed sections, primitive encodings, and every
//! strictness rule of decoding — is the crate's private `framing` module; this module lays out
//! each section's fields.
//!
//! Sections appear at most once each; `Position`, `ShuffleRng`, `Optimizer`, and `Layers` are
//! mandatory, `Plan` and `PlanProgram` are optional (and mutually exclusive: a snapshot from an
//! older build carries its plan either as text or as a binary program, never both). Corrupt
//! snapshots are typed [`DecodeError`]s that name the offending section, never panics.

use crate::framing::{DecodeError, EncodeError, Reader, Section, Sections, Writer};
use crate::snapshot::{LayerState, OptimizerState, PlanPayload, RunPosition, Snapshot};
use sparsetrain_core::prune::{PruneConfig, PruneOutcome, PruneStats, PrunerSnapshot};

const KIND_PARAMS: u8 = 1;
const KIND_RNG: u8 = 2;
const KIND_DENSITY: u8 = 3;
const KIND_PRUNER: u8 = 4;

impl Snapshot {
    /// Serialize this snapshot into the versioned container format.
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        let mut w = Writer::new();

        w.begin(Section::Position);
        w.u64(self.position.seed);
        w.u64(self.position.epoch);
        w.u64(self.position.step);
        w.u64(self.position.steps_into_epoch);

        w.begin(Section::ShuffleRng);
        for &word in &self.shuffle_rng {
            w.u64(word);
        }

        match &self.plan {
            Some(PlanPayload::Text(text)) => {
                w.begin(Section::Plan);
                w.str("plan text", text)?;
            }
            Some(PlanPayload::Program(bytes)) => {
                w.begin(Section::PlanProgram);
                w.bytes("plan program bytes", bytes)?;
            }
            None => {}
        }

        w.begin(Section::Optimizer);
        w.f32(self.optimizer.lr);
        w.count("velocity buffers", self.optimizer.velocities.len())?;
        for vel in &self.optimizer.velocities {
            w.f32_slice("velocity values", vel)?;
        }

        w.begin(Section::Layers);
        w.count("layer entries", self.layers.len())?;
        for entry in &self.layers {
            encode_layer_state(&mut w, entry)?;
        }

        Ok(w.finish())
    }

    /// Parse a snapshot from the versioned container format.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let sections = Sections::parse(bytes)?;

        // One plan slot: a file carrying both forms repeats it, and the second is the duplicate.
        let mut plans = sections
            .present()
            .filter(|s| matches!(s, Section::Plan | Section::PlanProgram));
        if let Some(section) = plans.nth(1) {
            return Err(DecodeError::DuplicateSection { section });
        }

        let mut r = sections.required(Section::Position)?;
        let position = RunPosition {
            seed: r.u64()?,
            epoch: r.u64()?,
            step: r.u64()?,
            steps_into_epoch: r.u64()?,
        };
        r.finish()?;

        let mut r = sections.required(Section::ShuffleRng)?;
        let shuffle_rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        r.finish()?;

        let mut plan = None;
        if let Some(mut r) = sections.optional(Section::Plan) {
            plan = Some(PlanPayload::Text(r.str("plan text")?));
            r.finish()?;
        }
        if let Some(mut r) = sections.optional(Section::PlanProgram) {
            plan = Some(PlanPayload::Program(r.byte_vec()?));
            r.finish()?;
        }

        let mut r = sections.required(Section::Optimizer)?;
        let optimizer = OptimizerState {
            lr: r.f32()?,
            velocities: r.seq(4, Reader::f32_vec)?,
        };
        r.finish()?;

        let mut r = sections.required(Section::Layers)?;
        // The smallest entry: a kind byte, an empty name, an empty tensor list.
        let layers = r.seq(9, decode_layer_state)?;
        r.finish()?;

        Ok(Snapshot {
            position,
            shuffle_rng,
            plan,
            optimizer,
            layers,
        })
    }
}

fn encode_layer_state(w: &mut Writer, entry: &LayerState) -> Result<(), EncodeError> {
    match entry {
        LayerState::Params { layer, tensors } => {
            w.u8(KIND_PARAMS);
            w.str("layer name", layer)?;
            w.count("param tensors", tensors.len())?;
            for t in tensors {
                w.f32_slice("param values", t)?;
            }
        }
        LayerState::Rng { layer, state } => {
            w.u8(KIND_RNG);
            w.str("layer name", layer)?;
            for &word in state {
                w.u64(word);
            }
        }
        LayerState::Density { layer, sum, count } => {
            w.u8(KIND_DENSITY);
            w.str("layer name", layer)?;
            w.f64(*sum);
            w.u64(*count);
        }
        LayerState::Pruner { layer, state } => {
            w.u8(KIND_PRUNER);
            w.str("layer name", layer)?;
            let stats = &state.stats;
            w.f64(state.config.target_sparsity);
            w.usize(state.config.fifo_depth);
            w.f64_slice("fifo values", &state.fifo)?;
            w.usize(stats.batches);
            match &stats.last_outcome {
                Some(outcome) => {
                    w.u8(1);
                    w.usize(outcome.kept);
                    w.usize(outcome.snapped);
                    w.usize(outcome.zeroed);
                }
                None => w.u8(0),
            }
            w.opt_f64(stats.last_density);
            w.f64(stats.density_sum);
            w.usize(stats.density_count);
            w.opt_f64(stats.last_predicted_tau);
            w.opt_f64(stats.last_determined_tau);
        }
    }
    Ok(())
}

fn decode_layer_state(r: &mut Reader<'_>) -> Result<LayerState, DecodeError> {
    let kind = r.u8()?;
    let layer = r.str("layer name")?;
    match kind {
        KIND_PARAMS => {
            let tensors = r.seq(4, Reader::f32_vec)?;
            Ok(LayerState::Params { layer, tensors })
        }
        KIND_RNG => {
            let state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
            Ok(LayerState::Rng { layer, state })
        }
        KIND_DENSITY => {
            let sum = r.f64()?;
            let count = r.u64()?;
            Ok(LayerState::Density { layer, sum, count })
        }
        KIND_PRUNER => {
            let config = PruneConfig {
                target_sparsity: r.f64()?,
                fifo_depth: r.usize("pruner fifo depth")?,
            };
            let fifo = r.f64_vec()?;
            let batches = r.usize("pruner batches")?;
            let last_outcome = match r.u8()? {
                0 => None,
                1 => Some(PruneOutcome {
                    kept: r.usize("pruner outcome")?,
                    snapped: r.usize("pruner outcome")?,
                    zeroed: r.usize("pruner outcome")?,
                }),
                _ => return Err(r.invalid("pruner outcome tag")),
            };
            let stats = PruneStats {
                batches,
                last_outcome,
                last_density: r.opt_f64("pruner last density")?,
                density_sum: r.f64()?,
                density_count: r.usize("pruner density count")?,
                last_predicted_tau: r.opt_f64("pruner predicted tau")?,
                last_determined_tau: r.opt_f64("pruner determined tau")?,
            };
            Ok(LayerState::Pruner {
                layer,
                state: Box::new(PrunerSnapshot { config, fifo, stats }),
            })
        }
        _ => Err(r.invalid("layer state kind")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            position: RunPosition {
                seed: 3,
                epoch: 2,
                step: 57,
                steps_into_epoch: 7,
            },
            shuffle_rng: [0x1111, 0x2222, 0x3333, 0x4444],
            plan: Some(PlanPayload::Text(
                "# sparsetrain execution plan v1\ndefault scalar\n".to_string(),
            )),
            optimizer: OptimizerState {
                lr: 0.01,
                velocities: vec![vec![0.5, -0.25, f32::MIN_POSITIVE], vec![], vec![1.0e-30]],
            },
            layers: vec![
                LayerState::Params {
                    layer: "conv1".to_string(),
                    tensors: vec![vec![1.0, -2.0, 0.0, -0.0], vec![3.5]],
                },
                LayerState::Rng {
                    layer: "drop_fc1".to_string(),
                    state: [9, 8, 7, 6],
                },
                LayerState::Density {
                    layer: "conv1".to_string(),
                    sum: 1.75,
                    count: 4,
                },
                LayerState::Pruner {
                    layer: "prune_conv1".to_string(),
                    state: Box::new(PrunerSnapshot {
                        config: PruneConfig {
                            target_sparsity: 0.9,
                            fifo_depth: 5,
                        },
                        fifo: vec![0.125, 0.25],
                        stats: PruneStats {
                            batches: 11,
                            last_outcome: Some(PruneOutcome {
                                kept: 10,
                                snapped: 3,
                                zeroed: 87,
                            }),
                            last_density: Some(0.13),
                            density_sum: 1.43,
                            density_count: 11,
                            last_predicted_tau: Some(0.21),
                            last_determined_tau: None,
                        },
                    }),
                },
            ],
        }
    }

    /// Hex digits (whitespace ignored) → bytes, for the golden fixtures below.
    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        let byte = |pair: &[u8]| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap();
        digits.chunks(2).map(byte).collect()
    }

    // `.stck` v1 golden bytes for `sample_snapshot()`, one section (12-byte section header, then
    // payload) per line in wire order. A change to any byte here is a wire-format break and must
    // bump VERSION.
    const GOLDEN_POSITION: &str = "010000002000000000000000 \
        0300000000000000020000000000000039000000000000000700000000000000";
    const GOLDEN_SHUFFLE_RNG: &str = "020000002000000000000000 \
        1111000000000000222200000000000033330000000000004444000000000000";
    const GOLDEN_PLAN_TEXT: &str = "030000003300000000000000 2f000000 \
        2320737061727365747261696e20657865637574696f6e20706c616e2076310a64656661756c74207363616c61720a";
    const GOLDEN_PLAN_PROGRAM: &str = "060000000900000000000000 05000000535400ff01";
    const GOLDEN_OPTIMIZER: &str = "040000002400000000000000 \
        0ad7233c03000000030000000000003f000080be0000800000000000010000006042a20d";
    const GOLDEN_LAYERS: &str = "05000000ed00000000000000 04000000 \
        0105000000636f6e763102000000040000000000803f000000c000000000000000800100000000006040 \
        020800000064726f705f6663310900000000000000080000000000000007000000000000000600000000000000 \
        0305000000636f6e7631000000000000fc3f0400000000000000 \
        040b0000007072756e655f636f6e7631cdccccccccccec3f0500000000000000 \
        02000000000000000000c03f000000000000d03f0b00000000000000 \
        010a000000000000000300000000000000570000000000000001a4703d0ad7a3c03f \
        e17a14ae47e1f63f0b0000000000000001e17a14ae47e1ca3f00";

    /// The whole golden file: header (magic, version 1, reserved, section count) + sections.
    fn golden_file(section_count: u8, plan: &str) -> Vec<u8> {
        unhex(&format!(
            "5354434b50540100 0100 0000 {section_count:02x}000000 \
             {GOLDEN_POSITION} {GOLDEN_SHUFFLE_RNG} {plan} {GOLDEN_OPTIMIZER} {GOLDEN_LAYERS}"
        ))
    }

    #[test]
    fn whole_file_golden_bytes() {
        let text = sample_snapshot();
        let mut program = sample_snapshot();
        program.plan = Some(PlanPayload::Program(vec![0x53, 0x54, 0x00, 0xFF, 0x01]));
        let mut bare = sample_snapshot();
        bare.plan = None;
        for (snap, golden) in [
            (text, golden_file(5, GOLDEN_PLAN_TEXT)),
            (program, golden_file(5, GOLDEN_PLAN_PROGRAM)),
            (bare, golden_file(4, "")),
        ] {
            assert_eq!(snap.encode().unwrap(), golden, "plan {:?}", snap.plan);
            assert_eq!(Snapshot::decode(&golden).unwrap(), snap);
        }
    }

    /// A container file whose header declares `count` sections, followed by the hex `parts`
    /// verbatim.
    fn file(count: u8, parts: &[&str]) -> Vec<u8> {
        let mut bytes = golden_file(count, "");
        bytes.truncate(16);
        bytes.extend(unhex(&parts.concat()));
        bytes
    }

    /// A container file holding exactly the given golden sections, in the given order.
    fn file_of(sections: &[&str]) -> Vec<u8> {
        file(sections.len() as u8, sections)
    }

    /// The golden text-plan file with the byte at `at` replaced.
    fn patched(at: usize, byte: u8) -> Vec<u8> {
        let mut bytes = golden_file(5, GOLDEN_PLAN_TEXT);
        bytes[at] = byte;
        bytes
    }

    #[test]
    fn section_order_is_free_and_plans_are_optional() {
        let reordered = [
            GOLDEN_LAYERS,
            GOLDEN_PLAN_TEXT,
            GOLDEN_OPTIMIZER,
            GOLDEN_SHUFFLE_RNG,
            GOLDEN_POSITION,
        ];
        assert_eq!(Snapshot::decode(&file_of(&reordered)), Ok(sample_snapshot()));
        let bare = [
            GOLDEN_OPTIMIZER,
            GOLDEN_POSITION,
            GOLDEN_LAYERS,
            GOLDEN_SHUFFLE_RNG,
        ];
        let decoded = Snapshot::decode(&file_of(&bare)).unwrap();
        assert_eq!(
            decoded,
            Snapshot {
                plan: None,
                ..sample_snapshot()
            }
        );
    }

    #[test]
    fn framing_corruption_is_typed() {
        use DecodeError::*;
        let good = golden_file(5, GOLDEN_PLAN_TEXT);
        let all = [
            GOLDEN_POSITION,
            GOLDEN_SHUFFLE_RNG,
            GOLDEN_PLAN_TEXT,
            GOLDEN_OPTIMIZER,
            GOLDEN_LAYERS,
        ];
        let truncated = |section| TruncatedSection { section };
        // `position` declares 33 bytes, one more than its four `u64` fields.
        let long_position = GOLDEN_POSITION.replacen("0100000020", "0100000021", 1) + " 00";
        let cases: Vec<(&str, Vec<u8>, DecodeError)> = vec![
            ("empty input", vec![], TruncatedHeader),
            ("short header", good[..15].to_vec(), TruncatedHeader),
            ("flipped magic", patched(0, 0xAC), BadMagic),
            ("another format epoch", patched(6, 2), BadMagic),
            ("wrong version", patched(8, 0x7F), UnsupportedVersion(0x7F)),
            // A section header cut short cannot name its section.
            ("short section header", good[..16 + 11].to_vec(), TruncatedHeader),
            ("count promises a sixth section", file(6, &all), TruncatedHeader),
            (
                "payload cut short",
                good[..16 + 12 + 3].to_vec(),
                truncated(Section::Position),
            ),
            (
                "last byte missing",
                good[..good.len() - 1].to_vec(),
                truncated(Section::Layers),
            ),
            ("unknown tag", patched(17, 0xEE), UnknownSection { tag: 0xEE01 }),
            (
                "duplicate tag",
                file_of(&[GOLDEN_POSITION, GOLDEN_POSITION]),
                DuplicateSection {
                    section: Section::Position,
                },
            ),
            (
                "missing mandatory tag",
                file_of(&all[1..]),
                MissingSection {
                    section: Section::Position,
                },
            ),
            (
                "trailing bytes",
                file(5, &[all.concat().as_str(), "6a756e6b"]),
                TrailingBytes { extra: 4 },
            ),
            // The `layers` section: a 12-byte section header and 237 payload bytes.
            (
                "section beyond the count",
                file(4, &all),
                TrailingBytes { extra: 249 },
            ),
            // Lengths no input can back: `u64::MAX`, and one whose low 32 bits alone (32) would
            // fit what follows — a cast that wrapped on a 32-bit target would accept it.
            (
                "length u64::MAX",
                file(1, &["01000000 ffffffffffffffff 00000000"]),
                truncated(Section::Position),
            ),
            (
                "length 2^32 + 32",
                patched(16 + 8, 1),
                truncated(Section::Position),
            ),
            (
                "payload longer than its fields",
                file_of(&[
                    long_position.as_str(),
                    GOLDEN_SHUFFLE_RNG,
                    GOLDEN_OPTIMIZER,
                    GOLDEN_LAYERS,
                ]),
                InvalidField {
                    section: Section::Position,
                    field: "section length",
                },
            ),
        ];
        for (what, bytes, want) in cases {
            assert_eq!(Snapshot::decode(&bytes), Err(want), "{what}");
        }
        // Every strict prefix fails; none panics.
        for cut in 0..good.len() {
            assert!(Snapshot::decode(&good[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn text_and_program_plan_sections_are_mutually_exclusive() {
        // A container carrying both plan forms repeats the (single) plan slot: whichever form
        // comes second is the duplicate, before anything else about the file is judged.
        for (first, second, duplicate) in [
            (GOLDEN_PLAN_TEXT, GOLDEN_PLAN_PROGRAM, Section::PlanProgram),
            (GOLDEN_PLAN_PROGRAM, GOLDEN_PLAN_TEXT, Section::Plan),
        ] {
            assert_eq!(
                Snapshot::decode(&file_of(&[first, second])),
                Err(DecodeError::DuplicateSection { section: duplicate })
            );
        }
    }

    #[test]
    fn mandatory_sections_are_required() {
        // Which sections a snapshot cannot do without is the codec's, not the framing's.
        let all = [
            (Section::Position, GOLDEN_POSITION),
            (Section::ShuffleRng, GOLDEN_SHUFFLE_RNG),
            (Section::Optimizer, GOLDEN_OPTIMIZER),
            (Section::Layers, GOLDEN_LAYERS),
        ];
        for (missing, _) in all {
            let rest: Vec<&str> = all
                .iter()
                .filter(|(s, _)| *s != missing)
                .map(|(_, hex)| *hex)
                .collect();
            let err = Snapshot::decode(&file_of(&rest)).unwrap_err();
            assert_eq!(err, DecodeError::MissingSection { section: missing });
        }
        let err = Snapshot::decode(&file_of(&[GOLDEN_POSITION])).unwrap_err();
        assert_eq!(err.to_string(), "mandatory section shuffle-rng is missing");
    }

    #[test]
    fn invalid_payload_fields_are_typed() {
        let cases = [
            // One layer entry of unknown kind 9 with an empty name.
            (
                "050000000900000000000000 01000000 09 00000000",
                "layer state kind",
            ),
            // A density entry whose name is not UTF-8.
            (
                "050000001a00000000000000 01000000 03 01000000ff 0000000000000000 0000000000000000",
                "layer name",
            ),
        ];
        for (layers, field) in cases {
            let file = file_of(&[GOLDEN_POSITION, GOLDEN_SHUFFLE_RNG, GOLDEN_OPTIMIZER, layers]);
            let section = Section::Layers;
            assert_eq!(
                Snapshot::decode(&file),
                Err(DecodeError::InvalidField { section, field })
            );
        }
    }

    #[test]
    fn float_bits_survive_exactly() {
        let mut snap = sample_snapshot();
        snap.optimizer.velocities[0] = vec![f32::NAN, -0.0, f32::INFINITY];
        let bytes = snap.encode().unwrap();
        let back = Snapshot::decode(&bytes).unwrap();
        let got = match &back.optimizer.velocities[0][..] {
            [a, b, c] => [a.to_bits(), b.to_bits(), c.to_bits()],
            other => panic!("wrong arity: {other:?}"),
        };
        assert_eq!(
            got,
            [f32::NAN.to_bits(), (-0.0f32).to_bits(), f32::INFINITY.to_bits()],
            "IEEE bit patterns must be preserved exactly"
        );
    }
}
