//! Derive-free binary codec for [`Snapshot`].
//!
//! Wire format (all integers little-endian, floats as IEEE-754 bit patterns):
//!
//! ```text
//! header:   magic [u8; 8] | version u16 | reserved u16 | section_count u32
//! section:  tag u16 | reserved u16 | payload_len u64 | payload [u8; payload_len]
//! ```
//!
//! Sections appear at most once each; `Position`, `ShuffleRng`, `Optimizer`, and `Layers` are
//! mandatory, `Plan` and `PlanProgram` are optional (and mutually exclusive: a snapshot carries
//! its frozen plan either as legacy text or as a compiled `STPLAN` binary program, never both).
//! Decoding is strict: unknown tags, duplicate or missing
//! sections, short payloads, and trailing bytes are all typed [`DecodeError`]s that name the
//! offending section — corrupt snapshots must never panic.

use std::error::Error;
use std::fmt;

use crate::snapshot::{LayerState, OptimizerState, PlanPayload, PrunerState, RunPosition, Snapshot};

/// File magic: "STCKPT" + format epoch byte + NUL.
pub const MAGIC: [u8; 8] = *b"STCKPT\x01\x00";
/// Current snapshot format version.
pub const VERSION: u16 = 1;

const TAG_POSITION: u16 = 1;
const TAG_SHUFFLE_RNG: u16 = 2;
const TAG_PLAN: u16 = 3;
const TAG_OPTIMIZER: u16 = 4;
const TAG_LAYERS: u16 = 5;
const TAG_PLAN_PROGRAM: u16 = 6;

const KIND_PARAMS: u8 = 1;
const KIND_RNG: u8 = 2;
const KIND_DENSITY: u8 = 3;
const KIND_PRUNER: u8 = 4;

/// The named sections of the snapshot container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    Position,
    ShuffleRng,
    Plan,
    Optimizer,
    Layers,
    PlanProgram,
}

impl Section {
    fn from_tag(tag: u16) -> Option<Self> {
        match tag {
            TAG_POSITION => Some(Section::Position),
            TAG_SHUFFLE_RNG => Some(Section::ShuffleRng),
            TAG_PLAN => Some(Section::Plan),
            TAG_OPTIMIZER => Some(Section::Optimizer),
            TAG_LAYERS => Some(Section::Layers),
            TAG_PLAN_PROGRAM => Some(Section::PlanProgram),
            _ => None,
        }
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Section::Position => "position",
            Section::ShuffleRng => "shuffle-rng",
            Section::Plan => "plan",
            Section::Optimizer => "optimizer",
            Section::Layers => "layers",
            Section::PlanProgram => "plan-program",
        };
        f.write_str(name)
    }
}

/// Errors raised while encoding a snapshot.
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
            } => {
                write!(
                    f,
                    "section {section}: field {field} value {value} exceeds wire width"
                )
            }
        }
    }
}

impl Error for EncodeError {}

/// Errors raised while decoding a snapshot. Every variant names the region at fault.
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
            DecodeError::TruncatedHeader => write!(f, "snapshot shorter than its header"),
            DecodeError::BadMagic => write!(f, "bad snapshot magic (not a sparsetrain checkpoint)"),
            DecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads {VERSION})")
            }
            DecodeError::TruncatedSection { section } => {
                write!(f, "section {section} is truncated")
            }
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

// ---------------------------------------------------------------------------
// Writer / Reader helpers
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

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f32_bits(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn f64_bits(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn count(&mut self, field: &'static str, n: usize) -> Result<(), EncodeError> {
        let v = u32::try_from(n).map_err(|_| EncodeError::FieldOverflow {
            section: self.section,
            field,
            value: n,
        })?;
        self.buf.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn str(&mut self, field: &'static str, s: &str) -> Result<(), EncodeError> {
        self.count(field, s.len())?;
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }

    fn bytes(&mut self, field: &'static str, xs: &[u8]) -> Result<(), EncodeError> {
        self.count(field, xs.len())?;
        self.buf.extend_from_slice(xs);
        Ok(())
    }

    fn f32_slice(&mut self, field: &'static str, xs: &[f32]) -> Result<(), EncodeError> {
        self.count(field, xs.len())?;
        for &x in xs {
            self.f32_bits(x);
        }
        Ok(())
    }

    fn f64_slice(&mut self, field: &'static str, xs: &[f64]) -> Result<(), EncodeError> {
        self.count(field, xs.len())?;
        for &x in xs {
            self.f64_bits(x);
        }
        Ok(())
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64_bits(x);
            }
            None => self.u8(0),
        }
    }
}

struct Reader<'a> {
    section: Section,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(section: Section, bytes: &'a [u8]) -> Self {
        Reader {
            section,
            bytes,
            pos: 0,
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

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.truncated())?;
        if end > self.bytes.len() {
            return Err(self.truncated());
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn f32_bits(&mut self) -> Result<f32, DecodeError> {
        let b = self.take(4)?;
        Ok(f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
    }

    fn f64_bits(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn count(&mut self) -> Result<usize, DecodeError> {
        Ok(self.u32()? as usize)
    }

    fn str(&mut self, field: &'static str) -> Result<String, DecodeError> {
        let n = self.count()?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| self.invalid(field))
    }

    fn byte_vec(&mut self) -> Result<Vec<u8>, DecodeError> {
        let n = self.count()?;
        Ok(self.take(n)?.to_vec())
    }

    fn f32_vec(&mut self) -> Result<Vec<f32>, DecodeError> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n.min(self.bytes.len() / 4 + 1));
        for _ in 0..n {
            out.push(self.f32_bits()?);
        }
        Ok(out)
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n.min(self.bytes.len() / 8 + 1));
        for _ in 0..n {
            out.push(self.f64_bits()?);
        }
        Ok(out)
    }

    fn opt_f64(&mut self, field: &'static str) -> Result<Option<f64>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64_bits()?)),
            _ => Err(self.invalid(field)),
        }
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos != self.bytes.len() {
            return Err(DecodeError::InvalidField {
                section: self.section,
                field: "section length",
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Serialize a snapshot into the versioned container format.
pub fn encode_snapshot(snap: &Snapshot) -> Result<Vec<u8>, EncodeError> {
    let mut sections: Vec<(u16, Vec<u8>)> = Vec::with_capacity(5);

    let mut w = Writer::new(Section::Position);
    w.u64(snap.position.seed);
    w.u64(snap.position.epoch);
    w.u64(snap.position.step);
    w.u64(snap.position.steps_into_epoch);
    sections.push((TAG_POSITION, w.buf));

    let mut w = Writer::new(Section::ShuffleRng);
    for &word in &snap.shuffle_rng {
        w.u64(word);
    }
    sections.push((TAG_SHUFFLE_RNG, w.buf));

    match &snap.plan {
        Some(PlanPayload::Text(text)) => {
            let mut w = Writer::new(Section::Plan);
            w.str("plan text", text)?;
            sections.push((TAG_PLAN, w.buf));
        }
        Some(PlanPayload::Program(bytes)) => {
            let mut w = Writer::new(Section::PlanProgram);
            w.bytes("plan program bytes", bytes)?;
            sections.push((TAG_PLAN_PROGRAM, w.buf));
        }
        None => {}
    }

    let mut w = Writer::new(Section::Optimizer);
    w.f32_bits(snap.optimizer.lr);
    w.count("velocity buffers", snap.optimizer.velocities.len())?;
    for vel in &snap.optimizer.velocities {
        w.f32_slice("velocity values", vel)?;
    }
    sections.push((TAG_OPTIMIZER, w.buf));

    let mut w = Writer::new(Section::Layers);
    w.count("layer entries", snap.layers.len())?;
    for entry in &snap.layers {
        encode_layer_state(&mut w, entry)?;
    }
    sections.push((TAG_LAYERS, w.buf));

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
            w.f64_bits(*sum);
            w.u64(*count);
        }
        LayerState::Pruner { layer, state } => {
            w.u8(KIND_PRUNER);
            w.str("layer name", layer)?;
            w.f64_bits(state.target_sparsity);
            w.u64(state.fifo_depth);
            w.f64_slice("fifo values", &state.fifo)?;
            w.u64(state.batches);
            match &state.last_outcome {
                Some([kept, snapped, zeroed]) => {
                    w.u8(1);
                    w.u64(*kept);
                    w.u64(*snapped);
                    w.u64(*zeroed);
                }
                None => w.u8(0),
            }
            w.opt_f64(state.last_density);
            w.f64_bits(state.density_sum);
            w.u64(state.density_count);
            w.opt_f64(state.last_predicted_tau);
            w.opt_f64(state.last_determined_tau);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Parse a snapshot from the versioned container format.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, DecodeError> {
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

    let mut position: Option<RunPosition> = None;
    let mut shuffle_rng: Option<[u64; 4]> = None;
    let mut plan: Option<PlanPayload> = None;
    let mut optimizer: Option<OptimizerState> = None;
    let mut layers: Option<Vec<LayerState>> = None;

    let mut pos = 16usize;
    for _ in 0..section_count {
        if bytes.len() < pos + 12 {
            // We cannot know which section the short header belonged to.
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
        let payload = &bytes[pos..end];
        pos = end;

        match section {
            Section::Position => {
                if position.is_some() {
                    return Err(DecodeError::DuplicateSection { section });
                }
                let mut r = Reader::new(section, payload);
                let parsed = RunPosition {
                    seed: r.u64()?,
                    epoch: r.u64()?,
                    step: r.u64()?,
                    steps_into_epoch: r.u64()?,
                };
                r.finish()?;
                position = Some(parsed);
            }
            Section::ShuffleRng => {
                if shuffle_rng.is_some() {
                    return Err(DecodeError::DuplicateSection { section });
                }
                let mut r = Reader::new(section, payload);
                let state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
                r.finish()?;
                shuffle_rng = Some(state);
            }
            Section::Plan => {
                // Shares the plan slot with PlanProgram: a snapshot carries one frozen plan.
                if plan.is_some() {
                    return Err(DecodeError::DuplicateSection { section });
                }
                let mut r = Reader::new(section, payload);
                let text = r.str("plan text")?;
                r.finish()?;
                plan = Some(PlanPayload::Text(text));
            }
            Section::PlanProgram => {
                if plan.is_some() {
                    return Err(DecodeError::DuplicateSection { section });
                }
                let mut r = Reader::new(section, payload);
                let bytes = r.byte_vec()?;
                r.finish()?;
                plan = Some(PlanPayload::Program(bytes));
            }
            Section::Optimizer => {
                if optimizer.is_some() {
                    return Err(DecodeError::DuplicateSection { section });
                }
                let mut r = Reader::new(section, payload);
                let lr = r.f32_bits()?;
                let n = r.count()?;
                let mut velocities = Vec::with_capacity(n.min(payload.len() / 4 + 1));
                for _ in 0..n {
                    velocities.push(r.f32_vec()?);
                }
                r.finish()?;
                optimizer = Some(OptimizerState { lr, velocities });
            }
            Section::Layers => {
                if layers.is_some() {
                    return Err(DecodeError::DuplicateSection { section });
                }
                let mut r = Reader::new(section, payload);
                let n = r.count()?;
                let mut entries = Vec::with_capacity(n.min(payload.len() + 1));
                for _ in 0..n {
                    entries.push(decode_layer_state(&mut r)?);
                }
                r.finish()?;
                layers = Some(entries);
            }
        }
    }

    if pos != bytes.len() {
        return Err(DecodeError::TrailingBytes {
            extra: bytes.len() - pos,
        });
    }

    Ok(Snapshot {
        position: position.ok_or(DecodeError::MissingSection {
            section: Section::Position,
        })?,
        shuffle_rng: shuffle_rng.ok_or(DecodeError::MissingSection {
            section: Section::ShuffleRng,
        })?,
        plan,
        optimizer: optimizer.ok_or(DecodeError::MissingSection {
            section: Section::Optimizer,
        })?,
        layers: layers.ok_or(DecodeError::MissingSection {
            section: Section::Layers,
        })?,
    })
}

fn decode_layer_state(r: &mut Reader<'_>) -> Result<LayerState, DecodeError> {
    let kind = r.u8()?;
    let layer = r.str("layer name")?;
    match kind {
        KIND_PARAMS => {
            let n = r.count()?;
            let mut tensors = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                tensors.push(r.f32_vec()?);
            }
            Ok(LayerState::Params { layer, tensors })
        }
        KIND_RNG => {
            let state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
            Ok(LayerState::Rng { layer, state })
        }
        KIND_DENSITY => {
            let sum = r.f64_bits()?;
            let count = r.u64()?;
            Ok(LayerState::Density { layer, sum, count })
        }
        KIND_PRUNER => {
            let target_sparsity = r.f64_bits()?;
            let fifo_depth = r.u64()?;
            let fifo = r.f64_vec()?;
            let batches = r.u64()?;
            let last_outcome = match r.u8()? {
                0 => None,
                1 => Some([r.u64()?, r.u64()?, r.u64()?]),
                _ => return Err(r.invalid("pruner outcome tag")),
            };
            let last_density = r.opt_f64("pruner last density")?;
            let density_sum = r.f64_bits()?;
            let density_count = r.u64()?;
            let last_predicted_tau = r.opt_f64("pruner predicted tau")?;
            let last_determined_tau = r.opt_f64("pruner determined tau")?;
            Ok(LayerState::Pruner {
                layer,
                state: Box::new(PrunerState {
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
                }),
            })
        }
        _ => Err(r.invalid("layer state kind")),
    }
}

impl Snapshot {
    /// Serialize this snapshot; see [`encode_snapshot`].
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        encode_snapshot(self)
    }

    /// Parse a snapshot; see [`decode_snapshot`].
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        decode_snapshot(bytes)
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
                    state: Box::new(PrunerState {
                        target_sparsity: 0.9,
                        fifo_depth: 5,
                        fifo: vec![0.125, 0.25],
                        batches: 11,
                        last_outcome: Some([10, 3, 87]),
                        last_density: Some(0.13),
                        density_sum: 1.43,
                        density_count: 11,
                        last_predicted_tau: Some(0.21),
                        last_determined_tau: None,
                    }),
                },
            ],
        }
    }

    #[test]
    fn roundtrips() {
        let snap = sample_snapshot();
        let bytes = snap.encode().unwrap();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn roundtrips_without_plan() {
        let mut snap = sample_snapshot();
        snap.plan = None;
        let bytes = snap.encode().unwrap();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn roundtrips_with_binary_plan_program() {
        let mut snap = sample_snapshot();
        snap.plan = Some(PlanPayload::Program(vec![0x53, 0x54, 0x00, 0xFF, 0x01]));
        let bytes = snap.encode().unwrap();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn plan_program_section_golden_bytes() {
        // The tag-6 payload layout is pinned: count u32 (LE) + raw bytes. A change here is a
        // wire-format break and must bump VERSION.
        let mut snap = sample_snapshot();
        snap.plan = Some(PlanPayload::Program(vec![1, 2, 3]));
        let bytes = snap.encode().unwrap();
        // Locate the tag-6 section by walking the container.
        let mut pos = 16usize;
        let mut found = None;
        while pos + 12 <= bytes.len() {
            let tag = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]);
            let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
            if tag == TAG_PLAN_PROGRAM {
                found = Some(&bytes[pos + 12..pos + 12 + len]);
                break;
            }
            pos += 12 + len;
        }
        assert_eq!(
            found.expect("tag-6 section present"),
            &[0x03, 0x00, 0x00, 0x00, 1, 2, 3]
        );
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

    #[test]
    fn text_and_program_plan_sections_are_mutually_exclusive() {
        // Hand-build a container carrying both plan forms; the decoder must reject it as a
        // duplicate of the (single) plan slot.
        let text_snap = sample_snapshot();
        let text_bytes = text_snap.encode().unwrap();
        let mut program_snap = sample_snapshot();
        program_snap.plan = Some(PlanPayload::Program(vec![9, 9]));
        let program_bytes = program_snap.encode().unwrap();

        let section = |bytes: &[u8], want: u16| -> Vec<u8> {
            let mut pos = 16usize;
            loop {
                let tag = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]);
                let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
                if tag == want {
                    return bytes[pos..pos + 12 + len].to_vec();
                }
                pos += 12 + len;
            }
        };

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 2]);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&section(&text_bytes, TAG_PLAN));
        bytes.extend_from_slice(&section(&program_bytes, TAG_PLAN_PROGRAM));
        assert_eq!(
            Snapshot::decode(&bytes),
            Err(DecodeError::DuplicateSection {
                section: Section::PlanProgram
            })
        );
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

    #[test]
    fn flipped_magic_is_rejected() {
        let mut bytes = sample_snapshot().encode().unwrap();
        bytes[0] ^= 0xFF;
        assert_eq!(Snapshot::decode(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut bytes = sample_snapshot().encode().unwrap();
        bytes[8] = 0x7F;
        assert_eq!(
            Snapshot::decode(&bytes),
            Err(DecodeError::UnsupportedVersion(0x7F))
        );
    }

    #[test]
    fn short_header_is_rejected() {
        assert_eq!(Snapshot::decode(&[]), Err(DecodeError::TruncatedHeader));
        let bytes = sample_snapshot().encode().unwrap();
        assert_eq!(Snapshot::decode(&bytes[..10]), Err(DecodeError::TruncatedHeader));
    }

    #[test]
    fn truncated_section_names_the_section() {
        let bytes = sample_snapshot().encode().unwrap();
        // Cut into the first section's payload (position starts right after the 16-byte
        // header and its own 12-byte section header).
        let err = Snapshot::decode(&bytes[..16 + 12 + 3]).unwrap_err();
        assert_eq!(
            err,
            DecodeError::TruncatedSection {
                section: Section::Position
            }
        );
        assert!(
            err.to_string().contains("position"),
            "error should name the section: {err}"
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_snapshot().encode().unwrap();
        bytes.extend_from_slice(b"junk");
        assert_eq!(
            Snapshot::decode(&bytes),
            Err(DecodeError::TrailingBytes { extra: 4 })
        );
    }

    #[test]
    fn unknown_section_is_rejected() {
        let mut bytes = sample_snapshot().encode().unwrap();
        // First section tag lives at offset 16.
        bytes[16] = 0xEE;
        bytes[17] = 0xEE;
        assert_eq!(
            Snapshot::decode(&bytes),
            Err(DecodeError::UnknownSection { tag: 0xEEEE })
        );
    }

    #[test]
    fn missing_section_is_rejected() {
        // Hand-build a container with only the position section.
        let full = sample_snapshot().encode().unwrap();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 2]);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        // Copy the position section (12-byte header + 32-byte payload) from a real encode.
        bytes.extend_from_slice(&full[16..16 + 12 + 32]);
        assert_eq!(
            Snapshot::decode(&bytes),
            Err(DecodeError::MissingSection {
                section: Section::ShuffleRng
            })
        );
    }

    #[test]
    fn duplicate_section_is_rejected() {
        let full = sample_snapshot().encode().unwrap();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 2]);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        let position = &full[16..16 + 12 + 32];
        bytes.extend_from_slice(position);
        bytes.extend_from_slice(position);
        assert_eq!(
            Snapshot::decode(&bytes),
            Err(DecodeError::DuplicateSection {
                section: Section::Position
            })
        );
    }

    #[test]
    fn error_messages_are_nonempty() {
        let errors: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(EncodeError::FieldOverflow {
                section: Section::Layers,
                field: "param tensors",
                value: usize::MAX,
            }),
            Box::new(DecodeError::TruncatedHeader),
            Box::new(DecodeError::BadMagic),
            Box::new(DecodeError::UnsupportedVersion(9)),
            Box::new(DecodeError::TruncatedSection {
                section: Section::Optimizer,
            }),
            Box::new(DecodeError::UnknownSection { tag: 99 }),
            Box::new(DecodeError::DuplicateSection {
                section: Section::Plan,
            }),
            Box::new(DecodeError::MissingSection {
                section: Section::Layers,
            }),
            Box::new(DecodeError::TrailingBytes { extra: 1 }),
            Box::new(DecodeError::InvalidField {
                section: Section::Layers,
                field: "layer name",
            }),
        ];
        for err in errors {
            assert!(!err.to_string().is_empty());
        }
    }
}
