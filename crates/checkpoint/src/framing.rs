//! The `.stck` framing: header, tagged length-prefixed sections and primitive encodings.
//!
//! Every snapshot is the same frame around its section payloads (all integers little-endian,
//! floats as IEEE-754 bit patterns):
//!
//! ```text
//! header:   magic [u8; 8] | version u16 | reserved u16 | section_count u32
//! section:  tag u16 | reserved u16 | payload_len u64 | payload [u8; payload_len]
//! ```
//!
//! [`Writer`] emits the header and the section frames, [`Sections::parse`] checks the header and
//! walks the frames, and [`Reader`] decodes one payload; the payload field layouts are
//! [`crate::codec`]'s. Decoding is strict and total — a bad magic or version, an unknown,
//! duplicate, missing or truncated section, trailing bytes, a payload not consumed exactly: each
//! is a typed [`DecodeError`] naming the region at fault. Hostile lengths are checked before they
//! are used and never size an allocation beyond the input; corrupt input must never panic.

use std::error::Error;
use std::fmt;

/// File magic: "STCKPT" + format epoch byte + NUL.
const MAGIC: [u8; 8] = *b"STCKPT\x01\x00";
/// Current snapshot format version.
const VERSION: u16 = 1;

const HEADER_BYTES: usize = 16;
const SECTION_HEADER_BYTES: usize = 12;

/// The named sections of the snapshot container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    Position,
    ShuffleRng,
    Plan,
    Optimizer,
    Layers,
    /// A legacy plan as a binary `STPLAN` program, kept as opaque bytes.
    PlanProgram,
}

/// Every section this version knows: `(section, on-wire tag, name in error messages)`.
const TABLE: [(Section, u16, &str); 6] = [
    (Section::Position, 1, "position"),
    (Section::ShuffleRng, 2, "shuffle-rng"),
    (Section::Plan, 3, "plan"),
    (Section::Optimizer, 4, "optimizer"),
    (Section::Layers, 5, "layers"),
    (Section::PlanProgram, 6, "plan-program"),
];

impl Section {
    fn row(self) -> (u16, &'static str) {
        let (_, tag, name) = TABLE
            .iter()
            .find(|(s, ..)| *s == self)
            .expect("every section is a row of TABLE");
        (*tag, name)
    }

    fn tag(self) -> u16 {
        self.row().0
    }

    /// The section's name in error messages.
    pub fn name(self) -> &'static str {
        self.row().1
    }

    fn from_tag(tag: u16) -> Option<Section> {
        TABLE.iter().find(|(_, t, _)| *t == tag).map(|(s, ..)| *s)
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
        let EncodeError::FieldOverflow {
            section,
            field,
            value,
        } = self;
        let section = section.name();
        write!(
            f,
            "section {section}: field {field} value {value} exceeds wire width"
        )
    }
}

impl Error for EncodeError {}

/// Errors raised while decoding a snapshot. Every variant names the region at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the fixed header, or than a section header the count promised.
    TruncatedHeader,
    /// Header magic does not match the `.stck` magic.
    BadMagic,
    /// Header version is not the one this build reads and writes.
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
            DecodeError::BadMagic => write!(f, "bad snapshot magic (not an STCKPT file)"),
            DecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads {VERSION})")
            }
            DecodeError::TruncatedSection { section } => {
                write!(f, "section {} is truncated", section.name())
            }
            DecodeError::UnknownSection { tag } => write!(f, "unknown section tag {tag}"),
            DecodeError::DuplicateSection { section } => {
                write!(f, "section {} appears more than once", section.name())
            }
            DecodeError::MissingSection { section } => {
                write!(f, "mandatory section {} is missing", section.name())
            }
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the last section")
            }
            DecodeError::InvalidField { section, field } => {
                write!(f, "section {}: invalid value for field {field}", section.name())
            }
        }
    }
}

impl Error for DecodeError {}

/// Builds one snapshot file: [`Writer::begin`] opens a section, the primitive writers fill its
/// payload, [`Writer::finish`] returns the bytes. Sections are emitted in `begin` order.
pub(crate) struct Writer {
    out: Vec<u8>,
    sections: u32,
    /// The section being written and the offset its payload starts at.
    open: Option<(Section, usize)>,
}

impl Writer {
    /// A file holding the header and no sections yet.
    pub(crate) fn new() -> Self {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        // Reserved u16, then the section count `finish` fills in.
        out.extend_from_slice(&[0u8; 6]);
        Writer {
            out,
            sections: 0,
            open: None,
        }
    }

    /// Closes the open section, if any, and opens `section`.
    pub(crate) fn begin(&mut self, section: Section) {
        self.close();
        self.out.extend_from_slice(&section.tag().to_le_bytes());
        // Reserved u16, then the payload length `close` fills in.
        self.out.extend_from_slice(&[0u8; 10]);
        self.sections += 1;
        self.open = Some((section, self.out.len()));
    }

    fn close(&mut self) {
        if let Some((_, start)) = self.open.take() {
            let len = (self.out.len() - start) as u64;
            self.out[start - 8..start].copy_from_slice(&len.to_le_bytes());
        }
    }

    /// Closes the last section and returns the finished file.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        self.close();
        self.out[12..HEADER_BYTES].copy_from_slice(&self.sections.to_le_bytes());
        self.out
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// An in-memory count or depth as a `u64`. Lossless: `usize` is at most 64 bits wide here.
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A `u32` element count or byte length.
    pub(crate) fn count(&mut self, field: &'static str, n: usize) -> Result<(), EncodeError> {
        let v = u32::try_from(n).map_err(|_| EncodeError::FieldOverflow {
            section: self.open.expect("Writer::begin precedes every payload write").0,
            field,
            value: n,
        })?;
        self.u32(v);
        Ok(())
    }

    pub(crate) fn str(&mut self, field: &'static str, s: &str) -> Result<(), EncodeError> {
        self.bytes(field, s.as_bytes())
    }

    pub(crate) fn bytes(&mut self, field: &'static str, xs: &[u8]) -> Result<(), EncodeError> {
        self.count(field, xs.len())?;
        self.out.extend_from_slice(xs);
        Ok(())
    }

    pub(crate) fn f32_slice(&mut self, field: &'static str, xs: &[f32]) -> Result<(), EncodeError> {
        self.count(field, xs.len())?;
        self.out.reserve(4 * xs.len());
        self.out.extend(xs.iter().flat_map(|x| x.to_bits().to_le_bytes()));
        Ok(())
    }

    pub(crate) fn f64_slice(&mut self, field: &'static str, xs: &[f64]) -> Result<(), EncodeError> {
        self.count(field, xs.len())?;
        self.out.reserve(8 * xs.len());
        self.out.extend(xs.iter().flat_map(|x| x.to_bits().to_le_bytes()));
        Ok(())
    }

    /// A presence byte `0`/`1`, then the value if present.
    pub(crate) fn opt_f64(&mut self, v: Option<f64>) {
        self.u8(v.is_some() as u8);
        if let Some(x) = v {
            self.f64(x);
        }
    }
}

/// The sections of one parsed snapshot file, in file order. Parsing checks the whole frame; the
/// payloads are still undecoded bytes, read through [`Sections::required`] /
/// [`Sections::optional`].
pub(crate) struct Sections<'a> {
    found: Vec<(Section, &'a [u8])>,
}

impl<'a> Sections<'a> {
    /// Checks the header and walks the section frames.
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<Self, DecodeError> {
        let (header, mut rest) = bytes
            .split_first_chunk::<HEADER_BYTES>()
            .ok_or(DecodeError::TruncatedHeader)?;
        if header[..8] != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let section_count = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);

        let mut found: Vec<(Section, &[u8])> = Vec::with_capacity(TABLE.len());
        for _ in 0..section_count {
            // A short section header cannot say which section it belonged to.
            let (head, body) = rest
                .split_first_chunk::<SECTION_HEADER_BYTES>()
                .ok_or(DecodeError::TruncatedHeader)?;
            let tag = u16::from_le_bytes([head[0], head[1]]);
            let section = Section::from_tag(tag).ok_or(DecodeError::UnknownSection { tag })?;
            let declared = u64::from_le_bytes(*head.last_chunk::<8>().expect("12-byte section header"));
            // `try_from`, not `as`: on a 32-bit target a wrapped length could alias a valid one.
            let len = usize::try_from(declared)
                .ok()
                .filter(|&len| len <= body.len())
                .ok_or(DecodeError::TruncatedSection { section })?;
            if found.iter().any(|(have, _)| *have == section) {
                return Err(DecodeError::DuplicateSection { section });
            }
            let (payload, tail) = body.split_at(len);
            found.push((section, payload));
            rest = tail;
        }
        if !rest.is_empty() {
            return Err(DecodeError::TrailingBytes { extra: rest.len() });
        }
        Ok(Sections { found })
    }

    /// The sections present, in file order.
    pub(crate) fn present(&self) -> impl Iterator<Item = Section> + '_ {
        self.found.iter().map(|(section, _)| *section)
    }

    /// A reader over `section`'s payload, if the file has that section.
    pub(crate) fn optional(&self, section: Section) -> Option<Reader<'a>> {
        let (_, bytes) = self.found.iter().find(|(have, _)| *have == section)?;
        Some(Reader { section, bytes })
    }

    /// A reader over a mandatory section's payload.
    pub(crate) fn required(&self, section: Section) -> Result<Reader<'a>, DecodeError> {
        self.optional(section)
            .ok_or(DecodeError::MissingSection { section })
    }
}

/// Decodes one section payload front to back; [`Reader::finish`] checks it was consumed exactly.
pub(crate) struct Reader<'a> {
    section: Section,
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// The error for a `field` of this section holding an invalid value.
    pub(crate) fn invalid(&self, field: &'static str) -> DecodeError {
        DecodeError::InvalidField {
            section: self.section,
            field,
        }
    }

    /// Payload bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let section = self.section;
        let split = self.bytes.split_at_checked(n);
        let (head, tail) = split.ok_or(DecodeError::TruncatedSection { section })?;
        self.bytes = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` read back into an in-memory count or depth; a value this target's `usize` cannot
    /// hold is an invalid `field`.
    pub(crate) fn usize(&mut self, field: &'static str) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.invalid(field))
    }

    pub(crate) fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32` element count or byte length. Lossless: `usize` is at least 32 bits wide here.
    fn count(&mut self) -> Result<usize, DecodeError> {
        Ok(self.u32()? as usize)
    }

    pub(crate) fn str(&mut self, field: &'static str) -> Result<String, DecodeError> {
        String::from_utf8(self.byte_vec()?).map_err(|_| self.invalid(field))
    }

    pub(crate) fn byte_vec(&mut self) -> Result<Vec<u8>, DecodeError> {
        let n = self.count()?;
        Ok(self.take(n)?.to_vec())
    }

    /// A `count`, then that many elements read by `elem`. `min_elem_bytes` is the fewest bytes
    /// (at least one) an element occupies on the wire: the vector is pre-sized to no more
    /// elements than the rest of the payload could hold, so a hostile count cannot force a large
    /// allocation.
    pub(crate) fn seq<T>(
        &mut self,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n.min(self.remaining() / min_elem_bytes));
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    pub(crate) fn f32_vec(&mut self) -> Result<Vec<f32>, DecodeError> {
        self.seq(4, Self::f32)
    }

    pub(crate) fn f64_vec(&mut self) -> Result<Vec<f64>, DecodeError> {
        self.seq(8, Self::f64)
    }

    /// A presence byte `0`/`1`, then the value if present.
    pub(crate) fn opt_f64(&mut self, field: &'static str) -> Result<Option<f64>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(self.invalid(field)),
        }
    }

    /// Fails unless the payload was consumed exactly.
    pub(crate) fn finish(self) -> Result<(), DecodeError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(self.invalid("section length"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::DecodeError::*;
    use super::Section::{Layers, Optimizer, Plan, PlanProgram, Position, ShuffleRng};
    use super::*;

    fn reader(section: Section, bytes: &[u8]) -> Reader<'_> {
        Reader { section, bytes }
    }

    #[test]
    fn writer_emits_the_documented_frame() {
        let mut w = Writer::new();
        w.begin(Optimizer);
        w.u32(0xAABBCCDD);
        w.begin(Plan);
        w.str("plan text", "hi").unwrap();
        let header = *b"STCKPT\x01\x00\x01\x00\x00\x00";
        let optimizer = [4, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0xDD, 0xCC, 0xBB, 0xAA];
        let plan = [3, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, b'h', b'i'];
        let want = [&header[..], &[2, 0, 0, 0], &optimizer, &plan].concat();
        assert_eq!(w.finish(), want);
        assert_eq!(Writer::new().finish(), [&header[..], &[0, 0, 0, 0]].concat());
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.begin(Layers);
        w.u8(9);
        w.u64(u64::MAX - 1);
        w.f32(-0.0);
        w.f64(f64::INFINITY);
        w.str("s", "héllo").unwrap();
        w.bytes("b", &[0, 255]).unwrap();
        w.f32_slice("xs", &[1.5, f32::MIN_POSITIVE]).unwrap();
        w.f64_slice("ys", &[]).unwrap();
        w.opt_f64(Some(0.25));
        w.opt_f64(None);
        let bytes = w.finish();

        let sections = Sections::parse(&bytes).unwrap();
        assert_eq!(sections.present().collect::<Vec<_>>(), [Layers]);
        let mut r = sections.required(Layers).unwrap();
        assert_eq!(r.u8(), Ok(9));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f32().map(f32::to_bits), Ok((-0.0f32).to_bits()));
        assert_eq!(r.f64(), Ok(f64::INFINITY));
        assert_eq!(r.str("s").as_deref(), Ok("héllo"));
        assert_eq!(r.byte_vec(), Ok(vec![0, 255]));
        assert_eq!(r.f32_vec(), Ok(vec![1.5, f32::MIN_POSITIVE]));
        assert_eq!(r.f64_vec(), Ok(vec![]));
        assert_eq!(r.opt_f64("o"), Ok(Some(0.25)));
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.opt_f64("o"), Ok(None));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn hostile_primitive_values_are_typed() {
        // A count of `u32::MAX` over 8 bytes of payload: every counted primitive runs out of
        // input, having pre-sized for at most `remaining / width` elements, not for the count.
        let huge = [0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8];
        let truncated = TruncatedSection { section: Layers };
        assert_eq!(reader(Layers, &huge).f32_vec(), Err(truncated.clone()));
        assert_eq!(reader(Layers, &huge).f64_vec(), Err(truncated.clone()));
        assert_eq!(reader(Layers, &huge).byte_vec(), Err(truncated.clone()));
        assert_eq!(reader(Layers, &huge).str("s"), Err(truncated.clone()));
        assert_eq!(reader(Layers, &huge).seq(1, |r| r.u8()), Err(truncated));

        let invalid = |field| InvalidField {
            section: Layers,
            field,
        };
        let mut r = reader(Layers, &[1, 0, 0, 0, 0xFF, 2]);
        assert_eq!(r.str("name"), Err(invalid("name")), "not UTF-8");
        assert_eq!(r.opt_f64("presence"), Err(invalid("presence")), "presence byte 2");
    }

    #[test]
    fn count_overflow_on_encode_is_typed() {
        let mut w = Writer::new();
        w.begin(Plan);
        assert_eq!(w.count("ok", u32::MAX as usize), Ok(()));
        // Unrepresentable on a 32-bit target, where the overflow cannot occur either.
        if let Ok(value) = usize::try_from(u64::from(u32::MAX) + 1) {
            let err = w.count("plan text", value).unwrap_err();
            let want = EncodeError::FieldOverflow {
                section: Plan,
                field: "plan text",
                value,
            };
            assert_eq!(err, want);
            assert_eq!(
                err.to_string(),
                format!("section plan: field plan text value {value} exceeds wire width")
            );
        }
    }

    /// Every message in full: the strings a corrupt `.stck` file reports are part of the format.
    #[test]
    fn error_messages_name_the_document_and_region() {
        let names = [
            (Position, "position"),
            (ShuffleRng, "shuffle-rng"),
            (Plan, "plan"),
            (Optimizer, "optimizer"),
            (Layers, "layers"),
            (PlanProgram, "plan-program"),
        ];
        for (section, name) in names {
            let cases = [
                (
                    TruncatedSection { section },
                    format!("section {name} is truncated"),
                ),
                (
                    DuplicateSection { section },
                    format!("section {name} appears more than once"),
                ),
                (
                    MissingSection { section },
                    format!("mandatory section {name} is missing"),
                ),
                (
                    InvalidField {
                        section,
                        field: "layer name",
                    },
                    format!("section {name}: invalid value for field layer name"),
                ),
            ];
            for (err, want) in cases {
                assert_eq!((&err as &dyn Error).to_string(), want);
            }
        }
        let cases = [
            (TruncatedHeader, "snapshot shorter than its header"),
            (BadMagic, "bad snapshot magic (not an STCKPT file)"),
            (
                UnsupportedVersion(9),
                "unsupported snapshot version 9 (this build reads 1)",
            ),
            (UnknownSection { tag: 99 }, "unknown section tag 99"),
            (
                TrailingBytes { extra: 5 },
                "5 trailing byte(s) after the last section",
            ),
        ];
        for (err, want) in cases {
            assert_eq!((&err as &dyn Error).to_string(), want);
        }
    }
}
