//! The house binary container, written once.
//!
//! Every sectioned artifact this workspace reads (`.stck` snapshots, legacy `STPLAN` execution
//! programs) is the same frame around format-specific payloads (all integers little-endian,
//! floats as IEEE-754 bit patterns):
//!
//! ```text
//! header:   magic [u8; 8] | version u16 | reserved u16 | section_count u32
//! section:  tag u16 | reserved u16 | payload_len u64 | payload [u8; payload_len]
//! ```
//!
//! A format instantiates the frame by implementing [`SectionId`] for its section enum (magic,
//! version, tag table) and keeps only its payload field layout: [`Writer`] emits the header and
//! the section frames, [`Sections::parse`] checks the header and walks the frames, and
//! [`Reader`] decodes one payload. Decoding is strict and total — a bad magic or version, an
//! unknown, duplicate, missing or truncated section, trailing bytes, a payload not consumed
//! exactly: each is a typed [`DecodeError`] naming the region at fault. Hostile lengths are
//! checked before they are used and never size an allocation beyond the input; corrupt input
//! must never panic.

use std::error::Error;
use std::fmt;

const HEADER_BYTES: usize = 16;
const SECTION_HEADER_BYTES: usize = 12;

/// A format's identity and section table. Implementing it for the format's section enum
/// instantiates the container for that format.
pub trait SectionId: Copy + Eq + fmt::Debug + 'static {
    /// File magic: six ASCII bytes, a format epoch byte, NUL.
    const MAGIC: [u8; 8];
    /// The one format version this build reads and writes.
    const VERSION: u16;
    /// What error messages call a whole file of this format ("snapshot", "program").
    const DOCUMENT: &'static str;
    /// Every section this version knows: `(section, on-wire tag, name in error messages)`.
    const TABLE: &'static [(Self, u16, &'static str)];
}

fn tag_and_name<S: SectionId>(section: S) -> (u16, &'static str) {
    let row = S::TABLE.iter().find(|(s, ..)| *s == section);
    let (_, tag, name) = row.expect("every section is a row of its format's TABLE");
    (*tag, name)
}

/// Errors raised while encoding a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError<S> {
    /// A count or length exceeded the width reserved for it on the wire.
    FieldOverflow {
        section: S,
        field: &'static str,
        value: usize,
    },
}

impl<S: SectionId> fmt::Display for EncodeError<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let EncodeError::FieldOverflow {
            section,
            field,
            value,
        } = self;
        let (_, section) = tag_and_name(*section);
        write!(
            f,
            "section {section}: field {field} value {value} exceeds wire width"
        )
    }
}

impl<S: SectionId> Error for EncodeError<S> {}

/// Errors raised while decoding a container. Every variant names the region at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError<S> {
    /// Fewer bytes than the fixed header, or than a section header the count promised.
    TruncatedHeader,
    /// Header magic does not match [`SectionId::MAGIC`].
    BadMagic,
    /// Header version is not [`SectionId::VERSION`].
    UnsupportedVersion(u16),
    /// A section body ended before its declared content did.
    TruncatedSection { section: S },
    /// A section header declared a tag this version does not know.
    UnknownSection { tag: u16 },
    /// The same section appeared twice.
    DuplicateSection { section: S },
    /// A mandatory section was absent.
    MissingSection { section: S },
    /// Bytes remained after the last declared section.
    TrailingBytes { extra: usize },
    /// A field inside a section held an invalid value.
    InvalidField { section: S, field: &'static str },
}

impl<S: SectionId> fmt::Display for DecodeError<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let doc = S::DOCUMENT;
        let name = |section: &S| tag_and_name(*section).1;
        match self {
            DecodeError::TruncatedHeader => write!(f, "{doc} shorter than its header"),
            DecodeError::BadMagic => {
                let magic = String::from_utf8_lossy(&S::MAGIC[..6]);
                write!(f, "bad {doc} magic (not an {magic} file)")
            }
            DecodeError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported {doc} version {v} (this build reads {})",
                    S::VERSION
                )
            }
            DecodeError::TruncatedSection { section } => {
                write!(f, "section {} is truncated", name(section))
            }
            DecodeError::UnknownSection { tag } => write!(f, "unknown section tag {tag}"),
            DecodeError::DuplicateSection { section } => {
                write!(f, "section {} appears more than once", name(section))
            }
            DecodeError::MissingSection { section } => {
                write!(f, "mandatory section {} is missing", name(section))
            }
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the last section")
            }
            DecodeError::InvalidField { section, field } => {
                write!(f, "section {}: invalid value for field {field}", name(section))
            }
        }
    }
}

impl<S: SectionId> Error for DecodeError<S> {}

/// Builds one container file: [`Writer::begin`] opens a section, the primitive writers fill its
/// payload, [`Writer::finish`] returns the bytes. Sections are emitted in `begin` order.
pub struct Writer<S> {
    out: Vec<u8>,
    sections: u32,
    /// The section being written and the offset its payload starts at.
    open: Option<(S, usize)>,
}

impl<S: SectionId> Default for Writer<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: SectionId> Writer<S> {
    /// A container holding the header and no sections yet.
    pub fn new() -> Self {
        let mut out = Vec::new();
        out.extend_from_slice(&S::MAGIC);
        out.extend_from_slice(&S::VERSION.to_le_bytes());
        // Reserved u16, then the section count `finish` fills in.
        out.extend_from_slice(&[0u8; 6]);
        Writer {
            out,
            sections: 0,
            open: None,
        }
    }

    /// Closes the open section, if any, and opens `section`.
    pub fn begin(&mut self, section: S) {
        self.close();
        self.out.extend_from_slice(&tag_and_name(section).0.to_le_bytes());
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
    pub fn finish(mut self) -> Vec<u8> {
        self.close();
        self.out[12..HEADER_BYTES].copy_from_slice(&self.sections.to_le_bytes());
        self.out
    }

    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A `u32` element count or byte length.
    pub fn count(&mut self, field: &'static str, n: usize) -> Result<(), EncodeError<S>> {
        let v = u32::try_from(n).map_err(|_| EncodeError::FieldOverflow {
            section: self.open.expect("Writer::begin precedes every payload write").0,
            field,
            value: n,
        })?;
        self.u32(v);
        Ok(())
    }

    pub fn str(&mut self, field: &'static str, s: &str) -> Result<(), EncodeError<S>> {
        self.bytes(field, s.as_bytes())
    }

    pub fn bytes(&mut self, field: &'static str, xs: &[u8]) -> Result<(), EncodeError<S>> {
        self.count(field, xs.len())?;
        self.out.extend_from_slice(xs);
        Ok(())
    }

    pub fn f32_slice(&mut self, field: &'static str, xs: &[f32]) -> Result<(), EncodeError<S>> {
        self.count(field, xs.len())?;
        xs.iter().for_each(|&x| self.f32(x));
        Ok(())
    }

    pub fn f64_slice(&mut self, field: &'static str, xs: &[f64]) -> Result<(), EncodeError<S>> {
        self.count(field, xs.len())?;
        xs.iter().for_each(|&x| self.f64(x));
        Ok(())
    }

    /// A presence byte `0`/`1`, then the value if present.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        self.u8(v.is_some() as u8);
        if let Some(x) = v {
            self.f64(x);
        }
    }
}

/// The sections of one parsed container file, in file order. Parsing checks the whole frame;
/// the payloads are still undecoded bytes, read through [`Sections::required`] /
/// [`Sections::optional`].
pub struct Sections<'a, S> {
    found: Vec<(S, &'a [u8])>,
}

impl<'a, S: SectionId> Sections<'a, S> {
    /// Checks the header and walks the section frames.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, DecodeError<S>> {
        let (header, mut rest) = bytes
            .split_first_chunk::<HEADER_BYTES>()
            .ok_or(DecodeError::TruncatedHeader)?;
        if header[..8] != S::MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != S::VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let section_count = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);

        let mut found: Vec<(S, &[u8])> = Vec::with_capacity(S::TABLE.len());
        for _ in 0..section_count {
            // A short section header cannot say which section it belonged to.
            let (head, body) = rest
                .split_first_chunk::<SECTION_HEADER_BYTES>()
                .ok_or(DecodeError::TruncatedHeader)?;
            let tag = u16::from_le_bytes([head[0], head[1]]);
            let known = S::TABLE.iter().find(|(_, t, _)| *t == tag);
            let section = known.ok_or(DecodeError::UnknownSection { tag })?.0;
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
    pub fn present(&self) -> impl Iterator<Item = S> + '_ {
        self.found.iter().map(|(section, _)| *section)
    }

    /// A reader over `section`'s payload, if the file has that section.
    pub fn optional(&self, section: S) -> Option<Reader<'a, S>> {
        let (_, bytes) = self.found.iter().find(|(have, _)| *have == section)?;
        Some(Reader { section, bytes })
    }

    /// A reader over a mandatory section's payload.
    pub fn required(&self, section: S) -> Result<Reader<'a, S>, DecodeError<S>> {
        self.optional(section)
            .ok_or(DecodeError::MissingSection { section })
    }
}

/// Decodes one section payload front to back; [`Reader::finish`] checks it was consumed exactly.
pub struct Reader<'a, S> {
    section: S,
    bytes: &'a [u8],
}

impl<'a, S: SectionId> Reader<'a, S> {
    /// The error for a `field` of this section holding an invalid value.
    pub fn invalid(&self, field: &'static str) -> DecodeError<S> {
        DecodeError::InvalidField {
            section: self.section,
            field,
        }
    }

    /// Payload bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError<S>> {
        let section = self.section;
        let split = self.bytes.split_at_checked(n);
        let (head, tail) = split.ok_or(DecodeError::TruncatedSection { section })?;
        self.bytes = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError<S>> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError<S>> {
        Ok(self.array::<1>()?[0])
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError<S>> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError<S>> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn f32(&mut self) -> Result<f32, DecodeError<S>> {
        Ok(f32::from_bits(self.u32()?))
    }

    pub fn f64(&mut self) -> Result<f64, DecodeError<S>> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32` element count or byte length. Lossless: `usize` is at least 32 bits wide here.
    pub fn count(&mut self) -> Result<usize, DecodeError<S>> {
        Ok(self.u32()? as usize)
    }

    pub fn str(&mut self, field: &'static str) -> Result<String, DecodeError<S>> {
        String::from_utf8(self.byte_vec()?).map_err(|_| self.invalid(field))
    }

    pub fn byte_vec(&mut self) -> Result<Vec<u8>, DecodeError<S>> {
        let n = self.count()?;
        Ok(self.take(n)?.to_vec())
    }

    /// A `count`, then that many elements read by `elem`. `min_elem_bytes` is the fewest bytes
    /// (at least one) an element occupies on the wire: the vector is pre-sized to no more elements than the
    /// rest of the payload could hold, so a hostile count cannot force a large allocation.
    pub fn seq<T>(
        &mut self,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, DecodeError<S>>,
    ) -> Result<Vec<T>, DecodeError<S>> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n.min(self.remaining() / min_elem_bytes));
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    pub fn f32_vec(&mut self) -> Result<Vec<f32>, DecodeError<S>> {
        self.seq(4, Self::f32)
    }

    pub fn f64_vec(&mut self) -> Result<Vec<f64>, DecodeError<S>> {
        self.seq(8, Self::f64)
    }

    /// A presence byte `0`/`1`, then the value if present.
    pub fn opt_f64(&mut self, field: &'static str) -> Result<Option<f64>, DecodeError<S>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(self.invalid(field)),
        }
    }

    /// Fails unless the payload was consumed exactly.
    pub fn finish(self) -> Result<(), DecodeError<S>> {
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
    use super::*;

    /// A two-section toy format: `Head` (mandatory) carries one `u32`, `Body` (optional) one string.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Toy {
        Head,
        Body,
    }
    use Toy::{Body, Head};

    impl SectionId for Toy {
        const MAGIC: [u8; 8] = *b"STTOYS\x01\x00";
        const VERSION: u16 = 3;
        const DOCUMENT: &'static str = "toy";
        const TABLE: &'static [(Self, u16, &'static str)] = &[(Head, 1, "head"), (Body, 7, "body")];
    }

    fn decode(bytes: &[u8]) -> Result<(u32, Option<String>), DecodeError<Toy>> {
        let sections = Sections::<Toy>::parse(bytes)?;
        let mut r = sections.required(Head)?;
        let head = r.u32()?;
        r.finish()?;
        let mut text = None;
        if let Some(mut r) = sections.optional(Body) {
            text = Some(r.str("text")?);
            r.finish()?;
        }
        Ok((head, text))
    }

    const HEADER: [u8; 12] = *b"STTOYS\x01\x00\x03\x00\x00\x00";
    const HEAD: [u8; 16] = [1, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0xDD, 0xCC, 0xBB, 0xAA];
    const BODY: [u8; 18] = [7, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, b'h', b'i'];

    /// A file with a good header declaring `count` sections, then `parts` verbatim.
    fn file(count: u32, parts: &[&[u8]]) -> Vec<u8> {
        [&HEADER[..], &count.to_le_bytes()[..], &parts.concat()[..]].concat()
    }

    /// `file` with the byte at `at` replaced.
    fn patched(at: usize, byte: u8) -> Vec<u8> {
        let mut bytes = file(2, &[&HEAD, &BODY]);
        bytes[at] = byte;
        bytes
    }

    fn body_reader(bytes: &[u8]) -> Reader<'_, Toy> {
        Reader { section: Body, bytes }
    }

    #[test]
    fn writer_emits_the_documented_frame() {
        let mut w = Writer::new();
        w.begin(Head);
        w.u32(0xAABBCCDD);
        w.begin(Body);
        w.str("text", "hi").unwrap();
        let good = file(2, &[&HEAD, &BODY]);
        assert_eq!(w.finish(), good);
        assert_eq!(Writer::<Toy>::new().finish(), file(0, &[]));
        let hi = Some("hi".to_string());
        assert_eq!(decode(&good), Ok((0xAABBCCDD, hi.clone())));
        // Section order is not significant to the decoder; an optional section may be absent.
        assert_eq!(decode(&file(2, &[&BODY, &HEAD])), Ok((0xAABBCCDD, hi)));
        assert_eq!(decode(&file(1, &[&HEAD])), Ok((0xAABBCCDD, None)));
    }

    #[test]
    fn framing_corruption_is_typed() {
        let good = file(2, &[&HEAD, &BODY]);
        let truncated = |section| TruncatedSection { section };
        let unconsumed = InvalidField {
            section: Head,
            field: "section length",
        };
        let cases: Vec<(&str, Vec<u8>, DecodeError<Toy>)> = vec![
            ("empty input", vec![], TruncatedHeader),
            ("short header", good[..15].to_vec(), TruncatedHeader),
            ("flipped magic", patched(0, 0xAC), BadMagic),
            ("another format epoch", patched(6, 2), BadMagic),
            ("wrong version", patched(8, 0x7F), UnsupportedVersion(0x7F)),
            // A section header cut short cannot name its section.
            ("short section header", good[..16 + 11].to_vec(), TruncatedHeader),
            (
                "count promises a third section",
                file(3, &[&HEAD, &BODY]),
                TruncatedHeader,
            ),
            ("payload cut short", good[..16 + 12 + 3].to_vec(), truncated(Head)),
            (
                "last byte missing",
                good[..good.len() - 1].to_vec(),
                truncated(Body),
            ),
            ("unknown tag", patched(17, 0xEE), UnknownSection { tag: 0xEE01 }),
            (
                "duplicate tag",
                file(2, &[&HEAD, &HEAD]),
                DuplicateSection { section: Head },
            ),
            (
                "missing mandatory tag",
                file(1, &[&BODY]),
                MissingSection { section: Head },
            ),
            (
                "trailing bytes",
                file(2, &[&HEAD, &BODY, b"junk"]),
                TrailingBytes { extra: 4 },
            ),
            (
                "section beyond the count",
                file(1, &[&HEAD, &BODY]),
                TrailingBytes { extra: 18 },
            ),
            // Lengths no input can back: `u64::MAX`, and one whose low 32 bits alone (4) would
            // fit what follows — a cast that wrapped on a 32-bit target would accept it.
            (
                "length u64::MAX",
                file(1, &[&[1, 0, 0, 0], &[0xFF; 8], &[0; 4]]),
                truncated(Head),
            ),
            ("length 2^32 + 4", patched(16 + 8, 1), truncated(Head)),
            // `Head` declares 5 bytes, one more than its field: not consumed exactly.
            (
                "payload longer than its fields",
                file(1, &[&patched(20, 5)[16..33]]),
                unconsumed,
            ),
        ];
        for (what, bytes, want) in cases {
            assert_eq!(decode(&bytes), Err(want), "{what}");
        }
        // Every strict prefix fails; none panics.
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.begin(Body);
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

        let sections = Sections::<Toy>::parse(&bytes).unwrap();
        assert_eq!(sections.present().collect::<Vec<_>>(), [Body]);
        let mut r = sections.required(Body).unwrap();
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
        let truncated = TruncatedSection { section: Body };
        assert_eq!(body_reader(&huge).f32_vec(), Err(truncated.clone()));
        assert_eq!(body_reader(&huge).f64_vec(), Err(truncated.clone()));
        assert_eq!(body_reader(&huge).byte_vec(), Err(truncated.clone()));
        assert_eq!(body_reader(&huge).str("s"), Err(truncated.clone()));
        assert_eq!(body_reader(&huge).seq(1, |r| r.u8()), Err(truncated));

        let invalid = |field| InvalidField { section: Body, field };
        let mut r = body_reader(&[1, 0, 0, 0, 0xFF, 2]);
        assert_eq!(r.str("name"), Err(invalid("name")), "not UTF-8");
        assert_eq!(r.opt_f64("presence"), Err(invalid("presence")), "presence byte 2");
    }

    #[test]
    fn count_overflow_on_encode_is_typed() {
        let mut w = Writer::new();
        w.begin(Body);
        assert_eq!(w.count("ok", u32::MAX as usize), Ok(()));
        // Unrepresentable on a 32-bit target, where the overflow cannot occur either.
        if let Ok(value) = usize::try_from(u64::from(u32::MAX) + 1) {
            let err = w.count("entries", value).unwrap_err();
            let want = EncodeError::FieldOverflow {
                section: Body,
                field: "entries",
                value,
            };
            assert_eq!(err, want);
            assert!(err.to_string().contains("section body: field entries"), "{err}");
        }
    }

    #[test]
    fn error_messages_name_the_document_and_region() {
        let cases: [(DecodeError<Toy>, &str); 9] = [
            (TruncatedHeader, "toy shorter"),
            (BadMagic, "not an STTOYS file"),
            (UnsupportedVersion(9), "version 9 (this build reads 3)"),
            (TruncatedSection { section: Head }, "section head is truncated"),
            (UnknownSection { tag: 99 }, "tag 99"),
            (DuplicateSection { section: Body }, "section body appears"),
            (MissingSection { section: Head }, "section head is missing"),
            (TrailingBytes { extra: 5 }, "5 trailing"),
            (
                InvalidField {
                    section: Body,
                    field: "text",
                },
                "section body: invalid value for field text",
            ),
        ];
        for (err, needle) in cases {
            let shown = (&err as &dyn Error).to_string();
            assert!(shown.contains(needle), "{shown:?} lacks {needle:?}");
        }
    }
}
