//! Plain-text serialization of network traces.
//!
//! Traces captured from a training run can be saved and re-simulated later
//! (or shared) without re-running training. The format is a line-oriented
//! text format — human-inspectable, dependency-free, and stable:
//!
//! ```text
//! sparsetrain-trace v1
//! model <name>
//! dataset <name>
//! conv <name> <k> <stride> <pad> <filters> <C> <H> <W> <needs_input_grad>
//! row <nnz> <off:val> <off:val> ...     # C*H input rows
//! dout <F> <Ho> <Wo>
//! row <nnz> ...                          # F*Ho gradient rows
//! fc <name> <in> <out> <in_nnz> <dout_nnz> <mask_nnz> <needs_input_grad>
//! end
//! ```
//!
//! Masks are not stored separately: they are reconstructed from the input
//! rows' offsets (which is exactly how the hardware treats them).

use super::trace::{
    checked_output_shape, ConvLayerTrace, FcLayerTrace, LayerTrace, NetworkTrace, TraceErrorKind,
};
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::SparseRow;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::Tensor3;
use std::fmt::{self, Write as _};
use std::str::SplitWhitespace;

const HEADER: &str = "sparsetrain-trace v1";

/// Serializes a trace to the text format.
pub fn to_text(trace: &NetworkTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    let _ = writeln!(out, "model {}", trace.model);
    let _ = writeln!(out, "dataset {}", trace.dataset);
    for layer in &trace.layers {
        match layer {
            LayerTrace::Conv(c) => {
                let _ = writeln!(
                    out,
                    "conv {} {} {} {} {} {} {} {} {}",
                    c.name,
                    c.geom.kernel,
                    c.geom.stride,
                    c.geom.pad,
                    c.filters,
                    c.input.channels(),
                    c.input.height(),
                    c.input.width(),
                    c.needs_input_grad as u8
                );
                for ci in 0..c.input.channels() {
                    for y in 0..c.input.height() {
                        write_row(&mut out, c.input.row(ci, y));
                    }
                }
                let _ = writeln!(
                    out,
                    "dout {} {} {}",
                    c.dout.channels(),
                    c.dout.height(),
                    c.dout.width()
                );
                for fi in 0..c.dout.channels() {
                    for y in 0..c.dout.height() {
                        write_row(&mut out, c.dout.row(fi, y));
                    }
                }
            }
            LayerTrace::Fc(f) => {
                let _ = writeln!(
                    out,
                    "fc {} {} {} {} {} {} {}",
                    f.name,
                    f.in_features,
                    f.out_features,
                    f.input_nnz,
                    f.dout_nnz,
                    f.mask_nnz,
                    f.needs_input_grad as u8
                );
            }
        }
    }
    out.push_str("end\n");
    out
}

fn write_row(out: &mut String, row: SparseRow<'_>) {
    let _ = write!(out, "row {}", row.nnz());
    for (o, v) in row.iter() {
        let _ = write!(out, " {o}:{v}");
    }
    out.push('\n');
}

/// What was wrong with the line a [`TraceParseError`] points at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceParseErrorKind {
    /// The input ended where another line was required (`end` included).
    UnexpectedEnd,
    /// The first line is not `sparsetrain-trace v1`.
    BadHeader,
    /// The line lacks what is required here: an opening keyword, a directive, a layer name.
    Expected(&'static str),
    /// A token is not a number (or not an `offset:value` pair).
    BadNumber,
    /// The line carries the wrong number of numeric fields.
    WrongArity { expected: usize, found: usize },
    /// A row offset lies outside the declared row width.
    OffsetOutOfRange { offset: usize, width: usize },
    /// A row lists a different number of non-zeros than it declares.
    NnzMismatch { declared: usize, listed: usize },
    /// A `conv` or `dout` line whose numbers parse but cannot describe a
    /// layer: a zero kernel or stride, a kernel larger than the padded
    /// input, or a `dout` shape the geometry does not produce.
    Inconsistent(TraceErrorKind),
}

/// A malformed trace: the 1-based line at fault and what was wrong with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceParseError {
    /// 1-based line number (one past the last line when the input ended early).
    pub line: usize,
    /// What was wrong with that line.
    pub kind: TraceParseErrorKind,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TraceParseErrorKind::*;
        write!(f, "trace line {}: ", self.line)?;
        match self.kind {
            UnexpectedEnd => write!(f, "input ended, more lines expected"),
            BadHeader => write!(f, "unrecognized header (expected `{HEADER}`)"),
            Expected(what) => write!(f, "expected {what}"),
            BadNumber => write!(f, "malformed number"),
            WrongArity { expected, found } => write!(f, "expected {expected} numbers, got {found}"),
            OffsetOutOfRange { offset, width } => write!(f, "offset {offset} out of range {width}"),
            NnzMismatch { declared, listed } => {
                write!(f, "row declared {declared} non-zeros but listed {listed}")
            }
            Inconsistent(kind) => write!(f, "{kind}"),
        }
    }
}

impl std::error::Error for TraceParseError {}

/// The input's lines with the number of the one last handed out.
struct Cursor<'a> {
    lines: std::str::Lines<'a>,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, kind: TraceParseErrorKind) -> TraceParseError {
        TraceParseError {
            line: self.line,
            kind,
        }
    }

    /// The next line, which must exist.
    fn next(&mut self) -> Result<&'a str, TraceParseError> {
        self.line += 1;
        self.lines
            .next()
            .ok_or_else(|| self.err(TraceParseErrorKind::UnexpectedEnd))
    }

    /// The tokens after the `keyword` the next line must open with.
    fn expect(&mut self, keyword: &'static str) -> Result<SplitWhitespace<'a>, TraceParseError> {
        let mut parts = self.next()?.split_whitespace();
        if parts.next() == Some(keyword) {
            Ok(parts)
        } else {
            Err(self.err(TraceParseErrorKind::Expected(keyword)))
        }
    }

    /// The rest of the next line, which must open with `key` (names may hold spaces).
    fn value_of(&mut self, key: &'static str) -> Result<String, TraceParseError> {
        let rest = self.next()?.strip_prefix(key);
        let rest = rest.ok_or_else(|| self.err(TraceParseErrorKind::Expected(key)))?;
        Ok(rest.trim().to_string())
    }

    fn number<T: std::str::FromStr>(&self, token: &str) -> Result<T, TraceParseError> {
        token
            .parse()
            .map_err(|_| self.err(TraceParseErrorKind::BadNumber))
    }

    /// Exactly `N` numbers: the remaining tokens of the current line.
    fn numbers<const N: usize>(&self, parts: SplitWhitespace<'a>) -> Result<[usize; N], TraceParseError> {
        let nums = parts.map(|p| self.number(p)).collect::<Result<Vec<usize>, _>>()?;
        let found = nums.len();
        nums.try_into()
            .map_err(|_| self.err(TraceParseErrorKind::WrongArity { expected: N, found }))
    }
}

/// Parses a trace from the text format.
///
/// # Errors
///
/// Returns the first malformed line, by 1-based number, and what was wrong with it.
pub fn from_text(text: &str) -> Result<NetworkTrace, TraceParseError> {
    use TraceParseErrorKind::*;
    let mut cur = Cursor {
        lines: text.lines(),
        line: 0,
    };
    if cur.next()? != HEADER {
        return Err(cur.err(BadHeader));
    }
    let model = cur.value_of("model")?;
    let dataset = cur.value_of("dataset")?;
    let mut trace = NetworkTrace::new(model, dataset);

    loop {
        let mut parts = cur.next()?.split_whitespace();
        match parts.next() {
            Some("end") => return Ok(trace),
            Some("conv") => {
                let name = parts
                    .next()
                    .ok_or_else(|| cur.err(Expected("layer name")))?
                    .to_string();
                let [kernel, stride, pad, filters, c, h, w, nig] = cur.numbers(parts)?;
                let conv_line = cur.line;
                // A literal, not `ConvGeometry::new`, which asserts what
                // `checked_output_shape` reports as an error.
                let geom = ConvGeometry { kernel, stride, pad };
                let (eh, ew) = checked_output_shape(&geom, h, w).map_err(|k| cur.err(Inconsistent(k)))?;
                let input = read_map(&mut cur, c, h, w)?;
                let dout_header = cur.expect("dout")?;
                let [f, ho, wo] = cur.numbers(dout_header)?;
                if f != filters {
                    return Err(cur.err(Inconsistent(TraceErrorKind::DoutChannels { dout: f, filters })));
                }
                if (ho, wo) != (eh, ew) {
                    return Err(cur.err(Inconsistent(TraceErrorKind::DoutShape {
                        dout: (ho, wo),
                        expected: (eh, ew),
                    })));
                }
                let dout = read_map(&mut cur, f, ho, wo)?;
                let needs_input_grad = nig != 0;
                let input_masks = if needs_input_grad {
                    input.masks()
                } else {
                    Vec::new()
                };
                let layer = ConvLayerTrace {
                    name,
                    geom,
                    filters,
                    input,
                    input_masks,
                    dout,
                    needs_input_grad,
                };
                layer.validate().map_err(|e| TraceParseError {
                    line: conv_line,
                    kind: Inconsistent(e.kind),
                })?;
                trace.layers.push(LayerTrace::Conv(layer));
            }
            Some("fc") => {
                let name = parts
                    .next()
                    .ok_or_else(|| cur.err(Expected("layer name")))?
                    .to_string();
                let [in_features, out_features, input_nnz, dout_nnz, mask_nnz, nig] = cur.numbers(parts)?;
                trace.layers.push(LayerTrace::Fc(FcLayerTrace {
                    name,
                    in_features,
                    out_features,
                    input_nnz,
                    dout_nnz,
                    mask_nnz,
                    needs_input_grad: nig != 0,
                }));
            }
            Some(_) => return Err(cur.err(Expected("conv, fc or end"))),
            None => continue,
        }
    }
}

fn read_map(cur: &mut Cursor<'_>, c: usize, h: usize, w: usize) -> Result<SparseFeatureMap, TraceParseError> {
    use TraceParseErrorKind::*;
    let mut dense = Tensor3::zeros(c, h, w);
    for ci in 0..c {
        for y in 0..h {
            let mut parts = cur.expect("row")?;
            let declared: usize = cur.number(parts.next().ok_or_else(|| cur.err(BadNumber))?)?;
            let mut listed = 0usize;
            for pair in parts {
                let (o, v) = pair.split_once(':').ok_or_else(|| cur.err(BadNumber))?;
                let offset: usize = cur.number(o)?;
                let v: f32 = cur.number(v)?;
                if offset >= w {
                    return Err(cur.err(OffsetOutOfRange { offset, width: w }));
                }
                dense.set(ci, y, offset, v);
                listed += 1;
            }
            if listed != declared {
                return Err(cur.err(NnzMismatch { declared, listed }));
            }
        }
    }
    Ok(SparseFeatureMap::from_tensor(&dense))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> NetworkTrace {
        let input = Tensor3::from_fn(2, 3, 4, |c, y, x| {
            if (c + y + x) % 2 == 0 {
                (c + y) as f32 + 0.5
            } else {
                0.0
            }
        });
        let dout = Tensor3::from_fn(2, 3, 4, |c, y, x| if (c * y + x) % 3 == 0 { -1.25 } else { 0.0 });
        let fm = SparseFeatureMap::from_tensor(&input);
        let masks = fm.masks();
        let mut t = NetworkTrace::new("testnet", "testdata");
        t.layers.push(LayerTrace::Conv(ConvLayerTrace {
            name: "c1".into(),
            geom: ConvGeometry::new(3, 1, 1),
            filters: 2,
            input: fm,
            input_masks: masks,
            dout: SparseFeatureMap::from_tensor(&dout),
            needs_input_grad: true,
        }));
        t.layers.push(LayerTrace::Fc(FcLayerTrace {
            name: "fc".into(),
            in_features: 24,
            out_features: 10,
            input_nnz: 12,
            dout_nnz: 10,
            mask_nnz: 12,
            needs_input_grad: true,
        }));
        t
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let orig = sample_trace();
        let text = to_text(&orig);
        let parsed = from_text(&text).expect("parse");
        assert_eq!(parsed.model, orig.model);
        assert_eq!(parsed.dataset, orig.dataset);
        assert_eq!(parsed.layers.len(), orig.layers.len());
        assert_eq!(parsed.dense_macs(), orig.dense_macs());
        assert!(parsed.validate().is_ok());
        // Round-trip again: text form must be stable.
        assert_eq!(to_text(&parsed), text);
    }

    #[test]
    fn roundtrip_preserves_sparsity_exactly() {
        let orig = sample_trace();
        let parsed = from_text(&to_text(&orig)).unwrap();
        let (LayerTrace::Conv(a), LayerTrace::Conv(b)) = (&orig.layers[0], &parsed.layers[0]) else {
            panic!("expected conv layers");
        };
        assert_eq!(a.input.nnz(), b.input.nnz());
        assert_eq!(a.dout.nnz(), b.dout.nnz());
        assert_eq!(a.input.to_tensor(), b.input.to_tensor());
    }

    #[test]
    fn rejects_bad_header() {
        assert!(from_text("not-a-trace\n").is_err());
    }

    #[test]
    fn rejects_truncated_input() {
        let text = to_text(&sample_trace());
        let truncated = &text[..text.len() / 2];
        assert!(from_text(truncated).is_err());
    }

    #[test]
    fn rejects_nnz_mismatch() {
        let text = "sparsetrain-trace v1\nmodel m\ndataset d\nconv c 1 1 0 1 1 1 2 1\nrow 2 0:1.0\ndout 1 1 2\nrow 0\nrow 0\nend\n";
        let err = from_text(text).unwrap_err();
        // The malformed row is the fifth line: declared 2 non-zeros, listed 1.
        assert_eq!(err.line, 5);
        assert_eq!(
            err.kind,
            TraceParseErrorKind::NnzMismatch {
                declared: 2,
                listed: 1
            }
        );
        assert!(err.to_string().contains("line 5") && err.to_string().contains("declared"));
    }

    /// The error `from_text` returns for a one-conv trace whose `conv`
    /// line carries `geometry` (`k stride pad filters C H W`) and whose
    /// `dout` line carries `dout`; every row is empty.
    fn conv_error(geometry: &str, dout: &str) -> TraceParseError {
        let nums = |s: &str| s.split(' ').map(|n| n.parse().unwrap()).collect::<Vec<usize>>();
        let (g, d) = (nums(geometry), nums(dout));
        let rows = |n: usize| "row 0\n".repeat(n);
        let text = format!(
            "sparsetrain-trace v1\nmodel m\ndataset d\nconv c {geometry} 1\n{}dout {dout}\n{}end\n",
            rows(g[4] * g[5]),
            rows(d[0] * d[1])
        );
        from_text(&text).unwrap_err()
    }

    #[test]
    fn rejects_zero_kernel_or_stride() {
        for (geometry, quantity) in [("1 0 0 1 1 1 2", "stride"), ("0 1 0 1 1 1 2", "kernel")] {
            let err = conv_error(geometry, "1 1 2");
            assert_eq!(err.line, 4);
            assert_eq!(
                err.kind,
                TraceParseErrorKind::Inconsistent(TraceErrorKind::NotPositive { quantity })
            );
        }
    }

    #[test]
    fn rejects_kernel_larger_than_padded_input() {
        let err = conv_error("3 1 0 1 1 1 2", "1 1 1");
        assert_eq!(err.line, 4);
        assert_eq!(
            err.kind,
            TraceParseErrorKind::Inconsistent(TraceErrorKind::KernelExceedsInput { kernel: 3, extent: 1 })
        );
        assert!(err.to_string().contains("kernel 3 larger than input extent 1"));
    }

    #[test]
    fn rejects_dout_shape_the_geometry_does_not_produce() {
        let err = conv_error("1 1 0 1 1 1 2", "1 1 3");
        // The `dout` line follows the conv line and its one input row.
        assert_eq!(err.line, 6);
        assert_eq!(
            err.kind,
            TraceParseErrorKind::Inconsistent(TraceErrorKind::DoutShape {
                dout: (1, 3),
                expected: (1, 2)
            })
        );
        let err = conv_error("1 1 0 1 1 1 2", "2 1 2");
        assert_eq!(
            err.kind,
            TraceParseErrorKind::Inconsistent(TraceErrorKind::DoutChannels { dout: 2, filters: 1 })
        );
    }

    #[test]
    fn empty_network_roundtrips() {
        let t = NetworkTrace::new("empty", "none");
        let parsed = from_text(&to_text(&t)).unwrap();
        assert!(parsed.layers.is_empty());
    }
}
