//! In-memory spans recorded from outside the program, around the calls
//! into each layer. Kept in memory and written out when the run ends.

use crate::json::Json;
use crate::stats::covered;
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One timed interval: what ran, when, caused by which span, in which
/// optimizer step (all spans of one step share `step`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    /// `"step"`, `"phase"`, `"forward"` or `"backward"`.
    pub op: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub step: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    /// Spans opened by the coordinating thread and not yet closed.
    open: Vec<SpanId>,
    step: u64,
}

/// Collects spans from the coordinating thread (nested, via
/// [`Recorder::open`] / [`Recorder::close`]) and from any thread running a
/// wrapped layer (leaves, via [`Recorder::leaf`]).
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl Recorder {
    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        // Every update leaves the vectors valid, so a panic elsewhere while
        // the lock was held does not make the spans unusable.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next optimizer step: later spans carry its number.
    pub fn next_step(&self) {
        self.state().step += 1;
    }

    /// Opens a span nested in the innermost open one. Only the thread
    /// driving the training loop opens spans.
    pub fn open(&self, name: &str, op: &'static str) -> SpanId {
        let now = self.now_ns();
        let mut st = self.state();
        let id = st.spans.len();
        let span = Span {
            name: name.to_string(),
            op,
            start_ns: now,
            end_ns: now,
            parent: st.open.last().copied(),
            step: st.step,
        };
        st.spans.push(span);
        st.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&self, id: SpanId) {
        let now = self.now_ns();
        let mut st = self.state();
        assert_eq!(
            st.open.pop(),
            Some(id),
            "spans close in the reverse order they open"
        );
        st.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn within<T>(&self, name: &str, op: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, op);
        let out = f();
        self.close(id);
        out
    }

    /// Runs `f` as a leaf span under whatever span is open now. Safe from
    /// worker threads: a shard worker's layer calls land under the
    /// coordinator's `run_step` span.
    pub fn leaf<T>(&self, name: &str, op: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let mut st = self.state();
        let span = Span {
            name: name.to_string(),
            op,
            start_ns,
            end_ns,
            parent: st.open.last().copied(),
            step: st.step,
        };
        st.spans.push(span);
        out
    }

    /// All spans recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children of parallel workers overlap and count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            // A worker's span may straddle its parent's end by a few
            // nanoseconds of clock skew; only the overlap is the parent's.
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.ns() - covered(kids))
        .collect()
}

/// Writes one JSON object per span and line. Ids and parents count within
/// one workload's spans.
pub fn write_jsonl(workload: &str, spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    for (id, span) in spans.iter().enumerate() {
        let line = Json::obj([
            ("workload", Json::str(workload)),
            ("id", Json::Num(id as f64)),
            ("name", Json::str(span.name.as_str())),
            ("op", Json::str(span.op)),
            ("start_ns", Json::Num(span.start_ns as f64)),
            ("end_ns", Json::Num(span.end_ns as f64)),
            ("parent", span.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
            ("step", Json::Num(span.step as f64)),
        ]);
        writeln!(out, "{line}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.to_string(),
            op: "phase",
            start_ns,
            end_ns,
            parent,
            step: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("step", 0, 100, None),
            span("forward", 10, 50, Some(0)),
            span("conv1", 12, 30, Some(1)),
            span("relu1", 30, 44, Some(1)),
            span("backward", 55, 95, Some(0)),
        ];
        // step: 100 - (40 + 40); forward: 40 - (18 + 14); leaves keep all.
        assert_eq!(self_times(&spans), vec![20, 8, 18, 14, 40]);
    }

    #[test]
    fn parallel_children_count_once_and_are_clipped_to_the_parent() {
        let spans = vec![
            span("run_step", 100, 200, None),
            span("worker0.conv", 110, 160, Some(0)),
            span("worker1.conv", 120, 170, Some(0)),
            span("worker1.late", 190, 205, Some(0)),
        ];
        // Union of [110,170) and [190,200) = 70 of the parent's 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_links_children_to_the_open_span() {
        let rec = Recorder::default();
        rec.next_step();
        let step = rec.open("step", "step");
        let out = rec.within("forward", "phase", || rec.leaf("conv1", "forward", || 7));
        assert_eq!(out, 7);
        rec.close(step);
        rec.leaf("orphan", "forward", || ());
        let spans = rec.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["step", "forward", "conv1", "orphan"]);
        assert_eq!(
            spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), None]
        );
        assert!(spans.iter().all(|s| s.step == 1 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let spans = vec![span("a\"b", 1, 5, None), span("c", 2, 3, Some(0))];
        let mut out = Vec::new();
        write_jsonl("w", &spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("name").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(first.get("parent"), Some(&Json::Null));
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").and_then(Json::as_f64), Some(0.0));
    }
}
