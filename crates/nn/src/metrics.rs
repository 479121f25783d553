//! Per-epoch training metrics and early stopping.
//!
//! `Trainer::train` records one [`MetricRecord`] per epoch into a
//! [`MetricStore`] (optionally appended to a jsonl file) and polls its
//! [`StopCondition`]s after every epoch; the supervisor logs each
//! recovery it makes into the same store as a [`RecoveryRecord`].
//!
//! # Example
//!
//! ```
//! use sparsetrain_nn::metrics::{MetricRecord, Patience, StopCondition};
//!
//! let epoch = |epoch, loss| MetricRecord {
//!     epoch,
//!     loss,
//!     accuracy: 0.5,
//!     val_loss: None,
//!     val_accuracy: None,
//!     rho_nnz: Some(0.25),
//! };
//! assert_eq!(
//!     epoch(1, 0.5).to_jsonl(),
//!     "{\"epoch\":1,\"loss\":0.5,\"accuracy\":0.5,\"rho_nnz\":0.25}"
//! );
//! let mut stop = Patience::new(1);
//! assert_eq!(stop.check(&epoch(1, 0.5)), None);
//! assert!(stop.check(&epoch(2, 0.5)).is_some()); // no improvement
//! ```

/// One epoch's training metrics, as recorded by `Trainer::train`.
///
/// `epoch` counts completed epochs (1-based), monotone across a
/// checkpoint resume. Optional fields are omitted from the jsonl line when
/// absent, so a resumed run's trajectory stays byte-identical to the
/// uninterrupted run's.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRecord {
    /// Completed-epoch count (1-based).
    pub epoch: u64,
    /// Mean training loss over the epoch.
    pub loss: f64,
    /// Training accuracy over the epoch.
    pub accuracy: f64,
    /// Validation loss, when a validation set was supplied.
    pub val_loss: Option<f64>,
    /// Validation accuracy, when a validation set was supplied.
    pub val_accuracy: Option<f64>,
    /// Mean activation-gradient density ρ_nnz over the convolutions' `dO`
    /// (`Trainer::mean_grad_density`).
    pub rho_nnz: Option<f64>,
}

impl MetricRecord {
    /// Renders the record as one JSON object per line, in the same style as
    /// the bench trajectory (`target/bench-results.jsonl`): fixed key
    /// order, `{}`-formatted (shortest round-trip) floats, absent optional
    /// fields omitted. A NaN or infinite value, which JSON cannot spell
    /// (a diverged epoch's loss), is written `null`.
    pub fn to_jsonl(&self) -> String {
        let num = |v: f64, text: String| if v.is_finite() { text } else { "null".to_string() };
        let mut line = format!(
            "{{\"epoch\":{},\"loss\":{},\"accuracy\":{}",
            self.epoch,
            num(self.loss, self.loss.to_string()),
            num(self.accuracy, self.accuracy.to_string())
        );
        let optional = [
            ("val_loss", self.val_loss),
            ("val_accuracy", self.val_accuracy),
            ("rho_nnz", self.rho_nnz),
        ];
        for (key, v) in optional {
            if let Some(v) = v {
                line.push_str(&format!(",\"{key}\":{}", num(v, v.to_string())));
            }
        }
        line.push('}');
        line
    }
}

/// Escapes a free-text string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One recovery event, as the supervisor records it into the metric
/// trajectory: what failed, how the run got back on track, and what it
/// cost.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRecord {
    /// Failure classification (`"kill"`, `"engine-panic"`, `"loader"`,
    /// `"transient-io"`, `"step-panic"`).
    pub kind: String,
    /// Free-text detail of the failure (panic payload / engine name).
    pub detail: String,
    /// Stream-ladder epoch at the moment of failure.
    pub epoch: u64,
    /// Stream-ladder step at the moment of failure.
    pub step: u64,
    /// Consecutive-failure attempt number (1-based).
    pub attempt: u64,
    /// Engine newly quarantined by this recovery, if any.
    pub quarantined: Option<String>,
    /// Epoch the run restarted from.
    pub resumed_epoch: u64,
    /// Step the run restarted from.
    pub resumed_step: u64,
    /// Where the restart state came from: `"disk"` (checkpoint directory)
    /// or `"shadow"` (the in-memory epoch-start snapshot).
    pub source: String,
    /// Snapshot files the recovery scan skipped as corrupt/unreadable,
    /// with their typed errors rendered to text.
    pub skipped: Vec<String>,
    /// Backoff slept before this recovery, in milliseconds.
    pub backoff_ms: u64,
    /// Wall-clock time the recovery itself took, in milliseconds.
    pub recover_ms: u64,
}

impl RecoveryRecord {
    /// Renders the record as one `{"recovery":{...}}` jsonl line, fixed
    /// key order, so recovery events interleave with [`MetricRecord`]
    /// lines in the same trajectory file without colliding with them.
    pub fn to_jsonl(&self) -> String {
        let mut line = format!(
            "{{\"recovery\":{{\"kind\":\"{}\",\"detail\":\"{}\",\"epoch\":{},\"step\":{},\"attempt\":{}",
            escape_json(&self.kind),
            escape_json(&self.detail),
            self.epoch,
            self.step,
            self.attempt
        );
        if let Some(q) = &self.quarantined {
            line.push_str(&format!(",\"quarantined\":\"{}\"", escape_json(q)));
        }
        line.push_str(&format!(
            ",\"resumed_epoch\":{},\"resumed_step\":{},\"source\":\"{}\"",
            self.resumed_epoch,
            self.resumed_step,
            escape_json(&self.source)
        ));
        if !self.skipped.is_empty() {
            line.push_str(",\"skipped\":[");
            for (i, s) in self.skipped.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&format!("\"{}\"", escape_json(s)));
            }
            line.push(']');
        }
        line.push_str(&format!(
            ",\"backoff_ms\":{},\"recover_ms\":{}}}}}",
            self.backoff_ms, self.recover_ms
        ));
        line
    }
}

/// Records the per-epoch metric trajectory, in memory and optionally to a
/// jsonl file.
///
/// File appends are crash-safe: each record is rendered to one complete
/// line in memory and handed to the kernel as a **single** `write_all` on
/// an `O_APPEND` handle, then `sync_data`ed — so a process killed at any
/// moment leaves either the whole line or nothing. Records are written at
/// epoch boundaries, so the sync doubles as the epoch-boundary flush. On
/// first open, a torn trailing half-line left by a previous kill (from a
/// pre-crash-safe writer or a mid-`write` power cut) is truncated away, so
/// resumed runs always splice onto a clean line boundary.
#[derive(Debug, Default)]
pub struct MetricStore {
    records: Vec<MetricRecord>,
    recoveries: Vec<RecoveryRecord>,
    path: Option<std::path::PathBuf>,
    file: Option<std::fs::File>,
}

impl MetricStore {
    /// An in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store that also appends each record to the jsonl file at `path`.
    pub fn with_jsonl(path: impl Into<std::path::PathBuf>) -> Self {
        MetricStore {
            records: Vec::new(),
            recoveries: Vec::new(),
            path: Some(path.into()),
            file: None,
        }
    }

    /// Truncates a torn trailing half-record (no final newline) back to
    /// the last complete line, or to empty when no newline exists at all.
    fn repair_torn_tail(path: &std::path::Path) -> std::io::Result<()> {
        let Ok(bytes) = std::fs::read(path) else {
            return Ok(()); // absent file: nothing to repair
        };
        if bytes.last().is_none_or(|&b| b == b'\n') {
            return Ok(());
        }
        let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(keep as u64)
    }

    /// Appends one complete jsonl line atomically and syncs it to disk.
    fn append_line(&mut self, line: &str) {
        let Some(path) = &self.path else { return };
        use std::io::Write;
        if self.file.is_none() {
            Self::repair_torn_tail(path)
                .unwrap_or_else(|e| panic!("cannot repair metrics file {}: {e}", path.display()));
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .unwrap_or_else(|e| panic!("cannot open metrics file {}: {e}", path.display()));
            self.file = Some(file);
        }
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        let file = self.file.as_mut().expect("opened above");
        // One write_all on an O_APPEND handle: the kernel appends the whole
        // buffer in one atomic operation, so a kill leaves no half-record.
        file.write_all(buf.as_bytes())
            .and_then(|()| file.sync_data())
            .unwrap_or_else(|e| {
                panic!(
                    "cannot write metrics file {}: {e}",
                    self.path.as_ref().expect("path set").display()
                )
            });
    }

    /// Appends one record (and writes its jsonl line, if a path is set).
    ///
    /// # Panics
    ///
    /// Panics if the jsonl file cannot be written — metric loss is a
    /// misconfigured environment, consistent with the trainer's handling
    /// of `SPARSETRAIN_*` misconfiguration.
    pub fn record(&mut self, record: MetricRecord) {
        self.append_line(&record.to_jsonl());
        self.records.push(record);
    }

    /// Appends one recovery event (and writes its `{"recovery":...}` jsonl
    /// line, if a path is set).
    ///
    /// # Panics
    ///
    /// Panics if the jsonl file cannot be written, like
    /// [`MetricStore::record`].
    pub fn record_recovery(&mut self, record: RecoveryRecord) {
        self.append_line(&record.to_jsonl());
        self.recoveries.push(record);
    }

    /// All recovery events so far, oldest first.
    pub fn recoveries(&self) -> &[RecoveryRecord] {
        &self.recoveries
    }

    /// All records so far, oldest first.
    pub fn records(&self) -> &[MetricRecord] {
        &self.records
    }

    /// The most recent record.
    pub fn last(&self) -> Option<&MetricRecord> {
        self.records.last()
    }

    /// The whole trajectory as jsonl text (one line per record).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_jsonl());
            out.push('\n');
        }
        out
    }
}

/// A pluggable early-stopping rule, polled once per epoch by
/// `Trainer::train`. Returns `Some(reason)` to stop.
pub trait StopCondition {
    /// Inspects the newest record; `Some(reason)` ends training.
    fn check(&mut self, record: &MetricRecord) -> Option<String>;
}

/// Stops when the validation loss (or training loss, if no validation set
/// is supplied) has not improved for `patience` consecutive epochs.
#[derive(Debug, Clone)]
pub struct Patience {
    patience: usize,
    best: f64,
    epochs_without_improvement: usize,
}

impl Patience {
    /// Creates the rule.
    ///
    /// # Panics
    ///
    /// Panics if `patience == 0`.
    pub fn new(patience: usize) -> Self {
        assert!(patience > 0, "patience must be positive");
        Patience {
            patience,
            best: f64::INFINITY,
            epochs_without_improvement: 0,
        }
    }
}

impl StopCondition for Patience {
    fn check(&mut self, record: &MetricRecord) -> Option<String> {
        let loss = record.val_loss.unwrap_or(record.loss);
        if loss < self.best {
            self.best = loss;
            self.epochs_without_improvement = 0;
            return None;
        }
        self.epochs_without_improvement += 1;
        (self.epochs_without_improvement >= self.patience).then(|| {
            format!(
                "loss has not improved below {} for {} epoch(s)",
                self.best, self.patience
            )
        })
    }
}

/// Stops when the validation accuracy (or training accuracy, if no
/// validation set is supplied) reaches `target`.
#[derive(Debug, Clone, Copy)]
pub struct TargetAccuracy {
    target: f64,
}

impl TargetAccuracy {
    /// Creates the rule; `target` is a fraction in `[0, 1]`.
    pub fn new(target: f64) -> Self {
        TargetAccuracy { target }
    }
}

impl StopCondition for TargetAccuracy {
    fn check(&mut self, record: &MetricRecord) -> Option<String> {
        let acc = record.val_accuracy.unwrap_or(record.accuracy);
        (acc >= self.target).then(|| format!("accuracy {acc} reached target {}", self.target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64, loss: f64) -> MetricRecord {
        MetricRecord {
            epoch,
            loss,
            accuracy: 0.5,
            val_loss: None,
            val_accuracy: None,
            rho_nnz: None,
        }
    }

    #[test]
    fn jsonl_line_omits_absent_fields() {
        let line = record(1, 0.25).to_jsonl();
        assert_eq!(line, "{\"epoch\":1,\"loss\":0.25,\"accuracy\":0.5}");
        let mut full = record(2, 0.125);
        full.val_loss = Some(0.5);
        full.val_accuracy = Some(0.75);
        full.rho_nnz = Some(0.1);
        assert_eq!(
            full.to_jsonl(),
            "{\"epoch\":2,\"loss\":0.125,\"accuracy\":0.5,\"val_loss\":0.5,\
             \"val_accuracy\":0.75,\"rho_nnz\":0.1}"
        );
    }

    #[test]
    fn jsonl_line_writes_null_for_non_finite_values() {
        let mut diverged = record(3, f64::NAN);
        diverged.accuracy = f64::INFINITY;
        diverged.val_loss = Some(f64::NEG_INFINITY);
        diverged.val_accuracy = Some(0.75);
        diverged.rho_nnz = Some(f64::NAN);
        assert_eq!(
            diverged.to_jsonl(),
            "{\"epoch\":3,\"loss\":null,\"accuracy\":null,\"val_loss\":null,\
             \"val_accuracy\":0.75,\"rho_nnz\":null}"
        );
    }

    #[test]
    fn store_appends_to_jsonl_file() {
        let path = std::env::temp_dir().join(format!("sparsetrain-metrics-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut store = MetricStore::with_jsonl(&path);
        store.record(record(1, 0.5));
        store.record(record(2, 0.25));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert_eq!(text, store.to_jsonl());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_repaired_on_open() {
        // A killed writer can leave a trailing half-record; the next store
        // must truncate it back to the last complete line before appending.
        let path =
            std::env::temp_dir().join(format!("sparsetrain-metrics-torn-{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            "{\"epoch\":1,\"loss\":0.5,\"accuracy\":0.5}\n{\"epoch\":2,\"lo",
        )
        .unwrap();
        let mut store = MetricStore::with_jsonl(&path);
        store.record(record(2, 0.25));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\"epoch\":1,\"loss\":0.5,\"accuracy\":0.5}\n{\"epoch\":2,\"loss\":0.25,\"accuracy\":0.5}\n"
        );
        // A file that is nothing but a torn record repairs to empty.
        std::fs::write(&path, "{\"epo").unwrap();
        let mut store = MetricStore::with_jsonl(&path);
        store.record(record(1, 0.5));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"epoch\":1,\"loss\":0.5,\"accuracy\":0.5}\n");
        std::fs::remove_file(&path).unwrap();
    }

    fn recovery(kind: &str) -> RecoveryRecord {
        RecoveryRecord {
            kind: kind.to_string(),
            detail: "injected fault at step.kill: after step 7".to_string(),
            epoch: 2,
            step: 7,
            attempt: 1,
            quarantined: None,
            resumed_epoch: 1,
            resumed_step: 6,
            source: "disk".to_string(),
            skipped: vec![],
            backoff_ms: 0,
            recover_ms: 3,
        }
    }

    #[test]
    fn recovery_record_renders_jsonl() {
        let line = recovery("kill").to_jsonl();
        assert_eq!(
            line,
            "{\"recovery\":{\"kind\":\"kill\",\"detail\":\"injected fault at step.kill: after step 7\",\
             \"epoch\":2,\"step\":7,\"attempt\":1,\"resumed_epoch\":1,\"resumed_step\":6,\
             \"source\":\"disk\",\"backoff_ms\":0,\"recover_ms\":3}}"
        );
        let mut full = recovery("engine-panic");
        full.detail = "a \"quoted\"\npayload".to_string();
        full.quarantined = Some("parallel:simd".to_string());
        full.skipped = vec!["ckpt-e00002-s000000009.stck: truncated".to_string()];
        let line = full.to_jsonl();
        assert!(line.contains("\"quarantined\":\"parallel:simd\""), "{line}");
        assert!(
            line.contains("\\\"quoted\\\"\\n"),
            "free text must be escaped: {line}"
        );
        assert!(
            line.contains("\"skipped\":[\"ckpt-e00002-s000000009.stck: truncated\"]"),
            "{line}"
        );
    }

    #[test]
    fn recovery_records_interleave_in_the_store_file() {
        let path = std::env::temp_dir().join(format!("sparsetrain-metrics-rec-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut store = MetricStore::with_jsonl(&path);
        store.record(record(1, 0.5));
        store.record_recovery(recovery("kill"));
        store.record(record(2, 0.25));
        assert_eq!(store.recoveries().len(), 1);
        assert_eq!(store.records().len(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("{\"recovery\":{"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn patience_stops_after_stall() {
        let mut p = Patience::new(2);
        assert_eq!(p.check(&record(1, 1.0)), None);
        assert_eq!(p.check(&record(2, 0.5)), None); // improvement
        assert_eq!(p.check(&record(3, 0.6)), None); // stall 1
        let reason = p.check(&record(4, 0.7)); // stall 2
        assert!(reason.is_some_and(|r| r.contains("not improved")));
    }

    #[test]
    fn patience_prefers_validation_loss() {
        let mut p = Patience::new(1);
        let mut r = record(1, 0.1);
        r.val_loss = Some(5.0);
        assert_eq!(p.check(&r), None);
        let mut r2 = record(2, 0.05); // train loss improves...
        r2.val_loss = Some(6.0); // ...but validation loss worsens
        assert!(p.check(&r2).is_some());
    }

    #[test]
    fn target_accuracy_triggers() {
        let mut t = TargetAccuracy::new(0.6);
        assert_eq!(t.check(&record(1, 0.5)), None); // accuracy 0.5
        let mut r = record(2, 0.4);
        r.accuracy = 0.7;
        assert!(t.check(&r).is_some_and(|s| s.contains("0.6")));
        // Validation accuracy takes precedence when present.
        let mut t = TargetAccuracy::new(0.6);
        let mut r = record(1, 0.4);
        r.accuracy = 0.9;
        r.val_accuracy = Some(0.5);
        assert_eq!(t.check(&r), None);
    }

    #[test]
    #[should_panic(expected = "patience must be positive")]
    fn zero_patience_panics() {
        let _ = Patience::new(0);
    }
}
