//! Offline compat shim for the `criterion` crate.
//!
//! Provides the measurement API surface the workspace's benches use
//! ([`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`],
//! [`Bencher::iter_batched`], [`BenchmarkId`], [`black_box`],
//! [`criterion_group!`], [`criterion_main!`]) with a simple
//! calibrate-then-sample harness instead of criterion's full statistical
//! machinery.
//!
//! Every completed measurement is printed human-readably to stdout **and**
//! appended as one JSON object per line to `target/bench-results.jsonl`
//! (override with the `BENCH_JSON` environment variable) so the bench
//! trajectory is machine-readable across runs.

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`].
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How `iter_batched` amortizes setup; the shim times the routine alone in
/// every mode, so the variants only exist for API compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// A benchmark identifier: function name plus optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Creates an id of the form `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            label: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Creates an id from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

/// Conversion into a bench label (accepts `&str`, `String`, [`BenchmarkId`]).
pub trait IntoBenchmarkId {
    /// The display label.
    fn into_label(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_label(self) -> String {
        self.label
    }
}

impl IntoBenchmarkId for &str {
    fn into_label(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_label(self) -> String {
        self
    }
}

/// One measurement result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Full bench label (`group/bench/param`).
    pub label: String,
    /// Mean time per iteration in nanoseconds.
    pub mean_ns: f64,
    /// Standard deviation across samples in nanoseconds.
    pub stddev_ns: f64,
    /// Number of samples taken.
    pub samples: usize,
    /// Iterations per sample.
    pub iters: u64,
}

/// Per-target measurement driver handed to bench closures.
pub struct Bencher {
    samples: usize,
    result: Option<(f64, f64, usize, u64)>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Self {
            samples,
            result: None,
        }
    }

    fn record(&mut self, per_iter_ns: Vec<f64>, iters: u64) {
        let n = per_iter_ns.len().max(1) as f64;
        let mean = per_iter_ns.iter().sum::<f64>() / n;
        let var = per_iter_ns.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        self.result = Some((mean, var.sqrt(), per_iter_ns.len(), iters));
    }

    /// Measures `f`, timing whole batches of calls.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Calibrate: find an iteration count worth ~2 ms of work.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(20));
        let iters = (2_000_000u64 / once.as_nanos().max(1) as u64).clamp(1, 1_000_000);
        let mut samples_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.record(samples_ns, iters);
    }

    /// Measures `routine` on fresh inputs from `setup`, timing only the
    /// routine.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        // Calibrate on a single input.
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        let once = start.elapsed().max(Duration::from_nanos(20));
        let iters = (2_000_000u64 / once.as_nanos().max(1) as u64).clamp(1, 10_000);
        let mut samples_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let mut elapsed = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                elapsed += start.elapsed();
            }
            samples_ns.push(elapsed.as_nanos() as f64 / iters as f64);
        }
        self.record(samples_ns, iters);
    }
}

/// The bench harness context.
pub struct Criterion {
    default_samples: usize,
    results: Vec<Measurement>,
    /// Only benchmarks whose label contains this run (`cargo bench -- <filter>`,
    /// as in criterion).
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            default_samples: 10,
            results: Vec::new(),
            filter: None,
        }
    }
}

impl Criterion {
    /// Takes the label filter from the command line, as criterion's bench
    /// entry points do: `cargo bench` forwards harness flags like
    /// `--bench`; the first argument that is not a flag is the filter.
    pub fn configure_from_args(mut self) -> Self {
        self.filter = std::env::args().skip(1).find(|arg| !arg.starts_with('-'));
        self
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function(&mut self, id: impl IntoBenchmarkId, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let label = id.into_label();
        let samples = self.default_samples;
        self.run_one(label, samples, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    fn run_one(&mut self, label: String, samples: usize, mut f: impl FnMut(&mut Bencher)) {
        if self
            .filter
            .as_ref()
            .is_some_and(|filter| !label.contains(filter.as_str()))
        {
            return;
        }
        let mut bencher = Bencher::new(samples);
        f(&mut bencher);
        let (mean_ns, stddev_ns, samples, iters) = bencher.result.unwrap_or((f64::NAN, f64::NAN, 0, 0));
        let m = Measurement {
            label,
            mean_ns,
            stddev_ns,
            samples,
            iters,
        };
        println!(
            "{:<56} {:>14.1} ns/iter (± {:>10.1}, {} samples × {} iters)",
            m.label, m.mean_ns, m.stddev_ns, m.samples, m.iters
        );
        self.results.push(m);
    }

    /// Appends all collected measurements as JSON lines.
    pub fn write_json(&self) {
        // Cargo runs bench binaries with the *package* as cwd; walk up to
        // the enclosing `target/` directory (workspace root) so all
        // packages append to one trajectory file.
        let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| {
            let mut dir = std::env::current_dir().unwrap_or_else(|_| ".".into());
            for _ in 0..5 {
                if dir.join("target").is_dir() {
                    return dir
                        .join("target/bench-results.jsonl")
                        .to_string_lossy()
                        .into_owned();
                }
                if !dir.pop() {
                    break;
                }
            }
            "target/bench-results.jsonl".into()
        });
        let path = std::path::Path::new(&path);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(path) else {
            eprintln!("warning: cannot open {} for bench JSON output", path.display());
            return;
        };
        let epoch_s = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        for m in &self.results {
            let _ = writeln!(
                file,
                "{{\"bench\":\"{}\",\"mean_ns\":{:.3},\"stddev_ns\":{:.3},\"samples\":{},\"iters\":{},\"unix_time\":{}}}",
                m.label.replace('"', "'"),
                m.mean_ns,
                m.stddev_ns,
                m.samples,
                m.iters,
                epoch_s,
            );
        }
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.clamp(2, 1000));
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function(&mut self, id: impl IntoBenchmarkId, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into_label());
        let samples = self.sample_size.unwrap_or(self.criterion.default_samples);
        self.criterion.run_one(label, samples, f);
        self
    }

    /// Runs a benchmark with an explicit input value.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Closes the group (a no-op in the shim; exists for API parity).
    pub fn finish(self) {}
}

/// Declares a bench entry point running each target in sequence.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
            criterion.write_json();
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = { $config }.configure_from_args();
            $( $target(&mut criterion); )+
            criterion.write_json();
        }
    };
}

/// Declares `main` for a bench binary (`harness = false`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` forwards harness flags like `--bench`; the shim
            // ignores them (a bare argument filters benchmarks by label).
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures() {
        let mut c = Criterion::default();
        c.bench_function("shim_smoke", |b| b.iter(|| black_box(3u64).wrapping_mul(7)));
        assert_eq!(c.results.len(), 1);
        assert!(c.results[0].mean_ns.is_finite());
        assert!(c.results[0].samples > 0);
    }

    #[test]
    fn filter_skips_other_labels() {
        let mut c = Criterion {
            filter: Some("keep".into()),
            ..Criterion::default()
        };
        c.bench_function("skipped", |_| panic!("filtered out"));
        c.bench_function("group/keep/1", |b| b.iter(|| black_box(1u64) + 1));
        assert_eq!(c.results.len(), 1);
        assert_eq!(c.results[0].label, "group/keep/1");
    }

    #[test]
    fn group_labels_compose() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(3);
            g.bench_with_input(BenchmarkId::new("b", 42), &7u64, |b, &x| {
                b.iter(|| black_box(x) + 1)
            });
            g.finish();
        }
        assert_eq!(c.results[0].label, "g/b/42");
        assert_eq!(c.results[0].samples, 3);
    }

    #[test]
    fn iter_batched_times_routine() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("batched");
            g.sample_size(2);
            g.bench_function("sum", |b| {
                b.iter_batched(
                    || vec![1u64; 64],
                    |v| v.iter().sum::<u64>(),
                    BatchSize::SmallInput,
                )
            });
        }
        assert!(c.results[0].mean_ns >= 0.0);
    }
}
