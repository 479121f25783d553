//! `sparsetrain-bench` — the tooling behind the CI perf and artifact jobs.
//!
//! The criterion shim appends every measurement as one JSON line to
//! `target/bench-results.jsonl`; `multicore` reads that trajectory, the
//! other subcommands run their own fixtures. Kernel-ratio regression
//! gating is not done here — `stbench compare` is the repo's one perf gate.
//!
//! * `plan` — run the density-adaptive planner over the AlexNet-shape
//!   bench fixtures and print the frozen per-(layer, stage) execution
//!   plan as a Markdown table (what the `auto` engine decides at these
//!   densities and this pool size — the same bytes on every run).
//!   `--emit <file>` writes the plan as a binary `STPLAN` execution
//!   program; `--replay <file>` decodes such a program in a fresh process
//!   and runs the same fixtures under it, failing unless every program
//!   cell executed. The emitted artifact is also what `SPARSETRAIN_PLAN`
//!   accepts (alongside the legacy text format).
//! * `multicore` — assert the parallel engine's multi-core win on the
//!   batched forward leg (`--min-ratio`, default the ROADMAP's 1.5×) and
//!   record the measured ratios. Run it from a bench invocation with
//!   `RAYON_NUM_THREADS=4` on a multi-core runner; on one core the
//!   parallel engine degenerates to one band and the assertion would
//!   rightly fail.
//! * `shard` — assert the sharded data-parallel trainer's multi-worker
//!   win: one epoch of a compute-heavy mini-CNN at 1 worker vs 4 workers
//!   (scalar-engine replicas, so all parallelism comes from the worker
//!   pool), requiring the 4-worker epoch to be `--min-ratio`× faster
//!   (default 1.5×) **and** the final parameters of the 1-, 2- and
//!   4-worker runs to be bitwise identical. Run it on a multi-core
//!   runner; on one core the workers serialise and the ratio assertion
//!   would rightly fail.
//! * `chaos` — run the seeded fault-injection campaign: kill mid-epoch,
//!   torn/failed checkpoint writes, truncated reads and injected engine
//!   panics, each recovered by the training supervisor and required to
//!   land **bitwise** on the fault-free run's parameters. `--seed` fixes
//!   the campaign, `--extra` appends seeded randomized kill scenarios,
//!   and one `{"chaos":{...}}` line per scenario is appended to `--out`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The group the multi-core assertion reads.
const BATCHED_GROUP: &str = "engine_forward_batched";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let opts = match Opts::parse(rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = || -> Result<bool, String> {
        match cmd.as_str() {
            "multicore" => cmd_multicore(&opts),
            "shard" => cmd_shard(&opts),
            "plan" => cmd_plan(&opts),
            "chaos" => cmd_chaos(&opts),
            other => Err(format!("unknown subcommand {other:?}")),
        }
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage: sparsetrain-bench <multicore|shard|plan|chaos> [options]

  multicore --results <jsonl> [--min-ratio 1.5] [--summary <path>]
  shard     [--min-ratio 1.5] [--summary <path>]
  plan      [--emit <file>] [--replay <file>] [--summary <path>]
  chaos     [--seed 42] [--extra 2] [--out target/chaos-results.jsonl]
            [--summary <path>]";

struct Opts {
    results: Option<String>,
    out: Option<String>,
    summary: Option<String>,
    emit: Option<String>,
    replay: Option<String>,
    min_ratio: f64,
    seed: u64,
    extra: usize,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Opts {
            results: None,
            out: None,
            summary: None,
            emit: None,
            replay: None,
            min_ratio: 1.5,
            seed: 42,
            extra: 2,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--results" => opts.results = Some(value()?.to_string()),
                "--out" => opts.out = Some(value()?.to_string()),
                "--summary" => opts.summary = Some(value()?.to_string()),
                "--emit" => opts.emit = Some(value()?.to_string()),
                "--replay" => opts.replay = Some(value()?.to_string()),
                "--min-ratio" => {
                    opts.min_ratio = value()?.parse().map_err(|e| format!("--min-ratio: {e}"))?;
                }
                "--seed" => {
                    opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--extra" => {
                    opts.extra = value()?.parse().map_err(|e| format!("--extra: {e}"))?;
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(opts)
    }

    fn results(&self) -> Result<&str, String> {
        self.results
            .as_deref()
            .ok_or_else(|| "--results is required".into())
    }
}

// ---------------------------------------------------------------------------
// Trajectory parsing (our own shim's flat format; no JSON crate)
// ---------------------------------------------------------------------------

/// Extracts `(label, mean_ns)` from one shim-written JSONL line.
fn parse_jsonl_line(line: &str) -> Option<(String, f64)> {
    let label = line.split("\"bench\":\"").nth(1)?.split('"').next()?.to_string();
    let mean: f64 = line
        .split("\"mean_ns\":")
        .nth(1)?
        .split([',', '}'])
        .next()?
        .trim()
        .parse()
        .ok()?;
    (mean.is_finite() && mean > 0.0).then_some((label, mean))
}

/// Median ns per label across every record of a results file.
fn load_results(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut by_label: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if let Some((label, mean)) = parse_jsonl_line(line) {
            by_label.entry(label).or_default().push(mean);
        }
    }
    if by_label.is_empty() {
        return Err(format!("{path} contains no bench records"));
    }
    Ok(by_label
        .into_iter()
        .map(|(label, ns)| (label, median(ns)))
        .collect())
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Splits a per-stage label `group/engine/layer` (engine names may contain
/// `:` but never `/`).
fn split_leg(label: &str) -> Option<(&str, &str, &str)> {
    let mut parts = label.splitn(3, '/');
    Some((parts.next()?, parts.next()?, parts.next()?))
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

fn format_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn cmd_multicore(opts: &Opts) -> Result<bool, String> {
    let current = load_results(opts.results()?)?;
    let threads = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "auto".into());
    let mut summary = format!("## Multi-core validation ({threads} rayon threads)\n\n");
    let mut best: Option<(String, f64)> = None;
    let _ = writeln!(summary, "| leg | scalar | parallel | ratio |");
    let _ = writeln!(summary, "|---|---|---|---|");
    for (label, &scalar_ns) in &current {
        let Some((group, engine, layer)) = split_leg(label) else {
            continue;
        };
        if group != BATCHED_GROUP || engine != "scalar" {
            continue;
        }
        // layer is e.g. "batched/conv3_128x192x8" or "per_sample/...".
        let Some(&parallel_ns) = current.get(&format!("{group}/parallel/{layer}")) else {
            continue;
        };
        let ratio = scalar_ns / parallel_ns;
        let _ = writeln!(
            summary,
            "| {layer} | {} | {} | {ratio:.2}× |",
            format_ns(scalar_ns),
            format_ns(parallel_ns)
        );
        if layer.starts_with("batched/") && best.as_ref().is_none_or(|(_, b)| ratio > *b) {
            best = Some((layer.to_string(), ratio));
        }
    }
    let pass = match &best {
        Some((layer, ratio)) => {
            let _ = writeln!(
                summary,
                "\nBest batched-leg ratio: **{ratio:.2}×** (`{layer}`), required ≥ {:.2}×.",
                opts.min_ratio
            );
            *ratio >= opts.min_ratio
        }
        None => {
            let _ = writeln!(summary, "\nNo batched scalar/parallel leg pair found.");
            false
        }
    };
    let _ = writeln!(
        summary,
        "\n**{}** — the parallel engine {} the ROADMAP's multi-core win on this runner.",
        if pass { "PASS" } else { "FAIL" },
        if pass {
            "demonstrates"
        } else {
            "did not demonstrate"
        }
    );
    emit_summary(opts, &summary);
    Ok(pass)
}

/// One epoch of a compute-heavy mini-CNN at the given worker count:
/// returns the epoch wall time and the final parameter bit patterns.
fn shard_epoch(train: &sparsetrain_nn::data::Dataset, workers: usize) -> (f64, Vec<u32>) {
    use sparsetrain_core::prune::PruneConfig;
    use sparsetrain_nn::layer::Layer as _;
    use sparsetrain_nn::models;
    use sparsetrain_nn::train::{TrainConfig, Trainer};

    // Scalar-engine worker replicas: every bit of parallelism in the
    // sharded leg comes from the worker pool, not from rayon bands.
    let net = models::mini_cnn_for(3, 16, 3, 16, Some(PruneConfig::new(0.9, 2)), 42);
    let config = TrainConfig::quick()
        .with_engine_name("scalar")
        .with_workers(workers);
    let mut trainer = Trainer::new(net, config);
    let started = std::time::Instant::now();
    trainer.train_epoch(train);
    let secs = started.elapsed().as_secs_f64();
    let mut bits = Vec::new();
    trainer
        .network_mut()
        .visit_params(&mut |w, _| bits.extend(w.iter().map(|v| v.to_bits())));
    (secs, bits)
}

fn cmd_shard(opts: &Opts) -> Result<bool, String> {
    use sparsetrain_nn::data::SyntheticSpec;

    // 16×16 images + width-16 convs make per-granule compute dominate the
    // coordinator's per-step serial work (tau broadcast + SGD step).
    let spec = SyntheticSpec {
        classes: 3,
        train_samples: 96,
        test_samples: 1,
        channels: 3,
        size: 16,
        noise: 0.35,
        seed: 7,
    };
    let (train, _) = spec.generate();

    let mut summary = String::from("## Sharded data-parallel validation\n\n");
    let _ = writeln!(summary, "| workers | epoch time | speedup vs 1 |");
    let _ = writeln!(summary, "|---|---|---|");
    let mut reference: Option<Vec<u32>> = None;
    let mut base_secs = 0.0;
    let mut ratio = 0.0;
    let mut invariant = true;
    for workers in [1usize, 2, 4] {
        let (secs, bits) = shard_epoch(&train, workers);
        match &reference {
            None => {
                reference = Some(bits);
                base_secs = secs;
            }
            Some(one) => invariant &= *one == bits,
        }
        let speedup = base_secs / secs;
        if workers == 4 {
            ratio = speedup;
        }
        let _ = writeln!(
            summary,
            "| {workers} | {} | {speedup:.2}× |",
            format_ns(secs * 1e9)
        );
    }
    let pass = invariant && ratio >= opts.min_ratio;
    let _ = writeln!(
        summary,
        "\n4-worker speedup: **{ratio:.2}×**, required ≥ {:.2}×. Final parameters \
         across 1/2/4 workers: **{}**.",
        opts.min_ratio,
        if invariant {
            "bitwise identical"
        } else {
            "DIVERGED"
        }
    );
    let _ = writeln!(
        summary,
        "\n**{}** — the sharded trainer {} the multi-worker win with a bitwise-stable aggregate.",
        if pass { "PASS" } else { "FAIL" },
        if pass {
            "demonstrates"
        } else {
            "did not demonstrate"
        }
    );
    emit_summary(opts, &summary);
    Ok(pass)
}

/// One AlexNet-shape bench layer's deterministic operands (same shapes,
/// densities and seed as `benches/engine.rs`).
struct PlanFixture {
    name: &'static str,
    c: usize,
    f: usize,
    hw: usize,
    input: sparsetrain_sparse::rowconv::SparseFeatureMap,
    dout: sparsetrain_sparse::rowconv::SparseFeatureMap,
    weights: sparsetrain_tensor::Tensor4,
}

fn plan_fixtures() -> Vec<PlanFixture> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sparsetrain_sparse::rowconv::SparseFeatureMap;
    use sparsetrain_tensor::{Tensor3, Tensor4};

    // The AlexNet-style layer table of benches/engine.rs: (name, channels,
    // filters, spatial, input density, pruned-gradient density).
    const LAYERS: [(&str, usize, usize, usize, f64, f64); 4] = [
        ("conv1_3x64x32", 3, 64, 32, 0.95, 0.25),
        ("conv2_64x128x16", 64, 128, 16, 0.45, 0.15),
        ("conv3_128x192x8", 128, 192, 8, 0.35, 0.10),
        ("conv4_192x192x8", 192, 192, 8, 0.30, 0.05),
    ];

    LAYERS
        .into_iter()
        .map(|(name, c, f, hw, din, dgrad)| {
            let mut rng = StdRng::seed_from_u64(42);
            let sparse = |rng: &mut StdRng, density: f64| {
                if rng.gen::<f64>() < density {
                    rng.gen::<f32>() - 0.5
                } else {
                    0.0
                }
            };
            let input =
                SparseFeatureMap::from_tensor(&Tensor3::from_fn(c, hw, hw, |_, _, _| sparse(&mut rng, din)));
            let dout = SparseFeatureMap::from_tensor(&Tensor3::from_fn(f, hw, hw, |_, _, _| {
                sparse(&mut rng, dgrad)
            }));
            let weights = Tensor4::from_fn(f, c, 3, 3, |_, _, _, _| rng.gen::<f32>() - 0.5);
            PlanFixture {
                name,
                c,
                f,
                hw,
                input,
                dout,
                weights,
            }
        })
        .collect()
}

/// Runs every fixture's three stages through `ctx`'s planned entry points
/// and returns the `(layer, stage)` cells that executed.
fn run_fixtures(
    ctx: &mut sparsetrain_sparse::ExecutionContext,
    fixtures: &[PlanFixture],
) -> Vec<(&'static str, sparsetrain_sparse::Stage)> {
    use sparsetrain_sparse::Stage;
    use sparsetrain_tensor::conv::ConvGeometry;
    use sparsetrain_tensor::{Tensor3, Tensor4};

    let geom = ConvGeometry::new(3, 1, 1);
    for fix in fixtures {
        ctx.forward_batch_for(
            fix.name,
            std::slice::from_ref(&fix.input),
            &fix.weights,
            None,
            geom,
        );
        let masks = vec![fix.input.masks()];
        let mut dins = vec![Tensor3::zeros(fix.c, fix.hw, fix.hw)];
        ctx.input_grad_batch_for_into(
            fix.name,
            std::slice::from_ref(&fix.dout),
            &fix.weights,
            geom,
            &masks,
            &mut dins,
        );
        let mut dw = Tensor4::zeros(fix.f, fix.c, 3, 3);
        ctx.weight_grad_batch_for(
            fix.name,
            std::slice::from_ref(&fix.input),
            std::slice::from_ref(&fix.dout),
            geom,
            &mut dw,
        );
    }
    fixtures
        .iter()
        .flat_map(|fix| Stage::ALL.map(|stage| (fix.name, stage)))
        .collect()
}

/// Runs the density-adaptive planner over the AlexNet-shape bench
/// fixtures and prints the frozen plan as a Markdown table. `--emit`
/// writes the plan as a binary `STPLAN` program on disk; `--replay`
/// instead decodes such a program and runs the same fixtures under it,
/// passing only when every program cell executed (so a stale artifact
/// that no longer matches the fixtures fails loudly).
fn cmd_plan(opts: &Opts) -> Result<bool, String> {
    use sparsetrain_sparse::{ExecutionContext, Plan};

    let fixtures = plan_fixtures();

    if let Some(path) = &opts.replay {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let program = Plan::decode(&bytes).map_err(|e| format!("{path}: {e}"))?;
        let mut ctx = ExecutionContext::with_plan(program.clone());
        let executed = run_fixtures(&mut ctx, &fixtures);
        let pending: Vec<_> = program
            .cells()
            .filter(|(layer, stage, _)| !executed.contains(&(layer, *stage)))
            .collect();
        let mut summary = String::from("## Replayed execution program\n\n");
        summary.push_str(&program.to_markdown());
        if pending.is_empty() {
            let _ = writeln!(
                summary,
                "\nEvery program cell executed ({} cells).",
                program.len()
            );
        } else {
            let _ = writeln!(summary, "\n**Unreplayed program cells:**\n");
            for (layer, stage, _) in &pending {
                let _ = writeln!(summary, "- `{layer}` / {}", stage.name());
            }
        }
        emit_summary(opts, &summary);
        return Ok(pending.is_empty());
    }

    let mut ctx = ExecutionContext::by_name("auto").map_err(|e| e.to_string())?;
    run_fixtures(&mut ctx, &fixtures);
    let plan = ctx.plan().expect("auto context is planned");
    let mut summary = String::from("## Density-adaptive execution plan\n\n");
    summary.push_str(&plan.to_markdown());
    if let Some(path) = &opts.emit {
        let bytes = plan.encode().map_err(|e| format!("encode: {e}"))?;
        std::fs::write(path, &bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(
            summary,
            "\nCompiled program: `{path}` ({} bytes, {} cells).",
            bytes.len(),
            plan.len()
        );
    }
    emit_summary(opts, &summary);
    Ok(true)
}

/// Runs the seeded chaos campaign (see `sparsetrain_bench::chaos`): every
/// scenario injects faults through the real seams, trains through them
/// under the supervisor, and must land bitwise on the fault-free run's
/// parameters. Appends one `{"chaos":{...}}` jsonl line per scenario to
/// `--out` (default `target/chaos-results.jsonl`) and fails the job when
/// any scenario diverges.
fn cmd_chaos(opts: &Opts) -> Result<bool, String> {
    let report = sparsetrain_bench::chaos::run_campaign(opts.seed, opts.extra)?;
    let out = opts.out.as_deref().unwrap_or("target/chaos-results.jsonl");
    if let Some(parent) = std::path::Path::new(out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("cannot open {out}: {e}"))?;
        for outcome in &report.outcomes {
            writeln!(file, "{}", outcome.to_jsonl()).map_err(|e| format!("cannot write {out}: {e}"))?;
        }
    }
    let mut summary = report.to_markdown();
    let _ = writeln!(
        summary,
        "\nAppended {} scenario records to `{out}`.",
        report.outcomes.len()
    );
    emit_summary(opts, &summary);
    Ok(report.all_pass())
}

/// Appends Markdown to `--summary` (e.g. `$GITHUB_STEP_SUMMARY`) and
/// always echoes it to stdout.
fn emit_summary(opts: &Opts, text: &str) {
    println!("{text}");
    if let Some(path) = &opts.summary {
        use std::io::Write as _;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{text}"));
        if let Err(e) = appended {
            eprintln!("warning: cannot append summary to {path}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_parse() {
        let line = r#"{"bench":"engine_forward/parallel:simd/conv2_64x128x16","mean_ns":1234.500,"stddev_ns":1.0,"samples":10,"iters":3,"unix_time":1}"#;
        let (label, ns) = parse_jsonl_line(line).unwrap();
        assert_eq!(label, "engine_forward/parallel:simd/conv2_64x128x16");
        assert_eq!(ns, 1234.5);
        assert!(parse_jsonl_line("not json").is_none());
        assert!(parse_jsonl_line(r#"{"bench":"x","mean_ns":NaN}"#).is_none());
    }

    #[test]
    fn median_is_robust_to_order_and_parity() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![7.0]), 7.0);
    }

    #[test]
    fn split_leg_keeps_colon_engine_names() {
        let (group, engine, layer) = split_leg("engine_forward/parallel:im2row/conv1_3x64x32").unwrap();
        assert_eq!(group, "engine_forward");
        assert_eq!(engine, "parallel:im2row");
        assert_eq!(layer, "conv1_3x64x32");
        let (_, engine, layer) = split_leg("engine_forward_batched/scalar/batched/conv3").unwrap();
        assert_eq!(engine, "scalar");
        assert_eq!(layer, "batched/conv3");
    }
}
