//! What the benchmark declares: the workloads, the end-to-end metrics
//! with their bounds, and the per-layer metrics every workload reports.
//! `../BENCHMARK.json` is `stbench manifest` written to a file; a unit
//! test keeps the two equal.

use crate::json::Json;

/// Seconds of timed training the default sizes amount to on the 2-core
/// box that measured the seed; `--seconds` scales the timed sample count
/// relative to this.
pub const RUN_SECONDS: u64 = 12;

/// The four workloads. Names are final: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AlexnetPruned,
    ResnetPrunedMt,
    ResnetDenseRef,
    OpsShardCkpt,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AlexnetPruned,
        Workload::ResnetPrunedMt,
        Workload::ResnetDenseRef,
        Workload::OpsShardCkpt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AlexnetPruned => "alexnet_pruned",
            Workload::ResnetPrunedMt => "resnet_pruned_mt",
            Workload::ResnetDenseRef => "resnet_dense_ref",
            Workload::OpsShardCkpt => "ops_shard_ckpt",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (≤ 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::AlexnetPruned => {
                "Conv-ReLU net, p=0.9, simd engine, 1 thread: natural and pruned sparsity together; \
                 sparse kernels and Conv2d compress/densify are >99% of a step, so kernel work shows here"
            }
            Workload::ResnetPrunedMt => {
                "Conv-BN-ReLU net whose gradients are dense until pruned, 13 prune sites, parallel:simd \
                 on up to 4 threads: pruner, banding, BatchNorm and residual glue show here"
            }
            Workload::ResnetDenseRef => {
                "same net and data with no pruning and no sparse engine (dense im2row): the original \
                 training process; a pruner or engine change must leave it unchanged"
            }
            Workload::OpsShardCkpt => {
                "small CNN on the sharded coordinator path, 2 workers, a checkpoint every step: \
                 scatter/reduce, snapshot encode, fsync and rotation are a large share of a step"
            }
        }
    }

    /// Sparse engine the workload trains on; `None` is the default dense
    /// execution of `sparsetrain_tensor`.
    pub fn engine(self) -> Option<&'static str> {
        match self {
            Workload::AlexnetPruned | Workload::OpsShardCkpt => Some("simd"),
            Workload::ResnetPrunedMt => Some("parallel:simd"),
            Workload::ResnetDenseRef => None,
        }
    }

    pub fn pruned(self) -> bool {
        self != Workload::ResnetDenseRef
    }

    pub fn sharded(self) -> bool {
        self == Workload::OpsShardCkpt
    }

    /// Image side length.
    pub fn image_size(self) -> usize {
        match self {
            Workload::AlexnetPruned => 32,
            _ => 16,
        }
    }

    /// Band-parallel threads inside one engine call. Only one workload is
    /// multi-threaded that way; `ops_shard_ckpt` gets its parallelism
    /// from two shard workers instead.
    pub fn rayon_threads(self, nproc: usize) -> usize {
        match self {
            Workload::ResnetPrunedMt => nproc.clamp(1, 4),
            _ => 1,
        }
    }

    /// SGD learning rate. The issue sized every workload at 0.01. AlexNet
    /// has no normalisation layers and at 0.01 sits on the edge of
    /// instability on this data: over 30 seeds `eval_acc` ranged from 0.68
    /// to 1.0, two of ten data orders collapsed to chance when the initial
    /// weights were held fixed, and the step time followed the trajectory
    /// (lower-quartile step time 76 to 121 ms). At 0.003 the same seeds all
    /// learn and the step time holds within 4 %, which the driver's
    /// every-run-another-seed protocol needs. The BatchNorm nets train
    /// steadily at 0.01 and are still short of converged after 100 steps
    /// at 0.003 (`eval_acc` 0.46 to 0.73).
    pub fn learning_rate(self) -> f32 {
        match self {
            Workload::AlexnetPruned => 0.003,
            _ => 0.01,
        }
    }

    /// Samples of the timed phase at the default size (batch 16, so 100
    /// steps, 1000 on the sharded leg): the fewest that still support a
    /// p90, to keep a run inside the driver's time cap on a slow day.
    pub fn timed_samples(self) -> usize {
        match self {
            Workload::OpsShardCkpt => 16000,
            _ => 1600,
        }
    }
}

/// Mini-batch size of every workload.
pub const BATCH: usize = 16;
/// Samples of the warm-up epoch (part of set-up, 10 steps): fills the
/// depth-4 prune FIFOs, sizes workspaces, spawns pools.
pub const WARM_SAMPLES: usize = 160;
/// Held-out samples `eval_acc` is measured on.
pub const TEST_SAMPLES: usize = 400;
/// Samples (10 steps) the resumed-run check of `ops_shard_ckpt` trains on.
pub const RESUME_SAMPLES: usize = 160;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative when it is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        let delta = (new - base) / base.abs();
        match self {
            Better::Higher => -delta,
            Better::Lower => delta,
        }
    }
}

/// A metric a user of the system sees, with the share of the base's
/// median by which it may worsen before a change is a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Whether the bound also holds between runs of different seeds, which
    /// is how the driver measures and what `BENCHMARK.json` may declare as
    /// end to end. The trajectory metrics are pure functions of the seed:
    /// between runs of one seed they repeat bit for bit and a 1 % bound
    /// means something, but from seed to seed they move by 20 to 90 %
    /// (quartile distance over median, 20 seeds), more than any bound the
    /// contract allows. `BENCHMARK.json` lists those per layer, unbounded.
    pub across_seeds: bool,
}

/// The end-to-end metrics, reported by every workload from an untraced
/// run and judged by `stbench compare`.
///
/// Three bounds are the widest the contract allows. Ten seeds on
/// a quiet sandbox spread `samples_per_s` by 3 to 4 % (quartile distance
/// over median), but the sandbox's neighbours slow whole runs down by up
/// to 1.7x for minutes at a time, and in such a stretch the same ten seeds
/// spread it by 17 to 33 %. `eval_acc` spreads by up to 8 % across seeds
/// (the ResNet legs stop short of converged after 100 steps), a third of
/// its bound; `peak_rss_mb` spreads by under 1 %.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        across_seeds: true,
    },
    EndToEnd {
        name: "samples_per_s",
        unit: "samples/s",
        better: Better::Higher,
        bound: 0.25,
        across_seeds: true,
    },
    EndToEnd {
        name: "epoch_loss",
        unit: "nats",
        better: Better::Lower,
        bound: 0.01,
        across_seeds: false,
    },
    EndToEnd {
        name: "eval_acc",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.25,
        across_seeds: true,
    },
    EndToEnd {
        name: "grad_density",
        unit: "fraction",
        better: Better::Lower,
        bound: 0.01,
        across_seeds: false,
    },
    EndToEnd {
        name: "sim_speedup",
        unit: "x",
        better: Better::Higher,
        bound: 0.01,
        across_seeds: false,
    },
    EndToEnd {
        name: "sim_energy_eff",
        unit: "x",
        better: Better::Higher,
        bound: 0.01,
        across_seeds: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        across_seeds: true,
    },
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A metric of a single layer, from the traced run. No bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics that every workload can measure, which is what
/// `BENCHMARK.json` may list. Metrics that exist on some workloads only
/// (`nn.shard.*`, `checkpoint.*`, `core.prune.*`, `sparse.planner.*`,
/// `nn.layers.bn.ms`, …) are in the `stbench trace` document and the
/// README glossary instead.
pub const PER_LAYER: [PerLayer; 60] = [
    lower("epoch_loss", "nats"),
    lower("grad_density", "fraction"),
    higher("sim_speedup", "x"),
    higher("sim_energy_eff", "x"),
    lower("nn.data.generate_ms", "ms"),
    lower("nn.data.gather_us_per_step", "us"),
    lower("nn.trainer.step_ms_p50", "ms"),
    lower("nn.trainer.step_ms_p90", "ms"),
    lower("nn.trainer.unattributed_share", "fraction"),
    lower("nn.trainer.trace_overhead_share", "fraction"),
    lower("nn.optim.step_ms", "ms"),
    lower("nn.layers.conv.fwd_ms", "ms"),
    lower("nn.layers.conv.bwd_ms", "ms"),
    lower("nn.layers.prune.bwd_ms", "ms"),
    lower("nn.layers.relu.ms", "ms"),
    lower("nn.layers.pool.ms", "ms"),
    lower("nn.layers.linear.ms", "ms"),
    lower("sparse.engine.fwd.scalar_ms", "ms"),
    lower("sparse.engine.fwd.simd_ms", "ms"),
    lower("sparse.engine.fwd.im2row_ms", "ms"),
    lower("sparse.engine.fwd.parallel-simd_ms", "ms"),
    lower("sparse.engine.gta.scalar_ms", "ms"),
    lower("sparse.engine.gta.simd_ms", "ms"),
    lower("sparse.engine.gta.im2row_ms", "ms"),
    lower("sparse.engine.gta.parallel-simd_ms", "ms"),
    lower("sparse.engine.gtw.scalar_ms", "ms"),
    lower("sparse.engine.gtw.simd_ms", "ms"),
    lower("sparse.engine.gtw.im2row_ms", "ms"),
    lower("sparse.engine.gtw.parallel-simd_ms", "ms"),
    lower("sparse.engine.input_density", "fraction"),
    lower("sparse.engine.dout_density", "fraction"),
    lower("sparse.engine.fwd.sparse_macs", "count"),
    lower("sparse.engine.gta.sparse_macs", "count"),
    lower("sparse.engine.gtw.sparse_macs", "count"),
    lower("sparse.engine.fwd.dense_macs", "count"),
    lower("sparse.engine.gta.dense_macs", "count"),
    lower("sparse.engine.gtw.dense_macs", "count"),
    lower("sparse.engine.fwd.ns_per_sparse_mac", "ns"),
    lower("sparse.engine.gta.ns_per_sparse_mac", "ns"),
    lower("sparse.engine.gtw.ns_per_sparse_mac", "ns"),
    lower("tensor.conv.fwd_ms", "ms"),
    lower("tensor.conv.input_grad_ms", "ms"),
    lower("tensor.conv.weight_grad_ms", "ms"),
    lower("core.dataflow.capture_ms", "ms"),
    lower("core.dataflow.compile_ms", "ms"),
    lower("core.dataflow.instrs", "count"),
    lower("sim.fwd.cycles", "cycles"),
    lower("sim.gta.cycles", "cycles"),
    lower("sim.gtw.cycles", "cycles"),
    lower("sim.dense.cycles", "cycles"),
    lower("sim.macs", "count"),
    lower("sim.sram_words", "count"),
    lower("sim.dram_words", "count"),
    higher("sim.pe_utilisation", "fraction"),
    lower("sim.host_ms_per_trace", "ms"),
    higher("sim.host_cycles_per_s", "1/s"),
    lower("sim.fwd.ns_per_cycle", "ns"),
    lower("sim.gta.ns_per_cycle", "ns"),
    lower("sim.gtw.ns_per_cycle", "ns"),
    lower("sparse.engine.conv_glue_share", "fraction"),
];

/// Whether `name` may name a metric or a workload: it starts with a
/// letter or a digit and holds at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` may name a unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "stbench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["stbench"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.across_seeds)
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_hold_only_the_allowed_characters() {
        for good in [
            "alexnet_pruned",
            "sparse.engine.fwd.parallel-simd_ms",
            "9lives",
            "a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "parallel:simd",
            "a/b",
            "naïve",
            &too_long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for good in ["ms", "samples/s", "1/s", "%", "MiB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "×", "seventeen_letters"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn declared_names_are_valid_and_used_once() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name()), "{}", w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            // Declared end to end or per layer, never both, never neither.
            let per_layer = PER_LAYER.iter().any(|p| p.name == m.name);
            assert_ne!(per_layer, m.across_seeds, "{}", m.name);
            if m.across_seeds {
                assert!(seen.insert(m.name), "{}", m.name);
            }
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = end_to_end("setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert_eq!(Workload::parse("alexnet"), None);
    }

    #[test]
    fn worsening_follows_the_direction() {
        // Lower is better: growing is worse.
        assert_eq!(Better::Lower.worsening(10.0, 11.0), 0.1);
        assert_eq!(Better::Lower.worsening(10.0, 9.0), -0.1);
        // Higher is better: shrinking is worse.
        assert_eq!(Better::Higher.worsening(200.0, 180.0), 0.1);
        assert_eq!(Better::Higher.worsening(200.0, 220.0), -0.1);
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the stbench directory");
        assert!(text.len() <= 64 * 1024);
        let on_disk = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate it: cargo run --manifest-path stbench/Cargo.toml -- manifest"
        );
    }
}
