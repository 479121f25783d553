//! Attribution by replay: the operands of one captured training step are
//! run again, cell by cell, through each engine, the dense `tensor`
//! kernels, the pruner and the simulator, so that measured nanoseconds
//! and simulated cycles for one `(layer, stage)` cell sit in one row.

use crate::json::Json;
use crate::stats::median;
use crate::workload::{metric, Metric};
use rand::stream::StreamKey;
use sparsetrain_checkpoint::LayerState;
use sparsetrain_core::dataflow::analysis::analyze_conv;
use sparsetrain_core::dataflow::{compile, ConvLayerTrace, LayerTrace, NetworkTrace, StepKind};
use sparsetrain_core::prune::{BatchStream, LayerPruner, PruneConfig};
use sparsetrain_sim::baseline::simulate_baseline;
use sparsetrain_sim::{ArchConfig, Machine};
use sparsetrain_sparse::ExecutionContext;
use sparsetrain_tensor::{conv, im2row, Tensor3, Tensor4};
use std::time::{Duration, Instant};

/// The engines every cell is replayed on: name in a metric, name in the
/// registry (`:` may not appear in a metric name).
pub const ENGINES: [(&str, &str); 4] = [
    ("scalar", "scalar"),
    ("simd", "simd"),
    ("im2row", "im2row"),
    ("parallel-simd", "parallel:simd"),
];

/// The training stages, as metric names spell them, in `StepKind` order.
pub const STAGES: [(&str, StepKind); 3] = [
    ("fwd", StepKind::Forward),
    ("gta", StepKind::Gta),
    ("gtw", StepKind::Gtw),
];

/// Median wall time in ns of `calls` timed calls, after one untimed call
/// that sizes buffers. `call` returns the duration of its timed part.
pub fn median_ns(calls: usize, mut call: impl FnMut() -> Duration) -> f64 {
    call();
    let ns: Vec<f64> = (0..calls.max(1)).map(|_| call().as_nanos() as f64).collect();
    median(&ns).expect("at least one timed call")
}

/// One `(conv layer, stage)` cell of the captured step, one sample.
#[derive(Debug, Clone)]
pub struct Cell {
    pub layer: String,
    pub stage: usize,
    /// Median ns per call on each of [`ENGINES`].
    pub engine_ns: [f64; 4],
    /// Median ns per call of the dense `sparsetrain_tensor` kernel.
    pub tensor_ns: f64,
    pub sparse_macs: u64,
    pub dense_macs: u64,
    /// Cycles the simulated SparseTrain machine spends on the cell.
    pub sim_cycles: u64,
}

fn conv_weights(conv: &ConvLayerTrace, params: &[LayerState]) -> (Tensor4, Vec<f32>) {
    let k = conv.geom.kernel;
    let shape = (conv.filters, conv.input.channels(), k, k);
    let found = params.iter().find_map(|state| match state {
        LayerState::Params { layer, tensors } if *layer == conv.name => match tensors.as_slice() {
            [w, b] if w.len() == shape.0 * shape.1 * k * k => Some((w.clone(), b.clone())),
            _ => None,
        },
        _ => None,
    });
    let (w, b) =
        found.unwrap_or_else(|| panic!("no parameters for conv layer {:?} in the snapshot", conv.name));
    (Tensor4::from_vec(shape.0, shape.1, k, k, w), b)
}

/// Replays the three stages of one conv layer. A stage the layer does not
/// run (GTA of the first layer) gives no cell.
fn replay_conv(
    conv: &ConvLayerTrace,
    params: &[LayerState],
    sim_cycles: [u64; 3],
    calls: usize,
) -> Vec<Cell> {
    let (weights, bias) = conv_weights(conv, params);
    let work = analyze_conv(conv);
    let inputs = [conv.input.clone()];
    let douts = [conv.dout.clone()];
    let masks = [conv.input_masks.clone()];
    let (c, h, w) = (conv.input.channels(), conv.input.height(), conv.input.width());
    let dense_in = conv.input.to_tensor();
    let dense_dout = conv.dout.to_tensor();

    let mut engine_ns = [[0.0f64; 4]; 3];
    for (e, (_, registry_name)) in ENGINES.iter().enumerate() {
        let mut ctx = ExecutionContext::by_name(registry_name).expect("replay engines are registered");
        engine_ns[0][e] = median_ns(calls, || {
            let t = Instant::now();
            std::hint::black_box(ctx.forward_batch_for(
                &conv.name,
                &inputs,
                &weights,
                Some(&bias),
                conv.geom,
            ));
            t.elapsed()
        });
        if conv.needs_input_grad {
            let mut dins = [Tensor3::zeros(c, h, w)];
            engine_ns[1][e] = median_ns(calls, || {
                dins[0].fill(0.0);
                let t = Instant::now();
                ctx.input_grad_batch_for_into(&conv.name, &douts, &weights, conv.geom, &masks, &mut dins);
                std::hint::black_box(&dins);
                t.elapsed()
            });
        }
        let mut dw = Tensor4::zeros(conv.filters, c, conv.geom.kernel, conv.geom.kernel);
        engine_ns[2][e] = median_ns(calls, || {
            dw.fill(0.0);
            let t = Instant::now();
            ctx.weight_grad_batch_for(&conv.name, &inputs, &douts, conv.geom, &mut dw);
            std::hint::black_box(&dw);
            t.elapsed()
        });
    }
    let tensor_ns = [
        median_ns(calls, || {
            let t = Instant::now();
            std::hint::black_box(im2row::forward(&dense_in, &weights, Some(&bias), conv.geom));
            t.elapsed()
        }),
        if conv.needs_input_grad {
            median_ns(calls, || {
                let t = Instant::now();
                std::hint::black_box(conv::input_grad(&dense_dout, &weights, conv.geom, h, w));
                t.elapsed()
            })
        } else {
            0.0
        },
        median_ns(calls, || {
            let t = Instant::now();
            std::hint::black_box(conv::weight_grad(&dense_in, &dense_dout, conv.geom));
            t.elapsed()
        }),
    ];

    (0..3)
        .filter(|&stage| stage != 1 || conv.needs_input_grad)
        .map(|stage| Cell {
            layer: conv.name.clone(),
            stage,
            engine_ns: engine_ns[stage],
            tensor_ns: tensor_ns[stage],
            sparse_macs: work.sparse_macs[stage],
            dense_macs: work.dense_macs[stage],
            sim_cycles: sim_cycles[stage],
        })
        .collect()
}

/// Everything replay and simulation say about one captured step.
pub struct Replay {
    pub cells: Vec<Cell>,
    pub metrics: Vec<Metric>,
}

impl Replay {
    /// Sum over the cells of the layers `keep` accepts of the ns the
    /// workload's own execution takes per sample: engine `own` of
    /// [`ENGINES`], or the dense `tensor` kernels when `None`.
    pub fn own_ns(&self, own: Option<usize>, keep: &dyn Fn(&str) -> bool) -> f64 {
        self.cells
            .iter()
            .filter(|c| keep(&c.layer))
            .map(|c| own.map_or(c.tensor_ns, |e| c.engine_ns[e]))
            .sum()
    }

    /// The per-cell table of the trace document.
    pub fn cells_json(&self) -> Json {
        Json::Arr(
            self.cells
                .iter()
                .map(|c| {
                    let mut row = vec![
                        ("layer".to_string(), Json::str(c.layer.as_str())),
                        ("stage".to_string(), Json::str(STAGES[c.stage].0)),
                    ];
                    for (e, (name, _)) in ENGINES.iter().enumerate() {
                        row.push((format!("{name}_ns"), Json::Num(c.engine_ns[e])));
                    }
                    row.push(("tensor_ns".to_string(), Json::Num(c.tensor_ns)));
                    row.push(("sparse_macs".to_string(), Json::Num(c.sparse_macs as f64)));
                    row.push(("dense_macs".to_string(), Json::Num(c.dense_macs as f64)));
                    row.push(("sim_cycles".to_string(), Json::Num(c.sim_cycles as f64)));
                    Json::Obj(row)
                })
                .collect(),
        )
    }
}

/// Replays `trace` (one sample of one step) with the layer parameters in
/// `params`. `own` is the workload's own engine as an index into
/// [`ENGINES`] (`None`: dense `tensor` execution).
pub fn replay(trace: &NetworkTrace, params: &[LayerState], own: Option<usize>, calls: usize) -> Replay {
    let mut metrics = Vec::new();

    // Compile and simulate: simulated time, exact for a fixed seed; the
    // host times are the simulator's own cost.
    let started = Instant::now();
    let program = compile(trace);
    metrics.push(metric(
        "core.dataflow.compile_ms",
        started.elapsed().as_secs_f64() * 1e3,
        "ms",
    ));
    metrics.push(metric("core.dataflow.instrs", program.len() as f64, "count"));

    let config = ArchConfig::paper_default();
    let machine = Machine::new(config);
    let mut report = machine.simulate(trace);
    let host_ns = median_ns(calls.min(5), || {
        let t = Instant::now();
        report = machine.simulate(trace);
        t.elapsed()
    });
    let dense = simulate_baseline(&machine, trace);
    let mut sram_words = 0u64;
    let mut dram_words = 0u64;
    let mut active_cycles = 0u64;
    for (name, kind) in STAGES {
        let total = report.step_total(kind);
        metrics.push(metric(
            &format!("sim.{name}.cycles"),
            total.cycles as f64,
            "cycles",
        ));
        sram_words += total.sram_words;
        dram_words += total.dram_words;
        active_cycles += total.active_cycles;
    }
    metrics.push(metric("sim.dense.cycles", dense.total_cycles as f64, "cycles"));
    metrics.push(metric("sim.macs", report.total_macs as f64, "count"));
    metrics.push(metric("sim.sram_words", sram_words as f64, "count"));
    metrics.push(metric("sim.dram_words", dram_words as f64, "count"));
    metrics.push(metric(
        "sim.pe_utilisation",
        active_cycles as f64 / (report.total_cycles.max(1) * config.total_pes() as u64) as f64,
        "fraction",
    ));
    metrics.push(metric("sim.host_ms_per_trace", host_ns / 1e6, "ms"));
    metrics.push(metric(
        "sim.host_cycles_per_s",
        report.total_cycles as f64 / (host_ns / 1e9),
        "1/s",
    ));

    let mut cells = Vec::new();
    let (mut in_nnz, mut in_len, mut dout_nnz, mut dout_len) = (0usize, 0usize, 0usize, 0usize);
    for layer in &trace.layers {
        let LayerTrace::Conv(conv) = layer else { continue };
        let sim_cycles = report
            .layers
            .iter()
            .find(|l| l.name == conv.name)
            .map_or([0; 3], |l| STAGES.map(|(_, kind)| l.step(kind).cycles));
        cells.extend(replay_conv(conv, params, sim_cycles, calls));
        in_nnz += conv.input.nnz();
        in_len += conv.input.channels() * conv.input.height() * conv.input.width();
        dout_nnz += conv.dout.nnz();
        dout_len += conv.dout.channels() * conv.dout.height() * conv.dout.width();
    }
    metrics.push(metric(
        "sparse.engine.input_density",
        in_nnz as f64 / in_len.max(1) as f64,
        "fraction",
    ));
    metrics.push(metric(
        "sparse.engine.dout_density",
        dout_nnz as f64 / dout_len.max(1) as f64,
        "fraction",
    ));

    let tensor_names = [
        "tensor.conv.fwd_ms",
        "tensor.conv.input_grad_ms",
        "tensor.conv.weight_grad_ms",
    ];
    for (stage, (stage_name, _)) in STAGES.iter().enumerate() {
        let of_stage = || cells.iter().filter(move |c| c.stage == stage);
        for (e, (engine_name, _)) in ENGINES.iter().enumerate() {
            let ns: f64 = of_stage().map(|c| c.engine_ns[e]).sum();
            metrics.push(metric(
                &format!("sparse.engine.{stage_name}.{engine_name}_ms"),
                ns / 1e6,
                "ms",
            ));
        }
        let tensor_ns: f64 = of_stage().map(|c| c.tensor_ns).sum();
        metrics.push(metric(tensor_names[stage], tensor_ns / 1e6, "ms"));
        let sparse_macs: u64 = of_stage().map(|c| c.sparse_macs).sum();
        let dense_macs: u64 = of_stage().map(|c| c.dense_macs).sum();
        let cycles: u64 = of_stage().map(|c| c.sim_cycles).sum();
        let own_ns: f64 = of_stage()
            .map(|c| own.map_or(c.tensor_ns, |e| c.engine_ns[e]))
            .sum();
        metrics.push(metric(
            &format!("sparse.engine.{stage_name}.sparse_macs"),
            sparse_macs as f64,
            "count",
        ));
        metrics.push(metric(
            &format!("sparse.engine.{stage_name}.dense_macs"),
            dense_macs as f64,
            "count",
        ));
        metrics.push(metric(
            &format!("sparse.engine.{stage_name}.ns_per_sparse_mac"),
            own_ns / sparse_macs.max(1) as f64,
            "ns",
        ));
        metrics.push(metric(
            &format!("sim.{stage_name}.ns_per_cycle"),
            own_ns / cycles.max(1) as f64,
            "ns",
        ));
    }
    Replay { cells, metrics }
}

/// What re-pruning the tapped pre-prune gradients of one step costs.
pub struct PruneReplay {
    pub metrics: Vec<Metric>,
    /// Median ns of one `prune_batch` call per site, by site name.
    pub site_ns: Vec<(String, f64)>,
}

/// Re-prunes each site's gradients (the whole batch, as one vector) with
/// a pruner warmed on those same gradients.
pub fn replay_prune(tapped: &[(String, Vec<f32>)], config: PruneConfig, calls: usize) -> PruneReplay {
    let nnz = |v: &[f32]| v.iter().filter(|x| **x != 0.0).count();
    let (mut elements, mut nnz_in, mut nnz_out) = (0usize, 0usize, 0usize);
    let mut site_ns = Vec::new();
    for (site, (name, grads)) in tapped.iter().enumerate() {
        let mut pruner = LayerPruner::new(config);
        let key = StreamKey::new(site as u64);
        let mut draw = 0u64;
        let mut scratch = grads.clone();
        let mut prune_once = |scratch: &mut Vec<f32>| {
            scratch.copy_from_slice(grads);
            draw += 1;
            let stream = BatchStream::contiguous(key.derive(draw));
            let t = Instant::now();
            pruner.prune_batch(scratch, &stream);
            t.elapsed()
        };
        // Fill the threshold FIFO first: a cold pruner passes gradients
        // through and would time as a copy.
        for _ in 0..config.fifo_depth {
            prune_once(&mut scratch);
        }
        let ns = median_ns(calls, || prune_once(&mut scratch));
        elements += grads.len();
        nnz_in += nnz(grads);
        nnz_out += nnz(&scratch);
        site_ns.push((name.clone(), ns));
    }
    let total_ns: f64 = site_ns.iter().map(|(_, ns)| ns).sum();
    let metrics = vec![
        metric("core.prune.sites", tapped.len() as f64, "count"),
        metric("core.prune.elements_per_step", elements as f64, "count"),
        metric("core.prune.ms_per_step", total_ns / 1e6, "ms"),
        metric(
            "core.prune.ns_per_element",
            total_ns / elements.max(1) as f64,
            "ns",
        ),
        metric(
            "core.prune.density_in",
            nnz_in as f64 / elements.max(1) as f64,
            "fraction",
        ),
        metric(
            "core.prune.density_out",
            nnz_out as f64 / elements.max(1) as f64,
            "fraction",
        ),
    ];
    PruneReplay { metrics, site_ns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ns_skips_the_first_call() {
        let mut n = 0u64;
        let ns = median_ns(3, || {
            n += 1;
            // The untimed first call is the slow one.
            Duration::from_nanos(if n == 1 { 1_000_000 } else { 10 * n })
        });
        assert_eq!(n, 4);
        assert_eq!(ns, 30.0);
    }

    #[test]
    fn warmed_pruner_thins_dense_gradients() {
        let grads: Vec<f32> = (0..4096).map(|i| ((i * 37 % 101) as f32 - 50.0) * 1e-3).collect();
        let tapped = vec![("prune1".to_string(), grads)];
        let out = replay_prune(&tapped, PruneConfig::new(0.9, 4), 3);
        let value = |name: &str| out.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!(value("core.prune.sites"), 1.0);
        assert_eq!(value("core.prune.elements_per_step"), 4096.0);
        assert!(value("core.prune.density_in") > 0.95);
        assert!(value("core.prune.density_out") < 0.5);
        assert!(value("core.prune.ms_per_step") > 0.0);
        assert_eq!(out.site_ns.len(), 1);
    }
}
