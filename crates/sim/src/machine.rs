//! The whole-accelerator simulation.
//!
//! The controller walks a network trace layer by layer, stage by stage
//! (Forward → GTA → GTW), enumerating row-operation *tasks* (one output
//! row's operations) and dispatching each to the least-loaded PE. Stage
//! latency is the slowest PE's load, unless the global buffer or DRAM
//! bandwidth binds first. Energy is accounted per event with the shared
//! [`crate::energy::EnergyModel`].
//!
//! The per-op costs come from the analytic work model
//! ([`sparsetrain_sparse::work`]); the cycle-exact PE in [`crate::pe`] is
//! tested to produce identical numbers, so the fast path *is* the
//! cycle-accurate result, computed in closed form.

use crate::config::ArchConfig;
use crate::energy::{EnergyMeter, EnergyModel};
use crate::report::{LayerReport, SimReport, StepReport};
use crate::sched::{schedule, Policy};
use sparsetrain_core::dataflow::{ConvLayerTrace, FcLayerTrace, LayerTrace, NetworkTrace};
use sparsetrain_sparse::ops::TaskId;
use sparsetrain_sparse::work::{msrc_work, osrc_work, src_work, OpWork};

/// On-chip operand storage format, which sets the buffer traffic per
/// operand value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OperandFormat {
    /// SparseTrain's compressed offset+value pairs: 2 words per non-zero.
    #[default]
    Compressed,
    /// The dense baseline's raw layout: 1 word per value (zeros included —
    /// but a densified trace has no zeros, so loads equal values).
    Raw,
}

impl OperandFormat {
    /// Buffer words moved for `values` streamed operand values.
    ///
    /// The compressed format packs four 4-bit offset deltas per 16-bit
    /// word alongside the values (as in SCNN-style encodings), so the
    /// overhead is 25%, not a full word per value.
    pub fn words_for(&self, values: u64) -> u64 {
        match self {
            OperandFormat::Compressed => values + values.div_ceil(4),
            OperandFormat::Raw => values,
        }
    }
}

/// The simulated SparseTrain accelerator.
///
/// The same machine also simulates the dense baseline: feed it a densified
/// trace (see [`crate::baseline`]) with [`OperandFormat::Raw`], which makes
/// every operand fully dense, every mask full and all traffic uncompressed
/// — the modified-Eyeriss dense training configuration of §VI with
/// identical PE count and buffer size.
#[derive(Debug, Clone)]
pub struct Machine {
    config: ArchConfig,
    energy: EnergyModel,
    policy: Policy,
}

/// Accumulates one stage's op stream into tasks and traffic.
struct StepAccumulator {
    current_task: Option<TaskId>,
    task_cycles: u64,
    tasks: Vec<u64>,
    pes: usize,
    policy: Policy,
    macs: u64,
    active_cycles: u64,
    sram_words: u64,
}

impl StepAccumulator {
    fn new(pes: usize, policy: Policy) -> Self {
        Self {
            current_task: None,
            task_cycles: 0,
            tasks: Vec::new(),
            pes,
            policy,
            macs: 0,
            active_cycles: 0,
            sram_words: 0,
        }
    }

    fn on_op(&mut self, task: TaskId, work: OpWork, op_sram_words: u64) {
        if self.current_task != Some(task) {
            self.flush_task();
            self.current_task = Some(task);
        }
        self.task_cycles += work.cycles;
        self.macs += work.macs;
        self.active_cycles += work.cycles;
        self.sram_words += op_sram_words;
    }

    fn flush_task(&mut self) {
        if self.task_cycles > 0 {
            self.tasks.push(self.task_cycles);
            self.task_cycles = 0;
        }
        self.current_task = None;
    }

    /// Finalizes the stage. `dram_words` is priced for energy; only
    /// `dram_spill_words` (traffic that cannot be double-buffered because
    /// the working set exceeds the global buffer) can bound latency.
    fn finish(
        mut self,
        write_words: u64,
        dram_words: u64,
        dram_spill_words: u64,
        cfg: &ArchConfig,
    ) -> StepReport {
        self.flush_task();
        let compute = schedule(self.policy, &self.tasks, self.pes).makespan;
        let sram_words = self.sram_words + write_words;
        let sram_bound = sram_words.div_ceil(cfg.sram_words_per_cycle);
        let dram_bound = dram_spill_words.div_ceil(cfg.dram_words_per_cycle);
        StepReport {
            cycles: compute.max(sram_bound).max(dram_bound),
            macs: self.macs,
            sram_words,
            dram_words,
            active_cycles: self.active_cycles,
        }
    }
}

impl Machine {
    /// Creates a machine with the default energy model.
    pub fn new(config: ArchConfig) -> Self {
        Self::with_energy(config, EnergyModel::finfet_14nm())
    }

    /// Creates a machine with an explicit energy model.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn with_energy(config: ArchConfig, energy: EnergyModel) -> Self {
        config.validate().expect("invalid architecture configuration");
        Self {
            config,
            energy,
            policy: Policy::LeastLoaded,
        }
    }

    /// Returns the machine with a different task-scheduling policy (the
    /// controller's default is greedy least-loaded; the alternatives are
    /// for the scheduling ablation — see [`crate::sched`]).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// The active scheduling policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The machine's configuration.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Simulates one training sample described by `trace` with the
    /// compressed operand format (the SparseTrain configuration).
    ///
    /// # Panics
    ///
    /// Panics if the trace fails validation.
    pub fn simulate(&self, trace: &NetworkTrace) -> SimReport {
        self.simulate_with_format(trace, OperandFormat::Compressed)
    }

    /// Simulates with an explicit operand format. Use
    /// [`OperandFormat::Raw`] together with a densified trace for the dense
    /// baseline.
    ///
    /// # Panics
    ///
    /// Panics if the trace fails validation.
    pub fn simulate_with_format(&self, trace: &NetworkTrace, format: OperandFormat) -> SimReport {
        trace.validate().expect("invalid network trace");
        let mut meter = EnergyMeter::new(self.energy);
        let mut layers = Vec::with_capacity(trace.layers.len());
        let mut total_cycles = 0u64;
        let mut total_macs = 0u64;

        for (idx, layer) in trace.layers.iter().enumerate() {
            let report = match layer {
                LayerTrace::Conv(conv) => {
                    let out_density_hint = self.output_density_hint(trace, idx);
                    self.simulate_conv(conv, out_density_hint, format, &mut meter)
                }
                LayerTrace::Fc(fc) => self.simulate_fc(fc, &mut meter),
            };
            total_cycles += report.total_cycles();
            total_macs += report.steps.iter().map(|s| s.macs).sum::<u64>();
            layers.push(report);
        }

        SimReport {
            model: trace.model.clone(),
            dataset: trace.dataset.clone(),
            total_cycles,
            total_macs,
            energy: meter.breakdown(),
            layers,
        }
    }

    /// Density the PPU's compressed write-back of this layer's forward
    /// output will have: the consuming layer's input density when known
    /// (the output passes through ReLU/Pool and becomes that input),
    /// otherwise a conservative 1.0.
    fn output_density_hint(&self, trace: &NetworkTrace, idx: usize) -> f64 {
        match trace.layers.get(idx + 1) {
            Some(LayerTrace::Conv(c)) => c.input_density(),
            Some(LayerTrace::Fc(f)) => f.input_density(),
            None => 1.0,
        }
    }

    fn simulate_conv(
        &self,
        conv: &ConvLayerTrace,
        out_density_hint: f64,
        format: OperandFormat,
        meter: &mut EnergyMeter,
    ) -> LayerReport {
        let pes = self.config.total_pes();
        let k = conv.geom.kernel as u64;
        let weight_words =
            (conv.filters * conv.input.channels() * conv.geom.kernel * conv.geom.kernel) as u64;
        // Weights are fetched from DRAM once per *batch* and reused across
        // the samples of the iteration (the 386 KB buffer holds one
        // iteration's working set, §VI). Per-sample accounting divides by
        // the batch size.
        let weight_dram = weight_words.div_ceil(self.config.batch_size as u64);

        // ---- Forward: SRC ops. Reads: the operand stream (packed
        // offset + value when compressed) and the kernel row held in Reg-1
        // (K words per op).
        let mut acc = StepAccumulator::new(pes, self.policy);
        conv.forward_ops(|task, op| {
            let work = src_work(op.input, op.geom);
            acc.on_op(task, work, format.words_for(work.loads) + k);
        });
        let out_elems = (conv.filters * conv.out_height() * conv.out_width()) as u64;
        let out_words = format.words_for((out_elems as f64 * out_density_hint).ceil() as u64);
        let spill = self.spill_words(conv, out_words);
        // The weight fetch is priced for energy and overlapped with compute
        // unless the working set spills.
        let fwd_dram = weight_dram + spill;
        let forward = acc.finish(out_words, fwd_dram, spill, &self.config);

        // ---- GTA: MSRC ops. Reads: gradient stream + kernel row; the mask
        // (the input's offset list) is read once per task — one word per
        // mask entry, folded into writes below. Writes: the dI rows
        // (bounded by the masks).
        let mut acc = StepAccumulator::new(pes, self.policy);
        conv.gta_ops(|task, op| {
            let work = msrc_work(op.grad, op.geom, op.mask);
            acc.on_op(task, work, format.words_for(work.loads) + k);
        });
        let mask_words: u64 = conv.input_masks.iter().map(|m| m.count() as u64).sum();
        let gta_writes = format.words_for(mask_words) + mask_words.div_ceil(4); // dI rows + packed mask reads
        let gta = if conv.needs_input_grad {
            acc.finish(gta_writes, 0, 0, &self.config)
        } else {
            StepReport::default()
        };

        // ---- GTW: OSRC ops. Reads: both operand streams.
        // Writes: one kernel row of dW per task plus the bias gradients.
        let mut acc = StepAccumulator::new(pes, self.policy);
        conv.gtw_ops(|task, op| {
            let work = osrc_work(op.input, op.grad, op.geom);
            acc.on_op(task, work, format.words_for(work.loads));
        });
        let dw_words = weight_words + conv.filters as u64;
        // dW accumulates in the buffer across the batch and streams back to
        // DRAM once per batch for the weight update; double-buffered with
        // compute.
        let gtw = acc.finish(
            dw_words,
            dw_words.div_ceil(self.config.batch_size as u64),
            0,
            &self.config,
        );

        for step in [&forward, &gta, &gtw] {
            meter.record_macs(step.macs);
            meter.record_sram_words(step.sram_words);
            meter.record_dram_words(step.dram_words);
            meter.record_active_cycles(step.active_cycles);
        }

        LayerReport {
            name: conv.name.clone(),
            steps: [forward, gta, gtw],
        }
    }

    /// Words that spill to DRAM when a layer's working set exceeds the
    /// global buffer.
    fn spill_words(&self, conv: &ConvLayerTrace, out_words: u64) -> u64 {
        let in_words = conv.input.storage_words() as u64;
        let weight_words =
            (conv.filters * conv.input.channels() * conv.geom.kernel * conv.geom.kernel) as u64;
        let footprint = in_words + out_words + weight_words;
        let capacity = (self.config.buffer_bytes / self.config.word_bytes) as u64;
        footprint.saturating_sub(capacity)
    }

    fn simulate_fc(&self, fc: &FcLayerTrace, meter: &mut EnergyMeter) -> LayerReport {
        let pes = self.config.total_pes() as u64;
        let lanes = self.config.mac_lanes as u64;
        let throughput = pes * lanes;

        // FC weights are streamed from DRAM once per batch (they rarely fit
        // the buffer alongside the conv working set); per-sample share:
        let weight_dram = fc.dense_macs().div_ceil(self.config.batch_size as u64);

        // Forward: y = W x, skipping zero input columns.
        let fwd_macs = fc.input_nnz as u64 * fc.out_features as u64;
        let fwd_sram = fwd_macs + 2 * fc.input_nnz as u64 + fc.out_features as u64;
        let forward = analytic_step(fwd_macs, throughput, fwd_sram, weight_dram, &self.config);

        // GTA: dx = Wᵀ dy masked by the forward input pattern.
        let gta = if fc.needs_input_grad {
            let macs = fc.dout_nnz as u64 * fc.mask_nnz as u64;
            let sram = macs + 2 * fc.dout_nnz as u64 + 2 * fc.mask_nnz as u64;
            analytic_step(macs, throughput, sram, 0, &self.config)
        } else {
            StepReport::default()
        };

        // GTW: dW = dy xᵀ (rank-1); dW accumulates on-chip and streams to
        // DRAM once per batch.
        let dw_words = fc.dense_macs();
        let gtw_macs = fc.dout_nnz as u64 * fc.input_nnz as u64;
        let gtw = analytic_step(
            gtw_macs,
            throughput,
            gtw_macs + dw_words,
            weight_dram,
            &self.config,
        );

        for step in [&forward, &gta, &gtw] {
            meter.record_macs(step.macs);
            meter.record_sram_words(step.sram_words);
            meter.record_dram_words(step.dram_words);
            meter.record_active_cycles(step.active_cycles);
        }

        LayerReport {
            name: fc.name.clone(),
            steps: [forward, gta, gtw],
        }
    }
}

fn analytic_step(
    macs: u64,
    throughput: u64,
    sram_words: u64,
    dram_words: u64,
    cfg: &ArchConfig,
) -> StepReport {
    let compute = macs.div_ceil(throughput.max(1));
    let sram_bound = sram_words.div_ceil(cfg.sram_words_per_cycle);
    // DRAM traffic (FC weights/dW) is double-buffered with compute; it is
    // priced for energy but does not gate latency here.
    StepReport {
        cycles: compute.max(sram_bound),
        macs,
        sram_words,
        dram_words,
        active_cycles: compute,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetrain_sparse::rowconv::SparseFeatureMap;
    use sparsetrain_tensor::conv::ConvGeometry;
    use sparsetrain_tensor::Tensor3;

    fn conv_trace(density_mod: usize) -> ConvLayerTrace {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = Tensor3::from_fn(
            2,
            6,
            6,
            |c, y, x| {
                if (c + y + x) % density_mod == 0 {
                    1.0
                } else {
                    0.0
                }
            },
        );
        let dout = Tensor3::from_fn(
            3,
            6,
            6,
            |c, y, x| {
                if (c + y * x) % density_mod == 0 {
                    0.5
                } else {
                    0.0
                }
            },
        );
        let fm = SparseFeatureMap::from_tensor(&input);
        let masks = fm.masks();
        ConvLayerTrace {
            name: "c".into(),
            geom,
            filters: 3,
            input: fm,
            input_masks: masks,
            dout: SparseFeatureMap::from_tensor(&dout),
            needs_input_grad: true,
        }
    }

    fn net(density_mod: usize) -> NetworkTrace {
        let mut t = NetworkTrace::new("test", "synthetic");
        t.layers.push(LayerTrace::Conv(conv_trace(density_mod)));
        t.layers.push(LayerTrace::Fc(FcLayerTrace {
            name: "fc".into(),
            in_features: 108,
            out_features: 10,
            input_nnz: 108 / density_mod,
            dout_nnz: 10,
            mask_nnz: 108 / density_mod,
            needs_input_grad: true,
        }));
        t
    }

    #[test]
    fn empty_trace_costs_nothing() {
        let m = Machine::new(ArchConfig::tiny());
        let r = m.simulate(&NetworkTrace::new("e", "d"));
        assert_eq!(r.total_cycles, 0);
        assert_eq!(r.energy.total_pj(), 0.0);
    }

    #[test]
    fn sparser_traces_run_faster() {
        let m = Machine::new(ArchConfig::tiny());
        let dense = m.simulate(&net(1)); // every element non-zero
        let sparse = m.simulate(&net(3));
        assert!(
            sparse.total_cycles < dense.total_cycles,
            "sparse {} !< dense {}",
            sparse.total_cycles,
            dense.total_cycles
        );
        assert!(sparse.energy.total_pj() < dense.energy.total_pj());
    }

    #[test]
    fn report_has_per_layer_detail() {
        let m = Machine::new(ArchConfig::tiny());
        let r = m.simulate(&net(2));
        assert_eq!(r.layers.len(), 2);
        assert!(r.layers[0].total_cycles() > 0);
        assert!(r.total_macs > 0);
    }

    #[test]
    fn gta_skipped_for_first_layer() {
        let m = Machine::new(ArchConfig::tiny());
        let mut t = NetworkTrace::new("t", "d");
        let mut conv = conv_trace(2);
        conv.needs_input_grad = false;
        conv.input_masks = Vec::new();
        t.layers.push(LayerTrace::Conv(conv));
        let r = m.simulate(&t);
        assert_eq!(r.layers[0].steps[1], StepReport::default());
    }

    #[test]
    fn more_pes_reduce_latency() {
        let small = Machine::new(ArchConfig::tiny());
        let big = Machine::new(ArchConfig::paper_default());
        let trace = net(1);
        let r_small = small.simulate(&trace);
        let r_big = big.simulate(&trace);
        assert!(r_big.total_cycles <= r_small.total_cycles);
    }

    #[test]
    fn policy_changes_latency_but_not_work() {
        let trace = net(3);
        let least = Machine::new(ArchConfig::tiny());
        let robin = Machine::new(ArchConfig::tiny()).with_policy(Policy::RoundRobin);
        assert_eq!(least.policy(), Policy::LeastLoaded);
        assert_eq!(robin.policy(), Policy::RoundRobin);
        let a = least.simulate(&trace);
        let b = robin.simulate(&trace);
        // Work (MACs, traffic, energy) is policy-independent; latency
        // can only get worse under the load-blind policy.
        assert_eq!(a.total_macs, b.total_macs);
        assert_eq!(a.energy.total_pj(), b.energy.total_pj());
        assert!(a.total_cycles <= b.total_cycles);
    }
}
