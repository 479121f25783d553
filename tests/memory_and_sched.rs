//! Integration: the controller's scheduling policy, and the `Machine`'s
//! assumption that weight DMA hides behind compute, checked on its own
//! reports.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparsetrain::core::dataflow::synth::{SynthLayer, SynthNet};
use sparsetrain::core::dataflow::{for_each_forward_op, LayerTrace, NetworkTrace};
use sparsetrain::sim::sched::{compare_policies, lower_bound, Policy};
use sparsetrain::sim::{ArchConfig, Machine};
use sparsetrain::sparse::work::src_work;

fn synth_trace(density: f64) -> NetworkTrace {
    let mut rng = StdRng::seed_from_u64(99);
    SynthNet::new("mem-sched", "synthetic")
        .conv(
            SynthLayer::conv(16, 24, 24, 3)
                .first_layer()
                .dout_density(density),
        )
        .conv(
            SynthLayer::conv(24, 24, 24, 3)
                .input_density(density)
                .dout_density(density),
        )
        .conv(
            SynthLayer::conv(24, 32, 12, 3)
                .stride(2)
                .input_density(density)
                .dout_density(density),
        )
        .generate(&mut rng)
}

/// One training step as the controller runs it, as `(compute, dma)`
/// cycles per step: every forward in layer order, then each layer's GTA
/// and GTW in reverse layer order. Steps with neither (the first layer's
/// skipped GTA) are left out. DMA is the step's DRAM words at the
/// configured bandwidth.
fn step_timeline(machine: &Machine, trace: &NetworkTrace) -> Vec<(u64, u64)> {
    let report = machine.simulate(trace);
    let dma = |words: u64| words.div_ceil(machine.config().dram_words_per_cycle);
    let forwards = report.layers.iter().map(|l| &l.steps[0]);
    let backwards = report.layers.iter().rev().flat_map(|l| &l.steps[1..]);
    forwards
        .chain(backwards)
        .map(|s| (s.cycles, dma(s.dram_words)))
        .filter(|&(compute, dma)| compute > 0 || dma > 0)
        .collect()
}

/// Steps whose successor's DMA does not fit under their own compute: the
/// bubbles a double-buffered prefetch cannot hide.
fn exposed_steps(timeline: &[(u64, u64)]) -> usize {
    timeline.windows(2).filter(|w| w[1].1 > w[0].0).count()
}

#[test]
fn controller_policy_is_near_optimal_on_real_task_lists() {
    for density in [0.8, 0.3, 0.1] {
        // Enough tasks per PE (64 filters × 32 rows = 2048 tasks on 168
        // PEs) that list scheduling's quantization noise stays small.
        let mut rng = StdRng::seed_from_u64(7);
        let trace = SynthNet::new("sched", "synthetic")
            .conv(
                SynthLayer::conv(32, 64, 32, 3)
                    .input_density(density)
                    .dout_density(density),
            )
            .generate(&mut rng);
        let LayerTrace::Conv(conv) = &trace.layers[0] else {
            panic!("expected conv")
        };
        let mut tasks: Vec<u64> = Vec::new();
        let mut last = usize::MAX;
        for_each_forward_op(conv, |t, op| {
            if t != last {
                tasks.push(0);
                last = t;
            }
            *tasks.last_mut().unwrap() += src_work(op.input, op.geom).cycles;
        });
        let results = compare_policies(&tasks, 168);
        let lb = lower_bound(&tasks, 168).max(1);
        let least = results.iter().find(|r| r.policy == Policy::LeastLoaded).unwrap();
        assert!(
            (least.makespan as f64) < 1.1 * lb as f64,
            "least-loaded {:.3}× off the bound at density {density}",
            least.makespan as f64 / lb as f64
        );
        // And it never loses to the static policies.
        for r in &results {
            assert!(least.makespan <= r.makespan, "{:?} beat least-loaded", r.policy);
        }
    }
}

#[test]
fn pipeline_model_confirms_dma_hiding_at_paper_buffer_size() {
    // The Machine treats per-batch weight traffic as overlapped: each
    // step's DMA must be prefetchable behind the previous step's compute.
    let trace = synth_trace(0.4);
    let machine = Machine::new(ArchConfig::paper_default());
    let timeline = step_timeline(&machine, &trace);
    // 3 forwards + (gta, gtw) per layer, minus the first layer's skipped
    // GTA which the controller never schedules.
    assert_eq!(timeline.len(), 3 + 2 * 3 - 1);
    assert_eq!(
        exposed_steps(&timeline),
        0,
        "paper-size buffer should hide DMA: {timeline:?}"
    );
}

#[test]
fn starved_dram_exposes_pipeline_bubbles() {
    // Sanity check in the other direction: crush the DRAM bandwidth and
    // the same trace must stop hiding its transfers.
    let trace = synth_trace(0.4);
    let mut cfg = ArchConfig::paper_default();
    cfg.dram_words_per_cycle = 1;
    cfg.batch_size = 1; // no amortization
    let timeline = step_timeline(&Machine::new(cfg), &trace);
    assert!(
        exposed_steps(&timeline) > 0,
        "1 word/cycle DRAM cannot hide weight traffic: {timeline:?}"
    );
}

#[test]
fn sparser_traces_schedule_with_less_total_work() {
    let dense = synth_trace(0.9);
    let sparse = synth_trace(0.2);
    let machine = Machine::new(ArchConfig::paper_default());
    let dense_report = machine.simulate(&dense);
    let sparse_report = machine.simulate(&sparse);
    assert!(sparse_report.total_cycles < dense_report.total_cycles);
    assert!(sparse_report.total_macs < dense_report.total_macs);
}
