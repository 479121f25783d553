//! Integration: §II's scoping decision — the weight-update stage is not a
//! bottleneck — holds for the simulated architecture.

use sparsetrain::core::prune::PruneConfig;
use sparsetrain::nn::data::SyntheticSpec;
use sparsetrain::nn::models;
use sparsetrain::nn::train::{TrainConfig, Trainer};
use sparsetrain::nn::Layer;
use sparsetrain::sim::update::{update_cost_per_sample, UpdateRule};
use sparsetrain::sim::{ArchConfig, Machine};

#[test]
fn weight_update_is_a_small_fraction_of_a_resnet_step() {
    // The claim concerns realistic feature-map sizes: at CIFAR scale the
    // conv stages dwarf the parameter stream. (At 8x8 toy scale the
    // parameter count dominates and the share legitimately grows — see
    // update_share_shrinks_as_convs_grow below.)
    let mut spec = SyntheticSpec::tiny(3);
    spec.size = 32;
    spec.train_samples = 16;
    spec.test_samples = 4;
    let (train, _) = spec.generate();
    let net = models::resnet18(3, 8, 8, Some(PruneConfig::paper_default()), 3);
    let params = net.param_count() as u64;
    let mut trainer = Trainer::new(net, TrainConfig::quick());
    trainer.train_epoch(&train);
    let trace = trainer.capture_trace(&train, "resnet18", "tiny");

    let cfg = ArchConfig::paper_default();
    let machine = Machine::new(cfg);
    let step = machine.simulate(&trace);
    assert!(step.total_cycles > 0);

    let update = update_cost_per_sample(params, UpdateRule::SgdMomentum, &cfg);
    let share = update.fraction_of(step.total_cycles);
    assert!(
        share < 0.10,
        "update stage is {:.1}% of a training step — the paper's scoping \
         assumption would be violated",
        100.0 * share
    );
}

#[test]
fn update_share_shrinks_as_convs_grow() {
    // The larger the feature maps, the more conv work amortizes the
    // (fixed) parameter stream: the share must fall with image size.
    let cfg = ArchConfig::paper_default();
    let machine = Machine::new(cfg);
    let mut shares = Vec::new();
    for size in [8usize, 16] {
        let mut spec = SyntheticSpec::tiny(3);
        spec.size = size;
        let (train, _) = spec.generate();
        let net = models::mini_cnn_for(3, spec.size, 3, 8, None, 4);
        let params = net.param_count() as u64;
        let mut trainer = Trainer::new(net, TrainConfig::quick());
        trainer.train_epoch(&train);
        let trace = trainer.capture_trace(&train, "mini", "tiny");
        let step = machine.simulate(&trace);
        let update = update_cost_per_sample(params, UpdateRule::SgdMomentum, &cfg);
        shares.push(update.fraction_of(step.total_cycles));
    }
    assert!(
        shares[1] < shares[0],
        "share should fall with image size: {shares:?}"
    );
}
