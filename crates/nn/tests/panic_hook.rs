//! The supervisor filters injected-fault panics out of the panic hook and
//! leaves the caller's own hook in place. One test, in a binary of its own:
//! the panic hook is process-wide.

use sparsetrain_faults::{FaultPlan, Site, Trigger};
use sparsetrain_nn::data::SyntheticSpec;
use sparsetrain_nn::metrics::MetricStore;
use sparsetrain_nn::supervisor::Supervisor;
use sparsetrain_nn::train::{TrainConfig, Trainer};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn a_supervised_run_keeps_the_callers_panic_hook() {
    static SEEN: AtomicUsize = AtomicUsize::new(0);
    let seen = || SEEN.load(Ordering::Relaxed);
    std::panic::set_hook(Box::new(|_| {
        SEEN.fetch_add(1, Ordering::Relaxed);
    }));
    let (train, _) = SyntheticSpec::tiny(2).generate();
    let kill = FaultPlan::new(1).with(Site::StepKill, Trigger::At(2)).arm();
    let net = sparsetrain_nn::models::mini_cnn(2, 2, None);
    let mut trainer = Trainer::new(net, TrainConfig::quick()).with_faults(kill);
    let out = Supervisor::default().train(&mut trainer, &train, None, 1, &mut MetricStore::new(), &mut []);
    assert_eq!(out.unwrap().recoveries, 1);
    assert_eq!(seen(), 0, "the injected kill reached the hook");
    assert!(std::panic::catch_unwind(|| panic!("on purpose")).is_err());
    assert_eq!(seen(), 1, "the caller's hook is gone after the supervised run");
}
