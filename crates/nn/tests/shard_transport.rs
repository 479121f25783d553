//! The worker pool's message traffic: a rank answers each command with
//! one reply, and a granule that fails inside that reply is replayed to
//! the same bits.

use sparsetrain_core::prune::PruneConfig;
use sparsetrain_faults::{FaultPlan, Faults, Site, Trigger};
use sparsetrain_nn::data::SyntheticSpec;
use sparsetrain_nn::models;
use sparsetrain_nn::sequential::Sequential;
use sparsetrain_nn::shard::{
    self, EngineSetup, ShardPool, StepCommand, StepInput, StepReduction, ThreadTransport, WorkerReply,
    WorkerTransport,
};
use sparsetrain_nn::Layer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A [`ThreadTransport`] that counts the replies the coordinator takes.
struct Counting {
    inner: ThreadTransport,
    replies: Arc<AtomicUsize>,
}

impl WorkerTransport for Counting {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn submit(&mut self, rank: usize, cmd: StepCommand) {
        self.inner.submit(rank, cmd);
    }

    fn recv(&mut self) -> WorkerReply {
        self.replies.fetch_add(1, Ordering::Relaxed);
        self.inner.recv()
    }

    fn respawn(&mut self, rank: usize, replica: Sequential) {
        self.inner.respawn(rank, replica);
    }
}

/// One step of eight one-sample granules on a fresh pool of `workers`
/// ranks whose workers hold `faults`; returns the reduction, the replies
/// taken and the retries.
fn one_step(workers: usize, faults: Faults) -> (StepReduction, usize, usize) {
    let (data, _) = SyntheticSpec::tiny(3).generate();
    let chunk: Vec<usize> = (0..8).collect();
    let mut template = models::mini_cnn(3, 4, Some(PruneConfig::new(0.9, 2)));
    let mut params = Vec::new();
    template.visit_params(&mut |p, _| params.extend_from_slice(p));
    let mut taus = Vec::new();
    template.collect_prune_taus(&mut taus);
    let replies = Arc::new(AtomicUsize::new(0));
    let transport = Counting {
        inner: ThreadTransport::spawn(workers, &template, EngineSetup::Dense, faults).unwrap(),
        replies: Arc::clone(&replies),
    };
    let mut pool = ShardPool::with_transport(template, EngineSetup::Dense, Box::new(transport));
    let reduced = pool.run_step(&StepInput {
        seed: 3,
        epoch: 0,
        step: 1,
        params,
        taus,
        granules: shard::granules_of(&data, &chunk, 1),
    });
    let taken = replies.load(Ordering::Relaxed);
    (reduced, taken, pool.health().retries)
}

fn bits(r: &StepReduction) -> (u64, usize, Vec<u32>) {
    (
        r.loss.to_bits(),
        r.correct,
        r.grads.iter().map(|g| g.to_bits()).collect(),
    )
}

#[test]
fn one_reply_per_rank_and_a_failed_granule_replays_bitwise() {
    let (clean, replies, retries) = one_step(2, Faults::default());
    assert_eq!(replies, 2, "a fault-free step takes one reply per rank");
    assert_eq!(retries, 0);
    assert_eq!(clean.samples, 8);

    // One rank, so the dispatch count is the granules' own: the third
    // convolution dispatch is the first granule's conv2 backward, after
    // its prune2 hook has recorded stats. The granule fails inside the
    // rank's reply, is sent back, and the reduction keeps its bits.
    let panic = FaultPlan::new(11).with_engine(Site::EnginePanic, Trigger::At(2), "simd");
    let (faulted, replies, retries) = one_step(1, panic.arm());
    assert_eq!(retries, 1, "exactly the faulted granule is retried");
    assert_eq!(replies, 2, "the command's reply, then the retry's");
    assert_eq!(bits(&faulted), bits(&clean));
    assert_eq!(faulted.prune_stats, clean.prune_stats);
}
