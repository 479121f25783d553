//! The worker pool's message traffic: a rank answers each command with
//! one reply, a granule that fails inside that reply is replayed to the
//! same bits, and stalled ranks reply out of rank order to the same bits.

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
use std::sync::{Arc, Mutex};

/// A [`ThreadTransport`] that logs the rank of every reply the
/// coordinator takes, in arrival order.
struct Recording {
    inner: ThreadTransport,
    ranks: Arc<Mutex<Vec<usize>>>,
}

impl WorkerTransport for Recording {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn submit(&mut self, rank: usize, cmd: StepCommand) {
        self.inner.submit(rank, cmd);
    }

    fn recv(&mut self) -> WorkerReply {
        let reply = self.inner.recv();
        let (WorkerReply::Done { rank, .. } | WorkerReply::Died { rank, .. }) = reply;
        self.ranks.lock().unwrap().push(rank);
        reply
    }

    fn respawn(&mut self, rank: usize, replica: Sequential) {
        self.inner.respawn(rank, replica);
    }
}

/// A fresh pool of `workers` ranks whose workers hold `faults`, the log
/// of its replies' ranks, and step `step`'s input: eight one-sample
/// granules of the tiny dataset.
fn pool(workers: usize, faults: Faults) -> (ShardPool, Arc<Mutex<Vec<usize>>>, impl Fn(u64) -> StepInput) {
    let (data, _) = SyntheticSpec::tiny(3).generate();
    let mut template = models::mini_cnn(3, 4, Some(PruneConfig::new(0.9, 2)));
    let mut params = Vec::new();
    template.visit_params(&mut |p, _| params.extend_from_slice(p));
    let mut taus = Vec::new();
    template.collect_prune_taus(&mut taus);
    let ranks = Arc::new(Mutex::new(Vec::new()));
    let transport = Recording {
        inner: ThreadTransport::spawn(workers, &template, EngineSetup::Dense, faults).unwrap(),
        ranks: Arc::clone(&ranks),
    };
    let pool = ShardPool::with_transport(template, EngineSetup::Dense, Box::new(transport));
    let chunk: Vec<usize> = (0..8).collect();
    let input = move |step| StepInput {
        seed: 3,
        epoch: 0,
        step,
        params: params.clone(),
        taus: taus.clone(),
        granules: shard::granules_of(&data, &chunk, 1),
    };
    (pool, ranks, input)
}

/// One step on a fresh pool; returns the reduction, the replies taken and
/// the retries.
fn one_step(workers: usize, faults: Faults) -> (StepReduction, usize, usize) {
    let (mut pool, ranks, input) = pool(workers, faults);
    let reduced = pool.run_step(&input(1));
    let taken = ranks.lock().unwrap().len();
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

/// Under the guarantee matrix's `shard-slow-workers` plan (a seeded 1–20
/// ms stall per `(step, rank)` with probability 0.1) replies still arrive
/// out of rank order — on some steps a lower rank answers after a higher
/// one — and every step reduces to the fault-free pool's bits. Four
/// racing worker threads scramble the order without the plan too; the
/// count of both goes to stderr.
#[test]
fn stalled_ranks_reply_out_of_rank_order_and_reduce_bitwise() {
    const STEPS: u64 = 30;
    let slow = FaultPlan::new(42).with(Site::WorkerSlow, Trigger::Prob(0.1));
    let (mut stalled, ranks, input) = pool(4, slow.arm());
    let (mut clean, clean_ranks, _) = pool(4, Faults::default());
    let out_of_order = |log: &Mutex<Vec<usize>>| {
        let order = std::mem::take(&mut *log.lock().unwrap());
        assert_eq!(order.len(), 4, "one reply per rank");
        usize::from(order.windows(2).any(|w| w[0] > w[1]))
    };
    let (mut scrambled, mut clean_scrambled) = (0, 0);
    for step in 0..STEPS {
        let (got, want) = (stalled.run_step(&input(step)), clean.run_step(&input(step)));
        assert_eq!(bits(&got), bits(&want), "step {step}");
        scrambled += out_of_order(&ranks);
        clean_scrambled += out_of_order(&clean_ranks);
    }
    eprintln!("out of rank order: {scrambled} of {STEPS} steps under the plan, {clean_scrambled} without it");
    assert!(scrambled > 0, "no stalled step replied out of rank order");
}
