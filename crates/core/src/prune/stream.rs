//! The stream-derivation ladder for deterministic stochastic pruning.
//!
//! Algorithm 1's keep/snap decisions are random, and where that randomness
//! comes from decides what the trainer can parallelise. A shared
//! sequential generator consumed in element order (the original design)
//! serialises the whole pruning stage *and* couples every draw to every
//! draw before it — visiting elements in a different order, banding them
//! across threads, or dropping one sample from a batch changes every
//! subsequent decision.
//!
//! This module replaces that with counter-based streams
//! ([`rand::stream::StreamKey`], Philox 2×64-10): every pruned element's
//! draw is a pure function of its *coordinates* in the training run,
//! derived along a fixed ladder:
//!
//! ```text
//! seed ─▶ epoch ─▶ step ─▶ site (layer name) ─▶ sample ─▶ element offset
//!        [StreamSeeds]      [StepStreams]     [BatchStream]  (counter)
//! ```
//!
//! Consequences, all by construction rather than by careful locking:
//!
//! * **Band-count invariance** — banding the element space across any
//!   number of workers is bitwise-identical to the sequential visit, so
//!   the pruned tensors do not depend on the rayon pool (nor on the kernel
//!   engine, which the pruner never sees).
//! * **Sample independence** — with the [`BatchStream::per_sample`]
//!   layout, removing a sample from a batch leaves every other sample's
//!   pruning decisions untouched.
//!
//! [`BatchStream::contiguous`] instead strings the parts of one *logical
//! vector* onto a single stream, making `prune_batch_parts` invariant to
//! how the vector is split into parts.
//!
//! The element offset is the stream position `p` the draw is read at:
//! word `p mod 4` of Philox block `⌊p/4⌋`, top 24 bits
//! ([`rand::stream::KeySchedule`]). Four consecutive elements share one
//! block, but each still reads its own word, so where a band, a part or a
//! shard begins — mid-block included — changes no draw.

use rand::stream::StreamKey;

/// Domain separator folded under the run seed, so pruning draws can never
/// collide with another consumer of the same seed (data shuffling, weight
/// init, …).
const PRUNE_DOMAIN: u64 = 0x0050_5255_4E45;

/// Domain separator for shard-coordinator scheduling draws ("SHARD" in
/// ASCII). Disjoint from the private `PRUNE_DOMAIN` and from the faults crate's
/// `FAULT` domain, so a coordinator consuming scheduling randomness can
/// never collide with (and therefore never perturb) a pruning or fault
/// draw made under the same run seed. Scheduling draws only ever decide
/// *where* work runs; the fixed-order reduction keeps results invariant
/// to them.
pub const SHARD_DOMAIN: u64 = 0x0053_4841_5244;

/// The trainer-owned root of the ladder: run seed plus the epoch/step
/// counters that advance as training proceeds.
///
/// ```
/// use sparsetrain_core::prune::StreamSeeds;
///
/// let mut seeds = StreamSeeds::new(7);
/// let first = seeds.streams();
/// seeds.advance_step();
/// assert_ne!(first.key(), seeds.streams().key(), "each step is a new stream");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSeeds {
    seed: u64,
    epoch: u64,
    step: u64,
}

impl StreamSeeds {
    /// A fresh ladder at epoch 0, step 0.
    pub const fn new(seed: u64) -> Self {
        Self {
            seed,
            epoch: 0,
            step: 0,
        }
    }

    /// A ladder restored to an arbitrary position (checkpoint resume).
    pub const fn at(seed: u64, epoch: u64, step: u64) -> Self {
        Self { seed, epoch, step }
    }

    /// The run seed.
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// The current epoch index.
    pub const fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current step (batch) index; monotone across epochs.
    pub const fn step(&self) -> u64 {
        self.step
    }

    /// Advances to the next optimizer step.
    pub fn advance_step(&mut self) {
        self.step += 1;
    }

    /// Advances to the next epoch.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The stream coordinates of the current step.
    pub const fn streams(&self) -> StepStreams {
        StepStreams::new(self.seed, self.epoch, self.step)
    }
}

/// The stream coordinates of one optimizer step: every pruning site
/// (layer) derives its per-sample streams from this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepStreams {
    key: StreamKey,
    sample_base: u64,
}

impl StepStreams {
    /// Coordinates for `(seed, epoch, step)`.
    pub const fn new(seed: u64, epoch: u64, step: u64) -> Self {
        Self {
            key: StreamKey::new(seed)
                .derive(PRUNE_DOMAIN)
                .derive(epoch)
                .derive(step),
            sample_base: 0,
        }
    }

    /// The same step coordinates, with every site's batch stream shifted
    /// by `base` parts: part `i` of a site stream draws exactly what part
    /// `base + i` draws on the unshifted stream. This is how a shard
    /// worker processing samples `[base, base + n)` of the global batch
    /// reproduces the whole-batch pruning draws bitwise while only
    /// holding its own slice.
    pub const fn with_sample_base(self, base: u64) -> Self {
        Self {
            key: self.key,
            sample_base: base,
        }
    }

    /// The part shift applied to every site stream (0 unless constructed
    /// via [`StepStreams::with_sample_base`]).
    pub const fn sample_base(&self) -> u64 {
        self.sample_base
    }

    /// This step's derived key.
    pub const fn key(&self) -> StreamKey {
        self.key
    }

    /// The per-sample batch stream of one pruning site, identified by its
    /// stable layer name.
    pub fn site(&self, name: &str) -> BatchStream {
        BatchStream::per_sample(self.key.derive_str(name)).with_base(self.sample_base)
    }
}

/// How a [`BatchStream`] lays its parts out over RNG streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamLayout {
    /// Each part is an independent sample: part `s` draws from the derived
    /// key `key.derive(s)` at its own offsets `0..len`. Dropping or
    /// reordering parts never changes another part's draws.
    PerSample,
    /// The parts are a partition of one logical vector: all parts share
    /// one key, and a part's draws start at the number of elements before
    /// it. Any partition of the vector produces identical draws.
    Contiguous,
}

/// The random streams of one pruned batch, mapping each part of the batch
/// to a `(key, base offset)` position in the key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStream {
    key: StreamKey,
    layout: StreamLayout,
    base: u64,
}

impl BatchStream {
    /// One independent stream per part (part = one sample's tensor) — the
    /// training layout: part `s` draws from `key.derive(s)` at offsets
    /// `0..len`, so dropping or reordering parts never changes another
    /// part's draws.
    pub const fn per_sample(key: StreamKey) -> Self {
        Self {
            key,
            layout: StreamLayout::PerSample,
            base: 0,
        }
    }

    /// One stream strung across all parts (parts = a split of one logical
    /// gradient vector), invariant to the choice of split points.
    pub const fn contiguous(key: StreamKey) -> Self {
        Self {
            key,
            layout: StreamLayout::Contiguous,
            base: 0,
        }
    }

    /// The same stream, shifted so that local part `i` occupies the
    /// position that part/element `base + i` holds on the unshifted
    /// stream. Units follow the layout: per-sample streams shift by
    /// *parts* (samples); contiguous streams shift by *elements*. A
    /// worker handed a slice of a larger batch uses this to draw exactly
    /// what the whole-batch run draws for those positions.
    pub const fn with_base(self, base: u64) -> Self {
        Self {
            key: self.key,
            layout: self.layout,
            base,
        }
    }

    /// The underlying batch key.
    pub const fn key(&self) -> StreamKey {
        self.key
    }

    /// The part/element shift (0 unless constructed via
    /// [`BatchStream::with_base`]).
    pub const fn base(&self) -> u64 {
        self.base
    }

    /// The `(stream key, base offset)` of part `index`, given the total
    /// element count of all earlier parts.
    pub fn part(&self, index: usize, elements_before: u64) -> (StreamKey, u64) {
        match self.layout {
            StreamLayout::PerSample => (self.key.derive(self.base + index as u64), 0),
            StreamLayout::Contiguous => (self.key, self.base + elements_before),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_components_all_matter() {
        let base = StepStreams::new(1, 2, 3).key();
        assert_ne!(base, StepStreams::new(9, 2, 3).key());
        assert_ne!(base, StepStreams::new(1, 9, 3).key());
        assert_ne!(base, StepStreams::new(1, 2, 9).key());
        let step = StepStreams::new(1, 2, 3);
        assert_ne!(step.site("conv1").key(), step.site("conv2").key());
    }

    #[test]
    fn seeds_advance_independently() {
        let mut seeds = StreamSeeds::new(0);
        let s0 = seeds.streams();
        seeds.advance_step();
        let s1 = seeds.streams();
        seeds.advance_epoch();
        let s2 = seeds.streams();
        assert_ne!(s0, s1);
        assert_ne!(s1, s2);
        assert_eq!(seeds.step(), 1);
        assert_eq!(seeds.epoch(), 1);
        assert_eq!(StreamSeeds::new(0).streams(), s0, "ladder is pure");
    }

    #[test]
    fn per_sample_parts_ignore_position() {
        let b = BatchStream::per_sample(StreamKey::new(5));
        let (k0, o0) = b.part(0, 0);
        let (k0_again, _) = b.part(0, 999);
        assert_eq!(k0, k0_again, "per-sample keys must not depend on earlier parts");
        assert_eq!(o0, 0);
        assert_ne!(k0, b.part(1, 0).0);
    }

    #[test]
    fn sample_base_shifts_per_sample_parts() {
        let step = StepStreams::new(1, 2, 3);
        let whole = step.site("conv1");
        let shifted = step.with_sample_base(5).site("conv1");
        assert_eq!(shifted.part(0, 0), whole.part(5, 0));
        assert_eq!(shifted.part(2, 0), whole.part(7, 0));
        assert_eq!(step.sample_base(), 0);
        assert_eq!(step.with_sample_base(5).sample_base(), 5);
    }

    #[test]
    fn element_base_shifts_contiguous_parts() {
        let whole = BatchStream::contiguous(StreamKey::new(5));
        let shifted = whole.with_base(64);
        assert_eq!(shifted.part(0, 0), whole.part(0, 64));
        assert_eq!(shifted.part(1, 32), whole.part(1, 96));
        assert_eq!(whole.base(), 0);
        assert_eq!(shifted.base(), 64);
    }

    #[test]
    fn contiguous_parts_share_key_and_advance_offset() {
        let b = BatchStream::contiguous(StreamKey::new(5));
        let (k0, o0) = b.part(0, 0);
        let (k1, o1) = b.part(1, 128);
        assert_eq!(k0, k1);
        assert_eq!(o0, 0);
        assert_eq!(o1, 128);
    }
}
