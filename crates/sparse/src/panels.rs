//! An exact cache of re-laid kernel-weight panels, kept across engine calls.
//!
//! An engine that re-lays the kernel weights for its lanes (the simd
//! engine's `[u][ci][K-1-v][F]` Forward and `[fi][u][v][C]` GTA panels)
//! builds them once per engine call. A
//! shard worker makes one call per one-sample granule, so without a cache
//! it re-lays every conv's weights once per *sample*, although the weights
//! change only once per step. [`PanelCache`] keeps the panels an
//! [`crate::ExecutionContext`] built, keyed by a copy of the weights they
//! were built from:
//!
//! * an entry is reused only when the op's weights are **bitwise equal**
//!   to that copy (same shape, same bits), so a cached panel is always the
//!   panel the engine would build now — weights mutated in place, restored
//!   from a snapshot or held by another tensor are told apart by their
//!   bits, never by their address;
//! * entries are evicted least recently used first under a constant byte
//!   cap ([`PANEL_CACHE_BYTES`], copies and panels together), before the
//!   new panel is built, so the cache never holds more; a panel that would
//!   not fit beside its own entry in an otherwise empty cache is handed
//!   out, not kept, and evicts nothing.
//!
//! The cache knows no engine: whoever asks for a panel passes the function
//! that builds it. Only the panels of one engine reach a cache: a
//! context's engine, or the scalar engine it falls back to, which asks for
//! none.

use crate::engine::Stage;
use sparsetrain_tensor::Tensor4;
use std::sync::Arc;

/// Bytes one cache holds at most: its weight copies and panels together.
/// Room for a small net's convs (a 16 → 32-filter `3 × 3` conv is 54 KiB
/// with its copy and both panels), small enough that a net whose panels
/// do not fit pays at most this much memory for the misses.
pub const PANEL_CACHE_BYTES: usize = 64 * 1024;

/// The weights one entry was built from, and the panels built from them.
#[derive(Debug)]
struct Entry {
    shape: (usize, usize, usize, usize),
    weights: Box<[f32]>,
    panels: Vec<(Stage, Arc<[f32]>)>,
}

impl Entry {
    /// Whether `weights` has this entry's shape and bits.
    fn holds(&self, weights: &Tensor4) -> bool {
        self.shape == weights.shape() && same_bits(&self.weights, weights.as_slice())
    }

    fn bytes(&self) -> usize {
        let panels: usize = self.panels.iter().map(|(_, panel)| panel.len()).sum();
        (self.weights.len() + panels) * std::mem::size_of::<f32>()
    }
}

/// Whether `a` and `b` hold the same bits (`-0.0 ≠ +0.0`, a NaN equals
/// itself), compared a 64-element block at a time.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.chunks(64).zip(b.chunks(64)).all(|(x, y)| {
            x.iter()
                .zip(y)
                .fold(0u32, |diff, (p, q)| diff | (p.to_bits() ^ q.to_bits()))
                == 0
        })
}

/// Re-laid weight panels, reused while the weights keep their bits.
#[derive(Debug, Default)]
pub struct PanelCache {
    /// Least recently used first.
    entries: Vec<Entry>,
    bytes: usize,
}

impl PanelCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Weight tensors the cache holds panels for.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes held, weight copies and panels together; never more than
    /// [`PANEL_CACHE_BYTES`].
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The `stage` panel of `weights`: the cached one when an entry holds
    /// weights of the same shape and bits, otherwise the one `build` makes
    /// now — `weights` re-laid, `weights.len()` elements — which the cache
    /// then keeps.
    ///
    /// # Panics
    ///
    /// Panics when `build` returns a panel of another length.
    pub fn panel(
        &mut self,
        stage: Stage,
        weights: &Tensor4,
        build: impl FnOnce() -> Arc<[f32]>,
    ) -> Arc<[f32]> {
        let hit = self.entries.iter().position(|entry| entry.holds(weights));
        if let Some(at) = hit {
            let entry = self.entries.remove(at);
            self.entries.push(entry);
            let entry = self.entries.last().expect("just pushed");
            if let Some((_, panel)) = entry.panels.iter().find(|(s, _)| *s == stage) {
                return panel.clone();
            }
        }
        // A panel is the weights re-laid: as many elements as the weights.
        // What cannot fit even alone is built and handed out, and evicts
        // nothing; otherwise room is made before the panel is built, least
        // recently used first, so the bytes held never pass the cap.
        let panel_bytes = weights.len() * std::mem::size_of::<f32>();
        let (held, grown) = match hit {
            Some(_) => (self.entries.last().map_or(0, Entry::bytes), panel_bytes),
            None => (0, 2 * panel_bytes),
        };
        if held + grown > PANEL_CACHE_BYTES {
            return build();
        }
        while self.bytes + grown > PANEL_CACHE_BYTES {
            let evicted = self.entries.remove(0);
            self.bytes -= evicted.bytes();
        }
        let panel = build();
        assert_eq!(panel.len(), weights.len(), "a panel re-lays the weights");
        match hit {
            Some(_) => {
                let entry = self.entries.last_mut().expect("the hit moved last");
                entry.panels.push((stage, panel.clone()));
            }
            None => self.entries.push(Entry {
                shape: weights.shape(),
                weights: weights.as_slice().into(),
                panels: vec![(stage, panel.clone())],
            }),
        }
        self.bytes += grown;
        panel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights(f: usize, c: usize, scale: f32) -> Tensor4 {
        Tensor4::from_fn(f, c, 3, 3, |fi, ci, u, v| {
            (fi + 2 * ci + 3 * u + v) as f32 * scale
        })
    }

    /// A stand-in re-layout: the weights reversed, told apart per stage.
    fn relay(stage: Stage, w: &Tensor4) -> Arc<[f32]> {
        let sign = if stage == Stage::Forward { 1.0 } else { -1.0 };
        w.as_slice().iter().rev().map(|v| sign * v).collect()
    }

    /// `stage`'s panel of `w` through `cache`.
    fn panel(cache: &mut PanelCache, stage: Stage, w: &Tensor4) -> Arc<[f32]> {
        cache.panel(stage, w, || relay(stage, w))
    }

    #[test]
    fn hits_share_the_panel_and_changed_bits_miss() {
        let mut cache = PanelCache::new();
        let mut w = weights(4, 3, 0.5);
        let first = panel(&mut cache, Stage::Forward, &w);
        let again = panel(&mut cache, Stage::Forward, &w.clone());
        assert!(Arc::ptr_eq(&first, &again), "equal bits in another tensor hit");
        let gta = panel(&mut cache, Stage::InputGrad, &w);
        assert!(!Arc::ptr_eq(&first, &gta), "stages keep their own panels");
        assert_eq!(cache.len(), 1, "one copy serves both stages");

        w.as_mut_slice()[5] = -0.0;
        let rebuilt = panel(&mut cache, Stage::Forward, &w);
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert_eq!(*rebuilt, *relay(Stage::Forward, &w));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn signed_zeros_and_nans_compare_by_bits() {
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(same_bits(&[f32::NAN; 70], &[f32::NAN; 70]));
        assert!(!same_bits(&[1.0; 70], &[1.0; 71]));
    }

    #[test]
    fn eviction_keeps_the_cap_and_the_recent_entries() {
        let mut cache = PanelCache::new();
        // 16 × 16 × 3 × 3 weights: 9 KiB, 18 KiB with one panel.
        let ws: Vec<Tensor4> = (0..6).map(|i| weights(16, 16, 1.0 + i as f32)).collect();
        for w in &ws {
            panel(&mut cache, Stage::Forward, w);
            assert!(cache.bytes() <= PANEL_CACHE_BYTES);
        }
        assert_eq!(cache.len(), 3);
        let recent = panel(&mut cache, Stage::Forward, &ws[5]);
        assert!(Arc::ptr_eq(&recent, &panel(&mut cache, Stage::Forward, &ws[5])));
        // Larger than the cap on its own: built, never kept.
        let big = weights(64, 64, 0.25);
        assert_eq!(
            *panel(&mut cache, Stage::Forward, &big),
            *relay(Stage::Forward, &big)
        );
        assert_eq!(cache.len(), 3);
    }
}
