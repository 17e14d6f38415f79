//! A small LRU of classify cell plans.
//!
//! Classify traffic is typically skewed toward a few hot cells, and a
//! [`CellPlan`](crate::CellPlan) resolves a whole window of shard
//! lookups — worth memoising. The cache is generation-aware: plans
//! embed shard row numbers of one specific index, so the first access
//! after an epoch hot-swap flushes everything. The server pre-populates
//! the cache at publish time ([`ServingIndex::warm_plans`]), so under a
//! warm publish the first query into an occupied cell is already a hit.
//!
//! [`ServingIndex::warm_plans`]: crate::ServingIndex::warm_plans

use crate::index::CellPlan;
use rpdbscan_grid::{CellCoord, FxHashMap};
use std::sync::Arc;

/// A least-recently-used cache of [`CellPlan`]s keyed by grid cell,
/// scoped to one index generation.
#[derive(Debug)]
pub struct PlanLru {
    capacity: usize,
    generation: u64,
    /// Logical clock: bumped on every access, stored per entry; the
    /// entry with the smallest stamp is the eviction victim. Stamps are
    /// unique, so eviction is deterministic.
    stamp: u64,
    map: FxHashMap<CellCoord, (Arc<CellPlan>, u64)>,
    hits: u64,
    misses: u64,
}

impl PlanLru {
    /// An empty cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            generation: 0,
            stamp: 0,
            map: FxHashMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// Re-scopes the cache to `generation`, flushing every plan if it
    /// differs from the cached generation. Hit/miss counters survive.
    pub fn reset_for_generation(&mut self, generation: u64) {
        if self.generation != generation {
            self.generation = generation;
            self.map.clear();
        }
    }

    /// The generation the cached plans belong to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Re-scopes the cache to `generation` while *keeping* every plan
    /// whose cell `keep` accepts — the delta-publish path, where a patch
    /// proves which cells' plans survived the epoch unchanged. Returns
    /// how many plans were carried. Hit/miss counters survive.
    pub fn carry_forward(&mut self, generation: u64, keep: impl Fn(&CellCoord) -> bool) -> usize {
        self.map.retain(|coord, _| keep(coord));
        self.generation = generation;
        self.map.len()
    }

    /// Looks a plan up, refreshing its recency on hit.
    pub fn get(&mut self, coord: &CellCoord) -> Option<Arc<CellPlan>> {
        self.stamp += 1;
        let stamp = self.stamp;
        match self.map.get_mut(coord) {
            Some((plan, s)) => {
                *s = stamp;
                self.hits += 1;
                Some(Arc::clone(plan))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a plan, evicting the least recently used entry when full.
    pub fn insert(&mut self, coord: CellCoord, plan: Arc<CellPlan>) {
        if !self.map.contains_key(&coord) && self.map.len() >= self.capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(c, _)| c.clone());
            if let Some(v) = victim {
                self.map.remove(&v);
            }
        }
        self.stamp += 1;
        self.map.insert(coord, (plan, self.stamp));
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups that found a live plan.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Arc<CellPlan> {
        // An empty plan is enough to exercise the cache mechanics.
        let spec = rpdbscan_grid::GridSpec::new(1, 1.0, 1.0).unwrap();
        let home = CellCoord::new([0i64]);
        Arc::new(CellPlan {
            home: None,
            sources: Vec::new(),
            density: rpdbscan_grid::PlanBuilder::new(&spec, &home).finish(),
        })
    }

    fn key(x: i64) -> CellCoord {
        CellCoord::new([x, 0])
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = PlanLru::new(2);
        lru.insert(key(1), plan());
        lru.insert(key(2), plan());
        assert!(lru.get(&key(1)).is_some()); // 1 is now fresher than 2
        lru.insert(key(3), plan()); // evicts 2
        assert!(lru.get(&key(1)).is_some());
        assert!(lru.get(&key(2)).is_none());
        assert!(lru.get(&key(3)).is_some());
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn generation_change_flushes() {
        let mut lru = PlanLru::new(4);
        lru.reset_for_generation(1);
        lru.insert(key(1), plan());
        assert!(lru.get(&key(1)).is_some());
        lru.reset_for_generation(1); // same generation: keep
        assert!(lru.get(&key(1)).is_some());
        lru.reset_for_generation(2); // hot-swap: flush
        assert!(lru.get(&key(1)).is_none());
        assert_eq!(lru.hits(), 2);
        assert_eq!(lru.misses(), 1);
    }

    #[test]
    fn carry_forward_keeps_only_accepted_cells() {
        let mut lru = PlanLru::new(4);
        lru.reset_for_generation(1);
        lru.insert(key(1), plan());
        lru.insert(key(2), plan());
        lru.insert(key(3), plan());
        let carried = lru.carry_forward(2, |c| c.coords()[0] != 2);
        assert_eq!(carried, 2);
        assert_eq!(lru.generation(), 2);
        assert!(lru.get(&key(1)).is_some());
        assert!(lru.get(&key(2)).is_none());
        assert!(lru.get(&key(3)).is_some());
    }

    #[test]
    fn reinserting_same_key_does_not_evict_others() {
        let mut lru = PlanLru::new(2);
        lru.insert(key(1), plan());
        lru.insert(key(2), plan());
        lru.insert(key(2), plan()); // update in place
        assert!(lru.get(&key(1)).is_some());
        assert!(lru.get(&key(2)).is_some());
    }
}
