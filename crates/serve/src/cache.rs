//! The warm-start session cache *policy*: a deterministic LRU over
//! per-session metadata (entry sizes, logical stamps) under a byte budget.
//!
//! The policy layer is deliberately split from the payload store: eviction
//! and hit/miss decisions are made while *planning* a drain (walking jobs in
//! canonical order), so they are pure functions of the job set and the
//! budget — independent of worker count and completion interleaving. The
//! scheduler keeps the actual search-space payloads in a side store and
//! reconciles it against this policy cache after each drain.

use std::collections::BTreeMap;

/// Metadata for one resident session entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot {
    /// Sequence step whose output this entry holds.
    step: usize,
    bytes: usize,
    /// Logical recency (monotone insert/touch counter) — the LRU key.
    stamp: u64,
}

/// Counters a planning walk accumulates (merged into the serve metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the predecessor step resident.
    pub hits: u64,
    /// Lookups by a sequence step whose predecessor had been evicted (or
    /// never fit).
    pub misses: u64,
    pub evictions: u64,
    /// Entries larger than the whole budget, never admitted.
    pub insert_rejects: u64,
    pub high_water_bytes: u64,
}

/// Deterministic LRU session cache (policy only — no payloads).
#[derive(Debug, Clone)]
pub struct SessionCache {
    budget: usize,
    used: usize,
    clock: u64,
    entries: BTreeMap<String, Slot>,
    pub stats: CacheStats,
}

impl SessionCache {
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget: budget_bytes,
            used: 0,
            clock: 0,
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    pub fn budget(&self) -> usize {
        self.budget
    }

    pub fn used(&self) -> usize {
        self.used
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `session` currently holds the output of exactly `step`.
    pub fn contains(&self, session: &str, step: usize) -> bool {
        self.entries.get(session).is_some_and(|s| s.step == step)
    }

    /// Warm-start lookup by step `step` of a sequence: hit iff the session
    /// holds the output of an *earlier* step (normally `step - 1`; after a
    /// dropped step or across drains, any prior state is a valid subspace).
    /// A hit renews the entry's recency.
    pub fn lookup(&mut self, session: &str, step: usize) -> bool {
        self.clock += 1;
        match self.entries.get_mut(session) {
            Some(slot) if slot.step < step => {
                slot.stamp = self.clock;
                self.stats.hits += 1;
                true
            }
            _ => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Insert (or replace) the session's entry, then evict least-recently
    /// used *other* sessions until the budget holds. Entries larger than
    /// the whole budget are rejected (and any stale entry dropped), so a
    /// single oversized tenant cannot wipe the cache.
    pub fn insert(&mut self, session: &str, step: usize, bytes: usize) {
        self.clock += 1;
        if bytes > self.budget {
            self.stats.insert_rejects += 1;
            if let Some(old) = self.entries.remove(session) {
                self.used -= old.bytes;
            }
            return;
        }
        let slot = Slot {
            step,
            bytes,
            stamp: self.clock,
        };
        if let Some(old) = self.entries.insert(session.to_string(), slot) {
            self.used -= old.bytes;
        }
        self.used += bytes;
        while self.used > self.budget {
            // Evict the lowest stamp; BTreeMap iteration makes ties (never
            // produced by the monotone clock) deterministic anyway.
            let victim = self
                .entries
                .iter()
                .filter(|(sid, _)| sid.as_str() != session)
                .min_by_key(|(_, s)| s.stamp)
                .map(|(sid, _)| sid.clone())
                .expect("over budget with no evictable entry");
            let gone = self.entries.remove(&victim).unwrap();
            self.used -= gone.bytes;
            self.stats.evictions += 1;
        }
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(self.used as u64);
    }

    /// Drop a session's entry (e.g. its producing job failed, so the
    /// payload never materialized).
    pub fn remove(&mut self, session: &str) {
        if let Some(old) = self.entries.remove(session) {
            self.used -= old.bytes;
        }
    }

    /// Resident `(session, step)` pairs in deterministic (key) order.
    pub fn resident(&self) -> Vec<(String, usize)> {
        self.entries
            .iter()
            .map(|(sid, s)| (sid.clone(), s.step))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_requires_earlier_step() {
        let mut c = SessionCache::new(1024);
        c.insert("a", 1, 100);
        assert!(c.lookup("a", 2));
        assert!(!c.lookup("a", 1), "same step cannot warm itself");
        assert!(!c.lookup("a", 0), "out-of-order step must miss");
        assert!(!c.lookup("b", 1), "unknown session must miss");
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 3);
    }

    #[test]
    fn replace_same_session_does_not_leak_bytes() {
        let mut c = SessionCache::new(250);
        c.insert("a", 0, 100);
        c.insert("a", 1, 120);
        assert_eq!(c.used(), 120);
        assert!(c.contains("a", 1));
        assert_eq!(c.stats.evictions, 0);
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut c = SessionCache::new(300);
        c.insert("a", 0, 100);
        c.insert("b", 0, 100);
        c.insert("c", 0, 100);
        // Touch "a" so "b" is now the LRU.
        assert!(c.lookup("a", 1));
        c.insert("d", 0, 100);
        assert!(c.contains("a", 0));
        assert!(!c.contains("b", 0), "b was LRU and must be evicted");
        assert!(c.contains("c", 0));
        assert!(c.contains("d", 0));
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn oversized_entry_rejected_without_wiping_others() {
        let mut c = SessionCache::new(200);
        c.insert("a", 0, 150);
        c.insert("big", 0, 500);
        assert!(c.contains("a", 0));
        assert!(!c.contains("big", 0));
        assert_eq!(c.stats.insert_rejects, 1);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut c = SessionCache::new(300);
        c.insert("a", 0, 200);
        c.insert("b", 0, 100);
        c.insert("c", 0, 250); // evicts both
        assert_eq!(c.stats.high_water_bytes, 300);
        assert_eq!(c.used(), 250);
    }
}
