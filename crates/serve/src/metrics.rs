//! Scheduler-level counters and their machine-readable export.
//!
//! Every figure here is derived from deterministic inputs (plan walk,
//! per-job solver stats), so two runs of the same job set produce
//! byte-identical metrics JSON. The JSON is hand-rolled
//! (integer-only), matching the repo's no-serde convention.

use crate::cache::CacheStats;

/// Counters accumulated across a scheduler's lifetime (all drains).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    // Submission.
    pub submitted: u64,
    pub rejected: u64,
    // Outcomes.
    pub completed: u64,
    pub failed: u64,
    pub unconverged: u64,
    // Warm-start economics.
    pub warm_hits: u64,
    pub warm_misses: u64,
    pub cold_starts: u64,
    pub warm_fallbacks: u64,
    /// Jobs that lost a rank mid-solve and completed on the shrunk pool
    /// via checkpoint resume (the rung below `warm_fallbacks` on the
    /// degradation ladder).
    pub rank_crash_retries: u64,
    pub lanczos_skipped: u64,
    pub cache_evictions: u64,
    pub cache_insert_rejects: u64,
    pub cache_high_water_bytes: u64,
    // Solver work.
    pub total_matvecs: u64,
    /// MatVecs avoided by warm starts, measured against each session's own
    /// cold first step (a deterministic in-band baseline).
    pub matvecs_saved: u64,
    pub drains: u64,
}

impl ServeMetrics {
    /// Fraction of session-step lookups served from the cache.
    pub fn warm_hit_rate(&self) -> f64 {
        let lookups = self.warm_hits + self.warm_misses;
        if lookups == 0 {
            0.0
        } else {
            self.warm_hits as f64 / lookups as f64
        }
    }

    pub(crate) fn absorb_cache(&mut self, before: CacheStats, after: CacheStats) {
        self.warm_hits += after.hits - before.hits;
        self.warm_misses += after.misses - before.misses;
        self.cache_evictions += after.evictions - before.evictions;
        self.cache_insert_rejects += after.insert_rejects - before.insert_rejects;
        self.cache_high_water_bytes = self.cache_high_water_bytes.max(after.high_water_bytes);
    }

    /// Machine-readable export (stable key order, integers only except the
    /// derived hit rate, which is rendered with fixed precision).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let mut field = |k: &str, v: u64| {
            s.push_str(&format!("  \"{k}\": {v},\n"));
        };
        field("submitted", self.submitted);
        field("rejected", self.rejected);
        field("completed", self.completed);
        field("failed", self.failed);
        field("unconverged", self.unconverged);
        field("warm_hits", self.warm_hits);
        field("warm_misses", self.warm_misses);
        field("cold_starts", self.cold_starts);
        field("warm_fallbacks", self.warm_fallbacks);
        field("rank_crash_retries", self.rank_crash_retries);
        field("lanczos_skipped", self.lanczos_skipped);
        field("cache_evictions", self.cache_evictions);
        field("cache_insert_rejects", self.cache_insert_rejects);
        field("cache_high_water_bytes", self.cache_high_water_bytes);
        field("total_matvecs", self.total_matvecs);
        field("matvecs_saved", self.matvecs_saved);
        field("drains", self.drains);
        s.push_str(&format!(
            "  \"warm_hit_rate\": {:.4}\n}}\n",
            self.warm_hit_rate()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_lookups() {
        assert_eq!(ServeMetrics::default().warm_hit_rate(), 0.0);
    }

    #[test]
    fn json_is_stable_and_parseable_shape() {
        let m = ServeMetrics {
            warm_hits: 3,
            warm_misses: 1,
            ..ServeMetrics::default()
        };
        let j = m.to_json();
        assert!(j.starts_with("{\n"));
        assert!(j.ends_with("}\n"));
        assert!(j.contains("\"warm_hits\": 3,"));
        assert!(j.contains("\"warm_hit_rate\": 0.7500"));
        assert_eq!(j, m.to_json(), "export must be byte-stable");
    }
}
