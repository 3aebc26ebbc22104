//! Drain planning: canonical ordering, session chaining and the warm/cold
//! decision walk.
//!
//! Determinism argument (DESIGN.md §11): every decision below is a pure
//! function of the job *set* (their specs, never their submission order)
//! and the persisted cache state. Warm/cold decisions are made by walking
//! jobs in the canonical order — the order a one-worker pool would
//! dispatch — so the cache policy is independent of how many workers later
//! execute the plan and of which finishes first. Workers only compute; they
//! never mutate scheduler state out of order.

use crate::cache::SessionCache;
use crate::job::JobSpec;
use chase_linalg::Scalar;
use std::collections::BTreeMap;

/// The frozen decisions for one drain.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Canonical-order rank per job (total order over the batch).
    pub canon: Vec<usize>,
    /// Starts from the session cache (predecessor search space + bounds).
    pub warm: Vec<bool>,
    /// Execution dependency: the in-batch predecessor whose output this
    /// (warm) job consumes. `None` for cold jobs and for warm starts served
    /// from a previous drain's persisted entry.
    pub dep: Vec<Option<usize>>,
    /// Job indices in canonical order (the cache-walk order).
    pub order: Vec<usize>,
}

/// Build the drain plan.
///
/// `cache` is the scheduler's persisted policy cache: the walk mutates it
/// (lookups renew recency, inserts evict), which is exactly how residency
/// carries across drains.
pub fn build_plan<T: Scalar>(specs: &[JobSpec<T>], cache: &mut SessionCache) -> Plan {
    let n = specs.len();
    // Canonical total order: session, step, name. Each session's steps are
    // adjacent and ascending, so this is also a one-worker dispatch order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| specs[i].canon_key());
    let mut canon = vec![0usize; n];
    for (rank, &i) in order.iter().enumerate() {
        canon[i] = rank;
    }

    // Warm/cold walk in canonical order against the policy cache. A budget
    // of zero disables warm starts without touching the counters.
    let mut warm = vec![false; n];
    let mut dep = vec![None; n];
    let mut last: BTreeMap<&str, usize> = BTreeMap::new();
    if cache.budget() > 0 {
        for &i in &order {
            if let Some(tag) = &specs[i].session {
                let prev = last.insert(&tag.id, i);
                if tag.step > 0 {
                    warm[i] = cache.lookup(&tag.id, tag.step);
                }
                if warm[i] {
                    // Data flows from the in-batch predecessor when there is
                    // one; otherwise it is already persisted in the store.
                    dep[i] = prev;
                }
                cache.insert(&tag.id, tag.step, specs[i].cache_bytes());
            }
        }
    }

    Plan {
        canon,
        warm,
        dep,
        order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{GenSpec, JobSpec, MatrixSource, SpectrumKind};
    use chase_core::Params;
    use chase_linalg::C64;

    fn spec(name: &str, session: Option<(&str, usize)>) -> JobSpec<C64> {
        let mut s = JobSpec::new(
            name,
            MatrixSource::Generated(GenSpec {
                n: 32,
                spectrum: SpectrumKind::Uniform,
                seed: 1,
                perturb_steps: 0,
                eps: 0.0,
            }),
            Params::new(4, 2),
        );
        if let Some((id, step)) = session {
            s = s.in_session(id, step);
        }
        s
    }

    #[test]
    fn canonical_order_is_submission_independent() {
        let a = vec![
            spec("x", None),
            spec("y", Some(("s", 0))),
            spec("z", Some(("s", 1))),
        ];
        let b = vec![a[2].clone(), a[0].clone(), a[1].clone()];
        let pa = build_plan(&a, &mut SessionCache::new(1 << 20));
        let pb = build_plan(&b, &mut SessionCache::new(1 << 20));
        let names_a: Vec<_> = pa.order.iter().map(|&i| a[i].name.clone()).collect();
        let names_b: Vec<_> = pb.order.iter().map(|&i| b[i].name.clone()).collect();
        assert_eq!(names_a, names_b);
        // Warm decisions travel with the names, not the indices.
        let warm_a: Vec<_> = pa.order.iter().map(|&i| pa.warm[i]).collect();
        let warm_b: Vec<_> = pb.order.iter().map(|&i| pb.warm[i]).collect();
        assert_eq!(warm_a, warm_b);
    }

    #[test]
    fn session_steps_warm_chain() {
        let jobs = vec![
            spec("a", Some(("s", 0))),
            spec("b", Some(("s", 1))),
            spec("c", Some(("s", 2))),
        ];
        let p = build_plan(&jobs, &mut SessionCache::new(1 << 20));
        assert_eq!(p.warm, vec![false, true, true]);
        assert_eq!(p.dep, vec![None, Some(0), Some(1)]);
    }

    #[test]
    fn zero_budget_runs_everything_cold() {
        let jobs = vec![spec("a", Some(("s", 0))), spec("b", Some(("s", 1)))];
        let mut cache = SessionCache::new(0);
        let p = build_plan(&jobs, &mut cache);
        assert_eq!(p.warm, vec![false, false]);
        assert_eq!(cache.stats.hits + cache.stats.misses, 0);
    }

    #[test]
    fn persisted_entry_warms_next_drain() {
        let mut cache = SessionCache::new(1 << 20);
        let d1 = vec![spec("a", Some(("s", 0)))];
        build_plan(&d1, &mut cache);
        let d2 = vec![spec("b", Some(("s", 1)))];
        let p2 = build_plan(&d2, &mut cache);
        assert_eq!(p2.warm, vec![true]);
        assert_eq!(p2.dep, vec![None], "payload comes from the store");
    }
}
