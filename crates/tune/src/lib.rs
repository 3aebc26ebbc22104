//! `chase-tune`: measurement-driven autotuner with a persistent plan
//! database.
//!
//! The solver exposes a knob whose best setting depends on the machine, the
//! grid shape and the problem size: which hop schedule each collective
//! uses (`CollectiveAlgo`). The analytic
//! alpha-beta model in `chase-topo` picks defaults from first principles;
//! this crate instead *measures*: it runs short deterministic trials of the
//! solver's collectives ([`trial::tune_entry`]), fits the winners into a
//! versioned on-disk [`db::PlanDb`] keyed by machine fingerprint × grid ×
//! problem × scalar, and emits a [`chase_core::SolvePlan`] that fills in
//! the collective knob when `Params` left it on its default.
//!
//! Layering: the measured choices flow back into the solver through the
//! [`chase_comm::CollectiveTuneHook`] seam, which a [`PlanEntry`]
//! implements — the device layer consults the hook first and falls back to the analytic model when the DB has no
//! opinion, so a missing or stale DB degrades to exactly the pre-tuner
//! behavior.
//!
//! Being the lowest crate that sees the solver, the trace recorder and the
//! plan types together, this crate also holds the one SPMD driver around a
//! solve, [`grid::solve_grid`].

pub mod db;
pub mod fingerprint;
pub mod grid;
pub mod trial;

pub use db::{CollRule, DbError, PlanDb, PlanEntry, PlanKey, DB_FORMAT, DB_VERSION};
pub use fingerprint::machine_fingerprint;
pub use grid::{solve_grid, GridOutcome, GridRun, PlanChoice};
pub use trial::{plan_key, scalar_kind, scalar_name, tune_entry, TuneOptions, TuneOutcome};

use chase_core::{PlanSource, SolvePlan};
use chase_device::CollectiveAlgo;

/// Convert a measured DB entry into the [`SolvePlan`] the solver consumes.
///
/// The plan's collective knob is `Auto` — per-call choices come from the
/// entry's rule table (the entry is itself the [`chase_comm::CollectiveTuneHook`]
/// the driver installs), not a single global algorithm. `tuned_cost`/`flat_cost` carry the
/// world-agreed trial metric so callers can report (and tests assert) that
/// the tuned plan is never worse than the flat reference.
pub fn plan_from_entry(entry: &PlanEntry) -> SolvePlan {
    SolvePlan {
        collective: CollectiveAlgo::Auto,
        source: PlanSource::Measured {
            db_key: entry.key.canonical(),
        },
        tuned_cost: entry.tuned_cost,
        flat_cost: entry.flat_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_comm::{CollectiveTuneHook, TuneAlgo, TuneOp};

    fn entry() -> PlanEntry {
        PlanEntry {
            key: PlanKey {
                machine: "m-0123456789abcdef".into(),
                p: 2,
                q: 2,
                n: 64,
                nev: 8,
                nex: 8,
                scalar: "f64".into(),
            },
            rules: vec![CollRule {
                op: TuneOp::AllReduce,
                members: 2,
                max_bytes: 4096,
                algo: TuneAlgo::Ring,
                chunk_bytes: 1024,
                measured: 1e-5,
                modeled: 2e-5,
            }],
            tuned_cost: 1.0,
            flat_cost: 2.0,
            trials: 7,
        }
    }

    #[test]
    fn hook_answers_from_rules() {
        let hook: &dyn CollectiveTuneHook = &entry();
        let c = hook.choose(TuneOp::AllReduce, 2048, 2).expect("rule hit");
        assert_eq!(c.algo, TuneAlgo::Ring);
        assert_eq!(c.chunk_bytes, 1024);
        assert!(hook.choose(TuneOp::Bcast, 2048, 2).is_none());
    }

    #[test]
    fn plan_carries_trial_winners() {
        let plan = plan_from_entry(&entry());
        assert_eq!(plan.collective, CollectiveAlgo::Auto);
        assert!(matches!(plan.source, PlanSource::Measured { .. }));
        assert!(plan.tuned_cost <= plan.flat_cost);
    }

    #[test]
    fn resolve_hits_and_misses() {
        let opts = TuneOptions::deterministic();
        let mut e = entry();
        e.key.machine = machine_fingerprint(&opts.machine);
        let shape = chase_comm::GridShape::new(e.key.p, e.key.q);
        let mut db = PlanDb::new();
        db.insert(e.clone());
        let lookup = |n| PlanChoice::lookup::<f64>(&db, &opts, shape, n, 8, 8);
        assert!(matches!(lookup(64), PlanChoice::Hit(hit) if hit == e));
        assert!(matches!(lookup(128), PlanChoice::Tune(_)));
    }
}
