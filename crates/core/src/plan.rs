//! Resolved solve plans (the output vocabulary of `chase-tune`).
//!
//! A [`SolvePlan`] pins the performance knob a solve needs — the collective
//! schedule — together with its provenance: where the decisions came from and what the model says they
//! cost relative to the `Flat` defaults. `chase-tune` produces plans from
//! measured micro-benchmark trials; [`crate::Params::apply_plan`] merges one
//! into a parameter set, touching only the knobs the caller left on their
//! `Auto`/default settings; the solver stamps the applied plan onto
//! [`crate::ChaseResult`] so every result records how it was scheduled.

use crate::params::Params;
use chase_device::CollectiveAlgo;

/// Where a plan's decisions came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanSource {
    /// Knobs were pinned by hand (CLI flags, workload keys).
    Manual,
    /// The analytic alpha-beta model chose per call site (no DB entry).
    Analytic,
    /// Measured trials, resolved from a plan database entry with this
    /// canonical key.
    Measured { db_key: String },
}

impl PlanSource {
    pub fn name(&self) -> &'static str {
        match self {
            PlanSource::Manual => "manual",
            PlanSource::Analytic => "analytic",
            PlanSource::Measured { .. } => "measured",
        }
    }
}

/// A resolved set of performance decisions for one solve configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvePlan {
    /// Collective execution path. `Auto` here means "per-call choice": the
    /// analytic tuner, or a measured per-size table installed as a
    /// [`chase_comm::CollectiveTuneHook`] on the rank contexts.
    pub collective: CollectiveAlgo,
    /// Provenance of the decisions above.
    pub source: PlanSource,
    /// Modeled cost (seconds) of the tuned components of one iteration
    /// under this plan — the quantity the tuner minimized.
    pub tuned_cost: f64,
    /// The same components' modeled cost under the `Flat` defaults
    /// (flat collectives). A measured plan
    /// guarantees `tuned_cost <= flat_cost`: the flat path is always among
    /// the trial candidates.
    pub flat_cost: f64,
}

impl SolvePlan {
    /// The plan matching the historic `Flat` defaults (baseline for
    /// comparisons; applying it is a no-op on default parameters).
    pub fn flat_default() -> Self {
        Self {
            collective: CollectiveAlgo::Flat,
            source: PlanSource::Manual,
            tuned_cost: 0.0,
            flat_cost: 0.0,
        }
    }

    /// One-line human summary (CLI, logs).
    pub fn summary(&self) -> String {
        format!(
            "collective={} source={} modeled {:.3}ms vs flat {:.3}ms",
            self.collective.name(),
            self.source.name(),
            self.tuned_cost * 1e3,
            self.flat_cost * 1e3,
        )
    }
}

impl Params {
    /// Merge a resolved plan into these parameters: `collective` is
    /// replaced when `Flat` (the untouched default) or `Auto`; a forced
    /// `Ring`/`Tree`/`Doubling` pin is respected.
    ///
    /// The plan is stamped on `self.plan` either way, so the solver can
    /// attach provenance to the result.
    pub fn apply_plan(&mut self, plan: &SolvePlan) {
        if matches!(self.collective, CollectiveAlgo::Flat | CollectiveAlgo::Auto) {
            self.collective = plan.collective;
        }
        self.plan = Some(plan.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured() -> SolvePlan {
        SolvePlan {
            collective: CollectiveAlgo::Auto,
            source: PlanSource::Measured { db_key: "k".into() },
            tuned_cost: 1.0,
            flat_cost: 2.0,
        }
    }

    #[test]
    fn apply_fills_auto_knobs() {
        let mut p = Params::new(6, 4);
        p.apply_plan(&measured());
        assert_eq!(p.collective, CollectiveAlgo::Auto);
        assert!(p.plan.is_some());
    }

    #[test]
    fn apply_respects_manual_pins() {
        let mut p = Params::new(6, 4);
        p.collective = CollectiveAlgo::Ring;
        p.apply_plan(&measured());
        assert_eq!(p.collective, CollectiveAlgo::Ring);
    }
}
