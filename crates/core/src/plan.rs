//! Resolved solve plans (the output vocabulary of `chase-tune`).
//!
//! A [`SolvePlan`] pins every performance knob a solve needs — collective
//! schedule and overlap panel width — together with its
//! provenance: where the decisions came from and what the model says they
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
    /// Run the filter on the overlapped pipeline.
    pub overlap: bool,
    /// Pinned panel width for the pipeline (`None` = per-step tuner choice).
    pub overlap_panel: Option<usize>,
    /// Provenance of the decisions above.
    pub source: PlanSource,
    /// Modeled cost (seconds) of the tuned components of one iteration
    /// under this plan — the quantity the tuner minimized.
    pub tuned_cost: f64,
    /// The same components' modeled cost under the `Flat` defaults
    /// (flat collectives, no overlap). A measured plan
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
            overlap: false,
            overlap_panel: None,
            source: PlanSource::Manual,
            tuned_cost: 0.0,
            flat_cost: 0.0,
        }
    }

    /// One-line human summary (CLI, logs).
    pub fn summary(&self) -> String {
        let panel = match (self.overlap, self.overlap_panel) {
            (false, _) => "off".to_string(),
            (true, None) => "auto".to_string(),
            (true, Some(w)) => format!("{w}"),
        };
        format!(
            "collective={} overlap_panel={panel} source={} modeled {:.3}ms vs flat {:.3}ms",
            self.collective.name(),
            self.source.name(),
            self.tuned_cost * 1e3,
            self.flat_cost * 1e3,
        )
    }
}

impl Params {
    /// Merge a resolved plan into these parameters, filling only the knobs
    /// still on their `Auto`/default settings:
    ///
    /// * `collective` — replaced when `Flat` (the untouched default) or
    ///   `Auto`; a forced `Ring`/`Tree`/`Doubling` pin is respected.
    /// * `overlap`/`overlap_panel` — adopted unless the caller already
    ///   turned overlap on (an explicit panel pin stays).
    ///
    /// The plan is stamped on `self.plan` either way, so the solver can
    /// attach provenance to the result.
    pub fn apply_plan(&mut self, plan: &SolvePlan) {
        if matches!(self.collective, CollectiveAlgo::Flat | CollectiveAlgo::Auto) {
            self.collective = plan.collective;
        }
        if !self.overlap {
            self.overlap = plan.overlap;
            self.overlap_panel = plan.overlap_panel;
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
            overlap: true,
            overlap_panel: Some(16),
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
        assert!(p.overlap);
        assert_eq!(p.overlap_panel, Some(16));
        assert!(p.plan.is_some());
    }

    #[test]
    fn apply_respects_manual_pins() {
        let mut p = Params::new(6, 4);
        p.collective = CollectiveAlgo::Ring;
        p.overlap = true;
        p.overlap_panel = Some(4);
        p.apply_plan(&measured());
        assert_eq!(p.collective, CollectiveAlgo::Ring);
        assert_eq!(p.overlap_panel, Some(4));
    }
}
