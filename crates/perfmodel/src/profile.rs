//! Pricing recorded ledgers into the computation / communication /
//! data-movement breakdown of Fig. 2.

use crate::machine::{CommFlavor, Machine, ScalarKind};
use chase_comm::{Category, Ledger, Region};

use std::collections::HashMap;

/// Modeled seconds for one kernel region, split by category.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RegionCost {
    pub compute: f64,
    pub comm: f64,
    pub transfer: f64,
}

impl RegionCost {
    pub fn total(&self) -> f64 {
        self.compute + self.comm + self.transfer
    }
}

/// Pricing context: which build is being modeled.
#[derive(Debug, Clone, Copy)]
pub struct PriceCtx {
    pub scalar: ScalarKind,
    pub flavor: CommFlavor,
    /// GPUs available to GEMM-class kernels on this rank (4 for the LMS
    /// one-rank-per-node configuration, 1 otherwise).
    pub gpus_per_rank: f64,
}

impl PriceCtx {
    /// ChASE(NCCL): 1 GPU per rank, device-direct collectives.
    pub fn nccl() -> Self {
        Self {
            scalar: ScalarKind::C64,
            flavor: CommFlavor::NcclDeviceDirect,
            gpus_per_rank: 1.0,
        }
    }

    /// ChASE(STD): 1 GPU per rank, host-staged MPI collectives.
    pub fn std() -> Self {
        Self {
            scalar: ScalarKind::C64,
            flavor: CommFlavor::MpiHostStaged,
            gpus_per_rank: 1.0,
        }
    }

    /// ChASE(LMS): 1 rank per node driving 4 GPUs, host-staged MPI.
    pub fn lms() -> Self {
        Self {
            scalar: ScalarKind::C64,
            flavor: CommFlavor::MpiHostStaged,
            gpus_per_rank: 4.0,
        }
    }
}

/// Price every event of a ledger, aggregated per region and category.
pub fn price_ledger(
    ledger: &Ledger,
    machine: &Machine,
    ctx: PriceCtx,
) -> HashMap<Region, RegionCost> {
    let mut out: HashMap<Region, RegionCost> = HashMap::new();
    for ev in ledger.events() {
        let t = machine.event_time(ev, ctx.scalar, ctx.flavor, ctx.gpus_per_rank);
        let slot = out.entry(ev.region).or_default();
        match ev.kind.category() {
            Category::Compute => slot.compute += t,
            Category::Comm => slot.comm += t,
            Category::Transfer => slot.transfer += t,
        }
    }
    out
}

/// Total modeled time across all regions (per rank; the SPMD regions are
/// bulk-synchronous so the per-rank total approximates time-to-solution).
pub fn total_time(costs: &HashMap<Region, RegionCost>) -> f64 {
    costs.values().map(RegionCost::total).sum()
}

/// Total over the four kernel regions profiled in Fig. 2 (excludes Lanczos
/// and bookkeeping).
pub fn profiled_time(costs: &HashMap<Region, RegionCost>) -> f64 {
    Region::PROFILED
        .iter()
        .filter_map(|r| costs.get(r))
        .map(RegionCost::total)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_comm::EventKind;

    #[test]
    fn price_simple_ledger() {
        let mut l = Ledger::new();
        l.record_in(
            Region::Filter,
            EventKind::Gemm {
                m: 100,
                n: 10,
                k: 100,
            },
        );
        l.record_in(
            Region::Filter,
            EventKind::AllReduce {
                bytes: 16_000,
                members: 4,
            },
        );
        l.record_in(Region::Qr, EventKind::D2H { bytes: 1 << 20 });
        let m = Machine::juwels_booster();
        let costs = price_ledger(&l, &m, PriceCtx::std());
        let f = costs[&Region::Filter];
        assert!(f.compute > 0.0 && f.comm > 0.0 && f.transfer == 0.0);
        let q = costs[&Region::Qr];
        assert!(q.transfer > 0.0 && q.compute == 0.0);
        assert!(total_time(&costs) > profiled_time(&costs) * 0.999);
    }

    #[test]
    fn nccl_vs_std_pricing_of_same_ledger() {
        // Same ledger with staging events priced: the flavor changes only
        // the collective cost; the transfer events are in the ledger itself.
        let mut l = Ledger::new();
        l.record_in(
            Region::Filter,
            EventKind::AllReduce {
                bytes: 8 << 20,
                members: 16,
            },
        );
        let m = Machine::juwels_booster();
        let std = price_ledger(&l, &m, PriceCtx::std());
        let nccl = price_ledger(&l, &m, PriceCtx::nccl());
        assert!(nccl[&Region::Filter].comm < std[&Region::Filter].comm);
    }

    #[test]
    fn lms_gets_four_gpus_on_gemm() {
        let mut l = Ledger::new();
        l.record_in(
            Region::Filter,
            EventKind::Gemm {
                m: 2000,
                n: 2000,
                k: 2000,
            },
        );
        let m = Machine::juwels_booster();
        let lms = price_ledger(&l, &m, PriceCtx::lms());
        let std = price_ledger(&l, &m, PriceCtx::std());
        assert!(lms[&Region::Filter].compute < std[&Region::Filter].compute / 2.0);
    }
}
