//! Analytic event-stream generation.
//!
//! For grids too large to run functionally (the paper's 900-node runs would
//! need 3600 ranks and a 900k x 900k matrix), these functions generate the
//! *same* per-rank event stream that `chase-core` records live — mirrored
//! operation by operation — so the pricing model can be evaluated at any
//! scale. A consistency test in `tests/` asserts that the analytic stream
//! matches a live run's ledger (flops per region, bytes per category) at
//! small sizes; beyond that the two share everything through the pricing
//! layer.

use crate::machine::{CommFlavor, ScalarKind};
use chase_comm::{EventKind, Ledger, Region};

/// Which parallel layout to mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// The paper's novel scheme (Algorithm 2): distributed QR/RR/Residuals.
    New,
    /// The v1.2 legacy scheme: redundant QR/RR/Residuals after gathers.
    Lms,
}

/// Parameters of one modeled ChASE iteration on one rank.
#[derive(Debug, Clone, Copy)]
pub struct IterationSpec {
    /// Global problem size.
    pub n: u64,
    /// Search-space width `nev + nex`.
    pub ne: u64,
    /// Active (non-locked) columns this iteration.
    pub active: u64,
    /// Grid rows (column-communicator size).
    pub p: u64,
    /// Grid columns (row-communicator size).
    pub q: u64,
    /// Chebyshev degree applied to every active column.
    pub deg: u64,
    pub layout: Layout,
    /// Whether collectives stage through the host (generates D2H/H2D
    /// events exactly as `chase-device` would).
    pub flavor: CommFlavor,
    pub scalar: ScalarKind,
}

impl IterationSpec {
    fn n_r(&self) -> u64 {
        self.n / self.p
    }
    fn n_c(&self) -> u64 {
        self.n / self.q
    }
    fn sb(&self) -> u64 {
        self.scalar.bytes() as u64
    }
    fn srb(&self) -> u64 {
        // bytes of the real scalar (residual norms)
        match self.scalar {
            ScalarKind::F32 => 4,
            ScalarKind::F64 => 8,
            ScalarKind::C32 => 4,
            ScalarKind::C64 => 8,
        }
    }

    fn staged(&self) -> bool {
        matches!(self.flavor, CommFlavor::MpiHostStaged)
    }
}

fn allreduce(l: &mut Ledger, r: Region, spec: &IterationSpec, bytes: u64, members: u64) {
    if spec.staged() {
        l.record_in(r, EventKind::D2H { bytes });
        l.record_in(r, EventKind::H2D { bytes });
    }
    l.record_in(r, EventKind::AllReduce { bytes, members });
}

fn bcast(l: &mut Ledger, r: Region, spec: &IterationSpec, bytes: u64, members: u64) {
    if spec.staged() {
        // One direction per rank (root D2H, receivers H2D).
        l.record_in(r, EventKind::H2D { bytes });
    }
    l.record_in(r, EventKind::Bcast { bytes, members });
}

fn allgather(l: &mut Ledger, r: Region, spec: &IterationSpec, per_rank_bytes: u64, members: u64) {
    if spec.staged() {
        l.record_in(
            r,
            EventKind::D2H {
                bytes: per_rank_bytes,
            },
        );
        l.record_in(
            r,
            EventKind::H2D {
                bytes: per_rank_bytes * members,
            },
        );
    }
    l.record_in(
        r,
        EventKind::AllGather {
            bytes_per_rank: per_rank_bytes,
            members,
        },
    );
}

/// `B = H^H C` (C-layout to B-layout; allreduce over the column comm).
fn hemm_c_to_b(l: &mut Ledger, r: Region, spec: &IterationSpec, cols: u64) {
    l.record_in(
        r,
        EventKind::Gemm {
            m: spec.n_c(),
            n: cols,
            k: spec.n_r(),
        },
    );
    allreduce(l, r, spec, spec.n_c() * cols * spec.sb(), spec.p);
}

/// `C = H B` (B-layout to C-layout; allreduce over the row comm).
fn hemm_b_to_c(l: &mut Ledger, r: Region, spec: &IterationSpec, cols: u64) {
    l.record_in(
        r,
        EventKind::Gemm {
            m: spec.n_r(),
            n: cols,
            k: spec.n_c(),
        },
    );
    allreduce(l, r, spec, spec.n_r() * cols * spec.sb(), spec.q);
}

/// The filter's event stream: `deg` alternating HEMM applications on the
/// active columns.
fn filter_events(l: &mut Ledger, spec: &IterationSpec) {
    for step in 1..=spec.deg {
        // Odd steps run C->B (column-comm allreduce), even steps B->C.
        if step % 2 == 1 {
            hemm_c_to_b(l, Region::Filter, spec, spec.active);
        } else {
            hemm_b_to_c(l, Region::Filter, spec, spec.active);
        }
    }
}

/// Event stream of one ChASE iteration on one rank, mirroring
/// `chase_core::solver` / `chase_core::lms` with a uniform degree and
/// CholeskyQR2 (the QR the NCCL build settles on; Section 4.4).
pub fn iteration_events(spec: &IterationSpec) -> Ledger {
    let mut l = Ledger::new();
    let ne = spec.ne;
    let act = spec.active;
    let sb = spec.sb();

    // --- Filter: deg alternating HEMM applications on active columns ---
    filter_events(&mut l, spec);

    match spec.layout {
        Layout::New => {
            // --- QR: CholeskyQR2 on the full ne columns ---
            for _ in 0..2 {
                l.record_in(
                    Region::Qr,
                    EventKind::Herk {
                        m: spec.n_r(),
                        n: ne,
                    },
                );
                allreduce(&mut l, Region::Qr, spec, ne * ne * sb, spec.p);
                l.record_in(Region::Qr, EventKind::Potrf { n: ne });
                l.record_in(
                    Region::Qr,
                    EventKind::Trsm {
                        m: spec.n_r(),
                        n: ne,
                    },
                );
            }
            // --- Rayleigh-Ritz ---
            bcast(
                &mut l,
                Region::RayleighRitz,
                spec,
                spec.n_c() * ne * sb,
                spec.p,
            );
            hemm_c_to_b(&mut l, Region::RayleighRitz, spec, act);
            l.record_in(
                Region::RayleighRitz,
                EventKind::Gemm {
                    m: act,
                    n: act,
                    k: spec.n_c(),
                },
            );
            allreduce(&mut l, Region::RayleighRitz, spec, act * act * sb, spec.q);
            l.record_in(Region::RayleighRitz, EventKind::Heevd { n: act });
            l.record_in(
                Region::RayleighRitz,
                EventKind::Gemm {
                    m: spec.n_r(),
                    n: act,
                    k: act,
                },
            );
            bcast(
                &mut l,
                Region::RayleighRitz,
                spec,
                spec.n_c() * ne * sb,
                spec.p,
            );
            // --- Residuals ---
            hemm_c_to_b(&mut l, Region::Residuals, spec, act);
            l.record_in(
                Region::Residuals,
                EventKind::Blas1 {
                    n: spec.n_c() * act * 2,
                },
            );
            allreduce(&mut l, Region::Residuals, spec, act * spec.srb(), spec.q);
        }
        Layout::Lms => {
            // --- QR: gather + redundant Householder ---
            allgather(&mut l, Region::Qr, spec, spec.n_r() * ne * sb, spec.p);
            l.record_in(Region::Qr, EventKind::HhQr { m: spec.n, n: ne });
            // --- Rayleigh-Ritz: gather + redundant quotient/back-transform ---
            hemm_c_to_b(&mut l, Region::RayleighRitz, spec, act);
            allgather(
                &mut l,
                Region::RayleighRitz,
                spec,
                spec.n_c() * ne * sb,
                spec.q,
            );
            l.record_in(
                Region::RayleighRitz,
                EventKind::Gemm {
                    m: act,
                    n: act,
                    k: spec.n,
                },
            );
            l.record_in(Region::RayleighRitz, EventKind::Heevd { n: act });
            l.record_in(
                Region::RayleighRitz,
                EventKind::Gemm {
                    m: spec.n,
                    n: act,
                    k: act,
                },
            );
            // --- Residuals: gather + redundant norms ---
            hemm_c_to_b(&mut l, Region::Residuals, spec, act);
            allgather(
                &mut l,
                Region::Residuals,
                spec,
                spec.n_c() * ne * sb,
                spec.q,
            );
            l.record_in(
                Region::Residuals,
                EventKind::Blas1 {
                    n: spec.n * act * 2,
                },
            );
        }
    }
    l
}

/// Multi-iteration solve model: price a sequence of `(active, deg)` pairs
/// (e.g. replayed from a live small-scale run's `IterStats`).
pub fn solve_events(base: &IterationSpec, schedule: &[(u64, u64)]) -> Ledger {
    let mut total = Ledger::new();
    for &(active, deg) in schedule {
        let spec = IterationSpec {
            active,
            deg,
            ..*base
        };
        total.absorb(&iteration_events(&spec));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_comm::Category;

    fn spec(layout: Layout, flavor: CommFlavor) -> IterationSpec {
        IterationSpec {
            n: 1200,
            ne: 120,
            active: 120,
            p: 2,
            q: 2,
            deg: 20,
            layout,
            flavor,
            scalar: ScalarKind::C64,
        }
    }

    #[test]
    fn nccl_stream_has_no_transfers() {
        let l = iteration_events(&spec(Layout::New, CommFlavor::NcclDeviceDirect));
        assert_eq!(l.bytes_in(Category::Transfer), 0);
        assert!(l.bytes_in(Category::Comm) > 0);
    }

    #[test]
    fn std_stream_stages_every_collective() {
        let l = iteration_events(&spec(Layout::New, CommFlavor::MpiHostStaged));
        assert!(l.bytes_in(Category::Transfer) > 0);
    }

    #[test]
    fn lms_moves_more_data_than_new() {
        let lms = iteration_events(&spec(Layout::Lms, CommFlavor::MpiHostStaged));
        let new = iteration_events(&spec(Layout::New, CommFlavor::MpiHostStaged));
        assert!(
            lms.bytes_in(Category::Comm) > new.bytes_in(Category::Comm),
            "legacy layout must communicate more: {} vs {}",
            lms.bytes_in(Category::Comm),
            new.bytes_in(Category::Comm)
        );
    }

    #[test]
    fn filter_flops_scale_with_degree() {
        let mut s = spec(Layout::New, CommFlavor::NcclDeviceDirect);
        let f20 = iteration_events(&s).flops_in(Region::Filter);
        s.deg = 40;
        let f40 = iteration_events(&s).flops_in(Region::Filter);
        assert_eq!(f40, 2 * f20);
    }

    #[test]
    fn solve_events_accumulates() {
        let base = spec(Layout::New, CommFlavor::NcclDeviceDirect);
        let single = iteration_events(&base);
        let triple = solve_events(&base, &[(120, 20), (120, 20), (120, 20)]);
        assert_eq!(
            triple.flops_in(Region::Filter),
            3 * single.flops_in(Region::Filter)
        );
    }
}
