//! The analytic event generator of `chase-perfmodel` must mirror the live
//! solver exactly: same flops per kernel region, same communication and
//! staging volumes. This is what licenses extrapolating the cost model to
//! the paper's 900-node scales.

use chase_comm::{run_grid, Category, GridShape, Ledger, Region};
use chase_core::{solve_dist, DistHerm, Params, QrStrategy};
use chase_device::Backend;
use chase_linalg::C64;
use chase_matgen::{dense_with_spectrum, Spectrum};
use chase_perfmodel::{iteration_events, CommFlavor, IterationSpec, Layout, ScalarKind};

/// Run exactly one iteration live on a 2x2 grid and return rank 0's ledger
/// restricted to the four profiled regions.
fn live_one_iteration(n: usize, ne: usize, backend: Backend, lms: bool) -> Ledger {
    let spec = Spectrum::uniform(n, -1.0, 1.0);
    let h = dense_with_spectrum::<C64>(&spec, 5);
    let mut p = Params::new(ne / 2, ne - ne / 2);
    p.max_iter = 1;
    p.optimize_degrees = false;
    // Degree 16 keeps the filtered block's condition number safely below
    // the CholeskyQR2 breakdown threshold (~1e8) at every size used here;
    // at 20 the block can exceed it and the live run would legitimately
    // fall back to Householder, which this mirror test does not model.
    p.deg = 16;
    p.qr = QrStrategy::AlwaysCholeskyQr2;
    let (href, pref) = (&h, &p);
    let out = run_grid(GridShape::new(2, 2), move |ctx| {
        let dh = DistHerm::from_global(href, ctx);
        if lms {
            chase_core::lms::solve_lms(ctx, dh, pref, None).expect("LMS solve")
        } else {
            solve_dist(ctx, backend, dh, pref, None).expect("ChASE solve")
        }
    });
    let mut filtered = Ledger::new();
    for ev in out.ledgers[0].events() {
        if Region::PROFILED.contains(&ev.region) {
            filtered.record_in(ev.region, ev.kind);
        }
    }
    filtered
}

fn analytic_one_iteration(n: u64, ne: u64, layout: Layout, flavor: CommFlavor) -> Ledger {
    iteration_events(&IterationSpec {
        n,
        ne,
        active: ne,
        p: 2,
        q: 2,
        deg: 16,
        layout,
        flavor,
        scalar: ScalarKind::C64,
    })
}

fn assert_streams_match(live: &Ledger, model: &Ledger, label: &str) {
    for region in Region::PROFILED {
        assert_eq!(
            live.flops_in(region),
            model.flops_in(region),
            "{label}: flops mismatch in {}",
            region.name()
        );
    }
    for cat in [Category::Comm, Category::Transfer] {
        assert_eq!(
            live.bytes_in(cat),
            model.bytes_in(cat),
            "{label}: byte mismatch in {cat:?}"
        );
    }
    assert_eq!(
        live.collective_count(),
        model.collective_count(),
        "{label}: collective count mismatch"
    );
}

#[test]
fn new_layout_nccl_stream_matches() {
    let live = live_one_iteration(48, 12, Backend::Nccl, false);
    let model = analytic_one_iteration(48, 12, Layout::New, CommFlavor::NcclDeviceDirect);
    assert_streams_match(&live, &model, "new/nccl");
}

#[test]
fn new_layout_std_stream_matches() {
    let live = live_one_iteration(48, 12, Backend::Std, false);
    let model = analytic_one_iteration(48, 12, Layout::New, CommFlavor::MpiHostStaged);
    assert_streams_match(&live, &model, "new/std");
}

#[test]
fn lms_layout_stream_matches() {
    let live = live_one_iteration(48, 12, Backend::Lms, true);
    let model = analytic_one_iteration(48, 12, Layout::Lms, CommFlavor::MpiHostStaged);
    assert_streams_match(&live, &model, "lms");
}

#[test]
fn streams_match_on_other_sizes() {
    for (n, ne) in [(64usize, 16usize), (80, 8)] {
        let live = live_one_iteration(n, ne, Backend::Nccl, false);
        let model = analytic_one_iteration(
            n as u64,
            ne as u64,
            Layout::New,
            CommFlavor::NcclDeviceDirect,
        );
        assert_streams_match(&live, &model, &format!("n={n} ne={ne}"));
    }
}
