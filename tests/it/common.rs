//! Shared end-to-end test harness: the one copy of the problem builders and
//! solve-loop helpers that the `matrix`, `faults`, `overlap` and `tune`
//! suites used to each carry their own flavor of.

use chase_comm::{run_grid, GridShape, Reduce};
use chase_core::{
    chebyshev_filter_with, ChaseError, ChaseResult, DistHerm, FilterBounds, FilterExec, Params,
};
use chase_device::{Backend, Device};
use chase_linalg::{Matrix, Scalar};
use chase_matgen::{dense_with_spectrum, Spectrum};
use chase_trace::Trace;
use chase_tune::{solve_grid, GridOutcome, GridRun};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Dense Hermitian test problem with a uniform spectrum on `[lo, hi]`,
/// returned with the spectrum so tests can check eigenvalues against truth.
pub fn problem_on<T: Scalar>(n: usize, lo: f64, hi: f64, seed: u64) -> (Matrix<T>, Spectrum) {
    let spec = Spectrum::uniform(n, lo, hi);
    (dense_with_spectrum::<T>(&spec, seed), spec)
}

/// The default chaos/matrix problem: uniform spectrum on `[-1, 1]`.
pub fn problem<T: Scalar>(n: usize, seed: u64) -> (Matrix<T>, Spectrum) {
    problem_on(n, -1.0, 1.0, seed)
}

/// A prescribed spectrum of one of three shapes the degree model finds
/// hard, `n` values on about `[-2, 1]`: `0` clustered (tight triples),
/// `1` gapped (the lowest eighth split off below the rest), `2`
/// near-degenerate (pairs a hair apart).
pub fn hard_spectrum(kind: usize, n: usize, seed: u64) -> chase_matgen::Spectrum {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut jitter = move || 2.0 * rand::Rng::gen::<f64>(&mut rng) - 1.0;
    let vals = match kind {
        0 => (0..n)
            .map(|i| -1.0 + 2.0 * (i / 3) as f64 / (n / 3) as f64 + 1e-4 * jitter())
            .collect(),
        1 => (0..n)
            .map(|i| {
                if i < n / 8 {
                    -2.0 + 0.3 * i as f64 / (n / 8) as f64
                } else {
                    -1.0 + 2.0 * i as f64 / n as f64
                }
            })
            .collect(),
        _ => (0..n)
            .map(|i| -1.0 + 2.0 * (i / 2) as f64 / (n / 2) as f64 + 1e-8 * jitter())
            .collect(),
    };
    chase_matgen::Spectrum::from_values(vals)
}

/// Solver params at the suite's standard accuracy.
pub fn params(nev: usize, nex: usize, tol: f64) -> Params {
    let mut p = Params::new(nev, nex);
    p.tol = tol;
    p
}

/// Every rank's result of a run none of whose ranks left (world-rank order).
fn all_ranks<T: Scalar>(out: GridOutcome<T>) -> Vec<Result<ChaseResult<T>, ChaseError>> {
    out.results
        .into_iter()
        .map(|r| r.expect("no rank leaves a run that plans no crash"))
        .collect()
}

/// Run the distributed guarded solver SPMD over `shape` and return every
/// rank's result (world-rank order).
pub fn solve_on<T>(
    h: &Matrix<T>,
    p: &Params,
    shape: GridShape,
) -> Vec<Result<ChaseResult<T>, ChaseError>>
where
    T: Scalar + Reduce,
    T::Real: Reduce,
{
    all_ranks(solve_grid(h, p, &GridRun::new(shape)))
}

/// Like [`solve_on`], but with a trace recorder installed on every rank:
/// returns the per-rank results alongside the assembled [`Trace`], for
/// suites asserting byte-for-byte trace replay.
pub fn traced_solve_on<T>(
    h: &Matrix<T>,
    p: &Params,
    shape: GridShape,
) -> (Vec<Result<ChaseResult<T>, ChaseError>>, Trace)
where
    T: Scalar + Reduce,
    T::Real: Reduce,
{
    let run = GridRun {
        trace: true,
        ..GridRun::new(shape)
    };
    let mut out = solve_grid(h, p, &run);
    let trace = out.trace.take().expect("the run was traced");
    (all_ranks(out), trace)
}

/// Grid axis for the standalone filter suites: serial, square, and a
/// non-square grid whose row/col communicators have different sizes.
pub const FILTER_SHAPES: [(usize, usize); 3] = [(1, 1), (2, 2), (2, 3)];

/// Run the flat and the pipelined Chebyshev filter on the same inputs over
/// `shape` and assert the outputs (both layouts) are bitwise identical on
/// every rank. `degrees` must be ascending, even, >= 2.
pub fn assert_pipelined_matches_flat<T>(
    n: usize,
    degrees: &[usize],
    shape: GridShape,
    panel: Option<usize>,
    seed: u64,
) where
    T: Scalar + Reduce,
    T::Real: Reduce,
{
    let ne = degrees.len();
    let (h, x, bounds) = filter_inputs::<T>(n, ne, seed);
    let (h, x, degrees) = (&h, &x, degrees);
    run_grid(shape, move |ctx| {
        let dev = Device::new(ctx, Backend::Nccl);
        let mut dh = DistHerm::from_global(h, ctx);
        let x_local = x.select_rows(dh.row_set.iter());

        let mut c_flat = x_local.clone();
        let mut b_flat = Matrix::<T>::zeros(dh.n_c(), ne);
        chebyshev_filter_with(
            &dev,
            ctx,
            &mut dh,
            &mut c_flat,
            &mut b_flat,
            0,
            degrees,
            bounds,
            FilterExec::Flat,
        )
        .unwrap();

        let mut c_pipe = x_local.clone();
        let mut b_pipe = Matrix::<T>::zeros(dh.n_c(), ne);
        chebyshev_filter_with(
            &dev,
            ctx,
            &mut dh,
            &mut c_pipe,
            &mut b_pipe,
            0,
            degrees,
            bounds,
            FilterExec::Pipelined { panel },
        )
        .unwrap();

        assert_eq!(
            c_flat.as_slice(),
            c_pipe.as_slice(),
            "C blocks diverged (shape {shape:?}, panel {panel:?})"
        );
        assert_eq!(
            b_flat.as_slice(),
            b_pipe.as_slice(),
            "B blocks diverged (shape {shape:?}, panel {panel:?})"
        );
    });
}

/// Inputs for a standalone Chebyshev filter run: the matrix, a seeded
/// random start block, and bounds damping the upper half of the spectrum.
pub fn filter_inputs<T: Scalar>(
    n: usize,
    ne: usize,
    seed: u64,
) -> (Matrix<T>, Matrix<T>, FilterBounds<T::Real>) {
    let (h, _) = problem::<T>(n, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let x = Matrix::<T>::random(n, ne, &mut rng);
    let bounds = FilterBounds::from_spectrum(
        <T::Real as Scalar>::from_f64(-1.0),
        <T::Real as Scalar>::from_f64(0.0),
        <T::Real as Scalar>::from_f64(1.0),
    );
    (h, x, bounds)
}

/// Ascending, even, >= 2 degree profile from raw proptest draws. Mixing
/// values exercises the filter's active-set narrowing: vectors retire at
/// different steps, so panel boundaries shift as the block shrinks.
pub fn degree_profile(raw: &[usize]) -> Vec<usize> {
    let mut d: Vec<usize> = raw.iter().map(|r| 2 * (1 + r % 4)).collect();
    d.sort_unstable();
    d
}

/// Assert every rank of an SPMD run returned `Ok`, and hand back the
/// unwrapped results.
pub fn expect_all_ok<T: Scalar>(
    results: Vec<Result<ChaseResult<T>, ChaseError>>,
    what: &str,
) -> Vec<ChaseResult<T>> {
    results
        .into_iter()
        .enumerate()
        .map(|(rank, r)| match r {
            Ok(r) => r,
            Err(e) => panic!("{what}: rank {rank} failed: {e}"),
        })
        .collect()
}

/// The end-to-end grid axis shared by the consolidated matrix and the tuner
/// tests: serial, square, and flat (row-degenerate) process grids.
pub const MATRIX_GRIDS: [(usize, usize); 3] = [(1, 1), (2, 2), (1, 4)];
