//! End-to-end Criterion benchmarks: the Chebyshev filter (the paper's
//! dominant kernel) and full ChASE solves, serial and distributed
//! (threads-as-ranks), plus the direct-solver baseline at equal size —
//! the microcosm of Fig. 3b's ChASE-vs-direct asymmetry.

use chase_comm::{run_grid, solo_ctx, GridShape};
use chase_core::{chebyshev_filter, solve_dist, solve_serial, DistHerm, FilterBounds, Params};
use chase_device::{Backend, Device};
use chase_linalg::{Matrix, C64};
use chase_matgen::{dense_with_spectrum, Spectrum};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("chebyshev_filter");
    group.sample_size(10);
    let n = 256;
    let ne = 24;
    let spec = Spectrum::uniform(n, -1.0, 1.0);
    let h_global = dense_with_spectrum::<C64>(&spec, 6);
    let ctx = solo_ctx();
    let dev = Device::new(&ctx, Backend::Nccl);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let x = Matrix::<C64>::random(n, ne, &mut rng);
    for &deg in &[8usize, 20, 36] {
        group.bench_with_input(BenchmarkId::from_parameter(deg), &deg, |b, &deg| {
            b.iter(|| {
                let mut h = DistHerm::from_global(&h_global, &ctx);
                let mut cbuf = x.clone();
                let mut bbuf = Matrix::<C64>::zeros(n, ne);
                chebyshev_filter(
                    &dev,
                    &ctx,
                    &mut h,
                    &mut cbuf,
                    &mut bbuf,
                    0,
                    &vec![deg; ne],
                    FilterBounds {
                        c: 0.5,
                        e: 0.5,
                        mu_1: -1.0,
                    },
                )
            });
        });
    }
    group.finish();
}

fn bench_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_solve");
    group.sample_size(10);
    let n = 200;
    let spec = Spectrum::uniform(n, -1.0, 1.0);
    let h = dense_with_spectrum::<C64>(&spec, 8);
    let mut p = Params::new(8, 6);
    p.tol = 1e-9;

    group.bench_function("chase_serial_n200", |b| {
        b.iter(|| solve_serial(&h, &p, None).expect("ChASE solve"))
    });

    let (href, pref) = (&h, &p);
    group.bench_function("chase_2x2_threads_n200", |b| {
        b.iter(|| {
            run_grid(GridShape::new(2, 2), move |ctx| {
                solve_dist(
                    ctx,
                    Backend::Nccl,
                    DistHerm::from_global(href, ctx),
                    pref,
                    None,
                )
                .expect("ChASE solve")
            })
        })
    });

    // The direct solver pays the full O(N^3) reduction for the same 8 pairs.
    group.bench_function("direct_one_stage_n200", |b| {
        b.iter(|| chase_direct::eigh_partial(&h, 8, false))
    });
    group.finish();
}

criterion_group!(benches, bench_filter, bench_solve);
criterion_main!(benches);
