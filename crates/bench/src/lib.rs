//! # chase-bench
//!
//! Benchmark harness: one binary per table/figure of the paper's evaluation
//! (Section 4), plus ablation studies. Shared plumbing lives here:
//! running a problem live on a thread grid, extracting its iteration
//! schedule, and re-pricing that schedule at the paper's original scale with
//! the calibrated machine model.
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_suite` | Table 1 (problem suite + surrogate mapping) |
//! | `fig1_cond` | Fig. 1 (estimated vs computed condition numbers) |
//! | `table2_qr` | Table 2 (HHQR vs CholeskyQR) |
//! | `fig2_profile` | Fig. 2 (kernel profile: compute/comm/transfer) |
//! | `fig3a_weak` | Fig. 3a (weak scaling to 900 nodes) |
//! | `fig3b_strong` | Fig. 3b (strong scaling vs ELPA) |
//! | `ablation_*` | design-choice ablations from DESIGN.md |

use chase_comm::{run_grid, GridShape, Ledger};
use chase_core::{chebyshev_filter_with, ChaseResult, DistHerm, FilterBounds, FilterExec, Params};
use chase_device::{Backend, Device};
use chase_linalg::{Matrix, C64};
use chase_perfmodel::{
    iteration_events, CommFlavor, IterationSpec, Layout, Machine, PriceCtx, ScalarKind,
};
use chase_tune::{solve_grid, GridRun};

/// Outcome of a live (functional) distributed run: per-rank result of rank
/// 0 plus its event ledger.
pub struct LiveRun {
    pub result: ChaseResult<C64>,
    pub ledger: Ledger,
    pub wall: std::time::Duration,
}

/// Solve `h` on a `shape` grid of threads with the given backend. Panics
/// when the solve fails: the bench binaries run fault-free problems.
pub fn run_live(h: &Matrix<C64>, params: &Params, shape: GridShape, backend: Backend) -> LiveRun {
    let t0 = std::time::Instant::now();
    let run = GridRun {
        backend,
        ..GridRun::new(shape)
    };
    let mut out = solve_grid(h, params, &run);
    let wall = t0.elapsed();
    let ledger = out.ledgers.swap_remove(0);
    let solved = out.into_solved();
    LiveRun {
        result: solved.expect("ChASE solve aborted").swap_remove(0),
        ledger,
        wall,
    }
}

/// Extract the per-iteration `(active_columns, average_degree)` schedule
/// from a live run — the input for re-pricing the same convergence history
/// at the paper's full problem scale.
pub fn schedule_of(result: &ChaseResult<C64>, ne: usize) -> Vec<(u64, u64)> {
    let mut locked_before = 0usize;
    let mut schedule = Vec::with_capacity(result.stats.len());
    for s in &result.stats {
        let active = (ne - locked_before) as u64;
        // Average degree = matvecs per active column, floored at 2 and
        // rounded to even as the filter requires.
        let mut deg = s.matvecs.checked_div(active).unwrap_or(0).max(2);
        deg += deg % 2;
        schedule.push((active, deg));
        locked_before = s.locked;
    }
    schedule
}

/// Price a schedule at full problem scale.
#[allow(clippy::too_many_arguments)]
pub fn price_schedule(
    machine: &Machine,
    schedule: &[(u64, u64)],
    n: u64,
    ne: u64,
    grid: u64,
    layout: Layout,
    flavor: CommFlavor,
    scalar: ScalarKind,
    gpus_per_rank: f64,
) -> std::collections::HashMap<chase_comm::Region, chase_perfmodel::RegionCost> {
    let base = IterationSpec {
        n,
        ne,
        active: ne,
        p: grid,
        q: grid,
        deg: 20,
        layout,
        flavor,
        scalar,
    };
    let mut total = Ledger::new();
    for &(active, deg) in schedule {
        let spec = IterationSpec {
            active,
            deg,
            ..base
        };
        total.absorb(&iteration_events(&spec));
    }
    let ctx = PriceCtx {
        scalar,
        flavor,
        gpus_per_rank,
    };
    chase_perfmodel::price_ledger(&total, machine, ctx)
}

/// Outcome of one timed filter variant on a thread grid.
pub struct FilterBench {
    /// Per-repetition wall-clock seconds: the slowest rank of each
    /// barrier-aligned repetition.
    pub samples: Vec<f64>,
    /// Concatenation of every rank's final local block in world-rank order —
    /// two variants computed the same thing iff these are bitwise equal.
    pub fingerprint: Vec<C64>,
    /// Rank 0's ledger (warmup + timed repetitions).
    pub ledger: Ledger,
    /// Nonblocking buffer-pool allocations observed during the timed
    /// repetitions (max over ranks). Zero for a warmed-up pipeline: the
    /// zero-steady-state-allocation invariant.
    pub fresh_allocs_steady: u64,
}

/// Run the Chebyshev filter on a `shape` grid under every `execs` strategy,
/// timing `reps` barrier-aligned repetitions after `warmup` untimed ones.
///
/// All variants share one grid, one `DistHerm` and one warm buffer pool,
/// and are *interleaved* rep-by-rep (variant A rep 0, variant B rep 0, ...,
/// variant A rep 1, ...) so per-rep samples are paired: environmental drift
/// over the benchmark's lifetime hits every variant alike instead of
/// biasing whichever ran last. The order flips every rep (ABBA) so drift
/// within a rep cycle cancels from paired differences too. Every repetition restarts from the same
/// block `x`, so the variants are bitwise comparable via
/// [`FilterBench::fingerprint`]. Returned [`FilterBench`] ledgers contain
/// only that variant's timed repetitions;
/// [`FilterBench::fresh_allocs_steady`] is a whole-run (all variants)
/// counter, since the pool is shared.
#[allow(clippy::too_many_arguments)]
pub fn bench_filter_variants(
    h: &Matrix<C64>,
    x: &Matrix<C64>,
    degrees: &[usize],
    bounds: FilterBounds<f64>,
    shape: GridShape,
    backend: Backend,
    execs: &[FilterExec],
    warmup: usize,
    reps: usize,
) -> Vec<FilterBench> {
    assert_eq!(degrees.len(), x.cols(), "one degree per filtered column");
    let nv = execs.len();
    let out = run_grid(shape, move |ctx| {
        let dev = Device::new(ctx, backend);
        let mut dh = DistHerm::from_global(h, ctx);
        let x_local = x.select_rows(dh.row_set.iter());
        let ne = degrees.len();
        let mut b = Matrix::<C64>::zeros(dh.n_c(), ne);
        let run =
            |exec: FilterExec, c: &mut Matrix<C64>, b: &mut Matrix<C64>, dh: &mut DistHerm<C64>| {
                chebyshev_filter_with(&dev, ctx, dh, c, b, 0, degrees, bounds, exec)
                    .expect("benchmark filter run timed out");
            };
        for _ in 0..warmup {
            for &exec in execs {
                let mut c = x_local.clone();
                run(exec, &mut c, &mut b, &mut dh);
            }
        }
        let fresh = |ctx: &chase_comm::RankCtx| {
            ctx.col_comm.nb_pool_stats().fresh_allocs + ctx.row_comm.nb_pool_stats().fresh_allocs
        };
        let fresh0 = fresh(ctx);
        let mut samples = vec![Vec::with_capacity(reps); nv];
        let mut finals: Vec<Vec<C64>> = vec![Vec::new(); nv];
        let mut ledgers: Vec<Ledger> = (0..nv).map(|_| Ledger::new()).collect();
        for rep in 0..reps {
            // ABBA ordering: alternate the variant order every rep so that
            // linear drift *within* one rep cycle cancels from the paired
            // differences instead of systematically favouring whichever
            // variant runs first. (Deterministic, hence SPMD-uniform.)
            let order: Vec<usize> = if rep % 2 == 0 {
                (0..nv).collect()
            } else {
                (0..nv).rev().collect()
            };
            for &vi in &order {
                let exec = execs[vi];
                let mut c = x_local.clone();
                let mark = ctx.ledger.lock().len();
                ctx.world.barrier();
                let t = std::time::Instant::now();
                run(exec, &mut c, &mut b, &mut dh);
                samples[vi].push(t.elapsed().as_secs_f64());
                ledgers[vi].absorb(&ctx.ledger.lock().since(mark));
                finals[vi] = c.as_slice().to_vec();
            }
        }
        (samples, finals, ledgers, fresh(ctx) - fresh0)
    });
    let per_rank = out.results;
    let fresh_allocs_steady = per_rank.iter().map(|p| p.3).max().unwrap_or(0);
    (0..nv)
        .map(|vi| FilterBench {
            samples: (0..reps)
                .map(|r| per_rank.iter().map(|p| p.0[vi][r]).fold(0.0f64, f64::max))
                .collect(),
            fingerprint: per_rank
                .iter()
                .flat_map(|p| p.1[vi].iter().copied())
                .collect(),
            ledger: per_rank[0].2[vi].clone(),
            fresh_allocs_steady,
        })
        .collect()
}

/// Median of a sample set (average of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// One machine-readable benchmark measurement (criterion-style: a point
/// estimate plus the raw samples it came from).
pub struct BenchRecord {
    /// Hierarchical id, e.g. `"live/pipelined/panel=4"`.
    pub id: String,
    /// Unit of `median` and `samples` (always seconds here).
    pub unit: &'static str,
    /// Median of `samples`.
    pub median: f64,
    /// Raw per-repetition measurements.
    pub samples: Vec<f64>,
}

impl BenchRecord {
    pub fn new(id: impl Into<String>, samples: Vec<f64>) -> Self {
        let median = median(&samples);
        Self {
            id: id.into(),
            unit: "s",
            median,
            samples,
        }
    }
}

/// Write records as a JSON array (hand-rolled; the build has no serde).
/// Every number is emitted in exponent form, which is valid JSON.
pub fn write_bench_json(path: &str, records: &[BenchRecord]) -> std::io::Result<()> {
    let items: Vec<String> = records
        .iter()
        .map(|r| {
            let samples: Vec<String> = r.samples.iter().map(|s| format!("{s:e}")).collect();
            format!(
                "{{\"id\":\"{}\",\"unit\":\"{}\",\"median\":{:e},\"samples\":[{}]}}",
                r.id,
                r.unit,
                r.median,
                samples.join(",")
            )
        })
        .collect();
    std::fs::write(path, format!("[{}]\n", items.join(",\n ")))
}

/// Format a byte count as KiB/MiB (ablation tables).
pub fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{} MiB", bytes >> 20)
    } else {
        format!("{} KiB", bytes >> 10)
    }
}

/// Host-staged collectives pay D2H before and H2D after (PCIe gen4).
pub fn staging_time(m: &Machine, bytes: u64) -> f64 {
    2.0 * (m.pcie_latency + bytes as f64 / m.pcie_bw)
}

/// Total modeled seconds of one region in a priced profile. Panics if the
/// region has no priced events — an ablation comparing region costs wants a
/// loud failure, not a silent 0.0 that passes every inequality.
pub fn region_cost(
    costs: &std::collections::HashMap<chase_comm::Region, chase_perfmodel::RegionCost>,
    region: chase_comm::Region,
) -> f64 {
    costs
        .get(&region)
        .unwrap_or_else(|| panic!("no {} events in priced profile", region.name()))
        .total()
}

/// Format seconds compactly.
pub fn fmt_s(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0}")
    } else if t >= 1.0 {
        format!("{t:.2}")
    } else {
        format!("{t:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_matgen::{dense_with_spectrum, Spectrum};

    #[test]
    fn live_run_and_schedule() {
        let spec = Spectrum::uniform(60, -1.0, 1.0);
        let h = dense_with_spectrum::<C64>(&spec, 1);
        let mut p = Params::new(6, 4);
        p.tol = 1e-8;
        let run = run_live(&h, &p, GridShape::new(2, 2), Backend::Nccl);
        assert!(run.result.converged);
        let sched = schedule_of(&run.result, p.ne());
        assert_eq!(sched.len(), run.result.iterations);
        // Active counts never grow; degrees stay even.
        for w in sched.windows(2) {
            assert!(w[1].0 <= w[0].0);
        }
        for (_, d) in &sched {
            assert_eq!(d % 2, 0);
        }
        // Total modeled matvecs approximate the real count.
        let modeled: u64 = sched.iter().map(|(a, d)| a * d).sum();
        let real = run.result.matvecs;
        assert!(
            modeled as f64 > real as f64 * 0.7 && (modeled as f64) < real as f64 * 1.3,
            "schedule matvecs {modeled} vs live {real}"
        );
    }

    #[test]
    fn median_is_order_statistic() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn bench_json_is_machine_readable() {
        let dir = std::env::temp_dir().join("chase_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.json");
        let recs = [
            BenchRecord::new("live/serialized", vec![2e-3, 1e-3, 3e-3]),
            BenchRecord::new("model/pipelined", vec![0.5]),
        ];
        write_bench_json(path.to_str().unwrap(), &recs).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with('[') && body.trim_end().ends_with(']'));
        assert!(body.contains("\"id\":\"live/serialized\""));
        assert!(body.contains("\"median\":2e-3"));
        assert!(body.contains("\"unit\":\"s\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filter_bench_variants_are_bitwise_comparable() {
        use chase_core::FilterExec;
        use rand::SeedableRng;
        let n = 24;
        let ne = 6;
        let spec = Spectrum::uniform(n, -1.0, 1.0);
        let h = dense_with_spectrum::<C64>(&spec, 5);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let x = Matrix::<C64>::random(n, ne, &mut rng);
        let degrees = vec![4usize; ne];
        let bounds = chase_core::FilterBounds::from_spectrum(-1.0, 0.0, 1.0);
        let shape = GridShape::new(2, 2);
        let execs = [FilterExec::Flat, FilterExec::Pipelined { panel: Some(2) }];
        let [flat, piped] =
            bench_filter_variants(&h, &x, &degrees, bounds, shape, Backend::Nccl, &execs, 1, 2)
                .try_into()
                .unwrap_or_else(|_| panic!("one bench per variant"));
        assert_eq!(flat.samples.len(), 2);
        assert!(flat.samples.iter().all(|&s| s > 0.0));
        // Each grid-column block of C is replicated across the p grid rows,
        // so the fingerprint carries p copies of the full block.
        assert_eq!(flat.fingerprint.len(), 2 * n * ne);
        assert_eq!(flat.fingerprint, piped.fingerprint, "bitwise mismatch");
        assert_eq!(piped.fresh_allocs_steady, 0, "pool must be warm");
    }

    #[test]
    fn price_schedule_is_positive_and_monotone_in_iters() {
        let m = Machine::juwels_booster();
        let one = price_schedule(
            &m,
            &[(100, 20)],
            10_000,
            120,
            2,
            Layout::New,
            CommFlavor::NcclDeviceDirect,
            ScalarKind::C64,
            1.0,
        );
        let two = price_schedule(
            &m,
            &[(100, 20), (100, 20)],
            10_000,
            120,
            2,
            Layout::New,
            CommFlavor::NcclDeviceDirect,
            ScalarKind::C64,
            1.0,
        );
        let t1 = chase_perfmodel::profiled_time(&one);
        let t2 = chase_perfmodel::profiled_time(&two);
        assert!(t1 > 0.0);
        assert!((t2 / t1 - 2.0).abs() < 0.01);
    }
}
