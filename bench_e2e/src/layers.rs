//! The traced pass: the per-layer metrics of one workload, measured from
//! outside each crate — spans around the benchmark's own calls (see
//! `adapter.rs`), barrier-aligned micro-benchmarks on the workload's own
//! shapes and scalar, and replays of what one solve did.
//!
//! Layer = crate. The schema ([`METRICS`]) is the same on every workload;
//! README.md says which end-to-end metric each row should move, and where.

use crate::adapter::{
    self, BenchScalar, CollRec, FilterMode, Hops, IterShape, Matrix, Rank, Seams, Shape, Solved,
    C64,
};
use crate::e2e::{
    chain_setup, check_answer, drain_checked, params_for, sub_seed, NotDeterministic, Outcome,
};
use crate::spans;
use crate::stats::{median, Summary};
use crate::workloads::{Chain, Problem, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// `(name, unit, better)` of every per-layer metric, in report order.
/// `count` rows marked *exact* in README.md must repeat bit for bit.
pub const METRICS: &[(&str, &str, &str)] = &[
    // chase-linalg
    ("linalg.gemm_nn_gflops", "Gflop/s", "higher"),
    ("linalg.gemm_cn_gflops", "Gflop/s", "higher"),
    ("linalg.gemm_prepacked_gflops", "Gflop/s", "higher"),
    ("linalg.prepack_s", "s", "lower"),
    ("linalg.gram_gflops", "Gflop/s", "higher"),
    ("linalg.trsm_gflops", "Gflop/s", "higher"),
    ("linalg.potrf_s", "s", "lower"),
    ("linalg.heevd_s", "s", "lower"),
    ("linalg.hhqr_s", "s", "lower"),
    ("linalg.gemv_gbps", "GB/s", "higher"),
    // chase-comm
    ("comm.grid_spawn_us", "us", "lower"),
    ("comm.barrier_us", "us", "lower"),
    ("comm.allreduce_8b_us", "us", "lower"),
    ("comm.allreduce_block_us", "us", "lower"),
    ("comm.allreduce_block_gbps", "GB/s", "higher"),
    ("comm.bcast_block_us", "us", "lower"),
    ("comm.allgather_block_us", "us", "lower"),
    ("comm.iallreduce_block_us", "us", "lower"),
    ("comm.collectives_per_solve", "count", "lower"),
    ("comm.bytes_per_solve", "B", "lower"),
    ("comm.replay_s", "s", "lower"),
    ("comm.replay_share", "ratio", "lower"),
    ("comm.collectives_per_solve_2x2", "count", "lower"),
    ("comm.bytes_per_solve_2x2", "B", "lower"),
    // chase-topo
    ("topo.ring_over_flat", "ratio", "lower"),
    ("topo.tree_over_flat", "ratio", "lower"),
    // chase-device
    ("device.events_per_solve", "count", "lower"),
    ("device.flops_per_solve", "flop", "lower"),
    ("device.transfer_bytes_per_solve", "B", "lower"),
    // chase-core
    ("core.matvecs", "count", "lower"),
    ("core.iterations", "count", "lower"),
    ("core.lanczos_s", "s", "lower"),
    ("core.filter_s", "s", "lower"),
    ("core.filter_matvecs_per_s", "1/s", "higher"),
    ("core.filter_share", "ratio", "lower"),
    ("core.qr_s", "s", "lower"),
    ("core.rest_s", "s", "lower"),
    ("core.hemm_c_to_b_s", "s", "lower"),
    ("core.hemm_b_to_c_s", "s", "lower"),
    ("core.qr_cholqr2_s", "s", "lower"),
    ("core.qr_scholqr2_s", "s", "lower"),
    ("core.qr_hhqr_s", "s", "lower"),
    ("core.filter_pipelined_over_flat", "ratio", "lower"),
    ("core.filter_mixed_over_full", "ratio", "lower"),
    ("core.ckpt_save_ms", "ms", "lower"),
    ("core.ckpt_load_ms", "ms", "lower"),
    ("core.ckpt_bytes", "B", "lower"),
    ("core.mem_eq2_mb", "MiB", "lower"),
    ("core.warm_over_cold_matvecs", "ratio", "lower"),
    // chase-matgen
    ("matgen.dense_s", "s", "lower"),
    ("matgen.perturb_s", "s", "lower"),
    // chase-serve
    ("serve.tiny_job_ms", "ms", "lower"),
    ("serve.warm_hit_rate", "ratio", "higher"),
    ("serve.matvecs_saved_share", "ratio", "higher"),
    ("serve.materialize_s", "s", "lower"),
    ("serve.workers2_over_workers1", "ratio", "lower"),
    // chase-trace / chase-faults / chase-check / chase-tune
    ("trace.on_over_off", "ratio", "lower"),
    ("trace.events_per_solve", "count", "lower"),
    ("trace.stitch_export_ms", "ms", "lower"),
    ("faults.guards_on_over_off", "ratio", "lower"),
    ("check.gate_on_over_off", "ratio", "lower"),
    ("tune.cold_tune_s", "s", "lower"),
    ("tune.db_roundtrip_ms", "ms", "lower"),
    // chase-direct
    ("direct.eigh_s", "s", "lower"),
    // scaling / process
    ("scale.solve_1rank_s", "s", "lower"),
    ("scale.par_eff", "ratio", "higher"),
    ("proc.cpu_s_per_solve", "s", "lower"),
    ("proc.cpu_over_wall", "ratio", "lower"),
    ("bench.span_overhead", "ratio", "lower"),
];

/// Counts that must repeat bit for bit between repetitions of the same
/// workload and seed (the harness aborts when one does not).
pub const EXACT: &[&str] = &[
    "core.matvecs",
    "core.iterations",
    "comm.collectives_per_solve",
    "comm.bytes_per_solve",
    "comm.collectives_per_solve_2x2",
    "comm.bytes_per_solve_2x2",
    "device.events_per_solve",
    "device.flops_per_solve",
    "device.transfer_bytes_per_solve",
    "trace.events_per_solve",
    "serve.matvecs_saved_share",
];

/// Perturbation strength of the warm-vs-cold pair (the chain's).
const EPS: f64 = 3e-4;
/// Degree of the filter calls behind the two `*_over_*` filter ratios: the
/// ratio is per recurrence step, so a short call prices it.
const RATIO_DEGREE: usize = 8;

/// Result of a traced run.
pub struct Layers {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Median un-instrumented solve on the workload's grid in this pass.
    pub solve_plain_s: f64,
    /// Median, quartiles and count of the timings behind the ratio rows a
    /// reader may want to judge (seconds).
    pub details: Vec<(String, Summary)>,
}

#[derive(Default)]
struct Audit {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Audit {
    fn record(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            self.first_failure.get_or_insert(format!("{what}: {e}"));
        }
    }

    /// Fold in a checked timed region of the untraced pass's kind.
    fn outcome(&mut self, out: &Outcome) {
        self.attempted += out.ops;
        self.failed += out.failed;
        if let Some(f) = &out.failure {
            self.first_failure.get_or_insert(f.clone());
        }
    }

    fn solved<T: BenchScalar>(
        &mut self,
        what: &str,
        s: &Solved<T>,
        reference: &[f64],
        radius: f64,
    ) {
        let verdict = check_answer(
            &s.eigenvalues,
            &s.residuals,
            s.converged,
            s.norm_h,
            reference,
            radius,
        );
        self.record(what, verdict);
    }
}

/// The counts of one solve that must repeat bit for bit.
fn exact_counts<T: BenchScalar>(s: &Solved<T>) -> Vec<(&'static str, u64)> {
    let mut v = vec![
        ("core.matvecs", s.matvecs),
        ("core.iterations", s.iterations),
        ("device.events_per_solve", s.ledger_events),
        ("device.flops_per_solve", s.ledger_flops),
        ("device.transfer_bytes_per_solve", s.ledger_transfer_bytes),
    ];
    if let Some(r) = &s.recorded {
        v.extend([
            ("comm.collectives_per_solve", r.collectives.len() as u64),
            ("comm.bytes_per_solve", r.collective_bytes),
            ("trace.events_per_solve", r.events),
        ]);
    }
    v
}

/// First value seen per exact count; a later, different value aborts.
#[derive(Default)]
struct ExactGate(BTreeMap<String, u64>);

impl ExactGate {
    /// `scope` separates solves whose counts may legitimately differ
    /// (another grid folds its reductions in another order).
    fn check<T: BenchScalar>(
        &mut self,
        scope: &str,
        s: &Solved<T>,
    ) -> Result<(), NotDeterministic> {
        for (name, now) in exact_counts(s) {
            match self.0.insert(format!("{name}{scope}"), now) {
                Some(was) if was != now => {
                    return Err(NotDeterministic(format!(
                        "{name}{scope} changed between two solves of the same input: \
                         {was} then {now}"
                    )))
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// The even, ascending degree profile of `act` columns that sums to
/// `matvecs` and ends at `max_degree` where that is possible —
/// `IterStats` keeps only those three numbers of an iteration's filter call.
pub fn degree_profile(act: usize, matvecs: u64, max_degree: usize) -> Vec<usize> {
    if act == 0 {
        return Vec::new();
    }
    // Even total, every column at least 2.
    let total = ((matvecs as usize) & !1).max(2 * act);
    let spread = |cols: usize, total: usize| -> Vec<usize> {
        // `cols` even degrees summing to `total`, as level as possible.
        let base = 2 * (total / (2 * cols));
        let bumped = (total - base * cols) / 2;
        (0..cols)
            .map(|j| if j + bumped >= cols { base + 2 } else { base })
            .collect()
    };
    let top = max_degree & !1;
    if act > 1 && top >= 2 && total > top {
        let rest = total - top;
        let mut d = spread(act - 1, rest.max(2 * (act - 1)));
        if d.last().copied().unwrap_or(0) <= top && rest >= 2 * (act - 1) {
            d.push(top);
            return d;
        }
    }
    spread(act, total)
}

/// Seconds of CPU (user + system, all threads, exited ones included) this
/// process has used, from `/proc/self/stat` at the kernel's 100 Hz tick.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = after.split_whitespace().collect();
    // Fields 14 and 15 of the line; `after` starts at field 3.
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Leg {
    Plain,
    Spans,
    Recorder,
    NoGuards,
    Gate,
    OneRank,
}

/// Per-rank samples of the in-grid measurements.
struct RankOut {
    samples: Vec<(&'static str, Vec<f64>)>,
    dims: (usize, usize, usize),
    block_bytes: u64,
    solver_bytes: usize,
    db: adapter::TunedDb,
}

struct Sampler {
    samples: Vec<(&'static str, Vec<f64>)>,
}

impl Sampler {
    /// `reps` barrier-aligned samples of `inner` back-to-back calls of
    /// `body` (seconds per call), `prep` running untimed before each.
    fn time<T: BenchScalar>(
        &mut self,
        name: &'static str,
        r: &mut Rank<'_, T>,
        reps: usize,
        inner: usize,
        mut prep: impl FnMut(&mut Rank<'_, T>),
        mut body: impl FnMut(&mut Rank<'_, T>),
    ) {
        let v = (0..reps)
            .map(|_| {
                prep(r);
                r.barrier();
                let t = Instant::now();
                for _ in 0..inner {
                    body(r);
                }
                t.elapsed().as_secs_f64() / inner as f64
            })
            .collect();
        self.samples.push((name, v));
    }

    /// `cycles` passes over `variants`, every other pass reversed (ABBA):
    /// per variant and pass one barrier-aligned sample of `inner` calls.
    fn time_abba<T: BenchScalar, V: Copy>(
        &mut self,
        r: &mut Rank<'_, T>,
        cycles: usize,
        inner: usize,
        variants: &[(&'static str, V)],
        mut prep: impl FnMut(&mut Rank<'_, T>),
        mut body: impl FnMut(&mut Rank<'_, T>, V),
    ) {
        for cycle in 0..cycles {
            for k in 0..variants.len() {
                let (name, v) = variants[if cycle % 2 == 0 {
                    k
                } else {
                    variants.len() - 1 - k
                }];
                prep(r);
                r.barrier();
                let t = Instant::now();
                for _ in 0..inner {
                    body(r, v);
                }
                self.push(name, t.elapsed().as_secs_f64() / inner as f64);
            }
        }
    }

    fn push(&mut self, name: &'static str, v: f64) {
        match self.samples.iter_mut().find(|(n, _)| *n == name) {
            Some((_, s)) => s.push(v),
            None => self.samples.push((name, vec![v])),
        }
    }
}

/// Replay every filter (or QR) call of the solve on the pristine random
/// block; the sum of the timed calls.
fn replay<T: BenchScalar>(
    r: &mut Rank<'_, T>,
    iters: &[IterShape],
    bounds: (f64, f64, f64),
    filter: bool,
) -> f64 {
    let ne = r.dims().2;
    let mut total = 0.0;
    for it in iters {
        let degrees = degree_profile(ne - it.locked_before, it.matvecs, it.max_degree);
        r.reset_block();
        r.barrier();
        let t = Instant::now();
        if filter {
            r.filter(it.locked_before, &degrees, bounds, FilterMode::Flat);
        } else {
            r.qr(it.est_cond);
        }
        total += t.elapsed().as_secs_f64();
    }
    total
}

/// The budget's three measured parts, once: the Lanczos bound estimate,
/// then every filter and every QR call of the solve replayed.
fn budget_parts<T: BenchScalar>(
    r: &mut Rank<'_, T>,
    iters: &[IterShape],
    bounds: (f64, f64, f64),
) -> [f64; 3] {
    r.barrier();
    let t = Instant::now();
    r.lanczos();
    let lanczos = t.elapsed().as_secs_f64();
    [
        lanczos,
        replay(r, iters, bounds, true),
        replay(r, iters, bounds, false),
    ]
}

/// Everything else measured from inside a live grid on the workload's
/// shapes.
fn in_grid<T: BenchScalar>(
    r: &mut Rank<'_, T>,
    h: &Matrix<T>,
    bounds: (f64, f64, f64),
    recs: &[CollRec],
) -> RankOut {
    let mut s = Sampler {
        samples: Vec::new(),
    };
    let ne = r.dims().2;
    let nop = |_: &mut Rank<'_, T>| {};

    // chase-core: Table 2 live.
    s.time(
        "core.hemm_c_to_b_s",
        r,
        5,
        1,
        |r| r.reset_block(),
        |r| r.hemm_c_to_b(),
    );
    s.time("core.hemm_b_to_c_s", r, 5, 1, nop, |r| r.hemm_b_to_c());
    s.time(
        "core.qr_cholqr2_s",
        r,
        5,
        1,
        |r| r.reset_block(),
        |r| r.cholqr2(),
    );
    s.time(
        "core.qr_scholqr2_s",
        r,
        5,
        1,
        |r| r.reset_block(),
        |r| r.scholqr2(),
    );
    s.time("core.qr_hhqr_s", r, 5, 1, |r| r.reset_block(), |r| r.hhqr());
    r.prepare_mixed();
    let degrees = vec![RATIO_DEGREE; ne];
    s.time_abba(
        r,
        6,
        1,
        &[
            ("filter.flat", FilterMode::Flat),
            ("filter.pipelined", FilterMode::Pipelined),
            ("filter.mixed", FilterMode::Mixed),
        ],
        |r| r.reset_block(),
        |r, mode| {
            r.filter(0, &degrees, bounds, mode);
        },
    );

    // chase-linalg kernels on the rank's block shapes.
    r.reset_block();
    s.time("linalg.gemm_nn", r, 5, 1, nop, |r| r.gemm_nn());
    r.reset_block();
    s.time("linalg.gemm_cn", r, 5, 1, nop, |r| {
        std::hint::black_box(r.gemm_cn());
    });
    for _ in 0..5 {
        r.barrier();
        let (pack, mult) = r.prepack_then_gemm();
        s.push("linalg.prepack_s", pack);
        s.push("linalg.gemm_prepacked", mult);
    }
    s.time("linalg.gemv", r, 5, 20, nop, |r| r.matvec_local());
    s.time("linalg.gram", r, 5, 1, nop, |r| {
        std::hint::black_box(r.gram());
    });
    let g = r.gram();
    s.time("linalg.potrf_s", r, 5, 1, nop, |r| {
        std::hint::black_box(r.potrf(&g));
    });
    let u = r.potrf(&g);
    s.time("linalg.trsm", r, 5, 1, |r| r.reset_block(), |r| r.trsm(&u));
    s.time("linalg.heevd_s", r, 5, 1, nop, |r| r.heevd(&g));
    s.time("linalg.hhqr_s", r, 3, 1, nop, |r| r.hhqr_local());

    // chase-comm and chase-topo on the grid's own communicators.
    s.time("comm.barrier", r, 5, 100, nop, |r| r.barrier());
    s.time("comm.allreduce_8b", r, 5, 100, nop, |r| r.allreduce_8b());
    s.time("comm.bcast_block", r, 5, 4, nop, |r| r.block_bcast());
    s.time("comm.allgather_block", r, 5, 4, nop, |r| {
        r.block_allgather()
    });
    s.time("comm.iallreduce_block", r, 5, 4, nop, |r| {
        r.block_iallreduce()
    });
    s.time_abba(
        r,
        6,
        4,
        &[
            ("comm.allreduce_block", Hops::Flat),
            ("topo.ring", Hops::Ring),
            ("topo.tree", Hops::Tree),
        ],
        nop,
        |r, hops| r.block_allreduce(hops),
    );
    s.time("comm.replay_s", r, 5, 1, nop, |r| {
        r.replay_collectives(recs)
    });

    // chase-tune: one cold wall-clock tuning pass.
    r.barrier();
    let t = Instant::now();
    let db = r.tune();
    s.push("tune.cold_tune_s", t.elapsed().as_secs_f64());

    RankOut {
        samples: s.samples,
        dims: r.dims(),
        block_bytes: r.block_bytes(),
        solver_bytes: r.solver_bytes(h),
        db,
    }
}

/// Per repetition, the slowest rank's sample.
fn merge(ranks: &[RankOut]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out = BTreeMap::new();
    for (k, (name, first)) in ranks[0].samples.iter().enumerate() {
        let per_rep: Vec<f64> = (0..first.len())
            .map(|rep| {
                ranks
                    .iter()
                    .map(|r| r.samples[k].1[rep])
                    .fold(0.0f64, f64::max)
            })
            .collect();
        out.insert(*name, per_rep);
    }
    out
}

/// Run `f` three times; the last result and the median seconds of a call.
fn timed3<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("three repetitions ran"), median(&times))
}

/// The small chain the serve rows are measured on when the workload itself
/// is not a chain (chase-serve's documented example size).
fn stand_in_chain() -> (Problem, Chain) {
    (
        Problem {
            shape: Shape::Dft,
            n: 96,
            nev: 8,
            nex: 4,
            grid: (1, 1),
        },
        Chain {
            sessions: vec![("dft", Shape::Dft), ("bse", Shape::Bse)],
            steps: 3,
            eps: EPS,
            workers: 2,
        },
    )
}

/// What every drain of one chain must repeat, whatever the worker count.
#[derive(Debug, PartialEq)]
struct DrainFacts {
    exact: Vec<(u64, u64)>,
    hit_rate: f64,
    total: u64,
    saved: u64,
}

/// chase-serve rows; on a chain workload also `core.warm_over_cold_matvecs`.
fn serve_rows(
    w: &Workload,
    seed: u64,
    m: &mut BTreeMap<&'static str, f64>,
    audit: &mut Audit,
    details: &mut Vec<(String, Summary)>,
) -> Result<(), NotDeterministic> {
    let (problem, chain) = match &w.chain {
        Some(c) => (w.problem.clone(), c.clone()),
        None => stand_in_chain(),
    };
    let setup = chain_setup(&problem, &chain, seed);
    m.insert("serve.materialize_s", setup.materialize_s);
    let cache = 256 << 20;
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut first: Option<DrainFacts> = None;
    for workers in [2usize, 1, 1, 2] {
        spans::next_op();
        let (out, drained) = drain_checked(&setup, workers, cache);
        audit.outcome(&out);
        walls[workers - 1].push(drained.wall_s);
        let now = DrainFacts {
            exact: out.exact,
            hit_rate: drained.warm_hit_rate,
            total: drained.matvecs_total,
            saved: drained.matvecs_saved,
        };
        match &first {
            None => first = Some(now),
            Some(f) if *f != now => {
                return Err(NotDeterministic(format!(
                    "serve.matvecs_saved_share: two drains of the same chain gave {f:?}, \
                     then {now:?}"
                )))
            }
            _ => {}
        }
    }
    let DrainFacts {
        hit_rate,
        total,
        saved,
        ..
    } = first.expect("four drains ran");
    m.insert("serve.warm_hit_rate", hit_rate);
    m.insert(
        "serve.matvecs_saved_share",
        saved as f64 / (total + saved) as f64,
    );
    m.insert(
        "serve.workers2_over_workers1",
        median(&walls[1]) / median(&walls[0]),
    );
    details.push(("serve.drain.workers=1".into(), Summary::of(&walls[0])));
    details.push(("serve.drain.workers=2".into(), Summary::of(&walls[1])));
    if w.chain.is_some() {
        // The cold ablation of the same chain: session cache off.
        let (out, cold) = drain_checked(&setup, chain.workers, 0);
        audit.outcome(&out);
        m.insert(
            "core.warm_over_cold_matvecs",
            total as f64 / cold.matvecs_total as f64,
        );
    }

    // Scheduler + spawn cost per job: the same chain on n=16 stand-ins.
    let tiny = Problem {
        n: 16,
        nev: 2,
        nex: 2,
        ..problem
    };
    let tiny_setup = chain_setup(&tiny, &chain, seed);
    let per_job: Vec<f64> = (0..5)
        .map(|_| {
            let (out, drained) = drain_checked(&tiny_setup, chain.workers, cache);
            audit.outcome(&out);
            drained.wall_s / out.ops as f64 * 1e3
        })
        .collect();
    m.insert("serve.tiny_job_ms", median(&per_job));
    Ok(())
}

/// The in-grid rows: timings as measured, rates from the rank's block
/// shape (`g` holds the median of every sampled timing, in seconds).
fn grid_rows(
    m: &mut BTreeMap<&'static str, f64>,
    g: &BTreeMap<&'static str, f64>,
    rank0: &RankOut,
    elem_bytes: usize,
) {
    let (n_r, n_c, ne) = rank0.dims;
    let (n_r, n_c, ne) = (n_r as f64, n_c as f64, ne as f64);
    // Reported as sampled, in a row's own unit.
    for (row, sampled, scale) in [
        ("core.hemm_c_to_b_s", "core.hemm_c_to_b_s", 1.0),
        ("core.hemm_b_to_c_s", "core.hemm_b_to_c_s", 1.0),
        ("core.qr_cholqr2_s", "core.qr_cholqr2_s", 1.0),
        ("core.qr_scholqr2_s", "core.qr_scholqr2_s", 1.0),
        ("core.qr_hhqr_s", "core.qr_hhqr_s", 1.0),
        ("linalg.prepack_s", "linalg.prepack_s", 1.0),
        ("linalg.potrf_s", "linalg.potrf_s", 1.0),
        ("linalg.heevd_s", "linalg.heevd_s", 1.0),
        ("linalg.hhqr_s", "linalg.hhqr_s", 1.0),
        ("comm.replay_s", "comm.replay_s", 1.0),
        ("tune.cold_tune_s", "tune.cold_tune_s", 1.0),
        ("comm.barrier_us", "comm.barrier", 1e6),
        ("comm.allreduce_8b_us", "comm.allreduce_8b", 1e6),
        ("comm.allreduce_block_us", "comm.allreduce_block", 1e6),
        ("comm.bcast_block_us", "comm.bcast_block", 1e6),
        ("comm.allgather_block_us", "comm.allgather_block", 1e6),
        ("comm.iallreduce_block_us", "comm.iallreduce_block", 1e6),
    ] {
        m.insert(row, g[sampled] * scale);
    }
    // Work (flops in the workload's scalar, or computed bytes) per second.
    for (row, sampled, work) in [
        (
            "linalg.gemm_nn_gflops",
            "linalg.gemm_nn",
            2.0 * n_r * n_c * ne,
        ),
        (
            "linalg.gemm_cn_gflops",
            "linalg.gemm_cn",
            2.0 * ne * ne * n_r,
        ),
        (
            "linalg.gemm_prepacked_gflops",
            "linalg.gemm_prepacked",
            2.0 * n_r * n_c * ne,
        ),
        ("linalg.gram_gflops", "linalg.gram", n_r * ne * (ne + 1.0)),
        ("linalg.trsm_gflops", "linalg.trsm", n_r * ne * ne),
        (
            "linalg.gemv_gbps",
            "linalg.gemv",
            n_r * n_c * elem_bytes as f64,
        ),
        (
            "comm.allreduce_block_gbps",
            "comm.allreduce_block",
            rank0.block_bytes as f64,
        ),
    ] {
        m.insert(row, work / g[sampled] / 1e9);
    }
    for (row, num, den) in [
        ("topo.ring_over_flat", "topo.ring", "comm.allreduce_block"),
        ("topo.tree_over_flat", "topo.tree", "comm.allreduce_block"),
        (
            "core.filter_pipelined_over_flat",
            "filter.pipelined",
            "filter.flat",
        ),
        ("core.filter_mixed_over_full", "filter.mixed", "filter.flat"),
    ] {
        m.insert(row, g[num] / g[den]);
    }
    m.insert(
        "core.mem_eq2_mb",
        rank0.solver_bytes as f64 / (1 << 20) as f64,
    );
}

/// chase-core checkpoints (off by default; priced here): three save/load
/// round trips of a solver-shaped snapshot under `.bench_out/`.
fn ckpt_rows<T: BenchScalar>(
    n: usize,
    params: &adapter::Params,
    bounds: (f64, f64, f64),
    m: &mut BTreeMap<&'static str, f64>,
    audit: &mut Audit,
) -> Result<(), NotDeterministic> {
    let dir = std::path::PathBuf::from(format!(".bench_out/ckpt-{}", std::process::id()));
    let (mut save_ms, mut load_ms, mut file_bytes) = (Vec::new(), Vec::new(), 0u64);
    for _ in 0..3 {
        match adapter::checkpoint_roundtrip::<T>(n, params, bounds, &dir) {
            Ok((save, load, bytes)) => {
                save_ms.push(save * 1e3);
                load_ms.push(load * 1e3);
                file_bytes = bytes;
                audit.record("checkpoint round trip", Ok(()));
            }
            Err(e) => audit.record("checkpoint round trip", Err(e)),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if save_ms.is_empty() {
        return Err(NotDeterministic(format!(
            "core.ckpt_save_ms: no checkpoint could be written under {}",
            dir.display()
        )));
    }
    m.insert("core.ckpt_save_ms", median(&save_ms));
    m.insert("core.ckpt_load_ms", median(&load_ms));
    m.insert("core.ckpt_bytes", file_bytes as f64);
    Ok(())
}

fn run_typed<T: BenchScalar>(
    w: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<Layers, NotDeterministic> {
    let p = &w.problem;
    let iseed = sub_seed(seed, 0);
    let params = params_for(p, iseed);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut audit = Audit::default();
    let mut details: Vec<(String, Summary)> = Vec::new();
    spans::set_enabled(true);
    spans::next_op();

    // chase-matgen, chase-direct: the set-up's own layers.
    let ((h, spectrum), dense_s) = timed3(|| adapter::generate::<T>(p.shape, p.n, iseed));
    m.insert("matgen.dense_s", dense_s);
    let radius = spectrum.iter().fold(0.0f64, |a, v| a.max(v.abs()));
    let reference = &spectrum[..p.nev];
    let (h1, perturb_s) = timed3(|| adapter::perturb(&h, EPS, sub_seed(iseed, 1)));
    m.insert("matgen.perturb_s", perturb_s);
    let t = Instant::now();
    let oracle1 = adapter::direct_lowest(&h1, p.nev);
    m.insert("direct.eigh_s", t.elapsed().as_secs_f64());

    // One untimed warm-up, then the solve under each seam, ABBA-interleaved
    // with the un-instrumented solve and the one-rank baseline.
    let run_leg = |leg: Leg| -> Result<(f64, f64, Solved<T>), String> {
        spans::next_op();
        spans::set_enabled(leg == Leg::Spans);
        let mut prm = params.clone();
        prm.guards = leg != Leg::NoGuards;
        let seams = Seams {
            recorder: leg == Leg::Recorder,
            gate: leg == Leg::Gate,
        };
        let grid = if leg == Leg::OneRank { (1, 1) } else { p.grid };
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let solved = {
            let _s = spans::span("bench.op");
            adapter::solve(&h, &prm, grid, seams, None)
        };
        let wall = t.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu0;
        spans::set_enabled(true);
        solved.map(|s| (wall, cpu, s))
    };
    let fail = |e: String| NotDeterministic(format!("a solve of the traced pass failed: {e}"));
    run_leg(Leg::Plain).map_err(fail)?;
    let mut legs = vec![
        Leg::Plain,
        Leg::Spans,
        Leg::Recorder,
        Leg::NoGuards,
        Leg::Gate,
    ];
    if p.threads() > 1 {
        legs.push(Leg::OneRank);
    }
    let mut wall: BTreeMap<Leg, Vec<f64>> = BTreeMap::new();
    let (mut cpu_sum, mut cpu_wall) = (0.0, 0.0);
    let mut plain: Option<Solved<T>> = None;
    let mut recorded: Option<Solved<T>> = None;
    let mut gate = ExactGate::default();
    let t0 = Instant::now();
    let mut cycle = 0;
    while cycle < 2 || (t0.elapsed().as_secs_f64() < seconds / 2.0 && cycle < 40) {
        let order: Vec<Leg> = if cycle % 2 == 0 {
            legs.clone()
        } else {
            legs.iter().rev().copied().collect()
        };
        for leg in order {
            let (t, cpu, s) = run_leg(leg).map_err(fail)?;
            audit.solved(&format!("{leg:?} solve"), &s, reference, radius);
            wall.entry(leg).or_default().push(t);
            gate.check(if leg == Leg::OneRank { " (1x1)" } else { "" }, &s)?;
            match leg {
                Leg::Plain => {
                    cpu_sum += cpu;
                    cpu_wall += t;
                    plain = Some(s);
                }
                Leg::Recorder => recorded = Some(s),
                _ => {}
            }
        }
        cycle += 1;
    }
    for (leg, v) in &wall {
        details.push((format!("solve.{leg:?}"), Summary::of(v)));
    }
    let med = |leg: Leg| median(&wall[&leg]);
    let plain = plain.expect("at least two cycles ran");
    let recorded = recorded.expect("at least two cycles ran");
    let rec = recorded.recorded.as_ref().expect("recorder leg records");
    let solve_plain_s = med(Leg::Plain);
    m.insert("bench.span_overhead", med(Leg::Spans) / solve_plain_s);
    m.insert("trace.on_over_off", med(Leg::Recorder) / solve_plain_s);
    m.insert(
        "faults.guards_on_over_off",
        solve_plain_s / med(Leg::NoGuards),
    );
    m.insert("check.gate_on_over_off", med(Leg::Gate) / solve_plain_s);
    let one_rank_s = if p.threads() > 1 {
        med(Leg::OneRank)
    } else {
        solve_plain_s
    };
    m.insert("scale.solve_1rank_s", one_rank_s);
    m.insert(
        "scale.par_eff",
        one_rank_s / (p.threads() as f64 * solve_plain_s),
    );
    let solves = wall[&Leg::Plain].len() as f64;
    m.insert("proc.cpu_s_per_solve", cpu_sum / solves);
    m.insert("proc.cpu_over_wall", cpu_sum / cpu_wall);
    m.insert("core.matvecs", plain.matvecs as f64);
    m.insert("core.iterations", plain.iterations as f64);
    m.insert("device.events_per_solve", plain.ledger_events as f64);
    m.insert("device.flops_per_solve", plain.ledger_flops as f64);
    m.insert(
        "device.transfer_bytes_per_solve",
        plain.ledger_transfer_bytes as f64,
    );
    m.insert("comm.collectives_per_solve", rec.collectives.len() as f64);
    m.insert("comm.bytes_per_solve", rec.collective_bytes as f64);
    m.insert("trace.events_per_solve", rec.events as f64);
    let export_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let r = rec.stitch_and_export();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            audit.record("trace stitch+export", r.map(|_| ()));
            ms
        })
        .collect();
    m.insert("trace.stitch_export_ms", median(&export_ms));

    // The paper's 2D scheme, counts only (4 threads on 2 cores).
    spans::next_op();
    let s22 = adapter::solve(
        &h,
        &params,
        (2, 2),
        Seams {
            recorder: true,
            gate: false,
        },
        None,
    )
    .map_err(fail)?;
    audit.solved("2x2 solve", &s22, reference, radius);
    let rec22 = s22.recorded.as_ref().expect("recorder was on");
    m.insert(
        "comm.collectives_per_solve_2x2",
        rec22.collectives.len() as f64,
    );
    m.insert("comm.bytes_per_solve_2x2", rec22.collective_bytes as f64);

    // Warm vs cold on one perturbed step (a chain workload reads it off its
    // own drains instead, in `serve_rows`).
    if w.chain.is_none() {
        spans::next_op();
        let cold = adapter::solve(&h1, &params, p.grid, Seams::default(), None).map_err(fail)?;
        audit.solved("cold perturbed solve", &cold, &oracle1, 1.01 * radius);
        let warm = adapter::solve(&h1, &params, p.grid, Seams::default(), Some(&plain.warm))
            .map_err(fail)?;
        audit.solved("warm perturbed solve", &warm, &oracle1, 1.01 * radius);
        m.insert(
            "core.warm_over_cold_matvecs",
            warm.matvecs as f64 / cold.matvecs as f64,
        );
    }

    // The budget: a traced solve and, right after it, its parts measured
    // apart (so both see the same machine state), three times over.
    let (iters, bounds, recs) = (&plain.iters, plain.bounds, &rec.collectives);
    let mut budget: [Vec<f64>; 4] = Default::default();
    for _ in 0..3 {
        let (t, _, s) = run_leg(Leg::Spans).map_err(fail)?;
        audit.solved("traced solve", &s, reference, radius);
        budget[0].push(t);
        spans::next_op();
        let parts = adapter::with_grid(&h, &params, p.grid, |r| budget_parts(r, iters, bounds));
        for k in 0..3 {
            // The slowest rank's time, as for every in-grid sample.
            budget[k + 1].push(parts.iter().map(|r| r[k]).fold(0.0f64, f64::max));
        }
    }
    details.push(("solve.traced".into(), Summary::of(&budget[0])));
    let [solve_traced_s, lanczos_s, filter_s, qr_s] = budget.map(|v| median(&v));
    m.insert("core.lanczos_s", lanczos_s);
    m.insert("core.filter_s", filter_s);
    m.insert("core.qr_s", qr_s);
    m.insert("core.rest_s", solve_traced_s - lanczos_s - filter_s - qr_s);
    m.insert("core.filter_share", filter_s / solve_traced_s);
    m.insert("core.filter_matvecs_per_s", plain.matvecs as f64 / filter_s);

    // Inside a live grid: kernels, collectives, tuning.
    spans::next_op();
    let ranks = {
        let _s = spans::span("bench.in_grid");
        adapter::with_grid(&h, &params, p.grid, |r| in_grid(r, &h, bounds, recs))
    };
    let merged = merge(&ranks);
    for name in ["filter.flat", "filter.pipelined", "filter.mixed"] {
        details.push((name.to_string(), Summary::of(&merged[name])));
    }
    let g: BTreeMap<&'static str, f64> = merged.iter().map(|(k, v)| (*k, median(v))).collect();
    grid_rows(&mut m, &g, &ranks[0], std::mem::size_of::<T>());
    m.insert("comm.replay_share", g["comm.replay_s"] / solve_plain_s);
    let t = Instant::now();
    let db = ranks[0].db.roundtrip();
    m.insert("tune.db_roundtrip_ms", t.elapsed().as_secs_f64() * 1e3);
    audit.record("plan db round trip", db.map(|_| ()));

    // chase-comm: what every solve pays before any numerics.
    let spawn: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            adapter::spawn_grid(p.grid);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.insert("comm.grid_spawn_us", median(&spawn));

    ckpt_rows::<T>(p.n, &params, plain.bounds, &mut m, &mut audit)?;
    serve_rows(w, iseed, &mut m, &mut audit, &mut details)?;

    Ok(Layers {
        values: m,
        attempted: audit.attempted,
        failed: audit.failed,
        first_failure: audit.first_failure,
        solve_plain_s,
        details,
    })
}

/// Run the traced pass of one workload.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Result<Layers, NotDeterministic> {
    run_typed::<C64>(w, seed, seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(d: &[usize]) -> bool {
        d.iter().all(|&x| x >= 2 && x % 2 == 0) && d.windows(2).all(|w| w[0] <= w[1])
    }

    #[test]
    fn degree_profile_keeps_count_sum_and_top() {
        // First iteration: every column at the initial degree.
        assert_eq!(degree_profile(4, 80, 20), vec![20; 4]);
        // A later iteration: 10 columns, 196 MatVecs, top degree 36.
        let d = degree_profile(10, 196, 36);
        assert_eq!(d.len(), 10);
        assert_eq!(d.iter().sum::<usize>(), 196);
        assert_eq!(*d.last().unwrap(), 36);
        assert!(well_formed(&d));
        // Recorded top below the level spread: fall back to a level profile.
        let d = degree_profile(3, 60, 4);
        assert_eq!(d.iter().sum::<usize>(), 60);
        assert!(well_formed(&d));
        // One column, and none.
        assert_eq!(degree_profile(1, 14, 14), vec![14]);
        assert!(degree_profile(0, 0, 0).is_empty());
    }

    #[test]
    fn degree_profile_is_always_a_valid_filter_input() {
        for act in 1..12 {
            for mv in (2 * act as u64..40 * act as u64).step_by(6) {
                for top in [0usize, 2, 8, 20, 36] {
                    let d = degree_profile(act, mv, top);
                    assert_eq!(d.len(), act);
                    assert!(well_formed(&d), "{act} {mv} {top}: {d:?}");
                    assert_eq!(d.iter().sum::<usize>() as u64, mv & !1);
                }
            }
        }
    }

    #[test]
    fn metric_names_are_unique_and_exact_ones_exist() {
        let mut names: Vec<&str> = METRICS.iter().map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        for e in EXACT {
            assert!(names.binary_search(e).is_ok(), "{e} is not a metric");
        }
        assert!(METRICS.len() <= 128);
    }
}
