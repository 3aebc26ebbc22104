//! The untraced pass: the end-to-end metrics of one workload, measured
//! from un-instrumented calls to the public solve / serve entry points.
//!
//! One run sets the workload up `instances` times (each an independent
//! problem instance derived from the seed, each ending in one untimed
//! warm-up operation), then runs timed operations for the requested time,
//! most of them on instances built fresh (each one more set-up sample).
//! Every operation's answer is checked against the oracle, and an
//! operation repeated on a set-up instance must repeat its exact counts.

use crate::adapter::{self, BenchScalar, ChainJob, Matrix, Params, Seams, C64};
use crate::stats::Summary;
use crate::workloads::{Chain, Problem, Workload};
use std::sync::Arc;
use std::time::Instant;

/// Convergence tolerance of every solve (the paper's, and `Params`'s
/// default), relative to `||H||`.
pub const TOL: f64 = 1e-10;
/// Largest accepted eigenvalue error, relative to `||H||`.
pub const EIG_TOL: f64 = 1e-8;
/// A timed pass runs at least this many operations, however slow they are.
pub const MIN_OPS: u64 = 8;
/// Session-cache budget of the chain's scheduler (chase-serve's default).
const CACHE_BYTES: usize = 256 << 20;

/// SplitMix64: the sub-seed of instance `k` (and of chain session `k`).
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add((k + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Solver parameters of every operation: the shipped defaults, with the
/// start-vector seed taken from the workload seed.
pub fn params_for(p: &Problem, seed: u64) -> Params {
    let mut params = Params::new(p.nev, p.nex);
    params.seed = seed;
    debug_assert_eq!(params.tol, TOL);
    params
}

/// Why an answer is wrong, or `Ok`. `reference` holds at least the `nev`
/// lowest true eigenvalues, `spectral_radius` the true `||H||`.
pub fn check_answer(
    eigenvalues: &[f64],
    residuals: &[f64],
    converged: bool,
    norm_h: f64,
    reference: &[f64],
    spectral_radius: f64,
) -> Result<(), String> {
    if !converged {
        return Err("not converged".into());
    }
    if eigenvalues.len() > reference.len() || eigenvalues.len() != residuals.len() {
        return Err(format!(
            "{} eigenvalues, {} residuals, {} reference values",
            eigenvalues.len(),
            residuals.len(),
            reference.len()
        ));
    }
    // The solver's own norm estimate scales its stopping test; it may
    // overshoot the true norm a little, never by a factor.
    if !(norm_h.is_finite() && norm_h <= 2.0 * spectral_radius) {
        return Err(format!(
            "solver norm {norm_h} vs spectral radius {spectral_radius}"
        ));
    }
    for (k, (&v, &r)) in eigenvalues.iter().zip(residuals).enumerate() {
        // NaN fails both tests.
        if r.is_nan() || r > TOL * norm_h {
            return Err(format!("residual {k} = {r:e} > {:e}", TOL * norm_h));
        }
        let err = (v - reference[k]).abs();
        if err.is_nan() || err > EIG_TOL * norm_h {
            return Err(format!("eigenvalue {k} = {v} != {}", reference[k]));
        }
    }
    Ok(())
}

/// Counts that must repeat bit for bit between operations on the same
/// instance: `(matvecs, iterations)` per solve.
pub type Exact = Vec<(u64, u64)>;

/// One timed region.
pub struct Outcome {
    pub ops: u64,
    pub failed: u64,
    /// Wall time of the region divided by its operations.
    pub seconds_per_op: f64,
    pub exact: Exact,
    /// First failure's text, for the report.
    pub failure: Option<String>,
}

/// A set-up problem instance: runs one operation on demand.
pub trait Instance {
    fn op(&self) -> Outcome;
}

struct SolveInstance<T: BenchScalar> {
    h: Matrix<T>,
    reference: Vec<f64>,
    radius: f64,
    params: Params,
    grid: (usize, usize),
}

impl<T: BenchScalar> Instance for SolveInstance<T> {
    fn op(&self) -> Outcome {
        let t = Instant::now();
        let solved = adapter::solve(&self.h, &self.params, self.grid, Seams::default(), None);
        let seconds_per_op = t.elapsed().as_secs_f64();
        let (exact, verdict) = match solved {
            Ok(s) => (
                vec![(s.matvecs, s.iterations)],
                check_answer(
                    &s.eigenvalues,
                    &s.residuals,
                    s.converged,
                    s.norm_h,
                    &self.reference,
                    self.radius,
                ),
            ),
            Err(e) => (Vec::new(), Err(e)),
        };
        Outcome {
            ops: 1,
            failed: u64::from(verdict.is_err()),
            seconds_per_op,
            exact,
            failure: verdict.err(),
        }
    }
}

fn radius_of(spectrum: &[f64]) -> f64 {
    spectrum.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

fn solve_instance<T: BenchScalar + 'static>(p: &Problem, seed: u64) -> Box<dyn Instance> {
    let (h, spectrum) = adapter::generate::<T>(p.shape, p.n, seed);
    Box::new(SolveInstance {
        radius: radius_of(&spectrum),
        reference: spectrum[..p.nev].to_vec(),
        h,
        params: params_for(p, seed),
        grid: p.grid,
    })
}

/// The chain's jobs with their matrices in memory, plus each job's oracle
/// (prescribed spectrum at step 0, dense direct solve for perturbed steps)
/// and the seconds spent materialising the matrices.
pub struct ChainSetup {
    pub jobs: Vec<ChainJob>,
    pub references: Vec<Vec<f64>>,
    pub radius: f64,
    pub materialize_s: f64,
}

pub fn chain_setup(p: &Problem, chain: &Chain, seed: u64) -> ChainSetup {
    let mut jobs = Vec::new();
    let mut references = Vec::new();
    let mut radius = 0.0f64;
    let mut materialize_s = 0.0;
    for (sid, &(name, shape)) in chain.sessions.iter().enumerate() {
        let sseed = sub_seed(seed, 100 + sid as u64);
        let problem = Problem { shape, ..p.clone() };
        let t = Instant::now();
        let (base, spectrum) = adapter::generate::<C64>(shape, p.n, sseed);
        let mut mats = vec![base];
        for step in 1..chain.steps {
            let next = adapter::perturb(&mats[step - 1], chain.eps, sub_seed(sseed, step as u64));
            mats.push(next);
        }
        materialize_s += t.elapsed().as_secs_f64();
        radius = radius.max(radius_of(&spectrum));
        for (step, m) in mats.into_iter().enumerate() {
            references.push(if step == 0 {
                spectrum[..p.nev].to_vec()
            } else {
                adapter::direct_lowest(&m, p.nev)
            });
            jobs.push(ChainJob {
                session: name.to_string(),
                step,
                matrix: Arc::new(m),
                params: params_for(&problem, sseed),
            });
        }
    }
    ChainSetup {
        jobs,
        references,
        radius,
        materialize_s,
    }
}

struct ChainInstance {
    setup: ChainSetup,
    workers: usize,
}

/// Drain the chain once on a fresh scheduler and check every job.
pub fn drain_checked(
    setup: &ChainSetup,
    workers: usize,
    cache_bytes: usize,
) -> (Outcome, adapter::Drained) {
    let drained = adapter::drain_chain(&setup.jobs, workers, cache_bytes);
    let mut failed = 0;
    let mut failure = None;
    let mut exact = Vec::new();
    for (k, job) in drained.jobs.iter().enumerate() {
        let verdict = match job {
            Ok(j) => {
                exact.push((j.matvecs, j.iterations));
                check_answer(
                    &j.eigenvalues,
                    &j.residuals,
                    j.converged,
                    j.norm_h,
                    &setup.references[k],
                    // A perturbed step's spectrum moves by O(eps).
                    1.01 * setup.radius,
                )
            }
            Err(e) => {
                exact.push((0, 0));
                Err(e.clone())
            }
        };
        if let Err(e) = verdict {
            failed += 1;
            failure.get_or_insert(format!("job {k}: {e}"));
        }
    }
    let ops = drained.jobs.len() as u64;
    let outcome = Outcome {
        ops,
        failed,
        seconds_per_op: drained.wall_s / ops as f64,
        exact,
        failure,
    };
    (outcome, drained)
}

impl Instance for ChainInstance {
    fn op(&self) -> Outcome {
        drain_checked(&self.setup, self.workers, CACHE_BYTES).0
    }
}

/// Set up instance `k` of the workload (everything before its warm-up).
pub fn build_instance(w: &Workload, seed: u64, k: usize) -> Box<dyn Instance> {
    let iseed = sub_seed(seed, k as u64);
    match &w.chain {
        Some(chain) => Box::new(ChainInstance {
            setup: chain_setup(&w.problem, chain, iseed),
            workers: chain.workers,
        }),
        None => solve_instance::<C64>(&w.problem, iseed),
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Result of an untraced run.
pub struct E2e {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Wall time per operation over the timed regions; its lower quartile
    /// is `solve_s`.
    pub solve: Summary,
    pub setup: Summary,
    pub peak_rss_mb: f64,
    /// Exact counts of instance 0 (recorded per seed).
    pub exact: Exact,
}

/// A count that must repeat exactly did not.
pub struct NotDeterministic(pub String);

/// Run the untraced pass. `started` is the process start, so the first
/// set-up sample covers process start to the first timed operation.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    started: Instant,
) -> Result<E2e, NotDeterministic> {
    let mut instances = Vec::new();
    let mut warm = Vec::new();
    let mut setup_samples = Vec::new();
    let mut first_failure = None;
    for k in 0..w.instances {
        let t = if k == 0 { started } else { Instant::now() };
        let inst = build_instance(w, seed, k);
        let out = inst.op();
        setup_samples.push(t.elapsed().as_secs_f64());
        if let Some(f) = out.failure {
            first_failure.get_or_insert(format!("warm-up of instance {k}: {f}"));
        }
        warm.push(out.exact);
        instances.push(inst);
    }

    // Timed operation `i` runs on instance `i`: first the set-up instances
    // again (their counts must repeat the warm-up's), then, where building
    // one is cheap, a fresh instance per operation (built outside the timed
    // region), so that the run averages over inputs instead of measuring
    // how lucky one draw of start vectors was. Building a fresh instance
    // and running its first operation is one more set-up sample.
    let mut samples = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let t0 = Instant::now();
    for i in 0.. {
        let k = i % instances.len();
        let reused = i < instances.len() || !w.fresh_instances;
        let built = Instant::now();
        let fresh;
        let inst = if reused {
            &instances[k]
        } else {
            fresh = build_instance(w, seed, i);
            &fresh
        };
        let out = inst.op();
        if !reused {
            setup_samples.push(built.elapsed().as_secs_f64());
        }
        attempted += out.ops;
        failed += out.failed;
        if let Some(f) = out.failure {
            first_failure.get_or_insert(f);
        }
        // Only a clean operation must repeat the warm-up's counts; a failed
        // one is already counted.
        if reused && out.failed == 0 && out.exact != warm[k] {
            return Err(NotDeterministic(format!(
                "core.matvecs/core.iterations of instance {k} changed between repetitions: \
                 {:?} then {:?}",
                warm[k], out.exact
            )));
        }
        samples.push(out.seconds_per_op);
        if t0.elapsed().as_secs_f64() >= seconds && attempted >= MIN_OPS {
            break;
        }
    }
    Ok(E2e {
        attempted,
        failed,
        first_failure,
        solve: Summary::of(&samples),
        setup: Summary::of(&setup_samples),
        peak_rss_mb: peak_rss_mb(),
        exact: warm.swap_remove(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Shape;

    #[test]
    fn sub_seeds_differ_and_repeat() {
        assert_eq!(sub_seed(42, 0), sub_seed(42, 0));
        assert_ne!(sub_seed(42, 0), sub_seed(42, 1));
        assert_ne!(sub_seed(42, 0), sub_seed(43, 0));
    }

    #[test]
    fn same_seed_same_matrix_other_seed_other_matrix() {
        let (a, sa) = adapter::generate::<C64>(Shape::Dft, 32, sub_seed(42, 0));
        let (b, sb) = adapter::generate::<C64>(Shape::Dft, 32, sub_seed(42, 0));
        let (c, _) = adapter::generate::<C64>(Shape::Dft, 32, sub_seed(20230915, 0));
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_ne!(a, c);
        let (r1, _) = adapter::generate::<f64>(Shape::Uniform, 32, 7);
        let (r2, _) = adapter::generate::<f64>(Shape::Uniform, 32, 7);
        assert_eq!(r1, r2);
    }

    #[test]
    fn a_flipped_oracle_eigenvalue_counts_as_a_failure() {
        let p = Problem {
            shape: Shape::Uniform,
            n: 48,
            nev: 4,
            nex: 4,
            grid: (1, 1),
        };
        let (h, spectrum) = adapter::generate::<C64>(p.shape, p.n, 5);
        let mut inst = SolveInstance {
            radius: radius_of(&spectrum),
            reference: spectrum[..p.nev].to_vec(),
            h,
            params: params_for(&p, 5),
            grid: p.grid,
        };
        let good = inst.op();
        assert_eq!((good.ops, good.failed), (1, 0), "{:?}", good.failure);
        inst.reference[2] = -inst.reference[2];
        let bad = inst.op();
        assert_eq!((bad.ops, bad.failed), (1, 1));
        assert!(bad.failure.unwrap().contains("eigenvalue 2"));
        // Same instance, same counts: the answer is a function of the input.
        assert_eq!(good.exact, bad.exact);
    }

    #[test]
    fn check_answer_rejects_each_kind_of_wrong() {
        let reference = [-1.0, -0.5, 0.0];
        let ok = check_answer(&[-1.0, -0.5], &[1e-12, 1e-12], true, 1.0, &reference, 1.0);
        assert_eq!(ok, Ok(()));
        let c = |e: &[f64], r: &[f64], conv, norm| check_answer(e, r, conv, norm, &reference, 1.0);
        assert!(c(&[-1.0, -0.5], &[1e-12, 1e-12], false, 1.0).is_err());
        assert!(c(&[-1.0, -0.5], &[1e-12, 1e-9], true, 1.0).is_err());
        assert!(c(&[-1.0, -0.4], &[1e-12, 1e-12], true, 1.0).is_err());
        assert!(c(&[-1.0, f64::NAN], &[1e-12, 1e-12], true, 1.0).is_err());
        assert!(c(&[-1.0, -0.5], &[1e-12, f64::NAN], true, 1.0).is_err());
        // An inflated norm would loosen both tests.
        assert!(c(&[-1.0, -0.4], &[1e-12, 1e-12], true, 1e9).is_err());
    }
}
