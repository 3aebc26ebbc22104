//! The invariant checkers: run one [`CheckCase`] under many schedules and
//! assert every run is bitwise identical, plus the differential oracle
//! against the dense direct solver and across configurations.

use crate::config::{CheckCase, ScalarKind};
use crate::policy::{MemberOrder, RecordingSchedule, SeededSchedule, SystematicSchedule};
use crate::replay::Witness;
use crate::shrink::{shrink, ShrinkBudget};
use chase_comm::{kind_to_json, Ledger, SchedulePolicy};
use chase_core::{ChaseError, ChaseResult};
use chase_linalg::{Matrix, RealScalar, Scalar, C64};
use chase_matgen::{dense_with_spectrum, Spectrum};
use chase_trace::{chrome_trace, fnv1a};
use chase_tune::{solve_grid, GridRun, PlanChoice, TuneOptions};
use std::sync::Arc;

/// Everything observable about one rank of one run, reduced to exactly
/// the fields the schedule-independence invariant promises are stable:
/// bit patterns and deterministic counters, never wall-clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFp {
    /// `Some(error display)` when the solve failed on this rank.
    pub err: Option<String>,
    /// Eigenvalue bit patterns (ascending order, `f64` bits).
    pub eigs: Vec<u64>,
    /// Residual-norm bit patterns.
    pub residuals: Vec<u64>,
    /// FNV hash over the local eigenvector block's element bits.
    pub vec_hash: u64,
    pub iterations: usize,
    pub matvecs: u64,
    pub converged: bool,
    /// Sorted multiset projection of the rank's ledger: `(kind, region,
    /// window)` per event, excluding the wall-clock span fields
    /// (`t0_us`/`t1_us` legitimately differ across schedules).
    pub ledger: Vec<String>,
}

/// The run-level identity a schedule must not perturb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Per-rank fingerprints in world-rank order.
    pub ranks: Vec<RankFp>,
    /// FNV hash of the stitched chrome-trace export (deterministic bytes:
    /// the trace model carries no wall-clock data).
    pub trace_hash: u64,
}

impl Fingerprint {
    /// First field where `self` and `other` diverge, as a diagnostic
    /// sentence; `None` when identical.
    pub fn first_divergence(&self, other: &Fingerprint) -> Option<String> {
        if self.ranks.len() != other.ranks.len() {
            return Some(format!(
                "rank count {} vs {}",
                self.ranks.len(),
                other.ranks.len()
            ));
        }
        for (r, (a, b)) in self.ranks.iter().zip(&other.ranks).enumerate() {
            if a.err != b.err {
                return Some(format!("rank {r}: outcome {:?} vs {:?}", a.err, b.err));
            }
            if a.eigs != b.eigs {
                let i = a.eigs.iter().zip(&b.eigs).position(|(x, y)| x != y);
                return Some(format!(
                    "rank {r}: eigenvalue bits differ (first at index {:?}: {:?} vs {:?})",
                    i,
                    i.map(|i| f64::from_bits(a.eigs[i])),
                    i.map(|i| f64::from_bits(b.eigs[i])),
                ));
            }
            if a.residuals != b.residuals {
                return Some(format!("rank {r}: residual bits differ"));
            }
            if a.vec_hash != b.vec_hash {
                return Some(format!(
                    "rank {r}: eigenvector hash {:#x} vs {:#x}",
                    a.vec_hash, b.vec_hash
                ));
            }
            if (a.iterations, a.matvecs, a.converged) != (b.iterations, b.matvecs, b.converged) {
                return Some(format!(
                    "rank {r}: counters (it={},mv={},conv={}) vs (it={},mv={},conv={})",
                    a.iterations, a.matvecs, a.converged, b.iterations, b.matvecs, b.converged
                ));
            }
            if a.ledger != b.ledger {
                let i = a
                    .ledger
                    .iter()
                    .zip(&b.ledger)
                    .position(|(x, y)| x != y)
                    .unwrap_or(a.ledger.len().min(b.ledger.len()));
                return Some(format!(
                    "rank {r}: ledger projection differs at entry {i} ({:?} vs {:?})",
                    a.ledger.get(i),
                    b.ledger.get(i)
                ));
            }
        }
        if self.trace_hash != other.trace_hash {
            return Some(format!(
                "trace bytes differ ({:#x} vs {:#x})",
                self.trace_hash, other.trace_hash
            ));
        }
        None
    }

    /// 64-bit digest of everything the fingerprint holds (eigen, residual
    /// and vector bits, counters, ledger projection, chrome-trace hash):
    /// equal digests across two commits mean the case's reference run did
    /// not change by one bit.
    pub fn digest(&self) -> u64 {
        fnv1a(format!("{self:?}").bytes())
    }

    /// 64-bit digest of the answer alone: per rank the outcome, the
    /// eigenvalue, residual and vector bits and the solver counters — no
    /// ledger projection, no trace hash. Equal across two commits whose
    /// `digest`s differ means the change re-sequenced events or collectives
    /// without moving one bit of what the solver returns.
    pub fn answer(&self) -> u64 {
        let answers: Vec<_> = self
            .ranks
            .iter()
            .map(|r| {
                let counters = (r.iterations, r.matvecs, r.converged);
                (&r.err, &r.eigs, &r.residuals, r.vec_hash, counters)
            })
            .collect();
        fnv1a(format!("{answers:?}").bytes())
    }

    /// Rank 0's eigenvalues as `f64`s (the oracle comparison payload).
    pub fn eigenvalues(&self) -> Vec<f64> {
        self.ranks
            .first()
            .map(|r| r.eigs.iter().map(|&b| f64::from_bits(b)).collect())
            .unwrap_or_default()
    }
}

fn real_bits<R: RealScalar>(r: R) -> u64 {
    r.to_f64().to_bits()
}

fn rank_fp<T: Scalar>(result: Result<ChaseResult<T>, ChaseError>, ledger: &Ledger) -> RankFp {
    let mut ledger_proj: Vec<String> = ledger
        .events()
        .iter()
        .map(|e| format!("{}|{:?}|{:?}", kind_to_json(&e.kind), e.region, e.window))
        .collect();
    ledger_proj.sort_unstable();
    match result {
        Ok(r) => RankFp {
            err: None,
            eigs: r.eigenvalues.iter().map(|&x| real_bits(x)).collect(),
            residuals: r.residuals.iter().map(|&x| real_bits(x)).collect(),
            vec_hash: fnv1a(r.eigenvectors_local.as_slice().iter().flat_map(|&v| {
                real_bits(v.re())
                    .to_le_bytes()
                    .into_iter()
                    .chain(real_bits(v.im()).to_le_bytes())
            })),
            iterations: r.iterations,
            matvecs: r.matvecs,
            converged: r.converged,
            ledger: ledger_proj,
        },
        Err(e) => RankFp {
            err: Some(e.to_string()),
            eigs: Vec::new(),
            residuals: Vec::new(),
            vec_hash: 0,
            iterations: 0,
            matvecs: 0,
            converged: false,
            ledger: ledger_proj,
        },
    }
}

fn run_case_t<T>(
    case: &CheckCase,
    policy: Option<Arc<dyn SchedulePolicy>>,
    canary: bool,
) -> Fingerprint
where
    T: Scalar + chase_comm::Reduce,
    T::Real: chase_comm::Reduce,
{
    let spec = Spectrum::uniform(case.n, -1.0, 1.0);
    let h: Matrix<T> = dense_with_spectrum(&spec, case.pseed);
    // A planned case measures its plan inside the run, so the trials are
    // explored, traced and fingerprinted with the solve they precede.
    let plan = case
        .plan
        .then(|| PlanChoice::Tune(TuneOptions::deterministic()));
    let out = solve_grid(
        &h,
        &case.params(),
        &GridRun {
            trace: true,
            plan: plan.as_ref(),
            policy,
            canary,
            ..GridRun::new(case.shape())
        },
    );
    let ranks = out
        .results
        .into_iter()
        .zip(&out.ledgers)
        .map(|(result, ledger)| rank_fp(result.expect("check cases plan no crash"), ledger))
        .collect();
    let trace = out.trace.expect("the run was traced");
    let trace_hash = fnv1a(chrome_trace(&trace).into_bytes());
    Fingerprint { ranks, trace_hash }
}

/// Run `case` once under `policy` (`None` = free-running) with the
/// mutation canary armed or not, and fingerprint the run.
pub fn run_case(
    case: &CheckCase,
    policy: Option<Arc<dyn SchedulePolicy>>,
    canary: bool,
) -> Fingerprint {
    match case.scalar {
        ScalarKind::F64 => run_case_t::<f64>(case, policy, canary),
        ScalarKind::C64 => run_case_t::<C64>(case, policy, canary),
    }
}

/// A schedule under which `case` diverged from its reference run, shrunk
/// to a minimal reproducer.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Fuzzer seed that first exposed the divergence (`None` when the
    /// systematic sweep or the gate-transparency baseline found it).
    pub seed: Option<u64>,
    /// Minimal replayable schedule.
    pub witness: Witness,
    /// First-divergence diagnostic of the *original* (unshrunk) failure.
    pub diff: String,
    /// Re-runs the shrinker spent minimizing.
    pub shrink_runs: usize,
}

/// Outcome of exploring one case.
#[derive(Debug, Clone)]
pub struct CheckReport {
    pub case: CheckCase,
    /// Schedules executed (reference + baseline + systematic + seeded).
    pub schedules: usize,
    /// [`Fingerprint::digest`] of the case's reference run.
    pub digest: u64,
    /// [`Fingerprint::answer`] of the case's reference run.
    pub answer: u64,
    pub violation: Option<Violation>,
}

impl CheckReport {
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }
}

/// Explore `case` under `seeds` (plus the identity baseline and, when
/// `systematic`, the bounded constant-permutation sweep), stopping at the
/// first violation and shrinking it to a minimal witness.
///
/// With `canary` the communicators' order-sensitive fold is armed, so a
/// violation is *expected*: the reference schedule is then the identity
/// gate (free-running canary runs are racy by construction).
pub fn check_case(case: &CheckCase, seeds: &[u64], systematic: bool, canary: bool) -> CheckReport {
    let mut schedules = 1;
    let reference = if canary {
        run_case(case, Some(Arc::new(MemberOrder)), true)
    } else {
        run_case(case, None, false)
    };

    let fail = |seed: Option<u64>, diff: String, recorded, schedules: usize| -> CheckReport {
        let (witness, shrink_runs) =
            shrink(case, canary, &reference, recorded, ShrinkBudget::default());
        CheckReport {
            case: case.clone(),
            schedules,
            digest: reference.digest(),
            answer: reference.answer(),
            violation: Some(Violation {
                seed,
                witness,
                diff,
                shrink_runs,
            }),
        }
    };

    if !canary {
        // Gate transparency: forcing the order the engine already uses
        // must not change one bit. If it does, the harness itself (or the
        // gating seam) is wrong, and no further exploration is trustworthy.
        let rec = Arc::new(RecordingSchedule::new(MemberOrder));
        let gated = run_case(case, Some(rec.clone() as Arc<dyn SchedulePolicy>), false);
        schedules += 1;
        if let Some(diff) = reference.first_divergence(&gated) {
            return fail(
                None,
                format!("identity gating changed the run: {diff}"),
                rec.recorded(),
                schedules,
            );
        }
    }

    if systematic {
        let world = case.shape().ranks();
        for k in 1..SystematicSchedule::space(world).min(24) {
            let rec = Arc::new(RecordingSchedule::new(SystematicSchedule::new(k)));
            let fp = run_case(case, Some(rec.clone() as Arc<dyn SchedulePolicy>), canary);
            schedules += 1;
            if let Some(diff) = reference.first_divergence(&fp) {
                return fail(
                    None,
                    format!("systematic schedule {k}: {diff}"),
                    rec.recorded(),
                    schedules,
                );
            }
        }
    }

    for &seed in seeds {
        let rec = Arc::new(RecordingSchedule::new(SeededSchedule::new(seed)));
        let fp = run_case(case, Some(rec.clone() as Arc<dyn SchedulePolicy>), canary);
        schedules += 1;
        if let Some(diff) = reference.first_divergence(&fp) {
            return fail(
                Some(seed),
                format!("seed {seed}: {diff}"),
                rec.recorded(),
                schedules,
            );
        }
    }

    CheckReport {
        case: case.clone(),
        schedules,
        digest: reference.digest(),
        answer: reference.answer(),
        violation: None,
    }
}

fn direct_eigs<T: Scalar>(case: &CheckCase) -> Vec<f64> {
    let spec = Spectrum::uniform(case.n, -1.0, 1.0);
    let h: Matrix<T> = dense_with_spectrum(&spec, case.pseed);
    let direct = chase_direct::eigh_partial(&h, case.nev, false);
    direct
        .eigenvalues
        .iter()
        .take(case.nev)
        .map(|&x| real_bits(x))
        .map(f64::from_bits)
        .collect()
}

/// Differential oracle, leg 1: the distributed iterative solve of `case`
/// must agree with the dense direct solver on every wanted eigenvalue to
/// within the residual tolerance (for a Hermitian matrix the eigenvalue
/// error is bounded by the residual norm).
pub fn differential_check(case: &CheckCase) -> Result<(), String> {
    let fp = run_case(case, None, false);
    if let Some(r) = fp.ranks.iter().find(|r| r.err.is_some()) {
        return Err(format!("case {case}: solve failed: {:?}", r.err));
    }
    let eigs = fp.eigenvalues();
    let direct = match case.scalar {
        ScalarKind::F64 => direct_eigs::<f64>(case),
        ScalarKind::C64 => direct_eigs::<C64>(case),
    };
    let bound = 100.0 * case.tol;
    for (i, (a, b)) in eigs.iter().zip(&direct).enumerate() {
        if (a - b).abs() > bound {
            return Err(format!(
                "case {case}: eigenvalue {i} diverges from direct solve: {a} vs {b} (|Δ|={:.3e} > {bound:.3e})",
                (a - b).abs()
            ));
        }
    }
    Ok(())
}

/// Differential oracle, leg 2: cross-configuration agreement for one
/// scalar. Same-grid re-configurations (overlap pipeline, tuned plan) are
/// documented bitwise-identical; different grids change the reduction
/// partition, so they agree numerically instead.
pub fn cross_config_check(scalar: ScalarKind) -> Result<(), String> {
    let base_case = CheckCase::new(scalar, (2, 2), false);
    let base = run_case(&base_case, None, false);
    let base_eigs = &base.ranks[0].eigs;

    for variant in [
        CheckCase::new(scalar, (2, 2), true),
        CheckCase::new(scalar, (2, 2), false).with_plan(true),
    ] {
        let fp = run_case(&variant, None, false);
        if &fp.ranks[0].eigs != base_eigs {
            return Err(format!(
                "case {variant}: eigenvalue bits differ from same-grid baseline {base_case}"
            ));
        }
    }

    for grid in [(1, 1), (1, 4)] {
        let variant = CheckCase::new(scalar, grid, false);
        let fp = run_case(&variant, None, false);
        for (i, (a, b)) in fp.eigenvalues().iter().zip(base.eigenvalues()).enumerate() {
            if (a - b).abs() > 100.0 * base_case.tol {
                return Err(format!(
                    "case {variant}: eigenvalue {i} diverges from {base_case}: {a} vs {b}"
                ));
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_reproducible() {
        let case = CheckCase::new(ScalarKind::F64, (1, 2), false);
        let a = run_case(&case, None, false);
        let b = run_case(&case, None, false);
        assert_eq!(a.first_divergence(&b), None);
        assert!(a.ranks.iter().all(|r| r.err.is_none() && r.converged));
    }

    #[test]
    fn identity_gating_is_transparent_on_a_flat_grid() {
        let case = CheckCase::new(ScalarKind::F64, (1, 2), true);
        let free = run_case(&case, None, false);
        let gated = run_case(&case, Some(Arc::new(MemberOrder)), false);
        assert_eq!(free.first_divergence(&gated), None);
    }

    #[test]
    fn divergence_diagnostics_name_the_field() {
        let case = CheckCase::new(ScalarKind::F64, (1, 2), false);
        let a = run_case(&case, None, false);
        let mut b = a.clone();
        b.ranks[1].eigs[0] ^= 1;
        let diff = a.first_divergence(&b).unwrap();
        assert!(diff.contains("rank 1"), "{diff}");
        assert!(diff.contains("eigenvalue"), "{diff}");
        b = a.clone();
        b.trace_hash ^= 1;
        assert!(a.first_divergence(&b).unwrap().contains("trace"));
    }
}
