//! Solver output, per-iteration statistics, and the fault-recovery record.

use crate::qr::QrVariant;
use chase_comm::{GridShape, IndexSet, WaitTimeout};
use chase_faults::InjectionRecord;
use chase_linalg::{ColsRef, Matrix, Scalar, SpectralBounds};
use std::fmt;

/// Diagnostics for one outer ChASE iteration — the raw material for Fig. 1
/// (condition numbers), Table 2 (MatVecs/iterations) and the convergence
/// narrative of Section 4.
#[derive(Debug, Clone)]
pub struct IterStats {
    /// 1-based outer iteration index.
    pub iter: usize,
    /// Algorithm 5 estimate of `kappa_2` of the filtered block.
    pub est_cond: f64,
    /// Exact `kappa_2` (one-sided Jacobi), when tracking is enabled.
    pub true_cond: Option<f64>,
    /// QR implementation the switchboard chose.
    pub qr_variant: QrVariant,
    /// MatVec column-applications spent in this iteration's filter.
    pub matvecs: u64,
    /// Columns newly locked this iteration.
    pub new_locked: usize,
    /// Total locked after this iteration.
    pub locked: usize,
    /// Extremes of the active residuals after this iteration.
    pub min_res: f64,
    pub max_res: f64,
    /// Largest Chebyshev degree used this iteration.
    pub max_degree: usize,
    /// The degree plan held to its prediction; `None` for an iteration
    /// that filtered at the initial degree without a plan (the first).
    pub forecast: Option<DegreeForecast>,
}

/// How the contraction model behind the degree plan (`res / rho(t)^d`, what
/// [`crate::optimal_degree`] inverts) fared on the wanted active columns of
/// one iteration: per column, the residual reached over the one predicted
/// at the degree the column was filtered at.
#[derive(Debug, Clone, Copy)]
pub struct DegreeForecast {
    /// Wanted active columns planned (`nev - locked` before the iteration).
    pub columns: usize,
    /// Median and 90th percentile (nearest rank) of achieved / predicted:
    /// above one, the model was optimistic.
    pub median_ratio: f64,
    pub q90_ratio: f64,
    /// Columns predicted to reach `tol`, and columns that did.
    pub predicted_converged: usize,
    pub converged: usize,
}

/// One detection or recovery action the guarded solver took. Deterministic
/// (no wall clock, no addresses) and fully `Eq` (float payloads are stored
/// as raw bits — NaN-carrying events must still compare equal across two
/// identical runs), so the chaos suite can assert bitwise log replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEventKind {
    /// A planned fault fired (relayed from the per-rank `FaultPlan`).
    Injected(InjectionRecord),
    /// The post-filter finite guard found poisoned columns.
    NonFiniteBlock { cols: usize },
    /// Poisoned columns were restored from the pre-filter copy and
    /// re-filtered with a degree bump.
    Refiltered {
        cols: usize,
        degree: usize,
        attempt: usize,
    },
    /// A CholeskyQR rung broke down (Gram not PD or non-finite).
    QrBreakdown {
        variant: &'static str,
        detail: String,
    },
    /// The ladder escalated from one rung to the next.
    QrEscalated {
        from: &'static str,
        to: &'static str,
    },
    /// Ritz values / residuals regressed to non-finite after Rayleigh–Ritz.
    /// `value_bits` is the offending f64's raw bit pattern (NaN-safe `Eq`).
    ResidualRegression { col: usize, value_bits: u64 },
    /// Locked vectors were rolled back to the last checkpoint and the
    /// active subspace restarted.
    LockedRollback { kept: usize, restarted: usize },
    /// The grid's replicas stopped agreeing (e.g. one column communicator's
    /// QR escalated while the others' did not): the active subspace is
    /// restarted to restore SPMD consistency.
    ReplicaDivergence { stage: &'static str },
    /// Survivors agreed (via the deterministic agreement round) that these
    /// world ranks stopped depositing into collectives. Ranks are numbered
    /// in the world the crash happened in.
    RankDead { dead: Vec<usize> },
    /// The grid was rebuilt over the survivors with a remapped shape.
    GridShrunk { from: GridShape, to: GridShape },
    /// A periodic/on-demand checkpoint snapshot was written.
    CheckpointSaved { iter: usize, locked: usize },
    /// The solve resumed from a checkpoint (on the shrunk grid after a
    /// crash, or cold-started at iteration 0 when none was found).
    CheckpointRestored { iter: usize, locked: usize },
}

impl fmt::Display for RecoveryEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryEventKind::Injected(r) => write!(f, "injected: {r}"),
            RecoveryEventKind::NonFiniteBlock { cols } => {
                write!(f, "non-finite filtered block ({cols} column(s))")
            }
            RecoveryEventKind::Refiltered {
                cols,
                degree,
                attempt,
            } => write!(
                f,
                "re-filtered {cols} column(s) at degree {degree} (attempt {attempt})"
            ),
            RecoveryEventKind::QrBreakdown { variant, detail } => {
                write!(f, "{variant} breakdown: {detail}")
            }
            RecoveryEventKind::QrEscalated { from, to } => {
                write!(f, "QR escalated {from} -> {to}")
            }
            RecoveryEventKind::ResidualRegression { col, value_bits } => {
                write!(
                    f,
                    "residual regression at column {col} (value {})",
                    f64::from_bits(*value_bits)
                )
            }
            RecoveryEventKind::LockedRollback { kept, restarted } => {
                write!(
                    f,
                    "rolled back to {kept} locked, restarted {restarted} active"
                )
            }
            RecoveryEventKind::ReplicaDivergence { stage } => {
                write!(f, "replica divergence detected at {stage}")
            }
            RecoveryEventKind::RankDead { dead } => {
                write!(f, "agreed dead rank(s): {dead:?}")
            }
            RecoveryEventKind::GridShrunk { from, to } => {
                write!(f, "grid shrunk {}x{} -> {}x{}", from.p, from.q, to.p, to.q)
            }
            RecoveryEventKind::CheckpointSaved { iter, locked } => {
                write!(f, "checkpoint saved at iter {iter} ({locked} locked)")
            }
            RecoveryEventKind::CheckpointRestored { iter, locked } => {
                write!(f, "checkpoint restored at iter {iter} ({locked} locked)")
            }
        }
    }
}

/// A [`RecoveryEventKind`] stamped with the outer iteration it happened in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// 1-based outer iteration (0 = outside the loop).
    pub iter: usize,
    pub kind: RecoveryEventKind,
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "iter {}: {}", self.iter, self.kind)
    }
}

/// The ordered record of everything the guard layer saw and did during one
/// solve. Empty on a fault-free run with guards enabled.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryLog {
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryLog {
    pub fn push(&mut self, iter: usize, kind: RecoveryEventKind) {
        self.events.push(RecoveryEvent { iter, kind });
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// True if any event matches the predicate.
    pub fn any(&self, f: impl Fn(&RecoveryEventKind) -> bool) -> bool {
        self.events.iter().any(|e| f(&e.kind))
    }
}

impl fmt::Display for RecoveryLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

/// Why a guarded solve gave up instead of returning a (possibly wrong)
/// result. Carries the recovery log accumulated up to the abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaseError {
    pub kind: ChaseErrorKind,
    /// Iteration the solver aborted in (0 = outside the loop).
    pub iter: usize,
    pub recovery: RecoveryLog,
}

impl ChaseError {
    /// A failure outside the iteration loop, with nothing on the recovery
    /// trail: refused input, a grid nobody survived.
    pub fn outside_loop(kind: ChaseErrorKind) -> Self {
        Self {
            kind,
            iter: 0,
            recovery: RecoveryLog::default(),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaseErrorKind {
    /// The elastic driver's dead-rank agreement round timed out.
    CollectiveTimeout(WaitTimeout),
    /// No rank of the grid survived to report an outcome.
    RankDead { dead: Vec<usize> },
    /// Corruption persisted through every re-filter retry.
    UnrecoverableNonFinite,
    /// The final cross-rank verification of the returned eigenpairs failed.
    VerificationFailed { detail: String },
    /// User-supplied spectral data produced a degenerate filter interval
    /// (`e <= 0` or non-finite bounds) — reachable from stale warm-start
    /// bounds or a corrupt workload file.
    BadSpectrum { detail: String },
    /// The parameter set failed validation (typed counterpart of the
    /// historic `Params::validate` panics, so one bad job cannot abort a
    /// whole serve run).
    InvalidParams { detail: String },
    /// A checkpoint restore was requested but the snapshot was corrupt or
    /// belongs to a different problem.
    BadCheckpoint { detail: String },
}

impl fmt::Display for ChaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ChaseErrorKind::CollectiveTimeout(t) => {
                write!(f, "iter {}: {t}", self.iter)
            }
            ChaseErrorKind::RankDead { dead } => {
                write!(f, "iter {}: peer rank(s) {dead:?} died", self.iter)
            }
            ChaseErrorKind::UnrecoverableNonFinite => write!(
                f,
                "iter {}: non-finite data persisted through all re-filter retries",
                self.iter
            ),
            ChaseErrorKind::VerificationFailed { detail } => {
                write!(
                    f,
                    "iter {}: result verification failed: {detail}",
                    self.iter
                )
            }
            ChaseErrorKind::BadSpectrum { detail } => {
                write!(f, "iter {}: bad spectrum: {detail}", self.iter)
            }
            ChaseErrorKind::InvalidParams { detail } => {
                write!(f, "invalid parameters: {detail}")
            }
            ChaseErrorKind::BadCheckpoint { detail } => {
                write!(f, "checkpoint restore failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ChaseError {}

/// Final solver output (per rank: eigenvector rows are this rank's C-layout
/// block; eigenvalues and scalars are identical on every rank).
#[derive(Debug, Clone)]
pub struct ChaseResult<T: Scalar> {
    /// The `nev` lowest eigenvalues, ascending.
    pub eigenvalues: Vec<T::Real>,
    /// Residual norms of the returned pairs.
    pub residuals: Vec<T::Real>,
    /// Local rows of the final search space (`n_r x ne`): the `nev`
    /// returned eigenvectors first, in the order of `eigenvalues`, then the
    /// `nex` other directions of the last iterate. The whole block is the
    /// hand-off to the next solve of a sequence ([`crate::WarmStart`]).
    pub search_space_local: Matrix<T>,
    /// Global row indices of the local block.
    pub rows: IndexSet,
    /// Global problem size.
    pub n: usize,
    /// Outer iterations executed.
    pub iterations: usize,
    /// Total filter MatVecs (the paper's "MatVecs" column).
    pub matvecs: u64,
    /// Whether all `nev` pairs converged within `max_iter`.
    pub converged: bool,
    /// Per-iteration diagnostics.
    pub stats: Vec<IterStats>,
    /// Spectral-norm scale used for the convergence test.
    pub norm_h: f64,
    /// Refined spectral bounds at exit (`mu_1`/`mu_ne` as the last bound
    /// update left them, `b_sup` as filtered with): the hand-off for
    /// warm-starting the next solve of a correlated sequence, whose own
    /// bound updates start from them.
    pub bounds: SpectralBounds<T::Real>,
    /// Whether this solve started from a [`crate::WarmStart`] with cached
    /// bounds (i.e. skipped the Lanczos estimation phase).
    pub warm_started: bool,
    /// Everything the guard layer detected and repaired along the way
    /// (empty on a clean run).
    pub recovery: RecoveryLog,
}

impl<T: Scalar> ChaseResult<T> {
    /// Local rows of the returned eigenvectors (`n_r x nev`), the leading
    /// columns of [`ChaseResult::search_space_local`].
    pub fn eigenvectors_local(&self) -> ColsRef<'_, T> {
        self.search_space_local.cols_ref(0..self.eigenvalues.len())
    }

    /// Assemble the full eigenvectors (`n x nev`) from the per-rank results
    /// of an SPMD run.
    pub fn assemble_eigenvectors(results: &[ChaseResult<T>]) -> Matrix<T> {
        assert!(!results.is_empty());
        Self::assemble_cols(results, results[0].eigenvalues.len())
    }

    /// Assemble the full final search space (`n x ne`): the eigenvectors of
    /// [`ChaseResult::assemble_eigenvectors`], then the `nex` directions.
    pub(crate) fn assemble_search_space(results: &[ChaseResult<T>]) -> Matrix<T> {
        assert!(!results.is_empty());
        Self::assemble_cols(results, results[0].search_space_local.cols())
    }

    /// The leading `cols` columns of the global block. The C-layout is
    /// replicated across grid columns, so only one result per distinct
    /// row-range is used.
    fn assemble_cols(results: &[ChaseResult<T>], cols: usize) -> Matrix<T> {
        let n = results[0].n;
        let mut full = Matrix::zeros(n, cols);
        let mut covered = vec![false; n];
        for r in results {
            if r.rows.is_empty() || covered[r.rows.first()] {
                continue;
            }
            for (li, g) in r.rows.iter().enumerate() {
                for j in 0..cols {
                    full[(g, j)] = r.search_space_local[(li, j)];
                }
                covered[g] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "row sets did not cover 0..N");
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_linalg::C64;

    fn dummy(rows: std::ops::Range<usize>, n: usize) -> ChaseResult<C64> {
        let block = Matrix::from_fn(rows.len(), 3, |i, j| {
            C64::from_f64((rows.start + i) as f64 * 10.0 + j as f64)
        });
        ChaseResult {
            eigenvalues: vec![1.0, 2.0],
            residuals: vec![0.0, 0.0],
            search_space_local: block,
            rows: rows.into(),
            n,
            iterations: 1,
            matvecs: 0,
            converged: true,
            stats: vec![],
            norm_h: 1.0,
            bounds: SpectralBounds {
                mu_1: 0.0,
                mu_ne: 0.0,
                b_sup: 1.0,
            },
            warm_started: false,
            recovery: RecoveryLog::default(),
        }
    }

    #[test]
    fn assemble_covers_and_dedups() {
        // Grid 2x2: two distinct row ranges, each appearing twice.
        let results = vec![
            dummy(0..3, 5),
            dummy(0..3, 5),
            dummy(3..5, 5),
            dummy(3..5, 5),
        ];
        let full = ChaseResult::assemble_eigenvectors(&results);
        assert_eq!((full.rows(), full.cols()), (5, 2));
        assert_eq!(full[(4, 1)], C64::from_f64(41.0));
        assert_eq!(full[(0, 0)], C64::from_f64(0.0));
        let space = ChaseResult::assemble_search_space(&results);
        assert_eq!((space.rows(), space.cols()), (5, 3));
        assert_eq!(space[(4, 2)], C64::from_f64(42.0));
        assert_eq!(space.cols_ref(0..2).as_slice(), full.as_slice());
    }

    #[test]
    #[should_panic(expected = "cover")]
    fn assemble_detects_gaps() {
        let results = vec![dummy(0..3, 5)];
        ChaseResult::assemble_eigenvectors(&results);
    }
}
