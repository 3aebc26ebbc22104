//! Solver parameters (the knobs of Algorithms 1–2).

use crate::degrees::even_cap;

/// Strategy for choosing the QR factorization each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QrStrategy {
    /// The paper's heuristic (Algorithm 4): pick by estimated condition
    /// number — shifted CholeskyQR2 above 1e8, CholeskyQR1 below 20,
    /// CholeskyQR2 otherwise, Householder QR as the corner-case fallback.
    Auto,
    /// Always use (ScaLAPACK-style) Householder QR — the Table 2 baseline.
    AlwaysHouseholder,
    /// Always CholeskyQR2 (ablation).
    AlwaysCholeskyQr2,
    /// Always single-pass CholeskyQR (ablation; may lose orthogonality).
    AlwaysCholeskyQr1,
}

/// ChASE configuration.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of wanted (lowest) eigenpairs.
    pub nev: usize,
    /// Extra search directions; the subspace has `ne = nev + nex` columns.
    pub nex: usize,
    /// Residual threshold for deflation & locking (the paper fixes 1e-10).
    pub tol: f64,
    /// Initial Chebyshev degree (paper: 20).
    pub deg: usize,
    /// Cap on optimized degrees (paper: 36, "to avoid the matrix of
    /// vectors becoming too ill-conditioned").
    pub max_deg: usize,
    /// Enable per-vector degree optimization (paper: always on unless
    /// stated otherwise).
    pub optimize_degrees: bool,
    /// Maximum outer iterations before giving up.
    pub max_iter: usize,
    /// Lanczos steps per run for the spectral estimator.
    pub lanczos_steps: usize,
    /// Number of independent Lanczos runs for the DoS estimate.
    pub lanczos_runs: usize,
    /// QR variant selection.
    pub qr: QrStrategy,
    /// Also compute the *exact* condition number of the filtered block each
    /// iteration (expensive; drives Fig. 1).
    pub track_true_cond: bool,
    /// Seed for the random starting block.
    pub seed: u64,
    /// Fault-injection campaign (the parsed `--inject` spec). `None` runs
    /// clean; `Some` compiles a per-rank `FaultPlan` and wires it into the
    /// communicators and the device layer.
    pub inject: Option<chase_faults::FaultSpec>,
    /// Run the detection/recovery guard layer (finite checks, residual
    /// regression, re-filter + rollback). On by default; the guards are
    /// collective-free on the happy path except one scalar agreement per
    /// iteration.
    pub guards: bool,
    /// How many times one iteration may restore + re-filter poisoned
    /// columns before giving up with `UnrecoverableNonFinite`.
    pub max_refilter: usize,
    /// Directory for periodic solver checkpoints; `None` disables them.
    pub checkpoint_dir: Option<String>,
    /// Write a checkpoint every this many outer iterations (0 means only
    /// when a crash-recovery driver requests one on demand).
    pub checkpoint_every: usize,
}

impl Params {
    /// Defaults matching the paper's experimental setup.
    pub fn new(nev: usize, nex: usize) -> Self {
        Self {
            nev,
            nex,
            tol: 1e-10,
            deg: 20,
            max_deg: 36,
            optimize_degrees: true,
            max_iter: 60,
            lanczos_steps: 25,
            lanczos_runs: 4,
            qr: QrStrategy::Auto,
            track_true_cond: false,
            seed: 0xC4A53,
            inject: None,
            guards: true,
            max_refilter: 2,
            checkpoint_dir: None,
            checkpoint_every: 0,
        }
    }

    /// Whether the fault campaign plans a rank death. Only
    /// [`crate::try_solve_elastic`] survives one, and it runs cold: warm
    /// payloads are laid out for the pre-crash grid.
    pub fn plans_rank_crash(&self) -> bool {
        self.inject
            .as_ref()
            .is_some_and(|s| !s.crash_sites().is_empty())
    }

    /// Search-space width `ne = nev + nex`.
    pub fn ne(&self) -> usize {
        self.nev + self.nex
    }

    /// The filter degree every column starts at: `deg`, rounded up to even
    /// (filtered vectors must end in `C`), but never past the even cap.
    pub(crate) fn init_deg(&self) -> usize {
        (self.deg + self.deg % 2).min(even_cap(self.max_deg))
    }

    /// Validate against a problem size, reporting the first violation as a
    /// typed error (a bad workload entry must not abort a whole serve run).
    pub fn try_validate(&self, n: usize) -> Result<(), String> {
        if self.nev < 1 {
            return Err("nev must be at least 1".into());
        }
        if self.nex < 1 {
            return Err("nex must be at least 1 (deflation headroom)".into());
        }
        let Some(ne) = self.nev.checked_add(self.nex) else {
            return Err(format!(
                "search space (nev {} + nex {}) overflows",
                self.nev, self.nex
            ));
        };
        if ne > n {
            return Err(format!("search space ({ne}) exceeds problem size ({n})"));
        }
        if !(self.tol > 0.0 && self.tol.is_finite()) {
            return Err(format!(
                "tol must be a finite positive value, got {}",
                self.tol
            ));
        }
        if self.deg < 2 || self.max_deg < self.deg {
            return Err(format!(
                "need 2 <= deg <= max_deg, got deg {} max_deg {}",
                self.deg, self.max_deg
            ));
        }
        if self.max_iter < 1 {
            return Err("max_iter must be at least 1".into());
        }
        Ok(())
    }

    /// Validate against a problem size (panicking convenience wrapper).
    pub fn validate(&self, n: usize) {
        if let Err(e) = self.try_validate(n) {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = Params::new(100, 40);
        assert_eq!(p.tol, 1e-10);
        assert_eq!(p.deg, 20);
        assert_eq!(p.max_deg, 36);
        assert!(p.optimize_degrees);
        assert_eq!(p.ne(), 140);
    }

    #[test]
    #[should_panic(expected = "search space")]
    fn validate_rejects_oversized_subspace() {
        Params::new(100, 40).validate(120);
    }

    #[test]
    fn validate_rejects_a_subspace_width_that_overflows() {
        let err = Params::new(usize::MAX, 2).try_validate(100).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        assert!(Params::new(2, usize::MAX).try_validate(100).is_err());
    }

    #[test]
    fn validate_accepts_sane() {
        Params::new(10, 5).validate(100);
    }

    /// An odd `max_deg` is a cap, not a suggestion: the initial degree
    /// rounds `deg` up to even only as far as the largest even degree
    /// below the cap.
    #[test]
    fn an_odd_cap_bounds_the_initial_degree() {
        let mut p = Params::new(10, 5);
        (p.deg, p.max_deg) = (35, 35);
        p.validate(100);
        assert_eq!(p.init_deg(), 34);
        (p.deg, p.max_deg) = (33, 35);
        assert_eq!(p.init_deg(), 34);
        (p.deg, p.max_deg) = (21, 36);
        assert_eq!(p.init_deg(), 22);
    }
}
