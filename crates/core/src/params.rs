//! Solver parameters (the knobs of Algorithms 1–2).

/// Cap on every filter degree (paper: 36, "to avoid the matrix of vectors
/// becoming too ill-conditioned"). Even, so a column filtered at the cap
/// still ends in `C`.
pub const MAX_DEG: usize = 36;

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
    /// Initial Chebyshev degree (paper: 20), at most [`MAX_DEG`].
    pub deg: usize,
    /// Enable per-vector degree optimization (paper: always on unless
    /// stated otherwise).
    pub optimize_degrees: bool,
    /// Maximum outer iterations before giving up.
    pub max_iter: usize,
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
    /// Directory for solver checkpoints, one snapshot per outer iteration;
    /// `None` disables them.
    pub checkpoint_dir: Option<String>,
}

impl Params {
    /// Defaults matching the paper's experimental setup.
    pub fn new(nev: usize, nex: usize) -> Self {
        Self {
            nev,
            nex,
            tol: 1e-10,
            deg: 20,
            optimize_degrees: true,
            max_iter: 60,
            qr: QrStrategy::Auto,
            track_true_cond: false,
            seed: 0xC4A53,
            inject: None,
            guards: true,
            max_refilter: 2,
            checkpoint_dir: None,
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
    /// (filtered vectors must end in `C`); at most [`MAX_DEG`], which is
    /// even, once validated.
    pub(crate) fn init_deg(&self) -> usize {
        self.deg + self.deg % 2
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
        if !(2..=MAX_DEG).contains(&self.deg) {
            return Err(format!("need 2 <= deg <= {MAX_DEG}, got deg {}", self.deg));
        }
        if self.max_iter < 1 {
            return Err("max_iter must be at least 1".into());
        }
        Ok(())
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
        assert_eq!(MAX_DEG, 36);
        assert!(p.optimize_degrees);
        assert_eq!(p.ne(), 140);
    }

    #[test]
    fn validate_rejects_oversized_subspace() {
        let err = Params::new(100, 40).try_validate(120).unwrap_err();
        assert!(err.contains("search space"), "{err}");
    }

    #[test]
    fn validate_rejects_a_subspace_width_that_overflows() {
        let err = Params::new(usize::MAX, 2).try_validate(100).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        assert!(Params::new(2, usize::MAX).try_validate(100).is_err());
    }

    #[test]
    fn validate_accepts_sane() {
        assert_eq!(Params::new(10, 5).try_validate(100), Ok(()));
    }

    /// The cap bounds the initial degree: an odd `deg` rounds up to even,
    /// the largest valid one onto [`MAX_DEG`] itself, and one past the cap
    /// is refused.
    #[test]
    fn an_odd_cap_bounds_the_initial_degree() {
        let mut p = Params::new(10, 5);
        p.deg = MAX_DEG - 1;
        assert_eq!(p.try_validate(100), Ok(()));
        assert_eq!(p.init_deg(), MAX_DEG);
        p.deg = MAX_DEG - 3;
        assert_eq!(p.init_deg(), MAX_DEG - 2);
        p.deg = 21;
        assert_eq!(p.init_deg(), 22);
        p.deg = MAX_DEG + 1;
        let err = p.try_validate(100).unwrap_err();
        assert!(err.contains("deg <= 36"), "{err}");
    }
}
