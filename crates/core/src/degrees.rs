//! Per-vector Chebyshev degree optimization (Algorithm 1, line 11).
//!
//! ChASE's key efficiency feature: instead of filtering every vector with
//! the same polynomial degree, each unconverged vector gets the smallest
//! degree expected to push its residual below `tol` (plus [`DEG_EXTRA`]),
//! minimizing the total MatVec count. The residual of the Ritz pair at `lambda` contracts per
//! filter application by roughly `1 / rho(t)` with
//! `t = (lambda - c)/e` (see [`crate::condest::growth_factor`]).

use crate::condest::growth_factor;

/// Degrees added to every optimised degree before the even rounding and the
/// cap: upstream ChASE's `deg_extra`. The contraction model `res / rho^d` is
/// optimistic — once the Ritz pairs settle the residual reached is ≈ 2x the
/// predicted one, the `1/2` of `T_d(t) ≈ rho^d / 2` the model drops — and a
/// column that misses its prediction holds the locked prefix back an
/// iteration. See DESIGN.md §5 "The degree rule".
pub(crate) const DEG_EXTRA: usize = 2;

/// The largest even degree `<= max_deg`: filtered vectors must end in `C`,
/// so an odd cap is rounded down, never up.
fn even_cap(max_deg: usize) -> usize {
    max_deg - max_deg % 2
}

/// Smallest even degree in `[2, max_deg]` expected to drive `res` below
/// `tol`, given the vector's Ritz value mapped to `t`, plus [`DEG_EXTRA`].
pub fn optimal_degree(res: f64, tol: f64, t: f64, max_deg: usize) -> usize {
    let rho = growth_factor(t);
    let deg = if res <= tol {
        // Already converged — one polishing pass.
        2.0
    } else if rho <= 1.0 + 1e-12 {
        // Inside the damped interval: filtering cannot help; use the cap.
        max_deg as f64
    } else {
        (res / tol).ln() / rho.ln()
    };
    let d = (deg.ceil().max(2.0) as usize)
        .saturating_add(DEG_EXTRA)
        .min(max_deg);
    // ChASE enforces even degrees so filtered vectors always end in C.
    (d + d % 2).clamp(2, even_cap(max_deg))
}

/// The residual the contraction model expects after filtering a column at
/// degree `deg`: `res / rho(t)^deg` — what [`optimal_degree`] inverts.
pub(crate) fn predicted_residual(res: f64, t: f64, deg: usize) -> f64 {
    res * (-(deg as f64) * growth_factor(t).ln()).exp()
}

/// Vectorized version over the active columns.
///
/// Returns degrees aligned with `ritzv`/`resd` (both length = active count).
pub fn optimize_degrees(
    resd: &[f64],
    ritzv: &[f64],
    c: f64,
    e: f64,
    tol: f64,
    max_deg: usize,
) -> Vec<usize> {
    assert_eq!(resd.len(), ritzv.len());
    resd.iter()
        .zip(ritzv)
        .map(|(&r, &l)| optimal_degree(r, tol, (l - c) / e, max_deg))
        .collect()
}

/// Sort permutation by ascending degree (stable), as required by the
/// filter's shrinking-active-range scheme (Algorithm 1, line 12).
pub fn degree_sort_permutation(degs: &[usize]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..degs.len()).collect();
    idx.sort_by_key(|&i| degs[i]);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrees_are_even_and_clamped() {
        for res in [1e-2, 1e-6, 1e-9] {
            let d = optimal_degree(res, 1e-10, -3.0, 36);
            assert_eq!(d % 2, 0);
            assert!((2..=36).contains(&d));
        }
    }

    #[test]
    fn farther_eigenvalues_need_lower_degree() {
        // |t| = 5 decays much faster than |t| = 1.1.
        let d_far = optimal_degree(1e-2, 1e-10, -5.0, 100);
        let d_near = optimal_degree(1e-2, 1e-10, -1.1, 100);
        assert!(d_far < d_near, "{d_far} !< {d_near}");
    }

    #[test]
    fn smaller_residual_needs_lower_degree() {
        let d_big = optimal_degree(1e-1, 1e-10, -2.0, 100);
        let d_small = optimal_degree(1e-8, 1e-10, -2.0, 100);
        assert!(d_small < d_big);
    }

    #[test]
    fn converged_gets_minimum() {
        // One polishing pass, plus the margin.
        assert_eq!(optimal_degree(1e-12, 1e-10, -2.0, 36), 2 + DEG_EXTRA);
    }

    #[test]
    fn inside_interval_gets_cap() {
        assert_eq!(optimal_degree(1e-2, 1e-10, 0.5, 36), 36);
    }

    #[test]
    fn exact_contraction_count() {
        // res/tol = 1e8, rho = 10 -> need 8 applications, + 2 margin -> 10.
        // Find t with rho(t) = 10: t = (10 + 1/10)/2 = 5.05.
        let d = optimal_degree(1e-2, 1e-10, 5.05, 100);
        assert_eq!(d, 8 + DEG_EXTRA);
        // The model's own account of that degree: 1e-2 / 10^10.
        let predicted = predicted_residual(1e-2, 5.05, d);
        assert!((predicted / 1e-12 - 1.0).abs() < 1e-12, "{predicted}");
    }

    /// Wherever the model's degree sits, the margin lands on an even degree
    /// at or below the cap — odd caps included, which round down.
    #[test]
    fn the_margin_never_passes_the_cap() {
        for max_deg in 2..=40 {
            for log_res in -12..=0 {
                for t in [-1.01, -1.5, -3.0, -20.0, 0.5] {
                    let d = optimal_degree(10f64.powi(log_res), 1e-10, t, max_deg);
                    assert_eq!(d % 2, 0);
                    assert!(
                        (2..=even_cap(max_deg)).contains(&d),
                        "max_deg {max_deg} res 1e{log_res} t {t}: {d}"
                    );
                }
            }
            // Inside the damped interval the answer is the cap, margin or not.
            assert_eq!(optimal_degree(1.0, 1e-10, 0.5, max_deg), even_cap(max_deg));
        }
        // rho = 10 (t = 5.05), so res/tol = 10^k needs k applications: 10
        // plus the margin is the cap exactly, 12 plus the margin stays there.
        assert_eq!(optimal_degree(1e-2, 1e-12, 5.05, 12), 12);
        assert_eq!(optimal_degree(1e-0, 1e-12, 5.05, 12), 12);
    }

    #[test]
    fn sort_permutation_ascending() {
        let degs = [8usize, 2, 36, 4];
        let p = degree_sort_permutation(&degs);
        assert_eq!(p, vec![1, 3, 0, 2]);
    }

    #[test]
    fn odd_cap_is_rounded_down() {
        let d = optimal_degree(1.0, 1e-10, 0.0, 35);
        assert_eq!(d, 34);
        assert_eq!((even_cap(35), even_cap(36), even_cap(2)), (34, 36, 2));
    }
}
