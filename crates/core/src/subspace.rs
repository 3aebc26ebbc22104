//! The Algorithm-1 bookkeeping every ChASE driver shares (Winkelmann et
//! al.): per-column Ritz values, residuals and filter degrees, and the
//! locked prefix. [`crate::solve_dist`] and [`crate::lms::solve_lms`] differ
//! in how they orthonormalize, project and measure residuals — not in how
//! degrees are planned, columns locked, iterations summarized or the result
//! sorted.

use crate::degrees::{degree_sort_permutation, optimize_degrees};
use crate::filter::FilterBounds;
use crate::params::Params;
use crate::qr::QrVariant;
use crate::result::IterStats;
use chase_linalg::{Matrix, RealScalar, Scalar};

/// Permute columns `offset..offset+perm.len()` of `m` so that new column `k`
/// is old column `offset + perm[k]`.
pub(crate) fn permute_cols<T: Scalar>(m: &mut Matrix<T>, offset: usize, perm: &[usize]) {
    let block = m.copy_cols(offset..offset + perm.len());
    for (k, &src) in perm.iter().enumerate() {
        m.col_mut(offset + k).copy_from_slice(block.col(src));
    }
}

fn permute_vec<V: Copy>(v: &mut [V], perm: &[usize]) {
    let old: Vec<V> = v.to_vec();
    for (k, &src) in perm.iter().enumerate() {
        v[k] = old[src];
    }
}

/// What a driver measured in one iteration, for [`Subspace::lock_and_record`]
/// to complete into an [`IterStats`] row.
pub(crate) struct Measured {
    pub iter: usize,
    pub matvecs: u64,
    pub est_cond: f64,
    pub true_cond: Option<f64>,
    pub qr_variant: QrVariant,
}

/// Ritz values, residuals and degrees of the `ne` search directions, the
/// first `locked` of which are converged and deflated. Replicated: every
/// rank holds the same values.
pub(crate) struct Subspace<R> {
    pub ritzv: Vec<R>,
    pub resd: Vec<R>,
    pub degs: Vec<usize>,
    pub locked: usize,
}

impl<R: RealScalar> Subspace<R> {
    /// `ne` unconverged directions: Ritz values at `ritz0` (the lower
    /// estimate, used by the first condition estimate; see Section 4.2's
    /// first-iteration caveat), residuals at one, degrees at `deg0`.
    pub fn new(ne: usize, ritz0: R, deg0: usize) -> Self {
        Self {
            ritzv: vec![ritz0; ne],
            resd: vec![R::one(); ne],
            degs: vec![deg0; ne],
            locked: 0,
        }
    }

    pub fn ne(&self) -> usize {
        self.ritzv.len()
    }

    /// Degrees of the active columns for the next filter call (Algorithm 1,
    /// line 11: optimized per column, or all at the initial degree), then
    /// the active columns sorted ascending by degree (line 12). Returns the
    /// permutation, for the caller's column blocks (see [`permute_cols`]).
    pub fn plan_degrees(&mut self, params: &Params, fb: &FilterBounds<R>, norm_h: R) -> Vec<usize> {
        let l = self.locked;
        if params.optimize_degrees {
            let f64s = |v: &[R]| v.iter().map(|r| r.to_f64()).collect::<Vec<_>>();
            let new_degs = optimize_degrees(
                &f64s(&self.resd[l..]),
                &f64s(&self.ritzv[l..]),
                fb.c.to_f64(),
                fb.e.to_f64(),
                params.tol * norm_h.to_f64(),
                params.max_deg,
            );
            self.degs[l..].copy_from_slice(&new_degs);
        } else {
            self.degs[l..].fill(params.init_deg());
        }
        let perm = degree_sort_permutation(&self.degs[l..]);
        permute_vec(&mut self.ritzv[l..], &perm);
        permute_vec(&mut self.resd[l..], &perm);
        permute_vec(&mut self.degs[l..], &perm);
        perm
    }

    /// Deflation & locking (Algorithm 2, line 26), and the iteration's row
    /// of diagnostics. After the Rayleigh–Ritz step the active columns are
    /// in ascending Ritz order, so locking the longest converged *prefix*
    /// guarantees the locked set is exactly the lowest eigenpairs (no holes
    /// — a converged pair above an unconverged one must wait).
    pub fn lock_and_record(&mut self, tol: R, m: Measured) -> IterStats {
        let ne = self.ne();
        let before = self.locked;
        while self.locked < ne && self.resd[self.locked] < tol {
            self.locked += 1;
        }
        let active_res = &self.resd[self.locked.min(ne - 1)..];
        IterStats {
            iter: m.iter,
            est_cond: m.est_cond,
            true_cond: m.true_cond,
            qr_variant: m.qr_variant,
            matvecs: m.matvecs,
            new_locked: self.locked - before,
            locked: self.locked,
            min_res: active_res
                .iter()
                .fold(f64::INFINITY, |m, r| m.min(r.to_f64())),
            max_res: active_res.iter().fold(0.0f64, |m, r| m.max(r.to_f64())),
            max_degree: *self.degs[self.locked.min(ne - 1)..]
                .iter()
                .max()
                .unwrap_or(&0),
        }
    }

    /// Bound updates (Algorithm 2, lines 5–7): `(mu_1, mu_ne)` are the
    /// extremes of the current Ritz values.
    pub fn ritz_extent(&self) -> (R, R) {
        let first = self.ritzv[0];
        (
            self.ritzv.iter().copied().fold(first, |m, v| m.min_r(v)),
            self.ritzv.iter().copied().fold(first, |m, v| m.max_r(v)),
        )
    }

    /// Sort the locked prefix (at least `nev` columns) ascending by Ritz
    /// value for clean output: permutes those columns of `c` and returns
    /// the `nev` lowest `(eigenvalues, residuals)`.
    pub fn sorted_pairs<T: Scalar>(&self, nev: usize, c: &mut Matrix<T>) -> (Vec<R>, Vec<R>) {
        let take = self.locked.max(nev).min(self.ne());
        let mut order: Vec<usize> = (0..take).collect();
        order.sort_by(|&a, &b| self.ritzv[a].partial_cmp(&self.ritzv[b]).unwrap());
        permute_cols(c, 0, &order);
        let lowest = |v: &[R]| order[..nev].iter().map(|&i| v[i]).collect();
        (lowest(&self.ritzv), lowest(&self.resd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(iter: usize) -> Measured {
        Measured {
            iter,
            matvecs: 70,
            est_cond: 10.0,
            true_cond: None,
            qr_variant: QrVariant::CholeskyQr2,
        }
    }

    /// Only the longest converged *prefix* locks: a converged pair above an
    /// unconverged one waits, so the locked set has no holes.
    #[test]
    fn a_converged_pair_above_an_unconverged_one_waits() {
        let mut sub = Subspace::new(6, -1.0f64, 20);
        sub.resd = vec![1e-12, 1e-11, 1e-3, 1e-12, 1e-2, 1e-12];
        sub.degs = vec![2, 2, 30, 2, 34, 2];
        let row = sub.lock_and_record(1e-10, measured(3));
        assert_eq!((sub.locked, row.new_locked, row.locked), (2, 2, 2));
        assert_eq!(
            (row.min_res, row.max_res, row.max_degree),
            (1e-12, 1e-2, 34)
        );
        assert_eq!((row.iter, row.matvecs), (3, 70));

        // Column 2 converges: it and the one that waited lock together.
        sub.resd[2] = 1e-11;
        let row = sub.lock_and_record(1e-10, measured(4));
        assert_eq!((sub.locked, row.new_locked), (4, 2));
        assert_eq!((row.min_res, row.max_res), (1e-12, 1e-2));

        // Everything converged: the last row still reports a column.
        sub.resd[4] = 1e-11;
        let row = sub.lock_and_record(1e-10, measured(5));
        assert_eq!((sub.locked, row.new_locked), (6, 2));
        assert_eq!(
            (row.min_res, row.max_res, row.max_degree),
            (1e-12, 1e-12, 2)
        );
    }

    /// Planning degrees leaves the locked prefix alone and keeps the active
    /// columns' `(ritzv, resd, degs)` triples — and the caller's column
    /// block, through the returned permutation — together.
    #[test]
    fn degree_permutation_keeps_the_triples_aligned() {
        let mut params = Params::new(4, 3);
        let fb = FilterBounds::from_spectrum(-1.0f64, 0.0, 1.0);
        let mut sub = Subspace::new(7, -1.0f64, params.init_deg());
        sub.locked = 2;
        sub.ritzv = vec![-0.99, -0.95, -0.9, -0.3, -0.8, -0.1, -0.6];
        sub.resd = vec![1e-12, 1e-12, 1e-9, 1e-2, 1e-6, 1e-1, 1e-4];
        // Column `j` of the block carries `ritzv[j]`, to follow it around.
        let mut c = Matrix::<f64>::from_fn(3, 7, |_, j| sub.ritzv[j]);
        let before: Vec<(f64, f64)> = sub.ritzv.iter().copied().zip(sub.resd.clone()).collect();

        let perm = sub.plan_degrees(&params, &fb, 1.0);
        permute_cols(&mut c, sub.locked, &perm);
        assert_eq!(sub.locked, 2);
        assert!(
            sub.degs[2..].windows(2).all(|w| w[0] <= w[1]),
            "{:?}",
            sub.degs
        );
        assert!(
            sub.degs[2] < sub.degs[6],
            "the spread residuals need different degrees"
        );
        for j in 0..7 {
            let pair = (sub.ritzv[j], sub.resd[j]);
            assert!(
                before.contains(&pair),
                "column {j} is nobody's pair: {pair:?}"
            );
            assert_eq!(c[(0, j)], sub.ritzv[j], "column {j} lost its Ritz value");
            if j >= 2 {
                let t = (sub.ritzv[j] - fb.c) / fb.e;
                let want =
                    crate::degrees::optimal_degree(sub.resd[j], params.tol, t, params.max_deg);
                assert_eq!(sub.degs[j], want, "column {j}");
            }
        }
        assert_eq!(
            before[..2],
            [(sub.ritzv[0], sub.resd[0]), (sub.ritzv[1], sub.resd[1])]
        );

        // Without degree optimization every active column is back at the
        // initial degree and nothing moves.
        params.optimize_degrees = false;
        let perm = sub.plan_degrees(&params, &fb, 1.0);
        assert_eq!(perm, [0, 1, 2, 3, 4]);
        assert_eq!(sub.degs[2..], [params.init_deg(); 5]);
    }

    /// A test of its own, on inputs the optimizer cannot see through: with
    /// `-C target-cpu=native` on an AVX-512 host, rustc 1.95 evaluated this
    /// fold over five literal values to the minimum of the first four when
    /// it was inlined behind `sorted_pairs` in one test body (the solver's
    /// bounds, and every length 1..40 of run-time values, are right — CI's
    /// golden digests run under that flag too).
    #[test]
    fn ritz_extent_is_the_minimum_and_the_maximum() {
        for n in 1..40usize {
            let v: Vec<f64> = (0..n).map(|i| -(((i * 7919) % 101) as f64)).collect();
            let mut sub = Subspace::new(n, 0.0f64, 20);
            sub.ritzv = std::hint::black_box(v.clone());
            let mut sorted = v;
            sorted.sort_by(f64::total_cmp);
            assert_eq!(sub.ritz_extent(), (sorted[0], sorted[n - 1]), "n = {n}");
        }
    }

    #[test]
    fn sorted_pairs_are_the_lowest_ascending_with_their_columns() {
        let mut sub = Subspace::new(5, 0.0f64, 20);
        sub.locked = 4;
        sub.ritzv = vec![-0.7, -0.9, -0.8, -0.6, -0.95];
        sub.resd = vec![7.0, 9.0, 8.0, 6.0, 9.5];
        let mut c = Matrix::<f64>::from_fn(2, 5, |_, j| sub.ritzv[j]);
        let (vals, res) = sub.sorted_pairs(3, &mut c);
        assert_eq!(vals, [-0.9, -0.8, -0.7]);
        assert_eq!(res, [9.0, 8.0, 7.0]);
        // The locked prefix is sorted in place; the active column stays.
        let cols: Vec<f64> = (0..5).map(|j| c[(0, j)]).collect();
        assert_eq!(cols, [-0.9, -0.8, -0.7, -0.6, -0.95]);
    }
}
