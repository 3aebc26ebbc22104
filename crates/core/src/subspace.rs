//! The Algorithm-1 bookkeeping every ChASE driver shares (Winkelmann et
//! al.): per-column Ritz values, residuals and filter degrees, and the
//! locked prefix. [`crate::solve_dist`] and [`crate::lms::solve_lms`] differ
//! in how they orthonormalize, project and measure residuals — not in how
//! degrees are planned, columns locked, iterations summarized or the result
//! sorted.

use crate::degrees::{degree_sort_permutation, optimize_degrees, predicted_residual};
use crate::filter::FilterBounds;
use crate::params::{Params, MAX_DEG};
use crate::qr::QrVariant;
use crate::result::{DegreeForecast, IterStats};
use chase_linalg::{Matrix, RealScalar, Scalar, SpectralBounds};

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

/// What [`Subspace::plan_degrees`] knew of one wanted active column: its
/// Ritz rank, residual and `t` before the filter, and the slot it was
/// permuted to (where the degree it is filtered at is read).
struct Planned {
    rank: usize,
    res: f64,
    t: f64,
    slot: usize,
}

/// Ritz values, residuals and degrees of the `ne` search directions, the
/// first `locked` of which are converged and deflated. Replicated: every
/// rank holds the same values.
pub(crate) struct Subspace<R> {
    pub ritzv: Vec<R>,
    pub resd: Vec<R>,
    pub degs: Vec<usize>,
    pub locked: usize,
    /// The wanted columns of the last plan, for the iteration's
    /// [`DegreeForecast`]; empty when the iteration was not planned.
    planned: Vec<Planned>,
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
            planned: Vec::new(),
        }
    }

    pub fn ne(&self) -> usize {
        self.ritzv.len()
    }

    /// Degrees of the active columns for the next filter call (Algorithm 1,
    /// line 11: optimized per column, or all at the initial degree), then
    /// the active columns sorted ascending by degree (line 12). Returns the
    /// permutation, for the caller's column blocks (see [`permute_cols`]).
    ///
    /// The active columns arrive in ascending Ritz order (Rayleigh–Ritz
    /// sorts them). Optimized, the `nex` extra columns `nev..ne` are not
    /// planned for themselves: they are filtered at column `nev - 1`'s
    /// degree, as upstream ChASE's `calc_degrees` does (DESIGN.md §5).
    pub fn plan_degrees(&mut self, params: &Params, fb: &FilterBounds<R>, norm_h: R) -> Vec<usize> {
        let l = self.locked;
        let (c, e) = (fb.c.to_f64(), fb.e.to_f64());
        if params.optimize_degrees {
            let f64s = |v: &[R]| v.iter().map(|r| r.to_f64()).collect::<Vec<_>>();
            let new_degs = optimize_degrees(
                &f64s(&self.resd[l..params.nev]),
                &f64s(&self.ritzv[l..params.nev]),
                c,
                e,
                params.tol * norm_h.to_f64(),
                MAX_DEG,
            );
            self.degs[l..params.nev].copy_from_slice(&new_degs);
            let last_wanted = self.degs[params.nev - 1];
            self.degs[params.nev..].fill(last_wanted);
        } else {
            self.degs[l..].fill(params.init_deg());
        }
        let perm = degree_sort_permutation(&self.degs[l..]);
        let mut slot = vec![0; perm.len()];
        for (k, &src) in perm.iter().enumerate() {
            slot[src] = l + k;
        }
        self.planned = (l..params.nev)
            .map(|j| Planned {
                rank: j,
                res: self.resd[j].to_f64(),
                t: (self.ritzv[j].to_f64() - c) / e,
                slot: slot[j - l],
            })
            .collect();
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
        let forecast = self.forecast(tol.to_f64());
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
            forecast,
        }
    }

    /// The last plan held to what the iteration reached: column `rank`'s
    /// residual before the filter, contracted by the model at the degree
    /// its slot was filtered at (a re-filter's bump included), against the
    /// residual of the Ritz pair of the same rank now. Consumes the plan.
    fn forecast(&mut self, tol: f64) -> Option<DegreeForecast> {
        let planned = std::mem::take(&mut self.planned);
        if planned.is_empty() {
            return None;
        }
        let mut ratios = Vec::with_capacity(planned.len());
        let (mut predicted_converged, mut converged) = (0, 0);
        for p in &planned {
            let predicted = predicted_residual(p.res, p.t, self.degs[p.slot]);
            let achieved = self.resd[p.rank].to_f64();
            ratios.push(achieved / predicted);
            predicted_converged += usize::from(predicted < tol);
            converged += usize::from(achieved < tol);
        }
        ratios.sort_by(f64::total_cmp);
        // Nearest rank: the smallest ratio at least a share `q` of the
        // columns do not exceed.
        let quantile = |q: f64| ratios[((q * ratios.len() as f64).ceil() as usize).max(1) - 1];
        Some(DegreeForecast {
            columns: planned.len(),
            median_ratio: quantile(0.5),
            q90_ratio: quantile(0.9),
            predicted_converged,
            converged,
        })
    }

    /// Bound updates (Algorithm 2, lines 5–7), the one rule every driver
    /// and warm start applies. `mu_1` is the smallest Ritz value. `mu_ne`
    /// only falls, to the largest Ritz value, while it stays strictly above
    /// the `nev`-th smallest; otherwise it is reset to the largest. Each
    /// Ritz value bounds its eigenvalue from above (`θ_k ≥ λ_k`, by
    /// interlacing), so the damped interval never starts at or below a
    /// wanted Ritz value — an estimate inside the wanted cluster (the
    /// Lanczos DoS quantile can be one) is not frozen there (DESIGN.md §5).
    pub fn update_bounds(&self, nev: usize, bounds: &mut SpectralBounds<R>) {
        let (lowest, highest) = self.ritz_extent();
        let mut by_value = self.ritzv.clone();
        let (_, nev_th, _) = by_value.select_nth_unstable_by(nev - 1, |a, b| {
            a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mu_ne = if bounds.mu_ne > *nev_th {
            bounds.mu_ne.min_r(highest)
        } else {
            highest
        };
        (bounds.mu_1, bounds.mu_ne) = (lowest, mu_ne);
    }

    /// The smallest and the largest current Ritz value.
    fn ritz_extent(&self) -> (R, R) {
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
        // Ascending Ritz order, as Rayleigh–Ritz leaves it; the wanted
        // column 2 needs a higher degree than column 3 (and the extra
        // columns 4..7, which take column 3's), so the plan reorders.
        sub.ritzv = vec![-0.99, -0.95, -0.9, -0.8, -0.6, -0.3, -0.1];
        sub.resd = vec![1e-12, 1e-12, 1e-2, 1e-9, 1e-6, 1e-1, 1e-4];
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
        assert_eq!(perm, [1, 2, 3, 4, 0]);
        assert!(
            sub.degs[2] < sub.degs[6],
            "the spread residuals need different degrees"
        );
        let planned = |k: usize| {
            let t = (before[k].0 - fb.c) / fb.e;
            crate::degrees::optimal_degree(before[k].1, params.tol, t, MAX_DEG)
        };
        for j in 0..7 {
            let pair = (sub.ritzv[j], sub.resd[j]);
            let Some(k) = before.iter().position(|&p| p == pair) else {
                panic!("column {j} is nobody's pair: {pair:?}");
            };
            assert_eq!(c[(0, j)], sub.ritzv[j], "column {j} lost its Ritz value");
            if j >= 2 {
                // A wanted column is planned for itself, an extra one at
                // the last wanted column's degree.
                let want = planned(k.min(params.nev - 1));
                assert_eq!(sub.degs[j], want, "column {j} (was {k})");
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

    /// The `nex` rule: the extra columns take the last wanted column's
    /// degree whatever their own residual — converged, far from it, or
    /// inside the damped interval — and the plan still sorts ascending.
    #[test]
    fn extra_columns_take_the_last_wanted_degree() {
        let params = Params::new(3, 4);
        let fb = FilterBounds::from_spectrum(-1.0f64, 0.0, 1.0);
        let mut sub = Subspace::new(7, -1.0f64, params.init_deg());
        sub.locked = 1;
        sub.ritzv = vec![-0.99, -0.95, -0.9, -0.85, -0.5, 0.2, 0.4];
        sub.resd = vec![1e-12, 1e-3, 1e-8, 1e-12, 1.0, 1e-1, 1e-5];
        let t = |k: usize| (sub.ritzv[k] - fb.c) / fb.e;
        let own = |k: usize, r: f64| crate::degrees::optimal_degree(r, params.tol, t(k), MAX_DEG);
        let (d1, d2) = (own(1, 1e-3), own(2, 1e-8));
        assert!(d2 < d1, "{d2} !< {d1}");
        // Left to themselves the extra columns would spread from the
        // polishing degree to the cap.
        assert_eq!(own(3, 1e-12), 2 + crate::degrees::DEG_EXTRA);
        assert_eq!(own(5, 1e-1), 36);

        let perm = sub.plan_degrees(&params, &fb, 1.0);
        assert_eq!(sub.degs[1..], [d2, d2, d2, d2, d2, d1]);
        assert_eq!(perm, [1, 2, 3, 4, 5, 0]);
        assert_eq!(sub.ritzv[1..], [-0.9, -0.85, -0.5, 0.2, 0.4, -0.95]);
        assert_eq!(sub.resd[1..], [1e-8, 1e-12, 1.0, 1e-1, 1e-5, 1e-3]);
    }

    /// The forecast holds each wanted column's prediction — its residual
    /// before the filter over `rho(t)^d` at the degree its slot was
    /// filtered at — to the residual of the same Ritz rank afterwards, and
    /// an unplanned iteration has none.
    #[test]
    fn the_forecast_follows_each_wanted_rank_to_its_filtered_slot() {
        let params = Params::new(3, 2);
        let fb = FilterBounds::from_spectrum(-1.0f64, 0.0, 1.0);
        let mut sub = Subspace::new(5, -1.0f64, params.init_deg());
        assert!(sub.lock_and_record(1e-10, measured(1)).forecast.is_none());

        sub.ritzv = vec![-0.99, -0.95, -0.9, -0.85, -0.8];
        sub.resd = vec![1e-2, 1e-9, 1e-5, 1e-3, 1e-3];
        let before = sub.resd.clone();
        let t: Vec<f64> = sub.ritzv.iter().map(|r| (r - fb.c) / fb.e).collect();
        sub.plan_degrees(&params, &fb, 1.0);
        // The highest degree is rank 0's, now in the last slot; a
        // re-filter bumps it, and the prediction follows the bump.
        assert_eq!(sub.ritzv[4], -0.99);
        sub.degs[4] += 2;
        let predicted: Vec<f64> = [(0, sub.degs[4]), (1, sub.degs[0]), (2, sub.degs[1])]
            .iter()
            .map(|&(k, d)| crate::degrees::predicted_residual(before[k], t[k], d))
            .collect();
        // Rayleigh–Ritz: ranks 0 and 1 reach ten and twice their
        // predictions; rank 2 reaches half of its and converges.
        sub.ritzv = vec![-0.99, -0.95, -0.9, -0.85, -0.8];
        sub.resd = vec![
            10.0 * predicted[0],
            2.0 * predicted[1],
            0.5 * predicted[2],
            1.0,
            1.0,
        ];
        let tol = 2.0 * predicted[2].max(predicted[0]).max(predicted[1]);
        let f = sub
            .lock_and_record(tol, measured(2))
            .forecast
            .expect("a planned iteration");
        assert_eq!(f.columns, 3);
        assert!((f.median_ratio / 2.0 - 1.0).abs() < 1e-12, "{f:?}");
        assert!((f.q90_ratio / 10.0 - 1.0).abs() < 1e-12, "{f:?}");
        assert_eq!((f.predicted_converged, f.converged), (3, 2));
        // The plan is spent: the next row has a forecast only if planned.
        assert!(sub.lock_and_record(tol, measured(3)).forecast.is_none());
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

    fn bounds(mu_ne: f64) -> SpectralBounds<f64> {
        SpectralBounds {
            mu_1: -3.0,
            mu_ne,
            b_sup: 2.0,
        }
    }

    /// Above the `nev`-th smallest Ritz value `mu_ne` only falls: to the
    /// largest Ritz value, never up to it. The Ritz values arrive in degree
    /// order, not sorted.
    #[test]
    fn mu_ne_falls_to_the_largest_ritz_value_and_never_rises() {
        let mut sub = Subspace::new(5, 0.0f64, 20);
        sub.ritzv = vec![-0.6, -0.9, 0.4, -0.8, -0.7];
        let mut b = bounds(0.9);
        sub.update_bounds(3, &mut b);
        assert_eq!((b.mu_1, b.mu_ne, b.b_sup), (-0.9, 0.4, 2.0));
        // The largest Ritz value moves above it: `mu_ne` stays.
        sub.ritzv[2] = 0.6;
        sub.update_bounds(3, &mut b);
        assert_eq!((b.mu_1, b.mu_ne), (-0.9, 0.4));
        // The largest falls below `mu_ne`, which is still above the third
        // smallest (-0.7): `mu_ne` falls with it.
        sub.ritzv[2] = -0.65;
        sub.update_bounds(3, &mut b);
        assert_eq!((b.mu_1, b.mu_ne), (-0.9, -0.6));
    }

    /// At or below the `nev`-th smallest Ritz value `mu_ne` sits among the
    /// wanted ones and is not kept there: it is reset to the largest Ritz
    /// value, above every wanted eigenvalue.
    #[test]
    fn mu_ne_inside_the_wanted_ritz_values_is_reset_to_the_largest() {
        let mut sub = Subspace::new(5, 0.0f64, 20);
        sub.ritzv = vec![-0.6, -0.9, 0.4, -0.8, -0.7];
        for mu_ne in [-0.85, -0.7] {
            let mut b = bounds(mu_ne);
            sub.update_bounds(3, &mut b);
            assert_eq!((b.mu_1, b.mu_ne, b.b_sup), (-0.9, 0.4, 2.0), "{mu_ne}");
        }
        // Just above the third smallest it may fall, to the largest only.
        let mut b = bounds(-0.69);
        sub.update_bounds(3, &mut b);
        assert_eq!(b.mu_ne, -0.69);
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
