//! The configuration axis of the check matrix: which solves the harness
//! explores schedules over.

use chase_comm::GridShape;
use chase_core::Params;
use std::fmt;

/// Scalar leg of a check case: the real and the complex solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarKind {
    F64,
    C64,
}

impl ScalarKind {
    pub const ALL: [ScalarKind; 2] = [ScalarKind::F64, ScalarKind::C64];

    pub fn token(self) -> &'static str {
        match self {
            ScalarKind::F64 => "f64",
            ScalarKind::C64 => "c64",
        }
    }

    pub fn from_token(s: &str) -> Option<Self> {
        match s {
            "f64" => Some(ScalarKind::F64),
            "c64" => Some(ScalarKind::C64),
            _ => None,
        }
    }
}

/// One fully-specified solve the harness runs under many schedules. Every
/// field participates in the witness header so a replay reconstructs the
/// identical problem.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckCase {
    pub scalar: ScalarKind,
    /// Process grid `p x q`.
    pub grid: (usize, usize),
    /// Overlapped (pipelined) Chebyshev filter.
    pub overlap: bool,
    /// Tune a deterministic measured plan inside the run and solve under
    /// it (exercises the tuner's trial collectives under gating too).
    pub plan: bool,
    /// Global problem size.
    pub n: usize,
    pub nev: usize,
    pub nex: usize,
    pub tol: f64,
    /// Problem seed (matrix + starting block).
    pub pseed: u64,
}

impl CheckCase {
    /// The harness default problem: small enough that a shrink run's
    /// dozens of re-solves stay cheap, large enough that every grid in
    /// [`crate::default_matrix`] gets nondegenerate local blocks.
    pub fn new(scalar: ScalarKind, grid: (usize, usize), overlap: bool) -> Self {
        Self {
            scalar,
            grid,
            overlap,
            plan: false,
            n: 32,
            nev: 4,
            nex: 3,
            tol: 1e-8,
            pseed: 7,
        }
    }

    pub fn with_plan(mut self, plan: bool) -> Self {
        self.plan = plan;
        self
    }

    pub fn shape(&self) -> GridShape {
        GridShape::new(self.grid.0, self.grid.1)
    }

    /// Solver parameters for this case.
    pub fn params(&self) -> Params {
        let mut p = Params::new(self.nev, self.nex);
        p.tol = self.tol;
        p.seed = self.pseed;
        p.overlap = self.overlap;
        p
    }
}

impl fmt::Display for CheckCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scalar={} grid={}x{} overlap={} plan={} n={} nev={} nex={} tol={} pseed={}",
            self.scalar.token(),
            self.grid.0,
            self.grid.1,
            if self.overlap { "on" } else { "off" },
            if self.plan { "on" } else { "off" },
            self.n,
            self.nev,
            self.nex,
            self.tol,
            self.pseed,
        )
    }
}

/// The default exploration matrix: grids x scalars x overlap, the
/// acceptance surface of `chase check`.
pub const DEFAULT_GRIDS: [(usize, usize); 3] = [(1, 1), (2, 2), (1, 4)];

/// Cross product of `grids` x `scalars` x overlap on/off.
pub fn matrix(grids: &[(usize, usize)], scalars: &[ScalarKind]) -> Vec<CheckCase> {
    let mut out = Vec::new();
    for &grid in grids {
        for &scalar in scalars {
            for overlap in [false, true] {
                out.push(CheckCase::new(scalar, grid, overlap));
            }
        }
    }
    out
}

/// The full default matrix ({1x1, 2x2, 1x4} x {f64, c64} x {overlap off,
/// on}): 12 cases.
pub fn default_matrix() -> Vec<CheckCase> {
    matrix(&DEFAULT_GRIDS, &ScalarKind::ALL)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matrix_is_the_12_case_cross() {
        let m = default_matrix();
        assert_eq!(m.len(), 12);
        let uniq: std::collections::BTreeSet<String> = m.iter().map(|c| c.to_string()).collect();
        assert_eq!(uniq.len(), 12, "case displays are unique");
    }

    #[test]
    fn scalar_tokens_round_trip() {
        for s in ScalarKind::ALL {
            assert_eq!(ScalarKind::from_token(s.token()), Some(s));
        }
        assert_eq!(ScalarKind::from_token("f32"), None);
        assert_eq!(ScalarKind::from_token("c64-mixed"), None);
    }
}
