//! The four workloads: what each generates from the seed, and why it is in
//! the benchmark. Every workload is a closed loop with one operation in
//! flight (`scf_chain_2w` keeps two jobs in flight inside one drain) and
//! never runs more threads than the box has cores.

use crate::adapter::Shape;

/// One eigenproblem family, in complex double precision: the solver
/// receives only the generated matrix and `Params::new(nev, nex)` defaults
/// (every opt-in fast path off).
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    pub shape: Shape,
    pub n: usize,
    pub nev: usize,
    pub nex: usize,
    /// Thread grid `p x q` one operation runs on.
    pub grid: (usize, usize),
}

impl Problem {
    pub fn threads(&self) -> usize {
        self.grid.0 * self.grid.1
    }
}

/// A chase-serve session chain: `sessions x steps` jobs per drain, step
/// `k` being `k` successive perturbations of the session's base matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    pub sessions: Vec<(&'static str, Shape)>,
    pub steps: usize,
    pub eps: f64,
    pub workers: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The problem one operation solves (for a chain: every job's size, and
    /// the problem the traced pass measures the layers on).
    pub problem: Problem,
    /// `Some`: one timed region is a scheduler drain of this chain, and an
    /// operation is one of its jobs (drain wall / jobs).
    pub chain: Option<Chain>,
    /// Times set-up is repeated in an untraced run (its lower quartile is
    /// `setup_s`); each repetition builds an independent problem instance.
    pub instances: usize,
    /// After the set-up instances, build a fresh instance for every timed
    /// operation (cheap for a generated matrix with a prescribed spectrum;
    /// a chain instance costs a dozen dense direct solves, so it cycles).
    pub fresh_instances: bool,
}

impl Workload {
    /// Threads a timed region keeps busy.
    pub fn threads(&self) -> usize {
        match &self.chain {
            Some(c) => c.workers * self.problem.threads(),
            None => self.problem.threads(),
        }
    }
}

/// The benchmark's workloads. `quick` halves every problem size (smoke
/// runs only; a quick result is never comparable with a full one).
pub fn all(quick: bool) -> Vec<Workload> {
    let d = if quick { 2 } else { 1 };
    vec![
        Workload {
            name: "scale_c64_1x2",
            why: "The paper's headline case: filter GEMMs dominate, large-payload allreduces \
                  in one grid direction; kernel, prepack and overlap work shows here.",
            problem: Problem {
                shape: Shape::Dft,
                n: 480 / d,
                nev: 48 / d,
                nex: 24 / d,
                grid: (1, 2),
            },
            chain: None,
            instances: 3,
            fresh_instances: true,
        },
        Workload {
            name: "wide_dft_c64_1x1",
            why: "Single thread, subspace half the matrix: QR, heevd and RR GEMMs weigh most \
                  and no collective waits; bypass for every comm/topo/overlap optimisation.",
            problem: Problem {
                shape: Shape::Dft,
                n: 320 / d,
                nev: 107 / d,
                nex: 53 / d,
                grid: (1, 1),
            },
            chain: None,
            instances: 3,
            fresh_instances: true,
        },
        Workload {
            name: "comm_small_c64_2x1",
            why: "Small two-rank solve: most collectives per second of the four, so rendezvous \
                  latency and per-solve grid spawn weigh most; flat spectrum, grid orientation \
                  opposite to scale.",
            problem: Problem {
                shape: Shape::Uniform,
                n: 420 / d,
                nev: 36 / d,
                nex: 18 / d,
                grid: (2, 1),
            },
            chain: None,
            instances: 7,
            fresh_instances: true,
        },
        Workload {
            name: "scf_chain_2w",
            why: "Sequences through chase-serve: warm starts skip Lanczos, two solves run \
                  concurrently and contend for memory bandwidth and the allocator.",
            problem: Problem {
                shape: Shape::Dft,
                n: 240 / d,
                nev: 36 / d,
                nex: 18 / d,
                grid: (1, 1),
            },
            chain: Some(Chain {
                sessions: vec![("dft", Shape::Dft), ("bse", Shape::Bse)],
                steps: 4,
                eps: 3e-4,
                workers: 2,
            }),
            instances: 3,
            fresh_instances: false,
        },
    ]
}

/// Look a workload up by name.
pub fn find(name: &str, quick: bool) -> Option<Workload> {
    all(quick).into_iter().find(|w| w.name == name)
}
