//! Job descriptions and reports for the solve scheduler.

use chase_comm::GridShape;
use chase_core::{ChaseError, Params, RecoveryLog};
use chase_linalg::{Matrix, Scalar, SpectralBounds};
use chase_matgen::{dense_with_spectrum, perturb_hermitian, Spectrum};
use chase_trace::Trace;
use std::sync::Arc;

/// Scheduler-assigned job handle (monotone per scheduler instance).
pub type JobId = u64;

/// Tags a job as step `step` of the correlated sequence `id`: the session
/// cache hands step `k`'s eigenpairs to step `k + 1` automatically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SessionTag {
    pub id: String,
    pub step: usize,
}

/// Named spectrum shapes for generated (synthetic) workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpectrumKind {
    Uniform,
    Dft,
    Bse,
    Geometric,
}

impl SpectrumKind {
    pub fn build(self, n: usize) -> Spectrum {
        match self {
            SpectrumKind::Uniform => Spectrum::uniform(n, -1.0, 1.0),
            SpectrumKind::Dft => Spectrum::dft_like(n),
            SpectrumKind::Bse => Spectrum::bse_like(n),
            SpectrumKind::Geometric => Spectrum::geometric(n, 1e-3, 1.0),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            SpectrumKind::Uniform => "uniform",
            SpectrumKind::Dft => "dft",
            SpectrumKind::Bse => "bse",
            SpectrumKind::Geometric => "geometric",
        }
    }
}

impl std::str::FromStr for SpectrumKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "uniform" => Ok(SpectrumKind::Uniform),
            "dft" => Ok(SpectrumKind::Dft),
            "bse" => Ok(SpectrumKind::Bse),
            "geometric" => Ok(SpectrumKind::Geometric),
            other => Err(format!(
                "unknown spectrum '{other}' (uniform|dft|bse|geometric)"
            )),
        }
    }
}

/// Deterministic on-demand matrix: a spectrum surrogate perturbed
/// `perturb_steps` times — step `k` of a synthetic SCF chain.
#[derive(Debug, Clone)]
pub struct GenSpec {
    pub n: usize,
    pub spectrum: SpectrumKind,
    pub seed: u64,
    /// SCF chain position: how many successive Hermitian perturbations of
    /// strength `eps` to apply to the base matrix.
    pub perturb_steps: usize,
    pub eps: f64,
}

impl GenSpec {
    pub fn materialize<T: Scalar>(&self) -> Matrix<T> {
        let mut h = dense_with_spectrum::<T>(&self.spectrum.build(self.n), self.seed);
        for k in 0..self.perturb_steps {
            h = perturb_hermitian(&h, self.eps, self.seed ^ 0x5eed_0000 ^ k as u64);
        }
        h
    }
}

/// Where a job's Hermitian matrix comes from.
#[derive(Debug, Clone)]
pub enum MatrixSource<T: Scalar> {
    /// Shared in-memory matrix (e.g. loaded from a `.chasemat` file once).
    InMemory(Arc<Matrix<T>>),
    /// Generated on demand inside the worker (deterministic in the spec).
    Generated(GenSpec),
}

impl<T: Scalar> MatrixSource<T> {
    pub fn n(&self) -> usize {
        match self {
            MatrixSource::InMemory(m) => m.rows(),
            MatrixSource::Generated(g) => g.n,
        }
    }

    pub fn materialize(&self) -> Arc<Matrix<T>> {
        match self {
            MatrixSource::InMemory(m) => m.clone(),
            MatrixSource::Generated(g) => Arc::new(g.materialize()),
        }
    }
}

/// One solve request. Scheduling decisions depend only on the fields here
/// (never on submission order or wall clock), so a job set produces
/// bitwise-identical results however it is interleaved.
#[derive(Debug, Clone)]
pub struct JobSpec<T: Scalar> {
    /// Stable identity; the final tie-break of the canonical order. Make it
    /// unique per (session, step) — duplicates are rejected at submit.
    pub name: String,
    pub matrix: MatrixSource<T>,
    pub params: Params,
    /// Rank grid the worker runs this solve on.
    pub grid: GridShape,
    pub session: Option<SessionTag>,
    /// 0..=9, higher dispatches first.
    pub priority: u8,
    /// Virtual-tick deadline; a job whose simulated start would exceed it
    /// is dropped with [`JobOutcome::DeadlineMissed`] instead of running.
    pub deadline: Option<u64>,
    /// Virtual duration for the tick simulation; defaults to `n * ne`.
    pub cost_hint: Option<u64>,
}

impl<T: Scalar> JobSpec<T> {
    /// A standalone job with default knobs (priority 4, no deadline).
    pub fn new(name: impl Into<String>, matrix: MatrixSource<T>, params: Params) -> Self {
        Self {
            name: name.into(),
            matrix,
            params,
            grid: GridShape::new(1, 1),
            session: None,
            priority: 4,
            deadline: None,
            cost_hint: None,
        }
    }

    /// Tag this job as step `step` of session `id`.
    pub fn in_session(mut self, id: impl Into<String>, step: usize) -> Self {
        self.session = Some(SessionTag {
            id: id.into(),
            step,
        });
        self
    }

    /// Virtual duration used by the tick simulation.
    pub fn cost(&self) -> u64 {
        self.cost_hint
            .unwrap_or((self.matrix.n() * self.params.ne()) as u64)
            .max(1)
    }

    /// Bytes the session cache pays to keep this job's output resident
    /// (the `n x nev` eigenvector block plus the spectral bounds).
    pub fn cache_bytes(&self) -> usize {
        self.matrix.n() * self.params.nev * std::mem::size_of::<T>()
            + std::mem::size_of::<SpectralBounds<T::Real>>()
    }

    /// Total order key for deterministic scheduling: priority first (higher
    /// is more urgent), then earliest deadline, then session/step/name.
    /// Independent of submission order by construction.
    pub(crate) fn canon_key(&self) -> (u8, u64, String, usize, String) {
        let (sid, step) = match &self.session {
            Some(s) => (s.id.clone(), s.step),
            None => (self.name.clone(), 0),
        };
        (
            u8::MAX - self.priority,
            self.deadline.unwrap_or(u64::MAX),
            sid,
            step,
            self.name.clone(),
        )
    }
}

/// How a job's initial subspace was sourced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmKind {
    /// Random start (first step of a session, standalone job, or evicted
    /// cache entry).
    Cold,
    /// Started from the session cache (previous eigenvectors + bounds).
    Warm,
    /// The plan promised a warm start but the predecessor failed; the job
    /// ran cold rather than poisoning the pool.
    FallbackCold,
}

/// Everything a successful solve returns to the submitter.
#[derive(Debug, Clone)]
pub struct SolveOutput<T: Scalar> {
    pub eigenvalues: Vec<T::Real>,
    pub residuals: Vec<T::Real>,
    /// Assembled global eigenvector block (`n x nev`).
    pub eigenvectors: Matrix<T>,
    pub bounds: SpectralBounds<T::Real>,
    pub matvecs: u64,
    pub iterations: usize,
    pub converged: bool,
    /// Guard-layer record (empty on a clean run).
    pub recovery: RecoveryLog,
    /// Resolved solve plan (provenance: manual, analytic, or measured plan
    /// database) when the scheduler tunes; `None` with tuning disabled.
    pub plan: Option<chase_core::SolvePlan>,
}

/// Terminal state of one job.
#[derive(Debug, Clone)]
pub enum JobOutcome<T: Scalar> {
    Done(SolveOutput<T>),
    /// The recovery ladder exhausted its budget; the error carries the
    /// recovery log. Siblings and the pool are unaffected.
    Failed(ChaseError),
    Cancelled,
    DeadlineMissed,
}

/// Per-job report handed back by [`crate::Scheduler::drain`].
#[derive(Debug, Clone)]
pub struct JobReport<T: Scalar> {
    pub id: JobId,
    pub name: String,
    pub session: Option<SessionTag>,
    pub outcome: JobOutcome<T>,
    pub warm: WarmKind,
    /// Virtual-tick schedule (deterministic; no wall clock).
    pub wait_ticks: u64,
    pub start_tick: u64,
    pub finish_tick: u64,
    /// Per-job structured trace when the scheduler records traces.
    pub trace: Option<Trace>,
}

impl<T: Scalar> JobReport<T> {
    pub fn solve(&self) -> Option<&SolveOutput<T>> {
        match &self.outcome {
            JobOutcome::Done(s) => Some(s),
            _ => None,
        }
    }

    pub fn failed(&self) -> Option<&ChaseError> {
        match &self.outcome {
            JobOutcome::Failed(e) => Some(e),
            _ => None,
        }
    }
}
