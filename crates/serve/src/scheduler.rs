//! The sequence scheduler: a bounded worker pool over rank-grids with a
//! persistent warm-start session cache.
//!
//! Execution model (async-free): `submit` enqueues, `drain` freezes the
//! batch, *plans* it deterministically (canonical order and warm/cold walk —
//! see [`crate::plan`]), then executes the plan on `workers` OS threads.
//! Workers only compute: every scheduler decision is taken at plan time, so
//! eigenpairs, warm-start hit counts and metrics are bitwise independent of
//! submission order and of which worker finishes first. A failed job
//! degrades its own session to a cold (or grandparent) restart and never
//! poisons siblings or the pool.

use crate::cache::SessionCache;
use crate::job::{JobId, JobOutcome, JobReport, JobSpec, SolveOutput, WarmKind};
use crate::metrics::ServeMetrics;
use crate::plan::{build_plan, Plan};
use chase_comm::Reduce;
use chase_core::{ChaseResult, RecoveryEventKind, WarmStart};
use chase_linalg::Scalar;
use chase_trace::Trace;
use chase_tune::{solve_grid, GridRun};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Pool-level knobs. All defaults are deterministic. Every job runs on the
/// device-direct backend ([`chase_tune::GridRun::new`]'s).
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Concurrent worker rank-grids.
    pub workers: usize,
    /// Session-cache byte budget (0 disables warm starts).
    pub cache_bytes: usize,
    /// Record one structured trace stream per job.
    pub record_traces: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            cache_bytes: 256 << 20,
            record_traces: false,
        }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Job names are the deterministic tie-break and must be unique among
    /// queued jobs.
    DuplicateName(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::DuplicateName(n) => write!(f, "duplicate job name '{n}'"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A [`SchedulerConfig`] no pool can be built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0`: nothing would ever run a job.
    NoWorkers,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoWorkers => write!(f, "a scheduler needs at least one worker"),
        }
    }
}

impl std::error::Error for ConfigError {}

struct Pending<T: Scalar> {
    id: JobId,
    spec: JobSpec<T>,
}

/// Warm payload retained for a session between steps/drains.
struct StoreEntry<T: Scalar> {
    step: usize,
    bytes: usize,
    warm: Arc<WarmStart<T>>,
}

/// What one executed job hands back to the drain loop.
struct ExecResult<T: Scalar> {
    outcome: JobOutcome<T>,
    warm: WarmKind,
    trace: Option<Trace>,
}

struct ExecShared<T: Scalar> {
    ready: BTreeSet<(usize, usize)>,
    deps_left: Vec<usize>,
    results: Vec<Option<ExecResult<T>>>,
    store: BTreeMap<String, StoreEntry<T>>,
    warm_fallbacks: u64,
    remaining: usize,
    /// The first job that panicked: its payload stops the pool and is
    /// re-raised out of `drain` once every worker has returned.
    panic: Option<Box<dyn Any + Send>>,
}

/// The sequence scheduler.
pub struct Scheduler<T: Scalar + Reduce>
where
    T::Real: Reduce,
{
    cfg: SchedulerConfig,
    next_id: JobId,
    queue: Vec<Pending<T>>,
    cache: SessionCache,
    store: BTreeMap<String, StoreEntry<T>>,
    /// Per-session cold baseline MatVecs (first cold completion) — the
    /// in-band reference for `matvecs_saved`.
    baselines: BTreeMap<String, u64>,
    pub metrics: ServeMetrics,
}

impl<T: Scalar + Reduce> Scheduler<T>
where
    T::Real: Reduce,
{
    /// A pool for `cfg`, or why none can be built from it.
    pub fn try_new(cfg: SchedulerConfig) -> Result<Self, ConfigError> {
        if cfg.workers == 0 {
            return Err(ConfigError::NoWorkers);
        }
        let cache = SessionCache::new(cfg.cache_bytes);
        Ok(Self {
            cfg,
            next_id: 1,
            queue: Vec::new(),
            cache,
            store: BTreeMap::new(),
            baselines: BTreeMap::new(),
            metrics: ServeMetrics::default(),
        })
    }

    /// [`Scheduler::try_new`] for a configuration written in the program
    /// (one read from outside it goes through `try_new`).
    ///
    /// # Panics
    /// On a configuration `try_new` refuses.
    pub fn new(cfg: SchedulerConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Enqueue a job; rejects a duplicate name.
    pub fn submit(&mut self, spec: JobSpec<T>) -> Result<JobId, SubmitError> {
        if self.queue.iter().any(|p| p.spec.name == spec.name) {
            self.metrics.rejected += 1;
            return Err(SubmitError::DuplicateName(spec.name));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.metrics.submitted += 1;
        self.queue.push(Pending { id, spec });
        Ok(id)
    }

    /// Freeze the queued batch, plan it, execute it on the worker pool, and
    /// return one report per job (in submission-id order). The session
    /// cache and its warm payloads persist to the next drain.
    ///
    /// # Panics
    /// When a job panics (a `--no-guards` solve meeting a NaN): the other
    /// workers finish the job they hold and stop, and the first job's panic
    /// is re-raised here.
    pub fn drain(&mut self) -> Vec<JobReport<T>> {
        self.metrics.drains += 1;
        let batch = std::mem::take(&mut self.queue);
        let specs: Vec<JobSpec<T>> = batch.iter().map(|p| p.spec.clone()).collect();
        let cache_before = self.cache.stats;
        let plan = build_plan(&specs, &mut self.cache);
        self.metrics.absorb_cache(cache_before, self.cache.stats);

        let results = self.execute(&specs, &plan);

        // Fold outcomes in canonical order so every counter update is
        // deterministic, then reconcile policy cache and payload store.
        for &i in &plan.order {
            let r = &results[i];
            let tag = specs[i].session.clone();
            match &r.outcome {
                JobOutcome::Done(s) => {
                    self.metrics.completed += 1;
                    if !s.converged {
                        self.metrics.unconverged += 1;
                    }
                    if s.recovery
                        .any(|k| matches!(k, RecoveryEventKind::GridShrunk { .. }))
                    {
                        // The job lost a rank mid-solve and still completed:
                        // the elastic retry on the shrunk pool paid off.
                        self.metrics.rank_crash_retries += 1;
                    }
                    self.metrics.total_matvecs += s.matvecs;
                    match r.warm {
                        WarmKind::Warm => {
                            self.metrics.lanczos_skipped += 1;
                            if let Some(tag) = &tag {
                                if let Some(base) = self.baselines.get(&tag.id) {
                                    self.metrics.matvecs_saved += base.saturating_sub(s.matvecs);
                                }
                            }
                        }
                        WarmKind::Cold => {
                            self.metrics.cold_starts += 1;
                            if let Some(tag) = &tag {
                                self.baselines.entry(tag.id.clone()).or_insert(s.matvecs);
                            }
                        }
                        WarmKind::FallbackCold => {
                            self.metrics.cold_starts += 1;
                        }
                    }
                }
                JobOutcome::Failed(_) => self.metrics.failed += 1,
            }
        }

        // Policy/payload reconciliation: the plan's shadow entries assumed
        // every producing job succeeds. Repair sessions whose payload is
        // missing (failure) or from an older step (failure after a good
        // step), then drop payloads the policy evicted.
        for (sid, meta_step) in self.cache.resident() {
            match self.store.get(&sid) {
                // Only sessions touched this drain can be inconsistent.
                None if specs
                    .iter()
                    .any(|s| s.session.as_ref().is_some_and(|t| t.id == sid)) =>
                {
                    self.cache.remove(&sid);
                }
                Some(e) if e.step != meta_step => {
                    let bytes = e.bytes;
                    let step = e.step;
                    self.cache.remove(&sid);
                    self.cache.insert(&sid, step, bytes);
                }
                _ => {}
            }
        }
        let cache_ref = &self.cache;
        self.store.retain(|sid, e| cache_ref.contains(sid, e.step));

        // Per-job reports, in submission order.
        batch
            .into_iter()
            .zip(results)
            .map(|(p, r)| JobReport {
                id: p.id,
                name: p.spec.name,
                session: p.spec.session,
                outcome: r.outcome,
                warm: r.warm,
                trace: r.trace,
            })
            .collect()
    }

    /// Execute the planned jobs on the worker pool. Returns one result per
    /// batch index.
    fn execute(&mut self, specs: &[JobSpec<T>], plan: &Plan) -> Vec<ExecResult<T>> {
        let n = specs.len();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut deps_left = vec![0usize; n];
        let mut ready: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (i, dep) in plan.dep.iter().enumerate() {
            match dep {
                Some(d) => {
                    dependents[*d].push(i);
                    deps_left[i] = 1;
                }
                None => {
                    ready.insert((plan.canon[i], i));
                }
            }
        }
        let shared = Mutex::new(ExecShared {
            ready,
            deps_left,
            results: (0..n).map(|_| None).collect(),
            store: std::mem::take(&mut self.store),
            warm_fallbacks: 0,
            remaining: n,
            panic: None,
        });
        let cv = Condvar::new();
        let workers = self.cfg.workers.min(n.max(1));
        let record_traces = self.cfg.record_traces;

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // Claim the lowest-canonical ready job.
                    let (idx, warm_payload, warm_kind) = {
                        let mut g = shared.lock();
                        let claimed = loop {
                            if g.remaining == 0 || g.panic.is_some() {
                                return;
                            }
                            if let Some(&(c, i)) = g.ready.iter().next() {
                                g.ready.remove(&(c, i));
                                break i;
                            }
                            cv.wait(&mut g);
                        };
                        let (payload, kind) = if specs[claimed].params.plans_rank_crash() {
                            // A crash-spec'd job runs the elastic path and
                            // resumes from its own checkpoints, not the
                            // session cache: the warm payload would be laid
                            // out for the pre-crash grid. Degrade planned
                            // warm starts down the ladder.
                            if plan.warm[claimed] {
                                g.warm_fallbacks += 1;
                                (None, WarmKind::FallbackCold)
                            } else {
                                (None, WarmKind::Cold)
                            }
                        } else if plan.warm[claimed] {
                            let tag = specs[claimed].session.as_ref().unwrap();
                            match g.store.get(&tag.id) {
                                Some(e) if e.step < tag.step => {
                                    (Some(e.warm.clone()), WarmKind::Warm)
                                }
                                _ => {
                                    // Predecessor failed: degrade to a cold
                                    // start instead of waiting or poisoning.
                                    g.warm_fallbacks += 1;
                                    (None, WarmKind::FallbackCold)
                                }
                            }
                        } else {
                            (None, WarmKind::Cold)
                        };
                        (claimed, payload, kind)
                    };

                    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_job(&specs[idx], warm_payload.as_deref(), record_traces)
                    }));

                    let mut g = shared.lock();
                    let (outcome, handoff, trace) = match ran {
                        Ok(done) => done,
                        Err(payload) => {
                            g.panic.get_or_insert(payload);
                            cv.notify_all();
                            return;
                        }
                    };
                    if let (Some(tag), Some(warm)) = (&specs[idx].session, handoff) {
                        g.store.insert(
                            tag.id.clone(),
                            StoreEntry {
                                step: tag.step,
                                bytes: specs[idx].cache_bytes(),
                                warm: Arc::new(warm),
                            },
                        );
                    }
                    // On failure the predecessor's entry (if any) stays:
                    // later steps degrade to the last good subspace.
                    g.results[idx] = Some(ExecResult {
                        outcome,
                        warm: warm_kind,
                        trace,
                    });
                    g.remaining -= 1;
                    for &d in &dependents[idx] {
                        g.deps_left[d] -= 1;
                        if g.deps_left[d] == 0 {
                            g.ready.insert((plan.canon[d], d));
                        }
                    }
                    cv.notify_all();
                });
            }
        });

        let inner = shared.into_inner();
        if let Some(payload) = inner.panic {
            std::panic::resume_unwind(payload);
        }
        self.store = inner.store;
        self.metrics.warm_fallbacks += inner.warm_fallbacks;
        inner
            .results
            .into_iter()
            .map(|r| r.expect("every planned job runs"))
            .collect()
    }
}

/// Run one job on its own rank grid (device-direct backend). Pure with
/// respect to scheduler state: everything it needs arrives as arguments,
/// everything it learns leaves in the return value — for a solved session
/// step also the hand-off to its next step, the `n x ne` final search
/// space, which the session store takes by move.
///
/// A job whose fault spec plans a rank crash runs elastic inside
/// [`solve_grid`]: the crash shrinks the grid and the solve resumes from
/// the job's checkpoint directory (cold from iteration 0 without one), and
/// the survivors' results assemble exactly like a normal solve because
/// together they still cover every row of the shrunk layout.
fn run_job<T: Scalar + Reduce>(
    spec: &JobSpec<T>,
    warm: Option<&WarmStart<T>>,
    record_traces: bool,
) -> (JobOutcome<T>, Option<WarmStart<T>>, Option<Trace>)
where
    T::Real: Reduce,
{
    let h = spec.matrix.materialize();
    let mut out = solve_grid(
        &h,
        &spec.params,
        &GridRun {
            warm,
            trace: record_traces,
            ..GridRun::new(spec.grid)
        },
    );
    let trace = out.trace.take();
    let (outcome, handoff) = match out.into_solved() {
        Err(e) => (JobOutcome::Failed(e), None),
        Ok(oks) => {
            let (eigenvectors, handoff) = if spec.session.is_some() {
                let warm = WarmStart::from_results(&oks);
                (warm.v0.copy_cols(0..spec.params.nev), Some(warm))
            } else {
                (ChaseResult::assemble_eigenvectors(&oks), None)
            };
            let r0 = oks.into_iter().next().expect("at least one rank");
            let done = JobOutcome::Done(SolveOutput {
                eigenvalues: r0.eigenvalues,
                residuals: r0.residuals,
                eigenvectors,
                bounds: r0.bounds,
                matvecs: r0.matvecs,
                iterations: r0.iterations,
                converged: r0.converged,
                recovery: r0.recovery,
            });
            (done, handoff)
        }
    };
    (outcome, handoff, trace)
}
