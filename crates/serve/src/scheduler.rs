//! The multi-tenant solve scheduler: a bounded worker pool over rank-grids,
//! fed from an admission-controlled queue, with a persistent warm-start
//! session cache.
//!
//! Execution model (async-free): `submit` enqueues, `drain` freezes the
//! batch, *plans* it deterministically (canonical order, deadline
//! admission, warm/cold walk — see [`crate::plan`]), then executes the plan
//! on `workers` OS threads. Workers only compute: every scheduler decision
//! is taken at plan time, so eigenpairs, warm-start hit counts and metrics
//! are bitwise independent of submission order and of which worker finishes
//! first. A failed job degrades its own session to a cold (or grandparent)
//! restart and never poisons siblings or the pool.

use crate::cache::SessionCache;
use crate::job::{JobId, JobOutcome, JobReport, JobSpec, SolveOutput, WarmKind};
use crate::metrics::ServeMetrics;
use crate::plan::{build_plan, Plan};
use chase_comm::Reduce;
use chase_core::{ChaseResult, RecoveryEventKind, WarmStart};
use chase_device::Backend;
use chase_linalg::Scalar;
use chase_trace::Trace;
use chase_tune::{solve_grid, GridRun, PlanChoice, PlanDb, TuneOptions};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Pool-level knobs. All defaults are deterministic.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Concurrent worker rank-grids.
    pub workers: usize,
    /// Session-cache byte budget (0 disables warm starts).
    pub cache_bytes: usize,
    /// Admission control: submits beyond this queue depth are rejected.
    pub max_queue: usize,
    pub backend: Backend,
    /// Record one structured trace stream per job.
    pub record_traces: bool,
    /// Autotune solve plans: a session's first cold solve runs measurement
    /// trials and writes the shared plan DB; every later solve with the
    /// same key reuses the entry with zero trials. `None` disables tuning
    /// (the pre-tuner analytic defaults apply).
    pub tune: Option<TuneOptions>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            cache_bytes: 256 << 20,
            max_queue: 1024,
            backend: Backend::Nccl,
            record_traces: false,
            tune: None,
        }
    }
}

/// Why a submit was refused (backpressure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at `max_queue`; resubmit after a drain.
    QueueFull { capacity: usize },
    /// Job names are the deterministic tie-break and must be unique among
    /// queued jobs.
    DuplicateName(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} jobs): backpressure, drain first")
            }
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
    /// `max_queue == 0`: no job could ever be admitted.
    NoQueue,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoWorkers => write!(f, "a scheduler needs at least one worker"),
            ConfigError::NoQueue => write!(f, "a scheduler needs a queue of at least one job"),
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
    plans_tuned: u64,
    plan_db_hits: u64,
    remaining: usize,
}

/// The multi-tenant solve scheduler.
pub struct Scheduler<T: Scalar + Reduce>
where
    T::Real: Reduce,
{
    cfg: SchedulerConfig,
    next_id: JobId,
    queue: Vec<Pending<T>>,
    cancelled: BTreeSet<JobId>,
    cache: SessionCache,
    store: BTreeMap<String, StoreEntry<T>>,
    /// Per-session cold baseline MatVecs (first cold completion) — the
    /// in-band reference for `matvecs_saved`.
    baselines: BTreeMap<String, u64>,
    /// Measured plan database shared by every worker. Lookups and inserts
    /// take the lock briefly; trials run outside it. Tuning is a
    /// deterministic function of the key, so concurrent misses on the same
    /// key produce identical entries and insertion is idempotent.
    plan_db: Arc<Mutex<PlanDb>>,
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
        if cfg.max_queue == 0 {
            return Err(ConfigError::NoQueue);
        }
        let cache = SessionCache::new(cfg.cache_bytes);
        Ok(Self {
            cfg,
            next_id: 1,
            queue: Vec::new(),
            cancelled: BTreeSet::new(),
            cache,
            store: BTreeMap::new(),
            baselines: BTreeMap::new(),
            plan_db: Arc::new(Mutex::new(PlanDb::new())),
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

    /// Seed the shared plan DB (e.g. loaded from disk before the first
    /// drain); solves whose key is present skip tuning entirely.
    pub fn set_plan_db(&mut self, db: PlanDb) {
        *self.plan_db.lock() = db;
    }

    /// Snapshot the shared plan DB (e.g. to persist after a drain).
    pub fn plan_db_snapshot(&self) -> PlanDb {
        self.plan_db.lock().clone()
    }

    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Resident `(session, step)` warm entries, deterministic order.
    pub fn cache_resident(&self) -> Vec<(String, usize)> {
        self.cache.resident()
    }

    /// Enqueue a job; rejects on backpressure or a duplicate name.
    pub fn submit(&mut self, spec: JobSpec<T>) -> Result<JobId, SubmitError> {
        if self.queue.iter().any(|p| p.spec.name == spec.name) {
            self.metrics.rejected += 1;
            return Err(SubmitError::DuplicateName(spec.name));
        }
        if self.queue.len() >= self.cfg.max_queue {
            self.metrics.rejected += 1;
            return Err(SubmitError::QueueFull {
                capacity: self.cfg.max_queue,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.metrics.submitted += 1;
        self.queue.push(Pending { id, spec });
        Ok(id)
    }

    /// Cancel a queued (not yet drained) job. Returns whether it was found.
    pub fn cancel(&mut self, id: JobId) -> bool {
        if self.queue.iter().any(|p| p.id == id) {
            self.cancelled.insert(id);
            true
        } else {
            false
        }
    }

    /// Freeze the queued batch, plan it, execute it on the worker pool, and
    /// return one report per job (in submission-id order). The session
    /// cache and its warm payloads persist to the next drain.
    pub fn drain(&mut self) -> Vec<JobReport<T>> {
        self.metrics.drains += 1;
        let pending = std::mem::take(&mut self.queue);
        let mut reports: Vec<JobReport<T>> = Vec::new();
        let mut batch: Vec<Pending<T>> = Vec::new();
        for p in pending {
            if self.cancelled.remove(&p.id) {
                self.metrics.cancelled += 1;
                reports.push(JobReport {
                    id: p.id,
                    name: p.spec.name.clone(),
                    session: p.spec.session.clone(),
                    outcome: JobOutcome::Cancelled,
                    warm: WarmKind::Cold,
                    wait_ticks: 0,
                    start_tick: 0,
                    finish_tick: 0,
                    trace: None,
                });
            } else {
                batch.push(p);
            }
        }

        let specs: Vec<JobSpec<T>> = batch.iter().map(|p| p.spec.clone()).collect();
        let cache_before = self.cache.stats;
        let (plan, sim) = build_plan(&specs, self.cfg.workers, &mut self.cache);
        self.metrics.absorb_cache(cache_before, self.cache.stats);
        self.metrics.makespan_ticks += sim.makespan;
        self.metrics.total_wait_ticks += sim.total_wait;
        self.metrics.max_queue_depth = self.metrics.max_queue_depth.max(sim.max_queue_depth as u64);

        let results = self.execute(&specs, &plan);

        // Fold outcomes in canonical order so every counter update is
        // deterministic, then reconcile policy cache and payload store.
        let mut exec_results = results;
        for &i in &plan.order {
            let r = exec_results[i].as_ref().expect("planned job not executed");
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
                JobOutcome::Cancelled | JobOutcome::DeadlineMissed => {}
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

        // Per-job reports.
        for (k, p) in batch.into_iter().enumerate() {
            let slot = sim.jobs[k];
            let r = exec_results[k].take().unwrap_or(ExecResult {
                outcome: JobOutcome::DeadlineMissed,
                warm: WarmKind::Cold,
                trace: None,
            });
            if matches!(r.outcome, JobOutcome::DeadlineMissed) {
                self.metrics.deadline_missed += 1;
            }
            reports.push(JobReport {
                id: p.id,
                name: p.spec.name,
                session: p.spec.session,
                outcome: r.outcome,
                warm: r.warm,
                wait_ticks: slot.wait,
                start_tick: slot.start,
                finish_tick: slot.finish,
                trace: r.trace,
            });
        }
        reports.sort_by_key(|r| r.id);
        reports
    }

    /// Execute the planned jobs on the worker pool. Returns one slot per
    /// batch index (None for deadline-missed jobs).
    fn execute(&mut self, specs: &[JobSpec<T>], plan: &Plan) -> Vec<Option<ExecResult<T>>> {
        let n = specs.len();
        let exec_count = plan.run.iter().filter(|r| **r).count();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut deps_left = vec![0usize; n];
        let mut ready: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (i, dep) in plan.dep.iter().enumerate() {
            if !plan.run[i] {
                continue;
            }
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
            plans_tuned: 0,
            plan_db_hits: 0,
            remaining: exec_count,
        });
        let cv = Condvar::new();
        let workers = self.cfg.workers.min(exec_count.max(1));
        let backend = self.cfg.backend;
        let record_traces = self.cfg.record_traces;
        let tune = self.cfg.tune.clone();
        let plan_db = self.plan_db.clone();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // Claim the lowest-canonical ready job.
                    let (idx, warm_payload, warm_kind) = {
                        let mut g = shared.lock();
                        let claimed = loop {
                            if g.remaining == 0 {
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

                    let (outcome, trace, tuned) = run_job(
                        &specs[idx],
                        warm_payload.as_deref(),
                        backend,
                        record_traces,
                        tune.as_ref(),
                        &plan_db,
                    );

                    let mut g = shared.lock();
                    match tuned {
                        Some(true) => g.plans_tuned += 1,
                        Some(false) => g.plan_db_hits += 1,
                        None => {}
                    }
                    if let Some(tag) = &specs[idx].session {
                        if let JobOutcome::Done(s) = &outcome {
                            g.store.insert(
                                tag.id.clone(),
                                StoreEntry {
                                    step: tag.step,
                                    bytes: specs[idx].cache_bytes(),
                                    warm: Arc::new(WarmStart {
                                        v0: s.eigenvectors.clone(),
                                        bounds: Some(s.bounds),
                                    }),
                                },
                            );
                        }
                        // On failure the predecessor's entry (if any) stays:
                        // later steps degrade to the last good subspace.
                    }
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
        self.store = inner.store;
        self.metrics.warm_fallbacks += inner.warm_fallbacks;
        self.metrics.plans_tuned += inner.plans_tuned;
        self.metrics.plan_db_hits += inner.plan_db_hits;
        inner.results
    }
}

/// Run one job on its own rank grid. Pure with respect to scheduler state:
/// everything it needs arrives as arguments, everything it learns leaves in
/// the return value (plus an idempotent plan-DB insert when it tuned).
///
/// A job whose fault spec plans a rank crash runs elastic inside
/// [`solve_grid`]: the crash shrinks the grid and the solve resumes from
/// the job's checkpoint directory (cold from iteration 0 without one), the
/// survivors' results assemble exactly like a normal solve because together
/// they still cover every row of the shrunk layout, and no plan is tuned or
/// applied — one keyed to the original grid would be wrong for the shrunk.
///
/// The third return reports plan resolution: `Some(true)` = this job ran
/// measurement trials (cold DB), `Some(false)` = reused a DB entry with
/// zero trials, `None` = no plan (tuning disabled, or an elastic run).
fn run_job<T: Scalar + Reduce>(
    spec: &JobSpec<T>,
    warm: Option<&WarmStart<T>>,
    backend: Backend,
    record_traces: bool,
    tune: Option<&TuneOptions>,
    plan_db: &Mutex<PlanDb>,
) -> (JobOutcome<T>, Option<Trace>, Option<bool>)
where
    T::Real: Reduce,
{
    let h = spec.matrix.materialize();
    let params = &spec.params;
    // Plan phase: decide hit-vs-tune once, before the SPMD region, so every
    // rank of the grid agrees (a per-rank DB lookup could straddle another
    // worker's insert and deadlock the grid's collectives).
    let plan = tune.map(|opts| {
        let db = plan_db.lock();
        PlanChoice::lookup::<T>(&db, opts, spec.grid, h.rows(), params.nev, params.nex)
    });
    let mut out = solve_grid(
        &h,
        params,
        &GridRun {
            backend,
            warm,
            trace: record_traces,
            plan: plan.as_ref(),
            ..GridRun::new(spec.grid)
        },
    );
    let trace = out.trace.take();
    let tuned = out.tuned.take().map(|t| match plan {
        Some(PlanChoice::Tune(_)) => {
            // Freshly measured (world-agreed, identical on every rank):
            // publish so later solves with this key run zero trials.
            plan_db.lock().insert(t.entry);
            true
        }
        _ => false,
    });
    let outcome = match out.into_solved() {
        Err(e) => JobOutcome::Failed(e),
        Ok(oks) => {
            let eigenvectors = ChaseResult::assemble_eigenvectors(&oks);
            let r0 = oks.into_iter().next().expect("at least one rank");
            JobOutcome::Done(SolveOutput {
                eigenvalues: r0.eigenvalues,
                residuals: r0.residuals,
                eigenvectors,
                bounds: r0.bounds,
                matvecs: r0.matvecs,
                iterations: r0.iterations,
                converged: r0.converged,
                recovery: r0.recovery,
                plan: r0.plan,
            })
        }
    };
    (outcome, trace, tuned)
}
