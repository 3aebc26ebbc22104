//! The `chase-serve` determinism contract, end to end:
//!
//! 1. The same job set — submitted in any order, drained by any worker
//!    count — produces **bitwise-identical** eigenpairs and warm-start hit
//!    counts (the plan-then-execute design of `chase_serve::plan`).
//! 2. Warm-started session steps match the cold ablation within tolerance
//!    while spending strictly fewer MatVecs.
//! 3. A job whose injected fault exhausts the recovery ladder fails alone:
//!    every sibling's bits are unchanged and its own successor degrades to
//!    a cold start instead of blocking.
//!
//! Plus the scheduler's operational edges: LRU eviction under a byte
//! budget, admission control, cancellation, and virtual-tick deadlines.

use chase_core::{ChaseErrorKind, Params};
use chase_linalg::{Scalar, C64};
use chase_serve::{
    GenSpec, JobOutcome, JobSpec, MatrixSource, Scheduler, SchedulerConfig, SolveOutput,
    SpectrumKind, WarmKind,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

fn gen_job(
    name: &str,
    n: usize,
    spectrum: SpectrumKind,
    gseed: u64,
    session: Option<(&str, usize)>,
) -> JobSpec<C64> {
    let mut params = Params::new(5, 3);
    params.tol = 1e-8;
    let perturb_steps = session.map_or(0, |(_, step)| step);
    let mut spec = JobSpec::new(
        name,
        MatrixSource::Generated(GenSpec {
            n,
            spectrum,
            seed: gseed,
            perturb_steps,
            eps: 1e-3,
        }),
        params,
    );
    if let Some((sid, step)) = session {
        spec = spec.in_session(sid, step);
    }
    spec
}

/// A mixed multi-tenant batch: two sessions of different lengths plus two
/// standalone jobs at different priorities.
fn mixed_jobs() -> Vec<JobSpec<C64>> {
    let mut jobs = Vec::new();
    for step in 0..3 {
        jobs.push(gen_job(
            &format!("a{step}"),
            64,
            SpectrumKind::Dft,
            7,
            Some(("alpha", step)),
        ));
    }
    for step in 0..2 {
        jobs.push(gen_job(
            &format!("b{step}"),
            48,
            SpectrumKind::Bse,
            9,
            Some(("beta", step)),
        ));
    }
    let mut hot = gen_job("solo-hot", 40, SpectrumKind::Uniform, 3, None);
    hot.priority = 9;
    jobs.push(hot);
    let mut cool = gen_job("solo-cool", 40, SpectrumKind::Geometric, 4, None);
    cool.priority = 1;
    jobs.push(cool);
    jobs
}

/// Exact bit pattern of a solve: eigenvalues and the assembled eigenvector
/// block, down to the sign of zero.
fn fingerprint(out: &SolveOutput<C64>) -> Vec<u64> {
    let mut bits: Vec<u64> = out.eigenvalues.iter().map(|v| v.to_bits()).collect();
    for z in out.eigenvectors.as_slice() {
        bits.push(z.re().to_bits());
        bits.push(z.im().to_bits());
    }
    bits
}

/// Deterministic Fisher–Yates (splitmix-style stream; no RNG dependency).
fn shuffle<T>(v: &mut [T], mut s: u64) {
    for i in (1..v.len()).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((s >> 33) as usize) % (i + 1);
        v.swap(i, j);
    }
}

type RunDigest = (BTreeMap<String, (Vec<u64>, WarmKind)>, u64);

/// Submit `jobs` in the given order, drain with `workers`, and digest the
/// outcome: per-name bit fingerprints + warm kinds, and the warm-hit count.
fn run_batch(jobs: Vec<JobSpec<C64>>, workers: usize) -> RunDigest {
    let mut sched: Scheduler<C64> = Scheduler::new(SchedulerConfig {
        workers,
        ..SchedulerConfig::default()
    });
    for j in jobs {
        sched.submit(j).expect("admission");
    }
    let mut digest = BTreeMap::new();
    for r in sched.drain() {
        let out = r
            .solve()
            .unwrap_or_else(|| panic!("job {} not done", r.name));
        digest.insert(r.name.clone(), (fingerprint(out), r.warm));
    }
    (digest, sched.metrics.warm_hits)
}

fn reference_run() -> &'static RunDigest {
    static REF: OnceLock<RunDigest> = OnceLock::new();
    REF.get_or_init(|| run_batch(mixed_jobs(), 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Acceptance (b): bitwise independence of submission order and pool
    /// size. Every permutation × worker count must reproduce the one-worker
    /// identity-order run exactly — eigenvalue bits, eigenvector bits, warm
    /// kinds, and the warm-hit counter.
    #[test]
    fn results_bitwise_independent_of_order_and_workers(
        seed in 0u64..1_000_000,
        workers in 1usize..4,
    ) {
        let mut jobs = mixed_jobs();
        shuffle(&mut jobs, seed);
        let (digest, hits) = run_batch(jobs, workers);
        let (ref_digest, ref_hits) = reference_run();
        prop_assert_eq!(&digest, ref_digest,
            "digests diverged (seed {}, workers {})", seed, workers);
        prop_assert_eq!(hits, *ref_hits, "warm-hit count diverged");
    }
}

/// Acceptance (a): warm-started steps agree with the cold ablation within
/// tolerance and spend strictly fewer filter MatVecs; the cached spectral
/// bounds actually skip the Lanczos estimate.
#[test]
fn warm_matches_cold_with_strictly_fewer_matvecs() {
    let chain: Vec<JobSpec<C64>> = (0..3)
        .map(|step| {
            gen_job(
                &format!("s{step}"),
                72,
                SpectrumKind::Dft,
                5,
                Some(("scf", step)),
            )
        })
        .collect();

    let (warm, warm_hits) = run_batch(chain.clone(), 2);
    let mut cold_pool: Scheduler<C64> = Scheduler::new(SchedulerConfig {
        cache_bytes: 0,
        ..SchedulerConfig::default()
    });
    for j in chain {
        cold_pool.submit(j).unwrap();
    }
    let cold = cold_pool.drain();
    assert_eq!(warm_hits, 2);

    for r in &cold {
        let c = r.solve().expect("cold step done");
        let (w_bits, w_kind) = &warm[&r.name];
        let step = r.session.as_ref().unwrap().step;
        if step == 0 {
            assert_eq!(*w_kind, WarmKind::Cold);
            assert_eq!(w_bits, &fingerprint(c), "step 0 has no cache to draw on");
        } else {
            assert_eq!(*w_kind, WarmKind::Warm);
            // Same spectrum within tolerance...
            let w_vals: Vec<f64> = w_bits[..c.eigenvalues.len()]
                .iter()
                .map(|b| f64::from_bits(*b))
                .collect();
            for (wv, cv) in w_vals.iter().zip(&c.eigenvalues) {
                assert!((wv - cv).abs() < 1e-6, "step {step}: {wv} vs {cv}");
            }
        }
    }
    // ...for strictly fewer MatVecs on every warm step.
    let cold_mv: BTreeMap<usize, u64> = cold
        .iter()
        .map(|r| (r.session.as_ref().unwrap().step, r.solve().unwrap().matvecs))
        .collect();
    // Re-run the warm chain to read matvecs (digest only kept bits).
    let mut pool: Scheduler<C64> = Scheduler::new(SchedulerConfig::default());
    for step in 0..3 {
        pool.submit(gen_job(
            &format!("s{step}"),
            72,
            SpectrumKind::Dft,
            5,
            Some(("scf", step)),
        ))
        .unwrap();
    }
    for r in pool.drain() {
        let s = r.solve().unwrap();
        let step = r.session.as_ref().unwrap().step;
        if step > 0 {
            assert!(
                s.matvecs < cold_mv[&step],
                "step {step}: warm {} !< cold {}",
                s.matvecs,
                cold_mv[&step]
            );
            assert!(s.bounds.b_sup.is_finite());
        }
    }
    assert!(
        pool.metrics.lanczos_skipped == 2,
        "bounds reuse not engaged"
    );
    assert!(pool.metrics.matvecs_saved > 0);
}

/// Acceptance (c): one poisoned job — an injected fault with the re-filter
/// budget at zero — fails alone. Every sibling is bitwise identical to the
/// run without the poisoned job; the poisoned session's next step falls
/// back to a cold start instead of blocking or dying.
#[test]
fn faulted_job_never_poisons_siblings() {
    let siblings = || {
        vec![
            gen_job("a0", 64, SpectrumKind::Dft, 7, Some(("alpha", 0))),
            gen_job("a1", 64, SpectrumKind::Dft, 7, Some(("alpha", 1))),
            gen_job("lone", 40, SpectrumKind::Uniform, 3, None),
        ]
    };

    // Clean reference: no poisoned job at all.
    let (clean, _) = run_batch(siblings(), 2);

    // Faulted run: the same siblings plus a two-step session whose first
    // step dies on an unrecoverable injected corruption.
    let mut poison = gen_job("p0", 48, SpectrumKind::Uniform, 11, Some(("faulty", 0)));
    poison.params.inject = Some("seed=3;nan-block@iter=1,cols=1".parse().unwrap());
    poison.params.max_refilter = 0;
    let successor = gen_job("p1", 48, SpectrumKind::Uniform, 11, Some(("faulty", 1)));

    let mut sched: Scheduler<C64> = Scheduler::new(SchedulerConfig {
        workers: 2,
        ..SchedulerConfig::default()
    });
    let mut jobs = siblings();
    jobs.push(poison);
    jobs.push(successor);
    for j in jobs {
        sched.submit(j).unwrap();
    }
    let reports: BTreeMap<String, _> = sched
        .drain()
        .into_iter()
        .map(|r| (r.name.clone(), r))
        .collect();

    // The poisoned job failed with a typed error carrying its recovery log.
    let failed = reports["p0"].failed().expect("p0 must fail");
    assert!(!failed.recovery.is_empty(), "recovery log must be attached");

    // Its successor ran — cold, by fallback — and converged.
    let p1 = &reports["p1"];
    assert_eq!(p1.warm, WarmKind::FallbackCold);
    assert!(p1.solve().expect("successor must still run").converged);
    assert_eq!(sched.metrics.warm_fallbacks, 1);
    assert_eq!(sched.metrics.failed, 1);

    // Every sibling is bitwise identical to the clean run.
    for (name, (bits, kind)) in &clean {
        let r = &reports[name];
        assert_eq!(r.warm, *kind, "{name}: warm kind changed");
        assert_eq!(
            &fingerprint(r.solve().unwrap()),
            bits,
            "{name}: sibling bits perturbed by an unrelated fault"
        );
    }
}

/// The cache byte budget is enforced by deterministic LRU eviction, and an
/// evicted session simply restarts cold (correct, just slower).
#[test]
fn lru_eviction_keeps_budget_and_degrades_to_cold() {
    // Budget fits exactly one session's entry (n=64, nev=5 → 5248 bytes).
    let one_entry = 64 * 5 * std::mem::size_of::<C64>() + 64;
    let mut sched: Scheduler<C64> = Scheduler::new(SchedulerConfig {
        workers: 1,
        cache_bytes: one_entry,
        ..SchedulerConfig::default()
    });
    // The canonical order keeps one session's steps adjacent unless
    // priorities separate them; run both step-0s ahead of both step-1s so
    // the single-entry budget must evict each session between its steps.
    for step in 0..2 {
        for sid in ["x", "y"] {
            let mut j = gen_job(
                &format!("{sid}{step}"),
                64,
                SpectrumKind::Dft,
                13,
                Some((sid, step)),
            );
            j.priority = if step == 0 { 9 } else { 1 };
            sched.submit(j).unwrap();
        }
    }
    let reports = sched.drain();
    assert!(reports.iter().all(|r| r.solve().is_some()));
    let m = &sched.metrics;
    assert!(m.cache_evictions > 0, "budget never forced an eviction");
    assert!(
        m.cache_high_water_bytes <= one_entry as u64,
        "cache exceeded its byte budget"
    );
    assert!(m.warm_misses > 0, "evicted sessions must re-miss");
    assert_eq!(m.completed, 4, "eviction must never drop a job");
}

#[test]
fn admission_control_applies_backpressure() {
    let mut sched: Scheduler<C64> = Scheduler::new(SchedulerConfig {
        max_queue: 2,
        ..SchedulerConfig::default()
    });
    sched
        .submit(gen_job("q0", 32, SpectrumKind::Uniform, 1, None))
        .unwrap();
    sched
        .submit(gen_job("q1", 32, SpectrumKind::Uniform, 2, None))
        .unwrap();
    let err = sched
        .submit(gen_job("q2", 32, SpectrumKind::Uniform, 3, None))
        .expect_err("third submit must bounce");
    assert!(matches!(
        err,
        chase_serve::SubmitError::QueueFull { capacity: 2 }
    ));
    let dup = sched
        .submit(gen_job("q1", 32, SpectrumKind::Uniform, 4, None))
        .expect_err("duplicate name must bounce");
    assert!(matches!(dup, chase_serve::SubmitError::DuplicateName(_)));
    assert_eq!(sched.metrics.rejected, 2);
    // After a drain the queue has room again.
    sched.drain();
    sched
        .submit(gen_job("q2", 32, SpectrumKind::Uniform, 3, None))
        .expect("queue drained, submit must pass");
    // A pool that could never run or admit a job is refused up front, typed.
    for (workers, max_queue, want) in [
        (0, 2, chase_serve::ConfigError::NoWorkers),
        (2, 0, chase_serve::ConfigError::NoQueue),
    ] {
        let refused = Scheduler::<C64>::try_new(SchedulerConfig {
            workers,
            max_queue,
            ..SchedulerConfig::default()
        });
        assert_eq!(refused.err(), Some(want));
    }
}

#[test]
fn cancellation_skips_the_job_without_holding_the_pool() {
    let mut sched: Scheduler<C64> = Scheduler::new(SchedulerConfig::default());
    let keep = sched
        .submit(gen_job("keep", 32, SpectrumKind::Uniform, 1, None))
        .unwrap();
    let kill = sched
        .submit(gen_job("kill", 32, SpectrumKind::Uniform, 2, None))
        .unwrap();
    assert!(sched.cancel(kill));
    assert!(!sched.cancel(999), "unknown id must report not-found");
    let reports = sched.drain();
    let by_id: BTreeMap<_, _> = reports.iter().map(|r| (r.id, r)).collect();
    assert!(matches!(by_id[&kill].outcome, JobOutcome::Cancelled));
    assert!(by_id[&keep].solve().is_some());
    assert_eq!(sched.metrics.cancelled, 1);
}

/// Deadlines live in virtual ticks: with one worker and a long job ahead of
/// it, a tightly-deadlined job is dropped unstarted — deterministically —
/// and reported as missed, not failed.
#[test]
fn deadline_miss_is_deterministic_and_typed() {
    let mut sched: Scheduler<C64> = Scheduler::new(SchedulerConfig {
        workers: 1,
        ..SchedulerConfig::default()
    });
    let mut long = gen_job("long", 48, SpectrumKind::Uniform, 1, None);
    long.priority = 9;
    long.cost_hint = Some(10_000);
    sched.submit(long).unwrap();
    let mut tight = gen_job("tight", 32, SpectrumKind::Uniform, 2, None);
    // Virtual ticks, but routed through the one timeout knob anyway
    // (CHASE_TEST_TIMEOUT_SCALE) so every timeout-bearing test scales
    // together; the long job's 10k-tick cost dwarfs any sane scale.
    tight.deadline = Some(chase_comm::scaled_timeout_ms(100));
    sched.submit(tight).unwrap();
    let reports = sched.drain();
    let tight_report = reports.iter().find(|r| r.name == "tight").unwrap();
    assert!(matches!(tight_report.outcome, JobOutcome::DeadlineMissed));
    assert_eq!(sched.metrics.deadline_missed, 1);
    assert_eq!(sched.metrics.completed, 1);
}

/// `precision=` went with the demoted filter: a line that still carries it
/// is refused by name, and the error points at that line, not the file.
#[test]
fn workload_refuses_the_precision_key() {
    let err = chase_serve::parse_workload(
        "gen name=ok n=48 spectrum=uniform nev=4\n\
         gen name=lo n=48 spectrum=uniform nev=4 tol=1e-2 precision=mixed\n",
    )
    .expect_err("precision= is not a workload key");
    assert_eq!(err, "line 2: unknown key 'precision' for a 'gen' line");
    assert!(chase_serve::validate_line("gen name=ok n=48 spectrum=uniform nev=4").is_ok());
}

/// A job whose fault spec plans a rank crash is routed through the elastic
/// driver: the crash shrinks its grid, the solve resumes from the job's own
/// checkpoints, the scheduler counts the retry, and — because the session
/// cache holds a payload laid out for the pre-crash grid — its planned warm
/// start degrades to `FallbackCold`. Siblings stay bitwise identical.
#[test]
fn rank_crash_job_retries_on_shrunk_pool() {
    use chase_core::RecoveryEventKind;

    let siblings = || {
        vec![
            gen_job("a0", 64, SpectrumKind::Dft, 7, Some(("alpha", 0))),
            gen_job("lone", 40, SpectrumKind::Uniform, 3, None),
        ]
    };
    let (clean, _) = run_batch(siblings(), 2);

    let dir = std::env::temp_dir().join(format!("chase-serve-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A two-step session: a clean first step primes the warm cache, then a
    // crash-spec'd second step on a 2x2 grid.
    let boot = gen_job("c0", 48, SpectrumKind::Uniform, 11, Some(("boom", 0)));
    let mut crashy = gen_job("c1", 48, SpectrumKind::Uniform, 11, Some(("boom", 1)));
    crashy.grid = chase_comm::GridShape::new(2, 2);
    crashy.params.inject = Some(
        "seed=11;rank-crash@iter=2,region=filter,rank=1"
            .parse()
            .unwrap(),
    );
    crashy.params.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
    crashy.params.checkpoint_every = 1;

    let mut sched: Scheduler<C64> = Scheduler::new(SchedulerConfig {
        workers: 2,
        ..SchedulerConfig::default()
    });
    let mut jobs = siblings();
    jobs.push(boot);
    jobs.push(crashy);
    for j in jobs {
        sched.submit(j).unwrap();
    }
    let reports: BTreeMap<String, _> = sched
        .drain()
        .into_iter()
        .map(|r| (r.name.clone(), r))
        .collect();

    // The crashed job completed on the shrunk pool, resumed from a real
    // snapshot, and its report carries the full recovery trail.
    let c1 = &reports["c1"];
    let out = c1.solve().expect("crash-spec'd job must complete");
    assert!(out.converged, "elastic retry must converge");
    assert!(
        out.recovery
            .any(|k| matches!(k, RecoveryEventKind::GridShrunk { .. })),
        "recovery log must show the shrink"
    );
    assert!(
        out.recovery
            .any(|k| matches!(k, RecoveryEventKind::CheckpointRestored { iter, .. } if *iter > 0)),
        "with checkpoint_every=1 the resume must restore a real snapshot"
    );
    assert_eq!(c1.warm, WarmKind::FallbackCold, "warm start must degrade");
    assert_eq!(sched.metrics.rank_crash_retries, 1);
    assert_eq!(sched.metrics.failed, 0);
    assert_eq!(sched.metrics.warm_fallbacks, 1);

    // Every sibling is bitwise identical to the crash-free run.
    for (name, (bits, kind)) in &clean {
        let r = &reports[name];
        assert_eq!(r.warm, *kind, "{name}: warm kind changed");
        assert_eq!(
            &fingerprint(r.solve().unwrap()),
            bits,
            "{name}: sibling bits perturbed by an unrelated crash"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A session step whose problem shape differs from the step that produced
/// its warm block — another `n`, or a subspace narrower than the cached
/// block — fails alone and typed, before any collective: the drain returns
/// a report for every job and the sibling's bits equal its solo run.
#[test]
fn mismatched_session_step_fails_typed_and_alone() {
    let sibling = || gen_job("lone", 40, SpectrumKind::Uniform, 3, None);
    let (solo, _) = run_batch(vec![sibling()], 2);

    // Session `rows`: step 1 has another n. Session `cols`: step 0 leaves
    // an 11-column block, step 1 searches 5 columns.
    let rows0 = gen_job("rows0", 64, SpectrumKind::Dft, 7, Some(("rows", 0)));
    let rows1 = gen_job("rows1", 48, SpectrumKind::Dft, 7, Some(("rows", 1)));
    let mut cols0 = gen_job("cols0", 64, SpectrumKind::Bse, 9, Some(("cols", 0)));
    cols0.params.nev = 8;
    let mut cols1 = gen_job("cols1", 64, SpectrumKind::Bse, 9, Some(("cols", 1)));
    (cols1.params.nev, cols1.params.nex) = (3, 2);

    let mut sched: Scheduler<C64> = Scheduler::new(SchedulerConfig {
        workers: 2,
        ..SchedulerConfig::default()
    });
    for j in [rows0, rows1, cols0, cols1, sibling()] {
        sched.submit(j).unwrap();
    }
    let reports: BTreeMap<String, _> = sched
        .drain()
        .into_iter()
        .map(|r| (r.name.clone(), r))
        .collect();
    assert_eq!(reports.len(), 5, "one report per job");

    for step0 in ["rows0", "cols0"] {
        assert!(reports[step0].solve().expect("step 0 is sound").converged);
    }
    for (step1, block) in [("rows1", "64 x 5"), ("cols1", "64 x 8")] {
        let e = reports[step1].failed().expect("mismatched step must fail");
        assert!(
            matches!(&e.kind, ChaseErrorKind::InvalidParams { detail } if detail.contains(block)),
            "{step1}: {e}"
        );
        assert_eq!(reports[step1].warm, WarmKind::Warm);
    }
    assert_eq!(sched.metrics.failed, 2);
    assert_eq!(
        &fingerprint(reports["lone"].solve().unwrap()),
        &solo["lone"].0
    );
}
