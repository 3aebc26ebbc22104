//! The workload ChASE was built for (Section 1): a *sequence* of correlated
//! dense Hermitian eigenproblems, as produced by the self-consistent field
//! (SCF) loop of Density Functional Theory. Each cycle's Hamiltonian is a
//! small perturbation of the previous one, so feeding the previous
//! eigenvectors as the starting block slashes the number of MatVecs.
//!
//! The hand-off is fully automated by the `chase-serve` session API: tag
//! each cycle as step `k` of one session and the scheduler warm-starts it
//! from step `k - 1`'s final search space (its eigenvectors and its other
//! search directions) and spectral bounds (the Lanczos estimate is skipped
//! entirely). A second scheduler with the cache disabled provides the cold
//! ablation for comparison, and each warm cycle is also solved from the
//! previous cycle's bounds alone (one seeded random column in place of the
//! cached search space): what a warm start is worth when its vectors are
//! lost on the way.
//!
//! A check as well as a table: exits non-zero unless every warm-started
//! cycle takes fewer MatVecs than both its cold and its bounds-only
//! ablation.
//!
//! ```text
//! cargo run --release -p chase-bench --bin dft_sequence
//! ```

use chase_core::{solve_serial, Params, WarmStart};
use chase_linalg::{Matrix, C64};
use chase_serve::{
    GenSpec, JobSpec, MatrixSource, Scheduler, SchedulerConfig, SolveOutput, SpectrumKind, WarmKind,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// SCF cycle `k`: the base Hamiltonian after `k` deterministic Hermitian
/// perturbations of strength `eps`.
fn cycle_matrix(cycle: usize, n: usize, eps: f64) -> GenSpec {
    GenSpec {
        n,
        spectrum: SpectrumKind::Dft,
        seed: 7,
        perturb_steps: cycle,
        eps,
    }
}

/// Queue the SCF chain, one session step per cycle.
fn submit_chain(sched: &mut Scheduler<C64>, cycles: usize, n: usize, eps: f64, params: &Params) {
    for cycle in 0..cycles {
        let spec = JobSpec::new(
            format!("scf{cycle}"),
            MatrixSource::Generated(cycle_matrix(cycle, n, eps)),
            params.clone(),
        )
        .in_session("scf", cycle);
        sched.submit(spec).expect("queue has room");
    }
}

/// MatVecs of `cycle` solved from `prev`'s spectral bounds and one seeded
/// random column: the session hand-off with its vectors taken out.
fn bounds_only_matvecs(
    cycle: usize,
    n: usize,
    eps: f64,
    params: &Params,
    prev: &SolveOutput<C64>,
) -> u64 {
    let h = cycle_matrix(cycle, n, eps).materialize::<C64>();
    let mut rng = ChaCha8Rng::seed_from_u64(cycle as u64);
    let warm = WarmStart {
        v0: Matrix::random(n, 1, &mut rng),
        bounds: Some(prev.bounds),
    };
    let r = solve_serial(&h, params, Some(&warm)).expect("bounds-only cycle converged");
    assert!(r.converged);
    r.matvecs
}

fn main() {
    let n = 300;
    let cycles = 6;
    let eps = 3e-4;
    let mut params = Params::new(16, 8);
    params.tol = 1e-10;

    println!("DFT-like SCF sequence: {cycles} cycles of a {n}x{n} Hamiltonian");
    println!("(FLEUR-style spectrum surrogate; perturbation strength {eps:.0e})\n");

    // Warm pool: the session cache hands cycle k's eigenpairs to cycle k+1.
    let mut warm_pool: Scheduler<C64> = Scheduler::new(SchedulerConfig::default());
    submit_chain(&mut warm_pool, cycles, n, eps, &params);
    let warm = warm_pool.drain();

    // Cold ablation: cache disabled, every cycle starts from random vectors.
    let mut cold_pool: Scheduler<C64> = Scheduler::new(SchedulerConfig {
        cache_bytes: 0,
        ..SchedulerConfig::default()
    });
    submit_chain(&mut cold_pool, cycles, n, eps, &params);
    let cold = cold_pool.drain();

    println!(
        "{:>6} {:>6} {:>10} {:>10} {:>10} {:>8} {:>9} {:>22}",
        "cycle", "start", "MatVecs", "(cold)", "(bounds)", "iters", "saving", "lambda_0"
    );
    let mut total_warm = 0u64;
    let mut total_cold = 0u64;
    let mut losses = Vec::new();
    let mut prev: Option<&SolveOutput<C64>> = None;
    for (w, c) in warm.iter().zip(&cold) {
        let ws = w.solve().expect("warm cycle converged");
        let cs = c.solve().expect("cold cycle converged");
        assert!(ws.converged && cs.converged);
        let saving = 100.0 * (1.0 - ws.matvecs as f64 / cs.matvecs as f64);
        let step = w.session.as_ref().unwrap().step;
        let start = match w.warm {
            WarmKind::Warm => "warm",
            _ => "cold",
        };
        let bounds_only = (w.warm == WarmKind::Warm).then(|| {
            let prev = prev.expect("a warm cycle follows a solved one");
            bounds_only_matvecs(step, n, eps, &params, prev)
        });
        println!(
            "{step:>6} {start:>6} {:>10} {:>10} {:>10} {:>8} {:>8.1}% {:>22.12}",
            ws.matvecs,
            cs.matvecs,
            bounds_only.map_or("-".into(), |m| m.to_string()),
            ws.iterations,
            saving,
            ws.eigenvalues[0]
        );
        total_warm += ws.matvecs;
        total_cold += cs.matvecs;
        if bounds_only.is_some_and(|b| ws.matvecs >= b.min(cs.matvecs)) {
            losses.push(w.name.clone());
        }
        prev = Some(ws);
    }

    let m = warm_pool.metrics;
    println!(
        "\nSequence total: {total_warm} MatVecs warm-started vs {total_cold} cold ({:.1}% saved)",
        100.0 * (1.0 - total_warm as f64 / total_cold as f64)
    );
    println!(
        "scheduler: {} warm hit(s) (rate {:.2}), {} Lanczos estimate(s) skipped, {} MatVecs saved vs its own cold baseline",
        m.warm_hits,
        m.warm_hit_rate(),
        m.lanczos_skipped,
        m.matvecs_saved
    );
    println!("This reuse of approximate solutions is why ChASE is iterative (Section 1).");
    if !losses.is_empty() {
        eprintln!(
            "error: warm-started cycle(s) took no fewer MatVecs than cold or bounds-only: {}",
            losses.join(", ")
        );
        std::process::exit(1);
    }
}
