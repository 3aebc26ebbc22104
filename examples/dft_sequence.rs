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
//! ablation for comparison.
//!
//! A check as well as a table: exits non-zero unless every warm-started
//! cycle takes fewer MatVecs than its cold ablation.
//!
//! ```text
//! cargo run --release --example dft_sequence
//! ```

use chase_core::Params;
use chase_linalg::C64;
use chase_serve::{
    GenSpec, JobSpec, MatrixSource, Scheduler, SchedulerConfig, SpectrumKind, WarmKind,
};

/// Queue the SCF chain: cycle `k` is the base Hamiltonian after `k`
/// deterministic Hermitian perturbations of strength `eps`.
fn submit_chain(sched: &mut Scheduler<C64>, cycles: usize, n: usize, eps: f64, params: &Params) {
    for cycle in 0..cycles {
        let gen = GenSpec {
            n,
            spectrum: SpectrumKind::Dft,
            seed: 7,
            perturb_steps: cycle,
            eps,
        };
        let spec = JobSpec::new(
            format!("scf{cycle}"),
            MatrixSource::Generated(gen),
            params.clone(),
        )
        .in_session("scf", cycle);
        sched.submit(spec).expect("queue has room");
    }
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
        "{:>6} {:>6} {:>10} {:>10} {:>8} {:>9} {:>22}",
        "cycle", "start", "MatVecs", "(cold)", "iters", "saving", "lambda_0"
    );
    let mut total_warm = 0u64;
    let mut total_cold = 0u64;
    let mut losses = Vec::new();
    for (w, c) in warm.iter().zip(&cold) {
        let ws = w.solve().expect("warm cycle converged");
        let cs = c.solve().expect("cold cycle converged");
        assert!(ws.converged && cs.converged);
        let saving = 100.0 * (1.0 - ws.matvecs as f64 / cs.matvecs as f64);
        let start = match w.warm {
            WarmKind::Warm => "warm",
            _ => "cold",
        };
        println!(
            "{:>6} {start:>6} {:>10} {:>10} {:>8} {:>8.1}% {:>22.12}",
            w.session.as_ref().unwrap().step,
            ws.matvecs,
            cs.matvecs,
            ws.iterations,
            saving,
            ws.eigenvalues[0]
        );
        total_warm += ws.matvecs;
        total_cold += cs.matvecs;
        if w.warm == WarmKind::Warm && ws.matvecs >= cs.matvecs {
            losses.push(w.name.clone());
        }
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
            "error: warm-started cycle(s) took no fewer MatVecs than cold: {}",
            losses.join(", ")
        );
        std::process::exit(1);
    }
}
