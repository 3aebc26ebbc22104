//! `chase` — command-line driver for the ChASE reproduction.
//!
//! ```text
//! chase generate --n 1000 --spectrum uniform --out h.chasemat [--seed 42] [--real]
//! chase info     --matrix h.chasemat
//! chase solve    --matrix h.chasemat --nev 20 [--nex 10] [--tol 1e-10]
//!                [--grid 2x2 | --ranks 6] [--backend nccl|std|lms]
//!                [--qr auto|hhqr|cholqr1|cholqr2]
//!                [--collective flat|ring|tree|doubling|auto] [--cyclic BLOCK] [--no-degopt]
//!                [--overlap] [--panel 16]
//!                [--inject 'seed=7;bitflip@iter=2,region=filter,rank=0'] [--wait-timeout-ms 500]
//!                [--no-guards] [--checkpoint DIR] [--checkpoint-every K]
//!                [--trace out.json] [--trace-format chrome|summary] [--metrics m.json]
//! ```

use chase_comm::{run_grid, Distribution, GridShape};
use chase_core::{ChaseError, ChaseResult, DistHerm, Params, QrStrategy};
use chase_device::{Backend, CollectiveAlgo};
use chase_linalg::{Matrix, RealScalar, Scalar, C64};
use chase_matgen::io::{load, save_c64, save_f64, LoadedMatrix};
use chase_matgen::{dense_with_spectrum, Spectrum};
use chase_perfmodel::residual_report;
use chase_serve::{JobOutcome, Scheduler, SchedulerConfig, WarmKind};
use chase_trace::{chrome_trace, metrics_json, stitch, summary_table, Trace};
use chase_tune::{
    plan_from_entry, plan_key, solve_grid, tune_entry, GridRun, PlanChoice, PlanDb, TuneOptions,
    TuneOutcome,
};
use std::collections::HashMap;
use std::process::ExitCode;

type Flags = HashMap<String, String>;
type Command = fn(Flags) -> Result<(), String>;

/// The subcommands, each with the flags it reads. One it does not is
/// refused: a run with a mistyped flag must not measure the defaults and
/// exit 0.
const COMMANDS: [(&str, Command, &str); 7] = [
    ("generate", cmd_generate, "n out seed spectrum real"),
    ("info", cmd_info, "matrix"),
    (
        "solve",
        cmd_solve,
        "matrix nev nex tol grid ranks backend qr collective cyclic no-degopt overlap panel \
         inject wait-timeout-ms no-guards checkpoint checkpoint-every plan-db deterministic \
         trace trace-format metrics",
    ),
    (
        "tune",
        cmd_tune,
        "matrix nev nex db grid backend deterministic force",
    ),
    (
        "serve",
        cmd_serve,
        "workload workers cache-mb max-queue backend plan-db metrics trace-dir checkpoint \
         checkpoint-every",
    ),
    ("submit", cmd_submit, "workload line"),
    (
        "check",
        cmd_check,
        "seeds grids scalars systematic no-oracle canary witness-out replay",
    ),
];

/// `--key value` pairs and switches of one subcommand; a flag outside
/// `known` is an error that names it and the subcommand.
fn parse_flags(cmd: &str, known: &str, args: &[String]) -> Result<Flags, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
        if !known.split(' ').any(|k| k == key) {
            return Err(format!("chase {cmd} takes no flag --{key}"));
        }
        // Boolean flags take no value.
        if matches!(
            key,
            "real"
                | "no-degopt"
                | "overlap"
                | "no-guards"
                | "deterministic"
                | "force"
                | "systematic"
                | "canary"
                | "no-oracle"
        ) {
            out.insert(key.to_string(), "true".to_string());
            i += 1;
        } else {
            let val = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            out.insert(key.to_string(), val.clone());
            i += 2;
        }
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(flags: &Flags, key: &str, default: Option<T>) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        None => default.ok_or_else(|| format!("missing required --{key}")),
    }
}

fn cmd_generate(flags: Flags) -> Result<(), String> {
    let n: usize = get(&flags, "n", None)?;
    let out: String = get(&flags, "out", None)?;
    let seed: u64 = get(&flags, "seed", Some(42))?;
    let kind = flags
        .get("spectrum")
        .map(String::as_str)
        .unwrap_or("uniform");
    // Each spectrum's constructor asserts its smallest `n`; ask first.
    let (min_n, build): (usize, fn(usize) -> Spectrum) = match kind {
        "uniform" => (1, |n| Spectrum::uniform(n, -1.0, 1.0)),
        "dft" => (16, Spectrum::dft_like),
        "bse" => (8, Spectrum::bse_like),
        "geometric" => (2, |n| Spectrum::geometric(n, 1e-3, 1.0)),
        other => {
            return Err(format!(
                "unknown spectrum '{other}' (uniform|dft|bse|geometric)"
            ))
        }
    };
    if n < min_n {
        return Err(format!(
            "--n: a {kind} spectrum needs n >= {min_n}, got {n}"
        ));
    }
    let spec = build(n);
    if flags.contains_key("real") {
        let h = dense_with_spectrum::<f64>(&spec, seed);
        save_f64(&h, &out).map_err(|e| e.to_string())?;
    } else {
        let h = dense_with_spectrum::<C64>(&spec, seed);
        save_c64(&h, &out).map_err(|e| e.to_string())?;
    }
    println!("wrote {n}x{n} {kind} matrix to {out}");
    Ok(())
}

fn cmd_info(flags: Flags) -> Result<(), String> {
    let path: String = get(&flags, "matrix", None)?;
    let m = load(&path).map_err(|e| e.to_string())?;
    println!(
        "{path}: {0}x{0} {1}",
        m.rows(),
        match m.scalar() {
            chase_matgen::io::StoredScalar::F64 => "real f64",
            chase_matgen::io::StoredScalar::C64 => "complex f64",
        }
    );
    Ok(())
}

fn parse_grid(flag: &str, s: &str) -> Result<GridShape, String> {
    s.trim().parse().map_err(|e| format!("--{flag}: {e}"))
}

/// A count a flag takes that must be at least one (`--ranks`, `--cyclic`,
/// `--workers`, `--max-queue`).
fn parse_positive(flag: &str, what: &str, s: &str) -> Result<usize, String> {
    match s.parse() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--{flag} needs {what} >= 1, got '{s}'")),
    }
}

/// One `chase solve`, printed. With `tune`, the solve's key is looked up in
/// the plan DB first: a hit applies the stored plan with zero trials, a miss
/// tunes inside the solve grid (so the trials show up as `tune` spans in
/// the solve's own trace). The lowest-ranked rank that saw the solve
/// through speaks for the SPMD run, unless another surviving rank failed.
fn solve_generic<T: Scalar + chase_comm::Reduce>(
    h: &Matrix<T>,
    params: &Params,
    shape: GridShape,
    backend: Backend,
    dist: Distribution,
    tracing: bool,
    tune: Option<(&PlanDb, &TuneOptions)>,
) -> (
    Result<(), ChaseError>,
    Option<Trace>,
    Option<PlanChoice>,
    Option<TuneOutcome>,
)
where
    T::Real: chase_comm::Reduce,
{
    let t0 = std::time::Instant::now();
    let choice = tune.map(|(db, opts)| {
        PlanChoice::lookup::<T>(db, opts, shape, h.rows(), params.nev, params.nex)
    });
    let run = GridRun {
        backend,
        dist,
        trace: tracing,
        plan: choice.as_ref(),
        ..GridRun::new(shape)
    };
    let mut out = solve_grid(h, params, &run);
    let (trace, tuned) = (out.trace.take(), out.tuned.take());
    let printed = out
        .into_solved()
        .map(|solved| print_result(&solved[0], t0.elapsed()));
    (printed, trace, choice, tuned)
}

/// Persist the plan DB and say how many entries it holds.
fn save_plan_db(db: &PlanDb, path: &str) -> Result<(), String> {
    db.save(path).map_err(|e| e.to_string())?;
    let n = db.len();
    println!(
        "plan db: {path} ({n} entr{})",
        if n == 1 { "y" } else { "ies" }
    );
    Ok(())
}

/// After a `--plan-db` solve: report how the plan resolved and persist any
/// freshly measured entry.
fn report_plan(
    choice: Option<PlanChoice>,
    tuned: Option<TuneOutcome>,
    db: &mut PlanDb,
    db_path: Option<&str>,
) -> Result<(), String> {
    match (choice, tuned) {
        (Some(PlanChoice::Tune(_)), Some(out)) => {
            println!(
                "plan: measured fresh ({} trial(s)) for {}",
                out.entry.trials,
                out.entry.key.canonical()
            );
            print!("{}", residual_report(&out.residuals));
            db.insert(out.entry);
            if let Some(p) = db_path {
                save_plan_db(db, p)?;
            }
        }
        (Some(PlanChoice::Hit(_)), Some(out)) => {
            println!(
                "plan: reused db entry (0 trials) for {}",
                out.entry.key.canonical()
            );
        }
        _ => {}
    }
    Ok(())
}

fn print_recovery(log: &chase_core::RecoveryLog) {
    if log.is_empty() {
        return;
    }
    println!("\nfault-recovery log ({} event(s)):", log.events.len());
    for e in &log.events {
        println!("  {e}");
    }
}

/// Error-path variant: diagnostics belong on stderr so scripted callers can
/// keep stdout clean and still see why the exit code is nonzero.
fn eprint_recovery(log: &chase_core::RecoveryLog) {
    if log.is_empty() {
        return;
    }
    eprintln!("fault-recovery log ({} event(s)):", log.events.len());
    for e in &log.events {
        eprintln!("  {e}");
    }
}

fn print_result<T: Scalar>(r: &ChaseResult<T>, wall: std::time::Duration) {
    println!(
        "converged = {} | iterations = {} | MatVecs = {} | wall = {wall:.2?}",
        r.converged, r.iterations, r.matvecs
    );
    if let Some(plan) = &r.plan {
        println!("plan: {}", plan.summary());
    }
    println!("{:>4} {:>22} {:>12}", "k", "eigenvalue", "residual");
    for (k, (v, res)) in r.eigenvalues.iter().zip(&r.residuals).enumerate() {
        println!("{k:>4} {:>22.14} {:>12.2e}", (*v).to_f64(), (*res).to_f64());
    }
    println!("\nQR switchboard trace:");
    for s in &r.stats {
        println!(
            "  iter {:>2}: est cond {:>9.2e} -> {:<13} locked {:>4} maxres {:.2e}",
            s.iter,
            s.est_cond,
            s.qr_variant.name(),
            s.locked,
            s.max_res
        );
    }
    print_recovery(&r.recovery);
}

/// Silence the default panic printout for the *typed* unwinds the elastic
/// driver throws and catches by design (the crash victim's own death, and
/// survivors' death-aware blocking waits). Every other panic still reports
/// through the previous hook.
fn silence_expected_crash_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let p = info.payload();
        if p.downcast_ref::<chase_faults::RankCrashPanic>().is_some()
            || p.downcast_ref::<chase_comm::RankDeadPanic>().is_some()
        {
            return;
        }
        previous(info);
    }));
}

fn cmd_solve(flags: Flags) -> Result<(), String> {
    let path: String = get(&flags, "matrix", None)?;
    let nev: usize = get(&flags, "nev", None)?;
    let nex: usize = get(&flags, "nex", Some(nev.div_ceil(2).max(2)))?;
    let tol: f64 = get(&flags, "tol", Some(1e-10))?;
    // `--grid PxQ` pins the process grid; `--ranks N` asks for the squarest
    // grid covering at most N ranks (primes > 3 deliberately leave ranks
    // idle rather than degenerate to 1 x N). Either way, log the choice —
    // the shape decides every communicator in the run.
    let ranks: Option<usize> = match flags.get("ranks") {
        Some(r) => Some(parse_positive("ranks", "a rank count", r)?),
        None => None,
    };
    let shape = match (flags.get("grid"), ranks) {
        (Some(g), _) => parse_grid("grid", g)?,
        (None, Some(n)) => GridShape::squarest(n),
        (None, None) => GridShape::new(1, 1),
    };
    // Beside it, what the speed of every BLAS-3 call on this host hangs on:
    // the microkernel instantiation its CPU admits (both scalars a matrix
    // file stores, f64 and C64, pack 64-bit reals — one tile shape).
    let kernel = chase_linalg::kernel_isa::<f64>();
    {
        let idle = ranks.map_or(0, |n| n.saturating_sub(shape.ranks()));
        println!(
            "grid: {}x{} ({} ranks{}), kernel {kernel}",
            shape.p,
            shape.q,
            shape.ranks(),
            if idle > 0 {
                format!(", {idle} idle — squarest balanced grid under --ranks")
            } else {
                String::new()
            }
        );
    }
    let backend = match flags.get("backend").map(String::as_str).unwrap_or("nccl") {
        "nccl" => Backend::Nccl,
        "std" => Backend::Std,
        "lms" => Backend::Lms,
        other => return Err(format!("unknown backend '{other}'")),
    };
    let collective = match flags
        .get("collective")
        .map(String::as_str)
        .unwrap_or("flat")
    {
        "flat" => CollectiveAlgo::Flat,
        "ring" => CollectiveAlgo::Ring,
        "tree" => CollectiveAlgo::Tree,
        "doubling" => CollectiveAlgo::Doubling,
        "auto" => CollectiveAlgo::Auto,
        other => {
            return Err(format!(
                "unknown collective '{other}' (flat|ring|tree|doubling|auto)"
            ))
        }
    };
    let qr = match flags.get("qr").map(String::as_str).unwrap_or("auto") {
        "auto" => QrStrategy::Auto,
        "hhqr" => QrStrategy::AlwaysHouseholder,
        "cholqr1" => QrStrategy::AlwaysCholeskyQr1,
        "cholqr2" => QrStrategy::AlwaysCholeskyQr2,
        other => return Err(format!("unknown qr strategy '{other}'")),
    };
    let dist = match flags.get("cyclic") {
        Some(b) => Distribution::BlockCyclic {
            block: parse_positive("cyclic", "a block size", b)?,
        },
        None => Distribution::Block,
    };

    let mut params = Params::new(nev, nex);
    params.tol = tol;
    params.qr = qr;
    params.collective = collective;
    params.optimize_degrees = !flags.contains_key("no-degopt");
    // `--overlap` switches the filter to the panel-chunked double-buffered
    // pipeline; `--panel W` pins the panel width (implies --overlap, since
    // it is meaningless on the flat path). Without --panel the topology
    // tuner picks the width per step.
    params.overlap = flags.contains_key("overlap") || flags.contains_key("panel");
    params.overlap_panel = match flags.get("panel") {
        Some(w) => Some(w.parse().map_err(|_| "--panel needs a column count")?),
        None => None,
    };
    // Fault-injection campaign: `--inject` compiles a deterministic per-rank
    // fault plan; `--wait-timeout-ms` bounds every nonblocking wait (so a
    // stalled collective surfaces as a typed error instead of a hang);
    // `--no-guards` disables the detection/recovery layer (chaos ablation).
    params.inject = match flags.get("inject") {
        Some(spec) => Some(
            spec.parse::<chase_faults::FaultSpec>()
                .map_err(|e| format!("--inject: {e}"))?,
        ),
        None => None,
    };
    if params.plans_rank_crash() {
        silence_expected_crash_panics();
    }
    params.wait_timeout_ms = match flags.get("wait-timeout-ms") {
        Some(ms) => Some(
            ms.parse()
                .map_err(|_| "--wait-timeout-ms needs milliseconds")?,
        ),
        None => None,
    };
    params.guards = !flags.contains_key("no-guards");
    // `--checkpoint DIR` snapshots the solver state every `--checkpoint-every`
    // iterations (default 1 when a directory is given): the restart point
    // for elastic recovery from a `rank-crash` fault, and a durable record
    // either way.
    params.checkpoint_dir = flags.get("checkpoint").cloned();
    params.checkpoint_every = match flags.get("checkpoint-every") {
        Some(k) => k
            .parse()
            .map_err(|_| "--checkpoint-every needs an iteration count")?,
        None => usize::from(params.checkpoint_dir.is_some()),
    };
    if params.checkpoint_every > 0 && params.checkpoint_dir.is_none() {
        return Err("--checkpoint-every needs --checkpoint DIR".into());
    }
    if params.inject.is_some() && matches!(backend, Backend::Lms) {
        return Err("--inject is not supported with the lms baseline backend".into());
    }
    // Structured tracing: `--trace FILE` records every rank and writes the
    // stitched result; `--trace-format` picks the exporter; `--metrics FILE`
    // writes machine-readable aggregates (usable without --trace).
    let trace_path = flags.get("trace").cloned();
    let metrics_path = flags.get("metrics").cloned();
    let trace_format = match flags
        .get("trace-format")
        .map(String::as_str)
        .unwrap_or("chrome")
    {
        "chrome" => TraceFormat::Chrome,
        "summary" => TraceFormat::Summary,
        other => return Err(format!("unknown trace format '{other}' (chrome|summary)")),
    };
    let tracing = trace_path.is_some() || metrics_path.is_some();

    // `--plan-db FILE` resolves the Auto knobs from the measured plan DB: a
    // hit applies the stored plan with zero trials; a miss tunes inside the
    // solve grid and persists the fresh entry for the next run.
    let plan_db_path = flags.get("plan-db").cloned();
    if plan_db_path.is_some() && matches!(backend, Backend::Lms) {
        return Err("--plan-db is not supported with the lms baseline backend".into());
    }
    if plan_db_path.is_some() && params.plans_rank_crash() {
        return Err("--plan-db is not supported with a rank-crash fault plan \
             (the measured plan is keyed to the pre-crash grid)"
            .into());
    }
    let tune_opts = plan_db_path.as_ref().map(|_| TuneOptions {
        deterministic: flags.contains_key("deterministic"),
        machine: chase_perfmodel::Machine::juwels_booster(),
        backend,
    });
    let mut db = match &plan_db_path {
        Some(p) => PlanDb::load(p).map_err(|e| e.to_string())?,
        None => PlanDb::new(),
    };

    let m = load(&path).map_err(|e| e.to_string())?;
    if params.ne() > m.rows() {
        return Err(format!(
            "search space nev + nex = {} exceeds matrix size {} — lower --nev/--nex",
            params.ne(),
            m.rows()
        ));
    }
    let tune = tune_opts.as_ref().map(|o| (&db, o));
    let (outcome, trace, choice, tuned) = match m {
        LoadedMatrix::C64(h) => solve_generic(&h, &params, shape, backend, dist, tracing, tune),
        LoadedMatrix::F64(h) => solve_generic(&h, &params, shape, backend, dist, tracing, tune),
    };
    report_plan(choice, tuned, &mut db, plan_db_path.as_deref())?;
    // Export the trace even for failed runs — a chaos run's timeline is most
    // interesting exactly when the solve aborts.
    if let Some(trace) = &trace {
        write_trace_outputs(
            trace,
            trace_path.as_deref(),
            trace_format,
            metrics_path.as_deref(),
            kernel,
        )?;
    }
    match outcome {
        Ok(()) => Ok(()),
        Err(e) => {
            eprint_recovery(&e.recovery);
            Err(format!("solve aborted: {e}"))
        }
    }
}

/// `chase tune`: run the measurement trials for one solve configuration and
/// persist the winning plan, without solving.
fn cmd_tune(flags: Flags) -> Result<(), String> {
    let path: String = get(&flags, "matrix", None)?;
    let nev: usize = get(&flags, "nev", None)?;
    let nex: usize = get(&flags, "nex", Some(nev.div_ceil(2).max(2)))?;
    let db_path: String = get(&flags, "db", None)?;
    let shape = match flags.get("grid") {
        Some(g) => parse_grid("grid", g)?,
        None => GridShape::new(1, 1),
    };
    let backend = match flags.get("backend").map(String::as_str).unwrap_or("nccl") {
        "nccl" => Backend::Nccl,
        "std" => Backend::Std,
        other => return Err(format!("unknown backend '{other}' (nccl|std)")),
    };
    let opts = TuneOptions {
        deterministic: flags.contains_key("deterministic"),
        machine: chase_perfmodel::Machine::juwels_booster(),
        backend,
    };

    let m = load(&path).map_err(|e| e.to_string())?;
    if nev + nex > m.rows() {
        return Err(format!(
            "search space nev + nex = {} exceeds matrix size {}",
            nev + nex,
            m.rows()
        ));
    }
    let mut db = PlanDb::load(&db_path).map_err(|e| e.to_string())?;
    let (key, n) = match &m {
        LoadedMatrix::C64(h) => (
            plan_key::<C64>(&opts.machine, shape.p, shape.q, h.rows(), nev, nex),
            h.rows(),
        ),
        LoadedMatrix::F64(h) => (
            plan_key::<f64>(&opts.machine, shape.p, shape.q, h.rows(), nev, nex),
            h.rows(),
        ),
    };
    if db.get(&key).is_some() && !flags.contains_key("force") {
        println!(
            "already tuned: {} (use --force to re-measure)",
            key.canonical()
        );
        return Ok(());
    }
    println!(
        "tuning {n}x{n} on {}x{} grid ({} clock)...",
        shape.p,
        shape.q,
        if opts.deterministic {
            "deterministic perf-model"
        } else {
            "wall"
        }
    );
    let outcome = match &m {
        LoadedMatrix::C64(h) => tune_only(h, nev, nex, shape, &opts),
        LoadedMatrix::F64(h) => tune_only(h, nev, nex, shape, &opts),
    };
    let e = &outcome.entry;
    println!(
        "plan for {}: {} trial(s), cost {:.3}us tuned vs {:.3}us flat ({:.1}% saved)",
        e.key.canonical(),
        e.trials,
        e.tuned_cost * 1e6,
        e.flat_cost * 1e6,
        100.0 * (1.0 - e.tuned_cost / e.flat_cost.max(f64::MIN_POSITIVE))
    );
    println!("  {}", plan_from_entry(e).summary());
    for r in &e.rules {
        println!(
            "  {} <= {}B x{}: {} chunk {}B ({:.3}us measured, {:.3}us modeled)",
            r.op.name(),
            r.max_bytes,
            r.members,
            r.algo.name(),
            r.chunk_bytes,
            r.measured * 1e6,
            r.modeled * 1e6
        );
    }
    println!("\nmodeled-vs-measured residuals:");
    print!("{}", residual_report(&outcome.residuals));
    db.insert(outcome.entry);
    save_plan_db(&db, &db_path)
}

/// Run the tuner alone on its grid (no solve afterwards).
fn tune_only<T: Scalar + chase_comm::Reduce>(
    h: &Matrix<T>,
    nev: usize,
    nex: usize,
    shape: GridShape,
    opts: &TuneOptions,
) -> TuneOutcome
where
    T::Real: chase_comm::Reduce,
{
    let out = run_grid(shape, move |ctx| {
        let mut dh = DistHerm::from_global(h, ctx);
        tune_entry(ctx, &mut dh, nev, nex, opts)
    });
    out.results
        .into_iter()
        .next()
        .expect("at least one rank tuned")
}

/// `chase serve`: run a workload file through the multi-tenant scheduler.
fn cmd_serve(flags: Flags) -> Result<(), String> {
    let path: String = get(&flags, "workload", None)?;
    let positive = |flag: &str, what: &str, default: usize| match flags.get(flag) {
        Some(v) => parse_positive(flag, what, v),
        None => Ok(default),
    };
    let workers = positive("workers", "a worker count", 2)?;
    let cache_mb: usize = get(&flags, "cache-mb", Some(256))?;
    let max_queue = positive("max-queue", "a queue capacity", 1024)?;
    let backend = match flags.get("backend").map(String::as_str).unwrap_or("nccl") {
        "nccl" => Backend::Nccl,
        "std" => Backend::Std,
        other => return Err(format!("unknown backend '{other}' (nccl|std)")),
    };
    let metrics_path = flags.get("metrics").cloned();
    let trace_dir = flags.get("trace-dir").cloned();
    // `--plan-db FILE` turns on autotuning: each session tunes on its first
    // cold solve (deterministic clock — the scheduler's results must stay
    // independent of worker interleaving) and every later solve with the
    // same key reuses the shared entry with zero trials. `chase submit`ted
    // jobs inherit the DB simply by running through this scheduler.
    let plan_db_path = flags.get("plan-db").cloned();

    // `--checkpoint DIR` gives every job a private snapshot directory
    // (DIR/<job-name>) written every `--checkpoint-every` iterations
    // (default 1 when a directory is given): the restart point for jobs
    // whose fault spec plans a rank crash, which the scheduler retries on
    // the shrunk pool.
    let ckpt_dir = flags.get("checkpoint").cloned();
    let ckpt_every: usize = match flags.get("checkpoint-every") {
        Some(k) => k
            .parse()
            .map_err(|_| "--checkpoint-every needs an iteration count")?,
        None => usize::from(ckpt_dir.is_some()),
    };
    if ckpt_every > 0 && ckpt_dir.is_none() {
        return Err("--checkpoint-every needs --checkpoint DIR".into());
    }

    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let mut jobs = chase_serve::parse_workload(&text)?;
    if jobs.is_empty() {
        return Err(format!("{path}: workload has no jobs"));
    }
    if let Some(dir) = &ckpt_dir {
        for j in &mut jobs {
            let sub = std::path::Path::new(dir).join(&j.name);
            j.params.checkpoint_dir = Some(sub.to_string_lossy().into_owned());
            j.params.checkpoint_every = ckpt_every;
        }
    }
    if jobs.iter().any(|j| j.params.plans_rank_crash()) {
        silence_expected_crash_panics();
    }

    let mut sched: Scheduler<C64> = Scheduler::try_new(SchedulerConfig {
        workers,
        cache_bytes: cache_mb.saturating_mul(1 << 20),
        max_queue,
        backend,
        record_traces: trace_dir.is_some(),
        tune: plan_db_path.as_ref().map(|_| TuneOptions {
            deterministic: true,
            machine: chase_perfmodel::Machine::juwels_booster(),
            backend,
        }),
    })
    .map_err(|e| e.to_string())?;
    if let Some(p) = &plan_db_path {
        sched.set_plan_db(PlanDb::load(p).map_err(|e| e.to_string())?);
    }
    for spec in jobs {
        sched.submit(spec).map_err(|e| e.to_string())?;
    }
    let t0 = std::time::Instant::now();
    let reports = sched.drain();
    let wall = t0.elapsed();

    println!(
        "{:>3} {:<14} {:<12} {:<9} {:<11} {:>5} {:>8} {:>7} {:>9}",
        "id", "name", "session", "warm", "outcome", "iter", "matvecs", "wait", "finish"
    );
    let mut failures = Vec::new();
    for r in &reports {
        let session = r
            .session
            .as_ref()
            .map(|t| format!("{}:{}", t.id, t.step))
            .unwrap_or_else(|| "-".into());
        let warm = match r.warm {
            WarmKind::Cold => "cold",
            WarmKind::Warm => "warm",
            WarmKind::FallbackCold => "fallback",
        };
        let (outcome, iter, matvecs) = match &r.outcome {
            JobOutcome::Done(s) => (
                if s.converged { "done" } else { "unconverged" },
                format!("{}", s.iterations),
                format!("{}", s.matvecs),
            ),
            JobOutcome::Failed(e) => {
                failures.push((r.name.clone(), e.clone()));
                ("FAILED", "-".into(), "-".into())
            }
            JobOutcome::Cancelled => ("cancelled", "-".into(), "-".into()),
            JobOutcome::DeadlineMissed => ("missed", "-".into(), "-".into()),
        };
        println!(
            "{:>3} {:<14} {:<12} {:<9} {:<11} {:>5} {:>8} {:>7} {:>9}",
            r.id, r.name, session, warm, outcome, iter, matvecs, r.wait_ticks, r.finish_tick
        );
        if let Some(dir) = &trace_dir {
            if let Some(trace) = &r.trace {
                std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
                let out = format!("{dir}/job-{}.json", r.name);
                std::fs::write(&out, chrome_trace(trace)).map_err(|e| format!("{out}: {e}"))?;
            }
        }
    }
    let m = &sched.metrics;
    println!(
        "\n{} job(s) in {wall:.2?} | {} completed, {} failed, {} missed, {} cancelled",
        reports.len(),
        m.completed,
        m.failed,
        m.deadline_missed,
        m.cancelled
    );
    println!(
        "warm starts: {} hit / {} miss (rate {:.2}), {} fallback | MatVecs {} total, {} saved",
        m.warm_hits,
        m.warm_misses,
        m.warm_hit_rate(),
        m.warm_fallbacks,
        m.total_matvecs,
        m.matvecs_saved
    );
    println!(
        "virtual schedule: makespan {} ticks, total wait {} ticks, max queue depth {}",
        m.makespan_ticks, m.total_wait_ticks, m.max_queue_depth
    );
    if plan_db_path.is_some() {
        println!(
            "autotuning: {} plan(s) measured, {} db hit(s) (0 trials)",
            m.plans_tuned, m.plan_db_hits
        );
    }
    if let Some(p) = &plan_db_path {
        save_plan_db(&sched.plan_db_snapshot(), p)?;
    }
    if let Some(p) = &metrics_path {
        std::fs::write(p, m.to_json()).map_err(|e| format!("{p}: {e}"))?;
        println!("metrics: {p}");
    }
    if !failures.is_empty() {
        for (name, e) in &failures {
            eprintln!("job '{name}' failed: {e}");
            eprint_recovery(&e.recovery);
        }
        return Err(format!(
            "{} job(s) failed (recovery exhausted); see stderr log",
            failures.len()
        ));
    }
    Ok(())
}

/// `chase submit`: validate one workload line and append it to the file.
fn cmd_submit(flags: Flags) -> Result<(), String> {
    let path: String = get(&flags, "workload", None)?;
    let line: String = get(&flags, "line", None)?;
    let spec = chase_serve::validate_line(&line)?;
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let prior = chase_serve::parse_workload(&existing).map_err(|e| format!("{path}: {e}"))?;
    if prior.iter().any(|j| j.name == spec.name) {
        return Err(format!("{path}: job name '{}' already queued", spec.name));
    }
    let mut body = existing;
    if !body.is_empty() && !body.ends_with('\n') {
        body.push('\n');
    }
    body.push_str(line.trim());
    body.push('\n');
    std::fs::write(&path, body).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "queued '{}' ({} job(s) in {path})",
        spec.name,
        prior.len() + 1
    );
    Ok(())
}

#[derive(Clone, Copy)]
enum TraceFormat {
    Chrome,
    Summary,
}

fn write_trace_outputs(
    trace: &Trace,
    trace_path: Option<&str>,
    format: TraceFormat,
    metrics_path: Option<&str>,
    kernel: &str,
) -> Result<(), String> {
    // Stitching validates the streams (ordered sequence numbers, aligned
    // world collectives) before anything is written.
    let timeline = stitch(trace).map_err(|e| format!("trace stitch failed: {e}"))?;
    if let Some(path) = trace_path {
        let body = match format {
            TraceFormat::Chrome => chrome_trace(trace),
            TraceFormat::Summary => summary_table(trace),
        };
        std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "trace: {path} ({} rank(s), {} event(s), {} epoch(s))",
            trace.ranks.len(),
            timeline.events.len(),
            timeline.epochs
        );
    }
    if let Some(path) = metrics_path {
        std::fs::write(path, metrics_json(trace, kernel))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("metrics: {path}");
    }
    Ok(())
}

fn parse_check_grids(s: &str) -> Result<Vec<(usize, usize)>, String> {
    s.split(',')
        .map(|g| parse_grid("grids", g).map(|sh| (sh.p, sh.q)))
        .collect()
}

fn parse_check_scalars(s: &str) -> Result<Vec<chase_check::ScalarKind>, String> {
    s.split(',')
        .map(|t| {
            chase_check::ScalarKind::from_token(t.trim())
                .ok_or_else(|| format!("unknown scalar '{t}' (f64|c64)"))
        })
        .collect()
}

fn cmd_check(flags: Flags) -> Result<(), String> {
    use chase_check::{check_case, cross_config_check, differential_check, replay, Witness};

    if let Some(path) = flags.get("replay") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let witness: Witness = text.parse()?;
        println!(
            "replaying witness: case {} canary={} ({} pinned permutation(s))",
            witness.case,
            if witness.canary { "on" } else { "off" },
            witness.perms.len()
        );
        return match replay(&witness) {
            Some(diff) => Err(format!("witness reproduces: {diff}")),
            None => {
                println!("witness does not reproduce (divergence no longer present)");
                Ok(())
            }
        };
    }

    let seeds: u64 = get(&flags, "seeds", Some(8))?;
    let seeds: Vec<u64> = (0..seeds).collect();
    let systematic = flags.contains_key("systematic");
    let canary = flags.contains_key("canary");
    let oracle = !flags.contains_key("no-oracle") && !canary;
    let witness_out = flags
        .get("witness-out")
        .cloned()
        .unwrap_or_else(|| "chase-check-witness.txt".to_string());
    let grids = match flags.get("grids") {
        Some(s) => parse_check_grids(s)?,
        None => chase_check::config::DEFAULT_GRIDS.to_vec(),
    };
    let scalars = match flags.get("scalars") {
        Some(s) => parse_check_scalars(s)?,
        None => chase_check::ScalarKind::ALL.to_vec(),
    };

    let cases = chase_check::config::matrix(&grids, &scalars);
    let mut schedules = 0usize;
    for case in &cases {
        let report = check_case(case, &seeds, systematic, canary);
        schedules += report.schedules;
        match report.violation {
            None => println!(
                "check {case}: ok ({} schedules) digest {:016x} answer {:016x}",
                report.schedules, report.digest, report.answer
            ),
            Some(v) => {
                println!("check {case}: VIOLATION — {}", v.diff);
                println!(
                    "  shrunk to {} pinned permutation(s) in {} re-run(s)",
                    v.witness.perms.len(),
                    v.shrink_runs
                );
                std::fs::write(&witness_out, v.witness.to_string())
                    .map_err(|e| format!("{witness_out}: {e}"))?;
                println!("  witness written to {witness_out}");
                println!("  reproduce with: chase check --replay {witness_out}");
                if canary {
                    println!("canary caught: the harness detects order-sensitive folds");
                    return Ok(());
                }
                return Err(format!(
                    "schedule-independence violation in case {case} (witness: {witness_out})"
                ));
            }
        }
        if oracle {
            differential_check(case)?;
        }
    }
    if canary {
        return Err(
            "mutation canary escaped: no explored schedule exposed the order-sensitive fold"
                .to_string(),
        );
    }
    if oracle {
        for &scalar in &scalars {
            cross_config_check(scalar)?;
            println!("oracle {}: direct + cross-config agree", scalar.token());
        }
    }
    println!(
        "checked {} case(s), {} schedule(s): no violations",
        cases.len(),
        schedules
    );
    Ok(())
}

const USAGE: &str = "\
chase — Chebyshev Accelerated Subspace iteration Eigensolver (SC'23 reproduction)

USAGE:
  chase generate --n N --out FILE [--spectrum uniform|dft|bse|geometric] [--seed S] [--real]
  chase info     --matrix FILE
  chase solve    --matrix FILE --nev K [--nex X] [--tol T] [--grid PxQ | --ranks N]
                 [--backend nccl|std|lms] [--qr auto|hhqr|cholqr1|cholqr2]
                 [--collective flat|ring|tree|doubling|auto] [--cyclic BLOCK] [--no-degopt]
                 [--overlap] [--panel W]
                 [--inject SPEC] [--wait-timeout-ms MS] [--no-guards]
                 [--checkpoint DIR] [--checkpoint-every K]
                 [--plan-db FILE] [--deterministic]
                 [--trace FILE] [--trace-format chrome|summary] [--metrics FILE]
  chase tune     --matrix FILE --nev K --db FILE [--nex X] [--grid PxQ]
                 [--backend nccl|std] [--deterministic] [--force]
  chase serve    --workload FILE [--workers N] [--cache-mb M] [--max-queue Q]
                 [--backend nccl|std] [--plan-db FILE] [--metrics FILE] [--trace-dir DIR]
                 [--checkpoint DIR] [--checkpoint-every K]
  chase submit   --workload FILE --line 'gen name=j0 n=96 spectrum=dft nev=8 ...'
  chase check    [--seeds K] [--grids 1x1,2x2,1x4] [--scalars f64,c64]
                 [--systematic] [--no-oracle] [--canary]
                 [--witness-out FILE] [--replay FILE]

AUTOTUNING:
  chase tune measures the solver's hot paths — collective hop schedules
  (ring/tree/recursive-doubling x chunk size) on the actual row/column
  communicators and pipelined-HEMM panel widths — with short trials and
  stores the winning plan in a versioned JSON DB keyed by
  machine fingerprint x grid x problem x scalar. Under --deterministic the
  trials are priced by the perf-model clock (bitwise replayable); otherwise
  they are wall-clocked. chase solve --plan-db FILE applies the stored plan
  to every knob left on auto (a DB miss tunes in-place and persists); a
  warm DB means zero trials — the trace contains no 'tune' spans. The tuned
  plan's trial cost is never worse than the flat reference, which is always
  among the candidates. chase serve --plan-db shares one DB across the
  worker pool: each session tunes on its first cold solve only.

SERVING:
  chase serve runs a workload file (one 'job ...' or 'gen ...' line per job;
  see chase-serve docs for the grammar) through the multi-tenant scheduler:
  jobs tagged session=S step=K warm-start from step K-1's eigenpairs and
  spectral bounds out of an LRU session cache (--cache-mb), skipping the
  Lanczos estimate. Scheduling is deterministic: results and warm-hit
  counts are bitwise independent of line order and --workers. A failed job
  (typed error, recovery log on stderr) never poisons its siblings; the
  exit code is nonzero if any job fails. chase submit validates a line
  (including its --inject spec) and appends it to the workload file.

CHECKING:
  chase check explores the runtime's schedule space: it pins the deposit
  order of every collective (blocking, nonblocking, and per-hop inside
  topology-aware collectives) to seeded permutations and asserts each
  explored schedule reproduces the free-running run bit for bit —
  eigenvalue/residual/eigenvector bits, ledger projection, trace bytes.
  --systematic additionally sweeps every constant permutation (feasible
  for the small default worlds); the differential oracle cross-checks
  eigenvalues against the dense direct solver and across configurations
  (skip with --no-oracle). On a violation the shrinker minimizes the
  schedule to a witness file (--witness-out, default
  chase-check-witness.txt) that 'chase check --replay FILE' re-runs
  deterministically. --canary arms a deliberately order-sensitive
  reduction fold to prove the harness catches this bug class: the run
  succeeds only when the canary is caught and a reproducing witness is
  written, and exits nonzero if the canary escapes.

TRACING:
  --trace records every rank's structured timeline (spans, kernel shapes,
  collective sequence numbers — no wall clock, so replays are byte-identical)
  and writes it after stitching the ranks on their collective sequence
  numbers. --trace-format chrome emits Chrome trace-event JSON (load in
  chrome://tracing or Perfetto); summary emits a per-region flops/bytes
  table. --metrics writes machine-readable per-rank aggregates.

FAULT INJECTION:
  --inject compiles a deterministic fault campaign (kind@iter=N,key=value,...):
    'seed=7;bitflip@iter=2,region=filter,rank=0,bit=9'   flip one payload bit
    'seed=3;nan@iter=1,region=rr,rank=1'                 NaN a collective payload
    'seed=1;stall@iter=2,region=filter'                  wedge a nonblocking op
    'seed=5;breakdown@iter=1'                 zero columns; break CholeskyQR
    'seed=4;nan-block@iter=2,cols=3'          poison filtered-block columns
    'seed=11;rank-crash@iter=2,region=filter,rank=1'   kill one rank mid-solve
  Kinds: nan|inf|bitflip (payload), nan-block|inf-block|breakdown (block),
  stall|delay (nonblocking post), rank-crash (rank death). The run either
  converges to verified eigenpairs (recovery log printed) or exits nonzero
  with a typed error — never silently-wrong results.

ELASTIC RECOVERY:
  A rank-crash fault routes the solve through the elastic driver: the
  survivors agree on the dead set, shrink to the squarest grid over the
  survivor count, repartition H from the deterministic generator seed, and
  resume from the newest valid snapshot under --checkpoint (cold from
  iteration 0 without one). --checkpoint-every K (default 1 when a
  directory is given) bounds the recomputed work to under K iterations.
  The crash -> shrink -> restore trail lands on the recovery log, bitwise
  replayable. chase serve --checkpoint DIR gives each job DIR/<name> and
  retries crash-spec'd jobs on the shrunk pool (the rank_crash_retries
  metric); a crashed 1x1 solve has no survivors and fails typed.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        cmd => match COMMANDS.iter().find(|(name, ..)| *name == cmd) {
            Some((_, run, known)) => parse_flags(cmd, known, rest).and_then(run),
            None => Err(format!("unknown command '{cmd}'\n{USAGE}")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
