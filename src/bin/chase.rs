//! `chase` — command-line driver for the ChASE reproduction.
//!
//! ```text
//! chase generate --n 1000 --spectrum uniform --out h.chasemat [--seed 42] [--real]
//! chase info     --matrix h.chasemat
//! chase solve    --matrix h.chasemat --nev 20 [--nex 10] [--tol 1e-10]
//!                [--grid 2x2 | --ranks 6] [--backend nccl|std|lms]
//!                [--qr auto|hhqr|cholqr1|cholqr2] [--cyclic BLOCK] [--no-degopt]
//!                [--inject 'seed=7;bitflip@iter=2,region=filter,rank=0']
//!                [--no-guards] [--checkpoint DIR]
//!                [--trace out.json] [--trace-format chrome|summary] [--metrics m.json]
//! ```

use chase_comm::{Distribution, GridShape};
use chase_core::{ChaseError, ChaseResult, Params, QrStrategy};
use chase_device::Backend;
use chase_linalg::{Matrix, RealScalar, Scalar, C64};
use chase_matgen::io::{load, save_c64, save_f64, LoadedMatrix};
use chase_matgen::{dense_with_spectrum, Spectrum};
use chase_serve::{JobOutcome, Scheduler, SchedulerConfig, WarmKind};
use chase_trace::{chrome_trace, metrics_json, stitch, summary_table, Trace};
use chase_tune::{solve_grid, GridRun};
use std::collections::HashMap;
use std::process::ExitCode;

// Everything this binary prints goes through these two, not std's: a reader
// that closes the pipe early (`chase solve … | head -1`) ends the run
// quietly, where std's would panic on the broken pipe. Any other write
// error still panics, as std's does.
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}
macro_rules! println {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

type Flags = HashMap<String, String>;
type Command = fn(Flags) -> Result<(), String>;

/// The subcommands, each with the flags it reads. One it does not is
/// refused: a run with a mistyped flag must not measure the defaults and
/// exit 0.
const COMMANDS: [(&str, Command, &str); 6] = [
    ("generate", cmd_generate, "n out seed spectrum real"),
    ("info", cmd_info, "matrix"),
    (
        "solve",
        cmd_solve,
        "matrix nev nex tol grid ranks backend qr cyclic no-degopt inject no-guards \
         checkpoint trace trace-format metrics",
    ),
    (
        "serve",
        cmd_serve,
        "workload workers cache-mb metrics trace-dir checkpoint",
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
            "real" | "no-degopt" | "no-guards" | "systematic" | "canary" | "no-oracle"
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
/// `--workers`).
fn parse_positive(flag: &str, what: &str, s: &str) -> Result<usize, String> {
    match s.parse() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--{flag} needs {what} >= 1, got '{s}'")),
    }
}

/// One `chase solve`, printed. The lowest-ranked rank that saw the solve
/// through speaks for the SPMD run, unless another surviving rank failed.
fn solve_generic<T: Scalar + chase_comm::Reduce>(
    h: &Matrix<T>,
    params: &Params,
    shape: GridShape,
    backend: Backend,
    dist: Distribution,
    tracing: bool,
) -> (Result<(), ChaseError>, Option<Trace>)
where
    T::Real: chase_comm::Reduce,
{
    let t0 = std::time::Instant::now();
    let run = GridRun {
        backend,
        dist,
        trace: tracing,
        ..GridRun::new(shape)
    };
    let mut out = solve_grid(h, params, &run);
    let trace = out.trace.take();
    let printed = out
        .into_solved()
        .map(|solved| print_result(&solved[0], t0.elapsed()));
    (printed, trace)
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
    println!("{:>4} {:>22} {:>12}", "k", "eigenvalue", "residual");
    for (k, (v, res)) in r.eigenvalues.iter().zip(&r.residuals).enumerate() {
        println!("{k:>4} {:>22.14} {:>12.2e}", (*v).to_f64(), (*res).to_f64());
    }
    println!("\nQR switchboard trace:");
    for s in &r.stats {
        // The degree plan held to its prediction (none in iteration 1).
        let forecast = s.forecast.map_or(String::new(), |f| {
            format!(
                " | reached/predicted median {:.1e} q90 {:.1e}, converged {} of {} (predicted {})",
                f.median_ratio, f.q90_ratio, f.converged, f.columns, f.predicted_converged
            )
        });
        println!(
            "  iter {:>2}: est cond {:>9.2e} -> {:<13} locked {:>4} maxres {:.2e}{forecast}",
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
    // idle rather than degenerate to 1 x N). Both at once is refused: one
    // would be ignored. Either way, log the choice — the shape decides every
    // communicator in the run.
    let ranks: Option<usize> = match flags.get("ranks") {
        Some(r) => Some(parse_positive("ranks", "a rank count", r)?),
        None => None,
    };
    let shape = match (flags.get("grid"), ranks) {
        (Some(_), Some(_)) => {
            return Err("--grid and --ranks both set the process grid; pass one".into())
        }
        (Some(g), None) => parse_grid("grid", g)?,
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
    params.optimize_degrees = !flags.contains_key("no-degopt");
    // Fault-injection campaign: `--inject` compiles a deterministic per-rank
    // fault plan; `--no-guards` disables the detection/recovery layer (chaos
    // ablation).
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
    params.guards = !flags.contains_key("no-guards");
    // `--checkpoint DIR` snapshots the solver state every iteration: the
    // restart point for elastic recovery from a `rank-crash` fault, and a
    // durable record either way.
    params.checkpoint_dir = flags.get("checkpoint").cloned();
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

    let m = load(&path).map_err(|e| e.to_string())?;
    // A width that overflows is `Params::try_validate`'s to refuse.
    if let Some(ne) = nev.checked_add(nex).filter(|&ne| ne > m.rows()) {
        return Err(format!(
            "search space nev + nex = {ne} exceeds matrix size {} — lower --nev/--nex",
            m.rows()
        ));
    }
    let (outcome, trace) = match m {
        LoadedMatrix::C64(h) => solve_generic(&h, &params, shape, backend, dist, tracing),
        LoadedMatrix::F64(h) => solve_generic(&h, &params, shape, backend, dist, tracing),
    };
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

/// `chase serve`: run a workload file through the sequence scheduler.
fn cmd_serve(flags: Flags) -> Result<(), String> {
    let path: String = get(&flags, "workload", None)?;
    let workers = match flags.get("workers") {
        Some(v) => parse_positive("workers", "a worker count", v)?,
        None => 2,
    };
    let cache_mb: usize = get(&flags, "cache-mb", Some(256))?;
    let metrics_path = flags.get("metrics").cloned();
    let trace_dir = flags.get("trace-dir").cloned();

    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let mut jobs = chase_serve::parse_workload(&text)?;
    if jobs.is_empty() {
        return Err(format!("{path}: workload has no jobs"));
    }
    // `--checkpoint DIR` gives every job a private snapshot directory,
    // DIR/<job-name>, written every iteration: the restart point for jobs
    // whose fault spec plans a rank crash, which the scheduler retries on
    // the shrunk pool.
    if let Some(dir) = flags.get("checkpoint") {
        for j in &mut jobs {
            let sub = std::path::Path::new(dir).join(&j.name);
            j.params.checkpoint_dir = Some(sub.to_string_lossy().into_owned());
        }
    }
    if jobs.iter().any(|j| j.params.plans_rank_crash()) {
        silence_expected_crash_panics();
    }

    let mut sched: Scheduler<C64> = Scheduler::try_new(SchedulerConfig {
        workers,
        cache_bytes: cache_mb.saturating_mul(1 << 20),
        record_traces: trace_dir.is_some(),
    })
    .map_err(|e| e.to_string())?;
    for spec in jobs {
        sched.submit(spec).map_err(|e| e.to_string())?;
    }
    let t0 = std::time::Instant::now();
    let reports = sched.drain();
    let wall = t0.elapsed();

    println!(
        "{:>3} {:<14} {:<12} {:<9} {:<11} {:>5} {:>8}",
        "id", "name", "session", "warm", "outcome", "iter", "matvecs"
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
        };
        println!(
            "{:>3} {:<14} {:<12} {:<9} {:<11} {:>5} {:>8}",
            r.id, r.name, session, warm, outcome, iter, matvecs
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
        "\n{} job(s) in {wall:.2?} | {} completed, {} failed",
        reports.len(),
        m.completed,
        m.failed
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
    // A missing file is an empty workload; any other read error (not UTF-8,
    // no permission) refuses, so the file is never overwritten unread.
    let existing = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("{path}: {e}")),
    };
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
                 [--cyclic BLOCK] [--no-degopt] [--inject SPEC] [--no-guards]
                 [--checkpoint DIR]
                 [--trace FILE] [--trace-format chrome|summary] [--metrics FILE]
  chase serve    --workload FILE [--workers N] [--cache-mb M]
                 [--metrics FILE] [--trace-dir DIR] [--checkpoint DIR]
  chase submit   --workload FILE --line 'gen name=j0 n=96 spectrum=dft nev=8 ...'
  chase check    [--seeds K] [--grids 1x1,2x2,1x4] [--scalars f64,c64]
                 [--systematic] [--no-oracle] [--canary]
                 [--witness-out FILE] [--replay FILE]

SERVING:
  chase serve runs a workload file (one 'job ...' or 'gen ...' line per job;
  see chase-serve docs for the grammar) through the sequence scheduler:
  jobs tagged session=S step=K warm-start from step K-1's eigenpairs and
  spectral bounds out of an LRU session cache (--cache-mb), skipping the
  Lanczos estimate. Scheduling is deterministic: results and warm-hit
  counts are bitwise independent of line order and --workers. A failed job
  (typed error, recovery log on stderr) never poisons its siblings; the
  exit code is nonzero if any job fails. chase submit validates a line
  (including its --inject spec) and appends it to the workload file.

CHECKING:
  chase check explores the runtime's schedule space: it pins the deposit
  order of every collective (and of every hop inside topology-aware
  collectives) to seeded permutations and asserts each
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
    'seed=5;breakdown@iter=1'                 zero columns; break CholeskyQR
    'seed=4;nan-block@iter=2,cols=3'          poison filtered-block columns
    'seed=11;rank-crash@iter=2,region=filter,rank=1'   kill one rank mid-solve
  Kinds: nan|inf|bitflip (payload), nan-block|inf-block|breakdown (block),
  rank-crash (rank death). The run either
  converges to verified eigenpairs (recovery log printed) or exits nonzero
  with a typed error — never silently-wrong results.

ELASTIC RECOVERY:
  A rank-crash fault routes the solve through the elastic driver: the
  survivors agree on the dead set, shrink to the squarest grid over the
  survivor count, repartition H from the deterministic generator seed, and
  resume from the newest valid snapshot under --checkpoint (cold from
  iteration 0 without one); a snapshot per iteration bounds the recomputed
  work to under one iteration.
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
