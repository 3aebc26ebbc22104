//! `bench_e2e`: the repo's one wall-clock benchmark — four workloads, three
//! bounded end-to-end metrics plus the failure count, and a per-layer
//! budget measured from outside the crates. README.md has the definitions,
//! the layer -> end-to-end map and how to compare two commits.
//!
//! ```text
//! bench_e2e --workload NAME --seed S --seconds T --trace 0|1   one run (what BENCHMARK.json's command runs)
//! bench_e2e [--seed S] [--out FILE] [--quick]                  all workloads, both passes, one report
//! bench_e2e --self-check [--seed S]                            two shortened sets, compared with the bounds
//! bench_e2e --manifest                                         print BENCHMARK.json
//! ```

mod adapter;
mod e2e;
mod layers;
mod report;
mod spans;
mod stats;
mod workloads;

use adapter::Json;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The seed the numbers in README.md were taken with. README.md also names
/// a held-out seed (20230915) for checking a claim on inputs nobody looked
/// at while developing.
const DEFAULT_SEED: u64 = 42;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    self_check: bool,
    manifest: bool,
    out: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        self_check: false,
        manifest: false,
        out: ".bench_out/bench_e2e.json".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => a.out = value()?,
            "--quick" => a.quick = true,
            "--self-check" => a.self_check = true,
            "--manifest" => a.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// One workload, one pass, in this process. Prints every metric by name
/// with its unit, then the result object as the last line.
fn run_one(a: &Args, name: &str, started: Instant) -> Result<(), String> {
    let w = workloads::find(name, a.quick).ok_or_else(|| {
        let names: Vec<&str> = workloads::all(false).iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if w.threads() > cores {
        return Err(format!(
            "refusing to time {}: it keeps {} threads busy and this box has {cores} core(s), \
             so its wall clock would measure the scheduler",
            w.name,
            w.threads()
        ));
    }
    let seconds = a.seconds.unwrap_or(report::RUN_SECONDS as f64);
    let p = &w.problem;
    println!(
        "bench_e2e {} seed={} seconds={seconds} trace={} quick={} nproc={cores}: \
         C64 {} n={} nev={} nex={} grid={}x{}{}",
        w.name,
        a.seed,
        u8::from(a.trace),
        a.quick,
        p.shape.name(),
        p.n,
        p.nev,
        p.nex,
        p.grid.0,
        p.grid.1,
        w.chain.as_ref().map_or(String::new(), |c| format!(
            ", chain of {} sessions x {} steps on {} workers",
            c.sessions.len(),
            c.steps,
            c.workers
        ))
    );
    let result = if a.trace {
        let l = layers::run(&w, a.seed, seconds).map_err(|e| e.0)?;
        let all = spans::snapshot();
        report::print_layers(&l, &all);
        let path = format!(".bench_out/{}-seed{}.trace.json", w.name, a.seed);
        match std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, spans::chrome_trace(&all)))
        {
            Ok(()) => println!(
                "wrote {path} ({} spans, Chrome trace-event format)",
                all.len()
            ),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        report::layers_json(&l)
    } else {
        let r = e2e::run(&w, a.seed, seconds, started).map_err(|e| e.0)?;
        report::print_e2e(&r);
        report::e2e_json(&r)
    };
    println!("{}", report::emit(&result));
    Ok(())
}

/// Re-exec this binary for one workload and pass; the child's last line is
/// its result object. A process per workload keeps buffer pools and the
/// resident-set high-water mark from leaking between workloads.
fn child(a: &Args, name: &str, trace: bool, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &a.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if a.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!(
            "{name} (trace {}) exited with {}",
            u8::from(trace),
            out.status
        ));
    }
    let last = text.lines().last().ok_or("child printed nothing")?;
    adapter::json_parse(last)
}

fn env_json(a: &Args) -> Json {
    let cmd = |prog: &str, args: &[&str]| {
        Command::new(prog)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        (
            "nproc".into(),
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu".into(), Json::Str(cpu)),
        ("rustc".into(), Json::Str(cmd("rustc", &["--version"]))),
        (
            "git_commit".into(),
            Json::Str(cmd("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".into(), Json::Num(a.seed as f64)),
    ])
}

/// All workloads, both passes, one report file.
fn run_all(a: &Args) -> Result<(), String> {
    let (e2e_s, trace_s) = if a.quick {
        (1.5, 0.5)
    } else {
        let s = a.seconds.unwrap_or(report::RUN_SECONDS as f64);
        (s, s)
    };
    let mut rows = Vec::new();
    for w in workloads::all(a.quick) {
        let e = child(a, w.name, false, e2e_s)?;
        let l = child(a, w.name, true, trace_s)?;
        rows.push((
            w.name.to_string(),
            Json::Obj(vec![("end_to_end".into(), e), ("per_layer".into(), l)]),
        ));
    }
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Num(1.0)),
        ("quick".into(), Json::Bool(a.quick)),
        ("env".into(), env_json(a)),
        ("workloads".into(), Json::Obj(rows)),
    ]);
    if let Some(dir) = std::path::Path::new(&a.out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&a.out, report::emit(&doc) + "\n").map_err(|e| e.to_string())?;
    println!("\n{}", report::table(&doc));
    println!("wrote {}", a.out);
    Ok(())
}

/// Two shortened untraced sets back to back; per end-to-end metric and
/// workload: both values, their relative gap, PASS/FAIL against the bound.
fn self_check(a: &Args) -> Result<bool, String> {
    let seconds = a.seconds.unwrap_or(if a.quick { 1.5 } else { 6.0 });
    let mut sets: Vec<Vec<(String, Json)>> = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for w in workloads::all(a.quick) {
            set.push((w.name.to_string(), child(a, w.name, false, seconds)?));
        }
        sets.push(set);
    }
    println!(
        "\n{:<22} {:<12} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "set 1", "set 2", "gap", "bound"
    );
    let mut all_pass = true;
    for ((name, first), (_, second)) in sets[0].iter().zip(&sets[1]) {
        for (metric, _unit, _better, bound) in report::END_TO_END {
            let (x, y) = (
                report::metric_value(first, metric)?,
                report::metric_value(second, metric)?,
            );
            // Every end-to-end metric is lower-is-better: only a worse
            // second set counts against the bound.
            let gap = (y - x) / x;
            let pass = gap <= *bound;
            all_pass &= pass;
            println!(
                "{name:<22} {metric:<12} {x:>12.6} {y:>12.6} {:>7.2}% {:>6.0}%  {}",
                gap * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        let failed = |j: &Json| j.get("failed").and_then(Json::as_u64).unwrap_or(u64::MAX);
        let (fx, fy) = (failed(first), failed(second));
        let pass = fx == 0 && fy == 0;
        all_pass &= pass;
        println!(
            "{name:<22} {:<12} {fx:>12} {fy:>12} {:>8} {:>7}  {}",
            "failed",
            "",
            "0",
            if pass { "PASS" } else { "FAIL" }
        );
    }
    Ok(all_pass)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|a| {
        if a.manifest {
            print!("{}", report::manifest());
            Ok(true)
        } else if let Some(name) = a.workload.clone() {
            run_one(&a, &name, started).map(|()| true)
        } else if a.self_check {
            self_check(&a)
        } else {
            run_all(&a).map(|()| true)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}
