//! The `chase` binary on input it must refuse: every refusal is exit code 1
//! with a one-line `error:` on stderr — never a panic (exit 101 and a
//! backtrace), whatever the flag or workload line says.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn chase(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chase"))
        .args(args)
        .output()
        .expect("spawn chase")
}

/// A small generated matrix under the test's scratch directory.
fn matrix(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let path = path.to_str().expect("utf-8 tmpdir").to_string();
    let out = chase(&["generate", "--n", "24", "--out", &path]);
    assert!(out.status.success(), "generate failed: {out:?}");
    path
}

fn assert_refused(args: &[&str], needle: &str) {
    let out = chase(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(errors[0].contains(needle), "{args:?}: {stderr}");
}

#[test]
fn a_grid_without_ranks_is_a_usage_error() {
    let m = matrix("cli-grid.chasemat");
    let solve = ["solve", "--matrix", m.as_str(), "--nev", "4"];
    for (flag, value, needle) in [
        ("--grid", "0x1", "grid '0x1'"),
        ("--grid", "1x0", "grid '1x0'"),
        ("--grid", "banana", "must look like PxQ"),
        ("--ranks", "0", "--ranks needs a rank count >= 1"),
        ("--cyclic", "0", "--cyclic needs a block size >= 1"),
    ] {
        assert_refused(&[&solve[..], &[flag, value]].concat(), needle);
    }
    // Both flags set the grid: one of them would be ignored.
    assert_refused(
        &[&solve[..], &["--grid", "1x2", "--ranks", "8"]].concat(),
        "--grid and --ranks both set the process grid",
    );
    assert_refused(&["check", "--grids", "1x1,0x1"], "--grids: grid '0x1'");
    let workload = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-grid.workload");
    let line = "gen name=a n=32 spectrum=uniform nev=4 grid=0x2";
    assert_refused(
        &[
            "submit",
            "--workload",
            workload.to_str().unwrap(),
            "--line",
            line,
        ],
        "line 1: job 'a': grid '0x2'",
    );
    std::fs::write(&workload, format!("{line}\n")).unwrap();
    assert_refused(
        &["serve", "--workload", workload.to_str().unwrap()],
        "line 1: job 'a': grid '0x2'",
    );
}

#[test]
fn a_pool_that_can_run_or_admit_nothing_is_a_usage_error() {
    let workload = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-pool.workload");
    std::fs::write(&workload, "gen name=a n=32 spectrum=uniform nev=4\n").unwrap();
    let serve = ["serve", "--workload", workload.to_str().unwrap()];
    for (flag, value, needle) in [
        (
            "--workers",
            "0",
            "--workers needs a worker count >= 1, got '0'",
        ),
        ("--workers", "two", "--workers needs a worker count >= 1"),
    ] {
        assert_refused(&[&serve[..], &[flag, value]].concat(), needle);
    }
}

#[test]
fn the_lms_backend_refuses_bad_parameters_like_the_others() {
    let m = matrix("cli-lms.chasemat");
    for backend in ["lms", "nccl"] {
        let solve = ["solve", "--matrix", m.as_str(), "--backend", backend];
        for bad in [&["--nev", "0"][..], &["--nev", "4", "--tol", "0"]] {
            assert_refused(
                &[&solve[..], bad].concat(),
                "solve aborted: invalid parameters:",
            );
        }
    }
}

#[test]
fn a_flag_the_subcommand_does_not_read_is_refused() {
    let m = matrix("cli-flags.chasemat");
    let solve = ["solve", "--matrix", m.as_str(), "--nev", "4"];
    for (flag, value) in [
        ("--deg", "0"),
        ("--max-iter", "0"),
        ("--bogus-flag", "7"),
        ("--presicion", "mixed"),
        // Another subcommand's flag is no better than a typo.
        ("--workers", "2"),
        // Removed with the overlapped filter.
        ("--overlap", "--no-guards"),
        ("--panel", "16"),
        ("--wait-timeout-ms", "500"),
        // Removed with the measured-plan path.
        ("--plan-db", "plans.json"),
        ("--deterministic", "--no-guards"),
        // Removed with the solver's collective-schedule knob.
        ("--collective", "auto"),
        // Removed with the checkpoint interval: a directory means every
        // iteration.
        ("--checkpoint-every", "2"),
    ] {
        assert_refused(
            &[&solve[..], &[flag, value]].concat(),
            &format!("chase solve takes no flag {flag}"),
        );
    }
    // A switch too, and before anything is read or written.
    assert_refused(
        &["info", "--matrix", m.as_str(), "--real"],
        "chase info takes no flag --real",
    );
    assert_refused(
        &["generate", "--n", "24", "--nev", "4"],
        "chase generate takes no flag --nev",
    );
    assert_refused(
        &["check", "--seed", "1"],
        "chase check takes no flag --seed",
    );
    // Removed with queue-depth admission.
    let workload = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-flags.workload");
    std::fs::write(&workload, "gen name=a n=32 spectrum=uniform nev=4\n").unwrap();
    assert_refused(
        &[
            "serve",
            "--workload",
            workload.to_str().unwrap(),
            "--max-queue",
            "4",
        ],
        "chase serve takes no flag --max-queue",
    );
    // Removed with the measured-plan path, as is `chase tune` itself; then
    // with the checkpoint interval, and with the backend choice (serve
    // always runs device-direct).
    for (flag, value) in [
        ("--plan-db", "plans.json"),
        ("--checkpoint-every", "1"),
        ("--backend", "std"),
    ] {
        assert_refused(
            &[
                "serve",
                "--workload",
                workload.to_str().unwrap(),
                flag,
                value,
            ],
            &format!("chase serve takes no flag {flag}"),
        );
    }
    let tune = chase(&["tune", "--matrix", m.as_str(), "--nev", "4"]);
    let stderr = String::from_utf8_lossy(&tune.stderr);
    assert_eq!(tune.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: unknown command 'tune'\n"),
        "{stderr}"
    );
    let ok = chase(&[&solve[..], &["--qr", "auto"]].concat());
    assert!(ok.status.success(), "a flag solve reads: {ok:?}");
}

/// What selected the demoted filter is refused by name, not ignored: the
/// flag, the fault kind, the `chase check` scalar and the workload key.
#[test]
fn removed_precision_inputs_are_refused() {
    let m = matrix("cli-precision.chasemat");
    let solve = ["solve", "--matrix", m.as_str(), "--nev", "4"];
    assert_refused(
        &[&solve[..], &["--precision", "mixed"]].concat(),
        "chase solve takes no flag --precision",
    );
    let overflow = "seed=23;overflow@iter=1,region=filter,rank=0";
    assert_refused(
        &[&solve[..], &["--inject", overflow]].concat(),
        "unknown fault kind 'overflow'",
    );
    assert_refused(
        &["check", "--scalars", "c64-mixed"],
        "unknown scalar 'c64-mixed' (f64|c64)",
    );
    let workload = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-precision.workload");
    let line = "gen name=lo n=32 spectrum=uniform nev=4 precision=mixed";
    std::fs::write(&workload, format!("{line}\n")).unwrap();
    assert_refused(
        &["serve", "--workload", workload.to_str().unwrap()],
        "line 1: unknown key 'precision' for a 'gen' line",
    );
}

#[test]
fn a_spectrum_too_small_for_its_shape_is_a_usage_error() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-small.chasemat");
    let out = out.to_str().unwrap();
    for (n, spectrum, min_n) in [
        ("0", "uniform", 1),
        ("8", "dft", 16),
        ("15", "dft", 16),
        ("1", "bse", 8),
        ("7", "bse", 8),
        ("1", "geometric", 2),
    ] {
        assert_refused(
            &["generate", "--n", n, "--spectrum", spectrum, "--out", out],
            &format!("a {spectrum} spectrum needs n >= {min_n}, got {n}"),
        );
        // The smallest one it takes is generated.
        let n = min_n.to_string();
        let made = chase(&["generate", "--n", &n, "--spectrum", spectrum, "--out", out]);
        assert!(made.status.success(), "{spectrum} at n = {n}: {made:?}");
    }
}

/// `chase submit` appends to a workload file it has read. One it cannot
/// read (here: not UTF-8) is refused by path and left byte for byte as it
/// was, never treated as empty and overwritten.
#[test]
fn submit_refuses_a_workload_it_cannot_read() {
    let workload = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-unreadable.workload");
    let path = workload.to_str().unwrap();
    let before = b"gen name=a n=32 spectrum=uniform nev=4\n# \xff\n".to_vec();
    std::fs::write(&workload, &before).unwrap();
    assert_refused(
        &[
            "submit",
            "--workload",
            path,
            "--line",
            "gen name=b n=32 spectrum=uniform nev=4",
        ],
        path,
    );
    assert_eq!(std::fs::read(&workload).unwrap(), before);
}

/// A reader that stops after the first line (`chase solve … | head -1`)
/// closes the pipe while the solve still has lines to print: the run ends
/// quietly, with no panic on stderr.
#[test]
fn a_closed_stdout_pipe_ends_the_run_quietly() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-pipe.chasemat");
    let path = path.to_str().expect("utf-8 tmpdir");
    let made = chase(&["generate", "--n", "48", "--out", path]);
    assert!(made.status.success(), "generate failed: {made:?}");
    let mut child = Command::new(env!("CARGO_BIN_EXE_chase"))
        .args(["solve", "--matrix", path, "--nev", "4", "--grid", "1x2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn chase");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    assert!(first.starts_with("grid: 1x2"), "{first}");
    // The reader is dropped here: the pipe is closed before the solve ends.
    let out = child.wait_with_output().expect("wait for chase");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Broken pipe"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
