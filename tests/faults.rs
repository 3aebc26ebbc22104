//! Chaos suite: a matrix of injected faults (kind x region x rank) driven
//! through the guarded solver. The invariant under test is the fault-model
//! contract: a faulted solve either converges to the *same* eigenpairs as
//! the fault-free run, or returns a typed error whose recovery log names
//! what happened — never silently-wrong results, never a hang.

mod common;

use chase_comm::GridShape;
use chase_core::{
    solve_serial, ChaseError, ChaseErrorKind, ChaseResult, Params, RecoveryEventKind,
};
use chase_linalg::{Matrix, C64};
use common::{params, problem as problem_seeded, solve_on};

fn problem(n: usize) -> Matrix<C64> {
    problem_seeded::<C64>(n, 7).0
}

fn base_params() -> Params {
    params(6, 4, 1e-9)
}

fn run_chaos(
    h: &Matrix<C64>,
    p: &Params,
    shape: GridShape,
) -> Vec<Result<ChaseResult<C64>, ChaseError>> {
    solve_on(h, p, shape)
}

/// The chaos matrix proper: every fault kind, spread over regions and ranks
/// of a 2x2 grid. Each campaign must end in one of exactly two ways.
#[test]
fn chaos_matrix_is_never_silently_wrong() {
    let h = problem(60);
    let p = base_params();
    let baseline = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(baseline.converged);

    let specs = [
        "seed=11;nan@iter=1,region=filter,rank=0",
        "seed=12;inf@iter=2,region=rr,rank=1",
        "seed=13;bitflip@iter=1,region=qr,rank=2,bit=62",
        "seed=14;bitflip@iter=2,region=resid,rank=3,bit=55",
        "seed=15;nan-block@iter=2,cols=2",
        "seed=16;inf-block@iter=1,row=1,cols=1",
        "seed=17;breakdown@iter=2,cols=1",
        "seed=18;nan@iter=2,region=filter,rank=3",
        "seed=19;inf@iter=1,region=qr,rank=1;nan-block@iter=2,cols=1",
    ];
    for spec in specs {
        let mut pf = p.clone();
        pf.inject = Some(spec.parse().unwrap());
        let results = run_chaos(&h, &pf, GridShape::new(2, 2));
        let oks = results.iter().filter(|r| r.is_ok()).count();
        assert!(
            oks == 0 || oks == results.len(),
            "'{spec}': ranks disagree on the outcome ({oks}/{} Ok)",
            results.len()
        );
        let mut fired = 0usize;
        for r in &results {
            let log = match r {
                Ok(r) => {
                    assert!(r.converged, "'{spec}': Ok but not converged");
                    for k in 0..p.nev {
                        assert!(
                            (r.eigenvalues[k] - baseline.eigenvalues[k]).abs() < 1e-7,
                            "'{spec}': lambda_{k} drifted: {} vs clean {}",
                            r.eigenvalues[k],
                            baseline.eigenvalues[k]
                        );
                    }
                    &r.recovery
                }
                Err(e) => &e.recovery,
            };
            fired += log
                .events
                .iter()
                .filter(|e| matches!(e.kind, RecoveryEventKind::Injected(_)))
                .count();
        }
        assert!(fired > 0, "'{spec}': campaign never fired — dead trigger");
    }
}

/// A forced CholeskyQR breakdown must escalate to the terminal Householder
/// rung and still deliver the correct eigenpairs, with the whole walk on
/// record.
#[test]
fn breakdown_escalates_to_householder_and_recovers() {
    let h = problem(60);
    let clean = solve_serial(&h, &base_params(), None).expect("ChASE solve");
    let mut p = base_params();
    p.inject = Some("seed=5;breakdown@iter=1,cols=2".parse().unwrap());
    let r = solve_serial(&h, &p, None).expect("a QR breakdown must be recoverable");
    assert!(r.converged);
    for k in 0..p.nev {
        assert!(
            (r.eigenvalues[k] - clean.eigenvalues[k]).abs() < 1e-7,
            "lambda_{k}: {} vs clean {}",
            r.eigenvalues[k],
            clean.eigenvalues[k]
        );
    }
    assert!(
        r.recovery
            .any(|k| matches!(k, RecoveryEventKind::QrBreakdown { .. })),
        "no QrBreakdown event recorded:\n{}",
        r.recovery
    );
    assert!(
        r.recovery
            .any(|k| matches!(k, RecoveryEventKind::QrEscalated { to: "HHQR", .. })),
        "ladder never reached Householder:\n{}",
        r.recovery
    );
}

/// The replay contract: the same `--inject` spec and seed produce the same
/// `RecoveryLog` — bitwise, per rank — and bitwise-identical eigenvalues.
#[test]
fn identical_spec_replays_identical_recovery_logs() {
    let h = problem(60);
    let mut p = base_params();
    p.inject = Some(
        "seed=9;nan-block@iter=1,cols=1;breakdown@iter=2"
            .parse()
            .unwrap(),
    );
    let a = run_chaos(&h, &p, GridShape::new(2, 2));
    let b = run_chaos(&h, &p, GridShape::new(2, 2));
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        match (ra, rb) {
            (Ok(x), Ok(y)) => {
                assert!(!x.recovery.is_empty(), "campaign should leave a trace");
                assert_eq!(x.recovery, y.recovery, "recovery log must replay bitwise");
                assert_eq!(
                    x.eigenvalues, y.eigenvalues,
                    "eigenvalues must replay bitwise"
                );
                assert_eq!(x.matvecs, y.matvecs);
            }
            (Err(x), Err(y)) => assert_eq!(x, y, "errors must replay bitwise"),
            _ => panic!("outcome flipped between two identical runs"),
        }
    }
}

/// Guards are pure observers: a clean run computes bit-for-bit the same
/// answer with them on or off, and logs nothing.
#[test]
fn guards_are_invisible_on_clean_runs() {
    let h = problem(60);
    let p = base_params(); // guards on, no injection
    let guarded = solve_serial(&h, &p, None).expect("ChASE solve");
    let mut pu = base_params();
    pu.guards = false;
    let unguarded = solve_serial(&h, &pu, None).expect("ChASE solve");
    assert!(guarded.recovery.is_empty(), "{}", guarded.recovery);
    assert_eq!(guarded.eigenvalues, unguarded.eigenvalues);
    assert_eq!(guarded.matvecs, unguarded.matvecs);
    assert_eq!(guarded.iterations, unguarded.iterations);
}

/// Exhausting the re-filter budget is a typed error, not a wrong answer.
#[test]
fn refilter_budget_exhaustion_is_a_typed_error() {
    let h = problem(48);
    let mut p = base_params();
    p.max_refilter = 0;
    p.inject = Some("seed=3;nan-block@iter=1,cols=1".parse().unwrap());
    let e = solve_serial(&h, &p, None).expect_err("budget 0 must abort on first corruption");
    assert!(matches!(e.kind, ChaseErrorKind::UnrecoverableNonFinite));
    assert!(
        e.recovery
            .any(|k| matches!(k, RecoveryEventKind::NonFiniteBlock { .. })),
        "detection missing from log:\n{}",
        e.recovery
    );
}

/// There is one restart path, whoever reports the divergence: four
/// iterations in a row poisoned at the QR agreement, and four poisoned at
/// the Rayleigh–Ritz/residual agreement, leave logs of the same shape —
/// `(cause, rollback)` for each tolerated restart, then the fourth cause —
/// and the same typed abort, on every rank.
#[test]
fn restarts_exhaust_alike_whichever_agreement_reports_them() {
    let h = problem(60);
    let shape_of = |region: &str, is_cause: fn(&RecoveryEventKind) -> bool| {
        let mut p = base_params();
        let sites: Vec<String> = (1..=4)
            .map(|iter| format!("inf@iter={iter},region={region},rank=1"))
            .collect();
        p.inject = Some(format!("seed=19;{}", sites.join(";")).parse().unwrap());
        let mut shapes = Vec::new();
        for r in run_chaos(&h, &p, GridShape::new(2, 2)) {
            let e = r.expect_err("a fourth restart must abort the solve");
            assert_eq!(e.kind, ChaseErrorKind::UnrecoverableNonFinite, "{region}");
            assert_eq!(e.iter, 4, "{region}");
            let shape: Vec<(usize, &str)> = e
                .recovery
                .events
                .iter()
                .filter(|ev| {
                    // What only the poisoned rank (and, for the QR ladder,
                    // its column communicator) logs on the way there.
                    !matches!(
                        ev.kind,
                        RecoveryEventKind::Injected(_)
                            | RecoveryEventKind::QrBreakdown { .. }
                            | RecoveryEventKind::QrEscalated { .. }
                    )
                })
                .map(|ev| match &ev.kind {
                    k if is_cause(k) => (ev.iter, "cause"),
                    RecoveryEventKind::LockedRollback {
                        kept: 0,
                        restarted: 10,
                    } => (ev.iter, "rollback"),
                    other => panic!("{region}: unexpected event {other}"),
                })
                .collect();
            shapes.push(shape);
        }
        assert!(
            shapes.iter().all(|s| s == &shapes[0]),
            "{region}: ranks disagree"
        );
        shapes.swap_remove(0)
    };
    let qr = shape_of("qr", |k| {
        matches!(k, RecoveryEventKind::ReplicaDivergence { stage: "qr" })
    });
    let rr = shape_of("rr", |k| {
        matches!(k, RecoveryEventKind::ResidualRegression { .. })
    });
    let expected: Vec<(usize, &str)> = (1..=4)
        .flat_map(|iter| [(iter, "cause"), (iter, "rollback")])
        .take(7)
        .collect();
    assert_eq!(qr, expected);
    assert_eq!(rr, expected);
}
