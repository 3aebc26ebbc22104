//! End-to-end tests of the `chase-check` harness: correct code survives
//! schedule exploration, the differential oracle holds, and the planted
//! mutation canary is caught, shrunk and deterministically replayed.

mod common;

use chase_check::{
    check_case, cross_config_check, differential_check, replay, run_case, CheckCase, ScalarKind,
    Witness,
};

#[test]
fn correct_code_survives_schedule_exploration() {
    // One representative per axis keeps the suite fast; the full 6-case
    // matrix is `chase check`'s job (and CI's).
    for case in [
        CheckCase::new(ScalarKind::F64, (2, 2)),
        CheckCase::new(ScalarKind::C64, (1, 4)),
        CheckCase::new(ScalarKind::C64, (2, 2)),
    ] {
        let report = check_case(&case, &[1, 2, 3, 4], false, false);
        assert!(
            report.ok(),
            "case {case}: {}",
            report.violation.map(|v| v.diff).unwrap_or_default()
        );
        assert!(report.schedules >= 6, "reference + baseline + 4 seeds");
    }
}

#[test]
fn systematic_sweep_is_clean_on_a_small_world() {
    let case = CheckCase::new(ScalarKind::F64, (1, 2));
    let report = check_case(&case, &[], true, false);
    assert!(
        report.ok(),
        "{}",
        report.violation.map(|v| v.diff).unwrap_or_default()
    );
    // 2-rank world: reference + identity baseline + the one non-identity
    // constant permutation.
    assert_eq!(report.schedules, 3);
}

#[test]
fn canary_is_caught_and_shrinks_to_a_replayable_witness() {
    // The 1x4 grid puts 4 members on the row communicator, whose
    // Rayleigh–Ritz/residual reductions are where an order-sensitive fold
    // is observable (2-member folds are bitwise-commutative, so a 2x2
    // grid would hide the canary).
    let case = CheckCase::new(ScalarKind::F64, (1, 4));
    let seeds: Vec<u64> = (0..64).collect();
    let report = check_case(&case, &seeds, false, true);
    let v = report
        .violation
        .expect("order-sensitive canary must be caught within 64 seeds");
    assert!(
        !v.witness.perms.is_empty(),
        "witness pins at least one permutation"
    );
    assert!(
        v.witness.perms.len() <= 4,
        "shrinker should reduce to a handful of points, kept {}",
        v.witness.perms.len()
    );
    assert!(v.witness.canary, "witness records the armed canary");

    // The witness round-trips through its text form and reproduces the
    // divergence deterministically.
    let text = v.witness.to_string();
    let parsed: Witness = text.parse().expect("witness text parses back");
    assert_eq!(parsed, v.witness);
    let diff1 = replay(&parsed).expect("witness reproduces the violation");
    let diff2 = replay(&parsed).expect("witness reproduces on a second replay");
    assert_eq!(diff1, diff2, "replay divergence is deterministic");
}

#[test]
fn differential_oracle_agrees_with_direct_and_across_configs() {
    for case in [
        CheckCase::new(ScalarKind::F64, (2, 2)),
        CheckCase::new(ScalarKind::C64, (2, 2)),
    ] {
        differential_check(&case).unwrap();
    }
    cross_config_check(ScalarKind::C64).unwrap();
}

#[test]
fn harness_solves_match_the_shared_suite_path() {
    // The harness's internal solve must be the same solve the rest of the
    // test suite runs (tests/common): bitwise-equal eigenvalues per rank.
    let case = CheckCase::new(ScalarKind::F64, (2, 2));
    let fp = run_case(&case, None, false);
    let (h, _) = common::problem::<f64>(case.n, case.pseed);
    let mut p = common::params(case.nev, case.nex, case.tol);
    p.seed = case.pseed;
    let results = common::expect_all_ok(common::solve_on(&h, &p, case.shape()), "shared path");
    assert_eq!(fp.ranks.len(), results.len());
    for (rank, (rfp, r)) in fp.ranks.iter().zip(&results).enumerate() {
        let bits: Vec<u64> = r.eigenvalues.iter().map(|x| x.to_bits()).collect();
        assert_eq!(rfp.eigs, bits, "rank {rank} eigenvalue bits");
    }
}
