//! Replay contract for the structured trace recorder: a trace is a pure
//! function of (matrix, params, seed, fault spec) — no wall-clock, no
//! allocation addresses, no scheduling noise. Two identical runs must
//! serialize to byte-identical JSON on every rank, with or without fault
//! injection, and installing a recorder must not perturb the solve by a
//! single bit.

use crate::common;

use chase_comm::{GridShape, Reduce};
use chase_core::{ChaseError, ChaseResult, Params};
use chase_linalg::{Scalar, C64};
use chase_matgen::{dense_with_spectrum, Spectrum};
use chase_trace::{
    chrome_trace, metrics_json, stitch, summary_table, validate_chrome_trace, Trace, TraceEvent,
};
use common::{solve_on as plain_solve, traced_solve_on as traced_solve};
use proptest::prelude::*;

const SHAPES: [(usize, usize); 2] = [(1, 1), (2, 2)];

/// Fault campaigns paired with the tracing replay property. All of them
/// leave the solver convergent (stalls would abort — the trace survives
/// either way, but a convergent campaign exercises the longer timeline).
const INJECT: [Option<&str>; 3] = [
    None,
    Some("seed=11;nan@iter=1,region=filter,rank=0"),
    Some("seed=17;breakdown@iter=2,cols=1"),
];

fn params(inject: Option<&str>) -> Params {
    let mut p = Params::new(6, 4);
    p.tol = 1e-9;
    p.inject = inject.map(|s| s.parse().expect("fault spec must parse"));
    p
}

/// Bitwise equality of two per-rank outcome vectors (field by field; the
/// float comparisons are exact on purpose).
fn assert_outcomes_bitwise<T: Scalar>(
    a: &[Result<ChaseResult<T>, ChaseError>],
    b: &[Result<ChaseResult<T>, ChaseError>],
    what: &str,
) {
    assert_eq!(a.len(), b.len());
    for (rank, (ra, rb)) in a.iter().zip(b).enumerate() {
        match (ra, rb) {
            (Ok(x), Ok(y)) => {
                assert_eq!(
                    x.eigenvalues, y.eigenvalues,
                    "{what}: rank {rank} eigenvalues"
                );
                assert_eq!(x.residuals, y.residuals, "{what}: rank {rank} residuals");
                assert_eq!(
                    x.eigenvectors_local().as_slice(),
                    y.eigenvectors_local().as_slice(),
                    "{what}: rank {rank} eigenvectors"
                );
                assert_eq!(x.iterations, y.iterations, "{what}: rank {rank} iterations");
                assert_eq!(x.matvecs, y.matvecs, "{what}: rank {rank} matvecs");
                assert_eq!(x.converged, y.converged, "{what}: rank {rank} converged");
                assert_eq!(x.recovery, y.recovery, "{what}: rank {rank} recovery log");
            }
            (Err(x), Err(y)) => assert_eq!(x, y, "{what}: rank {rank} error"),
            _ => panic!("{what}: rank {rank} outcome flipped between runs"),
        }
    }
}

/// The core replay property for one (scalar, shape, campaign, seed) cell.
fn assert_replay_deterministic<T>(shape: GridShape, inject: Option<&str>, seed: u64)
where
    T: Scalar + Reduce,
    T::Real: Reduce,
{
    let n = 48;
    let h = dense_with_spectrum::<T>(&Spectrum::uniform(n, -1.0, 1.0), seed);
    let p = params(inject);

    let (res_a, trace_a) = traced_solve(&h, &p, shape);
    let (res_b, trace_b) = traced_solve(&h, &p, shape);

    // The trace is nonempty and carries the solver span taxonomy.
    assert_eq!(trace_a.ranks.len(), shape.p * shape.q);
    for rt in &trace_a.ranks {
        assert!(
            rt.events
                .iter()
                .any(|e| matches!(e, TraceEvent::SpanBegin { name, .. } if name == "iteration")),
            "rank {}: no iteration span recorded (inject {inject:?})",
            rt.rank
        );
    }

    // Byte-identical serialization, per rank and whole.
    for (ra, rb) in trace_a.ranks.iter().zip(&trace_b.ranks) {
        assert_eq!(
            ra.events.len(),
            rb.events.len(),
            "rank {} event count",
            ra.rank
        );
    }
    assert_eq!(
        trace_a.to_json(),
        trace_b.to_json(),
        "trace must replay byte-identically (shape {shape:?}, inject {inject:?}, seed {seed})"
    );

    // The solver outcome replays bitwise too — same contract, same cell.
    assert_outcomes_bitwise(&res_a, &res_b, "replay");

    // And the round trip through JSON is lossless.
    let back = Trace::from_json(&trace_a.to_json()).expect("trace JSON must round-trip");
    assert_eq!(back.to_json(), trace_a.to_json());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// f64: same seed + same fault spec => byte-identical trace, both grid
    /// shapes, with and without injection.
    #[test]
    fn trace_replays_bitwise_f64(
        shape_idx in 0usize..2,
        inject_idx in 0usize..3,
        seed in 0u64..100,
    ) {
        let (p, q) = SHAPES[shape_idx];
        assert_replay_deterministic::<f64>(GridShape::new(p, q), INJECT[inject_idx], seed);
    }

    /// Complex64 takes distinct codec and payload-corruption paths — same
    /// replay guarantee.
    #[test]
    fn trace_replays_bitwise_c64(
        shape_idx in 0usize..2,
        inject_idx in 0usize..3,
        seed in 0u64..100,
    ) {
        let (p, q) = SHAPES[shape_idx];
        assert_replay_deterministic::<C64>(GridShape::new(p, q), INJECT[inject_idx], seed);
    }
}

/// Tracing is a pure observer: a recorded solve computes bit-for-bit the
/// same answer as an unrecorded one, clean and under injection.
#[test]
fn tracing_does_not_perturb_the_solve() {
    let h = dense_with_spectrum::<C64>(&Spectrum::uniform(60, -1.0, 1.0), 7);
    for inject in INJECT {
        let p = params(inject);
        for (gp, gq) in SHAPES {
            let shape = GridShape::new(gp, gq);
            let (traced, _) = traced_solve(&h, &p, shape);
            let plain = plain_solve(&h, &p, shape);
            assert_outcomes_bitwise(&traced, &plain, "tracing on vs off");
        }
    }
}

/// A real solve's trace stitches into one globally ordered timeline and
/// exports valid Chrome trace-event JSON plus self-consistent metrics.
#[test]
fn solve_trace_stitches_and_exports_valid_chrome_json() {
    let h = dense_with_spectrum::<f64>(&Spectrum::uniform(60, -1.0, 1.0), 21);
    let p = params(Some("seed=13;breakdown@iter=2,cols=1"));
    let (results, trace) = traced_solve(&h, &p, GridShape::new(2, 2));
    for r in &results {
        assert!(r.as_ref().expect("campaign must recover").converged);
    }

    let timeline = stitch(&trace).expect("SPMD-collected streams must stitch");
    assert!(timeline.epochs > 1, "a multi-iteration solve spans epochs");
    assert_eq!(
        timeline.events.len(),
        trace.ranks.iter().map(|r| r.events.len()).sum::<usize>(),
        "stitching must not drop events"
    );

    let chrome = chrome_trace(&trace);
    validate_chrome_trace(&chrome).expect("chrome export must satisfy its own schema");

    // Summary and metrics agree with the raw streams.
    let table = summary_table(&trace);
    assert!(
        table.contains("Filter"),
        "summary missing Filter row:\n{table}"
    );
    let metrics = metrics_json(&trace, chase_linalg::kernel_isa::<C64>());
    for rt in &trace.ranks {
        assert!(
            metrics.contains(&format!("\"rank\":{}", rt.rank)),
            "metrics missing rank {}",
            rt.rank
        );
    }
    // SPMD symmetry: every rank saw the same collective count.
    let counts: Vec<usize> = trace.ranks.iter().map(|r| r.collective_count()).collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "collective counts diverge across ranks: {counts:?}"
    );
}
