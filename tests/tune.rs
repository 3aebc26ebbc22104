//! The autotuner contract, end to end:
//!
//! - the plan database round-trips: `parse ∘ emit` is the identity over
//!   generated entries, and adversarial inputs (arbitrary truncation,
//!   duplicate keys, version skew, foreign format tags) fail with *typed*
//!   errors — a plan DB is never silently reinterpreted;
//! - measurement never loses to the default: the flat schedule is always
//!   among the trial candidates, so `tuned_cost <= flat_cost` for every
//!   sampled `(N, grid, scalar)` configuration;
//! - the plan is world-agreed: every rank of a grid derives bitwise the
//!   same entry before anything executes under it;
//! - a tuned plan is a pure reschedule: solving under `apply_plan` +
//!   the entry as hook is bitwise identical to hand-pinning the same knobs;
//! - the DB actually short-circuits work: a warm solve replays the stored
//!   plan with *zero* `tune` trial spans in its trace, and lands on bitwise
//!   the same answer as the cold solve that measured it.

mod common;

use std::sync::Arc;

use chase_comm::{run_grid, GridShape, Reduce, TuneAlgo, TuneOp};
use chase_core::{solve_dist, ChaseResult, DistHerm, Params};
use chase_device::CollectiveAlgo;
use chase_linalg::{Scalar, C64};
use chase_trace::TraceEvent;
use chase_tune::{
    plan_key, solve_grid, tune_entry, CollRule, DbError, GridRun, PlanChoice, PlanDb, PlanEntry,
    PlanKey, TuneOptions, DB_FORMAT, DB_VERSION,
};
use common::{expect_all_ok, params, problem};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Generators: a deterministic PlanEntry from raw proptest draws. The shim
// has no string strategies, so structured fields are derived from u64 seeds
// via splitmix — every distinct seed exercises a distinct field combination.
// ---------------------------------------------------------------------------

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn gen_rule(seed: u64) -> CollRule {
    let mut s = seed;
    let op = [TuneOp::AllReduce, TuneOp::Bcast, TuneOp::AllGather][(splitmix(&mut s) % 3) as usize];
    let algo = [
        TuneAlgo::Flat,
        TuneAlgo::Ring,
        TuneAlgo::Tree,
        TuneAlgo::Doubling,
    ][(splitmix(&mut s) % 4) as usize];
    CollRule {
        op,
        members: 1 + (splitmix(&mut s) % 64) as usize,
        max_bytes: splitmix(&mut s) % (1 << 40),
        algo,
        chunk_bytes: splitmix(&mut s) % (1 << 30),
        // Arbitrary finite doubles; Display round-trips them exactly.
        measured: f64::from_bits(0x3ff0_0000_0000_0000 | (splitmix(&mut s) >> 12)),
        modeled: (splitmix(&mut s) % 1_000_000_007) as f64 * 1.3e-9,
    }
}

fn gen_entry(seed: u64, rule_seeds: &[u64]) -> PlanEntry {
    let mut s = seed;
    let machines = ["jb-0001", "λ-node \"x\"", "host\\42", ""];
    let scalars = ["f32", "f64", "c32", "c64"];
    let overlap = splitmix(&mut s).is_multiple_of(2);
    PlanEntry {
        key: PlanKey {
            machine: machines[(splitmix(&mut s) % 4) as usize].to_string(),
            p: 1 + (splitmix(&mut s) % 8) as usize,
            q: 1 + (splitmix(&mut s) % 8) as usize,
            n: (splitmix(&mut s) % 100_000) as usize,
            nev: (splitmix(&mut s) % 5_000) as usize,
            nex: (splitmix(&mut s) % 1_000) as usize,
            scalar: scalars[(splitmix(&mut s) % 4) as usize].to_string(),
        },
        rules: rule_seeds.iter().map(|&r| gen_rule(r)).collect(),
        overlap,
        panel: 1 + (splitmix(&mut s) % 512) as usize,
        tuned_cost: (splitmix(&mut s) % 1_000_000) as f64 * 1e-8,
        flat_cost: (splitmix(&mut s) % 1_000_000) as f64 * 1e-7,
        trials: splitmix(&mut s) % 10_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse ∘ emit` is the identity over generated databases — including
    /// machine names that need JSON escaping, empty rule tables, and
    /// arbitrary finite float costs.
    #[test]
    fn db_roundtrip_is_identity(
        entry_seeds in collection::vec(0u64..u64::MAX, 1..5),
        rule_seeds in collection::vec(0u64..u64::MAX, 0..6),
    ) {
        let mut db = PlanDb::new();
        for (i, &es) in entry_seeds.iter().enumerate() {
            // Distinct n per entry keeps canonical keys distinct even when
            // two seeds land on the same machine/scalar draw.
            let mut e = gen_entry(es, &rule_seeds);
            e.key.n = e.key.n.wrapping_mul(7).wrapping_add(i);
            db.insert(e);
        }
        let parsed = PlanDb::parse(&db.emit()).expect("canonical emit must parse");
        assert_eq!(parsed, db, "parse(emit(db)) != db");
        // Emission is canonical: a second trip is byte-stable.
        assert_eq!(parsed.emit(), db.emit());
    }

    /// Truncating the canonical rendering at *any* interior byte is a typed
    /// failure, never an Ok with silently fewer plans.
    #[test]
    fn truncation_never_parses(seed in 0u64..u64::MAX, frac in 0.0f64..1.0) {
        let mut db = PlanDb::new();
        db.insert(gen_entry(seed, &[seed ^ 1, seed ^ 2]));
        let full = db.emit();
        // The emitter is pure ASCII, so any byte index is a char boundary.
        let cut = 1 + ((full.len() - 2) as f64 * frac) as usize;
        match PlanDb::parse(&full[..cut]) {
            Err(
                DbError::Parse { .. }
                | DbError::Field { .. }
                | DbError::NotPlanDb { .. }
                | DbError::VersionSkew { .. },
            ) => {}
            Err(other) => panic!("unexpected error class at cut {cut}: {other}"),
            Ok(_) => panic!("truncation at byte {cut}/{} parsed as Ok", full.len()),
        }
    }
}

#[test]
fn duplicate_keys_and_version_skew_are_typed() {
    let e = gen_entry(7, &[1, 2]).to_json();
    let dup =
        format!("{{\"format\":\"{DB_FORMAT}\",\"version\":{DB_VERSION},\"entries\":[{e},{e}]}}");
    assert!(matches!(
        PlanDb::parse(&dup),
        Err(DbError::DuplicateKey { .. })
    ));

    // A version-1 DB: its entries carried the filter precision.
    let skew = format!("{{\"format\":\"{DB_FORMAT}\",\"version\":1,\"entries\":[]}}");
    assert_eq!(
        PlanDb::parse(&skew),
        Err(DbError::VersionSkew {
            found: 1,
            expected: DB_VERSION
        })
    );

    let foreign = "{\"format\":\"chase-trace\",\"version\":1,\"entries\":[]}";
    assert!(matches!(
        PlanDb::parse(foreign),
        Err(DbError::NotPlanDb { .. })
    ));
}

// ---------------------------------------------------------------------------
// Live trials: tuned never loses to flat, and the plan is world-agreed.
// ---------------------------------------------------------------------------

/// Deterministically tune one configuration, returning every rank's entry.
fn tune_on<T>(n: usize, nev: usize, nex: usize, shape: GridShape) -> Vec<PlanEntry>
where
    T: Scalar + Reduce,
    T::Real: Reduce,
{
    let (h, _) = problem::<T>(n, 3);
    let opts = TuneOptions::deterministic();
    let (h, opts) = (&h, &opts);
    run_grid(shape, move |ctx| {
        let mut dh = DistHerm::from_global(h, ctx);
        tune_entry(ctx, &mut dh, nev, nex, opts).entry
    })
    .results
}

#[test]
fn tuned_cost_never_exceeds_flat_and_ranks_agree() {
    // A sample over the (N, grid, scalar) axes — trials execute the real
    // hot paths, so keep the configurations small.
    let configs: [(usize, usize, usize); 3] = [(32, 1, 2), (48, 2, 2), (40, 1, 4)];
    for (n, p, q) in configs {
        let shape = GridShape::new(p, q);
        for scalar in ["f64", "c64"] {
            let entries = match scalar {
                "f64" => tune_on::<f64>(n, 6, 4, shape),
                _ => tune_on::<C64>(n, 6, 4, shape),
            };
            let e0 = &entries[0];
            // World agreement: bitwise the same plan on every rank, before
            // anything runs under it.
            for (rank, e) in entries.iter().enumerate().skip(1) {
                assert_eq!(
                    e, e0,
                    "{scalar} {p}x{q} n={n}: rank {rank} derived a different plan"
                );
                assert_eq!(e.content_hash(), e0.content_hash());
            }
            // The flat schedule is always among the candidates, so the
            // winner can tie it but never lose to it.
            assert!(
                e0.tuned_cost <= e0.flat_cost,
                "{scalar} {p}x{q} n={n}: tuned {} > flat {}",
                e0.tuned_cost,
                e0.flat_cost
            );
            assert!(e0.trials > 0, "no trials recorded");
            assert!(!e0.rules.is_empty(), "no collective rules measured");
            let key = plan_key::<C64>(&TuneOptions::deterministic().machine, p, q, n, 6, 4);
            assert_eq!(e0.key.machine, key.machine, "fingerprint drifted");
        }
    }
}

// ---------------------------------------------------------------------------
// Plans are pure reschedules: tuned solve == manually-pinned solve, bitwise.
// ---------------------------------------------------------------------------

/// Solve with the measured hook installed by hand, under the given params:
/// the reference the driver's plan application is compared against.
fn solve_hooked(
    h: &chase_linalg::Matrix<C64>,
    p: &Params,
    shape: GridShape,
    entry: &PlanEntry,
) -> Vec<ChaseResult<C64>> {
    let out = run_grid(shape, move |ctx| {
        ctx.set_tune_hook(Some(Arc::new(entry.clone())));
        let r = solve_dist(
            ctx,
            chase_device::Backend::Nccl,
            DistHerm::from_global(h, ctx),
            p,
            None,
        );
        ctx.set_tune_hook(None);
        r
    });
    expect_all_ok(out.results, "hooked solve")
}

#[test]
fn tuned_solve_is_bitwise_equal_to_manual_pinning() {
    let n = 48;
    let shape = GridShape::new(2, 2);
    let (h, _) = problem::<C64>(n, 9);
    let entry = tune_on::<C64>(n, 6, 4, shape).remove(0);

    // Path A: the production plan application — Auto knobs filled by the
    // measured plan, provenance attached.
    let pa = params(6, 4, 1e-9);
    let stored = PlanChoice::Hit(entry.clone());
    let run = GridRun {
        plan: Some(&stored),
        ..GridRun::new(shape)
    };
    let a = solve_grid(&h, &pa, &run)
        .into_solved()
        .expect("planned solve");
    assert!(
        a[0].plan.is_some(),
        "plan provenance missing from the result"
    );

    // Path B: the same decisions pinned by hand, no plan in sight.
    let mut pb = params(6, 4, 1e-9);
    pb.collective = CollectiveAlgo::Auto;
    pb.overlap = entry.overlap;
    pb.overlap_panel = entry.overlap.then_some(entry.panel);
    let b = solve_hooked(&h, &pb, shape, &entry);

    for (rank, (ra, rb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(ra.eigenvalues, rb.eigenvalues, "rank {rank}: eigenvalues");
        assert_eq!(ra.residuals, rb.residuals, "rank {rank}: residuals");
        assert_eq!(ra.iterations, rb.iterations, "rank {rank}: iterations");
        assert_eq!(ra.matvecs, rb.matvecs, "rank {rank}: matvecs");
    }
}

// ---------------------------------------------------------------------------
// The DB short-circuits measurement: warm solves run zero tune trials.
// ---------------------------------------------------------------------------

/// One cold-or-warm solve against `db`, the way the scheduler and the CLI
/// do it: the hit/miss decision is taken *once* before the SPMD region,
/// trials (on a miss) run inside it under the solve's trace recorder.
/// Returns every rank's result and the total `tune` span count.
fn solve_against_db(
    h: &chase_linalg::Matrix<C64>,
    shape: GridShape,
    db: &mut PlanDb,
) -> (Vec<ChaseResult<C64>>, usize) {
    let opts = TuneOptions::deterministic();
    let plan = PlanChoice::lookup::<C64>(db, &opts, shape, h.rows(), 6, 4);
    let p = params(6, 4, 1e-9);
    let run = GridRun {
        trace: true,
        plan: Some(&plan),
        ..GridRun::new(shape)
    };
    let mut out = solve_grid(h, &p, &run);
    let trace = out.trace.take().expect("the run was traced");
    let spans = trace
        .ranks
        .iter()
        .flat_map(|r| &r.events)
        .filter(|e| matches!(e, TraceEvent::SpanBegin { name, .. } if name == "tune"))
        .count();
    let tuned = out.tuned.take().expect("the run had a plan");
    if matches!(plan, PlanChoice::Tune(_)) {
        // The trials sit inside the solve's own trace, before its `solve` span.
        for r in &trace.ranks {
            let first = |span: &str| {
                r.events
                    .iter()
                    .position(|e| matches!(e, TraceEvent::SpanBegin { name, .. } if name == span))
                    .unwrap_or_else(|| panic!("rank {}: no `{span}` span", r.rank))
            };
            assert!(first("tune") < first("solve"), "rank {}", r.rank);
        }
        db.insert(tuned.entry);
    } else {
        assert!(tuned.residuals.is_empty(), "a hit measures nothing");
    }
    (out.into_solved().expect("solve against the db"), spans)
}

#[test]
fn warm_db_solve_runs_zero_tune_trials() {
    let shape = GridShape::new(2, 2);
    let (h, _) = problem::<C64>(48, 21);
    let mut db = PlanDb::new();

    let (cold, cold_spans) = solve_against_db(&h, shape, &mut db);
    assert!(
        cold_spans > 0,
        "cold solve with an empty DB must run measurement trials"
    );
    assert_eq!(db.len(), 1, "cold solve must persist its plan");

    // Round-trip the DB through its on-disk form, as `chase serve` does
    // between runs.
    let db2 = PlanDb::parse(&db.emit()).expect("persisted DB must re-load");
    let mut db2 = db2;
    let (warm, warm_spans) = solve_against_db(&h, shape, &mut db2);
    assert_eq!(
        warm_spans, 0,
        "warm solve replayed the plan but still ran {warm_spans} tune trial span(s)"
    );

    // The plan is the same either way, so the answers are bitwise equal.
    for (rank, (rc, rw)) in cold.iter().zip(&warm).enumerate() {
        assert_eq!(rc.eigenvalues, rw.eigenvalues, "rank {rank}: eigenvalues");
        assert_eq!(rc.residuals, rw.residuals, "rank {rank}: residuals");
        assert_eq!(rc.matvecs, rw.matvecs, "rank {rank}: matvecs");
    }
}
