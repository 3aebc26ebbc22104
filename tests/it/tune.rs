//! The autotuner contract, end to end:
//!
//! - the plan database round-trips: `parse ∘ emit` is the identity over
//!   generated entries, and adversarial inputs (arbitrary truncation,
//!   duplicate keys, version skew, foreign format tags) fail with *typed*
//!   errors — a plan DB is never silently reinterpreted;
//! - measurement never loses to the default: the flat schedule is always
//!   among the trial candidates, so `tuned_cost <= flat_cost` for every
//!   sampled `(N, grid, scalar)` configuration;
//! - the entry is world-agreed: every rank of a grid derives bitwise the
//!   same entry.

use crate::common;

use chase_comm::{run_grid, GridShape, Reduce};
use chase_core::DistHerm;
use chase_linalg::{Scalar, C64};
use chase_topo::{Algo, CollOp};
use chase_tune::{
    plan_key, tune_entry, CollRule, DbError, PlanDb, PlanEntry, PlanKey, TuneOptions, DB_FORMAT,
    DB_VERSION,
};
use common::problem;
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
    let op = [CollOp::AllReduce, CollOp::Bcast, CollOp::AllGather][(splitmix(&mut s) % 3) as usize];
    let algo = [
        None,
        Some(Algo::Ring),
        Some(Algo::Tree),
        Some(Algo::Doubling),
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
// Live trials: tuned never loses to flat, and the entry is world-agreed.
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
        let dh = DistHerm::from_global(h, ctx);
        tune_entry(ctx, &dh, nev, nex, opts).entry
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
