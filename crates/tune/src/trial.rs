//! Deterministic micro-benchmark trials probing the solver's hot paths.
//!
//! Each trial *executes* the real code path — a `chase-topo` hop schedule
//! over the real communicators, the pipelined HEMM over the caller's actual
//! `H` block — and scores it on one of two clocks:
//!
//! * **deterministic** — the events the path recorded are priced with the
//!   `chase-perfmodel` machine (per-hop for collectives, overlap-aware for
//!   pipelined filter steps). Trials replay bitwise, so tests and the
//!   serve scheduler's plan phase stay reproducible.
//! * **wall-clock** — `std::time::Instant` around the same execution, for
//!   tuning on a live machine.
//!
//! Either way, every candidate's score is world-agreed (summed over ranks
//! with one scalar allreduce) *before* any rank compares candidates, so
//! all ranks pick the same winner; the finished entry's content hash is
//! broadcast and checked as a belt-and-braces assertion. The flat
//! reference path is always among the candidates, which is what guarantees
//! a tuned plan is never worse than `Flat` under the trial metric.
//!
//! Every trial is wrapped in a `tune` trace span — a solve that resolves
//! its plan from a warm DB runs zero trials, witnessed by a trace with
//! zero `tune` spans.

use crate::db::{CollRule, PlanEntry, PlanKey};
use crate::fingerprint::machine_fingerprint;
use chase_comm::{Communicator, EventKind, RankCtx, Reduce, TuneAlgo, TuneOp};
use chase_core::{chebyshev_filter_with, DistHerm, FilterBounds, FilterExec};
use chase_device::{Backend, CollectiveAlgo, Device};
use chase_linalg::{Matrix, RealScalar, Scalar};
use chase_perfmodel::{
    price_events_overlap, CommFlavor, Machine, PriceCtx, ResidualRow, ScalarKind,
};
use chase_topo::{collective_cost, exec, Algo, CollOp, CHUNK_MENU, PANEL_MENU};
use std::time::Instant;

/// Degree of the trial filter: the smallest even degree that exercises both
/// recurrence directions (C→B and B→C) and their collectives.
const TRIAL_DEG: usize = 2;

/// Base collective-wait watchdog during trials, before the
/// `CHASE_TEST_TIMEOUT_SCALE` multiplier. Tighter than the production
/// default: a single micro-benchmark trial finishing slower than this is a
/// wedge, not a measurement.
const TRIAL_WATCHDOG_MS: u64 = 10_000;

/// How trials are clocked and priced.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Deterministic perf-model clock (bitwise-replayable) vs wall clock.
    pub deterministic: bool,
    /// Machine model: prices deterministic trials and fingerprints the DB
    /// key either way.
    pub machine: Machine,
    /// Backend whose transport the trials mimic (decides host staging).
    pub backend: Backend,
}

impl TuneOptions {
    /// Deterministic trials on the paper's machine model (the mode tests
    /// and the serve scheduler use).
    pub fn deterministic() -> Self {
        Self {
            deterministic: true,
            machine: Machine::juwels_booster(),
            backend: Backend::Nccl,
        }
    }

    /// Wall-clock trials (live tuning).
    pub fn wall_clock() -> Self {
        Self {
            deterministic: false,
            ..Self::deterministic()
        }
    }

    /// The comm flavor this backend prices at (host-staged vs
    /// device-direct alpha-beta rows).
    pub fn flavor(&self) -> CommFlavor {
        if self.backend.stages_through_host() {
            CommFlavor::MpiHostStaged
        } else {
            CommFlavor::NcclDeviceDirect
        }
    }
}

/// A finished tuning run: the DB entry plus the modeled-vs-measured
/// residuals of every hop-schedule candidate (the `chase-perfmodel`
/// calibration report).
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    pub entry: PlanEntry,
    pub residuals: Vec<ResidualRow>,
}

/// The `ScalarKind` the perf model prices `T` as.
pub fn scalar_kind<T: Scalar>() -> ScalarKind {
    match (std::mem::size_of::<T>(), T::IS_COMPLEX) {
        (4, false) => ScalarKind::F32,
        (8, true) => ScalarKind::C32,
        (16, true) => ScalarKind::C64,
        _ => ScalarKind::F64,
    }
}

/// Canonical lowercase scalar name for DB keys.
pub fn scalar_name<T: Scalar>() -> &'static str {
    match scalar_kind::<T>() {
        ScalarKind::F32 => "f32",
        ScalarKind::F64 => "f64",
        ScalarKind::C32 => "c32",
        ScalarKind::C64 => "c64",
    }
}

/// The DB key for a solve of `h`-like dimensions on this grid and machine.
pub fn plan_key<T: Scalar>(
    machine: &Machine,
    p: usize,
    q: usize,
    n: usize,
    nev: usize,
    nex: usize,
) -> PlanKey {
    PlanKey {
        machine: machine_fingerprint(machine),
        p,
        q,
        n,
        nev,
        nex,
        scalar: scalar_name::<T>().to_string(),
    }
}

/// Mutable trial bookkeeping shared by the probe passes.
struct Bench<'a> {
    ctx: &'a RankCtx,
    opts: &'a TuneOptions,
    trial_idx: u64,
    residuals: Vec<ResidualRow>,
}

impl<'a> Bench<'a> {
    /// World-agree a locally measured score: the sum over ranks is the
    /// shared metric every rank minimizes.
    fn agree(&self, local: f64) -> f64 {
        self.ctx.world.allreduce_scalar(local) / self.ctx.world.size() as f64
    }

    /// Run one candidate under a `tune` span and return its agreed score.
    fn run(&mut self, body: impl FnOnce(&mut f64)) -> f64 {
        self.ctx.trace_span_begin("tune", self.trial_idx);
        self.trial_idx += 1;
        let mut local = 0.0;
        if self.opts.deterministic {
            body(&mut local);
        } else {
            let t0 = Instant::now();
            body(&mut local);
            local = t0.elapsed().as_secs_f64();
        }
        self.ctx.trace_span_end("tune");
        self.agree(local)
    }
}

/// Chunk candidates for a message of `bytes`: every menu chunk that
/// actually splits it, plus one unsplit candidate. (A chunk at or above the
/// message size degenerates to "unsplit", so larger menu entries would be
/// duplicate trials.)
fn chunk_candidates(bytes: u64) -> Vec<u64> {
    let mut chunks: Vec<u64> = CHUNK_MENU.iter().copied().filter(|&c| c < bytes).collect();
    chunks.push(bytes.max(1));
    chunks
}

/// Measure every (algorithm, chunk) candidate — flat first — for one
/// collective probe and append the winning rule.
#[allow(clippy::too_many_arguments)]
fn probe_collective<T: Scalar + Reduce>(
    bench: &mut Bench<'_>,
    comm: &Communicator,
    op: CollOp,
    bytes: u64,
    rules: &mut Vec<CollRule>,
    tuned_sum: &mut f64,
    flat_sum: &mut f64,
) {
    let tune_op = match op {
        CollOp::AllReduce => TuneOp::AllReduce,
        CollOp::Bcast => TuneOp::Bcast,
        CollOp::AllGather => TuneOp::AllGather,
    };
    let members = comm.size();
    if rules
        .iter()
        .any(|r| r.op == tune_op && r.members == members && r.max_bytes == bytes)
    {
        return; // identical probe already measured
    }
    let es = std::mem::size_of::<T>() as u64;
    let len = ((bytes / es) as usize).max(1);
    let flavor = bench.opts.flavor();
    let machine = bench.opts.machine.clone();
    let topo = machine.topo.clone();

    // Flat reference candidate.
    let flat_cost = bench.run(|local| {
        let mut buf = vec![T::one(); len];
        match op {
            CollOp::AllReduce => comm.allreduce_sum(&mut buf),
            CollOp::Bcast => comm.bcast(&mut buf, 0),
            CollOp::AllGather => {
                let per = (len / members).max(1);
                let _ = comm.allgather(&buf[..per]);
            }
        }
        let kind = match op {
            CollOp::AllReduce => EventKind::AllReduce {
                bytes,
                members: members as u64,
            },
            CollOp::Bcast => EventKind::Bcast {
                bytes,
                members: members as u64,
            },
            CollOp::AllGather => EventKind::AllGather {
                bytes_per_rank: bytes / members.max(1) as u64,
                members: members as u64,
            },
        };
        *local = machine.comm_time(&kind, flavor);
    });

    let mut best = CollRule {
        op: tune_op,
        members,
        max_bytes: bytes,
        algo: TuneAlgo::Flat,
        chunk_bytes: 0,
        measured: flat_cost,
        modeled: flat_cost,
    };

    for algo in Algo::ALL {
        for chunk in chunk_candidates(bytes) {
            let cost = bench.run(|local| {
                let mut hop = |b: u64, link| {
                    *local += machine.comm_time(&EventKind::P2p { bytes: b, link }, flavor);
                };
                match op {
                    CollOp::AllReduce => {
                        let mut buf = vec![T::one(); len];
                        exec::allreduce(comm, &topo, &mut buf, algo, chunk, &mut hop);
                    }
                    CollOp::Bcast => {
                        let mut buf = vec![T::one(); len];
                        exec::bcast(comm, &topo, &mut buf, 0, algo, chunk, &mut hop);
                    }
                    CollOp::AllGather => {
                        let per = (len / members).max(1);
                        let buf = vec![T::one(); per];
                        let _ = exec::allgather(comm, &topo, &buf, algo, chunk, &mut hop);
                    }
                }
            });
            let modeled = collective_cost(
                &topo,
                comm.labels(),
                !bench.opts.backend.stages_through_host(),
                op,
                algo,
                bytes,
                chunk,
            );
            bench.residuals.push(ResidualRow {
                label: format!(
                    "{} {}B x{} {}/{}",
                    tune_op.name(),
                    bytes,
                    members,
                    algo.name(),
                    chunk
                ),
                modeled,
                measured: cost,
            });
            if cost < best.measured {
                best = CollRule {
                    op: tune_op,
                    members,
                    max_bytes: bytes,
                    algo: match algo {
                        Algo::Ring => TuneAlgo::Ring,
                        Algo::Tree => TuneAlgo::Tree,
                        Algo::Doubling => TuneAlgo::Doubling,
                    },
                    chunk_bytes: chunk,
                    measured: cost,
                    modeled,
                };
            }
        }
    }
    *tuned_sum += best.measured;
    *flat_sum += flat_cost;
    rules.push(best);
}

/// Tune a full entry for the solve configuration `(h, nev, nex)` on this
/// grid. Collective work runs on the actual row/column communicators,
/// filter work on the caller's actual `H` block (its prepack caches warm
/// up; the numeric content of the solve is untouched — trials use private
/// vector blocks). Must be called SPMD by every rank of the grid.
pub fn tune_entry<T>(
    ctx: &RankCtx,
    h: &mut DistHerm<T>,
    nev: usize,
    nex: usize,
    opts: &TuneOptions,
) -> TuneOutcome
where
    T: Scalar + Reduce,
    T::Real: Reduce,
{
    let ne = nev + nex;
    assert!(ne >= 1 && ne <= h.n, "trial subspace must fit the problem");
    // Trial watchdog: a wedged candidate must fail the tune with a typed
    // timeout, not hang it. Routed through `CHASE_TEST_TIMEOUT_SCALE`
    // (`chase_comm::scaled_timeout_ms`) like every other timeout-bearing
    // path, so oversubscribed CI keeps a real margin.
    let watchdog = chase_comm::scaled_timeout_ms(TRIAL_WATCHDOG_MS);
    let _seams = ctx.seams.scoped(|s| s.wait_timeout_ms = Some(watchdog));
    let es = std::mem::size_of::<T>() as u64;
    let pctx = PriceCtx {
        scalar: scalar_kind::<T>(),
        flavor: opts.flavor(),
        gpus_per_rank: 1.0,
    };
    let mut bench = Bench {
        ctx,
        opts,
        trial_idx: 0,
        residuals: Vec::new(),
    };

    // --- Collective probes: the solver's dominant blocking collectives.
    let n_r = h.n_r() as u64;
    let n_c = h.n_c() as u64;
    let ne64 = ne as u64;
    let mut rules = Vec::new();
    let (mut coll_tuned, mut coll_flat) = (0.0, 0.0);
    let probes: [(&Communicator, CollOp, u64); 5] = [
        // Filter C→B drain: partial HEMM products reduced down grid columns.
        (&ctx.col_comm, CollOp::AllReduce, n_c * ne64 * es),
        // Filter B→C drain: the transposed direction, down grid rows.
        (&ctx.row_comm, CollOp::AllReduce, n_r * ne64 * es),
        // Rayleigh–Ritz Gram/projection allreduce.
        (&ctx.row_comm, CollOp::AllReduce, ne64 * ne64 * es),
        // C-buffer broadcast down columns (square-grid B2 update).
        (&ctx.col_comm, CollOp::Bcast, n_r * ne64 * es),
        // B redistribution allgather along rows (non-square grids).
        (&ctx.row_comm, CollOp::AllGather, n_r * ne64 * es),
    ];
    for (comm, op, bytes) in probes {
        probe_collective::<T>(
            &mut bench,
            comm,
            op,
            bytes,
            &mut rules,
            &mut coll_tuned,
            &mut coll_flat,
        );
    }

    // --- Filter pipeline probes on the real H block.
    let dev = Device::with_collectives(
        ctx,
        opts.backend,
        CollectiveAlgo::Flat,
        opts.machine.topo.clone(),
    );
    let mut c = Matrix::from_fn(h.n_r(), ne, |i, j| {
        T::from_real(<T::Real as RealScalar>::from_f64_r(
            ((i * 31 + j * 17) % 101) as f64 / 101.0 + 0.01,
        ))
    });
    let mut b = Matrix::zeros(h.n_c(), ne);
    let bounds = FilterBounds::from_spectrum(
        <T::Real as RealScalar>::from_f64_r(-2.0),
        <T::Real as RealScalar>::from_f64_r(0.0),
        <T::Real as RealScalar>::from_f64_r(2.0),
    );
    let degrees = vec![TRIAL_DEG; ne];
    let machine = opts.machine.clone();

    let mut measure_filter = |bench: &mut Bench<'_>, exec_kind: FilterExec| -> f64 {
        bench.run(|local| {
            let start = ctx.ledger_snapshot().events().len();
            chebyshev_filter_with(&dev, ctx, h, &mut c, &mut b, 0, &degrees, bounds, exec_kind)
                .expect("trial filter on validated inputs");
            let snap = ctx.ledger_snapshot();
            *local = price_events_overlap(&snap.events()[start..], &machine, pctx).total();
        })
    };

    let filter_flat = measure_filter(&mut bench, FilterExec::Flat);
    let (mut best_filter, mut overlap, mut panel) = (filter_flat, false, 0usize);
    for &w in PANEL_MENU {
        if w >= ne {
            break; // a panel spanning the block degenerates to flat
        }
        let cost = measure_filter(&mut bench, FilterExec::Pipelined { panel: Some(w) });
        if cost < best_filter {
            best_filter = cost;
            overlap = true;
            panel = w;
        }
    }

    let entry = PlanEntry {
        key: plan_key::<T>(&opts.machine, ctx.shape.p, ctx.shape.q, h.n, nev, nex),
        rules,
        overlap,
        panel,
        tuned_cost: coll_tuned + best_filter,
        flat_cost: coll_flat + filter_flat,
        trials: bench.trial_idx,
    };

    // Belt-and-braces world agreement: every score was already allreduced,
    // so divergence here means a rank broke SPMD discipline — fail loudly
    // before the plan schedules a single collective.
    let mut agreed = [entry.content_hash()];
    ctx.world.bcast(&mut agreed, 0);
    assert_eq!(
        agreed[0],
        entry.content_hash(),
        "rank {} diverged from the world-agreed plan",
        ctx.world_rank()
    );

    TuneOutcome {
        entry,
        residuals: bench.residuals,
    }
}
