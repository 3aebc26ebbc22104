//! # chase-faults
//!
//! Deterministic, seedable fault injection for the ChASE solver — the chaos
//! side of the robustness story the paper's QR switchboard (Algorithms 4–5)
//! tells. The switchboard exists because CholeskyQR silently breaks down on
//! ill-conditioned filtered blocks; this crate injects exactly those failure
//! modes (and their distributed cousins — corrupted collective payloads,
//! stalled nonblocking requests) at chosen `(iteration, region)` trigger
//! points so the recovery ladder in `chase-core` can be exercised on demand.
//!
//! Everything is a pure function of the spec seed and the solver's SPMD
//! call sequence: no wall clock, no OS entropy. The same [`FaultSpec`]
//! string replays the same faults — and the same `RecoveryLog` — bit for
//! bit, which is what makes chaos CI failures reproducible locally.
//!
//! A [`FaultPlan`] is the per-rank compiled form of a spec. The solver
//! drives it (`set_iter`, `set_region`), the device layer consults it at
//! collective posts ([`FaultPlan::corrupt_payload`]), the comm layer routes
//! nonblocking posts through it (it implements
//! [`chase_comm::CommFaultHook`]), and the solver applies block-level
//! corruption between pipeline stages ([`FaultPlan::apply_block_faults`]).

use chase_comm::{CommFaultHook, DeathHandle, PostAction, Region, TraceHook};
use chase_linalg::{Matrix, RealScalar, Scalar};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// What kind of fault an [`Injection`] plants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrite elements of chosen columns of the filtered block with NaN.
    NanBlock,
    /// Overwrite elements of chosen columns of the filtered block with +inf.
    InfBlock,
    /// Zero columns of the filtered block so the Gram matrix has an exact
    /// zero pivot — forces `NotPositiveDefinite` in *every* CholeskyQR rung
    /// (the shift only guards the first pass; the unshifted re-orthogonali-
    /// zation still meets the exact zero), walking the ladder to HHQR.
    /// (Mere column duplication is not enough: rounding in the Cholesky
    /// recurrence usually leaves the critical pivot a few ulps positive.)
    Breakdown,
    /// Poison one element of a collective payload with NaN on one rank.
    NanPayload,
    /// Poison one element of a collective payload with +inf on one rank.
    InfPayload,
    /// Flip one bit of one element of a collective payload on one rank.
    BitFlip,
    /// Never post one nonblocking collective — every member's `wait()` times
    /// out. Triggered identically on all ranks (a wedged communicator).
    Stall,
    /// Sleep before posting nonblocking collectives (a straggler link).
    Delay,
    /// Kill one rank: at the armed `(iter, region)` site the target rank
    /// marks itself dead on the grid's dead-rank board and unwinds, never
    /// depositing into another collective. Survivors detect the death
    /// (`RankDead` / `RankDeadPanic`), agree on the dead set, and the
    /// elastic driver shrinks the grid and resumes from checkpoint.
    RankCrash,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::NanBlock => "nan-block",
            FaultKind::InfBlock => "inf-block",
            FaultKind::Breakdown => "breakdown",
            FaultKind::NanPayload => "nan",
            FaultKind::InfPayload => "inf",
            FaultKind::BitFlip => "bitflip",
            FaultKind::Stall => "stall",
            FaultKind::Delay => "delay",
            FaultKind::RankCrash => "rank-crash",
        }
    }

    fn parse(s: &str) -> Result<Self, SpecError> {
        Ok(match s {
            "nan-block" => FaultKind::NanBlock,
            "inf-block" => FaultKind::InfBlock,
            "breakdown" => FaultKind::Breakdown,
            "nan" => FaultKind::NanPayload,
            "inf" => FaultKind::InfPayload,
            "bitflip" => FaultKind::BitFlip,
            "stall" => FaultKind::Stall,
            "delay" => FaultKind::Delay,
            "rank-crash" => FaultKind::RankCrash,
            other => return Err(SpecError(format!("unknown fault kind '{other}'"))),
        })
    }
}

/// Short region names used in spec strings.
fn region_name(r: Region) -> &'static str {
    match r {
        Region::Lanczos => "lanczos",
        Region::Filter => "filter",
        Region::Qr => "qr",
        Region::RayleighRitz => "rr",
        Region::Residuals => "resid",
        Region::Other => "other",
    }
}

fn region_parse(s: &str) -> Result<Region, SpecError> {
    Ok(match s {
        "lanczos" => Region::Lanczos,
        "filter" => Region::Filter,
        "qr" => Region::Qr,
        "rr" => Region::RayleighRitz,
        "resid" => Region::Residuals,
        "other" => Region::Other,
        other => return Err(SpecError(format!("unknown region '{other}'"))),
    })
}

fn region_id(r: Region) -> u8 {
    match r {
        Region::Lanczos => 0,
        Region::Filter => 1,
        Region::Qr => 2,
        Region::RayleighRitz => 3,
        Region::Residuals => 4,
        Region::Other => 5,
    }
}

/// One planned fault: a kind plus its `(iteration, region, rank)` trigger
/// and kind-specific knobs. Fires at most once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Injection {
    pub kind: FaultKind,
    /// Solver iteration (1-based) the fault arms at.
    pub iter: u64,
    /// Restrict to one solver region; `None` fires in any region.
    pub region: Option<Region>,
    /// Payload faults: the world rank that corrupts its contribution
    /// (default 0). Ignored by block/stall/delay faults.
    pub rank: usize,
    /// Block faults: restrict to one grid row (replica-consistent);
    /// `None` corrupts on every grid row.
    pub row: Option<usize>,
    /// Block faults: number of columns to poison (default 1).
    pub cols: usize,
    /// Bit-flip faults: which bit of the f64 representation (default 1).
    pub bit: u32,
    /// Delay faults: sleep in milliseconds (default 5).
    pub ms: u64,
}

impl Injection {
    fn new(kind: FaultKind, iter: u64) -> Self {
        Self {
            kind,
            iter,
            region: None,
            rank: 0,
            row: None,
            cols: 1,
            bit: 1,
            ms: 5,
        }
    }

    /// Spec-vocabulary name of this injection's region gate ("any" when
    /// ungated). Used by the elastic driver to synthesize the crashed
    /// rank's injection record deterministically (the victim's own log
    /// dies with it).
    pub fn region_name(&self) -> &'static str {
        self.region.map(region_name).unwrap_or("any")
    }
}

impl fmt::Display for Injection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@iter={}", self.kind.name(), self.iter)?;
        if let Some(r) = self.region {
            write!(f, ",region={}", region_name(r))?;
        }
        match self.kind {
            FaultKind::NanPayload | FaultKind::InfPayload | FaultKind::BitFlip => {
                write!(f, ",rank={}", self.rank)?;
                if self.kind == FaultKind::BitFlip {
                    write!(f, ",bit={}", self.bit)?;
                }
            }
            FaultKind::NanBlock | FaultKind::InfBlock => {
                if let Some(row) = self.row {
                    write!(f, ",row={row}")?;
                }
                write!(f, ",cols={}", self.cols)?;
            }
            FaultKind::Breakdown => write!(f, ",cols={}", self.cols)?,
            FaultKind::Delay => write!(f, ",ms={}", self.ms)?,
            FaultKind::RankCrash => write!(f, ",rank={}", self.rank)?,
            FaultKind::Stall => {}
        }
        Ok(())
    }
}

/// Malformed fault-spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// A full fault campaign: a seed (feeding every pseudo-random choice the
/// injectors make) plus a list of injections.
///
/// The text form round-trips through [`FaultSpec::parse`] / `Display`:
///
/// ```text
/// seed=42;bitflip@iter=2,region=filter,rank=1,bit=7;stall@iter=3,region=rr
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    pub seed: u64,
    pub injections: Vec<Injection>,
}

impl FaultSpec {
    /// Parse the `seed=..;kind@k=v,..` spec grammar (the `--inject` string).
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let mut seed = 0u64;
        let mut injections = Vec::new();
        for (i, seg) in s.split(';').enumerate() {
            let seg = seg.trim();
            if seg.is_empty() {
                continue;
            }
            if let Some(v) = seg.strip_prefix("seed=") {
                if i != 0 {
                    return Err(SpecError("seed= must come first".into()));
                }
                seed = v
                    .parse()
                    .map_err(|_| SpecError(format!("bad seed '{v}'")))?;
                continue;
            }
            let (kind, rest) = seg
                .split_once('@')
                .ok_or_else(|| SpecError(format!("'{seg}': expected kind@iter=N,...")))?;
            let kind = FaultKind::parse(kind)?;
            let mut inj = Injection::new(kind, 0);
            let mut saw_iter = false;
            for kv in rest.split(',') {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| SpecError(format!("'{kv}': expected key=value")))?;
                let num = || -> Result<u64, SpecError> {
                    v.parse()
                        .map_err(|_| SpecError(format!("bad number '{v}' for '{k}'")))
                };
                match k {
                    "iter" => {
                        inj.iter = num()?;
                        saw_iter = true;
                    }
                    "region" => inj.region = Some(region_parse(v)?),
                    "rank" => inj.rank = num()? as usize,
                    "row" => inj.row = Some(num()? as usize),
                    "cols" => inj.cols = num()? as usize,
                    "bit" => inj.bit = (num()? as u32) & 63,
                    "ms" => inj.ms = num()?,
                    other => return Err(SpecError(format!("unknown key '{other}'"))),
                }
            }
            if !saw_iter || inj.iter == 0 {
                return Err(SpecError(format!(
                    "'{seg}': every injection needs iter=N (1-based)"
                )));
            }
            injections.push(inj);
        }
        if injections.is_empty() {
            return Err(SpecError("no injections in spec".into()));
        }
        Ok(Self { seed, injections })
    }
}

impl FaultSpec {
    /// The planned `rank-crash` injections (the elastic driver synthesizes
    /// their deterministic crash records from the spec, since the crashed
    /// rank's own log dies with it).
    pub fn crash_sites(&self) -> Vec<Injection> {
        self.injections
            .iter()
            .filter(|i| i.kind == FaultKind::RankCrash)
            .copied()
            .collect()
    }

    /// This campaign minus every `rank-crash` injection — what the resumed
    /// attempt on the shrunk grid runs under (world ranks renumber after the
    /// shrink, so re-arming the crash would be ill-defined), or `None` when
    /// nothing else remains.
    pub fn without_rank_crash(&self) -> Option<FaultSpec> {
        let injections: Vec<Injection> = self
            .injections
            .iter()
            .filter(|i| i.kind != FaultKind::RankCrash)
            .copied()
            .collect();
        if injections.is_empty() {
            None
        } else {
            Some(FaultSpec {
                seed: self.seed,
                injections,
            })
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for inj in &self.injections {
            write!(f, ";{inj}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for FaultSpec {
    type Err = SpecError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// One fault that actually fired, as recorded by the plan. Deterministic —
/// no timestamps — so two identical runs log identical records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionRecord {
    /// Solver iteration the fault fired in (1-based).
    pub iter: u64,
    /// Region name at firing time (spec vocabulary: "filter", "qr", ...).
    pub region: &'static str,
    /// World rank that executed the injection.
    pub rank: usize,
    /// Human-readable description of exactly what was done.
    pub what: String,
}

impl fmt::Display for InjectionRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "iter {} [{}] rank {}: {}",
            self.iter, self.region, self.rank, self.what
        )
    }
}

/// Panic payload of a cooperatively crashing rank: [`FaultPlan::check_crash`]
/// raises it after marking the rank dead, and the elastic driver's
/// `catch_unwind` recognizes it as "this rank is the victim" (as opposed to
/// a survivor unwinding on `RankDeadPanic`).
#[derive(Debug, Clone)]
pub struct RankCrashPanic {
    pub world_rank: usize,
}

/// splitmix64: the cheap, high-quality mixer every pseudo-random injector
/// choice flows through (element index, corrupted value). Keyed only by the
/// spec seed and SPMD-deterministic counters.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-rank compiled fault plan. Shared (via `Arc`) between the solver, the
/// device layer and the communicators of one rank; `Send + Sync` because the
/// comm fault hook demands it, though in practice one plan serves one rank.
pub struct FaultPlan {
    spec: FaultSpec,
    world_rank: usize,
    grid_row: usize,
    /// Current solver iteration (1-based; 0 = before the loop).
    iter: AtomicU64,
    /// Current region id (see `region_id`).
    region: AtomicU8,
    /// One-shot flag per injection.
    fired: Vec<AtomicBool>,
    /// Monotonic site counter decorrelating successive payload corruptions.
    site: AtomicU64,
    log: Mutex<Vec<InjectionRecord>>,
    /// Optional trace sink mirroring every injection into the trace counter
    /// stream (`faults_fired`, `posts_dropped`, `posts_delayed`), so a
    /// recorded timeline shows *where* the chaos harness struck.
    trace: Mutex<Option<std::sync::Arc<dyn TraceHook>>>,
    /// Crash switch for `rank-crash` injections: marks this rank dead on
    /// the grid's board and wakes parked waiters. Installed by the solver's
    /// distributed wiring; absent on serial runs (where a crash would be
    /// the whole job dying — nothing to recover onto).
    death: Mutex<Option<DeathHandle>>,
}

impl FaultPlan {
    pub fn new(spec: FaultSpec, world_rank: usize, grid_row: usize) -> Self {
        let fired = spec
            .injections
            .iter()
            .map(|_| AtomicBool::new(false))
            .collect();
        Self {
            spec,
            world_rank,
            grid_row,
            iter: AtomicU64::new(0),
            region: AtomicU8::new(region_id(Region::Other)),
            fired,
            site: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
            trace: Mutex::new(None),
            death: Mutex::new(None),
        }
    }

    /// Install (or clear) the crash switch consulted by `rank-crash`
    /// injections.
    pub fn set_death_handle(&self, h: Option<DeathHandle>) {
        *self.death.lock().unwrap() = h;
    }

    /// Mirror injections into a trace recorder (cleared with `None`).
    pub fn set_trace_hook(&self, hook: Option<std::sync::Arc<dyn TraceHook>>) {
        *self.trace.lock().unwrap() = hook;
    }

    fn trace_counter(&self, name: &'static str) {
        if let Some(h) = &*self.trace.lock().unwrap() {
            h.counter(name, 1);
        }
    }

    /// Advance the solver-iteration trigger clock (1-based).
    pub fn set_iter(&self, it: u64) {
        self.iter.store(it, Ordering::Relaxed);
    }

    /// Track the solver region for region-gated triggers.
    pub fn set_region(&self, r: Region) {
        self.region.store(region_id(r), Ordering::Relaxed);
    }

    fn current_region_name(&self) -> &'static str {
        match self.region.load(Ordering::Relaxed) {
            0 => "lanczos",
            1 => "filter",
            2 => "qr",
            3 => "rr",
            4 => "resid",
            _ => "other",
        }
    }

    /// Does injection `idx` match the current (iter, region) trigger point?
    fn armed(&self, idx: usize) -> bool {
        let inj = &self.spec.injections[idx];
        if self.fired[idx].load(Ordering::Relaxed) {
            return false;
        }
        if self.iter.load(Ordering::Relaxed) != inj.iter {
            return false;
        }
        match inj.region {
            Some(r) => region_id(r) == self.region.load(Ordering::Relaxed),
            None => true,
        }
    }

    /// Claim injection `idx` (first claimer wins; at most once).
    fn claim(&self, idx: usize) -> bool {
        !self.fired[idx].swap(true, Ordering::Relaxed)
    }

    fn record(&self, what: String) {
        self.trace_counter("faults_fired");
        self.log.lock().unwrap().push(InjectionRecord {
            iter: self.iter.load(Ordering::Relaxed),
            region: self.current_region_name(),
            rank: self.world_rank,
            what,
        });
    }

    /// Drain the records logged so far (the solver folds them into the
    /// `RecoveryLog` once per iteration).
    pub fn take_records(&self) -> Vec<InjectionRecord> {
        std::mem::take(&mut self.log.lock().unwrap())
    }

    /// True if any injection has fired on this rank.
    pub fn any_fired(&self) -> bool {
        self.fired.iter().any(|f| f.load(Ordering::Relaxed))
    }

    /// Execute an armed `rank-crash` injection targeting this rank: record
    /// it, mark the rank dead on the grid's board (waking every parked wait
    /// loop) and unwind with the typed [`RankCrashPanic`] payload — from
    /// this point the rank never deposits into another collective. A no-op
    /// unless a death handle is installed (serial runs have no grid to
    /// shrink) — the injection then stays armed and inert.
    ///
    /// Consulted at every device-layer collective call site, which makes the
    /// crash site deterministic: the first collective the victim issues in
    /// the armed `(iter, region)` window.
    pub fn check_crash(&self) {
        for idx in 0..self.spec.injections.len() {
            let inj = self.spec.injections[idx];
            if inj.kind != FaultKind::RankCrash || inj.rank != self.world_rank {
                continue;
            }
            if !self.armed(idx) {
                continue;
            }
            let death = self.death.lock().unwrap();
            let Some(h) = &*death else { continue };
            if !self.claim(idx) {
                continue;
            }
            self.record("rank crashed (stops depositing into collectives)".into());
            self.trace_counter("rank_crashes");
            h.mark_dead();
            drop(death);
            std::panic::panic_any(RankCrashPanic {
                world_rank: self.world_rank,
            });
        }
    }

    /// Corrupt one element of a collective payload if a payload fault
    /// (`nan`, `inf`, `bitflip`) is armed for this rank. Called by the
    /// device layer on the local contribution before it is posted — which
    /// also makes it the crash site for `rank-crash` injections.
    /// Returns `true` if the buffer was modified.
    pub fn corrupt_payload<T: Scalar>(&self, op: &'static str, buf: &mut [T]) -> bool {
        self.check_crash();
        if buf.is_empty() {
            return false;
        }
        for idx in 0..self.spec.injections.len() {
            let inj = self.spec.injections[idx];
            if !matches!(
                inj.kind,
                FaultKind::NanPayload | FaultKind::InfPayload | FaultKind::BitFlip
            ) {
                continue;
            }
            if inj.rank != self.world_rank || !self.armed(idx) || !self.claim(idx) {
                continue;
            }
            let site = self.site.fetch_add(1, Ordering::Relaxed);
            let h = splitmix64(self.spec.seed ^ inj.iter.rotate_left(17) ^ site);
            let elem = (h % buf.len() as u64) as usize;
            let what = match inj.kind {
                FaultKind::NanPayload => {
                    buf[elem] = T::from_f64(f64::NAN);
                    format!("nan into {op} payload elem {elem}/{}", buf.len())
                }
                FaultKind::InfPayload => {
                    buf[elem] = T::from_f64(f64::INFINITY);
                    format!("inf into {op} payload elem {elem}/{}", buf.len())
                }
                FaultKind::BitFlip => {
                    let bits = buf[elem].re().to_f64().to_bits() ^ (1u64 << inj.bit);
                    buf[elem] = T::from_f64(f64::from_bits(bits));
                    format!(
                        "bitflip bit {} of {op} payload elem {elem}/{}",
                        inj.bit,
                        buf.len()
                    )
                }
                _ => unreachable!(),
            };
            self.record(what);
            return true;
        }
        false
    }

    /// Corrupt columns of the filtered block (the active window starts at
    /// column `offset` and spans `ncols`). Block faults must keep the
    /// C-layout replicas consistent: every rank in one grid row holds the
    /// same local rows, so the decision is keyed on the grid row — never the
    /// world rank. `breakdown` fires on *all* ranks (column duplication must
    /// be global for the Gram matrix to be exactly singular). Returns the
    /// number of injections applied.
    pub fn apply_block_faults<T: Scalar>(
        &self,
        m: &mut Matrix<T>,
        offset: usize,
        ncols: usize,
    ) -> usize {
        if ncols == 0 {
            return 0;
        }
        let mut applied = 0;
        for idx in 0..self.spec.injections.len() {
            let inj = self.spec.injections[idx];
            match inj.kind {
                FaultKind::NanBlock | FaultKind::InfBlock => {
                    if inj.row.is_some_and(|r| r != self.grid_row) {
                        continue;
                    }
                    if !self.armed(idx) || !self.claim(idx) {
                        continue;
                    }
                    let poison = if inj.kind == FaultKind::NanBlock {
                        T::from_f64(f64::NAN)
                    } else {
                        T::from_f64(f64::INFINITY)
                    };
                    let ncorrupt = inj.cols.clamp(1, ncols);
                    let rows = m.rows();
                    for j in 0..ncorrupt {
                        let col = offset + (ncols - ncorrupt) / 2 + j;
                        // One poisoned element per column is enough to sink
                        // Gram/potrf; pick the row pseudo-randomly.
                        let h = splitmix64(self.spec.seed ^ (col as u64) << 20 ^ inj.iter);
                        if rows > 0 {
                            m.col_mut(col)[(h % rows as u64) as usize] = poison;
                        }
                    }
                    self.record(format!(
                        "{} into {} column(s) at {} (grid row {})",
                        if inj.kind == FaultKind::NanBlock {
                            "nan"
                        } else {
                            "inf"
                        },
                        ncorrupt,
                        offset + (ncols - ncorrupt) / 2,
                        self.grid_row
                    ));
                    applied += 1;
                }
                FaultKind::Breakdown => {
                    if !self.armed(idx) || !self.claim(idx) {
                        continue;
                    }
                    // Zero out `cols` active columns: the Gram matrix gets an
                    // exact zero row/column, so every CholeskyQR rung hits an
                    // exactly zero pivot and *must* break down.
                    let nzero = inj.cols.clamp(1, ncols);
                    for j in 0..nzero {
                        m.col_mut(offset + j).fill(T::zero());
                    }
                    self.record(format!(
                        "zeroed {} active column(s) starting at {}",
                        nzero, offset
                    ));
                    applied += 1;
                }
                _ => {}
            }
        }
        applied
    }
}

impl CommFaultHook for FaultPlan {
    fn on_post(&self, op: &'static str, _seq: u64) -> PostAction {
        for idx in 0..self.spec.injections.len() {
            let inj = self.spec.injections[idx];
            match inj.kind {
                // Stall triggers are evaluated identically on every rank
                // (iter/region only — never rank-gated), so all members drop
                // the same op and all of them time out at its wait.
                FaultKind::Stall if self.armed(idx) && self.claim(idx) => {
                    self.record(format!("stalled nonblocking {op} post"));
                    self.trace_counter("posts_dropped");
                    return PostAction::Drop;
                }
                FaultKind::Delay if self.armed(idx) && self.claim(idx) => {
                    self.record(format!("delayed nonblocking {op} post by {} ms", inj.ms));
                    self.trace_counter("posts_delayed");
                    return PostAction::Delay { ms: inj.ms };
                }
                _ => {}
            }
        }
        PostAction::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_display() {
        let s = "seed=42;bitflip@iter=2,region=filter,rank=1,bit=7;stall@iter=3,region=rr;\
                 breakdown@iter=1,cols=2;nan-block@iter=4,row=1,cols=3;delay@iter=5,ms=12;\
                 rank-crash@iter=3,region=filter,rank=1";
        let spec = FaultSpec::parse(s).unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.injections.len(), 6);
        let printed = spec.to_string();
        let reparsed = FaultSpec::parse(&printed).unwrap();
        assert_eq!(spec, reparsed, "parse(display(spec)) must round-trip");
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(FaultSpec::parse("").is_err());
        assert!(
            FaultSpec::parse("seed=1").is_err(),
            "seed alone is no campaign"
        );
        assert!(FaultSpec::parse("frobnicate@iter=1").is_err());
        assert!(
            FaultSpec::parse("nan@region=filter").is_err(),
            "iter is required"
        );
        assert!(FaultSpec::parse("nan@iter=0").is_err(), "iter is 1-based");
        assert!(FaultSpec::parse("nan@iter=1,wat=3").is_err());
        assert!(
            FaultSpec::parse("nan@iter=1;seed=2").is_err(),
            "seed must lead"
        );
    }

    #[test]
    fn payload_corruption_is_rank_gated_and_fires_once() {
        let spec = FaultSpec::parse("seed=7;nan@iter=2,region=filter,rank=1").unwrap();
        let hit = FaultPlan::new(spec.clone(), 1, 0);
        let miss = FaultPlan::new(spec, 0, 0);
        for p in [&hit, &miss] {
            p.set_iter(2);
            p.set_region(Region::Filter);
        }
        let mut buf = vec![1.0f64; 8];
        assert!(!miss.corrupt_payload("iallreduce", &mut buf));
        assert!(hit.corrupt_payload("iallreduce", &mut buf));
        assert_eq!(buf.iter().filter(|x| x.is_nan()).count(), 1);
        let mut again = vec![1.0f64; 8];
        assert!(!hit.corrupt_payload("iallreduce", &mut again), "one-shot");
        let rec = hit.take_records();
        assert_eq!(rec.len(), 1);
        assert_eq!((rec[0].iter, rec[0].region, rec[0].rank), (2, "filter", 1));
    }

    /// `overflow` planted a value past f32 range for a filter that no
    /// longer runs in f32: a spec naming it is refused, not ignored.
    #[test]
    fn overflow_is_not_a_fault_kind() {
        let err = FaultSpec::parse("seed=7;overflow@iter=1,region=filter,rank=0").unwrap_err();
        assert_eq!(err, SpecError("unknown fault kind 'overflow'".into()));
    }

    #[test]
    fn corruption_is_deterministic_across_plans() {
        let spec = FaultSpec::parse("seed=99;bitflip@iter=1,rank=0,bit=3").unwrap();
        let mk = || {
            let p = FaultPlan::new(spec.clone(), 0, 0);
            p.set_iter(1);
            p.set_region(Region::Filter);
            let mut buf: Vec<f64> = (0..32).map(|i| i as f64).collect();
            assert!(p.corrupt_payload("iallreduce", &mut buf));
            (buf, p.take_records())
        };
        let (a, ra) = mk();
        let (b, rb) = mk();
        assert_eq!(a, b, "same seed, same corruption");
        assert_eq!(ra, rb, "same seed, same records");
    }

    #[test]
    fn region_gate_holds_fault_until_region_matches() {
        let spec = FaultSpec::parse("seed=1;inf@iter=1,region=qr,rank=0").unwrap();
        let p = FaultPlan::new(spec, 0, 0);
        p.set_iter(1);
        p.set_region(Region::Filter);
        let mut buf = vec![1.0f64; 4];
        assert!(!p.corrupt_payload("iallreduce", &mut buf));
        p.set_region(Region::Qr);
        assert!(p.corrupt_payload("iallreduce", &mut buf));
        assert!(buf.iter().any(|x| x.is_infinite()));
    }

    #[test]
    fn breakdown_zeroes_columns_exactly() {
        let spec = FaultSpec::parse("seed=5;breakdown@iter=1,cols=2").unwrap();
        let p = FaultPlan::new(spec, 3, 1);
        p.set_iter(1);
        p.set_region(Region::Filter);
        let mut m = Matrix::<f64>::zeros(6, 5);
        for j in 0..5 {
            for i in 0..6 {
                m.col_mut(j)[i] = (10 * j + i + 1) as f64;
            }
        }
        assert_eq!(p.apply_block_faults(&mut m, 1, 4), 1);
        assert!(m.col(1).iter().all(|x| *x == 0.0), "column zeroed");
        assert!(m.col(2).iter().all(|x| *x == 0.0), "column zeroed");
        assert!(m.col(3).iter().all(|x| *x != 0.0), "cols=2 stops here");
        assert_eq!(m.col(0)[0], 1.0, "locked columns untouched");
    }

    #[test]
    fn block_fault_respects_grid_row_gate() {
        let spec = FaultSpec::parse("seed=5;nan-block@iter=1,row=0,cols=1").unwrap();
        let on_row = FaultPlan::new(spec.clone(), 0, 0);
        let off_row = FaultPlan::new(spec, 1, 1);
        for p in [&on_row, &off_row] {
            p.set_iter(1);
            p.set_region(Region::Filter);
        }
        let mut a = Matrix::<f64>::zeros(4, 3);
        let mut b = Matrix::<f64>::zeros(4, 3);
        assert_eq!(on_row.apply_block_faults(&mut a, 0, 3), 1);
        assert_eq!(off_row.apply_block_faults(&mut b, 0, 3), 0);
        assert!(a.as_slice().iter().any(|x| x.is_nan()));
        assert!(b.as_slice().iter().all(|x| *x == 0.0));
    }

    #[test]
    fn stall_hook_drops_exactly_one_post() {
        let spec = FaultSpec::parse("seed=2;stall@iter=3,region=filter").unwrap();
        let p = FaultPlan::new(spec, 0, 0);
        p.set_iter(2);
        p.set_region(Region::Filter);
        assert_eq!(p.on_post("iallreduce", 0), PostAction::Deliver);
        p.set_iter(3);
        assert_eq!(p.on_post("iallreduce", 1), PostAction::Drop);
        assert_eq!(p.on_post("iallreduce", 2), PostAction::Deliver, "one-shot");
        let rec = p.take_records();
        assert_eq!(rec.len(), 1);
        assert!(rec[0].what.contains("stalled"));
    }

    #[test]
    fn rank_crash_requires_a_death_handle_and_fires_once() {
        use chase_comm::{DeadBoard, Slot};
        use std::sync::Arc;

        let spec = FaultSpec::parse("seed=3;rank-crash@iter=2,region=filter,rank=1").unwrap();
        // Without a death handle (serial run): armed but inert.
        let inert = FaultPlan::new(spec.clone(), 1, 0);
        inert.set_iter(2);
        inert.set_region(Region::Filter);
        inert.check_crash();
        assert!(!inert.any_fired(), "no grid to shrink, no crash");

        // Wrong rank: never fires even with a handle.
        let board = Arc::new(DeadBoard::new());
        let other = FaultPlan::new(spec.clone(), 0, 0);
        other.set_death_handle(Some(DeathHandle::new(board.clone(), 0, vec![Slot::new(1)])));
        other.set_iter(2);
        other.set_region(Region::Filter);
        other.check_crash();
        assert!(!other.any_fired());

        // The victim with a handle: marks the board, panics typed, one-shot.
        let victim = Arc::new(FaultPlan::new(spec, 1, 0));
        victim.set_death_handle(Some(DeathHandle::new(board.clone(), 1, vec![Slot::new(1)])));
        victim.set_iter(1);
        victim.set_region(Region::Filter);
        victim.check_crash();
        assert!(!victim.any_fired(), "iter gate holds");
        victim.set_iter(2);
        let v = victim.clone();
        let payload = std::thread::spawn(move || v.check_crash())
            .join()
            .unwrap_err();
        let p = payload
            .downcast_ref::<RankCrashPanic>()
            .expect("typed RankCrashPanic payload");
        assert_eq!(p.world_rank, 1);
        assert!(board.is_dead(1), "board marked before the unwind");
        assert!(victim.any_fired());
        let rec = victim.take_records();
        assert_eq!(rec.len(), 1);
        assert!(rec[0].what.contains("crashed"));
        victim.check_crash(); // one-shot: a second call is a no-op
    }

    #[test]
    fn crash_site_helpers_split_the_campaign() {
        let spec =
            FaultSpec::parse("seed=9;rank-crash@iter=2,region=filter,rank=3;nan@iter=1,rank=0")
                .unwrap();
        let sites = spec.crash_sites();
        assert_eq!(sites.len(), 1);
        assert_eq!((sites[0].iter, sites[0].rank), (2, 3));
        let rest = spec.without_rank_crash().unwrap();
        assert_eq!(rest.injections.len(), 1);
        assert_eq!(rest.injections[0].kind, FaultKind::NanPayload);
        assert_eq!(rest.seed, 9);
        let only_crash = FaultSpec::parse("seed=9;rank-crash@iter=2,rank=1").unwrap();
        assert!(only_crash.without_rank_crash().is_none());
    }

    #[test]
    fn delay_hook_delays_then_delivers() {
        let spec = FaultSpec::parse("seed=2;delay@iter=1,ms=7").unwrap();
        let p = FaultPlan::new(spec, 0, 0);
        p.set_iter(1);
        p.set_region(Region::RayleighRitz);
        assert_eq!(p.on_post("ibcast", 0), PostAction::Delay { ms: 7 });
        assert_eq!(p.on_post("ibcast", 1), PostAction::Deliver);
    }
}
