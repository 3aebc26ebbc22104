//! Collective operations over in-process "ranks" (threads).
//!
//! Each communicator is a set of ranks sharing a rendezvous slot. Collectives
//! are SPMD: every member calls the same operation in the same order, exactly
//! as with MPI/NCCL communicators. The implementation exchanges data through
//! shared memory; what distinguishes the MPI and NCCL builds of ChASE is not
//! *whether* the data arrives but what staging and latency costs the paper's
//! machine charges for it — those are recorded in the [`Ledger`] by callers
//! and priced by `chase-perfmodel`.

use crate::schedule::{slot_in_perm, SchedulePoint, ScheduleStream};
use crate::seams::{RankSeams, Seams};
use crate::trace_hook::CommScope;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::any::Any;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A nonblocking collective's `wait()` gave up: some member never posted its
/// contribution within the communicator's wait timeout. In a real MPI/NCCL
/// deployment this is the watchdog firing on a dead or wedged peer; here it
/// turns a permanently-stalled `Request` into a typed, recoverable error
/// instead of a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeout {
    /// Per-rank sequence number of the op that never completed.
    pub op_id: u64,
    /// The timeout that was exceeded, in milliseconds.
    pub timeout_ms: u64,
}

impl std::fmt::Display for WaitTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nonblocking collective op {} timed out after {} ms (peer never posted)",
            self.op_id, self.timeout_ms
        )
    }
}

impl std::error::Error for WaitTimeout {}

/// Typed failure of a nonblocking collective's `wait()`. Extends the plain
/// [`WaitTimeout`] watchdog with the two outcomes the elastic-recovery layer
/// needs to distinguish: a peer that is *known dead* (crash detected on the
/// grid's dead-rank board — recoverable by shrink-and-resume) and an op the
/// engine has no usable record of (a payload of the wrong type — a harness
/// bug surfaced gracefully instead of a panic poisoning the thread pool).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The watchdog expired with no evidence of a crash: some member never
    /// posted in time.
    Timeout(WaitTimeout),
    /// One or more members of the grid are marked dead on the dead-rank
    /// board; the op can never complete. Carries the dead world ranks
    /// (sorted) so survivors can enter the agreement round.
    RankDead {
        /// Per-rank sequence number of the op that can never complete.
        op_id: u64,
        /// World ranks marked dead at detection time, sorted ascending.
        dead: Vec<usize>,
    },
    /// The engine has no usable record of the op (payload of the wrong
    /// type).
    UnknownOp { op_id: u64 },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout(t) => t.fmt(f),
            CommError::RankDead { op_id, dead } => write!(
                f,
                "nonblocking collective op {op_id} aborted: rank(s) {dead:?} are dead"
            ),
            CommError::UnknownOp { op_id } => write!(
                f,
                "nonblocking collective op {op_id} is unknown to the engine (never posted, dropped, or already drained)"
            ),
        }
    }
}

impl std::error::Error for CommError {}

impl From<WaitTimeout> for CommError {
    fn from(t: WaitTimeout) -> Self {
        CommError::Timeout(t)
    }
}

/// Panic payload raised out of a *blocking* collective (or `recv`) when the
/// grid's dead-rank board shows a crashed member. Blocking collectives
/// return results by value and are called from deep inside the solver's
/// numeric kernels, so the abort travels as a typed panic that the elastic
/// driver catches with `catch_unwind` — the in-process analogue of the
/// process-fatal error MPI delivers after a peer dies.
#[derive(Debug, Clone)]
pub struct RankDeadPanic {
    /// World ranks marked dead at detection time, sorted ascending.
    pub dead: Vec<usize>,
}

/// Shared dead-rank board of one grid: a bitmask of world ranks that have
/// (cooperatively) crashed. One board is shared by the world, row and column
/// communicators of every rank of a grid, so a death marked anywhere is
/// visible to every wait loop. Capacity is 64 ranks — ample for the
/// in-process simulation.
pub struct DeadBoard {
    mask: std::sync::atomic::AtomicU64,
}

impl Default for DeadBoard {
    fn default() -> Self {
        Self::new()
    }
}

impl DeadBoard {
    pub fn new() -> Self {
        Self {
            mask: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Mark world rank `wr` dead.
    pub fn mark(&self, wr: usize) {
        assert!(wr < 64, "dead board capacity is 64 ranks");
        self.mask
            .fetch_or(1u64 << wr, std::sync::atomic::Ordering::SeqCst);
    }

    /// Bitmask of dead world ranks.
    pub fn mask(&self) -> u64 {
        self.mask.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// True when any rank of the grid is dead.
    pub fn any_dead(&self) -> bool {
        self.mask() != 0
    }

    /// True when world rank `wr` is dead.
    pub fn is_dead(&self, wr: usize) -> bool {
        wr < 64 && self.mask() & (1u64 << wr) != 0
    }

    /// Dead world ranks, sorted ascending.
    pub fn dead_ranks(&self) -> Vec<usize> {
        let m = self.mask();
        (0..64).filter(|r| m & (1u64 << r) != 0).collect()
    }
}

/// How often death-aware wait loops re-check the dead-rank board. The
/// marking rank notifies the condvars of its *own* slots, but waiters parked
/// on unrelated slots (another grid row's communicator) only notice via this
/// poll slice — it bounds crash-detection latency, not steady-state cost.
const DEATH_POLL_MS: u64 = 25;

/// Default watchdog on `Request::wait` — generous enough that legitimate
/// slow collectives never trip it, small enough that a wedged peer surfaces
/// as an error rather than a stuck CI job.
pub const DEFAULT_WAIT_TIMEOUT_MS: u64 = 30_000;

/// Scale a base timeout by the `CHASE_TEST_TIMEOUT_SCALE` environment
/// variable (a float multiplier; unset or unparsable = 1.0). The one knob
/// every timeout-bearing test and harness watchdog routes through: CI jobs
/// on oversubscribed runners set it above 1 so stall-detection tests, tune
/// trial budgets and schedule-gate watchdogs keep a real margin over
/// scheduler jitter instead of flaking.
pub fn scaled_timeout_ms(base_ms: u64) -> u64 {
    let scale = std::env::var("CHASE_TEST_TIMEOUT_SCALE")
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
        .unwrap_or(1.0);
    ((base_ms as f64 * scale).round() as u64).max(1)
}

/// Element types that can participate in a sum-allreduce.
pub trait Reduce: Clone + Send + Sync + 'static {
    fn reduce(&mut self, other: &Self);
}

macro_rules! impl_reduce_add {
    ($($t:ty),*) => {$(
        impl Reduce for $t {
            #[inline]
            fn reduce(&mut self, other: &Self) {
                *self += *other;
            }
        }
    )*};
}

impl_reduce_add!(f32, f64, u32, u64, usize, i64);
impl_reduce_add!(num_complex::Complex<f32>, num_complex::Complex<f64>);

/// A type-erased `Vec<T>` staging or result buffer. Uniquely owned (and so
/// writable) everywhere except while the takers of a completed op copy the
/// result out, each through its own clone of the `Arc`.
type Payload = Arc<dyn Any + Send + Sync>;

const TYPE_MISMATCH: &str = "collective type mismatch across ranks";

fn vec_ref<T: 'static>(p: &Payload) -> &Vec<T> {
    p.downcast_ref().expect(TYPE_MISMATCH)
}

fn vec_mut<T: 'static>(p: &mut Payload) -> &mut Vec<T> {
    let unique = Arc::get_mut(p).expect("a buffer being written is unshared");
    unique.downcast_mut().expect(TYPE_MISMATCH)
}

/// Key of one point-to-point channel: `(from, to, tag)`. Each channel is a
/// FIFO queue of type-erased `Vec<T>` messages, so matched send/recv pairs
/// never reorder within a channel.
type MailKey = (usize, usize, u64);
type Mail = VecDeque<Box<dyn Any + Send>>;

/// Key of one collective: its stream (blocking and nonblocking calls count
/// separately) and its per-rank sequence number in that stream. SPMD
/// discipline — every member issues the same collectives in the same order
/// — makes the key identical on every member.
type OpKey = (ScheduleStream, u64);

/// One in-flight collective. Ops are keyed, not queued, so a rank can post
/// op `s+1` before anyone has waited on op `s` — the double-buffered filter
/// pipeline depends on never blocking at post time, and a fast member of a
/// blocking sequence may run one op ahead of a slow one.
struct Op {
    arrived: usize,
    taken: usize,
    payloads: Vec<Option<Payload>>,
    /// Member indices in deposit order; once complete, the fold order
    /// (sorted back to member order unless the canary is on).
    arrival: Vec<usize>,
    /// What the fold left for the waiters (`None` for a barrier).
    result: Option<Payload>,
}

impl Op {
    fn new(members: usize) -> Self {
        Self {
            arrived: 0,
            taken: 0,
            payloads: (0..members).map(|_| None).collect(),
            arrival: Vec::new(),
            result: None,
        }
    }
}

/// Shared state of the collective engine: in-flight ops plus a pool of
/// recycled type-erased staging buffers. Boxes circulate whole (never
/// unboxed), so a steady-state collective performs zero heap allocations —
/// the discipline NCCL enforces with its persistent communicator buffers.
/// The lock around it is held for bookkeeping and the fold, never across a
/// copy in (staged before the post) or out (after the taker released it).
#[derive(Default)]
struct Engine {
    ops: HashMap<OpKey, Op>,
    pool: Vec<Payload>,
    /// Retired op skeletons (payload slot vectors) awaiting reuse.
    free_ops: Vec<Op>,
    /// Staging buffers newly allocated because the pool had no match.
    fresh_allocs: u64,
    /// Staging buffers served from the pool.
    pool_hits: u64,
}

impl Engine {
    /// Take a pooled `Vec<T>` box — one already `len` long if there is one
    /// — or allocate. The recycled contents are *not* cleared: the caller
    /// clears or resizes, and a resize to the length the box already has —
    /// the steady state of a fixed-shape pipeline — is a no-op (no zeroing,
    /// no copy).
    fn checkout<T: Send + Sync + 'static>(&mut self, len: usize) -> Payload {
        let is_t = |p: &Payload| p.is::<Vec<T>>();
        let exact = |p: &Payload| p.downcast_ref::<Vec<T>>().is_some_and(|v| v.len() == len);
        let pool = &self.pool;
        match pool
            .iter()
            .position(exact)
            .or_else(|| pool.iter().position(is_t))
        {
            Some(pos) => {
                self.pool_hits += 1;
                self.pool.swap_remove(pos)
            }
            None => {
                self.fresh_allocs += 1;
                Arc::new(Vec::<T>::new())
            }
        }
    }

    /// Recycle a fully-drained op (all payload boxes already back in the
    /// pool or moved into the result).
    fn retire(&mut self, mut op: Op) {
        self.pool.extend(op.result.take());
        debug_assert!(op.payloads.iter().all(Option::is_none));
        op.arrived = 0;
        op.taken = 0;
        op.arrival.clear();
        self.free_ops.push(op);
    }
}

/// Buffer-pool accounting of one communicator's collective engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NbPoolStats {
    /// Staging/result buffers freshly heap-allocated (pool misses). Constant
    /// after warm-up: the zero-steady-state-allocation invariant.
    pub fresh_allocs: u64,
    /// Buffers served from the pool.
    pub pool_hits: u64,
    /// Buffers currently parked in the pool.
    pub pooled: usize,
    /// Nonblocking ops posted but not fully waited.
    pub in_flight: usize,
}

/// State of the dead-rank agreement round running on one slot. Unlike the
/// collective engine it tolerates members that never show up: completion is
/// "every member has either joined or is on the dead board", so survivors
/// converge even while the collectives they abandoned stay wedged.
#[derive(Default)]
struct AgreeState {
    /// Bitmask (member index) of members that joined the round.
    joined: u64,
    /// OR of every joiner's suspect mask (member index).
    suspects: u64,
    /// The agreed dead set (member index), fixed by the first member that
    /// observes completion; all others read this single value.
    result: Option<u64>,
    /// Joiners that have read the result (round drains when all live
    /// members have taken).
    taken: u64,
}

/// The shared rendezvous points of one grid: the world slot, one slot per
/// grid row and per grid column, and the dead-rank board they share. A
/// *shrunk* grid's set is built once (under the registry lock) by the first
/// survivor to arrive and reused by the rest: it is stored on the *old*
/// world slot, keyed by the agreed dead mask, so every survivor resolves
/// the same replacement rendezvous points without any collective on the
/// wedged communicators.
pub struct GridSlots {
    pub world: Arc<Slot>,
    pub rows: Vec<Arc<Slot>>,
    pub cols: Vec<Arc<Slot>>,
    pub board: Arc<DeadBoard>,
}

/// Shared rendezvous point for one communicator.
pub struct Slot {
    members: usize,
    /// Point-to-point mailboxes, independent of the collective engine so
    /// sends never block behind an in-flight collective.
    mail: Mutex<HashMap<MailKey, Mail>>,
    mail_cv: Condvar,
    /// The collective engine: every blocking and nonblocking collective on
    /// this slot, interleaving freely because ops are keyed.
    engine: Mutex<Engine>,
    engine_cv: Condvar,
    /// Dead-rank agreement round, independent of the engine so it
    /// completes while collectives are wedged on a crashed member.
    agree: Mutex<AgreeState>,
    agree_cv: Condvar,
    /// Registry of shrunk-grid slot sets keyed by the agreed dead mask.
    shrunk: Mutex<HashMap<u64, Arc<GridSlots>>>,
}

impl GridSlots {
    /// Fresh slots and a clean board for a `p x q` grid.
    pub fn new(p: usize, q: usize) -> Self {
        Self {
            world: Slot::new(p * q),
            rows: (0..p).map(|_| Slot::new(q)).collect(),
            cols: (0..q).map(|_| Slot::new(p)).collect(),
            board: Arc::new(DeadBoard::new()),
        }
    }
}

impl Slot {
    pub fn new(members: usize) -> Arc<Self> {
        Arc::new(Self {
            members,
            mail: Mutex::new(HashMap::new()),
            mail_cv: Condvar::new(),
            engine: Mutex::default(),
            engine_cv: Condvar::new(),
            agree: Mutex::default(),
            agree_cv: Condvar::new(),
            shrunk: Mutex::new(HashMap::new()),
        })
    }

    /// Fetch the shrunk-slot set for `dead_mask`, building it with `make`
    /// under the registry lock if this is the first survivor to arrive.
    pub fn shrunk_slots(&self, dead_mask: u64, make: impl FnOnce() -> GridSlots) -> Arc<GridSlots> {
        let mut reg = self.shrunk.lock();
        reg.entry(dead_mask)
            .or_insert_with(|| Arc::new(make()))
            .clone()
    }

    /// Wake every wait loop parked on this slot (used when a death is
    /// marked so detection does not wait out a full poll slice).
    fn notify_all_engines(&self) {
        self.mail_cv.notify_all();
        self.engine_cv.notify_all();
        self.agree_cv.notify_all();
    }
}

/// A handle that lets a (cooperatively) crashing rank announce its death:
/// marks the rank on the grid's dead board and wakes the wait loops of the
/// slots it participated in. `Send + Sync` so the fault plan can carry it
/// across the solver's layers.
pub struct DeathHandle {
    board: Arc<DeadBoard>,
    world_rank: usize,
    wake: Vec<Arc<Slot>>,
}

impl DeathHandle {
    pub fn new(board: Arc<DeadBoard>, world_rank: usize, wake: Vec<Arc<Slot>>) -> Self {
        Self {
            board,
            world_rank,
            wake,
        }
    }

    /// The world rank this handle kills.
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// Mark the rank dead and wake every wait loop that might be blocked
    /// on its participation.
    pub fn mark_dead(&self) {
        self.board.mark(self.world_rank);
        for s in &self.wake {
            s.notify_all_engines();
        }
    }
}

/// A rank's handle to a communicator. Cheap to clone the underlying slot;
/// the handle itself is single-threaded (one per rank).
pub struct Communicator {
    slot: Arc<Slot>,
    my_index: usize,
    /// World rank of each member, in member-index order. Topology-aware
    /// collectives use these to find the physical link a hop crosses; a
    /// plain communicator labels members with their own indices.
    labels: Arc<Vec<usize>>,
    /// Which of the rank's communicators this is: tags its schedule points
    /// and traced collectives.
    scope: CommScope,
    /// The rank's seam record, shared with the rank's other communicators
    /// and its `RankCtx`; a standalone communicator carries a private one.
    seams: RankSeams,
    /// Per-rank counter of blocking collectives, the op key of the
    /// `Blocking` stream. SPMD discipline (every member issues the same
    /// collectives in the same order) keeps it consistent across ranks.
    blk_seq: Cell<u64>,
    /// Per-rank counter of nonblocking collective posts, the op key of the
    /// `Nonblocking` stream.
    nb_seq: Cell<u64>,
    /// Per-rank counter of topology-aware collective operations, used to
    /// derive unique p2p tags per operation (SPMD keeps it in sync).
    op_seq: Cell<u64>,
    /// Per-rank sequence number of traced collective issues — the key the
    /// trace stitcher aligns streams on.
    trace_seq: Cell<u64>,
    /// Grid-wide dead-rank board (world-rank bits). Standalone communicators
    /// carry a private board; the three communicators of a grid rank share
    /// one.
    board: Arc<DeadBoard>,
}

impl Communicator {
    pub fn new(slot: Arc<Slot>, my_index: usize) -> Self {
        let labels = Arc::new((0..slot.members).collect());
        Self::with_labels(slot, my_index, labels)
    }

    /// Communicator whose members carry explicit world-rank labels (the row
    /// and column communicators of a 2D grid are sub-sets of the world).
    pub fn with_labels(slot: Arc<Slot>, my_index: usize, labels: Arc<Vec<usize>>) -> Self {
        Self::with_labels_board(slot, my_index, labels, Arc::new(DeadBoard::new()))
    }

    /// Standalone communicator sharing an explicit dead-rank board, so a
    /// death marked through any handle on the board aborts waits on all.
    pub fn with_labels_board(
        slot: Arc<Slot>,
        my_index: usize,
        labels: Arc<Vec<usize>>,
        board: Arc<DeadBoard>,
    ) -> Self {
        let seams = RankSeams::new(Seams::default());
        Self::in_grid(slot, my_index, labels, board, CommScope::Other, seams)
    }

    /// One of a grid rank's three communicators: `scope` says which, and
    /// `seams` is a handle onto the rank's one seam record.
    pub(crate) fn in_grid(
        slot: Arc<Slot>,
        my_index: usize,
        labels: Arc<Vec<usize>>,
        board: Arc<DeadBoard>,
        scope: CommScope,
        seams: RankSeams,
    ) -> Self {
        assert!(my_index < slot.members);
        assert_eq!(labels.len(), slot.members, "one label per member");
        Self {
            slot,
            my_index,
            labels,
            scope,
            seams,
            blk_seq: Cell::new(0),
            nb_seq: Cell::new(0),
            op_seq: Cell::new(0),
            trace_seq: Cell::new(0),
            board,
        }
    }

    /// The grid-wide dead-rank board this handle consults.
    pub fn dead_board(&self) -> Arc<DeadBoard> {
        self.board.clone()
    }

    /// The shared rendezvous slot behind this handle (shrink registry and
    /// death-handle wiring).
    pub(crate) fn slot(&self) -> Arc<Slot> {
        self.slot.clone()
    }

    /// Abort (via [`RankDeadPanic`]) if the dead board shows a crash. Called
    /// from every blocking wait loop: once any rank of the grid is dead the
    /// whole attempt is doomed — every survivor must unwind to the elastic
    /// driver rather than wait out a collective that can never complete.
    fn check_alive(&self) {
        if self.board.any_dead() {
            std::panic::panic_any(RankDeadPanic {
                dead: self.board.dead_ranks(),
            });
        }
    }

    /// This handle's view of its rank's seam record: what the rank's
    /// `RankCtx` setters write, and where a standalone communicator's hooks
    /// are installed.
    pub fn seams(&self) -> &RankSeams {
        &self.seams
    }

    /// Current `wait()` watchdog, in milliseconds.
    pub fn wait_timeout_ms(&self) -> u64 {
        let ms = self.seams.get().wait_timeout_ms;
        ms.unwrap_or(DEFAULT_WAIT_TIMEOUT_MS)
    }

    /// Which of its rank's communicators this is. The topology-aware
    /// collectives (`chase-topo`) tag their hop-granular schedule points
    /// with it.
    pub fn scope(&self) -> CommScope {
        self.scope
    }

    /// This rank's forced deposit slot for op (`stream`, `op`, `seq`), or
    /// `None` when no policy is installed / the policy leaves the op
    /// free-running.
    fn schedule_slot(&self, stream: ScheduleStream, op: &'static str, seq: u64) -> Option<usize> {
        let seams = self.seams.get();
        let point = SchedulePoint {
            scope: self.scope,
            stream,
            op,
            seq,
            members: self.slot.members,
        };
        let perm = seams.schedule.as_ref()?.arrival_order(&point)?;
        Some(slot_in_perm(
            &perm,
            self.slot.members,
            self.my_index,
            &point,
        ))
    }

    /// Deadlock-watchdogged wait inside the deposit gate: block until op
    /// `key` has `my_slot` deposits. Panics with a diagnostic when the slot
    /// never comes up (a predecessor that never posts or an asymmetric
    /// policy install) — a wedged explorer must surface, not hang CI.
    fn gate_wait(
        &self,
        engine: &mut MutexGuard<'_, Engine>,
        key: OpKey,
        my_slot: usize,
        op: &'static str,
    ) {
        let seq = key.1;
        let timeout_ms = self.wait_timeout_ms();
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        loop {
            let arrived = engine.ops.get(&key).map_or(0, |o| o.arrived);
            match arrived.cmp(&my_slot) {
                Ordering::Equal => return,
                Ordering::Greater => panic!(
                    "schedule gate overrun: {op} op {seq}: member {} was assigned slot {my_slot} but {arrived} deposits already arrived (policy not installed on every member?)",
                    self.my_index
                ),
                Ordering::Less => {
                    let now = Instant::now();
                    assert!(
                        now < deadline,
                        "schedule gate deadlock: {op} op {seq}: member {} waiting for slot {my_slot} but only {arrived} deposits arrived after {timeout_ms} ms",
                        self.my_index
                    );
                    self.slot.engine_cv.wait_for(engine, deadline - now);
                }
            }
        }
    }

    /// Notify the trace hook of one collective issue (blocking call or
    /// nonblocking post) and advance the per-communicator sequence number.
    /// One `RefCell` borrow when no hook is installed; never a collective.
    fn trace_collective(&self, op: &'static str, bytes: u64) {
        if let Some(h) = &self.seams.get().trace {
            let seq = self.trace_seq.get();
            self.trace_seq.set(seq + 1);
            h.collective(self.scope, op, seq, bytes, self.slot.members as u64);
        }
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.slot.members
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// World rank of each member, in member-index order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// World rank of member `idx`.
    pub fn label_of(&self, idx: usize) -> usize {
        self.labels[idx]
    }

    /// Fresh tag namespace for one topology-aware collective. All members
    /// must call this the same number of times in the same order (SPMD).
    pub fn next_op_seq(&self) -> u64 {
        let s = self.op_seq.get();
        self.op_seq.set(s + 1);
        s
    }

    /// Trivial communicator containing only this rank (serial builds).
    pub fn solo() -> Self {
        Self::new(Slot::new(1), 0)
    }

    // ---- point-to-point -------------------------------------------------

    /// Deposit `data` into the `(self, to, tag)` channel. Non-blocking
    /// (buffered send, like `MPI_Isend` into an eager buffer).
    pub fn send<T: Send + 'static>(&self, to: usize, tag: u64, data: Vec<T>) {
        assert!(to < self.size(), "send target out of range");
        assert_ne!(to, self.my_index, "self-send is not supported");
        let mut mail = self.slot.mail.lock();
        mail.entry((self.my_index, to, tag))
            .or_default()
            .push_back(Box::new(data));
        self.slot.mail_cv.notify_all();
    }

    /// Block until a message from `from` with `tag` is available and return
    /// it. Messages on one channel arrive in send order.
    pub fn recv<T: Send + 'static>(&self, from: usize, tag: u64) -> Vec<T> {
        assert!(from < self.size(), "recv source out of range");
        assert_ne!(from, self.my_index, "self-recv is not supported");
        let key = (from, self.my_index, tag);
        let mut mail = self.slot.mail.lock();
        loop {
            if let Some(q) = mail.get_mut(&key) {
                if let Some(p) = q.pop_front() {
                    if q.is_empty() {
                        mail.remove(&key);
                    }
                    return *p.downcast::<Vec<T>>().expect("p2p payload type mismatch");
                }
            }
            self.check_alive();
            self.slot
                .mail_cv
                .wait_for(&mut mail, Duration::from_millis(DEATH_POLL_MS));
        }
    }

    /// Buffered exchange: send to `to`, then receive from `from`. Safe in
    /// lockstep exchanges (both sides send before either blocks).
    pub fn sendrecv<T: Send + 'static>(
        &self,
        to: usize,
        from: usize,
        tag: u64,
        data: Vec<T>,
    ) -> Vec<T> {
        self.send(to, tag, data);
        self.recv(from, tag)
    }

    // ---- the collective engine -----------------------------------------
    //
    // As in NCCL there is one engine: every collective is a post (deposit a
    // contribution into an op keyed by its sequence number; the last
    // depositor folds), then a wait on that op. The blocking calls wait at
    // once; the `i*` variants return a [`Request`] to wait on later, so a
    // rank may hold several outstanding requests on one communicator. SPMD
    // contract: same collectives in the same order on every member, and
    // every request eventually waited.

    /// Copy `data` into a pooled staging box. The pool is under the engine
    /// lock; the copy is not.
    fn stage<T: Clone + Send + Sync + 'static>(&self, data: &[T]) -> Payload {
        let mut b = self.slot.engine.lock().checkout::<T>(data.len());
        let v = vec_mut::<T>(&mut b);
        v.clear();
        v.extend_from_slice(data);
        b
    }

    /// Post this member's contribution `mine` (`None`: it has none) to the
    /// next op of `stream`: take the op's sequence number, pass the
    /// schedule gate, deposit. The last depositor runs `fold`
    /// over the contributions in the order it is handed (member-index
    /// order, the bitwise-determinism invariant — arrival order only under
    /// the canary), recycles what the fold left behind and wakes the
    /// waiters. Never blocks outside the gate.
    fn post(
        &self,
        stream: ScheduleStream,
        op: &'static str,
        mine: Option<Payload>,
        fold: impl FnOnce(&mut [Option<Payload>], &[usize]) -> Option<Payload>,
    ) -> OpKey {
        let slot = &*self.slot;
        let counter = match stream {
            ScheduleStream::Blocking => &self.blk_seq,
            _ => &self.nb_seq,
        };
        let key = (stream, counter.get());
        counter.set(key.1 + 1);
        let gate = self.schedule_slot(stream, op, key.1);
        let mut engine = slot.engine.lock();
        // Schedule exploration: hold the deposit until the forced arrival
        // order reaches this member's slot.
        if let Some(my_slot) = gate {
            self.gate_wait(&mut engine, key, my_slot, op);
        }
        let Engine {
            ops,
            pool,
            free_ops,
            ..
        } = &mut *engine;
        let o = ops
            .entry(key)
            .or_insert_with(|| free_ops.pop().unwrap_or_else(|| Op::new(slot.members)));
        debug_assert!(o.payloads[self.my_index].is_none(), "double post");
        o.payloads[self.my_index] = mine;
        o.arrival.push(self.my_index);
        o.arrived += 1;
        let last = o.arrived == slot.members;
        if last {
            if !self.seams.get().order_canary {
                o.arrival.sort_unstable();
            }
            o.result = fold(&mut o.payloads, &o.arrival);
            pool.extend(o.payloads.iter_mut().filter_map(Option::take));
        }
        // Completion wakes the waiters; a gated deposit additionally wakes
        // the member holding the next slot (SPMD: if this handle is gated,
        // every member is).
        if last || gate.is_some() {
            slot.engine_cv.notify_all();
        }
        key
    }

    /// Block until op `key` is complete, hand its result — if this member
    /// `want`s it — to `read` with the engine unlocked (takers copy out side
    /// by side; no post queues behind a copy), and drain the op: the last
    /// taker recycles every buffer.
    ///
    /// A *blocking* op waits without a watchdog and unwinds with
    /// [`RankDeadPanic`] once the dead board shows a crash. A *nonblocking*
    /// op gives up with a typed [`CommError`] instead: the watchdog expiring
    /// yields `Timeout`, a crash on the dead-rank board yields `RankDead`
    /// (the op can never complete), and an op whose result carries a
    /// mismatched payload type yields `UnknownOp`. After any error the op (and
    /// partial payloads) stays parked in the map; the caller is expected to
    /// abort the computation, not retry the wait.
    fn complete<T: Send + 'static>(
        &self,
        key: OpKey,
        want: bool,
        read: impl FnOnce(&Vec<T>),
    ) -> Result<(), CommError> {
        let (slot, op_id) = (&*self.slot, key.1);
        let timeout_ms = self.wait_timeout_ms();
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        let mut engine = slot.engine.lock();
        let result = loop {
            match engine.ops.get(&key) {
                Some(op) if op.arrived == slot.members => break op.result.clone().filter(|_| want),
                _ => {}
            }
            // Every parked member re-checks the board each poll slice: a
            // crashed member wedges the op forever.
            let mut slice = Duration::from_millis(DEATH_POLL_MS);
            if key.0 == ScheduleStream::Blocking {
                self.check_alive();
            } else {
                if self.board.any_dead() {
                    let dead = self.board.dead_ranks();
                    return Err(CommError::RankDead { op_id, dead });
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(CommError::Timeout(WaitTimeout { op_id, timeout_ms }));
                }
                slice = slice.min(deadline - now);
            }
            slot.engine_cv.wait_for(&mut engine, slice);
        };
        if let Some(result) = result {
            // A type-confused harness can still leave the engine without a
            // readable payload — degrade to a typed error, never a panic
            // that poisons the whole thread pool.
            let Some(r) = result.downcast_ref::<Vec<T>>() else {
                return Err(CommError::UnknownOp { op_id });
            };
            drop(engine);
            read(r);
            // Before this taker counts itself: the last one must find the
            // result unshared to recycle it.
            drop(result);
            engine = slot.engine.lock();
        }
        let op = engine.ops.get_mut(&key).expect("an op outlives its takers");
        op.taken += 1;
        if op.taken == slot.members {
            let op = engine.ops.remove(&key).expect("just seen");
            engine.retire(op);
        }
        Ok(())
    }

    /// Element-wise sum-allreduce, in place. All members must pass buffers of
    /// identical length.
    pub fn allreduce_sum<T: Reduce>(&self, buf: &mut [T]) {
        self.trace_collective("allreduce", std::mem::size_of_val(buf) as u64);
        if self.size() == 1 {
            return;
        }
        let mine = Some(self.stage(buf));
        let key = self.post(ScheduleStream::Blocking, "allreduce", mine, fold_sum::<T>);
        self.complete(key, true, |r: &Vec<T>| buf.clone_from_slice(r))
            .expect(TYPE_MISMATCH);
    }

    /// Broadcast `buf` from `root` to every member, in place.
    pub fn bcast<T: Clone + Send + Sync + 'static>(&self, buf: &mut [T], root: usize) {
        assert!(root < self.size());
        self.trace_collective("bcast", std::mem::size_of_val(buf) as u64);
        if self.size() == 1 {
            return;
        }
        let mine = (self.my_index == root).then(|| self.stage(buf));
        let key = self.post(ScheduleStream::Blocking, "bcast", mine, fold_root(root));
        self.complete(key, self.my_index != root, |r: &Vec<T>| {
            assert_eq!(buf.len(), r.len(), "bcast length mismatch");
            buf.clone_from_slice(r);
        })
        .expect(TYPE_MISMATCH);
    }

    /// Gather every member's contribution, concatenated in member order,
    /// replicated on all ranks. Contributions may differ in length.
    pub fn allgather<T: Clone + Send + Sync + 'static>(&self, mine: &[T]) -> Vec<T> {
        self.trace_collective("allgather", std::mem::size_of_val(mine) as u64);
        if self.size() == 1 {
            return mine.to_vec();
        }
        let staged = Some(self.stage(mine));
        let key = self.post(
            ScheduleStream::Blocking,
            "allgather",
            staged,
            fold_concat::<T>,
        );
        let mut all = Vec::new();
        self.complete(key, true, |r: &Vec<T>| all.clone_from(r))
            .expect(TYPE_MISMATCH);
        all
    }

    /// Synchronize all members.
    pub fn barrier(&self) {
        self.trace_collective("barrier", 0);
        if self.size() == 1 {
            return;
        }
        let key = self.post(ScheduleStream::Blocking, "barrier", None, |_, _| None);
        self.complete(key, false, |_: &Vec<()>| {})
            .expect(TYPE_MISMATCH);
    }

    /// Sum-allreduce of a single value.
    pub fn allreduce_scalar<T: Reduce>(&self, v: T) -> T {
        let mut b = [v];
        self.allreduce_sum(&mut b);
        let [out] = b;
        out
    }

    /// Buffer-pool statistics of this communicator's collective engine.
    /// `in_flight` counts nonblocking ops only: a blocking op may still be
    /// in the map for an instant after a peer's call returned.
    pub fn nb_pool_stats(&self) -> NbPoolStats {
        let engine = self.slot.engine.lock();
        NbPoolStats {
            fresh_allocs: engine.fresh_allocs,
            pool_hits: engine.pool_hits,
            pooled: engine.pool.len(),
            in_flight: engine
                .ops
                .keys()
                .filter(|k| k.0 == ScheduleStream::Nonblocking)
                .count(),
        }
    }

    /// Check out a pooled staging buffer of `len` elements to compute a
    /// contribution *directly into*, then post it with zero copies via
    /// [`Communicator::iallreduce_sum_staged`]. Steady state (a recycled
    /// buffer of the same length) this costs no allocation and no zeroing.
    /// Dropping an unposted `SendBuf` returns the buffer to the pool.
    pub fn nb_staging<T: Clone + Default + Send + Sync + 'static>(
        &self,
        len: usize,
    ) -> SendBuf<'_, T> {
        let mut buf = self.slot.engine.lock().checkout::<T>(len);
        vec_mut::<T>(&mut buf).resize(len, T::default());
        SendBuf {
            comm: self,
            buf: Some(buf),
            _t: std::marker::PhantomData,
        }
    }

    /// Trace and post one nonblocking collective of `len` elements.
    fn ipost<T: Send + 'static>(
        &self,
        op: &'static str,
        len: usize,
        mine: Option<Payload>,
        fold: impl FnOnce(&mut [Option<Payload>], &[usize]) -> Option<Payload>,
    ) -> Request<'_, T> {
        self.trace_collective(op, (len * std::mem::size_of::<T>()) as u64);
        Request {
            comm: self,
            key: self.post(ScheduleStream::Nonblocking, op, mine, fold),
            len,
            done: false,
            _t: std::marker::PhantomData,
        }
    }

    /// Post a nonblocking sum-allreduce of a staged contribution, *moving*
    /// the staging buffer in as the payload — the zero-copy twin of
    /// [`Communicator::iallreduce_sum`]. Folding order and semantics are
    /// identical (bitwise) to the copying path.
    pub fn iallreduce_sum_staged<T: Reduce>(&self, mut staged: SendBuf<'_, T>) -> Request<'_, T> {
        let mine = staged.buf.take().expect("staged buffer already posted");
        let len = vec_ref::<T>(&mine).len();
        self.ipost("iallreduce", len, Some(mine), fold_sum::<T>)
    }

    /// Post a nonblocking element-wise sum-allreduce of `buf`. The returned
    /// request's [`Request::wait`] writes the sum (folded in member-index
    /// order — bitwise identical to [`Communicator::allreduce_sum`]) into
    /// the buffer passed to it.
    pub fn iallreduce_sum<T: Reduce>(&self, buf: &[T]) -> Request<'_, T> {
        self.ipost(
            "iallreduce",
            buf.len(),
            Some(self.stage(buf)),
            fold_sum::<T>,
        )
    }

    // ---- dead-rank agreement -------------------------------------------

    /// Deterministic agreement round on the dead-rank set, run by survivors
    /// after a crash is detected. Each caller contributes the world ranks it
    /// suspects (typically from a [`CommError::RankDead`] or
    /// [`RankDeadPanic`]); the round completes when every member has either
    /// joined or is on the dead board, and every joiner returns the *same*
    /// agreed set: the union of all suspect sets and the board, fixed by the
    /// first member to observe completion. Runs on machinery independent of
    /// the (wedged) collective engines, so it converges while in-flight
    /// collectives stay parked forever.
    ///
    /// Watchdogged by the handle's wait timeout: if live members never join
    /// (asymmetric detection logic — a harness bug), the round errors out
    /// with [`WaitTimeout`] rather than hanging.
    pub fn agree_dead(&self, suspected: &[usize]) -> Result<Vec<usize>, WaitTimeout> {
        let slot = &*self.slot;
        assert!(slot.members <= 64, "agreement capacity is 64 ranks");
        let all = if slot.members == 64 {
            u64::MAX
        } else {
            (1u64 << slot.members) - 1
        };
        // Translate world-rank suspicions into member-index bits.
        let to_member_mask = |world: u64| -> u64 {
            let mut m = 0u64;
            for (idx, &label) in self.labels.iter().enumerate() {
                if label < 64 && world & (1u64 << label) != 0 {
                    m |= 1u64 << idx;
                }
            }
            m
        };
        let mut suspect_world = 0u64;
        for &wr in suspected {
            assert!(wr < 64);
            suspect_world |= 1u64 << wr;
        }
        let timeout_ms = self.wait_timeout_ms();
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        let my_bit = 1u64 << self.my_index;
        let mut st = slot.agree.lock();
        st.suspects |= to_member_mask(suspect_world | self.board.mask());
        st.joined |= my_bit;
        let agreed = loop {
            if let Some(r) = st.result {
                break r;
            }
            let dead = to_member_mask(self.board.mask());
            if (st.joined | dead) & all == all {
                let r = st.suspects | dead;
                st.result = Some(r);
                slot.agree_cv.notify_all();
                break r;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(WaitTimeout {
                    op_id: u64::MAX,
                    timeout_ms,
                });
            }
            let slice = (deadline - now).min(Duration::from_millis(DEATH_POLL_MS));
            slot.agree_cv.wait_for(&mut st, slice);
        };
        // Drain the round: the last live taker resets the state so the slot
        // could host another round (defensive — each crash agrees on fresh
        // slots after the shrink).
        st.taken |= my_bit;
        let live = all & !agreed;
        if st.taken & live == live {
            st.joined = 0;
            st.suspects = 0;
            st.result = None;
            st.taken = 0;
        }
        Ok((0..slot.members)
            .filter(|i| agreed & (1u64 << i) != 0)
            .map(|i| self.labels[i])
            .collect())
    }
}

/// Sum fold: accumulate every contribution into the first fold source's
/// staging box, which becomes the result — no extra buffer, no copy. With
/// `order` the member-index order the bits are the same whoever arrives
/// when, and the same for `allreduce_sum` and `iallreduce_sum`.
fn fold_sum<T: Reduce>(payloads: &mut [Option<Payload>], order: &[usize]) -> Option<Payload> {
    let mut result = payloads[order[0]].take().expect("member did not post");
    let out = vec_mut::<T>(&mut result);
    for &m in &order[1..] {
        let v = vec_ref::<T>(payloads[m].as_ref().expect("member did not post"));
        assert_eq!(v.len(), out.len(), "allreduce length mismatch");
        for (a, b) in out.iter_mut().zip(v) {
            a.reduce(b);
        }
    }
    Some(result)
}

/// Broadcast fold: the root's staging box *is* the result.
fn fold_root(root: usize) -> impl FnOnce(&mut [Option<Payload>], &[usize]) -> Option<Payload> {
    move |payloads, _| Some(payloads[root].take().expect("root did not post"))
}

/// Gather fold: member 0's staging box grows into the member-order
/// concatenation in place.
fn fold_concat<T: Clone + 'static>(
    payloads: &mut [Option<Payload>],
    _order: &[usize],
) -> Option<Payload> {
    let mut result = payloads[0].take().expect("member did not post");
    let out = vec_mut::<T>(&mut result);
    for p in &payloads[1..] {
        out.extend_from_slice(vec_ref::<T>(p.as_ref().expect("member did not post")));
    }
    Some(result)
}

/// A pooled staging buffer checked out with [`Communicator::nb_staging`]:
/// compute the local contribution directly into it, then move it into a
/// collective with [`Communicator::iallreduce_sum_staged`] — the zero-copy
/// posting path.
pub struct SendBuf<'c, T: Send + 'static> {
    comm: &'c Communicator,
    buf: Option<Payload>,
    _t: std::marker::PhantomData<T>,
}

impl<T: Send + 'static> SendBuf<'_, T> {
    /// Number of elements staged.
    pub fn len(&self) -> usize {
        vec_ref::<T>(self.buf.as_ref().expect("staged buffer already posted")).len()
    }

    /// True when zero elements are staged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writable view of the staged contribution.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        vec_mut::<T>(self.buf.as_mut().expect("staged buffer already posted"))
    }
}

impl<T: Send + 'static> Drop for SendBuf<'_, T> {
    fn drop(&mut self) {
        // Unposted staging goes straight back to the pool.
        if let Some(b) = self.buf.take() {
            self.comm.slot.engine.lock().pool.push(b);
        }
    }
}

/// Handle to an in-flight nonblocking allreduce. Must be waited; the
/// SPMD contract is broken (and a panic raised) if it is dropped unresolved.
#[must_use = "a nonblocking collective must be waited"]
pub struct Request<'c, T: Send + 'static> {
    comm: &'c Communicator,
    key: OpKey,
    len: usize,
    done: bool,
    _t: std::marker::PhantomData<T>,
}

impl<T: Send + 'static> Request<'_, T> {
    /// Block until the collective completes and copy the result into `out`
    /// (length must match the posted buffer). Returns a typed [`CommError`]
    /// if some member never posts within the communicator's watchdog, a
    /// member is marked dead, or the engine has no record of the op — `out`
    /// is untouched in every error case.
    pub fn wait(mut self, out: &mut [T]) -> Result<(), CommError>
    where
        T: Clone,
    {
        assert_eq!(self.len, out.len(), "wait buffer length mismatch");
        // Resolved either way: a timed-out request must not panic on drop —
        // the typed error *is* the resolution.
        self.done = true;
        self.comm.complete(self.key, true, |r: &Vec<T>| {
            assert_eq!(r.len(), out.len(), "posted/result length mismatch");
            out.clone_from_slice(r);
        })
    }
}

impl<T: Send + 'static> Drop for Request<'_, T> {
    fn drop(&mut self) {
        if !self.done && !std::thread::panicking() {
            panic!("nonblocking request dropped without wait()");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SchedulePolicy;
    use std::thread;

    fn run_spmd<R: Send + 'static>(
        n: usize,
        f: impl Fn(Communicator) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let slot = Slot::new(n);
        let f = Arc::new(f);
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let c = Communicator::new(slot.clone(), i);
                let f = f.clone();
                thread::spawn(move || f(c))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        for n in [1usize, 2, 3, 5, 8] {
            let out = run_spmd(n, move |c| {
                let mut buf = vec![c.rank() as f64, 1.0];
                c.allreduce_sum(&mut buf);
                buf
            });
            let expect0: f64 = (0..n).map(|i| i as f64).sum();
            for r in out {
                assert_eq!(r, vec![expect0, n as f64]);
            }
        }
    }

    #[test]
    fn allreduce_complex() {
        use num_complex::Complex;
        let out = run_spmd(4, |c| {
            let mut buf = vec![Complex::new(1.0f64, c.rank() as f64)];
            c.allreduce_sum(&mut buf);
            buf[0]
        });
        for z in out {
            assert_eq!(z, num_complex::Complex::new(4.0, 6.0));
        }
    }

    #[test]
    fn bcast_delivers_root_buffer() {
        let out = run_spmd(4, |c| {
            let mut buf = if c.rank() == 2 {
                vec![7.0f64, 8.0]
            } else {
                vec![0.0, 0.0]
            };
            c.bcast(&mut buf, 2);
            buf
        });
        for r in out {
            assert_eq!(r, vec![7.0, 8.0]);
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let out = run_spmd(3, |c| {
            let mine = vec![c.rank() as u64; c.rank() + 1];
            c.allgather(&mine)
        });
        for r in out {
            assert_eq!(r, vec![0, 1, 1, 2, 2, 2]);
        }
    }

    #[test]
    fn repeated_collectives_stay_ordered() {
        // 100 back-to-back collectives: the engine must never mix rounds
        // even when threads race.
        let out = run_spmd(4, |c| {
            let mut acc = 0.0f64;
            for round in 0..100 {
                let mut v = [c.rank() as f64 + round as f64];
                c.allreduce_sum(&mut v);
                acc += v[0];
            }
            acc
        });
        let per_round_base: f64 = (0..4).map(|i| i as f64).sum();
        let expect: f64 = (0..100).map(|r| per_round_base + 4.0 * r as f64).sum();
        for r in out {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn barrier_and_scalar() {
        let out = run_spmd(5, |c| {
            c.barrier();
            c.allreduce_scalar(c.rank() as u64)
        });
        for r in out {
            assert_eq!(r, 10);
        }
    }

    #[test]
    fn mixed_collective_sequence() {
        // A bcast followed by an allgather followed by an allreduce, to make
        // sure heterogeneous payload types share the engine safely. Three
        // members with per-rank jitter: a fast member deposits op e+1 before
        // a slow one has taken op e — ops are keyed, nothing waits for the
        // previous op to drain.
        let out = run_spmd(3, |c| {
            let mut total = 0u64;
            for round in 0..20u64 {
                let jitter = (c.rank() as u64 * 7 + round * 3) % 5;
                thread::sleep(Duration::from_micros(200 * jitter));
                let mut b = vec![if c.rank() == 0 { 42u64 + round } else { 0 }];
                c.bcast(&mut b, 0);
                let g = c.allgather(&[b[0] + c.rank() as u64]);
                let mut s = vec![g.iter().sum::<u64>()];
                c.allreduce_sum(&mut s);
                total += s[0];
            }
            total
        });
        // Round r: g = [42+r, 43+r, 44+r] on everyone, sum = 129 + 3r,
        // allreduce over 3 = 387 + 9r.
        let expect: u64 = (0..20).map(|r| 387 + 9 * r).sum();
        for r in out {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn p2p_ring_pass_left() {
        let out = run_spmd(4, |c| {
            let next = (c.rank() + 1) % 4;
            let prev = (c.rank() + 3) % 4;
            c.send(next, 0, vec![c.rank() as u64]);
            c.recv::<u64>(prev, 0)[0]
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn p2p_channels_keep_fifo_order() {
        let out = run_spmd(2, |c| {
            if c.rank() == 0 {
                for i in 0..50u64 {
                    c.send(1, 7, vec![i]);
                }
                Vec::new()
            } else {
                (0..50).map(|_| c.recv::<u64>(0, 7)[0]).collect::<Vec<_>>()
            }
        });
        assert_eq!(out[1], (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn p2p_tags_do_not_cross_talk() {
        let out = run_spmd(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![10u64]);
                c.send(1, 2, vec![20u64]);
                0
            } else {
                // Receive in the opposite order of the sends.
                let b = c.recv::<u64>(0, 2)[0];
                let a = c.recv::<u64>(0, 1)[0];
                a * 100 + b
            }
        });
        assert_eq!(out[1], 1020);
    }

    #[test]
    fn p2p_sendrecv_exchange() {
        let out = run_spmd(2, |c| {
            let other = 1 - c.rank();
            c.sendrecv(other, other, 3, vec![c.rank() as u64 + 1])[0]
        });
        assert_eq!(out, vec![2, 1]);
    }

    #[test]
    fn p2p_interleaves_with_collectives() {
        let out = run_spmd(3, |c| {
            let next = (c.rank() + 1) % 3;
            let prev = (c.rank() + 2) % 3;
            c.send(next, 0, vec![c.rank() as u64]);
            let mut v = [1u64];
            c.allreduce_sum(&mut v);
            let got = c.recv::<u64>(prev, 0)[0];
            got + v[0]
        });
        assert_eq!(out, vec![2 + 3, 3, 1 + 3]);
    }

    #[test]
    fn default_labels_are_identity() {
        let c = Communicator::solo();
        assert_eq!(c.labels(), &[0]);
        let slot = Slot::new(3);
        let c = Communicator::with_labels(slot, 1, Arc::new(vec![4, 9, 14]));
        assert_eq!(c.label_of(1), 9);
        assert_eq!(c.labels(), &[4, 9, 14]);
    }

    #[test]
    fn op_seq_increments() {
        let c = Communicator::solo();
        assert_eq!(c.next_op_seq(), 0);
        assert_eq!(c.next_op_seq(), 1);
    }

    #[test]
    fn iallreduce_matches_blocking_bitwise() {
        let out = run_spmd(4, |c| {
            let data: Vec<f64> = (0..17)
                .map(|i| ((c.rank() * 31 + i) as f64).sin())
                .collect();
            let mut blocking = data.clone();
            c.allreduce_sum(&mut blocking);
            let req = c.iallreduce_sum(&data);
            let mut nb = vec![0.0f64; data.len()];
            req.wait(&mut nb).unwrap();
            (blocking, nb)
        });
        for (b, n) in out {
            assert_eq!(b, n, "nonblocking must fold in the same member order");
        }
    }

    #[test]
    fn two_requests_in_flight_do_not_block_posts() {
        // The double-buffered pipeline posts op k+1 before waiting op k;
        // an engine that admitted one op at a time would deadlock.
        let out = run_spmd(3, |c| {
            let a = vec![c.rank() as f64; 4];
            let b = vec![(c.rank() * 10) as f64; 2];
            let ra = c.iallreduce_sum(&a);
            let rb = c.iallreduce_sum(&b);
            let mut oa = vec![0.0; 4];
            let mut ob = vec![0.0; 2];
            // Wait out of post order, too.
            rb.wait(&mut ob).unwrap();
            ra.wait(&mut oa).unwrap();
            (oa, ob)
        });
        for (oa, ob) in out {
            assert_eq!(oa, vec![3.0; 4]);
            assert_eq!(ob, vec![30.0; 2]);
        }
    }

    #[test]
    fn nonblocking_interleaves_with_blocking_on_same_communicator() {
        // Stress: a nonblocking op stays in flight across blocking
        // collectives and p2p traffic on the same communicator. The engines
        // are independent, so nothing may deadlock or cross-talk.
        let out = run_spmd(4, |c| {
            let mut acc = 0.0f64;
            for round in 0..50 {
                let posted = vec![c.rank() as f64 + round as f64; 3];
                let req = c.iallreduce_sum(&posted);
                // Blocking traffic while the request is in flight.
                let mut v = [1.0f64];
                c.allreduce_sum(&mut v);
                let next = (c.rank() + 1) % 4;
                let prev = (c.rank() + 3) % 4;
                c.send(next, round, vec![round]);
                c.barrier();
                assert_eq!(c.recv::<u64>(prev, round)[0], round);
                let mut summed = vec![0.0f64; 3];
                req.wait(&mut summed).unwrap();
                assert_eq!(v[0], 4.0);
                acc += summed[0];
            }
            acc
        });
        let expect: f64 = (0..50).map(|r| 6.0 + 4.0 * r as f64).sum();
        for r in out {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn steady_state_collectives_do_not_allocate() {
        let out = run_spmd(2, |c| {
            let data = vec![1.0f64; 64];
            let mut out_buf = vec![0.0f64; 64];
            // Blocking and nonblocking collectives draw on the same pool.
            let round = |out_buf: &mut Vec<f64>| {
                let r = c.iallreduce_sum(&data);
                c.allreduce_sum(out_buf);
                c.bcast(out_buf, 1);
                assert_eq!(c.allgather(&data[..3]).len(), 6);
                r.wait(out_buf).unwrap();
            };
            // Warm-up: populate the pool, to beyond the few buffers any
            // interleaving of one round's ops can have checked out at once.
            for _ in 0..3 {
                round(&mut out_buf);
            }
            drop((0..8).map(|_| c.nb_staging::<f64>(64)).collect::<Vec<_>>());
            c.barrier();
            let warm = c.nb_pool_stats().fresh_allocs;
            for _ in 0..100 {
                round(&mut out_buf);
            }
            c.barrier();
            let after = c.nb_pool_stats();
            (warm, after)
        });
        for (warm, after) in out {
            assert_eq!(
                after.fresh_allocs, warm,
                "steady-state collectives must not allocate"
            );
            assert!(after.pool_hits >= 200, "pool must serve steady state");
            assert_eq!(after.in_flight, 0);
        }
    }

    #[test]
    fn solo_nonblocking_completes_at_post() {
        let c = Communicator::solo();
        let r = c.iallreduce_sum(&[2.5f64, 1.5]);
        let mut out = [0.0; 2];
        r.wait(&mut out).unwrap();
        assert_eq!(out, [2.5, 1.5]);
    }

    /// The members of an `n`-wide communicator except the last run `f`; the
    /// last one never posts anything — a peer that wedged before the op.
    fn run_without_last<R: Send + 'static>(
        n: usize,
        f: impl Fn(Communicator) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        run_spmd(n, move |c| (c.rank() + 1 < n).then(|| f(c)))
            .into_iter()
            .flatten()
            .collect()
    }

    #[test]
    fn dropped_post_times_out_instead_of_hanging() {
        let out = run_without_last(3, |c| {
            c.seams().update(|s| s.wait_timeout_ms = Some(50));
            let req = c.iallreduce_sum(&[c.rank() as f64]);
            let mut buf = [0.0f64];
            let err = req.wait(&mut buf).unwrap_err();
            (err, buf[0])
        });
        assert_eq!(out.len(), 2);
        for (err, untouched) in out {
            assert_eq!(
                err,
                CommError::Timeout(WaitTimeout {
                    op_id: 0,
                    timeout_ms: 50
                })
            );
            assert_eq!(untouched, 0.0, "timeout must leave the out buffer alone");
        }
    }

    #[test]
    fn delayed_post_still_delivers() {
        let out = run_spmd(2, |c| {
            if c.rank() == 1 {
                thread::sleep(Duration::from_millis(10));
            }
            let req = c.iallreduce_sum(&[c.rank() as f64 + 1.0]);
            let mut buf = [0.0f64];
            req.wait(&mut buf).unwrap();
            buf[0]
        });
        for v in out {
            assert_eq!(v, 3.0);
        }
    }

    #[test]
    fn dead_rank_aborts_nonblocking_wait_typed() {
        // Rank 1 "crashes" (marks itself dead) instead of posting; the
        // survivor's wait must surface RankDead, not a generic timeout.
        let slot = Slot::new(2);
        let board = Arc::new(DeadBoard::new());
        let mk = |i: usize| {
            Communicator::with_labels_board(slot.clone(), i, Arc::new(vec![0, 1]), board.clone())
        };
        let (c0, c1) = (mk(0), mk(1));
        let h = DeathHandle::new(board.clone(), 1, vec![slot.clone()]);
        let t1 = thread::spawn(move || {
            // Dying rank: never posts, announces its death.
            drop(c1);
            h.mark_dead();
        });
        c0.seams().update(|s| s.wait_timeout_ms = Some(5_000));
        let req = c0.iallreduce_sum(&[1.0f64]);
        let mut out = [0.0f64];
        let err = req.wait(&mut out).unwrap_err();
        assert_eq!(
            err,
            CommError::RankDead {
                op_id: 0,
                dead: vec![1]
            }
        );
        t1.join().unwrap();
    }

    #[test]
    fn dead_rank_aborts_blocking_collective_via_panic() {
        // A blocking allreduce wedged on a dead member must unwind with the
        // typed RankDeadPanic payload instead of hanging forever.
        let slot = Slot::new(2);
        let board = Arc::new(DeadBoard::new());
        let b0 = board.clone();
        let s0 = slot.clone();
        let t0 = thread::spawn(move || {
            let c = Communicator::with_labels_board(s0, 0, Arc::new(vec![0, 1]), b0);
            let mut v = [1.0f64];
            c.allreduce_sum(&mut v);
        });
        DeathHandle::new(board, 1, vec![slot]).mark_dead();
        let payload = t0.join().unwrap_err();
        let p = payload
            .downcast_ref::<RankDeadPanic>()
            .expect("typed RankDeadPanic payload");
        assert_eq!(p.dead, vec![1]);
    }

    #[test]
    fn agree_dead_converges_on_the_union() {
        // Three survivors of a 4-rank world, each suspecting a (possibly
        // empty) subset; every one must return the same agreed set.
        let slot = Slot::new(4);
        let board = Arc::new(DeadBoard::new());
        board.mark(2);
        let handles: Vec<_> = [0usize, 1, 3]
            .into_iter()
            .map(|i| {
                let slot = slot.clone();
                let board = board.clone();
                thread::spawn(move || {
                    let c =
                        Communicator::with_labels_board(slot, i, Arc::new(vec![0, 1, 2, 3]), board);
                    let suspected = if i == 0 { vec![2] } else { vec![] };
                    c.agree_dead(&suspected).unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![2]);
        }
    }

    /// Policy forcing reversed member order on every op.
    struct Reversed;
    impl SchedulePolicy for Reversed {
        fn arrival_order(&self, p: &SchedulePoint) -> Option<Vec<usize>> {
            Some((0..p.members).rev().collect())
        }
    }

    /// Policy forcing plain member order (identity permutation) — gates
    /// active, schedule equal to the fold order.
    struct Identity;
    impl SchedulePolicy for Identity {
        fn arrival_order(&self, p: &SchedulePoint) -> Option<Vec<usize>> {
            Some((0..p.members).collect())
        }
    }

    #[test]
    fn gated_schedules_leave_results_bitwise_identical() {
        // The determinism invariant under test everywhere else, asserted at
        // the engine level: forcing any deposit order must not change a
        // single bit of any collective's result.
        let free = run_spmd(3, |c| {
            let mut b = vec![(c.rank() as f64 + 1.0) * 0.1; 2];
            c.allreduce_sum(&mut b);
            let req = c.iallreduce_sum(&[(c.rank() as f64 + 1.0) * 0.3]);
            let mut nb = [0.0f64];
            req.wait(&mut nb).unwrap();
            let g = c.allgather(&[c.rank() as u64]);
            (b, nb[0], g)
        });
        for policy in [
            Arc::new(Identity) as Arc<dyn SchedulePolicy>,
            Arc::new(Reversed) as Arc<dyn SchedulePolicy>,
        ] {
            let gated = run_spmd(3, move |c| {
                c.seams().update(|s| s.schedule = Some(policy.clone()));
                let mut b = vec![(c.rank() as f64 + 1.0) * 0.1; 2];
                c.allreduce_sum(&mut b);
                let req = c.iallreduce_sum(&[(c.rank() as f64 + 1.0) * 0.3]);
                let mut nb = [0.0f64];
                req.wait(&mut nb).unwrap();
                let g = c.allgather(&[c.rank() as u64]);
                (b, nb[0], g)
            });
            assert_eq!(free, gated, "a forced schedule changed the bits");
        }
    }

    #[test]
    fn canary_fold_is_schedule_sensitive() {
        // (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last ulp:
        // with the order-sensitive-fold canary armed, reversing the forced
        // arrival order must change the result — that observable difference
        // is exactly what chase-check's invariant checkers look for.
        let solve = |policy: Arc<dyn SchedulePolicy>, canary: bool| {
            run_spmd(3, move |c| {
                c.seams().update(|s| s.schedule = Some(policy.clone()));
                c.seams().update(|s| s.order_canary = canary);
                let mut blocking = [(c.rank() as f64 + 1.0) * 0.1];
                c.allreduce_sum(&mut blocking);
                let req = c.iallreduce_sum(&[(c.rank() as f64 + 1.0) * 0.1]);
                let mut nb = [0.0f64];
                req.wait(&mut nb).unwrap();
                (blocking[0], nb[0])
            })
        };
        // Correct fold: schedule-independent.
        let id = solve(Arc::new(Identity), false);
        let rev = solve(Arc::new(Reversed), false);
        assert_eq!(id, rev, "member-order fold must ignore the schedule");
        // Canary fold: the reversed schedule flips the fold grouping.
        let id = solve(Arc::new(Identity), true);
        let rev = solve(Arc::new(Reversed), true);
        assert_ne!(
            id[0], rev[0],
            "canary fold must expose the schedule in the bits"
        );
        // Identity-gated canary equals the correct fold (arrival == member
        // order), so the canary is invisible until a schedule perturbs it.
        let clean = solve(Arc::new(Identity), false);
        assert_eq!(id, clean);
    }

    #[test]
    fn gate_deadlock_panics_instead_of_hanging() {
        // Under the reversed order member 1 holds slot 0 but never posts;
        // member 0 is gated behind it. The watchdog must turn that into a
        // panic with a diagnostic, not a hung test run.
        let slot = Slot::new(2);
        let c = Communicator::new(slot, 0);
        let gated = std::thread::spawn(move || {
            c.seams().update(|s| s.wait_timeout_ms = Some(50));
            c.seams().update(|s| s.schedule = Some(Arc::new(Reversed)));
            let req = c.iallreduce_sum(&[1.0f64]);
            let mut out = [0.0f64];
            let _ = req.wait(&mut out);
        });
        assert!(
            gated.join().is_err(),
            "gated rank must panic via the watchdog"
        );
    }

    #[test]
    fn solo_communicator_is_noop() {
        let c = Communicator::solo();
        let mut v = vec![3.0f64];
        c.allreduce_sum(&mut v);
        c.bcast(&mut v, 0);
        c.barrier();
        assert_eq!(c.allgather(&v), vec![3.0]);
        assert_eq!(v, vec![3.0]);
    }
}
