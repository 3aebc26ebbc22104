//! The per-rank seam record: everything a harness can install on a rank.
//!
//! Tracing (`chase-trace`) and schedule exploration (`chase-check`) each
//! hook into the comm layer. The hooks live in one plain struct, [`Seams`], one per
//! rank: the rank's [`crate::RankCtx`] and its three communicators hold
//! [`RankSeams`] handles onto the same record, so installing a hook is one
//! assignment and a shrunk grid inherits the whole record in one move.
//!
//! A `Communicator` is `Send` (tests build one per member and move it into
//! the member's thread), so the handles cannot share `Cell`s. Instead a
//! write replaces the record under a mutex and bumps a version; a handle
//! keeps a private copy and re-reads the shared one only when the version
//! moved. The per-collective path takes no lock: one atomic load and one
//! `RefCell` borrow, as with the per-handle cells this replaces.

use crate::schedule::SchedulePolicy;
use crate::trace_hook::TraceHook;
use parking_lot::Mutex;
use std::cell::{Ref, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One rank's installable seams. Production runs carry the default: no
/// hook, no policy, the default watchdog.
#[derive(Clone, Default)]
pub struct Seams {
    /// Schedule-exploration policy gating deposit order. Every rank of a
    /// grid must install the same policy (SPMD discipline) — the deposit
    /// gates rely on each member computing the identical permutation.
    pub schedule: Option<Arc<dyn SchedulePolicy>>,
    /// Mutation canary: fold reductions in *arrival* order instead of
    /// member-index order. Deliberately order-sensitive — exists only so
    /// `chase-check` can prove its invariant checkers catch real bugs.
    pub order_canary: bool,
    /// Structured-tracing hook: the context forwards ledger records, region
    /// changes and span/counter marks; the communicators report their
    /// collective issues tagged with their scope.
    pub trace: Option<Arc<dyn TraceHook>>,
    /// Watchdog for `Request::wait`, the deposit gate and `agree_dead`, in
    /// milliseconds; `None` is `DEFAULT_WAIT_TIMEOUT_MS`.
    pub wait_timeout_ms: Option<u64>,
}

struct Published {
    version: AtomicU64,
    record: Mutex<Seams>,
}

/// A handle onto one rank's [`Seams`] record (see the module docs); a clone
/// is another handle onto the same record.
#[derive(Clone)]
pub struct RankSeams {
    shared: Arc<Published>,
    seen: RefCell<(u64, Seams)>,
}

impl RankSeams {
    /// A fresh record holding `seams`.
    pub fn new(seams: Seams) -> Self {
        let shared = Arc::new(Published {
            version: AtomicU64::new(0),
            record: Mutex::new(seams.clone()),
        });
        let seen = RefCell::new((0, seams));
        Self { shared, seen }
    }

    /// The record as of the last write.
    pub fn get(&self) -> Ref<'_, Seams> {
        // Acquire pairs with the Release bump in `update`.
        if self.shared.version.load(Ordering::Acquire) != self.seen.borrow().0 {
            let record = self.shared.record.lock();
            // Bumps happen under the lock, so this version belongs to `record`.
            let version = self.shared.version.load(Ordering::Acquire);
            *self.seen.borrow_mut() = (version, record.clone());
        }
        Ref::map(self.seen.borrow(), |s| &s.1)
    }

    /// Change the record; every handle sees the change at its next read.
    pub fn update(&self, f: impl FnOnce(&mut Seams)) {
        let mut record = self.shared.record.lock();
        f(&mut record);
        self.shared.version.fetch_add(1, Ordering::Release);
    }

    /// Change the record for the lifetime of the returned guard, whose
    /// `Drop` puts the previous record back — also when a panic (a
    /// `RankDeadPanic` on its way to the elastic driver) unwinds through
    /// the scope.
    #[must_use = "the previous record is restored when the guard drops"]
    pub fn scoped(&self, f: impl FnOnce(&mut Seams)) -> SeamGuard<'_> {
        let prev = self.get().clone();
        self.update(f);
        SeamGuard { seams: self, prev }
    }
}

/// Restores the record [`RankSeams::scoped`] replaced.
pub struct SeamGuard<'a> {
    seams: &'a RankSeams,
    prev: Seams,
}

impl Drop for SeamGuard<'_> {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.prev);
        self.seams.update(|s| *s = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_one_record() {
        let a = RankSeams::new(Seams::default());
        let b = a.clone();
        assert_eq!(b.get().wait_timeout_ms, None);
        a.update(|s| s.wait_timeout_ms = Some(7));
        assert_eq!(b.get().wait_timeout_ms, Some(7));
        b.update(|s| s.order_canary = true);
        assert!(a.get().order_canary);
        assert_eq!(a.get().wait_timeout_ms, Some(7));
    }

    #[test]
    fn scoped_restores_on_drop_and_on_unwind() {
        let seams = RankSeams::new(Seams::default());
        seams.update(|s| s.wait_timeout_ms = Some(11));
        {
            let _g = seams.scoped(|s| s.wait_timeout_ms = Some(50));
            assert_eq!(seams.get().wait_timeout_ms, Some(50));
        }
        assert_eq!(seams.get().wait_timeout_ms, Some(11));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = seams.scoped(|s| s.order_canary = true);
            panic!("unwind through the guard");
        }));
        assert!(unwound.is_err());
        assert!(!seams.get().order_canary);
        assert_eq!(seams.get().wait_timeout_ms, Some(11));
    }
}
