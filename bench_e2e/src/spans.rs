//! In-memory wall-clock spans around the benchmark's own calls into each
//! crate (the traced pass), written out at exit as a Chrome trace-event
//! file with real durations.
//!
//! A span carries a name (`layer.call`), start, duration, the span that
//! caused it, the thread it ran on (world rank inside a grid, 0 on the main
//! thread) and the operation it belongs to, so the spans of one operation
//! share an identifier. While the log is disabled — every untraced run —
//! opening a span is one relaxed atomic load.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The operation (solve, drain, micro-benchmark group) it belongs to.
    pub op: u64,
    pub name: &'static str,
    pub tid: usize,
    pub start_us: f64,
    pub dur_us: f64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static CURRENT_OP: AtomicU64 = AtomicU64::new(0);
static LOG: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Switch recording on or off (off at start).
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Start a new operation: spans opened from now on carry its identifier.
pub fn next_op() -> u64 {
    CURRENT_OP.fetch_add(1, Ordering::SeqCst) + 1
}

/// Closes its span when dropped.
pub struct Guard(Option<Open>);

struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    tid: usize,
    t0: Instant,
}

impl Guard {
    /// Identifier to hand to spans opened on other threads on this span's
    /// behalf (0 while recording is off).
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |o| o.id)
    }
}

/// Open a span on the main thread, child of the innermost open span.
pub fn span(name: &'static str) -> Guard {
    span_on(0, 0, name)
}

/// Open a span on thread `tid`; `parent` 0 means the innermost span open on
/// the calling thread.
pub fn span_on(tid: usize, parent: u64, name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let p = if parent != 0 {
            parent
        } else {
            s.last().copied().unwrap_or(0)
        };
        s.push(id);
        p
    });
    Guard(Some(Open {
        id,
        parent,
        name,
        tid,
        t0: Instant::now(),
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(o) = self.0.take() else { return };
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == o.id) {
                s.truncate(pos);
            }
        });
        let epoch = *EPOCH.get_or_init(Instant::now);
        let span = Span {
            id: o.id,
            parent: o.parent,
            op: CURRENT_OP.load(Ordering::Relaxed),
            name: o.name,
            tid: o.tid,
            start_us: o.t0.duration_since(epoch).as_secs_f64() * 1e6,
            dur_us: end.duration_since(o.t0).as_secs_f64() * 1e6,
        };
        // A poisoned log only means another thread panicked mid-push; the
        // spans already there are whole, keep recording.
        LOG.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// All spans recorded so far, by start time.
pub fn snapshot() -> Vec<Span> {
    let mut v = LOG.lock().unwrap_or_else(|e| e.into_inner()).clone();
    v.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    v
}

/// Self time per span name: each span's duration minus the part of it its
/// child spans on the same thread cover; `(name, calls, total_us, self_us)`
/// sorted by self time, largest first.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    use std::collections::BTreeMap;
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    let tid_of: BTreeMap<u64, usize> = spans.iter().map(|s| (s.id, s.tid)).collect();
    for s in spans {
        // Children on other threads run in parallel with the parent's own
        // work (a grid's ranks under `comm.run_grid`), so only same-thread
        // children are subtracted.
        if tid_of.get(&s.parent) == Some(&s.tid) {
            *child_us.entry(s.parent).or_default() += s.dur_us;
        }
    }
    let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_us;
        e.2 += (s.dur_us - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect();
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    rows
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, `ts`/`dur` in microseconds of wall clock,
/// `tid` the world rank, `args` the span/parent/operation identifiers.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(""),
            s.start_us,
            s.dur_us,
            s.tid,
            s.id,
            s.parent,
            s.op
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, tid: usize, name: &'static str, start: f64, dur: f64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            tid,
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let spans = [
            sp(1, 0, 0, "a.outer", 0.0, 100.0),
            sp(2, 1, 0, "b.inner", 10.0, 30.0),
            sp(3, 1, 1, "b.inner", 10.0, 80.0), // other thread: parallel
        ];
        let rows = self_times(&spans);
        let outer = rows.iter().find(|r| r.0 == "a.outer").unwrap();
        assert_eq!((outer.1, outer.2, outer.3), (1, 100.0, 70.0));
        let inner = rows.iter().find(|r| r.0 == "b.inner").unwrap();
        assert_eq!((inner.1, inner.2, inner.3), (2, 110.0, 110.0));
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let spans = [
            sp(1, 0, 0, "a.outer", 0.5, 100.25),
            sp(2, 1, 1, "b.inner", 1.0, 2.0),
        ];
        let text = chrome_trace(&spans);
        let v = crate::adapter::json_parse(&text).expect("valid JSON");
        let ev = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].get("name").unwrap().as_str(), Some("a.outer"));
        assert_eq!(ev[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(
            ev[1].get("args").unwrap().get("parent").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn recording_nests_and_respects_the_switch() {
        // The only test that touches the global log.
        let off = span("x.off");
        assert_eq!(off.id(), 0);
        drop(off);
        set_enabled(true);
        let op = next_op();
        let outer = span("x.outer");
        let outer_id = outer.id();
        {
            let _inner = span("x.inner");
        }
        drop(outer);
        set_enabled(false);
        let spans = snapshot();
        let inner = spans.iter().find(|s| s.name == "x.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "x.outer").unwrap();
        assert_eq!(inner.parent, outer_id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.op, op);
        assert!(outer.dur_us >= inner.dur_us);
        assert!(spans.iter().all(|s| s.name != "x.off"));
    }
}
