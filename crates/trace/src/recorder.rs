//! Per-rank trace recorder: the [`TraceHook`] sink installed into a
//! [`chase_comm::RankCtx`].
//!
//! The recorder enforces span well-nesting locally. Region changes coming
//! from `Ledger::set_region` arrive as flat `region(r)` calls; the recorder
//! turns them into properly nested region sub-spans under the innermost
//! named span. An `iteration` span beginning while a previous `iteration`
//! span is still open auto-closes the previous one, so the solver's
//! `continue`-heavy recovery paths need no explicit span ends.
//!
//! All state is behind a `Mutex` keyed by one `AtomicBool`: a disabled
//! recorder costs exactly one relaxed load per callback.

use crate::model::{RankTrace, TraceEvent};
use chase_comm::{CommScope, EventKind, Region, TraceHook};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Frame {
    Named(&'static str),
    Region(Region),
}

#[derive(Default)]
struct Inner {
    events: Vec<TraceEvent>,
    stack: Vec<Frame>,
    counters: std::collections::BTreeMap<&'static str, u64>,
}

impl Inner {
    fn pop_emit(&mut self) {
        match self.stack.pop() {
            Some(Frame::Named(name)) => self.events.push(TraceEvent::SpanEnd { name: name.into() }),
            Some(Frame::Region(r)) => self.events.push(TraceEvent::SpanEnd {
                name: r.short_name().into(),
            }),
            None => {}
        }
    }

    /// Close any region sub-spans sitting on top of the stack.
    fn pop_regions(&mut self) {
        while matches!(self.stack.last(), Some(Frame::Region(_))) {
            self.pop_emit();
        }
    }
}

/// Records one rank's trace. Install with
/// `ctx.set_trace_hook(Some(recorder))`, run, then [`TraceRecorder::finish`].
pub struct TraceRecorder {
    rank: usize,
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl TraceRecorder {
    pub fn new(rank: usize) -> Self {
        Self {
            rank,
            enabled: AtomicBool::new(true),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A recorder that is installed but records nothing — the worst-case
    /// "tracing disabled" path (hook dispatch + one atomic load).
    pub fn disabled(rank: usize) -> Self {
        let r = Self::new(rank);
        r.enabled.store(false, Ordering::Relaxed);
        r
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Close all open spans and return the recorded stream. The recorder is
    /// left empty and can be reused.
    pub fn finish(&self) -> RankTrace {
        let mut inner = self.inner.lock().unwrap();
        while !inner.stack.is_empty() {
            inner.pop_emit();
        }
        inner.counters.clear();
        RankTrace {
            rank: self.rank,
            events: std::mem::take(&mut inner.events),
        }
    }

    /// Number of events recorded so far (test hook).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceHook for TraceRecorder {
    fn event(&self, region: Region, kind: EventKind) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.inner
            .lock()
            .unwrap()
            .events
            .push(TraceEvent::Op { region, kind });
    }

    fn region(&self, region: Region) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.stack.last() == Some(&Frame::Region(region)) {
            return;
        }
        inner.pop_regions();
        inner.stack.push(Frame::Region(region));
        inner.events.push(TraceEvent::SpanBegin {
            name: region.short_name().into(),
            arg: 0,
        });
    }

    fn span_begin(&self, name: &'static str, arg: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.pop_regions();
        // Re-opening a span that is already on the stack closes everything
        // down through (and including) the previous instance first — this is
        // what lets the solver open "iteration" unconditionally at the loop
        // head without pairing each continue path with an explicit end.
        if inner.stack.contains(&Frame::Named(name)) {
            while inner.stack.last() != Some(&Frame::Named(name)) {
                inner.pop_emit();
            }
            inner.pop_emit();
        }
        inner.stack.push(Frame::Named(name));
        inner.events.push(TraceEvent::SpanBegin {
            name: name.into(),
            arg,
        });
    }

    fn span_end(&self, name: &'static str) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if !inner.stack.contains(&Frame::Named(name)) {
            return;
        }
        while inner.stack.last() != Some(&Frame::Named(name)) {
            inner.pop_emit();
        }
        inner.pop_emit();
    }

    fn counter(&self, name: &'static str, delta: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let value = inner.counters.entry(name).or_insert(0);
        *value += delta;
        let value = *value;
        inner.events.push(TraceEvent::Counter {
            name: name.into(),
            value,
        });
    }

    fn collective(&self, scope: CommScope, op: &'static str, seq: u64, bytes: u64, members: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.inner
            .lock()
            .unwrap()
            .events
            .push(TraceEvent::Collective {
                scope,
                op: op.into(),
                seq,
                bytes,
                members,
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(trace: &RankTrace) -> Vec<String> {
        trace
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::SpanBegin { name, .. } => format!("b:{name}"),
                TraceEvent::SpanEnd { name } => format!("e:{name}"),
                TraceEvent::Op { .. } => "op".into(),
                TraceEvent::Collective { op, .. } => format!("coll:{op}"),
                TraceEvent::Counter { name, value } => format!("ctr:{name}={value}"),
            })
            .collect()
    }

    #[test]
    fn regions_nest_under_named_spans() {
        let r = TraceRecorder::new(0);
        r.span_begin("solve", 0);
        r.span_begin("iteration", 0);
        r.region(Region::Filter);
        r.event(Region::Filter, EventKind::Blas1 { n: 1 });
        r.region(Region::Filter); // same region: no-op
        r.region(Region::Qr); // switches: close filter, open qr
        r.span_begin("iteration", 1); // auto-closes qr span and iteration 0
        r.span_end("solve"); // closes iteration 1 too
        let t = r.finish();
        assert_eq!(
            names(&t),
            vec![
                "b:solve",
                "b:iteration",
                "b:filter",
                "op",
                "e:filter",
                "b:qr",
                "e:qr",
                "e:iteration",
                "b:iteration",
                "e:iteration",
                "e:solve",
            ]
        );
    }

    #[test]
    fn finish_closes_open_spans() {
        let r = TraceRecorder::new(2);
        r.span_begin("solve", 0);
        r.region(Region::Lanczos);
        let t = r.finish();
        assert_eq!(
            names(&t),
            vec!["b:solve", "b:lanczos", "e:lanczos", "e:solve"]
        );
        assert!(r.finish().events.is_empty(), "recorder drained");
    }

    #[test]
    fn unmatched_end_is_ignored() {
        let r = TraceRecorder::new(0);
        r.span_end("nope");
        r.span_begin("solve", 0);
        r.span_end("nope");
        let t = r.finish();
        assert_eq!(names(&t), vec!["b:solve", "e:solve"]);
    }

    #[test]
    fn counters_accumulate() {
        let r = TraceRecorder::new(0);
        r.counter("qr_rung_climbs", 1);
        r.counter("qr_rung_climbs", 2);
        r.counter("recovery_events", 1);
        let t = r.finish();
        assert_eq!(
            names(&t),
            vec![
                "ctr:qr_rung_climbs=1",
                "ctr:qr_rung_climbs=3",
                "ctr:recovery_events=1"
            ]
        );
        assert_eq!(
            t.counters(),
            vec![
                ("qr_rung_climbs".to_string(), 3),
                ("recovery_events".to_string(), 1)
            ]
        );
    }

    #[test]
    fn disabled_records_nothing() {
        let r = TraceRecorder::disabled(0);
        r.span_begin("solve", 0);
        r.event(Region::Filter, EventKind::Blas1 { n: 1 });
        r.counter("x", 1);
        r.collective(CommScope::World, "allreduce", 0, 8, 2);
        assert!(r.is_empty());
        r.set_enabled(true);
        r.event(Region::Filter, EventKind::Blas1 { n: 1 });
        assert_eq!(r.len(), 1);
    }
}
