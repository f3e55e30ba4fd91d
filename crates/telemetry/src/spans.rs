//! Lightweight span timers for hierarchical wall-time profiling.
//!
//! [`span`] returns an RAII guard that, on drop, appends one complete
//! span event (name, start, duration, thread, nesting depth) to a
//! process-global bounded buffer. The buffer is exported as a Chrome
//! `trace_event` JSON (see [`crate::export::chrome_trace`]) or as part
//! of the JSONL event stream.
//!
//! Without the `enabled` feature, [`span`] performs no clock reads and
//! the guard is dropped without side effects — the call sites compile
//! down to nothing.

use crate::ENABLED;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Static span name, e.g. `"core.optimizer.solve"`.
    pub name: &'static str,
    /// Small dense thread id (1-based, assigned on first span per
    /// thread).
    pub tid: u64,
    /// Start time in microseconds since the process's first span.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Nesting depth at the time the span opened (0 = top level).
    pub depth: u32,
}

/// Default cap on buffered span events. Dense instrumentation (three
/// spans per γ-search) produces hundreds of thousands of events per
/// figure run; the cap bounds memory and trace size while
/// [`dropped_spans`] keeps the truncation visible.
pub const DEFAULT_TRACE_CAPACITY: usize = 200_000;

struct TraceBuf {
    events: Vec<SpanEvent>,
    dropped: u64,
    capacity: usize,
}

fn buf() -> &'static Mutex<TraceBuf> {
    static TRACE: OnceLock<Mutex<TraceBuf>> = OnceLock::new();
    TRACE.get_or_init(|| {
        Mutex::new(TraceBuf { events: Vec::new(), dropped: 0, capacity: DEFAULT_TRACE_CAPACITY })
    })
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Opens a span; the returned guard records the span when dropped.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !ENABLED {
        return SpanGuard { name, start: None, depth: 0 };
    }
    let depth = DEPTH.with(|d| {
        let cur = d.get();
        d.set(cur + 1);
        cur
    });
    // Initialize the epoch before taking the start time so the first
    // span's timestamp is non-negative.
    let _ = epoch();
    SpanGuard { name, start: Some(Instant::now()), depth }
}

/// RAII guard produced by [`span`].
#[must_use = "a span measures the scope it is bound to; bind it to a named variable"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    depth: u32,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let event = SpanEvent {
            name: self.name,
            tid: thread_id(),
            ts_us: start.duration_since(epoch()).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
            depth: self.depth,
        };
        let mut buf = buf().lock().expect("trace buffer poisoned");
        if buf.events.len() < buf.capacity {
            buf.events.push(event);
        } else {
            buf.dropped += 1;
        }
    }
}

/// A snapshot of the buffered span events (in completion order).
pub fn spans_snapshot() -> Vec<SpanEvent> {
    buf().lock().expect("trace buffer poisoned").events.clone()
}

/// How many spans were discarded because the buffer was full.
pub fn dropped_spans() -> u64 {
    buf().lock().expect("trace buffer poisoned").dropped
}

/// Clears the span buffer and the dropped count.
pub fn reset_spans() {
    let mut buf = buf().lock().expect("trace buffer poisoned");
    buf.events.clear();
    buf.dropped = 0;
}

/// Replaces the span-buffer capacity (existing events are kept, even
/// beyond a smaller new capacity).
pub fn set_trace_capacity(capacity: usize) {
    buf().lock().expect("trace buffer poisoned").capacity = capacity;
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    // The span buffer is process-global: keep every assertion inside
    // one test so parallel test threads cannot interleave resets.
    #[test]
    fn spans_record_nesting_and_respect_capacity() {
        reset_spans();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let events = spans_snapshot();
        let outer = events.iter().find(|e| e.name == "outer").expect("outer recorded");
        let inner = events.iter().find(|e| e.name == "inner").expect("inner recorded");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.tid, inner.tid);
        // Inner completes within outer.
        assert!(inner.ts_us >= outer.ts_us);
        assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + 1.0);

        reset_spans();
        set_trace_capacity(2);
        for _ in 0..5 {
            let _s = span("capped");
        }
        assert_eq!(spans_snapshot().len(), 2);
        assert_eq!(dropped_spans(), 3);
        set_trace_capacity(DEFAULT_TRACE_CAPACITY);
        reset_spans();
    }
}

#[cfg(all(test, not(feature = "enabled")))]
mod disabled_tests {
    use super::*;

    #[test]
    fn spans_are_no_ops_when_disabled() {
        {
            let _s = span("nothing");
        }
        assert!(spans_snapshot().is_empty());
        assert_eq!(dropped_spans(), 0);
    }
}
