//! Zero-dependency telemetry for the linksched workspace: mergeable
//! metrics, span profiling, and machine-readable run artifacts.
//!
//! The crate has **no external dependencies** (the build environment is
//! offline) and two operating modes selected at compile time by the
//! `enabled` cargo feature:
//!
//! * **enabled** — counters/gauges/histograms record into either a
//!   local [`MetricSet`] shard (hot paths, merged deterministically
//!   like `nc-sim`'s `DelayStats`) or the process-global registry
//!   ([`counter`], [`observe`], [`timer`]), which keeps one shard per
//!   thread so recording threads never contend; [`span`] guards append
//!   to a bounded trace buffer.
//! * **disabled** (default) — every recording call is an inlineable
//!   no-op with no clock reads, locks, or allocation; the exporters and
//!   [`RunManifest`] still work (they emit empty metric sections), so
//!   downstream code needs no `cfg` of its own.
//!
//! Consumer crates expose their own `telemetry` feature forwarding to
//! `nc-telemetry/enabled`; because cargo unifies features, enabling it
//! anywhere in a build instruments the whole graph.
//!
//! # Determinism contract
//!
//! Instrumentation must never influence simulation results: recording
//! reads no RNG state and metric shards merge in replication order, so
//! an instrumented Monte Carlo run returns bitwise-identical
//! `DelayStats` to an uninstrumented one (covered by tests in
//! `nc-sim`).
//!
//! # Example
//!
//! ```
//! use nc_telemetry as tel;
//!
//! fn solve() -> f64 {
//!     let _span = tel::span("example.solve");
//!     let _timer = tel::timer("example_solve_seconds");
//!     tel::counter("example_solve_calls_total", 1);
//!     42.0
//! }
//!
//! solve();
//! let snapshot = tel::global_snapshot();
//! let text = tel::export::prometheus(&snapshot);
//! if tel::ENABLED {
//!     assert!(text.contains("example_solve_calls_total 1"));
//! } else {
//!     assert!(text.is_empty());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod export;
pub mod json;
mod manifest;
mod metrics;
mod spans;

pub use manifest::{git_describe, RunManifest};
pub use metrics::{
    Histogram, Labels, MetricKey, MetricSet, MetricValue, HIST_BUCKETS, HIST_MAX_EXP, HIST_MIN_EXP,
};
pub use spans::{
    dropped_spans, reset_spans, set_trace_capacity, span, spans_snapshot, SpanEvent, SpanGuard,
    DEFAULT_TRACE_CAPACITY,
};

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Whether the `enabled` feature was compiled in.
pub const ENABLED: bool = cfg!(feature = "enabled");

/// One thread's part of the process-global registry.
type Shard = Arc<Mutex<MetricSet>>;

/// Every shard ever created, in registration order. A shard outlives
/// its thread, so what a worker recorded stays in the snapshot.
fn shards() -> &'static Mutex<Vec<Shard>> {
    static SHARDS: OnceLock<Mutex<Vec<Shard>>> = OnceLock::new();
    SHARDS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Shard = {
        let shard = Shard::default();
        shards().lock().expect("shard list poisoned").push(Arc::clone(&shard));
        shard
    };
}

/// Records into the calling thread's shard. Only [`global_snapshot`]
/// and [`reset_global`] ever lock it from another thread, so recording
/// threads never wait on each other. A record made while the thread's
/// locals are being torn down is dropped.
fn record(f: impl FnOnce(&mut MetricSet)) {
    let _ = LOCAL.try_with(|shard| f(&mut shard.lock().expect("metric shard poisoned")));
}

/// Adds to an unlabelled counter in the process-global registry.
#[inline]
pub fn counter(name: &str, n: u64) {
    if !ENABLED {
        return;
    }
    record(|m| m.counter_add(name, &[], n));
}

/// Adds to a labelled counter in the process-global registry.
#[inline]
pub fn counter_labeled(name: &str, labels: &[(&str, &str)], n: u64) {
    if !ENABLED {
        return;
    }
    record(|m| m.counter_add(name, labels, n));
}

/// Sets a gauge in the process-global registry. Each thread keeps its
/// own value; the snapshot reports the largest (see
/// [`MetricSet::merge`]).
#[inline]
pub fn gauge(name: &str, v: f64) {
    if !ENABLED {
        return;
    }
    record(|m| m.gauge_set(name, &[], v));
}

/// Records a histogram sample in the process-global registry.
#[inline]
pub fn observe(name: &str, v: f64) {
    if !ENABLED {
        return;
    }
    record(|m| m.observe(name, &[], v));
}

/// Merges a metric shard into the process-global registry.
pub fn merge_global(shard: &MetricSet) {
    if !ENABLED || shard.is_empty() {
        return;
    }
    record(|m| m.merge(shard));
}

/// A snapshot of the process-global registry: every thread's shard,
/// merged in registration order.
pub fn global_snapshot() -> MetricSet {
    let mut out = MetricSet::new();
    for shard in shards().lock().expect("shard list poisoned").iter() {
        out.merge(&shard.lock().expect("metric shard poisoned"));
    }
    out
}

/// Clears the process-global registry (tests).
pub fn reset_global() {
    for shard in shards().lock().expect("shard list poisoned").iter() {
        *shard.lock().expect("metric shard poisoned") = MetricSet::new();
    }
}

/// Starts a wall-time timer that records its elapsed seconds into the
/// named global histogram when dropped.
#[inline]
pub fn timer(name: &'static str) -> Timer {
    Timer { name, start: ENABLED.then(Instant::now) }
}

/// RAII guard produced by [`timer`].
#[must_use = "a timer measures the scope it is bound to; bind it to a named variable"]
pub struct Timer {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            observe(self.name, start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-wide: tests that reset it hold this lock
    /// so parallel test threads cannot interleave.
    static REGISTRY: Mutex<()> = Mutex::new(());

    #[test]
    fn global_registry_accumulates_and_resets() {
        let _lock = REGISTRY.lock().unwrap();
        reset_global();
        counter("t_calls_total", 2);
        counter_labeled("t_calls_total", &[("kind", "x")], 1);
        gauge("t_gauge", 7.0);
        {
            let _t = timer("t_seconds");
        }
        let mut shard = MetricSet::new();
        shard.counter_add("t_calls_total", &[], 3);
        merge_global(&shard);
        let snap = global_snapshot();
        if ENABLED {
            assert_eq!(snap.counter_value("t_calls_total", &[]), 5);
            assert_eq!(snap.counter_value("t_calls_total", &[("kind", "x")]), 1);
            assert!(matches!(
                snap.get("t_seconds", &[]),
                Some(MetricValue::Histogram(h)) if h.count() == 1
            ));
        } else {
            assert!(snap.is_empty());
        }
        reset_global();
        assert!(global_snapshot().is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn thread_shards_merge_into_the_snapshot() {
        let _lock = REGISTRY.lock().unwrap();
        reset_global();
        std::thread::scope(|scope| {
            for (n, v) in [(2u64, 0.5f64), (3, 4.0)] {
                scope.spawn(move || {
                    counter("t_shard_total", n);
                    counter_labeled("t_shard_labeled_total", &[("kind", "y")], n);
                    observe("t_shard_seconds", v);
                });
            }
        });
        counter("t_shard_total", 1);
        let snap = global_snapshot();
        assert_eq!(snap.counter_value("t_shard_total", &[]), 6);
        assert_eq!(snap.counter_value("t_shard_labeled_total", &[("kind", "y")]), 5);
        match snap.get("t_shard_seconds", &[]) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.sum(), 4.5);
                assert_eq!((h.min(), h.max()), (Some(0.5), Some(4.0)));
            }
            other => panic!("histogram missing from the snapshot: {other:?}"),
        }
        reset_global();
        assert!(global_snapshot().is_empty(), "reset must clear every thread's shard");
    }
}
