//! Metrics registry: named counters, gauges, and histograms with point-in-time snapshots.
//!
//! A [`Registry`] hands out cheap clonable handles ([`Counter`], [`Gauge`],
//! [`HistogramHandle`]) that engines hold for the duration of a run. Counters and gauges
//! are single relaxed atomics; histograms take a per-instrument mutex (recording into one
//! is a handful of integer ops under the lock, and the engines record per-target or
//! per-delta, not per-instruction). [`Registry::snapshot`] produces an owned
//! [`Snapshot`] that the exporters in [`crate::export`] serialize to JSON or Prometheus
//! text.
//!
//! Names may embed Prometheus-style labels directly: `eco_apply_latency_ns{kind="move"}`.
//! The exporters split the base name from the label block, so per-kind series group under
//! one `# TYPE` family in the text exposition.
//!
//! Registration is idempotent: asking twice for the same name returns handles sharing the
//! same underlying cell, so independent code paths can meter the same series.

use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A handle to a registered histogram (see [`crate::hist::Histogram`] for semantics).
#[derive(Clone)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.lock().expect("histogram poisoned").record(v);
    }

    /// Record a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.0
            .lock()
            .expect("histogram poisoned")
            .record_duration(d);
    }

    /// Fold a locally accumulated histogram in (one lock for the whole batch).
    pub fn merge_from(&self, h: &Histogram) {
        self.0.lock().expect("histogram poisoned").merge(h);
    }

    /// Owned copy of the current state.
    pub fn get(&self) -> Histogram {
        self.0.lock().expect("histogram poisoned").clone()
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicI64>>,
    histograms: BTreeMap<String, Arc<Mutex<Histogram>>>,
}

/// A registry of named instruments. `Registry::global()` is the workspace-wide default;
/// tests construct their own to stay isolated.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry the engines and the ECO service publish into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        Counter(Arc::clone(
            inner.counters.entry(name.to_owned()).or_default(),
        ))
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        Gauge(Arc::clone(inner.gauges.entry(name.to_owned()).or_default()))
    }

    /// Get or create a histogram.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        HistogramHandle(Arc::clone(
            inner.histograms.entry(name.to_owned()).or_default(),
        ))
    }

    /// Convenience: set a counter-style series to an externally accumulated total. The
    /// stats structs (`WorkTrace`, `ShardStats`, `EcoStats`) publish through this at the
    /// end of a run, keeping their own public shapes untouched.
    pub fn set_counter(&self, name: &str, value: u64) {
        let c = self.counter(name);
        c.0.store(value, Ordering::Relaxed);
    }

    /// Point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.lock().expect("histogram poisoned").clone()))
                .collect(),
        }
    }
}

/// An owned point-in-time copy of a [`Registry`]'s instruments, ready for export.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram copies by name.
    pub histograms: BTreeMap<String, Histogram>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_the_underlying_cell() {
        let reg = Registry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counters["hits"], 3);
    }

    #[test]
    fn snapshot_is_a_copy_not_a_view() {
        let reg = Registry::new();
        let c = reg.counter("n");
        c.inc();
        let snap = reg.snapshot();
        c.inc();
        assert_eq!(snap.counters["n"], 1);
        assert_eq!(reg.snapshot().counters["n"], 2);
    }
}
