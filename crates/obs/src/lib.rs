//! `flex-obs`: the workspace's unified observability layer. Std-only, zero dependencies.
//!
//! Three pieces:
//!
//! * **Spans** ([`spans`], the [`span!`] macro): RAII phase timers writing to per-thread
//!   fixed-capacity drop-oldest ring buffers with no locks on the hot path, exportable as
//!   Chrome trace-event JSON ([`export::chrome_trace_json`]). Span recording is gated by a
//!   process-wide flag — **off by default** — so the serial bit-exactness oracle and the
//!   golden Table 1 replication run exactly the code they always ran plus one relaxed
//!   atomic load per call site.
//! * **Metrics** ([`metrics`]): named counters, gauges, and mergeable log-bucketed
//!   histograms ([`hist::Histogram`]) with point-in-time [`metrics::Snapshot`]s
//!   serializable to JSON ([`export::snapshot_json`]) and Prometheus text
//!   ([`export::snapshot_prometheus`]).
//! * **Exporters** ([`export`]): plain-`String` renderers for all of the above.
//!
//! Typical engine instrumentation:
//!
//! ```
//! flex_obs::set_enabled(true);
//! {
//!     let _span = flex_obs::span!("legalize.fop");
//!     // ... work ...
//! }
//! let h = flex_obs::global().histogram("apply_latency_ns");
//! h.record(1_250);
//! let trace = flex_obs::export::chrome_trace_json(&flex_obs::collect_spans());
//! assert!(trace.contains("legalize.fop"));
//! flex_obs::set_enabled(false);
//! ```

pub mod export;
pub mod hist;
pub mod metrics;
pub mod spans;

pub use hist::Histogram;
pub use metrics::{Counter, Gauge, HistogramHandle, Registry, Snapshot};
pub use spans::{
    clear_spans, collect_spans, drain_spans, now_ns, record_span, set_ring_capacity, span,
    thread_rings, SpanEvent, SpanGuard, SpanRing, ThreadRing,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether span recording is on. One relaxed load; this is the entire disabled-path cost
/// of a [`span!`] call site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn span recording on or off (metrics handles are always live — they are plain
/// atomics the holder explicitly calls).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enable span recording if the `FLEX_OBS` environment variable is set to something other
/// than `0`/`off`/`false`; returns the resulting state. Binaries call this at startup so
/// `FLEX_OBS=1` lights up any run without a flag change.
pub fn init_from_env() -> bool {
    if let Ok(v) = std::env::var("FLEX_OBS") {
        let on = !matches!(v.as_str(), "" | "0" | "off" | "false");
        set_enabled(on);
    }
    enabled()
}

/// The process-wide metrics registry (shorthand for [`Registry::global`]).
pub fn global() -> &'static Registry {
    Registry::global()
}

/// Start an RAII span with a `&'static str` name, caching the interned name id in a
/// per-call-site `OnceLock` so steady-state cost is two relaxed atomic loads plus two
/// clock reads — and a single relaxed load when disabled. Bind the result:
/// `let _span = span!("mgl.fop");` (an unbound guard drops immediately).
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        if $crate::enabled() {
            static NAME_ID: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
            let id = *NAME_ID.get_or_init(|| $crate::spans::intern($name));
            $crate::SpanGuard::armed(id)
        } else {
            $crate::SpanGuard::inert()
        }
    }};
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    // Both tests flip the process-wide enabled flag; serialize them.
    static FLAG_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn span_macro_is_inert_when_disabled() {
        let _guard = FLAG_LOCK.lock().unwrap();
        super::set_enabled(false);
        {
            let _s = span!("obs-lib-test-disabled");
        }
        let events = super::collect_spans();
        assert!(!events.iter().any(|e| e.name == "obs-lib-test-disabled"));
    }

    #[test]
    fn span_macro_records_when_enabled() {
        let _guard = FLAG_LOCK.lock().unwrap();
        super::set_enabled(true);
        {
            let _s = span!("obs-lib-test-enabled");
        }
        super::set_enabled(false);
        let events = super::collect_spans();
        assert!(events.iter().any(|e| e.name == "obs-lib-test-enabled"));
    }
}
