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

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Depth of [`without_spans`] scopes on this thread; non-zero drops every span here.
    static SUPPRESSED: Cell<u32> = const { Cell::new(0) };
}

/// Whether span recording is on. One relaxed load; this is the entire disabled-path cost
/// of a [`span!`] call site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether a span started now on this thread records: recording is on and the thread is
/// not inside [`without_spans`]. Still one relaxed load while recording is off.
#[inline(always)]
pub fn recording() -> bool {
    enabled() && SUPPRESSED.with(|s| s.get() == 0)
}

/// Run `f` with span recording suppressed on the current thread; other threads keep
/// recording. Pool workers wrap their per-cell work in this: the rayon shim spawns fresh
/// threads per call, and a thread that records a span keeps its ring for the life of the
/// process. Scopes nest, and a panic in `f` still ends the scope.
pub fn without_spans<T>(f: impl FnOnce() -> T) -> T {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SUPPRESSED.with(|s| s.set(s.get() - 1));
        }
    }
    SUPPRESSED.with(|s| s.set(s.get() + 1));
    let _g = Guard;
    f()
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
/// clock reads — and a single relaxed load when disabled. Records nothing inside
/// [`without_spans`]. Bind the result: `let _span = span!("mgl.fop");` (an unbound guard
/// drops immediately).
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        if $crate::recording() {
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

    // These tests flip the process-wide enabled flag; serialize them.
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

    fn recorded(name: &str) -> usize {
        super::collect_spans()
            .iter()
            .filter(|e| e.name == name)
            .count()
    }

    #[test]
    fn without_spans_drops_this_threads_spans_only() {
        let _guard = FLAG_LOCK.lock().unwrap();
        super::set_enabled(true);
        super::without_spans(|| {
            let _s = span!("obs-lib-test-suppressed");
            drop(super::span("obs-lib-test-suppressed"));
            super::record_span("obs-lib-test-suppressed", 1, 1);
            super::without_spans(|| {
                let _s = span!("obs-lib-test-suppressed");
            });
            // the inner scope's end leaves the outer one in force
            let _s = span!("obs-lib-test-suppressed");
            std::thread::spawn(|| {
                let _s = span!("obs-lib-test-other-thread");
            })
            .join()
            .unwrap();
        });
        {
            let _s = span!("obs-lib-test-after");
        }
        super::set_enabled(false);
        assert_eq!(recorded("obs-lib-test-suppressed"), 0);
        assert_eq!(recorded("obs-lib-test-other-thread"), 1);
        assert_eq!(recorded("obs-lib-test-after"), 1);
    }

    #[test]
    fn without_spans_ends_when_its_closure_panics() {
        let _guard = FLAG_LOCK.lock().unwrap();
        super::set_enabled(true);
        let caught =
            std::panic::catch_unwind(|| super::without_spans(|| panic!("inside without_spans")));
        assert!(caught.is_err());
        assert!(
            super::recording(),
            "the panic must end the suppressed scope"
        );
        {
            let _s = span!("obs-lib-test-after-panic");
        }
        super::set_enabled(false);
        assert_eq!(recorded("obs-lib-test-after-panic"), 1);
    }
}
