//! Exporters: Chrome trace-event JSON for spans, JSON and Prometheus text for metrics.
//!
//! All three emit plain `String`s built with `std::fmt` — no serializer dependency. The
//! Chrome format is the "JSON Array Format" subset that `chrome://tracing` and Perfetto
//! both load: `"X"` (complete) events with microsecond `ts`/`dur`, plus `"M"` metadata
//! events naming each thread, so the speculation runner, the commit thread, and the pool
//! workers appear as labelled rows on one timeline.

use crate::hist::Histogram;
use crate::metrics::Snapshot;
use crate::spans::{thread_rings, SpanEvent, ThreadRing};
use std::fmt::Write as _;

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

// --- Chrome trace ----------------------------------------------------------------------

/// Render span events as Chrome trace-event JSON (load via `chrome://tracing` or
/// <https://ui.perfetto.dev>). `ts`/`dur` are microseconds with nanosecond precision kept
/// as fractions. Thread names come from the ring registry.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    chrome_trace_json_with_threads(events, &thread_rings())
}

/// [`chrome_trace_json`] with an explicit thread list (for tests).
pub fn chrome_trace_json_with_threads(events: &[SpanEvent], threads: &[ThreadRing]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("[\n");
    let mut first = true;
    for t in threads {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            t.tid,
            json_escape(&t.name)
        );
    }
    for e in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
            json_escape(e.name),
            e.tid,
            fmt_f64(e.start_ns as f64 / 1_000.0),
            fmt_f64(e.dur_ns as f64 / 1_000.0)
        );
    }
    out.push_str("\n]\n");
    out
}

// --- metrics JSON ----------------------------------------------------------------------

fn histogram_json(h: &Histogram) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"buckets\":[",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        fmt_f64(h.mean()),
        h.value_at_quantile(0.50),
        h.value_at_quantile(0.90),
        h.value_at_quantile(0.99),
        h.value_at_quantile(0.999)
    );
    let mut first = true;
    for (le, count) in h.nonzero_buckets() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "[{le},{count}]");
    }
    out.push_str("]}");
    out
}

/// Render a snapshot as a JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,max,mean,p50,p90,p99,p999,buckets:[[le,count],..]}}}`.
pub fn snapshot_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    let mut first = true;
    for (name, v) in &snap.counters {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{}", json_escape(name), v);
    }
    out.push_str("},\"gauges\":{");
    first = true;
    for (name, v) in &snap.gauges {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{}", json_escape(name), v);
    }
    out.push_str("},\"histograms\":{");
    first = true;
    for (name, h) in &snap.histograms {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{}", json_escape(name), histogram_json(h));
    }
    out.push_str("}}");
    out
}

// --- Prometheus text -------------------------------------------------------------------

/// Split `name{label="x"}` into `(base, Some(label block))`, or `(name, None)`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(i) if name.ends_with('}') => (&name[..i], Some(&name[i + 1..name.len() - 1])),
        _ => (name, None),
    }
}

/// Sanitize a metric name for the Prometheus exposition format.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn prom_series(base: &str, labels: Option<&str>, extra: Option<&str>) -> String {
    let base = prom_name(base);
    match (labels, extra) {
        (None, None) => base,
        (Some(l), None) => format!("{base}{{{l}}}"),
        (None, Some(e)) => format!("{base}{{{e}}}"),
        (Some(l), Some(e)) => format!("{base}{{{l},{e}}}"),
    }
}

/// Render a snapshot in the Prometheus text exposition format (version 0.0.4): counters
/// and gauges as single samples, histograms as cumulative `_bucket{le=...}` series plus
/// `_sum` and `_count`. Registry names may carry a `{label="x"}` suffix; series sharing a
/// base name are folded under one `# TYPE` family.
pub fn snapshot_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    for (name, v) in &snap.counters {
        let (base, labels) = split_labels(name);
        let family = prom_name(base);
        if family != last_family {
            let _ = writeln!(out, "# TYPE {family} counter");
            last_family = family.clone();
        }
        let _ = writeln!(out, "{} {}", prom_series(base, labels, None), v);
    }
    for (name, v) in &snap.gauges {
        let (base, labels) = split_labels(name);
        let family = prom_name(base);
        if family != last_family {
            let _ = writeln!(out, "# TYPE {family} gauge");
            last_family = family.clone();
        }
        let _ = writeln!(out, "{} {}", prom_series(base, labels, None), v);
    }
    for (name, h) in &snap.histograms {
        let (base, labels) = split_labels(name);
        let family = prom_name(base);
        if family != last_family {
            let _ = writeln!(out, "# TYPE {family} histogram");
            last_family = family.clone();
        }
        let mut cum = 0u64;
        for (le, count) in h.nonzero_buckets() {
            cum = cum.saturating_add(count);
            let le = format!("le=\"{le}\"");
            let _ = writeln!(
                out,
                "{} {}",
                prom_series(&format!("{base}_bucket"), labels, Some(&le)),
                cum
            );
        }
        let _ = writeln!(
            out,
            "{} {}",
            prom_series(&format!("{base}_bucket"), labels, Some("le=\"+Inf\"")),
            h.count()
        );
        let _ = writeln!(
            out,
            "{} {}",
            prom_series(&format!("{base}_sum"), labels, None),
            h.sum()
        );
        let _ = writeln!(
            out,
            "{} {}",
            prom_series(&format!("{base}_count"), labels, None),
            h.count()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::spans::SpanRing;
    use std::sync::Arc;

    fn sample_snapshot() -> Snapshot {
        let reg = Registry::new();
        reg.counter("eco_applied_total{kind=\"move\"}").add(7);
        reg.counter("eco_applied_total{kind=\"resize\"}").add(2);
        reg.gauge("queue_depth").set(3);
        let h = reg.histogram("apply_latency_ns");
        for v in [100u64, 200, 400, 120_000] {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn chrome_trace_is_wellformed_and_carries_thread_names() {
        let ring = Arc::new(SpanRing::new(8));
        ring.record(crate::spans::intern("fop"), 7, 1_500, 2_500);
        let threads = vec![ThreadRing {
            tid: 7,
            name: "commit".into(),
            ring: Arc::clone(&ring),
        }];
        let events = ring.read_all();
        let json = chrome_trace_json_with_threads(&events, &threads);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"commit\""));
        assert!(json.contains("\"name\":\"fop\""));
        assert!(json.contains("\"ts\":1.5"));
        assert!(json.contains("\"dur\":2.5"));
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn snapshot_json_carries_all_instruments() {
        let json = snapshot_json(&sample_snapshot());
        assert!(json.contains("\"eco_applied_total{kind=\\\"move\\\"}\":7"));
        assert!(json.contains("\"queue_depth\":3"));
        assert!(json.contains("\"count\":4"));
        assert!(json.contains("\"p999\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn prometheus_text_folds_label_series_under_one_family() {
        let text = snapshot_prometheus(&sample_snapshot());
        assert_eq!(text.matches("# TYPE eco_applied_total counter").count(), 1);
        assert!(text.contains("eco_applied_total{kind=\"move\"} 7"));
        assert!(text.contains("eco_applied_total{kind=\"resize\"} 2"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("# TYPE apply_latency_ns histogram"));
        assert!(text.contains("apply_latency_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("apply_latency_ns_sum 120700"));
        assert!(text.contains("apply_latency_ns_count 4"));
        // buckets are cumulative: the last finite bucket equals the count
        let last_finite = text
            .lines()
            .rfind(|l| l.starts_with("apply_latency_ns_bucket{le=\"") && !l.contains("+Inf"))
            .unwrap();
        assert!(last_finite.ends_with(" 4"), "{last_finite}");
    }
}
