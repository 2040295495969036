//! The wire protocol of `flex-eco-serve`: length-prefixed JSON frames over a Unix socket.
//!
//! Each frame is a big-endian `u32` payload length followed by that many bytes of UTF-8
//! JSON. Requests are objects with an `"op"` discriminator:
//!
//! | op         | fields                                  | meaning                         |
//! |------------|------------------------------------------|---------------------------------|
//! | `move`     | `id`, `gx`, `gy`                         | [`EcoDelta::MoveCell`]          |
//! | `insert`   | `width`, `height`, `gx`, `gy`            | [`EcoDelta::InsertCell`]        |
//! | `resize`   | `id`, `width`, `height`                  | [`EcoDelta::ResizeCell`]        |
//! | `remove`   | `id`                                     | [`EcoDelta::RemoveCell`]        |
//! | `batch`    | `deltas`: array of the above objects     | one atomic-validation batch     |
//! | `info`     | —                                        | design summary                  |
//! | `stats`    | —                                        | lifetime engine counters        |
//! | `metrics`  | optional `format`: `"prometheus"`        | live metrics snapshot           |
//! | `trace`    | optional `format`: `"chrome"`            | recent span dump                |
//! | `health`   | —                                        | supervisor state (always answers)|
//! | `shutdown` | —                                        | stop the server after replying  |
//!
//! Responses are `{"ok":true,...}` (with a `report`, `info`, `stats`, `metrics`, `text` or
//! `trace` object) or `{"ok":false,"error":"..."}`. Malformed frames produce an error
//! response; the connection stays usable.
//!
//! `metrics` answers with the process's registry snapshot — counters, gauges, and the
//! engine's per-delta-kind apply-latency histograms — as structured JSON, or as Prometheus
//! text exposition (in a `"text"` field) when `format` is `"prometheus"`. `trace` answers
//! with the recent span events of every thread; with `format: "chrome"` the `"trace"`
//! field is a complete Chrome trace-event document ready to save and load in
//! `chrome://tracing`/Perfetto.

use crate::delta::{EcoDelta, EcoError, EcoReport, EcoStats, PlacedKind};
use crate::json::Json;
use flex_placement::cell::CellId;
use std::io::{Read, Write};

/// Upper bound on a frame payload (16 MiB): a defensive limit so a garbage length prefix
/// cannot make the server allocate unbounded memory.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Apply a delta batch (a single-delta op decodes to a one-element batch).
    Apply(Vec<EcoDelta>),
    /// Design summary (cells, die, legality).
    Info,
    /// Lifetime engine counters.
    Stats,
    /// Live metrics snapshot (JSON, or Prometheus text exposition).
    Metrics {
        /// Answer in the Prometheus text format instead of structured JSON.
        prometheus: bool,
    },
    /// Recent span dump (structured events, or a Chrome trace-event document).
    Trace {
        /// Answer with a complete Chrome trace-event JSON document.
        chrome: bool,
    },
    /// Supervisor health: state machine position, restart/quarantine counters, scrub
    /// progress. Answered by the connection thread itself — it works even while the
    /// engine is hung or mid-rebuild.
    Health,
    /// Stop the server after acknowledging.
    Shutdown,
}

/// Read one length-prefixed frame. Returns `Ok(None)` on a clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame too large"))?;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Decode one delta object (the body of `move`/`insert`/`resize`/`remove` ops). Also the
/// payload codec of write-ahead journal records (`crate::journal`), which is why it is
/// crate-visible: the journal must replay exactly what the wire accepted.
pub(crate) fn decode_delta(obj: &Json) -> Result<EcoDelta, String> {
    let op = obj
        .get("op")
        .and_then(Json::as_str)
        .ok_or("delta object missing \"op\"")?;
    let id = |key: &str| -> Result<CellId, String> {
        let raw = obj
            .get(key)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("op {op:?} missing integer \"{key}\""))?;
        u32::try_from(raw)
            .map(CellId)
            .map_err(|_| format!("cell id {raw} out of range"))
    };
    let num = |key: &str| -> Result<f64, String> {
        obj.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("op {op:?} missing number \"{key}\""))
    };
    let int = |key: &str| -> Result<i64, String> {
        obj.get(key)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("op {op:?} missing integer \"{key}\""))
    };
    match op {
        "move" => Ok(EcoDelta::MoveCell {
            id: id("id")?,
            gx: num("gx")?,
            gy: num("gy")?,
        }),
        "insert" => Ok(EcoDelta::InsertCell {
            width: int("width")?,
            height: int("height")?,
            gx: num("gx")?,
            gy: num("gy")?,
        }),
        "resize" => Ok(EcoDelta::ResizeCell {
            id: id("id")?,
            width: int("width")?,
            height: int("height")?,
        }),
        "remove" => Ok(EcoDelta::RemoveCell { id: id("id")? }),
        other => Err(format!("unknown delta op {other:?}")),
    }
}

/// Decode a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("invalid UTF-8: {e}"))?;
    let obj = Json::parse(text)?;
    let op = obj
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request missing \"op\"")?;
    match op {
        "info" => Ok(Request::Info),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics {
            prometheus: obj.get("format").and_then(Json::as_str) == Some("prometheus"),
        }),
        "trace" => Ok(Request::Trace {
            chrome: obj.get("format").and_then(Json::as_str) == Some("chrome"),
        }),
        "health" => Ok(Request::Health),
        "shutdown" => Ok(Request::Shutdown),
        "batch" => {
            let deltas = obj
                .get("deltas")
                .and_then(Json::as_arr)
                .ok_or("batch missing \"deltas\" array")?;
            deltas
                .iter()
                .map(decode_delta)
                .collect::<Result<Vec<_>, _>>()
                .map(Request::Apply)
        }
        _ => decode_delta(&obj).map(|d| Request::Apply(vec![d])),
    }
}

/// Encode a request (the client side of [`decode_request`]).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let json = match request {
        Request::Info => Json::Obj(vec![("op".into(), Json::Str("info".into()))]),
        Request::Stats => Json::Obj(vec![("op".into(), Json::Str("stats".into()))]),
        Request::Metrics { prometheus } => {
            let mut fields = vec![("op".into(), Json::Str("metrics".into()))];
            if *prometheus {
                fields.push(("format".into(), Json::Str("prometheus".into())));
            }
            Json::Obj(fields)
        }
        Request::Trace { chrome } => {
            let mut fields = vec![("op".into(), Json::Str("trace".into()))];
            if *chrome {
                fields.push(("format".into(), Json::Str("chrome".into())));
            }
            Json::Obj(fields)
        }
        Request::Health => Json::Obj(vec![("op".into(), Json::Str("health".into()))]),
        Request::Shutdown => Json::Obj(vec![("op".into(), Json::Str("shutdown".into()))]),
        Request::Apply(deltas) if deltas.len() == 1 => encode_delta(&deltas[0]),
        Request::Apply(deltas) => Json::Obj(vec![
            ("op".into(), Json::Str("batch".into())),
            (
                "deltas".into(),
                Json::Arr(deltas.iter().map(encode_delta).collect()),
            ),
        ]),
    };
    json.to_string().into_bytes()
}

pub(crate) fn encode_delta(delta: &EcoDelta) -> Json {
    match delta {
        EcoDelta::MoveCell { id, gx, gy } => Json::Obj(vec![
            ("op".into(), Json::Str("move".into())),
            ("id".into(), Json::Num(id.0 as f64)),
            ("gx".into(), Json::Num(*gx)),
            ("gy".into(), Json::Num(*gy)),
        ]),
        EcoDelta::InsertCell {
            width,
            height,
            gx,
            gy,
        } => Json::Obj(vec![
            ("op".into(), Json::Str("insert".into())),
            ("width".into(), Json::Num(*width as f64)),
            ("height".into(), Json::Num(*height as f64)),
            ("gx".into(), Json::Num(*gx)),
            ("gy".into(), Json::Num(*gy)),
        ]),
        EcoDelta::ResizeCell { id, width, height } => Json::Obj(vec![
            ("op".into(), Json::Str("resize".into())),
            ("id".into(), Json::Num(id.0 as f64)),
            ("width".into(), Json::Num(*width as f64)),
            ("height".into(), Json::Num(*height as f64)),
        ]),
        EcoDelta::RemoveCell { id } => Json::Obj(vec![
            ("op".into(), Json::Str("remove".into())),
            ("id".into(), Json::Num(id.0 as f64)),
        ]),
    }
}

/// Encode a successful apply response.
pub fn encode_report(report: &EcoReport) -> Vec<u8> {
    let outcomes: Vec<Json> = report
        .outcomes
        .iter()
        .map(|o| {
            Json::Obj(vec![
                ("cell".into(), Json::Num(o.cell.0 as f64)),
                ("kind".into(), Json::Str(o.kind.name().into())),
                (
                    "placed".into(),
                    Json::Str(
                        match o.placed {
                            PlacedKind::Region => "region",
                            PlacedKind::Fallback => "fallback",
                            PlacedKind::Failed => "failed",
                            PlacedKind::NotNeeded => "removed",
                        }
                        .into(),
                    ),
                ),
                ("cells_touched".into(), Json::Num(o.cells_touched as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        (
            "report".into(),
            Json::Obj(vec![
                ("outcomes".into(), Json::Arr(outcomes)),
                (
                    "cells_touched".into(),
                    Json::Num(report.cells_touched as f64),
                ),
                (
                    "displacement_delta".into(),
                    Json::Num(report.displacement_delta),
                ),
                ("fallbacks".into(), Json::Num(report.fallbacks as f64)),
                ("failed".into(), Json::Num(report.failed as f64)),
                ("latency_us".into(), Json::Num(report.micros())),
            ]),
        ),
    ])
    .to_string()
    .into_bytes()
}

/// Encode the `stats` response. `uptime` is how long the engine has been resident.
pub fn encode_stats(stats: &EcoStats, uptime: std::time::Duration) -> Vec<u8> {
    use crate::delta::DeltaKind;
    let mut fields = vec![("ok".into(), Json::Bool(true))];
    let mut body = Vec::new();
    for kind in DeltaKind::ALL {
        body.push((
            format!("applied_{}", kind.name()),
            Json::Num(stats.applied[kind.index()] as f64),
        ));
    }
    for kind in DeltaKind::ALL {
        body.push((
            format!("failed_{}", kind.name()),
            Json::Num(stats.failed_by_kind[kind.index()] as f64),
        ));
    }
    body.push(("batches".into(), Json::Num(stats.batches as f64)));
    body.push(("fallbacks".into(), Json::Num(stats.fallbacks as f64)));
    body.push(("failed".into(), Json::Num(stats.failed as f64)));
    body.push(("uptime_s".into(), Json::Num(uptime.as_secs_f64())));
    fields.push(("stats".into(), Json::Obj(body)));
    Json::Obj(fields).to_string().into_bytes()
}

/// Encode the `info` response. `uptime` is how long the engine has been resident.
pub fn encode_info(
    name: &str,
    sites: i64,
    rows: i64,
    live_cells: usize,
    legal: bool,
    uptime: std::time::Duration,
) -> Vec<u8> {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        (
            "info".into(),
            Json::Obj(vec![
                ("design".into(), Json::Str(name.into())),
                ("num_sites_x".into(), Json::Num(sites as f64)),
                ("num_rows".into(), Json::Num(rows as f64)),
                ("live_cells".into(), Json::Num(live_cells as f64)),
                ("legal".into(), Json::Bool(legal)),
                ("uptime_s".into(), Json::Num(uptime.as_secs_f64())),
            ]),
        ),
    ])
    .to_string()
    .into_bytes()
}

/// Encode the `metrics` response around an already-rendered registry snapshot
/// (`flex_obs::export::snapshot_json` output, embedded verbatim).
pub fn encode_metrics_json(snapshot_json: &str) -> Vec<u8> {
    format!("{{\"ok\":true,\"metrics\":{snapshot_json}}}").into_bytes()
}

/// Encode the `metrics` response in Prometheus text form (the exposition document rides in
/// a JSON string field so the framing stays uniform).
pub fn encode_metrics_text(text: &str) -> Vec<u8> {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("format".into(), Json::Str("prometheus".into())),
        ("text".into(), Json::Str(text.into())),
    ])
    .to_string()
    .into_bytes()
}

/// Encode the `trace` response: either structured span events or (with `chrome`) a
/// complete Chrome trace-event document embedded verbatim.
pub fn encode_trace(events: &[flex_obs::SpanEvent], chrome: bool) -> Vec<u8> {
    if chrome {
        let doc = flex_obs::export::chrome_trace_json(events);
        return format!("{{\"ok\":true,\"format\":\"chrome\",\"trace\":{doc}}}").into_bytes();
    }
    let spans: Vec<Json> = events
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("name".into(), Json::Str(e.name.into())),
                ("tid".into(), Json::Num(e.tid as f64)),
                ("ts_us".into(), Json::Num(e.start_ns as f64 / 1_000.0)),
                ("dur_us".into(), Json::Num(e.dur_ns as f64 / 1_000.0)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("trace".into(), Json::Arr(spans)),
    ])
    .to_string()
    .into_bytes()
}

/// Encode the `health` response from a supervisor snapshot. Always `ok:true` — an
/// unhealthy server still answers health, that is the point.
pub fn encode_health(h: &crate::supervise::HealthSnapshot) -> Vec<u8> {
    let mut body = vec![
        ("state".into(), Json::Str(h.state.name().into())),
        // every server is supervised; the field stays because clients read it
        ("supervised".into(), Json::Bool(true)),
        ("restarts".into(), Json::Num(h.restarts as f64)),
        ("quarantined".into(), Json::Num(h.quarantined as f64)),
        (
            "scrub".into(),
            Json::Obj(vec![
                ("slices".into(), Json::Num(h.scrub_slices as f64)),
                ("sweeps".into(), Json::Num(h.scrub_sweeps as f64)),
                ("corruptions".into(), Json::Num(h.scrub_corruptions as f64)),
                ("rebuilds".into(), Json::Num(h.scrub_rebuilds as f64)),
                ("progress".into(), Json::Num(h.scrub_progress)),
            ]),
        ),
        ("uptime_s".into(), Json::Num(h.uptime.as_secs_f64())),
    ];
    if let Some(reason) = &h.last_fault {
        body.push(("last_fault".into(), Json::Str(reason.clone())));
    }
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("health".into(), Json::Obj(body)),
    ])
    .to_string()
    .into_bytes()
}

/// Encode an error response. [`EcoError::Busy`] and [`EcoError::Recovering`] additionally
/// carry machine-readable `busy`/`recovering` + `retry_after_ms` fields so clients can
/// distinguish shed load (retry with back-off) from a rejection (don't);
/// [`EcoError::Poisoned`] carries `poisoned`/`seq` so callers can record which batch was
/// quarantined — a poisoned batch must never be retried.
pub fn encode_error(error: &EcoError) -> Vec<u8> {
    let mut fields = vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(error.to_string())),
    ];
    match error {
        EcoError::Busy { retry_after_ms } => {
            fields.push(("busy".into(), Json::Bool(true)));
            fields.push(("retry_after_ms".into(), Json::Num(*retry_after_ms as f64)));
        }
        EcoError::Recovering { retry_after_ms } => {
            fields.push(("recovering".into(), Json::Bool(true)));
            fields.push(("retry_after_ms".into(), Json::Num(*retry_after_ms as f64)));
        }
        EcoError::Poisoned { seq, .. } => {
            fields.push(("poisoned".into(), Json::Bool(true)));
            fields.push(("seq".into(), Json::Num(*seq as f64)));
        }
        _ => {}
    }
    Json::Obj(fields).to_string().into_bytes()
}

/// If `response` is a `Busy` shed (see [`encode_error`]), the suggested back-off in
/// milliseconds. The client retry loop keys off this.
pub fn busy_retry_after(response: &Json) -> Option<u64> {
    retry_after_marked(response, "busy")
}

/// If `response` is a `Recovering` shed (the supervisor is rebuilding the engine), the
/// suggested back-off in milliseconds. Absorbed by the client retry loop like `Busy`, but
/// counted separately.
pub fn recovering_retry_after(response: &Json) -> Option<u64> {
    retry_after_marked(response, "recovering")
}

fn retry_after_marked(response: &Json, marker: &str) -> Option<u64> {
    if response.get(marker).and_then(Json::as_bool) == Some(true) {
        Some(
            response
                .get("retry_after_ms")
                .and_then(Json::as_i64)
                .unwrap_or(1)
                .max(0) as u64,
        )
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"info\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&b"{\"op\":\"info\"}"[..])
        );
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut cursor).unwrap(), None); // clean EOF
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn requests_roundtrip_through_encode_decode() {
        let requests = [
            Request::Info,
            Request::Stats,
            Request::Metrics { prometheus: false },
            Request::Metrics { prometheus: true },
            Request::Trace { chrome: false },
            Request::Trace { chrome: true },
            Request::Health,
            Request::Shutdown,
            Request::Apply(vec![EcoDelta::MoveCell {
                id: CellId(7),
                gx: 12.5,
                gy: 3.0,
            }]),
            Request::Apply(vec![
                EcoDelta::InsertCell {
                    width: 4,
                    height: 2,
                    gx: 1.0,
                    gy: 2.0,
                },
                EcoDelta::ResizeCell {
                    id: CellId(3),
                    width: 6,
                    height: 1,
                },
                EcoDelta::RemoveCell { id: CellId(9) },
            ]),
        ];
        for request in requests {
            let encoded = encode_request(&request);
            let decoded = decode_request(&encoded).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn busy_responses_are_machine_detectable() {
        let bytes = encode_error(&EcoError::Busy { retry_after_ms: 5 });
        let json = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(busy_retry_after(&json), Some(5));

        let bytes = encode_error(&EcoError::Protocol("nope".into()));
        let json = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(busy_retry_after(&json), None);
    }

    #[test]
    fn recovering_and_poisoned_responses_are_machine_detectable() {
        let bytes = encode_error(&EcoError::Recovering { retry_after_ms: 9 });
        let json = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(recovering_retry_after(&json), Some(9));
        assert_eq!(busy_retry_after(&json), None, "recovering is not busy");

        let bytes = encode_error(&EcoError::Poisoned {
            seq: 17,
            reason: "panic: injected".into(),
        });
        let json = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(json.get("poisoned").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("seq").and_then(Json::as_i64), Some(17));
        // a poisoned batch must never look retryable to the client loop
        assert_eq!(busy_retry_after(&json), None);
        assert_eq!(recovering_retry_after(&json), None);
    }

    #[test]
    fn malformed_requests_fail_with_messages() {
        for bad in [
            &b"not json"[..],
            b"{}",
            b"{\"op\":\"warp\"}",
            b"{\"op\":\"move\",\"id\":-1,\"gx\":0,\"gy\":0}",
            b"{\"op\":\"batch\"}",
        ] {
            assert!(decode_request(bad).is_err());
        }
    }
}
