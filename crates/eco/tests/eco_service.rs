//! End-to-end service test: a resident engine behind a Unix socket, several concurrent
//! clients streaming deltas, a clean shutdown handing the engine back for inspection.

use flex_eco::json::Json;
use flex_eco::proto::Request;
use flex_eco::service::{EcoClient, EcoServer};
use flex_eco::{EcoDelta, EcoEngine};
use flex_mgl::config::MglConfig;
use flex_placement::benchmark::{generate, BenchmarkSpec};
use flex_placement::cell::CellId;
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn temp_socket(tag: &str) -> std::path::PathBuf {
    let pid = std::process::id();
    std::env::temp_dir().join(format!("flex-eco-test-{tag}-{pid}.sock"))
}

#[test]
fn concurrent_clients_share_one_resident_engine() {
    let design = generate(&BenchmarkSpec::tiny("eco-svc", 11));
    let engine = EcoEngine::legalize_and_build(design, MglConfig::default()).unwrap();
    let sites = engine.design().num_sites_x;
    let rows = engine.design().num_rows;
    let movable: Vec<CellId> = engine
        .design()
        .cells
        .iter()
        .filter(|c| !c.fixed)
        .map(|c| c.id)
        .collect();

    let socket = temp_socket("concurrent");
    let handle = EcoServer::start(engine, &socket, 64).unwrap();

    const CLIENTS: usize = 4;
    const DELTAS_PER_CLIENT: usize = 250;
    let mut workers = Vec::new();
    for w in 0..CLIENTS {
        let socket = socket.clone();
        let movable = movable.clone();
        workers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(w as u64 + 1);
            let mut client = EcoClient::connect(&socket).expect("connect");
            let mut accepted = 0usize;
            for _ in 0..DELTAS_PER_CLIENT {
                // moves only: always valid, so every client request must succeed
                let id = movable[rng.next_below(movable.len() as u64) as usize];
                let delta = EcoDelta::MoveCell {
                    id,
                    gx: rng.random::<f64>() * sites as f64,
                    gy: rng.random::<f64>() * rows as f64,
                };
                let reply = client
                    .request_json(&Request::Apply(vec![delta]))
                    .expect("apply io");
                match reply {
                    Ok(json) => {
                        assert_eq!(
                            json.get("report")
                                .and_then(|r| r.get("failed"))
                                .and_then(Json::as_i64),
                            Some(0)
                        );
                        accepted += 1;
                    }
                    Err(msg) => panic!("move delta rejected: {msg}"),
                }
            }
            accepted
        }));
    }
    let accepted: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(accepted, CLIENTS * DELTAS_PER_CLIENT);

    // the stats op sees every delta exactly once across all clients
    let mut client = EcoClient::connect(&socket).unwrap();
    let reply = client.request_json(&Request::Stats).unwrap().unwrap();
    let stats = reply.get("stats").expect("stats body");
    assert_eq!(
        stats.get("applied_move").and_then(Json::as_i64),
        Some((CLIENTS * DELTAS_PER_CLIENT) as i64)
    );
    assert_eq!(stats.get("index_rebuilds").and_then(Json::as_i64), Some(0));
    assert_eq!(
        stats.get("density_rebuilds").and_then(Json::as_i64),
        Some(0)
    );

    // info reflects a live, legal resident design
    let reply = client.request_json(&Request::Info).unwrap().unwrap();
    let info = reply.get("info").expect("info body");
    assert_eq!(info.get("legal").and_then(Json::as_bool), Some(true));

    // shutdown is acknowledged, then join() hands the engine back, still legal
    client.request(&Request::Shutdown).unwrap();
    let engine = handle.join();
    assert!(!socket.exists(), "socket file must be removed on shutdown");
    assert!(engine.check_legal());
    assert_eq!(
        engine.stats().total_applied(),
        (CLIENTS * DELTAS_PER_CLIENT) as u64
    );
}

#[test]
fn metrics_and_trace_ops_expose_the_live_engine() {
    // spans default off in test binaries; the trace op needs them on
    flex_obs::set_enabled(true);

    let design = generate(&BenchmarkSpec::tiny("eco-svc-obs", 31));
    let engine = EcoEngine::legalize_and_build(design, MglConfig::default()).unwrap();
    let sites = engine.design().num_sites_x;
    let rows = engine.design().num_rows;
    let movable: Vec<CellId> = engine
        .design()
        .cells
        .iter()
        .filter(|c| !c.fixed)
        .map(|c| c.id)
        .collect();

    let socket = temp_socket("obs");
    let handle = EcoServer::start(engine, &socket, 8).unwrap();
    let mut client = EcoClient::connect(&socket).unwrap();

    const MOVES: usize = 20;
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..MOVES {
        let id = movable[rng.next_below(movable.len() as u64) as usize];
        let delta = EcoDelta::MoveCell {
            id,
            gx: rng.random::<f64>() * sites as f64,
            gy: rng.random::<f64>() * rows as f64,
        };
        client
            .request_json(&Request::Apply(vec![delta]))
            .unwrap()
            .expect("move accepted");
    }

    // metrics (JSON): lifetime counters and the per-kind apply-latency histograms
    let reply = client
        .request_json(&Request::Metrics { prometheus: false })
        .unwrap()
        .unwrap();
    let metrics = reply.get("metrics").expect("metrics body");
    assert_eq!(
        metrics
            .get("counters")
            .and_then(|c| c.get("eco_batches_total"))
            .and_then(Json::as_i64),
        Some(MOVES as i64)
    );
    assert_eq!(
        metrics
            .get("counters")
            .and_then(|c| c.get("eco_applied_total{kind=\"move\"}"))
            .and_then(Json::as_i64),
        Some(MOVES as i64)
    );
    let move_latency = metrics
        .get("histograms")
        .and_then(|h| h.get("eco_apply_latency_ns{kind=\"move\"}"))
        .expect("per-kind latency histogram");
    assert_eq!(
        move_latency.get("count").and_then(Json::as_i64),
        Some(MOVES as i64)
    );
    assert!(move_latency.get("p99").and_then(Json::as_i64).unwrap_or(0) > 0);

    // metrics (Prometheus text): same data in the exposition format
    let reply = client
        .request_json(&Request::Metrics { prometheus: true })
        .unwrap()
        .unwrap();
    let text = reply
        .get("text")
        .and_then(Json::as_str)
        .expect("prometheus text");
    assert!(
        text.contains("# TYPE eco_apply_latency_ns histogram"),
        "{text}"
    );
    assert!(text.contains("eco_batches_total 20"), "{text}");
    assert!(text.contains("le=\"+Inf\""), "{text}");

    // trace (plain): the engine thread recorded one apply span per batch
    let reply = client
        .request_json(&Request::Trace { chrome: false })
        .unwrap()
        .unwrap();
    let spans = reply.get("trace").and_then(Json::as_arr).expect("spans");
    let applies = spans
        .iter()
        .filter(|s| s.get("name").and_then(Json::as_str) == Some("eco.apply_batch"))
        .count();
    assert!(
        applies >= MOVES,
        "expected ≥{MOVES} apply spans, got {applies}"
    );

    // trace (chrome): a loadable trace-event document
    let reply = client
        .request_json(&Request::Trace { chrome: true })
        .unwrap()
        .unwrap();
    // the embedded document is the trace-event "JSON array format": a bare event list
    let events = reply
        .get("trace")
        .and_then(Json::as_arr)
        .expect("trace events");
    assert!(events.iter().any(|e| {
        e.get("name").and_then(Json::as_str) == Some("eco.apply_batch")
            && e.get("ph").and_then(Json::as_str) == Some("X")
    }));

    // stats carries uptime and the per-kind failure counters
    let reply = client.request_json(&Request::Stats).unwrap().unwrap();
    let stats = reply.get("stats").expect("stats body");
    assert!(stats.get("uptime_s").and_then(Json::as_f64).unwrap_or(-1.0) >= 0.0);
    assert_eq!(stats.get("failed_move").and_then(Json::as_i64), Some(0));

    client.request(&Request::Shutdown).unwrap();
    handle.join();
}

#[test]
fn metrics_break_the_service_overhead_into_queue_wait_and_scrub_audit() {
    let design = generate(&BenchmarkSpec::tiny("eco-svc-phases", 37));
    let engine = EcoEngine::legalize_and_build(design, MglConfig::default()).unwrap();
    let sites = engine.design().num_sites_x;
    let rows = engine.design().num_rows;
    let movable: Vec<CellId> = engine
        .design()
        .cells
        .iter()
        .filter(|c| !c.fixed)
        .map(|c| c.id)
        .collect();

    let socket = temp_socket("phases");
    let handle = EcoServer::start(engine, &socket, 8).unwrap();
    let mut client = EcoClient::connect(&socket).unwrap();

    const APPLIES: i64 = 25;
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..APPLIES {
        let id = movable[rng.next_below(movable.len() as u64) as usize];
        let delta = EcoDelta::MoveCell {
            id,
            gx: rng.random::<f64>() * sites as f64,
            gy: rng.random::<f64>() * rows as f64,
        };
        client
            .request_json(&Request::Apply(vec![delta]))
            .unwrap()
            .expect("move accepted");
    }

    // every apply waited in the queue once and was followed by one scrub hand-off,
    // which finishes before the supervisor dequeues the next job (this query)
    let reply = client
        .request_json(&Request::Metrics { prometheus: false })
        .unwrap()
        .unwrap();
    let histograms = reply
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .expect("histograms");
    for name in ["eco_queue_wait_ns", "eco_scrub_audit_ns"] {
        let count = histograms
            .get(name)
            .and_then(|h| h.get("count"))
            .and_then(Json::as_i64)
            .unwrap_or(0);
        assert!(
            count >= APPLIES,
            "{name}: {count} samples after {APPLIES} applies"
        );
    }

    let reply = client
        .request_json(&Request::Metrics { prometheus: true })
        .unwrap()
        .unwrap();
    let text = reply
        .get("text")
        .and_then(Json::as_str)
        .expect("prometheus text");
    for name in ["eco_queue_wait_ns", "eco_scrub_audit_ns"] {
        assert!(text.contains(&format!("# TYPE {name} histogram")), "{text}");
    }

    client.request(&Request::Shutdown).unwrap();
    handle.join();
}

#[test]
fn malformed_and_invalid_requests_get_typed_errors() {
    let design = generate(&BenchmarkSpec::tiny("eco-svc-err", 23));
    let engine = EcoEngine::legalize_and_build(design, MglConfig::default()).unwrap();
    let num_cells = engine.design().cells.len() as u32;

    let socket = temp_socket("errors");
    let handle = EcoServer::start(engine, &socket, 8).unwrap();
    let mut client = EcoClient::connect(&socket).unwrap();

    // malformed JSON never reaches the engine; the connection survives
    use std::io::Write;
    let mut raw = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    let garbage = b"{\"op\":";
    raw.write_all(&(garbage.len() as u32).to_be_bytes())
        .unwrap();
    raw.write_all(garbage).unwrap();
    raw.flush().unwrap();
    let mut reader = raw.try_clone().unwrap();
    let reply = flex_eco::proto::read_frame(&mut reader).unwrap().unwrap();
    let json = Json::parse(&String::from_utf8_lossy(&reply)).unwrap();
    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));

    // a validation error comes back typed, and the engine state is untouched
    let reply = client
        .request_json(&Request::Apply(vec![EcoDelta::MoveCell {
            id: CellId(num_cells + 99),
            gx: 0.0,
            gy: 0.0,
        }]))
        .unwrap();
    let msg = reply.expect_err("unknown cell must be rejected");
    assert!(msg.contains("unknown cell"), "{msg}");

    let reply = client.request_json(&Request::Stats).unwrap().unwrap();
    let stats = reply.get("stats").expect("stats body");
    assert_eq!(stats.get("batches").and_then(Json::as_i64), Some(0));

    client.request(&Request::Shutdown).unwrap();
    let engine = handle.join();
    assert!(engine.check_legal());
}

#[test]
fn idle_connections_hit_the_deadline_and_are_disconnected() {
    use flex_eco::service::ServerConfig;
    use std::io::Read;
    use std::time::{Duration, Instant};

    let design = generate(&BenchmarkSpec::tiny("eco-svc-idle", 41));
    let engine = EcoEngine::legalize_and_build(design, MglConfig::default()).unwrap();
    let movable = engine.design().cells.iter().find(|c| !c.fixed).unwrap().id;

    let socket = temp_socket("idle");
    let handle = EcoServer::start_with(
        engine,
        &socket,
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // a slow client: connects, then sends nothing — the server must hang up on it
    // rather than pin its reader thread forever
    let mut idle = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    let start = Instant::now();
    let mut buf = [0u8; 1];
    let n = idle.read(&mut buf).expect("EOF, not an error");
    assert_eq!(n, 0, "the server must close the idle connection");
    let waited = start.elapsed();
    assert!(
        waited >= Duration::from_millis(100),
        "disconnected suspiciously early ({waited:?})"
    );
    assert!(
        waited < Duration::from_secs(10),
        "idle deadline did not fire ({waited:?})"
    );

    // the server is unharmed: a live client still gets work done afterwards
    let mut client = EcoClient::connect(&socket).unwrap();
    client
        .request_json(&Request::Apply(vec![EcoDelta::MoveCell {
            id: movable,
            gx: 1.0,
            gy: 1.0,
        }]))
        .unwrap()
        .expect("the engine must still be serving");

    client.request(&Request::Shutdown).unwrap();
    let engine = handle.join();
    assert!(engine.check_legal());
    assert_eq!(engine.stats().batches, 1);
}

#[test]
fn journal_less_server_keeps_a_private_journal_only_while_it_runs() {
    use flex_eco::journal::{load_quarantine, Journal, JournalConfig};

    let design = generate(&BenchmarkSpec::tiny("eco-svc-private", 43));
    let engine = EcoEngine::legalize_and_build(design, MglConfig::default()).unwrap();
    let movable = engine.design().cells.iter().find(|c| !c.fixed).unwrap().id;
    let socket = temp_socket("private");
    let private = std::path::PathBuf::from(format!("{}.journal", socket.display()));

    // a killed server's leftovers: a journal of another design with batch 1 quarantined
    let _ = std::fs::remove_dir_all(&private);
    let other = generate(&BenchmarkSpec::tiny("eco-svc-stale", 44));
    let other = EcoEngine::legalize_and_build(other, MglConfig::default()).unwrap();
    let mut stale = Journal::create(
        JournalConfig::new(&private),
        other.design(),
        other.stats(),
        0,
    )
    .unwrap();
    stale.quarantine(1, "stale").unwrap();
    drop(stale);

    let handle = EcoServer::start(engine, &socket, 8).unwrap();
    assert!(private.is_dir(), "the private journal exists while serving");
    assert!(
        load_quarantine(&private).is_empty(),
        "the stale journal is cleared at start, not recovered from"
    );
    let mut client = EcoClient::connect(&socket).unwrap();
    let health = client.request_json(&Request::Health).unwrap().unwrap();
    let health = health.get("health").expect("health body");
    assert_eq!(health.get("state").and_then(Json::as_str), Some("healthy"));
    assert_eq!(health.get("quarantined").and_then(Json::as_i64), Some(0));
    client
        .request_json(&Request::Apply(vec![EcoDelta::MoveCell {
            id: movable,
            gx: 2.0,
            gy: 1.0,
        }]))
        .unwrap()
        .unwrap();
    assert!(private.is_dir());

    client.request(&Request::Shutdown).unwrap();
    let engine = handle.join();
    assert_eq!(engine.stats().batches, 1);
    assert!(!private.exists(), "join removes the private journal");
    assert!(!socket.exists());
}
