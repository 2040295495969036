//! Fixed-wall-time soak: the service under randomized (but seeded) fault injection.
//!
//! Several client threads stream move deltas through the retrying client while failpoints
//! randomly break server-side reads and shed requests as `Busy`. After the clock runs out
//! the suite asserts the service's long-haul invariants:
//!
//! - **exactly-once accounting**: every acknowledged apply is counted once in the engine's
//!   lifetime stats — no acked batch lost, no batch double-applied (the injected faults —
//!   pre-decode read failures and pre-enqueue sheds — strike before the engine sees the
//!   request, so a client retry never duplicates work);
//! - **no thread leaks**: after `join`, the process has exactly as many threads as before
//!   the server started;
//! - **clean shutdown**: the resident engine comes back legal, and the journal recovers
//!   bit-identically to the surviving engine.
//!
//! Wall time defaults to 3 seconds; set `FLEX_SOAK_SECS` to soak longer in CI.

use flex_eco::fault::{self, FaultRule};
use flex_eco::journal::{recover_engine, Journal, JournalConfig};
use flex_eco::proto::Request;
use flex_eco::service::{EcoClient, EcoServer, RetryPolicy, ServerConfig};
use flex_eco::{EcoDelta, EcoEngine};
use flex_mgl::config::MglConfig;
use flex_placement::benchmark::{generate, BenchmarkSpec};
use flex_placement::cell::CellId;
use flex_placement::snapshot::write_design;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// the fault registry is process-global: the two soak tests must not race on it
static FAULTS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULTS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn live_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

fn design_bytes(design: &flex_placement::layout::Design) -> Vec<u8> {
    let mut buf = Vec::new();
    write_design(&mut buf, design).unwrap();
    buf
}

#[test]
fn soak_under_fault_injection_keeps_exactly_once_stats_and_leaks_nothing() {
    let _g = lock();
    let soak = Duration::from_secs(
        std::env::var("FLEX_SOAK_SECS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(3),
    );

    // faults that strike BEFORE the engine sees a request (failed pre-decode reads, shed
    // enqueues) — a client retry after either is a true resend, not a duplicate; seeded,
    // so a failing soak reproduces
    fault::reset();
    fault::seed(0xB10C);
    fault::configure("eco.socket.read", FaultRule::Prob(1311)); // p ≈ 0.02
    fault::configure("eco.queue.full", FaultRule::Prob(1311));

    let design = generate(&BenchmarkSpec::tiny("eco-soak", 77));
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

    let dir = std::env::temp_dir().join(format!("flex-eco-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut journal_cfg = JournalConfig::new(&dir);
    journal_cfg.snapshot_every = 128;
    let journal = Journal::create(journal_cfg, engine.design(), engine.stats(), 0).unwrap();

    let threads_before = live_threads();
    let socket = std::env::temp_dir().join(format!("flex-eco-soak-{}.sock", std::process::id()));
    let handle = EcoServer::start_with(
        engine,
        &socket,
        ServerConfig {
            journal: Some(journal),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    const CLIENTS: usize = 4;
    let deadline = Instant::now() + soak;
    let mut workers = Vec::new();
    for w in 0..CLIENTS {
        let socket = socket.clone();
        let movable = movable.clone();
        workers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(w as u64 + 0x50AC);
            let mut client = EcoClient::connect(&socket)
                .expect("connect")
                .with_retry_policy(RetryPolicy {
                    max_retries: 8,
                    base_delay: Duration::from_millis(1),
                    max_delay: Duration::from_millis(50),
                    seed: w as u64,
                });
            let (mut acked, mut rejected) = (0u64, 0u64);
            while Instant::now() < deadline {
                let delta = EcoDelta::MoveCell {
                    id: movable[rng.next_below(movable.len() as u64) as usize],
                    gx: rng.random::<f64>() * sites as f64,
                    gy: rng.random::<f64>() * rows as f64,
                };
                match client.request_json_retry(&Request::Apply(vec![delta])) {
                    Ok(Ok(_)) => acked += 1,
                    // still-busy-after-retries: the request was shed every time, never
                    // applied — count it out and press on
                    Ok(Err(_)) => rejected += 1,
                    Err(e) => panic!("client {w} hit a fatal transport error: {e}"),
                }
            }
            (
                acked,
                rejected,
                client.retries_performed(),
                client.busy_shed_seen(),
            )
        }));
    }

    let mut total_acked = 0u64;
    let mut total_retries = 0u64;
    let mut total_busy = 0u64;
    for worker in workers {
        let (acked, _rejected, retries, busy) = worker.join().expect("soak client panicked");
        total_acked += acked;
        total_retries += retries;
        total_busy += busy;
    }
    assert!(total_acked > 0, "the soak must make forward progress");

    // disarm before the shutdown handshake so wind-down itself is not injected
    fault::reset();
    let mut client = EcoClient::connect(&socket).unwrap();
    client.request(&Request::Shutdown).unwrap();
    let engine = handle.join();

    // clean shutdown: engine legal, every acknowledged batch counted exactly once
    assert!(engine.check_legal());
    assert_eq!(
        engine.stats().batches,
        total_acked,
        "acked applies and engine lifetime stats must agree exactly \
         ({total_retries} retries, {total_busy} busy sheds absorbed during the soak)"
    );

    // no thread leaks: every client loop, the accept loop and the engine thread are gone
    let wind_down = Instant::now() + Duration::from_secs(5);
    loop {
        if live_threads() <= threads_before {
            break;
        }
        assert!(
            Instant::now() < wind_down,
            "server threads leaked past join"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!socket.exists());

    // the journal's view of history equals the surviving engine, bit for bit
    let (recovered, journal, report) =
        recover_engine(JournalConfig::new(&dir), MglConfig::default())
            .unwrap()
            .expect("soak journal must recover");
    assert_eq!(journal.seq(), total_acked);
    assert_eq!(
        report.replayed, 0,
        "the shutdown snapshot makes recovery instant"
    );
    assert_eq!(
        design_bytes(recovered.design()),
        design_bytes(engine.design())
    );
    assert_eq!(recovered.stats(), engine.stats());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Panic-storm soak: random engine panics under concurrent retrying clients. The
/// supervision layer must keep the server up for the whole run; every panic becomes
/// exactly one quarantined batch (typed `Poisoned` reply + persisted record), every
/// non-quarantined ack is applied exactly once, and nothing leaks.
#[test]
fn soak_under_random_engine_panics_survives_and_quarantines_each_one() {
    let _g = lock();
    let soak = Duration::from_secs(
        std::env::var("FLEX_SOAK_SECS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(3),
    );

    // the panic strikes INSIDE the engine, mid-batch — the supervision layer (not the
    // retry loop) is what keeps this survivable; p ≈ 0.005 per delta, seeded
    fault::reset();
    fault::seed(0xDEAD);
    fault::configure("eco.engine.panic", FaultRule::Prob(328));

    let design = generate(&BenchmarkSpec::tiny("eco-storm", 99));
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

    let dir = std::env::temp_dir().join(format!("flex-eco-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut journal_cfg = JournalConfig::new(&dir);
    journal_cfg.snapshot_every = 128;
    let journal = Journal::create(journal_cfg, engine.design(), engine.stats(), 0).unwrap();

    let threads_before = live_threads();
    let socket = std::env::temp_dir().join(format!("flex-eco-storm-{}.sock", std::process::id()));
    let handle = EcoServer::start_with(
        engine,
        &socket,
        ServerConfig {
            journal: Some(journal),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    const CLIENTS: usize = 4;
    let deadline = Instant::now() + soak;
    let mut workers = Vec::new();
    for w in 0..CLIENTS {
        let socket = socket.clone();
        let movable = movable.clone();
        workers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(w as u64 + 0x570B);
            let mut client = EcoClient::connect(&socket)
                .expect("connect")
                .with_retry_policy(RetryPolicy {
                    max_retries: 8,
                    base_delay: Duration::from_millis(1),
                    max_delay: Duration::from_millis(50),
                    seed: w as u64,
                });
            let (mut acked, mut poisoned, mut other_rejected) = (0u64, 0u64, 0u64);
            while Instant::now() < deadline {
                let delta = EcoDelta::MoveCell {
                    id: movable[rng.next_below(movable.len() as u64) as usize],
                    gx: rng.random::<f64>() * sites as f64,
                    gy: rng.random::<f64>() * rows as f64,
                };
                match client.request_json_retry(&Request::Apply(vec![delta])) {
                    Ok(Ok(_)) => acked += 1,
                    // a poisoned batch is a terminal, typed rejection — never retried
                    Ok(Err(msg)) if msg.contains("quarantined") => poisoned += 1,
                    Ok(Err(_)) => other_rejected += 1,
                    Err(e) => panic!("client {w} hit a fatal transport error: {e}"),
                }
            }
            (acked, poisoned, other_rejected, client.recovering_seen())
        }));
    }

    let mut total_acked = 0u64;
    let mut total_poisoned = 0u64;
    let mut total_recovering = 0u64;
    for worker in workers {
        let (acked, poisoned, other_rejected, recovering) =
            worker.join().expect("storm client panicked");
        total_acked += acked;
        total_poisoned += poisoned;
        total_recovering += recovering;
        assert_eq!(other_rejected, 0, "only Poisoned rejections are expected");
    }
    assert!(total_acked > 0, "the storm must make forward progress");
    let injected = fault::fired_count("eco.engine.panic");
    assert!(
        injected > 0,
        "a 3s soak at p≈0.005/delta must panic at least once"
    );
    assert_eq!(
        total_poisoned, injected,
        "every injected panic must surface as exactly one typed Poisoned reply"
    );

    // disarm before the shutdown handshake so wind-down itself is not injected
    fault::reset();
    let mut client = EcoClient::connect(&socket).unwrap();
    client.request(&Request::Shutdown).unwrap();
    let engine = handle.join();

    // THE headline: the server outlived every panic, and the engine counts exactly the
    // acked batches — quarantined batches were never applied, acked ones exactly once
    assert!(engine.check_legal());
    assert_eq!(
        engine.stats().batches,
        total_acked,
        "exactly-once: engine lifetime stats must equal acked applies \
         ({injected} panics injected, {total_recovering} recovering sheds absorbed)"
    );

    // one persisted quarantine record per injected panic
    let quarantined = flex_eco::journal::load_quarantine(&dir);
    assert_eq!(quarantined.len() as u64, injected);

    // no thread leaks: panicked workers are reaped, rebuilt ones wound down
    let wind_down = Instant::now() + Duration::from_secs(5);
    loop {
        if live_threads() <= threads_before {
            break;
        }
        assert!(
            Instant::now() < wind_down,
            "server threads leaked past join"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!socket.exists());

    // recovery honors the quarantine: bit-identical to the surviving engine
    let (recovered, journal, _report) =
        recover_engine(JournalConfig::new(&dir), MglConfig::default())
            .unwrap()
            .expect("storm journal must recover");
    assert_eq!(
        journal.seq(),
        total_acked + total_poisoned,
        "poisoned batches are journaled (journal-before-apply) and then skipped"
    );
    assert_eq!(
        design_bytes(recovered.design()),
        design_bytes(engine.design())
    );
    assert_eq!(recovered.stats(), engine.stats());

    let _ = std::fs::remove_dir_all(&dir);
}
