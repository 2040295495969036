//! The fault matrix, driven by deterministic failpoints: each row of the service's
//! failure contract is forced on schedule and its promised behavior asserted end-to-end.
//!
//! | injected fault               | promised behavior                                      |
//! |------------------------------|--------------------------------------------------------|
//! | journal append fails         | typed `journal error` response, engine untouched       |
//! | engine cannot be rebuilt at  | clean wind-down: `join` re-raises, no thread deadlock, |
//! | shutdown                     | socket file and private journal removed                |
//! | job queue full               | typed `Busy` + retry-after; client retry succeeds      |
//!
//! The failpoint registry is process-global, so every test here serializes on one mutex
//! and resets the registry on entry and exit.

use flex_eco::fault::{self, FaultRule};
use flex_eco::journal::{recover_engine, Journal, JournalConfig};
use flex_eco::proto::Request;
use flex_eco::service::{EcoClient, EcoServer, RetryPolicy, ServerConfig};
use flex_eco::{EcoDelta, EcoEngine};
use flex_mgl::config::MglConfig;
use flex_placement::benchmark::{generate, BenchmarkSpec};
use flex_placement::cell::CellId;
use flex_placement::snapshot::write_design;
use std::sync::Mutex;
use std::time::Duration;

// the fault registry is process-global: one test reconfiguring it must not race another
static FAULTS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // a panicking test (the wind-down row panics on purpose, in a server thread, not
    // here) must not wedge the rest of the suite
    FAULTS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_socket(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("flex-eco-fault-{tag}-{}.sock", std::process::id()))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flex-eco-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn warm_engine(tag: &str, seed: u64) -> EcoEngine {
    let design = generate(&BenchmarkSpec::tiny(tag, seed));
    EcoEngine::legalize_and_build(design, MglConfig::default()).unwrap()
}

fn design_bytes(design: &flex_placement::layout::Design) -> Vec<u8> {
    let mut buf = Vec::new();
    write_design(&mut buf, design).unwrap();
    buf
}

fn move_of(engine: &EcoEngine, step: u64) -> EcoDelta {
    let movable: Vec<CellId> = engine
        .design()
        .cells
        .iter()
        .filter(|c| !c.fixed)
        .map(|c| c.id)
        .collect();
    EcoDelta::MoveCell {
        id: movable[step as usize % movable.len()],
        gx: (step * 7 % engine.design().num_sites_x as u64) as f64,
        gy: (step * 3 % engine.design().num_rows as u64) as f64,
    }
}

#[test]
fn journal_write_failure_is_a_typed_error_and_the_engine_stays_untouched() {
    let _g = lock();
    fault::reset();
    fault::configure("eco.journal.write", FaultRule::Nth(3));

    let engine = warm_engine("jfail", 5);
    let deltas: Vec<EcoDelta> = (0..5).map(|i| move_of(&engine, i)).collect();
    let dir = temp_dir("jfail");
    let journal =
        Journal::create(JournalConfig::new(&dir), engine.design(), engine.stats(), 0).unwrap();

    let socket = temp_socket("jfail");
    let handle = EcoServer::start_with(
        engine,
        &socket,
        ServerConfig {
            journal: Some(journal),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut client = EcoClient::connect(&socket).unwrap();
    for (i, delta) in deltas.iter().enumerate() {
        let reply = client
            .request_json(&Request::Apply(vec![delta.clone()]))
            .expect("transport must survive a journal fault");
        if i == 2 {
            // the third append hits the failpoint: typed error, nothing applied
            let msg = reply.expect_err("the faulted batch must be rejected");
            assert!(msg.contains("journal error"), "got: {msg}");
        } else {
            reply.unwrap_or_else(|m| panic!("batch {i} rejected: {m}"));
        }
    }
    assert_eq!(fault::fired_count("eco.journal.write"), 1);

    client.request(&Request::Shutdown).unwrap();
    let engine = handle.join();
    assert!(engine.check_legal());
    // the faulted batch was never applied: 4 of 5 landed
    assert_eq!(engine.stats().batches, 4);

    // recovery sees exactly the durable history — the state the server wound down with
    fault::reset();
    let (recovered, journal, _report) =
        recover_engine(JournalConfig::new(&dir), MglConfig::default())
            .unwrap()
            .expect("journal directory must recover");
    assert_eq!(journal.seq(), 4);
    assert_eq!(
        design_bytes(recovered.design()),
        design_bytes(engine.design())
    );
    assert_eq!(recovered.stats(), engine.stats());

    let _ = std::fs::remove_dir_all(&dir);
}

/// The wind-down guarantee: the supervisor thread itself can still panic — here because
/// the engine it must hand back at shutdown cannot be rebuilt — and the server must still
/// wind down. `join` returns promptly, re-raises the panic, and leaves neither the socket
/// file nor the private journal behind.
#[test]
fn unrecoverable_engine_at_shutdown_winds_down_and_join_reraises_the_panic() {
    let _g = lock();
    fault::reset();
    // the first batch panics the engine and every rebuild fails, so the engine stays
    // down; `shutdown` then makes the supervisor's `take_engine` panic
    fault::configure("eco.engine.panic", FaultRule::Nth(1));
    fault::configure("eco.recover.fail", FaultRule::Always);

    let engine = warm_engine("unrecoverable", 17);
    let delta = move_of(&engine, 0);
    let socket = temp_socket("unrecoverable");
    let private_journal = std::path::PathBuf::from(format!("{}.journal", socket.display()));
    let handle = EcoServer::start_with(engine, &socket, ServerConfig::default()).unwrap();
    assert!(
        private_journal.is_dir(),
        "a journal-less server journals privately"
    );

    let mut client = EcoClient::connect(&socket).unwrap();
    let msg = client
        .request_json(&Request::Apply(vec![delta]))
        .unwrap()
        .expect_err("the panicking batch must be quarantined");
    assert!(msg.contains("quarantined"), "got: {msg}");
    // the supervisor dies before it can acknowledge: the connection drops, never hangs
    client
        .request(&Request::Shutdown)
        .expect_err("a dead supervisor cannot acknowledge");

    let start = std::time::Instant::now();
    let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.join()));
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "join must not wait on a dead supervisor"
    );
    let panic = joined.expect_err("join must re-raise the supervisor panic");
    let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(message.contains("unrecoverable"), "got: {message}");
    assert!(
        !socket.exists(),
        "socket file must be removed even on panic"
    );
    assert!(
        !private_journal.exists(),
        "private journal must be removed even on panic"
    );
    fault::reset();
}

#[test]
fn queue_full_sheds_busy_and_the_client_retry_absorbs_it() {
    let _g = lock();
    fault::reset();
    // force the shed path on the first decoded request
    fault::configure("eco.queue.full", FaultRule::Nth(1));

    let engine = warm_engine("qfull", 23);
    let delta = move_of(&engine, 1);
    let socket = temp_socket("qfull");
    let handle = EcoServer::start_with(engine, &socket, ServerConfig::default()).unwrap();

    let mut client = EcoClient::connect(&socket)
        .unwrap()
        .with_retry_policy(RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(1),
            ..RetryPolicy::default()
        });
    let reply = client
        .request_json_retry(&Request::Apply(vec![delta]))
        .expect("transport ok")
        .expect("retry must absorb the shed");
    assert!(reply.get("report").is_some());
    assert_eq!(client.busy_shed_seen(), 1, "exactly one Busy absorbed");
    assert_eq!(client.retries_performed(), 1);
    assert_eq!(fault::fired_count("eco.queue.full"), 1);

    // without retries, the shed surfaces as a typed, machine-detectable rejection
    fault::configure("eco.queue.full", FaultRule::Nth(1));
    let msg = client
        .request_json(&Request::Apply(vec![move_of_stub()]))
        .unwrap()
        .expect_err("single-attempt request must surface Busy");
    assert!(msg.contains("busy"), "got: {msg}");

    fault::reset();
    client.request(&Request::Shutdown).unwrap();
    let engine = handle.join();
    assert!(engine.check_legal());
    assert_eq!(engine.stats().batches, 1, "the shed batch ran exactly once");
}

/// A delta for the Busy-surface probe: target cell 0's current spot, content irrelevant —
/// the request is shed before the engine ever sees it.
fn move_of_stub() -> EcoDelta {
    EcoDelta::MoveCell {
        id: CellId(0),
        gx: 1.0,
        gy: 1.0,
    }
}
