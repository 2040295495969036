//! The supervised fault matrix: every self-healing promise of the supervision layer
//! (`flex_eco::supervise`) forced on a deterministic schedule and asserted end-to-end.
//!
//! | injected fault                  | promised behavior                                   |
//! |---------------------------------|-----------------------------------------------------|
//! | engine panics mid-batch         | server survives; typed `Poisoned {seq}` reply; the  |
//! |                                 | batch is quarantined (persisted, replay skips it);  |
//! |                                 | post-recovery engine is bit-identical to one that   |
//! |                                 | rejected the batch up front                         |
//! | engine hangs past the watchdog  | same: quarantine + rebuild, worker abandoned        |
//! | panic on a journal-less server  | same, rebuilt from its private journal              |
//! | structure corruption injected   | scrubber detects it, rebuilds only that structure,  |
//! |                                 | health degrades; post-shutdown audit is clean       |
//! | rebuild window held open        | applies shed with typed `Recovering`; the client    |
//! |                                 | retry loop absorbs them (counted separately)        |
//! | `health` op                     | machine-readable state machine + counters           |
//! | panic mid-fsync-group           | journaled-but-undispatched members are answered     |
//! |                                 | from the rebuild's replay, never applied twice      |
//! | recovery itself fails           | journal config retained; the idle-tick retry heals  |
//! |                                 | the server instead of livelocking in `Recovering`   |
//! | quarantine persist fails        | the in-memory quarantine still shields the rebuild  |
//! |                                 | replay; the client ack stays honest                 |
//!
//! The failpoint registry is process-global, so every test serializes on one mutex and
//! resets the registry on entry.

use flex_eco::fault::{self, FaultRule};
use flex_eco::journal::{recover_engine, Journal, JournalConfig};
use flex_eco::json::Json;
use flex_eco::proto::Request;
use flex_eco::service::{EcoClient, EcoServer, RetryPolicy, ServerConfig};
use flex_eco::supervise::SuperviseConfig;
use flex_eco::{EcoDelta, EcoEngine};
use flex_mgl::config::MglConfig;
use flex_placement::benchmark::{generate, BenchmarkSpec};
use flex_placement::cell::CellId;
use flex_placement::snapshot::write_design;
use std::sync::Mutex;
use std::time::Duration;

static FAULTS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULTS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_socket(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("flex-eco-sup-{tag}-{}.sock", std::process::id()))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flex-eco-sup-{tag}-{}", std::process::id()));
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

fn retrying(client: EcoClient) -> EcoClient {
    client.with_retry_policy(RetryPolicy {
        max_retries: 40,
        base_delay: Duration::from_millis(2),
        ..RetryPolicy::default()
    })
}

/// An engine that *rejected* the quarantined batches up front: the same warm engine fed
/// every delta except the poisoned indices. The supervised server's post-recovery engine
/// must be bit-identical to this.
fn reference_engine(tag: &str, seed: u64, deltas: &[EcoDelta], skip: &[usize]) -> EcoEngine {
    let mut engine = warm_engine(tag, seed);
    for (i, delta) in deltas.iter().enumerate() {
        if skip.contains(&i) {
            continue;
        }
        engine.apply(std::slice::from_ref(delta)).unwrap();
    }
    engine
}

fn health_of(client: &mut EcoClient) -> Json {
    let payload = client.request(&Request::Health).unwrap();
    let json = Json::parse(&String::from_utf8_lossy(&payload)).unwrap();
    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
    json.get("health").cloned().expect("health body")
}

#[test]
fn engine_panic_mid_batch_is_quarantined_and_the_server_self_heals() {
    let _g = lock();
    fault::reset();
    // panic inside the 3rd delta the engine processes (1-delta batches => 3rd batch)
    fault::configure("eco.engine.panic", FaultRule::Nth(3));

    let engine = warm_engine("sup-panic", 11);
    let deltas: Vec<EcoDelta> = (0..6).map(|i| move_of(&engine, i)).collect();
    let dir = temp_dir("sup-panic");
    let journal =
        Journal::create(JournalConfig::new(&dir), engine.design(), engine.stats(), 0).unwrap();

    let socket = temp_socket("sup-panic");
    let handle = EcoServer::start_with(
        engine,
        &socket,
        ServerConfig {
            journal: Some(journal),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut client = retrying(EcoClient::connect(&socket).unwrap());
    for (i, delta) in deltas.iter().enumerate() {
        if i == 2 {
            // the poisoned batch: the reply must be typed and machine-detectable —
            // `poisoned: true` plus the quarantined journal seq — on the SAME connection
            let payload = client
                .request(&Request::Apply(vec![delta.clone()]))
                .unwrap();
            let json = Json::parse(&String::from_utf8_lossy(&payload)).unwrap();
            assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(json.get("poisoned").and_then(Json::as_bool), Some(true));
            assert_eq!(json.get("seq").and_then(Json::as_i64), Some(3));
        } else {
            // neighbors must keep succeeding; a `Recovering` shed right after the
            // quarantine is absorbed by the retry loop
            client
                .request_json_retry(&Request::Apply(vec![delta.clone()]))
                .unwrap()
                .unwrap_or_else(|m| panic!("batch {i} rejected: {m}"));
        }
    }
    assert_eq!(fault::fired_count("eco.engine.panic"), 1);

    let health = health_of(&mut client);
    assert_eq!(health.get("state").and_then(Json::as_str), Some("degraded"));
    assert_eq!(health.get("restarts").and_then(Json::as_i64), Some(1));
    assert_eq!(health.get("quarantined").and_then(Json::as_i64), Some(1));
    let fault_msg = health
        .get("last_fault")
        .and_then(Json::as_str)
        .expect("a quarantine records its reason");
    assert!(fault_msg.contains("panicked"), "got: {fault_msg}");

    client.request(&Request::Shutdown).unwrap();
    let engine = handle.join();
    assert!(engine.check_legal());

    // bit-identity: the self-healed engine == one that rejected batch 3 up front
    let reference = reference_engine("sup-panic", 11, &deltas, &[2]);
    assert_eq!(
        design_bytes(engine.design()),
        design_bytes(reference.design())
    );
    assert_eq!(engine.stats(), reference.stats());

    // the quarantine record is durable on disk (seq 3 skipped by every future replay;
    // the in-server rebuild exercised that skip — without it, replaying the journaled
    // batch 3 would have broken the bit-identity above)
    assert!(flex_eco::journal::load_quarantine(&dir).contains(&3));

    // recovery after the clean shutdown reproduces the healed state: the parting
    // snapshot is already past the quarantined batch, so nothing needs skipping
    fault::reset();
    let (recovered, _journal, report) =
        recover_engine(JournalConfig::new(&dir), MglConfig::default())
            .unwrap()
            .expect("journal directory must recover");
    assert_eq!(report.quarantined_skipped, 0);
    assert_eq!(
        design_bytes(recovered.design()),
        design_bytes(engine.design())
    );
    assert_eq!(recovered.stats(), engine.stats());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A *crash* (no parting snapshot) after a quarantine: recovery must replay the journal
/// suffix, skip the quarantined seq, and say so in its report.
#[test]
fn recovery_replays_around_a_quarantined_batch_and_reports_the_skip() {
    let _g = lock();
    fault::reset();

    let mut engine = warm_engine("sup-skip", 13);
    let deltas: Vec<EcoDelta> = (0..3).map(|i| move_of(&engine, i)).collect();
    let dir = temp_dir("sup-skip");
    let mut journal =
        Journal::create(JournalConfig::new(&dir), engine.design(), engine.stats(), 0).unwrap();
    // journal all three, apply only 1 and 3 — batch 2 is quarantined, as if the engine
    // had been poisoned by it and the process then died before any snapshot
    for (i, delta) in deltas.iter().enumerate() {
        journal.append(std::slice::from_ref(delta)).unwrap();
        if i != 1 {
            engine.apply(std::slice::from_ref(delta)).unwrap();
        }
    }
    journal.quarantine(2, "injected: poisoned batch").unwrap();
    drop(journal);

    let (recovered, journal, report) =
        recover_engine(JournalConfig::new(&dir), MglConfig::default())
            .unwrap()
            .expect("journal directory must recover");
    assert_eq!(journal.seq(), 3);
    assert_eq!(report.replayed, 2);
    assert_eq!(report.quarantined_skipped, 1);
    assert_eq!(
        design_bytes(recovered.design()),
        design_bytes(engine.design())
    );
    assert_eq!(recovered.stats(), engine.stats());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watchdog_times_out_a_hung_batch_and_quarantines_it() {
    let _g = lock();
    fault::reset();
    // the 2nd apply stalls for 400ms; the watchdog deadline is 100ms — the worker is
    // abandoned (it exits on its own when the stall ends) and the batch quarantined
    fault::configure("eco.engine.hang", FaultRule::Nth(2));
    fault::set_hang_millis(400);

    let engine = warm_engine("sup-hang", 29);
    let deltas: Vec<EcoDelta> = (0..5).map(|i| move_of(&engine, i)).collect();
    let dir = temp_dir("sup-hang");
    let journal =
        Journal::create(JournalConfig::new(&dir), engine.design(), engine.stats(), 0).unwrap();

    let socket = temp_socket("sup-hang");
    let handle = EcoServer::start_with(
        engine,
        &socket,
        ServerConfig {
            journal: Some(journal),
            supervise: SuperviseConfig {
                batch_deadline: Duration::from_millis(100),
                ..SuperviseConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut client = retrying(EcoClient::connect(&socket).unwrap());
    for (i, delta) in deltas.iter().enumerate() {
        if i == 1 {
            let payload = client
                .request(&Request::Apply(vec![delta.clone()]))
                .unwrap();
            let json = Json::parse(&String::from_utf8_lossy(&payload)).unwrap();
            assert_eq!(json.get("poisoned").and_then(Json::as_bool), Some(true));
            assert_eq!(json.get("seq").and_then(Json::as_i64), Some(2));
            let msg = json.get("error").and_then(Json::as_str).unwrap_or_default();
            assert!(msg.contains("watchdog"), "got: {msg}");
        } else {
            client
                .request_json_retry(&Request::Apply(vec![delta.clone()]))
                .unwrap()
                .unwrap_or_else(|m| panic!("batch {i} rejected: {m}"));
        }
    }
    assert_eq!(fault::fired_count("eco.engine.hang"), 1);

    let health = health_of(&mut client);
    assert_eq!(health.get("state").and_then(Json::as_str), Some("degraded"));
    assert_eq!(health.get("restarts").and_then(Json::as_i64), Some(1));
    assert_eq!(health.get("quarantined").and_then(Json::as_i64), Some(1));

    // give the abandoned worker time to finish its stall and exit before winding down
    std::thread::sleep(Duration::from_millis(500));
    fault::set_hang_millis(1_000);

    client.request(&Request::Shutdown).unwrap();
    let engine = handle.join();
    assert!(engine.check_legal());

    let reference = reference_engine("sup-hang", 29, &deltas, &[1]);
    assert_eq!(
        design_bytes(engine.design()),
        design_bytes(reference.design())
    );
    assert_eq!(engine.stats(), reference.stats());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_less_server_self_heals_from_its_private_journal() {
    let _g = lock();
    fault::reset();
    fault::configure("eco.engine.panic", FaultRule::Nth(2));

    let engine = warm_engine("sup-mem", 37);
    let deltas: Vec<EcoDelta> = (0..4).map(|i| move_of(&engine, i)).collect();
    let socket = temp_socket("sup-mem");
    let handle = EcoServer::start_with(engine, &socket, ServerConfig::default()).unwrap();

    let mut client = retrying(EcoClient::connect(&socket).unwrap());
    for (i, delta) in deltas.iter().enumerate() {
        if i == 1 {
            let payload = client
                .request(&Request::Apply(vec![delta.clone()]))
                .unwrap();
            let json = Json::parse(&String::from_utf8_lossy(&payload)).unwrap();
            assert_eq!(json.get("poisoned").and_then(Json::as_bool), Some(true));
        } else {
            client
                .request_json_retry(&Request::Apply(vec![delta.clone()]))
                .unwrap()
                .unwrap_or_else(|m| panic!("batch {i} rejected: {m}"));
        }
    }
    let health = health_of(&mut client);
    assert_eq!(health.get("state").and_then(Json::as_str), Some("degraded"));
    assert_eq!(health.get("restarts").and_then(Json::as_i64), Some(1));
    assert_eq!(health.get("quarantined").and_then(Json::as_i64), Some(1));

    client.request(&Request::Shutdown).unwrap();
    let engine = handle.join();
    assert!(engine.check_legal());

    let reference = reference_engine("sup-mem", 37, &deltas, &[1]);
    assert_eq!(
        design_bytes(engine.design()),
        design_bytes(reference.design())
    );
    assert_eq!(engine.stats(), reference.stats());
}

#[test]
fn scrubber_detects_injected_corruption_and_repairs_in_place() {
    let _g = lock();
    fault::reset();
    // the first scrub slice deliberately corrupts the legalized index inside the range
    // it is about to audit: detection must happen in that same slice
    fault::configure("eco.scrub.corrupt", FaultRule::Nth(1));

    let engine = warm_engine("sup-scrub", 41);
    let deltas: Vec<EcoDelta> = (0..3).map(|i| move_of(&engine, i)).collect();
    let socket = temp_socket("sup-scrub");
    let handle = EcoServer::start_with(engine, &socket, ServerConfig::default()).unwrap();

    let mut client = retrying(EcoClient::connect(&socket).unwrap());
    for delta in &deltas {
        client
            .request_json_retry(&Request::Apply(vec![delta.clone()]))
            .unwrap()
            .unwrap();
    }
    assert_eq!(fault::fired_count("eco.scrub.corrupt"), 1);

    let health = health_of(&mut client);
    assert_eq!(health.get("state").and_then(Json::as_str), Some("degraded"));
    let scrub = health.get("scrub").cloned().expect("scrub body");
    assert_eq!(scrub.get("corruptions").and_then(Json::as_i64), Some(1));
    assert_eq!(scrub.get("rebuilds").and_then(Json::as_i64), Some(1));
    assert!(scrub.get("slices").and_then(Json::as_i64).unwrap_or(0) >= 1);
    let fault_msg = health
        .get("last_fault")
        .and_then(Json::as_str)
        .expect("a corruption records its reason");
    assert!(fault_msg.contains("corruption"), "got: {fault_msg}");
    // no quarantine, no restart: graceful degradation rebuilt only the one structure
    assert_eq!(health.get("restarts").and_then(Json::as_i64), Some(0));
    assert_eq!(health.get("quarantined").and_then(Json::as_i64), Some(0));

    client.request(&Request::Shutdown).unwrap();
    let engine = handle.join();
    assert!(engine.check_legal());
    // the repaired structure equals a from-scratch rebuild: a full audit stays clean
    let rows = engine.design().num_rows;
    let (findings, audited) = engine.audit(&[(0, rows)]);
    assert!(findings.is_empty(), "post-repair audit must be clean");
    assert_eq!(audited, rows as usize);
}

#[test]
fn applies_during_a_rebuild_are_shed_with_typed_recovering_and_absorbed_by_retry() {
    let _g = lock();
    fault::reset();
    // first batch panics; the rebuild window is then held open for 400ms so a second
    // connection reliably observes the `Recovering` shed
    fault::configure("eco.engine.panic", FaultRule::Nth(1));
    fault::configure("eco.rebuild.hold", FaultRule::Nth(1));
    fault::set_hang_millis(400);

    let engine = warm_engine("sup-shed", 53);
    let poisoned = move_of(&engine, 0);
    let follow_up = move_of(&engine, 1);
    let socket = temp_socket("sup-shed");
    let handle = EcoServer::start_with(engine, &socket, ServerConfig::default()).unwrap();

    let mut first = EcoClient::connect(&socket).unwrap();
    let payload = first.request(&Request::Apply(vec![poisoned])).unwrap();
    let json = Json::parse(&String::from_utf8_lossy(&payload)).unwrap();
    assert_eq!(json.get("poisoned").and_then(Json::as_bool), Some(true));

    // the supervisor is now hanging in the (held-open) rebuild; state is Recovering
    std::thread::sleep(Duration::from_millis(30));
    let mut second = retrying(EcoClient::connect(&socket).unwrap());
    // health answers from the connection thread even while the engine is mid-rebuild
    let health = health_of(&mut second);
    assert_eq!(
        health.get("state").and_then(Json::as_str),
        Some("recovering")
    );
    second
        .request_json_retry(&Request::Apply(vec![follow_up]))
        .unwrap()
        .unwrap();
    assert!(
        second.recovering_seen() >= 1,
        "the retry loop must have absorbed at least one Recovering shed"
    );

    fault::set_hang_millis(1_000);
    let health = health_of(&mut second);
    assert_eq!(health.get("state").and_then(Json::as_str), Some("degraded"));
    assert_eq!(health.get("restarts").and_then(Json::as_i64), Some(1));

    second.request(&Request::Shutdown).unwrap();
    let engine = handle.join();
    assert!(engine.check_legal());
    assert_eq!(engine.stats().batches, 1, "only the follow-up batch landed");
}

/// A mid-group rebuild must not double-apply journaled-but-undispatched group members.
/// With fsync group commit the whole group is durable before its first member is
/// dispatched; when that member poisons the engine, the rebuild's replay applies the
/// rest — the dispatch loop must answer them from the captured replay outcome, not
/// re-dispatch them onto the rebuilt engine.
#[test]
fn group_members_replayed_by_a_mid_group_rebuild_are_not_applied_twice() {
    let _g = lock();
    fault::reset();
    // the first batch stalls 600ms (well under the 5s watchdog) so two more clients can
    // queue behind it and form one group; the group's first member — the 2nd delta the
    // engine ever processes — then panics
    fault::configure("eco.engine.hang", FaultRule::Nth(1));
    fault::configure("eco.engine.panic", FaultRule::Nth(2));
    fault::set_hang_millis(600);

    let engine = warm_engine("sup-group", 71);
    let slow = move_of(&engine, 0);
    // the two concurrent clients send IDENTICAL batches: their queue order is not
    // deterministic, and identical deltas make the surviving state order-independent
    let grouped = move_of(&engine, 1);
    let dir = temp_dir("sup-group");
    let journal = Journal::create(
        JournalConfig {
            fsync: true,
            ..JournalConfig::new(&dir)
        },
        engine.design(),
        engine.stats(),
        0,
    )
    .unwrap();

    let socket = temp_socket("sup-group");
    let handle = EcoServer::start_with(
        engine,
        &socket,
        ServerConfig {
            journal: Some(journal),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let groups_before = flex_obs::global()
        .counter("eco_journal_group_commits_total")
        .get();

    let send_apply = |delta: EcoDelta| {
        let socket = socket.clone();
        std::thread::spawn(move || {
            let mut client = EcoClient::connect(&socket).unwrap();
            client.request(&Request::Apply(vec![delta])).unwrap()
        })
    };
    let slow_thread = send_apply(slow.clone());
    // let the slow batch reach the engine and stall before the group piles up
    std::thread::sleep(Duration::from_millis(200));
    let b_thread = send_apply(grouped.clone());
    let c_thread = send_apply(grouped.clone());

    let slow_payload = slow_thread.join().unwrap();
    let json = Json::parse(&String::from_utf8_lossy(&slow_payload)).unwrap();
    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
    let mut poisoned = 0;
    let mut succeeded = 0;
    for payload in [b_thread.join().unwrap(), c_thread.join().unwrap()] {
        let json = Json::parse(&String::from_utf8_lossy(&payload)).unwrap();
        if json.get("poisoned").and_then(Json::as_bool) == Some(true) {
            // the group's first member (seq 2: right after the slow batch) is the one
            // that panicked
            assert_eq!(json.get("seq").and_then(Json::as_i64), Some(2));
            poisoned += 1;
        } else {
            // the surviving member was applied exactly once — by the replay — and its
            // client is answered from the captured outcome
            assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
            succeeded += 1;
        }
    }
    assert_eq!((poisoned, succeeded), (1, 1));
    // the two concurrent batches really were one group commit, and the panic fired on
    // live traffic only (replay runs suppressed)
    assert!(
        flex_obs::global()
            .counter("eco_journal_group_commits_total")
            .get()
            > groups_before,
        "the two queued batches must have formed a group commit"
    );
    assert_eq!(fault::fired_count("eco.engine.panic"), 1);
    assert_eq!(fault::fired_count("eco.engine.hang"), 1);
    fault::set_hang_millis(1_000);

    let mut client = retrying(EcoClient::connect(&socket).unwrap());
    let health = health_of(&mut client);
    assert_eq!(health.get("state").and_then(Json::as_str), Some("degraded"));
    assert_eq!(health.get("restarts").and_then(Json::as_i64), Some(1));
    assert_eq!(health.get("quarantined").and_then(Json::as_i64), Some(1));

    client.request(&Request::Shutdown).unwrap();
    let engine = handle.join();
    assert!(engine.check_legal());

    // bit-identity: slow + the surviving member applied ONCE. Before the fix the
    // dispatch loop re-applied the replayed member, so `stats.batches` (and, for
    // non-idempotent deltas, the design itself) diverged here.
    let deltas = [slow, grouped.clone(), grouped];
    let reference = reference_engine("sup-group", 71, &deltas, &[1]);
    assert_eq!(
        design_bytes(engine.design()),
        design_bytes(reference.design())
    );
    assert_eq!(engine.stats(), reference.stats());
    assert!(flex_eco::journal::load_quarantine(&dir).contains(&2));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed recovery must not eat the journal. The first rebuild attempt dies on an
/// injected I/O error; the retry — driven by the idle tick, because applies are shed at
/// the connection layer while `Recovering` — must retry journal recovery, or the server
/// sheds every apply forever.
#[test]
fn failed_recovery_keeps_the_journal_and_the_idle_retry_heals_the_server() {
    let _g = lock();
    fault::reset();
    fault::configure("eco.engine.panic", FaultRule::Nth(1));
    fault::configure("eco.recover.fail", FaultRule::Nth(1));

    let engine = warm_engine("sup-rejournal", 83);
    let deltas: Vec<EcoDelta> = (0..4).map(|i| move_of(&engine, i)).collect();
    let dir = temp_dir("sup-rejournal");
    let journal =
        Journal::create(JournalConfig::new(&dir), engine.design(), engine.stats(), 0).unwrap();

    let socket = temp_socket("sup-rejournal");
    let handle = EcoServer::start_with(
        engine,
        &socket,
        ServerConfig {
            journal: Some(journal),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut client = retrying(EcoClient::connect(&socket).unwrap());
    for (i, delta) in deltas.iter().enumerate() {
        if i == 0 {
            let payload = client
                .request(&Request::Apply(vec![delta.clone()]))
                .unwrap();
            let json = Json::parse(&String::from_utf8_lossy(&payload)).unwrap();
            assert_eq!(json.get("poisoned").and_then(Json::as_bool), Some(true));
            assert_eq!(json.get("seq").and_then(Json::as_i64), Some(1));
        } else {
            // the first of these arrives while the rebuild has failed once: the shed /
            // retry loop must outlast the idle-tick recovery retry
            client
                .request_json_retry(&Request::Apply(vec![delta.clone()]))
                .unwrap()
                .unwrap_or_else(|m| panic!("batch {i} rejected: {m}"));
        }
    }
    assert_eq!(fault::fired_count("eco.recover.fail"), 1);

    let health = health_of(&mut client);
    assert_eq!(health.get("state").and_then(Json::as_str), Some("degraded"));
    assert_eq!(health.get("restarts").and_then(Json::as_i64), Some(1));
    assert_eq!(health.get("quarantined").and_then(Json::as_i64), Some(1));

    client.request(&Request::Shutdown).unwrap();
    let engine = handle.join();
    assert!(engine.check_legal());

    let reference = reference_engine("sup-rejournal", 83, &deltas, &[0]);
    assert_eq!(
        design_bytes(engine.design()),
        design_bytes(reference.design())
    );
    assert_eq!(engine.stats(), reference.stats());
    // journaling resumed after the healed recovery: the quarantine record is durable
    assert!(flex_eco::journal::load_quarantine(&dir).contains(&1));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A quarantine record that fails to persist must not resurface the poisoned batch in
/// the rebuild's replay: the supervisor's in-memory quarantine set shields every
/// recovery this process performs, so the healed engine still matches one that
/// rejected the batch up front.
#[test]
fn unpersisted_quarantine_still_shields_the_rebuild_replay() {
    let _g = lock();
    fault::reset();
    fault::configure("eco.engine.panic", FaultRule::Nth(2));
    fault::configure("eco.quarantine.write", FaultRule::Always);

    let engine = warm_engine("sup-noq", 97);
    let deltas: Vec<EcoDelta> = (0..4).map(|i| move_of(&engine, i)).collect();
    let dir = temp_dir("sup-noq");
    let journal =
        Journal::create(JournalConfig::new(&dir), engine.design(), engine.stats(), 0).unwrap();

    let socket = temp_socket("sup-noq");
    let handle = EcoServer::start_with(
        engine,
        &socket,
        ServerConfig {
            journal: Some(journal),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut client = retrying(EcoClient::connect(&socket).unwrap());
    for (i, delta) in deltas.iter().enumerate() {
        if i == 1 {
            let payload = client
                .request(&Request::Apply(vec![delta.clone()]))
                .unwrap();
            let json = Json::parse(&String::from_utf8_lossy(&payload)).unwrap();
            assert_eq!(json.get("poisoned").and_then(Json::as_bool), Some(true));
            assert_eq!(json.get("seq").and_then(Json::as_i64), Some(2));
        } else {
            client
                .request_json_retry(&Request::Apply(vec![delta.clone()]))
                .unwrap()
                .unwrap_or_else(|m| panic!("batch {i} rejected: {m}"));
        }
    }

    let health = health_of(&mut client);
    assert_eq!(health.get("state").and_then(Json::as_str), Some("degraded"));
    assert_eq!(health.get("restarts").and_then(Json::as_i64), Some(1));
    assert_eq!(health.get("quarantined").and_then(Json::as_i64), Some(1));

    client.request(&Request::Shutdown).unwrap();
    let engine = handle.join();
    assert!(engine.check_legal());

    // pre-fix, the replay saw no quarantine record on disk and re-applied the poisoned
    // batch (suppression kept it from panicking), silently diverging from this:
    let reference = reference_engine("sup-noq", 97, &deltas, &[1]);
    assert_eq!(
        design_bytes(engine.design()),
        design_bytes(reference.design())
    );
    assert_eq!(engine.stats(), reference.stats());
    // the record really never reached disk — the shield was purely in-memory
    assert!(!flex_eco::journal::load_quarantine(&dir).contains(&2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn health_op_reports_the_full_machine_readable_shape() {
    let _g = lock();
    fault::reset();

    // supervised server: full shape, healthy at rest
    let socket = temp_socket("sup-health");
    let handle = EcoServer::start_with(
        warm_engine("sup-health", 61),
        &socket,
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = EcoClient::connect(&socket).unwrap();
    let health = health_of(&mut client);
    assert_eq!(health.get("state").and_then(Json::as_str), Some("healthy"));
    assert_eq!(health.get("supervised").and_then(Json::as_bool), Some(true));
    assert_eq!(health.get("restarts").and_then(Json::as_i64), Some(0));
    assert_eq!(health.get("quarantined").and_then(Json::as_i64), Some(0));
    assert!(
        health
            .get("uptime_s")
            .and_then(Json::as_f64)
            .unwrap_or(-1.0)
            >= 0.0
    );
    let scrub = health.get("scrub").cloned().expect("scrub body");
    for key in ["slices", "sweeps", "corruptions", "rebuilds"] {
        assert!(
            scrub.get(key).and_then(Json::as_i64).is_some(),
            "missing {key}"
        );
    }
    let progress = scrub.get("progress").and_then(Json::as_f64).unwrap();
    assert!((0.0..=1.0).contains(&progress));
    client.request(&Request::Shutdown).unwrap();
    handle.join();
}
