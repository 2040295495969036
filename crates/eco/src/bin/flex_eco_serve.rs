//! `flex-eco-serve`: host a resident incremental legalization engine on a Unix socket.
//!
//! Generates a benchmark design (same generator the paper figures use), legalizes it once,
//! then serves ECO deltas over a length-prefixed JSON protocol until a client sends
//! `{"op":"shutdown"}`.
//!
//! With `--journal-dir`, the service is crash-safe: if the directory already holds a
//! snapshot, startup *recovers* the pre-crash engine (snapshot + journal-suffix replay)
//! instead of re-generating and re-legalizing; otherwise it bootstraps normally and
//! starts journaling. Without it, the server journals into a private `PATH.journal`
//! directory next to its socket, used only to rebuild a crashed engine and removed at
//! shutdown. Deterministic fault injection is armed from `FLEX_FAULTS` /
//! `FLEX_FAULTS_SEED` (see `flex_eco::fault`) for soak and recovery drills.

use flex_eco::journal::{recover_engine, Journal, JournalConfig};
use flex_eco::service::{EcoServer, ServerConfig};
use flex_eco::supervise::SuperviseConfig;
use flex_eco::EcoEngine;
use flex_mgl::config::MglConfig;
use flex_placement::benchmark::{generate, BenchmarkSpec};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: flex-eco-serve --socket PATH [--cells N] [--seed S] [--density D] [--queue N]\n\
         \x20                     [--journal-dir DIR] [--fsync] [--snapshot-every N]\n\
         \x20                     [--idle-timeout-ms MS] [--batch-deadline-ms MS]\n\
         \x20                     [--no-obs]\n\
         \n\
         --socket PATH        Unix socket to listen on (required)\n\
         --cells N            movable cells in the generated design (default 50000)\n\
         --seed S             benchmark generator seed (default 42)\n\
         --density D          target design density (default 0.45)\n\
         --queue N            request queue bound; a full queue sheds Busy (default 1024)\n\
         --journal-dir DIR    write-ahead journal + snapshots here; recover from DIR if it\n\
         \x20                    already holds a snapshot (crash-safe restarts). Without it,\n\
         \x20                    a private PATH.journal (no fsync, snapshot every 256 batches)\n\
         \x20                    backs engine rebuilds and is removed at shutdown\n\
         --fsync              fdatasync every journal append (power-loss durability;\n\
         \x20                    queued batches are group-committed: one fsync per group)\n\
         --snapshot-every N   snapshot + rotate the journal every N batches (default 4096)\n\
         --idle-timeout-ms MS disconnect a connection idle past MS (default 30000, 0 = never)\n\
         --batch-deadline-ms MS  supervision watchdog: a batch the engine has not answered\n\
         \x20                    within MS is quarantined and the engine rebuilt (default 5000)\n\
         --no-obs             disable span collection (the `trace` op then returns empty)\n\
         \n\
         environment: FLEX_FAULTS / FLEX_FAULTS_SEED / FLEX_FAULTS_HANG_MS arm\n\
         deterministic failpoints"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<String> = None;
    let mut cells: usize = 50_000;
    let mut seed: u64 = 42;
    let mut density: f64 = 0.45;
    let mut queue: usize = 1024;
    let mut journal_dir: Option<String> = None;
    let mut fsync = false;
    let mut snapshot_every: u64 = 4096;
    let mut idle_timeout_ms: u64 = 30_000;
    let mut batch_deadline_ms: u64 = 5_000;
    let mut obs = true;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--socket" => socket = Some(value("--socket")),
            "--cells" => cells = value("--cells").parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--density" => density = value("--density").parse().unwrap_or_else(|_| usage()),
            "--queue" => queue = value("--queue").parse().unwrap_or_else(|_| usage()),
            "--journal-dir" => journal_dir = Some(value("--journal-dir")),
            "--fsync" => fsync = true,
            "--snapshot-every" => {
                snapshot_every = value("--snapshot-every")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--idle-timeout-ms" => {
                idle_timeout_ms = value("--idle-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--batch-deadline-ms" => {
                batch_deadline_ms = value("--batch-deadline-ms")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--no-obs" => obs = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    let Some(socket) = socket else { usage() };

    // A resident service wants its traces: spans default ON here (unlike the batch
    // binaries, where FLEX_OBS opts in). `--no-obs` restores the zero-instrumentation path.
    flex_obs::set_enabled(obs);
    let armed = flex_eco::fault::init_from_env();
    if armed > 0 {
        eprintln!("fault injection: {armed} failpoint(s) armed from FLEX_FAULTS");
    }

    let journal_cfg = journal_dir.map(|dir| {
        let mut cfg = JournalConfig::new(dir);
        cfg.fsync = fsync;
        cfg.snapshot_every = snapshot_every;
        cfg
    });

    // Crash-safe startup: a journal directory that already holds a snapshot IS the
    // engine — recover it instead of regenerating (the bootstrap legalization of a big
    // design costs minutes; replaying the journal suffix costs milliseconds).
    let recovered = match &journal_cfg {
        Some(cfg) => match recover_engine(cfg.clone(), MglConfig::default()) {
            Ok(recovered) => recovered,
            Err(e) => {
                eprintln!("recovery from {} failed: {e}", cfg.dir.display());
                std::process::exit(1);
            }
        },
        None => None,
    };

    let (engine, journal) = match recovered {
        Some((engine, journal, report)) => {
            eprintln!(
                "recovered from {}: snapshot seq {} + {} replayed batches ({} rejected, {} quarantined skipped, {} torn bytes truncated, {} snapshots skipped) in {:.1}ms",
                journal_cfg.as_ref().expect("journal cfg present").dir.display(),
                report.base_seq,
                report.replayed,
                report.rejected,
                report.quarantined_skipped,
                report.truncated_bytes,
                report.snapshots_skipped,
                report.replay_time.as_secs_f64() * 1e3,
            );
            (engine, Some(journal))
        }
        None => {
            let spec = BenchmarkSpec {
                num_cells: cells,
                ..BenchmarkSpec::medium("eco-serve", seed)
            }
            .with_density(density);
            eprintln!("generating {cells}-cell design (seed {seed}, density {density}) ...");
            let design = generate(&spec);

            eprintln!("legalizing and warming acceleration structures ...");
            let engine = match EcoEngine::legalize_and_build(design, MglConfig::default()) {
                Ok(engine) => engine,
                Err(e) => {
                    eprintln!("failed to build resident engine: {e}");
                    std::process::exit(1);
                }
            };
            let journal = journal_cfg.map(|cfg| {
                Journal::create(cfg, engine.design(), engine.stats(), 0).unwrap_or_else(|e| {
                    eprintln!("cannot create journal: {e}");
                    std::process::exit(1);
                })
            });
            (engine, journal)
        }
    };

    let config = ServerConfig {
        queue_capacity: queue.max(1),
        idle_timeout: (idle_timeout_ms > 0).then(|| Duration::from_millis(idle_timeout_ms)),
        journal,
        supervise: SuperviseConfig {
            batch_deadline: Duration::from_millis(batch_deadline_ms.max(1)),
            ..SuperviseConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = match EcoServer::start_with(engine, &socket, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("failed to bind {socket}: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {socket}");

    let engine = handle.join();
    let stats = engine.stats();
    eprintln!(
        "shutdown: {} deltas in {} batches ({} fallbacks, {} failed), legal={}",
        stats.total_applied(),
        stats.batches,
        stats.fallbacks,
        stats.failed,
        engine.check_legal()
    );
}
