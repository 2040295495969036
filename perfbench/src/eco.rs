//! The ECO service phase: episodes of a journaled, supervised server on a Unix socket, one
//! closed-loop writer sending single-delta applies, one open-loop reader sending `stats` on
//! a fixed schedule, and an in-process replay of the same deltas that every served engine
//! must equal bit for bit.
//!
//! An episode starts a fresh server on the legalized design and sends the first
//! [`EPISODE_DELTAS`] deltas of the seeded stream. Die-wide moves disturb the design, so
//! later deltas of one long stream cost more (the median round trip doubled over 5,000
//! deltas on the clustered design), and a stream's median followed how many deltas the
//! machine's speed let it send. Every episode of a run sends the same deltas to the same
//! design, so episodes differ only by the machine's speed.

use crate::report::Report;
use crate::stats::{Rng, Samples};
use flex_eco::json::Json;
use flex_eco::proto::encode_report;
use flex_eco::{
    EcoClient, EcoDelta, EcoEngine, EcoServer, Journal, JournalConfig, Request, ServerConfig,
    ServerHandle,
};
use flex_placement::cell::CellId;
use flex_placement::layout::Design;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deltas the writer sends in one episode.
pub const EPISODE_DELTAS: usize = 1000;

/// Rate of the open-loop `stats` reader.
pub const READS_PER_S: f64 = 20.0;

/// `eco_read_p95_us` is the highest percentile up to 95 with at least this many reads
/// beyond it.
const READ_TAIL_SAMPLES: usize = 10;

/// Journal rotation interval: every episode rotates several times, after the same deltas,
/// so the snapshot cost lands in every episode alike.
const SNAPSHOT_EVERY: u64 = 250;

/// A running server that has answered its first `info`, and its socket.
pub struct Served {
    handle: ServerHandle,
    socket: PathBuf,
}

/// Start a journaled (no fsync), supervised server for `engine` under `dir`, and wait for
/// its first `info` reply.
pub fn serve(engine: EcoEngine, dir: &Path) -> std::io::Result<Served> {
    std::fs::create_dir_all(dir)?;
    let journal = Journal::create(
        JournalConfig {
            dir: dir.join("journal"),
            fsync: false,
            snapshot_every: SNAPSHOT_EVERY,
        },
        engine.design(),
        engine.stats(),
        0,
    )?;
    let socket = dir.join("eco.sock");
    let handle = EcoServer::start_with(
        engine,
        &socket,
        ServerConfig {
            journal: Some(journal),
            ..ServerConfig::default()
        },
    )?;
    let mut client = EcoClient::connect(&socket)?;
    match client.request_json(&Request::Info)? {
        Ok(_) => Ok(Served { handle, socket }),
        Err(e) => Err(std::io::Error::other(format!("info failed: {e}"))),
    }
}

/// Stop a server and take its engine back.
pub fn stop(served: Served) -> std::io::Result<EcoEngine> {
    let mut client = EcoClient::connect(&served.socket)?;
    client.request(&Request::Shutdown)?;
    drop(client);
    Ok(served.handle.join())
}

/// Seeded delta generator with the distribution of `flex-eco-client`'s load-generator
/// mode: 80/8/8/4 move/insert/resize/remove, desired positions uniform over the die, and
/// inserted or resized cells 2–7 sites wide and 1–2 rows high. Unlike the client it tracks
/// the live cells, so every delta names a cell that exists.
pub struct DeltaGen {
    rng: Rng,
    live: Vec<CellId>,
    sites: f64,
    rows: f64,
}

impl DeltaGen {
    pub fn new(design: &Design, seed: u64) -> Self {
        Self {
            rng: Rng::new(seed ^ 0xEC0),
            live: design.movable_ids(),
            sites: design.num_sites_x as f64,
            rows: design.num_rows as f64,
        }
    }

    pub fn next_delta(&mut self) -> EcoDelta {
        let gx = self.rng.unit() * self.sites;
        let gy = self.rng.unit() * self.rows;
        let i = self.rng.range(0, self.live.len() as i64 - 1) as usize;
        let id = self.live[i];
        match self.rng.range(0, 99) {
            0..=79 => EcoDelta::MoveCell { id, gx, gy },
            80..=87 => EcoDelta::InsertCell {
                width: self.rng.range(2, 7),
                height: self.rng.range(1, 2),
                gx,
                gy,
            },
            88..=95 => EcoDelta::ResizeCell {
                id,
                width: self.rng.range(2, 7),
                height: self.rng.range(1, 2),
            },
            _ => {
                self.live.swap_remove(i);
                EcoDelta::RemoveCell { id }
            }
        }
    }

    /// Record the engine's answer to `delta`: an insert that placed its cell adds the id
    /// the engine gave it to the live cells (a failed insert is rolled back).
    pub fn observe(&mut self, delta: &EcoDelta, cell: CellId, failed: bool) {
        if matches!(delta, EcoDelta::InsertCell { .. }) && !failed {
            self.live.push(cell);
        }
    }
}

/// What one served episode measured.
pub struct Stream {
    pub sent: Vec<EcoDelta>,
    pub wall: Duration,
    pub round_trip_us: Samples,
    pub engine_us: Samples,
    pub overhead_us: Samples,
    pub read_us: Samples,
    pub read_late_us: Samples,
    pub acked: u64,
    pub failed: u64,
    pub fallbacks: u64,
    pub cells_touched: Samples,
    pub scrub_slices: f64,
    pub engine: EcoEngine,
}

/// Drive `served` for `deltas` deltas: the closed-loop writer on this thread, the
/// open-loop reader on another. Then read `health`, shut the server down and take its
/// engine.
pub fn stream(served: Served, gen: &mut DeltaGen, deltas: usize) -> std::io::Result<Stream> {
    let mut writer = EcoClient::connect(&served.socket)?;
    let reader_client = EcoClient::connect(&served.socket)?;
    let start = Instant::now();
    let writer_done = Arc::new(AtomicBool::new(false));
    let reader = {
        let done = Arc::clone(&writer_done);
        std::thread::spawn(move || read_loop(reader_client, start, &done))
    };

    let (mut round_trip_us, mut engine_us, mut overhead_us, mut cells_touched) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let (mut sent, mut acked, mut failed, mut fallbacks) = (Vec::new(), 0u64, 0u64, 0u64);
    let write_result = (|| -> std::io::Result<()> {
        while sent.len() < deltas {
            let delta = gen.next_delta();
            let t = Instant::now();
            let payload = writer.request(&Request::Apply(vec![delta.clone()]))?;
            let rt = t.elapsed();
            // every request's round trip counts, refused ones included
            round_trip_us.push_us(rt);
            sent.push(delta.clone());
            let reply = Json::parse(&String::from_utf8_lossy(&payload))
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            acked += 1;
            let report = reply.get("report");
            let ok = reply.get("ok").and_then(Json::as_bool) == Some(true) && report.is_some();
            let Some(report) = report.filter(|_| ok) else {
                // an error, Busy, Recovering or Poisoned answer: the delta did not land
                failed += 1;
                continue;
            };
            let num = |k: &str| report.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let outcome = report
                .get("outcomes")
                .and_then(Json::as_arr)
                .and_then(|o| o.first());
            let cell = outcome
                .and_then(|o| o.get("cell"))
                .and_then(Json::as_i64)
                .unwrap_or(-1);
            let placed_failed = num("failed") > 0.0;
            failed += placed_failed as u64;
            fallbacks += num("fallbacks") as u64;
            cells_touched.push(num("cells_touched"));
            let latency = num("latency_us");
            engine_us.push(latency);
            overhead_us.push(rt.as_secs_f64() * 1e6 - latency);
            gen.observe(&delta, CellId(cell.max(0) as u32), placed_failed);
        }
        Ok(())
    })();
    let wall = start.elapsed();
    writer_done.store(true, Ordering::SeqCst);
    let reads = reader
        .join()
        .map_err(|_| std::io::Error::other("reader thread panicked"))?;
    write_result?;
    let (read_us, read_late_us) = reads?;

    let health = writer.request_json(&Request::Health)?;
    let scrub_slices = health
        .ok()
        .and_then(|h| {
            h.get("health")
                .and_then(|h| h.get("scrub"))
                .and_then(|s| s.get("slices"))
                .and_then(Json::as_f64)
        })
        .unwrap_or(0.0);
    drop(writer);
    let engine = stop(served)?;
    Ok(Stream {
        sent,
        wall,
        round_trip_us,
        engine_us,
        overhead_us,
        read_us,
        read_late_us,
        acked,
        failed,
        fallbacks,
        cells_touched,
        scrub_slices,
        engine,
    })
}

/// Send `stats` at [`READS_PER_S`] until the writer is done. Each read is timed from when
/// it was due; the second list is how late each send went out.
fn read_loop(
    mut client: EcoClient,
    start: Instant,
    writer_done: &AtomicBool,
) -> std::io::Result<(Samples, Samples)> {
    let period = Duration::from_secs_f64(1.0 / READS_PER_S);
    let (mut latency, mut late) = (Samples::default(), Samples::default());
    for i in 1u32.. {
        let due = start + period * i;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        if writer_done.load(Ordering::SeqCst) {
            break;
        }
        late.push_us(Instant::now().saturating_duration_since(due));
        match client.request_json(&Request::Stats)? {
            Ok(_) => latency.push_us(due.elapsed()),
            Err(e) => return Err(std::io::Error::other(format!("stats failed: {e}"))),
        }
    }
    Ok((latency, late))
}

/// Whether two engines hold the same design bit for bit and the same lifetime counters.
pub fn engine_diff(a: &EcoEngine, b: &EcoEngine) -> Option<String> {
    if a.stats() != b.stats() {
        return Some(format!("stats {:?} vs {:?}", a.stats(), b.stats()));
    }
    let (da, db) = (a.design(), b.design());
    if da.cells.len() != db.cells.len() {
        return Some(format!("{} vs {} cells", da.cells.len(), db.cells.len()));
    }
    da.cells
        .iter()
        .zip(&db.cells)
        .find(|(x, y)| {
            (
                x.width,
                x.height,
                x.x,
                x.y,
                x.fixed,
                x.legalized,
                x.row_parity,
            ) != (
                y.width,
                y.height,
                y.x,
                y.y,
                y.fixed,
                y.legalized,
                y.row_parity,
            ) || x.gx.to_bits() != y.gx.to_bits()
                || x.gy.to_bits() != y.gy.to_bits()
        })
        .map(|(x, _)| format!("cell {} differs", x.id))
}

/// Per-call layer timings of an in-process replay.
#[derive(Default)]
pub struct ReplayTrace {
    pub append_us: Samples,
    pub apply_us: Samples,
    pub encode_us: Samples,
    pub wal_bytes: u64,
}

/// Replay `deltas` one by one into `engine`. With `journal_dir`, time `Journal::append`,
/// `EcoEngine::apply` and `proto::encode_report` around each delta.
pub fn replay(
    engine: &mut EcoEngine,
    deltas: &[EcoDelta],
    journal_dir: Option<&Path>,
) -> std::io::Result<ReplayTrace> {
    let mut tr = ReplayTrace::default();
    let mut journal = match journal_dir {
        Some(dir) => Some(Journal::create(
            JournalConfig {
                dir: dir.to_path_buf(),
                fsync: false,
                snapshot_every: 0,
            },
            engine.design(),
            engine.stats(),
            0,
        )?),
        None => None,
    };
    for delta in deltas {
        let batch = std::slice::from_ref(delta);
        let Some(journal) = journal.as_mut() else {
            let _ = engine.apply(batch);
            continue;
        };
        let t = Instant::now();
        journal.append(batch)?;
        tr.append_us.push_us(t.elapsed());
        let t = Instant::now();
        let report = engine.apply(batch);
        tr.apply_us.push_us(t.elapsed());
        if let Ok(report) = report {
            let t = Instant::now();
            std::hint::black_box(encode_report(&report));
            tr.encode_us.push_us(t.elapsed());
        }
    }
    if let Some(journal) = journal {
        tr.wal_bytes = journal.wal_bytes();
    }
    Ok(tr)
}

/// Every episode's samples of one kind, pooled.
fn pooled(episodes: &[Stream], field: impl Fn(&Stream) -> &Samples) -> Samples {
    let mut all = Samples::default();
    for e in episodes {
        all.extend(field(e));
    }
    all
}

/// The end-to-end ECO metric: over the positions of the stream, the median of each delta's
/// fastest round trip across the episodes. Episodes send the same deltas to the same
/// design, so a delta's round trips differ only by the machine's speed when it was sent.
/// The machine's fast stretches are short: whole episodes of identical work took from 1.0x
/// to 1.6x the fastest one's median, while a single delta, a few milliseconds long, is
/// often sent inside a fast stretch in one episode or another.
pub fn publish_end_to_end(episodes: &[Stream], r: &mut Report) {
    let fastest = Samples::elementwise_min(episodes.iter().map(|e| &e.round_trip_us));
    r.e2e("eco_p50_us", fastest.median(), "us");
}

/// Run metadata of the episodes: each one's median round trip, and how late the reader's
/// sends went out.
pub fn record_meta(episodes: &[Stream], r: &mut Report) {
    let mut medians = Samples::default();
    for e in episodes {
        medians.push(e.round_trip_us.median());
    }
    r.meta("eco_episode_p50_us", medians.list());
    r.meta(
        "eco_read_late_p95_us",
        pooled(episodes, |e| &e.read_late_us).percentile(95.0),
    );
}

/// Per-layer ECO metrics of a run's episodes, pooled, and of its traced replay. The
/// stream's tails and its throughput are here too: the slowest few deltas of a run
/// (expansions, fallback scans) make them too unsteady from run to run to carry a bound.
pub fn publish_layers(episodes: &[Stream], tr: &ReplayTrace, r: &mut Report) {
    let round_trip_us = pooled(episodes, |e| &e.round_trip_us);
    let read_us = pooled(episodes, |e| &e.read_us);
    let engine_us = pooled(episodes, |e| &e.engine_us);
    let overhead_us = pooled(episodes, |e| &e.overhead_us);
    let sent: usize = episodes.iter().map(|e| e.sent.len()).sum();
    let wall: f64 = episodes.iter().map(|e| e.wall.as_secs_f64()).sum();
    let per_episode = |f: &dyn Fn(&Stream) -> f64| {
        episodes.iter().map(f).sum::<f64>() / episodes.len().max(1) as f64
    };
    r.layer("eco_p99_us", round_trip_us.percentile(99.0), "us");
    r.layer("eco_deltas_per_s", sent as f64 / wall, "1/s");
    r.layer("eco_read_p50_us", read_us.median(), "us");
    r.layer(
        "eco_read_p95_us",
        read_us.percentile_with_tail(95.0, READ_TAIL_SAMPLES),
        "us",
    );
    r.layer("eco.engine.apply_p50_us", engine_us.median(), "us");
    r.layer("eco.engine.apply_p99_us", engine_us.percentile(99.0), "us");
    r.layer("eco.engine.inproc_apply_p50_us", tr.apply_us.median(), "us");
    // per episode: every episode sends the same deltas
    r.layer(
        "eco.engine.fallbacks",
        per_episode(&|e| e.fallbacks as f64),
        "count",
    );
    r.layer(
        "eco.engine.cells_touched_mean",
        pooled(episodes, |e| &e.cells_touched).mean(),
        "count",
    );
    r.layer("eco.journal.append_p50_us", tr.append_us.median(), "us");
    r.layer(
        "eco.journal.append_p99_us",
        tr.append_us.percentile(99.0),
        "us",
    );
    r.layer(
        "eco.journal.bytes_per_delta",
        tr.wal_bytes as f64 / tr.append_us.len().max(1) as f64,
        "B",
    );
    r.layer(
        "eco.proto.encode_report_p50_us",
        tr.encode_us.median(),
        "us",
    );
    r.layer("eco.service.overhead_p50_us", overhead_us.median(), "us");
    r.layer(
        "eco.service.overhead_p99_us",
        overhead_us.percentile(99.0),
        "us",
    );
    r.layer(
        "eco.supervise.scrub_slices",
        per_episode(&|e| e.scrub_slices),
        "count",
    );
}

/// Gates and counts of one episode, shared by traced and untraced runs: every delta was
/// acked exactly once, applied exactly once, and the resident design is still legal.
pub fn check_stream(s: &Stream, r: &mut Report) {
    let sent = s.sent.len() as u64;
    r.attempted += sent;
    r.failed += s.failed;
    let stats = s.engine.stats();
    r.gate(
        "eco.acked_once",
        s.acked == sent && stats.batches == sent && stats.total_applied() + stats.failed == sent,
        format!(
            "sent={sent} acked={} batches={} applied={} failed={}",
            s.acked,
            stats.batches,
            stats.total_applied(),
            stats.failed
        ),
    );
    r.gate(
        "eco.legal",
        s.engine.check_legal(),
        "resident design after the stream",
    );
}
