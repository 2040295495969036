//! Crash durability for the resident engine: a write-ahead delta journal plus periodic
//! design snapshots.
//!
//! The warm engine state is expensive (the 50k-cell bootstrap takes minutes) and, until
//! this module, volatile: any crash lost every applied delta. The durability contract is
//! **journal-before-ack**: an `apply` batch is serialized, checksummed, appended to the
//! journal and flushed *before* the engine touches it — so a batch whose ack a client ever
//! saw is on disk, and a journal write failure surfaces as a typed error with the engine
//! untouched. Recovery loads the newest valid snapshot and replays the journal suffix;
//! because [`crate::engine::EcoEngine::apply`] is deterministic in (design state, delta
//! sequence), the recovered design is bit-identical to the never-crashed one.
//!
//! On-disk layout, per journal directory:
//!
//! ```text
//! snap-<seq>.ecosnap   snapshot generation: engine state after batch <seq>
//! wal-<seq>.log        append-only records for batches <seq>+1, <seq>+2, …
//! ```
//!
//! A snapshot file is one header record (see below) carrying `{"seq":…,"stats":…}`
//! followed by a [`flex_placement::snapshot`] design image (self-checksummed, bit-exact
//! floats). Snapshots are written to a temp file, fsync'd, and atomically renamed; the
//! last **two** generations are kept, so a corrupt newest snapshot falls back to the
//! previous one and its (longer) journal.
//!
//! A journal record is:
//!
//! ```text
//! u32 LE payload length | u32 LE payload CRC-32 | payload
//! ```
//!
//! with a JSON payload `{"seq":N,"deltas":[…]}` reusing the wire delta encoding
//! ([`crate::proto`]), so the journal replays exactly what the socket accepted. A torn or
//! corrupt tail (short header, short payload, CRC mismatch, unparseable JSON, broken seq
//! chain) marks the end of history: recovery truncates the file at the last valid record
//! and reports how many bytes it dropped — a partial append is *never* partially applied.
//!
//! Durability level: records are pushed to the kernel with `write(2)` per append (survives
//! process death, the threat model here); `JournalConfig::fsync` additionally
//! `fdatasync`s every append to survive power loss, at a latency cost well above the
//! service's p50 budget — off by default, and snapshots are always fsync'd either way.

use crate::delta::{EcoDelta, EcoError, EcoReport, EcoStats};
use crate::engine::EcoEngine;
use crate::fault;
use crate::json::Json;
use crate::proto::{decode_delta, encode_delta};
use flex_mgl::config::MglConfig;
use flex_placement::layout::Design;
use flex_placement::snapshot::{crc32, read_design, write_design, SnapshotError};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Upper bound on one journal record's payload. Real batch payloads are bounded by the
/// wire's 16 MiB frame cap; anything bigger in a length header is a corrupt tail, not a
/// record — refusing it keeps a garbage header from driving an unbounded allocation.
pub const MAX_RECORD: u32 = 64 * 1024 * 1024;

/// Where and how durably to journal.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Journal directory (created if missing). One resident engine per directory.
    pub dir: PathBuf,
    /// `fdatasync` every append (power-loss durability). Off by default: the threat model
    /// is process death, which `write(2)` already survives, and fsync-per-record costs
    /// more than the entire sub-millisecond apply budget.
    pub fsync: bool,
    /// Write a snapshot and rotate the journal every this many batches (0 = only the
    /// initial snapshot; recovery then replays the whole journal).
    pub snapshot_every: u64,
}

impl JournalConfig {
    /// Defaults: no per-record fsync, snapshot every 4096 batches.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: false,
            snapshot_every: 4096,
        }
    }
}

/// An open write-ahead journal, appending records for one resident engine.
pub struct Journal {
    cfg: JournalConfig,
    wal: File,
    /// Sequence of the last journaled batch (snapshot base when the journal is fresh).
    seq: u64,
    /// The generation this journal's open wal belongs to (`wal-<base_seq>.log`).
    base_seq: u64,
    /// Bytes appended to the open wal so far (post-recovery: its valid length).
    wal_bytes: u64,
    /// Batches appended to the open wal since its snapshot (drives rotation).
    batches_since_snapshot: u64,
    /// Raised when a failed append could not be rolled back off the file either: the
    /// durable boundary is unknowable, so every further append refuses rather than
    /// risking acked history behind a torn record.
    broken: bool,
}

fn snap_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq}.ecosnap"))
}

fn wal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq}.log"))
}

fn quarantine_path(dir: &Path) -> PathBuf {
    dir.join("quarantine.log")
}

/// Append one quarantine record to `dir`'s `quarantine.log` (the persistence half of
/// [`Journal::quarantine`]). Standalone so recovery can persist a quarantine it performs
/// itself — a batch that panics the engine *during replay* — before any [`Journal`]
/// exists for the directory.
fn append_quarantine(dir: &Path, seq: u64, reason: &str) -> std::io::Result<()> {
    fault::fail_io("eco.quarantine.write")?;
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(quarantine_path(dir))?;
    let mut line = Json::Obj(vec![
        ("seq".into(), Json::Num(seq as f64)),
        ("reason".into(), Json::Str(reason.into())),
    ])
    .to_string();
    line.push('\n');
    f.write_all(line.as_bytes())?;
    f.sync_data()?;
    Ok(())
}

/// `snap-<seq>.ecosnap` / `wal-<seq>.log` → `<seq>`.
fn parse_gen(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

// --- record + stats codecs -------------------------------------------------------------

fn encode_record(seq: u64, deltas: &[EcoDelta]) -> Vec<u8> {
    let payload = Json::Obj(vec![
        ("seq".into(), Json::Num(seq as f64)),
        (
            "deltas".into(),
            Json::Arr(deltas.iter().map(encode_delta).collect()),
        ),
    ])
    .to_string()
    .into_bytes();
    let mut record = Vec::with_capacity(payload.len() + 8);
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

fn decode_record_payload(payload: &[u8]) -> Result<(u64, Vec<EcoDelta>), String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
    let json = Json::parse(text)?;
    let seq = json
        .get("seq")
        .and_then(Json::as_i64)
        .and_then(|n| u64::try_from(n).ok())
        .ok_or("record missing \"seq\"")?;
    let deltas = json
        .get("deltas")
        .and_then(Json::as_arr)
        .ok_or("record missing \"deltas\"")?
        .iter()
        .map(decode_delta)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((seq, deltas))
}

fn stats_to_json(stats: &EcoStats) -> Json {
    let arr = |a: &[u64; 4]| Json::Arr(a.iter().map(|&v| Json::Num(v as f64)).collect());
    Json::Obj(vec![
        ("applied".into(), arr(&stats.applied)),
        ("failed_by_kind".into(), arr(&stats.failed_by_kind)),
        ("batches".into(), Json::Num(stats.batches as f64)),
        ("fallbacks".into(), Json::Num(stats.fallbacks as f64)),
        ("failed".into(), Json::Num(stats.failed as f64)),
    ])
}

/// Keys it does not know are ignored, so snapshots written with retired counters (such as
/// `store_recaptures`, `index_rebuilds` and `density_rebuilds`) still load.
fn stats_from_json(json: &Json) -> Result<EcoStats, String> {
    let num = |key: &str| -> Result<u64, String> {
        json.get(key)
            .and_then(Json::as_i64)
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| format!("snapshot stats missing \"{key}\""))
    };
    let arr = |key: &str| -> Result<[u64; 4], String> {
        let a = json
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("snapshot stats missing \"{key}\""))?;
        if a.len() != 4 {
            return Err(format!("snapshot stats \"{key}\" must have 4 buckets"));
        }
        let mut out = [0u64; 4];
        for (slot, v) in out.iter_mut().zip(a) {
            *slot = v
                .as_i64()
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| format!("snapshot stats \"{key}\" bucket not a count"))?;
        }
        Ok(out)
    };
    Ok(EcoStats {
        applied: arr("applied")?,
        failed_by_kind: arr("failed_by_kind")?,
        batches: num("batches")?,
        fallbacks: num("fallbacks")?,
        failed: num("failed")?,
    })
}

// --- snapshot files --------------------------------------------------------------------

fn write_snapshot_file(
    path: &Path,
    seq: u64,
    design: &Design,
    stats: &EcoStats,
) -> std::io::Result<()> {
    let mut image = Vec::new();
    write_design(&mut image, design)?;
    write_snapshot_file_bytes(path, seq, &image, stats)
}

/// Like [`write_snapshot_file`] but from an already-serialized design image — the
/// supervised path, where the engine lives on the worker thread and ships its state to
/// the supervisor as `write_design` bytes rather than by reference.
fn write_snapshot_file_bytes(
    path: &Path,
    seq: u64,
    image: &[u8],
    stats: &EcoStats,
) -> std::io::Result<()> {
    fault::fail_io("eco.snapshot.write")?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        let header = Json::Obj(vec![
            ("seq".into(), Json::Num(seq as f64)),
            ("stats".into(), stats_to_json(stats)),
        ])
        .to_string()
        .into_bytes();
        f.write_all(&(header.len() as u32).to_le_bytes())?;
        f.write_all(&crc32(&header).to_le_bytes())?;
        f.write_all(&header)?;
        f.write_all(image)?;
        f.sync_all()?;
    }
    // atomic publish: a crash before this rename leaves only the temp file, which
    // recovery ignores; after it, the snapshot is complete by construction
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn read_snapshot_file(path: &Path) -> Result<(u64, EcoStats, Design), String> {
    let mut f = File::open(path).map_err(|e| format!("open: {e}"))?;
    let mut word = [0u8; 4];
    f.read_exact(&mut word)
        .map_err(|e| format!("header: {e}"))?;
    let len = u32::from_le_bytes(word);
    if len > MAX_RECORD {
        return Err(format!("implausible header length {len}"));
    }
    f.read_exact(&mut word)
        .map_err(|e| format!("header: {e}"))?;
    let expect_crc = u32::from_le_bytes(word);
    let mut header = vec![0u8; len as usize];
    f.read_exact(&mut header)
        .map_err(|e| format!("header: {e}"))?;
    if crc32(&header) != expect_crc {
        return Err("header CRC mismatch".to_string());
    }
    let text = std::str::from_utf8(&header).map_err(|e| format!("header not UTF-8: {e}"))?;
    let json = Json::parse(text)?;
    let seq = json
        .get("seq")
        .and_then(Json::as_i64)
        .and_then(|n| u64::try_from(n).ok())
        .ok_or("snapshot header missing \"seq\"")?;
    let stats = stats_from_json(
        json.get("stats")
            .ok_or("snapshot header missing \"stats\"")?,
    )?;
    let design = read_design(&mut f).map_err(|e| match e {
        SnapshotError::Io(e) => format!("design image: {e}"),
        SnapshotError::Corrupt(msg) => format!("design image: {msg}"),
    })?;
    Ok((seq, stats, design))
}

// --- the journal -----------------------------------------------------------------------

impl Journal {
    /// Start a fresh journal for an engine whose current state is (`design`, `stats`)
    /// after batch `seq` (0 for a just-bootstrapped engine): write the initial snapshot,
    /// open its empty wal. The directory is created if missing; pre-existing generations
    /// are left alone (recovery, not creation, is how they are consumed — see
    /// [`recover_engine`]).
    pub fn create(
        cfg: JournalConfig,
        design: &Design,
        stats: &EcoStats,
        seq: u64,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(&cfg.dir)?;
        write_snapshot_file(&snap_path(&cfg.dir, seq), seq, design, stats)?;
        let wal = File::create(wal_path(&cfg.dir, seq))?;
        let journal = Self {
            cfg,
            wal,
            seq,
            base_seq: seq,
            wal_bytes: 0,
            batches_since_snapshot: 0,
            broken: false,
        };
        journal.publish_gauges();
        Ok(journal)
    }

    /// Sequence of the last journaled batch.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Bytes in the currently open wal.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// The journal's configuration (the supervisor re-opens the directory from this when
    /// rebuilding a crashed engine).
    pub fn config(&self) -> &JournalConfig {
        &self.cfg
    }

    /// Whether the rotation interval has elapsed — the supervisor polls this to decide
    /// when to request a design image from the worker for [`Journal::
    /// snapshot_now_from_image`].
    pub fn snapshot_due(&self) -> bool {
        self.cfg.snapshot_every != 0 && self.batches_since_snapshot >= self.cfg.snapshot_every
    }

    /// Durably append one batch **before** it is applied. On success the batch is safe
    /// against process death and its sequence number is returned; on failure nothing may
    /// be applied (the caller turns the error into a typed [`crate::delta::EcoError::
    /// Journal`] and the engine stays untouched — a partial record left by a failed write
    /// is exactly the torn tail recovery truncates).
    pub fn append(&mut self, deltas: &[EcoDelta]) -> std::io::Result<u64> {
        self.append_group(std::slice::from_ref(&deltas))
            .map(|seqs| seqs[0])
    }

    /// Group-commit append: durably record several batches with **one** write and one
    /// `fdatasync` (in `fsync` mode), then return their sequence numbers so every batch
    /// can be acked together — this is what makes power-loss durability affordable under
    /// concurrent clients (N queued batches cost one disk flush, not N).
    ///
    /// All-or-nothing: on any failure the wal is rolled back to the pre-group boundary
    /// (`set_len` + seek), no batch is durable, and the caller must reject the whole
    /// group. If even the rollback fails, the journal marks itself broken and refuses
    /// further appends — an unknowable durable boundary must not accept acks.
    pub fn append_group(&mut self, batches: &[&[EcoDelta]]) -> std::io::Result<Vec<u64>> {
        if self.broken {
            return Err(std::io::Error::other(
                "journal broken: a failed append could not be rolled back",
            ));
        }
        if batches.is_empty() {
            return Ok(Vec::new());
        }
        let start = Instant::now();
        let mut seqs = Vec::with_capacity(batches.len());
        let mut buf = Vec::new();
        for (i, deltas) in batches.iter().enumerate() {
            let seq = self.seq + 1 + i as u64;
            buf.extend_from_slice(&encode_record(seq, deltas));
            seqs.push(seq);
        }
        let result = fault::fail_io("eco.journal.write")
            .and_then(|()| self.wal.write_all(&buf))
            .and_then(|()| fault::fail_io("eco.journal.flush"))
            .and_then(|()| {
                if self.cfg.fsync {
                    self.wal.sync_data()
                } else {
                    Ok(())
                }
            });
        let registry = flex_obs::global();
        if let Err(e) = result {
            registry.counter("eco_journal_write_errors_total").inc();
            // roll the file back to the last acked boundary: a partial record must not
            // linger ahead of future appends (recovery would truncate *at* the tear and
            // drop acked history written after it), and a fully written record whose
            // flush failed must not become durable without its ack
            let repaired = self
                .wal
                .set_len(self.wal_bytes)
                .and_then(|()| self.wal.seek(SeekFrom::Start(self.wal_bytes)));
            if let Err(repair) = repaired {
                self.broken = true;
                registry.counter("eco_journal_broken_total").inc();
                eprintln!(
                    "eco journal: failed append could not be rolled back ({repair}); \
                     journal disabled until restart"
                );
            }
            return Err(e);
        }
        self.seq += batches.len() as u64;
        self.wal_bytes += buf.len() as u64;
        self.batches_since_snapshot += batches.len() as u64;
        registry
            .histogram("eco_journal_append_ns")
            .record_duration(start.elapsed());
        registry
            .counter("eco_journal_records_total")
            .add(batches.len() as u64);
        if batches.len() > 1 {
            registry.counter("eco_journal_group_commits_total").inc();
            registry
                .histogram("eco_journal_group_size")
                .record(batches.len() as u64);
        }
        self.publish_gauges();
        Ok(seqs)
    }

    /// Persist a quarantine record for batch `seq`: replay will skip it forever (see
    /// [`load_quarantine`] / [`recover_engine`]). Always fsync'd — quarantines are rare
    /// and must survive anything the poisoned batch does next. The record is a JSON line
    /// appended to `quarantine.log` in the journal directory.
    pub fn quarantine(&mut self, seq: u64, reason: &str) -> std::io::Result<()> {
        append_quarantine(&self.cfg.dir, seq, reason)
    }

    /// Write a snapshot + rotate now if the rotation interval has elapsed. Rotation
    /// failures are reported but recoverable: the current wal stays open and valid, so
    /// the only cost of a failed snapshot is a longer replay.
    pub fn maybe_snapshot(&mut self, design: &Design, stats: &EcoStats) -> std::io::Result<bool> {
        if self.cfg.snapshot_every == 0 || self.batches_since_snapshot < self.cfg.snapshot_every {
            return Ok(false);
        }
        self.snapshot_now(design, stats)?;
        Ok(true)
    }

    /// Unconditionally snapshot the engine state after batch [`Journal::seq`] and rotate
    /// to a fresh wal, then prune generations older than the previous one (keep 2).
    pub fn snapshot_now(&mut self, design: &Design, stats: &EcoStats) -> std::io::Result<()> {
        let mut image = Vec::new();
        write_design(&mut image, design)?;
        self.snapshot_now_from_image(&image, stats)
    }

    /// [`Journal::snapshot_now`] from an already-serialized design image (the bytes
    /// `write_design` produced) — used by the supervisor, which cannot borrow the engine
    /// across the worker-thread boundary and receives its state as an image instead.
    pub fn snapshot_now_from_image(
        &mut self,
        image: &[u8],
        stats: &EcoStats,
    ) -> std::io::Result<()> {
        let start = Instant::now();
        let seq = self.seq;
        write_snapshot_file_bytes(&snap_path(&self.cfg.dir, seq), seq, image, stats)?;
        self.wal = File::create(wal_path(&self.cfg.dir, seq))?;
        let old_base = self.base_seq;
        self.base_seq = seq;
        self.wal_bytes = 0;
        self.batches_since_snapshot = 0;
        self.prune_before(old_base);
        let registry = flex_obs::global();
        registry.counter("eco_snapshots_total").inc();
        registry
            .histogram("eco_snapshot_write_ns")
            .record_duration(start.elapsed());
        self.publish_gauges();
        Ok(())
    }

    /// Delete generations older than `keep_from` (the previous generation's base). Best
    /// effort: a file that will not delete only wastes disk, never correctness.
    fn prune_before(&self, keep_from: u64) {
        let Ok(entries) = std::fs::read_dir(&self.cfg.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = parse_gen(name, "snap-", ".ecosnap")
                .or_else(|| parse_gen(name, "wal-", ".log"))
                .is_some_and(|g| g < keep_from);
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    fn publish_gauges(&self) {
        let registry = flex_obs::global();
        registry
            .gauge("eco_journal_wal_bytes")
            .set(self.wal_bytes as i64);
        registry.gauge("eco_journal_seq").set(self.seq as i64);
    }
}

// --- recovery --------------------------------------------------------------------------

/// What recovery found and did (for logs, metrics and the recovery benchmark).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Sequence of the snapshot recovery started from.
    pub base_seq: u64,
    /// Journaled batches replayed on top of the snapshot.
    pub replayed: u64,
    /// Replayed batches the engine rejected — these were rejected before the crash too
    /// (journal-before-apply records rejected batches; replay re-rejects them
    /// identically).
    pub rejected: u64,
    /// Torn/corrupt tail bytes truncated off the journal.
    pub truncated_bytes: u64,
    /// Newer snapshot generations skipped because they failed validation.
    pub snapshots_skipped: u64,
    /// Journaled batches skipped because a quarantine record marked them poisoned (they
    /// crashed or hung the engine before; replaying them would do it again).
    pub quarantined_skipped: u64,
    /// Replay outcomes captured for the supervisor: for each sequence number in the
    /// caller's capture set (a batch journaled but not yet answered when the rebuild
    /// started), the exact result its `apply` produced during replay — so the waiting
    /// client can be answered from replay instead of the batch being applied twice.
    pub captured: Vec<(u64, Result<EcoReport, EcoError>)>,
    /// Batches quarantined *by this recovery* because they panicked the engine on replay
    /// (their quarantine record was missing, e.g. after a failed persist). Each was
    /// persisted best-effort and recovery restarted without it.
    pub auto_quarantined: Vec<(u64, String)>,
    /// Wall-clock time of recovery (snapshot load + replay).
    pub replay_time: std::time::Duration,
}

/// Read the quarantine set of a journal directory: the sequence numbers of batches that
/// poisoned the engine and must never be replayed. Tolerant of a torn last line (a crash
/// mid-append leaves at worst one partial record, which is ignored) and of a missing
/// file (no quarantines yet).
pub fn load_quarantine(dir: &Path) -> BTreeSet<u64> {
    let mut out = BTreeSet::new();
    let Ok(text) = std::fs::read_to_string(quarantine_path(dir)) else {
        return out;
    };
    for line in text.lines() {
        let Ok(json) = Json::parse(line) else {
            continue; // torn tail from a crash mid-quarantine: skip, keep earlier records
        };
        if let Some(seq) = json
            .get("seq")
            .and_then(Json::as_i64)
            .and_then(|n| u64::try_from(n).ok())
        {
            out.insert(seq);
        }
    }
    out
}

/// One wal file's valid prefix: the records decoded, and where validity ended.
struct WalScan {
    batches: Vec<(u64, Vec<EcoDelta>)>,
    valid_len: u64,
    truncated: u64,
}

/// Read `wal` from the start, accepting records while (length plausible, payload
/// complete, CRC matches, JSON decodes, seq == `expect` …): the first violation is the
/// torn tail — everything before it is history, everything from it on is noise.
fn scan_wal(path: &Path, mut expect: u64) -> std::io::Result<WalScan> {
    let bytes = std::fs::read(path)?;
    let mut batches = Vec::new();
    let mut pos = 0usize;
    let valid = loop {
        if pos + 8 > bytes.len() {
            break pos; // short header: clean EOF (pos == len) or torn tail
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD {
            break pos;
        }
        let (lo, hi) = (pos + 8, pos + 8 + len as usize);
        if hi > bytes.len() {
            break pos; // torn payload
        }
        let payload = &bytes[lo..hi];
        if crc32(payload) != crc {
            break pos;
        }
        let Ok((seq, deltas)) = decode_record_payload(payload) else {
            break pos;
        };
        if seq != expect {
            break pos; // broken chain — cannot trust anything past a sequence gap
        }
        batches.push((seq, deltas));
        expect += 1;
        pos = hi;
    };
    Ok(WalScan {
        batches,
        valid_len: valid as u64,
        truncated: (bytes.len() - valid) as u64,
    })
}

/// Recover a resident engine from `cfg.dir`, replaying the journal suffix on top of the
/// newest valid snapshot, and hand back the engine together with a [`Journal`] open for
/// appending right where history ends. Returns `Ok(None)` when the directory holds no
/// snapshot at all (fresh start — bootstrap normally, then [`Journal::create`]).
///
/// Torn/corrupt journal tails are physically truncated; corrupt snapshots are skipped
/// (falling back to the previous generation) and deleted. Replayed batches the engine
/// rejects were rejected before the crash too and count in
/// [`RecoveryReport::rejected`].
pub fn recover_engine(
    cfg: JournalConfig,
    mgl: MglConfig,
) -> std::io::Result<Option<(EcoEngine, Journal, RecoveryReport)>> {
    recover_engine_supervised(cfg, mgl, &BTreeSet::new(), &BTreeSet::new())
}

/// One attempt of [`recover_engine_supervised`]: either finished, or aborted because a
/// replayed batch panicked the engine — the half-mutated engine is discarded and recovery
/// restarts with the batch quarantined.
enum RecoverStep {
    Done(Option<Box<(EcoEngine, Journal, RecoveryReport)>>),
    ReplayPanic { seq: u64, reason: String },
}

/// [`recover_engine`] with the supervisor's extra context:
///
/// - `capture`: sequence numbers whose replay outcome the caller needs (group members
///   journaled but not yet answered when a mid-group rebuild replays them) — reported in
///   [`RecoveryReport::captured`] so the waiting clients are answered from replay instead
///   of their batches being dispatched — and applied — a second time;
/// - `extra_quarantine`: sequence numbers the caller knows are poisoned even if their
///   on-disk record is missing (a failed quarantine persist must not let the batch
///   resurface in replay).
///
/// Replay is panic-guarded: a batch that panics the engine during replay (its quarantine
/// record never made it to disk) is quarantined now — persisted best-effort, always held
/// in memory — and recovery restarts without it, instead of crashing the process on every
/// startup. Each restart quarantines a new sequence number, so the loop terminates.
pub fn recover_engine_supervised(
    cfg: JournalConfig,
    mgl: MglConfig,
    capture: &BTreeSet<u64>,
    extra_quarantine: &BTreeSet<u64>,
) -> std::io::Result<Option<(EcoEngine, Journal, RecoveryReport)>> {
    fault::fail_io("eco.recover.fail")?;
    let mut auto: BTreeMap<u64, String> = BTreeMap::new();
    loop {
        match try_recover(&cfg, &mgl, capture, extra_quarantine, &auto)? {
            RecoverStep::Done(None) => return Ok(None),
            RecoverStep::Done(Some(done)) => {
                let (engine, journal, mut report) = *done;
                report.auto_quarantined = auto.into_iter().collect();
                return Ok(Some((engine, journal, report)));
            }
            RecoverStep::ReplayPanic { seq, reason } => {
                eprintln!(
                    "eco journal: batch {seq} panicked during replay ({reason}); \
                     quarantined, recovery restarted"
                );
                if let Err(e) = append_quarantine(&cfg.dir, seq, &reason) {
                    // the in-memory record still lets THIS recovery converge; the next
                    // boot re-discovers the panic and retries the persist
                    eprintln!("eco journal: failed to persist quarantine of batch {seq}: {e}");
                }
                auto.insert(seq, reason);
            }
        }
    }
}

fn try_recover(
    cfg: &JournalConfig,
    mgl: &MglConfig,
    capture: &BTreeSet<u64>,
    extra_quarantine: &BTreeSet<u64>,
    auto: &BTreeMap<u64, String>,
) -> std::io::Result<RecoverStep> {
    let start = Instant::now();
    let mut report = RecoveryReport::default();

    // newest snapshot first; fall back (and delete) on corruption
    let mut snapshots: Vec<u64> = match std::fs::read_dir(&cfg.dir) {
        Ok(entries) => entries
            .flatten()
            .filter_map(|e| parse_gen(e.file_name().to_str()?, "snap-", ".ecosnap"))
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    snapshots.sort_unstable_by(|a, b| b.cmp(a));

    let mut loaded: Option<(u64, EcoStats, Design)> = None;
    for &seq in &snapshots {
        let path = snap_path(&cfg.dir, seq);
        match read_snapshot_file(&path) {
            Ok((snap_seq, stats, design)) if snap_seq == seq => {
                loaded = Some((seq, stats, design));
                break;
            }
            Ok((snap_seq, ..)) => {
                eprintln!(
                    "eco journal: snapshot {} claims seq {snap_seq}, skipping",
                    path.display()
                );
                report.snapshots_skipped += 1;
                let _ = std::fs::remove_file(&path);
            }
            Err(msg) => {
                eprintln!(
                    "eco journal: snapshot {} unusable ({msg}), skipping",
                    path.display()
                );
                report.snapshots_skipped += 1;
                let _ = std::fs::remove_file(&path);
            }
        }
    }
    let Some((base_seq, stats, design)) = loaded else {
        return Ok(RecoverStep::Done(None));
    };
    report.base_seq = base_seq;
    let quarantined = load_quarantine(&cfg.dir);

    let mut engine = EcoEngine::resume(design, mgl.clone(), stats)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;

    // walk the wal generations forward from the chosen snapshot, enforcing one unbroken
    // sequence chain across files; the first torn record ends history
    let mut wal_bases: Vec<u64> = match std::fs::read_dir(&cfg.dir) {
        Ok(entries) => entries
            .flatten()
            .filter_map(|e| parse_gen(e.file_name().to_str()?, "wal-", ".log"))
            .filter(|&b| b >= base_seq)
            .collect(),
        Err(e) => return Err(e),
    };
    wal_bases.sort_unstable();

    let mut seq = base_seq;
    let mut tail: Option<(u64, u64)> = None; // (base of wal history ends in, its valid length)
    for &base in &wal_bases {
        if tail.is_some() {
            // history already ended in an earlier generation: anything later is
            // unreachable past a gap — drop it
            let _ = std::fs::remove_file(wal_path(&cfg.dir, base));
            continue;
        }
        if base != seq {
            // generation gap (e.g. a crash between snapshot rename and wal creation left
            // no wal for `seq`): stop here, appending resumes on a fresh wal
            tail = Some((seq, u64::MAX));
            let _ = std::fs::remove_file(wal_path(&cfg.dir, base));
            continue;
        }
        let scan = scan_wal(&wal_path(&cfg.dir, base), seq + 1)?;
        report.truncated_bytes += scan.truncated;
        for (record_seq, deltas) in scan.batches {
            let poisoned = quarantined.contains(&record_seq)
                || extra_quarantine.contains(&record_seq)
                || auto.contains_key(&record_seq);
            if poisoned {
                // poisoned batch: it crashed or hung the engine once; replaying it would
                // do so again. The sequence still advances — the hole is permanent.
                report.quarantined_skipped += 1;
                if capture.contains(&record_seq) {
                    let reason = auto
                        .get(&record_seq)
                        .cloned()
                        .unwrap_or_else(|| "batch was quarantined".to_string());
                    report.captured.push((
                        record_seq,
                        Err(EcoError::Poisoned {
                            seq: record_seq,
                            reason,
                        }),
                    ));
                }
            } else {
                // replay with fault injection suppressed: a deterministic failpoint
                // schedule (e.g. `eco.engine.panic=nth:3`) must not re-fire on history
                // that already survived it, or recovery could never converge. Guarded
                // against panics: a batch missing its quarantine record is quarantined
                // here rather than crashing recovery on every boot.
                let applied = catch_unwind(AssertUnwindSafe(|| {
                    fault::with_suppressed(|| engine.apply(&deltas))
                }));
                let result = match applied {
                    Err(panic) => {
                        return Ok(RecoverStep::ReplayPanic {
                            seq: record_seq,
                            reason: fault::panic_message(&*panic),
                        });
                    }
                    Ok(result) => result,
                };
                if result.is_err() {
                    report.rejected += 1;
                }
                if capture.contains(&record_seq) {
                    report.captured.push((record_seq, result));
                }
                report.replayed += 1;
            }
            seq = record_seq;
        }
        if scan.truncated > 0 {
            tail = Some((base, scan.valid_len));
        }
    }

    // open the wal history ends in for appending, truncating any torn tail off first
    let (wal_base, wal, wal_bytes) = match tail {
        // the generation whose wal never got created: make it now
        Some((_, u64::MAX)) => (seq, File::create(wal_path(&cfg.dir, seq))?, 0),
        Some((base, valid_len)) => {
            let path = wal_path(&cfg.dir, base);
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(valid_len)?;
            (
                base,
                OpenOptions::new().append(true).open(&path)?,
                valid_len,
            )
        }
        None => match wal_bases.last() {
            Some(&base) => {
                let path = wal_path(&cfg.dir, base);
                let len = std::fs::metadata(&path)?.len();
                (base, OpenOptions::new().append(true).open(&path)?, len)
            }
            None => (base_seq, File::create(wal_path(&cfg.dir, base_seq))?, 0),
        },
    };

    report.replay_time = start.elapsed();
    let registry = flex_obs::global();
    registry.counter("eco_recoveries_total").inc();
    registry
        .counter("eco_recovery_replayed_total")
        .add(report.replayed);
    registry
        .counter("eco_recovery_truncated_bytes_total")
        .add(report.truncated_bytes);

    let journal = Journal {
        cfg: cfg.clone(),
        wal,
        seq,
        base_seq: wal_base,
        wal_bytes,
        batches_since_snapshot: seq - wal_base,
        broken: false,
    };
    journal.publish_gauges();
    Ok(RecoverStep::Done(Some(Box::new((engine, journal, report)))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_stats_with_the_retired_store_recaptures_key_still_load() {
        let stats = EcoStats {
            applied: [5, 1, 2, 1],
            batches: 7,
            failed: 1,
            failed_by_kind: [0, 1, 0, 0],
            ..EcoStats::default()
        };
        let Json::Obj(mut fields) = stats_to_json(&stats) else {
            panic!("stats encode as an object");
        };
        for retired in ["store_recaptures", "index_rebuilds", "density_rebuilds"] {
            fields.push((retired.into(), Json::Num(4.0)));
        }
        let old = Json::parse(&Json::Obj(fields).to_string()).unwrap();
        assert_eq!(stats_from_json(&old), Ok(stats));
    }
}
