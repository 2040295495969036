//! Self-healing supervision for the resident engine: watchdog, poison-batch quarantine,
//! supervised restarts, and a background invariant scrubber.
//!
//! A service should survive a poisoned batch: one bad delta stream must not take the
//! socket away from every other client. So the engine runs on a disposable **worker
//! thread** and the long-lived **supervisor thread** owns everything that must survive an
//! engine crash: the job queue, the journal, the quarantine set, and the health state
//! machine. Per batch, the supervisor:
//!
//! 1. journals the batch (journal-before-ack, unchanged; in `--fsync` mode queued
//!    batches are group-committed so N batches cost one `fdatasync`, not N);
//! 2. hands it to the worker and waits with a **deadline** ([`SuperviseConfig::
//!    batch_deadline`]) — a worker that panics is reaped, a worker that hangs is
//!    abandoned (never joined; it exits on its own once the stall ends, because its
//!    reply channel is gone);
//! 3. on either failure **quarantines** the batch — the client gets a typed
//!    `Poisoned {seq}` reply, and a persisted record in `quarantine.log` makes every
//!    future replay skip it — then **rebuilds** a fresh engine from snapshot + journal
//!    *without dropping a single connection* (a server started without a journal owns a
//!    private one for exactly this, see [`crate::service`]). Apply requests that arrive
//!    during the rebuild window are shed with a typed `Recovering {retry_after_ms}` the
//!    client retry loop absorbs. Group members journaled but not yet dispatched when the
//!    rebuild fires are applied *by the replay*; the dispatch loop answers them from the
//!    captured replay outcome rather than applying them a second time.
//!
//! Because replay runs with fault injection suppressed ([`crate::fault::
//! with_suppressed`]) and skips quarantined sequence numbers, the rebuilt engine is
//! bit-identical to an engine that had rejected the poisoned batch up front — the
//! supervised fault-matrix tests assert exactly that. Replay is additionally
//! panic-guarded: a batch whose quarantine record never reached disk is re-detected,
//! auto-quarantined, and recovery restarts without it instead of crashing on every
//! boot. A rebuild that *fails* (e.g. transient I/O error reading the journal) keeps
//! the journal configuration and is retried on the next dispatch and on every idle
//! tick, so a transient recovery failure never becomes permanent. Only the supervisor
//! thread itself can still take the server down: if the engine cannot be rebuilt at
//! shutdown it panics, and `ServerHandle::join` re-raises that after the wind-down.
//!
//! **Invariant scrubber.** Idle ticks and post-batch slack run incremental audits of
//! the engine's acceleration structures (legalized index, density map, segment map)
//! against the design, a slice of rows at a time: recently disturbed rows first, then a
//! round-robin sweep sized so a full pass completes within 512 (`SWEEP_BATCHES`)
//! batches. A batch's priority slice is the rows of its outcomes' `disturbed` rects as
//! sorted, disjoint ranges: each target's old extent, the last window planning read (the
//! whole die after a fallback scan) and the rects the batch wrote, so the slice covers
//! every row the batch read or wrote and nothing else. Each batch schedules its slices
//! (usually its dirty rows plus one sweep slice; an idle tick one slice), merges them, and
//! hands the sorted union to the worker in one request, which audits all three structures
//! from one pass over the design (`EcoEngine::audit`). Detection contract: every row a
//! batch read or wrote is audited right after its reply, and every other row within one
//! sweep. A detected divergence is a typed corruption event (counter + health
//! `last_fault`), and the engine degrades gracefully: only the corrupt structure is
//! rebuilt from the design, in place, on the worker thread. The `eco.scrub.corrupt`
//! failpoint injects real corruption (rotating across the three structures) into the next
//! audited rows to prove the scrubber finds and repairs it. The `metrics` op exports the
//! worker-side audit time (`eco_scrub_audit_ns`) and the rows audited
//! (`eco_scrub_rows`) per hand-off, and each job's queue wait (`eco_queue_wait_ns`).
//!
//! **Health.** The `health` protocol op reports the state machine — `healthy` →
//! `recovering` (rebuild in progress) → `degraded` (sticky once a batch was quarantined
//! or a corruption was found) — plus restart/quarantine/scrub counters. It is answered
//! by the *connection* thread from [`SupervisorShared`], so it works even while the
//! engine is hung mid-batch or mid-rebuild.

use crate::delta::{EcoDelta, EcoError, EcoReport, EcoStats};
use crate::engine::{EcoEngine, ScrubStructure};
use crate::fault;
use crate::journal::{self, Journal, JournalConfig};
use crate::proto::{encode_error, encode_health, encode_report, encode_stats, Request};
use crate::service::{query_response, Job, StopGuard};
use flex_mgl::config::MglConfig;
use flex_placement::census::merge_ranges;
use flex_placement::snapshot::write_design;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most queued batches folded into one group commit (one fsync). Bounded so a burst
/// cannot defer the first client's ack indefinitely.
const GROUP_MAX: usize = 32;

/// Bound on the queue of recently disturbed batches' rows awaiting a priority audit (one
/// entry per batch). Overflow falls back to the background sweep, which audits everything
/// eventually.
const DIRTY_QUEUE_MAX: usize = 64;

/// Rows per scrub slice, the unit the sweep advances by and `scrub_slices` counts.
const SLICE_ROWS: i64 = 32;

/// The background sweep is sized so a full pass over all rows completes within this many
/// applied batches.
const SWEEP_BATCHES: u64 = 512;

/// How long the supervisor idles on an empty job queue before spending the time on one
/// scrub slice instead.
const IDLE_TICK: Duration = Duration::from_millis(50);

/// Most dirty (recently disturbed) batches' rows audited right after one batch.
const MAX_DIRTY_PER_BATCH: usize = 2;

/// Row ranges `[lo, hi)`; as a scrub slice or a batch's dirty rows, sorted and disjoint.
type RowRanges = Vec<(i64, i64)>;

/// Tuning for the supervision layer.
#[derive(Debug, Clone)]
pub struct SuperviseConfig {
    /// Watchdog deadline per engine interaction: a batch (or query) the worker has not
    /// answered within this window counts as a hang, the batch is quarantined and the
    /// worker abandoned.
    pub batch_deadline: Duration,
    /// The retry-after hint carried by `Recovering` sheds, in milliseconds.
    pub retry_after_ms: u64,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        Self {
            batch_deadline: Duration::from_secs(5),
            retry_after_ms: 25,
        }
    }
}

/// The health state machine. `Degraded` is sticky: once a batch has been quarantined or
/// a structure corruption was found, the server keeps serving but stops claiming full
/// health — an operator should look at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SupervisorState {
    /// Serving normally.
    Healthy = 0,
    /// An engine rebuild is in progress; applies are shed with `Recovering`.
    Recovering = 1,
    /// Serving, but at least one batch was quarantined or one corruption repaired.
    Degraded = 2,
}

impl SupervisorState {
    /// Wire name of the state (the `health` op's `state` field).
    pub fn name(self) -> &'static str {
        match self {
            SupervisorState::Healthy => "healthy",
            SupervisorState::Recovering => "recovering",
            SupervisorState::Degraded => "degraded",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => SupervisorState::Recovering,
            2 => SupervisorState::Degraded,
            _ => SupervisorState::Healthy,
        }
    }
}

/// The supervisor's externally visible state: connection threads answer `health` from
/// this (and shed applies during rebuilds), so it must stay readable while the engine
/// is hung or mid-rebuild.
pub struct SupervisorShared {
    retry_after_ms: u64,
    state: AtomicU8,
    restarts: AtomicU64,
    quarantined: AtomicU64,
    scrub_slices: AtomicU64,
    scrub_sweeps: AtomicU64,
    scrub_corruptions: AtomicU64,
    scrub_rebuilds: AtomicU64,
    scrub_pos: AtomicU64,
    scrub_total: AtomicU64,
    last_fault: Mutex<Option<String>>,
    started: Instant,
}

impl SupervisorShared {
    pub(crate) fn new(retry_after_ms: u64) -> Self {
        Self {
            retry_after_ms,
            state: AtomicU8::new(SupervisorState::Healthy as u8),
            restarts: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            scrub_slices: AtomicU64::new(0),
            scrub_sweeps: AtomicU64::new(0),
            scrub_corruptions: AtomicU64::new(0),
            scrub_rebuilds: AtomicU64::new(0),
            scrub_pos: AtomicU64::new(0),
            scrub_total: AtomicU64::new(1),
            last_fault: Mutex::new(None),
            started: Instant::now(),
        }
    }

    /// Current health state.
    pub fn state(&self) -> SupervisorState {
        SupervisorState::from_u8(self.state.load(Ordering::SeqCst))
    }

    pub(crate) fn retry_after_ms(&self) -> u64 {
        self.retry_after_ms
    }

    fn set_state(&self, state: SupervisorState) {
        self.state.store(state as u8, Ordering::SeqCst);
        flex_obs::global()
            .gauge("eco_health_state")
            .set(state as u8 as i64);
    }

    fn note_fault(&self, reason: &str) {
        if let Ok(mut slot) = self.last_fault.lock() {
            *slot = Some(reason.to_string());
        }
    }

    /// Snapshot for the `health` op.
    pub fn snapshot(&self) -> HealthSnapshot {
        let total = self.scrub_total.load(Ordering::Relaxed).max(1);
        HealthSnapshot {
            state: self.state(),
            restarts: self.restarts.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            scrub_slices: self.scrub_slices.load(Ordering::Relaxed),
            scrub_sweeps: self.scrub_sweeps.load(Ordering::Relaxed),
            scrub_corruptions: self.scrub_corruptions.load(Ordering::Relaxed),
            scrub_rebuilds: self.scrub_rebuilds.load(Ordering::Relaxed),
            scrub_progress: self.scrub_pos.load(Ordering::Relaxed) as f64 / total as f64,
            uptime: self.started.elapsed(),
            last_fault: self.last_fault.lock().map(|g| g.clone()).unwrap_or(None),
        }
    }
}

/// One observation of the supervisor, as reported by the `health` op.
#[derive(Debug, Clone)]
pub struct HealthSnapshot {
    /// Health state machine position.
    pub state: SupervisorState,
    /// Engine rebuilds performed (panic, hang, or query casualty).
    pub restarts: u64,
    /// Batches quarantined so far (persisted; replay skips them forever).
    pub quarantined: u64,
    /// Scrub slices audited.
    pub scrub_slices: u64,
    /// Complete scrub sweeps over every row.
    pub scrub_sweeps: u64,
    /// Structure corruptions the scrubber detected.
    pub scrub_corruptions: u64,
    /// Structures rebuilt in place after a detected corruption.
    pub scrub_rebuilds: u64,
    /// Background sweep position as a fraction of rows, `0.0 ..= 1.0`.
    pub scrub_progress: f64,
    /// Time since the server started.
    pub uptime: Duration,
    /// Most recent fault reason (panic message, hang, corruption), if any.
    pub last_fault: Option<String>,
}

// --- the worker thread -----------------------------------------------------------------

enum WorkItem {
    Apply(Vec<EcoDelta>),
    Query(Request),
    /// Audit the rows of the ranges (the merged slices of one scrub hand-off) once.
    Scrub {
        ranges: RowRanges,
    },
    Image,
    TakeEngine,
}

enum WorkReply {
    Applied {
        response: Vec<u8>,
        dirty: RowRanges,
    },
    Response(Vec<u8>),
    Scrubbed {
        rebuilt: Vec<(ScrubStructure, String)>,
    },
    Image {
        design: Vec<u8>,
        stats: EcoStats,
    },
    Panicked(String),
    Engine(Box<EcoEngine>),
}

/// Rows a batch read or wrote (feeds the scrubber's priority queue): the rows of its
/// [`EcoReport::disturbed`] rects — each target's old extent, the last window planning
/// read (the die after a fallback scan) and the rects the batch wrote — as sorted,
/// disjoint ranges. Empty when the batch placed nothing.
fn dirty_rows(report: &EcoReport) -> RowRanges {
    let mut rows: RowRanges = report
        .disturbed()
        .iter()
        .filter(|rect| rect.y_lo < rect.y_hi)
        .map(|rect| (rect.y_lo, rect.y_hi))
        .collect();
    merge_ranges(&mut rows);
    rows
}

/// Sweep slices each batch audits so a full pass over `num_rows` rows completes within
/// [`SWEEP_BATCHES`] batches (at least one).
fn sweep_slices_per_batch(num_rows: i64) -> u64 {
    let total_slices = (num_rows.max(1) as u64).div_ceil(SLICE_ROWS as u64);
    total_slices.div_ceil(SWEEP_BATCHES).max(1)
}

/// One scrub hand-off, planned from the supervisor's scrub state.
struct ScrubPlan {
    /// The scheduled slices, in schedule order: dirty batches' rows first, then sweep
    /// slices (one range each).
    slices: Vec<RowRanges>,
    /// The sorted union of `slices`: what the worker audits, each row once.
    ranges: RowRanges,
    /// The sweep cursor after the plan's sweep slices.
    cursor: i64,
    /// Full sweeps the plan's sweep slices complete.
    sweeps: u64,
}

/// Schedule up to `budget` slices over a `num_rows`-row die: pop the oldest dirty batches'
/// rows first, then take round-robin sweep slices of [`SLICE_ROWS`] from `cursor`, wrapping
/// to row 0 (and counting a sweep) at the end of the die. Then sort and merge the slices'
/// ranges so overlapping rows are audited once.
fn plan_scrub(
    dirty: &mut VecDeque<RowRanges>,
    mut cursor: i64,
    budget: u64,
    num_rows: i64,
) -> ScrubPlan {
    let mut slices = Vec::new();
    let mut sweeps = 0;
    for _ in 0..budget {
        let slice = match dirty.pop_front() {
            Some(rows) => rows,
            None => {
                let lo = cursor;
                let hi = (lo + SLICE_ROWS).min(num_rows);
                cursor = if hi >= num_rows {
                    sweeps += 1;
                    0
                } else {
                    hi
                };
                vec![(lo, hi)]
            }
        };
        slices.push(slice);
    }
    let mut ranges: RowRanges = slices.iter().flatten().copied().collect();
    merge_ranges(&mut ranges);
    ScrubPlan {
        slices,
        ranges,
        cursor,
        sweeps,
    }
}

/// The disposable engine thread. It answers one [`WorkItem`] at a time; a panic inside
/// an apply or scrub is caught, reported as [`WorkReply::Panicked`], and ends the
/// thread — the engine state is suspect after an unwound mutation, so the supervisor
/// discards it and rebuilds. A hung worker is simply abandoned: when the stall ends,
/// its reply `send` fails (the supervisor dropped the channel) and the thread exits.
fn worker_loop(mut engine: EcoEngine, items: Receiver<WorkItem>, replies: SyncSender<WorkReply>) {
    let mut corrupt_rotation = 0usize;
    while let Ok(item) = items.recv() {
        let reply = match item {
            WorkItem::Apply(deltas) => {
                let applied = catch_unwind(AssertUnwindSafe(|| match engine.apply(&deltas) {
                    Ok(report) => {
                        let dirty = dirty_rows(&report);
                        (encode_report(&report), dirty)
                    }
                    Err(e) => (encode_error(&e), Vec::new()),
                }));
                match applied {
                    Ok((response, dirty)) => WorkReply::Applied { response, dirty },
                    Err(panic) => {
                        let _ = replies.send(WorkReply::Panicked(fault::panic_message(&*panic)));
                        return;
                    }
                }
            }
            WorkItem::Query(request) => WorkReply::Response(query_response(&engine, &request)),
            WorkItem::Scrub { ranges } => {
                let audit = Instant::now();
                let scrubbed = catch_unwind(AssertUnwindSafe(|| {
                    for &(row_lo, _) in &ranges {
                        // fault injection: deliberately damage one structure (rotating
                        // across all three) inside the range about to be audited, so the
                        // scrubber proves it detects and repairs real corruption
                        if fault::armed() && fault::fires("eco.scrub.corrupt") {
                            let all = ScrubStructure::ALL;
                            let structure = all[corrupt_rotation % all.len()];
                            corrupt_rotation += 1;
                            engine.corrupt_structure(structure, row_lo);
                        }
                    }
                    let (findings, rows) = engine.audit(&ranges);
                    let mut rebuilt = Vec::with_capacity(findings.len());
                    for finding in findings {
                        // graceful degradation: rebuild only the corrupt structure
                        engine.rebuild_structure(finding.structure);
                        rebuilt.push((finding.structure, finding.detail));
                    }
                    (rebuilt, rows)
                }));
                match scrubbed {
                    Ok((rebuilt, rows)) => {
                        let metrics = flex_obs::global();
                        metrics
                            .histogram("eco_scrub_audit_ns")
                            .record_duration(audit.elapsed());
                        metrics.histogram("eco_scrub_rows").record(rows as u64);
                        WorkReply::Scrubbed { rebuilt }
                    }
                    Err(panic) => {
                        let _ = replies.send(WorkReply::Panicked(fault::panic_message(&*panic)));
                        return;
                    }
                }
            }
            WorkItem::Image => {
                let mut design = Vec::new();
                write_design(&mut design, engine.design()).expect("serialize to memory");
                WorkReply::Image {
                    design,
                    stats: engine.stats().clone(),
                }
            }
            WorkItem::TakeEngine => {
                let _ = replies.send(WorkReply::Engine(Box::new(engine)));
                return;
            }
        };
        if replies.send(reply).is_err() {
            return; // supervisor abandoned this worker
        }
    }
}

// --- the supervisor thread -------------------------------------------------------------

struct Worker {
    items: SyncSender<WorkItem>,
    replies: Receiver<WorkReply>,
    handle: JoinHandle<()>,
}

struct Supervisor {
    cfg: SuperviseConfig,
    shared: Arc<SupervisorShared>,
    /// The open journal; `None` only while a failed rebuild has left the engine down.
    journal: Option<Journal>,
    /// The journal's config, stashed at startup. Survives a failed recovery (which
    /// consumes `journal`) so every later rebuild attempt can retry journal recovery.
    journal_cfg: JournalConfig,
    mgl: MglConfig,
    quarantined: BTreeSet<u64>,
    /// Sequence numbers journaled but not yet answered — in fsync mode a whole group is
    /// journaled before any member is dispatched, so a mid-group rebuild replays these. Recovery captures their replay outcomes so the waiting clients
    /// are answered from replay instead of their batches being applied a second time.
    unanswered: BTreeSet<u64>,
    /// Encoded responses captured from recovery replay, keyed by sequence number;
    /// consumed by [`Supervisor::dispatch_batch`] for batches at or below
    /// `replay_floor`.
    replay_responses: BTreeMap<u64, Vec<u8>>,
    /// Highest sequence number already applied by a recovery replay. Dispatching a
    /// batch at or below this would double-apply it.
    replay_floor: u64,
    worker: Option<Worker>,
    num_rows: i64,
    cursor: i64,
    dirty: VecDeque<RowRanges>,
    slices_per_batch: u64,
    pending: Option<Job>,
}

/// The server's dispatch loop: owns the job queue end, the journal, the quarantine set
/// and the worker lifecycle. Returns the resident engine at shutdown.
pub(crate) fn supervisor_loop(
    engine: EcoEngine,
    journal: Journal,
    cfg: SuperviseConfig,
    shared: Arc<SupervisorShared>,
    jobs: Receiver<Job>,
    stopping: Arc<AtomicBool>,
    path: PathBuf,
) -> EcoEngine {
    let _guard = StopGuard {
        stopping: Arc::clone(&stopping),
        path,
    };
    let mut sup = Supervisor::new(engine, journal, cfg, shared);
    loop {
        let job = match sup.pending.take() {
            Some(job) => job,
            None => match jobs.recv_timeout(IDLE_TICK) {
                Ok(job) => job.dequeued(),
                Err(RecvTimeoutError::Timeout) => {
                    // a failed rebuild left the engine down and every apply shed;
                    // retry it from the idle loop so recovery does not depend on
                    // traffic reaching the supervisor (Recovering sheds at the
                    // connection layer)
                    if sup.worker.is_none() {
                        sup.rebuild();
                    }
                    sup.scrub_tick(1);
                    continue;
                }
                // every sender gone (accept loop died): wind down with the engine
                Err(RecvTimeoutError::Disconnected) => return sup.take_engine(),
            },
        };
        let Job { request, reply, .. } = job;
        match request {
            Request::Shutdown => return sup.shutdown(reply, &stopping),
            Request::Apply(deltas) => sup.handle_applies(deltas, reply, &jobs),
            // normally answered by the connection thread; kept correct here anyway
            Request::Health => {
                let _ = reply.send(encode_health(&sup.shared.snapshot()));
            }
            request => sup.handle_query(request, reply),
        }
    }
}

impl Supervisor {
    fn new(
        engine: EcoEngine,
        journal: Journal,
        cfg: SuperviseConfig,
        shared: Arc<SupervisorShared>,
    ) -> Self {
        let mgl = engine.config().clone();
        let num_rows = engine.design().num_rows;
        // quarantines from previous incarnations still count as degradation
        let quarantined = journal::load_quarantine(&journal.config().dir);
        shared
            .scrub_total
            .store(num_rows.max(1) as u64, Ordering::Relaxed);
        shared
            .quarantined
            .store(quarantined.len() as u64, Ordering::Relaxed);
        let journal_cfg = journal.config().clone();
        let replay_floor = journal.seq();
        let mut sup = Self {
            cfg,
            shared,
            journal: Some(journal),
            journal_cfg,
            mgl,
            quarantined,
            unanswered: BTreeSet::new(),
            replay_responses: BTreeMap::new(),
            replay_floor,
            worker: None,
            num_rows,
            cursor: 0,
            dirty: VecDeque::new(),
            slices_per_batch: sweep_slices_per_batch(num_rows),
            pending: None,
        };
        sup.spawn_worker(engine);
        sup.settle_state();
        sup
    }

    fn spawn_worker(&mut self, engine: EcoEngine) {
        let (item_tx, item_rx) = sync_channel::<WorkItem>(1);
        let (reply_tx, reply_rx) = sync_channel::<WorkReply>(1);
        let handle = std::thread::spawn(move || worker_loop(engine, item_rx, reply_tx));
        self.worker = Some(Worker {
            items: item_tx,
            replies: reply_rx,
            handle,
        });
    }

    /// The worker exited on its own (panic reported, or it took the engine): join it so
    /// the thread is reaped, not leaked.
    fn reap_worker(&mut self) {
        if let Some(worker) = self.worker.take() {
            let _ = worker.handle.join();
        }
    }

    /// The worker is hung mid-batch: **never** join it (that would hang the supervisor
    /// too). Dropping its channels makes its eventual reply `send` fail, so the thread
    /// exits on its own once the stall ends.
    fn abandon_worker(&mut self) {
        if let Some(worker) = self.worker.take() {
            drop(worker.items);
            drop(worker.replies);
            drop(worker.handle); // detach
        }
    }

    /// One engine interaction under the watchdog deadline. `Err` carries the poison
    /// reason (panic message, hang, or dead thread) and guarantees the worker is gone.
    fn ask(&mut self, item: WorkItem) -> Result<WorkReply, String> {
        let sent = match self.worker.as_ref() {
            None => return Err("engine down".to_string()),
            Some(worker) => worker.items.send(item).is_ok(),
        };
        if !sent {
            self.reap_worker();
            return Err("engine thread died".to_string());
        }
        let result = match self.worker.as_ref() {
            None => unreachable!("worker checked above"),
            Some(worker) => worker.replies.recv_timeout(self.cfg.batch_deadline),
        };
        match result {
            Ok(WorkReply::Panicked(reason)) => {
                self.reap_worker();
                Err(format!("engine panicked: {reason}"))
            }
            Ok(reply) => Ok(reply),
            Err(RecvTimeoutError::Timeout) => {
                self.abandon_worker();
                Err(format!(
                    "engine unresponsive past the {:?} watchdog deadline",
                    self.cfg.batch_deadline
                ))
            }
            Err(RecvTimeoutError::Disconnected) => {
                self.reap_worker();
                Err("engine thread died".to_string())
            }
        }
    }

    /// Handle one apply job — plus, in fsync mode, every apply already queued behind it
    /// (group commit: the whole group is journaled with one write + one fsync). A
    /// non-apply job encountered while draining is deferred, not reordered past a
    /// shutdown.
    fn handle_applies(
        &mut self,
        deltas: Vec<EcoDelta>,
        reply: SyncSender<Vec<u8>>,
        jobs: &Receiver<Job>,
    ) {
        let mut group: Vec<(Vec<EcoDelta>, SyncSender<Vec<u8>>)> = vec![(deltas, reply)];
        if self.journal_cfg.fsync {
            while group.len() < GROUP_MAX {
                let Ok(job) = jobs.try_recv() else { break };
                let job = job.dequeued();
                match job.request {
                    Request::Apply(d) => group.push((d, job.reply)),
                    _ => {
                        self.pending = Some(job);
                        break;
                    }
                }
            }
        }
        if self.journal.is_none() {
            // the journal was lost to a failed recovery (which also left the engine
            // down): retry it now
            self.rebuild();
        }
        let appended = match self.journal.as_mut() {
            Some(journal) => {
                let batches: Vec<&[EcoDelta]> = group.iter().map(|(d, _)| d.as_slice()).collect();
                journal
                    .append_group(&batches)
                    .map_err(|e| EcoError::Journal(e.to_string()))
            }
            // still down: shed the whole group — an ack must never outlive durability
            None => Err(EcoError::Recovering {
                retry_after_ms: self.cfg.retry_after_ms,
            }),
        };
        let seqs = match appended {
            Ok(seqs) => seqs,
            Err(e) => {
                // all-or-nothing: nothing in the group is durable, so nothing in the
                // group may be applied
                let response = encode_error(&e);
                for (_, reply) in group {
                    let _ = reply.send(response.clone());
                }
                return;
            }
        };
        self.unanswered.extend(seqs.iter().copied());
        for ((deltas, reply), seq) in group.into_iter().zip(seqs) {
            self.dispatch_batch(seq, deltas, reply);
        }
    }

    /// Run one (already journaled) batch on the worker; on panic or watchdog timeout,
    /// quarantine it, answer `Poisoned`, and rebuild the engine. A batch an earlier
    /// rebuild already replayed (its whole group was journaled before the group member
    /// ahead of it poisoned the engine) is answered from the captured replay outcome —
    /// dispatching it would apply it a second time.
    fn dispatch_batch(&mut self, seq: u64, deltas: Vec<EcoDelta>, reply: SyncSender<Vec<u8>>) {
        self.ensure_worker();
        if seq <= self.replay_floor {
            let response = self.replay_responses.remove(&seq).unwrap_or_else(|| {
                encode_error(&EcoError::Protocol(format!(
                    "batch {seq} was applied during recovery but its outcome was not captured"
                )))
            });
            let _ = reply.send(response);
            self.unanswered.remove(&seq);
            return;
        }
        match self.ask(WorkItem::Apply(deltas)) {
            Ok(WorkReply::Applied { response, dirty }) => {
                let _ = reply.send(response);
                self.unanswered.remove(&seq);
                self.after_apply(dirty);
            }
            Ok(_) => {
                let _ = reply.send(encode_error(&EcoError::Protocol(
                    "unexpected engine reply".to_string(),
                )));
                self.unanswered.remove(&seq);
            }
            Err(reason) => {
                self.quarantine(seq, &reason);
                // the poisoned client learns its fate before the rebuild starts; it
                // must never retry this batch. Removed from `unanswered` first so the
                // rebuild's replay does not capture an outcome for it.
                let _ = reply.send(encode_error(&EcoError::Poisoned {
                    seq,
                    reason: reason.clone(),
                }));
                self.unanswered.remove(&seq);
                self.recover(&reason);
            }
        }
    }

    fn handle_query(&mut self, request: Request, reply: SyncSender<Vec<u8>>) {
        self.ensure_worker();
        let response = match self.ask(WorkItem::Query(request)) {
            Ok(WorkReply::Response(response)) => response,
            Ok(_) => encode_error(&EcoError::Protocol("unexpected engine reply".to_string())),
            Err(reason) => {
                // a read-only query killed or hung the engine — rebuild, shed the query
                let response = encode_error(&EcoError::Recovering {
                    retry_after_ms: self.cfg.retry_after_ms,
                });
                self.recover(&reason);
                response
            }
        };
        let _ = reply.send(response);
    }

    /// Record a quarantine in memory only (idempotent). The in-memory set is handed to
    /// every recovery as `extra_quarantine`, so a batch stays shielded for the life of
    /// this process even when its on-disk record could not be written.
    fn note_quarantined(&mut self, seq: u64, reason: &str) {
        if !self.quarantined.insert(seq) {
            return;
        }
        self.shared
            .quarantined
            .store(self.quarantined.len() as u64, Ordering::Relaxed);
        flex_obs::global()
            .counter("eco_quarantined_batches_total")
            .inc();
        eprintln!("eco supervise: quarantined batch {seq}: {reason}");
    }

    fn quarantine(&mut self, seq: u64, reason: &str) {
        self.note_quarantined(seq, reason);
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.quarantine(seq, reason) {
                // survivable: the in-memory record shields every rebuild this process
                // performs, and if the batch ever panics a replay on a later boot,
                // recovery re-quarantines it and retries the persist
                eprintln!("eco supervise: failed to persist quarantine of batch {seq}: {e}");
            }
        }
    }

    fn ensure_worker(&mut self) {
        if self.worker.is_none() {
            self.rebuild();
        }
    }

    fn recover(&mut self, reason: &str) {
        self.shared.note_fault(reason);
        self.shared.set_state(SupervisorState::Recovering);
        flex_obs::global()
            .counter("eco_supervised_restarts_total")
            .inc();
        // deterministic test hook: hold the rebuild window open so a client can observe
        // the typed Recovering shed
        fault::maybe_hang("eco.rebuild.hold");
        self.rebuild();
    }

    /// Build a fresh engine from durable history, skipping quarantined batches, with
    /// fault injection suppressed — the result is bit-identical to an engine that had
    /// rejected the poisoned batches up front. Replay outcomes for journaled-but-unanswered
    /// batches are captured so the dispatch loop answers them instead of re-applying. A
    /// failed recovery keeps the stashed [`JournalConfig`], so the next attempt (next
    /// dispatch or idle tick) retries journal recovery.
    fn rebuild(&mut self) {
        debug_assert!(self.worker.is_none(), "rebuild with a live worker");
        // release the wal handle before recovery re-opens the directory
        drop(self.journal.take());
        let rebuilt = match journal::recover_engine_supervised(
            self.journal_cfg.clone(),
            self.mgl.clone(),
            &self.unanswered,
            &self.quarantined,
        ) {
            Ok(Some((engine, journal, report))) => {
                self.replay_floor = journal.seq();
                self.journal = Some(journal);
                for (seq, reason) in &report.auto_quarantined {
                    self.note_quarantined(*seq, reason);
                }
                for (seq, outcome) in report.captured {
                    let response = match &outcome {
                        Ok(report) => encode_report(report),
                        Err(e) => encode_error(e),
                    };
                    self.replay_responses.insert(seq, response);
                }
                Ok(engine)
            }
            Ok(None) => Err("journal directory lost its snapshots".to_string()),
            Err(e) => Err(e.to_string()),
        };
        match rebuilt {
            Ok(engine) => {
                self.spawn_worker(engine);
                self.shared.restarts.fetch_add(1, Ordering::Relaxed);
                self.settle_state();
            }
            Err(e) => {
                // stay (or enter) Recovering: applies shed with a typed hint, and the
                // rebuild is retried on the next dispatch and on every idle tick
                self.shared.set_state(SupervisorState::Recovering);
                eprintln!("eco supervise: rebuild failed: {e} (will retry)");
            }
        }
    }

    fn settle_state(&self) {
        let degraded = !self.quarantined.is_empty()
            || self.shared.scrub_corruptions.load(Ordering::Relaxed) > 0;
        self.shared.set_state(if degraded {
            SupervisorState::Degraded
        } else {
            SupervisorState::Healthy
        });
    }

    /// Post-apply housekeeping: feed the scrubber's dirty queue, rotate the journal
    /// snapshot when due (the engine lives on the worker thread, so its state travels
    /// as a serialized image), then spend the batch's scrub budget.
    fn after_apply(&mut self, dirty: RowRanges) {
        if !dirty.is_empty() && self.dirty.len() < DIRTY_QUEUE_MAX {
            self.dirty.push_back(dirty);
        }
        if self.journal.as_ref().is_some_and(Journal::snapshot_due) {
            match self.ask(WorkItem::Image) {
                Ok(WorkReply::Image { design, stats }) => {
                    if let Some(journal) = self.journal.as_mut() {
                        // rotation failure is survivable — the open wal stays valid,
                        // the only cost is a longer replay on the next recovery
                        if let Err(e) = journal.snapshot_now_from_image(&design, &stats) {
                            eprintln!("eco journal: snapshot failed: {e} (continuing)");
                        }
                    }
                }
                Ok(_) => {}
                Err(reason) => {
                    self.recover(&reason);
                    return;
                }
            }
        }
        let dirty_budget = self.dirty.len().min(MAX_DIRTY_PER_BATCH) as u64;
        self.scrub_tick(self.slices_per_batch + dirty_budget);
    }

    /// Audit up to `budget` row slices ([`plan_scrub`]: recently disturbed batches' rows
    /// first, then the round-robin background sweep) in one worker hand-off that audits
    /// each scheduled row once.
    fn scrub_tick(&mut self, budget: u64) {
        if self.worker.is_none() || self.num_rows <= 0 {
            return; // don't force a rebuild just to scrub; the next apply will
        }
        let plan = plan_scrub(&mut self.dirty, self.cursor, budget, self.num_rows);
        match self.ask(WorkItem::Scrub {
            ranges: plan.ranges,
        }) {
            Ok(WorkReply::Scrubbed { rebuilt }) => {
                self.shared
                    .scrub_slices
                    .fetch_add(plan.slices.len() as u64, Ordering::Relaxed);
                self.shared
                    .scrub_sweeps
                    .fetch_add(plan.sweeps, Ordering::Relaxed);
                self.cursor = plan.cursor;
                self.shared
                    .scrub_pos
                    .store(self.cursor as u64, Ordering::Relaxed);
                for (structure, detail) in rebuilt {
                    self.shared
                        .scrub_corruptions
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared.scrub_rebuilds.fetch_add(1, Ordering::Relaxed);
                    flex_obs::global()
                        .counter(&format!(
                            "eco_scrub_corruptions_total{{structure=\"{}\"}}",
                            structure.name()
                        ))
                        .inc();
                    eprintln!(
                        "eco scrub: {} corruption detected and repaired: {detail}",
                        structure.name()
                    );
                    self.shared
                        .note_fault(&format!("scrub: {} corruption: {detail}", structure.name()));
                    self.shared.set_state(SupervisorState::Degraded);
                }
            }
            Ok(_) => {}
            Err(reason) => self.recover(&reason),
        }
    }

    /// Pull the engine off the worker thread (rebuilding once if the worker is dead or
    /// hung), reaping the thread. Panics if the engine is unrecoverable — the caller
    /// must hand an engine back, and the stop guard still winds the server down.
    fn take_engine(&mut self) -> EcoEngine {
        for attempt in 0..2 {
            self.ensure_worker();
            match self.ask(WorkItem::TakeEngine) {
                Ok(WorkReply::Engine(engine)) => {
                    self.reap_worker();
                    return *engine;
                }
                Ok(_) => {}
                Err(reason) => {
                    if attempt == 0 {
                        self.recover(&reason);
                    }
                }
            }
        }
        panic!("eco supervise: engine unrecoverable at shutdown");
    }

    /// `shutdown` op: reclaim the engine, raise the stop flag **before** acknowledging
    /// (the requester's connection loop then hangs up instead of reading another
    /// frame), write a parting snapshot, acknowledge with final stats.
    fn shutdown(&mut self, reply: SyncSender<Vec<u8>>, stopping: &AtomicBool) -> EcoEngine {
        let engine = self.take_engine();
        stopping.store(true, Ordering::SeqCst);
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.snapshot_now(engine.design(), engine.stats()) {
                eprintln!("eco journal: shutdown snapshot failed: {e}");
            }
        }
        let _ = reply.send(encode_stats(engine.stats(), engine.uptime()));
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_machine_names_and_roundtrip() {
        for state in [
            SupervisorState::Healthy,
            SupervisorState::Recovering,
            SupervisorState::Degraded,
        ] {
            assert_eq!(SupervisorState::from_u8(state as u8), state);
        }
        assert_eq!(SupervisorState::Healthy.name(), "healthy");
        assert_eq!(SupervisorState::Recovering.name(), "recovering");
        assert_eq!(SupervisorState::Degraded.name(), "degraded");
    }

    #[test]
    fn shared_snapshot_reports_counters_and_progress() {
        let shared = SupervisorShared::new(25);
        shared.scrub_total.store(200, Ordering::Relaxed);
        shared.scrub_pos.store(50, Ordering::Relaxed);
        shared.restarts.store(3, Ordering::Relaxed);
        shared.note_fault("engine panicked: boom");
        shared.set_state(SupervisorState::Degraded);
        let h = shared.snapshot();
        assert_eq!(h.state, SupervisorState::Degraded);
        assert_eq!(h.restarts, 3);
        assert!((h.scrub_progress - 0.25).abs() < 1e-9);
        assert_eq!(h.last_fault.as_deref(), Some("engine panicked: boom"));
    }

    /// The per-slice scrub loop [`plan_scrub`] replaced, minus the worker round trip per
    /// slice: the slices it audited, in order, and the cursor and sweep count it left.
    fn per_slice_schedule(
        dirty: &mut VecDeque<RowRanges>,
        mut cursor: i64,
        budget: u64,
        num_rows: i64,
    ) -> (Vec<RowRanges>, i64, u64) {
        let (mut slices, mut sweeps) = (Vec::new(), 0);
        for _ in 0..budget {
            match dirty.pop_front() {
                Some(rows) => slices.push(rows),
                None => {
                    let (row_lo, row_hi) = (cursor, (cursor + 32).min(num_rows));
                    slices.push(vec![(row_lo, row_hi)]);
                    cursor = if row_hi >= num_rows {
                        sweeps += 1;
                        0
                    } else {
                        row_hi
                    };
                }
            }
        }
        (slices, cursor, sweeps)
    }

    /// Rows covered by `ranges`, as a sorted set.
    fn rows_of(ranges: &[(i64, i64)]) -> BTreeSet<i64> {
        ranges.iter().flat_map(|&(lo, hi)| lo..hi).collect()
    }

    /// Plan one scrub hand-off with [`plan_scrub`] and with the per-slice oracle from the
    /// same state, and require the same slices, cursor and sweeps, and merged ranges that
    /// are the sorted union of the slices. Returns the plan.
    fn plan_like_per_slice(
        dirty: &mut VecDeque<RowRanges>,
        cursor: i64,
        budget: u64,
        num_rows: i64,
    ) -> ScrubPlan {
        let (slices, oracle_cursor, sweeps) =
            per_slice_schedule(&mut dirty.clone(), cursor, budget, num_rows);
        let plan = plan_scrub(dirty, cursor, budget, num_rows);
        assert_eq!(plan.slices, slices, "cursor {cursor}, budget {budget}");
        assert_eq!((plan.cursor, plan.sweeps), (oracle_cursor, sweeps));
        assert_eq!(rows_of(&plan.ranges), rows_of(&plan.slices.concat()));
        for pair in plan.ranges.windows(2) {
            assert!(
                pair[0].1 < pair[1].0,
                "merged ranges sorted, disjoint, apart"
            );
        }
        assert!(plan.ranges.iter().all(|&(lo, hi)| lo < hi));
        plan
    }

    /// Drive `batches` batches the way `after_apply` does (queue the batch's dirty rows,
    /// then plan its budget) and return the scrub slices and sweeps counted.
    fn run_batches(num_rows: i64, batches: u64, dirty_of: impl Fn(u64) -> RowRanges) -> (u64, u64) {
        let (mut dirty, mut cursor) = (VecDeque::new(), 0);
        let (mut slices, mut sweeps) = (0, 0);
        for batch in 0..batches {
            let rows = dirty_of(batch);
            if !rows.is_empty() && dirty.len() < DIRTY_QUEUE_MAX {
                dirty.push_back(rows);
            }
            let budget =
                sweep_slices_per_batch(num_rows) + dirty.len().min(MAX_DIRTY_PER_BATCH) as u64;
            let plan = plan_like_per_slice(&mut dirty, cursor, budget, num_rows);
            cursor = plan.cursor;
            slices += plan.slices.len() as u64;
            sweeps += plan.sweeps;
        }
        (slices, sweeps)
    }

    #[test]
    fn scrub_plan_reproduces_the_per_slice_schedule() {
        // eco-stream's die: 374 rows in 32-row slices, one sweep slice per batch, and each
        // batch's dirty rows: its target's old rows, its window and its writes, apart
        assert_eq!(sweep_slices_per_batch(374), 1);
        let narrow = |batch: u64| {
            let (old, new) = ((batch * 37 % 370) as i64, (batch * 101 % 360) as i64);
            let mut rows = vec![(old, old + 2), (new, new + 11)];
            merge_ranges(&mut rows);
            rows
        };
        // 2 slices per batch, whatever the dirty rows; a full sweep is 12 slices
        assert_eq!(run_batches(374, 1_000, narrow), (2_000, 1_000 / 12));
        // a fallback's dirty rows are the whole die
        assert_eq!(
            run_batches(374, 1_000, |_| vec![(0, 374)]),
            (2_000, 1_000 / 12)
        );
        // bulk-clustered's die: 54 rows, dirty rows covering nearly all of it
        assert_eq!(sweep_slices_per_batch(54), 1);
        assert_eq!(
            run_batches(54, 1_000, |b| vec![(b as i64 % 3, 20), (24, 52)]),
            (2_000, 500)
        );
        // batches without dirty rows (rejected deltas) scrub one sweep slice each
        assert_eq!(run_batches(374, 100, |_| Vec::new()), (100, 100 / 12));
        // a taller die needs more than one sweep slice per batch
        assert_eq!(sweep_slices_per_batch(32 * 512 + 1), 2);
        assert_eq!(run_batches(32 * 512 + 1, 10, |_| Vec::new()), (20, 0));
    }

    #[test]
    fn scrub_plan_handles_backlogs_wraparound_and_idle_ticks() {
        // a dirty backlog of 3 batches: the budget (one sweep slice plus two for the
        // backlog) takes dirty rows first, oldest first, so all three are audited and the
        // sweep waits for the next batch
        let mut dirty: VecDeque<RowRanges> =
            [vec![(10, 20), (30, 34)], vec![(200, 260)], vec![(15, 31)]].into();
        let budget = sweep_slices_per_batch(374) + dirty.len().min(MAX_DIRTY_PER_BATCH) as u64;
        let plan = plan_like_per_slice(&mut dirty, 64, budget, 374);
        assert_eq!(
            plan.slices,
            vec![vec![(10, 20), (30, 34)], vec![(200, 260)], vec![(15, 31)]]
        );
        assert_eq!(plan.ranges, vec![(10, 34), (200, 260)]);
        assert_eq!((plan.cursor, plan.sweeps), (64, 0));
        assert!(dirty.is_empty());
        // a batch with no dirty rows, or an idle tick: one sweep slice from the cursor
        let plan = plan_like_per_slice(&mut VecDeque::new(), 64, 1, 374);
        assert_eq!(plan.ranges, vec![(64, 96)]);
        assert_eq!(plan.cursor, 96);
        // wrap-around: the last, short slice completes a sweep, the next starts at row 0,
        // and the two merge with overlapping dirty rows into two ranges
        let mut dirty: VecDeque<RowRanges> = [vec![(5, 9), (300, 360)]].into();
        let plan = plan_like_per_slice(&mut dirty, 352, 3, 374);
        assert_eq!(
            plan.slices,
            vec![vec![(5, 9), (300, 360)], vec![(352, 374)], vec![(0, 32)]]
        );
        assert_eq!(plan.ranges, vec![(0, 32), (300, 374)]);
        assert_eq!((plan.cursor, plan.sweeps), (32, 1));
        // touching slices merge; dirty rows hanging off the die stay as scheduled
        let mut dirty: VecDeque<RowRanges> = [vec![(-40, 0)], vec![(32, 50)]].into();
        let plan = plan_like_per_slice(&mut dirty, 0, 4, 54);
        assert_eq!(
            plan.slices,
            vec![
                vec![(-40, 0)],
                vec![(32, 50)],
                vec![(0, 32)],
                vec![(32, 54)]
            ]
        );
        assert_eq!(plan.ranges, vec![(-40, 54)]);
        assert_eq!((plan.cursor, plan.sweeps), (0, 1));
        // randomized states and budgets agree with the oracle too
        let mut rng = 0x9e37_79b9_u64;
        let mut next = |bound: u64| {
            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (rng >> 33) % bound
        };
        for _ in 0..2_000 {
            let num_rows = 1 + next(400) as i64;
            let mut dirty: VecDeque<RowRanges> = (0..next(5))
                .map(|_| {
                    let mut rows: RowRanges = (0..1 + next(3))
                        .map(|_| {
                            let lo = next(num_rows as u64 + 80) as i64 - 40;
                            (lo, lo + 1 + next(300) as i64)
                        })
                        .collect();
                    merge_ranges(&mut rows);
                    rows
                })
                .collect();
            let cursor = next(num_rows as u64) as i64;
            plan_like_per_slice(&mut dirty, cursor, 1 + next(4), num_rows);
        }
    }

    #[test]
    fn dirty_rows_unions_disturbed_rects() {
        use crate::delta::{DeltaKind, DeltaOutcome, PlacedKind};
        use flex_placement::cell::CellId;
        use flex_placement::geom::Rect;
        let mut report = EcoReport {
            outcomes: Vec::new(),
            cells_touched: 0,
            displacement_delta: 0.0,
            fallbacks: 0,
            failed: 0,
            latency: Duration::ZERO,
        };
        assert_eq!(dirty_rows(&report), Vec::new());
        report.outcomes.push(DeltaOutcome {
            cell: CellId(0),
            kind: DeltaKind::Move,
            placed: PlacedKind::Region,
            cells_touched: 1,
            disturbed: vec![Rect::new(0, 3, 5, 6), Rect::new(2, 10, 4, 12)],
        });
        assert_eq!(dirty_rows(&report), vec![(3, 6), (10, 12)]);
        // a second outcome's rects overlap and touch the first's: one range each
        report.outcomes.push(DeltaOutcome {
            cell: CellId(1),
            kind: DeltaKind::Move,
            placed: PlacedKind::Region,
            cells_touched: 1,
            disturbed: vec![Rect::new(0, 5, 5, 8), Rect::new(0, 12, 5, 13)],
        });
        assert_eq!(dirty_rows(&report), vec![(3, 8), (10, 13)]);
    }

    #[test]
    fn dirty_rows_are_what_each_delta_read_and_wrote() {
        use crate::delta::PlacedKind;
        use flex_mgl::region::target_window;
        use flex_placement::benchmark::{generate, BenchmarkSpec};
        // the delta below plans in the level-0 window; the widest window planning may search
        // (`window_half_rows << max_window_expansions` rows either side) covers the die
        let cfg = MglConfig::default();
        let design = generate(&BenchmarkSpec::tiny("dirty-rows", 5).scaled(3.0));
        let mut engine = EcoEngine::legalize_and_build(design, cfg.clone()).unwrap();
        let before = engine.design().clone();
        let rows = before.num_rows;
        let id = before.movable_ids()[7];
        let old = before.cell(id).rect();
        // move the cell to the other half of the die
        let (gx, gy) = (
            before.num_sites_x as f64 / 2.0,
            ((old.y_lo + rows / 2) % rows) as f64,
        );
        let report = engine.apply(&[EcoDelta::MoveCell { id, gx, gy }]).unwrap();
        assert_eq!(report.outcomes[0].placed, PlacedKind::Region);
        let mut premoved = before.clone();
        premoved.cell_mut(id).gx = gx;
        premoved.cell_mut(id).gy = gy;
        premoved.pre_move_cell(id);
        let window = target_window(&premoved, id, cfg.window_half_sites, cfg.window_half_rows);
        // the old rows, the window's and the rows of every cell the delta moved
        let mut want = vec![(old.y_lo, old.y_hi), (window.y_lo, window.y_hi)];
        for (b, a) in before.cells.iter().zip(&engine.design().cells) {
            if (b.x, b.y) != (a.x, a.y) {
                want.push((a.y, a.y + a.height));
            }
        }
        merge_ranges(&mut want);
        assert_eq!(dirty_rows(&report), want);
        assert!(
            want.iter().map(|&(lo, hi)| hi - lo).sum::<i64>() < rows / 2,
            "a region delta's rows are a fraction of the {rows}-row die: {want:?}"
        );

        // every window oversize: the fallback scan reads every row
        let cfg = MglConfig {
            max_region_cells: 0,
            ..MglConfig::default()
        };
        let mut engine = EcoEngine::new(engine.design().clone(), cfg).unwrap();
        let report = engine
            .apply(&[EcoDelta::MoveCell {
                id,
                gx: 3.0,
                gy: 2.0,
            }])
            .unwrap();
        assert_eq!(report.outcomes[0].placed, PlacedKind::Fallback);
        assert_eq!(dirty_rows(&report), vec![(0, rows)]);
    }
}
