//! Typed ECO deltas, errors and reports — the vocabulary of the resident engine.

use flex_placement::cell::CellId;
use flex_placement::geom::Rect;
use std::time::Duration;

/// One incremental engineering-change-order against a legalized design.
#[derive(Debug, Clone, PartialEq)]
pub enum EcoDelta {
    /// Move a cell's desired (global-placement) position; the engine re-legalizes it near
    /// the new spot.
    MoveCell {
        /// The cell to move.
        id: CellId,
        /// New desired x (site units).
        gx: f64,
        /// New desired y (row units).
        gy: f64,
    },
    /// Insert a brand-new movable cell at a desired position. The engine assigns the next
    /// free [`CellId`] and reports it in [`DeltaOutcome::cell`]. If placement fails, the
    /// assigned id is permanently retired (tombstoned) — it is never handed to a later
    /// insert.
    InsertCell {
        /// Width in sites (> 0).
        width: i64,
        /// Height in rows (> 0).
        height: i64,
        /// Desired x (site units).
        gx: f64,
        /// Desired y (row units).
        gy: f64,
    },
    /// Change a cell's dimensions in place (an ECO gate swap); the engine re-legalizes it
    /// near its current desired position.
    ResizeCell {
        /// The cell to resize.
        id: CellId,
        /// New width in sites (> 0).
        width: i64,
        /// New height in rows (> 0).
        height: i64,
    },
    /// Retire a cell. [`CellId`]s are indices into the design's cell vector, so the slot is
    /// tombstoned (zero-area fixed marker) rather than physically removed; the id is never
    /// reused and later deltas addressing it are rejected.
    RemoveCell {
        /// The cell to remove.
        id: CellId,
    },
}

impl EcoDelta {
    /// The statistics bucket this delta belongs to.
    pub fn kind(&self) -> DeltaKind {
        match self {
            EcoDelta::MoveCell { .. } => DeltaKind::Move,
            EcoDelta::InsertCell { .. } => DeltaKind::Insert,
            EcoDelta::ResizeCell { .. } => DeltaKind::Resize,
            EcoDelta::RemoveCell { .. } => DeltaKind::Remove,
        }
    }
}

/// The four delta kinds, as bucket indices for latency/count statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// [`EcoDelta::MoveCell`].
    Move,
    /// [`EcoDelta::InsertCell`].
    Insert,
    /// [`EcoDelta::ResizeCell`].
    Resize,
    /// [`EcoDelta::RemoveCell`].
    Remove,
}

impl DeltaKind {
    /// All kinds, in bucket order.
    pub const ALL: [DeltaKind; 4] = [
        DeltaKind::Move,
        DeltaKind::Insert,
        DeltaKind::Resize,
        DeltaKind::Remove,
    ];

    /// Bucket index (stable across the crate's statistics arrays).
    pub fn index(self) -> usize {
        match self {
            DeltaKind::Move => 0,
            DeltaKind::Insert => 1,
            DeltaKind::Resize => 2,
            DeltaKind::Remove => 3,
        }
    }

    /// Wire/report name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            DeltaKind::Move => "move",
            DeltaKind::Insert => "insert",
            DeltaKind::Resize => "resize",
            DeltaKind::Remove => "remove",
        }
    }
}

/// Why the engine rejected a delta batch. Validation errors are raised *before* any state is
/// mutated, so a rejected batch leaves the resident design exactly as it was.
#[derive(Debug, Clone, PartialEq)]
pub enum EcoError {
    /// The referenced cell id is outside the design's cell vector.
    UnknownCell(CellId),
    /// The referenced cell is fixed (a macro) and cannot be ECO'd.
    FixedCell(CellId),
    /// The referenced cell was removed by an earlier delta.
    RemovedCell(CellId),
    /// A new or resized cell has non-positive dimensions or cannot fit the die at all.
    BadDimensions {
        /// Requested width.
        width: i64,
        /// Requested height.
        height: i64,
    },
    /// The boundary invariant check failed after applying a batch (see
    /// `Design::validate_invariants`); the resident state is suspect and the message names
    /// the violated invariant.
    InvariantViolation(String),
    /// A malformed request reached the engine through the service front end.
    Protocol(String),
    /// The write-ahead journal could not durably record the batch; nothing was applied —
    /// journal-before-apply ordering means a journal failure leaves the engine untouched.
    Journal(String),
    /// The server's bounded job queue is full and shed this request instead of blocking
    /// the connection. Retry after the hinted delay.
    Busy {
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The batch killed (or hung) the engine and was quarantined by the supervisor: it is
    /// permanently rejected, skipped on every future replay, and must not be retried.
    Poisoned {
        /// The quarantined batch's journal sequence number.
        seq: u64,
        /// What the batch did to the engine (panic payload or watchdog verdict).
        reason: String,
    },
    /// The supervisor is rebuilding the engine after a quarantine; the request was shed,
    /// not lost — retry after the hinted delay (the retrying client absorbs this like
    /// `Busy`).
    Recovering {
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for EcoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcoError::UnknownCell(id) => write!(f, "unknown cell {id}"),
            EcoError::FixedCell(id) => write!(f, "cell {id} is fixed and cannot be changed"),
            EcoError::RemovedCell(id) => write!(f, "cell {id} was removed"),
            EcoError::BadDimensions { width, height } => {
                write!(f, "bad cell dimensions {width}x{height}")
            }
            EcoError::InvariantViolation(msg) => write!(f, "invariant violation: {msg}"),
            EcoError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            EcoError::Journal(msg) => write!(f, "journal error: {msg}"),
            EcoError::Busy { retry_after_ms } => {
                write!(f, "server busy, retry after {retry_after_ms}ms")
            }
            EcoError::Poisoned { seq, reason } => {
                write!(f, "batch {seq} quarantined: {reason}")
            }
            EcoError::Recovering { retry_after_ms } => {
                write!(f, "server recovering, retry after {retry_after_ms}ms")
            }
        }
    }
}

impl std::error::Error for EcoError {}

/// How one delta's target ended up placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacedKind {
    /// Committed through FOP inside a localRegion of the disturbed neighborhood.
    Region,
    /// Placed by the whole-die fallback scan.
    Fallback,
    /// No feasible position; the delta was rolled back.
    Failed,
    /// The delta needs no placement (a removal).
    NotNeeded,
}

/// Per-delta outcome inside an [`EcoReport`].
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// The cell the delta addressed (for inserts: the newly assigned id, which stays
    /// retired if the insert failed).
    pub cell: CellId,
    /// The delta's kind.
    pub kind: DeltaKind,
    /// How the target was placed.
    pub placed: PlacedKind,
    /// Cells whose positions this delta wrote (the target plus shifted neighbors).
    pub cells_touched: usize,
    /// Disturbed neighborhood: the target's previous extent, what planning read (the last
    /// legalization window it evaluated, which contains every earlier one; the whole die
    /// when the fallback scan ran) and every rectangle the placement wrote. Cells wholly
    /// outside these rectangles are untouched, bit for bit, and their rows are every row
    /// the delta read or wrote. Empty for a delta that placed nothing.
    pub disturbed: Vec<Rect>,
}

/// What applying one delta batch did, in aggregate.
#[derive(Debug, Clone)]
pub struct EcoReport {
    /// Per-delta outcomes, in batch order.
    pub outcomes: Vec<DeltaOutcome>,
    /// Total distinct-position writes across the batch (a cell written twice counts twice).
    pub cells_touched: usize,
    /// Sum over written cells of (displacement after − displacement before) the batch.
    pub displacement_delta: f64,
    /// Deltas whose target ended in the whole-die fallback scan.
    pub fallbacks: usize,
    /// Deltas that found no feasible position and were rolled back.
    pub failed: usize,
    /// Wall-clock latency of the whole batch inside the engine.
    pub latency: Duration,
}

impl EcoReport {
    /// Union of every outcome's disturbed rectangles.
    pub fn disturbed(&self) -> Vec<Rect> {
        let mut rects = Vec::new();
        for o in &self.outcomes {
            rects.extend_from_slice(&o.disturbed);
        }
        rects
    }

    /// Latency in microseconds (convenience for reporting).
    pub fn micros(&self) -> f64 {
        self.latency.as_secs_f64() * 1e6
    }
}

/// Lifetime counters of a resident engine, reported over the `stats` op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EcoStats {
    /// Deltas applied, bucketed by [`DeltaKind::index`].
    pub applied: [u64; 4],
    /// Batches applied.
    pub batches: u64,
    /// Targets placed through the whole-die fallback scan.
    pub fallbacks: u64,
    /// Deltas rolled back because no feasible position existed.
    pub failed: u64,
    /// Failed deltas bucketed by [`DeltaKind::index`] (sums to `failed`).
    pub failed_by_kind: [u64; 4],
}

impl EcoStats {
    /// Total deltas applied across all kinds.
    pub fn total_applied(&self) -> u64 {
        self.applied.iter().sum()
    }

    /// Mirror every counter into `registry` as `eco_*` series, with per-kind series
    /// carrying a `kind` label. The struct's own public shape is unchanged — this is the
    /// bridge onto the shared observability registry.
    pub fn publish_to(&self, registry: &flex_obs::Registry) {
        for kind in DeltaKind::ALL {
            registry.set_counter(
                &format!("eco_applied_total{{kind=\"{}\"}}", kind.name()),
                self.applied[kind.index()],
            );
            registry.set_counter(
                &format!("eco_failed_total{{kind=\"{}\"}}", kind.name()),
                self.failed_by_kind[kind.index()],
            );
        }
        registry.set_counter("eco_batches_total", self.batches);
        registry.set_counter("eco_fallbacks_total", self.fallbacks);
        registry.set_counter("eco_failed_total", self.failed);
    }
}
