//! The resident incremental ECO engine.
//!
//! [`EcoEngine`] takes ownership of a *legalized* [`Design`] together with the warm state a
//! full legalization run builds once and then throws away: the [`SegmentMap`] (fixed
//! obstacles — never invalidated by movable-cell deltas), the row-bucketed
//! [`LegalizedIndex`] and the [`DensityMap`]. An [`EcoDelta`] then costs only its
//! *disturbed neighborhood*: the target is re-seeded with the per-cell pre-move, planned
//! through the existing expanding-window FOP machinery ([`plan_place_target_with`]), and
//! committed with point updates to the index
//! ([`LegalizedIndex::insert_cell`] / [`LegalizedIndex::remove_cell`]) and density map
//! ([`DensityMap::apply_move`]) — never a full rebuild.
//!
//! Batches are validated up front: a rejected batch leaves the resident state untouched. A
//! delta that validates but finds no feasible position is rolled back individually and
//! reported as [`PlacedKind::Failed`]. A failed [`EcoDelta::InsertCell`] permanently
//! retires the id it was assigned (the slot is tombstoned, never popped), so ids are never
//! reused and later deltas in the same batch that reference it fail cleanly instead of
//! addressing a recycled slot.
//!
//! The whole design is validated ([`Design::validate_invariants`]) when the engine takes
//! it. After a batch only the cells it wrote are checked ([`Design::validate_cells`]): a
//! batch can only break the invariants of cells it wrote.

use crate::delta::{DeltaKind, DeltaOutcome, EcoDelta, EcoError, EcoReport, EcoStats, PlacedKind};
use flex_mgl::config::MglConfig;
use flex_mgl::fop::FopScratch;
use flex_mgl::legalize::{apply_commit, plan_place_target_with, MglLegalizer, PlacementDecision};
use flex_mgl::region::LegalizedIndex;
use flex_mgl::stats::FopOpStats;
use flex_placement::cell::{Cell, CellId};
use flex_placement::census::RowCensus;
use flex_placement::density::DensityMap;
use flex_placement::geom::Rect;
use flex_placement::layout::Design;
use flex_placement::legality::check_legality_with;
use flex_placement::segment::SegmentMap;
use std::time::Instant;

/// A long-lived legalization session answering incremental deltas. See the module docs.
#[derive(Debug)]
pub struct EcoEngine {
    design: Design,
    cfg: MglConfig,
    segmap: SegmentMap,
    index: LegalizedIndex,
    density: DensityMap,
    scratch: FopScratch,
    op_stats: FopOpStats,
    stats: EcoStats,
    started: Instant,
    /// Per-delta-kind apply latency, indexed by [`DeltaKind::index`].
    latency: [flex_obs::Histogram; 4],
}

/// Whether a cell slot is a removal tombstone (see `Design::tombstone_cell`).
fn is_tombstone(c: &Cell) -> bool {
    c.fixed && c.width == 0 && c.height == 0
}

impl EcoEngine {
    /// Build a resident engine over an already-legalized design: every movable cell must
    /// carry the `legalized` flag and the placement must pass the full legality check. The
    /// design's invariants, its die bounds among them, are checked first: nothing allocates
    /// per row or per bin before the die is known to be bounded.
    pub fn new(design: Design, cfg: MglConfig) -> Result<Self, EcoError> {
        design
            .validate_invariants()
            .map_err(EcoError::InvariantViolation)?;
        if !check_legality_with(&design, true).is_legal() {
            return Err(EcoError::InvariantViolation(
                "design handed to EcoEngine::new is not legal".to_string(),
            ));
        }
        let segmap = SegmentMap::build(&design);
        let index = LegalizedIndex::build(&design);
        let density = DensityMap::build(&design, cfg.density_bin_sites, cfg.density_bin_rows);
        Ok(Self {
            design,
            cfg,
            segmap,
            index,
            density,
            scratch: FopScratch::new(),
            op_stats: FopOpStats::default(),
            stats: EcoStats::default(),
            started: Instant::now(),
            latency: std::array::from_fn(|_| flex_obs::Histogram::new()),
        })
    }

    /// Rebuild a resident engine from crash-recovery state: a design as a snapshot stored
    /// it (already legal — snapshots are only ever taken of the live legal design) and the
    /// lifetime counters as of that snapshot. The warm structures (segment map, index,
    /// density map) are rebuilt from the design; replaying the journal suffix through
    /// [`EcoEngine::apply`] then reproduces the pre-crash state exactly, because `apply` is
    /// deterministic in the design state and the delta sequence.
    pub fn resume(design: Design, cfg: MglConfig, stats: EcoStats) -> Result<Self, EcoError> {
        let mut engine = Self::new(design, cfg)?;
        engine.stats = stats;
        Ok(engine)
    }

    /// Convenience bootstrap: run the full serial legalizer on `design` first, then build
    /// the resident engine on the result. Returns the engine and the legalization's
    /// reported legality (the engine itself requires it to be `true`).
    pub fn legalize_and_build(mut design: Design, cfg: MglConfig) -> Result<Self, EcoError> {
        let result = MglLegalizer::new(cfg.clone()).legalize(&mut design);
        if !result.legal {
            return Err(EcoError::InvariantViolation(format!(
                "bootstrap legalization failed for {} cells",
                result.failed.len()
            )));
        }
        Self::new(design, cfg)
    }

    /// The resident design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MglConfig {
        &self.cfg
    }

    /// The warm obstacle index (tests compare it against a full rebuild).
    pub fn index(&self) -> &LegalizedIndex {
        &self.index
    }

    /// The warm density map (tests compare it against a full rebuild).
    pub fn density(&self) -> &DensityMap {
        &self.density
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &EcoStats {
        &self.stats
    }

    /// How long this engine has been resident.
    pub fn uptime(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Per-delta latency histograms (nanoseconds), indexed by
    /// [`DeltaKind::index`](crate::delta::DeltaKind::index). Each applied delta records its
    /// individual wall-clock time into its kind's bucket.
    pub fn latency_histograms(&self) -> &[flex_obs::Histogram; 4] {
        &self.latency
    }

    /// Run the full legality check over the resident design.
    pub fn check_legal(&self) -> bool {
        check_legality_with(&self.design, true).is_legal()
    }

    /// Number of live (non-tombstoned) movable cells.
    pub fn live_cells(&self) -> usize {
        self.design
            .cells
            .iter()
            .filter(|c| !c.fixed && !is_tombstone(c))
            .count()
    }

    /// Validate a batch against the resident design without mutating anything, simulating
    /// the ids inserts would allocate and the removals earlier deltas in the batch perform.
    fn validate(&self, deltas: &[EcoDelta]) -> Result<(), EcoError> {
        let mut num_cells = self.design.cells.len();
        let mut removed_in_batch: Vec<CellId> = Vec::new();
        let check_target = |id: CellId, num_cells: usize, removed: &[CellId]| {
            if id.index() >= num_cells {
                return Err(EcoError::UnknownCell(id));
            }
            if removed.contains(&id) {
                return Err(EcoError::RemovedCell(id));
            }
            if let Some(c) = self.design.cells.get(id.index()) {
                if is_tombstone(c) {
                    return Err(EcoError::RemovedCell(id));
                }
                if c.fixed {
                    return Err(EcoError::FixedCell(id));
                }
            }
            Ok(())
        };
        let check_dims = |width: i64, height: i64| {
            if width <= 0
                || height <= 0
                || width > self.design.num_sites_x
                || height > self.design.num_rows
            {
                Err(EcoError::BadDimensions { width, height })
            } else {
                Ok(())
            }
        };
        for delta in deltas {
            match delta {
                EcoDelta::MoveCell { id, .. } => check_target(*id, num_cells, &removed_in_batch)?,
                EcoDelta::InsertCell { width, height, .. } => {
                    check_dims(*width, *height)?;
                    num_cells += 1;
                }
                EcoDelta::ResizeCell { id, width, height } => {
                    check_target(*id, num_cells, &removed_in_batch)?;
                    check_dims(*width, *height)?;
                }
                EcoDelta::RemoveCell { id } => {
                    check_target(*id, num_cells, &removed_in_batch)?;
                    removed_in_batch.push(*id);
                }
            }
        }
        Ok(())
    }

    /// Apply one delta batch. Validation errors reject the batch up front (no state
    /// changes); individual deltas with no feasible position are rolled back and counted in
    /// [`EcoReport::failed`]. Everything else updates the resident design, index and
    /// density map incrementally.
    pub fn apply(&mut self, deltas: &[EcoDelta]) -> Result<EcoReport, EcoError> {
        let _span = flex_obs::span!("eco.apply_batch");
        // deterministic stall for the supervisor's watchdog tests: a single relaxed load
        // when injection is off (replay runs suppressed, so only live batches can hang)
        crate::fault::maybe_hang("eco.engine.hang");
        let start = Instant::now();
        self.validate(deltas)?;

        let mut outcomes = Vec::with_capacity(deltas.len());
        let mut displacement_delta = 0.0f64;
        // every slot the batch writes: targets, appended and tombstoned slots (each delta's
        // outcome cell) and the neighbours plans shift
        let mut written: Vec<CellId> = Vec::with_capacity(deltas.len());

        for delta in deltas {
            // deterministic kill switch for the crash-recovery and wind-down suites: a
            // single relaxed load when injection is off
            crate::fault::maybe_panic("eco.engine.panic");
            let delta_start = Instant::now();
            let outcome = match delta {
                EcoDelta::MoveCell { id, gx, gy } => self.relegalize_target(
                    *id,
                    DeltaKind::Move,
                    &mut displacement_delta,
                    &mut written,
                    |c| {
                        c.gx = *gx;
                        c.gy = *gy;
                    },
                ),
                EcoDelta::InsertCell {
                    width,
                    height,
                    gx,
                    gy,
                } => {
                    let id =
                        self.design
                            .add_cell(Cell::movable(CellId(0), *width, *height, *gx, *gy));
                    let outcome = self.relegalize_target(
                        id,
                        DeltaKind::Insert,
                        &mut displacement_delta,
                        &mut written,
                        |_| {},
                    );
                    if outcome.placed == PlacedKind::Failed {
                        // the cell was appended by this delta and never entered the index or
                        // density map; tombstone it rather than popping so the id is burned
                        // permanently — later deltas in this batch were validated against a
                        // cell vector that includes it, and ids are never reused
                        self.design.tombstone_cell(id);
                    }
                    outcome
                }
                EcoDelta::ResizeCell { id, width, height } => self.relegalize_target(
                    *id,
                    DeltaKind::Resize,
                    &mut displacement_delta,
                    &mut written,
                    |c| {
                        c.width = *width;
                        c.height = *height;
                        c.row_parity = if height % 2 == 0 {
                            Some((c.gy.round() as i64).rem_euclid(2) as u8)
                        } else {
                            None
                        };
                    },
                ),
                EcoDelta::RemoveCell { id } => {
                    let c = self.design.cell(*id);
                    if is_tombstone(c) {
                        // the target is an earlier failed InsertCell of this batch (see
                        // relegalize_target): already retired, nothing to remove
                        DeltaOutcome {
                            cell: *id,
                            kind: DeltaKind::Remove,
                            placed: PlacedKind::Failed,
                            cells_touched: 0,
                            disturbed: Vec::new(),
                        }
                    } else {
                        let (old_rect, old_y, old_h, old_disp) =
                            (c.rect(), c.y, c.height, c.displacement());
                        self.index.remove_cell(*id, old_y, old_h);
                        self.density.remove_rect(&old_rect);
                        self.design.tombstone_cell(*id);
                        displacement_delta -= old_disp;
                        self.stats.applied[DeltaKind::Remove.index()] += 1;
                        DeltaOutcome {
                            cell: *id,
                            kind: DeltaKind::Remove,
                            placed: PlacedKind::NotNeeded,
                            cells_touched: 1,
                            disturbed: vec![old_rect],
                        }
                    }
                }
            };
            self.latency[delta.kind().index()].record_duration(delta_start.elapsed());
            if outcome.placed == PlacedKind::Failed {
                self.stats.failed_by_kind[outcome.kind.index()] += 1;
            }
            written.push(outcome.cell);
            outcomes.push(outcome);
        }

        self.design
            .validate_cells(written)
            .map_err(EcoError::InvariantViolation)?;

        let cells_touched = outcomes.iter().map(|o| o.cells_touched).sum();
        let fallbacks = outcomes
            .iter()
            .filter(|o| o.placed == PlacedKind::Fallback)
            .count();
        let failed = outcomes
            .iter()
            .filter(|o| o.placed == PlacedKind::Failed)
            .count();
        self.stats.batches += 1;
        self.stats.fallbacks += fallbacks as u64;
        self.stats.failed += failed as u64;
        Ok(EcoReport {
            outcomes,
            cells_touched,
            displacement_delta,
            fallbacks,
            failed,
            latency: start.elapsed(),
        })
    }

    /// Shared move/insert/resize body: mutate the target with `change`, re-seed it with the
    /// per-cell pre-move, plan through the expanding-window FOP + fallback machinery, and
    /// commit with point updates — or roll the target back if nothing fits. The neighbours
    /// the plan shifts are appended to `written` (the caller records the target).
    fn relegalize_target(
        &mut self,
        id: CellId,
        kind: DeltaKind,
        displacement_delta: &mut f64,
        written: &mut Vec<CellId>,
        change: impl FnOnce(&mut Cell),
    ) -> DeltaOutcome {
        // validation lets later deltas reference the id a prior InsertCell allocates, so if
        // that insert failed placement the target here is its tombstone: fail the dependent
        // delta instead of legalizing a retired slot
        if is_tombstone(self.design.cell(id)) {
            return DeltaOutcome {
                cell: id,
                kind,
                placed: PlacedKind::Failed,
                cells_touched: 0,
                disturbed: Vec::new(),
            };
        }
        let saved = self.design.cell(id).clone();
        let was_placed = saved.legalized;
        let old_rect = saved.rect();

        change(self.design.cell_mut(id));
        self.design.pre_move_cell(id);
        if was_placed {
            self.index.remove_cell(id, saved.y, saved.height);
        }

        let planned = plan_place_target_with(
            &self.design,
            &self.segmap,
            &self.index,
            &self.cfg,
            id,
            &mut self.op_stats,
            &mut self.scratch,
        );

        if matches!(planned.decision, PlacementDecision::Fail) {
            // roll this delta back: the slot reverts to its pre-delta cell wholesale
            *self.design.cell_mut(id) = saved.clone();
            if was_placed {
                self.index.insert_cell(id, saved.y, saved.height);
            }
            return DeltaOutcome {
                cell: id,
                kind,
                placed: PlacedKind::Failed,
                cells_touched: 0,
                disturbed: Vec::new(),
            };
        }

        // the disturbed neighborhood: where the target was, what planning read (the last
        // window it evaluated, which contains every earlier level's, or the whole die once
        // the fallback scan ran) and the rectangles the placement writes
        let mut disturbed = Vec::with_capacity(planned.writes.len() + 2);
        if was_placed {
            disturbed.push(old_rect);
        }
        disturbed.push(match planned.decision {
            PlacementDecision::Fallback { .. } => self.design.die(),
            _ => planned.window,
        });
        disturbed.extend_from_slice(&planned.writes);

        // density + displacement bookkeeping for shifted neighbors needs their pre-commit
        // rects, so collect the moves before applying the plan
        let mut neighbor_moves: Vec<(Rect, Rect)> = Vec::new();
        let (placed, cells_touched) = match planned.decision {
            PlacementDecision::Region(ref plan) => {
                for &(mid, new_x) in &plan.moves {
                    written.push(mid);
                    let mc = self.design.cell(mid);
                    let to = Rect::new(new_x, mc.y, new_x + mc.width, mc.y + mc.height);
                    neighbor_moves.push((mc.rect(), to));
                    *displacement_delta +=
                        (new_x as f64 - mc.gx).abs() - (mc.x as f64 - mc.gx).abs();
                }
                let touched = 1 + plan.moves.len();
                apply_commit(&mut self.design, plan);
                (PlacedKind::Region, touched)
            }
            PlacementDecision::Fallback { x, row } => {
                let t = self.design.cell_mut(id);
                t.x = x;
                t.y = row;
                t.legalized = true;
                (PlacedKind::Fallback, 1)
            }
            PlacementDecision::Fail => unreachable!("handled above"),
        };

        // point updates, never rebuilds: sorted-by-id index insertion keeps the warm index
        // bucket-identical to a full rebuild, and apply_move touches only the bins the old
        // and new extents overlap
        let t = self.design.cell(id);
        let (new_rect, new_y, new_h) = (t.rect(), t.y, t.height);
        self.index.insert_cell(id, new_y, new_h);
        if was_placed {
            self.density.apply_move(&old_rect, &new_rect);
        } else {
            self.density.add_rect(&new_rect);
        }
        for (from, to) in &neighbor_moves {
            self.density.apply_move(from, to);
        }

        // vertical displacement of the target changed too (neighbors only shift in x)
        let before = if was_placed {
            (saved.x as f64 - saved.gx).abs() + (saved.y as f64 - saved.gy).abs()
        } else {
            0.0
        };
        *displacement_delta += t.displacement() - before;

        self.stats.applied[kind.index()] += 1;
        DeltaOutcome {
            cell: id,
            kind,
            placed,
            cells_touched,
            disturbed,
        }
    }

    /// Audit the warm structures over the design rows in `ranges` (any order, overlapping
    /// or off the die) against the resident design — the invariant scrubber's inner step.
    /// One pass over the design gathers what all three audits read ([`RowCensus`]), then
    /// each structure is compared with it. Returns the findings, one per structure that
    /// diverges from what a from-scratch build would contain (none: the rows are clean),
    /// and the number of rows audited. Read-only: repairs go through
    /// [`EcoEngine::rebuild_structure`].
    pub fn audit(&self, ranges: &[(i64, i64)]) -> (Vec<ScrubFinding>, usize) {
        let census = RowCensus::gather(&self.design, ranges, self.density.bin_size());
        let findings = ScrubStructure::ALL
            .into_iter()
            .filter_map(|structure| {
                let audited = match structure {
                    ScrubStructure::Index => self.index.audit(&self.design, &census),
                    ScrubStructure::Density => self.density.audit(&self.design, &census),
                    ScrubStructure::Segments => self.segmap.audit(&self.design, &census),
                };
                audited
                    .err()
                    .map(|detail| ScrubFinding { structure, detail })
            })
            .collect();
        (findings, census.num_rows())
    }

    /// Rebuild one warm structure from scratch off the resident design — the graceful
    /// degradation path when the scrubber finds corruption: only the corrupt structure is
    /// rebuilt, the design and the other structures stay warm. Deliberately does **not**
    /// touch [`EcoStats`] (lifetime counters are reconstructed by journal replay, which
    /// never sees scrub repairs); the supervisor accounts repairs separately.
    pub fn rebuild_structure(&mut self, structure: ScrubStructure) {
        match structure {
            ScrubStructure::Index => self.index = LegalizedIndex::build(&self.design),
            ScrubStructure::Density => {
                self.density = DensityMap::build(
                    &self.design,
                    self.cfg.density_bin_sites,
                    self.cfg.density_bin_rows,
                )
            }
            ScrubStructure::Segments => self.segmap = SegmentMap::build(&self.design),
        }
    }

    /// Deliberately damage one warm structure near `row` — the fault-injection hook
    /// behind the `eco.scrub.corrupt` failpoint. Returns `false` if nothing could be
    /// damaged there (e.g. an empty index row). Test/fault machinery, not an API.
    #[doc(hidden)]
    pub fn corrupt_structure(&mut self, structure: ScrubStructure, row: i64) -> bool {
        match structure {
            ScrubStructure::Index => {
                // unregister one live cell from one of its rows: the bucket now lies
                let victim = self
                    .design
                    .cells
                    .iter()
                    .find(|c| !c.fixed && c.legalized && c.y <= row && row < c.y + c.height)
                    .or_else(|| self.design.cells.iter().find(|c| !c.fixed && c.legalized));
                match victim {
                    Some(c) => {
                        let at = row.clamp(c.y, c.y + c.height - 1);
                        self.index.remove_cell(c.id, at, 1);
                        true
                    }
                    None => false,
                }
            }
            ScrubStructure::Density => {
                let row = row.clamp(0, self.design.num_rows.max(1) - 1);
                self.density.add_rect(&Rect::new(0, row, 1, row + 1));
                true
            }
            ScrubStructure::Segments => self.segmap.corrupt_row(row),
        }
    }
}

/// One of the engine's warm structures, as the scrubber's audit/rebuild unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubStructure {
    /// The row-bucketed [`LegalizedIndex`].
    Index,
    /// The bin-grid [`DensityMap`].
    Density,
    /// The fixed-obstacle [`SegmentMap`].
    Segments,
}

impl ScrubStructure {
    /// All structures, in audit order.
    pub const ALL: [ScrubStructure; 3] = [
        ScrubStructure::Index,
        ScrubStructure::Density,
        ScrubStructure::Segments,
    ];

    /// Stable name for metrics labels and corruption events.
    pub fn name(self) -> &'static str {
        match self {
            ScrubStructure::Index => "index",
            ScrubStructure::Density => "density",
            ScrubStructure::Segments => "segments",
        }
    }
}

/// One corruption the scrubber found: which structure diverged and the structure's own
/// first-divergence evidence.
#[derive(Debug, Clone)]
pub struct ScrubFinding {
    /// The structure that no longer matches the design.
    pub structure: ScrubStructure,
    /// First-divergence evidence from the structure's `audit`.
    pub detail: String,
}
