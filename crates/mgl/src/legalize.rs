//! The end-to-end MGL legalizer (the flow of Fig. 3(e)).

use crate::config::MglConfig;
use crate::fop::{self, FopScratch, Placement, TargetSpec};
use crate::ordering;
use crate::region::{target_window, LegalizedIndex, LocalRegion};
use crate::shift::{shift_phase_with, Phase, ShiftProblem};
use crate::stats::{FopOpStats, RegionWork, WorkTrace};
use flex_placement::cell::CellId;
use flex_placement::geom::{Interval, Rect};
use flex_placement::layout::{blocked_in_row, free_among, Design};
use flex_placement::legality::check_legality_with;
use flex_placement::metrics::displacement_stats;
use flex_placement::segment::SegmentMap;
use std::time::{Duration, Instant};

/// Outcome of a legalization run.
#[derive(Debug, Clone)]
pub struct LegalizeResult {
    /// Whether the final placement passes the full legality check.
    pub legal: bool,
    /// Number of cells committed through FOP inside a localRegion.
    pub placed_in_region: usize,
    /// Number of cells placed by the fallback scan (no feasible insertion point in any window).
    pub fallback_placed: usize,
    /// Cells that could not be placed at all.
    pub failed: Vec<CellId>,
    /// Wall-clock runtime of the whole legalization.
    pub runtime: Duration,
    /// Average displacement `S_am` (Eq. (2)) of the final placement.
    pub average_displacement: f64,
    /// Maximum single-cell displacement.
    pub max_displacement: f64,
    /// Accumulated per-operator FOP timings.
    pub op_stats: FopOpStats,
    /// Per-region work trace (present when `MglConfig::collect_trace` is set).
    pub trace: Option<WorkTrace>,
}

/// The MGL legalizer.
#[derive(Debug, Clone)]
pub struct MglLegalizer {
    config: MglConfig,
}

impl MglLegalizer {
    /// Create a legalizer with the given configuration.
    pub fn new(config: MglConfig) -> Self {
        Self { config }
    }

    /// Legalize every movable cell of the design in place.
    pub fn legalize(&self, design: &mut Design) -> LegalizeResult {
        let start = Instant::now();
        let cfg = &self.config;

        // steps (a) and (b): input & pre-move, then the processing order
        let build_span = flex_obs::span!("mgl.build_structures");
        design.pre_move();
        let segmap = SegmentMap::build(design);
        let mut index = LegalizedIndex::build(design);
        let order = ordering::processing_order(design, cfg);
        drop(build_span);

        let mut run = RunAccum::new(cfg.collect_trace);
        // one arena for the whole run: every region's FOP, shifting and commit planning
        // reuse the same grow-only buffers
        let mut scratch = FopScratch::new();

        let place_span = flex_obs::span!("mgl.place_loop");
        for target in order {
            let outcome = place_target_with(
                design,
                &segmap,
                &mut index,
                cfg,
                target,
                &mut run.op_stats,
                &mut scratch,
            );
            run.record(target, outcome.placed, outcome.work, outcome.window);
        }
        drop(place_span);

        run.finish(design, start)
    }
}

/// What a legalization run books per target, and the epilogue that turns it into a
/// [`LegalizeResult`]. The serial and the parallel engine share it, so both count and trace
/// their placements the same way.
pub(crate) struct RunAccum {
    /// Per-operator FOP timings of every placement, speculative or serial.
    pub(crate) op_stats: FopOpStats,
    trace: Option<WorkTrace>,
    prev_window: Option<Rect>,
    placed_in_region: usize,
    fallback_placed: usize,
    failed: Vec<CellId>,
}

impl RunAccum {
    pub(crate) fn new(collect_trace: bool) -> Self {
        Self {
            op_stats: FopOpStats::default(),
            trace: collect_trace.then(WorkTrace::default),
            prev_window: None,
            placed_in_region: 0,
            fallback_placed: 0,
            failed: Vec::new(),
        }
    }

    /// Book one target, in processing order: how it was placed and, when tracing, its work
    /// counters, marking on the previous target's entry whether the two windows overlap.
    pub(crate) fn record(
        &mut self,
        target: CellId,
        placed: PlacedBy,
        mut work: RegionWork,
        window: Rect,
    ) {
        match placed {
            PlacedBy::Region => self.placed_in_region += 1,
            PlacedBy::Fallback => self.fallback_placed += 1,
            PlacedBy::None => self.failed.push(target),
        }
        if let Some(trace) = self.trace.as_mut() {
            work.placed_in_region = placed == PlacedBy::Region;
            // a region can be preloaded while the previous one is processed only if the two
            // windows do not overlap (Sec. 3.1.2)
            if let (Some(prev), Some(entry)) = (self.prev_window, trace.regions.last_mut()) {
                entry.next_region_overlaps = prev.overlaps(&window);
            }
            trace.regions.push(work);
        }
        self.prev_window = Some(window);
    }

    /// Step (e): verify the placement, measure its displacement, and publish the run's FOP
    /// timings and work trace.
    pub(crate) fn finish(self, design: &Design, start: Instant) -> LegalizeResult {
        let verify_span = flex_obs::span!("mgl.verify");
        let report = check_legality_with(design, true);
        drop(verify_span);
        let disp = displacement_stats(design);
        self.op_stats.publish_to(flex_obs::global());
        if let Some(trace) = &self.trace {
            trace.publish_to(flex_obs::global());
        }
        LegalizeResult {
            legal: report.is_legal(),
            placed_in_region: self.placed_in_region,
            fallback_placed: self.fallback_placed,
            failed: self.failed,
            runtime: start.elapsed(),
            average_displacement: disp.average,
            max_displacement: disp.max,
            op_stats: self.op_stats,
            trace: self.trace,
        }
    }
}

/// How a target cell ended up being placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacedBy {
    /// Committed through FOP inside a localRegion.
    Region,
    /// Placed by the whole-die fallback scan.
    Fallback,
    /// Could not be placed at all.
    None,
}

/// What [`place_target_with`] did for one target cell.
#[derive(Debug, Clone)]
pub struct PlaceOutcome {
    /// How the cell was placed.
    pub placed: PlacedBy,
    /// The window of the successful expansion, or the last window evaluated.
    pub window: Rect,
    /// Expansion level of [`Self::window`]: the level at which the cell was committed, or
    /// the last level evaluated (see [`plan_windows`]).
    pub expansion: u32,
    /// One rectangle per design write the placement performed: for each moved localCell the
    /// union of its old and new extent, plus the target's committed extent; empty when
    /// nothing was written. The parallel engine checks a stale speculation's guard against
    /// each rect individually, so a commit whose writes all land outside the guard does not
    /// invalidate it (per-slot tracking, versus the former single bounding box).
    pub writes: Vec<Rect>,
    /// The commit plan that was applied when the cell was placed inside a region (`None` for
    /// fallback/failed cells, whose only write is the target itself). The parallel engine
    /// reads the cells it moved to bring its lagging speculation shadows up to date.
    pub plan: Option<CommitPlan>,
    /// Work counters accumulated over every evaluated expansion.
    pub work: RegionWork,
}

/// Place one target cell serially with an explicit scratch arena: expanding-window FOP
/// first, then the fallback scan.
///
/// This is the per-cell step of the serial [`MglLegalizer`]; the parallel engine
/// ([`crate::parallel::ParallelMglLegalizer`]) runs it for cells whose level-0
/// speculation it cannot apply, and DATE'22 places every cell with it. Implemented as
/// [`plan_place_target_with`] (pure) followed by [`apply_placement`].
pub fn place_target_with(
    design: &mut Design,
    segmap: &SegmentMap,
    index: &mut LegalizedIndex,
    cfg: &MglConfig,
    target: CellId,
    op_stats: &mut FopOpStats,
    scratch: &mut FopScratch,
) -> PlaceOutcome {
    let planned = plan_place_target_with(design, segmap, index, cfg, target, op_stats, scratch);
    apply_placement(design, index, planned)
}

/// What [`plan_place_target_with`] decided to do with a target cell, before any design write.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementDecision {
    /// A verified region commit: apply via [`apply_commit`].
    Region(CommitPlan),
    /// The whole-die fallback scan found a gap at `(x, row)`.
    Fallback {
        /// Left-edge site of the gap.
        x: i64,
        /// Bottom row of the gap.
        row: i64,
    },
    /// No feasible position anywhere.
    Fail,
}

/// A planned (not yet applied) placement of one target cell: the decision plus everything
/// [`PlaceOutcome`] reports. `writes` is already populated — write rects must be computed
/// against the *pre-apply* design, so the planner records them while it still sees it.
#[derive(Debug, Clone)]
pub struct PlannedPlacement {
    /// The target the plan is for.
    pub target: CellId,
    /// What to do with it.
    pub decision: PlacementDecision,
    /// The window of the successful expansion, or the last window evaluated.
    pub window: Rect,
    /// Expansion level of [`Self::window`]: the last level evaluated (see [`plan_windows`]).
    pub expansion: u32,
    /// One rect per design write the decision implies (empty for [`PlacementDecision::Fail`]).
    pub writes: Vec<Rect>,
    /// Work counters accumulated over every evaluated expansion.
    pub work: RegionWork,
}

impl PlannedPlacement {
    /// The region commit of `plan`, found in `window` at level `expansion`, with its write
    /// rects recorded against `design` (the state the plan was computed on).
    pub(crate) fn region(
        design: &Design,
        plan: CommitPlan,
        window: Rect,
        expansion: u32,
        work: RegionWork,
    ) -> Self {
        let mut writes = Vec::new();
        plan_write_rects(design, &plan, &mut writes);
        Self {
            target: plan.target,
            decision: PlacementDecision::Region(plan),
            window,
            expansion,
            writes,
            work,
        }
    }
}

/// How one window of the per-cell step ended ([`plan_window`]): a verified commit plan, or
/// the reason this window placed nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowOutcome {
    /// The region holds more than `max_region_cells` localCells; larger windows only grow it.
    Oversize,
    /// No row of the region can hold the target (width, height or parity).
    CannotHost,
    /// FOP found no feasible insertion point.
    NoFeasiblePoint,
    /// FOP's best placement failed commit planning.
    Rejected,
    /// A verified commit of FOP's best placement.
    Planned(CommitPlan),
}

/// The work counters of one target before any window is evaluated.
pub(crate) fn target_work(target: CellId, spec: &TargetSpec) -> RegionWork {
    RegionWork {
        target,
        target_width: spec.width,
        target_height: spec.height,
        ..RegionWork::default()
    }
}

/// The target's window at expansion level `expansion`: both half-extents doubled
/// `expansion` times, clipped to the die.
pub fn expansion_window(design: &Design, cfg: &MglConfig, target: CellId, expansion: u32) -> Rect {
    target_window(
        design,
        target,
        cfg.window_half_sites << expansion,
        cfg.window_half_rows << expansion,
    )
}

/// One window of the per-cell step (Fig. 3(e)), without touching the design: extract the
/// target's localRegion in `window`, cut oversize regions and regions that cannot host the
/// target, run FOP and plan the commit of its best placement. FOP's work counters accumulate
/// into `work`.
///
/// Every engine's window pipeline is this function: the serial step
/// ([`plan_place_target_with`]) and the TCAD'22 baseline loop it over the expansion levels
/// through [`plan_windows`], each with its own stopping rule, and the parallel engine
/// speculates it at level 0.
#[allow(clippy::too_many_arguments)]
pub fn plan_window(
    design: &Design,
    segmap: &SegmentMap,
    index: &LegalizedIndex,
    cfg: &MglConfig,
    spec: &TargetSpec,
    target: CellId,
    window: Rect,
    work: &mut RegionWork,
    op_stats: &mut FopOpStats,
    scratch: &mut FopScratch,
) -> WindowOutcome {
    let extract_span = flex_obs::span!("mgl.extract");
    let region = LocalRegion::extract_indexed(design, segmap, target, window, index);
    drop(extract_span);
    if region.cells.len() > cfg.max_region_cells {
        return WindowOutcome::Oversize;
    }
    if !region.can_host(spec.width, spec.height, spec.parity) {
        return WindowOutcome::CannotHost;
    }
    let fop_span = flex_obs::span!("mgl.fop");
    let outcome = fop::find_optimal_position_with(&region, spec, cfg, op_stats, scratch);
    drop(fop_span);
    accumulate_work(work, &outcome.work);
    let Some(best) = outcome.best else {
        return WindowOutcome::NoFeasiblePoint;
    };
    let _plan_span = flex_obs::span!("mgl.plan_commit");
    match plan_commit_with(&region, &best, spec, cfg, scratch) {
        Some(plan) => WindowOutcome::Planned(plan),
        None => WindowOutcome::Rejected,
    }
}

/// The expansion loop: [`plan_window`] at levels 0, 1, … up to `max_window_expansions`
/// until `settle` returns a value for a level's outcome or a region is oversize (larger
/// windows only grow it).
///
/// A level whose window, clipped to the die, equals the previous level's ends the loop
/// unevaluated. Extraction, FOP and commit planning are pure, so it would repeat the
/// previous outcome, and so would every later level: a half-extent clipped at one level is
/// clipped at every larger one. Each distinct window is therefore evaluated, and counted in
/// `work`, once.
///
/// Returns the last window evaluated and its level, with `settle`'s value if a level
/// settled the target.
#[allow(clippy::too_many_arguments)]
pub fn plan_windows<T>(
    design: &Design,
    segmap: &SegmentMap,
    index: &LegalizedIndex,
    cfg: &MglConfig,
    spec: &TargetSpec,
    target: CellId,
    work: &mut RegionWork,
    op_stats: &mut FopOpStats,
    scratch: &mut FopScratch,
    mut settle: impl FnMut(WindowOutcome) -> Option<T>,
) -> (Rect, u32, Option<T>) {
    let mut expansion = 0;
    let mut window = expansion_window(design, cfg, target, expansion);
    loop {
        let outcome = plan_window(
            design, segmap, index, cfg, spec, target, window, work, op_stats, scratch,
        );
        if outcome == WindowOutcome::Oversize {
            return (window, expansion, None);
        }
        if let Some(settled) = settle(outcome) {
            return (window, expansion, Some(settled));
        }
        if expansion == cfg.max_window_expansions {
            return (window, expansion, None);
        }
        let next = expansion_window(design, cfg, target, expansion + 1);
        if next == window {
            return (window, expansion, None);
        }
        (window, expansion) = (next, expansion + 1);
    }
}

/// The planning half of [`place_target_with`]: [`plan_windows`] until a level plans a
/// commit, else the fallback scan, without touching the design or the index. The ECO engine
/// plans against the resident state, derives the disturbed neighborhood from
/// [`PlannedPlacement::writes`], and only then applies; the serial engine applies
/// immediately.
pub fn plan_place_target_with(
    design: &Design,
    segmap: &SegmentMap,
    index: &LegalizedIndex,
    cfg: &MglConfig,
    target: CellId,
    op_stats: &mut FopOpStats,
    scratch: &mut FopScratch,
) -> PlannedPlacement {
    let spec = TargetSpec::of(design.cell(target));
    let mut work = target_work(target, &spec);
    let (window, expansion, plan) = plan_windows(
        design,
        segmap,
        index,
        cfg,
        &spec,
        target,
        &mut work,
        op_stats,
        scratch,
        |outcome| match outcome {
            WindowOutcome::Planned(plan) => Some(plan),
            _ => None,
        },
    );
    if let Some(plan) = plan {
        return PlannedPlacement::region(design, plan, window, expansion, work);
    }

    let _fallback_span = flex_obs::span!("mgl.fallback_scan");
    let (decision, writes) = match find_fallback_position(design, index, target, &spec) {
        Some((x, row)) => (
            PlacementDecision::Fallback { x, row },
            vec![Rect::new(x, row, x + spec.width, row + spec.height)],
        ),
        None => (PlacementDecision::Fail, Vec::new()),
    };
    PlannedPlacement {
        target,
        decision,
        window,
        expansion,
        writes,
        work,
    }
}

/// The application half of [`place_target_with`]: write a [`PlannedPlacement`] into the
/// design and register the target in the index. The plan must have been computed against the
/// design's current state.
pub fn apply_placement(
    design: &mut Design,
    index: &mut LegalizedIndex,
    planned: PlannedPlacement,
) -> PlaceOutcome {
    let PlannedPlacement {
        target,
        decision,
        window,
        expansion,
        writes,
        work,
    } = planned;
    let (placed, plan) = match decision {
        PlacementDecision::Region(plan) => {
            let _apply_span = flex_obs::span!("mgl.apply_commit");
            apply_commit(design, &plan);
            index.insert(design, target);
            (PlacedBy::Region, Some(plan))
        }
        PlacementDecision::Fallback { x, row } => {
            let t = design.cell_mut(target);
            t.x = x;
            t.y = row;
            t.legalized = true;
            index.insert(design, target);
            (PlacedBy::Fallback, None)
        }
        PlacementDecision::Fail => (PlacedBy::None, None),
    };
    PlaceOutcome {
        placed,
        window,
        expansion,
        writes,
        plan,
        work,
    }
}

/// Smallest rectangle containing both operands.
fn union_rect(a: Rect, b: Rect) -> Rect {
    Rect::new(
        a.x_lo.min(b.x_lo),
        a.y_lo.min(b.y_lo),
        a.x_hi.max(b.x_hi),
        a.y_hi.max(b.y_hi),
    )
}

/// Append one rectangle per design write applying `plan` would perform: the target's
/// committed extent, and for each moved localCell the union of its old and new extent
/// (moves only ever shift x within a row, so that union is the swept span). Must be called
/// *before* [`apply_commit`] (it reads the cells' current positions).
///
/// One rect per write, rather than their bounding box, lets the parallel engine keep a
/// speculation alive when a commit's actual writes all miss its guard window even though
/// their collective bounding box would hit it.
pub fn plan_write_rects(design: &Design, plan: &CommitPlan, out: &mut Vec<Rect>) {
    let t = design.cell(plan.target);
    out.push(Rect::new(
        plan.x,
        plan.row,
        plan.x + t.width,
        plan.row + t.height,
    ));
    for &(id, new_x) in &plan.moves {
        let c = design.cell(id);
        out.push(union_rect(
            c.rect(),
            Rect::new(new_x, c.y, new_x + c.width, c.y + c.height),
        ));
    }
}

fn accumulate_work(into: &mut RegionWork, from: &RegionWork) {
    into.local_cells = into.local_cells.max(from.local_cells);
    into.segments = into.segments.max(from.segments);
    into.insertion_points += from.insertion_points;
    into.feasible_points += from.feasible_points;
    into.breakpoints += from.breakpoints;
    into.subcell_visits += from.subcell_visits;
    into.shift_passes += from.shift_passes;
    into.sorted_cells += from.sorted_cells;
    into.bound_queries += from.bound_queries;
}

/// The design writes a verified placement implies: every shifted localCell's new x plus the
/// target's committed position. Computing the plan is pure (no design access), which is what
/// lets the parallel engine run FOP + verification speculatively on a shared `&Design` and
/// serialize only the (cheap) application.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitPlan {
    /// The target cell being committed.
    pub target: CellId,
    /// Committed left-edge x of the target.
    pub x: i64,
    /// Committed bottom row of the target.
    pub row: i64,
    /// New x for every localCell the shift actually moved.
    pub moves: Vec<(CellId, i64)>,
}

/// Plan a placement commit with an explicit scratch arena: run both shifting phases into the
/// scratch's outcome buffers and verify the region stays overlap-free.
///
/// Contract: `scratch` holds the presort that FOP ([`fop::find_optimal_position_with`]) left
/// for this `region`, which is not sorted a second time; shifting panics on a scratch
/// prepared for another region.
///
/// Pure with respect to the design — everything is computed from the extracted `region`.
/// Returns `None` if either phase is infeasible or the verification fails. The configuration
/// is unread; the parameter stays for the benchmark harness, which calls this signature.
pub fn plan_commit_with(
    region: &LocalRegion,
    placement: &Placement,
    spec: &TargetSpec,
    _cfg: &MglConfig,
    scratch: &mut FopScratch,
) -> Option<CommitPlan> {
    let problem = ShiftProblem {
        region,
        point: &placement.point,
        target_width: spec.width,
        target_height: spec.height,
        target_x: placement.x,
    };
    let FopScratch {
        shift,
        left,
        right,
        commit_pos,
        commit_spans,
        ..
    } = scratch;
    shift_phase_with(&problem, Phase::Left, shift, left).ok()?;
    shift_phase_with(&problem, Phase::Right, shift, right).ok()?;

    // The merge of the dense phase outcomes: the right phase lists every cell outside the
    // left chain, moved or not, and is applied last, so a left-phase move stands only on the
    // left chain (a cell it pushed elsewhere returns to its region x and fails verification).
    commit_pos.clear();
    commit_pos.extend(region.cells.iter().map(|c| c.x));
    let left_chain = &placement.point.left_chain;
    for &(i, x) in &left.moved {
        if left_chain.iter().flatten().any(|&j| j == i) {
            commit_pos[i] = x;
        }
    }
    for &(i, x) in &right.moved {
        commit_pos[i] = x;
    }

    // verification: per segment row, no overlaps among localCells and the target, and every
    // cell stays inside its segment; a row's cells come from the shift scratch's row lists
    let target = Interval::new(placement.x, placement.x + spec.width);
    let target_rows = placement.row..placement.row + spec.height;
    for (s, seg) in region.segments.iter().enumerate() {
        commit_spans.clear();
        if target_rows.contains(&seg.row) {
            commit_spans.push((target, 0));
        }
        for &i in shift.row_cells(s) {
            let iv = Interval::new(commit_pos[i], commit_pos[i] + region.cells[i].width);
            if !seg.span.contains_interval(&iv) {
                return None;
            }
            commit_spans.push((iv, i + 1));
        }
        // the target first, then ascending cell index: the order a scan of every region cell
        // inserts the spans in, which decides the adjacency of zero-width spans
        commit_spans.sort_unstable_by_key(|&(iv, rank)| (iv.lo, rank));
        if commit_spans.windows(2).any(|w| w[0].0.overlaps(&w[1].0)) {
            return None;
        }
    }
    if !target_rows.clone().all(|r| {
        region
            .segment(r)
            .is_some_and(|s| s.span.contains_interval(&target))
    }) {
        return None;
    }

    let moves = region
        .cells
        .iter()
        .enumerate()
        .filter(|(i, c)| commit_pos[*i] != c.x)
        .map(|(i, c)| (c.id, commit_pos[i]))
        .collect();
    Some(CommitPlan {
        target: region.target,
        x: placement.x,
        row: placement.row,
        moves,
    })
}

/// Write a verified [`CommitPlan`] into the design.
pub fn apply_commit(design: &mut Design, plan: &CommitPlan) {
    for &(id, x) in &plan.moves {
        design.cell_mut(id).x = x;
    }
    let t = design.cell_mut(plan.target);
    t.x = plan.x;
    t.y = plan.row;
    t.legalized = true;
}

/// Fallback placement: write the target at [`find_fallback_position`], the nearest spot where
/// it fits between the already-legalized cells without shifting anything. `index` must hold
/// exactly the design's legalized movable cells; it is not updated here. Returns `false`
/// without touching the design if the die has no gap for the target.
pub fn fallback_place_indexed(
    design: &mut Design,
    index: &LegalizedIndex,
    target: CellId,
    spec: &TargetSpec,
) -> bool {
    if let Some((x, row)) = find_fallback_position(design, index, target, spec) {
        let t = design.cell_mut(target);
        t.x = x;
        t.y = row;
        t.legalized = true;
        true
    } else {
        false
    }
}

/// The search half of [`fallback_place_indexed`]: the nearest `(x, row)` where the target
/// fits between the already-legalized cells without shifting anything, or `None` if the die
/// has no gap for it (a target taller than the die never fits). Pure — the caller decides
/// whether to write the position. A call reads the design's cells once, to collect the
/// die's blockers; each row a candidate spans then costs one [`free_among`] sweep of that
/// row's blockers and the cells `index` holds for it, the target left out.
pub fn find_fallback_position(
    design: &Design,
    index: &LegalizedIndex,
    target: CellId,
    spec: &TargetSpec,
) -> Option<(i64, i64)> {
    let (gx, gy) = (spec.gx, spec.gy);
    let blockers = design.blockers_in_rows(0, design.num_rows);
    let row_sites = Interval::new(0, design.num_sites_x);
    let mut cuts = Vec::new();
    // the free intervals of `row`: its sites minus its blockers and its legalized cells
    let mut row_free = |row: i64, free: &mut Vec<Interval>| {
        cuts.clear();
        cuts.extend(blocked_in_row(&blockers, row));
        cuts.extend(
            index
                .cells_in_row(row)
                .iter()
                .filter(|&&id| id != target)
                .map(|&id| design.cell(id).x_interval()),
        );
        free_among(row_sites, &mut cuts, free);
    };

    let (mut pieces, mut other) = (Vec::new(), Vec::new());
    let mut best: Option<(f64, i64, i64)> = None; // (cost, x, row)
    for row in 0..=design.num_rows - spec.height {
        if let Some(p) = spec.parity {
            if row.rem_euclid(2) as u8 != p {
                continue;
            }
        }
        // prune rows that cannot beat the current best on vertical distance alone
        if let Some((cost, _, _)) = best {
            if (row as f64 - gy).abs() >= cost {
                continue;
            }
        }
        // intersect the free intervals of all rows the cell would span
        row_free(row, &mut pieces);
        for r in row + 1..row + spec.height {
            row_free(r, &mut other);
            let mut next = Vec::new();
            for p in &pieces {
                for o in &other {
                    let i = p.intersect(o);
                    if i.len() >= spec.width {
                        next.push(i);
                    }
                }
            }
            pieces = next;
            if pieces.is_empty() {
                break;
            }
        }
        for piece in &pieces {
            if piece.len() < spec.width {
                continue;
            }
            let x = (gx.round() as i64).clamp(piece.lo, piece.hi - spec.width);
            let cost = (x as f64 - gx).abs() + (row as f64 - gy).abs();
            if best.map(|(c, _, _)| cost < c).unwrap_or(true) {
                best = Some((cost, x, row));
            }
        }
    }

    best.map(|(_, x, row)| (x, row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OrderingStrategy;
    use crate::sacs::tests::{enumerate, random_point, random_region};
    use flex_placement::benchmark::{generate, BenchmarkSpec};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn tiny_design(seed: u64) -> Design {
        generate(&BenchmarkSpec::tiny("legalize-tiny", seed))
    }

    #[test]
    fn legalizes_a_small_benchmark_completely() {
        let mut d = tiny_design(1);
        let result = MglLegalizer::new(MglConfig::default()).legalize(&mut d);
        assert!(
            result.legal,
            "failed: {:?}, fallback: {}",
            result.failed, result.fallback_placed
        );
        assert!(result.failed.is_empty());
        assert_eq!(
            result.placed_in_region + result.fallback_placed,
            d.num_movable()
        );
        assert!(result.average_displacement >= 0.0);
        assert!(result.op_stats.total_ns() > 0);
    }

    #[test]
    fn original_configuration_also_legalizes_and_quality_is_comparable() {
        let mut d1 = tiny_design(2);
        let mut d2 = tiny_design(2);
        let flex = MglLegalizer::new(MglConfig::flex()).legalize(&mut d1);
        let orig = MglLegalizer::new(MglConfig::original()).legalize(&mut d2);
        assert!(flex.legal);
        assert!(orig.legal);
        // same algorithm family: displacements should be in the same ballpark
        let ratio = flex.average_displacement / orig.average_displacement.max(1e-9);
        assert!(
            ratio < 1.6,
            "flex {} vs original {}",
            flex.average_displacement,
            orig.average_displacement
        );
    }

    #[test]
    fn trace_collection_produces_one_entry_per_target() {
        let mut d = tiny_design(4);
        let n = d.num_movable();
        let res = MglLegalizer::new(MglConfig {
            collect_trace: true,
            ..MglConfig::default()
        })
        .legalize(&mut d);
        let trace = res.trace.expect("trace requested");
        assert_eq!(trace.len(), n);
        assert!(trace.total_points() > 0);
        assert!(trace.total_breakpoints() > 0);
    }

    #[test]
    fn fallback_place_finds_nearest_gap() {
        let mut d = Design::new("fb", 30, 4);
        // fill row 1 completely with legalized cells except a gap at [20, 25)
        for (x, w) in [(0i64, 20i64), (25, 5)] {
            let mut c = flex_placement::cell::Cell::movable(CellId(0), w, 1, x as f64, 1.0);
            c.x = x;
            c.y = 1;
            c.legalized = true;
            d.add_cell(c);
        }
        let t = d.add_cell(flex_placement::cell::Cell::movable(
            CellId(0),
            4,
            1,
            10.0,
            1.0,
        ));
        let spec = TargetSpec {
            width: 4,
            height: 1,
            gx: 10.0,
            gy: 1.0,
            parity: None,
        };
        let index = LegalizedIndex::build(&d);
        assert!(fallback_place_indexed(&mut d, &index, t, &spec));
        let placed = d.cell(t);
        assert!(placed.legalized);
        // the nearest fit is either the row-1 gap at x=20 or an adjacent empty row at x=10
        assert!(check_legality_with(&d, true).is_legal());
    }

    #[test]
    fn fallback_fails_when_die_is_full() {
        let mut d = Design::new("full", 10, 1);
        let mut c = flex_placement::cell::Cell::movable(CellId(0), 10, 1, 0.0, 0.0);
        c.x = 0;
        c.legalized = true;
        d.add_cell(c);
        let t = d.add_cell(flex_placement::cell::Cell::movable(
            CellId(0),
            4,
            1,
            2.0,
            0.0,
        ));
        let spec = TargetSpec {
            width: 4,
            height: 1,
            gx: 2.0,
            gy: 0.0,
            parity: None,
        };
        let index = LegalizedIndex::build(&d);
        assert!(!fallback_place_indexed(&mut d, &index, t, &spec));
    }

    #[test]
    fn a_target_taller_than_the_die_fails() {
        // a 2-row die has no rows for a 3-row cell, however empty its rows are
        let mut d = Design::new("too-tall", 20, 2);
        let t = d.add_cell(flex_placement::cell::Cell::movable(
            CellId(0),
            4,
            3,
            5.0,
            0.0,
        ));
        let spec = TargetSpec::of(d.cell(t));
        let index = LegalizedIndex::build(&d);
        assert_eq!(find_fallback_position(&d, &index, t, &spec), None);
        let result = MglLegalizer::new(MglConfig::default()).legalize(&mut d);
        assert_eq!(result.failed, vec![t]);
        assert_eq!(result.fallback_placed, 0);
        assert!(!result.legal);
    }

    /// The fallback scan as it was before it carved rows with [`free_among`], kept as its
    /// oracle: every candidate row filters the whole design for its blockers, then subtracts
    /// the row's legalized cells one by one with an allocating [`Interval::subtract`]. It
    /// takes rows past the die for free rows, so it places targets taller than the die.
    fn find_fallback_position_by_subtract(
        design: &Design,
        index: &LegalizedIndex,
        target: CellId,
        spec: &TargetSpec,
    ) -> Option<(i64, i64)> {
        let (gx, gy) = (spec.gx, spec.gy);
        let row_free = |row: i64| -> Vec<Interval> {
            let mut free = design.free_intervals_in_rows(row, row + 1).remove(0);
            for &id in index.cells_in_row(row) {
                if id == target {
                    continue;
                }
                let span = design.cell(id).x_interval();
                let mut next = Vec::with_capacity(free.len() + 1);
                for f in free {
                    next.extend(f.subtract(&span));
                }
                free = next;
            }
            free
        };

        let mut best: Option<(f64, i64, i64)> = None; // (cost, x, row)
        let max_row = design.num_rows - spec.height;
        for row in 0..=max_row.max(0) {
            if let Some(p) = spec.parity {
                if row.rem_euclid(2) as u8 != p {
                    continue;
                }
            }
            if let Some((cost, _, _)) = best {
                if (row as f64 - gy).abs() >= cost {
                    continue;
                }
            }
            let mut pieces = row_free(row);
            for r in row + 1..row + spec.height {
                let other = row_free(r);
                let mut next = Vec::new();
                for p in &pieces {
                    for o in &other {
                        let i = p.intersect(o);
                        if i.len() >= spec.width {
                            next.push(i);
                        }
                    }
                }
                pieces = next;
                if pieces.is_empty() {
                    break;
                }
            }
            for piece in pieces {
                if piece.len() < spec.width {
                    continue;
                }
                let x = (gx.round() as i64).clamp(piece.lo, piece.hi - spec.width);
                let cost = (x as f64 - gx).abs() + (row as f64 - gy).abs();
                if best.map(|(c, _, _)| cost < c).unwrap_or(true) {
                    best = Some((cost, x, row));
                }
            }
        }
        best.map(|(_, x, row)| (x, row))
    }

    /// A seeded random die for the fallback differential: macros and blockages (some hanging
    /// past the die, some covering whole rows) and movable cells one to four rows tall, most
    /// of them legalized.
    fn fallback_design(seed: u64) -> Design {
        use flex_placement::cell::Cell;
        let mut rng = StdRng::seed_from_u64(seed);
        let (sites, rows) = (rng.random_range(12..80i64), rng.random_range(2..14i64));
        let mut d = Design::new(format!("fallback-{seed}"), sites, rows);
        for _ in 0..rng.random_range(0..4u32) {
            let (w, h) = (rng.random_range(1..16i64), rng.random_range(1..5i64));
            let (x, y) = (rng.random_range(-4..sites), rng.random_range(-2..rows));
            d.add_cell(Cell::fixed(CellId(0), w, h, x, y));
        }
        for _ in 0..rng.random_range(0..4u32) {
            let (x, y) = (rng.random_range(-6..sites), rng.random_range(-2..rows));
            let (w, h) = (rng.random_range(0..20i64), rng.random_range(1..4i64));
            d.add_blockage(Rect::new(x, y, x + w, y + h));
        }
        for _ in 0..rng.random_range(0..3u32) {
            let y = rng.random_range(0..rows);
            d.add_blockage(Rect::new(0, y, sites, y + 1));
        }
        for _ in 0..rng.random_range(0..(sites * rows / 20) as u64 + 2) {
            let (w, h) = (
                rng.random_range(1..10i64),
                rng.random_range(1..5i64).min(rows),
            );
            let mut c = Cell::movable(CellId(0), w, h, 0.0, 0.0);
            c.x = rng.random_range(0..(sites - w).max(0) + 1);
            c.y = rng.random_range(0..rows - h + 1);
            c.legalized = rng.random::<f64>() < 0.85;
            d.add_cell(c);
        }
        d
    }

    #[test]
    fn fallback_scan_differential_matches_the_subtract_scan() {
        // a desired coordinate: NaN, ±1e9, or anywhere in or just around `[0, hi)`
        let coordinate = |rng: &mut StdRng, hi: i64| match rng.random_range(0..5u32) {
            0 => f64::NAN,
            1 => 1e9,
            2 => -1e9,
            _ => rng.random_range(-3..hi + 3) as f64 + rng.random::<f64>(),
        };
        let mut rng = StdRng::seed_from_u64(0xFA11);
        let (mut placed, mut checked) = (0, 0);
        for seed in 0..400 {
            let d = fallback_design(seed);
            let index = LegalizedIndex::build(&d);
            // a legalized target is in the index and must not block itself
            let legalized: Vec<CellId> = d
                .cells
                .iter()
                .filter(|c| !c.fixed && c.legalized)
                .map(|c| c.id)
                .collect();
            for _ in 0..12 {
                let target = if !legalized.is_empty() && rng.random::<bool>() {
                    legalized[rng.random_range(0..legalized.len())]
                } else {
                    CellId(d.cells.len() as u32)
                };
                let spec = TargetSpec {
                    width: rng.random_range(1..12i64),
                    height: rng.random_range(1..5i64),
                    gx: coordinate(&mut rng, d.num_sites_x),
                    gy: coordinate(&mut rng, d.num_rows),
                    parity: [None, Some(0), Some(1)][rng.random_range(0..3usize)],
                };
                let got = find_fallback_position(&d, &index, target, &spec);
                if spec.height > d.num_rows {
                    assert_eq!(got, None, "seed {seed}: {spec:?} is taller than the die");
                    continue;
                }
                let want = find_fallback_position_by_subtract(&d, &index, target, &spec);
                assert_eq!(got, want, "seed {seed}: target {target} with {spec:?}");
                checked += 1;
                placed += usize::from(got.is_some());
            }
        }
        // both outcomes are exercised
        assert!(
            placed > checked / 4 && placed < checked,
            "{placed} of {checked} placed"
        );
    }

    /// A `sites × rows` die with legalized single-row cells at `(x, y, width)` and an
    /// unlegalized target of `width` whose global position is `(gx, gy)`.
    fn hand_built(
        sites: i64,
        rows: i64,
        placed: &[(i64, i64, i64)],
        width: i64,
        (gx, gy): (f64, f64),
    ) -> (Design, CellId) {
        let mut d = Design::new("window", sites, rows);
        for &(x, y, w) in placed {
            let mut c = flex_placement::cell::Cell::movable(CellId(0), w, 1, x as f64, y as f64);
            c.legalized = true;
            d.add_cell(c);
        }
        let t = flex_placement::cell::Cell::movable(CellId(0), width, 1, gx, gy);
        let target = d.add_cell(t);
        (d, target)
    }

    /// Run [`plan_window`] at level 0 on a hand-built design.
    fn level_zero(design: &Design, target: CellId, cfg: &MglConfig) -> (Rect, WindowOutcome) {
        let spec = TargetSpec::of(design.cell(target));
        let mut work = target_work(target, &spec);
        let window = expansion_window(design, cfg, target, 0);
        let outcome = plan_window(
            design,
            &SegmentMap::build(design),
            &LegalizedIndex::build(design),
            cfg,
            &spec,
            target,
            window,
            &mut work,
            &mut FopOpStats::default(),
            &mut FopScratch::new(),
        );
        (window, outcome)
    }

    #[test]
    fn plan_window_reports_each_way_a_window_ends() {
        let cfg = MglConfig {
            window_half_sites: 10,
            window_half_rows: 1,
            ..MglConfig::default()
        };
        // an empty window: the target commits where it wants to be
        let (d, t) = hand_built(40, 4, &[], 4, (10.0, 1.0));
        let (window, outcome) = level_zero(&d, t, &cfg);
        assert_eq!(window, target_window(&d, t, 10, 1));
        let WindowOutcome::Planned(plan) = outcome else {
            panic!("an empty window must plan a commit, got {outcome:?}");
        };
        assert_eq!((plan.target, plan.x, plan.row), (t, 10, 1));
        assert!(plan.moves.is_empty());

        // one localCell is already more than a cap of zero
        let (d, t) = hand_built(40, 4, &[(2, 1, 3)], 4, (10.0, 1.0));
        let capped = MglConfig {
            max_region_cells: 0,
            ..cfg.clone()
        };
        assert_eq!(level_zero(&d, t, &capped).1, WindowOutcome::Oversize);
        assert!(matches!(
            level_zero(&d, t, &cfg).1,
            WindowOutcome::Planned(_)
        ));

        // a target wider than the window: no row can host it
        let (d, t) = hand_built(40, 4, &[], 30, (5.0, 1.0));
        assert_eq!(level_zero(&d, t, &cfg).1, WindowOutcome::CannotHost);

        // every row has room for the target's width but only 2 free sites: no insertion
        // point is feasible
        let full: Vec<(i64, i64, i64)> = (0..2)
            .flat_map(|y| [(0, y, 6), (6, y, 6), (12, y, 6)])
            .collect();
        let (d, t) = hand_built(20, 2, &full, 4, (8.0, 0.0));
        assert_eq!(level_zero(&d, t, &cfg).1, WindowOutcome::NoFeasiblePoint);
    }

    /// A 40-site, 2-row die: row 0 blocked below site 16; a two-row cell A at [18, 22); P at
    /// [24, 40) on row 0 and C at [22, 40) on row 1; B on row 1 at `b` (x, width); a 4-wide
    /// target wanting x 22 on row 0.
    fn repeat_die(b: (i64, i64)) -> (Design, CellId) {
        use flex_placement::cell::Cell;
        let mut d = Design::new("repeat", 40, 2);
        d.add_cell(Cell::fixed(CellId(0), 16, 1, 0, 0));
        for (x, y, w, h) in [
            (18, 0, 4, 2),
            (24, 0, 16, 1),
            (22, 1, 18, 1),
            (b.0, 1, b.1, 1),
        ] {
            let mut c = Cell::movable(CellId(0), w, h, x as f64, y as f64);
            c.legalized = true;
            d.add_cell(c);
        }
        let target = d.add_cell(Cell::movable(CellId(0), 4, 1, 22.0, 0.0));
        (d, target)
    }

    /// The expansion loop without the repeated-window cut: [`plan_window`] at every level up
    /// to `max_window_expansions` until one plans a commit or is oversize, then the fallback
    /// scan. Returns its placement, every level's window and outcome, and the work of the
    /// distinct windows alone.
    fn plan_every_level(
        design: &Design,
        cfg: &MglConfig,
        target: CellId,
    ) -> (PlannedPlacement, Vec<(Rect, WindowOutcome)>, RegionWork) {
        let (segmap, index) = (SegmentMap::build(design), LegalizedIndex::build(design));
        let spec = TargetSpec::of(design.cell(target));
        let (mut stats, mut scratch) = (FopOpStats::default(), FopScratch::new());
        let mut work = target_work(target, &spec);
        let mut distinct = work.clone();
        let mut levels: Vec<(Rect, WindowOutcome)> = Vec::new();
        for expansion in 0..=cfg.max_window_expansions {
            let window = expansion_window(design, cfg, target, expansion);
            let mut level = RegionWork::default();
            let outcome = plan_window(
                design,
                &segmap,
                &index,
                cfg,
                &spec,
                target,
                window,
                &mut level,
                &mut stats,
                &mut scratch,
            );
            accumulate_work(&mut work, &level);
            if levels.last().map(|&(w, _)| w) != Some(window) {
                accumulate_work(&mut distinct, &level);
            }
            levels.push((window, outcome.clone()));
            match outcome {
                WindowOutcome::Planned(plan) => {
                    let planned = PlannedPlacement::region(design, plan, window, expansion, work);
                    return (planned, levels, distinct);
                }
                WindowOutcome::Oversize => break,
                _ => {}
            }
        }
        let (&(window, _), expansion) = (levels.last().expect("level 0"), levels.len() - 1);
        let (decision, writes) = match find_fallback_position(design, &index, target, &spec) {
            Some((x, row)) => (
                PlacementDecision::Fallback { x, row },
                vec![Rect::new(x, row, x + spec.width, row + spec.height)],
            ),
            None => (PlacementDecision::Fail, Vec::new()),
        };
        let planned = PlannedPlacement {
            target,
            decision,
            window,
            expansion: expansion as u32,
            writes,
            work,
        };
        (planned, levels, distinct)
    }

    /// Once a level's window, clipped to the die, stops growing, the step decides what
    /// evaluating every level decides, reports the same window, and counts each distinct
    /// window's work once. With half-extents of 8 sites and 1 row, levels 0–2 of
    /// `repeat_die` have distinct windows and every later one is level 2's (the die); with
    /// the default half-extents level 0's window is already the die.
    #[test]
    fn repeated_windows_are_evaluated_once() {
        use WindowOutcome::{NoFeasiblePoint, Rejected};
        let half8 = MglConfig {
            window_half_sites: 8,
            window_half_rows: 1,
            ..MglConfig::default()
        };
        let cases = [
            // B at [12, 18) can make room for A, but every window's commit plan is rejected;
            // the fallback scan then finds row 1's free sites
            (
                (12, 6),
                &half8,
                &[Rejected, Rejected, Rejected][..],
                PlacementDecision::Fallback { x: 8, row: 1 },
            ),
            // B at [0, 18) cannot move: the die's window has no feasible point, and the die
            // no gap
            (
                (0, 18),
                &half8,
                &[Rejected, Rejected, NoFeasiblePoint][..],
                PlacementDecision::Fail,
            ),
            (
                (0, 18),
                &MglConfig::default(),
                &[NoFeasiblePoint][..],
                PlacementDecision::Fail,
            ),
        ];
        let die = Rect::new(0, 0, 40, 2);
        for (b, cfg, distinct_outcomes, decision) in cases {
            let (d, t) = repeat_die(b);
            let last_distinct = distinct_outcomes.len() - 1;
            let (every, levels, distinct_work) = plan_every_level(&d, cfg, t);
            let label = format!("B {b:?}, half-extents {}", cfg.window_half_sites);
            // every level evaluated: the windows grow to the die, then repeat it
            assert_eq!(
                levels.len(),
                cfg.max_window_expansions as usize + 1,
                "{label}"
            );
            for (level, (window, outcome)) in levels.iter().enumerate() {
                assert_eq!(
                    *window == die,
                    level >= last_distinct,
                    "{label}: level {level}"
                );
                let want = &distinct_outcomes[level.min(last_distinct)];
                assert_eq!(outcome, want, "{label}: level {level}");
            }
            assert_eq!(every.decision, decision, "{label}");

            let planned = plan_place_target_with(
                &d,
                &SegmentMap::build(&d),
                &LegalizedIndex::build(&d),
                cfg,
                t,
                &mut FopOpStats::default(),
                &mut FopScratch::new(),
            );
            assert_eq!(planned.decision, every.decision, "{label}");
            assert_eq!(planned.window, every.window, "{label}");
            assert_eq!(planned.writes, every.writes, "{label}");
            assert_eq!(planned.expansion, last_distinct as u32, "{label}");
            assert_eq!(planned.work, distinct_work, "{label}");
            assert!(distinct_work.insertion_points > 0, "{label}");
            assert!(every.work.insertion_points > distinct_work.insertion_points);
        }
    }

    #[test]
    fn dense_benchmark_still_fully_legalizes() {
        let spec = BenchmarkSpec::tiny("dense", 7).with_density(0.85);
        let mut d = generate(&spec);
        let res = MglLegalizer::new(MglConfig::default()).legalize(&mut d);
        assert!(res.legal, "dense case failed: {:?}", res.failed);
    }

    #[test]
    fn ordering_strategies_affect_quality_but_not_legality() {
        let mut best = f64::INFINITY;
        let mut worst: f64 = 0.0;
        for ordering in [
            OrderingStrategy::Natural,
            OrderingStrategy::SizeDescending,
            OrderingStrategy::SlidingWindowDensity,
        ] {
            let mut d = tiny_design(9);
            let cfg = MglConfig {
                ordering,
                ..MglConfig::default()
            };
            let res = MglLegalizer::new(cfg).legalize(&mut d);
            assert!(res.legal, "{ordering:?} failed");
            best = best.min(res.average_displacement);
            worst = worst.max(res.average_displacement);
        }
        assert!(best <= worst);
    }

    /// Commit planning as it was before verification read the shift scratch's row lists: every
    /// segment row scans every localCell and stable-sorts the row's spans by `lo`. It presorts
    /// the region itself, which leaves `scratch` prepared for [`plan_commit_with`].
    fn plan_commit_by_scan(
        region: &LocalRegion,
        placement: &Placement,
        spec: &TargetSpec,
        scratch: &mut FopScratch,
    ) -> Option<CommitPlan> {
        let problem = ShiftProblem {
            region,
            point: &placement.point,
            target_width: spec.width,
            target_height: spec.height,
            target_x: placement.x,
        };
        let FopScratch {
            shift,
            left,
            right,
            commit_pos,
            ..
        } = scratch;
        shift.begin_region(region);
        shift_phase_with(&problem, Phase::Left, shift, left).ok()?;
        shift_phase_with(&problem, Phase::Right, shift, right).ok()?;
        commit_pos.clear();
        commit_pos.extend(region.cells.iter().map(|c| c.x));
        let left_chain = &placement.point.left_chain;
        for &(i, x) in &left.moved {
            if left_chain.iter().flatten().any(|&j| j == i) {
                commit_pos[i] = x;
            }
        }
        for &(i, x) in &right.moved {
            commit_pos[i] = x;
        }

        let target_rows = placement.row..placement.row + spec.height;
        for seg in &region.segments {
            let mut spans = Vec::new();
            if target_rows.contains(&seg.row) {
                spans.push(Interval::new(placement.x, placement.x + spec.width));
            }
            for (i, c) in region.cells.iter().enumerate() {
                if c.rows().any(|r| r == seg.row) {
                    let iv = Interval::new(commit_pos[i], commit_pos[i] + c.width);
                    if !seg.span.contains_interval(&iv) {
                        return None;
                    }
                    spans.push(iv);
                }
            }
            spans.sort_by_key(|s| s.lo);
            for w in spans.windows(2) {
                if w[0].overlaps(&w[1]) {
                    return None;
                }
            }
        }
        if !target_rows.clone().all(|r| {
            region
                .segment(r)
                .map(|s| {
                    s.span
                        .contains_interval(&Interval::new(placement.x, placement.x + spec.width))
                })
                .unwrap_or(false)
        }) {
            return None;
        }

        let moves = region
            .cells
            .iter()
            .enumerate()
            .filter(|(i, c)| commit_pos[*i] != c.x)
            .map(|(i, c)| (c.id, commit_pos[i]))
            .collect();
        Some(CommitPlan {
            target: region.target,
            x: placement.x,
            row: placement.row,
            moves,
        })
    }

    /// Verification over the shift scratch's row lists gives the scan's verdict and plan on
    /// regions beyond legal ones (overlapping, tied and zero-width cells, rows without a
    /// segment), for enumerated and random points, and targets inside and outside the point's
    /// range.
    #[test]
    fn commit_verification_matches_the_region_scan() {
        let mut rng = StdRng::seed_from_u64(0xC0_4417);
        let cfg = MglConfig::default();
        let mut scratch = FopScratch::new();
        let (mut planned, mut rejected) = (0, 0);
        for case in 0..400 {
            let region = random_region(&mut rng, case);
            let (rows, width) = (region.window.y_hi, region.window.x_hi);
            let tw = rng.random_range(1..=8i64);
            let th = rng.random_range(1..=rows);
            let mut points = enumerate(&region, tw, th, rng.random_range(0..width) as f64, 8);
            for _ in 0..6 {
                points.push(random_point(&region, th, &mut rng));
            }
            for point in points {
                let outside = rng.random_range(1..=6i64);
                for x in [
                    point.x_lo,
                    point.x_hi,
                    point.x_lo - outside,
                    point.x_hi + outside,
                ] {
                    let placement = Placement {
                        row: point.bottom_row,
                        x,
                        point: point.clone(),
                        cost: 0.0,
                    };
                    let spec = TargetSpec {
                        width: tw,
                        height: th,
                        gx: x as f64,
                        gy: point.bottom_row as f64,
                        parity: None,
                    };
                    // the scan presorts the region, as FOP would before planning
                    let want = plan_commit_by_scan(&region, &placement, &spec, &mut scratch);
                    let got = plan_commit_with(&region, &placement, &spec, &cfg, &mut scratch);
                    assert_eq!(got, want, "case {case} x {x}");
                    if got.is_some() {
                        planned += 1;
                    } else {
                        rejected += 1;
                    }
                }
            }
        }
        assert!(
            planned > 100 && rejected > 100,
            "{planned} plans, {rejected} rejections"
        );
    }
}
