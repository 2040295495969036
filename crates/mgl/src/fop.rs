//! Finding the Optimal Position (FOP) — the bottleneck of MGL that FLEX offloads to the FPGA.
//!
//! For every insertion point of the localRegion, FOP
//!
//! 1. runs **cell shifting** at the extremes of the point's feasible range to discover which
//!    localCells would have to move and by how much (their *stack offsets*),
//! 2. turns every affected cell (and the target itself) into a **displacement curve**,
//! 3. gathers and **sorts the breakpoints**, **merges** identical x-coordinates while
//!    accumulating the slopes, and **calculates the value** of the summed curve at every merged
//!    breakpoint to pick the minimum (Fig. 3(c)/(d)).
//!
//! The breakpoint operators run as FLEX's reorganized chain (right of Fig. 5): a forward
//! traversal (`fwdtraverse`: merge + sum slopesR) and then the value scan (`bwdtraverse`).
//! The paper's original chain (left of Fig. 5) runs the same operators one after another and
//! computes the same minimum: every curve slope is −1, 0 or +1, so the slope sums are exact
//! in either order. The two organizations differ only in how an FPGA pipelines them, so they
//! live in the cycle model (`flex_fpga::pipeline`, selected by `flex_core`'s `PipelineMode`),
//! not here.
//!
//! ### Arena-allocated kernel
//!
//! The entry point, [`find_optimal_position_with`], threads a reusable [`FopScratch`]
//! through the whole chain: one set of grow-only buffers (shift positions, curves,
//! breakpoints, merged breakpoints, slope prefix sums) serves every insertion point of every
//! region, and per-region state (the localCells sorted once by `(x, index)` — the SACS
//! Ahead-Sorter — and the per-segment cell lists presorted in that order, per-cell anchor
//! displacements, the target's own curve) is computed once per region instead of once per
//! point. Cell shifting ([`shift_phase_with`]) pays for the rows and cells each point's push
//! reaches: it traverses only unsettled rows, builds a row's lists from the presorted row on
//! its first traversal, undoes its state from the cells it moved, and reports only those
//! cells, in SACS's stream order, so curve building walks the moved cells alone. Each run
//! records the work of both shifting schedules (the original algorithm's passes and subcell
//! visits, the SACS profile), so every configuration runs this one FOP and the FPGA cycle
//! model picks the schedule it costs. The allocating implementation it replaced is kept
//! verbatim under [`mod@reference`]: it is the differential-testing oracle and the baseline
//! the `fop_kernel` bench compares against. Placements, costs and work counters are
//! bit-identical between the two.

use crate::config::MglConfig;
use crate::curve::{Breakpoint, DisplacementCurve};
use crate::insertion::{
    enumerate_insertion_points, enumerate_insertion_points_into, InsertionPoint, InsertionScratch,
};
use crate::region::LocalRegion;
use crate::shift::{shift_phase_with, Phase, PhaseMoves, ShiftProblem, ShiftScratch};
use crate::stats::{FopOpStats, FopOperator, RegionWork};
use flex_placement::cell::Cell;
use flex_placement::geom::Interval;
use std::cell::RefCell;
use std::time::Instant;

/// Upper bound on the number of insertion points evaluated per localRegion (guards against
/// pathological regions; the paper quotes "hundreds" per region).
const MAX_INSERTION_POINTS: usize = 160;

/// Description of the target cell handed to FOP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetSpec {
    /// Width in sites.
    pub width: i64,
    /// Height in rows.
    pub height: i64,
    /// Global-placement x (site units).
    pub gx: f64,
    /// Global-placement y (row units).
    pub gy: f64,
    /// Required bottom-row parity, if any.
    pub parity: Option<u8>,
}

impl TargetSpec {
    /// The spec of a design cell: its size, global-placement position and row parity.
    pub fn of(cell: &Cell) -> Self {
        Self {
            width: cell.width,
            height: cell.height,
            gx: cell.gx,
            gy: cell.gy,
            parity: cell.row_parity,
        }
    }
}

/// The best placement found for a target cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Chosen insertion point.
    pub point: InsertionPoint,
    /// Chosen left-edge x of the target.
    pub x: i64,
    /// Bottom row of the target.
    pub row: i64,
    /// Total accumulated displacement of the target plus all shifted localCells.
    pub cost: f64,
}

/// Result of running FOP on one localRegion.
#[derive(Debug, Clone, Default)]
pub struct FopOutcome {
    /// The best placement, if any insertion point was feasible.
    pub best: Option<Placement>,
    /// Work counters for the region (merged into the [`RegionWork`] trace entry).
    pub work: RegionWork,
}

/// A grow-only pool of [`DisplacementCurve`]s: curves are rebuilt in place per insertion
/// point, reusing each curve's breakpoint allocation.
#[derive(Debug, Clone, Default)]
struct CurvePool {
    curves: Vec<DisplacementCurve>,
    len: usize,
}

impl CurvePool {
    fn clear(&mut self) {
        self.len = 0;
    }

    /// Hand out the next pooled curve (allocating a new slot only on first growth).
    fn next(&mut self) -> &mut DisplacementCurve {
        if self.len == self.curves.len() {
            self.curves.push(DisplacementCurve::constant(0.0));
        }
        let c = &mut self.curves[self.len];
        self.len += 1;
        c
    }

    fn iter(&self) -> impl Iterator<Item = &DisplacementCurve> {
        self.curves[..self.len].iter()
    }
}

/// Reusable buffers for the whole FOP chain — the arena the hot path allocates from.
///
/// One instance per engine (serial legalizers) or per worker thread (parallel engines, via
/// [`FopScratch::with_thread_local`]) serves every insertion point of every target without
/// touching the allocator after warm-up. Besides buffer reuse it carries the per-region
/// incremental state: the shift scratch's `(x, index)` order of the localCells (the SACS
/// Ahead-Sorter) and the per-segment cell lists presorted in that order, per-cell anchor
/// displacements, and the target's own displacement curve — all computed once per region
/// where the [`mod@reference`] implementation recomputes them once per insertion point.
#[derive(Debug, Clone, Default)]
pub struct FopScratch {
    /// Shifting buffers + the per-region presorted order and row lists.
    pub(crate) shift: ShiftScratch,
    /// Left-phase moved cells.
    pub(crate) left: PhaseMoves,
    /// Right-phase moved cells.
    pub(crate) right: PhaseMoves,
    /// Pool of localCell displacement curves.
    curves: CurvePool,
    /// The target cell's own curve `|x_t − gx|`, set once per region.
    target_curve: DisplacementCurve,
    /// Per-cell current displacement `|x − gx|`, computed once per region.
    anchor_disp: Vec<f64>,
    /// Gathered breakpoints of one insertion point.
    bps: Vec<Breakpoint>,
    /// Merged breakpoints.
    merged: Vec<MergedBp>,
    /// Forward (`sum slopesR`) prefix sums.
    slopes_r: Vec<f64>,
    /// Working positions for commit planning (`legalize::plan_commit_with`).
    pub(crate) commit_pos: Vec<i64>,
    /// Span-verification buffer for commit planning: `(span, rank)`, rank 0 for the target
    /// and `index + 1` for a localCell.
    pub(crate) commit_spans: Vec<(Interval, usize)>,
    /// Insertion-point enumeration buffers (point slots, chain pool, anchors).
    insertion: InsertionScratch,
}

thread_local! {
    static TLS_SCRATCH: RefCell<FopScratch> = RefCell::new(FopScratch::new());
}

impl FopScratch {
    /// Create an empty scratch; buffers grow to the working set of the first few regions and
    /// are reused from then on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` with this thread's scratch: one arena per worker thread for parallel
    /// speculation and the TCAD'22 baseline's batch workers. Falls back to a fresh scratch if
    /// the thread-local is already borrowed (re-entrant use).
    pub fn with_thread_local<R>(f: impl FnOnce(&mut FopScratch) -> R) -> R {
        TLS_SCRATCH.with(|s| match s.try_borrow_mut() {
            Ok(mut scratch) => f(&mut scratch),
            Err(_) => f(&mut FopScratch::new()),
        })
    }

    /// Prepare the per-region state: the per-cell anchor displacements, the target curve,
    /// and the shift scratch's presorted region order and row lists.
    fn begin_region(&mut self, region: &LocalRegion, target: &TargetSpec, clock: &mut OpClock<'_>) {
        self.anchor_disp.clear();
        self.anchor_disp
            .extend(region.cells.iter().map(|c| (c.x as f64 - c.gx).abs()));
        self.target_curve.set_abs(target.gx);
        clock.lap(FopOperator::Other);
        // the Ahead-Sorter: the Fig. 6(g) `Presort` share
        self.shift.begin_region(region);
        clock.lap(FopOperator::Presort);
    }
}

/// Charges consecutive stretches of FOP wall time to operators. Each [`OpClock::lap`] reads
/// the clock once and charges everything since the previous lap to one operator, so adjacent
/// operators share a clock read and no time falls between them.
struct OpClock<'a> {
    stats: &'a mut FopOpStats,
    last: Instant,
}

impl<'a> OpClock<'a> {
    fn start(stats: &'a mut FopOpStats) -> Self {
        Self {
            stats,
            last: Instant::now(),
        }
    }

    fn lap(&mut self, op: FopOperator) {
        let now = Instant::now();
        self.stats.add(op, now - self.last);
        self.last = now;
    }
}

/// Evaluate every insertion point of `region` with the given scratch arena and return the
/// optimal placement. Bit-identical to [`reference::find_optimal_position`] in placements,
/// costs and work counters; only wall-clock operator stats differ (they measure the faster
/// kernel, and the per-region sort is attributed once per region instead of once per point).
///
/// The configuration is unread: FOP is the same under every [`MglConfig`]. The parameter
/// stays for the benchmark harness, which calls this signature.
pub fn find_optimal_position_with(
    region: &LocalRegion,
    target: &TargetSpec,
    _config: &MglConfig,
    op_stats: &mut FopOpStats,
    scratch: &mut FopScratch,
) -> FopOutcome {
    let mut clock = OpClock::start(op_stats);
    let mut outcome = FopOutcome::default();
    let work = &mut outcome.work;
    work.target = region.target;
    work.target_width = target.width;
    work.target_height = target.height;
    work.local_cells = region.cells.len() as u64;
    work.tall_cells = region.num_tall_cells(3) as u64;
    work.segments = region.segments.len() as u64;

    // the per-region presort first: enumeration reads its per-segment row lists
    scratch.begin_region(region, target, &mut clock);

    // take the enumeration buffers out of the scratch so the per-point evaluation can borrow
    // the rest of it mutably; the allocations go back afterwards
    let mut insertion = std::mem::take(&mut scratch.insertion);
    let n_points = enumerate_insertion_points_into(
        region,
        target.width,
        target.height,
        target.parity,
        target.gx,
        MAX_INSERTION_POINTS,
        &scratch.shift,
        &mut insertion,
    );
    clock.lap(FopOperator::Enumerate);
    work.insertion_points = n_points as u64;

    let mut best: Option<(i64, f64, usize)> = None; // (x, cost, point index)
    for (idx, point) in insertion.points().iter().enumerate() {
        if let Some((x, cost)) =
            evaluate_point_with(region, target, point, &mut clock, work, scratch)
        {
            work.feasible_points += 1;
            let better = match best {
                None => true,
                Some((_, best_cost, _)) => cost < best_cost - 1e-9,
            };
            if better {
                best = Some((x, cost, idx));
            }
        }
    }
    outcome.best = best.map(|(x, cost, idx)| {
        let point = insertion.points()[idx].clone();
        Placement {
            x,
            row: point.bottom_row,
            cost,
            point,
        }
    });
    scratch.insertion = insertion;
    outcome
}

/// Evaluate one insertion point against the scratch arena: shift into the reusable outcome
/// buffers, rebuild the pooled curves in place, run the breakpoint pipeline on the reusable
/// vectors. Returns `(best x, cost)` or `None` if the point turned out infeasible.
fn evaluate_point_with(
    region: &LocalRegion,
    target: &TargetSpec,
    point: &InsertionPoint,
    clock: &mut OpClock<'_>,
    work: &mut RegionWork,
    scratch: &mut FopScratch,
) -> Option<(i64, f64)> {
    let FopScratch {
        shift,
        left,
        right,
        curves,
        target_curve,
        anchor_disp,
        bps,
        merged,
        slopes_r,
        ..
    } = scratch;

    // --- cell shifting at both extremes of the feasible range -----------------------------
    let left_problem = ShiftProblem {
        region,
        point,
        target_width: target.width,
        target_height: target.height,
        target_x: point.x_lo,
    };
    let right_problem = ShiftProblem {
        region,
        point,
        target_width: target.width,
        target_height: target.height,
        target_x: point.x_hi,
    };
    let shifted = shift_phase_with(&left_problem, Phase::Left, shift, left)
        .and_then(|()| shift_phase_with(&right_problem, Phase::Right, shift, right));
    // timed on both exits: most points of a crowded region turn out infeasible here
    clock.lap(FopOperator::CellShift);
    shifted.ok()?;
    for moves in [&*left, &*right] {
        work.shift_passes += moves.passes as u64;
        work.subcell_visits += moves.subcell_visits;
        work.sorted_cells += moves.sacs.sorted_cells;
        work.bound_queries += moves.sacs.bound_queries;
        work.tall_bound_queries += moves.sacs.tall_bound_queries;
    }

    // --- displacement curves of the moved cells (pooled; target curve prebuilt per region) --
    curves.clear();
    for &(i, pos) in &left.moved {
        let c = &region.cells[i];
        // stack offset: at full compression (x_t = x_lo) the cell sits at x_lo - s
        let s = point.x_lo - pos;
        let curve = curves.next();
        curve.set_left_cell(c.x as f64, c.gx, s as f64);
        curve.anchor.1 -= anchor_disp[i];
    }
    for &(i, pos) in &right.moved {
        let c = &region.cells[i];
        let s = pos - (point.x_hi + target.width);
        let curve = curves.next();
        curve.set_right_cell(c.x as f64, c.gx, s as f64, target.width as f64);
        curve.anchor.1 -= anchor_disp[i];
    }
    let lo = point.x_lo as f64;
    let hi = point.x_hi as f64;
    let all_curves = || std::iter::once(&*target_curve).chain(curves.iter());
    let anchor_value: f64 = all_curves().map(|c| c.eval(lo)).sum();
    // total slope left of every breakpoint: the sum of each curve's initial slope
    let base_slope: f64 = all_curves()
        .filter_map(|c| c.breakpoints.first())
        .map(|bp| bp.left_slope)
        .sum();
    clock.lap(FopOperator::Curves);

    // --- breakpoint pipeline ---------------------------------------------------------------
    bps.clear();
    bps.extend(target_curve.breakpoints.iter().copied());
    for c in curves.iter() {
        bps.extend(c.breakpoints.iter().copied());
    }
    bps.sort_by(|a, b| a.x.total_cmp(&b.x));
    clock.lap(FopOperator::SortBp);
    work.breakpoints += bps.len() as u64;

    let (best_x, horiz_cost) = breakpoint_chain_with(
        bps,
        base_slope,
        anchor_value,
        lo,
        hi,
        clock,
        merged,
        slopes_r,
    );

    let vertical = (point.bottom_row as f64 - target.gy).abs();
    Some((best_x.round() as i64, horiz_cost + vertical))
}

/// A merged breakpoint: identical x-coordinates folded together with accumulated slopes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MergedBp {
    x: f64,
    /// Sum of the constituent curves' left slopes.
    left: f64,
    /// Sum of the constituent curves' right slopes.
    right: f64,
}

/// Walk the merged breakpoints, integrating the total slope between them, and return the
/// minimizing x in `[lo, hi]` together with the minimum value.
///
/// `anchor_value` is the total curve value at `lo`; `base_slope` is the total slope left of
/// every breakpoint (the sum of each curve's initial slope). On the open interval following
/// merged breakpoint `i`, the total slope is `base_slope + slopes_r[i]`, where `slopes_r[i]` is
/// the cumulative slope delta `Σ_{j ≤ i} (right_j − left_j)` produced by the forward
/// `sum slopesR` traversal. The prefix sums give the slope of every interval, so the scan
/// needs no backward `sum slopesL` suffix array.
fn scan_minimum(
    merged: &[MergedBp],
    slopes_r: &[f64],
    base_slope: f64,
    anchor_value: f64,
    lo: f64,
    hi: f64,
) -> (f64, f64) {
    let slope_after = |idx_left: Option<usize>| -> f64 {
        match idx_left {
            Some(i) => base_slope + slopes_r[i],
            None => base_slope,
        }
    };

    let mut best_x = lo;
    let mut best_v = anchor_value;
    let mut x = lo;
    let mut v = anchor_value;
    // index of the last merged bp at or before x
    let mut idx: Option<usize> = None;
    for (i, m) in merged.iter().enumerate() {
        if m.x <= lo {
            idx = Some(i);
        }
    }
    loop {
        let next_idx = match idx {
            None => 0,
            Some(i) => i + 1,
        };
        let next_x = if next_idx < merged.len() {
            merged[next_idx].x
        } else {
            f64::INFINITY
        };
        let step_end = next_x.min(hi);
        if step_end > x {
            let slope = slope_after(idx);
            v += slope * (step_end - x);
            x = step_end;
            if v < best_v - 1e-12 {
                best_v = v;
                best_x = x;
            }
        }
        if x >= hi - 1e-12 || next_idx >= merged.len() {
            break;
        }
        idx = Some(next_idx);
    }
    (best_x, best_v)
}

/// Scratch twin of [`reference::breakpoint_chain`]: the forward traversal followed by the
/// value scan, on the reusable buffers.
#[allow(clippy::too_many_arguments)]
fn breakpoint_chain_with(
    sorted: &[Breakpoint],
    base_slope: f64,
    anchor_value: f64,
    lo: f64,
    hi: f64,
    clock: &mut OpClock<'_>,
    merged: &mut Vec<MergedBp>,
    slopes_r: &mut Vec<f64>,
) -> (f64, f64) {
    // fwdtraverse: merge on the fly while accumulating the right-slope prefix sums
    merged.clear();
    slopes_r.clear();
    let mut acc = 0.0;
    for bp in sorted {
        match merged.last_mut() {
            Some(m) if (m.x - bp.x).abs() < 1e-9 => {
                m.left += bp.left_slope;
                m.right += bp.right_slope;
                acc += bp.right_slope - bp.left_slope;
                *slopes_r.last_mut().expect("merged entry exists") = acc;
            }
            _ => {
                merged.push(MergedBp {
                    x: bp.x,
                    left: bp.left_slope,
                    right: bp.right_slope,
                });
                acc += bp.right_slope - bp.left_slope;
                slopes_r.push(acc);
            }
        }
    }
    clock.lap(FopOperator::FwdTraverse);

    // bwdtraverse: the value scan that picks the minimum
    let result = scan_minimum(merged, slopes_r, base_slope, anchor_value, lo, hi);
    clock.lap(FopOperator::BwdTraverse);
    result
}

pub mod reference {
    //! The allocating FOP implementation the arena kernel replaced, kept verbatim.
    //!
    //! This is **not** dead code: it is the oracle of the differential property suite
    //! (`tests/fop_differential.rs` asserts the scratch kernel returns bit-identical
    //! [`Placement`]s and work counters on random regions) and the baseline the
    //! `fop_kernel` bench measures the arena speedup against. Every insertion point
    //! re-sorts localCells, rebuilds all displacement curves and allocates fresh
    //! breakpoint/slope vectors — exactly the serial constant the paper's FPGA pipeline
    //! (and now the scratch kernel) streams away.

    use super::*;
    use crate::sacs::sacs_schedule;
    use crate::shift::{shift_phase_original, ShiftOutcome};

    /// Evaluate every insertion point of `region` and return the optimal placement,
    /// allocating afresh per insertion point.
    pub fn find_optimal_position(
        region: &LocalRegion,
        target: &TargetSpec,
        op_stats: &mut FopOpStats,
    ) -> FopOutcome {
        let mut outcome = FopOutcome::default();
        let work = &mut outcome.work;
        work.target = region.target;
        work.target_width = target.width;
        work.target_height = target.height;
        work.local_cells = region.cells.len() as u64;
        work.tall_cells = region.num_tall_cells(3) as u64;
        work.segments = region.segments.len() as u64;

        let t_enum = Instant::now();
        let points = enumerate_insertion_points(
            region,
            target.width,
            target.height,
            target.parity,
            target.gx,
            MAX_INSERTION_POINTS,
        );
        op_stats.add(FopOperator::Enumerate, t_enum.elapsed());
        work.insertion_points = points.len() as u64;

        let mut best: Option<Placement> = None;
        for point in points {
            if let Some((x, cost)) = evaluate_point(region, target, &point, op_stats, work) {
                work.feasible_points += 1;
                let better = match &best {
                    None => true,
                    Some(b) => cost < b.cost - 1e-9,
                };
                if better {
                    best = Some(Placement {
                        x,
                        row: point.bottom_row,
                        cost,
                        point,
                    });
                }
            }
        }
        outcome.best = best;
        outcome
    }

    /// Evaluate one insertion point: shift, build curves, run the breakpoint pipeline.
    fn evaluate_point(
        region: &LocalRegion,
        target: &TargetSpec,
        point: &InsertionPoint,
        op_stats: &mut FopOpStats,
        work: &mut RegionWork,
    ) -> Option<(i64, f64)> {
        // --- cell shifting at both extremes of the feasible range -------------------------
        let t_shift = Instant::now();
        let left_problem = ShiftProblem {
            region,
            point,
            target_width: target.width,
            target_height: target.height,
            target_x: point.x_lo,
        };
        let right_problem = ShiftProblem {
            region,
            point,
            target_width: target.width,
            target_height: target.height,
            target_x: point.x_hi,
        };
        // the SACS pre-sort is timed separately so that Fig. 6(g) can report its share (the
        // arena kernel hoists this to once per region)
        let t_sort = Instant::now();
        let mut order: Vec<i64> = region.cells.iter().map(|c| c.x).collect();
        order.sort_unstable();
        op_stats.add(FopOperator::Presort, t_sort.elapsed());

        // one canonical fixpoint run per phase gives both schedules' work
        let l = shift_phase_original(&left_problem, Phase::Left).ok()?;
        let r = shift_phase_original(&right_problem, Phase::Right).ok()?;
        work.shift_passes += (l.passes + r.passes) as u64;
        work.subcell_visits += l.subcell_visits + r.subcell_visits;
        let (left, ls) = sacs_schedule(&left_problem, Phase::Left, l);
        let (right, rs) = sacs_schedule(&right_problem, Phase::Right, r);
        work.sorted_cells += ls.sorted_cells + rs.sorted_cells;
        work.bound_queries += ls.bound_queries + rs.bound_queries;
        work.tall_bound_queries += ls.tall_bound_queries + rs.tall_bound_queries;
        op_stats.add(FopOperator::CellShift, t_shift.elapsed());

        // --- displacement curves -----------------------------------------------------------
        let t_curves = Instant::now();
        let curves = build_curves(region, target, point, &left, &right);
        op_stats.add(FopOperator::Curves, t_curves.elapsed());

        // --- breakpoint pipeline -----------------------------------------------------------
        let lo = point.x_lo as f64;
        let hi = point.x_hi as f64;
        let t_sort_bp = Instant::now();
        let mut bps: Vec<Breakpoint> = curves
            .iter()
            .flat_map(|c| c.breakpoints.iter().copied())
            .collect();
        bps.sort_by(|a, b| a.x.total_cmp(&b.x));
        op_stats.add(FopOperator::SortBp, t_sort_bp.elapsed());
        work.breakpoints += bps.len() as u64;

        let anchor_value: f64 = curves.iter().map(|c| c.eval(lo)).sum();
        // total slope left of every breakpoint: the sum of each curve's initial slope
        let base_slope: f64 = curves
            .iter()
            .filter_map(|c| c.breakpoints.first())
            .map(|bp| bp.left_slope)
            .sum();
        let (best_x, horiz_cost) =
            breakpoint_chain(&bps, base_slope, anchor_value, lo, hi, op_stats);

        let vertical = (point.bottom_row as f64 - target.gy).abs();
        Some((best_x.round() as i64, horiz_cost + vertical))
    }

    /// Build the displacement curves of the target and of every localCell the shifting moved.
    ///
    /// Each localCell's curve is shifted down by the cell's *current* displacement so that it
    /// expresses the displacement **delta** caused by this insertion point. Cells untouched by
    /// the point then contribute exactly zero, which keeps the costs of different insertion
    /// points comparable (and lets a push that happens to move a cell closer to its global
    /// position count as the quality gain it really is).
    fn build_curves(
        region: &LocalRegion,
        target: &TargetSpec,
        point: &InsertionPoint,
        left: &ShiftOutcome,
        right: &ShiftOutcome,
    ) -> Vec<DisplacementCurve> {
        let mut curves = Vec::with_capacity(left.positions.len() + right.positions.len() + 1);
        curves.push(DisplacementCurve::abs(target.gx));
        for &(i, pos) in &left.positions {
            let c = &region.cells[i];
            if pos != c.x {
                // stack offset: at full compression (x_t = x_lo) the cell sits at x_lo - s
                let s = point.x_lo - pos;
                let mut curve = DisplacementCurve::left_cell(c.x as f64, c.gx, s as f64);
                curve.anchor.1 -= (c.x as f64 - c.gx).abs();
                curves.push(curve);
            }
        }
        for &(i, pos) in &right.positions {
            let c = &region.cells[i];
            if pos != c.x {
                let s = pos - (point.x_hi + target.width);
                let mut curve =
                    DisplacementCurve::right_cell(c.x as f64, c.gx, s as f64, target.width as f64);
                curve.anchor.1 -= (c.x as f64 - c.gx).abs();
                curves.push(curve);
            }
        }
        curves
    }

    /// The reorganized breakpoint chain of FLEX: a forward traversal (merge + sum slopesR)
    /// followed by the value scan, allocating its merged list and prefix sums afresh.
    pub fn breakpoint_chain(
        sorted: &[Breakpoint],
        base_slope: f64,
        anchor_value: f64,
        lo: f64,
        hi: f64,
        op_stats: &mut FopOpStats,
    ) -> (f64, f64) {
        // fwdtraverse: merge on the fly while accumulating the right-slope prefix sums
        let t_fwd = Instant::now();
        let mut merged: Vec<MergedBp> = Vec::with_capacity(sorted.len());
        let mut slopes_r: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut acc = 0.0;
        for bp in sorted {
            match merged.last_mut() {
                Some(m) if (m.x - bp.x).abs() < 1e-9 => {
                    m.left += bp.left_slope;
                    m.right += bp.right_slope;
                    acc += bp.right_slope - bp.left_slope;
                    *slopes_r.last_mut().expect("merged entry exists") = acc;
                }
                _ => {
                    merged.push(MergedBp {
                        x: bp.x,
                        left: bp.left_slope,
                        right: bp.right_slope,
                    });
                    acc += bp.right_slope - bp.left_slope;
                    slopes_r.push(acc);
                }
            }
        }
        op_stats.add(FopOperator::FwdTraverse, t_fwd.elapsed());

        // bwdtraverse: the value scan that picks the minimum
        let t_bwd = Instant::now();
        let result = scan_minimum(&merged, &slopes_r, base_slope, anchor_value, lo, hi);
        op_stats.add(FopOperator::BwdTraverse, t_bwd.elapsed());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::reference::breakpoint_chain;
    use super::*;
    use crate::curve::minimize_sum;
    use crate::region::{LocalCell, LocalRegion, LocalSegment};
    use flex_placement::cell::CellId;
    use flex_placement::geom::{Interval, Rect};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn region() -> LocalRegion {
        LocalRegion {
            target: CellId(9),
            window: Rect::new(0, 0, 40, 2),
            segments: vec![
                LocalSegment {
                    row: 0,
                    span: Interval::new(0, 40),
                },
                LocalSegment {
                    row: 1,
                    span: Interval::new(0, 40),
                },
            ],
            cells: vec![
                LocalCell {
                    id: CellId(0),
                    x: 8,
                    y: 0,
                    width: 5,
                    height: 1,
                    gx: 9.0,
                },
                LocalCell {
                    id: CellId(1),
                    x: 20,
                    y: 0,
                    width: 6,
                    height: 2,
                    gx: 19.0,
                },
                LocalCell {
                    id: CellId(2),
                    x: 4,
                    y: 1,
                    width: 4,
                    height: 1,
                    gx: 4.0,
                },
            ],
            density: 0.2,
        }
    }

    fn target() -> TargetSpec {
        TargetSpec {
            width: 5,
            height: 1,
            gx: 14.0,
            gy: 0.3,
            parity: None,
        }
    }

    #[test]
    fn fop_finds_a_feasible_minimum_cost_placement() {
        let region = region();
        let mut stats = FopOpStats::default();
        let out = find_optimal_position_with(
            &region,
            &target(),
            &MglConfig::default(),
            &mut stats,
            &mut FopScratch::new(),
        );
        let best = out.best.expect("feasible placement");
        // the gap between cell 0 (ends at 13) and cell 1 (starts at 20) on row 0 fits width 5
        // exactly around the target's gx=14 with zero or tiny shifting
        assert_eq!(best.row, 0);
        assert!(best.x >= 13 && best.x <= 15, "x = {}", best.x);
        assert!(best.cost <= 1.5, "cost = {}", best.cost);
        assert!(out.work.insertion_points > 0);
        assert!(out.work.feasible_points > 0);
        assert!(stats.total_ns() > 0);
    }

    #[test]
    fn scratch_kernel_matches_the_reference_bit_for_bit() {
        // The dedicated differential proptest suite runs on random regions; this is the
        // fast in-crate smoke check.
        let region = region();
        let t = target();
        let mut s1 = FopOpStats::default();
        let mut s2 = FopOpStats::default();
        let a = reference::find_optimal_position(&region, &t, &mut s1);
        let b = find_optimal_position_with(
            &region,
            &t,
            &MglConfig::default(),
            &mut s2,
            &mut FopScratch::new(),
        );
        assert_eq!(a.best, b.best);
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn scratch_reuse_across_regions_stays_correct() {
        // one scratch across differently shaped regions: buffers must reset cleanly
        let mut scratch = FopScratch::new();
        let mut stats = FopOpStats::default();
        let r1 = region();
        let t1 = target();
        let cfg = MglConfig::default();
        let first = find_optimal_position_with(&r1, &t1, &cfg, &mut stats, &mut scratch);

        // a second, smaller region with a different segment layout
        let r2 = LocalRegion {
            target: CellId(7),
            window: Rect::new(0, 0, 20, 1),
            segments: vec![LocalSegment {
                row: 0,
                span: Interval::new(0, 20),
            }],
            cells: vec![LocalCell {
                id: CellId(0),
                x: 3,
                y: 0,
                width: 4,
                height: 1,
                gx: 3.0,
            }],
            density: 0.2,
        };
        let t2 = TargetSpec {
            width: 3,
            height: 1,
            gx: 10.0,
            gy: 0.0,
            parity: None,
        };
        let second = find_optimal_position_with(&r2, &t2, &cfg, &mut stats, &mut scratch);
        let second_ref = reference::find_optimal_position(&r2, &t2, &mut FopOpStats::default());
        assert_eq!(second.best, second_ref.best);

        // and back to the first region: still identical to a fresh evaluation
        let again = find_optimal_position_with(&r1, &t1, &cfg, &mut stats, &mut scratch);
        assert_eq!(first.best, again.best);
    }

    #[test]
    fn pipeline_matches_reference_minimizer_on_random_curves() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..200 {
            let n = rng.random_range(1..=8usize);
            let mut curves = Vec::new();
            for _ in 0..n {
                let kind = rng.random_range(0..3u32);
                let c = rng.random_range(0..40i64) as f64;
                let g = rng.random_range(0..40i64) as f64;
                let s = rng.random_range(0..6i64) as f64;
                curves.push(match kind {
                    0 => DisplacementCurve::abs(c),
                    1 => DisplacementCurve::left_cell(c, g, s),
                    _ => DisplacementCurve::right_cell(c, g, s, 4.0),
                });
            }
            let lo = rng.random_range(0..20i64) as f64;
            let hi = lo + rng.random_range(1..25i64) as f64;
            let (rx, rv) = minimize_sum(&curves, lo, hi);
            let mut bps: Vec<Breakpoint> = curves
                .iter()
                .flat_map(|c| c.breakpoints.iter().copied())
                .collect();
            bps.sort_by(|a, b| a.x.total_cmp(&b.x));
            let anchor: f64 = curves.iter().map(|c| c.eval(lo)).sum();
            let base: f64 = curves
                .iter()
                .filter_map(|c| c.breakpoints.first())
                .map(|bp| bp.left_slope)
                .sum();
            let mut st = FopOpStats::default();
            let (fx, fv) = breakpoint_chain(&bps, base, anchor, lo, hi, &mut st);
            assert!(
                (fv - rv).abs() < 1e-6,
                "chain {fv} vs reference {rv} (x {fx} vs {rx})"
            );
            // the scratch chain must agree bit for bit with the allocating one
            assert_eq!(scratch_chain(&bps, base, anchor, lo, hi), (fx, fv));
        }
    }

    /// Run [`breakpoint_chain_with`] on fresh buffers.
    fn scratch_chain(bps: &[Breakpoint], base: f64, anchor: f64, lo: f64, hi: f64) -> (f64, f64) {
        let mut st = FopOpStats::default();
        let (mut merged, mut slopes_r) = (Vec::new(), Vec::new());
        breakpoint_chain_with(
            bps,
            base,
            anchor,
            lo,
            hi,
            &mut OpClock::start(&mut st),
            &mut merged,
            &mut slopes_r,
        )
    }

    #[test]
    fn slope_balance_assert_tolerates_large_magnitudes() {
        // Slope sums near 1e12 at coordinates near 1e9 (large-coordinate designs with heavy
        // localCells): the chain must stay finite, and the scratch chain must agree bit for
        // bit with the allocating one.
        let mut bps: Vec<Breakpoint> = (0..64)
            .map(|i| {
                let f = i as f64;
                let slope_at = |j: f64| -3.1e12 + j * (9.7e10 + 0.123456789);
                Breakpoint {
                    x: 1.0e9 + f * 10.1,
                    left_slope: slope_at(f),
                    right_slope: slope_at(f + 1.0),
                }
            })
            .collect();
        bps.sort_by(|a, b| a.x.total_cmp(&b.x));
        let base = bps[0].left_slope;
        let (lo, hi) = (1.0e9 - 5.0, 1.0e9 + 700.0);
        let mut st = FopOpStats::default();
        let (fx, fv) = breakpoint_chain(&bps, base, 0.0, lo, hi, &mut st);
        assert!(fx.is_finite() && fv.is_finite());
        let (sx, sv) = scratch_chain(&bps, base, 0.0, lo, hi);
        assert_eq!(
            (sx.to_bits(), sv.to_bits()),
            (fx.to_bits(), fv.to_bits()),
            "scratch and reference chains diverged at large magnitude: ({sx}, {sv}) vs ({fx}, {fv})"
        );
    }

    #[test]
    fn pipelines_tolerate_nan_breakpoints_without_panicking() {
        // a NaN desired position produces NaN curve data; both chains must degrade
        // gracefully (garbage minimum, no panic) — the engines' feasibility checks and the
        // NaN-tolerant cost comparisons discard the result downstream
        let mut bps = vec![
            Breakpoint {
                x: f64::NAN,
                left_slope: f64::NAN,
                right_slope: f64::NAN,
            },
            Breakpoint {
                x: 3.0,
                left_slope: -1.0,
                right_slope: 1.0,
            },
        ];
        bps.sort_by(|a, b| a.x.total_cmp(&b.x));
        let mut st = FopOpStats::default();
        let _ = breakpoint_chain(&bps, f64::NAN, f64::NAN, 0.0, 10.0, &mut st);
        let _ = scratch_chain(&bps, f64::NAN, f64::NAN, 0.0, 10.0);
    }

    #[test]
    fn parity_constrained_target_lands_on_allowed_row() {
        let region = region();
        let mut t = target();
        t.height = 2;
        t.width = 4;
        t.parity = Some(1);
        let mut stats = FopOpStats::default();
        let out = find_optimal_position_with(
            &region,
            &t,
            &MglConfig::default(),
            &mut stats,
            &mut FopScratch::new(),
        );
        // only bottom row 1 has odd parity, but row 1 + height 2 exceeds the 2-row window,
        // so there must be no feasible placement
        assert!(out.best.is_none());
        let mut t2 = t;
        t2.parity = Some(0);
        let out2 = find_optimal_position_with(
            &region,
            &t2,
            &MglConfig::default(),
            &mut stats,
            &mut FopScratch::new(),
        );
        assert_eq!(out2.best.unwrap().row, 0);
    }

    #[test]
    fn full_region_forces_shifting_and_counts_work() {
        // a tight row: cells at [2,10) and [10,18) in [0,30); target width 6 must push
        let region = LocalRegion {
            target: CellId(9),
            window: Rect::new(0, 0, 30, 1),
            segments: vec![LocalSegment {
                row: 0,
                span: Interval::new(0, 30),
            }],
            cells: vec![
                LocalCell {
                    id: CellId(0),
                    x: 2,
                    y: 0,
                    width: 8,
                    height: 1,
                    gx: 2.0,
                },
                LocalCell {
                    id: CellId(1),
                    x: 10,
                    y: 0,
                    width: 8,
                    height: 1,
                    gx: 10.0,
                },
            ],
            density: 0.53,
        };
        let t = TargetSpec {
            width: 6,
            height: 1,
            gx: 9.0,
            gy: 0.0,
            parity: None,
        };
        let mut stats = FopOpStats::default();
        let out = find_optimal_position_with(
            &region,
            &t,
            &MglConfig::default(),
            &mut stats,
            &mut FopScratch::new(),
        );
        let best = out.best.expect("still feasible by shifting");
        // wherever it lands, the work trace must show subcell visits and breakpoints
        assert!(out.work.subcell_visits > 0);
        assert!(out.work.breakpoints > 0);
        assert!(out.work.sorted_cells > 0, "SACS sorter fed");
        assert!(best.cost > 0.0);
        assert!(stats.cell_shift_ns > 0);
        assert!(stats.presort_ns > 0);
    }

    #[test]
    fn cost_accounts_for_vertical_displacement() {
        // identical free rows 0 and 3; target global row 0 → row 0 must win because of the
        // vertical displacement term
        let region = LocalRegion {
            target: CellId(9),
            window: Rect::new(0, 0, 20, 4),
            segments: (0..4)
                .map(|r| LocalSegment {
                    row: r,
                    span: Interval::new(0, 20),
                })
                .collect(),
            cells: vec![],
            density: 0.0,
        };
        let t = TargetSpec {
            width: 4,
            height: 1,
            gx: 8.0,
            gy: 0.0,
            parity: None,
        };
        let mut stats = FopOpStats::default();
        let best = find_optimal_position_with(
            &region,
            &t,
            &MglConfig::default(),
            &mut stats,
            &mut FopScratch::new(),
        )
        .best
        .unwrap();
        assert_eq!(best.row, 0);
        assert_eq!(best.x, 8);
        assert!(best.cost < 1e-9);
    }
}
