//! The original multi-pass cell-shifting algorithm (Fig. 6, Algorithm 3 of the paper).
//!
//! Inserting the target cell into an insertion point splices it into every target row's cell
//! sequence: `…left-chain cells, target, right-chain cells…`. Cell shifting resolves the
//! overlaps this creates by pushing the left-chain cells further left (*left-move* phase) and
//! the right-chain cells further right (*right-move* phase); pushed multi-row cells cascade the
//! pressure into neighbouring rows, where cells are plain positional obstacles.
//!
//! The original algorithm traverses subcells bottom-to-top / right-to-left (for the left-move)
//! with a `finish` flag and repeats whole passes until no cell moves, because a multi-row cell
//! moved in one row can create an overlap in another row that the current pass has already
//! visited. The number of passes is unpredictable, which is exactly the property FLEX's SACS
//! algorithm (see [`crate::sacs`]) removes.

use crate::insertion::InsertionPoint;
use crate::region::LocalRegion;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Which shifting phase to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Push the cells on the left of the target further left.
    Left,
    /// Push the cells on the right of the target further right.
    Right,
}

/// A cell-shifting problem: a region, an insertion point, and a trial target position.
#[derive(Debug, Clone, Copy)]
pub struct ShiftProblem<'a> {
    /// The localRegion being legalized.
    pub region: &'a LocalRegion,
    /// The insertion point whose chains define which cells sit left/right of the target.
    pub point: &'a InsertionPoint,
    /// Width of the target cell in sites.
    pub target_width: i64,
    /// Height of the target cell in rows.
    pub target_height: i64,
    /// Trial left-edge position of the target cell.
    pub target_x: i64,
}

impl<'a> ShiftProblem<'a> {
    /// Rows the target would occupy.
    pub fn target_rows(&self) -> std::ops::Range<i64> {
        self.point.bottom_row..self.point.bottom_row + self.target_height
    }

    /// Indices of the localCells designated to the **right** of the insertion interval.
    pub fn right_designated(&self) -> BTreeSet<usize> {
        self.point.right_chain.iter().flatten().copied().collect()
    }

    /// Indices of the localCells designated to the **left** of the insertion interval.
    pub fn left_designated(&self) -> BTreeSet<usize> {
        self.point.left_chain.iter().flatten().copied().collect()
    }

    /// Cells that move in `phase` (the phase's own chain).
    pub fn movers(&self, phase: Phase) -> BTreeSet<usize> {
        match phase {
            Phase::Left => self.left_designated(),
            Phase::Right => self.right_designated(),
        }
    }

    /// Cells that are immovable obstacles in `phase` (the opposite chain).
    pub fn statics(&self, phase: Phase) -> BTreeSet<usize> {
        match phase {
            Phase::Left => self.right_designated(),
            Phase::Right => self.left_designated(),
        }
    }
}

/// Result of one shifting phase.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShiftOutcome {
    /// `(cell index in region, final x)` for every cell the phase considered, in output order.
    pub positions: Vec<(usize, i64)>,
    /// Number of full traversal passes (always 1 for SACS).
    pub passes: u32,
    /// Number of subcell visits performed (the work metric driving Fig. 2(g)).
    pub subcell_visits: u64,
}

impl ShiftOutcome {
    /// The positions as a map keyed by region cell index.
    pub fn as_map(&self) -> std::collections::BTreeMap<usize, i64> {
        self.positions.iter().copied().collect()
    }
}

/// A grow-only pool of per-segment index lists (reused across problems and regions).
#[derive(Debug, Clone, Default)]
struct SegLists {
    lists: Vec<Vec<usize>>,
    len: usize,
}

impl SegLists {
    fn reset(&mut self, n: usize) {
        while self.lists.len() < n {
            self.lists.push(Vec::new());
        }
        for l in self.lists.iter_mut().take(n) {
            l.clear();
        }
        self.len = n;
    }

    fn get(&self, i: usize) -> &[usize] {
        debug_assert!(i < self.len);
        &self.lists[i]
    }

    fn get_mut(&mut self, i: usize) -> &mut Vec<usize> {
        debug_assert!(i < self.len);
        &mut self.lists[i]
    }
}

/// A grow-only pool of per-segment static obstacle edges `(x, width)`.
#[derive(Debug, Clone, Default)]
struct EdgeLists {
    lists: Vec<Vec<(i64, i64)>>,
    len: usize,
}

impl EdgeLists {
    fn reset(&mut self, n: usize) {
        while self.lists.len() < n {
            self.lists.push(Vec::new());
        }
        for l in self.lists.iter_mut().take(n) {
            l.clear();
        }
        self.len = n;
    }

    fn get(&self, i: usize) -> &[(i64, i64)] {
        debug_assert!(i < self.len);
        &self.lists[i]
    }

    fn get_mut(&mut self, i: usize) -> &mut Vec<(i64, i64)> {
        debug_assert!(i < self.len);
        &mut self.lists[i]
    }
}

/// Reusable buffers for the shifting phases: one instance per engine (or per worker thread)
/// serves every insertion point of every region without reallocating.
///
/// Usage contract: call [`ShiftScratch::begin_region`] once per [`LocalRegion`], then any
/// number of [`shift_phase_original_with`] /
/// [`shift_phase_sacs_with_stats_into`](crate::sacs::shift_phase_sacs_with_stats_into) calls
/// against that region. `begin_region` sorts the localCells once by `(x, index)` — the
/// software Ahead-Sorter — and distributes that order into one presorted cell list per
/// segment row. Every phase problem then builds its traversal and static-edge lists by
/// walking those rows in phase direction instead of sorting, and SACS streams its output in
/// the region order. The row lists replace the per-pass `rows().any(..)` scans of the
/// reference implementation; the phase bitmaps replace its per-problem `BTreeSet`s. Results
/// are bit-identical to the allocating functions (same per-pass traversal orders, same
/// arithmetic).
#[derive(Debug, Clone, Default)]
pub struct ShiftScratch {
    /// Working x positions, indexed by region cell index.
    pos: Vec<i64>,
    /// Membership bitmap of the phase's static (opposite-chain) cells.
    statics: Vec<bool>,
    /// Membership bitmap of the phase's designated movers (own chain).
    movers: Vec<bool>,
    /// Region-lifetime: every cell index sorted by `(x, index)` (the Ahead-Sorter order).
    order: Vec<usize>,
    /// Region-lifetime: per segment, indices of the cells occupying that row, sorted by
    /// `(x, index)`.
    row_cells: SegLists,
    /// Problem-lifetime: per segment, the movable traversal list (re-sorted by position
    /// every pass, exactly like the reference rebuilds it).
    traverse: SegLists,
    /// Problem-lifetime: per segment, static obstacle edges sorted in phase direction.
    static_edges: EdgeLists,
    /// Identity of the region `begin_region` indexed (misuse guard).
    region_key: Option<RegionKey>,
}

/// Identity of the region a [`ShiftScratch`] was prepared for: enough to tell two regions
/// of the legalization flow apart (the same target re-extracts with a different window on
/// every expansion level, and different targets differ in `target`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RegionKey {
    target: flex_placement::cell::CellId,
    window: (i64, i64, i64, i64),
    cells: usize,
    segments: usize,
}

impl RegionKey {
    fn of(region: &LocalRegion) -> Self {
        Self {
            target: region.target,
            window: (
                region.window.x_lo,
                region.window.y_lo,
                region.window.x_hi,
                region.window.y_hi,
            ),
            cells: region.cells.len(),
            segments: region.segments.len(),
        }
    }
}

impl ShiftScratch {
    /// Sort `region`'s localCells by `(x, index)` and distribute that order into the
    /// per-segment row lists. Must be called before the scratch shifting functions are used
    /// on problems of that region.
    pub fn begin_region(&mut self, region: &LocalRegion) {
        debug_assert!(
            region.segments.windows(2).all(|w| w[0].row < w[1].row),
            "LocalRegion segments must be sorted by row (see LocalRegion::segments)"
        );
        self.order.clear();
        self.order.extend(0..region.cells.len());
        self.order.sort_unstable_by_key(|&i| (region.cells[i].x, i));
        self.row_cells.reset(region.segments.len());
        for &i in &self.order {
            for r in region.cells[i].rows() {
                if let Some(s) = region.segment_index(r) {
                    self.row_cells.get_mut(s).push(i);
                }
            }
        }
        self.region_key = Some(RegionKey::of(region));
    }

    /// The non-static cells of the most recent successful phase run with their final
    /// positions, in the Ahead-Sorter's streaming order: descending `(x, index)` for the
    /// left-move phase, ascending for the right-move phase.
    pub(crate) fn streamed(&self, phase: Phase) -> impl Iterator<Item = (usize, i64)> + '_ {
        let n = self.order.len();
        (0..n)
            .map(move |k| match phase {
                Phase::Left => self.order[n - 1 - k],
                Phase::Right => self.order[k],
            })
            .filter(|&i| !self.statics[i])
            .map(|i| (i, self.pos[i]))
    }
}

/// Scratch twin of [`shift_phase_original`]: writes the outcome into `out` (positions vector
/// reused) instead of allocating, and reads the presorted rows prepared by
/// [`ShiftScratch::begin_region`]. Produces bit-identical positions, passes and visit counts.
pub fn shift_phase_original_with(
    problem: &ShiftProblem<'_>,
    phase: Phase,
    scratch: &mut ShiftScratch,
    out: &mut ShiftOutcome,
) -> Result<(), Infeasible> {
    let (passes, visits) = resolve_phase_with(problem, phase, scratch)?;
    out.positions.clear();
    out.positions.extend(
        (0..problem.region.cells.len())
            .filter(|&i| !scratch.statics[i])
            .map(|i| (i, scratch.pos[i])),
    );
    out.passes = passes;
    out.subcell_visits = visits;
    Ok(())
}

/// Run the multi-pass fixpoint of one phase on the scratch, leaving the final positions in
/// `scratch.pos` and the phase's statics in `scratch.statics`. Returns `(passes, visits)`.
pub(crate) fn resolve_phase_with(
    problem: &ShiftProblem<'_>,
    phase: Phase,
    scratch: &mut ShiftScratch,
) -> Result<(u32, u64), Infeasible> {
    let region = problem.region;
    let n = region.cells.len();
    // checked unconditionally: a stale row index would produce silently wrong positions
    assert_eq!(
        scratch.region_key,
        Some(RegionKey::of(region)),
        "ShiftScratch::begin_region was not called for this region"
    );

    let ShiftScratch {
        pos,
        statics,
        movers,
        row_cells,
        traverse,
        static_edges,
        ..
    } = scratch;

    // phase membership bitmaps (the scratch twin of the reference's BTreeSets)
    statics.clear();
    statics.resize(n, false);
    movers.clear();
    movers.resize(n, false);
    let (mover_chain, static_chain) = match phase {
        Phase::Left => (&problem.point.left_chain, &problem.point.right_chain),
        Phase::Right => (&problem.point.right_chain, &problem.point.left_chain),
    };
    for &i in static_chain.iter().flatten() {
        statics[i] = true;
    }
    for &i in mover_chain.iter().flatten() {
        movers[i] = true;
    }

    pos.clear();
    pos.extend(region.cells.iter().map(|c| c.x));

    let target_rows = problem.target_rows();
    let nsegs = region.segments.len();

    // Hoisted out of the pass loop: traversal membership and static obstacle positions never
    // change within a phase, so they are computed once per problem (the reference rebuilds
    // and re-sorts them every pass). Walking the presorted row in phase direction (descending
    // x for Left, ascending for Right) emits both lists already in traversal order. Equal-x
    // static edges may come out in another order than the reference's stable sort, but both
    // folds below consume equal-x edges in the same step, so the bounds are identical.
    traverse.reset(nsegs);
    static_edges.reset(nsegs);
    for (s, seg) in region.segments.iter().enumerate() {
        let is_target_row = target_rows.contains(&seg.row);
        let t = traverse.get_mut(s);
        let e = static_edges.get_mut(s);
        let mut classify = |i: usize| {
            if statics[i] {
                if !is_target_row {
                    let c = &region.cells[i];
                    e.push((c.x, c.width));
                }
            } else if !is_target_row || movers[i] {
                t.push(i);
            }
        };
        match phase {
            Phase::Left => row_cells.get(s).iter().rev().for_each(|&i| classify(i)),
            Phase::Right => row_cells.get(s).iter().for_each(|&i| classify(i)),
        }
    }

    let mut passes = 0u32;
    let mut visits = 0u64;
    loop {
        passes += 1;
        let mut finish = true;
        for (s, seg) in region.segments.iter().enumerate() {
            let is_target_row = target_rows.contains(&seg.row);
            let t = traverse.get_mut(s);
            let edges = static_edges.get(s);
            let mut cursor = 0usize;
            // The per-pass re-sort lets a multi-row cell moved in another row overtake a
            // neighbour here (see `a_multi_row_cell_overtakes_its_neighbour_on_the_second_pass`);
            // on the presorted first pass it is one comparison per element.
            match phase {
                Phase::Left => {
                    t.sort_by_key(|&i| std::cmp::Reverse((pos[i], i)));
                    let mut bound = if is_target_row {
                        seg.span.hi.min(problem.target_x)
                    } else {
                        seg.span.hi
                    };
                    for &i in t.iter() {
                        visits += 1;
                        while cursor < edges.len() {
                            let (sx, _) = edges[cursor];
                            if sx >= pos[i] {
                                bound = bound.min(sx);
                                cursor += 1;
                            } else {
                                break;
                            }
                        }
                        let w = region.cells[i].width;
                        if pos[i] + w > bound {
                            let new_x = bound - w;
                            if new_x < seg.span.lo {
                                return Err(Infeasible);
                            }
                            pos[i] = new_x;
                            finish = false;
                        }
                        bound = bound.min(pos[i]);
                    }
                }
                Phase::Right => {
                    t.sort_by_key(|&i| (pos[i], i));
                    let mut bound = if is_target_row {
                        seg.span.lo.max(problem.target_x + problem.target_width)
                    } else {
                        seg.span.lo
                    };
                    for &i in t.iter() {
                        visits += 1;
                        while cursor < edges.len() {
                            let (sx, sw) = edges[cursor];
                            if sx <= pos[i] {
                                bound = bound.max(sx + sw);
                                cursor += 1;
                            } else {
                                break;
                            }
                        }
                        let w = region.cells[i].width;
                        if pos[i] < bound {
                            if bound + w > seg.span.hi {
                                return Err(Infeasible);
                            }
                            pos[i] = bound;
                            finish = false;
                        }
                        bound = bound.max(pos[i] + w);
                    }
                }
            }
        }
        if finish {
            break;
        }
        if passes > 4 * (n as u32 + 2) {
            return Err(Infeasible);
        }
    }
    Ok((passes, visits))
}

/// Shifting failed: a cell would have to be pushed outside its localSegment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Infeasible;

impl std::fmt::Display for Infeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell shifting pushed a cell outside its localSegment")
    }
}

impl std::error::Error for Infeasible {}

/// Run one phase of the **original** multi-pass shifting algorithm.
pub fn shift_phase_original(
    problem: &ShiftProblem<'_>,
    phase: Phase,
) -> Result<ShiftOutcome, Infeasible> {
    let region = problem.region;
    let statics = problem.statics(phase);
    let movers = problem.movers(phase);
    let target_rows: Vec<i64> = problem.target_rows().collect();

    // working positions of the participants (everything that is not a static obstacle)
    let mut pos: Vec<i64> = region.cells.iter().map(|c| c.x).collect();
    let participants: Vec<usize> = (0..region.cells.len())
        .filter(|i| !statics.contains(i))
        .collect();

    let mut passes = 0u32;
    let mut visits = 0u64;
    loop {
        passes += 1;
        let mut finish = true;
        // bottom-to-top inter-row traversal
        for seg in &region.segments {
            let row = seg.row;
            let is_target_row = target_rows.contains(&row);

            // the movable cells this phase traverses in this row
            let mut traverse: Vec<usize> = participants
                .iter()
                .copied()
                .filter(|&i| region.cells[i].rows().any(|r| r == row))
                .filter(|&i| !is_target_row || movers.contains(&i))
                .collect();
            // static obstacles that are positional in this row (non-target rows only: in target
            // rows the opposite chain lives on the other side of the target and is handled by
            // the other phase)
            let mut static_edges: Vec<(i64, i64)> = if is_target_row {
                Vec::new()
            } else {
                region
                    .cells
                    .iter()
                    .enumerate()
                    .filter(|(i, c)| statics.contains(i) && c.rows().any(|r| r == row))
                    .map(|(_, c)| (c.x, c.width))
                    .collect()
            };

            match phase {
                Phase::Left => {
                    traverse.sort_by_key(|&i| std::cmp::Reverse((pos[i], i)));
                    static_edges.sort_by_key(|&(x, _)| std::cmp::Reverse(x));
                    let mut statics_iter = static_edges.into_iter().peekable();
                    let mut bound = if is_target_row {
                        seg.span.hi.min(problem.target_x)
                    } else {
                        seg.span.hi
                    };
                    for i in traverse {
                        visits += 1;
                        // fold in static obstacles to the right of this cell's current position
                        while let Some(&(sx, _)) = statics_iter.peek() {
                            if sx >= pos[i] {
                                bound = bound.min(sx);
                                statics_iter.next();
                            } else {
                                break;
                            }
                        }
                        let w = region.cells[i].width;
                        if pos[i] + w > bound {
                            let new_x = bound - w;
                            if new_x < seg.span.lo {
                                return Err(Infeasible);
                            }
                            pos[i] = new_x;
                            finish = false;
                        }
                        bound = bound.min(pos[i]);
                    }
                }
                Phase::Right => {
                    traverse.sort_by_key(|&i| (pos[i], i));
                    static_edges.sort_by_key(|&(x, _)| x);
                    let mut statics_iter = static_edges.into_iter().peekable();
                    let mut bound = if is_target_row {
                        seg.span.lo.max(problem.target_x + problem.target_width)
                    } else {
                        seg.span.lo
                    };
                    for i in traverse {
                        visits += 1;
                        while let Some(&(sx, sw)) = statics_iter.peek() {
                            if sx <= pos[i] {
                                bound = bound.max(sx + sw);
                                statics_iter.next();
                            } else {
                                break;
                            }
                        }
                        let w = region.cells[i].width;
                        if pos[i] < bound {
                            if bound + w > seg.span.hi {
                                return Err(Infeasible);
                            }
                            pos[i] = bound;
                            finish = false;
                        }
                        bound = bound.max(pos[i] + w);
                    }
                }
            }
        }
        if finish {
            break;
        }
        // safety valve: the loop must terminate because every move is monotone and bounded, but
        // guard against degenerate regions anyway
        if passes > 4 * (region.cells.len() as u32 + 2) {
            return Err(Infeasible);
        }
    }

    Ok(ShiftOutcome {
        positions: participants.iter().map(|&i| (i, pos[i])).collect(),
        passes,
        subcell_visits: visits,
    })
}

/// Run both phases of the original algorithm and merge the outcomes.
pub fn shift_original(
    problem: &ShiftProblem<'_>,
) -> Result<(ShiftOutcome, ShiftOutcome), Infeasible> {
    let left = shift_phase_original(problem, Phase::Left)?;
    let right = shift_phase_original(problem, Phase::Right)?;
    Ok((left, right))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::enumerate_insertion_points;
    use crate::region::{LocalCell, LocalRegion, LocalSegment};
    use flex_placement::cell::CellId;
    use flex_placement::geom::{Interval, Rect};

    /// Region reproducing the spirit of Fig. 6: multi-row cells that cascade across rows.
    fn fig6_region() -> LocalRegion {
        LocalRegion {
            target: CellId(99),
            window: Rect::new(0, 0, 40, 3),
            segments: vec![
                LocalSegment {
                    row: 0,
                    span: Interval::new(0, 40),
                },
                LocalSegment {
                    row: 1,
                    span: Interval::new(0, 40),
                },
                LocalSegment {
                    row: 2,
                    span: Interval::new(0, 40),
                },
            ],
            cells: vec![
                // a: 2-row cell on rows 0-1
                LocalCell {
                    id: CellId(0),
                    x: 10,
                    y: 0,
                    width: 4,
                    height: 2,
                    gx: 10.0,
                },
                // b: 1-row cell left of a on row 1
                LocalCell {
                    id: CellId(1),
                    x: 5,
                    y: 1,
                    width: 4,
                    height: 1,
                    gx: 5.0,
                },
                // c: 3-row cell on rows 0-2 to the left
                LocalCell {
                    id: CellId(2),
                    x: 1,
                    y: 0,
                    width: 3,
                    height: 3,
                    gx: 1.0,
                },
                // d: right-side cell
                LocalCell {
                    id: CellId(3),
                    x: 20,
                    y: 0,
                    width: 5,
                    height: 1,
                    gx: 20.0,
                },
            ],
            density: 0.3,
        }
    }

    fn point_for(region: &LocalRegion, w: i64, h: i64, anchor: f64) -> InsertionPoint {
        let pts = enumerate_insertion_points(region, w, h, None, anchor, 64);
        pts.into_iter()
            .min_by_key(|p| (p.clamp(anchor.round() as i64) - anchor.round() as i64).abs())
            .expect("feasible point")
    }

    #[test]
    fn left_move_pushes_chain_without_overlap() {
        let region = fig6_region();
        // target of width 6 inserted around x=14 on row 0: cell a (x=10..14) must slide left,
        // cascading into b on row 1 and c on rows 0-2
        let point = point_for(&region, 6, 1, 15.0);
        let problem = ShiftProblem {
            region: &region,
            point: &point,
            target_width: 6,
            target_height: 1,
            target_x: 12,
        };
        let out = shift_phase_original(&problem, Phase::Left).unwrap();
        let map = out.as_map();
        // cell a must not overlap the target: right edge <= 12
        assert!(map[&0] + 4 <= 12);
        // cell b (row 1) must not overlap a
        assert!(map[&1] + 4 <= map[&0]);
        // cell c (rows 0-2) must not overlap b (row 1) or a (row 0)
        assert!(map[&2] + 3 <= map[&1]);
        assert!(map[&2] + 3 <= map[&0]);
        assert!(map[&2] >= 0);
        assert!(out.passes >= 1);
        assert!(out.subcell_visits > 0);
    }

    #[test]
    fn right_move_pushes_right_side() {
        let region = fig6_region();
        let point = point_for(&region, 6, 1, 15.0);
        let problem = ShiftProblem {
            region: &region,
            point: &point,
            target_width: 6,
            target_height: 1,
            target_x: 15,
        };
        let out = shift_phase_original(&problem, Phase::Right).unwrap();
        let map = out.as_map();
        // cell d is on the right chain of row 0: pushed to clear [15, 21)
        assert!(map[&3] >= 21);
        assert!(map[&3] + 5 <= 40);
    }

    #[test]
    fn cascade_feasibility_is_detected_during_shifting() {
        let region = fig6_region();
        // the point whose left chain holds both c and a in row 0
        let pts = enumerate_insertion_points(&region, 6, 1, None, 15.0, 64);
        let point = pts
            .iter()
            .find(|p| p.bottom_row == 0 && p.left_chain[0].len() == 2)
            .expect("point with two left-chain cells");
        // At full compression (x_lo = 7) the row-0 chain fits, but pushing cell a left of the
        // target forces b and then c out of row 1: the cascade makes this x infeasible, which
        // the per-row insertion-interval estimate cannot see but shifting must detect.
        let tight = ShiftProblem {
            region: &region,
            point,
            target_width: 6,
            target_height: 1,
            target_x: point.x_lo,
        };
        assert_eq!(shift_phase_original(&tight, Phase::Left), Err(Infeasible));

        // With a little slack (x = 12) the same point is feasible and both designated cells end
        // up left of the target.
        let relaxed = ShiftProblem {
            target_x: 12,
            ..tight
        };
        let out = shift_phase_original(&relaxed, Phase::Left).unwrap();
        let map = out.as_map();
        assert!(map[&0] + 4 <= 12);
        assert!(map[&2] + 3 <= map[&0]);
        assert!(map[&2] >= 0);
    }

    #[test]
    fn no_movement_when_target_fits_in_open_space() {
        let region = fig6_region();
        let point = point_for(&region, 4, 1, 30.0);
        let problem = ShiftProblem {
            region: &region,
            point: &point,
            target_width: 4,
            target_height: 1,
            target_x: 30,
        };
        let (left, right) = shift_original(&problem).unwrap();
        for (i, x) in left.positions.iter().chain(right.positions.iter()) {
            assert_eq!(*x, region.cells[*i].x, "cell {i} should not move");
        }
        assert_eq!(left.passes, 1);
    }

    #[test]
    fn infeasible_when_no_room_to_push() {
        // a packed single row: cells fill [0, 12) of a [0, 14) segment; target width 6 cannot fit
        let region = LocalRegion {
            target: CellId(9),
            window: Rect::new(0, 0, 14, 1),
            segments: vec![LocalSegment {
                row: 0,
                span: Interval::new(0, 14),
            }],
            cells: vec![
                LocalCell {
                    id: CellId(0),
                    x: 0,
                    y: 0,
                    width: 6,
                    height: 1,
                    gx: 0.0,
                },
                LocalCell {
                    id: CellId(1),
                    x: 6,
                    y: 0,
                    width: 6,
                    height: 1,
                    gx: 6.0,
                },
            ],
            density: 0.85,
        };
        // hand-build a point that claims feasibility of a width-2 target, then ask for width 6
        let point = InsertionPoint {
            bottom_row: 0,
            x_lo: 6,
            x_hi: 8,
            left_chain: vec![vec![0]],
            right_chain: vec![vec![1]],
        };
        let problem = ShiftProblem {
            region: &region,
            point: &point,
            target_width: 6,
            target_height: 1,
            target_x: 4,
        };
        assert_eq!(shift_phase_original(&problem, Phase::Left), Err(Infeasible));
    }

    /// E (rows 1–2) is pushed left of C in row 1 by the target in row 2. The per-pass re-sort
    /// lets E overtake C on the second pass; an order-preserving single pass over the
    /// presorted cells (the paper's Algorithm 4) would keep C left of E, push C to
    /// `0 − 2 = −2` and reject the point. So replacing the per-pass re-sort with the
    /// presorted order changes feasibility, and a single-pass software SACS cannot be
    /// bit-identical to this fixpoint.
    #[test]
    fn a_multi_row_cell_overtakes_its_neighbour_on_the_second_pass() {
        const C: usize = 0;
        const E: usize = 1;
        let cell = |id, x, y, width, height| LocalCell {
            id: CellId(id),
            x,
            y,
            width,
            height,
            gx: x as f64,
        };
        let region = LocalRegion {
            target: CellId(99),
            window: Rect::new(0, 0, 40, 3),
            segments: (0..3)
                .map(|row| LocalSegment {
                    row,
                    span: Interval::new(0, 40),
                })
                .collect(),
            cells: vec![cell(0, 8, 1, 2, 1), cell(1, 10, 1, 4, 2)],
            density: 0.1,
        };
        let point = enumerate_insertion_points(&region, 6, 1, None, 4.0, 64)
            .into_iter()
            .find(|p| p.bottom_row == 2 && p.x_lo == 4 && p.left_chain == vec![vec![E]])
            .expect("the point right of E on row 2");
        let problem = ShiftProblem {
            region: &region,
            point: &point,
            target_width: 6,
            target_height: 1,
            target_x: point.x_lo,
        };

        let reference = shift_phase_original(&problem, Phase::Left).expect("feasible");
        let mut scratch = ShiftScratch::default();
        scratch.begin_region(&region);
        let mut out = ShiftOutcome::default();
        shift_phase_original_with(&problem, Phase::Left, &mut scratch, &mut out).expect("feasible");
        for got in [&reference, &out] {
            let map = got.as_map();
            assert_eq!(map[&E], 0, "E is pushed to the segment start");
            assert_eq!(map[&C], 8, "C stays put: E passed it");
            assert_eq!(got.passes, 2);
        }
    }

    #[test]
    fn multi_row_target_clears_all_its_rows() {
        let region = fig6_region();
        let point = point_for(&region, 5, 2, 12.0);
        let x = point.clamp(12);
        let problem = ShiftProblem {
            region: &region,
            point: &point,
            target_width: 5,
            target_height: 2,
            target_x: x,
        };
        let (left, right) = shift_original(&problem).unwrap();
        let mut pos: Vec<i64> = region.cells.iter().map(|c| c.x).collect();
        for (i, p) in left.positions.iter().chain(right.positions.iter()) {
            pos[*i] = *p;
        }
        // verify no overlap between any localCell and the target or each other, row by row
        let target = Interval::new(x, x + 5);
        for row in 0..3 {
            let mut spans: Vec<Interval> = Vec::new();
            if (point.bottom_row..point.bottom_row + 2).contains(&row) {
                spans.push(target);
            }
            for (i, c) in region.cells.iter().enumerate() {
                if c.rows().any(|r| r == row) {
                    spans.push(Interval::new(pos[i], pos[i] + c.width));
                }
            }
            for a in 0..spans.len() {
                for b in a + 1..spans.len() {
                    assert!(
                        !spans[a].overlaps(&spans[b]),
                        "row {row}: {:?} vs {:?}",
                        spans[a],
                        spans[b]
                    );
                }
            }
        }
    }
}
