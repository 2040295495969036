//! Cell shifting: the original multi-pass algorithm (Fig. 6, Algorithm 3 of the paper) and
//! the one kernel that runs it for both of the paper's schedules.
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
//!
//! ### Two implementations
//!
//! [`shift_phase_original`] (and SACS's [`shift_phase_sacs_with_stats`] on top of it) is the
//! allocating reference: it lists every non-static cell with its final position and rebuilds
//! every row's lists on every pass. It is the oracle of the differential tests.
//!
//! [`shift_phase_with`] is the scratch kernel the hot paths (FOP's curve building and commit
//! planning) call. Algorithm 3 and SACS (Algorithm 4) schedule the same fixpoint, so one run
//! reports what both do: the original algorithm's passes and subcell visits, the SACS work
//! profile, and the moved cells in the SACS stream order ([`PhaseMoves`]). Which schedule an
//! FPGA would run is a question for the cycle model in `flex-core`, not for the software.
//! One phase problem costs the rows and cells its push reaches:
//!
//! * **Settled rows.** A row is traversed only while it is *unsettled*. Starting a row's
//!   traversal settles it; every move unsettles each row the moved cell spans. This is
//!   exact: a row's traversal is a pure function of its cells' positions and the problem's
//!   fixed inputs (traversal list, static edges, initial bound), so a row whose last
//!   traversal moved nothing, and none of whose cells moved since, would move nothing again;
//!   skipping it changes no position, pass count or `Err` exit. Rows that
//!   [`ShiftScratch::begin_region`] finds *clean* (presorted cells strictly increasing in x,
//!   non-overlapping, inside the segment) start settled unless they are target rows,
//!   because their first traversal moves nothing either.
//! * **Undo instead of rebuild.** Positions and the membership bitmaps are restored from
//!   the cells the run touched, on both exits; a row's lists are built on its first
//!   traversal; the work counters come from row sizes and per-region totals.
//! * **Moved cells only.** The kernel reports the cells the phase moved ([`PhaseMoves`]),
//!   in the order SACS's dense outcome lists them, so both consumers stay bit-identical.
//!
//! [`shift_phase_sacs_with_stats`]: crate::sacs::shift_phase_sacs_with_stats

use crate::insertion::InsertionPoint;
use crate::region::{LocalRegion, LocalSegment};
use crate::sacs::SacsStats;
use std::collections::BTreeSet;

/// Which shifting phase to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
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

    fn get_mut(&mut self, i: usize) -> &mut Vec<(i64, i64)> {
        debug_assert!(i < self.len);
        &mut self.lists[i]
    }
}

/// What one scratch phase run ([`shift_phase_with`]) reports: the cells it moved and the
/// work of both schedules of the fixpoint that moved them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseMoves {
    /// `(cell index in region, final x)` of every cell the phase moved, in the SACS stream
    /// order (descending `(x, index)` for the left-move phase, ascending for the right-move
    /// phase), as [`shift_phase_sacs_with_stats`](crate::sacs::shift_phase_sacs_with_stats)
    /// lists them. Every cell not listed stays at its region x.
    pub moved: Vec<(usize, i64)>,
    /// Full traversal passes of the original algorithm (SACS streams in one).
    pub passes: u32,
    /// Subcell visits of the original algorithm, as [`shift_phase_original`] counts them.
    pub subcell_visits: u64,
    /// The SACS work profile.
    pub sacs: SacsStats,
}

/// Reusable buffers for the shifting phases: one instance per engine (or per worker thread)
/// serves every insertion point of every region without reallocating.
///
/// Usage contract: call [`ShiftScratch::begin_region`] once per [`LocalRegion`], then any
/// number of [`shift_phase_with`] calls against that region, in any order of phases, whether
/// they return `Ok` or `Err`. `begin_region` sorts the localCells once by `(x, index)` — the
/// software Ahead-Sorter — distributes that order into one presorted cell list per segment
/// row, marks the rows whose traversal moves nothing (*clean* rows, see
/// [`shift_phase_with`]), and resets the undo state: every working position back to its
/// cell's region x, both membership bitmaps clear, no moved cells logged.
///
/// Each phase run leaves that undo state as it found it: it sets the membership bitmaps
/// from the point's chains, logs every cell it moves, and on either exit restores the
/// logged cells' positions and clears the chain cells' bits. Results are bit-identical to
/// the allocating functions (same per-pass traversal orders, same arithmetic).
#[derive(Debug, Clone, Default)]
pub struct ShiftScratch {
    /// Working x positions, indexed by region cell index; each equals its cell's region x
    /// between phase runs.
    pos: Vec<i64>,
    /// Membership bitmap of the phase's static (opposite-chain) cells; clear between runs.
    statics: Vec<bool>,
    /// Membership bitmap of the phase's designated movers (own chain); clear between runs.
    movers: Vec<bool>,
    /// Undo log: the cells the running phase has moved, in first-move order.
    touched: Vec<usize>,
    /// Region-lifetime: every cell index sorted by `(x, index)` (the Ahead-Sorter order).
    order: Vec<usize>,
    /// Region-lifetime: per segment, indices of the cells occupying that row, sorted by
    /// `(x, index)`.
    row_cells: SegLists,
    /// Region-lifetime: per segment, whether the row is clean (see `row_is_clean`).
    clean: Vec<bool>,
    /// Region-lifetime: subcells over all segment rows (the row lists' total length).
    subcells: u64,
    /// Region-lifetime: the heights of all localCells, summed.
    heights: u64,
    /// Region-lifetime: the heights of the localCells taller than three rows, summed.
    tall_heights: u64,
    /// Problem-lifetime: per segment, whether traversing the row now would move nothing.
    settled: Vec<bool>,
    /// Problem-lifetime: per segment, whether its traversal and static-edge lists are built.
    built: Vec<bool>,
    /// Problem-lifetime: per segment, the movable traversal list (re-sorted by position on
    /// every traversal, exactly like the reference rebuilds it every pass).
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

/// Whether a row is *clean*: its presorted cells are strictly increasing in x, pairwise
/// non-overlapping and inside the segment. Outside the target rows, a clean row's
/// traversal moves nothing in either phase: the left-move bound at each cell is the nearest
/// cell to its right (or the segment end), the right-move bound the furthest right edge to
/// its left (or the segment start), and both already clear it.
fn row_is_clean(region: &LocalRegion, seg: &LocalSegment, cells: &[usize]) -> bool {
    let inside = cells.iter().all(|&i| {
        let c = &region.cells[i];
        seg.span.lo <= c.x && c.x + c.width <= seg.span.hi
    });
    inside
        && cells.windows(2).all(|w| {
            let (a, b) = (&region.cells[w[0]], &region.cells[w[1]]);
            a.x < b.x && a.x + a.width <= b.x
        })
}

/// Per-problem counts gathered while marking the chains, for the work profile.
#[derive(Debug, Clone, Copy, Default)]
struct ChainCounts {
    /// Heights of the static cells, summed.
    static_heights: u64,
    /// Heights of the static cells taller than three rows, summed.
    static_tall_heights: u64,
    /// Subcells of the static cells in segment rows outside the target rows.
    static_subcells_off_target: u64,
    /// Subcells of the non-static movers in segment rows inside the target rows.
    mover_subcells_on_target: u64,
}

impl ShiftScratch {
    /// Sort `region`'s localCells by `(x, index)`, distribute that order into the
    /// per-segment row lists, mark the clean rows and reset the undo state. Must be called
    /// before [`shift_phase_with`] is used on problems of that region.
    pub fn begin_region(&mut self, region: &LocalRegion) {
        debug_assert!(
            region.segments.windows(2).all(|w| w[0].row < w[1].row),
            "LocalRegion segments must be sorted by row (see LocalRegion::segments)"
        );
        let n = region.cells.len();
        let nsegs = region.segments.len();
        self.order.clear();
        self.order.extend(0..n);
        self.order.sort_unstable_by_key(|&i| (region.cells[i].x, i));
        self.row_cells.reset(nsegs);
        for &i in &self.order {
            for r in region.cells[i].rows() {
                if let Some(s) = region.segment_index(r) {
                    self.row_cells.get_mut(s).push(i);
                }
            }
        }
        self.clean.clear();
        self.clean.extend(
            region
                .segments
                .iter()
                .enumerate()
                .map(|(s, seg)| row_is_clean(region, seg, self.row_cells.get(s))),
        );
        self.subcells = (0..nsegs).map(|s| self.row_cells.get(s).len() as u64).sum();
        self.heights = region.cells.iter().map(|c| c.height as u64).sum();
        self.tall_heights = region
            .cells
            .iter()
            .filter(|c| c.height > 3)
            .map(|c| c.height as u64)
            .sum();

        self.pos.clear();
        self.pos.extend(region.cells.iter().map(|c| c.x));
        self.statics.clear();
        self.statics.resize(n, false);
        self.movers.clear();
        self.movers.resize(n, false);
        self.touched.clear();
        self.settled.clear();
        self.settled.resize(nsegs, false);
        self.built.clear();
        self.built.resize(nsegs, false);
        self.traverse.reset(nsegs);
        self.static_edges.reset(nsegs);
        self.region_key = Some(RegionKey::of(region));
    }

    /// Indices of the cells occupying segment `s`'s row, sorted by `(x, index)`, for the
    /// region [`Self::begin_region`] last indexed.
    pub(crate) fn row_cells(&self, s: usize) -> &[usize] {
        self.row_cells.get(s)
    }

    /// Panic unless [`Self::begin_region`] last indexed `region`. Checked unconditionally:
    /// a stale row index would produce silently wrong results.
    pub(crate) fn assert_prepared_for(&self, region: &LocalRegion) {
        assert_eq!(
            self.region_key,
            Some(RegionKey::of(region)),
            "ShiftScratch::begin_region was not called for this region"
        );
    }

    /// Set the phase's membership bitmaps from the point's chains (a cell in both chains
    /// is static, as in the reference) and count what the work profile needs, each cell
    /// once however many target rows list it.
    fn mark(&mut self, problem: &ShiftProblem<'_>, phase: Phase) -> ChainCounts {
        let region = problem.region;
        let target_rows = problem.target_rows();
        let (mover_chain, static_chain) = match phase {
            Phase::Left => (&problem.point.left_chain, &problem.point.right_chain),
            Phase::Right => (&problem.point.right_chain, &problem.point.left_chain),
        };
        // segment rows of `i`, inside or outside the target rows
        let segment_rows = |i: usize, on_target: bool| {
            region.cells[i]
                .rows()
                .filter(|r| target_rows.contains(r) == on_target)
                .filter(|&r| region.segment_index(r).is_some())
                .count() as u64
        };
        let mut counts = ChainCounts::default();
        for &i in static_chain.iter().flatten() {
            if !self.statics[i] {
                self.statics[i] = true;
                let h = region.cells[i].height;
                counts.static_heights += h as u64;
                if h > 3 {
                    counts.static_tall_heights += h as u64;
                }
                counts.static_subcells_off_target += segment_rows(i, false);
            }
        }
        for &i in mover_chain.iter().flatten() {
            if !self.movers[i] {
                self.movers[i] = true;
                if !self.statics[i] {
                    counts.mover_subcells_on_target += segment_rows(i, true);
                }
            }
        }
        counts
    }

    /// Undo one phase run: restore the logged cells' positions and clear the chain cells'
    /// membership bits.
    fn undo(&mut self, problem: &ShiftProblem<'_>) {
        for &i in &self.touched {
            self.pos[i] = problem.region.cells[i].x;
        }
        self.touched.clear();
        let point = problem.point;
        for &i in point.left_chain.iter().chain(&point.right_chain).flatten() {
            self.statics[i] = false;
            self.movers[i] = false;
        }
    }

    /// Fill `out` after a successful run that took `passes` passes.
    fn report(
        &mut self,
        problem: &ShiftProblem<'_>,
        phase: Phase,
        passes: u32,
        counts: ChainCounts,
        out: &mut PhaseMoves,
    ) {
        // the original algorithm: every pass visits every traversal list whole, the
        // non-static subcells of the rows outside the target and the movers' subcells inside
        let target_subcells: u64 = problem
            .target_rows()
            .filter_map(|r| problem.region.segment_index(r))
            .map(|s| self.row_cells.get(s).len() as u64)
            .sum();
        let per_pass = self.subcells - target_subcells - counts.static_subcells_off_target
            + counts.mover_subcells_on_target;
        out.passes = passes;
        out.subcell_visits = passes as u64 * per_pass;
        // SACS: one pass, in which every non-static cell queries a bound per row it spans
        out.sacs = SacsStats {
            sorted_cells: problem.region.cells.len() as u64,
            bound_queries: self.heights - counts.static_heights,
            tall_bound_queries: self.tall_heights - counts.static_tall_heights,
        };
        // the Ahead-Sorter's `(x, index)` order, reversed for the left-move phase
        let cells = &problem.region.cells;
        match phase {
            Phase::Left => self
                .touched
                .sort_unstable_by_key(|&i| std::cmp::Reverse((cells[i].x, i))),
            Phase::Right => self.touched.sort_unstable_by_key(|&i| (cells[i].x, i)),
        }
        out.moved.clear();
        out.moved
            .extend(self.touched.iter().map(|&i| (i, self.pos[i])));
    }
}

/// Run one shifting phase on the scratch and write what it did into `out`: the cells it
/// moved, and the work of both the original algorithm and SACS (see [`PhaseMoves`]).
/// Requires [`ShiftScratch::begin_region`] to have been called for `problem.region`.
///
/// Positions come from the canonical multi-pass fixpoint of [`shift_phase_original`],
/// traversing only unsettled rows (see the module docs); passes, `Err` exits and positions
/// are those of the reference. The original algorithm's `subcell_visits` is counted from the
/// row sizes (passes × traversal-list lengths), the SACS work profile from per-region totals
/// minus the statics.
pub fn shift_phase_with(
    problem: &ShiftProblem<'_>,
    phase: Phase,
    scratch: &mut ShiftScratch,
    out: &mut PhaseMoves,
) -> Result<(), Infeasible> {
    scratch.assert_prepared_for(problem.region);
    let counts = scratch.mark(problem, phase);
    let resolved = resolve_phase_with(problem, phase, scratch);
    if let Ok(passes) = resolved {
        scratch.report(problem, phase, passes, counts, out);
    }
    scratch.undo(problem);
    resolved.map(drop)
}

/// Move cell `i` to `x`: log its first move for the undo and unsettle every row it spans.
fn move_cell(
    region: &LocalRegion,
    pos: &mut [i64],
    touched: &mut Vec<usize>,
    settled: &mut [bool],
    i: usize,
    x: i64,
) {
    // moves are strictly monotone, so a cell at its region x has not moved yet
    if pos[i] == region.cells[i].x {
        touched.push(i);
    }
    pos[i] = x;
    for r in region.cells[i].rows() {
        if let Some(s) = region.segment_index(r) {
            settled[s] = false;
        }
    }
}

/// Run the multi-pass fixpoint of one phase on the marked scratch, leaving the final
/// positions in `scratch.pos` and the moved cells in its undo log. Returns the number of
/// passes.
fn resolve_phase_with(
    problem: &ShiftProblem<'_>,
    phase: Phase,
    scratch: &mut ShiftScratch,
) -> Result<u32, Infeasible> {
    let region = problem.region;
    let n = region.cells.len();
    let ShiftScratch {
        pos,
        statics,
        movers,
        touched,
        row_cells,
        clean,
        settled,
        built,
        traverse,
        static_edges,
        ..
    } = scratch;

    let target_rows = problem.target_rows();
    for (s, seg) in region.segments.iter().enumerate() {
        settled[s] = clean[s] && !target_rows.contains(&seg.row);
        built[s] = false;
    }

    let mut passes = 0u32;
    loop {
        passes += 1;
        let mut finish = true;
        for (s, seg) in region.segments.iter().enumerate() {
            if settled[s] {
                continue;
            }
            settled[s] = true;
            let is_target_row = target_rows.contains(&seg.row);
            let t = traverse.get_mut(s);
            let edges = static_edges.get_mut(s);
            if !built[s] {
                // Traversal membership and static obstacle positions never change within a
                // phase, so they are built once per problem (the reference rebuilds and
                // re-sorts them every pass). Walking the presorted row in phase direction
                // (descending x for Left, ascending for Right) emits both lists already in
                // traversal order. Equal-x static edges may come out in another order than
                // the reference's stable sort, but both folds below consume equal-x edges in
                // the same step, so the bounds are identical.
                built[s] = true;
                t.clear();
                edges.clear();
                let mut classify = |i: usize| {
                    if statics[i] {
                        if !is_target_row {
                            let c = &region.cells[i];
                            edges.push((c.x, c.width));
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
            let edges: &[(i64, i64)] = edges;
            let mut cursor = 0usize;
            // The per-traversal re-sort lets a multi-row cell moved in another row overtake
            // a neighbour here (see `a_multi_row_cell_overtakes_its_neighbour_on_the_second_pass`);
            // on a presorted list it is one comparison per element.
            match phase {
                Phase::Left => {
                    t.sort_by_key(|&i| std::cmp::Reverse((pos[i], i)));
                    let mut bound = if is_target_row {
                        seg.span.hi.min(problem.target_x)
                    } else {
                        seg.span.hi
                    };
                    for &i in t.iter() {
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
                            move_cell(region, pos, touched, settled, i, new_x);
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
                            move_cell(region, pos, touched, settled, i, bound);
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
    Ok(passes)
}

/// Shifting failed: a cell would have to be pushed outside its localSegment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Assert that one [`shift_phase_with`] run on `scratch` gives the dense oracles' answer for
/// `problem`'s `phase`: the moved cells in the order and the work profile of
/// [`shift_phase_sacs_with_stats`](crate::sacs::shift_phase_sacs_with_stats) (every other
/// cell it lists sits at its region x), the passes and subcell visits of
/// [`shift_phase_original`], and their `Err`; and that the run leaves the undo state clear.
#[cfg(test)]
pub(crate) fn assert_scratch_matches_oracles(
    problem: &ShiftProblem<'_>,
    phase: Phase,
    scratch: &mut ShiftScratch,
    label: &str,
) {
    let region = problem.region;
    let want = shift_phase_original(problem, phase).and_then(|original| {
        let (sacs, stats) = crate::sacs::shift_phase_sacs_with_stats(problem, phase)?;
        Ok(PhaseMoves {
            moved: sacs
                .positions
                .into_iter()
                .filter(|&(i, x)| x != region.cells[i].x)
                .collect(),
            passes: original.passes,
            subcell_visits: original.subcell_visits,
            sacs: stats,
        })
    });
    let mut out = PhaseMoves::default();
    let got = shift_phase_with(problem, phase, scratch, &mut out).map(|()| out);
    assert_eq!(got, want, "{label}: {phase:?} phase");
    let clear = scratch.touched.is_empty()
        && !scratch.statics.iter().chain(&scratch.movers).any(|&b| b)
        && scratch
            .pos
            .iter()
            .zip(&region.cells)
            .all(|(&x, c)| x == c.x);
    assert!(clear, "{label}: {phase:?} phase left undo state behind");
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

    const C: usize = 0;
    const E: usize = 1;

    /// C (row 1) and the two-row E (rows 1–2) on three rows; see
    /// `a_multi_row_cell_overtakes_its_neighbour_on_the_second_pass`.
    fn overtake_region() -> LocalRegion {
        let cell = |id, x, y, width, height| LocalCell {
            id: CellId(id),
            x,
            y,
            width,
            height,
            gx: x as f64,
        };
        LocalRegion {
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
        }
    }

    /// The point of `overtake_region` right of E on row 2.
    fn overtake_point(region: &LocalRegion) -> InsertionPoint {
        enumerate_insertion_points(region, 6, 1, None, 4.0, 64)
            .into_iter()
            .find(|p| p.bottom_row == 2 && p.x_lo == 4 && p.left_chain == vec![vec![E]])
            .expect("the point right of E on row 2")
    }

    /// E (rows 1–2) is pushed left of C in row 1 by the target in row 2. The per-pass re-sort
    /// lets E overtake C on the second pass; an order-preserving single pass over the
    /// presorted cells (the paper's Algorithm 4) would keep C left of E, push C to
    /// `0 − 2 = −2` and reject the point. So replacing the per-pass re-sort with the
    /// presorted order changes feasibility, and a single-pass software SACS cannot be
    /// bit-identical to this fixpoint.
    #[test]
    fn a_multi_row_cell_overtakes_its_neighbour_on_the_second_pass() {
        let region = overtake_region();
        let point = overtake_point(&region);
        let problem = ShiftProblem {
            region: &region,
            point: &point,
            target_width: 6,
            target_height: 1,
            target_x: point.x_lo,
        };

        let reference = shift_phase_original(&problem, Phase::Left).expect("feasible");
        let map = reference.as_map();
        assert_eq!(map[&E], 0, "E is pushed to the segment start");
        assert_eq!(map[&C], 8, "C stays put: E passed it");
        assert_eq!(reference.passes, 2);

        let mut scratch = ShiftScratch::default();
        scratch.begin_region(&region);
        let mut out = PhaseMoves::default();
        shift_phase_with(&problem, Phase::Left, &mut scratch, &mut out).expect("feasible");
        assert_eq!(
            out.moved,
            vec![(E, 0)],
            "only E moves; C stays at its region x"
        );
        assert_eq!(out.passes, 2);
        assert_scratch_matches_oracles(&problem, Phase::Left, &mut scratch, "overtake");
    }

    /// One scratch keeps giving the oracles' answers after a phase that returned `Err`
    /// mid-pass (having moved cells), after a phase of the other direction, and after
    /// `begin_region` switched to a region with fewer cells and back.
    #[test]
    fn scratch_undo_state_survives_err_exits_and_region_switches() {
        let fig6 = fig6_region();
        let pts = enumerate_insertion_points(&fig6, 6, 1, None, 15.0, 64);
        let point = pts
            .iter()
            .find(|p| p.bottom_row == 0 && p.left_chain[0].len() == 2)
            .expect("point with two left-chain cells");
        // a is pushed to 3 in row 0 before b runs out of row 1 (see
        // `cascade_feasibility_is_detected_during_shifting`)
        let tight = ShiftProblem {
            region: &fig6,
            point,
            target_width: 6,
            target_height: 1,
            target_x: point.x_lo,
        };
        let relaxed = ShiftProblem {
            target_x: 12,
            ..tight
        };
        let right = ShiftProblem {
            target_x: point.x_hi,
            ..tight
        };
        let overtake = overtake_region();
        let overtake_pt = overtake_point(&overtake);
        let overtake_problem = ShiftProblem {
            region: &overtake,
            point: &overtake_pt,
            target_width: 6,
            target_height: 1,
            target_x: overtake_pt.x_lo,
        };
        assert!(overtake.cells.len() < fig6.cells.len());

        let mut scratch = ShiftScratch::default();
        let mut out = PhaseMoves::default();
        scratch.begin_region(&fig6);
        let got = shift_phase_with(&tight, Phase::Left, &mut scratch, &mut out);
        assert_eq!(got, Err(Infeasible));
        assert_scratch_matches_oracles(&relaxed, Phase::Left, &mut scratch, "after Err");
        assert_scratch_matches_oracles(&tight, Phase::Left, &mut scratch, "Err again");
        assert_scratch_matches_oracles(&right, Phase::Right, &mut scratch, "after Err, right");
        assert_scratch_matches_oracles(&relaxed, Phase::Left, &mut scratch, "after right");
        assert_scratch_matches_oracles(&tight, Phase::Right, &mut scratch, "tight, right");

        scratch.begin_region(&overtake);
        assert_scratch_matches_oracles(&overtake_problem, Phase::Left, &mut scratch, "smaller");
        assert_scratch_matches_oracles(&overtake_problem, Phase::Right, &mut scratch, "smaller");
        scratch.begin_region(&fig6);
        assert_scratch_matches_oracles(&tight, Phase::Left, &mut scratch, "back, Err");
        assert_scratch_matches_oracles(&relaxed, Phase::Left, &mut scratch, "back");
        assert_scratch_matches_oracles(&right, Phase::Right, &mut scratch, "back, right");
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
