//! The [`Design`] container: die, rows, cells and blockages.

use crate::cell::{Cell, CellId};
use crate::geom::{Interval, Rect};
use crate::row::Rail;
use std::convert::Infallible;

/// A complete mixed-cell-height design: a uniform die of rows/sites plus cells and blockages.
///
/// All coordinates are in site/row units (see [`crate::geom`]). The physical site width and row
/// height are retained so that callers can convert displacements back to microns if desired; the
/// paper's `S_am` metric is computed in row-height units, which is what [`crate::metrics`] uses.
#[derive(Debug, Clone)]
pub struct Design {
    /// Human-readable benchmark name (e.g. `des_perf_1`).
    pub name: String,
    /// Number of placement sites per row.
    pub num_sites_x: i64,
    /// Number of rows in the die.
    pub num_rows: i64,
    /// Physical site width (microns); informational only.
    pub site_width: f64,
    /// Physical row height (microns); informational only.
    pub row_height: f64,
    /// Rail polarity at the bottom of row 0.
    pub base_rail: Rail,
    /// All cells (movable and fixed). `cells[i].id == CellId(i)`.
    pub cells: Vec<Cell>,
    /// Rectangular placement blockages (in addition to fixed cells).
    pub blockages: Vec<Rect>,
}

impl Design {
    /// Create an empty design with the given die dimensions.
    pub fn new(name: impl Into<String>, num_sites_x: i64, num_rows: i64) -> Self {
        Self {
            name: name.into(),
            num_sites_x,
            num_rows,
            site_width: 0.2,
            row_height: 2.0,
            base_rail: Rail::Vdd,
            cells: Vec::new(),
            blockages: Vec::new(),
        }
    }

    /// Die bounding box.
    pub fn die(&self) -> Rect {
        Rect::new(0, 0, self.num_sites_x, self.num_rows)
    }

    /// Append a cell, fixing up its id to match its index. Returns the assigned id.
    pub fn add_cell(&mut self, mut cell: Cell) -> CellId {
        let id = CellId(self.cells.len() as u32);
        cell.id = id;
        self.cells.push(cell);
        id
    }

    /// Append a rectangular blockage.
    pub fn add_blockage(&mut self, rect: Rect) {
        self.blockages.push(rect);
    }

    /// Access a cell by id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Mutable access to a cell by id.
    pub fn cell_mut(&mut self, id: CellId) -> &mut Cell {
        &mut self.cells[id.index()]
    }

    /// Ids of all movable cells.
    pub fn movable_ids(&self) -> Vec<CellId> {
        self.cells
            .iter()
            .filter(|c| !c.fixed)
            .map(|c| c.id)
            .collect()
    }

    /// Number of movable cells.
    pub fn num_movable(&self) -> usize {
        self.cells.iter().filter(|c| !c.fixed).count()
    }

    /// Total area of movable cells (site·row units).
    pub fn movable_area(&self) -> i64 {
        self.cells
            .iter()
            .filter(|c| !c.fixed)
            .map(|c| c.area())
            .sum()
    }

    /// Total area blocked by fixed cells and blockages, clipped to the die.
    pub fn blocked_area(&self) -> i64 {
        let die = self.die();
        let fixed: i64 = self
            .cells
            .iter()
            .filter(|c| c.fixed)
            .map(|c| c.rect().overlap_area(&die))
            .sum();
        let blk: i64 = self.blockages.iter().map(|b| b.overlap_area(&die)).sum();
        fixed + blk
    }

    /// Free (placeable) area of the die.
    pub fn free_area(&self) -> i64 {
        (self.die().area() - self.blocked_area()).max(0)
    }

    /// Design density: movable area / free area (the `Den.(%)` column of Table 1).
    pub fn density(&self) -> f64 {
        let free = self.free_area();
        if free == 0 {
            return f64::INFINITY;
        }
        self.movable_area() as f64 / free as f64
    }

    /// Blocked site intervals in row `row` coming from fixed cells and blockages.
    pub fn blocked_intervals(&self, row: i64) -> Vec<Interval> {
        blocked_in_row(&self.blockers_in_rows(row, row + 1), row).collect()
    }

    /// Rectangles of the fixed cells (in design order), then of the blockages, that touch
    /// rows `[row_lo, row_hi)`: one pass over the design collects everything
    /// [`Design::blocked_intervals`] reports for any row of the band, in the same order.
    pub fn blockers_in_rows(&self, row_lo: i64, row_hi: i64) -> Vec<Rect> {
        let band = Interval::new(row_lo, row_hi);
        self.cells
            .iter()
            .filter(|c| c.fixed)
            .map(|c| c.rect())
            .chain(self.blockages.iter().copied())
            .filter(|r| r.y_interval().overlaps(&band))
            .collect()
    }

    /// Free (unblocked) site intervals in row `row`, sorted left to right.
    ///
    /// Only fixed cells and blockages block a row — movable cells live *inside* the free
    /// intervals and become `localCells` of the MGL algorithm.
    pub fn free_intervals(&self, row: i64) -> Vec<Interval> {
        let mut free = Vec::new();
        free_among(
            self.num_sites_x,
            &mut self.blocked_intervals(row),
            &mut free,
        );
        free
    }

    /// [`Design::free_intervals`] of every row in `[row_lo, row_hi)`, in row order. The band's
    /// blockers are collected once, so `k` rows cost one pass over the design plus `k`
    /// passes over those blockers instead of `k` passes over the design.
    pub fn free_intervals_in_rows(&self, row_lo: i64, row_hi: i64) -> Vec<Vec<Interval>> {
        let mut rows = Vec::with_capacity((row_hi - row_lo).max(0) as usize);
        let Ok(()) = self.try_for_each_free_row(row_lo, row_hi, |_, free| {
            rows.push(free.to_vec());
            Ok::<(), Infallible>(())
        });
        rows
    }

    /// Visit [`Design::free_intervals`] of every row in `[row_lo, row_hi)`, in row order,
    /// stopping at the first `Err`. The band's blockers are collected once and the two
    /// per-row buffers are reused, so `k` rows cost one pass over the design plus `k`
    /// passes over those blockers, with no allocation per row or per blocker.
    pub(crate) fn try_for_each_free_row<E>(
        &self,
        row_lo: i64,
        row_hi: i64,
        mut visit: impl FnMut(i64, &[Interval]) -> Result<(), E>,
    ) -> Result<(), E> {
        let blockers = self.blockers_in_rows(row_lo, row_hi);
        let (mut blocked, mut free) = (Vec::new(), Vec::new());
        for row in row_lo..row_hi {
            blocked.clear();
            blocked.extend(blocked_in_row(&blockers, row));
            free_among(self.num_sites_x, &mut blocked, &mut free);
            visit(row, &free)?;
        }
        Ok(())
    }

    /// Snap every movable cell to the nearest legal-parity row and clamp it inside the die.
    ///
    /// This is step (a) "input & pre-move" of the legalization flow (Fig. 3(e)): cells are
    /// temporarily positioned in the nearest designated rows while tolerating overlaps.
    pub fn pre_move(&mut self) {
        let num_rows = self.num_rows;
        let num_sites = self.num_sites_x;
        for c in &mut self.cells {
            if c.fixed {
                continue;
            }
            pre_move_one(c, num_sites, num_rows);
        }
    }

    /// Snap a single movable cell to the nearest legal-parity row and clamp it inside the
    /// die — the per-cell step of [`Design::pre_move`]. The ECO engine uses it to re-seed a
    /// cell whose desired position changed without disturbing any other cell. No-op for
    /// fixed cells.
    pub fn pre_move_cell(&mut self, id: CellId) {
        let num_rows = self.num_rows;
        let num_sites = self.num_sites_x;
        let c = &mut self.cells[id.index()];
        if !c.fixed {
            pre_move_one(c, num_sites, num_rows);
        }
    }

    /// Retire a movable cell in place: it becomes a zero-area fixed marker that occupies no
    /// sites, blocks no rows and contributes nothing to legality, density or displacement.
    ///
    /// [`Design::cells`] is index-addressed (`cells[i].id == CellId(i)`), so a cell can
    /// never be physically removed without renumbering every later id; an ECO
    /// `RemoveCell` instead leaves this tombstone behind. Zero-area fixed cells are inert
    /// everywhere by construction — an empty rect overlaps nothing, spans no rows and has
    /// no blocked intervals — and [`Design::validate_invariants`] accepts them explicitly.
    pub fn tombstone_cell(&mut self, id: CellId) {
        let c = &mut self.cells[id.index()];
        c.width = 0;
        c.height = 0;
        c.fixed = true;
        c.legalized = true;
        c.row_parity = None;
        // zero displacement so metrics over the full cell vector stay unaffected
        c.gx = c.x as f64;
        c.gy = c.y as f64;
    }

    /// Cheap structural sanity check: ids match indices (hence no duplicates), dimensions
    /// are positive (zero-area fixed tombstones excepted — see
    /// [`Design::tombstone_cell`]), and every legalized movable cell lies on rows that
    /// exist. O(cells), no overlap detection — run [`crate::legality::check_legality_with`] for
    /// the full check. The ECO service calls this at its request boundary so a malformed
    /// client delta surfaces as a typed error instead of corrupting the resident state.
    pub fn validate_invariants(&self) -> Result<(), String> {
        if self.num_sites_x <= 0 || self.num_rows <= 0 {
            return Err(format!(
                "empty die: {} sites x {} rows",
                self.num_sites_x, self.num_rows
            ));
        }
        for (i, c) in self.cells.iter().enumerate() {
            if c.id.index() != i {
                return Err(format!(
                    "cell at index {i} carries id {} (duplicate or stale id)",
                    c.id
                ));
            }
            if c.fixed && c.width == 0 && c.height == 0 {
                continue; // tombstone
            }
            if c.width <= 0 || c.height <= 0 {
                return Err(format!(
                    "cell {} has non-positive size {}x{}",
                    c.id, c.width, c.height
                ));
            }
            if !c.fixed && c.legalized {
                if c.y < 0 || c.y + c.height > self.num_rows {
                    return Err(format!(
                        "legalized cell {} occupies rows [{}, {}) outside the {}-row die",
                        c.id,
                        c.y,
                        c.y + c.height,
                        self.num_rows
                    ));
                }
                if c.x < 0 || c.x + c.width > self.num_sites_x {
                    return Err(format!(
                        "legalized cell {} occupies sites [{}, {}) outside the {}-site die",
                        c.id,
                        c.x,
                        c.x + c.width,
                        self.num_sites_x
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The x spans of the `blockers` that cover `row`, in blocker order.
fn blocked_in_row(blockers: &[Rect], row: i64) -> impl Iterator<Item = Interval> + '_ {
    blockers
        .iter()
        .filter(move |b| b.y_interval().contains(row))
        .map(|b| b.x_interval())
}

/// The sites `[0, num_sites)` minus `blocked` (one row's blocked intervals), written to
/// `free` as sorted, disjoint, non-empty intervals: one sort and one sweep. Blockers are
/// clipped to the die, and a zero-width blocker strictly inside a free run splits it, so
/// the result is exactly what subtracting the blockers one by one with
/// [`Interval::subtract`] leaves.
fn free_among(num_sites: i64, blocked: &mut [Interval], free: &mut Vec<Interval>) {
    blocked.sort_unstable_by_key(|iv| iv.lo);
    free.clear();
    // every site from `start` on is clear of the blockers swept so far
    let mut start = 0;
    for b in blocked.iter() {
        if b.lo >= num_sites {
            break;
        }
        if b.lo > start {
            free.push(Interval::new(start, b.lo));
        }
        start = start.max(b.hi);
    }
    if start < num_sites {
        free.push(Interval::new(start, num_sites));
    }
}

/// The per-cell body of [`Design::pre_move`] / [`Design::pre_move_cell`].
fn pre_move_one(c: &mut Cell, num_sites: i64, num_rows: i64) {
    let max_row = (num_rows - c.height).max(0);
    let mut row = c.gy.round() as i64;
    row = row.clamp(0, max_row);
    if !c.parity_ok(row) {
        // move to the nearest row of the right parity, preferring the closer side
        let down = row - 1;
        let up = row + 1;
        row = if down >= 0 && (c.gy - down as f64).abs() <= (up as f64 - c.gy).abs() {
            down
        } else if up <= max_row {
            up
        } else {
            (down).max(0)
        };
        row = row.clamp(0, max_row);
    }
    let max_x = (num_sites - c.width).max(0);
    c.x = (c.gx.round() as i64).clamp(0, max_x);
    c.y = row;
    c.legalized = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_design() -> Design {
        let mut d = Design::new("t", 100, 10);
        d.add_cell(Cell::movable(CellId(0), 4, 1, 10.3, 2.2));
        d.add_cell(Cell::movable(CellId(0), 6, 2, 50.7, 4.8));
        d.add_cell(Cell::fixed(CellId(0), 10, 3, 40, 0));
        d.add_blockage(Rect::new(0, 9, 100, 10));
        d
    }

    #[test]
    fn add_cell_reassigns_ids() {
        let d = small_design();
        assert_eq!(d.cells[0].id, CellId(0));
        assert_eq!(d.cells[1].id, CellId(1));
        assert_eq!(d.cells[2].id, CellId(2));
        assert_eq!(d.num_movable(), 2);
        let fixed: Vec<CellId> = d.cells.iter().filter(|c| c.fixed).map(|c| c.id).collect();
        assert_eq!(fixed, vec![CellId(2)]);
    }

    #[test]
    fn free_intervals_subtract_fixed_and_blockages() {
        let d = small_design();
        // row 1 crosses the fixed macro at x in [40, 50)
        assert_eq!(
            d.free_intervals(1),
            vec![Interval::new(0, 40), Interval::new(50, 100)]
        );
        // row 5 is unblocked
        assert_eq!(d.free_intervals(5), vec![Interval::new(0, 100)]);
        // row 9 is fully covered by the blockage
        assert_eq!(d.free_intervals(9), vec![]);
    }

    #[test]
    fn free_intervals_in_rows_matches_per_row_query() {
        let mut d = small_design();
        d.add_cell(Cell::fixed(CellId(0), 8, 4, 60, 2));
        d.add_blockage(Rect::new(55, 1, 58, 6));
        d.add_cell(Cell::fixed(CellId(0), 5, 2, 57, 4)); // overlaps the blockage
        for (lo, hi) in [(0, 10), (1, 3), (2, 7), (8, 10), (4, 4)] {
            let band = d.free_intervals_in_rows(lo, hi);
            assert_eq!(band.len(), (hi - lo) as usize);
            for (row, free) in (lo..).zip(band) {
                assert_eq!(
                    free,
                    d.free_intervals(row),
                    "row {row} of band [{lo}, {hi})"
                );
            }
        }
    }

    #[test]
    fn free_sweep_differential_matches_subtract_on_degenerate_blockers() {
        use crate::test_support::free_among_by_subtract;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let sweep = |num_sites: i64, blocked: &[Interval]| {
            let mut free = Vec::new();
            free_among(num_sites, &mut blocked.to_vec(), &mut free);
            free
        };
        let iv = |lo, hi| Interval { lo, hi };
        let cases: Vec<Vec<Interval>> = vec![
            vec![],
            // zero-width: strictly inside, at either die edge, beyond either die edge
            vec![iv(5, 5)],
            vec![iv(0, 0), iv(20, 20)],
            vec![iv(-3, -3), iv(25, 25)],
            vec![iv(5, 5), iv(5, 5), iv(7, 7)],
            // zero-width at the edge of, inside, and tied with a real blocker
            vec![iv(4, 9), iv(4, 4), iv(9, 9), iv(6, 6)],
            vec![iv(4, 4), iv(4, 9)],
            // overlapping, nested and duplicate blockers
            vec![iv(2, 8), iv(5, 12), iv(6, 7), iv(2, 8)],
            vec![iv(3, 6), iv(6, 9)],
            // beyond either die edge, straddling both, covering everything
            vec![iv(-5, 2), iv(18, 30)],
            vec![iv(-5, -1), iv(20, 30), iv(40, 50)],
            vec![iv(-5, 30)],
        ];
        for blocked in &cases {
            for num_sites in [-3, 0, 1, 6, 20] {
                assert_eq!(
                    sweep(num_sites, blocked),
                    free_among_by_subtract(num_sites, blocked.clone()),
                    "{num_sites} sites minus {blocked:?}"
                );
            }
        }
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..5_000 {
            let num_sites = rng.random_range(0..40i64);
            let blocked: Vec<Interval> = (0..rng.random_range(0..8u32))
                .map(|_| {
                    let lo = rng.random_range(-6..num_sites + 6);
                    Interval::new(lo, lo + rng.random_range(-2..12i64))
                })
                .collect();
            assert_eq!(
                sweep(num_sites, &blocked),
                free_among_by_subtract(num_sites, blocked.clone()),
                "{num_sites} sites minus {blocked:?}"
            );
        }
    }

    #[test]
    fn free_sweep_differential_matches_subtract_on_random_designs() {
        use crate::test_support::{free_among_by_subtract, random_design};
        for seed in 0..200 {
            let d = random_design(seed);
            let want: Vec<Vec<Interval>> = (-2..d.num_rows + 2)
                .map(|row| free_among_by_subtract(d.num_sites_x, d.blocked_intervals(row)))
                .collect();
            let per_row: Vec<Vec<Interval>> = (-2..d.num_rows + 2)
                .map(|row| d.free_intervals(row))
                .collect();
            assert_eq!(per_row, want, "seed {seed}");
            assert_eq!(
                d.free_intervals_in_rows(-2, d.num_rows + 2),
                want,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn density_and_areas() {
        let d = small_design();
        assert_eq!(d.movable_area(), 4 + 12);
        assert_eq!(d.blocked_area(), 30 + 100);
        assert_eq!(d.free_area(), 1000 - 130);
        assert!((d.density() - 16.0 / 870.0).abs() < 1e-12);
    }

    #[test]
    fn pre_move_snaps_and_respects_parity() {
        let mut d = small_design();
        d.pre_move();
        let c0 = &d.cells[0];
        assert_eq!((c0.x, c0.y), (10, 2));
        let c1 = &d.cells[1];
        // height-2 cell with gy=4.8 → parity of round(4.8)=5 → odd rows required
        assert_eq!(c1.row_parity, Some(1));
        assert!(c1.parity_ok(c1.y));
        assert!(c1.y >= 0 && c1.y + c1.height <= d.num_rows);
    }

    #[test]
    fn pre_move_clamps_to_die() {
        let mut d = Design::new("clamp", 20, 4);
        d.add_cell(Cell::movable(CellId(0), 5, 1, 18.9, 3.7));
        d.add_cell(Cell::movable(CellId(0), 5, 3, -3.0, -2.0));
        d.pre_move();
        let c0 = &d.cells[0];
        assert!(c0.x + c0.width <= 20);
        assert!(c0.y + c0.height <= 4);
        let c1 = &d.cells[1];
        assert_eq!((c1.x, c1.y), (0, 0));
    }

    #[test]
    fn overlap_area_counts_movable_pairs() {
        let mut d = Design::new("ov", 20, 2);
        d.add_cell(Cell::fixed(CellId(0), 4, 1, 0, 0));
        d.add_cell(Cell::movable(CellId(0), 4, 1, 2.0, 0.0));
        d.add_cell(Cell::movable(CellId(0), 4, 1, 4.0, 0.0));
        // cells at x=2..6 and x=4..8 overlap by 2; fixed at 0..4 overlaps first movable by 2
        let report = crate::legality::check_legality_with(&d, false);
        assert_eq!(report.overlap_area, 2 + 2);
    }
}
