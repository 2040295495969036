//! Bin-based density maps.
//!
//! The sliding-window processing ordering of FLEX (Sec. 3.1.2) prioritizes target cells whose
//! *localRegion* is denser; the global-placement simulator also uses a density map to spread
//! cells. Both need a cheap "how full is this area of the die" query, which this module provides
//! via a uniform grid of bins accumulating cell area.

use crate::census::RowCensus;
use crate::geom::Rect;
use crate::layout::Design;

/// The slot [`BinRows`] gives a bin row outside the audited ones.
const UNAUDITED: u32 = u32::MAX;

/// A uniform grid of density bins over the die.
#[derive(Debug, Clone)]
pub struct DensityMap {
    bin_w: i64,
    bin_h: i64,
    nx: usize,
    ny: usize,
    /// Die rectangle; every contributing rectangle is clipped to it, so area outside the
    /// die never counts as occupancy (the last bin row/column may extend past the die).
    die: Rect,
    /// Occupied area per bin (movable + fixed + blockage), in site·row units.
    occupied: Vec<f64>,
    /// Free capacity per bin (bin area minus fixed/blockage area).
    capacity: Vec<f64>,
}

impl DensityMap {
    /// Build a density map with bins of `bin_w × bin_h` sites/rows.
    pub fn build(design: &Design, bin_w: i64, bin_h: i64) -> Self {
        let bin_w = bin_w.max(1);
        let bin_h = bin_h.max(1);
        let nx = ((design.num_sites_x + bin_w - 1) / bin_w).max(1) as usize;
        let ny = ((design.num_rows + bin_h - 1) / bin_h).max(1) as usize;
        let mut map = Self {
            bin_w,
            bin_h,
            nx,
            ny,
            die: design.die(),
            occupied: vec![0.0; nx * ny],
            capacity: vec![0.0; nx * ny],
        };
        // capacity starts as the geometric bin area clipped to the die
        let die = map.die;
        for by in 0..ny {
            for bx in 0..nx {
                let r = map.bin_rect(bx, by).intersect(&die);
                map.capacity[by * nx + bx] = r.area().max(0) as f64;
            }
        }
        // fixed cells and blockages consume capacity
        for c in design.cells.iter().filter(|c| c.fixed) {
            map.splat(&c.rect(), |cap, area| *cap -= area, true);
        }
        for b in &design.blockages {
            map.splat(b, |cap, area| *cap -= area, true);
        }
        for cap in &mut map.capacity {
            *cap = cap.max(0.0);
        }
        // movable cells occupy
        for c in design.cells.iter().filter(|c| !c.fixed) {
            map.add_rect(&c.rect());
        }
        map
    }

    fn bin_rect(&self, bx: usize, by: usize) -> Rect {
        Rect::new(
            bx as i64 * self.bin_w,
            by as i64 * self.bin_h,
            (bx as i64 + 1) * self.bin_w,
            (by as i64 + 1) * self.bin_h,
        )
    }

    fn bin_range(&self, rect: &Rect) -> (usize, usize, usize, usize) {
        let bx0 = (rect.x_lo.div_euclid(self.bin_w)).clamp(0, self.nx as i64 - 1) as usize;
        let by0 = (rect.y_lo.div_euclid(self.bin_h)).clamp(0, self.ny as i64 - 1) as usize;
        let bx1 = ((rect.x_hi - 1).div_euclid(self.bin_w)).clamp(0, self.nx as i64 - 1) as usize;
        let by1 = ((rect.y_hi - 1).div_euclid(self.bin_h)).clamp(0, self.ny as i64 - 1) as usize;
        (bx0, by0, bx1, by1)
    }

    /// Apply `apply` to every bin a rectangle touches, weighted by overlap area. The
    /// rectangle is clipped to the die first: a rect that falls partially (or fully)
    /// outside the die bounds — e.g. an ECO delta whose desired position hangs past the die
    /// edge — only contributes its in-die area, matching what a full rebuild would count.
    fn splat(&mut self, rect: &Rect, apply: impl Fn(&mut f64, f64), to_capacity: bool) {
        let rect = &rect.intersect(&self.die);
        if rect.is_empty() {
            return;
        }
        let (bx0, by0, bx1, by1) = self.bin_range(rect);
        for by in by0..=by1 {
            for bx in bx0..=bx1 {
                let area = self.bin_rect(bx, by).overlap_area(rect) as f64;
                if area > 0.0 {
                    let idx = by * self.nx + bx;
                    if to_capacity {
                        apply(&mut self.capacity[idx], area);
                    } else {
                        apply(&mut self.occupied[idx], area);
                    }
                }
            }
        }
    }

    /// Add a movable cell's rectangle to the occupancy.
    pub fn add_rect(&mut self, rect: &Rect) {
        self.splat(rect, |occ, a| *occ += a, false);
    }

    /// Remove a movable cell's rectangle from the occupancy.
    pub fn remove_rect(&mut self, rect: &Rect) {
        self.splat(rect, |occ, a| *occ -= a, false);
    }

    /// Apply one commit delta incrementally: a movable cell moved from `old` to `new`.
    ///
    /// Equivalent to (but much cheaper than) rebuilding the map after the move; only the
    /// bins the two rectangles touch change. Both rectangles are clipped to the die bounds
    /// (see [`DensityMap::add_rect`]), so a rect falling partially outside the die stays
    /// consistent with a full rebuild. The ECO engine keeps its resident map current with
    /// it. The MGL legalizers deliberately do **not** call it: their sliding-window ordering
    /// reads the map as built before the first commit, which is what lets them compute the
    /// whole order up front (see `flex_mgl::ordering::processing_order`).
    pub fn apply_move(&mut self, old: &Rect, new: &Rect) {
        self.remove_rect(old);
        self.add_rect(new);
    }

    /// Grid dimensions (bins in x, bins in y).
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Density (occupied / capacity) of the bin containing site/row `(x, y)`.
    pub fn density_at(&self, x: i64, y: i64) -> f64 {
        let bx = x.div_euclid(self.bin_w).clamp(0, self.nx as i64 - 1) as usize;
        let by = y.div_euclid(self.bin_h).clamp(0, self.ny as i64 - 1) as usize;
        let idx = by * self.nx + bx;
        if self.capacity[idx] <= 0.0 {
            1.0
        } else {
            self.occupied[idx] / self.capacity[idx]
        }
    }

    /// Average density of all bins a rectangle touches, weighted by overlap area.
    pub fn density_in(&self, rect: &Rect) -> f64 {
        if rect.is_empty() {
            return 0.0;
        }
        let (bx0, by0, bx1, by1) = self.bin_range(rect);
        let mut occ = 0.0;
        let mut cap = 0.0;
        for by in by0..=by1 {
            for bx in bx0..=bx1 {
                let overlap = self.bin_rect(bx, by).overlap_area(rect) as f64;
                if overlap <= 0.0 {
                    continue;
                }
                let idx = by * self.nx + bx;
                let bin_cap = self.capacity[idx];
                let bin_area = self.bin_rect(bx, by).area() as f64;
                let frac = overlap / bin_area;
                occ += self.occupied[idx] * frac;
                cap += bin_cap * frac;
            }
        }
        if cap <= 0.0 {
            1.0
        } else {
            occ / cap
        }
    }

    /// Bin size in (sites, rows), the grid a [`RowCensus`] for this map's audit is gathered
    /// on.
    pub fn bin_size(&self) -> (i64, i64) {
        (self.bin_w, self.bin_h)
    }

    /// Audit the bins covering the census's rows against `design`, which the census was
    /// gathered from on this map's [`DensityMap::bin_size`]: recompute each covered bin's
    /// capacity (geometric area minus fixed cells and blockages, clamped at zero) and
    /// occupancy (every movable cell's in-die overlap, summed by the census) exactly the way
    /// [`DensityMap::build`] does, and compare. All contributions are integer site·row
    /// areas, so they are summed as exact integers, which equal the map's `f64` sums
    /// regardless of accumulation order — the comparison uses a tiny epsilon only as slack
    /// against future fractional areas. `Err` names the first diverging bin (by bin row,
    /// then column) — the invariant-scrubber's typed corruption evidence. Reads no cell:
    /// O(audited bins + the census's blockers).
    pub fn audit(&self, design: &Design, census: &RowCensus) -> Result<(), String> {
        let die = design.die();
        let nx = ((design.num_sites_x + self.bin_w - 1) / self.bin_w).max(1) as usize;
        let ny = ((design.num_rows + self.bin_h - 1) / self.bin_h).max(1) as usize;
        if (nx, ny) != (self.nx, self.ny) || die != self.die {
            return Err(format!(
                "grid shape diverges: {}x{} bins over {:?}, design wants {nx}x{ny} over {die:?}",
                self.nx, self.ny, self.die
            ));
        }
        let bins = &census.bins;
        debug_assert_eq!(bins.bin_size(), self.bin_size(), "census of another grid");
        // capacity starts as the geometric bin area clipped to the die, then fixed cells
        // and blockages consume it
        let mut cap = vec![0i64; bins.len()];
        bins.splat(&mut cap, &die, 1);
        for b in &census.blockers {
            bins.splat(&mut cap, b, -1);
        }
        for (slot, &by) in bins.audited.iter().enumerate() {
            for bx in 0..nx {
                let want_occ = census.occupied[slot * nx + bx] as f64;
                let want_cap = cap[slot * nx + bx].max(0) as f64;
                let idx = by * nx + bx;
                if (self.occupied[idx] - want_occ).abs() > 1e-6
                    || (self.capacity[idx] - want_cap).abs() > 1e-6
                {
                    return Err(format!(
                        "bin ({bx},{by}) diverges from the design: occupied {} vs {want_occ}, \
                         capacity {} vs {want_cap}",
                        self.occupied[idx], self.capacity[idx]
                    ));
                }
            }
        }
        Ok(())
    }

    /// The maximum bin density in the map.
    pub fn max_density(&self) -> f64 {
        let mut max = 0.0f64;
        for i in 0..self.occupied.len() {
            let d = if self.capacity[i] <= 0.0 {
                if self.occupied[i] > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                }
            } else {
                self.occupied[i] / self.capacity[i]
            };
            max = max.max(d);
        }
        max
    }
}

/// The density bin rows covering a [`RowCensus`]'s rows, as an integer accumulation grid of
/// `len()` bins: one slot of `nx` bins per audited bin row, in ascending bin-row order.
/// Lookup tables from site to bin column, from row to bin row and from bin row to slot
/// locate a rectangle without division.
#[derive(Debug)]
pub(crate) struct BinRows {
    bin_w: i64,
    bin_h: i64,
    nx: usize,
    /// The design's die; every splatted rectangle is clipped to it.
    die: Rect,
    /// Bin column of each site of the die.
    col_of: Vec<u32>,
    /// Bin row of each row of the die.
    row_of: Vec<u32>,
    /// Slot of each bin row among the audited ones, or [`UNAUDITED`].
    slot_of: Vec<u32>,
    /// Rows before each row `0..=num_rows` that lie in an audited bin row.
    audited_before: Vec<u32>,
    /// The audited bin rows, ascending; `audited[slot]` is the bin row of `slot`.
    audited: Vec<usize>,
}

impl BinRows {
    /// The bin rows of a `bin_size` grid over `design`'s die that cover `ranges` (sorted,
    /// disjoint rows inside the die).
    pub(crate) fn new(design: &Design, bin_size: (i64, i64), ranges: &[(i64, i64)]) -> Self {
        let (bin_w, bin_h) = (bin_size.0.max(1), bin_size.1.max(1));
        let nx = ((design.num_sites_x + bin_w - 1) / bin_w).max(1) as usize;
        let ny = ((design.num_rows + bin_h - 1) / bin_h).max(1) as usize;
        let table = |len: i64, bin: i64| -> Vec<u32> {
            let mut table = vec![0; len.max(0) as usize];
            for (b, entries) in table.chunks_mut(bin as usize).enumerate() {
                entries.fill(b as u32);
            }
            table
        };
        let (col_of, row_of) = (
            table(design.num_sites_x, bin_w),
            table(design.num_rows, bin_h),
        );
        let mut slot_of = vec![UNAUDITED; ny];
        for &(lo, hi) in ranges {
            let (b0, b1) = (
                row_of[lo as usize] as usize,
                row_of[hi as usize - 1] as usize,
            );
            slot_of[b0..=b1].fill(0);
        }
        let mut audited = Vec::new();
        for (by, slot) in slot_of.iter_mut().enumerate() {
            if *slot != UNAUDITED {
                *slot = audited.len() as u32;
                audited.push(by);
            }
        }
        let audited_before = std::iter::once(0)
            .chain(row_of.iter().scan(0, |before, &by| {
                *before += u32::from(slot_of[by as usize] != UNAUDITED);
                Some(*before)
            }))
            .collect();
        Self {
            bin_w,
            bin_h,
            nx,
            die: design.die(),
            col_of,
            row_of,
            slot_of,
            audited_before,
            audited,
        }
    }

    /// Bins in the grid.
    pub(crate) fn len(&self) -> usize {
        self.audited.len() * self.nx
    }

    /// Bin size in (sites, rows).
    fn bin_size(&self) -> (i64, i64) {
        (self.bin_w, self.bin_h)
    }

    /// Whether the rows `[lo, hi)` (`0 <= lo, hi <= num_rows`; empty when `hi <= lo`)
    /// touch an audited bin row: two table loads, no branch.
    pub(crate) fn touches(&self, lo: i64, hi: i64) -> bool {
        self.audited_before[hi as usize] > self.audited_before[lo as usize]
    }

    /// Add `sign` × the overlap of `rect` (clipped to the die) to every audited bin it
    /// touches.
    pub(crate) fn splat(&self, bins: &mut [i64], rect: &Rect, sign: i64) {
        let r = rect.intersect(&self.die);
        if r.is_empty() {
            return;
        }
        let (bx0, bx1) = (
            self.col_of[r.x_lo as usize] as usize,
            self.col_of[r.x_hi as usize - 1] as usize,
        );
        let (b0, b1) = (
            self.row_of[r.y_lo as usize] as usize,
            self.row_of[r.y_hi as usize - 1] as usize,
        );
        for by in b0..=b1 {
            let slot = self.slot_of[by];
            if slot == UNAUDITED {
                continue;
            }
            let bin_y = by as i64 * self.bin_h;
            let rows = r.y_hi.min(bin_y + self.bin_h) - r.y_lo.max(bin_y);
            for bx in bx0..=bx1 {
                let bin_x = bx as i64 * self.bin_w;
                let sites = r.x_hi.min(bin_x + self.bin_w) - r.x_lo.max(bin_x);
                bins[slot as usize * self.nx + bx] += sign * sites * rows;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellId};

    fn design() -> Design {
        let mut d = Design::new("den", 40, 8);
        d.add_cell(Cell::movable(CellId(0), 10, 2, 0.0, 0.0));
        d.add_cell(Cell::movable(CellId(0), 10, 2, 5.0, 1.0));
        d.add_cell(Cell::fixed(CellId(0), 20, 4, 20, 4));
        d
    }

    #[test]
    fn build_accounts_fixed_as_capacity_loss() {
        let d = design();
        let map = DensityMap::build(&d, 10, 4);
        // the bins covering the fixed macro have zero capacity → density 1.0
        assert_eq!(map.density_at(25, 6), 1.0);
        // bottom-left corner holds two 10x2 movable cells overlapping partially
        assert!(map.density_at(0, 0) > 0.0);
    }

    #[test]
    fn add_remove_roundtrip() {
        let d = design();
        let mut map = DensityMap::build(&d, 10, 4);
        let before = map.density_at(0, 0);
        let r = Rect::from_size(0, 0, 5, 2);
        map.add_rect(&r);
        assert!(map.density_at(0, 0) > before);
        map.remove_rect(&r);
        assert!((map.density_at(0, 0) - before).abs() < 1e-9);
    }

    #[test]
    fn density_in_window_is_between_zero_and_max() {
        let d = design();
        let map = DensityMap::build(&d, 10, 4);
        let win = Rect::new(0, 0, 20, 4);
        let dens = map.density_in(&win);
        assert!(dens > 0.0);
        assert!(dens <= map.max_density() + 1e-9);
        assert_eq!(map.density_in(&Rect::new(0, 0, 0, 0)), 0.0);
    }

    #[test]
    fn dims_cover_die() {
        let d = design();
        let map = DensityMap::build(&d, 16, 3);
        let (nx, ny) = map.dims();
        assert_eq!(nx, 3); // ceil(40/16)
        assert_eq!(ny, 3); // ceil(8/3)
    }

    #[test]
    fn apply_move_matches_rebuild() {
        let mut d = design();
        let mut map = DensityMap::build(&d, 10, 4);
        // move the first movable cell and compare the incremental delta to a full rebuild
        let old = d.cells[0].rect();
        d.cells[0].x = 25;
        d.cells[0].y = 4;
        let new = d.cells[0].rect();
        map.apply_move(&old, &new);
        let rebuilt = DensityMap::build(&d, 10, 4);
        let (nx, ny) = map.dims();
        for by in 0..ny {
            for bx in 0..nx {
                let x = bx as i64 * 10;
                let y = by as i64 * 4;
                assert!(
                    (map.density_at(x, y) - rebuilt.density_at(x, y)).abs() < 1e-9,
                    "bin ({bx},{by}) diverged after apply_move"
                );
            }
        }
    }

    #[test]
    fn apply_move_clamps_out_of_bounds_rects_to_the_die() {
        // regression: a new rect hanging past the die edge (or fully outside) must leave the
        // map identical to a full rebuild of the mutated design — before the clamp, the
        // off-die slice that landed inside the last (die-overhanging) bin was double-counted
        // relative to the capacity, which only ever counts in-die area
        let mut d = design();
        let mut map = DensityMap::build(&d, 10, 4);
        let old = d.cells[0].rect();
        // hang 6 of 10 sites past the right die edge and one row below the die
        d.cells[0].x = 36;
        d.cells[0].y = -1;
        let new = d.cells[0].rect();
        map.apply_move(&old, &new);
        let rebuilt = DensityMap::build(&d, 10, 4);
        let (nx, ny) = map.dims();
        for by in 0..ny {
            for bx in 0..nx {
                let (x, y) = (bx as i64 * 10, by as i64 * 4);
                assert!(
                    (map.density_at(x, y) - rebuilt.density_at(x, y)).abs() < 1e-9,
                    "bin ({bx},{by}) diverged after out-of-bounds apply_move"
                );
            }
        }
        // and moving it back restores the original map exactly (clip symmetry)
        map.apply_move(&new, &old);
        d.cells[0].x = old.x_lo;
        d.cells[0].y = old.y_lo;
        let restored = DensityMap::build(&d, 10, 4);
        for by in 0..ny {
            for bx in 0..nx {
                let (x, y) = (bx as i64 * 10, by as i64 * 4);
                assert!((map.density_at(x, y) - restored.density_at(x, y)).abs() < 1e-9);
            }
        }
    }

    /// The allocating per-range audit the census audit replaced, kept as its oracle: a
    /// `Rect` per bin and `f64` sums, splatting through [`DensityMap::bin_range`].
    fn audit_rows_by_rect_splat(
        map: &DensityMap,
        design: &Design,
        row_lo: i64,
        row_hi: i64,
    ) -> Result<(), String> {
        use crate::geom::Interval;
        let die = design.die();
        let nx = ((design.num_sites_x + map.bin_w - 1) / map.bin_w).max(1) as usize;
        let ny = ((design.num_rows + map.bin_h - 1) / map.bin_h).max(1) as usize;
        if (nx, ny) != (map.nx, map.ny) || die != map.die {
            return Err(format!(
                "grid shape diverges: {}x{} bins over {:?}, design wants {nx}x{ny} over {die:?}",
                map.nx, map.ny, map.die
            ));
        }
        let by0 = row_lo
            .clamp(0, design.num_rows.max(1) - 1)
            .div_euclid(map.bin_h) as usize;
        let by1 = (row_hi - 1)
            .clamp(0, design.num_rows.max(1) - 1)
            .div_euclid(map.bin_h) as usize;
        if row_lo >= row_hi {
            return Ok(());
        }
        let bins = nx * (by1 - by0 + 1);
        let mut occ = vec![0.0f64; bins];
        let mut cap = vec![0.0f64; bins];
        for by in by0..=by1 {
            for bx in 0..nx {
                cap[(by - by0) * nx + bx] =
                    map.bin_rect(bx, by).intersect(&die).area().max(0) as f64;
            }
        }
        let splat_into = |bins: &mut [f64], rect: &Rect, sign: f64| {
            let rect = rect.intersect(&die);
            if rect.is_empty() {
                return;
            }
            let (bx0, ry0, bx1, ry1) = map.bin_range(&rect);
            for by in ry0.max(by0)..=ry1.min(by1) {
                for bx in bx0..=bx1 {
                    let area = map.bin_rect(bx, by).overlap_area(&rect) as f64;
                    if area > 0.0 {
                        bins[(by - by0) * nx + bx] += sign * area;
                    }
                }
            }
        };
        let band = Interval::new(by0 as i64 * map.bin_h, (by1 as i64 + 1) * map.bin_h);
        for b in design.blockers_in_rows(band.lo, band.hi) {
            splat_into(&mut cap, &b, -1.0);
        }
        for c in cap.iter_mut() {
            *c = c.max(0.0);
        }
        for c in design
            .cells
            .iter()
            .filter(|c| !c.fixed && c.y_interval().overlaps(&band))
        {
            splat_into(&mut occ, &c.rect(), 1.0);
        }
        for by in by0..=by1 {
            for bx in 0..nx {
                let want_occ = occ[(by - by0) * nx + bx];
                let want_cap = cap[(by - by0) * nx + bx];
                let idx = by * nx + bx;
                if (map.occupied[idx] - want_occ).abs() > 1e-6
                    || (map.capacity[idx] - want_cap).abs() > 1e-6
                {
                    return Err(format!(
                        "bin ({bx},{by}) diverges from the design: occupied {} vs {want_occ}, \
                         capacity {} vs {want_cap}",
                        map.occupied[idx], map.capacity[idx]
                    ));
                }
            }
        }
        Ok(())
    }

    /// The census audit of `map` over `ranges`.
    fn audit(map: &DensityMap, d: &Design, ranges: &[(i64, i64)]) -> Result<(), String> {
        map.audit(d, &RowCensus::gather(d, ranges, map.bin_size()))
    }

    #[test]
    fn audit_differential_agrees_with_the_rect_splat_audit() {
        use crate::test_support::{audit_over, random_design, random_range_sets};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let mut diverged = 0;
        for seed in 0..150 {
            let d = random_design(seed);
            let (bin_w, bin_h) = (rng.random_range(1..40i64), rng.random_range(1..12i64));
            let clean = DensityMap::build(&d, bin_w, bin_h);
            let bins = clean.occupied.len();
            // clean, one perturbed bin (above and below the epsilon, occupancy or
            // capacity), and several perturbed bins at once
            let mut maps = vec![clean.clone()];
            for amount in [1.0, -2.0, 0.5, 1e-9] {
                let mut m = clean.clone();
                m.occupied[rng.random_range(0..bins)] += amount;
                maps.push(m);
                let mut m = clean.clone();
                m.capacity[rng.random_range(0..bins)] += amount;
                maps.push(m);
            }
            let mut m = clean.clone();
            for _ in 0..3 {
                m.occupied[rng.random_range(0..bins)] += 3.0;
                m.capacity[rng.random_range(0..bins)] -= 1.0;
            }
            maps.push(m);
            // a map of another grid shape
            maps.push(DensityMap::build(&d, bin_w + 1, bin_h));
            let sets = random_range_sets(&mut rng, d.num_rows, bin_h);
            for (i, map) in maps.iter().enumerate() {
                for ranges in &sets {
                    let want = audit_over(ranges, d.num_rows, |lo, hi| {
                        audit_rows_by_rect_splat(map, &d, lo, hi)
                    });
                    diverged += usize::from(want.is_err());
                    assert_eq!(
                        audit(map, &d, ranges),
                        want,
                        "seed {seed}, map {i}, rows {ranges:?}"
                    );
                }
            }
        }
        assert!(diverged > 1_000, "the corruptions must be seen: {diverged}");
    }

    #[test]
    fn audit_rows_sees_rects_straddling_the_slice() {
        // 10×2 bins; the slice [3, 7) audits bin rows 1..=3 (rows 2..8). A macro on rows
        // 0..3, a blockage on rows 7..10 and a movable cell on rows 1..3 each cross an edge
        // of that band; a second movable cell lies wholly outside it.
        let mut d = Design::new("den-audit", 40, 12);
        d.add_cell(Cell::fixed(CellId(0), 10, 3, 0, 0));
        d.add_blockage(Rect::new(20, 7, 30, 10));
        for (x, y) in [(12, 1), (32, 10)] {
            let mut c = Cell::movable(CellId(0), 6, 2, x as f64, y as f64);
            c.x = x;
            c.y = y;
            d.add_cell(c);
        }
        let map = DensityMap::build(&d, 10, 2);
        let (nx, _) = map.dims();
        assert_eq!(audit(&map, &d, &[(3, 7)]), Ok(()));

        let damaged = |bx: usize, by: usize, occupied: f64, capacity: f64| {
            let mut m = map.clone();
            m.occupied[by * nx + bx] += occupied;
            m.capacity[by * nx + bx] += capacity;
            m
        };
        // each straddling rectangle's in-slice share is checked: the macro's row 2, the
        // blockage's row 7, the movable cell's row 2
        for (bx, by, occupied, capacity) in
            [(0, 1, 0.0, 10.0), (2, 3, 0.0, 10.0), (1, 1, -6.0, 0.0)]
        {
            let err = audit(&damaged(bx, by, occupied, capacity), &d, &[(3, 7)]).unwrap_err();
            assert!(err.contains(&format!("bin ({bx},{by})")), "{err}");
        }
        // damage outside the slice is left to the slice that covers it
        let outside = damaged(3, 5, 1.0, 0.0);
        assert_eq!(audit(&outside, &d, &[(3, 7)]), Ok(()));
        assert!(audit(&outside, &d, &[(10, 12)])
            .unwrap_err()
            .contains("bin (3,5)"));
        // two slices in one census: the first divergence in bin-row order is reported
        let mut both = damaged(3, 5, 1.0, 0.0);
        both.occupied[nx] += 1.0;
        assert!(audit(&both, &d, &[(10, 12), (3, 7)])
            .unwrap_err()
            .contains("bin (0,1)"));
    }
}
