//! One pass over a design for the invariant scrubber.
//!
//! The ECO service audits its warm structures (the legalized index, the density map and the
//! segment map) against the design a few row ranges at a time. Every audit needs something
//! from every cell: how many legalized cells span each audited row, how much movable area
//! lands in each audited density bin, and which fixed cells block the audited rows. A
//! [`RowCensus`] gathers all of it for a set of row ranges in one pass over
//! [`Design::cells`], and each structure audits against the census instead of reading the
//! design again (`LegalizedIndex::audit`, [`DensityMap::audit`](crate::density::DensityMap::audit),
//! [`SegmentMap::audit`](crate::segment::SegmentMap::audit)).

use crate::density::BinRows;
use crate::geom::{Interval, Rect};
use crate::layout::{try_for_each_free_row, Design};

/// What the scrubber's audits read from a design over a set of audited rows, gathered in one
/// pass over its cells. See the module docs.
#[derive(Debug)]
pub struct RowCensus {
    /// The audited rows: sorted, disjoint, non-touching ranges inside the die.
    ranges: Vec<(i64, i64)>,
    /// Legalized movable cells spanning each audited row, in row order.
    spanning: Vec<u32>,
    /// Fixed-cell rectangles (in design order), then blockages, that touch an audited bin
    /// row: a superset of the blockers of every audited row.
    pub(crate) blockers: Vec<Rect>,
    /// The density bin rows covering the audited rows.
    pub(crate) bins: BinRows,
    /// Movable area per audited bin, laid out as [`BinRows`] slots.
    pub(crate) occupied: Vec<i64>,
}

impl RowCensus {
    /// Gather the census of `design` over the rows in `ranges` (any order; overlapping,
    /// empty and off-die ranges are allowed, and only rows inside the die count), for a
    /// density grid of `bin_size` = (sites, rows) bins. Reads each cell once, and a cell off
    /// the audited bin rows costs two table loads; the lookup tables cost one entry per row
    /// and per site of the die.
    pub fn gather(design: &Design, ranges: &[(i64, i64)], bin_size: (i64, i64)) -> Self {
        let num_rows = design.num_rows.max(0);
        let ranges = normalize(ranges, num_rows);
        let bins = BinRows::new(design, bin_size, &ranges);
        // the slot of each audited row among the audited rows, in row order; every other
        // row counts into one spare slot past them, so counting takes no branch
        let audited: usize = ranges.iter().map(|&(lo, hi)| (hi - lo) as usize).sum();
        let mut row_slot = vec![audited as u32; num_rows as usize];
        for (slot, row) in ranges.iter().flat_map(|&(lo, hi)| lo..hi).enumerate() {
            row_slot[row as usize] = slot as u32;
        }
        let mut census = Self {
            spanning: vec![0; audited + 1],
            blockers: Vec::new(),
            occupied: vec![0; bins.len()],
            ranges,
            bins,
        };
        let in_die = |lo: i64, hi: i64| (lo.clamp(0, num_rows), hi.clamp(0, num_rows));
        for c in &design.cells {
            let (lo, hi) = in_die(c.y, c.y + c.height);
            if !census.bins.touches(lo, hi) {
                continue;
            }
            if c.fixed {
                census.blockers.push(c.rect());
                continue;
            }
            census.bins.splat(&mut census.occupied, &c.rect(), 1);
            if c.legalized {
                for &slot in &row_slot[lo as usize..hi as usize] {
                    census.spanning[slot as usize] += 1;
                }
            }
        }
        census.spanning.pop();
        for b in &design.blockages {
            let (lo, hi) = in_die(b.y_lo, b.y_hi);
            if census.bins.touches(lo, hi) {
                census.blockers.push(*b);
            }
        }
        census
    }

    /// Number of audited rows.
    pub fn num_rows(&self) -> usize {
        self.spanning.len()
    }

    /// Each audited row, in order, with the number of legalized movable cells spanning it:
    /// the size of its bucket in a freshly built `LegalizedIndex`.
    pub fn spanning(&self) -> impl Iterator<Item = (i64, usize)> + '_ {
        self.ranges
            .iter()
            .flat_map(|&(lo, hi)| lo..hi)
            .zip(self.spanning.iter().map(|&n| n as usize))
    }

    /// Visit the free intervals ([`Design::free_intervals_in_rows`]) of each audited row, in
    /// order, stopping at the first `Err`; `num_sites` is the design's row width.
    pub(crate) fn try_for_each_free_row<E>(
        &self,
        num_sites: i64,
        visit: impl FnMut(i64, &[Interval]) -> Result<(), E>,
    ) -> Result<(), E> {
        let rows = self.ranges.iter().flat_map(|&(lo, hi)| lo..hi);
        try_for_each_free_row(num_sites, &self.blockers, rows, visit)
    }
}

/// Sort row ranges `[lo, hi)` and merge the ones that overlap or touch, leaving sorted,
/// disjoint ranges with a gap between neighbours.
pub fn merge_ranges(ranges: &mut Vec<(i64, i64)>) {
    ranges.sort_unstable();
    ranges.dedup_by(|next, merged| {
        let touches = next.0 <= merged.1;
        if touches {
            merged.1 = merged.1.max(next.1);
        }
        touches
    });
}

/// `ranges` clipped to the rows `[0, num_rows)`, empty ones dropped, sorted, and merged where
/// they overlap or touch.
fn normalize(ranges: &[(i64, i64)], num_rows: i64) -> Vec<(i64, i64)> {
    let mut out: Vec<(i64, i64)> = ranges
        .iter()
        .map(|&(lo, hi)| (lo.clamp(0, num_rows), hi.clamp(0, num_rows)))
        .filter(|&(lo, hi)| lo < hi)
        .collect();
    merge_ranges(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellId};

    #[test]
    fn ranges_are_clipped_sorted_and_merged() {
        assert_eq!(
            normalize(&[(30, 40), (-5, 3), (3, 6), (8, 8), (12, 9), (35, 60)], 50),
            vec![(0, 6), (30, 50)]
        );
        assert_eq!(normalize(&[(-9, -1), (50, 70)], 50), vec![]);
    }

    #[test]
    fn census_counts_the_audited_rows_only() {
        let mut d = Design::new("census", 40, 12);
        d.add_cell(Cell::fixed(CellId(0), 10, 3, 0, 0));
        d.add_blockage(Rect::new(20, 9, 30, 12));
        for (x, y, h, legalized) in [(12, 1, 2, true), (32, 9, 3, true), (5, 5, 2, false)] {
            let mut c = Cell::movable(CellId(0), 6, h, x as f64, y as f64);
            c.x = x;
            c.y = y;
            c.legalized = legalized;
            d.add_cell(c);
        }
        let census = RowCensus::gather(&d, &[(2, 3), (6, 7), (-4, 2)], (10, 4));
        assert_eq!(census.ranges, vec![(0, 3), (6, 7)]);
        assert_eq!(census.num_rows(), 4);
        let spanning: Vec<(i64, usize)> = census.spanning().collect();
        // the unlegalized cell on rows 5..7 is not indexed
        assert_eq!(spanning, vec![(0, 0), (1, 1), (2, 1), (6, 0)]);
        // bin rows 0 and 1 (rows 0..8) are audited: the macro touches them, the blockage
        // on rows 9..12 does not
        assert_eq!(census.blockers, vec![Rect::new(0, 0, 10, 3)]);
        let mut free = Vec::new();
        let Ok(()) = census.try_for_each_free_row(d.num_sites_x, |row, f| {
            free.push((row, f.to_vec()));
            Ok::<(), std::convert::Infallible>(())
        });
        assert_eq!(free[0], (0, vec![Interval::new(10, 40)]));
        assert_eq!(free[3], (6, vec![Interval::new(0, 40)]));
    }
}
