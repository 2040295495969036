//! Placement segments: maximal unblocked stretches of sites within a row.
//!
//! Segments are the building block of the MGL algorithm's *localSegments* (Sec. 2.2.1 of the
//! paper): within a legalization window, the longest continuous sequence of unblocked sites per
//! row is a localSegment. This module extracts full-row segments from a [`Design`]; the MGL
//! crate clips them to windows.

use crate::geom::Interval;
use crate::layout::Design;
use serde::{Deserialize, Serialize};

/// A maximal unblocked interval of sites within a single row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Segment {
    /// Row index the segment lives in.
    pub row: i64,
    /// The unblocked site interval.
    pub span: Interval,
}

impl Segment {
    /// Create a segment.
    pub fn new(row: i64, lo: i64, hi: i64) -> Self {
        Self {
            row,
            span: Interval::new(lo, hi),
        }
    }

    /// Number of sites in the segment.
    pub fn len(&self) -> i64 {
        self.span.len()
    }

    /// Whether the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.span.is_empty()
    }

    /// Clip the segment to a site interval, returning `None` if nothing remains.
    pub fn clipped(&self, window: &Interval) -> Option<Segment> {
        let span = self.span.intersect(window);
        if span.is_empty() {
            None
        } else {
            Some(Segment {
                row: self.row,
                span,
            })
        }
    }
}

/// All segments of a design, bucketed by row for O(1) row lookup.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SegmentMap {
    per_row: Vec<Vec<Segment>>,
}

impl SegmentMap {
    /// Build the segment map of a design from its fixed cells and blockages, collecting
    /// the blockers of all rows in one pass over the design.
    pub fn build(design: &Design) -> Self {
        Self {
            per_row: Self::rows_of(design, 0, design.num_rows),
        }
    }

    /// The segments of rows `[row_lo, row_hi)`, computed from the design.
    fn rows_of(design: &Design, row_lo: i64, row_hi: i64) -> Vec<Vec<Segment>> {
        (row_lo..)
            .zip(design.free_intervals_in_rows(row_lo, row_hi))
            .map(|(row, free)| free.into_iter().map(|span| Segment { row, span }).collect())
            .collect()
    }

    /// Segments of row `row` (empty slice if the row does not exist).
    pub fn row(&self, row: i64) -> &[Segment] {
        if row < 0 || row as usize >= self.per_row.len() {
            &[]
        } else {
            &self.per_row[row as usize]
        }
    }

    /// Number of rows tracked.
    pub fn num_rows(&self) -> usize {
        self.per_row.len()
    }

    /// Iterator over every segment of the design.
    pub fn iter(&self) -> impl Iterator<Item = &Segment> {
        self.per_row.iter().flatten()
    }

    /// Total number of free sites across all rows.
    pub fn total_free_sites(&self) -> i64 {
        self.iter().map(|s| s.len()).sum()
    }

    /// The segment of row `row` that contains site `x`, if any.
    pub fn segment_at(&self, row: i64, x: i64) -> Option<&Segment> {
        self.row(row).iter().find(|s| s.span.contains(x))
    }

    /// The widest segment of row `row` overlapping the window, if any (the localSegment rule).
    pub fn widest_in_window(&self, row: i64, window: &Interval) -> Option<Segment> {
        self.row(row)
            .iter()
            .filter_map(|s| s.clipped(window))
            .max_by_key(|s| s.len())
    }

    /// Audit rows `[row_lo, row_hi)` against `design`: the map is a pure function of the
    /// design's fixed cells and blockages (`Design::free_intervals`), so each audited row
    /// is recomputed and compared segment-for-segment. `Err` names the first diverging
    /// row — the invariant-scrubber's typed corruption evidence. The slice's blockers are
    /// collected once ([`Design::free_intervals_in_rows`]), so the cost is one pass over the
    /// design plus the slice, not one pass per row.
    pub fn audit_rows(&self, design: &Design, row_lo: i64, row_hi: i64) -> Result<(), String> {
        let num_rows = design.num_rows.max(0);
        if self.per_row.len() as i64 != num_rows {
            return Err(format!(
                "segment map has {} rows, design has {num_rows}",
                self.per_row.len()
            ));
        }
        let lo = row_lo.clamp(0, num_rows);
        let hi = row_hi.clamp(0, num_rows);
        for (row, want) in (lo..).zip(Self::rows_of(design, lo, hi)) {
            let got = &self.per_row[row as usize];
            if *got != want {
                return Err(format!(
                    "row {row} segments diverge from the design: {} tracked, {} expected",
                    got.len(),
                    want.len()
                ));
            }
        }
        Ok(())
    }

    /// Deliberately damage row `row` (drop its first segment) — the fault-injection hook
    /// behind the `eco.scrub.corrupt` failpoint and the scrubber tests. Returns `false`
    /// if the row has no segment to drop.
    #[doc(hidden)]
    pub fn corrupt_row(&mut self, row: i64) -> bool {
        if row < 0 || row as usize >= self.per_row.len() || self.per_row[row as usize].is_empty() {
            return false;
        }
        self.per_row[row as usize].remove(0);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellId};
    use crate::geom::Rect;

    fn design_with_macro() -> Design {
        let mut d = Design::new("seg", 60, 4);
        d.add_cell(Cell::fixed(CellId(0), 10, 2, 20, 1));
        d.add_blockage(Rect::new(50, 0, 60, 4));
        d
    }

    #[test]
    fn build_extracts_per_row_segments() {
        let d = design_with_macro();
        let map = SegmentMap::build(&d);
        assert_eq!(map.num_rows(), 4);
        assert_eq!(map.row(0), &[Segment::new(0, 0, 50)]);
        assert_eq!(
            map.row(1),
            &[Segment::new(1, 0, 20), Segment::new(1, 30, 50)]
        );
        assert_eq!(
            map.row(2),
            &[Segment::new(2, 0, 20), Segment::new(2, 30, 50)]
        );
        assert_eq!(map.row(3), &[Segment::new(3, 0, 50)]);
        assert_eq!(map.row(7), &[]);
        assert_eq!(map.row(-1), &[]);
    }

    #[test]
    fn total_free_sites_matches_free_area() {
        let d = design_with_macro();
        let map = SegmentMap::build(&d);
        assert_eq!(map.total_free_sites(), d.free_area());
    }

    #[test]
    fn segment_at_finds_containing_segment() {
        let d = design_with_macro();
        let map = SegmentMap::build(&d);
        assert_eq!(map.segment_at(1, 5), Some(&Segment::new(1, 0, 20)));
        assert_eq!(map.segment_at(1, 25), None);
        assert_eq!(map.segment_at(1, 35), Some(&Segment::new(1, 30, 50)));
    }

    #[test]
    fn widest_in_window_picks_longest_clipped_piece() {
        let d = design_with_macro();
        let map = SegmentMap::build(&d);
        let w = Interval::new(10, 40);
        // row 1 pieces clipped to [10,40): [10,20) len 10 and [30,40) len 10 → first max wins
        let s = map.widest_in_window(1, &w).unwrap();
        assert_eq!(s.len(), 10);
        // row 0 piece clipped to [10,40): [10,40) len 30
        assert_eq!(map.widest_in_window(0, &w), Some(Segment::new(0, 10, 40)));
        // window fully blocked
        assert_eq!(map.widest_in_window(1, &Interval::new(20, 30)), None);
    }

    #[test]
    fn audit_rows_sees_blockers_straddling_the_slice() {
        // the slice [4, 8): a macro enters it from below (rows 2..6), a blockage leaves it
        // at the top (rows 7..10), a small macro sits inside (row 5)
        let mut d = Design::new("seg-audit", 60, 16);
        d.add_cell(Cell::fixed(CellId(0), 10, 4, 20, 2));
        d.add_blockage(Rect::new(40, 7, 50, 10));
        d.add_cell(Cell::fixed(CellId(0), 5, 1, 5, 5));
        let map = SegmentMap::build(&d);
        assert_eq!(map.audit_rows(&d, 4, 8), Ok(()));

        let damaged = |row: i64| {
            let mut m = map.clone();
            m.per_row[row as usize] = vec![Segment::new(row, 0, 60)];
            m
        };
        // a row that forgot the macro from below, the inner macro, or the blockage above
        for row in [4, 5, 7] {
            let err = damaged(row).audit_rows(&d, 4, 8).unwrap_err();
            assert!(err.contains(&format!("row {row} ")), "{err}");
        }
        // damage outside the slice is left to the slice that covers it
        let outside = damaged(3);
        assert_eq!(outside.audit_rows(&d, 4, 8), Ok(()));
        assert!(outside.audit_rows(&d, 0, 4).unwrap_err().contains("row 3 "));
    }

    #[test]
    fn clipped_segment_behaviour() {
        let s = Segment::new(2, 10, 30);
        assert_eq!(
            s.clipped(&Interval::new(0, 15)),
            Some(Segment::new(2, 10, 15))
        );
        assert_eq!(s.clipped(&Interval::new(30, 40)), None);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 20);
    }
}
