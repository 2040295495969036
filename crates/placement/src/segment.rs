//! Placement segments: maximal unblocked stretches of sites within a row.
//!
//! Segments are the building block of the MGL algorithm's *localSegments* (Sec. 2.2.1 of the
//! paper): within a legalization window, the longest continuous sequence of unblocked sites per
//! row is a localSegment. This module extracts full-row segments from a [`Design`]; the MGL
//! crate clips them to windows.

use crate::census::RowCensus;
use crate::geom::Interval;
use crate::layout::Design;

/// A maximal unblocked interval of sites within a single row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Row index the segment lives in.
    pub row: i64,
    /// The unblocked site interval.
    pub span: Interval,
}

impl Segment {
    /// Create a segment.
    #[cfg(test)]
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentMap {
    per_row: Vec<Vec<Segment>>,
}

impl SegmentMap {
    /// Build the segment map of a design from its fixed cells and blockages, collecting
    /// the blockers of all rows in one pass over the design.
    pub fn build(design: &Design) -> Self {
        let per_row = (0..)
            .zip(design.free_intervals_in_rows(0, design.num_rows))
            .map(|(row, free)| free.into_iter().map(|span| Segment { row, span }).collect())
            .collect();
        Self { per_row }
    }

    /// Segments of row `row` (empty slice if the row does not exist).
    pub fn row(&self, row: i64) -> &[Segment] {
        if row < 0 || row as usize >= self.per_row.len() {
            &[]
        } else {
            &self.per_row[row as usize]
        }
    }

    /// The widest segment of row `row` overlapping the window, if any (the localSegment rule).
    pub fn widest_in_window(&self, row: i64, window: &Interval) -> Option<Segment> {
        self.row(row)
            .iter()
            .filter_map(|s| s.clipped(window))
            .max_by_key(|s| s.len())
    }

    /// Audit the census's rows against `design`, which the census was gathered from: the map
    /// is a pure function of the design's fixed cells and blockages
    /// ([`Design::free_intervals_in_rows`]), so each audited row is recomputed from the
    /// blockers the census collected and compared segment-for-segment. `Err` names the first
    /// diverging row — the invariant-scrubber's typed corruption evidence. Reads no cell:
    /// each row is swept into reused buffers, with no allocation per row.
    pub fn audit(&self, design: &Design, census: &RowCensus) -> Result<(), String> {
        let num_rows = design.num_rows.max(0);
        if self.per_row.len() as i64 != num_rows {
            return Err(format!(
                "segment map has {} rows, design has {num_rows}",
                self.per_row.len()
            ));
        }
        census.try_for_each_free_row(design.num_sites_x, |row, free| {
            let got = &self.per_row[row as usize];
            let same = got.len() == free.len()
                && got
                    .iter()
                    .zip(free)
                    .all(|(seg, span)| seg.row == row && seg.span == *span);
            if same {
                Ok(())
            } else {
                Err(format!(
                    "row {row} segments diverge from the design: {} tracked, {} expected",
                    got.len(),
                    free.len()
                ))
            }
        })
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
        assert_eq!(map.per_row.len(), 4);
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
        assert_eq!(
            map.per_row.iter().flatten().map(|s| s.len()).sum::<i64>(),
            d.free_area()
        );
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

    /// The census audit of `map` over `ranges`.
    fn audit(map: &SegmentMap, d: &Design, ranges: &[(i64, i64)]) -> Result<(), String> {
        map.audit(d, &RowCensus::gather(d, ranges, (1, 1)))
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
        assert_eq!(audit(&map, &d, &[(4, 8)]), Ok(()));

        let damaged = |row: i64| {
            let mut m = map.clone();
            m.per_row[row as usize] = vec![Segment::new(row, 0, 60)];
            m
        };
        // a row that forgot the macro from below, the inner macro, or the blockage above
        for row in [4, 5, 7] {
            let err = audit(&damaged(row), &d, &[(4, 8)]).unwrap_err();
            assert!(err.contains(&format!("row {row} ")), "{err}");
        }
        // damage outside the slice is left to the slice that covers it
        let outside = damaged(3);
        assert_eq!(audit(&outside, &d, &[(4, 8)]), Ok(()));
        assert!(audit(&outside, &d, &[(0, 4)])
            .unwrap_err()
            .contains("row 3 "));
        // two slices in one census: the first divergence in row order is reported
        assert!(audit(&damaged(5), &d, &[(4, 8), (0, 4)])
            .unwrap_err()
            .contains("row 5 "));
    }

    /// The allocating per-range audit the census audit replaced, kept as its oracle: each
    /// row's segments rebuilt through the subtract-based free intervals, then compared as
    /// whole vectors.
    fn audit_rows_by_rebuild(
        map: &SegmentMap,
        design: &Design,
        row_lo: i64,
        row_hi: i64,
    ) -> Result<(), String> {
        use crate::layout::blocked_in_row;
        use crate::test_support::free_among_by_subtract;
        let num_rows = design.num_rows.max(0);
        if map.per_row.len() as i64 != num_rows {
            return Err(format!(
                "segment map has {} rows, design has {num_rows}",
                map.per_row.len()
            ));
        }
        let lo = row_lo.clamp(0, num_rows);
        let hi = row_hi.clamp(0, num_rows);
        for row in lo..hi {
            let blocked = blocked_in_row(&design.blockers_in_rows(row, row + 1), row).collect();
            let want: Vec<Segment> =
                free_among_by_subtract(Interval::new(0, design.num_sites_x), blocked)
                    .into_iter()
                    .map(|span| Segment { row, span })
                    .collect();
            let got = &map.per_row[row as usize];
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

    #[test]
    fn audit_differential_agrees_with_the_rebuilding_audit() {
        use crate::test_support::{audit_over, random_design, random_range_sets};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut diverged = 0;
        for seed in 0..200 {
            let d = random_design(seed);
            let clean = SegmentMap::build(&d);
            let rows = clean.per_row.len();
            let mut maps = vec![clean.clone()];
            let damage = |m: &mut SegmentMap, rng: &mut StdRng| {
                let row = rng.random_range(0..rows);
                let segs = &mut m.per_row[row];
                match (rng.random_range(0..5u32), segs.len()) {
                    // drop a segment
                    (0, n) if n > 0 => {
                        segs.remove(rng.random_range(0..n));
                    }
                    // shift one end of a segment
                    (1, n) if n > 0 => segs[rng.random_range(0..n)].span.lo -= 1,
                    (2, n) if n > 0 => segs[rng.random_range(0..n)].span.hi += 1,
                    // a segment filed under the wrong row
                    (3, n) if n > 0 => segs[rng.random_range(0..n)].row += 1,
                    // an extra segment
                    _ => segs.push(Segment::new(row as i64, 0, 1)),
                }
            };
            for corruptions in [1, 1, 1, 2, 3] {
                let mut m = clean.clone();
                for _ in 0..corruptions {
                    damage(&mut m, &mut rng);
                }
                maps.push(m);
            }
            // a map of a die with one row more
            let mut taller = d.clone();
            taller.num_rows += 1;
            maps.push(SegmentMap::build(&taller));
            // the census collects blockers by density bin row: audit on grids of several
            // bin heights, so the collected blockers reach past the audited rows
            let bin_h = rng.random_range(1..12i64);
            let sets = random_range_sets(&mut rng, d.num_rows, bin_h);
            for (i, map) in maps.iter().enumerate() {
                for ranges in &sets {
                    let want = audit_over(ranges, d.num_rows, |lo, hi| {
                        audit_rows_by_rebuild(map, &d, lo, hi)
                    });
                    diverged += usize::from(want.is_err());
                    let census = RowCensus::gather(&d, ranges, (1 + bin_h, bin_h));
                    assert_eq!(
                        map.audit(&d, &census),
                        want,
                        "seed {seed}, map {i}, rows {ranges:?}"
                    );
                }
            }
            // the build itself is the oracle's rows
            assert_eq!(audit_rows_by_rebuild(&clean, &d, 0, d.num_rows), Ok(()));
        }
        assert!(diverged > 1_000, "the corruptions must be seen: {diverged}");
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
