//! Insertion intervals and insertion points (Sec. 2.2.2 of the paper).
//!
//! Within one row's localSegment, the gaps between adjacent localCells (including the gap before
//! the first and after the last cell) are *insertion intervals*. An *insertion point* for a
//! target cell of height `h` combines one insertion interval from each of `h` vertically
//! adjacent rows. Because localCells may be shifted to make room, an insertion point is feasible
//! as long as the total free width of every involved segment can absorb the target; the feasible
//! x-range of the target's left edge follows from the cumulative widths of the cells that would
//! have to be pushed aside.
//!
//! ### Enumerating each point once
//!
//! Each bottom row's candidate anchors (segment ends, cell edges, the target's own x) split
//! every target row into a left and a right chain: a row's *split* is its first cell, in
//! `(x, index)` order, whose centre lies right of the anchor. The set of cells whose centre
//! lies right of the anchor only shrinks as the anchor grows, so a row's split is
//! non-decreasing in the anchor, even on rows whose cell centres are not sorted. The anchors
//! that yield one combination of splits (one point) therefore form a run of the ascending
//! anchor list. [`enumerate_insertion_points_into`] computes every split with one resumable
//! sweep per row, numbers the runs, and walks the anchors in distance order staging only the
//! first anchor of each run: every later anchor of a run would resolve the same point, a
//! duplicate if it is feasible and infeasible again otherwise. Chain widths come from the
//! presorted rows' prefix sums, and chains are copied only for accepted points.

use crate::region::LocalRegion;
use crate::shift::ShiftScratch;
use std::collections::BTreeSet;

/// One candidate insertion point for the target cell.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertionPoint {
    /// Row the bottom of the target would occupy.
    pub bottom_row: i64,
    /// Inclusive range `[x_lo, x_hi]` of feasible left-edge positions for the target.
    pub x_lo: i64,
    /// See [`Self::x_lo`].
    pub x_hi: i64,
    /// Per target row (bottom first): indices into `region.cells` of the localCells on the left
    /// of the chosen insertion interval, nearest to the interval first.
    pub left_chain: Vec<Vec<usize>>,
    /// Per target row: indices of the localCells on the right of the interval, nearest first.
    pub right_chain: Vec<Vec<usize>>,
}

impl InsertionPoint {
    /// Clamp an x coordinate into the feasible range.
    pub fn clamp(&self, x: i64) -> i64 {
        x.clamp(self.x_lo, self.x_hi)
    }

    /// The key identifying the combination of insertion intervals this point uses
    /// (bottom row plus the split index per row).
    fn dedup_key(&self) -> (i64, Vec<usize>) {
        (
            self.bottom_row,
            self.left_chain.iter().map(Vec::len).collect(),
        )
    }
}

/// Round the target's desired x into an anchor candidate, saturated far enough inside the
/// `i64` range that the centre comparison (`a * 2`) cannot overflow when a degenerate
/// global placement hands us a non-finite or astronomically large desired position.
/// (`f64 as i64` saturates, so 1e300 would otherwise round to `i64::MAX`.)
fn rounded_anchor(anchor_x: f64) -> i64 {
    (anchor_x.round() as i64).clamp(i64::MIN / 4, i64::MAX / 4)
}

/// Reusable buffers for [`enumerate_insertion_points_into`]: the resolved points (slots are
/// rebuilt in place), a recycling pool for the points' chain vectors, and the anchor working
/// set. One instance per legalizer (it lives inside `fop::FopScratch`) removes the last
/// per-target allocations of the FOP hot path.
#[derive(Debug, Clone, Default)]
pub struct InsertionScratch {
    /// Point slots; `[..len]` hold the current region's resolved points.
    points: Vec<InsertionPoint>,
    /// Number of live points in [`Self::points`].
    len: usize,
    /// Spare chain vectors recycled across points and regions.
    spare: Vec<Vec<usize>>,
    /// Candidate anchor x-coordinates of one bottom row, ascending and unique.
    anchors: Vec<i64>,
    /// Per anchor (in `anchors` order), the split of each target row, bottom first.
    splits: Vec<usize>,
    /// Per anchor, the number of its run of equal splits.
    runs: Vec<usize>,
    /// `(distance key, anchor)` pairs in the order the anchors are walked.
    by_distance: Vec<(i64, usize)>,
    /// Per run, whether an anchor of it was staged.
    staged: Vec<bool>,
}

impl InsertionScratch {
    /// The points resolved by the last [`enumerate_insertion_points_into`] call.
    pub fn points(&self) -> &[InsertionPoint] {
        &self.points[..self.len]
    }
}

/// [`enumerate_insertion_points`] writing into a reusable [`InsertionScratch`]: identical
/// points in identical order (the differential suites check this on random regions), but
/// each distinct point is staged once (see the module docs) and, after warm-up, the
/// enumeration performs no allocation — point slots, chain vectors and the anchor working
/// set are all recycled.
///
/// Each segment row's localCells and their width prefix sums are read from `rows`, which
/// [`ShiftScratch::begin_region`] must have prepared for `region` (asserted): its lists are
/// in `(x, index)` order, the order the oracle sorts each row into.
///
/// Returns the number of points resolved; read them via [`InsertionScratch::points`].
#[allow(clippy::too_many_arguments)]
pub fn enumerate_insertion_points_into(
    region: &LocalRegion,
    width: i64,
    height: i64,
    parity: Option<u8>,
    anchor_x: f64,
    max_points: usize,
    rows: &ShiftScratch,
    scratch: &mut InsertionScratch,
) -> usize {
    rows.assert_prepared_for(region);
    let InsertionScratch {
        points,
        len,
        spare,
        anchors,
        splits,
        runs,
        by_distance,
        staged,
    } = scratch;
    *len = 0;
    let segments = &region.segments;

    for bottom_seg in 0..segments.len() {
        if *len >= max_points {
            break;
        }
        let bottom = segments[bottom_seg].row;
        if let Some(p) = parity {
            if bottom.rem_euclid(2) as u8 != p {
                continue;
            }
        }
        // every row the target would occupy needs a segment
        let target_segs = region.segment_range(bottom..bottom + height);
        if target_segs.len() as i64 != height.max(0) {
            continue;
        }
        let h = target_segs.len();

        // candidate anchors: segment boundaries and cell edges of the involved rows, plus the
        // target's own global x, sorted unique (as the allocating version's BTreeSet yields
        // them)
        anchors.clear();
        anchors.push(rounded_anchor(anchor_x));
        for s in target_segs.clone() {
            let seg = &segments[s];
            anchors.push(seg.span.lo);
            anchors.push(seg.span.hi);
            for &ci in rows.row_cells(s) {
                let c = &region.cells[ci];
                anchors.push(c.x);
                anchors.push(c.right());
            }
        }
        anchors.sort_unstable();
        anchors.dedup();

        // every row's split at every anchor, in one resumable sweep per row: the cells before
        // a row's split at one anchor lie at or left of it, so also of every larger one
        splits.clear();
        splits.resize(anchors.len() * h, 0);
        for (k, s) in target_segs.clone().enumerate() {
            let in_row = rows.row_cells(s);
            let mut split = 0;
            for (j, &a) in anchors.iter().enumerate() {
                while split < in_row.len() && {
                    let c = &region.cells[in_row[split]];
                    c.x * 2 + c.width <= a * 2
                } {
                    split += 1;
                }
                splits[j * h + k] = split;
            }
        }
        runs.clear();
        let mut run = 0;
        for j in 0..anchors.len() {
            if j > 0 && splits[(j - 1) * h..j * h] != splits[j * h..(j + 1) * h] {
                run += 1;
            }
            runs.push(run);
        }

        // walk the anchors by distance to the target's x, ties in ascending order (the
        // oracle's stable re-rank), staging the first anchor of each run
        by_distance.clear();
        by_distance.extend(
            anchors
                .iter()
                .enumerate()
                .map(|(j, &a)| ((a as f64 - anchor_x).abs() as i64, j)),
        );
        by_distance.sort_unstable();
        staged.clear();
        staged.resize(run + 1, false);
        for &(_, j) in by_distance.iter() {
            if *len >= max_points {
                break;
            }
            if std::mem::replace(&mut staged[runs[j]], true) {
                continue;
            }
            let split = &splits[j * h..(j + 1) * h];
            let mut x_lo = i64::MIN;
            let mut x_hi = i64::MAX;
            let fits = target_segs.clone().zip(split).all(|(s, &at)| {
                let seg = &segments[s];
                let widths = rows.row_widths(s);
                let left_w = widths[at];
                let right_w = widths[widths.len() - 1] - left_w;
                let lo = seg.span.lo + left_w;
                let hi = seg.span.hi - right_w - width;
                x_lo = x_lo.max(lo);
                x_hi = x_hi.min(hi);
                lo <= hi
            });
            if !fits || x_hi < x_lo {
                continue;
            }

            // accept: fill the next point slot, recycling its chain vectors
            if *len == points.len() {
                points.push(InsertionPoint {
                    bottom_row: 0,
                    x_lo: 0,
                    x_hi: 0,
                    left_chain: Vec::new(),
                    right_chain: Vec::new(),
                });
            }
            let slot = &mut points[*len];
            spare.append(&mut slot.left_chain);
            spare.append(&mut slot.right_chain);
            for (s, &at) in target_segs.clone().zip(split) {
                let in_row = rows.row_cells(s);
                let mut left = spare.pop().unwrap_or_default();
                left.clear();
                left.extend(in_row[..at].iter().rev().copied());
                let mut right = spare.pop().unwrap_or_default();
                right.clear();
                right.extend_from_slice(&in_row[at..]);
                slot.left_chain.push(left);
                slot.right_chain.push(right);
            }
            slot.bottom_row = bottom;
            slot.x_lo = x_lo;
            slot.x_hi = x_hi;
            *len += 1;
        }
    }
    *len
}

/// Enumerate the insertion points of a region for a target of `width × height` whose bottom row
/// must satisfy `parity`. `anchor_x` (the target's global-placement x) is used to prioritize
/// points when the `max_points` cap bites.
///
/// This allocating implementation is retained deliberately (and kept independent of
/// [`enumerate_insertion_points_into`]): it is the oracle the scratch-backed enumeration is
/// differentially tested against, and what `fop::reference` measures as the baseline.
pub fn enumerate_insertion_points(
    region: &LocalRegion,
    width: i64,
    height: i64,
    parity: Option<u8>,
    anchor_x: f64,
    max_points: usize,
) -> Vec<InsertionPoint> {
    let mut points: Vec<InsertionPoint> = Vec::new();
    let mut seen: BTreeSet<(i64, Vec<usize>)> = BTreeSet::new();

    let rows = region.rows();
    // Per-row localCell lists (sorted by x), computed once per segment: the anchor loop
    // below used to rebuild and re-sort them for every candidate anchor of every row, which
    // dominated the enumeration cost on crowded regions.
    let row_cells: Vec<Vec<usize>> = rows.iter().map(|&r| region.cells_in_row(r)).collect();
    let cells_of = |r: i64| -> &[usize] {
        region
            .segment_index(r)
            .map_or(&[][..], |i| &row_cells[i][..])
    };
    for &bottom in &rows {
        if let Some(p) = parity {
            if bottom.rem_euclid(2) as u8 != p {
                continue;
            }
        }
        // every row the target would occupy needs a segment
        let target_rows: Vec<i64> = (bottom..bottom + height).collect();
        if !target_rows.iter().all(|r| region.segment(*r).is_some()) {
            continue;
        }

        // candidate anchors: segment boundaries and cell edges of the involved rows, plus the
        // target's own global x — each anchor induces one interval choice per row.
        let mut anchors: BTreeSet<i64> = BTreeSet::new();
        anchors.insert(rounded_anchor(anchor_x));
        for &r in &target_rows {
            let seg = region.segment(r).unwrap();
            anchors.insert(seg.span.lo);
            anchors.insert(seg.span.hi);
            for &ci in cells_of(r) {
                let c = &region.cells[ci];
                anchors.insert(c.x);
                anchors.insert(c.right());
            }
        }
        let mut anchors: Vec<i64> = anchors.into_iter().collect();
        anchors.sort_by_key(|a| (*a as f64 - anchor_x).abs() as i64);

        for a in anchors {
            if points.len() >= max_points {
                break;
            }
            let mut left_chain = Vec::with_capacity(height as usize);
            let mut right_chain = Vec::with_capacity(height as usize);
            let mut x_lo = i64::MIN;
            let mut x_hi = i64::MAX;
            let mut ok = true;
            for &r in &target_rows {
                let seg = region.segment(r).unwrap();
                let in_row = cells_of(r);
                // split the row at the anchor: cells whose centre is left of the anchor go to
                // the left chain, the rest to the right chain
                let split = in_row
                    .iter()
                    .position(|&ci| {
                        let c = &region.cells[ci];
                        c.x * 2 + c.width > a * 2
                    })
                    .unwrap_or(in_row.len());
                let left: Vec<usize> = in_row[..split].iter().rev().copied().collect();
                let right: Vec<usize> = in_row[split..].to_vec();
                let left_w: i64 = left.iter().map(|&ci| region.cells[ci].width).sum();
                let right_w: i64 = right.iter().map(|&ci| region.cells[ci].width).sum();
                let lo = seg.span.lo + left_w;
                let hi = seg.span.hi - right_w - width;
                if hi < lo {
                    ok = false;
                    break;
                }
                x_lo = x_lo.max(lo);
                x_hi = x_hi.min(hi);
                left_chain.push(left);
                right_chain.push(right);
            }
            if !ok || x_hi < x_lo {
                continue;
            }
            let point = InsertionPoint {
                bottom_row: bottom,
                x_lo,
                x_hi,
                left_chain,
                right_chain,
            };
            if seen.insert(point.dedup_key()) {
                points.push(point);
            }
        }
        if points.len() >= max_points {
            break;
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{LocalCell, LocalSegment};
    use flex_placement::cell::CellId;
    use flex_placement::geom::{Interval, Rect};

    /// Hand-built region: two rows [0,30), row 0 holds cells at [5,9) and [20,24),
    /// row 1 holds a single cell at [10,16).
    fn region() -> LocalRegion {
        LocalRegion {
            target: CellId(99),
            window: Rect::new(0, 0, 30, 2),
            segments: vec![
                LocalSegment {
                    row: 0,
                    span: Interval::new(0, 30),
                },
                LocalSegment {
                    row: 1,
                    span: Interval::new(0, 30),
                },
            ],
            cells: vec![
                LocalCell {
                    id: CellId(0),
                    x: 5,
                    y: 0,
                    width: 4,
                    height: 1,
                    gx: 5.0,
                },
                LocalCell {
                    id: CellId(1),
                    x: 20,
                    y: 0,
                    width: 4,
                    height: 1,
                    gx: 20.0,
                },
                LocalCell {
                    id: CellId(2),
                    x: 10,
                    y: 1,
                    width: 6,
                    height: 1,
                    gx: 10.0,
                },
            ],
            density: 0.2,
        }
    }

    #[test]
    fn single_row_target_enumerates_gaps() {
        let r = region();
        let pts = enumerate_insertion_points(&r, 3, 1, None, 12.0, 100);
        // row 0 has 3 gaps, row 1 has 2 gaps → 5 unique points across the two rows
        let row0: Vec<_> = pts.iter().filter(|p| p.bottom_row == 0).collect();
        let row1: Vec<_> = pts.iter().filter(|p| p.bottom_row == 1).collect();
        assert_eq!(row0.len(), 3);
        assert_eq!(row1.len(), 2);
        for p in &pts {
            assert!(p.x_lo <= p.x_hi);
            assert_eq!(p.left_chain.len(), 1);
        }
    }

    #[test]
    fn feasible_range_accounts_for_shiftable_neighbours() {
        let r = region();
        let pts = enumerate_insertion_points(&r, 3, 1, None, 12.0, 100);
        // the middle gap of row 0 (between the two cells): left chain width 4, right chain 4
        let mid = pts
            .iter()
            .find(|p| {
                p.bottom_row == 0 && p.left_chain[0].len() == 1 && p.right_chain[0].len() == 1
            })
            .expect("middle gap present");
        assert_eq!(mid.x_lo, 4);
        assert_eq!(mid.x_hi, 30 - 4 - 3);
    }

    #[test]
    fn multi_row_target_intersects_row_constraints() {
        let r = region();
        let pts = enumerate_insertion_points(&r, 5, 2, None, 0.0, 100);
        assert!(!pts.is_empty());
        for p in &pts {
            assert_eq!(p.bottom_row, 0); // only bottom row 0 gives two stacked rows
            assert_eq!(p.left_chain.len(), 2);
            assert!(p.x_lo <= p.x_hi);
            // row-0 and row-1 constraints both hold
            let left_w0: i64 = p.left_chain[0].iter().map(|&i| r.cells[i].width).sum();
            let left_w1: i64 = p.left_chain[1].iter().map(|&i| r.cells[i].width).sum();
            assert!(p.x_lo >= left_w0.max(left_w1));
        }
    }

    #[test]
    fn parity_filters_bottom_rows() {
        let r = region();
        let even = enumerate_insertion_points(&r, 3, 1, Some(0), 12.0, 100);
        assert!(even.iter().all(|p| p.bottom_row % 2 == 0));
        let odd = enumerate_insertion_points(&r, 3, 1, Some(1), 12.0, 100);
        assert!(odd.iter().all(|p| p.bottom_row % 2 == 1));
        assert!(!odd.is_empty());
    }

    #[test]
    fn oversized_target_yields_no_points() {
        let r = region();
        assert!(enumerate_insertion_points(&r, 40, 1, None, 0.0, 100).is_empty());
        assert!(enumerate_insertion_points(&r, 3, 3, None, 0.0, 100).is_empty());
        // width 22 fits in row 1 (30 - 6 free = 24) but not in the row-0 middle gaps etc.
        let tight = enumerate_insertion_points(&r, 22, 1, None, 0.0, 100);
        assert!(tight.iter().all(|p| p.x_lo <= p.x_hi));
    }

    #[test]
    fn cap_limits_number_of_points() {
        let r = region();
        let pts = enumerate_insertion_points(&r, 3, 1, None, 12.0, 2);
        assert_eq!(pts.len(), 2);
    }

    #[test]
    fn scratch_enumeration_matches_the_allocating_oracle() {
        let r = region();
        let mut rows = ShiftScratch::default();
        rows.begin_region(&r);
        let mut scratch = InsertionScratch::default();
        // reuse one scratch across every shape so slot/chain recycling is exercised
        for (w, h, parity, anchor, cap) in [
            (3i64, 1i64, None, 12.0f64, 100usize),
            (5, 2, None, 0.0, 100),
            (3, 1, Some(0), 12.0, 100),
            (3, 1, Some(1), 12.0, 100),
            (22, 1, None, 0.0, 100),
            (3, 1, None, 12.0, 2), // cap bites: prefix must match too
            (40, 1, None, 0.0, 100),
            (5, 2, None, 30.0, 100),
        ] {
            let expect = enumerate_insertion_points(&r, w, h, parity, anchor, cap);
            let n =
                enumerate_insertion_points_into(&r, w, h, parity, anchor, cap, &rows, &mut scratch);
            assert_eq!(n, expect.len(), "w={w} h={h} parity={parity:?}");
            assert_eq!(
                scratch.points(),
                &expect[..],
                "w={w} h={h} parity={parity:?} anchor={anchor} cap={cap}"
            );
        }
    }

    #[test]
    fn chain_subcell_count() {
        let r = region();
        let pts = enumerate_insertion_points(&r, 5, 2, None, 30.0, 100);
        let rightmost = pts
            .iter()
            .find(|p| p.right_chain.iter().all(|c| c.is_empty()))
            .expect("a point with everything on the left");
        // a multi-row cell counts once per row its chain lists it in, i.e. per subcell
        let subcells: usize = rightmost.left_chain.iter().map(Vec::len).sum();
        assert_eq!(subcells, 3);
    }
}
