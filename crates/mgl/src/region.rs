//! Windows, localSegments, localCells and localRegions (Sec. 2.2.1 of the paper).
//!
//! The legalization of a target cell is localized within a rectangular window `W`. Within each
//! row of `W`, the longest continuous run of unblocked sites is the *localSegment*; a legalized
//! movable cell entirely contained in the localSegments is a *localCell*; legalized cells that
//! only partially overlap the window are treated as obstacles and carve the segments down
//! further so that shifting inside the region can never create overlaps with cells outside it.
//! Unlegalized cells other than the target are ignored — they will be handled when their own
//! turn comes.

use flex_placement::cell::CellId;
use flex_placement::geom::{Interval, Rect};
use flex_placement::layout::Design;
use flex_placement::segment::SegmentMap;
use serde::{Deserialize, Serialize};

/// The longest unblocked run of sites of one row inside the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalSegment {
    /// Row index.
    pub row: i64,
    /// Site interval of the segment.
    pub span: Interval,
}

/// A legalized movable cell fully contained in the localSegments of the window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalCell {
    /// Identity of the cell in the design.
    pub id: CellId,
    /// Current left edge (site).
    pub x: i64,
    /// Bottom row.
    pub y: i64,
    /// Width in sites.
    pub width: i64,
    /// Height in rows; a localCell of height `h` contributes `h` subcells, one per row.
    pub height: i64,
    /// Global-placement x, against which displacement is accumulated.
    pub gx: f64,
}

impl LocalCell {
    /// Rows spanned by the cell.
    pub fn rows(&self) -> impl Iterator<Item = i64> {
        self.y..self.y + self.height
    }

    /// Right edge (exclusive).
    pub fn right(&self) -> i64 {
        self.x + self.width
    }
}

/// A localRegion: the window, its localSegments and localCells.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalRegion {
    /// The target cell this region was built for.
    pub target: CellId,
    /// The window rectangle.
    pub window: Rect,
    /// One localSegment per covered row, sorted by row (rows without usable sites are absent).
    pub segments: Vec<LocalSegment>,
    /// The localCells, in design order.
    pub cells: Vec<LocalCell>,
    /// Region density: localCell area / segment free area (used by the processing ordering).
    pub density: f64,
}

/// Row-bucketed index of legalized movable cells, the obstacle candidates of
/// [`LocalRegion::extract_indexed`] and of the fallback scan.
///
/// Scanning every design cell per extraction makes legalization O(n²); this index cuts the
/// candidate set to the cells actually occupying the window's rows. During a legalization run
/// membership is write-once: a legalized cell's bottom row and height never change afterwards
/// (commits only shift cells in x), so the run only needs [`LegalizedIndex::insert`]. ECO
/// deltas do change row membership (a cell moves rows, resizes, or is removed); they use the
/// point mutations [`LegalizedIndex::remove_cell`] / [`LegalizedIndex::insert_cell`], which
/// keep the index equal to a full rebuild.
#[derive(Debug, Clone)]
pub struct LegalizedIndex {
    rows: Vec<Vec<CellId>>,
}

impl LegalizedIndex {
    /// Build the index over the design's currently legalized movable cells.
    pub fn build(design: &Design) -> Self {
        let mut index = Self {
            rows: vec![Vec::new(); design.num_rows.max(0) as usize],
        };
        for c in design.cells.iter().filter(|c| !c.fixed && c.legalized) {
            index.insert_rows(c.id, c.y, c.height, design.num_rows);
        }
        index
    }

    /// Register a newly legalized cell under its current rows.
    pub fn insert(&mut self, design: &Design, id: CellId) {
        let c = design.cell(id);
        self.insert_rows(id, c.y, c.height, design.num_rows);
    }

    fn insert_rows(&mut self, id: CellId, y: i64, height: i64, num_rows: i64) {
        for row in y.max(0)..(y + height).min(num_rows) {
            self.rows[row as usize].push(id);
        }
    }

    /// Register a cell spanning rows `[y, y + height)`, keeping each row bucket identical to
    /// what a full rebuild would produce.
    ///
    /// [`LegalizedIndex::build`] visits cells in design order, which is ascending-id order,
    /// so every bucket is id-sorted; inserting at the id's sort position preserves that.
    /// O(bucket) per row — the buckets ECO touches hold a handful of neighborhood cells, not
    /// the design.
    pub fn insert_cell(&mut self, id: CellId, y: i64, height: i64) {
        let num_rows = self.rows.len() as i64;
        for row in y.max(0)..(y + height).min(num_rows) {
            let bucket = &mut self.rows[row as usize];
            let at = bucket.partition_point(|&other| other.0 < id.0);
            if bucket.get(at) != Some(&id) {
                bucket.insert(at, id);
            }
        }
    }

    /// Remove a cell from the buckets of rows `[y, y + height)` — the rows it occupied
    /// *before* the mutating delta. A no-op for rows it was never registered under.
    pub fn remove_cell(&mut self, id: CellId, y: i64, height: i64) {
        let num_rows = self.rows.len() as i64;
        for row in y.max(0)..(y + height).min(num_rows) {
            self.rows[row as usize].retain(|&other| other != id);
        }
    }

    /// Ids of the legalized cells occupying one row (multi-row cells appear on every row they
    /// span), in insertion order.
    pub fn cells_in_row(&self, row: i64) -> &[CellId] {
        if row < 0 || row as usize >= self.rows.len() {
            &[]
        } else {
            &self.rows[row as usize]
        }
    }

    /// Ids of legalized cells occupying any row in `[y_lo, y_hi)`, deduplicated, in design
    /// order (the order a full scan of the design would visit them).
    pub fn candidates(&self, y_lo: i64, y_hi: i64) -> Vec<CellId> {
        let mut ids: Vec<CellId> = Vec::new();
        for row in y_lo.max(0)..y_hi.min(self.rows.len() as i64) {
            ids.extend_from_slice(&self.rows[row as usize]);
        }
        ids.sort_by_key(|id| id.0);
        ids.dedup();
        ids
    }

    /// Audit rows `[row_lo, row_hi)` against `design`: compare each bucket with what
    /// [`LegalizedIndex::build`] would put there (id-sorted, one entry per row a legalized
    /// movable cell spans) without rebuilding it. One pass over the design counts each
    /// row's expected bucket size (a difference array over the slice); a bucket equals the
    /// rebuilt one iff its size matches, its ids are strictly ascending, and each id names
    /// a legalized movable cell that spans the row (ids index `design.cells`, as
    /// [`Design::validate_invariants`] guarantees). `Err` names the first diverging row —
    /// the invariant-scrubber's typed corruption evidence. O(cells + audited buckets), with
    /// one allocation per audit.
    pub fn audit_rows(&self, design: &Design, row_lo: i64, row_hi: i64) -> Result<(), String> {
        let num_rows = design.num_rows.max(0);
        if self.rows.len() as i64 != num_rows {
            return Err(format!(
                "index has {} row buckets, design has {num_rows} rows",
                self.rows.len()
            ));
        }
        let lo = row_lo.clamp(0, num_rows);
        let hi = row_hi.clamp(lo, num_rows);
        let mut size_delta = vec![0i64; (hi - lo) as usize + 1];
        for c in design.cells.iter().filter(|c| !c.fixed && c.legalized) {
            let (first, end) = (c.y.max(lo), (c.y + c.height).min(hi));
            if first < end {
                size_delta[(first - lo) as usize] += 1;
                size_delta[(end - lo) as usize] -= 1;
            }
        }
        let mut want = 0;
        for (row, delta) in (lo..hi).zip(size_delta) {
            want += delta;
            let got = &self.rows[row as usize];
            let spans_row = |id: &CellId| {
                design.cells.get(id.index()).is_some_and(|c| {
                    c.id == *id && !c.fixed && c.legalized && c.y <= row && row < c.y + c.height
                })
            };
            if got.len() as i64 != want
                || !got.windows(2).all(|pair| pair[0].0 < pair[1].0)
                || !got.iter().all(spans_row)
            {
                return Err(format!(
                    "row {row} bucket diverges from the design: {} ids indexed, {want} expected",
                    got.len()
                ));
            }
        }
        Ok(())
    }
}

impl LocalRegion {
    /// Extract the localRegion of `target` within `window`, taking obstacle candidates from a
    /// [`LegalizedIndex`]: the legalized movable cells other than the target on the window's
    /// rows, in design order.
    ///
    /// Linear in the obstacle candidates plus the (obstacle, window row) pairs they span:
    /// segments live in a table indexed by window row, each row's obstacles are bucketed once
    /// in obstacle order, and the local/blocking split is a mask, so no step searches a list
    /// per cell or per segment.
    pub fn extract_indexed(
        design: &Design,
        segments: &SegmentMap,
        target: CellId,
        window: Rect,
        index: &LegalizedIndex,
    ) -> Self {
        let win_x = window.x_interval();
        let row_lo = window.y_lo.max(0);
        let row_hi = window.y_hi.min(design.num_rows).max(row_lo);
        // 1. one candidate segment per row: the widest free interval clipped to the window,
        //    stored at `row - row_lo` (`None` once a row has no usable sites).
        let mut spans: Vec<Option<Interval>> = (row_lo..row_hi)
            .map(|row| segments.widest_in_window(row, &win_x).map(|s| s.span))
            .collect();
        let span_at = |spans: &[Option<Interval>], row: i64| {
            if row < row_lo || row >= row_hi {
                None
            } else {
                spans[(row - row_lo) as usize]
            }
        };

        // Obstacle candidates: legalized movable cells overlapping the window widened by one
        // site. Every segment is clipped to the window, so no other cell can touch one.
        let probe = window.expanded(1, 0);
        let obstacles: Vec<&flex_placement::cell::Cell> = index
            .candidates(window.y_lo, window.y_hi)
            .into_iter()
            .filter(|&id| id != target)
            .map(|id| design.cell(id))
            .filter(|c| c.rect().overlaps(&probe))
            .collect();
        let mut row_obstacles: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, c) in obstacles.iter().enumerate() {
            for row in c.y.max(row_lo)..(c.y + c.height).min(row_hi) {
                row_obstacles[(row - row_lo) as usize].push(i);
            }
        }

        // 2./3. iterate: classify cells as local (fully inside) or blocking (partially inside);
        // blocking cells carve the segments, which may demote further cells. The local set is
        // taken before each carve, so after a fourth carve it describes the previous segments;
        // regions stay byte-identical to earlier releases only with this order kept.
        let mut local = vec![false; obstacles.len()];
        for _ in 0..4 {
            for (is_local, c) in local.iter_mut().zip(&obstacles) {
                let x = c.x_interval();
                *is_local = c
                    .rows()
                    .all(|r| span_at(&spans, r).is_some_and(|s| s.contains_interval(&x)));
            }
            // carve each segment with the non-local obstacles on its row, keeping the widest
            // remaining piece (the last of equally wide ones)
            let mut changed = false;
            for (span, ids) in spans.iter_mut().zip(&row_obstacles) {
                let Some(seg) = *span else { continue };
                let mut pieces = vec![seg];
                for &i in ids.iter().filter(|&&i| !local[i]) {
                    let cut = obstacles[i].x_interval();
                    pieces = pieces.iter().flat_map(|p| p.subtract(&cut)).collect();
                }
                let best = pieces.into_iter().max_by_key(|p| p.len());
                *span = best.filter(|b| !b.is_empty());
                changed |= *span != Some(seg);
            }
            if !changed {
                break;
            }
        }

        let cells: Vec<LocalCell> = obstacles
            .iter()
            .zip(&local)
            .filter(|(_, &is_local)| is_local)
            .map(|(c, _)| LocalCell {
                id: c.id,
                x: c.x,
                y: c.y,
                width: c.width,
                height: c.height,
                gx: c.gx,
            })
            .collect();
        let local_segments: Vec<LocalSegment> = (row_lo..)
            .zip(spans)
            .filter_map(|(row, span)| span.map(|span| LocalSegment { row, span }))
            .collect();

        let free: i64 = local_segments.iter().map(|s| s.span.len()).sum();
        let used: i64 = cells.iter().map(|c| c.width * c.height).sum();
        let density = if free > 0 {
            used as f64 / free as f64
        } else {
            1.0
        };

        Self {
            target,
            window,
            segments: local_segments,
            cells,
            density,
        }
    }

    /// The localSegment of `row`, if any.
    pub fn segment(&self, row: i64) -> Option<&LocalSegment> {
        self.segment_index(row).map(|i| &self.segments[i])
    }

    /// Index (into [`Self::segments`]) of the localSegment covering `row`, if any.
    ///
    /// Relies on the [`Self::segments`] invariant (sorted by ascending row — established by
    /// every extractor and required of hand-built regions) to binary-search; the FOP hot
    /// path calls it once per subcell when building its per-region row index. On a region
    /// violating the invariant the lookup may miss rows that do have a segment
    /// ([`ShiftScratch::begin_region`](crate::shift::ShiftScratch::begin_region) asserts
    /// sortedness in debug builds).
    pub fn segment_index(&self, row: i64) -> Option<usize> {
        self.segments.binary_search_by_key(&row, |s| s.row).ok()
    }

    /// Rows that have a localSegment, in ascending order.
    pub fn rows(&self) -> Vec<i64> {
        self.segments.iter().map(|s| s.row).collect()
    }

    /// Indices (into [`Self::cells`]) of localCells occupying `row`, sorted by x.
    pub fn cells_in_row(&self, row: i64) -> Vec<usize> {
        let mut v = Vec::new();
        self.cells_in_row_into(row, &mut v);
        v
    }

    /// [`Self::cells_in_row`] writing into a caller-provided buffer (cleared first), so hot
    /// paths can reuse the allocation across rows and regions.
    pub fn cells_in_row_into(&self, row: i64, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.cells
                .iter()
                .enumerate()
                .filter(|(_, c)| c.rows().any(|r| r == row))
                .map(|(i, _)| i),
        );
        out.sort_by_key(|&i| self.cells[i].x);
    }

    /// Number of localCells strictly taller than `rows` rows (drives the Fig. 9 bandwidth study).
    pub fn num_tall_cells(&self, rows: i64) -> usize {
        self.cells.iter().filter(|c| c.height > rows).count()
    }

    /// Whether the region could possibly host a cell of `width × height` starting at a row with
    /// the given parity (a cheap necessary condition used before enumerating insertion points).
    pub fn can_host(&self, width: i64, height: i64, parity: Option<u8>) -> bool {
        let rows = self.rows();
        for &r in &rows {
            if let Some(p) = parity {
                if r.rem_euclid(2) as u8 != p {
                    continue;
                }
            }
            let mut ok = true;
            for rr in r..r + height {
                match self.segment(rr) {
                    Some(s) if s.span.len() >= width => {}
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                return true;
            }
        }
        false
    }
}

/// Build the legalization window for a target cell: a rectangle centred on the cell's pre-moved
/// position, `half_sites` wide and `half_rows` tall on each side, clipped to the die.
pub fn target_window(design: &Design, target: CellId, half_sites: i64, half_rows: i64) -> Rect {
    let c = design.cell(target);
    let cx = c.x + c.width / 2;
    let cy = c.y + c.height / 2;
    Rect::new(
        (cx - half_sites).max(0),
        (cy - half_rows).max(0),
        (cx + half_sites).min(design.num_sites_x),
        (cy + half_rows + c.height).min(design.num_rows),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_placement::cell::Cell;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A 60x6 design with a fixed macro and a few legalized cells.
    fn design() -> Design {
        let mut d = Design::new("region", 60, 6);
        d.add_cell(Cell::fixed(CellId(0), 10, 6, 25, 0)); // macro splitting every row
        let mut a = Cell::movable(CellId(0), 4, 1, 2.0, 1.0);
        a.x = 2;
        a.y = 1;
        a.legalized = true;
        d.add_cell(a);
        let mut b = Cell::movable(CellId(0), 6, 2, 10.0, 1.0);
        b.x = 10;
        b.y = 1;
        b.legalized = true;
        d.add_cell(b);
        // an unlegalized target cell
        let mut t = Cell::movable(CellId(0), 5, 1, 8.0, 2.0);
        t.x = 8;
        t.y = 2;
        d.add_cell(t);
        d
    }

    #[test]
    fn extract_collects_segments_and_local_cells() {
        let d = design();
        let segmap = SegmentMap::build(&d);
        let window = Rect::new(0, 0, 25, 4);
        let region = LocalRegion::extract_indexed(
            &d,
            &segmap,
            CellId(3),
            window,
            &LegalizedIndex::build(&d),
        );
        // rows 0..4, each clipped at the macro (x<25): full [0,25)
        assert_eq!(region.segments.len(), 4);
        for s in &region.segments {
            assert_eq!(s.span, Interval::new(0, 25));
        }
        // both legalized cells are inside
        let ids: Vec<CellId> = region.cells.iter().map(|c| c.id).collect();
        assert!(ids.contains(&CellId(1)));
        assert!(ids.contains(&CellId(2)));
        // the unlegalized target is not a localCell
        assert!(!ids.contains(&CellId(3)));
        assert!(region.density > 0.0 && region.density < 1.0);
    }

    #[test]
    fn partially_covered_cells_become_blockers() {
        let d = design();
        let segmap = SegmentMap::build(&d);
        // window cuts through cell 2 (x in [10,16)): it is not fully contained
        let window = Rect::new(0, 0, 13, 4);
        let region = LocalRegion::extract_indexed(
            &d,
            &segmap,
            CellId(3),
            window,
            &LegalizedIndex::build(&d),
        );
        let ids: Vec<CellId> = region.cells.iter().map(|c| c.id).collect();
        assert!(!ids.contains(&CellId(2)));
        // rows 1 and 2 must exclude the blocker's span [10,16): the longest piece is [0,10)
        let s1 = region.segment(1).unwrap();
        assert!(s1.span.hi <= 10);
        // row 0 is untouched by the blocker
        assert_eq!(region.segment(0).unwrap().span, Interval::new(0, 13));
    }

    #[test]
    fn cells_in_row_are_sorted_by_x() {
        let d = design();
        let segmap = SegmentMap::build(&d);
        let region = LocalRegion::extract_indexed(
            &d,
            &segmap,
            CellId(3),
            Rect::new(0, 0, 25, 4),
            &LegalizedIndex::build(&d),
        );
        let row1 = region.cells_in_row(1);
        assert_eq!(row1.len(), 2);
        assert!(region.cells[row1[0]].x <= region.cells[row1[1]].x);
        assert_eq!(region.cells_in_row(2).len(), 1); // only the 2-row cell reaches row 2
        assert!(region.cells_in_row(5).is_empty());
    }

    #[test]
    fn can_host_respects_width_height_and_parity() {
        let d = design();
        let segmap = SegmentMap::build(&d);
        let region = LocalRegion::extract_indexed(
            &d,
            &segmap,
            CellId(3),
            Rect::new(0, 0, 25, 4),
            &LegalizedIndex::build(&d),
        );
        assert!(region.can_host(5, 1, None));
        assert!(region.can_host(5, 2, Some(0)));
        assert!(!region.can_host(26, 1, None));
        assert!(!region.can_host(5, 5, None)); // only 4 rows in the window
    }

    #[test]
    fn target_window_is_clipped_to_die() {
        let d = design();
        let w = target_window(&d, CellId(3), 100, 100);
        assert_eq!(w, Rect::new(0, 0, 60, 6));
        let w2 = target_window(&d, CellId(3), 5, 1);
        assert!(w2.x_lo >= 0 && w2.x_hi <= 60);
        assert!(w2.width() >= 5);
    }

    #[test]
    fn point_mutations_match_full_rebuild() {
        let mut d = Design::new("idx-mut", 64, 32);
        for i in 0..60i64 {
            let mut c = Cell::movable(CellId(0), 4, 1 + (i % 3), 0.0, 0.0);
            c.x = (i * 7) % 60;
            c.y = (i * 11) % 28;
            c.legalized = true;
            d.add_cell(c);
        }
        let mut index = LegalizedIndex::build(&d);

        // remove a mid-id multi-row cell, move it to new rows, re-insert
        let id = CellId(17);
        let (old_y, h) = (d.cell(id).y, d.cell(id).height);
        index.remove_cell(id, old_y, h);
        d.cells[id.index()].y = (old_y + 9) % 28;
        index.insert_cell(id, d.cell(id).y, h);

        // retire another cell entirely
        let gone = CellId(41);
        index.remove_cell(gone, d.cell(gone).y, d.cell(gone).height);
        d.cells[gone.index()].legalized = false;

        let rebuilt = LegalizedIndex::build(&d);
        for row in 0..d.num_rows {
            assert_eq!(
                index.cells_in_row(row),
                rebuilt.cells_in_row(row),
                "row {row} bucket diverged from rebuild after point mutations"
            );
        }

        // double-insert is idempotent, remove of unregistered rows is a no-op
        index.insert_cell(id, d.cell(id).y, h);
        index.remove_cell(gone, 0, d.num_rows);
        for row in 0..d.num_rows {
            assert_eq!(index.cells_in_row(row), rebuilt.cells_in_row(row));
        }
    }

    /// The allocating audit [`LegalizedIndex::audit_rows`] replaced, kept as its oracle:
    /// rebuild every audited bucket from the design and compare whole vectors.
    fn audit_rows_by_rebuild(
        index: &LegalizedIndex,
        design: &Design,
        row_lo: i64,
        row_hi: i64,
    ) -> Result<(), String> {
        let num_rows = design.num_rows.max(0);
        if index.rows.len() as i64 != num_rows {
            return Err(format!(
                "index has {} row buckets, design has {num_rows} rows",
                index.rows.len()
            ));
        }
        let lo = row_lo.clamp(0, num_rows);
        let hi = row_hi.clamp(lo, num_rows);
        let mut expected: Vec<Vec<CellId>> = vec![Vec::new(); (hi - lo) as usize];
        for c in design.cells.iter().filter(|c| !c.fixed && c.legalized) {
            for row in c.y.max(lo)..(c.y + c.height).min(hi) {
                expected[(row - lo) as usize].push(c.id);
            }
        }
        for (offset, want) in expected.iter().enumerate() {
            let row = lo + offset as i64;
            let got = &index.rows[row as usize];
            if got != want {
                return Err(format!(
                    "row {row} bucket diverges from the design: {} ids indexed, {} expected",
                    got.len(),
                    want.len()
                ));
            }
        }
        Ok(())
    }

    /// A seeded random design for the index audit: macros, single- and multi-row movable
    /// cells (some hanging past the die, some not legalized) and tombstones.
    fn random_index_design(rng: &mut StdRng) -> Design {
        let rows = rng.random_range(3..40i64);
        let mut d = Design::new("idx-audit", 80, rows);
        for _ in 0..rng.random_range(1..(rows * 4) as u64) {
            let (w, h) = (rng.random_range(1..8i64), rng.random_range(1..5i64));
            let mut c = if rng.random::<f64>() < 0.1 {
                Cell::fixed(CellId(0), w * 3, h, 0, 0)
            } else {
                Cell::movable(CellId(0), w, h, 0.0, 0.0)
            };
            c.x = rng.random_range(-2..80i64);
            c.y = rng.random_range(-2..rows + 1);
            c.legalized = c.fixed || rng.random::<f64>() < 0.8;
            let id = d.add_cell(c);
            if rng.random::<f64>() < 0.05 {
                d.tombstone_cell(id);
            }
        }
        d
    }

    #[test]
    fn audit_differential_agrees_with_the_rebuilding_audit() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut diverged = 0;
        for seed in 0..300 {
            let d = random_index_design(&mut rng);
            let clean = LegalizedIndex::build(&d);
            let num_cells = d.cells.len() as u32;
            let mut indexes = vec![clean.clone()];
            let damage = |index: &mut LegalizedIndex, rng: &mut StdRng| {
                let row = rng.random_range(0..index.rows.len());
                let bucket = &mut index.rows[row];
                let n = bucket.len();
                match rng.random_range(0..6u32) {
                    // a dropped id
                    0 if n > 0 => {
                        bucket.remove(rng.random_range(0..n));
                    }
                    // a duplicated id
                    1 if n > 0 => {
                        let at = rng.random_range(0..n);
                        bucket.insert(at, bucket[at]);
                    }
                    // an out-of-order pair
                    2 if n > 1 => bucket.swap(0, rng.random_range(1..n)),
                    // a foreign id: any cell, spanning the row or not, legalized or not
                    3 if n > 0 => {
                        bucket[rng.random_range(0..n)] = CellId(rng.random_range(0..num_cells))
                    }
                    // an out-of-range id
                    4 => bucket.push(CellId(num_cells + rng.random_range(0..3u32))),
                    // a foreign id in sort position
                    _ => {
                        let id = CellId(rng.random_range(0..num_cells));
                        let at = bucket.partition_point(|other| other.0 < id.0);
                        bucket.insert(at, id);
                    }
                }
            };
            for corruptions in [1, 1, 1, 1, 2, 3] {
                let mut index = clean.clone();
                for _ in 0..corruptions {
                    damage(&mut index, &mut rng);
                }
                indexes.push(index);
            }
            // an index of a die with one row fewer
            let mut shorter = d.clone();
            shorter.num_rows -= 1;
            indexes.push(LegalizedIndex::build(&shorter));
            let rows = d.num_rows;
            let mut ranges = vec![
                (0, 0),
                (4, 2),
                (-3, 2),
                (rows - 1, rows + 4),
                (-6, -1),
                (rows + 1, rows + 3),
                (0, rows),
                (-1, rows + 1),
            ];
            for _ in 0..6 {
                let lo = rng.random_range(-4..rows + 4);
                ranges.push((lo, lo + rng.random_range(-2..rows + 2)));
            }
            for (i, index) in indexes.iter().enumerate() {
                for &(lo, hi) in &ranges {
                    let want = audit_rows_by_rebuild(index, &d, lo, hi);
                    diverged += usize::from(want.is_err());
                    assert_eq!(
                        index.audit_rows(&d, lo, hi),
                        want,
                        "seed {seed}, index {i}, rows [{lo}, {hi})"
                    );
                }
            }
        }
        assert!(diverged > 3_000, "the corruptions must be seen: {diverged}");
    }

    #[test]
    fn tall_cell_count() {
        let d = design();
        let segmap = SegmentMap::build(&d);
        let region = LocalRegion::extract_indexed(
            &d,
            &segmap,
            CellId(3),
            Rect::new(0, 0, 25, 4),
            &LegalizedIndex::build(&d),
        );
        assert_eq!(region.num_tall_cells(1), 1); // the 2-row cell
        assert_eq!(region.num_tall_cells(3), 0);
    }
}
