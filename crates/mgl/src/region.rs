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
use flex_placement::census::RowCensus;
use flex_placement::geom::{Interval, Rect};
use flex_placement::layout::{free_among, Design};
use flex_placement::segment::SegmentMap;

/// The longest unblocked run of sites of one row inside the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSegment {
    /// Row index.
    pub row: i64,
    /// Site interval of the segment.
    pub span: Interval,
}

/// A legalized movable cell fully contained in the localSegments of the window.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone)]
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

    /// Audit the census's rows against `design`, which the census was gathered from:
    /// compare each audited bucket with what [`LegalizedIndex::build`] would put there
    /// (id-sorted, one entry per row a legalized movable cell spans) without rebuilding it.
    /// A bucket equals the rebuilt one iff its size is the census's count of legalized
    /// movable cells spanning the row, its ids are strictly ascending, and each id names a
    /// legalized movable cell that spans the row (ids index `design.cells`, as
    /// [`Design::validate_invariants`] guarantees). `Err` names the first diverging row —
    /// the invariant-scrubber's typed corruption evidence. O(audited buckets): the census
    /// did the one pass over the design.
    pub fn audit(&self, design: &Design, census: &RowCensus) -> Result<(), String> {
        let num_rows = design.num_rows.max(0);
        if self.rows.len() as i64 != num_rows {
            return Err(format!(
                "index has {} row buckets, design has {num_rows} rows",
                self.rows.len()
            ));
        }
        for (row, want) in census.spanning() {
            let got = &self.rows[row as usize];
            let spans_row = |id: &CellId| {
                design.cells.get(id.index()).is_some_and(|c| {
                    c.id == *id && !c.fixed && c.legalized && c.y <= row && row < c.y + c.height
                })
            };
            if got.len() != want
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
    /// Each window row's bucket is read once and filtered by the window first: a bucket cell
    /// outside it costs one rectangle test, and only the hits are sorted into design order
    /// and deduplicated. The rest is linear in the obstacles plus the (obstacle, window row)
    /// pairs they span: segments live in a table indexed by window row, each row's obstacles
    /// are bucketed once in obstacle order, and the local/blocking split is a mask, so no
    /// step searches a list per cell or per segment.
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
        // site. Every segment is clipped to the window, so no other cell can touch one. Each
        // row bucket is filtered first; only the hits are sorted into design order and
        // deduplicated (a multi-row cell is a hit on every window row it spans).
        let probe = window.expanded(1, 0);
        let mut hits: Vec<CellId> = (row_lo..row_hi)
            .flat_map(|row| index.cells_in_row(row))
            .copied()
            .filter(|&id| id != target && design.cell(id).rect().overlaps(&probe))
            .collect();
        hits.sort_unstable_by_key(|id| id.0);
        hits.dedup();
        let obstacles: Vec<&flex_placement::cell::Cell> =
            hits.into_iter().map(|id| design.cell(id)).collect();
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
        let (mut cuts, mut pieces) = (Vec::new(), Vec::new());
        for _ in 0..4 {
            for (is_local, c) in local.iter_mut().zip(&obstacles) {
                let x = c.x_interval();
                *is_local = c
                    .rows()
                    .all(|r| span_at(&spans, r).is_some_and(|s| s.contains_interval(&x)));
            }
            // carve each segment with the non-local obstacles on its row, one sort and sweep
            // (`free_among`) into buffers reused across rows, keeping the widest remaining
            // piece (the last of equally wide ones)
            let mut changed = false;
            for (span, ids) in spans.iter_mut().zip(&row_obstacles) {
                let Some(seg) = *span else { continue };
                cuts.clear();
                cuts.extend(
                    ids.iter()
                        .filter(|&&i| !local[i])
                        .map(|&i| obstacles[i].x_interval()),
                );
                free_among(seg, &mut cuts, &mut pieces);
                *span = pieces.iter().copied().max_by_key(|p| p.len());
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
    /// every extractor and required of hand-built regions) to binary-search, as does
    /// [`Self::segment_range`], which the FOP hot path calls once per localCell when building
    /// its per-region row index. On a region violating the invariant the lookup may miss rows
    /// that do have a segment
    /// ([`ShiftScratch::begin_region`](crate::shift::ShiftScratch::begin_region) asserts
    /// sortedness in debug builds).
    pub fn segment_index(&self, row: i64) -> Option<usize> {
        self.segments.binary_search_by_key(&row, |s| s.row).ok()
    }

    /// Indices (into [`Self::segments`]) of the localSegments whose rows lie in `rows`. They
    /// are contiguous because the segments are sorted by row (the invariant
    /// [`Self::segment_index`] relies on); an empty or reversed `rows` gives an empty range.
    pub fn segment_range(&self, rows: std::ops::Range<i64>) -> std::ops::Range<usize> {
        let first_at_or_above = |row: i64| self.segments.partition_point(|s| s.row < row);
        let lo = first_at_or_above(rows.start);
        lo..first_at_or_above(rows.end).max(lo)
    }

    /// Rows that have a localSegment, in ascending order.
    pub fn rows(&self) -> Vec<i64> {
        self.segments.iter().map(|s| s.row).collect()
    }

    /// Indices (into [`Self::cells`]) of localCells occupying `row`, sorted by x (ties by
    /// index). The hot path reads the same lists from
    /// [`ShiftScratch::begin_region`](crate::shift::ShiftScratch::begin_region) instead.
    pub fn cells_in_row(&self, row: i64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.cells.len())
            .filter(|&i| self.cells[i].rows().any(|r| r == row))
            .collect();
        v.sort_by_key(|&i| self.cells[i].x);
        v
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

    /// The allocating per-range audit the census audit replaced, kept as its oracle: rebuild
    /// every audited bucket from the design and compare whole vectors.
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
            let mut sets: Vec<Vec<(i64, i64)>> = [
                (0, 0),
                (4, 2),
                (-3, 2),
                (rows - 1, rows + 4),
                (-6, -1),
                (rows + 1, rows + 3),
                (0, rows),
                (-1, rows + 1),
            ]
            .into_iter()
            .map(|range| vec![range])
            .collect();
            sets.push(Vec::new());
            // random sets: overlapping, touching, reversed and off-die ranges, any order
            for _ in 0..8 {
                let set = (0..rng.random_range(1..6u32))
                    .map(|_| {
                        let lo = rng.random_range(-4..rows + 4);
                        (lo, lo + rng.random_range(-2..rows / 2 + 3))
                    })
                    .collect::<Vec<_>>();
                let touching = set.iter().map(|&(_, hi)| (hi, hi + 2)).collect::<Vec<_>>();
                sets.push(set.into_iter().chain(touching).collect());
            }
            let bin_h = rng.random_range(1..10i64);
            for (i, index) in indexes.iter().enumerate() {
                for ranges in &sets {
                    let want = audit_over(ranges, rows, |lo, hi| {
                        audit_rows_by_rebuild(index, &d, lo, hi)
                    });
                    diverged += usize::from(want.is_err());
                    let census = RowCensus::gather(&d, ranges, (8, bin_h));
                    assert_eq!(
                        index.audit(&d, &census),
                        want,
                        "seed {seed}, index {i}, rows {ranges:?}"
                    );
                }
            }
        }
        assert!(diverged > 3_000, "the corruptions must be seen: {diverged}");
    }

    /// What the per-range `oracle` says of the rows of `ranges` on a `rows`-row die: its
    /// shape check (an empty range), then its verdict on each range clipped to the die, in
    /// ascending order, stopping at the first `Err` — the first divergence in row order.
    fn audit_over(
        ranges: &[(i64, i64)],
        rows: i64,
        mut oracle: impl FnMut(i64, i64) -> Result<(), String>,
    ) -> Result<(), String> {
        oracle(0, 0)?;
        let mut clipped: Vec<(i64, i64)> = ranges
            .iter()
            .map(|&(lo, hi)| (lo.clamp(0, rows), hi.clamp(0, rows)))
            .filter(|&(lo, hi)| lo < hi)
            .collect();
        clipped.sort_unstable();
        clipped.into_iter().try_for_each(|(lo, hi)| oracle(lo, hi))
    }
}
