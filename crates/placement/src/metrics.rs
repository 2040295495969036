//! Placement-quality metrics.
//!
//! The paper reports legalization quality as the *average displacement* `S_am` (Eq. (2)):
//! cells are grouped by height, the mean Manhattan displacement of each group is computed, and
//! the per-group means are averaged. Grouping by height prevents the (few) tall cells' large
//! displacements from being drowned out by the (many) single-row cells.

use crate::cell::CellId;
use crate::layout::Design;
use std::collections::BTreeMap;

/// Aggregated displacement statistics of a design.
#[derive(Debug, Clone, Default)]
pub struct DisplacementStats {
    /// `S_am` of Eq. (2): mean of per-height-group mean displacements.
    pub average: f64,
    /// Plain mean displacement over all movable cells.
    pub mean: f64,
    /// Maximum displacement over all movable cells.
    pub max: f64,
    /// Total displacement over all movable cells.
    pub total: f64,
    /// Per-height-group mean displacement, keyed by cell height in rows.
    pub per_height: BTreeMap<i64, f64>,
    /// The cell with the maximum displacement, if any movable cell exists.
    pub max_cell: Option<CellId>,
    /// Number of movable cells considered.
    pub num_cells: usize,
}

/// Compute the displacement statistics of all movable cells (Eq. (1)/(2) of the paper).
pub fn displacement_stats(design: &Design) -> DisplacementStats {
    let mut per_height: BTreeMap<i64, (f64, usize)> = BTreeMap::new();
    let mut stats = DisplacementStats::default();
    for c in design.cells.iter().filter(|c| !c.fixed) {
        let d = c.displacement();
        stats.total += d;
        stats.num_cells += 1;
        if d > stats.max {
            stats.max = d;
            stats.max_cell = Some(c.id);
        }
        let e = per_height.entry(c.height).or_insert((0.0, 0));
        e.0 += d;
        e.1 += 1;
    }
    if stats.num_cells > 0 {
        stats.mean = stats.total / stats.num_cells as f64;
    }
    for (h, (sum, n)) in &per_height {
        stats.per_height.insert(*h, sum / *n as f64);
    }
    if !stats.per_height.is_empty() {
        stats.average = stats.per_height.values().sum::<f64>() / stats.per_height.len() as f64;
    }
    stats
}

/// Convenience wrapper returning only `S_am` (Eq. (2)).
pub fn average_displacement(design: &Design) -> f64 {
    displacement_stats(design).average
}

/// Fraction of movable cells taller than `rows` rows (the grey line of Fig. 9).
pub fn tall_cell_fraction(design: &Design, rows: i64) -> f64 {
    let movable: Vec<_> = design.cells.iter().filter(|c| !c.fixed).collect();
    if movable.is_empty() {
        return 0.0;
    }
    movable.iter().filter(|c| c.height > rows).count() as f64 / movable.len() as f64
}

/// Histogram of movable-cell heights (height in rows → count).
pub fn height_histogram(design: &Design) -> BTreeMap<i64, usize> {
    let mut h = BTreeMap::new();
    for c in design.cells.iter().filter(|c| !c.fixed) {
        *h.entry(c.height).or_insert(0) += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;

    fn design() -> Design {
        let mut d = Design::new("m", 100, 10);
        // height-1 cells displaced by 1 and 3
        let mut a = Cell::movable(CellId(0), 2, 1, 10.0, 2.0);
        a.x = 11;
        let mut b = Cell::movable(CellId(0), 2, 1, 20.0, 2.0);
        b.x = 22;
        b.y = 3;
        // height-2 cell displaced by 4
        let mut c = Cell::movable(CellId(0), 2, 2, 30.0, 4.0);
        c.x = 34;
        // fixed cell ignored
        let f = Cell::fixed(CellId(0), 5, 5, 60, 0);
        d.add_cell(a);
        d.add_cell(b);
        d.add_cell(c);
        d.add_cell(f);
        d
    }

    #[test]
    fn sam_is_mean_of_group_means() {
        let d = design();
        let s = displacement_stats(&d);
        // group h=1: (1 + 3)/2 = 2 ; group h=2: 4 → S_am = 3
        assert_eq!(s.per_height[&1], 2.0);
        assert_eq!(s.per_height[&2], 4.0);
        assert_eq!(s.average, 3.0);
        assert_eq!(average_displacement(&d), 3.0);
        assert_eq!(s.num_cells, 3);
        assert_eq!(s.total, 8.0);
        assert!((s.mean - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.max_cell, Some(CellId(2)));
    }

    #[test]
    fn empty_design_yields_zero() {
        let d = Design::new("empty", 10, 10);
        let s = displacement_stats(&d);
        assert_eq!(s.average, 0.0);
        assert_eq!(s.num_cells, 0);
        assert!(s.max_cell.is_none());
    }

    #[test]
    fn tall_cell_fraction_counts_strictly_taller() {
        let mut d = Design::new("t", 100, 20);
        d.add_cell(Cell::movable(CellId(0), 2, 1, 0.0, 0.0));
        d.add_cell(Cell::movable(CellId(0), 2, 3, 0.0, 0.0));
        d.add_cell(Cell::movable(CellId(0), 2, 4, 0.0, 0.0));
        d.add_cell(Cell::movable(CellId(0), 2, 5, 0.0, 0.0));
        assert!((tall_cell_fraction(&d, 3) - 0.5).abs() < 1e-12);
        assert_eq!(tall_cell_fraction(&Design::new("e", 5, 5), 3), 0.0);
    }

    #[test]
    fn height_histogram_counts_movables_only() {
        let d = design();
        let h = height_histogram(&d);
        assert_eq!(h[&1], 2);
        assert_eq!(h[&2], 1);
        assert_eq!(h.get(&5), None);
    }
}
