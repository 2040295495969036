//! Legality checking.
//!
//! A placement is legal when every movable cell
//!
//! 1. lies fully inside the die,
//! 2. sits on integer site/row coordinates (guaranteed by construction here),
//! 3. satisfies its P/G row-parity constraint,
//! 4. does not overlap any other cell, fixed cell, or blockage.
//!
//! [`check_legality_with`] returns a [`LegalityReport`] enumerating every violation, which the
//! test suite and the experiment harness use to verify that each legalizer actually produces
//! legal results before its runtime/quality numbers are reported.

use crate::cell::CellId;
use crate::geom::Interval;
use crate::layout::Design;

/// A single legality violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The cell extends outside the die boundary.
    OutOfDie {
        /// Offending cell.
        cell: CellId,
    },
    /// The cell's bottom row violates its P/G parity constraint.
    ParityViolation {
        /// Offending cell.
        cell: CellId,
        /// Row the cell is currently placed on.
        row: i64,
    },
    /// Two cells overlap.
    CellOverlap {
        /// First cell (lower id).
        a: CellId,
        /// Second cell (higher id).
        b: CellId,
        /// Overlapping area in site·row units.
        area: i64,
    },
    /// A movable cell overlaps a blockage.
    BlockageOverlap {
        /// Offending cell.
        cell: CellId,
        /// Overlapping area in site·row units.
        area: i64,
    },
    /// A movable cell has not been legalized (the legalizer never placed it).
    NotLegalized {
        /// Offending cell.
        cell: CellId,
    },
}

/// The result of a legality check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LegalityReport {
    /// Every violation found.
    pub violations: Vec<Violation>,
    /// Total overlapping area among the violations.
    pub overlap_area: i64,
}

impl LegalityReport {
    /// Whether the placement is fully legal.
    pub fn is_legal(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Check the legality of every movable cell in the design.
///
/// `require_legalized_flag` additionally reports cells whose `legalized` flag is still false,
/// which is how the integration tests catch legalizers that silently skip cells.
pub fn check_legality_with(design: &Design, require_legalized_flag: bool) -> LegalityReport {
    let mut report = LegalityReport::default();
    let die = design.die();

    // per-row buckets of `(x-interval, id, fixed)`, one entry per subcell occupying the row
    let rows = design.num_rows.max(0) as usize;
    let mut per_row: Vec<Vec<(Interval, CellId, bool)>> = vec![Vec::new(); rows];

    for c in &design.cells {
        if !c.fixed {
            if !die.contains_rect(&c.rect()) {
                report.violations.push(Violation::OutOfDie { cell: c.id });
            }
            if !c.parity_ok(c.y) {
                report.violations.push(Violation::ParityViolation {
                    cell: c.id,
                    row: c.y,
                });
            }
            if require_legalized_flag && !c.legalized {
                report
                    .violations
                    .push(Violation::NotLegalized { cell: c.id });
            }
            // blockage overlap
            for b in &design.blockages {
                let area = c.rect().overlap_area(b);
                if area > 0 {
                    report
                        .violations
                        .push(Violation::BlockageOverlap { cell: c.id, area });
                    report.overlap_area += area;
                }
            }
        }
        for r in c.rows() {
            if r >= 0 && (r as usize) < rows {
                per_row[r as usize].push((c.x_interval(), c.id, c.fixed));
            }
        }
    }

    // Row-by-row sweep to find overlapping pairs; a multi-row overlap is reported once with the
    // full overlapping area (deduplicated via the ordered pair set).
    let mut seen: std::collections::HashSet<(CellId, CellId)> = std::collections::HashSet::new();
    for bucket in &mut per_row {
        bucket.sort_by_key(|(iv, _, _)| iv.lo);
        for i in 0..bucket.len() {
            let (a_iv, a_id, a_fixed) = bucket[i];
            for &(b_iv, b_id, b_fixed) in &bucket[i + 1..] {
                if b_iv.lo >= a_iv.hi {
                    break;
                }
                if a_fixed && b_fixed {
                    continue;
                }
                let (lo, hi) = if a_id <= b_id {
                    (a_id, b_id)
                } else {
                    (b_id, a_id)
                };
                if !seen.insert((lo, hi)) {
                    continue;
                }
                let a = design.cell(a_id);
                let b = design.cell(b_id);
                let area = a.rect().overlap_area(&b.rect());
                if area > 0 {
                    report
                        .violations
                        .push(Violation::CellOverlap { a: lo, b: hi, area });
                    report.overlap_area += area;
                }
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::geom::Rect;

    fn base() -> Design {
        Design::new("legal", 50, 6)
    }

    #[test]
    fn legal_design_has_no_violations() {
        let mut d = base();
        d.add_cell(Cell::fixed(CellId(0), 5, 2, 0, 0));
        let mut c = Cell::movable(CellId(0), 5, 1, 10.0, 1.0);
        c.legalized = true;
        d.add_cell(c);
        let rep = check_legality_with(&d, true);
        assert!(
            rep.is_legal(),
            "unexpected violations: {:?}",
            rep.violations
        );
        assert!(rep.violations.is_empty());
    }

    #[test]
    fn detects_overlap_between_movables() {
        let mut d = base();
        d.add_cell(Cell::movable(CellId(0), 6, 2, 10.0, 1.0));
        d.add_cell(Cell::movable(CellId(0), 6, 2, 13.0, 2.0));
        let rep = check_legality_with(&d, false);
        assert_eq!(rep.violations.len(), 1);
        match &rep.violations[0] {
            Violation::CellOverlap { a, b, area } => {
                assert_eq!((*a, *b), (CellId(0), CellId(1)));
                assert_eq!(*area, 3); // x overlap 3, y overlap 1
            }
            other => panic!("expected overlap, got {other:?}"),
        }
        assert_eq!(rep.overlap_area, 3);
    }

    #[test]
    fn detects_overlap_with_fixed_and_blockage() {
        let mut d = base();
        d.add_cell(Cell::fixed(CellId(0), 10, 3, 0, 0));
        d.add_cell(Cell::movable(CellId(0), 5, 1, 8.0, 1.0));
        d.add_blockage(Rect::new(30, 0, 40, 6));
        d.add_cell(Cell::movable(CellId(0), 5, 1, 28.0, 4.0));
        let rep = check_legality_with(&d, false);
        let kinds: Vec<_> = rep
            .violations
            .iter()
            .map(|v| match v {
                Violation::CellOverlap { .. } => "cell",
                Violation::BlockageOverlap { .. } => "blockage",
                _ => "other",
            })
            .collect();
        assert!(kinds.contains(&"cell"));
        assert!(kinds.contains(&"blockage"));
    }

    #[test]
    fn detects_out_of_die_and_parity() {
        let mut d = base();
        let mut c = Cell::movable(CellId(0), 10, 2, 45.0, 5.0);
        c.x = 45; // extends to 55 > 50
        c.y = 5; // height 2 extends to 7 > 6
        c.row_parity = Some(0);
        d.add_cell(c);
        let rep = check_legality_with(&d, false);
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, Violation::OutOfDie { .. })));
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ParityViolation { row: 5, .. })));
    }

    #[test]
    fn reports_unlegalized_cells_when_requested() {
        let mut d = base();
        d.add_cell(Cell::movable(CellId(0), 4, 1, 0.0, 0.0));
        let strict = check_legality_with(&d, true);
        assert!(strict
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NotLegalized { .. })));
        let lax = check_legality_with(&d, false);
        assert!(lax.is_legal());
    }

    #[test]
    fn tall_scatter_reports_each_overlapping_pair_once() {
        // a 600-row design seeded with every violation kind, including multi-row overlaps
        // the per-row sweep meets on several rows and must report once, with the full area
        let mut d = Design::new("legal-tall", 120, 600);
        d.add_blockage(Rect::new(100, 0, 120, 600));
        let add = |d: &mut Design, x: i64, y: i64, w: i64, h: i64, legalized: bool| {
            let mut c = Cell::movable(CellId(0), w, h, x as f64, y as f64);
            c.x = x;
            c.y = y;
            c.legalized = legalized;
            d.add_cell(c);
        };
        // deterministic pseudo-random scatter with deliberate collisions
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((state >> 17) % 110) as i64;
            let y = ((state >> 33) % 595) as i64;
            let w = 2 + ((state >> 7) % 6) as i64;
            let h = 1 + ((state >> 11) % 4) as i64;
            add(&mut d, x, y, w, h, !state.is_multiple_of(5));
        }

        // every overlapping pair by brute force, with its full overlap area
        let mut expected = std::collections::BTreeMap::new();
        let mut multi_row_pairs = 0;
        for (i, a) in d.cells.iter().enumerate() {
            for b in &d.cells[i + 1..] {
                let area = a.rect().overlap_area(&b.rect());
                if area > 0 {
                    expected.insert((a.id, b.id), area);
                    if a.rect().intersect(&b.rect()).height() > 1 {
                        multi_row_pairs += 1;
                    }
                }
            }
        }
        assert!(
            multi_row_pairs > 0,
            "the scatter must hold multi-row overlaps"
        );

        for require in [false, true] {
            let rep = check_legality_with(&d, require);
            assert!(!rep.is_legal(), "the scatter must contain violations");
            let mut reported = std::collections::BTreeMap::new();
            for v in &rep.violations {
                if let Violation::CellOverlap { a, b, area } = *v {
                    assert!(
                        reported.insert((a, b), area).is_none(),
                        "pair ({a:?}, {b:?}) reported twice (require_legalized_flag={require})"
                    );
                }
            }
            assert_eq!(reported, expected, "require_legalized_flag={require}");
            let unlegalized = d.cells.iter().filter(|c| !c.legalized).count();
            let flagged = rep
                .violations
                .iter()
                .filter(|v| matches!(v, Violation::NotLegalized { .. }))
                .count();
            assert_eq!(flagged, if require { unlegalized } else { 0 });
        }
    }

    #[test]
    fn fixed_fixed_overlap_is_ignored() {
        let mut d = base();
        d.add_cell(Cell::fixed(CellId(0), 10, 2, 0, 0));
        d.add_cell(Cell::fixed(CellId(0), 10, 2, 5, 0));
        let rep = check_legality_with(&d, false);
        assert!(rep.is_legal());
    }
}
