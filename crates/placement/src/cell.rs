//! Standard cells.
//!
//! Each cell carries two positions:
//!
//! * its **global-placement** position `(gx, gy)` — a floating-point bottom-left corner produced
//!   by the global placer, which legalization must stay close to (Eq. (1) of the paper), and
//! * its **current** position `(x, y)` — integer site/row coordinates that the pre-move step and
//!   the legalizer update.
//!
//! Cell height is measured in row units (`height >= 1`); a cell of height `h` occupies `h`
//! vertically adjacent rows, mirroring the ICCAD 2017 multi-deck formulation. Even-height cells
//! additionally carry a power-rail parity constraint (see [`crate::row::Rail`]).

use crate::geom::{Interval, Rect};

/// Identifier of a cell: index into [`crate::layout::Design::cells`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CellId(pub u32);

impl CellId {
    /// The cell index as a `usize` for vector indexing.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A standard cell (possibly multi-row-height) or a fixed macro.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Stable identifier (index into the design's cell vector).
    pub id: CellId,
    /// Width in placement sites.
    pub width: i64,
    /// Height in rows (1 for single-row cells, >= 2 for multi-deck cells).
    pub height: i64,
    /// Global-placement x (site units, bottom-left corner).
    pub gx: f64,
    /// Global-placement y (row units, bottom-left corner).
    pub gy: f64,
    /// Current x position (site index, bottom-left corner).
    pub x: i64,
    /// Current y position (row index, bottom-left corner).
    pub y: i64,
    /// Whether the cell is fixed (macros / pre-placed blocks) and must never move.
    pub fixed: bool,
    /// Whether the legalizer has already committed this cell to a legal position.
    pub legalized: bool,
    /// Required parity of the bottom row (P/G alignment). `None` means any row is allowed
    /// (odd-height cells can always be flipped to match the rail).
    pub row_parity: Option<u8>,
}

impl Cell {
    /// Create a movable cell at a global-placement position.
    ///
    /// The current `(x, y)` starts at the rounded global position; the pre-move step of the
    /// legalization flow will snap it onto a designated row.
    pub fn movable(id: CellId, width: i64, height: i64, gx: f64, gy: f64) -> Self {
        let row_parity = if height % 2 == 0 {
            // Even-height cells must keep their power-rail orientation: constrain the bottom
            // row parity to the parity of the nearest row in the global placement.
            Some((gy.round() as i64).rem_euclid(2) as u8)
        } else {
            None
        };
        Self {
            id,
            width,
            height,
            gx,
            gy,
            x: gx.round() as i64,
            y: gy.round() as i64,
            fixed: false,
            legalized: false,
            row_parity,
        }
    }

    /// Create a fixed cell (macro / blockage-like obstacle) at an integer position.
    pub fn fixed(id: CellId, width: i64, height: i64, x: i64, y: i64) -> Self {
        Self {
            id,
            width,
            height,
            gx: x as f64,
            gy: y as f64,
            x,
            y,
            fixed: true,
            legalized: true,
            row_parity: None,
        }
    }

    /// Area in site·row units.
    pub fn area(&self) -> i64 {
        self.width * self.height
    }

    /// Bounding rectangle at the current position.
    pub fn rect(&self) -> Rect {
        Rect::from_size(self.x, self.y, self.width, self.height)
    }

    /// Bounding rectangle at the global-placement position (rounded down to integers).
    pub fn global_rect(&self) -> Rect {
        Rect::from_size(
            self.gx.floor() as i64,
            self.gy.floor() as i64,
            self.width,
            self.height,
        )
    }

    /// Horizontal span at the current position.
    pub fn x_interval(&self) -> Interval {
        Interval::new(self.x, self.x + self.width)
    }

    /// Vertical span (rows occupied) at the current position.
    pub fn y_interval(&self) -> Interval {
        Interval::new(self.y, self.y + self.height)
    }

    /// Rows occupied at the current position.
    pub fn rows(&self) -> impl Iterator<Item = i64> {
        self.y..self.y + self.height
    }

    /// Manhattan displacement between current and global-placement positions (Eq. (1)).
    pub fn displacement(&self) -> f64 {
        (self.x as f64 - self.gx).abs() + (self.y as f64 - self.gy).abs()
    }

    /// Whether placing the bottom of this cell on row `row` satisfies the P/G parity constraint.
    pub fn parity_ok(&self, row: i64) -> bool {
        match self.row_parity {
            None => true,
            Some(p) => row.rem_euclid(2) as u8 == p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movable_cell_starts_at_rounded_global_position() {
        let c = Cell::movable(CellId(0), 4, 2, 10.6, 3.4);
        assert_eq!(c.x, 11);
        assert_eq!(c.y, 3);
        assert!(!c.fixed);
        assert!(!c.legalized);
    }

    #[test]
    fn even_height_cells_get_parity_constraint() {
        let even = Cell::movable(CellId(0), 2, 2, 0.0, 5.2);
        assert_eq!(even.row_parity, Some(1));
        assert!(even.parity_ok(5));
        assert!(even.parity_ok(7));
        assert!(!even.parity_ok(4));

        let odd = Cell::movable(CellId(1), 2, 3, 0.0, 5.2);
        assert_eq!(odd.row_parity, None);
        assert!(odd.parity_ok(4));
        assert!(odd.parity_ok(5));
    }

    #[test]
    fn parity_handles_negative_rows() {
        let mut c = Cell::movable(CellId(0), 1, 2, 0.0, 0.0);
        c.row_parity = Some(1);
        assert!(c.parity_ok(-1));
        assert!(!c.parity_ok(-2));
    }

    #[test]
    fn displacement_is_manhattan() {
        let mut c = Cell::movable(CellId(0), 3, 1, 10.0, 4.0);
        c.x = 13;
        c.y = 2;
        assert_eq!(c.displacement(), 5.0);
    }

    #[test]
    fn geometry_accessors_are_consistent() {
        let c = Cell::fixed(CellId(7), 5, 3, 20, 10);
        assert_eq!(c.rect(), Rect::new(20, 10, 25, 13));
        assert_eq!(c.x_interval(), Interval::new(20, 25));
        assert_eq!(c.y_interval(), Interval::new(10, 13));
        assert_eq!(c.rows().collect::<Vec<_>>(), vec![10, 11, 12]);
        assert_eq!(c.area(), 15);
        assert!(c.fixed && c.legalized);
    }
}
