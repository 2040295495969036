//! Placement rows and power-rail configuration.
//!
//! The die is a uniform grid of `num_rows` rows, each `num_sites_x` sites wide. Adjacent rows
//! share a power rail whose polarity alternates (VDD / VSS), which is what gives rise to the
//! P/G alignment constraint for even-height cells described in Fig. 1 of the paper.

/// Power-rail polarity at the *bottom* edge of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rail {
    /// The bottom rail of the row is the power net (VDD).
    Vdd,
    /// The bottom rail of the row is the ground net (VSS).
    Vss,
}

impl Rail {
    /// Rail polarity of row `row` given that row 0 has `base` at its bottom edge.
    pub fn of_row(row: i64, base: Rail) -> Rail {
        if row.rem_euclid(2) == 0 {
            base
        } else {
            base.flipped()
        }
    }

    /// The opposite polarity.
    pub fn flipped(&self) -> Rail {
        match self {
            Rail::Vdd => Rail::Vss,
            Rail::Vss => Rail::Vdd,
        }
    }
}

/// A single placement row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Row index (0 = bottom row).
    pub index: i64,
    /// First site of the row (always 0 in the uniform dies used here, kept for generality).
    pub x_start: i64,
    /// Number of placement sites in the row.
    pub num_sites: i64,
    /// Polarity of the rail at the bottom edge of this row.
    pub rail: Rail,
}

impl Row {
    /// Create a row.
    pub fn new(index: i64, x_start: i64, num_sites: i64, rail: Rail) -> Self {
        Self {
            index,
            x_start,
            num_sites,
            rail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rail_alternates_per_row() {
        assert_eq!(Rail::of_row(0, Rail::Vdd), Rail::Vdd);
        assert_eq!(Rail::of_row(1, Rail::Vdd), Rail::Vss);
        assert_eq!(Rail::of_row(2, Rail::Vdd), Rail::Vdd);
        assert_eq!(Rail::of_row(7, Rail::Vss), Rail::Vdd);
        // negative rows still alternate consistently
        assert_eq!(Rail::of_row(-1, Rail::Vdd), Rail::Vss);
        assert_eq!(Rail::of_row(-2, Rail::Vdd), Rail::Vdd);
    }

    #[test]
    fn flipping_twice_is_identity() {
        assert_eq!(Rail::Vdd.flipped().flipped(), Rail::Vdd);
        assert_eq!(Rail::Vss.flipped(), Rail::Vdd);
    }

    #[test]
    fn row_site_bounds() {
        let r = Row::new(3, 10, 100, Rail::Vss);
        assert_eq!((r.index, r.x_start, r.num_sites), (3, 10, 100));
        assert_eq!(r.rail, Rail::Vss);
    }
}
