//! Power-rail configuration of the placement rows.
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
