//! # flex-placement — mixed-cell-height layout substrate
//!
//! This crate provides everything the FLEX legalization stack needs to describe a
//! mixed-cell-height standard-cell layout:
//!
//! * [`geom`] — integer/float geometry primitives (points, rectangles, intervals).
//! * [`cell`] — standard cells with global-placement and current positions.
//! * [`row`] — placement rows, sites and power-rail (P/G) parity.
//! * [`layout`] — the [`layout::Design`] container tying rows, cells and blockages together.
//! * [`segment`] — extraction of unblocked placement segments per row.
//! * [`density`] — bin-based density maps used by processing-ordering heuristics.
//! * [`netlist`] — a light-weight netlist for HPWL-style quality metrics.
//! * [`global_place`] — a global-placement simulator that produces realistic overlapping input.
//! * [`benchmark`] — a seeded synthetic benchmark generator.
//! * [`iccad2017`] — named specs mirroring the ICCAD 2017 contest cases used in the paper.
//! * [`store`] — epoch-tagged copy-on-write columns for mutable cell state (speculation).
//! * [`legality`] — legality checking (overlaps, sites, P/G alignment, die bounds).
//! * [`metrics`] — displacement metrics, including the paper's average displacement `S_am`.
//! * [`io`] — a plain-text interchange format (Bookshelf-like) for designs.
//! * [`snapshot`] — a checksummed binary snapshot format (bit-exact, for crash recovery).
//!
//! The paper evaluates on the ICCAD 2017 multi-deck legalization contest benchmarks, which are
//! not redistributable here; [`benchmark`] generates seeded synthetic designs that match the
//! published per-case statistics (cell count, density, mixed-height distribution) so that every
//! experiment in the paper can be re-run end to end. See `DESIGN.md` §1 for the substitution
//! rationale.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod benchmark;
pub mod cell;
pub mod density;
pub mod geom;
pub mod global_place;
pub mod iccad2017;
pub mod io;
pub mod layout;
pub mod legality;
pub mod metrics;
pub mod netlist;
pub mod row;
pub mod segment;
pub mod snapshot;
pub mod store;

pub use cell::{Cell, CellId};
pub use geom::{Interval, Rect};
pub use layout::Design;
pub use legality::{check_legality, LegalityReport, Violation};
pub use metrics::{average_displacement, DisplacementStats};
pub use row::{Rail, Row};
pub use segment::Segment;
pub use store::{CellState, Epoch, EpochCellStore, StoreSnapshot};
