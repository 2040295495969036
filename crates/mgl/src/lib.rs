//! # flex-mgl — Multi-row Global Legalization
//!
//! A from-scratch implementation of the MGL mixed-cell-height legalization algorithm
//! (Li et al., TCAD'22 \[18\] in the paper's references), the algorithmic substrate that FLEX
//! accelerates. The flow follows Fig. 3(e) of the paper:
//!
//! 1. **input & pre-move** — snap cells to their nearest designated rows (tolerating overlaps),
//! 2. **process ordering** — decide the order in which unlegalized target cells are handled,
//! 3. **define localRegion** — extract the localSegments / localCells around the target,
//! 4. **FOP** — find the optimal placement position by evaluating every insertion point with
//!    displacement curves, and
//! 5. **insert & update** — commit the target and shift the affected cells.
//!
//! Modules:
//!
//! * [`config`] — tuning knobs selecting the shifting algorithm and the ordering.
//! * [`region`] — windows, localSegments, localCells and localRegions (Sec. 2.2.1).
//! * [`insertion`] — insertion intervals and insertion points (Sec. 2.2.2).
//! * [`curve`] — displacement curves and breakpoints (Sec. 2.2.3).
//! * [`shift`] — the original multi-pass cell-shifting algorithm (Fig. 6, Algorithm 3).
//! * [`sacs`] — the Sort-Ahead Cell Shifting algorithm of FLEX (Fig. 6, Algorithm 4).
//! * [`fop`] — finding the optimal placement position, with the reorganized
//!   bidirectional-traversal breakpoint chain (Fig. 5).
//! * [`ordering`] — processing-order strategies, including FLEX's sliding-window ordering.
//! * [`stats`] — operator-level runtime statistics and the work trace consumed by the FPGA
//!   performance model in `flex-core`.
//! * [`legalize`] — the end-to-end MGL legalizer.
//! * [`parallel`] — the deterministic parallel engine built on top of it.
//! * [`api`] — the unified [`api::Legalizer`] trait + [`api::LegalizeReport`] every engine in
//!   the workspace (including the baselines and the FLEX accelerator) implements.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod config;
pub mod curve;
pub mod fop;
pub mod insertion;
pub mod legalize;
pub mod ordering;
pub mod parallel;
pub mod region;
pub mod sacs;
pub mod shift;
pub mod stats;

pub use api::{DisplacementSummary, LegalizeReport, Legalizer, RuntimeBreakdown};
pub use config::{MglConfig, OrderingStrategy, ShiftAlgorithm};
pub use fop::FopScratch;
pub use legalize::{LegalizeResult, MglLegalizer};
pub use parallel::{ParallelLegalizeResult, ParallelMglLegalizer, ShardStats};
pub use region::{LocalCell, LocalRegion, LocalSegment};
pub use stats::{FopOpStats, RegionWork, WorkTrace};
