//! # flex-fpga — cycle-approximate FPGA hardware model
//!
//! FLEX is evaluated on an AMD Alveo U50 running at 285 MHz. This crate substitutes that board
//! with a performance and resource model of the primitives the FLEX architecture is built from
//! (README's "Notes" say what the estimates are and are not):
//!
//! * [`clock`] — cycle counts and the PE clock's cycle-to-time conversion.
//! * [`sorter`] — insertion/merge hardware sorters (the Ahead Sorter of Fig. 4).
//! * [`pipeline`] — operator pipelines: normal (operator-at-a-time), fine-grained (stream I/O),
//!   and the coarse+fine *multi-granularity* composition of Sec. 3.2.
//! * [`resources`] — LUT/FF/BRAM/DSP accounting against the U50 budget (Table 2).
//! * [`link`] — the CPU↔FPGA transfer model (PCIe-attached accelerator card).
//!
//! The functional algorithms (MGL, SACS) execute for real in `flex-mgl`; this crate only
//! predicts how many cycles the FLEX architecture would need for the *same work*, which is what
//! the paper's normalized-speedup figures (Fig. 8, 9, 10) report.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod link;
pub mod pipeline;
pub mod resources;
pub mod sorter;

pub use clock::{ClockDomain, Cycles};
pub use link::LinkModel;
pub use pipeline::{
    fine_grained_cycles, multi_granularity_cycles, normal_pipeline_cycles, OperatorSpec,
};
pub use resources::{Resources, ALVEO_U50};
pub use sorter::SorterModel;
