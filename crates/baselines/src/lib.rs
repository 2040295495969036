//! # flex-baselines — the legalizers FLEX is compared against
//!
//! Table 1 of the paper compares FLEX with three systems; all of them are re-implemented here,
//! on top of the same layout substrate and (where applicable) the same MGL algorithm, so that
//! the comparison exercises the *algorithms*, not incidental implementation differences:
//!
//! * [`cpu`] — the single-threaded and multi-threaded CPU MGL legalizer (TCAD'22 \[18\] in the
//!   paper's references). The multi-threaded variant processes batches of non-overlapping
//!   localRegions in parallel, which is exactly the region-level parallelism whose saturation
//!   at ~8 threads Fig. 2(a) reports.
//! * [`cpu_gpu`] — the DATE'22 CPU-GPU legalizer \[30\]: brute-force parallel evaluation of
//!   single-row intervals on the GPU, tough (multi-row / failing) cells pushed to a CPU queue,
//!   with an explicit device-synchronization cost per batch (Fig. 2(b)/(c)).
//! * [`analytical`] — an ISPD'25 LEGALM-style purely analytical legalizer \[25\]: iterative
//!   row-assignment plus Abacus-style quadratic clustering per row under a multi-row consistency
//!   penalty, with a GPU throughput model.
//! * [`abacus`] — the classic single-row Abacus legalizer \[27\], used by the analytical baseline
//!   and as a reference for single-height designs.
//! * [`gpu_model`] — a simple GPU execution model (CUDA cores, kernel launch and synchronization
//!   overheads) shared by the GPU-based baselines.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod abacus;
pub mod analytical;
pub mod cpu;
pub mod cpu_gpu;
pub mod gpu_model;

pub use abacus::AbacusRow;
pub use analytical::{AnalyticalLegalizer, AnalyticalResult};
pub use cpu::{CpuLegalizer, CpuLegalizerResult};
pub use cpu_gpu::{CpuGpuLegalizer, CpuGpuResult};
pub use gpu_model::GpuModel;

use flex_mgl::config::MglConfig;
use flex_mgl::legalize::expansion_window;
use flex_placement::cell::CellId;
use flex_placement::geom::Rect;
use flex_placement::layout::Design;
use std::collections::VecDeque;

/// Take the next batch of region-parallel work off the front of `pending` (TCAD'22 and
/// DATE'22 form their batches alike): up to `max` cells whose level-0 windows are pairwise
/// disjoint, passing over at most `lookahead` cells whose window meets the batch's. Skipped
/// cells go back to the front in their order; if no cell fits, the batch is the front cell
/// alone. Returns each member with its level-0 window.
pub(crate) fn next_batch(
    design: &Design,
    cfg: &MglConfig,
    pending: &mut VecDeque<CellId>,
    max: usize,
    lookahead: usize,
) -> Vec<(CellId, Rect)> {
    let window = |id| expansion_window(design, cfg, id, 0);
    let mut batch: Vec<(CellId, Rect)> = Vec::new();
    let mut skipped: Vec<CellId> = Vec::new();
    while batch.len() < max && skipped.len() < lookahead {
        let Some(id) = pending.pop_front() else { break };
        let w = window(id);
        if batch.iter().any(|(_, b)| b.overlaps(&w)) {
            skipped.push(id);
        } else {
            batch.push((id, w));
        }
    }
    for id in skipped.into_iter().rev() {
        pending.push_front(id);
    }
    if batch.is_empty() {
        if let Some(id) = pending.pop_front() {
            batch.push((id, window(id)));
        }
    }
    batch
}
