//! The DATE'22 CPU-GPU legalizer (reference \[30\]).
//!
//! The DATE'22 system parallelizes MGL on a GPU by processing batches of non-overlapping
//! localRegions: for every region in a batch, all single-row insertion intervals are evaluated
//! brute-force by parallel threads (no queue data structures exist on the GPU), then the device
//! synchronizes so the host can write the chosen positions back and form the next batch.
//! "Tough" cells — multi-row-height targets and any cell whose region evaluation fails on the
//! GPU — are deferred to a serial CPU queue. The paper's Challenge-1 is precisely this split:
//! the CPU ends up with the long-latency cells while the GPU finishes early, and the batched
//! processing deviates from the quality-critical processing order.
//!
//! The functional legalization below follows that structure on the host (large non-overlapping
//! batches, tough cells last), so its *quality* genuinely reflects the DATE'22 ordering; its
//! *runtime* is reported through the [`GpuModel`] (brute-force interval evaluation per batch
//! plus a synchronization per batch) combined with the measured serial time of the tough-cell
//! queue.

use crate::gpu_model::GpuModel;
use flex_mgl::api::{LegalizeReport, Legalizer, RuntimeBreakdown};
use flex_mgl::config::MglConfig;
use flex_mgl::fop::FopScratch;
use flex_mgl::legalize::{place_target_with, PlacedBy};
use flex_mgl::region::{target_window, LegalizedIndex};
use flex_mgl::stats::FopOpStats;
use flex_placement::cell::CellId;
use flex_placement::geom::Rect;
use flex_placement::layout::Design;
use flex_placement::legality::check_legality_with;
use flex_placement::metrics::displacement_stats;
use flex_placement::segment::SegmentMap;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Result of a CPU-GPU legalization run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CpuGpuResult {
    /// Whether the final placement is legal.
    pub legal: bool,
    /// Measured host runtime of the functional run.
    pub host_runtime: Duration,
    /// Estimated end-to-end runtime on the modelled CPU+GTX1660Ti system.
    pub estimated_runtime: Duration,
    /// Estimated time the GPU spends in device synchronization.
    pub sync_time: Duration,
    /// Estimated time the CPU spends on the serial tough-cell queue.
    pub tough_cell_time: Duration,
    /// Average displacement `S_am`.
    pub average_displacement: f64,
    /// Number of GPU batches (synchronization points).
    pub batches: usize,
    /// Number of cells deferred to the CPU tough-cell queue.
    pub tough_cells: usize,
    /// Cells that could not be placed.
    pub failed: Vec<CellId>,
}

impl CpuGpuResult {
    /// Estimated runtime in seconds.
    pub fn seconds(&self) -> f64 {
        self.estimated_runtime.as_secs_f64()
    }

    /// Share of the GPU-side time spent in device synchronization (the Fig. 2(b) statistic).
    pub fn sync_fraction(&self) -> f64 {
        let gpu = self.estimated_runtime.saturating_sub(self.tough_cell_time);
        if gpu.is_zero() {
            return 0.0;
        }
        self.sync_time.as_secs_f64() / gpu.as_secs_f64()
    }
}

/// The CPU-GPU legalizer model.
#[derive(Debug, Clone)]
pub struct CpuGpuLegalizer {
    /// GPU device model.
    pub gpu: GpuModel,
    /// Maximum number of non-overlapping regions per GPU batch.
    pub batch_size: usize,
    /// Underlying MGL configuration. The DATE'22 flow places every cell with the shared
    /// per-cell step ([`place_target_with`]).
    pub config: MglConfig,
    /// Relative speed of the simple host CPU handling the tough-cell queue (the DATE'22 host is
    /// a desktop-class i5; 1.0 means "as fast as this machine").
    pub cpu_speed: f64,
}

impl Default for CpuGpuLegalizer {
    fn default() -> Self {
        Self {
            gpu: GpuModel::gtx_1660_ti(),
            batch_size: 192,
            config: MglConfig {
                // the DATE'22 flow has no region cap: every window is evaluated however
                // many localCells it holds
                max_region_cells: usize::MAX,
                ..MglConfig::original()
            },
            cpu_speed: 0.8,
        }
    }
}

impl CpuGpuLegalizer {
    /// Legalize the design in place.
    pub fn legalize(&self, design: &mut Design) -> CpuGpuResult {
        let start = Instant::now();
        design.pre_move();
        let segmap = SegmentMap::build(design);
        let mut index = LegalizedIndex::build(design);
        let mut op_stats = FopOpStats::default();
        let mut scratch = FopScratch::new();
        let mut place = |design: &mut Design, id: CellId| {
            let outcome = place_target_with(
                design,
                &segmap,
                &mut index,
                &self.config,
                id,
                &mut op_stats,
                &mut scratch,
            );
            outcome.placed != PlacedBy::None
        };

        // size-descending order; multi-row cells are "tough" and land on the CPU queue
        let mut simple: Vec<CellId> = Vec::new();
        let mut tough: Vec<CellId> = Vec::new();
        let mut order: Vec<CellId> = design.movable_ids();
        order.sort_by_key(|&id| {
            let c = design.cell(id);
            (std::cmp::Reverse(c.area()), id)
        });
        for id in order {
            if design.cell(id).height > 1 {
                tough.push(id);
            } else {
                simple.push(id);
            }
        }
        let tough_count = tough.len();

        let mut batches = 0usize;
        let mut gpu_time = Duration::ZERO;
        let mut sync_time = Duration::ZERO;
        let mut failed = Vec::new();

        // --- GPU part: batches of non-overlapping single-row regions --------------------------
        let mut pending: VecDeque<CellId> = simple.into();
        while !pending.is_empty() {
            let mut batch: Vec<CellId> = Vec::new();
            let mut windows: Vec<Rect> = Vec::new();
            let mut skipped: Vec<CellId> = Vec::new();
            let lookahead = self.batch_size * 4;
            while batch.len() < self.batch_size && !pending.is_empty() && skipped.len() < lookahead
            {
                let id = pending.pop_front().unwrap();
                let w = target_window(
                    design,
                    id,
                    self.config.window_half_sites,
                    self.config.window_half_rows,
                );
                if windows.iter().any(|x| x.overlaps(&w)) {
                    skipped.push(id);
                } else {
                    windows.push(w);
                    batch.push(id);
                }
            }
            for id in skipped.into_iter().rev() {
                pending.push_front(id);
            }
            if batch.is_empty() {
                if let Some(id) = pending.pop_front() {
                    batch.push(id);
                }
            }
            batches += 1;

            // brute-force work per region: every site of every row of the window is a candidate
            // interval evaluated by one GPU thread
            let mut items_per_region = 0u64;
            for id in &batch {
                let w = target_window(
                    design,
                    *id,
                    self.config.window_half_sites,
                    self.config.window_half_rows,
                );
                items_per_region = items_per_region.max((w.width() * w.height()) as u64);
            }
            let batch_time = self.gpu.batch_time(batch.len() as u64, items_per_region);
            gpu_time += batch_time;
            sync_time += self.gpu.sync_overhead;

            // functional evaluation + commit on the host
            for id in batch {
                if !place(design, id) {
                    failed.push(id);
                }
            }
        }

        // --- CPU part: the serial tough-cell queue --------------------------------------------
        let tough_start = Instant::now();
        for id in tough {
            if !place(design, id) {
                failed.push(id);
            }
        }
        let tough_cell_time =
            Duration::from_secs_f64(tough_start.elapsed().as_secs_f64() / self.cpu_speed);

        let disp = displacement_stats(design);
        let estimated_runtime = gpu_time + tough_cell_time;
        CpuGpuResult {
            legal: check_legality_with(design, true).is_legal() && failed.is_empty(),
            host_runtime: start.elapsed(),
            estimated_runtime,
            sync_time,
            tough_cell_time,
            average_displacement: disp.average,
            batches,
            tough_cells: tough_count,
            failed,
        }
    }
}

impl Legalizer for CpuGpuLegalizer {
    fn name(&self) -> &'static str {
        "date22-cpu-gpu"
    }

    fn legalize(&self, design: &mut Design) -> LegalizeReport {
        let result = CpuGpuLegalizer::legalize(self, design);
        // the DATE'22 flow does not distinguish region commits from its internal fallback,
        // so every placed cell is reported as a region placement (see `with_counts`)
        let cells = design.num_movable();
        LegalizeReport::new(self.name(), result.legal, cells, design)
            .with_runtime(RuntimeBreakdown::modeled(
                result.host_runtime,
                result.estimated_runtime,
            ))
            .with_counts(cells.saturating_sub(result.failed.len()), 0, result.failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_placement::benchmark::{generate, BenchmarkSpec};

    #[test]
    fn cpu_gpu_legalizer_produces_legal_result() {
        let mut d = generate(&BenchmarkSpec::tiny("dategpu", 41));
        let res = CpuGpuLegalizer::default().legalize(&mut d);
        assert!(res.legal, "failed: {:?}", res.failed);
        assert!(res.batches > 0);
        assert!(
            res.tough_cells > 0,
            "the tiny benchmark contains multi-row cells"
        );
        assert!(res.estimated_runtime > Duration::ZERO);
    }

    #[test]
    fn sync_overhead_is_a_substantial_share() {
        // Fig. 2(b): the DATE'22 legalizer spends a large fraction of its time in device
        // synchronization on region-parallel batches
        let mut d = generate(&BenchmarkSpec::medium("dategpu-sync", 42).scaled(0.4));
        let res = CpuGpuLegalizer::default().legalize(&mut d);
        assert!(res.legal);
        let f = res.sync_fraction();
        assert!(f > 0.05, "sync fraction {f:.3} unexpectedly small");
        assert!(f < 0.9, "sync fraction {f:.3} unexpectedly large");
    }

    #[test]
    fn tough_cells_serialize_on_the_cpu() {
        let spec = BenchmarkSpec::tiny("dategpu-tough", 43).with_height_mix(vec![
            (1, 0.5),
            (2, 0.3),
            (3, 0.15),
            (4, 0.05),
        ]);
        let mut d = generate(&spec);
        let res = CpuGpuLegalizer::default().legalize(&mut d);
        assert!(res.legal);
        assert!(res.tough_cell_time > Duration::ZERO);
        assert!(res.tough_cells as f64 > 0.3 * d.num_movable() as f64);
    }
}
