//! The single-threaded and multi-threaded CPU MGL legalizer (TCAD'22 \[18\]).
//!
//! The multi-threaded variant reproduces the region-level parallelization the paper's Fig. 2(a)
//! analyses: the size-ordered queue of target cells is scanned for a batch of cells whose
//! legalization windows do not overlap, the batch's FOP computations run in parallel worker
//! threads, and the commits are applied under a barrier before the next batch is formed. Batch
//! formation and committing are inherently serial, and the number of non-overlapping regions
//! available at any moment is limited, which is why the speedup saturates around eight threads.
//!
//! Each member's step is TCAD'22's own: FOP over expanding windows, then one commit attempt
//! for the first feasible placement. A cell whose commit is rejected goes to the fallback
//! scan, not to the next window (where the serial [`flex_mgl::MglLegalizer`] would go).
//!
//! Batch windows are disjoint only at expansion 0, and every member's region is extracted
//! before the batch commits. So an earlier member's commit in an expanded window, or its
//! fallback, can write into a later member's region, and that member's plan is stale. The
//! commit phase records every write of the batch; a member whose region window, widened by one
//! site like the parallel MGL engine's guard, meets an earlier write reruns its step serially
//! against the current design. A one-thread run never reruns a member.

use flex_mgl::api::{LegalizeReport, Legalizer, RuntimeBreakdown};
use flex_mgl::config::MglConfig;
use flex_mgl::fop::{find_optimal_position_with, FopScratch, Placement, TargetSpec};
use flex_mgl::legalize::{
    apply_commit, fallback_place_indexed, plan_commit_with, plan_write_rects,
};
use flex_mgl::region::{target_window, LegalizedIndex, LocalRegion};
use flex_mgl::stats::FopOpStats;
use flex_placement::cell::CellId;
use flex_placement::geom::Rect;
use flex_placement::layout::Design;
use flex_placement::legality::check_legality_with;
use flex_placement::metrics::displacement_stats;
use flex_placement::segment::SegmentMap;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// A batch member's FOP result: the region it was found in and the chosen placement.
type Found = (LocalRegion, Placement);

/// Result of a CPU-baseline legalization run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CpuLegalizerResult {
    /// Whether the final placement is fully legal.
    pub legal: bool,
    /// Wall-clock runtime.
    pub runtime: Duration,
    /// Average displacement `S_am`.
    pub average_displacement: f64,
    /// Maximum cell displacement.
    pub max_displacement: f64,
    /// Cells committed through FOP.
    pub placed_in_region: usize,
    /// Cells placed by the fallback scan.
    pub fallback_placed: usize,
    /// Cells that could not be placed.
    pub failed: Vec<CellId>,
    /// Number of parallel batches (synchronization points) executed.
    pub batches: usize,
    /// Average number of regions processed per batch.
    pub avg_batch_size: f64,
}

impl CpuLegalizerResult {
    /// Runtime in seconds.
    pub fn seconds(&self) -> f64 {
        self.runtime.as_secs_f64()
    }
}

/// The multi-threaded CPU MGL legalizer.
#[derive(Debug, Clone)]
pub struct CpuLegalizer {
    /// Number of worker threads (1 = the sequential TCAD'22 flow).
    pub threads: usize,
    /// Underlying MGL configuration (defaults to the original algorithm variants).
    pub config: MglConfig,
}

impl CpuLegalizer {
    /// Create a legalizer with `threads` worker threads and the original MGL configuration.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            config: MglConfig::original(),
        }
    }

    /// Legalize the design in place.
    pub fn legalize(&self, design: &mut Design) -> CpuLegalizerResult {
        let start = Instant::now();
        let cfg = &self.config;
        design.pre_move();
        let segmap = SegmentMap::build(design);
        // row-bucketed obstacle index: extraction and fallback only look at the legalized
        // cells actually occupying the window's rows instead of scanning the whole design,
        // which keeps the baseline honest (O(cells-in-window) per region) at 50k cells
        let mut index = LegalizedIndex::build(design);
        // the commit phase's arena; the workers use their thread-local ones
        let mut scratch = FopScratch::new();

        // size-descending processing order (the widely adopted baseline ordering)
        let mut queue: Vec<CellId> = design.movable_ids();
        queue.sort_by_key(|&id| {
            let c = design.cell(id);
            (std::cmp::Reverse(c.area()), id)
        });

        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads)
            .build()
            .expect("failed to build worker pool");

        let mut placed_in_region = 0usize;
        let mut fallback_placed = 0usize;
        let mut failed = Vec::new();
        let mut batches = 0usize;
        let mut batch_total = 0usize;
        let mut writes: Vec<Rect> = Vec::new();

        let mut pending = std::collections::VecDeque::from(queue);
        while !pending.is_empty() {
            // form a batch of cells whose windows do not overlap (scanning a bounded lookahead
            // so the ordering does not degrade arbitrarily)
            let lookahead = (self.threads * 4).max(8);
            let mut batch: Vec<CellId> = Vec::with_capacity(self.threads);
            let mut batch_windows: Vec<Rect> = Vec::new();
            let mut skipped: Vec<CellId> = Vec::new();
            while batch.len() < self.threads && !pending.is_empty() && skipped.len() < lookahead {
                let id = pending.pop_front().unwrap();
                let window = target_window(design, id, cfg.window_half_sites, cfg.window_half_rows);
                if batch_windows.iter().any(|w| w.overlaps(&window)) {
                    skipped.push(id);
                } else {
                    batch_windows.push(window);
                    batch.push(id);
                }
            }
            // anything skipped goes back to the front, preserving order
            for id in skipped.into_iter().rev() {
                pending.push_front(id);
            }
            if batch.is_empty() {
                // nothing non-overlapping found within the lookahead: fall back to one cell
                if let Some(id) = pending.pop_front() {
                    batch.push(id);
                }
            }

            batches += 1;
            batch_total += batch.len();

            // parallel FOP over the batch (read-only view of the design and the index)
            let (design_ref, index_ref): (&Design, &LegalizedIndex) = (design, &index);
            let outcomes: Vec<(CellId, Option<Found>)> = pool.install(|| {
                batch
                    .par_iter()
                    .map(|&id| {
                        let found = FopScratch::with_thread_local(|scratch| {
                            find_in_windows(design_ref, &segmap, index_ref, cfg, id, scratch)
                        });
                        (id, found)
                    })
                    .collect()
            });

            // serial commit phase (the synchronization the paper's Fig. 2(a)/(b) refers to)
            writes.clear();
            for (id, found) in outcomes {
                let stale = found.as_ref().is_some_and(|(region, _)| {
                    let guard = region.window.expanded(1, 0);
                    writes.iter().any(|w| w.overlaps(&guard))
                });
                let found = if stale {
                    find_in_windows(design, &segmap, &index, cfg, id, &mut scratch)
                } else {
                    found
                };
                // one commit attempt, then the fallback scan
                let spec = TargetSpec::of(design.cell(id));
                let plan = found.and_then(|(region, placement)| {
                    plan_commit_with(&region, &placement, &spec, cfg, &mut scratch)
                });
                if let Some(plan) = plan {
                    plan_write_rects(design, &plan, &mut writes);
                    apply_commit(design, &plan);
                    placed_in_region += 1;
                } else if fallback_place_indexed(design, &index, id, &spec) {
                    writes.push(design.cell(id).rect());
                    fallback_placed += 1;
                } else {
                    failed.push(id);
                    continue;
                }
                index.insert(design, id);
            }
        }

        let disp = displacement_stats(design);
        CpuLegalizerResult {
            legal: check_legality_with(design, true).is_legal(),
            runtime: start.elapsed(),
            average_displacement: disp.average,
            max_displacement: disp.max,
            placed_in_region,
            fallback_placed,
            failed,
            batches,
            avg_batch_size: if batches == 0 {
                0.0
            } else {
                batch_total as f64 / batches as f64
            },
        }
    }
}

/// TCAD'22's FOP step for one cell: extract the region of each expanding window until FOP
/// finds a feasible placement. `None` when no window does, or once a region outgrows
/// `max_region_cells` (larger windows only grow it).
fn find_in_windows(
    design: &Design,
    segmap: &SegmentMap,
    index: &LegalizedIndex,
    cfg: &MglConfig,
    id: CellId,
    scratch: &mut FopScratch,
) -> Option<Found> {
    let spec = TargetSpec::of(design.cell(id));
    for expansion in 0..=cfg.max_window_expansions {
        let window = target_window(
            design,
            id,
            cfg.window_half_sites << expansion,
            cfg.window_half_rows << expansion,
        );
        let region = LocalRegion::extract_indexed(design, segmap, id, window, index);
        if region.cells.len() > cfg.max_region_cells {
            return None;
        }
        if !region.can_host(spec.width, spec.height, spec.parity) {
            continue;
        }
        let mut stats = FopOpStats::default();
        if let Some(best) =
            find_optimal_position_with(&region, &spec, cfg, &mut stats, scratch).best
        {
            return Some((region, best));
        }
    }
    None
}

impl Legalizer for CpuLegalizer {
    fn name(&self) -> &'static str {
        "tcad22-cpu"
    }

    fn legalize(&self, design: &mut Design) -> LegalizeReport {
        let result = CpuLegalizer::legalize(self, design);
        LegalizeReport::new(self.name(), result.legal, design.num_movable(), design)
            .with_runtime(RuntimeBreakdown::measured(result.runtime))
            .with_counts(
                result.placed_in_region,
                result.fallback_placed,
                result.failed,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_placement::benchmark::{generate, BenchmarkSpec};

    #[test]
    fn single_threaded_run_is_legal() {
        let mut d = generate(&BenchmarkSpec::tiny("cpu1", 21));
        let res = CpuLegalizer::new(1).legalize(&mut d);
        assert!(res.legal, "failed cells: {:?}", res.failed);
        assert_eq!(res.placed_in_region + res.fallback_placed, d.num_movable());
        assert!(res.avg_batch_size >= 1.0);
    }

    #[test]
    fn multi_threaded_run_is_legal_and_batches_regions() {
        let mut d = generate(&BenchmarkSpec::tiny("cpu8", 22));
        let res = CpuLegalizer::new(8).legalize(&mut d);
        assert!(res.legal, "failed cells: {:?}", res.failed);
        assert!(res.batches > 0);
        assert!(
            res.avg_batch_size > 1.0,
            "8 threads should batch more than one region"
        );
    }

    /// Batch windows are disjoint only at expansion 0: on these seeds an earlier member's
    /// commit writes into a later member's region, whose stale plan must not be applied.
    #[test]
    fn two_threads_stay_legal_when_batch_regions_overlap() {
        for seed in [31, 41] {
            let mut d = generate(&BenchmarkSpec::tiny("cpu2", seed));
            let res = CpuLegalizer::new(2).legalize(&mut d);
            assert!(res.legal, "seed {seed}: failed cells {:?}", res.failed);
        }
    }

    #[test]
    fn quality_is_close_between_thread_counts() {
        let mut d1 = generate(&BenchmarkSpec::tiny("cpuq", 23));
        let mut d2 = generate(&BenchmarkSpec::tiny("cpuq", 23));
        let a = CpuLegalizer::new(1).legalize(&mut d1);
        let b = CpuLegalizer::new(4).legalize(&mut d2);
        assert!(a.legal && b.legal);
        let ratio = b.average_displacement / a.average_displacement.max(1e-9);
        assert!(
            ratio < 1.25,
            "parallel batching degraded quality too much: {ratio:.3}"
        );
    }
}
